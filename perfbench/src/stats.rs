//! Order statistics with the sample-count rule the benchmark reports by.
//!
//! A percentile is only worth printing when at least ten samples lie
//! beyond it; otherwise its value is set by a handful of outliers. The
//! rule is applied to every latency metric and checked by the self-tests.

/// Samples that must lie strictly above a printed percentile.
pub const MIN_BEYOND: usize = 10;

/// The percentiles the benchmark knows how to name, lowest first.
pub const LADDER: [f64; 5] = [0.50, 0.90, 0.95, 0.99, 0.999];

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank position of `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Whether `n` samples support printing quantile `q`.
pub fn supports(n: usize, q: f64) -> bool {
    beyond(n, q) >= MIN_BEYOND
}

/// Fewest samples that support quantile `q`.
pub fn min_samples(q: f64) -> usize {
    (1..).find(|&n| supports(n, q)).expect("some sample count supports every q < 1")
}

/// The highest percentile of [`LADDER`] that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().copied().rfind(|&q| supports(n, q))
}

/// Nearest-rank quantile of ascending-sorted `sorted`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// Sort a sample ascending (failed operations are recorded as +inf and
/// sort last, so they count against every percentile).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
    }
}
