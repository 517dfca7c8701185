//! Self-tests of the benchmark: the percentile rule, determinism of the
//! seeded inputs, agreement between the metric names the benchmark
//! prints and the names `BENCHMARK.json` declares, the segment estimator,
//! and `--workload all` running each workload in a process of its own.
//!
//! ```text
//! cargo test --manifest-path perfbench/Cargo.toml
//! ```

use lwfs_obs::{MetricFrame, WindowDelta};
use lwfs_perfbench::gen::{CkptPlan, PlanOp, Pool, ReplPlan, SmallPlan};
use lwfs_perfbench::report::{self, END_TO_END, PER_LAYER};
use lwfs_perfbench::stats::{self, LADDER, MIN_BEYOND};
use lwfs_perfbench::workloads::{Class, Kind, Phase, Rec, Samples};

#[test]
fn highest_supported_percentile_has_ten_samples_beyond() {
    for n in 1..5000 {
        match stats::highest_supported(n) {
            None => assert!(!stats::supports(n, LADDER[0]), "n={n}"),
            Some(q) => {
                assert!(stats::beyond(n, q) >= MIN_BEYOND, "n={n} q={q}");
                if let Some(&next) = LADDER.iter().find(|&&l| l > q) {
                    assert!(stats::beyond(n, next) < MIN_BEYOND, "n={n}: {next} also supported");
                }
            }
        }
    }
    assert_eq!(stats::highest_supported(19), None);
    assert_eq!(stats::highest_supported(20), Some(0.5));
    assert_eq!(stats::highest_supported(999), Some(0.95));
    assert_eq!(stats::highest_supported(1000), Some(0.99));
    assert_eq!(stats::min_samples(0.99), 1000);
}

#[test]
fn nearest_rank_quantile_counts_failures_as_slowest() {
    let mut v: Vec<f64> = (1..=99).map(f64::from).collect();
    v.push(f64::INFINITY);
    let s = stats::sorted(v);
    assert_eq!(stats::quantile(&s, 0.5), 50.0);
    assert_eq!(stats::quantile(&s, 0.99), 99.0);
    assert!(stats::quantile(&s, 1.0).is_infinite());
}

/// FNV-1a digest of a payload.
fn digest(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325u64, |h, b| (h ^ *b as u64).wrapping_mul(0x100_0000_01B3))
}

/// The op sequence and payload digests of a repl client's first ops.
fn repl_trace(seed: u64, client: u64) -> Vec<(PlanOp, u64)> {
    let pool = Pool::new(seed, ReplPlan::POOL);
    let mut plan = ReplPlan::new(seed, client);
    (0..400)
        .map(|_| {
            let op = plan.next_op();
            let d = match op {
                PlanOp::Write { seq, len, pool_off, .. } => {
                    digest(&pool.payload(client, seq, pool_off, len))
                }
                PlanOp::Read { .. } => 0,
            };
            (op, d)
        })
        .collect()
}

fn small_trace(seed: u64, client: u64) -> Vec<(u64, usize, usize, usize, u64)> {
    let pool = Pool::new(seed, SmallPlan::POOL);
    let mut plan = SmallPlan::new(seed, client);
    (0..400)
        .map(|_| {
            let l = plan.next_loop();
            assert!((SmallPlan::MIN..=SmallPlan::MAX).contains(&l.len));
            assert!(l.read_len >= 1 && l.read_off + l.read_len <= l.len);
            let d = digest(&pool.payload(client, l.seq, l.pool_off, l.len));
            (l.seq, l.len, l.read_off, l.read_len, d)
        })
        .collect()
}

fn ckpt_trace(seed: u64, rank: u64) -> Vec<u64> {
    let mut plan = CkptPlan::new(seed, rank);
    (1..=20)
        .map(|epoch| {
            plan.step(epoch);
            digest(&plan.state)
        })
        .collect()
}

#[test]
fn same_seed_gives_the_same_ops_and_payloads() {
    for seed in [1, 2, 77] {
        assert_eq!(repl_trace(seed, 0), repl_trace(seed, 0));
        assert_eq!(small_trace(seed, 1), small_trace(seed, 1));
        assert_eq!(ckpt_trace(seed, 0), ckpt_trace(seed, 0));
    }
}

#[test]
fn other_seeds_and_clients_give_other_inputs() {
    assert_ne!(repl_trace(1, 0), repl_trace(2, 0));
    assert_ne!(repl_trace(1, 0), repl_trace(1, 1));
    assert_ne!(small_trace(1, 0), small_trace(2, 0));
    assert_ne!(ckpt_trace(1, 0), ckpt_trace(2, 0));
    assert_ne!(ckpt_trace(1, 0), ckpt_trace(1, 1));
    // Epochs differ from each other: every checkpoint writes new bytes.
    let t = ckpt_trace(5, 0);
    assert!(t.windows(2).all(|w| w[0] != w[1]));
}

/// The bracketed array following `"key":` in `json`.
fn section<'a>(json: &'a str, key: &str) -> &'a str {
    let at = json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key}"));
    let open = at + json[at..].find('[').expect("array");
    let mut depth = 0;
    for (i, c) in json[open..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return &json[open..open + i + 1];
                }
            }
            _ => {}
        }
    }
    panic!("unterminated {key}")
}

/// Every string value of `field` in a section.
fn strings(section: &str, field: &str) -> Vec<String> {
    let tag = format!("\"{field}\":");
    section
        .match_indices(&tag)
        .map(|(i, _)| {
            let rest = section[i + tag.len()..].trim_start();
            let rest = rest.strip_prefix('"').expect("string value");
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let json = benchmark_json();
    let declared = |key| {
        let s = section(&json, key);
        strings(s, "name").into_iter().zip(strings(s, "unit")).collect::<Vec<_>>()
    };
    let own = |cat: &[(&str, &str)]| {
        cat.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect::<Vec<_>>()
    };
    assert_eq!(declared("end_to_end"), own(&END_TO_END));
    assert_eq!(declared("per_layer"), own(&PER_LAYER));
    let workloads = strings(section(&json, "workloads"), "name");
    assert_eq!(workloads, Kind::ALL.map(|k| k.name().to_string()).to_vec());
    let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|(n, _)| *n).collect();
    assert!(all.iter().all(|n| report::valid_name(n)), "a name breaks [A-Za-z0-9_.-]+");
    all.sort_unstable();
    let before = all.len();
    all.dedup();
    assert_eq!(all.len(), before, "a metric name is used twice");
}

#[test]
fn name_grammar_rejects_other_characters() {
    assert!(report::valid_name("wal.append_ns.p50"));
    assert!(report::valid_name("op_p99_us"));
    for bad in ["", "_lead", "has space", "slash/name", "quote\"", &"x".repeat(65)] {
        assert!(!report::valid_name(bad), "{bad:?} accepted");
    }
}

/// One measured segment: `ops` samples of every class, latencies cycling
/// through 1..=1000 us, 1000 bytes per write and read.
fn segment(ops: u32, wall_s: f64, cpu_s: f64, steal_frac: f64) -> Phase {
    let recs = Class::ALL.map(|class| {
        (0..ops)
            .map(|i| Rec {
                us: (i % 1000 + 1) as f32,
                bytes: if class == Class::Op { 0 } else { 1000 },
            })
            .collect::<Vec<_>>()
    });
    let frame = MetricFrame::new(0, vec![], vec![], vec![]);
    Phase {
        samples: Samples { recs, attempted: u64::from(ops), failed: 0 },
        wall_s,
        cpu_s,
        steal_frac,
        faults: 0.0,
        delta: WindowDelta::between(&frame, &MetricFrame::new(1, vec![], vec![], vec![])),
    }
}

#[test]
fn untraced_result_line_carries_exactly_the_end_to_end_metrics() {
    let segments = [segment(3000, 3.0, 3.0, 0.0)];
    let r = report::end_to_end(0.01, 10.0, &segments);
    let line = r.json(true, 3000, 0);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": 3000, \"failed\": 0, \"metrics\": {")
    );
    let printed: Vec<&str> = r.values.iter().map(|(n, _)| *n).collect();
    assert_eq!(printed, END_TO_END.map(|(n, _)| n).to_vec());
    for (n, u) in END_TO_END {
        assert!(line.contains(&format!("\"{n}\": {{\"value\": ")), "{n} missing");
        assert!(line.contains(&format!("\"unit\": \"{u}\"")));
    }
    assert_eq!(r.get("op_p90_us"), Some(900.0));
    assert_eq!(r.get("op_p50_us"), Some(500.0));
    assert_eq!(r.get("ops_s"), Some(1000.0));
    assert_eq!(r.get("write_mb_s"), Some(1.0));
    assert_eq!(r.get("cpu_us_per_op"), Some(1000.0));
}

#[test]
fn quiet_segments_decide_over_their_whole_wall_time() {
    // Six segments of 4 s: the quieter half by steal decides, and the
    // segments hit by steal never do.
    let segments = [
        segment(4000, 4.0, 4.0, 0.01),
        segment(4400, 4.0, 4.0, 0.02),
        segment(1000, 4.0, 4.0, 0.30),
        segment(3600, 4.0, 4.0, 0.00),
        segment(1000, 4.0, 4.0, 0.25),
        segment(3000, 4.0, 4.0, 0.03),
    ];
    let quiet = report::quiet_segments(&segments);
    assert_eq!(quiet.len(), 3);
    assert!(quiet.iter().all(|p| p.steal_frac <= 0.02));
    let r = report::end_to_end(0.01, 10.0, &segments);
    assert_eq!(r.get("ops_s"), Some(1000.0));
    assert_eq!(r.get("cpu_us_per_op"), Some(1000.0));

    // A stall inside a segment counts against the segment's rate over its
    // whole wall time: one second lost in each of two segments of three
    // moves the median.
    let calm: Vec<Phase> =
        [4000, 4000, 3000].into_iter().map(|ops| segment(ops, 4.0, 4.0, 0.0)).collect();
    let r = report::end_to_end(0.01, 10.0, &calm);
    assert_eq!(r.get("ops_s"), Some(1000.0));
    let slow: Vec<Phase> =
        [4000, 3000, 3000].into_iter().map(|ops| segment(ops, 4.0, 4.0, 0.0)).collect();
    assert_eq!(report::end_to_end(0.01, 10.0, &slow).get("ops_s"), Some(750.0));
}

/// The value of metric `name` in a result line.
fn metric(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line.find(&key).expect("metric in the result") + key.len();
    let rest = &line[at..];
    rest[..rest.find(',').expect("value ends")].parse().expect("numeric value")
}

#[test]
fn all_runs_each_workload_in_a_process_of_its_own() {
    // `repl_wal_tcp` holds hundreds of MB of socket buffers; the
    // workload after it must not report that peak as its own.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "all", "--seed", "5", "--seconds", "1", "--trace", "0"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let results: Vec<&str> =
        stdout.lines().filter(|l| l.starts_with("{\"correct\": true")).collect();
    assert_eq!(results.len(), Kind::ALL.len(), "{stdout}");
    let peak: Vec<f64> = results.iter().map(|l| metric(l, "peak_rss_mb")).collect();
    let (repl, small) = (peak[1], peak[2]);
    assert!(small < repl / 2.0, "small_obj_signed peak {small} MB vs repl_wal_tcp {repl} MB");
}
