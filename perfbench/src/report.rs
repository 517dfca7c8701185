//! Metric catalogs, their computation from a run, and the output format:
//! a human table (every metric with its unit, percentiles with their
//! sample counts) followed by one JSON line, the run's result.

use std::fmt::Write as _;

use crate::ledger::Ledger;
use crate::spans::SpanLog;
use crate::stats;
use crate::workloads::{counter, hist_p50, Class, Phase};

/// The tail percentile the end-to-end metrics gate on. Steal on a shared
/// 2-vCPU host delays a few percent of operations by a scheduling slice,
/// which moves a p99 by 2-5x from run to run; a p90 stays put.
pub const TAIL_Q: f64 = 0.90;

/// End-to-end metrics, printed by every untraced run of every workload.
/// What "op", "write" and "read" mean per workload is in the README.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
    ("ops_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
    ("write_mb_s", "MB/s"),
    ("write_p50_us", "us"),
    ("write_p90_us", "us"),
    ("read_mb_s", "MB/s"),
    ("read_p50_us", "us"),
    ("read_p90_us", "us"),
];

/// Per-layer metrics, printed by every traced run of every workload. A
/// layer a workload never enters reports 0 there.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("wal.crc32_ns_per_kb", "ns"),
    ("wal.frame_64k_us", "us"),
    ("wal.unframe_64k_us", "us"),
    ("wal.append_64k_us", "us"),
    ("wal.appends_per_write", "count"),
    ("wal.bytes_per_user_byte", "ratio"),
    ("wal.fsyncs", "count"),
    ("wal.append_ns.p50", "ns"),
    ("fabric.crc32_ns_per_kb", "ns"),
    ("fabric.frame_64k_us", "us"),
    ("fabric.unframe_64k_us", "us"),
    ("fabric.frames_per_op", "count"),
    ("replica.ships_per_write", "count"),
    ("replica.ship_us.p50", "us"),
    ("replica.ship_retries", "count"),
    ("replica.dedup_hits", "count"),
    ("cap.token_decode_ns", "ns"),
    ("cap.verify_cold_us", "us"),
    ("cap.verify_cached_ns", "ns"),
    ("cap.verify_ns.p50", "ns"),
    ("cap.cache_hit_ratio", "ratio"),
    ("authz.cache_hit_ratio", "ratio"),
    ("proto.encode_write_ns", "ns"),
    ("proto.decode_write_ns", "ns"),
    ("portals.put_64k_us", "us"),
    ("portals.get_64k_us", "us"),
    ("portals.rpc_rtt_us", "us"),
    ("portals.messages_per_op", "count"),
    ("portals.bytes_per_op", "bytes"),
    ("storage.store_write_64k_us", "us"),
    ("storage.store_read_64k_us", "us"),
    ("storage.store_create_us", "us"),
    ("storage.store_remove_us", "us"),
    ("storage.dispatch_ns.p50", "ns"),
    ("storage.write_total_ns.p50", "ns"),
    ("storage.conflict_defers", "count"),
    ("storage.busy_rejects", "count"),
    ("txn.commits", "count"),
    ("txn.aborts", "count"),
    ("txn.commit_ns.p50", "ns"),
    ("naming.ops", "count"),
    ("naming.lookup_ns.p50", "ns"),
    ("core.write_us.p50", "us"),
    ("core.read_us.p50", "us"),
    ("core.create_us.p50", "us"),
    ("core.getattr_us.p50", "us"),
    ("core.remove_us.p50", "us"),
    ("checkpoint.checkpoint_ms.p50", "ms"),
    ("checkpoint.restore_ms.p50", "ms"),
    ("checkpoint.retain_ms.p50", "ms"),
    ("host.steal_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("budget.explained_cpu_frac", "ratio"),
    ("budget.residual_cpu_us_per_op", "us"),
];

/// The name grammar every metric name must match.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is in no catalog"))
        .1
}

/// Named values of one run, in catalog order, plus notes for the table.
#[derive(Debug, Default)]
pub struct Report {
    pub values: Vec<(&'static str, f64)>,
    /// Extra table lines: sample counts, witnesses, breakdowns.
    pub notes: Vec<String>,
}

impl Report {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "{name} = {value} is not a finite number");
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Note a class's pooled sample count, its p99 and the highest
    /// percentile the pooled sample supports.
    fn note_samples(&mut self, segments: &[&Phase], class: Class) {
        let all = stats::sorted(segments.iter().flat_map(|p| p.samples.us(class)).collect());
        let n = all.len();
        let top = stats::highest_supported(n).map_or("none".to_string(), |q| {
            format!("p{} = {:.1} us", q * 100.0, stats::quantile(&all, q))
        });
        let p99 = if stats::supports(n, 0.99) {
            format!("{:.1} us ({} beyond)", stats::quantile(&all, 0.99), stats::beyond(n, 0.99))
        } else {
            "unsupported".to_string()
        };
        self.notes.push(format!(
            "{class:?}: n={n} in the deciding segments; pooled p99 {p99}, highest supported \
             pooled {top}"
        ));
    }

    /// Human table, one metric per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.values {
            let _ = writeln!(out, "{name:<34} {value:>16.4} {}", unit_of(name));
        }
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        out
    }

    /// The result line.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(n, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{}\"}}", unit_of(n)))
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The segments that decide the end-to-end metrics: the quieter half by
/// host steal, at least three. Steal is CPU time the hypervisor gave to a
/// neighbour; a segment it hit hard is slow for reasons outside the code.
pub fn quiet_segments(segments: &[Phase]) -> Vec<&Phase> {
    let mut by_steal: Vec<&Phase> = segments.iter().collect();
    by_steal.sort_by(|a, b| a.steal_frac.total_cmp(&b.steal_frac));
    let keep = segments.len().div_ceil(2).max(segments.len().min(3));
    by_steal.truncate(keep);
    by_steal
}

/// Median over `segments` of a value each segment gives from its whole
/// measured phase; a segment without operations gives none.
fn median_of(segments: &[&Phase], f: impl Fn(&Phase) -> Option<f64>) -> f64 {
    let v: Vec<f64> = segments.iter().filter_map(|p| f(p)).collect();
    assert!(!v.is_empty(), "no segment completed an operation");
    stats::median(&v)
}

/// Quantile `q` of one class's latencies: the median over `segments` of
/// each segment's quantile, from the segments with at least
/// [`stats::MIN_BEYOND`] samples beyond it. When none has (a very short
/// `--seconds`), the quantile of the segments' pooled samples, with a
/// warning if even the pool is too small.
fn latency(segments: &[&Phase], class: Class, q: f64, name: &str) -> f64 {
    let per_segment: Vec<f64> = segments
        .iter()
        .map(|p| stats::sorted(p.samples.us(class)))
        .filter(|v| stats::supports(v.len(), q))
        .map(|v| stats::quantile(&v, q))
        .collect();
    if !per_segment.is_empty() {
        return stats::median(&per_segment);
    }
    let pooled = stats::sorted(segments.iter().flat_map(|p| p.samples.us(class)).collect());
    if !stats::supports(pooled.len(), q) {
        eprintln!(
            "perfbench: warning: {name} from {} samples has < {} beyond",
            pooled.len(),
            stats::MIN_BEYOND
        );
    }
    stats::quantile(&pooled, q)
}

/// End-to-end metrics of an untraced run measured as `segments`, each on
/// a freshly booted cluster. Each metric is computed per segment over the
/// segment's whole measured phase (rates and CPU per op over its wall
/// time, percentiles over all its samples), and the reported value is the
/// median over the [`quiet_segments`].
pub fn end_to_end(setup_s: f64, peak_rss_mb: f64, segments: &[Phase]) -> Report {
    let mut r = Report::default();
    let quiet = quiet_segments(segments);
    let q = &quiet[..];
    let mb_s = |c| median_of(q, |p| Some(p.samples.bytes(c) as f64 / 1e6 / p.wall_s));
    let ops = |p: &Phase| p.samples.count(Class::Op) as f64;
    r.set("setup_s", setup_s);
    r.set("cpu_us_per_op", median_of(q, |p| (ops(p) > 0.0).then(|| p.cpu_s * 1e6 / ops(p))));
    r.set("peak_rss_mb", peak_rss_mb);
    r.set("ops_s", median_of(q, |p| Some(ops(p) / p.wall_s)));
    r.set("op_p50_us", latency(q, Class::Op, 0.5, "op_p50_us"));
    r.set("op_p90_us", latency(q, Class::Op, TAIL_Q, "op_p90_us"));
    r.set("write_mb_s", mb_s(Class::Write));
    r.set("write_p50_us", latency(q, Class::Write, 0.5, "write_p50_us"));
    r.set("write_p90_us", latency(q, Class::Write, TAIL_Q, "write_p90_us"));
    r.set("read_mb_s", mb_s(Class::Read));
    r.set("read_p50_us", latency(q, Class::Read, 0.5, "read_p50_us"));
    r.set("read_p90_us", latency(q, Class::Read, TAIL_Q, "read_p90_us"));
    for class in Class::ALL {
        r.note_samples(q, class);
    }
    let steal: Vec<String> = segments.iter().map(|p| format!("{:.3}", p.steal_frac)).collect();
    r.notes.push(format!(
        "segment steal: {}; the quietest {} decide",
        steal.join(" "),
        quiet.len()
    ));
    let wall: f64 = segments.iter().map(|p| p.wall_s).sum();
    let all_ops: f64 = segments.iter().map(ops).sum();
    r.notes.push(format!(
        "measured {wall:.2} s in {} segments, {:.2} CPU-s, {:.1} minor faults per op, \
         host.steal_frac = {:.4}",
        segments.len(),
        segments.iter().map(|p| p.cpu_s).sum::<f64>(),
        segments.iter().map(|p| p.faults).sum::<f64>() / all_ops,
        segments.iter().map(|p| p.steal_frac * p.wall_s).sum::<f64>() / wall
    ));
    r
}

fn span_p50(logs: &[&SpanLog], name: &str, scale: f64) -> f64 {
    let v = SpanLog::durations_us(logs, name);
    if v.is_empty() {
        0.0
    } else {
        stats::median(&v) / scale
    }
}

fn ratio(d: &lwfs_obs::WindowDelta, hits: &str, misses: &str) -> f64 {
    let h = counter(d, hits);
    per(h, h + counter(d, misses))
}

/// CPU microseconds per operation that the ledger explains, by layer:
/// each layer's isolated cost times its visits per operation, with the
/// visits taken from registry counts of the untraced phase.
pub fn budget(l: &Ledger, p: &Phase) -> Vec<(&'static str, f64)> {
    let d = &p.delta;
    let s = &p.samples;
    let ops = s.count(Class::Op) as f64;
    let bulk = crate::ledger::BULK as f64;
    let per_op = |name: &str| per(counter(d, name), ops);
    let written = per(s.bytes(Class::Write) as f64, ops);
    let read = per(s.bytes(Class::Read) as f64, ops);
    let ships = counter(d, "storage.repl_ships");
    let ship_bytes = per(written * ops, counter(d, "storage.writes").max(1.0)) * per(ships, ops);
    // Bytes crossing sockets: every portals byte when the fabric is in use.
    let fabric_bytes =
        if counter(d, "fabric.frames_sent") > 0.0 { per_op("portals.bytes") } else { 0.0 };
    vec![
        (
            "proto",
            per_op("portals.messages")
                * (l.get("proto.encode_write_ns") + l.get("proto.decode_write_ns"))
                / 1e3,
        ),
        (
            "portals",
            per_op("portals.messages") / 2.0 * l.get("portals.rpc_rtt_us")
                + per_op("portals.bytes") / bulk
                    * (l.get("portals.put_64k_us") + l.get("portals.get_64k_us"))
                    / 2.0,
        ),
        (
            "fabric",
            fabric_bytes / bulk * (l.get("fabric.frame_64k_us") + l.get("fabric.unframe_64k_us")),
        ),
        ("wal", per_op("wal.appended_bytes") / bulk * l.get("wal.append_64k_us")),
        ("replica", ship_bytes / bulk * (l.get("wal.frame_64k_us") + l.get("wal.unframe_64k_us"))),
        (
            "cap",
            per_op("cap.cache.hits") * l.get("cap.verify_cached_ns") / 1e3
                + per_op("cap.cache.misses") * l.get("cap.verify_cold_us"),
        ),
        (
            "storage",
            (written + ship_bytes) / bulk * l.get("storage.store_write_64k_us")
                + read / bulk * l.get("storage.store_read_64k_us")
                + per_op("storage.creates") * l.get("storage.store_create_us")
                + per_op("storage.removes") * l.get("storage.store_remove_us"),
        ),
    ]
}

/// Per-layer metrics of a traced run: the ledger, registry deltas of the
/// traced phase, the benchmark's own spans, and the harness witnesses.
pub fn per_layer(l: &Ledger, plain: &Phase, traced: &Phase, logs: &[&SpanLog]) -> Report {
    let mut r = Report::default();
    let d = &traced.delta;
    let s = &traced.samples;
    let ops = s.count(Class::Op) as f64;
    let writes = s.count(Class::Write) as f64;
    let get = |name: &str| l.get(name);
    let hist = |name: &str| hist_p50(d, name);

    r.set("wal.crc32_ns_per_kb", get("wal.crc32_ns_per_kb"));
    r.set("wal.frame_64k_us", get("wal.frame_64k_us"));
    r.set("wal.unframe_64k_us", get("wal.unframe_64k_us"));
    r.set("wal.append_64k_us", get("wal.append_64k_us"));
    r.set("wal.appends_per_write", per(counter(d, "wal.appends"), writes));
    r.set(
        "wal.bytes_per_user_byte",
        per(counter(d, "wal.appended_bytes"), s.bytes(Class::Write) as f64),
    );
    r.set("wal.fsyncs", counter(d, "wal.fsyncs"));
    r.set("wal.append_ns.p50", hist("wal.append_ns"));
    r.set("fabric.crc32_ns_per_kb", get("fabric.crc32_ns_per_kb"));
    r.set("fabric.frame_64k_us", get("fabric.frame_64k_us"));
    r.set("fabric.unframe_64k_us", get("fabric.unframe_64k_us"));
    r.set("fabric.frames_per_op", per(counter(d, "fabric.frames_sent"), ops));
    r.set("replica.ships_per_write", per(counter(d, "storage.repl_ships"), writes));
    r.set("replica.ship_us.p50", hist("storage.ship_ns") / 1e3);
    r.set("replica.ship_retries", counter(d, "storage.ship_retries"));
    r.set("replica.dedup_hits", counter(d, "storage.dedup_hits"));
    r.set("cap.token_decode_ns", get("cap.token_decode_ns"));
    r.set("cap.verify_cold_us", get("cap.verify_cold_us"));
    r.set("cap.verify_cached_ns", get("cap.verify_cached_ns"));
    r.set("cap.verify_ns.p50", hist("cap.verify_ns"));
    r.set("cap.cache_hit_ratio", ratio(d, "cap.cache.hits", "cap.cache.misses"));
    r.set("authz.cache_hit_ratio", ratio(d, "authz.cache.hits", "authz.cache.misses"));
    r.set("proto.encode_write_ns", get("proto.encode_write_ns"));
    r.set("proto.decode_write_ns", get("proto.decode_write_ns"));
    r.set("portals.put_64k_us", get("portals.put_64k_us"));
    r.set("portals.get_64k_us", get("portals.get_64k_us"));
    r.set("portals.rpc_rtt_us", get("portals.rpc_rtt_us"));
    r.set("portals.messages_per_op", per(counter(d, "portals.messages"), ops));
    r.set("portals.bytes_per_op", per(counter(d, "portals.bytes"), ops));
    r.set("storage.store_write_64k_us", get("storage.store_write_64k_us"));
    r.set("storage.store_read_64k_us", get("storage.store_read_64k_us"));
    r.set("storage.store_create_us", get("storage.store_create_us"));
    r.set("storage.store_remove_us", get("storage.store_remove_us"));
    r.set("storage.dispatch_ns.p50", hist("storage.dispatch_ns"));
    r.set("storage.write_total_ns.p50", hist("storage.write.total_ns"));
    r.set("storage.conflict_defers", counter(d, "storage.conflict_defer"));
    r.set("storage.busy_rejects", counter(d, "storage.busy_rejects"));
    r.set("txn.commits", counter(d, "txn.commits"));
    r.set("txn.aborts", counter(d, "txn.aborts"));
    r.set("txn.commit_ns.p50", hist("txn.commit_ns"));
    r.set("naming.ops", counter(d, "naming.ops"));
    r.set("naming.lookup_ns.p50", hist("naming.lookup.total_ns"));
    r.set("core.write_us.p50", span_p50(logs, "core.write", 1.0));
    r.set("core.read_us.p50", span_p50(logs, "core.read", 1.0));
    r.set("core.create_us.p50", span_p50(logs, "core.create", 1.0));
    r.set("core.getattr_us.p50", span_p50(logs, "core.getattr", 1.0));
    r.set("core.remove_us.p50", span_p50(logs, "core.remove", 1.0));
    r.set("checkpoint.checkpoint_ms.p50", span_p50(logs, "checkpoint.checkpoint", 1e3));
    r.set("checkpoint.restore_ms.p50", span_p50(logs, "checkpoint.restore", 1e3));
    r.set("checkpoint.retain_ms.p50", span_p50(logs, "checkpoint.retain", 1e3));

    let wall = plain.wall_s + traced.wall_s;
    r.set(
        "host.steal_frac",
        (plain.steal_frac * plain.wall_s + traced.steal_frac * traced.wall_s) / wall,
    );
    let rate = |p: &Phase| p.samples.count(Class::Op) as f64 / p.wall_s;
    r.set("trace.overhead_frac", 1.0 - per(rate(traced), rate(plain)));

    let cpu_us = per(plain.cpu_s * 1e6, plain.samples.count(Class::Op) as f64);
    let parts = budget(l, plain);
    let explained: f64 = parts.iter().map(|(_, us)| us).sum();
    r.set("budget.explained_cpu_frac", per(explained, cpu_us));
    r.set("budget.residual_cpu_us_per_op", cpu_us - explained);
    let mut line = format!("budget: {cpu_us:.1} CPU-us per op, explained {explained:.1}:");
    for (layer, us) in &parts {
        let _ = write!(line, " {layer}={us:.1}");
    }
    let _ = write!(line, "; unexplained residual {:.1} us", cpu_us - explained);
    r.notes.push(line);
    r.notes.push(format!(
        "traced {} ops in {:.2} s vs untraced {} ops in {:.2} s",
        traced.samples.count(Class::Op),
        traced.wall_s,
        plain.samples.count(Class::Op),
        plain.wall_s
    ));
    r
}
