//! `perfbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Untraced (`--trace 0`): boot the workload's cluster several times
//! (setup time is the median), then on each of the last few boots warm
//! up, measure a closed loop for a share of `--seconds` (a segment) and
//! check the cluster's final state; print every end-to-end metric. Traced
//! (`--trace 1`): measure an untraced and a traced phase back to back,
//! replay the layer ledger, and print every per-layer metric; the spans
//! go to `.perfbench/trace-<workload>-<seed>.json`. The last line of
//! standard output is the result as one JSON object.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use lwfs_perfbench::workloads::{self, Kind};
use lwfs_perfbench::{cli, host, ledger, report, spans, stats};

/// Cluster boots per run; the median is `setup_s`.
const SETUPS: usize = 21;
/// Untraced runs measure this many segments of `--seconds / SEGMENTS`,
/// each on a freshly booted cluster: throughput differs by ±10% from one
/// boot to the next on a 2-core host, and the median over independent
/// boots averages that out. Short segments also let some of them fall
/// between the host's steal bursts (see `report::quiet_segments`).
const SEGMENTS: usize = 10;
/// Unmeasured closed-loop time before each measured phase.
const WARMUP_S: f64 = 0.5;
/// Shares of `--seconds` in a traced run.
const PLAIN_SHARE: f64 = 0.35;
const TRACED_SHARE: f64 = 0.35;
const LEDGER_SHARE: f64 = 0.30;

/// Output directory, inside the directory the benchmark runs from.
const OUT_DIR: &str = ".perfbench";

fn run(kind: Kind, args: &cli::Args) -> (report::Report, u64, u64) {
    let work_dir = PathBuf::from(OUT_DIR).join(format!("{}-{}", kind.name(), std::process::id()));
    std::fs::create_dir_all(&work_dir).expect("create the working directory");
    let origin = Instant::now();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut boot = || {
        let t = Instant::now();
        let w = workloads::setup(kind, args.seed, &work_dir, origin);
        setups.push(t.elapsed().as_secs_f64());
        w
    };

    let (report, phases) = if !args.trace {
        for _ in SEGMENTS..SETUPS {
            drop(boot());
        }
        let segments: Vec<_> = (0..SEGMENTS)
            .map(|_| {
                let mut w = boot();
                w.run(WARMUP_S, 0, false);
                let min_ops = w.min_ops().div_ceil(SEGMENTS as u64);
                let p = w.run(args.seconds / SEGMENTS as f64, min_ops, false);
                w.verify();
                p
            })
            .collect();
        let r = report::end_to_end(stats::median(&setups), host::peak_rss_mb(), &segments);
        (r, segments)
    } else {
        let mut w = boot();
        w.run(WARMUP_S, 0, false);
        let plain = w.run(args.seconds * PLAIN_SHARE, 0, false);
        let traced = w.run(args.seconds * TRACED_SHARE, 0, true);
        w.verify();
        let budget = Duration::from_secs_f64(args.seconds * LEDGER_SHARE);
        let l = ledger::run(budget, args.seed, &work_dir);
        let logs = w.logs();
        let r = report::per_layer(&l, &plain, &traced, &logs);
        let path = PathBuf::from(OUT_DIR).join(format!("trace-{}-{}.json", kind.name(), args.seed));
        match std::fs::write(&path, spans::to_chrome_json(&logs)) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: span export to {} failed: {e}", path.display()),
        }
        (r, vec![plain, traced])
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    let attempted = phases.iter().map(|p| p.samples.attempted).sum();
    let failed = phases.iter().map(|p| p.samples.failed).sum();
    (report, attempted, failed)
}

fn main() {
    host::pin_allocator();
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <ckpt_restore|repl_wal_tcp|small_obj_signed|all> --seed <n> --seconds <n> --trace <0|1>");
            std::process::exit(64);
        }
    };
    if let [kind] = args.workloads[..] {
        run_one(kind, &args);
        return;
    }
    // Several workloads: each in a child process of its own, so that the
    // process-wide figures (peak resident set, CPU time, the allocator's
    // retained heap) belong to that workload alone.
    let exe = std::env::current_exe().expect("path of the running benchmark");
    for kind in &args.workloads {
        let status = std::process::Command::new(&exe)
            .args(["--workload", kind.name(), "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .status()
            .expect("start a workload process");
        if !status.success() {
            eprintln!("perfbench: {} failed: {status}", kind.name());
            std::process::exit(status.code().unwrap_or(1));
        }
    }
}

fn run_one(kind: Kind, args: &cli::Args) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: {} seed={} seconds={} trace={} clients={} cores={cores}",
        kind.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        workloads::CLIENTS
    );
    let (report, attempted, failed) = run(kind, args);
    println!("## {}", kind.name());
    print!("{}", report.table());
    println!("{}", report.json(true, attempted, failed));
}
