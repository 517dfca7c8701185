//! The LWFS benchmark: three closed-loop workloads over a booted cluster,
//! their end-to-end metrics, and a per-layer view built from a layer cost
//! ledger, registry deltas and the benchmark's own spans.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload repl_wal_tcp --seed 1 --seconds 20 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads, the metric definitions
//! and which layer metric each optimisation should move.

pub mod cli;
pub mod gen;
pub mod host;
pub mod ledger;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;
