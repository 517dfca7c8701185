//! The three workloads, each a closed loop of two client threads over a
//! freshly booted in-process cluster.
//!
//! * `ckpt_restore` — Figure 8's checkpoint through `LwfsCheckpointer`:
//!   txn (2PC), naming, collectives and server-directed bulk pull/push.
//! * `repl_wal_tcp` — one R=2 group with a WAL over loopback sockets: the
//!   only workload that crosses `lwfs-fabric` and `lwfs-wal`.
//! * `small_obj_signed` — per-request cost: codec, dispatch, ed25519
//!   token verdicts, store create/remove; no bulk checksums, WAL or ships.
//!
//! Every read is compared against the seeded bytes it should return, and
//! each workload checks the cluster's final state; a mismatch ends the
//! process with a non-zero exit instead of being counted as a slow op.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use lwfs_cap::CapMode;
use lwfs_checkpoint::LwfsCheckpointer;
use lwfs_core::{CapSet, ClusterConfig, LwfsClient, LwfsCluster, TransportKind};
use lwfs_obs::{Registry, WindowDelta};
use lwfs_portals::Group;
use lwfs_proto::{ContainerId, ObjId, OpMask, ProcessId};
use lwfs_storage::StorageConfig;
use lwfs_wal::{SyncPolicy, WalConfig};

use crate::gen::{CkptPlan, PlanOp, Pool, ReplPlan, SmallPlan};
use crate::spans::SpanLog;

/// Closed-loop client threads per workload (the host has two cores).
pub const CLIENTS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    CkptRestore,
    ReplWalTcp,
    SmallObjSigned,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::CkptRestore, Kind::ReplWalTcp, Kind::SmallObjSigned];

    pub fn name(self) -> &'static str {
        match self {
            Kind::CkptRestore => "ckpt_restore",
            Kind::ReplWalTcp => "repl_wal_tcp",
            Kind::SmallObjSigned => "small_obj_signed",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Print why the run is wrong and end it with a non-zero exit. Client
/// threads of a collective cannot unwind independently (the peer would
/// wait forever), so a failed check ends the process at once.
pub fn fatal(msg: impl std::fmt::Display) -> ! {
    eprintln!("perfbench: correctness check failed: {msg}");
    std::process::exit(2)
}

/// What a timed sample measures (per workload, see the README).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// One workload operation.
    Op,
    Write,
    Read,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Op, Class::Write, Class::Read];
}

/// One timed sample. Compact, because the samples share the process
/// whose peak resident set the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rec {
    /// Latency; +inf for a failed call, so it counts against every
    /// percentile.
    pub us: f32,
    /// Bytes moved (0 when the call failed).
    pub bytes: u32,
}

/// Timed samples per [`Class`] and call counts of one phase (one client,
/// or merged).
#[derive(Debug, Default)]
pub struct Samples {
    pub recs: [Vec<Rec>; 3],
    /// Client API calls attempted and failed (errors or refusals).
    pub attempted: u64,
    pub failed: u64,
}

impl Samples {
    fn merge(&mut self, o: Samples) {
        for (mine, theirs) in self.recs.iter_mut().zip(o.recs) {
            mine.extend(theirs);
        }
        self.attempted += o.attempted;
        self.failed += o.failed;
    }

    /// Count one client call; true when it succeeded.
    fn call<T, E>(&mut self, r: &Result<T, E>) -> bool {
        self.attempted += 1;
        if r.is_err() {
            self.failed += 1;
        }
        r.is_ok()
    }

    /// Record a sample that started at `t`.
    fn push(&mut self, class: Class, t: Instant, ok: bool, bytes: usize) {
        let us = if ok { t.elapsed().as_secs_f64() * 1e6 } else { f64::INFINITY };
        let bytes =
            if ok { u32::try_from(bytes).expect("payloads are far below 4 GiB") } else { 0 };
        self.recs[class as usize].push(Rec { us: us as f32, bytes });
    }

    pub fn of(&self, class: Class) -> &[Rec] {
        &self.recs[class as usize]
    }

    pub fn us(&self, class: Class) -> Vec<f64> {
        self.of(class).iter().map(|r| f64::from(r.us)).collect()
    }

    pub fn count(&self, class: Class) -> usize {
        self.of(class).len()
    }

    pub fn bytes(&self, class: Class) -> u64 {
        self.of(class).iter().map(|r| u64::from(r.bytes)).sum()
    }
}

/// Shared stop signal, progress count and time origin of one phase.
pub struct Ctl {
    stop: AtomicBool,
    /// Completed workload operations, all clients.
    progress: AtomicU64,
    start: Instant,
}

impl Ctl {
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    fn tick(&self) {
        self.progress.fetch_add(1, Ordering::Relaxed);
    }
}

/// Result of one measured phase.
pub struct Phase {
    pub samples: Samples,
    pub wall_s: f64,
    /// Process CPU seconds, all threads (see [`crate::host`]).
    pub cpu_s: f64,
    /// Host CPU time stolen during the phase (see [`crate::host`]).
    pub steal_frac: f64,
    /// Minor page faults of the process during the phase.
    pub faults: f64,
    /// Registry deltas (counters and bucket-exact histograms) over the phase.
    pub delta: WindowDelta,
}

/// Run `body` on one scoped thread per client state until `secs` have
/// passed and at least `min_ops` operations completed (or `3 × secs`,
/// whichever comes first), then stop and join every thread.
fn drive<S: Send>(
    states: &mut [S],
    secs: f64,
    min_ops: u64,
    registry: &Registry,
    body: impl Fn(&mut S, &Ctl) -> Samples + Sync,
) -> Phase {
    let before = registry.frame(0);
    let cpu0 = crate::host::process_cpu_s();
    let f0 = crate::host::minor_faults();
    let host0 = crate::host::HostTicks::now();
    let ctl =
        Ctl { stop: AtomicBool::new(false), progress: AtomicU64::new(0), start: Instant::now() };
    let mut merged = Samples::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = states.iter_mut().map(|st| s.spawn(|| body(st, &ctl))).collect();
        loop {
            std::thread::sleep(Duration::from_millis(5));
            let el = ctl.start.elapsed().as_secs_f64();
            let enough = ctl.progress.load(Ordering::Relaxed) >= min_ops;
            if (el >= secs && enough) || el >= 3.0 * secs {
                break;
            }
        }
        ctl.stop.store(true, Ordering::Release);
        for h in handles {
            merged.merge(h.join().expect("client thread panicked"));
        }
    });
    let wall_s = ctl.start.elapsed().as_secs_f64();
    let cpu_s = crate::host::process_cpu_s() - cpu0;
    let steal_frac = host0.steal_frac_until(&crate::host::HostTicks::now());
    let after = registry.frame((wall_s * 1e9) as u64);
    Phase {
        samples: merged,
        wall_s,
        cpu_s,
        steal_frac,
        faults: crate::host::minor_faults() - f0,
        delta: WindowDelta::between(&before, &after),
    }
}

fn login(cluster: &LwfsCluster, nid: u32) -> LwfsClient {
    let mut client = cluster.client(nid, 0);
    let ticket = cluster.kdc().kinit("app", "secret").expect("kinit for the preset user");
    client.get_cred(ticket).expect("credential");
    client
}

/// One workload with its cluster booted and its clients logged in.
pub trait Workload: Send {
    /// Minimum operations a phase must complete (the percentile rule).
    fn min_ops(&self) -> u64;
    fn registry(&self) -> Arc<Registry>;
    /// Run one phase: at least `secs` seconds and `min_ops` operations.
    fn run(&mut self, secs: f64, min_ops: u64, traced: bool) -> Phase;
    /// Check the cluster's final state after the last phase.
    fn verify(&mut self);
    /// The client threads' span logs, for per-layer metrics and export.
    fn logs(&self) -> Vec<&SpanLog>;
}

/// Boot `kind` with inputs from `seed`; `work_dir` holds any files.
pub fn setup(kind: Kind, seed: u64, work_dir: &Path, origin: Instant) -> Box<dyn Workload> {
    match kind {
        Kind::CkptRestore => Box::new(Ckpt::setup(seed, origin)),
        Kind::ReplWalTcp => Box::new(Repl::setup(seed, work_dir, origin)),
        Kind::SmallObjSigned => Box::new(Small::setup(seed, origin)),
    }
}

// ---------------------------------------------------------------- ckpt_restore

struct Rank {
    client: LwfsClient,
    caps: CapSet,
    rank: usize,
    plan: CkptPlan,
    epoch: u64,
    log: SpanLog,
}

struct Ckpt {
    cluster: LwfsCluster,
    group: Group,
    ranks: Vec<Rank>,
}

impl Ckpt {
    const KEEP: usize = 2;

    fn setup(seed: u64, origin: Instant) -> Ckpt {
        let cluster = LwfsCluster::boot(ClusterConfig { storage_servers: 2, ..Default::default() });
        let group = Group::new((0..CLIENTS as u32).map(|r| ProcessId::new(r, 0)).collect());
        let clients: Vec<LwfsClient> = (0..CLIENTS as u32).map(|r| login(&cluster, r)).collect();
        let cid = clients[0].create_container().expect("container");
        let ranks = clients
            .into_iter()
            .enumerate()
            .map(|(rank, client)| Rank {
                caps: client.get_caps(cid, OpMask::ALL).expect("caps"),
                client,
                rank,
                plan: CkptPlan::new(seed, rank as u64),
                epoch: 0,
                log: SpanLog::new(origin, rank as u32),
            })
            .collect();
        Ckpt { cluster, group, ranks }
    }
}

impl Workload for Ckpt {
    fn min_ops(&self) -> u64 {
        crate::stats::min_samples(0.99) as u64
    }

    fn registry(&self) -> Arc<Registry> {
        Arc::clone(self.cluster.network().obs())
    }

    fn run(&mut self, secs: f64, min_ops: u64, traced: bool) -> Phase {
        let registry = self.registry();
        let go = AtomicBool::new(true);
        let start = Barrier::new(CLIENTS);
        let end = Barrier::new(CLIENTS);
        let group = self.group.clone();
        for r in &mut self.ranks {
            r.log.set_enabled(traced);
        }
        drive(&mut self.ranks, secs, min_ops, &registry, |r, ctl| {
            let ck = LwfsCheckpointer::new(
                &r.client,
                group.clone(),
                r.rank,
                r.caps.clone(),
                "/ckpt/perfbench",
            );
            let mut s = Samples::default();
            loop {
                // Rank 0 decides for both: collectives need every rank.
                if r.rank == 0 {
                    go.store(!ctl.stopped(), Ordering::SeqCst);
                }
                start.wait();
                if !go.load(Ordering::SeqCst) {
                    break;
                }
                r.epoch += 1;
                let epoch = r.epoch;
                r.plan.step(epoch);
                r.log.begin_op(epoch);
                let t0 = Instant::now();
                let outer = r.log.enter("checkpoint.epoch");

                let t = Instant::now();
                let dumped =
                    r.log.span("checkpoint.checkpoint", || ck.checkpoint(epoch, &r.plan.state));
                s.call(&dumped);
                if let Err(e) = dumped {
                    fatal(format!("rank {} checkpoint {epoch}: {e}", r.rank));
                }
                s.push(Class::Write, t, true, r.plan.state.len());

                let t = Instant::now();
                let restored = r.log.span("checkpoint.restore", || ck.restore(epoch));
                s.call(&restored);
                match restored {
                    Ok(state) if state == r.plan.state => {}
                    Ok(_) => fatal(format!("rank {} restore {epoch}: bytes differ", r.rank)),
                    Err(e) => fatal(format!("rank {} restore {epoch}: {e}", r.rank)),
                }
                s.push(Class::Read, t, true, r.plan.state.len());

                if r.rank == 0 {
                    let retained = r.log.span("checkpoint.retain", || ck.retain_latest(Self::KEEP));
                    s.call(&retained);
                    let want: Vec<u64> = epoch
                        .checked_sub(Self::KEEP as u64)
                        .into_iter()
                        .filter(|e| *e > 0)
                        .collect();
                    match retained {
                        Ok(removed) if removed == want => {}
                        Ok(removed) => fatal(format!(
                            "retain_latest after epoch {epoch} removed {removed:?}, not {want:?}"
                        )),
                        Err(e) => fatal(format!("retain_latest after epoch {epoch}: {e}")),
                    }
                }
                end.wait();
                r.log.exit(outer);
                if r.rank == 0 {
                    s.push(Class::Op, t0, true, 0);
                    ctl.tick();
                }
            }
            s
        })
    }

    fn verify(&mut self) {
        let names = self.ranks[0].client.name_list("/ckpt/perfbench").unwrap_or_else(|e| fatal(e));
        if names.len() != Self::KEEP {
            fatal(format!(
                "{} checkpoints named after retention, expected {}",
                names.len(),
                Self::KEEP
            ));
        }
        // Each retained epoch holds one data object per rank + metadata.
        let objects: usize = (0..self.cluster.storage_count())
            .map(|i| self.cluster.storage_server(i).store().object_count())
            .sum();
        let want = Self::KEEP * (CLIENTS + 1);
        if objects != want {
            fatal(format!("{objects} objects stored after retention, expected {want}"));
        }
    }

    fn logs(&self) -> Vec<&SpanLog> {
        self.ranks.iter().map(|r| &r.log).collect()
    }
}

// ---------------------------------------------------------------- repl_wal_tcp

/// What a ring slot must hold: the `(seq, pool_off)` of its last
/// acknowledged write, or `None` after a failed write left it unknown.
type Slot = Option<(u64, usize)>;

struct Streamer {
    client: LwfsClient,
    caps: CapSet,
    id: u64,
    obj: ObjId,
    plan: ReplPlan,
    slots: Vec<Slot>,
    buf: Vec<u8>,
    want: Vec<u8>,
    log: SpanLog,
}

struct Repl {
    cluster: LwfsCluster,
    cid: ContainerId,
    wal_dir: PathBuf,
    pool: Arc<Pool>,
    clients: Vec<Streamer>,
}

impl Repl {
    fn setup(seed: u64, work_dir: &Path, origin: Instant) -> Repl {
        let wal_dir = work_dir.join("wal");
        let _ = std::fs::remove_dir_all(&wal_dir);
        let cluster = LwfsCluster::boot(ClusterConfig {
            storage_servers: 1,
            replication: 2,
            transport: TransportKind::Tcp,
            storage: StorageConfig {
                wal: Some(WalConfig { sync: SyncPolicy::Os, ..WalConfig::new(&wal_dir) }),
                ..StorageConfig::default()
            },
            ..Default::default()
        });
        let pool = Arc::new(Pool::new(seed, ReplPlan::POOL));
        let clients: Vec<LwfsClient> = (0..CLIENTS as u32).map(|c| login(&cluster, c)).collect();
        let cid = clients[0].create_container().expect("container");
        let clients = clients
            .into_iter()
            .enumerate()
            .map(|(id, client)| {
                let caps = client.get_caps(cid, OpMask::ALL).expect("caps");
                let obj = client.create_obj(0, &caps, None, None).expect("object");
                Streamer {
                    client,
                    caps,
                    id: id as u64,
                    obj,
                    plan: ReplPlan::new(seed, id as u64),
                    slots: vec![None; ReplPlan::SLOTS as usize],
                    buf: vec![0; ReplPlan::CHUNK],
                    want: vec![0; ReplPlan::CHUNK],
                    log: SpanLog::new(origin, id as u32),
                }
            })
            .collect();
        Repl { cluster, cid, wal_dir, pool, clients }
    }
}

impl Workload for Repl {
    fn min_ops(&self) -> u64 {
        // Reads are one op in four; they too need a supported p99.
        4 * crate::stats::min_samples(0.99) as u64
    }

    fn registry(&self) -> Arc<Registry> {
        Arc::clone(self.cluster.network().obs())
    }

    fn run(&mut self, secs: f64, min_ops: u64, traced: bool) -> Phase {
        let registry = self.registry();
        let pool = Arc::clone(&self.pool);
        for c in &mut self.clients {
            c.log.set_enabled(traced);
        }
        drive(&mut self.clients, secs, min_ops, &registry, |c, ctl| {
            let mut s = Samples::default();
            let mut n = 0u64;
            while !ctl.stopped() {
                n += 1;
                c.log.begin_op(n);
                match c.plan.next_op() {
                    PlanOp::Write { seq, offset, len, pool_off } => {
                        pool.payload_into(c.id, seq, pool_off, &mut c.buf[..len]);
                        let t = Instant::now();
                        let r = c.log.span("core.write", || {
                            c.client.write(0, &c.caps, None, c.obj, offset, &c.buf[..len])
                        });
                        if matches!(r, Ok(n) if n != len as u64) {
                            fatal(format!("client {} short write: {r:?} of {len}", c.id));
                        }
                        let ok = s.call(&r);
                        let slot = (offset / c.plan.chunk as u64) as usize;
                        c.slots[slot] = ok.then_some((seq, pool_off));
                        s.push(Class::Write, t, ok, len);
                        s.push(Class::Op, t, ok, 0);
                    }
                    PlanOp::Read { offset, len } => {
                        let t = Instant::now();
                        let r = c
                            .log
                            .span("core.read", || c.client.read(0, &c.caps, c.obj, offset, len));
                        let ok = s.call(&r);
                        if let Ok(data) = &r {
                            let slot = (offset / c.plan.chunk as u64) as usize;
                            if let Some((seq, pool_off)) = c.slots[slot] {
                                pool.payload_into(c.id, seq, pool_off, &mut c.want[..len]);
                                if data[..] != c.want[..len] {
                                    fatal(format!(
                                        "client {} read of slot {slot} returned other bytes",
                                        c.id
                                    ));
                                }
                            }
                        }
                        s.push(Class::Read, t, ok, len);
                        s.push(Class::Op, t, ok, 0);
                    }
                }
                ctl.tick();
            }
            s
        })
    }

    /// Every acknowledged byte must be readable from both group members.
    fn verify(&mut self) {
        let chunk = ReplPlan::CHUNK;
        for c in &self.clients {
            for (slot, want) in c.slots.iter().enumerate() {
                let Some((seq, pool_off)) = *want else { continue };
                let expect = self.pool.payload(c.id, seq, pool_off, chunk);
                for member in 0..2 {
                    let got = self
                        .cluster
                        .storage_server(member)
                        .store()
                        .read(self.cid, c.obj, (slot * chunk) as u64, chunk as u64)
                        .unwrap_or_else(|e| fatal(format!("member {member}: {e}")));
                    if got != expect {
                        fatal(format!("member {member} lacks client {} slot {slot}", c.id));
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&self.wal_dir);
    }

    fn logs(&self) -> Vec<&SpanLog> {
        self.clients.iter().map(|c| &c.log).collect()
    }
}

// ------------------------------------------------------------ small_obj_signed

struct Looper {
    client: LwfsClient,
    caps: CapSet,
    id: u64,
    plan: SmallPlan,
    buf: Vec<u8>,
    log: SpanLog,
}

struct Small {
    cluster: LwfsCluster,
    pool: Arc<Pool>,
    clients: Vec<Looper>,
}

impl Small {
    fn setup(seed: u64, origin: Instant) -> Small {
        let cluster = LwfsCluster::boot(ClusterConfig {
            storage_servers: 1,
            cap_mode: CapMode::Signed,
            ..Default::default()
        });
        let pool = Arc::new(Pool::new(seed, SmallPlan::POOL));
        let clients: Vec<LwfsClient> = (0..CLIENTS as u32).map(|c| login(&cluster, c)).collect();
        let cid = clients[0].create_container().expect("container");
        let clients = clients
            .into_iter()
            .enumerate()
            .map(|(id, client)| Looper {
                caps: client.get_caps(cid, OpMask::ALL).expect("caps"),
                client,
                id: id as u64,
                plan: SmallPlan::new(seed, id as u64),
                buf: vec![0; SmallPlan::MAX],
                log: SpanLog::new(origin, id as u32),
            })
            .collect();
        Small { cluster, pool, clients }
    }
}

impl Workload for Small {
    fn min_ops(&self) -> u64 {
        crate::stats::min_samples(0.99) as u64
    }

    fn registry(&self) -> Arc<Registry> {
        Arc::clone(self.cluster.network().obs())
    }

    fn run(&mut self, secs: f64, min_ops: u64, traced: bool) -> Phase {
        let registry = self.registry();
        let pool = Arc::clone(&self.pool);
        for c in &mut self.clients {
            c.log.set_enabled(traced);
        }
        drive(&mut self.clients, secs, min_ops, &registry, |c, ctl| {
            let mut s = Samples::default();
            while !ctl.stopped() {
                let l = c.plan.next_loop();
                let data = &mut c.buf[..l.len];
                pool.payload_into(c.id, l.seq, l.pool_off, data);
                c.log.begin_op(l.seq);
                let t0 = Instant::now();
                let outer = c.log.enter("core.loop");
                let (client, caps) = (&c.client, &c.caps);

                let created = c.log.span("core.create", || client.create_obj(0, caps, None, None));
                let Ok(obj) = created else {
                    s.call(&created);
                    c.log.exit(outer);
                    s.push(Class::Op, t0, false, 0);
                    ctl.tick();
                    continue;
                };
                let mut ok = s.call(&created);

                let t = Instant::now();
                let wrote = c.log.span("core.write", || client.write(0, caps, None, obj, 0, data));
                let written = s.call(&wrote);
                s.push(Class::Write, t, written, l.len);
                ok &= written;

                let attr = c.log.span("core.getattr", || client.getattr(0, caps, obj));
                ok &= s.call(&attr);
                if let Ok(a) = &attr {
                    if written && a.size != l.len as u64 {
                        fatal(format!(
                            "client {} object {obj:?} has size {}, wrote {}",
                            c.id, a.size, l.len
                        ));
                    }
                }

                let t = Instant::now();
                let read = c
                    .log
                    .span("core.read", || client.read(0, caps, obj, l.read_off as u64, l.read_len));
                let got_ok = s.call(&read);
                if let Ok(got) = &read {
                    if written && got[..] != data[l.read_off..l.read_off + l.read_len] {
                        fatal(format!("client {} read of {obj:?} returned other bytes", c.id));
                    }
                }
                s.push(Class::Read, t, got_ok, l.read_len);
                ok &= got_ok;

                let removed = c.log.span("core.remove", || client.remove_obj(0, caps, None, obj));
                ok &= s.call(&removed);
                c.log.exit(outer);
                s.push(Class::Op, t0, ok, 0);
                ctl.tick();
            }
            s
        })
    }

    /// Every loop removed what it created: the store must be empty.
    fn verify(&mut self) {
        let left = self.cluster.storage_server(0).store().object_count();
        if left != 0 {
            fatal(format!("{left} objects left after every loop removed its own"));
        }
    }

    fn logs(&self) -> Vec<&SpanLog> {
        self.clients.iter().map(|c| &c.log).collect()
    }
}

/// Registry counter delta, 0 when the layer never registered it.
pub fn counter(d: &WindowDelta, name: &str) -> f64 {
    d.counter_delta(name).unwrap_or(0) as f64
}

/// Median of a registry histogram's interval, 0 when it saw no samples.
pub fn hist_p50(d: &WindowDelta, name: &str) -> f64 {
    d.histogram(name).filter(|h| !h.is_empty()).map_or(0.0, |h| h.quantile(0.5) as f64)
}
