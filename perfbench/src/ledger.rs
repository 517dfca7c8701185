//! The layer ledger: a timed replay of each layer's public functions in
//! isolation, on the payload sizes the workloads move. Together with the
//! registry's visit counts it prices one workload operation layer by layer
//! (the stage-cost accounting of Ching et al., *Noncontiguous I/O through
//! PVFS*), and the budget check compares that price with measured CPU.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use bytes::Bytes;
use lwfs_cap::{CapClaims, CapIssuer, CapToken, LocalCapVerifier};
use lwfs_fabric::{FabricMsg, FrameReader};
use lwfs_obs::Registry;
use lwfs_portals::{spawn_service, Endpoint, MdOptions, MemDesc, Network, RpcClient, Service};
use lwfs_proto::{
    Capability, CapabilityBody, ContainerId, Decode as _, Encode as _, Lifetime, MdHandle, ObjId,
    OpMask, OpNum, PrincipalId, ProcessId, ReplyBody, Request, RequestBody, Signature,
};
use lwfs_storage::{ObjectStore, StoreConfig};
use lwfs_wal::{SyncPolicy, Wal, WalConfig, WalRecord};

use crate::gen::Rng;

/// The bulk size the ledger prices (the replicated workload's write).
pub const BULK: usize = 64 * 1024;

/// Keep `x` alive as far as the optimiser can tell.
fn sink<T>(x: T) {
    black_box(x);
}

/// Median per-call cost of `f`, nanoseconds. Calls run in batches of
/// about a millisecond until `budget` is spent; the median batch mean
/// discards batches a preemption or steal burst landed in.
fn per_call_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let one = t.elapsed().as_nanos().max(1) as f64;
    let batch = ((1e6 / one) as usize).clamp(1, 100_000);
    let mut means = Vec::new();
    let start = Instant::now();
    while means.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        means.push(t.elapsed().as_nanos() as f64 / batch as f64);
        if means.len() >= 10_000 {
            break;
        }
    }
    crate::stats::median(&means)
}

/// Every ledger cost, by per-layer metric name (units in
/// [`crate::report::PER_LAYER`]).
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    costs: Vec<(&'static str, f64)>,
}

impl Ledger {
    pub fn get(&self, name: &str) -> f64 {
        self.costs
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("ledger has no {name}"))
            .1
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.costs.push((name, value));
    }
}

fn write_cap() -> Capability {
    Capability {
        body: CapabilityBody {
            container: ContainerId(7),
            ops: OpMask::WRITE,
            principal: PrincipalId(1),
            issuer_epoch: 1,
            lifetime: Lifetime::UNBOUNDED,
            serial: 42,
        },
        sig: Signature([9; 16]),
    }
}

struct Echo;

impl Service for Echo {
    fn handle(&mut self, _ep: &Endpoint, _req: &Request) -> ReplyBody {
        ReplyBody::Pong
    }
}

/// Time every layer. `budget` is the whole ledger's share of the run;
/// `work_dir` holds the WAL segments the append replay writes.
pub fn run(budget: Duration, seed: u64, work_dir: &Path) -> Ledger {
    // The 19 timed items share the budget equally.
    let each = budget / 19;
    let mut payload = vec![0u8; BULK];
    Rng::stream(seed, 0x1ED6).fill(&mut payload);
    let data = Bytes::from(payload.clone());
    let kb = (BULK / 1024) as f64;
    let mut l = Ledger::default();

    // wal: checksum, framing, and an append under the workload's policy.
    l.put(
        "wal.crc32_ns_per_kb",
        per_call_ns(each, || sink(lwfs_wal::crc32(black_box(&payload)))) / kb,
    );
    let rec = WalRecord::Write {
        txn: None,
        container: ContainerId(1),
        obj: ObjId(1),
        offset: 0,
        data: data.clone(),
        now: 0,
    };
    l.put(
        "wal.frame_64k_us",
        per_call_ns(each, || sink(lwfs_wal::frame_record(black_box(&rec)))) / 1e3,
    );
    let frame = lwfs_wal::frame_record(&rec);
    l.put(
        "wal.unframe_64k_us",
        per_call_ns(each, || sink(lwfs_wal::unframe_record(black_box(&frame)).expect("own frame")))
            / 1e3,
    );
    let wal_dir = work_dir.join("ledger-wal");
    let _ = std::fs::remove_dir_all(&wal_dir);
    {
        let wal = Wal::open(
            WalConfig { sync: SyncPolicy::Os, ..WalConfig::new(&wal_dir) },
            &Registry::new(),
        )
        .expect("open ledger wal");
        let ns = per_call_ns(each, || {
            wal.append(&rec).expect("ledger wal append");
        });
        l.put("wal.append_64k_us", ns / 1e3);
    }
    let _ = std::fs::remove_dir_all(&wal_dir);

    // fabric: checksum and socket framing of a 64 KB put.
    l.put(
        "fabric.crc32_ns_per_kb",
        per_call_ns(each, || sink(lwfs_fabric::crc32(black_box(&payload)))) / kb,
    );
    let msg = FabricMsg::Put {
        token: 1,
        from: ProcessId::new(0, 0),
        to: ProcessId::new(1100, 0),
        match_bits: 1,
        offset: 0,
        data: data.clone(),
    };
    l.put("fabric.frame_64k_us", per_call_ns(each, || sink(black_box(&msg).to_frame())) / 1e3);
    let wire = msg.to_frame();
    let mut reader = FrameReader::new();
    let ns = per_call_ns(each, || {
        reader.feed(black_box(&wire));
        black_box(reader.next_msg().expect("own frame").expect("a whole frame"));
    });
    l.put("fabric.unframe_64k_us", ns / 1e3);

    // proto: the write request every data-path call encodes and decodes.
    let req = Request::new(
        OpNum(77),
        ProcessId::new(3, 0),
        RequestBody::Write {
            txn: None,
            cap: write_cap(),
            obj: ObjId(12),
            offset: 0,
            len: BULK as u64,
            md: MdHandle { match_bits: 0xFEED },
        },
    );
    l.put("proto.encode_write_ns", per_call_ns(each, || sink(black_box(&req).to_bytes())));
    let enc = req.to_bytes();
    l.put(
        "proto.decode_write_ns",
        per_call_ns(each, || sink(Request::from_bytes(enc.clone()).expect("own encoding"))),
    );

    // portals: one-sided put/get of 64 KB and an RPC round trip.
    let net = Network::default();
    let a = net.register(ProcessId::new(0, 0));
    let b = net.register(ProcessId::new(1, 0));
    b.post_md(
        1,
        MemDesc::zeroed(
            BULK,
            MdOptions { deliver_events: false, ..MdOptions::read_write_events() },
        ),
    )
    .expect("post md");
    l.put(
        "portals.put_64k_us",
        per_call_ns(each, || a.put(b.id(), 1, 0, black_box(&payload)).expect("put")) / 1e3,
    );
    l.put(
        "portals.get_64k_us",
        per_call_ns(each, || sink(a.get(b.id(), 1, 0, BULK).expect("get"))) / 1e3,
    );
    let echo = spawn_service(&net, ProcessId::new(10, 0), Echo);
    let rpc = RpcClient::new(&a);
    l.put(
        "portals.rpc_rtt_us",
        per_call_ns(each, || sink(rpc.call(echo.id(), RequestBody::Ping).expect("ping"))) / 1e3,
    );
    echo.shutdown();

    // cap: token decode and the verifier's cold and cached verdicts.
    let issuer = CapIssuer::from_cluster_seed(seed);
    let blob = issuer.mint(CapClaims::container(ContainerId(1), OpMask::ALL, Lifetime::UNBOUNDED));
    l.put("cap.token_decode_ns", per_call_ns(each, || sink(CapToken::decode(black_box(&blob)))));
    let verifier = LocalCapVerifier::new(issuer.public(), 0);
    let check = || {
        verifier
            .check(black_box(&blob), OpMask::WRITE, ContainerId(1), 5, 1, 0)
            .expect("valid token")
    };
    let ns = per_call_ns(each, || {
        verifier.invalidate_all();
        check();
    });
    l.put("cap.verify_cold_us", ns / 1e3);
    l.put("cap.verify_cached_ns", per_call_ns(each, check));

    // storage: the object store's create/write/read/remove.
    let store = ObjectStore::new(StoreConfig::default());
    let cid = ContainerId(1);
    let obj = store.create(cid, None, 0).expect("create");
    store.write(cid, obj, 0, &payload, 0).expect("write");
    l.put(
        "storage.store_write_64k_us",
        per_call_ns(each, || {
            sink(store.write(cid, obj, 0, black_box(&payload), 1).expect("write"))
        }) / 1e3,
    );
    l.put(
        "storage.store_read_64k_us",
        per_call_ns(each, || sink(store.read(cid, obj, 0, BULK as u64).expect("read"))) / 1e3,
    );
    let mut created = Vec::new();
    l.put(
        "storage.store_create_us",
        per_call_ns(each, || created.push(store.create(cid, None, 2).expect("create"))) / 1e3,
    );
    // Removes get half the budget so the objects just created outlast
    // them; past that, each remove pays for its own create untimed.
    let mut doomed = created.into_iter();
    let ns = per_call_ns(each / 2, || {
        let o = doomed.next().unwrap_or_else(|| store.create(cid, None, 3).expect("create"));
        store.remove(cid, o).expect("remove");
    });
    l.put("storage.store_remove_us", ns / 1e3);
    l
}
