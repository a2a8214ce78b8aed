//! Chaos tests for the service layer: a server whose page store runs under
//! seeded fault injection must keep the wire contract — every request gets
//! a response (correct answer or a typed error), never a hung connection
//! and never a silently wrong result.
//!
//! Seeds follow the `tests/chaos.rs` convention: fixed by default,
//! `PC_CHAOS_SEED=<u64>` to explore fresh scenarios.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pc_pagestore::backend::MemBackend;
use pc_pagestore::{
    FaultBackend, FaultPlan, LogMedium, MemLog, PageStore, Point, StoreConfig, WalConfig,
};
use pc_pst::{DynamicPst, TwoSided};
use pc_rng::Rng;
use pc_serve::wire::{Body, ErrorCode, Op};
use pc_serve::{
    decode_commit_meta, Client, DynamicPstTarget, Registry, Server, ServerConfig, ServerHandle,
    Service,
};

const PAGE: usize = 512;

fn chaos_seed() -> u64 {
    match std::env::var("PC_CHAOS_SEED") {
        Ok(s) => s
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("PC_CHAOS_SEED must parse as u64, got {s:?}")),
        Err(_) => 0x00C0_FFEE,
    }
}

fn gen_points(rng: &mut Rng, n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| Point { x: rng.gen_range(0i64..400), y: rng.gen_range(0i64..400), id: i as u64 })
        .collect()
}

/// Spawns a one-target (dynamic PST) server over the given store.
fn spawn_over(store: PageStore, seed: u64) -> ServerHandle {
    let store = Arc::new(store);
    let mut rng = Rng::seed_from_u64(seed);
    let points = gen_points(&mut rng, 250);
    let pst = DynamicPst::build(&store, &points)
        .unwrap_or_else(|e| panic!("build under faults failed (seed={seed}): {e}"));
    let mut registry = Registry::new();
    registry.register("dyn", Box::new(DynamicPstTarget::new(pst)));
    Server::spawn(Service { store, registry }, ServerConfig { workers: 2, ..Default::default() })
        .unwrap()
}

/// The seeded client workload: interleaved queries, inserts, and deletes.
/// Returns one canonical line per op and the number of typed `Storage`
/// responses. An op answered `Storage` is sent again on the same
/// connection: a failed batch rolled back whole, so a resent update
/// applies once.
fn drive(c: &mut Client, seed: u64) -> (Vec<String>, u64) {
    let mut rng = Rng::seed_from_u64(seed ^ 0xd21e);
    let mut log = Vec::new();
    let mut next_id = 10_000u64;
    let mut storage_errors = 0;
    for _ in 0..80 {
        let op = match rng.gen_range(0..4usize) {
            0 => {
                next_id += 1;
                Op::Insert(Point {
                    x: rng.gen_range(0i64..400),
                    y: rng.gen_range(0i64..400),
                    id: next_id,
                })
            }
            1 => Op::Delete(Point {
                x: rng.gen_range(0i64..400),
                y: rng.gen_range(0i64..400),
                id: rng.gen_range(0..250u64),
            }),
            _ => Op::TwoSided {
                x0: rng.gen_range(-20i64..420),
                y0: rng.gen_range(-20i64..420),
            },
        };
        let body = loop {
            match c.call(0, 0, op.clone()).unwrap().body {
                Body::Error { code: ErrorCode::Storage, message } => {
                    storage_errors += 1;
                    assert!(message.contains("injected transient"), "{message} (seed={seed})");
                    assert!(!message.contains("corrupt"), "{message} (seed={seed})");
                    assert!(storage_errors < 10_000, "{op:?} never went through (seed={seed})");
                }
                body => break body,
            }
        };
        match body {
            Body::Points(mut ps) => {
                ps.sort_unstable_by_key(|p| p.id);
                log.push(format!("points {:?}", ps.iter().map(|p| p.id).collect::<Vec<_>>()));
            }
            Body::Ack { .. } => log.push("ack".to_string()),
            other => log.push(format!("{other:?}")),
        }
    }
    (log, storage_errors)
}

fn admin_stat(c: &mut Client, name: &str) -> u64 {
    match c.stats().unwrap().body {
        Body::Stats(pairs) => pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("stat {name} missing")),
        other => panic!("unexpected body {other:?}"),
    }
}

/// A transient store fault is a typed `Storage` response carrying the
/// backend's own I/O error. Every other response matches a fault-free
/// server's log, and the connection stays usable throughout.
#[test]
fn transient_store_faults_are_typed_storage_errors_over_the_wire() {
    let seed = chaos_seed();

    let clean = spawn_over(PageStore::in_memory(PAGE), seed);
    let mut c = Client::connect(clean.addr(), Duration::from_secs(10)).unwrap();
    let (want, none) = drive(&mut c, seed);
    assert_eq!(none, 0, "a fault-free server answered Storage (seed={seed})");
    clean.shutdown();
    clean.join();

    // Same plan as tests/chaos.rs, p = 0.02 per access, armed after the build.
    let backend = FaultBackend::new(Box::new(MemBackend::new(PAGE + 8)), FaultPlan::none(seed));
    let faults = backend.handle();
    let faulty = spawn_over(PageStore::new(StoreConfig::strict(PAGE), Box::new(backend)), seed);
    faults.set_plan(FaultPlan::transient(seed, 0.02));
    let mut c = Client::connect(faulty.addr(), Duration::from_secs(10)).unwrap();
    let (got, storage_errors) = drive(&mut c, seed);
    assert_eq!(got, want, "responses diverged under transient faults (seed={seed})");
    assert!(storage_errors > 0, "the transient plan never surfaced (seed={seed})");
    assert_eq!(admin_stat(&mut c, "pc_serve_storage_errors_total"), storage_errors);
    faulty.shutdown();
    faulty.join();
}

/// Silent page corruption surfaces as a typed `Storage` error response —
/// never a hung connection, never a silently different answer. The
/// connection stays usable afterwards.
#[test]
fn corruption_is_a_typed_error_response_never_a_hang() {
    let seed = chaos_seed();
    let store = PageStore::in_memory(PAGE);
    let handle = {
        let store_arc = Arc::new(store);
        let mut rng = Rng::seed_from_u64(seed);
        let points = gen_points(&mut rng, 250);
        let pst = DynamicPst::build(&store_arc, &points).unwrap();
        let mut registry = Registry::new();
        registry.register("dyn", Box::new(DynamicPstTarget::new(pst)));
        Server::spawn(
            Service { store: Arc::clone(&store_arc), registry },
            ServerConfig { workers: 2, ..Default::default() },
        )
        .unwrap()
    };

    // The client enforces its own read timeout: a hang would fail the test
    // with an Io error rather than wedging it.
    let mut c = Client::connect(handle.addr(), Duration::from_secs(5)).unwrap();
    let mut rng = Rng::seed_from_u64(seed ^ 0xc0de);
    let queries: Vec<Op> = (0..8)
        .map(|_| Op::TwoSided { x0: rng.gen_range(-20i64..420), y0: rng.gen_range(-20i64..420) })
        .collect();
    let golden: Vec<Body> =
        queries.iter().map(|op| c.call(0, 0, op.clone()).unwrap().body).collect();

    // Walk the allocated pages: corrupt one at a time (XOR — a second
    // injection restores the frame) and replay the query set.
    let store = Arc::clone(handle.store());
    let mut detections = 0u64;
    for id in store.allocated_pages() {
        store.inject_corruption(id, 1).unwrap();
        for (i, op) in queries.iter().enumerate() {
            let resp = c.call(0, 0, op.clone()).unwrap_or_else(|e| {
                panic!("wire call failed with page {id:?} corrupt (seed={seed}): {e}")
            });
            match resp.body {
                Body::Error { code: ErrorCode::Storage, message } => {
                    assert!(!message.is_empty());
                    detections += 1;
                }
                body => assert_eq!(
                    body, golden[i],
                    "silent wrong answer with page {id:?} corrupt (seed={seed})"
                ),
            }
        }
        store.inject_corruption(id, 1).unwrap();
    }
    assert!(detections > 0, "no corruption was ever read back (seed={seed})");
    assert_eq!(
        admin_stat(&mut c, "pc_serve_storage_errors_total"),
        detections,
        "every detection must be counted (seed={seed})"
    );

    // After the walk everything is healed: answers match golden again.
    for (i, op) in queries.iter().enumerate() {
        assert_eq!(c.call(0, 0, op.clone()).unwrap().body, golden[i]);
    }
    handle.shutdown();
    handle.join();
}

/// A batch that fails is not installed. Acked inserts sit in the dynamic
/// PST's root `U`; a pipelined burst overflows `U`, and its flush fails
/// reading a root-page X-list: every page the build wrote is made
/// unreadable, while a push reads only the root page and `U`, which the
/// acked batches moved to fresh pages. The failing batch rolls back whole
/// — all its jobs answered `Storage` — so every acked insert is still
/// answered, and once the faults stop the reopened structure flushes again.
#[test]
fn a_batch_whose_flush_fails_loses_no_acked_update() {
    let seed = chaos_seed();
    let backend = FaultBackend::new(Box::new(MemBackend::new(PAGE + 8)), FaultPlan::none(seed));
    let faults = backend.handle();
    let handle = spawn_over(PageStore::new(StoreConfig::strict(PAGE), Box::new(backend)), seed);
    let built = handle.store().allocated_pages();
    let mut c = Client::connect(handle.addr(), Duration::from_secs(10)).unwrap();
    // Full-width points: `U` holds a block of them, ~19 at 512 B.
    let mut rng = Rng::seed_from_u64(seed ^ 0xf1a5);
    let mut coordinate = || rng.gen_range(i64::MIN..i64::MAX);
    let wide: Vec<Point> =
        (0..140).map(|i| Point { x: coordinate(), y: coordinate(), id: 10_000 + i }).collect();
    let point = |i: i64| wide[i as usize];
    let mut acked = Vec::new();
    let insert = |c: &mut Client, i: i64| match c.call(0, 0, Op::Insert(point(i))).unwrap().body {
        Body::Ack { .. } => point(i),
        other => panic!("insert {i} answered {other:?} (seed={seed})"),
    };
    acked.extend((0..3).map(|i| insert(&mut c, i)));

    for &id in &built {
        (1..=1_000).for_each(|nth| faults.fail_nth_read(id, nth));
    }
    let sent: HashMap<u64, Point> =
        (3..67).map(|i| (c.send(0, 0, Op::Insert(point(i))).unwrap(), point(i))).collect();
    let mut failed = 0;
    for _ in 0..sent.len() {
        let resp = c.recv().unwrap();
        match resp.body {
            Body::Ack { .. } => acked.push(sent[&resp.id]),
            Body::Error { code: ErrorCode::Storage, message } => {
                // The store's own error, not a layout-corruption wrapper.
                assert!(message.contains("injected transient read fault"), "{message}");
                assert!(!message.contains("corrupt"), "{message} (seed={seed})");
                failed += 1;
            }
            other => panic!("burst answered {other:?} (seed={seed})"),
        }
    }
    assert!(failed > 0, "the burst never flushed U (seed={seed})");

    faults.set_enabled(false);
    acked.extend((100..140).map(|i| insert(&mut c, i)));
    let everything = Op::TwoSided { x0: i64::MIN, y0: i64::MIN };
    let Body::Points(got) = c.call(0, 0, everything).unwrap().body else {
        panic!("the whole-plane query failed (seed={seed})")
    };
    let got: HashSet<u64> = got.iter().map(|p| p.id).collect();
    let lost: Vec<u64> = acked.iter().map(|p| p.id).filter(|id| !got.contains(id)).collect();
    assert!(lost.is_empty(), "acked inserts lost: {lost:?} (seed={seed})");
    handle.shutdown();
    handle.join();
}

/// A log medium that refuses its next append once armed.
#[derive(Default)]
struct RefuseOnce {
    log: MemLog,
    armed: AtomicBool,
}

impl LogMedium for RefuseOnce {
    fn read_all(&self) -> pc_pagestore::Result<Vec<u8>> {
        self.log.read_all()
    }
    fn append(&self, buf: &[u8]) -> pc_pagestore::Result<()> {
        if self.armed.swap(false, Ordering::SeqCst) {
            return Err(std::io::Error::other("log append refused").into());
        }
        self.log.append(buf)
    }
    fn sync(&self) -> pc_pagestore::Result<()> {
        self.log.sync()
    }
    fn len(&self) -> pc_pagestore::Result<u64> {
        self.log.len()
    }
    fn reset(&self, contents: &[u8]) -> pc_pagestore::Result<()> {
        self.log.reset(contents)
    }
}

/// A batch whose commit fails is never visible. The log refuses one append,
/// so the batch of one insert is answered `Storage`; that insert is absent
/// from the next read, after the next acked batch, and after the store is
/// reopened from its media, while every acked insert is there.
#[test]
fn a_batch_whose_commit_fails_is_never_visible() {
    let seed = chaos_seed();
    let backend = Arc::new(MemBackend::new(PAGE + 8));
    let log = Arc::new(RefuseOnce::default());
    let open = |log: Box<dyn LogMedium>| {
        let data = Box::new(Arc::clone(&backend));
        PageStore::new_durable(StoreConfig::strict(PAGE), data, log, WalConfig::default())
            .unwrap()
            .0
    };
    let handle = spawn_over(open(Box::new(Arc::clone(&log))), seed);
    let mut c = Client::connect(handle.addr(), Duration::from_secs(10)).unwrap();
    let point = |id: u64| Point { x: 500 + id as i64, y: 500 + id as i64, id };
    let everything = TwoSided { x0: i64::MIN, y0: i64::MIN };
    let ids = |c: &mut Client| -> HashSet<u64> {
        let op = Op::TwoSided { x0: everything.x0, y0: everything.y0 };
        match c.call(0, 0, op).unwrap().body {
            Body::Points(got) => got.iter().map(|p| p.id).collect(),
            other => panic!("the whole-plane query answered {other:?} (seed={seed})"),
        }
    };
    let insert = |c: &mut Client, id: u64| c.call(0, 0, Op::Insert(point(id))).unwrap().body;
    assert!(matches!(insert(&mut c, 20_000), Body::Ack { .. }));

    log.armed.store(true, Ordering::SeqCst);
    match insert(&mut c, 20_001) {
        Body::Error { code: ErrorCode::Storage, message } => {
            assert!(message.contains("log append refused"), "{message} (seed={seed})")
        }
        other => panic!("the batch whose commit fails answered {other:?} (seed={seed})"),
    }
    let held = |ids: &HashSet<u64>| (ids.contains(&20_000), ids.contains(&20_001));
    assert_eq!(held(&ids(&mut c)), (true, false), "after the failed batch (seed={seed})");
    assert!(matches!(insert(&mut c, 20_002), Body::Ack { .. }));
    let live = ids(&mut c);
    assert_eq!(held(&live), (true, false), "after the next acked batch (seed={seed})");
    assert!(live.contains(&20_002));
    handle.shutdown();
    handle.join();

    let store = open(Box::new(MemLog::from_bytes(log.read_all().unwrap())));
    let meta = store.last_commit_meta().expect("the acked batches' commits");
    let (_, descriptors) = decode_commit_meta(&meta).unwrap();
    let desc = descriptors[0].as_ref().expect("the dynamic PST's descriptor");
    let pst = DynamicPst::open(&store, desc).unwrap();
    let reopened = pst.query(&store, everything).unwrap();
    assert_eq!(reopened.iter().map(|p| p.id).collect::<HashSet<u64>>(), live, "seed={seed}");
}
