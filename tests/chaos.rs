//! Chaos harness: every index structure in the workspace, run under seeded
//! fault injection, must return the correct answer or a clean `Err` — never
//! panic, never be silently wrong.
//!
//! Each scenario is a deterministic workload (build + mutate + query) whose
//! per-operation outputs are logged as canonical strings. The fault-free
//! log is the golden reference; fault runs are diffed against it:
//!
//! - **transient-only faults**: not retried — a run logs the golden prefix
//!   and then ends clean or fails with the backend's own `Io` error.
//! - **single backend under full chaos**: every completed operation matches
//!   the golden prefix; the first failure (if any) is a clean `Err`.
//! - **corruption walk**: a corrupt page is detected on one store, and
//!   masked by a router replica group whose other replica holds it intact;
//!   so are one replica's transient read faults.
//!
//! Seeds are fixed by default; set `PC_CHAOS_SEED=<u64>` to explore fresh
//! scenarios (`scripts/verify.sh --chaos` does both, and sweeps seeds
//! 1–64). Every assertion message carries the seed so a failure is
//! reproducible verbatim.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use pc_btree::BTree;
use pc_obs::shard_metrics::FAILOVERS;
use pc_pagestore::backend::MemBackend;
use pc_pagestore::{FaultBackend, FaultHandle, FaultPlan, PageStore, StoreConfig, StoreError};
use pc_pst::{DynamicPst, DynamicThreeSidedPst, SegmentedPst, ThreeSidedPst, TwoLevelPst};
use pc_rng::Rng;
use pc_serve::wire::{Body, ErrorCode, Op};
use pc_serve::{
    PstTarget, Registry, Router, RouterConfig, RouterError, Server, ServerConfig, ServerHandle,
    Service,
};

use path_caching::intervaltree::ExternalIntervalTree;
use path_caching::segtree::{CachedSegmentTree, NaiveSegmentTree};
use path_caching::{Interval, Point, ThreeSided, TwoSided};

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

/// One structure's deterministic workload. Appends a canonical line per
/// completed operation; the first storage error aborts the run. The
/// workload's randomness comes from `seed` alone, never from the store, so
/// the op sequence is identical with and without faults.
type Scenario = fn(&PageStore, u64, &mut Vec<String>) -> Result<(), StoreError>;

const SCENARIOS: &[(&str, Scenario)] = &[
    ("btree", btree_scenario),
    ("naive-segtree", naive_segtree_scenario),
    ("cached-segtree", cached_segtree_scenario),
    ("interval-tree", interval_tree_scenario),
    ("segmented-pst", segmented_pst_scenario),
    ("two-level-pst", two_level_pst_scenario),
    ("three-sided-pst", three_sided_pst_scenario),
    ("dynamic-pst", dynamic_pst_scenario),
    ("dynamic-3s-pst", dynamic_three_sided_pst_scenario),
];

fn fmt_ids(mut ids: Vec<u64>) -> String {
    ids.sort_unstable();
    format!("{ids:?}")
}

fn gen_points(rng: &mut Rng, n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| Point::new(rng.gen_range(0i64..400), rng.gen_range(0i64..400), i as u64))
        .collect()
}

fn gen_intervals(rng: &mut Rng, n: usize) -> Vec<Interval> {
    (0..n)
        .map(|i| {
            let lo = rng.gen_range(0i64..400);
            Interval::new(lo, lo + rng.gen_range(0i64..120), i as u64)
        })
        .collect()
}

fn btree_scenario(store: &PageStore, seed: u64, log: &mut Vec<String>) -> Result<(), StoreError> {
    let mut rng = Rng::seed_from_u64(seed ^ 0xb7ee);
    let mut entries: Vec<(i64, u64)> =
        (0..200).map(|_| rng.gen_range(-500i64..500)).map(|k| (k, k.unsigned_abs())).collect();
    entries.sort_unstable();
    entries.dedup_by_key(|e| e.0);
    let mut tree = BTree::bulk_build(store, &entries)?;
    for _ in 0..40 {
        let k = rng.gen_range(-600i64..600);
        let prev = tree.insert(store, k, k.unsigned_abs().wrapping_mul(3))?;
        log.push(format!("insert {k}: prev={prev:?} len={}", tree.len()));
    }
    // An outlier key, then an outlier value: each widens the nodes on its
    // path — split, re-cut, relinked — under the same faults.
    for (k, v) in [(i64::MIN + 1, 5), (rng.gen_range(-600i64..600), u64::MAX)] {
        let prev = tree.insert(store, k, v)?;
        log.push(format!("outlier {k}: prev={prev:?} len={} height={}", tree.len(), tree.height()));
    }
    for _ in 0..10 {
        let k = rng.gen_range(-600i64..600);
        log.push(format!("delete {k}: {:?}", tree.delete(store, &k)?));
    }
    for _ in 0..12 {
        let lo = rng.gen_range(-650i64..650);
        let hi = lo + rng.gen_range(0i64..300);
        log.push(format!("range {lo}..={hi}: {:?}", tree.range(store, &lo, &hi)?));
    }
    Ok(())
}

fn naive_segtree_scenario(
    store: &PageStore,
    seed: u64,
    log: &mut Vec<String>,
) -> Result<(), StoreError> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5e67);
    let intervals = gen_intervals(&mut rng, 150);
    let tree = NaiveSegmentTree::build(store, &intervals)?;
    for _ in 0..15 {
        let q = rng.gen_range(-20i64..540);
        let got = tree.stab(store, q)?;
        log.push(format!("stab {q}: {}", fmt_ids(got.iter().map(|iv| iv.id).collect())));
    }
    Ok(())
}

fn cached_segtree_scenario(
    store: &PageStore,
    seed: u64,
    log: &mut Vec<String>,
) -> Result<(), StoreError> {
    let mut rng = Rng::seed_from_u64(seed ^ 0xcac4);
    let intervals = gen_intervals(&mut rng, 150);
    let tree = CachedSegmentTree::build(store, &intervals)?;
    for _ in 0..15 {
        let q = rng.gen_range(-20i64..540);
        let got = tree.stab(store, q)?;
        log.push(format!("stab {q}: {}", fmt_ids(got.iter().map(|iv| iv.id).collect())));
    }
    Ok(())
}

fn interval_tree_scenario(
    store: &PageStore,
    seed: u64,
    log: &mut Vec<String>,
) -> Result<(), StoreError> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x17ee);
    let intervals = gen_intervals(&mut rng, 150);
    let tree = ExternalIntervalTree::build(store, &intervals)?;
    for _ in 0..15 {
        let q = rng.gen_range(-20i64..540);
        let got = tree.stab(store, q)?;
        log.push(format!("stab {q}: {}", fmt_ids(got.iter().map(|iv| iv.id).collect())));
    }
    Ok(())
}

fn segmented_pst_scenario(
    store: &PageStore,
    seed: u64,
    log: &mut Vec<String>,
) -> Result<(), StoreError> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5e91);
    let points = gen_points(&mut rng, 250);
    let pst = SegmentedPst::build(store, &points)?;
    for _ in 0..15 {
        let q = TwoSided { x0: rng.gen_range(-20i64..420), y0: rng.gen_range(-20i64..420) };
        let got = pst.query(store, q)?;
        log.push(format!("{q:?}: {}", fmt_ids(got.iter().map(|p| p.id).collect())));
    }
    Ok(())
}

fn two_level_pst_scenario(
    store: &PageStore,
    seed: u64,
    log: &mut Vec<String>,
) -> Result<(), StoreError> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x2011);
    let points = gen_points(&mut rng, 250);
    let pst = TwoLevelPst::build(store, &points)?;
    for _ in 0..15 {
        let q = TwoSided { x0: rng.gen_range(-20i64..420), y0: rng.gen_range(-20i64..420) };
        let got = pst.query(store, q)?;
        log.push(format!("{q:?}: {}", fmt_ids(got.iter().map(|p| p.id).collect())));
    }
    Ok(())
}

fn three_sided_pst_scenario(
    store: &PageStore,
    seed: u64,
    log: &mut Vec<String>,
) -> Result<(), StoreError> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x3510);
    let points = gen_points(&mut rng, 250);
    let pst = ThreeSidedPst::build(store, &points)?;
    for _ in 0..15 {
        let x1 = rng.gen_range(-20i64..420);
        let q = ThreeSided { x1, x2: x1 + rng.gen_range(0i64..200), y0: rng.gen_range(-20i64..420) };
        let got = pst.query(store, q)?;
        log.push(format!("{q:?}: {}", fmt_ids(got.iter().map(|p| p.id).collect())));
    }
    Ok(())
}

fn dynamic_pst_scenario(
    store: &PageStore,
    seed: u64,
    log: &mut Vec<String>,
) -> Result<(), StoreError> {
    let mut rng = Rng::seed_from_u64(seed ^ 0xd1_2d);
    let points = gen_points(&mut rng, 200);
    let (base, rest) = points.split_at(120);
    let mut pst = DynamicPst::build(store, base)?;
    for &p in rest {
        pst.insert(store, p)?;
    }
    for p in points.iter().step_by(5) {
        pst.delete(store, *p)?;
    }
    log.push(format!("len={}", pst.len()));
    for _ in 0..12 {
        let q = TwoSided { x0: rng.gen_range(-20i64..420), y0: rng.gen_range(-20i64..420) };
        let got = pst.query(store, q)?;
        log.push(format!("{q:?}: {}", fmt_ids(got.iter().map(|p| p.id).collect())));
    }
    Ok(())
}

fn dynamic_three_sided_pst_scenario(
    store: &PageStore,
    seed: u64,
    log: &mut Vec<String>,
) -> Result<(), StoreError> {
    let mut rng = Rng::seed_from_u64(seed ^ 0xd3_5d);
    let points = gen_points(&mut rng, 200);
    let (base, rest) = points.split_at(120);
    let mut pst = DynamicThreeSidedPst::build(store, base)?;
    for &p in rest {
        pst.insert(store, p)?;
    }
    for p in points.iter().step_by(7) {
        pst.delete(store, *p)?;
    }
    for _ in 0..12 {
        let x1 = rng.gen_range(-20i64..420);
        let q = ThreeSided { x1, x2: x1 + rng.gen_range(0i64..200), y0: rng.gen_range(-20i64..420) };
        let got = pst.query(store, q)?;
        log.push(format!("{q:?}: {}", fmt_ids(got.iter().map(|p| p.id).collect())));
    }
    Ok(())
}

/// Runs a scenario, converting any panic into a test failure that names the
/// scenario and seed. Returns the (possibly partial) log and the outcome.
fn run_guarded(
    name: &str,
    f: Scenario,
    store: &PageStore,
    seed: u64,
) -> (Vec<String>, Result<(), StoreError>) {
    let mut log = Vec::new();
    let outcome = catch_unwind(AssertUnwindSafe(|| f(store, seed, &mut log)));
    match outcome {
        Ok(r) => (log, r),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".into());
            panic!("scenario {name} PANICKED under faults (seed={seed}): {msg}");
        }
    }
}

/// Fault-free golden run; must succeed by construction.
fn golden(name: &str, f: Scenario, seed: u64) -> Vec<String> {
    let store = PageStore::in_memory(PAGE);
    let mut log = Vec::new();
    f(&store, seed, &mut log)
        .unwrap_or_else(|e| panic!("scenario {name}: fault-free run failed (seed={seed}): {e}"));
    log
}

fn strict_faulty(plan: FaultPlan) -> (PageStore, FaultHandle) {
    let backend = FaultBackend::new(Box::new(MemBackend::new(PAGE + 8)), plan);
    let handle = backend.handle();
    (PageStore::new(StoreConfig::strict(PAGE), Box::new(backend)), handle)
}

#[test]
fn fault_free_runs_are_deterministic() {
    let seed = chaos_seed();
    for &(name, f) in SCENARIOS {
        let a = golden(name, f, seed);
        let b = golden(name, f, seed);
        assert_eq!(a, b, "scenario {name} is nondeterministic (seed={seed})");
        assert!(!a.is_empty(), "scenario {name} logged nothing (seed={seed})");
    }
}

/// Transient faults are not retried: each scenario logs the golden prefix
/// and then either ends clean, having met no fault, or fails at its first
/// fault with the backend's own `Interrupted` error, which the store hands
/// over unchanged.
#[test]
fn transient_faults_surface_as_the_backends_io_error() {
    let seed = chaos_seed();
    let mut surfaced = 0;
    for &(name, f) in SCENARIOS {
        let want = golden(name, f, seed);
        let (store, handle) = strict_faulty(FaultPlan::transient(seed, 0.02));
        let (got, outcome) = run_guarded(name, f, &store, seed);
        match outcome {
            Ok(()) => {
                assert_eq!(got, want, "scenario {name}: clean run diverged (seed={seed})");
                assert_eq!(
                    handle.injected().total(),
                    0,
                    "scenario {name}: an injected transient was swallowed (seed={seed})"
                );
            }
            Err(e) => {
                assert!(
                    got.len() <= want.len() && got[..] == want[..got.len()],
                    "scenario {name}: diverged before erroring with {e} (seed={seed})"
                );
                assert!(
                    matches!(&e, StoreError::Io(io)
                        if io.kind() == std::io::ErrorKind::Interrupted),
                    "scenario {name}: a transient surfaced as {e} (seed={seed})"
                );
                surfaced += 1;
            }
        }
    }
    assert!(surfaced > 0, "the transient plan never fired — chaos was a no-op (seed={seed})");
}

/// A single backend under full chaos (torn writes + bit rot + transients):
/// silent corruption may surface, but only ever as a clean checksum error —
/// every operation that completes matches the golden log, and nothing
/// panics.
#[test]
fn single_backend_chaos_never_panics_or_lies() {
    let base = chaos_seed();
    let mut injected = 0;
    let mut clean_errors = 0;
    for sub in 0..4u64 {
        let seed = base.wrapping_add(sub.wrapping_mul(0x9e37_79b9));
        let plan = FaultPlan {
            read_transient_p: 0.01,
            write_transient_p: 0.01,
            torn_write_p: 0.01,
            bit_rot_p: 0.01,
            ..FaultPlan::none(seed)
        };
        for &(name, f) in SCENARIOS {
            let want = golden(name, f, seed);
            let (store, handle) = strict_faulty(plan);
            let (got, outcome) = run_guarded(name, f, &store, seed);
            match outcome {
                // A fully clean run must match the golden log exactly.
                Ok(()) => assert_eq!(
                    got, want,
                    "scenario {name}: silent wrong answer under chaos (seed={seed})"
                ),
                // An aborted run must have been correct up to the failure.
                Err(e) => {
                    clean_errors += 1;
                    assert!(
                        got.len() <= want.len() && got[..] == want[..got.len()],
                        "scenario {name}: diverged before erroring with {e} (seed={seed})"
                    );
                }
            }
            injected += handle.injected().total();
        }
    }
    assert!(injected > 0, "chaos plans never fired (seed={base})");
    // With 1% silent corruption across 4 sub-seeds it is (deterministically,
    // for the default seed; overwhelmingly, for any other) certain that at
    // least one scenario hit a checksum failure.
    assert!(clean_errors > 0, "no run ever observed a fault surfacing (seed={base})");
}

/// The corruption walk: corrupt every live page in turn. On a single
/// store each walk step either leaves the answers untouched (the page was
/// not read) or surfaces `ChecksumMismatch` for exactly that page. Through
/// a router over a two-replica shard with one replica's page corrupt, or
/// its reads failing transiently, the answers never change at all — the
/// read fails over — and with every page corrupt on both replicas the
/// answer is a typed `Storage` error.
#[test]
fn corruption_walk_is_detected_bare_and_masked_routed() {
    let seed = chaos_seed();
    let mut rng = Rng::seed_from_u64(seed ^ 0x3a1c);
    let points = gen_points(&mut rng, 250);
    let queries: Vec<TwoSided> = (0..10)
        .map(|_| TwoSided { x0: rng.gen_range(-20i64..420), y0: rng.gen_range(-20i64..420) })
        .collect();

    // Bare store: corruption must be *detected* — never a panic, never a
    // silently different answer.
    let store = PageStore::in_memory(PAGE);
    let pst = TwoLevelPst::build(&store, &points).unwrap();
    let answer = |store: &PageStore, q: TwoSided| {
        pst.query(store, q).map(|got| fmt_ids(got.iter().map(|p| p.id).collect()))
    };
    let golden: Vec<String> =
        queries.iter().map(|&q| answer(&store, q).unwrap()).collect();
    let mut detections = 0u64;
    for id in store.allocated_pages() {
        store.inject_corruption(id, 1).unwrap();
        for (i, &q) in queries.iter().enumerate() {
            let res = catch_unwind(AssertUnwindSafe(|| answer(&store, q))).unwrap_or_else(|_| {
                panic!("query PANICKED with page {id:?} corrupt (seed={seed})")
            });
            match res {
                Ok(got) => assert_eq!(
                    got, golden[i],
                    "silent wrong answer with page {id:?} corrupt (seed={seed})"
                ),
                Err(StoreError::ChecksumMismatch(p)) => {
                    assert_eq!(p, id, "mismatch reported for the wrong page (seed={seed})");
                    detections += 1;
                }
                Err(e) => {
                    panic!("unexpected error with page {id:?} corrupt (seed={seed}): {e}")
                }
            }
        }
        store.inject_corruption(id, 1).unwrap(); // XOR: restores the frame
    }
    for (i, &q) in queries.iter().enumerate() {
        assert_eq!(answer(&store, q).unwrap(), golden[i], "restore failed (seed={seed})");
    }
    assert!(detections > 0, "no corruption was ever read back — walk was a no-op (seed={seed})");

    // Routed: one shard, two replicas built alike (same pages, same ids).
    // Both run over fault backends; replica 0's plan is armed after the build.
    let (replica0, faults) = strict_faulty(FaultPlan::none(seed));
    let replicas: Vec<ServerHandle> = [replica0, strict_faulty(FaultPlan::none(seed)).0]
        .into_iter()
        .map(|store| {
            let store = Arc::new(store);
            let mut registry = Registry::new();
            let pst = TwoLevelPst::build(&store, &points).unwrap();
            registry.register("pst", Box::new(PstTarget(pst)));
            Server::spawn(Service { store, registry }, ServerConfig::default()).unwrap()
        })
        .collect();
    let group: Vec<_> = replicas.iter().map(ServerHandle::addr).collect();
    let router = Router::connect(&[group], Vec::new(), RouterConfig::default()).unwrap();
    let routed = |q: TwoSided| match router.query(0, 0, &Op::TwoSided { x0: q.x0, y0: q.y0 }) {
        Ok(Body::Points(got)) => Ok(fmt_ids(got.iter().map(|p| p.id).collect())),
        Ok(other) => panic!("routed query answered {other:?} (seed={seed})"),
        Err(e) => Err(e),
    };
    let failovers = || {
        let name = format!("{FAILOVERS}{{shard=\"0\"}}");
        router.stat_pairs().into_iter().find(|(n, _)| n == &name).map_or(0, |(_, v)| v)
    };
    let stores: Vec<&Arc<PageStore>> = replicas.iter().map(ServerHandle::store).collect();
    let pages = stores[0].allocated_pages();
    assert_eq!(pages, stores[1].allocated_pages(), "replicas built differently (seed={seed})");
    // Replica 0's reads fail transiently: each failure is a typed `Storage`
    // answer, and the group fails the read over to replica 1.
    faults.set_plan(FaultPlan::transient(seed, 0.25));
    for _ in 0..3 {
        for (i, &q) in queries.iter().enumerate() {
            let got = routed(q).unwrap_or_else(|e| {
                panic!("the group failed to mask replica 0's transients (seed={seed}): {e}")
            });
            assert_eq!(got, golden[i], "routed answer changed under transients (seed={seed})");
        }
    }
    faults.set_plan(FaultPlan::none(seed));
    let transient_failovers = failovers();
    assert!(transient_failovers > 0, "no transient ever failed a read over (seed={seed})");
    // Every page of replica 0 corrupt in turn: the group masks each one.
    for &id in &pages {
        stores[0].inject_corruption(id, 1).unwrap();
        for (i, &q) in queries.iter().enumerate() {
            let got = routed(q).unwrap_or_else(|e| {
                panic!("the group failed to mask page {id:?} of replica 0 (seed={seed}): {e}")
            });
            assert_eq!(got, golden[i], "routed answer changed (page {id:?}, seed={seed})");
        }
        stores[0].inject_corruption(id, 1).unwrap();
    }
    assert!(
        failovers() > transient_failovers,
        "no read ever failed over — walk was a no-op (seed={seed})"
    );
    // Every page corrupt on both replicas: a typed `Storage` error, at once.
    for store in &stores {
        pages.iter().for_each(|&id| store.inject_corruption(id, 1).unwrap());
    }
    for &q in &queries {
        match routed(q) {
            Err(RouterError::Shard { shard: 0, code: ErrorCode::Storage, .. }) => {}
            other => panic!("expected a typed Storage error, got {other:?} (seed={seed})"),
        }
    }
    router.shutdown();
    replicas.into_iter().for_each(ServerHandle::join);
}
