//! Workspace end-to-end test for the service layer: the full stack (wire
//! codec over a real socket, admission queue, worker pool, update batcher)
//! must return **bit-identical** answers to direct in-process calls against
//! identically built structures.
//!
//! One registry exposes every op the protocol knows: 1-d range (B-tree),
//! stabbing (cached segment tree and interval tree), 2-sided (static
//! two-level PST), 3-sided (static 3-sided PST), and a dynamic PST taking
//! interleaved inserts/deletes/queries. The reference side replays the
//! exact same seeded op sequence against its own store.

use std::sync::Arc;
use std::time::Duration;

use pc_btree::BTree;
use pc_intervaltree::ExternalIntervalTree;
use pc_pagestore::{Interval, PageStore, Point};
use pc_pst::{
    DynamicPst, DynamicThreeSidedPst, ThreeSided, ThreeSidedPst, TwoLevelPst, TwoSided,
};
use pc_rng::Rng;
use pc_segtree::CachedSegmentTree;
use pc_serve::wire::{Body, Op};
use pc_serve::{
    BTreeTarget, Client, DynamicPstTarget, DynamicThreeSidedTarget, IntervalTreeTarget, PstTarget,
    Registry, SegTreeTarget, Server, ServerConfig, Service, ThreeSidedTarget,
};
use pc_workloads::{
    gen_intervals, gen_points, gen_range_1d, gen_stabbing, gen_three_sided, gen_two_sided,
    IntervalDist, PointDist,
};

const PAGE: usize = 512;
const SEED: u64 = 0xE2E_5E44E;

struct Data {
    points: Vec<Point>,
    intervals: Vec<Interval>,
    entries: Vec<(i64, u64)>,
}

fn data() -> Data {
    let points: Vec<Point> = gen_points(2_000, PointDist::Uniform, SEED)
        .iter()
        .map(|&(x, y, id)| Point { x, y, id })
        .collect();
    let intervals: Vec<Interval> =
        gen_intervals(600, IntervalDist::LongTail, SEED ^ 1)
            .iter()
            .map(|&(lo, hi, id)| Interval { lo, hi, id })
            .collect();
    let mut entries: Vec<(i64, u64)> = points.iter().map(|p| (p.x, p.id)).collect();
    entries.sort_unstable();
    entries.dedup_by_key(|e| e.0);
    Data { points, intervals, entries }
}

/// Builds one instance of every structure over a fresh store. Target wire
/// ids are the registration order: 0=btree, 1=segtree, 2=intervaltree,
/// 3=pst, 4=pst3, 5=dynamic pst.
fn build_service(d: &Data) -> Service {
    let store = Arc::new(PageStore::in_memory(PAGE));
    let mut registry = Registry::new();
    registry.register(
        "keys",
        Box::new(BTreeTarget(BTree::bulk_build(&store, &d.entries).unwrap())),
    );
    registry.register(
        "segtree",
        Box::new(SegTreeTarget(CachedSegmentTree::build(&store, &d.intervals).unwrap())),
    );
    registry.register(
        "intervaltree",
        Box::new(IntervalTreeTarget(ExternalIntervalTree::build(&store, &d.intervals).unwrap())),
    );
    registry.register(
        "pst",
        Box::new(PstTarget(TwoLevelPst::build(&store, &d.points).unwrap())),
    );
    registry.register(
        "pst3",
        Box::new(ThreeSidedTarget(ThreeSidedPst::build(&store, &d.points).unwrap())),
    );
    registry.register(
        "dyn",
        Box::new(DynamicPstTarget::new(DynamicPst::build(&store, &d.points).unwrap())),
    );
    Service { store, registry }
}

#[test]
fn socket_answers_are_bit_identical_to_in_process() {
    let d = data();

    // Reference side: raw structures over their own store, no service code.
    let ref_store = PageStore::in_memory(PAGE);
    let btree = BTree::bulk_build(&ref_store, &d.entries).unwrap();
    let segtree = CachedSegmentTree::build(&ref_store, &d.intervals).unwrap();
    let itree = ExternalIntervalTree::build(&ref_store, &d.intervals).unwrap();
    let pst = TwoLevelPst::build(&ref_store, &d.points).unwrap();
    let pst3 = ThreeSidedPst::build(&ref_store, &d.points).unwrap();
    let mut dynpst = DynamicPst::build(&ref_store, &d.points).unwrap();

    // Served side: the same builds behind the server.
    let handle = Server::spawn(build_service(&d), ServerConfig::default()).unwrap();
    let mut c = Client::connect(handle.addr(), Duration::from_secs(10)).unwrap();

    // 1-d ranges against the B-tree (target 0).
    let keys: Vec<i64> = d.entries.iter().map(|&(k, _)| k).collect();
    for q in gen_range_1d(&keys, 40, 32, SEED ^ 2) {
        let want = btree.range(&ref_store, &q.lo, &q.hi).unwrap();
        match c.call(0, 0, Op::Range1d { lo: q.lo, hi: q.hi }).unwrap().body {
            Body::Keys(got) => assert_eq!(got, want, "range {q:?} diverged"),
            other => panic!("unexpected body {other:?}"),
        }
    }

    // Stabbing against both interval structures (targets 1 and 2).
    for q in gen_stabbing(
        &d.intervals.iter().map(|iv| (iv.lo, iv.hi, iv.id)).collect::<Vec<_>>(),
        30,
        SEED ^ 3,
    ) {
        let want_seg = segtree.stab(&ref_store, q.q).unwrap();
        match c.call(1, 0, Op::Stab { q: q.q }).unwrap().body {
            Body::Intervals(got) => assert_eq!(got, want_seg, "segtree stab {q:?} diverged"),
            other => panic!("unexpected body {other:?}"),
        }
        let want_it = itree.stab(&ref_store, q.q).unwrap();
        match c.call(2, 0, Op::Stab { q: q.q }).unwrap().body {
            Body::Intervals(got) => assert_eq!(got, want_it, "itree stab {q:?} diverged"),
            other => panic!("unexpected body {other:?}"),
        }
    }

    // 2-sided against the static PST (target 3).
    let raw_pts: Vec<(i64, i64, u64)> = d.points.iter().map(|p| (p.x, p.y, p.id)).collect();
    for q in gen_two_sided(&raw_pts, 30, 64, SEED ^ 4) {
        let want = pst.query(&ref_store, TwoSided { x0: q.x0, y0: q.y0 }).unwrap();
        match c.call(3, 0, Op::TwoSided { x0: q.x0, y0: q.y0 }).unwrap().body {
            Body::Points(got) => assert_eq!(got, want, "2-sided {q:?} diverged"),
            other => panic!("unexpected body {other:?}"),
        }
    }

    // 3-sided against the static 3-sided PST (target 4).
    for q in gen_three_sided(&raw_pts, 30, 64, SEED ^ 5) {
        let want = pst3.query(&ref_store, ThreeSided { x1: q.x1, x2: q.x2, y0: q.y0 }).unwrap();
        match c.call(4, 0, Op::ThreeSided { x1: q.x1, x2: q.x2, y0: q.y0 }).unwrap().body {
            Body::Points(got) => assert_eq!(got, want, "3-sided {q:?} diverged"),
            other => panic!("unexpected body {other:?}"),
        }
    }

    // Interleaved updates + queries against the dynamic PST (target 5).
    // Closed-loop on one connection: an acked update precedes the next op
    // on both sides, so the sequences are order-identical.
    let mut rng = Rng::seed_from_u64(SEED ^ 6);
    let mut next_id = 1_000_000u64;
    for step in 0..120 {
        match rng.gen_range(0..4usize) {
            0 => {
                next_id += 1;
                let p = Point {
                    x: rng.gen_range(0..=pc_workloads::DOMAIN),
                    y: rng.gen_range(0..=pc_workloads::DOMAIN),
                    id: next_id,
                };
                dynpst.insert(&ref_store, p).unwrap();
                let resp = c.insert(5, p).unwrap();
                assert!(matches!(resp.body, Body::Ack { .. }), "step {step}: {resp:?}");
            }
            1 => {
                let p = d.points[rng.gen_range(0..d.points.len())];
                dynpst.delete(&ref_store, p).unwrap();
                let resp = c.delete(5, p).unwrap();
                assert!(matches!(resp.body, Body::Ack { .. }), "step {step}: {resp:?}");
            }
            _ => {
                let q = gen_two_sided(&raw_pts, 1, 48, SEED ^ (7 + step))[0];
                let want = dynpst.query(&ref_store, TwoSided { x0: q.x0, y0: q.y0 }).unwrap();
                match c.call(5, 0, Op::TwoSided { x0: q.x0, y0: q.y0 }).unwrap().body {
                    Body::Points(got) => {
                        assert_eq!(got, want, "step {step}: dynamic 2-sided {q:?} diverged")
                    }
                    other => panic!("unexpected body {other:?}"),
                }
            }
        }
    }

    // The server's store did real paging I/O to produce those answers.
    assert!(handle.io_stats().reads > 0);
    let mut admin = Client::connect(handle.addr(), Duration::from_secs(10)).unwrap();
    admin.shutdown_server().unwrap();
    handle.join();
}

/// A 3-sided band whose bounds are out of order is a well-formed request —
/// `ShardMap::shard_range` routes it expecting "it answers empty", as
/// `BTree::range` does — and used to reach an assertion in the structure:
/// one dead worker per frame, the dynamic target's mutex poisoned with it.
/// One such band more than there are workers, against both 3-sided
/// targets, then a proper query on the same connection.
#[test]
fn an_inverted_three_sided_band_answers_empty_and_costs_no_worker() {
    let d = data();
    let store = Arc::new(PageStore::in_memory(PAGE));
    let mut registry = Registry::new();
    registry.register(
        "pst3",
        Box::new(ThreeSidedTarget(ThreeSidedPst::build(&store, &d.points).unwrap())),
    );
    let dynamic = DynamicThreeSidedPst::build(&store, &d.points).unwrap();
    registry.register("dyn3", Box::new(DynamicThreeSidedTarget::new(dynamic)));
    let cfg = ServerConfig { workers: 2, ..ServerConfig::default() };
    let workers = cfg.workers;
    let handle = Server::spawn(Service { store, registry }, cfg).unwrap();
    let mut c = Client::connect(handle.addr(), Duration::from_secs(10)).unwrap();

    let everything = Op::ThreeSided { x1: i64::MIN, x2: i64::MAX, y0: i64::MIN };
    for target in [0u16, 1] {
        // The first read of an epoch opens the dynamic target's frozen view
        // (its root page, once per epoch); the bands themselves read nothing.
        c.call(target, 0, Op::ThreeSided { x1: 1, x2: 0, y0: 0 }).unwrap();
        let reads = handle.io_stats().logical_reads();
        for i in 0..=workers as i64 {
            let inverted = Op::ThreeSided { x1: 500 + i, x2: 499 - i, y0: i64::MIN };
            match c.call(target, 0, inverted).unwrap().body {
                Body::Points(got) => assert!(got.is_empty(), "target {target}: {got:?}"),
                other => panic!("target {target}: unexpected body {other:?}"),
            }
        }
        assert_eq!(handle.io_stats().logical_reads(), reads, "an empty band reads nothing");
        match c.call(target, 0, everything.clone()).unwrap().body {
            Body::Points(got) => assert_eq!(got.len(), d.points.len(), "target {target}"),
            other => panic!("target {target}: unexpected body {other:?}"),
        }
    }
    c.shutdown_server().unwrap();
    handle.join();
}
