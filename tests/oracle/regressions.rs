//! Named inputs for the bugs the oracle's dimensions have found, with
//! their history. Bugs the suite caught before the oracle, and what holds
//! them now:
//!
//! 1. **Ragged pagination blow-up** — fixed-height skeletal chunking left
//!    the bottom level of the binary tree as near-empty pages (8× space);
//!    BFS-fill to capacity fixed it (every `paginate`). Held by the space
//!    pins of `tests/layout_bounds.rs`.
//! 2. **Per-entry full-path caches** — materialising the whole above-path
//!    per page entry is `O(n · depth)` entries; per-segment caches restore
//!    the paper's accounting (segment tree). Held by E3's rows, which
//!    `scripts/verify.sh` diffs.
//! 3. **Stale page id after a subtree rebuild** — a `DynamicPst` flush that
//!    rebuilds a subtree frees its pages, and the enclosing buffer-push loop
//!    has to re-target the fresh root (`FlushOutcome::Rebuilt`).
//! 4. **A rebuild dropping in-memory applications** — ops applied to a
//!    flush's in-memory region snapshot were lost when the same flush
//!    escalated to a subtree rebuild; the rebuild replays every op of it.
//!    3 and 4 are what every dynamic case's churn drives at.
//! 5. **x-tie mis-routing of deletes** — [`x_tie_deletes`].
//! 6. **Stale contents across free and reuse** — recycled pages kept their
//!    old bytes where `alloc` promised zeros; pages are zeroed on reuse.
//!    Held by `crates/pagestore/tests/proptest_store.rs`, which found it.
//! 7. **A sibling pair split across skeletal pages** —
//!    [`odd_skeletal_capacity_at_1_kib`].
//! 8. **A frame that must widen** — [`widening_twice`], and for the B-tree
//!    [`b_tree_widening_twice`].

use std::collections::HashSet;

use pc_pagestore::{Frame, Point};
use pc_pst::TwoSided;
use pc_rng::Rng;

use crate::gen::{self, everything, signed_range, Case, Op, Query, Shape, Spec};

/// Records carry only a split's x value, while the canonical division
/// orders by the full `(x, y, id)` key: on an x-tie a point may live on
/// either side of the split, so a delete whose x equals a split's must look
/// on both (`DynamicPst::flush_page`'s trickle). Following one side left
/// the point alive. Found as seed 15 of a hand-written stress sweep over
/// 800 points; here, ties on four xs and deletes of most of them, at
/// 512-byte pages.
pub fn x_tie_deletes() -> Case {
    let mut rng = Rng::seed_from_u64(15);
    let build: Vec<Point> = (0..800)
        .map(|id| Point::new(rng.gen_range(0..4i64) * 1000, rng.gen_range(0..20_000i64), id))
        .collect();
    let mut victims = build.clone();
    rng.shuffle(&mut victims);
    let mut ops = Vec::new();
    for (i, p) in victims.into_iter().take(600).enumerate() {
        ops.push(Op::Delete(p));
        if i % 25 == 0 {
            let q = TwoSided { x0: rng.gen_range(0..4i64) * 1000, y0: rng.gen_range(0..20_000i64) };
            ops.extend([Op::Query(everything(Shape::TwoSided)), Op::Query(Query::Two(q))]);
        }
    }
    ops.push(Op::Query(everything(Shape::TwoSided)));
    Case { shape: Shape::TwoSided, build, ops }
}

/// At 1 KiB a skeletal page of the region tree would hold six records, an
/// even count: BFS-fill then splits a sibling pair across two pages, and
/// the dynamic S-caches do not cover a pair split so. Answers went wrong
/// after enough updates to churn the lower pages;
/// `two_level::skeletal_capacity` keeps the count odd. Found by a model
/// check of 20 000 points and 12 000 updates on 1 KiB pages.
pub fn odd_skeletal_capacity_at_1_kib() -> Case {
    let spec = Spec {
        shape: Shape::TwoSided,
        frame: Frame::new(3, 3, 3),
        records: 8_000,
        updates: 3_000,
        queries: 150,
    };
    gen::case(&mut Rng::seed_from_u64(1024), &spec)
}

/// A structure built at 3/3/3 takes an x of `i64::MAX`, then an id of
/// `u64::MAX`: each widens it once — gather, free, rebuild every page —
/// to 8/3/3, then 8/3/8, with flushed regions and buffered updates before,
/// between and after, a reopen after each, and both wide points deleted at
/// the end, after which the frame stays wide. Widening came with
/// frame-width records: a frame only widens.
pub fn widening_twice() -> Case {
    let mut rng = Rng::seed_from_u64(0x71DF);
    let spec = Spec {
        shape: Shape::TwoSided,
        frame: Frame::new(3, 3, 3),
        records: 800,
        updates: 0,
        queries: 40,
    };
    let Case { build, ops: queries, .. } = gen::case(&mut rng, &spec);
    assert!(build.len() >= 200, "a build of several regions");
    let mut queries = queries.into_iter().cycle();
    let (lo, hi) = signed_range(3);
    let mut ids: HashSet<u64> = build.iter().map(|p| p.id).collect();
    let mut fresh = |rng: &mut Rng| loop {
        let id = rng.gen_range(1..1u64 << 24);
        if ids.insert(id) {
            return id;
        }
    };
    let mut live = build.clone();
    let mut ops = Vec::new();
    let wide_id = fresh(&mut rng);
    let wide = [Point::new(i64::MAX, -5, wide_id), Point::new(-6, 6, u64::MAX)];
    for wide in wide {
        for i in 0..150 {
            let p = Point::new(rng.gen_range(lo..=hi), rng.gen_range(lo..=hi), fresh(&mut rng));
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            live.push(p);
            ops.extend([Op::Insert(p), Op::Delete(victim)]);
            if i % 10 == 0 {
                ops.extend(queries.next());
            }
        }
        ops.extend([Op::Insert(wide), Op::Query(everything(Shape::TwoSided)), Op::Reopen]);
        ops.extend(queries.by_ref().take(5));
    }
    let corner = Query::Two(TwoSided { x0: i64::MAX, y0: i64::MIN });
    ops.extend([Op::Query(corner), Op::Delete(wide[0]), Op::Delete(wide[1]), Op::Query(corner)]);
    ops.extend(queries.take(10));
    ops.push(Op::Query(everything(Shape::TwoSided)));
    Case { shape: Shape::TwoSided, build, ops }
}

/// A B-tree built at 3/·/3 takes a key of `i64::MIN`, then a value of
/// `u64::MAX`: each widens it once — gather, free, bulk-build with the new
/// entry — to 8/·/3, then 8/·/8, with inserts and deletes before and
/// between and a reopen after each. Only queries follow, so the tree ends
/// as a fresh build of its entries at the wide frame. Widening came to the
/// B-tree with its frame.
pub fn b_tree_widening_twice() -> Case {
    let mut rng = Rng::seed_from_u64(0xB7EE);
    let frame = Frame::new(3, 3, 3);
    let spec = Spec { shape: Shape::Range, frame, records: 800, updates: 0, queries: 40 };
    let Case { build, ops: queries, .. } = gen::case(&mut rng, &spec);
    assert!(build.len() >= 200, "a build of several leaves");
    let mut queries = queries.into_iter().cycle();
    let (lo, hi) = signed_range(3);
    // Keys and ids never used before: a key stays unique among the live.
    let mut used: (HashSet<i64>, HashSet<u64>) =
        (build.iter().map(|p| p.x).collect(), build.iter().map(|p| p.id).collect());
    let mut fresh = |rng: &mut Rng| loop {
        let p = Point::new(rng.gen_range(lo..=hi), 0, rng.gen_range(1..1u64 << 24));
        if !used.0.contains(&p.x) && !used.1.contains(&p.id) {
            used.0.insert(p.x);
            used.1.insert(p.id);
            return p;
        }
    };
    let mut live = build.clone();
    let mut ops = Vec::new();
    let (key, value) = (fresh(&mut rng), fresh(&mut rng));
    for wide in [Point { x: i64::MIN, ..key }, Point { id: u64::MAX, ..value }] {
        for i in 0..150 {
            let p = fresh(&mut rng);
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            live.push(p);
            ops.extend([Op::Insert(p), Op::Delete(victim)]);
            if i % 10 == 0 {
                ops.extend(queries.next());
            }
        }
        ops.extend([Op::Insert(wide), Op::Query(everything(Shape::Range)), Op::Reopen]);
        ops.extend(queries.by_ref().take(5));
    }
    ops.push(Op::Query(Query::Range(i64::MIN, lo)));
    ops.extend(queries.take(10));
    ops.push(Op::Query(everything(Shape::Range)));
    Case { shape: Shape::Range, build, ops }
}
