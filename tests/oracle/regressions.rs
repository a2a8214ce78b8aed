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
//! 8. **An outlier that rebuilt the whole PST** — under a structure-wide
//!    frame an update of a record the frame did not hold widened it:
//!    gather, free and rebuild every page, and `B` stayed low for good.
//!    [`outlier_costs_bytes_not_a_rebuild`] now bounds the pages such an
//!    update writes.
//! 9. **An outlier that rewrote the whole B-tree** — [`b_tree_outliers`],
//!    now a bound on the pages each of its updates writes.

use std::collections::HashSet;

use pc_pagestore::Point;
use pc_pst::{ThreeSided, TwoSided};
use pc_rng::Rng;

use crate::gen::{self, everything, signed_range, Case, Op, Query, Shape, Spec, Widths};

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
        widths: Widths([3, 3, 3]),
        records: 8_000,
        updates: 3_000,
        queries: 150,
        outliers: false,
    };
    gen::case(&mut Rng::seed_from_u64(1024), &spec)
}

/// A dynamic PST of `shape` over `n` records of the served benchmark's
/// data class (20-bit coordinates and ids; 50 000 are several hundred
/// regions at 512 B) takes an x of `i64::MAX`, then an id of `u64::MAX`, each after
/// a reopen and before any update fills a buffer, with queries at both,
/// churn after, and both deleted at the end. Until each block carried its
/// own widths, each of the two inserts gathered, freed and rebuilt every
/// page of the structure.
pub fn outlier_costs_bytes_not_a_rebuild(shape: Shape, n: u64) -> Case {
    let mut rng = Rng::seed_from_u64(0x71DF);
    // Queries of the shape, drawn over a small case of the class.
    let spec = Spec {
        shape,
        widths: Widths([3, 3, 3]),
        records: 800,
        updates: 0,
        queries: 40,
        outliers: false,
    };
    let Case { ops: queries, .. } = gen::case(&mut rng, &spec);
    let (lo, hi) = signed_range(3);
    // A 3-sided structure rebuilds whole when its buffer fills.
    let pairs = if shape == Shape::TwoSided { 150 } else { 30 };
    let build: Vec<Point> =
        (0..n).map(|id| Point::new(rng.gen_range(lo..=hi), rng.gen_range(lo..=hi), id)).collect();
    let mut queries = queries.into_iter().cycle();
    let mut ids: HashSet<u64> = build.iter().map(|p| p.id).collect();
    let mut fresh = |rng: &mut Rng| loop {
        let id = rng.gen_range(1..1u64 << 24);
        if ids.insert(id) {
            return id;
        }
    };
    let wide = [Point::new(i64::MAX, -5, fresh(&mut rng)), Point::new(-6, 6, u64::MAX)];
    let at_the_outlier = |p: Point| match shape {
        Shape::TwoSided => Query::Two(TwoSided { x0: p.x, y0: i64::MIN }),
        _ => Query::Three(ThreeSided { x1: p.x, x2: p.x, y0: i64::MIN }),
    };
    let mut live = build.clone();
    let mut ops = Vec::new();
    for wide in wide {
        ops.extend([Op::Reopen, Op::Insert(wide), Op::Query(at_the_outlier(wide)), Op::Reopen]);
        ops.extend(queries.by_ref().take(5));
    }
    for i in 0..pairs {
        let p = Point::new(rng.gen_range(lo..=hi), rng.gen_range(lo..=hi), fresh(&mut rng));
        let victim = live.swap_remove(rng.gen_range(0..live.len()));
        live.push(p);
        ops.extend([Op::Insert(p), Op::Delete(victim)]);
        if i % 10 == 0 {
            ops.extend(queries.next());
        }
    }
    ops.extend([Op::Delete(wide[0]), Op::Query(at_the_outlier(wide[0])), Op::Delete(wide[1])]);
    ops.extend(queries.take(10));
    ops.push(Op::Query(everything(shape)));
    Case { shape, build, ops }
}

/// A bulk-built B-tree of 100 000 entries shaped like the benchmark's —
/// keys `i·1000 + r`, values the ranks — takes an insert at key
/// `i64::MIN`, then one with value `u64::MAX`, then deletes of both, with
/// queries at both and a reopen between. Under a tree-wide frame each of the
/// inserts rewrote the whole tree (gather, free, rebuild wider); each node
/// now stores at its own widths, and an outlier widens the nodes on its
/// path: a few pages written an op.
pub fn b_tree_outliers() -> Case {
    let mut rng = Rng::seed_from_u64(0xB7EE);
    let build: Vec<Point> = (0..100_000u64)
        .map(|i| Point::new(i as i64 * 1000 + rng.gen_range(0..1000i64), 0, i))
        .collect();
    // The middle's keys are i·1000 + r: one of a thousand between two of
    // them is fresh.
    let (before, after) = (build[50_000].x, build[50_001].x);
    let low = Point::new(i64::MIN, 0, 100_000);
    let wide = Point::new(before + 1 + rng.gen_range(0..after - before - 1), 0, u64::MAX);
    let near = |p: Point| {
        let at = p.x.max(0);
        Op::Query(Query::Range(at.saturating_sub(20_000), at + 20_000))
    };
    let head = Op::Query(Query::Range(i64::MIN, 20_000));
    let ops = vec![
        Op::Query(everything(Shape::Range)),
        Op::Insert(low),
        head,
        Op::Reopen,
        Op::Insert(wide),
        near(wide),
        head,
        Op::Delete(low),
        head,
        Op::Delete(wide),
        near(wide),
        Op::Reopen,
        Op::Query(everything(Shape::Range)),
    ];
    Case { shape: Shape::Range, build, ops }
}
