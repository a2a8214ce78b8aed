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
//! 10. **A buffered delete matched by id alone** —
//!     [`delete_matches_the_whole_point`].
//!
//! A 2-sided corner region answers from the first block of its X- or
//! Y-list where the record's edge — that block's last key — is below the
//! query's bound, or the list has one block, and asks its inner tree
//! otherwise; a dynamic one then reads no `u`. The inputs that hold the
//! answers at the rule's edges, each run by `tests/oracle.rs`'
//! `regression_corner_*` in process, served with every epoch read `as_of`,
//! and routed: [`corner_edge_runs`], [`corner_one_block_and_emptied`],
//! [`corner_u_holds_first_block_ops`] and
//! [`corner_at_the_inner_region_level`]. What the rule reads is held in
//! `pc-pst` (`two_level::tests::a_corner_*`, `testutil::corner_cost`).

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

/// A delete matches the whole `(x, y, id)` point. While one was buffered,
/// both dynamic PSTs matched it by id alone: a delete naming a live id at
/// another x hid the live point from every query until flushes trickled
/// the delete down its own x-path, where it matched nothing and the point
/// came back; one at another y reached the point's region and removed it
/// for good, and a 3-sided rebuild, replaying by id, removed it either way.
/// Here, at 512-byte pages over `(i, 7i mod 1000, i)`, the two deletes of
/// `ghosts` name the live `(3, 21, 3)` at other coordinates, and 5 000
/// inserts after them force flushes (2-sided) and rebuilds (3-sided), with
/// queries before, between and after. The model never applies the deletes:
/// the subject is built, sent `ghosts`, then driven through `ops`.
pub fn delete_matches_the_whole_point(shape: Shape) -> (Case, [Point; 2]) {
    let build: Vec<Point> = (0..1000).map(|i| Point::new(i, 7 * i % 1000, i as u64)).collect();
    let near = match shape {
        Shape::TwoSided => Query::Two(TwoSided { x0: 0, y0: 20 }),
        _ => Query::Three(ThreeSided { x1: 0, x2: 10, y0: 0 }),
    };
    let queries = [Op::Query(everything(shape)), Op::Query(near)];
    let mut ops = queries.to_vec();
    for i in 0..5000i64 {
        ops.push(Op::Insert(Point::new(37 * i % 1000, 91 * i % 1000, 1000 + i as u64)));
        if i % 500 == 499 {
            ops.extend(queries);
        }
    }
    (Case { shape, build, ops }, [Point::new(500, 21, 3), Point::new(3, 4, 3)])
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

/// Points whose `x` (`y` with `by_y`) comes in runs of equal values, 30 to
/// 330 long, so that at every page size some first X- (Y-) block ends inside
/// a run: the record's edge is that run's value and the next block starts
/// with it, so a corner at the edge asks its inner tree (the rule fires on
/// an edge strictly below the bound). Queries sit at every run's value
/// against the other coordinate's top quantiles — corners at the root
/// region and below it — and at `i64::MIN`, where only the list of the runs
/// can fire; then 60 inserts into the runs, at the top of the other
/// coordinate, and 60 deletes, and the queries again.
pub fn corner_edge_runs(by_y: bool) -> Case {
    const RUNS: [usize; 5] = [30, 90, 150, 230, 330];
    let mut rng = Rng::seed_from_u64(0xED6E + u64::from(by_y));
    let at = |run: i64, other: i64, id: u64| match by_y {
        false => Point::new(run, other, id),
        true => Point::new(other, run, id),
    };
    let values: Vec<i64> = (0..14).map(|k| 10 * k).collect();
    let mut build = Vec::new();
    for (&v, &len) in values.iter().zip(RUNS.iter().cycle()) {
        for _ in 0..len {
            build.push(at(v, rng.gen_range(0..1_000_000i64), build.len() as u64));
        }
    }
    let mut others: Vec<i64> = build.iter().map(|p| if by_y { p.x } else { p.y }).collect();
    others.sort_unstable_by(|a, b| b.cmp(a));
    let quantiles = [20, 60, 200].map(|per_mille| others[others.len() * per_mille / 1000]);
    let bounds: Vec<i64> = [i64::MIN].into_iter().chain(quantiles).collect();
    let queries: Vec<Op> = values
        .iter()
        .flat_map(|&v| bounds.iter().map(move |&b| at(v, b, 0)))
        .map(|q| Op::Query(Query::Two(TwoSided { x0: q.x, y0: q.y })))
        .collect();
    let mut ops = queries.clone();
    let mut live = build.clone();
    for i in 0..60u64 {
        let p = at(*rng.choose(&values).unwrap(), others[0] + 1 + i as i64, 10_000 + i);
        let victim = live.swap_remove(rng.gen_range(0..live.len()));
        ops.extend([Op::Insert(p), Op::Delete(victim)]);
    }
    ops.extend(queries);
    ops.push(Op::Query(everything(Shape::TwoSided)));
    Case { shape: Shape::TwoSided, build, ops }
}

/// 2-sided queries at every `x0` of `xs` and `y0` of `ys`.
fn grid(xs: &[i64], ys: &[i64]) -> Vec<Op> {
    let corner = |x0, y0| Op::Query(Query::Two(TwoSided { x0, y0 }));
    xs.iter().flat_map(|&x0| ys.iter().map(move |&y0| corner(x0, y0))).collect()
}

/// The values of `key` over `points` at the given thousandths from the top.
fn from_top(points: &[Point], key: fn(&Point) -> i64, per_mille: &[usize]) -> Vec<i64> {
    let mut keys: Vec<i64> = points.iter().map(key).collect();
    keys.sort_unstable_by(|a, b| b.cmp(a));
    per_mille.iter().map(|&m| keys[(keys.len() * m / 1000).min(keys.len() - 1)]).collect()
}

/// `n` points of the served benchmark's class: 20-bit coordinates, ids
/// from `first_id`.
fn points(rng: &mut Rng, n: usize, first_id: u64) -> Vec<Point> {
    let mut coordinate = || rng.gen_range(0..1i64 << 20);
    (0..n as u64).map(|i| Point::new(coordinate(), coordinate(), first_id + i)).collect()
}

/// A region of one block as the corner — the whole tree of 40 points at
/// every page size, then the leaves of 2 000 points — and emptied ones
/// (`own_cnt` 0): the 40 deleted, the whole tree rebuilt empty by its
/// churn, then 150 fresh points each inserted and deleted again; and the
/// 2 000's lowest 600 by y deleted lowest first, which empties the leaves
/// that hold the lowest points, their deletes in `u` above an inner tree
/// that still holds them (at 512 B). Queries sweep the leaves as the
/// corner. An empty corner reads nothing; a region of one block answers
/// from it.
pub fn corner_one_block_and_emptied(big: bool) -> Case {
    let mut rng = Rng::seed_from_u64(0x1B10C);
    let build = points(&mut rng, if big { 2_000 } else { 40 }, 0);
    let sweep = |pts: &[Point], ys: &[i64]| -> Vec<Op> {
        let xs = [i64::MIN].into_iter().chain(from_top(pts, |p| p.x, &[0, 2, 5, 10, 20, 40]));
        let xs: Vec<i64> = xs.chain((1..20).map(|k| (1 << 20) * k / 20)).collect();
        grid(&xs, ys)
    };
    if big {
        let mut ops = sweep(&build, &[i64::MIN, 1 << 19]);
        let mut by_y = build.clone();
        by_y.sort_unstable_by_key(|p| p.y);
        for (i, &p) in by_y[..600].iter().enumerate() {
            ops.push(Op::Delete(p));
            if i % 100 == 99 {
                ops.extend(sweep(&by_y[i + 1..], &[i64::MIN]));
            }
        }
        return Case { shape: Shape::TwoSided, build, ops };
    }
    let mut ops = sweep(&build, &[i64::MIN, 1 << 10, 1 << 19]);
    for (i, &p) in build.iter().enumerate() {
        ops.push(Op::Delete(p));
        if i % 5 == 0 {
            ops.push(Op::Query(everything(Shape::TwoSided)));
        }
    }
    for p in points(&mut rng, 150, 1_000) {
        ops.extend([Op::Insert(p), Op::Query(Query::Two(TwoSided { x0: p.x, y0: i64::MIN }))]);
        ops.extend([Op::Delete(p), Op::Query(everything(Shape::TwoSided))]);
    }
    let fresh = points(&mut rng, 30, 2_000);
    ops.extend(fresh.iter().map(|&p| Op::Insert(p)));
    ops.extend(sweep(&fresh, &[i64::MIN, 1 << 19]));
    Case { shape: Shape::TwoSided, build, ops }
}

/// A dynamic corner whose `u` holds an insert and a delete of points of its
/// lists' first blocks: the root region takes a point above and right of
/// every other and loses the rightmost of the top 20 by y, and 100 inserts
/// below everything then flush the root page's `U` (at 512 B), which applies
/// both to the root region — its lists rewritten, its inner tree not — and
/// forwards the rest. Queries at the root region's corners answer from its
/// lists' first blocks, `u` unread, before and after a reopen, and after
/// the inserted point is deleted again.
pub fn corner_u_holds_first_block_ops() -> Case {
    let mut rng = Rng::seed_from_u64(0xF1B0);
    let build = points(&mut rng, 2_000, 0);
    let top = Point::new(1 << 20, 1 << 20, 5_000);
    let mut by_y = build.clone();
    by_y.sort_unstable_by_key(|p| std::cmp::Reverse(p.y));
    let gone = *by_y[..20].iter().max_by_key(|p| p.x).expect("20 points");
    let mut xs = vec![top.x, gone.x, gone.x + 1];
    xs.extend(from_top(&build, |p| p.x, &[10, 50, 100, 300]));
    let queries = grid(&xs, &from_top(&build, |p| p.y, &[10, 30, 60, 100]));
    let mut ops = queries.clone();
    ops.extend([Op::Insert(top), Op::Delete(gone)]);
    ops.extend(queries.iter().copied());
    for (i, p) in points(&mut rng, 100, 6_000).into_iter().enumerate() {
        ops.push(Op::Insert(Point::new(p.x, -1 - i as i64, p.id)));
        if i % 20 == 19 {
            ops.extend(queries.iter().step_by(3).copied());
        }
    }
    ops.extend(queries.iter().copied());
    ops.push(Op::Reopen);
    ops.extend(queries.iter().copied());
    ops.push(Op::Delete(top));
    ops.extend(queries);
    ops.push(Op::Query(everything(Shape::TwoSided)));
    Case { shape: Shape::TwoSided, build, ops }
}

/// 12 000 points: at 4 KiB and 2 KiB a 3-level tree's corner region that
/// no first block holds all of asks its inner region tree, whose own corner
/// answers by the same rule. Queries over a grid of quantiles of both
/// coordinates, then 20 updates and the grid again.
pub fn corner_at_the_inner_region_level() -> Case {
    let mut rng = Rng::seed_from_u64(0x3EE1);
    let build = points(&mut rng, 12_000, 0);
    let per_mille = [5, 30, 100, 200, 350, 600, 900];
    let (xs, ys) = (from_top(&build, |p| p.x, &per_mille), from_top(&build, |p| p.y, &per_mille));
    let queries = grid(&xs, &ys);
    let mut ops = queries.clone();
    let mut live = build.clone();
    for p in points(&mut rng, 10, 30_000) {
        let victim = live.swap_remove(rng.gen_range(0..live.len()));
        ops.extend([Op::Insert(p), Op::Delete(victim)]);
    }
    ops.extend(queries);
    ops.push(Op::Query(everything(Shape::TwoSided)));
    Case { shape: Shape::TwoSided, build, ops }
}
