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
//!
//! The dynamic PST holds its root's `U` in memory (and in its descriptor),
//! and a query takes of it only the ops in its corner: an op outside the
//! corner neither adds to the answer nor masks a point of it. The inputs
//! at that filter's edges, run by `tests/oracle.rs`' `regression_root_*`
//! like the corner inputs: [`root_ops_on_the_corner_boundary`],
//! [`root_ops_on_an_anti_diagonal`] and
//! [`root_delete_masks_a_static_answer`]. That the filter costs a query no
//! read is held in `pc-pst` (`dynamic::tests::a_dirty_corner_*`).
//!
//! An interval-tree bundle rides in the tail of a skeletal page the stab
//! reads anyway: an exit's on both its child pages. A stab exactly on an
//! exit's boundary reads it from the left child's page and goes no further:
//! [`stabs_on_exit_boundaries`]. What the cut-overs read is held in
//! `pc-intervaltree` (`query::tests::an_exit_bundle_*`, `a_leaf_bundle_*`).
//!
//! A segment tree's records route a stab by a key on the query point: the
//! last point of the left subtree's slabs, `e` for a singleton slab
//! `[e, e]` and `e − 1` below it; the empty slab below an endpoint at
//! `i64::MIN` is not in the tree. The inputs at the keys' edges, run by
//! `tests/oracle.rs`' `regression_stabs_at_the_domain_edges` over both
//! segment trees and the interval tree (whose one run is then a mini
//! segment tree) at 512 B and 4 KiB: [`stabs_at_the_domain_edges`].
//!
//! A 3-sided PST's lower skeletal page whose root has its children on it
//! carries, in the root's A-list, its entry exit's A-entries in the root's
//! route; no node below the root copies it, and the exit's run reads only
//! the band outside that route. The inputs at the rule's edges, each over
//! [`two_widths`] records whose lower pages are of one record on one side
//! and carrying on the other, run by `tests/oracle.rs`' `regression_
//! carried_*` at 512 B and 4 KiB: [`carried_ties_on_route_edges`],
//! [`carried_boundary_walks`], [`carried_one_record_pages`] and
//! [`carried_corners_below_the_root`]. What the rule reads is held in
//! `pc-pst` (`three_sided::tests::a_corner_at_a_carrying_root_*`).
//!
//! A basic PST's points blocks, and the last block of each of its cache
//! lists, ride in the tail of the skeletal page that holds their node's
//! record where they fit, smallest first, else on a page of their own; so
//! do a region's inner tree's (the naive PST keeps a page a node). The
//! inputs at the placement's edges, run by `tests/oracle.rs`' `regression_
//! tails_*` over the basic, segmented, two-level, multilevel and dynamic
//! PSTs, each read count held to the one it had when every block had a
//! page: [`tail_filled_to_the_byte`] (and a byte short), [`tail_empty_nodes`],
//! [`tail_traversals`], [`tail_regions_rebuilt`] and
//! [`tail_little_fits_at_512`]. What a page holds is held in `pc-pst`
//! (`two_level::tests::census_counts_*`, `dynamic::tests::every_page_*`).
//!
//! Every list's last block of a 3-sided PST, and every directory no tail
//! holds, shares a pack page with others' (first fit); a block there costs
//! the one read its own page did. The inputs at the packing's edges, each
//! at 512 B and 4 KiB, run by `tests/oracle.rs`' `regression_packed_*`,
//! which hold each read count to the one it had when every block had a page
//! of its own: [`packed_second_blocks`] (a continuation into a packed
//! second block), [`packed_run_starts`] (A-runs that start at a packed last
//! block), [`packed_one_block_s_lists`] and [`packed_full_page_blocks`].
//! Where a block goes is held in `pc-pst`
//! (`three_sided::tests::caches_are_whole_blocks_*`) and `pc-pagestore`
//! (`skeleton::tests::a_pack*`).

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

/// Corners on, and one unit past, the point of each of `ops`: the corner
/// is inclusive, so one exactly on an op's point holds it.
fn around(ops: &[Point]) -> Vec<Op> {
    let corner = |x0, y0| Op::Query(Query::Two(TwoSided { x0, y0 }));
    let near = |p: &Point| [(p.x, p.y), (p.x + 1, p.y), (p.x, p.y + 1), (p.x - 1, p.y - 1)];
    ops.iter().flat_map(near).map(|(x0, y0)| corner(x0, y0)).collect()
}

/// Three inserts in the top right of 2 000 points, none above and right of
/// another; queries with a corner exactly on each (it holds the op) and
/// one unit right of or above it (it holds none), before and after a
/// reopen, and after 800 inserts flush the root's `U`.
pub fn root_ops_on_the_corner_boundary() -> Case {
    let mut rng = Rng::seed_from_u64(0x57A1);
    let build = points(&mut rng, 2_000, 0);
    let top = 1i64 << 20;
    let steps = [(100, 3_000), (2_000, 1_500), (3_500, 200)];
    let ops: Vec<Point> = steps
        .iter()
        .zip(5_000..)
        .map(|(&(dx, dy), id)| Point::new(top - dx, top - dy, id))
        .collect();
    let queries = around(&ops);
    let mut out = queries.clone();
    out.extend(ops.iter().map(|&p| Op::Insert(p)));
    out.extend(queries.iter().copied());
    out.push(Op::Reopen);
    out.extend(queries.iter().copied());
    out.extend(points(&mut rng, 800, 6_000).into_iter().map(Op::Insert));
    out.extend(queries);
    out.push(Op::Query(everything(Shape::TwoSided)));
    Case { shape: Shape::TwoSided, build, ops: out }
}

/// Twelve inserts on an anti-diagonal through the top right of 2 000
/// points, none above and right of another. Queries at every outer corner
/// `(x_i, y_j)` of the twelve — each holds no op, though it lies above and
/// right of none of them — and on each op.
pub fn root_ops_on_an_anti_diagonal() -> Case {
    let mut rng = Rng::seed_from_u64(0xC0A5);
    let build = points(&mut rng, 2_000, 0);
    let (top, d) = (1i64 << 20, 20_000);
    let ops: Vec<Point> = (0..12)
        .map(|k| Point::new(top - 1_000 - k * d, top - 1_000 - (12 - k) * d, 5_000 + k as u64))
        .collect();
    let mut queries = around(&ops);
    for (i, a) in ops.iter().enumerate() {
        for b in &ops[i + 1..] {
            queries.push(Op::Query(Query::Two(TwoSided { x0: a.x, y0: b.y })));
        }
    }
    let mut out = queries.clone();
    out.extend(ops.iter().map(|&p| Op::Insert(p)));
    out.extend(queries.iter().copied());
    out.push(Op::Reopen);
    out.extend(queries);
    out.push(Op::Query(everything(Shape::TwoSided)));
    Case { shape: Shape::TwoSided, build, ops: out }
}

/// Deletes of the built points no other built point lies above and right
/// of: each delete, in the root's `U`, masks its point, which the static
/// structure still reports, in every corner that holds it, and in no
/// corner that does not. Queries on and around every deleted point, then
/// the points inserted again (the later op wins) and the queries again.
pub fn root_delete_masks_a_static_answer() -> Case {
    let mut rng = Rng::seed_from_u64(0xDE1A);
    let build = points(&mut rng, 2_000, 0);
    let mut by_x = build.clone();
    by_x.sort_unstable_by_key(|p| std::cmp::Reverse(p.x));
    let mut maximal: Vec<Point> = Vec::new();
    for p in by_x {
        if maximal.last().is_none_or(|top| p.y > top.y) {
            maximal.push(p);
        }
    }
    let queries = around(&maximal);
    let mut ops = queries.clone();
    ops.extend(maximal.iter().map(|&p| Op::Delete(p)));
    ops.extend(queries.iter().copied());
    ops.push(Op::Reopen);
    ops.extend(queries.iter().copied());
    ops.extend(maximal.iter().map(|&p| Op::Insert(p)));
    ops.extend(queries);
    ops.push(Op::Query(everything(Shape::TwoSided)));
    Case { shape: Shape::TwoSided, build, ops }
}

/// Stabs on every endpoint of 4 000 intervals of 62-bit coordinates and
/// 64-bit ids, each shorter than 2^40: every boundary of the interval tree
/// is an endpoint, so every exit's boundary is met exactly. The tree is
/// two levels of skeletal pages at 4 KiB and more at 512 B, and most of its
/// exits' bundles ride on their child pages, so a stab on such a boundary
/// reads the bundle from the left child's page. Ten copies `[e, e]` of
/// every hundredth endpoint give some nodes more than the one interval
/// that ends there.
pub fn stabs_on_exit_boundaries() -> Case {
    let mut rng = Rng::seed_from_u64(0xb0b0);
    let mut build: Vec<Point> = (0..4_000)
        .map(|_| {
            let lo = rng.gen_range(-(1i64 << 61)..1i64 << 61);
            Point::new(lo, lo + rng.gen_range(0..1i64 << 40), rng.gen_range(0..u64::MAX))
        })
        .collect();
    let mut endpoints: Vec<i64> = build.iter().flat_map(|p| [p.x, p.y]).collect();
    endpoints.sort_unstable();
    for &e in endpoints.iter().step_by(100) {
        build.extend((0..10).map(|_| Point::new(e, e, rng.gen_range(0..u64::MAX))));
    }
    let stabs = endpoints.into_iter().map(|q| Op::Query(Query::Stab(q)));
    Case { shape: Shape::Stab, build, ops: stabs.collect() }
}

/// Stabs at the domain's edges: intervals (`x` to `y`) whose endpoints
/// include `i64::MIN` and `i64::MAX`, many over few endpoints so that stabs
/// tie with a segment tree's split keys, and a stab at every endpoint and
/// one either side of it. With `one_run`, every endpoint is one of seven,
/// which an interval tree keeps in one mini segment tree; otherwise a third
/// of them are random, spread over many pages.
pub fn stabs_at_the_domain_edges(one_run: bool) -> Case {
    let edges = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
    let mut rng = Rng::seed_from_u64(0xed9e);
    let end = |rng: &mut Rng| match rng.gen_range(0..3u64) {
        0 if !one_run => rng.gen_range(i64::MIN..=i64::MAX),
        _ => edges[rng.gen_range(0..7u64) as usize],
    };
    let build: Vec<Point> = (0..1_000u64)
        .map(|id| {
            let (a, b) = (end(&mut rng), end(&mut rng));
            Point::new(a.min(b), a.max(b), id)
        })
        .collect();
    let mut stabs: Vec<i64> = build
        .iter()
        .flat_map(|p| [p.x, p.y])
        .flat_map(|e| [e.checked_sub(1), Some(e), e.checked_add(1)])
        .flatten()
        .collect();
    stabs.sort_unstable();
    stabs.dedup();
    let ops = stabs.into_iter().map(|q| Op::Query(Query::Stab(q))).collect();
    Case { shape: Shape::Stab, build, ops }
}

/// `n` records, half of 20-bit x and id, half of x and id past `2^40` and
/// `2^62`, every y 64-bit: the narrow half's nodes hold about twice the
/// records, so its subtrees end a level higher. At 512 B (2 000 records)
/// and 4 KiB (80 000) the pages below the root's are then one-record leaves
/// on the narrow side and carrying pages of three records on the wide one.
/// With `xs`, every x is one of `xs` values a side.
pub fn two_widths(rng: &mut Rng, n: usize, xs: Option<usize>) -> Vec<Point> {
    let sides = [0..1i64 << 20, 1i64 << 40..i64::MAX];
    let values = sides.clone().map(|side| {
        (0..xs.unwrap_or(0)).map(|_| rng.gen_range(side.clone())).collect::<Vec<i64>>()
    });
    (0..n)
        .map(|i| {
            let y = rng.gen_range(i64::MIN..i64::MAX);
            let x = match rng.choose(&values[i % 2]) {
                Some(&x) => x,
                None => rng.gen_range(sides[i % 2].clone()),
            };
            let id = if i % 2 == 0 { i as u64 } else { rng.gen_range(1u64 << 62..u64::MAX) };
            Point::new(x, y, id)
        })
        .collect()
}

/// How many [`two_widths`] records give a page size its two kinds of lower
/// pages.
fn carried_records(page_size: usize) -> usize {
    if page_size >= 4096 {
        80_000
    } else {
        2_000
    }
}

/// 3-sided queries over the bands `bands`, each at the y bounds `ys`.
fn bands_at(bands: &[(i64, i64)], ys: &[i64]) -> Vec<Op> {
    let three = |(x1, x2), y0| Op::Query(Query::Three(ThreeSided { x1, x2, y0 }));
    bands.iter().flat_map(|&band| ys.iter().map(move |&y0| three(band, y0))).collect()
}

/// Every x about 200-fold (`n/400` values a side: 200 at 4 KiB, 5 at
/// 512 B), so that routing keys are tied xs and entries at a carrying
/// root's route edge lie in its A-list and in its sibling's: the copies at
/// a split's x belong to the left walk, where the right one's tie drops
/// them. Bands start at every x and end there or up to three xs on, from
/// three y bounds.
pub fn carried_ties_on_route_edges(page_size: usize) -> Case {
    let mut rng = Rng::seed_from_u64(0x7E5E);
    let n = carried_records(page_size);
    let build = two_widths(&mut rng, n, Some(n / 400));
    let mut xs: Vec<i64> = build.iter().map(|p| p.x).collect();
    xs.sort_unstable();
    xs.dedup();
    let bands: Vec<(i64, i64)> = xs
        .windows(4)
        .flat_map(|w| [(w[0], w[0]), (w[0], w[1]), (w[0], w[2]), (w[0], w[3]), (w[0] + 1, w[2])])
        .collect();
    let ys = from_top(&build, |p| p.y, &[300, 700, 1000]);
    let ops = bands.iter().enumerate().map(|(i, &band)| bands_at(&[band], &ys[i % 3..][..1]));
    Case { shape: Shape::ThreeSided, build, ops: ops.flatten().collect() }
}

/// Bands between two records' xs, down to low y bounds: both boundary
/// walks leave the root's page, each exit's run reading the band outside
/// the route of the carrying root below it and that root the rest. Then
/// bands of a thousandth of the records around every 64th quantile of x,
/// which hold the splits whose children are pages' roots, from high y
/// bounds to low: one walk or both below such a split, into a carrying
/// page or a leaf's.
pub fn carried_boundary_walks(page_size: usize) -> Case {
    let mut rng = Rng::seed_from_u64(0xB0B1);
    let build = two_widths(&mut rng, carried_records(page_size), None);
    let ys = from_top(&build, |p| p.y, &[400, 800, 950, 1000]);
    let mut ops = Vec::new();
    for i in 0..160 {
        let (a, b) = (rng.choose(&build).unwrap().x, rng.choose(&build).unwrap().x);
        let (x1, x2) = (a.min(b), a.max(b));
        let band = [(x1, x2), (x1 + 1, x2), (x1, x2 - 1)][i % 3];
        ops.extend(bands_at(&[band], &ys[i % 4..][..1]));
    }
    let mut xs: Vec<i64> = build.iter().map(|p| p.x).collect();
    xs.sort_unstable();
    let (n, reach) = (xs.len(), xs.len() / 1000 + 1);
    let bands: Vec<(i64, i64)> =
        (1..64).map(|k| k * n / 64).map(|at| (xs[at - reach], xs[at + reach])).collect();
    ops.extend(bands_at(&bands, &from_top(&build, |p| p.y, &[2, 10, 40, 150, 500])));
    ops.push(Op::Query(everything(Shape::ThreeSided)));
    Case { shape: Shape::ThreeSided, build, ops }
}

/// Narrow bands in the narrow half, where the pages below the root's are
/// one-record leaves that keep their own lists, and bands across the two
/// halves, whose walks end on a leaf page and on a carrying one; y bounds
/// from the top to the bottom.
pub fn carried_one_record_pages(page_size: usize) -> Case {
    let mut rng = Rng::seed_from_u64(0x1EAF);
    let build = two_widths(&mut rng, carried_records(page_size), None);
    let mut xs: Vec<i64> = build.iter().map(|p| p.x).collect();
    xs.sort_unstable();
    let half = xs.len() / 2;
    let mut bands = Vec::new();
    for k in 0..40 {
        let at = k * half / 40;
        bands.push((xs[at], xs[at + 5]));
        bands.push((xs[half - 1 - k * 7], xs[half + k * 7]));
    }
    let ys = from_top(&build, |p| p.y, &[50, 500, 1000]);
    let mut ops = bands_at(&bands, &ys);
    ops.push(Op::Query(Query::Three(ThreeSided { x1: i64::MIN, x2: xs[half - 1], y0: i64::MIN })));
    Case { shape: Shape::ThreeSided, build, ops }
}

/// Bands of a few records each, at y bounds from the top thousandth down to
/// half the records: the corner is a carrying root (priced against its
/// entry exit's run and its own Y-prefix), a node one level below it
/// (whose parent's run the walk has read), or deeper.
pub fn carried_corners_below_the_root(page_size: usize) -> Case {
    let mut rng = Rng::seed_from_u64(0xC0C0);
    let build = two_widths(&mut rng, carried_records(page_size), None);
    let mut xs: Vec<i64> = build.iter().map(|p| p.x).collect();
    xs.sort_unstable();
    let bands: Vec<(i64, i64)> =
        (0..40).map(|_| rng.gen_range(0..xs.len() - 4)).map(|at| (xs[at], xs[at + 3])).collect();
    let ys = from_top(&build, |p| p.y, &[1, 3, 10, 30, 60, 100, 200, 350, 500]);
    Case { shape: Shape::ThreeSided, build, ops: bands_at(&bands, &ys) }
}

/// A sweep of 2-sided corners over `build`: `x0` at `xs` thousandths from
/// the top and `y0` at `ys`, and the whole plane.
fn sweep(build: &[Point], xs: &[usize], ys: &[usize]) -> Vec<Op> {
    let mut ops = grid(&from_top(build, |p| p.x, xs), &from_top(build, |p| p.y, ys));
    ops.push(Op::Query(everything(Shape::TwoSided)));
    ops
}

/// 109 points of the served benchmark's class, one region at 512 B, whose
/// inner tree's skeletal page the smallest-first placement fills to its
/// last byte (`exact`, seed 1), or leaves 117 bytes short of a block of
/// 118, which takes a page of its own (seed 0). Found by a search over
/// seeds and sizes; corners over the region, and churn after, which
/// rebuilds the inner tree of the dynamic PST's region.
pub fn tail_filled_to_the_byte(exact: bool) -> Case {
    let mut rng = Rng::seed_from_u64(u64::from(exact));
    let build = points(&mut rng, 109, 0);
    let queries = sweep(&build, &[0, 100, 300, 600, 900, 999], &[0, 100, 300, 600, 999]);
    let mut ops = queries.clone();
    let mut live = build.clone();
    for (i, p) in points(&mut rng, 300, 1_000).into_iter().enumerate() {
        let victim = live.swap_remove(rng.gen_range(0..live.len()));
        live.push(p);
        ops.extend([Op::Insert(p), Op::Delete(victim)]);
        if i % 60 == 59 {
            ops.extend(queries.iter().step_by(4).copied());
        }
    }
    ops.extend(queries);
    Case { shape: Shape::TwoSided, build, ops }
}

/// Nodes with no points: an empty build — a tree of one empty node, whose
/// points block is its prefix alone — then inserts into the dynamic PST,
/// every one of them deleted again, which empties its regions, and fresh
/// inserts; queries between.
pub fn tail_empty_nodes() -> Case {
    let mut rng = Rng::seed_from_u64(0xE497);
    let queries = [everything(Shape::TwoSided), Query::Two(TwoSided { x0: 0, y0: 0 })];
    let mut ops: Vec<Op> = queries.iter().map(|&q| Op::Query(q)).collect();
    let first = points(&mut rng, 400, 0);
    ops.extend(first.iter().map(|&p| Op::Insert(p)));
    ops.extend(sweep(&first, &[0, 200, 500, 900], &[0, 200, 500, 999]));
    for (i, &p) in first.iter().enumerate() {
        ops.push(Op::Delete(p));
        if i % 100 == 99 {
            ops.extend(queries.iter().map(|&q| Op::Query(q)));
        }
    }
    let fresh = points(&mut rng, 40, 1_000);
    ops.extend(fresh.iter().map(|&p| Op::Insert(p)));
    ops.extend(sweep(&fresh, &[0, 500, 999], &[0, 500, 999]));
    Case { shape: Shape::TwoSided, build: Vec::new(), ops }
}

/// 20 000 points at 4 KiB: the leaves on a basic PST's lowest skeletal
/// pages ride in those pages' tails, so corners low in `y` — whose
/// descendant traversals run down to the leaves from the pages above —
/// read their points from a skeletal page's tail, one read a page.
pub fn tail_traversals() -> Case {
    let build = points(&mut Rng::seed_from_u64(0x7A11), 20_000, 0);
    let ops = sweep(&build, &[1, 10, 50, 200, 500, 800, 990], &[300, 600, 900, 990, 999]);
    Case { shape: Shape::TwoSided, build, ops }
}

/// Regions rebuilt by a flush: 1 000 inserts above every point, which the
/// dynamic PST's root region takes until its Y-list outgrows twice its
/// blocks and the flush rebuilds the root's subtree (at 512 B), then 1 500
/// insert/delete pairs, whose flushes rebuild inner trees on full `u`s and
/// subtrees on churn; queries between.
pub fn tail_regions_rebuilt() -> Case {
    let mut rng = Rng::seed_from_u64(0x4EB1);
    let build = points(&mut rng, 3_000, 0);
    let queries = sweep(&build, &[0, 50, 300, 700, 999], &[0, 100, 500, 999]);
    let mut ops = queries.clone();
    let mut live = build.clone();
    for (i, p) in points(&mut rng, 1_000, 10_000).into_iter().enumerate() {
        let p = Point::new(p.x, (1 << 20) + i as i64, p.id);
        live.push(p);
        ops.push(Op::Insert(p));
        if i % 250 == 249 {
            ops.extend(queries.iter().step_by(2).copied());
        }
    }
    for (i, p) in points(&mut rng, 1_500, 20_000).into_iter().enumerate() {
        let victim = live.swap_remove(rng.gen_range(0..live.len()));
        live.push(p);
        ops.extend([Op::Insert(p), Op::Delete(victim)]);
        if i % 300 == 299 {
            ops.extend(queries.iter().step_by(2).copied());
        }
    }
    ops.extend(queries);
    Case { shape: Shape::TwoSided, build, ops }
}

/// 3 000 points at 512 B: three basic-tree records fill all but 117 bytes
/// of a skeletal page, so few blocks fit a tail — a leaf of a few points
/// or a short list's last block — and most keep their pages.
pub fn tail_little_fits_at_512() -> Case {
    let build = points(&mut Rng::seed_from_u64(0x512), 3_000, 0);
    let ops = sweep(&build, &[0, 5, 30, 100, 400, 800, 999], &[0, 5, 30, 100, 500, 999]);
    Case { shape: Shape::TwoSided, build, ops }
}

/// `n` points over all 64 bits of every field: about 20 a block at 512 B
/// and 170 at 4 KiB, so a few hundred points make a tree of several levels.
fn full_width(seed: u64, n: usize) -> Vec<Point> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut field = || rng.next_u64();
    (0..n).map(|_| Point::new(field() as i64, field() as i64, field())).collect()
}

/// 3-sided queries over `build`: bands across all of x, its halves and
/// quarters, and an eighth at every eighth, from y bounds `per_mille` from
/// the top; then the whole plane.
fn packed_bands(build: &[Point], per_mille: &[usize]) -> Vec<Op> {
    let mut xs: Vec<i64> = build.iter().map(|p| p.x).collect();
    xs.sort_unstable();
    let n = xs.len();
    let mut bands = vec![(i64::MIN, i64::MAX)];
    for parts in [2, 4, 8] {
        bands.extend((0..parts).map(|k| (xs[k * n / parts], xs[((k + 1) * n / parts).min(n - 1)])));
    }
    let mut ops = bands_at(&bands, &from_top(build, |p| p.y, per_mille));
    ops.push(Op::Query(everything(Shape::ThreeSided)));
    ops
}

/// A tree whose leaves hold two blocks each: 7 nodes of three blocks and 8
/// leaves at 512 B (600 points, 37 Y-blocks on 5 skeletal pages), 15 nodes
/// of seven blocks and 16 leaves at 4 KiB (22 000, 137 on one page). A
/// walk that ends in a leaf drains its S-list, which holds its sibling
/// leaf's first block; a sibling all of whose cached block qualified is
/// read on from its second block, its last, on a pack page.
pub fn packed_second_blocks(page_size: usize) -> Case {
    let build = full_width(0x9ac4, if page_size >= 4096 { 22_000 } else { 600 });
    let ops = packed_bands(&build, &[20, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000]);
    Case { shape: Shape::ThreeSided, build, ops }
}

/// The tree of [`packed_one_block_s_lists`], and bands at the left end of
/// each sixteenth of x, a few points wide: every A-list is in descending
/// x, so a band at the low end of a node's A-list starts its run with a
/// jump to the list's last block, on a pack page.
pub fn packed_run_starts(page_size: usize) -> Case {
    let build = full_width(0x9ac4, if page_size >= 4096 { 18_900 } else { 432 });
    let mut xs: Vec<i64> = build.iter().map(|p| p.x).collect();
    xs.sort_unstable();
    let n = xs.len();
    let bands: Vec<(i64, i64)> = (0..16)
        .flat_map(|k| [0, 1, 3, 10, 30].map(|w| (xs[k * n / 16], xs[(k * n / 16 + w).min(n - 1)])))
        .collect();
    let ys = from_top(&build, |p| p.y, &[50, 300, 1000]);
    let mut ops = bands_at(&bands, &ys);
    ops.push(Op::Query(everything(Shape::ThreeSided)));
    Case { shape: Shape::ThreeSided, build, ops }
}

/// A tree whose leaves hold less than a block: 432 points at 512 B (29
/// Y-blocks on 5 skeletal pages), 18 900 at 4 KiB (121 on one page). A
/// leaf's S-list over its sibling's first block is then one block, on a
/// pack page, its head the pack handle.
pub fn packed_one_block_s_lists(page_size: usize) -> Case {
    let build = full_width(0x9ac4, if page_size >= 4096 { 18_900 } else { 432 });
    let ops = packed_bands(&build, &[20, 100, 300, 500, 700, 900, 1000]);
    Case { shape: Shape::ThreeSided, build, ops }
}

/// `blocks` blocks of points whose Y-list blocks are each exactly one page:
/// x in `[0, 64)` (6 bits), y falling by 1 and ids rising by 1 (a bit each)
/// take a byte a point, so `page_size − 40` points fill a block's page to
/// the byte. One node at either size; its Y-list's last block takes a pack
/// page whole.
pub fn packed_full_page_blocks(page_size: usize, blocks: usize) -> Case {
    let mut rng = Rng::seed_from_u64(0xe8ac);
    let n = blocks * (page_size - 40);
    let build: Vec<Point> =
        (0..n).map(|i| Point::new(rng.gen_range(0..64i64), -(i as i64), i as u64)).collect();
    let bands = [(0, 63), (0, 0), (63, 63), (10, 20), (-5, 5), (31, 32), (1, 62)];
    let mut ops = bands_at(&bands, &from_top(&build, |p| p.y, &[1, 100, 500, 999, 1000]));
    ops.push(Op::Query(everything(Shape::ThreeSided)));
    Case { shape: Shape::ThreeSided, build, ops }
}
