//! The structures' footprint and per-query reads as assertions (the
//! paper's table, Theorems 3.3, 3.5, 4.3 and 5.1): at 4 KiB pages and a
//! fixed seed, `pages <= c·(n/B)·f(B)` and `reads <= c1·ceil(log_B n) +
//! 2·ceil(t/B)`. `c` and `c1` are pinned 10% above what the layouts
//! measure, so a layout regression fails here instead of moving a table.

use path_caching::{Interval, PageStore, Point, ThreeSided, TwoSided};
use pc_bench::{
    interval_tree_constants, three_sided_constants, INTERVAL_TREE_PINS, THREE_SIDED_PINS,
    TWO_LEVEL_SPACE_C,
};
use pc_intervaltree::ExternalIntervalTree;
use pc_pst::{BasicPst, DynamicPst, MultilevelPst, SegmentedPst, ThreeSidedPst, TwoLevelPst};
use pc_workloads::{
    gen_intervals, gen_points, gen_stabbing, gen_three_sided, gen_two_sided, IntervalDist,
    PointDist,
};

const PAGE_SIZE: usize = 4096;
/// The PSTs' block unit at 4 KiB (163): cache entries per block, which is
/// also the points per node.
fn b_points() -> u64 {
    pc_pst::block_capacity(PAGE_SIZE) as u64
}

fn ceil_log(base: u64, n: u64) -> u64 {
    let (mut levels, mut reach) = (0, 1u64);
    while reach < n {
        reach *= base;
        levels += 1;
    }
    levels
}

/// Asserts `reads <= c1·ceil(log_B n) + 2·ceil(t/B)`: a scanned list ends
/// in at most one partial block and, in these layouts, starts in one.
fn assert_reads_within(reads: u64, b: u64, n: u64, t: usize, c1: f64, what: &str) {
    let allowed = c1 * ceil_log(b, n) as f64 + 2.0 * (t as u64).div_ceil(b) as f64;
    assert!(reads as f64 <= allowed, "{what}: {reads} reads for t={t}, allowed {allowed:.1}");
}

fn assert_pages_within(pages: u64, unit: f64, c: f64, what: &str) {
    assert!(pages as f64 <= c * unit, "{what}: {pages} pages is {:.3} units", pages as f64 / unit);
}

#[test]
fn interval_tree_space_and_stab_reads_stay_within_pinned_constants() {
    // Stabs meeting ~16 intervals, then ~3 blocks of them; the pins and
    // the measurement are the ones E4 of the `experiments` binary exits
    // non-zero past.
    for (t_mean, c_pin, c1_pin) in INTERVAL_TREE_PINS {
        let (pages, c, c1) = interval_tree_constants(t_mean);
        assert!(c <= c_pin, "t≈{t_mean}: {pages} pages is {c:.3} units of (n/B)·log2 B");
        assert!(c1 <= c1_pin, "t≈{t_mean}: a stab needs c1 = {c1:.3}");
    }
}

fn uniform_points(n: u64) -> (Vec<(i64, i64, u64)>, Vec<Point>) {
    let raw = gen_points(n as usize, PointDist::Uniform, 0x5eed);
    let points = raw.iter().map(|&(x, y, id)| Point::new(x, y, id)).collect();
    (raw, points)
}

#[test]
fn three_sided_pst_space_and_query_reads_stay_within_pinned_constants() {
    // The pins and the measurement are the ones E9 of the `experiments`
    // binary exits non-zero past: at the peak of the space sawtooth, at a
    // small size and where the tree spans two levels of skeletal pages.
    for (n, c_pin, c1_pins) in THREE_SIDED_PINS {
        let (census, c, c1) = three_sided_constants(n);
        assert!(c <= c_pin, "n={n}: {census:?} is {c:.3} units of (n/B)·log2² B");
        for (c1, (t, c1_pin)) in c1.into_iter().zip(c1_pins) {
            assert!(c1 <= c1_pin, "n={n}, t≈{t}: a 3-sided query needs c1 = {c1:.3}");
        }
    }
}

/// 2-sided corners with about `t` answers. The generator's corners all sit
/// in the plane's top-right, inside the root region. A corner with only
/// `r` points to its right lies the deeper the smaller `r` is, so `r` = t,
/// 2t, 3t, … walks paths of every length at the same output size.
fn two_sided_corners(raw: &[(i64, i64, u64)], t: usize) -> Vec<TwoSided> {
    let mut by_x_desc = raw.to_vec();
    by_x_desc.sort_unstable_by_key(|&(x, y, id)| std::cmp::Reverse((x, y, id)));
    let top_right = gen_two_sided(raw, 50, t, 0xfeed).into_iter().map(|q| (q.x0, q.y0));
    let deep = (1..=100usize).map(|i| {
        let right = &by_x_desc[..(i * t).min(by_x_desc.len())];
        let mut ys: Vec<i64> = right.iter().map(|p| p.1).collect();
        ys.sort_unstable_by(|a, b| b.cmp(a));
        (right[right.len() - 1].0, ys[t - 1])
    });
    top_right.chain(deep).map(|(x0, y0)| TwoSided { x0, y0 }).collect()
}

/// Theorems 4.3 and 5.1: the two-level structure, static and as the
/// dynamic structure builds it, in `(n/B)·log2 log2 B` blocks with optimal
/// 2-sided queries.
#[test]
fn two_level_pst_space_and_query_reads_stay_within_pinned_constants() {
    let n = 100_000u64;
    let (raw, points) = uniform_points(n);
    let b = b_points();
    let unit = n.div_ceil(b) as f64 * (b as f64).log2().log2();

    let store = PageStore::in_memory(PAGE_SIZE);
    let pst = TwoLevelPst::build(&store, &points).unwrap();
    // Measured c = 1.953; the pin (2.15) is the one E14 of the
    // `experiments` binary exits non-zero past.
    assert_pages_within(store.live_pages(), unit, TWO_LEVEL_SPACE_C, "(n/B)·log2 log2 B");
    let dyn_store = PageStore::in_memory(PAGE_SIZE);
    let dynamic = DynamicPst::build(&dyn_store, &points).unwrap();
    assert_eq!(dyn_store.live_pages(), store.live_pages(), "one layout, static or dynamic");

    // Measured c1 = 2.00 at t ≈ 16; at t ≈ 4096 the 2·ceil(t/B) allowance
    // alone covers every query (measured c1 = -1.00, the first blocks a
    // continued list is re-read through included).
    for (t, c1) in [(16, 2.2), (4096, 0.0)] {
        for q in two_sided_corners(&raw, t) {
            let (hits, counters) = pst.query_counted(&store, q).unwrap();
            assert_reads_within(counters.total(), b, n, hits.len(), c1, "2-sided");
            let (dyn_hits, dyn_counters) = dynamic.query_counted(&dyn_store, q).unwrap();
            assert_eq!((dyn_hits.len(), dyn_counters.total()), (hits.len(), counters.total()));
        }
    }
}

/// What `query_counted` and `stab_with_ios` report is what the store saw:
/// every structure's counters against the strict store's own read count,
/// query by query, at small and at many-block outputs.
#[test]
fn query_counters_equal_the_strict_stores_reads() {
    let n = 100_000u64;
    let (raw, points) = uniform_points(n);
    let store = PageStore::in_memory(PAGE_SIZE);
    let counted = |what: &str, run: &dyn Fn() -> (usize, u64)| {
        let before = store.stats();
        let (t, reported) = run();
        let seen = (store.stats() - before).logical_reads();
        assert_eq!(reported, seen, "{what}: t={t}, counters say {reported}, the store {seen}");
    };
    let basic = BasicPst::build(&store, &points).unwrap();
    let segmented = SegmentedPst::build(&store, &points).unwrap();
    let two_level = TwoLevelPst::build(&store, &points).unwrap();
    let multilevel = MultilevelPst::build(&store, &points, 3).unwrap();
    let mut dynamic = DynamicPst::build(&store, &points).unwrap();
    // Non-empty update buffers: a query reads those too.
    for (i, p) in points.iter().step_by(997).enumerate() {
        dynamic.insert(&store, Point::new(p.y, p.x, n + i as u64)).unwrap();
    }
    macro_rules! two_sided {
        ($pst:ident) => {
            (stringify!($pst), &|q| {
                let (hits, counters) = $pst.query_counted(&store, q).unwrap();
                (hits.len(), counters.total())
            })
        };
    }
    type Counted<'a> = &'a dyn Fn(TwoSided) -> (usize, u64);
    let two_sided: [(&str, Counted<'_>); 5] = [
        two_sided!(basic),
        two_sided!(segmented),
        two_sided!(two_level),
        two_sided!(multilevel),
        two_sided!(dynamic),
    ];
    let three_sided = ThreeSidedPst::build(&store, &points).unwrap();
    for t in [16usize, 4096] {
        for q in two_sided_corners(&raw, t) {
            for (what, query) in two_sided {
                counted(what, &|| query(q));
            }
        }
        for q in gen_three_sided(&raw, 150, t, 0xfeed) {
            counted("3-sided", &|| {
                let q = ThreeSided { x1: q.x1, x2: q.x2, y0: q.y0 };
                let (hits, counters) = three_sided.query_counted(&store, q).unwrap();
                (hits.len(), counters.total())
            });
        }
        let max_len = 2 * t as i64 * pc_workloads::DOMAIN / n as i64;
        let raw = gen_intervals(n as usize, IntervalDist::UniformLen { max_len }, 0x5eed);
        let intervals: Vec<Interval> =
            raw.iter().map(|&(lo, hi, id)| Interval::new(lo, hi, id)).collect();
        let tree = ExternalIntervalTree::build(&store, &intervals).unwrap();
        for stab in gen_stabbing(&raw, 150, 0xfeed) {
            counted("interval tree", &|| {
                let (hits, reads) = tree.stab_with_ios(&store, stab.q).unwrap();
                (hits.len(), reads)
            });
        }
    }
}

/// Space under churn: after 20k insert/delete pairs on 50k points the
/// dynamic structure holds the same number of points it started with, and
/// may not have drifted far above a fresh build of what it now holds.
#[test]
fn dynamic_pst_space_stays_near_a_fresh_build_under_churn() {
    let n = 50_000u64;
    let (_, points) = uniform_points(n);
    let fresh: Vec<(i64, i64, u64)> = gen_points(20_000, PointDist::Uniform, 0xc0de);
    let store = PageStore::in_memory(PAGE_SIZE);
    let mut pst = DynamicPst::build(&store, &points).unwrap();
    let mut live = points;
    for (i, &(x, y, id)) in fresh.iter().enumerate() {
        let p = Point::new(x, y, n + id);
        pst.insert(&store, p).unwrap();
        live.push(p);
        // A victim from anywhere in the set, old or new.
        let victim = live.swap_remove((i * 7919 + 13) % live.len());
        pst.delete(&store, victim).unwrap();
    }
    assert_eq!(pst.len(), n);
    let rebuilt = PageStore::in_memory(PAGE_SIZE);
    DynamicPst::build(&rebuilt, &live).unwrap();
    // Measured 1.481 (2563 pages against 1731).
    let factor = store.live_pages() as f64 / rebuilt.live_pages() as f64;
    assert!(
        factor <= 1.63,
        "{} pages after churn, {} fresh: factor {factor:.3}",
        store.live_pages(),
        rebuilt.live_pages()
    );
}
