//! The structures' footprint and per-query reads as assertions (the
//! paper's table: Lemma 3.1, Theorems 3.2, 3.3, 3.5, 4.3, 4.4 and 5.1): at
//! 4 KiB pages and a fixed seed, `pages <= c·(n/B)·f(B)` and `reads <=
//! c1·ceil(log_B n) + 2·ceil(t/B)`. `c` and `c1` are pinned 10% above what
//! the layouts measure — the worst over the sizes a structure is pinned
//! at — so a layout regression fails here instead of moving a table. The
//! pins and the measurements are `pc_bench`'s, which the `experiments`
//! binary prints and exits non-zero past.

use path_caching::{Interval, PageStore, Point, ThreeSided, TwoSided};
use pc_bench::{
    basic_constants, dynamic_churn_pages, interval_tree_constants, multilevel_constants,
    segmented_constants, three_sided_constants, two_level_constants, two_sided_corners,
    TwoSidedPin, BASIC_PINS, DYNAMIC_CHURN_FACTOR, INTERVAL_TREE_PINS, LADDER_PIN_SIZES,
    MULTILEVEL_PINS, SEGMENTED_PINS, THREE_SIDED_PINS, TWO_LEVEL_PINS, TWO_LEVEL_PIN_SIZES,
};
use pc_intervaltree::ExternalIntervalTree;
use pc_pst::{
    BasicPst, DynamicPst, DynamicThreeSidedPst, MultilevelPst, NaivePst, SegmentedPst,
    ThreeSidedPst, TwoLevelPst,
};
use pc_workloads::{
    gen_intervals, gen_points, gen_stabbing, gen_three_sided, IntervalDist, PointDist,
};

const PAGE_SIZE: usize = 4096;

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

fn assert_two_sided_within(
    what: &str,
    sizes: &[u64],
    pins: TwoSidedPin,
    measure: fn(u64) -> (u64, f64, [f64; 2]),
) {
    let (c_pin, c1_pins) = pins;
    for &n in sizes {
        let (pages, c, c1) = measure(n);
        assert!(c <= c_pin, "{what}, n={n}: {pages} pages is {c:.3} units of its space bound");
        for (c1, (t, c1_pin)) in c1.into_iter().zip(c1_pins) {
            assert!(c1 <= c1_pin, "{what}, n={n}, t≈{t}: a 2-sided query needs c1 = {c1:.3}");
        }
    }
}

/// Lemma 3.1, Theorems 3.2 and 4.4: the rungs of the ladder below and above
/// the two-level structure. The pins and the measurements are the ones E5,
/// E6 and E8 of the `experiments` binary exit non-zero past.
#[test]
fn ladder_psts_space_and_query_reads_stay_within_pinned_constants() {
    assert_two_sided_within("basic", &LADDER_PIN_SIZES, BASIC_PINS, basic_constants);
    assert_two_sided_within("segmented", &LADDER_PIN_SIZES, SEGMENTED_PINS, segmented_constants);
    assert_two_sided_within("3-level", &LADDER_PIN_SIZES, MULTILEVEL_PINS, multilevel_constants);
}

/// Theorems 4.3 and 5.1: the two-level structure in `(n/B)·log2 log2 B`
/// blocks with optimal 2-sided queries, at every pinned size (E7 exits
/// non-zero past the same pins) — and the dynamic structure builds the
/// same thing.
#[test]
fn two_level_pst_space_and_query_reads_stay_within_pinned_constants() {
    assert_two_sided_within("two-level", &TWO_LEVEL_PIN_SIZES, TWO_LEVEL_PINS, two_level_constants);

    let n = 100_000u64;
    let (raw, points) = uniform_points(n);
    let store = PageStore::in_memory(PAGE_SIZE);
    let pst = TwoLevelPst::build(&store, &points).unwrap();
    let dyn_store = PageStore::in_memory(PAGE_SIZE);
    let dynamic = DynamicPst::build(&dyn_store, &points).unwrap();
    assert_eq!(dyn_store.live_pages(), store.live_pages(), "one layout, static or dynamic");
    assert_eq!(dynamic.page_census(&dyn_store).unwrap(), pst.page_census(&store).unwrap());
    for t in [16, 4096] {
        for q in two_sided_corners(&raw, t) {
            let (hits, counters) = pst.query_counted(&store, q).unwrap();
            let (dyn_hits, dyn_counters) = dynamic.query_counted(&dyn_store, q).unwrap();
            assert_eq!((dyn_hits.len(), dyn_counters.total()), (hits.len(), counters.total()));
        }
    }
}

/// What `query_counted` and `stab_with_ios` report is what the store saw,
/// and so is what a `begin_trace` capture reports: every structure's
/// counters and span tree against the strict store's own read count, query
/// by query, at small and at many-block outputs — and the tree's `items`
/// against the answer's length, since §3's waste is computed from both.
#[test]
fn query_counters_equal_the_strict_stores_reads() {
    let n = 100_000u64;
    let (raw, points) = uniform_points(n);
    let store = PageStore::in_memory(PAGE_SIZE);
    // `run` answers with (t, reads the structure's own counters report).
    let counted = |what: &str, run: &dyn Fn() -> (usize, Option<u64>)| {
        let before = store.stats();
        let capture = pc_obs::begin_trace();
        let (t, reported) = run();
        let trace = capture.finish().unwrap_or_else(|| panic!("{what}: no trace came back"));
        let seen = (store.stats() - before).logical_reads();
        if let Some(reported) = reported {
            assert_eq!(reported, seen, "{what}: t={t}, counters say {reported}, the store {seen}");
        }
        assert_eq!(trace.total_io, seen, "{what}: t={t}, the span tree's reads");
        assert_eq!(trace.items, t as u64, "{what}: the span tree's items, {seen} reads");
        assert!(
            trace.search_ios + trace.wasteful_ios <= trace.total_io,
            "{what}: search {} + wasteful {} > total {}",
            trace.search_ios,
            trace.wasteful_ios,
            trace.total_io
        );
    };
    let basic = BasicPst::build(&store, &points).unwrap();
    let segmented = SegmentedPst::build(&store, &points).unwrap();
    let two_level = TwoLevelPst::build(&store, &points).unwrap();
    let multilevel = MultilevelPst::build(&store, &points, 3).unwrap();
    let mut dynamic = DynamicPst::build(&store, &points).unwrap();
    let three_sided = ThreeSidedPst::build(&store, &points).unwrap();
    let mut dynamic_three_sided = DynamicThreeSidedPst::build(&store, &points).unwrap();
    // Non-empty update buffers: a query reads those too, and answers from
    // them.
    for (i, p) in points.iter().step_by(997).enumerate() {
        let p = Point::new(p.y, p.x, n + i as u64);
        dynamic.insert(&store, p).unwrap();
        dynamic_three_sided.insert(&store, p).unwrap();
    }
    macro_rules! two_sided {
        ($pst:ident) => {
            (stringify!($pst), &|q| {
                let (hits, counters) = $pst.query_counted(&store, q).unwrap();
                (hits.len(), Some(counters.total()))
            })
        };
    }
    type Counted<'a> = &'a dyn Fn(TwoSided) -> (usize, Option<u64>);
    let two_sided: [(&str, Counted<'_>); 5] = [
        two_sided!(basic),
        two_sided!(segmented),
        two_sided!(two_level),
        two_sided!(multilevel),
        two_sided!(dynamic),
    ];
    for t in [16usize, 4096] {
        for q in two_sided_corners(&raw, t) {
            for (what, query) in two_sided {
                counted(what, &|| query(q));
            }
        }
        for q in gen_three_sided(&raw, 150, t, 0xfeed) {
            let q = ThreeSided { x1: q.x1, x2: q.x2, y0: q.y0 };
            counted("3-sided", &|| {
                let (hits, counters) = three_sided.query_counted(&store, q).unwrap();
                (hits.len(), Some(counters.total()))
            });
            // No counters of its own: the span tree against the store.
            counted("dynamic 3-sided", &|| {
                (dynamic_three_sided.query(&store, q).unwrap().len(), None)
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
                (hits.len(), Some(reads))
            });
        }
    }
}

/// The paper's Figure 3 pathology, read off the span tree: on the deepest
/// corners (empty output) the naive structure pays ~log n wasteful
/// transfers a query while the segmented (path-cached) one stays O(1).
#[test]
fn cached_queries_waste_less_than_naive() {
    let n = 200_000u64;
    let (_, points) = uniform_points(n);
    let store = PageStore::in_memory(PAGE_SIZE);
    let naive = NaivePst::build(&store, &points).unwrap();
    let segmented = SegmentedPst::build(&store, &points).unwrap();
    let waste = |what: &str, run: &dyn Fn(TwoSided)| -> u64 {
        // Just beyond the domain: empty output, deepest corner.
        (0..20)
            .map(|i| {
                let capture = pc_obs::begin_trace();
                run(TwoSided { x0: pc_workloads::DOMAIN + 1 + i, y0: 0 });
                let trace = capture.finish().unwrap_or_else(|| panic!("{what}: no trace"));
                assert_eq!(trace.name, what);
                trace.wasteful_ios
            })
            .sum()
    };
    let naive_waste = waste("pst2_naive", &|q| drop(naive.query_counted(&store, q).unwrap()));
    let segmented_waste =
        waste("pst2_segmented", &|q| drop(segmented.query_counted(&store, q).unwrap()));
    assert!(
        naive_waste > 4 * segmented_waste.max(1),
        "naive wasteful I/O ({naive_waste}) should dwarf path-cached ({segmented_waste})"
    );
}

/// Space under churn: after 20k insert/delete pairs on 50k points the
/// dynamic structure holds the same number of points it started with, and
/// may not have drifted far above a fresh build of what it now holds (E10
/// exits non-zero past the same pin).
#[test]
fn dynamic_pst_space_stays_near_a_fresh_build_under_churn() {
    let (after, fresh) = dynamic_churn_pages();
    let factor = after as f64 / fresh as f64;
    assert!(
        factor <= DYNAMIC_CHURN_FACTOR,
        "{after} pages after churn, {fresh} fresh: factor {factor:.3}"
    );
}
