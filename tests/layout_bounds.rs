//! The structures' footprint and per-query reads as assertions (the
//! paper's table: the B+-tree of §1, Lemma 3.1, Theorems 3.2, 3.3, 3.5,
//! 4.3, 4.4 and 5.1): at 4 KiB pages and a fixed seed, `pages <=
//! c·(n/B)·f(B)` and `reads <= c1·ceil(log_B n) + 2·ceil(t/B)` (the
//! B-tree's: `c·ceil(n/B)` and one `ceil(t/B)`), `B` as the data set it
//! (every block holds what fits it). `c` and `c1` are pinned 10% above what
//! the layouts measure — the worst over the sizes a structure is pinned at —
//! so a layout regression fails here instead of moving a table. Every pin
//! is held twice ([`Spread`]): on the generators' 20-bit data and on the
//! same data stretched over all 64 bits, whose exact page and read counts
//! are pinned below as well. The pins and the measurements are
//! `pc_bench`'s, which the `experiments` binary prints and exits non-zero
//! past.

use path_caching::{PageStore, Point, TwoSided};
use pc_bench::{
    band_rebuild_stream, basic_constants, btree_constants, dynamic_churn_pages,
    interval_tree_constants, multilevel_constants, reads_of, segmented_constants,
    segtree_constants, three_sided_constants, two_level_constants, two_sided_corners,
    BTreeConstants, SegTreeConstants, Spread, TwoSidedConstants, TwoSidedPin, TwoSidedPst,
    BASIC_PINS, BTREE_PINS, DYNAMIC_CHURN_FACTOR, INTERVAL_TREE_PINS, LADDER_PIN_SIZES,
    MULTILEVEL_PINS, SEGMENTED_PINS, SEGTREE_PINS, THREE_SIDED_PINS, TWO_LEVEL_PINS,
    TWO_LEVEL_PIN_SIZES, WIDE_PIN_SIZE,
};
use pc_intervaltree::ExternalIntervalTree;
use pc_pst::{
    BasicPst, DynamicPst, DynamicThreeSidedPst, MultilevelPst, NaivePst, SegmentedPst,
    ThreeSidedPst, TwoLevelPst,
};
use pc_segtree::{CachedSegmentTree, NaiveSegmentTree};
use pc_workloads::{
    gen_intervals, gen_points, gen_stabbing, gen_three_sided, IntervalDist, PointDist, RawPoint,
};

const PAGE_SIZE: usize = 4096;

/// The B+-tree's `log_B n + t/B` (§1) at its pinned sizes up to 100 000;
/// E1 of the `experiments` binary exits non-zero past every size's pins.
#[test]
fn btree_space_and_range_reads_stay_within_pinned_constants() {
    for spread in Spread::BOTH {
        let small = BTREE_PINS[spread as usize].iter().filter(|pin| pin.0 <= 100_000);
        for &(n, c_pin, c1_pins) in small {
            let BTreeConstants { b, pages, c, c1 } = btree_constants(n, spread);
            let what = format!("{spread:?}, B={b}, n={n}");
            assert!(c <= c_pin, "{what}: {pages} pages is {c:.3}·ceil(n/B)");
            for (c1, (t, c1_pin)) in c1.into_iter().zip(c1_pins) {
                assert!(c1 <= c1_pin, "{what}, t≈{t}: a range needs c1 = {c1:.3}");
            }
        }
    }
}

/// Theorem 3.4's `(n/B)·log n` space and `log_B n + t/B` stabs for the
/// path-cached segment tree, at its pinned size of 10 000; E3 of the
/// `experiments` binary exits non-zero past every size's pins.
///
/// History. Before the stream, each skeletal page's short lists and caches
/// lay in a shared region of raw pages of 24-byte intervals (170 a 4 KiB
/// page) behind a one-page directory of their ids, a node record (56
/// bytes, 72 a page) addressed its two runs as `(offset, len)` pairs, and
/// `B` was `(page − 10) / 24`, 170. E3 measured 6 601 / 49 302 / 220 909
/// pages at n = 10k / 50k / 200k — at 200k 18 244 skeletal pages, 182 686
/// raw region pages and 18 182 directories for 29.4 M cached entries —
/// and 9.0 / 11.2 / 16.0 reads a stab, 1.19 / 1.48 / 2.09 of them
/// directory reads. The pins were c 14.777 / 11.832 at 10k / 50k (Full
/// 14.814 / 11.862) and c1 4.95 / 3.3 at t ≈ 16, 5.5 / 3.667 at t ≈ 500.
#[test]
fn segment_tree_space_and_stab_reads_stay_within_pinned_constants() {
    for spread in Spread::BOTH {
        let small = SEGTREE_PINS[spread as usize].iter().filter(|pin| pin.0 <= 10_000);
        for &(n, c_pin, c1_pins) in small {
            let SegTreeConstants { pages, c, c1 } = segtree_constants(n, spread);
            let what = format!("{spread:?}, n={n}");
            assert!(c <= c_pin, "{what}: {pages} pages is {c:.3} units of (n/B)·log2 n");
            for (c1, (t, c1_pin)) in c1.into_iter().zip(c1_pins) {
                assert!(c1 <= c1_pin, "{what}, t≈{t}: a stab needs c1 = {c1:.3}");
            }
        }
    }
}

#[test]
fn interval_tree_space_and_stab_reads_stay_within_pinned_constants() {
    // Stabs meeting ~16 intervals, then ~3 blocks of them; the pins and
    // the measurement are the ones E4 of the `experiments` binary exits
    // non-zero past.
    for spread in Spread::BOTH {
        for (t_mean, c_pin, c1_pin) in INTERVAL_TREE_PINS[spread as usize] {
            let (b, pages, c, c1) = interval_tree_constants(t_mean, spread);
            let what = format!("{spread:?}, B={b}, t≈{t_mean}");
            assert!(c <= c_pin, "{what}: {pages} pages is {c:.3} units of (n/B)·log2 B");
            assert!(c1 <= c1_pin, "{what}: a stab needs c1 = {c1:.3}");
        }
    }
}

fn uniform_points(n: u64, spread: Spread) -> (Vec<RawPoint>, Vec<Point>) {
    let raw = gen_points(n as usize, PointDist::Uniform, 0x5eed);
    let points = spread.points(&raw);
    (raw, points)
}

#[test]
fn three_sided_pst_space_and_query_reads_stay_within_pinned_constants() {
    // The pins and the measurement are the ones E9 of the `experiments`
    // binary exits non-zero past: at the peak of the space sawtooth, at a
    // small size and where the tree spans two levels of skeletal pages.
    for spread in Spread::BOTH {
        for &(n, c_pin, c1_pins) in THREE_SIDED_PINS[spread as usize] {
            let (census, c, c1) = three_sided_constants(n, spread);
            assert!(c <= c_pin, "n={n}: {census:?} is {c:.3} units of (n/B)·log2² B");
            for (c1, (t, c1_pin)) in c1.into_iter().zip(c1_pins) {
                let what = format!("{spread:?}, n={n}, t≈{t}");
                assert!(c1 <= c1_pin, "{what}: a 3-sided query needs c1 = {c1:.3}");
            }
        }
    }
}

fn assert_two_sided_within(
    what: &str,
    sizes: &[u64],
    pins: [TwoSidedPin; 2],
    measure: fn(u64, Spread) -> TwoSidedConstants,
) {
    for spread in Spread::BOTH {
        let (c_pin, c1_pins) = pins[spread as usize];
        let sizes = if spread == Spread::Full { &[WIDE_PIN_SIZE] } else { sizes };
        for &n in sizes {
            let TwoSidedConstants { b, pages, c, c1 } = measure(n, spread);
            let what = format!("{what}, {spread:?}, B={b}, n={n}");
            assert!(c <= c_pin, "{what}: {pages} pages is {c:.3} units of its space bound");
            for (c1, (t, c1_pin)) in c1.into_iter().zip(c1_pins) {
                assert!(c1 <= c1_pin, "{what}, t≈{t}: a 2-sided query needs c1 = {c1:.3}");
            }
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
    let (raw, points) = uniform_points(n, Spread::Domain);
    let store = PageStore::in_memory(PAGE_SIZE);
    let pst = TwoLevelPst::build(&store, &points).unwrap();
    let dyn_store = PageStore::in_memory(PAGE_SIZE);
    let dynamic = DynamicPst::build(&dyn_store, &points).unwrap();
    assert_eq!(dyn_store.live_pages(), store.live_pages(), "one layout, static or dynamic");
    let census = pst.page_census(&store).unwrap();
    assert_eq!(dynamic.page_census(&dyn_store).unwrap(), census);
    assert_eq!(census.block_capacity, 667, "{census:?}");
    for t in [16, 4096] {
        for q in two_sided_corners(&raw, t) {
            let (hits, reads) = reads_of(&store, || pst.query(&store, q).unwrap());
            let (dyn_hits, dyn_reads) =
                reads_of(&dyn_store, || dynamic.query(&dyn_store, q).unwrap());
            assert_eq!((dyn_hits.len(), dyn_reads), (hits.len(), reads));
        }
    }
}

/// What a `pc_obs::traced` capture reports is what the store saw: every
/// structure's reads by class and span tree against the strict store's own
/// read count, query by query, at small and at many-block outputs — and
/// the tree's `items` against the answer's length, since §3's waste is
/// computed from both. The segment trees run at their pinned geometry,
/// where caching must also lower the naive tree's waste (E2's gate).
#[test]
fn captures_equal_the_strict_stores_reads() {
    Spread::BOTH.into_iter().for_each(captures_equal_the_strict_stores_reads_on);
}

fn captures_equal_the_strict_stores_reads_on(spread: Spread) {
    let n = 100_000u64;
    let (raw, points) = uniform_points(n, spread);
    let store = PageStore::in_memory(PAGE_SIZE);
    // `run` answers with t; the query's wasteful reads come back.
    let counted = |what: &str, run: &dyn Fn() -> usize| {
        let ((t, trace), seen) = reads_of(&store, || pc_obs::traced(run));
        assert!(!trace.name.is_empty(), "{what}: no trace came back");
        let classes = trace.reads_by_class;
        let named: u64 = classes.iter().sum();
        assert_eq!(named, seen, "{what}: t={t}, the classes say {classes:?}, the store {seen}");
        assert_eq!(trace.total_io, seen, "{what}: t={t}, the span tree's reads");
        assert_eq!(trace.items, t as u64, "{what}: the span tree's items, {seen} reads");
        assert!(
            trace.search_ios + trace.wasteful_ios <= trace.total_io,
            "{what}: search {} + wasteful {} > total {}",
            trace.search_ios,
            trace.wasteful_ios,
            trace.total_io
        );
        trace.wasteful_ios
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
        let p = Point::new(p.y, p.x, spread.id(n + i as u64));
        dynamic.insert(&store, p).unwrap();
        dynamic_three_sided.insert(&store, p).unwrap();
    }
    macro_rules! two_sided {
        ($pst:ident) => {
            (stringify!($pst), &|q| $pst.query(&store, q).unwrap().len())
        };
    }
    type Counted<'a> = &'a dyn Fn(TwoSided) -> usize;
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
                counted(what, &|| query(spread.two_sided(q)));
            }
        }
        for q in gen_three_sided(&raw, 150, t, 0xfeed) {
            let q = spread.three_sided(&q);
            counted("3-sided", &|| three_sided.query(&store, q).unwrap().len());
            counted("dynamic 3-sided", &|| dynamic_three_sided.query(&store, q).unwrap().len());
        }
        let max_len = 2 * t as i64 * pc_workloads::DOMAIN / n as i64;
        let raw = gen_intervals(n as usize, IntervalDist::UniformLen { max_len }, 0x5eed);
        let tree = ExternalIntervalTree::build(&store, &spread.intervals(&raw)).unwrap();
        for stab in gen_stabbing(&raw, 150, 0xfeed) {
            counted("interval tree", &|| tree.stab(&store, spread.coord(stab.q)).unwrap().len());
        }
    }
    let n = 10_000u64;
    for t in [16i64, 500] {
        let max_len = 2 * t * pc_workloads::DOMAIN / n as i64;
        let raw = gen_intervals(n as usize, IntervalDist::UniformLen { max_len }, 0x5eed);
        let intervals = spread.intervals(&raw);
        let naive = NaiveSegmentTree::build(&store, &intervals).unwrap();
        let cached = CachedSegmentTree::build(&store, &intervals).unwrap();
        let mut waste = [0u64; 2];
        for stab in gen_stabbing(&raw, 150, 0xfeed) {
            let q = spread.coord(stab.q);
            waste[0] += counted("naive segment tree", &|| naive.stab(&store, q).unwrap().len());
            waste[1] += counted("cached segment tree", &|| cached.stab(&store, q).unwrap().len());
        }
        let [naive, cached] = waste;
        assert!(cached < naive, "{spread:?}, t≈{t}: cached waste {cached}, naive {naive}");
    }
}

// --- Full-width data, to the page and the read: 50 000 uniform points
// (intervals) stretched over all 64 bits, `(pages, reads, answers)` the
// reads and answers summed over the pinned query sets at t ≈ 16 and t ≈
// 4096. One test per engine; the wide case is the same code, so these move
// only with it.
//
// History. While every record was 24 bytes (25 in a cache), these were
// that layout's counts: basic 3361 / 5855, segmented 1553 / 5911,
// two-level 1452 / 5138, 3-level 2234 / 5402, dynamic 1562 / 6056, 3-sided
// 1581 / 5772 (dynamic 1582 / 6072), interval tree 1186 / 600 and 2824 /
// 1225 (pages / reads). Storing each structure at one byte width per field
// (a frame) held full-width data to exactly those counts; on the
// benchmark (seed 11) it took `page_reads_per_query` on `scan_warm` from
// 29.47 to 18.59, on the point workloads from 4.95 to 4.53, `space_amp`
// from 4.10 to 1.61, `pst.dyn_pages` / `pst.three_sided_pages` /
// `intervaltree.pages` from 16 420 / 17 694 / 2 916 to 5 904 / 6 430 /
// 1 038. Now each block carries its own bit widths (the block codec), and
// full-width data, whose ids still differ in their low bits
// only, holds ~240–260 records a block where 163–170 fit: the counts below
// are the codec's. A region tree's corner then came to answer from one
// block of its lists where that block holds every candidate, on 25-record
// skeletal pages: two-level 1087 / 4001, 3-level 1761 / 4245 and dynamic
// 1125 / 4701 before. The dynamic PST's root page came to keep the
// staircase of its `U` and a corner to read that `U` only where a step lay
// in it: 1119 / 4180 before. Points blocks and the last block of
// each 2-sided cache list came to ride in their skeletal pages' tails where
// they fit: basic 1657 / 4985, segmented 702 / 5025, two-level 1081 / 3664,
// 3-level 1755 / 3576, dynamic 1119 / 3973 before. The root's `U` came to
// be held in the dynamic PST's descriptor, on no page, and a corner to
// take only its ops in the corner (the staircase went): dynamic 1094 /
// 3973 before. ---

const WIDE_N: u64 = 50_000;

fn wide_two_sided<P: TwoSidedPst>(settle: impl Fn(&PageStore, &mut P), want: (u64, u64, usize)) {
    let (raw, points) = uniform_points(WIDE_N, Spread::Full);
    let store = PageStore::in_memory(PAGE_SIZE);
    let mut pst = P::build_on(&store, &points);
    settle(&store, &mut pst);
    let pages = store.live_pages();
    let (mut reads, mut answers) = (0, 0);
    for q in [16, 4096].into_iter().flat_map(|t| two_sided_corners(&raw, t)) {
        let (hits, read) = reads_of(&store, || pst.answers(&store, Spread::Full.two_sided(q)));
        (reads, answers) = (reads + read, answers + hits);
    }
    assert_eq!((pages, reads, answers), want);
}

/// The points the dynamic structures of the wide tests take after the build.
fn wide_inserts(count: usize) -> Vec<Point> {
    let fresh = gen_points(count, PointDist::Uniform, 0xc0de);
    Spread::Full.points(&fresh.iter().map(|&(x, y, id)| (x, y, WIDE_N + id)).collect::<Vec<_>>())
}

#[test]
fn wide_data_builds_the_fixed_width_single_level_psts() {
    wide_two_sided::<BasicPst>(|_, _| (), (1541, 4985, 567_930));
    wide_two_sided::<SegmentedPst>(|_, _| (), (641, 5025, 567_930));
}

#[test]
fn wide_data_builds_the_fixed_width_region_trees() {
    wide_two_sided::<TwoLevelPst>(|_, _| (), (1056, 3664, 567_930));
    wide_two_sided::<MultilevelPst>(|_, _| (), (1628, 3569, 567_930));
}

#[test]
fn wide_data_builds_the_fixed_width_dynamic_pst() {
    // 1 000 inserts: flushed regions, and `U` and `u` buffers on the path.
    let settle = |store: &PageStore, pst: &mut DynamicPst| {
        wide_inserts(1_000).into_iter().for_each(|p| pst.insert(store, p).unwrap());
    };
    wide_two_sided::<DynamicPst>(settle, (1093, 3880, 579_874));
}

#[test]
fn wide_data_builds_the_fixed_width_three_sided_psts() {
    let (raw, points) = uniform_points(WIDE_N, Spread::Full);
    let store = PageStore::in_memory(PAGE_SIZE);
    let pst = ThreeSidedPst::build(&store, &points).unwrap();
    let pages = store.live_pages();
    let dyn_store = PageStore::in_memory(PAGE_SIZE);
    let mut dynamic = DynamicThreeSidedPst::build(&dyn_store, &points).unwrap();
    wide_inserts(100).into_iter().for_each(|p| dynamic.insert(&dyn_store, p).unwrap());
    let dyn_pages = dyn_store.live_pages();
    dyn_store.reset_stats();
    let (mut reads, mut answers, mut dyn_answers) = (0, 0, 0);
    for q in [16, 4096].into_iter().flat_map(|t| gen_three_sided(&raw, 150, t, 0xfeed)) {
        let q = Spread::Full.three_sided(&q);
        let (hits, read) = reads_of(&store, || pst.query(&store, q).unwrap());
        (reads, answers) = (reads + read, answers + hits.len());
        dyn_answers += dynamic.query(&dyn_store, q).unwrap().len();
    }
    assert_eq!((pages, reads, answers), (1531, 3895, 616_808));
    assert_eq!((dyn_pages, dyn_store.stats().reads, dyn_answers), (1532, 4195, 618_051));
}

#[test]
fn wide_data_builds_the_fixed_width_interval_tree() {
    for (t, want) in [(16, (592, 449, 2_630)), (500, (1303, 1031, 74_957))] {
        let max_len = 2 * t * pc_workloads::DOMAIN / WIDE_N as i64;
        let raw = gen_intervals(WIDE_N as usize, IntervalDist::UniformLen { max_len }, 0x5eed);
        let store = PageStore::in_memory(PAGE_SIZE);
        let tree = ExternalIntervalTree::build(&store, &Spread::Full.intervals(&raw)).unwrap();
        let pages = store.live_pages();
        let (mut reads, mut answers) = (0, 0);
        for stab in gen_stabbing(&raw, 150, 0xfeed) {
            let (hits, ios) = reads_of(&store, || tree.stab(&store, Spread::Full.coord(stab.q)));
            let hits = hits.unwrap();
            (reads, answers) = (reads + ios, answers + hits.len());
        }
        assert_eq!((pages, reads, answers), want, "t≈{t}");
    }
}

/// The paper's Figure 3 pathology, read off the span tree: on the deepest
/// corners (empty output) the naive structure pays ~log n wasteful
/// transfers a query while the segmented (path-cached) one stays O(1).
#[test]
fn cached_queries_waste_less_than_naive() {
    let n = 200_000u64;
    let (_, points) = uniform_points(n, Spread::Domain);
    let store = PageStore::in_memory(PAGE_SIZE);
    let naive = NaivePst::build(&store, &points).unwrap();
    let segmented = SegmentedPst::build(&store, &points).unwrap();
    let waste = |what: &str, run: &dyn Fn(TwoSided)| -> u64 {
        // Just beyond the domain: empty output, deepest corner.
        (0..20)
            .map(|i| {
                let q = TwoSided { x0: pc_workloads::DOMAIN + 1 + i, y0: 0 };
                let ((), trace) = pc_obs::traced(|| run(q));
                assert_eq!(trace.name, what);
                trace.wasteful_ios
            })
            .sum()
    };
    let naive_waste = waste("pst2_naive", &|q| drop(naive.query(&store, q).unwrap()));
    let segmented_waste = waste("pst2_segmented", &|q| drop(segmented.query(&store, q).unwrap()));
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
    for spread in Spread::BOTH {
        let (b, after, fresh) = dynamic_churn_pages(spread);
        let factor = after as f64 / fresh as f64;
        assert!(
            factor <= DYNAMIC_CHURN_FACTOR[spread as usize],
            "{spread:?}, B={b}: {after} pages after churn, {fresh} fresh: factor {factor:.3}"
        );
    }
}

/// E10's rebuilding stream takes the flush's rebuild branch: inserts in
/// the root region's band grow its Y-list past twice its blocks, and the
/// root subtree is rebuilt at least once (a `dynpst_rebuild` span).
#[test]
fn a_band_of_inserts_rebuilds_the_dynamic_pst() {
    let (rebuilds, reads, writes) = band_rebuild_stream();
    assert!(rebuilds >= 1, "no rebuild: {reads} reads, {writes} writes");
}
