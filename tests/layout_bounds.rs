//! The static structures' footprint and per-query reads as assertions
//! (the paper's table, Theorems 3.3 and 3.5): at 4 KiB pages and a fixed
//! seed, `pages <= c·(n/B)·f(B)` and `reads <= c1·ceil(log_B n) +
//! 2·ceil(t/B)`. `c` and `c1` are pinned 10% above what the layouts
//! measure, so a layout regression fails here instead of moving a table.

use path_caching::{Interval, PageStore, Point, ThreeSided};
use pc_intervaltree::ExternalIntervalTree;
use pc_pst::ThreeSidedPst;
use pc_workloads::{
    gen_intervals, gen_points, gen_stabbing, gen_three_sided, IntervalDist, PointDist, DOMAIN,
};

const PAGE_SIZE: usize = 4096;
/// 24-byte points and intervals per 4 KiB block.
const B: u64 = 170;

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
fn assert_reads_within(reads: u64, n: u64, t: usize, c1: f64, what: &str) {
    let allowed = c1 * ceil_log(B, n) as f64 + 2.0 * (t as u64).div_ceil(B) as f64;
    assert!(reads as f64 <= allowed, "{what}: {reads} reads for t={t}, allowed {allowed:.1}");
}

fn assert_pages_within(pages: u64, unit: f64, c: f64, what: &str) {
    assert!(pages as f64 <= c * unit, "{what}: {pages} pages is {:.3} units", pages as f64 / unit);
}

#[test]
fn interval_tree_space_and_stab_reads_stay_within_pinned_constants() {
    let n = 40_000u64;
    // Stabs meeting ~16 intervals (measured c = 1.628, c1 = 2.00), then ~3
    // blocks of them (c = 2.165, c1 = 2.67).
    for (t_mean, c, c1) in [(16, 1.79, 2.2), (500, 2.38, 2.93)] {
        let max_len = 2 * t_mean * DOMAIN / n as i64;
        let raw = gen_intervals(n as usize, IntervalDist::UniformLen { max_len }, 0x5eed);
        let intervals: Vec<Interval> =
            raw.iter().map(|&(lo, hi, id)| Interval::new(lo, hi, id)).collect();
        let store = PageStore::in_memory(PAGE_SIZE);
        let tree = ExternalIntervalTree::build(&store, &intervals).unwrap();

        let unit = n.div_ceil(B) as f64 * (B as f64).log2();
        assert_pages_within(store.live_pages(), unit, c, "(n/B)·log2 B");
        for stab in gen_stabbing(&raw, 300, 0xfeed) {
            let (hits, reads) = tree.stab_with_ios(&store, stab.q).unwrap();
            assert_reads_within(reads, n, hits.len(), c1, "stab");
        }
    }
}

#[test]
fn three_sided_pst_space_and_query_reads_stay_within_pinned_constants() {
    let n = 100_000u64;
    let raw = gen_points(n as usize, PointDist::Uniform, 0x5eed);
    let points: Vec<Point> = raw.iter().map(|&(x, y, id)| Point::new(x, y, id)).collect();
    let store = PageStore::in_memory(PAGE_SIZE);
    let pst = ThreeSidedPst::build(&store, &points).unwrap();

    // Measured c = 0.496.
    let unit = n.div_ceil(B) as f64 * (B as f64).log2().powi(2);
    assert_pages_within(store.live_pages(), unit, 0.545, "(n/B)·log2² B");
    // Measured c1 = 4.00 at t ≈ 16 and 6.00 at t ≈ 4096.
    for (t, c1) in [(16, 4.4), (4096, 6.6)] {
        for q in gen_three_sided(&raw, 150, t, 0xfeed) {
            let q = ThreeSided { x1: q.x1, x2: q.x2, y0: q.y0 };
            let (hits, counters) = pst.query_counted(&store, q).unwrap();
            assert_reads_within(counters.total(), n, hits.len(), c1, "3-sided");
        }
    }
}
