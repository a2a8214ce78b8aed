//! Shared utilities for the experiment harness and timing benches.

use pc_intervaltree::ExternalIntervalTree;
use pc_pagestore::{Interval, PageStore, Point};
use pc_pst::{
    BasicPst, DynamicPst, MultilevelPst, NaivePst, PageCensus, SegmentedPst, ThreeSided,
    ThreeSidedPst, TwoLevelPst, TwoSided,
};
use pc_workloads::{
    gen_intervals, gen_points, gen_stabbing, gen_three_sided, gen_two_sided, IntervalDist,
    PointDist, RawInterval, RawPoint,
};

/// Converts generator output to storage points.
pub fn to_points(raw: &[RawPoint]) -> Vec<Point> {
    raw.iter().map(|&(x, y, id)| Point::new(x, y, id)).collect()
}

/// Converts generator output to storage intervals.
pub fn to_intervals(raw: &[RawInterval]) -> Vec<Interval> {
    raw.iter().map(|&(lo, hi, id)| Interval::new(lo, hi, id)).collect()
}

/// What the 2-sided PSTs have in common, for the measurements and tables
/// they share.
pub trait TwoSidedPst: Sized {
    /// Builds the structure over `points`.
    fn build_on(store: &PageStore, points: &[Point]) -> Self;
    /// Answers `q`: the answer's size and the page reads by the structure's
    /// own counters.
    fn counted(&self, store: &PageStore, q: TwoSided) -> (usize, u64);
}

macro_rules! two_sided_pst {
    ($t:ty $(, $levels:expr)?) => {
        impl TwoSidedPst for $t {
            fn build_on(store: &PageStore, points: &[Point]) -> Self {
                <$t>::build(store, points $(, $levels)?).expect("in-memory build")
            }
            fn counted(&self, store: &PageStore, q: TwoSided) -> (usize, u64) {
                let (hits, counters) = self.query_counted(store, q).expect("in-memory query");
                (hits.len(), counters.total())
            }
        }
    };
}
two_sided_pst!(NaivePst);
two_sided_pst!(BasicPst);
two_sided_pst!(SegmentedPst);
two_sided_pst!(TwoLevelPst);
two_sided_pst!(MultilevelPst, 3);
two_sided_pst!(DynamicPst);

/// 2-sided corners with about `t` answers. The generator's corners all sit
/// in the plane's top-right, inside the root region. A corner with only
/// `r` points to its right lies the deeper the smaller `r` is, so `r` = t,
/// 2t, 3t, … walks paths of every length at the same output size.
pub fn two_sided_corners(raw: &[RawPoint], t: usize) -> Vec<TwoSided> {
    let mut by_x_desc = raw.to_vec();
    by_x_desc.sort_unstable_by_key(|&(x, y, id)| std::cmp::Reverse((x, y, id)));
    let top_right = gen_two_sided(raw, 50, t, 0xfeed).into_iter().map(|q| (q.x0, q.y0));
    // The t largest ys among the points taken so far, the smallest on top.
    let mut top_ys = std::collections::BinaryHeap::new();
    let mut taken = 0;
    let deep = (1..=100usize).map(|i| {
        let upto = (i * t).min(by_x_desc.len());
        for p in &by_x_desc[taken..upto] {
            top_ys.push(std::cmp::Reverse(p.1));
            if top_ys.len() > t {
                top_ys.pop();
            }
        }
        taken = upto;
        let std::cmp::Reverse(y0) = *top_ys.peek().expect("t >= 1 points taken");
        (by_x_desc[upto - 1].0, y0)
    });
    top_right.chain(deep).map(|(x0, y0)| TwoSided { x0, y0 }).collect()
}

/// A 2-sided PST's pinned constants at 4 KiB pages (`B` =
/// `pc_pst::block_capacity`, 163): `(c, [(t, c1); 2])` with `pages <=
/// c·unit(n)`, `unit` the structure's space bound in blocks, and every
/// query's `reads <= c1·⌈log_B n⌉ + 2·⌈t/B⌉` over [`two_sided_corners`] at
/// mean output `t` — each the worst over the sizes it is pinned at, 10%
/// above the measurement (a tenth of a read per level where that is 0 or
/// less). `tests/layout_bounds.rs` asserts them and the `experiments`
/// binary exits non-zero past them.
pub type TwoSidedPin = (f64, [(usize, f64); 2]);

/// The sizes [`BASIC_PINS`], [`SEGMENTED_PINS`] and [`MULTILEVEL_PINS`] are
/// the worst over.
pub const LADDER_PIN_SIZES: [u64; 2] = [20_000, 100_000];

/// The sizes [`TWO_LEVEL_PINS`] is the worst over: the benchmark's among
/// them, and both ends of the ragged-last-level sawtooth (space in units is
/// highest at 20k).
pub const TWO_LEVEL_PIN_SIZES: [u64; 5] = [20_000, 50_000, 100_000, 250_000, 500_000];

/// Lemma 3.1, unit `(n/B)·log₂ n` ([`basic_constants`], E5). Measured c
/// 0.731 (n = 100k), c1 1.00 / 0.33.
pub const BASIC_PINS: TwoSidedPin = (0.805, [(16, 1.1), (4096, 0.367)]);
/// Theorem 3.2, unit `(n/B)·log₂ B` ([`segmented_constants`], E6). Measured
/// c 0.826 (n = 100k), c1 2.00 / 0.00.
pub const SEGMENTED_PINS: TwoSidedPin = (0.91, [(16, 2.2), (4096, 0.1)]);
/// The two-level PST's pinned space constant, in units of `(n/B)·log₂log₂ B`
/// pages: [`TWO_LEVEL_PINS`]' `c`, which E14's two-level row is held to as
/// well. Measured 1.978 / 1.644 / 1.644 / 1.831 / 1.860 over
/// [`TWO_LEVEL_PIN_SIZES`].
pub const TWO_LEVEL_SPACE_C: f64 = 2.176;
/// Theorems 4.3 and 5.1, unit `(n/B)·log₂log₂ B` ([`two_level_constants`],
/// E7). Measured c1 2.67 (n = 500k) / −2.00 (n = 250k).
pub const TWO_LEVEL_PINS: TwoSidedPin = (TWO_LEVEL_SPACE_C, [(16, 2.94), (4096, -1.8)]);
/// Theorem 4.4 at three levels, unit `n/B` ([`multilevel_constants`], E8).
/// Measured c 8.537 (n = 20k), c1 3.00 / −2.00.
pub const MULTILEVEL_PINS: TwoSidedPin = (9.391, [(16, 3.3), (4096, -1.8)]);

/// Builds `P` over `n` uniform points at 4 KiB pages and measures `(pages,
/// c, [c1; 2])` as [`TwoSidedPin`] defines them, `unit` taking `(⌈n/B⌉, n,
/// B)`; each `c1` is the worst of 150 corners.
pub fn two_sided_constants<P: TwoSidedPst>(
    n: u64,
    unit: impl Fn(f64, f64, f64) -> f64,
) -> (u64, f64, [f64; 2]) {
    let b = pc_pst::block_capacity(4096) as u64;
    let raw = gen_points(n as usize, PointDist::Uniform, 0x5eed);
    let store = PageStore::in_memory(4096);
    let pst = P::build_on(&store, &to_points(&raw));
    let pages = store.live_pages();
    let levels = log_base(n as f64, b as f64).ceil();
    let c1 = [16, 4096].map(|t| {
        two_sided_corners(&raw, t)
            .into_iter()
            .map(|q| {
                let (hits, reads) = pst.counted(&store, q);
                (reads as f64 - 2.0 * (hits as u64).div_ceil(b) as f64) / levels
            })
            .fold(f64::MIN, f64::max)
    });
    (pages, pages as f64 / unit(n.div_ceil(b) as f64, n as f64, b as f64), c1)
}

/// [`BASIC_PINS`]' measurement at one size.
pub fn basic_constants(n: u64) -> (u64, f64, [f64; 2]) {
    two_sided_constants::<BasicPst>(n, |blocks, n, _| blocks * n.log2())
}

/// [`SEGMENTED_PINS`]' measurement at one size.
pub fn segmented_constants(n: u64) -> (u64, f64, [f64; 2]) {
    two_sided_constants::<SegmentedPst>(n, |blocks, _, b| blocks * b.log2())
}

/// [`TWO_LEVEL_PINS`]' measurement at one size.
pub fn two_level_constants(n: u64) -> (u64, f64, [f64; 2]) {
    two_sided_constants::<TwoLevelPst>(n, |blocks, _, b| blocks * b.log2().log2())
}

/// [`MULTILEVEL_PINS`]' measurement at one size.
pub fn multilevel_constants(n: u64) -> (u64, f64, [f64; 2]) {
    two_sided_constants::<MultilevelPst>(n, |blocks, _, _| blocks)
}

/// The dynamic PST's pinned space drift under churn: after
/// [`dynamic_churn_factor`]'s workload the structure takes at most this many
/// times the pages of a fresh build of what it then holds. Measured 1.395
/// (2 025 pages against 1 452); the pin is 10% above.
/// `tests/layout_bounds.rs` asserts it and E10 exits non-zero past it.
pub const DYNAMIC_CHURN_FACTOR: f64 = 1.535;

/// 20 000 insert/delete pairs on 50 000 uniform points at 4 KiB pages, the
/// victims taken from anywhere in the set, old or new: `(pages after, pages
/// of a fresh build of the same points)`.
pub fn dynamic_churn_pages() -> (u64, u64) {
    let n = 50_000u64;
    let mut live = to_points(&gen_points(n as usize, PointDist::Uniform, 0x5eed));
    let store = PageStore::in_memory(4096);
    let mut pst = DynamicPst::build(&store, &live).expect("in-memory build");
    for (i, &(x, y, id)) in gen_points(20_000, PointDist::Uniform, 0xc0de).iter().enumerate() {
        let p = Point::new(x, y, n + id);
        pst.insert(&store, p).expect("in-memory insert");
        live.push(p);
        let victim = live.swap_remove((i * 7919 + 13) % live.len());
        pst.delete(&store, victim).expect("in-memory delete");
    }
    assert_eq!(pst.len(), n);
    let rebuilt = PageStore::in_memory(4096);
    DynamicPst::build(&rebuilt, &live).expect("in-memory build");
    (store.live_pages(), rebuilt.live_pages())
}

/// The interval tree's pinned constants at 4 KiB pages (`B` = 170
/// intervals): per mean stab output `t`, `(t, c, c1)` with `pages <=
/// c·(n/B)·log₂B` and every stab's `reads <= c1·⌈log_B n⌉ + 2·⌈t/B⌉` over
/// [`interval_tree_constants`]' data. Measured c 0.555 / 0.979 and c1
/// 0.667 / 1.333; the pins are 10% above. `tests/layout_bounds.rs` asserts
/// them and the `experiments` binary's E4 exits non-zero past them.
pub const INTERVAL_TREE_PINS: [(i64, f64, f64); 2] = [(16, 0.611, 0.734), (500, 1.08, 1.467)];

/// Builds the pinned geometry — 40 000 uniform-length intervals meeting a
/// stab `t_mean` at a time, 4 KiB pages — and measures `(pages, c, c1)` as
/// [`INTERVAL_TREE_PINS`] defines them, `c1` over 300 stabs.
pub fn interval_tree_constants(t_mean: i64) -> (u64, f64, f64) {
    let (n, b) = (40_000u64, 170u64);
    let max_len = 2 * t_mean * pc_workloads::DOMAIN / n as i64;
    let raw = gen_intervals(n as usize, IntervalDist::UniformLen { max_len }, 0x5eed);
    let store = PageStore::in_memory(4096);
    let tree = ExternalIntervalTree::build(&store, &to_intervals(&raw)).expect("in-memory build");
    let levels = log_base(n as f64, b as f64).ceil();
    let c1 = gen_stabbing(&raw, 300, 0xfeed)
        .iter()
        .map(|stab| {
            let (hits, reads) = tree.stab_with_ios(&store, stab.q).expect("in-memory stab");
            (reads as f64 - 2.0 * (hits.len() as u64).div_ceil(b) as f64) / levels
        })
        .fold(f64::MIN, f64::max);
    let pages = store.live_pages();
    (pages, pages as f64 / (n.div_ceil(b) as f64 * (b as f64).log2()), c1)
}

/// One pinned size of [`THREE_SIDED_PINS`]: `(n, c, [(t, c1); 2])`.
pub type ThreeSidedPin = (u64, f64, [(usize, f64); 2]);

/// The 3-sided PST's pinned constants at 4 KiB pages (`B` =
/// `pc_pst::block_capacity`, 163), per pinned size: `(n, c, [(t, c1); 2])`
/// with `pages <= c·(n/B)·log₂²B` and every query's `reads <=
/// c1·⌈log_B n⌉ + 2·⌈t/B⌉` at mean output `t`, over
/// [`three_sided_constants`]' data. Space is a sawtooth in `n` — a node
/// costs its ancestors' blocks however few points it holds — so the sizes
/// are its peak (15 full nodes and 16 leaves of one point: 17 131), the
/// small size E9 and E11 run at, and 100k, where the tree spans two levels
/// of skeletal pages. Measured c 0.206 / 0.183 / 0.086 and c1 1.50 / 2.00 /
/// 3.00 at t ≈ 16, 1.00 / −2.00 / 0.00 at t ≈ 4096; the pins are 10% above
/// (a tenth of a read per level above the 0.00). `tests/layout_bounds.rs`
/// asserts them and the `experiments` binary's E9 exits non-zero past them.
pub const THREE_SIDED_PINS: [ThreeSidedPin; 3] = [
    (17_131, 0.227, [(16, 1.65), (4096, 1.1)]),
    (20_000, 0.201, [(16, 2.2), (4096, -1.8)]),
    (100_000, 0.095, [(16, 3.3), (4096, 0.1)]),
];

/// Builds a pinned geometry — `n` uniform points, 4 KiB pages — and
/// measures `(page census, c, [c1; 2])` as [`THREE_SIDED_PINS`] defines
/// them, each `c1` the worst of 150 queries.
pub fn three_sided_constants(n: u64) -> (PageCensus, f64, [f64; 2]) {
    let b = pc_pst::block_capacity(4096) as u64;
    let raw = gen_points(n as usize, PointDist::Uniform, 0x5eed);
    let store = PageStore::in_memory(4096);
    let pst = ThreeSidedPst::build(&store, &to_points(&raw)).expect("in-memory build");
    let levels = log_base(n as f64, b as f64).ceil();
    let c1 = [16, 4096].map(|t| {
        gen_three_sided(&raw, 150, t, 0xfeed)
            .iter()
            .map(|q| {
                let q = ThreeSided { x1: q.x1, x2: q.x2, y0: q.y0 };
                let (hits, counters) = pst.query_counted(&store, q).expect("in-memory query");
                let output = 2.0 * (hits.len() as u64).div_ceil(b) as f64;
                (counters.total() as f64 - output) / levels
            })
            .fold(f64::MIN, f64::max)
    });
    let census = pst.page_census(&store).expect("in-memory walk");
    assert_eq!(census.total(), store.live_pages(), "the census misses a class of pages");
    let unit = n.div_ceil(b) as f64 * (b as f64).log2().powi(2);
    (census, census.total() as f64 / unit, c1)
}

/// Simple fixed-width markdown table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Prints the table as GitHub-flavored markdown.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect();
            println!("| {} |", padded.join(" | "));
        };
        line(&self.headers);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("|-{}-|", sep.join("-|-"));
        for row in &self.rows {
            line(row);
        }
        println!();
    }
}

/// `log_base(n)`, at least 1 — the predicted navigation term.
pub fn log_base(n: f64, base: f64) -> f64 {
    (n.max(2.0).ln() / base.max(2.0).ln()).max(1.0)
}

/// Formats a float to one decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a float to two decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}
