//! Shared utilities of the experiment harness: data spreads, the pinned
//! constants with their measurement functions, and the table printer.

use pc_btree::BTree;
use pc_intervaltree::ExternalIntervalTree;
use pc_pagestore::{Frame, Interval, PageStore, Point};
use pc_pst::{
    BasicPst, DynamicPst, MultilevelPst, NaivePst, PageCensus, SegmentedPst, ThreeSided,
    ThreeSidedPst, TwoLevelPst, TwoSided,
};
use pc_workloads::{
    gen_intervals, gen_points, gen_range_1d, gen_stabbing, gen_three_sided, gen_two_sided,
    IntervalDist, PointDist, RawInterval, RawPoint,
};

/// Converts generator output to storage points.
pub fn to_points(raw: &[RawPoint]) -> Vec<Point> {
    Spread::Domain.points(raw)
}

/// Converts generator output to storage intervals.
pub fn to_intervals(raw: &[RawInterval]) -> Vec<Interval> {
    Spread::Domain.intervals(raw)
}

/// Where a pinned measurement's data lies. The structures store records at
/// the narrowest [`Frame`] that holds them, so `B` follows the data:
/// [`Spread::Domain`] is the generators' own 20-bit coordinates (3/3/3 from
/// 65 536 ids on, `B` = 408 at 4 KiB); [`Spread::Full`] stretches the same
/// data over the whole of `i64`, ids from 2⁶³ up — every comparison, and so
/// every tree and answer, as before, at [`Frame::WIDE`] (`B` = 163, the
/// fixed 24-byte records every PR before frames measured).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Spread {
    /// The generated data as it is.
    Domain,
    /// The generated data stretched over the full 64 bits of every field.
    Full,
}

impl Spread {
    /// Both, in the order pins are indexed by (`spread as usize`).
    pub const BOTH: [Spread; 2] = [Spread::Domain, Spread::Full];

    /// Where the generated coordinate (or query bound) `v` goes: strictly
    /// increasing in `v`, `[0, DOMAIN]` onto `[-i64::MAX, i64::MAX]` nearly.
    pub fn coord(self, v: i64) -> i64 {
        let half = pc_workloads::DOMAIN / 2;
        match self {
            Spread::Domain => v,
            Spread::Full => (v.clamp(0, 2 * half) - half) * (i64::MAX / half),
        }
    }

    /// Where the generated id goes.
    pub fn id(self, id: u64) -> u64 {
        match self {
            Spread::Domain => id,
            Spread::Full => id + (1 << 63),
        }
    }

    /// Generator output as storage points.
    pub fn points(self, raw: &[RawPoint]) -> Vec<Point> {
        raw.iter()
            .map(|&(x, y, id)| Point::new(self.coord(x), self.coord(y), self.id(id)))
            .collect()
    }

    /// Generator output as storage intervals.
    pub fn intervals(self, raw: &[RawInterval]) -> Vec<Interval> {
        raw.iter()
            .map(|&(lo, hi, id)| Interval::new(self.coord(lo), self.coord(hi), self.id(id)))
            .collect()
    }

    /// A 2-sided corner over the generated data, over the stored data.
    pub fn two_sided(self, q: TwoSided) -> TwoSided {
        TwoSided { x0: self.coord(q.x0), y0: self.coord(q.y0) }
    }

    /// A 3-sided query over the generated data, over the stored data.
    pub fn three_sided(self, q: &pc_workloads::ThreeSidedQ) -> ThreeSided {
        ThreeSided { x1: self.coord(q.x1), x2: self.coord(q.x2), y0: self.coord(q.y0) }
    }
}

/// What the 2-sided PSTs have in common, for the measurements and tables
/// they share.
pub trait TwoSidedPst: Sized {
    /// Builds the structure over `points`.
    fn build_on(store: &PageStore, points: &[Point]) -> Self;
    /// The widths the structure stores its points at.
    fn stored_at(&self) -> Frame;
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
            fn stored_at(&self) -> Frame {
                self.frame()
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

/// A 2-sided PST's pinned constants at 4 KiB pages: `(c, [(t, c1); 2])`
/// with `pages <= c·unit(n)`, `unit` the structure's space bound in blocks,
/// and every query's `reads <= c1·⌈log_B n⌉ + 2·⌈t/B⌉` over
/// [`two_sided_corners`] at mean output `t`, `B` the
/// `pc_pst::block_capacity` of the frame the build chose — each the worst
/// over the sizes it is pinned at, 10% above the measurement (a tenth of a
/// read per level where that is 0 or less). Every `*_PINS` holds one pin per
/// [`Spread`], indexed by `spread as usize`; the [`Spread::Full`] ones are
/// the pins of the fixed 24-byte records, which full-width data must still
/// meet, held at one size ([`WIDE_PIN_SIZE`]) a structure.
/// `tests/layout_bounds.rs` asserts them and the `experiments` binary exits
/// non-zero past them.
pub type TwoSidedPin = (f64, [(usize, f64); 2]);

/// The one size the 2-sided structures' [`Spread::Full`] pins are held at.
pub const WIDE_PIN_SIZE: u64 = 20_000;

/// The sizes [`BASIC_PINS`], [`SEGMENTED_PINS`] and [`MULTILEVEL_PINS`] are
/// the worst over.
pub const LADDER_PIN_SIZES: [u64; 2] = [20_000, 100_000];

/// The sizes [`TWO_LEVEL_PINS`] is the worst over: the benchmark's among
/// them, and both ends of the ragged-last-level sawtooth (space in units is
/// highest at 20k).
pub const TWO_LEVEL_PIN_SIZES: [u64; 5] = [20_000, 50_000, 100_000, 250_000, 500_000];

/// Lemma 3.1, unit `(n/B)·log₂ n` ([`basic_constants`], E5). Measured c
/// 0.474 (n = 20k, `B` = 454), c1 1.00 / 2.00; on full-width data c 0.731
/// (n = 100k), c1 1.00 / 0.33.
pub const BASIC_PINS: [TwoSidedPin; 2] =
    [(0.522, [(16, 1.1), (4096, 2.2)]), (0.805, [(16, 1.1), (4096, 0.367)])];
/// Theorem 3.2, unit `(n/B)·log₂ B` ([`segmented_constants`], E6). Measured
/// c 0.446 (n = 20k), c1 2.00 / 2.00; on full-width data c 0.826 (n =
/// 100k), c1 2.00 / 0.00.
pub const SEGMENTED_PINS: [TwoSidedPin; 2] =
    [(0.491, [(16, 2.2), (4096, 2.2)]), (0.91, [(16, 2.2), (4096, 0.1)])];
/// The two-level PST's pinned space constant on the generators' data, in
/// units of `(n/B)·log₂log₂ B` pages: [`TWO_LEVEL_PINS`]' `c` there, which
/// E14's two-level row is held to as well. Measured 1.549 / 1.732 / 1.560 /
/// 1.520 / 1.545 over [`TWO_LEVEL_PIN_SIZES`] (`B` = 454 up to 50k, then
/// 408).
pub const TWO_LEVEL_SPACE_C: f64 = 1.906;
/// Theorems 4.3 and 5.1, unit `(n/B)·log₂log₂ B` ([`two_level_constants`],
/// E7). Measured c1 2.50 (n = 100k) / 0.00; on full-width data c 1.978 /
/// 1.644 / 1.644 / 1.831 / 1.860, c1 2.67 (n = 500k) / −2.00 (n = 250k).
pub const TWO_LEVEL_PINS: [TwoSidedPin; 2] =
    [(TWO_LEVEL_SPACE_C, [(16, 2.75), (4096, 0.1)]), (2.176, [(16, 2.94), (4096, -1.8)])];
/// Theorem 4.4 at three levels, unit `n/B` ([`multilevel_constants`], E8).
/// Measured c 7.667 (n = 20k), c1 3.00 / 0.00; on full-width data c 8.537
/// (n = 20k), c1 3.00 / −2.00.
pub const MULTILEVEL_PINS: [TwoSidedPin; 2] =
    [(8.434, [(16, 3.3), (4096, 0.1)]), (9.391, [(16, 3.3), (4096, -1.8)])];

/// One pinned measurement of a 2-sided PST: the `B` its build chose, its
/// pages, and `c` and `[c1; 2]` as [`TwoSidedPin`] defines them.
#[derive(Debug, Clone, Copy)]
pub struct TwoSidedConstants {
    /// `pc_pst::block_capacity` at the structure's frame.
    pub b: u64,
    /// Live pages after the build.
    pub pages: u64,
    /// `pages / unit(n)`.
    pub c: f64,
    /// Worst `(reads − 2·⌈t/B⌉) / ⌈log_B n⌉` at t ≈ 16 and t ≈ 4096.
    pub c1: [f64; 2],
}

/// Builds `P` over `n` uniform points, spread as `spread` says, at 4 KiB
/// pages and measures its [`TwoSidedConstants`], `unit` taking `(⌈n/B⌉, n,
/// B)`; each `c1` is the worst of 150 corners.
pub fn two_sided_constants<P: TwoSidedPst>(
    n: u64,
    spread: Spread,
    unit: impl Fn(f64, f64, f64) -> f64,
) -> TwoSidedConstants {
    let raw = gen_points(n as usize, PointDist::Uniform, 0x5eed);
    let store = PageStore::in_memory(4096);
    let pst = P::build_on(&store, &spread.points(&raw));
    let b = pc_pst::block_capacity(4096, pst.stored_at()) as u64;
    let pages = store.live_pages();
    let levels = log_base(n as f64, b as f64).ceil();
    let c1 = [16, 4096].map(|t| {
        two_sided_corners(&raw, t)
            .into_iter()
            .map(|q| {
                let (hits, reads) = pst.counted(&store, spread.two_sided(q));
                (reads as f64 - 2.0 * (hits as u64).div_ceil(b) as f64) / levels
            })
            .fold(f64::MIN, f64::max)
    });
    let c = pages as f64 / unit(n.div_ceil(b) as f64, n as f64, b as f64);
    TwoSidedConstants { b, pages, c, c1 }
}

/// [`BASIC_PINS`]' measurement at one size.
pub fn basic_constants(n: u64, spread: Spread) -> TwoSidedConstants {
    two_sided_constants::<BasicPst>(n, spread, |blocks, n, _| blocks * n.log2())
}

/// [`SEGMENTED_PINS`]' measurement at one size.
pub fn segmented_constants(n: u64, spread: Spread) -> TwoSidedConstants {
    two_sided_constants::<SegmentedPst>(n, spread, |blocks, _, b| blocks * b.log2())
}

/// [`TWO_LEVEL_PINS`]' measurement at one size.
pub fn two_level_constants(n: u64, spread: Spread) -> TwoSidedConstants {
    two_sided_constants::<TwoLevelPst>(n, spread, |blocks, _, b| blocks * b.log2().log2())
}

/// [`MULTILEVEL_PINS`]' measurement at one size.
pub fn multilevel_constants(n: u64, spread: Spread) -> TwoSidedConstants {
    two_sided_constants::<MultilevelPst>(n, spread, |blocks, _, _| blocks)
}

/// The dynamic PST's pinned space drift under churn, per [`Spread`]: after
/// [`dynamic_churn_pages`]' workload the structure takes at most this many
/// times the pages of a fresh build of what it then holds. Measured 1.316
/// (921 pages against 700, `B` = 408) and on full-width data 1.395 (2 025
/// against 1 452); the pins are 10% above. `tests/layout_bounds.rs` asserts
/// them and E10 exits non-zero past them.
pub const DYNAMIC_CHURN_FACTOR: [f64; 2] = [1.448, 1.535];

/// 20 000 insert/delete pairs on 50 000 uniform points at 4 KiB pages, the
/// victims taken from anywhere in the set, old or new: `(B, pages after,
/// pages of a fresh build of the same points)`. Ids start at 65 536 — three
/// bytes for the initial points and the inserted ones alike — so that no
/// insert widens the structure, which would rebuild the drift away.
pub fn dynamic_churn_pages(spread: Spread) -> (u64, u64, u64) {
    let n = 50_000u64;
    let with_ids_from = |first: u64, raw: Vec<RawPoint>| -> Vec<Point> {
        spread.points(&raw.into_iter().map(|(x, y, id)| (x, y, first + id)).collect::<Vec<_>>())
    };
    let mut live = with_ids_from(1 << 16, gen_points(n as usize, PointDist::Uniform, 0x5eed));
    let store = PageStore::in_memory(4096);
    let mut pst = DynamicPst::build(&store, &live).expect("in-memory build");
    let frame = pst.frame();
    let fresh = with_ids_from((1 << 16) + n, gen_points(20_000, PointDist::Uniform, 0xc0de));
    for (i, p) in fresh.into_iter().enumerate() {
        pst.insert(&store, p).expect("in-memory insert");
        live.push(p);
        let victim = live.swap_remove((i * 7919 + 13) % live.len());
        pst.delete(&store, victim).expect("in-memory delete");
    }
    assert_eq!((pst.len(), pst.frame()), (n, frame), "lost points, or widened");
    let rebuilt = PageStore::in_memory(4096);
    DynamicPst::build(&rebuilt, &live).expect("in-memory build");
    let b = pc_pst::block_capacity(4096, frame) as u64;
    (b, store.live_pages(), rebuilt.live_pages())
}

/// The interval tree's pinned constants at 4 KiB pages, per [`Spread`] and
/// per mean stab output `t`: `(t, c, c1)` with `pages <= c·(n/B)·log₂B` and
/// every stab's `reads <= c1·⌈log_B n⌉ + 2·⌈t/B⌉` over
/// [`interval_tree_constants`]' data, `B` the tree's
/// `pc_intervaltree::block_capacity`. Measured c 0.515 / 1.058 and c1 1.00
/// / 2.00 (`B` = 510: the same 3 and 6 reads past the output over two
/// levels, not three) and on full-width data (`B` = 170) c 0.555 / 0.979
/// and c1 0.667 / 1.333; the pins are 10% above. `tests/layout_bounds.rs`
/// asserts them and the `experiments` binary's E4 exits non-zero past them.
pub const INTERVAL_TREE_PINS: [[(i64, f64, f64); 2]; 2] =
    [[(16, 0.567, 1.1), (500, 1.165, 2.2)], [(16, 0.611, 0.734), (500, 1.08, 1.467)]];

/// Builds the pinned geometry — 40 000 uniform-length intervals meeting a
/// stab `t_mean` at a time, 4 KiB pages — and measures `(B, pages, c, c1)`
/// as [`INTERVAL_TREE_PINS`] defines them, `c1` over 300 stabs.
pub fn interval_tree_constants(t_mean: i64, spread: Spread) -> (u64, u64, f64, f64) {
    let n = 40_000u64;
    let max_len = 2 * t_mean * pc_workloads::DOMAIN / n as i64;
    let raw = gen_intervals(n as usize, IntervalDist::UniformLen { max_len }, 0x5eed);
    let store = PageStore::in_memory(4096);
    let tree =
        ExternalIntervalTree::build(&store, &spread.intervals(&raw)).expect("in-memory build");
    let b = pc_intervaltree::block_capacity(4096, tree.frame()) as u64;
    let levels = log_base(n as f64, b as f64).ceil();
    let c1 = gen_stabbing(&raw, 300, 0xfeed)
        .iter()
        .map(|stab| {
            let (hits, reads) =
                tree.stab_with_ios(&store, spread.coord(stab.q)).expect("in-memory stab");
            (reads as f64 - 2.0 * (hits.len() as u64).div_ceil(b) as f64) / levels
        })
        .fold(f64::MIN, f64::max);
    let pages = store.live_pages();
    (b, pages, pages as f64 / (n.div_ceil(b) as f64 * (b as f64).log2()), c1)
}

/// One pinned size of [`THREE_SIDED_PINS`]: `(n, c, [(t, c1); 2])`.
pub type ThreeSidedPin = (u64, f64, [(usize, f64); 2]);

/// The 3-sided PST's pinned constants at 4 KiB pages, per [`Spread`] and
/// per pinned size: `(n, c, [(t, c1); 2])` with `pages <= c·(n/B)·log₂²B`
/// and every query's `reads <= c1·⌈log_B n⌉ + 2·⌈t/B⌉` at mean output `t`,
/// over [`three_sided_constants`]' data, `B` the census's. Space is a
/// sawtooth in `n` — a node costs its ancestors' blocks however few points
/// it holds — so the sizes are its peak (15 full nodes and 16 leaves of one
/// point: 47 686 at `B` = 454, 17 131 at `B` = 163), the small size E9 and
/// E11 run at, and 100k, where the tree spans two levels of skeletal
/// pages. Measured c 0.143 / 0.050 / 0.079 and c1 1.50 / 0.50 / 1.50 at t ≈
/// 16, 2.00 / −2.50 / 0.50 at t ≈ 4096 — ten blocks of output from nodes of
/// seven blocks each, where a query pays per node it meets only the partial
/// blocks its runs and Y-prefixes end in, and reads fewer than the `2·⌈t/B⌉`
/// the form allows for its output — and on full-width data, at its peak, c
/// 0.206 and c1 1.50 / −4.00; the pins are 10% above (of its size, for a
/// negative `c1`). `tests/layout_bounds.rs` asserts them and the
/// `experiments` binary's E9 exits non-zero past them.
pub const THREE_SIDED_PINS: [&[ThreeSidedPin]; 2] = [
    &[
        (47_686, 0.158, [(16, 1.65), (4096, 2.2)]),
        (20_000, 0.055, [(16, 0.55), (4096, -2.25)]),
        (100_000, 0.087, [(16, 1.65), (4096, 0.55)]),
    ],
    &[(17_131, 0.227, [(16, 1.65), (4096, -3.6)])],
];

/// Builds a pinned geometry — `n` uniform points, spread as `spread` says,
/// 4 KiB pages — and measures `(page census, c, [c1; 2])` as
/// [`THREE_SIDED_PINS`] defines them, each `c1` the worst of 150 queries.
pub fn three_sided_constants(n: u64, spread: Spread) -> (PageCensus, f64, [f64; 2]) {
    let raw = gen_points(n as usize, PointDist::Uniform, 0x5eed);
    let store = PageStore::in_memory(4096);
    let pst = ThreeSidedPst::build(&store, &spread.points(&raw)).expect("in-memory build");
    let census = pst.page_census(&store).expect("in-memory walk");
    assert_eq!(census.total(), store.live_pages(), "the census misses a class of pages");
    let b = census.block_capacity;
    let levels = log_base(n as f64, b as f64).ceil();
    let c1 = [16, 4096].map(|t| {
        gen_three_sided(&raw, 150, t, 0xfeed)
            .iter()
            .map(|q| {
                let q = spread.three_sided(q);
                let (hits, counters) = pst.query_counted(&store, q).expect("in-memory query");
                let output = 2.0 * (hits.len() as u64).div_ceil(b) as f64;
                (counters.total() as f64 - output) / levels
            })
            .fold(f64::MIN, f64::max)
    });
    let unit = n.div_ceil(b) as f64 * (b as f64).log2().powi(2);
    (census, census.total() as f64 / unit, c1)
}

/// One pinned size of [`BTREE_PINS`]: `(n, c, [(t, c1); 2])`.
pub type BTreePin = (u64, f64, [(usize, f64); 2]);

/// The B+-tree's pinned constants at 4 KiB pages (§1's bar), per [`Spread`]
/// and per pinned size: `(n, c, [(t, c1); 2])` with `pages <= c·⌈n/B⌉` and
/// every range query's `reads <= c1·⌈log_B n⌉ + ⌈t/B⌉` at mean output `t`,
/// over [`btree_constants`]' data, `B` the tree's `pc_btree::leaf_capacity`
/// at its frame. Measured c 1.077 / 1.007 / 1.003 (`B` = 815 at 10k, whose
/// ranks take two bytes, then 679) and on full-width data 1.025 / 1.008 /
/// 1.004 (`B` = 254), c1 1.00 at every size, spread and `t`: a bulk-built
/// tree reads its descent and the leaves its output spans; the pins are 10%
/// above. `tests/layout_bounds.rs` asserts the sizes up to 100 000 and the
/// `experiments` binary's E1 exits non-zero past any of them.
pub const BTREE_PINS: [&[BTreePin]; 2] = [
    &[
        (10_000, 1.185, [(16, 1.1), (4096, 1.1)]),
        (100_000, 1.108, [(16, 1.1), (4096, 1.1)]),
        (1_000_000, 1.104, [(16, 1.1), (4096, 1.1)]),
    ],
    &[
        (10_000, 1.128, [(16, 1.1), (4096, 1.1)]),
        (100_000, 1.109, [(16, 1.1), (4096, 1.1)]),
        (1_000_000, 1.105, [(16, 1.1), (4096, 1.1)]),
    ],
];

/// Bulk-builds a B-tree of `n` keys spaced evenly over the generators'
/// domain, spread as `spread` says, each mapped to its rank, at 4 KiB pages,
/// and measures `(B, pages, c, [c1; 2])` as [`BTREE_PINS`] defines them,
/// each `c1` the worst of 150 ranges.
pub fn btree_constants(n: u64, spread: Spread) -> (u64, u64, f64, [f64; 2]) {
    let step = pc_workloads::DOMAIN / n as i64;
    let keys: Vec<i64> = (0..n as i64).map(|i| spread.coord(i * step)).collect();
    let entries: Vec<(i64, u64)> = keys.iter().zip(0..).map(|(&k, i)| (k, spread.id(i))).collect();
    let store = PageStore::in_memory(4096);
    let tree = BTree::bulk_build(&store, &entries).expect("in-memory build");
    let b = pc_btree::leaf_capacity(4096, tree.frame()) as u64;
    let pages = store.live_pages();
    let levels = log_base(n as f64, b as f64).ceil();
    let c1 = [16, 4096].map(|t| {
        gen_range_1d(&keys, 150, t, 0xfeed)
            .iter()
            .map(|q| {
                let before = store.stats();
                let hits = tree.range(&store, &q.lo, &q.hi).expect("in-memory range");
                let reads = (store.stats() - before).logical_reads();
                (reads as f64 - (hits.len() as u64).div_ceil(b) as f64) / levels
            })
            .fold(f64::MIN, f64::max)
    });
    (b, pages, pages as f64 / n.div_ceil(b) as f64, c1)
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
