//! Shared utilities of the experiment harness: data spreads, the pinned
//! constants with their measurement functions, and the table printer.

use pc_btree::BTree;
use pc_intervaltree::ExternalIntervalTree;
use pc_pagestore::layout::cut;
use pc_pagestore::{Interval, PageStore, Point};
use pc_pst::{
    BasicPst, DynamicPst, MultilevelPst, NaivePst, PageCensus, SegmentedPst, ThreeSided,
    ThreeSidedPst, TwoLevelPst, TwoSided,
};
use pc_segtree::CachedSegmentTree;
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

/// Where a pinned measurement's data lies. The structures store records in
/// the block codec, each block at its own bit widths, so `B` follows the
/// data: [`Spread::Domain`] is the generators' own 20-bit coordinates
/// (`B` ≈ 700 points at 4 KiB); [`Spread::Full`] stretches the same data
/// over the whole of `i64`, ids from 2⁶³ up — every comparison, and so
/// every tree and answer, as on the generators' data, at the widest blocks
/// (`B` ≈ 190: the ids still differ in their low bits only).
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

/// `B` as `points` set it: their mean count a block of `page_size` bytes,
/// blocked in descending `y` — a node's order.
pub fn points_block(points: &[Point], page_size: usize) -> u64 {
    let mut by_y = points.to_vec();
    by_y.sort_unstable_by_key(|p| std::cmp::Reverse((p.y, p.x, p.id)));
    (by_y.len() / cut(&by_y, page_size).len().max(1)).max(1) as u64
}

/// What `f` returns, with the reads it cost `store` (pool hits included):
/// the totals every pin is stated in, taken from the store itself.
pub fn reads_of<T>(store: &PageStore, f: impl FnOnce() -> T) -> (T, u64) {
    let before = store.stats();
    let out = f();
    (out, (store.stats() - before).logical_reads())
}

/// What the 2-sided PSTs have in common, for the measurements and tables
/// they share.
pub trait TwoSidedPst: Sized {
    /// Builds the structure over `points`.
    fn build_on(store: &PageStore, points: &[Point]) -> Self;
    /// Answers `q`: the answer's size.
    fn answers(&self, store: &PageStore, q: TwoSided) -> usize;
}

macro_rules! two_sided_pst {
    ($t:ty $(, $levels:expr)?) => {
        impl TwoSidedPst for $t {
            fn build_on(store: &PageStore, points: &[Point]) -> Self {
                <$t>::build(store, points $(, $levels)?).expect("in-memory build")
            }
            fn answers(&self, store: &PageStore, q: TwoSided) -> usize {
                self.query(store, q).expect("in-memory query").len()
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
/// [`two_sided_corners`] at mean output `t`, `B` the data's
/// ([`points_block`]) — each the worst
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
/// 0.736 (n = 100k, `B` = 740), c1 1.00 / 2.50; on full-width data (`B` =
/// 243) c 0.626, c1 1.00 / 1.50. With the block codec `B` follows the data
/// (E5's `B` was 454 / 163 at the fixed-count layout, c 0.474 / 0.731, c1
/// 1.00 / 2.00 and 1.00 / 0.33): a unit of `n/B` blocks is fewer blocks,
/// and a full-path cache merges its sources' records into blocks of its own
/// (DESIGN §4.5).
pub const BASIC_PINS: [TwoSidedPin; 2] =
    [(0.81, [(16, 1.1), (4096, 2.75)]), (0.805, [(16, 1.1), (4096, 1.65)])];
/// Theorem 3.2, unit `(n/B)·log₂ B` ([`segmented_constants`], E6). Measured
/// c 0.579 (n = 100k), c1 2.00 / 2.50; on full-width data c 0.491, c1
/// 2.00 / 2.00 (at the fixed-count layout c 0.446 / 0.826, c1 2.00 / 2.00
/// and 2.00 / 0.00).
pub const SEGMENTED_PINS: [TwoSidedPin; 2] =
    [(0.637, [(16, 2.2), (4096, 2.75)]), (0.91, [(16, 2.2), (4096, 2.2)])];
/// The two-level PST's pinned space constant on the generators' data, in
/// units of `(n/B)·log₂log₂ B` pages: [`TWO_LEVEL_PINS`]' `c` there, which
/// E14's two-level row is held to as well. Measured 1.711 / 1.689 / 1.797 /
/// 1.923 / 1.936 over [`TWO_LEVEL_PIN_SIZES`] (`B` = 714 to 748; 1.549 /
/// 1.732 / 1.560 / 1.520 / 1.545 at the fixed-count layout's 454 and 408,
/// the pages falling by a quarter and `n/B` by two fifths).
pub const TWO_LEVEL_SPACE_C: f64 = 2.13;
/// Theorems 4.3 and 5.1, unit `(n/B)·log₂log₂ B` ([`two_level_constants`],
/// E7). Measured c1 2.00 (n = 250k) / 1.50: `⌈log_B n⌉` is 2 levels where it
/// was 3, so the same few reads past the output are more per level (2.50 /
/// 0.00 at the fixed-count layout); on full-width data (`B` = 243) c 2.029,
/// c1 0.50 / −1.50. A corner region answers from one block of its lists
/// where that block holds every candidate: t ≈ 16's c1 was 3.00 / 1.50
/// when every corner asked its inner tree.
pub const TWO_LEVEL_PINS: [TwoSidedPin; 2] =
    [(TWO_LEVEL_SPACE_C, [(16, 2.2), (4096, 1.65)]), (2.176, [(16, 0.55), (4096, -1.35)])];
/// Theorem 4.4 at three levels, unit `n/B` ([`multilevel_constants`], E8).
/// Measured c 8.684 (n = 100k), c1 1.50 / 2.00; on full-width data c 8.494,
/// c1 0.50 / −1.50 (3.00 and 2.50 at t ≈ 16 before a corner region answered
/// from one block of its lists; at the fixed-count layout c 7.667 / 8.537,
/// c1 3.00 / 0.00 and 3.00 / −2.00).
pub const MULTILEVEL_PINS: [TwoSidedPin; 2] =
    [(9.6, [(16, 1.65), (4096, 2.2)]), (9.391, [(16, 0.55), (4096, -1.35)])];

/// One pinned measurement of a 2-sided PST: the data's `B`, its pages, and
/// `c` and `[c1; 2]` as [`TwoSidedPin`] defines them.
#[derive(Debug, Clone, Copy)]
pub struct TwoSidedConstants {
    /// [`points_block`] of the data at 4 KiB.
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
    let points = spread.points(&raw);
    let pst = P::build_on(&store, &points);
    let b = points_block(&points, 4096);
    let pages = store.live_pages();
    let levels = log_base(n as f64, b as f64).ceil();
    let c1 = [16, 4096].map(|t| {
        two_sided_corners(&raw, t)
            .into_iter()
            .map(|q| {
                let (hits, reads) = reads_of(&store, || pst.answers(&store, spread.two_sided(q)));
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
/// times the pages of a fresh build of what it then holds. Measured 1.195
/// (454 pages against 380, `B` = 685) and on full-width data 1.097 (1 202
/// against 1 096); at the fixed-count layout 1.316 and 1.395, which the pins
/// stay 10% above. `tests/layout_bounds.rs` asserts
/// them and E10 exits non-zero past them.
pub const DYNAMIC_CHURN_FACTOR: [f64; 2] = [1.448, 1.535];

/// 20 000 insert/delete pairs on 50 000 uniform points at 4 KiB pages, the
/// victims taken from anywhere in the set, old or new: `(B, pages after,
/// pages of a fresh build of the same points)`, `B` the fresh build's
/// census's. Ids start at 65 536, the fresh ones after the initial ones.
pub fn dynamic_churn_pages(spread: Spread) -> (u64, u64, u64) {
    let n = 50_000u64;
    let with_ids_from = |first: u64, raw: Vec<RawPoint>| -> Vec<Point> {
        spread.points(&raw.into_iter().map(|(x, y, id)| (x, y, first + id)).collect::<Vec<_>>())
    };
    let mut live = with_ids_from(1 << 16, gen_points(n as usize, PointDist::Uniform, 0x5eed));
    let store = PageStore::in_memory(4096);
    let mut pst = DynamicPst::build(&store, &live).expect("in-memory build");
    let fresh = with_ids_from((1 << 16) + n, gen_points(20_000, PointDist::Uniform, 0xc0de));
    for (i, p) in fresh.into_iter().enumerate() {
        pst.insert(&store, p).expect("in-memory insert");
        live.push(p);
        let victim = live.swap_remove((i * 7919 + 13) % live.len());
        pst.delete(&store, victim).expect("in-memory delete");
    }
    assert_eq!(pst.len(), n, "lost points");
    let rebuilt = PageStore::in_memory(4096);
    let fresh = DynamicPst::build(&rebuilt, &live).expect("in-memory build");
    let b = fresh.page_census(&rebuilt).expect("in-memory walk").block_capacity;
    (b, store.live_pages(), rebuilt.live_pages())
}

/// E10's rebuilding stream: 5 000 uniform points at 512-byte pages, then
/// 1 000 inserts above every y, each in the root region's band, which the
/// root page's flushes grow past twice its Y-list's blocks (the flush's
/// hazard). Returns `(rebuilds, reads, writes)` over the inserts, a rebuild
/// being a `dynpst_rebuild` span in an insert's capture.
pub fn band_rebuild_stream() -> (u64, u64, u64) {
    fn rebuilds(span: &pc_obs::SpanNode) -> u64 {
        let own = u64::from(span.name == "dynpst_rebuild");
        own + span.children.iter().map(rebuilds).sum::<u64>()
    }
    let points = to_points(&gen_points(5_000, PointDist::Uniform, 0xba2d));
    let store = PageStore::in_memory(512);
    let mut pst = DynamicPst::build(&store, &points).expect("in-memory build");
    let (mut count, before) = (0, store.stats());
    for (i, &(x, _, _)) in gen_points(1_000, PointDist::Uniform, 0xba2e).iter().enumerate() {
        let p = Point::new(x, pc_workloads::DOMAIN + 1 + i as i64, 10_000 + i as u64);
        let ((), trace) = pc_obs::traced(|| pst.insert(&store, p).expect("in-memory insert"));
        count += rebuilds(&trace.root);
    }
    let io = store.stats() - before;
    (count, io.logical_reads(), io.writes)
}

/// The interval tree's pinned constants at 4 KiB pages, per [`Spread`] and
/// per mean stab output `t`: `(t, c, c1)` with `pages <= c·(n/B)·log₂B` and
/// every stab's `reads <= c1·⌈log_B n⌉ + 2·⌈t/B⌉` over
/// [`interval_tree_constants`]' data, `B` the tree's
/// `ExternalIntervalTree::block_capacity`. Measured, with bundles in the
/// tails of the skeletal pages stabs read anyway, c 0.263 / 0.751 and c1
/// 0.50 / 1.50 (`B` = 816 / 800) and on full-width data (`B` = 259 / 254)
/// c 0.367 / 0.912 and c1 0.50 / 2.00; the pins are 10% above. With a page
/// for every bundle they were c 0.525 / 1.012 / 0.531 / 0.977 and c1 1.00 /
/// 2.00 on both spreads. `tests/layout_bounds.rs` asserts them and the
/// `experiments` binary's E4 exits non-zero past them.
pub const INTERVAL_TREE_PINS: [[(i64, f64, f64); 2]; 2] =
    [[(16, 0.29, 0.55), (500, 0.827, 1.65)], [(16, 0.404, 0.55), (500, 1.004, 2.2)]];

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
    let b = tree.block_capacity() as u64;
    let levels = log_base(n as f64, b as f64).ceil();
    let c1 = gen_stabbing(&raw, 300, 0xfeed)
        .iter()
        .map(|stab| {
            let (hits, reads) = reads_of(&store, || tree.stab(&store, spread.coord(stab.q)));
            let hits = hits.expect("in-memory stab");
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
/// it holds — so the sizes were its peak at the fixed-count layout (15 full
/// nodes and 16 leaves of one point: 47 686 at `B` = 454, 17 131 at `B` =
/// 163), the small size E9 and E11 run at, and 100k. Measured with the
/// block codec (`B` = 690–734 and 235) c 0.085 / 0.063 / 0.114 and c1
/// 1.50 / 0.50 / 1.50 at t ≈ 16, 1.00 / 0.00 / 1.50 at t ≈ 4096 — fewer
/// blocks of output from nodes of seven blocks each, where a query pays per
/// node it meets only the partial blocks its runs and Y-prefixes end in —
/// and on full-width data c 0.114 and c1 1.00 / −5.00; the pins are 10%
/// above (a tenth of a read per level at 0), and the ones the measurement
/// stays under are the fixed-count layout's. `tests/layout_bounds.rs`
/// asserts them and the `experiments` binary's E9 exits non-zero past them.
pub const THREE_SIDED_PINS: [&[ThreeSidedPin]; 2] = [
    &[
        (47_686, 0.158, [(16, 1.65), (4096, 2.2)]),
        (20_000, 0.069, [(16, 0.55), (4096, 0.1)]),
        (100_000, 0.125, [(16, 1.65), (4096, 1.65)]),
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
                let (hits, reads) = reads_of(&store, || pst.query(&store, q));
                let output = 2.0 * (hits.expect("in-memory query").len() as u64).div_ceil(b) as f64;
                (reads as f64 - output) / levels
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
/// over [`btree_constants`]' data, `B` the tree's entries per leaf
/// (`BTree::census`; so `⌈n/B⌉` is its leaves). Each node is one block of
/// the block codec: measured c 1.333 / 1.062 / 1.016 (`B` = 3 333 / 6 250 /
/// 16 129: keys 100, 10 and 1 apart take 7, 4 and 1 bits, rank gaps 1; at
/// 10k three leaves share one root) and on full-width data 1.062 / 1.007 /
/// 1.003 (`B` = 625 / 662 / 705: key gaps of 51, 48 and 45 bits), c1 at
/// most 1.00 at every size, spread and `t`: a bulk-built tree reads its
/// descent and the leaves its output spans; the pins are 10% above.
/// `tests/layout_bounds.rs` asserts the sizes up to 100 000 and the
/// `experiments` binary's E1 exits non-zero past any of them.
pub const BTREE_PINS: [&[BTreePin]; 2] = [
    &[
        (10_000, 1.467, [(16, 1.1), (4096, 1.1)]),
        (100_000, 1.122, [(16, 1.1), (4096, 1.1)]),
        (1_000_000, 1.103, [(16, 1.1), (4096, 1.1)]),
    ],
    &[
        (10_000, 1.159, [(16, 1.1), (4096, 1.1)]),
        (100_000, 1.107, [(16, 1.1), (4096, 1.1)]),
        (1_000_000, 1.104, [(16, 1.1), (4096, 1.1)]),
    ],
];

/// One measurement of [`BTREE_PINS`]: the tree's `B`, its pages, and `c`
/// and `[c1; 2]` as the pins define them.
#[derive(Debug, Clone, Copy)]
pub struct BTreeConstants {
    /// Entries per leaf (`BTree::census`), rounded down.
    pub b: u64,
    /// Live pages after the build.
    pub pages: u64,
    /// `pages / leaves`.
    pub c: f64,
    /// Worst `(reads − ⌈t/B⌉) / ⌈log_B n⌉` at t ≈ 16 and t ≈ 4096.
    pub c1: [f64; 2],
}

/// Bulk-builds a B-tree of `n` keys spaced evenly over the generators'
/// domain, spread as `spread` says, each mapped to its rank, at 4 KiB pages,
/// and measures its [`BTreeConstants`], each `c1` the worst of 150 ranges.
pub fn btree_constants(n: u64, spread: Spread) -> BTreeConstants {
    let step = pc_workloads::DOMAIN / n as i64;
    let keys: Vec<i64> = (0..n as i64).map(|i| spread.coord(i * step)).collect();
    let entries: Vec<(i64, u64)> = keys.iter().zip(0..).map(|(&k, i)| (k, spread.id(i))).collect();
    let store = PageStore::in_memory(4096);
    let tree = BTree::bulk_build(&store, &entries).expect("in-memory build");
    let census = tree.census(&store).expect("in-memory walk");
    let b = census.mean_leaf_fill;
    let pages = store.live_pages();
    assert_eq!(census.pages(), pages, "the census misses a page");
    let levels = log_base(n as f64, b).ceil();
    let c1 = [16, 4096].map(|t| {
        gen_range_1d(&keys, 150, t, 0xfeed)
            .iter()
            .map(|q| {
                let (hits, reads) = reads_of(&store, || tree.range(&store, &q.lo, &q.hi));
                let hits = hits.expect("in-memory range");
                (reads as f64 - (hits.len() as f64 / b).ceil()) / levels
            })
            .fold(f64::MIN, f64::max)
    });
    BTreeConstants { b: b as u64, pages, c: pages as f64 / census.leaves as f64, c1 }
}

/// One pinned size of [`SEGTREE_PINS`]: `(n, c, [(t, c1); 2])`.
pub type SegTreePin = (u64, f64, [(i64, f64); 2]);

/// The path-cached segment tree's pinned constants at 4 KiB pages (Theorem
/// 3.4), per [`Spread`] and per pinned size: `(n, c, [(t, c1); 2])` with
/// `pages <= c·(n/B)·log₂ n` and every stab's `reads <= c1·⌈log_B n⌉ +
/// 2·⌈t/B⌉` at mean output `t`, over [`segtree_constants`]' data, `B` = 169
/// the full-width intervals a block guarantees
/// (`pc_segtree::block_capacity`); `c` is the worst of the two builds, the
/// one at t ≈ 500. Measured c 3.762 / 3.324 at n = 10k / 50k — a binary
/// tree's Θ(n) skeletal records, its caches packed into one stream of
/// blocks — and c1 2.50 / 1.67 at t ≈ 16, 2.50 / 1.00 at t ≈ 500 (two and
/// three levels of `log_B n`; a stab reads the skeletal pages and its
/// output, no other index); on full-width data c 7.650 / 7.046 (a block
/// holds fewer of the wider intervals) and c1 3.00 / 2.00 at t ≈ 16, 2.50 /
/// 1.00 at t ≈ 500. The pins are 10% above; `tests/layout_bounds.rs`
/// asserts the 10 000 rows and the `experiments` binary's E3 exits non-zero
/// past any of them.
pub const SEGTREE_PINS: [&[SegTreePin]; 2] = [
    &[(10_000, 4.139, [(16, 2.75), (500, 2.75)]), (50_000, 3.657, [(16, 1.834), (500, 1.1)])],
    &[(10_000, 8.416, [(16, 3.3), (500, 2.75)]), (50_000, 7.751, [(16, 2.2), (500, 1.1)])],
];

/// One measurement of [`SEGTREE_PINS`]: the larger build's pages, and `c`
/// and `[c1; 2]` as the pins define them.
#[derive(Debug, Clone, Copy)]
pub struct SegTreeConstants {
    /// Live pages of the build at the larger `t`.
    pub pages: u64,
    /// Worst `pages / ((n/B)·log₂ n)` of the two builds.
    pub c: f64,
    /// Worst `(reads − 2·⌈t/B⌉) / ⌈log_B n⌉` at t ≈ 16 and t ≈ 500.
    pub c1: [f64; 2],
}

/// Builds the pinned geometry twice — `n` uniform-length intervals meeting
/// a stab 16 and then 500 at a time, spread as `spread` says, 4 KiB pages —
/// and measures its [`SegTreeConstants`], each `c1` the worst of 150 stabs.
pub fn segtree_constants(n: u64, spread: Spread) -> SegTreeConstants {
    let b = pc_segtree::block_capacity(4096) as f64;
    let levels = log_base(n as f64, b).ceil();
    let (mut pages, mut c) = (0, 0f64);
    let c1 = [16, 500].map(|t_mean| {
        let max_len = 2 * t_mean * pc_workloads::DOMAIN / n as i64;
        let raw = gen_intervals(n as usize, IntervalDist::UniformLen { max_len }, 0x5eed);
        let store = PageStore::in_memory(4096);
        let tree =
            CachedSegmentTree::build(&store, &spread.intervals(&raw)).expect("in-memory build");
        pages = store.live_pages();
        c = c.max(pages as f64 / (n as f64 / b * (n as f64).log2()));
        gen_stabbing(&raw, 150, 0xfeed)
            .iter()
            .map(|stab| {
                let (hits, reads) = reads_of(&store, || tree.stab(&store, spread.coord(stab.q)));
                let hits = hits.expect("in-memory stab");
                (reads as f64 - 2.0 * (hits.len() as f64 / b).ceil()) / levels
            })
            .fold(f64::MIN, f64::max)
    });
    SegTreeConstants { pages, c, c1 }
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
