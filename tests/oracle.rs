//! One oracle for every answer: one generator (`oracle/gen.rs`), one
//! reference model (`oracle/model.rs`) and one driver (`oracle/driver.rs`)
//! check every structure — in process at every page size and every frame
//! it has, the dynamic ones through `descriptor` → `open` too
//! (`oracle/structures.rs`), and after a seeded kill — and every served
//! kind through a server, reading every epoch `as_of`, and through a router
//! (`oracle/paths.rs`).
//! A new structure or path is one adapter there and one line here.
//!
//! Each cell draws its cases from `PC_CHAOS_SEED` (fixed when unset) and
//! the cell's name. A wrong answer fails with the case's seed and the
//! ordinal of the op that went wrong: that seed in
//! `Config::with_regressions` (`driver::cell`) reruns the case first. The
//! bugs each dimension found are named inputs in `oracle/regressions.rs`.

#[path = "oracle/driver.rs"]
mod driver;
#[path = "oracle/gen.rs"]
mod gen;
#[path = "oracle/model.rs"]
mod model;
#[path = "oracle/paths.rs"]
mod paths;
#[path = "oracle/regressions.rs"]
mod regressions;
#[path = "oracle/structures.rs"]
mod structures;

use std::collections::BTreeSet;

use pc_btree::BTree;
use pc_intervaltree::ExternalIntervalTree;
use pc_pagestore::Frame;
use pc_pst::{
    BasicPst, DynamicPst, DynamicThreeSidedPst, NaivePst, SegmentedPst, ThreeSidedPst, TwoLevelPst,
};
use pc_rng::Rng;
use pc_segtree::{CachedSegmentTree, NaiveSegmentTree};

use driver::{cases, cell, drive, Subject};
use gen::{Case, Shape, Spec};
use paths::KINDS;
use structures::{InProcess, Multilevel, Res, Structure};

const PAGES: [usize; 4] = [512, 1024, 2048, 4096];
const FRAMES: [Frame; 4] =
    [Frame::new(1, 1, 1), Frame::new(3, 3, 3), Frame::new(2, 5, 8), Frame::WIDE];
/// The one frame of a structure that has none: every field full width.
const NO_FRAME: [Frame; 1] = [Frame::WIDE];

/// Builds `case` at `page_size` and drives it; the build must sit at the
/// case's frame.
fn in_process<S: Structure>(page_size: usize, case: &Case) -> Res<()> {
    let mut subject = InProcess::<S>::build(page_size, &case.build)?;
    match subject.frame() {
        Some(frame) if case.build.len() >= 2 && frame != Frame::of(&case.build) => {
            Err(format!("built at {frame}, not at {}", Frame::of(&case.build)))
        }
        _ => drive(&mut subject, case),
    }
}

/// For every frame of `frames`: three cases in process at every page size,
/// with builds of up to two records a byte of page (1 024 at 512 B, 8 192
/// at 4 KiB), and two recovered after a seeded kill.
fn structure<S: Structure>(
    name: &str,
    shape: Shape,
    frames: &[Frame],
    outliers: bool,
    updates: usize,
) {
    let data = |frame: Frame| format!("{frame}{}", if outliers { " with outliers" } else { "" });
    for &frame in frames {
        for page_size in PAGES {
            let records = 2 * page_size;
            let spec = Spec { shape, frame, records, updates, queries: 60, outliers };
            cases(&format!("{name} at {page_size} B, {}", data(frame)), 3, spec, |case| {
                in_process::<S>(page_size, case)
            });
        }
        let updates = updates.min(60);
        let spec = Spec { shape, frame, records: 300, updates, queries: 30, outliers };
        let case_and_kill = |rng: &mut Rng| (gen::case(rng, &spec), rng.next_u64());
        cell(&format!("{name} recovered, {}", data(frame)), 2, case_and_kill, |(case, kill)| {
            paths::recovered::<S>(case, *kill)
        });
    }
}

macro_rules! structures {
    ($($test:ident: $S:ty, $shape:ident, $frames:ident, $updates:literal;)*) => {$(
        #[test]
        fn $test() {
            structure::<$S>(stringify!($test), Shape::$shape, &$frames, false, $updates);
        }
    )*};
}

/// The B-tree has no frame — every node stores its rows at the widths of
/// its own data — so its one data set is narrow keys and values with
/// outliers of every width mixed in.
#[test]
fn b_tree() {
    structure::<BTree>("b_tree", Shape::Range, &[Frame::new(2, 1, 2)], true, 200);
}

structures! {
    naive_segment_tree: NaiveSegmentTree, Stab, NO_FRAME, 0;
    cached_segment_tree: CachedSegmentTree, Stab, NO_FRAME, 0;
    interval_tree: ExternalIntervalTree, Stab, FRAMES, 0;
    naive_pst: NaivePst, TwoSided, FRAMES, 0;
    basic_pst: BasicPst, TwoSided, FRAMES, 0;
    segmented_pst: SegmentedPst, TwoSided, FRAMES, 0;
    two_level_pst: TwoLevelPst, TwoSided, FRAMES, 0;
    multilevel_pst: Multilevel, TwoSided, FRAMES, 0;
    three_sided_pst: ThreeSidedPst, ThreeSided, FRAMES, 0;
    dynamic_pst: DynamicPst, TwoSided, FRAMES, 300;
    dynamic_three_sided_pst: DynamicThreeSidedPst, ThreeSided, FRAMES, 300;
}

/// Kind `i`'s cases: at `FRAMES[i % 4]` where it has a frame, and the
/// B-tree's with outliers.
fn served_spec(i: usize, records: usize, updates: usize) -> Spec {
    let kind = &KINDS[i];
    let frame = if kind.framed { FRAMES[i % 4] } else { Frame::WIDE };
    let updates = if kind.dynamic { updates } else { 0 };
    let outliers = kind.shape == Shape::Range;
    Spec { shape: kind.shape, frame, records, updates, queries: 40, outliers }
}

/// Every kind served, and read `as_of` every epoch.
#[test]
fn served() {
    for (i, kind) in KINDS.iter().enumerate() {
        let spec = served_spec(i, 600, 150);
        cases(&format!("served {}", kind.name), 2, spec, |case| paths::served(kind, case));
    }
}

/// Every kind's case over 1–8 shards split at distinct random points — data
/// coordinates mostly, anywhere in `i64` otherwise, so a shard may be empty.
#[test]
fn routed() {
    for shards in 1..=8 {
        let fabric = |rng: &mut Rng| {
            let cases: Vec<Case> =
                (0..KINDS.len()).map(|i| gen::case(rng, &served_spec(i, 300, 60))).collect();
            let xs: Vec<i64> =
                cases.iter().flat_map(|case| case.build.iter().map(|p| p.x)).collect();
            let mut splits = BTreeSet::new();
            while splits.len() < shards - 1 {
                splits.insert(match rng.choose(&xs) {
                    Some(&x) if rng.gen_bool(0.75) => x,
                    _ => rng.gen_range(i64::MIN..=i64::MAX),
                });
            }
            (cases, splits.into_iter().collect::<Vec<i64>>(), rng.next_u64())
        };
        cell(&format!("routed over {shards}"), 1, fabric, |(cases, splits, seed)| {
            paths::routed(cases, splits, *seed)
        });
    }
}

#[test]
fn regression_x_tie_deletes() {
    let case = regressions::x_tie_deletes();
    in_process::<DynamicPst>(512, &case).unwrap_or_else(|e| panic!("x-tie deletes: {e}"));
}

#[test]
fn regression_odd_skeletal_capacity_at_1_kib() {
    let case = regressions::odd_skeletal_capacity_at_1_kib();
    let mut pst = InProcess::<DynamicPst>::build(1024, &case.build).unwrap();
    let census = pst.s.page_census(&pst.store).unwrap();
    assert!(census.skeletal > 1, "regions on more than one skeletal page: {census:?}");
    drive(&mut pst, &case).unwrap_or_else(|e| panic!("1 KiB: {e}"));
}

/// In process at every page size, served with every epoch read `as_of`, and
/// after four seeded kills.
#[test]
fn regression_widening_twice() {
    let case = regressions::widening_twice();
    let wide = Frame::new(8, 3, 8);
    for page_size in PAGES {
        let mut pst = InProcess::<DynamicPst>::build(page_size, &case.build).unwrap();
        assert_eq!(pst.frame(), Some(Frame::new(3, 3, 3)));
        drive(&mut pst, &case).unwrap_or_else(|e| panic!("widening at {page_size} B: {e}"));
        assert_eq!(pst.frame(), Some(wide), "at {page_size} B: the frame widened twice and stayed");
        let census = pst.s.page_census(&pst.store).unwrap();
        assert_eq!(census.total(), pst.store.live_pages(), "every page is still owned");
    }
    let kind = KINDS.iter().find(|kind| kind.name == "dynamic PST").expect("a served kind");
    paths::served(kind, &case).unwrap_or_else(|e| panic!("widening, served: {e}"));
    for seed in 0..4 {
        paths::recovered::<DynamicPst>(&case, seed)
            .unwrap_or_else(|e| panic!("widening, recovered (seed {seed}): {e}"));
    }
}

/// A B-tree in process whose every update may write at most
/// `2·(height + 1) + 2` pages: a split or settle on each level of its
/// path, a sibling's back link and a new root.
struct WritesBounded(InProcess<BTree>);

impl Subject for WritesBounded {
    fn update(&mut self, op: &gen::Op) -> Result<(), String> {
        let before = self.0.store.stats().writes;
        self.0.update(op)?;
        let writes = self.0.store.stats().writes - before;
        let bound = 2 * (u64::from(self.0.s.height()) + 1) + 2;
        match writes <= bound {
            true => Ok(()),
            false => Err(format!("{writes} pages written, the bound is {bound}")),
        }
    }
    fn answer(&mut self, q: &gen::Query) -> Result<Vec<pc_pagestore::Point>, String> {
        self.0.answer(q)
    }
    fn len(&mut self) -> Option<u64> {
        self.0.len()
    }
}

/// In process at every page size with every update's writes bounded — the
/// outliers widen the nodes on their paths, where a tree-wide frame
/// rewrote the tree — served with every epoch read `as_of`, and after two
/// seeded kills, one recovering through checkpoints.
#[test]
fn regression_b_tree_outliers() {
    let case = regressions::b_tree_outliers();
    for page_size in PAGES {
        let tree = InProcess::<BTree>::build(page_size, &case.build).unwrap();
        drive(&mut WritesBounded(tree), &case)
            .unwrap_or_else(|e| panic!("B-tree outliers at {page_size} B: {e}"));
    }
    let kind = KINDS.iter().find(|kind| kind.name == "dynamic B-tree").expect("a served kind");
    paths::served(kind, &case).unwrap_or_else(|e| panic!("B-tree outliers, served: {e}"));
    for seed in [2, 3] {
        paths::recovered::<BTree>(&case, seed)
            .unwrap_or_else(|e| panic!("B-tree outliers, recovered (seed {seed}): {e}"));
    }
}
