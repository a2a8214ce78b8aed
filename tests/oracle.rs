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
use pc_pagestore::{Frame, PageStore};
use pc_pst::{
    BasicPst, DynamicPst, DynamicThreeSidedPst, NaivePst, SegmentedPst, ThreeSidedPst, TwoLevelPst,
};
use pc_rng::Rng;
use pc_segtree::{CachedSegmentTree, NaiveSegmentTree};

use driver::{cases, cell, drive, Subject};
use gen::{Case, Shape, Spec};
use model::Model;
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
fn structure<S: Structure>(name: &str, shape: Shape, frames: &[Frame], updates: usize) {
    for &frame in frames {
        for page_size in PAGES {
            let spec = Spec { shape, frame, records: 2 * page_size, updates, queries: 60 };
            cases(&format!("{name} at {page_size} B, {frame}"), 3, spec, |case| {
                in_process::<S>(page_size, case)
            });
        }
        let spec = Spec { shape, frame, records: 300, updates: updates.min(60), queries: 30 };
        let case_and_kill = |rng: &mut Rng| (gen::case(rng, &spec), rng.next_u64());
        cell(&format!("{name} recovered, {frame}"), 2, case_and_kill, |(case, kill)| {
            paths::recovered::<S>(case, *kill)
        });
    }
}

macro_rules! structures {
    ($($test:ident: $S:ty, $shape:ident, $frames:ident, $updates:literal;)*) => {$(
        #[test]
        fn $test() {
            structure::<$S>(stringify!($test), Shape::$shape, &$frames, $updates);
        }
    )*};
}

structures! {
    b_tree: BTree, Range, FRAMES, 200;
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

/// Kind `i`'s cases: at `FRAMES[i % 4]` where it has a frame.
fn served_spec(i: usize, records: usize, updates: usize) -> Spec {
    let kind = &KINDS[i];
    let frame = if kind.framed { FRAMES[i % 4] } else { Frame::WIDE };
    let updates = if kind.dynamic { updates } else { 0 };
    Spec { shape: kind.shape, frame, records, updates, queries: 40 }
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

/// In process at every page size — after the two widenings its pages are a
/// fresh build's at the wide frame — served with every epoch read `as_of`,
/// and after four seeded kills.
#[test]
fn regression_b_tree_widening_twice() {
    let case = regressions::b_tree_widening_twice();
    let live = structures::entries(&Model::after(&case, usize::MAX).records());
    for page_size in PAGES {
        let mut tree = InProcess::<BTree>::build(page_size, &case.build).unwrap();
        assert_eq!(tree.frame(), Some(Frame::new(3, 1, 3)));
        drive(&mut tree, &case).unwrap_or_else(|e| panic!("widening at {page_size} B: {e}"));
        assert_eq!(tree.frame(), Some(Frame::new(8, 1, 8)), "at {page_size} B: widened twice");
        let fresh = PageStore::in_memory(page_size);
        BTree::bulk_build(&fresh, &live).unwrap();
        assert_eq!(tree.store.live_pages(), fresh.live_pages(), "at {page_size} B");
    }
    let kind = KINDS.iter().find(|kind| kind.name == "dynamic B-tree").expect("a served kind");
    paths::served(kind, &case).unwrap_or_else(|e| panic!("B-tree widening, served: {e}"));
    for seed in 0..4 {
        paths::recovered::<BTree>(&case, seed)
            .unwrap_or_else(|e| panic!("B-tree widening, recovered (seed {seed}): {e}"));
    }
}
