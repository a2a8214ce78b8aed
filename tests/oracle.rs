//! One oracle for every answer: one generator (`oracle/gen.rs`), one
//! reference model (`oracle/model.rs`) and one driver (`oracle/driver.rs`)
//! check every structure — in process at every page size and on every data
//! class (narrow, full-width, with outliers), the dynamic ones through
//! `descriptor` → `open` too
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
use pc_pagestore::layout::min_records;
use pc_pagestore::Point;
use pc_pst::{
    BasicPst, DynamicPst, DynamicThreeSidedPst, NaivePst, SegmentedPst, ThreeSidedPst, TwoLevelPst,
};
use pc_rng::Rng;
use pc_segtree::{CachedSegmentTree, NaiveSegmentTree};

use driver::{cases, cell, drive, Subject};
use gen::{Case, Shape, Spec, Widths};
use paths::KINDS;
use structures::{InProcess, Multilevel, Res, Structure};

const PAGES: [usize; 4] = [512, 1024, 2048, 4096];

/// A data class: the widths a case's fields span, and whether outliers of
/// every width are mixed in.
type Class = (Widths, bool);

/// Every structure's data classes: narrow (one byte a field), the served
/// benchmark's 20-bit data with outliers mixed in, uneven widths, and
/// every field at full width.
const CLASSES: [Class; 4] = [
    (Widths([1, 1, 1]), false),
    (Widths([3, 3, 3]), true),
    (Widths([2, 5, 8]), false),
    (Widths::WIDE, false),
];
/// The one class of the segment tree's cases: full width.
const WIDE_ONLY: [Class; 1] = [(Widths::WIDE, false)];

/// Builds `case` at `page_size` and drives it.
fn in_process<S: Structure>(page_size: usize, case: &Case) -> Res<()> {
    drive(&mut InProcess::<S>::build(page_size, &case.build)?, case)
}

/// For every data class of `classes`: three cases in process at every page
/// size, with builds of up to two records a byte of page (1 024 at 512 B,
/// 8 192 at 4 KiB), two recovered after a seeded kill and, for a structure
/// that takes updates, two committed after every update with no session.
fn structure<S: Structure>(name: &str, shape: Shape, classes: &[Class], updates: usize) {
    let data = |(widths, outliers): Class| {
        format!("{widths}{}", if outliers { " with outliers" } else { "" })
    };
    for &(widths, outliers) in classes {
        let class = data((widths, outliers));
        for page_size in PAGES {
            let records = 2 * page_size;
            let spec = Spec { shape, widths, records, updates, queries: 60, outliers };
            cases(&format!("{name} at {page_size} B, {class}"), 3, spec, |case| {
                in_process::<S>(page_size, case)
            });
        }
        let updates = updates.min(60);
        let spec = Spec { shape, widths, records: 300, updates, queries: 30, outliers };
        let case_and_kill = |rng: &mut Rng| (gen::case(rng, &spec), rng.next_u64());
        cell(&format!("{name} recovered, {class}"), 2, case_and_kill, |(case, kill)| {
            paths::recovered::<S>(case, *kill)
        });
        if updates > 0 {
            cases(&format!("{name} committed, {class}"), 2, spec, paths::committed::<S>);
        }
    }
}

macro_rules! structures {
    ($($test:ident: $S:ty, $shape:ident, $classes:ident, $updates:literal;)*) => {$(
        #[test]
        fn $test() {
            structure::<$S>(stringify!($test), Shape::$shape, &$classes, $updates);
        }
    )*};
}

/// The B-tree's one data set is narrow keys and values with outliers of
/// every width mixed in.
#[test]
fn b_tree() {
    structure::<BTree>("b_tree", Shape::Range, &[(Widths([2, 1, 2]), true)], 200);
}

structures! {
    naive_segment_tree: NaiveSegmentTree, Stab, WIDE_ONLY, 0;
    cached_segment_tree: CachedSegmentTree, Stab, WIDE_ONLY, 0;
    interval_tree: ExternalIntervalTree, Stab, CLASSES, 0;
    naive_pst: NaivePst, TwoSided, CLASSES, 0;
    basic_pst: BasicPst, TwoSided, CLASSES, 0;
    segmented_pst: SegmentedPst, TwoSided, CLASSES, 0;
    two_level_pst: TwoLevelPst, TwoSided, CLASSES, 0;
    multilevel_pst: Multilevel, TwoSided, CLASSES, 0;
    three_sided_pst: ThreeSidedPst, ThreeSided, CLASSES, 0;
    dynamic_pst: DynamicPst, TwoSided, CLASSES, 300;
    dynamic_three_sided_pst: DynamicThreeSidedPst, ThreeSided, CLASSES, 300;
}

/// The `structures!` cells build at most two records a byte of page, so at
/// 4 KiB a 3-sided PST is one skeletal page. This cell builds at least
/// 80 000 records of the benchmark's class, which span several: queries
/// walk into lower pages and the A-runs their roots carry.
#[test]
fn three_sided_pst_on_lower_pages() {
    let (widths, outliers) = CLASSES[1];
    let shape = Shape::ThreeSided;
    let spec = Spec { shape, widths, records: 100_000, updates: 0, queries: 60, outliers };
    let big = |rng: &mut Rng| loop {
        let case = gen::case(rng, &spec);
        if case.build.len() >= 80_000 {
            return case;
        }
    };
    cell("three_sided_pst at 4096 B, lower pages", 1, big, |case| {
        let mut pst = InProcess::<ThreeSidedPst>::build(4096, &case.build)?;
        let census = pst.s.page_census(&pst.store).map_err(|e| e.to_string())?;
        assert!(census.skeletal > 1, "one skeletal page: {census:?}");
        drive(&mut pst, case)
    });
}

/// Kind `i`'s cases: of `CLASSES[i % 4]`, the segment tree's of the wide
/// class, and the B-trees' with outliers.
fn served_spec(i: usize, records: usize, updates: usize) -> Spec {
    let kind = &KINDS[i];
    let (widths, outliers) = if kind.classed { CLASSES[i % 4] } else { WIDE_ONLY[0] };
    let updates = if kind.dynamic { updates } else { 0 };
    let outliers = outliers || kind.shape == Shape::Range;
    Spec { shape: kind.shape, widths, records, updates, queries: 40, outliers }
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

/// A corner-rule or root-filter input (`regressions::corner_*`,
/// `regressions::root_*`) at the page sizes it is for: the two-level and every multilevel PST over its build and queries
/// and the dynamic PST over all of it, in process; served — the dynamic PST
/// with every epoch read `as_of` — and routed over one shard, at 512 B.
fn corner_regression(what: &str, case: &Case, pages: &[usize]) {
    let queries = Case {
        shape: case.shape,
        build: case.build.clone(),
        ops: case.queries().map(|q| gen::Op::Query(*q)).collect(),
    };
    for &page_size in pages {
        let at = |path: &str, e: String| panic!("{what}, {path} at {page_size} B: {e}");
        in_process::<TwoLevelPst>(page_size, &queries).unwrap_or_else(|e| at("two-level", e));
        in_process::<Multilevel>(page_size, &queries).unwrap_or_else(|e| at("multilevel", e));
        in_process::<DynamicPst>(page_size, case).unwrap_or_else(|e| at("dynamic", e));
    }
    let kinds = KINDS.iter().filter(|kind| kind.shape == case.shape);
    for kind in kinds.clone() {
        let case = if kind.dynamic { case } else { &queries };
        paths::served(kind, case).unwrap_or_else(|e| panic!("{what}, served {}: {e}", kind.name));
    }
    let nothing = |shape| Case { shape, build: Vec::new(), ops: Vec::new() };
    let cases: Vec<Case> = KINDS
        .iter()
        .map(|kind| match kind.shape == case.shape {
            true if kind.dynamic => case.clone(),
            true => queries.clone(),
            false => nothing(kind.shape),
        })
        .collect();
    paths::routed(&cases, &[], 0).unwrap_or_else(|e| panic!("{what}, routed: {e}"));
}

#[test]
fn regression_corner_edge_runs() {
    for by_y in [false, true] {
        let case = regressions::corner_edge_runs(by_y);
        let what = if by_y { "runs of equal y" } else { "runs of equal x" };
        corner_regression(what, &case, &PAGES);
    }
}

#[test]
fn regression_corner_one_block_and_emptied() {
    for big in [false, true] {
        let case = regressions::corner_one_block_and_emptied(big);
        corner_regression("regions of one block, emptied", &case, &PAGES);
    }
}

#[test]
fn regression_corner_u_holds_first_block_ops() {
    let case = regressions::corner_u_holds_first_block_ops();
    corner_regression("first-block ops in `u`", &case, &PAGES);
}

#[test]
fn regression_corner_at_the_inner_region_level() {
    let case = regressions::corner_at_the_inner_region_level();
    corner_regression("the inner region level", &case, &[2048, 4096]);
}

#[test]
fn regression_root_ops_on_the_corner_boundary() {
    let case = regressions::root_ops_on_the_corner_boundary();
    corner_regression("root ops on the corners' boundaries", &case, &[512, 4096]);
}

#[test]
fn regression_root_ops_on_an_anti_diagonal() {
    let case = regressions::root_ops_on_an_anti_diagonal();
    corner_regression("root ops on an anti-diagonal", &case, &[512, 4096]);
}

#[test]
fn regression_root_delete_masks_a_static_answer() {
    let case = regressions::root_delete_masks_a_static_answer();
    corner_regression("root deletes of maximal points", &case, &[512, 4096]);
}

#[test]
fn regression_stabs_on_exit_boundaries() {
    let case = regressions::stabs_on_exit_boundaries();
    for page_size in [512, 4096] {
        in_process::<ExternalIntervalTree>(page_size, &case)
            .unwrap_or_else(|e| panic!("stabs on exit boundaries at {page_size} B: {e}"));
    }
}

#[test]
fn regression_stabs_at_the_domain_edges() {
    for one_run in [false, true] {
        let case = regressions::stabs_at_the_domain_edges(one_run);
        for page_size in [512, 4096] {
            let at = |what: &str, e: String| {
                panic!("{what} at the domain's edges (one run: {one_run}), {page_size} B: {e}")
            };
            in_process::<NaiveSegmentTree>(page_size, &case).unwrap_or_else(|e| at("naive", e));
            in_process::<CachedSegmentTree>(page_size, &case).unwrap_or_else(|e| at("cached", e));
            in_process::<ExternalIntervalTree>(page_size, &case)
                .unwrap_or_else(|e| at("interval tree", e));
        }
    }
}

/// A carried-run input (`regressions::carried_*`) over the 3-sided PST in
/// process at 512 B and 4 KiB.
fn carried_regression(what: &str, case: impl Fn(usize) -> Case) {
    for page_size in [512, 4096] {
        in_process::<ThreeSidedPst>(page_size, &case(page_size))
            .unwrap_or_else(|e| panic!("{what} at {page_size} B: {e}"));
    }
}

#[test]
fn regression_carried_ties_on_route_edges() {
    let case = regressions::carried_ties_on_route_edges;
    carried_regression("x-ties on a carrying root's route edge", case);
}

#[test]
fn regression_carried_boundary_walks() {
    carried_regression("boundary walks into carrying pages", regressions::carried_boundary_walks);
}

#[test]
fn regression_carried_one_record_pages() {
    carried_regression("one-record lower pages", regressions::carried_one_record_pages);
}

#[test]
fn regression_carried_corners_below_the_root() {
    let case = regressions::carried_corners_below_the_root;
    carried_regression("corners at and below a carrying root", case);
}

/// A tail-placement input (`regressions::tail_*`) at `page_size`: the
/// basic, segmented, two-level and multilevel PSTs over its build and
/// queries and the dynamic PST over all of it answer as the model does, and
/// each reads at most the pages `reads` names, in that order — what each
/// read when every block had a page of its own.
fn tails_regression(what: &str, case: &Case, page_size: usize, reads: [u64; 5]) {
    fn run<S: Structure>(page_size: usize, case: &Case) -> Res<u64> {
        let mut subject = InProcess::<S>::build(page_size, &case.build)?;
        let before = subject.store.stats().reads;
        drive(&mut subject, case)?;
        Ok(subject.store.stats().reads - before)
    }
    let queries = Case {
        shape: case.shape,
        build: case.build.clone(),
        ops: case.queries().map(|q| gen::Op::Query(*q)).collect(),
    };
    let got = [
        run::<BasicPst>(page_size, &queries),
        run::<SegmentedPst>(page_size, &queries),
        run::<TwoLevelPst>(page_size, &queries),
        run::<Multilevel>(page_size, &queries),
        run::<DynamicPst>(page_size, case),
    ];
    let names = ["basic", "segmented", "two-level", "multilevel", "dynamic"];
    for ((name, got), cap) in names.into_iter().zip(got).zip(reads) {
        let got = got.unwrap_or_else(|e| panic!("{what}, {name} at {page_size} B: {e}"));
        assert!(got <= cap, "{what}, {name} at {page_size} B: {got} reads, {cap} a page a block");
    }
}

#[test]
fn regression_tails_filled_to_the_byte() {
    let case = regressions::tail_filled_to_the_byte(true);
    tails_regression("a tail filled to the byte", &case, 512, TAIL_READS[0]);
    let case = regressions::tail_filled_to_the_byte(false);
    tails_regression("a block a byte past the tail", &case, 512, TAIL_READS[1]);
}

#[test]
fn regression_tails_empty_nodes() {
    let case = regressions::tail_empty_nodes();
    tails_regression("nodes with no points", &case, 512, TAIL_READS[2]);
    tails_regression("nodes with no points", &case, 4096, TAIL_READS[3]);
}

#[test]
fn regression_tails_traversals() {
    let case = regressions::tail_traversals();
    tails_regression("traversals through tails", &case, 4096, TAIL_READS[4]);
}

#[test]
fn regression_tails_regions_rebuilt() {
    let case = regressions::tail_regions_rebuilt();
    tails_regression("regions rebuilt by a flush", &case, 512, TAIL_READS[5]);
    tails_regression("regions rebuilt by a flush", &case, 4096, TAIL_READS[6]);
}

#[test]
fn regression_tails_little_fits_at_512() {
    let case = regressions::tail_little_fits_at_512();
    tails_regression("little fits at 512 B", &case, 512, TAIL_READS[7]);
}

/// What each `regression_tails_*` cell read — basic, segmented, two-level,
/// multilevel (all four level counts), dynamic — when every block had a
/// page of its own, in the order the cells name them.
const TAIL_READS: [[u64; 5]; 8] = [
    [241, 241, 237, 952, 1627],
    [241, 241, 237, 952, 1627],
    [0, 0, 0, 0, 2027],
    [0, 0, 0, 0, 1763],
    [503, 503, 461, 1874, 461],
    [2239, 2312, 1700, 7339, 15259],
    [483, 483, 507, 1940, 8886],
    [455, 481, 359, 1532, 359],
];

#[test]
fn regression_x_tie_deletes() {
    let case = regressions::x_tie_deletes();
    in_process::<DynamicPst>(512, &case).unwrap_or_else(|e| panic!("x-tie deletes: {e}"));
}

/// A subject that does not report its len: `len()` counts a delete that
/// matched nothing.
struct LenUnchecked<S>(InProcess<S>);

impl<S: Structure> Subject for LenUnchecked<S> {
    fn update(&mut self, op: &gen::Op) -> Result<(), String> {
        self.0.update(op)
    }
    fn answer(&mut self, q: &gen::Query) -> Result<Vec<Point>, String> {
        self.0.answer(q)
    }
}

#[test]
fn regression_delete_matches_the_whole_point() {
    fn run<S: Structure>(shape: Shape) -> Res<()> {
        let (case, ghosts) = regressions::delete_matches_the_whole_point(shape);
        let mut subject = LenUnchecked(InProcess::<S>::build(512, &case.build)?);
        for ghost in ghosts {
            subject.update(&gen::Op::Delete(ghost))?;
        }
        drive(&mut subject, &case)
    }
    run::<DynamicPst>(Shape::TwoSided).unwrap_or_else(|e| panic!("dynamic PST: {e}"));
    run::<DynamicThreeSidedPst>(Shape::ThreeSided)
        .unwrap_or_else(|e| panic!("dynamic 3-sided PST: {e}"));
}

#[test]
fn regression_odd_skeletal_capacity_at_1_kib() {
    let case = regressions::odd_skeletal_capacity_at_1_kib();
    let mut pst = InProcess::<DynamicPst>::build(1024, &case.build).unwrap();
    let census = pst.s.page_census(&pst.store).unwrap();
    assert!(census.skeletal > 1, "regions on more than one skeletal page: {census:?}");
    drive(&mut pst, &case).unwrap_or_else(|e| panic!("1 KiB: {e}"));
}

/// A dynamic structure in process whose every insert of an outlier — an x
/// at an end of `i64`, an id at the end of `u64` — may write at most
/// `2·(⌈log_B n⌉ + 1) + 2` pages, `B` the block codec's guaranteed count
/// at the page size: the form of [`WritesBounded`]. The outlier costs the
/// blocks it lands in wider columns.
///
/// History. A structure used to store every record at one byte width per
/// field, its frame, chosen at build and carried in the handle and the
/// 27-byte descriptor; a frame only widened. An update naming a point the
/// frame did not hold gathered the live points, freed every page and
/// rebuilt under the wider frame (`DynamicPst::widen_for`; a 3-sided
/// structure rebuilt at once), and `B` stayed low for good: one served
/// insert at `i64::MAX` rewrote all 5 904 pages of the benchmark's dynamic
/// PST and left `B` ≈ 270. At most 21 such rebuilds in a structure's life
/// kept Thm 5.1's amortised bound; the regression that held it,
/// `regression_widening_twice`, widened a structure twice and checked it
/// stayed wide. Each block now carries its own widths: there is no frame
/// to widen.
struct OutliersBounded<S>(InProcess<S>);

impl<S: Structure> Subject for OutliersBounded<S> {
    fn update(&mut self, op: &gen::Op) -> Result<(), String> {
        let before = self.0.store.stats().writes;
        self.0.update(op)?;
        let writes = self.0.store.stats().writes - before;
        let m = min_records::<Point>(self.0.store.page_size()) as f64;
        let bound = 2 * ((self.0.s.len().max(2) as f64).log(m).ceil() as u64 + 1) + 2;
        match op {
            gen::Op::Insert(p) if (p.x == i64::MAX || p.id == u64::MAX) && writes > bound => {
                Err(format!("the outlier {p:?} wrote {writes} pages, the bound is {bound}"))
            }
            _ => Ok(()),
        }
    }
    fn answer(&mut self, q: &gen::Query) -> Result<Vec<Point>, String> {
        self.0.answer(q)
    }
    fn len(&mut self) -> Option<u64> {
        self.0.len()
    }
}

/// Each dynamic PST in process at every page size with its outlier inserts'
/// writes bounded, served with every epoch read `as_of`, and after two
/// seeded kills.
#[test]
fn regression_outlier_costs_bytes_not_a_rebuild() {
    for (shape, name) in
        [(Shape::TwoSided, "dynamic PST"), (Shape::ThreeSided, "dynamic 3-sided PST")]
    {
        let n = if shape == Shape::TwoSided { 50_000 } else { 8_000 };
        let case = regressions::outlier_costs_bytes_not_a_rebuild(shape, n);
        for page_size in PAGES {
            let what = format!("{name}'s outliers at {page_size} B");
            let result = match shape {
                Shape::TwoSided => {
                    let pst = InProcess::<DynamicPst>::build(page_size, &case.build).unwrap();
                    if page_size == 512 {
                        let regions = pst.s.page_census(&pst.store).unwrap().y_lists / 3;
                        assert!(regions >= 200, "{regions} regions");
                    }
                    drive(&mut OutliersBounded(pst), &case)
                }
                _ => {
                    let pst = InProcess::<DynamicThreeSidedPst>::build(page_size, &case.build);
                    drive(&mut OutliersBounded(pst.unwrap()), &case)
                }
            };
            result.unwrap_or_else(|e| panic!("{what}: {e}"));
        }
        // Served and recovered, every epoch read `as_of`: the case's ops
        // over a tenth of its build.
        let case = regressions::outlier_costs_bytes_not_a_rebuild(shape, n / 10);
        let kind = KINDS.iter().find(|kind| kind.name == name).expect("a served kind");
        paths::served(kind, &case).unwrap_or_else(|e| panic!("{name}'s outliers, served: {e}"));
        for seed in [0, 1] {
            let recovered = match shape {
                Shape::TwoSided => paths::recovered::<DynamicPst>(&case, seed),
                _ => paths::recovered::<DynamicThreeSidedPst>(&case, seed),
            };
            recovered.unwrap_or_else(|e| panic!("{name}'s outliers, recovered (seed {seed}): {e}"));
        }
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
/// seeded kills, one recovering through checkpoints. The PSTs' outliers
/// are [`regression_outlier_costs_bytes_not_a_rebuild`]'s.
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
