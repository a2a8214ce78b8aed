//! The paper-experiment harness: one sub-command per experiment in
//! DESIGN.md's index (E1–E20), each regenerating the measurements recorded
//! in EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p pc-bench --bin experiments            # all
//! cargo run --release -p pc-bench --bin experiments -- e7 e12  # subset
//! ```
//!
//! All measurements are page-transfer counts in the strict I/O model
//! (pool-less [`PageStore`]); the paper's bounds are printed alongside.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pc_bench::{
    basic_constants, dynamic_churn_pages, f1, f2, interval_tree_constants, log_base,
    multilevel_constants, segmented_constants, three_sided_constants, to_intervals, to_points,
    two_level_constants, Spread, Table, TwoSidedConstants, TwoSidedPin, TwoSidedPst, BASIC_PINS,
    DYNAMIC_CHURN_FACTOR, INTERVAL_TREE_PINS, LADDER_PIN_SIZES, MULTILEVEL_PINS, SEGMENTED_PINS,
    THREE_SIDED_PINS, TWO_LEVEL_PINS, TWO_LEVEL_PIN_SIZES, TWO_LEVEL_SPACE_C, WIDE_PIN_SIZE,
};
use pc_pagestore::backend::MemBackend;
use pc_pagestore::{
    FaultBackend, FaultPlan, Frame, Interval, MirrorBackend, RetryPolicy, StoreConfig, StoreError,
};
use pc_rng::Rng;
use pc_btree::BTree;
use pc_intervaltree::ExternalIntervalTree;
use pc_pagestore::{PageStore, Point};
use pc_pst::{
    BasicPst, DynamicPst, DynamicThreeSidedPst, MultilevelPst, NaivePst, SegmentedPst,
    ThreeSided, ThreeSidedPst, TwoLevelPst, TwoSided,
};
use pc_segtree::{CachedSegmentTree, NaiveSegmentTree};
use pc_workloads::{
    gen_intervals, gen_points, gen_range_1d, gen_stabbing, gen_three_sided, gen_two_sided,
    IntervalDist, PointDist,
};

const PAGE: usize = 4096;
/// Records per block at PAGE bytes in `pc-segtree`, which stores intervals
/// at their full 24 bytes.
const B: f64 = 170.0;
/// The block unit at PAGE bytes of a PST storing its points at `frame`:
/// cache entries per block, which is also the points per node (408 at 4 KiB
/// for the generators' 20-bit data from 65 536 ids on, 163 at `Frame::WIDE`).
fn b_pst(frame: Frame) -> f64 {
    pc_pst::block_capacity(PAGE, frame) as f64
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = [
        "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13",
        "e14", "e15", "e16", "e17", "e18", "e20",
    ];
    let selected: Vec<&str> = if args.is_empty() {
        all.to_vec()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    let mut within_pins = true;
    for exp in selected {
        match exp {
            "e1" => e1_btree_baseline(),
            "e2" => e2_wasteful_ios(),
            "e3" => e3_segment_tree(),
            "e4" => within_pins &= e4_interval_tree(),
            "e5" => within_pins &= e5_basic_pst(),
            "e6" => within_pins &= e6_segmented_pst(),
            "e7" => within_pins &= e7_two_level_pst(),
            "e8" => within_pins &= e8_multilevel_space(),
            "e9" => within_pins &= e9_three_sided(),
            "e10" => within_pins &= e10_dynamic_pst(),
            "e11" => e11_dynamic_three_sided(),
            "e12" => e12_naive_vs_cached(),
            "e13" => e13_interval_management(),
            "e14" => within_pins &= e14_tradeoff_table(),
            "e15" => e15_parallel_throughput(),
            "e16" => e16_buffer_pool(),
            "e17" => e17_page_size_ablation(),
            "e18" => e18_chaos_resilience(),
            "e20" => e20_crash_durability(),
            other => eprintln!("unknown experiment {other}"),
        }
    }
    if !within_pins {
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// E1: B+-tree 1-d optimality (the bar the paper matches in 2-d)
// ---------------------------------------------------------------------------
fn e1_btree_baseline() {
    println!("## E1 — B+-tree: 1-d range search baseline (§1)\n");
    println!("point/update I/O vs ceil(log_B n); range I/O vs log_B n + t/B\n");
    let mut table = Table::new(&[
        "n", "log_B n", "point I/O", "update I/O", "t", "range I/O", "t/B",
    ]);
    for n in [10_000usize, 100_000, 1_000_000] {
        let store = PageStore::in_memory(PAGE);
        let keys: Vec<i64> = (0..n as i64).map(|k| k * 3).collect();
        let entries: Vec<(i64, u64)> = keys.iter().map(|&k| (k, k as u64)).collect();
        let mut tree = BTree::bulk_build(&store, &entries).unwrap();

        let t_target = 20_000.min(n / 2);
        let queries = gen_range_1d(&keys, 50, t_target, 1);
        store.reset_stats();
        let mut t_total = 0usize;
        for q in &queries {
            t_total += tree.range(&store, &q.lo, &q.hi).unwrap().len();
        }
        let range_io = store.stats().reads as f64 / queries.len() as f64;
        let t_avg = t_total as f64 / queries.len() as f64;

        store.reset_stats();
        for i in 0..50i64 {
            tree.get(&store, &(i * 97 % n as i64)).unwrap();
        }
        let point_io = store.stats().reads as f64 / 50.0;

        store.reset_stats();
        for i in 0..50i64 {
            tree.insert(&store, i * 3 + 1, 7).unwrap();
        }
        let update_io = store.stats().total_io() as f64 / 50.0;

        // Leaf entries are (i64, u64): B_leaf = (4096-19)/16 = 254.
        let b_leaf = 254.0;
        table.row(vec![
            n.to_string(),
            f1(log_base(n as f64, b_leaf)),
            f1(point_io),
            f1(update_io),
            f1(t_avg),
            f1(range_io),
            f1(t_avg / b_leaf),
        ]);
    }
    table.print();
}

// ---------------------------------------------------------------------------
// E2: Figure 3 — wasteful vs useful I/Os, naive vs path-cached segment tree
// ---------------------------------------------------------------------------
fn e2_wasteful_ios() {
    println!("## E2 — Figure 3: underfull cover-lists cause wasteful I/Os (§2)\n");
    let mut table = Table::new(&[
        "n", "variant", "search I/O", "useful I/O", "wasteful I/O", "t",
    ]);
    for n in [10_000usize, 50_000, 200_000] {
        let raw = gen_intervals(n, IntervalDist::UniformLen { max_len: 40_000 }, 2);
        let intervals = to_intervals(&raw);
        let store = PageStore::in_memory(PAGE);
        let naive = NaiveSegmentTree::build(&store, &intervals).unwrap();
        let cached = CachedSegmentTree::build(&store, &intervals).unwrap();
        let stabs = gen_stabbing(&raw, 100, 3);
        for (label, is_cached) in [("naive", false), ("cached", true)] {
            let (mut search, mut useful, mut wasteful, mut t) = (0u64, 0u64, 0u64, 0usize);
            for q in &stabs {
                let p = if is_cached {
                    cached.stab_profiled(&store, q.q).unwrap()
                } else {
                    naive.stab_profiled(&store, q.q).unwrap()
                };
                search += p.search_ios;
                useful += p.useful_ios;
                wasteful += p.wasteful_ios;
                t += p.results.len();
            }
            let nq = stabs.len() as f64;
            table.row(vec![
                n.to_string(),
                label.to_string(),
                f1(search as f64 / nq),
                f1(useful as f64 / nq),
                f1(wasteful as f64 / nq),
                f1(t as f64 / nq),
            ]);
        }
    }
    table.print();
}

// ---------------------------------------------------------------------------
// E3: Theorem 3.4 — external segment tree bounds
// ---------------------------------------------------------------------------
fn e3_segment_tree() {
    println!("## E3 — Theorem 3.4: path-cached segment tree\n");
    println!("query O(log_B n + t/B); space O((n/B) log n) blocks\n");
    let mut table = Table::new(&[
        "n", "pages", "(n/B)·log2 n", "avg t", "avg query I/O", "log_B n + t/B",
    ]);
    for n in [10_000usize, 50_000, 200_000] {
        let raw = gen_intervals(n, IntervalDist::UniformLen { max_len: 20_000 }, 4);
        let intervals = to_intervals(&raw);
        let store = PageStore::in_memory(PAGE);
        let tree = CachedSegmentTree::build(&store, &intervals).unwrap();
        let pages = store.live_pages();
        let stabs = gen_stabbing(&raw, 100, 5);
        store.reset_stats();
        let mut t_total = 0usize;
        for q in &stabs {
            t_total += tree.stab(&store, q.q).unwrap().len();
        }
        let io = store.stats().reads as f64 / stabs.len() as f64;
        let t_avg = t_total as f64 / stabs.len() as f64;
        table.row(vec![
            n.to_string(),
            pages.to_string(),
            f1(n as f64 / B * (n as f64).log2()),
            f1(t_avg),
            f1(io),
            f1(log_base(n as f64, B) + t_avg / B),
        ]);
    }
    table.print();
}

// ---------------------------------------------------------------------------
// E4: Theorem 3.5 — external interval tree bounds
// ---------------------------------------------------------------------------
/// Returns whether the pinned geometries stayed within [`INTERVAL_TREE_PINS`].
fn e4_interval_tree() -> bool {
    println!("## E4 — Theorem 3.5: path-cached interval tree\n");
    println!("query O(log_B n + t/B); space O((n/B) log B) blocks\n");
    let mut table = Table::new(&[
        "n", "frame", "B", "pages", "(n/B)·log2 B", "avg t", "avg query I/O", "log_B n + t/B",
    ]);
    for n in [10_000usize, 50_000, 200_000] {
        let raw = gen_intervals(n, IntervalDist::UniformLen { max_len: 20_000 }, 6);
        let intervals = to_intervals(&raw);
        let store = PageStore::in_memory(PAGE);
        let tree = ExternalIntervalTree::build(&store, &intervals).unwrap();
        let b = pc_intervaltree::block_capacity(PAGE, tree.frame()) as f64;
        let pages = store.live_pages();
        let stabs = gen_stabbing(&raw, 100, 7);
        store.reset_stats();
        let mut t_total = 0usize;
        for q in &stabs {
            t_total += tree.stab(&store, q.q).unwrap().len();
        }
        let io = store.stats().reads as f64 / stabs.len() as f64;
        let t_avg = t_total as f64 / stabs.len() as f64;
        table.row(vec![
            n.to_string(),
            tree.frame().to_string(),
            b.to_string(),
            pages.to_string(),
            f1(n as f64 / b * b.log2()),
            f1(t_avg),
            f1(io),
            f1(log_base(n as f64, b) + t_avg / b),
        ]);
    }
    table.print();

    println!(
        "pinned constants at n = 40 000, on the generated data and on the same data \
         stretched over all 64 bits: pages <= c·(n/B)·log2 B, \
         every stab's reads <= c1·ceil(log_B n) + 2·ceil(t/B)\n"
    );
    let mut table = Table::new(&["data", "B", "avg t", "pages", "c", "c pin", "c1", "c1 pin"]);
    let mut within_pins = true;
    for spread in Spread::BOTH {
        for (t_mean, c_pin, c1_pin) in INTERVAL_TREE_PINS[spread as usize] {
            let (b, pages, c, c1) = interval_tree_constants(t_mean, spread);
            if c > c_pin || c1 > c1_pin {
                eprintln!(
                    "E4: at t ≈ {t_mean} ({spread:?}) the interval tree measures c = {c:.3}, \
                     c1 = {c1:.3}, pinned at {c_pin} and {c1_pin} (tests/layout_bounds.rs)"
                );
                within_pins = false;
            }
            let mut row =
                vec![format!("{spread:?}"), b.to_string(), t_mean.to_string(), pages.to_string()];
            row.extend([c, c_pin, c1, c1_pin].map(|v| format!("{v:.3}")));
            table.row(row);
        }
    }
    table.print();
    within_pins
}

// ---------------------------------------------------------------------------
// Shared 2-sided PST experiment body
// ---------------------------------------------------------------------------
/// A column that breaks a structure's pages down: its label and its cell.
type ByClass<'a, P> = (&'a str, fn(&P, &PageStore) -> String);

/// `space_pred` takes `(n, B)`.
fn pst_experiment<P: TwoSidedPst>(
    space_label: &str,
    space_pred: fn(f64, f64) -> f64,
    by_class: Option<ByClass<'_, P>>,
) {
    let mut headers =
        vec!["n", "frame", "B", "pages", space_label, "avg t", "avg query I/O", "log_B n + t/B"];
    headers.extend(by_class.map(|(label, _)| label));
    let mut table = Table::new(&headers);
    for n in [20_000usize, 100_000, 400_000] {
        let raw = gen_points(n, PointDist::Uniform, 8);
        let points = to_points(&raw);
        let store = PageStore::in_memory(PAGE);
        let pst = P::build_on(&store, &points);
        let b = b_pst(pst.stored_at());
        let pages = store.live_pages();
        let queries = gen_two_sided(&raw, 100, n / 50, 9);
        store.reset_stats();
        let mut t_total = 0usize;
        for q in &queries {
            t_total += pst.counted(&store, TwoSided { x0: q.x0, y0: q.y0 }).0;
        }
        let io = store.stats().reads as f64 / queries.len() as f64;
        let t_avg = t_total as f64 / queries.len() as f64;
        let mut row = vec![
            n.to_string(),
            pst.stored_at().to_string(),
            b.to_string(),
            pages.to_string(),
            f1(space_pred(n as f64, b)),
            f1(t_avg),
            f1(io),
            f1(log_base(n as f64, b) + t_avg / b),
        ];
        row.extend(by_class.map(|(_, describe)| describe(&pst, &store)));
        table.row(row);
    }
    table.print();
}

/// Prints a 2-sided structure's constants at the sizes its pins are the
/// worst over, and returns whether they stayed within them.
fn pinned_two_sided(
    exp: &str,
    unit: &str,
    sizes: &[u64],
    pins: [TwoSidedPin; 2],
    measure: fn(u64, Spread) -> TwoSidedConstants,
) -> bool {
    println!("pinned constants (uniform, 4 KiB), on the generated data and, at one size, on");
    println!("the same data stretched over all 64 bits: pages <= c·{unit} and reads <=");
    println!("c1·ceil(log_B n) + 2·ceil(t/B), worst of 150 corners\n");
    let mut table = Table::new(&[
        "data", "n", "B", "pages", "c", "pin", "c1 t≈16", "pin", "c1 t≈4096", "pin",
    ]);
    let mut within = true;
    for spread in Spread::BOTH {
        let (c_pin, c1_pins) = pins[spread as usize];
        let sizes = if spread == Spread::Full { &[WIDE_PIN_SIZE] } else { sizes };
        for &n in sizes {
            let TwoSidedConstants { b, pages, c, c1 } = measure(n, spread);
            table.row(vec![
                format!("{spread:?}"),
                n.to_string(),
                b.to_string(),
                pages.to_string(),
                format!("{c:.3}"),
                format!("{c_pin:.3}"),
                f2(c1[0]),
                f2(c1_pins[0].1),
                f2(c1[1]),
                f2(c1_pins[1].1),
            ]);
            within &= c <= c_pin && c1.iter().zip(c1_pins).all(|(got, (_, pin))| *got <= pin);
        }
    }
    table.print();
    if !within {
        eprintln!("{exp}: the structure passed its pinned constants (tests/layout_bounds.rs)");
    }
    within
}

/// A two-level or dynamic PST's pages by class, in the order of the
/// `REGION_CLASSES` column label.
const REGION_CLASSES: &str = "skeletal/X/Y/A/S + inner skeletal/points/caches + buffers";
fn by_region_class(c: &pc_pst::RegionCensus) -> String {
    format!(
        "{}/{}/{}/{}/{} + {}/{}/{} + {}",
        c.skeletal,
        c.x_lists,
        c.y_lists,
        c.a_caches,
        c.s_caches,
        c.inner_skeletal,
        c.inner_points,
        c.inner_caches,
        c.buffers
    )
}

/// Returns whether the pinned geometries stayed within [`BASIC_PINS`].
fn e5_basic_pst() -> bool {
    println!("## E5 — Lemma 3.1: basic PST, full-path A/S caches\n");
    println!("query O(log_B n + t/B); space O((n/B) log n) blocks\n");
    pst_experiment::<BasicPst>("(n/B)·log2 n", |n, b| n / b * n.log2(), None);
    pinned_two_sided("E5", "(n/B)·log2 n", &LADDER_PIN_SIZES, BASIC_PINS, basic_constants)
}

/// Returns whether the pinned geometries stayed within [`SEGMENTED_PINS`].
fn e6_segmented_pst() -> bool {
    println!("## E6 — Theorem 3.2: segmented PST, log B-sized cache segments\n");
    println!("query O(log_B n + t/B); space O((n/B) log B) blocks\n");
    pst_experiment::<SegmentedPst>("(n/B)·log2 B", |n, b| n / b * b.log2(), None);
    pinned_two_sided("E6", "(n/B)·log2 B", &LADDER_PIN_SIZES, SEGMENTED_PINS, segmented_constants)
}

/// Returns whether the pinned geometries stayed within [`TWO_LEVEL_PINS`].
fn e7_two_level_pst() -> bool {
    println!("## E7 — Theorem 4.3: two-level recursive PST\n");
    println!("query O(log_B n + t/B); space O((n/B) loglog B) blocks\n");
    pst_experiment::<TwoLevelPst>(
        "(n/B)·loglog2 B",
        |n, b| n / b * b.log2().log2(),
        Some((REGION_CLASSES, |pst, store| by_region_class(&pst.page_census(store).unwrap()))),
    );
    let unit = "(n/B)·log2 log2 B";
    pinned_two_sided("E7", unit, &TWO_LEVEL_PIN_SIZES, TWO_LEVEL_PINS, two_level_constants)
}

// ---------------------------------------------------------------------------
// E8: Theorem 4.4 — multilevel space scaling
// ---------------------------------------------------------------------------
/// Returns whether the pinned geometries stayed within [`MULTILEVEL_PINS`].
fn e8_multilevel_space() -> bool {
    println!("## E8 — Theorem 4.4: multilevel scheme, space vs level count\n");
    println!("levels 1 (basic, log n) .. k (log^(k) B), saturating at log* B\n");
    let n = 200_000usize;
    let raw = gen_points(n, PointDist::Uniform, 10);
    let points = to_points(&raw);
    let queries = gen_two_sided(&raw, 60, n / 50, 11);
    let mut table =
        Table::new(&["levels", "B", "pages", "pages/(n/B)", "avg query I/O", "avg t"]);
    for levels in 1..=4u32 {
        let store = PageStore::in_memory(PAGE);
        let pst = MultilevelPst::build(&store, &points, levels).unwrap();
        let b = b_pst(pst.frame());
        let pages = store.live_pages();
        store.reset_stats();
        let mut t_total = 0usize;
        for q in &queries {
            t_total += pst.query(&store, TwoSided { x0: q.x0, y0: q.y0 }).unwrap().len();
        }
        let io = store.stats().reads as f64 / queries.len() as f64;
        table.row(vec![
            levels.to_string(),
            b.to_string(),
            pages.to_string(),
            f2(pages as f64 / (n as f64 / b)),
            f1(io),
            f1(t_total as f64 / queries.len() as f64),
        ]);
    }
    table.print();
    println!("three levels:");
    pinned_two_sided("E8", "n/B", &LADDER_PIN_SIZES, MULTILEVEL_PINS, multilevel_constants)
}

// ---------------------------------------------------------------------------
// E9: Theorem 3.3 — 3-sided queries
// ---------------------------------------------------------------------------
/// Returns whether the pinned geometry stayed within [`THREE_SIDED_PINS`].
fn e9_three_sided() -> bool {
    println!("## E9 — Theorem 3.3: 3-sided PST\n");
    println!("query O(log_B n + t/B); space O((n/B) log^2 B) blocks\n");
    let mut table = Table::new(&[
        "n",
        "frame",
        "B",
        "pages",
        "skeletal/Y/A/S/directory",
        "(n/B)·log2²B",
        "avg t",
        "avg query I/O",
        "log_B n + t/B",
    ]);
    let by_class = |c: &pc_pst::PageCensus| {
        format!("{}/{}/{}/{}/{}", c.skeletal, c.y_lists, c.a_lists, c.s_lists, c.directories)
    };
    for n in [20_000usize, 100_000, 400_000] {
        let raw = gen_points(n, PointDist::Uniform, 12);
        let points = to_points(&raw);
        let store = PageStore::in_memory(PAGE);
        let pst = ThreeSidedPst::build(&store, &points).unwrap();
        let pages = store.live_pages();
        let census = pst.page_census(&store).unwrap();
        let b = census.block_capacity as f64;
        let queries = gen_three_sided(&raw, 100, n / 50, 13);
        store.reset_stats();
        let mut t_total = 0usize;
        for q in &queries {
            t_total += pst
                .query(&store, ThreeSided { x1: q.x1, x2: q.x2, y0: q.y0 })
                .unwrap()
                .len();
        }
        let io = store.stats().reads as f64 / queries.len() as f64;
        let t_avg = t_total as f64 / queries.len() as f64;
        table.row(vec![
            n.to_string(),
            census.frame.to_string(),
            b.to_string(),
            pages.to_string(),
            by_class(&census),
            f1(n as f64 / b * b.log2() * b.log2()),
            f1(t_avg),
            f1(io),
            f1(log_base(n as f64, b) + t_avg / b),
        ]);
    }
    table.print();

    println!("pinned geometries (uniform, 4 KiB), on the generated data and, at its peak, on the");
    println!("same data stretched over all 64 bits; the first size of either is the peak of its");
    println!("space sawtooth, 15 full nodes and 16 leaves of one point: the constants of");
    println!("pages <= c·(n/B)·log2²B and reads <= c1·ceil(log_B n) + 2·ceil(t/B),");
    println!("worst of 150 queries\n");
    let mut pinned = Table::new(&[
        "data", "n", "B", "pages", "skeletal/Y/A/S/directory", "c", "pin", "c1 t≈16", "pin",
        "c1 t≈4096", "pin",
    ]);
    let mut within = true;
    for (spread, &(n, c_pin, c1_pins)) in Spread::BOTH
        .into_iter()
        .flat_map(|s| THREE_SIDED_PINS[s as usize].iter().map(move |pin| (s, pin)))
    {
        let (census, c, c1) = three_sided_constants(n, spread);
        pinned.row(vec![
            format!("{spread:?}"),
            n.to_string(),
            census.block_capacity.to_string(),
            census.total().to_string(),
            by_class(&census),
            format!("{c:.3}"),
            format!("{c_pin:.3}"),
            f2(c1[0]),
            f2(c1_pins[0].1),
            f2(c1[1]),
            f2(c1_pins[1].1),
        ]);
        within &= c <= c_pin && c1.iter().zip(c1_pins).all(|(got, (_, pin))| *got <= pin);
    }
    pinned.print();
    if !within {
        eprintln!("E9: the 3-sided PST passed its pinned constants");
    }
    within
}

// ---------------------------------------------------------------------------
// E10: Theorem 5.1 — dynamic PST
// ---------------------------------------------------------------------------
/// Returns whether the churn workload stayed within [`DYNAMIC_CHURN_FACTOR`].
fn e10_dynamic_pst() -> bool {
    println!("## E10 — Theorem 5.1: dynamic two-level PST\n");
    println!("amortized update O(log_B n); queries stay O(log_B n + t/B) under churn\n");
    let mut table = Table::new(&[
        "n",
        "frame",
        "B",
        "insert I/O",
        "delete I/O",
        "log_B n",
        "query I/O (dirty)",
        "avg t",
        "pages/(n/B)",
        REGION_CLASSES,
    ]);
    for n in [20_000usize, 100_000, 400_000] {
        let raw = gen_points(n, PointDist::Uniform, 14);
        let points = to_points(&raw);
        let store = PageStore::in_memory(PAGE);
        let mut pst = DynamicPst::build(&store, &points).unwrap();

        // Fresh ids follow the initial ones: none needs a wider frame than
        // the build chose (n = 20 000: two id bytes), so no update rebuilds
        // the structure to widen it.
        let updates = (n / 10).clamp(1_000, 20_000);
        let extra = to_points(&gen_points(updates, PointDist::Uniform, 15));
        store.reset_stats();
        for (i, p) in extra.iter().enumerate() {
            pst.insert(&store, Point::new(p.x, p.y, (n + i) as u64)).unwrap();
        }
        let ins_io = store.stats().total_io() as f64 / updates as f64;

        store.reset_stats();
        for (i, p) in extra.iter().enumerate() {
            pst.delete(&store, Point::new(p.x, p.y, (n + i) as u64)).unwrap();
        }
        let del_io = store.stats().total_io() as f64 / updates as f64;
        let census = pst.page_census(&store).unwrap();
        let b = census.block_capacity as f64;

        // Queries against the churned structure (buffers non-empty).
        let queries = gen_two_sided(&raw, 60, n / 50, 16);
        store.reset_stats();
        let mut t_total = 0usize;
        for q in &queries {
            t_total += pst.query(&store, TwoSided { x0: q.x0, y0: q.y0 }).unwrap().len();
        }
        let q_io = store.stats().reads as f64 / queries.len() as f64;
        table.row(vec![
            n.to_string(),
            census.frame.to_string(),
            b.to_string(),
            f1(ins_io),
            f1(del_io),
            f1(log_base(n as f64, b)),
            f1(q_io),
            f1(t_total as f64 / queries.len() as f64),
            f2(store.live_pages() as f64 / (n as f64 / b)),
            by_region_class(&census),
        ]);
    }
    table.print();

    let mut within = true;
    for spread in Spread::BOTH {
        let pin = DYNAMIC_CHURN_FACTOR[spread as usize];
        let (b, after, fresh) = dynamic_churn_pages(spread);
        let factor = after as f64 / fresh as f64;
        println!(
            "space under churn (20k insert/delete pairs on 50k points, {spread:?} data, B = {b}): \
             {after} pages against {fresh} of a fresh build, factor {factor:.3}, pinned at {pin}\n"
        );
        if factor > pin {
            eprintln!(
                "E10: the dynamic PST drifted past its pinned churn factor (tests/layout_bounds.rs)"
            );
        }
        within &= factor <= pin;
    }
    within
}

// ---------------------------------------------------------------------------
// E11: Theorem 5.2 — dynamic 3-sided
// ---------------------------------------------------------------------------
fn e11_dynamic_three_sided() {
    println!("## E11 — Theorem 5.2: dynamic 3-sided PST\n");
    println!("queries optimal; amortized update cost reported (buffer+rebuild scheme)\n");
    let mut table =
        Table::new(&["n", "B", "update I/O", "query I/O", "avg t", "paper bound log_B n·log²B"]);
    for n in [20_000usize, 100_000] {
        let raw = gen_points(n, PointDist::Uniform, 17);
        let points = to_points(&raw);
        let store = PageStore::in_memory(PAGE);
        let mut pst = DynamicThreeSidedPst::build(&store, &points).unwrap();
        // Fresh ids follow the initial ones, in the frame the build chose.
        let b = b_pst(Frame::of(&points));
        let updates = 2_000usize;
        let extra = to_points(&gen_points(updates, PointDist::Uniform, 18));
        store.reset_stats();
        for (i, p) in extra.iter().enumerate() {
            pst.insert(&store, Point::new(p.x, p.y, (n + i) as u64)).unwrap();
        }
        let upd_io = store.stats().total_io() as f64 / updates as f64;
        let queries = gen_three_sided(&raw, 40, n / 50, 19);
        store.reset_stats();
        let mut t_total = 0usize;
        for q in &queries {
            t_total += pst
                .query(&store, ThreeSided { x1: q.x1, x2: q.x2, y0: q.y0 })
                .unwrap()
                .len();
        }
        let q_io = store.stats().reads as f64 / queries.len() as f64;
        table.row(vec![
            n.to_string(),
            b.to_string(),
            f1(upd_io),
            f1(q_io),
            f1(t_total as f64 / queries.len() as f64),
            f1(log_base(n as f64, b) * b.log2() * b.log2()),
        ]);
    }
    table.print();
}

// ---------------------------------------------------------------------------
// E12: naive [IKO] vs path-cached — the headline comparison
// ---------------------------------------------------------------------------
fn e12_naive_vs_cached() {
    println!("## E12 — naive [IKO] vs path-cached PST: the log n vs log_B n gap\n");
    println!("small-t queries at growing n; output terms cancel, navigation dominates");
    println!("waste/q = per-query wasteful transfers (pc-obs span classifier)\n");
    let mut table = Table::new(&[
        "n",
        "t",
        "naive I/O",
        "seg I/O",
        "two-lvl I/O",
        "naive waste/q",
        "seg waste/q",
        "B",
        "log2(n/B)",
        "log_B n",
    ]);
    for n in [50_000usize, 200_000, 800_000] {
        let raw = gen_points(n, PointDist::Uniform, 20);
        let points = to_points(&raw);
        let store = PageStore::in_memory(PAGE);
        let naive = NaivePst::build(&store, &points).unwrap();
        let seg = SegmentedPst::build(&store, &points).unwrap();
        let two = TwoLevelPst::build(&store, &points).unwrap();
        let b = b_pst(two.frame());
        // Deep corner, empty output: x0 beyond the domain, y0 = 0.
        let queries: Vec<TwoSided> =
            (0..30).map(|i| TwoSided { x0: 1_000_001 + i, y0: 0 }).collect();
        let mut ios = Vec::new();
        let mut wastes = Vec::new();
        let mut t_avg = 0.0;
        type Run<'a> = &'a dyn Fn(TwoSided) -> usize;
        let runs: [Run<'_>; 3] = [
            &|q| naive.counted(&store, q).0,
            &|q| seg.counted(&store, q).0,
            &|q| two.counted(&store, q).0,
        ];
        for run in runs {
            store.reset_stats();
            let mut waste = 0u64;
            let mut t_total = 0usize;
            for q in &queries {
                let capture = pc_obs::begin_trace();
                t_total += run(*q);
                waste += capture.finish().map_or(0, |trace| trace.wasteful_ios);
            }
            ios.push(store.stats().reads as f64 / queries.len() as f64);
            wastes.push(waste as f64 / queries.len() as f64);
            t_avg = t_total as f64 / queries.len() as f64;
        }
        table.row(vec![
            n.to_string(),
            f1(t_avg),
            f1(ios[0]),
            f1(ios[1]),
            f1(ios[2]),
            f1(wastes[0]),
            f1(wastes[1]),
            b.to_string(),
            f1((n as f64 / b).log2()),
            f1(log_base(n as f64, b)),
        ]);
    }
    table.print();
}

// ---------------------------------------------------------------------------
// E13: interval management end-to-end (§1 application)
// ---------------------------------------------------------------------------
fn e13_interval_management() {
    println!("## E13 — dynamic interval management: stabbing query shoot-out (§1)\n");
    println!("PST reduction vs B-tree-on-lo scan vs full scan\n");
    let n = 200_000usize;
    let raw = gen_intervals(n, IntervalDist::LongTail, 21);
    let intervals = to_intervals(&raw);
    let stabs = gen_stabbing(&raw, 50, 22);

    // Path-cached (KRV reduction over the segmented PST, static build).
    let store = PageStore::in_memory(PAGE);
    let points: Vec<Point> =
        intervals.iter().map(|iv| Point::new(-iv.lo, iv.hi, iv.id)).collect();
    let pst = SegmentedPst::build(&store, &points).unwrap();
    // The PST's block; the B-tree's leaves hold 254 16-byte entries.
    let b = b_pst(pst.frame());
    store.reset_stats();
    let mut t_total = 0usize;
    for q in &stabs {
        t_total += pst.query(&store, TwoSided { x0: -q.q, y0: q.q }).unwrap().len();
    }
    let pst_io = store.stats().reads as f64 / stabs.len() as f64;
    let t_avg = t_total as f64 / stabs.len() as f64;

    // B-tree on lo: scan every interval with lo <= q, filter hi >= q.
    let store2 = PageStore::in_memory(PAGE);
    let mut entries: Vec<(i64, u64)> = Vec::new();
    {
        // Make keys unique by packing the id into low bits.
        for iv in &intervals {
            entries.push((iv.lo * (n as i64 + 1) + iv.id as i64, iv.id));
        }
        entries.sort_unstable();
    }
    let btree = BTree::bulk_build(&store2, &entries).unwrap();
    store2.reset_stats();
    for q in &stabs {
        let hi_key = (q.q + 1) * (n as i64 + 1) - 1;
        let _hits = btree.range(&store2, &i64::MIN, &hi_key).unwrap();
    }
    let btree_io = store2.stats().reads as f64 / stabs.len() as f64;

    // Full scan: n/B pages per query by definition.
    let scan_io = n as f64 / b;

    println!("B = {b} (points stored at {})\n", pst.frame());
    let mut table = Table::new(&["method", "avg stab I/O", "avg t", "t/B"]);
    table.row(vec!["path-cached PST".into(), f1(pst_io), f1(t_avg), f1(t_avg / b)]);
    table.row(vec!["B-tree on lo (scan+filter)".into(), f1(btree_io), f1(t_avg), f1(t_avg / b)]);
    table.row(vec!["full scan".into(), f1(scan_io), f1(t_avg), f1(t_avg / b)]);
    table.print();
}

// ---------------------------------------------------------------------------
// E14: the space/time trade-off table (§6)
// ---------------------------------------------------------------------------
/// Returns whether the two-level row stayed within [`TWO_LEVEL_SPACE_C`].
fn e14_tradeoff_table() -> bool {
    println!("## E14 — space/time trade-offs across all variants (§6)\n");
    let n = 200_000usize;
    let raw = gen_points(n, PointDist::Uniform, 23);
    let points = to_points(&raw);
    let queries: Vec<TwoSided> = gen_two_sided(&raw, 60, n / 50, 24)
        .iter()
        .map(|q| TwoSided { x0: q.x0, y0: q.y0 })
        .collect();
    // One data set, so one frame and one B for every variant.
    let frame = Frame::of(&points);
    let b = b_pst(frame);
    println!("points stored at {frame}: B = {b}\n");
    let mut table = Table::new(&[
        "variant", "paper space", "pages", "blocks/point·B", "avg query I/O", "avg t",
    ]);
    /// Builds `P` and returns its pages, mean reads per query and mean t.
    fn measure<P: TwoSidedPst>(points: &[Point], queries: &[TwoSided]) -> (u64, f64, f64) {
        let store = PageStore::in_memory(PAGE);
        let pst = P::build_on(&store, points);
        assert_eq!(pst.stored_at(), Frame::of(points));
        let pages = store.live_pages();
        store.reset_stats();
        let t_total: usize = queries.iter().map(|q| pst.counted(&store, *q).0).sum();
        let nq = queries.len() as f64;
        (pages, store.stats().reads as f64 / nq, t_total as f64 / nq)
    }
    type Measure = fn(&[Point], &[TwoSided]) -> (u64, f64, f64);
    let variants: [(&str, &str, Measure); 5] = [
        ("naive [IKO]", "n/B", measure::<NaivePst>),
        ("basic (Lem 3.1)", "(n/B)·log n", measure::<BasicPst>),
        ("segmented (Thm 3.2)", "(n/B)·log B", measure::<SegmentedPst>),
        ("two-level (Thm 4.3)", "(n/B)·loglog B", measure::<TwoLevelPst>),
        ("3-level (Thm 4.4)", "(n/B)·log*B", measure::<MultilevelPst>),
    ];
    let mut within_pin = true;
    for (label, paper, measure) in variants {
        let (pages, io, t_avg) = measure(&points, &queries);
        if label.starts_with("two-level") {
            let units = pages as f64 / (n as f64 / b * b.log2().log2());
            if units > TWO_LEVEL_SPACE_C {
                eprintln!(
                    "E14: two-level space is {units:.3} units of (n/B)·loglog B, \
                     pinned at {TWO_LEVEL_SPACE_C} (tests/layout_bounds.rs)"
                );
                within_pin = false;
            }
        }
        table.row(vec![
            label.to_string(),
            paper.to_string(),
            pages.to_string(),
            f2(pages as f64 / (n as f64 / b)),
            f1(io),
            f1(t_avg),
        ]);
    }
    table.print();
    within_pin
}

// ---------------------------------------------------------------------------
// E15: parallel query throughput (beyond the paper: the substrate is Sync)
// ---------------------------------------------------------------------------
fn e15_parallel_throughput() {
    println!("## E15 — parallel query throughput (substrate extension)\n");
    println!("the paper's model is single-threaded; this checks the engineering\n");
    let n = 200_000usize;
    let raw = gen_points(n, PointDist::Uniform, 25);
    let points = to_points(&raw);
    let store = PageStore::in_memory(PAGE);
    let pst = TwoLevelPst::build(&store, &points).unwrap();
    let queries = gen_two_sided(&raw, 256, n / 100, 26);
    let mut table = Table::new(&["threads", "queries/s", "speedup"]);
    let mut base = 0.0f64;
    for threads in [1usize, 2, 4, 8] {
        let start = std::time::Instant::now();
        let rounds = 4usize;
        std::thread::scope(|s| {
            for tid in 0..threads {
                let pst = &pst;
                let store = &store;
                let queries = &queries;
                s.spawn(move || {
                    for r in 0..rounds {
                        for (i, q) in queries.iter().enumerate() {
                            if (i + r + tid) % threads == tid {
                                pst.query(store, TwoSided { x0: q.x0, y0: q.y0 }).unwrap();
                            }
                        }
                    }
                });
            }
        });
        let total = (queries.len() * rounds) as f64;
        let qps = total / start.elapsed().as_secs_f64();
        if threads == 1 {
            base = qps;
        }
        table.row(vec![threads.to_string(), f1(qps), f2(qps / base)]);
    }
    table.print();
}

// ---------------------------------------------------------------------------
// E16: buffer pool vs the strict model (substrate extension)
// ---------------------------------------------------------------------------
fn e16_buffer_pool() {
    println!("## E16 — buffer pool vs strict model (substrate extension)\n");
    println!("hot pages (skeletal roots, caches) absorb backend reads\n");
    let n = 200_000usize;
    let raw = gen_points(n, PointDist::Uniform, 27);
    let points = to_points(&raw);
    let queries = gen_two_sided(&raw, 200, n / 100, 28);
    let mut table = Table::new(&[
        "pool pages",
        "shards",
        "backend reads/query",
        "hits/query",
        "hit rate",
        "evictions/query",
    ]);
    for pool in [0usize, 64, 256, 1024, 4096] {
        let store = if pool == 0 {
            PageStore::in_memory(PAGE)
        } else {
            PageStore::in_memory_pooled(PAGE, pool)
        };
        let pst = SegmentedPst::build(&store, &points).unwrap();
        store.reset_stats();
        for q in &queries {
            pst.query(&store, TwoSided { x0: q.x0, y0: q.y0 }).unwrap();
        }
        let s = store.stats();
        let nq = queries.len() as f64;
        let rate = if s.reads + s.cache_hits > 0 {
            s.cache_hits as f64 / (s.reads + s.cache_hits) as f64
        } else {
            0.0
        };
        table.row(vec![
            pool.to_string(),
            store.pool_shards().to_string(),
            f1(s.reads as f64 / nq),
            f1(s.cache_hits as f64 / nq),
            f2(rate),
            f1(s.pool_evictions as f64 / nq),
        ]);
    }
    table.print();
}

// ---------------------------------------------------------------------------
// E17: ablation — how the block size B shifts the naive/cached gap
// ---------------------------------------------------------------------------
fn e17_page_size_ablation() {
    println!("## E17 — ablation: page size B vs the naive/cached navigation gap\n");
    println!("t = 0 deep-corner queries. naive pays ~log2(n/B); cached pays a few\n\
              reads per skeletal segment, and segments hold ~log2(B) binary levels —\n\
              so the cached advantage grows with B\n");
    let n = 200_000usize;
    let raw = gen_points(n, PointDist::Uniform, 29);
    let points = to_points(&raw);
    let mut table = Table::new(&[
        "page bytes", "B", "naive I/O", "segmented I/O", "gap", "segmented pages",
    ]);
    for page in [512usize, 1024, 2048, 4096, 8192] {
        let store = PageStore::in_memory(page);
        let naive = NaivePst::build(&store, &points).unwrap();
        let seg_store = PageStore::in_memory(page);
        let seg = SegmentedPst::build(&seg_store, &points).unwrap();
        let queries: Vec<TwoSided> =
            (0..20).map(|i| TwoSided { x0: 1_000_001 + i, y0: 0 }).collect();
        store.reset_stats();
        for q in &queries {
            naive.query(&store, *q).unwrap();
        }
        let naive_io = store.stats().reads as f64 / queries.len() as f64;
        seg_store.reset_stats();
        for q in &queries {
            seg.query(&seg_store, *q).unwrap();
        }
        let seg_io = seg_store.stats().reads as f64 / queries.len() as f64;
        let b = pc_pst::block_capacity(page, seg.frame());
        table.row(vec![
            page.to_string(),
            b.to_string(),
            f1(naive_io),
            f1(seg_io),
            f2(naive_io / seg_io),
            seg_store.live_pages().to_string(),
        ]);
    }
    table.print();
}

// ---------------------------------------------------------------------------
// E18: chaos — seeded fault injection across every structure
// ---------------------------------------------------------------------------

/// One structure's deterministic chaos workload: build + mutate + query,
/// one canonical log line per completed operation. Randomness comes from
/// the seed alone (never the store), so the op sequence is identical with
/// and without faults and the fault-free log is a golden reference.
type ChaosScenario = fn(&PageStore, u64, &mut Vec<String>) -> Result<(), StoreError>;

fn chaos_ids(mut ids: Vec<u64>) -> String {
    ids.sort_unstable();
    format!("{ids:?}")
}

fn chaos_points(rng: &mut Rng, n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| Point::new(rng.gen_range(0i64..400), rng.gen_range(0i64..400), i as u64))
        .collect()
}

fn chaos_intervals(rng: &mut Rng, n: usize) -> Vec<Interval> {
    (0..n)
        .map(|i| {
            let lo = rng.gen_range(0i64..400);
            Interval::new(lo, lo + rng.gen_range(0i64..120), i as u64)
        })
        .collect()
}

fn chaos_btree(store: &PageStore, seed: u64, log: &mut Vec<String>) -> Result<(), StoreError> {
    let mut rng = Rng::seed_from_u64(seed ^ 0xb7ee);
    let mut entries: Vec<(i64, u64)> =
        (0..300).map(|_| rng.gen_range(-500i64..500)).map(|k| (k, k.unsigned_abs())).collect();
    entries.sort_unstable();
    entries.dedup_by_key(|e| e.0);
    let mut tree = BTree::bulk_build(store, &entries)?;
    for _ in 0..50 {
        let k = rng.gen_range(-600i64..600);
        tree.insert(store, k, k.unsigned_abs())?;
        log.push(format!("insert {k} len={}", tree.len()));
    }
    for _ in 0..15 {
        let k = rng.gen_range(-600i64..600);
        log.push(format!("delete {k}: {:?}", tree.delete(store, &k)?));
    }
    for _ in 0..15 {
        let lo = rng.gen_range(-650i64..650);
        let hi = lo + rng.gen_range(0i64..300);
        log.push(format!("range {lo}..={hi}: {:?}", tree.range(store, &lo, &hi)?));
    }
    Ok(())
}

fn chaos_stab<T>(
    build: impl FnOnce(&PageStore, &[Interval]) -> pc_pagestore::Result<T>,
    stab: impl Fn(&T, &PageStore, i64) -> pc_pagestore::Result<Vec<Interval>>,
    salt: u64,
) -> impl FnOnce(&PageStore, u64, &mut Vec<String>) -> Result<(), StoreError> {
    move |store, seed, log| {
        let mut rng = Rng::seed_from_u64(seed ^ salt);
        let intervals = chaos_intervals(&mut rng, 200);
        let tree = build(store, &intervals)?;
        for _ in 0..20 {
            let q = rng.gen_range(-20i64..540);
            let got = stab(&tree, store, q)?;
            log.push(format!("stab {q}: {}", chaos_ids(got.iter().map(|iv| iv.id).collect())));
        }
        Ok(())
    }
}

fn chaos_naive_segtree(s: &PageStore, seed: u64, l: &mut Vec<String>) -> Result<(), StoreError> {
    chaos_stab(NaiveSegmentTree::build, |t, s, q| t.stab(s, q), 0x5e67)(s, seed, l)
}

fn chaos_cached_segtree(s: &PageStore, seed: u64, l: &mut Vec<String>) -> Result<(), StoreError> {
    chaos_stab(CachedSegmentTree::build, |t, s, q| t.stab(s, q), 0xcac4)(s, seed, l)
}

fn chaos_interval_tree(s: &PageStore, seed: u64, l: &mut Vec<String>) -> Result<(), StoreError> {
    chaos_stab(ExternalIntervalTree::build, |t, s, q| t.stab(s, q), 0x17ee)(s, seed, l)
}

fn chaos_two_sided<T>(
    build: impl FnOnce(&PageStore, &[Point]) -> pc_pagestore::Result<T>,
    query: impl Fn(&T, &PageStore, TwoSided) -> pc_pagestore::Result<Vec<Point>>,
    salt: u64,
) -> impl FnOnce(&PageStore, u64, &mut Vec<String>) -> Result<(), StoreError> {
    move |store, seed, log| {
        let mut rng = Rng::seed_from_u64(seed ^ salt);
        let points = chaos_points(&mut rng, 300);
        let pst = build(store, &points)?;
        for _ in 0..20 {
            let q = TwoSided { x0: rng.gen_range(-20i64..420), y0: rng.gen_range(-20i64..420) };
            let got = query(&pst, store, q)?;
            log.push(format!("{q:?}: {}", chaos_ids(got.iter().map(|p| p.id).collect())));
        }
        Ok(())
    }
}

fn chaos_segmented_pst(s: &PageStore, seed: u64, l: &mut Vec<String>) -> Result<(), StoreError> {
    chaos_two_sided(SegmentedPst::build, |t, s, q| t.query(s, q), 0x5e91)(s, seed, l)
}

fn chaos_two_level_pst(s: &PageStore, seed: u64, l: &mut Vec<String>) -> Result<(), StoreError> {
    chaos_two_sided(TwoLevelPst::build, |t, s, q| t.query(s, q), 0x2011)(s, seed, l)
}

fn chaos_three_sided(store: &PageStore, seed: u64, log: &mut Vec<String>) -> Result<(), StoreError> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x3510);
    let points = chaos_points(&mut rng, 300);
    let pst = ThreeSidedPst::build(store, &points)?;
    for _ in 0..20 {
        let x1 = rng.gen_range(-20i64..420);
        let q =
            ThreeSided { x1, x2: x1 + rng.gen_range(0i64..200), y0: rng.gen_range(-20i64..420) };
        let got = pst.query(store, q)?;
        log.push(format!("{q:?}: {}", chaos_ids(got.iter().map(|p| p.id).collect())));
    }
    Ok(())
}

fn chaos_dynamic_pst(store: &PageStore, seed: u64, log: &mut Vec<String>) -> Result<(), StoreError> {
    let mut rng = Rng::seed_from_u64(seed ^ 0xd12d);
    let points = chaos_points(&mut rng, 240);
    let (base, rest) = points.split_at(140);
    let mut pst = DynamicPst::build(store, base)?;
    for &p in rest {
        pst.insert(store, p)?;
    }
    for p in points.iter().step_by(5) {
        pst.delete(store, *p)?;
    }
    for _ in 0..15 {
        let q = TwoSided { x0: rng.gen_range(-20i64..420), y0: rng.gen_range(-20i64..420) };
        let got = pst.query(store, q)?;
        log.push(format!("{q:?}: {}", chaos_ids(got.iter().map(|p| p.id).collect())));
    }
    Ok(())
}

fn chaos_dynamic_3s(store: &PageStore, seed: u64, log: &mut Vec<String>) -> Result<(), StoreError> {
    let mut rng = Rng::seed_from_u64(seed ^ 0xd35d);
    let points = chaos_points(&mut rng, 240);
    let (base, rest) = points.split_at(140);
    let mut pst = DynamicThreeSidedPst::build(store, base)?;
    for &p in rest {
        pst.insert(store, p)?;
    }
    for p in points.iter().step_by(7) {
        pst.delete(store, *p)?;
    }
    for _ in 0..15 {
        let x1 = rng.gen_range(-20i64..420);
        let q =
            ThreeSided { x1, x2: x1 + rng.gen_range(0i64..200), y0: rng.gen_range(-20i64..420) };
        let got = pst.query(store, q)?;
        log.push(format!("{q:?}: {}", chaos_ids(got.iter().map(|p| p.id).collect())));
    }
    Ok(())
}

/// Runs a chaos scenario, converting a panic into a counted outcome.
#[allow(clippy::type_complexity)]
fn chaos_run(
    f: ChaosScenario,
    store: &PageStore,
    seed: u64,
) -> (Vec<String>, Result<(), StoreError>, bool) {
    let mut log = Vec::new();
    match catch_unwind(AssertUnwindSafe(|| f(store, seed, &mut log))) {
        Ok(outcome) => (log, outcome, false),
        Err(_) => (log, Ok(()), true),
    }
}

fn e18_chaos_resilience() {
    println!("## E18 — chaos: seeded faults vs the retry/failover/repair layer (§9)\n");
    println!(
        "fixed seed {CHAOS_SEED:#x}; mirrored = 2 replicas, shared seed, phases 0.5 apart\n\
         (transients 1%, torn writes 4%), retries<=6: must be bit-identical to fault-free.\n\
         single = one backend, 1% each of transient/torn/rot faults, default retries: may\n\
         abort, but only cleanly and only after a correct prefix. mismatch + panics stay 0\n"
    );
    const CHAOS_SEED: u64 = 0x00C0_FFEE;
    let scenarios: &[(&str, ChaosScenario)] = &[
        ("btree", chaos_btree),
        ("naive-segtree", chaos_naive_segtree),
        ("cached-segtree", chaos_cached_segtree),
        ("interval-tree", chaos_interval_tree),
        ("segmented-pst", chaos_segmented_pst),
        ("two-level-pst", chaos_two_level_pst),
        ("three-sided-pst", chaos_three_sided),
        ("dynamic-pst", chaos_dynamic_pst),
        ("dynamic-3s-pst", chaos_dynamic_3s),
    ];
    let mut table = Table::new(&[
        "structure", "ops", "injected", "retries", "failovers", "repairs", "clean err",
        "mismatch", "panics",
    ]);
    for &(name, f) in scenarios {
        let golden_store = PageStore::in_memory(PAGE);
        let (golden, outcome, panicked) = chaos_run(f, &golden_store, CHAOS_SEED);
        assert!(outcome.is_ok() && !panicked, "fault-free golden run failed for {name}");

        let (mut mismatches, mut panics) = (0u64, 0u64);

        // Mirrored run: phased silent corruption must be fully masked.
        let plan_a = FaultPlan {
            read_transient_p: 0.01,
            write_transient_p: 0.01,
            torn_write_p: 0.04,
            ..FaultPlan::none(CHAOS_SEED)
        };
        let ra = FaultBackend::new(Box::new(MemBackend::new(PAGE + 8)), plan_a);
        let rb = FaultBackend::new(Box::new(MemBackend::new(PAGE + 8)), plan_a.with_phase(0.5));
        let (ha, hb) = (ra.handle(), rb.handle());
        let mirror = MirrorBackend::new(vec![Box::new(ra), Box::new(rb)]);
        let store = PageStore::new(
            StoreConfig::strict(PAGE).with_retry(RetryPolicy { max_attempts: 6, backoff: None }),
            Box::new(mirror),
        );
        let (log, outcome, panicked) = chaos_run(f, &store, CHAOS_SEED);
        panics += panicked as u64;
        if outcome.is_err() || (!panicked && log != golden) {
            mismatches += 1;
        }
        let s = store.stats();
        let mut injected = ha.injected().total() + hb.injected().total();
        let mut retries = s.retries;

        // Single-backend run: faults may surface, but only as clean errors
        // after a correct prefix.
        let plan = FaultPlan {
            read_transient_p: 0.01,
            write_transient_p: 0.01,
            torn_write_p: 0.01,
            bit_rot_p: 0.01,
            ..FaultPlan::none(CHAOS_SEED)
        };
        let single = FaultBackend::new(Box::new(MemBackend::new(PAGE + 8)), plan);
        let h = single.handle();
        let store = PageStore::new(
            StoreConfig::strict(PAGE).with_retry(RetryPolicy::default()),
            Box::new(single),
        );
        let (log, outcome, panicked) = chaos_run(f, &store, CHAOS_SEED);
        panics += panicked as u64;
        let clean_err = u64::from(!panicked && outcome.is_err());
        let prefix_ok = log.len() <= golden.len() && log[..] == golden[..log.len()];
        if !panicked && !prefix_ok {
            mismatches += 1;
        }
        injected += h.injected().total();
        retries += store.stats().retries;

        table.row(vec![
            name.to_string(),
            golden.len().to_string(),
            injected.to_string(),
            retries.to_string(),
            s.failovers.to_string(),
            s.repairs.to_string(),
            clean_err.to_string(),
            mismatches.to_string(),
            panics.to_string(),
        ]);
    }
    table.print();
}

// ---------------------------------------------------------------------------
// E20: crash durability — group-commit amortization + kill-point matrix
// ---------------------------------------------------------------------------

fn e20_crash_durability() {
    use std::sync::Arc;

    use pc_pagestore::{
        CrashBackend, CrashController, CrashLog, CrashPlan, WalConfig,
    };

    println!("## E20 — crash durability: ARIES-lite WAL, group commit, recovery (§10)\n");

    // Part 1: group commit amortizes one fsync over a whole update batch —
    // the serve layer's Thm 5.1 buffering, applied to durability cost.
    println!(
        "group-commit amortization: 256 page updates on a durable store,\n\
         committed in batches of k; fsyncs/update is the durability overhead\n"
    );
    let mut table = Table::new(&["batch k", "updates", "fsyncs", "fsyncs/update", "max group"]);
    for k in [1u64, 4, 16, 64] {
        let (store, _) = PageStore::in_memory_durable(PAGE);
        let ids: Vec<_> = (0..8).map(|_| store.alloc().unwrap()).collect();
        store.sync().unwrap();
        let base = store.wal_stats().unwrap().fsyncs;
        const UPDATES: u64 = 256;
        for u in 0..UPDATES {
            store.write(ids[(u % 8) as usize], &[u as u8; 128]).unwrap();
            if (u + 1) % k == 0 {
                store.commit_with(&u.to_le_bytes()).unwrap();
            }
        }
        let ws = store.wal_stats().unwrap();
        let fsyncs = ws.fsyncs - base;
        table.row(vec![
            k.to_string(),
            UPDATES.to_string(),
            fsyncs.to_string(),
            f2(fsyncs as f64 / UPDATES as f64),
            ws.max_group.to_string(),
        ]);
    }
    table.print();

    // Part 2: kill-point matrix. A mixed alloc/write/free workload commits
    // six batches over crash-simulated media; we kill it at every durable
    // I/O, recover from the seeded survivors, and check the recovered
    // store equals a committed batch prefix covering every acked batch.
    const SEED: u64 = 0x0dd5_eed5;
    const KPAGE: usize = 64;
    const KFRAME: usize = KPAGE + 8;
    let wal_cfg = WalConfig { checkpoint_bytes: 800 };
    let cfg = || StoreConfig::strict(KPAGE);
    let payload = |b: u8, s: u8| {
        let mut v = vec![b.wrapping_mul(16).wrapping_add(s); KPAGE];
        (v[0], v[1]) = (b, s);
        v
    };
    type PageImage = Vec<(pc_pagestore::PageId, Vec<u8>)>;
    let snapshot = |store: &PageStore| -> PageImage {
        store
            .allocated_pages()
            .into_iter()
            .map(|id| (id, store.read(id).unwrap().to_vec()))
            .collect()
    };
    let workload = |store: &PageStore, snaps: Option<&mut Vec<PageImage>>| -> u64 {
        let mut live = Vec::new();
        let mut acked = 0u64;
        let mut snaps = snaps;
        if let Some(s) = snaps.as_deref_mut() {
            s.push(snapshot(store));
        }
        for b in 0..6u8 {
            let step = || -> pc_pagestore::Result<()> {
                for s in 0..2u8 {
                    let id = store.alloc()?;
                    store.write(id, &payload(b, s))?;
                    live.push(id);
                }
                store.write(live[b as usize % live.len()], &payload(b, 0xF0))?;
                if b % 2 == 1 && live.len() > 3 {
                    store.free(live.remove(0))?;
                }
                store.commit_with(&[b])?;
                Ok(())
            }();
            match step {
                Ok(()) => {
                    acked += 1;
                    if let Some(s) = snaps.as_deref_mut() {
                        s.push(snapshot(store));
                    }
                }
                Err(_) => break,
            }
        }
        acked
    };

    let media = |kill_at: u64| {
        let ctrl = CrashController::new(CrashPlan { seed: SEED, kill_at });
        let backend = Arc::new(CrashBackend::new(KFRAME, ctrl.clone()));
        let log = Arc::new(CrashLog::new(ctrl.clone()));
        (ctrl, backend, log)
    };

    // Counting + reference pass.
    let (ctrl, backend, log) = media(0);
    let (store, _) = PageStore::new_durable(
        cfg(),
        Box::new(Arc::clone(&backend)),
        Box::new(Arc::clone(&log)),
        wal_cfg,
    )
    .unwrap();
    let mut snaps = Vec::new();
    workload(&store, Some(&mut snaps));
    let total = ctrl.ops();
    drop(store);

    let (mut recovered_ok, mut acked_survived, mut torn_tails, mut replayed) =
        (0u64, 0u64, 0u64, 0u64);
    for kill_at in 1..=total {
        let (_, backend, log) = media(kill_at);
        let acked = match PageStore::new_durable(
            cfg(),
            Box::new(Arc::clone(&backend)),
            Box::new(Arc::clone(&log)),
            wal_cfg,
        ) {
            Ok((store, _)) => workload(&store, None),
            Err(_) => 0,
        };
        if let Ok((store, report)) = PageStore::new_durable(
            cfg(),
            Box::new(backend.surviving_backend()),
            Box::new(log.surviving_log()),
            wal_cfg,
        ) {
            recovered_ok += 1;
            torn_tails += u64::from(report.torn_tail);
            replayed += report.replayed_records();
            let state = snapshot(&store);
            if let Some(idx) = snaps.iter().position(|s| s == &state) {
                if idx as u64 >= acked {
                    acked_survived += 1;
                }
            }
        }
    }
    println!(
        "\nkill-point matrix: seed {SEED:#x}, {total} durable I/Os ⇒ {total} kill points\n"
    );
    let mut table = Table::new(&[
        "kill points", "recovered", "acked survived", "torn WAL tails", "records replayed",
    ]);
    table.row(vec![
        total.to_string(),
        format!("{recovered_ok}/{total}"),
        format!("{acked_survived}/{total}"),
        torn_tails.to_string(),
        replayed.to_string(),
    ]);
    table.print();
    assert_eq!(recovered_ok, total, "recovery must succeed at every kill point");
    assert_eq!(acked_survived, total, "every acked batch must survive every kill point");
}
