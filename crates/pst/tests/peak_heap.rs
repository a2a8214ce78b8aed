//! The builds' working memory: the peak live heap of a `DynamicPst` and a
//! `ThreeSidedPst` build, over 50k points at 4 KiB pages on a file-backed
//! strict store (its pages live in the file, not on the heap), as a
//! multiple of the input's bytes. The bounds are the multiples measured
//! once the decomposition split its orders in place, plus 10%; a build
//! that copied its points at every tree level stood at 3.76 on both. Pinned
//! with a global allocator that counts per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pc_pagestore::{PageStore, Point};
use pc_pst::{DynamicPst, ThreeSidedPst};
use pc_rng::Rng;

/// System allocator with per-thread live and peak byte counts. Per thread,
/// because the harness runs this binary's tests on parallel threads.
struct Counting;

thread_local! {
    // Const-initialised and without a destructor: touching them from
    // inside the allocator neither allocates nor registers anything.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    // `try_with`: a thread that is tearing down may still free or allocate
    // after its locals are gone.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: delegates everything to `System`; the counters are thread-local
// cells with no other side effects.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const N: usize = 50_000;
const PAGE: usize = 4096;

/// Peak live heap over the input's bytes, as measured, plus 10%.
const DYNAMIC_BOUND: f64 = 2.231 * 1.1;
const THREE_SIDED_BOUND: f64 = 1.897 * 1.1;

/// The peak live heap `f` reaches above the heap at its start, over the
/// bytes of `N` points.
fn peak_over_input(f: impl FnOnce()) -> f64 {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    f();
    let peak = PEAK.with(Cell::get) - start;
    peak as f64 / (N * std::mem::size_of::<Point>()) as f64
}

/// The peak of `build` over a fresh file-backed strict store, whose file
/// (and, once empty, directory) is removed after.
fn peak_of_build(name: &str, build: impl FnOnce(&PageStore, &[Point])) -> f64 {
    let points = points();
    let dir = std::env::temp_dir().join(format!("pc-peak-heap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let store = PageStore::file(&path, PAGE).unwrap();
    let multiple = peak_over_input(|| build(&store, &points));
    drop(store);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
    multiple
}

fn points() -> Vec<Point> {
    let mut rng = Rng::seed_from_u64(40);
    let coord = |rng: &mut Rng| rng.gen_range(0..1_000_000i64);
    (0..N as u64).map(|id| Point::new(coord(&mut rng), coord(&mut rng), id)).collect()
}

#[test]
fn dynamic_build_peak_heap() {
    let multiple = peak_of_build("dynamic", |store, points| {
        DynamicPst::build(store, points).unwrap();
    });
    assert!(multiple <= DYNAMIC_BOUND, "peak live heap {multiple:.2}× the input's bytes");
}

#[test]
fn three_sided_build_peak_heap() {
    let multiple = peak_of_build("three-sided", |store, points| {
        ThreeSidedPst::build(store, points).unwrap();
    });
    assert!(multiple <= THREE_SIDED_BOUND, "peak live heap {multiple:.2}× the input's bytes");
}
