#![cfg(test)]
//! What the test modules of this crate share: points drawn from `pc_rng`,
//! the one answer order, a strict store that logs its reads, and the layout
//! walkers. The walkers
//! ([`check_core_caches`], [`in_page_paths`]) are written against the page
//! bytes and the record formats alone, not against `region`: they are the
//! reference the substrate is checked against.

use std::sync::{Arc, Mutex};

use pc_pagestore::backend::{Backend, MemBackend};
use pc_pagestore::layout::{BlockList, Columns};
use pc_pagestore::store::CHECKSUM_LEN;
use pc_pagestore::{PageId, PageStore, Point, Result, StoreConfig};
use pc_rng::Rng;

use crate::build::{CacheMode, Kind, PstHandle, SkeletalRecord};
use crate::region::{NodeRef, SkelRecord};
use crate::two_level::RegionRecord;

/// `n` points with ids `0..n`, both coordinates uniform in `0..domain`.
pub(crate) fn uniform_points(rng: &mut Rng, n: usize, domain: i64) -> Vec<Point> {
    let mut coord = || rng.gen_range(0..domain);
    (0..n as u64).map(|id| Point::new(coord(), coord(), id)).collect()
}

/// `points` in one order, `(x, y, id)`: answers compare as multisets of
/// whole records.
pub(crate) fn canonical(mut points: Vec<Point>) -> Vec<Point> {
    points.sort_unstable_by_key(|p| (p.x, p.y, p.id));
    points
}

struct LoggingBackend {
    inner: MemBackend,
    log: Arc<Mutex<Vec<PageId>>>,
}

impl Backend for LoggingBackend {
    fn frame_size(&self) -> usize {
        self.inner.frame_size()
    }
    fn read_frame(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        self.log.lock().unwrap().push(id);
        self.inner.read_frame(id, buf)
    }
    fn write_frame(&self, id: PageId, buf: &[u8]) -> Result<()> {
        self.inner.write_frame(id, buf)
    }
    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
    fn frame_count(&self) -> u64 {
        self.inner.frame_count()
    }
}

/// A strict in-memory store that logs the page of every read.
pub(crate) struct LoggedStore {
    pub(crate) store: PageStore,
    log: Arc<Mutex<Vec<PageId>>>,
}

impl LoggedStore {
    pub(crate) fn new(page_size: usize) -> LoggedStore {
        let log = Arc::new(Mutex::new(Vec::new()));
        let inner = MemBackend::new(page_size + CHECKSUM_LEN);
        let backend = LoggingBackend { inner, log: Arc::clone(&log) };
        let store = PageStore::new(StoreConfig::strict(page_size), Box::new(backend));
        LoggedStore { store, log }
    }

    /// Runs `f` and returns what it returns with the pages it read, in
    /// order.
    pub(crate) fn reads_of<T>(&self, f: impl FnOnce(&PageStore) -> T) -> (T, Vec<PageId>) {
        self.log.lock().unwrap().clear();
        let out = f(&self.store);
        (out, std::mem::take(&mut self.log.lock().unwrap()))
    }
}

/// `n` points with pairwise distinct x and pairwise distinct y.
pub(crate) fn distinct_points(n: usize) -> Vec<Point> {
    (0..n as u64)
        .map(|i| Point::new((i * 7919 % 100_003) as i64, (i * 104_729 % 99_991) as i64, i))
        .collect()
}

/// `points` stretched order-preservingly over all 64 bits of every field:
/// the widest blocks a geometry test runs at, beside the points as given.
pub(crate) fn wide(points: &[Point]) -> Vec<Point> {
    points.iter().map(|p| Point::new(p.x << 44, p.y << 44, p.id | 1 << 63)).collect()
}

/// Record counts of a list's blocks, in chain order.
pub(crate) fn block_sizes<R: Columns>(store: &PageStore, list: &BlockList<R>) -> Vec<usize> {
    list.blocks(store).map(|b| b.unwrap().len()).collect()
}

/// Asserts that `list` holds the `records` entries a cache over `sources`
/// whole blocks or nodes copies, in at most `sources + ⌈sources/8⌉` blocks
/// (DESIGN §4.5: the block codec re-blocks the merged records, whose tags
/// and wider ranges cost a few bits each — one block more than the sources
/// on every 2-sided cache measured, 38 over 35 on a 3-sided A-list).
pub(crate) fn assert_cache_blocks<R: Columns>(
    store: &PageStore,
    list: &BlockList<R>,
    records: usize,
    sources: usize,
    what: &str,
) {
    let sizes = block_sizes(store, list);
    assert_eq!(sizes.iter().sum::<usize>(), records, "{what}: {sizes:?}");
    let bound = sources + sources.div_ceil(8);
    assert!(sizes.len() <= bound, "{what}: {sizes:?} over {sources} sources");
}

/// Walks a single-level structure and checks every cache against the
/// block unit: a node's `child_a` copies the points of every covered source
/// of its children — the covered ancestors and the node, whole — and its
/// `left_s` those of the left child's covered right siblings, each within
/// [`assert_cache_blocks`]' bound; both are
/// empty where no child continues the segment. Returns `(nodes, nodes with
/// children)`.
pub(crate) fn check_core_caches(store: &PageStore, core: &PstHandle) -> (usize, usize) {
    struct Visit {
        at: NodeRef,
        /// The point counts of the covered ancestors, and of their right
        /// siblings on the left-going steps.
        covered: Vec<u16>,
        sibs: Vec<u16>,
    }
    let PstHandle { root: root_page, kind: Kind::Basic(mode), .. } = *core else {
        panic!("a region tree has no points pages");
    };
    let (mut nodes, mut full) = (0, 0);
    let root = NodeRef { page: root_page, slot: 0 };
    let mut stack = vec![Visit { at: root, covered: Vec::new(), sibs: Vec::new() }];
    while let Some(f) = stack.pop() {
        let rec = SkeletalRecord::at(&store.read(f.at.page).unwrap(), f.at.slot).unwrap();
        nodes += 1;
        full += usize::from(!rec.left.page.is_null());
        let covers = |child: NodeRef| match mode {
            _ if child.page.is_null() => false,
            CacheMode::None => false,
            CacheMode::FullPath => true,
            CacheMode::InPage => child.page == f.at.page,
        };
        let mut left_sibs = f.sibs.clone();
        left_sibs.push(rec.right_cnt);
        let mut covered = f.covered.clone();
        covered.push(rec.own_cnt);
        let total = |counts: &[u16]| counts.iter().map(|&c| usize::from(c)).sum::<usize>();
        let ([a, a_sources], [s, s_sources]) = match covers(rec.left) {
            true => ([total(&covered), covered.len()], [total(&left_sibs), left_sibs.len()]),
            false => ([0; 2], [0; 2]),
        };
        assert_cache_blocks(store, &rec.child_a, a, a_sources, "child_a");
        assert_cache_blocks(store, &rec.left_s, s, s_sources, "left_s");
        for (child, sibs) in [(rec.left, left_sibs), (rec.right, f.sibs)] {
            if covers(child) {
                stack.push(Visit { at: child, covered: covered.clone(), sibs });
            } else if !child.page.is_null() {
                stack.push(Visit { at: child, covered: Vec::new(), sibs: Vec::new() });
            }
        }
    }
    (nodes, full)
}

/// For every record of skeletal page `page`, its in-page path from slot
/// 0: (ancestor's slot, whether the path went left there), top down.
pub(crate) fn in_page_paths(page: PageId, records: &[RegionRecord]) -> Vec<Vec<(usize, bool)>> {
    let mut paths = vec![Vec::new(); records.len()];
    // Slots are in breadth-first order: a parent's is below its children's.
    for (slot, rec) in records.iter().enumerate() {
        for (child, went_left) in [(rec.left, true), (rec.right, false)] {
            if child.page == page {
                paths[child.slot as usize] = paths[slot].clone();
                paths[child.slot as usize].push((slot, went_left));
            }
        }
    }
    paths
}
