#![cfg(test)]
//! What the test modules of this crate share: points drawn from `pc_rng`,
//! the one answer order, a strict store that logs its reads, and the layout
//! walkers. The walkers
//! ([`check_core_caches`], [`in_page_paths`]) are written against the page
//! bytes and the record formats alone, not against `region`: they are the
//! reference the substrate is checked against.

use std::sync::{Arc, Mutex};

use pc_pagestore::backend::{Backend, MemBackend};
use pc_pagestore::layout::BlockList;
use pc_pagestore::store::CHECKSUM_LEN;
use pc_pagestore::{Frame, Framed, PageId, PageStore, Point, Result, StoreConfig};
use pc_rng::Rng;

use crate::build::{points_capacity, CacheMode, Kind, PstHandle, SkeletalRecord};
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

/// The frames a test that builds its geometry by hand runs at: today's
/// fixed-width records and the benchmark data's.
pub(crate) const FRAMES: [Frame; 2] = [Frame::WIDE, Frame::new(3, 3, 3)];

/// Record counts of a list's blocks, in chain order.
pub(crate) fn block_sizes<R: Framed>(
    store: &PageStore,
    frame: Frame,
    list: &BlockList<R>,
) -> Vec<usize> {
    list.blocks(store, frame).map(|b| b.unwrap().len()).collect()
}

/// Asserts that `list` copies `full` whole nodes plus `rest` further
/// entries and occupies exactly `full` blocks of `B`, then one partial
/// block if `rest > 0`.
pub(crate) fn assert_cache_blocks<R: Framed>(
    store: &PageStore,
    frame: Frame,
    list: &BlockList<R>,
    full: usize,
    rest: usize,
    what: &str,
) {
    let b = points_capacity(store.page_size(), frame);
    assert_block_sizes(b, &block_sizes(store, frame, list), full, rest, what);
}

/// [`assert_cache_blocks`] on the record counts of a list's blocks.
pub(crate) fn assert_block_sizes(b: usize, sizes: &[usize], full: usize, rest: usize, what: &str) {
    assert!(rest < b, "{what}: {rest} loose entries is a block or more");
    let mut want = vec![b; full];
    want.extend((rest > 0).then_some(rest));
    assert_eq!(sizes, want, "{what}");
}

/// Walks a single-level structure and checks every cache against the
/// block unit: a node's `child_a` is one whole block per covered source
/// of its children — the covered ancestors and the node, which all have
/// children and so hold exactly `B` points — and its `left_s` is the
/// points of the left child's covered right siblings in whole blocks but
/// the last; both are empty where no child continues the segment.
/// Returns `(nodes, full nodes)`.
pub(crate) fn check_core_caches(store: &PageStore, core: &PstHandle) -> (usize, usize) {
    struct Visit {
        at: NodeRef,
        /// Covered ancestors, and the sizes of their right siblings on
        /// the left-going steps.
        covered: usize,
        sibs: Vec<u16>,
    }
    let PstHandle { root: root_page, kind: Kind::Basic(mode), frame, .. } = *core else {
        panic!("a region tree has no points pages");
    };
    let b = points_capacity(store.page_size(), frame);
    let (mut nodes, mut full) = (0, 0);
    let root = NodeRef { page: root_page, slot: 0 };
    let mut stack = vec![Visit { at: root, covered: 0, sibs: Vec::new() }];
    while let Some(f) = stack.pop() {
        let rec = SkeletalRecord::at(&store.read(f.at.page).unwrap(), f.at.slot).unwrap();
        nodes += 1;
        full += usize::from(rec.own_cnt as usize == b);
        let covers = |child: NodeRef| match mode {
            _ if child.page.is_null() => false,
            CacheMode::None => false,
            CacheMode::FullPath => true,
            CacheMode::InPage => child.page == f.at.page,
        };
        let mut left_sibs = f.sibs.clone();
        left_sibs.push(rec.right_cnt);
        let (sources, copied) = match covers(rec.left) {
            true => (f.covered + 1, left_sibs.iter().map(|&c| c as usize).sum()),
            false => (0, 0),
        };
        assert_cache_blocks(store, frame, &rec.child_a, sources, 0, "child_a");
        assert_cache_blocks(store, frame, &rec.left_s, copied / b, copied % b, "left_s");
        for (child, sibs) in [(rec.left, left_sibs), (rec.right, f.sibs)] {
            if covers(child) {
                stack.push(Visit { at: child, covered: f.covered + 1, sibs });
            } else if !child.page.is_null() {
                stack.push(Visit { at: child, covered: 0, sibs: Vec::new() });
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
