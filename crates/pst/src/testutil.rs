#![cfg(test)]
//! What the test modules of this crate share: points drawn from `pc_rng`,
//! the one answer order, a strict store that logs its reads and writes, and
//! the layout walkers. The walkers
//! ([`check_core_caches`], [`in_page_paths`]) are written against the page
//! bytes and the record formats alone, not against `region`: they are the
//! reference the substrate is checked against.

use std::sync::{Arc, Mutex};

use pc_pagestore::backend::{Backend, MemBackend};
use pc_pagestore::layout::{Block, BlockList, Columns};
use pc_pagestore::skeleton::{NodeRef, SkelRecord, TailAt};
use pc_pagestore::store::CHECKSUM_LEN;
use pc_pagestore::{Page, PageId, PageStore, Point, Result, StoreConfig, NULL_PAGE};
use pc_rng::Rng;

use crate::build::{CacheMode, Kind, PointsPage, PstHandle, SkeletalRecord};
use crate::mem::TwoSided;
use crate::two_level::{query_handle, ListRef, RegionRecord};

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
    writes: Arc<Mutex<Vec<(PageId, bool)>>>,
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
        let zeros = buf[..buf.len() - CHECKSUM_LEN].iter().all(|&b| b == 0);
        self.writes.lock().unwrap().push((id, zeros));
        self.inner.write_frame(id, buf)
    }
    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
    fn frame_count(&self) -> u64 {
        self.inner.frame_count()
    }
}

/// A strict in-memory store that logs the page of every read and write.
pub(crate) struct LoggedStore {
    pub(crate) store: PageStore,
    log: Arc<Mutex<Vec<PageId>>>,
    writes: Arc<Mutex<Vec<(PageId, bool)>>>,
}

impl LoggedStore {
    pub(crate) fn new(page_size: usize) -> LoggedStore {
        let (log, writes) = (Arc::default(), Arc::default());
        let inner = MemBackend::new(page_size + CHECKSUM_LEN);
        let (log_to, writes_to) = (Arc::clone(&log), Arc::clone(&writes));
        let backend = LoggingBackend { inner, log: log_to, writes: writes_to };
        let store = PageStore::new(StoreConfig::strict(page_size), Box::new(backend));
        LoggedStore { store, log, writes }
    }

    /// Runs `f` and returns what it returns with the pages it wrote, in
    /// order, each with whether the write was all zeros: the store's
    /// zeroing of a recycled page, which `alloc` hands out again.
    pub(crate) fn writes_of<T>(&self, f: impl FnOnce(&PageStore) -> T) -> (T, Vec<(PageId, bool)>) {
        self.writes.lock().unwrap().clear();
        let out = f(&self.store);
        (out, std::mem::take(&mut self.writes.lock().unwrap()))
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

/// The blocks of `list`, which a record on the skeletal page of bytes
/// `page` names, and whether each is on a page of its own: its chain, the
/// last block in that page's tail where it rides there.
pub(crate) fn list_blocks<R: Columns>(
    store: &PageStore,
    page: &[u8],
    list: &BlockList<R>,
) -> Vec<(Vec<R>, bool)> {
    let mut blocks = Vec::new();
    let mut next = list.head();
    while !next.is_null() {
        let at = TailAt::decode(next.0);
        let holder = match at {
            TailAt::Page(id) => store.read(id).unwrap(),
            _ => Page::copy_from_slice(page),
        };
        let block = Block::parse::<R>(at.bytes(&holder).unwrap()).unwrap();
        blocks.push((block.to_vec(), matches!(at, TailAt::Page(_))));
        next = block.next;
    }
    blocks
}

/// The points of the node whose record on the skeletal page of bytes
/// `page` is `rec`: on their own page, or in that page's tail.
pub(crate) fn own_points(store: &PageStore, page: &[u8], rec: &SkeletalRecord) -> Vec<Point> {
    let holder = match rec.own_pts {
        TailAt::Page(id) => store.read(id).unwrap(),
        _ => Page::copy_from_slice(page),
    };
    PointsPage::parse(rec.own_pts.bytes(&holder).unwrap()).unwrap().points.to_vec()
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
    assert_block_sizes(&block_sizes(store, list), records, sources, what);
}

/// [`assert_cache_blocks`] of a list whose blocks hold `sizes` records.
fn assert_block_sizes(sizes: &[usize], records: usize, sources: usize, what: &str) {
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
        let page = store.read(f.at.page).unwrap();
        let rec = SkeletalRecord::at(&page, f.at.slot).unwrap();
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
        let sizes: Vec<usize> =
            list_blocks(store, &page, &rec.child_a).iter().map(|b| b.0.len()).collect();
        assert_block_sizes(&sizes, a, a_sources, "child_a");
        let sizes: Vec<usize> =
            list_blocks(store, &page, &rec.left_s).iter().map(|b| b.0.len()).collect();
        assert_block_sizes(&sizes, s, s_sources, "left_s");
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

/// The corner region of `q` in the region tree under `root` — by the walk's
/// rule, from the records alone — checked against what it cost when every
/// corner asked its inner structure, `query` being `q` asked of the whole
/// tree on the store it is given. `None` for an empty corner, which reads
/// nothing; else whether the corner answered from one block of its lists
/// (judged by the lists' own blocks, not by the record's edges). Where it
/// did, that block is the last page `query` reads and the path it replaced
/// — the corner's `u` and `query_handle` on its inner structure — reads at
/// least two pages (one, a `u` alone, where the inner tree is empty and its
/// points are all in `u`); where not, `query`'s reads end with that path's.
pub(crate) fn corner_cost(
    logged: &LoggedStore,
    root: PageId,
    q: TwoSided,
    query: impl FnOnce(&PageStore),
) -> Option<(bool, RegionRecord)> {
    let store = &logged.store;
    let mut at = NodeRef { page: root, slot: 0 };
    let corner = loop {
        let rec = RegionRecord::at(&store.read(at.page).unwrap(), at.slot).unwrap();
        if rec.own_cnt == 0 || rec.min_y_y < q.y0 || rec.left.page.is_null() {
            break rec;
        }
        at = if q.x0 <= rec.split_x { rec.left } else { rec.right };
    };
    let first_block = |list: ListRef| BlockList::<Point>::read_block(store, list.head).unwrap().0;
    let holds_all = |list: ListRef, key: fn(&Point) -> i64, bound: i64| {
        list.second.is_null() || first_block(list).last().is_some_and(|p| key(p) < bound)
    };
    let block = match corner.own_cnt {
        0 => None,
        _ if holds_all(corner.x_list, |p| p.x, q.x0) => Some(corner.x_list.head),
        _ => holds_all(corner.y_list, |p| p.y, q.y0).then_some(corner.y_list.head),
    };
    let mut replaced = Vec::from_iter([corner.u_buf].into_iter().filter(|u| !u.is_null()));
    let inner = |s: &PageStore| query_handle(s, corner.inner(), NULL_PAGE, q).unwrap();
    replaced.extend(logged.reads_of(inner).1);
    let ((), log) = logged.reads_of(query);
    let inner_pages = [corner.u_buf, corner.inner_root].into_iter().filter(|p| !p.is_null());
    if corner.own_cnt == 0 || block.is_some() {
        assert!(inner_pages.clone().all(|page| !log.contains(&page)), "the inner path was read");
    }
    match block {
        _ if corner.own_cnt == 0 => {
            let lists = [corner.x_list.head, corner.y_list.head];
            assert!(lists.iter().all(|head| !log.contains(head)), "an empty corner read a list");
            return None;
        }
        Some(head) => {
            assert_eq!(log.last(), Some(&head), "the corner's one block is read last");
            let floor = if corner.inner_root.is_null() { 1 } else { 2 };
            assert!(replaced.len() >= floor, "the inner path read {replaced:?}");
        }
        None => assert!(log.ends_with(&replaced), "{log:?} ends otherwise than {replaced:?}"),
    }
    Some((block.is_some(), corner))
}
