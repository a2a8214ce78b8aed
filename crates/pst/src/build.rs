//! External layout and construction of the single-level PST variants
//! (naive / Lemma 3.1 / Theorem 3.2).
//!
//! ## On-page layouts
//!
//! Every region (binary node) owns a **points page**, which also carries
//! the child links used by the descendant traversal so that visiting a
//! descendant costs exactly one I/O:
//!
//! ```text
//! points page: [count: u16][left_pts: u64][right_pts: u64]
//!              [left_cnt: u16][right_cnt: u16][point * count]
//! ```
//!
//! Navigation state lives in **skeletal pages** (Figure 2): binary subtrees
//! of height `h = ⌊log₂(capacity+1)⌋` packed one per page, with 130-byte
//! records:
//!
//! ```text
//! record: [split: Point][min_y: Point]
//!         [left_ref: u64+u16][right_ref: u64+u16]
//!         [own_pts: u64][own_cnt: u16]
//!         [left_pts: u64][left_cnt: u16][right_pts: u64][right_cnt: u16]
//!         [child_a: BlockList<Point>][left_s: BlockList<SEntry>]
//! ```
//!
//! ## Who owns which cache
//!
//! The paper defines a node's A-list by its *ancestors* and its S-list by
//! the right siblings of its *path* (§3), so two siblings have the same
//! A-list and a right child has its parent's S-list, depth tags included.
//! Each distinct list is therefore written once, in the record of the
//! parent: `child_a` is the A-list both children use (the covered
//! ancestors' points and the parent's own) and `left_s` the left child's
//! S-list (the parent's S-list plus the right child's points). Which
//! ancestors are covered depends on the [`CacheMode`]; a leaf, and a node
//! whose children open a new segment, holds two empty handles. The query
//! carries the pair `(cur_a, cur_s)` down its path — `child_a` on every
//! in-segment step, `left_s` on a left step, both empty again when a step
//! opens a segment — and drains that pair where it used to drain the
//! node's own lists, so it reads the same blocks.
//!
//! ## The block unit
//!
//! One number per structure instance, [`points_capacity`] of the page size
//! and the structure's [`Frame`], is the paper's `B` for the whole crate:
//! the entries a path-cache block holds. The frame — the byte widths the
//! instance's points are stored at — is chosen once, in `build`, as the
//! narrowest that holds them ([`Frame::of`]), and travels in the handle
//! ([`PstCore`]), never on a page. A node holds `B` points and every list
//! that is copied into a cache, or is one, is blocked `B` to a page
//! ([`blocked`]), so a cache over `k` full nodes is exactly `k` blocks.
//! `B` is the smaller of the points-page and `BlockList<SEntry>`
//! capacities (a `BlockList<Point>` page always holds more); the few bytes
//! the roomier layouts leave unused cost less than the extra block every
//! cache paid while a node held more points than a cache block. Skeletal
//! records are fixed-width whatever the frame.

use pc_pagestore::codec::{PageReader, PageWriter};
use pc_pagestore::layout::{unpack_records, BlockList};
use pc_pagestore::{Frame, Framed, PageId, PageStore, Point, Record, Result, NULL_PAGE};

use crate::mem::{cmp_x, cmp_y, MemPst, TwoSided, NONE};
use crate::query::{run_two_sided, QueryCounters};

/// Which path segments the per-node A/S caches cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// No caches at all: the [IKO] baseline (`O(log n + t/B)` queries).
    None,
    /// Caches cover the entire root path (Lemma 3.1,
    /// `O((n/B) log n)` space).
    FullPath,
    /// Caches cover only ancestors within the same skeletal page — the
    /// `log B`-segment scheme of Theorem 3.2 (`O((n/B) log B)` space).
    InPage,
}

/// An S-list entry: a sibling point tagged with the tree depth of the path
/// node whose right sibling contributed it, so queries can count
/// qualification per sibling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SEntry {
    /// The copied sibling point.
    pub p: Point,
    /// Depth of the path node (the sibling's parent).
    pub depth: u16,
}

impl Framed for SEntry {
    /// The tag is one byte on the page: the decomposition halves its
    /// x-range at every level, so depths stay below 64.
    const TAG: usize = 1;

    fn fields(&self) -> (i64, i64, u64) {
        self.p.fields()
    }

    fn pack_tag(&self, w: &mut PageWriter<'_>) -> Result<()> {
        w.put_u8(u8::try_from(self.depth).expect("path depths stay below 64"))
    }

    fn unpack_tagged((x, y, id): (i64, i64, u64), r: &mut PageReader<'_>) -> Result<Self> {
        Ok(SEntry { p: Point { x, y, id }, depth: u16::from(r.get_u8()?) })
    }
}

/// Byte size of one skeletal record.
pub const RECORD_LEN: usize = 24 + 24 + 10 + 10 + 8 + 2 + 8 + 2 + 8 + 2 + 16 + 16;
/// Skeletal page header size.
pub const PAGE_HEADER: usize = 2;
/// Points-page header size.
pub const POINTS_HEADER: usize = 2 + 8 + 8 + 2 + 2;

/// The block unit `B` of a structure storing its points at `frame`: points
/// per node, and entries per block of every A-, S-, X- and Y-list (see the
/// module header).
pub fn points_capacity(page_size: usize, frame: Frame) -> usize {
    let cap = ((page_size - POINTS_HEADER) / frame.record_len::<Point>())
        .min(BlockList::<SEntry>::capacity(page_size, frame));
    assert!(cap >= 2, "page size {page_size} too small for a PST points page");
    cap
}

/// Builds a list blocked [`points_capacity`] records to a page.
pub(crate) fn blocked<R: Framed>(
    store: &PageStore,
    frame: Frame,
    records: &[R],
) -> Result<BlockList<R>> {
    Ok(blocked_pages(store, frame, records)?.0)
}

/// [`blocked`], with the blocks' pages in chain order.
pub(crate) fn blocked_pages<R: Framed>(
    store: &PageStore,
    frame: Frame,
    records: &[R],
) -> Result<(BlockList<R>, Vec<PageId>)> {
    BlockList::build_blocked(store, frame, records, points_capacity(store.page_size(), frame))
}

/// Skeletal records per page.
pub fn skeletal_capacity(page_size: usize) -> usize {
    let cap = (page_size - PAGE_HEADER) / RECORD_LEN;
    assert!(cap >= 3, "page size {page_size} too small for a PST skeletal page");
    cap
}

/// Reference to a skeletal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRef {
    /// Skeletal page.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
}

/// A decoded skeletal record.
#[derive(Debug, Clone)]
pub struct SkeletalRecord {
    /// Routing key: max x-key of the left subtree.
    pub split: Point,
    /// Lowest point (y-order) stored at this node; garbage when
    /// `own_cnt == 0`.
    pub min_y: Point,
    /// Left child skeletal ref ([`NULL_PAGE`] for leaves).
    pub left: NodeRef,
    /// Right child skeletal ref.
    pub right: NodeRef,
    /// This node's points page.
    pub own_pts: PageId,
    /// Number of points at this node.
    pub own_cnt: u16,
    /// Left child's points page (kept for layout symmetry; the 2-sided
    /// engine only seeds right siblings, but the record format is shared
    /// with diagnostics and freeing walks).
    pub left_pts: PageId,
    /// Left child's point count.
    pub left_cnt: u16,
    /// Right child's points page.
    pub right_pts: PageId,
    /// Right child's point count.
    pub right_cnt: u16,
    /// The children's A-list: the covered ancestors' points and this
    /// node's, descending x-key. Empty where no child continues the segment.
    pub child_a: BlockList<Point>,
    /// The left child's S-list: the covered right siblings' points down to
    /// the right child's, descending y-key. The right child uses the list
    /// this node uses.
    pub left_s: BlockList<SEntry>,
}

/// Decodes the record at `slot` from raw skeletal-page bytes.
pub fn decode_record(page: &[u8], slot: u16) -> Result<SkeletalRecord> {
    let offset = PAGE_HEADER + RECORD_LEN * slot as usize;
    let mut r = PageReader::new(&page[offset..offset + RECORD_LEN]);
    Ok(SkeletalRecord {
        split: Point::decode(&mut r)?,
        min_y: Point::decode(&mut r)?,
        left: NodeRef { page: PageId(r.get_u64()?), slot: r.get_u16()? },
        right: NodeRef { page: PageId(r.get_u64()?), slot: r.get_u16()? },
        own_pts: PageId(r.get_u64()?),
        own_cnt: r.get_u16()?,
        left_pts: PageId(r.get_u64()?),
        left_cnt: r.get_u16()?,
        right_pts: PageId(r.get_u64()?),
        right_cnt: r.get_u16()?,
        child_a: BlockList::decode(&mut r)?,
        left_s: BlockList::decode(&mut r)?,
    })
}

/// Encodes a skeletal record: the fields in [`decode_record`]'s order,
/// exactly [`RECORD_LEN`] bytes, so that slot `k` starts where
/// `decode_record` looks for it.
pub(crate) fn encode_record(w: &mut PageWriter<'_>, rec: &SkeletalRecord) -> Result<()> {
    let start = w.position();
    rec.split.encode(w)?;
    rec.min_y.encode(w)?;
    for child in [rec.left, rec.right] {
        w.put_u64(child.page.0)?;
        w.put_u16(child.slot)?;
    }
    for (pts, cnt) in
        [(rec.own_pts, rec.own_cnt), (rec.left_pts, rec.left_cnt), (rec.right_pts, rec.right_cnt)]
    {
        w.put_u64(pts.0)?;
        w.put_u16(cnt)?;
    }
    rec.child_a.encode(w)?;
    rec.left_s.encode(w)?;
    let written = w.position() - start;
    assert!(written <= RECORD_LEN, "a skeletal record of {written} bytes");
    w.skip(RECORD_LEN - written)
}

/// Visits every skeletal page of a single-level structure with its records,
/// a page before the pages below it.
pub(crate) fn for_each_skeletal_page(
    store: &PageStore,
    root_page: PageId,
    visit: &mut impl FnMut(PageId, &[SkeletalRecord]) -> Result<()>,
) -> Result<()> {
    let mut stack = vec![root_page];
    while let Some(pid) = stack.pop() {
        let page = store.read(pid)?;
        let records = (0..PageReader::new(&page).get_u16()?)
            .map(|slot| decode_record(&page, slot))
            .collect::<Result<Vec<_>>>()?;
        for rec in &records {
            stack.extend(
                [rec.left.page, rec.right.page].into_iter().filter(|p| !p.is_null() && *p != pid),
            );
        }
        visit(pid, &records)?;
    }
    Ok(())
}

/// A decoded points page.
#[derive(Debug, Clone)]
pub struct PointsPage {
    /// The node's points, descending y-key.
    pub points: Vec<Point>,
    /// Left child points page ([`NULL_PAGE`] for leaves).
    pub left_pts: PageId,
    /// Right child points page.
    pub right_pts: PageId,
    /// Left child point count.
    pub left_cnt: u16,
    /// Right child point count.
    pub right_cnt: u16,
}

/// Reads and decodes a points page (one I/O).
pub fn read_points_page(store: &PageStore, frame: Frame, id: PageId) -> Result<PointsPage> {
    let page = store.read(id)?;
    let mut r = PageReader::new(&page);
    let count = r.get_u16()? as usize;
    let left_pts = PageId(r.get_u64()?);
    let right_pts = PageId(r.get_u64()?);
    let left_cnt = r.get_u16()?;
    let right_cnt = r.get_u16()?;
    let points = unpack_records(frame, &mut r, count)?;
    Ok(PointsPage { points, left_pts, right_pts, left_cnt, right_cnt })
}

/// The built single-level structure shared by all three variants.
#[derive(Debug, Clone, Copy)]
pub struct PstCore {
    /// Skeletal page holding the binary root at slot 0.
    pub root_page: PageId,
    /// Number of indexed points.
    pub n: u64,
    /// Cache mode the structure was built with.
    pub mode: CacheMode,
    /// The widths its points are stored at.
    pub frame: Frame,
}

/// Builds the external structure, its points stored at `frame`, from an
/// in-memory decomposition whose region capacity equals
/// [`points_capacity`].
pub fn build_external(
    store: &PageStore,
    mem: &MemPst,
    mode: CacheMode,
    frame: Frame,
) -> Result<PstCore> {
    let page_size = store.page_size();
    let b = points_capacity(page_size, frame);
    assert_eq!(mem.cap, b, "decomposition cap must match the block unit");

    // Points pages (allocated up front for child links).
    let pts_ids = write_points_pages(store, mem, frame)?;
    let mut buf = vec![0u8; page_size];

    // Skeletal pagination.
    let (pages, node_loc) = paginate(mem, skeletal_capacity(page_size));
    let page_ids: Vec<PageId> =
        pages.iter().map(|_| store.alloc()).collect::<Result<_>>()?;

    // The children's lists, per internal node, via DFS with the chain of
    // covered ancestors: (arena idx, depth, went_left).
    let mut child_a: Vec<BlockList<Point>> = vec![BlockList::empty(); mem.nodes.len()];
    let mut left_s: Vec<BlockList<SEntry>> = vec![BlockList::empty(); mem.nodes.len()];
    if mode != CacheMode::None {
        struct Visit {
            node: usize,
            depth: u16,
            chain: Vec<(usize, u16, bool)>,
        }
        let mut stack = vec![Visit { node: 0, depth: 0, chain: Vec::new() }];
        while let Some(Visit { node, depth, chain }) = stack.pop() {
            let mn = &mem.nodes[node];
            if mn.left == NONE {
                continue;
            }
            for (child, went_left) in [(mn.left, true), (mn.right, false)] {
                if mode == CacheMode::InPage && node_loc[child].0 != node_loc[node].0 {
                    // New skeletal page: segment restarts.
                    stack.push(Visit { node: child, depth: depth + 1, chain: Vec::new() });
                    continue;
                }
                let mut chain = chain.clone();
                chain.push((node, depth, went_left));
                if went_left {
                    // The left child's chain names both lists: its A-list is
                    // the right child's too.
                    let mut a: Vec<Point> = Vec::new();
                    let mut s: Vec<SEntry> = Vec::new();
                    for &(anc, anc_depth, went_left) in &chain {
                        a.extend(mem.nodes[anc].points.iter().copied());
                        if went_left {
                            let sib = &mem.nodes[mem.nodes[anc].right];
                            s.extend(sib.points.iter().map(|&p| SEntry { p, depth: anc_depth }));
                        }
                    }
                    a.sort_unstable_by(|x, y| cmp_x(y, x));
                    s.sort_unstable_by(|x, y| cmp_y(&y.p, &x.p));
                    child_a[node] = blocked(store, frame, &a)?;
                    left_s[node] = blocked(store, frame, &s)?;
                }
                stack.push(Visit { node: child, depth: depth + 1, chain });
            }
        }
    }

    // Serialize skeletal pages.
    let node_ref = |ni: usize| match ni {
        NONE => NodeRef { page: NULL_PAGE, slot: 0 },
        _ => NodeRef { page: page_ids[node_loc[ni].0], slot: node_loc[ni].1 },
    };
    let pts_of = |ni: usize| match ni {
        NONE => (NULL_PAGE, 0),
        _ => (pts_ids[ni], mem.nodes[ni].points.len() as u16),
    };
    for (page_idx, members) in pages.iter().enumerate() {
        let used = {
            let mut w = PageWriter::new(&mut buf);
            w.put_u16(members.len() as u16)?;
            for &ni in members {
                let node = &mem.nodes[ni];
                let ((own_pts, own_cnt), (left_pts, left_cnt), (right_pts, right_cnt)) =
                    (pts_of(ni), pts_of(node.left), pts_of(node.right));
                let rec = SkeletalRecord {
                    split: node.split,
                    min_y: node.points.last().copied().unwrap_or(Point::new(0, 0, 0)),
                    left: node_ref(node.left),
                    right: node_ref(node.right),
                    own_pts,
                    own_cnt,
                    left_pts,
                    left_cnt,
                    right_pts,
                    right_cnt,
                    child_a: child_a[ni],
                    left_s: left_s[ni],
                };
                encode_record(&mut w, &rec)?;
            }
            w.position()
        };
        store.write(page_ids[page_idx], &buf[..used])?;
    }

    Ok(PstCore { root_page: page_ids[0], n: mem.nodes[0].subtree_size, mode, frame })
}

/// Groups the binary tree into skeletal pages (Figure 2): starting from
/// each page root, nodes are added in BFS order until the page's record
/// capacity is reached; overflowing children seed new pages. Filling by
/// capacity rather than by a fixed height avoids the worst of a
/// fixed-height chunking, whose ragged bottom level becomes near-empty
/// pages, but it does not make the page count `O(#nodes / capacity)`: a
/// capacity that is not `2^h − 1` cuts a level in two, and the cut-off
/// part and whatever lies below the last full page height become pages
/// of a few records each. At 4 KiB the 4 095 regions of a complete
/// 12-level two-level PST (27 records a page) take 813 skeletal pages, 576
/// of them of 3 records (DESIGN §12, "Skeletal pagination"); the 3-sided
/// PST passes a `2^h − 1` and gets complete subtrees.
/// Returns the per-page member lists
/// (arena indices, slot order) and each node's `(page, slot)`; a page's
/// subtree root is always slot 0.
pub(crate) fn paginate(mem: &MemPst, cap: usize) -> (Vec<Vec<usize>>, Vec<(usize, u16)>) {
    let mut node_loc: Vec<(usize, u16)> = vec![(usize::MAX, 0); mem.nodes.len()];
    let mut pages: Vec<Vec<usize>> = Vec::new();
    let mut page_roots = std::collections::VecDeque::new();
    page_roots.push_back(0usize);
    while let Some(root) = page_roots.pop_front() {
        let page_idx = pages.len();
        let mut members = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(root);
        while let Some(ni) = queue.pop_front() {
            if members.len() == cap {
                page_roots.push_back(ni);
                continue;
            }
            node_loc[ni] = (page_idx, members.len() as u16);
            members.push(ni);
            let node = &mem.nodes[ni];
            if !node.is_leaf() {
                queue.push_back(node.left);
                queue.push_back(node.right);
            }
        }
        pages.push(members);
    }
    (pages, node_loc)
}

/// Writes one points page per region (child links included) and returns
/// the page ids, indexed by arena position.
pub(crate) fn write_points_pages(
    store: &PageStore,
    mem: &MemPst,
    frame: Frame,
) -> Result<Vec<PageId>> {
    let page_size = store.page_size();
    let pts_ids: Vec<PageId> =
        mem.nodes.iter().map(|_| store.alloc()).collect::<Result<_>>()?;
    let mut buf = vec![0u8; page_size];
    for (i, node) in mem.nodes.iter().enumerate() {
        let (lp, lc, rp, rc) = if node.is_leaf() {
            (NULL_PAGE, 0u16, NULL_PAGE, 0u16)
        } else {
            (
                pts_ids[node.left],
                mem.nodes[node.left].points.len() as u16,
                pts_ids[node.right],
                mem.nodes[node.right].points.len() as u16,
            )
        };
        let used = {
            let mut w = PageWriter::new(&mut buf);
            w.put_u16(node.points.len() as u16)?;
            w.put_u64(lp.0)?;
            w.put_u64(rp.0)?;
            w.put_u16(lc)?;
            w.put_u16(rc)?;
            for p in &node.points {
                p.pack(frame, &mut w)?;
            }
            w.position()
        };
        store.write(pts_ids[i], &buf[..used])?;
    }
    Ok(pts_ids)
}

macro_rules! pst_variant {
    ($(#[$doc:meta])* $name:ident, $mode:expr) => {
        $(#[$doc])*
        pub struct $name {
            core: PstCore,
        }

        impl $name {
            /// Builds the structure over `points`, stored at the narrowest
            /// frame that holds them.
            pub fn build(store: &PageStore, points: &[Point]) -> Result<Self> {
                let frame = Frame::of(points);
                let mem = MemPst::build(points, points_capacity(store.page_size(), frame));
                Ok($name { core: build_external(store, &mem, $mode, frame)? })
            }

            /// The widths the structure stores its points at.
            pub fn frame(&self) -> Frame {
                self.core.frame
            }

            /// Number of indexed points.
            pub fn len(&self) -> u64 {
                self.core.n
            }

            /// True when no points are indexed.
            pub fn is_empty(&self) -> bool {
                self.core.n == 0
            }

            /// Answers a 2-sided query.
            pub fn query(&self, store: &PageStore, q: TwoSided) -> Result<Vec<Point>> {
                Ok(self.query_counted(store, q)?.0)
            }

            /// Answers a 2-sided query, also returning I/O counters for the
            /// experiment harness.
            pub fn query_counted(
                &self,
                store: &PageStore,
                q: TwoSided,
            ) -> Result<(Vec<Point>, QueryCounters)> {
                run_two_sided(store, &self.core, q)
            }
        }
    };
}

pst_variant!(
    /// The [IKO]-style baseline: linear space but no caches, so every
    /// ancestor and sibling block on the corner path is read individually —
    /// `O(log n + t/B)` query I/Os. This is the structure path caching
    /// improves on (experiment E12).
    NaivePst,
    CacheMode::None
);

pst_variant!(
    /// Lemma 3.1: A/S caches over the **full** root path at every region.
    /// Optimal `O(log_B n + t/B)` queries; `O((n/B) log n)` space.
    BasicPst,
    CacheMode::FullPath
);

pst_variant!(
    /// Theorem 3.2: A/S caches cover only the `log B`-sized path segment
    /// (one skeletal page); queries read one A/S pair per segment.
    /// Optimal `O(log_B n + t/B)` queries; `O((n/B) log B)` space.
    SegmentedPst,
    CacheMode::InPage
);

/// Walkers the layout tests of this crate share.
#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::{Arc, Mutex};

    use pc_pagestore::backend::{Backend, MemBackend};
    use pc_pagestore::store::CHECKSUM_LEN;
    use pc_pagestore::StoreConfig;

    use super::*;

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
    pub(crate) fn check_core_caches(store: &PageStore, core: &PstCore) -> (usize, usize) {
        struct Visit {
            at: NodeRef,
            /// Covered ancestors, and the sizes of their right siblings on
            /// the left-going steps.
            covered: usize,
            sibs: Vec<u16>,
        }
        let PstCore { root_page, mode, frame, .. } = *core;
        let b = points_capacity(store.page_size(), frame);
        let (mut nodes, mut full) = (0, 0);
        let root = NodeRef { page: root_page, slot: 0 };
        let mut stack = vec![Visit { at: root, covered: 0, sibs: Vec::new() }];
        while let Some(f) = stack.pop() {
            let rec = decode_record(&store.read(f.at.page).unwrap(), f.at.slot).unwrap();
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
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::testutil::{distinct_points, LoggedStore, FRAMES};
    use super::*;

    /// The default path: the narrowest frame that holds `pts`.
    fn build_core(store: &PageStore, pts: &[Point], mode: CacheMode) -> (MemPst, PstCore) {
        let frame = Frame::of(pts);
        let mem = MemPst::build(pts, points_capacity(store.page_size(), frame));
        let core = build_external(store, &mem, mode, frame).unwrap();
        (mem, core)
    }

    #[test]
    fn caches_over_k_full_nodes_are_k_blocks() {
        for (page_size, n) in [(512, 6_000), (4096, 40_000)] {
            let pts = distinct_points(n);
            for mode in [CacheMode::FullPath, CacheMode::InPage] {
                let store = PageStore::in_memory(page_size);
                let (mem, core) = build_core(&store, &pts, mode);
                let (nodes, full) = testutil::check_core_caches(&store, &core);
                assert_eq!(nodes, mem.nodes.len());
                assert!(full * 2 >= nodes - 1, "{full} full nodes of {nodes}");
            }
        }
    }

    /// Every distinct list once, and one owner each: the page count of a
    /// complete tree with full-path caches, and a free walk that knows no
    /// aliasing rule and returns every page.
    #[test]
    fn each_cache_list_is_written_once_and_freed_once() {
        for (page_size, levels, frame) in
            FRAMES.into_iter().flat_map(|frame| [(512usize, 3usize, frame), (4096, 4, frame)])
        {
            let b = points_capacity(page_size, frame);
            let nodes = (1 << levels) - 1;
            let store = PageStore::in_memory(page_size);
            let mem = MemPst::build(&distinct_points(nodes * b), b);
            assert_eq!(mem.nodes.len(), nodes);
            assert!(mem.nodes.iter().all(|node| node.points.len() == b));
            let core = build_external(&store, &mem, CacheMode::FullPath, frame).unwrap();
            // The 2^d internal nodes at depth d: a child_a of d + 1 blocks
            // each; a left_s of one block for the right child and one per
            // left step above, d/2 on average.
            let a_blocks: usize = (0..levels - 1).map(|d| (d + 1) << d).sum();
            let s_blocks: usize = (0..levels - 1).map(|d| (1 << d) + (d << d) / 2).sum();
            let skeletal = paginate(&mem, skeletal_capacity(page_size)).0.len();
            assert_eq!(store.live_pages() as usize, nodes + skeletal + a_blocks + s_blocks);
            crate::two_level::free_pages(&store, core.root_page, false).unwrap();
            assert_eq!(store.live_pages(), 0);
        }
    }

    /// Two siblings drain one A-list, and a right child the S-list its
    /// parent drains: corner queries at a node and at each of its children
    /// meet the same cache lists, compared by the pages of their heads.
    #[test]
    fn siblings_drain_the_same_lists() {
        for (page_size, n) in [(512, 3_000), (4096, 30_000)] {
            for mode in [CacheMode::FullPath, CacheMode::InPage] {
                let logged = LoggedStore::new(page_size);
                let store = &logged.store;
                let core = build_core(store, &distinct_points(n), mode).1;
                let mut records: Vec<(NodeRef, SkeletalRecord)> = Vec::new();
                for_each_skeletal_page(store, core.root_page, &mut |page, recs| {
                    let at = |slot: usize| NodeRef { page, slot: slot as u16 };
                    records.extend(recs.iter().enumerate().map(|(slot, r)| (at(slot), r.clone())));
                    Ok(())
                })
                .unwrap();
                let heads = |list: fn(&SkeletalRecord) -> PageId| -> HashSet<PageId> {
                    records.iter().map(|(_, rec)| list(rec)).filter(|p| !p.is_null()).collect()
                };
                let a_heads = heads(|rec| rec.child_a.head());
                let s_heads = heads(|rec| rec.left_s.head());
                // The cache lists a corner query at the node `at` meets: x0
                // inside the node's x-range, y0 just above its lowest point.
                let met = |at: NodeRef| {
                    let rec = &records.iter().find(|(r, _)| *r == at).expect("a record").1;
                    let own = read_points_page(store, core.frame, rec.own_pts).unwrap().points;
                    let q = TwoSided { x0: own[0].x, y0: rec.min_y.y + 1 };
                    let (_, log) = logged.reads_of(|s| run_two_sided(s, &core, q).unwrap());
                    let of = |heads: &HashSet<PageId>| -> Vec<PageId> {
                        log.iter().copied().filter(|p| heads.contains(p)).collect()
                    };
                    (of(&a_heads), of(&s_heads))
                };
                let mut shared = 0;
                for (at, rec) in &records {
                    let in_segment = mode == CacheMode::FullPath || rec.left.page == at.page;
                    if rec.left.page.is_null() || !in_segment || rec.right_cnt == 0 {
                        continue;
                    }
                    let ((a_left, s_left), (a_right, s_right)) = (met(rec.left), met(rec.right));
                    assert_eq!(a_left, a_right, "siblings meet one A-list");
                    assert_eq!(a_left.last(), Some(&rec.child_a.head()));
                    assert_eq!(s_left.last(), Some(&rec.left_s.head()));
                    assert_eq!(s_right, met(*at).1, "a right child meets its parent's S-list");
                    shared += 1;
                }
                assert!(shared >= 20, "{shared} sibling pairs compared");
            }
        }
    }

    #[test]
    fn geometry() {
        assert_eq!(RECORD_LEN, 130);
        // The block unit: min(points page, cache block of entries one tag
        // byte longer than a point). Wide, 24 and 25 bytes:
        let wide = |page_size| points_capacity(page_size, Frame::WIDE);
        assert_eq!(Frame::WIDE.record_len::<SEntry>(), 25);
        assert_eq!(wide(512), 20); // (512 - 22) / 24 = (512 - 10) / 25
        assert_eq!(wide(4096), 163); // (4096 - 10) / 25 < (4096 - 22) / 24 = 169
        assert_eq!(wide(256), 9); // (256 - 22) / 24 < (256 - 10) / 25 = 9.84
        // 20-bit data, 9 and 10 bytes; the narrowest frame, 3 and 4.
        assert_eq!(points_capacity(4096, Frame::new(3, 3, 3)), 408); // (4096 - 10) / 10
        assert_eq!(points_capacity(512, Frame::new(3, 3, 3)), 50);
        assert_eq!(points_capacity(4096, Frame::new(1, 1, 1)), 1021);
        assert_eq!(points_capacity(4096, Frame::new(2, 5, 8)), 255); // (4096 - 10) / 16
        assert_eq!(skeletal_capacity(512), 3);
        assert_eq!(skeletal_capacity(4096), 31);
    }

    #[test]
    fn sentry_roundtrip() {
        let e = SEntry { p: Point::new(3, -4, 9), depth: 7 };
        for frame in [Frame::WIDE, Frame::of(&[e])] {
            let mut buf = vec![0u8; frame.record_len::<SEntry>()];
            let mut w = PageWriter::new(&mut buf);
            e.pack(frame, &mut w).unwrap();
            assert_eq!(w.position(), buf.len());
            assert_eq!(SEntry::unpack(frame, &mut PageReader::new(&buf)).unwrap(), e);
        }
    }

    /// `encode_record` writes what `decode_record` indexes: a page's first
    /// and last slot round-trip, whatever the fields' sizes sum to.
    #[test]
    fn skeletal_records_round_trip_at_the_first_and_the_last_slot() {
        for page_size in [512, 4096] {
            let cap = skeletal_capacity(page_size);
            let rec = |k: u64| SkeletalRecord {
                split: Point::new(i64::MIN + k as i64, -7, u64::MAX - k),
                min_y: Point::new(5, i64::MAX, k),
                left: NodeRef { page: PageId(10 + k), slot: 1 },
                right: NodeRef { page: PageId(20 + k), slot: 2 },
                own_pts: PageId(30 + k),
                own_cnt: 3,
                left_pts: PageId(40 + k),
                left_cnt: 4,
                right_pts: PageId(50 + k),
                right_cnt: 5,
                child_a: BlockList::decode(&mut PageReader::new(&[k as u8 + 1; 16])).unwrap(),
                left_s: BlockList::decode(&mut PageReader::new(&[k as u8 + 2; 16])).unwrap(),
            };
            let mut page = vec![0u8; page_size];
            let mut w = PageWriter::new(&mut page[PAGE_HEADER..]);
            (0..cap as u64).for_each(|k| encode_record(&mut w, &rec(k)).unwrap());
            assert_eq!(w.position(), cap * RECORD_LEN);
            for slot in [0, cap - 1] {
                let back = decode_record(&page, slot as u16).unwrap();
                assert_eq!(format!("{back:?}"), format!("{:?}", rec(slot as u64)), "slot {slot}");
            }
        }
    }

    #[test]
    fn space_ordering_none_vs_full_vs_segmented() {
        // Same data, three builds: naive < segmented < full-path space.
        let mut s = 0x1357u64;
        let mut rand = move |b: i64| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % b as u64) as i64
        };
        let pts: Vec<Point> =
            (0..20_000).map(|id| Point::new(rand(100_000), rand(100_000), id)).collect();

        let mut sizes = Vec::new();
        for mode in [CacheMode::None, CacheMode::InPage, CacheMode::FullPath] {
            let store = PageStore::in_memory(512);
            build_core(&store, &pts, mode);
            sizes.push(store.live_pages());
        }
        assert!(sizes[0] < sizes[1], "naive {} !< segmented {}", sizes[0], sizes[1]);
        assert!(sizes[1] < sizes[2], "segmented {} !< full {}", sizes[1], sizes[2]);
        // Naive is O(n/B): within a small constant of 2n/B.
        let b = points_capacity(512, Frame::of(&pts)) as u64;
        assert!(sizes[0] <= 4 * 20_000 / b, "naive size {} not linear", sizes[0]);
    }
}
