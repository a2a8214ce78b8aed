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
//! `child_a` and `left_s` are the parent-owned caches of the `region`
//! module header, here over *whole* nodes: the A-list both children use
//! (the covered ancestors' points and the node's own) and the left child's
//! S-list (the covered right siblings' points, tagged with the tree depth
//! of the path node). Which ancestors are covered depends on the
//! [`CacheMode`].
//!
//! ## The block unit
//!
//! One number per structure instance, [`points_capacity`] of the page size
//! and the structure's [`Frame`], is the paper's `B` for the whole crate:
//! the entries a path-cache block holds. The frame — the byte widths the
//! instance's points are stored at — is chosen once, in `build`, as the
//! narrowest that holds them ([`Frame::of`]), and travels in the handle
//! ([`PstHandle`]), never on a page. A node holds `B` points and every list
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

use crate::mem::{cmp_x, cmp_y, MemPst, TwoSided};
use crate::query::QueryCounters;
use crate::region::{
    for_each_cache_owner, merge_tagged, write_with, NodeRef, SkelRecord, Skeleton,
};

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

/// Builds a list blocked [`points_capacity`] records to a page; also
/// returns the blocks' pages in chain order.
pub(crate) fn blocked<R: Framed>(
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

impl SkelRecord for SkeletalRecord {
    const HEADER: usize = PAGE_HEADER;
    const LEN: usize = RECORD_LEN;

    fn decode(r: &mut PageReader<'_>) -> Result<SkeletalRecord> {
        Ok(SkeletalRecord {
            split: Point::decode(r)?,
            min_y: Point::decode(r)?,
            left: NodeRef::decode(r)?,
            right: NodeRef::decode(r)?,
            own_pts: PageId(r.get_u64()?),
            own_cnt: r.get_u16()?,
            left_pts: PageId(r.get_u64()?),
            left_cnt: r.get_u16()?,
            right_pts: PageId(r.get_u64()?),
            right_cnt: r.get_u16()?,
            child_a: BlockList::decode(r)?,
            left_s: BlockList::decode(r)?,
        })
    }

    fn encode(&self, w: &mut PageWriter<'_>) -> Result<()> {
        self.split.encode(w)?;
        self.min_y.encode(w)?;
        self.left.encode(w)?;
        self.right.encode(w)?;
        for (pts, cnt) in [
            (self.own_pts, self.own_cnt),
            (self.left_pts, self.left_cnt),
            (self.right_pts, self.right_cnt),
        ] {
            w.put_u64(pts.0)?;
            w.put_u16(cnt)?;
        }
        self.child_a.encode(w)?;
        self.left_s.encode(w)
    }

    fn children(&self) -> [NodeRef; 2] {
        [self.left, self.right]
    }
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

impl PointsPage {
    /// Decodes a points page whose points are stored at `frame`.
    pub fn decode(page: &[u8], frame: Frame) -> Result<PointsPage> {
        let mut r = PageReader::new(page);
        let count = r.get_u16()? as usize;
        let left_pts = PageId(r.get_u64()?);
        let right_pts = PageId(r.get_u64()?);
        let left_cnt = r.get_u16()?;
        let right_cnt = r.get_u16()?;
        let points = unpack_records(frame, &mut r, count)?;
        Ok(PointsPage { points, left_pts, right_pts, left_cnt, right_cnt })
    }
}

/// What a built static 2-sided structure is: a single-level PST with the
/// caches of a [`CacheMode`], or a region tree (`two_level`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Basic(CacheMode),
    Region,
}

/// Handle to a built static 2-sided structure — a whole one, or the inner
/// structure of a region — and the frame of the structure it is part of
/// (the outermost handle carries it in; no record stores it).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PstHandle {
    /// Skeletal page holding the root record at slot 0.
    pub(crate) root: PageId,
    /// Number of indexed points.
    pub(crate) n: u64,
    pub(crate) kind: Kind,
    /// The widths its points are stored at.
    pub(crate) frame: Frame,
}

/// Builds the external structure, its points stored at `frame`, from an
/// in-memory decomposition whose region capacity equals
/// [`points_capacity`].
pub(crate) fn build_external(
    store: &PageStore,
    mem: &MemPst,
    mode: CacheMode,
    frame: Frame,
) -> Result<PstHandle> {
    let page_size = store.page_size();
    assert_eq!(mem.cap, points_capacity(page_size, frame), "a node is one block unit");

    // Points pages (allocated up front for child links).
    let pts_of = write_points_pages(store, mem, frame)?;
    let skel = Skeleton::new(store, mem, skeletal_capacity(page_size))?;

    // The children's lists, per internal node: whole nodes, the S-entries
    // tagged with the path node's depth in the tree.
    let mut child_a: Vec<BlockList<Point>> = vec![BlockList::empty(); mem.nodes.len()];
    let mut left_s: Vec<BlockList<SEntry>> = vec![BlockList::empty(); mem.nodes.len()];
    if mode != CacheMode::None {
        let covered = |parent, child| mode == CacheMode::FullPath || skel.same_page(parent, child);
        let points = |ni: usize| &mem.nodes[ni].points[..];
        for_each_cache_owner(0, |ni| mem.children(ni), covered, |node, depth, path| {
            let segment_top = depth + 1 - path.len() as u16;
            let a = merge_tagged(path.iter().map(|step| (points(step.node), 0)), usize::MAX, cmp_x);
            let sibs = path.iter().filter(|step| step.went_left).map(|step| {
                (points(mem.nodes[step.node].right), segment_top + step.depth)
            });
            let s = merge_tagged(sibs, usize::MAX, cmp_y);
            let a: Vec<Point> = a.into_iter().map(|e| e.p).collect();
            child_a[node] = blocked(store, frame, &a)?.0;
            left_s[node] = blocked(store, frame, &s)?.0;
            Ok(())
        })?;
    }

    let pts_of = |ni: usize| pts_of.get(ni).copied().unwrap_or((NULL_PAGE, 0));
    skel.write(store, |_, _| Ok(()), |ni| {
        let node = &mem.nodes[ni];
        let ((own_pts, own_cnt), (left_pts, left_cnt), (right_pts, right_cnt)) =
            (pts_of(ni), pts_of(node.left), pts_of(node.right));
        SkeletalRecord {
            split: node.split,
            min_y: node.points.last().copied().unwrap_or(Point::new(0, 0, 0)),
            left: skel.node_ref(node.left),
            right: skel.node_ref(node.right),
            own_pts,
            own_cnt,
            left_pts,
            left_cnt,
            right_pts,
            right_cnt,
            child_a: child_a[ni],
            left_s: left_s[ni],
        }
    })?;
    let n = mem.nodes[0].subtree_size;
    Ok(PstHandle { root: skel.root(), n, kind: Kind::Basic(mode), frame })
}

/// Writes one points page per region (child links included) and returns
/// each region's `(page, point count)`, indexed by arena position.
fn write_points_pages(store: &PageStore, mem: &MemPst, frame: Frame) -> Result<Vec<(PageId, u16)>> {
    let mut pts_of = Vec::with_capacity(mem.nodes.len());
    for node in &mem.nodes {
        pts_of.push((store.alloc()?, node.points.len() as u16));
    }
    let link = |ni: usize| pts_of.get(ni).copied().unwrap_or((NULL_PAGE, 0));
    for (node, &(page, count)) in mem.nodes.iter().zip(&pts_of) {
        let ((left_pts, left_cnt), (right_pts, right_cnt)) = (link(node.left), link(node.right));
        write_with(store, page, |w| {
            w.put_u16(count)?;
            w.put_u64(left_pts.0)?;
            w.put_u64(right_pts.0)?;
            w.put_u16(left_cnt)?;
            w.put_u16(right_cnt)?;
            node.points.iter().try_for_each(|p| p.pack(frame, w))
        })?;
    }
    Ok(pts_of)
}

/// A static 2-sided PST: the type, its `build` — `$build` is what makes a
/// [`PstHandle`] of the store, the points and their narrowest frame (and
/// `$arg…`), under the names the caller gives them — and the accessors and
/// queries every one of them answers from that handle. Expands where
/// `PageStore`, `Point`, `Frame`, `Result`, `TwoSided` and `QueryCounters`
/// are in scope.
macro_rules! static_pst {
    (
        $(#[$doc:meta])* $name:ident($($arg:ident: $ty:ty),*),
        |$store:ident, $points:ident, $frame:ident| $build:expr
    ) => {
        $(#[$doc])*
        pub struct $name {
            root: $crate::build::PstHandle,
            $($arg: $ty,)*
        }

        impl $name {
            /// Builds the structure over `points`, stored at the narrowest
            /// frame that holds them.
            pub fn build($store: &PageStore, $points: &[Point] $(, $arg: $ty)*) -> Result<Self> {
                let $frame = Frame::of($points);
                Ok($name { root: $build? $(, $arg)* })
            }

            /// The widths the structure stores its points at.
            pub fn frame(&self) -> Frame {
                self.root.frame
            }

            /// Number of indexed points.
            pub fn len(&self) -> u64 {
                self.root.n
            }

            /// True when no points are indexed.
            pub fn is_empty(&self) -> bool {
                self.root.n == 0
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
                let (hits, _, counters) = $crate::two_level::query_handle(store, self.root, q)?;
                Ok((hits, counters))
            }
        }
    };
}

/// Builds a single-level PST over `points`, stored at `frame`.
pub(crate) fn build_single_level(
    store: &PageStore,
    points: &[Point],
    mode: CacheMode,
    frame: Frame,
) -> Result<PstHandle> {
    let mem = MemPst::build(points, points_capacity(store.page_size(), frame));
    build_external(store, &mem, mode, frame)
}

static_pst!(
    /// The [IKO]-style baseline: linear space but no caches, so every
    /// ancestor and sibling block on the corner path is read individually —
    /// `O(log n + t/B)` query I/Os. This is the structure path caching
    /// improves on (experiment E12).
    NaivePst(),
    |store, points, frame| build_single_level(store, points, CacheMode::None, frame)
);

static_pst!(
    /// Lemma 3.1: A/S caches over the **full** root path at every region.
    /// Optimal `O(log_B n + t/B)` queries; `O((n/B) log n)` space.
    BasicPst(),
    |store, points, frame| build_single_level(store, points, CacheMode::FullPath, frame)
);

static_pst!(
    /// Theorem 3.2: A/S caches cover only the `log B`-sized path segment
    /// (one skeletal page); queries read one A/S pair per segment.
    /// Optimal `O(log_B n + t/B)` queries; `O((n/B) log B)` space.
    SegmentedPst(),
    |store, points, frame| build_single_level(store, points, CacheMode::InPage, frame)
);

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::region::{for_each_skeletal_page, paginate, write_page};
    use crate::testutil::{check_core_caches, distinct_points, LoggedStore, FRAMES};
    use crate::two_level::query_handle;

    /// The default path: the narrowest frame that holds `pts`.
    fn build_core(store: &PageStore, pts: &[Point], mode: CacheMode) -> (MemPst, PstHandle) {
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
                let (nodes, full) = check_core_caches(&store, &core);
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
            crate::two_level::free_pages(&store, core.root, false).unwrap();
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
                for_each_skeletal_page(store, core.root, &mut |page, _, recs: &[SkeletalRecord]| {
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
                    let own = store.read(rec.own_pts).unwrap();
                    let own = PointsPage::decode(&own, core.frame).unwrap().points;
                    let q = TwoSided { x0: own[0].x, y0: rec.min_y.y + 1 };
                    let (_, log) = logged.reads_of(|s| query_handle(s, core, q).unwrap());
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

    /// `write_page` writes what `SkelRecord::at` indexes: a page's first and
    /// last slot round-trip, whatever the fields' sizes sum to.
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
            let store = PageStore::in_memory(page_size);
            let id = store.alloc().unwrap();
            let records: Vec<SkeletalRecord> = (0..cap as u64).map(rec).collect();
            write_page(&store, id, |_| Ok(()), &records, &[]).unwrap();
            let page = store.read(id).unwrap();
            assert_eq!(SkeletalRecord::all(&page).unwrap().len(), cap);
            for slot in [0, cap - 1] {
                let back = SkeletalRecord::at(&page, slot as u16).unwrap();
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
