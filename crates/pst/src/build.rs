//! External layout and construction of the single-level PST variants
//! (naive / Lemma 3.1 / Theorem 3.2).
//!
//! ## On-page layouts
//!
//! Every region (binary node) owns a **points block**, which also carries
//! the child links used by the descendant traversal so that visiting a
//! descendant costs at most one I/O:
//!
//! ```text
//! points block: [left_pts: u64][right_pts: u64]
//!               [left_cnt: u16][right_cnt: u16][block of points]
//! ```
//!
//! A points block, and a cache list's last block, rides in its node's
//! skeletal page's tail where it fits, smallest first (DESIGN §4.5); the
//! naive variant keeps a page a node. Links are `TailAt::link`s.
//!
//! Navigation state lives in **skeletal pages** (Figure 2): binary subtrees
//! of height `h = ⌊log₂(capacity+1)⌋` packed one per page, with 130-byte
//! records:
//!
//! ```text
//! record: [split: Point][min_y: Point]
//!         [left_ref: u64+u16][right_ref: u64+u16]
//!         [own_pts: TailAt][own_cnt: u16]
//!         [left_pts: TailAt][left_cnt: u16][right_pts: TailAt][right_cnt: u16]
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
//! Every list of points is stored in the block codec of
//! `pc_pagestore::layout`: each block carries a base, a bit width and a
//! coding per column, and holds as many records as fit its page. So `B`
//! follows the data block by block; the guaranteed `B` every bound is
//! stated at is the block codec's `min_records`, the count at 64-bit
//! columns. A node is one block: [`node_fill`] gives it its top points
//! while they fit a points page. A cache copies whole nodes, blocked anew,
//! so its blocks follow the merged records, not the nodes' (DESIGN §4.5);
//! the descent rule asks a sibling's record whether it has children, not
//! whether it is full. Skeletal records are fixed-width.

use pc_pagestore::codec::{PageReader, PageWriter};
use pc_pagestore::layout::{
    encode_block, encode_blocks, signed_of, Block, BlockList, Columns, MAX_COLUMNS,
};
use pc_pagestore::skeleton::{NodeRef, SkelRecord, Skeleton, TailAt};
use pc_pagestore::{PageId, PageStore, Point, Record, Result, NULL_PAGE};

use crate::mem::{cmp_x, cmp_y, MemPst, NodeFill, TwoSided, NONE};
use crate::region::{for_each_cache_owner, merge_tagged};

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

impl Columns for SEntry {
    const COLUMNS: usize = 4;

    #[inline]
    fn column(&self, c: usize) -> u64 {
        match c {
            3 => u64::from(self.depth),
            c => self.p.column(c),
        }
    }

    #[inline]
    fn from_columns(c: &[u64; MAX_COLUMNS]) -> Self {
        let p = Point { x: signed_of(c[0]), y: signed_of(c[1]), id: c[2] };
        SEntry { p, depth: c[3] as u16 }
    }
}

/// Bytes of a points block before its block of points: the children's
/// links and counts.
pub const POINTS_PREFIX: usize = 8 + 8 + 2 + 2;

/// What a node of a single-level PST holds: its top points while they fit
/// one points page.
pub(crate) fn node_fill(page_size: usize) -> NodeFill {
    NodeFill { blocks: 1, budget: page_size - POINTS_PREFIX, inner: None }
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
    /// This node's points block: on its own page, or in this page's tail.
    pub own_pts: TailAt,
    /// Number of points at this node.
    pub own_cnt: u16,
    /// Left child's points block, on its page (kept for layout symmetry;
    /// the 2-sided engine only seeds right siblings).
    pub left_pts: TailAt,
    /// Left child's point count.
    pub left_cnt: u16,
    /// Right child's points block, on its page.
    pub right_pts: TailAt,
    /// Right child's point count.
    pub right_cnt: u16,
    /// True if the right child has no children.
    pub right_leaf: bool,
    /// The children's A-list: the covered ancestors' points and this
    /// node's, descending x-key. Empty where no child continues the segment.
    pub child_a: BlockList<Point>,
    /// The left child's S-list: the covered right siblings' points down to
    /// the right child's, descending y-key. The right child uses the list
    /// this node uses.
    pub left_s: BlockList<SEntry>,
}

impl SkelRecord for SkeletalRecord {
    const HEADER: usize = 2;
    const LEN: usize = 24 + 24 + 10 + 10 + 8 + 2 + 8 + 2 + 8 + 2 + 1 + 16 + 16;

    fn decode(r: &mut PageReader<'_>) -> Result<SkeletalRecord> {
        Ok(SkeletalRecord {
            split: Point::decode(r)?,
            min_y: Point::decode(r)?,
            left: NodeRef::decode(r)?,
            right: NodeRef::decode(r)?,
            own_pts: TailAt::decode(r.get_u64()?),
            own_cnt: r.get_u16()?,
            left_pts: TailAt::decode(r.get_u64()?),
            left_cnt: r.get_u16()?,
            right_pts: TailAt::decode(r.get_u64()?),
            right_cnt: r.get_u16()?,
            right_leaf: r.get_u8()? != 0,
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
            w.put_u64(pts.encode())?;
            w.put_u16(cnt)?;
        }
        w.put_u8(u8::from(self.right_leaf))?;
        self.child_a.encode(w)?;
        self.left_s.encode(w)
    }

    fn children(&self) -> [NodeRef; 2] {
        [self.left, self.right]
    }
}

/// A points block read in place.
#[derive(Debug, Clone, Copy)]
pub struct PointsPage<'a> {
    /// The node's points, descending y-key.
    pub points: Block<'a>,
    /// Left child's points, a `TailAt::link` ([`NULL_PAGE`] for leaves).
    pub left_pts: u64,
    /// Right child's points, a `TailAt::link`.
    pub right_pts: u64,
    /// Left child point count.
    pub left_cnt: u16,
    /// Right child point count.
    pub right_cnt: u16,
}

impl PointsPage<'_> {
    /// Parses a points block: `[left_pts u64][right_pts u64][left_cnt
    /// u16][right_cnt u16]`, then the node's points as one block.
    pub fn parse(page: &[u8]) -> Result<PointsPage<'_>> {
        let mut r = PageReader::new(page);
        let (left_pts, right_pts) = (r.get_u64()?, r.get_u64()?);
        let left_cnt = r.get_u16()?;
        let right_cnt = r.get_u16()?;
        let points = Block::parse::<Point>(&page[POINTS_PREFIX..])?;
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
/// structure of a region.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PstHandle {
    /// Skeletal page holding the root record at slot 0.
    pub(crate) root: PageId,
    /// Number of indexed points.
    pub(crate) n: u64,
    pub(crate) kind: Kind,
}

/// Builds the external structure from an in-memory decomposition whose
/// nodes are of [`node_fill`].
pub(crate) fn build_external(
    store: &PageStore,
    mem: &MemPst,
    mode: CacheMode,
) -> Result<PstHandle> {
    let page_size = store.page_size();
    assert_eq!(mem.fill, node_fill(page_size), "a node is one points page");
    let n_nodes = mem.nodes.len();
    let children = |ni| mem.children(ni).into_iter().flatten();
    let mut skel = Skeleton::new(store, n_nodes, SkeletalRecord::fit(page_size), children)?;

    // Every node's points block, its links still zero, and with caches its
    // children's lists (whole nodes, the S-entries tagged with the path
    // node's depth in the tree): encoded blocks that wait for their places.
    let mut lists: Vec<List> = (0..n_nodes)
        .map(|node| {
            let mut bytes = vec![0; POINTS_PREFIX];
            bytes.extend(encode_block(mem.points(node), NULL_PAGE));
            List { node, of: Of::Points, len: 0, blocks: vec![(0, bytes)], at: TailAt::None }
        })
        .collect();
    if mode != CacheMode::None {
        let covered = |parent, child| mode == CacheMode::FullPath || skel.same_page(parent, child);
        let points = |ni: usize| mem.points(ni);
        for_each_cache_owner(0, |ni| mem.children(ni), covered, |node, depth, path| {
            let segment_top = depth + 1 - path.len() as u16;
            let a = merge_tagged(path.iter().map(|step| (points(step.node), 0)), cmp_x);
            let sibs = path.iter().filter(|step| step.went_left).map(|step| {
                (points(mem.nodes[step.node].right), segment_top + step.depth)
            });
            let s = merge_tagged(sibs, cmp_y);
            let a: Vec<Point> = a.into_iter().map(|e| e.p).collect();
            for (of, len, blocks) in [
                (Of::ChildA, a.len(), encode_blocks(&a, page_size)),
                (Of::LeftS, s.len(), encode_blocks(&s, page_size)),
            ] {
                let list = List { node, of, len: len as u64, blocks, at: TailAt::None };
                lists.extend((len > 0).then_some(list));
            }
            Ok(())
        })?;
    }

    // Where each goes, by its last block, smallest first; the naive variant
    // keeps a page a node. A points block names its children's places and a
    // block its next's, so every place is taken before any is filled.
    let last = |list: &List| list.blocks.last().map_or(0, |(_, bytes)| bytes.len());
    let mut order: Vec<usize> = (0..lists.len()).collect();
    order.sort_by_key(|&i| last(&lists[i]));
    for i in order {
        lists[i].at = match mode {
            CacheMode::None => TailAt::Page(store.alloc()?),
            _ => skel.reserve::<SkeletalRecord>(store, lists[i].node, None, last(&lists[i]))?,
        };
    }
    let pts_at: Vec<TailAt> = lists[..n_nodes].iter().map(|list| list.at).collect();
    let pts_of = |ni: usize| match ni {
        NONE => (TailAt::None, 0),
        _ => (pts_at[ni], mem.points(ni).len() as u16),
    };
    let pages: Vec<PageId> = (0..n_nodes).map(|ni| skel.node_ref(ni).page).collect();
    let child = |ni| (pts_of(ni).0.link(pages.get(ni).copied().unwrap_or(NULL_PAGE)), pts_of(ni).1);
    let mut child_a: Vec<BlockList<Point>> = vec![BlockList::empty(); n_nodes];
    let mut left_s: Vec<BlockList<SEntry>> = vec![BlockList::empty(); n_nodes];
    for List { node, of, len, mut blocks, at } in lists {
        if of == Of::Points {
            let [left, right] = [mem.nodes[node].left, mem.nodes[node].right].map(child);
            let prefix = [left.0.to_le_bytes(), right.0.to_le_bytes()].concat();
            let prefix = [prefix, left.1.to_le_bytes().to_vec(), right.1.to_le_bytes().to_vec()];
            blocks[0].1[..POINTS_PREFIX].copy_from_slice(&prefix.concat());
        }
        let head = skel.fill_list(store, node, at, blocks)?;
        match of {
            Of::Points => {}
            Of::ChildA => child_a[node] = BlockList::with_head(head, len),
            Of::LeftS => left_s[node] = BlockList::with_head(head, len),
        }
    }

    skel.write(store, |_, _| Ok(()), |ni| {
        let node = &mem.nodes[ni];
        let ((own_pts, own_cnt), (left_pts, left_cnt), (right_pts, right_cnt)) =
            (pts_of(ni), pts_of(node.left), pts_of(node.right));
        SkeletalRecord {
            split: node.split,
            min_y: mem.points(ni).last().copied().unwrap_or(Point::new(0, 0, 0)),
            left: skel.node_ref(node.left),
            right: skel.node_ref(node.right),
            own_pts,
            own_cnt,
            left_pts,
            left_cnt,
            right_pts,
            right_cnt,
            right_leaf: node.right != NONE && mem.nodes[node.right].is_leaf(),
            child_a: child_a[ni],
            left_s: left_s[ni],
        }
    })?;
    let n = mem.nodes[0].subtree_size;
    Ok(PstHandle { root: skel.root(), n, kind: Kind::Basic(mode) })
}

/// Blocks [`build_external`] places: a node's points block, or the
/// children's A- or left child's S-list it owns (of `len` records), and
/// where the last block goes.
struct List {
    node: usize,
    of: Of,
    len: u64,
    blocks: Vec<(usize, Vec<u8>)>,
    at: TailAt,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Of {
    Points,
    ChildA,
    LeftS,
}

/// A static 2-sided PST: the type, its `build` — `$build` is what makes a
/// [`PstHandle`] of the store and the points (and `$arg…`), under the names
/// the caller gives them — and the accessors and queries every one of them
/// answers from that handle. Expands where `PageStore`, `Point`, `Result`
/// and `TwoSided` are in scope.
macro_rules! static_pst {
    (
        $(#[$doc:meta])* $name:ident($($arg:ident: $ty:ty),*),
        |$store:ident, $points:ident| $build:expr
    ) => {
        $(#[$doc])*
        pub struct $name {
            root: $crate::build::PstHandle,
            $($arg: $ty,)*
        }

        impl $name {
            /// Builds the structure over `points`.
            pub fn build($store: &PageStore, $points: &[Point] $(, $arg: $ty)*) -> Result<Self> {
                Ok($name { root: $build? $(, $arg)* })
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
                Ok($crate::two_level::query_handle(store, self.root, pc_pagestore::NULL_PAGE, q)?.0)
            }

        }
    };
}

/// Builds a single-level PST over `points`.
pub(crate) fn build_single_level(
    store: &PageStore,
    points: &[Point],
    mode: CacheMode,
) -> Result<PstHandle> {
    let mem = MemPst::build(points, node_fill(store.page_size()));
    build_external(store, &mem, mode)
}

static_pst!(
    /// The \[IKO\]-style baseline: linear space but no caches, so every
    /// ancestor and sibling block on the corner path is read individually —
    /// `O(log n + t/B)` query I/Os. This is the structure path caching
    /// improves on (experiment E12).
    NaivePst(),
    |store, points| build_single_level(store, points, CacheMode::None)
);

static_pst!(
    /// Lemma 3.1: A/S caches over the **full** root path at every region.
    /// Optimal `O(log_B n + t/B)` queries; `O((n/B) log n)` space.
    BasicPst(),
    |store, points| build_single_level(store, points, CacheMode::FullPath)
);

static_pst!(
    /// Theorem 3.2: A/S caches cover only the `log B`-sized path segment
    /// (one skeletal page); queries read one A/S pair per segment.
    /// Optimal `O(log_B n + t/B)` queries; `O((n/B) log B)` space.
    SegmentedPst(),
    |store, points| build_single_level(store, points, CacheMode::InPage)
);

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use pc_pagestore::skeleton::{for_each_skeletal_page, paginate, write_page};
    use crate::testutil::{
        check_core_caches, distinct_points, list_blocks, own_points, wide, LoggedStore,
    };
    use crate::two_level::query_handle;
    use pc_pagestore::layout::{fill_blocks, min_records};

    /// The default path.
    fn build_core(store: &PageStore, pts: &[Point], mode: CacheMode) -> (MemPst, PstHandle) {
        let mem = MemPst::build(pts, node_fill(store.page_size()));
        let core = build_external(store, &mem, mode).unwrap();
        (mem, core)
    }

    /// A cache over `k` whole nodes copies their points in at most
    /// `k + ⌈k/8⌉` blocks (DESIGN §4.5), on narrow data and on data spread
    /// over all 64 bits.
    #[test]
    fn caches_over_k_full_nodes_are_k_blocks() {
        for (page_size, n) in [(512, 6_000), (4096, 40_000)] {
            for pts in [distinct_points(n), wide(&distinct_points(n))] {
                for mode in [CacheMode::FullPath, CacheMode::InPage] {
                    let store = PageStore::in_memory(page_size);
                    let (mem, core) = build_core(&store, &pts, mode);
                    let (nodes, full) = check_core_caches(&store, &core);
                    assert_eq!(nodes, mem.nodes.len());
                    assert!(full * 2 >= nodes - 1, "{full} full nodes of {nodes}");
                }
            }
        }
    }

    /// Every distinct list once, and one owner each: the pages of a tree
    /// with full-path caches are its points pages, its skeletal pages and
    /// the blocks of every record's two lists, counted from their heads —
    /// a list two records shared would count twice — but for the blocks in
    /// skeletal page tails, and a free walk that knows no aliasing rule
    /// returns every page.
    #[test]
    fn each_cache_list_is_written_once_and_freed_once() {
        let mut inline = 0;
        for (page_size, n) in [(512usize, 1_000usize), (4096, 20_000)] {
            for pts in [distinct_points(n), wide(&distinct_points(n))] {
                let store = PageStore::in_memory(page_size);
                let (mem, core) = build_core(&store, &pts, CacheMode::FullPath);
                assert!(mem.nodes.len() >= 7, "{} nodes", mem.nodes.len());
                let mut blocks = 0;
                for_each_skeletal_page(&store, core.root, &mut |_, page, recs: &[SkeletalRecord]| {
                    for rec in recs {
                        let a = list_blocks(&store, page, &rec.child_a).into_iter().map(|b| b.1);
                        let s = list_blocks(&store, page, &rec.left_s).into_iter().map(|b| b.1);
                        for paged in a.chain(s).chain([matches!(rec.own_pts, TailAt::Page(_))]) {
                            *(if paged { &mut blocks } else { &mut inline }) += 1;
                        }
                    }
                    Ok(())
                })
                .unwrap();
                let children = |ni| mem.children(ni).into_iter().flatten();
                let cap = SkeletalRecord::fit(page_size);
                let skeletal = paginate(mem.nodes.len(), cap, children).0.len();
                let pages = skeletal + blocks;
                assert_eq!(store.live_pages() as usize, pages);
                crate::two_level::free_pages(&store, core.root, false).unwrap();
                assert_eq!(store.live_pages(), 0);
            }
        }
        assert!(inline > 0, "no block in a tail");
    }

    /// Two siblings drain one A-list, and a right child the S-list its
    /// parent drains: corner queries at a node and at each of its children
    /// meet the same cache lists, compared by the pages of their heads (a
    /// list in a tail is read with a page the query reads anyway).
    #[test]
    fn siblings_drain_the_same_lists() {
        for (page_size, n) in [(512, 6_000), (4096, 60_000)] {
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
                // A list in a tail is read with the page in hand: no head.
                let paged = |head: PageId| !matches!(TailAt::decode(head.0), TailAt::Inline(_));
                let heads = |list: fn(&SkeletalRecord) -> PageId| -> HashSet<PageId> {
                    records.iter().map(|(_, rec)| list(rec)).filter(|p| !p.is_null()).collect()
                };
                let a_heads = heads(|rec| rec.child_a.head());
                let s_heads = heads(|rec| rec.left_s.head());
                // The cache lists a corner query at the node `at` meets: x0
                // inside the node's x-range, y0 just above its lowest point.
                let met = |at: NodeRef| {
                    let rec = &records.iter().find(|(r, _)| *r == at).expect("a record").1;
                    let own = own_points(store, &store.read(at.page).unwrap(), rec);
                    let q = TwoSided { x0: own[0].x, y0: rec.min_y.y + 1 };
                    let query = |s: &PageStore| query_handle(s, core, NULL_PAGE, q).unwrap();
                    let (_, log) = logged.reads_of(query);
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
                    assert_eq!(s_right, met(*at).1, "a right child meets its parent's S-list");
                    for (met, head) in [(a_left, rec.child_a.head()), (s_left, rec.left_s.head())] {
                        if paged(head) {
                            assert_eq!(met.last(), Some(&head));
                        }
                    }
                    shared += 1;
                }
                assert!(shared >= 20, "{page_size} B, {mode:?}: {shared} sibling pairs compared");
            }
        }
    }

    #[test]
    fn geometry() {
        assert_eq!(SkeletalRecord::LEN, 131);
        assert_eq!([512, 4096].map(SkeletalRecord::fit), [3, 31]);
        // A node is its top points while they fit a points page: at least
        // the block codec's count at 64-bit columns, on any data.
        assert_eq!(node_fill(4096), NodeFill { blocks: 1, budget: 4076, inner: None });
        assert_eq!(min_records::<Point>(4076), 168); // (4076 - 40)·8 / 192
        for (page_size, n) in [(512, 2_000), (4096, 40_000)] {
            for pts in [distinct_points(n), wide(&distinct_points(n))] {
                let store = PageStore::in_memory(page_size);
                let (mem, core) = build_core(&store, &pts, CacheMode::None);
                let fill = node_fill(page_size);
                for ni in (0..mem.nodes.len()).filter(|&ni| !mem.nodes[ni].is_leaf()) {
                    let own = mem.points(ni);
                    assert!(own.len() >= min_records::<Point>(fill.budget));
                    assert_eq!(fill_blocks(own, 1, fill.budget), own.len());
                }
                let skeletal = store.read(core.root).unwrap();
                let root = SkeletalRecord::at(&skeletal, 0).unwrap();
                assert!(matches!(root.own_pts, TailAt::Page(_)), "a full root has a page");
                assert_eq!(own_points(&store, &skeletal, &root), mem.points(0));
            }
        }
    }

    #[test]
    fn sentry_roundtrip() {
        let entries = [
            SEntry { p: Point::new(3, -4, 9), depth: 7 },
            SEntry { p: Point::new(i64::MIN, i64::MAX, u64::MAX), depth: 63 },
        ];
        for list in [&entries[..1], &entries[..]] {
            let block = pc_pagestore::layout::encode_block(list, NULL_PAGE);
            assert_eq!(Block::parse::<SEntry>(&block).unwrap().to_vec::<SEntry>(), list);
        }
    }

    /// `write_page` writes what `SkelRecord::at` indexes: a page's first and
    /// last slot round-trip, whatever the fields' sizes sum to.
    #[test]
    fn skeletal_records_round_trip_at_the_first_and_the_last_slot() {
        for page_size in [512, 4096] {
            let cap = SkeletalRecord::fit(page_size);
            let rec = |k: u64| SkeletalRecord {
                split: Point::new(i64::MIN + k as i64, -7, u64::MAX - k),
                min_y: Point::new(5, i64::MAX, k),
                left: NodeRef { page: PageId(10 + k), slot: 1 },
                right: NodeRef { page: PageId(20 + k), slot: 2 },
                own_pts: TailAt::Page(PageId(30 + k)),
                own_cnt: 3,
                left_pts: TailAt::Inline(400 + k as usize),
                left_cnt: 4,
                right_pts: TailAt::None,
                right_cnt: 5,
                right_leaf: k % 2 == 1,
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
        let b = min_records::<Point>(512) as u64;
        assert!(sizes[0] <= 4 * 20_000 / b, "naive size {} not linear", sizes[0]);
    }
}
