//! The recursive region schemes of §4: two-level (Theorem 4.3) and the
//! shared engine for the multilevel scheme (Theorem 4.4).
//!
//! The top-level decomposition uses regions of `(2^h − 1)·B` points, with
//! `2^h − 1` the largest such number that is at most `⌈log₂ B⌉` — still
//! `Θ(B log B)`, so there are only `n/(B log B)` regions, and a full
//! region's inner tree is complete: `2^h − 1` nodes of exactly `B` points,
//! none of them a near-empty leaf that still pays for full-path caches.
//! `B` is the crate's one block unit ([`block_capacity`] of the page size
//! and the structure's [`Frame`]). Each region `R` stores (§4):
//!
//! * **X-list** — `R`'s points sorted descending by x, blocked `B` to a
//!   page;
//! * **Y-list** — sorted descending by y, blocked likewise;
//! * an **inner structure** over `R`'s points: a Lemma 3.1 PST with
//!   full-path caches for the two-level scheme (height `O(log log B)` —
//!   Lemma 4.2's space bound), or recursively another region tree with
//!   regions sized by the same rule from the iterated log for the
//!   multilevel scheme (§4.2), bottoming out at the basic PST;
//!
//! and, for its children, the two parent-owned caches of the `region`
//! module header, with a skeletal page as the segment, over *first blocks*:
//!
//! * **`child_a`** — the first blocks of the X-lists of `R` and of `R`'s
//!   in-page ancestors, merged descending by x and tagged with the source's
//!   in-page depth;
//! * **`left_s`** — the first blocks of the Y-lists of the in-page right
//!   siblings down to `R`'s right child, merged descending by y, tagged.
//!
//! The query (§4.1) drains them at the corner and where the path leaves a
//! page: `O(log_B n)` A/S caches in all, each source continued in its own
//! list by the substrate's continuation rule. The corner region is queried
//! through its inner structure; descendants of fully-inside siblings are
//! traversed region by region, paid for by their parents' full output,
//! each skeletal page read once however many of its regions the traversal
//! visits.

use pc_pagestore::codec::{PageReader, PageWriter};
use pc_pagestore::layout::{chain_pages, unpack_records, BlockList};
use pc_pagestore::{Frame, Framed, PageId, PageStore, Point, Record, Result, NULL_PAGE};

use crate::build::{
    blocked, build_single_level, points_capacity, CacheMode, Kind, PstHandle,
    SEntry, SkeletalRecord,
};
use crate::mem::{cmp_x, cmp_y, MemPst, TwoSided, NONE};
use crate::query::{run_two_sided, QueryCounters};
use crate::region::{
    for_each_block, for_each_cache_owner, for_each_skeletal_page, merge_tagged, write_with,
    NodeRef, SkelRecord, Skeleton, Walk,
};

/// Byte size of one region record.
///
/// ```text
/// [split_x i64][min_y_y i64][left u64+u16][right u64+u16]
/// [own_cnt u16][left_cnt u16][right_cnt u16][child_leaf_flags u8]
/// [x_list 16][y_list 16][right_y_list 16][child_a 16][left_s 16]
/// [inner_root u64][inner_n u64][inner_is_region u8][u_buf u64]
/// ```
///
/// `x_list`, `y_list` and `right_y_list` (the right child's Y-list) are
/// [`ListRef`]s, `[head u64][second u64]`: their lengths are `own_cnt`,
/// `own_cnt` and `right_cnt`. `child_a` and `left_s` are `BlockList`
/// handles, `[head u64][len u64]`.
///
/// The page header carries the dynamic-structure state (all zero for
/// static builds):
///
/// ```text
/// [count u16][pad u16][churn u32][subtree_n u64][u_page u64][pad to 24]
/// ```
pub const RECORD_LEN: usize = 8 + 8 + 10 + 10 + 2 + 2 + 2 + 1 + 16 * 5 + 8 + 8 + 1 + 8;
pub(crate) const PAGE_HEADER: usize = 24;

/// Region records per skeletal page: the largest odd count that fits, a
/// page root plus whole sibling pairs. BFS-fill with an even count (6 at
/// 1 KiB) leaves the last sibling pair split across two pages, and the
/// dynamic structure's S-cache rebuild only sees siblings of its own page.
pub fn skeletal_capacity(page_size: usize) -> usize {
    let fit = (page_size - PAGE_HEADER) / RECORD_LEN;
    assert!(fit >= 3, "page size {page_size} too small for a region-tree page");
    (fit - 1) | 1
}

/// The paper's `B` for a structure storing its points at `frame`: the
/// crate's one block unit, [`points_capacity`].
pub fn block_capacity(page_size: usize, frame: Frame) -> usize {
    points_capacity(page_size, frame)
}

/// `⌈log₂ v⌉`, at least 1.
fn ceil_log2(v: usize) -> usize {
    ((usize::BITS - (v.max(2) - 1).leading_zeros()) as usize).max(1)
}

/// The largest `2^h − 1` that is at most `v` (`v >= 1`): the node count of
/// the tallest complete binary tree with no more than `v` nodes.
pub(crate) fn complete_tree_nodes(v: usize) -> usize {
    (1 << (v + 1).ilog2()) - 1
}

/// Region capacities for a `levels`-deep scheme, one entry per region
/// level (the bottom level is always the basic PST): `m₁·B`, `m₂·B`, …
/// where `m₁` is `⌈log₂ B⌉` and `mᵢ₊₁` is `⌈log₂ mᵢ⌉`, each rounded down to
/// a complete tree's node count `2^h − 1` so that a full region's inner
/// structure has no underfull node. The sequence stops once that count
/// reaches 1 — a region of `B` points *is* a basic block.
pub fn region_caps(page_size: usize, levels: u32, frame: Frame) -> Vec<usize> {
    let b = block_capacity(page_size, frame);
    let mut caps = Vec::new();
    let mut m = complete_tree_nodes(ceil_log2(b));
    for _ in 1..levels {
        if m <= 1 {
            break;
        }
        caps.push(b * m);
        m = complete_tree_nodes(ceil_log2(m));
    }
    caps
}

/// A region's X- or Y-list as a record names it: the pages of its first
/// two blocks ([`NULL_PAGE`] where the list has none), so that a scan can
/// start at either. The record's point counts give the length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ListRef {
    pub(crate) head: PageId,
    pub(crate) second: PageId,
}

impl ListRef {
    pub(crate) const EMPTY: ListRef = ListRef { head: NULL_PAGE, second: NULL_PAGE };

    /// Writes `points`, in the order given, `B` to a page.
    pub(crate) fn build(store: &PageStore, frame: Frame, points: &[Point]) -> Result<ListRef> {
        let pages = blocked(store, frame, points)?.1;
        let page = |i: usize| pages.get(i).copied().unwrap_or(NULL_PAGE);
        Ok(ListRef { head: page(0), second: page(1) })
    }

    /// The list's points, in order (one read per block).
    pub(crate) fn read_all(&self, store: &PageStore, frame: Frame) -> Result<Vec<Point>> {
        let blocks = BlockList::<Point>::blocks_from(store, frame, self.head);
        Ok(blocks.collect::<Result<Vec<_>>>()?.concat())
    }

    /// Frees every page of the list.
    pub(crate) fn free(&self, store: &PageStore) -> Result<()> {
        chain_pages(store, self.head)?.into_iter().try_for_each(|page| store.free(page))
    }

    fn decode(r: &mut PageReader<'_>) -> Result<ListRef> {
        Ok(ListRef { head: PageId(r.get_u64()?), second: PageId(r.get_u64()?) })
    }

    fn encode(&self, w: &mut PageWriter<'_>) -> Result<()> {
        w.put_u64(self.head.0)?;
        w.put_u64(self.second.0)
    }
}

#[derive(Debug, Clone)]
pub(crate) struct RegionRecord {
    pub(crate) split_x: i64,
    pub(crate) min_y_y: i64,
    pub(crate) left: NodeRef,
    pub(crate) right: NodeRef,
    pub(crate) own_cnt: u16,
    pub(crate) left_cnt: u16,
    pub(crate) right_cnt: u16,
    pub(crate) left_is_leaf: bool,
    pub(crate) right_is_leaf: bool,
    pub(crate) x_list: ListRef,
    pub(crate) y_list: ListRef,
    /// The right child's `y_list`, whichever page that child is on.
    pub(crate) right_y_list: ListRef,
    /// The children's A-list; empty where they are on other pages.
    pub(crate) child_a: BlockList<SEntry>,
    /// The left child's S-list; the right child uses this region's.
    pub(crate) left_s: BlockList<SEntry>,
    pub(crate) inner_root: PageId,
    pub(crate) inner_n: u64,
    pub(crate) inner_is_region: bool,
    pub(crate) u_buf: PageId,
}

impl RegionRecord {
    /// The region's inner structure, in a structure stored at `frame`.
    pub(crate) fn inner(&self, frame: Frame) -> PstHandle {
        let kind =
            if self.inner_is_region { Kind::Region } else { Kind::Basic(CacheMode::FullPath) };
        PstHandle { root: self.inner_root, n: self.inner_n, kind, frame }
    }

    /// Copies what this record keeps of its `right` (else left) child from
    /// the child's own record.
    pub(crate) fn set_child(&mut self, right: bool, child: &RegionRecord) {
        let is_leaf = child.left.page.is_null();
        if right {
            (self.right_cnt, self.right_is_leaf) = (child.own_cnt, is_leaf);
            self.right_y_list = child.y_list;
        } else {
            (self.left_cnt, self.left_is_leaf) = (child.own_cnt, is_leaf);
        }
    }
}

impl SkelRecord for RegionRecord {
    const HEADER: usize = PAGE_HEADER;
    const LEN: usize = RECORD_LEN;

    fn decode(r: &mut PageReader<'_>) -> Result<RegionRecord> {
        let split_x = r.get_i64()?;
        let min_y_y = r.get_i64()?;
        let (left, right) = (NodeRef::decode(r)?, NodeRef::decode(r)?);
        let own_cnt = r.get_u16()?;
        let left_cnt = r.get_u16()?;
        let right_cnt = r.get_u16()?;
        let flags = r.get_u8()?;
        Ok(RegionRecord {
            split_x,
            min_y_y,
            left,
            right,
            own_cnt,
            left_cnt,
            right_cnt,
            left_is_leaf: flags & 1 != 0,
            right_is_leaf: flags & 2 != 0,
            x_list: ListRef::decode(r)?,
            y_list: ListRef::decode(r)?,
            right_y_list: ListRef::decode(r)?,
            child_a: BlockList::decode(r)?,
            left_s: BlockList::decode(r)?,
            inner_root: PageId(r.get_u64()?),
            inner_n: r.get_u64()?,
            inner_is_region: r.get_u8()? != 0,
            u_buf: PageId(r.get_u64()?),
        })
    }

    fn encode(&self, w: &mut PageWriter<'_>) -> Result<()> {
        w.put_i64(self.split_x)?;
        w.put_i64(self.min_y_y)?;
        self.left.encode(w)?;
        self.right.encode(w)?;
        w.put_u16(self.own_cnt)?;
        w.put_u16(self.left_cnt)?;
        w.put_u16(self.right_cnt)?;
        w.put_u8(u8::from(self.left_is_leaf) | (u8::from(self.right_is_leaf) << 1))?;
        for list in [self.x_list, self.y_list, self.right_y_list] {
            list.encode(w)?;
        }
        self.child_a.encode(w)?;
        self.left_s.encode(w)?;
        w.put_u64(self.inner_root.0)?;
        w.put_u64(self.inner_n)?;
        w.put_u8(u8::from(self.inner_is_region))?;
        w.put_u64(self.u_buf.0)
    }

    fn children(&self) -> [NodeRef; 2] {
        [self.left, self.right]
    }
}

/// What a region page's header holds after the record count: the
/// dynamic structure's bookkeeping.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PageHeaderInfo {
    pub(crate) churn: u32,
    pub(crate) subtree_n: u64,
    pub(crate) u_page: PageId,
}

pub(crate) fn decode_header(page: &[u8]) -> Result<PageHeaderInfo> {
    let mut r = PageReader::new(page);
    r.skip(2 + 2)?;
    let (churn, subtree_n) = (r.get_u32()?, r.get_u64()?);
    Ok(PageHeaderInfo { churn, subtree_n, u_page: PageId(r.get_u64()?) })
}

/// Writes the header's bytes after the count.
pub(crate) fn encode_header(w: &mut PageWriter<'_>, h: &PageHeaderInfo) -> Result<()> {
    w.put_u16(0)?;
    w.put_u32(h.churn)?;
    w.put_u64(h.subtree_n)?;
    w.put_u64(h.u_page.0)?;
    w.skip(PAGE_HEADER - 2 - 2 - 4 - 8 - 8)
}

/// A logged update: insert or delete of a point, stamped with a global
/// sequence number so merges can resolve op order across buffer levels
/// (deeper buffers hold older ops, but the stamp makes it explicit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateRec {
    /// `false` = insert, `true` = delete.
    pub is_delete: bool,
    /// Global sequence stamp (monotone per structure).
    pub seq: u64,
    /// The point being inserted or deleted.
    pub p: Point,
}

impl Framed for UpdateRec {
    /// `[is_delete u8][seq u64]` after the point.
    const TAG: usize = 1 + 8;

    fn fields(&self) -> (i64, i64, u64) {
        self.p.fields()
    }

    fn pack_tag(&self, w: &mut PageWriter<'_>) -> Result<()> {
        w.put_u8(u8::from(self.is_delete))?;
        w.put_u64(self.seq)
    }

    fn unpack_tagged((x, y, id): (i64, i64, u64), r: &mut PageReader<'_>) -> Result<Self> {
        Ok(UpdateRec { p: Point { x, y, id }, is_delete: r.get_u8()? != 0, seq: r.get_u64()? })
    }
}

/// Updates that fit in one buffer page.
pub(crate) fn buffer_capacity(page_size: usize, frame: Frame) -> usize {
    (page_size - 2) / frame.record_len::<UpdateRec>()
}

/// Decodes a buffer page: `[count u16][UpdateRec * count]`.
pub(crate) fn decode_buffer(page: &[u8], frame: Frame) -> Result<Vec<UpdateRec>> {
    let mut r = PageReader::new(page);
    let count = r.get_u16()? as usize;
    unpack_records(frame, &mut r, count)
}

/// Reads a buffer page.
pub(crate) fn read_buffer(store: &PageStore, frame: Frame, id: PageId) -> Result<Vec<UpdateRec>> {
    decode_buffer(&store.read(id)?, frame)
}

/// Writes a buffer page.
pub(crate) fn write_buffer(
    store: &PageStore,
    frame: Frame,
    id: PageId,
    recs: &[UpdateRec],
) -> Result<()> {
    write_with(store, id, |w| {
        w.put_u16(recs.len() as u16)?;
        recs.iter().try_for_each(|rec| rec.pack(frame, w))
    })
}

/// Builds a region tree (or a basic PST when `caps` is exhausted) over
/// `points`, stored at `frame` — a frame that holds them, and `caps` its
/// [`region_caps`] — returning its handle.
pub(crate) fn build_region_tree(
    store: &PageStore,
    points: &[Point],
    caps: &[usize],
    frame: Frame,
) -> Result<PstHandle> {
    let Some((&r_cap, inner_caps)) = caps.split_first() else {
        return build_single_level(store, points, CacheMode::FullPath, frame);
    };
    let page_size = store.page_size();
    let b = block_capacity(page_size, frame);
    let mem = MemPst::build(points, r_cap);
    let skel = Skeleton::new(store, &mem, skeletal_capacity(page_size))?;

    // Per-region lists and inner structures.
    let n_nodes = mem.nodes.len();
    let mut x_sorted: Vec<Vec<Point>> = Vec::with_capacity(n_nodes);
    for node in &mem.nodes {
        let mut xs = node.points.clone();
        xs.sort_unstable_by(|a, c| cmp_x(c, a));
        x_sorted.push(xs);
    }
    let mut x_lists = Vec::with_capacity(n_nodes);
    let mut y_lists = Vec::with_capacity(n_nodes);
    let mut inners: Vec<PstHandle> = Vec::with_capacity(n_nodes);
    for (node, xs) in mem.nodes.iter().zip(&x_sorted) {
        x_lists.push(ListRef::build(store, frame, xs)?);
        // Node points are already descending by y-key.
        y_lists.push(ListRef::build(store, frame, &node.points)?);
        inners.push(build_region_tree(store, &node.points, inner_caps, frame)?);
    }

    // The children's caches, per region with children on its page: first
    // blocks only, tagged with the source's *in-page* depth — the depth the
    // query counts.
    let mut child_a: Vec<BlockList<SEntry>> = vec![BlockList::empty(); n_nodes];
    let mut left_s: Vec<BlockList<SEntry>> = vec![BlockList::empty(); n_nodes];
    let same_page = |parent, child| skel.same_page(parent, child);
    for_each_cache_owner(0, |ni| mem.children(ni), same_page, |node, _, path| {
        let a = merge_tagged(path.iter().map(|s| (&x_sorted[s.node][..], s.depth)), b, cmp_x);
        let sibs = path.iter().filter(|s| s.went_left);
        let sibs = sibs.map(|s| (&mem.nodes[mem.nodes[s.node].right].points[..], s.depth));
        let s = merge_tagged(sibs, b, cmp_y);
        child_a[node] = blocked(store, frame, &a)?.0;
        left_s[node] = blocked(store, frame, &s)?.0;
        Ok(())
    })?;

    // What a parent's record says of a child: (point count, is a leaf).
    let child_info = |ni: usize| match ni {
        NONE => (0, true),
        _ => (mem.nodes[ni].points.len() as u16, mem.nodes[ni].is_leaf()),
    };
    let header = |root: usize, w: &mut PageWriter<'_>| {
        let subtree_n = mem.nodes[root].subtree_size;
        encode_header(w, &PageHeaderInfo { churn: 0, subtree_n, u_page: NULL_PAGE })
    };
    skel.write(store, header, |ni| {
        let node = &mem.nodes[ni];
        let ((left_cnt, left_is_leaf), (right_cnt, right_is_leaf)) =
            (child_info(node.left), child_info(node.right));
        RegionRecord {
            split_x: node.split.x,
            min_y_y: node.points.last().map_or(0, |p| p.y),
            left: skel.node_ref(node.left),
            right: skel.node_ref(node.right),
            own_cnt: node.points.len() as u16,
            left_cnt,
            right_cnt,
            left_is_leaf,
            right_is_leaf,
            x_list: x_lists[ni],
            y_list: y_lists[ni],
            right_y_list: if node.is_leaf() { ListRef::EMPTY } else { y_lists[node.right] },
            child_a: child_a[ni],
            left_s: left_s[ni],
            inner_root: inners[ni].root,
            inner_n: inners[ni].n,
            inner_is_region: inners[ni].kind == Kind::Region,
            u_buf: NULL_PAGE,
        }
    })?;
    Ok(PstHandle { root: skel.root(), n: points.len() as u64, kind: Kind::Region, frame })
}

/// A right sibling the corner path left behind: the second block of its
/// Y-list, its point count, whether it is a leaf, and its record.
type Sibling = (PageId, u16, bool, NodeRef);

/// Runs a 2-sided query against a region tree rooted at `root_page`,
/// appending to `walk` (recursive across levels). Buffered updates
/// encountered along the way (super-node `U` buffers on visited pages, the
/// corner region's `u` buffer) are appended to `pending` for the caller to
/// merge; static structures have no buffers, so it stays empty for them.
fn run_region_query(
    walk: &mut Walk<'_>,
    pending: &mut Vec<UpdateRec>,
    root_page: PageId,
    q: TwoSided,
) -> Result<()> {
    // Nested region levels open nested spans; each sets its own B.
    let _span = pc_obs::span!("pst_region");
    pc_obs::set_block_capacity(walk.b);
    // By in-page depth — the cache tags: the path's ancestors on the page in
    // hand (second block of the X-list, point count) and the right siblings
    // left behind there.
    let mut anc: Vec<(PageId, u16)> = Vec::new();
    let mut sib: Vec<Option<Sibling>> = Vec::new();
    // The A- and S-cache of the region in hand, picked up from its in-page
    // ancestors' records on the way down.
    let mut cur_a: BlockList<SEntry> = BlockList::empty();
    let mut cur_s: BlockList<SEntry> = BlockList::empty();

    let mut ctx = TlCtx { walk, pending, q };
    load_page(ctx.walk, ctx.pending, root_page, true)?;
    let mut slot = 0u16;
    loop {
        let rec = RegionRecord::at(&ctx.walk.page, slot)?;
        let is_leaf = rec.left.page.is_null();
        let is_corner = rec.own_cnt == 0 || rec.min_y_y < q.y0 || is_leaf;
        if is_corner {
            ctx.drain_caches_and_seed(&cur_a, &cur_s, &anc, &sib, None)?;
            let TlCtx { walk, pending, .. } = ctx;
            if !rec.u_buf.is_null() {
                pending.extend(decode_buffer(&walk.cache_page(rec.u_buf)?, walk.frame)?);
            }
            // The corner region itself is answered by its inner structure.
            return query_on(walk, pending, rec.inner(walk.frame), q);
        }

        let go_left = q.x0 <= rec.split_x;
        let next = if go_left { rec.left } else { rec.right };
        slot = next.slot;
        if next.page != ctx.walk.held {
            // Segment exit: settle this page. The exit's own X-list and its
            // right sibling are read directly (the next segment's caches
            // restart below them).
            // (Visited even when empty: its page's `U` buffer may not be.)
            let exit_sibling = go_left.then_some(rec.right);
            ctx.drain_caches_and_seed(&cur_a, &cur_s, &anc, &sib, exit_sibling)?;
            ctx.walk.prefix(rec.x_list.head, |p| p.x >= q.x0)?;
            anc.clear();
            sib.clear();
            (cur_a, cur_s) = (BlockList::empty(), BlockList::empty());
            load_page(ctx.walk, ctx.pending, next.page, true)?;
            continue;
        }
        anc.push((rec.x_list.second, rec.own_cnt));
        sib.push(
            (go_left && rec.right_cnt > 0)
                .then_some((rec.right_y_list.second, rec.right_cnt, rec.right_is_leaf, rec.right)),
        );
        cur_a = rec.child_a;
        if go_left {
            cur_s = rec.left_s;
        }
    }
}

/// Answers `q` from the structure `handle` names, on `walk`.
fn query_on(
    walk: &mut Walk<'_>,
    pending: &mut Vec<UpdateRec>,
    handle: PstHandle,
    q: TwoSided,
) -> Result<()> {
    match handle.kind {
        _ if handle.n == 0 => Ok(()),
        Kind::Region => run_region_query(walk, pending, handle.root, q),
        Kind::Basic(mode) => run_two_sided(walk, handle.root, mode, q),
    }
}

/// Queries a [`PstHandle`] (region tree or single-level PST): the answer,
/// any buffered updates encountered for the caller to merge, the reads.
pub(crate) fn query_handle(
    store: &PageStore,
    handle: PstHandle,
    q: TwoSided,
) -> Result<(Vec<Point>, Vec<UpdateRec>, QueryCounters)> {
    let mut walk = Walk::new(store, handle.frame);
    let mut pending = Vec::new();
    query_on(&mut walk, &mut pending, handle, q)?;
    Ok((walk.results, pending, walk.counters))
}

/// A built [`TwoLevelPst`]'s or [`crate::DynamicPst`]'s pages by class, and
/// the `B` they were built at. Nested region levels count with the outer
/// one; `inner_*` is the basic PST at the bottom.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionCensus {
    /// The widths the structure stores its points at.
    pub frame: Frame,
    /// `B`: [`block_capacity`] of the store's pages at `frame`.
    pub block_capacity: u64,
    /// Skeletal pages of the region tree.
    pub skeletal: u64,
    /// Blocks of the regions' X-lists.
    pub x_lists: u64,
    /// Blocks of the regions' Y-lists.
    pub y_lists: u64,
    /// Blocks of the A-caches (`child_a`).
    pub a_caches: u64,
    /// Blocks of the S-caches (`left_s`).
    pub s_caches: u64,
    /// Skeletal pages of the regions' inner trees.
    pub inner_skeletal: u64,
    /// Points pages of the inner trees.
    pub inner_points: u64,
    /// A- and S-list blocks of the inner trees.
    pub inner_caches: u64,
    /// Update buffers: the pages' `U` and the regions' `u` (none in a
    /// static build).
    pub buffers: u64,
}

impl RegionCensus {
    /// All pages of the structure.
    pub fn total(&self) -> u64 {
        self.skeletal
            + self.x_lists
            + self.y_lists
            + self.a_caches
            + self.s_caches
            + self.inner_skeletal
            + self.inner_points
            + self.inner_caches
            + self.buffers
    }
}

/// A class of pages: the census field that counts them.
pub(crate) type PageClass = fn(&mut RegionCensus) -> &mut u64;

/// Names every page of the region tree (or basic PST) under `root` once,
/// with its class. Each list has one owner, so there is no aliasing rule:
/// a record's `right_y_list` is the right child's `y_list` and is named
/// there. A page is named after the pages found through it have been read,
/// so `visit` may free it.
pub(crate) fn for_each_page(
    store: &PageStore,
    root: PageId,
    is_region: bool,
    visit: &mut impl FnMut(PageClass, PageId) -> Result<()>,
) -> Result<()> {
    if !is_region {
        return for_each_skeletal_page(store, root, &mut |pid, _, records: &[SkeletalRecord]| {
            for rec in records {
                visit(|c| &mut c.inner_points, rec.own_pts)?;
                for_each_block(store, rec.child_a.head(), |c| &mut c.inner_caches, visit)?;
                for_each_block(store, rec.left_s.head(), |c| &mut c.inner_caches, visit)?;
            }
            visit(|c| &mut c.inner_skeletal, pid)
        });
    }
    let mut inners = Vec::new();
    for_each_skeletal_page(store, root, &mut |pid, page, records: &[RegionRecord]| {
        let mut buffers = vec![decode_header(page)?.u_page];
        for rec in records {
            for_each_block(store, rec.x_list.head, |c| &mut c.x_lists, visit)?;
            for_each_block(store, rec.y_list.head, |c| &mut c.y_lists, visit)?;
            for_each_block(store, rec.child_a.head(), |c| &mut c.a_caches, visit)?;
            for_each_block(store, rec.left_s.head(), |c| &mut c.s_caches, visit)?;
            buffers.push(rec.u_buf);
            inners.push((rec.inner_root, rec.inner_is_region));
        }
        let mut buffers = buffers.into_iter().filter(|page| !page.is_null());
        buffers.try_for_each(|page| visit(|c| &mut c.buffers, page))?;
        visit(|c| &mut c.skeletal, pid)
    })?;
    inners.into_iter().try_for_each(|(inner, nested)| for_each_page(store, inner, nested, visit))
}

/// Frees every page of the region tree (or basic PST) under `root`.
pub(crate) fn free_pages(store: &PageStore, root: PageId, is_region: bool) -> Result<()> {
    for_each_page(store, root, is_region, &mut |_, page| store.free(page))
}

/// Counts the pages of the region tree under `root`, stored at `frame`, by
/// class (one read per page but the inner trees' points pages and the
/// update buffers, which their owners' records name).
pub(crate) fn page_census(store: &PageStore, root: PageId, frame: Frame) -> Result<RegionCensus> {
    let block_capacity = block_capacity(store.page_size(), frame) as u64;
    let mut census = RegionCensus { frame, block_capacity, ..RegionCensus::default() };
    for_each_page(store, root, true, &mut |class, _| {
        *class(&mut census) += 1;
        Ok(())
    })?;
    Ok(census)
}

static_pst!(
    /// The two-level recursive PST (Theorem 4.3): optimal `O(log_B n + t/B)`
    /// 2-sided queries in `O((n/B)·log log B)` disk blocks.
    TwoLevelPst(),
    |store, points, frame| {
        build_region_tree(store, points, &region_caps(store.page_size(), 2, frame), frame)
    }
);

impl TwoLevelPst {
    /// Counts the structure's pages by class.
    pub fn page_census(&self, store: &PageStore) -> Result<RegionCensus> {
        page_census(store, self.root.root, self.root.frame)
    }
}

/// Takes skeletal page `id` in hand (one I/O, plus its `U` buffer's, whose
/// updates go to `pending`). `on_path` marks a step of the corner path
/// rather than of a descendant traversal.
fn load_page(
    walk: &mut Walk<'_>,
    pending: &mut Vec<UpdateRec>,
    id: PageId,
    on_path: bool,
) -> Result<()> {
    walk.load(id, on_path.then_some(walk.counters.skeletal))?;
    let u_page = decode_header(&walk.page)?.u_page;
    if !u_page.is_null() {
        pending.extend(decode_buffer(&walk.cache_page(u_page)?, walk.frame)?);
    }
    Ok(())
}

/// One region tree's part of a query: the walk, where buffered updates go,
/// and the corner.
struct TlCtx<'w, 'a> {
    walk: &'w mut Walk<'a>,
    pending: &'w mut Vec<UpdateRec>,
    q: TwoSided,
}

impl TlCtx<'_, '_> {
    /// Reads a region's A/S caches, applies the continuation rule, and
    /// runs the region-level descendant traversal below every sibling that
    /// lies wholly inside the query — and over `exit_sibling`, the right
    /// sibling of a segment exit, which no cache covers. Sources are taken
    /// in depth order, so the answer's order repeats from call to call.
    fn drain_caches_and_seed(
        &mut self,
        a_cache: &BlockList<SEntry>,
        s_cache: &BlockList<SEntry>,
        anc: &[(PageId, u16)],
        sib: &[Option<Sibling>],
        exit_sibling: Option<NodeRef>,
    ) -> Result<()> {
        let TwoSided { x0, y0 } = self.q;
        let walk = &mut *self.walk;
        // A-cache: first blocks of ancestors' X-lists, descending x.
        let cached = walk.probe(|w| w.drain(a_cache, anc.len(), |p| p.x >= x0))?;
        for (&(second, len), cached) in anc.iter().zip(cached) {
            if walk.continues(cached, len, second) {
                walk.prefix(second, |p| p.x >= x0)?;
            }
        }

        // S-cache: first blocks of siblings' Y-lists, descending y. The
        // traversal's seeds: (region, whether its own points are still to
        // be reported).
        let mut seeds: Vec<(NodeRef, bool)> = exit_sibling.map(|r| (r, true)).into_iter().collect();
        let cached = walk.probe(|w| w.drain(s_cache, sib.len(), |p| p.y >= y0))?;
        for (sibling, cached) in sib.iter().zip(cached) {
            let Some((second, total, is_leaf, sref)) = *sibling else { continue };
            let mut qualified = cached;
            if walk.continues(cached, total, second) {
                qualified += walk.prefix(second, |p| p.y >= y0)?;
            }
            // Region fully inside the query: traverse its children.
            if qualified == u64::from(total) && !is_leaf {
                seeds.push((sref, false));
            }
        }
        self.traverse(seeds)
    }

    /// Region-level descendant traversal. Regions whose points are in the
    /// output already only launch their children; every other region
    /// reports its Y-prefix and is descended into when all of it qualified.
    fn traverse(&mut self, seeds: Vec<(NodeRef, bool)>) -> Result<()> {
        let TlCtx { walk, pending, q } = self;
        let y0 = q.y0;
        walk.traverse(seeds, false, |&(at, _)| at.page, |walk, (at, report), below| {
            if at.page != walk.held {
                load_page(walk, pending, at.page, false)?;
            }
            let rec = RegionRecord::at(&walk.page, at.slot)?;
            if report && walk.prefix(rec.y_list.head, |p| p.y >= y0)? < u64::from(rec.own_cnt) {
                return Ok(());
            }
            // An empty child is still visited when it opens a page of its
            // own: that page's `U` buffer may hold inserts bound for it.
            let children = rec.children().into_iter().filter(|child| !child.page.is_null());
            below.extend(children.map(|child| (child, true)));
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{
        canonical, distinct_points, in_page_paths, uniform_points, LoggedStore, FRAMES,
    };
    use pc_rng::Rng;

    #[test]
    fn region_capacity_is_b_log_b() {
        // Full-width records — page 512: B = 20, ceil(log2 20) = 5, largest
        // 2^h - 1 <= 5 is 3.
        assert_eq!(block_capacity(512, Frame::WIDE), 20);
        assert_eq!(region_caps(512, 2, Frame::WIDE), vec![3 * 20]);
        // page 4096: B = 163, ceil(log2 163) = 8, largest 2^h - 1 <= 8 is 7.
        assert_eq!(block_capacity(4096, Frame::WIDE), 163);
        assert_eq!(region_caps(4096, 2, Frame::WIDE), vec![7 * 163]);
        // 3/3/3 — page 512: B = 50, ceil(log2 50) = 6, still 3; page 4096:
        // B = 408, ceil(log2 408) = 9, still 7.
        let narrow = Frame::new(3, 3, 3);
        assert_eq!(region_caps(512, 2, narrow), vec![3 * 50]);
        assert_eq!(region_caps(4096, 2, narrow), vec![7 * 408]);
        // 1/1/1 at 512 B: B = 125, ceil(log2 125) = 7: seven blocks a region.
        assert_eq!(region_caps(512, 2, Frame::new(1, 1, 1)), vec![7 * 125]);
    }

    /// DESIGN §4.5's table — page × frame → `B`, region capacities, records
    /// per skeletal page — is what the code computes, row for row: a row
    /// that drifts from the code fails here, and so does a missing one.
    #[test]
    fn design_table_of_block_units_is_what_the_code_computes() {
        let mut computed = Vec::new();
        let pages = [(512, "512 B"), (1024, "1 KiB"), (2048, "2 KiB"), (4096, "4 KiB")];
        for (page_size, label) in pages {
            for frame in [Frame::new(3, 3, 3), Frame::new(4, 4, 4), Frame::WIDE] {
                let b = block_capacity(page_size, frame);
                let caps: Vec<String> = region_caps(page_size, 9, frame)
                    .iter()
                    .map(|cap| format!("{cap} = {}·B", cap / b))
                    .collect();
                let skeletal = [
                    crate::build::skeletal_capacity(page_size),
                    skeletal_capacity(page_size),
                    crate::three_sided::skeletal_capacity(page_size),
                ]
                .map(|cap| cap.to_string());
                computed.push(format!(
                    "| {label} | {frame} | {b} | {} | {} |",
                    caps.join(", then "),
                    skeletal.join(" / ")
                ));
            }
        }
        // The table's rows are the ones whose second cell names a frame.
        let names_a_frame = |cell: &str| {
            let widths: Vec<&str> = cell.trim().split('/').collect();
            widths.len() == 3 && widths.iter().all(|w| matches!(w.parse::<u8>(), Ok(1..=8)))
        };
        let documented: Vec<&str> = include_str!("../../../DESIGN.md")
            .lines()
            .filter(|line| line.split('|').nth(2).is_some_and(names_a_frame))
            .collect();
        assert_eq!(documented, computed, "DESIGN §4.5, \"One block unit\"");
    }

    #[test]
    fn skeletal_pages_hold_a_root_and_whole_sibling_pairs() {
        // 1 KiB fits 6 records; the sixth would be half a sibling pair.
        let caps: Vec<usize> = [512, 1024, 2048, 4096].map(skeletal_capacity).to_vec();
        assert_eq!(caps, vec![3, 5, 13, 27]);
    }

    #[test]
    fn region_caps_iterate_the_log() {
        assert_eq!(
            (1..=9).map(complete_tree_nodes).collect::<Vec<_>>(),
            vec![1, 1, 3, 3, 3, 3, 7, 7, 7]
        );
        // B = 163: 8 -> 7 nodes, ceil(log2 7) = 3 -> 3 nodes,
        // ceil(log2 3) = 2 -> 1 node (stop).
        assert_eq!(region_caps(4096, 2, Frame::WIDE), vec![1141]);
        assert_eq!(region_caps(4096, 3, Frame::WIDE), vec![1141, 489]);
        assert_eq!(region_caps(4096, 9, Frame::WIDE), vec![1141, 489]); // saturates
        assert_eq!(region_caps(4096, 1, Frame::WIDE), Vec::<usize>::new());
        // B = 20: 5 -> 3 nodes, then 1 (stop).
        assert_eq!(region_caps(512, 9, Frame::WIDE), vec![60]);
        // B = 408: 9 -> 7 nodes, then 3, then 1.
        assert_eq!(region_caps(4096, 9, Frame::new(3, 3, 3)), vec![2856, 1224]);
    }

    /// The block unit end to end, at both page sizes: a region's X/Y lists
    /// are blocks of `B`, the caches it holds for its children are `k`
    /// blocks over `k` full first blocks, a full region's inner tree is
    /// complete with every node full, and the inner full-path caches obey
    /// the same rule.
    #[test]
    fn one_block_unit_from_region_lists_to_inner_caches() {
        use crate::testutil::{assert_block_sizes, assert_cache_blocks, check_core_caches};
        for (page_size, n, inner_nodes) in [(512, 5_000, 3), (4096, 150_000, 7)] {
            let pts = uniform_points(&mut Rng::seed_from_u64(0x1b1b), n, 1_000_000);
            let store = PageStore::in_memory(page_size);
            let pst = TwoLevelPst::build(&store, &pts).unwrap();
            let frame = pst.frame();
            let b = block_capacity(page_size, frame);
            let r_cap = region_caps(page_size, 2, frame)[0];
            assert_eq!(r_cap, inner_nodes * b);
            let (mut regions, mut full_regions) = (0, 0);
            let root = pst.root.root;
            for_each_skeletal_page(&store, root, &mut |page, _, records: &[RegionRecord]| {
                let paths = in_page_paths(page, records);
                for (rec, path) in records.iter().zip(paths) {
                    regions += 1;
                    let cnt = rec.own_cnt as usize;
                    for list in [rec.x_list, rec.y_list] {
                        let sizes: Vec<usize> = chain_pages(&store, list.head)
                            .unwrap()
                            .iter()
                            .map(|&page| {
                                BlockList::<Point>::read_block(&store, frame, page).unwrap().0.len()
                            })
                            .collect();
                        assert_block_sizes(b, &sizes, cnt / b, cnt % b, "X/Y-list");
                    }
                    // The region and its ancestors have children, so each is
                    // full: one whole first block apiece. A sibling may be a
                    // short leaf.
                    let (mut sources, mut copied) = (0, 0);
                    if rec.left.page == page {
                        sources = path.len() + 1;
                        let left_steps = path.iter().filter(|&&(_, went_left)| went_left);
                        let sibs = left_steps.map(|&(anc, _)| records[anc].right_cnt);
                        copied = sibs.chain([rec.right_cnt]).map(|c| (c as usize).min(b)).sum();
                    }
                    assert_cache_blocks(&store, frame, &rec.child_a, sources, 0, "A-cache");
                    let (full, rest) = (copied / b, copied % b);
                    assert_cache_blocks(&store, frame, &rec.left_s, full, rest, "S-cache");

                    assert!(!rec.inner_is_region);
                    let (nodes, full) = check_core_caches(&store, &rec.inner(frame));
                    if cnt == r_cap {
                        full_regions += 1;
                        assert_eq!((nodes, full), (inner_nodes, inner_nodes), "full region's inner");
                    }
                }
                Ok(())
            })
            .unwrap();
            assert!(full_regions >= 10 && full_regions * 3 >= regions, "{full_regions}/{regions}");
        }
    }

    /// Every list once: the census of a complete tree of seven full regions
    /// (512 B) and of three (4 KiB) of full-width records, class by class,
    /// and a free walk that returns every page — of a two-level and of a
    /// nested build.
    #[test]
    fn census_counts_each_list_once_and_free_returns_every_page() {
        let frame = Frame::WIDE;
        for (page_size, regions, want) in [
            // Root page of three regions and four leaf pages; per region three
            // blocks of X and of Y and an inner tree of three nodes (one
            // skeletal page, a child_a and a left_s of one block).
            (512, 7, RegionCensus {
                skeletal: 5, x_lists: 21, y_lists: 21, a_caches: 1, s_caches: 1,
                inner_skeletal: 7, inner_points: 21, inner_caches: 14,
                frame, block_capacity: 20, ..RegionCensus::default()
            }),
            // One page; inner trees of seven nodes: child_a 1 + 2 + 2 blocks,
            // left_s 1 + 2 + 1.
            (4096, 3, RegionCensus {
                skeletal: 1, x_lists: 21, y_lists: 21, a_caches: 1, s_caches: 1,
                inner_skeletal: 3, inner_points: 21, inner_caches: 27,
                frame, block_capacity: 163, ..RegionCensus::default()
            }),
        ] {
            let store = PageStore::in_memory(page_size);
            let caps = region_caps(page_size, 2, frame);
            let pts = distinct_points(regions * caps[0]);
            let root = build_region_tree(&store, &pts, &caps, frame).unwrap().root;
            let census = page_census(&store, root, frame).unwrap();
            assert_eq!(census, want, "{page_size}-byte pages");
            assert_eq!(census.total(), store.live_pages());
            free_pages(&store, root, true).unwrap();
            assert_eq!(store.live_pages(), 0);
        }
        let store = PageStore::in_memory(4096);
        let pts = uniform_points(&mut Rng::seed_from_u64(0x7e57), 30_000, 1 << 30);
        let frame = Frame::of(&pts);
        let caps = region_caps(4096, 3, frame);
        assert_eq!(caps.len(), 2, "a nested build");
        let root = build_region_tree(&store, &pts, &caps, frame).unwrap().root;
        assert_eq!(page_census(&store, root, frame).unwrap().total(), store.live_pages());
        free_pages(&store, root, true).unwrap();
        assert_eq!(store.live_pages(), 0);
    }

    /// Two sibling regions drain one A-cache, and a right child the S-cache
    /// its parent drains: corner queries at a region and at each of its
    /// in-page children meet the same caches, compared by the pages of
    /// their heads.
    #[test]
    fn sibling_regions_drain_the_same_caches() {
        use std::collections::HashSet;
        for (page_size, n) in [(512, 9_000), (4096, 200_000)] {
            let logged = LoggedStore::new(page_size);
            let store = &logged.store;
            let pst = TwoLevelPst::build(store, &distinct_points(n)).unwrap();
            let mut regions: Vec<(NodeRef, RegionRecord)> = Vec::new();
            let root = pst.root.root;
            for_each_skeletal_page(store, root, &mut |page, _, records: &[RegionRecord]| {
                let at = |slot: usize| NodeRef { page, slot: slot as u16 };
                regions.extend(records.iter().enumerate().map(|(slot, r)| (at(slot), r.clone())));
                Ok(())
            })
            .unwrap();
            let heads = |list: fn(&RegionRecord) -> PageId| -> HashSet<PageId> {
                regions.iter().map(|(_, rec)| list(rec)).filter(|p| !p.is_null()).collect()
            };
            let a_heads = heads(|rec| rec.child_a.head());
            let s_heads = heads(|rec| rec.left_s.head());
            // The caches a corner query at the region `at` meets: x0 inside
            // the region's x-range, y0 just above its lowest point.
            let met = |at: NodeRef| {
                let rec = &regions.iter().find(|(r, _)| *r == at).expect("a record").1;
                let x0 = rec.x_list.read_all(store, pst.frame()).unwrap()[0].x;
                let q = TwoSided { x0, y0: rec.min_y_y + 1 };
                let (_, log) = logged.reads_of(|s| pst.query(s, q).unwrap());
                let of = |heads: &HashSet<PageId>| -> Vec<PageId> {
                    log.iter().copied().filter(|p| heads.contains(p)).collect()
                };
                (of(&a_heads), of(&s_heads))
            };
            let mut shared = 0;
            for (at, rec) in &regions {
                if rec.left.page != at.page || rec.left_cnt == 0 || rec.right_cnt == 0 {
                    continue;
                }
                let ((a_left, s_left), (a_right, s_right)) = (met(rec.left), met(rec.right));
                assert_eq!(a_left, a_right, "siblings meet one A-cache");
                assert_eq!(a_left.last(), Some(&rec.child_a.head()));
                assert_eq!(s_left.last(), Some(&rec.left_s.head()));
                assert_eq!(s_right, met(*at).1, "a right child meets its parent's S-cache");
                shared += 1;
            }
            assert!(shared >= 15, "{shared} sibling pairs compared");
        }
    }

    /// The continuation rule at its edges: a cached source of exactly `B`,
    /// `B + 1` and `2B + 1` points — an ancestor's X-list and a sibling's
    /// Y-list through `right_y_list` — is read on for no, one and two blocks,
    /// from the second block the record names; its head is never read, and
    /// no page twice.
    #[test]
    fn a_continued_list_starts_at_its_second_block() {
        for (page_size, frame) in FRAMES.into_iter().flat_map(|f| [(512, f), (4096, f)]) {
            let b = block_capacity(page_size, frame);
            for (len, more_blocks) in [(b, 0), (b + 1, 1), (2 * b + 1, 2)] {
                let logged = LoggedStore::new(page_size);
                let store = &logged.store;
                // Regions of `len` points: a root, the corner (a leaf) to
                // its left and a leaf sibling to its right, all full.
                let pts = distinct_points(3 * len);
                let root_page = build_region_tree(store, &pts, &[len], frame).unwrap().root;
                let page = store.read(root_page).unwrap();
                let root = RegionRecord::at(&page, 0).unwrap();
                let corner = RegionRecord::at(&page, root.left.slot).unwrap();
                let sibling = RegionRecord::at(&page, root.right.slot).unwrap();
                assert_eq!(
                    [root.own_cnt, corner.own_cnt, sibling.own_cnt].map(usize::from),
                    [len; 3]
                );
                assert_eq!(root.right_y_list, sibling.y_list);

                let handle =
                    PstHandle { root: root_page, n: pts.len() as u64, kind: Kind::Region, frame };
                let q = TwoSided { x0: i64::MIN, y0: i64::MIN };
                let ((hits, _, counters), log) =
                    logged.reads_of(|s| query_handle(s, handle, q).unwrap());
                assert_eq!(canonical(hits), canonical(pts.clone()));
                assert_eq!(counters.total(), log.len() as u64);
                let reads_of = |page: PageId| log.iter().filter(|&&p| p == page).count();
                assert!(log.iter().all(|&p| reads_of(p) == 1), "a page was read twice");
                for list in [root.x_list, sibling.y_list] {
                    let pages = chain_pages(store, list.head).unwrap();
                    assert_eq!(pages.len(), 1 + more_blocks);
                    assert_eq!(list.second, pages.get(1).copied().unwrap_or(NULL_PAGE));
                    let reads: Vec<usize> = pages.iter().map(|&p| reads_of(p)).collect();
                    let mut want = vec![1; pages.len()];
                    want[0] = 0;
                    assert_eq!(reads, want, "{len} points: reads per block");
                }
                // The skeletal page, one block of each cache, the
                // continuations, and the corner region's inner structure.
                let inner_reads = query_handle(store, corner.inner(frame), q).unwrap().2.total();
                assert_eq!(counters.total(), 3 + 2 * more_blocks as u64 + inner_reads);
            }
        }
    }

    #[test]
    fn duplicates_and_edges() {
        let mut pts = Vec::new();
        for i in 0..1200u64 {
            pts.push(Point::new((i % 7) as i64 * 5, (i % 11) as i64 * 5, i));
        }
        let store = PageStore::in_memory(512);
        let pst = TwoLevelPst::build(&store, &pts).unwrap();
        for x0 in [-1, 0, 5, 15, 30, 31] {
            for y0 in [-1, 0, 25, 50, 51] {
                let q = TwoSided { x0, y0 };
                let want = canonical(pts.iter().copied().filter(|p| q.contains(p)).collect());
                assert_eq!(canonical(pst.query(&store, q).unwrap()), want, "{q:?}");
            }
        }
    }

    #[test]
    fn empty_and_single_region() {
        let store = PageStore::in_memory(512);
        let pst = TwoLevelPst::build(&store, &[]).unwrap();
        assert!(pst.query(&store, TwoSided { x0: 0, y0: 0 }).unwrap().is_empty());
        // Fewer points than one region: everything sits in the root.
        let pts = uniform_points(&mut Rng::seed_from_u64(3), 50, 100);
        let pst = TwoLevelPst::build(&store, &pts).unwrap();
        let q = TwoSided { x0: 40, y0: 40 };
        let want = canonical(pts.iter().copied().filter(|p| q.contains(p)).collect());
        assert_eq!(canonical(pst.query(&store, q).unwrap()), want);
    }

    #[test]
    fn uses_less_space_than_full_path_caches() {
        // The asymptotic ordering is loglogB (two-level) < logB (segmented)
        // < log n (basic / Lemma 3.1). At practical block sizes the
        // two-level structure's constants (X+Y duplication, inner trees)
        // show its measured advantage against the basic scheme; the
        // experiment harness records the full picture (E14).
        let pts = uniform_points(&mut Rng::seed_from_u64(0x3333), 30_000, 500_000);
        let store_basic = PageStore::in_memory(512);
        crate::build::BasicPst::build(&store_basic, &pts).unwrap();
        let store_two = PageStore::in_memory(512);
        TwoLevelPst::build(&store_two, &pts).unwrap();
        assert!(
            store_two.live_pages() < store_basic.live_pages(),
            "two-level {} !< basic {}",
            store_two.live_pages(),
            store_basic.live_pages()
        );
    }

    #[test]
    fn query_io_is_optimal_shape() {
        let mut rng = Rng::seed_from_u64(0x4444);
        let pts = uniform_points(&mut rng, 30_000, 500_000);
        let store = PageStore::in_memory(512);
        let pst = TwoLevelPst::build(&store, &pts).unwrap();
        let b = block_capacity(512, pst.frame()) as u64;
        for _ in 0..60 {
            let q = TwoSided { x0: rng.gen_range(0..500_000i64), y0: rng.gen_range(0..500_000i64) };
            let (res, c) = pst.query_counted(&store, q).unwrap();
            let t = res.len() as u64;
            let allowed = 60 + 6 * (t / b + 1);
            assert!(c.total() <= allowed, "io={} t={t} ({c:?})", c.total());
        }
    }
}
