//! The recursive region schemes of §4: two-level (Theorem 4.3) and the
//! shared engine for the multilevel scheme (Theorem 4.4).
//!
//! The top-level decomposition uses regions of `(2^h − 1)·B` points, with
//! `2^h − 1` the largest such number that is at most `⌈log₂ B⌉` — still
//! `Θ(B log B)`, so there are only `n/(B log B)` regions, and a full
//! region's inner tree is complete: `2^h − 1` nodes of exactly `B` points,
//! none of them a near-empty leaf that still pays for full-path caches.
//! `B` is the crate's one block unit ([`block_capacity`]). Each region `R`
//! stores (§4):
//!
//! * **X-list** — `R`'s points sorted descending by x, blocked `B` to a
//!   page;
//! * **Y-list** — sorted descending by y, blocked likewise;
//! * **A-list** — the *first blocks* of the X-lists of `R`'s in-segment
//!   ancestors (segment = skeletal page), merged descending by x and
//!   tagged with the source depth;
//! * **S-list** — the first blocks of the Y-lists of the in-segment
//!   right-siblings, merged descending by y, tagged;
//! * an **inner structure** over `R`'s points: a Lemma 3.1 PST with
//!   full-path caches for the two-level scheme (height `O(log log B)` —
//!   Lemma 4.2's space bound), or recursively another region tree with
//!   regions sized by the same rule from the iterated log for the
//!   multilevel scheme (§4.2), bottoming out at the basic PST.
//!
//! The query (§4.1) reads `O(log_B n)` A/S caches along the corner path.
//! Because a cache holds only each ancestor's first block, the
//! **continuation rule** applies: a source's X-list (resp. a sibling's
//! Y-list) is read block by block from its second block if and only if all
//! its copied points qualified — every continued read is a full block of
//! answers except possibly the last. A first block is `B` entries and so is
//! a cache block, so a cache over `k` sources is `k` blocks. The corner
//! region is queried through its inner structure; descendants of
//! fully-inside siblings are traversed region by region, paid for by their
//! parents' full output, each skeletal page read once however many of its
//! regions the traversal visits.

use std::collections::{BTreeMap, HashMap};

use pc_pagestore::codec::{PageReader, PageWriter};
use pc_pagestore::layout::BlockList;
use pc_pagestore::{Page, PageId, PageStore, Point, Record, Result, NULL_PAGE};

use crate::build::{blocked, build_external, points_capacity, CacheMode, PstCore, SEntry};
use crate::mem::{cmp_x, MemPst, TwoSided, NONE};
use crate::query::{run_two_sided, QueryCounters};

/// Byte size of one region record.
///
/// ```text
/// [split_x i64][min_y_y i64][left u64+u16][right u64+u16]
/// [own_cnt u16][left_cnt u16][right_cnt u16][child_leaf_flags u8]
/// [x_list 16][y_list 16][right_y_list 16][a_list 16][s_list 16]
/// [inner_root u64][inner_n u64][inner_is_region u8][u_buf u64]
/// ```
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

/// The paper's `B`: the crate's one block unit, [`points_capacity`].
pub fn block_capacity(page_size: usize) -> usize {
    points_capacity(page_size)
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
pub fn region_caps(page_size: usize, levels: u32) -> Vec<usize> {
    let b = block_capacity(page_size);
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NodeRef {
    pub(crate) page: PageId,
    pub(crate) slot: u16,
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
    pub(crate) x_list: BlockList<Point>,
    pub(crate) y_list: BlockList<Point>,
    pub(crate) right_y_list: BlockList<Point>,
    pub(crate) a_list: BlockList<SEntry>,
    pub(crate) s_list: BlockList<SEntry>,
    pub(crate) inner_root: PageId,
    pub(crate) inner_n: u64,
    pub(crate) inner_is_region: bool,
    pub(crate) u_buf: PageId,
}

pub(crate) fn decode_record(page: &[u8], slot: u16) -> Result<RegionRecord> {
    let offset = PAGE_HEADER + RECORD_LEN * slot as usize;
    let mut r = PageReader::new(&page[offset..offset + RECORD_LEN]);
    let split_x = r.get_i64()?;
    let min_y_y = r.get_i64()?;
    let left = NodeRef { page: PageId(r.get_u64()?), slot: r.get_u16()? };
    let right = NodeRef { page: PageId(r.get_u64()?), slot: r.get_u16()? };
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
        x_list: BlockList::decode(&mut r)?,
        y_list: BlockList::decode(&mut r)?,
        right_y_list: BlockList::decode(&mut r)?,
        a_list: BlockList::decode(&mut r)?,
        s_list: BlockList::decode(&mut r)?,
        inner_root: PageId(r.get_u64()?),
        inner_n: r.get_u64()?,
        inner_is_region: r.get_u8()? != 0,
        u_buf: PageId(r.get_u64()?),
    })
}

/// Re-encodes a region record (used by the dynamic structure's partial
/// rebuilds; the writer must be positioned at the record's start).
pub(crate) fn encode_record(w: &mut PageWriter<'_>, rec: &RegionRecord) -> Result<()> {
    w.put_i64(rec.split_x)?;
    w.put_i64(rec.min_y_y)?;
    for child in [rec.left, rec.right] {
        w.put_u64(child.page.0)?;
        w.put_u16(child.slot)?;
    }
    w.put_u16(rec.own_cnt)?;
    w.put_u16(rec.left_cnt)?;
    w.put_u16(rec.right_cnt)?;
    w.put_u8(u8::from(rec.left_is_leaf) | (u8::from(rec.right_is_leaf) << 1))?;
    rec.x_list.encode(w)?;
    rec.y_list.encode(w)?;
    rec.right_y_list.encode(w)?;
    rec.a_list.encode(w)?;
    rec.s_list.encode(w)?;
    w.put_u64(rec.inner_root.0)?;
    w.put_u64(rec.inner_n)?;
    w.put_u8(u8::from(rec.inner_is_region))?;
    w.put_u64(rec.u_buf.0)
}

/// Decoded page header (dynamic-structure bookkeeping).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PageHeaderInfo {
    pub(crate) count: u16,
    pub(crate) churn: u32,
    pub(crate) subtree_n: u64,
    pub(crate) u_page: PageId,
}

pub(crate) fn decode_header(page: &[u8]) -> Result<PageHeaderInfo> {
    let mut r = PageReader::new(page);
    let count = r.get_u16()?;
    r.skip(2)?;
    let churn = r.get_u32()?;
    let subtree_n = r.get_u64()?;
    let u_page = PageId(r.get_u64()?);
    Ok(PageHeaderInfo { count, churn, subtree_n, u_page })
}

pub(crate) fn encode_header(w: &mut PageWriter<'_>, h: &PageHeaderInfo) -> Result<()> {
    w.put_u16(h.count)?;
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

impl Record for UpdateRec {
    const ENCODED_LEN: usize = 1 + 8 + Point::ENCODED_LEN;

    fn encode(&self, w: &mut PageWriter<'_>) -> Result<()> {
        w.put_u8(u8::from(self.is_delete))?;
        w.put_u64(self.seq)?;
        self.p.encode(w)
    }

    fn decode(r: &mut PageReader<'_>) -> Result<Self> {
        Ok(UpdateRec { is_delete: r.get_u8()? != 0, seq: r.get_u64()?, p: Point::decode(r)? })
    }
}

/// Updates that fit in one buffer page.
pub(crate) fn buffer_capacity(page_size: usize) -> usize {
    (page_size - 2) / UpdateRec::ENCODED_LEN
}

/// Reads a buffer page: `[count u16][UpdateRec * count]`.
pub(crate) fn read_buffer(store: &PageStore, id: PageId) -> Result<Vec<UpdateRec>> {
    let page = store.read(id)?;
    let mut r = PageReader::new(&page);
    let count = r.get_u16()? as usize;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(UpdateRec::decode(&mut r)?);
    }
    Ok(out)
}

/// Writes a buffer page.
pub(crate) fn write_buffer(store: &PageStore, id: PageId, recs: &[UpdateRec]) -> Result<()> {
    let mut buf = vec![0u8; store.page_size()];
    let used = {
        let mut w = PageWriter::new(&mut buf);
        w.put_u16(recs.len() as u16)?;
        for rec in recs {
            rec.encode(&mut w)?;
        }
        w.position()
    };
    store.write(id, &buf[..used])
}

/// Handle to an inner structure: a basic PST (`is_region == false`) or a
/// nested region tree.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InnerHandle {
    pub(crate) root: PageId,
    pub(crate) n: u64,
    pub(crate) is_region: bool,
}

/// Builds a region tree (or a basic PST when `caps` is exhausted) over
/// `points`, returning its handle.
pub(crate) fn build_region_tree(
    store: &PageStore,
    points: &[Point],
    caps: &[usize],
) -> Result<InnerHandle> {
    let page_size = store.page_size();
    if caps.is_empty() {
        let mem = MemPst::build(points, points_capacity(page_size));
        let core = build_external(store, &mem, CacheMode::FullPath)?;
        return Ok(InnerHandle { root: core.root_page, n: core.n, is_region: false });
    }
    let r_cap = caps[0];
    let b = block_capacity(page_size);
    let mem = MemPst::build(points, r_cap);

    // Pagination of this level's tree.
    let (pages, node_loc) = crate::build::paginate(&mem, skeletal_capacity(page_size));
    let page_ids: Vec<PageId> = pages.iter().map(|_| store.alloc()).collect::<Result<_>>()?;

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
    let mut inners: Vec<InnerHandle> = Vec::with_capacity(n_nodes);
    for (node, xs) in mem.nodes.iter().zip(&x_sorted) {
        x_lists.push(blocked(store, xs)?);
        // Node points are already descending by y-key.
        y_lists.push(blocked(store, &node.points)?);
        inners.push(build_region_tree(store, &node.points, &caps[1..])?);
    }

    // A/S caches from in-page ancestor chains (first blocks only).
    let mut a_lists: Vec<BlockList<SEntry>> = vec![BlockList::empty(); n_nodes];
    let mut s_lists: Vec<BlockList<SEntry>> = vec![BlockList::empty(); n_nodes];
    // Chain entries are tagged with the ancestor's *in-page* depth (the
    // chain resets at page boundaries, so its length is exactly that),
    // matching the in-page counter the query maintains.
    struct Frame {
        node: usize,
        chain: Vec<(usize, u16, bool)>,
    }
    let mut stack = vec![Frame { node: 0, chain: Vec::new() }];
    while let Some(Frame { node, chain }) = stack.pop() {
        let mut a: Vec<SEntry> = Vec::new();
        let mut s: Vec<SEntry> = Vec::new();
        for &(anc, anc_depth, went_left) in &chain {
            a.extend(x_sorted[anc].iter().take(b).map(|&p| SEntry { p, depth: anc_depth }));
            if went_left {
                let sib = mem.nodes[anc].right;
                s.extend(
                    mem.nodes[sib].points.iter().take(b).map(|&p| SEntry { p, depth: anc_depth }),
                );
            }
        }
        a.sort_unstable_by(|x, y| cmp_x(&y.p, &x.p));
        s.sort_unstable_by(|x, y| crate::mem::cmp_y(&y.p, &x.p));
        a_lists[node] = blocked(store, &a)?;
        s_lists[node] = blocked(store, &s)?;

        let mn = &mem.nodes[node];
        if mn.left != NONE {
            for (child, went_left) in [(mn.left, true), (mn.right, false)] {
                let chain = if node_loc[child].0 == node_loc[node].0 {
                    let mut c = chain.clone();
                    let inpage_depth = c.len() as u16;
                    c.push((node, inpage_depth, went_left));
                    c
                } else {
                    Vec::new()
                };
                stack.push(Frame { node: child, chain });
            }
        }
    }

    // Serialize.
    let mut buf = vec![0u8; page_size];
    for (page_idx, members) in pages.iter().enumerate() {
        let used = {
            let mut w = PageWriter::new(&mut buf);
            encode_header(
                &mut w,
                &PageHeaderInfo {
                    count: members.len() as u16,
                    churn: 0,
                    subtree_n: mem.nodes[members[0]].subtree_size,
                    u_page: NULL_PAGE,
                },
            )?;
            for &ni in members {
                let node = &mem.nodes[ni];
                w.put_i64(node.split.x)?;
                w.put_i64(node.points.last().map(|p| p.y).unwrap_or(0))?;
                if node.is_leaf() {
                    for _ in 0..2 {
                        w.put_u64(NULL_PAGE.0)?;
                        w.put_u16(0)?;
                    }
                } else {
                    for child in [node.left, node.right] {
                        let (p, s) = node_loc[child];
                        w.put_u64(page_ids[p].0)?;
                        w.put_u16(s)?;
                    }
                }
                w.put_u16(node.points.len() as u16)?;
                if node.is_leaf() {
                    w.put_u16(0)?;
                    w.put_u16(0)?;
                    w.put_u8(3)?;
                } else {
                    w.put_u16(mem.nodes[node.left].points.len() as u16)?;
                    w.put_u16(mem.nodes[node.right].points.len() as u16)?;
                    let flags = u8::from(mem.nodes[node.left].is_leaf())
                        | (u8::from(mem.nodes[node.right].is_leaf()) << 1);
                    w.put_u8(flags)?;
                }
                x_lists[ni].encode(&mut w)?;
                y_lists[ni].encode(&mut w)?;
                if node.is_leaf() {
                    BlockList::<Point>::empty().encode(&mut w)?;
                } else {
                    y_lists[node.right].encode(&mut w)?;
                }
                a_lists[ni].encode(&mut w)?;
                s_lists[ni].encode(&mut w)?;
                w.put_u64(inners[ni].root.0)?;
                w.put_u64(inners[ni].n)?;
                w.put_u8(u8::from(inners[ni].is_region))?;
                w.put_u64(NULL_PAGE.0)?;
            }
            w.position()
        };
        store.write(page_ids[page_idx], &buf[..used])?;
    }

    Ok(InnerHandle { root: page_ids[0], n: points.len() as u64, is_region: true })
}

/// Runs a 2-sided query against a region tree rooted at `root_page`,
/// appending to `results`/`counters` (recursive across levels). Buffered
/// updates encountered along the way (super-node `U` buffers on visited
/// pages, the corner region's `u` buffer) are appended to `pending` for
/// the caller to merge; static structures have no buffers, so it stays
/// empty for them.
pub(crate) fn run_region_query(
    store: &PageStore,
    root_page: PageId,
    q: TwoSided,
    results: &mut Vec<Point>,
    counters: &mut QueryCounters,
    pending: &mut Vec<UpdateRec>,
) -> Result<()> {
    // Nested region levels open nested spans; each sets its own B.
    let _span = pc_obs::span!("pst_region");
    pc_obs::set_block_capacity(block_capacity(store.page_size()) as u64);
    // In-page ancestor info by depth: X-list; sibling info by depth:
    // (Y-list, count, is_leaf, skeletal ref).
    let mut anc: HashMap<u16, BlockList<Point>> = HashMap::new();
    let mut sib: HashMap<u16, (BlockList<Point>, u16, bool, NodeRef)> = HashMap::new();

    let mut ctx = TlCtx {
        store,
        q,
        b: block_capacity(store.page_size()),
        results,
        counters,
        pending,
        held: NULL_PAGE,
        page: Page::from(Vec::new()),
    };
    ctx.load(root_page, true)?;
    let mut slot = 0u16;
    // In-page depth of the current node; matches the cache tags.
    let mut depth = 0u16;
    loop {
        let rec = decode_record(&ctx.page, slot)?;
        let is_leaf = rec.left.page.is_null();
        let is_corner = rec.own_cnt == 0 || rec.min_y_y < q.y0 || is_leaf;
        if is_corner {
            ctx.drain_caches_and_seed(&rec, &anc, &sib, None)?;
            if !rec.u_buf.is_null() {
                ctx.counters.cache_blocks += 1;
                let ops = read_buffer(store, rec.u_buf)?;
                ctx.pending.extend(ops);
            }
            // The corner region itself is answered by its inner structure.
            if rec.inner_n > 0 {
                if rec.inner_is_region {
                    let TlCtx { results, counters, pending, .. } = ctx;
                    run_region_query(store, rec.inner_root, q, results, counters, pending)?;
                } else {
                    let core = PstCore {
                        root_page: rec.inner_root,
                        n: rec.inner_n,
                        mode: CacheMode::FullPath,
                    };
                    let (pts, c) = run_two_sided(store, &core, q)?;
                    ctx.results.extend(pts);
                    ctx.counters.skeletal += c.skeletal;
                    ctx.counters.cache_blocks += c.cache_blocks;
                    ctx.counters.node_blocks += c.node_blocks;
                }
            }
            return Ok(());
        }

        let go_left = q.x0 <= rec.split_x;
        let next = if go_left { rec.left } else { rec.right };
        if next.page != ctx.held {
            // Segment exit: settle this page. The exit's own X-list and its
            // right sibling are read directly (the next segment's caches
            // restart below them).
            // (Visited even when empty: its page's `U` buffer may not be.)
            let exit_sibling = go_left.then_some(rec.right);
            ctx.drain_caches_and_seed(&rec, &anc, &sib, exit_sibling)?;
            ctx.scan_x_prefix(&rec.x_list, 0)?;
            anc.clear();
            sib.clear();
            ctx.load(next.page, true)?;
            slot = next.slot;
            depth = 0;
            continue;
        }
        anc.insert(depth, rec.x_list);
        if go_left && rec.right_cnt > 0 {
            sib.insert(depth, (rec.right_y_list, rec.right_cnt, rec.right_is_leaf, rec.right));
        }
        slot = next.slot;
        depth += 1;
    }
}

/// Queries an [`InnerHandle`] (region tree or basic PST), returning any
/// buffered updates encountered for the caller to merge.
pub(crate) fn query_handle_buffered(
    store: &PageStore,
    handle: InnerHandle,
    q: TwoSided,
) -> Result<(Vec<Point>, Vec<UpdateRec>, QueryCounters)> {
    let mut results = Vec::new();
    let mut counters = QueryCounters::default();
    let mut pending = Vec::new();
    if handle.n == 0 {
        return Ok((results, pending, counters));
    }
    if handle.is_region {
        run_region_query(store, handle.root, q, &mut results, &mut counters, &mut pending)?;
    } else {
        let core = PstCore { root_page: handle.root, n: handle.n, mode: CacheMode::FullPath };
        let (pts, c) = run_two_sided(store, &core, q)?;
        results = pts;
        counters = c;
    }
    Ok((results, pending, counters))
}

/// Queries an [`InnerHandle`] (region tree or basic PST).
pub(crate) fn query_handle(
    store: &PageStore,
    handle: InnerHandle,
    q: TwoSided,
) -> Result<(Vec<Point>, QueryCounters)> {
    let (results, _pending, counters) = query_handle_buffered(store, handle, q)?;
    Ok((results, counters))
}

/// The two-level recursive PST (Theorem 4.3): optimal `O(log_B n + t/B)`
/// 2-sided queries in `O((n/B)·log log B)` disk blocks.
pub struct TwoLevelPst {
    root: InnerHandle,
}

impl TwoLevelPst {
    /// Builds the structure over `points`.
    pub fn build(store: &PageStore, points: &[Point]) -> Result<Self> {
        let caps = region_caps(store.page_size(), 2);
        Ok(TwoLevelPst { root: build_region_tree(store, points, &caps)? })
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

    /// Answers a 2-sided query with I/O counters.
    pub fn query_counted(
        &self,
        store: &PageStore,
        q: TwoSided,
    ) -> Result<(Vec<Point>, QueryCounters)> {
        query_handle(store, self.root, q)
    }
}

struct TlCtx<'a> {
    store: &'a PageStore,
    q: TwoSided,
    b: usize,
    results: &'a mut Vec<Point>,
    counters: &'a mut QueryCounters,
    pending: &'a mut Vec<UpdateRec>,
    /// The skeletal page in hand: regions on it are decoded from `page`
    /// without another read of it or of its `U` buffer.
    held: PageId,
    page: Page,
}

impl TlCtx<'_> {
    /// Takes skeletal page `id` in hand (one I/O, plus its `U` buffer's).
    /// `on_path` marks a step of the corner path rather than of a
    /// descendant traversal.
    fn load(&mut self, id: PageId, on_path: bool) -> Result<()> {
        {
            let _lvl = on_path.then(|| pc_obs::span!("level", self.counters.skeletal));
            self.page = self.store.read(id)?;
        }
        self.held = id;
        self.counters.skeletal += 1;
        let u_page = decode_header(&self.page)?.u_page;
        if !u_page.is_null() {
            self.counters.cache_blocks += 1;
            self.pending.extend(read_buffer(self.store, u_page)?);
        }
        Ok(())
    }

    /// Scans an X-list prefix (descending x) starting at `skip` blocks,
    /// keeping points with `x >= x0` and stopping at the first failure.
    fn scan_x_prefix(&mut self, list: &BlockList<Point>, skip: usize) -> Result<u64> {
        let x0 = self.q.x0;
        self.scan_prefix(list, skip, |p| p.x >= x0)
    }

    /// Scans a Y-list prefix (descending y), keeping points with
    /// `y >= y0`. Returns the number kept.
    fn scan_y_prefix(&mut self, list: &BlockList<Point>, skip: usize) -> Result<u64> {
        let y0 = self.q.y0;
        self.scan_prefix(list, skip, |p| p.y >= y0)
    }

    fn scan_prefix(
        &mut self,
        list: &BlockList<Point>,
        skip: usize,
        keep: impl Fn(&Point) -> bool,
    ) -> Result<u64> {
        let _scan = pc_obs::span!(output: "list_scan");
        let mut kept = 0u64;
        let mut blocks = list.blocks(self.store);
        // Reaching a continued list's next block reads the ones before it:
        // a region record names only the head.
        for _ in 0..skip {
            if blocks.next().transpose()?.is_none() {
                return Ok(0);
            }
            self.counters.node_blocks += 1;
        }
        'scan: for block in blocks {
            self.counters.node_blocks += 1;
            for p in block? {
                if !keep(&p) {
                    break 'scan;
                }
                self.results.push(p);
                kept += 1;
            }
        }
        pc_obs::add_items(kept);
        Ok(kept)
    }

    /// Drains one cache list: reports the prefix that `keep`s and counts
    /// it per source depth (ordered, so that what the caller does per
    /// source — and with it the answer's order — repeats from call to call).
    fn drain_cache(
        &mut self,
        list: &BlockList<SEntry>,
        keep: impl Fn(&Point) -> bool,
    ) -> Result<BTreeMap<u16, u64>> {
        let _probe = pc_obs::span!("path_cache_probe");
        let mut qualified: BTreeMap<u16, u64> = BTreeMap::new();
        let before = self.results.len();
        'scan: for block in list.blocks(self.store) {
            self.counters.cache_blocks += 1;
            for e in block? {
                if !keep(&e.p) {
                    break 'scan;
                }
                self.results.push(e.p);
                *qualified.entry(e.depth).or_insert(0) += 1;
            }
        }
        pc_obs::add_items((self.results.len() - before) as u64);
        Ok(qualified)
    }

    /// Reads the node's A/S caches, applies the continuation rule, and
    /// runs the region-level descendant traversal below every sibling that
    /// lies wholly inside the query — and over `exit_sibling`, the right
    /// sibling of a segment exit, which no cache covers.
    fn drain_caches_and_seed(
        &mut self,
        rec: &RegionRecord,
        anc: &HashMap<u16, BlockList<Point>>,
        sib: &HashMap<u16, (BlockList<Point>, u16, bool, NodeRef)>,
        exit_sibling: Option<NodeRef>,
    ) -> Result<()> {
        let (x0, y0) = (self.q.x0, self.q.y0);
        // A-cache: first blocks of ancestors' X-lists, descending x.
        for (d, cnt) in self.drain_cache(&rec.a_list, |p| p.x >= x0)? {
            let list = anc.get(&d).expect("A entries come from recorded ancestors");
            let copied = (list.len() as usize).min(self.b) as u64;
            if cnt == copied && list.len() > copied {
                self.scan_x_prefix(list, 1)?;
            }
        }

        // S-cache: first blocks of siblings' Y-lists, descending y.
        let mut inside: Vec<NodeRef> = Vec::new();
        for (d, cnt) in self.drain_cache(&rec.s_list, |p| p.y >= y0)? {
            let (list, total, is_leaf, sref) =
                sib.get(&d).expect("S entries come from recorded siblings");
            let copied = (list.len() as usize).min(self.b) as u64;
            let mut qualified = cnt;
            if cnt == copied && list.len() > copied {
                qualified += self.scan_y_prefix(list, 1)?;
            }
            // Region fully inside the query: traverse its children.
            if qualified == u64::from(*total) && !is_leaf {
                inside.push(*sref);
            }
        }
        self.traverse(&inside, exit_sibling)
    }

    /// Region-level descendant traversal. `reported` regions have their
    /// points in the output already and only launch their children; every
    /// other region reports its Y-prefix and is descended into when all of
    /// it qualified. Regions on the page in hand go first: a page is a
    /// connected subtree entered through its slot 0 alone, so this order
    /// reads each skeletal page once.
    fn traverse(&mut self, reported: &[NodeRef], exit_sibling: Option<NodeRef>) -> Result<()> {
        // (region, whether its own points are still to be reported)
        let mut here: Vec<(NodeRef, bool)> = Vec::new();
        let mut elsewhere: Vec<(NodeRef, bool)> = Vec::new();
        elsewhere.extend(exit_sibling.map(|r| (r, true)));
        for &r in reported {
            (if r.page == self.held { &mut here } else { &mut elsewhere }).push((r, false));
        }
        loop {
            let (nref, report) = match here.pop() {
                Some(next) => next,
                None => match elsewhere.pop() {
                    Some(next) => {
                        self.load(next.0.page, false)?;
                        next
                    }
                    None => return Ok(()),
                },
            };
            let rec = decode_record(&self.page, nref.slot)?;
            if report {
                let kept = self.scan_y_prefix(&rec.y_list, 0)?;
                if kept < u64::from(rec.own_cnt) {
                    continue;
                }
            }
            // An empty child is still visited when it opens a page of its
            // own: that page's `U` buffer may hold inserts bound for it.
            for child in [rec.left, rec.right] {
                if child.page == self.held {
                    here.push((child, true));
                } else if !child.page.is_null() {
                    elsewhere.push((child, true));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64, bound: i64) -> i64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state % bound as u64) as i64
    }

    fn random_points(n: usize, domain: i64, seed: u64) -> Vec<Point> {
        let mut s = seed;
        (0..n)
            .map(|id| Point::new(xorshift(&mut s, domain), xorshift(&mut s, domain), id as u64))
            .collect()
    }

    fn brute(points: &[Point], q: TwoSided) -> Vec<u64> {
        let mut ids: Vec<u64> =
            points.iter().filter(|p| q.contains(p)).map(|p| p.id).collect();
        ids.sort_unstable();
        ids
    }

    fn ids(mut pts: Vec<Point>) -> Vec<u64> {
        let mut out: Vec<u64> = pts.drain(..).map(|p| p.id).collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn region_capacity_is_b_log_b() {
        // page 512: B = 20, ceil(log2 20) = 5, largest 2^h - 1 <= 5 is 3.
        assert_eq!(block_capacity(512), 20);
        assert_eq!(region_caps(512, 2), vec![3 * 20]);
        // page 4096: B = 163, ceil(log2 163) = 8, largest 2^h - 1 <= 8 is 7.
        assert_eq!(block_capacity(4096), 163);
        assert_eq!(region_caps(4096, 2), vec![7 * 163]);
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
        assert_eq!(region_caps(4096, 2), vec![1141]);
        assert_eq!(region_caps(4096, 3), vec![1141, 489]);
        assert_eq!(region_caps(4096, 9), vec![1141, 489]); // saturates
        assert_eq!(region_caps(4096, 1), Vec::<usize>::new());
        // B = 20: 5 -> 3 nodes, then 1 (stop).
        assert_eq!(region_caps(512, 9), vec![60]);
    }

    /// Walks a region tree: every region with its in-page depth and the
    /// point counts of the in-page right siblings its S-list copies from.
    fn walk_regions(
        store: &PageStore,
        root: PageId,
        visit: &mut dyn FnMut(&RegionRecord, usize, &[u16]),
    ) {
        let mut stack = vec![(NodeRef { page: root, slot: 0 }, 0usize, Vec::<u16>::new())];
        while let Some((at, inpage, sibs)) = stack.pop() {
            let rec = decode_record(&store.read(at.page).unwrap(), at.slot).unwrap();
            visit(&rec, inpage, &sibs);
            if rec.left.page.is_null() {
                continue;
            }
            for (child, went_left) in [(rec.left, true), (rec.right, false)] {
                if child.page != at.page {
                    stack.push((child, 0, Vec::new()));
                    continue;
                }
                let mut sibs = sibs.clone();
                sibs.extend(went_left.then_some(rec.right_cnt));
                stack.push((child, inpage + 1, sibs));
            }
        }
    }

    /// The block unit end to end, at both page sizes: a region's X/Y lists
    /// are blocks of `B`, its A/S caches over `k` full first blocks are
    /// `k` blocks, a full region's inner tree is complete with every node
    /// full, and the inner full-path caches obey the same rule.
    #[test]
    fn one_block_unit_from_region_lists_to_inner_caches() {
        use crate::build::testutil::{assert_cache_blocks, check_core_caches};
        for (page_size, n, inner_nodes) in [(512, 5_000, 3), (4096, 60_000, 7)] {
            let pts = random_points(n, 1_000_000, 0x1b1b);
            let store = PageStore::in_memory(page_size);
            let pst = TwoLevelPst::build(&store, &pts).unwrap();
            let b = block_capacity(page_size);
            let r_cap = region_caps(page_size, 2)[0];
            assert_eq!(r_cap, inner_nodes * b);
            let (mut regions, mut full_regions) = (0, 0);
            walk_regions(&store, pst.root.root, &mut |rec, inpage, sibs| {
                regions += 1;
                let cnt = rec.own_cnt as usize;
                assert_cache_blocks(&store, &rec.x_list, cnt / b, cnt % b, "X-list");
                assert_cache_blocks(&store, &rec.y_list, cnt / b, cnt % b, "Y-list");
                // Ancestors have children, so each is full: one whole first
                // block apiece. A sibling may be a short leaf.
                assert_cache_blocks(&store, &rec.a_list, inpage, 0, "A-cache");
                let copied: usize = sibs.iter().map(|&c| (c as usize).min(b)).sum();
                assert_cache_blocks(&store, &rec.s_list, copied / b, copied % b, "S-cache");

                assert!(!rec.inner_is_region);
                let (nodes, full) =
                    check_core_caches(&store, rec.inner_root, CacheMode::FullPath);
                if cnt == r_cap {
                    full_regions += 1;
                    assert_eq!((nodes, full), (inner_nodes, inner_nodes), "full region's inner");
                }
            });
            assert!(full_regions >= 10 && full_regions * 3 >= regions, "{full_regions}/{regions}");
        }
    }

    #[test]
    fn matches_brute_force() {
        let pts = random_points(5000, 20_000, 0x2222);
        let store = PageStore::in_memory(512);
        let pst = TwoLevelPst::build(&store, &pts).unwrap();
        let mut s = 0x55u64;
        for i in 0..150 {
            let q = TwoSided {
                x0: xorshift(&mut s, 22_000) - 1000,
                y0: xorshift(&mut s, 22_000) - 1000,
            };
            let res = pst.query(&store, q).unwrap();
            let want = brute(&pts, q);
            assert_eq!(res.len(), want.len(), "dup? q{i}={q:?}");
            assert_eq!(ids(res), want, "q{i}={q:?}");
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
                assert_eq!(ids(pst.query(&store, q).unwrap()), brute(&pts, q), "{q:?}");
            }
        }
    }

    #[test]
    fn empty_and_single_region() {
        let store = PageStore::in_memory(512);
        let pst = TwoLevelPst::build(&store, &[]).unwrap();
        assert!(pst.query(&store, TwoSided { x0: 0, y0: 0 }).unwrap().is_empty());
        // Fewer points than one region: everything sits in the root.
        let pts = random_points(50, 100, 3);
        let pst = TwoLevelPst::build(&store, &pts).unwrap();
        let q = TwoSided { x0: 40, y0: 40 };
        assert_eq!(ids(pst.query(&store, q).unwrap()), brute(&pts, q));
    }

    #[test]
    fn uses_less_space_than_full_path_caches() {
        // The asymptotic ordering is loglogB (two-level) < logB (segmented)
        // < log n (basic / Lemma 3.1). At practical block sizes the
        // two-level structure's constants (X+Y duplication, inner trees)
        // show its measured advantage against the basic scheme; the
        // experiment harness records the full picture (E14).
        let pts = random_points(30_000, 500_000, 0x3333);
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
        let pts = random_points(30_000, 500_000, 0x4444);
        let store = PageStore::in_memory(512);
        let pst = TwoLevelPst::build(&store, &pts).unwrap();
        let b = block_capacity(512) as u64;
        let mut s = 0x66u64;
        for _ in 0..60 {
            let q = TwoSided {
                x0: xorshift(&mut s, 500_000),
                y0: xorshift(&mut s, 500_000),
            };
            let (res, c) = pst.query_counted(&store, q).unwrap();
            let t = res.len() as u64;
            let allowed = 60 + 6 * (t / b + 1);
            assert!(c.total() <= allowed, "io={} t={t} ({c:?})", c.total());
        }
    }
}
