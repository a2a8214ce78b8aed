//! 3-sided queries: `x1 <= x <= x2 && y >= y0` (Theorem 3.3; the static
//! core reused by Theorem 5.2).
//!
//! ## Query anatomy
//!
//! The two vertical boundaries trace two root paths that share a prefix up
//! to the **split node** (the deepest region whose x-range contains both
//! boundaries). Below the split, the left path is a 2-sided problem cut by
//! `x = x1` (everything right of it is `<= x2` automatically) and the
//! right path is its mirror; between them lie fully-contained subtrees.
//! On the shared prefix, a node's qualifying points form a *middle run*
//! `[x1, x2]` of its x-order — not a prefix — which is what costs the
//! extra machinery relative to Theorem 3.2.
//!
//! ## Our instantiation of the Thm 3.3 space/time trade
//!
//! The extended abstract defers the construction; we realize it as:
//!
//! * **One A-list with a directory.** Every node carries its in-segment
//!   ancestors' points once, in descending x. A *directory* maps each
//!   block → (boundary x, page id), so a query jumps straight to the start
//!   of its qualifying run — this is how shared-prefix ancestors are
//!   handled without scanning their out-of-range prefix. The run
//!   `[x1, x2]` is the same set whichever boundary walks it, so the left
//!   walk, the right walk and the shared prefix all scan this one list.
//! * **Threshold-indexed S-lists.** A sibling of a *shared* node lies
//!   wholly outside the query band, so the S-cache must exclude ancestors
//!   above the split. We store one S-list per possible in-page split depth
//!   `j` (`S_j` = right siblings of in-page ancestors at in-page depth
//!   `>= j`, descending y) and the mirrored `S'_j` for left siblings.
//!   This family of up to `h` lists per node, each up to `h` blocks, is
//!   exactly the paper's extra `log B` space factor: total space
//!   `O((n/B)·log² B)`.
//! * **One directory page per node.** The A-directory and the handles of
//!   the S-family are a few hundred bytes together, so they share one
//!   page: `[a_count][(x, page)*][s_count][(S_j, S'_j)*]`.
//!
//! Queries read, per skeletal page on each path: the node's directory
//! page, the run blocks (all answers but ≤ 2 partials), one `S_j` prefix,
//! and the exit's own block — `O(1)` overhead per segment, hence
//! `O(log_B n + t/B)` total.

use std::collections::{BTreeMap, HashMap};

use pc_pagestore::codec::{PageReader, PageWriter};
use pc_pagestore::layout::BlockList;
use pc_pagestore::{Page, PageId, PageStore, Point, Record, Result, NULL_PAGE};

use crate::build::{
    blocked, paginate, points_capacity, read_points_page, write_points_pages, NodeRef, SEntry,
};
use crate::mem::{cmp_x, cmp_y, MemPst, NONE};
use crate::query::{traverse_descendants, QueryCounters};

/// A 3-sided query: report points with `x1 <= x <= x2 && y >= y0`
/// (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreeSided {
    /// Left boundary (inclusive).
    pub x1: i64,
    /// Right boundary (inclusive).
    pub x2: i64,
    /// Bottom boundary (inclusive).
    pub y0: i64,
}

impl ThreeSided {
    /// True if `p` lies in the query region.
    pub fn contains(&self, p: &Point) -> bool {
        self.x1 <= p.x && p.x <= self.x2 && p.y >= self.y0
    }
}

/// Byte size of one 3-sided skeletal record.
pub const RECORD_LEN: usize = 24 + 24 + 10 + 10 + 8 + 2 + 10 + 10 + 16 + 8;
const PAGE_HEADER: usize = 2;

/// Records per skeletal page.
pub fn skeletal_capacity(page_size: usize) -> usize {
    let cap = (page_size - PAGE_HEADER) / RECORD_LEN;
    assert!(cap >= 3, "page size {page_size} too small for a 3-sided PST page");
    cap
}

#[derive(Debug, Clone)]
pub(crate) struct TsRecord {
    pub split: Point,
    pub min_y: Point,
    pub left: NodeRef,
    pub right: NodeRef,
    pub own_pts: PageId,
    pub own_cnt: u16,
    pub left_pts: PageId,
    pub left_cnt: u16,
    pub right_pts: PageId,
    pub right_cnt: u16,
    /// In-page strict ancestors' points, descending x-key.
    pub a_list: BlockList<SEntry>,
    /// The node's [`NodeDir`] page ([`NULL_PAGE`] for a page's subtree
    /// root, which has no in-page ancestors).
    pub dir: PageId,
}

impl TsRecord {
    pub(crate) fn decode(page: &[u8], slot: u16) -> Result<TsRecord> {
        let offset = PAGE_HEADER + RECORD_LEN * slot as usize;
        let mut r = PageReader::new(&page[offset..offset + RECORD_LEN]);
        Ok(TsRecord {
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
            a_list: BlockList::decode(&mut r)?,
            dir: PageId(r.get_u64()?),
        })
    }

    pub(crate) fn encode(&self, w: &mut PageWriter<'_>) -> Result<()> {
        self.split.encode(w)?;
        self.min_y.encode(w)?;
        for child in [self.left, self.right] {
            w.put_u64(child.page.0)?;
            w.put_u16(child.slot)?;
        }
        for (pts, cnt) in [
            (self.own_pts, self.own_cnt),
            (self.left_pts, self.left_cnt),
            (self.right_pts, self.right_cnt),
        ] {
            w.put_u64(pts.0)?;
            w.put_u16(cnt)?;
        }
        self.a_list.encode(w)?;
        w.put_u64(self.dir.0)
    }
}

/// A node's directory page: where each block of its A-list starts, and
/// the handles of its S-family.
#[derive(Debug, Default)]
pub(crate) struct NodeDir {
    /// Per A-list block, in chain order: the x of the block's **last**
    /// (smallest) entry and the block's page.
    pub a: Vec<(i64, PageId)>,
    /// Entry `j` holds (`S_j` right-siblings, `S'_j` left-siblings).
    pub s: Vec<(BlockList<SEntry>, BlockList<SEntry>)>,
}

impl NodeDir {
    pub(crate) fn read(store: &PageStore, id: PageId) -> Result<NodeDir> {
        let page = store.read(id)?;
        let mut r = PageReader::new(&page);
        let a = (0..r.get_u16()?)
            .map(|_| Ok((r.get_i64()?, PageId(r.get_u64()?))))
            .collect::<Result<_>>()?;
        let s = (0..r.get_u16()?)
            .map(|_| Ok((BlockList::decode(&mut r)?, BlockList::decode(&mut r)?)))
            .collect::<Result<_>>()?;
        Ok(NodeDir { a, s })
    }

    pub(crate) fn write(&self, store: &PageStore, id: PageId) -> Result<()> {
        let mut buf = vec![0u8; store.page_size()];
        let used = {
            let mut w = PageWriter::new(&mut buf);
            w.put_u16(self.a.len() as u16)?;
            for &(x, page) in &self.a {
                w.put_i64(x)?;
                w.put_u64(page.0)?;
            }
            w.put_u16(self.s.len() as u16)?;
            for (right_sibs, left_sibs) in &self.s {
                right_sibs.encode(&mut w)?;
                left_sibs.encode(&mut w)?;
            }
            w.position()
        };
        store.write(id, &buf[..used])
    }
}

/// External PST for 3-sided queries: `O(log_B n + t/B)` I/Os,
/// `O((n/B)·log² B)` blocks (Theorem 3.3).
pub struct ThreeSidedPst {
    pub(crate) root_page: PageId,
    pub(crate) n: u64,
}

impl ThreeSidedPst {
    /// Builds the structure over `points`.
    pub fn build(store: &PageStore, points: &[Point]) -> Result<Self> {
        let page_size = store.page_size();
        let mem = MemPst::build(points, points_capacity(page_size));
        let pts_ids = write_points_pages(store, &mem)?;
        let (pages, node_loc) = paginate(&mem, skeletal_capacity(page_size));
        let page_ids: Vec<PageId> =
            pages.iter().map(|_| store.alloc()).collect::<Result<_>>()?;

        let n_nodes = mem.nodes.len();
        let mut a_list = vec![BlockList::empty(); n_nodes];
        let mut dir = vec![NULL_PAGE; n_nodes];

        // DFS with in-page chains: (arena idx, in-page depth, went_left).
        struct Frame {
            node: usize,
            chain: Vec<(usize, u16, bool)>,
        }
        let mut stack = vec![Frame { node: 0, chain: Vec::new() }];
        let cap = points_capacity(page_size);
        while let Some(Frame { node, chain }) = stack.pop() {
            if !chain.is_empty() {
                // A-list: every in-page strict ancestor's points, tagged
                // with the ancestor's in-page depth so boundary walks can
                // skip shared ancestors already reported by the shared
                // phase.
                let mut a: Vec<SEntry> = Vec::new();
                for &(anc, inpage_depth, _) in &chain {
                    a.extend(
                        mem.nodes[anc].points.iter().map(|&p| SEntry { p, depth: inpage_depth }),
                    );
                }
                a.sort_unstable_by(|p, q| cmp_x(&q.p, &p.p));
                a_list[node] = blocked(store, &a)?;
                let mut node_dir = NodeDir::default();
                for (chunk, page) in a.chunks(cap).zip(a_list[node].block_pages(store)?) {
                    node_dir.a.push((chunk.last().expect("chunks are non-empty").p.x, page));
                }

                // Threshold-indexed S-families; `chain.len()` is the
                // in-page depth of `node`.
                for j in 0..chain.len() as u16 {
                    let mut right_sibs: Vec<SEntry> = Vec::new();
                    let mut left_sibs: Vec<SEntry> = Vec::new();
                    for &(anc, inpage_depth, went_left) in &chain {
                        if inpage_depth < j {
                            continue;
                        }
                        // Tag with the *in-page* depth: within one page the
                        // chain is a path, so in-page depth uniquely names
                        // the ancestor, and the query walk can reconstruct
                        // it without knowing absolute depths.
                        let (sib, sibs) = if went_left {
                            (mem.nodes[anc].right, &mut right_sibs)
                        } else {
                            (mem.nodes[anc].left, &mut left_sibs)
                        };
                        sibs.extend(
                            mem.nodes[sib].points.iter().map(|&p| SEntry { p, depth: inpage_depth }),
                        );
                    }
                    right_sibs.sort_unstable_by(|x, y| cmp_y(&y.p, &x.p));
                    left_sibs.sort_unstable_by(|x, y| cmp_y(&y.p, &x.p));
                    node_dir.s.push((blocked(store, &right_sibs)?, blocked(store, &left_sibs)?));
                }
                dir[node] = store.alloc()?;
                node_dir.write(store, dir[node])?;
            }

            let mn = &mem.nodes[node];
            if mn.left != NONE {
                for (child, went_left) in [(mn.left, true), (mn.right, false)] {
                    let same_page = node_loc[child].0 == node_loc[node].0;
                    let chain = if same_page {
                        let mut c = chain.clone();
                        c.push((node, c.len() as u16, went_left));
                        c
                    } else {
                        Vec::new()
                    };
                    stack.push(Frame { node: child, chain });
                }
            }
        }

        // Serialize skeletal pages.
        let mut buf = vec![0u8; page_size];
        let child = |ni: usize| match ni {
            NONE => (NodeRef { page: NULL_PAGE, slot: 0 }, NULL_PAGE, 0),
            _ => {
                let (p, slot) = node_loc[ni];
                (NodeRef { page: page_ids[p], slot }, pts_ids[ni], mem.nodes[ni].points.len() as u16)
            }
        };
        for (page_idx, members) in pages.iter().enumerate() {
            let used = {
                let mut w = PageWriter::new(&mut buf);
                w.put_u16(members.len() as u16)?;
                for &ni in members {
                    let node = &mem.nodes[ni];
                    let (left, left_pts, left_cnt) = child(node.left);
                    let (right, right_pts, right_cnt) = child(node.right);
                    TsRecord {
                        split: node.split,
                        min_y: node.points.last().copied().unwrap_or(Point::new(0, 0, 0)),
                        left,
                        right,
                        own_pts: pts_ids[ni],
                        own_cnt: node.points.len() as u16,
                        left_pts,
                        left_cnt,
                        right_pts,
                        right_cnt,
                        a_list: a_list[ni],
                        dir: dir[ni],
                    }
                    .encode(&mut w)?;
                }
                w.position()
            };
            store.write(page_ids[page_idx], &buf[..used])?;
        }

        Ok(ThreeSidedPst { root_page: page_ids[0], n: points.len() as u64 })
    }

    /// Number of indexed points.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Frees every page of the structure: skeletal pages and, per node,
    /// its points page, A-list, directory page and the S-family the
    /// directory indexes. The handle must not be used again.
    pub fn free(&self, store: &PageStore) -> Result<()> {
        // Skeletal pages form a tree, so each is reached exactly once.
        let mut stack = vec![self.root_page];
        while let Some(pid) = stack.pop() {
            let page = store.read(pid)?;
            for slot in 0..PageReader::new(&page).get_u16()? {
                let rec = TsRecord::decode(&page, slot)?;
                store.free(rec.own_pts)?;
                rec.a_list.free(store)?;
                if !rec.dir.is_null() {
                    for (right_sibs, left_sibs) in NodeDir::read(store, rec.dir)?.s {
                        right_sibs.free(store)?;
                        left_sibs.free(store)?;
                    }
                    store.free(rec.dir)?;
                }
                stack.extend(
                    [rec.left.page, rec.right.page].iter().filter(|p| !p.is_null() && **p != pid),
                );
            }
            store.free(pid)?;
        }
        Ok(())
    }

    /// Answers a 3-sided query.
    pub fn query(&self, store: &PageStore, q: ThreeSided) -> Result<Vec<Point>> {
        Ok(self.query_counted(store, q)?.0)
    }

    /// Answers a 3-sided query with I/O counters.
    pub fn query_counted(
        &self,
        store: &PageStore,
        q: ThreeSided,
    ) -> Result<(Vec<Point>, QueryCounters)> {
        assert!(q.x1 <= q.x2, "3-sided query bounds out of order");
        let _span = pc_obs::span!("pst3_query");
        pc_obs::set_block_capacity(points_capacity(store.page_size()) as u64);
        let mut ctx = TsCtx {
            store,
            q,
            cap: points_capacity(store.page_size()) as u16,
            results: Vec::new(),
            counters: QueryCounters::default(),
        };

        // --- Shared prefix -------------------------------------------------
        let mut cur_page_id = self.root_page;
        let mut page = {
            let _lvl = pc_obs::span!("level", 0u64);
            store.read(cur_page_id)?
        };
        ctx.counters.skeletal += 1;
        let mut slot = 0u16;
        let mut inpage_depth = 0u16;
        loop {
            let rec = TsRecord::decode(&page, slot)?;
            let is_leaf = rec.left.page.is_null();
            let is_corner = rec.own_cnt == 0 || rec.min_y.y < q.y0 || is_leaf;
            if is_corner {
                // Everything below fails the y bound; the shared prefix is
                // the whole relevant tree.
                let dir = ctx.read_dir(&rec)?;
                ctx.middle_run(&dir, 0)?;
                ctx.read_own(&rec, true)?;
                return Ok((ctx.results, ctx.counters));
            }
            // Routing keys: qx1 = (x1, -inf, -inf), qx2 = (x2, +inf, +inf).
            let left1 = q.x1 <= rec.split.x;
            let left2 = q.x2 < rec.split.x;
            if left1 != left2 {
                // Split node: middle-filter it and its covered ancestors,
                // then walk each boundary independently.
                let dir = ctx.read_dir(&rec)?;
                ctx.middle_run(&dir, 0)?;
                ctx.read_own(&rec, false)?;
                let thr_left = inpage_threshold(rec.left.page, cur_page_id, inpage_depth);
                let thr_right = inpage_threshold(rec.right.page, cur_page_id, inpage_depth);
                ctx.boundary_walk::<true>(rec.left, thr_left, cur_page_id, &page)?;
                ctx.boundary_walk::<false>(rec.right, thr_right, cur_page_id, &page)?;
                return Ok((ctx.results, ctx.counters));
            }
            let next = if left1 { rec.left } else { rec.right };
            if next.page != cur_page_id {
                // Shared-segment exit: middle contributions for this page.
                let dir = ctx.read_dir(&rec)?;
                ctx.middle_run(&dir, 0)?;
                ctx.read_own(&rec, false)?;
                cur_page_id = next.page;
                page = {
                    let _lvl = pc_obs::span!("level", ctx.counters.skeletal);
                    store.read(cur_page_id)?
                };
                ctx.counters.skeletal += 1;
                inpage_depth = 0;
            } else {
                inpage_depth += 1;
            }
            slot = next.slot;
        }
    }
}

/// Threshold for the child's S-family: if the child stays in the split's
/// page, ancestors at in-page depth <= the split's must be excluded.
fn inpage_threshold(child_page: PageId, split_page: PageId, split_inpage_depth: u16) -> u16 {
    if child_page == split_page {
        split_inpage_depth + 1
    } else {
        0
    }
}

struct TsCtx<'a> {
    store: &'a PageStore,
    q: ThreeSided,
    cap: u16,
    results: Vec<Point>,
    counters: QueryCounters,
}

impl TsCtx<'_> {
    /// Reads a node's own block, filtering with the full predicate.
    ///
    /// `output_scan` marks the corner's block (output-amortized); the
    /// per-segment exit and split-node reads are fixed search overhead.
    fn read_own(&mut self, rec: &TsRecord, output_scan: bool) -> Result<()> {
        if rec.own_cnt == 0 {
            return Ok(());
        }
        let _scan = if output_scan {
            pc_obs::span!(output: "node_block")
        } else {
            pc_obs::span!("node_block")
        };
        let before = self.results.len();
        let pp = read_points_page(self.store, rec.own_pts)?;
        self.counters.node_blocks += 1;
        self.results.extend(pp.points.iter().filter(|p| self.q.contains(p)));
        pc_obs::add_items((self.results.len() - before) as u64);
        Ok(())
    }

    /// Reads a node's directory page (one navigation I/O); a page's
    /// subtree root has none.
    fn read_dir(&mut self, rec: &TsRecord) -> Result<NodeDir> {
        if rec.dir.is_null() {
            return Ok(NodeDir::default());
        }
        self.counters.cache_blocks += 1;
        NodeDir::read(self.store, rec.dir)
    }

    /// Middle-run scan of the A-list: directory-jump to the first block
    /// containing `x <= x2`, then scan while `x >= x1`, filtering the
    /// transition block. Entries from ancestors at in-page depth
    /// `< min_depth` (shared prefix, already reported) are skipped.
    fn middle_run(&mut self, dir: &NodeDir, min_depth: u16) -> Result<()> {
        // boundary_x is the block's smallest x (descending list): the first
        // block whose minimum is <= x2 can contain qualifying entries.
        let Some(&(_, start)) = dir.a.iter().find(|&&(bx, _)| bx <= self.q.x2) else {
            return Ok(());
        };
        let _probe = pc_obs::span!("path_cache_probe");
        let before = self.results.len();
        let mut next = start;
        'run: while !next.is_null() {
            let (entries, nxt) = BlockList::<SEntry>::read_block(self.store, next)?;
            self.counters.cache_blocks += 1;
            for e in entries {
                if e.p.x < self.q.x1 {
                    break 'run;
                }
                if e.p.x <= self.q.x2 && e.depth >= min_depth {
                    self.results.push(e.p);
                }
            }
            next = nxt;
        }
        pc_obs::add_items((self.results.len() - before) as u64);
        Ok(())
    }

    /// Drains `S_threshold` of the node's S-family: a descending-y prefix
    /// with per-depth counts, then seeds descendant traversals for
    /// fully-inside siblings.
    fn drain_s<const LEFT: bool>(
        &mut self,
        dir: &NodeDir,
        threshold: u16,
        sib: &HashMap<u16, (PageId, u16)>,
    ) -> Result<()> {
        let Some(&(right_sibs, left_sibs)) = dir.s.get(threshold as usize) else {
            return Ok(());
        };
        let list = if LEFT { right_sibs } else { left_sibs };

        // Ordered by depth, so the answer's order repeats from call to call.
        let mut qualified: BTreeMap<u16, u16> = BTreeMap::new();
        {
            let _probe = pc_obs::span!("path_cache_probe");
            let before = self.results.len();
            's_scan: for block in list.blocks(self.store) {
                self.counters.cache_blocks += 1;
                for e in block? {
                    if e.p.y < self.q.y0 {
                        break 's_scan;
                    }
                    self.results.push(e.p);
                    *qualified.entry(e.depth).or_insert(0) += 1;
                }
            }
            pc_obs::add_items((self.results.len() - before) as u64);
        }
        for (d, cnt) in qualified {
            let &(pts, total) = sib.get(&d).expect("S entries come from recorded siblings");
            if cnt == total && total == self.cap {
                traverse_descendants(
                    self.store,
                    pts,
                    false,
                    self.q.y0,
                    &mut self.results,
                    &mut self.counters,
                )?;
            }
        }
        Ok(())
    }

    /// Walks one boundary path below the split. `LEFT` walks the `x1`
    /// boundary (right siblings are inside the band); `!LEFT` mirrors it.
    fn boundary_walk<const LEFT: bool>(
        &mut self,
        start: NodeRef,
        mut threshold: u16,
        split_page_id: PageId,
        split_page: &Page,
    ) -> Result<()> {
        if start.page.is_null() {
            return Ok(());
        }
        let mut cur_page_id;
        let mut page;
        if start.page == split_page_id {
            cur_page_id = split_page_id;
            page = split_page.clone();
        } else {
            cur_page_id = start.page;
            page = {
                let _lvl = pc_obs::span!("level", self.counters.skeletal);
                self.store.read(cur_page_id)?
            };
            self.counters.skeletal += 1;
        }
        let mut slot = start.slot;
        // Sibling map keyed by *in-page* depth, matching the build-time S
        // tags. When the walk starts inside the split's page, its first
        // node sits at in-page depth `threshold` (= split depth + 1).
        let mut sib: HashMap<u16, (PageId, u16)> = HashMap::new();
        let mut inpage_depth = threshold;
        loop {
            let rec = TsRecord::decode(&page, slot)?;
            let is_leaf = rec.left.page.is_null();
            let is_corner = rec.own_cnt == 0 || rec.min_y.y < self.q.y0 || is_leaf;
            if is_corner {
                let dir = self.read_dir(&rec)?;
                self.middle_run(&dir, threshold)?;
                self.drain_s::<LEFT>(&dir, threshold, &sib)?;
                self.read_own(&rec, true)?;
                return Ok(());
            }
            // Route by this walk's boundary.
            let go_left = if LEFT { self.q.x1 <= rec.split.x } else { self.q.x2 < rec.split.x };
            // The inside sibling: right child on the left path when going
            // left; left child on the right path when going right.
            let inside_sib = if LEFT && go_left {
                (rec.right_cnt > 0).then_some((rec.right_pts, rec.right_cnt))
            } else if !LEFT && !go_left {
                (rec.left_cnt > 0).then_some((rec.left_pts, rec.left_cnt))
            } else {
                None
            };
            let next = if go_left { rec.left } else { rec.right };
            let crosses = next.page != cur_page_id;
            if crosses {
                let dir = self.read_dir(&rec)?;
                self.middle_run(&dir, threshold)?;
                self.drain_s::<LEFT>(&dir, threshold, &sib)?;
                self.read_own(&rec, false)?;
                // The exit's inside sibling belongs to no S-list below it.
                if let Some((pts, _)) = inside_sib {
                    traverse_descendants(
                        self.store,
                        pts,
                        true,
                        self.q.y0,
                        &mut self.results,
                        &mut self.counters,
                    )?;
                }
                sib.clear();
                threshold = 0;
                cur_page_id = next.page;
                page = {
                    let _lvl = pc_obs::span!("level", self.counters.skeletal);
                    self.store.read(cur_page_id)?
                };
                self.counters.skeletal += 1;
                inpage_depth = 0;
                slot = next.slot;
                continue;
            }
            if let Some(info) = inside_sib {
                sib.insert(inpage_depth, info);
            }
            slot = next.slot;
            inpage_depth += 1;
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

    fn brute(points: &[Point], q: ThreeSided) -> Vec<u64> {
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

    fn check(points: &[Point], queries: &[ThreeSided], page_size: usize) {
        let store = PageStore::in_memory(page_size);
        let pst = ThreeSidedPst::build(&store, points).unwrap();
        for (i, &q) in queries.iter().enumerate() {
            let res = pst.query(&store, q).unwrap();
            let want = brute(points, q);
            assert_eq!(res.len(), want.len(), "dup? q{i}={q:?}");
            assert_eq!(ids(res), want, "q{i}={q:?}");
        }
    }

    #[test]
    fn matches_brute_force_random() {
        let pts = random_points(4000, 10_000, 0x35);
        let mut s = 0x99u64;
        let queries: Vec<ThreeSided> = (0..150)
            .map(|_| {
                let a = xorshift(&mut s, 11_000) - 500;
                let b = a + xorshift(&mut s, 4_000);
                ThreeSided { x1: a, x2: b, y0: xorshift(&mut s, 11_000) - 500 }
            })
            .collect();
        check(&pts, &queries, 512);
    }

    #[test]
    fn narrow_and_degenerate_bands() {
        let pts = random_points(2000, 1000, 7);
        let mut queries = Vec::new();
        for x in [0i64, 100, 500, 999, 1000] {
            queries.push(ThreeSided { x1: x, x2: x, y0: 0 });
            queries.push(ThreeSided { x1: x, x2: x + 1, y0: 500 });
        }
        queries.push(ThreeSided { x1: -100, x2: 2000, y0: -5 }); // everything
        queries.push(ThreeSided { x1: 2000, x2: 3000, y0: 0 }); // nothing right
        queries.push(ThreeSided { x1: -50, x2: -10, y0: 0 }); // nothing left
        check(&pts, &queries, 512);
    }

    #[test]
    fn duplicate_coordinates() {
        let pts: Vec<Point> =
            (0..900).map(|i| Point::new((i % 5) as i64 * 10, (i % 9) as i64 * 10, i)).collect();
        let mut queries = Vec::new();
        for x1 in [-1i64, 0, 10, 20] {
            for x2 in [10i64, 20, 40, 41] {
                if x1 > x2 {
                    continue;
                }
                for y0 in [-1i64, 0, 40, 80, 81] {
                    queries.push(ThreeSided { x1, x2, y0 });
                }
            }
        }
        check(&pts, &queries, 512);
    }

    /// Every x that ends a block of some node's A-list: a band ending on
    /// one starts or stops its middle run exactly on a block boundary.
    fn block_boundary_xs(points: &[Point], page_size: usize) -> Vec<i64> {
        let store = PageStore::in_memory(page_size);
        let pst = ThreeSidedPst::build(&store, points).unwrap();
        let mut xs = Vec::new();
        let mut stack = vec![pst.root_page];
        while let Some(pid) = stack.pop() {
            let page = store.read(pid).unwrap();
            for slot in 0..PageReader::new(&page).get_u16().unwrap() {
                let rec = TsRecord::decode(&page, slot).unwrap();
                if !rec.dir.is_null() {
                    xs.extend(NodeDir::read(&store, rec.dir).unwrap().a.iter().map(|&(x, _)| x));
                }
                stack.extend(
                    [rec.left.page, rec.right.page].iter().filter(|p| !p.is_null() && **p != pid),
                );
            }
        }
        xs.sort_unstable();
        xs.dedup();
        xs
    }

    /// One descending A-list serves the left walk, the right walk and the
    /// shared prefix: bands whose ends sit on its block boundaries, over
    /// data with 40-fold x-ties and over distinct xs.
    #[test]
    fn x_ties_and_bands_ending_on_block_boundaries() {
        let mut s = 0x71e5u64;
        let tied: Vec<Point> =
            (0..3000).map(|i| Point::new((i * 7 % 75) as i64, xorshift(&mut s, 500), i)).collect();
        let distinct: Vec<Point> =
            (0..3000).map(|i| Point::new(i as i64 * 3, xorshift(&mut s, 500), i)).collect();
        for pts in [tied, distinct] {
            let xs = block_boundary_xs(&pts, 512);
            assert!(xs.len() > 20, "only {} block boundaries", xs.len());
            let mut queries = Vec::new();
            for (i, &bx) in xs.iter().enumerate() {
                let other = xs[(i * 13 + 5) % xs.len()];
                for (x1, x2) in [(bx, bx), (bx - 1, bx), (bx, bx + 1), (bx.min(other), bx.max(other))]
                {
                    queries.push(ThreeSided { x1, x2, y0: (i as i64 * 37) % 520 - 10 });
                }
            }
            check(&pts, &queries, 512);
        }
    }

    /// A node at in-page depth `d` copies `d` full ancestors: its A-list is
    /// `d` blocks of `B`, one directory entry each; `S_j` copies the
    /// siblings at in-page depth `>= j`, whole blocks but the last. And the
    /// free-walk returns every page of it.
    #[test]
    fn caches_are_whole_blocks_and_free_returns_every_page() {
        use crate::build::testutil::assert_cache_blocks;
        for (page_size, n) in [(512, 6_000), (4096, 60_000)] {
            let pts = random_points(n, 1_000_000, 0x3b3b);
            let store = PageStore::in_memory(page_size);
            let pst = ThreeSidedPst::build(&store, &pts).unwrap();
            let b = points_capacity(page_size);
            // (node, in-page depth, per in-page ancestor: (right, left) sibling size)
            let mut stack = vec![(NodeRef { page: pst.root_page, slot: 0 }, Vec::<(u16, u16)>::new())];
            let mut deepest = 0;
            while let Some((at, sibs)) = stack.pop() {
                let rec = TsRecord::decode(&store.read(at.page).unwrap(), at.slot).unwrap();
                deepest = deepest.max(sibs.len());
                assert_cache_blocks(&store, &rec.a_list, sibs.len(), 0, "A-list");
                let dir = if rec.dir.is_null() {
                    NodeDir::default()
                } else {
                    NodeDir::read(&store, rec.dir).unwrap()
                };
                assert_eq!(dir.a.len(), sibs.len(), "one directory entry per A-block");
                assert_eq!(dir.s.len(), sibs.len(), "one S-pair per split depth");
                for (j, (right_sibs, left_sibs)) in dir.s.iter().enumerate() {
                    let right: usize = sibs[j..].iter().map(|&(r, _)| r as usize).sum();
                    let left: usize = sibs[j..].iter().map(|&(_, l)| l as usize).sum();
                    assert_cache_blocks(&store, right_sibs, right / b, right % b, "S_j");
                    assert_cache_blocks(&store, left_sibs, left / b, left % b, "S'_j");
                }
                if rec.left.page.is_null() {
                    continue;
                }
                for (child, went_left) in [(rec.left, true), (rec.right, false)] {
                    let mut sibs = if child.page == at.page { sibs.clone() } else { Vec::new() };
                    if child.page == at.page {
                        sibs.push(if went_left { (rec.right_cnt, 0) } else { (0, rec.left_cnt) });
                    }
                    stack.push((child, sibs));
                }
            }
            assert!(deepest >= 2, "no node deeper than {deepest} in its page");
            pst.free(&store).unwrap();
            assert_eq!(store.live_pages(), 0, "free-walk left pages behind");
        }
    }

    #[test]
    fn three_sided_reduces_to_two_sided_when_x2_unbounded() {
        use crate::build::SegmentedPst;
        use crate::mem::TwoSided;
        let pts = random_points(3000, 5000, 0xaa);
        let store = PageStore::in_memory(512);
        let ts = ThreeSidedPst::build(&store, &pts).unwrap();
        let seg = SegmentedPst::build(&store, &pts).unwrap();
        let mut s = 0xbbu64;
        for _ in 0..40 {
            let x0 = xorshift(&mut s, 5000);
            let y0 = xorshift(&mut s, 5000);
            let a = ts.query(&store, ThreeSided { x1: x0, x2: i64::MAX, y0 }).unwrap();
            let b = seg.query(&store, TwoSided { x0, y0 }).unwrap();
            assert_eq!(ids(a), ids(b));
        }
    }

    #[test]
    fn query_io_is_optimal_shape() {
        let pts = random_points(20_000, 100_000, 0xcc);
        let store = PageStore::in_memory(512);
        let pst = ThreeSidedPst::build(&store, &pts).unwrap();
        let b = points_capacity(512) as u64;
        let mut s = 0xddu64;
        for _ in 0..60 {
            let a = xorshift(&mut s, 100_000);
            let w = xorshift(&mut s, 30_000);
            let q = ThreeSided { x1: a, x2: a + w, y0: xorshift(&mut s, 100_000) };
            let (res, c) = pst.query_counted(&store, q).unwrap();
            let t = res.len() as u64;
            // Two boundary paths, each ~log_B n segments of O(1) reads.
            let allowed = 90 + 6 * (t / b + 1);
            assert!(c.total() <= allowed, "io={} t={t} ({c:?})", c.total());
        }
    }

    #[test]
    fn space_is_log_squared_b_shaped() {
        let pts = random_points(20_000, 100_000, 0xee);
        let store = PageStore::in_memory(512);
        let before = store.live_pages();
        ThreeSidedPst::build(&store, &pts).unwrap();
        let pages = store.live_pages() - before;
        let b = points_capacity(512) as u64;
        let log_b = 5u64;
        let bound = 6 * (20_000 / b) * log_b * log_b;
        assert!(pages <= bound, "space {pages} exceeds O(n/B log^2 B) ~ {bound}");
    }
}
