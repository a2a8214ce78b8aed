//! Fully dynamic PSTs (§5): buffered updates over the two-level structure.
//!
//! ## Mechanism (Theorem 5.1)
//!
//! Following §5, every *super node* — realized here as one skeletal page of
//! the region tree, a subtree of height `h ≈ log B` — carries an update
//! buffer `U` of one block, and every region carries a buffer `u`:
//!
//! * An update is logged in the root's `U`. When `U`
//!   overflows, its updates trickle one level of pages down: each is either
//!   applied to the in-page region that contains its coordinates or
//!   forwarded to a child page's `U`, cascading. A buffer is one block of
//!   the block codec and holds as many updates as fit it. A flush rewrites
//!   the X/Y lists of the regions it touched — the record takes the new
//!   lists' first *and second* block, and the first's count, from the
//!   build — and, of the page's caches,
//!   those with a source whose *first* X- (Y-) block moved: a cache copies
//!   nothing else, and an applied point's rank in both orders is known
//!   when it is applied. A cache list lives once, in the record of the
//!   parent of the regions that drain it (the `region` module header), so
//!   a moved first block rebuilds one list per parent below it, not one
//!   per sibling. `O(B)` I/Os per flush, `O(1)` amortized.
//! * Applied updates are also logged in the region's `u`; the region's
//!   **inner PST is rebuilt only when `u` overflows** (`O(log B · log log
//!   B)` per `B` updates — §5's accounting).
//! * Queries run the static §4.1 algorithm, reading the `U` buffer of
//!   every page they visit below the root and, where the corner asks its
//!   inner PST (not its lists, which hold `u`'s ops), the corner's `u`;
//!   then merge: buffered deletes mask stale results,
//!   buffered inserts that satisfy the query are added. Sequence stamps
//!   resolve op order across buffer levels. The merge costs one extra I/O
//!   per visited page — `O(log_B n)` — and can remove at most one block's
//!   worth of points per super node, which is the paper's "for every
//!   `B log B` points we collect we can lose at most `B`" argument.
//!
//! ## The root's `U` (documented in DESIGN.md)
//!
//! The root's `U` is one block, as every page's, under the same capacity
//! rule ([`buffer_room`] against one page), and flushes at the same ops;
//! but it is held in memory and persisted in the [`DynamicPst::descriptor`]
//! rather than on a page of its own. An update that does not flush the
//! root therefore costs no page I/O, and a service that commits the
//! descriptor with each batch commits the root's ops with it. A query
//! takes of them only the ops in its corner: an op outside the corner
//! neither adds to the answer nor masks a point of it.
//!
//! ## Substitution (documented in DESIGN.md)
//!
//! The paper maintains balance by re-dividing super nodes every `B log B`
//! updates (same x-division, new y-lines, pushing/borrowing points across
//! super-node boundaries) plus subtree rebuilds on 2× sibling imbalance.
//! We substitute both with a single mechanism at the same amortized cost:
//! a per-page churn counter triggers a **subtree rebuild** (gather all
//! live points below the page, resolve pending ops by stamp, free the old
//! subtree — every list has one owner, so one walk names each page once —
//! rebuild statically, splice into the parent, whose record copies the new
//! root's count and the handle of its Y-list). A rebuild restores
//! the perfect decomposition, which subsumes re-division and rebalancing.
//! Rebuilds are also triggered eagerly by two rare invariant hazards (a
//! region emptied by deletes while it still has children, or a region
//! whose Y-list grew past twice its blocks); an adversarially targeted delete
//! stream can therefore exceed the amortized bound — the trade-off is noted
//! in EXPERIMENTS.md.
//!
//! ## Dynamic 3-sided queries (Theorem 5.2)
//!
//! [`DynamicThreeSidedPst`] wraps the static Theorem 3.3 structure with a
//! root buffer of `B·log_B n` updates (queries scan it: `O(log_B n)` extra
//! I/Os, keeping queries optimal) and, on overflow, frees the structure and
//! builds it again. The measured amortized update cost is reported in
//! experiment E11.
//!
//! Both structures append the buffered inserts a query accepts in `seq`
//! order: one query on one store returns one vector, call after call.
//!
//! Every block describes its own widths, so an update of any coordinates
//! costs the bytes it needs in the blocks it lands in, and nothing else.

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, HashSet};

use pc_pagestore::codec::{PageReader, PageWriter};
use pc_pagestore::layout::{encode_block, fill_blocks, min_records, Block, BlockList};
use pc_pagestore::skeleton::{
    for_each_skeletal_page, patch_page, patch_record, write_page, NodeRef, SkelRecord,
};
use pc_pagestore::{PageId, PageStore, Point, Result, StoreError, UpdateOp, NULL_PAGE};

use crate::build::{Kind, PstHandle};
use crate::mem::{cmp_x, cmp_y, TwoSided, MAX_NODE_POINTS};
use crate::region::{for_each_cache_owner, merge_tagged};
use crate::three_sided::{ThreeSided, ThreeSidedPst};
use crate::two_level::{
    buffer_room, build_inner, build_region_tree, decode_header, encode_header, free_pages,
    for_each_page, page_census, query_handle, read_buffer, region_blocks, write_buffer, ListRef,
    PageHeaderInfo, RegionCensus, RegionFill, RegionRecord, UpdateRec,
};

/// What one flush did to one in-page region.
#[derive(Default, Clone)]
struct Touched {
    /// The updates applied to the region, in `seq` order.
    ops: Vec<UpdateRec>,
    /// An applied point was in the first block of the region's X-list
    /// (resp. Y-list) — the block the page's A- (resp. S-) caches copy. A
    /// block is the greedy fill of its list's prefix, so a point that lands
    /// past it leaves it alone.
    x_first: bool,
    y_first: bool,
}

impl Touched {
    /// Records `op`, applied to a point of y-rank `y_rank` in the region
    /// `r` whose other points are `rest`.
    fn apply(&mut self, op: UpdateRec, p: &Point, y_rank: usize, rest: &[Point], r: &RegionRecord) {
        let x_rank = rest.iter().filter(|o| cmp_x(o, p) == Ordering::Greater).count();
        self.x_first |= x_rank <= usize::from(r.x_list.first);
        self.y_first |= y_rank <= usize::from(r.y_list.first);
        self.ops.push(op);
    }
}

/// `op` as a buffer record, stamped with the next `seq`.
fn stamped(op: UpdateOp, seq: &mut u64) -> UpdateRec {
    *seq += 1;
    match op {
        UpdateOp::Insert(p) => UpdateRec { is_delete: false, seq: *seq, p },
        UpdateOp::Delete(p) => UpdateRec { is_delete: true, seq: *seq, p },
    }
}

/// Applies buffered updates to a static answer: the latest op per point
/// (its whole `(x, y, id)`) wins (a buffer can be met along several
/// traversal arms), deletes mask, and inserts the query `contains` are
/// appended in `seq` order, so one query on one store always returns the
/// same vector. Those inserts are output the static spans never saw, so
/// they are reported to the caller's open span.
fn merge_buffered(
    static_res: Vec<Point>,
    pending: Vec<UpdateRec>,
    contains: impl Fn(&Point) -> bool,
) -> Vec<Point> {
    let mut latest: HashMap<Point, UpdateRec> = HashMap::new();
    for op in pending {
        let e = latest.entry(op.p).or_insert(op);
        if op.seq > e.seq {
            *e = op;
        }
    }
    let mut results: Vec<Point> =
        static_res.into_iter().filter(|p| !latest.contains_key(p)).collect();
    let mut inserts: Vec<UpdateRec> =
        latest.into_values().filter(|op| !op.is_delete && contains(&op.p)).collect();
    inserts.sort_unstable_by_key(|op| op.seq);
    pc_obs::add_items(inserts.len() as u64);
    results.extend(inserts.into_iter().map(|op| op.p));
    results
}

/// Fully dynamic external PST for 2-sided queries (Theorem 5.1):
/// `O(log_B n + t/B)` queries, `O(log_B n)` amortized updates,
/// `O((n/B)·log log B)` space plus one buffer block per super node.
pub struct DynamicPst {
    root: PageId,
    /// The root's `U`, in `seq` order: one block's worth of ops, held here
    /// and in the descriptor (the module header says why).
    root_ops: Vec<UpdateRec>,
    caps: Vec<usize>,
    seq: u64,
    live: u64,
}

/// A page's parent record `(page, slot, child_is_right)`.
type ParentRec = (PageId, u16, bool);
/// A page's parent record; `None` at the root.
type Parent = Option<ParentRec>;

impl DynamicPst {
    /// Builds the structure over an initial point set (ids must be unique
    /// among live points; updates preserve this invariant).
    pub fn build(store: &PageStore, points: &[Point]) -> Result<Self> {
        let caps = region_blocks(store.page_size(), 2);
        assert!(!caps.is_empty(), "page too small for the two-level scheme");
        let root = build_region_tree(store, points, &caps)?.root;
        let (root_ops, live) = (Vec::new(), points.len() as u64);
        Ok(DynamicPst { root, root_ops, caps, seq: 0, live })
    }

    /// Serializes the structure's handle: the root page, the update
    /// sequence and the live count, 8 bytes each, then the root's `U` as
    /// one block of the block codec, as a buffer page holds it. Everything
    /// else (`caps`) is a pure function of the store's page size, so the
    /// descriptor plus the store's pages is the whole structure: a service
    /// that commits the descriptor with each durable batch can reopen the
    /// PST after a crash with [`DynamicPst::open`].
    pub fn descriptor(&self) -> Vec<u8> {
        let words = [self.root.0, self.seq, self.live].map(u64::to_le_bytes).concat();
        [words, encode_block(&self.root_ops, NULL_PAGE)].concat()
    }

    /// Reopens a structure from a [`DynamicPst::descriptor`] against a
    /// (recovered) store. The root page is read and decoded up front, so a
    /// descriptor pointing at garbage fails here with a typed error rather
    /// than on the first query, as does an op block cut short or followed
    /// by other bytes.
    pub fn open(store: &PageStore, desc: &[u8]) -> Result<Self> {
        let mut r = PageReader::new(desc);
        let (root, seq, live) = (PageId(r.get_u64()?), r.get_u64()?, r.get_u64()?);
        let block = r.get_bytes(r.remaining())?;
        let ops = Block::parse::<UpdateRec>(block)?;
        if ops.bytes != block.len() {
            return Err(StoreError::Corrupt(format!(
                "dynamic PST descriptor with {} bytes past its block of the root's ops",
                block.len() - ops.bytes
            )));
        }
        let caps = region_blocks(store.page_size(), 2);
        assert!(!caps.is_empty(), "page too small for the two-level scheme");
        decode_header(&store.read(root)?)?;
        Ok(DynamicPst { root, root_ops: ops.to_vec(), caps, seq, live })
    }

    /// Number of live points (settled plus buffered). A delete counts
    /// even when it matched no live point: knowing would cost a read per
    /// delete.
    pub fn len(&self) -> u64 {
        self.live
    }

    /// True when no points are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Counts the structure's pages by class, update buffers included.
    pub fn page_census(&self, store: &PageStore) -> Result<RegionCensus> {
        Ok(page_census(store, self.root, self.live)?.0)
    }

    /// The id of every page the structure owns, once.
    pub fn page_ids(&self, store: &PageStore) -> Result<Vec<PageId>> {
        let mut ids = Vec::new();
        for_each_page(store, self.root, true, false, &mut |_, page, _| {
            ids.extend(page);
            Ok(())
        })?;
        Ok(ids)
    }

    /// The bytes in use on the structure's pages and its blocks in tails,
    /// by class.
    pub fn page_fill(&self, store: &PageStore) -> Result<RegionFill> {
        Ok(page_census(store, self.root, self.live)?.1)
    }

    /// Update records applied since the initial build — the `seq` word of
    /// the descriptor. A recovered node reports this to the router so the
    /// journal replay resumes exactly past what the WAL preserved.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Inserts a point: a one-op [`DynamicPst::apply`].
    pub fn insert(&mut self, store: &PageStore, p: Point) -> Result<()> {
        self.apply(store, &[UpdateOp::Insert(p)])
    }

    /// Deletes a point (matched by its full `(x, y, id)` identity; a
    /// non-existent point costs buffer traffic only): a one-op `apply`.
    pub fn delete(&mut self, store: &PageStore, p: Point) -> Result<()> {
        self.apply(store, &[UpdateOp::Delete(p)])
    }

    /// Applies a batch in order: the ops go to the root's `U` while they
    /// fit it, and each time it is full and ops remain, the root page is
    /// flushed. A batch that fits `U` costs no page I/O.
    pub fn apply(&mut self, store: &PageStore, ops: &[UpdateOp]) -> Result<()> {
        let _span = pc_obs::span!("dynpst_apply", ops.len());
        let mut recs: Vec<UpdateRec> = ops.iter().map(|&op| stamped(op, &mut self.seq)).collect();
        for rec in &recs {
            self.live = if rec.is_delete { self.live.saturating_sub(1) } else { self.live + 1 };
        }
        loop {
            let take = buffer_room(store.page_size(), &self.root_ops, &recs);
            self.root_ops.extend(recs.drain(..take));
            if recs.is_empty() {
                return Ok(());
            }
            let (page, ops) = (store.read(self.root)?, std::mem::take(&mut self.root_ops));
            self.root = self.flush_page(store, self.root, &page, ops, None)?;
        }
    }

    /// Answers a 2-sided query, merging buffered updates: those of the
    /// root's `U` that lie in the corner, and those of every `U` and `u`
    /// the walk reads.
    pub fn query(&self, store: &PageStore, q: TwoSided) -> Result<Vec<Point>> {
        // The root span: the merge below reports into it.
        let _span = pc_obs::span!("dynpst_query");
        let handle = PstHandle { root: self.root, n: self.live.max(1), kind: Kind::Region };
        let (static_res, mut pending) = query_handle(store, handle, q)?;
        pending.extend(self.root_ops.iter().filter(|op| q.contains(&op.p)));
        Ok(merge_buffered(static_res, pending, |p| q.contains(p)))
    }

    /// Pushes updates into the `U` buffer of a page below the root,
    /// flushing the page whenever the buffer cannot take the next. `parent`
    /// is the page's parent record, for patching it on a rewrite or
    /// rebuild. Inside an apply session a written `U` or page moves to a
    /// fresh one ([`PageStore::relocate`]), and what names it is patched:
    /// `U` in the page's header, the page in its parent's record — where a
    /// flush already writes it — or, for a page moved by its `U` alone, by
    /// the caller, which gets that page's new id.
    fn push_updates(
        &mut self,
        store: &PageStore,
        mut page_id: PageId,
        mut ops: Vec<UpdateRec>,
        parent: ParentRec,
    ) -> Result<Option<PageId>> {
        let mut page = store.read(page_id)?.to_vec();
        // `U` is known empty after a flush, which cleared it.
        let mut flushed = false;
        loop {
            let mut header = decode_header(&page)?;
            let fresh = header.u_page.is_null();
            let mut buffered =
                if fresh || flushed { Vec::new() } else { read_buffer(store, header.u_page)? };
            let take = buffer_room(store.page_size(), &buffered, &ops);
            buffered.extend(ops.drain(..take));
            let to = if fresh { store.alloc()? } else { store.relocate(header.u_page)? };
            write_buffer(store, to, &buffered)?;
            // A moved `U` rewrites the page, which names it.
            let mut moved = None;
            if std::mem::replace(&mut header.u_page, to) != to {
                let (at, bytes) = relocate_page(store, page_id, &page)?;
                let header = |w: &mut PageWriter<'_>| encode_header(w, &header);
                page = patch_page::<RegionRecord>(store, at, &bytes, header, &[])?;
                if at != page_id {
                    (page_id, moved) = (at, Some(at));
                }
            }
            if ops.is_empty() {
                return Ok(moved);
            }
            // A flush may move the page or rebuild its subtree under a
            // fresh one, and names it in the parent either way; keep
            // appending the remaining ops to it.
            page_id = self.flush_page(store, page_id, &page, buffered, Some(parent))?;
            page = store.read(page_id)?.to_vec();
            flushed = true;
        }
    }

    /// Distributes a page's buffered updates: applies those landing in
    /// in-page regions (rebuilding the page's lists and caches) and
    /// forwards the rest to child pages. May instead rebuild the whole
    /// subtree when churn or an invariant hazard demands it. `page` is the
    /// page's bytes and `ops` its `U`'s, which the caller holds (the root's
    /// having taken them out of its own). Returns the page's id after:
    /// where a rewrite moved it, or the root of the rebuilt subtree.
    fn flush_page(
        &mut self,
        store: &PageStore,
        page_id: PageId,
        page: &[u8],
        mut ops: Vec<UpdateRec>,
        parent: Parent,
    ) -> Result<PageId> {
        let mut header = decode_header(page)?;
        ops.sort_unstable_by_key(|o| o.seq);

        // Materialize all in-page regions.
        let records = RegionRecord::all(page)?;
        let count = records.len();
        let mut points: Vec<Vec<Point>> = Vec::with_capacity(count);
        for rec in &records {
            let mut pts = rec.x_list.read_all(store)?;
            pts.sort_unstable_by(|a, b| cmp_y(b, a));
            points.push(pts);
        }

        // Per-child-page forwards: (child ref, parent slot, is_right, ops),
        // flushed in page-id order so that every run allocates alike.
        let mut forwards: BTreeMap<u64, (NodeRef, u16, bool, Vec<UpdateRec>)> = BTreeMap::new();
        let mut touched: Vec<Touched> = vec![Touched::default(); count];
        let mut net: i64 = 0;
        let mut hazard = false;
        for op in &ops {
            net += if op.is_delete { -1 } else { 1 };
            // Trickle: the first region (top-down on the op's x-path) whose
            // y-band contains the point. Records store only the split's x
            // value, but the canonical division orders by the full
            // (x, y, id) key — so on an x-tie the point may live on either
            // side. Inserts consistently go left; deletes explore *both*
            // sides of every tie (the branch without the point is a
            // harmless no-op, and at most one branch ever removes it).
            let mut pending_slots = vec![0usize];
            let mut done = false;
            while let Some(start_slot) = pending_slots.pop() {
                if done {
                    break;
                }
                let mut slot = start_slot;
                loop {
                    let rec = &records[slot];
                    let has_children = !rec.left.page.is_null();
                    let in_band = match points[slot].last() {
                        Some(m) => cmp_y(&op.p, m) != Ordering::Less,
                        None => {
                            if has_children {
                                // Empty region above live children: broken band.
                                hazard = true;
                            }
                            true
                        }
                    };
                    if in_band || !has_children {
                        if op.is_delete {
                            if let Some(i) = points[slot].iter().position(|x| *x == op.p) {
                                let gone = points[slot].remove(i);
                                touched[slot].apply(*op, &gone, i, &points[slot], rec);
                                done = true;
                            }
                            // Not found on this branch: other tie branches
                            // (or a buffered insert below) may hold it.
                        } else {
                            let pos = points[slot].partition_point(|x| {
                                cmp_y(x, &op.p) == Ordering::Greater
                            });
                            touched[slot].apply(*op, &op.p, pos, &points[slot], rec);
                            points[slot].insert(pos, op.p);
                            done = true;
                        }
                        break;
                    }
                    let tie = op.is_delete && op.p.x == rec.split_x;
                    let go_left = op.p.x <= rec.split_x;
                    let (child, other) =
                        if go_left { (rec.left, rec.right) } else { (rec.right, rec.left) };
                    if tie {
                        // Queue the other side of the tie.
                        if other.page == page_id {
                            pending_slots.push(other.slot as usize);
                        } else if !other.page.is_null() {
                            forwards
                                .entry(other.page.0)
                                .or_insert_with(|| (other, slot as u16, go_left, Vec::new()))
                                .3
                                .push(*op);
                        }
                    }
                    if child.page == page_id {
                        slot = child.slot as usize;
                    } else {
                        forwards
                            .entry(child.page.0)
                            .or_insert_with(|| (child, slot as u16, !go_left, Vec::new()))
                            .3
                            .push(*op);
                        break;
                    }
                }
            }
        }

        // A region grown past twice its points' bound or its Y-list's blocks.
        let (page_size, blocks) = (store.page_size(), 2 * self.caps[0]);
        hazard |= points.iter().zip(&touched).any(|(pts, t)| {
            !t.ops.is_empty()
                && (pts.len() > 2 * MAX_NODE_POINTS
                    || fill_blocks(pts, blocks, page_size) < pts.len())
        });
        let applied: usize = touched.iter().map(|t| t.ops.len()).sum();
        header.churn += applied as u32;
        header.subtree_n = (header.subtree_n as i64 + net).max(0) as u64;

        // The churn threshold counts in the fewest updates a buffer holds.
        let buffer = min_records::<UpdateRec>(store.page_size()) as u64;
        let rebuild_threshold = (header.subtree_n / 2).max(4 * buffer);
        if hazard || u64::from(header.churn) > rebuild_threshold {
            // The rebuild frees the page as it is, and its `U` page, if it
            // has one: the gather replays every op of this flush.
            return self.rebuild_subtree(store, page_id, parent, ops);
        }
        // Clear a `U` page (kept for reuse): the push that hands it over
        // wrote it, in the same apply session.
        if !header.u_page.is_null() {
            write_buffer(store, header.u_page, &[])?;
        }

        // Rewrite the page's regions: new X/Y lists and caches.
        let page_id = self.rewrite_page(store, page_id, header, records, points, &touched, parent)?;

        // Forward the rest (children flush recursively as needed). A child
        // its `U` alone moved is named here, all of them in one write.
        let mut moved = Vec::new();
        for (_, (child, pslot, is_right, f_ops)) in forwards {
            let parent = (page_id, pslot, is_right);
            if let Some(at) = self.push_updates(store, child.page, f_ops, parent)? {
                moved.push((child.page, at));
            }
        }
        if !moved.is_empty() {
            store.write(page_id, &renamed(&store.read(page_id)?, &moved)?)?;
        }
        Ok(page_id)
    }

    /// Rewrites one page after its regions' contents changed: fresh X/Y
    /// lists for the touched regions, per-region `u` appends, inner
    /// rebuilds on `u` overflow, a fresh `child_a` (`left_s`) for every
    /// region whose children's A-list (left child's S-list) has a source
    /// whose first X- (Y-) block moved — the other caches still hold exactly
    /// what a rebuild would write — and a parent patch for the page root's
    /// metadata. Returns where the page went ([`PageStore::relocate`]),
    /// which the parent patch names.
    #[allow(clippy::too_many_arguments)]
    fn rewrite_page(
        &mut self,
        store: &PageStore,
        page_id: PageId,
        header: PageHeaderInfo,
        mut records: Vec<RegionRecord>,
        points: Vec<Vec<Point>>,
        touched: &[Touched],
        parent: Parent,
    ) -> Result<PageId> {
        let count = records.len();

        // Rebuild X/Y lists and region buffers of touched regions.
        let mut x_sorted: Vec<Vec<Point>> = Vec::with_capacity(count);
        for (slot, pts) in points.iter().enumerate() {
            let mut xs = pts.clone();
            xs.sort_unstable_by(|a, c| cmp_x(c, a));
            x_sorted.push(xs);
            if touched[slot].ops.is_empty() {
                continue;
            }
            records[slot].x_list.free(store)?;
            records[slot].y_list.free(store)?;
            (records[slot].x_list, records[slot].x_edge) =
                ListRef::build(store, &x_sorted[slot], |p| p.x)?;
            (records[slot].y_list, records[slot].y_edge) =
                ListRef::build(store, &points[slot], |p| p.y)?;
            records[slot].own_cnt = points[slot].len() as u16;
            records[slot].min_y_y = points[slot].last().map(|p| p.y).unwrap_or(0);

            // Log into the region's `u`; rebuild the inner PST once the
            // updates no longer fit it.
            let mut u_ops = if records[slot].u_buf.is_null() {
                Vec::new()
            } else {
                read_buffer(store, records[slot].u_buf)?
            };
            let ops = &touched[slot].ops;
            if buffer_room(store.page_size(), &u_ops, ops) < ops.len() {
                free_pages(store, records[slot].inner_root, records[slot].inner_is_region)?;
                let inner = build_inner(store, &points[slot], &self.caps[1..])?;
                records[slot].inner_root = inner.root;
                records[slot].inner_is_region = inner.kind == Kind::Region;
                u_ops.clear();
            } else {
                u_ops.extend(ops.iter().copied());
            }
            let u_buf = records[slot].u_buf;
            records[slot].u_buf =
                if u_buf.is_null() { store.alloc()? } else { store.relocate(u_buf)? };
            write_buffer(store, records[slot].u_buf, &u_ops)?;
        }

        // Refresh intra-page parent-side metadata.
        for slot in 0..count {
            for (child, is_right) in [(records[slot].left, false), (records[slot].right, true)] {
                if child.page == page_id {
                    let child = records[child.slot as usize].clone();
                    records[slot].set_child(is_right, &child);
                }
            }
        }
        // A region's record holds its in-page children's lists; the path
        // of the left child names the sources of both (the `region` module
        // header), each tagged with its in-page depth.
        let right_of: Vec<usize> = records.iter().map(|rec| rec.right.slot as usize).collect();
        let mut paths = vec![None; count];
        let in_page = |r: NodeRef| (r.page == page_id).then_some(r.slot as usize);
        let children =
            |slot: usize| Some([in_page(records[slot].left)?, in_page(records[slot].right)?]);
        for_each_cache_owner(0, children, |_, _| true, |slot, _, path| {
            paths[slot] = Some(path.to_vec());
            Ok(())
        })?;
        let firsts: Vec<(usize, usize)> = records
            .iter()
            .map(|rec| (usize::from(rec.x_list.first), usize::from(rec.y_list.first)))
            .collect();
        let first_x = |slot: usize| &x_sorted[slot][..firsts[slot].0];
        let first_y = |slot: usize| &points[slot][..firsts[slot].1];
        for (rec, path) in records.iter_mut().zip(paths) {
            let Some(path) = path else { continue };
            if path.iter().any(|step| touched[step.node].x_first) {
                rec.child_a.free(store)?;
                let sources = path.iter().map(|step| (first_x(step.node), step.depth));
                rec.child_a = BlockList::build(store, &merge_tagged(sources, cmp_x))?;
            }
            let sibs = || path.iter().filter(|s| s.went_left).map(|s| (right_of[s.node], s.depth));
            if sibs().any(|(sib, _)| touched[sib].y_first) {
                rec.left_s.free(store)?;
                let sources = sibs().map(|(sib, depth)| (first_y(sib), depth));
                rec.left_s = BlockList::build(store, &merge_tagged(sources, cmp_y))?;
            }
        }

        let at = store.relocate(page_id)?;
        rename(&mut records, &[(page_id, at)]);
        write_page(store, at, |w| encode_header(w, &header), &records, &[])?;

        // Patch the parent's view of this page's root if it changed.
        let moved_to = NodeRef { page: at, slot: 0 };
        match parent {
            Some(parent) => patch_parent(store, parent, moved_to, &records[0])?,
            None => self.root = at,
        }
        Ok(at)
    }

    /// Gathers every live point under `page_id` (resolving pending buffered
    /// ops, and `ops`, the page's `U`, by stamp), frees the old subtree,
    /// rebuilds it statically, and splices the new root into the parent.
    fn rebuild_subtree(
        &mut self,
        store: &PageStore,
        page_id: PageId,
        parent: Parent,
        ops: Vec<UpdateRec>,
    ) -> Result<PageId> {
        let _span = pc_obs::span!("dynpst_rebuild");
        let points = gather_live(store, page_id, ops)?;
        free_pages(store, page_id, true)?;
        let handle = build_region_tree(store, &points, &self.caps)?;
        let at = NodeRef { page: handle.root, slot: 0 };
        match parent {
            None => self.root = handle.root,
            Some(parent) => {
                let new_root = RegionRecord::at(&store.read(handle.root)?, 0)?;
                patch_parent(store, parent, at, &new_root)?;
            }
        }
        Ok(handle.root)
    }
}

/// Updates the record `(page, slot)` of the parent of a page whose root
/// region changed — `child_root`, at `at`, its right child if `is_right`:
/// moved or rebuilt, or where it was. The parent was written in the same
/// apply session, if there is one (a flush rewrites a page before it
/// forwards to the pages below), so the patch is in place.
fn patch_parent(
    store: &PageStore,
    (page, slot, is_right): (PageId, u16, bool),
    at: NodeRef,
    child_root: &RegionRecord,
) -> Result<()> {
    let bytes = store.read(page)?;
    let mut rec = RegionRecord::at(&bytes, slot)?;
    *(if is_right { &mut rec.right } else { &mut rec.left }) = at;
    rec.set_child(is_right, child_root);
    patch_record(store, NodeRef { page, slot }, &bytes, &rec)
}

/// Points `records`' references to a page of `moves` — a page's own, for
/// the regions on it, or a child page's — at where it went.
fn rename(records: &mut [RegionRecord], moves: &[(PageId, PageId)]) {
    for child in records.iter_mut().flat_map(|rec| [&mut rec.left, &mut rec.right]) {
        if let Some(&(_, to)) = moves.iter().find(|(from, _)| *from == child.page) {
            child.page = to;
        }
    }
}

/// A region page's bytes `page` with its records [`rename`]d, its header
/// and tail kept.
fn renamed(page: &[u8], moves: &[(PageId, PageId)]) -> Result<Vec<u8>> {
    let (mut records, mut bytes) = (RegionRecord::all(page)?, page.to_vec());
    rename(&mut records, moves);
    for (slot, rec) in records.iter().enumerate() {
        let start = RegionRecord::HEADER + RegionRecord::LEN * slot;
        rec.encode(&mut PageWriter::new(&mut bytes[start..start + RegionRecord::LEN]))?;
    }
    Ok(bytes)
}

/// Region page `id`, its bytes `page` in hand, where
/// [`PageStore::relocate`] puts it: the id and the bytes to write there.
fn relocate_page(store: &PageStore, id: PageId, page: &[u8]) -> Result<(PageId, Vec<u8>)> {
    let at = store.relocate(id)?;
    Ok((at, if at == id { page.to_vec() } else { renamed(page, &[(id, at)])? }))
}

/// The live points of the subtree rooted at `page_id`: those of the
/// X-lists with the ops of every `U` page, and `ops`, applied in stamp
/// order. `ops` is the subtree root's `U`, which its `U` page, where it has
/// one, holds too: an op replayed twice is replayed once. Region `u`
/// contents are *not* collected: those ops are already reflected in the
/// X-lists.
fn gather_live(store: &PageStore, page_id: PageId, mut ops: Vec<UpdateRec>) -> Result<Vec<Point>> {
    let mut live: HashSet<Point> = HashSet::new();
    for_each_skeletal_page(store, page_id, &mut |_, page, records: &[RegionRecord]| {
        let u_page = decode_header(page)?.u_page;
        if !u_page.is_null() {
            ops.extend(read_buffer(store, u_page)?);
        }
        for rec in records {
            live.extend(rec.x_list.read_all(store)?);
        }
        Ok(())
    })?;
    Ok(replayed(live, ops))
}

/// The points of `live` after `ops`, applied in stamp order; a delete
/// removes only the whole point it names.
fn replayed(mut live: HashSet<Point>, mut ops: Vec<UpdateRec>) -> Vec<Point> {
    ops.sort_unstable_by_key(|o| o.seq);
    for op in ops {
        if op.is_delete {
            live.remove(&op.p);
        } else {
            live.insert(op.p);
        }
    }
    live.into_iter().collect()
}

/// Dynamic 3-sided structure (Theorem 5.2): the static Theorem 3.3 index
/// plus a root update buffer of `B·log_B n` entries. Queries stay optimal
/// (the buffer scan is `O(log_B n)` I/Os); the structure is rebuilt when
/// the buffer fills.
pub struct DynamicThreeSidedPst {
    inner: ThreeSidedPst,
    buffer: Vec<PageId>,
    buffered: Vec<UpdateRec>,
    /// Where the last buffer page's updates start in `buffered`.
    last_start: usize,
    seq: u64,
    buffer_cap: usize,
}

/// Byte size of a [`DynamicThreeSidedPst::descriptor`] before its buffer
/// page ids: root, point count, `seq`, buffer capacity.
const DESCRIPTOR3_FIXED: usize = 8 + 8 + 8 + 8;

impl DynamicThreeSidedPst {
    /// Builds the structure over an initial point set.
    pub fn build(store: &PageStore, points: &[Point]) -> Result<Self> {
        let inner = ThreeSidedPst::build(store, points)?;
        let b = min_records::<Point>(store.page_size());
        let n = points.len().max(b);
        // B * log_B n buffered updates keep the query overhead at
        // O(log_B n) block reads.
        let log_b_n = (n as f64).log(b.max(2) as f64).ceil().max(1.0) as usize;
        Ok(DynamicThreeSidedPst {
            inner,
            buffer: Vec::new(),
            buffered: Vec::new(),
            last_start: 0,
            seq: 0,
            buffer_cap: b * log_b_n,
        })
    }

    /// Serializes the structure's handle: the static index's root page and
    /// point count, then the update sequence, the buffer capacity and the id
    /// of every buffer page. With the store's pages that is the
    /// whole structure, so a service that commits the descriptor with each
    /// batch can reopen it with [`DynamicThreeSidedPst::open`] — after a
    /// crash, or read-only at the epoch that installed the batch.
    pub fn descriptor(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(DESCRIPTOR3_FIXED + 8 * self.buffer.len());
        out.extend_from_slice(&self.inner.root_page.0.to_le_bytes());
        out.extend_from_slice(&self.inner.n.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&(self.buffer_cap as u64).to_le_bytes());
        for page in &self.buffer {
            out.extend_from_slice(&page.0.to_le_bytes());
        }
        out
    }

    /// Reopens a structure from a [`DynamicThreeSidedPst::descriptor`]. The
    /// root page and every buffer page are read here (the buffered updates
    /// are mirrored in memory), so a descriptor pointing at garbage is a
    /// typed error now rather than on the first query.
    pub fn open(store: &PageStore, desc: &[u8]) -> Result<Self> {
        if desc.len() < DESCRIPTOR3_FIXED || !(desc.len() - DESCRIPTOR3_FIXED).is_multiple_of(8) {
            return Err(pc_pagestore::StoreError::Corrupt(format!(
                "dynamic 3-sided PST descriptor is {DESCRIPTOR3_FIXED} bytes plus 8 per buffer \
                 page, got {}",
                desc.len()
            )));
        }
        let mut r = PageReader::new(desc);
        let root_page = PageId(r.get_u64()?);
        let n = r.get_u64()?;
        let seq = r.get_u64()?;
        let buffer_cap = r.get_u64()? as usize;
        let mut buffer = Vec::with_capacity(r.remaining() / 8);
        let (mut buffered, mut last_start) = (Vec::new(), 0);
        while r.remaining() > 0 {
            let page = PageId(r.get_u64()?);
            last_start = buffered.len();
            buffered.extend(read_buffer(store, page)?);
            buffer.push(page);
        }
        store.read(root_page)?;
        let inner = ThreeSidedPst { root_page, n };
        Ok(DynamicThreeSidedPst { inner, buffer, buffered, last_start, seq, buffer_cap })
    }

    /// Counts the structure's pages: the static index's, by
    /// [`ThreeSidedPst::page_census`], and the buffer pages.
    pub fn pages(&self, store: &PageStore) -> Result<u64> {
        Ok(self.inner.page_census(store)?.total() + self.buffer.len() as u64)
    }

    /// The id of every page the structure owns, once: the static index's,
    /// then the buffer pages.
    pub fn page_ids(&self, store: &PageStore) -> Result<Vec<PageId>> {
        let mut ids = Vec::new();
        self.inner.for_each_page(store, &mut |_, id| {
            ids.push(id);
            Ok(())
        })?;
        ids.extend(&self.buffer);
        Ok(ids)
    }

    /// Number of live points. A buffered delete counts even when it
    /// matches no live point: knowing would cost a read per delete.
    pub fn len(&self) -> u64 {
        let buffered: i64 =
            self.buffered.iter().map(|op| if op.is_delete { -1i64 } else { 1 }).sum();
        (self.inner.len() as i64 + buffered).max(0) as u64
    }

    /// True when no points are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a point: a one-op [`DynamicThreeSidedPst::apply`].
    pub fn insert(&mut self, store: &PageStore, p: Point) -> Result<()> {
        self.apply(store, &[UpdateOp::Insert(p)])
    }

    /// Deletes a point (by full identity): a one-op `apply`.
    pub fn delete(&mut self, store: &PageStore, p: Point) -> Result<()> {
        self.apply(store, &[UpdateOp::Delete(p)])
    }

    /// Applies a batch in order: each op goes to the last buffer page while
    /// it fits, else to a new one, and each page the batch touched is
    /// written once. The op that fills the buffer rebuilds the structure.
    pub fn apply(&mut self, store: &PageStore, ops: &[UpdateOp]) -> Result<()> {
        let _span = pc_obs::span!("dynpst3_apply", ops.len());
        // The last buffer page, where [`PageStore::relocate`] puts it.
        let write_last = |s: &mut Self| {
            let last = s.buffer.last_mut().expect("a buffer page");
            *last = store.relocate(*last)?;
            write_buffer(store, *last, &s.buffered[s.last_start..])
        };
        let mut unwritten = false; // the last buffer page lags `buffered`
        for &op in ops {
            let rec = stamped(op, &mut self.seq);
            let held = &self.buffered[self.last_start..];
            if self.buffer.is_empty() || buffer_room(store.page_size(), held, &[rec]) == 0 {
                if unwritten {
                    write_last(self)?;
                }
                self.buffer.push(store.alloc()?);
                self.last_start = self.buffered.len();
            }
            self.buffered.push(rec);
            unwritten = self.buffered.len() < self.buffer_cap;
            if !unwritten {
                write_last(self)?;
                self.rebuild(store)?;
            }
        }
        if unwritten {
            write_last(self)?;
        }
        Ok(())
    }

    fn rebuild(&mut self, store: &PageStore) -> Result<()> {
        // Collect the full live set: existing structure points + buffer.
        let everything =
            self.inner.query(store, ThreeSided { x1: i64::MIN, x2: i64::MAX, y0: i64::MIN })?;
        let points = replayed(everything.into_iter().collect(), std::mem::take(&mut self.buffered));
        for page in self.buffer.drain(..) {
            store.free(page)?;
        }
        self.inner.free(store)?;
        self.inner = ThreeSidedPst::build(store, &points)?;
        self.last_start = 0;
        Ok(())
    }

    /// Answers a 3-sided query, merging buffered updates (the static query
    /// plus `O(buffer/B)` = `O(log_B n)` block reads).
    pub fn query(&self, store: &PageStore, q: ThreeSided) -> Result<Vec<Point>> {
        if q.x1 > q.x2 {
            // No point lies in a band whose bounds are out of order, and
            // none of the buffer's can: the empty answer, at no read.
            return Ok(Vec::new());
        }
        // The root span: the buffer reads and the merge sit inside it.
        let _span = pc_obs::span!("dynpst3_query");
        let static_res = self.inner.query(store, q)?;
        // Re-read the persisted buffer pages (honest I/O accounting).
        let mut ops: Vec<UpdateRec> = Vec::new();
        {
            let _buf = pc_obs::span!("update_buffer");
            for &page in &self.buffer {
                pc_obs::record_read(pc_obs::ReadClass::Cache);
                ops.extend(read_buffer(store, page)?);
            }
        }
        Ok(merge_buffered(static_res, ops, |p| q.contains(p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::SEntry;
    use crate::testutil::{canonical, corner_cost, in_page_paths, uniform_points, LoggedStore};
    use pc_pagestore::layout::{chain_pages, BlockList};
    use pc_pagestore::{PageStore, NULL_PAGE};
    use pc_rng::Rng;

    /// Flushes page `id` as a full `U` does, handing over the page and its
    /// `U` — the root's own, else the page its header names; returns where
    /// the page went.
    fn flush(pst: &mut DynamicPst, store: &PageStore, id: PageId, parent: Parent) -> PageId {
        let page = store.read(id).unwrap();
        let ops = match parent {
            None => std::mem::take(&mut pst.root_ops),
            Some(_) => read_buffer(store, decode_header(&page).unwrap().u_page).unwrap(),
        };
        pst.flush_page(store, id, &page, ops, parent).unwrap()
    }

    fn check_against_oracle(
        store: &PageStore,
        pst: &DynamicPst,
        oracle: &HashMap<u64, Point>,
        queries: &[(i64, i64)],
        label: &str,
    ) {
        for &(x0, y0) in queries {
            let q = TwoSided { x0, y0 };
            let want = canonical(oracle.values().copied().filter(|p| q.contains(p)).collect());
            assert_eq!(canonical(pst.query(store, q).unwrap()), want, "{label}: {q:?}");
        }
    }

    #[test]
    fn inserts_become_visible_immediately() {
        let store = PageStore::in_memory(512);
        let mut rng = Rng::seed_from_u64(1);
        let initial = uniform_points(&mut rng, 500, 5000);
        let mut pst = DynamicPst::build(&store, &initial).unwrap();
        let mut oracle: HashMap<u64, Point> = initial.iter().map(|p| (p.id, *p)).collect();
        for i in 0..300u64 {
            let p = Point::new(rng.gen_range(0..5000i64), rng.gen_range(0..5000i64), 10_000 + i);
            pst.insert(&store, p).unwrap();
            oracle.insert(p.id, p);
            if i % 37 == 0 {
                let corner = (rng.gen_range(0..5000i64), rng.gen_range(0..5000i64));
                let queries = [corner, (0, 0), (4999, 0)];
                check_against_oracle(&store, &pst, &oracle, &queries, "insert phase");
            }
        }
        assert_eq!(pst.len(), 800);
    }

    #[test]
    fn descriptor_round_trips_through_open() {
        let store = PageStore::in_memory(512);
        let mut rng = Rng::seed_from_u64(9);
        let initial = uniform_points(&mut rng, 400, 5000);
        let mut pst = DynamicPst::build(&store, &initial).unwrap();
        let mut three = DynamicThreeSidedPst::build(&store, &initial).unwrap();
        for i in 0..150u64 {
            let p = Point::new(rng.gen_range(0..5000i64), rng.gen_range(0..5000i64), 20_000 + i);
            pst.insert(&store, p).unwrap();
            three.insert(&store, p).unwrap();
        }
        let desc = pst.descriptor();
        let reopened = DynamicPst::open(&store, &desc).unwrap();
        assert_eq!(reopened.len(), pst.len());
        for q in [(0, 0), (2500, 2500), (4000, 100)] {
            let q = TwoSided { x0: q.0, y0: q.1 };
            assert_eq!(reopened.query(&store, q).unwrap(), pst.query(&store, q).unwrap(), "{q:?}");
        }
        // Updates keep working through the reopened handle.
        let mut reopened = reopened;
        reopened.insert(&store, Point::new(1, 1, 99_999)).unwrap();
        assert_eq!(reopened.len(), pst.len() + 1);

        // Malformed descriptors are typed errors, not panics.
        assert!(DynamicPst::open(&store, &[0u8; 7]).is_err());
        assert!(DynamicPst::open(&store, &desc[..23]).is_err(), "a short descriptor");
        let framed = [&desc[..], &[3, 3, 3]].concat();
        assert!(DynamicPst::open(&store, &framed).is_err(), "a descriptor with frame bytes");
        let mut garbage_root = desc;
        garbage_root[..8].copy_from_slice(&[0xFF; 8]);
        assert!(DynamicPst::open(&store, &garbage_root).is_err());

        // The 3-sided structure's descriptor names its buffer pages too, and
        // reopens with what they hold.
        let desc = three.descriptor();
        assert!(desc.len() > DESCRIPTOR3_FIXED, "a buffered tail");
        let mut reopened = DynamicThreeSidedPst::open(&store, &desc).unwrap();
        let q = ThreeSided { x1: 1000, x2: 4000, y0: 2000 };
        assert_eq!(reopened.query(&store, q).unwrap(), three.query(&store, q).unwrap());
        reopened.insert(&store, Point::new(1, 1, 99_999)).unwrap();
        assert_eq!(reopened.len(), three.len() + 1);
        assert!(DynamicThreeSidedPst::open(&store, &desc[..DESCRIPTOR3_FIXED - 1]).is_err());
        assert!(DynamicThreeSidedPst::open(&store, &desc[..desc.len() - 3]).is_err());
        assert!(DynamicThreeSidedPst::open(&store, &vec![0xFF; desc.len()]).is_err());
    }

    #[test]
    fn deletes_mask_and_flush() {
        let store = PageStore::in_memory(512);
        let mut rng = Rng::seed_from_u64(2);
        let initial = uniform_points(&mut rng, 800, 5000);
        let mut pst = DynamicPst::build(&store, &initial).unwrap();
        let mut oracle: HashMap<u64, Point> = initial.iter().map(|p| (p.id, *p)).collect();
        for i in 0..400u64 {
            if let Some(p) = oracle.remove(&rng.gen_range(0..800u64)) {
                pst.delete(&store, p).unwrap();
            }
            if i % 41 == 0 {
                let queries = [(rng.gen_range(0..5000i64), rng.gen_range(0..5000i64)), (0, 0)];
                check_against_oracle(&store, &pst, &oracle, &queries, "delete phase");
            }
        }
    }

    #[test]
    fn space_stays_bounded_under_churn() {
        // Insert/delete cycles must not leak pages: after heavy churn the
        // live page count stays proportional to the live point count.
        let store = PageStore::in_memory(512);
        let mut rng = Rng::seed_from_u64(4);
        let mut live = uniform_points(&mut rng, 2000, 10_000);
        let mut pst = DynamicPst::build(&store, &live).unwrap();
        let baseline = store.live_pages();
        for next_id in 1_000_000u64..1_003_000 {
            // One insert + one delete: n stays ~constant.
            let p = Point::new(rng.gen_range(0..10_000i64), rng.gen_range(0..10_000i64), next_id);
            pst.insert(&store, p).unwrap();
            live.push(p);
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            pst.delete(&store, victim).unwrap();
        }
        let after = store.live_pages();
        assert!(
            after <= 3 * baseline + 100,
            "page count grew from {baseline} to {after} under constant n"
        );
        // Flushes, inner rebuilds and subtree rebuilds later, every list
        // still has one owner: the census names each live page once, and
        // the free walk returns them all.
        let census = pst.page_census(&store).unwrap();
        assert!(census.buffers > 0, "{census:?}");
        assert_eq!(census.total(), after);
        free_pages(&store, pst.root, true).unwrap();
        assert_eq!(store.live_pages(), 0);
    }

    /// Every page accounted for after both rebuilds, at 512 B and 4 KiB: a
    /// band of inserts above every point, which rebuilds the root's subtree
    /// once the root region's Y-list outgrows twice its blocks, then
    /// insert/delete pairs, which rebuild subtrees for churn and inner trees
    /// for full `u`s. The census totals the store's pages, and the ids the
    /// structure walks are the store's allocated pages, once each: no block
    /// in a skeletal page's tail is freed, or counted, as a page.
    #[test]
    fn every_page_is_accounted_for_after_both_rebuilds() {
        fn rebuilds(span: &pc_obs::SpanNode) -> u64 {
            let own = u64::from(span.name == "dynpst_rebuild");
            own + span.children.iter().map(rebuilds).sum::<u64>()
        }
        for (page_size, n, band) in [(512, 3_000, 1_000), (4096, 10_000, 15_000)] {
            let store = PageStore::in_memory(page_size);
            let mut rng = Rng::seed_from_u64(0xacc0);
            let mut live = uniform_points(&mut rng, n, 1 << 20);
            let mut pst = DynamicPst::build(&store, &live).unwrap();
            let update = |pst: &mut DynamicPst, op: UpdateOp| {
                let ((), trace) = pc_obs::traced(|| pst.apply(&store, &[op]).unwrap());
                rebuilds(&trace.root)
            };
            let mut band_rebuilds = 0;
            for i in 0..band {
                let p = Point::new(rng.gen_range(0..1i64 << 20), (1 << 20) + i, 1 << 40 | i as u64);
                band_rebuilds += update(&mut pst, UpdateOp::Insert(p));
                live.push(p);
            }
            let mut churn_rebuilds = 0;
            for i in 0..n as u64 {
                let (x, y) = (rng.gen_range(0..1i64 << 20), rng.gen_range(0..1i64 << 20));
                let p = Point::new(x, y, 1 << 41 | i);
                churn_rebuilds += update(&mut pst, UpdateOp::Insert(p));
                live.push(p);
                let victim = live.swap_remove(rng.gen_range(0..live.len()));
                churn_rebuilds += update(&mut pst, UpdateOp::Delete(victim));
            }
            let what = format!("{page_size} B, rebuilds {band_rebuilds} / {churn_rebuilds}");
            assert!(band_rebuilds > 0 && churn_rebuilds > 0, "{what}");
            assert_eq!(pst.page_census(&store).unwrap().total(), store.live_pages(), "{what}");
            let mut ids = pst.page_ids(&store).unwrap();
            ids.sort_unstable();
            assert_eq!(ids, store.allocated_pages(), "{what}");
            let all = pst.query(&store, TwoSided { x0: i64::MIN, y0: i64::MIN }).unwrap();
            assert_eq!(canonical(all), canonical(live), "{what}");
        }
    }

    #[test]
    fn three_sided_space_stays_bounded_under_churn() {
        // Every buffer overflow rebuilds the static structure; the old one
        // must be freed, or the store grows by a whole structure each time.
        let store = PageStore::in_memory(512);
        let mut rng = Rng::seed_from_u64(14);
        let mut live = uniform_points(&mut rng, 2000, 10_000);
        let mut pst = DynamicThreeSidedPst::build(&store, &live).unwrap();
        let baseline = store.live_pages();
        for next_id in 10_000u64..11_500 {
            let p = Point::new(rng.gen_range(0..10_000i64), rng.gen_range(0..10_000i64), next_id);
            pst.insert(&store, p).unwrap();
            live.push(p);
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            pst.delete(&store, victim).unwrap();
        }
        // 3000 updates through a 57-update buffer (B = 19 and log_B n = 3
        // at 512 B): 52 rebuilds.
        assert_eq!(pst.buffer_cap, 57);
        let after = store.live_pages();
        assert!(
            after <= baseline + baseline / 10 + 10,
            "page count grew from {baseline} to {after} under constant n"
        );
        let q = ThreeSided { x1: 0, x2: 10_000, y0: 0 };
        assert_eq!(canonical(pst.query(&store, q).unwrap()), canonical(live));
    }

    /// The walk names exactly the store's pages, after a build and after
    /// churn that rebuilds the static index and leaves buffer pages, at
    /// 512 B and at 4 KiB.
    #[test]
    fn three_sided_page_ids_are_the_allocated_pages() {
        for (page_size, n) in [(512, 2000), (4096, 20_000)] {
            let store = PageStore::in_memory(page_size);
            let mut rng = Rng::seed_from_u64(page_size as u64);
            let mut live = uniform_points(&mut rng, n, 1 << 20);
            let mut pst = DynamicThreeSidedPst::build(&store, &live).unwrap();
            let walked = |pst: &DynamicThreeSidedPst| {
                let mut ids = pst.page_ids(&store).unwrap();
                ids.sort_unstable();
                ids
            };
            assert_eq!(walked(&pst), store.allocated_pages(), "{page_size} B, built");
            for id in 0..3 * pst.buffer_cap as u64 + 5 {
                let p = Point::new(rng.gen_range(0..1i64 << 20), rng.gen_range(0..1i64 << 20), id);
                pst.insert(&store, Point { id: id | 1 << 40, ..p }).unwrap();
                live.push(Point { id: id | 1 << 40, ..p });
                let victim = live.swap_remove(rng.gen_range(0..live.len()));
                pst.delete(&store, victim).unwrap();
            }
            assert!(!pst.buffer.is_empty(), "{page_size} B: buffer pages to walk");
            assert_eq!(walked(&pst), store.allocated_pages(), "{page_size} B, churned");
        }
    }

    #[test]
    fn buffered_inserts_come_back_in_one_order() {
        // At 4 KiB a corner path records several siblings per skeletal
        // page, so the order in which they are traversed shows as well.
        for (page_size, n, domain) in [(512, 600, 5000), (4096, 40_000, 1_000_000)] {
            let store = PageStore::in_memory(page_size);
            let initial = uniform_points(&mut Rng::seed_from_u64(15), n, domain);
            let mut two = DynamicPst::build(&store, &initial).unwrap();
            let mut three = DynamicThreeSidedPst::build(&store, &initial).unwrap();
            let first_id = n as u64;
            for i in 0..12u64 {
                let p = Point::new(100 + 7 * i as i64, domain - 11 * i as i64, first_id + i);
                two.insert(&store, p).unwrap();
                three.insert(&store, p).unwrap();
            }
            let q2 = TwoSided { x0: 0, y0: 0 };
            let q3 = ThreeSided { x1: 0, x2: domain, y0: 0 };
            let first2 = two.query(&store, q2).unwrap();
            let first3 = three.query(&store, q3).unwrap();
            // The twelve buffered inserts close the answer, oldest first.
            let tail: Vec<u64> = first2[first2.len() - 12..].iter().map(|p| p.id).collect();
            assert_eq!(tail, (first_id..first_id + 12).collect::<Vec<u64>>());
            assert_eq!(three.buffered.len(), 12);
            for _ in 0..8 {
                assert_eq!(two.query(&store, q2).unwrap(), first2);
                assert_eq!(three.query(&store, q3).unwrap(), first3);
            }
        }
    }

    /// A leaf region can be empty (the decomposition splits a remainder of
    /// one point into one point and none) and still open a skeletal page of
    /// its own, whose `U` buffer then takes the inserts bound for it. A
    /// query that leaves the segment beside it must read that page.
    #[test]
    fn buffered_insert_under_an_empty_leaf_page_is_found() {
        // The first size whose root's left region holds all but one point of
        // its subtree: that one and none below it, on a page of their own.
        let points = |n: i64| -> Vec<Point> {
            (0..n).map(|i| Point::new(10 * i, (i * 37) % n, i as u64)).collect()
        };
        let geometry = (100..3_000).find_map(|n| {
            let store = PageStore::in_memory(512);
            let pst = DynamicPst::build(&store, &points(n)).unwrap();
            let page = store.read(pst.root).unwrap();
            let root = RegionRecord::at(&page, 0).unwrap();
            let left = RegionRecord::at(&page, root.left.slot).ok()?;
            let shape = root.left.page == pst.root && left.right_cnt == 0;
            (shape && !left.right.page.is_null() && left.right.page != pst.root)
                .then_some((n, store, pst, root, left))
        });
        let (n, store, mut pst, root, left) = geometry.expect("a size of that shape");
        assert!(left.split_x < root.split_x);

        // Right of the left child's split, below its band: bound for the
        // empty leaf. Flushing the root page forwards it to that page's U.
        let p = Point::new(root.split_x, -1, 999_999);
        pst.insert(&store, p).unwrap();
        let root = pst.root;
        flush(&mut pst, &store, root, None);
        let got = pst.query(&store, TwoSided { x0: i64::MIN, y0: i64::MIN }).unwrap();
        assert_eq!(got.len() as i64, n + 1);
        assert!(got.contains(&p), "the buffered insert was not reported");
    }

    /// From-scratch `child_a` / `left_s` contents of every region of one
    /// page, taken from the page's X/Y lists alone.
    fn rebuilt_caches(store: &PageStore, page_id: PageId) -> Vec<(Vec<SEntry>, Vec<SEntry>)> {
        let recs = page_records(store, page_id);
        let first = |list: &ListRef, depth: usize| -> Vec<SEntry> {
            let all = list.read_all(store).unwrap();
            let first = usize::from(list.first);
            all.into_iter().take(first).map(|p| SEntry { p, depth: depth as u16 }).collect()
        };
        let paths = in_page_paths(page_id, &recs);
        paths
            .into_iter()
            .enumerate()
            .map(|(slot, mut path)| {
                let (mut a, mut s) = (Vec::new(), Vec::new());
                if recs[slot].left.page == page_id {
                    // The left child's path names both of the record's lists.
                    path.push((slot, true));
                    for (depth, &(anc, went_left)) in path.iter().enumerate() {
                        a.extend(first(&recs[anc].x_list, depth));
                        let sib = recs[anc].right;
                        if went_left && sib.page == page_id {
                            s.extend(first(&recs[sib.slot as usize].y_list, depth));
                        }
                    }
                }
                a.sort_unstable_by(|x, y| cmp_x(&y.p, &x.p));
                s.sort_unstable_by(|x, y| cmp_y(&y.p, &x.p));
                (a, s)
            })
            .collect()
    }

    fn page_records(store: &PageStore, page_id: PageId) -> Vec<RegionRecord> {
        RegionRecord::all(&store.read(page_id).unwrap()).unwrap()
    }

    fn assert_caches_match_a_rebuild(store: &PageStore, page_id: PageId, what: &str) {
        let want = rebuilt_caches(store, page_id);
        let recs = page_records(store, page_id);
        for (slot, (rec, (a, s))) in recs.iter().zip(want).enumerate() {
            let child_a = rec.child_a.read_all(store).unwrap();
            let left_s = rec.left_s.read_all(store).unwrap();
            assert_eq!(child_a, a, "{what}: child_a of slot {slot}");
            assert_eq!(left_s, s, "{what}: left_s of slot {slot}");
            let mut by_x = rec.y_list.read_all(store).unwrap();
            assert_eq!(by_x.len(), rec.own_cnt as usize, "{what}: count of slot {slot}");
            by_x.sort_unstable_by(|x, y| cmp_x(y, x));
            let xs = rec.x_list.read_all(store).unwrap();
            assert_eq!(xs, by_x, "{what}: X/Y of slot {slot}");
            // The record names the second block of each list and the first's
            // count, and those of its right child's Y-list, as the chains
            // have them.
            let keys: [fn(&Point) -> i64; 2] = [|p| p.x, |p| p.y];
            let lists = [(rec.x_list, rec.x_edge), (rec.y_list, rec.y_edge)];
            for ((list, edge), key) in lists.into_iter().zip(keys) {
                let pages = chain_pages(store, list.head).unwrap();
                let second = pages.get(1).copied().unwrap_or(NULL_PAGE);
                assert_eq!(list.second, second, "{what}: second block of slot {slot}");
                let first = pages.first().map_or(Vec::new(), |&page| {
                    BlockList::<Point>::read_block(store, page).unwrap().0
                });
                let count = first.len();
                assert_eq!(usize::from(list.first), count, "{what}: first count of slot {slot}");
                assert_eq!(edge, first.last().map_or(0, key), "{what}: edge of slot {slot}");
            }
            if rec.right.page == page_id {
                let right = &recs[rec.right.slot as usize];
                assert_eq!(rec.right_y_list, right.y_list, "{what}: right_y_list of slot {slot}");
                assert_eq!(rec.right_cnt, right.own_cnt, "{what}: right_cnt of slot {slot}");
            }
        }
    }

    /// A twin (same coordinates, fresh id) of a point of `rec`'s region
    /// chosen by whether it lands in the first block of the region's X-list
    /// and of its Y-list — at a rank of at most the block's count, which
    /// the block would take in — or past it: the twin takes the rank of
    /// its original in both orders.
    fn twin(store: &PageStore, rec: &RegionRecord, (top_x, top_y): (bool, bool), id: u64) -> Point {
        let xs = rec.x_list.read_all(store).unwrap();
        let ys = rec.y_list.read_all(store).unwrap();
        let (first_x, first_y) = (usize::from(rec.x_list.first), usize::from(rec.y_list.first));
        let e = xs
            .iter()
            .enumerate()
            .find(|&(xi, e)| {
                let yi = ys.iter().position(|p| p.id == e.id).unwrap();
                (xi <= first_x) == top_x && (yi <= first_y) == top_y
            })
            .expect("a region of several blocks has a point of every kind")
            .1;
        Point::new(e.x, e.y, id)
    }

    /// Drives `rewrite_page` through the cases its selective cache rebuild
    /// tells apart and compares every A/S list of the page with a rebuild
    /// from scratch each time.
    #[test]
    fn selective_cache_rebuild_equals_a_rebuild_from_scratch() {
        for (page_size, n) in [(512usize, 2_000usize), (4096, 70_000)] {
            let store = PageStore::in_memory(page_size);
            let initial = uniform_points(&mut Rng::seed_from_u64(0x5e1ec7), n, 1 << 40);
            let mut next_id = 10_000_000u64;
            let mut pst = DynamicPst::build(&store, &initial).unwrap();
            let root = pst.root;
            assert_caches_match_a_rebuild(&store, root, "fresh build");
            let flush_root = |pst: &mut DynamicPst, p: Point, delete: bool| -> u64 {
                if delete {
                    pst.delete(&store, p).unwrap();
                } else {
                    pst.insert(&store, p).unwrap();
                }
                let before = store.stats().writes;
                assert_eq!(flush(pst, &store, root, None), root, "in place");
                store.stats().writes - before
            };

            // The regions that feed the most caches: the page root's right
            // child (every left_s below the root's left child copies it) and
            // the page root (every child_a).
            let recs = page_records(&store, root);
            let right_of_root = recs[0].right.slot as usize;
            assert_eq!(recs[0].right.page, root);

            // 1. Neither first block moves: no cache is rewritten.
            next_id += 1;
            let quiet = twin(&store, &recs[right_of_root], (false, false), next_id);
            let handles = |store: &PageStore| -> Vec<(PageId, u64, PageId, u64)> {
                page_records(store, root)
                    .iter()
                    .map(|r| (r.child_a.head(), r.child_a.len(), r.left_s.head(), r.left_s.len()))
                    .collect()
            };
            let before = handles(&store);
            let w_quiet = flush_root(&mut pst, quiet, false);
            assert_eq!(handles(&store), before, "a quiet flush moved a cache");
            assert_caches_match_a_rebuild(&store, root, "quiet insert");

            // 2. Only a Y-first block moves (insert, then the delete back).
            next_id += 1;
            let recs = page_records(&store, root);
            let y_only = twin(&store, &recs[right_of_root], (false, true), next_id);
            let w_y = flush_root(&mut pst, y_only, false);
            assert_caches_match_a_rebuild(&store, root, "Y-first insert");
            flush_root(&mut pst, y_only, true);
            assert_caches_match_a_rebuild(&store, root, "Y-first delete");

            // 3. Only an X-first block moves — the page root's, which every
            //    child_a of the page copies.
            next_id += 1;
            let recs = page_records(&store, root);
            let x_only = twin(&store, &recs[0], (true, false), next_id);
            let w_x = flush_root(&mut pst, x_only, false);
            assert_caches_match_a_rebuild(&store, root, "X-first insert");
            flush_root(&mut pst, x_only, true);
            assert_caches_match_a_rebuild(&store, root, "X-first delete");
            assert!(w_quiet < w_y && w_quiet < w_x, "writes: {w_quiet} quiet, {w_y} Y, {w_x} X");

            // 4. The root region of a child page changes: its own caches,
            //    and the parent record's view of it.
            let recs = page_records(&store, root);
            let (pslot, is_right, child) = recs
                .iter()
                .enumerate()
                .flat_map(|(slot, r)| [(slot, false, r.left), (slot, true, r.right)])
                .find(|&(_, _, c)| !c.page.is_null() && c.page != root)
                .expect("the root page has child pages");
            next_id += 1;
            let child_root = RegionRecord::at(&store.read(child.page).unwrap(), 0).unwrap();
            let below = twin(&store, &child_root, (true, true), next_id);
            flush_root(&mut pst, below, false);
            assert_caches_match_a_rebuild(&store, root, "forwarding flush");
            let parent = Some((root, pslot as u16, is_right));
            assert_eq!(flush(&mut pst, &store, child.page, parent), child.page, "in place");
            assert_caches_match_a_rebuild(&store, child.page, "child page root");
            assert_caches_match_a_rebuild(&store, root, "parent of the flushed page");
            let child_root = RegionRecord::at(&store.read(child.page).unwrap(), 0).unwrap();
            let up = &page_records(&store, root)[pslot];
            let (cnt, y_list) = if is_right {
                (up.right_cnt, up.right_y_list)
            } else {
                (up.left_cnt, child_root.y_list)
            };
            assert_eq!(cnt, child_root.own_cnt);
            assert_eq!(y_list, child_root.y_list);

            // And the answers: everything, once.
            let got = pst.query(&store, TwoSided { x0: i64::MIN, y0: i64::MIN }).unwrap();
            let want = [&initial[..], &[quiet, below]].concat();
            assert_eq!(canonical(got), canonical(want));
        }
    }

    /// A flush that rebuilds its subtree writes no page it frees: not the
    /// header of the page it rebuilds, whose `U` the rebuild replays. A
    /// page it wrote is live after it, and not zeroed
    /// since: `alloc` zeroes a page freed and handed out again.
    #[test]
    fn a_rebuilding_flush_writes_no_page_it_frees() {
        for page_size in [512, 4096] {
            let logged = LoggedStore::new(page_size);
            let store = &logged.store;
            let mut rng = Rng::seed_from_u64(0xf1a5);
            let initial = uniform_points(&mut rng, 2_000, 1 << 20);
            let mut pst = DynamicPst::build(store, &initial).unwrap();
            // A root past its churn threshold, and a `U` of inserts.
            let page = store.read(pst.root).unwrap();
            let mut header = decode_header(&page).unwrap();
            header.churn = u32::MAX / 2;
            let header = |w: &mut PageWriter<'_>| encode_header(w, &header);
            patch_page::<RegionRecord>(store, pst.root, &page, header, &[]).unwrap();
            let fresh = uniform_points(&mut rng, 8, 1 << 20);
            let inserts: Vec<Point> =
                fresh.iter().map(|p| Point::new(p.x, p.y, p.id + 9_000)).collect();
            pst.root_ops =
                inserts.iter().map(|&p| stamped(UpdateOp::Insert(p), &mut pst.seq)).collect();

            let root = pst.root;
            let (_, writes) = logged.writes_of(|s| flush(&mut pst, s, root, None));
            let live: HashSet<PageId> = store.allocated_pages().into_iter().collect();
            let mut written = HashSet::new();
            for (id, zeros) in writes {
                let freed = if zeros { written.contains(&id) } else { !live.contains(&id) };
                assert!(!freed, "{page_size} B: wrote {id:?}, then freed it");
                written.extend((!zeros).then_some(id));
            }
            let rebuilt = decode_header(&store.read(pst.root).unwrap()).unwrap();
            assert_eq!(rebuilt.churn, 0, "{page_size} B: the flush rebuilt");
            let all = pst.query(store, TwoSided { x0: i64::MIN, y0: i64::MIN }).unwrap();
            assert_eq!(canonical(all), canonical([&initial[..], &inserts].concat()));
        }
    }

    /// The corner rule never costs a dynamic query a read
    /// ([`corner_cost`]): after churn, a corner that answers from one block
    /// of its lists reads neither its inner tree nor its `u` — which the
    /// lists hold — where that path read two pages or more, and every other
    /// corner reads what it read.
    #[test]
    fn a_dynamic_corner_from_one_block_never_costs_more() {
        for (page_size, n, updates) in [(512, 4_000, 1_500), (4096, 20_000, 4_000)] {
            let logged = LoggedStore::new(page_size);
            let store = &logged.store;
            let mut rng = Rng::seed_from_u64(0xd1);
            let mut live = uniform_points(&mut rng, n, 1 << 30);
            let mut pst = DynamicPst::build(store, &live).unwrap();
            for id in 0..updates as u64 {
                if rng.gen_range(0..3u64) < 2 {
                    let (x, y) = (rng.gen_range(0..1i64 << 30), rng.gen_range(0..1i64 << 30));
                    let p = Point::new(x, y, n as u64 + id);
                    pst.insert(store, p).unwrap();
                    live.push(p);
                } else {
                    let victim = live.swap_remove(rng.gen_range(0..live.len()));
                    pst.delete(store, victim).unwrap();
                }
            }
            let (mut seen, mut past_u) = ([0; 2], 0);
            for _ in 0..200 {
                let (a, b) = (rng.choose(&live).unwrap(), rng.choose(&live).unwrap());
                let q = TwoSided { x0: a.x, y0: b.y };
                let query = |s: &PageStore| drop(pst.query(s, q).unwrap());
                if let Some((fired, corner)) = corner_cost(&logged, pst.root, q, query) {
                    seen[usize::from(fired)] += 1;
                    past_u += usize::from(fired && !corner.u_buf.is_null());
                }
            }
            assert!(seen.iter().all(|&k| k >= 20), "{page_size} B: inner / block {seen:?}");
            assert!(past_u >= 10, "{page_size} B: {past_u} corners answered past a `u`");
        }
    }

    /// 20-bit coordinates, the benchmark's.
    const DOMAIN: i64 = 1 << 20;

    /// A dynamic PST over `n` uniform points at 4 KiB and, beside it, the
    /// same build left clean; then `inserts` fresh uniform points, the
    /// oldest deleted again once 256 are live, as the served benchmark's
    /// sliding window does. The stream stays in the root's `U`. Returns the
    /// two stores and structures and the live points.
    fn dirty_and_clean(n: usize, inserts: u64) -> [(PageStore, DynamicPst, Vec<Point>); 2] {
        let mut rng = Rng::seed_from_u64(0x57a1);
        let points = uniform_points(&mut rng, n, DOMAIN);
        let [dirty, clean] = [(), ()].map(|_| {
            let store = PageStore::in_memory(4096);
            let pst = DynamicPst::build(&store, &points).unwrap();
            (store, pst, points.clone())
        });
        let (store, mut pst, mut live) = dirty;
        let mut window = std::collections::VecDeque::new();
        for id in 0..inserts {
            let p = Point::new(rng.gen_range(0..DOMAIN), rng.gen_range(0..DOMAIN), n as u64 + id);
            pst.insert(&store, p).unwrap();
            live.push(p);
            window.push_back(p);
            if window.len() > 256 {
                let gone = window.pop_front().unwrap();
                pst.delete(&store, gone).unwrap();
                live.retain(|q| *q != gone);
            }
        }
        assert_eq!(pst.root_ops.len() as u64, pst.seq, "the stream stays in the root's `U`");
        assert_eq!(pst.page_census(&store).unwrap().buffers, 0);
        [(store, pst, live), clean]
    }

    /// Reads by class of `q` on `pst`, and its answer in [`canonical`] order.
    fn counted(store: &PageStore, pst: &DynamicPst, q: TwoSided) -> ([u64; 4], Vec<Point>) {
        let (answer, trace) = pc_obs::traced(|| pst.query(store, q).unwrap());
        (trace.reads_by_class, canonical(answer))
    }

    /// The root's `U` costs a query no read and hides no op: over 50k
    /// uniform points at 4 KiB and a stream in the root's `U`, a corner
    /// reads what it reads on the clean build and answers as the live set
    /// does — the benchmark's kind of corner, about 16 points, which holds
    /// no op of a few hundred, and a corner on each op, which holds it.
    #[test]
    fn a_dirty_corner_reads_what_the_clean_build_reads() {
        let [(store, pst, live), (clean_store, clean, _)] = dirty_and_clean(50_000, 400);
        let ops = &pst.root_ops;
        assert!(ops.len() > 400, "{} ops", ops.len());
        let want =
            |q: TwoSided| canonical(live.iter().copied().filter(|p| q.contains(p)).collect());
        let mut rng = Rng::seed_from_u64(0xc0);
        let mut small = 0;
        for _ in 0..300 {
            let mut side = || DOMAIN - rng.gen_range(0..DOMAIN / 40);
            let q = TwoSided { x0: side(), y0: side() };
            let (reads, answer) = counted(&store, &pst, q);
            assert_eq!(answer, want(q), "{q:?}");
            assert!(!ops.iter().any(|op| q.contains(&op.p)), "{q:?} holds an op");
            assert_eq!(reads, counted(&clean_store, &clean, q).0, "{q:?}");
            small += usize::from(answer.len() <= 64);
        }
        assert!(small >= 150, "{small} corners of at most 64 points");
        for op in ops {
            let q = TwoSided { x0: op.p.x, y0: op.p.y };
            let (reads, answer) = counted(&store, &pst, q);
            assert_eq!(answer, want(q), "{q:?}");
            assert_eq!(reads, counted(&clean_store, &clean, q).0, "{q:?}");
        }
    }

    /// The descriptor carries the root's `U` whole, at 512 B and 4 KiB:
    /// empty, one op, and full (the next op would flush the root page). The
    /// structure it reopens holds the same ops and answers alike; an op
    /// block cut short anywhere, or followed by a byte, is `Corrupt`.
    #[test]
    fn the_descriptor_carries_the_root_ops_whole() {
        for page_size in [512, 4096] {
            let store = PageStore::in_memory(page_size);
            let mut rng = Rng::seed_from_u64(page_size as u64);
            let points = uniform_points(&mut rng, 2_000, DOMAIN);
            let mut pst = DynamicPst::build(&store, &points).unwrap();
            let full = |pst: &DynamicPst, p: Point| {
                let next = UpdateRec { is_delete: false, seq: pst.seq + 1, p };
                buffer_room(page_size, &pst.root_ops, &[next]) == 0
            };
            for held in [Some(0), Some(1), None] {
                loop {
                    let (x, y) = (rng.gen_range(0..DOMAIN), rng.gen_range(0..DOMAIN));
                    let p = Point::new(x, y, 1 << 40 | pst.seq);
                    if Some(pst.root_ops.len()) == held || full(&pst, p) {
                        break;
                    }
                    pst.insert(&store, p).unwrap();
                }
                let what = format!("{page_size} B, {} ops", pst.root_ops.len());
                let desc = pst.descriptor();
                let reopened = DynamicPst::open(&store, &desc).unwrap();
                assert_eq!(reopened.root_ops, pst.root_ops, "{what}");
                assert_eq!((reopened.len(), reopened.seq()), (pst.len(), pst.seq()), "{what}");
                for q in [(0, 0), (DOMAIN / 2, DOMAIN / 3), (DOMAIN - 5_000, 0)] {
                    let q = TwoSided { x0: q.0, y0: q.1 };
                    let (a, b) = (reopened.query(&store, q), pst.query(&store, q));
                    assert_eq!(a.unwrap(), b.unwrap(), "{what}: {q:?}");
                }
                let corrupt = |desc: &[u8]| {
                    matches!(DynamicPst::open(&store, desc), Err(StoreError::Corrupt(_)))
                };
                for cut in 0..desc.len() {
                    assert!(corrupt(&desc[..cut]), "{what}: cut at {cut} of {}", desc.len());
                }
                assert!(corrupt(&[&desc[..], &[0]].concat()), "{what}: a byte past the ops");
            }
            let ops = pst.root_ops.len();
            assert!(ops > if page_size == 512 { 20 } else { 200 }, "{page_size} B: {ops} ops");
        }
    }

    /// The root's ops are part of the committed descriptor: a durable store
    /// reopened from its files answers every corner as before, at the same
    /// reads, from the same ops.
    #[test]
    fn a_reopened_durable_store_keeps_the_root_ops() {
        let corners: Vec<TwoSided> = (1..=16)
            .map(|k| TwoSided { x0: DOMAIN - k * k * 2_000, y0: DOMAIN - k * k * 1_800 })
            .collect();
        let dir = std::env::temp_dir().join(format!("pc-pst-root-ops-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dyn.db");
        let wal = pc_pagestore::WalConfig::default();
        let (durable, _) = PageStore::file_durable(&path, 4096, wal).unwrap();
        let points = uniform_points(&mut Rng::seed_from_u64(3), 20_000, DOMAIN);
        let mut pst = DynamicPst::build(&durable, &points).unwrap();
        for id in 0..300 {
            let mut rng = Rng::seed_from_u64(id);
            let p = Point::new(rng.gen_range(0..DOMAIN), rng.gen_range(0..DOMAIN), 1 << 32 | id);
            pst.insert(&durable, p).unwrap();
        }
        let desc = pst.descriptor();
        durable.commit_with(&desc).unwrap();
        let before: Vec<_> = corners.iter().map(|&q| counted(&durable, &pst, q)).collect();
        let held = |q: &TwoSided| pst.root_ops.iter().any(|op| q.contains(&op.p));
        assert!(corners.iter().any(held) && !corners.iter().all(held), "corners with and without");
        let ops = std::mem::take(&mut pst.root_ops);
        drop((pst, durable));
        let (durable, _) = PageStore::file_durable(&path, 4096, wal).unwrap();
        let pst = DynamicPst::open(&durable, &desc).unwrap();
        assert_eq!(pst.root_ops, ops);
        let after: Vec<_> = corners.iter().map(|&q| counted(&durable, &pst, q)).collect();
        assert_eq!(after, before);
        drop(durable);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn amortized_update_cost_is_logarithmic() {
        let store = PageStore::in_memory(512);
        let mut rng = Rng::seed_from_u64(5);
        let initial = uniform_points(&mut rng, 10_000, 100_000);
        let mut pst = DynamicPst::build(&store, &initial).unwrap();
        store.reset_stats();
        let updates = 2000u64;
        for i in 0..updates {
            let (x, y) = (rng.gen_range(0..100_000i64), rng.gen_range(0..100_000i64));
            let p = Point::new(x, y, 500_000 + i);
            pst.insert(&store, p).unwrap();
        }
        let per_update = store.stats().total_io() as f64 / updates as f64;
        // O(log_B n) with a generous constant: at B=20, n=10k the flush
        // machinery (list rebuilds every ~15 updates) dominates.
        assert!(per_update < 60.0, "amortized update cost {per_update:.1} I/Os");
    }

    /// A random op stream cut into random batches applies as it does one op
    /// at a time — the same answers in the same order, `len` and `seq` —
    /// for both dynamic PSTs, through `U` flushes and every kind of rebuild.
    #[test]
    fn a_batch_applies_as_its_ops_one_at_a_time() {
        for (page_size, n, domain, steps) in
            [(512, 400, 5_000, 1_500), (4096, 3_000, 1 << 20, 3_000)]
        {
            let mut rng = Rng::seed_from_u64(page_size as u64);
            let initial = uniform_points(&mut rng, n, domain);
            let mut live = initial.clone();
            let ops: Vec<UpdateOp> = (0..steps as u64)
                .map(|i| match rng.gen_range(0..3u64) {
                    0 if !live.is_empty() => {
                        UpdateOp::Delete(live.swap_remove(rng.gen_range(0..live.len())))
                    }
                    _ => {
                        let (x, y) = (rng.gen_range(0..domain), rng.gen_range(0..domain));
                        live.push(Point::new(x, y, 1_000_000 + i));
                        UpdateOp::Insert(Point::new(x, y, 1_000_000 + i))
                    }
                })
                .collect();
            let stores: Vec<PageStore> = (0..4).map(|_| PageStore::in_memory(page_size)).collect();
            let [one2, cut2, one3, cut3] = &stores[..] else { unreachable!() };
            let mut two = [one2, cut2].map(|s| DynamicPst::build(s, &initial).unwrap());
            let mut three = [one3, cut3].map(|s| DynamicThreeSidedPst::build(s, &initial).unwrap());
            let mut at = 0;
            while at < ops.len() {
                let batch = &ops[at..(at + rng.gen_range(1..40usize)).min(ops.len())];
                at += batch.len();
                for op in batch {
                    two[0].apply(one2, &[*op]).unwrap();
                    three[0].apply(one3, &[*op]).unwrap();
                }
                two[1].apply(cut2, batch).unwrap();
                three[1].apply(cut3, batch).unwrap();
                let (x0, y0) = (rng.gen_range(0..domain), rng.gen_range(0..domain));
                let (q2, q3) =
                    (TwoSided { x0, y0 }, ThreeSided { x1: x0, x2: x0 + domain / 4, y0 });
                let ctx = format!("{page_size} B, op {at}");
                let (a2, b2) = (two[0].query(one2, q2).unwrap(), two[1].query(cut2, q2).unwrap());
                assert_eq!(a2, b2, "{ctx}");
                let (a3, b3) = (three[0].query(one3, q3), three[1].query(cut3, q3));
                assert_eq!(a3.unwrap(), b3.unwrap(), "{ctx}");
                assert_eq!((two[0].len(), two[0].seq()), (two[1].len(), two[1].seq()), "{ctx}");
                assert_eq!((three[0].len(), three[0].seq), (three[1].len(), three[1].seq), "{ctx}");
            }
            let everything = TwoSided { x0: i64::MIN, y0: i64::MIN };
            assert_eq!(canonical(two[1].query(cut2, everything).unwrap()), canonical(live));
        }
    }

    #[test]
    fn dynamic_three_sided_differential() {
        let store = PageStore::in_memory(512);
        let mut rng = Rng::seed_from_u64(6);
        let mut live = uniform_points(&mut rng, 1000, 10_000);
        let mut pst = DynamicThreeSidedPst::build(&store, &live).unwrap();
        let mut next_id = 50_000u64;
        for step in 0..1200u64 {
            if rng.gen_range(0..3u64) < 2 {
                let (x, y) = (rng.gen_range(0..10_000i64), rng.gen_range(0..10_000i64));
                let p = Point::new(x, y, next_id);
                next_id += 1;
                pst.insert(&store, p).unwrap();
                live.push(p);
            } else if !live.is_empty() {
                let victim = live.swap_remove(rng.gen_range(0..live.len()));
                pst.delete(&store, victim).unwrap();
            }
            if step % 131 == 0 {
                let x1 = rng.gen_range(0..10_000i64);
                let q = ThreeSided {
                    x1,
                    x2: x1 + rng.gen_range(0..4000i64),
                    y0: rng.gen_range(0..10_000i64),
                };
                let want = canonical(live.iter().copied().filter(|p| q.contains(p)).collect());
                assert_eq!(canonical(pst.query(&store, q).unwrap()), want, "step {step} {q:?}");
                // The descriptor is the whole handle, whatever the buffer
                // holds: a reopened structure answers in the same order.
                let reopened = DynamicThreeSidedPst::open(&store, &pst.descriptor()).unwrap();
                assert_eq!(reopened.len(), pst.len(), "step {step}");
                assert_eq!(reopened.query(&store, q).unwrap(), pst.query(&store, q).unwrap());
            }
            assert_eq!(pst.len(), live.len() as u64, "step {step}");
        }
        // Updates keep working through a handle reopened after the churn.
        let desc = pst.descriptor();
        assert!(desc.len() > DESCRIPTOR3_FIXED, "the run ends with a buffered tail");
        let mut reopened = DynamicThreeSidedPst::open(&store, &desc).unwrap();
        reopened.insert(&store, Point::new(1, 1, 99_999)).unwrap();
        assert_eq!(reopened.len(), pst.len() + 1);
    }
}
