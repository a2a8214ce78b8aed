//! Offline cache-oblivious repacking.
//!
//! Static structures in this workspace are written in *build order*:
//! bottom-up for the B-tree, leaf-to-root page fills for the segment /
//! interval / priority search trees. Build order is correct under the
//! paper's transfer-count model (which charges every page access one I/O
//! regardless of where the page lives), but on a real disk it scatters
//! each root-to-leaf path across the file, so cold-cache wall-clock
//! latency pays a long seek/readahead-miss per level.
//!
//! This module implements the classic remedy: rewrite the finished
//! structure into a fresh store in **van Emde Boas recursive order**
//! (Demaine–Iacono–Langerman, "Worst-Case Optimal Tree Layout in External
//! Memory"). A subtree of height `h` is laid out as its top half (height
//! `⌈h/2⌉` — here `⌊h/2⌋` for the top, the complement for the bottoms,
//! either split is optimal to constants) followed by each bottom subtree
//! contiguously. The recursion is *cache-oblivious*: for any block/
//! readahead size `B`, a root-to-leaf walk touches `O(log_B n)` distinct
//! regions, without `B` appearing anywhere in the layout code.
//!
//! The workspace's structures are not plain trees: skeletal nodes own
//! [`crate::layout::BlockList`] chains (cover lists, A/S/X/Y lists, path
//! caches). Those are *attached* to their owning node and placed
//! contiguously right after it, so the "open the node, then stream its
//! list" access pattern of every query is sequential on disk.
//!
//! Mechanically, repacking is a three-step pass shared by all structure
//! crates:
//!
//! 1. **Enumerate** — the structure walks itself once and records its page
//!    graph into a [`PageGraph`] (tree edges + attached chains).
//! 2. **Relocate** — [`PageGraph::veb_order`] produces the target page
//!    order; [`Relocation::alloc_in`] allocates exactly that sequence in
//!    the destination store, yielding an old-id → new-id map. A fresh
//!    [`crate::backend::FileBackend`] store allocates ids `0..n` in order
//!    and places frame `i` at byte offset `i * frame_len`, so allocation
//!    order *is* physical order.
//! 3. **Rewrite** — the structure walks itself again, re-encoding every
//!    page into the destination with all embedded [`PageId`]s (child
//!    pointers, list heads, `next` links) mapped through the
//!    [`Relocation`].
//!
//! Because the pass only *renames* pages — same page count, same contents
//! up to embedded ids, same graph shape — the paper's strict-mode transfer
//! counts are invariant by construction; the property suite pins this.
//!
//! Durable stores must be quiesced first: see [`ensure_quiesced`].

use std::collections::HashMap;

use crate::codec::PageReader;
use crate::error::{Result, StoreError};
use crate::store::{PageId, PageStore, NULL_PAGE};

/// One node of the page graph: a skeletal page, its tree children, and
/// the non-tree pages (list chains, points pages) that queries read right
/// after it.
struct GraphNode {
    page: PageId,
    children: Vec<usize>,
    attached: Vec<PageId>,
}

/// The page graph of a built structure, as recorded by its enumeration
/// walk. Nodes are added top-down (roots first, then children), which the
/// layout pass relies on: a child's index is always greater than its
/// parent's.
#[derive(Default)]
pub struct PageGraph {
    nodes: Vec<GraphNode>,
    roots: Vec<usize>,
    /// Every page already placed somewhere in the graph (node or attached).
    /// Structures with DAG-shaped page graphs (the segment tree packs
    /// several logical nodes per page, so two parents can reference one
    /// page) deduplicate through this: the first discovering parent wins,
    /// and the layout uses that spanning tree.
    seen: HashMap<u64, usize>,
}

impl PageGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct pages recorded (nodes plus attached).
    pub fn page_count(&self) -> usize {
        self.seen.len()
    }

    /// Adds a root node. Returns `None` if `page` is already in the graph
    /// (a later root reached a page some earlier walk placed — the caller
    /// must not walk below it again).
    pub fn add_root(&mut self, page: PageId) -> Option<usize> {
        let idx = self.insert_node(page)?;
        self.roots.push(idx);
        Some(idx)
    }

    /// Adds `page` as a tree child of node `parent`. Returns `None` — and
    /// records nothing — if `page` is already in the graph; the caller
    /// must not recurse into it again.
    pub fn add_child(&mut self, parent: usize, page: PageId) -> Option<usize> {
        let idx = self.insert_node(page)?;
        self.nodes[parent].children.push(idx);
        Some(idx)
    }

    /// Attaches non-tree pages (a list chain, a points page) to node
    /// `owner`; they are laid out contiguously right after the owner's
    /// page. Pages already in the graph are skipped.
    pub fn attach(&mut self, owner: usize, pages: &[PageId]) {
        for &p in pages {
            debug_assert!(!p.is_null(), "attached NULL_PAGE");
            if let std::collections::hash_map::Entry::Vacant(e) = self.seen.entry(p.0) {
                e.insert(owner);
                self.nodes[owner].attached.push(p);
            }
        }
    }

    fn insert_node(&mut self, page: PageId) -> Option<usize> {
        debug_assert!(!page.is_null(), "NULL_PAGE added as graph node");
        let idx = self.nodes.len();
        match self.seen.entry(page.0) {
            std::collections::hash_map::Entry::Occupied(_) => return None,
            std::collections::hash_map::Entry::Vacant(e) => e.insert(idx),
        };
        self.nodes.push(GraphNode { page, children: Vec::new(), attached: Vec::new() });
        Some(idx)
    }

    /// The van Emde Boas page order: for each root in insertion order, the
    /// vEB recursion over its spanning tree, with every node's page
    /// immediately followed by its attached pages.
    pub fn veb_order(&self) -> Vec<PageId> {
        // Subtree heights. Children always carry larger indices than their
        // parent (nodes are inserted top-down), so one reverse sweep
        // suffices.
        let n = self.nodes.len();
        let mut height = vec![1u32; n];
        for i in (0..n).rev() {
            for &c in &self.nodes[i].children {
                height[i] = height[i].max(height[c] + 1);
            }
        }
        let mut node_order = Vec::with_capacity(n);
        for &root in &self.roots {
            let mut frontier = Vec::new();
            self.veb_rec(root, height[root], &height, &mut node_order, &mut frontier);
            debug_assert!(frontier.is_empty(), "full-height recursion leaves no frontier");
        }
        let mut out = Vec::with_capacity(self.seen.len());
        for idx in node_order {
            out.push(self.nodes[idx].page);
            out.extend_from_slice(&self.nodes[idx].attached);
        }
        out
    }

    /// Lays out the height-`h` truncation of the subtree at `i`: the top
    /// `⌊h/2⌋` levels recursively, then each depth-`⌊h/2⌋` boundary
    /// subtree recursively. Nodes exactly `h` levels down are pushed to
    /// `frontier` for the caller.
    fn veb_rec(
        &self,
        i: usize,
        h: u32,
        height: &[u32],
        out: &mut Vec<usize>,
        frontier: &mut Vec<usize>,
    ) {
        let h = h.min(height[i]);
        if h <= 1 {
            out.push(i);
            frontier.extend_from_slice(&self.nodes[i].children);
            return;
        }
        let top = h / 2;
        let mut boundary = Vec::new();
        self.veb_rec(i, top, height, out, &mut boundary);
        for b in boundary {
            self.veb_rec(b, h - top, height, out, frontier);
        }
    }
}

/// The old-id → new-id page map produced by allocating a layout order in
/// the destination store.
pub struct Relocation {
    map: HashMap<u64, u64>,
}

impl Relocation {
    /// Allocates one destination page per entry of `order`, in order, and
    /// records the mapping. On a fresh file-backed store this makes the
    /// physical layout equal `order`; on a store with a free list the
    /// recycled ids come first (physical order is then approximate, but
    /// the structure stays correct — the map is authoritative).
    pub fn alloc_in(order: &[PageId], dst: &PageStore) -> Result<Relocation> {
        let mut map = HashMap::with_capacity(order.len());
        for &old in order {
            let new = dst.alloc()?;
            if map.insert(old.0, new.0).is_some() {
                return Err(StoreError::Corrupt(format!(
                    "page {old:?} appears twice in repack order"
                )));
            }
        }
        Ok(Relocation { map })
    }

    /// Maps an embedded page id. [`NULL_PAGE`] maps to itself; a
    /// non-null id the enumeration pass never recorded is a walk bug and
    /// surfaces as [`StoreError::Corrupt`] rather than a dangling pointer.
    pub fn get(&self, old: PageId) -> Result<PageId> {
        if old.is_null() {
            return Ok(NULL_PAGE);
        }
        match self.map.get(&old.0) {
            Some(&n) => Ok(PageId(n)),
            None => Err(StoreError::Corrupt(format!(
                "page {old:?} has no relocation (missed by enumeration)"
            ))),
        }
    }

    /// Number of relocated pages.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no pages were relocated.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Refuses to operate on a durable store whose no-steal dirty table is
/// non-empty. Dirty pages live only in the WAL + dirty table — a physical
/// pass would read a mix of committed backend bytes and uncommitted
/// overlays, and recovery could not replay the log onto the relocated
/// copy. Callers must `commit_with`/`sync` and then `checkpoint` first.
/// Non-durable stores trivially pass.
pub fn ensure_quiesced(store: &PageStore) -> Result<()> {
    if let Some(ws) = store.wal_stats() {
        if ws.dirty_pages > 0 {
            return Err(StoreError::DirtyStore { dirty_pages: ws.dirty_pages });
        }
    }
    Ok(())
}

/// The page ids of a [`crate::layout::BlockList`] chain starting at
/// `head`, in chain order, walked via the raw `[count: u16][next: u64]`
/// block header (no record decoding — the repack pass is generic over the
/// record type).
pub fn chain_pages(store: &PageStore, head: PageId) -> Result<Vec<PageId>> {
    let mut out = Vec::new();
    let mut cur = head;
    while !cur.is_null() {
        out.push(cur);
        cur = read_chain_next(store, cur)?;
    }
    Ok(out)
}

/// Copies a [`crate::layout::BlockList`] chain from `src` into `dst`,
/// rewriting each block's `next` pointer through `map`. Record bytes are
/// copied verbatim (records never embed page ids themselves — handles to
/// nested lists are rewritten by the owning structure's record re-encode).
/// The caller relocates the embedded handle via
/// [`crate::layout::BlockList::with_head`].
pub fn copy_chain(src: &PageStore, dst: &PageStore, head: PageId, map: &Relocation) -> Result<()> {
    let mut cur = head;
    while !cur.is_null() {
        let page = src.read(cur)?;
        let mut buf = page.to_vec();
        if buf.len() < 10 {
            return Err(StoreError::Corrupt("block page shorter than its header".into()));
        }
        let next = PageId(u64::from_le_bytes(buf[2..10].try_into().unwrap()));
        buf[2..10].copy_from_slice(&map.get(next)?.0.to_le_bytes());
        dst.write(map.get(cur)?, &buf)?;
        cur = next;
    }
    Ok(())
}

/// Copies one page verbatim to its relocated id (for pages that embed no
/// page ids at all, e.g. raw record pages behind a directory).
pub fn copy_raw(src: &PageStore, dst: &PageStore, page: PageId, map: &Relocation) -> Result<()> {
    let data = src.read(page)?;
    dst.write(map.get(page)?, &data)
}

fn read_chain_next(store: &PageStore, page: PageId) -> Result<PageId> {
    let data = store.read(page)?;
    let mut r = PageReader::new(&data);
    let _count = r.get_u16()?;
    Ok(PageId(r.get_u64()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::BlockList;
    use crate::types::Point;

    /// Builds a perfect binary tree of `levels` levels in the graph, pages
    /// numbered in BFS order starting at 1, and returns the graph.
    fn perfect_tree(levels: u32) -> PageGraph {
        let mut g = PageGraph::new();
        let root = g.add_root(PageId(1)).unwrap();
        let mut level = vec![(root, 1u64)];
        for _ in 1..levels {
            let mut next_level = Vec::new();
            for (idx, page) in level {
                for child_page in [2 * page, 2 * page + 1] {
                    let c = g.add_child(idx, PageId(child_page)).unwrap();
                    next_level.push((c, child_page));
                }
            }
            level = next_level;
        }
        g
    }

    #[test]
    fn veb_order_height_three() {
        // Height 3: top = 1 level, bottoms of height 2.
        let g = perfect_tree(3);
        let order: Vec<u64> = g.veb_order().iter().map(|p| p.0).collect();
        assert_eq!(order, vec![1, 2, 4, 5, 3, 6, 7]);
    }

    #[test]
    fn veb_order_height_four() {
        // Height 4: top 2 levels {1,2,3}, then four height-2 bottoms.
        let g = perfect_tree(4);
        let order: Vec<u64> = g.veb_order().iter().map(|p| p.0).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 8, 9, 5, 10, 11, 6, 12, 13, 7, 14, 15]);
    }

    #[test]
    fn veb_order_is_a_permutation() {
        let g = perfect_tree(5);
        let mut order: Vec<u64> = g.veb_order().iter().map(|p| p.0).collect();
        assert_eq!(order.len(), 31);
        order.sort_unstable();
        assert_eq!(order, (1..=31).collect::<Vec<_>>());
    }

    #[test]
    fn attached_pages_follow_their_owner() {
        let mut g = PageGraph::new();
        let root = g.add_root(PageId(1)).unwrap();
        let left = g.add_child(root, PageId(2)).unwrap();
        let right = g.add_child(root, PageId(3)).unwrap();
        g.attach(root, &[PageId(10), PageId(11)]);
        g.attach(left, &[PageId(20)]);
        g.attach(right, &[PageId(30)]);
        let order: Vec<u64> = g.veb_order().iter().map(|p| p.0).collect();
        // Height 2: top = 1 (root + its attachments), bottoms in order.
        assert_eq!(order, vec![1, 10, 11, 2, 20, 3, 30]);
    }

    #[test]
    fn dag_pages_are_recorded_once() {
        let mut g = PageGraph::new();
        let root = g.add_root(PageId(1)).unwrap();
        let left = g.add_child(root, PageId(2)).unwrap();
        assert!(g.add_child(root, PageId(2)).is_none(), "duplicate child");
        assert!(g.add_root(PageId(1)).is_none(), "duplicate root");
        g.attach(left, &[PageId(5)]);
        g.attach(root, &[PageId(5)]); // shared chain: first owner wins
        assert_eq!(g.page_count(), 3);
        let order: Vec<u64> = g.veb_order().iter().map(|p| p.0).collect();
        assert_eq!(order, vec![1, 2, 5]);
    }

    #[test]
    fn multiple_roots_lay_out_in_insertion_order() {
        let mut g = PageGraph::new();
        let a = g.add_root(PageId(7)).unwrap();
        g.add_child(a, PageId(8)).unwrap();
        let b = g.add_root(PageId(20)).unwrap();
        g.add_child(b, PageId(21)).unwrap();
        let order: Vec<u64> = g.veb_order().iter().map(|p| p.0).collect();
        assert_eq!(order, vec![7, 8, 20, 21]);
    }

    #[test]
    fn relocation_maps_null_to_null_and_errors_on_unknown() {
        let dst = PageStore::in_memory(256);
        let reloc = Relocation::alloc_in(&[PageId(42), PageId(7)], &dst).unwrap();
        assert_eq!(reloc.len(), 2);
        assert!(!reloc.is_empty());
        assert_eq!(reloc.get(NULL_PAGE).unwrap(), NULL_PAGE);
        assert_eq!(reloc.get(PageId(42)).unwrap(), PageId(0));
        assert_eq!(reloc.get(PageId(7)).unwrap(), PageId(1));
        let err = reloc.get(PageId(99)).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
    }

    #[test]
    fn fresh_store_allocates_the_order_sequentially() {
        let dst = PageStore::in_memory(256);
        let order: Vec<PageId> = (0..5).map(|i| PageId(100 + i)).collect();
        let reloc = Relocation::alloc_in(&order, &dst).unwrap();
        for (i, &old) in order.iter().enumerate() {
            assert_eq!(reloc.get(old).unwrap(), PageId(i as u64));
        }
    }

    #[test]
    fn chain_copy_preserves_records_and_order() {
        let src = PageStore::in_memory(256);
        let pts: Vec<Point> =
            (0..35).map(|i| Point::new(i, 1000 - i, i as u64)).collect();
        let list = BlockList::build(&src, &pts).unwrap();
        let pages = chain_pages(&src, list.head()).unwrap();
        assert_eq!(pages.len(), 4); // ceil(35 / 10)
        assert_eq!(pages, list.block_pages(&src).unwrap());

        let dst = PageStore::in_memory(256);
        // Exercise free-list reuse in the destination.
        let scratch: Vec<PageId> = (0..3).map(|_| dst.alloc().unwrap()).collect();
        for id in scratch {
            dst.free(id).unwrap();
        }
        let reloc = Relocation::alloc_in(&pages, &dst).unwrap();
        copy_chain(&src, &dst, list.head(), &reloc).unwrap();
        let moved = list.with_head(reloc.get(list.head()).unwrap());
        assert_eq!(moved.len(), list.len());
        assert_eq!(moved.read_all(&dst).unwrap(), pts);
        assert_eq!(
            moved.block_pages(&dst).unwrap(),
            pages.iter().map(|&p| reloc.get(p).unwrap()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_chain_is_a_no_op() {
        let src = PageStore::in_memory(256);
        let dst = PageStore::in_memory(256);
        assert!(chain_pages(&src, NULL_PAGE).unwrap().is_empty());
        let reloc = Relocation::alloc_in(&[], &dst).unwrap();
        copy_chain(&src, &dst, NULL_PAGE, &reloc).unwrap();
        assert_eq!(dst.live_pages(), 0);
    }

    #[test]
    fn quiesce_check_rejects_dirty_durable_store() {
        let (store, _) = PageStore::in_memory_durable(64);
        ensure_quiesced(&store).unwrap(); // empty dirty table
        let id = store.alloc().unwrap();
        store.write(id, b"x").unwrap();
        let err = ensure_quiesced(&store).unwrap_err();
        assert!(matches!(err, StoreError::DirtyStore { dirty_pages: 1 }), "{err}");
        store.sync().unwrap();
        // Committed but not checkpointed: still only in WAL + dirty table.
        assert!(ensure_quiesced(&store).is_err());
        store.checkpoint().unwrap();
        ensure_quiesced(&store).unwrap();
    }

    #[test]
    fn quiesce_check_passes_plain_stores() {
        let store = PageStore::in_memory(64);
        let id = store.alloc().unwrap();
        store.write(id, b"x").unwrap();
        ensure_quiesced(&store).unwrap();
    }
}
