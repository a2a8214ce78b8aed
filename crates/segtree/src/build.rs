//! Pagination of the in-memory segment tree into skeletal pages (Figure 2)
//! and construction of cover-lists and path caches.
//!
//! ## On-page layout
//!
//! ```text
//! page:   [count: u16][record * count]
//! record: [key: i64]                // route left iff q <= key
//!         [left_page: u64][left_slot: u16][right_page: u64][right_slot: u16]
//!         [cover_full: BlockList (16 B)]
//!         [shared: Slice (12 B)]      // leaf cache / naive cover
//!         [above: Slice (12 B)]       // entry segment cache
//! slice:  [page: u64][skip: u16][len: u16]
//! ```
//!
//! A stab descends by its query point alone: a record's key is the last
//! point of its left subtree's slabs ([`MemTree::route_key`]), so the tree's
//! own pages are its whole search path.
//!
//! A page may hold several disjoint subtrees (packed to capacity); a node
//! whose parent lives in another page is an *entry node* and carries a
//! *segment cache*: the underfull cover-lists of the path portion inside
//! the parent page. A query reads one segment cache per page crossing and
//! the leaf's in-page cache at the bottom — `O(log_B n)` cache slices
//! whose union is exactly the underfull content of the whole path (the
//! paper's optimization (2): many small caches instead of one long one).
//! Child references are absolute [`NodeRef`]s ([`NodeRef::NULL`] below a
//! leaf), and a record is a [`SkelRecord`] written by [`write_page`].
//!
//! ## The stream: why small lists are packed
//!
//! The paper's space accounting (`O((n/B) log n)` blocks) assumes lists
//! are *densely blocked* — a one-interval cover-list must not burn a whole
//! disk block, or the `Σ ceil(len_i/B)` bound degenerates to one block per
//! allocation node. Every short list therefore lies in one *shared region*
//! per skeletal page, and the regions, concatenated in page order, are one
//! block list of the block codec: the tree's *stream*. A record addresses
//! its run of the stream as a [`Slice`]: the block it starts in, the
//! records to skip there, and its length. In the naive variant the regions
//! hold the underfull cover-lists; in the cached variant underfull
//! cover-lists are not stored at all (their entries live in the caches) and
//! the regions hold the per-leaf in-page and per-entry segment caches.
//! Reading a slice costs one block read per block it spans — every block
//! full of answers except the boundaries. A slice holds at most one page's
//! path of underfull lists, fewer than `B` intervals a node; a length or
//! skip past `u16::MAX` fails the build ([`StoreError::CountOverflow`]).

use pc_pagestore::codec::{PageReader, PageWriter};
use pc_pagestore::layout::{min_records, BlockList};
use pc_pagestore::skeleton::{write_page, NodeRef, SkelRecord};
use pc_pagestore::{Interval, PageId, PageStore, Record, Result, StoreError, NULL_PAGE};

use crate::mem::{MemTree, NONE};

/// A run of the stream: `len` intervals from the `skip`-th of the block on
/// `page` on, through the blocks chained after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice {
    /// The block the run starts in ([`NULL_PAGE`] when empty).
    pub page: PageId,
    /// Intervals of that block before the run.
    pub skip: u16,
    /// Intervals in the run.
    pub len: u16,
}

impl Record for Slice {
    const ENCODED_LEN: usize = 8 + 2 + 2;

    fn encode(&self, w: &mut PageWriter<'_>) -> Result<()> {
        w.put_u64(self.page.0)?;
        w.put_u16(self.skip)?;
        w.put_u16(self.len)
    }

    fn decode(r: &mut PageReader<'_>) -> Result<Self> {
        Ok(Slice { page: PageId(r.get_u64()?), skip: r.get_u16()?, len: r.get_u16()? })
    }
}

/// `count` as a slice field, or the typed error of one past `u16::MAX`.
fn slice_field(count: usize) -> Result<u16> {
    u16::try_from(count).map_err(|_| StoreError::CountOverflow { count, max: u16::MAX.into() })
}

/// A fully decoded node record.
#[derive(Debug, Clone, Copy)]
pub struct NodeRecord {
    /// Route left iff the query point is `<= key`.
    pub key: i64,
    /// Left child.
    pub left: NodeRef,
    /// Right child.
    pub right: NodeRef,
    /// This node's cover-list when it holds at least one full block;
    /// empty otherwise.
    pub cover_full: BlockList<Interval>,
    /// The underfull cover-list (naive variant) or the leaf's in-page cache
    /// (cached variant).
    pub shared: Slice,
    /// Entry nodes only: the underfull cover-lists of the path segment
    /// inside the parent page (cached variant).
    pub above: Slice,
}

impl SkelRecord for NodeRecord {
    const HEADER: usize = 2;
    const LEN: usize = 8 + 10 + 10 + 16 + 2 * Slice::ENCODED_LEN;

    fn decode(r: &mut PageReader<'_>) -> Result<NodeRecord> {
        Ok(NodeRecord {
            key: r.get_i64()?,
            left: NodeRef::decode(r)?,
            right: NodeRef::decode(r)?,
            cover_full: BlockList::decode(r)?,
            shared: Slice::decode(r)?,
            above: Slice::decode(r)?,
        })
    }

    fn encode(&self, w: &mut PageWriter<'_>) -> Result<()> {
        w.put_i64(self.key)?;
        self.left.encode(w)?;
        self.right.encode(w)?;
        self.cover_full.encode(w)?;
        self.shared.encode(w)?;
        self.above.encode(w)
    }

    fn children(&self) -> [NodeRef; 2] {
        [self.left, self.right]
    }
}

/// `B`: the fewest intervals a block of the block codec holds, at 64-bit
/// columns (169 at 4 KiB, 19 at 512 B; more the narrower they are). A
/// cover-list of at least this many is blocked on its own; a shorter one,
/// and every cache, lies in the stream.
pub fn block_capacity(page_size: usize) -> usize {
    min_records::<Interval>(page_size)
}

/// Builds the external tree and returns the page of its binary root (slot
/// 0). With `cached = false` no caches are written (the naive §2
/// structure); with `cached = true` both above-path and in-page caches are
/// materialized.
pub fn build_external(store: &PageStore, intervals: &[Interval], cached: bool) -> Result<PageId> {
    let mem = MemTree::build(intervals);

    // Assign nodes to pages. The binary tree has Θ(n) nodes, so pages must
    // be packed to capacity: each page pulls as many pending subtree roots
    // as fit (BFS order within each subtree), and a subtree's overflow
    // frontier goes back to the pending queue. Pages therefore hold
    // several disjoint subtrees; every node whose parent lies elsewhere is
    // an entry node.
    let cap = NodeRecord::fit(store.page_size());
    let mut node_loc: Vec<(usize, u16)> = vec![(usize::MAX, 0); mem.nodes.len()];
    let mut pages: Vec<Vec<usize>> = Vec::new(); // arena indices per page, slot order
    let mut page_roots = std::collections::VecDeque::new();
    page_roots.push_back(0usize);
    while !page_roots.is_empty() {
        let page_idx = pages.len();
        let mut members = Vec::new();
        'fill: while members.len() < cap {
            let Some(root) = page_roots.pop_front() else { break };
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(root);
            while let Some(ni) = queue.pop_front() {
                if members.len() == cap {
                    page_roots.push_back(ni);
                    page_roots.extend(queue.drain(..));
                    break 'fill;
                }
                node_loc[ni] = (page_idx, members.len() as u16);
                members.push(ni);
                let node = &mem.nodes[ni];
                if node.left != NONE {
                    queue.push_back(node.left);
                    queue.push_back(node.right);
                }
            }
        }
        pages.push(members);
    }

    // Allocate page ids up front so child references can be absolute.
    let page_ids: Vec<PageId> = pages.iter().map(|_| store.alloc()).collect::<Result<_>>()?;

    let cap_b = block_capacity(store.page_size());
    // Full (>= one block) cover-lists get their own blocked list; short
    // ones are packed into the page's shared region (naive variant only —
    // the cached variant serves them from caches and drops the originals).
    let mut cover_full: Vec<BlockList<Interval>> =
        vec![BlockList::empty(); mem.nodes.len()];
    // (off, len) into the owning page's shared region.
    let mut shared_slice: Vec<(u32, u32)> = vec![(0, 0); mem.nodes.len()];
    let mut shared: Vec<Vec<Interval>> = vec![Vec::new(); pages.len()];
    for (ni, node) in mem.nodes.iter().enumerate() {
        if node.cover.len() >= cap_b {
            cover_full[ni] = BlockList::build(store, &node.cover)?;
        } else if !node.cover.is_empty() && !cached {
            let region = &mut shared[node_loc[ni].0];
            shared_slice[ni] = (region.len() as u32, node.cover.len() as u32);
            region.extend(node.cover.iter().copied());
        }
    }

    // Caches: per-leaf in-page slices plus per-entry above slices, all in
    // the owning page's shared region.
    let mut above_slice: Vec<(u32, u32)> = vec![(0, 0); mem.nodes.len()];
    if cached {
        build_caches(&mem, &node_loc, cap_b, &mut above_slice, &mut shared, &mut shared_slice);
    }

    // The regions in page order are the stream; a region-relative slice
    // becomes the block it starts in and its offset there.
    let mut region_start = Vec::with_capacity(pages.len());
    let mut stream = Vec::with_capacity(shared.iter().map(Vec::len).sum());
    for region in shared {
        region_start.push(stream.len());
        stream.extend(region);
    }
    let (_, blocks) = BlockList::build_blocks(store, &stream)?;
    let block_start: Vec<usize> = blocks
        .iter()
        .scan(0, |at, &(_, count)| Some(std::mem::replace(at, *at + count)))
        .collect();
    let slice = |ni: usize, (off, len): (u32, u32)| -> Result<Slice> {
        if len == 0 {
            return Ok(Slice { page: NULL_PAGE, skip: 0, len: 0 });
        }
        let at = region_start[node_loc[ni].0] + off as usize;
        let b = block_start.partition_point(|&start| start <= at) - 1;
        let (skip, len) = (slice_field(at - block_start[b])?, slice_field(len as usize)?);
        Ok(Slice { page: blocks[b].0, skip, len })
    };

    let node_ref = |ni: usize| match ni {
        NONE => NodeRef::NULL,
        _ => NodeRef { page: page_ids[node_loc[ni].0], slot: node_loc[ni].1 },
    };
    for (members, &id) in pages.iter().zip(&page_ids) {
        let records: Vec<NodeRecord> = members
            .iter()
            .map(|&ni| {
                let node = &mem.nodes[ni];
                Ok(NodeRecord {
                    key: if node.is_leaf() { 0 } else { mem.route_key(node.split) },
                    left: node_ref(node.left),
                    right: node_ref(node.right),
                    cover_full: cover_full[ni],
                    shared: slice(ni, shared_slice[ni])?,
                    above: slice(ni, above_slice[ni])?,
                })
            })
            .collect::<Result<_>>()?;
        write_page(store, id, |_| Ok(()), &records, &[])?;
    }

    Ok(page_ids[0])
}

/// DFS computing, for every entry node, the underfull cover-list entries
/// strictly above it (its *above-cache*) and, for every binary leaf, the
/// underfull entries along its in-page path. Both are appended to the
/// owning page's shared region.
fn build_caches(
    mem: &MemTree,
    node_loc: &[(usize, u16)],
    cap_b: usize,
    above_slice: &mut [(u32, u32)],
    shared: &mut [Vec<Interval>],
    shared_slice: &mut [(u32, u32)],
) {
    // Iterative DFS; each frame remembers how much of `path` to keep on
    // exit and where the current page's in-page segment starts.
    struct Frame {
        node: usize,
        parent: usize,
        mark: usize,
        inpage_start: usize,
        visited: bool,
    }
    let mut path: Vec<Interval> = Vec::new();
    let mut stack =
        vec![Frame { node: 0, parent: NONE, mark: 0, inpage_start: 0, visited: false }];
    while let Some(frame) = stack.pop() {
        if frame.visited {
            path.truncate(frame.mark);
            continue;
        }
        let node = &mem.nodes[frame.node];
        let (page_idx, _slot) = node_loc[frame.node];
        let mut inpage_start = frame.inpage_start;
        let is_entry = frame.parent != NONE && node_loc[frame.parent].0 != page_idx;
        if is_entry {
            // The parent page's path segment telescopes into this entry's
            // segment cache; deeper segments are handled by deeper entries.
            let segment = &path[inpage_start..];
            if !segment.is_empty() {
                let region = &mut shared[page_idx];
                above_slice[frame.node] = (region.len() as u32, segment.len() as u32);
                region.extend_from_slice(segment);
            }
            inpage_start = path.len();
        }
        let mark = path.len();
        let len = node.cover.len();
        if len > 0 && len < cap_b {
            path.extend(node.cover.iter().copied());
        }
        if node.is_leaf() {
            let entries = &path[inpage_start..];
            if !entries.is_empty() {
                let region = &mut shared[page_idx];
                shared_slice[frame.node] = (region.len() as u32, entries.len() as u32);
                region.extend_from_slice(entries);
            }
            path.truncate(mark);
            continue;
        }
        // Post-visit marker restores `path`, then children.
        stack.push(Frame { node: frame.node, parent: frame.parent, mark, inpage_start, visited: true });
        stack.push(Frame { node: node.right, parent: frame.node, mark: 0, inpage_start, visited: false });
        stack.push(Frame { node: node.left, parent: frame.node, mark: 0, inpage_start, visited: false });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_geometry() {
        // 512-byte page: (512 - 2) / 68 = 7 records, height 3 (7 nodes).
        assert_eq!(NodeRecord::LEN, 68);
        assert_eq!(NodeRecord::fit(512), 7);
        // 4096-byte page: 60 records.
        assert_eq!(NodeRecord::fit(4096), 60);
        // `B`: full-width intervals a block holds.
        assert_eq!(block_capacity(512), 19);
        assert_eq!(block_capacity(4096), 169);
    }

    /// A cover-list of `B` intervals counts as full: it is one block even
    /// when every field takes all 64 bits, and one more is two.
    #[test]
    fn a_full_cover_list_is_one_block() {
        for page in [512, 4096] {
            let store = PageStore::in_memory(page);
            let b = block_capacity(page);
            let wide: Vec<Interval> = (0..=b)
                .map(|i| match i % 2 {
                    0 => Interval::new(i64::MIN, i64::MIN, 0),
                    _ => Interval::new(i64::MAX, i64::MAX, u64::MAX),
                })
                .collect();
            let blocks = |len| BlockList::build_blocks(&store, &wide[..len]).unwrap().1.len();
            assert_eq!((blocks(b), blocks(b + 1)), (1, 2), "{page}-byte pages, B = {b}");
        }
    }

    #[test]
    fn build_produces_reachable_root() {
        let store = PageStore::in_memory(512);
        let intervals: Vec<Interval> =
            (0..50).map(|i| Interval::new(i, i + 5, i as u64)).collect();
        let root = build_external(&store, &intervals, true).unwrap();
        let page = store.read(root).unwrap();
        let rec = NodeRecord::at(&page, 0).unwrap();
        // Root of a 50-interval tree is internal: children exist.
        assert!(!rec.left.page.is_null());
        assert!(!rec.right.page.is_null());
    }

    /// A slice's length and skip are `u16`s: one past is a typed error,
    /// not a wrapped length.
    #[test]
    fn a_slice_field_past_u16_is_a_typed_error() {
        assert_eq!(slice_field(usize::from(u16::MAX)).unwrap(), u16::MAX);
        let err = slice_field(usize::from(u16::MAX) + 1).unwrap_err();
        assert!(matches!(err, StoreError::CountOverflow { count: 65_536, max: 65_535 }), "{err}");
    }
}
