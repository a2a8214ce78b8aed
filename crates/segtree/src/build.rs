//! Pagination of the in-memory segment tree into skeletal pages (Figure 2)
//! and construction of cover-lists and path caches.
//!
//! ## On-page layout
//!
//! ```text
//! page:   [count: u16][shared_dir: u64][record * count]
//! record: [split: u32]
//!         [left_page: u64][left_slot: u16][right_page: u64][right_slot: u16]
//!         [cover_full: BlockList (16 B)]
//!         [shared_off: u32][shared_len: u32]      // leaf cache / naive cover
//!         [above_off: u32][above_len: u32]        // entry segment cache
//! ```
//!
//! A page may hold several disjoint subtrees (packed to capacity); a node
//! whose parent lives in another page is an *entry node* and carries a
//! *segment cache*: the underfull cover-lists of the path portion inside
//! the parent page. A query reads one segment cache per page crossing and
//! the leaf's in-page cache at the bottom — `O(log_B n)` cache slices
//! whose union is exactly the underfull content of the whole path (the
//! paper's optimization (2): many small caches instead of one long one).
//! Child references are absolute `(page, slot)` pairs; leaves use
//! [`NULL_PAGE`].
//!
//! ## Shared regions: why small lists are packed
//!
//! The paper's space accounting (`O((n/B) log n)` blocks) assumes lists
//! are *densely blocked* — a one-interval cover-list must not burn a whole
//! disk block, or the `Σ ceil(len_i/B)` bound degenerates to one block per
//! allocation node. We therefore pack, per skeletal page, every short list
//! into one contiguous **shared region** (an array of raw pages plus a
//! one-page directory of their ids); records address their slice with
//! `(shared_off, shared_len)`. In the naive variant the region holds the
//! underfull cover-lists; in the cached variant underfull cover-lists are
//! not stored at all (their entries live in the caches) and the region
//! holds the per-leaf in-page caches. Reading a slice costs one directory
//! I/O per page visit plus `ceil(len/B)` block reads — every block full of
//! answers except the boundaries.

use pc_btree::BTree;
use pc_pagestore::codec::PageWriter;
use pc_pagestore::layout::BlockList;
use pc_pagestore::{Interval, PageId, PageStore, Record, Result, NULL_PAGE};

use crate::mem::{MemTree, NONE};

/// Byte size of one node record.
pub const RECORD_LEN: usize = 4 + 10 + 10 + 16 + 4 + 4 + 4 + 4;
/// Byte offset of slot 0 within a page.
pub const PAGE_HEADER: usize = 2 + 8;
/// Interval records per raw shared-region page (no per-page header).
pub fn shared_page_capacity(page_size: usize) -> usize {
    page_size / Interval::ENCODED_LEN
}

/// Reference to a node: `(page, slot)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRef {
    /// Page holding the record.
    pub page: PageId,
    /// Slot index within the page.
    pub slot: u16,
}

/// A fully decoded node record.
#[derive(Debug, Clone, Copy)]
pub struct NodeRecord {
    /// Route left iff target slab `<= split`.
    pub split: u32,
    /// Left child.
    pub left: NodeRef,
    /// Right child.
    pub right: NodeRef,
    /// This node's cover-list when it holds at least one full block;
    /// empty otherwise.
    pub cover_full: BlockList<Interval>,
    /// Slice of the page's shared region: the underfull cover-list (naive
    /// variant) or the leaf's in-page cache (cached variant).
    pub shared_off: u32,
    /// Length of the shared-region slice.
    pub shared_len: u32,
    /// Entry nodes only: slice holding the underfull cover-lists of the
    /// path segment inside the parent page (cached variant).
    pub above_off: u32,
    /// Length of the segment-cache slice.
    pub above_len: u32,
}

/// `B`: the 24-byte intervals a page holds beside a block header (170 at
/// 4 KiB, 20 at 512 B). A cover-list of at least this many is blocked on
/// its own, in the block codec (a block holds at least 169 intervals at
/// 4 KiB, 19 at 512 B, and more the narrower they are); a shorter one, and
/// every cache, lies in a shared region.
pub fn block_capacity(page_size: usize) -> usize {
    (page_size - 10) / Interval::ENCODED_LEN
}

/// Number of records that fit in one skeletal page.
pub fn page_capacity(page_size: usize) -> usize {
    let cap = (page_size - PAGE_HEADER) / RECORD_LEN;
    assert!(cap >= 3, "page size {page_size} too small for a skeletal page");
    cap
}

/// Everything `ext` needs to run queries.
#[derive(Clone, Copy)]
pub struct BuiltTree {
    /// Page holding the binary root (slot 0).
    pub root_page: PageId,
    /// Maps an endpoint value to its index in the sorted endpoint array.
    pub endpoint_tree: BTree,
    /// Number of input intervals.
    pub n: u64,
}

/// Builds the external tree. With `cached = false` no caches are written
/// (the naive §2 structure); with `cached = true` both above-path and
/// in-page caches are materialized.
pub fn build_external(
    store: &PageStore,
    intervals: &[Interval],
    cached: bool,
) -> Result<BuiltTree> {
    let mem = MemTree::build(intervals);
    let entries: Vec<(i64, u64)> =
        mem.endpoints.iter().enumerate().map(|(i, &e)| (e, i as u64)).collect();
    let endpoint_tree = BTree::bulk_build(store, &entries)?;

    // Assign nodes to pages. The binary tree has Θ(n) nodes, so pages must
    // be packed to capacity: each page pulls as many pending subtree roots
    // as fit (BFS order within each subtree), and a subtree's overflow
    // frontier goes back to the pending queue. Pages therefore hold
    // several disjoint subtrees; every node whose parent lies elsewhere is
    // an entry node.
    let cap = page_capacity(store.page_size());
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

    // Write the shared regions and their directories.
    let mut shared_dirs: Vec<PageId> = Vec::with_capacity(pages.len());
    for region in &shared {
        shared_dirs.push(write_shared_region(store, region)?);
    }

    // Serialize pages.
    let mut buf = vec![0u8; store.page_size()];
    for (page_idx, members) in pages.iter().enumerate() {
        let used = {
            let mut w = PageWriter::new(&mut buf);
            w.put_u16(members.len() as u16)?;
            w.put_u64(shared_dirs[page_idx].0)?;
            for &ni in members {
                let node = &mem.nodes[ni];
                w.put_u32(node.split)?;
                for child in [node.left, node.right] {
                    if child == NONE {
                        w.put_u64(NULL_PAGE.0)?;
                        w.put_u16(0)?;
                    } else {
                        let (p, s) = node_loc[child];
                        w.put_u64(page_ids[p].0)?;
                        w.put_u16(s)?;
                    }
                }
                cover_full[ni].encode(&mut w)?;
                w.put_u32(shared_slice[ni].0)?;
                w.put_u32(shared_slice[ni].1)?;
                w.put_u32(above_slice[ni].0)?;
                w.put_u32(above_slice[ni].1)?;
            }
            w.position()
        };
        store.write(page_ids[page_idx], &buf[..used])?;
    }

    Ok(BuiltTree { root_page: page_ids[0], endpoint_tree, n: intervals.len() as u64 })
}

/// Writes `region` as raw full pages plus a directory page
/// (`[count u16][page id u64 *]`); returns the directory id or
/// [`NULL_PAGE`] when empty.
fn write_shared_region(store: &PageStore, region: &[Interval]) -> Result<PageId> {
    if region.is_empty() {
        return Ok(NULL_PAGE);
    }
    let cap = shared_page_capacity(store.page_size());
    let mut ids = Vec::with_capacity(region.len().div_ceil(cap));
    let mut buf = vec![0u8; store.page_size()];
    for chunk in region.chunks(cap) {
        let id = store.alloc()?;
        let used = {
            let mut w = PageWriter::new(&mut buf);
            for iv in chunk {
                iv.encode(&mut w)?;
            }
            w.position()
        };
        store.write(id, &buf[..used])?;
        ids.push(id);
    }
    let dir = store.alloc()?;
    let used = {
        let mut w = PageWriter::new(&mut buf);
        w.put_u16(ids.len() as u16)?;
        for id in &ids {
            w.put_u64(id.0)?;
        }
        w.position()
    };
    store.write(dir, &buf[..used])?;
    Ok(dir)
}

/// Reads the page-id directory of a shared region (a directory read).
pub fn read_shared_dir(store: &PageStore, dir: PageId) -> Result<Vec<PageId>> {
    use pc_pagestore::codec::PageReader;
    pc_obs::record_read(pc_obs::ReadClass::Directory);
    let page = store.read(dir)?;
    let mut r = PageReader::new(&page);
    let count = r.get_u16()? as usize;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(PageId(r.get_u64()?));
    }
    Ok(out)
}

/// Reads `len` intervals starting at entry `off` of a shared region, a
/// cache read a page.
pub fn read_shared_range(
    store: &PageStore,
    dir: &[PageId],
    off: u32,
    len: u32,
) -> Result<Vec<Interval>> {
    use pc_pagestore::codec::PageReader;
    if len == 0 {
        return Ok(Vec::new());
    }
    let cap = shared_page_capacity(store.page_size());
    let first = off as usize / cap;
    let last = (off as usize + len as usize - 1) / cap;
    let mut out = Vec::with_capacity(len as usize);
    for (page_idx, &page_id) in dir.iter().enumerate().take(last + 1).skip(first) {
        pc_obs::record_read(pc_obs::ReadClass::Cache);
        let page = store.read(page_id)?;
        let start_entry = if page_idx == first { off as usize % cap } else { 0 };
        let end_entry =
            ((off as usize + len as usize) - page_idx * cap).min(cap);
        let mut r = PageReader::new(&page);
        r.skip(start_entry * Interval::ENCODED_LEN)?;
        for _ in start_entry..end_entry {
            out.push(Interval::decode(&mut r)?);
        }
    }
    Ok(out)
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

/// Decodes the record at `slot` from raw page bytes.
pub fn decode_record(page: &[u8], slot: u16) -> Result<NodeRecord> {
    use pc_pagestore::codec::PageReader;
    let offset = PAGE_HEADER + RECORD_LEN * slot as usize;
    let mut r = PageReader::new(&page[offset..offset + RECORD_LEN]);
    Ok(NodeRecord {
        split: r.get_u32()?,
        left: NodeRef { page: PageId(r.get_u64()?), slot: r.get_u16()? },
        right: NodeRef { page: PageId(r.get_u64()?), slot: r.get_u16()? },
        cover_full: BlockList::decode(&mut r)?,
        shared_off: r.get_u32()?,
        shared_len: r.get_u32()?,
        above_off: r.get_u32()?,
        above_len: r.get_u32()?,
    })
}

/// Decodes a page's shared-region directory id.
pub fn decode_shared_dir_id(page: &[u8]) -> Result<PageId> {
    use pc_pagestore::codec::PageReader;
    let mut r = PageReader::new(page);
    let _count = r.get_u16()?;
    Ok(PageId(r.get_u64()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_geometry() {
        // 512-byte page: (512 - 26) / 56 = 8 records, height 3 (7 nodes).
        assert_eq!(page_capacity(512), 8);
        // 4096-byte page: 72 records, height 6 (63 nodes).
        assert_eq!(page_capacity(4096), 72);
        assert_eq!(shared_page_capacity(512), 21);
    }

    #[test]
    fn build_produces_reachable_root() {
        let store = PageStore::in_memory(512);
        let intervals: Vec<Interval> =
            (0..50).map(|i| Interval::new(i, i + 5, i as u64)).collect();
        let built = build_external(&store, &intervals, true).unwrap();
        let page = store.read(built.root_page).unwrap();
        let rec = decode_record(&page, 0).unwrap();
        // Root of a 50-interval tree is internal: children exist.
        assert!(!rec.left.page.is_null());
        assert!(!rec.right.page.is_null());
        assert_eq!(built.n, 50);
    }
}
