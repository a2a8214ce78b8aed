//! Construction of the external interval tree.
//!
//! ## On-page layout
//!
//! ```text
//! page:            [count: u16][record * count]          (93-byte records)
//! internal record: [tag=0][boundary: i64]
//!                  [left_page: u64][left_slot: u16]
//!                  [right_page: u64][right_slot: u16]
//!                  [L: BlockList][R: BlockList]
//!                  [ancL: BlockList][ancR: BlockList]
//! leaf record:     [tag=1][mini: SegTreeHandle (36 B)]
//!                  [ancL: BlockList][ancR: BlockList][padding]
//! flat leaf record: [tag=2][run: BlockList]
//!                  [ancL: BlockList][ancR: BlockList][padding]
//! ```
//!
//! A leaf's run is *flat* — one block, read once and filtered — whenever
//! its intervals fit in one block, which is every run of an input whose
//! endpoints are mostly distinct. Only a run holding more than a block of
//! intervals (many intervals sharing few endpoints) gets a mini segment
//! tree. The choice is a property of the input, not a setting.

use pc_pagestore::codec::{PageReader, PageWriter};
use pc_pagestore::layout::BlockList;
use pc_pagestore::{Interval, PageId, PageStore, Record, Result, StoreError};
use pc_segtree::{CachedSegmentTree, SegTreeHandle};

/// Byte size of one node record (internal layout dominates).
pub const RECORD_LEN: usize = 1 + 8 + 10 + 10 + 16 + 16 + 16 + 16;
/// Byte offset of slot 0 within a page.
pub const PAGE_HEADER: usize = 2;

/// A cache entry: a copied interval tagged with the in-page slot of the
/// ancestor list it was copied from, so queries can apply the continuation
/// rule per source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheEntry {
    /// The copied interval.
    pub iv: Interval,
    /// In-page slot of the source node.
    pub src_slot: u16,
}

impl Record for CacheEntry {
    const ENCODED_LEN: usize = Interval::ENCODED_LEN + 2;

    fn encode(&self, w: &mut PageWriter<'_>) -> Result<()> {
        self.iv.encode(w)?;
        w.put_u16(self.src_slot)
    }

    fn decode(r: &mut PageReader<'_>) -> Result<Self> {
        Ok(CacheEntry { iv: Interval::decode(r)?, src_slot: r.get_u16()? })
    }
}

/// Reference to a node: `(page, slot)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRef {
    /// Page holding the record.
    pub page: PageId,
    /// Slot index within the page.
    pub slot: u16,
}

/// A decoded node record.
#[derive(Debug, Clone)]
pub enum NodeRecord {
    /// Boundary node with its interval lists and ancestor caches.
    Internal {
        /// The boundary value this node owns.
        boundary: i64,
        /// Left child (`boundary` values below).
        left: NodeRef,
        /// Right child.
        right: NodeRef,
        /// Node intervals sorted ascending by `lo`.
        l_list: BlockList<Interval>,
        /// Node intervals sorted descending by `hi`.
        r_list: BlockList<Interval>,
        /// Cache over in-page left-direction strict ancestors.
        anc_l: BlockList<CacheEntry>,
        /// Cache over in-page right-direction strict ancestors.
        anc_r: BlockList<CacheEntry>,
    },
    /// Endpoint-run leaf.
    Leaf {
        /// The intervals confined to this run.
        run: LeafRun,
        /// Cache over in-page left-direction strict ancestors.
        anc_l: BlockList<CacheEntry>,
        /// Cache over in-page right-direction strict ancestors.
        anc_r: BlockList<CacheEntry>,
    },
}

/// How a leaf stores the intervals confined to its endpoint run.
#[derive(Debug, Clone, Copy)]
pub enum LeafRun {
    /// At most one block of intervals (possibly none), in input order: a
    /// stab reads the block once and filters it.
    Flat(BlockList<Interval>),
    /// More than one block of intervals over at most `B` endpoints,
    /// indexed by a mini segment tree.
    Mini(SegTreeHandle),
}

/// Number of records per skeletal page.
pub fn page_capacity(page_size: usize) -> usize {
    let cap = (page_size - PAGE_HEADER) / RECORD_LEN;
    assert!(cap >= 3, "page size {page_size} too small for an interval-tree page");
    cap
}

/// Decodes the record at `slot` from raw page bytes.
pub fn decode_record(page: &[u8], slot: u16) -> Result<NodeRecord> {
    let offset = PAGE_HEADER + RECORD_LEN * slot as usize;
    let mut r = PageReader::new(&page[offset..offset + RECORD_LEN]);
    match r.get_u8()? {
        0 => Ok(NodeRecord::Internal {
            boundary: r.get_i64()?,
            left: NodeRef { page: PageId(r.get_u64()?), slot: r.get_u16()? },
            right: NodeRef { page: PageId(r.get_u64()?), slot: r.get_u16()? },
            l_list: BlockList::decode(&mut r)?,
            r_list: BlockList::decode(&mut r)?,
            anc_l: BlockList::decode(&mut r)?,
            anc_r: BlockList::decode(&mut r)?,
        }),
        1 => Ok(NodeRecord::Leaf {
            run: LeafRun::Mini(SegTreeHandle::decode(&mut r)?),
            anc_l: BlockList::decode(&mut r)?,
            anc_r: BlockList::decode(&mut r)?,
        }),
        2 => Ok(NodeRecord::Leaf {
            run: LeafRun::Flat(BlockList::decode(&mut r)?),
            anc_l: BlockList::decode(&mut r)?,
            anc_r: BlockList::decode(&mut r)?,
        }),
        tag => Err(StoreError::Corrupt(format!("unknown interval-tree node tag {tag}"))),
    }
}

/// Encodes `rec` into `w`, padded to [`RECORD_LEN`].
pub fn encode_record(w: &mut PageWriter<'_>, rec: &NodeRecord) -> Result<()> {
    let start = w.position();
    match rec {
        NodeRecord::Internal { boundary, left, right, l_list, r_list, anc_l, anc_r } => {
            w.put_u8(0)?;
            w.put_i64(*boundary)?;
            for child in [left, right] {
                w.put_u64(child.page.0)?;
                w.put_u16(child.slot)?;
            }
            l_list.encode(w)?;
            r_list.encode(w)?;
            anc_l.encode(w)?;
            anc_r.encode(w)?;
        }
        NodeRecord::Leaf { run, anc_l, anc_r } => {
            match run {
                LeafRun::Mini(mini) => {
                    w.put_u8(1)?;
                    mini.encode(w)?;
                }
                LeafRun::Flat(list) => {
                    w.put_u8(2)?;
                    list.encode(w)?;
                }
            }
            anc_l.encode(w)?;
            anc_r.encode(w)?;
        }
    }
    w.skip(RECORD_LEN - (w.position() - start))
}

// ---------------------------------------------------------------------------
// In-memory construction
// ---------------------------------------------------------------------------

enum MemNode {
    Internal { boundary: i64, left: usize, right: usize, items: Vec<Interval> },
    Leaf { items: Vec<Interval> },
}

const NONE: usize = usize::MAX;

/// Builds the boundary BST over runs `[rlo, rhi]`; `boundaries[i]`
/// separates run `i` from run `i + 1`.
fn build_bst(nodes: &mut Vec<MemNode>, boundaries: &[i64], rlo: usize, rhi: usize) -> usize {
    let idx = nodes.len();
    if rlo == rhi {
        nodes.push(MemNode::Leaf { items: Vec::new() });
        return idx;
    }
    let mid = (rlo + rhi) / 2;
    nodes.push(MemNode::Internal {
        boundary: boundaries[mid],
        left: NONE,
        right: NONE,
        items: Vec::new(),
    });
    let left = build_bst(nodes, boundaries, rlo, mid);
    let right = build_bst(nodes, boundaries, mid + 1, rhi);
    if let MemNode::Internal { left: l, right: r, .. } = &mut nodes[idx] {
        *l = left;
        *r = right;
    }
    idx
}

/// External interval tree for stabbing queries (Theorem 3.5).
pub struct ExternalIntervalTree {
    pub(crate) root_page: PageId,
    pub(crate) n: u64,
}

impl ExternalIntervalTree {
    /// Builds the tree over `intervals` in `store`.
    pub fn build(store: &PageStore, intervals: &[Interval]) -> Result<Self> {
        let page_size = store.page_size();
        let run_len = BlockList::<Interval>::capacity(page_size); // Θ(B) endpoints per run

        // Distinct endpoints → runs → boundaries.
        let mut endpoints: Vec<i64> = Vec::with_capacity(intervals.len() * 2);
        for iv in intervals {
            endpoints.push(iv.lo);
            endpoints.push(iv.hi);
        }
        endpoints.sort_unstable();
        endpoints.dedup();
        let num_runs = endpoints.len().div_ceil(run_len).max(1);
        // boundaries[i] = first endpoint of run i + 1
        let boundaries: Vec<i64> =
            (1..num_runs).map(|i| endpoints[i * run_len]).collect();

        // Boundary BST with runs as leaves.
        let mut nodes = Vec::with_capacity(2 * num_runs);
        build_bst(&mut nodes, &boundaries, 0, num_runs - 1);

        // Assign each interval to the highest node whose boundary it
        // contains; boundary-free intervals sink to their run's leaf.
        for iv in intervals {
            let mut cur = 0usize;
            loop {
                match &mut nodes[cur] {
                    MemNode::Internal { boundary, left, right, items } => {
                        if iv.hi < *boundary {
                            cur = *left;
                        } else if iv.lo > *boundary {
                            cur = *right;
                        } else {
                            items.push(*iv);
                            break;
                        }
                    }
                    MemNode::Leaf { items } => {
                        items.push(*iv);
                        break;
                    }
                }
            }
        }

        // Paginate: BFS-fill to record capacity (see pc-pst's paginate for
        // why capacity-fill beats fixed-height chunking).
        let cap = page_capacity(page_size);
        let mut node_loc: Vec<(usize, u16)> = vec![(usize::MAX, 0); nodes.len()];
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
                if let MemNode::Internal { left, right, .. } = &nodes[ni] {
                    queue.push_back(*left);
                    queue.push_back(*right);
                }
            }
            pages.push(members);
        }
        let page_ids: Vec<PageId> =
            pages.iter().map(|_| store.alloc()).collect::<Result<_>>()?;

        // Materialize per-node sorted lists and per-leaf runs.
        let cap = run_len; // BlockList::<Interval>::capacity == run_len
        let mut l_sorted: Vec<Vec<Interval>> = Vec::with_capacity(nodes.len());
        let mut r_sorted: Vec<Vec<Interval>> = Vec::with_capacity(nodes.len());
        let mut runs: Vec<Option<LeafRun>> = Vec::with_capacity(nodes.len());
        for node in &nodes {
            match node {
                MemNode::Internal { items, .. } => {
                    let mut l = items.clone();
                    l.sort_unstable_by_key(|iv| (iv.lo, iv.hi, iv.id));
                    let mut r = items.clone();
                    r.sort_unstable_by_key(|iv| (std::cmp::Reverse(iv.hi), iv.lo, iv.id));
                    l_sorted.push(l);
                    r_sorted.push(r);
                    runs.push(None);
                }
                MemNode::Leaf { items } => {
                    // Below a block's worth of intervals a flat scan beats
                    // any tree: one read instead of the mini tree's four.
                    let run = if items.len() <= cap {
                        LeafRun::Flat(BlockList::build(store, items)?)
                    } else {
                        LeafRun::Mini(CachedSegmentTree::build(store, items)?.handle())
                    };
                    l_sorted.push(Vec::new());
                    r_sorted.push(Vec::new());
                    runs.push(Some(run));
                }
            }
        }

        // Write interval lists.
        let mut l_lists: Vec<BlockList<Interval>> = Vec::with_capacity(nodes.len());
        let mut r_lists: Vec<BlockList<Interval>> = Vec::with_capacity(nodes.len());
        for i in 0..nodes.len() {
            l_lists.push(BlockList::build(store, &l_sorted[i])?);
            r_lists.push(BlockList::build(store, &r_sorted[i])?);
        }

        // Ancestor caches per node: merge first blocks of in-page strict
        // ancestors, split by direction.
        let mut anc_l: Vec<BlockList<CacheEntry>> = vec![BlockList::empty(); nodes.len()];
        let mut anc_r: Vec<BlockList<CacheEntry>> = vec![BlockList::empty(); nodes.len()];
        // DFS carrying the in-page ancestor stack: (node idx, direction
        // taken when descending *from* it: false = left, true = right).
        struct Frame {
            node: usize,
            // in-page ancestor chain as (arena idx, direction to current)
            chain: Vec<(usize, bool)>,
        }
        let mut stack = vec![Frame { node: 0, chain: Vec::new() }];
        while let Some(Frame { node, chain }) = stack.pop() {
            // Build this node's caches from `chain`.
            let mut lefts: Vec<CacheEntry> = Vec::new();
            let mut rights: Vec<CacheEntry> = Vec::new();
            for &(anc, dir) in &chain {
                let src_slot = node_loc[anc].1;
                if !dir {
                    // Path goes left at `anc`: queries reaching this node
                    // have q < boundary(anc); they scan L(anc).
                    for iv in l_sorted[anc].iter().take(cap) {
                        lefts.push(CacheEntry { iv: *iv, src_slot });
                    }
                } else {
                    for iv in r_sorted[anc].iter().take(cap) {
                        rights.push(CacheEntry { iv: *iv, src_slot });
                    }
                }
            }
            lefts.sort_unstable_by_key(|e| (e.iv.lo, e.iv.hi, e.iv.id));
            rights.sort_unstable_by_key(|e| (std::cmp::Reverse(e.iv.hi), e.iv.lo, e.iv.id));
            anc_l[node] = BlockList::build(store, &lefts)?;
            anc_r[node] = BlockList::build(store, &rights)?;

            if let MemNode::Internal { left, right, .. } = &nodes[node] {
                // Children in the same page extend the chain; children in a
                // new page start fresh (caches are per-page segments).
                for (child, dir) in [(*left, false), (*right, true)] {
                    let chain = if node_loc[child].0 == node_loc[node].0 {
                        let mut c = chain.clone();
                        c.push((node, dir));
                        c
                    } else {
                        Vec::new()
                    };
                    stack.push(Frame { node: child, chain });
                }
            }
        }

        // Serialize pages.
        let node_ref = |ni: usize| {
            let (p, slot) = node_loc[ni];
            NodeRef { page: page_ids[p], slot }
        };
        let mut buf = vec![0u8; page_size];
        for (page_idx, members) in pages.iter().enumerate() {
            let used = {
                let mut w = PageWriter::new(&mut buf);
                w.put_u16(members.len() as u16)?;
                for &ni in members {
                    let rec = match &nodes[ni] {
                        MemNode::Internal { boundary, left, right, .. } => NodeRecord::Internal {
                            boundary: *boundary,
                            left: node_ref(*left),
                            right: node_ref(*right),
                            l_list: l_lists[ni],
                            r_list: r_lists[ni],
                            anc_l: anc_l[ni],
                            anc_r: anc_r[ni],
                        },
                        MemNode::Leaf { .. } => NodeRecord::Leaf {
                            run: runs[ni].expect("leaf has a run"),
                            anc_l: anc_l[ni],
                            anc_r: anc_r[ni],
                        },
                    };
                    encode_record(&mut w, &rec)?;
                }
                w.position()
            };
            store.write(page_ids[page_idx], &buf[..used])?;
        }

        Ok(ExternalIntervalTree { root_page: page_ids[0], n: intervals.len() as u64 })
    }

    /// Number of indexed intervals.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True when the tree indexes no intervals.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// Counts the tree's `(flat, mini)` leaves.
#[cfg(test)]
pub(crate) fn leaf_kinds(tree: &ExternalIntervalTree, store: &PageStore) -> (usize, usize) {
    let (mut flat, mut mini) = (0, 0);
    let mut stack = vec![tree.root_page];
    while let Some(pid) = stack.pop() {
        let page = store.read(pid).unwrap();
        let count = PageReader::new(&page).get_u16().unwrap();
        for slot in 0..count {
            match decode_record(&page, slot).unwrap() {
                NodeRecord::Internal { left, right, .. } => {
                    stack.extend([left, right].iter().filter(|c| c.page != pid).map(|c| c.page));
                }
                NodeRecord::Leaf { run: LeafRun::Flat(_), .. } => flat += 1,
                NodeRecord::Leaf { run: LeafRun::Mini(_), .. } => mini += 1,
            }
        }
    }
    (flat, mini)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_geometry() {
        assert_eq!(RECORD_LEN, 93);
        assert_eq!(page_capacity(512), 5);
        assert_eq!(page_capacity(4096), 44);
    }

    #[test]
    fn cache_entry_roundtrip() {
        let mut buf = vec![0u8; CacheEntry::ENCODED_LEN];
        let e = CacheEntry { iv: Interval::new(-3, 9, 77), src_slot: 12 };
        let mut w = PageWriter::new(&mut buf);
        e.encode(&mut w).unwrap();
        let mut r = PageReader::new(&buf);
        assert_eq!(CacheEntry::decode(&mut r).unwrap(), e);
    }

    #[test]
    fn build_empty_and_single() {
        let store = PageStore::in_memory(512);
        let t = ExternalIntervalTree::build(&store, &[]).unwrap();
        assert!(t.is_empty());
        let t = ExternalIntervalTree::build(&store, &[Interval::new(1, 5, 0)]).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn space_is_n_over_b_log_b_shaped() {
        let store = PageStore::in_memory(512);
        let n = 5000usize;
        let mut state = 0xdead_beefu64;
        let intervals: Vec<Interval> = (0..n)
            .map(|id| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let lo = (state % 100_000) as i64;
                (lo, lo + ((state >> 32) % 5_000) as i64, id as u64)
            })
            .map(|(lo, hi, id)| Interval::new(lo, hi, id))
            .collect();
        let before = store.live_pages();
        let _t = ExternalIntervalTree::build(&store, &intervals).unwrap();
        let pages = store.live_pages() - before;
        let b = BlockList::<Interval>::capacity(512) as u64; // 20
        let bound = 3 * (n as u64).div_ceil(b) * (64 - b.leading_zeros() as u64 + 4);
        assert!(pages <= bound, "space {pages} pages exceeds O(n/B log B) ~ {bound}");
    }
}
