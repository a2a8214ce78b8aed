//! Construction of the external interval tree.
//!
//! ## On-page layout
//!
//! ```text
//! skeletal page:   [count: u16][record * count]          (64-byte records)
//! internal record: [tag=0][boundary: i64]
//!                  [left_page: u64][left_slot: u16]
//!                  [right_page: u64][right_slot: u16]
//!                  [bundle: u64][L head: u64][R head: u64][padding]
//! leaf record:     [tag=1][bundle: u64][padding]
//! mini leaf record: [tag=2][bundle: u64][mini: SegTreeHandle (36 B)][padding]
//! ```
//!
//! A record is 64 bytes, so a page of `2^k` bytes holds `2^(k-6) − 1` of
//! them — 63 at 4 KiB, 7 at 512 B — and BFS-fill makes every page one
//! complete subtree of `k − 6` levels wherever the tree below its root is
//! that deep. A node so has at most `k − 7` strict ancestors in its page
//! (5 at 4 KiB), which bounds the sources of its bundle. Everything a node
//! owns of at most a block hangs off that one exit bundle (see
//! [`crate::bundle`]): the copies of its in-page ancestors' first blocks
//! and its own intervals, a leaf's run included. More than a block of
//! intervals is, at a boundary node, the two sorted lists `L` and `R`
//! whose heads its record holds, and at a leaf (many intervals sharing
//! few endpoints) a mini segment tree. Which it is follows from the
//! input, not from a setting — and so does the block itself: intervals are
//! stored in the block codec, and `B` (endpoints per run, intervals per
//! block) is the mean fill of the input blocked by `lo`.

use std::collections::VecDeque;

use pc_pagestore::codec::{PageReader, PageWriter};
use pc_pagestore::layout::{cut, fill_blocks, min_records, BlockList};
use pc_pagestore::{Interval, PageId, PageStore, Record, Result, StoreError, NULL_PAGE};
use pc_segtree::{CachedSegmentTree, SegTreeHandle};

use crate::bundle::{Bundle, CacheEntry};

/// Byte size of one node record (a boundary node needs 53, a mini leaf 48).
pub const RECORD_LEN: usize = 64;
/// Byte offset of slot 0 within a page.
pub const PAGE_HEADER: usize = 2;

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
    /// Boundary node.
    Internal {
        /// The boundary value this node owns.
        boundary: i64,
        /// Left child (`boundary` values below).
        left: NodeRef,
        /// Right child.
        right: NodeRef,
        /// The node's exit bundle (null when it has nothing to report).
        bundle: PageId,
        /// Heads of the node's own `L` and `R` when it holds more than a
        /// block of intervals (null otherwise: they lie in the bundle).
        lists: [PageId; 2],
    },
    /// Endpoint-run leaf.
    Leaf {
        /// Index of a run of more than one block of intervals (over at
        /// most `B` endpoints); a shorter run lies flat in the bundle.
        mini: Option<SegTreeHandle>,
        /// The leaf's exit bundle.
        bundle: PageId,
    },
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
            bundle: PageId(r.get_u64()?),
            lists: [PageId(r.get_u64()?), PageId(r.get_u64()?)],
        }),
        1 => Ok(NodeRecord::Leaf { mini: None, bundle: PageId(r.get_u64()?) }),
        2 => Ok(NodeRecord::Leaf {
            bundle: PageId(r.get_u64()?),
            mini: Some(SegTreeHandle::decode(&mut r)?),
        }),
        tag => Err(StoreError::Corrupt(format!("unknown interval-tree node tag {tag}"))),
    }
}

/// Encodes `rec` into `w`, padded to [`RECORD_LEN`].
fn encode_record(w: &mut PageWriter<'_>, rec: &NodeRecord) -> Result<()> {
    let start = w.position();
    match rec {
        NodeRecord::Internal { boundary, left, right, bundle, lists } => {
            w.put_u8(0)?;
            w.put_i64(*boundary)?;
            for child in [left, right] {
                w.put_u64(child.page.0)?;
                w.put_u16(child.slot)?;
            }
            for page in [bundle, &lists[0], &lists[1]] {
                w.put_u64(page.0)?;
            }
        }
        NodeRecord::Leaf { mini, bundle } => {
            w.put_u8(1 + u8::from(mini.is_some()))?;
            w.put_u64(bundle.0)?;
            if let Some(mini) = mini {
                mini.encode(w)?;
            }
        }
    }
    w.skip(RECORD_LEN - (w.position() - start))
}

// ---------------------------------------------------------------------------
// In-memory construction
// ---------------------------------------------------------------------------

/// A node of the boundary BST: `split` is `(boundary, left, right)`, none
/// for an endpoint-run leaf.
struct MemNode {
    split: Option<(i64, usize, usize)>,
    items: Vec<Interval>,
}

/// Builds the boundary BST over runs `[rlo, rhi]`; `boundaries[i]`
/// separates run `i` from run `i + 1`.
fn build_bst(nodes: &mut Vec<MemNode>, boundaries: &[i64], rlo: usize, rhi: usize) -> usize {
    let idx = nodes.len();
    nodes.push(MemNode { split: None, items: Vec::new() });
    if rlo < rhi {
        let mid = (rlo + rhi) / 2;
        let left = build_bst(nodes, boundaries, rlo, mid);
        let right = build_bst(nodes, boundaries, mid + 1, rhi);
        nodes[idx].split = Some((boundaries[mid], left, right));
    }
    idx
}

/// External interval tree for stabbing queries (Theorem 3.5).
pub struct ExternalIntervalTree {
    pub(crate) root_page: PageId,
    n: u64,
    block: usize,
}

/// `B` for a tree over `intervals`: the mean fill of their blocks in `lo`
/// order, and at least the block codec's count at 64-bit columns.
fn block_capacity(page_size: usize, intervals: &[Interval]) -> usize {
    let mut by_lo = intervals.to_vec();
    by_lo.sort_unstable_by_key(|iv| (iv.lo, iv.hi, iv.id));
    let blocks = if by_lo.is_empty() { 1 } else { cut(&by_lo, page_size).len() };
    (by_lo.len() / blocks).max(min_records::<Interval>(page_size))
}

impl ExternalIntervalTree {
    /// Builds the tree over `intervals` in `store`.
    pub fn build(store: &PageStore, intervals: &[Interval]) -> Result<Self> {
        let page_size = store.page_size();
        // Θ(B): endpoints per run, intervals per block.
        let block = block_capacity(page_size, intervals);

        // Distinct endpoints → runs → boundaries.
        let mut endpoints: Vec<i64> = Vec::with_capacity(intervals.len() * 2);
        for iv in intervals {
            endpoints.push(iv.lo);
            endpoints.push(iv.hi);
        }
        endpoints.sort_unstable();
        endpoints.dedup();
        let num_runs = endpoints.len().div_ceil(block).max(1);
        // boundaries[i] = first endpoint of run i + 1
        let boundaries: Vec<i64> =
            (1..num_runs).map(|i| endpoints[i * block]).collect();

        // Boundary BST with runs as leaves.
        let mut nodes = Vec::with_capacity(2 * num_runs);
        build_bst(&mut nodes, &boundaries, 0, num_runs - 1);

        // Assign each interval to the highest node whose boundary it
        // contains; boundary-free intervals sink to their run's leaf.
        for iv in intervals {
            let mut cur = 0usize;
            while let Some((boundary, left, right)) = nodes[cur].split {
                if iv.hi < boundary {
                    cur = left;
                } else if iv.lo > boundary {
                    cur = right;
                } else {
                    break;
                }
            }
            nodes[cur].items.push(*iv);
        }

        // Paginate: BFS-fill to record capacity (see pc-pst's paginate for
        // why capacity-fill beats fixed-height chunking).
        let cap = page_capacity(page_size);
        let mut node_loc: Vec<(usize, u16)> = vec![(usize::MAX, 0); nodes.len()];
        let mut pages: Vec<Vec<usize>> = Vec::new();
        let mut page_roots = VecDeque::from([0usize]);
        while let Some(root) = page_roots.pop_front() {
            let page_idx = pages.len();
            let mut members = Vec::new();
            let mut queue = VecDeque::from([root]);
            while let Some(ni) = queue.pop_front() {
                if members.len() == cap {
                    page_roots.push_back(ni);
                    continue;
                }
                node_loc[ni] = (page_idx, members.len() as u16);
                members.push(ni);
                if let Some((_, left, right)) = nodes[ni].split {
                    queue.extend([left, right]);
                }
            }
            pages.push(members);
        }
        let page_ids: Vec<PageId> =
            pages.iter().map(|_| store.alloc()).collect::<Result<_>>()?;

        // Per boundary node: its intervals as `[L, R]` and, when they are
        // more than a block (in `L` order they do not fit one), the two
        // lists themselves: the heads go into its record, the second blocks
        // are where the copies in its descendants' bundles continue.
        let mut sorted: Vec<[Vec<Interval>; 2]> = Vec::with_capacity(nodes.len());
        let mut heads = vec![[NULL_PAGE; 2]; nodes.len()];
        // Per side, the second block and the first block's count.
        let mut conts = vec![[(NULL_PAGE, 0); 2]; nodes.len()];
        for (ni, node) in nodes.iter().enumerate() {
            let items = if node.split.is_some() { &node.items[..] } else { &[] };
            let (mut l, mut r) = (items.to_vec(), items.to_vec());
            l.sort_unstable_by_key(|iv| (iv.lo, iv.hi, iv.id));
            r.sort_unstable_by_key(|iv| (std::cmp::Reverse(iv.hi), iv.lo, iv.id));
            if fill_blocks(&l, 1, page_size) < l.len() {
                for (side, list) in [&l, &r].into_iter().enumerate() {
                    let (list, blocks) = BlockList::build_blocks(store, list)?;
                    heads[ni][side] = list.head();
                    let second = blocks.get(1).map_or(NULL_PAGE, |&(page, _)| page);
                    conts[ni][side] = (second, blocks[0].1 as u16);
                }
            }
            sorted.push([l, r]);
        }

        // One bundle and record per node. DFS carrying the in-page strict
        // ancestors as (arena idx, whether the path turns right there):
        // children in the same page extend the chain, children in a new
        // page start afresh (bundles are per-page segments).
        let node_ref = |ni: usize| {
            let (p, slot) = node_loc[ni];
            NodeRef { page: page_ids[p], slot }
        };
        let mut records: Vec<Option<NodeRecord>> = vec![None; nodes.len()];
        let mut stack = vec![(0usize, Vec::<(usize, bool)>::new())];
        while let Some((node, chain)) = stack.pop() {
            let mut table = Vec::new();
            let mut anc = [Vec::new(), Vec::new()];
            for &(a, turns_right) in &chain {
                // Queries that turn left at `a` have q < boundary(a) and
                // report a prefix of L(a); the others one of R(a).
                let side = usize::from(turns_right);
                if sorted[a][side].is_empty() {
                    continue;
                }
                let src = table.len() as u8;
                let (cont, first) = conts[a][side];
                let copied =
                    if cont.is_null() { sorted[a][side].len() } else { usize::from(first) };
                let copies = sorted[a][side][..copied].iter();
                anc[side].extend(copies.map(|&iv| CacheEntry { iv, src }));
                table.push((cont, copied as u16));
            }
            anc[0].sort_unstable_by_key(|e| (e.iv.lo, e.iv.hi, e.iv.id));
            anc[1].sort_unstable_by_key(|e| (std::cmp::Reverse(e.iv.hi), e.iv.lo, e.iv.id));
            // A block's worth of intervals lies flat in the bundle by `lo`,
            // to be filtered up to the first `lo` past the stab: no read
            // beyond the bundle's. More of them are a boundary node's two
            // lists, or a leaf's mini tree.
            let MemNode { split, items } = &nodes[node];
            let own = match split {
                Some(_) if heads[node][0].is_null() => sorted[node][0].clone(),
                None if items.len() <= block => {
                    let mut own = items.clone();
                    own.sort_unstable_by_key(|iv| (iv.lo, iv.hi, iv.id));
                    own
                }
                _ => Vec::new(),
            };
            let bundle = Bundle::write(store, table, anc, &own)?;
            records[node] = Some(match *split {
                None => {
                    let mini = (items.len() > block).then(|| CachedSegmentTree::build(store, items));
                    NodeRecord::Leaf { mini: mini.transpose()?.map(|tree| tree.handle()), bundle }
                }
                Some((boundary, left, right)) => {
                    for (child, turns_right) in [(left, false), (right, true)] {
                        let mut below = Vec::new();
                        if node_loc[child].0 == node_loc[node].0 {
                            below.clone_from(&chain);
                            below.push((node, turns_right));
                        }
                        stack.push((child, below));
                    }
                    let (left, right, lists) = (node_ref(left), node_ref(right), heads[node]);
                    NodeRecord::Internal { boundary, left, right, bundle, lists }
                }
            });
        }

        // Serialize pages.
        let mut buf = vec![0u8; page_size];
        for (members, page_id) in pages.iter().zip(&page_ids) {
            let used = {
                let mut w = PageWriter::new(&mut buf);
                w.put_u16(members.len() as u16)?;
                for &ni in members {
                    let rec = records[ni].as_ref().expect("the DFS visits every node");
                    encode_record(&mut w, rec)?;
                }
                w.position()
            };
            store.write(*page_id, &buf[..used])?;
        }

        Ok(ExternalIntervalTree { root_page: page_ids[0], n: intervals.len() as u64, block })
    }

    /// `B` as the data set it: endpoints per run, intervals per block.
    pub fn block_capacity(&self) -> usize {
        self.block
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
                NodeRecord::Leaf { mini: None, .. } => flat += 1,
                NodeRecord::Leaf { mini: Some(_), .. } => mini += 1,
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
        // One complete subtree per page: 3, 6 and 9 levels' worth.
        assert_eq!([512, 4096, 32768].map(page_capacity), [7, 63, 511]);
        // The largest record, a mini leaf, round-trips in its 64 bytes.
        let mut buf = vec![0u8; PAGE_HEADER + RECORD_LEN];
        let mini = SegTreeHandle::decode(&mut PageReader::new(&[7u8; 36])).unwrap();
        let rec = NodeRecord::Leaf { mini: Some(mini), bundle: PageId(5) };
        encode_record(&mut PageWriter::new(&mut buf[PAGE_HEADER..]), &rec).unwrap();
        assert_eq!(format!("{:?}", decode_record(&buf, 0).unwrap()), format!("{rec:?}"));
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
        let tree = ExternalIntervalTree::build(&store, &intervals).unwrap();
        let pages = store.live_pages() - before;
        let b = tree.block_capacity() as u64;
        let bound = 3 * (n as u64).div_ceil(b) * (64 - b.leading_zeros() as u64 + 4);
        assert!(pages <= bound, "space {pages} pages exceeds O(n/B log B) ~ {bound}");
    }
}
