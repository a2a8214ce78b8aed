//! B+-tree operations: point lookup, predecessor search, range scan,
//! insert, and delete with full borrow/merge rebalancing.
//!
//! All costs are in page I/Os against the backing [`PageStore`]:
//!
//! * `get`, `pred`: `O(log_B n)`
//! * `range`: `O(log_B n + t/B)`
//! * `insert`, `delete`: `O(log_B n)` worst case, amortised over widenings
//!
//! These are the 1-d optimal bounds the paper cites for B+-trees (§1) and
//! that experiment E1 validates empirically.

use pc_pagestore::codec::PageReader;
use pc_pagestore::{Frame, PageId, PageStore, Point, Result, StoreError};

use crate::node::{internal_capacity, leaf_capacity, Internal, Leaf, Node};

/// Descent result: the internal-node path `(page, node, taken-child)` plus
/// the reached leaf's page and contents.
type DescentPath = (Vec<(PageId, Internal, usize)>, PageId, Leaf);

/// A disk-resident B+-tree mapping `i64` keys to `u64` values with map
/// semantics (inserting an existing key replaces its value), stored at the
/// widths of its [`Frame`]: the key in `a`, the value in `id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BTree {
    pub(crate) root: PageId,
    pub(crate) height: u32,
    pub(crate) len: u64,
    pub(crate) frame: Frame,
}

/// The narrowest frame that holds `key → value`.
pub(crate) fn frame_of(key: i64, value: u64) -> Frame {
    Frame::of(&[Point::new(key, 0, value)])
}

impl BTree {
    /// Bytes of [`BTree::descriptor`]: root, height, length, three widths.
    pub const DESCRIPTOR_LEN: usize = 23;

    /// Creates an empty tree (allocates one leaf page).
    pub fn new(store: &PageStore) -> Result<Self> {
        Self::build_framed(store, &[], Frame::default())
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height in levels above the leaves (0 = root is a leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The widths the tree stores its keys (`a`) and values (`id`) at.
    pub fn frame(&self) -> Frame {
        self.frame
    }

    /// The bytes that reopen this tree: what a structure embedding it
    /// stores, and a served tree's commit descriptor.
    pub fn descriptor(&self) -> [u8; Self::DESCRIPTOR_LEN] {
        let (root, height, len) =
            (self.root.0.to_le_bytes(), self.height.to_le_bytes(), self.len.to_le_bytes());
        let parts: [&[u8]; 4] = [&root, &height, &len, &self.frame.widths()];
        parts.concat().try_into().expect("the descriptor is sized to its fields")
    }

    /// The tree a [`BTree::descriptor`] names; reads no page.
    pub fn open(desc: &[u8]) -> Result<Self> {
        if desc.len() != Self::DESCRIPTOR_LEN {
            return Err(StoreError::Corrupt(format!("a {}-byte B-tree descriptor", desc.len())));
        }
        let mut r = PageReader::new(desc);
        let (root, height, len) = (PageId(r.get_u64()?), r.get_u32()?, r.get_u64()?);
        let widths = r.get_bytes(3)?.try_into().expect("three bytes");
        Ok(BTree { root, height, len, frame: Frame::from_widths(widths)? })
    }

    fn read(&self, store: &PageStore, id: PageId) -> Result<Node> {
        Node::read(store, id, self.frame)
    }

    fn write(&self, store: &PageStore, id: PageId, node: Node) -> Result<()> {
        node.write(store, id, self.frame)
    }

    /// Descends to the leaf covering `key`, returning the path of internal
    /// nodes `(page, node, taken-child-index)` and the leaf `(page, node)`.
    fn descend(&self, store: &PageStore, key: i64) -> Result<DescentPath> {
        let mut path = Vec::with_capacity(self.height as usize);
        let mut cur = self.root;
        loop {
            match self.read(store, cur)? {
                Node::Internal(n) => {
                    let idx = n.child_index(key);
                    let child = n.children[idx];
                    path.push((cur, n, idx));
                    cur = child;
                }
                Node::Leaf(leaf) => return Ok((path, cur, leaf)),
            }
        }
    }

    /// Point lookup: the value stored under `key`, if any. `O(log_B n)`.
    pub fn get(&self, store: &PageStore, key: &i64) -> Result<Option<u64>> {
        let _span = pc_obs::span!("btree_get");
        let (_, _, leaf) = self.descend(store, *key)?;
        let i = leaf.entries.partition_point(|(k, _)| k < key);
        Ok(leaf.entries.get(i).filter(|(k, _)| k == key).map(|&(_, v)| v))
    }

    /// Predecessor lookup: the entry with the greatest key `<= key`.
    /// `O(log_B n)` — at most one extra I/O to hop to the previous leaf.
    pub fn pred(&self, store: &PageStore, key: &i64) -> Result<Option<(i64, u64)>> {
        let _span = pc_obs::span!("btree_pred");
        let (_, _, leaf) = self.descend(store, *key)?;
        let idx = leaf.entries.partition_point(|(k, _)| k <= key);
        if idx > 0 {
            return Ok(Some(leaf.entries[idx - 1]));
        }
        if leaf.prev.is_null() {
            return Ok(None);
        }
        let prev = self.read(store, leaf.prev)?.expect_leaf();
        Ok(prev.entries.last().copied())
    }

    /// Range scan over `lo..=hi` in key order. `O(log_B n + t/B)` I/Os:
    /// one root-to-leaf descent plus a walk along the leaf chain.
    pub fn range(&self, store: &PageStore, lo: &i64, hi: &i64) -> Result<Vec<(i64, u64)>> {
        let _span = pc_obs::span!("btree_range");
        pc_obs::set_block_capacity(leaf_capacity(store.page_size(), self.frame) as u64);
        let mut out = Vec::new();
        if lo > hi {
            return Ok(out);
        }
        let (_, _, mut leaf) = self.descend(store, *lo)?;
        let _scan = pc_obs::span!(output: "leaf_scan");
        loop {
            let before = out.len();
            let mut past_hi = false;
            for &(k, v) in &leaf.entries {
                if k > *hi {
                    past_hi = true;
                    break;
                }
                if k >= *lo {
                    out.push((k, v));
                }
            }
            pc_obs::add_items((out.len() - before) as u64);
            if past_hi || leaf.next.is_null() {
                return Ok(out);
            }
            leaf = self.read(store, leaf.next)?.expect_leaf();
        }
    }

    /// Every entry in key order (testing/diagnostics; `O(n/B)` I/Os).
    pub fn scan_all(&self, store: &PageStore) -> Result<Vec<(i64, u64)>> {
        let _span = pc_obs::span!("btree_scan");
        pc_obs::set_block_capacity(leaf_capacity(store.page_size(), self.frame) as u64);
        // Walk down the leftmost spine, then along the leaf chain.
        let mut cur = self.root;
        loop {
            match self.read(store, cur)? {
                Node::Internal(n) => cur = n.children[0],
                Node::Leaf(first) => {
                    let _scan = pc_obs::span!(output: "leaf_scan");
                    let mut out = Vec::with_capacity(self.len as usize);
                    let mut leaf = first;
                    loop {
                        pc_obs::add_items(leaf.entries.len() as u64);
                        out.extend_from_slice(&leaf.entries);
                        if leaf.next.is_null() {
                            return Ok(out);
                        }
                        leaf = self.read(store, leaf.next)?.expect_leaf();
                    }
                }
            }
        }
    }

    /// Inserts `key -> value`; returns the previous value if the key was
    /// present. `O(log_B n)` worst case (one descent, splits on the way
    /// back up) — unless the frame does not hold the entry, which widens
    /// the tree first ([`crate`] docs).
    pub fn insert(&mut self, store: &PageStore, key: i64, value: u64) -> Result<Option<u64>> {
        let _span = pc_obs::span!("btree_insert");
        if !self.frame.holds(&Point::new(key, 0, value)) {
            return self.widen_with(store, key, value);
        }
        let leaf_cap = leaf_capacity(store.page_size(), self.frame);
        let internal_cap = internal_capacity(store.page_size(), self.frame);

        let (mut path, leaf_id, mut leaf) = self.descend(store, key)?;
        let i = leaf.entries.partition_point(|&(k, _)| k < key);
        if leaf.entries.get(i).is_some_and(|&(k, _)| k == key) {
            let old = std::mem::replace(&mut leaf.entries[i].1, value);
            self.write(store, leaf_id, Node::Leaf(leaf))?;
            return Ok(Some(old));
        }
        leaf.entries.insert(i, (key, value));
        self.len += 1;

        if leaf.entries.len() <= leaf_cap {
            self.write(store, leaf_id, Node::Leaf(leaf))?;
            return Ok(None);
        }

        // Split the leaf.
        let mid = leaf.entries.len() / 2;
        let right_entries = leaf.entries.split_off(mid);
        let mut sep = right_entries[0].0;
        let right_id = store.alloc()?;
        let right = Leaf { entries: right_entries, next: leaf.next, prev: leaf_id };
        self.relink(store, right.next, right_id)?;
        leaf.next = right_id;
        self.write(store, right_id, Node::Leaf(right))?;
        self.write(store, leaf_id, Node::Leaf(leaf))?;

        // Propagate the split upward.
        let mut new_child = right_id;
        while let Some((page, mut node, idx)) = path.pop() {
            node.keys.insert(idx, sep);
            node.children.insert(idx + 1, new_child);
            if node.keys.len() <= internal_cap {
                self.write(store, page, Node::Internal(node))?;
                return Ok(None);
            }
            let mid = node.keys.len() / 2;
            let up = node.keys[mid];
            let right_keys = node.keys.split_off(mid + 1);
            node.keys.pop(); // `up` moves to the parent
            let right_children = node.children.split_off(mid + 1);
            let right_id = store.alloc()?;
            let right = Internal { keys: right_keys, children: right_children };
            self.write(store, right_id, Node::Internal(right))?;
            self.write(store, page, Node::Internal(node))?;
            sep = up;
            new_child = right_id;
        }

        // The root itself split: grow the tree by one level.
        let new_root = store.alloc()?;
        let root = Internal { keys: vec![sep], children: vec![self.root, new_child] };
        self.write(store, new_root, Node::Internal(root))?;
        self.root = new_root;
        self.height += 1;
        Ok(None)
    }

    /// Rebuilds the tree, `key -> value` in it, under `frame ∪
    /// frame_of(key, value)`: gathers the live entries, frees every page
    /// and bulk-builds the lot. `O(n/B)` I/Os, at most seven times per
    /// field over the tree's life.
    fn widen_with(&mut self, store: &PageStore, key: i64, value: u64) -> Result<Option<u64>> {
        let mut entries = self.scan_all(store)?;
        let i = entries.partition_point(|&(k, _)| k < key);
        let old = match entries.get_mut(i) {
            Some((k, v)) if *k == key => Some(std::mem::replace(v, value)),
            _ => {
                entries.insert(i, (key, value));
                None
            }
        };
        self.free_subtree(store, self.root, self.height)?;
        *self = Self::build_framed(store, &entries, self.frame.union(frame_of(key, value)))?;
        Ok(old)
    }

    /// Frees the subtree under `id`, `height` levels above the leaves,
    /// reading its internal nodes only.
    fn free_subtree(&self, store: &PageStore, id: PageId, height: u32) -> Result<()> {
        if height > 0 {
            for child in self.read(store, id)?.expect_internal().children {
                self.free_subtree(store, child, height - 1)?;
            }
        }
        store.free(id)
    }

    /// Removes `key`, returning its value if present. `O(log_B n)` worst
    /// case, with borrow/merge rebalancing so all non-root nodes stay at
    /// least half full. A key the frame does not hold is absent: no read.
    pub fn delete(&mut self, store: &PageStore, key: &i64) -> Result<Option<u64>> {
        let _span = pc_obs::span!("btree_delete");
        if !self.frame.holds(&Point::new(*key, 0, 0)) {
            return Ok(None);
        }
        let (mut path, leaf_id, mut leaf) = self.descend(store, *key)?;
        let i = leaf.entries.partition_point(|(k, _)| k < key);
        if leaf.entries.get(i).is_none_or(|(k, _)| k != key) {
            return Ok(None);
        }
        let removed = leaf.entries.remove(i).1;
        self.len -= 1;
        let mut cur = Node::Leaf(leaf);
        let mut cur_id = leaf_id;
        // Walk up while `cur` underflows, fixing it from a sibling.
        while let Some((parent_id, mut parent, idx)) = path.pop() {
            if cur.fill() >= self.min(store, &cur) {
                break;
            }
            self.fix_underflow(store, &mut parent, idx, cur)?;
            (cur, cur_id) = (Node::Internal(parent), parent_id);
        }
        match cur {
            // The root kept a single child: shrink the tree.
            Node::Internal(root) if path.is_empty() && root.keys.is_empty() => {
                store.free(cur_id)?;
                self.root = root.children[0];
                self.height -= 1;
            }
            node => self.write(store, cur_id, node)?,
        }
        Ok(Some(removed))
    }

    /// The fewest entries (keys, for an internal node) a non-root node of
    /// `node`'s kind holds.
    fn min(&self, store: &PageStore, node: &Node) -> usize {
        match node {
            Node::Leaf(_) => leaf_capacity(store.page_size(), self.frame) / 2,
            Node::Internal(_) => internal_capacity(store.page_size(), self.frame) / 2,
        }
    }

    /// Restores the minimum fill of `cur`, child `idx` of `parent`, with
    /// its left sibling (the right one of a leftmost child): borrows one
    /// entry if the sibling can spare it, else merges the pair's right node
    /// into its left. Writes every touched node but `parent`, which the
    /// caller writes (or fixes in turn).
    fn fix_underflow(
        &self,
        store: &PageStore,
        parent: &mut Internal,
        idx: usize,
        cur: Node,
    ) -> Result<()> {
        let i = idx.saturating_sub(1); // the pair: children i and i + 1
        let (left_id, right_id) = (parent.children[i], parent.children[i + 1]);
        let from_right = i == idx;
        let sibling = self.read(store, if from_right { right_id } else { left_id })?;
        let spare = sibling.fill() > self.min(store, &sibling);
        let pair = if from_right { (cur, sibling) } else { (sibling, cur) };
        match pair {
            (Node::Leaf(mut l), Node::Leaf(mut r)) if spare => {
                match from_right {
                    true => l.entries.push(r.entries.remove(0)),
                    false => r.entries.insert(0, l.entries.pop().expect("a spare entry")),
                }
                parent.keys[i] = r.entries[0].0;
                self.write(store, left_id, Node::Leaf(l))?;
                self.write(store, right_id, Node::Leaf(r))
            }
            (Node::Leaf(mut l), Node::Leaf(mut r)) => {
                l.entries.append(&mut r.entries);
                l.next = r.next;
                self.relink(store, r.next, left_id)?;
                self.write(store, left_id, Node::Leaf(l))?;
                parent.keys.remove(i);
                parent.children.remove(i + 1);
                store.free(right_id)
            }
            (Node::Internal(mut l), Node::Internal(mut r)) if spare => {
                // Rotate through the separator.
                if from_right {
                    l.keys.push(std::mem::replace(&mut parent.keys[i], r.keys.remove(0)));
                    l.children.push(r.children.remove(0));
                } else {
                    let up = l.keys.pop().expect("a spare key");
                    r.keys.insert(0, std::mem::replace(&mut parent.keys[i], up));
                    r.children.insert(0, l.children.pop().expect("a spare child"));
                }
                self.write(store, left_id, Node::Internal(l))?;
                self.write(store, right_id, Node::Internal(r))
            }
            (Node::Internal(mut l), Node::Internal(mut r)) => {
                // The separator between them comes down.
                l.keys.push(parent.keys.remove(i));
                l.keys.append(&mut r.keys);
                l.children.append(&mut r.children);
                parent.children.remove(i + 1);
                self.write(store, left_id, Node::Internal(l))?;
                store.free(right_id)
            }
            _ => Err(StoreError::Corrupt("b+tree siblings of two kinds".into())),
        }
    }

    /// Points the leaf at `id`, if there is one, back at `prev`.
    fn relink(&self, store: &PageStore, id: PageId, prev: PageId) -> Result<()> {
        if id.is_null() {
            return Ok(());
        }
        let mut leaf = self.read(store, id)?.expect_leaf();
        leaf.prev = prev;
        self.write(store, id, Node::Leaf(leaf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_pagestore::PageStore;

    /// Small pages force deep trees: at 128 bytes and the two-byte keys and
    /// values of these tests a leaf holds 27 entries and an internal node
    /// 11 separators, so a few hundred keys already give height >= 2.
    fn small_store() -> PageStore {
        PageStore::in_memory(128)
    }

    #[test]
    fn insert_get_roundtrip() {
        let store = small_store();
        let mut t = BTree::new(&store).unwrap();
        for k in 0..500i64 {
            assert_eq!(t.insert(&store, k * 3, (k * 3) as u64).unwrap(), None);
        }
        assert_eq!(t.len(), 500);
        assert_eq!(t.frame(), Frame::new(2, 1, 2));
        assert!(t.height() >= 2, "tree should be multi-level, got {}", t.height());
        for k in 0..500i64 {
            assert_eq!(t.get(&store, &(k * 3)).unwrap(), Some((k * 3) as u64));
            assert_eq!(t.get(&store, &(k * 3 + 1)).unwrap(), None);
        }
    }

    #[test]
    fn insert_replaces_existing() {
        let store = small_store();
        let mut t = BTree::new(&store).unwrap();
        assert_eq!(t.insert(&store, 7, 1).unwrap(), None);
        assert_eq!(t.insert(&store, 7, 2).unwrap(), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&store, &7).unwrap(), Some(2));
    }

    #[test]
    fn range_scan_matches_filter() {
        let store = small_store();
        let mut t = BTree::new(&store).unwrap();
        for k in (0..1000i64).rev() {
            t.insert(&store, k, k as u64).unwrap();
        }
        let got = t.range(&store, &250, &333).unwrap();
        let want: Vec<(i64, u64)> = (250..=333).map(|k| (k, k as u64)).collect();
        assert_eq!(got, want);
        assert!(t.range(&store, &10, &5).unwrap().is_empty());
        assert_eq!(t.range(&store, &-100, &-1).unwrap(), vec![]);
        assert_eq!(t.range(&store, &990, &2000).unwrap().len(), 10);
    }

    #[test]
    fn pred_finds_greatest_at_most() {
        let store = small_store();
        let mut t = BTree::new(&store).unwrap();
        for k in 0..100i64 {
            t.insert(&store, k * 10, k as u64).unwrap();
        }
        assert_eq!(t.pred(&store, &55).unwrap(), Some((50, 5)));
        assert_eq!(t.pred(&store, &50).unwrap(), Some((50, 5)));
        assert_eq!(t.pred(&store, &0).unwrap(), Some((0, 0)));
        assert_eq!(t.pred(&store, &-1).unwrap(), None);
        assert_eq!(t.pred(&store, &100_000).unwrap(), Some((990, 99)));
    }

    #[test]
    fn delete_all_in_random_order() {
        let store = small_store();
        let mut t = BTree::new(&store).unwrap();
        let n = 600i64;
        for k in 0..n {
            t.insert(&store, k, k as u64).unwrap();
        }
        // Pseudo-random but deterministic deletion order.
        let mut keys: Vec<i64> = (0..n).collect();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for i in (1..keys.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            keys.swap(i, (state % (i as u64 + 1)) as usize);
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.delete(&store, k).unwrap(), Some(*k as u64), "key {k}");
            assert_eq!(t.delete(&store, k).unwrap(), None, "double delete {k}");
            assert_eq!(t.len(), n as u64 - i as u64 - 1);
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 0, "tree should shrink back to a single leaf");
        assert_eq!(t.scan_all(&store).unwrap(), vec![]);
        assert_eq!(store.live_pages(), 1, "every other page is free");
    }

    #[test]
    fn interleaved_insert_delete_stays_consistent() {
        let store = small_store();
        let mut t = BTree::new(&store).unwrap();
        let mut oracle = std::collections::BTreeMap::new();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..3000u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let key = (state % 200) as i64;
            if state.is_multiple_of(3) {
                assert_eq!(t.delete(&store, &key).unwrap(), oracle.remove(&key), "step {step}");
            } else {
                assert_eq!(
                    t.insert(&store, key, step).unwrap(),
                    oracle.insert(key, step),
                    "step {step}"
                );
            }
            assert_eq!(t.len(), oracle.len() as u64);
        }
        let got = t.scan_all(&store).unwrap();
        let want: Vec<(i64, u64)> = oracle.into_iter().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn query_io_is_logarithmic() {
        let store = PageStore::in_memory(256);
        let mut t = BTree::new(&store).unwrap();
        let n = 10_000i64;
        for k in 0..n {
            t.insert(&store, k, k as u64).unwrap();
        }
        // height+1 node reads per point query
        store.reset_stats();
        t.get(&store, &(n / 2)).unwrap();
        let per_query = store.stats().reads;
        assert_eq!(per_query, t.height() as u64 + 1);
        assert!(per_query <= 5, "log_B n should be tiny, got {per_query}");

        // range of t entries: descent + ~t/B leaf pages, at most twice that
        // at half-full leaves
        store.reset_stats();
        let hits = t.range(&store, &1000, &1999).unwrap();
        assert_eq!(hits.len(), 1000);
        let half_full = leaf_capacity(256, t.frame()) as u64 / 2;
        let reads = store.stats().reads;
        assert!(reads <= t.height() as u64 + 1 + 1000u64.div_ceil(half_full) + 1, "{reads}");
    }

    #[test]
    fn space_is_linear() {
        let store = PageStore::in_memory(256);
        let mut t = BTree::new(&store).unwrap();
        let n = 10_000u64;
        for k in 0..n {
            t.insert(&store, k as i64, k).unwrap();
        }
        let pages = store.live_pages();
        let leaf_cap = leaf_capacity(256, t.frame()) as u64;
        // Half-full worst case: <= ~2n/B leaves plus internal overhead.
        assert!(pages <= 3 * n / leaf_cap, "space {pages} pages not O(n/B)");
    }

    #[test]
    fn an_entry_the_frame_cannot_hold_widens_the_tree_once() {
        let store = PageStore::in_memory(512);
        let entries: Vec<(i64, u64)> = (0..3000).map(|k| (k * 3 - 4000, k as u64)).collect();
        let mut t = BTree::bulk_build(&store, &entries).unwrap();
        assert_eq!(t.frame(), Frame::new(2, 1, 2));
        // A key outside the frame is absent: the answer reads nothing.
        store.reset_stats();
        assert_eq!(t.delete(&store, &i64::MIN).unwrap(), None);
        assert_eq!(store.stats().reads, 0);
        // A wide key, then a wide value of a live key: one rebuild each,
        // the tree a fresh build's of its entries at the wide frame.
        let mut want = entries.clone();
        let wide = [Frame::new(8, 1, 2), Frame::new(8, 1, 8)];
        for ((key, value), frame) in [(i64::MIN, 9), (-4000, u64::MAX)].into_iter().zip(wide) {
            let i = want.partition_point(|&(k, _)| k < key);
            let old = match want[i].0 == key {
                true => Some(std::mem::replace(&mut want[i].1, value)),
                false => {
                    want.insert(i, (key, value));
                    None
                }
            };
            assert_eq!(t.insert(&store, key, value).unwrap(), old);
            assert_eq!((t.frame(), t.len()), (frame, want.len() as u64));
            let fresh = PageStore::in_memory(512);
            let rebuilt = BTree::bulk_build(&fresh, &want).unwrap();
            assert_eq!((store.live_pages(), t.height()), (fresh.live_pages(), rebuilt.height()));
        }
        assert_eq!(t.scan_all(&store).unwrap(), want);
        assert_eq!(BTree::open(&t.descriptor()).unwrap(), t);
        // Inserts the frame holds stay on the incremental path.
        let frame = t.frame();
        t.insert(&store, 1, 1).unwrap();
        assert_eq!(t.frame(), frame);
    }

    #[test]
    fn a_descriptor_of_the_wrong_size_or_widths_is_refused() {
        let store = small_store();
        let mut desc = BTree::new(&store).unwrap().descriptor().to_vec();
        assert!(BTree::open(&desc[..22]).is_err());
        desc[20] = 9;
        assert!(matches!(BTree::open(&desc), Err(StoreError::Corrupt(_))));
    }
}
