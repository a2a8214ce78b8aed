//! B+-tree operations: point lookup, predecessor search, range scan,
//! insert, and delete with full borrow/merge rebalancing.
//!
//! All costs are in page I/Os against the backing [`PageStore`]:
//!
//! * `get`, `pred`: `O(log_B n)`
//! * `range`: `O(log_B n + t/B)`
//! * `insert`, `delete`: `O(log_B n)` worst case
//!
//! These are the 1-d optimal bounds the paper cites for B+-trees (§1) and
//! that experiment E1 validates empirically.

use pc_pagestore::{PageId, PageStore, Record, Result};

use crate::node::{empty_leaf, Internal, Leaf, Node};

/// Descent result: the internal-node path `(page, node, taken-child)` plus
/// the reached leaf's page and contents.
type DescentPath<K, V> = (Vec<(PageId, Internal<K>, usize)>, PageId, Leaf<K, V>);

/// A disk-resident B+-tree mapping `K` to `V` with map semantics
/// (inserting an existing key replaces its value).
#[derive(Debug, Clone)]
pub struct BTree<K, V> {
    root: PageId,
    height: u32,
    len: u64,
    _marker: std::marker::PhantomData<fn() -> (K, V)>,
}

impl<K: Record + Ord + Clone, V: Record + Clone> BTree<K, V> {
    /// Creates an empty tree (allocates one leaf page).
    pub fn new(store: &PageStore) -> Result<Self> {
        let root = store.alloc()?;
        empty_leaf::<K, V>().write(store, root)?;
        Ok(BTree { root, height: 0, len: 0, _marker: std::marker::PhantomData })
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

    /// Root page id (exposed for space accounting in experiments).
    pub fn root_page(&self) -> PageId {
        self.root
    }

    fn min_leaf(store: &PageStore) -> usize {
        Node::<K, V>::leaf_capacity(store.page_size()) / 2
    }

    fn min_internal(store: &PageStore) -> usize {
        Node::<K, V>::internal_capacity(store.page_size()) / 2
    }

    /// Descends to the leaf covering `key`, returning the path of internal
    /// nodes `(page, node, taken-child-index)` and the leaf `(page, node)`.
    fn descend(&self, store: &PageStore, key: &K) -> Result<DescentPath<K, V>> {
        let mut path = Vec::with_capacity(self.height as usize);
        let mut cur = self.root;
        loop {
            match Node::<K, V>::read(store, cur)? {
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
    pub fn get(&self, store: &PageStore, key: &K) -> Result<Option<V>> {
        let _span = pc_obs::span!("btree_get");
        let (_, _, leaf) = self.descend(store, key)?;
        let i = leaf.entries.partition_point(|(k, _)| k < key);
        Ok(leaf.entries.get(i).filter(|(k, _)| k == key).map(|(_, v)| v.clone()))
    }

    /// Predecessor lookup: the entry with the greatest key `<= key`.
    /// `O(log_B n)` — at most one extra I/O to hop to the previous leaf.
    pub fn pred(&self, store: &PageStore, key: &K) -> Result<Option<(K, V)>> {
        let _span = pc_obs::span!("btree_pred");
        let (_, _, leaf) = self.descend(store, key)?;
        let idx = leaf.entries.partition_point(|(k, _)| k <= key);
        if idx > 0 {
            return Ok(Some(leaf.entries[idx - 1].clone()));
        }
        if leaf.prev.is_null() {
            return Ok(None);
        }
        let prev = Node::<K, V>::read(store, leaf.prev)?.expect_leaf();
        Ok(prev.entries.last().cloned())
    }

    /// Range scan over `lo..=hi` in key order. `O(log_B n + t/B)` I/Os:
    /// one root-to-leaf descent plus a walk along the leaf chain.
    pub fn range(&self, store: &PageStore, lo: &K, hi: &K) -> Result<Vec<(K, V)>> {
        let _span = pc_obs::span!("btree_range");
        pc_obs::set_block_capacity(Node::<K, V>::leaf_capacity(store.page_size()) as u64);
        let mut out = Vec::new();
        if lo > hi {
            return Ok(out);
        }
        let (_, _, mut leaf) = self.descend(store, lo)?;
        let _scan = pc_obs::span!(output: "leaf_scan");
        loop {
            let before = out.len();
            let mut past_hi = false;
            for (k, v) in &leaf.entries {
                if k > hi {
                    past_hi = true;
                    break;
                }
                if k >= lo {
                    out.push((k.clone(), v.clone()));
                }
            }
            pc_obs::add_items((out.len() - before) as u64);
            if past_hi || leaf.next.is_null() {
                return Ok(out);
            }
            leaf = Node::<K, V>::read(store, leaf.next)?.expect_leaf();
        }
    }

    /// Every entry in key order (testing/diagnostics; `O(n/B)` I/Os).
    pub fn scan_all(&self, store: &PageStore) -> Result<Vec<(K, V)>> {
        let _span = pc_obs::span!("btree_scan");
        pc_obs::set_block_capacity(Node::<K, V>::leaf_capacity(store.page_size()) as u64);
        // Walk down the leftmost spine, then along the leaf chain.
        let mut cur = self.root;
        loop {
            match Node::<K, V>::read(store, cur)? {
                Node::Internal(n) => cur = n.children[0],
                Node::Leaf(first) => {
                    let _scan = pc_obs::span!(output: "leaf_scan");
                    let mut out = Vec::with_capacity(self.len as usize);
                    let mut leaf = first;
                    loop {
                        pc_obs::add_items(leaf.entries.len() as u64);
                        out.extend(leaf.entries.iter().cloned());
                        if leaf.next.is_null() {
                            return Ok(out);
                        }
                        leaf = Node::<K, V>::read(store, leaf.next)?.expect_leaf();
                    }
                }
            }
        }
    }

    /// Inserts `key -> value`; returns the previous value if the key was
    /// present. `O(log_B n)` worst case (one descent, splits on the way
    /// back up).
    pub fn insert(&mut self, store: &PageStore, key: K, value: V) -> Result<Option<V>> {
        let _span = pc_obs::span!("btree_insert");
        let leaf_cap = Node::<K, V>::leaf_capacity(store.page_size());
        let internal_cap = Node::<K, V>::internal_capacity(store.page_size());

        let (mut path, leaf_id, mut leaf) = self.descend(store, &key)?;
        let i = leaf.entries.partition_point(|(k, _)| k < &key);
        if leaf.entries.get(i).is_some_and(|(k, _)| *k == key) {
            let old = std::mem::replace(&mut leaf.entries[i].1, value);
            Node::Leaf(leaf).write(store, leaf_id)?;
            return Ok(Some(old));
        }
        leaf.entries.insert(i, (key, value));
        self.len += 1;

        if leaf.entries.len() <= leaf_cap {
            Node::Leaf(leaf).write(store, leaf_id)?;
            return Ok(None);
        }

        // Split the leaf.
        let mid = leaf.entries.len() / 2;
        let right_entries = leaf.entries.split_off(mid);
        let mut sep = right_entries[0].0.clone();
        let right_id = store.alloc()?;
        let right = Leaf { entries: right_entries, next: leaf.next, prev: leaf_id };
        if !right.next.is_null() {
            let mut after = Node::<K, V>::read(store, right.next)?.expect_leaf();
            after.prev = right_id;
            Node::Leaf(after).write(store, right.next)?;
        }
        leaf.next = right_id;
        Node::Leaf(right).write(store, right_id)?;
        Node::Leaf(leaf).write(store, leaf_id)?;

        // Propagate the split upward.
        let mut new_child = right_id;
        while let Some((page, mut node, idx)) = path.pop() {
            node.keys.insert(idx, sep);
            node.children.insert(idx + 1, new_child);
            if node.keys.len() <= internal_cap {
                Node::<K, V>::Internal(node).write(store, page)?;
                return Ok(None);
            }
            let mid = node.keys.len() / 2;
            let up = node.keys[mid].clone();
            let right_keys = node.keys.split_off(mid + 1);
            node.keys.pop(); // `up` moves to the parent
            let right_children = node.children.split_off(mid + 1);
            let right_id = store.alloc()?;
            Node::<K, V>::Internal(Internal { keys: right_keys, children: right_children })
                .write(store, right_id)?;
            Node::<K, V>::Internal(node).write(store, page)?;
            sep = up;
            new_child = right_id;
        }

        // The root itself split: grow the tree by one level.
        let old_root = self.root;
        let new_root = store.alloc()?;
        Node::<K, V>::Internal(Internal {
            keys: vec![sep],
            children: vec![old_root, new_child],
        })
        .write(store, new_root)?;
        self.root = new_root;
        self.height += 1;
        Ok(None)
    }

    /// Removes `key`, returning its value if present. `O(log_B n)` worst
    /// case, with borrow/merge rebalancing so all non-root nodes stay at
    /// least half full.
    pub fn delete(&mut self, store: &PageStore, key: &K) -> Result<Option<V>> {
        let _span = pc_obs::span!("btree_delete");
        let (mut path, leaf_id, mut leaf) = self.descend(store, key)?;
        let i = leaf.entries.partition_point(|(k, _)| k < key);
        if leaf.entries.get(i).is_none_or(|(k, _)| k != key) {
            return Ok(None);
        }
        let removed = leaf.entries.remove(i).1;
        self.len -= 1;

        let min_leaf = Self::min_leaf(store);
        if path.is_empty() || leaf.entries.len() >= min_leaf {
            Node::Leaf(leaf).write(store, leaf_id)?;
            return Ok(Some(removed));
        }

        // Leaf underflow: borrow from or merge with a sibling.
        let (parent_id, mut parent, idx) = path.pop().expect("non-root leaf has a parent");
        self.fix_leaf_underflow(store, &mut parent, idx, leaf_id, leaf)?;

        // Parent (and ancestors) may now underflow.
        let min_internal = Self::min_internal(store);
        let mut cur_id = parent_id;
        let mut cur = parent;
        loop {
            if path.is_empty() {
                // `cur` is the root.
                if cur.keys.is_empty() {
                    // Root has a single child: shrink the tree.
                    let only = cur.children[0];
                    store.free(cur_id)?;
                    self.root = only;
                    self.height -= 1;
                } else {
                    Node::<K, V>::Internal(cur).write(store, cur_id)?;
                }
                return Ok(Some(removed));
            }
            if cur.keys.len() >= min_internal {
                Node::<K, V>::Internal(cur).write(store, cur_id)?;
                return Ok(Some(removed));
            }
            let (parent_id, mut parent, idx) = path.pop().expect("checked non-empty");
            self.fix_internal_underflow(store, &mut parent, idx, cur_id, cur)?;
            cur_id = parent_id;
            cur = parent;
        }
    }

    /// Restores the minimum-fill invariant for the leaf `cur` (child `idx`
    /// of `parent`), writing every touched node. `parent` is updated in
    /// memory only; the caller writes it (or recurses).
    fn fix_leaf_underflow(
        &mut self,
        store: &PageStore,
        parent: &mut Internal<K>,
        idx: usize,
        cur_id: PageId,
        mut cur: Leaf<K, V>,
    ) -> Result<()> {
        let min_leaf = Self::min_leaf(store);

        // Try borrowing from the left sibling.
        if idx > 0 {
            let left_id = parent.children[idx - 1];
            let mut left = Node::<K, V>::read(store, left_id)?.expect_leaf();
            if left.entries.len() > min_leaf {
                let moved = left.entries.pop().expect("left sibling is nonempty");
                parent.keys[idx - 1] = moved.0.clone();
                cur.entries.insert(0, moved);
                Node::Leaf(left).write(store, left_id)?;
                Node::Leaf(cur).write(store, cur_id)?;
                return Ok(());
            }
            // Merge `cur` into `left`.
            left.entries.append(&mut cur.entries);
            left.next = cur.next;
            if !cur.next.is_null() {
                let mut after = Node::<K, V>::read(store, cur.next)?.expect_leaf();
                after.prev = left_id;
                Node::Leaf(after).write(store, cur.next)?;
            }
            Node::Leaf(left).write(store, left_id)?;
            store.free(cur_id)?;
            parent.keys.remove(idx - 1);
            parent.children.remove(idx);
            return Ok(());
        }

        // Leftmost child: use the right sibling.
        let right_id = parent.children[idx + 1];
        let mut right = Node::<K, V>::read(store, right_id)?.expect_leaf();
        if right.entries.len() > min_leaf {
            let moved = right.entries.remove(0);
            parent.keys[idx] = right.entries[0].0.clone();
            cur.entries.push(moved);
            Node::Leaf(right).write(store, right_id)?;
            Node::Leaf(cur).write(store, cur_id)?;
            return Ok(());
        }
        // Merge `right` into `cur`.
        cur.entries.append(&mut right.entries);
        cur.next = right.next;
        if !right.next.is_null() {
            let mut after = Node::<K, V>::read(store, right.next)?.expect_leaf();
            after.prev = cur_id;
            Node::Leaf(after).write(store, right.next)?;
        }
        Node::Leaf(cur).write(store, cur_id)?;
        store.free(right_id)?;
        parent.keys.remove(idx);
        parent.children.remove(idx + 1);
        Ok(())
    }

    /// Same as [`Self::fix_leaf_underflow`] for an internal child, rotating
    /// or merging through the parent separator.
    fn fix_internal_underflow(
        &mut self,
        store: &PageStore,
        parent: &mut Internal<K>,
        idx: usize,
        cur_id: PageId,
        mut cur: Internal<K>,
    ) -> Result<()> {
        let min_internal = Self::min_internal(store);

        if idx > 0 {
            let left_id = parent.children[idx - 1];
            let mut left = Node::<K, V>::read(store, left_id)?.expect_internal();
            if left.keys.len() > min_internal {
                // Rotate right through the separator.
                let sep = std::mem::replace(
                    &mut parent.keys[idx - 1],
                    left.keys.pop().expect("left sibling has keys"),
                );
                cur.keys.insert(0, sep);
                cur.children.insert(0, left.children.pop().expect("left sibling has children"));
                Node::<K, V>::Internal(left).write(store, left_id)?;
                Node::<K, V>::Internal(cur).write(store, cur_id)?;
                return Ok(());
            }
            // Merge `cur` into `left` with the separator between them.
            left.keys.push(parent.keys.remove(idx - 1));
            left.keys.append(&mut cur.keys);
            left.children.append(&mut cur.children);
            parent.children.remove(idx);
            Node::<K, V>::Internal(left).write(store, left_id)?;
            store.free(cur_id)?;
            return Ok(());
        }

        let right_id = parent.children[idx + 1];
        let mut right = Node::<K, V>::read(store, right_id)?.expect_internal();
        if right.keys.len() > min_internal {
            // Rotate left through the separator.
            let sep = std::mem::replace(&mut parent.keys[idx], right.keys.remove(0));
            cur.keys.push(sep);
            cur.children.push(right.children.remove(0));
            Node::<K, V>::Internal(right).write(store, right_id)?;
            Node::<K, V>::Internal(cur).write(store, cur_id)?;
            return Ok(());
        }
        // Merge `right` into `cur`.
        cur.keys.push(parent.keys.remove(idx));
        cur.keys.append(&mut right.keys);
        cur.children.append(&mut right.children);
        parent.children.remove(idx + 1);
        Node::<K, V>::Internal(cur).write(store, cur_id)?;
        store.free(right_id)?;
        Ok(())
    }

    /// Reconstructs a tree handle from its raw parts, as previously
    /// observed via [`BTree::root_page`], [`BTree::height`] and
    /// [`BTree::len`]. Used by structures that embed a B-tree handle inside
    /// their own pages; the caller must supply values describing a tree
    /// that actually exists in the store.
    pub fn from_parts(root: PageId, height: u32, len: u64) -> Self {
        BTree { root, height, len, _marker: std::marker::PhantomData }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_pagestore::PageStore;

    /// Small pages force deep trees: 256-byte pages hold 15 leaf entries
    /// and 15 separators, so a few hundred keys already give height >= 2.
    fn small_store() -> PageStore {
        PageStore::in_memory(256)
    }

    #[test]
    fn insert_get_roundtrip() {
        let store = small_store();
        let mut t: BTree<i64, u64> = BTree::new(&store).unwrap();
        for k in 0..500i64 {
            assert_eq!(t.insert(&store, k * 3, (k * 3) as u64).unwrap(), None);
        }
        assert_eq!(t.len(), 500);
        assert!(t.height() >= 2, "tree should be multi-level, got {}", t.height());
        for k in 0..500i64 {
            assert_eq!(t.get(&store, &(k * 3)).unwrap(), Some((k * 3) as u64));
            assert_eq!(t.get(&store, &(k * 3 + 1)).unwrap(), None);
        }
    }

    #[test]
    fn insert_replaces_existing() {
        let store = small_store();
        let mut t: BTree<i64, u64> = BTree::new(&store).unwrap();
        assert_eq!(t.insert(&store, 7, 1).unwrap(), None);
        assert_eq!(t.insert(&store, 7, 2).unwrap(), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&store, &7).unwrap(), Some(2));
    }

    #[test]
    fn range_scan_matches_filter() {
        let store = small_store();
        let mut t: BTree<i64, u64> = BTree::new(&store).unwrap();
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
        let mut t: BTree<i64, u64> = BTree::new(&store).unwrap();
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
        let mut t: BTree<i64, u64> = BTree::new(&store).unwrap();
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
    }

    #[test]
    fn interleaved_insert_delete_stays_consistent() {
        let store = small_store();
        let mut t: BTree<i64, u64> = BTree::new(&store).unwrap();
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
        let store = PageStore::in_memory(256); // fanout ~15
        let mut t: BTree<i64, u64> = BTree::new(&store).unwrap();
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

        // range of t entries: descent + ~t/B leaf pages
        store.reset_stats();
        let hits = t.range(&store, &1000, &1999).unwrap();
        assert_eq!(hits.len(), 1000);
        let leaf_cap = 1000 / 14; // min-fill means <= 2x optimal pages
        assert!(
            store.stats().reads <= (t.height() as u64 + 1) + 2 * leaf_cap as u64 + 2,
            "range read {} pages",
            store.stats().reads
        );
    }

    #[test]
    fn space_is_linear() {
        let store = PageStore::in_memory(256);
        let mut t: BTree<i64, u64> = BTree::new(&store).unwrap();
        let n = 10_000u64;
        for k in 0..n {
            t.insert(&store, k as i64, k).unwrap();
        }
        let pages = store.live_pages();
        let leaf_cap = 14u64; // (256 - 19) / 16 = 14
        // Half-full worst case: <= ~2n/B leaves plus internal overhead.
        assert!(pages <= 3 * n / leaf_cap, "space {pages} pages not O(n/B)");
    }
}
