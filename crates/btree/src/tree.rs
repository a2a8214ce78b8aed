//! B+-tree operations, in page I/Os against the backing [`PageStore`]:
//! `get` and `pred` `O(log_B n)`, `range` `O(log_B n + t/B)`, `insert` and
//! `delete` `O(log_B n)` worst case, nodes split and merged by their encoded
//! bytes — the 1-d optimal bounds the paper cites (§1) and E1 validates,
//! `B` at least [`node::min_rows`] (127 at 4 KiB) whatever the data.

use pc_obs::ReadClass;
use pc_pagestore::{codec::PageReader, Page, PageId, PageStore, Result, StoreError};

use crate::node::{self, Kind, Node, Row, View};

/// An internal node on a descent: its page, its rows, and the row taken.
type Step = (PageId, Node, usize);

/// The internal pages a query read on its way to a leaf, root first, each
/// with the child taken.
type Path = Vec<(Page, usize)>;

/// A disk-resident B+-tree mapping `i64` keys to `u64` values with map
/// semantics (inserting an existing key replaces its value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BTree {
    pub(crate) root: PageId,
    pub(crate) height: u32,
    pub(crate) len: u64,
}

/// A tree's pages by kind ([`BTree::census`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Census {
    pub leaves: u64,
    pub internal: u64,
    /// Entries per leaf: the `B` of this tree's data.
    pub mean_leaf_fill: f64,
}

impl Census {
    pub fn pages(&self) -> u64 {
        self.leaves + self.internal
    }
}

impl BTree {
    /// Bytes of [`BTree::descriptor`]: root, height, length.
    pub const DESCRIPTOR_LEN: usize = 20;

    /// Creates an empty tree (allocates one leaf page).
    pub fn new(store: &PageStore) -> Result<Self> {
        Self::bulk_build(store, &[])
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

    /// The bytes that reopen this tree: what a structure embedding it
    /// stores, and a served tree's commit descriptor.
    pub fn descriptor(&self) -> [u8; Self::DESCRIPTOR_LEN] {
        let (root, height, len) =
            (self.root.0.to_le_bytes(), self.height.to_le_bytes(), self.len.to_le_bytes());
        [&root[..], &height, &len].concat().try_into().expect("sized to its fields")
    }

    /// The tree a [`BTree::descriptor`] names; reads no page.
    pub fn open(desc: &[u8]) -> Result<Self> {
        if desc.len() != Self::DESCRIPTOR_LEN {
            return Err(StoreError::Corrupt(format!("a {}-byte B-tree descriptor", desc.len())));
        }
        let mut r = PageReader::new(desc);
        Ok(BTree { root: PageId(r.get_u64()?), height: r.get_u32()?, len: r.get_u64()? })
    }

    /// The pages by kind, read through the internal nodes only.
    pub fn census(&self, store: &PageStore) -> Result<Census> {
        let (mut level, mut internal) = (vec![self.root], 0);
        for _ in 0..self.height {
            internal += level.len() as u64;
            let mut below = Vec::new();
            for id in level {
                below.extend(Node::read(store, id)?.rows.iter().map(|row| PageId(row.1)));
            }
            level = below;
        }
        let leaves = level.len() as u64;
        Ok(Census { leaves, internal, mean_leaf_fill: self.len as f64 / leaves as f64 })
    }

    /// The leaf below `page`, read in place, each internal page on the way
    /// pushed on `path` with the child `pick` takes: internal pages are
    /// skeletal reads, the leaf a read of class `leaf` — a node read where a
    /// range scans it, navigation where a lookup ends in it.
    fn down(
        store: &PageStore,
        path: &mut Path,
        mut page: Page,
        pick: impl Fn(&View) -> (usize, u64),
        leaf: ReadClass,
    ) -> Result<Page> {
        loop {
            let view = View::parse(&page)?;
            if view.kind != Kind::Internal {
                pc_obs::record_read(leaf);
                return Ok(page);
            }
            pc_obs::record_read(ReadClass::Skeletal);
            let (i, child) = pick(&view);
            path.push((std::mem::replace(&mut page, store.read(PageId(child))?), i));
        }
    }

    /// The leaf covering `key` and the path to it.
    fn leaf_page(&self, store: &PageStore, key: i64, leaf: ReadClass) -> Result<(Path, Page)> {
        let mut path = Vec::with_capacity(self.height as usize);
        let page = Self::down(store, &mut path, store.read(self.root)?, |v| v.route(key), leaf)?;
        Ok((path, page))
    }

    /// The leaf after (`forward`) or before the one `path` leads to, from
    /// the internal pages `path` holds, and `path` to it; `None` past either
    /// end. The leaf is a node read going forward (a range scans it), a
    /// skeletal one going back (a predecessor lookup ends in it).
    fn step(store: &PageStore, path: &mut Path, forward: bool) -> Result<Option<Page>> {
        let leaf = if forward { ReadClass::Node } else { ReadClass::Skeletal };
        while let Some((page, i)) = path.pop() {
            let (view, j) = (View::parse(&page)?, if forward { i + 1 } else { i.wrapping_sub(1) });
            if j < view.rows() {
                let child = PageId(view.value(j));
                path.push((page, j));
                let edge = |v: &View| {
                    let i = if forward { 0 } else { v.rows() - 1 };
                    (i, v.value(i))
                };
                return Self::down(store, path, store.read(child)?, edge, leaf).map(Some);
            }
        }
        Ok(None)
    }

    /// The path to the leaf covering `key` and the leaf, decoded.
    fn descend(&self, store: &PageStore, key: i64) -> Result<(Vec<Step>, PageId, Node)> {
        let (mut path, mut id) = (Vec::with_capacity(self.height as usize), self.root);
        loop {
            let node = Node::read(store, id)?;
            if node.kind != Kind::Internal {
                return Ok((path, id, node));
            }
            let idx = node.child_index(key);
            let parent = std::mem::replace(&mut id, PageId(node.rows[idx].1));
            path.push((parent, node, idx));
        }
    }

    /// Point lookup: the value stored under `key`, if any. `O(log_B n)`.
    pub fn get(&self, store: &PageStore, key: &i64) -> Result<Option<u64>> {
        let _span = pc_obs::span!("btree_get");
        let (_, page) = self.leaf_page(store, *key, ReadClass::Skeletal)?;
        let last = View::parse(&page)?.last_to(*key);
        Ok(last.filter(|&(k, _)| k == *key).map(|(_, v)| v))
    }

    /// Predecessor lookup: the entry with the greatest key `<= key`.
    /// `O(log_B n)` — at most one more descent, from the path in hand, to
    /// the previous leaf.
    pub fn pred(&self, store: &PageStore, key: &i64) -> Result<Option<(i64, u64)>> {
        let _span = pc_obs::span!("btree_pred");
        let (mut path, page) = self.leaf_page(store, *key, ReadClass::Skeletal)?;
        let last = View::parse(&page)?.last_to(*key);
        if last.is_some() {
            return Ok(last);
        }
        match Self::step(store, &mut path, false)? {
            Some(page) => Ok(View::parse(&page)?.last_to(i64::MAX)),
            None => Ok(None),
        }
    }

    /// Range scan over `lo..=hi` in key order: a descent, then the leaves
    /// after it, each reached from the path in hand and decoded in place
    /// until a key passes `hi`.
    pub fn range(&self, store: &PageStore, lo: &i64, hi: &i64) -> Result<Vec<(i64, u64)>> {
        let _span = pc_obs::span!("btree_range");
        let mut out = Vec::new();
        if lo > hi {
            return Ok(out);
        }
        let (mut path, mut page) = self.leaf_page(store, *lo, ReadClass::Node)?;
        pc_obs::set_block_capacity(View::parse(&page)?.rows() as u64);
        let _scan = pc_obs::span!(output: "leaf_scan");
        loop {
            let leaf = View::parse(&page)?;
            let before = out.len();
            let past_hi = !leaf.each(|Row(k, v)| {
                if *lo <= k && k <= *hi {
                    out.push((k, v));
                }
                k <= *hi
            });
            pc_obs::add_items((out.len() - before) as u64);
            if past_hi {
                return Ok(out);
            }
            match Self::step(store, &mut path, true)? {
                Some(next) => page = next,
                None => return Ok(out),
            }
        }
    }

    /// Every entry in key order (testing/diagnostics; `O(n/B)` I/Os).
    pub fn scan_all(&self, store: &PageStore) -> Result<Vec<(i64, u64)>> {
        self.range(store, &i64::MIN, &i64::MAX)
    }

    /// Inserts `key -> value`; returns the previous value if the key was
    /// present. `O(log_B n)` worst case: a descent, splits on the way up.
    pub fn insert(&mut self, store: &PageStore, key: i64, value: u64) -> Result<Option<u64>> {
        let _span = pc_obs::span!("btree_insert");
        let (path, leaf_id, mut leaf) = self.descend(store, key)?;
        let i = leaf.rows.partition_point(|row| row.0 < key);
        let old = match leaf.rows.get_mut(i) {
            Some(Row(k, v)) if *k == key => Some(std::mem::replace(v, value)),
            _ => {
                leaf.rows.insert(i, Row(key, value));
                self.len += 1;
                None
            }
        };
        self.settle(store, path, leaf_id, leaf, false)?;
        Ok(old)
    }

    /// Removes `key`, returning its value if present. `O(log_B n)` worst
    /// case: a descent, merges on the way up.
    pub fn delete(&mut self, store: &PageStore, key: &i64) -> Result<Option<u64>> {
        self.delete_if(store, *key, |_| true)
    }

    /// [`BTree::delete`] of `key` only if its value passes `matches`, which
    /// is asked in the leaf the descent reads: no extra I/O.
    pub fn delete_if(
        &mut self,
        store: &PageStore,
        key: i64,
        matches: impl FnOnce(u64) -> bool,
    ) -> Result<Option<u64>> {
        let _span = pc_obs::span!("btree_delete");
        let (path, leaf_id, mut leaf) = self.descend(store, key)?;
        let i = leaf.rows.partition_point(|row| row.0 < key);
        if leaf.rows.get(i).is_none_or(|&Row(k, v)| k != key || !matches(v)) {
            return Ok(None);
        }
        let removed = leaf.rows.remove(i).1;
        self.len -= 1;
        self.settle(store, path, leaf_id, leaf, true)?;
        Ok(Some(removed))
    }

    /// Writes `node`, changed at `id` at the end of `path`, and the changes
    /// it makes above. A node past its page splits into the pieces it needs
    /// (three for an outlier mid-leaf; a delete's summed gap may widen a
    /// column too); after a delete (`shrank`) one [`Node::under`] settles
    /// with a sibling. Inserts only grow nodes, so a split's halves — each
    /// under half a page once their columns narrow — are left as they are.
    /// A node [`node::write`] moves to a fresh page changes its parent's
    /// row, so the parent is written too: inside an apply session the path
    /// is copied up to the root.
    fn settle(
        &mut self,
        store: &PageStore,
        mut path: Vec<Step>,
        mut id: PageId,
        mut node: Node,
        shrank: bool,
    ) -> Result<()> {
        let page_size = store.page_size();
        while let Some((parent_id, mut parent, idx)) = path.pop() {
            if !node.fits(page_size) {
                let pieces = self.split(store, id, node)?;
                parent.rows[idx].1 = pieces[0].1;
                parent.rows.splice(idx + 1..idx + 1, pieces.into_iter().skip(1));
            } else if !(shrank
                && node.under(page_size)
                && self.fix_underflow(store, &mut parent, idx, id, node.clone())?)
            {
                let at = node::write(store, id, node.kind, &node.rows)?;
                if at == id {
                    return Ok(());
                }
                parent.rows[idx].1 = at.0;
            }
            (id, node) = (parent_id, parent);
        }
        if !node.fits(page_size) {
            // The root split: the tree grows a level.
            let mut rows = self.split(store, id, node)?;
            rows[0].0 = i64::MIN;
            (self.root, self.height) = (store.alloc()?, self.height + 1);
            node::write(store, self.root, Kind::Internal, &rows).map(drop)
        } else if node.kind == Kind::Internal && node.rows.len() == 1 {
            // The root kept a single child: the tree shrinks a level.
            store.free(id)?;
            (self.root, self.height) = (PageId(node.rows[0].1), self.height - 1);
            Ok(())
        } else {
            self.root = node::write(store, id, node.kind, &node.rows)?;
            Ok(())
        }
    }

    /// Cuts `node` into pieces that fit ([`node::pack`]), the first at `id`;
    /// returns the rows the pieces enter in the parent.
    fn split(&self, store: &PageStore, id: PageId, node: Node) -> Result<Vec<Row>> {
        let starts = node::pack(node.kind, &node.rows, store.page_size());
        let more = (1..starts.len()).map(|_| store.alloc());
        let ids: Vec<PageId> = std::iter::once(Ok(id)).chain(more).collect::<Result<_>>()?;
        node::write_pieces(store, node.kind, &node.rows, &starts, &ids)
    }

    /// Settles `node`, child `idx` of `parent` at `id`, with its left
    /// sibling (a leftmost child's right): merges the pair if the union's
    /// encoding fits — the gap across the boundary may widen it — or, for a
    /// node short of `min_rows`, re-cuts it evenly ([`node::balance`]).
    /// Returns whether `parent` changed; if not, the caller writes `node`.
    fn fix_underflow(
        &self,
        store: &PageStore,
        parent: &mut Node,
        idx: usize,
        id: PageId,
        node: Node,
    ) -> Result<bool> {
        let page_size = store.page_size();
        let short = node.rows.len() < node::min_rows(page_size);
        let i = idx.saturating_sub(1); // the pair: rows i and i + 1
        let (left_id, right_id) = (PageId(parent.rows[i].1), PageId(parent.rows[i + 1].1));
        let sibling = Node::read(store, if left_id == id { right_id } else { left_id })?;
        let (mut union, mut right) = if left_id == id { (node, sibling) } else { (sibling, node) };
        // One run: an internal right node's first key is the parent's.
        if right.kind == Kind::Internal {
            right.rows[0].0 = parent.rows[i + 1].0;
        }
        union.rows.append(&mut right.rows);
        if union.fits(page_size) {
            parent.rows[i].1 = node::write(store, left_id, union.kind, &union.rows)?.0;
            parent.rows.remove(i + 1);
            store.free(right_id)?;
            return Ok(true);
        }
        if !short {
            return Ok(false);
        }
        let cut = node::balance(union.kind, &union.rows, page_size)
            .expect("a pair past one page has an even cut");
        let ids = [left_id, right_id];
        let rows = node::write_pieces(store, union.kind, &union.rows, &[0, cut], &ids)?;
        (parent.rows[i].1, parent.rows[i + 1]) = (rows[0].1, rows[1]);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::min_rows;
    use pc_pagestore::PageStore;
    use std::collections::BTreeMap;

    /// Small pages force deep trees: a 128-byte node holds 3 rows at 64-bit
    /// columns and a few hundred of the narrowest, so a few thousand keys
    /// give height >= 2 where values or keys are wide.
    fn small_store() -> PageStore {
        PageStore::in_memory(128)
    }

    /// Every node of `t` against the invariants: each fits its page as
    /// priced, each non-root one holds at least `min_rows`, the keys under
    /// a child lie between its separators, and the leaves, left to right,
    /// hold `want`'s entries.
    fn audit(t: &BTree, store: &PageStore, want: &[(i64, u64)]) {
        let page_size = store.page_size();
        let mut leaves = Vec::new();
        let mut level = vec![(t.root, i64::MIN, None::<i64>)];
        for depth in 0..=t.height {
            let mut below = Vec::new();
            for (id, lo, hi) in level {
                let node = Node::read(store, id).unwrap();
                assert!(node.fits(page_size), "{id:?} past its page");
                // The page holds the bytes `fits` priced, and zeros after.
                let (page, written) =
                    (store.read(id).unwrap(), node::encode(node.kind, &node.rows));
                assert_eq!(written.len(), node.bytes(), "{id:?}");
                assert_eq!(&page[..written.len()], &written[..], "{id:?}");
                assert!(page[written.len()..].iter().all(|&b| b == 0), "{id:?}");
                if id != t.root {
                    assert!(node.rows.len() >= min_rows(page_size), "{id:?} underfull");
                }
                assert_eq!(
                    node.kind == Kind::Internal,
                    depth < t.height,
                    "{id:?} at depth {depth}"
                );
                let keyed = &node.rows[usize::from(node.kind == Kind::Internal)..];
                assert!(keyed.windows(2).all(|w| w[0].0 < w[1].0), "{id:?} unsorted");
                assert!(keyed.iter().all(|&Row(k, _)| lo <= k && hi.is_none_or(|hi| k < hi)));
                match node.kind {
                    Kind::Internal => {
                        for (j, &Row(k, child)) in node.rows.iter().enumerate() {
                            let low = if j == 0 { lo } else { k };
                            let high = node.rows.get(j + 1).map(|r| r.0).or(hi);
                            below.push((PageId(child), low, high));
                        }
                    }
                    Kind::Leaf => leaves.push(node),
                }
            }
            level = below;
        }
        let got: Vec<(i64, u64)> =
            leaves.into_iter().flat_map(|l| l.rows).map(|Row(k, v)| (k, v)).collect();
        assert_eq!(got, want);
        assert_eq!(t.len(), want.len() as u64);
        assert_eq!(t.census(store).unwrap().pages(), store.live_pages(), "a page leaked");
    }

    #[test]
    fn insert_get_roundtrip() {
        // Values spread over u64 (64-bit offsets) keep the leaves small.
        let value = |k: i64| (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let store = small_store();
        let mut t = BTree::new(&store).unwrap();
        for k in 0..3000i64 {
            assert_eq!(t.insert(&store, k * 3, value(k)).unwrap(), None);
        }
        assert_eq!(t.len(), 3000);
        assert!(t.height() >= 2, "tree should be multi-level, got {}", t.height());
        for k in 0..3000i64 {
            assert_eq!(t.get(&store, &(k * 3)).unwrap(), Some(value(k)));
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
        // Every key's predecessor, across every leaf boundary.
        for k in 0..1000i64 {
            assert_eq!(t.pred(&store, &k).unwrap(), Some((k / 10 * 10, (k / 10) as u64)));
        }
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
        let mut oracle = BTreeMap::new();
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
        audit(&t, &store, &oracle.into_iter().collect::<Vec<_>>());
    }

    /// Churn at 128-byte pages mixing outlier keys and values — the ends of
    /// `i64` and of `u64`, and far-off magnitudes — with narrow ones, against
    /// a `BTreeMap`, auditing every node after every op.
    #[test]
    fn churn_with_outliers_keeps_every_node_fitting_and_filled() {
        let store = small_store();
        let mut t = BTree::new(&store).unwrap();
        let mut oracle = BTreeMap::new();
        let mut state = 0x0b7e_e5ee_d0c0_ffeeu64;
        let mut draw = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..2500u64 {
            let (r, s) = (draw(), draw());
            let key = match r % 16 {
                0 => [i64::MIN, i64::MAX, i64::MIN + 1, i64::MAX - 1][(s % 4) as usize],
                1 => s as i64,
                _ => (r % 600) as i64 - 300,
            };
            let value = match s % 12 {
                0 => u64::MAX - r % 3,
                1 => r,
                _ => r % 500,
            };
            if r % 5 < 2 {
                assert_eq!(t.delete(&store, &key).unwrap(), oracle.remove(&key), "step {step}");
            } else {
                assert_eq!(t.insert(&store, key, value).unwrap(), oracle.insert(key, value));
            }
            let want: Vec<(i64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
            audit(&t, &store, &want);
        }
        assert!(t.height() >= 2, "the churn reached {} levels", t.height());
        while let Some((&k, &v)) = oracle.iter().next() {
            assert_eq!(t.delete(&store, &k).unwrap(), Some(v));
            oracle.remove(&k);
        }
        assert_eq!((t.height(), store.live_pages()), (0, 1));
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
        let half_full = t.census(&store).unwrap().mean_leaf_fill as u64 / 2;
        store.reset_stats();
        let hits = t.range(&store, &1000, &1999).unwrap();
        assert_eq!(hits.len(), 1000);
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
        // Splits leave nodes at least half full by bytes: at most twice a
        // bulk build's leaves, plus the internal levels.
        let fresh = PageStore::in_memory(256);
        let entries: Vec<(i64, u64)> = (0..n).map(|k| (k as i64, k)).collect();
        let built = BTree::bulk_build(&fresh, &entries).unwrap().census(&fresh).unwrap();
        let census = t.census(&store).unwrap();
        assert!(census.leaves <= 2 * built.leaves + 1, "{census:?} against {built:?}");
        assert!(store.live_pages() <= 3 * n / built.mean_leaf_fill as u64, "space not O(n/B)");
    }

    /// An outlier widens the nodes on its one path, not the tree: inserts
    /// and deletes at the ends of `i64` and `u64` write a few pages each and
    /// leave every other node as it was.
    #[test]
    fn an_outlier_widens_one_path_not_the_tree() {
        let store = PageStore::in_memory(512);
        let entries: Vec<(i64, u64)> = (0..3000).map(|k| (k * 3 - 4000, k as u64)).collect();
        let mut t = BTree::bulk_build(&store, &entries).unwrap();
        let mut want = entries.clone();
        let ops = [(i64::MIN, Some(9)), (500, Some(u64::MAX)), (i64::MIN, None), (500, None)];
        for (key, value) in ops {
            let i = want.partition_point(|&(k, _)| k < key);
            let before = store.stats();
            match value {
                Some(value) => {
                    let old = match want.get(i).is_some_and(|&(k, _)| k == key) {
                        true => Some(std::mem::replace(&mut want[i].1, value)),
                        false => {
                            want.insert(i, (key, value));
                            None
                        }
                    };
                    assert_eq!(t.insert(&store, key, value).unwrap(), old);
                }
                None => assert_eq!(t.delete(&store, &key).unwrap(), Some(want.remove(i).1)),
            }
            let writes = (store.stats() - before).writes;
            assert!(writes <= 2 * (u64::from(t.height()) + 1) + 2, "{key}: {writes} writes");
            audit(&t, &store, &want);
        }
        assert_eq!(BTree::open(&t.descriptor()).unwrap(), t);
    }

    #[test]
    fn a_descriptor_of_the_wrong_size_is_refused() {
        let store = small_store();
        let t = BTree::new(&store).unwrap();
        let desc = t.descriptor();
        assert_eq!(BTree::open(&desc).unwrap(), t);
        assert!(matches!(BTree::open(&desc[..19]), Err(StoreError::Corrupt(_))));
        assert!(matches!(
            BTree::open(&[desc.as_slice(), &[0]].concat()),
            Err(StoreError::Corrupt(_))
        ));
    }
}
