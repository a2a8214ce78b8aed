//! Bottom-up bulk loading from sorted input.
//!
//! Building level by level writes each page exactly once — `O(n/B)` I/Os
//! total versus `O(n log_B n)` for repeated inserts — and packs every node
//! greedily by its encoded bytes ([`crate::node::pack`]), the last two of a
//! level cut evenly, which is how the experiments get clean `n/B` space
//! measurements for the baseline.

use pc_pagestore::{PageId, PageStore, Result};

use crate::node::{self, Kind, Row};
use crate::tree::BTree;

impl BTree {
    /// Builds a tree from entries that are **sorted by key and distinct**.
    ///
    /// # Panics
    ///
    /// Debug-asserts the sort/distinctness precondition.
    pub fn bulk_build(store: &PageStore, entries: &[(i64, u64)]) -> Result<Self> {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "unsorted or repeated keys");
        // Leaves, then internal levels until a single node remains, each
        // level on fresh pages left to right: `(first key, page)` rows for
        // the one above.
        let level = |kind, rows: &[Row]| -> Result<Vec<Row>> {
            let starts = node::pack(kind, rows, store.page_size());
            let ids: Vec<PageId> = starts.iter().map(|_| store.alloc()).collect::<Result<_>>()?;
            node::write_pieces(store, kind, rows, &starts, &ids)
        };
        let leaves: Vec<Row> = entries.iter().map(|&(k, v)| Row(k, v)).collect();
        let (mut rows, mut height) = (level(Kind::LEAF, &leaves)?, 0);
        while rows.len() > 1 {
            rows = level(Kind::Internal, &rows)?;
            height += 1;
        }
        Ok(BTree { root: PageId(rows[0].1), height, len: entries.len() as u64 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{min_rows, Node};
    use pc_pagestore::PageStore;

    /// The leaves of `tree` in chain order.
    fn leaves(store: &PageStore, tree: &BTree) -> Vec<Node> {
        let mut id = tree.root;
        for _ in 0..tree.height {
            id = PageId(Node::read(store, id).unwrap().rows[0].1);
        }
        let mut out = Vec::new();
        while !id.is_null() {
            let leaf = Node::read(store, id).unwrap();
            let Kind::Leaf { next, .. } = leaf.kind else { panic!("a leaf") };
            out.push(leaf);
            id = next;
        }
        out
    }

    #[test]
    fn chunk_sizes_respects_bounds() {
        // Every leaf a build cuts fits its page and holds at least
        // `min_rows`; all but the last two are full — the next entry would
        // not fit — and the last is at least half a page, like the rest.
        for page_size in [128, 256] {
            let m = min_rows(page_size);
            for total in 1..400i64 {
                let store = PageStore::in_memory(page_size);
                let entries: Vec<(i64, u64)> = (0..total).map(|k| (k * 5, k as u64)).collect();
                let tree = BTree::bulk_build(&store, &entries).unwrap();
                let leaves = leaves(&store, &tree);
                if leaves.len() == 1 {
                    continue;
                }
                let what = format!(
                    "total={total} at {page_size}: {:?}",
                    leaves.iter().map(|l| l.rows.len()).collect::<Vec<_>>()
                );
                for (j, leaf) in leaves.iter().enumerate() {
                    assert!(leaf.fits(page_size) && leaf.rows.len() >= m, "{what}");
                    assert!(!leaf.under(page_size), "{what}");
                    if j + 2 < leaves.len() {
                        let mut grown = leaf.clone();
                        grown.rows.push(leaves[j + 1].rows[0]);
                        assert!(!grown.fits(page_size), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn bulk_build_matches_incremental() {
        let store = PageStore::in_memory(256);
        let entries: Vec<(i64, u64)> = (0..2000).map(|k| (k, (k * 2) as u64)).collect();
        let t = BTree::bulk_build(&store, &entries).unwrap();
        assert_eq!(t.len(), 2000);
        assert_eq!(t.scan_all(&store).unwrap(), entries);
        assert_eq!(t.get(&store, &999).unwrap(), Some(1998));
        assert_eq!(t.range(&store, &100, &110).unwrap().len(), 11);
        let store = PageStore::in_memory(256);
        let mut incremental = BTree::new(&store).unwrap();
        for &(k, v) in &entries {
            incremental.insert(&store, k, v).unwrap();
        }
        assert_eq!(incremental.scan_all(&store).unwrap(), entries);
    }

    #[test]
    fn bulk_build_empty_and_tiny() {
        let store = PageStore::in_memory(256);
        let t = BTree::bulk_build(&store, &[]).unwrap();
        assert!(t.is_empty());
        assert_eq!((t.height(), store.live_pages()), (0, 1));
        let t = BTree::bulk_build(&store, &[(5i64, 50u64)]).unwrap();
        assert_eq!(t.get(&store, &5).unwrap(), Some(50));
        assert_eq!(t.height(), 0);
        let t = BTree::bulk_build(&store, &[(i64::MIN, u64::MAX), (i64::MAX, 0)]).unwrap();
        assert_eq!(t.scan_all(&store).unwrap(), vec![(i64::MIN, u64::MAX), (i64::MAX, 0)]);
    }

    #[test]
    fn bulk_built_tree_accepts_updates() {
        let store = PageStore::in_memory(256);
        let entries: Vec<(i64, u64)> = (0..1000).map(|k| (k * 2, k as u64)).collect();
        let mut t = BTree::bulk_build(&store, &entries).unwrap();
        for k in 0..1000i64 {
            t.insert(&store, k * 2 + 1, 9).unwrap();
        }
        assert_eq!(t.len(), 2000);
        for k in 0..500i64 {
            assert!(t.delete(&store, &(k * 4)).unwrap().is_some());
        }
        assert_eq!(t.len(), 1500);
        let all = t.scan_all(&store).unwrap();
        assert_eq!(all.len(), 1500);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn bulk_build_space_is_near_optimal() {
        // Keys 1, 2⁴⁰ and 2⁵⁰ apart (gaps of 1, 41 and 51 bits) mapped to
        // their ranks: a build fills every leaf to the page, so it takes the
        // fewest leaves the entries' widths allow — a leaf of r rows is
        // r − 1 key gaps and r − 1 rank gaps of 1 bit after a 39-byte
        // header (prefix 9, block 10, columns 2 × 10).
        for shift in [0, 40, 50] {
            let store = PageStore::in_memory(256);
            let entries: Vec<(i64, u64)> =
                (0..10_000u64).map(|k| (i64::MIN.wrapping_add((k << shift) as i64), k)).collect();
            let t = BTree::bulk_build(&store, &entries).unwrap();
            let census = t.census(&store).unwrap();
            let fits = |r: usize| (r - 1) * (shift + 2) <= 8 * (256 - 39);
            let most = (1..).take_while(|&r| fits(r)).last().unwrap() as u64;
            assert_eq!(census.leaves, 10_000u64.div_ceil(most), "gaps of {} bits", shift + 1);
            assert_eq!(census.pages(), store.live_pages());
            assert_eq!(t.scan_all(&store).unwrap(), entries);
        }
    }
}
