//! Bottom-up bulk loading from sorted input.
//!
//! Building level by level writes each page exactly once — `O(n/B)` I/Os
//! total versus `O(n log_B n)` for repeated inserts — and produces fully
//! packed pages, which is how the experiments get clean `n/B` space
//! measurements for the baseline.

use pc_pagestore::{Frame, PageId, PageStore, Result, NULL_PAGE};

use crate::node::{empty_leaf, internal_capacity, leaf_capacity, Internal, Leaf, Node};
use crate::tree::{frame_of, BTree};

impl BTree {
    /// Builds a tree from entries that are **sorted by key and distinct**,
    /// stored at the narrowest frame that holds them.
    ///
    /// # Panics
    ///
    /// Debug-asserts the sort/distinctness precondition.
    pub fn bulk_build(store: &PageStore, entries: &[(i64, u64)]) -> Result<Self> {
        // The keys are sorted, so the widest is at an end; the values' OR is
        // as wide as the widest value.
        let values = entries.iter().fold(0, |bits, &(_, v)| bits | v);
        let ends = [entries.first(), entries.last()].into_iter().flatten();
        let frame = ends.fold(frame_of(0, values), |f, &(k, _)| f.union(frame_of(k, 0)));
        Self::build_framed(store, entries, frame)
    }

    /// [`BTree::bulk_build`] at `frame`, which must hold every entry.
    pub(crate) fn build_framed(
        store: &PageStore,
        entries: &[(i64, u64)],
        frame: Frame,
    ) -> Result<Self> {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "bulk_build input must be sorted and distinct"
        );
        if entries.is_empty() {
            let root = store.alloc()?;
            empty_leaf().write(store, root, frame)?;
            return Ok(BTree { root, height: 0, len: 0, frame });
        }
        let leaf_cap = leaf_capacity(store.page_size(), frame);
        let internal_cap = internal_capacity(store.page_size(), frame);
        let min_leaf = leaf_cap / 2;

        // Partition entries into leaf-sized chunks, keeping the tail >= min
        // fill by stealing from the penultimate chunk when necessary.
        let mut cuts = chunk_sizes(entries.len(), leaf_cap, min_leaf.max(1));

        // Write leaves left to right, linking the chain as we go.
        let mut level: Vec<(i64, PageId)> = Vec::with_capacity(cuts.len());
        let ids: Vec<PageId> = cuts.iter().map(|_| store.alloc()).collect::<Result<_>>()?;
        let mut offset = 0usize;
        for (i, size) in cuts.drain(..).enumerate() {
            let chunk = &entries[offset..offset + size];
            offset += size;
            let leaf = Leaf {
                entries: chunk.to_vec(),
                next: ids.get(i + 1).copied().unwrap_or(NULL_PAGE),
                prev: if i == 0 { NULL_PAGE } else { ids[i - 1] },
            };
            Node::Leaf(leaf).write(store, ids[i], frame)?;
            level.push((chunk[0].0, ids[i]));
        }

        // Build internal levels until a single node remains.
        let mut height = 0u32;
        let min_children = internal_cap / 2 + 1;
        while level.len() > 1 {
            height += 1;
            let mut cuts = chunk_sizes(level.len(), internal_cap + 1, min_children);
            let mut next_level: Vec<(i64, PageId)> = Vec::with_capacity(cuts.len());
            let mut offset = 0usize;
            for size in cuts.drain(..) {
                let group = &level[offset..offset + size];
                offset += size;
                let id = store.alloc()?;
                let node = Internal {
                    keys: group[1..].iter().map(|&(k, _)| k).collect(),
                    children: group.iter().map(|&(_, id)| id).collect(),
                };
                Node::Internal(node).write(store, id, frame)?;
                next_level.push((group[0].0, id));
            }
            level = next_level;
        }

        Ok(BTree { root: level[0].1, height, len: entries.len() as u64, frame })
    }
}

/// Splits `total` items into chunks of at most `cap`, each at least `min`
/// (except when `total < min`, which yields a single short chunk — the
/// root-only case).
fn chunk_sizes(total: usize, cap: usize, min: usize) -> Vec<usize> {
    debug_assert!(min <= cap);
    if total <= cap {
        return vec![total];
    }
    let mut sizes = Vec::with_capacity(total / cap + 2);
    let mut remaining = total;
    while remaining > cap {
        // Don't leave a too-small tail: cede part of this chunk if needed.
        let take = if remaining - cap < min { remaining - min } else { cap };
        sizes.push(take);
        remaining -= take;
    }
    sizes.push(remaining);
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_pagestore::PageStore;

    #[test]
    fn chunk_sizes_respects_bounds() {
        for total in 1..200 {
            for cap in 4..20 {
                let min = cap / 2;
                let sizes = chunk_sizes(total, cap, min.max(1));
                assert_eq!(sizes.iter().sum::<usize>(), total);
                assert!(sizes.iter().all(|&s| s <= cap), "total={total} cap={cap}");
                if total >= min {
                    assert!(
                        sizes.iter().all(|&s| s >= min.max(1)),
                        "total={total} cap={cap} sizes={sizes:?}"
                    );
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
    }

    #[test]
    fn bulk_build_empty_and_tiny() {
        let store = PageStore::in_memory(256);
        let t = BTree::bulk_build(&store, &[]).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.frame(), Frame::default());
        let t = BTree::bulk_build(&store, &[(5i64, 50u64)]).unwrap();
        assert_eq!(t.get(&store, &5).unwrap(), Some(50));
        assert_eq!(t.height(), 0);
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
        // Keys and values of two, five and eight bytes: `B` is the leaf
        // capacity at the frame the entries need, and a build fills its
        // leaves to it.
        let frames = [Frame::new(2, 1, 2), Frame::new(5, 1, 5), Frame::new(8, 1, 8)];
        for (shift, frame) in [0, 20, 50].into_iter().zip(frames) {
            let store = PageStore::in_memory(256);
            let entries: Vec<(i64, u64)> =
                (-5000..5000i64).map(|k| (k << shift, ((k + 5000) as u64) << shift)).collect();
            let t = BTree::bulk_build(&store, &entries).unwrap();
            assert_eq!(t.frame(), frame);
            let leaves = 10_000u64.div_ceil(leaf_capacity(256, frame) as u64);
            let internal = leaves.div_ceil(internal_capacity(256, frame) as u64);
            assert!(store.live_pages() <= leaves + internal + 2, "at {frame}");
            assert_eq!(t.scan_all(&store).unwrap(), entries);
        }
    }
}
