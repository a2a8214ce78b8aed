//! # pc-btree — external B+-tree
//!
//! A disk-resident B+-tree over the [`pc_pagestore::PageStore`] substrate.
//! In the paper's framing (§1) this is the structure whose 1-dimensional
//! optimality — `O(log_B n + t/B)` range queries, `O(log_B n)` worst-case
//! updates, `O(n/B)` space — sets the bar that path caching matches in two
//! dimensions. It serves two roles in the reproduction:
//!
//! 1. **Baseline E1**: empirical validation of the 1-d bounds.
//! 2. **Substrate**: the index crates use it as an ordered map (e.g. the
//!    dynamic PST maps x-division boundaries to super-node pages).
//!
//! ## Structure
//!
//! Classic B+-tree: internal nodes hold separator keys and child pointers;
//! all entries live in doubly-linked leaves, enabling forward range scans
//! and predecessor lookups. Fanout is derived from the page size, so a
//! store with `4096`-byte pages and 24-byte entries yields fanout in the
//! hundreds — `log_B n` is 3 even for a billion keys.
//!
//! ```
//! use pc_btree::BTree;
//! use pc_pagestore::PageStore;
//!
//! let store = PageStore::in_memory(4096);
//! let mut tree: BTree<i64, u64> = BTree::new(&store).unwrap();
//! for k in 0..1000 {
//!     tree.insert(&store, k, (k * k) as u64).unwrap();
//! }
//! assert_eq!(tree.get(&store, &31).unwrap(), Some(961));
//! let hits = tree.range(&store, &10, &15).unwrap();
//! assert_eq!(hits.len(), 6);
//! ```

mod bulk;
mod node;
mod tree;

pub use tree::BTree;
