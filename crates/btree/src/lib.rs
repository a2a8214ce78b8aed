//! # pc-btree — external B+-tree
//!
//! A disk-resident B+-tree over the [`pc_pagestore::PageStore`] substrate:
//! the structure whose 1-d optimality — `O(log_B n + t/B)` range queries,
//! `O(log_B n)` worst-case updates, `O(n/B)` space — sets the bar that path
//! caching matches in two dimensions (§1): baseline E1, and the served
//! ordered map.
//!
//! Each node is one block of the block codec ([`pc_pagestore::layout`]) of
//! `(key, value)` rows, so `B` follows the data node by node — ~2 700
//! entries a 4 KiB leaf for the benchmark's keys and ranks — and an outlier
//! widens only the nodes on its path. Nodes split and merge by encoded
//! bytes; every non-root node keeps the 127 rows half a page holds at
//! 64-bit columns. [`BTree::census`] reports the `B` a tree has.
//!
//! ```
//! use pc_btree::BTree;
//! use pc_pagestore::PageStore;
//!
//! let store = PageStore::in_memory(4096);
//! let mut tree = BTree::new(&store).unwrap();
//! for k in 0..1000 {
//!     tree.insert(&store, k, (k * k) as u64).unwrap();
//! }
//! tree.insert(&store, i64::MIN, u64::MAX).unwrap();
//! assert_eq!(tree.get(&store, &31).unwrap(), Some(961));
//! assert_eq!(tree.range(&store, &i64::MIN, &1).unwrap(), [(i64::MIN, u64::MAX), (0, 0), (1, 1)]);
//! assert_eq!(tree.census(&store).unwrap().pages(), store.live_pages());
//! ```

mod bulk;
mod node;
mod tree;

pub use tree::{BTree, Census};
