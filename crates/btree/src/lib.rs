//! # pc-btree — external B+-tree
//!
//! A disk-resident B+-tree over the [`pc_pagestore::PageStore`] substrate.
//! In the paper's framing (§1) this is the structure whose 1-dimensional
//! optimality — `O(log_B n + t/B)` range queries, `O(log_B n)` worst-case
//! updates, `O(n/B)` space — sets the bar that path caching matches in two
//! dimensions: baseline E1, and the segment tree's endpoint → rank map.
//!
//! Internal nodes hold separator keys and child pointers; entries live in
//! doubly-linked leaves. A tree stores its `i64` keys and `u64` values at
//! the widths of one [`pc_pagestore::Frame`] (key in `a`, value in `id`),
//! the narrowest holding its entries, so `B` = [`leaf_capacity`] follows the
//! data: 582 a 4 KiB leaf for 4-byte keys and 3-byte values, 254 at full
//! width. An insert the frame cannot hold *widens* the tree — gathers the
//! entries, frees every page and bulk-builds them under the wider frame,
//! `O(n/B)` I/Os at most seven times a field — which the check, comparing
//! widths, decides without a read.
//!
//! ```
//! use pc_btree::BTree;
//! use pc_pagestore::{Frame, PageStore};
//!
//! let store = PageStore::in_memory(4096);
//! let mut tree = BTree::new(&store).unwrap();
//! for k in 0..1000 {
//!     tree.insert(&store, k, (k * k) as u64).unwrap();
//! }
//! assert_eq!(tree.frame(), Frame::new(2, 1, 3));
//! assert_eq!(tree.get(&store, &31).unwrap(), Some(961));
//! assert_eq!(tree.range(&store, &10, &15).unwrap().len(), 6);
//! ```

mod bulk;
mod node;
mod tree;

pub use node::{internal_capacity, leaf_capacity};
pub use tree::BTree;
