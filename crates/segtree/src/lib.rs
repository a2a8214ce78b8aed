//! # pc-segtree — external segment trees (paper §2, Theorem 3.4)
//!
//! Segment trees answer *stabbing queries*: given `n` intervals, report all
//! `t` intervals containing a query point `q`. Section 2 of the paper uses
//! them to introduce path caching, and this crate implements both sides of
//! that story:
//!
//! * [`NaiveSegmentTree`] — the skeletal blocking of Figure 2 **without**
//!   caches. Navigation is `O(log_B n)`, but the query must read every
//!   nonempty cover-list on the root-to-leaf path, and underfull lists
//!   (fewer than `B` intervals) each cost a *wasteful* I/O: worst-case
//!   `O(log n + t/B)` I/Os (the Figure 3 pathology).
//! * [`CachedSegmentTree`] — the same structure **with** path caches:
//!   underfull cover-lists along each path are coalesced and blocked, so a
//!   query reads `O(1)` caches plus only full lists: `O(log_B n + t/B)`
//!   I/Os (Theorem 3.4).
//!
//! ## The crucial segment-tree property
//!
//! An interval lives in the cover-list of node `x` iff it contains `x`'s
//! entire cover interval. Hence every interval stored on the root-to-leaf
//! path of `q` *contains `q`* — the query's answer is exactly the union of
//! the path's cover-lists, with no filtering. Reading any path list or
//! cache block yields only answers, so each list/cache costs at most one
//! wasteful (partially-filled) I/O, which the accounting in §2 pays for
//! with useful ones.
//!
//! ## Cache construction (our instantiation of Thm 3.4)
//!
//! The extended abstract defers the space-optimized construction to the
//! full version; we implement the following well-defined variant. The
//! binary tree is packed breadth-first into skeletal pages of 68-byte
//! records (Figure 2; a page may hold several subtrees). A record is a
//! `SkelRecord` of `pc_pagestore::skeleton`, the workspace's one
//! skeletal-page format, written by its `write_page`; the packing is this
//! crate's own, since `skeleton::paginate` puts one subtree on a page. Every *entry
//! node* — one whose parent lies on another page — carries a *segment
//! cache*: the underfull cover-lists of the path portion inside the parent
//! page. Every binary leaf carries an *in-page cache* of the underfull
//! lists on its own page's path portion. A stab reads one segment cache
//! per page crossing and one in-page cache (optimization (2) of §2: `O(1)`
//! small caches a page instead of `log n` lists), plus the full cover-lists
//! (at least `B` intervals) on its path. Every cache, and in the naive
//! variant every underfull list, is a slice of one block list of the block
//! codec, the tree's *stream* (read, like the full cover lists, by
//! `pc_pagestore::layout::scan_chain`), so short lists share blocks and space stays
//! `O((n/B)·log n)` blocks on non-adversarial inputs (worst case `O(n)`
//! when many intervals align exactly with page subtree slabs — see
//! DESIGN.md).
//!
//! ```
//! use pc_pagestore::{Interval, PageStore};
//! use pc_segtree::CachedSegmentTree;
//!
//! let store = PageStore::in_memory(512);
//! let intervals: Vec<Interval> =
//!     (0..100).map(|i| Interval::new(i, i + 10, i as u64)).collect();
//! let tree = CachedSegmentTree::build(&store, &intervals).unwrap();
//! let hits = tree.stab(&store, 55).unwrap();
//! assert_eq!(hits.len(), 11); // intervals [45,55] .. [55,65]
//! ```

mod build;
mod ext;
mod mem;

pub use build::block_capacity;
pub use ext::{CachedSegmentTree, NaiveSegmentTree, SegTreeHandle};
