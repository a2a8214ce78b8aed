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
//! binary tree is blocked into skeletal pages of height `h ≈ log₂ B`
//! (Figure 2). For each **bottom page** `P` we store one *above-path
//! cache*: the concatenated underfull cover-lists of all binary nodes from
//! the root to `P`'s subtree root (this path is shared by every leaf in
//! `P`, so there are only `O(n/B)` such caches of `O(log n)` blocks each —
//! optimization (1) of §2). For the residual in-page path we store a
//! per-binary-leaf *in-page cache* of the `< h` underfull in-page lists
//! (optimization (2): the query reads `O(1)` small caches instead of
//! `log n` lists). Space is `O((n/B)·log n)` blocks for cover lists and
//! above-path caches, plus an in-page-cache term that is `O(n/B)` blocks on
//! non-adversarial inputs (worst case `O(n)` when many intervals align
//! exactly with page subtree slabs — see DESIGN.md).
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
pub use ext::{CachedSegmentTree, NaiveSegmentTree, QueryProfile, SegTreeHandle};
