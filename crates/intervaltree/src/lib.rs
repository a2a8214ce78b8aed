//! # pc-intervaltree — external interval tree with path caching (Thm 3.5)
//!
//! The classic interval tree stores each interval at the highest tree node
//! whose *boundary value* it contains, in two per-node lists: `L` sorted
//! ascending by left endpoint and `R` sorted descending by right endpoint.
//! A stabbing query for `q` walks the boundary BST; at a node with boundary
//! `x`, if `q < x` every stored interval with `lo <= q` matches (it already
//! contains `x >= q`), so a *prefix* of `L` is the node's answer — and
//! symmetrically for `R` when `q > x`. Prefixes of blocked lists cost at
//! most one wasteful I/O each, but there are `O(log n)` nodes on the path:
//! the same pathology as Figure 3.
//!
//! ## Externalization (our instantiation of Theorem 3.5)
//!
//! The paper states the theorem and defers details; we implement:
//!
//! * **Θ(B)-endpoint runs.** Distinct endpoints are grouped into runs of
//!   `B` consecutive values; boundaries between runs drive the BST, so the
//!   tree has `O(n/B)` nodes and `O(log(n/B))` depth. Intervals that cross
//!   no boundary fall entirely inside one run and are stored at its leaf.
//!   **A run is a block when it fits in one:** up to `B` such intervals
//!   lie flat in the leaf's bundle, read once and filtered — below a
//!   block's worth of keys a flat scan beats any tree, and this is every
//!   run of an input whose endpoints are mostly distinct. Only a run
//!   holding more than a block of intervals (many intervals sharing few
//!   endpoints) is indexed by a per-run [`pc_segtree::CachedSegmentTree`]
//!   over its at most `B` endpoints — depth `O(log B)`, `O(1)` skeletal
//!   pages, `O(1 + t_leaf/B)` I/Os. Which of the two a leaf gets is decided
//!   by the number of intervals it holds, nothing else.
//! * **Skeletal paging.** The boundary BST is blocked into pages of 64-byte
//!   records (Figure 2): 63 to a 4 KiB page, one complete six-level
//!   subtree, giving `O(log_B n)` navigation. The pages are the
//!   workspace's one skeletal-page kit, `pc_pagestore::skeleton`: a node
//!   record is a `SkelRecord`, cut and written by `Skeleton`, and every
//!   list a stab reads on is scanned by `pc_pagestore::layout::scan_chain`.
//! * **Path caches, themselves path-cached.** As in Thm 3.2's `log B`
//!   segments, every node `v` carries copies of the first blocks of its
//!   strict ancestors' lists *within its own skeletal page* — `L(a)` where
//!   the path to `v` turns left at `a`, `R(a)` where it turns right. Those
//!   copies and `v`'s own intervals are again sub-block lists read
//!   together, so they share **one exit bundle per node** (`bundle.rs`),
//!   read once where the path leaves the page, at a leaf or on a
//!   `q == boundary` hit (a node holding more than a block keeps `L` and
//!   `R` as lists, their heads in its record). Its table says where each source list goes on:
//!   when a whole first block qualified the query continues at the second
//!   block directly — the X-list continuation rule of §4.1.
//! * **Bundles in the pages a stab reads anyway** (§3's rule once more):
//!   an exit's bundle rides in the tails of both its child pages, a leaf's
//!   in its own (`Skeleton::place`; exits' first, then leaves'). Only one
//!   that does not fit keeps a page of its own, so a benchmark stab reads
//!   two skeletal pages and at most its leaf's bundle: `⌈log_B n⌉ + 1`.
//!
//! Totals: `O(log_B n + t/B)` query I/Os and `O((n/B)·log B)` disk blocks —
//! the Theorem 3.5 bounds.
//!
//! ```
//! use pc_intervaltree::ExternalIntervalTree;
//! use pc_pagestore::{Interval, PageStore};
//!
//! let store = PageStore::in_memory(512);
//! let intervals: Vec<Interval> =
//!     (0..200).map(|i| Interval::new(i, i + 20, i as u64)).collect();
//! let tree = ExternalIntervalTree::build(&store, &intervals).unwrap();
//! assert_eq!(tree.stab(&store, 100).unwrap().len(), 21);
//! ```

mod build;
mod bundle;
mod query;

pub use build::ExternalIntervalTree;
