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
//!   are written as a single block that a stab reads once and filters —
//!   below a block's worth of keys a flat scan beats any tree, and this is
//!   every run of an input whose endpoints are mostly distinct. Only a run
//!   holding more than a block of intervals (many intervals sharing few
//!   endpoints) is indexed by a per-run [`pc_segtree::CachedSegmentTree`]
//!   over its at most `B` endpoints — a structure of depth `O(log B)` that
//!   fits `O(1)` skeletal pages, so querying it costs `O(1 + t_leaf/B)`
//!   I/Os. Which of the two a leaf gets is decided by the number of
//!   intervals it holds, nothing else.
//! * **Skeletal paging.** The boundary BST is blocked into pages of height
//!   `h ≈ log B` (Figure 2), giving `O(log_B n)` navigation.
//! * **Path caches (the `log B`-segment trick of Thm 3.2).** Every node `v`
//!   carries two caches built from its strict ancestors *within its own
//!   skeletal page*: `ancL` merges the first blocks of `L(a)` for ancestors
//!   `a` whose path to `v` goes left (sorted ascending by `lo`), `ancR`
//!   symmetrically. Each cache entry is tagged with its source slot so the
//!   query can detect "the whole first block qualified" and continue into
//!   the source list from its second block — the analogue of the X-list
//!   continuation rule of §4.1. A query therefore reads, per page on the
//!   path: two caches plus the exit node's own list, each at most one
//!   wasteful I/O, all continuations paid for by full blocks.
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
mod query;
mod repack;

pub use build::ExternalIntervalTree;
