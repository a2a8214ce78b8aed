//! # path-caching — optimal external 2-d searching
//!
//! A Rust implementation of **"Path Caching: A Technique for Optimal
//! External Searching"** (Ramaswamy & Subramanian, PODS 1994): external-
//! memory data structures for the special cases of 2-dimensional range
//! searching that underpin relational, temporal, constraint, and object-
//! oriented databases, with worst-case optimal query I/O
//! `O(log_B n + t/B)`.
//!
//! ## What's here
//!
//! * [`PointIndex`] — static 2-sided (dominance) queries over points, with
//!   a choice of the paper's space/time trade-offs ([`Variant`]) and any
//!   corner orientation ([`Quadrant`]).
//! * [`ThreeSidedIndex`] — static 3-sided queries
//!   (`x ∈ [x1,x2] ∧ y ≥ y0`), Theorem 3.3.
//! * [`DynamicPointIndex`] — fully dynamic 2-sided queries, Theorem 5.1.
//! * [`IntervalStore`] — dynamic interval management (stabbing queries)
//!   via the \[KRV\] reduction to diagonal-corner/2-sided queries; the
//!   paper's §1 headline application for temporal and constraint
//!   databases.
//! * [`ClassIndex`] — indexing class hierarchies (the paper's §1
//!   object-oriented-database application): "objects in the subtree of
//!   class `c` with attribute at least `v`" as one 3-sided query.
//! * Re-exports of the substrate crates: the paged store
//!   ([`store`]), external B+-tree ([`btree`]), external segment trees
//!   ([`segtree`]), and the external interval tree ([`intervaltree`]).
//!
//! ## Quick start
//!
//! ```
//! use path_caching::{PageStore, Point, PointIndex, TwoSided, Variant};
//!
//! let store = PageStore::in_memory(4096);
//! let points: Vec<Point> =
//!     (0..10_000).map(|i| Point::new(i, (i * 37) % 10_000, i as u64)).collect();
//! let index = PointIndex::build(&store, &points, Variant::TwoLevel).unwrap();
//! let hits = index.query(&store, TwoSided { x0: 9_000, y0: 9_000 }).unwrap();
//! assert!(hits.iter().all(|p| p.x >= 9_000 && p.y >= 9_000));
//! ```

mod class_index;
mod interval_store;
mod point_index;

pub use class_index::{ClassId, ClassIndex, ClassIndexBuilder};
pub use interval_store::IntervalStore;
pub use point_index::{DiagonalCorner, DynamicPointIndex, PointIndex, Quadrant, ThreeSidedIndex, Variant};

pub use pc_pagestore::{Interval, IoStats, PageStore, Point, Record, Result, StoreError};
pub use pc_pst::{ThreeSided, TwoSided};

/// The paged secondary-storage engine (substrate).
pub mod store {
    pub use pc_pagestore::*;
}

/// External B+-tree: 1-d baseline and ordered-map substrate.
pub mod btree {
    pub use pc_btree::*;
}

/// External segment trees (naive and path-cached).
pub mod segtree {
    pub use pc_segtree::*;
}

/// External interval tree with path caching.
pub mod intervaltree {
    pub use pc_intervaltree::*;
}

/// External priority search trees (all paper variants).
pub mod pst {
    pub use pc_pst::*;
}
