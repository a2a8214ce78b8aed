//! # pc-pst — external priority search trees with path caching
//!
//! This crate is the paper's primary contribution: a family of secondary-
//! memory priority search trees (PSTs) answering **2-sided** dominance
//! queries (`x ≥ x₀ ∧ y ≥ y₀`, Figure 1) and **3-sided** queries
//! (`x₁ ≤ x ≤ x₂ ∧ y ≥ y₀`), with the space/time trade-offs of the paper:
//!
//! | type | paper ref | query I/O | space (blocks) |
//! |------|-----------|-----------|----------------|
//! | [`NaivePst`] | \[IKO\] baseline | `O(log n + t/B)` | `O(n/B)` |
//! | [`BasicPst`] | Lemma 3.1 | `O(log_B n + t/B)` | `O((n/B)·log n)` |
//! | [`SegmentedPst`] | Theorem 3.2 | `O(log_B n + t/B)` | `O((n/B)·log B)` |
//! | [`TwoLevelPst`] | Theorem 4.3 | `O(log_B n + t/B)` | `O((n/B)·log log B)` |
//! | [`MultilevelPst`] | Theorem 4.4 | `O(log_B n + t/B + log* B)` | `O((n/B)·log* B)` |
//! | [`ThreeSidedPst`] | Theorems 3.3/4.5 | `O(log_B n + t/B)` | `O((n/B)·log² B)` |
//! | [`DynamicPst`] | Theorem 5.1 | `O(log_B n + t/B)` | `O((n/B)·log log B)` + buffers |
//!
//! ## The heap-of-regions decomposition (Figure 4)
//!
//! Following \[IKO\] and §3, the root holds the top `B` points by `y`; the
//! rest are split at the median `x` into two halves, recursively. Each node
//! is one disk block; the tree as a whole decomposes the plane into
//! `O(n/B)` rectangular regions. For a query with corner `(x₀, y₀)`:
//!
//! * the **corner node** is the region containing the corner;
//! * **ancestors** of the corner are cut by the query's left side — their
//!   points all satisfy `y ≥ y₀`, so they match iff `x ≥ x₀`;
//! * **right siblings** of the path lie wholly right of `x₀` — their points
//!   match iff `y ≥ y₀`;
//! * **descendants of siblings** are visited only when the parent's region
//!   is fully inside the query, so each visit is paid for by a full block
//!   of output.
//!
//! Reading each of the `O(log n)` ancestor/sibling blocks individually is
//! the naive structure's wasteful-I/O pathology; the cached variants
//! coalesce those points into per-node **A-lists** (ancestor points, sorted
//! by descending `x`) and **S-lists** (sibling points, descending `y`),
//! over the full path (Lemma 3.1) or per `log B`-sized path segment —
//! realized here as "within one skeletal page" (Theorem 3.2).
//!
//! ## Exactness with duplicate coordinates
//!
//! The paper assumes general position. We instead order points by the
//! strict total orders `(x, y, id)` and `(y, x, id)`; the query predicate
//! `x ≥ x₀` is exactly `(x, y, id) ≥ (x₀, −∞, −∞)`, so heap layering,
//! corner location, and prefix scans remain exact under arbitrary ties.
//!
//! ```
//! use pc_pagestore::{PageStore, Point};
//! use pc_pst::{SegmentedPst, TwoSided};
//!
//! let store = PageStore::in_memory(512);
//! let pts: Vec<Point> = (0..500).map(|i| Point::new(i, (i * 7) % 500, i as u64)).collect();
//! let pst = SegmentedPst::build(&store, &pts).unwrap();
//! let hits = pst.query(&store, TwoSided { x0: 400, y0: 400 }).unwrap();
//! assert!(hits.iter().all(|p| p.x >= 400 && p.y >= 400));
//! ```

#[macro_use]
mod build;
mod dynamic;
mod mem;
mod multilevel;
mod query;
mod region;
mod three_sided;
mod two_level;

pub use build::{BasicPst, NaivePst, SegmentedPst};
pub use dynamic::{DynamicPst, DynamicThreeSidedPst};
pub use mem::TwoSided;
pub use multilevel::MultilevelPst;
pub use three_sided::{PageCensus, ThreeSided, ThreeSidedPst};
pub use two_level::{RegionCensus, RegionFill, TwoLevelPst};

#[cfg(test)]
mod testutil;
