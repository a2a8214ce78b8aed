//! # pc-workloads — synthetic data and query generators
//!
//! The paper (an extended abstract) specifies no data sets, so the
//! experiment harness generates synthetic workloads with controlled
//! characteristics:
//!
//! * **point sets** with several spatial distributions, including an
//!   adversarial one that maximizes underfull cover-lists (the Figure 3
//!   pathology path caching was designed to fix);
//! * **interval sets** with several length distributions, including highly
//!   nested ones that stress segment/interval-tree cover lists;
//! * **queries** calibrated to hit a target output size `t`, since every
//!   bound in the paper is output-sensitive (`O(log_B n + t/B)`);
//! * **temporal streams** — sliding-window insert/expire churn (FIFO
//!   tenure) that keeps retiring the exact pages older snapshot epochs
//!   may still pin, the stress case for MVCC garbage collection.
//!
//! All generators are deterministic given a seed (`pc_rng::Rng`, the
//! in-tree xoshiro256** generator), so every experiment in EXPERIMENTS.md
//! is exactly reproducible bit-for-bit across machines — pinned by the
//! golden-value tests in `tests/determinism.rs`.
//!
//! Geometric data is produced as plain tuples to keep this crate free of
//! storage-layer dependencies; the bench crate converts to
//! `pc_pagestore::types` records.

mod intervals;
mod points;
mod queries;
mod temporal;

pub use intervals::{gen_intervals, IntervalDist};
pub use points::{gen_points, PointDist};
pub use temporal::{gen_temporal, TemporalOp};
pub use queries::{
    gen_range_1d, gen_stabbing, gen_three_sided, gen_two_sided, Range1d, Stab, ThreeSidedQ,
    TwoSidedQ,
};

/// Coordinate domain used by all generators: values fall in `[0, DOMAIN]`.
pub const DOMAIN: i64 = 1_000_000;

/// A generated point `(x, y, id)`.
pub type RawPoint = (i64, i64, u64);

/// A generated interval `(lo, hi, id)` with `lo <= hi`.
pub type RawInterval = (i64, i64, u64);
