//! The counter and power-of-two-bucket histogram primitives, re-exported
//! at the crate root as [`crate::Counter`] and [`crate::Histogram`].
//!
//! Plain relaxed atomics owned by whoever counts — the serve layer's
//! `ServeStats` / `TargetStats`, the router's `ShardStats`, the WAL's
//! group-commit sizes — so recording is a few uncontended `fetch_add`s and
//! reading is a [`HistogramSnapshot`] taken once per scrape.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use crate::HistogramSnapshot;

/// A monotonically increasing counter (relaxed atomic).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Buckets: index 0 holds value 0; index `i ≥ 1` holds values with bit
/// length `i`, i.e. the range `[2^(i-1), 2^i - 1]`. 65 buckets cover all of
/// `u64`.
const BUCKETS: usize = 65;

/// A fixed-bucket histogram with power-of-two bucket bounds.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.buckets[Self::bucket_index(v)].fetch_add(1, Relaxed);
    }

    /// Bucket index for a value (0 for 0, else the bit length).
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Inclusive upper bound of bucket `i`.
    pub fn le_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Point-in-time copy (non-empty buckets only).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Relaxed);
            if c > 0 {
                buckets.push((Self::le_bound(i), c));
            }
        }
        HistogramSnapshot { count: self.count.load(Relaxed), sum: self.sum.load(Relaxed), buckets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bounds() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::le_bound(0), 0);
        assert_eq!(Histogram::le_bound(1), 1);
        assert_eq!(Histogram::le_bound(10), 1023);
        assert_eq!(Histogram::le_bound(64), u64::MAX);
        // Every value lands in a bucket whose bound contains it.
        for v in [0u64, 1, 2, 3, 7, 8, 1 << 20, u64::MAX] {
            let i = Histogram::bucket_index(v);
            assert!(v <= Histogram::le_bound(i), "v={v} i={i}");
            if i > 0 {
                assert!(v > Histogram::le_bound(i - 1), "v={v} i={i}");
            }
        }
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::default();
        for v in [0, 1, 1, 5, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1007);
        assert_eq!(s.buckets, vec![(0, 1), (1, 2), (7, 1), (1023, 1)]);
    }

    #[test]
    fn counter_adds() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }
}
