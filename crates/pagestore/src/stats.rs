//! I/O accounting.
//!
//! Every experiment in this reproduction reports *page transfer counts*, not
//! wall-clock time, because the paper's bounds are stated in the standard
//! external-memory model. [`IoStats`] is the measured quantity.

use std::fmt;
use std::ops::Sub;

/// Snapshot of cumulative I/O counters for one [`crate::PageStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Page reads served by the backend: actual transfers, each a pread and
    /// a frame checksum. Buffer-pool hits are *not* counted here, on a
    /// volatile or a durable store.
    pub reads: u64,
    /// Page writes issued to the backend (including pool write-backs).
    pub writes: u64,
    /// Logical reads absorbed by the buffer pool: 0 on a strict volatile
    /// store; on a durable store (which always has a pool) the reads of
    /// resident pages, those it wrote or read lately.
    pub cache_hits: u64,
    /// Pages allocated over the store's lifetime.
    pub allocs: u64,
    /// Pages freed over the store's lifetime.
    pub frees: u64,
    /// Buffer-pool frames evicted to make room (dirty or clean; 0 in
    /// strict mode). Dirty evictions also count one backend write.
    pub pool_evictions: u64,
}

impl IoStats {
    /// Total page transfers: reads plus writes.
    pub fn total_io(&self) -> u64 {
        self.reads + self.writes
    }

    /// Pages currently live (allocated and not freed).
    pub fn live_pages(&self) -> u64 {
        self.allocs - self.frees
    }

    /// Logical page reads: backend transfers plus the reads a buffer pool
    /// absorbed. This is the count the paper's bounds speak about — what a
    /// query asked for, whatever the pool happened to hold — so it is the
    /// same on a pooled and a strict store.
    pub fn logical_reads(&self) -> u64 {
        self.reads + self.cache_hits
    }

    /// Buffer-pool hit ratio `cache_hits / (cache_hits + reads)` — the
    /// fraction of logical reads the pool absorbed. Returns 0.0 when there
    /// has been no read traffic at all (strict mode reports 0.0 too, since
    /// every logical read is a backend transfer).
    pub fn hit_ratio(&self) -> f64 {
        let logical = self.logical_reads();
        if logical == 0 {
            0.0
        } else {
            self.cache_hits as f64 / logical as f64
        }
    }

    /// Wasteful transfers under the paper's §3 taxonomy: of this snapshot's
    /// `reads`, how many were *not* paid for by a full block of output —
    /// `items` result items at `block_capacity` items per page. Delegates to
    /// [`pc_obs::wasteful_transfers`] so the workspace has one definition.
    pub fn wasteful(&self, items: u64, block_capacity: u64) -> u64 {
        pc_obs::wasteful_transfers(self.reads, items, block_capacity)
    }
}

impl Sub for IoStats {
    type Output = IoStats;

    /// Computes the delta between two snapshots, used to attribute I/O to a
    /// single operation: `let before = store.stats(); op(); let cost =
    /// store.stats() - before;`.
    ///
    /// Saturating per field: a snapshot folds per-shard relaxed atomics, so
    /// two snapshots racing concurrent operations can interleave
    /// non-monotonically (e.g. `b` reads shard 0 before a hit lands and
    /// shard 1 after its miss does). Saturation clamps such a field to 0
    /// instead of panicking in debug / wrapping to ~`u64::MAX` in release.
    fn sub(self, rhs: IoStats) -> IoStats {
        IoStats {
            reads: self.reads.saturating_sub(rhs.reads),
            writes: self.writes.saturating_sub(rhs.writes),
            cache_hits: self.cache_hits.saturating_sub(rhs.cache_hits),
            allocs: self.allocs.saturating_sub(rhs.allocs),
            frees: self.frees.saturating_sub(rhs.frees),
            pool_evictions: self.pool_evictions.saturating_sub(rhs.pool_evictions),
        }
    }
}

impl fmt::Display for IoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reads={} writes={} hits={} allocs={} frees={} evictions={} hit_ratio={:.2}",
            self.reads,
            self.writes,
            self.cache_hits,
            self.allocs,
            self.frees,
            self.pool_evictions,
            self.hit_ratio()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_and_totals() {
        let a = IoStats {
            reads: 10,
            writes: 4,
            cache_hits: 2,
            allocs: 5,
            frees: 1,
            ..IoStats::default()
        };
        let b = IoStats {
            reads: 25,
            writes: 9,
            cache_hits: 7,
            allocs: 8,
            frees: 2,
            pool_evictions: 3,
        };
        let d = b - a;
        assert_eq!(d.reads, 15);
        assert_eq!(d.pool_evictions, 3);
        assert_eq!(d.writes, 5);
        assert_eq!(d.total_io(), 20);
        assert_eq!(b.live_pages(), 6);
    }

    #[test]
    fn sub_saturates_on_non_monotonic_snapshots() {
        // Regression: folded per-shard snapshots can interleave so that an
        // "earlier" snapshot has a larger field; `-` must clamp, not panic.
        let earlier = IoStats { reads: 5, cache_hits: 9, ..IoStats::default() };
        let later = IoStats { reads: 7, cache_hits: 8, ..IoStats::default() };
        let d = later - earlier;
        assert_eq!(d.reads, 2);
        assert_eq!(d.cache_hits, 0, "non-monotonic field clamps to 0");
        assert_eq!(d.writes, 0);
    }

    #[test]
    fn hit_ratio_is_guarded_and_correct() {
        assert_eq!(IoStats::default().hit_ratio(), 0.0);
        let strict = IoStats { reads: 10, ..IoStats::default() };
        assert_eq!(strict.hit_ratio(), 0.0);
        let pooled = IoStats { reads: 25, cache_hits: 75, ..IoStats::default() };
        assert!((pooled.hit_ratio() - 0.75).abs() < 1e-12);
        let all_hits = IoStats { cache_hits: 4, ..IoStats::default() };
        assert_eq!(all_hits.hit_ratio(), 1.0);
    }

    #[test]
    fn wasteful_uses_shared_definition() {
        let s = IoStats { reads: 3, ..IoStats::default() };
        // 2 full blocks of 170 + a tail → 1 of the 3 reads is wasteful.
        assert_eq!(s.wasteful(2 * 170 + 5, 170), 1);
        assert_eq!(s.wasteful(3 * 170, 170), 0);
        assert_eq!(s.wasteful(0, 170), 3);
        assert_eq!(IoStats::default().wasteful(0, 170), 0);
    }

    #[test]
    fn display_contains_all_counters() {
        let s = IoStats {
            reads: 1,
            writes: 2,
            cache_hits: 3,
            allocs: 4,
            frees: 5,
            pool_evictions: 6,
        }
        .to_string();
        for needle in [
            "reads=1",
            "writes=2",
            "hits=3",
            "allocs=4",
            "frees=5",
            "evictions=6",
            "hit_ratio=0.75",
        ] {
            assert!(s.contains(needle), "{s} missing {needle}");
        }
    }
}
