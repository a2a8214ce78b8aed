//! The slow-query log: a concurrent top-K ring over finished request
//! traces.
//!
//! The one trace-retention ring: the serve layer feeds it from sampled
//! [`crate::begin_trace`] captures. Each retained entry keeps the *full*
//! span tree plus its request identity, so "what burned the I/O budget
//! last night" is answerable from a live server without a debugger.
//!
//! Two independent rankings, per the paper's cost model: wall-clock
//! latency answers "what was slow", wasteful I/O ([`QueryTrace::wasteful_ios`],
//! §3's underfull-transfer count) answers "what was slow *for the
//! structural reason the paper is about*" — a Figure-3-style naive-PST
//! corner query tops the waste ranking long before it tops the latency one
//! on a warm cache. Entries are `Arc`-shared between the rings, so a query
//! ranked by both costs one allocation.
//!
//! Concurrency: an atomic floor per ring rejects the common case (an
//! unremarkable query on a busy server) without taking the lock; only
//! candidates that might displace a retained entry pay for the mutex.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::QueryTrace;

/// One retained slow query: request identity plus its full trace.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// Wire request id (caller-chosen, echoed in the response).
    pub request_id: u64,
    /// Op kind (`"two_sided"`, `"stab"`, `"update_batch"`, ...).
    pub op: &'static str,
    /// Name the target was registered under — the tenant namespace.
    pub target: String,
    /// The finished span tree with §3 accounting.
    pub trace: QueryTrace,
}

struct Ring {
    /// Retained entries, sorted descending by this ring's key.
    entries: Mutex<Vec<Arc<SlowQuery>>>,
    /// Key of the weakest retained entry once the ring is full, else 0 —
    /// a lock-free reject for clearly unremarkable candidates.
    floor: AtomicU64,
}

impl Ring {
    fn new() -> Ring {
        Ring { entries: Mutex::new(Vec::new()), floor: AtomicU64::new(0) }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Arc<SlowQuery>>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn offer(&self, k: usize, key: u64, q: &Arc<SlowQuery>, key_of: fn(&SlowQuery) -> u64) {
        if k == 0 || key < self.floor.load(Relaxed) {
            return;
        }
        let mut g = self.lock();
        let at = g.partition_point(|e| key_of(e) >= key);
        if at >= k {
            return; // raced below the floor
        }
        g.insert(at, Arc::clone(q));
        g.truncate(k);
        let floor = if g.len() == k { key_of(g.last().unwrap()) } else { 0 };
        self.floor.store(floor, Relaxed);
    }

    fn top(&self, k: usize) -> Vec<Arc<SlowQuery>> {
        let g = self.lock();
        g.iter().take(k).cloned().collect()
    }

    fn clear(&self) {
        let mut g = self.lock();
        g.clear();
        self.floor.store(0, Relaxed);
    }
}

/// A bounded top-K log of the worst queries by latency and by wasteful I/O.
pub struct SlowLog {
    k: usize,
    by_latency: Ring,
    by_waste: Ring,
    offered: AtomicU64,
}

fn latency_key(q: &SlowQuery) -> u64 {
    q.trace.latency_ns
}

fn waste_key(q: &SlowQuery) -> u64 {
    q.trace.wasteful_ios
}

impl SlowLog {
    /// A log retaining at most `k` entries per ranking.
    pub fn new(k: usize) -> SlowLog {
        SlowLog { k, by_latency: Ring::new(), by_waste: Ring::new(), offered: AtomicU64::new(0) }
    }

    /// Per-ranking retention bound.
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// Total traces ever offered (retained or not) — the denominator for
    /// "how much did sampling actually see".
    pub fn offered(&self) -> u64 {
        self.offered.load(Relaxed)
    }

    /// Offers one finished trace; it is retained in each ranking it is
    /// strong enough for.
    pub fn offer(&self, q: SlowQuery) {
        self.offered.fetch_add(1, Relaxed);
        let q = Arc::new(q);
        self.by_latency.offer(self.k, latency_key(&q), &q, latency_key);
        // Waste ranking only admits queries that wasted anything at all: a
        // zero-waste query carries no §3 signal, however slow it was.
        if waste_key(&q) > 0 {
            self.by_waste.offer(self.k, waste_key(&q), &q, waste_key);
        }
    }

    /// Worst `k` entries by wall-clock latency, descending.
    pub fn top_by_latency(&self, k: usize) -> Vec<Arc<SlowQuery>> {
        self.by_latency.top(k)
    }

    /// Worst `k` entries by wasteful I/O, descending.
    pub fn top_by_waste(&self, k: usize) -> Vec<Arc<SlowQuery>> {
        self.by_waste.top(k)
    }

    /// Empties both rankings (the drain half of the ADMIN op; `offered`
    /// keeps counting).
    pub fn clear(&self) {
        self.by_latency.clear();
        self.by_waste.clear();
    }
}

impl std::fmt::Debug for SlowLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlowLog")
            .field("k", &self.k)
            .field("offered", &self.offered())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IoDelta, SpanKind, SpanNode};

    fn trace(latency_ns: u64, wasteful: u64) -> QueryTrace {
        let root = SpanNode {
            name: "q",
            arg: 0,
            kind: SpanKind::Output,
            io: IoDelta { reads: wasteful, ..IoDelta::default() },
            self_reads: wasteful,
            items: 0,
            block_capacity: 1,
            children: Vec::new(),
        };
        QueryTrace {
            name: "q",
            latency_ns,
            total_io: wasteful,
            search_ios: 0,
            wasteful_ios: wasteful,
            items: 0,
            reads_by_class: [0; crate::ReadClass::COUNT],
            root,
        }
    }

    fn q(id: u64, latency_ns: u64, wasteful: u64) -> SlowQuery {
        SlowQuery { request_id: id, op: "two_sided", target: "t".into(), trace: trace(latency_ns, wasteful) }
    }

    #[test]
    fn retains_top_k_by_each_key_independently() {
        let log = SlowLog::new(2);
        log.offer(q(1, 100, 0)); // slow, no waste
        log.offer(q(2, 10, 9)); // fast, wasteful
        log.offer(q(3, 50, 3));
        log.offer(q(4, 5, 1));
        assert_eq!(log.offered(), 4);
        let lat: Vec<u64> = log.top_by_latency(8).iter().map(|e| e.request_id).collect();
        assert_eq!(lat, [1, 3]);
        let waste: Vec<u64> = log.top_by_waste(8).iter().map(|e| e.request_id).collect();
        assert_eq!(waste, [2, 3], "zero-waste entries never enter the waste ranking");
    }

    #[test]
    fn displacement_updates_the_floor() {
        let log = SlowLog::new(2);
        log.offer(q(1, 10, 0));
        log.offer(q(2, 20, 0));
        log.offer(q(3, 5, 0)); // below the floor once full → rejected
        let lat: Vec<u64> = log.top_by_latency(8).iter().map(|e| e.request_id).collect();
        assert_eq!(lat, [2, 1]);
        log.offer(q(4, 30, 0)); // displaces 1
        let lat: Vec<u64> = log.top_by_latency(8).iter().map(|e| e.request_id).collect();
        assert_eq!(lat, [4, 2]);
    }

    #[test]
    fn clear_empties_rankings_but_keeps_the_offer_count() {
        let log = SlowLog::new(4);
        log.offer(q(1, 10, 2));
        log.clear();
        assert!(log.top_by_latency(8).is_empty());
        assert!(log.top_by_waste(8).is_empty());
        assert_eq!(log.offered(), 1);
        // Reusable after a drain.
        log.offer(q(2, 7, 1));
        assert_eq!(log.top_by_latency(8).len(), 1);
    }

    #[test]
    fn k_zero_retains_nothing() {
        let log = SlowLog::new(0);
        log.offer(q(1, 10, 10));
        assert!(log.top_by_latency(8).is_empty());
        assert!(log.top_by_waste(8).is_empty());
    }

    #[test]
    fn large_k_retains_every_offer() {
        // With k ≥ the request count the log is a complete record of the
        // sampled set — how the determinism e2e reads it back.
        let log = SlowLog::new(64);
        for i in 0..20 {
            log.offer(q(i, 1000 - i, 0));
        }
        assert_eq!(log.top_by_latency(64).len(), 20);
    }

    #[test]
    fn concurrent_offers_keep_the_global_top() {
        let log = std::sync::Arc::new(SlowLog::new(8));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let log = std::sync::Arc::clone(&log);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let id = t * 1000 + i;
                        log.offer(q(id, id, (id % 7) + 1));
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(log.offered(), 2000);
        let lat: Vec<u64> = log.top_by_latency(8).iter().map(|e| e.trace.latency_ns).collect();
        // The 8 largest ids (3492..=3499) have the 8 largest latencies.
        assert_eq!(lat, (3492..=3499).rev().collect::<Vec<u64>>());
        let waste = log.top_by_waste(8);
        assert!(waste.iter().all(|e| e.trace.wasteful_ios == 7));
    }
}
