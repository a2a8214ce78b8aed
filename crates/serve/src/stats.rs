//! Always-on service counters and latency histograms.
//!
//! [`ServeStats`] is plain relaxed atomics plus `pc_obs::Histogram`s, so
//! the ADMIN `Stats`/`Metrics` ops report real numbers from every binary.
//! Each family is declared once, in [`ServeStats::samples`]; names come
//! from [`pc_obs::serve_metrics`] so the exposition, the benchmark and the
//! tests can never drift apart.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use pc_obs::serve_metrics as names;
use pc_obs::Summary::{Count, P50, P99};
use pc_obs::{Histogram, Sample};
use pc_pagestore::IoStats;

/// Cumulative service-layer counters (monotonic, relaxed).
#[derive(Default)]
pub struct ServeStats {
    /// Connections accepted.
    pub conns_accepted: AtomicU64,
    /// Connections closed by the idle/read timeout.
    pub conns_idle_closed: AtomicU64,
    /// Well-formed requests received.
    pub requests: AtomicU64,
    /// Requests admitted to a work queue.
    pub admitted: AtomicU64,
    /// Requests shed with `Overloaded`.
    pub overloaded: AtomicU64,
    /// Requests rejected with `ShuttingDown`.
    pub shed_shutdown: AtomicU64,
    /// Requests answered `DeadlineExceeded`.
    pub deadline_exceeded: AtomicU64,
    /// Malformed / unroutable requests.
    pub bad_requests: AtomicU64,
    /// Requests that hit a typed storage error.
    pub storage_errors: AtomicU64,
    /// Queries answered successfully.
    pub queries_ok: AtomicU64,
    /// Updates acknowledged successfully.
    pub updates_ok: AtomicU64,
    /// Update batches applied.
    pub batches: AtomicU64,
    /// Updates carried inside those batches.
    pub batched_updates: AtomicU64,
    /// Group commits driven against a durable store (one per batch with at
    /// least one applied update; Acks are sent only after the commit).
    pub group_commits: AtomicU64,
    /// Batches whose group commit failed (their updates were answered with
    /// storage errors, never acked).
    pub commit_failures: AtomicU64,
    /// Queue-to-response latency for queries, nanoseconds.
    pub query_latency_ns: Histogram,
    /// Queue-to-ack latency for updates, nanoseconds.
    pub update_latency_ns: Histogram,
    /// Admission-to-dequeue wait, nanoseconds (queries and updates both):
    /// the pure queueing component of latency, so overload shows up here
    /// before it shows up in the end-to-end histograms.
    pub queue_wait_ns: Histogram,
    /// Updates coalesced per batcher wake (≥ 1); the distribution behind
    /// the `batches`/`batched_updates` averages.
    pub batch_coalesce: Histogram,
    /// Sampled request traces retained (into the slow log / aggregates).
    pub traces_retained: AtomicU64,
}

impl ServeStats {
    /// Pushes every service family: the counters, then the four histograms
    /// with the quantile pairs that stand for them in the `Stats` form.
    pub fn samples(&self, out: &mut Vec<Sample>) {
        for (family, counter) in [
            (names::CONNS_ACCEPTED, &self.conns_accepted),
            (names::CONNS_IDLE_CLOSED, &self.conns_idle_closed),
            (names::REQUESTS, &self.requests),
            (names::ADMITTED, &self.admitted),
            (names::OVERLOADED, &self.overloaded),
            (names::SHED_SHUTDOWN, &self.shed_shutdown),
            (names::DEADLINE_EXCEEDED, &self.deadline_exceeded),
            (names::BAD_REQUESTS, &self.bad_requests),
            (names::STORAGE_ERRORS, &self.storage_errors),
            (names::QUERIES_OK, &self.queries_ok),
            (names::UPDATES_OK, &self.updates_ok),
            (names::BATCHES, &self.batches),
            (names::BATCHED_UPDATES, &self.batched_updates),
            (names::GROUP_COMMITS, &self.group_commits),
            (names::COMMIT_FAILURES, &self.commit_failures),
            (names::TRACES_RETAINED, &self.traces_retained),
        ] {
            out.push(Sample::counter(family, counter.load(Relaxed)));
        }
        out.extend([
            Sample::histogram(
                names::QUERY_LATENCY,
                self.query_latency_ns.snapshot(),
                &[("pc_serve_query_p50_ns", P50), ("pc_serve_query_p99_ns", P99)],
            ),
            Sample::histogram(
                names::UPDATE_LATENCY,
                self.update_latency_ns.snapshot(),
                &[("pc_serve_update_p50_ns", P50), ("pc_serve_update_p99_ns", P99)],
            ),
            Sample::histogram(
                names::QUEUE_WAIT,
                self.queue_wait_ns.snapshot(),
                &[("pc_serve_queue_wait_p50_ns", P50), ("pc_serve_queue_wait_p99_ns", P99)],
            ),
            Sample::histogram(
                names::BATCH_COALESCE,
                self.batch_coalesce.snapshot(),
                &[("pc_serve_batch_coalesce_p50", P50), ("pc_serve_batch_coalesce_count", Count)],
            ),
        ]);
    }
}

/// The shared store's [`IoStats`] as `io_*` pairs — carried by the ADMIN
/// `Stats` body only.
pub fn io_stat_pairs(io: &IoStats) -> Vec<(String, u64)> {
    [
        ("io_reads", io.reads),
        ("io_writes", io.writes),
        ("io_cache_hits", io.cache_hits),
        ("io_allocs", io.allocs),
        ("io_frees", io.frees),
        ("io_pool_evictions", io.pool_evictions),
    ]
    .into_iter()
    .map(|(name, v)| (name.to_string(), v))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(s: &ServeStats) -> Vec<Sample> {
        let mut out = Vec::new();
        s.samples(&mut out);
        out
    }

    #[test]
    fn stat_pairs_carry_service_and_io_counters() {
        let s = ServeStats::default();
        s.requests.fetch_add(5, Relaxed);
        s.overloaded.fetch_add(2, Relaxed);
        s.query_latency_ns.record(1000);
        let io = IoStats { reads: 7, pool_evictions: 3, ..IoStats::default() };
        let mut pairs = pc_obs::stat_pairs(&samples(&s));
        pairs.extend(io_stat_pairs(&io));
        let get = |n: &str| pairs.iter().find(|(k, _)| k == n).map(|&(_, v)| v).unwrap();
        assert_eq!(get(names::REQUESTS), 5);
        assert_eq!(get(names::OVERLOADED), 2);
        assert_eq!(get("io_reads"), 7);
        assert_eq!(get("io_pool_evictions"), 3);
        assert_eq!(get("pc_serve_query_p50_ns"), 1023);
    }

    #[test]
    fn render_text_is_prometheus_shaped() {
        let s = ServeStats::default();
        s.admitted.fetch_add(4, Relaxed);
        s.query_latency_ns.record(3);
        s.query_latency_ns.record(100);
        let text = pc_obs::render_text(&samples(&s));
        assert!(text.contains("# TYPE pc_serve_admitted_total counter"), "{text}");
        assert!(text.contains("pc_serve_admitted_total 4"), "{text}");
        assert!(text.contains("# TYPE pc_serve_query_latency_ns histogram"), "{text}");
        assert!(text.contains("pc_serve_query_latency_ns_bucket{le=\"3\"} 1"), "{text}");
        assert!(text.contains("pc_serve_query_latency_ns_bucket{le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("pc_serve_query_latency_ns_count 2"), "{text}");
    }
}
