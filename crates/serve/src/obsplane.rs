//! The server's live observability plane: per-target metric families and
//! the store-level (WAL + pool) and version families.
//!
//! Built on relaxed atomics and `pc_obs::Histogram`, like `ServeStats`, so
//! every binary serves the full ADMIN `Metrics`/`Stats` surface. Each
//! family is declared once, as a `pc_obs::Sample` pushed by the functions
//! here; names come from [`pc_obs::target_metrics`],
//! [`pc_obs::store_metrics`] and [`pc_obs::version_metrics`]. Per-target
//! families carry a `{target="name"}` label so one scrape separates
//! tenants sharing the store, and the labelled name is the pair key in the
//! structured `Stats` form.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use pc_obs::Summary::{Count, P50, P99};
use pc_obs::{store_metrics, target_metrics, version_metrics, Histogram, QueryTrace, Sample};
use pc_pagestore::{PageStore, VersionMetrics};

/// Always-on counters and latency distribution for one registered target.
#[derive(Default)]
pub struct TargetStats {
    /// Well-formed requests routed at this target (admitted or shed).
    pub requests: AtomicU64,
    /// Queries answered successfully.
    pub queries_ok: AtomicU64,
    /// Updates acknowledged successfully.
    pub updates_ok: AtomicU64,
    /// Requests answered with any error.
    pub errors: AtomicU64,
    /// Execution latency (dequeue to response built), nanoseconds.
    pub latency_ns: Histogram,
    /// Update batches applied against this target.
    pub batches: AtomicU64,
    /// Updates carried inside those batches.
    pub batched_updates: AtomicU64,
    /// Sampled traces retained for this target.
    pub traces: AtomicU64,
    /// Total transfers observed inside those traces.
    pub traced_io: AtomicU64,
    /// §3 wasteful transfers observed inside those traces.
    pub traced_wasteful: AtomicU64,
}

impl TargetStats {
    /// Folds one finished sampled trace into the trace aggregates.
    pub fn absorb_trace(&self, trace: &QueryTrace) {
        self.traces.fetch_add(1, Relaxed);
        self.traced_io.fetch_add(trace.total_io, Relaxed);
        self.traced_wasteful.fetch_add(trace.wasteful_ios, Relaxed);
    }
}

/// The per-target families for every registered target, indexed by wire
/// target id. Built once at server spawn (registration is fixed for the
/// server's lifetime), so lookups are lock-free.
pub struct TargetStatsSet {
    entries: Vec<(String, TargetStats)>,
}

impl TargetStatsSet {
    /// One `TargetStats` per registered target, labelled by its name.
    pub fn new(names: Vec<String>) -> TargetStatsSet {
        TargetStatsSet {
            entries: names.into_iter().map(|n| (n, TargetStats::default())).collect(),
        }
    }

    /// Stats for a wire target id, if registered.
    pub fn get(&self, id: u16) -> Option<&TargetStats> {
        self.entries.get(id as usize).map(|(_, s)| s)
    }

    /// The name a target id's family is labelled with.
    pub fn name(&self, id: u16) -> Option<&str> {
        self.entries.get(id as usize).map(|(n, _)| n.as_str())
    }

    /// Pushes the per-target families, family by family (so each is typed
    /// once in the text form), one labelled sample per target.
    pub fn samples(&self, out: &mut Vec<Sample>) {
        type Read = fn(&TargetStats) -> &AtomicU64;
        let counters: [(&'static str, Read); 9] = [
            (target_metrics::REQUESTS, |s| &s.requests),
            (target_metrics::QUERIES_OK, |s| &s.queries_ok),
            (target_metrics::UPDATES_OK, |s| &s.updates_ok),
            (target_metrics::ERRORS, |s| &s.errors),
            (target_metrics::BATCHES, |s| &s.batches),
            (target_metrics::BATCHED_UPDATES, |s| &s.batched_updates),
            (target_metrics::TRACES, |s| &s.traces),
            (target_metrics::TRACED_IO, |s| &s.traced_io),
            (target_metrics::TRACED_WASTEFUL, |s| &s.traced_wasteful),
        ];
        for (family, read) in counters {
            for (name, s) in &self.entries {
                out.push(Sample::counter(family, read(s).load(Relaxed)).labelled("target", name));
            }
        }
        for (name, s) in &self.entries {
            out.push(
                Sample::histogram(
                    target_metrics::LATENCY,
                    s.latency_ns.snapshot(),
                    &[
                        ("pc_target_latency_ns_p50", P50),
                        ("pc_target_latency_ns_p99", P99),
                        ("pc_target_latency_ns_count", Count),
                    ],
                )
                .labelled("target", name),
            );
        }
    }
}

/// Buffer-pool hit ratio in parts-per-million: `hits / (hits + reads)`.
/// PPM keeps the exposition integer-only (the wire `Stats` body carries
/// `u64`s); 1_000_000 means every access hit the pool.
pub fn pool_hit_ratio_ppm(cache_hits: u64, reads: u64) -> u64 {
    // u128 throughout: the counters (and their sum) can overflow u64 math
    // on long runs.
    let total = cache_hits as u128 + reads as u128;
    if total == 0 {
        return 0;
    }
    ((cache_hits as u128 * 1_000_000) / total) as u64
}

/// Pushes the store-level families: the pool hit ratio always, the
/// `pc_store_wal_*` ones on a durable store.
pub fn store_samples(store: &PageStore, out: &mut Vec<Sample>) {
    let io = store.stats();
    out.push(Sample::gauge(
        store_metrics::POOL_HIT_RATIO_PPM,
        pool_hit_ratio_ppm(io.cache_hits, io.reads),
    ));
    let (Some(w), Some(groups)) = (store.wal_stats(), store.wal_group_sizes()) else { return };
    out.extend([
        Sample::counter(store_metrics::WAL_APPENDS, w.appends),
        Sample::counter(store_metrics::WAL_COMMITS, w.commits),
        Sample::counter(store_metrics::WAL_FSYNCS, w.fsyncs),
        Sample::counter(store_metrics::WAL_CHECKPOINTS, w.checkpoints),
        Sample::gauge(store_metrics::WAL_LOG_BYTES, w.log_bytes),
        Sample::histogram(
            store_metrics::WAL_GROUP_COMMIT_RECORDS,
            groups,
            &[
                ("pc_store_wal_group_commit_records_p50", P50),
                ("pc_store_wal_group_commit_records_count", Count),
            ],
        ),
    ]);
}

/// Pushes the `pc_version_*` families from a [`VersionMetrics`]
/// point-in-time snapshot.
pub fn version_samples(m: &VersionMetrics, out: &mut Vec<Sample>) {
    out.extend([
        Sample::counter(version_metrics::EPOCHS_INSTALLED, m.installed),
        Sample::counter(version_metrics::PAGES_RECLAIMED, m.reclaimed_pages),
        Sample::gauge(version_metrics::EPOCHS_RETAINED, m.retained),
        Sample::gauge(version_metrics::SNAPSHOTS_PINNED, m.pinned),
        Sample::gauge(version_metrics::OLDEST_PIN_AGE, m.oldest_pin_age),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_families_render_with_labels_and_match_pairs() {
        let set = TargetStatsSet::new(vec!["pst/main".into(), "btree/aux".into()]);
        let s = set.get(0).unwrap();
        s.requests.fetch_add(5, Relaxed);
        s.queries_ok.fetch_add(4, Relaxed);
        s.errors.fetch_add(1, Relaxed);
        s.latency_ns.record(1000);
        set.get(1).unwrap().requests.fetch_add(2, Relaxed);

        let mut samples = Vec::new();
        set.samples(&mut samples);
        let text = pc_obs::render_text(&samples);
        assert!(text.contains("# TYPE pc_target_requests_total counter"), "{text}");
        assert!(text.contains("pc_target_requests_total{target=\"pst/main\"} 5"), "{text}");
        assert!(text.contains("pc_target_requests_total{target=\"btree/aux\"} 2"), "{text}");
        assert!(text.contains("pc_target_latency_ns_count{target=\"pst/main\"} 1"), "{text}");

        let pairs = pc_obs::stat_pairs(&samples);
        let get = |n: &str| pairs.iter().find(|(k, _)| k == n).map(|&(_, v)| v).unwrap();
        assert_eq!(get("pc_target_requests_total{target=\"pst/main\"}"), 5);
        assert_eq!(get("pc_target_errors_total{target=\"pst/main\"}"), 1);
        assert_eq!(get("pc_target_requests_total{target=\"btree/aux\"}"), 2);
    }

    #[test]
    fn absorb_trace_accumulates_section3_aggregates() {
        use pc_obs::{IoDelta, SpanKind, SpanNode};
        let set = TargetStatsSet::new(vec!["t".into()]);
        let root = SpanNode {
            name: "q",
            arg: 0,
            kind: SpanKind::Output,
            io: IoDelta { reads: 9, ..IoDelta::default() },
            self_reads: 9,
            items: 4,
            block_capacity: 2,
            children: Vec::new(),
        };
        let trace = QueryTrace {
            name: "q",
            latency_ns: 10,
            total_io: 9,
            search_ios: 0,
            wasteful_ios: root.wasteful(),
            items: 4,
            reads_by_class: [9, 0, 0, 0],
            root,
        };
        let s = set.get(0).unwrap();
        s.absorb_trace(&trace);
        s.absorb_trace(&trace);
        assert_eq!(s.traces.load(Relaxed), 2);
        assert_eq!(s.traced_io.load(Relaxed), 18);
        assert_eq!(s.traced_wasteful.load(Relaxed), 2 * (9 - 4 / 2));
    }

    #[test]
    fn pool_hit_ratio_is_ppm_and_total() {
        assert_eq!(pool_hit_ratio_ppm(0, 0), 0);
        assert_eq!(pool_hit_ratio_ppm(1, 0), 1_000_000);
        assert_eq!(pool_hit_ratio_ppm(1, 1), 500_000);
        assert_eq!(pool_hit_ratio_ppm(u64::MAX, u64::MAX), 500_000);
    }

    #[test]
    fn commit_observer_records_group_sizes_from_the_store() {
        let (store, _) = PageStore::in_memory_durable(256);
        let id = store.alloc().unwrap();
        store.write(id, &vec![7u8; 256]).unwrap();
        store.commit_with(b"t").unwrap();
        let snap = store.wal_group_sizes().expect("durable store");
        assert_eq!((snap.count, snap.sum), (1, 1), "one commit of the alloc alone");
        // An empty commit (nothing pending) must not be recorded.
        store.commit_with(b"t").unwrap();
        assert_eq!(store.wal_group_sizes().unwrap().count, 1);
        let mut samples = Vec::new();
        store_samples(&store, &mut samples);
        let pairs = pc_obs::stat_pairs(&samples);
        let get = |n: &str| pairs.iter().find(|(k, _)| k == n).map(|&(_, v)| v);
        assert!(get("pc_store_wal_commits_total").unwrap() >= 1);
        assert_eq!(get("pc_store_wal_group_commit_records_count"), Some(1));
        let text = pc_obs::render_text(&samples);
        assert!(text.contains("# TYPE pc_store_wal_commits_total counter"), "{text}");
        assert!(text.contains("pc_store_wal_group_commit_records_count 1"), "{text}");

        // A volatile store has no log, so no group sizes and no WAL families.
        let volatile = PageStore::in_memory(256);
        assert!(volatile.wal_group_sizes().is_none());
        samples.clear();
        store_samples(&volatile, &mut samples);
        assert_eq!(samples.len(), 1, "the pool hit ratio alone");
    }
}
