//! The server's live observability plane: per-target metric families,
//! store-level (WAL + pool) families, and the group-commit observer.
//!
//! Everything here is **always compiled** — built on relaxed atomics and
//! the always-on `pc_obs::hist` histogram, like `ServeStats` — so a release
//! binary without the `obs` cargo feature still serves the full ADMIN
//! `Metrics`/`Stats` surface. Names come from [`pc_obs::target_metrics`]
//! and [`pc_obs::store_metrics`]; per-target families carry a
//! `{target="name"}` label so one scrape separates tenants sharing the
//! store. The structured form of the same families rides in the ADMIN
//! `Stats` pairs (the labelled name is the pair key).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use pc_obs::hist::Histogram;
use pc_obs::{store_metrics, target_metrics, version_metrics, QueryTrace};
use pc_pagestore::{PageStore, StoreObserver, VersionMetrics};

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

    /// `(labelled name, value)` pairs — the structured (binary) form of the
    /// per-target families, carried in the ADMIN `Stats` body.
    pub fn stat_pairs(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for (name, s) in &self.entries {
            let lbl = |family: &str| format!("{family}{{target=\"{name}\"}}");
            out.push((lbl(target_metrics::REQUESTS), s.requests.load(Relaxed)));
            out.push((lbl(target_metrics::QUERIES_OK), s.queries_ok.load(Relaxed)));
            out.push((lbl(target_metrics::UPDATES_OK), s.updates_ok.load(Relaxed)));
            out.push((lbl(target_metrics::ERRORS), s.errors.load(Relaxed)));
            out.push((lbl(target_metrics::BATCHES), s.batches.load(Relaxed)));
            out.push((lbl(target_metrics::BATCHED_UPDATES), s.batched_updates.load(Relaxed)));
            out.push((lbl(target_metrics::TRACES), s.traces.load(Relaxed)));
            out.push((lbl(target_metrics::TRACED_IO), s.traced_io.load(Relaxed)));
            out.push((lbl(target_metrics::TRACED_WASTEFUL), s.traced_wasteful.load(Relaxed)));
            let q = s.latency_ns.snapshot();
            out.push((format!("{}_p50{{target=\"{name}\"}}", target_metrics::LATENCY), q.quantile(0.50)));
            out.push((format!("{}_p99{{target=\"{name}\"}}", target_metrics::LATENCY), q.quantile(0.99)));
            out.push((format!("{}_count{{target=\"{name}\"}}", target_metrics::LATENCY), q.count));
        }
        out
    }

    /// Prometheus text exposition of the per-target families. Each family
    /// is typed once, then emits one labelled sample per target.
    pub fn render_text(&self) -> String {
        type CounterRead = fn(&TargetStats) -> u64;
        let mut out = String::new();
        let counters: [(&str, CounterRead); 9] = [
            (target_metrics::REQUESTS, |s| s.requests.load(Relaxed)),
            (target_metrics::QUERIES_OK, |s| s.queries_ok.load(Relaxed)),
            (target_metrics::UPDATES_OK, |s| s.updates_ok.load(Relaxed)),
            (target_metrics::ERRORS, |s| s.errors.load(Relaxed)),
            (target_metrics::BATCHES, |s| s.batches.load(Relaxed)),
            (target_metrics::BATCHED_UPDATES, |s| s.batched_updates.load(Relaxed)),
            (target_metrics::TRACES, |s| s.traces.load(Relaxed)),
            (target_metrics::TRACED_IO, |s| s.traced_io.load(Relaxed)),
            (target_metrics::TRACED_WASTEFUL, |s| s.traced_wasteful.load(Relaxed)),
        ];
        for (family, read) in counters {
            out.push_str(&format!("# TYPE {family} counter\n"));
            for (name, s) in &self.entries {
                out.push_str(&format!("{family}{{target=\"{name}\"}} {}\n", read(s)));
            }
        }
        let family = target_metrics::LATENCY;
        out.push_str(&format!("# TYPE {family} histogram\n"));
        for (name, s) in &self.entries {
            let snap = s.latency_ns.snapshot();
            let mut cumulative = 0u64;
            for &(le, c) in &snap.buckets {
                cumulative += c;
                out.push_str(&format!(
                    "{family}_bucket{{target=\"{name}\",le=\"{le}\"}} {cumulative}\n"
                ));
            }
            out.push_str(&format!(
                "{family}_bucket{{target=\"{name}\",le=\"+Inf\"}} {}\n",
                snap.count
            ));
            out.push_str(&format!("{family}_sum{{target=\"{name}\"}} {}\n", snap.sum));
            out.push_str(&format!("{family}_count{{target=\"{name}\"}} {}\n", snap.count));
        }
        out
    }
}

/// [`StoreObserver`] recording the distribution of group-commit sizes —
/// the cumulative `WalStats` only carry the max. Registered on the shared
/// store at server spawn; the histogram is always on.
#[derive(Default)]
pub struct GroupCommitObserver {
    /// Records made durable per group commit.
    pub records_per_commit: Histogram,
}

impl StoreObserver for GroupCommitObserver {
    fn on_group_commit(&self, records: u64) {
        self.records_per_commit.record(records);
    }
}

/// Buffer-pool hit ratio in parts-per-million: `hits / (hits + reads)`.
/// PPM keeps the exposition integer-only (the wire `Stats` body carries
/// `u64`s); 1_000_000 means every access hit the pool or dirty table.
pub fn pool_hit_ratio_ppm(cache_hits: u64, reads: u64) -> u64 {
    // u128 throughout: the counters (and their sum) can overflow u64 math
    // on long runs.
    let total = cache_hits as u128 + reads as u128;
    if total == 0 {
        return 0;
    }
    ((cache_hits as u128 * 1_000_000) / total) as u64
}

/// `(name, value)` pairs for the store-level families (structured form).
pub fn store_stat_pairs(store: &PageStore, commits: &GroupCommitObserver) -> Vec<(String, u64)> {
    let io = store.stats();
    let mut out = vec![(
        store_metrics::POOL_HIT_RATIO_PPM.to_string(),
        pool_hit_ratio_ppm(io.cache_hits, io.reads),
    )];
    if let Some(w) = store.wal_stats() {
        let snap = commits.records_per_commit.snapshot();
        out.extend([
            (store_metrics::WAL_APPENDS.to_string(), w.appends),
            (store_metrics::WAL_COMMITS.to_string(), w.commits),
            (store_metrics::WAL_FSYNCS.to_string(), w.fsyncs),
            (store_metrics::WAL_CHECKPOINTS.to_string(), w.checkpoints),
            (store_metrics::WAL_REPLAYED.to_string(), w.replayed),
            (store_metrics::WAL_LOG_BYTES.to_string(), w.log_bytes),
            (store_metrics::WAL_DIRTY_PAGES.to_string(), w.dirty_pages),
            (format!("{}_p50", store_metrics::WAL_GROUP_COMMIT_RECORDS), snap.quantile(0.50)),
            (format!("{}_count", store_metrics::WAL_GROUP_COMMIT_RECORDS), snap.count),
        ]);
    }
    out
}

/// Prometheus text exposition of the store-level families.
pub fn render_store_metrics(store: &PageStore, commits: &GroupCommitObserver) -> String {
    let io = store.stats();
    let mut out = format!(
        "# TYPE {family} gauge\n{family} {}\n",
        pool_hit_ratio_ppm(io.cache_hits, io.reads),
        family = store_metrics::POOL_HIT_RATIO_PPM,
    );
    if let Some(w) = store.wal_stats() {
        for (family, v) in [
            (store_metrics::WAL_APPENDS, w.appends),
            (store_metrics::WAL_COMMITS, w.commits),
            (store_metrics::WAL_FSYNCS, w.fsyncs),
            (store_metrics::WAL_CHECKPOINTS, w.checkpoints),
            (store_metrics::WAL_REPLAYED, w.replayed),
        ] {
            out.push_str(&format!("# TYPE {family} counter\n{family} {v}\n"));
        }
        for (family, v) in [
            (store_metrics::WAL_LOG_BYTES, w.log_bytes),
            (store_metrics::WAL_DIRTY_PAGES, w.dirty_pages),
        ] {
            out.push_str(&format!("# TYPE {family} gauge\n{family} {v}\n"));
        }
        let family = store_metrics::WAL_GROUP_COMMIT_RECORDS;
        let snap = commits.records_per_commit.snapshot();
        out.push_str(&format!("# TYPE {family} histogram\n"));
        let mut cumulative = 0u64;
        for &(le, c) in &snap.buckets {
            cumulative += c;
            out.push_str(&format!("{family}_bucket{{le=\"{le}\"}} {cumulative}\n"));
        }
        out.push_str(&format!("{family}_bucket{{le=\"+Inf\"}} {}\n", snap.count));
        out.push_str(&format!("{family}_sum {}\n{family}_count {}\n", snap.sum, snap.count));
    }
    out
}

/// `(name, value)` pairs for the `pc_version_*` families (structured
/// form), rendered from a [`VersionMetrics`] point-in-time snapshot.
pub fn version_stat_pairs(m: &VersionMetrics) -> Vec<(String, u64)> {
    vec![
        (version_metrics::EPOCHS_INSTALLED.to_string(), m.installed),
        (version_metrics::EPOCHS_RETAINED.to_string(), m.retained),
        (version_metrics::PAGES_RECLAIMED.to_string(), m.reclaimed_pages),
        (version_metrics::SNAPSHOTS_PINNED.to_string(), m.pinned),
        (version_metrics::OLDEST_PIN_AGE.to_string(), m.oldest_pin_age),
    ]
}

/// Prometheus text exposition of the `pc_version_*` families.
pub fn render_version_metrics(m: &VersionMetrics) -> String {
    let mut out = String::new();
    for (family, v) in [
        (version_metrics::EPOCHS_INSTALLED, m.installed),
        (version_metrics::PAGES_RECLAIMED, m.reclaimed_pages),
    ] {
        out.push_str(&format!("# TYPE {family} counter\n{family} {v}\n"));
    }
    for (family, v) in [
        (version_metrics::EPOCHS_RETAINED, m.retained),
        (version_metrics::SNAPSHOTS_PINNED, m.pinned),
        (version_metrics::OLDEST_PIN_AGE, m.oldest_pin_age),
    ] {
        out.push_str(&format!("# TYPE {family} gauge\n{family} {v}\n"));
    }
    out
}

/// Convenience: registers a fresh [`GroupCommitObserver`] on `store` and
/// returns the shared handle the server keeps for rendering.
pub fn install_commit_observer(store: &PageStore) -> Arc<GroupCommitObserver> {
    let obs = Arc::new(GroupCommitObserver::default());
    store.set_observer(Arc::clone(&obs) as Arc<dyn StoreObserver>);
    obs
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

        let text = set.render_text();
        assert!(text.contains("# TYPE pc_target_requests_total counter"), "{text}");
        assert!(text.contains("pc_target_requests_total{target=\"pst/main\"} 5"), "{text}");
        assert!(text.contains("pc_target_requests_total{target=\"btree/aux\"} 2"), "{text}");
        assert!(text.contains("pc_target_latency_ns_count{target=\"pst/main\"} 1"), "{text}");

        let pairs = set.stat_pairs();
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
        let obs = install_commit_observer(&store);
        let id = store.alloc().unwrap();
        store.write(id, &vec![7u8; 256]).unwrap();
        store.commit_with(b"t").unwrap();
        let snap = obs.records_per_commit.snapshot();
        assert_eq!(snap.count, 1, "one non-empty commit observed");
        // An empty commit (nothing pending) must not fire the observer.
        store.commit_with(b"t").unwrap();
        assert_eq!(obs.records_per_commit.snapshot().count, 1);
        let pairs = store_stat_pairs(&store, &obs);
        let get = |n: &str| pairs.iter().find(|(k, _)| k == n).map(|&(_, v)| v);
        assert!(get("pc_store_wal_commits_total").unwrap() >= 1);
        assert_eq!(get("pc_store_wal_group_commit_records_count"), Some(1));
        let text = render_store_metrics(&store, &obs);
        assert!(text.contains("# TYPE pc_store_wal_commits_total counter"), "{text}");
        assert!(text.contains("pc_store_wal_group_commit_records_count 1"), "{text}");
    }
}
