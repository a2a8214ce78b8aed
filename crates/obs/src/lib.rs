//! Per-query observability for the path-caching workspace.
//!
//! The paper's entire cost argument is about one observable quantity: the
//! number of *wasteful I/Os* a query performs — transfers that return fewer
//! than `B` useful output items (§3 of Ramaswamy & Subramanian). The page
//! store can only report flat cumulative [`IoStats`-style counters]; this
//! crate attributes transfers to individual queries, tree levels, and
//! path-cache probes so that claim becomes measurable.
//!
//! Four pieces, all std-only (no dependencies), all always compiled — the
//! workspace has one build configuration:
//!
//! 1. **Tracing** — a thread-local span stack. Query code brackets regions
//!    with [`span!`] guards; the page store reports every transfer through
//!    [`record_io`]; on drop each span knows exactly which I/Os happened
//!    inside it ([`IoDelta`]). Spans carry a [`SpanKind`]: `Nav` spans are
//!    navigation (their reads are *search* I/Os), `Output` spans report how
//!    many result items they produced via [`add_items`], and any read beyond
//!    the full blocks those items account for is classified *wasteful*
//!    ([`wasteful_transfers`]); each read names its class ([`record_read`])
//!    beside them: one account of a query's cost. Spans do work only while
//!    the thread is inside a [`begin_trace`] capture ([`traced`]), which
//!    hands the finished [`QueryTrace`] back to whoever opened it; outside
//!    one a span is a thread-local load and a branch (the `zero_alloc` test
//!    pins that it allocates nothing).
//! 2. **Sampling and retention** — a [`sample::Sampler`] picks 1-in-N
//!    requests for the serve layer to capture, and a [`slowlog::SlowLog`]
//!    keeps the worst of them by latency and by wasteful I/O.
//! 3. **Primitives** — relaxed-atomic [`Counter`]s and power-of-two-bucket
//!    [`Histogram`]s, owned by whoever counts (`ServeStats`, `TargetStats`,
//!    the WAL); there is no process-global registry.
//! 4. **Exposition** — every always-on family is declared once, as a typed
//!    [`Sample`], and [`stat_pairs`] / [`render_text`] turn one sample list
//!    into the ADMIN `Stats` pairs and the Prometheus `Metrics` text. The
//!    family names live in [`serve_metrics`], [`target_metrics`],
//!    [`store_metrics`], [`version_metrics`] and [`shard_metrics`].
//!
//! Instrumentation is purely observational: it never changes which pages a
//! structure touches, so strict-mode transfer counts are bit-identical
//! whether or not a capture is open.

#![forbid(unsafe_code)]

use std::fmt;

/// One observable page-store event, reported via [`record_io`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoEvent {
    /// A backend page transfer into memory (a *read* I/O).
    Read,
    /// A backend page transfer out of memory (a *write* I/O).
    Write,
    /// A buffer-pool hit that absorbed a would-be read.
    CacheHit,
    /// A page allocation.
    Alloc,
    /// A page free.
    Free,
    /// A buffer-pool eviction.
    PoolEvict,
}

impl IoEvent {
    /// Number of event kinds (array dimension for per-kind counters).
    pub const COUNT: usize = 6;

    /// Dense index of this event kind.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            IoEvent::Read => 0,
            IoEvent::Write => 1,
            IoEvent::CacheHit => 2,
            IoEvent::Alloc => 3,
            IoEvent::Free => 4,
            IoEvent::PoolEvict => 5,
        }
    }
}

/// What a read fetched, as the structure names it where it reads
/// ([`record_read`]); [`QueryTrace::reads_by_class`] is indexed by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadClass {
    /// A skeletal page or a B-tree's internal node: navigation.
    Skeletal,
    /// A directory read for itself alone (a spilled 3-sided directory).
    Directory,
    /// A path cache's block (A/S lists, bundles, a segment tree's stream) or
    /// a buffer.
    Cache,
    /// A node's own data: points pages, lists, run and cover blocks, leaves.
    Node,
}

impl ReadClass {
    /// Number of classes.
    pub const COUNT: usize = 4;
}

/// The I/O events observed inside one span (the per-span `IoStats` delta).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoDelta {
    /// Backend page reads.
    pub reads: u64,
    /// Backend page writes.
    pub writes: u64,
    /// Buffer-pool hits.
    pub cache_hits: u64,
    /// Page allocations.
    pub allocs: u64,
    /// Page frees.
    pub frees: u64,
    /// Buffer-pool evictions.
    pub pool_evictions: u64,
}

impl IoDelta {
    /// Builds a delta from two cumulative per-kind count arrays.
    #[inline]
    pub fn from_counts(now: &[u64; IoEvent::COUNT], start: &[u64; IoEvent::COUNT]) -> IoDelta {
        IoDelta {
            reads: now[0] - start[0],
            writes: now[1] - start[1],
            cache_hits: now[2] - start[2],
            allocs: now[3] - start[3],
            frees: now[4] - start[4],
            pool_evictions: now[5] - start[5],
        }
    }

    /// Total transfers (reads + writes) — the paper's cost unit.
    #[inline]
    pub fn total_io(&self) -> u64 {
        self.reads + self.writes
    }
}

impl fmt::Display for IoDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "r={} w={} hit={} alloc={} free={} evict={}",
            self.reads, self.writes, self.cache_hits, self.allocs, self.frees, self.pool_evictions
        )
    }
}

/// How a span's reads are classified in the paper's I/O taxonomy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SpanKind {
    /// Navigation: this span's own reads are *search* I/Os (paid to find
    /// output, never wasteful — e.g. a root-to-leaf descent).
    #[default]
    Nav,
    /// Output production: this span reports result items via [`add_items`];
    /// its own reads beyond `ceil`-free full blocks (`items / B`) are
    /// *wasteful* I/Os.
    Output,
}

/// Number of transfers that were wasteful: `reads` minus the full output
/// blocks accounted for by `items` results at `block_capacity` items per
/// block. This is the paper's §3 classification (a transfer is "useful" only
/// if it returns a full block of output), shared with
/// `IoStats::wasteful` in `pc-pagestore`.
///
/// `block_capacity == 0` is treated as 1 so the helper is total.
#[inline]
pub fn wasteful_transfers(reads: u64, items: u64, block_capacity: u64) -> u64 {
    reads.saturating_sub(items / block_capacity.max(1))
}

/// One finished span, with its subtree.
#[derive(Debug, Clone, Default)]
pub struct SpanNode {
    /// Static span name (e.g. `"level"`, `"path_cache_probe"`).
    pub name: &'static str,
    /// Numeric argument from [`span!`] (e.g. the tree depth), 0 if unused.
    pub arg: u64,
    /// Navigation vs output classification.
    pub kind: SpanKind,
    /// I/O events observed in this span *including* child spans.
    pub io: IoDelta,
    /// Reads attributed to this span itself (subtree reads minus reads that
    /// happened inside child spans).
    pub self_reads: u64,
    /// Output items reported via [`add_items`] while this span was innermost.
    pub items: u64,
    /// Effective output block capacity `B` (own setting, else inherited from
    /// the nearest enclosing span that called [`set_block_capacity`], else 1).
    pub block_capacity: u64,
    /// Child spans in open order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Wasteful transfers charged to this node alone (zero for `Nav` nodes).
    pub fn wasteful(&self) -> u64 {
        match self.kind {
            SpanKind::Output => wasteful_transfers(self.self_reads, self.items, self.block_capacity),
            SpanKind::Nav => 0,
        }
    }

    /// Subtree total of wasteful transfers.
    pub fn wasteful_ios(&self) -> u64 {
        self.wasteful() + self.children.iter().map(SpanNode::wasteful_ios).sum::<u64>()
    }

    /// Subtree total of search (navigation) reads.
    pub fn search_ios(&self) -> u64 {
        let own = match self.kind {
            SpanKind::Nav => self.self_reads,
            SpanKind::Output => 0,
        };
        own + self.children.iter().map(SpanNode::search_ios).sum::<u64>()
    }

    /// Subtree total of reported output items.
    pub fn output_items(&self) -> u64 {
        self.items + self.children.iter().map(SpanNode::output_items).sum::<u64>()
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(self.name);
        if self.arg != 0 {
            out.push_str(&format!("({})", self.arg));
        }
        let kind = match self.kind {
            SpanKind::Nav => "nav",
            SpanKind::Output => "out",
        };
        out.push_str(&format!(" [{kind}] io[{}] self_reads={}", self.io, self.self_reads));
        if self.kind == SpanKind::Output {
            out.push_str(&format!(
                " items={} B={} wasteful={}",
                self.items,
                self.block_capacity,
                self.wasteful()
            ));
        }
        out.push('\n');
        for c in &self.children {
            c.render_into(depth + 1, out);
        }
    }

    /// Indented multi-line rendering of the span tree.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.render_into(0, &mut s);
        s
    }
}

/// A finished root span, as handed back by [`TraceCapture::finish`].
#[derive(Debug, Clone)]
pub struct QueryTrace {
    /// Root span name.
    pub name: &'static str,
    /// Wall-clock duration of the root span, nanoseconds.
    pub latency_ns: u64,
    /// Total transfers (reads + writes) in the whole query.
    pub total_io: u64,
    /// Search (navigation) reads in the whole query.
    pub search_ios: u64,
    /// Wasteful transfers in the whole query.
    pub wasteful_ios: u64,
    /// Output items reported by the whole query.
    pub items: u64,
    /// Reads by [`ReadClass`] (`class as usize`): they sum to the root's
    /// logical reads, `io.reads + io.cache_hits`, when every read is named.
    pub reads_by_class: [u64; ReadClass::COUNT],
    /// The full span tree.
    pub root: SpanNode,
}

fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

impl QueryTrace {
    /// Human-readable "why was this query expensive" dump: a summary line
    /// followed by the indented span tree.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{}: io={} (search={}, wasteful={}) items={} latency={}\n",
            self.name,
            self.total_io,
            self.search_ios,
            self.wasteful_ios,
            self.items,
            fmt_ns(self.latency_ns)
        );
        s.push_str(&self.root.render());
        s
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, Default)]
pub struct HistogramSnapshot {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of recorded values (wrapping).
    pub sum: u64,
    /// Non-empty buckets as `(inclusive upper bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Approximate quantile: the inclusive upper bound of the first bucket
    /// whose cumulative count reaches `ceil(q · count)`. With power-of-two
    /// buckets the answer is within 2× of the true quantile, which is all a
    /// latency report needs. `q` is clamped to `[0, 1]`; returns 0 when the
    /// histogram is empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for &(le, c) in &self.buckets {
            cumulative += c;
            if cumulative >= rank {
                return le;
            }
        }
        self.buckets.last().map(|&(le, _)| le).unwrap_or(0)
    }

    /// Mean of recorded values, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Opens a span guard; the span closes (and records its I/O delta) when the
/// guard drops. Bind it to a named `_guard`-style variable — `let _ = ...`
/// would drop it immediately.
///
/// * `span!("name")` / `span!("name", arg)` — a [`SpanKind::Nav`] span.
/// * `span!(output: "name")` / `span!(output: "name", arg)` — a
///   [`SpanKind::Output`] span; report its result count with [`add_items`].
#[macro_export]
macro_rules! span {
    (output: $name:expr, $arg:expr) => {
        $crate::Span::enter($name, $crate::SpanKind::Output, $arg as u64)
    };
    (output: $name:expr) => {
        $crate::Span::enter($name, $crate::SpanKind::Output, 0)
    };
    ($name:expr, $arg:expr) => {
        $crate::Span::enter($name, $crate::SpanKind::Nav, $arg as u64)
    };
    ($name:expr) => {
        $crate::Span::enter($name, $crate::SpanKind::Nav, 0)
    };
}

/// Exposition names for the `pc-serve` service-layer metrics, collected
/// here so the server's own exposition, the benchmark, dashboards, and
/// tests never drift apart. All are monotonic totals unless noted; see
/// DESIGN.md "Service layer".
pub mod serve_metrics {
    /// Connections accepted by the listener.
    pub const CONNS_ACCEPTED: &str = "pc_serve_conns_accepted_total";
    /// Connections closed after the idle/read timeout expired.
    pub const CONNS_IDLE_CLOSED: &str = "pc_serve_conns_idle_closed_total";
    /// Well-formed requests received (admin + query + update).
    pub const REQUESTS: &str = "pc_serve_requests_total";
    /// Requests admitted into a work queue.
    pub const ADMITTED: &str = "pc_serve_admitted_total";
    /// Requests shed with `Overloaded` because a bounded queue was full.
    pub const OVERLOADED: &str = "pc_serve_overloaded_total";
    /// Requests rejected with `ShuttingDown` during drain.
    pub const SHED_SHUTDOWN: &str = "pc_serve_shed_shutdown_total";
    /// Requests answered with `DeadlineExceeded`.
    pub const DEADLINE_EXCEEDED: &str = "pc_serve_deadline_exceeded_total";
    /// Malformed or unroutable requests answered with `BadRequest`.
    pub const BAD_REQUESTS: &str = "pc_serve_bad_requests_total";
    /// Requests that failed in the storage layer (typed `Storage` errors).
    pub const STORAGE_ERRORS: &str = "pc_serve_storage_errors_total";
    /// Queries answered successfully.
    pub const QUERIES_OK: &str = "pc_serve_queries_ok_total";
    /// Updates acknowledged successfully.
    pub const UPDATES_OK: &str = "pc_serve_updates_ok_total";
    /// Update batches applied by the coalescing stage.
    pub const BATCHES: &str = "pc_serve_update_batches_total";
    /// Updates carried inside those batches (mean batch size =
    /// `BATCHED_UPDATES / BATCHES`).
    pub const BATCHED_UPDATES: &str = "pc_serve_batched_updates_total";
    /// Group commits driven by the batcher against a durable store (one
    /// WAL fsync each; an Ack is only sent after its group's commit).
    pub const GROUP_COMMITS: &str = "pc_serve_group_commits_total";
    /// Batches whose group commit failed — every update in the batch was
    /// answered with a storage error instead of an Ack.
    pub const COMMIT_FAILURES: &str = "pc_serve_commit_failures_total";
    /// Queue-to-response latency histogram for queries, nanoseconds.
    pub const QUERY_LATENCY: &str = "pc_serve_query_latency_ns";
    /// Queue-to-ack latency histogram for updates, nanoseconds.
    pub const UPDATE_LATENCY: &str = "pc_serve_update_latency_ns";
    /// Admission-to-dequeue wait histogram (queries and updates),
    /// nanoseconds — the time a job sat in a bounded queue.
    pub const QUEUE_WAIT: &str = "pc_serve_queue_wait_ns";
    /// Histogram of updates coalesced per batch (the batcher's §5 win; the
    /// `BATCHED_UPDATES / BATCHES` mean hides the distribution this shows).
    pub const BATCH_COALESCE: &str = "pc_serve_batch_coalesce";
    /// Request traces retained by the sampling plane (captures that
    /// finished with a root span and were offered to the slow-query log).
    pub const TRACES_RETAINED: &str = "pc_serve_traces_retained_total";
    /// Gauge: jobs currently waiting in the query queue.
    pub const QUERY_QUEUE_DEPTH: &str = "pc_serve_query_queue_depth";
    /// Gauge: jobs currently waiting in the update queue.
    pub const UPDATE_QUEUE_DEPTH: &str = "pc_serve_update_queue_depth";
    /// Gauge: the live trace-sampling rate (sample 1 in N; 0 = off).
    pub const TRACE_SAMPLE_EVERY: &str = "pc_serve_trace_sample_every";
    /// Traces ever offered to the slow-query log (retained or not).
    pub const SLOWLOG_OFFERED: &str = "pc_serve_slowlog_offered_total";
}

/// Exposition names for the per-target (per-tenant-namespace) metric
/// families the server renders with a `{target="name"}` label. Collected
/// here (like [`serve_metrics`]) so the exposition, the structured ADMIN
/// `Stats` form, the load generator, and the tests never drift apart.
pub mod target_metrics {
    /// Well-formed requests routed at this target (admitted or shed).
    pub const REQUESTS: &str = "pc_target_requests_total";
    /// Queries this target answered successfully.
    pub const QUERIES_OK: &str = "pc_target_queries_ok_total";
    /// Updates this target acknowledged successfully.
    pub const UPDATES_OK: &str = "pc_target_updates_ok_total";
    /// Requests at this target answered with any error.
    pub const ERRORS: &str = "pc_target_errors_total";
    /// Per-target execution latency histogram, nanoseconds.
    pub const LATENCY: &str = "pc_target_latency_ns";
    /// Update batches applied against this target.
    pub const BATCHES: &str = "pc_target_update_batches_total";
    /// Updates carried inside those batches.
    pub const BATCHED_UPDATES: &str = "pc_target_batched_updates_total";
    /// Sampled request traces retained for this target.
    pub const TRACES: &str = "pc_target_traces_total";
    /// Total transfers observed inside this target's sampled traces.
    pub const TRACED_IO: &str = "pc_target_traced_io_total";
    /// §3 wasteful transfers observed inside this target's sampled traces.
    pub const TRACED_WASTEFUL: &str = "pc_target_traced_wasteful_io_total";
}

/// Exposition names for the per-shard metric families the `pc-serve`
/// router renders with a `{shard="i"}` label (one logical shard = one
/// replica group). Collected here (like [`target_metrics`]) so the
/// router's exposition, its ADMIN scrape, the cluster load generator, and
/// the tests never drift apart. All are monotonic totals unless noted;
/// see DESIGN.md "Shard fabric".
pub mod shard_metrics {
    /// Requests (queries + updates) routed at this shard.
    pub const REQUESTS: &str = "pc_shard_requests_total";
    /// Reads failed over to another replica after a connection error or
    /// deadline on the first choice.
    pub const FAILOVERS: &str = "pc_shard_failovers_total";
    /// Idempotent-query retry attempts made after backoff.
    pub const RETRIES: &str = "pc_shard_retries_total";
    /// Requests answered with a typed error (the shard's own
    /// `Overloaded`/`DeadlineExceeded`/... propagated through the router).
    pub const ERRORS: &str = "pc_shard_errors_total";
    /// Journal entries replayed into replicas catching up after a
    /// reconnect.
    pub const REPLAYED: &str = "pc_shard_replayed_updates_total";
    /// Replica reconnects completed by the background health loop.
    pub const RECONNECTS: &str = "pc_shard_reconnects_total";
    /// Gauge: replicas currently marked dead in this shard's group.
    pub const DEAD_REPLICAS: &str = "pc_shard_dead_replicas";
    /// Gauge: entries currently retained in the shard's acked-update
    /// journal (the suffix above the truncation base).
    pub const JOURNAL_LEN: &str = "pc_shard_journal_len";
    /// Journal entries dropped after every replica in the group caught up
    /// past them (the truncation that keeps a long-running fleet's journal
    /// bounded).
    pub const JOURNAL_TRUNCATED: &str = "pc_shard_journal_truncated";
    /// Per-shard request latency histogram (scatter leg, send to
    /// gathered response), nanoseconds.
    pub const LATENCY: &str = "pc_shard_latency_ns";
}

/// Exposition names for the store-level families the server renders from
/// the shared `PageStore`: its `IoStats`, its `WalStats` and the WAL's
/// group-commit size histogram.
pub mod store_metrics {
    /// WAL group entries made (one per durable alloc or free) plus records
    /// appended.
    pub const WAL_APPENDS: &str = "pc_store_wal_appends_total";
    /// Successful group commits.
    pub const WAL_COMMITS: &str = "pc_store_wal_commits_total";
    /// `fsync`s issued against the log medium.
    pub const WAL_FSYNCS: &str = "pc_store_wal_fsyncs_total";
    /// Checkpoints installed.
    pub const WAL_CHECKPOINTS: &str = "pc_store_wal_checkpoints_total";
    /// Entries and commits replayed by recovery on open.
    pub const WAL_REPLAYED: &str = "pc_store_wal_replayed_records_total";
    /// Gauge: current log length in bytes.
    pub const WAL_LOG_BYTES: &str = "pc_store_wal_log_bytes";
    /// Histogram of entries made durable per group commit.
    pub const WAL_GROUP_COMMIT_RECORDS: &str = "pc_store_wal_group_commit_records";
    /// Gauge (scaled ×10⁶): buffer-pool hit ratio `hits / (hits + reads)`.
    pub const POOL_HIT_RATIO_PPM: &str = "pc_store_pool_hit_ratio_ppm";
}

/// Exposition names for the partial-persistence (versioning / snapshot
/// isolation) subsystem in `pc-pagestore`'s `version` module. Collected
/// here (like [`store_metrics`]) so the emitting code, the serve layer's
/// exposition, and the snapshot test suites never drift apart. All are
/// monotonic totals unless noted; see DESIGN.md "Versioning & snapshot
/// isolation".
pub mod version_metrics {
    /// Epochs installed (one per applied update batch on a versioned store).
    pub const EPOCHS_INSTALLED: &str = "pc_version_epochs_installed_total";
    /// Gauge: epochs currently retained (pinned or within the retention
    /// window) and therefore addressable by `as_of`.
    pub const EPOCHS_RETAINED: &str = "pc_version_epochs_retained";
    /// Superseded copy-on-write pages reclaimed by epoch GC.
    pub const PAGES_RECLAIMED: &str = "pc_version_reclaimed_pages_total";
    /// Gauge: snapshots currently pinning an epoch.
    pub const SNAPSHOTS_PINNED: &str = "pc_version_pinned_snapshots";
    /// Gauge: age of the oldest pinned epoch, in epochs behind current
    /// (0 when nothing is pinned or only the current epoch is).
    pub const OLDEST_PIN_AGE: &str = "pc_version_oldest_pin_age_epochs";
}

mod hist;
mod metrics;
pub mod sample;
pub mod slowlog;
mod trace;

pub use hist::{Counter, Histogram};
pub use metrics::{render_text, stat_pairs, Sample, Summary, Value};
pub use trace::{add_items, begin_trace, record_io, record_read, set_block_capacity, traced};
pub use trace::{Span, TraceCapture};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wasteful_transfers_matches_paper_taxonomy() {
        // A transfer is useful only when it returns a full block of output.
        assert_eq!(wasteful_transfers(0, 0, 170), 0);
        assert_eq!(wasteful_transfers(1, 0, 170), 1); // empty block: wasteful
        assert_eq!(wasteful_transfers(1, 169, 170), 1); // underfull block: wasteful
        assert_eq!(wasteful_transfers(1, 170, 170), 0); // full block: useful
        assert_eq!(wasteful_transfers(3, 2 * 170 + 5, 170), 1); // 2 full + 1 tail
        assert_eq!(wasteful_transfers(3, 3 * 170, 170), 0);
        // More full blocks than reads (items over-reported): saturates at 0.
        assert_eq!(wasteful_transfers(1, 1000 * 170, 170), 0);
        // Degenerate capacity is treated as 1.
        assert_eq!(wasteful_transfers(5, 3, 0), 2);
    }

    #[test]
    fn io_delta_from_counts_and_display() {
        let start = [1, 2, 3, 4, 5, 6];
        let now = [11, 12, 13, 14, 15, 16];
        let d = IoDelta::from_counts(&now, &start);
        assert_eq!(
            d,
            IoDelta {
                reads: 10,
                writes: 10,
                cache_hits: 10,
                allocs: 10,
                frees: 10,
                pool_evictions: 10
            }
        );
        assert_eq!(d.total_io(), 20);
        assert_eq!(d.to_string(), "r=10 w=10 hit=10 alloc=10 free=10 evict=10");
    }

    #[test]
    fn span_node_taxonomy_sums() {
        let leaf_out = SpanNode {
            name: "list_scan",
            arg: 0,
            kind: SpanKind::Output,
            io: IoDelta { reads: 3, ..IoDelta::default() },
            self_reads: 3,
            items: 2 * 4, // two full blocks at B=4, one empty tail read
            block_capacity: 4,
            children: Vec::new(),
        };
        let root = SpanNode {
            name: "query",
            arg: 0,
            kind: SpanKind::Nav,
            io: IoDelta { reads: 5, ..IoDelta::default() },
            self_reads: 2,
            items: 0,
            block_capacity: 1,
            children: vec![leaf_out],
        };
        assert_eq!(root.search_ios(), 2);
        assert_eq!(root.wasteful_ios(), 1);
        assert_eq!(root.output_items(), 8);
        let text = root.render();
        assert!(text.contains("query [nav]"), "{text}");
        assert!(text.contains("list_scan [out]"), "{text}");
        assert!(text.contains("wasteful=1"), "{text}");
    }

    #[test]
    fn histogram_snapshot_quantiles() {
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
        assert_eq!(HistogramSnapshot::default().mean(), 0.0);
        // 10 observations: 8 in the ≤7 bucket, 2 in the ≤1023 bucket.
        let h = Histogram::default();
        for _ in 0..8 {
            h.record(5);
        }
        h.record(600);
        h.record(900);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.0), 7);
        assert_eq!(s.quantile(0.5), 7);
        assert_eq!(s.quantile(0.8), 7);
        assert_eq!(s.quantile(0.9), 1023);
        assert_eq!(s.quantile(0.99), 1023);
        assert_eq!(s.quantile(1.0), 1023);
        // Out-of-range q is clamped.
        assert_eq!(s.quantile(7.0), 1023);
        assert_eq!(s.quantile(-1.0), 7);
        assert!((s.mean() - 154.0).abs() < 1e-9);
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5us");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_ns(1_250_000_000), "1.25s");
    }
}
