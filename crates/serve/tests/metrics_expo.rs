//! S3: the ADMIN metrics path. A minimal Prometheus text-format parser
//! validates the exposition round-trips (every sample belongs to a typed
//! family, histogram buckets are cumulative, `+Inf` equals `_count`), the
//! structured `Stats` pairs agree with the rendered text value-for-value,
//! and per-target families appear and disappear with registration.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use pc_pagestore::{PageStore, Point};
use pc_pst::{DynamicPst, NaivePst};
use pc_serve::wire::{Body, Op};
use pc_serve::{
    Client, DynamicPstTarget, NaivePstTarget, Registry, Server, ServerConfig, Service,
};

const PAGE: usize = 512;

fn points(n: i64) -> Vec<Point> {
    (0..n).map(|i| Point { x: i, y: (i * 37) % n, id: i as u64 }).collect()
}

/// `names[0]` is a dynamic PST, the rest are static naive PSTs.
fn spawn_on(store: PageStore, names: &[&str]) -> pc_serve::ServerHandle {
    let store = Arc::new(store);
    let pts = points(500);
    let mut registry = Registry::new();
    for (i, name) in names.iter().enumerate() {
        if i == 0 {
            let pst = DynamicPst::build(&store, &pts).unwrap();
            registry.register(*name, Box::new(DynamicPstTarget::new(pst)));
        } else {
            let naive = NaivePst::build(&store, &pts).unwrap();
            registry.register(*name, Box::new(NaivePstTarget(naive)));
        }
    }
    let cfg = ServerConfig { workers: 2, ..ServerConfig::default() };
    Server::spawn(Service { store, registry }, cfg).unwrap()
}

fn spawn(names: &[&str]) -> pc_serve::ServerHandle {
    spawn_on(PageStore::in_memory(PAGE), names)
}

fn connect(handle: &pc_serve::ServerHandle) -> Client {
    Client::connect(handle.addr(), Duration::from_secs(10)).unwrap()
}

fn fetch_metrics(c: &mut Client) -> String {
    match c.metrics().unwrap().body {
        Body::Metrics(text) => text,
        other => panic!("unexpected body {other:?}"),
    }
}

fn fetch_stats(c: &mut Client) -> Vec<(String, u64)> {
    match c.stats().unwrap().body {
        Body::Stats(pairs) => pairs,
        other => panic!("unexpected body {other:?}"),
    }
}

/// One parsed exposition: family types plus every sample, keyed by its
/// full name including the label set, exactly as written.
struct Parsed {
    types: BTreeMap<String, String>,
    samples: BTreeMap<String, f64>,
}

/// Parses the Prometheus text format the server emits; panics on any line
/// that is neither a `# TYPE` declaration nor a `name[{labels}] value`
/// sample — that panic *is* the well-formedness assertion.
fn parse_prometheus(text: &str) -> Parsed {
    let mut types = BTreeMap::new();
    let mut samples = BTreeMap::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let family = it.next().expect("family name").to_string();
            let kind = it.next().expect("family kind").to_string();
            assert!(
                matches!(kind.as_str(), "counter" | "gauge" | "histogram"),
                "unknown type {kind:?} in {line:?}"
            );
            assert!(types.insert(family, kind).is_none(), "duplicate TYPE: {line:?}");
            continue;
        }
        if line.starts_with('#') {
            // Plain comments are legal in the text format; only `# TYPE`
            // is load-bearing here.
            continue;
        }
        let (name, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad line {line:?}"));
        let value = if value == "+Inf" {
            f64::INFINITY
        } else {
            value.parse::<f64>().unwrap_or_else(|_| panic!("bad value in {line:?}"))
        };
        assert!(samples.insert(name.to_string(), value).is_none(), "duplicate sample {line:?}");
    }
    Parsed { types, samples }
}

impl Parsed {
    /// The declared family a sample belongs to (strips histogram suffixes
    /// and the label set).
    fn family_of<'a>(&'a self, sample: &'a str) -> Option<&'a str> {
        let base = sample.split('{').next().unwrap();
        for candidate in [base, base.strip_suffix("_bucket").unwrap_or(base)] {
            if self.types.contains_key(candidate) {
                return Some(candidate);
            }
        }
        for suffix in ["_sum", "_count"] {
            if let Some(stripped) = base.strip_suffix(suffix) {
                if self.types.get(stripped).map(String::as_str) == Some("histogram") {
                    return Some(stripped);
                }
            }
        }
        None
    }
}

#[test]
fn exposition_is_well_formed_and_internally_consistent() {
    let handle = spawn(&["dyn", "naive"]);
    let mut c = connect(&handle);
    for i in 0..10 {
        c.call(0, 0, Op::TwoSided { x0: i * 10, y0: 0 }).unwrap();
    }
    c.insert(0, Point { x: -1, y: 0, id: 999_999 }).unwrap();

    let parsed = parse_prometheus(&fetch_metrics(&mut c));
    assert!(!parsed.types.is_empty() && !parsed.samples.is_empty());

    // Every sample belongs to a declared family.
    for name in parsed.samples.keys() {
        assert!(parsed.family_of(name).is_some(), "sample {name:?} has no TYPE declaration");
    }

    // Histogram integrity: buckets are cumulative (non-decreasing in `le`
    // order as emitted) and the +Inf bucket equals `_count`.
    for (family, kind) in &parsed.types {
        if kind != "histogram" {
            continue;
        }
        let buckets: Vec<(&String, f64)> = parsed
            .samples
            .iter()
            .filter(|(n, _)| n.starts_with(&format!("{family}_bucket")))
            .map(|(n, &v)| (n, v))
            .collect();
        // Group by label set minus `le` so per-target histograms check per
        // target. The exposition emits buckets in ascending-le order and
        // BTreeMap resorts them, so recheck via the le value itself.
        let mut by_series: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
        for (name, v) in buckets {
            let labels = name.split_once('{').map(|(_, l)| l).unwrap_or("");
            let le = labels
                .split(&['{', ',', '}'][..])
                .find_map(|kv| kv.strip_prefix("le=\""))
                .map(|s| s.trim_end_matches('"'))
                .unwrap_or_else(|| panic!("bucket without le: {name:?}"));
            let le = if le == "+Inf" { f64::INFINITY } else { le.parse().unwrap() };
            let series = labels
                .split(',')
                .filter(|kv| !kv.starts_with("le="))
                .collect::<Vec<_>>()
                .join(",");
            by_series.entry(series).or_default().push((le, v));
        }
        for (series, mut buckets) in by_series {
            buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in buckets.windows(2) {
                assert!(
                    w[0].1 <= w[1].1,
                    "{family}{{{series}}}: bucket counts not cumulative: {buckets:?}"
                );
            }
            let (last_le, last) = *buckets.last().unwrap();
            assert_eq!(last_le, f64::INFINITY, "{family}{{{series}}} missing +Inf");
            let count_name = if series.is_empty() {
                format!("{family}_count")
            } else {
                format!("{family}_count{{{series}}}")
            };
            let count = parsed.samples[&count_name];
            assert_eq!(last, count, "{family}{{{series}}}: +Inf bucket != _count");
        }
    }
    handle.join();
}

#[test]
fn structured_stats_match_the_rendered_text() {
    let handle = spawn(&["dyn", "naive"]);
    let mut c = connect(&handle);
    for i in 0..8 {
        c.call(i % 2, 0, Op::TwoSided { x0: 0, y0: (i as i64) * 50 }).unwrap();
    }

    // Both scrapes happen with no traffic in flight, so shared counters
    // cannot move between them.
    let pairs = fetch_stats(&mut c);
    let parsed = parse_prometheus(&fetch_metrics(&mut c));

    // Every structured pair whose key appears verbatim as a text sample
    // must carry the identical value — the binary form *is* the text form.
    let mut compared = 0;
    for (name, value) in &pairs {
        if let Some(&text_value) = parsed.samples.get(name) {
            // The scrapes observe themselves: the Metrics request is one
            // more well-formed request than the Stats snapshot saw.
            let expected = if name == "pc_serve_requests_total" { value + 1 } else { *value };
            assert_eq!(expected as f64, text_value, "{name} disagrees between Stats and Metrics");
            compared += 1;
        }
    }
    // The overlap includes the service counters and the labelled
    // per-target families; make sure the comparison had teeth.
    assert!(compared >= 20, "only {compared} overlapping names");
    assert!(parsed.samples.contains_key("pc_target_requests_total{target=\"dyn\"}"));
    assert!(pairs.iter().any(|(k, _)| k == "pc_target_requests_total{target=\"dyn\"}"));
    handle.join();
}

#[test]
fn per_target_families_follow_registration() {
    // Two targets registered → exactly two labelled samples per family.
    let handle = spawn(&["alpha", "beta"]);
    let mut c = connect(&handle);
    let parsed = parse_prometheus(&fetch_metrics(&mut c));
    let labels_of = |parsed: &Parsed, family: &str| -> Vec<String> {
        parsed
            .samples
            .keys()
            .filter_map(|n| n.strip_prefix(&format!("{family}{{target=\"")))
            .map(|rest| rest.split('"').next().unwrap().to_string())
            .collect()
    };
    assert_eq!(labels_of(&parsed, "pc_target_requests_total"), vec!["alpha", "beta"]);
    assert_eq!(labels_of(&parsed, "pc_target_latency_ns_count"), vec!["alpha", "beta"]);
    handle.join();

    // One target registered → the other family member is gone, and the
    // TYPE line is still present exactly once.
    let handle = spawn(&["solo"]);
    let mut c = connect(&handle);
    let parsed = parse_prometheus(&fetch_metrics(&mut c));
    assert_eq!(labels_of(&parsed, "pc_target_requests_total"), vec!["solo"]);
    assert!(parsed.types.contains_key("pc_target_requests_total"));
    assert!(!parsed.samples.keys().any(|n| n.contains("target=\"alpha\"")));
    handle.join();
}

/// The service the wire contract is pinned on: a durable store (so the
/// `pc_store_wal_*` families exist) under one dynamic and one static target.
fn spawn_durable() -> pc_serve::ServerHandle {
    spawn_on(PageStore::in_memory_durable(PAGE).0, &["dyn", "naive"])
}

/// Every unlabelled name the ADMIN `Stats` body carries for that service —
/// the wire contract `benchmark/` and dashboards read by name.
const STATS_NAMES: &[&str] = &[
    "io_allocs",
    "io_cache_hits",
    "io_frees",
    "io_pool_evictions",
    "io_reads",
    "io_writes",
    "pc_serve_admitted_total",
    "pc_serve_bad_requests_total",
    "pc_serve_batch_coalesce_count",
    "pc_serve_batch_coalesce_p50",
    "pc_serve_batched_updates_total",
    "pc_serve_commit_failures_total",
    "pc_serve_conns_accepted_total",
    "pc_serve_conns_idle_closed_total",
    "pc_serve_deadline_exceeded_total",
    "pc_serve_group_commits_total",
    "pc_serve_overloaded_total",
    "pc_serve_queries_ok_total",
    "pc_serve_query_p50_ns",
    "pc_serve_query_p99_ns",
    "pc_serve_query_queue_depth",
    "pc_serve_queue_wait_p50_ns",
    "pc_serve_queue_wait_p99_ns",
    "pc_serve_requests_total",
    "pc_serve_shed_shutdown_total",
    "pc_serve_slowlog_offered_total",
    "pc_serve_storage_errors_total",
    "pc_serve_trace_sample_every",
    "pc_serve_traces_retained_total",
    "pc_serve_update_batches_total",
    "pc_serve_update_p50_ns",
    "pc_serve_update_p99_ns",
    "pc_serve_update_queue_depth",
    "pc_serve_updates_ok_total",
    "pc_store_pool_hit_ratio_ppm",
    "pc_store_wal_appends_total",
    "pc_store_wal_checkpoints_total",
    "pc_store_wal_commits_total",
    "pc_store_wal_fsyncs_total",
    "pc_store_wal_group_commit_records_count",
    "pc_store_wal_group_commit_records_p50",
    "pc_store_wal_log_bytes",
    "pc_store_wal_replayed_records_total",
    "pc_version_epochs_installed_total",
    "pc_version_epochs_retained",
    "pc_version_oldest_pin_age_epochs",
    "pc_version_pinned_snapshots",
    "pc_version_reclaimed_pages_total",
];

/// …and the names it carries once per target, as `name{target="…"}`.
const STATS_NAMES_PER_TARGET: &[&str] = &[
    "pc_target_batched_updates_total",
    "pc_target_errors_total",
    "pc_target_latency_ns_count",
    "pc_target_latency_ns_p50",
    "pc_target_latency_ns_p99",
    "pc_target_queries_ok_total",
    "pc_target_requests_total",
    "pc_target_traced_io_total",
    "pc_target_traced_wasteful_io_total",
    "pc_target_traces_total",
    "pc_target_update_batches_total",
    "pc_target_updates_ok_total",
];

#[test]
fn stats_names_are_the_pinned_wire_contract() {
    let handle = spawn_durable();
    let mut c = connect(&handle);
    let mut names: Vec<String> = fetch_stats(&mut c).into_iter().map(|(k, _)| k).collect();
    names.sort();
    let mut pinned: Vec<String> = STATS_NAMES.iter().map(|n| n.to_string()).collect();
    for target in ["dyn", "naive"] {
        let labelled = |n: &&str| format!("{n}{{target=\"{target}\"}}");
        pinned.extend(STATS_NAMES_PER_TARGET.iter().map(labelled));
    }
    pinned.sort();
    assert_eq!(names, pinned, "the Stats name set moved");
    handle.join();
}

/// `family → type` for every row of DESIGN §11's metrics catalogue.
fn design_catalogue() -> BTreeMap<String, String> {
    let design = include_str!("../../../DESIGN.md");
    let mut rows = BTreeMap::new();
    for line in design.lines().filter(|l| l.starts_with("| `pc_")) {
        let cols: Vec<&str> = line.split('|').map(str::trim).collect();
        let family = cols[1].trim_matches('`').to_string();
        assert!(
            rows.insert(family, cols[2].to_string()).is_none(),
            "catalogue lists a family twice: {line}"
        );
    }
    rows
}

/// DESIGN §11's catalogue is the `# TYPE` set of a live scrape, in both
/// directions: a family nobody documented fails here, and so does a row
/// whose family nothing emits any more.
#[test]
fn type_set_equals_the_design_catalogue() {
    let handle = spawn_durable();
    let mut c = connect(&handle);
    let mut scraped = parse_prometheus(&fetch_metrics(&mut c)).types;

    let shards = [spawn(&["dyn"]), spawn(&["dyn"])];
    let router = pc_serve::Router::connect(
        &[vec![shards[0].addr()], vec![shards[1].addr()]],
        vec![250],
        pc_serve::RouterConfig::default(),
    )
    .unwrap();
    let shard_types = parse_prometheus(&router.render_metrics()).types;
    assert!(shard_types.keys().all(|f| f.starts_with("pc_shard_")), "{shard_types:?}");
    scraped.extend(shard_types);
    router.shutdown();

    assert_eq!(scraped, design_catalogue());
    handle.join();
    for shard in shards {
        shard.join();
    }
}
