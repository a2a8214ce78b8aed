//! Acceptance tests for the request-scoped tracing plane, end to end over
//! real sockets: mixed traffic at two targets, the slow-query log catching
//! an injected naive-PST pathology (the paper's Figure 3 — long search
//! path, tiny output) with a full span tree whose §3 wasteful-transfer
//! count matches the value measured in-process, per-target Prometheus
//! families with exact request counts, and deterministic 1-in-N sampling
//! that thins retained traces without touching the aggregate counters.

use std::sync::Arc;
use std::time::Duration;

use pc_obs::sample::Sampler;
use pc_pagestore::{PageStore, Point};
use pc_pst::{DynamicPst, NaivePst};
use pc_serve::wire::{Body, Op};
use pc_serve::{
    Client, DynamicPstTarget, NaivePstTarget, Registry, Server, ServerConfig, Service,
    FLAG_TRACE, RANKED_BY_LATENCY, RANKED_BY_WASTE,
};

const PAGE: usize = 512;
const N: i64 = 2_000;

fn points(n: i64) -> Vec<Point> {
    (0..n).map(|i| Point { x: i, y: (i * 37) % n, id: i as u64 }).collect()
}

/// One point qualifies, but the naive structure still reads a block per
/// path node — the Figure 3 pathology the slow log must surface.
const PATHOLOGICAL: Op = Op::TwoSided { x0: N - 1, y0: 0 };

/// Target 0 "dyn" (healthy) and target 1 "naive" (the pathology baseline)
/// over one shared store.
fn two_target_service(n: i64) -> Service {
    let store = Arc::new(PageStore::in_memory(PAGE));
    let pts = points(n);
    let mut registry = Registry::new();
    let pst = DynamicPst::build(&store, &pts).unwrap();
    registry.register("dyn", Box::new(DynamicPstTarget::new(pst)));
    let naive = NaivePst::build(&store, &pts).unwrap();
    registry.register("naive", Box::new(NaivePstTarget(naive)));
    Service { store, registry }
}

fn config() -> ServerConfig {
    ServerConfig { workers: 2, idle_timeout: Duration::from_secs(10), ..ServerConfig::default() }
}

fn connect(handle: &pc_serve::ServerHandle) -> Client {
    Client::connect(handle.addr(), Duration::from_secs(10)).unwrap()
}

/// Runs `op` against `target` in-process under a trace capture, mirroring
/// the server's execution (same root span name), and returns the §3
/// accounting the server must reproduce bit-for-bit.
fn measure_in_process(service: &Service, target: u16, op: &Op) -> pc_obs::QueryTrace {
    let capture = pc_obs::begin_trace();
    {
        let _span = pc_obs::span!("serve_query", 0u64);
        service.registry.get(target).unwrap().query(&service.store, op).unwrap();
    }
    capture.finish().expect("in-process query produced a trace")
}

#[test]
fn slow_log_catches_the_pathological_query_with_section3_waste() {
    let service = two_target_service(N);
    // The expected §3 numbers, measured in-process on the very store the
    // server will serve (an in-memory store has no cache state, so the
    // read pattern is a pure function of the structure and the query).
    let expected = measure_in_process(&service, 1, &PATHOLOGICAL);
    assert!(expected.wasteful_ios > 0, "the pathology must waste transfers: {expected:?}");
    assert!(expected.total_io > expected.wasteful_ios, "some reads are search I/O");

    let handle = Server::spawn(service, config()).unwrap();
    let mut c = connect(&handle);

    // Mixed traffic: healthy queries at both targets (untraced — sampling
    // is off), then the pathological query with FLAG_TRACE forcing its
    // capture.
    for i in 0..20 {
        let q = Op::TwoSided { x0: i * 90, y0: (i * 37) % N };
        assert!(!matches!(c.call(0, 0, q.clone()).unwrap().body, Body::Error { .. }));
        assert!(!matches!(c.call(1, 0, q).unwrap().body, Body::Error { .. }));
    }
    let resp = c.call_flags(1, 0, FLAG_TRACE, PATHOLOGICAL).unwrap();
    let pathological_id = resp.id;
    match resp.body {
        Body::Points(ps) => assert_eq!(ps.len(), 1),
        other => panic!("unexpected body {other:?}"),
    }

    // The slow log's top entry is the injected query, ranked under both
    // orderings (it is the only retained trace), with the full span tree.
    let entries = match c.slow_log(8, false).unwrap().body {
        Body::SlowLog(entries) => entries,
        other => panic!("unexpected body {other:?}"),
    };
    assert_eq!(entries.len(), 1, "exactly one trace was captured: {entries:?}");
    let top = &entries[0];
    assert_eq!(top.request_id, pathological_id);
    assert_eq!(top.op, "two_sided");
    assert_eq!(top.target, "naive");
    assert_eq!(top.rankings, RANKED_BY_LATENCY | RANKED_BY_WASTE);
    assert!(top.latency_ns > 0);

    // §3 accounting matches the in-process measurement exactly.
    assert_eq!(top.wasteful_ios, expected.wasteful_ios);
    assert_eq!(top.total_io, expected.total_io);
    assert_eq!(top.search_ios, expected.search_ios);
    assert_eq!(top.items, expected.items);

    // The span tree arrived whole: preorder starts at the server's root
    // span, per-node wasteful counts sum to the entry total, and the
    // output spans carry the block capacity the classification used.
    assert!(top.spans.len() > 2, "expected a real tree, got {:?}", top.spans);
    assert_eq!(top.spans[0].name, "serve_query");
    assert_eq!(top.spans[0].depth, 0);
    assert_eq!(top.spans[1].depth, 1, "children follow their parent in preorder");
    assert_eq!(top.spans.iter().map(|s| s.wasteful).sum::<u64>(), expected.wasteful_ios);
    assert!(top.spans.iter().any(|s| s.output && s.wasteful > 0), "{:?}", top.spans);

    // Draining: `clear` empties the rankings but keeps the offered count.
    match c.slow_log(8, true).unwrap().body {
        Body::SlowLog(entries) => assert_eq!(entries.len(), 1),
        other => panic!("unexpected body {other:?}"),
    }
    match c.slow_log(8, false).unwrap().body {
        Body::SlowLog(entries) => assert!(entries.is_empty()),
        other => panic!("unexpected body {other:?}"),
    }
    match c.stats().unwrap().body {
        Body::Stats(pairs) => {
            let get = |n: &str| pairs.iter().find(|(k, _)| k == n).map(|&(_, v)| v).unwrap();
            assert_eq!(get("pc_serve_slowlog_offered_total"), 1);
            assert_eq!(get("pc_serve_traces_retained_total"), 1);
        }
        other => panic!("unexpected body {other:?}"),
    }
    handle.join();
}

#[test]
fn per_target_families_report_exact_request_counts() {
    let handle = Server::spawn(two_target_service(N), config()).unwrap();
    let mut c = connect(&handle);

    // Exact, distinct request counts per target: 7 queries at dyn (plus 3
    // inserts — updates count as routed requests too), 5 at naive.
    for i in 0..7 {
        c.call(0, 0, Op::TwoSided { x0: i * 100, y0: 0 }).unwrap();
    }
    for i in 0..3u64 {
        let p = Point { x: -(i as i64) - 1, y: 0, id: 1_000_000 + i };
        assert!(matches!(c.insert(0, p).unwrap().body, Body::Ack { .. }));
    }
    for i in 0..5 {
        c.call(1, 0, Op::TwoSided { x0: i * 100, y0: 0 }).unwrap();
    }

    let text = match c.metrics().unwrap().body {
        Body::Metrics(text) => text,
        other => panic!("unexpected body {other:?}"),
    };
    let sample = |line: &str| {
        text.lines()
            .find(|l| l.starts_with(line))
            .unwrap_or_else(|| panic!("missing {line} in:\n{text}"))
            .rsplit(' ')
            .next()
            .unwrap()
            .parse::<u64>()
            .unwrap()
    };
    assert_eq!(sample("pc_target_requests_total{target=\"dyn\"} "), 10);
    assert_eq!(sample("pc_target_requests_total{target=\"naive\"} "), 5);
    assert_eq!(sample("pc_target_queries_ok_total{target=\"dyn\"} "), 7);
    assert_eq!(sample("pc_target_queries_ok_total{target=\"naive\"} "), 5);
    assert_eq!(sample("pc_target_updates_ok_total{target=\"dyn\"} "), 3);
    assert_eq!(sample("pc_target_updates_ok_total{target=\"naive\"} "), 0);
    assert_eq!(sample("pc_target_errors_total{target=\"dyn\"} "), 0);

    // The structured (binary Stats) form carries the same families with
    // the same labelled keys and identical values.
    match c.stats().unwrap().body {
        Body::Stats(pairs) => {
            let get = |n: &str| pairs.iter().find(|(k, _)| k == n).map(|&(_, v)| v).unwrap();
            assert_eq!(get("pc_target_requests_total{target=\"dyn\"}"), 10);
            assert_eq!(get("pc_target_requests_total{target=\"naive\"}"), 5);
            assert_eq!(get("pc_target_updates_ok_total{target=\"dyn\"}"), 3);
            assert!(get("pc_target_latency_ns_count{target=\"dyn\"}") >= 7);
        }
        other => panic!("unexpected body {other:?}"),
    }
    handle.join();
}

/// Runs the same fixed workload against a fresh server configured to trace
/// 1 in `every` requests; returns (request ids seen, retained traces,
/// queries_ok, per-target requests at dyn).
fn run_sampled_workload(every: u64) -> (Vec<u64>, u64, u64, u64) {
    let cfg = ServerConfig { trace_sample: every, ..config() };
    let handle = Server::spawn(two_target_service(200), cfg).unwrap();
    let mut c = connect(&handle);
    let mut ids = Vec::new();
    for i in 0..60 {
        let resp = c.call(0, 0, Op::TwoSided { x0: (i % 20) * 10, y0: 0 }).unwrap();
        assert!(!matches!(resp.body, Body::Error { .. }));
        ids.push(resp.id);
    }
    let (retained, ok, dyn_requests) = match c.stats().unwrap().body {
        Body::Stats(pairs) => {
            let get = |n: &str| pairs.iter().find(|(k, _)| k == n).map(|&(_, v)| v).unwrap();
            (
                get("pc_serve_traces_retained_total"),
                get("pc_serve_queries_ok_total"),
                get("pc_target_requests_total{target=\"dyn\"}"),
            )
        }
        other => panic!("unexpected body {other:?}"),
    };
    handle.join();
    (ids, retained, ok, dyn_requests)
}

#[test]
fn sampling_thins_retained_traces_but_not_aggregate_counters() {
    let every = 4u64;
    let (ids_all, retained_all, ok_all, req_all) = run_sampled_workload(1);
    let (ids_sampled, retained_sampled, ok_sampled, req_sampled) = run_sampled_workload(every);

    // Identical workload (client ids are deterministic per connection).
    assert_eq!(ids_all, ids_sampled);
    assert_eq!(retained_all, 60, "sample=1 traces everything");

    // The sampled set is the deterministic function of (seed, id) the
    // server's sampler computes — reproduce it exactly.
    let sampler = Sampler::new(every, pc_serve::server::TRACE_SEED);
    let expected: u64 = ids_sampled.iter().filter(|&&id| sampler.should_sample(id)).count() as u64;
    assert_eq!(retained_sampled, expected);
    // ~N× fewer retained traces (loose band: the sampler is hash-based).
    assert!(
        retained_sampled <= retained_all / 2,
        "1-in-{every} sampling retained {retained_sampled}/{retained_all}"
    );

    // Aggregate counters are identical whether or not requests were traced.
    assert_eq!(ok_all, ok_sampled);
    assert_eq!(req_all, req_sampled);
}

#[test]
fn set_sampling_retunes_the_live_server() {
    let handle = Server::spawn(two_target_service(200), config()).unwrap();
    let mut c = connect(&handle);

    // Off by default: nothing retained.
    for _ in 0..10 {
        c.call(0, 0, Op::TwoSided { x0: 0, y0: 0 }).unwrap();
    }
    assert_eq!(handle.stats().traces_retained.load(std::sync::atomic::Ordering::Relaxed), 0);

    // Retune to trace-everything over the wire; the ack echoes the rate.
    match c.set_sampling(1).unwrap().body {
        Body::Stats(pairs) => {
            assert_eq!(pairs, vec![("pc_serve_trace_sample_every".to_string(), 1)]);
        }
        other => panic!("unexpected body {other:?}"),
    }
    assert_eq!(handle.trace_sampling(), 1);
    for _ in 0..10 {
        c.call(0, 0, Op::TwoSided { x0: 0, y0: 0 }).unwrap();
    }
    let retained = handle.stats().traces_retained.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(retained, 10);

    // And back off: the counter freezes.
    c.set_sampling(0).unwrap();
    for _ in 0..10 {
        c.call(0, 0, Op::TwoSided { x0: 0, y0: 0 }).unwrap();
    }
    assert_eq!(
        handle.stats().traces_retained.load(std::sync::atomic::Ordering::Relaxed),
        retained
    );
    handle.join();
}

#[test]
fn traced_update_batches_land_in_the_plane() {
    let cfg = ServerConfig { trace_sample: 1, ..config() };
    let handle = Server::spawn(two_target_service(0), cfg).unwrap();
    let mut c = connect(&handle);

    // Pipeline inserts so the batcher coalesces; every job is sampled, so
    // each applied target-group retains one "update_batch" trace.
    let n = 30u64;
    for i in 0..n {
        c.send(0, 0, Op::Insert(Point { x: i as i64, y: i as i64, id: i })).unwrap();
    }
    for _ in 0..n {
        assert!(matches!(c.recv().unwrap().body, Body::Ack { .. }));
    }

    let entries = match c.slow_log(64, false).unwrap().body {
        Body::SlowLog(entries) => entries,
        other => panic!("unexpected body {other:?}"),
    };
    assert!(!entries.is_empty());
    assert!(entries.iter().all(|e| e.op == "update_batch" && e.target == "dyn"), "{entries:?}");
    assert!(entries.iter().all(|e| e.spans.first().is_some_and(|s| s.name == "serve_update_batch")));

    // S2: the coalesce-size and queue-wait histograms are live via Stats.
    match c.stats().unwrap().body {
        Body::Stats(pairs) => {
            let get = |n: &str| pairs.iter().find(|(k, _)| k == n).map(|&(_, v)| v).unwrap();
            assert!(get("pc_serve_batch_coalesce_count") >= 1);
            assert!(get("pc_serve_queue_wait_p99_ns") > 0);
            let batches = get("pc_serve_update_batches_total");
            assert_eq!(get("pc_serve_traces_retained_total"), batches);
        }
        other => panic!("unexpected body {other:?}"),
    }
    handle.join();
}
