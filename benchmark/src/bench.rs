//! One workload, start to finish, in this process: set-up, counted pass,
//! (traced pass and layer probes when tracing,) timed pass over sockets,
//! answer audits, and the metrics of all of them.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use pc_obs::serve_metrics as names;
use pc_pagestore::{Point, VersionMetrics};
use pc_serve::wire::Op;
use pc_serve::{Server, ServerConfig, Service};

use crate::data::{brute_force, gen_dataset, gen_queries, gen_updates, Checker};
use crate::layers;
use crate::replay;
use crate::replay::{counted_pass, traced_pass, Counted, Counters, Replayer, QUERY_LAYERS};
use crate::setup::{build, BuildInfo, DataDir};
use crate::spec::{Sizes, Workload, END_TO_END, PAGE_SIZE, PER_LAYER, WRITE_BURST};
use crate::stats::{median, spread, Samples, Window};
use crate::timed::{self, ConnLog, Sample};
use crate::trace::{self, LayerTimes, Span};

/// The measured window is cut into slices of about a second (at least
/// this many); the reported rate is the median slice. The warm-up
/// discarded before them lasts a sixth of the measured time.
const MIN_SLICES: usize = 6;
/// One in this many queries is recomputed by brute force.
const BRUTE_FORCE_EVERY: usize = 64;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Measured seconds of the timed pass (warm-up comes on top).
    pub seconds: f64,
    /// Also run the traced pass and the layer probes.
    pub trace: bool,
    pub smoke: bool,
    /// Parent of the run's scratch directory.
    pub dir: PathBuf,
    /// Client connections of the read workloads.
    pub conns: usize,
    /// Where to write `trace.jsonl`, if anywhere.
    pub trace_out: Option<PathBuf>,
}

/// An end-to-end value with its per-slice values, where it has slices,
/// and their relative spread (interquartile range over median).
#[derive(Debug, Clone)]
pub struct Measured {
    /// `None` where the workload has no such ops.
    pub value: Option<f64>,
    pub spread: f64,
    pub slices: Vec<f64>,
}

pub struct Outcome {
    pub workload: Workload,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
    /// In `END_TO_END` order.
    pub end_to_end: Vec<Measured>,
    /// In `PER_LAYER` order; empty without tracing.
    pub per_layer: Vec<f64>,
    /// Facts about the run that are not metrics.
    pub notes: Vec<(&'static str, f64)>,
    /// The stacked per-layer table of the traced pass.
    pub stacked: Option<String>,
}

/// Hardware threads this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A latency percentile the way rates are taken: the percentile of each
/// slice, then the median slice, with the spread of the slices. One slice
/// the host stalled in does not move it, whereas a stall of a second puts
/// a tenth of a pooled sample's tail into the stall. (The pooled
/// percentiles are in the notes.)
fn sliced_percentile_us(samples: &[Sample], window: &Window, p: f64) -> Measured {
    let mut by_slice: Vec<Vec<u64>> = vec![Vec::new(); window.slices];
    for s in samples {
        if let Some(i) = window.slice_of(s.done_ns) {
            by_slice[i].push(s.latency_ns);
        }
    }
    let per_slice: Vec<f64> =
        by_slice.into_iter().filter_map(|v| Samples::new(v).percentile_us(p)).collect();
    Measured { value: median(&per_slice), spread: spread(&per_slice), slices: per_slice }
}

/// Median-slice rate of the samples, with the spread of the slice rates.
fn sliced_rate(done_ns: &[u64], window: &Window) -> Measured {
    let mut counts = vec![0u64; window.slices];
    for &t in done_ns {
        if let Some(i) = window.slice_of(t) {
            counts[i] += 1;
        }
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 * 1e9 / window.slice_ns as f64).collect();
    Measured { value: median(&rates), spread: spread(&rates), slices: rates }
}

fn p50(samples: Option<&Samples>) -> f64 {
    samples.and_then(|s| s.percentile(0.50)).unwrap_or(0) as f64
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median length of a checkpoint in the traced pass: from the first
/// data-file write under an install span to the end of the log reset that
/// completes it.
fn checkpoint_ms(spans: &[Span]) -> f64 {
    let mut first_write: BTreeMap<u32, u64> = BTreeMap::new();
    let mut lengths = Vec::new();
    for s in spans {
        match s.name {
            "pagestore.backend.write" => {
                first_write.entry(s.parent).or_insert(s.start_ns);
            }
            "pagestore.wal.reset" => {
                if let Some(start) = first_write.remove(&s.parent) {
                    lengths.push(s.end_ns - start);
                }
            }
            _ => {}
        }
    }
    p50(Some(&Samples::new(lengths))) / 1e6
}

/// The stacked report: per layer, how many spans, their self-time p50,
/// p99 and mean, and the layer's share of all traced time; then the
/// reconciliation with the stretches of the same replay run untraced.
fn stacked_report(traced: &TracedRun) -> String {
    let (times, r) = (&traced.times, &traced.replay);
    let total_self: f64 = times.self_ns.values().map(Samples::sum).sum();
    let mut out = format!(
        "{:<32} {:>8} {:>11} {:>11} {:>11} {:>7}\n",
        "layer (self time)", "spans", "p50 ns", "p99 ns", "mean ns", "share"
    );
    for (name, s) in &times.self_ns {
        let sum = s.sum();
        out.push_str(&format!(
            "{:<32} {:>8} {:>11} {:>11} {:>11.0} {:>6.1}%\n",
            name,
            s.len(),
            s.percentile(0.50).unwrap_or(0),
            s.percentile(0.99).unwrap_or(0),
            s.mean().unwrap_or(0.0),
            100.0 * sum / total_self.max(1.0),
        ));
    }
    let untraced = r.untraced_ns as f64 / r.untraced_ops.max(1) as f64;
    let self_per_op = total_self / r.traced_ops.max(1) as f64;
    out.push_str(&format!(
        "layer self times sum to {self_per_op:.0} ns/op over {} traced ops (queries and update \
         batches); the {} ops in between ran untraced at {untraced:.0} ns/op ({:+.1}%)\n",
        r.traced_ops,
        r.untraced_ops,
        100.0 * (self_per_op - untraced) / untraced.max(1.0),
    ));
    out
}

/// What the passes of one run produced, before any metric is derived.
struct Passes<'a> {
    workload: Workload,
    sizes: &'a Sizes,
    window: Window,
    info: BuildInfo,
    live_pages: u64,
    /// Generate + build + warm-up + spawn. The `sync` between build and
    /// warm-up is left out (`sync_s` in the notes): it is the device's
    /// time, and nothing has to wait for it before serving.
    setup_s: f64,
    counted: Counted,
    /// The timed pass: what the connections logged, its length, and how
    /// the store's counters and the server's stats moved across it.
    log: ConnLog,
    pass_s: f64,
    during: Counters,
    admin: Vec<(String, u64)>,
    versions: VersionMetrics,
    failed: u64,
}

impl Passes<'_> {
    fn stat(&self, name: &str) -> u64 {
        self.admin.iter().find(|(k, _)| k == name).map_or(0, |&(_, v)| v)
    }

    fn query_count(&self) -> u64 {
        self.counted.kinds.iter().map(|k| k.queries).sum()
    }

    /// The thirteen end-to-end metrics, in `END_TO_END` order.
    fn end_to_end(&self) -> Vec<Measured> {
        let (w, log, window) = (self.workload, &self.log, &self.window);
        let all_done: Vec<u64> =
            log.queries.iter().chain(&log.updates).map(|s| s.done_ns).collect();
        let update_done: Vec<u64> = log.updates.iter().map(|s| s.done_ns).collect();
        let query_reads: u64 = self.counted.kinds.iter().map(|k| k.reads).sum();
        let uc = &self.counted.update_counters;
        let frame = (PAGE_SIZE + pc_pagestore::store::CHECKSUM_LEN) as u64;
        let exact = |value: Option<f64>| Measured { value, spread: 0.0, slices: Vec::new() };
        let when_updates = |m: Measured| if w.has_updates() { m } else { exact(None) };
        let per_update = |n: f64| w.has_updates().then(|| n / (self.counted.updates.max(1) as f64));
        let by_name: BTreeMap<&str, Measured> = [
            ("setup_s", exact(Some(self.setup_s))),
            ("throughput_ops_s", sliced_rate(&all_done, window)),
            ("query_p50_us", sliced_percentile_us(&log.queries, window, 0.50)),
            ("query_p99_us", sliced_percentile_us(&log.queries, window, 0.99)),
            ("update_p50_us", when_updates(sliced_percentile_us(&log.updates, window, 0.50))),
            ("update_p99_us", when_updates(sliced_percentile_us(&log.updates, window, 0.99))),
            ("updates_per_s", when_updates(sliced_rate(&update_done, window))),
            ("fail_ratio", exact(Some(self.failed as f64 / log.attempted.max(1) as f64))),
            ("page_reads_per_query", exact(Some(ratio(query_reads, self.query_count())))),
            ("page_writes_per_update", exact(per_update(uc.logged_page_writes() as f64))),
            ("write_amp", exact(per_update((uc.log_bytes + uc.io.writes * frame) as f64 / 24.0))),
            (
                "space_amp",
                exact(Some(ratio(self.live_pages * PAGE_SIZE as u64, self.info.records * 24))),
            ),
            ("peak_rss_mb", exact(peak_rss_mb())),
        ]
        .into_iter()
        .collect();
        END_TO_END.iter().map(|m| by_name[m.name].clone()).collect()
    }

    /// Facts about the run that are not metrics.
    fn notes(&self) -> Vec<(&'static str, f64)> {
        let pool = self.sizes.pool_pages(self.workload) as u64;
        let mut notes = vec![
            ("measured_queries", self.log.queries.len() as f64),
            ("measured_updates", self.log.updates.len() as f64),
            ("live_pages", self.live_pages as f64),
            ("pool_pages", pool as f64),
            ("pages_per_pool_page", ratio(self.live_pages, pool)),
            ("sync_s", self.info.sync_s),
            ("timed_pass_s", self.pass_s),
        ];
        // Percentiles of all measured samples pooled, and the furthest
        // tail their count supports.
        let pooled = [
            (
                [
                    "query_pooled_p50_us",
                    "query_pooled_p99_us",
                    "query_tail_percentile",
                    "query_tail_us",
                ],
                &self.log.queries,
            ),
            (
                [
                    "update_pooled_p50_us",
                    "update_pooled_p99_us",
                    "update_tail_percentile",
                    "update_tail_us",
                ],
                &self.log.updates,
            ),
        ];
        for (names, samples) in pooled {
            let lat = ConnLog::latencies(samples);
            if let (Some(p50), Some(p99), Some((p, v))) =
                (lat.percentile_us(0.50), lat.percentile_us(0.99), lat.supported_tail())
            {
                notes.extend(names.into_iter().zip([p50, p99, p * 100.0, v as f64 / 1e3]));
            }
        }
        notes
    }

    /// The per-layer metrics, in `PER_LAYER` order.
    fn per_layer(&self, traced: &TracedRun, query_p50_us: f64) -> Vec<f64> {
        let times = &traced.times;
        let self_p50 = |name: &str| p50(times.self_ns.get(name));
        let total_p50 = |name: &str| p50(times.total_ns.get(name));
        let sum_of =
            |map: &BTreeMap<&str, Samples>, name: &str| map.get(name).map_or(0.0, Samples::sum);
        let spans_named = |name: &str| times.total_ns.get(name).map_or(0, |s| s.len()) as f64;
        let counted = &self.counted;
        let untraced_p50_us =
            Samples::new(counted.query_ns.clone()).percentile_us(0.50).unwrap_or(0.0);
        let (qc, uc, during) = (&counted.query_counters, &counted.update_counters, &self.during);
        let queries = self.query_count();
        let batches = counted.batch_ns.len() as u64;
        let pooled = !self.workload.has_updates();
        let info = &self.info;
        let mut v: BTreeMap<String, f64> = [
            ("serve.wire.decode_req_ns", self_p50("serve.wire.decode_req")),
            ("serve.wire.encode_resp_ns", self_p50("serve.wire.encode_resp")),
            ("serve.wire.decode_resp_ns", self_p50("serve.wire.decode_resp")),
            ("serve.wire.resp_bytes", ratio(counted.resp_bytes, queries)),
            ("serve.queue.hop_ns", p50(Some(&traced.hop))),
            ("serve.server.ping_rtt_us", p50(Some(&traced.ping)) / 1e3),
            ("serve.server.residual_us", query_p50_us - untraced_p50_us),
            (
                "serve.server.coalesce_mean",
                ratio(self.stat(names::BATCHED_UPDATES), self.stat(names::BATCHES)),
            ),
            ("serve.server.batches_per_s", self.stat(names::BATCHES) as f64 / self.pass_s),
            ("serve.server.overloaded", self.stat(names::OVERLOADED) as f64),
            ("pagestore.version.pin_ns", self_p50("pagestore.version.pin")),
            ("pagestore.version.install_us", total_p50("pagestore.version.install") / 1e3),
            ("pagestore.version.cow_pages_per_batch", ratio(uc.io.allocs, batches)),
            ("pagestore.version.reclaimed_pages", self.versions.reclaimed_pages as f64),
            ("pagestore.version.retained", self.versions.retained as f64),
            (
                "pst.apply_us_per_update",
                sum_of(&times.self_ns, "pst.apply")
                    / (spans_named("update_batch") * WRITE_BURST as f64).max(1.0)
                    / 1e3,
            ),
            ("pst.apply_reads_per_update", ratio(uc.logical_reads(), counted.updates)),
            ("pst.apply_writes_per_update", ratio(uc.logged_page_writes(), counted.updates)),
            ("benchmark.trace_overhead_pct", 100.0 * traced.overhead()),
            ("pst.build_s", info.pst_build_s),
            ("intervaltree.build_s", info.itree_build_s),
            ("btree.build_s", info.btree_build_s),
            ("pst.dyn_pages", info.dyn_pages as f64),
            ("pst.three_sided_pages", info.pst3_pages as f64),
            ("intervaltree.pages", info.itree_pages as f64),
            ("btree.pages", info.btree_pages as f64),
            ("pagestore.store.read_hit_ns", p50(Some(&traced.read_hit))),
            ("pagestore.store.read_miss_ns", p50(Some(&traced.read_miss))),
            ("pagestore.pool.hit_ratio", ratio(qc.io.cache_hits, qc.io.cache_hits + qc.io.reads)),
            (
                "pagestore.pool.misses_per_query",
                if pooled { ratio(qc.io.reads, queries) } else { 0.0 },
            ),
            ("pagestore.pool.evictions_per_query", ratio(qc.io.pool_evictions, queries)),
            ("pagestore.backend.read_ns", total_p50("pagestore.backend.read")),
            ("pagestore.backend.reads_per_query", ratio(qc.io.reads, queries)),
            (
                "pagestore.backend.busy_share",
                ["pagestore.backend.read", "pagestore.backend.write", "pagestore.backend.sync"]
                    .iter()
                    .map(|name| sum_of(&times.total_ns, name))
                    .sum::<f64>()
                    / (traced.replay.traced_ns as f64).max(1.0),
            ),
            ("pagestore.backend.write_ns", total_p50("pagestore.backend.write")),
            ("pagestore.backend.writes_per_update", ratio(uc.io.writes, counted.updates)),
            ("pagestore.backend.syncs", spans_named("pagestore.backend.sync")),
            ("pagestore.wal.append_ns", total_p50("pagestore.wal.append")),
            ("pagestore.wal.bytes_per_update", ratio(uc.log_bytes, counted.updates)),
            ("pagestore.wal.fsync_us", total_p50("pagestore.wal.fsync") / 1e3),
            ("pagestore.wal.fsyncs_per_update", ratio(uc.wal.fsyncs, counted.updates)),
            (
                "pagestore.wal.group_size_mean",
                ratio(
                    during.wal.appends - during.wal.commits - during.wal.checkpoints,
                    during.wal.commits,
                ),
            ),
            ("pagestore.wal.checkpoints", during.wal.checkpoints as f64),
            ("pagestore.wal.checkpoint_ms", checkpoint_ms(&traced.replay.spans)),
            (
                "pagestore.wal.dirty_hits_per_query",
                ratio(during.wal.dirty_hits, self.stat(names::QUERIES_OK)),
            ),
        ]
        .into_iter()
        .map(|(name, value)| (name.to_string(), value))
        .collect();
        for (layer, c) in QUERY_LAYERS.iter().zip(&counted.kinds) {
            v.insert(format!("{layer}_us"), self_p50(layer) / 1e3);
            v.insert(format!("{layer}_reads"), ratio(c.reads, c.queries));
            v.insert(format!("{layer}_io_bound_ratio"), ratio(c.reads, c.budget));
            v.insert(format!("{layer}_wasteful"), ratio(c.wasteful, c.queries));
        }
        PER_LAYER
            .iter()
            .map(|m| *v.get(m.0).unwrap_or_else(|| panic!("no value computed for {}", m.0)))
            .collect()
    }
}

/// What tracing adds to a run: the traced replay and the probes of
/// single layers.
struct TracedRun {
    replay: replay::Traced,
    times: LayerTimes,
    hop: Samples,
    read_hit: Samples,
    read_miss: Samples,
    ping: Samples,
}

impl TracedRun {
    /// Per-op time of the traced stretches over that of the untraced
    /// ones, minus one.
    fn overhead(&self) -> f64 {
        let r = &self.replay;
        let per_op = |ns: u64, ops: u64| ns as f64 / ops.max(1) as f64;
        per_op(r.traced_ns, r.traced_ops) / per_op(r.untraced_ns, r.untraced_ops).max(1.0) - 1.0
    }
}

pub fn measure(o: &Options) -> Result<Outcome, String> {
    let w = o.workload;
    let sizes = if o.smoke { Sizes::SMOKE } else { Sizes::FULL };
    if o.seconds.is_nan() || o.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let slices = (o.seconds.round() as usize).max(MIN_SLICES);
    let window = Window {
        warmup_ns: (o.seconds * 1e9 / 6.0) as u64,
        slice_ns: (o.seconds * 1e9 / slices as f64) as u64,
        slices,
    };
    let dir = DataDir::create(&o.dir, w).map_err(|e| format!("create {:?}: {e}", o.dir))?;

    // ---- set-up: everything a user waits for before the first request.
    let setup_started = Instant::now();
    let data = gen_dataset(w, &sizes, o.seed);
    let queries = gen_queries(w, &sizes, &data, o.seed);
    let updates = if w.has_updates() { gen_updates(&sizes, o.seed) } else { Vec::new() };
    let stream: Vec<Point> = updates
        .iter()
        .filter_map(|op| if let Op::Insert(p) = op { Some(*p) } else { None })
        .collect();
    let built = build(w, &sizes, &data, &dir.0)?;
    let info = built.info;
    let mut setup_s = setup_started.elapsed().as_secs_f64() - info.sync_s;
    let live_pages = built.store.live_pages();
    eprintln!(
        "[{}] set-up {setup_s:.2}s (+ sync {:.2}s): {} records in {live_pages} pages, pool {} pages",
        w.name(),
        info.sync_s,
        info.records,
        sizes.pool_pages(w)
    );

    let checker = if w.has_updates() {
        Checker { base_ids: sizes.points as u64, stream: &stream }
    } else {
        Checker::STATIC
    };
    let kind_sizes = [
        data.points.len() as u64,
        data.points.len() as u64,
        data.intervals.len() as u64,
        data.keys.len() as u64,
    ];
    // Updates each in-process pass consumes from the front of the stream;
    // the timed writer continues behind them.
    let per_pass = if w.has_updates() { queries.len() / WRITE_BURST * WRITE_BURST } else { 0 };
    let mut applied = 0;
    let mut next_stretch = || {
        applied += per_pass;
        &updates[applied - per_pass..applied]
    };

    // ---- counted pass (spans off), then the brute-force sample.
    let mut replayer = Replayer::new(&built);
    let counted =
        counted_pass(&built, &mut replayer, &queries, next_stretch(), &kind_sizes, &checker)?;
    let mut messages = Vec::new();
    let mut failed = 0;
    for (i, q) in queries.iter().enumerate().step_by(BRUTE_FORCE_EVERY) {
        let want = brute_force(&data, &q.op);
        if counted.expected[i] != want {
            failed += 1;
            messages.push(format!(
                "query {i} ({}): in-process answer {:?}, brute force {want:?}",
                q.op.name(),
                counted.expected[i]
            ));
        }
    }

    // ---- traced pass and the layer probes.
    let mut traced = None;
    if o.trace {
        let replay = traced_pass(&mut replayer, &queries, next_stretch())?;
        let (read_hit, read_miss) = layers::store_reads(&built.store, sizes.prefix / 4, o.seed)?;
        traced = Some(TracedRun {
            times: trace::layer_times(&replay.spans),
            replay,
            hop: layers::queue_hop(sizes.prefix),
            read_hit,
            read_miss,
            ping: Samples::default(),
        });
    }
    drop(replayer);

    // ---- timed pass over loopback sockets, tracing off.
    let store = Arc::clone(&built.store);
    let log_bytes = Arc::clone(&built.log_bytes);
    let spawn_started = Instant::now();
    let config = ServerConfig { workers: nproc(), trace_sample: 0, ..ServerConfig::default() };
    let handle = Server::spawn(Service { store: built.store, registry: built.registry }, config)
        .map_err(|e| format!("spawn server: {e}"))?;
    setup_s += spawn_started.elapsed().as_secs_f64();
    let addr = handle.addr();
    if let Some(traced) = &mut traced {
        traced.ping = timed::ping_round_trips(addr, 2_000)?;
    }

    let before = Counters::read(&store, &log_bytes);
    let t0 = Instant::now();
    let log = std::thread::scope(|s| {
        let readers = if w.has_updates() { 1 } else { o.conns };
        let mut threads = Vec::new();
        if w.has_updates() {
            let updates = &updates[applied..];
            threads.push(s.spawn(move || timed::writer(addr, updates, t0, window)));
        }
        for c in 0..readers {
            let (queries, expected, checker) = (&queries, &counted.expected, &checker);
            let start = c * queries.len() / readers;
            threads.push(
                s.spawn(move || timed::reader(addr, queries, expected, checker, start, t0, window)),
            );
        }
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .fold(ConnLog::default(), ConnLog::merge)
    });
    let pass_s = t0.elapsed().as_secs_f64();
    let during = Counters::read(&store, &log_bytes).since(&before);
    let admin = timed::admin_stats(addr)?;
    failed += log.failed;
    messages.extend(log.messages.iter().cloned());
    if w.has_updates() {
        let acked = &updates[..applied + log.acked];
        if let Err(e) = timed::audit_live_set(addr, &data.points, &stream, acked) {
            failed += 1;
            messages.push(e);
        }
    }
    let versions = handle.versions().metrics();
    handle.join();

    let passes = Passes {
        workload: w,
        sizes: &sizes,
        window,
        info,
        live_pages,
        setup_s,
        counted,
        log,
        pass_s,
        during,
        admin,
        versions,
        failed,
    };
    let end_to_end = passes.end_to_end();
    let query_p50_us = end_to_end
        .iter()
        .zip(&END_TO_END)
        .find(|(_, m)| m.name == "query_p50_us")
        .and_then(|(v, _)| v.value)
        .unwrap_or(0.0);
    let mut per_layer = Vec::new();
    let mut stacked = None;
    if let Some(traced) = &traced {
        per_layer = passes.per_layer(traced, query_p50_us);
        stacked = Some(stacked_report(traced));
        if let Some(path) = &o.trace_out {
            trace::write_jsonl(path, &traced.replay.spans)
                .map_err(|e| format!("write {path:?}: {e}"))?;
        }
    }
    Ok(Outcome {
        workload: w,
        correct: failed == 0,
        attempted: passes.log.attempted.max(1),
        failed,
        messages,
        notes: passes.notes(),
        end_to_end,
        per_layer,
        stacked,
    })
}
