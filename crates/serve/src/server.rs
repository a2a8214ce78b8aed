//! The server: a worker pool behind the admission-controlled query queue
//! and a dedicated update-batching stage, behind the shared TCP front.
//!
//! Thread model (all plain `std::thread`, sized by [`ServerConfig`]):
//!
//! * **acceptor and connection readers** — `front.rs`. Each decoded
//!   request arrives at the server's `Handler::request` on its connection's
//!   thread: admin ops ([`Op::is_admin`]) are answered inline (they must stay
//!   responsive under load); queries and updates are routed through
//!   [`crate::queue::Bounded::try_push`] — a full queue is answered
//!   `Overloaded` *immediately*, which is the entire admission-control
//!   policy.
//! * **workers** — pop query jobs, enforce the per-request deadline, run
//!   [`crate::target::QueryTarget::query`], write the response.
//! * **batcher** — pops one update, then drains whatever else is already
//!   queued (up to `BATCH_MAX`), groups by target, and applies each group
//!   with a single [`crate::target::QueryTarget::apply_updates`] call inside
//!   one copy-on-write session — the paper's §5 buffered updates at the
//!   service boundary: a structure takes its group whole. The batch installs
//!   as one epoch or, if a group fails, rolls back and answers every job
//!   `Storage`. There is one update path: a target takes updates exactly
//!   when it is versioned.
//!
//! Graceful drain-then-shutdown: the ADMIN `Shutdown` op (or
//! [`ServerHandle::shutdown`]) flips one flag and closes both queues. New
//! requests get `ShuttingDown` (the front keeps each connection answering
//! so until its peer has nothing more on the wire); already-admitted jobs
//! drain and their responses are written before the threads exit.
//!
//! What no binary, test or example ever set is a constant here, not a knob:
//! `BATCH_MAX`, [`TRACE_SEED`], `SLOWLOG_K`, and in `front.rs` the
//! poll tick and the write timeout, in [`crate::wire`] the frame cap.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pc_obs::sample::Sampler;
use pc_obs::serve_metrics as names;
use pc_obs::slowlog::{SlowLog, SlowQuery};
use pc_obs::{QueryTrace, Sample};
use pc_pagestore::{
    decode_version_meta, IoStats, PageStore, Snapshot, StoreError, UpdateOp, VersionConfig,
    VersionedStore,
};

use crate::front::{Conn, ConnEvent, Front, Handler};
use crate::obsplane::{store_samples, version_samples, TargetStatsSet};
use crate::queue::{Bounded, PushError};
use crate::stats::{io_stat_pairs, ServeStats};
use crate::target::{FrozenView, QueryTarget, Registry, TargetError};
use crate::wire::{
    flatten_spans, Body, ErrorCode, Op, Request, Response, SlowEntry, FLAG_TRACE,
    RANKED_BY_LATENCY, RANKED_BY_WASTE,
};

/// Max updates coalesced into one batch.
const BATCH_MAX: usize = 32;
/// Seed of the deterministic trace sampler: the sampled set is a pure
/// function of `(seed, request id)`, independent of worker scheduling.
pub const TRACE_SEED: u64 = 0x7061_7468_6361_6368; // "pathcach"
/// Slow-query-log retention per ranking (latency / wasteful I/O).
const SLOWLOG_K: usize = 16;

/// Everything a server instance serves: one shared page store and the
/// registry of structures living in it.
pub struct Service {
    /// The shared store (all workers read through its sharded pool).
    pub store: Arc<PageStore>,
    /// The structures, addressed by wire target id.
    pub registry: Registry,
}

impl Service {
    /// The service over a store just opened: the one place a reopened node
    /// hands its store the pages it keeps. `open` builds the registry from
    /// the last commit's descriptors ([`decode_commit_meta`]'s), or from
    /// scratch on `None`; the store then frees every page no target
    /// reaches ([`PageStore::free_unreached`]) — on `None` first, so a
    /// build reuses them.
    pub fn recover(
        store: Arc<PageStore>,
        open: impl FnOnce(&PageStore, Option<&[Option<Vec<u8>>]>) -> Result<Registry, StoreError>,
    ) -> Result<Service, StoreError> {
        let recovered = store.last_commit_meta().as_deref().and_then(decode_commit_meta);
        let descriptors = recovered.map(|(_, descriptors)| descriptors);
        if descriptors.is_none() {
            store.free_unreached(&[]);
        }
        let registry = open(&store, descriptors.as_deref())?;
        store.free_unreached(&registry.page_ids(&store)?);
        Ok(Service { store, registry })
    }
}

/// Server tuning knobs. `Default` is sized for tests and small machines.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Query worker threads (thread-per-core by default, minimum 1).
    pub workers: usize,
    /// Query queue capacity — the admission-control bound.
    pub queue_depth: usize,
    /// Update queue capacity.
    pub update_queue_depth: usize,
    /// Close a connection after this long without a complete frame.
    pub idle_timeout: Duration,
    /// Trace 1 in N requests (0 = off, 1 = everything). Runtime-retunable
    /// over the wire via the `SetSampling` ADMIN op; works in every build
    /// (the span layer is always compiled).
    pub trace_sample: u64,
    /// How many unpinned epochs stay addressable by `as_of` (the
    /// time-travel window; see [`VersionConfig::retain`]). Pinned epochs
    /// are always retained regardless.
    pub version_retain: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            queue_depth: 64,
            update_queue_depth: 64,
            idle_timeout: Duration::from_secs(30),
            trace_sample: 0,
            version_retain: 8,
        }
    }
}

/// A queued unit of work.
struct Job {
    req: Request,
    conn: Arc<Conn>,
    enqueued: Instant,
    deadline: Option<Instant>,
    /// Decided at admission (deterministic sampler or `FLAG_TRACE`): the
    /// executing stage opens a request-scoped trace capture for this job.
    sampled: bool,
    /// The epoch this query reads, pinned at admission on the reader
    /// thread: the latest epoch for `as_of == 0`, the addressed historical
    /// epoch otherwise. `None` for updates and for targets whose state the
    /// versioning layer does not cover (they query live structures).
    snapshot: Option<Snapshot>,
}

struct Shared {
    store: Arc<PageStore>,
    versions: Arc<VersionedStore>,
    registry: Registry,
    stats: ServeStats,
    queries: Bounded<Job>,
    updates: Bounded<Job>,
    shutdown: AtomicBool,
    batch_seq: AtomicU64,
    sampler: Sampler,
    slowlog: SlowLog,
    target_stats: TargetStatsSet,
}

impl Shared {
    /// One scrape: every always-on family, declared once each by its
    /// source, in the order the `Metrics` text lists them. `Stats` and
    /// `Metrics` are two renderings of this list.
    fn samples(&self) -> Vec<Sample> {
        let mut out = Vec::new();
        self.stats.samples(&mut out);
        out.extend([
            Sample::gauge(names::QUERY_QUEUE_DEPTH, self.queries.len() as u64),
            Sample::gauge(names::UPDATE_QUEUE_DEPTH, self.updates.len() as u64),
            Sample::gauge(names::TRACE_SAMPLE_EVERY, self.sampler.every()),
            Sample::counter(names::SLOWLOG_OFFERED, self.slowlog.offered()),
        ]);
        self.target_stats.samples(&mut out);
        store_samples(&self.store, &mut out);
        version_samples(&self.versions.metrics(), &mut out);
        out
    }

    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Relaxed) {
            self.queries.close();
            self.updates.close();
        }
    }

    /// Counts and sends one typed refusal.
    fn refuse(
        &self,
        conn: &Conn,
        id: u64,
        counter: &AtomicU64,
        code: ErrorCode,
        message: impl Into<String>,
    ) {
        counter.fetch_add(1, Relaxed);
        conn.respond(&Response::error(id, code, message));
    }

    /// Serves one admin op inline, on the connection's thread, so that it
    /// stays responsive under overload.
    fn admin(&self, conn: &Conn, req: &Request) {
        let body = match &req.op {
            Op::Ping => Body::Pong,
            Op::Stats => {
                let mut pairs = pc_obs::stat_pairs(&self.samples());
                pairs.extend(io_stat_pairs(&self.store.stats()));
                Body::Stats(pairs)
            }
            Op::Metrics => Body::Metrics(pc_obs::render_text(&self.samples())),
            Op::SlowLog { k, .. } => Body::SlowLog(self.slow_entries(*k as usize)),
            Op::SetSampling { every } => {
                self.sampler.set_every(*every);
                Body::Stats(vec![(names::TRACE_SAMPLE_EVERY.to_string(), *every)])
            }
            Op::Versions => {
                let m = self.versions.metrics();
                Body::Versions {
                    current: m.current_seq,
                    oldest: m.oldest_seq,
                    installed: m.installed,
                    reclaimed_pages: m.reclaimed_pages,
                    pinned: m.pinned,
                }
            }
            Op::Shutdown => Body::ShutdownAck,
            other => {
                let message = format!("op {} is not served by this server", other.name());
                return self.refuse(
                    conn,
                    req.id,
                    &self.stats.bad_requests,
                    ErrorCode::Unsupported,
                    message,
                );
            }
        };
        conn.respond(&Response { id: req.id, body });
        match req.op {
            Op::SlowLog { clear: true, .. } => self.slowlog.clear(),
            Op::Shutdown => self.begin_shutdown(),
            _ => {}
        }
    }

    /// Folds a finished request-scoped trace into the observability plane:
    /// the retained-trace counter, the owning target's §3 aggregates, and
    /// the slow-query log.
    fn retain_trace(&self, request_id: u64, op: &'static str, target_id: u16, trace: QueryTrace) {
        self.stats.traces_retained.fetch_add(1, Relaxed);
        if let Some(ts) = self.target_stats.get(target_id) {
            ts.absorb_trace(&trace);
        }
        let target = self.target_stats.name(target_id).unwrap_or("?").to_string();
        self.slowlog.offer(SlowQuery { request_id, op, target, trace });
    }

    /// Renders the slow-query log for the wire: top `k` per ranking,
    /// merged by identity so a query ranked both ways appears once with
    /// both membership bits set.
    fn slow_entries(&self, k: usize) -> Vec<SlowEntry> {
        fn entry(q: &SlowQuery, rankings: u8) -> SlowEntry {
            SlowEntry {
                request_id: q.request_id,
                op: q.op.to_string(),
                target: q.target.clone(),
                rankings,
                latency_ns: q.trace.latency_ns,
                total_io: q.trace.total_io,
                search_ios: q.trace.search_ios,
                wasteful_ios: q.trace.wasteful_ios,
                items: q.trace.items,
                spans: flatten_spans(&q.trace.root),
            }
        }
        let by_latency = self.slowlog.top_by_latency(k);
        let by_waste = self.slowlog.top_by_waste(k);
        let mut seen = Vec::with_capacity(by_latency.len() + by_waste.len());
        let mut out = Vec::with_capacity(seen.capacity());
        for q in by_latency {
            out.push(entry(&q, RANKED_BY_LATENCY));
            seen.push(q);
        }
        for q in by_waste {
            match seen.iter().position(|s| Arc::ptr_eq(s, &q)) {
                Some(i) => out[i].rankings |= RANKED_BY_WASTE,
                None => {
                    out.push(entry(&q, RANKED_BY_WASTE));
                    seen.push(q);
                }
            }
        }
        out
    }
}

/// Encodes the batcher's commit metadata: the batch sequence number plus
/// one optional reopen descriptor per registered target (registry order).
/// This is what a durable store's `last_commit_meta` carries after
/// recovery, so a restarting node can reopen its dynamic structures in
/// exactly the acknowledged state — see [`decode_commit_meta`].
pub fn encode_commit_meta(seq: u64, descriptors: &[Option<Vec<u8>>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(10 + descriptors.iter().map(|d| 5 + d.as_ref().map_or(0, Vec::len)).sum::<usize>());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(descriptors.len() as u16).to_le_bytes());
    for d in descriptors {
        match d {
            None => out.push(0),
            Some(bytes) => {
                out.push(1);
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(bytes);
            }
        }
    }
    out
}

/// Decodes [`encode_commit_meta`] output; total (returns `None` on any
/// malformed input). On a versioned server every durable commit is
/// version-framed (the epoch's seq wraps the batch meta); a frame is
/// transparently unwrapped so recovery callers see the inner batch payload
/// either way.
pub fn decode_commit_meta(meta: &[u8]) -> Option<(u64, Vec<Option<Vec<u8>>>)> {
    if let Some(vm) = decode_version_meta(meta) {
        return decode_commit_meta(&vm.user);
    }
    if meta.len() < 8 {
        return None;
    }
    let seq = u64::from_le_bytes(meta[0..8].try_into().ok()?);
    let count = u16::from_le_bytes(meta.get(8..10)?.try_into().ok()?) as usize;
    let mut at = 10usize;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        match *meta.get(at)? {
            0 => {
                at += 1;
                out.push(None);
            }
            1 => {
                let len = u32::from_le_bytes(meta.get(at + 1..at + 5)?.try_into().ok()?) as usize;
                let bytes = meta.get(at + 5..at + 5 + len)?;
                at += 5 + len;
                out.push(Some(bytes.to_vec()));
            }
            _ => return None,
        }
    }
    (at == meta.len()).then_some((seq, out))
}

/// A popped job's time in the queue goes on record; if its deadline passed
/// there, this is its answer (an expired update must not be applied).
fn expired(shared: &Shared, job: &Job) -> Option<Response> {
    shared.stats.queue_wait_ns.record(job.enqueued.elapsed().as_nanos() as u64);
    job.deadline.is_some_and(|d| Instant::now() > d).then(|| {
        shared.stats.deadline_exceeded.fetch_add(1, Relaxed);
        Response::error(job.req.id, ErrorCode::DeadlineExceeded, "deadline passed in queue")
    })
}

fn worker_loop(shared: &Shared) {
    while let Some(mut job) = shared.queries.pop() {
        let resp = expired(shared, &job).unwrap_or_else(|| execute_query(shared, &job));
        // The answer is computed: release the epoch pin *before* the reply
        // leaves. A peer that has its answer may scrape at once and must
        // not find its own finished query still pinning an epoch — nor
        // should a slow reader's socket hold back what GC may reclaim.
        // (The batcher's replies need no such step: an update job never
        // carries a snapshot.)
        job.snapshot = None;
        shared.stats.query_latency_ns.record(job.enqueued.elapsed().as_nanos() as u64);
        job.conn.respond(&resp);
    }
}

/// Runs one admitted query, optionally under a request-scoped trace
/// capture, and folds the outcome into the per-target families.
fn execute_query(shared: &Shared, job: &Job) -> Response {
    // The capture gate is opened *before* the root span so the whole span
    // tree lands in it; unsampled requests skip the gate and their spans
    // cost one thread-local load each in default builds.
    let capture = job.sampled.then(pc_obs::begin_trace);
    let started = Instant::now();
    let resp = {
        let _span = pc_obs::span!("serve_query", job.req.id);
        let target = shared.registry.get(job.req.target).expect("admission checked the target");
        let result = match &job.snapshot {
            // Versioned read: answer from the pinned epoch's frozen view —
            // lock-free and bit-identical no matter how many epochs install
            // while this query runs.
            Some(snap) => query_at_snapshot(shared, target, job.req.target, snap, &job.req.op),
            // Static targets are read in place.
            None => target.query(&shared.store, &job.req.op),
        };
        match result {
            Ok(body) => {
                shared.stats.queries_ok.fetch_add(1, Relaxed);
                Response { id: job.req.id, body }
            }
            Err(e @ TargetError::Unsupported { .. }) => {
                shared.stats.bad_requests.fetch_add(1, Relaxed);
                Response::error(job.req.id, ErrorCode::Unsupported, e.to_string())
            }
            Err(TargetError::Storage(e)) => {
                shared.stats.storage_errors.fetch_add(1, Relaxed);
                Response::error(job.req.id, ErrorCode::Storage, e.to_string())
            }
        }
    };
    if let Some(ts) = shared.target_stats.get(job.req.target) {
        ts.latency_ns.record(started.elapsed().as_nanos() as u64);
        match resp.body {
            Body::Error { .. } => ts.errors.fetch_add(1, Relaxed),
            _ => ts.queries_ok.fetch_add(1, Relaxed),
        };
    }
    if let Some(capture) = capture {
        if let Some(trace) = capture.finish() {
            shared.retain_trace(job.req.id, job.req.op.name(), job.req.target, trace);
        }
    }
    resp
}

/// The reopen descriptor for `tid` as committed with the snapshot's epoch.
fn snapshot_descriptor(snap: &Snapshot, tid: u16) -> Result<Vec<u8>, TargetError> {
    decode_commit_meta(snap.user_meta())
        .and_then(|(_, descs)| descs.into_iter().nth(tid as usize).flatten())
        .ok_or(TargetError::Unsupported { op: "as_of", target: "epoch without a descriptor" })
}

/// Serves one read against the epoch pinned in `snap`, through a frozen
/// per-epoch view of the target.
///
/// The view is built once per `(epoch, target)` — from the descriptor the
/// batcher committed with that epoch, whose pages no later batch writes —
/// then parked in the epoch's artifact cache, so steady-state queries take
/// only a shared-read cache probe: zero exclusive locks on the query path
/// (pinned by the snapshot-semantics suite).
fn query_at_snapshot(
    shared: &Shared,
    target: &dyn QueryTarget,
    tid: u16,
    snap: &Snapshot,
    op: &Op,
) -> Result<Body, TargetError> {
    let view: Arc<FrozenView> = match snap.cached(tid as u64) {
        Some(v) => v.downcast().expect("epoch cache holds one FrozenView per target id"),
        None => {
            let boxed = target.open_frozen(&shared.store, &snapshot_descriptor(snap, tid)?)?;
            snap.cache_put(tid as u64, Arc::new(FrozenView(boxed)))
                .downcast()
                .expect("epoch cache holds one FrozenView per target id")
        }
    };
    view.query(&shared.store, op)
}

/// Applies one per-target group with a single `apply_updates` call: one
/// lock hold, one push into the structure.
fn apply_group(shared: &Shared, tid: u16, jobs: &[Job]) -> Result<(), TargetError> {
    let ops: Vec<UpdateOp> = jobs
        .iter()
        .filter_map(|j| match &j.req.op {
            Op::Insert(p) => Some(UpdateOp::Insert(*p)),
            Op::Delete(p) => Some(UpdateOp::Delete(*p)),
            _ => None, // admission only routes updates here
        })
        .collect();
    let coalesced = ops.len() as u32;
    // One trace per target group when any member was sampled; the
    // capture is attributed to the first sampled job's request id
    // (the batch is one shared execution — §5 buffering means
    // there is no per-update I/O to split).
    let traced_id = jobs.iter().find(|j| j.sampled).map(|j| j.req.id);
    let capture = traced_id.map(|_| pc_obs::begin_trace());
    let started = Instant::now();
    let results = {
        let _span = pc_obs::span!("serve_update_batch", coalesced);
        let target = shared.registry.get(tid).expect("admission checked the target");
        target.apply_updates(&shared.store, &ops)
    };
    let apply_ns = started.elapsed().as_nanos() as u64;
    if let (Some(capture), Some(rid)) = (capture, traced_id) {
        if let Some(trace) = capture.finish() {
            shared.retain_trace(rid, "update_batch", tid, trace);
        }
    }
    shared.stats.batches.fetch_add(1, Relaxed);
    shared.stats.batched_updates.fetch_add(coalesced as u64, Relaxed);
    if let Some(ts) = shared.target_stats.get(tid) {
        ts.batches.fetch_add(1, Relaxed);
        ts.batched_updates.fetch_add(coalesced as u64, Relaxed);
        ts.latency_ns.record(apply_ns);
    }
    results.into_iter().collect()
}

/// Applies every group in one copy-on-write session (snapshot readers see
/// nothing until install) and installs it as epoch `seq`, or, on any
/// error, drops the session, which rolls the whole batch back.
fn apply_batch(shared: &Shared, seq: u64, groups: &[(u16, Vec<Job>)]) -> Result<(), String> {
    let session = shared.versions.begin_apply();
    let applied = groups.iter().try_for_each(|(tid, jobs)| apply_group(shared, *tid, jobs));
    applied.map_err(|e| e.to_string())?;
    // On a durable store the install is also the group commit (no Ack
    // before its batch is in the synced WAL), and every commit's metadata
    // stays version-framed, carrying each target's reopen descriptor: both
    // recovery and `as_of` reads resolve handles of exactly this state.
    let descriptors = shared.registry.descriptors();
    session.install_as(seq, &encode_commit_meta(seq, &descriptors)).map_err(|e| {
        shared.stats.commit_failures.fetch_add(1, Relaxed);
        format!("group commit failed: {e}")
    })?;
    if shared.store.is_durable() {
        shared.stats.group_commits.fetch_add(1, Relaxed);
    }
    Ok(())
}

/// Reopens every versioned target as the current epoch committed it.
fn reopen_targets(shared: &Shared) -> Result<(), TargetError> {
    let snap = shared.versions.snapshot();
    for tid in 0..shared.registry.len() as u16 {
        let target = shared.registry.get(tid).expect("a registered id");
        if target.versioned_updates() {
            target.reopen(&shared.store, &snapshot_descriptor(&snap, tid)?)?;
        }
    }
    Ok(())
}

fn batcher_loop(shared: &Shared) {
    // A failed batch leaves the live structures ahead of the installed
    // epoch: the next batch first reopens them at it.
    let mut stale = false;
    while let Some(first) = shared.updates.pop() {
        // Coalesce: take whatever else is already queued, up to BATCH_MAX.
        let mut batch = vec![first];
        while batch.len() < BATCH_MAX {
            match shared.updates.try_pop() {
                Some(job) => batch.push(job),
                None => break,
            }
        }
        let seq = shared.batch_seq.fetch_add(1, Relaxed) + 1;
        shared.stats.batch_coalesce.record(batch.len() as u64);
        let mut live = Vec::with_capacity(batch.len());
        for job in batch {
            match expired(shared, &job) {
                Some(resp) => {
                    let waited = job.enqueued.elapsed().as_nanos() as u64;
                    shared.stats.update_latency_ns.record(waited);
                    job.conn.respond(&resp);
                }
                None => live.push(job),
            }
        }

        // Group by target, preserving per-target arrival order, then apply
        // each group with one apply_updates call (single lock hold).
        let mut groups: Vec<(u16, Vec<Job>)> = Vec::new();
        for job in live {
            match groups.iter_mut().find(|(t, _)| *t == job.req.target) {
                Some((_, jobs)) => jobs.push(job),
                None => groups.push((job.req.target, vec![job])),
            }
        }
        if groups.is_empty() {
            continue;
        }
        let reopened =
            if stale { reopen_targets(shared).map_err(|e| e.to_string()) } else { Ok(()) };
        let outcome = reopened.and_then(|()| apply_batch(shared, seq, &groups));
        stale = outcome.is_err();
        // Every job gets the batch's outcome.
        for (tid, jobs) in groups {
            let ts = shared.target_stats.get(tid);
            let coalesced = jobs.len() as u32;
            for job in jobs {
                let id = job.req.id;
                let (total, per_target, resp) = match &outcome {
                    Ok(()) => (
                        &shared.stats.updates_ok,
                        ts.map(|ts| &ts.updates_ok),
                        Response { id, body: Body::Ack { batch: seq, coalesced } },
                    ),
                    Err(msg) => (
                        &shared.stats.storage_errors,
                        ts.map(|ts| &ts.errors),
                        Response::error(id, ErrorCode::Storage, msg.clone()),
                    ),
                };
                total.fetch_add(1, Relaxed);
                if let Some(counter) = per_target {
                    counter.fetch_add(1, Relaxed);
                }
                shared.stats.update_latency_ns.record(job.enqueued.elapsed().as_nanos() as u64);
                job.conn.respond(&resp);
            }
        }
    }
}

impl Handler for Shared {
    /// Handles one decoded request on the reader thread: admin ops inline,
    /// the rest admitted to a queue or answered with a typed refusal.
    fn request(&self, conn: &Arc<Conn>, req: Request) {
        let stats = &self.stats;
        stats.requests.fetch_add(1, Relaxed);
        let now = Instant::now();
        if req.op.is_admin() {
            return self.admin(conn, &req);
        }
        let id = req.id;
        let refuse = |counter, code, message: String| self.refuse(conn, id, counter, code, message);
        if self.shutdown.load(Relaxed) {
            return refuse(&stats.shed_shutdown, ErrorCode::ShuttingDown, "draining".into());
        }

        // Route validation happens at admission so a bad request never occupies
        // a queue slot.
        let Some(target) = self.registry.get(req.target) else {
            let message = format!("unknown target {}", req.target);
            return refuse(&stats.bad_requests, ErrorCode::BadRequest, message);
        };
        let is_update = req.op.is_update();
        let versioned = target.versioned_updates();
        if is_update && !versioned {
            let message = format!("target {} ({}) is read-only", req.target, target.kind());
            return refuse(&stats.bad_requests, ErrorCode::Unsupported, message);
        }
        if let Some(ts) = self.target_stats.get(req.target) {
            ts.requests.fetch_add(1, Relaxed);
        }

        // Snapshot-at-admission: a query against a versioned target pins its
        // epoch here, on the reader thread, before it touches a queue — the
        // answer is then bit-identical to the admitted state no matter how
        // many batches install while the job waits or runs. This pin is the
        // only versioning-state lock on the whole read path; the worker
        // executes lock-free against the pinned epoch. Updates address the
        // head; static targets have one state and are read in place.
        let snapshot = match (is_update, versioned, req.as_of) {
            (true, _, 0) | (false, false, 0) => None,
            (true, _, _) => {
                let message = "updates must address the current epoch (as_of must be 0)";
                return refuse(&stats.bad_requests, ErrorCode::BadRequest, message.into());
            }
            (false, false, _) => {
                let message = format!(
                    "target {} ({}) has no version history (as_of must be 0)",
                    req.target,
                    target.kind()
                );
                return refuse(&stats.bad_requests, ErrorCode::Unsupported, message);
            }
            (false, true, 0) => Some(self.versions.snapshot()),
            // Outside the retained window (or never installed): the typed
            // error carries the addressable range.
            (false, true, seq) => match self.versions.snapshot_at(seq) {
                Ok(snapshot) => Some(snapshot),
                Err(e) => return refuse(&stats.bad_requests, ErrorCode::BadRequest, e.to_string()),
            },
        };

        let deadline = (req.deadline_ms > 0).then(|| now + Duration::from_millis(req.deadline_ms as u64));
        // Sampling is decided once, at admission, from the request id alone —
        // `FLAG_TRACE` forces it per request; otherwise the deterministic
        // sampler makes the sampled set reproducible across runs.
        let sampled = req.flags & FLAG_TRACE != 0 || self.sampler.should_sample(req.id);
        let job = Job { req, conn: Arc::clone(conn), enqueued: now, deadline, sampled, snapshot };
        let queue = if is_update { &self.updates } else { &self.queries };
        // A shed job gives its pin back before its reply leaves, as an
        // answered one does (`worker_loop`).
        let (job, counter, code, message) = match queue.try_push(job) {
            Ok(()) => {
                stats.admitted.fetch_add(1, Relaxed);
                return;
            }
            Err(PushError::Full(job)) => (job, &stats.overloaded, ErrorCode::Overloaded, "queue full"),
            Err(PushError::Closed(job)) => {
                (job, &stats.shed_shutdown, ErrorCode::ShuttingDown, "draining")
            }
        };
        drop(job);
        refuse(counter, code, message.into());
    }

    fn draining(&self) -> bool {
        self.shutdown.load(Relaxed)
    }

    fn event(&self, event: ConnEvent) {
        let counter = match event {
            ConnEvent::Accepted => &self.stats.conns_accepted,
            ConnEvent::IdleClosed => &self.stats.conns_idle_closed,
            ConnEvent::Undecodable => &self.stats.bad_requests,
        };
        counter.fetch_add(1, Relaxed);
    }
}

/// Spawns servers. The unit struct exists so the entry point reads as
/// `Server::spawn(service, config)`.
pub struct Server;

impl Server {
    /// Binds `config.addr`, spawns the thread pool, and returns a handle.
    pub fn spawn(service: Service, config: ServerConfig) -> io::Result<ServerHandle> {
        let workers = config.workers.max(1);
        let registry = &service.registry;
        let target_names: Vec<String> = (0..registry.len() as u16)
            .filter_map(|tid| registry.name(tid))
            .map(str::to_string)
            .collect();
        // The epoch manager. On a recovered durable store the last commit
        // metadata restores the exact committed epoch (seq + descriptors);
        // a fresh store starts at epoch 0, whose user metadata already
        // carries the registered descriptors so epoch-0 snapshots can open
        // frozen views.
        let vcfg = VersionConfig { retain: config.version_retain };
        let versions = match service.store.last_commit_meta() {
            Some(meta) => {
                Arc::new(VersionedStore::open(Arc::clone(&service.store), Some(&meta), vcfg))
            }
            None => Arc::new(VersionedStore::new(
                Arc::clone(&service.store),
                vcfg,
                &encode_commit_meta(0, &registry.descriptors()),
            )),
        };
        let shared = Arc::new(Shared {
            registry: service.registry,
            queries: Bounded::new(config.queue_depth),
            updates: Bounded::new(config.update_queue_depth),
            stats: ServeStats::default(),
            shutdown: AtomicBool::new(false),
            // Batch seqs are epoch seqs; `install_as` requires them to be
            // strictly increasing, so a recovered server resumes from the
            // recovered epoch rather than restarting at 0.
            batch_seq: AtomicU64::new(versions.current_seq()),
            versions,
            sampler: Sampler::new(config.trace_sample, TRACE_SEED),
            slowlog: SlowLog::new(SLOWLOG_K),
            target_stats: TargetStatsSet::new(target_names),
            store: service.store,
        });
        let front = Front::spawn(&config.addr, config.idle_timeout, Arc::clone(&shared))?;
        let worker_handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let batcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || batcher_loop(&shared))
        };
        Ok(ServerHandle { front, shared, workers: worker_handles, batcher: Some(batcher) })
    }
}

/// Owner handle for a running server. Dropping it shuts the server down
/// and joins every thread.
pub struct ServerHandle {
    front: Front,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    batcher: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// Live service counters.
    pub fn stats(&self) -> &ServeStats {
        &self.shared.stats
    }

    /// Snapshot of the shared store's I/O counters.
    pub fn io_stats(&self) -> IoStats {
        self.shared.store.stats()
    }

    /// The page store all served structures live in (chaos tests use this
    /// to inject faults into a running server).
    pub fn store(&self) -> &Arc<PageStore> {
        &self.shared.store
    }

    /// The epoch manager (tests pin snapshots and read version metrics
    /// directly; remote clients use `as_of` and the ADMIN `Versions` op).
    pub fn versions(&self) -> &Arc<VersionedStore> {
        &self.shared.versions
    }

    /// The slow-query log (in-process view; `SlowLog` ADMIN op remotely).
    pub fn slow_log(&self) -> &SlowLog {
        &self.shared.slowlog
    }

    /// Current trace-sampling rate (1 in N; 0 = off).
    pub fn trace_sampling(&self) -> u64 {
        self.shared.sampler.every()
    }

    /// True once shutdown has been requested (locally or over the wire).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Relaxed)
    }

    /// Requests drain-then-shutdown without blocking.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Kills the node abruptly: every client socket is cut **now**, before
    /// any queued response can leave, and no drain happens on the wire.
    /// From a peer's view this is a process kill — in-flight calls fail
    /// with a connection error, un-acked updates are in limbo. The chaos
    /// harness uses this to kill one replica of a shard group mid-workload;
    /// joining the handle afterwards still reclaims the threads. Acked
    /// updates survive by construction: on a durable store the ack was
    /// sent only after its group commit.
    pub fn kill(&self) {
        self.shared.begin_shutdown();
        self.front.cut_all();
    }

    /// Shuts down and joins every thread; admitted work is answered first.
    pub fn join(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        self.shared.begin_shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(b) = self.batcher.take() {
            let _ = b.join();
            // Drain-time sync: the batcher has applied its last batch, so
            // flush whatever the store still buffers (the pool's dirty
            // pages on a pooled store, pending WAL records on a durable
            // one). Without this, a clean drain-then-shutdown could drop
            // acked updates that were still sitting in the buffer pool —
            // the shutdown flavor of the lost-ack bug.
            let _ = self.shared.store.sync();
        }
        self.front.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.join_inner();
    }
}

#[cfg(test)]
mod tests {
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    use pc_pagestore::{PageStore, Point};
    use pc_pst::DynamicPst;

    use super::*;
    use crate::target::DynamicPstTarget;
    use crate::wire::{Op, Request};

    /// ROADMAP 3h: a worker used to drop its job — and the `Snapshot` in it
    /// — after writing the reply, so a peer's next scrape could still count
    /// the finished query's pin. The interleaving, forced: the test holds
    /// the connection's write lock, so the worker that answered the query
    /// cannot finish `respond`; once the query's latency is on record (the
    /// step before the write) no epoch may be pinned any more.
    #[test]
    fn a_finished_query_holds_no_pin_while_its_reply_is_written() {
        let store = Arc::new(PageStore::in_memory(512));
        let points: Vec<Point> = (0..300).map(|i| Point::new(i, (i * 7) % 300, i as u64)).collect();
        let mut registry = Registry::new();
        let pst = DynamicPst::build(&store, &points).unwrap();
        registry.register("dyn", Box::new(DynamicPstTarget::new(pst)));
        let cfg = ServerConfig { workers: 1, ..ServerConfig::default() };
        let handle = Server::spawn(Service { store, registry }, cfg).unwrap();
        let shared = Arc::clone(&handle.shared);

        // A connection of the test's own: the worker writes to `served`.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let conn = Arc::new(Conn::new(listener.accept().unwrap().0));

        let writing = conn.wlock.lock();
        let op = Op::TwoSided { x0: 0, y0: 0 };
        let req = Request { id: 1, target: 0, deadline_ms: 0, flags: 0, as_of: 0, op };
        let job = Job {
            req,
            conn: Arc::clone(&conn),
            enqueued: Instant::now(),
            deadline: None,
            sampled: false,
            snapshot: Some(shared.versions.snapshot()),
        };
        assert_eq!(shared.versions.metrics().pinned, 1, "the admitted query pins its epoch");
        assert!(shared.queries.try_push(job).is_ok());
        let gave_up = Instant::now() + Duration::from_secs(30);
        while shared.stats.query_latency_ns.snapshot().count == 0 {
            assert!(Instant::now() < gave_up, "the worker never answered");
            std::thread::yield_now();
        }
        // The worker is at (or blocked in) the write of the reply.
        assert_eq!(shared.stats.queries_ok.load(Relaxed), 1);
        assert_eq!(shared.versions.metrics().pinned, 0, "a pin outlived its query's answer");
        drop(writing);
        drop(peer);
        handle.join();
    }

    #[test]
    fn commit_meta_round_trips_and_rejects_garbage() {
        let descs = vec![None, Some(vec![1u8, 2, 3]), Some(Vec::new()), None];
        let meta = encode_commit_meta(42, &descs);
        assert_eq!(decode_commit_meta(&meta), Some((42, descs)));


        // Truncations and trailing garbage are clean rejections.
        assert_eq!(decode_commit_meta(&[]), None);
        assert_eq!(decode_commit_meta(&[1, 2, 3]), None);
        let meta = encode_commit_meta(1, &[Some(vec![9u8; 8])]);
        for cut in 9..meta.len() {
            assert_eq!(decode_commit_meta(&meta[..cut]), None, "cut at {cut}");
        }
        let mut padded = meta.clone();
        padded.push(0);
        assert_eq!(decode_commit_meta(&padded), None);

        // A version frame unwraps; the former page-map frame does not.
        let vm = pc_pagestore::VersionMeta { seq: 1, user: meta.clone() };
        let framed = pc_pagestore::encode_version_meta(&vm);
        assert_eq!(decode_commit_meta(&framed), decode_commit_meta(&meta));
        let pcv1 = [&b"PCV1"[..], &framed[4..]].concat();
        assert_eq!(decode_commit_meta(&pcv1), None);
    }

    /// A durable store committed under the former page map — whose
    /// epochs' descriptors name ids a map translated — is refused by its
    /// log's header (`PCWAL002`), before a server could reopen those ids.
    #[test]
    fn a_store_committed_under_the_page_map_is_refused() {
        let mut log = b"PCWAL002".to_vec();
        log.extend_from_slice(&512u64.to_le_bytes());
        let opened = PageStore::new_durable(
            pc_pagestore::StoreConfig::strict(512),
            Box::new(pc_pagestore::backend::MemBackend::new(520)),
            Box::new(pc_pagestore::MemLog::from_bytes(log)),
            pc_pagestore::WalConfig::default(),
        );
        let refused = opened.err().expect("refused");
        assert!(matches!(refused, StoreError::LayoutVersion { found: 2, .. }), "{refused}");
    }
}
