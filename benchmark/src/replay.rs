//! The in-process passes: one thread replays the op prefix through the
//! same public layer calls the server makes, in the same order -
//! encode -> `decode_request` -> `Bounded` hop -> snapshot pin ->
//! `open_frozen` / `FrozenView::query` or `QueryTarget::query` ->
//! `response_frame` -> `decode_response`; for updates `begin_apply` ->
//! `apply_updates` -> `install_as`. Each call sits inside a span, which
//! costs nothing unless the thread has a tracer installed.
//!
//! The **counted pass** runs with spans off and reads the exact I/O
//! counters around every op; it also produces the digest every socket
//! reply is later compared with. The **traced pass** runs the same ops
//! with spans on and off in alternation, the untraced half being the
//! reference for what tracing costs.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use pc_pagestore::{IoStats, PageStore, VersionConfig, VersionedStore, WalStats};
use pc_serve::queue::Bounded;
use pc_serve::wire::{
    decode_request, decode_response, request_frame, response_frame, Body, Op, Request, Response,
};
use pc_serve::{
    decode_commit_meta, encode_commit_meta, FrozenView, Registry, ServerConfig, UpdateOp,
};

use crate::data::{Checker, Digest, Query};
use crate::setup::Built;
use crate::spec::{PAGE_SIZE, WRITE_BURST};
use crate::trace::{self, span, Span};

/// Span names of the four query kinds, indexed like `Workload::mix`.
pub const QUERY_LAYERS: [&str; 4] =
    ["pst.two_sided", "pst.three_sided", "intervaltree.stab", "btree.range"];

/// `(kind index, records per page)` of a query op.
fn kind_of(op: &Op) -> (usize, u64) {
    let per_page = |record_len: usize| (PAGE_SIZE / record_len) as u64;
    match op {
        Op::TwoSided { .. } => (0, per_page(24)),
        Op::ThreeSided { .. } => (1, per_page(24)),
        Op::Stab { .. } => (2, per_page(24)),
        _ => (3, per_page(16)),
    }
}

fn descriptors(registry: &Registry) -> Vec<Option<Vec<u8>>> {
    (0..registry.len() as u16).map(|t| registry.get(t).and_then(|t| t.descriptor())).collect()
}

/// Cumulative counters of every layer below the structures.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub io: IoStats,
    pub wal: WalStats,
    pub log_bytes: u64,
}

impl Counters {
    pub fn read(store: &PageStore, log_bytes: &AtomicU64) -> Counters {
        Counters {
            io: store.stats(),
            wal: store.wal_stats().unwrap_or_default(),
            log_bytes: log_bytes.load(Relaxed),
        }
    }

    /// Logical page reads: backend transfers, pool hits, and reads the
    /// durable store's dirty table absorbed. The paper's I/O count.
    pub fn logical_reads(&self) -> u64 {
        self.io.reads + self.io.cache_hits + self.wal.dirty_hits
    }

    /// Logical page writes on a durable store: page-image records in the
    /// log (all records minus allocs, frees, commits and checkpoints).
    pub fn logged_page_writes(&self) -> u64 {
        self.wal.appends - self.io.allocs - self.io.frees - self.wal.commits - self.wal.checkpoints
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        let (a, b) = (&self.wal, &earlier.wal);
        Counters {
            io: self.io - earlier.io,
            wal: WalStats {
                appends: a.appends - b.appends,
                commits: a.commits - b.commits,
                fsyncs: a.fsyncs - b.fsyncs,
                checkpoints: a.checkpoints - b.checkpoints,
                dirty_hits: a.dirty_hits - b.dirty_hits,
                ..*a
            },
            log_bytes: self.log_bytes - earlier.log_bytes,
        }
    }

    fn add(&mut self, d: &Counters) {
        let io = &mut self.io;
        io.reads += d.io.reads;
        io.writes += d.io.writes;
        io.cache_hits += d.io.cache_hits;
        io.allocs += d.io.allocs;
        io.frees += d.io.frees;
        io.pool_evictions += d.io.pool_evictions;
        let wal = &mut self.wal;
        wal.appends += d.wal.appends;
        wal.commits += d.wal.commits;
        wal.fsyncs += d.wal.fsyncs;
        wal.checkpoints += d.wal.checkpoints;
        wal.dirty_hits += d.wal.dirty_hits;
        self.log_bytes += d.log_bytes;
    }
}

/// The server's request path, driven from one thread.
pub struct Replayer<'a> {
    store: &'a Arc<PageStore>,
    registry: &'a Registry,
    versions: VersionedStore,
    queue: Bounded<Request>,
    batch_seq: u64,
    next_id: u64,
}

impl<'a> Replayer<'a> {
    /// Sets up the epoch manager the way `Server::spawn` does.
    pub fn new(built: &'a Built) -> Replayer<'a> {
        let cfg = ServerConfig::default();
        let vcfg = VersionConfig { retain: cfg.version_retain };
        let store = &built.store;
        let versions = match store.last_commit_meta() {
            Some(meta) => VersionedStore::open(Arc::clone(store), Some(&meta), vcfg),
            None => VersionedStore::new(
                Arc::clone(store),
                vcfg,
                &encode_commit_meta(0, &descriptors(&built.registry)),
            ),
        };
        Replayer {
            store,
            registry: &built.registry,
            batch_seq: versions.current_seq(),
            versions,
            queue: Bounded::new(cfg.queue_depth),
            next_id: 0,
        }
    }

    /// Encode, decode and queue one request, as client and reader thread
    /// would.
    fn admit(&mut self, target: u16, op: Op) -> Result<Request, String> {
        self.next_id += 1;
        let req = Request { id: self.next_id, target, deadline_ms: 0, flags: 0, as_of: 0, op };
        let frame = {
            let _s = span("serve.wire.encode_req");
            request_frame(&req)
        };
        let req = {
            let _s = span("serve.wire.decode_req");
            decode_request(&frame[4..]).map_err(|e| format!("decode request: {e}"))?
        };
        let _s = span("serve.queue");
        self.queue.try_push(req).map_err(|_| "replay queue refused a request")?;
        self.queue.pop().ok_or_else(|| "replay queue closed".to_string())
    }

    /// Encode and decode one response, as worker and client would.
    /// Returns the decoded response and the frame's size.
    fn reply(&self, resp: Response) -> Result<(Response, usize), String> {
        let frame = {
            let _s = span("serve.wire.encode_resp");
            response_frame(&resp)
        };
        let _s = span("serve.wire.decode_resp");
        let decoded =
            decode_response(&frame.as_slice()[4..]).map_err(|e| format!("decode response: {e}"))?;
        Ok((decoded, frame.len()))
    }

    /// One query, start to decoded reply.
    pub fn query(&mut self, q: &Query) -> Result<(Response, usize), String> {
        trace::set_request(self.next_id + 1);
        let _root = span("request");
        let req = self.admit(q.target, q.op.clone())?;
        let target = self.registry.get(req.target).ok_or("unknown target")?;
        let layer = QUERY_LAYERS[kind_of(&req.op).0];
        let result = if target.versioned_updates() {
            // `query_at_snapshot` in pc-serve: pin the current epoch, find
            // or build its frozen view, read through the epoch's page map.
            let pin = span("pagestore.version.pin");
            let snap = self.versions.snapshot();
            let tid = req.target as u64;
            let view: Arc<FrozenView> = match snap.cached(tid) {
                Some(v) => v.downcast().map_err(|_| "epoch cache holds a foreign type")?,
                None => {
                    let desc = decode_commit_meta(snap.user_meta())
                        .and_then(|(_, descs)| descs.into_iter().nth(req.target as usize).flatten())
                        .ok_or("epoch without a descriptor")?;
                    let boxed = {
                        let _g = snap.enter();
                        target.open_frozen(self.store, &desc).map_err(|e| e.to_string())?
                    };
                    snap.cache_put(tid, Arc::new(FrozenView(boxed)))
                        .downcast()
                        .map_err(|_| "epoch cache holds a foreign type")?
                }
            };
            let guard = snap.enter();
            drop(pin);
            let _s = span(layer);
            let body = view.query(self.store, &req.op);
            drop(guard);
            body
        } else {
            let _s = span(layer);
            target.query(self.store, &req.op)
        };
        let body = result.map_err(|e| e.to_string())?;
        self.reply(Response { id: req.id, body })
    }

    /// One batch of updates to `target`, the way the batcher applies a
    /// coalesced group: one copy-on-write session, one `apply_updates`,
    /// one epoch install (the group commit on a durable store).
    pub fn apply_batch(&mut self, target: u16, ops: &[Op]) -> Result<(), String> {
        trace::set_request(self.next_id + 1);
        let _root = span("update_batch");
        let mut reqs = Vec::with_capacity(ops.len());
        for op in ops {
            reqs.push(self.admit(target, op.clone())?);
        }
        let updates: Vec<UpdateOp> = reqs
            .iter()
            .map(|r| match &r.op {
                Op::Insert(p) => Ok(UpdateOp::Insert(*p)),
                Op::Delete(p) => Ok(UpdateOp::Delete(*p)),
                other => Err(format!("{} is not an update", other.name())),
            })
            .collect::<Result<_, _>>()?;
        let tgt = self.registry.get(target).ok_or("unknown target")?;
        self.batch_seq += 1;
        let seq = self.batch_seq;
        let session = {
            let _s = span("pagestore.version.begin_apply");
            self.versions.begin_apply()
        };
        {
            let _s = span("pst.apply");
            for r in tgt.apply_updates(self.store, &updates) {
                r.map_err(|e| e.to_string())?;
            }
        }
        {
            let _s = span("pagestore.version.install");
            session
                .install_as(seq, &encode_commit_meta(seq, &descriptors(self.registry)))
                .map_err(|e| format!("install epoch {seq}: {e}"))?;
        }
        let coalesced = ops.len() as u32;
        for r in &reqs {
            let (resp, _) =
                self.reply(Response { id: r.id, body: Body::Ack { batch: seq, coalesced } })?;
            if !matches!(resp.body, Body::Ack { .. }) {
                return Err("ack did not survive the codec".to_string());
            }
        }
        Ok(())
    }
}

/// Exact counts of one query kind over the counted pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct KindCounts {
    pub queries: u64,
    /// Logical page reads.
    pub reads: u64,
    /// Sum of the paper's budget, `ceil(log_B n) + ceil(t/B)` per query.
    pub budget: u64,
    /// Sum of `reads - floor(t/B)`: transfers not paid for by a full
    /// block of output (section 3).
    pub wasteful: u64,
}

/// What the counted pass measured.
#[derive(Default)]
pub struct Counted {
    /// Digest of every query's answer (its base records), in op order.
    pub expected: Vec<Digest>,
    pub kinds: [KindCounts; 4],
    /// Wall time of each query, spans off.
    pub query_ns: Vec<u64>,
    /// Wall time of each update batch, spans off.
    pub batch_ns: Vec<u64>,
    pub resp_bytes: u64,
    /// Counter movement during queries / during update batches.
    pub query_counters: Counters,
    pub update_counters: Counters,
    pub updates: u64,
}

/// `ceil(log_B n)`, at least 1.
fn log_ceil(n: u64, b: u64) -> u64 {
    let mut levels = 1;
    let mut reach = b;
    while reach < n {
        reach = reach.saturating_mul(b);
        levels += 1;
    }
    levels
}

/// Records per structure, indexed like `QUERY_LAYERS`.
pub type KindSizes = [u64; 4];

/// Replays `queries` (and, interleaved one burst per `WRITE_BURST`
/// queries, `updates`) with spans off, reading the counters around each
/// op. Every answer is predicate-checked on the way.
pub fn counted_pass(
    built: &Built,
    rp: &mut Replayer<'_>,
    queries: &[Query],
    updates: &[Op],
    sizes: &KindSizes,
    checker: &Checker<'_>,
) -> Result<Counted, String> {
    let mut out = Counted::default();
    let read = || Counters::read(&built.store, &built.log_bytes);
    let mut bursts = updates.chunks_exact(WRITE_BURST);
    for chunk in queries.chunks(WRITE_BURST) {
        if let Some(burst) = bursts.next() {
            let before = read();
            let t = Instant::now();
            rp.apply_batch(crate::spec::T_DYN, burst)?;
            out.batch_ns.push(t.elapsed().as_nanos() as u64);
            out.update_counters.add(&read().since(&before));
            out.updates += burst.len() as u64;
        }
        for q in chunk {
            let before = read();
            let t = Instant::now();
            let (resp, bytes) = rp.query(q)?;
            out.query_ns.push(t.elapsed().as_nanos() as u64);
            let delta = read().since(&before);
            let checked = checker
                .check(&q.op, &resp.body)
                .ok_or_else(|| format!("in-process answer to {:?} fails its predicate", q.op))?;
            let (kind, per_page) = kind_of(&q.op);
            let k = &mut out.kinds[kind];
            k.queries += 1;
            k.reads += delta.logical_reads();
            k.budget += log_ceil(sizes[kind], per_page) + checked.records.div_ceil(per_page);
            k.wasteful += delta.logical_reads().saturating_sub(checked.records / per_page);
            out.query_counters.add(&delta);
            out.resp_bytes += bytes as u64;
            out.expected.push(checked.base);
        }
    }
    Ok(out)
}

/// What the traced pass recorded.
pub struct Traced {
    pub spans: Vec<Span>,
    /// Wall time and op count (queries and update batches) of the
    /// stretches replayed with spans on, and of those with spans off.
    pub traced_ns: u64,
    pub traced_ops: u64,
    pub untraced_ns: u64,
    pub untraced_ops: u64,
}

/// The same replay without the per-op counter reads, alternating between
/// spans on and spans off from one burst-sized stretch to the next. The
/// two halves see the same mix of ops and - what matters on a host whose
/// speed changes from second to second - the same moments, so the ratio
/// of their per-op times is what tracing costs. `updates` must be a
/// stretch of the stream no earlier pass has applied.
pub fn traced_pass(
    rp: &mut Replayer<'_>,
    queries: &[Query],
    updates: &[Op],
) -> Result<Traced, String> {
    // A cold query opens ~20 spans, a durable update ~50; half are traced.
    trace::start(queries.len() * 12 + updates.len() * 32);
    let mut out =
        Traced { spans: Vec::new(), traced_ns: 0, traced_ops: 0, untraced_ns: 0, untraced_ops: 0 };
    let run = (|| {
        let mut bursts = updates.chunks_exact(WRITE_BURST);
        for (k, chunk) in queries.chunks(WRITE_BURST).enumerate() {
            let muted = k % 2 == 1;
            trace::set_muted(muted);
            let burst = bursts.next();
            let t = Instant::now();
            if let Some(burst) = burst {
                rp.apply_batch(crate::spec::T_DYN, burst)?;
            }
            for q in chunk {
                rp.query(q)?;
            }
            let (ns, ops) = if muted {
                (&mut out.untraced_ns, &mut out.untraced_ops)
            } else {
                (&mut out.traced_ns, &mut out.traced_ops)
            };
            *ns += t.elapsed().as_nanos() as u64;
            *ops += (chunk.len() + usize::from(burst.is_some())) as u64;
        }
        Ok(())
    })();
    out.spans = trace::finish();
    run.map(|()| out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_ceil_matches_the_tree_heights() {
        assert_eq!(log_ceil(1, 170), 1);
        assert_eq!(log_ceil(170, 170), 1);
        assert_eq!(log_ceil(171, 170), 2);
        assert_eq!(log_ceil(28_900, 170), 2);
        assert_eq!(log_ceil(500_000, 170), 3);
        assert_eq!(log_ceil(1_000_000, 170), 3);
    }
}
