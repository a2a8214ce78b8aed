//! The shard fabric: keyspace sharding by split points, a scatter-gather
//! router over replica groups of `pc-serve` nodes, and a thin wire
//! front-end so clients keep speaking the existing protocol.
//!
//! The paper's structures are embarrassingly partitionable by key range:
//! every query this workspace serves (1-d range, stabbing, 2-sided,
//! 3-sided) decomposes over disjoint x-ranges, so a [`ShardMap`] of
//! strictly increasing split points assigns each key to exactly one
//! logical shard and each query to the contiguous run of shards its
//! x-range overlaps. The router scatters the query to those shards
//! (node-to-node over the same wire protocol, via [`Client`]), gathers,
//! and merges into the **canonical order** ([`canonicalize`]): points by
//! `(x, y, id)`, intervals by `(lo, hi, id)`, keys by key. A single-node
//! target's answer, canonicalized the same way, is bit-identical — the
//! property the `router_merge` suite proves across shard counts 1–8.
//!
//! Robustness model (the reason this layer exists):
//!
//! * each logical shard is a **replica group** of ≥ 1 `pc-serve`
//!   instances; reads go to one replica (round-robin) and **fail over**
//!   to the next on a connection error, a deadline, a transient typed
//!   error ([`crate::wire::ErrorCode::is_transient`]), or `Storage` — one
//!   replica's page store failing, say a corrupt page. That replica stays
//!   in the read path (it is caught up; its other pages serve). This is
//!   the workspace's one replication mechanism: a corrupt page is masked
//!   while one replica's copy is good, and is not repaired in place;
//! * idempotent queries are **retried** under the seeded-jitter
//!   [`RetryPolicy`] (capped exponential backoff) after a full cycle of
//!   replicas failed transiently; when every healthy replica answered
//!   `Storage` the read fails at once, with that code;
//! * updates are routed to the owning shard and fanned out to **every
//!   healthy replica**; the update is acknowledged iff at least one
//!   replica acked, and every replica that did *not* ack an acked update
//!   is marked dead until the background health loop replays it back in
//!   sync from the shard's **journal** of acked updates (replay is
//!   idempotent: dynamic-PST updates resolve by point id and sequence);
//!   the journal is truncated below the slowest replica's cursor, so its
//!   memory footprint tracks replica lag, not uptime
//!   (`pc_shard_journal_truncated` counts reclaimed entries);
//! * a background **health loop** pings replicas (ADMIN ping), marks the
//!   unresponsive dead, reconnects dead ones, and replays their journal
//!   tail before readmitting them to the read path;
//! * per-shard `Overloaded` / `DeadlineExceeded` propagate as
//!   partial-failure-aware typed [`RouterError`]s naming the shard, and
//!   router-level shutdown fans out to every replica ([`Router::shutdown`]).
//!
//! What this layer does **not** do (documented, not accidental): an
//! update that failed on every replica is not journaled, so a replica
//! that silently applied it before dying can carry it as an extra,
//! never-acknowledged op — exactly the at-least-once contract every
//! client of a replicated store already lives with. Clients that retry
//! unacknowledged updates to an ack re-converge the groups, because
//! replay and re-application are idempotent by point identity.

use std::fmt;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pc_obs::shard_metrics as names;
use pc_obs::Summary::{Count, P50, P99};
use pc_obs::{Histogram, Sample};
use pc_pagestore::{Interval, Point};
use pc_rng::Rng;
use pc_sync::Mutex;

use crate::client::{Client, ClientError, RetryPolicy};
use crate::front::{Conn, Front, Handler};
use crate::wire::{Body, ErrorCode, Op, Request, Response};

/// The keyspace partition: `splits` strictly increasing, shard `i` owning
/// `[splits[i-1], splits[i])` with open ends (`shards() == splits.len() + 1`).
#[derive(Debug, Clone)]
pub struct ShardMap {
    splits: Vec<i64>,
}

impl ShardMap {
    /// Builds a map from strictly increasing split points; an empty vec is
    /// the degenerate single-shard map.
    pub fn new(splits: Vec<i64>) -> ShardMap {
        assert!(splits.windows(2).all(|w| w[0] < w[1]), "split points must strictly increase");
        ShardMap { splits }
    }

    /// Split points at the x-quantiles of `keys` — the harness-side helper
    /// for carving `shards` balanced shards out of a concrete data set.
    /// Returns fewer than `shards - 1` splits when duplicates collapse.
    pub fn quantile_splits(keys: &[i64], shards: usize) -> Vec<i64> {
        if shards <= 1 || keys.is_empty() {
            return Vec::new();
        }
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        let mut splits = Vec::with_capacity(shards - 1);
        for s in 1..shards {
            let cut = sorted[(s * sorted.len() / shards).min(sorted.len() - 1)];
            // Never cut at the minimum key (shard 0 would own nothing) and
            // keep the sequence strictly increasing under duplicates.
            if cut > sorted[0] && splits.last().is_none_or(|&prev| cut > prev) {
                splits.push(cut);
            }
        }
        splits
    }

    /// Number of logical shards.
    pub fn shards(&self) -> usize {
        self.splits.len() + 1
    }

    /// The split points.
    pub fn splits(&self) -> &[i64] {
        &self.splits
    }

    /// The shard owning key `x`.
    pub fn shard_of(&self, x: i64) -> usize {
        self.splits.partition_point(|&s| s <= x)
    }

    /// The contiguous shard indices a closed x-range `[lo, hi]` overlaps.
    pub fn shard_range(&self, lo: i64, hi: i64) -> std::ops::RangeInclusive<usize> {
        if lo > hi {
            // Empty query range: route to the lo shard; it answers empty.
            let s = self.shard_of(lo);
            return s..=s;
        }
        self.shard_of(lo)..=self.shard_of(hi)
    }

    /// The shards a routable op touches, or `None` for ops the data path
    /// cannot route (admin ops).
    pub fn route(&self, op: &Op) -> Option<std::ops::RangeInclusive<usize>> {
        match op {
            Op::Range1d { lo, hi } => Some(self.shard_range(*lo, *hi)),
            Op::Stab { q } => {
                let s = self.shard_of(*q);
                Some(s..=s)
            }
            Op::TwoSided { x0, .. } => Some(self.shard_of(*x0)..=self.shards() - 1),
            Op::ThreeSided { x1, x2, .. } => Some(self.shard_range(*x1, *x2)),
            Op::Insert(p) | Op::Delete(p) => {
                let s = self.shard_of(p.x);
                Some(s..=s)
            }
            _ => None,
        }
    }

    /// Data placement: points by owning shard.
    pub fn partition_points(&self, points: &[Point]) -> Vec<Vec<Point>> {
        let mut out = vec![Vec::new(); self.shards()];
        for p in points {
            out[self.shard_of(p.x)].push(*p);
        }
        out
    }

    /// Data placement: `(key, value)` entries by owning shard.
    pub fn partition_entries(&self, entries: &[(i64, u64)]) -> Vec<Vec<(i64, u64)>> {
        let mut out = vec![Vec::new(); self.shards()];
        for e in entries {
            out[self.shard_of(e.0)].push(*e);
        }
        out
    }

    /// Data placement: each interval is stored on **every** shard it
    /// overlaps, so a stabbing query at `q` — routed to the single shard
    /// owning `q` — finds every interval containing `q` locally.
    pub fn partition_intervals(&self, intervals: &[Interval]) -> Vec<Vec<Interval>> {
        let mut out = vec![Vec::new(); self.shards()];
        for iv in intervals {
            for s in self.shard_range(iv.lo, iv.hi) {
                out[s].push(*iv);
            }
        }
        out
    }
}

/// Router tuning knobs. `Default` suits tests and small clusters.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Per-shard read retry schedule (attempts × capped exponential
    /// backoff with seeded jitter); one "attempt" is a full cycle over the
    /// shard's replicas.
    pub retry: RetryPolicy,
    /// Background health-loop cadence (ping, reconnect, journal replay).
    pub health_interval: Duration,
    /// Seed for backoff jitter (deterministic retry schedules in tests).
    pub seed: u64,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            retry: RetryPolicy::default(),
            health_interval: Duration::from_millis(50),
            seed: 0x5AFE_C10C,
        }
    }
}

/// A replica connection's connect timeout, and the read/write timeout of
/// every call over it (a dead peer surfaces as an error, never a hang).
const REPLICA_TIMEOUT: Duration = Duration::from_secs(1);
/// Idle connections retained per replica. Calls check a connection out of
/// the pool (opening a new one when empty), so replica concurrency tracks
/// caller concurrency instead of serializing on one socket.
const POOL_PER_REPLICA: usize = 8;
/// How long the frontend keeps an idle client connection.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Why a routed request failed. Partial-failure aware: every variant names
/// the shard that failed, and a typed per-shard error (`Overloaded`,
/// `DeadlineExceeded`, ...) carries its original code — one hot shard
/// shedding load is distinguishable from the fabric being down.
#[derive(Debug)]
pub enum RouterError {
    /// Every replica of the shard was unreachable (connection errors /
    /// timeouts) after the full retry schedule.
    ShardUnavailable {
        /// The logical shard index.
        shard: usize,
        /// Last transport error observed.
        detail: String,
    },
    /// The shard answered with a typed error; other shards of the same
    /// scatter may have answered fine.
    Shard {
        /// The logical shard index.
        shard: usize,
        /// The shard's own error code, propagated verbatim.
        code: ErrorCode,
        /// The shard's message.
        message: String,
    },
    /// The op cannot be routed (admin ops must target the router itself).
    BadRequest(String),
    /// A shard answered with a body the op cannot produce.
    Protocol {
        /// The logical shard index.
        shard: usize,
        /// What came back.
        detail: String,
    },
    /// The router is draining; no new work is routed.
    ShuttingDown,
}

impl RouterError {
    /// The wire code the front-end answers clients with.
    pub fn code(&self) -> ErrorCode {
        match self {
            RouterError::ShardUnavailable { .. } => ErrorCode::Storage,
            RouterError::Shard { code, .. } => *code,
            RouterError::BadRequest(_) => ErrorCode::BadRequest,
            RouterError::Protocol { .. } => ErrorCode::Storage,
            RouterError::ShuttingDown => ErrorCode::ShuttingDown,
        }
    }
}

impl fmt::Display for RouterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterError::ShardUnavailable { shard, detail } => {
                write!(f, "shard {shard}: all replicas unavailable: {detail}")
            }
            RouterError::Shard { shard, code, message } => {
                write!(f, "shard {shard}: {code:?}: {message}")
            }
            RouterError::BadRequest(msg) => write!(f, "unroutable request: {msg}"),
            RouterError::Protocol { shard, detail } => {
                write!(f, "shard {shard}: protocol error: {detail}")
            }
            RouterError::ShuttingDown => write!(f, "router is draining"),
        }
    }
}

impl std::error::Error for RouterError {}

/// Always-on per-shard counters (the `pc_shard_*` families).
#[derive(Default)]
pub struct ShardStats {
    /// Requests (queries + updates) routed at this shard.
    pub requests: AtomicU64,
    /// Reads failed over to another replica.
    pub failovers: AtomicU64,
    /// Backoff retry cycles taken by idempotent queries.
    pub retries: AtomicU64,
    /// Requests that ended in a typed error.
    pub errors: AtomicU64,
    /// Journal entries replayed into catching-up replicas.
    pub replayed: AtomicU64,
    /// Replica reconnects completed by the health loop.
    pub reconnects: AtomicU64,
    /// Journal entries truncated after every replica caught up past them.
    pub truncated: AtomicU64,
    /// Scatter-leg latency, nanoseconds.
    pub latency_ns: Histogram,
}

/// One replica of a shard group, with a pool of idle connections so
/// concurrent scatter legs don't serialize on a single socket.
struct Replica {
    addr: Mutex<SocketAddr>,
    idle: Mutex<Vec<Client>>,
    healthy: AtomicBool,
    /// Journal entries known applied to this replica. Transitions that
    /// matter (ack fan-out, replay-complete) happen under the shard's
    /// journal lock.
    caught_up: AtomicU64,
}

impl Replica {
    fn mark_dead(&self) {
        self.healthy.store(false, Relaxed);
        self.idle.lock().clear();
    }

    /// Takes an idle connection, or opens a fresh one.
    fn checkout(&self) -> Option<Client> {
        if let Some(c) = self.idle.lock().pop() {
            return Some(c);
        }
        Client::connect(*self.addr.lock(), REPLICA_TIMEOUT).ok()
    }

    /// Returns a connection after a successful call; dropped when the pool
    /// is full or the replica died meanwhile.
    fn checkin(&self, client: Client) {
        if self.healthy.load(Relaxed) {
            let mut idle = self.idle.lock();
            if idle.len() < POOL_PER_REPLICA {
                idle.push(client);
            }
        }
    }

    /// One request over a pooled connection. A transport failure consumes
    /// the connection and surfaces the error; the caller decides whether
    /// the replica is dead.
    fn call(&self, target: u16, deadline_ms: u32, op: &Op) -> Result<Response, ClientError> {
        let mut client = self.checkout().ok_or(ClientError::Closed)?;
        let resp = client.call(target, deadline_ms, op.clone())?;
        self.checkin(client);
        Ok(resp)
    }
}

/// The acked-update journal of one shard, with a base offset so entries
/// every replica has applied can be reclaimed. Replica `caught_up` cursors
/// stay *absolute* (counted from the first ack ever), so truncation is
/// invisible to the replay protocol: only entries strictly below
/// `min(caught_up)` across the whole group are dropped, and by that point
/// no replica can ever ask for them again.
#[derive(Default)]
struct Journal {
    /// Absolute index of `entries[0]`; everything below was truncated.
    base: u64,
    /// Retained suffix of the acked updates, in ack order, as `(target, op)`.
    entries: Vec<(u16, Op)>,
}

impl Journal {
    /// Absolute journal length: total acks ever recorded.
    fn len(&self) -> u64 {
        self.base + self.entries.len() as u64
    }

    /// Retained (in-memory) entry count.
    fn retained(&self) -> u64 {
        self.entries.len() as u64
    }

    fn push(&mut self, entry: (u16, Op)) {
        self.entries.push(entry);
    }

    /// The tail from absolute cursor `from` (callers guarantee
    /// `from >= base`: truncation never passes any replica's cursor).
    fn tail_from(&self, from: u64) -> Vec<(u16, Op)> {
        debug_assert!(from >= self.base, "replay cursor {from} below journal base {}", self.base);
        let skip = (from.saturating_sub(self.base)).min(self.entries.len() as u64) as usize;
        self.entries[skip..].to_vec()
    }

    /// Drops entries with absolute index `< upto`; returns how many went.
    fn truncate_below(&mut self, upto: u64) -> u64 {
        let drop = upto.saturating_sub(self.base).min(self.entries.len() as u64);
        self.entries.drain(..drop as usize);
        self.base += drop;
        drop
    }
}

/// One logical shard: a replica group plus the acked-update journal.
struct Shard {
    replicas: Vec<Replica>,
    /// Every acknowledged update in ack order. Truncated below
    /// `min(caught_up)` across the group after each fan-out and each
    /// completed replay, so a long-running fleet holds only the suffix some
    /// lagging replica may still need.
    journal: Mutex<Journal>,
    /// Round-robin read cursor.
    rr: AtomicU64,
    stats: ShardStats,
    /// Jitter source for this shard's backoff delays.
    rng: Mutex<Rng>,
}

impl Shard {
    fn dead_replicas(&self) -> u64 {
        self.replicas.iter().filter(|r| !r.healthy.load(Relaxed)).count() as u64
    }

    /// Reclaims the journal prefix every replica (healthy or not — a dead
    /// one still replays from its cursor) has applied. Caller holds the
    /// journal lock.
    fn truncate_caught_up(&self, journal: &mut Journal) {
        let min = self.replicas.iter().map(|r| r.caught_up.load(Relaxed)).min().unwrap_or(0);
        let dropped = journal.truncate_below(min);
        if dropped > 0 {
            self.stats.truncated.fetch_add(dropped, Relaxed);
        }
    }
}

struct Inner {
    map: ShardMap,
    shards: Vec<Shard>,
    cfg: RouterConfig,
    shutdown: AtomicBool,
}

/// The scatter-gather router over a shard fabric. Cheap to share
/// (`Arc<Router>`): all state is interior.
pub struct Router {
    inner: Arc<Inner>,
    health: Mutex<Option<JoinHandle<()>>>,
}

impl Router {
    /// Connects to a fabric: `groups[i]` is shard `i`'s replica group (all
    /// replicas of a group must hold identical data). Fails only when a
    /// *whole* group is unreachable — individual dead replicas are left to
    /// the health loop.
    pub fn connect(
        groups: &[Vec<SocketAddr>],
        splits: Vec<i64>,
        cfg: RouterConfig,
    ) -> io::Result<Router> {
        let map = ShardMap::new(splits);
        if groups.len() != map.shards() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{} split points imply {} shards, got {} groups", map.splits().len(), map.shards(), groups.len()),
            ));
        }
        let mut shards = Vec::with_capacity(groups.len());
        for (si, group) in groups.iter().enumerate() {
            if group.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("shard {si} has an empty replica group"),
                ));
            }
            let mut replicas = Vec::with_capacity(group.len());
            let mut any_up = false;
            for &addr in group {
                let conn = Client::connect(addr, REPLICA_TIMEOUT).ok();
                let up = conn.is_some();
                any_up |= up;
                replicas.push(Replica {
                    addr: Mutex::new(addr),
                    idle: Mutex::new(conn.into_iter().collect()),
                    healthy: AtomicBool::new(up),
                    caught_up: AtomicU64::new(0),
                });
            }
            if !any_up {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("shard {si}: no replica reachable"),
                ));
            }
            shards.push(Shard {
                replicas,
                journal: Mutex::new(Journal::default()),
                rr: AtomicU64::new(si as u64),
                stats: ShardStats::default(),
                rng: Mutex::new(Rng::seed_from_u64(cfg.seed ^ (si as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))),
            });
        }
        let inner = Arc::new(Inner { map, shards, cfg, shutdown: AtomicBool::new(false) });
        let health = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || health_loop(&inner))
        };
        Ok(Router { inner, health: Mutex::new(Some(health)) })
    }

    /// The keyspace partition.
    pub fn map(&self) -> &ShardMap {
        &self.inner.map
    }

    /// Per-shard replica health, `out[shard][replica]`.
    pub fn replica_health(&self) -> Vec<Vec<bool>> {
        self.inner
            .shards
            .iter()
            .map(|s| s.replicas.iter().map(|r| r.healthy.load(Relaxed)).collect())
            .collect()
    }

    /// Points a replica at a new address (a restarted node) and hands it
    /// to the health loop, which reconnects and replays the journal tail
    /// before readmitting it to the read path.
    pub fn set_replica_addr(&self, shard: usize, replica: usize, addr: SocketAddr) {
        let r = &self.inner.shards[shard].replicas[replica];
        *r.addr.lock() = addr;
        r.mark_dead();
    }

    /// Resets a replica's replay cursor after a restart-with-recovery. The
    /// WAL can make a node durable *past* its last delivered ack (commit,
    /// then crash before the ack frame leaves), and replaying such an entry
    /// a second time is not idempotent for every target — so a restarted
    /// node reports how many update records its recovered structure had
    /// applied (the `seq` word of its commit descriptor) and the health
    /// loop resumes the journal replay exactly there. Call this before
    /// [`Router::set_replica_addr`] re-admits the node.
    pub fn set_replica_caught_up(&self, shard: usize, replica: usize, records: u64) {
        let s = &self.inner.shards[shard];
        let journal = s.journal.lock();
        // Clamp into the journal's live window: a cursor above the journal
        // is meaningless, and one below `base` addresses truncated entries
        // (impossible for a node that was ever in this group — truncation
        // never passes any replica's cursor — but clamp defensively).
        s.replicas[replica].caught_up.store(records.clamp(journal.base, journal.len()), Relaxed);
        drop(journal);
    }

    /// Routes one read. Scatters over every shard the query's x-range
    /// overlaps (in parallel when that is more than one), gathers, and
    /// merges into canonical order.
    pub fn query(&self, target: u16, deadline_ms: u32, op: &Op) -> Result<Body, RouterError> {
        if self.inner.shutdown.load(Relaxed) {
            return Err(RouterError::ShuttingDown);
        }
        if op.is_update() {
            return self.update(target, deadline_ms, op);
        }
        let Some(route) = self.inner.map.route(op) else {
            return Err(RouterError::BadRequest(format!(
                "op {} must target the router itself",
                op.name()
            )));
        };
        let shards: Vec<usize> = route.collect();
        let mut legs: Vec<Result<Body, RouterError>> = Vec::with_capacity(shards.len());
        if shards.len() == 1 {
            legs.push(self.shard_call(shards[0], target, deadline_ms, op));
        } else {
            std::thread::scope(|sc| {
                let handles: Vec<_> = shards
                    .iter()
                    .map(|&si| sc.spawn(move || self.shard_call(si, target, deadline_ms, op)))
                    .collect();
                for h in handles {
                    legs.push(h.join().unwrap_or_else(|_| {
                        Err(RouterError::Protocol { shard: usize::MAX, detail: "scatter leg panicked".into() })
                    }));
                }
            });
        }
        merge_legs(op, &shards, legs)
    }

    /// Routes one update to its owning shard and fans it out to every
    /// healthy replica. Acked iff ≥ 1 replica acked; non-acking replicas
    /// of an acked update are marked dead until replayed back in sync.
    pub fn update(&self, target: u16, deadline_ms: u32, op: &Op) -> Result<Body, RouterError> {
        if self.inner.shutdown.load(Relaxed) {
            return Err(RouterError::ShuttingDown);
        }
        let (Op::Insert(p) | Op::Delete(p)) = op else {
            return Err(RouterError::BadRequest(format!("op {} is not an update", op.name())));
        };
        let si = self.inner.map.shard_of(p.x);
        let shard = &self.inner.shards[si];
        shard.stats.requests.fetch_add(1, Relaxed);
        let started = Instant::now();

        // The journal lock serializes updates per shard: the journal order
        // IS the replication order replayed into lagging replicas.
        let mut journal = shard.journal.lock();
        let mut acked: Vec<usize> = Vec::new();
        let mut ack_body: Option<Body> = None;
        let mut typed: Option<(ErrorCode, String)> = None;
        let mut transport: Option<String> = None;
        for (ri, replica) in shard.replicas.iter().enumerate() {
            if !replica.healthy.load(Relaxed) {
                continue;
            }
            match replica.call(target, deadline_ms, op) {
                Ok(Response { body: body @ Body::Ack { .. }, .. }) => {
                    acked.push(ri);
                    ack_body.get_or_insert(body);
                }
                Ok(Response { body: Body::Error { code, message }, .. }) => {
                    // A transient code is an admission-level rejection:
                    // definitely not applied, the replica's state is
                    // untouched — keep it live. Storage/other: the
                    // replica's fate is ambiguous.
                    if !code.is_transient() {
                        replica.mark_dead();
                    }
                    typed.get_or_insert((code, message));
                }
                Ok(resp) => {
                    typed.get_or_insert((
                        ErrorCode::BadRequest,
                        format!("unexpected update response {:?}", resp.body),
                    ));
                }
                Err(e) => {
                    transport.get_or_insert(e.to_string());
                    replica.mark_dead();
                }
            }
        }
        let result = if let Some(body) = ack_body {
            journal.push((target, op.clone()));
            let len = journal.len();
            for (ri, replica) in shard.replicas.iter().enumerate() {
                if acked.contains(&ri) {
                    replica.caught_up.store(len, Relaxed);
                } else if replica.healthy.load(Relaxed) {
                    // Alive but missed an acked update: out of the read
                    // path until the health loop replays it.
                    replica.mark_dead();
                }
            }
            // With every cursor settled, drop the prefix nobody needs; when
            // the whole group acked, that is the entry just pushed.
            shard.truncate_caught_up(&mut journal);
            Ok(body)
        } else if let Some((code, message)) = typed {
            Err(RouterError::Shard { shard: si, code, message })
        } else {
            Err(RouterError::ShardUnavailable {
                shard: si,
                detail: transport.unwrap_or_else(|| "no healthy replica".into()),
            })
        };
        drop(journal);
        shard.stats.latency_ns.record(started.elapsed().as_nanos() as u64);
        if result.is_err() {
            shard.stats.errors.fetch_add(1, Relaxed);
        }
        result
    }

    /// One scatter leg: read `op` from shard `si`, failing over across
    /// replicas and retrying full cycles under the backoff policy.
    fn shard_call(
        &self,
        si: usize,
        target: u16,
        deadline_ms: u32,
        op: &Op,
    ) -> Result<Body, RouterError> {
        let shard = &self.inner.shards[si];
        let cfg = &self.inner.cfg;
        shard.stats.requests.fetch_add(1, Relaxed);
        let started = Instant::now();
        let mut attempt = 1u32;
        let result = loop {
            let mut typed: Option<(ErrorCode, String)> = None;
            let mut transport: Option<String> = None;
            let start = shard.rr.fetch_add(1, Relaxed) as usize;
            let n = shard.replicas.len();
            let mut tried_any = false;
            for k in 0..n {
                let replica = &shard.replicas[(start + k) % n];
                if !replica.healthy.load(Relaxed) {
                    continue;
                }
                if tried_any {
                    shard.stats.failovers.fetch_add(1, Relaxed);
                }
                tried_any = true;
                match replica.call(target, deadline_ms, op) {
                    Ok(Response { body: Body::Error { code, message }, .. }) => {
                        if !code.is_transient() && code != ErrorCode::Storage {
                            // Deterministic failure: identical everywhere.
                            typed = Some((code, message));
                            break;
                        }
                        // Transient, or this replica's page store failed
                        // (`Storage`; the replica stays healthy): fail over.
                        // A transient answer outranks `Storage` — it may
                        // pass on a later cycle.
                        if typed.as_ref().is_none_or(|(c, _)| !c.is_transient()) {
                            typed = Some((code, message));
                        }
                    }
                    Ok(resp) => {
                        shard.stats.latency_ns.record(started.elapsed().as_nanos() as u64);
                        return Ok(resp.body);
                    }
                    Err(e) => {
                        transport.get_or_insert(e.to_string());
                        replica.mark_dead();
                    }
                }
            }
            // A full replica cycle failed. Deterministic typed errors, and
            // `Storage` from every replica that answered, are final;
            // transient conditions and dead groups go through the backoff
            // schedule (queries are idempotent — safe to retry).
            if let Some((code, _)) = typed {
                if !code.is_transient() || !cfg.retry.should_retry(attempt) {
                    let (code, message) = typed.expect("just matched");
                    break Err(RouterError::Shard { shard: si, code, message });
                }
            } else if !cfg.retry.should_retry(attempt) {
                break Err(RouterError::ShardUnavailable {
                    shard: si,
                    detail: transport.unwrap_or_else(|| "no healthy replica".into()),
                });
            }
            let delay = cfg.retry.delay(attempt, &mut shard.rng.lock());
            std::thread::sleep(delay);
            shard.stats.retries.fetch_add(1, Relaxed);
            attempt += 1;
        };
        shard.stats.latency_ns.record(started.elapsed().as_nanos() as u64);
        shard.stats.errors.fetch_add(1, Relaxed);
        result
    }

    /// The per-shard `pc_shard_*` families, family by family, one
    /// `{shard="i"}` sample per shard.
    fn samples(&self) -> Vec<Sample> {
        type Typed = fn(&'static str, u64) -> Sample;
        type Read = fn(&Shard) -> u64;
        let scalars: [(Typed, &'static str, Read); 9] = [
            (Sample::counter, names::REQUESTS, |s| s.stats.requests.load(Relaxed)),
            (Sample::counter, names::FAILOVERS, |s| s.stats.failovers.load(Relaxed)),
            (Sample::counter, names::RETRIES, |s| s.stats.retries.load(Relaxed)),
            (Sample::counter, names::ERRORS, |s| s.stats.errors.load(Relaxed)),
            (Sample::counter, names::REPLAYED, |s| s.stats.replayed.load(Relaxed)),
            (Sample::counter, names::RECONNECTS, |s| s.stats.reconnects.load(Relaxed)),
            (Sample::counter, names::JOURNAL_TRUNCATED, |s| s.stats.truncated.load(Relaxed)),
            (Sample::gauge, names::DEAD_REPLICAS, Shard::dead_replicas),
            (Sample::gauge, names::JOURNAL_LEN, |s| s.journal.lock().retained()),
        ];
        let shards = || self.inner.shards.iter().enumerate();
        let mut out = Vec::new();
        for (typed, family, read) in scalars {
            out.extend(
                shards().map(|(si, s)| typed(family, read(s)).labelled("shard", si.to_string())),
            );
        }
        out.extend(shards().map(|(si, s)| {
            Sample::histogram(
                names::LATENCY,
                s.stats.latency_ns.snapshot(),
                &[
                    ("pc_shard_latency_ns_p50", P50),
                    ("pc_shard_latency_ns_p99", P99),
                    ("pc_shard_latency_ns_count", Count),
                ],
            )
            .labelled("shard", si.to_string())
        }));
        out
    }

    /// Structured `(labelled name, value)` pairs for the `pc_shard_*`
    /// families — the ADMIN `Stats` form.
    pub fn stat_pairs(&self) -> Vec<(String, u64)> {
        pc_obs::stat_pairs(&self.samples())
    }

    /// Prometheus text exposition of the same families.
    pub fn render_metrics(&self) -> String {
        pc_obs::render_text(&self.samples())
    }

    /// True once shutdown was requested.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutdown.load(Relaxed)
    }

    /// Drains the router and fans shutdown out to every replica of every
    /// shard (best effort — dead replicas are skipped). Idempotent.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Relaxed) {
            return;
        }
        for shard in &self.inner.shards {
            for replica in &shard.replicas {
                if let Some(mut c) = replica.checkout() {
                    let _ = c.shutdown_server();
                }
                replica.idle.lock().clear();
            }
        }
        if let Some(h) = self.health.lock().take() {
            let _ = h.join();
        }
    }

    /// Stops the router without touching the shards (they stay up).
    pub fn detach(&self) {
        self.inner.shutdown.store(true, Relaxed);
        if let Some(h) = self.health.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.detach();
    }
}

/// Background replica maintenance: ping healthy replicas, reconnect dead
/// ones, replay the journal tail into a reconnected replica, and readmit
/// it to the read path only once it is exactly caught up.
fn health_loop(inner: &Inner) {
    while !inner.shutdown.load(Relaxed) {
        std::thread::sleep(inner.cfg.health_interval);
        if inner.shutdown.load(Relaxed) {
            return;
        }
        for shard in &inner.shards {
            for replica in &shard.replicas {
                if inner.shutdown.load(Relaxed) {
                    return;
                }
                if replica.healthy.load(Relaxed) {
                    // Liveness probe; admin ops bypass the shard's queues.
                    let pong = replica.checkout().and_then(|mut c| {
                        matches!(c.ping(), Ok(Response { body: Body::Pong, .. })).then_some(c)
                    });
                    match pong {
                        Some(c) => replica.checkin(c),
                        None => replica.mark_dead(),
                    }
                } else {
                    revive_replica(shard, replica);
                }
            }
        }
    }
}

/// Reconnect + catch-up for one dead replica. The final healthy flip
/// happens under the journal lock, so an update fan-out can never observe
/// a replica that is healthy yet behind.
fn revive_replica(shard: &Shard, replica: &Replica) {
    let addr = *replica.addr.lock();
    let Ok(mut client) = Client::connect(addr, REPLICA_TIMEOUT) else {
        return;
    };
    if client.ping().is_err() {
        return;
    }
    loop {
        let tail: Vec<(u16, Op)> = {
            let mut journal = shard.journal.lock();
            let from = replica.caught_up.load(Relaxed);
            if from >= journal.len() {
                replica.healthy.store(true, Relaxed);
                replica.idle.lock().push(client);
                shard.stats.reconnects.fetch_add(1, Relaxed);
                // This replica may have been the laggard pinning the
                // journal's base; reclaim whatever its catch-up freed.
                shard.truncate_caught_up(&mut journal);
                return;
            }
            journal.tail_from(from)
        };
        for (target, op) in &tail {
            match client.call(*target, 0, op.clone()) {
                Ok(Response { body: Body::Ack { .. }, .. }) => {
                    shard.stats.replayed.fetch_add(1, Relaxed);
                    replica.caught_up.fetch_add(1, Relaxed);
                }
                // Any non-ack leaves the replica behind; retry next tick.
                _ => return,
            }
        }
    }
}

/// Gathers scatter legs (shard order) into one canonical body.
fn merge_legs(
    op: &Op,
    shards: &[usize],
    legs: Vec<Result<Body, RouterError>>,
) -> Result<Body, RouterError> {
    let mut points: Vec<Point> = Vec::new();
    let mut intervals: Vec<Interval> = Vec::new();
    let mut keys: Vec<(i64, u64)> = Vec::new();
    for (leg, &si) in legs.into_iter().zip(shards) {
        match leg? {
            Body::Points(mut v) => points.append(&mut v),
            Body::Intervals(mut v) => intervals.append(&mut v),
            Body::Keys(mut v) => keys.append(&mut v),
            other => {
                return Err(RouterError::Protocol {
                    shard: si,
                    detail: format!("unexpected body {other:?} for op {}", op.name()),
                })
            }
        }
    }
    let merged = match op {
        Op::Range1d { .. } => Body::Keys(keys),
        Op::Stab { .. } => Body::Intervals(intervals),
        Op::TwoSided { .. } | Op::ThreeSided { .. } => Body::Points(points),
        other => {
            return Err(RouterError::BadRequest(format!("op {} is not a read", other.name())))
        }
    };
    Ok(canonicalize(merged))
}

/// The router's canonical result order: points by `(x, y, id)`, intervals
/// by `(lo, hi, id)`, keys by `(key, value)`; other bodies pass through.
/// A single-node target's answer, canonicalized the same way, is
/// bit-identical to the router's merged answer over the same data.
pub fn canonicalize(body: Body) -> Body {
    match body {
        Body::Points(mut v) => {
            v.sort_unstable_by_key(|p| (p.x, p.y, p.id));
            Body::Points(v)
        }
        Body::Intervals(mut v) => {
            v.sort_unstable_by_key(|iv| (iv.lo, iv.hi, iv.id));
            Body::Intervals(v)
        }
        Body::Keys(mut v) => {
            v.sort_unstable();
            Body::Keys(v)
        }
        other => other,
    }
}

/// The wire front-end: clients speak the unchanged protocol to the router
/// exactly as they would to a single node. Thin by design — the shards own
/// admission control, batching, and deadlines; the front-end is the shared
/// TCP front (`front.rs`) with a handler that routes and translates
/// [`RouterError`]s into typed wire errors. ADMIN `Stats`/`Metrics` expose
/// the `pc_shard_*` families; ADMIN `Shutdown` drains the router and fans
/// out to the shards. What it cannot do it refuses, typed `Unsupported`:
/// the admin ops it does not serve, and any `as_of` other than 0 (each shard
/// numbers its own epochs, so no one number addresses a fabric-wide state).
pub struct RouterFrontend;

struct FrontendState {
    router: Arc<Router>,
    /// Set by ADMIN `Shutdown` and by the handle's join: from then on
    /// queries and updates are answered `ShuttingDown`.
    stop: AtomicBool,
}

impl Handler for FrontendState {
    fn request(&self, conn: &Arc<Conn>, req: Request) {
        let unsupported = |what: String| {
            Err((ErrorCode::Unsupported, format!("{what} is not served by the router")))
        };
        let answer = if req.op.is_admin() {
            match &req.op {
                Op::Ping => Ok(Body::Pong),
                Op::Stats => Ok(Body::Stats(self.router.stat_pairs())),
                Op::Metrics => Ok(Body::Metrics(self.router.render_metrics())),
                Op::Shutdown => Ok(Body::ShutdownAck),
                other => unsupported(format!("op {}", other.name())),
            }
        } else if self.stop.load(Relaxed) {
            Err((ErrorCode::ShuttingDown, RouterError::ShuttingDown.to_string()))
        } else if req.as_of != 0 {
            unsupported("as_of (time travel)".into())
        } else {
            let routed = self.router.query(req.target, req.deadline_ms, &req.op);
            routed.map_err(|e| (e.code(), e.to_string()))
        };
        let shutdown = matches!(answer, Ok(Body::ShutdownAck));
        conn.respond(&match answer {
            Ok(body) => Response { id: req.id, body },
            Err((code, message)) => Response::error(req.id, code, message),
        });
        if shutdown {
            self.stop.store(true, Relaxed);
            self.router.shutdown();
        }
    }

    fn draining(&self) -> bool {
        self.stop.load(Relaxed)
    }
}

impl RouterFrontend {
    /// Binds `addr` (port 0 picks an ephemeral port) and starts serving;
    /// one thread per connection.
    pub fn spawn(router: Arc<Router>, addr: &str) -> io::Result<FrontendHandle> {
        let state = Arc::new(FrontendState { router, stop: AtomicBool::new(false) });
        let front = Front::spawn(addr, IDLE_TIMEOUT, Arc::clone(&state))?;
        Ok(FrontendHandle { front, state })
    }
}

/// Owner handle for a running front-end. Dropping it stops the acceptor
/// and joins every connection thread (the router itself is shared and
/// survives unless [`Router::shutdown`] ran).
pub struct FrontendHandle {
    front: Front,
    state: Arc<FrontendState>,
}

impl FrontendHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// Stops and joins everything; does not touch the shards (use
    /// [`Router::shutdown`] — or the wire ADMIN op — for a full fabric
    /// drain).
    pub fn join(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        self.state.stop.store(true, Relaxed);
        self.front.join();
    }
}

impl Drop for FrontendHandle {
    fn drop(&mut self) {
        self.join_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_map_routes_keys_and_ranges() {
        let map = ShardMap::new(vec![100, 200]);
        assert_eq!(map.shards(), 3);
        assert_eq!(map.shard_of(-5), 0);
        assert_eq!(map.shard_of(99), 0);
        assert_eq!(map.shard_of(100), 1);
        assert_eq!(map.shard_of(199), 1);
        assert_eq!(map.shard_of(200), 2);
        assert_eq!(map.shard_range(0, 99), 0..=0);
        assert_eq!(map.shard_range(50, 150), 0..=1);
        assert_eq!(map.shard_range(0, 1000), 0..=2);
        assert_eq!(map.shard_range(150, 150), 1..=1);

        assert_eq!(map.route(&Op::Range1d { lo: 0, hi: 120 }), Some(0..=1));
        assert_eq!(map.route(&Op::Stab { q: 200 }), Some(2..=2));
        assert_eq!(map.route(&Op::TwoSided { x0: 150, y0: 0 }), Some(1..=2));
        assert_eq!(map.route(&Op::ThreeSided { x1: 10, x2: 20, y0: 0 }), Some(0..=0));
        assert_eq!(map.route(&Op::Insert(Point { x: 100, y: 1, id: 1 })), Some(1..=1));
        assert_eq!(map.route(&Op::Ping), None);

        // The single-shard degenerate map routes everything to shard 0.
        let one = ShardMap::new(Vec::new());
        assert_eq!(one.shards(), 1);
        assert_eq!(one.route(&Op::TwoSided { x0: i64::MIN, y0: 0 }), Some(0..=0));
    }

    #[test]
    fn partitioning_covers_and_replicates_correctly() {
        let map = ShardMap::new(vec![10, 20]);
        let points: Vec<Point> =
            (0..30).map(|i| Point { x: i, y: i, id: i as u64 }).collect();
        let parts = map.partition_points(&points);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 30);
        assert!(parts[0].iter().all(|p| p.x < 10));
        assert!(parts[1].iter().all(|p| (10..20).contains(&p.x)));
        assert!(parts[2].iter().all(|p| p.x >= 20));

        // An interval spanning a split lives on every shard it overlaps.
        let ivs = vec![
            Interval { lo: 5, hi: 15, id: 1 },
            Interval { lo: 0, hi: 30, id: 2 },
            Interval { lo: 21, hi: 22, id: 3 },
        ];
        let parts = map.partition_intervals(&ivs);
        assert_eq!(parts[0].iter().map(|iv| iv.id).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(parts[1].iter().map(|iv| iv.id).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(parts[2].iter().map(|iv| iv.id).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn quantile_splits_are_strictly_increasing_and_balanced() {
        let keys: Vec<i64> = (0..1000).map(|i| (i * 37) % 5000).collect();
        for shards in 1..=8 {
            let splits = ShardMap::quantile_splits(&keys, shards);
            assert!(splits.len() < shards || shards == 1);
            assert!(splits.windows(2).all(|w| w[0] < w[1]), "{splits:?}");
            let map = ShardMap::new(splits);
            // No shard is empty for this spread of keys.
            let counts: Vec<usize> =
                map.partition_entries(&keys.iter().map(|&k| (k, 0u64)).collect::<Vec<_>>())
                    .iter()
                    .map(Vec::len)
                    .collect();
            assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        }
        // Degenerate inputs.
        assert!(ShardMap::quantile_splits(&[], 4).is_empty());
        assert_eq!(ShardMap::quantile_splits(&[7, 7, 7, 7], 4), Vec::<i64>::new());
    }

    #[test]
    fn canonicalize_sorts_every_result_kind() {
        let body = canonicalize(Body::Points(vec![
            Point { x: 2, y: 0, id: 0 },
            Point { x: 1, y: 5, id: 2 },
            Point { x: 1, y: 5, id: 1 },
        ]));
        match body {
            Body::Points(v) => {
                assert_eq!(v.iter().map(|p| p.id).collect::<Vec<_>>(), vec![1, 2, 0]);
            }
            other => panic!("{other:?}"),
        }
        let body = canonicalize(Body::Keys(vec![(3, 0), (1, 9), (2, 4)]));
        assert_eq!(body, Body::Keys(vec![(1, 9), (2, 4), (3, 0)]));
        let body = canonicalize(Body::Intervals(vec![
            Interval { lo: 4, hi: 9, id: 1 },
            Interval { lo: 1, hi: 9, id: 2 },
        ]));
        match body {
            Body::Intervals(v) => assert_eq!(v[0].id, 2),
            other => panic!("{other:?}"),
        }
        // Non-result bodies pass through untouched.
        assert_eq!(canonicalize(Body::Pong), Body::Pong);
    }

    #[test]
    fn router_error_codes_map_onto_the_wire() {
        let e = RouterError::Shard { shard: 3, code: ErrorCode::Overloaded, message: "q".into() };
        assert_eq!(e.code(), ErrorCode::Overloaded);
        assert!(e.to_string().contains("shard 3"));
        assert_eq!(
            RouterError::ShardUnavailable { shard: 0, detail: "x".into() }.code(),
            ErrorCode::Storage
        );
        assert_eq!(RouterError::ShuttingDown.code(), ErrorCode::ShuttingDown);
        assert_eq!(RouterError::BadRequest("m".into()).code(), ErrorCode::BadRequest);
    }
}
