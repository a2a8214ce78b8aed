//! The timed pass: closed-loop client threads in this process drive the
//! in-process server over real loopback sockets. Callers of this service
//! (router legs, pooled clients) wait for a reply before sending the next
//! request, so the load is a closed loop with a fixed connection count.
//! Nothing is traced here.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use pc_pagestore::Point;
use pc_serve::wire::{Body, Op};
use pc_serve::Client;

use crate::data::{Checker, Digest, Query};
use crate::spec::{T_DYN, WRITE_BURST};
use crate::stats::{Samples, Window};

const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Failure messages kept for the report; the count is always exact.
const MAX_MESSAGES: usize = 8;

/// One measured request: when its reply was decoded (since the pass
/// started) and how long that took from the send.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub done_ns: u64,
    pub latency_ns: u64,
}

/// Room for this many samples per connection is faulted in before the
/// pass: growing the log mid-pass would put allocator and page-fault time
/// into the latencies being logged.
const SAMPLE_ROOM: usize = 1 << 20;

fn sample_log() -> Vec<Sample> {
    let mut log = vec![Sample { done_ns: 0, latency_ns: 0 }; SAMPLE_ROOM];
    log.clear();
    log
}

/// What one connection saw.
#[derive(Default)]
pub struct ConnLog {
    pub queries: Vec<Sample>,
    pub updates: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
    /// Updates acknowledged, all from the front of the writer's stream.
    pub acked: usize,
}

impl ConnLog {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(message);
        }
    }

    pub fn merge(mut self, other: ConnLog) -> ConnLog {
        self.queries.extend(other.queries);
        self.updates.extend(other.updates);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.messages.extend(other.messages);
        self.messages.truncate(MAX_MESSAGES);
        self.acked += other.acked;
        self
    }

    pub fn latencies(samples: &[Sample]) -> Samples {
        Samples::new(samples.iter().map(|s| s.latency_ns).collect())
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Connects a client thread; a failure is logged as the thread's one
/// failed attempt.
fn connect(addr: SocketAddr, log: &mut ConnLog) -> Option<Client> {
    Client::connect(addr, IO_TIMEOUT)
        .map_err(|e| {
            log.attempted = 1;
            log.fail(format!("connect: {e}"));
        })
        .ok()
}

/// A closed-loop reader: cycles through `queries` from `start`, checking
/// every reply against its predicate and the expected digest, until the
/// window ends.
pub fn reader(
    addr: SocketAddr,
    queries: &[Query],
    expected: &[Digest],
    checker: &Checker<'_>,
    start: usize,
    t0: Instant,
    window: Window,
) -> ConnLog {
    let mut log = ConnLog { queries: sample_log(), ..ConnLog::default() };
    let Some(mut client) = connect(addr, &mut log) else { return log };
    for i in (0..queries.len()).cycle().skip(start % queries.len()) {
        let q = &queries[i];
        let sent = ns(t0.elapsed());
        let reply = client.call(q.target, 0, q.op.clone());
        let done = ns(t0.elapsed());
        log.attempted += 1;
        match reply {
            Err(e) => {
                // The connection's state is unknown after a transport
                // error; stop instead of guessing.
                log.fail(format!("query {i} ({}): {e}", q.op.name()));
                return log;
            }
            Ok(resp) => match checker.check(&q.op, &resp.body) {
                Some(c) if c.base == expected[i] => {
                    if window.slice_of(done).is_some() {
                        log.queries.push(Sample { done_ns: done, latency_ns: done - sent });
                    }
                }
                Some(c) => log.fail(format!(
                    "query {i} ({}): answer {:?} differs from the in-process answer {:?}",
                    q.op.name(),
                    c.base,
                    expected[i]
                )),
                None => match resp.body {
                    Body::Error { code, message } => {
                        log.fail(format!("query {i} ({}): {code:?}: {message}", q.op.name()))
                    }
                    _ => log.fail(format!(
                        "query {i} ({}): a record in the reply is outside the query",
                        q.op.name()
                    )),
                },
            },
        }
        if done >= window.end_ns() {
            break;
        }
    }
    log
}

/// The writer: sends `updates` in pipelined bursts (send a burst, then
/// receive its Acks) until the window ends or the stream runs out.
pub fn writer(addr: SocketAddr, updates: &[Op], t0: Instant, window: Window) -> ConnLog {
    let mut log = ConnLog { updates: sample_log(), ..ConnLog::default() };
    let Some(mut client) = connect(addr, &mut log) else { return log };
    let mut sent_at = [0u64; WRITE_BURST];
    for burst in updates.chunks_exact(WRITE_BURST) {
        let mut first_id = 0;
        for (k, op) in burst.iter().enumerate() {
            sent_at[k] = ns(t0.elapsed());
            log.attempted += 1;
            match client.send(T_DYN, 0, op.clone()) {
                Ok(id) if k == 0 => first_id = id,
                Ok(_) => {}
                Err(e) => {
                    log.fail(format!("update send: {e}"));
                    return log;
                }
            }
        }
        let mut done = 0;
        for (k, &sent) in sent_at.iter().enumerate() {
            let reply = client.recv();
            done = ns(t0.elapsed());
            match reply {
                Err(e) => {
                    log.fail(format!("update recv: {e}"));
                    return log;
                }
                Ok(resp) => match resp.body {
                    Body::Ack { .. } if resp.id == first_id + k as u64 => {
                        log.acked += 1;
                        if window.slice_of(done).is_some() {
                            log.updates.push(Sample { done_ns: done, latency_ns: done - sent });
                        }
                    }
                    other => log.fail(format!("update {}: unexpected reply {other:?}", resp.id)),
                },
            }
        }
        if done >= window.end_ns() {
            return log;
        }
    }
    log.fail("the update stream ran out before the window ended".to_string());
    log
}

/// Round trips of the ADMIN `Ping` op, which the server answers on the
/// reader thread: the socket and codec floor under every request.
pub fn ping_round_trips(addr: SocketAddr, count: usize) -> Result<Samples, String> {
    let mut client = Client::connect(addr, IO_TIMEOUT).map_err(|e| format!("ping connect: {e}"))?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let t = Instant::now();
        let resp = client.ping().map_err(|e| format!("ping: {e}"))?;
        out.push(ns(t.elapsed()));
        if resp.body != Body::Pong {
            return Err(format!("ping answered {:?}", resp.body));
        }
    }
    Ok(Samples::new(out))
}

/// The server's counters as the ADMIN `Stats` op reports them.
pub fn admin_stats(addr: SocketAddr) -> Result<Vec<(String, u64)>, String> {
    let mut client =
        Client::connect(addr, IO_TIMEOUT).map_err(|e| format!("stats connect: {e}"))?;
    match client.stats().map_err(|e| format!("stats: {e}"))?.body {
        Body::Stats(pairs) => Ok(pairs),
        other => Err(format!("stats answered {other:?}")),
    }
}

/// Audits the live structure against the model after the writer stopped:
/// a whole-plane query must return every base point and every stream
/// point whose insert was acknowledged and whose delete was not, each
/// exactly once, with the coordinates it was inserted with.
pub fn audit_live_set(
    addr: SocketAddr,
    base: &[Point],
    stream: &[Point],
    applied: &[Op],
) -> Result<(), String> {
    let inserts = applied.iter().filter(|op| matches!(op, Op::Insert(_))).count();
    let deletes = applied.len() - inserts;
    // The stream deletes its own oldest insert, so the survivors are a
    // contiguous stretch of it.
    let live = &stream[deletes..inserts];
    let mut client =
        Client::connect(addr, IO_TIMEOUT).map_err(|e| format!("audit connect: {e}"))?;
    let whole_plane = Op::TwoSided { x0: i64::MIN, y0: i64::MIN };
    let mut got = match client.call(T_DYN, 0, whole_plane).map_err(|e| format!("audit: {e}"))?.body
    {
        Body::Points(ps) => ps,
        other => return Err(format!("audit answered {other:?}")),
    };
    got.sort_unstable_by_key(|p| p.id);
    if got.len() != base.len() + live.len() {
        return Err(format!(
            "audit: {} points live, model has {} ({} base + {} of the stream)",
            got.len(),
            base.len() + live.len(),
            base.len(),
            live.len()
        ));
    }
    // Base ids are 0..n in generation order and stream ids continue from
    // n, so after sorting by id the answer must equal base ++ live.
    match got.iter().zip(base.iter().chain(live)).find(|(g, want)| g != want) {
        Some((g, want)) => Err(format!("audit: found {g:?} where the model has {want:?}")),
        None => Ok(()),
    }
}
