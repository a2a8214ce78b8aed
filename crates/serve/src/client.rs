//! A small blocking client for the wire protocol, used by the router,
//! the `benchmark/` package, the tests, and the examples.
//!
//! Every socket operation carries a timeout: a peer that disappears
//! mid-stream surfaces as a [`ClientError::Io`] timeout (or
//! [`ClientError::Closed`] on EOF), never a hang.

use std::fmt;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use pc_pagestore::Point;
use pc_rng::Rng;

use crate::wire::{
    decode_response, read_frame, request_frame, Op, Request, Response, MAX_FRAME,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (includes read/write timeouts — a dead peer).
    Io(io::Error),
    /// The server sent bytes that do not decode as a response.
    Decode(crate::wire::DecodeError),
    /// The peer closed the connection at a frame boundary.
    Closed,
    /// A response id did not match the in-flight request id.
    IdMismatch {
        /// Id we sent.
        sent: u64,
        /// Id that came back.
        got: u64,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Decode(e) => write!(f, "protocol error: {e}"),
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::IdMismatch { sent, got } => {
                write!(f, "response id {got} does not match request id {sent}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<crate::wire::DecodeError> for ClientError {
    fn from(e: crate::wire::DecodeError) -> ClientError {
        ClientError::Decode(e)
    }
}

/// A blocking connection to a `pc-serve` server.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connects with `timeout` applied to the connect itself and as the
    /// read/write timeout of every later call.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Client { stream, next_id: 0 })
    }

    /// Sends a request without waiting for the response (open-loop /
    /// pipelined use); returns the request id.
    pub fn send(&mut self, target: u16, deadline_ms: u32, op: Op) -> Result<u64, ClientError> {
        self.send_with(target, deadline_ms, 0, 0, op)
    }

    /// Fully general send: explicit flags *and* snapshot selector.
    fn send_with(
        &mut self,
        target: u16,
        deadline_ms: u32,
        flags: u8,
        as_of: u64,
        op: Op,
    ) -> Result<u64, ClientError> {
        self.next_id += 1;
        let id = self.next_id;
        let frame = request_frame(&Request { id, target, deadline_ms, flags, as_of, op });
        (&self.stream).write_all(&frame)?;
        Ok(id)
    }

    /// Receives the next response regardless of id (pipelined use).
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        let payload = read_frame(&mut &self.stream, MAX_FRAME)?.ok_or(ClientError::Closed)?;
        Ok(decode_response(&payload)?)
    }

    /// One request, one response (closed-loop use); checks the echoed id.
    pub fn call(&mut self, target: u16, deadline_ms: u32, op: Op) -> Result<Response, ClientError> {
        self.call_with(target, deadline_ms, 0, 0, op)
    }

    /// Like [`Client::call`] with explicit per-request flag bits (e.g.
    /// [`crate::wire::FLAG_TRACE`] to force a trace of this request).
    pub fn call_flags(
        &mut self,
        target: u16,
        deadline_ms: u32,
        flags: u8,
        op: Op,
    ) -> Result<Response, ClientError> {
        self.call_with(target, deadline_ms, flags, 0, op)
    }

    /// Closed-loop query against a pinned historical epoch: `as_of` names
    /// the installed epoch sequence to read; 0 means "the latest epoch at
    /// admission", and updates must carry 0.
    pub fn call_as_of(
        &mut self,
        target: u16,
        deadline_ms: u32,
        as_of: u64,
        op: Op,
    ) -> Result<Response, ClientError> {
        self.call_with(target, deadline_ms, 0, as_of, op)
    }

    fn call_with(
        &mut self,
        target: u16,
        deadline_ms: u32,
        flags: u8,
        as_of: u64,
        op: Op,
    ) -> Result<Response, ClientError> {
        let sent = self.send_with(target, deadline_ms, flags, as_of, op)?;
        let resp = self.recv()?;
        if resp.id != sent {
            return Err(ClientError::IdMismatch { sent, got: resp.id });
        }
        Ok(resp)
    }

    /// Admin liveness probe.
    pub fn ping(&mut self) -> Result<Response, ClientError> {
        self.call(0, 0, Op::Ping)
    }

    /// Admin stats: server + store counters.
    pub fn stats(&mut self) -> Result<Response, ClientError> {
        self.call(0, 0, Op::Stats)
    }

    /// Admin metrics: Prometheus-style text.
    pub fn metrics(&mut self) -> Result<Response, ClientError> {
        self.call(0, 0, Op::Metrics)
    }

    /// Admin graceful shutdown.
    pub fn shutdown_server(&mut self) -> Result<Response, ClientError> {
        self.call(0, 0, Op::Shutdown)
    }

    /// Admin slow-query log: top `k` entries per ranking, optionally
    /// draining the log.
    pub fn slow_log(&mut self, k: u32, clear: bool) -> Result<Response, ClientError> {
        self.call(0, 0, Op::SlowLog { k, clear })
    }

    /// Admin: retune live trace sampling to 1-in-`every` (0 = off).
    pub fn set_sampling(&mut self, every: u64) -> Result<Response, ClientError> {
        self.call(0, 0, Op::SetSampling { every })
    }

    /// Admin: the server's retained snapshot window (current/oldest epoch,
    /// install + reclaim counters, live pins).
    pub fn versions(&mut self) -> Result<Response, ClientError> {
        self.call(0, 0, Op::Versions)
    }

    /// Convenience: insert a point into a dynamic target.
    pub fn insert(&mut self, target: u16, p: Point) -> Result<Response, ClientError> {
        self.call(target, 0, Op::Insert(p))
    }

    /// Convenience: delete a point from a dynamic target.
    pub fn delete(&mut self, target: u16, p: Point) -> Result<Response, ClientError> {
        self.call(target, 0, Op::Delete(p))
    }
}

/// Retry tuning for the router's per-replica failover: capped exponential
/// backoff with full jitter. Attempt `k`
/// sleeps a uniformly random duration in `[0, min(cap, base * 2^k)]` —
/// the jitter is drawn from a seeded [`pc_rng::Rng`], so a test's retry
/// schedule is exactly reproducible.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// First-retry backoff ceiling.
    pub base: Duration,
    /// Upper bound the exponential is capped at.
    pub cap: Duration,
    /// Total attempts (the first try included). 1 = no retries.
    pub attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_millis(20),
            cap: Duration::from_millis(500),
            attempts: 4,
        }
    }
}

impl RetryPolicy {
    /// The jittered sleep before retry number `attempt` (1-based: the
    /// sleep between the first failure and the second try is `delay(1)`).
    pub fn delay(&self, attempt: u32, rng: &mut Rng) -> Duration {
        let exp = self.base.saturating_mul(1u32 << attempt.min(16).saturating_sub(1));
        let ceil = exp.min(self.cap).as_nanos() as u64;
        Duration::from_nanos(if ceil == 0 { 0 } else { rng.gen_range(0..=ceil) })
    }

    /// True when a transport error on try `attempt` (1-based) should be
    /// retried under this policy.
    pub fn should_retry(&self, attempt: u32) -> bool {
        attempt < self.attempts
    }
}
