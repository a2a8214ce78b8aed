//! # pc-serve — a concurrent query service over the path-cached structures
//!
//! The ROADMAP north star is a system that serves external-searching
//! queries under real traffic; this crate is the request path. It turns the
//! workspace's structures (B-tree range, segment/interval-tree stabbing,
//! 2-/3-sided PST queries, dynamic PST updates) into a TCP service with:
//!
//! * a **length-prefixed binary wire protocol** ([`wire`]) — versioned
//!   header, request ids, typed ops and typed error responses, with a
//!   total (never-panicking) decoder and zero-copy [`Page`]-backed
//!   response frames;
//! * **admission control** ([`queue`]) — a bounded MPMC queue in front of
//!   the worker pool; a full queue sheds the request with an immediate
//!   `Overloaded` response, so backlog (and therefore admitted-request
//!   queueing delay) is capped by construction;
//! * **per-request deadlines** — a relative deadline in the request header
//!   answered with `DeadlineExceeded` when it expires in the queue;
//! * an **update-batching stage** ([`server`]) — dynamic-structure writes
//!   are coalesced, and a target takes its group whole, as one push into
//!   its §5 update buffer; a batch installs whole or fails whole;
//! * a **structure-agnostic router** ([`target`]) — structures register as
//!   [`QueryTarget`] trait objects, so new external structures join the
//!   server without touching it;
//! * **snapshot reads with time travel** ([`server`] over
//!   `pc_pagestore::version`) — each applied batch installs an immutable
//!   epoch; queries pin a snapshot at admission and answer lock-free from
//!   frozen per-epoch views, so reads never block on updates, and the
//!   wire's `as_of` header addresses any retained historical epoch;
//! * **graceful drain-then-shutdown** and idle-timeout reclamation of dead
//!   connections, plus always-on service stats ([`stats`]) exposed over
//!   the ADMIN ops;
//! * a **shard fabric** ([`router`]) — keyspace sharding by split points,
//!   a scatter-gather router over replica groups with failover, seeded
//!   retry backoff and journal-replay catch-up, and a thin wire front-end
//!   so clients talk to a cluster exactly as they would to one node.
//!
//! Everything is `std` + workspace crates only (the hermetic-build rule);
//! the `benchmark/` package drives this server over real sockets and
//! records throughput and latency.
//!
//! [`Page`]: pc_pagestore::Page
//! [`QueryTarget`]: target::QueryTarget

#![forbid(unsafe_code)]

pub mod client;
mod front;
pub mod obsplane;
pub mod queue;
pub mod router;
pub mod server;
pub mod stats;
pub mod target;
pub mod wire;

pub use client::{Client, ClientError, RetryPolicy};
pub use pc_pagestore::UpdateOp;
pub use obsplane::{TargetStats, TargetStatsSet};
pub use router::{
    canonicalize, FrontendHandle, Router, RouterConfig, RouterError, RouterFrontend, ShardMap,
    ShardStats,
};
pub use server::{
    decode_commit_meta, encode_commit_meta, Server, ServerConfig, ServerHandle, Service,
};
pub use stats::ServeStats;
pub use target::{
    BTreeTarget, DynamicBTreeTarget, DynamicPstTarget, DynamicThreeSidedTarget, FrozenView,
    IntervalTreeTarget, NaivePstTarget, PstTarget, QueryTarget, Registry, SegTreeTarget,
    TargetError, ThreeSidedTarget,
};
pub use wire::{
    Body, DecodeError, ErrorCode, Op, Request, Response, SlowEntry, WireSpan, FLAG_TRACE,
    RANKED_BY_LATENCY, RANKED_BY_WASTE,
};
