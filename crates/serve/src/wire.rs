//! Wire protocol v3: length-prefixed binary frames.
//!
//! Every message is one frame: a little-endian `u32` payload length followed
//! by the payload. Request payloads open with a fixed header — magic
//! ([`MAGIC`]), version ([`VERSION`]), opcode, request id, target id,
//! relative deadline, per-request flags, snapshot selector — then an
//! opcode-specific body; response payloads are an opcode byte, the echoed
//! request id, and a typed body. All integers are little-endian; no padding
//! anywhere.
//!
//! ```text
//! frame    := len:u32 payload[len]                  (len <= MAX_FRAME)
//! request  := magic:u16 version:u8 op:u8 id:u64 target:u16 deadline_ms:u32 flags:u8 as_of:u64 body
//! response := kind:u8 id:u64 body
//! ```
//!
//! v2 added the `flags` byte — [`FLAG_TRACE`] forces a request-scoped
//! trace regardless of the server's sampling rate — plus the
//! `SlowLog`/`SetSampling` ADMIN ops and the [`Body::SlowLog`] response
//! carrying flattened span trees ([`SlowEntry`]/[`WireSpan`]).
//!
//! v3 (this revision) added the `as_of` header word — 0 requests the
//! latest snapshot, any other value addresses the installed epoch with
//! that sequence number (time travel; an epoch outside the server's
//! retained window is a `BadRequest`) — plus the `Versions` ADMIN op and
//! the [`Body::Versions`] response describing the retained epoch window.
//! Client and server ship from one workspace, so older frames are rejected
//! with a typed `BadVersion` rather than down-negotiated.
//!
//! **One declaration per message.** Every type that crosses the wire has one
//! form, its `Wire` impl: integers little-endian, `bool` a byte, a `String`
//! a `u16` length and its bytes (`as Text`: a `u32` length, for bodies that
//! outgrow 64 KiB), a `Vec` a `u32` count and its elements, structs and
//! tuples their fields in order. A message's fields are written once — in
//! the `wire_struct!` / `wire_enum!` tables below, next to the opcode,
//! response kind or error code that selects them — and that one list yields
//! the Rust type, its encoder, its decoder and `MIN_BYTES`, the fewest bytes a
//! value can take.
//!
//! Decoding is total: any byte string — truncated, corrupted, or
//! adversarial — produces either a value or a typed [`DecodeError`], never a
//! panic and never an allocation larger than the frame that carried it
//! (an element count is validated against the bytes actually present, at
//! the element type's `MIN_BYTES` each, before any `Vec` is sized). That property
//! is pinned by the `wire_proptest` suite; the bytes themselves by
//! `wire_golden`.
//!
//! A frame is encoded in place behind a 4-byte placeholder for its length,
//! so the payload is written once, and a response frame goes to the socket
//! as it was written. A response whose body is a list of fixed-width
//! records is encoded into a buffer of its exact size.

use std::fmt;
use std::io::{self, Read};

use pc_pagestore::{Interval, Point};

/// First two payload bytes of every request ("PC", little-endian).
pub const MAGIC: u16 = 0x4350;
/// Protocol version accepted by this build.
pub const VERSION: u8 = 3;
/// Hard cap on a frame payload; a larger announced length is rejected
/// before any allocation (protects against corrupt/hostile prefixes).
pub const MAX_FRAME: usize = 1 << 24;

/// Request flag: force a request-scoped trace for this request, bypassing
/// the server's sampling rate (the trace lands in the slow-query log like
/// any sampled trace). Unknown flag bits are preserved and ignored.
pub const FLAG_TRACE: u8 = 1;

/// Why a payload failed to decode. Every variant is a clean rejection of
/// malformed input — the decoders never panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before a field was complete.
    Truncated {
        /// Bytes the next field needed.
        need: usize,
        /// Bytes remaining.
        have: usize,
    },
    /// The request did not start with [`MAGIC`].
    BadMagic(u16),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown request opcode.
    UnknownOpcode(u8),
    /// Unknown response kind byte.
    UnknownResponseKind(u8),
    /// Unknown [`ErrorCode`] wire value.
    UnknownErrorCode(u8),
    /// The payload was longer than its fields account for.
    TrailingBytes(usize),
    /// An announced element count does not fit in the bytes present.
    CountTooLarge {
        /// Announced element count.
        count: u64,
        /// Bytes remaining for those elements.
        have: usize,
    },
    /// A text field was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { need, have } => {
                write!(f, "truncated payload: need {need} more bytes, have {have}")
            }
            DecodeError::BadMagic(m) => write!(f, "bad magic {m:#06x}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            DecodeError::UnknownOpcode(o) => write!(f, "unknown request opcode {o}"),
            DecodeError::UnknownResponseKind(k) => write!(f, "unknown response kind {k}"),
            DecodeError::UnknownErrorCode(c) => write!(f, "unknown error code {c}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            DecodeError::CountTooLarge { count, have } => {
                write!(f, "element count {count} exceeds the {have} bytes present")
            }
            DecodeError::BadUtf8 => write!(f, "text field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Bounds-checked read cursor over a payload: what is left of it.
struct Cur<'a>(&'a [u8]);

impl<'a> Cur<'a> {
    fn remaining(&self) -> usize {
        self.0.len()
    }

    fn truncated(&self, need: usize) -> DecodeError {
        DecodeError::Truncated { need, have: self.remaining() }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let (head, rest) = self.0.split_at_checked(n).ok_or_else(|| self.truncated(n))?;
        self.0 = rest;
        Ok(head)
    }

    /// The next `N` bytes, for `from_le_bytes`.
    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, rest) = self.0.split_first_chunk().ok_or_else(|| self.truncated(N))?;
        self.0 = rest;
        Ok(*head)
    }

    /// Reads a `u32` element count and validates it against the bytes
    /// actually remaining, at `elem_min` each, before any collection is
    /// sized from it.
    fn count(&mut self, elem_min: usize) -> Result<usize, DecodeError> {
        let n = u32::take(self)? as u64;
        let have = self.remaining();
        if n.checked_mul(elem_min as u64).is_none_or(|bytes| bytes > have as u64) {
            return Err(DecodeError::CountTooLarge { count: n, have });
        }
        Ok(n as usize)
    }

    fn text(&mut self, len: usize) -> Result<String, DecodeError> {
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }
}

/// Decodes one whole payload: a value, and nothing after it.
#[inline]
fn decode<T>(
    payload: &[u8],
    take: impl FnOnce(&mut Cur<'_>) -> Result<T, DecodeError>,
) -> Result<T, DecodeError> {
    let mut c = Cur(payload);
    let value = take(&mut c)?;
    match c.remaining() {
        0 => Ok(value),
        n => Err(DecodeError::TrailingBytes(n)),
    }
}

/// A value with one wire form (the module header lists them).
trait Wire: Sized {
    /// Fewest bytes a value encodes to: the per-element floor a count is
    /// validated against.
    const MIN_BYTES: usize;
    fn put(&self, out: &mut Vec<u8>);
    fn take(c: &mut Cur<'_>) -> Result<Self, DecodeError>;
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn take(c: &mut Cur<'_>) -> Result<$t, DecodeError> {
                Ok(<$t>::from_le_bytes(c.array()?))
            }
        }
    )*};
}
wire_int!(u8, u16, u32, u64, i64);

impl Wire for bool {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn take(c: &mut Cur<'_>) -> Result<bool, DecodeError> {
        Ok(u8::take(c)? != 0)
    }
}

/// Short text (names): a `u16` length.
impl Wire for String {
    const MIN_BYTES: usize = 2;
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u16).put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn take(c: &mut Cur<'_>) -> Result<String, DecodeError> {
        let len = u16::take(c)? as usize;
        c.text(len)
    }
}

/// Long text (`field: String as Text`): a `u32` length, validated like a
/// count.
struct Text;

impl Text {
    fn put(s: &str, out: &mut Vec<u8>) {
        (s.len() as u32).put(out);
        out.extend_from_slice(s.as_bytes());
    }
    fn take(c: &mut Cur<'_>) -> Result<String, DecodeError> {
        let len = c.count(1)?;
        c.text(len)
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.reserve(self.len() * T::MIN_BYTES);
        for item in self {
            item.put(out);
        }
    }
    fn take(c: &mut Cur<'_>) -> Result<Vec<T>, DecodeError> {
        let n = c.count(T::MIN_BYTES)?;
        let mut items = Vec::with_capacity(n);
        // A cursor of the loop's own stays in registers; `c`, behind its
        // reference, would be written back after every field.
        let mut rest = Cur(c.0);
        for _ in 0..n {
            items.push(T::take(&mut rest)?);
        }
        c.0 = rest.0;
        Ok(items)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn take(c: &mut Cur<'_>) -> Result<(A, B), DecodeError> {
        Ok((A::take(c)?, B::take(c)?))
    }
}

/// The form a declared field takes: its type's, or the one named after `as`.
macro_rules! form {
    ($t:ty) => { $t };
    ($t:ty, $form:ident) => { $form };
}

/// `Wire` for a struct from its field list: the fields in order.
macro_rules! wire_fields {
    ($T:ident { $($f:ident : $t:ty),* $(,)? }) => {
        impl Wire for $T {
            const MIN_BYTES: usize = 0 $(+ <$t as Wire>::MIN_BYTES)*;
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$f.put(out);)*
            }
            #[inline]
            fn take(c: &mut Cur<'_>) -> Result<$T, DecodeError> {
                Ok($T { $($f: Wire::take(c)?),* })
            }
        }
    };
}
wire_fields!(Point { x: i64, y: i64, id: u64 });
wire_fields!(Interval { lo: i64, hi: i64, id: u64 });

/// A struct that crosses the wire, declared once: the type and its `Wire`.
macro_rules! wire_struct {
    ($(#[$meta:meta])* pub struct $T:ident {
        $($(#[$fmeta:meta])* pub $f:ident : $t:ty),* $(,)?
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct $T {
            $($(#[$fmeta])* pub $f: $t),*
        }
        wire_fields!($T { $($f: $t),* });
    };
}

/// An enum selected by a code byte, declared once. Each row is `code
/// Variant fields [=> row]`: from it come the variant, `row()` (the code and
/// whatever else the table says of the variant), `put_fields` and
/// `take_fields(code)`. A code the table lacks decodes to the
/// [`DecodeError`] variant named after `unknown`.
macro_rules! wire_enum {
    ($(#[$meta:meta])* pub enum $E:ident, unknown $unknown:ident $(, row $Row:ty)? {
        $(
            $(#[$vmeta:meta])*
            $code:literal $V:ident
                $({ $($(#[$fmeta:meta])* $f:ident : $t:ty $(as $form:ident)?),* $(,)? })?
                $(($v:ident : $vt:ty $(as $vform:ident)?))?
                $(=> $row:expr)?
        ),* $(,)?
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum $E {
            $($(#[$vmeta])* $V $({ $($(#[$fmeta])* $f: $t),* })? $(($vt))?),*
        }

        // A unit-only enum leaves `out` and `c` untouched; a single row type
        // needs no parentheses.
        #[allow(unused_variables, unused_parens, clippy::ptr_arg)]
        impl $E {
            fn row(&self) -> (u8, ($($Row)?)) {
                match self {
                    $($E::$V $({ $($f),* })? $(($v))? => ($code, ($($row)?))),*
                }
            }

            fn put_fields(&self, out: &mut Vec<u8>) {
                match self {
                    $($E::$V $({ $($f),* })? $(($v))? => {
                        $($(<form!($t $(, $form)?)>::put($f, out);)*)?
                        $(<form!($vt $(, $vform)?)>::put($v, out);)?
                    })*
                }
            }

            // Inlined into the one envelope that calls it: returned through
            // memory, the variant is written field by field and then copied
            // out whole, and that copy stalls on store forwarding
            // (`decode_request` measured 52 ns so, 14 ns inlined).
            #[inline(always)]
            fn take_fields(code: u8, c: &mut Cur<'_>) -> Result<$E, DecodeError> {
                Ok(match code {
                    $($code => $E::$V
                        $({ $($f: <form!($t $(, $form)?)>::take(c)?),* })?
                        $((<form!($vt $(, $vform)?)>::take(c)?))?,)*
                    other => return Err(DecodeError::$unknown(other)),
                })
            }
        }
    };
}

/// How the server treats an op (the third column of the [`Op`] table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Answered by a target from a snapshot, through the query queue.
    Read,
    /// Applied by the batcher, through the update queue.
    Update,
    /// Answered inline by whoever terminates the connection; bypasses the
    /// queues so it stays responsive under load.
    Admin,
}

wire_enum! {
    /// A typed operation carried by a [`Request`].
    pub enum Op, unknown UnknownOpcode, row (&'static str, Class) {
        /// 1-d key range `[lo, hi]` against a B-tree target.
        1 Range1d {
            /// Inclusive lower key.
            lo: i64,
            /// Inclusive upper key.
            hi: i64,
        } => ("range1d", Class::Read),
        /// Stabbing query at `q` against an interval target.
        2 Stab {
            /// Stabbing point.
            q: i64,
        } => ("stab", Class::Read),
        /// 2-sided PST query (left bound `x0`, bottom bound `y0`; same
        /// semantics as `pc_pst::TwoSided`).
        3 TwoSided {
            /// Left boundary (inclusive).
            x0: i64,
            /// Bottom boundary (inclusive).
            y0: i64,
        } => ("two_sided", Class::Read),
        /// 3-sided PST query (`x1 ≤ x ≤ x2`, bottom bound `y0`; same semantics
        /// as `pc_pst::ThreeSided`).
        4 ThreeSided {
            /// Left boundary (inclusive).
            x1: i64,
            /// Right boundary (inclusive).
            x2: i64,
            /// Bottom boundary (inclusive).
            y0: i64,
        } => ("three_sided", Class::Read),
        /// Insert a point into a dynamic target.
        5 Insert(p: Point) => ("insert", Class::Update),
        /// Delete a point from a dynamic target.
        6 Delete(p: Point) => ("delete", Class::Update),
        /// Liveness probe (admin).
        16 Ping => ("ping", Class::Admin),
        /// Server + store counters as `(name, value)` pairs (admin).
        17 Stats => ("stats", Class::Admin),
        /// Prometheus-style metrics text (admin).
        18 Metrics => ("metrics", Class::Admin),
        /// Graceful drain-then-shutdown (admin).
        19 Shutdown => ("shutdown", Class::Admin),
        /// Read (and optionally drain) the slow-query log (admin).
        20 SlowLog {
            /// Max entries wanted per ranking.
            k: u32,
            /// Also empty the log after reading (the drain half of the op).
            clear: bool,
        } => ("slow_log", Class::Admin),
        /// Retune the live trace-sampling rate: trace 1 in `every` requests
        /// (0 = off, 1 = everything). Admin.
        21 SetSampling {
            /// The new rate.
            every: u64,
        } => ("set_sampling", Class::Admin),
        /// Describe the server's retained snapshot window (admin): the current
        /// and oldest addressable epoch, install/reclaim counters, and how many
        /// snapshots are pinned right now.
        22 Versions => ("versions", Class::Admin),
    }
}

impl Op {
    /// True for admin ops: whoever terminates the connection (server or
    /// router front-end) answers them inline, or refuses them `Unsupported`.
    pub fn is_admin(&self) -> bool {
        self.row().1 .1 == Class::Admin
    }

    /// True for mutating ops, which route through the batching stage.
    pub fn is_update(&self) -> bool {
        self.row().1 .1 == Class::Update
    }

    /// Stable lowercase name for logs and error messages.
    pub fn name(&self) -> &'static str {
        self.row().1 .0
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Caller-chosen id, echoed verbatim in the response.
    pub id: u64,
    /// Registry index of the structure to query (ignored by admin ops).
    pub target: u16,
    /// Relative deadline in milliseconds from server receipt; 0 = none.
    pub deadline_ms: u32,
    /// Per-request flag bits (see [`FLAG_TRACE`]); unknown bits are
    /// carried through untouched.
    pub flags: u8,
    /// Snapshot selector: 0 pins the latest installed epoch at admission;
    /// any other value addresses that installed epoch (time travel). An
    /// epoch outside the retained window is answered `BadRequest`; updates
    /// and admin ops must carry 0.
    pub as_of: u64,
    /// The operation.
    pub op: Op,
}

wire_enum! {
    /// Typed error codes carried in [`Body::Error`]. The table's second
    /// column is [`ErrorCode::is_transient`].
    #[derive(Copy)]
    pub enum ErrorCode, unknown UnknownErrorCode, row (&'static str, bool) {
        /// A bounded work queue was full; the request was shed immediately.
        1 Overloaded => ("overloaded", true),
        /// The request's deadline passed before it was executed.
        2 DeadlineExceeded => ("deadline_exceeded", true),
        /// Malformed request, unknown target, or an op the target cannot serve
        /// was addressed at it with malformed intent (see also [`ErrorCode::Unsupported`]).
        3 BadRequest => ("bad_request", false),
        /// The storage layer returned a typed error (checksum, I/O).
        4 Storage => ("storage", false),
        /// The server is draining; no new work is admitted.
        5 ShuttingDown => ("shutting_down", true),
        /// The target exists but does not implement this op.
        6 Unsupported => ("unsupported", false),
    }
}

impl ErrorCode {
    /// All codes, for enumeration in tests and generators.
    pub const ALL: [ErrorCode; 6] = [
        ErrorCode::Overloaded,
        ErrorCode::DeadlineExceeded,
        ErrorCode::BadRequest,
        ErrorCode::Storage,
        ErrorCode::ShuttingDown,
        ErrorCode::Unsupported,
    ];

    /// True for load-dependent conditions a caller may reasonably retry
    /// (elsewhere, or later, with backoff): the answer depends on *when*
    /// and *where* the request ran, not on the request itself. The router
    /// fails reads over to another replica on these and backs off after a
    /// full cycle. `BadRequest` / `Unsupported` would fail identically
    /// everywhere and are surfaced immediately. `Storage` is one node's
    /// page store failing (a checksum, a lost or unreadable frame): the router
    /// fails a read over on it too, since another replica's copy may serve,
    /// but fails the read at once when every healthy replica answered it.
    pub fn is_transient(self) -> bool {
        self.row().1 .1
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.row().1 .0)
    }
}

impl Wire for ErrorCode {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.row().0);
        self.put_fields(out);
    }
    fn take(c: &mut Cur<'_>) -> Result<ErrorCode, DecodeError> {
        ErrorCode::take_fields(u8::take(c)?, c)
    }
}

wire_struct! {
    /// One span of a slow-query trace, flattened preorder for the wire (the
    /// tree shape is recoverable from `depth`). Field semantics match
    /// `pc_obs::SpanNode`; `wasteful` is precomputed server-side so a scraper
    /// needs no knowledge of the §3 formula.
    pub struct WireSpan {
        /// Preorder depth (root = 0).
        pub depth: u16,
        /// True for an output-producing span (its excess reads are wasteful).
        pub output: bool,
        /// Static span name (`"level"`, `"path_cache_probe"`, ...).
        pub name: String,
        /// Numeric span argument (tree depth, request id, ...; 0 if unused).
        pub arg: u64,
        /// Subtree backend reads.
        pub reads: u64,
        /// Subtree backend writes.
        pub writes: u64,
        /// Subtree buffer-pool hits.
        pub cache_hits: u64,
        /// Reads attributed to this span itself.
        pub self_reads: u64,
        /// Output items this span reported.
        pub items: u64,
        /// Effective output block capacity `B`.
        pub block_capacity: u64,
        /// §3 wasteful transfers charged to this span alone.
        pub wasteful: u64,
    }
}

/// Ranking-membership bit: the entry is in the top-K by latency.
pub const RANKED_BY_LATENCY: u8 = 1;
/// Ranking-membership bit: the entry is in the top-K by wasteful I/O.
pub const RANKED_BY_WASTE: u8 = 2;

wire_struct! {
    /// One slow-query-log entry as carried by [`Body::SlowLog`].
    pub struct SlowEntry {
        /// Wire id of the offending request.
        pub request_id: u64,
        /// Op kind name (`"two_sided"`, `"update_batch"`, ...).
        pub op: String,
        /// Name the target was registered under (the tenant namespace).
        pub target: String,
        /// Which rankings retained it ([`RANKED_BY_LATENCY`] | [`RANKED_BY_WASTE`]).
        pub rankings: u8,
        /// Wall-clock execution time of the traced root span, nanoseconds.
        pub latency_ns: u64,
        /// Total transfers in the trace.
        pub total_io: u64,
        /// Search (navigation) reads in the trace.
        pub search_ios: u64,
        /// §3 wasteful transfers in the trace.
        pub wasteful_ios: u64,
        /// Output items the trace reported.
        pub items: u64,
        /// The span tree, flattened preorder.
        pub spans: Vec<WireSpan>,
    }
}

impl SlowEntry {
    /// Indented multi-line rendering of the flattened span tree, in the
    /// same shape as `pc_obs::SpanNode::render`.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{} target={} req={}: io={} (search={}, wasteful={}) items={} latency_ns={}\n",
            self.op,
            self.target,
            self.request_id,
            self.total_io,
            self.search_ios,
            self.wasteful_ios,
            self.items,
            self.latency_ns
        );
        for sp in &self.spans {
            for _ in 0..sp.depth {
                s.push_str("  ");
            }
            s.push_str(&sp.name);
            if sp.arg != 0 {
                s.push_str(&format!("({})", sp.arg));
            }
            s.push_str(&format!(
                " [{}] r={} w={} hit={} self_reads={}",
                if sp.output { "out" } else { "nav" },
                sp.reads,
                sp.writes,
                sp.cache_hits,
                sp.self_reads
            ));
            if sp.output {
                s.push_str(&format!(
                    " items={} B={} wasteful={}",
                    sp.items, sp.block_capacity, sp.wasteful
                ));
            }
            s.push('\n');
        }
        s
    }
}

/// Flattens a finished trace into preorder [`WireSpan`]s.
pub fn flatten_spans(root: &pc_obs::SpanNode) -> Vec<WireSpan> {
    fn walk(node: &pc_obs::SpanNode, depth: u16, out: &mut Vec<WireSpan>) {
        out.push(WireSpan {
            depth,
            output: matches!(node.kind, pc_obs::SpanKind::Output),
            name: node.name.to_string(),
            arg: node.arg,
            reads: node.io.reads,
            writes: node.io.writes,
            cache_hits: node.io.cache_hits,
            self_reads: node.self_reads,
            items: node.items,
            block_capacity: node.block_capacity,
            wasteful: node.wasteful(),
        });
        for c in &node.children {
            walk(c, depth.saturating_add(1), out);
        }
    }
    let mut out = Vec::new();
    walk(root, 0, &mut out);
    out
}

wire_enum! {
    /// Typed response body.
    pub enum Body, unknown UnknownResponseKind {
        /// Result of a 2-/3-sided query.
        1 Points(points: Vec<Point>),
        /// Result of a stabbing query.
        2 Intervals(intervals: Vec<Interval>),
        /// Result of a 1-d range query: `(key, value)` pairs.
        3 Keys(pairs: Vec<(i64, u64)>),
        /// An update was applied.
        4 Ack {
            /// Sequence number of the batch that carried this update.
            batch: u64,
            /// Number of updates coalesced into that batch (≥ 1).
            coalesced: u32,
        },
        /// Reply to [`Op::Ping`].
        5 Pong,
        /// Reply to [`Op::Stats`]: `(name, value)` counter pairs.
        6 Stats(pairs: Vec<(String, u64)>),
        /// Reply to [`Op::Metrics`]: Prometheus-style text.
        7 Metrics(text: String as Text),
        /// Reply to [`Op::Shutdown`]; the server drains and exits after this.
        8 ShutdownAck,
        /// Typed failure.
        9 Error {
            /// Machine-readable code.
            code: ErrorCode,
            /// Human-readable detail.
            message: String as Text,
        },
        /// Reply to [`Op::SlowLog`]: retained slow queries with full span trees.
        10 SlowLog(entries: Vec<SlowEntry>),
        /// Reply to [`Op::Versions`]: the retained snapshot window.
        11 Versions {
            /// Newest installed epoch (what `as_of = 0` resolves to).
            current: u64,
            /// Oldest epoch still addressable via `as_of`.
            oldest: u64,
            /// Epochs installed over the server's lifetime.
            installed: u64,
            /// Copy-on-write pages reclaimed by epoch GC so far.
            reclaimed_pages: u64,
            /// Snapshots pinned by in-flight or held readers right now.
            pinned: u64,
        },
    }
}

/// One server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Echo of [`Request::id`].
    pub id: u64,
    /// The payload.
    pub body: Body,
}

impl Response {
    /// Convenience constructor for an error response.
    pub fn error(id: u64, code: ErrorCode, message: impl Into<String>) -> Response {
        Response { id, body: Body::Error { code, message: message.into() } }
    }
}

// The two envelopes: a header around an enum's code and fields.
impl Wire for Request {
    const MIN_BYTES: usize = 27;

    fn put(&self, out: &mut Vec<u8>) {
        MAGIC.put(out);
        VERSION.put(out);
        self.op.row().0.put(out);
        self.id.put(out);
        self.target.put(out);
        self.deadline_ms.put(out);
        self.flags.put(out);
        self.as_of.put(out);
        self.op.put_fields(out);
    }

    #[inline]
    fn take(c: &mut Cur<'_>) -> Result<Request, DecodeError> {
        let magic = u16::take(c)?;
        if magic != MAGIC {
            return Err(DecodeError::BadMagic(magic));
        }
        let version = u8::take(c)?;
        if version != VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let opcode = u8::take(c)?;
        Ok(Request {
            id: Wire::take(c)?,
            target: Wire::take(c)?,
            deadline_ms: Wire::take(c)?,
            flags: Wire::take(c)?,
            as_of: Wire::take(c)?,
            op: Op::take_fields(opcode, c)?,
        })
    }
}

impl Wire for Response {
    const MIN_BYTES: usize = 9;

    fn put(&self, out: &mut Vec<u8>) {
        self.body.row().0.put(out);
        self.id.put(out);
        self.body.put_fields(out);
    }

    #[inline]
    fn take(c: &mut Cur<'_>) -> Result<Response, DecodeError> {
        let kind = u8::take(c)?;
        Ok(Response { id: Wire::take(c)?, body: Body::take_fields(kind, c)? })
    }
}

/// `message` encoded into a buffer of `reserve` bytes, behind its length
/// with `frame`.
fn encoded(message: &impl Wire, frame: bool, reserve: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(reserve);
    if frame {
        out.extend_from_slice(&[0; 4]);
    }
    message.put(&mut out);
    if frame {
        let len = (out.len() - 4) as u32;
        out[..4].copy_from_slice(&len.to_le_bytes());
    }
    out
}

/// Encodes a request payload (no length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    encoded(req, false, 64)
}

/// Encodes a full request frame: the payload, written once, behind its
/// length.
pub fn request_frame(req: &Request) -> Vec<u8> {
    encoded(req, true, 64)
}

/// Decodes a request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, DecodeError> {
    decode(payload, Request::take)
}

/// Bytes a response's payload takes where its body is a list of
/// fixed-width records — its exact size — else a guess to grow from.
fn response_bytes(resp: &Response) -> usize {
    fn list<T: Wire>(items: &[T]) -> usize {
        Vec::<T>::MIN_BYTES + items.len() * T::MIN_BYTES
    }
    Response::MIN_BYTES
        + match &resp.body {
            Body::Points(points) => list(points),
            Body::Intervals(intervals) => list(intervals),
            Body::Keys(pairs) => list(pairs),
            _ => 64,
        }
}

/// Encodes a response payload (no length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    encoded(resp, false, response_bytes(resp))
}

/// Encodes a full response frame: the length prefix and the payload,
/// written once into a buffer reserved at its size, to go to the socket
/// as it is.
pub fn response_frame(resp: &Response) -> Vec<u8> {
    encoded(resp, true, 4 + response_bytes(resp))
}

/// Decodes a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, DecodeError> {
    decode(payload, Response::take)
}

/// Reads one length-prefixed frame from a blocking reader. Returns
/// `Ok(None)` on a clean EOF at a frame boundary; a connection that dies
/// mid-frame surfaces as `UnexpectedEof`, and a read timeout as `TimedOut`
/// — callers treat both as a dead peer and bail out rather than hang.
pub fn read_frame(r: &mut impl Read, max: usize) -> io::Result<Option<Vec<u8>>> {
    match FrameReader::new(max).poll(r)? {
        FrameProgress::Frame(payload) => Ok(Some(payload)),
        FrameProgress::Eof => Ok(None),
        FrameProgress::Pending => Err(io::ErrorKind::TimedOut.into()),
    }
}

/// Progress report from [`FrameReader::poll`].
#[derive(Debug)]
pub enum FrameProgress {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// Clean EOF at a frame boundary — the peer closed the connection.
    Eof,
    /// The read timed out with no complete frame; partial bytes are
    /// retained. The caller decides whether the connection is idle-dead.
    Pending,
}

/// Incremental frame reader: the one loop that turns socket reads into
/// frames. A connection thread reads with a short `set_read_timeout` tick
/// so it can check shutdown and idle-timeout state between reads; partial
/// header or payload bytes survive across `Pending` returns.
#[derive(Debug)]
pub struct FrameReader {
    max: usize,
    header: [u8; 4],
    /// The payload being filled, once the header announced its length.
    payload: Option<Vec<u8>>,
    /// Bytes of the current part (header or payload) read so far.
    got: usize,
    total_read: u64,
}

impl FrameReader {
    /// A reader enforcing the given frame-size cap.
    pub fn new(max: usize) -> FrameReader {
        FrameReader { max, header: [0; 4], payload: None, got: 0, total_read: 0 }
    }

    /// Cumulative bytes consumed; callers diff this across `Pending`
    /// returns to distinguish a slow peer from a silent one.
    pub fn bytes_read(&self) -> u64 {
        self.total_read
    }

    /// Drives the reader one step. `Err` means the connection is broken
    /// (mid-frame EOF, oversized frame, or a real I/O error).
    pub fn poll(&mut self, r: &mut impl Read) -> io::Result<FrameProgress> {
        loop {
            let part: &mut [u8] = match &mut self.payload {
                Some(payload) => payload,
                None => &mut self.header,
            };
            if self.got < part.len() {
                match r.read(&mut part[self.got..]) {
                    Ok(0) if self.payload.is_none() && self.got == 0 => {
                        return Ok(FrameProgress::Eof)
                    }
                    Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                    Ok(n) => {
                        self.got += n;
                        self.total_read += n as u64;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        return Ok(FrameProgress::Pending);
                    }
                    Err(e) => return Err(e),
                }
                continue;
            }
            // The part is complete: a header opens its payload, a payload
            // is the frame.
            self.got = 0;
            if let Some(frame) = self.payload.take() {
                return Ok(FrameProgress::Frame(frame));
            }
            let len = u32::from_le_bytes(self.header) as usize;
            if len > self.max {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("frame length {len} exceeds cap {}", self.max),
                ));
            }
            self.payload = Some(vec![0u8; len]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt_req(req: Request) {
        let payload = encode_request(&req);
        assert_eq!(decode_request(&payload).unwrap(), req);
    }

    fn rt_resp(resp: Response) {
        let payload = encode_response(&resp);
        assert_eq!(decode_response(&payload).unwrap(), resp);
    }

    #[test]
    fn request_round_trips() {
        rt_req(Request { id: 7, target: 3, deadline_ms: 250, flags: 0, as_of: 0, op: Op::Range1d { lo: -5, hi: 99 } });
        rt_req(Request { id: 0, target: 0, deadline_ms: 0, flags: FLAG_TRACE, as_of: 0, op: Op::Stab { q: i64::MIN } });
        rt_req(Request { id: u64::MAX, target: u16::MAX, deadline_ms: u32::MAX, flags: 0xFF, as_of: 0, op: Op::TwoSided { x0: 1, y0: 2 } });
        rt_req(Request { id: 1, target: 1, deadline_ms: 1, flags: 0, as_of: 0, op: Op::ThreeSided { x1: -1, x2: 1, y0: 0 } });
        rt_req(Request { id: 2, target: 5, deadline_ms: 0, flags: 0, as_of: 0, op: Op::Insert(Point { x: 1, y: 2, id: 3 }) });
        rt_req(Request { id: 3, target: 5, deadline_ms: 0, flags: 0, as_of: 0, op: Op::Delete(Point { x: -1, y: -2, id: 9 }) });
        for op in [Op::Ping, Op::Stats, Op::Metrics, Op::Shutdown, Op::Versions] {
            rt_req(Request { id: 4, target: 0, deadline_ms: 0, flags: 0, as_of: 0, op });
        }
        rt_req(Request {
            id: 5,
            target: 0,
            deadline_ms: 0,
            flags: 0,
            as_of: 0,
            op: Op::SlowLog { k: 16, clear: true },
        });
        rt_req(Request {
            id: 6,
            target: 0,
            deadline_ms: 0,
            flags: 0,
            as_of: 0,
            op: Op::SetSampling { every: u64::MAX },
        });
        // Nonzero snapshot selectors survive the trip on every op shape.
        rt_req(Request { id: 8, target: 2, deadline_ms: 50, flags: 0, as_of: 7, op: Op::Stab { q: 0 } });
        rt_req(Request {
            id: 9,
            target: 1,
            deadline_ms: 0,
            flags: FLAG_TRACE,
            as_of: u64::MAX,
            op: Op::Range1d { lo: 0, hi: 1 },
        });
    }

    #[test]
    fn response_round_trips() {
        rt_resp(Response { id: 1, body: Body::Points(vec![Point { x: 1, y: 2, id: 3 }]) });
        rt_resp(Response { id: 2, body: Body::Points(Vec::new()) });
        rt_resp(Response { id: 3, body: Body::Intervals(vec![Interval { lo: -2, hi: 2, id: 8 }]) });
        rt_resp(Response { id: 4, body: Body::Keys(vec![(i64::MIN, 0), (i64::MAX, u64::MAX)]) });
        rt_resp(Response { id: 5, body: Body::Ack { batch: 42, coalesced: 17 } });
        rt_resp(Response { id: 6, body: Body::Pong });
        rt_resp(Response { id: 7, body: Body::Stats(vec![("reads".into(), 10), ("".into(), 0)]) });
        rt_resp(Response { id: 8, body: Body::Metrics("# TYPE x counter\nx 1\n".into()) });
        rt_resp(Response { id: 9, body: Body::ShutdownAck });
        for code in ErrorCode::ALL {
            rt_resp(Response::error(10, code, format!("{code} detail")));
        }
        rt_resp(Response { id: 11, body: Body::SlowLog(Vec::new()) });
        rt_resp(Response {
            id: 13,
            body: Body::Versions {
                current: 42,
                oldest: 11,
                installed: 43,
                reclaimed_pages: 999,
                pinned: 3,
            },
        });
        rt_resp(Response {
            id: 14,
            body: Body::Versions {
                current: 0,
                oldest: 0,
                installed: u64::MAX,
                reclaimed_pages: 0,
                pinned: u64::MAX,
            },
        });
        rt_resp(Response {
            id: 12,
            body: Body::SlowLog(vec![SlowEntry {
                request_id: 99,
                op: "two_sided".into(),
                target: "pst/main".into(),
                rankings: RANKED_BY_LATENCY | RANKED_BY_WASTE,
                latency_ns: 1_234_567,
                total_io: 40,
                search_ios: 12,
                wasteful_ios: 28,
                items: 3,
                spans: vec![
                    WireSpan {
                        depth: 0,
                        output: true,
                        name: "serve_query".into(),
                        arg: 99,
                        reads: 40,
                        writes: 0,
                        cache_hits: 5,
                        self_reads: 2,
                        items: 3,
                        block_capacity: 64,
                        wasteful: 2,
                    },
                    WireSpan {
                        depth: 1,
                        output: false,
                        name: "level".into(),
                        arg: 4,
                        reads: 38,
                        writes: 0,
                        cache_hits: 5,
                        self_reads: 38,
                        items: 0,
                        block_capacity: 0,
                        wasteful: 0,
                    },
                ],
            }]),
        });
    }

    #[test]
    fn slow_log_decode_validates_span_and_entry_counts() {
        // An entry count with nothing behind it must be rejected cheaply.
        let mut p = encode_response(&Response { id: 3, body: Body::SlowLog(Vec::new()) });
        let n = p.len();
        p[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_response(&p), Err(DecodeError::CountTooLarge { .. })));
        // The floors a count is held to are the sums of the declared fields.
        assert_eq!(SlowEntry::MIN_BYTES, 8 + 2 + 2 + 1 + 5 * 8 + 4);
        assert_eq!(WireSpan::MIN_BYTES, 2 + 1 + 2 + 8 * 8);

        // A valid single entry whose span count lies about the bytes present.
        let resp = Response {
            id: 1,
            body: Body::SlowLog(vec![SlowEntry {
                request_id: 1,
                op: "stab".into(),
                target: "t".into(),
                rankings: RANKED_BY_LATENCY,
                latency_ns: 5,
                total_io: 1,
                search_ios: 1,
                wasteful_ios: 0,
                items: 0,
                spans: Vec::new(),
            }]),
        };
        let mut p = encode_response(&resp);
        let n = p.len();
        p[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes()); // span count field
        assert!(matches!(decode_response(&p), Err(DecodeError::CountTooLarge { .. })));
    }

    #[test]
    fn flatten_preserves_preorder_and_section3_waste() {
        use pc_obs::{IoDelta, SpanKind, SpanNode};
        let root = SpanNode {
            name: "q",
            arg: 7,
            kind: SpanKind::Output,
            io: IoDelta { reads: 10, writes: 1, cache_hits: 2, ..IoDelta::default() },
            self_reads: 6,
            items: 8,
            block_capacity: 4,
            children: vec![SpanNode {
                name: "level",
                arg: 1,
                kind: SpanKind::Nav,
                io: IoDelta { reads: 4, writes: 0, cache_hits: 1, ..IoDelta::default() },
                self_reads: 4,
                items: 0,
                block_capacity: 0,
                children: vec![SpanNode {
                    name: "leaf",
                    arg: 0,
                    kind: SpanKind::Output,
                    io: IoDelta { reads: 3, writes: 0, cache_hits: 0, ..IoDelta::default() },
                    self_reads: 3,
                    items: 8,
                    block_capacity: 4,
                    children: Vec::new(),
                }],
            }],
        };
        let flat = flatten_spans(&root);
        assert_eq!(flat.len(), 3);
        assert_eq!(
            flat.iter().map(|s| (s.depth, s.name.as_str())).collect::<Vec<_>>(),
            [(0, "q"), (1, "level"), (2, "leaf")]
        );
        // §3: wasteful = self_reads - items/B on Output spans.
        assert_eq!(flat[0].wasteful, root.wasteful());
        assert_eq!(flat[0].wasteful, 6 - 8 / 4);
        assert_eq!(flat[1].wasteful, 0, "nav spans are never wasteful");
        assert_eq!(flat[2].wasteful, 3 - 8 / 4);
        assert!(flat[0].output && !flat[1].output);
    }

    #[test]
    fn decode_rejects_malformed_headers() {
        assert!(matches!(decode_request(&[]), Err(DecodeError::Truncated { .. })));
        let mut p = encode_request(&Request { id: 1, target: 0, deadline_ms: 0, flags: 0, as_of: 0, op: Op::Ping });
        p[0] ^= 0xFF;
        assert!(matches!(decode_request(&p), Err(DecodeError::BadMagic(_))));
        let mut p = encode_request(&Request { id: 1, target: 0, deadline_ms: 0, flags: 0, as_of: 0, op: Op::Ping });
        p[2] = 9;
        assert!(matches!(decode_request(&p), Err(DecodeError::BadVersion(9))));
        let mut p = encode_request(&Request { id: 1, target: 0, deadline_ms: 0, flags: 0, as_of: 0, op: Op::Ping });
        p[3] = 200;
        assert!(matches!(decode_request(&p), Err(DecodeError::UnknownOpcode(200))));
        let mut p = encode_request(&Request { id: 1, target: 0, deadline_ms: 0, flags: 0, as_of: 0, op: Op::Ping });
        p.push(0);
        assert!(matches!(decode_request(&p), Err(DecodeError::TrailingBytes(1))));
    }

    #[test]
    fn decode_validates_counts_before_allocating() {
        // A Points response claiming u32::MAX elements with no bytes behind
        // it must be rejected without trying to reserve 96 GiB.
        let mut p = encode_response(&Response { id: 7, body: Body::Points(Vec::new()) });
        let n = p.len();
        p[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_response(&p), Err(DecodeError::CountTooLarge { .. })));
    }

    #[test]
    fn decode_rejects_bad_utf8() {
        let resp = Response { id: 1, body: Body::Metrics("ok".into()) };
        let mut p = encode_response(&resp);
        let n = p.len();
        p[n - 1] = 0xFF;
        p[n - 2] = 0xFE;
        assert!(matches!(decode_response(&p), Err(DecodeError::BadUtf8)));
    }

    #[test]
    fn frames_round_trip_through_io() {
        let req = Request { id: 11, target: 2, deadline_ms: 30, flags: 0, as_of: 0, op: Op::Stab { q: 5 } };
        let frame = request_frame(&req);
        let mut cursor = io::Cursor::new(frame);
        let payload = read_frame(&mut cursor, MAX_FRAME).unwrap().unwrap();
        assert_eq!(decode_request(&payload).unwrap(), req);
        // Clean EOF at the boundary.
        assert!(read_frame(&mut cursor, MAX_FRAME).unwrap().is_none());

        let resp = Response { id: 11, body: Body::Intervals(vec![Interval { lo: 1, hi: 9, id: 4 }]) };
        let mut cursor = io::Cursor::new(response_frame(&resp));
        let payload = read_frame(&mut cursor, MAX_FRAME).unwrap().unwrap();
        assert_eq!(decode_response(&payload).unwrap(), resp);
    }

    #[test]
    fn read_frame_rejects_oversized_and_truncated() {
        let mut huge = Vec::new();
        huge.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let err = read_frame(&mut io::Cursor::new(huge), MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let req = Request { id: 1, target: 0, deadline_ms: 0, flags: 0, as_of: 0, op: Op::Ping };
        let mut frame = request_frame(&req);
        frame.truncate(frame.len() - 1);
        let err = read_frame(&mut io::Cursor::new(frame), MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn frame_reader_accumulates_across_partial_reads() {
        // Feed the frame one byte at a time through a reader that returns
        // WouldBlock between bytes, as a timed-out socket would.
        struct Trickle {
            data: Vec<u8>,
            pos: usize,
            ready: bool,
        }
        impl Read for Trickle {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.pos == self.data.len() {
                    return Ok(0);
                }
                if !self.ready {
                    self.ready = true;
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                self.ready = false;
                buf[0] = self.data[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }
        let req = Request { id: 9, target: 1, deadline_ms: 0, flags: 0, as_of: 0, op: Op::Range1d { lo: 0, hi: 10 } };
        let mut t = Trickle { data: request_frame(&req), pos: 0, ready: false };
        let mut fr = FrameReader::new(MAX_FRAME);
        let mut pendings = 0;
        loop {
            match fr.poll(&mut t).unwrap() {
                FrameProgress::Frame(p) => {
                    assert_eq!(decode_request(&p).unwrap(), req);
                    break;
                }
                FrameProgress::Pending => pendings += 1,
                FrameProgress::Eof => panic!("premature EOF"),
            }
        }
        assert!(pendings > 0);
        assert_eq!(fr.bytes_read(), t.data.len() as u64);
        assert!(matches!(fr.poll(&mut t).unwrap(), FrameProgress::Eof));
    }
}
