//! The thread-local span stack.
//!
//! A [`Span`] guard pushes a frame recording the thread's cumulative I/O
//! counts at open; [`record_io`] bumps those counts; on drop the frame's
//! delta becomes a [`SpanNode`] attached to its parent. When the *root*
//! frame pops, the finished tree goes to the capture that asked for it.
//!
//! A span does real work only while the current thread has an open
//! [`TraceCapture`] (see [`begin_trace`]) — a library caller opens one
//! around the query it wants explained, the serve layer around sampled
//! requests. Otherwise [`Span::enter`] is a single const-initialized
//! thread-local load plus a branch: no allocation, no `Instant::now()`,
//! nothing for the optimizer to keep. The zero-alloc property is pinned by
//! the `zero_alloc` integration test.
//!
//! [`begin_trace`]/[`TraceCapture::finish`] capture the next finished
//! *root* span on this thread as a [`QueryTrace`] and hand it back to the
//! caller — that is the per-request trace context: the caller owns the
//! tree, with no detour through process-global state ([`traced`] runs a
//! closure inside one). [`record_read`] counts reads by class per root.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use crate::{IoDelta, IoEvent, QueryTrace, ReadClass, SpanKind, SpanNode};

struct Frame {
    name: &'static str,
    arg: u64,
    kind: SpanKind,
    /// Thread-cumulative per-kind counts when this frame opened.
    start: [u64; IoEvent::COUNT],
    /// Reads already attributed to closed child spans.
    child_reads: u64,
    /// Items reported via [`add_items`] while this frame was innermost.
    items: u64,
    /// Capacity set via [`set_block_capacity`] on this frame, if any.
    block_capacity: Option<u64>,
    children: Vec<SpanNode>,
    /// Root frames only: when it opened, and the thread's reads by class.
    root: Option<(Instant, [u64; ReadClass::COUNT])>,
}

#[derive(Default)]
struct Tracer {
    /// Thread-cumulative per-kind event counts (monotonic).
    io: [u64; IoEvent::COUNT],
    /// Thread-cumulative reads by class (monotonic).
    reads: [u64; ReadClass::COUNT],
    stack: Vec<Frame>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
    /// True while a [`TraceCapture`] is open on this thread. Const-init so
    /// the unsampled fast path is a plain TLS load with no lazy-init check.
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
    static CAPTURED: RefCell<Option<QueryTrace>> = const { RefCell::new(None) };
}

/// True when spans on this thread should record anything at all.
#[inline(always)]
fn tracing_live() -> bool {
    CAPTURING.with(Cell::get)
}

/// Captures the next root span finished on this thread.
///
/// Arms tracing (spans are inert outside a capture) and reserves the
/// thread's capture slot. Call
/// [`TraceCapture::finish`] after the root span guard has dropped to take
/// the finished [`QueryTrace`]. Captures nest: an inner capture takes the
/// inner root, the outer capture state is restored when the guard goes.
pub fn begin_trace() -> TraceCapture {
    let prev = CAPTURING.with(|c| c.replace(true));
    let stale = CAPTURED.with(|c| c.borrow_mut().take());
    drop(stale);
    TraceCapture { prev }
}

/// Guard for one armed request-trace window; see [`begin_trace`].
#[must_use = "a capture that is dropped immediately records nothing"]
#[derive(Debug)]
pub struct TraceCapture {
    prev: bool,
}

impl TraceCapture {
    /// Takes the root span captured since [`begin_trace`], if one finished.
    /// Consumes the guard (disarming the thread if the capture was the
    /// outermost one).
    pub fn finish(self) -> Option<QueryTrace> {
        CAPTURED.with(|c| c.borrow_mut().take())
        // `self` drops here, restoring the previous arming state.
    }
}

impl Drop for TraceCapture {
    fn drop(&mut self) {
        CAPTURING.with(|c| c.set(self.prev));
    }
}

/// Runs `query` inside one capture and returns what it returns with its
/// trace: the root span `query` opened, so `name` is the structure's own.
/// A query that opened no span read nothing and gets an empty trace.
pub fn traced<T>(query: impl FnOnce() -> T) -> (T, QueryTrace) {
    let capture = begin_trace();
    let out = query();
    let trace = capture.finish();
    (out, trace.unwrap_or_else(|| trace_of(SpanNode::default(), 0, [0; ReadClass::COUNT])))
}

/// Reports one page-store event to the tracing layer. Called by the
/// `pc-pagestore` observer hook; purely observational (never alters store
/// behavior or its own `IoStats`).
#[inline]
pub fn record_io(ev: IoEvent) {
    if !tracing_live() {
        return;
    }
    TRACER.with(|t| t.borrow_mut().io[ev.index()] += 1);
}

/// Names the class of one page read, at the place the structure makes it.
/// Purely observational, and a no-op outside a capture, like [`record_io`].
#[inline]
pub fn record_read(class: ReadClass) {
    if tracing_live() {
        TRACER.with(|t| t.borrow_mut().reads[class as usize] += 1);
    }
}

/// Adds `n` to the innermost open span's output-item count. No-op when no
/// span is open.
#[inline]
pub fn add_items(n: u64) {
    if n == 0 || !tracing_live() {
        return;
    }
    TRACER.with(|t| {
        if let Some(f) = t.borrow_mut().stack.last_mut() {
            f.items += n;
        }
    });
}

/// Sets the output block capacity `B` on the innermost open span. Spans
/// without their own setting inherit from the nearest enclosing span, so
/// nested structures (e.g. a mini segment tree inside an interval tree)
/// keep independent capacities. Defaults to 1.
#[inline]
pub fn set_block_capacity(b: u64) {
    if !tracing_live() {
        return;
    }
    TRACER.with(|t| {
        if let Some(f) = t.borrow_mut().stack.last_mut() {
            f.block_capacity = Some(b);
        }
    });
}

/// RAII guard for one tracing span; see the [`span!`](crate::span) macro.
#[must_use = "a span records nothing unless the guard is held"]
#[derive(Debug)]
pub struct Span {
    /// False when the span was opened on an unarmed thread (no capture):
    /// enter pushed nothing and drop pops nothing.
    live: bool,
}

impl Span {
    /// Opens a span. Prefer the [`span!`](crate::span) macro.
    #[inline]
    pub fn enter(name: &'static str, kind: SpanKind, arg: u64) -> Span {
        if !tracing_live() {
            return Span { live: false };
        }
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let root = t.stack.is_empty().then(|| (Instant::now(), t.reads));
            let start = t.io;
            t.stack.push(Frame {
                name,
                arg,
                kind,
                start,
                child_reads: 0,
                items: 0,
                block_capacity: None,
                children: Vec::new(),
                root,
            });
        });
        Span { live: true }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let finished = TRACER.with(|t| {
            let mut tr = t.borrow_mut();
            let frame = tr.stack.pop()?;
            let io = IoDelta::from_counts(&tr.io, &frame.start);
            let block_capacity = frame
                .block_capacity
                .or_else(|| tr.stack.iter().rev().find_map(|f| f.block_capacity))
                .unwrap_or(1);
            let node = SpanNode {
                name: frame.name,
                arg: frame.arg,
                kind: frame.kind,
                io,
                self_reads: io.reads.saturating_sub(frame.child_reads),
                items: frame.items,
                block_capacity,
                children: frame.children,
            };
            match tr.stack.last_mut() {
                Some(parent) => {
                    parent.child_reads += io.reads;
                    parent.children.push(node);
                    None
                }
                None => {
                    let (t0, reads) = frame.root.expect("a root frame records its start");
                    let by_class = std::array::from_fn(|i| tr.reads[i] - reads[i]);
                    Some((node, t0.elapsed().as_nanos() as u64, by_class))
                }
            }
        });
        if let Some((root, latency_ns, by_class)) = finished {
            finalize(trace_of(root, latency_ns, by_class));
        }
    }
}

/// Delivers a finished root span to the open capture slot. A root that
/// outlives its capture (the guard was opened inside one and dropped after
/// it) has nobody waiting for it and is dropped.
fn finalize(trace: QueryTrace) {
    if CAPTURING.with(Cell::get) {
        CAPTURED.with(|c| *c.borrow_mut() = Some(trace));
    }
}

fn trace_of(root: SpanNode, latency_ns: u64, by_class: [u64; ReadClass::COUNT]) -> QueryTrace {
    QueryTrace {
        name: root.name,
        latency_ns,
        total_io: root.io.total_io(),
        search_ios: root.search_ios(),
        wasteful_ios: root.wasteful_ios(),
        items: root.output_items(),
        reads_by_class: by_class,
        root,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulates the page-store hook: n reads.
    fn reads(n: u64) {
        for _ in 0..n {
            record_io(IoEvent::Read);
        }
    }

    #[test]
    fn begin_trace_captures_the_root_span_tree() {
        let cap = begin_trace();
        {
            let _root = crate::span!("query", 42u64);
            set_block_capacity(4);
            reads(2);
            {
                let _lvl = crate::span!("level", 1u64);
                reads(1);
            }
            {
                let _probe = crate::span!(output: "path_cache_probe");
                reads(3);
                add_items(9); // 2 full blocks at B=4 + tail → 1 wasteful
            }
        }
        let t = cap.finish().expect("root span finished inside the capture");
        assert_eq!(t.name, "query");
        assert_eq!(t.total_io, 6);
        assert_eq!(t.search_ios, 3);
        assert_eq!(t.wasteful_ios, 1);
        assert_eq!(t.items, 9);
        assert_eq!(t.root.arg, 42);
        assert_eq!(t.root.children.len(), 2);
        let probe = &t.root.children[1];
        assert_eq!(probe.name, "path_cache_probe");
        assert_eq!(probe.self_reads, 3);
        assert_eq!(probe.block_capacity, 4, "capacity inherited from root");
        assert_eq!(probe.wasteful(), 1);
    }

    /// `n` reads of `class`, each named and reported as the store would.
    fn class_reads(class: ReadClass, n: u64) {
        for _ in 0..n {
            record_read(class);
            record_io(IoEvent::Read);
        }
    }

    #[test]
    fn reads_by_class_sum_to_the_captures_reads_through_nested_spans() {
        let ((), t) = traced(|| {
            let _root = crate::span!("query");
            class_reads(ReadClass::Skeletal, 2);
            {
                let _lvl = crate::span!("level", 1u64);
                class_reads(ReadClass::Directory, 1);
                let _scan = crate::span!(output: "list_scan");
                class_reads(ReadClass::Node, 3);
            }
            class_reads(ReadClass::Cache, 4);
        });
        assert_eq!(t.name, "query");
        assert_eq!(t.reads_by_class, [2, 1, 4, 3]);
        assert_eq!(t.reads_by_class.iter().sum::<u64>(), t.total_io);
        // The next capture starts from zero, and a query that opened no
        // span has an empty trace.
        let ((), t) = traced(|| {
            let _root = crate::span!("again");
            class_reads(ReadClass::Node, 1);
        });
        assert_eq!((t.reads_by_class, t.total_io), ([0, 0, 0, 1], 1));
        let ((), t) = traced(|| class_reads(ReadClass::Skeletal, 1));
        assert_eq!((t.name, t.reads_by_class, t.total_io), ("", [0; ReadClass::COUNT], 0));
    }

    #[test]
    fn capture_without_a_root_span_yields_none() {
        let cap = begin_trace();
        reads(1); // I/O outside any span is not a trace
        assert!(cap.finish().is_none());
    }

    #[test]
    fn captures_nest_and_restore_outer_state() {
        let outer = begin_trace();
        {
            let inner = begin_trace();
            {
                let _s = crate::span!("inner_op");
                reads(1);
            }
            let t = inner.finish().expect("inner capture sees inner root");
            assert_eq!(t.name, "inner_op");
        }
        // The outer capture is armed again; its own root is still capturable.
        {
            let _s = crate::span!("outer_op");
            reads(2);
        }
        let t = outer.finish().expect("outer capture sees outer root");
        assert_eq!(t.name, "outer_op");
        assert_eq!(t.total_io, 2);
    }

    #[test]
    fn consecutive_captures_do_not_leak_between_requests() {
        let cap = begin_trace();
        {
            let _s = crate::span!("first");
            reads(1);
        }
        assert_eq!(cap.finish().unwrap().name, "first");
        // A new capture must not see the previous request's tree.
        let cap = begin_trace();
        assert!(cap.finish().is_none());
    }

    #[test]
    fn spans_are_inert_outside_a_capture_without_obs() {
        // No capture open: the guard is dead weight and nothing is stacked.
        {
            let _s = crate::span!("ghost");
            reads(5);
            add_items(3);
            set_block_capacity(7);
        }
        let cap = begin_trace();
        assert!(cap.finish().is_none(), "nothing was captured retroactively");
    }
}
