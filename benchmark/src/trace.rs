//! Spans recorded from outside the program: the benchmark wraps its calls
//! into each layer's public functions, and wraps the two I/O traits
//! ([`Backend`], [`LogMedium`]) so device calls made deep inside a layer
//! appear as children of the span that caused them.
//!
//! The tracer is thread-local. Only the in-process replay thread ever
//! installs one, so during the timed pass (server threads) every wrapper
//! is a straight forward: tracing is off where end-to-end numbers are
//! taken. Spans stay in memory until the pass ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use pc_pagestore::backend::{Backend, ResilienceStats, ScrubReport};
use pc_pagestore::{LogMedium, PageId, Result};

use crate::stats::Samples;

/// Parent index of a root span.
const NO_PARENT: u32 = u32::MAX;

/// One span: a named interval, the span that caused it, and the request
/// it belongs to.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    /// Indices of the open spans, innermost last.
    open: Vec<u32>,
    request: u64,
    /// While set, spans are not recorded (see [`set_muted`]).
    muted: bool,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread, with room for `capacity` spans
/// already faulted in: a first touch of fresh memory costs microseconds
/// here, which would otherwise land in whichever span crosses a page.
pub fn start(capacity: usize) {
    let blank = Span { name: "", request: 0, parent: NO_PARENT, start_ns: 0, end_ns: 0 };
    let mut spans = vec![blank; capacity];
    spans.clear();
    TRACER.with(|t| {
        *t.borrow_mut() =
            Some(Tracer { t0: Instant::now(), spans, open: Vec::new(), request: 0, muted: false })
    });
}

/// Stops (or resumes) recording without uninstalling the tracer, so one
/// replay can run alternate stretches traced and untraced. Call it only
/// between root spans.
pub fn set_muted(muted: bool) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.muted = muted;
        }
    });
}

/// Stops recording and returns everything recorded since [`start`].
pub fn finish() -> Vec<Span> {
    TRACER.with(|t| t.borrow_mut().take()).map(|t| t.spans).unwrap_or_default()
}

/// Sets the request id stamped on spans opened from now on.
pub fn set_request(id: u64) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.request = id;
        }
    });
}

/// Closes its span when dropped. Inert when the thread has no tracer.
pub struct SpanGuard(Option<u32>);

/// Opens a span as a child of the innermost open span.
pub fn span(name: &'static str) -> SpanGuard {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let Some(t) = t.as_mut().filter(|t| !t.muted) else { return SpanGuard(None) };
        let index = t.spans.len() as u32;
        let parent = t.open.last().copied().unwrap_or(NO_PARENT);
        t.open.push(index);
        let start_ns = t.t0.elapsed().as_nanos() as u64;
        t.spans.push(Span { name, request: t.request, parent, start_ns, end_ns: start_ns });
        SpanGuard(Some(index))
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(index) = self.0 else { return };
        TRACER.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                t.spans[index as usize].end_ns = t.t0.elapsed().as_nanos() as u64;
                let top = t.open.pop();
                debug_assert_eq!(top, Some(index), "spans close innermost first");
            }
        });
    }
}

/// Per-layer totals of a finished trace. Self time is a span's duration
/// minus the part its children cover.
pub struct LayerTimes {
    /// Layer name -> self times, one sample per span.
    pub self_ns: BTreeMap<&'static str, Samples>,
    /// Layer name -> whole-span durations.
    pub total_ns: BTreeMap<&'static str, Samples>,
}

pub fn layer_times(spans: &[Span]) -> LayerTimes {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut self_ns: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut total_ns: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (s, &children) in spans.iter().zip(&child_ns) {
        let dur = s.end_ns - s.start_ns;
        self_ns.entry(s.name).or_default().push(dur.saturating_sub(children));
        total_ns.entry(s.name).or_default().push(dur);
    }
    let sorted = |m: BTreeMap<&'static str, Vec<u64>>| {
        m.into_iter().map(|(k, v)| (k, Samples::new(v))).collect()
    };
    LayerTimes { self_ns: sorted(self_ns), total_ns: sorted(total_ns) }
}

/// Writes one JSON object per span: `id` is the line's index, `parent` an
/// earlier line's `id` or `null`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT { "null".to_string() } else { s.parent.to_string() };
        writeln!(
            out,
            "{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// A [`Backend`] whose calls appear as spans of the calling thread.
pub struct TimedBackend<B>(pub B);

impl<B: Backend> Backend for TimedBackend<B> {
    fn frame_size(&self) -> usize {
        self.0.frame_size()
    }

    fn read_frame(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        let _s = span("pagestore.backend.read");
        self.0.read_frame(id, buf)
    }

    fn write_frame(&self, id: PageId, buf: &[u8]) -> Result<()> {
        let _s = span("pagestore.backend.write");
        self.0.write_frame(id, buf)
    }

    fn sync(&self) -> Result<()> {
        let _s = span("pagestore.backend.sync");
        self.0.sync()
    }

    fn frame_count(&self) -> u64 {
        self.0.frame_count()
    }

    fn resilience_stats(&self) -> ResilienceStats {
        self.0.resilience_stats()
    }

    fn reset_resilience_stats(&self) {
        self.0.reset_resilience_stats()
    }

    fn scrub(&self) -> Result<ScrubReport> {
        self.0.scrub()
    }
}

/// A [`LogMedium`] whose calls appear as spans of the calling thread.
/// It also totals the bytes handed to the medium: the WAL's own stats
/// carry only the log's current length, which every checkpoint resets.
pub struct TimedLog<L> {
    pub inner: L,
    pub bytes: Arc<AtomicU64>,
}

impl<L: LogMedium> LogMedium for TimedLog<L> {
    fn read_all(&self) -> Result<Vec<u8>> {
        self.inner.read_all()
    }

    fn append(&self, buf: &[u8]) -> Result<()> {
        let _s = span("pagestore.wal.append");
        self.bytes.fetch_add(buf.len() as u64, Relaxed);
        self.inner.append(buf)
    }

    fn sync(&self) -> Result<()> {
        let _s = span("pagestore.wal.fsync");
        self.inner.sync()
    }

    fn len(&self) -> Result<u64> {
        self.inner.len()
    }

    // A reset is the last step of a checkpoint: the log is swapped for a
    // fresh one after the dirty table reached the data file.
    fn reset(&self, contents: &[u8]) -> Result<()> {
        let _s = span("pagestore.wal.reset");
        self.bytes.fetch_add(contents.len() as u64, Relaxed);
        self.inner.reset(contents)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            Span { name: "root", request: 1, parent: NO_PARENT, start_ns: 0, end_ns: 100 },
            Span { name: "child", request: 1, parent: 0, start_ns: 10, end_ns: 40 },
            Span { name: "leaf", request: 1, parent: 1, start_ns: 20, end_ns: 25 },
            Span { name: "child", request: 1, parent: 0, start_ns: 50, end_ns: 70 },
        ];
        let t = layer_times(&spans);
        assert_eq!(t.self_ns["root"].percentile(1.0), Some(50));
        assert_eq!(t.self_ns["child"].percentile(1.0), Some(25));
        assert_eq!(t.self_ns["child"].percentile(0.5), Some(20));
        assert_eq!(t.total_ns["child"].percentile(1.0), Some(30));
        assert_eq!(t.self_ns["leaf"].len(), 1);
    }

    #[test]
    fn spans_nest_and_are_inert_without_a_tracer() {
        drop(span("ignored"));
        assert!(finish().is_empty());
        start(8);
        set_request(7);
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        set_muted(true);
        drop(span("muted"));
        set_muted(false);
        let spans = finish();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", NO_PARENT));
        assert_eq!((spans[1].name, spans[1].parent, spans[1].request), ("inner", 0, 7));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
