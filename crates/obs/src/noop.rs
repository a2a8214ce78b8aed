//! Inert stand-ins for the *registry and flight-recorder* API, compiled
//! when the `obs` feature is off.
//!
//! The span/tracing layer is always compiled (see `trace.rs`) so sampled
//! request tracing works in release builds; only the process-global
//! metrics registry and the flight recorder vanish. Every function here is
//! `#[inline(always)]` with an empty body and every type is a zero-sized
//! struct without `Drop`, so instrumented call sites disappear entirely
//! under optimization.

use crate::{QueryTrace, Snapshot};

/// Inert counter (see the `obs`-enabled `Counter` for semantics).
#[derive(Debug, Default)]
pub struct Counter(());

impl Counter {
    /// No-op.
    #[inline(always)]
    pub fn add(&self, _n: u64) {}

    /// No-op.
    #[inline(always)]
    pub fn inc(&self) {}

    /// Always 0.
    #[inline(always)]
    pub fn get(&self) -> u64 {
        0
    }
}

/// Inert histogram (see the `obs`-enabled `Histogram` for semantics).
#[derive(Debug, Default)]
pub struct Histogram(());

impl Histogram {
    /// No-op.
    #[inline(always)]
    pub fn record(&self, _v: u64) {}
}

static NOOP_COUNTER: Counter = Counter(());
static NOOP_HISTOGRAM: Histogram = Histogram(());

/// Inert: returns a shared no-op counter.
#[inline(always)]
pub fn counter(_name: &'static str) -> &'static Counter {
    &NOOP_COUNTER
}

/// Inert: returns a shared no-op histogram.
#[inline(always)]
pub fn histogram(_name: &'static str) -> &'static Histogram {
    &NOOP_HISTOGRAM
}

/// Inert: a one-line notice instead of an exposition.
pub fn render_text() -> String {
    "# pc-obs disabled: rebuild with `--features obs` for metrics\n".to_string()
}

/// Inert: an empty snapshot (every counter reads 0).
pub fn snapshot() -> Snapshot {
    Snapshot::default()
}

/// Inert: no traces are ever recorded globally. (Sampled request traces
/// still flow through `begin_trace` captures — those are always compiled.)
pub fn flight_top(_k: usize) -> Vec<QueryTrace> {
    Vec::new()
}

/// No-op.
#[inline(always)]
pub fn flight_clear() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_api_is_inert() {
        let c = counter("anything");
        c.add(5);
        c.inc();
        assert_eq!(c.get(), 0);
        histogram("anything").record(7);
        assert!(snapshot().counters.is_empty());
        assert!(flight_top(3).is_empty());
        flight_clear();
        assert!(render_text().contains("disabled"));
    }
}
