//! The one exposition path: typed [`Sample`]s in, the ADMIN `Stats` pairs
//! or the Prometheus `Metrics` text out.
//!
//! Every source of always-on metrics (`ServeStats`, `TargetStatsSet`, the
//! store, the version manager, the router) pushes its families onto one
//! list, each family named once; [`stat_pairs`] and [`render_text`] are two
//! views of that list, so the structured and the text form cannot carry
//! different names, and a histogram is snapshotted once per scrape however
//! many quantiles are read from it.

use std::fmt::Write;

use crate::HistogramSnapshot;

/// What a histogram contributes to the `Stats` pairs, which carry `u64`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Summary {
    /// The median ([`HistogramSnapshot::quantile`] at 0.50).
    P50,
    /// The 99th percentile.
    P99,
    /// The number of observations.
    Count,
}

/// The typed value of one [`Sample`].
#[derive(Debug, Clone)]
pub enum Value {
    /// A monotonic total.
    Counter(u64),
    /// A level that can go down.
    Gauge(u64),
    /// A distribution: rendered whole in the text form, and as the named
    /// `(stat name, summary)` pairs in the `Stats` form (the names are
    /// spelled out because the wire contract's are irregular —
    /// `pc_serve_query_p50_ns` summarises `pc_serve_query_latency_ns`).
    Histogram(HistogramSnapshot, &'static [(&'static str, Summary)]),
}

/// One sample of one metric family, with at most one label.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The family name (`pc_serve_requests_total`).
    pub family: &'static str,
    /// `(key, value)` of the sample's label (`("target", "pst/main")`).
    pub label: Option<(&'static str, String)>,
    /// The typed value.
    pub value: Value,
}

impl Sample {
    /// An unlabelled counter sample.
    pub fn counter(family: &'static str, v: u64) -> Sample {
        Sample { family, label: None, value: Value::Counter(v) }
    }

    /// An unlabelled gauge sample.
    pub fn gauge(family: &'static str, v: u64) -> Sample {
        Sample { family, label: None, value: Value::Gauge(v) }
    }

    /// An unlabelled histogram sample; `stats` names its `Stats` pairs.
    pub fn histogram(
        family: &'static str,
        snapshot: HistogramSnapshot,
        stats: &'static [(&'static str, Summary)],
    ) -> Sample {
        Sample { family, label: None, value: Value::Histogram(snapshot, stats) }
    }

    /// The same sample under `{key="value"}`.
    pub fn labelled(mut self, key: &'static str, value: impl Into<String>) -> Sample {
        self.label = Some((key, value.into()));
        self
    }

    /// `{key="value"}`, or nothing for an unlabelled sample.
    fn braces(&self) -> String {
        match &self.label {
            Some((k, v)) => format!("{{{k}=\"{v}\"}}"),
            None => String::new(),
        }
    }
}

/// The structured form: `(name, value)` pairs for the ADMIN `Stats` body.
/// A labelled sample's name carries its label set exactly as the text form
/// writes it, so the two forms share keys.
pub fn stat_pairs(samples: &[Sample]) -> Vec<(String, u64)> {
    let mut out = Vec::with_capacity(samples.len());
    for s in samples {
        let braces = s.braces();
        match &s.value {
            Value::Counter(v) | Value::Gauge(v) => out.push((format!("{}{braces}", s.family), *v)),
            Value::Histogram(h, stats) => {
                for &(name, summary) in *stats {
                    let v = match summary {
                        Summary::P50 => h.quantile(0.50),
                        Summary::P99 => h.quantile(0.99),
                        Summary::Count => h.count,
                    };
                    out.push((format!("{name}{braces}"), v));
                }
            }
        }
    }
    out
}

/// The Prometheus text form. Consecutive samples of one family share one
/// `# TYPE` line, so a source pushes a labelled family's samples together.
pub fn render_text(samples: &[Sample]) -> String {
    let mut out = String::new();
    let mut typed = "";
    for s in samples {
        let family = s.family;
        if family != typed {
            let kind = match s.value {
                Value::Counter(_) => "counter",
                Value::Gauge(_) => "gauge",
                Value::Histogram(..) => "histogram",
            };
            let _ = writeln!(out, "# TYPE {family} {kind}");
            typed = family;
        }
        let braces = s.braces();
        match &s.value {
            Value::Counter(v) | Value::Gauge(v) => {
                let _ = writeln!(out, "{family}{braces} {v}");
            }
            Value::Histogram(h, _) => {
                let own =
                    s.label.as_ref().map(|(k, v)| format!("{k}=\"{v}\",")).unwrap_or_default();
                let mut cumulative = 0u64;
                for &(le, c) in &h.buckets {
                    cumulative += c;
                    let _ = writeln!(out, "{family}_bucket{{{own}le=\"{le}\"}} {cumulative}");
                }
                let _ = writeln!(out, "{family}_bucket{{{own}le=\"+Inf\"}} {}", h.count);
                let _ = writeln!(out, "{family}_sum{braces} {}", h.sum);
                let _ = writeln!(out, "{family}_count{braces} {}", h.count);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;

    fn samples() -> Vec<Sample> {
        let h = Histogram::default();
        h.record(3);
        h.record(100);
        const STATS: &[(&str, Summary)] = &[
            ("t_lat_p50", Summary::P50),
            ("t_lat_p99", Summary::P99),
            ("t_lat_count", Summary::Count),
        ];
        vec![
            Sample::counter("t_total", 7),
            Sample::gauge("t_depth", 2).labelled("target", "a"),
            Sample::gauge("t_depth", 5).labelled("target", "b"),
            Sample::histogram("t_lat", h.snapshot(), STATS),
            Sample::histogram("t_lat_by", h.snapshot(), &STATS[2..]).labelled("shard", "0"),
        ]
    }

    #[test]
    fn text_form_types_each_family_once_and_labels_every_line() {
        assert_eq!(
            render_text(&samples()),
            "# TYPE t_total counter\n\
             t_total 7\n\
             # TYPE t_depth gauge\n\
             t_depth{target=\"a\"} 2\n\
             t_depth{target=\"b\"} 5\n\
             # TYPE t_lat histogram\n\
             t_lat_bucket{le=\"3\"} 1\n\
             t_lat_bucket{le=\"127\"} 2\n\
             t_lat_bucket{le=\"+Inf\"} 2\n\
             t_lat_sum 103\n\
             t_lat_count 2\n\
             # TYPE t_lat_by histogram\n\
             t_lat_by_bucket{shard=\"0\",le=\"3\"} 1\n\
             t_lat_by_bucket{shard=\"0\",le=\"127\"} 2\n\
             t_lat_by_bucket{shard=\"0\",le=\"+Inf\"} 2\n\
             t_lat_by_sum{shard=\"0\"} 103\n\
             t_lat_by_count{shard=\"0\"} 2\n"
        );
    }

    #[test]
    fn stats_form_shares_keys_with_the_text_and_names_histogram_summaries() {
        let pairs: Vec<(String, u64)> = stat_pairs(&samples());
        let expect: Vec<(String, u64)> = [
            ("t_total", 7),
            ("t_depth{target=\"a\"}", 2),
            ("t_depth{target=\"b\"}", 5),
            ("t_lat_p50", 3),
            ("t_lat_p99", 127),
            ("t_lat_count", 2),
            ("t_lat_count{shard=\"0\"}", 2),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        assert_eq!(pairs, expect);
    }
}
