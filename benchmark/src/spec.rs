//! What the benchmark measures: the four workloads and the metric
//! catalogue. `BENCHMARK.json`, `README.md`, `run` and `compare` all follow
//! this file; `tests/smoke.rs` checks that they agree.

/// Page size of every store the benchmark builds (B = 4096 / 24 = 170
/// point or interval records per page).
pub const PAGE_SIZE: usize = 4096;

/// Wire target ids, in registration order.
pub const T_DYN: u16 = 0;
pub const T_PST3: u16 = 1;
pub const T_ITREE: u16 = 2;
pub const T_BTREE: u16 = 3;

/// The writer of `mixed_durable` sends this many updates, then waits for
/// this many Acks: with two connections, bursts are what give group commit
/// and the batcher's coalescing more than one update to work on.
pub const WRITE_BURST: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointWarm,
    ScanWarm,
    PointCold,
    MixedDurable,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::PointWarm, Workload::ScanWarm, Workload::PointCold, Workload::MixedDurable];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointWarm => "point_warm",
            Workload::ScanWarm => "scan_warm",
            Workload::PointCold => "point_cold",
            Workload::MixedDurable => "mixed_durable",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists; also the `why` line of `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::PointWarm => {
                "small outputs (t~16), pool holds every page: wire, queue hop, wake-ups and socket syscalls do most of the work"
            }
            Workload::ScanWarm => {
                "large outputs (t~4096), same warm pool: page decode, result assembly and response encode/copy dominate"
            }
            Workload::PointCold => {
                "point_warm's data and ops with a pool of 1/16 of the pages: eviction, pread and frame checksums do the work"
            }
            Workload::MixedDurable => {
                "WAL-backed store: a burst writer beside a snapshot reader, so a write-path gain paid for by readers shows"
            }
        }
    }

    /// Output size each query generator is calibrated to.
    pub fn target_t(self) -> usize {
        match self {
            Workload::ScanWarm => 4096,
            _ => 16,
        }
    }

    /// Share of `(two_sided, three_sided, stab, range1d)` queries, in
    /// percent.
    pub fn mix(self) -> [usize; 4] {
        match self {
            Workload::PointWarm | Workload::PointCold => [40, 30, 20, 10],
            Workload::ScanWarm => [50, 30, 0, 20],
            Workload::MixedDurable => [100, 0, 0, 0],
        }
    }

    pub fn has_updates(self) -> bool {
        self == Workload::MixedDurable
    }
}

/// Problem sizes. One size per mode: `full` is what every recorded result
/// uses, `smoke` exists so `cargo test` can run the whole pipeline.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Points in `dyn` and `pst3`; also keys in `btree`.
    pub points: usize,
    /// Intervals in `itree`.
    pub intervals: usize,
    /// Queries (and updates) replayed in-process by the counted and traced
    /// passes; the timed pass cycles through the same queries.
    pub prefix: usize,
    /// Live stream points the `mixed_durable` writer keeps (sliding window).
    pub window: usize,
    /// Inserts in the writer's stream (about twice as many updates).
    pub stream_steps: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        points: 500_000,
        intervals: 125_000,
        prefix: 20_000,
        window: 4_096,
        stream_steps: 400_000,
    };
    pub const SMOKE: Sizes =
        Sizes { points: 20_000, intervals: 5_000, prefix: 500, window: 256, stream_steps: 40_000 };

    /// Pool capacity in pages. The four structures take ~0.26 pages per
    /// point. Warm: twice that, so no shard of the pool overflows. Cold: a
    /// sixteenth of it.
    pub fn pool_pages(&self, w: Workload) -> usize {
        match w {
            Workload::PointWarm | Workload::ScanWarm => self.points / 2 + 64,
            Workload::PointCold => self.points * 26 / 100 / 16,
            Workload::MixedDurable => 0, // durable stores are strict
        }
    }

    /// Ops each in-process pass replays. A durable update costs ~20x a
    /// warm point query (a dozen logged page images and a share of an
    /// fsync) and a scan ~15x, so those workloads replay a quarter as many.
    pub fn prefix_for(&self, w: Workload) -> usize {
        match w {
            Workload::PointWarm | Workload::PointCold => self.prefix,
            Workload::ScanWarm | Workload::MixedDurable => self.prefix / 4,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One end-to-end metric: what a client of the served system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share by which `compare` lets the metric worsen between two runs of
    /// the same seed.
    pub bound: f64,
    /// Counted, not timed: repeats exactly for one commit and seed.
    pub exact: bool,
    /// Listed under `end_to_end` in `BENCHMARK.json`, where the driver
    /// gates it; the others travel under `per_layer` there. The driver
    /// needs a metric that is never zero on any workload and whose ten-run
    /// spread stays within a quarter on this host, which rules out the
    /// update metrics (`n/a` on the read workloads) and every request
    /// timing (see README, "Noise").
    pub gated: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
    gated: bool,
) -> EndToEnd {
    EndToEnd { name, unit, better, bound, exact, gated }
}

pub const END_TO_END: [EndToEnd; 13] = [
    e2e("setup_s", "s", Better::Lower, 0.15, false, true),
    e2e("throughput_ops_s", "1/s", Better::Higher, 0.10, false, false),
    e2e("query_p50_us", "us", Better::Lower, 0.10, false, false),
    e2e("query_p99_us", "us", Better::Lower, 0.15, false, false),
    e2e("update_p50_us", "us", Better::Lower, 0.10, false, false),
    e2e("update_p99_us", "us", Better::Lower, 0.15, false, false),
    e2e("updates_per_s", "1/s", Better::Higher, 0.10, false, false),
    e2e("fail_ratio", "ratio", Better::Lower, 0.0, false, false),
    e2e("page_reads_per_query", "pages", Better::Lower, 0.005, true, true),
    e2e("page_writes_per_update", "pages", Better::Lower, 0.005, true, false),
    e2e("write_amp", "ratio", Better::Lower, 0.005, true, false),
    e2e("space_amp", "ratio", Better::Lower, 0.005, true, true),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10, false, true),
];

/// One per-layer metric: name, unit, which way is better.
pub type Layer = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

pub const PER_LAYER: [Layer; 61] = [
    ("serve.wire.decode_req_ns", "ns", Lower),
    ("serve.wire.encode_resp_ns", "ns", Lower),
    ("serve.wire.decode_resp_ns", "ns", Lower),
    ("serve.wire.resp_bytes", "bytes", Lower),
    ("serve.queue.hop_ns", "ns", Lower),
    ("serve.server.ping_rtt_us", "us", Lower),
    ("serve.server.residual_us", "us", Lower),
    ("serve.server.coalesce_mean", "count", Higher),
    ("serve.server.batches_per_s", "1/s", Higher),
    ("serve.server.overloaded", "count", Lower),
    ("pagestore.version.pin_ns", "ns", Lower),
    ("pagestore.version.install_us", "us", Lower),
    ("pagestore.version.cow_pages_per_batch", "pages", Lower),
    ("pagestore.version.reclaimed_pages", "pages", Higher),
    ("pagestore.version.retained", "count", Lower),
    ("pst.two_sided_us", "us", Lower),
    ("pst.three_sided_us", "us", Lower),
    ("intervaltree.stab_us", "us", Lower),
    ("btree.range_us", "us", Lower),
    ("pst.two_sided_reads", "pages", Lower),
    ("pst.two_sided_io_bound_ratio", "ratio", Lower),
    ("pst.two_sided_wasteful", "pages", Lower),
    ("pst.three_sided_reads", "pages", Lower),
    ("pst.three_sided_io_bound_ratio", "ratio", Lower),
    ("pst.three_sided_wasteful", "pages", Lower),
    ("intervaltree.stab_reads", "pages", Lower),
    ("intervaltree.stab_io_bound_ratio", "ratio", Lower),
    ("intervaltree.stab_wasteful", "pages", Lower),
    ("btree.range_reads", "pages", Lower),
    ("btree.range_io_bound_ratio", "ratio", Lower),
    ("btree.range_wasteful", "pages", Lower),
    ("pst.apply_us_per_update", "us", Lower),
    ("pst.apply_reads_per_update", "pages", Lower),
    ("pst.apply_writes_per_update", "pages", Lower),
    ("benchmark.trace_overhead_pct", "%", Lower),
    ("pst.build_s", "s", Lower),
    ("intervaltree.build_s", "s", Lower),
    ("btree.build_s", "s", Lower),
    ("pst.dyn_pages", "pages", Lower),
    ("pst.three_sided_pages", "pages", Lower),
    ("intervaltree.pages", "pages", Lower),
    ("btree.pages", "pages", Lower),
    ("pagestore.store.read_hit_ns", "ns", Lower),
    ("pagestore.store.read_miss_ns", "ns", Lower),
    ("pagestore.pool.hit_ratio", "ratio", Higher),
    ("pagestore.pool.misses_per_query", "pages", Lower),
    ("pagestore.pool.evictions_per_query", "pages", Lower),
    ("pagestore.backend.read_ns", "ns", Lower),
    ("pagestore.backend.reads_per_query", "pages", Lower),
    ("pagestore.backend.busy_share", "ratio", Lower),
    ("pagestore.backend.write_ns", "ns", Lower),
    ("pagestore.backend.writes_per_update", "pages", Lower),
    ("pagestore.backend.syncs", "count", Lower),
    ("pagestore.wal.append_ns", "ns", Lower),
    ("pagestore.wal.bytes_per_update", "bytes", Lower),
    ("pagestore.wal.fsync_us", "us", Lower),
    ("pagestore.wal.fsyncs_per_update", "count", Lower),
    ("pagestore.wal.group_size_mean", "count", Higher),
    ("pagestore.wal.checkpoints", "count", Lower),
    ("pagestore.wal.checkpoint_ms", "ms", Lower),
    ("pagestore.wal.dirty_hits_per_query", "pages", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for w in Workload::ALL {
            assert_eq!(w.mix().iter().sum::<usize>(), 100);
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200);
        }
    }
}
