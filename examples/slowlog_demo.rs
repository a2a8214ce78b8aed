//! Slow-query log demo: catch the paper's Figure-3 pathology through a
//! live server.
//!
//! Run with: `cargo run --release --example slowlog_demo`
//!
//! Serves the *same* point set behind two targets — a path-cached dynamic
//! PST and the naive binary blocking of §2/Figure 3 — drives identical
//! traffic at both with 1-in-16 trace sampling retuned over the wire,
//! then forces one traced corner query at the naive target with
//! `FLAG_TRACE`. Every naive query walks its binary root-to-corner path
//! reading each node's own underfull block — `O(log n)` wasteful
//! transfers where the cached structure pays `O(1)` per path segment —
//! so when the ADMIN `SlowLog` op drains the top-K ring, the waste
//! ranking is owned by `@naive` entries whose span trees show the
//! per-node `node_block` reads, each one wasteful, while `@cached`
//! entries for the same ops carry a fraction of the waste. The
//! per-target `pc_target_*` metric families tell the same story in
//! aggregate, no per-request digging required.

use std::sync::Arc;
use std::time::Duration;

use pc_serve::wire::{Body, Op};
use pc_serve::{
    Client, DynamicPstTarget, NaivePstTarget, Registry, Server, ServerConfig, Service, SlowEntry,
    FLAG_TRACE, RANKED_BY_LATENCY, RANKED_BY_WASTE,
};
use path_caching::{PageStore, Point};

/// Problem size, overridable via `PC_EXAMPLE_N` so the workspace smoke
/// test (`tests/examples_smoke.rs`) can exercise this example quickly.
fn scaled(default_n: usize) -> usize {
    std::env::var("PC_EXAMPLE_N").ok().and_then(|v| v.parse().ok()).unwrap_or(default_n)
}

fn render_entry(e: &SlowEntry) {
    let rank = match e.rankings {
        r if r == RANKED_BY_LATENCY | RANKED_BY_WASTE => "latency+waste",
        RANKED_BY_WASTE => "waste",
        _ => "latency",
    };
    println!(
        "  request {} {}@{}: {}us, io={} (search={}, wasteful={}), items={} [{}]",
        e.request_id,
        e.op,
        e.target,
        e.latency_ns / 1_000,
        e.total_io,
        e.search_ios,
        e.wasteful_ios,
        e.items,
        rank,
    );
}

pub fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Small pages make the pathology visible at example scale: few points
    // fit a block, so underfull node-block reads dominate the naive walk.
    let n = scaled(20_000) as i64;
    let store = Arc::new(PageStore::in_memory(512));
    let points: Vec<Point> =
        (0..n).map(|i| Point::new(i, (i * 37) % n, i as u64)).collect();

    let mut registry = Registry::new();
    let cached = registry
        .register("cached", Box::new(DynamicPstTarget::new(pc_pst::DynamicPst::build(&store, &points)?)));
    let naive =
        registry.register("naive", Box::new(NaivePstTarget(pc_pst::NaivePst::build(&store, &points)?)));

    let handle = Server::spawn(Service { store, registry }, ServerConfig::default())?;
    println!("serving {n} points on {} (targets: cached, naive)", handle.addr());

    let mut client = Client::connect(handle.addr(), Duration::from_secs(10))?;

    // Retune the sampler over the wire: trace 1 in 16 requests from here
    // on. Unsampled requests keep a zero-allocation fast path.
    client.set_sampling(16)?;

    // Background traffic: selective two-sided queries against both
    // targets (x0 hugs the top of the x range, so each returns a handful
    // of points cheaply).
    let ops = scaled(20_000).min(400) as i64;
    for i in 0..ops {
        let q = Op::TwoSided { x0: n - 1 - (i % 64), y0: (i * 31) % n };
        client.call(cached, 0, q.clone())?;
        client.call(naive, 0, q)?;
    }

    // The Figure-3 pathology, forced into the trace path with FLAG_TRACE:
    // a corner query whose root-to-corner path is the full binary height.
    let pathological = Op::TwoSided { x0: n - 1, y0: 0 };
    client.call_flags(naive, 0, FLAG_TRACE, pathological)?;

    // Drain the slow-query log. The pathological query tops it.
    let entries = match client.slow_log(8, false)?.body {
        Body::SlowLog(entries) => entries,
        other => return Err(format!("unexpected response: {other:?}").into()),
    };
    println!("\n=== slow-query log (top {} of the retained ring) ===", entries.len());
    for e in &entries {
        render_entry(e);
    }

    let top = entries.first().ok_or("slow log is empty")?;
    println!(
        "\ntop entry span tree ({} spans; wasteful = self_reads - floor(items/B) on output spans):",
        top.spans.len()
    );
    for s in top.spans.iter().take(12) {
        println!(
            "{:indent$}{} [{}] reads={} items={} wasteful={}",
            "",
            s.name,
            if s.output { "out" } else { "nav" },
            s.self_reads,
            s.items,
            s.wasteful,
            indent = 2 + 2 * s.depth as usize,
        );
    }
    if top.spans.len() > 12 {
        println!("  … {} more spans", top.spans.len() - 12);
    }

    // The aggregate view of the same story: the naive target's family
    // carries the waste, the cached target's does not.
    match client.metrics()?.body {
        Body::Metrics(text) => {
            println!("\n=== per-target families (excerpt) ===");
            for line in text.lines().filter(|l| {
                l.starts_with("pc_target_traced_wasteful_io_total")
                    || l.starts_with("pc_target_requests_total")
            }) {
                println!("{line}");
            }
        }
        other => return Err(format!("unexpected response: {other:?}").into()),
    }

    client.shutdown_server()?;
    handle.join();
    Ok(())
}
