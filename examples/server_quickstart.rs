//! Server quickstart: spawn the `pc-serve` query service on an ephemeral
//! port, drive a mixed read/write workload over a real socket, and print
//! throughput, tail latency, and an excerpt of the ADMIN metrics.
//!
//! Run with: `cargo run --example server_quickstart`
//!
//! This is the service-layer counterpart of `examples/quickstart.rs`: the
//! same two-level structures, but behind the wire protocol with admission
//! control and update batching in the path.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pc_obs::Histogram;
use pc_serve::wire::{Body, Op};
use pc_serve::{Client, DynamicPstTarget, Registry, Server, ServerConfig, Service};
use path_caching::{PageStore, Point};

/// Problem size, overridable via `PC_EXAMPLE_N` so the workspace smoke
/// test (`tests/examples_smoke.rs`) can exercise this example quickly.
fn scaled(default_n: usize) -> usize {
    std::env::var("PC_EXAMPLE_N").ok().and_then(|v| v.parse().ok()).unwrap_or(default_n)
}

pub fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The served data: a dynamic PST over (salary, score) points, exactly
    // as in the quickstart, but now shared behind a server.
    let n: i64 = scaled(50_000) as i64;
    let store = Arc::new(PageStore::in_memory(4096));
    let points: Vec<Point> = (0..n)
        .map(|i| Point::new((i * 7919) % 1_000_000, (i * 104_729) % 1_000_000, i as u64))
        .collect();
    let mut registry = Registry::new();
    let pst = pc_pst::DynamicPst::build(&store, &points)?;
    let dyn_id = registry.register("employees", Box::new(DynamicPstTarget::new(pst)));

    // Ephemeral port: the OS picks, the handle reports.
    let handle = Server::spawn(Service { store, registry }, ServerConfig::default())?;
    println!("serving {} points on {}", n, handle.addr());

    // A mixed closed-loop workload on one connection: 85% 2-sided queries
    // sweeping the corner, 15% inserts. Latency lands in the same
    // power-of-two histogram the server uses internally.
    let mut client = Client::connect(handle.addr(), Duration::from_secs(10))?;
    let latency = Histogram::default();
    let ops = scaled(50_000).min(20_000);
    let mut results = 0u64;
    let t0 = Instant::now();
    for i in 0..ops as i64 {
        let op = if i % 7 == 0 {
            Op::Insert(Point::new((i * 31) % 1_000_000, (i * 37) % 1_000_000, (n + i) as u64))
        } else {
            let corner = 1_000_000 - 1_000 * (i % 100);
            Op::TwoSided { x0: corner, y0: corner }
        };
        let t = Instant::now();
        let resp = client.call(dyn_id, 0, op)?;
        latency.record(t.elapsed().as_nanos() as u64);
        match resp.body {
            Body::Points(ps) => results += ps.len() as u64,
            Body::Ack { .. } => {}
            other => return Err(format!("unexpected response: {other:?}").into()),
        }
    }
    let elapsed = t0.elapsed();
    let snap = latency.snapshot();
    println!(
        "{} ops in {:.2}s ({:.0} ops/s), {} points returned",
        ops,
        elapsed.as_secs_f64(),
        ops as f64 / elapsed.as_secs_f64().max(1e-9),
        results,
    );
    println!(
        "latency: p50 <= {}us, p99 <= {}us",
        snap.quantile(0.50) / 1_000,
        snap.quantile(0.99) / 1_000,
    );

    // The ADMIN metrics op returns the server's own view — batching shows
    // up here even though this client never saw it directly.
    match client.metrics()?.body {
        Body::Metrics(text) => {
            println!("\n=== ADMIN metrics (excerpt) ===");
            for line in text.lines().filter(|l| {
                l.starts_with("pc_serve_requests_total")
                    || l.starts_with("pc_serve_queries_ok_total")
                    || l.starts_with("pc_serve_updates_ok_total")
                    || l.starts_with("pc_serve_batches_total")
                    || l.starts_with("pc_serve_overloaded_total")
            }) {
                println!("{line}");
            }
        }
        other => return Err(format!("unexpected response: {other:?}").into()),
    }

    // Drain-then-shutdown over the wire, then join every server thread.
    client.shutdown_server()?;
    handle.join();
    println!("server drained and shut down");
    Ok(())
}
