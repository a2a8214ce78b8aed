//! Quickstart: build a path-cached point index and run 2-sided queries,
//! watching the I/O counters that the paper's bounds are stated in.
//!
//! Run with: `cargo run --example quickstart`
//!
//! It ends by asking *why* the deepest corner query cost what it did: the
//! query runs inside a `pc_obs::traced` capture, which prints its reads by
//! class and its span tree — every read attributed to a level, a cache
//! probe or a list scan, with §3's wasteful transfers counted per span.

use path_caching::{PageStore, Point, PointIndex, TwoSided, Variant};

/// Problem size, overridable via `PC_EXAMPLE_N` so the workspace smoke
/// test (`tests/examples_smoke.rs`) can exercise this example quickly.
fn scaled(default_n: usize) -> usize {
    std::env::var("PC_EXAMPLE_N").ok().and_then(|v| v.parse().ok()).unwrap_or(default_n)
}

pub fn main() -> path_caching::Result<()> {
    // A simulated disk with 4 KiB pages. Every page access counts as one
    // I/O — the standard external-memory model.
    let store = PageStore::in_memory(4096);

    // 100k points: think (salary, performance score) per employee.
    let n: i64 = scaled(100_000) as i64;
    let points: Vec<Point> = (0..n)
        .map(|i| {
            let x = (i * 7919) % 1_000_000; // salary
            let y = (i * 104_729) % 1_000_000; // score
            Point::new(x, y, i as u64)
        })
        .collect();

    // The two-level scheme (Theorem 4.3): optimal queries in
    // O((n/B) log log B) disk blocks.
    let index = PointIndex::build(&store, &points, Variant::TwoLevel)?;
    println!(
        "indexed {} points in {} pages of {} bytes",
        index.len(),
        store.live_pages(),
        store.page_size()
    );

    // "Everyone with salary >= 900k AND score >= 900k".
    store.reset_stats();
    let q = TwoSided { x0: 900_000, y0: 900_000 };
    let hits = index.query(&store, q)?;
    let stats = store.stats();
    println!(
        "query {q:?}: {} results in {} page reads (t/B would be {})",
        hits.len(),
        stats.reads,
        hits.len() / (store.page_size() / 24)
    );

    // Sweep output sizes to see the output-sensitive bound in action: the
    // I/O count tracks t/B plus a small logarithmic search term.
    println!("\n{:>10} {:>10} {:>12}", "corner", "results", "page reads");
    for frac in [999_000, 990_000, 900_000, 500_000, 100_000] {
        store.reset_stats();
        let q = TwoSided { x0: frac, y0: frac };
        let hits = index.query(&store, q)?;
        println!("{:>10} {:>10} {:>12}", frac, hits.len(), store.stats().reads);
    }

    // Why did the deepest corner cost what it did? Any query can be run
    // inside a capture; the finished span tree comes back to the caller.
    let q = TwoSided { x0: 999_000, y0: 999_000 };
    let (hits, trace) = pc_obs::traced(|| index.query(&store, q));
    hits?;
    let [skeletal, directory, cache, node] = trace.reads_by_class;
    let by_class = format!("{skeletal} skeletal, {directory} directory, {cache} cache");
    println!("\nreads by class: {by_class}, {node} node");
    println!("where the reads went:\n{}", trace.render());
    Ok(())
}
