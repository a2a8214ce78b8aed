//! The paper's central theme, §6: space/time trade-offs in secondary
//! memory. Builds every PST variant over the same data and prints measured
//! space and query I/O side by side, plus the segment-tree wasteful-I/O
//! story of §2 (Figure 3), and a run against a real file-backed store to
//! show the same code path hits an actual disk.
//!
//! Run with: `cargo run --release --example storage_tradeoffs`

use path_caching::segtree::{CachedSegmentTree, NaiveSegmentTree};
use path_caching::{Interval, PageStore, Point, PointIndex, TwoSided, Variant};

/// Problem size, overridable via `PC_EXAMPLE_N` so the workspace smoke
/// test (`tests/examples_smoke.rs`) can exercise this example quickly.
fn scaled(default_n: usize) -> usize {
    std::env::var("PC_EXAMPLE_N").ok().and_then(|v| v.parse().ok()).unwrap_or(default_n)
}

fn xorshift(state: &mut u64, bound: i64) -> i64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state % bound as u64) as i64
}

pub fn main() -> path_caching::Result<()> {
    let page = 4096;
    let n = scaled(60_000);
    let mut s = 0x1357_9bdf_u64;
    let points: Vec<Point> = (0..n)
        .map(|id| Point::new(xorshift(&mut s, 1_000_000), xorshift(&mut s, 1_000_000), id as u64))
        .collect();
    let queries: Vec<TwoSided> = (0..200)
        .map(|_| TwoSided { x0: xorshift(&mut s, 1_000_000), y0: xorshift(&mut s, 1_000_000) })
        .collect();

    println!("== PST variants over the same {n} points (page {page} B) ==");
    println!(
        "{:<16} {:>10} {:>14} {:>14}",
        "variant", "pages", "avg query I/O", "avg results"
    );
    let variants: &[(&str, Variant)] = &[
        ("naive [IKO]", Variant::Naive),
        ("basic (L3.1)", Variant::Basic),
        ("segmented (T3.2)", Variant::Segmented),
        ("two-level (T4.3)", Variant::TwoLevel),
        ("3-level (T4.4)", Variant::Multilevel(3)),
    ];
    for (label, variant) in variants {
        let store = PageStore::in_memory(page);
        let index = PointIndex::build(&store, &points, *variant)?;
        let pages_used = store.live_pages();
        store.reset_stats();
        let mut results = 0usize;
        for q in &queries {
            results += index.query(&store, *q)?.len();
        }
        let stats = store.stats();
        println!(
            "{:<16} {:>10} {:>14.1} {:>14.1}",
            label,
            pages_used,
            stats.reads as f64 / queries.len() as f64,
            results as f64 / queries.len() as f64
        );
    }

    println!("\n== Segment trees: the Figure 3 wasteful-I/O pathology ==");
    let intervals: Vec<Interval> = (0..(n / 2) as u64)
        .map(|id| {
            let lo = xorshift(&mut s, 1_000_000);
            Interval::new(lo, lo + 1 + xorshift(&mut s, 50_000), id)
        })
        .collect();
    let store = PageStore::in_memory(page);
    let naive = NaiveSegmentTree::build(&store, &intervals)?;
    let cached = CachedSegmentTree::build(&store, &intervals)?;
    let stabs: Vec<i64> = (0..200).map(|_| xorshift(&mut s, 1_000_000)).collect();
    for (label, is_cached) in [("naive", false), ("path-cached", true)] {
        let (mut useful, mut wasteful, mut search) = (0u64, 0u64, 0u64);
        for &q in &stabs {
            // One capture a stab: its span tree splits the reads into
            // search, and output reads useful or wasteful against t/B.
            let (hits, trace) = pc_obs::traced(|| match is_cached {
                true => cached.stab(&store, q),
                false => naive.stab(&store, q),
            });
            hits?;
            useful += trace.total_io - trace.search_ios - trace.wasteful_ios;
            wasteful += trace.wasteful_ios;
            search += trace.search_ios;
        }
        let nq = stabs.len() as u64;
        println!(
            "{label:<12} per query: search {:.1}, useful {:.1}, wasteful {:.1}",
            search as f64 / nq as f64,
            useful as f64 / nq as f64,
            wasteful as f64 / nq as f64
        );
    }

    println!("\n== Same index on a real file-backed store ==");
    let dir = std::env::temp_dir().join(format!("path-caching-demo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("index.pcdb");
    {
        let store = PageStore::file(&path, page)?;
        let index = PointIndex::build(&store, &points, Variant::TwoLevel)?;
        store.sync()?;
        store.reset_stats();
        let hits = index.query(&store, TwoSided { x0: 950_000, y0: 950_000 })?;
        println!(
            "file {} ({} KiB): {} hits in {} page reads",
            path.display(),
            std::fs::metadata(&path).map(|m| m.len() / 1024).unwrap_or(0),
            hits.len(),
            store.stats().reads
        );
    }
    std::fs::remove_file(&path).ok();
    Ok(())
}
