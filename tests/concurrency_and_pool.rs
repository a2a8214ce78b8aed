//! Concurrency and buffer-pool behaviour of the storage substrate and the
//! read-only index structures.
//!
//! `PageStore` hands out immutable `Arc`-backed page snapshots, and its
//! buffer pool is sharded — an access locks only the shard its page hashes
//! to — so a *static* index can be queried from many threads at once in
//! both strict and pooled mode; these tests pin that contract down (and
//! `benchmark/`'s `throughput_ops_s` measures the throughput).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use path_caching::{
    DiagonalCorner, Interval, PageStore, Point, PointIndex, Quadrant, TwoSided, Variant,
};
use pc_workloads::{gen_points, gen_two_sided, PointDist};

fn to_points(raw: &[(i64, i64, u64)]) -> Vec<Point> {
    raw.iter().map(|&(x, y, id)| Point::new(x, y, id)).collect()
}

#[test]
fn parallel_queries_agree_with_serial() {
    let raw = gen_points(20_000, PointDist::Uniform, 31);
    let points = to_points(&raw);
    let store = PageStore::in_memory(1024);
    let index = PointIndex::build(&store, &points, Variant::TwoLevel).unwrap();
    let queries = gen_two_sided(&raw, 64, 500, 32);

    // Serial reference.
    let serial: Vec<usize> = queries
        .iter()
        .map(|q| index.query(&store, TwoSided { x0: q.x0, y0: q.y0 }).unwrap().len())
        .collect();

    // 8 threads × all queries, interleaved.
    let errors = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                for (i, q) in queries.iter().enumerate() {
                    let got = index
                        .query(&store, TwoSided { x0: q.x0, y0: q.y0 })
                        .unwrap()
                        .len();
                    if got != serial[i] {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(errors.load(Ordering::Relaxed), 0);
}

#[test]
fn pooled_store_returns_identical_results_with_fewer_backend_reads() {
    let raw = gen_points(20_000, PointDist::Uniform, 33);
    let points = to_points(&raw);
    let queries = gen_two_sided(&raw, 40, 500, 34);

    let strict = PageStore::in_memory(1024);
    let idx_strict = PointIndex::build(&strict, &points, Variant::Segmented).unwrap();
    let pooled = PageStore::in_memory_pooled(1024, 256);
    let idx_pooled = PointIndex::build(&pooled, &points, Variant::Segmented).unwrap();

    strict.reset_stats();
    pooled.reset_stats();
    for q in &queries {
        let a = idx_strict.query(&strict, TwoSided { x0: q.x0, y0: q.y0 }).unwrap();
        let b = idx_pooled.query(&pooled, TwoSided { x0: q.x0, y0: q.y0 }).unwrap();
        let mut ia: Vec<u64> = a.iter().map(|p| p.id).collect();
        let mut ib: Vec<u64> = b.iter().map(|p| p.id).collect();
        ia.sort_unstable();
        ib.sort_unstable();
        assert_eq!(ia, ib);
    }
    let s = strict.stats();
    let p = pooled.stats();
    assert_eq!(p.reads + p.cache_hits, s.reads, "same logical access pattern");
    assert!(
        p.reads < s.reads,
        "pool absorbed nothing: {} vs {}",
        p.reads,
        s.reads
    );
    // Hot pages (skeletal roots, caches) should give a solid hit rate.
    let hit_rate = p.cache_hits as f64 / (p.cache_hits + p.reads) as f64;
    assert!(hit_rate > 0.3, "hit rate only {hit_rate:.2}");
}

#[test]
fn parallel_queries_against_pooled_store_agree_with_serial() {
    let raw = gen_points(20_000, PointDist::Uniform, 37);
    let points = to_points(&raw);
    let store = PageStore::in_memory_pooled(1024, 256);
    let index = PointIndex::build(&store, &points, Variant::Segmented).unwrap();
    let queries = gen_two_sided(&raw, 64, 500, 38);
    store.reset_stats();

    let serial: Vec<usize> = queries
        .iter()
        .map(|q| index.query(&store, TwoSided { x0: q.x0, y0: q.y0 }).unwrap().len())
        .collect();
    let serial_logical = {
        let s = store.stats();
        s.reads + s.cache_hits
    };
    store.reset_stats();

    let errors = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                for (i, q) in queries.iter().enumerate() {
                    let got = index
                        .query(&store, TwoSided { x0: q.x0, y0: q.y0 })
                        .unwrap()
                        .len();
                    if got != serial[i] {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(errors.load(Ordering::Relaxed), 0);
    // Logical access accounting stays exact across shards: 8 threads ran
    // the same read-only access pattern, so reads + hits = 8 × serial.
    let s = store.stats();
    assert_eq!(
        s.reads + s.cache_hits,
        8 * serial_logical,
        "per-shard counters must not drop increments"
    );
}

#[test]
fn pooled_file_backed_store_round_trips() {
    let dir = std::env::temp_dir().join(format!("pc-poolfile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pooled.pcdb");
    let raw = gen_points(5_000, PointDist::Uniform, 35);
    let points = to_points(&raw);
    {
        let backend = pc_pagestore::backend::FileBackend::open(&path, 1024 + 8).unwrap();
        let store = pc_pagestore::PageStore::new(
            pc_pagestore::StoreConfig { page_size: 1024, pool_pages: 64, pool_shards: 4 },
            Box::new(backend),
        );
        let index = PointIndex::build(&store, &points, Variant::Segmented).unwrap();
        store.sync().unwrap();
        let q = TwoSided { x0: 500_000, y0: 500_000 };
        let want = points.iter().filter(|p| q.contains(p)).count();
        assert_eq!(index.query(&store, q).unwrap().len(), want);
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn diagonal_corner_queries_match_definition() {
    let raw = gen_points(8_000, PointDist::Diagonal { width: 100_000 }, 36);
    let points = to_points(&raw);
    let store = PageStore::in_memory(1024);
    let index =
        PointIndex::build_oriented(&store, &points, Variant::TwoLevel, Quadrant::NorthWest)
            .unwrap();
    for q in [0i64, 100_000, 500_000, 999_999] {
        let dc = DiagonalCorner { q };
        let mut got: Vec<u64> =
            index.query_diagonal(&store, dc).unwrap().iter().map(|p| p.id).collect();
        got.sort_unstable();
        let mut want: Vec<u64> =
            points.iter().filter(|p| dc.contains(p)).map(|p| p.id).collect();
        want.sort_unstable();
        assert_eq!(got, want, "q={q}");
    }
}

#[test]
fn diagonal_corner_equals_interval_stabbing() {
    // The [KRV] reduction in both directions: stabbing via IntervalStore
    // equals a diagonal-corner query over the (lo, hi) point set with the
    // x-axis un-negated.
    use path_caching::IntervalStore;
    let store = PageStore::in_memory(1024);
    let intervals: Vec<Interval> =
        (0..3000).map(|i| Interval::new(i % 500, i % 500 + i % 97 + 1, i as u64)).collect();
    let ivs = IntervalStore::with_intervals(&store, &intervals).unwrap();
    let as_points: Vec<Point> =
        intervals.iter().map(|iv| Point::new(iv.lo, iv.hi, iv.id)).collect();
    let idx =
        PointIndex::build_oriented(&store, &as_points, Variant::Segmented, Quadrant::NorthWest)
            .unwrap();
    let mut counts: HashMap<i64, (usize, usize)> = HashMap::new();
    for q in [0i64, 100, 250, 499, 600] {
        let a = ivs.stab(&store, q).unwrap().len();
        let b = idx.query_diagonal(&store, DiagonalCorner { q }).unwrap().len();
        counts.insert(q, (a, b));
        assert_eq!(a, b, "q={q}");
    }
}
