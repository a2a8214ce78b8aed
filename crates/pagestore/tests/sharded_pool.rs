//! Integration tests for the sharded buffer pool: shard independence,
//! dirty write-back under concurrent writers, and interleaving smoke tests
//! driven through `std::thread::scope` with deliberately tiny shard counts
//! so every lock edge gets exercised.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use pc_pagestore::backend::{Backend, MemBackend};
use pc_pagestore::{PageId, PageStore, Result, StoreConfig};

/// Allocates pages until `want` of them land in pool shard `shard`,
/// returning those ids (the others stay allocated but unused).
fn alloc_in_shard(store: &PageStore, shard: usize, want: usize) -> Vec<PageId> {
    let mut ids = Vec::new();
    while ids.len() < want {
        let id = store.alloc().unwrap();
        if store.pool_shard_of(id) == Some(shard) {
            ids.push(id);
        }
    }
    ids
}

/// Evicting inside one shard must not disturb residency in any other
/// shard: pages resident in shard 1 keep hitting while shard 0 churns.
#[test]
fn cross_shard_eviction_independence() {
    // 4 shards × 2 frames each.
    let store = PageStore::in_memory_pooled_sharded(64, 8, 4);
    assert_eq!(store.pool_shards(), 4);

    let hot = alloc_in_shard(&store, 1, 2);
    let churn = alloc_in_shard(&store, 0, 10);
    for (i, &id) in hot.iter().chain(churn.iter()).enumerate() {
        store.write(id, &[i as u8]).unwrap();
    }

    // Make the two shard-1 pages resident (they fit exactly: capacity 2).
    for &id in &hot {
        store.read(id).unwrap();
    }
    store.reset_stats();

    // Churn shard 0 far past its capacity.
    for _ in 0..5 {
        for &id in &churn {
            store.read(id).unwrap();
        }
    }
    let after_churn = store.stats();
    assert!(after_churn.pool_evictions > 0, "shard 0 must have evicted");

    // The hot shard-1 pages must still be resident: pure hits, no reads.
    for &id in &hot {
        store.read(id).unwrap();
    }
    let s = store.stats();
    assert_eq!(s.reads, after_churn.reads, "shard-1 pages were evicted by shard-0 churn");
    assert_eq!(s.cache_hits, after_churn.cache_hits + hot.len() as u64);

    // And the per-shard breakdown agrees: shard 1 saw only hits.
    let shards = store.pool_shard_stats().unwrap();
    assert_eq!(shards[1].misses, 0);
    assert_eq!(shards[1].evictions, 0);
    assert_eq!(shards[1].hits, hot.len() as u64);
    assert!(shards[0].evictions > 0);
}

/// Concurrent writers through a tiny pool (constant dirty eviction): after
/// a final sync, the backend must hold every page's *last* write — the
/// per-shard lock serializes write → write-back → rewrite per page.
#[test]
fn dirty_write_back_keeps_last_write_under_concurrent_writers() {
    let store = PageStore::in_memory_pooled_sharded(64, 4, 2);
    let per_thread = 8usize;
    let threads = 4usize;
    let ids: Vec<Vec<PageId>> = (0..threads)
        .map(|_| (0..per_thread).map(|_| store.alloc().unwrap()).collect())
        .collect();

    std::thread::scope(|s| {
        for (t, my_ids) in ids.iter().enumerate() {
            let store = &store;
            s.spawn(move || {
                for round in 0..25u8 {
                    for (i, &id) in my_ids.iter().enumerate() {
                        let fill = (t as u8) ^ round.wrapping_mul(31) ^ (i as u8);
                        store.write(id, &[fill; 64]).unwrap();
                    }
                }
            });
        }
    });
    store.sync().unwrap();

    for (t, my_ids) in ids.iter().enumerate() {
        for (i, &id) in my_ids.iter().enumerate() {
            let want = (t as u8) ^ 24u8.wrapping_mul(31) ^ (i as u8);
            let page = store.read(id).unwrap();
            assert!(
                page.iter().all(|&b| b == want),
                "page {id:?}: expected uniform {want}, got {:?}…",
                &page[..4]
            );
        }
    }
    let s = store.stats();
    assert!(s.pool_evictions > 0, "a 4-frame pool under 32 hot pages must evict");
}

/// Readers racing one writer on a single page must always observe an
/// atomic snapshot: every read returns a uniformly-filled page, never a
/// torn mix — the zero-copy design swaps whole `Arc` handles.
#[test]
fn concurrent_reads_see_atomic_page_snapshots() {
    let store = PageStore::in_memory_pooled_sharded(64, 2, 1);
    let id = store.alloc().unwrap();
    store.write(id, &[0u8; 64]).unwrap();

    std::thread::scope(|s| {
        s.spawn(|| {
            for round in 1..=200u8 {
                store.write(id, &[round; 64]).unwrap();
            }
        });
        for _ in 0..3 {
            s.spawn(|| {
                for _ in 0..400 {
                    let page = store.read(id).unwrap();
                    let first = page[0];
                    assert!(
                        page.iter().all(|&b| b == first),
                        "torn page read: starts {first}, mixed content"
                    );
                }
            });
        }
    });
}

/// Interleaving smoke test with a deliberately tiny shard count: mixed
/// reads/writes/frees from `std::thread::scope` threads, then exact
/// logical-access accounting — pooled reads + hits must equal the logical
/// read count, no increments lost across shard atomics.
#[test]
fn interleaving_smoke_with_small_shard_count() {
    for shards in [1usize, 2] {
        let store = PageStore::in_memory_pooled_sharded(64, 4, shards);
        // Shared read-mostly pages with a stable uniform fill each.
        let shared: Vec<PageId> = (0..8)
            .map(|i| {
                let id = store.alloc().unwrap();
                store.write(id, &[0x40 | i as u8; 64]).unwrap();
                id
            })
            .collect();
        store.sync().unwrap();
        store.reset_stats();

        let logical_reads = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let shared = &shared;
                let logical_reads = &logical_reads;
                let store = &store;
                s.spawn(move || {
                    let mut mine: Vec<PageId> = Vec::new();
                    for round in 0..50usize {
                        // Read a shared page; content must be its fixed fill.
                        let i = (round * 7 + t) % shared.len();
                        let page = store.read(shared[i]).unwrap();
                        logical_reads.fetch_add(1, Ordering::Relaxed);
                        assert!(page.iter().all(|&b| b == 0x40 | i as u8));
                        // Private page lifecycle: alloc → write → read → free.
                        match round % 4 {
                            0 => mine.push(store.alloc().unwrap()),
                            1 => {
                                if let Some(&id) = mine.last() {
                                    store.write(id, &[t as u8 + 1; 64]).unwrap();
                                }
                            }
                            2 => {
                                if let Some(&id) = mine.last() {
                                    let p = store.read(id).unwrap();
                                    logical_reads.fetch_add(1, Ordering::Relaxed);
                                    assert!(p.iter().all(|&b| b == t as u8 + 1));
                                }
                            }
                            _ => {
                                if let Some(id) = mine.pop() {
                                    store.free(id).unwrap();
                                }
                            }
                        }
                    }
                    for id in mine {
                        store.free(id).unwrap();
                    }
                });
            }
        });

        let s = store.stats();
        assert_eq!(
            s.reads + s.cache_hits,
            logical_reads.load(Ordering::Relaxed),
            "shards={shards}: pooled reads + hits must equal logical reads"
        );
        assert_eq!(s.allocs, s.frees, "every private page was freed");
    }
}

/// The rendezvous of [`GateBackend`]: a write of `page` waits at
/// `entered`, then at `release`.
struct Gate {
    page: AtomicU64,
    entered: Barrier,
    release: Barrier,
}

/// A memory backend whose write of one chosen page parks until released.
/// An insert holds its shard's exclusive lock across a dirty victim's
/// write-back, so parking that write parks every later operation on the
/// shard at the lock.
struct GateBackend {
    inner: MemBackend,
    gate: Arc<Gate>,
}

impl Backend for GateBackend {
    fn frame_size(&self) -> usize {
        self.inner.frame_size()
    }

    fn read_frame(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        self.inner.read_frame(id, buf)
    }

    fn write_frame(&self, id: PageId, buf: &[u8]) -> Result<()> {
        if id.0 == self.gate.page.load(Ordering::SeqCst) {
            self.gate.entered.wait();
            self.gate.release.wait();
        }
        self.inner.write_frame(id, buf)
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }

    fn frame_count(&self) -> u64 {
        self.inner.frame_count()
    }
}

/// `free` must retire the page's pool frame before a concurrent `alloc`
/// can recycle the id. The freeing thread is held at the shard lock with
/// the page's dirty frame still resident; an `alloc` in that window used
/// to get the id, and the stale frame's write-back then landed on top of
/// the new owner's zeroed page.
#[test]
fn free_retires_the_frame_before_publishing_the_id() {
    let gate = Arc::new(Gate {
        page: AtomicU64::new(u64::MAX),
        entered: Barrier::new(2),
        release: Barrier::new(2),
    });
    let store = PageStore::new(
        StoreConfig { pool_shards: 1, ..StoreConfig::pooled(64, 2) },
        Box::new(GateBackend { inner: MemBackend::new(64 + 8), gate: Arc::clone(&gate) }),
    );
    let [gated, victim, third] = [(); 3].map(|()| store.alloc().unwrap());
    // Two frames, both dirty: `gated`, then `victim`.
    store.write(gated, &[0x11; 64]).unwrap();
    store.write(victim, &[0xAA; 64]).unwrap();
    gate.page.store(gated.0, Ordering::SeqCst);
    let live = store.live_pages();

    let recycled = std::thread::scope(|s| {
        // The clock evicts `gated`, the first frame; its write-back parks,
        // holding the shard lock, with `victim`'s dirty frame resident.
        let writer = s.spawn(|| store.write(third, &[0x33; 64]).unwrap());
        gate.entered.wait();
        // Unallocates `victim`, then parks at the shard lock in `discard`.
        let freer = s.spawn(|| store.free(victim).unwrap());
        while store.live_pages() == live {
            std::thread::yield_now();
        }
        let fresh = store.alloc().unwrap();
        gate.release.wait();
        writer.join().unwrap();
        freer.join().unwrap();
        fresh
    });
    assert!(store.read(gated).unwrap().iter().all(|&b| b == 0x11));
    assert!(store.read(recycled).unwrap().iter().all(|&b| b == 0), "a fresh page reads as zeros");
    let again = store.alloc().unwrap();
    assert_eq!(again, victim, "the freed id is recyclable once its frame is retired");
    assert!(store.read(again).unwrap().iter().all(|&b| b == 0));
}
