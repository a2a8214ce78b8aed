//! Direct measurements of single layers that the per-request replay
//! cannot isolate: a cross-thread hop through the admission queue, and
//! `PageStore::read` on resident and on evicted pages.

use std::time::Instant;

use pc_pagestore::PageStore;
use pc_rng::Rng;
use pc_serve::queue::Bounded;

use crate::stats::Samples;

/// One-way time of a cross-thread hop through [`Bounded`]: two threads
/// play ping-pong over two queues (`try_push` here, `pop` there) and a
/// hop is half a round trip. Unlike the replay's same-thread push/pop,
/// this includes the condvar wake-up the server pays per request.
pub fn queue_hop(rounds: usize) -> Samples {
    let ping: Bounded<u64> = Bounded::new(4);
    let pong: Bounded<u64> = Bounded::new(4);
    let mut half_trips = Vec::with_capacity(rounds);
    std::thread::scope(|s| {
        s.spawn(|| {
            while let Some(v) = ping.pop() {
                if pong.try_push(v).is_err() {
                    break;
                }
            }
        });
        for i in 0..rounds as u64 {
            let t = Instant::now();
            if ping.try_push(i).is_err() || pong.pop() != Some(i) {
                break;
            }
            half_trips.push(t.elapsed().as_nanos() as u64 / 2);
        }
        ping.close();
    });
    Samples::new(half_trips)
}

/// Times `PageStore::read` on `count` pages drawn at random from the
/// allocated ones, split into reads the backend served (misses) and reads
/// it did not (pool or dirty-table hits). Each sample includes one clock
/// read (~20 ns).
pub fn store_reads(
    store: &PageStore,
    count: usize,
    seed: u64,
) -> Result<(Samples, Samples), String> {
    let pages = store.allocated_pages();
    let mut rng = Rng::seed_from_u64(seed);
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    for _ in 0..count {
        let id = *rng.choose(&pages).ok_or("store has no pages")?;
        let backend_reads = store.stats().reads;
        let t = Instant::now();
        let page = store.read(id);
        let took = t.elapsed().as_nanos() as u64;
        page.map_err(|e| format!("read {id:?}: {e}"))?;
        if store.stats().reads > backend_reads { &mut misses } else { &mut hits }.push(took);
    }
    Ok((Samples::new(hits), Samples::new(misses)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_and_reads_produce_samples() {
        assert_eq!(queue_hop(200).len(), 200);
        let store = PageStore::in_memory_pooled(512, 4);
        let ids: Vec<_> = (0..16).map(|_| store.alloc().unwrap()).collect();
        for id in &ids {
            store.write(*id, &[1, 2, 3]).unwrap();
        }
        let (hits, misses) = store_reads(&store, 200, 7).unwrap();
        assert_eq!(hits.len() + misses.len(), 200);
        assert!(hits.len() > 0 && misses.len() > 0);
    }
}
