//! Sharded clock-replacement buffer pool with zero-copy reads.
//!
//! The pool sits between logical page operations and the backend. It is
//! optional: the paper's strict I/O model is the pool-less configuration,
//! where every logical access is a backend transfer. With a pool, repeated
//! hits on hot pages (e.g. the skeletal B-tree root) become free, modelling
//! a real DBMS buffer manager.
//!
//! ## Sharding
//!
//! [`ShardedPool`] splits its frame budget over N independent
//! [`BufferPool`] CLOCK rings (N a power of two), each behind its own
//! read-write lock. A page's shard is fixed by a Fibonacci hash of its
//! [`PageId`], so concurrent accesses to distinct pages contend only when
//! their pages collide on a shard — the single global lock of the classic
//! design is the N = 1 special case. A hit takes its shard's lock shared
//! (the CLOCK reference bit is an atomic), so readers of resident pages
//! never exclude each other, and a miss reads the backend with no lock
//! held (see [`ShardedPool::read_through`]). Per-shard hit/miss/eviction
//! counters are plain relaxed atomics; [`crate::PageStore`] folds them into
//! its [`crate::IoStats`] snapshot so the paper's transfer accounting stays
//! exact in pooled mode.
//!
//! ## Zero-copy hits
//!
//! Resident frames hold [`Page`] handles (`Arc<[u8]>`). A pool hit clones
//! the refcount — no payload bytes move — and a later write to the same
//! page *replaces* the slot's handle rather than mutating it, so every
//! reader keeps an immutable snapshot of the page as of its read.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use pc_sync::RwLock;

use crate::error::Result;
use crate::page::Page;
use crate::store::PageId;

struct Slot {
    id: PageId,
    data: Page,
    dirty: bool,
    /// Set by hits under the shared lock, cleared by the hand under the
    /// exclusive one.
    referenced: AtomicBool,
}

/// Fixed-capacity page cache with CLOCK (second-chance) eviction.
///
/// One shard of a [`ShardedPool`]; usable standalone as the classic
/// single-lock buffer pool. Its bookkeeping grows with the pages it holds:
/// a slot is made when an insert finds no empty one, up to `capacity`.
pub struct BufferPool {
    capacity: usize,
    slots: Vec<Option<Slot>>,
    map: HashMap<u64, usize>,
    hand: usize,
    /// Emptied slot indices. Discards push here and inserts pop here first,
    /// then make slots `slots.len()`, `slots.len() + 1`, … in order, so an
    /// insert never scans `slots` looking for a hole.
    free: Vec<usize>,
}

impl BufferPool {
    /// Creates a pool holding up to `capacity` pages. `capacity` must be
    /// nonzero (a zero-capacity configuration should omit the pool
    /// entirely).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool capacity must be nonzero");
        BufferPool { capacity, slots: Vec::new(), map: HashMap::new(), hand: 0, free: Vec::new() }
    }

    /// True if `id` is resident. Does not touch the reference bit.
    pub fn contains(&self, id: PageId) -> bool {
        self.map.contains_key(&id.0)
    }

    /// Looks up a resident page, marking it recently used. A hit clones the
    /// page's `Arc` — no payload bytes are copied. Takes `&self`, so hits
    /// share their shard's lock. A mapping to an empty slot should be
    /// unreachable, but if an invariant ever breaks the pool degrades to a
    /// miss, not a panic; the miss's [`BufferPool::insert`] heals it.
    pub fn get(&self, id: PageId) -> Option<Page> {
        let slot = self.slots[*self.map.get(&id.0)?].as_ref()?;
        slot.referenced.store(true, Ordering::Relaxed);
        Some(slot.data.clone())
    }

    /// Inserts a page, evicting a victim if full; returns `true` when a
    /// resident page was evicted to make room. `write_back` is invoked with
    /// the victim's id and bytes when a dirty page is evicted.
    ///
    /// Error-path atomicity: a dirty victim is written back *before* it is
    /// displaced and before the new mapping is installed, so a failed
    /// `write_back` returns with the pool exactly as it was — the victim
    /// still resident and still dirty (no lost write), `id` still absent,
    /// and no mapping pointing at an empty slot. This is why the miss path
    /// probes the map twice instead of holding a `HashMap::entry` across
    /// the write-back. Updating a resident page swaps the slot's `Page`
    /// handle; readers holding the old handle keep their snapshot.
    pub fn insert(
        &mut self,
        id: PageId,
        data: Page,
        dirty: bool,
        mut write_back: impl FnMut(PageId, &[u8]) -> Result<()>,
    ) -> Result<bool> {
        if let Some(&slot_idx) = self.map.get(&id.0) {
            match self.slots[slot_idx].as_mut() {
                Some(slot) => {
                    slot.data = data;
                    slot.dirty |= dirty;
                    *slot.referenced.get_mut() = true;
                    return Ok(false);
                }
                None => {
                    // The degraded state `get` reports as a miss: drop the
                    // dangling mapping and fall through to a fresh insert.
                    self.map.remove(&id.0);
                    self.free.push(slot_idx);
                }
            }
        }
        let victim_idx = find_victim(&mut self.slots, &mut self.hand, &mut self.free, self.capacity);
        let evicted = if let Some(victim) = self.slots[victim_idx].take() {
            if victim.dirty {
                if let Err(e) = write_back(victim.id, &victim.data) {
                    // Put the victim back untouched; the caller sees the
                    // error and the pool has neither lost the dirty data
                    // nor half-installed the new page.
                    self.slots[victim_idx] = Some(victim);
                    return Err(e);
                }
            }
            self.map.remove(&victim.id.0);
            true
        } else {
            false
        };
        self.slots[victim_idx] = Some(Slot { id, data, dirty, referenced: AtomicBool::new(true) });
        self.map.insert(id.0, victim_idx);
        Ok(evicted)
    }

    /// Drops a page from the pool without write-back (used by `free`).
    pub fn discard(&mut self, id: PageId) {
        if let Some(slot_idx) = self.map.remove(&id.0) {
            self.slots[slot_idx] = None;
            self.free.push(slot_idx);
        }
    }

    /// Writes every dirty resident page through `write_back` and marks them
    /// clean. Pages stay resident.
    pub fn flush(&mut self, mut write_back: impl FnMut(PageId, &[u8]) -> Result<()>) -> Result<()> {
        for slot in self.slots.iter_mut().flatten() {
            if slot.dirty {
                write_back(slot.id, &slot.data)?;
                slot.dirty = false;
            }
        }
        Ok(())
    }
}

/// CLOCK victim selection: an emptied slot, else a new one while there is
/// room, else the hand's. Free-standing (rather than a method) so the
/// borrows of `slots`/`hand`/`free` stay disjoint from `map`'s inside
/// [`BufferPool::insert`].
fn find_victim(
    slots: &mut Vec<Option<Slot>>,
    hand: &mut usize,
    free: &mut Vec<usize>,
    capacity: usize,
) -> usize {
    if let Some(idx) = free.pop() {
        return idx;
    }
    if slots.len() < capacity {
        slots.push(None);
        return slots.len() - 1;
    }
    loop {
        let idx = *hand;
        *hand += 1;
        if *hand == capacity {
            *hand = 0;
        }
        match &slots[idx] {
            Some(slot) if slot.referenced.swap(false, Ordering::Relaxed) => {}
            _ => return idx,
        }
    }
}

/// Snapshot of one shard's counters (see [`ShardedPool::shard_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Logical reads served from this shard's resident frames.
    pub hits: u64,
    /// Logical reads that had to fetch from the backend.
    pub misses: u64,
    /// Resident frames evicted to make room (dirty or clean).
    pub evictions: u64,
}

struct Shard {
    pool: RwLock<BufferPool>,
    /// Writes and discards so far. Changed only under the exclusive lock and
    /// read under the lock, so the lock orders it: a miss installs the page
    /// it fetched only if this did not move since its look-up.
    changes: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Shard {
    fn hit(&self, page: Page) -> Page {
        self.hits.fetch_add(1, Ordering::Relaxed);
        pc_obs::record_io(pc_obs::IoEvent::CacheHit);
        page
    }
}

/// Multiplicative (Fibonacci) hash constant: ⌊2⁶⁴/φ⌋, odd, so sequential
/// page ids spray across shards instead of clustering.
const FIB_HASH: u64 = 0x9E37_79B9_7F4A_7C15;

/// A buffer pool split over independent CLOCK shards (see module docs).
pub struct ShardedPool {
    shards: Box<[Shard]>,
    /// `shard count - 1`; the shard index masks the mixed hash.
    mask: usize,
}

impl ShardedPool {
    /// Creates a pool of `pool_pages` frames over `shards` CLOCK rings.
    /// `shards` must be a power of two and at most `pool_pages`; use
    /// [`ShardedPool::resolve_shards`] to turn a free-form request into a
    /// valid count. Frame budget is split evenly (remainder to the first
    /// shards), so the total is exactly `pool_pages`.
    pub fn new(pool_pages: usize, shards: usize) -> Self {
        assert!(pool_pages > 0, "buffer pool capacity must be nonzero");
        assert!(shards.is_power_of_two(), "shard count must be a power of two");
        assert!(shards <= pool_pages, "cannot have more shards than pool pages");
        let base = pool_pages / shards;
        let extra = pool_pages % shards;
        let shards: Box<[Shard]> = (0..shards)
            .map(|i| Shard {
                pool: RwLock::new(BufferPool::new(base + usize::from(i < extra))),
                changes: AtomicU64::new(0),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
            })
            .collect();
        ShardedPool { mask: shards.len() - 1, shards }
    }

    /// Turns a requested shard count into a valid one: rounds up to a power
    /// of two and clamps to `pool_pages`. `0` means auto — a few shards per
    /// hardware thread (capped at 64) so readers rarely collide.
    pub fn resolve_shards(requested: usize, pool_pages: usize) -> usize {
        let mut shards = match requested {
            0 => {
                let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
                (4 * cores).next_power_of_two().min(64)
            }
            n => n.next_power_of_two(),
        };
        while shards > pool_pages.max(1) {
            shards /= 2;
        }
        shards.max(1)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index page `id` maps to (stable for the pool's lifetime).
    pub fn shard_of(&self, id: PageId) -> usize {
        ((id.0.wrapping_mul(FIB_HASH) >> 33) as usize) & self.mask
    }

    /// Reads `id` through the pool: a hit clones the resident `Arc` (zero
    /// payload copies) under the shard's lock taken shared; a miss runs
    /// `fetch` with no lock held, then installs the result under the
    /// exclusive lock, writing back a dirty victim via `write_back` if one
    /// is evicted.
    ///
    /// A write or discard that reaches the shard while `fetch` runs may
    /// have made the fetched bytes stale (a dirty frame written back and
    /// evicted meanwhile), so the miss then returns them without installing
    /// them, and a page another access installed meanwhile wins. A frame
    /// therefore never goes back behind a write, and no lock is held across
    /// a backend read: a pread on a miss does not stall the shard's hits.
    pub fn read_through(
        &self,
        id: PageId,
        fetch: impl FnOnce() -> Result<Page>,
        write_back: impl FnMut(PageId, &[u8]) -> Result<()>,
    ) -> Result<Page> {
        let shard = &self.shards[self.shard_of(id)];
        let seen = {
            let pool = shard.pool.read();
            if let Some(page) = pool.get(id) {
                return Ok(shard.hit(page));
            }
            shard.changes.load(Ordering::Relaxed)
        };
        shard.misses.fetch_add(1, Ordering::Relaxed);
        let page = fetch()?;
        let mut pool = shard.pool.write();
        if let Some(resident) = pool.get(id) {
            return Ok(resident);
        }
        if shard.changes.load(Ordering::Relaxed) != seen {
            return Ok(page);
        }
        if pool.insert(id, page.clone(), false, write_back)? {
            shard.evictions.fetch_add(1, Ordering::Relaxed);
            pc_obs::record_io(pc_obs::IoEvent::PoolEvict);
        }
        Ok(page)
    }

    /// Installs `data` as the contents of `id`. A `dirty` frame defers the
    /// backend write until eviction or [`ShardedPool::flush`]; a clean one
    /// is a copy of what the backend already holds.
    pub fn write(
        &self,
        id: PageId,
        data: Page,
        dirty: bool,
        write_back: impl FnMut(PageId, &[u8]) -> Result<()>,
    ) -> Result<()> {
        let shard = &self.shards[self.shard_of(id)];
        let mut pool = shard.pool.write();
        shard.changes.fetch_add(1, Ordering::Relaxed);
        if pool.insert(id, data, dirty, write_back)? {
            shard.evictions.fetch_add(1, Ordering::Relaxed);
            pc_obs::record_io(pc_obs::IoEvent::PoolEvict);
        }
        Ok(())
    }

    /// Drops a page from its shard without write-back (used by `free`).
    pub fn discard(&self, id: PageId) {
        let shard = &self.shards[self.shard_of(id)];
        let mut pool = shard.pool.write();
        shard.changes.fetch_add(1, Ordering::Relaxed);
        pool.discard(id);
    }

    /// Writes every dirty resident page through `write_back` and marks them
    /// clean, one shard at a time in shard order. Pages stay resident.
    pub fn flush(&self, mut write_back: impl FnMut(PageId, &[u8]) -> Result<()>) -> Result<()> {
        for shard in self.shards.iter() {
            shard.pool.write().flush(&mut write_back)?;
        }
        Ok(())
    }

    /// Total pool hits across shards.
    pub fn hits(&self) -> u64 {
        self.shards.iter().map(|s| s.hits.load(Ordering::Relaxed)).sum()
    }

    /// Total evictions across shards.
    pub fn evictions(&self) -> u64 {
        self.shards.iter().map(|s| s.evictions.load(Ordering::Relaxed)).sum()
    }

    /// Per-shard counter snapshot, index-aligned with [`ShardedPool::shard_of`].
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                hits: s.hits.load(Ordering::Relaxed),
                misses: s.misses.load(Ordering::Relaxed),
                evictions: s.evictions.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Zeroes all per-shard counters (resident pages are untouched).
    pub fn reset_stats(&self) {
        for s in self.shards.iter() {
            s.hits.store(0, Ordering::Relaxed);
            s.misses.store(0, Ordering::Relaxed);
            s.evictions.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pg(fill: u8, len: usize) -> Page {
        Page::from(vec![fill; len])
    }

    #[test]
    fn hit_after_insert() {
        let mut pool = BufferPool::new(2);
        pool.insert(PageId(1), pg(7, 4), false, |_, _| Ok(())).unwrap();
        assert_eq!(&pool.get(PageId(1)).unwrap()[..], &[7, 7, 7, 7]);
        assert!(pool.get(PageId(2)).is_none());
    }

    #[test]
    fn hits_clone_the_same_buffer() {
        let mut pool = BufferPool::new(2);
        pool.insert(PageId(1), pg(7, 4), false, |_, _| Ok(())).unwrap();
        let a = pool.get(PageId(1)).unwrap();
        let b = pool.get(PageId(1)).unwrap();
        assert!(a.ptr_eq(&b), "a pool hit must not copy page bytes");
    }

    #[test]
    fn eviction_writes_back_dirty_victims_only() {
        let mut pool = BufferPool::new(2);
        let mut written: Vec<u64> = Vec::new();
        assert!(!pool.insert(PageId(1), pg(1, 4), true, |_, _| Ok(())).unwrap());
        assert!(!pool.insert(PageId(2), pg(2, 4), false, |_, _| Ok(())).unwrap());
        // Insert a third page: one of the two must be evicted. Touch neither
        // so the clock can pick either; record what gets written back.
        assert!(pool
            .insert(PageId(3), pg(3, 4), false, |id, _| {
                written.push(id.0);
                Ok(())
            })
            .unwrap());
        // Page 2 was clean: if it was the victim nothing is written.
        // Page 1 was dirty: if it was the victim it must be written.
        assert_eq!((1..=3).filter(|&id| pool.contains(PageId(id))).count(), 2);
        if pool.get(PageId(1)).is_none() {
            assert_eq!(written, vec![1]);
        } else {
            assert!(written.is_empty());
        }
    }

    #[test]
    fn dirty_insert_then_flush_cleans() {
        let mut pool = BufferPool::new(2);
        pool.insert(PageId(9), pg(0, 4), false, |_, _| Ok(())).unwrap();
        pool.insert(PageId(9), pg(5, 4), true, |_, _| Ok(())).unwrap();
        let mut flushed = Vec::new();
        pool.flush(|id, data| {
            flushed.push((id.0, data.to_vec()));
            Ok(())
        })
        .unwrap();
        assert_eq!(flushed, vec![(9, vec![5, 5, 5, 5])]);
        // second flush: nothing dirty
        let mut flushed2 = Vec::new();
        pool.flush(|id, _| {
            flushed2.push(id.0);
            Ok(())
        })
        .unwrap();
        assert!(flushed2.is_empty());
    }

    #[test]
    fn discard_removes_without_writeback_and_recycles_the_slot() {
        let mut pool = BufferPool::new(2);
        pool.insert(PageId(4), pg(1, 4), true, |_, _| Ok(())).unwrap();
        pool.insert(PageId(5), pg(2, 4), true, |_, _| Ok(())).unwrap();
        pool.discard(PageId(4));
        assert!(pool.get(PageId(4)).is_none());
        let mut flushed = 0;
        pool.flush(|_, _| {
            flushed += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(flushed, 1, "only page 5 is still resident+dirty");
        // The freed slot is reused: inserting a new page evicts nothing.
        assert!(!pool.insert(PageId(6), pg(3, 4), false, |_, _| Ok(())).unwrap());
        assert!(pool.contains(PageId(5)) && pool.contains(PageId(6)));
    }

    #[test]
    fn clock_gives_second_chance_to_referenced_pages() {
        let mut pool = BufferPool::new(3);
        for id in 1..=3u64 {
            pool.insert(PageId(id), pg(id as u8, 4), false, |_, _| Ok(())).unwrap();
        }
        // First eviction sweep clears every reference bit and evicts one
        // page (FIFO from the hand when all are referenced).
        pool.insert(PageId(4), pg(4, 4), false, |_, _| Ok(())).unwrap();
        // Find a survivor among the original pages, reference it, and force
        // another eviction: the referenced survivor must be spared while an
        // unreferenced page is chosen.
        let hot = (1..=3u64).find(|&id| pool.get(PageId(id)).is_some()).unwrap();
        pool.insert(PageId(5), pg(5, 4), false, |_, _| Ok(())).unwrap();
        assert!(
            pool.get(PageId(hot)).is_some(),
            "referenced page {hot} should get a second chance"
        );
    }

    #[test]
    fn failed_write_back_leaves_the_pool_intact() {
        let mut pool = BufferPool::new(1);
        pool.insert(PageId(1), pg(1, 4), true, |_, _| Ok(())).unwrap();
        // Evicting the dirty page fails at the backend: the insert must
        // error out with page 1 still resident, still dirty, and page 2
        // nowhere in the pool — no data loss, no dangling mapping.
        let err = pool.insert(PageId(2), pg(2, 4), false, |_, _| {
            Err(crate::StoreError::Io(std::io::Error::other("disk on fire")))
        });
        assert!(err.is_err());
        assert!(pool.contains(PageId(1)) && !pool.contains(PageId(2)));
        assert_eq!(&pool.get(PageId(1)).unwrap()[..], &[1, 1, 1, 1]);
        assert!(pool.get(PageId(2)).is_none());
        let mut flushed = Vec::new();
        pool.flush(|id, _| {
            flushed.push(id.0);
            Ok(())
        })
        .unwrap();
        assert_eq!(flushed, vec![1], "the dirty victim kept its dirty bit");
        // Once the backend recovers, the same insert goes through.
        assert!(pool.insert(PageId(2), pg(2, 4), false, |_, _| Ok(())).unwrap());
        assert_eq!(&pool.get(PageId(2)).unwrap()[..], &[2, 2, 2, 2]);
    }

    #[test]
    fn dangling_mapping_heals_instead_of_panicking() {
        // Regression for the two `expect("mapped slot must be occupied")`
        // unwinds: force the broken invariant directly (map entry pointing
        // at an empty slot) and check both access paths degrade cleanly.
        let mut pool = BufferPool::new(2);
        pool.insert(PageId(7), pg(7, 4), false, |_, _| Ok(())).unwrap();
        let idx = pool.map[&7];
        pool.slots[idx] = None; // simulate the torn state
        assert!(pool.get(PageId(7)).is_none(), "degrades to a miss");
        // The miss's insert drops the dangling entry and reuses its slot.
        pool.insert(PageId(7), pg(8, 4), false, |_, _| Ok(())).unwrap();
        assert_eq!(pool.map[&7], idx);
        assert_eq!(&pool.get(PageId(7)).unwrap()[..], &[8, 8, 8, 8]);
        // The pool is fully functional afterwards.
        pool.insert(PageId(9), pg(9, 4), false, |_, _| Ok(())).unwrap();
        assert!(pool.contains(PageId(7)) && pool.contains(PageId(9)));
        assert_eq!(pool.slots.len(), 2);
    }

    #[test]
    fn reinsert_same_page_does_not_duplicate() {
        let mut pool = BufferPool::new(4);
        pool.insert(PageId(1), pg(1, 4), false, |_, _| Ok(())).unwrap();
        pool.insert(PageId(1), pg(2, 4), true, |_, _| Ok(())).unwrap();
        assert_eq!(pool.slots.iter().flatten().count(), 1);
        assert_eq!(&pool.get(PageId(1)).unwrap()[..], &[2, 2, 2, 2]);
    }

    #[test]
    fn resolve_shards_is_a_clamped_power_of_two() {
        assert_eq!(ShardedPool::resolve_shards(1, 1024), 1);
        assert_eq!(ShardedPool::resolve_shards(3, 1024), 4);
        assert_eq!(ShardedPool::resolve_shards(16, 1024), 16);
        // Clamped: never more shards than frames.
        assert_eq!(ShardedPool::resolve_shards(64, 8), 8);
        assert_eq!(ShardedPool::resolve_shards(64, 3), 2);
        assert_eq!(ShardedPool::resolve_shards(64, 1), 1);
        // Auto mode picks something valid.
        let auto = ShardedPool::resolve_shards(0, 256);
        assert!(auto.is_power_of_two() && auto <= 256);
        assert_eq!(ShardedPool::resolve_shards(0, 2), 2);
    }

    #[test]
    fn sharded_capacity_splits_exactly() {
        // 10 frames over 4 shards: 3+3+2+2.
        let pool = ShardedPool::new(10, 4);
        assert_eq!(pool.shard_count(), 4);
        let caps: Vec<usize> = pool.shards.iter().map(|s| s.pool.read().capacity).collect();
        assert_eq!(caps, [3, 3, 2, 2]);
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let pool = ShardedPool::new(64, 8);
        for id in 0..1000u64 {
            let s = pool.shard_of(PageId(id));
            assert!(s < 8);
            assert_eq!(s, pool.shard_of(PageId(id)), "shard map must be deterministic");
        }
        // The Fibonacci hash must actually spread sequential ids.
        let mut seen = [false; 8];
        for id in 0..64u64 {
            seen[pool.shard_of(PageId(id))] = true;
        }
        assert!(seen.iter().all(|&s| s), "sequential ids should touch every shard");
    }

    #[test]
    fn single_shard_pool_maps_everything_to_shard_zero() {
        let pool = ShardedPool::new(4, 1);
        for id in [0u64, 1, 17, u64::MAX - 1] {
            assert_eq!(pool.shard_of(PageId(id)), 0);
        }
    }

    #[test]
    fn read_through_counts_hits_misses_evictions() {
        let pool = ShardedPool::new(2, 1);
        let fetch = || Ok(Page::from(vec![9u8; 4]));
        for id in [1u64, 2, 3] {
            pool.read_through(PageId(id), fetch, |_, _| Ok(())).unwrap();
        }
        // Third fill evicted one of the first two.
        let resident = |id| pool.shards[0].pool.read().contains(PageId(id));
        assert_eq!([1, 2].into_iter().filter(|&id| resident(id)).count(), 1);
        // Hit on the survivor.
        let hot = if resident(1) { 1 } else { 2 };
        pool.read_through(PageId(hot), || unreachable!("resident page must not fetch"), |_, _| {
            Ok(())
        })
        .unwrap();
        let s = &pool.shard_stats()[0];
        assert_eq!((s.hits, s.misses, s.evictions), (1, 3, 1));
        pool.reset_stats();
        assert_eq!(pool.shard_stats()[0], ShardStats::default());
    }

    #[test]
    fn a_miss_installs_nothing_a_write_overtook() {
        let ok = |_, _: &[u8]| Ok(());
        // While a miss of page 1 reads the backend, a write of page 1 lands
        // and is evicted by a write of page 2: the fetched bytes are stale.
        let pool = ShardedPool::new(1, 1);
        let fetched = pool.read_through(
            PageId(1),
            || {
                pool.write(PageId(1), pg(2, 4), true, ok)?;
                pool.write(PageId(2), pg(3, 4), true, ok)?;
                Ok(pg(1, 4))
            },
            ok,
        );
        assert_eq!(fetched.unwrap()[0], 1, "the read overlapped the write");
        assert!(!pool.shards[0].pool.read().contains(PageId(1)), "the stale bytes stay out");
        // A write that stays resident wins over the fetched bytes.
        let pool = ShardedPool::new(2, 1);
        let read = pool.read_through(
            PageId(1),
            || pool.write(PageId(1), pg(2, 4), true, ok).map(|()| pg(1, 4)),
            ok,
        );
        assert_eq!(read.unwrap()[0], 2);
    }

    #[test]
    fn a_pool_holds_no_slot_before_its_first_insert() {
        let mut pool = BufferPool::new(1 << 20);
        let held =
            |pool: &BufferPool| (pool.slots.capacity(), pool.free.capacity(), pool.map.capacity());
        assert_eq!(held(&pool), (0, 0, 0));
        pool.insert(PageId(3), pg(3, 4), false, |_, _| Ok(())).unwrap();
        assert_eq!(pool.slots.len(), 1);
        assert!(held(&pool).0 < 1 << 10 && held(&pool).2 < 1 << 10);
    }

    /// A fixed run of inserts, hits, discards and evictions over a pool of
    /// 8 frames and 16 page ids: the victims, in order, and the hit and miss
    /// counts are the ones a pool with every frame's bookkeeping allocated
    /// up front gave.
    #[test]
    fn a_scripted_run_evicts_the_recorded_victims() {
        let mut pool = BufferPool::new(8);
        let (mut hits, mut misses, mut victims) = (0, 0, Vec::new());
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for step in 0..100u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let (id, op) = (PageId((state >> 33) % 16), (state >> 59) % 8);
            if op == 7 {
                pool.discard(id);
                continue;
            }
            if op < 5 && pool.get(id).is_some() {
                hits += 1;
                continue;
            }
            misses += u64::from(op < 5);
            let resident: Vec<u64> = (0..16).filter(|&p| pool.contains(PageId(p))).collect();
            let evicted = pool.insert(id, pg(step as u8, 4), op >= 5, |_, _| Ok(())).unwrap();
            let gone: Vec<u64> =
                resident.into_iter().filter(|&p| !pool.contains(PageId(p))).collect();
            assert_eq!(evicted, !gone.is_empty());
            victims.extend(gone);
        }
        let recorded = [
            3, 7, 4, 2, 14, 8, 11, 12, 13, 10, 6, 5, 2, 9, 14, 15, 3, 11, 8, 13, 5, 12, 6, 10, 3,
            2, 12, 11, 13, 9, 4, 14, 15, 8, 1, 7, 2, 10, 5, 4, 14, 13, 3, 15,
        ];
        assert_eq!(victims, recorded);
        let resident = (0..16).filter(|&p| pool.contains(PageId(p))).count();
        assert_eq!((hits, misses, resident), (27, 39, 7));
    }
}
