//! The page store: allocation, checksums, I/O accounting, optional buffer
//! pool.
//!
//! Concurrency model: statistics are atomic counters, the allocation table
//! sits behind a read-write lock (shared on the hot read path), and the
//! backend itself is internally synchronized — so concurrent readers of a
//! static structure scale across threads (`tests/concurrency_and_pool.rs`
//! holds the contract, `benchmark/`'s `throughput_ops_s` the rate). The
//! optional buffer pool is sharded ([`crate::pool::ShardedPool`]): an access locks
//! only the shard its page hashes to, so pooled readers of distinct pages
//! scale too, and a pool hit hands back the resident `Arc` without copying
//! payload bytes.
//!
//! The open group (`Group`) is the one record of the pages allocated and
//! freed since the last consistency point: a durable commit, or the start
//! of an apply session ([`crate::version`]). While the group rule holds —
//! on a durable store, or in a session — only a page of the group is
//! written ([`PageStore::relocate`] gives one for any other), and a free
//! of any other page is held: a commit puts the held pages on the free
//! list, after the group's free-list operations ([`Entry`], which it logs
//! as one record); an install hands a session's to its epoch's retire
//! queue; an abort frees the group's own pages instead, unless a log
//! write of unknown fate may name them.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use pc_obs::IoEvent;
use pc_sync::{Mutex, RwLock};

use crate::backend::{Backend, FileBackend, MemBackend};
use crate::codec::{fnv1a64, frame_is_valid};
use crate::error::{Result, StoreError};
use crate::page::Page;
use crate::pool::ShardedPool;
use crate::recovery::RecoveryReport;
use crate::stats::IoStats;
use crate::wal::{AllocSnapshot, Entry, FileLog, LogMedium, MemLog, Wal, WalStats};

/// Identifier of a page within one [`PageStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

/// Sentinel id used by on-page layouts for "no page" (e.g. end of a block
/// list). Never returned by [`PageStore::alloc`].
pub const NULL_PAGE: PageId = PageId(u64::MAX);

impl PageId {
    /// True if this id is the [`NULL_PAGE`] sentinel.
    pub fn is_null(self) -> bool {
        self == NULL_PAGE
    }
}

/// Construction-time configuration for a [`PageStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Usable page payload size in bytes. The paper's block parameter `B`
    /// for a structure storing records of `r` bytes is `page_size / r`.
    pub page_size: usize,
    /// Buffer-pool capacity in pages; `0` disables the pool and yields the
    /// strict I/O model (every logical access is one transfer). A durable
    /// store gets at least `4 MiB / page_size` frames
    /// (see [`PageStore::new_durable`]).
    pub pool_pages: usize,
    /// Number of buffer-pool shards; `0` picks a hardware-sized power of
    /// two automatically, `1` is the classic single-lock pool. Ignored in
    /// strict mode. Free-form values are rounded up to a power of two and
    /// clamped to `pool_pages` (see [`ShardedPool::resolve_shards`]).
    pub pool_shards: usize,
}

impl StoreConfig {
    /// Strict-model configuration with the given page size.
    pub fn strict(page_size: usize) -> Self {
        StoreConfig { page_size, pool_pages: 0, pool_shards: 0 }
    }

    /// Pooled configuration with auto-sized sharding.
    pub fn pooled(page_size: usize, pool_pages: usize) -> Self {
        StoreConfig { page_size, pool_pages, pool_shards: 0 }
    }
}

/// Length of the fnv1a64 checksum trailer appended to every stored frame
/// (so a backend frame is `page_size + CHECKSUM_LEN` bytes).
pub const CHECKSUM_LEN: usize = 8;

/// Configuration for a durable (WAL-backed) store.
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Log size (in bytes) at which a successful commit triggers an
    /// automatic checkpoint, bounding both log growth and replay work at
    /// the next open. A checkpoint is a log swap at a commit boundary.
    pub checkpoint_bytes: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig { checkpoint_bytes: 1 << 20 }
    }
}

/// The durable half of a [`PageStore`]: the write-ahead log. A committed
/// page is never overwritten (shadow paging; see the `wal` module docs), so
/// recovery writes nothing.
struct WalState {
    wal: Wal,
    checkpoint_bytes: u64,
    /// Most recent **non-empty** commit metadata, *sticky*: a `sync`
    /// re-stamps it and a checkpoint re-embeds it, so recovery reports the
    /// latest tagged commit (the version layer's epoch map lives here).
    last_meta: Mutex<Vec<u8>>,
    /// `frame_count()` of the backend at open. A fresh id below it may hold
    /// the frame of a group that never committed; `alloc` zeroes it.
    stale_frames: u64,
}

/// Payload bytes a durable store's buffer pool holds at least: its frame
/// count is `max(pool_pages, DURABLE_POOL_BYTES / page_size)`.
const DURABLE_POOL_BYTES: usize = 4 << 20;

/// The open group (see the module docs). Its lock serializes mutations
/// (write, alloc, free) against commit and checkpoint, and is always taken
/// before the allocation lock.
#[derive(Default)]
struct Group {
    /// A durable store's free-list operations since the last commit, in
    /// order: what the next commit record carries.
    entries: Vec<Entry>,
    /// Live pages allocated since the consistency point: while the rule
    /// holds, the only pages a write may touch or a free releases at once.
    fresh: HashSet<u64>,
    /// The other pages freed since, in order. Outside a session they are
    /// gone already and join the free list at the commit; a session's stay
    /// readable, since the epochs before it reach them.
    held: Vec<u64>,
    /// While an apply session is open: where its frees start in `held`.
    session: Option<usize>,
}

/// Store-global counters. Pool hits and evictions live in per-shard
/// atomics inside [`ShardedPool`] and are folded in by
/// [`PageStore::stats`], so the hot hit path touches only shard-local
/// state.
#[derive(Default)]
struct AtomicStats {
    reads: AtomicU64,
    writes: AtomicU64,
    allocs: AtomicU64,
    frees: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self) -> IoStats {
        IoStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
            ..IoStats::default()
        }
    }

    fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.allocs.store(0, Ordering::Relaxed);
        self.frees.store(0, Ordering::Relaxed);
    }
}

#[derive(Default)]
struct AllocState {
    allocated: Vec<bool>,
    table: AllocSnapshot,
}

/// A simulated (or file-backed) disk of fixed-size pages.
///
/// All methods take `&self`; index structures expose `&self` query APIs and
/// the experiment harness drives stores from multiple threads.
pub struct PageStore {
    page_size: usize,
    backend: Box<dyn Backend>,
    stats: AtomicStats,
    alloc: RwLock<AllocState>,
    pool: Option<ShardedPool>,
    group: Mutex<Group>,
    /// `Some` for durable stores. `None` keeps the classic volatile store
    /// with bit-identical I/O accounting.
    wal: Option<WalState>,
}

impl PageStore {
    /// Creates a store over an arbitrary backend.
    ///
    /// The backend's frame size must equal `config.page_size + 8` (payload
    /// plus checksum trailer).
    pub fn new(config: StoreConfig, backend: Box<dyn Backend>) -> Self {
        assert!(config.page_size >= 32, "page size must be at least 32 bytes");
        assert_eq!(
            backend.frame_size(),
            config.page_size + CHECKSUM_LEN,
            "backend frame size must be page_size + 8"
        );
        PageStore {
            page_size: config.page_size,
            backend,
            stats: AtomicStats::default(),
            alloc: RwLock::new(AllocState::default()),
            pool: (config.pool_pages > 0).then(|| {
                let shards = ShardedPool::resolve_shards(config.pool_shards, config.pool_pages);
                ShardedPool::new(config.pool_pages, shards)
            }),
            group: Mutex::default(),
            wal: None,
        }
    }

    /// Opens a **durable** store: a write-ahead log over `log` protects
    /// every acked mutation against crashes of the process or the machine
    /// (see the `wal` module docs for the protocol). Runs recovery first —
    /// scanning the log, truncating any torn tail, applying the entries of
    /// every commit since the last checkpoint — and returns the
    /// [`RecoveryReport`] alongside the store.
    ///
    /// A durable store reads through a buffer pool of
    /// `max(pool_pages, 4 MiB / page_size)` frames that holds only clean
    /// frames: a write reaches the backend before its frame enters the
    /// pool, so a commit's sync covers every write. A committed page never
    /// changes, so a resident frame is always the backend's bytes.
    /// Durability is opt-in per store and never changes the volatile
    /// store's I/O accounting.
    pub fn new_durable(
        config: StoreConfig,
        backend: Box<dyn Backend>,
        log: Box<dyn LogMedium>,
        wal_config: WalConfig,
    ) -> Result<(Self, RecoveryReport)> {
        let pool_pages = config.pool_pages.max(DURABLE_POOL_BYTES / config.page_size);
        let mut store = PageStore::new(StoreConfig { pool_pages, ..config }, backend);
        let (wal, outcome) = Wal::open(log, store.page_size)?;
        let (report, snap) = crate::recovery::replay(&outcome)?;
        // Retire the old log: the data file already holds every committed
        // frame. The recovered commit metadata rides into the fresh
        // generation so another crash before the next commit still
        // reports it.
        let recovered_meta = report.last_commit_meta.clone().unwrap_or_default();
        wal.install_checkpoint(&snap, &recovered_meta)?;
        wal.note_replayed(report.replayed_records());
        let mut allocated = vec![true; snap.next_id as usize];
        for &f in &snap.free_list {
            if let Some(slot) = allocated.get_mut(f as usize) {
                *slot = false;
            }
        }
        store.alloc = RwLock::new(AllocState { allocated, table: snap });
        store.wal = Some(WalState {
            wal,
            checkpoint_bytes: wal_config.checkpoint_bytes,
            last_meta: Mutex::new(recovered_meta),
            stale_frames: store.backend.frame_count(),
        });
        Ok((store, report))
    }

    /// Strict-model in-memory store: the standard configuration for all
    /// experiments.
    pub fn in_memory(page_size: usize) -> Self {
        let backend = MemBackend::new(page_size + CHECKSUM_LEN);
        PageStore::new(StoreConfig::strict(page_size), Box::new(backend))
    }

    /// In-memory store with a buffer pool of `pool_pages` pages and
    /// auto-sized sharding.
    pub fn in_memory_pooled(page_size: usize, pool_pages: usize) -> Self {
        let backend = MemBackend::new(page_size + CHECKSUM_LEN);
        PageStore::new(StoreConfig::pooled(page_size, pool_pages), Box::new(backend))
    }

    /// In-memory pooled store with an explicit shard count (`1` reproduces
    /// the classic single-mutex pool; used by the scaling benchmarks).
    pub fn in_memory_pooled_sharded(page_size: usize, pool_pages: usize, shards: usize) -> Self {
        let backend = MemBackend::new(page_size + CHECKSUM_LEN);
        PageStore::new(
            StoreConfig { page_size, pool_pages, pool_shards: shards },
            Box::new(backend),
        )
    }

    /// File-backed strict-model store at `path`.
    pub fn file(path: &Path, page_size: usize) -> Result<Self> {
        let backend = FileBackend::open(path, page_size + CHECKSUM_LEN)?;
        Ok(PageStore::new(StoreConfig::strict(page_size), Box::new(backend)))
    }

    /// Durable in-memory store (a [`MemLog`] WAL over a
    /// [`MemBackend`]) — the configuration crash tests reopen from a
    /// [`crate::CrashBackend`]/[`crate::CrashLog`] survivor's state.
    pub fn in_memory_durable(page_size: usize) -> (Self, RecoveryReport) {
        PageStore::new_durable(
            StoreConfig::strict(page_size),
            Box::new(MemBackend::new(page_size + CHECKSUM_LEN)),
            Box::new(MemLog::new()),
            WalConfig::default(),
        )
        .expect("an empty in-memory durable store cannot fail to open")
    }

    /// Durable file-backed store: data at `path`, WAL at `path` + `.wal`.
    ///
    /// A data file ending mid-frame (torn by a crash) is truncated back to
    /// the last complete frame before recovery, and reported via
    /// [`RecoveryReport::data_torn_tail`]. The truncation drops nothing
    /// committed: every committed frame was synced before its commit
    /// record.
    pub fn file_durable(
        path: &Path,
        page_size: usize,
        wal_config: WalConfig,
    ) -> Result<(Self, RecoveryReport)> {
        let (backend, data_torn_tail) =
            FileBackend::open_recovering(path, page_size + CHECKSUM_LEN)?;
        let mut wal_path = path.as_os_str().to_os_string();
        wal_path.push(".wal");
        let log = FileLog::open(&PathBuf::from(wal_path))?;
        let (store, mut report) = PageStore::new_durable(
            StoreConfig::strict(page_size),
            Box::new(backend),
            Box::new(log),
            wal_config,
        )?;
        report.data_torn_tail = data_torn_tail;
        Ok((store, report))
    }

    /// Usable page payload size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Allocates a fresh (or recycled) page. The page reads as all-zero
    /// until first written; recycled pages are zeroed on reuse (one write
    /// I/O), so no stale contents ever leak across a free/alloc cycle.
    /// While the group rule holds the page joins the open group; a durable
    /// store also zeroes a fresh id whose frame a group that never
    /// committed may have left behind.
    pub fn alloc(&self) -> Result<PageId> {
        self.alloc_page(true)
    }

    /// [`PageStore::alloc`]; `zero: false` skips zeroing a recycled or
    /// stale frame, for a caller that writes the whole page next.
    fn alloc_page(&self, zero: bool) -> Result<PageId> {
        let mut group = self.group.lock();
        let (id, recycled) = {
            let mut a = self.alloc.write();
            let recycled = !a.table.free_list.is_empty();
            let id = a.table.take();
            let idx = id as usize;
            if idx >= a.allocated.len() {
                a.allocated.resize(idx + 1, false);
            }
            a.allocated[idx] = true;
            (id, recycled)
        };
        if self.wal.is_some() || group.session.is_some() {
            group.fresh.insert(id);
        }
        let mut stale = recycled;
        if let Some(ws) = &self.wal {
            ws.wal.count_entry();
            group.entries.push(Entry::Take(id));
            stale |= id < ws.stale_frames;
        }
        if stale && zero {
            self.backend_write(PageId(id), &[])?;
        }
        self.stats.allocs.fetch_add(1, Ordering::Relaxed);
        pc_obs::record_io(IoEvent::Alloc);
        Ok(PageId(id))
    }

    /// Releases a page for reuse. Its contents become undefined.
    ///
    /// While the group rule holds (see the module docs), a page the open
    /// group did not allocate is held: not reused before the next commit
    /// and, inside an apply session, still readable, for the epochs that
    /// reach it, until epoch GC frees it.
    pub fn free(&self, id: PageId) -> Result<()> {
        let mut group = self.group.lock();
        self.check_allocated(id)?;
        let held = self.frozen(&group, id);
        group.fresh.remove(&id.0);
        if held {
            group.held.push(id.0);
            if group.session.is_some() {
                return Ok(());
            }
        } else if self.wal.is_some() {
            group.entries.push(Entry::Push(id.0));
        }
        self.alloc.write().allocated[id.0 as usize] = false;
        match &self.wal {
            // The log's free-list operations keep the group lock's order.
            Some(ws) => ws.wal.count_entry(),
            None => drop(group),
        }
        if let Some(pool) = &self.pool {
            pool.discard(id);
        }
        if !held {
            // Publish the id last: a concurrent `alloc` that recycled it
            // before the pool dropped the page would lose its first write.
            self.alloc.write().table.free_list.push(id.0);
        }
        self.stats.frees.fetch_add(1, Ordering::Relaxed);
        pc_obs::record_io(IoEvent::Free);
        Ok(())
    }

    /// True when the group rule — on a durable store, or in a session —
    /// forbids writing `id`.
    fn frozen(&self, group: &Group, id: PageId) -> bool {
        (self.wal.is_some() || group.session.is_some()) && !group.fresh.contains(&id.0)
    }

    fn check_allocated(&self, id: PageId) -> Result<()> {
        let a = self.alloc.read();
        if id.is_null() || !a.allocated.get(id.0 as usize).copied().unwrap_or(false) {
            return Err(StoreError::PageNotAllocated(id));
        }
        Ok(())
    }

    /// Reads page `id`, returning its full `page_size`-byte payload.
    ///
    /// Costs one backend read in strict mode. With a pool (every durable
    /// store has one), resident pages cost no transfer, are counted as
    /// `cache_hits`, and are returned by cloning the resident `Arc` under
    /// the shard's lock taken shared — a hit copies zero payload bytes and
    /// takes no exclusive lock. The returned [`Page`] is an immutable
    /// snapshot: a later write to the same page replaces the pool's handle
    /// without touching it.
    pub fn read(&self, id: PageId) -> Result<Page> {
        self.check_allocated(id)?;
        if let Some(pool) = &self.pool {
            return pool.read_through(
                id,
                || self.backend_read(id),
                |vid, vdata| self.backend_write(vid, vdata),
            );
        }
        self.backend_read(id)
    }

    /// Writes page `id`. `data` may be shorter than the page size; the
    /// remainder is zero-filled.
    ///
    /// Costs one backend write in strict mode; with a volatile store's
    /// pool, the write is absorbed and deferred until eviction or
    /// [`PageStore::sync`]. While the group rule holds, a write to a page
    /// the open group did not allocate is refused with
    /// [`StoreError::CommittedPage`]: a committed epoch may still read it
    /// ([`PageStore::relocate`] gives a page that may be written). A
    /// durable store's write reaches the backend, then the same bytes
    /// enter its pool as a clean frame; a write the backend fails leaves
    /// the pool as it was.
    pub fn write(&self, id: PageId, data: &[u8]) -> Result<()> {
        if data.len() > self.page_size {
            return Err(StoreError::PayloadTooLarge {
                payload: data.len(),
                page_size: self.page_size,
            });
        }
        self.check_allocated(id)?;
        let group = self.group.lock();
        if self.frozen(&group, id) {
            return Err(StoreError::CommittedPage(id));
        }
        if self.wal.is_some() {
            self.backend_write(id, data)?;
            // Still under the group lock, so frames enter in write order; a
            // durable pool holds no dirty frame, so nothing is written back.
            if let Some(pool) = &self.pool {
                pool.write(id, self.padded(data), false, |_, _| Ok(()))?;
            }
            return Ok(());
        }
        drop(group);
        if let Some(pool) = &self.pool {
            let write_back = |vid, vdata: &[u8]| self.backend_write(vid, vdata);
            return pool.write(id, self.padded(data), true, write_back);
        }
        self.backend_write(id, data)
    }

    /// The id to write page `id`'s new bytes to: `id` itself where it may
    /// be written (no alloc, no I/O), else a fresh page, `id` freed (held)
    /// — the caller writes the whole page there and points whatever named
    /// `id` at it.
    pub fn relocate(&self, id: PageId) -> Result<PageId> {
        if !self.frozen(&self.group.lock(), id) {
            return Ok(id);
        }
        self.free(id)?;
        self.alloc_page(false)
    }

    /// Opens an apply session, a consistency point: a new fresh set, so a
    /// page allocated before it is not written in it. One writer at a time:
    /// panics if a session is open already.
    pub(crate) fn begin_session(&self) {
        let mut group = self.group.lock();
        assert!(group.session.is_none(), "an apply session is already open on this store");
        group.fresh.clear();
        group.session = Some(group.held.len());
    }

    /// Closes the apply session. Returns the pages it held: allocated
    /// still, for an install to retire or an abort to keep.
    pub(crate) fn end_session(&self) -> Vec<u64> {
        let mut group = self.group.lock();
        let from = group.session.take().expect("an apply session open on this store");
        group.held.split_off(from)
    }

    /// Frees, in id order, every page the open group allocated: the
    /// rollback of a session that does not install. After a log write of
    /// unknown fate they stay allocated: the record may be on the medium
    /// and name them, and a reopen recovers either way.
    pub(crate) fn roll_back(&self) {
        if self.wal.as_ref().is_some_and(|ws| ws.wal.is_broken()) {
            return;
        }
        let mut fresh: Vec<u64> = self.group.lock().fresh.iter().copied().collect();
        fresh.sort_unstable();
        for p in fresh {
            let _ = self.free(PageId(p));
        }
    }

    fn padded(&self, data: &[u8]) -> Page {
        let mut padded = vec![0u8; self.page_size];
        padded[..data.len()].copy_from_slice(data);
        Page::from(padded)
    }

    fn backend_read(&self, id: PageId) -> Result<Page> {
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        // Observer hook for pc-obs (inert outside a `begin_trace` capture):
        // purely observational, so `IoStats` and transfer behavior stay
        // bit-identical either way.
        pc_obs::record_io(IoEvent::Read);
        let mut frame = vec![0u8; self.page_size + CHECKSUM_LEN];
        self.backend.read_frame(id, &mut frame)?;
        if !frame_is_valid(&frame) {
            return Err(StoreError::ChecksumMismatch(id));
        }
        frame.truncate(self.page_size);
        Ok(Page::from(frame))
    }

    fn backend_write(&self, id: PageId, data: &[u8]) -> Result<()> {
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        pc_obs::record_io(IoEvent::Write);
        let mut frame = vec![0u8; self.page_size + CHECKSUM_LEN];
        frame[..data.len()].copy_from_slice(data);
        let checksum = fnv1a64(&frame[..self.page_size]);
        frame[self.page_size..].copy_from_slice(&checksum.to_le_bytes());
        self.backend.write_frame(id, &frame)
    }

    /// Flushes all buffered dirty pages (shard by shard, in shard order)
    /// and syncs the backend.
    ///
    /// On a durable store this is a group commit with empty metadata: when
    /// `sync` returns, every mutation so far survives a crash. Use
    /// [`PageStore::commit_with`] to tag the commit instead.
    pub fn sync(&self) -> Result<()> {
        if self.wal.is_some() {
            return self.commit_with(&[]).map(|_| ());
        }
        if let Some(pool) = &self.pool {
            pool.flush(|vid, vdata| self.backend_write(vid, vdata))?;
        }
        self.backend.sync()
    }

    /// Group commit on a durable store: syncs the data backend, then
    /// appends one commit record carrying the group's entries and the
    /// caller's opaque `meta` (e.g. a batch sequence number — recovery
    /// hands back the last one it restored) and fsyncs the log once.
    /// Returns the group's entry count; `0` means nothing was pending and
    /// no sync was issued. After a successful commit, every mutation in
    /// the group is crash-durable — this is the "Ack means durable" point
    /// for the serve layer. A failed commit leaves the group open.
    ///
    /// Commits mark consistency points, so a commit whose log has outgrown
    /// [`WalConfig::checkpoint_bytes`] also installs a checkpoint. On a
    /// volatile store this is a no-op returning 0.
    pub fn commit_with(&self, meta: &[u8]) -> Result<u64> {
        let Some(ws) = &self.wal else { return Ok(0) };
        let mut group = self.group.lock();
        let size = self.commit_locked(ws, &mut group, meta)?;
        if ws.wal.log_bytes() >= ws.checkpoint_bytes {
            self.checkpoint_locked(ws)?;
        }
        Ok(size)
    }

    /// Forces a checkpoint on a durable store: commits anything pending,
    /// then atomically resets the log to a single allocation snapshot —
    /// after which reopening replays nothing. A no-op on a volatile store.
    pub fn checkpoint(&self) -> Result<()> {
        let Some(ws) = &self.wal else { return Ok(()) };
        let mut group = self.group.lock();
        // A checkpoint must sit at a consistency point: anything pending
        // gets committed first.
        self.commit_locked(ws, &mut group, &[])?;
        self.checkpoint_locked(ws)
    }

    /// Commit with sticky metadata (caller holds the group lock): an empty
    /// `meta` re-stamps the last non-empty payload rather than erasing it;
    /// a non-empty one becomes the new sticky payload once durable. The
    /// data backend is synced before the commit record is written; the
    /// held pages are its last entries and join the free list after it.
    fn commit_locked(&self, ws: &WalState, group: &mut Group, meta: &[u8]) -> Result<u64> {
        assert!(group.session.is_none(), "an apply session commits at its install");
        // Every write is to a page the group allocated, so an empty group
        // means no frame awaits a sync either.
        if group.entries.is_empty() && group.held.is_empty() {
            return Ok(0);
        }
        self.backend.sync()?;
        let mut last = ws.last_meta.lock();
        let effective = if meta.is_empty() { &last[..] } else { meta };
        let held = group.held.iter().map(|&id| Entry::Push(id));
        let entries: Vec<Entry> = group.entries.iter().copied().chain(held).collect();
        let size = ws.wal.commit(&entries, effective)?;
        if !meta.is_empty() {
            *last = meta.to_vec();
        }
        group.entries.clear();
        group.fresh.clear();
        self.alloc.write().table.free_list.append(&mut group.held);
        Ok(size)
    }

    /// True when this store has a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// The sticky commit metadata: the payload of the last non-empty
    /// durable commit (recovered across reopen). `None` on a volatile
    /// store or before the first tagged commit.
    pub fn last_commit_meta(&self) -> Option<Vec<u8>> {
        let ws = self.wal.as_ref()?;
        let last = ws.last_meta.lock();
        if last.is_empty() { None } else { Some(last.clone()) }
    }

    /// WAL activity counters, or `None` on a volatile store.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal.as_ref().map(|ws| ws.wal.stats())
    }

    /// Distribution of records made durable per group commit — what
    /// [`WalStats::max_group`] is the maximum of — or `None` on a volatile
    /// store.
    pub fn wal_group_sizes(&self) -> Option<pc_obs::HistogramSnapshot> {
        self.wal.as_ref().map(|ws| ws.wal.group_sizes())
    }

    /// Checkpoint body; caller holds the group lock and has just committed
    /// (the group is empty, and the commit synced the data backend), so
    /// the checkpoint is the log swap alone.
    fn checkpoint_locked(&self, ws: &WalState) -> Result<()> {
        ws.wal.install_checkpoint(&self.alloc_snapshot(), &ws.last_meta.lock())
    }

    /// The allocation table as a checkpoint records it. Between durable
    /// commits it holds the open group's entries, not its held frees.
    pub fn alloc_snapshot(&self) -> AllocSnapshot {
        self.alloc.read().table.clone()
    }

    /// Snapshot of cumulative I/O counters. Per-shard pool counters are
    /// folded in here, so `cache_hits` and `pool_evictions` are exact
    /// totals across shards.
    pub fn stats(&self) -> IoStats {
        let mut s = self.stats.snapshot();
        if let Some(pool) = &self.pool {
            s.cache_hits = pool.hits();
            s.pool_evictions = pool.evictions();
        }
        s
    }

    /// Resets all I/O counters — including per-shard pool counters — to
    /// zero (allocation state and resident pages are untouched).
    pub fn reset_stats(&self) {
        self.stats.reset();
        if let Some(pool) = &self.pool {
            pool.reset_stats();
        }
    }

    /// Number of buffer-pool shards (`0` in strict mode).
    pub fn pool_shards(&self) -> usize {
        self.pool.as_ref().map_or(0, ShardedPool::shard_count)
    }

    /// The pool shard page `id` maps to, or `None` in strict mode. Exposed
    /// so tests and benchmarks can construct same-shard (adversarial) and
    /// cross-shard workloads.
    pub fn pool_shard_of(&self, id: PageId) -> Option<usize> {
        self.pool.as_ref().map(|p| p.shard_of(id))
    }

    /// Per-shard pool counter snapshot (`None` in strict mode), index-
    /// aligned with [`PageStore::pool_shard_of`].
    pub fn pool_shard_stats(&self) -> Option<Vec<crate::pool::ShardStats>> {
        self.pool.as_ref().map(ShardedPool::shard_stats)
    }

    /// Number of currently allocated pages — the measured *space* in every
    /// experiment, in units of disk blocks.
    pub fn live_pages(&self) -> u64 {
        let a = self.alloc.read();
        a.allocated.iter().filter(|&&x| x).count() as u64
    }

    /// Ids of all currently allocated pages, in id order. Used by repair
    /// walks and by tests that corrupt every live page in turn.
    pub fn allocated_pages(&self) -> Vec<PageId> {
        let a = self.alloc.read();
        a.allocated
            .iter()
            .enumerate()
            .filter_map(|(i, &live)| live.then_some(PageId(i as u64)))
            .collect()
    }

    /// Fault injection for tests: flips one byte of the stored frame for
    /// page `id`, bypassing the pool, so the next uncached read fails its
    /// checksum. Buffered dirty pages are flushed first — corrupting the
    /// stored frame must not silently drop a pending write — and `id` is
    /// dropped from the pool so the corruption is actually observed.
    /// Testing aid only. The flip is an XOR: injecting the same
    /// `byte_offset` twice restores the frame bit-for-bit.
    pub fn inject_corruption(&self, id: PageId, byte_offset: usize) -> Result<()> {
        self.check_allocated(id)?;
        if let Some(pool) = &self.pool {
            pool.flush(|vid, vdata| self.backend_write(vid, vdata))?;
            pool.discard(id);
        }
        let mut frame = vec![0u8; self.page_size + CHECKSUM_LEN];
        self.backend.read_frame(id, &mut frame)?;
        frame[byte_offset] ^= 0xff;
        self.backend.write_frame(id, &frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn alloc_write_read_roundtrip_counts_io() {
        let store = PageStore::in_memory(64);
        let id = store.alloc().unwrap();
        store.write(id, b"abc").unwrap();
        let page = store.read(id).unwrap();
        assert_eq!(&page[..3], b"abc");
        assert!(page[3..].iter().all(|&b| b == 0));
        let s = store.stats();
        assert_eq!((s.reads, s.writes, s.allocs), (1, 1, 1));
    }

    #[test]
    fn unallocated_access_is_rejected() {
        let store = PageStore::in_memory(64);
        assert!(matches!(store.read(PageId(0)), Err(StoreError::PageNotAllocated(_))));
        assert!(matches!(store.write(PageId(3), b"x"), Err(StoreError::PageNotAllocated(_))));
        assert!(matches!(store.read(NULL_PAGE), Err(StoreError::PageNotAllocated(_))));
        let id = store.alloc().unwrap();
        store.free(id).unwrap();
        assert!(matches!(store.read(id), Err(StoreError::PageNotAllocated(_))));
        assert!(matches!(store.free(id), Err(StoreError::PageNotAllocated(_))));
    }

    #[test]
    fn freed_pages_are_recycled() {
        let store = PageStore::in_memory(64);
        let a = store.alloc().unwrap();
        let b = store.alloc().unwrap();
        store.free(a).unwrap();
        let c = store.alloc().unwrap();
        assert_eq!(c, a, "free list should recycle");
        assert_ne!(b, c);
        assert_eq!(store.live_pages(), 2);
    }

    #[test]
    fn oversized_payload_is_rejected() {
        let store = PageStore::in_memory(64);
        let id = store.alloc().unwrap();
        let big = vec![1u8; 65];
        assert!(matches!(store.write(id, &big), Err(StoreError::PayloadTooLarge { .. })));
    }

    #[test]
    fn never_written_page_reads_as_zero() {
        let store = PageStore::in_memory(64);
        let id = store.alloc().unwrap();
        let page = store.read(id).unwrap();
        assert!(page.iter().all(|&b| b == 0));
    }

    #[test]
    fn checksum_detects_corruption() {
        let store = PageStore::in_memory(64);
        let id = store.alloc().unwrap();
        store.write(id, b"payload").unwrap();
        store.inject_corruption(id, 2).unwrap();
        assert!(matches!(store.read(id), Err(StoreError::ChecksumMismatch(_))));
    }

    #[test]
    fn strict_mode_counts_every_access() {
        let store = PageStore::in_memory(64);
        let id = store.alloc().unwrap();
        store.write(id, b"x").unwrap();
        for _ in 0..10 {
            store.read(id).unwrap();
        }
        let s = store.stats();
        assert_eq!(s.reads, 10);
        assert_eq!(s.cache_hits, 0);
    }

    #[test]
    fn pooled_mode_absorbs_repeat_reads() {
        let store = PageStore::in_memory_pooled(64, 4);
        let id = store.alloc().unwrap();
        store.write(id, b"x").unwrap();
        for _ in 0..10 {
            store.read(id).unwrap();
        }
        let s = store.stats();
        assert_eq!(s.reads, 0, "write left the page resident");
        assert_eq!(s.cache_hits, 10);
        assert_eq!(s.writes, 0, "write is still buffered");
        store.sync().unwrap();
        assert_eq!(store.stats().writes, 1);
    }

    #[test]
    fn pool_hits_are_zero_copy() {
        let store = PageStore::in_memory_pooled(64, 4);
        let id = store.alloc().unwrap();
        store.write(id, b"zc").unwrap();
        let a = store.read(id).unwrap();
        let b = store.read(id).unwrap();
        assert!(a.ptr_eq(&b), "repeated pooled reads must share one buffer");
        // A write replaces the pool's handle; old snapshots are untouched.
        store.write(id, b"new").unwrap();
        let c = store.read(id).unwrap();
        assert!(!a.ptr_eq(&c), "a write must install a fresh buffer");
        assert_eq!(&a[..2], b"zc");
        assert_eq!(&c[..3], b"new");
    }

    #[test]
    fn pooled_evictions_count_in_stats() {
        let store = PageStore::in_memory_pooled_sharded(64, 2, 1);
        assert_eq!(store.pool_shards(), 1);
        let ids: Vec<PageId> = (0..4).map(|_| store.alloc().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            store.write(id, &[i as u8]).unwrap();
        }
        let s = store.stats();
        assert_eq!(s.pool_evictions, 2, "4 dirty pages through a 2-frame pool");
        assert_eq!(s.writes, 2, "each dirty eviction is one backend write");
        store.reset_stats();
        assert_eq!(store.stats(), IoStats::default());
    }

    #[test]
    fn strict_mode_has_no_pool_counters() {
        let store = PageStore::in_memory(64);
        let id = store.alloc().unwrap();
        store.write(id, b"x").unwrap();
        store.read(id).unwrap();
        let s = store.stats();
        assert_eq!((s.cache_hits, s.pool_evictions), (0, 0));
        assert_eq!(store.pool_shards(), 0);
        assert!(store.pool_shard_of(id).is_none());
    }

    #[test]
    fn pooled_eviction_writes_back_and_rereads() {
        let store = PageStore::in_memory_pooled(64, 2);
        let ids: Vec<PageId> = (0..4).map(|_| store.alloc().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            store.write(id, &[i as u8]).unwrap();
        }
        // Pool of 2 cannot hold 4 dirty pages: at least 2 write-backs.
        assert!(store.stats().writes >= 2);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(store.read(id).unwrap()[0], i as u8);
        }
    }

    #[test]
    fn reset_stats_zeroes_counters_only() {
        let store = PageStore::in_memory(64);
        let id = store.alloc().unwrap();
        store.write(id, b"x").unwrap();
        store.reset_stats();
        assert_eq!(store.stats(), IoStats::default());
        assert_eq!(&store.read(id).unwrap()[..1], b"x");
        assert_eq!(store.stats().reads, 1);
    }

    #[test]
    fn file_backed_store_roundtrips() {
        let dir = std::env::temp_dir().join(format!("pcstore-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.bin");
        {
            let store = PageStore::file(&path, 64).unwrap();
            let id = store.alloc().unwrap();
            store.write(id, b"durable").unwrap();
            store.sync().unwrap();
            assert_eq!(&store.read(id).unwrap()[..7], b"durable");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn allocated_pages_lists_live_ids_in_order() {
        let store = PageStore::in_memory(64);
        let ids: Vec<PageId> = (0..4).map(|_| store.alloc().unwrap()).collect();
        store.free(ids[1]).unwrap();
        assert_eq!(store.allocated_pages(), vec![ids[0], ids[2], ids[3]]);
    }

    #[test]
    fn durable_store_writes_a_fresh_page_straight_to_the_backend() {
        let (store, report) = PageStore::in_memory_durable(64);
        assert!(report.clean(), "fresh store: nothing to recover: {report:?}");
        assert!(store.is_durable());
        let id = store.alloc().unwrap();
        store.write(id, b"logged").unwrap();
        assert_eq!(store.stats().writes, 1, "the page reaches the backend once");
        assert_eq!(&store.read(id).unwrap()[..6], b"logged");
        let s = store.stats();
        assert_eq!((s.reads, s.cache_hits), (0, 1), "the write left the page in the pool");
        assert_eq!(s.logical_reads(), 1, "a durable read counts one logical read");
        let ws = store.wal_stats().unwrap();
        assert_eq!((ws.dirty_pages, ws.dirty_hits), (0, 0));
        assert_eq!(ws.appends, 2, "open-time checkpoint + alloc; the log holds no page");
        assert_eq!(ws.commits, 0);
    }

    /// A backend that counts the frames read from it.
    struct CountingReads(MemBackend, Arc<AtomicU64>);

    impl Backend for CountingReads {
        fn frame_size(&self) -> usize {
            self.0.frame_size()
        }
        fn read_frame(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.read_frame(id, buf)
        }
        fn write_frame(&self, id: PageId, buf: &[u8]) -> Result<()> {
            self.0.write_frame(id, buf)
        }
        fn sync(&self) -> Result<()> {
            self.0.sync()
        }
        fn frame_count(&self) -> u64 {
            self.0.frame_count()
        }
    }

    #[test]
    fn durable_reads_of_pages_written_lately_skip_the_backend_not_the_count() {
        let frames = Arc::new(AtomicU64::new(0));
        let backend = CountingReads(MemBackend::new(64 + CHECKSUM_LEN), frames.clone());
        let (store, _) = PageStore::new_durable(
            StoreConfig::strict(64),
            Box::new(backend),
            Box::new(MemLog::new()),
            WalConfig::default(),
        )
        .unwrap();
        let a = store.alloc().unwrap();
        store.write(a, b"v1").unwrap();
        store.write(a, b"v2").unwrap();
        store.sync().unwrap();
        assert_eq!(&store.read(a).unwrap()[..2], b"v2", "the newest image");
        let s = store.stats();
        assert_eq!((s.cache_hits, s.logical_reads(), frames.load(Ordering::Relaxed)), (1, 1, 0));
        // A free drops the image: the recycled id reads as zeros, from the
        // backend.
        store.free(a).unwrap();
        store.sync().unwrap();
        assert_eq!(store.alloc().unwrap(), a);
        assert!(store.read(a).unwrap().iter().all(|&b| b == 0));
        let s = store.stats();
        assert_eq!((s.cache_hits, s.logical_reads(), frames.load(Ordering::Relaxed)), (1, 2, 1));
    }

    #[test]
    fn durable_write_the_backend_fails_leaves_the_old_bytes_in_pool_and_backend() {
        let mem = Arc::new(MemBackend::new(64 + CHECKSUM_LEN));
        let backend = crate::FaultBackend::new(Box::new(mem.clone()), crate::FaultPlan::none(5));
        let handle = backend.handle();
        let (store, _) = PageStore::new_durable(
            StoreConfig::strict(64),
            Box::new(backend),
            Box::new(MemLog::new()),
            WalConfig::default(),
        )
        .unwrap();
        let id = store.alloc().unwrap();
        store.write(id, b"v1").unwrap();
        handle.fail_nth_write(id, 2);
        assert!(store.write(id, b"v2").is_err(), "the backend's error is returned");
        let before = store.stats();
        assert_eq!(&store.read(id).unwrap()[..2], b"v1", "the pool kept the old frame");
        assert_eq!((store.stats() - before).cache_hits, 1);
        let mut frame = vec![0u8; 64 + CHECKSUM_LEN];
        mem.read_frame(id, &mut frame).unwrap();
        assert_eq!(&frame[..2], b"v1", "and so did the backend");
        store.write(id, b"v3").unwrap();
        assert_eq!(&store.read(id).unwrap()[..2], b"v3");
    }

    #[test]
    fn durable_write_to_a_committed_page_is_refused() {
        let (store, _) = PageStore::in_memory_durable(64);
        let id = store.alloc().unwrap();
        store.write(id, b"v1").unwrap();
        store.write(id, b"v2").unwrap();
        store.sync().unwrap();
        assert!(matches!(store.write(id, b"v3"), Err(StoreError::CommittedPage(p)) if p == id));
        assert_eq!(&store.read(id).unwrap()[..2], b"v2", "the committed page is intact");
        assert_eq!(store.stats().writes, 2);
    }

    /// A relocated page is written once, over a recycled id too: no zeroing
    /// write first.
    #[test]
    fn durable_copy_on_write_to_a_recycled_page_writes_it_once() {
        for durable in [true, false] {
            let store = Arc::new(if durable {
                PageStore::in_memory_durable(64).0
            } else {
                PageStore::in_memory(64)
            });
            let [a, b] = [store.alloc().unwrap(), store.alloc().unwrap()];
            store.write(a, b"a").unwrap();
            store.sync().unwrap();
            store.free(b).unwrap();
            store.sync().unwrap();
            let vs =
                crate::VersionedStore::new(store.clone(), crate::VersionConfig::default(), &[]);
            let session = vs.begin_apply();
            let before = store.stats().writes;
            let to = store.relocate(a).unwrap();
            assert_eq!(to, b, "the recycled id");
            store.write(to, b"a2").unwrap();
            assert_eq!(store.stats().writes - before, 1, "durable: {durable}");
            session.install(&[]).unwrap();
        }
    }

    #[test]
    fn durable_freed_page_is_reused_only_after_the_next_commit() {
        let (store, _) = PageStore::in_memory_durable(64);
        let a = store.alloc().unwrap();
        store.write(a, b"committed").unwrap();
        store.sync().unwrap();
        store.free(a).unwrap();
        let b = store.alloc().unwrap();
        assert_ne!(b, a, "a page the last commit holds is not reused before the next");
        // A page allocated and freed within one group is reused at once.
        store.free(b).unwrap();
        assert_eq!(store.alloc().unwrap(), b);
        store.sync().unwrap();
        assert_eq!(store.alloc().unwrap(), a, "the commit released it");
    }

    #[test]
    fn durable_commit_then_checkpoint_flushes_to_the_backend() {
        let (store, _) = PageStore::in_memory_durable(64);
        let ids: Vec<PageId> = (0..3).map(|_| store.alloc().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            store.write(id, &[i as u8 + 1]).unwrap();
        }
        assert_eq!(store.stats().writes, 3, "each write is one backend transfer");
        assert_eq!(store.commit_with(b"batch-7").unwrap(), 3, "3 allocs");
        assert_eq!(store.commit_with(b"empty").unwrap(), 0);
        store.checkpoint().unwrap();
        // Open + explicit: install_checkpoint ran twice, and wrote nothing.
        assert_eq!(store.wal_stats().unwrap().checkpoints, 2);
        assert_eq!(store.stats().writes, 3);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(store.read(id).unwrap()[0], i as u8 + 1);
        }
        let s = store.stats();
        assert_eq!((s.cache_hits, s.logical_reads()), (3, 3), "the writes left them resident");
    }

    #[test]
    fn durable_sync_is_a_group_commit() {
        let (store, _) = PageStore::in_memory_durable(64);
        let id = store.alloc().unwrap();
        store.write(id, b"x").unwrap();
        store.sync().unwrap();
        let ws = store.wal_stats().unwrap();
        assert_eq!(ws.commits, 1);
        assert_eq!(ws.fsyncs, 2, "open-time checkpoint + the commit");
        assert_eq!(ws.max_group, 1, "the alloc; the write is not logged");

        // A commit is one log fsync however many pages it carries: 256
        // fresh pages committed every k cost 256 / k fsyncs.
        for (k, fsyncs) in [(1, 256), (4, 64), (16, 16), (64, 4)] {
            let (store, _) = PageStore::in_memory_durable(4096);
            let before = store.wal_stats().unwrap().fsyncs;
            for u in 0..256u64 {
                let id = store.alloc().unwrap();
                store.write(id, &[u as u8; 128]).unwrap();
                if (u + 1) % k == 0 {
                    store.commit_with(&u.to_le_bytes()).unwrap();
                }
            }
            let ws = store.wal_stats().unwrap();
            assert_eq!((ws.fsyncs - before, ws.max_group), (fsyncs, k), "k = {k}");
        }
    }

    #[test]
    fn durable_recycled_page_reads_zero_not_stale() {
        let (store, _) = PageStore::in_memory_durable(64);
        let a = store.alloc().unwrap();
        store.write(a, b"secret").unwrap();
        store.checkpoint().unwrap();
        store.free(a).unwrap();
        store.sync().unwrap();
        let b = store.alloc().unwrap();
        assert_eq!(b, a, "free list recycles");
        let page = store.read(b).unwrap();
        assert!(page.iter().all(|&x| x == 0), "recycled page must not leak old bytes");
    }

    #[test]
    fn durable_auto_checkpoint_bounds_the_log() {
        let (store, _) = PageStore::new_durable(
            StoreConfig::strict(64),
            Box::new(MemBackend::new(64 + CHECKSUM_LEN)),
            Box::new(MemLog::new()),
            WalConfig { checkpoint_bytes: 256 },
        )
        .unwrap();
        let mut id = store.alloc().unwrap();
        for i in 0..20u8 {
            let next = store.alloc().unwrap();
            store.write(next, &[i; 40]).unwrap();
            store.free(id).unwrap();
            id = next;
            store.sync().unwrap();
        }
        let ws = store.wal_stats().unwrap();
        assert!(ws.checkpoints > 1, "commits past the threshold must checkpoint: {ws:?}");
        assert!(ws.log_bytes < 512, "log stays bounded: {ws:?}");
        assert_eq!(store.live_pages(), 1);
    }

    #[test]
    fn durable_corruption_injection_still_detected() {
        let (store, _) = PageStore::in_memory_durable(64);
        let id = store.alloc().unwrap();
        store.write(id, b"payload").unwrap();
        store.inject_corruption(id, 2).unwrap();
        assert!(matches!(store.read(id), Err(StoreError::ChecksumMismatch(_))));
    }

    #[test]
    fn commit_meta_sticks_across_sync_checkpoint_and_reopen() {
        use crate::crash::{CrashBackend, CrashController, CrashLog, CrashPlan};
        let ctrl = CrashController::new(CrashPlan::count_only(11));
        let backend = Arc::new(CrashBackend::new(64 + CHECKSUM_LEN, ctrl.clone()));
        let log = Arc::new(CrashLog::new(ctrl));
        let (store, _) = PageStore::new_durable(
            StoreConfig::strict(64),
            Box::new(backend.clone()),
            Box::new(log.clone()),
            WalConfig::default(),
        )
        .unwrap();
        let id = store.alloc().unwrap();
        store.write(id, b"v1").unwrap();
        store.commit_with(b"tagged-epoch").unwrap();
        // An empty-meta group commit (sync) must re-stamp, not clobber.
        let id2 = store.alloc().unwrap();
        store.write(id2, b"v2").unwrap();
        store.sync().unwrap();
        // A checkpoint resets the log; the metadata rides the checkpoint.
        store.checkpoint().unwrap();
        drop(store);
        let (reopened, report) = PageStore::new_durable(
            StoreConfig::strict(64),
            Box::new(backend.surviving_backend()),
            Box::new(log.surviving_log()),
            WalConfig::default(),
        )
        .unwrap();
        assert_eq!(
            report.last_commit_meta.as_deref(),
            Some(&b"tagged-epoch"[..]),
            "metadata must survive sync + checkpoint + reopen: {report:?}"
        );
        assert_eq!(&reopened.read(id).unwrap()[..2], b"v1");
        assert_eq!(&reopened.read(id2).unwrap()[..2], b"v2");
    }

    #[test]
    fn volatile_store_commit_and_checkpoint_are_noops() {
        let store = PageStore::in_memory(64);
        assert!(!store.is_durable());
        assert_eq!(store.commit_with(b"x").unwrap(), 0);
        store.checkpoint().unwrap();
        assert!(store.wal_stats().is_none());
    }

    #[test]
    fn concurrent_reads_and_stat_counting_are_exact() {
        let store = PageStore::in_memory(64);
        let ids: Vec<PageId> = (0..32)
            .map(|i| {
                let id = store.alloc().unwrap();
                store.write(id, &[i as u8]).unwrap();
                id
            })
            .collect();
        store.reset_stats();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for (i, &id) in ids.iter().enumerate() {
                        assert_eq!(store.read(id).unwrap()[0], i as u8);
                    }
                });
            }
        });
        assert_eq!(store.stats().reads, 8 * 32, "atomic counters must not drop increments");
    }
}
