//! Partial persistence: epochs, copy-on-write page mapping, and pinned
//! snapshots — so readers never block on writers.
//!
//! The paper's Thm 5.1 buffering (PR 5's serve batcher) hides update cost
//! behind batching, but every dynamic target still takes one lock per
//! batch: readers stall behind writers. Brodal/Rysgaard/Svenning
//! ("Buffered Partially-Persistent External-Memory Search Trees",
//! PAPERS.md) show the optimal external-memory answer is to combine that
//! buffering with *partial persistence*: updates produce a new immutable
//! version, queries pin one version and proceed untouched. This module is
//! that layer for the page store.
//!
//! ## Model
//!
//! A [`VersionedStore`] wraps an `Arc<PageStore>` and maintains a sequence
//! of **epochs**. Each epoch is an immutable logical→physical page map
//! (plus opaque caller metadata, e.g. the serve layer's target
//! descriptors). Structures keep using plain [`PageId`]s; those ids are
//! *logical* names, and the epoch map records the exceptions where a
//! page's current bytes live somewhere other than its own slot (identity
//! is implied for unmapped ids, so the map stays proportional to pages
//! rewritten since versioning began, not to the structure size).
//!
//! * **Apply sessions** ([`VersionedStore::begin_apply`]): a single writer
//!   thread opens a session; while it is active, every
//!   [`PageStore::write`] to a frozen page is transparently redirected
//!   copy-on-write to a freshly allocated physical page, every
//!   [`PageStore::free`] of a frozen page is deferred (retired, not
//!   returned to the allocator), and reads resolve through the pending
//!   remap. [`ApplyGuard::install`] publishes the batch as the next epoch;
//!   dropping the guard instead aborts and rolls back (fresh pages are
//!   freed, the current epoch never changed).
//! * **Snapshots** ([`VersionedStore::snapshot`] /
//!   [`VersionedStore::snapshot_at`]): pin an epoch. A pinned snapshot's
//!   [`Snapshot::enter`] guard makes the calling thread's reads resolve
//!   through that epoch's map — with **no exclusive lock anywhere on the
//!   path** (the thread-local map handle is pre-pinned; the store's
//!   allocation table and `MemBackend` take shared reads only), which is
//!   what the `snapshot_semantics` suite pins with
//!   `pc_sync::exclusive_acquisitions`.
//! * **GC**: pages superseded at epoch `N` are *retired*, tagged `N`, and
//!   reclaimed only once every retained epoch has seq ≥ `N` — retention is
//!   bounded by [`VersionConfig::retain`], but a pinned epoch is never
//!   trimmed, so GC can never reclaim a page a live snapshot can reach.
//!
//! ## Name leases
//!
//! Logical ids and physical slots share the base allocator's namespace.
//! When logical page `L`'s bytes move to slot `P`, slot `L` must not be
//! recycled while the *name* `L` is still live — a later `alloc()`
//! handing `L` to an unrelated structure would collide with the mapping.
//! So a remapped page's original slot is kept allocated as a **name
//! lease** and is only retired when the structure frees `L` itself. The
//! cost is one idle slot per live remapped page; the benefit is that the
//! allocator can never hand out a live logical name.
//!
//! ## Durability
//!
//! The copy-on-write above is also how a durable store keeps its rule
//! that a committed page is never overwritten (see the `wal` module
//! docs): every write in a session lands on a page allocated since the
//! last commit. On a durable store, [`ApplyGuard::install`] frames the
//! caller's commit metadata with the new epoch's seq, full map, and
//! pending retirement queue ([`encode_version_meta`]), and group-commits
//! it — so crash recovery's `last_commit_meta` *is* the epoch; the GC
//! frees it makes wait in the allocator until that commit is durable.
//! [`VersionedStore::open`] decodes it, resumes from exactly the last
//! committed epoch, and frees the now-orphaned retirement queue (history
//! is memory-only; only the current epoch survives a crash). A kill
//! mid-install loses only the uncommitted CoW pages, whose ids the
//! recovered allocator calls free or has never handed out — the previous
//! epoch remains the visible version, bit-identical.

use std::any::Any;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use pc_sync::{Mutex, RwLock};

use crate::error::{Result, StoreError};
use crate::store::{PageId, PageStore};

// ---------------------------------------------------------------------------
// Thread-local session state and the store hooks
// ---------------------------------------------------------------------------

struct ApplyCtx {
    store: usize,
    map: Arc<HashMap<u64, u64>>,
    /// Pending remap: `Some(p)` = logical id now lives at `p`;
    /// `None` = drop any inherited mapping (identity / dead name).
    delta: HashMap<u64, Option<u64>>,
    /// Physical pages allocated inside this session. Never visible to any
    /// epoch, so they are written in place and really freed.
    fresh: HashSet<u64>,
    /// Physical slots superseded by this session, to retire at install.
    retired: Vec<u64>,
}

enum Ctx {
    Snapshot { store: usize, map: Arc<HashMap<u64, u64>> },
    Apply(ApplyCtx),
}

thread_local! {
    static ACTIVE: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

fn resolve(map: &HashMap<u64, u64>, delta: &HashMap<u64, Option<u64>>, id: u64) -> u64 {
    match delta.get(&id) {
        Some(Some(p)) => *p,
        Some(None) => id,
        None => map.get(&id).copied().unwrap_or(id),
    }
}

/// Read-path hook: logical→physical translation for the calling thread's
/// pinned snapshot or apply session (identity otherwise).
pub(crate) fn translate(store: usize, id: PageId) -> PageId {
    ACTIVE.with(|c| match &*c.borrow() {
        Some(Ctx::Snapshot { store: s, map }) if *s == store => {
            PageId(map.get(&id.0).copied().unwrap_or(id.0))
        }
        Some(Ctx::Apply(a)) if a.store == store => PageId(resolve(&a.map, &a.delta, id.0)),
        _ => PageId(id.0),
    })
}

pub(crate) enum WriteRoute {
    /// Write this physical page in place.
    Direct(PageId),
    /// The target is frozen: allocate a fresh page, then [`note_cow`].
    Cow,
}

/// Write-path hook: decides whether a logical write goes in place (no
/// session, or the page is already a fresh copy) or needs copy-on-write.
pub(crate) fn write_route(store: usize, id: PageId) -> WriteRoute {
    ACTIVE.with(|c| match &*c.borrow() {
        Some(Ctx::Apply(a)) if a.store == store => {
            let phys = resolve(&a.map, &a.delta, id.0);
            if a.fresh.contains(&phys) {
                WriteRoute::Direct(PageId(phys))
            } else {
                WriteRoute::Cow
            }
        }
        _ => WriteRoute::Direct(id),
    })
}

/// Records a copy-on-write: logical `id` now lives at freshly allocated
/// `fresh`; the superseded physical page is retired (unless it is the
/// logical id's own slot, which stays allocated as a name lease).
pub(crate) fn note_cow(store: usize, id: PageId, fresh: PageId) {
    ACTIVE.with(|c| {
        let mut b = c.borrow_mut();
        let Some(Ctx::Apply(a)) = &mut *b else { return };
        if a.store != store {
            return;
        }
        let old = resolve(&a.map, &a.delta, id.0);
        if old != id.0 {
            a.retired.push(old);
        }
        a.delta.insert(id.0, Some(fresh.0));
    });
}

pub(crate) enum FreeRoute {
    /// Really free this physical page.
    Direct(PageId),
    /// Frozen content: retired for GC, nothing freed now.
    Deferred,
}

/// Free-path hook. Fresh pages are really freed; frozen content is
/// deferred to epoch GC. Either way the logical name's mapping is dropped
/// from the next epoch, and a remapped name's leased slot is retired.
pub(crate) fn free_route(store: usize, id: PageId) -> FreeRoute {
    ACTIVE.with(|c| {
        let mut b = c.borrow_mut();
        let Some(Ctx::Apply(a)) = &mut *b else { return FreeRoute::Direct(id) };
        if a.store != store {
            return FreeRoute::Direct(id);
        }
        let phys = resolve(&a.map, &a.delta, id.0);
        if a.fresh.remove(&phys) {
            if phys != id.0 {
                // The fresh copy dies for real, but the name's own slot
                // still holds frozen bytes older epochs may reach.
                a.retired.push(id.0);
            }
            a.delta.insert(id.0, None);
            FreeRoute::Direct(PageId(phys))
        } else {
            a.retired.push(phys);
            if phys != id.0 {
                a.retired.push(id.0);
            }
            a.delta.insert(id.0, None);
            FreeRoute::Deferred
        }
    })
}

/// Alloc-path hook: inside a session every allocation is a fresh page; a
/// recycled slot also shadows any stale inherited mapping for its id.
pub(crate) fn note_alloc(store: usize, id: PageId) {
    ACTIVE.with(|c| {
        let mut b = c.borrow_mut();
        let Some(Ctx::Apply(a)) = &mut *b else { return };
        if a.store != store {
            return;
        }
        a.fresh.insert(id.0);
        if a.map.contains_key(&id.0) || a.delta.contains_key(&id.0) {
            a.delta.insert(id.0, None);
        }
    });
}

fn install_ctx(ctx: Ctx) {
    ACTIVE.with(|c| {
        let mut b = c.borrow_mut();
        assert!(
            b.is_none(),
            "a version context (snapshot or apply session) is already active on this thread"
        );
        *b = Some(ctx);
    });
}

fn take_apply(store: usize) -> ApplyCtx {
    ACTIVE.with(|c| {
        let mut b = c.borrow_mut();
        match b.take() {
            Some(Ctx::Apply(a)) if a.store == store => a,
            other => {
                *b = other;
                panic!("no apply session active for this store on this thread");
            }
        }
    })
}

fn clear_snapshot(store: usize) {
    ACTIVE.with(|c| {
        let mut b = c.borrow_mut();
        match b.take() {
            Some(Ctx::Snapshot { store: s, .. }) if s == store => {}
            other => *b = other,
        }
    });
}

// ---------------------------------------------------------------------------
// Epochs, snapshots, the versioned store
// ---------------------------------------------------------------------------

struct Epoch {
    seq: u64,
    map: Arc<HashMap<u64, u64>>,
    user_meta: Vec<u8>,
    pins: AtomicU64,
    /// Per-epoch cache of derived read-only artifacts (the serve layer
    /// parks one opened frozen view per target here, keyed by target
    /// index). Hits take a shared read lock only.
    cache: RwLock<HashMap<u64, Arc<dyn Any + Send + Sync>>>,
}

/// A pinned, immutable version of the store. Reads made under
/// [`Snapshot::enter`] resolve through this epoch's page map and are
/// bit-identical for the snapshot's whole lifetime, no matter how many
/// later epochs install concurrently. Dropping the snapshot releases the
/// pin (making the epoch eligible for retention trimming and GC).
pub struct Snapshot {
    base: Arc<PageStore>,
    epoch: Arc<Epoch>,
}

impl Snapshot {
    /// The pinned epoch's sequence number.
    pub fn seq(&self) -> u64 {
        self.epoch.seq
    }

    /// The opaque caller metadata installed with this epoch (the serve
    /// layer's batch seq + target descriptors).
    pub fn user_meta(&self) -> &[u8] {
        &self.epoch.user_meta
    }

    /// Makes the calling thread's reads of the underlying store resolve
    /// through this snapshot's page map until the guard drops. Panics if
    /// the thread already has a snapshot or apply session active.
    pub fn enter(&self) -> SnapshotGuard<'_> {
        let store = store_addr(&self.base);
        install_ctx(Ctx::Snapshot { store, map: self.epoch.map.clone() });
        SnapshotGuard { store, _snap: self }
    }

    /// Cached derived artifact for `key` (shared-read lookup).
    pub fn cached(&self, key: u64) -> Option<Arc<dyn Any + Send + Sync>> {
        self.epoch.cache.read().get(&key).cloned()
    }

    /// Inserts a derived artifact for `key`; first insert wins and is
    /// returned (so racing builders converge on one artifact).
    pub fn cache_put(
        &self,
        key: u64,
        value: Arc<dyn Any + Send + Sync>,
    ) -> Arc<dyn Any + Send + Sync> {
        let mut c = self.epoch.cache.write();
        c.entry(key).or_insert(value).clone()
    }
}

impl Clone for Snapshot {
    fn clone(&self) -> Self {
        self.epoch.pins.fetch_add(1, Relaxed);
        Snapshot { base: self.base.clone(), epoch: self.epoch.clone() }
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.epoch.pins.fetch_sub(1, Relaxed);
    }
}

/// Active thread-local read translation for a [`Snapshot`]; see
/// [`Snapshot::enter`].
pub struct SnapshotGuard<'a> {
    store: usize,
    _snap: &'a Snapshot,
}

impl Drop for SnapshotGuard<'_> {
    fn drop(&mut self) {
        clear_snapshot(self.store);
    }
}

/// Configuration for a [`VersionedStore`].
#[derive(Debug, Clone, Copy)]
pub struct VersionConfig {
    /// Upper bound on *unpinned* retained epochs (the `as_of` time-travel
    /// window). Pinned epochs are always retained regardless. Minimum 1
    /// (the current epoch is always retained).
    pub retain: usize,
}

impl Default for VersionConfig {
    fn default() -> Self {
        VersionConfig { retain: 8 }
    }
}

struct VersionState {
    /// Retained epochs, oldest front, current back. Never empty.
    epochs: VecDeque<Arc<Epoch>>,
    /// Retired physical slots awaiting GC: `(installing epoch seq, slots)`,
    /// in seq order. A group is reclaimable once every retained epoch has
    /// seq ≥ its tag.
    retired: VecDeque<(u64, Vec<u64>)>,
}

/// Point-in-time observability snapshot of a [`VersionedStore`]; the
/// `pc_version_*` exposition families render from this.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VersionMetrics {
    /// Current (newest) epoch seq.
    pub current_seq: u64,
    /// Oldest retained epoch seq (the `as_of` floor).
    pub oldest_seq: u64,
    /// Retained epoch count.
    pub retained: u64,
    /// Epochs installed over this store's lifetime.
    pub installed: u64,
    /// Superseded pages reclaimed by GC over this store's lifetime.
    pub reclaimed_pages: u64,
    /// Snapshots currently pinning an epoch.
    pub pinned: u64,
    /// Age of the oldest pinned epoch in epochs behind current (0 when
    /// nothing older than current is pinned).
    pub oldest_pin_age: u64,
}

/// The epoch manager: partial persistence over one shared [`PageStore`].
/// See the module docs for the model.
pub struct VersionedStore {
    base: Arc<PageStore>,
    state: Mutex<VersionState>,
    retain: usize,
    installed: AtomicU64,
    reclaimed: AtomicU64,
}

fn store_addr(store: &Arc<PageStore>) -> usize {
    Arc::as_ptr(store) as usize
}

impl VersionedStore {
    /// Fresh versioned view over `base` at epoch 0 (empty map), carrying
    /// `initial_user_meta` so epoch-0 snapshots can resolve frozen views.
    pub fn new(base: Arc<PageStore>, cfg: VersionConfig, initial_user_meta: &[u8]) -> Self {
        Self::with_epoch0(base, cfg, 0, HashMap::new(), initial_user_meta.to_vec(), Vec::new())
    }

    /// Reopens a versioned view from a recovered store: `recovered_meta`
    /// is the `RecoveryReport::last_commit_meta` payload. A version frame
    /// restores the exact committed epoch (seq, map, metadata) and frees
    /// its orphaned retirement queue — older epochs do not survive a
    /// crash, so every pending retiree is immediately reclaimable. A bare
    /// (legacy) payload or `None` starts at epoch 0 with that payload as
    /// the user metadata.
    pub fn open(base: Arc<PageStore>, recovered_meta: Option<&[u8]>, cfg: VersionConfig) -> Self {
        match recovered_meta.and_then(decode_version_meta) {
            Some(m) => {
                let orphans: Vec<u64> = m.retired.into_iter().flat_map(|(_, ids)| ids).collect();
                let vs = Self::with_epoch0(base, cfg, m.seq, m.map, m.user, Vec::new());
                let mut freed = 0u64;
                for p in orphans {
                    // The frees ride the next commit; a crash before it
                    // loses them, and the next open frees the same
                    // (still-pending) queue again.
                    if vs.base.free(PageId(p)).is_ok() {
                        freed += 1;
                    }
                }
                vs.note_reclaimed(freed);
                vs
            }
            None => {
                let user = recovered_meta.unwrap_or_default().to_vec();
                Self::with_epoch0(base, cfg, 0, HashMap::new(), user, Vec::new())
            }
        }
    }

    fn with_epoch0(
        base: Arc<PageStore>,
        cfg: VersionConfig,
        seq: u64,
        map: HashMap<u64, u64>,
        user_meta: Vec<u8>,
        retired: Vec<(u64, Vec<u64>)>,
    ) -> Self {
        let epoch = Arc::new(Epoch {
            seq,
            map: Arc::new(map),
            user_meta,
            pins: AtomicU64::new(0),
            cache: RwLock::new(HashMap::new()),
        });
        VersionedStore {
            base,
            state: Mutex::new(VersionState {
                epochs: VecDeque::from([epoch]),
                retired: VecDeque::from(retired),
            }),
            retain: cfg.retain.max(1),
            installed: AtomicU64::new(0),
            reclaimed: AtomicU64::new(0),
        }
    }

    /// The wrapped page store.
    pub fn base(&self) -> &Arc<PageStore> {
        &self.base
    }

    /// Current (newest) epoch seq.
    pub fn current_seq(&self) -> u64 {
        self.state.lock().epochs.back().expect("epochs never empty").seq
    }

    /// Inclusive `(oldest, current)` retained seq range — the window
    /// `as_of` can address.
    pub fn retained_range(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.epochs.front().unwrap().seq, st.epochs.back().unwrap().seq)
    }

    /// Pins the current epoch.
    pub fn snapshot(&self) -> Snapshot {
        let st = self.state.lock();
        let epoch = st.epochs.back().unwrap().clone();
        epoch.pins.fetch_add(1, Relaxed);
        Snapshot { base: self.base.clone(), epoch }
    }

    /// Pins the retained epoch with exactly seq `seq`, or reports the
    /// retained range in the error.
    pub fn snapshot_at(&self, seq: u64) -> Result<Snapshot> {
        let st = self.state.lock();
        match st.epochs.iter().find(|e| e.seq == seq) {
            Some(e) => {
                e.pins.fetch_add(1, Relaxed);
                Ok(Snapshot { base: self.base.clone(), epoch: e.clone() })
            }
            None => Err(StoreError::VersionNotRetained {
                requested: seq,
                oldest: st.epochs.front().unwrap().seq,
                current: st.epochs.back().unwrap().seq,
            }),
        }
    }

    /// Opens a copy-on-write apply session on the calling thread. Until
    /// [`ApplyGuard::install`], every write to a frozen page through the
    /// base store is redirected to a fresh page and every free of frozen
    /// content is deferred — concurrent snapshot readers (other threads)
    /// observe nothing. One writer at a time: this is the serve batcher's
    /// single-threaded apply stage, and the session is thread-local.
    pub fn begin_apply(&self) -> ApplyGuard<'_> {
        let map = self.state.lock().epochs.back().unwrap().map.clone();
        install_ctx(Ctx::Apply(ApplyCtx {
            store: store_addr(&self.base),
            map,
            delta: HashMap::new(),
            fresh: HashSet::new(),
            retired: Vec::new(),
        }));
        ApplyGuard { vs: self, armed: true }
    }

    /// Trims the retention window and reclaims every newly unreachable
    /// retired page. Runs automatically at install; call it directly after
    /// dropping long-held snapshots. Returns pages freed.
    pub fn collect(&self) -> Result<u64> {
        let to_free = {
            let mut st = self.state.lock();
            trim(&mut st, self.retain)
        };
        let freed = self.free_all(&to_free)?;
        Ok(freed)
    }

    /// Observability snapshot.
    pub fn metrics(&self) -> VersionMetrics {
        let st = self.state.lock();
        let current = st.epochs.back().unwrap().seq;
        let mut pinned = 0u64;
        let mut oldest_pinned: Option<u64> = None;
        for e in &st.epochs {
            let p = e.pins.load(Relaxed);
            if p > 0 {
                pinned += p;
                if oldest_pinned.is_none() {
                    oldest_pinned = Some(e.seq);
                }
            }
        }
        VersionMetrics {
            current_seq: current,
            oldest_seq: st.epochs.front().unwrap().seq,
            retained: st.epochs.len() as u64,
            installed: self.installed.load(Relaxed),
            reclaimed_pages: self.reclaimed.load(Relaxed),
            pinned,
            oldest_pin_age: oldest_pinned.map_or(0, |s| current - s),
        }
    }

    fn note_reclaimed(&self, n: u64) {
        if n > 0 {
            self.reclaimed.fetch_add(n, Relaxed);
        }
    }

    fn free_all(&self, pages: &[u64]) -> Result<u64> {
        let mut freed = 0u64;
        for &p in pages {
            self.base.free(PageId(p))?;
            freed += 1;
        }
        self.note_reclaimed(freed);
        Ok(freed)
    }
}

fn trim(st: &mut VersionState, retain: usize) -> Vec<u64> {
    while st.epochs.len() > retain && st.epochs.front().unwrap().pins.load(Relaxed) == 0 {
        st.epochs.pop_front();
    }
    let floor = st.epochs.front().unwrap().seq;
    let mut out = Vec::new();
    while st.retired.front().is_some_and(|(tag, _)| *tag <= floor) {
        out.extend(st.retired.pop_front().unwrap().1);
    }
    out
}

/// An open apply session; see [`VersionedStore::begin_apply`]. Must be
/// installed or dropped on the thread that opened it.
pub struct ApplyGuard<'a> {
    vs: &'a VersionedStore,
    armed: bool,
}

impl ApplyGuard<'_> {
    /// Publishes the session as the next epoch (`current seq + 1`).
    pub fn install(self, user_meta: &[u8]) -> Result<u64> {
        let seq = self.vs.current_seq() + 1;
        self.install_as(seq, user_meta)
    }

    /// Publishes the session as epoch `seq` (must exceed the current seq;
    /// the serve batcher passes its batch sequence so `as_of` and Ack
    /// batch numbers coincide), runs GC, and — on a durable base — group-
    /// commits the epoch (version-framed `user_meta`) so it survives
    /// crashes as the visible version.
    pub fn install_as(mut self, seq: u64, user_meta: &[u8]) -> Result<u64> {
        self.armed = false;
        let vs = self.vs;
        let ctx = take_apply(store_addr(&vs.base));
        let (to_free, meta_bytes) = {
            let mut st = vs.state.lock();
            let parent = st.epochs.back().unwrap();
            assert!(seq > parent.seq, "epoch seqs must be strictly increasing");
            let mut map = (*parent.map).clone();
            for (l, d) in ctx.delta {
                match d {
                    Some(p) => {
                        map.insert(l, p);
                    }
                    None => {
                        map.remove(&l);
                    }
                }
            }
            let map = Arc::new(map);
            st.epochs.push_back(Arc::new(Epoch {
                seq,
                map: map.clone(),
                user_meta: user_meta.to_vec(),
                pins: AtomicU64::new(0),
                cache: RwLock::new(HashMap::new()),
            }));
            if !ctx.retired.is_empty() {
                st.retired.push_back((seq, ctx.retired));
            }
            let to_free = trim(&mut st, vs.retain);
            let meta_bytes = vs.base.is_durable().then(|| {
                encode_version_meta(&VersionMeta {
                    seq,
                    map: map.as_ref().clone(),
                    user: user_meta.to_vec(),
                    retired: st.retired.iter().cloned().collect(),
                })
            });
            (to_free, meta_bytes)
        };
        vs.installed.fetch_add(1, Relaxed);
        // Free before committing so the frees and the epoch commit land
        // in one durable group, matching the persisted pending queue.
        vs.free_all(&to_free)?;
        if let Some(meta) = meta_bytes {
            vs.base.commit_with(&meta)?;
        }
        Ok(seq)
    }
}

impl Drop for ApplyGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        // Abort: the epoch never changed, so rollback is just returning
        // the session's fresh pages to the allocator.
        let ctx = take_apply(store_addr(&self.vs.base));
        for p in ctx.fresh {
            let _ = self.vs.base.free(PageId(p));
        }
    }
}

// ---------------------------------------------------------------------------
// Version metadata framing (rides WAL commit metadata)
// ---------------------------------------------------------------------------

/// Magic prefix of a version-framed commit metadata payload.
pub const VERSION_META_MAGIC: &[u8; 4] = b"PCV1";

/// Decoded version frame: one committed epoch plus its pending GC queue.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VersionMeta {
    /// Epoch sequence number.
    pub seq: u64,
    /// Full logical→physical page map of the epoch.
    pub map: HashMap<u64, u64>,
    /// The caller's inner metadata (the serve layer's batch frame).
    pub user: Vec<u8>,
    /// Retired-but-unreclaimed slots: `(installing seq, slots)`.
    pub retired: Vec<(u64, Vec<u64>)>,
}

/// Encodes a version frame. Map entries are sorted so the encoding is
/// deterministic (golden tests depend on it).
pub fn encode_version_meta(m: &VersionMeta) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + m.user.len() + m.map.len() * 16);
    out.extend_from_slice(VERSION_META_MAGIC);
    out.extend_from_slice(&m.seq.to_le_bytes());
    out.extend_from_slice(&(m.user.len() as u32).to_le_bytes());
    out.extend_from_slice(&m.user);
    let mut entries: Vec<(u64, u64)> = m.map.iter().map(|(&k, &v)| (k, v)).collect();
    entries.sort_unstable();
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (k, v) in entries {
        out.extend_from_slice(&k.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&(m.retired.len() as u32).to_le_bytes());
    for (tag, ids) in &m.retired {
        out.extend_from_slice(&tag.to_le_bytes());
        out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
        for id in ids {
            out.extend_from_slice(&id.to_le_bytes());
        }
    }
    out
}

/// Decodes a version frame; `None` for anything that is not one (legacy
/// bare metadata passes through untouched at the call sites).
pub fn decode_version_meta(bytes: &[u8]) -> Option<VersionMeta> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
        let s = bytes.get(*pos..*pos + n)?;
        *pos += n;
        Some(s)
    };
    if take(&mut pos, 4)? != VERSION_META_MAGIC {
        return None;
    }
    let seq = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
    let user_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
    let user = take(&mut pos, user_len)?.to_vec();
    let map_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
    let mut map = HashMap::with_capacity(map_len);
    for _ in 0..map_len {
        let k = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
        let v = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
        map.insert(k, v);
    }
    let groups = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
    let mut retired = Vec::with_capacity(groups);
    for _ in 0..groups {
        let tag = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
        let n = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            ids.push(u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap()));
        }
        retired.push((tag, ids));
    }
    if pos != bytes.len() {
        return None;
    }
    Some(VersionMeta { seq, map, user, retired })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> Arc<PageStore> {
        Arc::new(PageStore::in_memory(64))
    }

    #[test]
    fn cow_preserves_pinned_snapshot_reads() {
        let base = store();
        let vs = VersionedStore::new(base.clone(), VersionConfig::default(), b"meta0");
        let id = base.alloc().unwrap();
        base.write(id, b"v0").unwrap();

        let snap = vs.snapshot();
        assert_eq!(snap.seq(), 0);
        assert_eq!(snap.user_meta(), b"meta0");

        // Two concurrent-style installs rewrite the page twice.
        for (i, payload) in [b"v1", b"v2"].iter().enumerate() {
            let session = vs.begin_apply();
            base.write(id, *payload).unwrap();
            let seq = session.install(format!("meta{}", i + 1).as_bytes()).unwrap();
            assert_eq!(seq, i as u64 + 1);
        }

        // Pinned snapshot still reads the original bytes.
        {
            let _g = snap.enter();
            assert_eq!(&base.read(id).unwrap()[..2], b"v0");
        }
        // The current epoch reads the newest.
        let cur = vs.snapshot();
        {
            let _g = cur.enter();
            assert_eq!(&base.read(id).unwrap()[..2], b"v2");
        }
        // An untranslated read (no snapshot) sees the identity slot, which
        // still holds the frozen v0 bytes (slot is the name lease).
        assert_eq!(&base.read(id).unwrap()[..2], b"v0");
    }

    #[test]
    fn as_of_addresses_each_retained_epoch() {
        let base = store();
        let vs = VersionedStore::new(base.clone(), VersionConfig { retain: 16 }, &[]);
        let id = base.alloc().unwrap();
        base.write(id, &[0]).unwrap();
        for i in 1..=5u8 {
            let s = vs.begin_apply();
            base.write(id, &[i]).unwrap();
            s.install(&[i]).unwrap();
        }
        assert_eq!(vs.retained_range(), (0, 5));
        for i in 0..=5u8 {
            let snap = vs.snapshot_at(i as u64).unwrap();
            let _g = snap.enter();
            assert_eq!(base.read(id).unwrap()[0], i);
        }
        match vs.snapshot_at(99) {
            Err(StoreError::VersionNotRetained { requested, oldest, current }) => {
                assert_eq!((requested, oldest, current), (99, 0, 5));
            }
            Err(other) => panic!("expected VersionNotRetained, got {other:?}"),
            Ok(s) => panic!("expected VersionNotRetained, got epoch {}", s.seq()),
        }
    }

    #[test]
    fn gc_reclaims_only_unpinned_epochs() {
        let base = store();
        let vs = VersionedStore::new(base.clone(), VersionConfig { retain: 1 }, &[]);
        let id = base.alloc().unwrap();
        base.write(id, b"a").unwrap();
        let pages0 = base.live_pages();

        let pin = vs.snapshot();
        for i in 0..4u8 {
            let s = vs.begin_apply();
            base.write(id, &[i]).unwrap();
            s.install(&[]).unwrap();
        }
        // Epoch 0 is pinned, so nothing it can reach was reclaimed: every
        // CoW copy is still allocated.
        assert_eq!(base.live_pages(), pages0 + 4);
        assert_eq!(vs.metrics().pinned, 1);
        assert_eq!(vs.metrics().oldest_pin_age, 4);

        drop(pin);
        let freed = vs.collect().unwrap();
        assert_eq!(freed, 3, "all superseded copies except the live one");
        assert_eq!(base.live_pages(), pages0 + 1, "live copy + leased name slot");
        assert_eq!(vs.metrics().reclaimed_pages, 3);
        assert_eq!(vs.metrics().retained, 1);
    }

    #[test]
    fn freed_logical_names_release_their_lease() {
        let base = store();
        let vs = VersionedStore::new(base.clone(), VersionConfig { retain: 1 }, &[]);
        let id = base.alloc().unwrap();
        base.write(id, b"x").unwrap();

        // Remap the page, then free the logical name in a later session.
        let s = vs.begin_apply();
        base.write(id, b"y").unwrap();
        s.install(&[]).unwrap();
        let s = vs.begin_apply();
        base.free(id).unwrap();
        s.install(&[]).unwrap();
        let _ = vs.collect().unwrap();
        assert_eq!(base.live_pages(), 0, "copy and leased slot both reclaimed");
    }

    #[test]
    fn fresh_pages_allocated_and_freed_in_session_roundtrip() {
        let base = store();
        let vs = VersionedStore::new(base.clone(), VersionConfig::default(), &[]);
        let s = vs.begin_apply();
        let a = base.alloc().unwrap();
        base.write(a, b"tmp").unwrap();
        base.free(a).unwrap();
        let b = base.alloc().unwrap();
        base.write(b, b"keep").unwrap();
        s.install(&[]).unwrap();
        assert_eq!(base.live_pages(), 1);
        let snap = vs.snapshot();
        let _g = snap.enter();
        assert_eq!(&base.read(b).unwrap()[..4], b"keep");
    }

    #[test]
    fn dropped_session_aborts_and_rolls_back() {
        let base = store();
        let vs = VersionedStore::new(base.clone(), VersionConfig::default(), &[]);
        let id = base.alloc().unwrap();
        base.write(id, b"keep").unwrap();
        let live = base.live_pages();

        {
            let _s = vs.begin_apply();
            base.write(id, b"doomed").unwrap();
            let extra = base.alloc().unwrap();
            base.write(extra, b"also doomed").unwrap();
            // Guard dropped without install: abort.
        }
        assert_eq!(vs.current_seq(), 0, "no epoch installed");
        assert_eq!(base.live_pages(), live, "fresh pages returned");
        assert_eq!(&base.read(id).unwrap()[..4], b"keep");
    }

    #[test]
    fn version_meta_roundtrips_and_rejects_garbage() {
        let m = VersionMeta {
            seq: 42,
            map: HashMap::from([(3, 9), (7, 11)]),
            user: b"inner".to_vec(),
            retired: vec![(41, vec![5]), (42, vec![6, 8])],
        };
        let bytes = encode_version_meta(&m);
        assert_eq!(decode_version_meta(&bytes).unwrap(), m);
        // Deterministic encoding.
        assert_eq!(bytes, encode_version_meta(&m.clone()));
        assert!(decode_version_meta(b"").is_none());
        assert!(decode_version_meta(b"not a frame").is_none());
        assert!(decode_version_meta(&bytes[..bytes.len() - 1]).is_none());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_version_meta(&trailing).is_none());
    }

    #[test]
    fn durable_epoch_survives_reopen_via_commit_meta() {
        let (base, _) = PageStore::in_memory_durable(64);
        let base = Arc::new(base);
        let vs = VersionedStore::new(base.clone(), VersionConfig { retain: 4 }, b"seed");
        let id = base.alloc().unwrap();
        base.write(id, b"v0").unwrap();
        base.sync().unwrap();
        for i in 1..=3u8 {
            let s = vs.begin_apply();
            base.write(id, &[i]).unwrap();
            s.install(&[b'm', i]).unwrap();
        }
        // Simulate recovery hand-off: the last committed metadata is the
        // version frame install() wrote.
        let pending: Vec<(u64, Vec<u64>)> = {
            let st = vs.state.lock();
            st.retired.iter().cloned().collect()
        };
        let meta = {
            let st = vs.state.lock();
            let cur = st.epochs.back().unwrap();
            encode_version_meta(&VersionMeta {
                seq: cur.seq,
                map: cur.map.as_ref().clone(),
                user: cur.user_meta.clone(),
                retired: pending,
            })
        };
        drop(vs);
        let vs2 = VersionedStore::open(base.clone(), Some(&meta), VersionConfig::default());
        assert_eq!(vs2.current_seq(), 3);
        let snap = vs2.snapshot();
        assert_eq!(snap.user_meta(), &[b'm', 3]);
        let _g = snap.enter();
        assert_eq!(base.read(id).unwrap()[0], 3);
    }

    #[test]
    fn open_with_legacy_or_missing_meta_starts_at_epoch_zero() {
        let base = store();
        let vs = VersionedStore::open(base.clone(), Some(b"legacy blob"), VersionConfig::default());
        assert_eq!(vs.current_seq(), 0);
        assert_eq!(vs.snapshot().user_meta(), b"legacy blob");
        let vs = VersionedStore::open(base, None, VersionConfig::default());
        assert_eq!(vs.current_seq(), 0);
        assert_eq!(vs.snapshot().user_meta(), b"");
    }

    #[test]
    fn snapshot_cache_first_insert_wins() {
        let base = store();
        let vs = VersionedStore::new(base, VersionConfig::default(), &[]);
        let snap = vs.snapshot();
        assert!(snap.cached(7).is_none());
        let a = snap.cache_put(7, Arc::new(41u64));
        let b = snap.cache_put(7, Arc::new(99u64));
        assert_eq!(*a.downcast::<u64>().unwrap(), 41);
        assert_eq!(*b.downcast::<u64>().unwrap(), 41, "first insert wins");
        // Another snapshot of the same epoch shares the cache.
        let again = vs.snapshot();
        assert!(again.cached(7).is_some());
    }

    #[test]
    fn snapshot_reads_take_no_exclusive_locks() {
        let base = store();
        let vs = VersionedStore::new(base.clone(), VersionConfig::default(), &[]);
        let id = base.alloc().unwrap();
        base.write(id, b"pin me").unwrap();
        let s = vs.begin_apply();
        base.write(id, b"cowed").unwrap();
        s.install(&[]).unwrap();

        let snap = vs.snapshot_at(0).unwrap();
        let before = pc_sync::exclusive_acquisitions();
        {
            let _g = snap.enter();
            for _ in 0..64 {
                assert_eq!(&base.read(id).unwrap()[..6], b"pin me");
            }
        }
        assert_eq!(
            pc_sync::exclusive_acquisitions(),
            before,
            "translated snapshot reads must be exclusive-lock-free"
        );
    }
}
