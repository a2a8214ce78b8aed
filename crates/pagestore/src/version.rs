//! Partial persistence: epochs, apply sessions and pinned snapshots — so
//! readers never block on writers.
//!
//! The paper's Thm 5.1 buffering (the serve batcher) hides update cost
//! behind batching; Brodal/Rysgaard/Svenning ("Buffered Partially-Persistent
//! External-Memory Search Trees", PAPERS.md) pair it with *partial
//! persistence*: updates produce a new version in the structure's own
//! nodes, and queries pin one version and proceed untouched.
//!
//! ## Model
//!
//! An **epoch** is its committed descriptors plus a retire queue: its seq,
//! the caller's metadata (the serve layer's target descriptors, which name
//! every root a reader starts from) and the pages its install superseded.
//!
//! * **Apply sessions** ([`VersionedStore::begin_apply`]): one writer at a
//!   time over a store. A session is a consistency point of the store's
//!   open group (see [`crate::store`]): inside it a page allocated
//!   before it is never written — a structure asks [`PageStore::relocate`]
//!   for a writable id (a fresh page, the old one held) and patches the
//!   page that names it, up to its descriptor: path copying. A write to a
//!   pre-session page is refused with [`StoreError::CommittedPage`], and a
//!   free of one is held. [`ApplyGuard::install`] retires the held pages
//!   and publishes the session as the next epoch; dropping the guard frees
//!   every page the session allocated and retires nothing.
//! * **Snapshots** ([`VersionedStore::snapshot`] /
//!   [`VersionedStore::snapshot_at`]) pin an epoch. A reader opens the
//!   roots its descriptors name and reads plain page ids, taking the
//!   store's shared locks only: no page a retained epoch reaches is written.
//! * **GC**: pages superseded at epoch `N` are *retired*, tagged `N`, and
//!   reclaimed once every retained epoch has seq ≥ `N` — retention is
//!   bounded by [`VersionConfig::retain`], but a pinned epoch is never
//!   trimmed, so GC never reclaims a page a live snapshot can reach.
//!
//! ## Durability
//!
//! On a durable store, [`ApplyGuard::install`] frames the caller's metadata
//! with the epoch's seq ([`encode_version_meta`]) and group-commits it
//! before it publishes the epoch, so crash recovery's `last_commit_meta`
//! *is* the epoch, and an install whose commit fails publishes nothing.
//! [`VersionedStore::open`] resumes from it. History and the retire queue
//! are memory-only: after a crash the epoch's descriptors reach every page
//! the store keeps, and the owner's walk of them frees the rest
//! ([`PageStore::free_unreached`]). A kill mid-session loses only
//! uncommitted copies: the previous epoch's descriptors still name its
//! pages, bit-identical.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use pc_sync::{Mutex, RwLock};

use crate::codec::PageReader;
use crate::error::{Result, StoreError};
use crate::store::{PageId, PageStore};

struct Epoch {
    seq: u64,
    user_meta: Vec<u8>,
    pins: AtomicU64,
    /// Per-epoch cache of derived read-only artifacts (the serve layer
    /// parks one opened frozen view per target here, keyed by target
    /// index). Hits take a shared read lock only.
    cache: RwLock<HashMap<u64, Arc<dyn Any + Send + Sync>>>,
}

impl Epoch {
    fn new(seq: u64, user_meta: Vec<u8>) -> Arc<Epoch> {
        Arc::new(Epoch { seq, user_meta, pins: AtomicU64::new(0), cache: RwLock::default() })
    }
}

/// A pinned, immutable version of the store: the pages its descriptors
/// reach stay bit-identical for the snapshot's whole lifetime, however
/// many later epochs install. Dropping it releases the pin (making the
/// epoch eligible for retention trimming and GC).
pub struct Snapshot {
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

    /// A no-op guard: a snapshot's reads need no translation. Kept only
    /// for callers written against the former page map.
    pub fn enter(&self) -> SnapshotGuard<'_> {
        SnapshotGuard { _snap: self }
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
        Snapshot { epoch: self.epoch.clone() }
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.epoch.pins.fetch_sub(1, Relaxed);
    }
}

/// What [`Snapshot::enter`] returns; it does nothing.
pub struct SnapshotGuard<'a> {
    _snap: &'a Snapshot,
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
    /// Retired pages awaiting GC: `(installing epoch seq, pages)`, in seq
    /// order. A group is reclaimable once every retained epoch has seq ≥
    /// its tag.
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

impl VersionedStore {
    /// Fresh versioned view over `base` at epoch 0, carrying
    /// `initial_user_meta` so epoch-0 snapshots can open frozen views.
    pub fn new(base: Arc<PageStore>, cfg: VersionConfig, initial_user_meta: &[u8]) -> Self {
        Self::at(base, cfg, 0, initial_user_meta.to_vec())
    }

    /// Reopens a versioned view from a recovered store: `recovered_meta`
    /// is the `RecoveryReport::last_commit_meta` payload. A version frame
    /// restores the exact committed epoch (seq, metadata), the only one a
    /// crash keeps. A bare payload or `None` starts at epoch 0 with that
    /// payload as the user metadata.
    pub fn open(base: Arc<PageStore>, recovered_meta: Option<&[u8]>, cfg: VersionConfig) -> Self {
        match recovered_meta.and_then(decode_version_meta) {
            Some(m) => Self::at(base, cfg, m.seq, m.user),
            None => Self::at(base, cfg, 0, recovered_meta.unwrap_or_default().to_vec()),
        }
    }

    fn at(base: Arc<PageStore>, cfg: VersionConfig, seq: u64, user_meta: Vec<u8>) -> Self {
        VersionedStore {
            base,
            state: Mutex::new(VersionState {
                epochs: VecDeque::from([Epoch::new(seq, user_meta)]),
                retired: VecDeque::new(),
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
        Snapshot { epoch }
    }

    /// Pins the retained epoch with exactly seq `seq`, or reports the
    /// retained range in the error.
    pub fn snapshot_at(&self, seq: u64) -> Result<Snapshot> {
        let st = self.state.lock();
        match st.epochs.iter().find(|e| e.seq == seq) {
            Some(e) => {
                e.pins.fetch_add(1, Relaxed);
                Ok(Snapshot { epoch: e.clone() })
            }
            None => Err(StoreError::VersionNotRetained {
                requested: seq,
                oldest: st.epochs.front().unwrap().seq,
                current: st.epochs.back().unwrap().seq,
            }),
        }
    }

    /// Opens an apply session over the store. Until
    /// [`ApplyGuard::install`], no page allocated before it is written
    /// (relocate it first, [`PageStore::relocate`]) or freed — concurrent
    /// snapshot readers observe nothing. One writer at a time: this is the
    /// serve batcher's single-threaded apply stage.
    ///
    /// # Panics
    ///
    /// If a session is already open over the store.
    pub fn begin_apply(&self) -> ApplyGuard<'_> {
        self.base.begin_session();
        ApplyGuard { vs: self, armed: true }
    }

    /// Trims the retention window and reclaims every newly unreachable
    /// retired page. Runs automatically at install; call it directly after
    /// dropping long-held snapshots. Returns pages freed.
    pub fn collect(&self) -> Result<u64> {
        let to_free = trim(&mut self.state.lock(), self.retain);
        self.free_all(&to_free)
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
                oldest_pinned.get_or_insert(e.seq);
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

    fn free_all(&self, pages: &[u64]) -> Result<u64> {
        for &p in pages {
            self.base.free(PageId(p))?;
        }
        self.reclaimed.fetch_add(pages.len() as u64, Relaxed);
        Ok(pages.len() as u64)
    }
}

/// Drops unpinned epochs past the newest `retain` (never the current one)
/// and takes the retired pages no retained epoch reaches.
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

/// An open apply session; see [`VersionedStore::begin_apply`].
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
    /// batch numbers coincide) and runs GC. On a durable base it first
    /// group-commits the epoch (version-framed `user_meta`), so it survives
    /// crashes as the visible version, and publishes it only once that
    /// commit succeeded: a commit that fails rolls the session back, as
    /// dropping the guard does, and the current epoch stays.
    pub fn install_as(mut self, seq: u64, user_meta: &[u8]) -> Result<u64> {
        self.armed = false;
        let vs = self.vs;
        let retired = vs.base.end_session();
        assert!(seq > vs.current_seq(), "epoch seqs must be strictly increasing");
        let frame = vs.base.is_durable().then(|| {
            encode_version_meta(&VersionMeta { seq, user: user_meta.to_vec() })
        });
        if let Err(e) = frame.map_or(Ok(0), |frame| vs.base.commit_with(&frame)) {
            vs.base.roll_back();
            return Err(e);
        }
        let to_free = {
            let mut st = vs.state.lock();
            st.epochs.push_back(Epoch::new(seq, user_meta.to_vec()));
            if !retired.is_empty() {
                st.retired.push_back((seq, retired));
            }
            trim(&mut st, vs.retain)
        };
        vs.installed.fetch_add(1, Relaxed);
        // On a durable store these frees are held until the next commit:
        // until then the last record's epoch may reach them.
        vs.free_all(&to_free)?;
        Ok(seq)
    }
}

impl Drop for ApplyGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            // Abort: the epoch never changed, so the session's frees are
            // undone and its fresh pages go back to the allocator.
            self.vs.base.end_session();
            self.vs.base.roll_back();
        }
    }
}

// ---------------------------------------------------------------------------
// Version metadata framing (rides WAL commit metadata)
// ---------------------------------------------------------------------------

/// Magic prefix of a version-framed commit metadata payload.
pub const VERSION_META_MAGIC: &[u8; 4] = b"PCV2";

/// Decoded version frame: one committed epoch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VersionMeta {
    /// Epoch sequence number.
    pub seq: u64,
    /// The caller's inner metadata (the serve layer's batch frame).
    pub user: Vec<u8>,
}

/// Encodes a version frame: magic, seq, the user metadata's length and
/// the user metadata.
pub fn encode_version_meta(m: &VersionMeta) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + m.user.len());
    out.extend_from_slice(VERSION_META_MAGIC);
    out.extend_from_slice(&m.seq.to_le_bytes());
    out.extend_from_slice(&(m.user.len() as u32).to_le_bytes());
    out.extend_from_slice(&m.user);
    out
}

/// Decodes a version frame: `None` for anything that is not one exactly
/// (bare metadata passes through untouched at the call sites).
pub fn decode_version_meta(bytes: &[u8]) -> Option<VersionMeta> {
    let mut r = PageReader::new(bytes.strip_prefix(VERSION_META_MAGIC)?);
    let seq = r.get_u64().ok()?;
    let len = r.get_u32().ok()? as usize;
    let user = r.get_bytes(len).ok()?.to_vec();
    (r.remaining() == 0).then_some(VersionMeta { seq, user })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> Arc<PageStore> {
        Arc::new(PageStore::in_memory(64))
    }

    /// One session that moves `id` to a fresh page holding `bytes`.
    fn rewrite(vs: &VersionedStore, id: PageId, bytes: &[u8], meta: &[u8]) -> PageId {
        let session = vs.begin_apply();
        let to = vs.base().relocate(id).unwrap();
        vs.base().write(to, bytes).unwrap();
        session.install(meta).unwrap();
        to
    }

    #[test]
    fn cow_preserves_pinned_snapshot_reads() {
        let base = store();
        let vs = VersionedStore::new(base.clone(), VersionConfig::default(), b"meta0");
        let id = base.alloc().unwrap();
        base.write(id, b"v0").unwrap();
        let snap = vs.snapshot();
        assert_eq!((snap.seq(), snap.user_meta()), (0, &b"meta0"[..]));

        let v1 = rewrite(&vs, id, b"v1", b"meta1");
        let v2 = rewrite(&vs, v1, b"v2", b"meta2");
        assert!(id != v1 && v1 != v2, "each session wrote a fresh page");
        // The pinned epoch's page is untouched; the current one names v2.
        assert_eq!(&base.read(id).unwrap()[..2], b"v0");
        assert_eq!(&base.read(v2).unwrap()[..2], b"v2");
        assert_eq!(vs.snapshot().user_meta(), b"meta2");
    }

    #[test]
    fn as_of_addresses_each_retained_epoch() {
        let base = store();
        let vs = VersionedStore::new(base.clone(), VersionConfig { retain: 16 }, &[]);
        let mut id = base.alloc().unwrap();
        base.write(id, &[0]).unwrap();
        let mut ids = vec![id];
        for i in 1..=5u8 {
            id = rewrite(&vs, id, &[i], &[i]);
            ids.push(id);
        }
        assert_eq!(vs.retained_range(), (0, 5));
        for i in 1..=5u8 {
            let snap = vs.snapshot_at(i as u64).unwrap();
            assert_eq!(snap.user_meta(), [i]);
            assert_eq!(base.read(ids[i as usize]).unwrap()[0], i);
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
        let mut id = base.alloc().unwrap();
        base.write(id, b"a").unwrap();

        let pin = vs.snapshot();
        for i in 0..4u8 {
            id = rewrite(&vs, id, &[i], &[]);
        }
        // Epoch 0 is pinned, so nothing it can reach was reclaimed: every
        // copy is still allocated.
        assert_eq!(base.live_pages(), 5);
        assert_eq!(vs.metrics().pinned, 1);
        assert_eq!(vs.metrics().oldest_pin_age, 4);

        drop(pin);
        assert_eq!(vs.collect().unwrap(), 4, "all superseded copies");
        assert_eq!(base.live_pages(), 1, "the current copy alone");
        assert_eq!(vs.metrics().reclaimed_pages, 4);
        assert_eq!(vs.metrics().retained, 1);
    }

    #[test]
    fn fresh_pages_allocated_and_freed_in_session_roundtrip() {
        let base = store();
        let vs = VersionedStore::new(base.clone(), VersionConfig { retain: 1 }, &[]);
        let old = base.alloc().unwrap();
        let s = vs.begin_apply();
        let a = base.alloc().unwrap();
        base.write(a, b"tmp").unwrap();
        base.free(a).unwrap();
        let b = base.alloc().unwrap();
        base.write(b, b"keep").unwrap();
        base.free(old).unwrap();
        assert_eq!(base.live_pages(), 2, "the pre-session page waits for GC");
        s.install(&[]).unwrap();
        assert_eq!(base.live_pages(), 1, "reclaimed at install with retain 1");
        assert_eq!(&base.read(b).unwrap()[..4], b"keep");
    }

    /// Inside a session a pre-session page is never written, on a volatile
    /// store or a durable one; relocating it gives a fresh page, and
    /// relocating that again gives it back.
    #[test]
    fn a_session_write_to_a_pre_session_page_is_refused() {
        for durable in [false, true] {
            let (durable_store, _) = PageStore::in_memory_durable(64);
            let base = Arc::new(if durable { durable_store } else { PageStore::in_memory(64) });
            let vs = VersionedStore::new(base.clone(), VersionConfig::default(), &[]);
            let id = base.alloc().unwrap();
            base.write(id, b"v0").unwrap();
            base.sync().unwrap();
            let session = vs.begin_apply();
            let refused = base.write(id, b"v1");
            assert!(matches!(refused, Err(StoreError::CommittedPage(p)) if p == id), "{durable}");
            let to = base.relocate(id).unwrap();
            assert_ne!(to, id);
            assert_eq!(base.relocate(to).unwrap(), to, "a fresh page is written in place");
            base.write(to, b"v1").unwrap();
            session.install(&[]).unwrap();
            assert_eq!(&base.read(id).unwrap()[..2], b"v0", "durable: {durable}");
            assert_eq!(&base.read(to).unwrap()[..2], b"v1", "durable: {durable}");
        }
    }

    /// Outside a session a volatile store's page, and a durable store's
    /// page allocated since its last commit, are written in place:
    /// relocating one costs nothing. A durable store's committed page moves
    /// to a fresh one, as in a session.
    #[test]
    fn outside_a_session_relocation_is_the_identity_at_no_cost() {
        for durable in [false, true] {
            let base = Arc::new(match durable {
                true => PageStore::in_memory_durable(64).0,
                false => PageStore::in_memory(64),
            });
            let _vs = VersionedStore::new(base.clone(), VersionConfig::default(), &[]);
            let id = base.alloc().unwrap();
            let before = base.stats();
            assert_eq!(base.relocate(id).unwrap(), id);
            assert_eq!(base.stats() - before, crate::IoStats::default(), "no alloc, no I/O");
            base.write(id, b"v0").unwrap();
            base.sync().unwrap();
            let to = base.relocate(id).unwrap();
            assert_eq!(to != id, durable, "a committed page moves");
            base.write(to, b"v1").unwrap();
            base.sync().unwrap();
            assert_eq!(&base.read(to).unwrap()[..2], b"v1", "durable: {durable}");
            assert_eq!(base.live_pages(), 1, "durable: {durable}");
        }
    }

    /// One session a store: a second is refused, from any thread.
    #[test]
    fn a_second_session_over_a_store_panics() {
        let vs = VersionedStore::new(store(), VersionConfig::default(), &[]);
        let _session = vs.begin_apply();
        let second = std::thread::scope(|s| s.spawn(|| drop(vs.begin_apply())).join());
        assert!(second.is_err(), "a second session over the store, on another thread");
    }

    #[test]
    fn dropped_session_aborts_and_rolls_back() {
        let base = store();
        let vs = VersionedStore::new(base.clone(), VersionConfig { retain: 1 }, &[]);
        let ids: Vec<PageId> = (0..3).map(|_| base.alloc().unwrap()).collect();
        for &id in &ids {
            base.write(id, b"keep").unwrap();
        }
        {
            let _s = vs.begin_apply();
            for &id in &ids {
                let to = base.relocate(id).unwrap();
                base.write(to, b"doomed").unwrap();
            }
            base.free(ids[0]).unwrap();
            let extra = base.alloc().unwrap();
            base.write(extra, b"also doomed").unwrap();
            assert_eq!(base.live_pages(), 7);
        }
        assert_eq!(vs.current_seq(), 0, "no epoch installed");
        assert_eq!(base.live_pages(), 3, "the relocated copies went back");
        // The next install retires nothing the aborted session named.
        vs.begin_apply().install(&[]).unwrap();
        assert_eq!((base.live_pages(), vs.metrics().reclaimed_pages), (3, 0));
        for id in ids {
            assert_eq!(&base.read(id).unwrap()[..4], b"keep");
        }
    }

    #[test]
    fn version_meta_roundtrips_and_rejects_garbage() {
        let m = VersionMeta { seq: 42, user: b"inner".to_vec() };
        let bytes = encode_version_meta(&m);
        assert_eq!(decode_version_meta(&bytes), Some(m));
        for garbage in [&b""[..], b"not a frame", &bytes[..bytes.len() - 1]] {
            assert_eq!(decode_version_meta(garbage), None);
        }
        let trailing = [&bytes[..], &[0]].concat();
        assert_eq!(decode_version_meta(&trailing), None);
    }

    #[test]
    fn durable_epoch_survives_reopen_via_commit_meta() {
        let (base, _) = PageStore::in_memory_durable(64);
        let base = Arc::new(base);
        let vs = VersionedStore::new(base.clone(), VersionConfig { retain: 4 }, b"seed");
        let mut id = base.alloc().unwrap();
        base.write(id, b"v0").unwrap();
        base.sync().unwrap();
        for i in 1..=3u8 {
            id = rewrite(&vs, id, &[i], &[b'm', i]);
        }
        // Recovery's hand-off: the last committed metadata is the frame
        // install() wrote, and it names the epoch alone.
        let meta = base.last_commit_meta().unwrap();
        assert_eq!(meta, encode_version_meta(&VersionMeta { seq: 3, user: vec![b'm', 3] }));
        let live = base.live_pages();
        drop(vs);
        let vs2 = VersionedStore::open(base.clone(), Some(&meta), VersionConfig::default());
        assert_eq!(vs2.current_seq(), 3);
        assert_eq!(vs2.snapshot().user_meta(), &[b'm', 3]);
        assert_eq!(base.live_pages(), live, "opening frees nothing");
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
        rewrite(&vs, id, b"moved", &[]);

        let _snap = vs.snapshot_at(0).unwrap();
        let before = pc_sync::exclusive_acquisitions();
        for _ in 0..64 {
            assert_eq!(&base.read(id).unwrap()[..6], b"pin me");
        }
        assert_eq!(
            pc_sync::exclusive_acquisitions(),
            before,
            "snapshot reads must be exclusive-lock-free"
        );
    }
}
