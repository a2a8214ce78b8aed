//! Store-level fault-injection regressions: a pooled [`PageStore`] over a
//! [`FaultBackend`] must keep the sharded pool consistent on every error
//! path — no lost dirty data, no stale mappings, no panics — and hand the
//! backend's error to the caller unchanged, so a caller that issues the
//! operation again finds the store as it was.
//!
//! These are the regression tests for the pool's old
//! `expect("mapped slot must be occupied")` unwinds and for the eviction
//! write-back path that used to displace a dirty victim before knowing the
//! backend write succeeded.

use pc_pagestore::backend::MemBackend;
use std::io::ErrorKind;

use pc_pagestore::{FaultBackend, FaultHandle, FaultPlan, PageStore, StoreConfig, StoreError};

const PAGE: usize = 64;

/// Pooled store (1 frame, 1 shard: every second page access evicts) over a
/// fault backend with no plan faults — tests arm targeted triggers.
fn tiny_pooled_store() -> (PageStore, FaultHandle) {
    let backend = FaultBackend::new(Box::new(MemBackend::new(PAGE + 8)), FaultPlan::none(0));
    let handle = backend.handle();
    let config = StoreConfig { page_size: PAGE, pool_pages: 1, pool_shards: 1 };
    (PageStore::new(config, Box::new(backend)), handle)
}

/// True for the transient class a [`FaultBackend`] injects.
fn interrupted(e: &StoreError) -> bool {
    matches!(e, StoreError::Io(e) if e.kind() == ErrorKind::Interrupted)
}

#[test]
fn failed_eviction_write_back_loses_no_dirty_data() {
    let (store, handle) = tiny_pooled_store();
    let a = store.alloc().unwrap();
    let b = store.alloc().unwrap();
    store.write(a, &[0xAA; PAGE]).unwrap(); // resident, dirty, never on disk
    handle.fail_nth_write(a, 1); // the eviction write-back will fail
    let err = store.write(b, &[0xBB; PAGE]).unwrap_err();
    assert!(interrupted(&err), "the backend fault surfaces to the caller: {err}");
    // The dirty victim survived the failed eviction: still resident, still
    // holding its bytes, served as a pool hit.
    let before = store.stats();
    assert_eq!(&store.read(a).unwrap()[..], &[0xAA; PAGE]);
    assert_eq!(store.stats().cache_hits, before.cache_hits + 1, "page a stayed resident");
    // The backend has recovered (one-shot trigger): retrying the write goes
    // through, evicting a whose data reaches the backend intact.
    store.write(b, &[0xBB; PAGE]).unwrap();
    assert_eq!(&store.read(a).unwrap()[..], &[0xAA; PAGE], "dirty data was persisted on retry");
    assert_eq!(&store.read(b).unwrap()[..], &[0xBB; PAGE]);
    store.sync().unwrap();
}

#[test]
fn failed_miss_fetch_leaves_no_stale_mapping() {
    let (store, handle) = tiny_pooled_store();
    let a = store.alloc().unwrap();
    let b = store.alloc().unwrap();
    store.write(a, &[7; PAGE]).unwrap();
    store.write(b, &[8; PAGE]).unwrap(); // evicts a to the backend
    handle.fail_nth_read(a, 1); // the refetch of a will fail
    let err = store.read(a).unwrap_err();
    assert!(interrupted(&err), "fetch fault surfaces cleanly: {err}");
    // Regression: the failed fetch must not leave a mapping to an empty or
    // stale frame — the next read refetches and returns the real bytes.
    assert_eq!(&store.read(a).unwrap()[..], &[7; PAGE]);
    // And the resident page was untouched by the failed miss.
    let before = store.stats();
    assert_eq!(&store.read(b).unwrap()[..], &[8; PAGE]);
    assert!(store.stats().cache_hits > before.cache_hits || store.stats().reads > before.reads);
}

#[test]
fn injected_corruption_is_detected_through_the_pool_and_reversible() {
    let store = PageStore::in_memory_pooled(PAGE, 4);
    let id = store.alloc().unwrap();
    store.write(id, b"precious").unwrap();
    assert_eq!(&store.read(id).unwrap()[..8], b"precious"); // resident
    // inject_corruption bypasses (and invalidates) the pool: the next read
    // must fail its checksum instead of serving stale resident bytes.
    store.inject_corruption(id, 3).unwrap();
    assert!(matches!(store.read(id), Err(StoreError::ChecksumMismatch(p)) if p == id));
    // The flip is an XOR: applying it again restores the frame exactly.
    store.inject_corruption(id, 3).unwrap();
    assert_eq!(&store.read(id).unwrap()[..8], b"precious");
}
