//! Store-level durability integration tests: reopen after a clean
//! shutdown, recovery that writes no frame, a group killed between its data
//! sync and its commit record, torn-tail handling in both the data file and
//! the log, checkpointing bounding replay, a log that refuses appends or
//! fsyncs (an install under either), a record too large for the log, and a
//! log of the previous format. The exhaustive kill-point matrix lives in `crash_recovery.rs`;
//! these tests pin the individual behaviors it composes.

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;

use pc_pagestore::backend::MemBackend;
use pc_pagestore::wal::MAX_RECORD_PAYLOAD;
use pc_pagestore::{
    CrashBackend, CrashController, CrashLog, CrashPlan, LogMedium, MemLog, PageId, PageStore,
    StoreConfig, StoreError, VersionConfig, VersionedStore, WalConfig,
};

const PAGE: usize = 64;
const FRAME: usize = PAGE + 8;

fn cfg() -> StoreConfig {
    StoreConfig::strict(PAGE)
}

/// Deterministic page payload: page index tagged with a generation byte.
fn payload(tag: u8, i: u8) -> Vec<u8> {
    let mut v = vec![tag; PAGE / 2];
    v.push(i);
    v
}

/// Logical state snapshot: every allocated page's id and bytes.
fn snapshot(store: &PageStore) -> Vec<(PageId, Vec<u8>)> {
    store
        .allocated_pages()
        .into_iter()
        .map(|id| (id, store.read(id).unwrap().to_vec()))
        .collect()
}

fn tempfile(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pc-durability-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    let mut wal = path.clone().into_os_string();
    wal.push(".wal");
    let _ = std::fs::remove_file(&wal);
    path
}

#[test]
fn file_store_reopen_after_clean_shutdown_restores_every_page() {
    let path = tempfile("clean.pcstore");
    let before;
    {
        let (store, report) = PageStore::file_durable(&path, PAGE, WalConfig::default()).unwrap();
        assert!(report.clean());
        for i in 0..8u8 {
            let id = store.alloc().unwrap();
            store.write(id, &payload(0xAA, i)).unwrap();
        }
        store.sync().unwrap();
        before = snapshot(&store);
    }
    let (store, report) = PageStore::file_durable(&path, PAGE, WalConfig::default()).unwrap();
    assert!(!report.data_torn_tail);
    assert_eq!(snapshot(&store), before, "reopen must restore the exact committed state");
}

#[test]
fn committed_pages_are_on_the_medium_and_recovery_writes_no_frame() {
    // No checkpoint ever runs (huge threshold): the commit alone must have
    // put every page in the data file.
    let ctrl = CrashController::new(CrashPlan::count_only(11));
    let backend = Arc::new(CrashBackend::new(FRAME, ctrl.clone()));
    let log = Arc::new(CrashLog::new(ctrl));
    let wal_cfg = WalConfig { checkpoint_bytes: u64::MAX };
    let (store, _) = PageStore::new_durable(
        cfg(),
        Box::new(Arc::clone(&backend)),
        Box::new(Arc::clone(&log)),
        wal_cfg,
    )
    .unwrap();
    let mut want = Vec::new();
    for i in 0..5u8 {
        let id = store.alloc().unwrap();
        let mut data = payload(0xBB, i);
        store.write(id, &data).unwrap();
        data.resize(PAGE, 0);
        want.push((id, data));
    }
    store.commit_with(b"batch-1").unwrap();

    // "Die now", and recover with the data medium on a controller of its
    // own, which counts every frame write and sync recovery issues.
    let data_ctrl = CrashController::new(CrashPlan::count_only(12));
    let data = CrashBackend::with_frames(FRAME, data_ctrl.clone(), backend.surviving_frames());
    let (store2, report) =
        PageStore::new_durable(cfg(), Box::new(data), Box::new(log.surviving_log()), wal_cfg)
            .unwrap();
    assert_eq!(data_ctrl.ops(), 0, "recovery touches the data medium not once: {report:?}");
    assert_eq!((report.replayed_entries, report.commits), (5, 1), "{report:?}");
    assert_eq!(report.last_commit_meta.as_deref(), Some(&b"batch-1"[..]));
    assert_eq!(snapshot(&store2), want);
}

#[test]
fn a_group_killed_between_its_data_sync_and_commit_record_leaves_zeroed_ids() {
    let mut lost = 0;
    for seed in 0..32u64 {
        let media = |kill_at| {
            let ctrl = CrashController::new(CrashPlan::kill_at(seed, kill_at));
            let backend = Arc::new(CrashBackend::new(FRAME, ctrl.clone()));
            let log = Arc::new(CrashLog::new(ctrl.clone()));
            let (store, _) = PageStore::new_durable(
                cfg(),
                Box::new(Arc::clone(&backend)),
                Box::new(Arc::clone(&log)),
                WalConfig::default(),
            )
            .unwrap();
            (ctrl, backend, log, store)
        };
        let acked = |store: &PageStore| {
            let a = store.alloc().unwrap();
            store.write(a, &payload(0xAC, 0)).unwrap();
            store.commit_with(b"acked").unwrap();
        };
        let doomed = |store: &PageStore| -> pc_pagestore::Result<PageId> {
            let b = store.alloc()?;
            store.write(b, &payload(0xDE, 1))?;
            store.commit_with(b"doomed")?;
            Ok(b)
        };
        // Counting run: the commit's first durable I/O is the data sync,
        // the next the commit record's append.
        let (ctrl, _, _, store) = media(0);
        acked(&store);
        let b = store.alloc().unwrap();
        store.write(b, &payload(0xDE, 1)).unwrap();
        let kill_at = ctrl.ops() + 2;

        let (ctrl, backend, log, store) = media(kill_at);
        acked(&store);
        assert!(doomed(&store).is_err(), "seed {seed}: the commit record's append kills");
        assert!(ctrl.crashed());
        let frames = backend.surviving_frames();
        let (store2, report) = PageStore::new_durable(
            cfg(),
            Box::new(backend.surviving_backend()),
            Box::new(log.surviving_log()),
            WalConfig::default(),
        )
        .unwrap();
        if report.last_commit_meta.as_deref() == Some(&b"doomed"[..]) {
            // The record survived the tear whole: the group committed.
            assert_eq!(&store2.read(b).unwrap()[..PAGE / 2 + 1], &payload(0xDE, 1)[..]);
            continue;
        }
        lost += 1;
        assert_eq!(report.last_commit_meta.as_deref(), Some(&b"acked"[..]), "seed {seed}");
        // The data sync ran, so the lost group's page is on the medium...
        let frame = frames.iter().find(|(id, _)| *id == b).map(|(_, f)| &f[..PAGE / 2 + 1]);
        assert_eq!(frame, Some(&payload(0xDE, 1)[..]), "seed {seed}: data synced first");
        // ...and the reopened store hands its id out again, reading zeros.
        assert_eq!(store2.allocated_pages().len(), 1, "seed {seed}");
        let fresh = store2.alloc().unwrap();
        assert_eq!(fresh, b, "seed {seed}: the lost id is the frontier");
        assert!(store2.read(fresh).unwrap().iter().all(|&x| x == 0), "seed {seed}: stale bytes");
    }
    assert!(lost > 0, "no seed lost the commit record: the test never ran its check");
}

#[test]
fn uncommitted_tail_is_discarded_and_acked_state_kept() {
    for seed in 0..16u64 {
        let ctrl = CrashController::new(CrashPlan::count_only(seed));
        let backend = Arc::new(CrashBackend::new(FRAME, ctrl.clone()));
        let log = Arc::new(CrashLog::new(ctrl));
        let wal_cfg = WalConfig { checkpoint_bytes: u64::MAX };
        let (store, _) = PageStore::new_durable(
            cfg(),
            Box::new(Arc::clone(&backend)),
            Box::new(Arc::clone(&log)),
            wal_cfg,
        )
        .unwrap();
        let id = store.alloc().unwrap();
        store.write(id, &payload(0xCC, 0)).unwrap();
        store.commit_with(b"acked").unwrap();
        let committed = snapshot(&store);

        // Past the commit: a free of the committed page and fresh pages
        // written, never synced.
        store.free(id).unwrap();
        for i in 1..3u8 {
            let fresh = store.alloc().unwrap();
            store.write(fresh, &payload(0xDD, i)).unwrap();
        }

        let (store2, report) = PageStore::new_durable(
            cfg(),
            Box::new(backend.surviving_backend()),
            Box::new(log.surviving_log()),
            WalConfig::default(),
        )
        .unwrap();
        assert_eq!(report.last_commit_meta.as_deref(), Some(&b"acked"[..]), "seed {seed}");
        assert_eq!(
            snapshot(&store2),
            committed,
            "seed {seed}: recovery must restore exactly the acked state — \
             no uncommitted writes, no lost acked ones"
        );
    }
}

#[test]
fn checkpoint_leaves_nothing_to_replay() {
    let ctrl = CrashController::new(CrashPlan::count_only(7));
    let backend = Arc::new(CrashBackend::new(FRAME, ctrl.clone()));
    let log = Arc::new(CrashLog::new(ctrl));
    let (store, _) = PageStore::new_durable(
        cfg(),
        Box::new(Arc::clone(&backend)),
        Box::new(Arc::clone(&log)),
        WalConfig::default(),
    )
    .unwrap();
    for i in 0..4u8 {
        let id = store.alloc().unwrap();
        store.write(id, &payload(0x11, i)).unwrap();
    }
    store.checkpoint().unwrap();
    let committed = snapshot(&store);

    let (store2, report) = PageStore::new_durable(
        cfg(),
        Box::new(backend.surviving_backend()),
        Box::new(log.surviving_log()),
        WalConfig::default(),
    )
    .unwrap();
    assert_eq!(report.replayed_records(), 0, "nothing left to replay: {report:?}");
    assert_eq!(snapshot(&store2), committed);
}

#[test]
fn auto_checkpoint_keeps_the_log_bounded_across_reopens() {
    let path = tempfile("bounded.pcstore");
    let wal_cfg = WalConfig { checkpoint_bytes: 512 };
    let before;
    {
        let (store, _) = PageStore::file_durable(&path, PAGE, wal_cfg).unwrap();
        let mut ids: Vec<PageId> = Vec::new();
        for round in 0..20u8 {
            // Each round replaces the six pages of the last: new pages
            // written, the old ones freed.
            for i in 0..6u8 {
                let id = store.alloc().unwrap();
                store.write(id, &payload(round, i)).unwrap();
                if let Some(old) = ids.get(i as usize).copied() {
                    store.free(old).unwrap();
                }
                ids.push(id);
            }
            ids.drain(..ids.len() - 6);
            store.commit_with(&[round]).unwrap();
        }
        let ws = store.wal_stats().unwrap();
        assert!(ws.checkpoints > 1, "workload must cross the threshold: {ws:?}");
        assert!(
            ws.log_bytes < 8 * 512,
            "log must stay within a small multiple of the threshold: {ws:?}"
        );
        before = snapshot(&store);
    }
    let (store, report) = PageStore::file_durable(&path, PAGE, wal_cfg).unwrap();
    assert!(!report.data_torn_tail);
    assert_eq!(snapshot(&store), before);
}

#[test]
fn torn_data_file_tail_is_detected_and_recovered_on_open() {
    let path = tempfile("torn.pcstore");
    let before;
    {
        let (store, _) = PageStore::file_durable(&path, PAGE, WalConfig::default()).unwrap();
        for i in 0..3u8 {
            let id = store.alloc().unwrap();
            store.write(id, &payload(0x77, i)).unwrap();
        }
        // Checkpoint so the data file holds the frames, then commit.
        store.checkpoint().unwrap();
        before = snapshot(&store);
    }
    // Simulate a crash mid-frame-append: a partial trailing frame.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0x5Au8; FRAME / 2]).unwrap();
    }
    let (store, report) = PageStore::file_durable(&path, PAGE, WalConfig::default()).unwrap();
    assert!(report.data_torn_tail, "the torn tail must be surfaced, not silently dropped");
    assert_eq!(snapshot(&store), before, "truncating the tear restores the committed state");

    // And a second open is clean: the tear was actually repaired on disk.
    drop(store);
    let (_, report) = PageStore::file_durable(&path, PAGE, WalConfig::default()).unwrap();
    assert!(!report.data_torn_tail);
}

#[test]
fn torn_wal_tail_is_truncated_on_open() {
    let path = tempfile("tornwal.pcstore");
    let before;
    {
        let (store, _) = PageStore::file_durable(&path, PAGE, WalConfig::default()).unwrap();
        let id = store.alloc().unwrap();
        store.write(id, &payload(0x33, 0)).unwrap();
        store.sync().unwrap();
        before = snapshot(&store);
    }
    // Tear the log: append half a record's worth of garbage.
    let mut wal_path = path.clone().into_os_string();
    wal_path.push(".wal");
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal_path).unwrap();
        f.write_all(&[0xFFu8; 10]).unwrap();
    }
    let (store, report) = PageStore::file_durable(&path, PAGE, WalConfig::default()).unwrap();
    assert!(report.torn_tail, "the torn log tail must be reported: {report:?}");
    assert_eq!(snapshot(&store), before);
}

#[test]
fn recycled_free_alloc_cycle_survives_recovery() {
    let ctrl = CrashController::new(CrashPlan::count_only(3));
    let backend = Arc::new(CrashBackend::new(FRAME, ctrl.clone()));
    let log = Arc::new(CrashLog::new(ctrl));
    let (store, _) = PageStore::new_durable(
        cfg(),
        Box::new(Arc::clone(&backend)),
        Box::new(Arc::clone(&log)),
        WalConfig { checkpoint_bytes: u64::MAX },
    )
    .unwrap();
    let a = store.alloc().unwrap();
    let b = store.alloc().unwrap();
    store.write(a, &payload(0x01, 0)).unwrap();
    store.write(b, &payload(0x02, 1)).unwrap();
    store.free(a).unwrap();
    let c = store.alloc().unwrap();
    assert_eq!(c, a, "strict stores recycle the freed id");
    store.write(c, &payload(0x03, 2)).unwrap();
    store.commit_with(b"cycle").unwrap();
    // A committed page freed: it waits for the next commit, so the group's
    // alloc takes a new id and the free list order is the commit's.
    store.free(b).unwrap();
    let e = store.alloc().unwrap();
    assert!(e != b && e != c, "a committed page is not reused before the next commit");
    store.write(e, &payload(0x04, 3)).unwrap();
    store.free(c).unwrap();
    store.commit_with(b"cycle-2").unwrap();
    let committed = snapshot(&store);

    let (store2, _) = PageStore::new_durable(
        cfg(),
        Box::new(backend.surviving_backend()),
        Box::new(log.surviving_log()),
        WalConfig::default(),
    )
    .unwrap();
    assert_eq!(snapshot(&store2), committed);
    // The free list is state too, order included: the recovered allocator
    // must continue as the live one would.
    assert_eq!(store2.alloc_snapshot(), store.alloc_snapshot());
    assert_eq!(store2.alloc_snapshot().free_list, [b.0, c.0], "b at the commit, after c");
}

/// A log medium whose appends, or fsyncs, fail while their flag is set.
#[derive(Default)]
struct RefusingLog {
    log: MemLog,
    refuse_append: AtomicBool,
    refuse_sync: AtomicBool,
}

impl LogMedium for RefusingLog {
    fn read_all(&self) -> pc_pagestore::Result<Vec<u8>> {
        self.log.read_all()
    }
    fn append(&self, buf: &[u8]) -> pc_pagestore::Result<()> {
        if self.refuse_append.load(Relaxed) {
            return Err(std::io::Error::other("log append refused").into());
        }
        self.log.append(buf)
    }
    fn sync(&self) -> pc_pagestore::Result<()> {
        if self.refuse_sync.load(Relaxed) {
            return Err(std::io::Error::other("log fsync refused").into());
        }
        self.log.sync()
    }
    fn len(&self) -> pc_pagestore::Result<u64> {
        self.log.len()
    }
    fn reset(&self, contents: &[u8]) -> pc_pagestore::Result<()> {
        self.log.reset(contents)
    }
}

/// A durable store over `log` and a shared in-memory data medium.
fn store_over(backend: &Arc<MemBackend>, log: Box<dyn LogMedium>) -> PageStore {
    PageStore::new_durable(cfg(), Box::new(Arc::clone(backend)), log, WalConfig::default())
        .unwrap()
        .0
}

#[test]
fn alloc_and_free_do_no_log_io() {
    let backend = Arc::new(MemBackend::new(FRAME));
    let log = Arc::new(RefusingLog::default());
    let store = store_over(&backend, Box::new(Arc::clone(&log)));
    let a = store.alloc().unwrap();
    store.write(a, &payload(0x0A, 0)).unwrap();
    store.commit_with(b"first").unwrap();

    log.refuse_append.store(true, Relaxed);
    let b = store.alloc().unwrap();
    store.write(b, &payload(0x0B, 1)).unwrap();
    let c = store.alloc().unwrap();
    store.free(c).unwrap();
    store.free(a).unwrap();
    let (live, table) = (store.live_pages(), store.alloc_snapshot());
    assert!(store.commit_with(b"second").is_err(), "the commit record's append fails");
    assert_eq!(store.live_pages(), live, "the group stays open");
    assert_eq!(store.alloc_snapshot(), table, "a failed commit releases no held page");
    assert_eq!(store.alloc().unwrap(), c, "the group's own free is reused, the held one is not");
    store.free(c).unwrap();

    log.refuse_append.store(false, Relaxed);
    // Take b, take c, push c, take c, push c, then the held push of a.
    assert_eq!(store.commit_with(b"second").unwrap(), 6);
    let committed = (snapshot(&store), store.alloc_snapshot());
    drop(store);
    let reopened = store_over(&backend, Box::new(MemLog::from_bytes(log.read_all().unwrap())));
    assert_eq!(reopened.last_commit_meta().as_deref(), Some(&b"second"[..]));
    assert_eq!((snapshot(&reopened), reopened.alloc_snapshot()), committed);
}

/// An install whose commit the log refuses publishes nothing: the current
/// epoch and a new snapshot stay on the previous one, the session's pages
/// go back, and the next install commits without the failed session's
/// write, which a reopen does not see either.
#[test]
fn an_install_whose_commit_fails_publishes_nothing() {
    let backend = Arc::new(MemBackend::new(FRAME));
    let log = Arc::new(RefusingLog::default());
    let store = Arc::new(store_over(&backend, Box::new(Arc::clone(&log))));
    let a = store.alloc().unwrap();
    store.write(a, &payload(0x0A, 0)).unwrap();
    store.commit_with(b"built").unwrap();
    let vs = VersionedStore::new(Arc::clone(&store), VersionConfig::default(), b"epoch 0");
    let (live, table) = (store.live_pages(), store.alloc_snapshot());
    let rewrite = |tag| {
        let session = vs.begin_apply();
        let to = store.relocate(a).unwrap();
        store.write(to, &payload(tag, 1)).unwrap();
        (session, to)
    };

    let (session, doomed) = rewrite(0xDD);
    log.refuse_append.store(true, Relaxed);
    assert!(session.install(b"epoch 1, failed").is_err(), "the commit record's append fails");
    log.refuse_append.store(false, Relaxed);
    assert_eq!((vs.current_seq(), vs.snapshot().user_meta()), (0, &b"epoch 0"[..]));
    assert_eq!(vs.metrics().installed, 0);
    assert_eq!(store.live_pages(), live, "the session's page went back");
    assert!(matches!(store.read(doomed), Err(StoreError::PageNotAllocated(_))));
    assert_eq!(store.read(a).unwrap()[..PAGE / 2 + 1], payload(0x0A, 0)[..]);

    let (session, kept) = rewrite(0x0C);
    assert_eq!(session.install(b"epoch 1").unwrap(), 1);
    assert_eq!(store.alloc_snapshot().next_id, table.next_id + 1, "the failed copy's id reused");
    let committed = snapshot(&store);
    drop(vs);
    let reopened = store_over(&backend, Box::new(MemLog::from_bytes(log.read_all().unwrap())));
    let meta = reopened.last_commit_meta().unwrap();
    let reopened = Arc::new(reopened);
    let vs = VersionedStore::open(Arc::clone(&reopened), Some(&meta), VersionConfig::default());
    assert_eq!((vs.current_seq(), vs.snapshot().user_meta()), (1, &b"epoch 1"[..]));
    assert_eq!(reopened.read(kept).unwrap()[..PAGE / 2 + 1], payload(0x0C, 1)[..]);
    // The reopen frees the retired copy of `a`, which the commit kept.
    let survivors: Vec<_> = committed.into_iter().filter(|(id, _)| *id != a).collect();
    assert_eq!(snapshot(&reopened), survivors);
}

/// An install whose log fsync fails publishes nothing either, but its
/// record may be on the medium: the session's pages stay allocated, so a
/// later session (whose commit the broken log refuses too) writes other
/// ids, and the epoch a reopen recovers from that record reads intact.
#[test]
fn an_install_whose_log_fsync_fails_keeps_its_pages_until_reopen() {
    let backend = Arc::new(MemBackend::new(FRAME));
    let log = Arc::new(RefusingLog::default());
    let store = Arc::new(store_over(&backend, Box::new(Arc::clone(&log))));
    let a = store.alloc().unwrap();
    store.write(a, &payload(0x0A, 0)).unwrap();
    store.commit_with(b"built").unwrap();
    let vs = VersionedStore::new(Arc::clone(&store), VersionConfig::default(), b"epoch 0");
    let live = store.live_pages();
    let rewrite = |tag| {
        let session = vs.begin_apply();
        let to = store.relocate(a).unwrap();
        store.write(to, &payload(tag, 1)).unwrap();
        (session.install(&to.0.to_le_bytes()), to)
    };

    log.refuse_sync.store(true, Relaxed);
    let (installed, unknown) = rewrite(0xDD);
    log.refuse_sync.store(false, Relaxed);
    assert!(installed.is_err(), "the commit record's fsync fails");
    assert_eq!((vs.current_seq(), vs.snapshot().user_meta()), (0, &b"epoch 0"[..]));
    assert_eq!(store.live_pages(), live + 1, "the session's page stays allocated");
    let (installed, later) = rewrite(0xEE);
    assert!(installed.is_err(), "the broken log takes no record");
    assert_ne!(later, unknown, "the later session writes another id");

    drop(vs);
    let reopened = store_over(&backend, Box::new(MemLog::from_bytes(log.read_all().unwrap())));
    let meta = reopened.last_commit_meta().unwrap();
    let reopened = Arc::new(reopened);
    let vs = VersionedStore::open(Arc::clone(&reopened), Some(&meta), VersionConfig::default());
    assert_eq!((vs.current_seq(), vs.snapshot().user_meta()), (1, &unknown.0.to_le_bytes()[..]));
    // The reopen frees the retired `a`: the recovered epoch is its copy alone.
    assert_eq!(snapshot(&reopened), [(unknown, store.read(unknown).unwrap().to_vec())]);
    assert_eq!(reopened.read(unknown).unwrap()[..PAGE / 2 + 1], payload(0xDD, 1)[..]);
}

#[test]
fn after_a_failed_log_fsync_no_commit_is_logged_until_reopen() {
    let backend = Arc::new(MemBackend::new(FRAME));
    let log = Arc::new(RefusingLog::default());
    let store = store_over(&backend, Box::new(Arc::clone(&log)));
    let a = store.alloc().unwrap();
    store.write(a, &payload(0x2A, 0)).unwrap();
    log.refuse_sync.store(true, Relaxed);
    assert!(store.commit_with(b"unknown").is_err(), "the fsync fails");
    // The record is on the medium, durable or not: logged again, its
    // takes would replay twice.
    log.refuse_sync.store(false, Relaxed);
    assert!(store.commit_with(b"unknown").is_err(), "the log takes no record");
    let bytes = log.read_all().unwrap();
    drop(store);
    let reopened = store_over(&backend, Box::new(MemLog::from_bytes(bytes)));
    assert_eq!(reopened.last_commit_meta().as_deref(), Some(&b"unknown"[..]));
    assert_eq!(snapshot(&reopened).len(), 1);
    // The reopened store's checkpoint replaced the log: commits resume.
    reopened.alloc().unwrap();
    reopened.commit_with(b"next").unwrap();
}

#[test]
fn a_commit_too_large_for_the_log_is_refused_and_the_previous_one_kept() {
    let backend = Arc::new(MemBackend::new(FRAME));
    let log = Arc::new(MemLog::new());
    let store = store_over(&backend, Box::new(Arc::clone(&log)));
    let a = store.alloc().unwrap();
    store.write(a, &payload(0x1A, 0)).unwrap();
    store.commit_with(b"kept").unwrap();
    let committed = snapshot(&store);

    store.alloc().unwrap();
    // `vec![0; n]` maps zeroed memory lazily, and nothing reads it.
    let huge = vec![0u8; MAX_RECORD_PAYLOAD + 1];
    let err = store.commit_with(&huge).unwrap_err();
    assert!(matches!(err, StoreError::LogRecordTooLarge { max: MAX_RECORD_PAYLOAD, .. }), "{err}");
    assert_eq!(store.live_pages(), 2, "the group stays open");
    drop(store);
    let reopened = store_over(&backend, Box::new(MemLog::from_bytes(log.read_all().unwrap())));
    assert_eq!(reopened.last_commit_meta().as_deref(), Some(&b"kept"[..]));
    assert_eq!(snapshot(&reopened), committed);
}

#[test]
fn a_log_of_the_previous_format_is_refused_not_replayed() {
    // A `PCWAL002` header and one of its commit records (`len | kind | lsn
    // | page | crc`): its records are not this format's.
    let mut old = b"PCWAL002".to_vec();
    old.extend_from_slice(&(PAGE as u64).to_le_bytes());
    old.extend_from_slice(&[0, 0, 0, 0, 4]);
    old.extend_from_slice(&[0; 24]);
    let opened = PageStore::new_durable(
        cfg(),
        Box::new(MemBackend::new(FRAME)),
        Box::new(MemLog::from_bytes(old)),
        WalConfig::default(),
    );
    assert!(matches!(opened, Err(StoreError::Corrupt(_))), "{:?}", opened.err());
}
