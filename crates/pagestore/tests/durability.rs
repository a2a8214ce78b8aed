//! Store-level durability integration tests: reopen after a clean
//! shutdown, recovery that writes no frame and frees what the owner's ids
//! do not reach, a group killed between its data sync and its commit
//! record, a commit of metadata alone, torn-tail handling in both the data file and the log,
//! checkpointing bounding the log, a log that refuses appends, fsyncs or
//! swaps (an install under each), a record too large for the log, and a
//! log of another layout version. The exhaustive kill-point matrix lives in
//! `crash_recovery.rs`; these tests pin the individual behaviors it
//! composes.

use std::sync::Arc;

use pc_pagestore::backend::MemBackend;
use pc_pagestore::wal::{encode_header, scan, LAYOUT_VERSION, MAX_RECORD_PAYLOAD};
use pc_pagestore::{
    CrashBackend, CrashController, CrashLog, CrashPlan, FaultLog, LogMedium, MemLog, PageId,
    PageStore, StoreConfig, StoreError, VersionConfig, VersionedStore, WalConfig,
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
type Image = Vec<(PageId, Vec<u8>)>;

fn snapshot(store: &PageStore) -> Image {
    store
        .allocated_pages()
        .into_iter()
        .map(|id| (id, store.read(id).unwrap().to_vec()))
        .collect()
}

/// Hands a reopened store the pages of `image`, the state its last commit
/// names, as an owner's walk would.
fn claim(store: &PageStore, image: &Image) {
    store.free_unreached(&image.iter().map(|&(id, _)| id).collect::<Vec<_>>());
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
    claim(&store, &before);
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
    assert_eq!(report.last_commit_meta.as_deref(), Some(&b"batch-1"[..]));
    assert_eq!(snapshot(&store2), want, "every id below the frontier, until the hand-off");
    assert_eq!(store2.free_unreached(&[want[1].0, want[3].0]), 3);
    assert_eq!(snapshot(&store2), [want[1].clone(), want[3].clone()]);
    assert_eq!(data_ctrl.ops(), 0, "nor does the hand-off");
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
        // ...and the reopened store, handed the acked page, frees the lost
        // one and hands its id out again, reading zeros.
        assert_eq!(store2.free_unreached(&[PageId(0)]), 1, "seed {seed}");
        assert_eq!(store2.allocated_pages().len(), 1, "seed {seed}");
        let fresh = store2.alloc().unwrap();
        assert_eq!(fresh, b, "seed {seed}: the lost id is the lowest free one");
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
        claim(&store2, &committed);
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
    assert!(report.clean(), "{report:?}");
    let log = scan(&log.surviving_bytes(), PAGE).unwrap();
    assert_eq!(log.records.len(), 1, "the checkpoint's log holds its last record alone");
    claim(&store2, &committed);
    assert_eq!(snapshot(&store2), committed);
}

#[test]
fn auto_checkpoint_keeps_the_log_bounded_across_reopens() {
    let path = tempfile("bounded.pcstore");
    // A record is the commit's one byte of meta and 12 of framing.
    let wal_cfg = WalConfig { checkpoint_bytes: 64 };
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
            ws.log_bytes < 8 * 64,
            "log must stay within a small multiple of the threshold: {ws:?}"
        );
        before = snapshot(&store);
    }
    let (store, report) = PageStore::file_durable(&path, PAGE, wal_cfg).unwrap();
    assert!(!report.data_torn_tail);
    claim(&store, &before);
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
    claim(&store, &before);
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
    claim(&store, &before);
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
    assert_eq!(store2.free_unreached(&[e]), 2, "b and c");
    assert_eq!(snapshot(&store2), committed);
    // The free list is rebuilt in id order: the lowest free id goes first.
    assert_eq!(store2.alloc().unwrap(), b.min(c));
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
    let log = Arc::new(FaultLog::default());
    let store = store_over(&backend, Box::new(Arc::clone(&log)));
    let a = store.alloc().unwrap();
    store.write(a, &payload(0x0A, 0)).unwrap();
    store.commit_with(b"first").unwrap();

    log.refuse_appends(true);
    let b = store.alloc().unwrap();
    store.write(b, &payload(0x0B, 1)).unwrap();
    let c = store.alloc().unwrap();
    store.free(c).unwrap();
    store.free(a).unwrap();
    let live = store.allocated_pages();
    assert!(store.commit_with(b"second").is_err(), "the commit record's append fails");
    assert_eq!(store.allocated_pages(), live, "the group stays open");
    assert_eq!(store.alloc().unwrap(), c, "the group's own free is reused, the held one is not");
    store.free(c).unwrap();
    assert_ne!(store.alloc().unwrap(), a, "a failed commit releases no held page");

    log.refuse_appends(false);
    // Alloc b, alloc c, free c, alloc c, free c, free a (held), alloc.
    assert_eq!(store.commit_with(b"second").unwrap(), 7);
    let committed = snapshot(&store);
    drop(store);
    let reopened = store_over(&backend, Box::new(MemLog::from_bytes(log.read_all().unwrap())));
    assert_eq!(reopened.last_commit_meta().as_deref(), Some(&b"second"[..]));
    claim(&reopened, &committed);
    assert_eq!(snapshot(&reopened), committed);
}

/// A group of no page operations still commits its metadata — a structure
/// may keep state in its descriptor — and a reopen hands that metadata
/// back; with no metadata, or the last record's, it commits nothing.
#[test]
fn a_commit_of_metadata_alone_is_logged_and_recovered() {
    let backend = Arc::new(MemBackend::new(FRAME));
    let log = Arc::new(MemLog::new());
    let store = store_over(&backend, Box::new(Arc::clone(&log)));
    let a = store.alloc().unwrap();
    store.write(a, &payload(0x0A, 0)).unwrap();
    assert_eq!(store.commit_with(b"pages").unwrap(), 1);
    let commits = store.wal_stats().unwrap().commits;
    assert_eq!(store.commit_with(b"descriptor alone").unwrap(), 0);
    assert_eq!(store.wal_stats().unwrap().commits, commits + 1, "a record");
    assert_eq!(store.commit_with(&[]).unwrap(), 0);
    assert_eq!(store.commit_with(b"descriptor alone").unwrap(), 0);
    assert_eq!(store.wal_stats().unwrap().commits, commits + 1, "nothing new to commit");
    let committed = snapshot(&store);
    drop(store);
    let reopened = store_over(&backend, Box::new(MemLog::from_bytes(log.read_all().unwrap())));
    assert_eq!(reopened.last_commit_meta().as_deref(), Some(&b"descriptor alone"[..]));
    claim(&reopened, &committed);
    assert_eq!(snapshot(&reopened), committed);
}

/// An install whose commit the log refuses publishes nothing: the current
/// epoch and a new snapshot stay on the previous one, the session's pages
/// go back, and the next install commits without the failed session's
/// write, which a reopen does not see either.
#[test]
fn an_install_whose_commit_fails_publishes_nothing() {
    let backend = Arc::new(MemBackend::new(FRAME));
    let log = Arc::new(FaultLog::default());
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
        (session, to)
    };

    let (session, doomed) = rewrite(0xDD);
    log.refuse_appends(true);
    assert!(session.install(b"epoch 1, failed").is_err(), "the commit record's append fails");
    log.refuse_appends(false);
    assert_eq!((vs.current_seq(), vs.snapshot().user_meta()), (0, &b"epoch 0"[..]));
    assert_eq!(vs.metrics().installed, 0);
    assert_eq!(store.live_pages(), live, "the session's page went back");
    assert!(matches!(store.read(doomed), Err(StoreError::PageNotAllocated(_))));
    assert_eq!(store.read(a).unwrap()[..PAGE / 2 + 1], payload(0x0A, 0)[..]);

    let (session, kept) = rewrite(0x0C);
    assert_eq!(session.install(b"epoch 1").unwrap(), 1);
    assert_eq!(kept, doomed, "the failed copy's id reused");
    let committed = snapshot(&store);
    drop(vs);
    let reopened = store_over(&backend, Box::new(MemLog::from_bytes(log.read_all().unwrap())));
    let meta = reopened.last_commit_meta().unwrap();
    let reopened = Arc::new(reopened);
    let vs = VersionedStore::open(Arc::clone(&reopened), Some(&meta), VersionConfig::default());
    assert_eq!((vs.current_seq(), vs.snapshot().user_meta()), (1, &b"epoch 1"[..]));
    assert_eq!(reopened.read(kept).unwrap()[..PAGE / 2 + 1], payload(0x0C, 1)[..]);
    // The epoch reaches its copy of `a` alone: the retired `a` is freed.
    assert_eq!(reopened.free_unreached(&[kept]), 1);
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
    let log = Arc::new(FaultLog::default());
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

    log.refuse_syncs(true);
    let (installed, unknown) = rewrite(0xDD);
    log.refuse_syncs(false);
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
    // The recovered epoch reaches its copy alone: the retired `a` and the
    // later session's page are freed.
    assert_eq!(reopened.free_unreached(&[unknown]), 2);
    assert_eq!(snapshot(&reopened), [(unknown, store.read(unknown).unwrap().to_vec())]);
    assert_eq!(reopened.read(unknown).unwrap()[..PAGE / 2 + 1], payload(0xDD, 1)[..]);
}

#[test]
fn after_a_failed_log_fsync_no_commit_is_logged_until_reopen() {
    let backend = Arc::new(MemBackend::new(FRAME));
    let log = Arc::new(FaultLog::default());
    let store = store_over(&backend, Box::new(Arc::clone(&log)));
    let a = store.alloc().unwrap();
    store.write(a, &payload(0x2A, 0)).unwrap();
    log.refuse_syncs(true);
    assert!(store.commit_with(b"unknown").is_err(), "the fsync fails");
    // The record is on the medium, durable or not: logged again, its
    // takes would replay twice.
    log.refuse_syncs(false);
    assert!(store.commit_with(b"unknown").is_err(), "the log takes no record");
    let bytes = log.read_all().unwrap();
    drop(store);
    let reopened = store_over(&backend, Box::new(MemLog::from_bytes(bytes)));
    assert_eq!(reopened.last_commit_meta().as_deref(), Some(&b"unknown"[..]));
    assert_eq!(reopened.free_unreached(&[a]), 0);
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
    claim(&reopened, &committed);
    assert_eq!(snapshot(&reopened), committed);
}

/// A log of another layout version is refused by name before a page is
/// read: a newer one, the previous format (`PCWAL004`, whose dynamic PST
/// descriptors named a page for the root's `U`), `PCWAL003` (whose commits
/// named free-list operations), and one old enough to hold a `PCV1`
/// version frame (`PCWAL002`, whose epochs a page map translated).
#[test]
fn a_log_of_the_previous_format_is_refused_not_replayed() {
    let mut newer = encode_header(PAGE);
    newer[12..16].copy_from_slice(&(LAYOUT_VERSION + 1).to_le_bytes());
    let old = |magic: &[u8; 8]| {
        let mut log = magic.to_vec();
        log.extend_from_slice(&(PAGE as u64).to_le_bytes());
        // One record: `len | kind | payload | crc`.
        log.extend_from_slice(&[16, 0, 0, 0, 4]);
        log.extend_from_slice(&[0; 24]);
        log
    };
    // `PCWAL004`'s header named its version after the page size, as this
    // format's does.
    let mut v4 = old(b"PCWAL004");
    v4[12..16].copy_from_slice(&4u32.to_le_bytes());
    let logs = [
        (newer, LAYOUT_VERSION + 1),
        (v4, 4),
        (old(b"PCWAL003"), 3),
        (old(b"PCWAL002"), 2),
    ];
    for (log, found) in logs {
        let opened = PageStore::new_durable(
            cfg(),
            Box::new(MemBackend::new(FRAME)),
            Box::new(MemLog::from_bytes(log)),
            WalConfig::default(),
        );
        let refused = matches!(
            opened,
            Err(StoreError::LayoutVersion { found: f, expected: LAYOUT_VERSION }) if f == found
        );
        assert!(refused, "layout version {found}: {:?}", opened.err());
    }
}

/// The hand-off frees, in id order, every id below the frontier that the
/// owner's walk does not reach — a reached id past the data file's frames
/// (allocated, never written) moves the frontier — and happens once: no
/// alloc or free runs before it.
#[test]
fn a_reopened_store_frees_what_its_owner_does_not_reach() {
    let backend = Arc::new(MemBackend::new(FRAME));
    let log = Arc::new(MemLog::new());
    let store = store_over(&backend, Box::new(Arc::clone(&log)));
    let ids: Vec<PageId> = (0..6).map(|_| store.alloc().unwrap()).collect();
    for &id in &ids[..5] {
        store.write(id, &payload(0x5E, id.0 as u8)).unwrap();
    }
    store.commit_with(b"six").unwrap();
    drop(store);
    let reopened = store_over(&backend, Box::new(MemLog::from_bytes(log.read_all().unwrap())));
    assert_eq!(reopened.allocated_pages(), ids[..5], "every id below the data file's frames");
    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reopened.alloc()));
    assert!(refused.is_err(), "an alloc before the hand-off");
    assert_eq!(reopened.free_unreached(&[ids[1], ids[5], ids[3]]), 3);
    assert_eq!(reopened.allocated_pages(), [ids[1], ids[3], ids[5]]);
    assert_eq!(reopened.free_unreached(&[]), 0, "a second hand-off does nothing");
    let recycled: Vec<PageId> = (0..4).map(|_| reopened.alloc().unwrap()).collect();
    assert_eq!(recycled, [ids[0], ids[2], ids[4], PageId(6)], "lowest first, then the frontier");
    assert!(reopened.read(ids[4]).unwrap().iter().all(|&b| b == 0), "a recycled id reads zeros");
}

/// A checkpoint whose log swap fails after its commit was durable fails
/// nothing: the install publishes its epoch, a reopen recovers it, and the
/// next commit swaps the log.
#[test]
fn an_install_whose_checkpoint_swap_fails_publishes_its_epoch() {
    let backend = Arc::new(MemBackend::new(FRAME));
    let log = Arc::new(FaultLog::default());
    let data = Box::new(Arc::clone(&backend));
    let wal = WalConfig { checkpoint_bytes: 1 };
    let store = PageStore::new_durable(cfg(), data, Box::new(Arc::clone(&log)), wal).unwrap().0;
    let store = Arc::new(store);
    let a = store.alloc().unwrap();
    store.write(a, &payload(0x0A, 0)).unwrap();
    store.commit_with(b"built").unwrap();
    let vs = VersionedStore::new(Arc::clone(&store), VersionConfig::default(), b"epoch 0");
    let checkpoints = store.wal_stats().unwrap().checkpoints;

    log.refuse_resets(true);
    let session = vs.begin_apply();
    let to = store.relocate(a).unwrap();
    store.write(to, &payload(0x0B, 1)).unwrap();
    assert_eq!(session.install(b"epoch 1").unwrap(), 1, "the commit was durable");
    assert_eq!((vs.current_seq(), vs.snapshot().user_meta()), (1, &b"epoch 1"[..]));
    assert_eq!(store.wal_stats().unwrap().checkpoints, checkpoints, "the swap failed");
    let reopened = store_over(&backend, Box::new(MemLog::from_bytes(log.read_all().unwrap())));
    let meta = reopened.last_commit_meta().unwrap();
    let recovered = VersionedStore::open(Arc::new(reopened), Some(&meta), VersionConfig::default());
    assert_eq!((recovered.current_seq(), recovered.snapshot().user_meta()), (1, &b"epoch 1"[..]));

    log.refuse_resets(false);
    let session = vs.begin_apply();
    store.write(store.relocate(to).unwrap(), &payload(0x0C, 2)).unwrap();
    session.install(b"epoch 2").unwrap();
    assert_eq!(store.wal_stats().unwrap().checkpoints, checkpoints + 1, "the next commit swaps");
    assert_eq!(scan(&log.read_all().unwrap(), PAGE).unwrap().records.len(), 1);
}
