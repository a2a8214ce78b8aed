//! Seeded crash-point matrices for the durable page store, at the page
//! level and at the level of the versioned serve path.
//!
//! 1. **Raw kill-point matrix** — a mixed alloc/write/free/commit workload
//!    of fresh pages (a durable store never overwrites a committed page)
//!    runs over crash-simulated media ([`CrashBackend`] + [`CrashLog`]).
//!    A counting pass learns how many durable I/Os the workload issues
//!    (log appends, log fsyncs, checkpoint log swaps, data-frame writes,
//!    data fsyncs); the matrix then re-runs it dying at *every* one of
//!    them, extracts what durable media would hold, and asserts that every
//!    frame of the committed batch prefix the recovered commit names, which
//!    holds every acknowledged batch, is intact on the medium; then it
//!    reopens, hands the store that prefix's pages as an owner's walk
//!    would, and asserts the store equals that prefix. Every decision
//!    derives from `(seed, op ordinal)`, so a failure reproduces from its
//!    printed `(seed, kill_at)` pair.
//!
//! 2. **Versioned matrix** — each update-capable target kind, applied in
//!    copy-on-write sessions and installed epoch by epoch as a shard does,
//!    killed at a stride of its durable I/Os: recovery exposes exactly the
//!    last committed epoch, bit-identical, and the store, handed the pages
//!    the reopened target walks, holds exactly the pages that epoch's
//!    target reached in the run that installed it. The dynamic PST runs a
//!    second stream whose batches mostly stay in its root's `U`, which its
//!    descriptor carries: their commits write no data frame.
//!
//! That every structure *answers* as the model at the acked prefix after
//! a seeded kill is `tests/oracle.rs`'s, one test per structure.
//! The three seeds are fixed; `PC_CHAOS_SEED=<u64>` moves them all.
//! `scripts/verify.sh --crash` runs this suite at the fixed seeds and once
//! at a fresh one.

use std::sync::Arc;

use pc_pagestore::codec::frame_is_valid;
use pc_pagestore::{
    CrashBackend, CrashController, CrashLog, CrashPlan, PageId, PageStore, StoreConfig,
    VersionConfig, VersionedStore, WalConfig,
};
use pc_pst::{DynamicPst, DynamicThreeSidedPst};
use path_caching::Point;
use pc_serve::wire::{Body, Op};
use pc_serve::{
    canonicalize, decode_commit_meta, encode_commit_meta, DynamicPstTarget,
    DynamicThreeSidedTarget, QueryTarget, TargetError, UpdateOp,
};

/// Logical state: every allocated page's id and payload bytes.
type PageImage = Vec<(PageId, Vec<u8>)>;

fn snapshot(store: &PageStore) -> PageImage {
    store
        .allocated_pages()
        .into_iter()
        .map(|id| (id, store.read(id).unwrap().to_vec()))
        .collect()
}

/// The ids of an image: what an owner's walk of its state reaches.
fn ids(image: &PageImage) -> Vec<PageId> {
    image.iter().map(|&(id, _)| id).collect()
}

/// A matrix's seed: `fixed`, or, when `PC_CHAOS_SEED` is set, that seed
/// mixed with `fixed` so the matrices still draw apart.
fn seed(fixed: u64) -> u64 {
    match std::env::var("PC_CHAOS_SEED") {
        Ok(s) => {
            let chaos: u64 = s
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("PC_CHAOS_SEED must parse as u64, got {s:?}"));
            chaos ^ fixed
        }
        Err(_) => fixed,
    }
}

// ---------------------------------------------------------------------------
// Raw kill-point matrix
// ---------------------------------------------------------------------------

const RAW_PAGE: usize = 64;
const RAW_FRAME: usize = RAW_PAGE + 8;
const BATCHES: u8 = 6;

fn raw_cfg() -> StoreConfig {
    StoreConfig::strict(RAW_PAGE)
}

/// Small checkpoint threshold so the six batches cross it several times —
/// the matrix must include kill points inside checkpoints (the log swap),
/// not just inside commits. A record is 14 bytes, the header 16.
fn raw_wal_cfg() -> WalConfig {
    WalConfig { checkpoint_bytes: 48 }
}

fn batch_payload(batch: u8, slot: u8) -> Vec<u8> {
    let mut v = vec![batch.wrapping_mul(16).wrapping_add(slot); RAW_PAGE];
    v[0] = batch;
    v[1] = slot;
    v
}

/// What a run of [`raw_workload`] committed.
#[derive(Default)]
struct Run {
    /// Batches acknowledged.
    acked: u64,
    /// The live pages each batch's commit names (the last perhaps a
    /// commit whose acknowledgement the kill took): what the batch
    /// `[round, b]` of a recovered commit reaches.
    live: Vec<Vec<PageId>>,
    /// With `record` (the reference run; never crashes), the committed
    /// state after each batch, the initial empty state at index 0.
    snaps: Vec<PageImage>,
}

/// The batch a recovered commit names: its round and batch index.
fn batch_of(meta: Option<&[u8]>) -> Option<(u8, usize)> {
    meta.map(|m| (m[0], m[1] as usize))
}

/// Runs the deterministic mixed workload, committing batch `b` as
/// `[round, b]`. Stops at the first error (the crash).
fn raw_workload(store: &PageStore, round: u8, record: bool) -> Run {
    let mut run = Run::default();
    if record {
        run.snaps.push(snapshot(store));
    }
    let mut live: Vec<PageId> = Vec::new();
    for b in 0..BATCHES {
        let step = || -> pc_pagestore::Result<()> {
            for slot in 0..2u8 {
                let id = store.alloc()?;
                store.write(id, &batch_payload(b, slot))?;
                live.push(id);
            }
            // Replace one committed page by hand, as a copy-on-write does:
            // a fresh page written twice (the second image is the one that
            // must survive) and the old one freed, which the allocator
            // holds until this batch commits.
            let i = b as usize % live.len();
            let moved = store.alloc()?;
            store.write(moved, &batch_payload(b, 0xE0))?;
            store.write(moved, &batch_payload(b, 0xF0))?;
            store.free(std::mem::replace(&mut live[i], moved))?;
            // Free one page every other batch so frees and free-list
            // order are part of the matrix.
            if b % 2 == 1 && live.len() > 3 {
                let victim = live.remove(0);
                store.free(victim)?;
            }
            run.live.push(live.clone());
            store.commit_with(&[round, b])?;
            Ok(())
        }();
        match step {
            Ok(()) => {
                run.acked += 1;
                if record {
                    run.snaps.push(snapshot(store));
                }
            }
            Err(_) => break,
        }
    }
    run
}

fn crash_media(seed: u64, kill_at: u64) -> (CrashController, Arc<CrashBackend>, Arc<CrashLog>) {
    let ctrl = CrashController::new(CrashPlan { seed, kill_at });
    let backend = Arc::new(CrashBackend::new(RAW_FRAME, ctrl.clone()));
    let log = Arc::new(CrashLog::new(ctrl.clone()));
    (ctrl, backend, log)
}

/// Asserts that every page of `state` sits on the crashed medium as a
/// whole, valid frame with exactly the committed bytes.
fn assert_frames_intact(frames: &[(PageId, Vec<u8>)], state: &PageImage, ctx: &str) {
    for (id, bytes) in state {
        let frame = frames.iter().find(|(f, _)| f == id).map(|(_, f)| f);
        let Some(frame) = frame else { panic!("{ctx}: committed page {id:?} has no frame") };
        assert!(
            frame_is_valid(frame) && frame[..RAW_PAGE] == bytes[..],
            "{ctx}: the medium's frame of committed page {id:?} differs from its commit"
        );
    }
}

#[test]
fn kill_point_matrix_every_acked_batch_survives() {
    let seed = seed(0x9e37_79b9_7f4a_7c15);

    // Counting pass: same media, never killed. Doubles as the reference
    // run for the committed-prefix snapshots.
    let (ctrl, backend, log) = crash_media(seed, 0);
    let (store, _) = PageStore::new_durable(
        raw_cfg(),
        Box::new(Arc::clone(&backend)),
        Box::new(Arc::clone(&log)),
        raw_wal_cfg(),
    )
    .unwrap();
    let Run { acked, snaps, .. } = raw_workload(&store, 1, true);
    assert_eq!(acked, BATCHES as u64);
    let ws = store.wal_stats().unwrap();
    assert!(
        ws.checkpoints >= 2,
        "workload must cross the checkpoint threshold so the matrix covers \
         log swaps: {ws:?}"
    );
    let total = ctrl.ops();
    assert!(total > 30, "matrix too small to be interesting: {total} ops: {ws:?}");
    drop(store);

    for kill_at in 1..=total {
        let (ctrl, backend, log) = crash_media(seed, kill_at);
        let acked = match PageStore::new_durable(
            raw_cfg(),
            Box::new(Arc::clone(&backend)),
            Box::new(Arc::clone(&log)),
            raw_wal_cfg(),
        ) {
            Ok((store, _)) => raw_workload(&store, 1, false).acked,
            // Killed during the open itself: nothing was ever acked.
            Err(_) => 0,
        };
        assert!(ctrl.crashed(), "seed {seed:#x} kill_at {kill_at}: the store must die");
        let ctx = format!("seed {seed:#x} kill_at {kill_at}");
        let frames = backend.surviving_frames();

        let (recovered, report) = PageStore::new_durable(
            raw_cfg(),
            Box::new(backend.surviving_backend()),
            Box::new(log.surviving_log()),
            raw_wal_cfg(),
        )
        .unwrap_or_else(|e| {
            panic!("seed {seed:#x} kill_at {kill_at}: recovery must never fail: {e}")
        });
        // The batch the recovered commit names is the prefix restored.
        let idx = batch_of(report.last_commit_meta.as_deref()).map_or(0, |(_, b)| b + 1);
        assert!(
            idx as u64 >= acked && idx as u64 <= acked + 1,
            "{ctx}: {acked} batches were acked but recovery restored {idx}; report: {report:?}"
        );
        // Recovery writes no frame, so the medium itself must hold the
        // state it restored, every acked batch included.
        assert_frames_intact(&frames, &snaps[idx], &ctx);
        recovered.free_unreached(&ids(&snaps[idx]));
        assert!(snapshot(&recovered) == snaps[idx], "{ctx}: the store is not batch {idx}'s");
    }
}

#[test]
fn multi_crash_rounds_carry_survivors_forward() {
    // Crash, recover, run more batches on the *survivors*, crash again:
    // durability must compose across rounds. The second round's media are
    // pre-seeded with the first round's surviving bytes via
    // `with_frames`/`with_bytes`.
    let seed = seed(0x5bd1_e995);
    let (_, backend, log) = crash_media(seed, 0);
    let (store, _) = PageStore::new_durable(
        raw_cfg(),
        Box::new(Arc::clone(&backend)),
        Box::new(Arc::clone(&log)),
        raw_wal_cfg(),
    )
    .unwrap();
    let snaps = raw_workload(&store, 1, true).snaps;
    drop(store);

    let (_, backend, log) = crash_media(seed, 23);
    let first = match PageStore::new_durable(
        raw_cfg(),
        Box::new(Arc::clone(&backend)),
        Box::new(Arc::clone(&log)),
        raw_wal_cfg(),
    ) {
        Ok((store, _)) => raw_workload(&store, 1, false),
        Err(_) => Run::default(),
    };
    let first_acked = first.acked;

    // Round two: carry the survivors into fresh crash media and keep going.
    let ctrl2 = CrashController::new(CrashPlan::kill_at(seed ^ 1, 17));
    let backend2 = Arc::new(CrashBackend::with_frames(
        RAW_FRAME,
        ctrl2.clone(),
        backend.surviving_frames(),
    ));
    let log2 = Arc::new(CrashLog::with_bytes(ctrl2.clone(), log.surviving_bytes()));
    // Round one's pages the reopened commit names, which round two keeps.
    let mut kept: Vec<PageId> = Vec::new();
    let mut second = Run::default();
    if let Ok((store, report)) = PageStore::new_durable(
        raw_cfg(),
        Box::new(Arc::clone(&backend2)),
        Box::new(Arc::clone(&log2)),
        raw_wal_cfg(),
    ) {
        // Whatever round one acked must already be here.
        let idx = batch_of(report.last_commit_meta.as_deref()).map_or(0, |(_, b)| b + 1);
        kept = ids(&snaps[idx]);
        store.free_unreached(&kept);
        assert!(
            idx as u64 >= first_acked && snapshot(&store) == snaps[idx],
            "seed {seed:#x}: round two opened on batch {idx}, not a prefix of round one's \
             {first_acked} acked batches; report: {report:?}"
        );
        second = raw_workload(&store, 2, false);
    }

    // Final recovery over round two's survivors: the commit it names holds
    // round one's kept pages and, from round two, every acked batch.
    let (recovered, report) = PageStore::new_durable(
        raw_cfg(),
        Box::new(backend2.surviving_backend()),
        Box::new(log2.surviving_log()),
        raw_wal_cfg(),
    )
    .unwrap();
    let mut reached = kept;
    let restored = match batch_of(report.last_commit_meta.as_deref()) {
        Some((2, b)) => {
            reached.extend(&second.live[b]);
            b as u64 + 1
        }
        _ => 0,
    };
    assert!(restored >= second.acked, "seed {seed:#x}: round two's acked batches lost");
    reached.sort_unstable();
    recovered.free_unreached(&reached);
    assert_eq!(ids(&snapshot(&recovered)), reached, "seed {seed:#x}: round1={first_acked}");
}

const PAGE: usize = 512;

fn durable_cfg() -> StoreConfig {
    StoreConfig::strict(PAGE)
}

fn points(n: i64) -> Vec<Point> {
    (0..n).map(|i| Point { x: (i * 7) % 101, y: (i * 13) % 97, id: i as u64 }).collect()
}

// ---------------------------------------------------------------------------
// Versioned (MVCC) kill-point matrix: recovery exposes exactly the last
// committed epoch, bit-identical under `as_of`
// ---------------------------------------------------------------------------

const V_FRAME: usize = PAGE + 8;
const V_BATCHES: u64 = 12;

fn version_wal_cfg() -> WalConfig {
    // Small threshold so the matrix includes kills inside checkpoints of
    // version-framed meta, not just inside epoch commits.
    WalConfig { checkpoint_bytes: 400 }
}

type Opened = Result<Box<dyn QueryTarget>, TargetError>;

/// An epoch of the reference run: its full scan and the pages it reaches.
type Epoch = (Vec<Point>, Vec<PageId>);

/// One update-capable target kind as a shard serves it, with a stream:
/// built and registered, updated through `apply_updates` inside the
/// batcher's session, its descriptor committed with every epoch, and —
/// after a kill — reopened from the recovered store's commit metadata.
struct Served {
    name: &'static str,
    build: fn(&PageStore, &[Point]) -> Opened,
    reopen: fn(&PageStore, &[u8]) -> Opened,
    /// The op that returns every point.
    scan: Op,
    /// Batch `b` of the stream.
    batch: fn(u64) -> Vec<UpdateOp>,
    /// At least this many of the stream's batches write no page.
    frameless: u64,
}

const SERVED: [Served; 3] = [
    Served {
        name: "dynamic_pst",
        build: |store, points| Ok(Box::new(DynamicPstTarget::new(DynamicPst::build(store, points)?))),
        reopen: |store, desc| Ok(Box::new(DynamicPstTarget::new(DynamicPst::open(store, desc)?))),
        scan: Op::TwoSided { x0: i64::MIN, y0: i64::MIN },
        batch: mixed_batch,
        frameless: 0,
    },
    Served {
        name: "dynamic_pst, root-buffered",
        build: |store, points| Ok(Box::new(DynamicPstTarget::new(DynamicPst::build(store, points)?))),
        reopen: |store, desc| Ok(Box::new(DynamicPstTarget::new(DynamicPst::open(store, desc)?))),
        scan: Op::TwoSided { x0: i64::MIN, y0: i64::MIN },
        batch: root_buffered_batch,
        frameless: V_BATCHES * 3 / 4,
    },
    Served {
        name: "dynamic_pst3",
        build: |store, points| {
            Ok(Box::new(DynamicThreeSidedTarget::new(DynamicThreeSidedPst::build(store, points)?)))
        },
        reopen: |store, desc| {
            Ok(Box::new(DynamicThreeSidedTarget::new(DynamicThreeSidedPst::open(store, desc)?)))
        },
        scan: Op::ThreeSided { x1: i64::MIN, x2: i64::MAX, y0: i64::MIN },
        batch: mixed_batch,
        frameless: 0,
    },
];

/// Batch `b` of the mixed stream: six inserts and a delete of a built point.
fn mixed_batch(b: u64) -> Vec<UpdateOp> {
    let mut ops: Vec<UpdateOp> = (0..6i64)
        .map(|i| {
            UpdateOp::Insert(Point {
                x: 500 + b as i64 * 10 + i,
                y: (b as i64 * 31 + i * 7) % 97,
                id: 9000 + b * 10 + i as u64,
            })
        })
        .collect();
    ops.push(UpdateOp::Delete(points(60)[b as usize]));
    ops
}

/// Batch `b` of a stream that mostly stays in the dynamic PST's root `U`:
/// an insert and a delete of a built point, but every fourth batch 120
/// inserts, more than `U` holds at 512 B, which flush it down the tree.
fn root_buffered_batch(b: u64) -> Vec<UpdateOp> {
    let insert = |i: u64| {
        let (x, y) = ((b * 53 + i * 11) % 400, (b * 17 + i * 29) % 97);
        UpdateOp::Insert(Point { x: 300 + x as i64, y: y as i64, id: 20_000 + b * 1000 + i })
    };
    match b % 4 {
        3 => (0..120).map(insert).collect(),
        _ => vec![insert(0), UpdateOp::Delete(points(60)[20 + b as usize])],
    }
}

fn versioned_scan(kind: &Served, target: &dyn QueryTarget, store: &PageStore) -> Vec<Point> {
    match canonicalize(target.query(store, &kind.scan).unwrap()) {
        Body::Points(v) => v,
        other => panic!("{}: scan answered {other:?}", kind.name),
    }
}

/// Deterministic versioned workload: build + durable epoch-0 commit, then
/// `V_BATCHES` apply sessions of the kind's stream, which copy the paths
/// they write, each installed as the next epoch (which is what
/// group-commits it) with the target's descriptor as the batcher frames
/// it. Stops at the first error — the crash — and returns how many epochs
/// were acked (`install_as` returned `Ok`), plus, when `record` is set, the
/// full scan and the pages the target reaches at every epoch, and how many
/// batches wrote no page.
fn versioned_workload(
    kind: &Served,
    store: &Arc<PageStore>,
    record: bool,
) -> (u64, Vec<Epoch>, u64) {
    let (mut states, mut frameless) = (Vec::new(), 0);
    let meta = |seq: u64, target: &dyn QueryTarget| encode_commit_meta(seq, &[target.descriptor()]);
    let setup = (|| -> Opened {
        let target = (kind.build)(store, &points(60))?;
        store.commit_with(&meta(0, &*target))?;
        Ok(target)
    })();
    let Ok(target) = setup else { return (0, states, frameless) };
    let vs = VersionedStore::new(Arc::clone(store), VersionConfig { retain: 3 }, &meta(0, &*target));
    if record {
        states.push((versioned_scan(kind, &*target, store), walk(&*target, store)));
    }
    let mut acked = 0u64;
    for b in 0..V_BATCHES {
        let writes = store.stats().writes;
        let session = vs.begin_apply();
        let ops = (kind.batch)(b);
        let applied = target.apply_updates(store, &ops).into_iter().all(|r| r.is_ok());
        // Dropping the session aborts the batch.
        if !applied || session.install_as(b + 1, &meta(b + 1, &*target)).is_err() {
            break;
        }
        acked += 1;
        frameless += u64::from(store.stats().writes == writes);
        if record {
            states.push((versioned_scan(kind, &*target, store), walk(&*target, store)));
        }
    }
    (acked, states, frameless)
}

/// The pages `target` reaches, in id order.
fn walk(target: &dyn QueryTarget, store: &PageStore) -> Vec<PageId> {
    let mut ids = target.page_ids(store).unwrap();
    ids.sort_unstable();
    ids
}

#[test]
fn versioned_kill_point_matrix_recovers_last_committed_epoch() {
    SERVED.iter().for_each(versioned_kill_point_matrix);
}

fn versioned_kill_point_matrix(kind: &Served) {
    let seed = seed(0xE70C_4B1D);
    let name = kind.name;

    // Counting/reference pass: never killed; records the state per epoch.
    let ctrl = CrashController::new(CrashPlan::count_only(seed));
    let backend = Arc::new(CrashBackend::new(V_FRAME, ctrl.clone()));
    let log = Arc::new(CrashLog::new(ctrl.clone()));
    let (store, _) = PageStore::new_durable(
        durable_cfg(),
        Box::new(Arc::clone(&backend)),
        Box::new(Arc::clone(&log)),
        version_wal_cfg(),
    )
    .unwrap();
    let store = Arc::new(store);
    let (acked, states, frameless) = versioned_workload(kind, &store, true);
    assert_eq!(acked, V_BATCHES, "{name}: reference run must complete");
    assert_eq!(states.len() as u64, V_BATCHES + 1);
    assert!(frameless >= kind.frameless, "{name}: {frameless} batches wrote no page");
    let ws = store.wal_stats().unwrap();
    assert!(
        ws.checkpoints >= 2,
        "{name}: workload must cross the checkpoint threshold so the matrix covers \
         log swaps: {ws:?}"
    );
    let total = ctrl.ops();
    assert!(total > 40, "{name}: matrix too small to be interesting: {total} ops");
    drop(store);

    // Sample the matrix coarsely (every op would be minutes of rebuilds;
    // the stride still lands inside builds, epoch commits and checkpoints)
    // plus the first/last few ops exactly.
    let kill_points: Vec<u64> =
        (1..=total).filter(|k| *k <= 4 || *k + 4 > total || *k % 7 == 0).collect();
    // Kills inside an apply session: after its first relocation, before its
    // install's commit was durable.
    let mut mid_session = 0;
    for kill_at in kill_points {
        let ctx = format!("{name} seed {seed:#x} kill_at {kill_at}");
        let ctrl = CrashController::new(CrashPlan::kill_at(seed, kill_at));
        let backend = Arc::new(CrashBackend::new(V_FRAME, ctrl.clone()));
        let log = Arc::new(CrashLog::new(ctrl.clone()));
        let acked = match PageStore::new_durable(
            durable_cfg(),
            Box::new(Arc::clone(&backend)),
            Box::new(Arc::clone(&log)),
            version_wal_cfg(),
        ) {
            Ok((store, _)) => versioned_workload(kind, &Arc::new(store), false).0,
            Err(_) => 0,
        };
        assert!(ctrl.crashed(), "{ctx}: the store must die");

        let (recovered, report) = PageStore::new_durable(
            durable_cfg(),
            Box::new(backend.surviving_backend()),
            Box::new(log.surviving_log()),
            WalConfig::default(),
        )
        .unwrap_or_else(|e| panic!("{ctx}: recovery must never fail: {e}"));
        let recovered = Arc::new(recovered);
        let Some(meta) = recovered.last_commit_meta() else {
            // Killed before the epoch-0 commit became durable: recovery
            // must have erased the whole uncommitted build.
            assert_eq!(acked, 0, "{ctx}: acked an epoch with no durable meta");
            assert!(
                recovered.allocated_pages().is_empty(),
                "{ctx}: uncommitted build survived (report: {report:?})"
            );
            continue;
        };

        // Reopen the epoch manager and the target from the recovered commit
        // meta, exactly as a restarting shard does before `Server::spawn`.
        let vs =
            VersionedStore::open(Arc::clone(&recovered), Some(&meta), VersionConfig { retain: 3 });
        let s = vs.current_seq();
        assert!(
            s >= acked && s <= acked + 1,
            "{ctx}: {acked} epochs acked but recovery exposes seq {s}"
        );
        mid_session += usize::from(s == acked && acked < V_BATCHES);
        // Exactly one epoch — the last committed one — is visible.
        assert_eq!(vs.retained_range(), (s, s), "{ctx}");
        let snap = vs.snapshot_at(s).unwrap();
        let (seq, descs) = decode_commit_meta(snap.user_meta()).expect("batcher-framed meta");
        assert_eq!((seq, descs.len()), (s, 1), "{ctx}");
        let desc = descs[0].as_ref().expect("a dynamic target's descriptor");
        let target = (kind.reopen)(&recovered, desc)
            .unwrap_or_else(|e| panic!("{ctx}: epoch {s} descriptor unusable: {e}"));
        let got = versioned_scan(kind, &*target, &recovered);
        assert_eq!(got, states[s as usize].0, "{ctx}: as_of({s}) diverged after recovery");
        let reached = walk(&*target, &recovered);
        assert_eq!(reached, states[s as usize].1, "{ctx}: epoch {s} reaches other pages");
        recovered.free_unreached(&reached);
        assert_eq!(recovered.allocated_pages(), reached, "{ctx}: epoch {s}'s allocation table");
    }
    assert!(mid_session > 0, "{name}: no kill landed between a relocation and its install");
}
