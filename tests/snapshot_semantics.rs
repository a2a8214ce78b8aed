//! Snapshot-isolation semantics of the versioned serve path.
//!
//! The MVCC contract this suite pins, end to end:
//!
//! 1. **Pinned snapshots are immutable and lock-free**: a reader that pins
//!    a [`Snapshot`] keeps getting bit-identical answers while concurrent
//!    update batches install new epochs — and its query path takes *zero*
//!    exclusive lock acquisitions, measured with the `pc-sync` probe (the
//!    lock-freedom analogue of the zero-alloc counting test).
//! 2. **GC never reclaims a pinned epoch**: retention can evict an epoch
//!    from the `as_of` window while a pin holds it alive, and the pinned
//!    reader stays bit-identical even as CoW-retired pages of *unpinned*
//!    epochs are reclaimed underneath it.
//! 3. **Seeded interleavings**: a pc-rng-driven mix of installs, pins,
//!    drops, pinned reads and `as_of` reads upholds all of the above.
//!
//! That `as_of(v)` answers as the model at `v`'s prefix, for every retained
//! `v` and both dynamic targets, is `tests/oracle.rs`'s `served` cell.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pc_btree::BTree;
use pc_pagestore::{PageStore, Point, Snapshot, StoreError, UpdateOp, VersionConfig, VersionedStore};
use pc_pst::{DynamicPst, DynamicThreeSidedPst, TwoSided};
use pc_rng::Rng;
use pc_serve::wire::{Body, Op};
use pc_serve::{
    canonicalize, decode_commit_meta, Client, DynamicBTreeTarget, DynamicPstTarget,
    DynamicThreeSidedTarget, QueryTarget, Registry, Server, ServerConfig, ServerHandle, Service,
};
use pc_workloads::{gen_points, PointDist, DOMAIN};

const PAGE: usize = 512;

const SEED: u64 = 0x5EED_5A07;

/// Spawns a versioned server over a dynamic PST (target 0) on `store`,
/// returning the handle and the shared store (for frozen-view reads).
fn spawn(store: PageStore, points: &[Point], retain: usize) -> (ServerHandle, Arc<PageStore>) {
    let store = Arc::new(store);
    let mut registry = Registry::new();
    let target = DynamicPstTarget::new(DynamicPst::build(&store, points).unwrap());
    registry.register("dyn", Box::new(target));
    let cfg = ServerConfig { workers: 2, version_retain: retain, ..ServerConfig::default() };
    let handle = Server::spawn(Service { store: Arc::clone(&store), registry }, cfg).unwrap();
    (handle, store)
}

/// Opens the frozen view of target 0 as of `snap` — the library-level
/// equivalent of what a worker does for an `as_of` request.
fn open_frozen(snap: &Snapshot, store: &PageStore) -> DynamicPst {
    let desc = decode_commit_meta(snap.user_meta())
        .and_then(|(_, descs)| descs.into_iter().next().flatten())
        .expect("versioned epoch carries the target descriptor");
    DynamicPst::open(store, &desc).unwrap()
}

/// Full scan of a frozen view, canonically sorted.
fn frozen_scan(frozen: &DynamicPst, store: &PageStore) -> Vec<Point> {
    let mut v = frozen.query(store, TwoSided { x0: i64::MIN, y0: i64::MIN }).unwrap();
    v.sort_unstable_by_key(|p| (p.x, p.y, p.id));
    v
}

fn acked(resp: Result<pc_serve::wire::Response, pc_serve::ClientError>) -> Body {
    match resp {
        Ok(r) => match r.body {
            b @ Body::Ack { .. } => b,
            other => panic!("update not acked: {other:?}"),
        },
        Err(e) => panic!("update failed: {e}"),
    }
}

fn initial_points(n: usize, seed: u64) -> Vec<Point> {
    gen_points(n, PointDist::Uniform, seed).iter().map(|&(x, y, id)| Point { x, y, id }).collect()
}

/// Acceptance pin: a reader holds one snapshot across many concurrent
/// batch installs; every probed read round is bit-identical to the answers
/// recorded before the first install, and takes zero exclusive locks — on a
/// strict volatile store, on a durable one, whose installs are group
/// commits, and on a volatile one whose pool holds every page, where each
/// probed read is a pool hit.
#[test]
fn pinned_snapshot_is_lock_free_and_bit_identical_across_installs() {
    pinned_snapshot_round(PageStore::in_memory(PAGE));
    pinned_snapshot_round(PageStore::in_memory_durable(PAGE).0);
    pinned_snapshot_round(PageStore::in_memory_pooled(PAGE, 1 << 14));
}

fn pinned_snapshot_round(store: PageStore) {
    let seed = SEED;
    let (durable, pooled) = (store.is_durable(), store.pool_shards() > 0);
    let initial = initial_points(300, seed);
    let (handle, store) = spawn(store, &initial, 8);
    let versions = Arc::clone(handle.versions());

    let snap = versions.snapshot();
    let pinned_seq = snap.seq();
    let frozen = open_frozen(&snap, &store);

    // Seeded query set; the warm-up round both records the expected
    // answers and faults every page/path the queries will ever touch, so
    // the probed rounds measure the steady-state read path.
    let mut rng = Rng::seed_from_u64(seed ^ 0xF00D);
    let queries: Vec<TwoSided> = (0..12)
        .map(|_| TwoSided { x0: rng.gen_range(0..=DOMAIN), y0: rng.gen_range(0..=DOMAIN / 2) })
        .chain([TwoSided { x0: i64::MIN, y0: i64::MIN }])
        .collect();
    let expected: Vec<Vec<Point>> = queries
        .iter()
        .map(|&q| frozen.query(&store, q).unwrap())
        .collect();

    // Writer: 32 acked single-op batches — each ack proves an epoch
    // installed (install happens before the ack leaves the batcher).
    let done = Arc::new(AtomicBool::new(false));
    let writer = {
        let done = Arc::clone(&done);
        let addr = handle.addr();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr, Duration::from_secs(5)).unwrap();
            let mut rng = Rng::seed_from_u64(seed ^ 0xBEEF);
            for i in 0..32u64 {
                let p = Point {
                    x: rng.gen_range(0..=DOMAIN),
                    y: rng.gen_range(0..=DOMAIN),
                    id: 30_000_000 + i,
                };
                acked(client.call(0, 0, Op::Insert(p)));
            }
            done.store(true, Ordering::Release);
        })
    };

    // Reader: probed rounds run *while* the writer installs. Each round
    // asserts bit-identical answers and a zero exclusive-lock delta on
    // this thread.
    let mut rounds = 0u64;
    loop {
        let finished = done.load(Ordering::Acquire);
        let locks_before = pc_sync::exclusive_acquisitions();
        for (q, want) in queries.iter().zip(&expected) {
            let got = frozen.query(&store, *q).unwrap();
            assert_eq!(&got, want, "pinned snapshot diverged at {q:?} (round {rounds})");
        }
        assert_eq!(
            pc_sync::exclusive_acquisitions(),
            locks_before,
            "pinned-snapshot query path acquired an exclusive lock \
             (round {rounds}, durable: {durable}, pooled: {pooled})"
        );
        rounds += 1;
        if finished {
            break;
        }
    }
    writer.join().unwrap();

    // The pin really did span concurrent installs.
    assert!(
        versions.current_seq() >= pinned_seq + 2,
        "expected >= 2 epoch installs while pinned, got {} -> {}",
        pinned_seq,
        versions.current_seq()
    );
    // And the live head moved on while the snapshot did not.
    let mut client = Client::connect(handle.addr(), Duration::from_secs(5)).unwrap();
    let live = client.call(0, 0, Op::TwoSided { x0: i64::MIN, y0: i64::MIN }).unwrap();
    let Body::Points(live) = canonicalize(live.body) else { panic!("full scan body") };
    assert_eq!(live.len(), initial.len() + 32, "live head must see every acked insert");
    assert_eq!(
        frozen_scan(&frozen, &store).len(),
        initial.len(),
        "pinned snapshot must not see post-pin inserts"
    );
    eprintln!("pinned at seq {pinned_seq}, {rounds} probed rounds, head at {}", versions.current_seq());

    handle.shutdown();
    handle.join();
}

fn full_scan_op() -> Op {
    Op::TwoSided { x0: i64::MIN, y0: i64::MIN }
}

/// Points at the ends of `i64` and `u64` cost the blocks they land in
/// wider columns and nothing else. A snapshot pinned before them answers
/// bit-identically, pinned or by `as_of`; the head answers with them.
#[test]
fn a_snapshot_pinned_before_an_outlier_keeps_its_answers() {
    let seed = SEED;
    let mut initial = initial_points(400, seed ^ 7);
    initial.iter_mut().for_each(|p| p.id += 70_000);
    let (handle, store) = spawn(PageStore::in_memory(PAGE), &initial[..400], 8);
    let versions = Arc::clone(handle.versions());
    let mut client = Client::connect(handle.addr(), Duration::from_secs(5)).unwrap();

    // One ordinary insert first: epoch 0 is not addressable by `as_of`.
    initial.push(Point { x: 5, y: 5, id: 69_999 });
    acked(client.call(0, 0, Op::Insert(initial[400])));
    let snap = versions.snapshot();
    let frozen = open_frozen(&snap, &store);
    assert_eq!(snap.seq(), 1);
    let mut rng = Rng::seed_from_u64(seed ^ 0x1DE);
    let queries: Vec<TwoSided> = (0..10)
        .map(|_| TwoSided { x0: rng.gen_range(0..=DOMAIN), y0: rng.gen_range(0..=DOMAIN / 2) })
        .chain([TwoSided { x0: i64::MIN, y0: i64::MIN }])
        .collect();
    let answers = |view: &DynamicPst| -> Vec<Vec<Point>> {
        queries.iter().map(|&q| view.query(&store, q).unwrap()).collect()
    };
    let expected = answers(&frozen);

    let wide =
        [Point { x: i64::MAX, y: 7, id: 69_998 }, Point { x: -3, y: i64::MIN, id: u64::MAX }];
    for p in wide {
        acked(client.call(0, 0, Op::Insert(p)));
        let head = versions.snapshot();
        assert_eq!(open_frozen(&head, &store).len(), frozen.len() + 1 + (p.id == u64::MAX) as u64);
        assert_eq!(answers(&frozen), expected, "the pinned snapshot after {p:?}");
    }

    let old = client.call_as_of(0, 0, snap.seq(), full_scan_op()).unwrap();
    let Body::Points(old) = canonicalize(old.body) else { panic!("as_of body") };
    assert_eq!(old, frozen_scan(&frozen, &store), "as_of the epoch before the outliers");
    assert_eq!(old.len(), initial.len());
    let live = client.call(0, 0, full_scan_op()).unwrap();
    let Body::Points(live) = canonicalize(live.body) else { panic!("full scan body") };
    assert_eq!(live.len(), initial.len() + 2);
    assert!(wide.iter().all(|p| live.contains(p)), "the head holds the wide points");

    handle.shutdown();
    handle.join();
}

/// A pin at the front of the window *blocks* trimming — the pinned epoch
/// stays addressable and none of its pages are reclaimed, however far the
/// head churns past the retention target. Releasing the pin (plus one
/// `collect`) lets the whole deferred backlog go at once.
#[test]
fn gc_never_reclaims_pinned_epochs() {
    let seed = SEED;
    let initial = initial_points(300, seed ^ 2);
    let (handle, store) = spawn(PageStore::in_memory(PAGE), &initial, 2);
    let versions = Arc::clone(handle.versions());

    let snap = versions.snapshot();
    let pinned_seq = snap.seq();
    let frozen = open_frozen(&snap, &store);
    let before = frozen_scan(&frozen, &store);

    let mut client = Client::connect(handle.addr(), Duration::from_secs(5)).unwrap();
    let mut rng = Rng::seed_from_u64(seed ^ 0x6C);
    // Enough single inserts to flush the root's `U`, which takes a few
    // dozen at 512 B in the descriptor alone: the flushes copy pages.
    for i in 0..200u64 {
        let p = Point {
            x: rng.gen_range(0..=DOMAIN),
            y: rng.gen_range(0..=DOMAIN),
            id: 50_000_000 + i,
        };
        acked(client.call(0, 0, Op::Insert(p)));
    }

    // The pin held the retention window open far past `retain = 2`: the
    // pinned epoch is still addressable and nothing below it was freed.
    let m = versions.metrics();
    assert_eq!(m.oldest_seq, pinned_seq, "pinned front epoch must anchor the window");
    assert!(m.retained > 2, "pin must block trimming: {m:?}");
    assert_eq!(m.pinned, 1);
    assert_eq!(
        m.reclaimed_pages, 0,
        "no page may be reclaimed while the oldest epoch is pinned: {m:?}"
    );
    versions.snapshot_at(pinned_seq).expect("pinned epoch stays addressable");
    // ...and the pin still answers bit-identically under the churn.
    assert_eq!(frozen_scan(&frozen, &store), before, "pinned epoch was reclaimed");

    // Releasing the pin lets the deferred reclamation go.
    drop(snap);
    let freed = versions.collect().unwrap();
    assert!(freed > 0, "releasing the pin must reclaim the CoW backlog");
    let m = versions.metrics();
    assert_eq!(m.pinned, 0);
    assert_eq!(m.retained, 2, "window trims to the retention target once unpinned");
    assert!(m.oldest_seq > pinned_seq);
    match versions.snapshot_at(pinned_seq) {
        Err(StoreError::VersionNotRetained { requested, oldest, .. }) => {
            assert_eq!(requested, pinned_seq);
            assert!(oldest > pinned_seq);
        }
        Ok(_) => panic!("released epoch {pinned_seq} must leave the window"),
        Err(e) => panic!("unexpected error: {e}"),
    }

    handle.shutdown();
    handle.join();
}

/// Seeded interleavings of installs, pins, drops, pinned reads and `as_of`
/// reads — the property form of the three pinned contracts above.
#[test]
fn seeded_interleavings_preserve_snapshot_isolation() {
    let base_seed = SEED;
    for round in 0..3u64 {
        let seed = base_seed ^ (round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let initial = initial_points(150, seed ^ 3);
        let (handle, store) = spawn(PageStore::in_memory(PAGE), &initial, 8);
        let versions = Arc::clone(handle.versions());
        let mut client = Client::connect(handle.addr(), Duration::from_secs(5)).unwrap();

        let ref_store = PageStore::in_memory(PAGE);
        let mut reference = DynamicPst::build(&ref_store, &initial).unwrap();
        let scan_ref = |r: &DynamicPst| {
            let mut v = r.query(&ref_store, TwoSided { x0: i64::MIN, y0: i64::MIN }).unwrap();
            v.sort_unstable_by_key(|p| (p.x, p.y, p.id));
            v
        };

        let mut rng = Rng::seed_from_u64(seed);
        let mut live = initial.clone();
        let mut next_id = 60_000_000u64;
        // Reference state per installed epoch (index = seq).
        let mut states: Vec<Vec<Point>> = vec![scan_ref(&reference)];
        // (snapshot, its frozen view, the state it must keep answering).
        let mut pins: Vec<(Snapshot, DynamicPst, Vec<Point>)> = Vec::new();

        for step in 0..60 {
            match rng.gen_range(0..6u64) {
                // Install one more epoch (insert or delete, acked).
                0 | 1 => {
                    let op = if !live.is_empty() && rng.gen_bool(0.35) {
                        Op::Delete(live.swap_remove(rng.gen_range(0..live.len())))
                    } else {
                        next_id += 1;
                        let p = Point {
                            x: rng.gen_range(0..=DOMAIN),
                            y: rng.gen_range(0..=DOMAIN),
                            id: next_id,
                        };
                        live.push(p);
                        Op::Insert(p)
                    };
                    acked(client.call(0, 0, op.clone()));
                    match &op {
                        Op::Insert(p) => reference.insert(&ref_store, *p).unwrap(),
                        Op::Delete(p) => reference.delete(&ref_store, *p).unwrap(),
                        _ => unreachable!(),
                    }
                    states.push(scan_ref(&reference));
                    assert_eq!(versions.current_seq() as usize + 1, states.len());
                }
                // Pin the head.
                2 => {
                    if pins.len() < 4 {
                        let snap = versions.snapshot();
                        let frozen = open_frozen(&snap, &store);
                        let want = states[snap.seq() as usize].clone();
                        pins.push((snap, frozen, want));
                    }
                }
                // Drop a pin.
                3 => {
                    if !pins.is_empty() {
                        pins.swap_remove(rng.gen_range(0..pins.len()));
                    }
                }
                // Read a pinned snapshot: bit-identical to its pin state.
                4 => {
                    if !pins.is_empty() {
                        let (snap, frozen, want) = &pins[rng.gen_range(0..pins.len())];
                        assert_eq!(
                            &frozen_scan(frozen, &store),
                            want,
                            "round {round} step {step}: pinned seq {} diverged",
                            snap.seq()
                        );
                    }
                }
                // Read a retained epoch over the wire. `as_of = 0` is the
                // wire's "current head" sentinel, so epoch 0 itself is only
                // addressable until the first install; sample above it.
                _ => {
                    let (oldest, current) = versions.retained_range();
                    if current == 0 {
                        continue;
                    }
                    let v = rng.gen_range(oldest.max(1)..=current);
                    let resp = client.call_as_of(0, 0, v, full_scan_op()).unwrap();
                    let Body::Points(got) = canonicalize(resp.body) else {
                        panic!("as_of body")
                    };
                    assert_eq!(
                        got, states[v as usize],
                        "round {round} step {step}: as_of({v}) diverged"
                    );
                }
            }
        }

        // Every surviving pin is still intact at the end.
        for (_, frozen, want) in &pins {
            assert_eq!(&frozen_scan(frozen, &store), want, "round {round}: final pin check");
        }
        drop(pins);
        handle.shutdown();
    handle.join();
    }
}

/// With `retain: 1` and no pin, every page an install retires is freed at
/// that install: after a run of batches through `Dynamic<S>` in apply
/// sessions and one `collect`, the store holds exactly the structure's own
/// pages, as its census names them — a dynamic PST, a dynamic 3-sided PST
/// and a B-tree, at 512 B and 4 KiB, on a volatile store and a durable one;
/// the dynamic PST's walk names exactly the store's allocated pages.
#[test]
fn with_nothing_pinned_gc_leaves_exactly_the_structures_pages() {
    for (page, durable) in [(512, false), (512, true), (4096, false), (4096, true)] {
        let new_store = || {
            Arc::new(match durable {
                true => PageStore::in_memory_durable(page).0,
                false => PageStore::in_memory(page),
            })
        };
        let mut rng = Rng::seed_from_u64(SEED ^ page as u64);
        let initial = initial_points(if page == 512 { 600 } else { 3_000 }, SEED ^ 11);
        let mut live = initial.clone();
        let batches: Vec<Vec<UpdateOp>> = (0..60u64)
            .map(|b| {
                (0..9u64)
                    .map(|i| match rng.gen_range(0..3u64) {
                        0 if !live.is_empty() => {
                            UpdateOp::Delete(live.swap_remove(rng.gen_range(0..live.len())))
                        }
                        _ => {
                            let (x, y) = (rng.gen_range(0..=DOMAIN), rng.gen_range(0..=DOMAIN));
                            let p = Point { x, y, id: 80_000_000 + b * 9 + i };
                            live.push(p);
                            UpdateOp::Insert(p)
                        }
                    })
                    .collect()
            })
            .collect();

        let store = new_store();
        let pst = DynamicPstTarget::new(DynamicPst::build(&store, &initial).unwrap());
        let census = |s: &PageStore| pst.0.lock().page_census(s).unwrap().total();
        installs(&store, &pst, &batches, census);
        // Page for page, not only in number: a block in a skeletal page's
        // tail is no page of its own.
        let mut ids = pst.0.lock().page_ids(&store).unwrap();
        ids.sort_unstable();
        assert_eq!(ids, store.allocated_pages(), "dynamic PST at {page} B: the walked pages");

        let store = new_store();
        let pst3 = DynamicThreeSidedPst::build(&store, &initial).unwrap();
        let pst3 = DynamicThreeSidedTarget::new(pst3);
        installs(&store, &pst3, &batches, |s: &PageStore| pst3.0.lock().pages(s).unwrap());

        let store = new_store();
        let entries: Vec<(i64, u64)> = {
            let mut keyed: Vec<(i64, u64)> = initial.iter().map(|p| (p.x, p.id)).collect();
            keyed.sort_unstable();
            keyed.dedup_by_key(|e| e.0);
            keyed
        };
        let btree = DynamicBTreeTarget::new(BTree::bulk_build(&store, &entries).unwrap());
        let census = |s: &PageStore| btree.0.lock().census(s).unwrap().pages();
        installs(&store, &btree, &batches, census);
    }
}

/// Applies each batch to `target` in its own session on a `retain: 1`
/// versioned store, then collects: the live pages are `census`'s.
fn installs(
    store: &Arc<PageStore>,
    target: &dyn QueryTarget,
    batches: &[Vec<UpdateOp>],
    census: impl Fn(&PageStore) -> u64,
) {
    let versions = VersionedStore::new(Arc::clone(store), VersionConfig { retain: 1 }, &[]);
    for (b, ops) in batches.iter().enumerate() {
        let session = versions.begin_apply();
        assert!(target.apply_updates(store, ops).iter().all(Result::is_ok), "batch {b}");
        session.install(&target.descriptor().unwrap()).unwrap();
    }
    versions.collect().unwrap();
    let durable = if store.is_durable() { ", durable" } else { "" };
    let what = format!("{} at {} B{durable}", target.kind(), store.page_size());
    assert!(versions.metrics().reclaimed_pages > 0, "{what}: the batches retired pages");
    assert_eq!(store.live_pages(), census(store), "{what}: pages the census does not name");
}
