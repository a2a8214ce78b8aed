//! Whole-node chaos over the shard fabric: kill one replica of a live
//! cluster mid-workload — including mid-update-batch — and prove that
//!
//! 1. every **acknowledged** update survives: after the killed node is
//!    restarted from its WAL and re-admitted through journal replay, the
//!    router *and every individual replica* answer bit-identically to an
//!    in-memory reference that only ever applied acked updates;
//! 2. queries during the outage return correct answers or clean typed
//!    errors — never wrong data, never a hang (every call is bounded by
//!    the router's io timeout);
//! 3. the fabric heals: the health loop reconnects the restarted node,
//!    replays the journal tail past the node's recovered `seq` (the
//!    crash-after-commit-before-ack window means the WAL can hold *more*
//!    than the node ever acked, so the replay cursor must come from the
//!    recovered descriptor, not the router's last-ack bookkeeping).
//!
//! Two kill cycles run back to back, one per shard, so both halves of the
//! keyspace see a node die and recover. `PC_CHAOS_SEED` reseeds the run.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pc_pagestore::{PageStore, Point, WalConfig};
use pc_pst::{DynamicPst, TwoSided};
use pc_rng::Rng;
use pc_serve::wire::{Body, Op};
use pc_serve::{
    canonicalize, decode_commit_meta, Client, DynamicPstTarget, Registry, Router, RouterConfig,
    RouterError, Server, ServerConfig, ServerHandle, Service, ShardMap,
};
use pc_workloads::{gen_points, PointDist, DOMAIN};

const PAGE: usize = 512;
const REPLICAS: usize = 2;

fn seed() -> u64 {
    std::env::var("PC_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xC1A0_5C1A)
}

/// Starts (fresh path) or restarts-with-recovery (existing path) one
/// replica node, returning its handle and the number of update records its
/// recovered structure had durably applied — the router's replay cursor.
fn spawn_replica(path: &Path, preload: &[Point]) -> (ServerHandle, u64) {
    let existed = path.exists();
    let (store, report) = PageStore::file_durable(path, PAGE, WalConfig::default()).unwrap();
    let store = Arc::new(store);
    let meta = if existed { report.last_commit_meta.clone() } else { None };
    let (target, recovered_seq) = match meta.as_deref().and_then(decode_commit_meta) {
        Some((_batch, descriptors)) if matches!(descriptors.first(), Some(Some(_))) => {
            let desc = descriptors[0].as_ref().expect("matched Some");
            let target = DynamicPstTarget::new(DynamicPst::open(&store, desc).unwrap());
            let seq = target.0.lock().seq();
            (target, seq)
        }
        _ => {
            // Fresh node, or a node killed before its first group commit:
            // rebuild the preload, replay everything.
            (DynamicPstTarget::new(DynamicPst::build(&store, preload).unwrap()), 0)
        }
    };
    let mut registry = Registry::new();
    registry.register("dyn", Box::new(target));
    let cfg = ServerConfig { workers: 2, ..ServerConfig::default() };
    let handle = Server::spawn(Service { store, registry }, cfg).unwrap();
    (handle, recovered_seq)
}

fn full_scan_reference(dynpst: &DynamicPst, store: &PageStore) -> Body {
    canonicalize(Body::Points(
        dynpst.query(store, TwoSided { x0: i64::MIN, y0: i64::MIN }).unwrap(),
    ))
}

struct Workload {
    rng: Rng,
    live: Vec<Point>,
    next_id: u64,
    /// Ops completed (acked update or finished query) — the kill trigger
    /// watches this so the node dies while the stream is in full flight.
    counter: Arc<AtomicU64>,
    queries_failed_over: u64,
}

impl Workload {
    /// One acked update through the router, mirrored into the reference
    /// only once the ack arrives — the at-least-once client convention:
    /// retry the identical op until the fabric acknowledges it.
    fn update(&mut self, router: &Router, reference: &mut DynamicPst, ref_store: &PageStore) {
        let delete = !self.live.is_empty() && self.rng.gen_bool(0.3);
        let op = if delete {
            let victim = self.live.swap_remove(self.rng.gen_range(0..self.live.len()));
            Op::Delete(victim)
        } else {
            self.next_id += 1;
            Op::Insert(Point {
                x: self.rng.gen_range(0..=DOMAIN),
                y: self.rng.gen_range(0..=DOMAIN),
                id: 20_000_000 + self.next_id,
            })
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match router.update(0, 0, &op) {
                Ok(Body::Ack { .. }) => break,
                Ok(other) => panic!("update answered {other:?}"),
                Err(e) => {
                    // Typed and bounded; the op is retried verbatim.
                    let _ = e.code();
                    assert!(Instant::now() < deadline, "update never acked: {e}");
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
        match &op {
            Op::Insert(p) => {
                reference.insert(ref_store, *p).unwrap();
                self.live.push(*p);
            }
            Op::Delete(p) => reference.delete(ref_store, *p).unwrap(),
            _ => unreachable!(),
        }
        self.counter.fetch_add(1, Ordering::Relaxed);
    }

    /// One read through the router. During an outage a clean typed error is
    /// acceptable (`must_succeed = false`); a *successful* answer must be
    /// bit-identical to the reference in every phase.
    fn query(
        &mut self,
        router: &Router,
        reference: &DynamicPst,
        ref_store: &PageStore,
        must_succeed: bool,
    ) {
        let q = TwoSided {
            x0: self.rng.gen_range(0..=DOMAIN),
            y0: self.rng.gen_range(0..=DOMAIN / 4),
        };
        let want = canonicalize(Body::Points(reference.query(ref_store, q).unwrap()));
        match router.query(0, 0, &Op::TwoSided { x0: q.x0, y0: q.y0 }) {
            Ok(got) => assert_eq!(got, want, "query diverged at {q:?}"),
            Err(e) if !must_succeed => {
                // Partial failure must surface as a typed router error, not
                // a hang or garbage — exercise the code mapping.
                let _ = e.code();
                if matches!(e, RouterError::BadRequest(_)) {
                    panic!("outage surfaced as BadRequest: {e}");
                }
                self.queries_failed_over += 1;
            }
            Err(e) => panic!("query failed on a healthy fabric: {e}"),
        }
        self.counter.fetch_add(1, Ordering::Relaxed);
    }

    fn mixed_ops(
        &mut self,
        router: &Router,
        reference: &mut DynamicPst,
        ref_store: &PageStore,
        count: usize,
        must_succeed: bool,
    ) {
        for i in 0..count {
            if i % 4 == 3 {
                self.query(router, reference, ref_store, must_succeed);
            } else {
                self.update(router, reference, ref_store);
            }
        }
    }
}

fn wait_all_healthy(router: &Router, what: &str) {
    let t0 = Instant::now();
    while !router.replica_health().iter().flatten().all(|&h| h) {
        assert!(t0.elapsed() < Duration::from_secs(15), "{what}: fabric never healed");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn node_kill_mid_workload_loses_no_acked_updates() {
    let seed = seed();
    let dir = std::env::temp_dir().join(format!("pc-cluster-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let points: Vec<Point> = gen_points(1_000, PointDist::Uniform, seed)
        .iter()
        .map(|&(x, y, id)| Point { x, y, id })
        .collect();
    let splits = vec![DOMAIN / 2];
    let map = ShardMap::new(splits.clone());
    let parts = map.partition_points(&points);

    let mut paths: Vec<Vec<PathBuf>> = Vec::new();
    let mut handles: Vec<Vec<Option<ServerHandle>>> = Vec::new();
    let mut addrs: Vec<Vec<SocketAddr>> = Vec::new();
    for (s, part) in parts.iter().enumerate() {
        let (mut ps, mut hs, mut ads) = (Vec::new(), Vec::new(), Vec::new());
        for r in 0..REPLICAS {
            let path = dir.join(format!("s{s}r{r}.pcstore"));
            let (handle, recovered) = spawn_replica(&path, part);
            assert_eq!(recovered, 0, "fresh node must not claim recovered records");
            ads.push(handle.addr());
            ps.push(path);
            hs.push(Some(handle));
        }
        paths.push(ps);
        handles.push(hs);
        addrs.push(ads);
    }
    let router = Arc::new(
        Router::connect(
            &addrs,
            splits,
            RouterConfig {
                health_interval: Duration::from_millis(25),
                seed,
                ..RouterConfig::default()
            },
        )
        .unwrap(),
    );

    // The reference: acked updates only, one unpartitioned in-memory store.
    let ref_store = PageStore::in_memory(PAGE);
    let mut reference = DynamicPst::build(&ref_store, &points).unwrap();
    let mut wl = Workload {
        rng: Rng::seed_from_u64(seed ^ 0xD1E),
        live: points.clone(),
        next_id: 0,
        counter: Arc::new(AtomicU64::new(0)),
        queries_failed_over: 0,
    };

    // Two kill cycles, one per shard; the victim replica index is seeded.
    for (cycle, kill_shard) in [0usize, 1].into_iter().enumerate() {
        let kill_replica = wl.rng.gen_range(0..REPLICAS);
        let base = wl.counter.load(Ordering::Relaxed);
        let kill_at = base + 40 + wl.rng.gen_range(0..40u64);

        // The killer fires the moment the op stream crosses `kill_at`, so
        // the node dies while updates are in full flight (often with a
        // batch admitted but unacked — the mid-update-batch case).
        let victim = handles[kill_shard][kill_replica].take().unwrap();
        let killer = {
            let counter = Arc::clone(&wl.counter);
            std::thread::spawn(move || {
                while counter.load(Ordering::Relaxed) < kill_at {
                    std::thread::sleep(Duration::from_micros(200));
                }
                victim.kill();
                victim
            })
        };

        // Outage phase: the workload keeps running across the kill. Acked
        // updates keep landing (the sibling replica carries the shard) and
        // successful queries stay bit-identical.
        wl.mixed_ops(&router, &mut reference, &ref_store, 160, false);
        let victim = killer.join().unwrap();
        victim.join(); // release the store file before recovery reopens it

        // Restart from the WAL. The recovered seq — not the router's
        // last-ack cursor — decides where journal replay resumes, because
        // the node may have committed a batch it never got to ack.
        let (handle, recovered_seq) =
            spawn_replica(&paths[kill_shard][kill_replica], &parts[kill_shard]);
        eprintln!(
            "cycle {cycle}: killed s{kill_shard}r{kill_replica} at op {kill_at}, \
             WAL recovered {recovered_seq} applied update records"
        );
        addrs[kill_shard][kill_replica] = handle.addr();
        router.set_replica_caught_up(kill_shard, kill_replica, recovered_seq);
        router.set_replica_addr(kill_shard, kill_replica, handle.addr());
        handles[kill_shard][kill_replica] = Some(handle);
        wait_all_healthy(&router, "post-restart");

        // Healthy phase: every query must now succeed and stay identical.
        wl.mixed_ops(&router, &mut reference, &ref_store, 60, true);

        // The router must match the reference exactly after the cycle.
        let want = full_scan_reference(&reference, &ref_store);
        let got = router.query(0, 0, &Op::TwoSided { x0: i64::MIN, y0: i64::MIN }).unwrap();
        assert_eq!(got, want, "cycle {cycle}: router diverged from acked reference");
    }

    // Every replica — including both restarted ones — must hold exactly the
    // acked state for its shard: nothing lost, nothing applied twice.
    let live_sorted = {
        let mut v = wl.live.clone();
        v.sort_unstable_by_key(|p| (p.x, p.y, p.id));
        v
    };
    for (s, shard_addrs) in addrs.iter().enumerate() {
        let want: Vec<Point> = live_sorted
            .iter()
            .copied()
            .filter(|p| router.map().shard_of(p.x) == s)
            .collect();
        for (r, &addr) in shard_addrs.iter().enumerate() {
            let mut c = Client::connect(addr, Duration::from_secs(5)).unwrap();
            let resp = c.call(0, 0, Op::TwoSided { x0: i64::MIN, y0: i64::MIN }).unwrap();
            let got = canonicalize(resp.body);
            assert_eq!(
                got,
                Body::Points(want.clone()),
                "replica s{s}r{r} diverged from the acked reference"
            );
        }
    }

    // The healing machinery must actually have run: both shards saw a
    // reconnect, and the fabric reports zero dead replicas at the end.
    let stats = router.stat_pairs();
    let sum = |needle: &str| -> u64 {
        stats.iter().filter(|(k, _)| k.contains(needle)).map(|&(_, v)| v).sum()
    };
    assert!(sum("pc_shard_reconnects") >= 2, "expected a reconnect per cycle: {stats:?}");
    assert_eq!(sum("pc_shard_dead_replicas"), 0, "fabric must end fully healthy");
    eprintln!(
        "acked journal: {} entries; replayed into restarted nodes: {}; \
         read failovers: {}; reconnects: {}; queries errored during outages: {}",
        sum("pc_shard_journal_len"),
        sum("pc_shard_replayed_updates"),
        sum("pc_shard_failovers"),
        sum("pc_shard_reconnects"),
        wl.queries_failed_over
    );

    router.shutdown();
    for hs in handles {
        for h in hs.into_iter().flatten() {
            h.join();
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
