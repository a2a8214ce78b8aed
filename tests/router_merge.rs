//! What the router does besides answering — which `tests/oracle.rs` holds
//! to the single-node model over 1–8 shards: an inverted band answers
//! empty, what the front-end cannot serve it refuses typed, and a load
//! skewed onto one shard sheds there and nowhere else.
//!
//! Seed comes from `PC_CHAOS_SEED` when set, so a failing run is
//! reproducible exactly.

use std::collections::HashMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pc_obs::shard_metrics::{ERRORS, REQUESTS};
use pc_pagestore::{PageStore, Point};
use pc_pst::{DynamicPst, DynamicThreeSidedPst};
use pc_serve::wire::{Body, ErrorCode, Op};
use pc_serve::{
    Client, DynamicPstTarget, DynamicThreeSidedTarget, QueryTarget, Registry, RetryPolicy, Router,
    RouterConfig, RouterError, RouterFrontend, Server, ServerConfig, ServerHandle, Service,
    ShardMap, TargetError,
};
use pc_workloads::{gen_points, PointDist, DOMAIN};

const PAGE: usize = 512;

fn seed() -> u64 {
    std::env::var("PC_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0x4257_ED6E)
}

/// One shard node over its slice of the points: target 0 is a dynamic PST,
/// target 1 a dynamic 3-sided PST.
fn spawn_shard(points: &[Point]) -> ServerHandle {
    let store = Arc::new(PageStore::in_memory(PAGE));
    let mut registry = Registry::new();
    registry.register(
        "dyn",
        Box::new(DynamicPstTarget::new(DynamicPst::build(&store, points).unwrap())),
    );
    registry.register(
        "dyn3",
        Box::new(DynamicThreeSidedTarget::new(DynamicThreeSidedPst::build(&store, points).unwrap())),
    );
    let cfg = ServerConfig { workers: 2, ..ServerConfig::default() };
    Server::spawn(Service { store, registry }, cfg).unwrap()
}

/// An inverted 3-sided band through the router: `ShardMap::shard_range`
/// sends it to one shard, which is to answer empty — it used to lose a
/// worker per frame to an assertion instead. One band more than a shard has
/// workers, then a proper query through the same front-end connection, at
/// one shard and at three.
#[test]
fn an_inverted_band_through_the_router_answers_empty() {
    let points: Vec<Point> = gen_points(600, PointDist::Uniform, seed())
        .iter()
        .map(|&(x, y, id)| Point { x, y, id })
        .collect();
    for splits in [vec![], vec![DOMAIN / 3, 2 * DOMAIN / 3]] {
        let map = ShardMap::new(splits.clone());
        let handles: Vec<ServerHandle> =
            map.partition_points(&points).iter().map(|part| spawn_shard(part)).collect();
        let groups: Vec<_> = handles.iter().map(|handle| vec![handle.addr()]).collect();
        let router =
            Arc::new(Router::connect(&groups, splits.clone(), RouterConfig::default()).unwrap());
        let frontend =
            RouterFrontend::spawn(Arc::clone(&router), "127.0.0.1:0").unwrap();
        let mut client = Client::connect(frontend.addr(), Duration::from_secs(10)).unwrap();
        // `spawn_shard` runs two workers a shard; every band below lands on
        // the shard that owns `DOMAIN / 2`.
        for i in 0..3 {
            let inverted = Op::ThreeSided { x1: DOMAIN / 2 + i, x2: DOMAIN / 2 - 1 - i, y0: 0 };
            let got = client.call(1, 0, inverted).unwrap().body;
            assert_eq!(got, Body::Points(Vec::new()), "{} shard(s)", map.shards());
        }
        let everything = Op::ThreeSided { x1: i64::MIN, x2: i64::MAX, y0: i64::MIN };
        match client.call(1, 0, everything).unwrap().body {
            Body::Points(got) => assert_eq!(got.len(), points.len(), "{} shard(s)", map.shards()),
            other => panic!("unexpected body {other:?}"),
        }
        router.shutdown();
        handles.into_iter().for_each(ServerHandle::join);
        frontend.join();
    }
}

/// What the router front-end cannot do it refuses, typed: a time-travel
/// read used to be answered from the head epoch (`as_of` was dropped on the
/// way to the shards) with no error, and `Versions` was a `BadRequest` that
/// told the client to target the router, which it had. "Admin" is
/// `Op::is_admin`, here as in the server. After ADMIN `Shutdown` the
/// front-end drains as a server does: what is already on the wire is
/// answered `ShuttingDown`, not reset.
#[test]
fn the_router_refuses_time_travel_and_unserved_admin_ops_typed() {
    let points: Vec<Point> = gen_points(300, PointDist::Uniform, seed() ^ 0xA5)
        .iter()
        .map(|&(x, y, id)| Point { x, y, id })
        .collect();
    let shard = spawn_shard(&points);
    let router = Arc::new(
        Router::connect(&[vec![shard.addr()]], Vec::new(), RouterConfig::default()).unwrap(),
    );
    let frontend = RouterFrontend::spawn(Arc::clone(&router), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(frontend.addr(), Duration::from_secs(10)).unwrap();
    let scan = Op::TwoSided { x0: i64::MIN, y0: i64::MIN };
    let unsupported = |body: Body, what: &str| match body {
        Body::Error { code: ErrorCode::Unsupported, message } => {
            assert!(message.contains("not served by the router"), "{what}: {message}")
        }
        other => panic!("{what} answered {other:?}"),
    };

    // Epoch 1 exists on the shard and holds one point fewer than the head.
    let fresh = Point { x: 5, y: 5, id: 9_000_000 };
    for p in [fresh, Point { id: 9_000_001, ..fresh }] {
        assert!(matches!(client.call(0, 0, Op::Insert(p)).unwrap().body, Body::Ack { .. }));
    }
    unsupported(client.call_as_of(0, 0, 1, scan.clone()).unwrap().body, "as_of = 1");
    match client.call(0, 0, scan.clone()).unwrap().body {
        Body::Points(head) => assert_eq!(head.len(), points.len() + 2),
        other => panic!("head scan answered {other:?}"),
    }

    for op in [Op::Versions, Op::SlowLog { k: 4, clear: false }, Op::SetSampling { every: 1 }] {
        assert!(op.is_admin());
        let what = op.name();
        unsupported(client.call(0, 0, op).unwrap().body, what);
    }
    assert_eq!(client.ping().unwrap().body, Body::Pong);
    assert!(matches!(client.stats().unwrap().body, Body::Stats(_)));

    // Shutdown, with two more requests already on the wire behind it.
    let ack = client.send(0, 0, Op::Shutdown).unwrap();
    let late = [client.send(0, 0, scan).unwrap(), client.send(0, 0, Op::Insert(fresh)).unwrap()];
    let resp = client.recv().unwrap();
    assert_eq!((resp.id, resp.body), (ack, Body::ShutdownAck));
    for id in late {
        let resp = client.recv().expect("a typed refusal, not a reset");
        assert_eq!(resp.id, id);
        assert!(
            matches!(resp.body, Body::Error { code: ErrorCode::ShuttingDown, .. }),
            "{:?}",
            resp.body
        );
    }
    assert!(router.is_shutting_down());
    shard.join();
    frontend.join();
}

/// A target whose first query parks until released (it announces itself on
/// the sender first); every later query answers empty at once.
struct GateTarget(Mutex<Option<(Sender<()>, Receiver<()>)>>);

impl QueryTarget for GateTarget {
    fn kind(&self) -> &'static str {
        "gate"
    }

    fn query(&self, _store: &PageStore, _op: &Op) -> Result<Body, TargetError> {
        let gate = self.0.lock().unwrap().take();
        if let Some((entered, release)) = gate {
            entered.send(()).unwrap();
            release.recv().unwrap();
        }
        Ok(Body::Points(Vec::new()))
    }
}

fn spawn_gate_shard(gate: Option<(Sender<()>, Receiver<()>)>, cfg: ServerConfig) -> ServerHandle {
    let store = Arc::new(PageStore::in_memory(PAGE));
    let mut registry = Registry::new();
    registry.register("gate", Box::new(GateTarget(Mutex::new(gate))));
    Server::spawn(Service { store, registry }, cfg).unwrap()
}

/// A load skewed onto one shard sheds there and nowhere else: the hot
/// shard has one worker (parked on the first query) and a one-slot queue,
/// so of four more queries exactly one waits and three come back
/// `Overloaded` through the router at once, while the cold shard keeps
/// answering; `pc_shard_errors_total` counts the three on the hot shard.
#[test]
fn skewed_load_sheds_on_the_hot_shard_only() {
    const SPLIT: i64 = DOMAIN / 2;
    let (entered_tx, entered_rx) = channel();
    let (release_tx, release_rx) = channel();
    let hot = spawn_gate_shard(
        Some((entered_tx, release_rx)),
        ServerConfig { workers: 1, queue_depth: 1, ..ServerConfig::default() },
    );
    let cold = spawn_gate_shard(None, ServerConfig::default());
    let router = Router::connect(
        &[vec![hot.addr()], vec![cold.addr()]],
        vec![SPLIT],
        RouterConfig {
            // A shed request comes back as the shard's own error, unretried.
            retry: RetryPolicy { attempts: 1 },
            ..RouterConfig::default()
        },
    )
    .unwrap();
    let hot_query = Op::ThreeSided { x1: 0, x2: SPLIT - 1, y0: 0 };
    let cold_query = Op::ThreeSided { x1: SPLIT, x2: DOMAIN, y0: 0 };

    std::thread::scope(|s| {
        let (done_tx, done_rx) = channel();
        let send_hot = || {
            let (router, op, done) = (&router, &hot_query, done_tx.clone());
            s.spawn(move || done.send(router.query(0, 0, op)).unwrap());
        };
        send_hot();
        entered_rx.recv().unwrap();
        for _ in 0..4 {
            send_hot();
        }
        // The worker is parked, so whatever completes now was shed.
        for _ in 0..3 {
            match done_rx.recv().unwrap() {
                Err(RouterError::Shard { shard: 0, code: ErrorCode::Overloaded, .. }) => {}
                other => panic!("expected the hot shard's Overloaded, got {other:?}"),
            }
        }
        for _ in 0..5 {
            assert!(matches!(router.query(0, 0, &cold_query), Ok(Body::Points(_))));
        }
        release_tx.send(()).unwrap();
        for _ in 0..2 {
            assert!(matches!(done_rx.recv().unwrap(), Ok(Body::Points(_))));
        }
    });

    let stats: HashMap<String, u64> = router.stat_pairs().into_iter().collect();
    let per_shard = |family: &str, shard: usize| stats[&format!("{family}{{shard=\"{shard}\"}}")];
    assert_eq!((per_shard(REQUESTS, 0), per_shard(ERRORS, 0)), (5, 3));
    assert_eq!((per_shard(REQUESTS, 1), per_shard(ERRORS, 1)), (5, 0));
    assert_eq!(hot.stats().overloaded.load(Relaxed), 3);
    assert_eq!(cold.stats().overloaded.load(Relaxed), 0);

    router.shutdown();
    hot.join();
    cold.join();
}
