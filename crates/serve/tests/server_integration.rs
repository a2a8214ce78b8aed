//! End-to-end tests for the server over real sockets: routing, admission
//! control, deadlines, update batching, graceful drain, and the
//! peer-disappears regressions (idle timeout on the server, read timeout on
//! the client).
//!
//! Timing assertions are deliberately loose (seconds, not milliseconds):
//! the CI container may have a single hardware thread.

use std::io::Write;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pc_pagestore::{PageStore, Point, WalConfig};
use pc_pst::DynamicPst;
use pc_serve::wire::{Body, ErrorCode, Op, MAX_FRAME};
use pc_serve::{
    Client, ClientError, DynamicPstTarget, QueryTarget, Registry, Server, ServerConfig, Service,
    TargetError,
};

const PAGE: usize = 512;

fn points(n: i64) -> Vec<Point> {
    (0..n).map(|i| Point { x: i, y: (i * 37) % n, id: i as u64 }).collect()
}

/// A service with one dynamic-PST target ("dyn", id 0) over a fresh store.
fn dyn_service(n: i64) -> Service {
    let store = Arc::new(PageStore::in_memory(PAGE));
    let mut registry = Registry::new();
    let pst = DynamicPst::build(&store, &points(n)).unwrap();
    registry.register("dyn", Box::new(DynamicPstTarget::new(pst)));
    Service { store, registry }
}

fn test_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        idle_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    }
}

fn connect(handle: &pc_serve::ServerHandle) -> Client {
    Client::connect(handle.addr(), Duration::from_secs(10)).unwrap()
}

#[test]
fn queries_and_admin_ops_over_a_real_socket() {
    let handle = Server::spawn(dyn_service(100), test_config()).unwrap();
    let mut c = connect(&handle);

    assert!(matches!(c.ping().unwrap().body, Body::Pong));

    let resp = c.call(0, 0, Op::TwoSided { x0: 0, y0: 0 }).unwrap();
    match resp.body {
        Body::Points(ps) => assert_eq!(ps.len(), 100),
        other => panic!("unexpected body {other:?}"),
    }

    // Unknown target and unsupported op are typed errors, not hangs.
    let resp = c.call(42, 0, Op::Stab { q: 1 }).unwrap();
    assert!(matches!(resp.body, Body::Error { code: ErrorCode::BadRequest, .. }));
    let resp = c.call(0, 0, Op::Stab { q: 1 }).unwrap();
    assert!(matches!(resp.body, Body::Error { code: ErrorCode::Unsupported, .. }));

    // Stats carries service and io counters.
    match c.stats().unwrap().body {
        Body::Stats(pairs) => {
            let get = |n: &str| pairs.iter().find(|(k, _)| k == n).map(|&(_, v)| v);
            assert!(get("pc_serve_requests_total").unwrap() >= 4);
            assert!(get("io_reads").is_some());
        }
        other => panic!("unexpected body {other:?}"),
    }

    // Metrics is the serve exposition (+ pc-obs text in obs builds).
    match c.metrics().unwrap().body {
        Body::Metrics(text) => {
            assert!(text.contains("pc_serve_requests_total"), "{text}");
            assert!(text.contains("pc_serve_query_latency_ns"), "{text}");
        }
        other => panic!("unexpected body {other:?}"),
    }

    handle.join();
}

#[test]
fn updates_are_batched_and_acked() {
    let handle = Server::spawn(dyn_service(0), test_config()).unwrap();
    let mut c = connect(&handle);

    // Pipeline a burst of inserts on one connection so the batcher can
    // coalesce them (closed-loop sends would serialize into batches of 1).
    let n = 40u64;
    for i in 0..n {
        c.send(0, 0, Op::Insert(Point { x: i as i64, y: i as i64, id: i })).unwrap();
    }
    let mut acked = 0;
    let mut max_coalesced = 0;
    for _ in 0..n {
        let resp = c.recv().unwrap();
        match resp.body {
            Body::Ack { coalesced, .. } => {
                acked += 1;
                max_coalesced = max_coalesced.max(coalesced);
            }
            other => panic!("unexpected body {other:?}"),
        }
    }
    assert_eq!(acked, n);

    // All inserts visible to a subsequent query (read-your-writes once acked).
    let resp = c.call(0, 0, Op::TwoSided { x0: 0, y0: 0 }).unwrap();
    match resp.body {
        Body::Points(ps) => assert_eq!(ps.len(), n as usize),
        other => panic!("unexpected body {other:?}"),
    }

    let stats = handle.stats();
    let batches = stats.batches.load(std::sync::atomic::Ordering::Relaxed);
    let batched = stats.batched_updates.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(batched, n);
    assert!(batches <= batched, "batches={batches} batched={batched}");
    // The coalescing stage must have merged at least one pipelined burst.
    assert!(
        max_coalesced > 1 || batches < n,
        "no coalescing observed: batches={batches}, max_coalesced={max_coalesced}"
    );

    // Updates against a read-only target are rejected up front. (Register a
    // second, static service to prove the admission-time check.)
    let resp = c.call(0, 0, Op::Delete(Point { x: 0, y: 0, id: 0 })).unwrap();
    assert!(matches!(resp.body, Body::Ack { .. }));
    handle.join();
}

/// A target whose queries block for a fixed time — the overload fixture.
struct SlowTarget(Duration);

impl QueryTarget for SlowTarget {
    fn kind(&self) -> &'static str {
        "slow"
    }

    fn query(&self, _store: &PageStore, _op: &Op) -> Result<Body, TargetError> {
        std::thread::sleep(self.0);
        Ok(Body::Points(Vec::new()))
    }
}

#[test]
fn overload_sheds_with_overloaded_and_admitted_p99_stays_bounded() {
    // One worker, queue depth 2, 150ms service time. Saturating it with 10
    // concurrent requests must shed some with Overloaded *immediately*
    // while every admitted request completes within the queue-bound
    // latency: (depth + 1) * service + slack.
    let store = Arc::new(PageStore::in_memory(PAGE));
    let mut registry = Registry::new();
    registry.register("slow", Box::new(SlowTarget(Duration::from_millis(150))));
    let service = Service { store, registry };
    let cfg = ServerConfig { workers: 1, queue_depth: 2, ..test_config() };
    let handle = Server::spawn(service, cfg).unwrap();
    let addr = handle.addr();

    let total = 10;
    let results: Vec<(bool, Duration)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..total)
            .map(|_| {
                s.spawn(move || {
                    let mut c = Client::connect(addr, Duration::from_secs(10)).unwrap();
                    let t0 = Instant::now();
                    let resp = c.call(0, 0, Op::TwoSided { x0: 0, y0: 0 }).unwrap();
                    let dt = t0.elapsed();
                    match resp.body {
                        Body::Points(_) => (true, dt),
                        Body::Error { code: ErrorCode::Overloaded, .. } => (false, dt),
                        other => panic!("unexpected body {other:?}"),
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let admitted: Vec<&(bool, Duration)> = results.iter().filter(|(ok, _)| *ok).collect();
    let shed = results.len() - admitted.len();
    // Capacity during the burst is worker + queue = 3; with 10 one-shot
    // clients at least one must be shed and at least one admitted.
    assert!(shed >= 1, "expected shedding, got {results:?}");
    assert!(!admitted.is_empty(), "everything was shed: {results:?}");

    // Overloaded responses are immediate (no queue wait) — generous bound.
    for (ok, dt) in &results {
        if !*ok {
            assert!(*dt < Duration::from_secs(2), "shed response took {dt:?}");
        }
    }
    // Worst-case admitted latency is bounded by the queue depth, not by the
    // offered load: 3 in-system * 150ms plus generous slack.
    for (_, dt) in &admitted {
        assert!(*dt < Duration::from_secs(5), "admitted request took {dt:?}");
    }

    let stats = handle.stats();
    let overloaded = stats.overloaded.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(overloaded, shed as u64);
    handle.join();
}

/// A target whose every answer is `n` points.
struct WideTarget(usize);

impl QueryTarget for WideTarget {
    fn kind(&self) -> &'static str {
        "wide"
    }

    fn query(&self, _store: &PageStore, _op: &Op) -> Result<Body, TargetError> {
        Ok(Body::Points(vec![Point { x: 1, y: 2, id: 3 }; self.0]))
    }
}

/// An answer past the frame cap, which the client's frame reader would
/// refuse and so lose the connection over, comes back as a typed
/// `BadRequest` that names its size, and the connection goes on.
#[test]
fn an_answer_past_the_frame_cap_is_a_bad_request_and_the_connection_lives() {
    let store = Arc::new(PageStore::in_memory(PAGE));
    let mut registry = Registry::new();
    // 24 bytes a point on the wire: the fewest points past the cap.
    registry.register("wide", Box::new(WideTarget(MAX_FRAME / 24 + 1)));
    let handle = Server::spawn(Service { store, registry }, test_config()).unwrap();
    let mut c = connect(&handle);
    let resp = c.call(0, 0, Op::TwoSided { x0: 0, y0: 0 }).unwrap();
    match resp.body {
        Body::Error { code: ErrorCode::BadRequest, message } => {
            let size: usize = message.split(' ').nth(3).and_then(|n| n.parse().ok()).unwrap();
            assert!(size > MAX_FRAME && message.contains("frame cap"), "{message}");
        }
        other => panic!("unexpected body {other:?}"),
    }
    assert!(!ErrorCode::BadRequest.is_transient(), "a router does not fail over on it");
    assert!(matches!(c.ping().unwrap().body, Body::Pong));
    handle.join();
}

#[test]
fn expired_deadline_is_answered_deadline_exceeded() {
    let store = Arc::new(PageStore::in_memory(PAGE));
    let mut registry = Registry::new();
    registry.register("slow", Box::new(SlowTarget(Duration::from_millis(200))));
    let service = Service { store, registry };
    let cfg = ServerConfig { workers: 1, queue_depth: 8, ..test_config() };
    let handle = Server::spawn(service, cfg).unwrap();

    let mut c = connect(&handle);
    // First request occupies the single worker; the second's 1ms deadline
    // expires while it waits in the queue.
    c.send(0, 0, Op::TwoSided { x0: 0, y0: 0 }).unwrap();
    c.send(0, 1, Op::TwoSided { x0: 0, y0: 0 }).unwrap();
    let first = c.recv().unwrap();
    let second = c.recv().unwrap();
    assert!(matches!(first.body, Body::Points(_)), "{first:?}");
    assert!(
        matches!(second.body, Body::Error { code: ErrorCode::DeadlineExceeded, .. }),
        "{second:?}"
    );
    assert_eq!(
        handle.stats().deadline_exceeded.load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    handle.join();
}

#[test]
fn graceful_shutdown_drains_admitted_work() {
    let handle = Server::spawn(dyn_service(50), test_config()).unwrap();
    let addr = handle.addr();
    let mut c = connect(&handle);

    // Queue some work, then request shutdown on a second connection.
    for _ in 0..5 {
        c.send(0, 0, Op::TwoSided { x0: 0, y0: 0 }).unwrap();
    }
    let mut admin = Client::connect(addr, Duration::from_secs(10)).unwrap();
    let resp = admin.shutdown_server().unwrap();
    assert!(matches!(resp.body, Body::ShutdownAck));

    // Every admitted query is still answered (drain-then-shutdown), and a
    // request that raced the flag gets the typed shutdown error: all five
    // were on the wire before the flag flipped, so none meets silence, a
    // close, or a reset (which is what closing over unread requests sends).
    for _ in 0..5 {
        match c.recv().unwrap().body {
            Body::Points(ps) => assert_eq!(ps.len(), 50),
            Body::Error { code: ErrorCode::ShuttingDown, .. } => {}
            other => panic!("unexpected body {other:?}"),
        }
    }
    // Then the server closes, cleanly.
    assert!(matches!(c.recv(), Err(ClientError::Closed)));
    handle.join();

    // …and the listener is gone afterwards.
    assert!(Client::connect(addr, Duration::from_millis(500)).is_err());
}

#[test]
fn acked_updates_survive_reopen_after_drain() {
    // Lost-ack regression: every update the server acknowledged before a
    // graceful drain must be readable after closing the store and reopening
    // it from disk. The batcher's group commit makes Ack mean "durable", and
    // join() syncs once more on drain, so reopen recovery must reproduce the
    // exact page images.
    let dir = std::env::temp_dir().join(format!("pc-serve-drain-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("drain.pcstore");
    let _ = std::fs::remove_file(&path);
    let mut wal_path = path.clone().into_os_string();
    wal_path.push(".wal");
    let _ = std::fs::remove_file(&wal_path);

    let (store, report) = PageStore::file_durable(&path, PAGE, WalConfig::default()).unwrap();
    assert!(report.clean(), "fresh store must open clean: {report:?}");
    let store = Arc::new(store);
    let mut registry = Registry::new();
    let pst = DynamicPst::build(&store, &points(50)).unwrap();
    registry.register("dyn", Box::new(DynamicPstTarget::new(pst)));
    let service = Service { store: Arc::clone(&store), registry };
    let handle = Server::spawn(service, test_config()).unwrap();
    let mut c = connect(&handle);

    // Pipeline a burst of inserts and require an Ack for every one.
    let n = 25u64;
    for i in 0..n {
        c.send(0, 0, Op::Insert(Point { x: 1000 + i as i64, y: i as i64, id: 900 + i }))
            .unwrap();
    }
    for _ in 0..n {
        let resp = c.recv().unwrap();
        assert!(matches!(resp.body, Body::Ack { .. }), "every update must be acked: {resp:?}");
    }

    // On a durable store, Acks ride behind at least one group commit.
    match c.stats().unwrap().body {
        Body::Stats(pairs) => {
            let get = |nm: &str| pairs.iter().find(|(k, _)| k == nm).map(|&(_, v)| v).unwrap();
            assert!(get("pc_serve_group_commits_total") >= 1);
            assert_eq!(get("pc_serve_commit_failures_total"), 0);
        }
        other => panic!("unexpected body {other:?}"),
    }

    let resp = c.call(0, 0, Op::TwoSided { x0: 0, y0: 0 }).unwrap();
    match resp.body {
        Body::Points(ps) => assert_eq!(ps.len(), 75),
        other => panic!("unexpected body {other:?}"),
    }

    // Snapshot the full durable state as the server sees it, then drain.
    let pages = store.allocated_pages();
    let images: Vec<(pc_pagestore::PageId, Vec<u8>)> =
        pages.iter().map(|&id| (id, store.read(id).unwrap().to_vec())).collect();
    drop(c);
    handle.join();
    drop(store);

    let (store2, report) = PageStore::file_durable(&path, PAGE, WalConfig::default()).unwrap();
    assert!(!report.data_torn_tail, "clean shutdown must not leave a torn data file");
    assert_eq!(store2.allocated_pages(), pages, "allocation table must survive reopen");
    for (id, img) in &images {
        assert_eq!(
            &store2.read(*id).unwrap()[..],
            &img[..],
            "page {id:?} must be bit-identical after reopen"
        );
    }

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&wal_path);
}

#[test]
fn server_reclaims_silent_connections_idle_timeout() {
    // Peer-death regression, server side: a client that sends half a frame
    // and goes silent must not leak the connection thread.
    let cfg = ServerConfig { idle_timeout: Duration::from_millis(200), ..test_config() };
    let handle = Server::spawn(dyn_service(10), cfg).unwrap();

    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    raw.write_all(&[7, 0, 0]).unwrap(); // half a length prefix, then silence
    raw.flush().unwrap();

    let t0 = Instant::now();
    loop {
        let closed = handle.stats().conns_idle_closed.load(std::sync::atomic::Ordering::Relaxed);
        if closed == 1 {
            break;
        }
        assert!(t0.elapsed() < Duration::from_secs(5), "idle connection was not reclaimed");
        std::thread::sleep(Duration::from_millis(20));
    }
    // The server actively shut the socket down: our next read sees EOF/reset.
    raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let mut buf = [0u8; 1];
    match std::io::Read::read(&mut raw, &mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("unexpected {n} bytes from a dead connection"),
    }
    handle.join();
}

#[test]
fn client_times_out_instead_of_hanging_on_a_silent_server() {
    // Peer-death regression, client side: a server that accepts and never
    // responds must surface as a timeout error, not a hang.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let silent = std::thread::spawn(move || {
        let (_conn, _) = listener.accept().unwrap();
        std::thread::sleep(Duration::from_secs(3));
    });

    let mut c = Client::connect(addr, Duration::from_millis(300)).unwrap();
    let t0 = Instant::now();
    let err = c.ping().unwrap_err();
    assert!(t0.elapsed() < Duration::from_secs(2), "client hung for {:?}", t0.elapsed());
    match err {
        ClientError::Io(e) => assert!(
            matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
            "unexpected io error kind {:?}",
            e.kind()
        ),
        other => panic!("unexpected error {other}"),
    }
    silent.join().unwrap();
}

#[test]
fn dead_client_mid_stream_does_not_wedge_the_server() {
    let handle = Server::spawn(dyn_service(20), test_config()).unwrap();

    // Connect, fire a query, and vanish without reading the response.
    {
        let mut c = connect(&handle);
        c.send(0, 0, Op::TwoSided { x0: 0, y0: 0 }).unwrap();
        // Client dropped here: socket closes with the response in flight.
    }

    // The server stays healthy for other clients.
    std::thread::sleep(Duration::from_millis(100));
    let mut c2 = connect(&handle);
    assert!(matches!(c2.ping().unwrap().body, Body::Pong));
    let resp = c2.call(0, 0, Op::TwoSided { x0: 0, y0: 0 }).unwrap();
    assert!(matches!(resp.body, Body::Points(_)));
    handle.join();
}
