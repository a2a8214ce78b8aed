//! The access paths: **served** (a client and a server) with **`as_of`**
//! (every retained epoch against the model at that epoch's prefix),
//! **routed** (a client, the router's front-end and 1–8 shards),
//! **recovered** (crash media killed at a seeded durable I/O, recovered,
//! reopened from the commit meta, its pages handed to the store, against
//! the model at the acked prefix and then through the rest of the case)
//! and **committed** (a durable store updated with no apply session and
//! committed after every update, then recovered and reopened: the pages
//! the reopened structure reaches are the pages the live store held).

use std::sync::Arc;
use std::time::Duration;

use pc_btree::BTree;
use pc_intervaltree::ExternalIntervalTree;
use pc_pagestore::{
    CrashBackend, CrashController, CrashLog, CrashPlan, PageId, PageStore, Point, StoreConfig,
    VersionConfig, VersionedStore, WalConfig,
};
use pc_pst::{DynamicPst, DynamicThreeSidedPst, NaivePst, ThreeSidedPst, TwoLevelPst};
use pc_rng::mix64;
use pc_segtree::CachedSegmentTree;
use pc_serve::wire::{Body, ErrorCode, Op as Request};
use pc_serve::{
    decode_commit_meta, encode_commit_meta, BTreeTarget, Client, DynamicBTreeTarget,
    DynamicPstTarget, DynamicThreeSidedTarget, IntervalTreeTarget, NaivePstTarget, PstTarget,
    QueryTarget, Registry, Router, RouterConfig, RouterFrontend, SegTreeTarget, Server,
    ServerConfig, ServerHandle, Service, ShardMap, ThreeSidedTarget,
};

use crate::driver::{drive, same, Subject};
use crate::gen::{everything, Case, Op, Query, Shape};
use crate::model::Model;
use crate::structures::{
    entries, interval_records, intervals, key_records, InProcess, Res, Structure,
};

/// Every served and recovered store's page size: the wire and the media
/// never see the geometry, which the in-process cells sweep.
const PAGE: usize = 512;

/// A target kind a `pc-serve` node registers: what it stores, whether its
/// cases come from every data class (the segment tree's from the wide one
/// alone), whether it takes updates, and its build.
pub struct Kind {
    pub name: &'static str,
    pub shape: Shape,
    pub classed: bool,
    pub dynamic: bool,
    build: fn(&PageStore, &[Point]) -> pc_pagestore::Result<Target>,
}

type Target = Box<dyn QueryTarget>;

/// Every target kind, in one registry order.
#[rustfmt::skip]
pub const KINDS: [Kind; 9] = [
    Kind { name: "B-tree", shape: Shape::Range, classed: true, dynamic: false,
        build: |s, r| Ok(Box::new(BTreeTarget(BTree::bulk_build(s, &entries(r))?))) },
    Kind { name: "segment tree", shape: Shape::Stab, classed: false, dynamic: false,
        build: |s, r| Ok(Box::new(SegTreeTarget(CachedSegmentTree::build(s, &intervals(r))?))) },
    Kind { name: "interval tree", shape: Shape::Stab, classed: true, dynamic: false, build: |s, r| {
        Ok(Box::new(IntervalTreeTarget(ExternalIntervalTree::build(s, &intervals(r))?)))
    } },
    Kind { name: "two-level PST", shape: Shape::TwoSided, classed: true, dynamic: false,
        build: |s, r| Ok(Box::new(PstTarget(TwoLevelPst::build(s, r)?))) },
    Kind { name: "naive PST", shape: Shape::TwoSided, classed: true, dynamic: false,
        build: |s, r| Ok(Box::new(NaivePstTarget(NaivePst::build(s, r)?))) },
    Kind { name: "3-sided PST", shape: Shape::ThreeSided, classed: true, dynamic: false,
        build: |s, r| Ok(Box::new(ThreeSidedTarget(ThreeSidedPst::build(s, r)?))) },
    Kind { name: "dynamic PST", shape: Shape::TwoSided, classed: true, dynamic: true,
        build: |s, r| Ok(Box::new(DynamicPstTarget::new(DynamicPst::build(s, r)?))) },
    Kind { name: "dynamic 3-sided PST", shape: Shape::ThreeSided, classed: true, dynamic: true,
        build: |s, r| {
            Ok(Box::new(DynamicThreeSidedTarget::new(DynamicThreeSidedPst::build(s, r)?)))
        } },
    Kind { name: "dynamic B-tree", shape: Shape::Range, classed: true, dynamic: true,
        build: |s, r| Ok(Box::new(DynamicBTreeTarget::new(BTree::bulk_build(s, &entries(r))?))) },
];

impl Kind {
    fn target(&self, store: &PageStore, records: &[Point]) -> Res<Target> {
        (self.build)(store, records).map_err(|e| format!("{} build: {e}", self.name))
    }
}

/// The wire request of a query.
fn request(q: &Query) -> Request {
    match *q {
        Query::Two(q) => Request::TwoSided { x0: q.x0, y0: q.y0 },
        Query::Three(q) => Request::ThreeSided { x1: q.x1, x2: q.x2, y0: q.y0 },
        Query::Stab(q) => Request::Stab { q },
        Query::Range(lo, hi) => Request::Range1d { lo, hi },
    }
}

/// A wire answer as records.
fn records(body: Body) -> Res<Vec<Point>> {
    match body {
        Body::Points(v) => Ok(v),
        Body::Intervals(v) => Ok(interval_records(v)),
        Body::Keys(v) => Ok(key_records(v)),
        other => Err(format!("answered {other:?}")),
    }
}

/// One target behind a client connection, a node's or a router's, and the
/// epoch each acked update installed.
pub struct Wire {
    client: Client,
    target: u16,
    acked: Vec<u64>,
}

impl Wire {
    fn connect(addr: std::net::SocketAddr) -> Res<Wire> {
        let client = Client::connect(addr, Duration::from_secs(10)).map_err(|e| e.to_string())?;
        Ok(Wire { client, target: 0, acked: Vec::new() })
    }

    fn call(&mut self, as_of: u64, op: Request) -> Res<Body> {
        let resp = self.client.call_as_of(self.target, 0, as_of, op);
        resp.map(|r| r.body).map_err(|e| e.to_string())
    }

    /// Expects `op` refused with `code`.
    fn refused(&mut self, as_of: u64, op: Request, code: ErrorCode) -> Res<()> {
        match self.call(as_of, op)? {
            Body::Error { code: got, .. } if got == code => Ok(()),
            other => Err(format!("expected a typed {code:?}, got {other:?}")),
        }
    }
}

impl Subject for Wire {
    fn update(&mut self, op: &Op) -> Res<()> {
        let op = match *op {
            Op::Insert(p) => Request::Insert(p),
            Op::Delete(p) => Request::Delete(p),
            _ => return Ok(()),
        };
        match self.call(0, op)? {
            Body::Ack { batch, .. } => {
                self.acked.push(batch);
                Ok(())
            }
            other => Err(format!("update answered {other:?}")),
        }
    }
    fn answer(&mut self, q: &Query) -> Res<Vec<Point>> {
        self.call(0, request(q)).and_then(records)
    }
}

/// A node serving one target of `kind` over `build`, keeping `retain`
/// epochs addressable.
fn serve(kind: &Kind, build: &[Point], retain: usize) -> Res<(ServerHandle, Wire)> {
    let store = Arc::new(PageStore::in_memory(PAGE));
    let mut registry = Registry::new();
    registry.register(kind.name, kind.target(&store, build)?);
    let config = ServerConfig { workers: 2, version_retain: retain, ..ServerConfig::default() };
    let handle = Server::spawn(Service { store, registry }, config).map_err(|e| e.to_string())?;
    let wire = Wire::connect(handle.addr())?;
    Ok((handle, wire))
}

/// `case` through a client and a server; then, for a target that takes
/// updates, every epoch the case installed — one an acked update, all of
/// them retained — read `as_of` it against the model after that update:
/// the everything query and two of the case's. Past the head and for an
/// update, `as_of` is a typed refusal; a static target has one state and
/// refuses `as_of` outright.
pub fn served(kind: &Kind, case: &Case) -> Res<()> {
    let (handle, mut wire) = serve(kind, &case.build, case.updates().count() + 1)?;
    let result = drive(&mut wire, case).and_then(|()| match kind.dynamic {
        true => as_of(&mut wire, case),
        false => wire.refused(1, request(&everything(case.shape)), ErrorCode::Unsupported),
    });
    handle.shutdown();
    handle.join();
    result
}

fn as_of(wire: &mut Wire, case: &Case) -> Res<()> {
    let current = wire.acked.len() as u64;
    if wire.acked.iter().copied().ne(1..=current) {
        return Err(format!("acked in epochs {:?}, want one an update", wire.acked));
    }
    let queries: Vec<Query> = case.queries().copied().collect();
    let mut model = Model::new(&case.build);
    for (k, op) in case.updates().enumerate() {
        model.update(op);
        let (epoch, n) = (k as u64 + 1, queries.len());
        for q in [everything(case.shape), queries[k % n], queries[(7 * k + 3) % n]] {
            let got = wire.call(epoch, request(&q)).and_then(records);
            got.and_then(|got| same(got, model.answer(&q)))
                .map_err(|e| format!("as_of {epoch}, {q:?}: {e}"))?;
        }
    }
    let insert = Request::Insert(Point::new(0, 0, 0));
    wire.refused(current.max(1), insert, ErrorCode::BadRequest)?;
    wire.refused(current + 1, request(&everything(case.shape)), ErrorCode::BadRequest)
}

/// The records of a build set that a shard of `map` holds: points and keys
/// by owner, an interval on every shard it overlaps.
fn partition(map: &ShardMap, shape: Shape, build: &[Point]) -> Vec<Vec<Point>> {
    match shape {
        Shape::TwoSided | Shape::ThreeSided => map.partition_points(build),
        Shape::Stab => {
            map.partition_intervals(&intervals(build)).into_iter().map(interval_records).collect()
        }
        Shape::Range => {
            map.partition_entries(&entries(build)).into_iter().map(key_records).collect()
        }
    }
}

/// `cases[i]` for `KINDS[i]`, each through a client, the router's front-end
/// and one shard a range of `splits`: every shard registers every kind over
/// its part of that kind's build set. A stab at the B-tree comes back as
/// the owning shard's typed refusal.
pub fn routed(cases: &[Case], splits: &[i64], seed: u64) -> Res<()> {
    let map = ShardMap::new(splits.to_vec());
    let parts: Vec<Vec<Vec<Point>>> =
        cases.iter().map(|case| partition(&map, case.shape, &case.build)).collect();
    let mut handles = Vec::new();
    for shard in 0..map.shards() {
        let store = Arc::new(PageStore::in_memory(PAGE));
        let mut registry = Registry::new();
        for (kind, part) in KINDS.iter().zip(&parts) {
            registry.register(kind.name, kind.target(&store, &part[shard])?);
        }
        let config = ServerConfig { workers: 2, ..ServerConfig::default() };
        handles
            .push(Server::spawn(Service { store, registry }, config).map_err(|e| e.to_string())?);
    }
    let groups: Vec<_> = handles.iter().map(|handle| vec![handle.addr()]).collect();
    let health_interval = Duration::from_millis(200);
    let config = RouterConfig { health_interval, seed, ..RouterConfig::default() };
    let router =
        Arc::new(Router::connect(&groups, splits.to_vec(), config).map_err(|e| e.to_string())?);
    let frontend =
        RouterFrontend::spawn(Arc::clone(&router), "127.0.0.1:0").map_err(|e| e.to_string())?;
    let mut wire = Wire::connect(frontend.addr())?;
    let mut result = Ok(());
    for (tid, (kind, case)) in KINDS.iter().zip(cases).enumerate() {
        wire.target = tid as u16;
        result =
            result.and_then(|()| drive(&mut wire, case).map_err(|e| format!("{}: {e}", kind.name)));
    }
    wire.target = 0;
    result = result.and_then(|()| wire.refused(0, Request::Stab { q: 0 }, ErrorCode::Unsupported));
    router.shutdown();
    handles.into_iter().for_each(ServerHandle::join);
    frontend.join();
    result
}

fn crash_media(plan: CrashPlan) -> (CrashController, Arc<CrashBackend>, Arc<CrashLog>) {
    let ctrl = CrashController::new(plan);
    let backend = Arc::new(CrashBackend::new(PAGE + 8, ctrl.clone()));
    let log = Arc::new(CrashLog::new(ctrl.clone()));
    (ctrl, backend, log)
}

/// What a shard does: build on a durable store, commit as epoch 0, then
/// each batch of updates in a copy-on-write session installed as the next
/// epoch, the structure's descriptor framed into every commit; at
/// the end, a page written and one overwritten, never committed. Stops at
/// the first error — the kill — and returns how many commits were acked,
/// and the structure with the ids its build allocated: what a static
/// structure, which has no walk, reaches.
fn durable_run<S: Structure>(
    (backend, log): (&Arc<CrashBackend>, &Arc<CrashLog>),
    wal: WalConfig,
    build: &[Point],
    batches: &[&[Op]],
) -> (usize, Option<(S, Vec<PageId>)>) {
    let opened = PageStore::new_durable(
        StoreConfig::strict(PAGE),
        Box::new(Arc::clone(backend)),
        Box::new(Arc::clone(log)),
        wal,
    );
    let Ok((store, _)) = opened else { return (0, None) };
    let store = Arc::new(store);
    let meta = |epoch: usize, s: &S| encode_commit_meta(epoch as u64, &[s.descriptor()]);
    let Ok(mut s) = S::build(&store, build) else { return (0, None) };
    let built = store.allocated_pages();
    if store.commit_with(&meta(0, &s)).is_err() {
        return (0, Some((s, built)));
    }
    let versions =
        VersionedStore::new(Arc::clone(&store), VersionConfig { retain: 2 }, &meta(0, &s));
    for (b, batch) in batches.iter().enumerate() {
        let session = versions.begin_apply();
        let applied = batch.iter().all(|op| s.update(&store, op).is_ok());
        if !applied || session.install_as(b as u64 + 1, &meta(b + 1, &s)).is_err() {
            return (b + 1, Some((s, built)));
        }
    }
    let scribble = |page| store.write(page, &[0xAB; 64]);
    let _ = store.alloc().and_then(scribble);
    let _ = store.allocated_pages().first().map(|&page| scribble(page));
    (batches.len() + 1, Some((s, built)))
}

/// `case` on crash media killed at a durable I/O ordinal `seed` draws from
/// those the whole run issues — or, one time in three, after the last —
/// recovered, reopened at the epoch the commit meta names and held to the
/// model at that prefix, which the acked commits bound: it holds every
/// acked one and at most the one in flight. The store, handed the pages
/// the reopened structure walks, holds exactly those; the rest of the case
/// then runs on it, committed after every update, so a page the walk
/// missed would be handed out again under the structure. Odd seeds never
/// checkpoint (the log keeps every record); even ones checkpoint often
/// enough that kills land in checkpoints too.
pub fn recovered<S: Structure>(case: &Case, seed: u64) -> Res<()> {
    let updates: Vec<Op> = case.updates().copied().collect();
    let batches: Vec<&[Op]> = updates.chunks(1 + (seed >> 8) as usize % 8).collect();
    let wal = WalConfig { checkpoint_bytes: if seed.is_multiple_of(2) { 6000 } else { u64::MAX } };
    let (ctrl, backend, log) = crash_media(CrashPlan::count_only(seed));
    let (acked, _) = durable_run::<S>((&backend, &log), wal, &case.build, &batches);
    if acked != batches.len() + 1 {
        return Err(format!("an unkilled run acked {acked} of {} commits", batches.len() + 1));
    }
    let ops = ctrl.ops();
    let kill_at = match mix64(seed) % 3 {
        0 => ops + 1,
        _ => 1 + mix64(seed ^ ops) % ops,
    };
    let at = format!("killed at durable I/O {kill_at} of {ops}");

    let (_, backend, log) = crash_media(CrashPlan::kill_at(seed, kill_at));
    let (acked, built) = durable_run::<S>((&backend, &log), wal, &case.build, &batches);
    let (recovered, _) = PageStore::new_durable(
        StoreConfig::strict(PAGE),
        Box::new(backend.surviving_backend()),
        Box::new(log.surviving_log()),
        WalConfig::default(),
    )
    .map_err(|e| format!("{at}: recovery failed: {e}"))?;
    let recovered = Arc::new(recovered);
    let Some(meta) = recovered.last_commit_meta() else {
        let pages = recovered.allocated_pages().len();
        return match (acked, pages) {
            (0, 0) => Ok(()),
            _ => Err(format!("{at}: {acked} commits acked, none recovered, {pages} pages left")),
        };
    };
    let versions =
        VersionedStore::open(Arc::clone(&recovered), Some(&meta), VersionConfig { retain: 2 });
    let epoch = versions.current_seq() as usize;
    if epoch + 1 < acked || epoch > acked {
        return Err(format!("{at}: {acked} commits acked, epoch {epoch} recovered"));
    }
    let snapshot = versions.snapshot_at(epoch as u64).map_err(|e| e.to_string())?;
    let Some((_, descriptors)) = decode_commit_meta(snapshot.user_meta()) else {
        return Err(format!("{at}: epoch {epoch}'s meta does not decode"));
    };
    let (s, mut reached) = match &descriptors[0] {
        Some(desc) => {
            let s = S::open(&recovered, desc).map_err(|e| format!("{at}: reopen: {e}"))?;
            let ids = s.page_ids(&recovered).map_err(|e| format!("{at}: walk: {e}"))?;
            (s, ids)
        }
        None => {
            let (s, built) =
                built.ok_or_else(|| format!("{at}: a static structure recovered unbuilt"))?;
            if S::WALKED {
                let mut ids = s.page_ids(&recovered).map_err(|e| format!("{at}: walk: {e}"))?;
                ids.sort_unstable();
                if ids != built {
                    return Err(format!("{at}: the walk names other pages than the build made"));
                }
            }
            (s, built)
        }
    };
    recovered.free_unreached(&reached);
    reached.sort_unstable();
    if recovered.allocated_pages() != reached {
        return Err(format!("{at}: the store keeps other pages than epoch {epoch} reaches"));
    }
    let applied: usize = batches[..epoch].iter().map(|batch| batch.len()).sum();
    let model = Model::after(case, applied);
    let state = Case {
        shape: case.shape,
        build: model.records(),
        ops: case.queries().map(|q| Op::Query(*q)).collect(),
    };
    let mut subject = Committing(InProcess { store: recovered, s });
    drive(&mut subject, &state).map_err(|e| format!("{at}, epoch {epoch}: {e}"))?;
    // The ops after the last update the epoch holds.
    let updates = case.ops.iter().enumerate();
    let updates = updates.filter(|(_, op)| matches!(op, Op::Insert(_) | Op::Delete(_)));
    let start = match applied {
        0 => 0,
        _ => updates.map(|(at, _)| at + 1).nth(applied - 1).expect("the epoch's updates"),
    };
    let rest = Case { shape: case.shape, build: model.records(), ops: case.ops[start..].to_vec() };
    drive(&mut subject, &rest).map_err(|e| format!("{at}, after epoch {epoch}: {e}"))
}

/// `case` on a durable store with no apply session, as a program that keeps
/// one structure on disk does: committed after the build and after every
/// update, so an update writes the fresh page [`PageStore::relocate`] gives
/// for each committed page it changes; then the store recovered from its
/// media, the structure reopened from the last commit and held to the model
/// after every update.
pub fn committed<S: Structure>(case: &Case) -> Res<()> {
    let (_, backend, log) = crash_media(CrashPlan::count_only(0));
    let (store, _) = PageStore::new_durable(
        StoreConfig::strict(PAGE),
        Box::new(Arc::clone(&backend)),
        Box::new(Arc::clone(&log)),
        WalConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let s = S::build(&store, &case.build)?;
    let mut live = Committing(InProcess { store: Arc::new(store), s });
    live.commit().map_err(|e| format!("the build's commit: {e}"))?;
    drive(&mut live, case)?;
    let (recovered, _) = PageStore::new_durable(
        StoreConfig::strict(PAGE),
        Box::new(backend.surviving_backend()),
        Box::new(log.surviving_log()),
        WalConfig::default(),
    )
    .map_err(|e| format!("recovery failed: {e}"))?;
    let desc = recovered.last_commit_meta().ok_or("no commit recovered")?;
    let s = S::open(&recovered, &desc).map_err(|e| format!("reopen: {e}"))?;
    let mut reached = s.page_ids(&recovered).map_err(|e| format!("walk: {e}"))?;
    recovered.free_unreached(&reached);
    reached.sort_unstable();
    if reached != live.0.store.allocated_pages() {
        return Err("the recovered structure reaches other pages than the store held".into());
    }
    if recovered.allocated_pages() != reached {
        return Err("the recovered store keeps other pages than the structure reaches".into());
    }
    let model = Model::after(case, case.updates().count());
    let state = Case {
        shape: case.shape,
        build: model.records(),
        ops: case.queries().map(|q| Op::Query(*q)).collect(),
    };
    drive(&mut InProcess { store: Arc::new(recovered), s }, &state)
        .map_err(|e| format!("recovered: {e}"))
}

/// A structure on a durable store that commits its descriptor after every
/// update.
struct Committing<S>(InProcess<S>);

impl<S: Structure> Committing<S> {
    fn commit(&self) -> Res<()> {
        let desc = self.0.s.descriptor().ok_or("a static structure has no descriptor")?;
        self.0.store.commit_with(&desc).map(drop).map_err(|e| e.to_string())
    }
}

impl<S: Structure> Subject for Committing<S> {
    fn update(&mut self, op: &Op) -> Res<()> {
        self.0.update(op)?;
        self.commit()
    }
    fn answer(&mut self, q: &Query) -> Res<Vec<Point>> {
        self.0.answer(q)
    }
    fn len(&mut self) -> Option<u64> {
        self.0.len()
    }
}
