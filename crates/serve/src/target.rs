//! The [`QueryTarget`] registry: the server's only view of a data
//! structure.
//!
//! The server never matches on concrete structure types. Each served
//! structure is registered as a boxed [`QueryTarget`] and addressed by its
//! registry index (`Request::target`); the trait maps a wire [`Op`] to a
//! wire [`Body`] (or a typed [`TargetError`]).
//!
//! That mapping is written once. A structure says which queries it
//! [`Answers`] — one method per read op, each absent by default — and
//! `answer` holds the one arm per op that turns a wire op into the call and
//! the result into its wire body. A structure that also takes [`Updates`]
//! (a batch apply, a reopen descriptor) is served by [`Dynamic`], which
//! hands it each coalesced batch whole, under one lock hold — a dynamic PST
//! pushes a burst into its root buffer at once (the Thm 5.1 buffering idea
//! at the service boundary) — and the batch succeeds or fails whole.
//! Because `Updates` demands the descriptor, every target that accepts an
//! update is versioned, time-travelable and reopened at the installed epoch
//! after a failed batch: there is no second, unversioned update path.
//! Adding a structure to the server is one `impl Answers` (plus `impl
//! Updates`) and one `register` call.
//!
//! All registered structures share one [`PageStore`] (`&self` API, `Sync`),
//! so worker threads query concurrently through the sharded buffer pool.

use std::fmt;

use pc_btree::BTree;
use pc_intervaltree::ExternalIntervalTree;
use pc_pagestore::{Interval, PageStore, Point, StoreError, UpdateOp};
use pc_pst::{
    DynamicPst, DynamicThreeSidedPst, NaivePst, ThreeSided, ThreeSidedPst, TwoLevelPst, TwoSided,
};
use pc_segtree::CachedSegmentTree;
use pc_sync::Mutex;

use crate::wire::{Body, Op};

/// Why a target could not serve an op.
#[derive(Debug, Clone)]
pub enum TargetError {
    /// This target does not implement the op (e.g. a stab against a B-tree).
    Unsupported {
        /// The op name (see [`Op::name`]).
        op: &'static str,
        /// The target kind (see [`QueryTarget::kind`]).
        target: &'static str,
    },
    /// The storage layer failed; carries the typed store error.
    Storage(StoreError),
}

impl fmt::Display for TargetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TargetError::Unsupported { op, target } => {
                write!(f, "op {op} is not supported by target kind {target}")
            }
            TargetError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for TargetError {}

impl From<StoreError> for TargetError {
    fn from(e: StoreError) -> TargetError {
        TargetError::Storage(e)
    }
}

/// A servable structure. Implementations must be `Send + Sync`: queries run
/// concurrently from the worker pool against a shared [`PageStore`].
pub trait QueryTarget: Send + Sync {
    /// Stable kind name for stats and error messages (e.g. `"btree"`).
    fn kind(&self) -> &'static str;

    /// Serves one read op; anything else is `Unsupported`.
    fn query(&self, store: &PageStore, op: &Op) -> Result<Body, TargetError>;

    /// Applies a coalesced batch of updates as one unit, returning one
    /// result per op in order: each the batch's outcome. The default
    /// rejects everything (static structure).
    fn apply_updates(&self, store: &PageStore, ops: &[UpdateOp]) -> Vec<Result<(), TargetError>> {
        let _ = store;
        ops.iter()
            .map(|_| Err(TargetError::Unsupported { op: "update", target: self.kind() }))
            .collect()
    }

    /// Serialized reopen handle for this target's current state — `Some`
    /// exactly when [`QueryTarget::versioned_updates`]. The batcher commits
    /// these with every epoch, so after a crash the recovered store's
    /// `last_commit_meta` carries exactly the handles matching the
    /// acknowledged state (see [`crate::server::decode_commit_meta`]), and
    /// an `as_of` read finds the handle of the epoch it addresses.
    fn descriptor(&self) -> Option<Vec<u8>> {
        None
    }

    /// The one predicate for "this target takes updates": they run inside
    /// the versioning layer's copy-on-write apply session, and its reads are
    /// answered from a [`QueryTarget::open_frozen`] view of the epoch pinned
    /// at admission. False for static targets, which are read in place.
    fn versioned_updates(&self) -> bool {
        false
    }

    /// Resets the live structure to a committed descriptor's state, as
    /// after a failed batch rolled back. The default refuses.
    fn reopen(&self, store: &PageStore, desc: &[u8]) -> Result<(), TargetError> {
        let _ = (store, desc);
        Err(TargetError::Unsupported { op: "reopen", target: self.kind() })
    }

    /// Reopens a read-only view of this target's state as captured by a
    /// committed descriptor (see [`QueryTarget::descriptor`]). No later
    /// batch writes a page the descriptor reaches while a caller pins its
    /// epoch, so the view is immutable and safely shared across query
    /// workers without locks. The default refuses (no descriptor, nothing
    /// to reopen).
    fn open_frozen(
        &self,
        store: &PageStore,
        desc: &[u8],
    ) -> Result<Box<dyn QueryTarget>, TargetError> {
        let _ = (store, desc);
        Err(TargetError::Unsupported { op: "open_frozen", target: self.kind() })
    }
}

/// A frozen per-epoch view, wrapped in a concrete type so snapshots can
/// cache it as `Arc<FrozenView>` inside their `Any`-keyed epoch cache
/// (an `Arc<dyn QueryTarget>` itself cannot live in an `Arc<dyn Any>`).
pub struct FrozenView(pub Box<dyn QueryTarget>);

impl FrozenView {
    /// Serves a read op against the frozen state.
    pub fn query(&self, store: &PageStore, op: &Op) -> Result<Body, TargetError> {
        self.0.query(store, op)
    }
}

type Answer<T> = Option<Result<Vec<T>, StoreError>>;

/// The queries a structure answers: one method per read op, `None` (the
/// default) where the structure has no such query.
pub trait Answers: Send + Sync {
    /// Stable kind name (see [`QueryTarget::kind`]).
    const KIND: &'static str;

    /// 1-d key range `[lo, hi]`.
    fn range1d(&self, _store: &PageStore, _lo: i64, _hi: i64) -> Answer<(i64, u64)> {
        None
    }
    /// Stabbing query at `q`.
    fn stab(&self, _store: &PageStore, _q: i64) -> Answer<Interval> {
        None
    }
    /// 2-sided query.
    fn two_sided(&self, _store: &PageStore, _q: TwoSided) -> Answer<Point> {
        None
    }
    /// 3-sided query.
    fn three_sided(&self, _store: &PageStore, _q: ThreeSided) -> Answer<Point> {
        None
    }
}

/// The one body under every target's `query`: each read op's arm, once.
fn answer<S: Answers>(
    s: &S,
    kind: &'static str,
    store: &PageStore,
    op: &Op,
) -> Result<Body, TargetError> {
    let body = match *op {
        Op::Range1d { lo, hi } => s.range1d(store, lo, hi).map(|r| r.map(Body::Keys)),
        Op::Stab { q } => s.stab(store, q).map(|r| r.map(Body::Intervals)),
        Op::TwoSided { x0, y0 } => {
            s.two_sided(store, TwoSided { x0, y0 }).map(|r| r.map(Body::Points))
        }
        Op::ThreeSided { x1, x2, y0 } => {
            s.three_sided(store, ThreeSided { x1, x2, y0 }).map(|r| r.map(Body::Points))
        }
        _ => None,
    };
    match body {
        Some(result) => Ok(result?),
        None => Err(TargetError::Unsupported { op: op.name(), target: kind }),
    }
}

impl Answers for BTree {
    const KIND: &'static str = "btree";
    fn range1d(&self, store: &PageStore, lo: i64, hi: i64) -> Answer<(i64, u64)> {
        Some(self.range(store, &lo, &hi))
    }
}

impl Answers for CachedSegmentTree {
    const KIND: &'static str = "segtree";
    fn stab(&self, store: &PageStore, q: i64) -> Answer<Interval> {
        Some(CachedSegmentTree::stab(self, store, q))
    }
}

impl Answers for ExternalIntervalTree {
    const KIND: &'static str = "intervaltree";
    fn stab(&self, store: &PageStore, q: i64) -> Answer<Interval> {
        Some(ExternalIntervalTree::stab(self, store, q))
    }
}

impl Answers for TwoLevelPst {
    const KIND: &'static str = "pst";
    fn two_sided(&self, store: &PageStore, q: TwoSided) -> Answer<Point> {
        Some(self.query(store, q))
    }
}

impl Answers for NaivePst {
    const KIND: &'static str = "naive_pst";
    fn two_sided(&self, store: &PageStore, q: TwoSided) -> Answer<Point> {
        Some(self.query(store, q))
    }
}

impl Answers for ThreeSidedPst {
    const KIND: &'static str = "pst3";
    fn three_sided(&self, store: &PageStore, q: ThreeSided) -> Answer<Point> {
        Some(self.query(store, q))
    }
}

impl Answers for DynamicPst {
    const KIND: &'static str = "dynamic_pst";
    fn two_sided(&self, store: &PageStore, q: TwoSided) -> Answer<Point> {
        Some(self.query(store, q))
    }
}

impl Answers for DynamicThreeSidedPst {
    const KIND: &'static str = "dynamic_pst3";
    fn three_sided(&self, store: &PageStore, q: ThreeSided) -> Answer<Point> {
        Some(self.query(store, q))
    }
}

/// A static target: a public newtype over a structure, read in place.
macro_rules! static_target {
    ($(#[$meta:meta])* $Target:ident($S:ty)) => {
        $(#[$meta])*
        pub struct $Target(pub $S);

        impl QueryTarget for $Target {
            fn kind(&self) -> &'static str {
                <$S>::KIND
            }
            fn query(&self, store: &PageStore, op: &Op) -> Result<Body, TargetError> {
                answer(&self.0, <$S>::KIND, store, op)
            }
        }
    };
}

static_target! {
    /// A read-only B-tree serving [`Op::Range1d`].
    BTreeTarget(BTree)
}
static_target! {
    /// A path-cached segment tree serving [`Op::Stab`].
    SegTreeTarget(CachedSegmentTree)
}
static_target! {
    /// An external interval tree serving [`Op::Stab`].
    IntervalTreeTarget(ExternalIntervalTree)
}
static_target! {
    /// A static two-level PST serving [`Op::TwoSided`].
    PstTarget(TwoLevelPst)
}
static_target! {
    /// The paper's baseline: a naive externalized PST serving
    /// [`Op::TwoSided`] *without* path caching. It exists in the registry for
    /// live A/B comparison — its deep-corner queries are the Figure-3
    /// pathology the slow-query log's wasteful-I/O ranking is built to catch.
    NaivePstTarget(NaivePst)
}
static_target! {
    /// A static 3-sided PST serving [`Op::ThreeSided`].
    ThreeSidedTarget(ThreeSidedPst)
}

/// A structure that takes updates. The descriptor is part of the contract,
/// so whatever [`Dynamic`] serves can be reopened — frozen at an epoch, or
/// after a crash.
pub trait Updates: Answers + Sized + 'static {
    /// [`Answers::KIND`] of a frozen per-epoch view.
    const FROZEN_KIND: &'static str;
    /// Applies a batch in order; after an error, reopen the structure.
    fn apply(&mut self, store: &PageStore, ops: &[UpdateOp]) -> Result<(), StoreError>;
    /// The reopen handle of the current state.
    fn descriptor(&self) -> Vec<u8>;
    /// Reopens the state a descriptor names.
    fn open(store: &PageStore, desc: &[u8]) -> Result<Self, StoreError>;
}

/// `Updates` for a structure whose inherent methods already are the contract.
macro_rules! updates {
    ($S:ty, frozen $kind:literal) => {
        impl Updates for $S {
            const FROZEN_KIND: &'static str = $kind;
            fn apply(&mut self, store: &PageStore, ops: &[UpdateOp]) -> Result<(), StoreError> {
                <$S>::apply(self, store, ops)
            }
            fn descriptor(&self) -> Vec<u8> {
                <$S>::descriptor(self).into()
            }
            fn open(store: &PageStore, desc: &[u8]) -> Result<Self, StoreError> {
                <$S>::open(store, desc)
            }
        }
    };
}
updates!(DynamicPst, frozen "dynamic_pst@epoch");
updates!(DynamicThreeSidedPst, frozen "dynamic_pst3@epoch");

/// A B-tree takes a point's `x` as the key and its `id` as the value.
impl Updates for BTree {
    const FROZEN_KIND: &'static str = "btree@epoch";
    /// A delete removes the entry `p.x → p.id` only: another point's
    /// insert may have replaced the value under `p.x` since.
    fn apply(&mut self, store: &PageStore, ops: &[UpdateOp]) -> Result<(), StoreError> {
        ops.iter().try_for_each(|op| match *op {
            UpdateOp::Insert(p) => BTree::insert(self, store, p.x, p.id).map(drop),
            UpdateOp::Delete(p) => BTree::delete_if(self, store, p.x, |id| id == p.id).map(drop),
        })
    }
    fn descriptor(&self) -> Vec<u8> {
        BTree::descriptor(self).into()
    }
    fn open(_store: &PageStore, desc: &[u8]) -> Result<Self, StoreError> {
        BTree::open(desc)
    }
}

/// An update-capable target. The mutex is held once per *batch*, which is
/// exactly the coalescing win: the live structure is only ever touched by
/// the batcher (and by embedders reading it directly); served reads go
/// through [`QueryTarget::open_frozen`] views instead.
pub struct Dynamic<S: Updates>(pub Mutex<S>);

/// A dynamic PST serving [`Op::TwoSided`] plus batched inserts/deletes.
pub type DynamicPstTarget = Dynamic<DynamicPst>;
/// A dynamic 3-sided PST serving [`Op::ThreeSided`] plus batched updates.
pub type DynamicThreeSidedTarget = Dynamic<DynamicThreeSidedPst>;
/// A B-tree serving [`Op::Range1d`] plus batched inserts/deletes.
pub type DynamicBTreeTarget = Dynamic<BTree>;

impl<S: Updates> Dynamic<S> {
    /// Wraps a built or reopened structure (after a crash, reopened from
    /// the descriptor in the recovered store's `last_commit_meta`).
    pub fn new(structure: S) -> Dynamic<S> {
        Dynamic(Mutex::new(structure))
    }
}

impl<S: Updates> QueryTarget for Dynamic<S> {
    fn kind(&self) -> &'static str {
        S::KIND
    }

    fn query(&self, store: &PageStore, op: &Op) -> Result<Body, TargetError> {
        answer(&*self.0.lock(), S::KIND, store, op)
    }

    fn apply_updates(&self, store: &PageStore, ops: &[UpdateOp]) -> Vec<Result<(), TargetError>> {
        let outcome = self.0.lock().apply(store, ops).map_err(TargetError::Storage);
        ops.iter().map(|_| outcome.clone()).collect()
    }

    fn descriptor(&self) -> Option<Vec<u8>> {
        Some(self.0.lock().descriptor())
    }

    fn versioned_updates(&self) -> bool {
        true
    }

    fn reopen(&self, store: &PageStore, desc: &[u8]) -> Result<(), TargetError> {
        *self.0.lock() = S::open(store, desc)?;
        Ok(())
    }

    fn open_frozen(
        &self,
        store: &PageStore,
        desc: &[u8],
    ) -> Result<Box<dyn QueryTarget>, TargetError> {
        Ok(Box::new(Frozen(S::open(store, desc)?)))
    }
}

/// Read-only reopen of a dynamic structure at a committed descriptor. Its
/// queries are `&self`, so no mutex is needed: the state is immutable by
/// construction (a batch copies the pages it changes, and the pinned epoch
/// keeps those the descriptor names).
struct Frozen<S: Updates>(S);

impl<S: Updates> QueryTarget for Frozen<S> {
    fn kind(&self) -> &'static str {
        S::FROZEN_KIND
    }

    fn query(&self, store: &PageStore, op: &Op) -> Result<Body, TargetError> {
        answer(&self.0, S::FROZEN_KIND, store, op)
    }
}

/// The set of structures a server instance exposes, addressed by index.
#[derive(Default)]
pub struct Registry {
    targets: Vec<(String, Box<dyn QueryTarget>)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers a target under `name`, returning its wire id.
    pub fn register(&mut self, name: impl Into<String>, target: Box<dyn QueryTarget>) -> u16 {
        assert!(self.targets.len() < u16::MAX as usize, "registry full");
        self.targets.push((name.into(), target));
        (self.targets.len() - 1) as u16
    }

    /// Looks up a target by wire id.
    pub fn get(&self, id: u16) -> Option<&dyn QueryTarget> {
        self.targets.get(id as usize).map(|(_, t)| t.as_ref())
    }

    /// The name a target was registered under.
    pub fn name(&self, id: u16) -> Option<&str> {
        self.targets.get(id as usize).map(|(n, _)| n.as_str())
    }

    /// Number of registered targets.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Every target's reopen descriptor, in registry order: what an epoch's
    /// commit metadata carries (see [`crate::server::encode_commit_meta`]).
    pub fn descriptors(&self) -> Vec<Option<Vec<u8>>> {
        self.targets.iter().map(|(_, t)| t.descriptor()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_pagestore::Interval;

    const PAGE: usize = 512;

    #[test]
    fn registry_routes_by_id_and_rejects_mismatched_ops() {
        let store = PageStore::in_memory(PAGE);
        let points: Vec<Point> =
            (0..50).map(|i| Point { x: i, y: (i * 7) % 50, id: i as u64 }).collect();
        let entries: Vec<(i64, u64)> = (0..50).map(|i| (i, (i * i) as u64)).collect();
        let intervals: Vec<Interval> =
            (0..20).map(|i| Interval { lo: i, hi: i + 10, id: i as u64 }).collect();

        let mut reg = Registry::new();
        let bt = reg.register("keys", Box::new(BTreeTarget(BTree::bulk_build(&store, &entries).unwrap())));
        let st = reg.register("intervals", Box::new(SegTreeTarget(CachedSegmentTree::build(&store, &intervals).unwrap())));
        let it = reg.register("intervals2", Box::new(IntervalTreeTarget(ExternalIntervalTree::build(&store, &intervals).unwrap())));
        let ps = reg.register("points", Box::new(PstTarget(TwoLevelPst::build(&store, &points).unwrap())));
        let dy = reg.register("dynamic", Box::new(DynamicPstTarget::new(DynamicPst::build(&store, &points).unwrap())));
        assert_eq!(reg.len(), 5);
        assert_eq!(reg.name(bt), Some("keys"));
        assert!(reg.get(99).is_none());

        // Right op, right answer shape.
        let body = reg.get(bt).unwrap().query(&store, &Op::Range1d { lo: 10, hi: 20 }).unwrap();
        match body {
            Body::Keys(kvs) => assert_eq!(kvs.len(), 11),
            other => panic!("unexpected body {other:?}"),
        }
        for id in [st, it] {
            let body = reg.get(id).unwrap().query(&store, &Op::Stab { q: 15 }).unwrap();
            assert!(matches!(body, Body::Intervals(_)));
        }
        for id in [ps, dy] {
            let body =
                reg.get(id).unwrap().query(&store, &Op::TwoSided { x0: 10, y0: 10 }).unwrap();
            assert!(matches!(body, Body::Points(_)));
        }

        // Wrong op for the target: typed Unsupported, not a panic.
        let err = reg.get(bt).unwrap().query(&store, &Op::Stab { q: 1 }).unwrap_err();
        assert!(matches!(err, TargetError::Unsupported { .. }));
        assert!(err.to_string().contains("btree"));

        // Static targets refuse updates; the dynamic one advertises them,
        // and with them its descriptor.
        assert!(!reg.get(bt).unwrap().versioned_updates());
        assert!(reg.get(dy).unwrap().versioned_updates());
        assert_eq!(
            reg.descriptors().iter().map(Option::is_some).collect::<Vec<_>>(),
            [false, false, false, false, true]
        );
        let res = reg
            .get(bt)
            .unwrap()
            .apply_updates(&store, &[UpdateOp::Insert(Point { x: 0, y: 0, id: 0 })]);
        assert!(matches!(res[0], Err(TargetError::Unsupported { .. })));
    }

    #[test]
    fn a_served_b_tree_deletes_only_the_point_it_names() {
        let store = PageStore::in_memory(PAGE);
        let target = DynamicBTreeTarget::new(BTree::new(&store).unwrap());
        let point = |x, y, id| Point { x, y, id };
        let ops = [
            UpdateOp::Insert(point(10, 0, 1)),
            UpdateOp::Insert(point(10, 5, 2)),
            UpdateOp::Delete(point(10, 0, 1)),
        ];
        assert!(target.apply_updates(&store, &ops).iter().all(|r| r.is_ok()));
        let body = target.query(&store, &Op::Range1d { lo: 0, hi: 100 }).unwrap();
        assert!(matches!(body, Body::Keys(ref kvs) if kvs[..] == [(10, 2)]), "{body:?}");
        let ops = [UpdateOp::Delete(point(10, 5, 2))];
        assert!(target.apply_updates(&store, &ops).iter().all(|r| r.is_ok()));
        let body = target.query(&store, &Op::Range1d { lo: 0, hi: 100 }).unwrap();
        assert!(matches!(body, Body::Keys(ref kvs) if kvs.is_empty()), "{body:?}");
    }

    #[test]
    fn dynamic_target_batch_updates_agree_with_queries() {
        let store = PageStore::in_memory(PAGE);
        let target = DynamicPstTarget::new(DynamicPst::build(&store, &[]).unwrap());
        let ops: Vec<UpdateOp> =
            (0..40).map(|i| UpdateOp::Insert(Point { x: i, y: i % 10, id: i as u64 })).collect();
        // A batch that fits the root's `U` is one push: `U` and the root
        // page's staircase are written once each, not once an update.
        store.reset_stats();
        assert!(target.apply_updates(&store, &ops[..16]).iter().all(|r| r.is_ok()));
        assert!(store.stats().writes <= 2, "{:?}", store.stats());
        let results = target.apply_updates(&store, &ops[16..]);
        assert!(results.iter().all(|r| r.is_ok()));
        let deletes: Vec<UpdateOp> =
            (0..10).map(|i| UpdateOp::Delete(Point { x: i, y: i % 10, id: i as u64 })).collect();
        assert!(target.apply_updates(&store, &deletes).iter().all(|r| r.is_ok()));
        let body = target.query(&store, &Op::TwoSided { x0: 0, y0: 0 }).unwrap();
        match body {
            Body::Points(ps) => assert_eq!(ps.len(), 30),
            other => panic!("unexpected body {other:?}"),
        }
    }
}
