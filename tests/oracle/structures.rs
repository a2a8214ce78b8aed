//! The in-process adapters: one [`Structure`] impl per structure, and the
//! one subject that drives any of them over its own store.

use std::sync::Arc;

use pc_btree::BTree;
use pc_intervaltree::ExternalIntervalTree;
use pc_pagestore::{Interval, PageId, PageStore, Point};
use pc_pst::{
    BasicPst, DynamicPst, DynamicThreeSidedPst, MultilevelPst, NaivePst, SegmentedPst, ThreeSided,
    ThreeSidedPst, TwoLevelPst, TwoSided,
};
use pc_segtree::{CachedSegmentTree, NaiveSegmentTree};

use crate::driver::Subject;
use crate::gen::{Op, Query};

pub type Res<T> = Result<T, String>;

fn ok<T>(r: pc_pagestore::Result<T>) -> Res<T> {
    r.map_err(|e| e.to_string())
}

/// What the oracle needs of a structure: build, answer, count and — for
/// one that takes updates — update, describe, reopen and walk its pages.
pub trait Structure: Sized {
    fn build(store: &PageStore, records: &[Point]) -> Res<Self>;
    fn answer(&self, store: &PageStore, q: &Query) -> Res<Vec<Point>>;
    fn len(&self) -> u64;
    fn update(&mut self, _store: &PageStore, op: &Op) -> Res<()> {
        Err(format!("a static structure was sent {op:?}"))
    }
    /// The bytes that reopen the current state; `None` for a static
    /// structure, whose handle is all there is.
    fn descriptor(&self) -> Option<Vec<u8>> {
        None
    }
    fn open(_store: &PageStore, _desc: &[u8]) -> Res<Self> {
        Err("a static structure has no descriptor".into())
    }
    /// The id of every page the structure reaches.
    fn page_ids(&self, _store: &PageStore) -> Res<Vec<PageId>> {
        Err("a static structure has no walk".into())
    }
}

fn two(q: &Query) -> TwoSided {
    match *q {
        Query::Two(q) => q,
        other => panic!("a 2-sided structure was asked {other:?}"),
    }
}

fn three(q: &Query) -> ThreeSided {
    match *q {
        Query::Three(q) => q,
        other => panic!("a 3-sided structure was asked {other:?}"),
    }
}

fn stab(q: &Query) -> i64 {
    match *q {
        Query::Stab(q) => q,
        other => panic!("a stabbing structure was asked {other:?}"),
    }
}

/// The intervals a build set of the `Stab` shape names.
pub fn intervals(records: &[Point]) -> Vec<Interval> {
    records.iter().map(|p| Interval::new(p.x, p.y, p.id)).collect()
}

/// An interval answer as records.
pub fn interval_records(v: Vec<Interval>) -> Vec<Point> {
    v.into_iter().map(|iv| Point::new(iv.lo, iv.hi, iv.id)).collect()
}

/// A B-tree answer as records.
pub fn key_records(v: Vec<(i64, u64)>) -> Vec<Point> {
    v.into_iter().map(|(k, v)| Point::new(k, 0, v)).collect()
}

/// The B-tree entries a build set of the `Range` shape names, by key.
pub fn entries(records: &[Point]) -> Vec<(i64, u64)> {
    let mut entries: Vec<(i64, u64)> = records.iter().map(|p| (p.x, p.id)).collect();
    entries.sort_unstable();
    entries
}

macro_rules! static_pst {
    ($($S:ident: $query:ident),* $(,)?) => {$(
        impl Structure for $S {
            fn build(store: &PageStore, records: &[Point]) -> Res<Self> {
                ok($S::build(store, records))
            }
            fn answer(&self, store: &PageStore, q: &Query) -> Res<Vec<Point>> {
                ok(self.query(store, $query(q)))
            }
            fn len(&self) -> u64 {
                $S::len(self)
            }
        }
    )*};
}

static_pst!(NaivePst: two, BasicPst: two, SegmentedPst: two, TwoLevelPst: two);
static_pst!(ThreeSidedPst: three);

/// The multilevel PST at every level count from the basic one (1) to past
/// `log* B` (4): they answer as one, or the answer names the level.
pub struct Multilevel(Vec<MultilevelPst>);

impl Structure for Multilevel {
    fn build(store: &PageStore, records: &[Point]) -> Res<Self> {
        (1..=4)
            .map(|k| ok(MultilevelPst::build(store, records, k)))
            .collect::<Res<_>>()
            .map(Multilevel)
    }
    fn answer(&self, store: &PageStore, q: &Query) -> Res<Vec<Point>> {
        let mut answers =
            self.0.iter().map(|pst| ok(pst.query(store, two(q))).map(crate::model::canonical));
        let first = answers.next().expect("four level counts")?;
        for (pst, answer) in self.0.iter().skip(1).zip(answers) {
            if answer? != first {
                return Err(format!("{} levels answer otherwise than 1", pst.levels()));
            }
        }
        Ok(first)
    }
    fn len(&self) -> u64 {
        self.0[0].len()
    }
}

macro_rules! stabbing {
    ($($S:ident),* $(,)?) => {$(
        impl Structure for $S {
            fn build(store: &PageStore, records: &[Point]) -> Res<Self> {
                ok($S::build(store, &intervals(records)))
            }
            fn answer(&self, store: &PageStore, q: &Query) -> Res<Vec<Point>> {
                ok($S::stab(self, store, stab(q))).map(interval_records)
            }
            fn len(&self) -> u64 {
                $S::len(self)
            }
        }
    )*};
}

stabbing!(NaiveSegmentTree, CachedSegmentTree, ExternalIntervalTree);

/// A B-tree entry is a record's key `x` and value `id` (every `y` 0).
impl Structure for BTree {
    fn build(store: &PageStore, records: &[Point]) -> Res<Self> {
        ok(BTree::bulk_build(store, &entries(records)))
    }
    fn answer(&self, store: &PageStore, q: &Query) -> Res<Vec<Point>> {
        let Query::Range(lo, hi) = *q else { panic!("a B-tree was asked {q:?}") };
        ok(self.range(store, &lo, &hi)).map(key_records)
    }
    fn len(&self) -> u64 {
        BTree::len(self)
    }
    fn update(&mut self, store: &PageStore, op: &Op) -> Res<()> {
        match *op {
            Op::Insert(p) => match ok(self.insert(store, p.x, p.id))? {
                None => Ok(()),
                Some(old) => Err(format!("insert of a fresh key replaced the value {old}")),
            },
            Op::Delete(p) => match ok(self.delete(store, &p.x))? {
                Some(v) if v == p.id => Ok(()),
                other => Err(format!("delete of a live key found {other:?}")),
            },
            _ => Ok(()),
        }
    }
    fn descriptor(&self) -> Option<Vec<u8>> {
        Some(BTree::descriptor(self).to_vec())
    }
    fn open(_store: &PageStore, desc: &[u8]) -> Res<Self> {
        ok(BTree::open(desc))
    }
    fn page_ids(&self, store: &PageStore) -> Res<Vec<PageId>> {
        ok(BTree::page_ids(self, store))
    }
}

macro_rules! dynamic {
    ($($S:ident: $query:ident);* $(;)?) => {$(
        impl Structure for $S {
            fn build(store: &PageStore, records: &[Point]) -> Res<Self> {
                ok($S::build(store, records))
            }
            fn answer(&self, store: &PageStore, q: &Query) -> Res<Vec<Point>> {
                ok(self.query(store, $query(q)))
            }
            fn len(&self) -> u64 {
                $S::len(self)
            }
            fn update(&mut self, store: &PageStore, op: &Op) -> Res<()> {
                match *op {
                    Op::Insert(p) => ok(self.insert(store, p)),
                    Op::Delete(p) => ok(self.delete(store, p)),
                    _ => Ok(()),
                }
            }
            fn descriptor(&self) -> Option<Vec<u8>> {
                Some($S::descriptor(self).to_vec())
            }
            fn open(store: &PageStore, desc: &[u8]) -> Res<Self> {
                ok($S::open(store, desc))
            }
            fn page_ids(&self, store: &PageStore) -> Res<Vec<PageId>> {
                ok($S::page_ids(self, store))
            }
        }
    )*};
}

dynamic!(DynamicPst: two; DynamicThreeSidedPst: three);

/// A structure over its own store, driven directly.
pub struct InProcess<S> {
    pub store: Arc<PageStore>,
    pub s: S,
}

impl<S: Structure> InProcess<S> {
    pub fn build(page_size: usize, records: &[Point]) -> Res<InProcess<S>> {
        let store = Arc::new(PageStore::in_memory(page_size));
        let s = S::build(&store, records)?;
        Ok(InProcess { store, s })
    }
}

impl<S: Structure> Subject for InProcess<S> {
    fn update(&mut self, op: &Op) -> Res<()> {
        match op {
            Op::Reopen => {
                if let Some(desc) = self.s.descriptor() {
                    self.s = S::open(&self.store, &desc)?;
                }
                Ok(())
            }
            _ => self.s.update(&self.store, op),
        }
    }
    fn answer(&mut self, q: &Query) -> Res<Vec<Point>> {
        self.s.answer(&self.store, q)
    }
    fn len(&mut self) -> Option<u64> {
        Some(self.s.len())
    }
}
