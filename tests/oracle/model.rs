//! The reference model: the live records, answering every query shape as a
//! canonical multiset — sorted by `(x, y, id)`, duplicates kept.

use std::collections::BTreeMap;

use pc_pagestore::Point;

use crate::gen::{Case, Op, Query};

#[derive(Clone)]
pub struct Model {
    live: BTreeMap<u64, Point>,
}

impl Model {
    pub fn new(build: &[Point]) -> Model {
        Model { live: build.iter().map(|p| (p.id, *p)).collect() }
    }

    /// The model after the build and the first `updates` updates of `case`:
    /// what an epoch, or a recovered commit, answers.
    pub fn after(case: &Case, updates: usize) -> Model {
        let mut model = Model::new(&case.build);
        case.updates().take(updates).for_each(|op| model.update(op));
        model
    }

    pub fn update(&mut self, op: &Op) {
        match *op {
            Op::Insert(p) => {
                assert!(self.live.insert(p.id, p).is_none(), "the generator reused {p:?}")
            }
            Op::Delete(p) => {
                assert_eq!(self.live.remove(&p.id), Some(p), "the generator deleted a dead record")
            }
            Op::Query(_) | Op::Reopen => {}
        }
    }

    pub fn len(&self) -> u64 {
        self.live.len() as u64
    }

    /// The live records.
    pub fn records(&self) -> Vec<Point> {
        self.live.values().copied().collect()
    }

    pub fn answer(&self, q: &Query) -> Vec<Point> {
        canonical(self.live.values().filter(|p| holds(q, p)).copied().collect())
    }
}

/// Whether record `p` answers `q`.
pub fn holds(q: &Query, p: &Point) -> bool {
    match *q {
        Query::Two(q) => q.contains(p),
        Query::Three(q) => q.contains(p),
        Query::Stab(q) => p.x <= q && q <= p.y,
        Query::Range(lo, hi) => lo <= p.x && p.x <= hi,
    }
}

/// `records` in the one order answers are compared in.
pub fn canonical(mut records: Vec<Point>) -> Vec<Point> {
    records.sort_unstable_by_key(|p| (p.x, p.y, p.id));
    records
}
