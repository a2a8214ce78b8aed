//! The generator: one seeded op sequence — a build set, then inserts,
//! deletes, queries and reopens — for every structure and every path.
//!
//! Coordinates come half from a tie-heavy pool (a few values a case, so
//! that splits, block boundaries and query bounds land on shared
//! coordinates) and half from the whole field range, every magnitude and
//! both signs. Two build records sit on the extremes of every field, so a
//! build of two or more is stored at exactly the case's frame — `i64::MIN`,
//! `i64::MAX` and `u64::MAX` themselves at `Frame::WIDE`. A dynamic
//! sequence may widen its frame partway through.

use std::collections::HashSet;
use std::fmt;

use pc_pagestore::{Frame, Point};
use pc_pst::{ThreeSided, TwoSided};
use pc_rng::Rng;

/// What a structure stores and answers. Every record is a [`Point`]: an
/// interval is `[x, y]`, a B-tree entry the key `x` with the value `id`
/// (and `y = 0`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Points under 2-sided queries.
    TwoSided,
    /// Points under 3-sided queries.
    ThreeSided,
    /// Intervals under stabbing queries.
    Stab,
    /// Keys, unique among live entries, under 1-d ranges.
    Range,
}

/// One query of any shape.
#[derive(Clone, Copy, Debug)]
pub enum Query {
    Two(TwoSided),
    Three(ThreeSided),
    Stab(i64),
    Range(i64, i64),
}

/// One step of a sequence. Deletes name a live record; inserts a fresh id.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    Insert(Point),
    Delete(Point),
    Query(Query),
    /// Reopen the structure from its descriptor (a no-op where it has none).
    Reopen,
}

/// What to generate.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub shape: Shape,
    /// The build set's frame; `Frame::WIDE` for a structure that has none.
    pub frame: Frame,
    /// Build sets run up to this many records.
    pub records: usize,
    /// Inserts and deletes in the sequence; 0 for a static structure.
    pub updates: usize,
    pub queries: usize,
}

/// A build set and the ops that follow it.
#[derive(Clone)]
pub struct Case {
    pub shape: Shape,
    pub build: Vec<Point>,
    pub ops: Vec<Op>,
}

impl Case {
    /// The inserts and deletes, in order.
    pub fn updates(&self) -> impl Iterator<Item = &Op> {
        self.ops.iter().filter(|op| matches!(op, Op::Insert(_) | Op::Delete(_)))
    }

    /// The queries, in order.
    pub fn queries(&self) -> impl Iterator<Item = &Query> {
        self.ops.iter().filter_map(|op| match op {
            Op::Query(q) => Some(q),
            _ => None,
        })
    }
}

/// A summary: the failure message names the op, and the seed rebuilds all.
impl fmt::Debug for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let frame = Frame::of(&self.build);
        let (n, ops, updates) = (self.build.len(), self.ops.len(), self.updates().count());
        write!(f, "{:?} case: {n} records at {frame}, {ops} ops ({updates} updates)", self.shape)
    }
}

/// The query whose answer is every live record.
pub fn everything(shape: Shape) -> Query {
    match shape {
        Shape::TwoSided => Query::Two(TwoSided { x0: i64::MIN, y0: i64::MIN }),
        Shape::ThreeSided => Query::Three(ThreeSided { x1: i64::MIN, x2: i64::MAX, y0: i64::MIN }),
        // No one point stabs every interval: the end of `i64` is the edge case.
        Shape::Stab => Query::Stab(i64::MIN),
        Shape::Range => Query::Range(i64::MIN, i64::MAX),
    }
}

/// The smallest and the largest value of a signed field `width` bytes wide.
pub fn signed_range(width: u8) -> (i64, i64) {
    (i64::MIN >> (64 - 8 * width), i64::MAX >> (64 - 8 * width))
}

/// The largest id `width` bytes hold.
fn max_id(width: u8) -> u64 {
    u64::MAX >> (64 - 8 * width)
}

/// Generates one case of `spec`.
pub fn case(rng: &mut Rng, spec: &Spec) -> Case {
    let mut g = Gen::new(rng, spec);
    let build = g.build();
    let ops = g.ops(&build);
    Case { shape: spec.shape, build, ops }
}

struct Gen<'a> {
    rng: &'a mut Rng,
    spec: Spec,
    /// The tie-heavy values of each coordinate.
    pools: [Vec<i64>; 2],
    ids: HashSet<u64>,
    /// How many fresh ids the id width leaves room for.
    id_budget: usize,
    /// Live keys (the `Range` shape keeps them unique).
    keys: HashSet<i64>,
    /// The centre a case of nested intervals shares — one `Stab` case in
    /// four is such a tower.
    tower: Option<i64>,
}

impl<'a> Gen<'a> {
    fn new(rng: &'a mut Rng, spec: &Spec) -> Gen<'a> {
        let [a, b, id] = spec.frame.widths();
        let mut pool = |width| {
            let n = rng.gen_range(1..=8usize);
            (0..n).map(|_| full(rng, width)).collect()
        };
        let pools: [Vec<i64>; 2] = [pool(a), pool(b)];
        let tower =
            (spec.shape == Shape::Stab && rng.gen_range(0..4u64) == 0).then_some(pools[0][0]);
        let id_budget = usize::try_from(max_id(id) / 5 * 4).unwrap_or(usize::MAX);
        let (ids, keys) = (HashSet::new(), HashSet::new());
        Gen { rng, spec: *spec, pools, ids, id_budget, keys, tower }
    }

    fn coord(&mut self, axis: usize) -> i64 {
        if self.rng.gen_bool(0.5) {
            *self.rng.choose(&self.pools[axis]).expect("a pool has a value")
        } else {
            full(self.rng, self.spec.frame.widths()[axis])
        }
    }

    /// A fresh id the frame holds, or `None` once the width is used up.
    fn fresh_id(&mut self) -> Option<u64> {
        if self.ids.len() >= self.id_budget {
            return None;
        }
        let max = max_id(self.spec.frame.widths()[2]);
        loop {
            let id = self.rng.gen_range(0..=max);
            if self.ids.insert(id) {
                return Some(id);
            }
        }
    }

    /// A fresh record the frame holds, or `None` when no id or key is left.
    fn record(&mut self) -> Option<Point> {
        let (x, y) = match (self.spec.shape, self.tower) {
            (Shape::Range, _) => (self.fresh_key()?, 0),
            (_, Some(centre)) => {
                let reach = self.coord(0).unsigned_abs().min(i64::MAX as u64) as i64;
                let [a, b, _] = self.spec.frame.widths();
                let lo = centre.saturating_sub(reach).max(signed_range(a).0);
                (lo, centre.saturating_add(reach).min(signed_range(b).1))
            }
            _ => (self.coord(0), self.coord(1)),
        };
        let id = self.fresh_id()?;
        Some(self.shaped(x, y, id))
    }

    /// A key no live entry has, if sixteen draws find one.
    fn fresh_key(&mut self) -> Option<i64> {
        for _ in 0..16 {
            let key = self.coord(0);
            if !self.keys.contains(&key) {
                return Some(key);
            }
        }
        None
    }

    /// The record of shape `shape` drawn as `(x, y, id)`.
    fn shaped(&mut self, x: i64, y: i64, id: u64) -> Point {
        match self.spec.shape {
            Shape::TwoSided | Shape::ThreeSided => Point::new(x, y, id),
            // `x` fits the first width, at most the second: so does `max`.
            Shape::Stab => Point::new(x, x.max(y), id),
            Shape::Range => {
                self.keys.insert(x);
                Point::new(x, 0, id)
            }
        }
    }

    fn build(&mut self) -> Vec<Point> {
        let most = self.spec.records.min(self.id_budget / 2);
        let n = match self.rng.gen_range(0..8u64) {
            0 => self.rng.gen_range(0..=most.min(4)),
            _ => self.rng.gen_range(most / 4..=most),
        };
        let [a, b, id] = self.spec.frame.widths();
        let ((x_lo, x_hi), (y_lo, y_hi)) = (signed_range(a), signed_range(b));
        let mut build = Vec::with_capacity(n);
        if n >= 2 {
            self.ids.extend([max_id(id), 0]);
            build.push(self.shaped(x_lo, y_hi, max_id(id)));
            build.push(self.shaped(x_hi, y_lo, 0));
        }
        while build.len() < n {
            match self.record() {
                Some(p) => build.push(p),
                None => break,
            }
        }
        if build.len() >= 2 && self.spec.shape != Shape::Range {
            assert_eq!(Frame::of(&build), self.spec.frame, "the build set sits at the frame");
        }
        self.rng.shuffle(&mut build);
        build
    }

    fn ops(&mut self, build: &[Point]) -> Vec<Op> {
        let Spec { shape, updates, queries, frame, .. } = self.spec;
        let mut live = build.to_vec();
        let mut ops = vec![Op::Query(everything(shape))];
        let widen_at = (updates > 0 && frame != Frame::WIDE && self.rng.gen_bool(0.5))
            .then(|| self.rng.gen_range(0..updates));
        let (mut updates_left, mut queries_left) = (updates, queries);
        while updates_left + queries_left > 0 {
            let total = (updates_left + queries_left) as u64;
            if self.rng.gen_range(0..total) < queries_left as u64 {
                queries_left -= 1;
                ops.push(Op::Query(self.query(&live)));
                continue;
            }
            updates_left -= 1;
            if self.rng.gen_range(0..64u64) == 0 {
                ops.push(Op::Reopen);
            }
            let insert = live.is_empty() || self.rng.gen_bool(0.55);
            let fresh = match (insert, widen_at == Some(updates_left)) {
                (false, _) => None,
                (true, false) => self.record(),
                (true, true) => self.wide_record(),
            };
            match fresh {
                Some(p) => {
                    live.push(p);
                    ops.push(Op::Insert(p));
                }
                None if !live.is_empty() => {
                    let victim = live.swap_remove(self.rng.gen_range(0..live.len()));
                    self.keys.remove(&victim.x);
                    ops.push(Op::Delete(victim));
                }
                None => {}
            }
        }
        ops.push(Op::Query(everything(shape)));
        ops
    }

    /// A record the frame does not hold: one field at the end of `i64` or
    /// an id of eight bytes — for a B-tree entry, the key or the value.
    fn wide_record(&mut self) -> Option<Point> {
        let p = self.record()?;
        let range = self.spec.shape == Shape::Range;
        match self.rng.gen_range(0..3u64) {
            0 => {
                let x = [i64::MIN, i64::MAX][self.rng.gen_range(0..2usize)];
                // A key stays unique among the live ones.
                let fresh = !range || (self.keys.remove(&p.x) && self.keys.insert(x));
                fresh.then_some(Point { x, ..p })
            }
            1 if !range => {
                let y = [i64::MIN, i64::MAX][self.rng.gen_range(0..2usize)];
                Some(Point { y, ..p })
            }
            _ => {
                let id = u64::MAX - self.rng.gen_range(0..1024u64);
                self.ids.insert(id).then_some(Point { id, ..p })
            }
        }
    }

    /// A coordinate pair to aim a query at: a live record's, a fresh one,
    /// or the corner of `i64`.
    fn aim(&mut self, live: &[Point]) -> (i64, i64) {
        match (self.rng.gen_range(0..8u64), self.rng.choose(live)) {
            (0, _) => {
                let end = |rng: &mut Rng| [i64::MIN, i64::MAX][rng.gen_range(0..2usize)];
                (end(self.rng), end(self.rng))
            }
            (1 | 2, _) | (_, None) => (self.coord(0), self.coord(1)),
            (_, Some(p)) => (p.x, p.y),
        }
    }

    /// `v`, or one off it.
    fn nudge(&mut self, v: i64) -> i64 {
        v.saturating_add(self.rng.gen_range(-1..=1i64))
    }

    fn query(&mut self, live: &[Point]) -> Query {
        let (x, y) = self.aim(live);
        let (x, y) = (self.nudge(x), self.nudge(y));
        match self.spec.shape {
            Shape::TwoSided => Query::Two(TwoSided { x0: x, y0: y }),
            Shape::ThreeSided => {
                let other = match self.rng.gen_range(0..8u64) {
                    0 => i64::MAX,
                    _ => self.aim(live).0,
                };
                let other = self.nudge(other);
                let (x1, x2) = self.ordered(x, other);
                Query::Three(ThreeSided { x1, x2, y0: y })
            }
            Shape::Stab => Query::Stab(if self.rng.gen_bool(0.5) { x } else { y }),
            Shape::Range => {
                let other = self.aim(live).0;
                let other = self.nudge(other);
                let (lo, hi) = self.ordered(x, other);
                Query::Range(lo, hi)
            }
        }
    }

    /// `(a, b)` in order, or — one time in sixteen — out of it.
    fn ordered(&mut self, a: i64, b: i64) -> (i64, i64) {
        let (lo, hi) = (a.min(b), a.max(b));
        match self.rng.gen_range(0..16u64) {
            0 => (hi, lo),
            _ => (lo, hi),
        }
    }
}

/// A value anywhere in a signed field `width` bytes wide: every magnitude,
/// either sign.
fn full(rng: &mut Rng, width: u8) -> i64 {
    let (lo, hi) = signed_range(rng.gen_range(1..=u64::from(width)) as u8);
    rng.gen_range(lo..=hi)
}
