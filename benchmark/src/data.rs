//! Everything generated from `--seed`: the data sets, the query mix, the
//! writer's update stream, and the brute-force oracle that answers are
//! checked against. The server only ever sees the generated ops.

use pc_pagestore::{Interval, Point};
use pc_rng::Rng;
use pc_serve::wire::{Body, Op};
use pc_workloads::{
    gen_intervals, gen_points, gen_range_1d, gen_stabbing, gen_temporal, gen_three_sided,
    gen_two_sided, IntervalDist, PointDist, RawPoint, TemporalOp,
};

use crate::spec::{Sizes, Workload, T_BTREE, T_DYN, T_ITREE, T_PST3};

/// The records the structures are built over.
pub struct Dataset {
    pub raw_points: Vec<RawPoint>,
    pub points: Vec<Point>,
    pub intervals: Vec<Interval>,
    /// Sorted, distinct keys; the value is the key's rank.
    pub keys: Vec<(i64, u64)>,
}

/// One query of the mix: the wire target it addresses and the op.
#[derive(Debug, Clone)]
pub struct Query {
    pub target: u16,
    pub op: Op,
}

/// Order-independent summary of an answer: how many records, and the xor
/// of their ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub count: u64,
    pub xor: u64,
}

impl Digest {
    pub fn of_ids(ids: impl Iterator<Item = u64>) -> Digest {
        ids.fold(Digest::default(), |d, id| Digest { count: d.count + 1, xor: d.xor ^ id })
    }
}

fn sub_seed(seed: u64, stream: u64) -> u64 {
    pc_rng::mix64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

pub fn gen_dataset(w: Workload, sizes: &Sizes, seed: u64) -> Dataset {
    let raw_points = gen_points(sizes.points, PointDist::Uniform, sub_seed(seed, 1));
    let points = raw_points.iter().map(|&(x, y, id)| Point::new(x, y, id)).collect();
    if w == Workload::MixedDurable {
        return Dataset { raw_points, points, intervals: Vec::new(), keys: Vec::new() };
    }
    // Mean length 16 * DOMAIN / count, so a stab meets ~16 intervals at
    // either size.
    let max_len = 32 * pc_workloads::DOMAIN / sizes.intervals.max(1) as i64;
    let intervals =
        gen_intervals(sizes.intervals, IntervalDist::UniformLen { max_len }, sub_seed(seed, 2))
            .iter()
            .map(|&(lo, hi, id)| Interval::new(lo, hi, id))
            .collect();
    let mut rng = Rng::seed_from_u64(sub_seed(seed, 3));
    let keys = (0..sizes.points as u64)
        .map(|i| (i as i64 * 1000 + rng.gen_range(0..1000i64), i))
        .collect();
    Dataset { raw_points, points, intervals, keys }
}

/// The workload's query mix, `sizes.prefix_for(w)` long, in a seeded order.
pub fn gen_queries(w: Workload, sizes: &Sizes, data: &Dataset, seed: u64) -> Vec<Query> {
    let t = w.target_t();
    let mix = w.mix();
    let count = sizes.prefix_for(w);
    let share = |i: usize| count * mix[i] / 100;
    // Rounding leftovers go to the first kind.
    let two = count - share(1) - share(2) - share(3);
    let mut out: Vec<Query> = Vec::with_capacity(count);
    out.extend(
        gen_two_sided(&data.raw_points, two, t, sub_seed(seed, 10))
            .iter()
            .map(|q| Query { target: T_DYN, op: Op::TwoSided { x0: q.x0, y0: q.y0 } }),
    );
    if share(1) > 0 {
        let qs = gen_three_sided(&data.raw_points, share(1), t, sub_seed(seed, 11));
        out.extend(qs.iter().map(|q| Query {
            target: T_PST3,
            op: Op::ThreeSided { x1: q.x1, x2: q.x2, y0: q.y0 },
        }));
    }
    if share(2) > 0 {
        let raw: Vec<_> = data.intervals.iter().map(|i| (i.lo, i.hi, i.id)).collect();
        let qs = gen_stabbing(&raw, share(2), sub_seed(seed, 12));
        out.extend(qs.iter().map(|q| Query { target: T_ITREE, op: Op::Stab { q: q.q } }));
    }
    if share(3) > 0 {
        let keys: Vec<i64> = data.keys.iter().map(|k| k.0).collect();
        let qs = gen_range_1d(&keys, share(3), t, sub_seed(seed, 13));
        out.extend(
            qs.iter().map(|q| Query { target: T_BTREE, op: Op::Range1d { lo: q.lo, hi: q.hi } }),
        );
    }
    Rng::seed_from_u64(sub_seed(seed, 14)).shuffle(&mut out);
    out
}

/// The writer's sliding-window insert/delete stream. Ids start above the
/// base points' ids, and every delete names a point the stream inserted
/// itself, so base points are never removed.
pub fn gen_updates(sizes: &Sizes, seed: u64) -> Vec<Op> {
    gen_temporal(
        sizes.stream_steps,
        sizes.window,
        PointDist::Uniform,
        sizes.points as u64,
        sub_seed(seed, 20),
    )
    .into_iter()
    .map(|op| match op {
        TemporalOp::Insert((x, y, id)) => Op::Insert(Point::new(x, y, id)),
        TemporalOp::Expire((x, y, id)) => Op::Delete(Point::new(x, y, id)),
    })
    .collect()
}

/// True if `p` belongs in the answer of a point query.
pub fn point_matches(op: &Op, p: &Point) -> bool {
    match op {
        Op::TwoSided { x0, y0 } => p.x >= *x0 && p.y >= *y0,
        Op::ThreeSided { x1, x2, y0 } => *x1 <= p.x && p.x <= *x2 && p.y >= *y0,
        _ => false,
    }
}

/// What a checked reply body contained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checked {
    /// Digest of the records from the base data set. Stream points (the
    /// writer's inserts) come and go while the reader runs, so they are
    /// checked one by one but kept out of the digest.
    pub base: Digest,
    /// Records in the body, stream points included.
    pub records: u64,
}

/// Checks reply bodies: every record must satisfy the query's predicate,
/// and a record with an id at or above `base_ids` must be exactly the
/// point the writer's stream inserted under that id.
pub struct Checker<'a> {
    pub base_ids: u64,
    pub stream: &'a [Point],
}

impl Checker<'_> {
    /// A checker for workloads without a writer.
    pub const STATIC: Checker<'static> = Checker { base_ids: u64::MAX, stream: &[] };

    /// `None` for a wrong-shaped body or a record that does not belong.
    pub fn check(&self, op: &Op, body: &Body) -> Option<Checked> {
        // Each record as `Some(id)` if it belongs in the answer.
        let checked = |ids: &mut dyn Iterator<Item = Option<u64>>| {
            let mut out = Checked { base: Digest::default(), records: 0 };
            for id in ids {
                let id = id?;
                out.records += 1;
                if id < self.base_ids {
                    out.base = Digest { count: out.base.count + 1, xor: out.base.xor ^ id };
                }
            }
            Some(out)
        };
        match (op, body) {
            (Op::TwoSided { .. } | Op::ThreeSided { .. }, Body::Points(ps)) => {
                let known = |p: &Point| {
                    p.id < self.base_ids
                        || self.stream.get((p.id - self.base_ids) as usize) == Some(p)
                };
                checked(&mut ps.iter().map(|p| (point_matches(op, p) && known(p)).then_some(p.id)))
            }
            (Op::Stab { q }, Body::Intervals(ivs)) => {
                checked(&mut ivs.iter().map(|i| i.contains(*q).then_some(i.id)))
            }
            (Op::Range1d { lo, hi }, Body::Keys(kvs)) => {
                checked(&mut kvs.iter().map(|(k, v)| (lo <= k && k <= hi).then_some(*v)))
            }
            _ => None,
        }
    }
}

/// The answer recomputed by brute force over the generated data.
pub fn brute_force(data: &Dataset, op: &Op) -> Digest {
    match op {
        Op::TwoSided { .. } | Op::ThreeSided { .. } => {
            Digest::of_ids(data.points.iter().filter(|p| point_matches(op, p)).map(|p| p.id))
        }
        Op::Stab { q } => {
            Digest::of_ids(data.intervals.iter().filter(|i| i.contains(*q)).map(|i| i.id))
        }
        Op::Range1d { lo, hi } => {
            let from = data.keys.partition_point(|(k, _)| k < lo);
            Digest::of_ids(data.keys[from..].iter().take_while(|(k, _)| k <= hi).map(|kv| kv.1))
        }
        _ => Digest::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_the_mix_is_respected() {
        let sizes = Sizes::SMOKE;
        let w = Workload::PointWarm;
        let data = gen_dataset(w, &sizes, 11);
        let a = gen_queries(w, &sizes, &data, 11);
        let b = gen_queries(w, &sizes, &gen_dataset(w, &sizes, 11), 11);
        assert_eq!(a.len(), sizes.prefix);
        assert!(a.iter().zip(&b).all(|(x, y)| x.target == y.target && x.op == y.op));
        let c = gen_queries(w, &sizes, &gen_dataset(w, &sizes, 12), 12);
        assert!(a.iter().zip(&c).any(|(x, y)| x.op != y.op));
        for (target, pct) in [(T_DYN, 40), (T_PST3, 30), (T_ITREE, 20), (T_BTREE, 10)] {
            assert_eq!(a.iter().filter(|q| q.target == target).count(), sizes.prefix * pct / 100);
        }
        assert!(data.keys.windows(2).all(|p| p[0].0 < p[1].0));
    }

    #[test]
    fn digests_catch_wrong_and_foreign_records() {
        let op = Op::TwoSided { x0: 5, y0: 5 };
        let inside = Point::new(6, 7, 1);
        let outside = Point::new(4, 9, 2);
        let check = |body| Checker::STATIC.check(&op, &body);
        assert_eq!(
            check(Body::Points(vec![inside])),
            Some(Checked { base: Digest { count: 1, xor: 1 }, records: 1 })
        );
        assert_eq!(check(Body::Points(vec![inside, outside])), None);
        assert_eq!(check(Body::Pong), None);
        // With a writer: stream points must be the ones the stream made.
        let stream = [Point::new(8, 8, 100)];
        let live = Checker { base_ids: 100, stream: &stream };
        assert_eq!(
            live.check(&op, &Body::Points(vec![inside, stream[0]])),
            Some(Checked { base: Digest { count: 1, xor: 1 }, records: 2 })
        );
        assert_eq!(live.check(&op, &Body::Points(vec![Point::new(9, 9, 100)])), None);
        assert_eq!(live.check(&op, &Body::Points(vec![Point::new(9, 9, 101)])), None);
    }

    #[test]
    fn stream_only_deletes_what_it_inserted() {
        let sizes = Sizes::SMOKE;
        let ops = gen_updates(&sizes, 3);
        let mut live = std::collections::HashSet::new();
        for op in &ops {
            match op {
                Op::Insert(p) => assert!(p.id >= sizes.points as u64 && live.insert(p.id)),
                Op::Delete(p) => assert!(live.remove(&p.id)),
                _ => unreachable!(),
            }
        }
        assert_eq!(live.len(), sizes.window);
    }
}
