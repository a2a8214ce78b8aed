//! Every engine that stores records at a [`Frame`], against brute force,
//! over the geometry the frame adds to the page size: pages of 512 B to
//! 4 KiB × data whose narrowest frame is 1/1/1, 3/3/3, the mixed 2/5/8 and
//! [`Frame::WIDE`] — negative coordinates throughout, and `i64::MIN`,
//! `i64::MAX` and `u64::MAX` themselves in the wide data. `B` runs from 20
//! (512 B, wide) to 1 021 (4 KiB, 1/1/1), regions from three blocks to
//! seven. The dynamic structures answer with updates applied, flushed and
//! still buffered; the last test widens one, twice.

use std::collections::BTreeMap;

use path_caching::{Frame, Interval, PageStore, Point, ThreeSided, TwoSided};
use pc_intervaltree::ExternalIntervalTree;
use pc_pst::{DynamicPst, DynamicThreeSidedPst, MultilevelPst, ThreeSidedPst, TwoLevelPst};
use pc_rng::Rng;

const PAGES: [usize; 4] = [512, 1024, 2048, 4096];
const FRAMES: [Frame; 4] =
    [Frame::new(1, 1, 1), Frame::new(3, 3, 3), Frame::new(2, 5, 8), Frame::WIDE];

/// The smallest and the largest value of a signed field `width` bytes wide.
fn signed_range(width: u8) -> (i64, i64) {
    (i64::MIN >> (64 - 8 * width), i64::MAX >> (64 - 8 * width))
}

/// A value anywhere in the range of a signed field `width` bytes wide, of
/// either sign and of every magnitude.
fn gen_signed(rng: &mut Rng, width: u8) -> i64 {
    let (lo, hi) = signed_range(rng.gen_range(1..=u64::from(width)) as u8);
    rng.gen_range(lo..=hi)
}

/// `n` points (fewer where one id byte cannot tell that many apart) with
/// distinct ids whose narrowest frame is exactly `frame`: two of them sit
/// on the extremes of every field.
fn gen_points(rng: &mut Rng, frame: Frame, n: usize) -> Vec<Point> {
    let [a, b, id] = frame.widths();
    let max_id = u64::MAX >> (64 - 8 * id);
    let n = if id == 1 { n.min(200) } else { n };
    let ((x_lo, x_hi), (y_lo, y_hi)) = (signed_range(a), signed_range(b));
    let mut points = vec![Point::new(x_lo, y_hi, max_id), Point::new(x_hi, y_lo, 0)];
    // Ids spread over the whole field, ascending so that they stay distinct.
    let step = (max_id / n as u64).max(1);
    points.extend((1..n as u64 - 1).map(|i| {
        Point::new(gen_signed(rng, a), gen_signed(rng, b), i * step + rng.gen_range(0..step))
    }));
    assert_eq!(Frame::of(&points), frame);
    points
}

fn sorted(mut points: Vec<Point>) -> Vec<Point> {
    points.sort_unstable_by_key(|p| (p.x, p.y, p.id));
    points
}

/// Corners and bands through data points, off by one from them, and at the
/// ends of `i64`.
fn queries(rng: &mut Rng, points: &[Point]) -> Vec<ThreeSided> {
    let mut out = vec![
        ThreeSided { x1: i64::MIN, x2: i64::MAX, y0: i64::MIN },
        ThreeSided { x1: i64::MAX, x2: i64::MAX, y0: i64::MAX },
        ThreeSided { x1: i64::MIN, x2: i64::MIN, y0: i64::MIN },
    ];
    for _ in 0..40 {
        let (p, q, r) = (rng.choose(points), rng.choose(points), rng.choose(points));
        let (p, q, r) = (p.unwrap(), q.unwrap(), r.unwrap());
        let nudge = rng.gen_range(-1..=1i64);
        out.push(ThreeSided {
            x1: p.x.min(q.x).saturating_add(nudge),
            x2: p.x.max(q.x),
            y0: r.y.saturating_sub(nudge),
        });
    }
    out
}

fn check_two_sided(
    what: &str,
    live: &[Point],
    queries: &[ThreeSided],
    answer: impl Fn(TwoSided) -> Vec<Point>,
) {
    for q in queries.iter().map(|q| TwoSided { x0: q.x1, y0: q.y0 }) {
        let want = sorted(live.iter().copied().filter(|p| q.contains(p)).collect());
        assert_eq!(sorted(answer(q)), want, "{what}: {q:?}");
    }
}

fn check_three_sided(
    what: &str,
    live: &[Point],
    queries: &[ThreeSided],
    answer: impl Fn(ThreeSided) -> Vec<Point>,
) {
    for &q in queries {
        let want = sorted(live.iter().copied().filter(|p| q.contains(p)).collect());
        assert_eq!(sorted(answer(q)), want, "{what}: {q:?}");
    }
}

/// Applies a seeded third of inserts (points held back from the build) and
/// deletes to `live` and, through `apply`, to a structure: `(point, is a
/// delete)` in order.
fn churn(
    rng: &mut Rng,
    live: &mut Vec<Point>,
    held_back: Vec<Point>,
    mut apply: impl FnMut(Point, bool),
) {
    for p in held_back {
        apply(p, false);
        live.push(p);
        if rng.gen_bool(0.4) {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            apply(victim, true);
        }
    }
}

#[test]
fn point_engines_match_brute_force_at_every_page_size_and_frame() {
    let mut rng = Rng::seed_from_u64(0xF4A3E);
    for (page_size, frame) in PAGES.into_iter().flat_map(|p| FRAMES.map(|f| (p, f))) {
        let what = format!("{page_size} B, {frame}");
        let points = gen_points(&mut rng, frame, 2_500);
        let queries = queries(&mut rng, &points);
        let store = PageStore::in_memory(page_size);

        let two_level = TwoLevelPst::build(&store, &points).unwrap();
        assert_eq!(two_level.frame(), frame, "{what}");
        check_two_sided(&what, &points, &queries, |q| two_level.query(&store, q).unwrap());
        let multilevel = MultilevelPst::build(&store, &points, 3).unwrap();
        check_two_sided(&what, &points, &queries, |q| multilevel.query(&store, q).unwrap());
        let three_sided = ThreeSidedPst::build(&store, &points).unwrap();
        check_three_sided(&what, &points, &queries, |q| three_sided.query(&store, q).unwrap());

        // The dynamic structures: built over two thirds — the extremes
        // among them, so at `frame` — then churned with the rest.
        let (built, held_back) = points.split_at(points.len() * 2 / 3);
        let mut dynamic = DynamicPst::build(&store, built).unwrap();
        let mut live = built.to_vec();
        churn(&mut rng, &mut live, held_back.to_vec(), |p, delete| match delete {
            true => dynamic.delete(&store, p).unwrap(),
            false => dynamic.insert(&store, p).unwrap(),
        });
        assert_eq!((dynamic.frame(), dynamic.len()), (frame, live.len() as u64), "{what}");
        let census = dynamic.page_census(&store).unwrap();
        assert!(census.buffers > 0, "{what}: no update buffer left to answer from: {census:?}");
        check_two_sided(&what, &live, &queries, |q| dynamic.query(&store, q).unwrap());
        let reopened = DynamicPst::open(&store, &dynamic.descriptor()).unwrap();
        assert_eq!(reopened.frame(), frame);
        check_two_sided(&what, &live, &queries, |q| reopened.query(&store, q).unwrap());

        let mut dynamic3 = DynamicThreeSidedPst::build(&store, built).unwrap();
        let mut live = built.to_vec();
        churn(&mut rng, &mut live, held_back.to_vec(), |p, delete| match delete {
            true => dynamic3.delete(&store, p).unwrap(),
            false => dynamic3.insert(&store, p).unwrap(),
        });
        assert_eq!(dynamic3.len(), live.len() as u64, "{what}");
        check_three_sided(&what, &live, &queries, |q| dynamic3.query(&store, q).unwrap());
    }
}

#[test]
fn the_interval_tree_matches_brute_force_at_every_page_size_and_frame() {
    let mut rng = Rng::seed_from_u64(0x1A7E5);
    for (page_size, frame) in PAGES.into_iter().flat_map(|p| FRAMES.map(|f| (p, f))) {
        // Points with x <= y are intervals; the extremes are [min, max] and,
        // swapped into order, [min of the wider field.., ..].
        let [a, b, _] = frame.widths();
        let intervals: Vec<Interval> = gen_points(&mut rng, frame, 2_500)
            .into_iter()
            .map(|p| match p.x <= p.y {
                true => Interval::new(p.x, p.y, p.id),
                // Out of order: keep `lo` and stretch to a `hi` of `b` bytes.
                false => Interval::new(p.x, p.x.max(signed_range(b).1 - (p.y & 0xFFFF)), p.id),
            })
            .collect();
        assert_eq!((a <= b, Frame::of(&intervals)), (true, frame));
        let store = PageStore::in_memory(page_size);
        let tree = ExternalIntervalTree::build(&store, &intervals).unwrap();
        assert_eq!(tree.frame(), frame);
        let mut stabs = vec![i64::MIN, i64::MAX, 0, -1];
        for iv in intervals.iter().step_by(41) {
            stabs.extend([iv.lo, iv.hi, iv.lo.saturating_sub(1), iv.hi.saturating_add(1)]);
            stabs.push(iv.lo / 2 + iv.hi / 2);
        }
        for q in stabs {
            let mut got = tree.stab(&store, q).unwrap();
            got.sort_unstable_by_key(|iv| iv.id);
            let mut want: Vec<Interval> =
                intervals.iter().copied().filter(|iv| iv.contains(q)).collect();
            want.sort_unstable_by_key(|iv| iv.id);
            assert_eq!(got, want, "{page_size} B, {frame}: stab at {q}");
        }
    }
}

/// A structure built at 3/3/3 takes an `x` of `i64::MAX`, then an id of
/// `u64::MAX`: each widens it — once — and it answers exactly before,
/// between and after, buffers and all; its descriptor carries the frame
/// through `open`; and the frame never narrows again.
#[test]
fn a_dynamic_pst_widens_for_a_coordinate_and_then_for_an_id() {
    let mut rng = Rng::seed_from_u64(0x71DE);
    for page_size in PAGES {
        let store = PageStore::in_memory(page_size);
        let points = gen_points(&mut rng, Frame::new(3, 3, 3), 3_000);
        let queries = {
            let mut q = queries(&mut rng, &points);
            q.push(ThreeSided { x1: i64::MAX, x2: i64::MAX, y0: i64::MIN });
            q
        };
        let mut pst = DynamicPst::build(&store, &points).unwrap();
        let mut live: BTreeMap<u64, Point> = points.iter().map(|p| (p.id, *p)).collect();
        let mut fresh_ids = (1u64..).filter(|id| !points.iter().any(|p| p.id == *id));
        let mut frames = vec![pst.frame()];
        let wide =
            [Point::new(i64::MAX, -5, fresh_ids.next().unwrap()), Point::new(-6, 6, u64::MAX)];
        for (round, wide) in wide.into_iter().enumerate() {
            // Updates the frame holds first, so that the widening meets
            // flushed regions and non-empty buffers.
            for _ in 0..150 {
                let p = Point::new(
                    gen_signed(&mut rng, 3),
                    gen_signed(&mut rng, 3),
                    fresh_ids.next().unwrap(),
                );
                pst.insert(&store, p).unwrap();
                live.insert(p.id, p);
                let victim = *live.values().nth(rng.gen_range(0..live.len())).unwrap();
                pst.delete(&store, victim).unwrap();
                live.remove(&victim.id);
            }
            let all: Vec<Point> = live.values().copied().collect();
            assert_eq!(pst.frame(), frames[round], "{page_size} B: held points widened");
            check_two_sided("before", &all, &queries, |q| pst.query(&store, q).unwrap());

            pst.insert(&store, wide).unwrap();
            live.insert(wide.id, wide);
            let all: Vec<Point> = live.values().copied().collect();
            frames.push(pst.frame());
            assert_eq!(pst.frame(), frames[round].union(Frame::of(&[wide])));
            check_two_sided("after", &all, &queries, |q| pst.query(&store, q).unwrap());
            let reopened = DynamicPst::open(&store, &pst.descriptor()).unwrap();
            assert_eq!((reopened.frame(), reopened.len()), (pst.frame(), live.len() as u64));
            check_two_sided("reopened", &all, &queries, |q| reopened.query(&store, q).unwrap());
        }
        assert_eq!(frames, [Frame::new(3, 3, 3), Frame::new(8, 3, 3), Frame::new(8, 3, 8)]);
        // The wide points gone again: the frame stays, and so do the answers.
        for p in wide {
            pst.delete(&store, p).unwrap();
            live.remove(&p.id);
        }
        let all: Vec<Point> = live.values().copied().collect();
        assert_eq!(pst.frame(), frames[2]);
        check_two_sided("narrow again", &all, &queries, |q| pst.query(&store, q).unwrap());
        // Every page is still owned: the census names what the store holds.
        assert_eq!(pst.page_census(&store).unwrap().total(), store.live_pages());
    }
}
