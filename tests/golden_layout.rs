//! A golden guard over the PST engines' layouts: pages, census, strict
//! reads, the *order* of every answer and the I/O of updates, as literals.
//!
//! `tests/layout_bounds.rs` pins constants and sums; nothing else pins the
//! order an engine reports its answers in or what an update reads and
//! writes. This file does, for every PST at two geometries — 4 KiB pages
//! over the generators' 20-bit data, and 512-byte pages over the same data
//! stretched over all 64 bits — so that a refactor of the engines either leaves
//! every row alone or shows exactly which one it moved. Per structure: the
//! store's live pages, the page census where the structure has one, and
//! over 200 fixed queries (100 at t ≈ 16, 100 at t ≈ 4096) the sum of the
//! strict store's reads and one order-sensitive hash of all answer vectors;
//! for the two dynamic structures the same again after 2 000 mixed updates,
//! with the strict reads and writes those updates cost. The interval tree
//! and both segment trees have the same row over 200 fixed stabs of one
//! interval set at each geometry: two populations side by side, one met
//! about 16 at a time and one about 4 096 at a time, 100 stabs in each.
//!
//! The rows were recorded at the commit before `crates/pst/src/region.rs`
//! existed; the 3-sided ones moved with PR 25's directories in skeletal
//! page tails, half runs and corner orders, and every row with the block
//! codec (each block at its own bit widths, fill judged in bytes); the
//! region trees' rows moved when a corner region came to answer from one
//! block of its X- or Y-list (reporting in that list's order) where the
//! block holds every candidate, on 25-record skeletal pages; the dynamic
//! region tree's churned rows at 4 KiB when the root page's `U` came to be
//! read only where the staircase in the page's tail met the corner (its
//! updates then rewrote the page where its staircase moved); the 512-byte
//! 3-sided rows when a lower skeletal page's root came to carry its entry
//! exit's A-entries in its route (the same answers, in another order), and
//! both churned dynamic rows' update reads when a page patch stopped reading
//! again the page its caller holds, and again when a push came to hand the
//! page and its `U` to the flush instead of reading both again (and reading
//! the `U` a flush just cleared). The 2-sided trees' pages (and the
//! multilevel tree's reads) fell when points blocks and the last block of
//! each basic-tree cache list came to ride in their skeletal pages' tails
//! where they fit. Both churned dynamic rows moved when the root's `U`
//! came to be held in the structure's descriptor rather than on a page:
//! that page, its reads and writes and the staircase's writes went, and no
//! answer moved. The 3-sided rows' pages (and the dynamic one's update
//! writes) fell when every list's last block and every spilled directory
//! came to share pack pages, first fit; the census counts blocks by class
//! and the pack pages apart, and no read or answer moved. The churned
//! dynamic 3-sided rows' writes, pages and reads fell when its root buffer
//! came to be held in its descriptor, as the 2-sided root's `U` is: its
//! buffer pages, their writes and a query's reads of them went, and no
//! answer moved. A row moves only
//! with the on-page layout, the traversal order or the update path — re-record it
//! (the failing assertion prints the computed table) in the PR that means
//! to move it, and say so there.

use path_caching::{PageStore, Point, ThreeSided, TwoSided};
use pc_bench::{two_sided_corners, Spread};
use pc_intervaltree::ExternalIntervalTree;
use pc_pagestore::Interval;
use pc_pst::{
    BasicPst, DynamicPst, DynamicThreeSidedPst, MultilevelPst, PageCensus, RegionCensus,
    SegmentedPst, ThreeSidedPst, TwoLevelPst,
};
use pc_rng::Rng;
use pc_segtree::{CachedSegmentTree, NaiveSegmentTree};
use pc_workloads::{
    gen_intervals, gen_points, gen_stabbing, gen_three_sided, IntervalDist, PointDist, RawInterval,
    RawPoint, DOMAIN,
};

/// Ids start here: 20-bit coordinates come with 17-bit ids and more.
const ID_BASE: u64 = 70_000;
const UPDATES: usize = 2_000;

struct Geometry {
    page_size: usize,
    n: usize,
    spread: Spread,
    /// Intervals of each of the two populations.
    intervals: usize,
}

const GEOMETRIES: [Geometry; 2] = [
    Geometry { page_size: 4096, n: 150_000, spread: Spread::Domain, intervals: 10_000 },
    Geometry { page_size: 512, n: 20_000, spread: Spread::Full, intervals: 5_000 },
];

/// The recorded rows, one line per structure and phase, per geometry.
const GOLDEN: [&str; 2] = [
    "\
4096 basic: pages=1575 reads=1315 answers=382952 hash=e89bae17b32246d1\n\
4096 segmented: pages=644 reads=1331 answers=382952 hash=fa63af5c9e536035\n\
4096 multilevel(3): pages=1655 reads=1389 answers=382952 hash=4670073a01813151\n\
4096 two-level: pages=1067 reads=1270 answers=382952 hash=7869dbbf693b9a35\n\
4096 two-level census: B=691 skeletal=7 x=228 y=217 a=49 s=39 inner: skeletal=31 points=217 caches=279; buffers=0\n\
4096 dynamic: pages=1067 reads=1270 answers=382952 hash=7869dbbf693b9a35\n\
4096 dynamic census: B=691 skeletal=7 x=228 y=217 a=49 s=39 inner: skeletal=31 points=217 caches=279; buffers=0\n\
4096 dynamic churned: update_reads=1992 update_writes=2802\n\
4096 dynamic churned: pages=1100 reads=1367 answers=384051 hash=b9110625d415be15\n\
4096 dynamic churned census: B=693 skeletal=7 x=230 y=217 a=49 s=39 inner: skeletal=31 points=217 caches=279; buffers=31\n\
4096 3-sided: pages=1386 reads=1284 answers=411214 hash=d7b92831334610eb\n\
4096 3-sided census: B=691 skeletal=1 y=217 a=957 s=366 directories=30 packed=51 of 236\n\
4096 dynamic 3-sided: pages=1386 reads=1284 answers=411214 hash=d7b92831334610eb\n\
4096 dynamic 3-sided churned: update_reads=5393 update_writes=8317\n\
4096 dynamic 3-sided churned: pages=1387 reads=1288 answers=412314 hash=e65a44a28f916929\n\
4096 interval tree: pages=188 reads=982 answers=337863 hash=451695569c27a934\n\
4096 cached segment tree: pages=3971 reads=1622 answers=337863 hash=cb8d7031bc381a2c\n\
4096 naive segment tree: pages=2664 reads=2597 answers=337863 hash=3060cdbfcab2e44c\n\
",
    "\
512 basic: pages=7770 reads=24430 answers=379220 hash=d86f4420bf5c0d29\n\
512 segmented: pages=2046 reads=24559 answers=379220 hash=97ce41894a9b5761\n\
512 multilevel(3): pages=3471 reads=19036 answers=379220 hash=442eab095836a115\n\
512 two-level: pages=3471 reads=19036 answers=379220 hash=442eab095836a115\n\
512 two-level census: B=26 skeletal=85 x=765 y=765 a=168 s=158 inner: skeletal=255 points=765 caches=510; buffers=0\n\
512 dynamic: pages=3471 reads=19036 answers=379220 hash=442eab095836a115\n\
512 dynamic census: B=26 skeletal=85 x=765 y=765 a=168 s=158 inner: skeletal=255 points=765 caches=510; buffers=0\n\
512 dynamic churned: update_reads=6583 update_writes=6181\n\
512 dynamic churned: pages=3655 reads=21936 answers=387670 hash=b448a1c77a670694\n\
512 dynamic churned census: B=27 skeletal=85 x=766 y=766 a=167 s=158 inner: skeletal=255 points=765 caches=510; buffers=183\n\
512 3-sided: pages=1887 reads=19993 answers=411203 hash=c901499d53b57b86\n\
512 3-sided census: B=26 skeletal=85 y=765 a=987 s=333 directories=210 packed=397 of 890\n\
512 dynamic 3-sided: pages=1887 reads=19993 answers=411203 hash=c901499d53b57b86\n\
512 dynamic 3-sided churned: update_reads=85563 update_writes=99922\n\
512 dynamic 3-sided churned: pages=1951 reads=20242 answers=420027 hash=465244eab4fc4bd1\n\
512 interval tree: pages=1583 reads=7926 answers=276846 hash=a33d61578b0c710b\n\
512 cached segment tree: pages=16996 reads=10481 answers=276846 hash=1a14ddcea07f6747\n\
512 naive segment tree: pages=12502 reads=11054 answers=276846 hash=a56fc0d64527bb07\n\
",
];

struct Data {
    raw: Vec<RawPoint>,
    points: Vec<Point>,
    two_sided: Vec<TwoSided>,
    three_sided: Vec<ThreeSided>,
    intervals: Vec<Interval>,
    stabs: Vec<i64>,
}

/// The interval set and its stabs: per output size `t`, `g.intervals`
/// uniform-length intervals meeting a stab about `t` at a time, squeezed
/// into their own half of the domain, and 100 stabs among them.
fn interval_data(g: &Geometry) -> (Vec<Interval>, Vec<i64>) {
    let (mut raw, mut stabs): (Vec<RawInterval>, Vec<i64>) = (Vec::new(), Vec::new());
    for (k, t) in [16, 4096].into_iter().enumerate() {
        let max_len = 2 * t * DOMAIN / g.intervals as i64;
        let dist = IntervalDist::UniformLen { max_len };
        let (offset, first) = (k as i64 * DOMAIN / 2, ID_BASE + (k * g.intervals) as u64);
        let half: Vec<RawInterval> = gen_intervals(g.intervals, dist, 0x1e7 + k as u64)
            .into_iter()
            .map(|(lo, hi, id)| (offset + lo / 2, offset + hi / 2, first + id))
            .collect();
        stabs.extend(gen_stabbing(&half, 100, 0x57ab + k as u64).iter().map(|s| s.q));
        raw.extend(half);
    }
    let stabs = stabs.into_iter().map(|q| g.spread.coord(q)).collect();
    (g.spread.intervals(&raw), stabs)
}

fn data(g: &Geometry) -> Data {
    let raw: Vec<RawPoint> = gen_points(g.n, PointDist::Uniform, 0x901d)
        .into_iter()
        .map(|(x, y, id)| (x, y, id + ID_BASE))
        .collect();
    let points = g.spread.points(&raw);
    // Two corners of every three: top-right ones and deep ones alike.
    let two_sided = [16, 4096]
        .into_iter()
        .flat_map(|t| {
            let corners = two_sided_corners(&raw, t).into_iter().enumerate();
            corners.filter(|(i, _)| i % 3 != 2).map(|(_, q)| g.spread.two_sided(q))
        })
        .collect();
    let three_sided = [16, 4096]
        .into_iter()
        .flat_map(|t| gen_three_sided(&raw, 100, t, 0xfeed))
        .map(|q| g.spread.three_sided(&q))
        .collect();
    let (intervals, stabs) = interval_data(g);
    Data { raw, points, two_sided, three_sided, intervals, stabs }
}

/// What an answer is hashed by: a record's three fields.
trait Fields {
    fn fields(&self) -> [u64; 3];
}

impl Fields for Point {
    fn fields(&self) -> [u64; 3] {
        [self.x as u64, self.y as u64, self.id]
    }
}

impl Fields for Interval {
    fn fields(&self) -> [u64; 3] {
        [self.lo as u64, self.hi as u64, self.id]
    }
}

/// FNV-1a over the answers in the order they came, lengths included.
struct OrderHash(u64);

impl OrderHash {
    fn new() -> OrderHash {
        OrderHash(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn answer<T: Fields>(&mut self, hits: &[T]) {
        self.word(hits.len() as u64);
        for hit in hits {
            hit.fields().into_iter().for_each(|v| self.word(v));
        }
    }
}

fn region_census(c: RegionCensus) -> String {
    format!(
        "B={} skeletal={} x={} y={} a={} s={} inner: skeletal={} points={} caches={}; buffers={}",
        c.block_capacity,
        c.skeletal,
        c.x_lists,
        c.y_lists,
        c.a_caches,
        c.s_caches,
        c.inner_skeletal,
        c.inner_points,
        c.inner_caches,
        c.buffers
    )
}

fn three_sided_census(c: PageCensus) -> String {
    format!(
        "B={} skeletal={} y={} a={} s={} directories={} packed={} of {}",
        c.block_capacity,
        c.skeletal,
        c.y_lists,
        c.a_lists,
        c.s_lists,
        c.directories,
        c.packed,
        c.packed_blocks
    )
}

/// `pages=… reads=… answers=… hash=…` of `queries` answered by `answer`
/// on `store`, which holds the one structure.
fn measured<Q: Copy, T: Fields>(
    store: &PageStore,
    queries: &[Q],
    answer: impl Fn(Q) -> Vec<T>,
) -> String {
    assert_eq!(queries.len(), 200);
    let pages = store.live_pages();
    let before = store.stats();
    let (mut hash, mut answers) = (OrderHash::new(), 0);
    for &q in queries {
        let hits = answer(q);
        answers += hits.len();
        hash.answer(&hits);
    }
    let reads = (store.stats() - before).logical_reads();
    format!("pages={pages} reads={reads} answers={answers} hash={:016x}", hash.0)
}

/// 2 000 updates, three inserts of a fresh point to two deletes of a live
/// one, applied through `apply(point, is a delete)`; fresh ids follow the
/// built ones. Returns the updates' strict reads and writes.
fn churn(g: &Geometry, store: &PageStore, d: &Data, mut apply: impl FnMut(Point, bool)) -> String {
    let mut rng = Rng::seed_from_u64(0xc4u64 + g.page_size as u64);
    let fresh: Vec<RawPoint> = gen_points(UPDATES, PointDist::Uniform, 0xf4e5)
        .into_iter()
        .map(|(x, y, id)| (x, y, id + ID_BASE + d.raw.len() as u64))
        .collect();
    let mut fresh = g.spread.points(&fresh).into_iter();
    let mut live = d.points.clone();
    let before = store.stats();
    for _ in 0..UPDATES {
        if rng.gen_range(0..5u64) < 3 {
            let p = fresh.next().expect("a fresh point per update");
            apply(p, false);
            live.push(p);
        } else {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            apply(victim, true);
        }
    }
    let cost = store.stats() - before;
    format!("update_reads={} update_writes={}", cost.logical_reads(), cost.writes)
}

fn rows(g: &Geometry) -> Vec<String> {
    let d = data(g);
    let mut rows = Vec::new();
    let mut row = |what: &str, line: String| rows.push(format!("{} {what}: {line}", g.page_size));

    macro_rules! two_sided {
        ($name:literal, $build:expr) => {{
            let store = PageStore::in_memory(g.page_size);
            let pst = $build(&store);
            row($name, measured(&store, &d.two_sided, |q| pst.query(&store, q).unwrap()));
            (store, pst)
        }};
    }
    two_sided!("basic", |s| BasicPst::build(s, &d.points).unwrap());
    two_sided!("segmented", |s| SegmentedPst::build(s, &d.points).unwrap());
    two_sided!("multilevel(3)", |s| MultilevelPst::build(s, &d.points, 3).unwrap());
    let (store, two_level) = two_sided!("two-level", |s| TwoLevelPst::build(s, &d.points).unwrap());
    row("two-level census", region_census(two_level.page_census(&store).unwrap()));

    let (store, mut dynamic) = two_sided!("dynamic", |s| DynamicPst::build(s, &d.points).unwrap());
    row("dynamic census", region_census(dynamic.page_census(&store).unwrap()));
    let cost = churn(g, &store, &d, |p, delete| {
        if delete {
            dynamic.delete(&store, p).unwrap()
        } else {
            dynamic.insert(&store, p).unwrap()
        }
    });
    row("dynamic churned", cost);
    row("dynamic churned", measured(&store, &d.two_sided, |q| dynamic.query(&store, q).unwrap()));
    row("dynamic churned census", region_census(dynamic.page_census(&store).unwrap()));

    let store = PageStore::in_memory(g.page_size);
    let three_sided = ThreeSidedPst::build(&store, &d.points).unwrap();
    row("3-sided", measured(&store, &d.three_sided, |q| three_sided.query(&store, q).unwrap()));
    row("3-sided census", three_sided_census(three_sided.page_census(&store).unwrap()));

    let store = PageStore::in_memory(g.page_size);
    let mut dynamic = DynamicThreeSidedPst::build(&store, &d.points).unwrap();
    let answer = |pst: &DynamicThreeSidedPst, q| pst.query(&store, q).unwrap();
    row("dynamic 3-sided", measured(&store, &d.three_sided, |q| answer(&dynamic, q)));
    let cost = churn(g, &store, &d, |p, delete| {
        if delete {
            dynamic.delete(&store, p).unwrap()
        } else {
            dynamic.insert(&store, p).unwrap()
        }
    });
    row("dynamic 3-sided churned", cost);
    row("dynamic 3-sided churned", measured(&store, &d.three_sided, |q| answer(&dynamic, q)));

    macro_rules! stabbing {
        ($name:literal, $tree:ty) => {{
            let store = PageStore::in_memory(g.page_size);
            let tree = <$tree>::build(&store, &d.intervals).unwrap();
            row($name, measured(&store, &d.stabs, |q| tree.stab(&store, q).unwrap()));
        }};
    }
    stabbing!("interval tree", ExternalIntervalTree);
    stabbing!("cached segment tree", CachedSegmentTree);
    stabbing!("naive segment tree", NaiveSegmentTree);
    rows
}

fn check(geometry: usize) {
    let computed = rows(&GEOMETRIES[geometry]);
    assert!(
        computed.iter().map(String::as_str).eq(GOLDEN[geometry].lines()),
        "the golden rows moved; computed:\n{}\n",
        computed.join("\n")
    );
}

#[test]
fn layouts_answers_and_update_io_are_the_recorded_ones_at_4_kib_and_narrow_frames() {
    check(0);
}

#[test]
fn layouts_answers_and_update_io_are_the_recorded_ones_at_512_bytes_and_wide_frames() {
    check(1);
}
