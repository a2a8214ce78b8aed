//! Cut-over cases of the exit bundle, through the public API only: page
//! counts say what went on the bundle page and what into a tail, read
//! counts say what a stab had to fetch. 512-byte pages and full-width data
//! throughout: a block is 20 intervals, a run 20 endpoints, a bundle page
//! has 512 − 8 − 8 per source bytes for 25-byte ancestor copies and 24-byte
//! own intervals.

use pc_intervaltree::ExternalIntervalTree;
use pc_pagestore::{Frame, Interval, PageStore};

const BLOCK: usize = 20;

/// Where the cut-over data lies: endpoints `AT + 0..=40` and ids from `ID`
/// up need all eight bytes, so the tree's frame is [`Frame::WIDE`]. The
/// layout depends on differences only.
const AT: i64 = 1 << 60;
const ID: u64 = 1 << 63;

fn brute(intervals: &[Interval], q: i64) -> Vec<u64> {
    let mut out: Vec<u64> = intervals.iter().filter(|i| i.contains(q)).map(|i| i.id).collect();
    out.sort_unstable();
    out
}

/// Builds on 512-byte pages and checks every stab in `AT − 1..=AT + 40`
/// against brute force (no duplicates: lengths are compared too).
fn build_checked(intervals: &[Interval]) -> (PageStore, ExternalIntervalTree) {
    let store = PageStore::in_memory(512);
    let tree = ExternalIntervalTree::build(&store, intervals).unwrap();
    assert!(intervals.is_empty() || tree.frame() == Frame::WIDE);
    for q in AT - 1..=AT + 40 {
        let mut got: Vec<u64> = tree.stab(&store, q).unwrap().iter().map(|i| i.id).collect();
        got.sort_unstable();
        assert_eq!(got, brute(intervals, q), "q={q}");
    }
    (store, tree)
}

/// Reads of the stab at `AT + q`.
fn reads(tree: &ExternalIntervalTree, store: &PageStore, q: i64) -> u64 {
    tree.stab_with_ios(store, AT + q).unwrap().1
}

/// From `AT` on — a root over two runs, `{0..=19}` and `{20..}`, so the boundary is 20:
/// `crossing` intervals `[i % 20, 20 + i % 16]` sit at the root and are
/// copied into both leaves' bundles; `left_only` of them lie in the left
/// run, over the endpoints the crossing ones leave unused.
fn two_runs(crossing: usize, left_only: &[(i64, i64)]) -> Vec<Interval> {
    let cross = (0..crossing as i64).map(|i| (i % 20, 20 + i % 16));
    cross
        .chain(left_only.iter().copied())
        .enumerate()
        .map(|(id, (lo, hi))| Interval::new(AT + lo, AT + hi, ID + id as u64))
        .collect()
}

#[test]
fn sections_of_nothing_one_page_and_one_entry_more() {
    // Nothing: no bundle at all, a stab reads the skeletal page only.
    let (store, tree) = build_checked(&[]);
    assert_eq!((store.live_pages(), reads(&tree, &store, 3)), (1, 1));

    // The left leaf's sections fill its bundle page to the byte: 16 copies
    // of the root's list and 4 intervals of its own, 16·25 + 4·24 = 496.
    // Skeletal page and three bundles, two reads per stab.
    let (store, tree) = build_checked(&two_runs(16, &[(16, 17), (18, 19), (16, 19), (17, 18)]));
    assert_eq!(store.live_pages(), 4);
    assert_eq!([3, 18, 20, 30].map(|q| reads(&tree, &store, q)), [2; 4]);

    // One copy more: the ancestor section keeps a head of 15 on the page
    // and a tail of 2, which only a stab that takes the whole head reads.
    let (store, tree) = build_checked(&two_runs(17, &[(17, 18), (18, 19), (17, 19), (17, 19)]));
    assert_eq!(store.live_pages(), 5);
    assert_eq!([3, 13, 14, 18, 20, 30].map(|q| reads(&tree, &store, q)), [2, 2, 3, 3, 2, 2]);
}

#[test]
fn a_source_of_one_block_ends_and_one_more_continues_from_the_table() {
    // Exactly a block at the root: it lies on the root's bundle page, the
    // leaves copy all of it (a head of 19 and a tail of 1), no source has
    // a continuation. Skeletal page, three bundles, two tails.
    let (store, tree) = build_checked(&two_runs(BLOCK, &[]));
    assert_eq!(store.live_pages(), 6);
    assert_eq!([0, 19, 20, 36].map(|q| reads(&tree, &store, q)), [2, 3, 2, 2]);

    // One more: the root keeps L and R as lists of two blocks, the leaves
    // copy the first blocks, and their tables point at the second ones. A
    // stab taking all 20 copies goes on there directly: skeletal page,
    // bundle, its tail, the second block — not the first again.
    let (store, tree) = build_checked(&two_runs(BLOCK + 1, &[]));
    assert_eq!(store.live_pages(), 5 + 4);
    assert_eq!([0, 16, 17, 18, 19].map(|q| reads(&tree, &store, q)), [2, 2, 3, 4, 4]);
    // q on the boundary: all of L, whose head the root record holds.
    assert_eq!(reads(&tree, &store, 20), 1 + 2);
    assert_eq!(tree.stab(&store, AT + 20).unwrap().len(), BLOCK + 1);
}

#[test]
fn long_lists_on_4k_pages_match_brute_force() {
    // 1500 nested intervals around 5000 on top of short ones: boundary
    // nodes near the centre hold more than a block (681 at these intervals'
    // frame, 2/2/2), so stabs run
    // through copied first blocks, continuations and two-list exits.
    let mut s = 0x2545_f491u64;
    let mut next = |bound: i64| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % bound as u64) as i64
    };
    let mut intervals: Vec<Interval> = (0..1500)
        .map(|i| Interval::new(5000 - 7 * i - next(7), 5000 + 5 * i + next(5), i as u64))
        .collect();
    intervals.extend((1500..9000).map(|id| {
        let lo = next(10_000);
        Interval::new(lo, lo + next(40), id)
    }));
    let store = PageStore::in_memory(4096);
    let tree = ExternalIntervalTree::build(&store, &intervals).unwrap();
    assert_eq!(tree.frame(), Frame::new(2, 2, 2));
    for q in (-6_000..13_000).step_by(37).chain([4999, 5000, 5001]) {
        let mut got: Vec<u64> = tree.stab(&store, q).unwrap().iter().map(|i| i.id).collect();
        got.sort_unstable();
        assert_eq!(got, brute(&intervals, q), "q={q}");
    }
}

#[test]
fn stab_answers_come_back_in_one_order() {
    // Short intervals spread the boundaries evenly over 0..8000; 60 wide
    // ones hold the root's boundary (~4000) and 60 its left child's
    // (~2000). A stab near 1000 turns left at both, takes the whole first
    // block of each, and continues into both lists: the order in which it
    // does decides the order of the answer.
    let wide = (0..60).flat_map(|i| [(900 - i, 4100 + i), (950 - i, 2100 + i)]);
    let short = (0..2000).map(|i| (4 * i, 4 * i + 1 + i % 3));
    let intervals: Vec<Interval> = wide
        .chain(short)
        .enumerate()
        .map(|(id, (lo, hi))| Interval::new(lo, hi, id as u64))
        .collect();
    let stores = [PageStore::in_memory(512), PageStore::in_memory(512)];
    let trees = stores.each_ref().map(|s| ExternalIntervalTree::build(s, &intervals).unwrap());
    for q in 960..1040 {
        let a = trees[0].stab(&stores[0], q).unwrap();
        assert!(a.len() >= 120, "q={q} meets both towers");
        assert_eq!(a, trees[1].stab(&stores[1], q).unwrap(), "q={q}");
    }
}
