//! The exit bundle through the public API only: answers against brute
//! force where stabs run through copied first blocks, continuations and
//! two-list exits, and one answer order call after call. The bundle's
//! cut-overs — sections that fit one page, a tail spilled by one entry
//! more, a source continued from the table — are unit tests of
//! `bundle.rs` and `query.rs`, which see the pages.

use pc_intervaltree::ExternalIntervalTree;
use pc_pagestore::{Interval, PageStore};

fn brute(intervals: &[Interval], q: i64) -> Vec<u64> {
    let mut out: Vec<u64> = intervals.iter().filter(|i| i.contains(q)).map(|i| i.id).collect();
    out.sort_unstable();
    out
}

#[test]
fn long_lists_on_4k_pages_match_brute_force() {
    // 1500 nested intervals around 5000 on top of short ones: boundary
    // nodes near the centre hold more than a block, so stabs run through
    // copied first blocks, continuations and two-list exits.
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
