//! Stabbing queries over the external interval tree.

use pc_pagestore::layout::{Block, Columns};
use pc_pagestore::{Interval, PageId, PageStore, Result};
use pc_segtree::CachedSegmentTree;

use crate::build::{decode_record, ExternalIntervalTree, NodeRecord};
use crate::bundle::{Bundle, CacheEntry};

impl ExternalIntervalTree {
    /// Stabbing query: every interval containing `q`, in `O(log_B n + t/B)`
    /// I/Os.
    pub fn stab(&self, store: &PageStore, q: i64) -> Result<Vec<Interval>> {
        Ok(self.stab_with_ios(store, q)?.0)
    }

    /// Stabbing query returning `(results, page_reads)` for the experiment
    /// harness.
    pub fn stab_with_ios(&self, store: &PageStore, q: i64) -> Result<(Vec<Interval>, u64)> {
        let _span = pc_obs::span!("ivtree_stab");
        let before = store.stats();
        pc_obs::set_block_capacity(self.block_capacity() as u64);
        let mut results = Vec::new();

        let mut cur_page = self.root_page;
        let mut skeletal_depth = 0u64;
        let mut page = {
            let _lvl = pc_obs::span!("level", skeletal_depth);
            store.read(cur_page)?
        };
        let mut slot = 0u16;
        loop {
            match decode_record(&page, slot)? {
                NodeRecord::Internal { boundary, left, right, bundle, lists } => {
                    let next = if q < boundary { left } else { right };
                    if q != boundary && next.page == cur_page {
                        // Mid-segment node: its lists are served by the
                        // bundle of the node the path leaves the page at.
                        slot = next.slot;
                        continue;
                    }
                    // Page exit or boundary hit: settle this page's
                    // contributions. On a hit every interval of this node
                    // contains q, as `lo <= q` finds, and nothing below
                    // can (left subtree: hi < q; right subtree: lo > q).
                    drain_bundle(store, q, bundle, &mut results)?;
                    let side = usize::from(q > boundary);
                    if !lists[side].is_null() {
                        scan_list(store, lists[side], side, q, &mut results)?;
                    }
                    if q == boundary {
                        break;
                    }
                    cur_page = next.page;
                    skeletal_depth += 1;
                    let _lvl = pc_obs::span!("level", skeletal_depth);
                    page = store.read(cur_page)?;
                    slot = next.slot;
                }
                NodeRecord::Leaf { mini, bundle } => {
                    drain_bundle(store, q, bundle, &mut results)?;
                    if let Some(mini) = mini {
                        results.extend(CachedSegmentTree::from_handle(mini).stab(store, q)?);
                    }
                    break;
                }
            }
        }
        Ok((results, (store.stats() - before).logical_reads()))
    }
}

/// Whether an interval of an `L` list (`side` 0, ascending `lo`) or an `R`
/// list (`side` 1, descending `hi`) still contains `q`; once one does not,
/// none after it does.
fn qualifies(side: usize, q: i64, iv: &Interval) -> bool {
    if side == 0 {
        iv.lo <= q
    } else {
        iv.hi >= q
    }
}

/// Reads an exit node's bundle and reports from its sections: the
/// qualifying prefix of each merged ancestor section, then — the §4.1
/// continuation rule — every source list whose whole first block
/// qualified, from its second block on, and the node's own intervals.
fn drain_bundle(
    store: &PageStore,
    q: i64,
    bundle: PageId,
    results: &mut Vec<Interval>,
) -> Result<()> {
    if bundle.is_null() {
        return Ok(());
    }
    // One probe per bundle: the page, both ancestor sections, their tails.
    let probe = pc_obs::span!("path_cache_probe");
    let page = store.read(bundle)?;
    let Bundle { conts, chains: [rest_l, rest_r, own_rest], sections: [anc_l, anc_r, own] } =
        Bundle::decode(&page)?;
    let mut continued = Vec::new();
    for (side, (head, rest)) in [(anc_l, rest_l), (anc_r, rest_r)].into_iter().enumerate() {
        let mut qualified = vec![0usize; conts.len()];
        let before = results.len();
        scan(store, head, rest, |e: CacheEntry| {
            qualifies(side, q, &e.iv) && {
                results.push(e.iv);
                qualified[e.src as usize] += 1;
                true
            }
        })?;
        pc_obs::add_items((results.len() - before) as u64);
        let whole = conts.iter().zip(qualified);
        let whole =
            whole.filter(|((cont, copied), n)| *n == usize::from(*copied) && !cont.is_null());
        continued.extend(whole.map(|((cont, _), _)| (*cont, side)));
    }
    drop(probe);
    for (cont, side) in continued {
        scan_list(store, cont, side, q, results)?;
    }
    // At most a block, on the page or in `own_rest`, by `lo`: none past
    // the first that starts right of `q` contains it.
    let _scan = pc_obs::span!(output: "run_block");
    let before = results.len();
    scan(store, own, own_rest, |iv: Interval| {
        if iv.contains(q) {
            results.push(iv);
        }
        iv.lo <= q
    })?;
    pc_obs::add_items((results.len() - before) as u64);
    Ok(())
}

/// Extends `results` with the maximal qualifying prefix of the `side` list
/// whose chain starts at `page`.
fn scan_list(
    store: &PageStore,
    page: PageId,
    side: usize,
    q: i64,
    results: &mut Vec<Interval>,
) -> Result<()> {
    let _span = pc_obs::span!(output: "list_scan");
    let before = results.len();
    let r = scan(store, &[], page, |iv: Interval| {
        qualifies(side, q, &iv) && {
            results.push(iv);
            true
        }
    });
    pc_obs::add_items((results.len() - before) as u64);
    r
}

/// Hands `visit` the records of the block `head` (none if it is empty),
/// then those of the chain starting at `next` block by block, and stops
/// decoding and reading when it declines one.
fn scan<R: Columns>(
    store: &PageStore,
    head: &[u8],
    mut next: PageId,
    mut visit: impl FnMut(R) -> bool,
) -> Result<()> {
    if !head.is_empty() && !Block::parse::<R>(head)?.each(&mut visit) {
        return Ok(());
    }
    while !next.is_null() {
        let page = store.read(next)?;
        let block = Block::parse::<R>(&page)?;
        if !block.each(&mut visit) {
            return Ok(());
        }
        next = block.next;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    use pc_pagestore::backend::{Backend, MemBackend};
    use pc_pagestore::layout::{fill_blocks, next_of};
    use pc_pagestore::store::CHECKSUM_LEN;
    use pc_pagestore::{PageStore, StoreConfig};

    /// A memory backend that logs the page of every read.
    struct Logging(MemBackend, Arc<Mutex<Vec<PageId>>>);

    impl Backend for Logging {
        fn frame_size(&self) -> usize {
            self.0.frame_size()
        }
        fn read_frame(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
            self.1.lock().unwrap().push(id);
            self.0.read_frame(id, buf)
        }
        fn write_frame(&self, id: PageId, buf: &[u8]) -> Result<()> {
            self.0.write_frame(id, buf)
        }
        fn sync(&self) -> Result<()> {
            self.0.sync()
        }
        fn frame_count(&self) -> u64 {
            self.0.frame_count()
        }
    }

    /// The tower of `k` nested intervals `[c − i, c + i]`, `i` = 1..=k.
    fn tower(k: i64) -> Vec<Interval> {
        (1..=k).map(|i| Interval::new(5_000 - i, 5_000 + i, i as u64)).collect()
    }

    /// A tower is all at the root: its intervals hold `2k` endpoints, and
    /// the root's boundary is the middle one. The most of them one block
    /// holds in `L` order lie flat in the bundle, and the copies below
    /// them have no continuation; one interval more and the root keeps `L`
    /// and `R` as lists, the copies below are the first block, the table
    /// names the second, and a stab that takes every copy reads on there —
    /// never the first block again.
    #[test]
    fn a_source_of_one_block_ends_and_one_more_continues_from_the_table() {
        let most = (1..2_000).take_while(|&k| fill_blocks(&tower(k), 1, 512) == k as usize).last();
        let most = most.unwrap();
        for k in [most, most + 1] {
            let intervals = tower(k);
            let log = Arc::new(Mutex::new(Vec::new()));
            let backend = Logging(MemBackend::new(512 + CHECKSUM_LEN), Arc::clone(&log));
            let store = PageStore::new(StoreConfig::strict(512), Box::new(backend));
            let tree = ExternalIntervalTree::build(&store, &intervals).unwrap();
            let root = decode_record(&store.read(tree.root_page).unwrap(), 0).unwrap();
            let NodeRecord::Internal { boundary, lists, .. } = root else { panic!("a leaf root") };
            assert!(intervals.iter().all(|iv| iv.contains(boundary)), "the tower is at the root");
            assert_eq!(lists[0].is_null(), k == most, "k = {k}: lists {lists:?}");
            let second = match lists[0].is_null() {
                true => None,
                false => Some(next_of(&store.read(lists[0]).unwrap()).unwrap()),
            };
            log.lock().unwrap().clear();
            // Left of the boundary and inside every interval: every copy
            // of `L`'s first block qualifies.
            let got = tree.stab(&store, boundary - 1).unwrap();
            assert_eq!(got.len(), intervals.len());
            let log = log.lock().unwrap();
            let reads = |page: PageId| log.iter().filter(|&&p| p == page).count();
            if let Some(second) = second {
                assert!(!second.is_null(), "L takes two blocks");
                assert_eq!((reads(lists[0]), reads(second)), (0, 1), "k = {k}");
            }
        }
    }

    fn iv(lo: i64, hi: i64, id: u64) -> Interval {
        Interval::new(lo, hi, id)
    }

    fn ids(mut v: Vec<Interval>) -> Vec<u64> {
        let mut out: Vec<u64> = v.drain(..).map(|i| i.id).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    fn brute(intervals: &[Interval], q: i64) -> Vec<u64> {
        let mut out: Vec<u64> =
            intervals.iter().filter(|i| i.contains(q)).map(|i| i.id).collect();
        out.sort_unstable();
        out
    }

    fn xorshift(state: &mut u64, bound: i64) -> i64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state % bound as u64) as i64
    }

    fn random_intervals(n: usize, domain: i64, max_len: i64, seed: u64) -> Vec<Interval> {
        let mut s = seed;
        (0..n)
            .map(|id| {
                let a = xorshift(&mut s, domain);
                iv(a, a + xorshift(&mut s, max_len), id as u64)
            })
            .collect()
    }

    fn check_against_brute(intervals: &[Interval], queries: &[i64], page_size: usize) {
        let store = PageStore::in_memory(page_size);
        let tree = ExternalIntervalTree::build(&store, intervals).unwrap();
        for &q in queries {
            let got = ids(tree.stab(&store, q).unwrap());
            // Results must be free of duplicates.
            let raw = tree.stab(&store, q).unwrap();
            assert_eq!(raw.len(), got.len(), "duplicates at q={q}");
            assert_eq!(got, brute(intervals, q), "q={q}");
        }
    }

    #[test]
    fn boundary_hits_are_exact() {
        // Force many shared endpoints so queries land exactly on boundaries.
        let intervals: Vec<Interval> =
            (0..500).map(|i| iv((i % 50) * 10, (i % 50) * 10 + 100, i as u64)).collect();
        let queries: Vec<i64> = (0..60).map(|i| i * 10).collect();
        check_against_brute(&intervals, &queries, 512);
    }

    #[test]
    fn query_io_is_log_b_n_plus_t_over_b() {
        let store = PageStore::in_memory(512);
        let intervals = random_intervals(8000, 200_000, 4000, 0x7777);
        let tree = ExternalIntervalTree::build(&store, &intervals).unwrap();
        let b = tree.block_capacity() as u64;
        let mut s = 0x4242u64;
        for _ in 0..60 {
            let q = xorshift(&mut s, 200_000);
            let (res, ios) = tree.stab_with_ios(&store, q).unwrap();
            let t = res.len() as u64;
            // Generous constants: c1 * log_B n + c2 * (t/B + 1).
            let allowed = 8 * 4 + 4 * (t / b + 1);
            assert!(ios <= allowed, "ios={ios} t={t} allowed={allowed}");
        }
    }

    /// `n` intervals over the 8 endpoints `0..8`: one run, no boundaries,
    /// so the root is a leaf holding all of them.
    fn shared_endpoint_intervals(n: usize) -> Vec<Interval> {
        let mut pairs = Vec::new();
        for lo in 0..8i64 {
            for hi in lo..8 {
                pairs.push((lo, hi));
            }
        }
        (0..n).map(|i| iv(pairs[i % pairs.len()].0, pairs[i % pairs.len()].1, i as u64)).collect()
    }

    #[test]
    fn run_of_one_block_is_flat_and_one_more_is_a_mini_tree() {
        // The most of these intervals one block holds, blocked by `lo`.
        let one_block = |n: usize| {
            let mut by_lo = shared_endpoint_intervals(n);
            by_lo.sort_unstable_by_key(|iv| (iv.lo, iv.hi, iv.id));
            pc_pagestore::layout::cut(&by_lo, 512).len() == 1
        };
        let cap = (1..2000).take_while(|&n| one_block(n)).last().unwrap();
        assert!(cap > 36, "{cap}: more than the endpoint pairs");
        let queries: Vec<i64> = (-1..=8).collect();
        for (n, kinds) in [(0, (1, 0)), (1, (1, 0)), (cap, (1, 0)), (cap + 1, (0, 1))] {
            let intervals = shared_endpoint_intervals(n);
            let store = PageStore::in_memory(512);
            let tree = ExternalIntervalTree::build(&store, &intervals).unwrap();
            assert_eq!(crate::build::leaf_kinds(&tree, &store), kinds, "n={n}");
            if kinds.0 == 1 {
                // The skeletal page plus the leaf's bundle, if it has one,
                // and the block its own intervals take where the bundle's
                // header leaves them too little room.
                let pages = store.live_pages();
                assert!(pages <= 1 + 2 * n.min(1) as u64, "n={n}: {pages} pages");
                assert_eq!(pages == 3, n == cap && pages > 2, "n={n}");
                let (_, ios) = tree.stab_with_ios(&store, 3).unwrap();
                assert_eq!(ios, pages, "n={n}");
            }
            check_against_brute(&intervals, &queries, 512);
        }
    }

    #[test]
    fn many_intervals_over_few_endpoints_take_the_mini_tree_within_the_bound() {
        let store = PageStore::in_memory(512);
        let b = ExternalIntervalTree::build(&store, &shared_endpoint_intervals(500)).unwrap();
        let intervals = shared_endpoint_intervals(4 * b.block_capacity());
        let tree = ExternalIntervalTree::build(&store, &intervals).unwrap();
        assert_eq!(crate::build::leaf_kinds(&tree, &store), (0, 1));
        let log_b_n = 2; // ceil(log_B 4B)
                         // The mini tree is a `pc-segtree`, whose shared regions hold 24-byte
                         // intervals: its output term is in that crate's blocks of 20.
        let segtree_block = pc_segtree::block_capacity(512);
        for q in -1..=8 {
            let (res, ios) = tree.stab_with_ios(&store, q).unwrap();
            assert_eq!(ids(res.clone()), brute(&intervals, q), "q={q}");
            assert_eq!(res.len(), brute(&intervals, q).len(), "duplicates at q={q}");
            let allowed = 3 * log_b_n + 2 * res.len().div_ceil(segtree_block);
            assert!(ios as usize <= allowed, "q={q} ios={ios} t={} allowed={allowed}", res.len());
        }
    }

    #[test]
    fn pooled_and_strict_stores_report_the_same_reads() {
        let intervals = random_intervals(3000, 50_000, 2000, 0xabc);
        let strict = PageStore::in_memory(512);
        let pooled = PageStore::in_memory_pooled(512, 4096);
        let a = ExternalIntervalTree::build(&strict, &intervals).unwrap();
        let b = ExternalIntervalTree::build(&pooled, &intervals).unwrap();
        let mut s = 0x1234u64;
        let mut hits = 0;
        for _ in 0..40 {
            let q = xorshift(&mut s, 52_000);
            let before = pooled.stats();
            let (_, strict_ios) = a.stab_with_ios(&strict, q).unwrap();
            let (_, pooled_ios) = b.stab_with_ios(&pooled, q).unwrap();
            assert_eq!(pooled_ios, strict_ios, "q={q}");
            hits += (pooled.stats() - before).cache_hits;
        }
        assert!(hits > 0, "the pool must have absorbed some of the reads");
    }

    #[test]
    fn common_point_output_dominates() {
        // All n intervals stab the center: t = n, so I/O must be ~t/B.
        let store = PageStore::in_memory(512);
        let n = 4000usize;
        let intervals: Vec<Interval> =
            (0..n).map(|i| iv(-(i as i64) - 1, i as i64 + 1, i as u64)).collect();
        let tree = ExternalIntervalTree::build(&store, &intervals).unwrap();
        let (res, ios) = tree.stab_with_ios(&store, 0).unwrap();
        assert_eq!(res.len(), n);
        let b = tree.block_capacity() as u64;
        assert!(
            ios <= 4 * (n as u64 / b) + 40,
            "ios={ios} for t=n={n} (t/B = {})",
            n as u64 / b
        );
    }
}
