//! Stabbing queries over the external interval tree.

use std::collections::HashMap;

use pc_pagestore::layout::BlockList;
use pc_pagestore::{Interval, PageStore, Result};
use pc_segtree::CachedSegmentTree;

use crate::build::{decode_record, CacheEntry, ExternalIntervalTree, LeafRun, NodeRecord};

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
        let cap_iv = BlockList::<Interval>::capacity(store.page_size());
        pc_obs::set_block_capacity(cap_iv as u64);
        let mut results = Vec::new();

        let mut cur_page = self.root_page;
        let mut skeletal_depth = 0u64;
        let mut page = {
            let _lvl = pc_obs::span!("level", skeletal_depth);
            store.read(cur_page)?
        };
        let mut slot = 0u16;
        // In-page strict ancestors of the current node, keyed by slot.
        let mut inpage: HashMap<u16, (BlockList<Interval>, BlockList<Interval>)> =
            HashMap::new();
        loop {
            match decode_record(&page, slot)? {
                NodeRecord::Internal { boundary, left, right, l_list, r_list, anc_l, anc_r } => {
                    if q == boundary {
                        // Every interval at this node contains q; nothing
                        // below this node can (left subtree: hi < q; right
                        // subtree: lo > q).
                        self.drain_caches(store, q, cap_iv, &anc_l, &anc_r, &inpage, &mut results)?;
                        let _scan = pc_obs::span!(output: "cover_list");
                        for block in l_list.blocks(store) {
                            let block = block?;
                            pc_obs::add_items(block.len() as u64);
                            results.extend(block);
                        }
                        break;
                    }
                    let goes_left = q < boundary;
                    let next = if goes_left { left } else { right };
                    if next.page == cur_page {
                        // Mid-segment node: its lists will be served by a
                        // descendant's ancestor caches.
                        inpage.insert(slot, (l_list, r_list));
                        slot = next.slot;
                        continue;
                    }
                    // Page exit: settle this page's contributions.
                    self.drain_caches(store, q, cap_iv, &anc_l, &anc_r, &inpage, &mut results)?;
                    if goes_left {
                        scan_prefix(store, &l_list, 0, |iv| iv.lo <= q, &mut results)?;
                    } else {
                        scan_prefix(store, &r_list, 0, |iv| iv.hi >= q, &mut results)?;
                    }
                    inpage.clear();
                    cur_page = next.page;
                    skeletal_depth += 1;
                    let _lvl = pc_obs::span!("level", skeletal_depth);
                    page = store.read(cur_page)?;
                    slot = next.slot;
                }
                NodeRecord::Leaf { run, anc_l, anc_r } => {
                    self.drain_caches(store, q, cap_iv, &anc_l, &anc_r, &inpage, &mut results)?;
                    match run {
                        LeafRun::Flat(list) => {
                            let _scan = pc_obs::span!(output: "run_block");
                            let before = results.len();
                            let block = list.read_first_block(store)?;
                            results.extend(block.into_iter().filter(|iv| iv.contains(q)));
                            pc_obs::add_items((results.len() - before) as u64);
                        }
                        LeafRun::Mini(mini) => {
                            results.extend(CachedSegmentTree::from_handle(mini).stab(store, q)?);
                        }
                    }
                    break;
                }
            }
        }
        Ok((results, (store.stats() - before).logical_reads()))
    }

    /// Reads both ancestor caches of an exit node, applying the §4.1
    /// continuation rule: when every copied entry of a source list
    /// qualified, keep reading that source from its second block.
    ///
    /// The continuation re-reads the source's first block to reach its
    /// successor (one extra I/O), which is paid for by the full block of
    /// results that triggered the continuation.
    #[allow(clippy::too_many_arguments)]
    fn drain_caches(
        &self,
        store: &PageStore,
        q: i64,
        cap_iv: usize,
        anc_l: &BlockList<CacheEntry>,
        anc_r: &BlockList<CacheEntry>,
        inpage: &HashMap<u16, (BlockList<Interval>, BlockList<Interval>)>,
        results: &mut Vec<Interval>,
    ) -> Result<()> {
        for (cache, is_left) in [(anc_l, true), (anc_r, false)] {
            let mut qualified: HashMap<u16, usize> = HashMap::new();
            {
                let _probe = pc_obs::span!("path_cache_probe");
                pc_obs::set_block_capacity(BlockList::<CacheEntry>::capacity(store.page_size()) as u64);
                let before = results.len();
                'outer: for block in cache.blocks(store) {
                    for e in block? {
                        let ok = if is_left { e.iv.lo <= q } else { e.iv.hi >= q };
                        if !ok {
                            break 'outer;
                        }
                        results.push(e.iv);
                        *qualified.entry(e.src_slot).or_insert(0) += 1;
                    }
                }
                pc_obs::add_items((results.len() - before) as u64);
            }
            for (src_slot, count) in qualified {
                let (l, r) = inpage
                    .get(&src_slot)
                    .expect("cache source must be an in-page ancestor");
                let list = if is_left { l } else { r };
                let copied = (list.len() as usize).min(cap_iv);
                if count == copied && list.len() as usize > copied {
                    if is_left {
                        scan_prefix(store, list, 1, |iv| iv.lo <= q, results)?;
                    } else {
                        scan_prefix(store, list, 1, |iv| iv.hi >= q, results)?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Extends `results` with the maximal qualifying prefix of `list`,
/// starting at block `skip_blocks`; stops reading at the first
/// non-qualifying entry.
fn scan_prefix(
    store: &PageStore,
    list: &BlockList<Interval>,
    skip_blocks: usize,
    pred: impl Fn(&Interval) -> bool,
    results: &mut Vec<Interval>,
) -> Result<()> {
    let _span = pc_obs::span!(output: "list_scan");
    pc_obs::set_block_capacity(BlockList::<Interval>::capacity(store.page_size()) as u64);
    let before = results.len();
    let r = scan_prefix_inner(store, list, skip_blocks, pred, results);
    pc_obs::add_items((results.len() - before) as u64);
    r
}

fn scan_prefix_inner(
    store: &PageStore,
    list: &BlockList<Interval>,
    skip_blocks: usize,
    pred: impl Fn(&Interval) -> bool,
    results: &mut Vec<Interval>,
) -> Result<()> {
    let mut blocks = list.blocks(store);
    for _ in 0..skip_blocks {
        if blocks.next().transpose()?.is_none() {
            return Ok(());
        }
    }
    for block in blocks {
        for iv in block? {
            if !pred(&iv) {
                return Ok(());
            }
            results.push(iv);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_pagestore::PageStore;

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
    fn small_tree_matches_brute_force() {
        let intervals =
            vec![iv(1, 5, 0), iv(3, 8, 1), iv(5, 5, 2), iv(0, 10, 3), iv(7, 9, 4), iv(2, 3, 5)];
        check_against_brute(&intervals, &[-1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 512);
    }

    #[test]
    fn multi_page_tree_matches_brute_force() {
        let intervals = random_intervals(3000, 50_000, 2000, 0xabc);
        let mut s = 0x9999u64;
        let queries: Vec<i64> = (0..120).map(|_| xorshift(&mut s, 55_000) - 1000).collect();
        check_against_brute(&intervals, &queries, 512);
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
    fn nested_towers_match_brute_force() {
        // Deep nesting stresses the R-list prefix scans.
        let intervals: Vec<Interval> =
            (0..400).map(|i| iv(500 - i, 500 + i, i as u64)).collect();
        let queries: Vec<i64> = (0..50).map(|i| 100 + i * 17).collect();
        check_against_brute(&intervals, &queries, 512);
    }

    #[test]
    fn query_io_is_log_b_n_plus_t_over_b() {
        let store = PageStore::in_memory(512);
        let intervals = random_intervals(8000, 200_000, 4000, 0x7777);
        let tree = ExternalIntervalTree::build(&store, &intervals).unwrap();
        let b = BlockList::<Interval>::capacity(512) as u64;
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
        let cap = BlockList::<Interval>::capacity(512);
        let queries: Vec<i64> = (-1..=8).collect();
        for (n, kinds) in [(0, (1, 0)), (1, (1, 0)), (cap, (1, 0)), (cap + 1, (0, 1))] {
            let intervals = shared_endpoint_intervals(n);
            let store = PageStore::in_memory(512);
            let tree = ExternalIntervalTree::build(&store, &intervals).unwrap();
            assert_eq!(crate::build::leaf_kinds(&tree, &store), kinds, "n={n}");
            if kinds.0 == 1 {
                // The skeletal page plus the run's block, if it has one.
                assert_eq!(store.live_pages(), 1 + n.min(1) as u64, "n={n}");
                let (_, ios) = tree.stab_with_ios(&store, 3).unwrap();
                assert_eq!(ios, store.live_pages(), "n={n}");
            }
            check_against_brute(&intervals, &queries, 512);
        }
    }

    #[test]
    fn many_intervals_over_few_endpoints_take_the_mini_tree_within_the_bound() {
        let b = BlockList::<Interval>::capacity(512);
        let intervals = shared_endpoint_intervals(4 * b);
        let store = PageStore::in_memory(512);
        let tree = ExternalIntervalTree::build(&store, &intervals).unwrap();
        assert_eq!(crate::build::leaf_kinds(&tree, &store), (0, 1));
        let log_b_n = 2; // ceil(log_20 80)
        for q in -1..=8 {
            let (res, ios) = tree.stab_with_ios(&store, q).unwrap();
            assert_eq!(ids(res.clone()), brute(&intervals, q), "q={q}");
            assert_eq!(res.len(), brute(&intervals, q).len(), "duplicates at q={q}");
            let allowed = 3 * log_b_n + 2 * res.len().div_ceil(b);
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
        let b = BlockList::<Interval>::capacity(512) as u64;
        assert!(
            ios <= 4 * (n as u64 / b) + 40,
            "ios={ios} for t=n={n} (t/B = {})",
            n as u64 / b
        );
    }
}
