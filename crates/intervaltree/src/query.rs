//! Stabbing queries over the external interval tree.

use pc_obs::ReadClass;
use pc_pagestore::layout::{scan_chain, Block};
use pc_pagestore::skeleton::{NodeRef, SkelRecord};
use pc_pagestore::{Interval, PageId, PageStore, Result, NULL_PAGE};
use pc_segtree::CachedSegmentTree;

use crate::build::{ExternalIntervalTree, NodeRecord};
use crate::bundle::{Bundle, CacheEntry};

impl ExternalIntervalTree {
    /// Stabbing query: every interval containing `q`, in `O(log_B n + t/B)`
    /// I/Os.
    pub fn stab(&self, store: &PageStore, q: i64) -> Result<Vec<Interval>> {
        let _span = pc_obs::span!("ivtree_stab");
        pc_obs::set_block_capacity(self.block_capacity() as u64);
        let mut results = Vec::new();
        let skeletal = |page: PageId, depth: u64| {
            let _lvl = pc_obs::span!("level", depth);
            pc_obs::record_read(ReadClass::Skeletal);
            store.read(page)
        };
        // A bundle that does not ride on a page in hand.
        let cache = |page: PageId| {
            pc_obs::record_read(ReadClass::Cache);
            store.read(page)
        };

        let mut at = NodeRef { page: self.root_page, slot: 0 };
        let mut skeletal_depth = 0u64;
        let mut page = skeletal(at.page, skeletal_depth)?;
        loop {
            match NodeRecord::at(&page, at.slot)? {
                NodeRecord::Internal { boundary, left, right, bundle, lists } => {
                    let next = if q < boundary { left } else { right };
                    if q != boundary && next.page == at.page {
                        // Mid-segment node: its lists are served by the
                        // bundle of the node the path leaves the page at.
                        at = next;
                        continue;
                    }
                    // Page exit or boundary hit: settle this page's
                    // contributions. On a hit every interval of this node
                    // contains q, as `lo <= q` finds, and nothing below
                    // can (left subtree: hi < q; right subtree: lo > q).
                    // An exit reads the page it goes on to first: its
                    // bundle rides in that page's tail where it fits.
                    skeletal_depth += 1;
                    let ahead = (q != boundary).then(|| skeletal(next.page, skeletal_depth));
                    let ahead = ahead.transpose()?;
                    if let Some(holder) =
                        bundle.holder(at.page, left.page, &page, ahead.as_ref(), cache)?
                    {
                        drain_bundle(store, q, bundle.bytes(&holder)?, &mut results)?;
                    }
                    let side = usize::from(q > boundary);
                    if !lists[side].is_null() {
                        scan_list(store, lists[side], side, q, &mut results)?;
                    }
                    let Some(ahead) = ahead else { break };
                    (page, at) = (ahead, next);
                }
                NodeRecord::Leaf { mini, bundle } => {
                    if let Some(holder) = bundle.holder(at.page, NULL_PAGE, &page, None, cache)? {
                        drain_bundle(store, q, bundle.bytes(&holder)?, &mut results)?;
                    }
                    if let Some(mini) = mini {
                        results.extend(CachedSegmentTree::from_handle(mini).stab(store, q)?);
                    }
                    break;
                }
            }
        }
        Ok(results)
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

/// Reports from a node's bundle, its bytes on whichever page holds them:
/// the qualifying prefix of each merged ancestor section, then — the §4.1
/// continuation rule — every source list whose whole first block
/// qualified, from its second block on, and the node's own intervals.
fn drain_bundle(
    store: &PageStore,
    q: i64,
    bundle: &[u8],
    results: &mut Vec<Interval>,
) -> Result<()> {
    // One probe per bundle: both ancestor sections and their tails.
    let probe = pc_obs::span!("path_cache_probe");
    let Bundle { conts, chains: [rest_l, rest_r, own_rest], sections: [anc_l, anc_r, own] } =
        Bundle::decode(bundle)?;
    let mut continued = Vec::new();
    for (side, (head, rest)) in [(anc_l, rest_l), (anc_r, rest_r)].into_iter().enumerate() {
        let mut qualified = vec![0usize; conts.len()];
        let before = results.len();
        let mut take = |e: CacheEntry| {
            qualifies(side, q, &e.iv) && {
                results.push(e.iv);
                qualified[e.src as usize] += 1;
                true
            }
        };
        if head.is_empty() || Block::parse::<CacheEntry>(head)?.each(&mut take) {
            scan_chain(store, rest, ReadClass::Cache, take)?;
        }
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
    let mut take = |iv: Interval| {
        if iv.contains(q) {
            results.push(iv);
        }
        iv.lo <= q
    };
    if own.is_empty() || Block::parse::<Interval>(own)?.each(&mut take) {
        scan_chain(store, own_rest, ReadClass::Node, take)?;
    }
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
    let r = scan_chain(store, page, ReadClass::Node, |iv: Interval| {
        qualifies(side, q, &iv) && {
            results.push(iv);
            true
        }
    });
    pc_obs::add_items((results.len() - before) as u64);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    use pc_pagestore::backend::{Backend, MemBackend};
    use pc_pagestore::layout::{fill_blocks, next_of};
    use pc_pagestore::skeleton::TailAt;
    use pc_pagestore::store::CHECKSUM_LEN;
    use pc_pagestore::{PageStore, StoreConfig};

    /// `tree.stab` and the reads it cost the store, pool hits included.
    fn stab_reads(tree: &ExternalIntervalTree, store: &PageStore, q: i64) -> (Vec<Interval>, u64) {
        let before = store.stats();
        let res = tree.stab(store, q).unwrap();
        (res, (store.stats() - before).logical_reads())
    }

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
            let root = NodeRecord::at(&store.read(tree.root_page).unwrap(), 0).unwrap();
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
            let (res, ios) = stab_reads(&tree, &store, q);
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
                let (_, ios) = stab_reads(&tree, &store, 3);
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
                         // The mini tree is a `pc-segtree`: its output term is in that
                         // crate's `B`, the 19 intervals a block holds at the least.
        let segtree_block = pc_segtree::block_capacity(512);
        for q in -1..=8 {
            let (res, ios) = stab_reads(&tree, &store, q);
            assert_eq!(ids(res.clone()), brute(&intervals, q), "q={q}");
            assert_eq!(res.len(), brute(&intervals, q).len(), "duplicates at q={q}");
            let allowed = 3 * log_b_n + 2 * res.len().div_ceil(segtree_block);
            assert!(ios as usize <= allowed, "q={q} ios={ios} t={} allowed={allowed}", res.len());
        }
    }

    /// A mini leaf whose segment tree spans the whole domain routes every
    /// stab: endpoints at `i64::MIN` and `i64::MAX`, a stab at each endpoint
    /// and one either side of it, at both page sizes.
    #[test]
    fn a_mini_leaf_routes_at_the_domain_edges() {
        let edges = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
        let pairs: Vec<(i64, i64)> =
            (0..edges.len()).flat_map(|i| edges[i..].iter().map(move |&b| (edges[i], b))).collect();
        let intervals: Vec<Interval> =
            (0..4_000).map(|i| iv(pairs[i % 28].0, pairs[i % 28].1, i as u64)).collect();
        let stabs = edges.iter().flat_map(|&e| [e.checked_sub(1), Some(e), e.checked_add(1)]);
        let stabs: Vec<i64> = stabs.flatten().collect();
        for page_size in [512, 4096] {
            let store = PageStore::in_memory(page_size);
            let tree = ExternalIntervalTree::build(&store, &intervals).unwrap();
            assert_eq!(crate::build::leaf_kinds(&tree, &store), (0, 1), "{page_size} B");
            check_against_brute(&intervals, &stabs, page_size);
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
            let (_, strict_ios) = stab_reads(&a, &strict, q);
            let (_, pooled_ios) = stab_reads(&b, &pooled, q);
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
        let (res, ios) = stab_reads(&tree, &store, 0);
        assert_eq!(res.len(), n);
        let b = tree.block_capacity() as u64;
        assert!(
            ios <= 4 * (n as u64 / b) + 40,
            "ios={ios} for t=n={n} (t/B = {})",
            n as u64 / b
        );
    }

    /// The records a stab at `q` walks through, each with whether its
    /// children are off its page: to the node whose boundary is `q`, or to
    /// a leaf.
    fn path(tree: &ExternalIntervalTree, store: &PageStore, q: i64) -> Vec<(NodeRecord, bool)> {
        let mut at = NodeRef { page: tree.root_page, slot: 0 };
        let mut path = Vec::new();
        loop {
            let rec = NodeRecord::at(&store.read(at.page).unwrap(), at.slot).unwrap();
            let NodeRecord::Internal { boundary, left, right, .. } = rec else {
                path.push((rec, false));
                return path;
            };
            path.push((rec, left.page != at.page));
            if boundary == q {
                return path;
            }
            at = if q < boundary { left } else { right };
        }
    }

    fn bundle_of(rec: &NodeRecord) -> TailAt {
        match *rec {
            NodeRecord::Internal { bundle, .. } | NodeRecord::Leaf { bundle, .. } => bundle,
        }
    }

    /// An exit's bundle at its cut-over, at 512 B and at 4 KiB. The first
    /// exit of the root page, at boundary `b`, holds `k` of `spare`
    /// intervals `[b, b]` flat in its bundle; the others lie at the next
    /// endpoint, in the leaf right of `b`, so `B` and the tree stay as they
    /// are. Up to the most that fit, the bundle rides on both child pages,
    /// and a stab just left of `b` reads its two skeletal pages and, where
    /// it has a page of its own, its leaf's bundle: at most `⌈log_B n⌉ + 1`. One interval more and the exit's bundle keeps a page
    /// of its own, one read more, as every exit's did before bundles rode in
    /// tails. A stab at `b` reads the bundle from the left child's page, or
    /// from its own page: one read either way.
    #[test]
    fn an_exit_bundle_rides_on_its_child_pages_up_to_the_most_that_fit() {
        // Intervals of 20-bit and of 62-bit coordinates, so that a root
        // page's exit has child pages of one record at 512 B and of a few
        // at 4 KiB: room for every bundle but the largest.
        let geometries = [(512, 250, 1 << 20, 64, 200), (4096, 32_000, 1 << 62, 1 << 40, 580)];
        for (page_size, n, domain, len, spare) in geometries {
            let base = random_intervals(n, domain, len, 0xb0 + page_size as u64);
            let build = |intervals: &[Interval]| {
                let store = PageStore::in_memory(page_size);
                let tree = ExternalIntervalTree::build(&store, intervals).unwrap();
                (store, tree)
            };
            // The boundary of the root page's first exit: a fixed point, as
            // the spares move `B`.
            let first_exit = |intervals: &[Interval]| {
                let (store, tree) = build(intervals);
                let exit = path(&tree, &store, i64::MIN).into_iter().find(|&(_, exit)| exit);
                match exit {
                    Some((NodeRecord::Internal { boundary, .. }, _)) => boundary,
                    _ => panic!("{page_size}: one skeletal page"),
                }
            };
            let endpoints = || base.iter().flat_map(|iv| [iv.lo, iv.hi]);
            let with = |k: usize, b: i64| {
                let next = endpoints().filter(|&e| e > b).min().unwrap();
                let at = |i: usize| if i < k { b } else { next };
                let extra = (0..spare).map(|i| Interval::new(at(i), at(i), (n + i) as u64));
                base.iter().copied().chain(extra).collect::<Vec<_>>()
            };
            let mut b = first_exit(&base);
            while first_exit(&with(0, b)) != b {
                b = first_exit(&with(0, b));
            }
            assert!(!endpoints().any(|e| e == b - 1), "{page_size}: b − 1 is an endpoint");
            let with = |k: usize| with(k, b);
            let block = build(&with(0)).1.block_capacity();
            let levels = ((n + spare) as f64).log(block as f64).ceil() as u64;
            // The exit's bundle and the reads of a stab at `b − 1` and at `b`.
            let probe = |k: usize| {
                let intervals = with(k);
                let (store, tree) = build(&intervals);
                let what = format!("{page_size} B, k = {k}");
                assert_eq!(tree.block_capacity(), block, "{what}: B moved");
                let exit = path(&tree, &store, b).pop().unwrap();
                assert!(exit.1, "{what}: {b} is not an exit");
                let leaf = path(&tree, &store, b - 1).pop().unwrap().0;
                let reads = [b - 1, b].map(|q| {
                    let (got, reads) = stab_reads(&tree, &store, q);
                    assert_eq!(ids(got), brute(&intervals, q), "{what}, q = {q}");
                    reads
                });
                let paged = |rec: &NodeRecord| u64::from(matches!(bundle_of(rec), TailAt::Page(_)));
                assert_eq!(reads[0], 2 + paged(&exit.0) + paged(&leaf), "{what}, q = b − 1");
                assert_eq!(reads[1], 2, "{what}, q = b");
                bundle_of(&exit.0)
            };
            let (none, all) = (probe(0), probe(spare));
            assert!(matches!(none, TailAt::Inline(_)), "{page_size}: {none:?} at k = 0");
            assert!(matches!(all, TailAt::Page(_)), "{page_size}: {all:?} at k = {spare}");
            let (mut fits, mut over) = (0, spare);
            while over - fits > 1 {
                let mid = (fits + over) / 2;
                match probe(mid) {
                    TailAt::Page(_) => over = mid,
                    _ => fits = mid,
                }
            }
            assert!(3 <= levels + 1, "{page_size}: B = {block}, ⌈log_B n⌉ = {levels}");
        }
    }

    /// A leaf's bundle rides on its own page up to the most intervals that
    /// fit above its record, at 512 B and at 4 KiB, and a stab there reads
    /// that one page; one interval more and the bundle keeps a page of its
    /// own, one read more.
    #[test]
    fn a_leaf_bundle_on_its_own_page_saves_a_read() {
        for page_size in [512, 4096] {
            // A root leaf of `k` intervals over 8 endpoints, with ids of 64
            // bits, so a block is full to within a few bytes.
            let leaf = |k: usize| -> Vec<Interval> {
                let wide =
                    |iv: Interval| Interval { id: iv.id.wrapping_mul(0x9e37_79b9_7f4a_7c15), ..iv };
                shared_endpoint_intervals(k).into_iter().map(wide).collect()
            };
            // Its stab's reads and its pages.
            let stab = |k: usize| {
                let intervals = leaf(k);
                let store = PageStore::in_memory(page_size);
                let tree = ExternalIntervalTree::build(&store, &intervals).unwrap();
                assert_eq!(crate::build::leaf_kinds(&tree, &store), (1, 0), "k = {k}: flat");
                let (got, reads) = stab_reads(&tree, &store, 3);
                assert_eq!(ids(got), brute(&intervals, 3), "k = {k}");
                (reads, store.live_pages())
            };
            let one_block = |k: usize| {
                let mut by_lo = leaf(k);
                by_lo.sort_unstable_by_key(|iv| (iv.lo, iv.hi, iv.id));
                pc_pagestore::layout::cut(&by_lo, page_size).len() == 1
            };
            let (mut fits, mut over) = (1, (1..).take_while(|&k| one_block(k)).last().unwrap());
            assert_eq!(stab(fits), (1, 1), "{page_size}: one interval");
            assert_eq!(stab(over), (2, 2), "{page_size}: a block of intervals");
            while over - fits > 1 {
                let mid = (fits + over) / 2;
                let at = stab(mid);
                if at == (1, 1) {
                    fits = mid;
                } else {
                    assert_eq!(at, (2, 2), "{page_size}, k = {mid}");
                    over = mid;
                }
            }
        }
    }

}
