//! Property tests for van Emde Boas repacking: for every structure kind,
//! a repacked copy must be observationally *bit-identical* — same answers
//! and the same strict-model transfer counts — and [`BlockList`] chains
//! must survive relocation (order and length) even when the destination
//! store satisfies allocations from a scrambled free list.

use pc_rng::check::{check, no_shrink, shrink_vec, Config};
use pc_rng::Rng;

use path_caching::intervaltree::ExternalIntervalTree;
use path_caching::segtree::CachedSegmentTree;
use path_caching::{Interval, PageStore, Point, TwoSided};
use pc_btree::BTree;
use pc_pagestore::layout::BlockList;
use pc_pagestore::repack::{chain_pages, copy_chain, Relocation};
use pc_pagestore::StoreError;
use pc_pst::{SegmentedPst, ThreeSided, ThreeSidedPst, TwoLevelPst};

macro_rules! ensure_eq {
    ($a:expr, $b:expr, $($arg:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!("{}: {:?} != {:?}", format_args!($($arg)+), a, b));
        }
    }};
}

fn gen_vec<T>(rng: &mut Rng, lo: usize, hi: usize, mut f: impl FnMut(&mut Rng) -> T) -> Vec<T> {
    let n = rng.gen_range(lo..hi);
    (0..n).map(|_| f(rng)).collect()
}

/// Runs `query` against both stores with stats reset, returning the
/// (answer, reads) pairs for comparison.
fn counted<T>(
    store: &PageStore,
    query: impl FnOnce(&PageStore) -> T,
) -> (T, u64) {
    store.reset_stats();
    let out = query(store);
    (out, store.stats().reads)
}

/// B-tree point lookups are bit-identical after repack, transfer counts
/// included.
#[test]
fn repacked_btree_is_bit_identical() {
    let generate = |rng: &mut Rng| {
        let keys = gen_vec(rng, 1, 500, |rng| rng.gen_range(-1000i64..1000));
        let probes = gen_vec(rng, 1, 40, |rng| rng.gen_range(-1100i64..1100));
        (keys, probes)
    };
    let shrink = |(keys, probes): &(Vec<i64>, Vec<i64>)| {
        shrink_vec(keys, no_shrink)
            .into_iter()
            .map(|k| (k, probes.clone()))
            .collect::<Vec<_>>()
    };
    check(&Config::with_cases(24), generate, shrink, |(keys, probes)| {
        let src = PageStore::in_memory(256);
        let mut tree: BTree<i64, u64> = BTree::new(&src).unwrap();
        for &k in keys {
            tree.insert(&src, k, k.unsigned_abs()).unwrap();
        }
        let dst = PageStore::in_memory(256);
        let packed = tree.repack(&src, &dst).unwrap();
        ensure_eq!(dst.live_pages(), src.live_pages(), "live pages");
        for &p in probes {
            let (a, ra) = counted(&src, |s| tree.get(s, &p).unwrap());
            let (b, rb) = counted(&dst, |s| packed.get(s, &p).unwrap());
            ensure_eq!(a, b, "get({p})");
            ensure_eq!(ra, rb, "get({p}) transfers");
        }
        Ok(())
    });
}

/// Cached segment-tree stabs are bit-identical after repack.
#[test]
fn repacked_segtree_is_bit_identical() {
    let generate = |rng: &mut Rng| {
        let raw = gen_vec(rng, 1, 300, |rng| {
            let lo = rng.gen_range(-500i64..500);
            (lo, lo + rng.gen_range(0i64..200))
        });
        let probes = gen_vec(rng, 1, 30, |rng| rng.gen_range(-600i64..800));
        (raw, probes)
    };
    let shrink = |(raw, probes): &(Vec<(i64, i64)>, Vec<i64>)| {
        shrink_vec(raw, no_shrink)
            .into_iter()
            .map(|r| (r, probes.clone()))
            .collect::<Vec<_>>()
    };
    check(&Config::with_cases(16), generate, shrink, |(raw, probes)| {
        let intervals: Vec<Interval> = raw
            .iter()
            .enumerate()
            .map(|(id, &(lo, hi))| Interval::new(lo, hi, id as u64))
            .collect();
        let src = PageStore::in_memory(512);
        let tree = CachedSegmentTree::build(&src, &intervals).unwrap();
        let dst = PageStore::in_memory(512);
        let packed = tree.repack(&src, &dst).unwrap();
        for &q in probes {
            let (a, ra) = counted(&src, |s| ids(tree.stab(s, q).unwrap()));
            let (b, rb) = counted(&dst, |s| ids(packed.stab(s, q).unwrap()));
            ensure_eq!(a, b, "stab({q})");
            ensure_eq!(ra, rb, "stab({q}) transfers");
        }
        Ok(())
    });
}

/// Interval-tree stabs are bit-identical after repack, page count
/// included, on data holding both kinds of run: the 8 smallest endpoints
/// carry more than a block of intervals (a mini segment tree), every
/// other run fits one block (flat). 45 wide intervals put more than a block
/// on one boundary node, so its lists have second blocks for the tables
/// below it to point at, and 20 copies of them do not fit a 512-byte
/// bundle page, so bundles with tails are moved too.
#[test]
fn repacked_intervaltree_is_bit_identical() {
    let generate = |rng: &mut Rng| {
        let mut raw = gen_vec(rng, 1, 300, |rng| {
            let lo = rng.gen_range(-500i64..500);
            (lo, lo + rng.gen_range(0i64..150))
        });
        raw.extend((0..45).map(|i| (-400 - i, 400 + i)));
        raw.extend(gen_vec(rng, 21, 80, |rng| {
            let lo = rng.gen_range(-1000i64..-992);
            (lo, rng.gen_range(lo..-992))
        }));
        let mut probes = gen_vec(rng, 1, 30, |rng| rng.gen_range(-600i64..800));
        probes.extend(-1001..=-991);
        (raw, probes)
    };
    let shrink = |(raw, probes): &(Vec<(i64, i64)>, Vec<i64>)| {
        shrink_vec(raw, no_shrink)
            .into_iter()
            .map(|r| (r, probes.clone()))
            .collect::<Vec<_>>()
    };
    check(&Config::with_cases(16), generate, shrink, |(raw, probes)| {
        let intervals: Vec<Interval> = raw
            .iter()
            .enumerate()
            .map(|(id, &(lo, hi))| Interval::new(lo, hi, id as u64))
            .collect();
        let src = PageStore::in_memory(512);
        let tree = ExternalIntervalTree::build(&src, &intervals).unwrap();
        let dst = PageStore::in_memory(512);
        let packed = tree.repack(&src, &dst).unwrap();
        ensure_eq!(dst.live_pages(), src.live_pages(), "live pages");
        for &q in probes {
            let (a, ra) = counted(&src, |s| ids(tree.stab(s, q).unwrap()));
            let (b, rb) = counted(&dst, |s| ids(packed.stab(s, q).unwrap()));
            ensure_eq!(a, b, "stab({q})");
            ensure_eq!(ra, rb, "stab({q}) transfers");
        }
        // Skeletal page and bundle, then a tail or a continuation: the
        // wide intervals all start left of 0.
        let (_, reads) = counted(&dst, |s| packed.stab(s, 0).unwrap());
        ensure_eq!(reads >= 4, true, "stab(0) reads {reads}");
        Ok(())
    });
}

/// Segmented and two-level PSTs answer 2-sided queries bit-identically
/// after repack.
#[test]
fn repacked_psts_are_bit_identical() {
    let generate = |rng: &mut Rng| {
        let points = gen_vec(rng, 1, 600, |rng| {
            (rng.gen_range(-800i64..800), rng.gen_range(-800i64..800))
        });
        let queries = gen_vec(rng, 1, 25, |rng| {
            (rng.gen_range(-900i64..900), rng.gen_range(-900i64..900))
        });
        (points, queries)
    };
    type Pairs = Vec<(i64, i64)>;
    let shrink = |(points, queries): &(Pairs, Pairs)| {
        shrink_vec(points, no_shrink)
            .into_iter()
            .map(|p| (p, queries.clone()))
            .collect::<Vec<_>>()
    };
    check(&Config::with_cases(12), generate, shrink, |(points, queries)| {
        let pts: Vec<Point> = points
            .iter()
            .enumerate()
            .map(|(id, &(x, y))| Point::new(x, y, id as u64))
            .collect();
        let src = PageStore::in_memory(512);
        let seg = SegmentedPst::build(&src, &pts).unwrap();
        let two = TwoLevelPst::build(&src, &pts).unwrap();
        let dst = PageStore::in_memory(512);
        let seg_packed = seg.repack(&src, &dst).unwrap();
        let two_packed = two.repack(&src, &dst).unwrap();
        for &(x0, y0) in queries {
            let q = TwoSided { x0, y0 };
            let (a, ra) = counted(&src, |s| pids(seg.query(s, q).unwrap()));
            let (b, rb) = counted(&dst, |s| pids(seg_packed.query(s, q).unwrap()));
            ensure_eq!(a, b, "segmented {q:?}");
            ensure_eq!(ra, rb, "segmented {q:?} transfers");
            let (a, ra) = counted(&src, |s| pids(two.query(s, q).unwrap()));
            let (b, rb) = counted(&dst, |s| pids(two_packed.query(s, q).unwrap()));
            ensure_eq!(a, b, "two-level {q:?}");
            ensure_eq!(ra, rb, "two-level {q:?} transfers");
        }
        Ok(())
    });
}

/// 3-sided queries are bit-identical after repack; each node's fused
/// directory page is relocated once and its Y-list through its own record
/// alone, so the page count is too, class by class. Up to 1 500 points on
/// 60-point nodes: Y-lists of three blocks, four tree levels, and bands
/// wide and low enough that cached siblings continue from the second
/// blocks the records name.
#[test]
fn repacked_three_sided_pst_is_bit_identical() {
    let generate = |rng: &mut Rng| {
        // Few distinct xs: A-list blocks break inside runs of x-ties.
        let points = gen_vec(rng, 1, 1500, |rng| {
            (rng.gen_range(-40i64..40), rng.gen_range(-800i64..800))
        });
        let mut queries = gen_vec(rng, 1, 25, |rng| {
            let x1 = rng.gen_range(-45i64..45);
            (x1, x1 + rng.gen_range(0i64..90), rng.gen_range(-900i64..900))
        });
        queries.push((-45, 45, -900));
        (points, queries)
    };
    type Case = (Vec<(i64, i64)>, Vec<(i64, i64, i64)>);
    let shrink = |(points, queries): &Case| {
        shrink_vec(points, no_shrink)
            .into_iter()
            .map(|p| (p, queries.clone()))
            .collect::<Vec<_>>()
    };
    check(&Config::with_cases(12), generate, shrink, |(points, queries)| {
        let pts: Vec<Point> = points
            .iter()
            .enumerate()
            .map(|(id, &(x, y))| Point::new(x, y, id as u64))
            .collect();
        let src = PageStore::in_memory(512);
        let pst = ThreeSidedPst::build(&src, &pts).unwrap();
        let dst = PageStore::in_memory(512);
        let packed = pst.repack(&src, &dst).unwrap();
        ensure_eq!(dst.live_pages(), src.live_pages(), "live pages");
        ensure_eq!(packed.page_census(&dst).unwrap(), pst.page_census(&src).unwrap(), "census");
        for &(x1, x2, y0) in queries {
            let q = ThreeSided { x1, x2, y0 };
            let (a, ra) = counted(&src, |s| pids(pst.query(s, q).unwrap()));
            let (b, rb) = counted(&dst, |s| pids(packed.query(s, q).unwrap()));
            ensure_eq!(a, b, "{q:?}");
            ensure_eq!(ra, rb, "{q:?} transfers");
        }
        Ok(())
    });
}

/// A relocated chain preserves record order and page count even when the
/// destination allocator satisfies the relocation from a scrambled free
/// list (freshly freed pages are reused in LIFO order).
#[test]
fn blocklist_chain_survives_relocation_through_a_free_list() {
    let generate = |rng: &mut Rng| {
        let items = gen_vec(rng, 1, 400, |rng| rng.gen_range(-10_000i64..10_000));
        let holes = rng.gen_range(1usize..40);
        (items, holes)
    };
    let shrink = |(items, holes): &(Vec<i64>, usize)| {
        shrink_vec(items, no_shrink)
            .into_iter()
            .map(|v| (v, *holes))
            .collect::<Vec<_>>()
    };
    check(&Config::with_cases(24), generate, shrink, |(items, holes)| {
        let src = PageStore::in_memory(256);
        let ivs: Vec<Interval> =
            items.iter().enumerate().map(|(i, &v)| Interval::new(v, v, i as u64)).collect();
        let list = BlockList::build(&src, &ivs).unwrap();
        let pages = chain_pages(&src, list.head()).unwrap();

        // Seed the destination's free list so alloc order != page order.
        let dst = PageStore::in_memory(256);
        let scratch: Vec<_> = (0..*holes).map(|_| dst.alloc().unwrap()).collect();
        for id in scratch {
            dst.free(id).unwrap();
        }
        // Chains are attached pages in real repacks; here relocate the raw
        // page sequence directly.
        let reloc = Relocation::alloc_in(&pages, &dst).unwrap();
        copy_chain(&src, &dst, list.head(), &reloc).unwrap();
        let moved = list.with_head(reloc.get(list.head()).unwrap());

        ensure_eq!(moved.len(), list.len(), "logical length");
        let dst_pages = chain_pages(&dst, moved.head()).unwrap();
        ensure_eq!(dst_pages.len(), pages.len(), "chain page count");
        let a: Vec<Interval> =
            list.blocks(&src).collect::<Result<Vec<_>, _>>().unwrap().concat();
        let b: Vec<Interval> =
            moved.blocks(&dst).collect::<Result<Vec<_>, _>>().unwrap().concat();
        ensure_eq!(a, b, "record order");
        Ok(())
    });
}

/// Repacking out of a durable store with unflushed dirty pages is refused
/// with the typed error; after a checkpoint it succeeds.
#[test]
fn repack_refuses_dirty_durable_store() {
    let (src, _report) = PageStore::in_memory_durable(256);
    let mut tree: BTree<i64, u64> = BTree::new(&src).unwrap();
    for k in 0..200 {
        tree.insert(&src, k, k as u64).unwrap();
    }
    src.sync().unwrap();
    let dst = PageStore::in_memory(256);
    match tree.repack(&src, &dst) {
        Err(StoreError::DirtyStore { dirty_pages }) => assert!(dirty_pages > 0),
        other => panic!("expected DirtyStore, got {other:?}"),
    }
    src.checkpoint().unwrap();
    let packed = tree.repack(&src, &dst).unwrap();
    assert_eq!(packed.get(&dst, &42).unwrap(), Some(42));
}

fn ids(mut v: Vec<Interval>) -> Vec<u64> {
    let mut out: Vec<u64> = v.drain(..).map(|i| i.id).collect();
    out.sort_unstable();
    out
}

fn pids(mut v: Vec<Point>) -> Vec<u64> {
    let mut out: Vec<u64> = v.drain(..).map(|p| p.id).collect();
    out.sort_unstable();
    out
}
