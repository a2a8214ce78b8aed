//! External segment-tree queries: naive vs path-cached.

use pc_btree::BTree;
use pc_pagestore::codec::{PageReader, PageWriter};
use pc_pagestore::layout::BlockList;
use pc_pagestore::{Interval, PageId, PageStore, Record, Result};

use crate::build::{
    block_capacity, build_external, decode_record, decode_shared_dir_id, read_shared_dir,
    read_shared_range, shared_page_capacity, BuiltTree,
};

/// A serializable, copyable reference to a built segment tree.
///
/// Lets other structures embed a whole (cached) segment tree inside one of
/// their own page records — the external interval tree stores one per
/// endpoint run. 36 bytes: the root page, the endpoint B-tree's
/// descriptor and `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegTreeHandle {
    root_page: PageId,
    endpoint_tree: BTree,
    n: u64,
}

impl Record for SegTreeHandle {
    const ENCODED_LEN: usize = 16 + BTree::DESCRIPTOR_LEN;

    fn encode(&self, w: &mut PageWriter<'_>) -> Result<()> {
        w.put_u64(self.root_page.0)?;
        w.put_bytes(&self.endpoint_tree.descriptor())?;
        w.put_u64(self.n)
    }

    fn decode(r: &mut PageReader<'_>) -> Result<Self> {
        Ok(SegTreeHandle {
            root_page: PageId(r.get_u64()?),
            endpoint_tree: BTree::open(r.get_bytes(BTree::DESCRIPTOR_LEN)?)?,
            n: r.get_u64()?,
        })
    }
}

/// Per-query I/O profile, the measured quantity of experiment E2.
///
/// Output I/Os are classified exactly as in §2 of the paper: a block read
/// that returns a full block of result intervals is *useful*; one returning
/// fewer is *wasteful*. Navigation I/Os (skeletal pages, endpoint B-tree)
/// are reported separately as `search_ios`.
#[derive(Debug, Clone, Default)]
pub struct QueryProfile {
    /// The reported intervals (each contains the query point).
    pub results: Vec<Interval>,
    /// Root-to-leaf navigation page reads (`O(log_B n)`).
    pub search_ios: u64,
    /// Output block reads returning a full block.
    pub useful_ios: u64,
    /// Output block reads returning a partial block.
    pub wasteful_ios: u64,
}

impl QueryProfile {
    /// Total page reads for the query.
    pub fn total_ios(&self) -> u64 {
        self.search_ios + self.useful_ios + self.wasteful_ios
    }
}

/// Shared query engine; `CACHED` selects the §2 path-cached read strategy.
struct Engine<'a> {
    store: &'a PageStore,
    tree: &'a BuiltTree,
    cached: bool,
}

impl Engine<'_> {
    /// Maps a query point to its elementary-slab index using the external
    /// endpoint B-tree (`O(log_B n)` I/Os, counted by the caller via store
    /// stats).
    fn slab_of_query(&self, q: i64) -> Result<u32> {
        Ok(match self.tree.endpoint_tree.pred(self.store, &q)? {
            None => 0,
            Some((e, j)) if e == q => 2 * j as u32 + 1,
            Some((_, j)) => 2 * j as u32 + 2,
        })
    }

    /// Reads a whole block list, classifying each block as useful/wasteful.
    fn drain_list(&self, list: &BlockList<Interval>, profile: &mut QueryProfile) -> Result<()> {
        let cap = block_capacity(self.store.page_size());
        let _span = pc_obs::span!(output: "cover_list");
        pc_obs::set_block_capacity(cap as u64);
        for block in list.blocks(self.store) {
            let block = block?;
            if block.len() >= cap {
                profile.useful_ios += 1;
            } else {
                profile.wasteful_ios += 1;
            }
            pc_obs::add_items(block.len() as u64);
            profile.results.extend(block);
        }
        Ok(())
    }

    /// Reads a slice of the current page's shared region, lazily loading
    /// the region directory (the directory read lands in `search_ios`).
    fn drain_shared(
        &self,
        page: &[u8],
        dir_cache: &mut Option<Vec<PageId>>,
        off: u32,
        len: u32,
        profile: &mut QueryProfile,
    ) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        if dir_cache.is_none() {
            // Loaded before the output span opens: the directory read is a
            // navigation I/O, exactly as `search_ios` classifies it.
            let dir_id = decode_shared_dir_id(page)?;
            *dir_cache = Some(read_shared_dir(self.store, dir_id)?);
        }
        let dir = dir_cache.as_ref().expect("just loaded");
        let cap = shared_page_capacity(self.store.page_size()) as u64;
        let _span = pc_obs::span!(output: "shared_scan");
        pc_obs::set_block_capacity(cap);
        let (entries, blocks) = read_shared_range(self.store, dir, off, len)?;
        pc_obs::add_items(entries.len() as u64);
        let useful = u64::from(len) / cap;
        profile.useful_ios += useful;
        profile.wasteful_ios += blocks - useful;
        profile.results.extend(entries);
        Ok(())
    }

    fn stab(&self, q: i64) -> Result<QueryProfile> {
        let _span = pc_obs::span!("segtree_stab");
        let mut profile = QueryProfile::default();
        let before = self.store.stats();
        let target = self.slab_of_query(q)?;

        let mut cur_page = self.tree.root_page;
        let mut cur_slot = 0u16;
        // Slot through which the path entered the current page; its record
        // carries the above-path cache for this page visit.
        let mut entry_slot = 0u16;
        let mut skeletal_depth = 0u64;
        let mut page = {
            let _lvl = pc_obs::span!("level", skeletal_depth);
            self.store.read(cur_page)?
        };
        let mut dir_cache: Option<Vec<PageId>> = None;
        loop {
            let rec = decode_record(&page, cur_slot)?;
            if self.cached && cur_slot == entry_slot && rec.above_len > 0 {
                // Page entry: the previous page's segment cache.
                self.drain_shared(&page, &mut dir_cache, rec.above_off, rec.above_len, &mut profile)?;
            }
            if !rec.cover_full.is_empty() {
                // Full cover-lists are read directly in both variants.
                self.drain_list(&rec.cover_full, &mut profile)?;
            }
            if !self.cached && rec.shared_len > 0 {
                // Naive: the underfull cover-list, packed in the shared
                // region — still a dedicated read per path node.
                self.drain_shared(&page, &mut dir_cache, rec.shared_off, rec.shared_len, &mut profile)?;
            }
            if rec.left.page.is_null() {
                // Binary leaf reached.
                if self.cached {
                    // The bottom page's own segment: the leaf's in-page
                    // cache slice.
                    self.drain_shared(&page, &mut dir_cache, rec.shared_off, rec.shared_len, &mut profile)?;
                }
                break;
            }
            let next = if target <= rec.split { rec.left } else { rec.right };
            if next.page != cur_page {
                cur_page = next.page;
                skeletal_depth += 1;
                let _lvl = pc_obs::span!("level", skeletal_depth);
                page = self.store.read(cur_page)?;
                dir_cache = None;
                entry_slot = next.slot;
            }
            cur_slot = next.slot;
        }

        // Saturating: on a durable store, reads served from the WAL dirty
        // table are not backend transfers, so the output-block counts can
        // exceed the read delta. The paper's exact accounting holds in the
        // volatile stores the experiments use, strict or pooled.
        let total_reads = (self.store.stats() - before).logical_reads();
        profile.search_ios =
            total_reads.saturating_sub(profile.useful_ios + profile.wasteful_ios);
        Ok(profile)
    }
}

macro_rules! segment_tree_variant {
    ($(#[$doc:meta])* $name:ident, $cached:expr) => {
        $(#[$doc])*
        pub struct $name {
            built: BuiltTree,
        }

        impl $name {
            /// Builds the structure over `intervals` in the given store.
            pub fn build(store: &PageStore, intervals: &[Interval]) -> Result<Self> {
                Ok($name { built: build_external(store, intervals, $cached)? })
            }

            /// Number of indexed intervals.
            pub fn len(&self) -> u64 {
                self.built.n
            }

            /// True when the structure indexes no intervals.
            pub fn is_empty(&self) -> bool {
                self.built.n == 0
            }

            /// Stabbing query: all intervals containing `q`.
            pub fn stab(&self, store: &PageStore, q: i64) -> Result<Vec<Interval>> {
                Ok(self.stab_profiled(store, q)?.results)
            }

            /// Stabbing query with a full I/O profile (experiment E2).
            pub fn stab_profiled(&self, store: &PageStore, q: i64) -> Result<QueryProfile> {
                Engine { store, tree: &self.built, cached: $cached }.stab(q)
            }

            /// A compact, serializable reference to this tree, suitable for
            /// embedding in another structure's pages.
            pub fn handle(&self) -> SegTreeHandle {
                let BuiltTree { root_page, endpoint_tree, n } = self.built;
                SegTreeHandle { root_page, endpoint_tree, n }
            }

            /// Reconstructs the tree from a previously obtained handle.
            pub fn from_handle(h: SegTreeHandle) -> Self {
                let SegTreeHandle { root_page, endpoint_tree, n } = h;
                $name { built: BuiltTree { root_page, endpoint_tree, n } }
            }
        }
    };
}

segment_tree_variant!(
    /// Skeletal-blocked external segment tree **without** path caches
    /// (§2 before the fix): `O(log n + t/B)` query I/Os because every
    /// nonempty cover-list on the path is read, underfull or not.
    NaiveSegmentTree,
    false
);

segment_tree_variant!(
    /// Path-cached external segment tree (Theorem 3.4): `O(log_B n + t/B)`
    /// query I/Os; underfull cover-lists are served from the bottom page's
    /// above-path cache and the leaf's in-page cache.
    CachedSegmentTree,
    true
);

#[cfg(test)]
mod tests {
    use super::*;
    use pc_pagestore::PageStore;

    fn iv(lo: i64, hi: i64, id: u64) -> Interval {
        Interval::new(lo, hi, id)
    }

    fn ids(mut v: Vec<Interval>) -> Vec<u64> {
        let mut ids: Vec<u64> = v.drain(..).map(|i| i.id).collect();
        ids.sort_unstable();
        ids
    }

    fn xorshift(state: &mut u64, bound: i64) -> i64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state % bound as u64) as i64
    }

    fn random_intervals(n: usize, seed: u64) -> Vec<Interval> {
        let mut s = seed;
        (0..n)
            .map(|id| {
                let a = xorshift(&mut s, 10_000);
                iv(a, a + xorshift(&mut s, 500), id as u64)
            })
            .collect()
    }

    #[test]
    fn empty_tree_answers_empty() {
        let store = PageStore::in_memory(512);
        let tree = CachedSegmentTree::build(&store, &[]).unwrap();
        assert!(tree.is_empty());
        assert!(tree.stab(&store, 5).unwrap().is_empty());
    }

    #[test]
    fn single_interval() {
        let store = PageStore::in_memory(512);
        let tree = CachedSegmentTree::build(&store, &[iv(10, 20, 7)]).unwrap();
        assert_eq!(ids(tree.stab(&store, 10).unwrap()), vec![7]);
        assert_eq!(ids(tree.stab(&store, 20).unwrap()), vec![7]);
        assert_eq!(ids(tree.stab(&store, 15).unwrap()), vec![7]);
        assert!(tree.stab(&store, 9).unwrap().is_empty());
        assert!(tree.stab(&store, 21).unwrap().is_empty());
    }

    #[test]
    fn cached_has_fewer_wasteful_ios_than_naive() {
        // Many long intervals spread allocations over the whole path: the
        // naive variant pays a wasteful I/O per underfull list.
        let store = PageStore::in_memory(512);
        let intervals = random_intervals(2000, 0xabcd);
        let naive = NaiveSegmentTree::build(&store, &intervals).unwrap();
        let cached = CachedSegmentTree::build(&store, &intervals).unwrap();
        let mut s = 0x2222u64;
        let mut naive_wasteful = 0;
        let mut cached_wasteful = 0;
        let mut queries = 0;
        for _ in 0..50 {
            let q = xorshift(&mut s, 10_000);
            let pn = naive.stab_profiled(&store, q).unwrap();
            let pc = cached.stab_profiled(&store, q).unwrap();
            assert_eq!(ids(pn.results.clone()), ids(pc.results.clone()));
            naive_wasteful += pn.wasteful_ios;
            cached_wasteful += pc.wasteful_ios;
            queries += 1;
        }
        assert!(
            cached_wasteful < naive_wasteful,
            "cached {cached_wasteful} vs naive {naive_wasteful} over {queries} queries"
        );
        // The cached variant reads one small segment cache per page
        // crossing (O(log_B n) of them — §2's optimization (2)) plus
        // partial tails of full lists; with 512-byte pages the path
        // crosses ~5 pages, so ~8 wasteful I/Os per query is the expected
        // ceiling.
        assert!(cached_wasteful <= 8 * queries, "cached_wasteful={cached_wasteful}");
    }

    #[test]
    fn cached_query_io_is_optimal_shape() {
        let store = PageStore::in_memory(512);
        let intervals = random_intervals(5000, 0x5eed);
        let tree = CachedSegmentTree::build(&store, &intervals).unwrap();
        let cap = block_capacity(512) as u64;
        let mut s = 0x3333u64;
        for _ in 0..50 {
            let q = xorshift(&mut s, 10_000);
            let p = tree.stab_profiled(&store, q).unwrap();
            let t = p.results.len() as u64;
            // O(log_B n) navigation (skeletal pages + endpoint B-tree +
            // one shared-region directory per visited page).
            assert!(p.search_ios <= 18, "search {} too high", p.search_ios);
            // Output cost <= 2 t/B + O(log_B n): one partially-filled
            // cache slice per page crossing plus partial list tails.
            assert!(
                p.useful_ios + p.wasteful_ios <= 2 * (t / cap) + 12,
                "output ios {} for t={t}",
                p.useful_ios + p.wasteful_ios
            );
        }
    }

    #[test]
    fn handle_reconstructs_a_working_tree() {
        let store = PageStore::in_memory(512);
        let intervals = random_intervals(300, 0x4242);
        let tree = CachedSegmentTree::build(&store, &intervals).unwrap();
        let handle = tree.handle();
        let restored = CachedSegmentTree::from_handle(handle);
        assert_eq!(restored.len(), tree.len());
        let mut s = 0x777u64;
        for _ in 0..30 {
            let q = xorshift(&mut s, 11_000) - 200;
            assert_eq!(
                ids(restored.stab(&store, q).unwrap()),
                ids(tree.stab(&store, q).unwrap()),
                "q={q}"
            );
        }
        // And the handle round-trips through its Record encoding, the
        // endpoint tree's descriptor with it.
        assert_eq!(SegTreeHandle::ENCODED_LEN, 36);
        let mut buf = vec![0u8; SegTreeHandle::ENCODED_LEN];
        let mut w = PageWriter::new(&mut buf);
        handle.encode(&mut w).unwrap();
        let mut r = PageReader::new(&buf);
        assert_eq!(SegTreeHandle::decode(&mut r).unwrap(), handle);
    }

    #[test]
    fn shared_endpoints_roundtrip_externally() {
        let store = PageStore::in_memory(512);
        let intervals =
            vec![iv(5, 5, 0), iv(5, 10, 1), iv(0, 5, 2), iv(10, 10, 3), iv(0, 10, 4)];
        let tree = CachedSegmentTree::build(&store, &intervals).unwrap();
        assert_eq!(ids(tree.stab(&store, 5).unwrap()), vec![0, 1, 2, 4]);
        assert_eq!(ids(tree.stab(&store, 10).unwrap()), vec![1, 3, 4]);
        assert_eq!(ids(tree.stab(&store, 7).unwrap()), vec![1, 4]);
    }
}
