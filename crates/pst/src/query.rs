//! The 2-sided query engine shared by the naive, basic, and segmented
//! variants (§3 of the paper).

use pc_pagestore::layout::BlockList;
use pc_pagestore::search::partition_point;
use pc_pagestore::{Frame, PageId, PageStore, Point, Result};

use crate::build::{
    decode_record, points_capacity, read_points_page, CacheMode, PstCore, SEntry, SkeletalRecord,
};
use crate::mem::TwoSided;

/// I/O breakdown of one query, in page reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryCounters {
    /// Skeletal page reads (navigation).
    pub skeletal: u64,
    /// A-list / S-list block reads.
    pub cache_blocks: u64,
    /// Region (points page) reads: corner, ancestors, siblings,
    /// descendants.
    pub node_blocks: u64,
}

impl QueryCounters {
    /// Total page reads.
    pub fn total(&self) -> u64 {
        self.skeletal + self.cache_blocks + self.node_blocks
    }
}

/// Runs a 2-sided query against a built single-level structure.
pub fn run_two_sided(
    store: &PageStore,
    core: &PstCore,
    q: TwoSided,
) -> Result<(Vec<Point>, QueryCounters)> {
    let _span = pc_obs::span!(match core.mode {
        CacheMode::None => "pst2_naive",
        CacheMode::FullPath => "pst2_fullpath",
        CacheMode::InPage => "pst2_segmented",
    });
    let cap = points_capacity(store.page_size(), core.frame) as u16;
    pc_obs::set_block_capacity(u64::from(cap));
    let mut ctx = Ctx {
        store,
        frame: core.frame,
        q,
        cap,
        results: Vec::new(),
        counters: QueryCounters::default(),
    };
    // Per path depth, the right sibling left behind there, if any:
    // (points page, count).
    let mut sib: Vec<Option<(PageId, u16)>> = Vec::new();
    // The A- and S-list of the node in hand, picked up from its ancestors'
    // records on the way down (see the `build` module header).
    let mut cur_a: BlockList<Point> = BlockList::empty();
    let mut cur_s: BlockList<SEntry> = BlockList::empty();

    let mut cur_page_id = core.root_page;
    let mut page = {
        let _lvl = pc_obs::span!("level", 0u64);
        store.read(cur_page_id)?
    };
    ctx.counters.skeletal += 1;
    let mut slot = 0u16;
    loop {
        let rec = decode_record(&page, slot)?;
        let is_leaf = rec.left.page.is_null();
        let is_corner = rec.own_cnt == 0 || rec.min_y.y < q.y0 || is_leaf;
        if is_corner {
            match core.mode {
                CacheMode::None => {
                    ctx.read_own_filtered(&rec, true)?;
                }
                CacheMode::FullPath | CacheMode::InPage => {
                    ctx.drain_caches_and_seed(&cur_a, &cur_s, &sib)?;
                    ctx.read_own_filtered(&rec, true)?;
                }
            }
            break;
        }

        // v is a proper ancestor of the corner: all its points satisfy
        // y >= y0, and the path continues below.
        let go_left = q.x0 <= rec.split.x;
        sib.push((go_left && rec.right_cnt > 0).then_some((rec.right_pts, rec.right_cnt)));
        let next = if go_left { rec.left } else { rec.right };
        let crosses_page = next.page != cur_page_id;

        match core.mode {
            CacheMode::None => {
                // Read every path node and every right sibling directly —
                // the Figure 3 pathology, one block each.
                ctx.read_own_filtered(&rec, true)?;
                if go_left && rec.right_cnt > 0 {
                    ctx.traverse(rec.right_pts, true)?;
                }
            }
            CacheMode::FullPath => {
                // Everything is served by the corner's full-path caches.
            }
            CacheMode::InPage => {
                if crosses_page {
                    // Segment exit: settle this page's ancestors/siblings.
                    // The exit's own right sibling belongs to no S-list
                    // (the next segment's caches restart below it), so it
                    // is read directly — one paid I/O per segment.
                    ctx.drain_caches_and_seed(&cur_a, &cur_s, &sib)?;
                    ctx.read_own_filtered(&rec, false)?;
                    if go_left && rec.right_cnt > 0 {
                        ctx.traverse(rec.right_pts, true)?;
                    }
                }
            }
        }

        if crosses_page {
            cur_page_id = next.page;
            let _lvl = pc_obs::span!("level", ctx.counters.skeletal);
            page = store.read(cur_page_id)?;
            ctx.counters.skeletal += 1;
        }
        if crosses_page && core.mode == CacheMode::InPage {
            (cur_a, cur_s) = (BlockList::empty(), BlockList::empty());
        } else {
            cur_a = rec.child_a;
            if go_left {
                cur_s = rec.left_s;
            }
        }
        slot = next.slot;
    }
    Ok((ctx.results, ctx.counters))
}

struct Ctx<'a> {
    store: &'a PageStore,
    frame: Frame,
    q: TwoSided,
    cap: u16,
    results: Vec<Point>,
    counters: QueryCounters,
}

impl Ctx<'_> {
    /// Reads a path node's own block and keeps the qualifying points.
    ///
    /// `output_scan` distinguishes reads whose cost the paper amortizes
    /// against the output (the corner's block, and every per-ancestor read
    /// the naive variant makes — the Figure 3 pathology) from the cached
    /// variants' segment-exit reads, which are part of the fixed
    /// `O(1)`-per-segment search overhead and therefore never wasteful.
    fn read_own_filtered(&mut self, rec: &SkeletalRecord, output_scan: bool) -> Result<()> {
        if rec.own_cnt == 0 {
            return Ok(());
        }
        let _scan = if output_scan {
            pc_obs::span!(output: "node_block")
        } else {
            pc_obs::span!("node_block")
        };
        let before = self.results.len();
        let pp = read_points_page(self.store, self.frame, rec.own_pts)?;
        self.counters.node_blocks += 1;
        // Points are descending by y-key, so the y-qualifiers are a prefix.
        let cut = partition_point(&pp.points, |p| p.y >= self.q.y0);
        self.results.extend(pp.points[..cut].iter().filter(|p| p.x >= self.q.x0));
        pc_obs::add_items((self.results.len() - before) as u64);
        Ok(())
    }

    /// Reads a node's A- and S-lists (answer prefixes), then seeds the
    /// descendant traversal for every sibling whose points all qualified.
    fn drain_caches_and_seed(
        &mut self,
        a_list: &BlockList<Point>,
        s_list: &BlockList<SEntry>,
        sib: &[Option<(PageId, u16)>],
    ) -> Result<()> {
        // A-list: descending x; prefix with x >= x0 qualifies (covered
        // ancestors are all above the corner, so y >= y0 holds).
        // S-entries are counted per source depth; the traversals below run,
        // and report, in depth order.
        let mut qualified = vec![0u16; sib.len()];
        {
            let _probe = pc_obs::span!("path_cache_probe");
            let before = self.results.len();
            'a_scan: for block in a_list.blocks(self.store, self.frame) {
                self.counters.cache_blocks += 1;
                for p in block? {
                    if p.x < self.q.x0 {
                        break 'a_scan;
                    }
                    self.results.push(p);
                }
            }
            // S-list: descending y; prefix with y >= y0 qualifies (siblings
            // lie wholly right of x0). Count per source depth for the
            // descent rule.
            's_scan: for block in s_list.blocks(self.store, self.frame) {
                self.counters.cache_blocks += 1;
                for e in block? {
                    if e.p.y < self.q.y0 {
                        break 's_scan;
                    }
                    self.results.push(e.p);
                    qualified[e.depth as usize] += 1;
                }
            }
            pc_obs::add_items((self.results.len() - before) as u64);
        }
        // Descend into a sibling's children only when its region is fully
        // inside the query (§3's paid-for rule). Underfull nodes are leaves
        // by construction, so only full blocks can have children.
        for (sibling, cnt) in sib.iter().zip(qualified) {
            match *sibling {
                Some((pts, total)) if cnt == total && total == self.cap => {
                    self.traverse(pts, false)?
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn traverse(&mut self, pts_page: PageId, add: bool) -> Result<()> {
        let (store, frame, y0) = (self.store, self.frame, self.q.y0);
        traverse_descendants(store, frame, pts_page, add, y0, &mut self.results, &mut self.counters)
    }
}

/// Top-down descendant traversal (Figure 4): visit a node, keep its points
/// with `y >= y0`, and recurse only when *all* points qualified. With
/// `add = false` the node's points were already reported (from an S-list);
/// the read only fetches its child links. Only this 2-sided engine uses it
/// (the 3-sided one reads Y-lists, whose links are in the skeletal
/// records); visited subtrees lie wholly inside the query's x-range, so
/// only the y-filter applies.
fn traverse_descendants(
    store: &PageStore,
    frame: Frame,
    pts_page: PageId,
    add: bool,
    y0: i64,
    results: &mut Vec<Point>,
    counters: &mut QueryCounters,
) -> Result<()> {
    let _span = pc_obs::span!(output: "traverse");
    let before = results.len();
    let r = traverse_descendants_inner(store, frame, pts_page, add, y0, results, counters);
    pc_obs::add_items((results.len() - before) as u64);
    r
}

fn traverse_descendants_inner(
    store: &PageStore,
    frame: Frame,
    pts_page: PageId,
    add: bool,
    y0: i64,
    results: &mut Vec<Point>,
    counters: &mut QueryCounters,
) -> Result<()> {
    let mut stack = vec![(pts_page, add)];
    while let Some((page_id, add)) = stack.pop() {
        let pp = read_points_page(store, frame, page_id)?;
        counters.node_blocks += 1;
        // Points are descending by y-key, so the y-qualifiers are a prefix.
        let cut = partition_point(&pp.points, |p| p.y >= y0);
        if add {
            results.extend_from_slice(&pp.points[..cut]);
        }
        if cut == pp.points.len() && !pp.points.is_empty() {
            if !pp.left_pts.is_null() && pp.left_cnt > 0 {
                stack.push((pp.left_pts, true));
            }
            if !pp.right_pts.is_null() && pp.right_cnt > 0 {
                stack.push((pp.right_pts, true));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{BasicPst, NaivePst, SegmentedPst};
    use pc_pagestore::PageStore;

    fn xorshift(state: &mut u64, bound: i64) -> i64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state % bound as u64) as i64
    }

    fn random_points(n: usize, domain: i64, seed: u64) -> Vec<Point> {
        let mut s = seed;
        (0..n)
            .map(|id| Point::new(xorshift(&mut s, domain), xorshift(&mut s, domain), id as u64))
            .collect()
    }

    fn brute(points: &[Point], q: TwoSided) -> Vec<u64> {
        let mut ids: Vec<u64> =
            points.iter().filter(|p| q.contains(p)).map(|p| p.id).collect();
        ids.sort_unstable();
        ids
    }

    fn ids(mut pts: Vec<Point>) -> Vec<u64> {
        let mut out: Vec<u64> = pts.drain(..).map(|p| p.id).collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn all_variants_match_brute_force() {
        let pts = random_points(3000, 10_000, 0xc0ffee);
        let store = PageStore::in_memory(512);
        let naive = NaivePst::build(&store, &pts).unwrap();
        let basic = BasicPst::build(&store, &pts).unwrap();
        let seg = SegmentedPst::build(&store, &pts).unwrap();
        let mut s = 0x77u64;
        for i in 0..150 {
            let q = TwoSided {
                x0: xorshift(&mut s, 11_000) - 500,
                y0: xorshift(&mut s, 11_000) - 500,
            };
            let want = brute(&pts, q);
            let rn = naive.query(&store, q).unwrap();
            assert_eq!(rn.len(), want.len(), "naive dup? q{i}={q:?}");
            assert_eq!(ids(rn), want, "naive q{i}={q:?}");
            let rb = basic.query(&store, q).unwrap();
            assert_eq!(rb.len(), want.len(), "basic dup? q{i}={q:?}");
            assert_eq!(ids(rb), want, "basic q{i}={q:?}");
            let rs = seg.query(&store, q).unwrap();
            assert_eq!(rs.len(), want.len(), "segmented dup? q{i}={q:?}");
            assert_eq!(ids(rs), want, "segmented q{i}={q:?}");
        }
    }

    #[test]
    fn duplicate_heavy_input_is_exact() {
        // Points stacked on few coordinates; boundary queries hit ties.
        let mut pts = Vec::new();
        for i in 0..900u64 {
            pts.push(Point::new((i % 3) as i64 * 10, (i % 5) as i64 * 10, i));
        }
        let store = PageStore::in_memory(512);
        let seg = SegmentedPst::build(&store, &pts).unwrap();
        let naive = NaivePst::build(&store, &pts).unwrap();
        for x0 in [-1, 0, 5, 10, 20, 21] {
            for y0 in [-1, 0, 10, 25, 40, 41] {
                let q = TwoSided { x0, y0 };
                let want = brute(&pts, q);
                assert_eq!(ids(seg.query(&store, q).unwrap()), want, "{q:?}");
                assert_eq!(ids(naive.query(&store, q).unwrap()), want, "{q:?}");
            }
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let store = PageStore::in_memory(512);
        let pst = SegmentedPst::build(&store, &[]).unwrap();
        assert!(pst.is_empty());
        assert!(pst.query(&store, TwoSided { x0: 0, y0: 0 }).unwrap().is_empty());

        let one = vec![Point::new(5, 5, 1)];
        let pst = SegmentedPst::build(&store, &one).unwrap();
        assert_eq!(pst.query(&store, TwoSided { x0: 5, y0: 5 }).unwrap().len(), 1);
        assert_eq!(pst.query(&store, TwoSided { x0: 6, y0: 5 }).unwrap().len(), 0);
    }

    #[test]
    fn cached_variants_meet_optimal_io_bound() {
        let pts = random_points(20_000, 100_000, 0xf00d);
        let store = PageStore::in_memory(512);
        let basic = BasicPst::build(&store, &pts).unwrap();
        let seg = SegmentedPst::build(&store, &pts).unwrap();
        let b = points_capacity(512, basic.frame()) as u64;
        // log_B n with B=20, n=20k: ~3.3 skeletal pages.
        let mut s = 0xabcdu64;
        for _ in 0..60 {
            let q = TwoSided {
                x0: xorshift(&mut s, 100_000),
                y0: xorshift(&mut s, 100_000),
            };
            for (name, (res, c)) in [
                ("basic", basic.query_counted(&store, q).unwrap()),
                ("segmented", seg.query_counted(&store, q).unwrap()),
            ] {
                let t = res.len() as u64;
                let logb_n = 5u64;
                let allowed = 6 * logb_n + 5 * (t / b + 1);
                assert!(
                    c.total() <= allowed,
                    "{name}: io={} t={t} allowed={allowed} ({c:?})",
                    c.total()
                );
            }
        }
    }

    #[test]
    fn naive_pays_the_log_n_tax_on_small_outputs() {
        // Large n, t = 0, corner at the bottom of the rightmost path: the
        // naive structure reads every one of the ~log2(n/B) path blocks,
        // while the segmented one touches ~3 reads per skeletal page
        // (log_B n pages). Requires pages large enough for the skeletal
        // height h to beat the per-segment constant (4096 => h = 5).
        let pts = random_points(200_000, 1_000_000, 0xbeef);
        let store = PageStore::in_memory(4096);
        let naive = NaivePst::build(&store, &pts).unwrap();
        let seg = SegmentedPst::build(&store, &pts).unwrap();
        let mut s = 0x1234u64;
        let mut naive_total = 0u64;
        let mut seg_total = 0u64;
        for _ in 0..20 {
            // Just beyond the domain: empty output, deepest corner.
            let q = TwoSided { x0: 1_000_001 + xorshift(&mut s, 100), y0: 0 };
            let (rn, cn) = naive.query_counted(&store, q).unwrap();
            let (rs, cs) = seg.query_counted(&store, q).unwrap();
            assert!(rn.is_empty() && rs.is_empty());
            naive_total += cn.total();
            seg_total += cs.total();
        }
        assert!(
            naive_total > seg_total + seg_total / 3,
            "expected naive ({naive_total}) to clearly exceed segmented ({seg_total})"
        );
    }
}
