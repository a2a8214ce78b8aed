//! The 2-sided query engine shared by the naive, basic, and segmented
//! variants (§3 of the paper), on the `region` substrate's [`Walk`].

use pc_pagestore::layout::BlockList;
use pc_pagestore::{PageId, Point, Result};

use crate::build::{CacheMode, PointsPage, SEntry, SkeletalRecord};
use crate::mem::TwoSided;
use crate::region::{SkelRecord, Walk};

/// I/O breakdown of one query, in page reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryCounters {
    /// Skeletal page reads (navigation).
    pub skeletal: u64,
    /// Reads for a 3-sided node's directory: its page of its own, or the
    /// skeletal page it is on, read for it alone. A directory on a page the
    /// walk reads anyway costs nothing here.
    pub directories: u64,
    /// A-list / S-list block reads (and update buffer pages).
    pub cache_blocks: u64,
    /// Region (points page) reads: corner, ancestors, siblings,
    /// descendants.
    pub node_blocks: u64,
}

impl QueryCounters {
    /// Total page reads.
    pub fn total(&self) -> u64 {
        self.skeletal + self.directories + self.cache_blocks + self.node_blocks
    }
}

/// Runs a 2-sided query against the single-level structure under
/// `root_page`, built with the caches of `mode`, appending to `walk`.
pub(crate) fn run_two_sided(
    walk: &mut Walk<'_>,
    root_page: PageId,
    mode: CacheMode,
    q: TwoSided,
) -> Result<()> {
    let _span = pc_obs::span!(match mode {
        CacheMode::None => "pst2_naive",
        CacheMode::FullPath => "pst2_fullpath",
        CacheMode::InPage => "pst2_segmented",
    });
    walk.set_block_capacity();
    // Levels count from this structure's root, which a region's walk may
    // have reached after skeletal pages of its own.
    let above = walk.counters.skeletal;
    let mut ctx = Ctx { walk, q };
    // Per path depth, the right sibling left behind there, if any:
    // (points page, count, whether it has children).
    let mut sib: Vec<Option<(PageId, u16, bool)>> = Vec::new();
    // The A- and S-list of the node in hand, picked up from its ancestors'
    // records on the way down (see the `region` module header).
    let mut cur_a: BlockList<Point> = BlockList::empty();
    let mut cur_s: BlockList<SEntry> = BlockList::empty();

    ctx.walk.load(root_page, Some(0))?;
    let mut slot = 0u16;
    loop {
        let rec = SkeletalRecord::at(&ctx.walk.page, slot)?;
        let is_leaf = rec.left.page.is_null();
        let is_corner = rec.own_cnt == 0 || rec.min_y.y < q.y0 || is_leaf;
        if is_corner {
            if mode != CacheMode::None {
                ctx.drain_caches_and_seed(&cur_a, &cur_s, &sib)?;
            }
            return ctx.read_own_filtered(&rec, true);
        }

        // v is a proper ancestor of the corner: all its points satisfy
        // y >= y0, and the path continues below.
        let go_left = q.x0 <= rec.split.x;
        let right = (rec.right_pts, rec.right_cnt, !rec.right_leaf);
        sib.push((go_left && rec.right_cnt > 0).then_some(right));
        let next = if go_left { rec.left } else { rec.right };
        let crosses_page = next.page != ctx.walk.held;

        // Where the node and its right sibling are read directly: at every
        // path node without caches — the Figure 3 pathology, one block
        // each — and at a segment exit, whose own right sibling belongs to
        // no S-list (the next segment's caches restart below it): one paid
        // I/O per segment, after this page's ancestors and siblings are
        // settled. Full-path caches serve everything at the corner.
        let uncached = mode == CacheMode::None;
        if uncached || (mode == CacheMode::InPage && crosses_page) {
            if !uncached {
                ctx.drain_caches_and_seed(&cur_a, &cur_s, &sib)?;
            }
            ctx.read_own_filtered(&rec, uncached)?;
            if go_left && rec.right_cnt > 0 {
                ctx.traverse(rec.right_pts, true)?;
            }
        }

        if crosses_page {
            ctx.walk.load(next.page, Some(ctx.walk.counters.skeletal - above))?;
        }
        if crosses_page && mode == CacheMode::InPage {
            (cur_a, cur_s) = (BlockList::empty(), BlockList::empty());
        } else {
            cur_a = rec.child_a;
            if go_left {
                cur_s = rec.left_s;
            }
        }
        slot = next.slot;
    }
}

struct Ctx<'w, 'a> {
    walk: &'w mut Walk<'a>,
    q: TwoSided,
}

impl Ctx<'_, '_> {
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
        let (walk, q) = (&mut *self.walk, self.q);
        let before = walk.results.len();
        let page = walk.node_page(rec.own_pts)?;
        // Points are descending by y-key, so the y-qualifiers are a prefix.
        PointsPage::parse(&page)?.points.each(|p: Point| {
            if p.y >= q.y0 && p.x >= q.x0 {
                walk.results.push(p);
            }
            p.y >= q.y0
        });
        pc_obs::add_items((walk.results.len() - before) as u64);
        Ok(())
    }

    /// Reads a node's A- and S-lists (answer prefixes) in one probe, then
    /// seeds the descendant traversal for every sibling whose points all
    /// qualified.
    fn drain_caches_and_seed(
        &mut self,
        a_list: &BlockList<Point>,
        s_list: &BlockList<SEntry>,
        sib: &[Option<(PageId, u16, bool)>],
    ) -> Result<()> {
        let TwoSided { x0, y0 } = self.q;
        // A-list: descending x; prefix with x >= x0 qualifies (covered
        // ancestors are all above the corner, so y >= y0 holds). S-list:
        // descending y; prefix with y >= y0 qualifies (siblings lie wholly
        // right of x0), counted per source depth for the descent rule; the
        // traversals below run, and report, in depth order.
        let qualified = self.walk.probe(|walk| {
            walk.cache_scan(a_list.head(), |answer, p: Point| {
                p.x >= x0 && {
                    answer.push(p);
                    true
                }
            })?;
            walk.drain(s_list, sib.len(), |p| p.y >= y0)
        })?;
        // Descend into a sibling's children only when its region is fully
        // inside the query (§3's paid-for rule) and it has children.
        for (sibling, cnt) in sib.iter().zip(qualified) {
            match *sibling {
                Some((pts, total, true)) if cnt == u64::from(total) => self.traverse(pts, false)?,
                _ => {}
            }
        }
        Ok(())
    }

    /// Top-down descendant traversal (Figure 4): visit a node, keep its
    /// points with `y >= y0`, and recurse only when *all* points qualified.
    /// With `add = false` the node's points were already reported (from an
    /// S-list); the read only fetches its child links. Only this engine uses
    /// points pages (the others read Y-lists, whose links are in the
    /// skeletal records); visited subtrees lie wholly inside the query's
    /// x-range, so only the y-filter applies.
    fn traverse(&mut self, pts_page: PageId, add: bool) -> Result<()> {
        let y0 = self.q.y0;
        // No points page is the skeletal page in hand: last in, first out.
        let seeds = vec![(pts_page, add)];
        self.walk.traverse(seeds, true, |&(page, _)| page, |walk, (page, add), below| {
            let page = walk.node_page(page)?;
            let pp = PointsPage::parse(&page)?;
            // Points are descending by y-key, so the y-qualifiers are a prefix.
            let mut cut = 0;
            let all = pp.points.each(|p: Point| {
                if p.y >= y0 && add {
                    walk.results.push(p);
                }
                cut += u64::from(p.y >= y0);
                p.y >= y0
            });
            if add {
                pc_obs::add_items(cut);
            }
            if all && cut > 0 {
                let children = [(pp.left_pts, pp.left_cnt), (pp.right_pts, pp.right_cnt)];
                let children = children.into_iter().filter(|&(p, cnt)| !p.is_null() && cnt > 0);
                below.extend(children.map(|(p, _)| (p, true)));
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{BasicPst, NaivePst, SegmentedPst};
    use crate::testutil::{canonical, uniform_points};
    use pc_pagestore::layout::min_records;
    use pc_pagestore::PageStore;
    use pc_rng::Rng;

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
                let want = canonical(pts.iter().copied().filter(|p| q.contains(p)).collect());
                assert_eq!(canonical(seg.query(&store, q).unwrap()), want, "{q:?}");
                assert_eq!(canonical(naive.query(&store, q).unwrap()), want, "{q:?}");
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
        let mut rng = Rng::seed_from_u64(0xf00d);
        let pts = uniform_points(&mut rng, 20_000, 100_000);
        let store = PageStore::in_memory(512);
        let basic = BasicPst::build(&store, &pts).unwrap();
        let seg = SegmentedPst::build(&store, &pts).unwrap();
        let b = min_records::<Point>(512) as u64;
        // log_B n with B = 19, n = 20k: ~3.4 skeletal pages.
        for _ in 0..60 {
            let q = TwoSided { x0: rng.gen_range(0..100_000i64), y0: rng.gen_range(0..100_000i64) };
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
        let mut rng = Rng::seed_from_u64(0xbeef);
        let pts = uniform_points(&mut rng, 200_000, 1_000_000);
        let store = PageStore::in_memory(4096);
        let naive = NaivePst::build(&store, &pts).unwrap();
        let seg = SegmentedPst::build(&store, &pts).unwrap();
        let mut naive_total = 0u64;
        let mut seg_total = 0u64;
        for _ in 0..20 {
            // Just beyond the domain: empty output, deepest corner.
            let q = TwoSided { x0: 1_000_001 + rng.gen_range(0..100i64), y0: 0 };
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
