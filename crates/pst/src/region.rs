//! The region substrate: the one kit every path-cached PST here is built
//! from (§2–§4 of the paper), and the one place each of its decisions is
//! made. The engines — `build` + `query` (the single-level ladder),
//! `two_level`, `three_sided`, `dynamic` — keep their record formats and
//! their own walks; what they share lives here:
//!
//! * **Skeletal pages** (Figure 2) come from `pc_pagestore::skeleton`, the
//!   kit every tree of the workspace shares: each engine's record is a
//!   `SkelRecord`, a build cuts and writes its pages with `Skeleton`, and
//!   `for_each_skeletal_page` is the one walker under every free, census
//!   and gather.
//! * **Who owns which cache.** The paper defines a node's A-list by its
//!   *ancestors* and its S-list by the siblings its *path* left behind
//!   (§3), so two siblings have the same A-list and a right child has its
//!   parent's S-list, depth tags included. Each distinct list is therefore
//!   written once, in the record of the parent ([`for_each_cache_owner`]):
//!   `child_a` is the A-list both children drain — its sources the parent
//!   and the parent's in-segment ancestors — and `left_s` the left child's
//!   S-list — the right siblings along the same chain, down to the parent's
//!   right child. A segment is a skeletal page (Theorem 3.2) or the whole
//!   tree (Lemma 3.1); a leaf, and a node whose children open a new
//!   segment, holds two empty handles. A query carries the pair `(cur_a,
//!   cur_s)` down its path — `child_a` on every in-segment step, `left_s`
//!   on a left step, both empty again when a step opens a segment — and
//!   drains it at the corner and at every segment exit. The 3-sided PST
//!   needs middle runs, not prefixes, and keeps node-owned lists; it takes
//!   the same chains from [`for_each_in_segment`].
//! * **What a cache copies.** [`merge_tagged`]: the records the caller
//!   slices from each source — a whole node, or a list's first block, whose
//!   count its owner's record names — tagged with the source's depth, in
//!   one sorted list, blocked anew by the block codec (DESIGN §4.5).
//! * **The walk** ([`Walk`]): the skeletal page in hand, every read with
//!   its class, every list scan and cache drain with its span, the continuation
//!   rule ([`Walk::continues`]: a source is read on *from its second block*,
//!   which its owner's record names with its first block's count, iff all
//!   of its cached block qualified), and the page-first descendant schedule
//!   ([`Walk::traverse`]). A capture's reads by class, its span tree and
//!   the strict store's reads agree: [`Walk::read`] makes every read but a
//!   list's, which `pc_pagestore::layout::scan_chain` makes, and each names
//!   its class.

use std::cmp::Ordering;

use pc_obs::ReadClass;
use pc_pagestore::layout::{min_records, scan_chain, BlockList, Columns};
use pc_pagestore::skeleton::{chain_blocks, scan_chain_in, TailAt};
use pc_pagestore::{Page, PageId, PageStore, Point, Result, NULL_PAGE};

use crate::build::SEntry;

/// Names the blocks of the list of `R` under `head` as blocks of `class`,
/// with where they are ([`chain_blocks`]; all read before the first is
/// named) and their bytes, for the visitors that count or free a
/// structure's pages. Returns the bytes of its block in the tail of `page`,
/// the list's owner's.
pub(crate) fn for_each_block<R: Columns, C: Copy>(
    store: &PageStore,
    head: PageId,
    page: &[u8],
    class: C,
    visit: &mut impl FnMut(C, TailAt, usize) -> Result<()>,
) -> Result<usize> {
    let blocks = chain_blocks::<R>(store, head, page)?;
    blocks.iter().try_for_each(|&(at, used)| visit(class, at, used))?;
    let in_tail = blocks.iter().filter(|(at, _)| matches!(at, TailAt::Inline(_)));
    Ok(in_tail.map(|&(_, used)| used).sum())
}

/// One step of a path inside a segment: the node stepped from, its depth in
/// the segment — the tag of everything a cache copies on its account — and
/// the side taken. The sibling left behind is the node's other child.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step {
    pub(crate) node: usize,
    pub(crate) depth: u16,
    pub(crate) went_left: bool,
}

/// Visits every node under `root` with its depth in the tree and its
/// *chain*: the steps from the root of its segment down to it. The shape is
/// the caller's: `children` of a node (`None` at a leaf, or where the walk
/// is to stop) and whether a child continues its parent's segment. A chain
/// names every source a path cache has — the chain's nodes for an A-list,
/// the siblings they left behind for an S-list.
pub(crate) fn for_each_in_segment(
    root: usize,
    children: impl Fn(usize) -> Option<[usize; 2]>,
    same_segment: impl Fn(usize, usize) -> bool,
    mut visit: impl FnMut(usize, u16, &[Step]) -> Result<()>,
) -> Result<()> {
    let mut stack = vec![(root, 0u16, Vec::new())];
    while let Some((node, depth, chain)) = stack.pop() {
        visit(node, depth, &chain)?;
        let Some([left, right]) = children(node) else { continue };
        for (child, went_left) in [(left, true), (right, false)] {
            let mut below = Vec::new();
            if same_segment(node, child) {
                below.clone_from(&chain);
                below.push(Step { node, depth: chain.len() as u16, went_left });
            }
            stack.push((child, depth + 1, below));
        }
    }
    Ok(())
}

/// The parent-owned rule (module header): visits every node whose left
/// child continues its segment with that child's chain, which names both
/// lists the node's record holds — `child_a`'s sources are the chain's
/// nodes, `left_s`'s the right siblings of its left-going steps.
pub(crate) fn for_each_cache_owner(
    root: usize,
    children: impl Fn(usize) -> Option<[usize; 2]>,
    same_segment: impl Fn(usize, usize) -> bool,
    mut visit: impl FnMut(usize, u16, &[Step]) -> Result<()>,
) -> Result<()> {
    for_each_in_segment(root, &children, &same_segment, |node, depth, chain| match children(node) {
        Some([left, _]) if same_segment(node, left) => {
            let mut path = chain.to_vec();
            path.push(Step { node, depth: chain.len() as u16, went_left: true });
            visit(node, depth, &path)
        }
        _ => Ok(()),
    })
}

/// What a cache copies: the records of each `(source, tag)`, tagged, in
/// one list sorted descending by `order` (a function item, so that the sort
/// a build spends its time in compares inline).
pub(crate) fn merge_tagged<'p>(
    sources: impl IntoIterator<Item = (&'p [Point], u16)>,
    order: impl Fn(&Point, &Point) -> Ordering,
) -> Vec<SEntry> {
    let sources: Vec<(&[Point], u16)> = sources.into_iter().collect();
    let mut merged = Vec::with_capacity(sources.iter().map(|(points, _)| points.len()).sum());
    for (points, depth) in sources {
        merged.extend(points.iter().map(|&p| SEntry { p, depth }));
    }
    merged.sort_unstable_by(|a, b| order(&b.p, &a.p));
    merged
}

/// One query's walk over one store: the answer so far, the skeletal pages
/// loaded so far (the `level` spans count them), and the skeletal page in
/// hand — records on it are decoded from `page` without another read.
pub(crate) struct Walk<'a> {
    pub(crate) store: &'a PageStore,
    pub(crate) results: Vec<Point>,
    pub(crate) levels: u64,
    pub(crate) held: PageId,
    pub(crate) page: Page,
}

impl<'a> Walk<'a> {
    pub(crate) fn new(store: &'a PageStore) -> Walk<'a> {
        let page = Page::from(Vec::new());
        Walk { store, results: Vec::new(), levels: 0, held: NULL_PAGE, page }
    }

    /// The walk's one read: page `id`, named as a read of `class`.
    #[inline]
    fn read(&self, id: PageId, class: ReadClass) -> Result<Page> {
        pc_obs::record_read(class);
        self.store.read(id)
    }

    /// Names the guaranteed `B` — the block codec's count at 64-bit
    /// columns — as the block capacity of the span just opened: every
    /// bound the walk meets holds at it.
    pub(crate) fn set_block_capacity(&self) {
        pc_obs::set_block_capacity(min_records::<Point>(self.store.page_size()) as u64);
    }

    /// Takes skeletal page `id` in hand (one navigation I/O) — as level
    /// `level` of a root path, or, with `None`, inside whatever span is
    /// open.
    pub(crate) fn load(&mut self, id: PageId, level: Option<u64>) -> Result<()> {
        let _lvl = level.map(|level| pc_obs::span!("level", level));
        self.page = self.read(id, ReadClass::Skeletal)?;
        self.held = id;
        self.levels += 1;
        Ok(())
    }

    /// Reads skeletal page `id` as the next level of the walk without
    /// taking it in hand: a walk that needs the page it continues into
    /// before it has finished the one it holds.
    pub(crate) fn fetch(&mut self, id: PageId) -> Result<Page> {
        let _lvl = pc_obs::span!("level", self.levels);
        self.levels += 1;
        self.read(id, ReadClass::Skeletal)
    }

    /// Takes a skeletal page already read in hand.
    pub(crate) fn hold(&mut self, id: PageId, page: Page) {
        (self.held, self.page) = (id, page);
    }

    /// Reads an update buffer page, at the price of a cache block.
    pub(crate) fn cache_page(&self, id: PageId) -> Result<Page> {
        self.read(id, ReadClass::Cache)
    }

    /// Reads a page for a directory on it alone.
    pub(crate) fn directory_page(&self, id: PageId) -> Result<Page> {
        self.read(id, ReadClass::Directory)
    }

    /// Reads a node's own page of points.
    pub(crate) fn node_page(&self, id: PageId) -> Result<Page> {
        self.read(id, ReadClass::Node)
    }

    /// Scans a list of points from block `start` on, reporting the prefix
    /// that `keep`s — an X-list (descending x) with `x >= x0`, a Y-list
    /// (descending y) with `y >= y0` — and reading no block past the first
    /// record that fails. Returns the number kept.
    #[inline]
    pub(crate) fn prefix(&mut self, start: PageId, keep: impl Fn(&Point) -> bool) -> Result<u64> {
        self.prefix_within(start, keep, |_| true)
    }

    /// [`Walk::prefix`] that reports only the kept records `report` takes
    /// as well — a Y-list read by `y` and filtered by `x` — and returns
    /// the number reported.
    #[inline]
    pub(crate) fn prefix_within(
        &mut self,
        start: PageId,
        keep: impl Fn(&Point) -> bool,
        report: impl Fn(&Point) -> bool,
    ) -> Result<u64> {
        let _scan = pc_obs::span!(output: "list_scan");
        let before = self.results.len();
        scan_chain(self.store, start, ReadClass::Node, |p: Point| {
            keep(&p) && {
                if report(&p) {
                    self.results.push(p);
                }
                true
            }
        })?;
        let kept = (self.results.len() - before) as u64;
        pc_obs::add_items(kept);
        Ok(kept)
    }

    /// One path-cache probe: what `scan` reads and reports is the probe's.
    #[inline]
    pub(crate) fn probe<T>(&mut self, scan: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let _probe = pc_obs::span!("path_cache_probe");
        let before = self.results.len();
        let out = scan(self)?;
        pc_obs::add_items((self.results.len() - before) as u64);
        Ok(out)
    }

    /// Scans a cache list from block `start` on, handing each record and
    /// the answer to `take` until it declines one; a block in the tail of
    /// `holder`, the skeletal page whose record named the list, costs no
    /// read ([`scan_chain_in`]).
    #[inline]
    pub(crate) fn cache_scan<R: Columns>(
        &mut self,
        start: PageId,
        holder: &[u8],
        mut take: impl FnMut(&mut Vec<Point>, R) -> bool,
    ) -> Result<()> {
        let class = ReadClass::Cache;
        scan_chain_in(self.store, start, holder, class, |rec| take(&mut self.results, rec))
    }

    /// Drains a tagged cache over `sources` sources ([`Walk::cache_scan`]'s
    /// `holder`): reports the prefix that `keep`s and counts it per source
    /// tag.
    #[inline]
    pub(crate) fn drain(
        &mut self,
        list: &BlockList<SEntry>,
        holder: &[u8],
        sources: usize,
        keep: impl Fn(&Point) -> bool,
    ) -> Result<Vec<u64>> {
        let mut qualified = vec![0u64; sources];
        self.cache_scan(list.head(), holder, |answer, e: SEntry| {
            keep(&e.p) && {
                answer.push(e.p);
                qualified[e.depth as usize] += 1;
                true
            }
        })?;
        Ok(qualified)
    }

    /// The continuation rule: a list continues past its cached first block
    /// of `first` records if all of that block qualified and there is a
    /// second.
    pub(crate) fn continues(cached: u64, first: u16, second: PageId) -> bool {
        cached == u64::from(first) && !second.is_null()
    }

    /// The page-first schedule of a descendant traversal: `visit` is handed
    /// the walk, one node and a place to put the node's children to visit;
    /// nodes on the page in hand (`page_of`) go before all others, last in
    /// first out. A skeletal page is a connected subtree entered through
    /// its slot 0 alone, so a `visit` that loads a node's page when it is
    /// not in hand reads each page once. `as_output` wraps the traversal in
    /// an output span of its own.
    pub(crate) fn traverse<N>(
        &mut self,
        seeds: Vec<N>,
        as_output: bool,
        page_of: impl Fn(&N) -> PageId,
        mut visit: impl FnMut(&mut Self, N, &mut Vec<N>) -> Result<()>,
    ) -> Result<()> {
        if seeds.is_empty() {
            return Ok(());
        }
        let _span = as_output.then(|| pc_obs::span!(output: "traverse"));
        let (mut here, mut elsewhere): (Vec<N>, Vec<N>) =
            seeds.into_iter().partition(|node| page_of(node) == self.held);
        let mut below = Vec::new();
        while let Some(node) = here.pop().or_else(|| elsewhere.pop()) {
            visit(self, node, &mut below)?;
            for child in below.drain(..) {
                (if page_of(&child) == self.held { &mut here } else { &mut elsewhere }).push(child);
            }
        }
        Ok(())
    }
}
