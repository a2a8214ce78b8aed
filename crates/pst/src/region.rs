//! The region substrate: the one kit every path-cached PST here is built
//! from (§2–§4 of the paper), and the one place each of its decisions is
//! made. The engines — `build` + `query` (the single-level ladder),
//! `two_level`, `three_sided`, `dynamic` — keep their record formats and
//! their own walks; what they share lives here:
//!
//! * **Skeletal pages** (Figure 2). [`paginate`] cuts a decomposition into
//!   pages of connected subtrees, [`Skeleton`] allocates them and writes
//!   `[count u16][header][record × count]` with fixed-width records
//!   ([`SkelRecord`], [`write_page`], [`patch_record`]), and
//!   [`for_each_skeletal_page`] is the one walker under every free, census
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
//! * **The walk** ([`Walk`]): the skeletal page in hand, every counted
//!   read, every list scan and cache drain with its span, the continuation
//!   rule ([`Walk::continues`]: a source is read on *from its second block*,
//!   which its owner's record names with its first block's count, iff all
//!   of its cached block qualified), and the page-first descendant schedule
//!   ([`Walk::traverse`]). `QueryCounters`, the span tree and the strict
//!   store's reads agree because one function produces all three.

use std::cmp::Ordering;

use pc_pagestore::codec::{PageReader, PageWriter};
use pc_pagestore::layout::{chain_pages, min_records, Block, BlockList, Columns};
use pc_pagestore::{Page, PageId, PageStore, Point, Result, NULL_PAGE};

use crate::build::SEntry;
use crate::mem::MemPst;
use crate::query::QueryCounters;

/// Reference to a skeletal record: its page and its slot there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NodeRef {
    pub(crate) page: PageId,
    pub(crate) slot: u16,
}

impl NodeRef {
    /// Below a leaf.
    pub(crate) const NULL: NodeRef = NodeRef { page: NULL_PAGE, slot: 0 };

    pub(crate) fn decode(r: &mut PageReader<'_>) -> Result<NodeRef> {
        Ok(NodeRef { page: PageId(r.get_u64()?), slot: r.get_u16()? })
    }

    pub(crate) fn encode(&self, w: &mut PageWriter<'_>) -> Result<()> {
        w.put_u64(self.page.0)?;
        w.put_u16(self.slot)
    }
}

/// A fixed-width record of a skeletal page, `[count u16][rest of the
/// header][record × count]`.
pub(crate) trait SkelRecord: Sized {
    /// Bytes of the page header, the count's two included.
    const HEADER: usize;
    /// Bytes a record takes on the page.
    const LEN: usize;

    fn decode(r: &mut PageReader<'_>) -> Result<Self>;

    /// Writes at most [`SkelRecord::LEN`] bytes.
    fn encode(&self, w: &mut PageWriter<'_>) -> Result<()>;

    /// The record's children ([`NodeRef::NULL`] below a leaf).
    fn children(&self) -> [NodeRef; 2];

    /// The record at `slot` of a skeletal page.
    fn at(page: &[u8], slot: u16) -> Result<Self> {
        let offset = Self::HEADER + Self::LEN * slot as usize;
        Self::decode(&mut PageReader::new(&page[offset..offset + Self::LEN]))
    }

    /// Every record of a skeletal page, in slot order.
    fn all(page: &[u8]) -> Result<Vec<Self>> {
        (0..PageReader::new(page).get_u16()?).map(|slot| Self::at(page, slot)).collect()
    }
}

/// Writes page `id`: what `fill` puts under the writer, and no byte more.
pub(crate) fn write_with(
    store: &PageStore,
    id: PageId,
    fill: impl FnOnce(&mut PageWriter<'_>) -> Result<()>,
) -> Result<()> {
    let mut buf = vec![0u8; store.page_size()];
    let mut w = PageWriter::new(&mut buf);
    fill(&mut w)?;
    let used = w.position();
    store.write(id, &buf[..used])
}

/// Writes skeletal page `id`: the count, what `header` adds to it,
/// `records`, each in its [`SkelRecord::LEN`] bytes, and `tail` flush with
/// the page's end (what an engine keeps in the space the records leave).
pub(crate) fn write_page<R: SkelRecord>(
    store: &PageStore,
    id: PageId,
    header: impl FnOnce(&mut PageWriter<'_>) -> Result<()>,
    records: &[R],
    tail: &[u8],
) -> Result<()> {
    write_with(store, id, |w| {
        w.put_u16(records.len() as u16)?;
        header(w)?;
        assert_eq!(w.position(), R::HEADER, "a skeletal page header");
        for (slot, rec) in records.iter().enumerate() {
            rec.encode(w)?;
            let end = R::HEADER + R::LEN * (slot + 1);
            assert!(w.position() <= end, "a skeletal record of more than {} bytes", R::LEN);
            w.skip(end - w.position())?;
        }
        if !tail.is_empty() {
            let gap = w.remaining().checked_sub(tail.len()).expect("a page tail over the records");
            w.skip(gap)?;
            w.put_bytes(tail)?;
        }
        Ok(())
    })
}

/// Rewrites the one record `at` names, in place (one read, one write).
pub(crate) fn patch_record<R: SkelRecord>(store: &PageStore, at: NodeRef, rec: &R) -> Result<()> {
    let mut bytes = store.read(at.page)?.to_vec();
    let start = R::HEADER + R::LEN * at.slot as usize;
    rec.encode(&mut PageWriter::new(&mut bytes[start..start + R::LEN]))?;
    store.write(at.page, &bytes)
}

/// Groups the binary tree into skeletal pages (Figure 2): starting from
/// each page root, nodes are added in BFS order until the page's record
/// capacity is reached; overflowing children seed new pages. Filling by
/// capacity rather than by a fixed height avoids the worst of a
/// fixed-height chunking, whose ragged bottom level becomes near-empty
/// pages, but it does not make the page count `O(#nodes / capacity)`: a
/// capacity that is not `2^h − 1` cuts a level in two, and the cut-off
/// part and whatever lies below the last full page height become pages
/// of a few records each. At 4 KiB the 4 095 regions of a complete
/// 12-level two-level PST (27 records a page) take 813 skeletal pages, 576
/// of them of 3 records (DESIGN §12, "Skeletal pagination"); the 3-sided
/// PST passes a `2^h − 1` and gets complete subtrees.
/// Returns the per-page member lists (arena indices, slot order) and each
/// node's `(page, slot)`; a page's subtree root is always slot 0.
pub(crate) fn paginate(mem: &MemPst, cap: usize) -> (Vec<Vec<usize>>, Vec<(usize, u16)>) {
    let mut node_loc: Vec<(usize, u16)> = vec![(usize::MAX, 0); mem.nodes.len()];
    let mut pages: Vec<Vec<usize>> = Vec::new();
    let mut page_roots = std::collections::VecDeque::from([0usize]);
    while let Some(root) = page_roots.pop_front() {
        let page_idx = pages.len();
        let mut members = Vec::new();
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(ni) = queue.pop_front() {
            if members.len() == cap {
                page_roots.push_back(ni);
                continue;
            }
            node_loc[ni] = (page_idx, members.len() as u16);
            members.push(ni);
            queue.extend(mem.children(ni).into_iter().flatten());
        }
        pages.push(members);
    }
    (pages, node_loc)
}

/// A decomposition cut into skeletal pages, the pages allocated, and what
/// an engine keeps in the space the records leave: per page, a tail flush
/// with its end.
pub(crate) struct Skeleton {
    pages: Vec<Vec<usize>>,
    loc: Vec<(usize, u16)>,
    ids: Vec<PageId>,
    tails: Vec<Vec<u8>>,
    page_size: usize,
}

impl Skeleton {
    /// [`paginate`]s `mem` at `cap` records a page and allocates the pages.
    pub(crate) fn new(store: &PageStore, mem: &MemPst, cap: usize) -> Result<Skeleton> {
        let (pages, loc) = paginate(mem, cap);
        let ids = pages.iter().map(|_| store.alloc()).collect::<Result<_>>()?;
        let tails = vec![Vec::new(); pages.len()];
        Ok(Skeleton { pages, loc, ids, tails, page_size: store.page_size() })
    }

    /// The page of the tree's root, which is its slot 0.
    pub(crate) fn root(&self) -> PageId {
        self.ids[0]
    }

    /// Where arena node `ni`'s record goes ([`NodeRef::NULL`] for
    /// [`crate::mem::NONE`]).
    pub(crate) fn node_ref(&self, ni: usize) -> NodeRef {
        match self.loc.get(ni) {
            Some(&(page, slot)) => NodeRef { page: self.ids[page], slot },
            None => NodeRef::NULL,
        }
    }

    /// True if the records of `a` and `b` share a page.
    pub(crate) fn same_page(&self, a: usize, b: usize) -> bool {
        self.loc[a].0 == self.loc[b].0
    }

    /// Every arena node, pages in order (a page before the pages below
    /// it) and slots in order.
    pub(crate) fn nodes(&self) -> Vec<usize> {
        self.pages.concat()
    }

    /// Puts `bytes` in the tails of the pages of `nodes`, at one offset
    /// from their ends, if each has that much room above its records of
    /// `R::LEN` bytes; returns the offset.
    pub(crate) fn place_tail<R: SkelRecord>(
        &mut self,
        nodes: &[usize],
        bytes: &[u8],
    ) -> Option<usize> {
        let pages: Vec<usize> = nodes.iter().map(|&ni| self.loc[ni].0).collect();
        let end = |p: usize| self.page_size - self.tails[p].len();
        let offset = end(pages[0]).checked_sub(bytes.len())?;
        let records = |p: usize| R::HEADER + R::LEN * self.pages[p].len();
        if !pages.iter().all(|&p| end(p) == end(pages[0]) && records(p) <= offset) {
            return None;
        }
        for p in pages {
            self.tails[p].splice(0..0, bytes.iter().copied());
        }
        Some(offset)
    }

    /// Writes every page: what `header` adds to the count for the page
    /// whose root is the arena node it is given, `record` of each member,
    /// and the page's tail.
    pub(crate) fn write<R: SkelRecord>(
        &self,
        store: &PageStore,
        header: impl Fn(usize, &mut PageWriter<'_>) -> Result<()>,
        record: impl Fn(usize) -> R,
    ) -> Result<()> {
        for ((members, &id), tail) in self.pages.iter().zip(&self.ids).zip(&self.tails) {
            let records: Vec<R> = members.iter().map(|&ni| record(ni)).collect();
            write_page(store, id, |w| header(members[0], w), &records, tail)?;
        }
        Ok(())
    }
}

/// Visits every skeletal page under `root` with its bytes and records, a
/// page before the pages below it. Skeletal pages form a tree, so each is
/// reached once; the visitor may free the page it is given.
pub(crate) fn for_each_skeletal_page<R: SkelRecord>(
    store: &PageStore,
    root: PageId,
    visit: &mut impl FnMut(PageId, &[u8], &[R]) -> Result<()>,
) -> Result<()> {
    let mut stack = vec![root];
    while let Some(pid) = stack.pop() {
        let page = store.read(pid)?;
        let records = R::all(&page)?;
        for rec in &records {
            let below = rec.children().into_iter().map(|child| child.page);
            stack.extend(below.filter(|p| !p.is_null() && *p != pid));
        }
        visit(pid, &page, &records)?;
    }
    Ok(())
}

/// Names the blocks of the list whose chain starts at `head`, as pages of
/// `class`, for the visitors that count or free a structure's pages (one
/// read per block; the pages are read before the first is named).
pub(crate) fn for_each_block<C: Copy>(
    store: &PageStore,
    head: PageId,
    class: C,
    visit: &mut impl FnMut(C, PageId) -> Result<()>,
) -> Result<()> {
    chain_pages(store, head)?.into_iter().try_for_each(|page| visit(class, page))
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

/// One query's walk over one store: the answer so far, the reads so far by
/// class, and the skeletal page in hand — records on it are decoded from
/// `page` without another read.
pub(crate) struct Walk<'a> {
    pub(crate) store: &'a PageStore,
    pub(crate) results: Vec<Point>,
    pub(crate) counters: QueryCounters,
    pub(crate) held: PageId,
    pub(crate) page: Page,
}

impl<'a> Walk<'a> {
    pub(crate) fn new(store: &'a PageStore) -> Walk<'a> {
        Walk {
            store,
            results: Vec::new(),
            counters: QueryCounters::default(),
            held: NULL_PAGE,
            page: Page::from(Vec::new()),
        }
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
        self.page = self.store.read(id)?;
        self.held = id;
        self.counters.skeletal += 1;
        Ok(())
    }

    /// Reads skeletal page `id` as the next level of the walk without
    /// taking it in hand: a walk that needs the page it continues into
    /// before it has finished the one it holds.
    pub(crate) fn fetch(&mut self, id: PageId) -> Result<Page> {
        let _lvl = pc_obs::span!("level", self.counters.skeletal);
        self.counters.skeletal += 1;
        self.store.read(id)
    }

    /// Takes a skeletal page already read in hand.
    pub(crate) fn hold(&mut self, id: PageId, page: Page) {
        (self.held, self.page) = (id, page);
    }

    /// Reads an update buffer page, at the price of a cache block.
    pub(crate) fn cache_page(&mut self, id: PageId) -> Result<Page> {
        self.counters.cache_blocks += 1;
        self.store.read(id)
    }

    /// Reads a page for a directory on it alone.
    pub(crate) fn directory_page(&mut self, id: PageId) -> Result<Page> {
        self.counters.directories += 1;
        self.store.read(id)
    }

    /// Reads a node's own page of points.
    pub(crate) fn node_page(&mut self, id: PageId) -> Result<Page> {
        self.counters.node_blocks += 1;
        self.store.read(id)
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
        self.scan(start, |c| &mut c.node_blocks, |answer, p: Point| {
            keep(&p) && {
                if report(&p) {
                    answer.push(p);
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
    /// the answer to `take` until it declines one.
    #[inline]
    pub(crate) fn cache_scan<R: Columns>(
        &mut self,
        start: PageId,
        take: impl FnMut(&mut Vec<Point>, R) -> bool,
    ) -> Result<()> {
        self.scan(start, |c| &mut c.cache_blocks, take)
    }

    /// Scans a list from block `start` on, each block read counted in
    /// `class`, handing each record and the answer to `take` until it
    /// declines one; a block is decoded little past that record.
    #[inline]
    fn scan<R: Columns>(
        &mut self,
        start: PageId,
        class: fn(&mut QueryCounters) -> &mut u64,
        mut take: impl FnMut(&mut Vec<Point>, R) -> bool,
    ) -> Result<()> {
        let mut next = start;
        while !next.is_null() {
            *class(&mut self.counters) += 1;
            let page = self.store.read(next)?;
            let block = Block::parse::<R>(&page)?;
            if !block.each(|rec| take(&mut self.results, rec)) {
                return Ok(());
            }
            next = block.next;
        }
        Ok(())
    }

    /// Drains a tagged cache over `sources` sources: reports the prefix that
    /// `keep`s and counts it per source tag.
    #[inline]
    pub(crate) fn drain(
        &mut self,
        list: &BlockList<SEntry>,
        sources: usize,
        keep: impl Fn(&Point) -> bool,
    ) -> Result<Vec<u64>> {
        let mut qualified = vec![0u64; sources];
        self.cache_scan(list.head(), |answer, e: SEntry| {
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
