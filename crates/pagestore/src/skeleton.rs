//! Skeletal pages (the paper's Figure 2), one kit for every tree here
//! (DESIGN §4.1): `[count u16][rest of the header][record × count] …
//! [tail]`, each record a fixed-width [`SkelRecord`]. [`paginate`] cuts a
//! tree into pages of connected subtrees, [`Skeleton`] allocates and
//! writes them, [`write_page`] writes a page from zeroed bytes (so it is
//! exactly what it encodes), [`patch_record`] one record in place and
//! [`patch_page`] the header and tail around them, and
//! [`for_each_skeletal_page`] walks them. [`Skeleton::place`] keeps a
//! node's bytes in a page tail where there is room, else on a page of its
//! own, and [`TailAt`] says where. The segment tree packs several subtrees
//! a page, so it writes its records with [`write_page`] alone.

use std::collections::VecDeque;

use crate::codec::{PageReader, PageWriter};
use crate::error::{Result, StoreError};
use crate::page::Page;
use crate::store::{PageId, PageStore, NULL_PAGE};

/// Reference to a skeletal record: its page and its slot there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRef {
    /// Page holding the record.
    pub page: PageId,
    /// Slot of the record on its page.
    pub slot: u16,
}

impl NodeRef {
    /// Below a leaf.
    pub const NULL: NodeRef = NodeRef { page: NULL_PAGE, slot: 0 };

    /// Reads a reference.
    pub fn decode(r: &mut PageReader<'_>) -> Result<NodeRef> {
        Ok(NodeRef { page: PageId(r.get_u64()?), slot: r.get_u16()? })
    }

    /// Writes the reference.
    pub fn encode(&self, w: &mut PageWriter<'_>) -> Result<()> {
        w.put_u64(self.page.0)?;
        w.put_u16(self.slot)
    }
}

/// A fixed-width record of a skeletal page, `[count u16][rest of the
/// header][record × count]`.
pub trait SkelRecord: Sized {
    /// Bytes of the page header, the count's two included.
    const HEADER: usize;
    /// Bytes a record takes on the page.
    const LEN: usize;

    /// Reads a record from its [`SkelRecord::LEN`] bytes.
    fn decode(r: &mut PageReader<'_>) -> Result<Self>;

    /// Writes at most [`SkelRecord::LEN`] bytes.
    fn encode(&self, w: &mut PageWriter<'_>) -> Result<()>;

    /// The record's children ([`NodeRef::NULL`] below a leaf).
    fn children(&self) -> [NodeRef; 2];

    /// How many records a page of `page_size` bytes holds, at least 3 (a
    /// node and both its children).
    fn fit(page_size: usize) -> usize {
        let fit = page_size.saturating_sub(Self::HEADER) / Self::LEN;
        assert!(fit >= 3, "{page_size}-byte pages hold {fit} skeletal records of {}", Self::LEN);
        fit
    }

    /// The record at `slot` of a skeletal page; `Corrupt` past its end.
    fn at(page: &[u8], slot: u16) -> Result<Self> {
        let offset = Self::HEADER + Self::LEN * slot as usize;
        let bytes = page.get(offset..offset + Self::LEN).ok_or_else(|| {
            StoreError::Corrupt(format!("skeletal slot {slot} past a {}-byte page", page.len()))
        })?;
        Self::decode(&mut PageReader::new(bytes))
    }

    /// Every record of a skeletal page, in slot order.
    fn all(page: &[u8]) -> Result<Vec<Self>> {
        (0..PageReader::new(page).get_u16()?).map(|slot| Self::at(page, slot)).collect()
    }
}

/// Where the bytes a tree keeps for a node are ([`Skeleton::place`]). On
/// a record it is a `u64`: [`NULL_PAGE`], the offset with the top bit set,
/// or the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailAt {
    /// Nowhere: the node keeps nothing.
    None,
    /// At this byte offset of its children's pages (either one), or of its
    /// own page where its children share it or it has none.
    Inline(usize),
    /// On a page of its own.
    Page(PageId),
}

impl TailAt {
    const INLINE: u64 = 1 << 63;

    /// Reads a [`TailAt::encode`]d value.
    pub fn decode(v: u64) -> TailAt {
        match v {
            _ if v == NULL_PAGE.0 => TailAt::None,
            _ if v & Self::INLINE != 0 => TailAt::Inline((v ^ Self::INLINE) as usize),
            _ => TailAt::Page(PageId(v)),
        }
    }

    /// The value a record stores.
    pub fn encode(self) -> u64 {
        match self {
            TailAt::None => NULL_PAGE.0,
            TailAt::Inline(offset) => Self::INLINE | offset as u64,
            TailAt::Page(page) => page.0,
        }
    }

    /// The page holding the bytes of the node on page `own` (in hand as
    /// `page`) whose left child is on `left` (null for none): `page` where
    /// they are inline and `left` is null or `own`, else a child's page —
    /// `ahead` where a walk has read one, else `read` of the left one — or
    /// `read` of their own page. `None` where the node keeps nothing.
    pub fn holder(
        self,
        own: PageId,
        left: PageId,
        page: &Page,
        ahead: Option<&Page>,
        read: impl FnOnce(PageId) -> Result<Page>,
    ) -> Result<Option<Page>> {
        Ok(Some(match (self, ahead) {
            (TailAt::None, _) => return Ok(None),
            (TailAt::Page(id), _) => read(id)?,
            (TailAt::Inline(_), _) if left.is_null() || left == own => page.clone(),
            (TailAt::Inline(_), Some(ahead)) => ahead.clone(),
            (TailAt::Inline(_), None) => read(left)?,
        }))
    }

    /// The bytes on `holder`, the page [`TailAt::holder`] gave: from the
    /// offset on, or all of a page of their own. `Corrupt` for an offset
    /// past the page.
    pub fn bytes(self, holder: &[u8]) -> Result<&[u8]> {
        let TailAt::Inline(offset) = self else { return Ok(holder) };
        holder.get(offset..).ok_or_else(|| {
            StoreError::Corrupt(format!("a tail at {offset} past a {}-byte page", holder.len()))
        })
    }
}

/// Writes page `id` from zeroed bytes: what `fill` puts under the writer,
/// and no byte more.
pub fn write_with(
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
/// the page's end (what a tree keeps in the space the records leave).
pub fn write_page<R: SkelRecord>(
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
pub fn patch_record<R: SkelRecord>(store: &PageStore, at: NodeRef, rec: &R) -> Result<()> {
    let mut bytes = store.read(at.page)?.to_vec();
    let start = R::HEADER + R::LEN * at.slot as usize;
    rec.encode(&mut PageWriter::new(&mut bytes[start..start + R::LEN]))?;
    store.write(at.page, &bytes)
}

/// Rewrites skeletal page `id` around its records, in place (one read, one
/// write): what `header` adds to the count, and `tail` flush with the
/// page's end, as [`write_page`] puts them; an empty `tail` leaves the
/// page's own alone.
pub fn patch_page<R: SkelRecord>(
    store: &PageStore,
    id: PageId,
    header: impl FnOnce(&mut PageWriter<'_>) -> Result<()>,
    tail: &[u8],
) -> Result<()> {
    let mut bytes = store.read(id)?.to_vec();
    header(&mut PageWriter::new(&mut bytes[2..R::HEADER]))?;
    let records = R::HEADER + R::LEN * usize::from(PageReader::new(&bytes).get_u16()?);
    let start = bytes.len().checked_sub(tail.len()).filter(|&start| start >= records);
    let start = start.expect("a page tail over the records");
    bytes[start..].copy_from_slice(tail);
    store.write(id, &bytes)
}

/// Groups a binary tree into skeletal pages (the paper's Figure 2):
/// starting from each page root, nodes are added in BFS order until the
/// page holds `cap` records; overflowing children seed new pages. The tree
/// has `nodes` nodes, node 0 its root, and `children(i)` yields node `i`'s.
///
/// Filling by capacity rather than by a fixed height avoids the worst of a
/// fixed-height chunking, whose ragged bottom level becomes near-empty
/// pages, but it does not make the page count `O(#nodes / cap)`: a
/// capacity that is not `2^h − 1` cuts a level in two, and the cut-off
/// part and whatever lies below the last full page height become pages of
/// a few records each. At 4 KiB the 4 095 regions of a complete 12-level
/// two-level PST (25 records a page) take 703 skeletal pages, 400 of them
/// of 3 records (DESIGN §12, "Skeletal pagination"); the 3-sided PST
/// passes a `2^h − 1` and gets complete subtrees.
///
/// Returns the per-page member lists (node indices, slot order) and each
/// node's `(page, slot)`; a page's subtree root is always slot 0, and the
/// pages form a tree: each page but the first has its parent on one page.
pub fn paginate<I: IntoIterator<Item = usize>>(
    nodes: usize,
    cap: usize,
    children: impl Fn(usize) -> I,
) -> (Vec<Vec<usize>>, Vec<(usize, u16)>) {
    let mut node_loc: Vec<(usize, u16)> = vec![(usize::MAX, 0); nodes];
    let mut pages: Vec<Vec<usize>> = Vec::new();
    let mut page_roots = VecDeque::from([0usize]);
    while let Some(root) = page_roots.pop_front() {
        let page_idx = pages.len();
        let mut members = Vec::new();
        let mut queue = VecDeque::from([root]);
        while let Some(ni) = queue.pop_front() {
            if members.len() == cap {
                page_roots.push_back(ni);
                continue;
            }
            node_loc[ni] = (page_idx, members.len() as u16);
            members.push(ni);
            queue.extend(children(ni));
        }
        pages.push(members);
    }
    (pages, node_loc)
}

/// A tree [`paginate`]d into skeletal pages, the pages allocated, and what
/// a tree keeps in the space the records leave: per page, a tail flush
/// with its end.
pub struct Skeleton {
    pages: Vec<Vec<usize>>,
    loc: Vec<(usize, u16)>,
    ids: Vec<PageId>,
    tails: Vec<Vec<u8>>,
    page_size: usize,
}

impl Skeleton {
    /// [`paginate`]s the tree of `nodes` nodes at `cap` records a page and
    /// allocates the pages.
    pub fn new<I: IntoIterator<Item = usize>>(
        store: &PageStore,
        nodes: usize,
        cap: usize,
        children: impl Fn(usize) -> I,
    ) -> Result<Skeleton> {
        let (pages, loc) = paginate(nodes, cap, children);
        let ids = pages.iter().map(|_| store.alloc()).collect::<Result<_>>()?;
        let tails = vec![Vec::new(); pages.len()];
        Ok(Skeleton { pages, loc, ids, tails, page_size: store.page_size() })
    }

    /// The page of the tree's root, which is its slot 0.
    pub fn root(&self) -> PageId {
        self.ids[0]
    }

    /// Where node `ni`'s record goes ([`NodeRef::NULL`] for a node past
    /// the tree, such as a "none" index).
    pub fn node_ref(&self, ni: usize) -> NodeRef {
        match self.loc.get(ni) {
            Some(&(page, slot)) => NodeRef { page: self.ids[page], slot },
            None => NodeRef::NULL,
        }
    }

    /// True if the records of `a` and `b` share a page.
    pub fn same_page(&self, a: usize, b: usize) -> bool {
        self.loc[a].0 == self.loc[b].0
    }

    /// Every node, pages in order (a page before the pages below it) and
    /// slots in order.
    pub fn nodes(&self) -> Vec<usize> {
        self.pages.concat()
    }

    /// Keeps `bytes` for node `ni`, whose children are `children`, where a
    /// walk reads them with a page it reads anyway: a node whose children
    /// are off its page on both child pages, at one offset from their ends
    /// (a walk leaving the page reads them with the page it goes on to),
    /// any other node on its own page. Bytes that do not fit above the
    /// records of `R::LEN` bytes and the tails placed before take a page of
    /// their own; no bytes are kept nowhere.
    pub fn place<R: SkelRecord>(
        &mut self,
        store: &PageStore,
        ni: usize,
        children: Option<[usize; 2]>,
        bytes: &[u8],
    ) -> Result<TailAt> {
        if bytes.is_empty() {
            return Ok(TailAt::None);
        }
        let homes = match children {
            Some([left, right]) if !self.same_page(ni, left) => vec![left, right],
            _ => vec![ni],
        };
        let mut pages: Vec<usize> = homes.into_iter().map(|ni| self.loc[ni].0).collect();
        pages.dedup();
        let end = |p: usize| self.page_size - self.tails[p].len();
        let records = |p: usize| R::HEADER + R::LEN * self.pages[p].len();
        let offset = end(pages[0]).checked_sub(bytes.len());
        let fits = |offset| pages.iter().all(|&p| end(p) == end(pages[0]) && records(p) <= offset);
        let Some(offset) = offset.filter(|&offset| fits(offset)) else {
            let id = store.alloc()?;
            write_with(store, id, |w| w.put_bytes(bytes))?;
            return Ok(TailAt::Page(id));
        };
        for p in pages {
            self.tails[p].splice(0..0, bytes.iter().copied());
        }
        Ok(TailAt::Inline(offset))
    }

    /// Writes every page: what `header` adds to the count for the page
    /// whose root is the node it is given, `record` of each member, and the
    /// page's tail.
    pub fn write<R: SkelRecord>(
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
/// page before the pages below it; the visitor may free the page it is
/// given. The pages must form a tree, as [`paginate`]'s do: a page whose
/// records have parents on two pages would be visited twice.
pub fn for_each_skeletal_page<R: SkelRecord>(
    store: &PageStore,
    root: PageId,
    visit: &mut impl FnMut(PageId, &Page, &[R]) -> Result<()>,
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A record of a key and two children in 25 of its 27 bytes, under a
    /// 6-byte header.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Rec {
        key: u32,
        children: [NodeRef; 2],
    }

    impl SkelRecord for Rec {
        const HEADER: usize = 2 + 4;
        const LEN: usize = 27;

        fn decode(r: &mut PageReader<'_>) -> Result<Rec> {
            let key = r.get_u32()?;
            Ok(Rec { key, children: [NodeRef::decode(r)?, NodeRef::decode(r)?] })
        }

        fn encode(&self, w: &mut PageWriter<'_>) -> Result<()> {
            w.put_u32(self.key)?;
            self.children.iter().try_for_each(|child| child.encode(w))
        }

        fn children(&self) -> [NodeRef; 2] {
            self.children
        }
    }

    fn rec(key: u32) -> Rec {
        let child = |k: u32| NodeRef { page: PageId(u64::from(k) << 40), slot: k as u16 };
        Rec { key, children: [child(key + 1), child(key + 2)] }
    }

    #[test]
    fn fit_is_the_records_a_page_holds() {
        assert_eq!([87, 512, 4096].map(Rec::fit), [3, 18, 151]);
    }

    #[test]
    #[should_panic(expected = "86-byte pages hold 2 skeletal records")]
    fn a_page_of_fewer_than_three_records_is_refused() {
        Rec::fit(86);
    }

    /// A count that runs past its page is `Corrupt`, as a block's is, not a
    /// panic; so is a tail that starts past its page.
    #[test]
    fn a_count_or_a_tail_past_the_page_is_corrupt() {
        let mut page = vec![0u8; 128];
        page[..2].copy_from_slice(&1000u16.to_le_bytes());
        assert!(matches!(Rec::all(&page), Err(StoreError::Corrupt(_))));
        assert!(matches!(Rec::at(&page, 4), Err(StoreError::Corrupt(_))));
        assert!(Rec::at(&page, 3).is_ok(), "the last slot that ends on the page");
        assert!(TailAt::Inline(128).bytes(&page).unwrap().is_empty());
        assert!(matches!(TailAt::Inline(129).bytes(&page), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn tail_at_round_trips_through_its_u64() {
        let all = [TailAt::None, TailAt::Inline(0), TailAt::Inline(4_000), TailAt::Page(PageId(7))];
        assert!(all.iter().all(|&at| TailAt::decode(at.encode()) == at));
        assert_eq!(TailAt::None.encode(), NULL_PAGE.0);
    }

    /// `place` keeps an exit's bytes on both its child pages at one offset,
    /// any other node's on its own page, filling tails from the end; bytes
    /// that do not fit take a page of their own, and none are kept nowhere.
    /// `holder` and `bytes` find each where it went.
    #[test]
    fn place_keeps_bytes_on_the_pages_a_walk_reads() {
        // 15 nodes, 3 to a 128-byte page — {0, 1, 2}, {3, 7, 8}, {4, 9, 10},
        // {5, 11, 12}, {6, 13, 14} — so 87 bytes of records and 41 of tail.
        let store = PageStore::in_memory(128);
        let children = |ni: usize| (ni < 7).then_some([2 * ni + 1, 2 * ni + 2]);
        let mut skel =
            Skeleton::new(&store, 15, 3, |ni| children(ni).into_iter().flatten()).unwrap();
        // Where each node's bytes go, `None` for a page of their own.
        let wants = [
            (1, 10, Some(TailAt::Inline(118))), // an exit: the pages of 3 and 4
            (0, 10, Some(TailAt::Inline(118))), // children on its page: its own
            (7, 20, Some(TailAt::Inline(98))),  // a leaf, below 1's on 3's page
            (3, 11, Some(TailAt::Inline(87))),  // 3's page full to its records
            (8, 1, None),                       // no room left on 3's page
            (13, 0, Some(TailAt::None)),        // nothing, kept nowhere
        ];
        let mut placed = Vec::new();
        for (i, &(ni, len, want)) in wants.iter().enumerate() {
            let bytes = vec![i as u8 + 1; len];
            let at = skel.place::<Rec>(&store, ni, children(ni), &bytes).unwrap();
            match want {
                Some(want) => assert_eq!(at, want, "node {ni}"),
                None => assert!(matches!(at, TailAt::Page(_)), "node {ni}: {at:?}"),
            }
            placed.push((ni, bytes, at));
        }
        let record = |ni: usize| Rec {
            key: ni as u32,
            children: children(ni).map_or([NodeRef::NULL; 2], |c| c.map(|c| skel.node_ref(c))),
        };
        skel.write(&store, |_, w| w.put_u32(0), record).unwrap();
        let read = |id: PageId| store.read(id);
        for (ni, bytes, at) in placed {
            let own = skel.node_ref(ni).page;
            let kids = children(ni).map(|c| c.map(|c| skel.node_ref(c).page));
            let left = kids.map_or(NULL_PAGE, |kids| kids[0]);
            let page = read(own).unwrap();
            let mut aheads = vec![None];
            aheads.extend(kids.into_iter().flatten().filter(|&p| p != own).map(Some));
            for ahead in aheads {
                let ahead = ahead.map(|id| read(id).unwrap());
                let holder = at.holder(own, left, &page, ahead.as_ref(), read).unwrap();
                let Some(holder) = holder else {
                    assert!(bytes.is_empty(), "node {ni}");
                    continue;
                };
                assert_eq!(at.bytes(&holder).unwrap()[..bytes.len()], bytes, "node {ni}");
            }
        }
    }

    /// `write_page` writes what `SkelRecord::at` indexes — the header, every
    /// slot and a tail flush with the end, on zeroed bytes — and
    /// `patch_record` rewrites one slot and nothing else.
    #[test]
    fn a_page_round_trips_and_a_patch_moves_one_record() {
        for page_size in [128, 512] {
            let store = PageStore::in_memory(page_size);
            let id = store.alloc().unwrap();
            let records: Vec<Rec> = (0..Rec::fit(page_size) as u32 - 1).map(rec).collect();
            let tail = [0xa5; 7];
            write_page(&store, id, |w| w.put_u32(0xfeed), &records, &tail).unwrap();
            let page = store.read(id).unwrap();
            assert_eq!(Rec::all(&page).unwrap(), records);
            assert_eq!(PageReader::new(&page[2..]).get_u32().unwrap(), 0xfeed);
            assert_eq!(page[page_size - tail.len()..], tail);
            let used = Rec::HEADER + Rec::LEN * records.len();
            assert!(page[used..page_size - tail.len()].iter().all(|&b| b == 0));
            let pad = |slot: usize| &page[Rec::HEADER + Rec::LEN * slot + 25..][..2];
            assert!((0..records.len()).all(|slot| pad(slot) == [0, 0]), "padding is zero");

            let last = records.len() - 1;
            patch_record(&store, NodeRef { page: id, slot: last as u16 }, &rec(99)).unwrap();
            let patched = store.read(id).unwrap();
            assert_eq!(Rec::at(&patched, last as u16).unwrap(), rec(99));
            let slot_start = Rec::HEADER + Rec::LEN * last;
            assert_eq!(patched[..slot_start], page[..slot_start]);
            assert_eq!(patched[slot_start + Rec::LEN..], page[slot_start + Rec::LEN..]);

            // `patch_page` rewrites the header and a tail, and an empty tail
            // keeps the page's own; the count and the records stay.
            let header = |v: u32| move |w: &mut PageWriter<'_>| w.put_u32(v);
            patch_page::<Rec>(&store, id, header(0xbeef), &[0x5a; 9]).unwrap();
            let moved = store.read(id).unwrap();
            assert_eq!(PageReader::new(&moved[2..]).get_u32().unwrap(), 0xbeef);
            assert_eq!(Rec::all(&moved).unwrap(), Rec::all(&patched).unwrap());
            assert_eq!(moved[page_size - 9..], [0x5a; 9]);
            assert_eq!(moved[Rec::HEADER..page_size - 9], patched[Rec::HEADER..page_size - 9]);
            patch_page::<Rec>(&store, id, header(0xfeed), &[]).unwrap();
            let kept = store.read(id).unwrap();
            assert_eq!(PageReader::new(&kept[2..]).get_u32().unwrap(), 0xfeed);
            assert_eq!(kept[Rec::HEADER..], moved[Rec::HEADER..]);
        }
    }

    /// A random binary tree of `n` nodes: node 0 the root, each internal
    /// node's children the next two unplaced indices.
    fn random_tree(n: usize, seed: u64) -> Vec<Option<[usize; 2]>> {
        let mut rng = pc_rng::Rng::seed_from_u64(seed);
        let mut children = vec![None; n];
        let (mut open, mut next) = (vec![0usize], 1);
        while next + 1 < n {
            let parent = open.swap_remove(rng.gen_range(0..open.len()));
            children[parent] = Some([next, next + 1]);
            open.extend([next, next + 1]);
            next += 2;
        }
        children
    }

    /// Every page of a paginated tree is visited exactly once, its records
    /// are the nodes paginate put there, and a page's root is its slot 0.
    #[test]
    fn each_page_of_a_paginated_tree_is_visited_once() {
        for (n, seed, page_size) in [(1, 1, 128), (101, 2, 128), (2_001, 3, 512), (4_001, 4, 256)] {
            let tree = random_tree(n, seed);
            let store = PageStore::in_memory(page_size);
            let skel =
                Skeleton::new(&store, n, Rec::fit(page_size), |ni| tree[ni].into_iter().flatten())
                    .unwrap();
            let record = |ni: usize| Rec {
                key: ni as u32,
                children: tree[ni].map_or([NodeRef::NULL; 2], |c| c.map(|c| skel.node_ref(c))),
            };
            skel.write(&store, |_, w| w.put_u32(0), record).unwrap();
            let mut seen = std::collections::HashMap::new();
            let mut keys = Vec::new();
            for_each_skeletal_page(&store, skel.root(), &mut |pid, _, recs: &[Rec]| {
                *seen.entry(pid).or_insert(0) += 1;
                assert_eq!(skel.node_ref(recs[0].key as usize), NodeRef { page: pid, slot: 0 });
                keys.extend(recs.iter().map(|r| r.key as usize));
                Ok(())
            })
            .unwrap();
            assert!(seen.values().all(|&visits| visits == 1), "n = {n}: {seen:?}");
            assert_eq!(seen.len() as u64, store.live_pages(), "n = {n}");
            keys.sort_unstable();
            assert!(keys.iter().copied().eq(0..n), "n = {n}: every node once");
        }
    }
}
