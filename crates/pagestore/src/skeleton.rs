//! Skeletal pages (the paper's Figure 2), one kit for every tree here
//! (DESIGN §4.1): `[count u16][rest of the header][record × count] …
//! [tail]`, each record a fixed-width [`SkelRecord`]. [`paginate`] cuts a
//! tree into pages of connected subtrees, [`Skeleton`] allocates and
//! writes them, [`write_page`] writes a page from zeroed bytes (so it is
//! exactly what it encodes) and [`patch_record`] one record in place, and
//! [`for_each_skeletal_page`] walks them. The segment tree packs several
//! subtrees a page, so it writes its records with [`write_page`] alone.

use std::collections::VecDeque;

use crate::codec::{PageReader, PageWriter};
use crate::error::Result;
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

    /// Puts `bytes` in the tails of the pages of `nodes`, at one offset
    /// from their ends, if each has that much room above its records of
    /// `R::LEN` bytes; returns the offset.
    pub fn place_tail<R: SkelRecord>(&mut self, nodes: &[usize], bytes: &[u8]) -> Option<usize> {
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
