//! Skeletal pages (the paper's Figure 2), one kit for every tree here
//! (DESIGN §4.1): `[count u16][rest of the header][record × count] …
//! [tail]`, each record a fixed-width [`SkelRecord`]. [`paginate`] cuts a
//! tree into pages of connected subtrees, [`Skeleton`] allocates and
//! writes them, [`write_page`] writes a page from zeroed bytes (so it is
//! exactly what it encodes), [`patch_record`] one record in place and
//! [`patch_page`] the header and tail around them, and
//! [`for_each_skeletal_page`] walks them. [`Skeleton::place`] keeps a
//! node's bytes in a page tail where there is room, else on a page of its
//! own ([`Skeleton::reserve`] and [`Skeleton::fill`] in two steps) or on a
//! [`Packer`]'s shared page, and [`TailAt`] says where. The segment tree
//! packs several subtrees a page, so it writes its records with
//! [`write_page`] alone.

use std::collections::VecDeque;

use pc_obs::ReadClass;

use crate::codec::{PageReader, PageWriter};
use crate::error::{Result, StoreError};
use crate::layout::{set_next, Block, Columns};
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
/// a pack page above its low 16 bits with the next bit set, or the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailAt {
    /// Nowhere: the node keeps nothing.
    None,
    /// At this byte offset of its children's pages (either one), or of its
    /// own page where its children share it or it has none.
    Inline(usize),
    /// On a page of its own.
    Page(PageId),
    /// At this byte offset of a pack page, shared by many lists ([`Packer`]).
    Packed(PageId, usize),
}

impl TailAt {
    const INLINE: u64 = 1 << 63;
    const PACKED: u64 = 1 << 62;

    /// Reads a [`TailAt::encode`]d value.
    pub fn decode(v: u64) -> TailAt {
        match v {
            _ if v == NULL_PAGE.0 => TailAt::None,
            _ if v & Self::INLINE != 0 => TailAt::Inline((v ^ Self::INLINE) as usize),
            _ if v & Self::PACKED != 0 => {
                TailAt::Packed(PageId((v ^ Self::PACKED) >> 16), (v & 0xffff) as usize)
            }
            _ => TailAt::Page(PageId(v)),
        }
    }

    /// The value a record stores.
    pub fn encode(self) -> u64 {
        match self {
            TailAt::None => NULL_PAGE.0,
            TailAt::Inline(offset) => Self::INLINE | offset as u64,
            TailAt::Page(page) => page.0,
            TailAt::Packed(page, offset) => {
                assert!(offset >> 16 == 0 && page.0 >> 46 == 0, "a pack handle past 46 + 16 bits");
                Self::PACKED | page.0 << 16 | offset as u64
            }
        }
    }

    /// The page a read fetches for the bytes, where they are not in a tail:
    /// their own page or their pack page.
    pub fn page(self) -> Option<PageId> {
        match self {
            TailAt::Page(id) | TailAt::Packed(id, _) => Some(id),
            TailAt::None | TailAt::Inline(_) => None,
        }
    }

    /// The value that names these bytes from off their page, where they
    /// are on `page` (a link to a child's): [`TailAt::encode`], an inline
    /// offset carrying `page` above its low 16 bits.
    pub fn link(self, page: PageId) -> u64 {
        let TailAt::Inline(offset) = self else { return self.encode() };
        // The top page would make the link `NULL_PAGE`.
        assert!(offset >> 16 == 0 && page.0 < (1 << 47) - 1, "a link past 47 + 16 bits");
        TailAt::Inline((page.0 as usize) << 16 | offset).encode()
    }

    /// The page a [`TailAt::link`] names and where on it the bytes are.
    pub fn unlink(v: u64) -> (PageId, TailAt) {
        match TailAt::decode(v) {
            TailAt::Inline(at) => (PageId((at >> 16) as u64), TailAt::Inline(at & 0xffff)),
            at @ (TailAt::Page(id) | TailAt::Packed(id, _)) => (id, at),
            TailAt::None => (NULL_PAGE, TailAt::None),
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
            (TailAt::Page(id) | TailAt::Packed(id, _), _) => read(id)?,
            (TailAt::Inline(_), _) if left.is_null() || left == own => page.clone(),
            (TailAt::Inline(_), Some(ahead)) => ahead.clone(),
            (TailAt::Inline(_), None) => read(left)?,
        }))
    }

    /// The bytes on `holder`, the page [`TailAt::holder`] gave: from the
    /// offset on, or all of a page of their own. `Corrupt` for an offset
    /// past the page.
    pub fn bytes(self, holder: &[u8]) -> Result<&[u8]> {
        let (TailAt::Inline(offset) | TailAt::Packed(_, offset)) = self else { return Ok(holder) };
        holder.get(offset..).ok_or_else(|| {
            StoreError::Corrupt(format!("a tail at {offset} past a {}-byte page", holder.len()))
        })
    }
}

/// Hands `take` the records of the chain of blocks from `start` on until it
/// declines one — a block a read of `class` (of its page or its pack page),
/// none past that record — but a block at a [`TailAt::Inline`] value, which
/// is read from `holder`, the page whose record named the list, at no read:
/// a list whose last block rides in a tail.
#[inline]
pub fn scan_chain_in<R: Columns>(
    store: &PageStore,
    start: PageId,
    holder: &[u8],
    class: ReadClass,
    mut take: impl FnMut(R) -> bool,
) -> Result<()> {
    let mut next = start;
    while !next.is_null() {
        let at = TailAt::decode(next.0);
        let page = at.page().map(|id| {
            pc_obs::record_read(class);
            store.read(id)
        });
        let page = page.transpose()?;
        let block = Block::parse::<R>(at.bytes(page.as_deref().unwrap_or(holder))?)?;
        if !block.each(&mut take) {
            return Ok(());
        }
        next = block.next;
    }
    Ok(())
}

/// Every block of the chain from `head` on, for the walks that count or
/// free a structure's pages: where it is — [`TailAt::Inline`] in the tail
/// of `holder` — and its bytes.
pub fn chain_blocks<R: Columns>(
    store: &PageStore,
    head: PageId,
    holder: &[u8],
) -> Result<Vec<(TailAt, usize)>> {
    let mut blocks = Vec::new();
    let mut next = head;
    while !next.is_null() {
        let at = TailAt::decode(next.0);
        let page = at.page().map(|id| store.read(id)).transpose()?;
        let block = Block::parse::<R>(at.bytes(page.as_deref().unwrap_or(holder))?)?;
        blocks.push((at, block.bytes));
        next = block.next;
    }
    Ok(blocks)
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

/// Rewrites the one record `at` names, in place, over `page`: the bytes of
/// `at.page` its caller holds (one write, no read).
pub fn patch_record<R: SkelRecord>(
    store: &PageStore,
    at: NodeRef,
    page: &[u8],
    rec: &R,
) -> Result<()> {
    let mut bytes = page.to_vec();
    let start = R::HEADER + R::LEN * at.slot as usize;
    rec.encode(&mut PageWriter::new(&mut bytes[start..start + R::LEN]))?;
    store.write(at.page, &bytes)
}

/// Rewrites skeletal page `id` around its records, in place, over `page`:
/// the bytes of `id` its caller holds (one write, no read). What `header`
/// adds to the count, and `tail` flush with the page's end, as
/// [`write_page`] puts them; an empty `tail` leaves the page's own alone.
/// Returns the bytes written.
pub fn patch_page<R: SkelRecord>(
    store: &PageStore,
    id: PageId,
    page: &[u8],
    header: impl FnOnce(&mut PageWriter<'_>) -> Result<()>,
    tail: &[u8],
) -> Result<Vec<u8>> {
    let mut bytes = page.to_vec();
    header(&mut PageWriter::new(&mut bytes[2..R::HEADER]))?;
    let records = R::HEADER + R::LEN * usize::from(PageReader::new(&bytes).get_u16()?);
    let start = bytes.len().checked_sub(tail.len()).filter(|&start| start >= records);
    let start = start.expect("a page tail over the records");
    bytes[start..].copy_from_slice(tail);
    store.write(id, &bytes)?;
    Ok(bytes)
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
    /// their own; no bytes are kept nowhere. [`Skeleton::reserve`] and
    /// [`Skeleton::fill`] in one call.
    pub fn place<R: SkelRecord>(
        &mut self,
        store: &PageStore,
        ni: usize,
        children: Option<[usize; 2]>,
        bytes: &[u8],
    ) -> Result<TailAt> {
        let at = self.reserve::<R>(store, ni, children, bytes.len())?;
        self.fill(store, ni, children, at, bytes)?;
        Ok(at)
    }

    /// Where [`Skeleton::place`] keeps `len` bytes for node `ni`: room in
    /// the tails, zeroed, or a page of its own, allocated. A builder whose
    /// bytes name where other nodes' went reserves every node's first and
    /// [`Skeleton::fill`]s them after.
    pub fn reserve<R: SkelRecord>(
        &mut self,
        store: &PageStore,
        ni: usize,
        children: Option<[usize; 2]>,
        len: usize,
    ) -> Result<TailAt> {
        let tail = self.reserve_tail::<R>(ni, children, len);
        tail.map_or_else(|| store.alloc().map(TailAt::Page), Ok)
    }

    /// [`Skeleton::place`], but bytes that do not fit the tails go to a
    /// pack page of `packer`, not to a page of their own.
    pub fn place_packed<R: SkelRecord>(
        &mut self,
        store: &PageStore,
        packer: &mut Packer,
        ni: usize,
        children: Option<[usize; 2]>,
        bytes: &[u8],
    ) -> Result<TailAt> {
        match self.reserve_tail::<R>(ni, children, bytes.len()) {
            Some(at) => self.fill(store, ni, children, at, bytes).map(|()| at),
            None => packer.put(store, bytes),
        }
    }

    /// Room for `len` bytes in the tails [`Skeleton::reserve`] keeps them
    /// in, zeroed; `None` where they do not fit.
    fn reserve_tail<R: SkelRecord>(
        &mut self,
        ni: usize,
        children: Option<[usize; 2]>,
        len: usize,
    ) -> Option<TailAt> {
        if len == 0 {
            return Some(TailAt::None);
        }
        let pages = self.homes(ni, children);
        let end = |p: usize| self.page_size - self.tails[p].len();
        let records = |p: usize| R::HEADER + R::LEN * self.pages[p].len();
        let fits = |offset| pages.iter().all(|&p| end(p) == end(pages[0]) && records(p) <= offset);
        let offset = end(pages[0]).checked_sub(len).filter(|&offset| fits(offset))?;
        for p in pages {
            self.tails[p].splice(0..0, std::iter::repeat_n(0, len));
        }
        Some(TailAt::Inline(offset))
    }

    /// Writes `bytes` where [`Skeleton::reserve`] put them for node `ni`
    /// (of the same `children`): into the tails, or on the page.
    pub fn fill(
        &mut self,
        store: &PageStore,
        ni: usize,
        children: Option<[usize; 2]>,
        at: TailAt,
        bytes: &[u8],
    ) -> Result<()> {
        match at {
            TailAt::None => Ok(()),
            TailAt::Page(id) => write_with(store, id, |w| w.put_bytes(bytes)),
            TailAt::Packed(..) => unreachable!("`reserve` keeps no bytes on a pack page"),
            TailAt::Inline(offset) => {
                for p in self.homes(ni, children) {
                    let start = offset + self.tails[p].len() - self.page_size;
                    self.tails[p][start..start + bytes.len()].copy_from_slice(bytes);
                }
                Ok(())
            }
        }
    }

    /// Writes node `ni`'s list of `blocks` (`layout::encode_blocks`) whose
    /// last block [`Skeleton::reserve`] put at `at` (with no children): that
    /// one there, each other on a page of its own, chained to the next.
    /// Returns where the list starts, as a page id (a [`TailAt`] value where
    /// the list is its last block).
    pub fn fill_list(
        &mut self,
        store: &PageStore,
        ni: usize,
        at: TailAt,
        blocks: Vec<(usize, Vec<u8>)>,
    ) -> Result<PageId> {
        let (_, last) = blocks.last().expect("a list of one block or more");
        self.fill(store, ni, None, at, last)?;
        Ok(write_chain(store, blocks, at)?[0].0)
    }

    /// The pages whose tails keep node `ni`'s bytes ([`Skeleton::place`]).
    fn homes(&self, ni: usize, children: Option<[usize; 2]>) -> Vec<usize> {
        let homes = match children {
            Some([left, right]) if !self.same_page(ni, left) => vec![left, right],
            _ => vec![ni],
        };
        let mut pages: Vec<usize> = homes.into_iter().map(|ni| self.loc[ni].0).collect();
        pages.dedup();
        pages
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

/// Shared pages for the partial blocks of many lists: a list's last block,
/// a directory that fits no tail. Each goes to the first page opened so far
/// with room for it — first fit, so at most one page is half full or less
/// — and a page is allocated when it is opened. A block there is a
/// [`TailAt::Packed`] value and costs the one read its own page would;
/// [`Packer::finish`] writes the pages.
#[derive(Default)]
pub struct Packer {
    pages: Vec<(PageId, Vec<u8>)>,
}

impl Packer {
    /// Keeps `bytes` on the first open page with room, opening one where
    /// none has: where they went.
    pub fn put(&mut self, store: &PageStore, bytes: &[u8]) -> Result<TailAt> {
        let page_size = store.page_size();
        assert!(bytes.len() <= page_size, "{} bytes packed on a page", bytes.len());
        let room = |(_, page): &(PageId, Vec<u8>)| page.len() + bytes.len() <= page_size;
        let i = self.pages.iter().position(room).unwrap_or(self.pages.len());
        if i == self.pages.len() {
            self.pages.push((store.alloc()?, Vec::new()));
        }
        let (id, page) = &mut self.pages[i];
        let at = TailAt::Packed(*id, page.len());
        page.extend_from_slice(bytes);
        Ok(at)
    }

    /// Writes every page opened.
    pub fn finish(self, store: &PageStore) -> Result<()> {
        self.pages.iter().try_for_each(|(id, bytes)| store.write(*id, bytes))
    }
}

/// Writes the encoded `blocks` of a list whose last block is at `last`, each
/// other on a page of its own: each block's link and record count, in order.
pub(crate) fn write_chain(
    store: &PageStore,
    mut blocks: Vec<(usize, Vec<u8>)>,
    last: TailAt,
) -> Result<Vec<(PageId, usize)>> {
    let mut links = vec![(PageId(last.encode()), blocks.pop().expect("a block").0)];
    for (run, mut bytes) in blocks.into_iter().rev() {
        let id = store.alloc()?;
        set_next(&mut bytes, links[links.len() - 1].0);
        store.write(id, &bytes)?;
        links.push((id, run));
    }
    links.reverse();
    Ok(links)
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
        // A pack handle is told from a tail offset and a page, page 0 too.
        let top = PageId((1 << 46) - 1);
        for at in [TailAt::Packed(PageId(0), 0), TailAt::Packed(top, 65_535)] {
            assert_eq!(TailAt::decode(at.encode()), at);
            assert_eq!(TailAt::unlink(at.link(PageId(3))), (at.page().unwrap(), at));
        }
        assert_eq!(TailAt::None.encode(), NULL_PAGE.0);
        // A link names the page too, where the bytes are inline.
        let page = PageId((1 << 47) - 2);
        let inline = TailAt::Inline(65_535);
        assert_eq!(TailAt::unlink(inline.link(page)), (page, inline));
        assert_eq!(TailAt::unlink(TailAt::Page(PageId(7)).link(page)), (PageId(7), all[3]));
        assert_eq!(TailAt::unlink(TailAt::None.link(page)), (NULL_PAGE, TailAt::None));
    }

    /// The packer puts each block on the first page opened with room for
    /// it; a list's last block there costs the one read of its class its
    /// own page would, and a chain names it from anywhere.
    #[test]
    fn a_packed_last_block_is_first_fit_and_one_read() {
        use crate::layout::{encode_block, BlockList};
        use crate::types::Point;
        let store = PageStore::in_memory(256);
        let mut packer = Packer::default();
        let points = |n: usize, from: i64| -> Vec<Point> {
            (0..n as i64).map(|i| Point::new(from + i, 7 * i % 101, i as u64)).collect()
        };
        let mut lists = Vec::new();
        for (n, from) in [(300, 0), (60, 500), (5, 900), (60, 1200)] {
            let records = points(n, from);
            lists.push((BlockList::build_packed(&store, &records, &mut packer).unwrap(), records));
        }
        packer.finish(&store).unwrap();
        // Last blocks of 108 and 60 records (162 and 108 bytes) open two
        // pages; 5 records (43 bytes) fit the first, where next fit would
        // put them on the second; 60 more fit only the second.
        let sizes = [(300, 0), (5, 900)].map(|(n, from)| {
            let records = points(n, from);
            let last = &records[records.len() - [108, 5][usize::from(n == 5)]..];
            encode_block(last, NULL_PAGE).len()
        });
        assert_eq!(sizes, [162, 43]);
        let placed: Vec<TailAt> = lists
            .iter()
            .map(|((_, blocks), _)| TailAt::decode(blocks[blocks.len() - 1].0 .0))
            .collect();
        let [a, b, c, d] = placed[..] else { unreachable!() };
        assert!(matches!((a, b), (TailAt::Packed(p, 0), TailAt::Packed(q, 0)) if p != q));
        assert_eq!(c, TailAt::Packed(a.page().unwrap(), 162));
        assert_eq!(d, TailAt::Packed(b.page().unwrap(), 108));
        for ((list, blocks), records) in &lists {
            assert_eq!(list.read_all(&store).unwrap(), *records);
            store.reset_stats();
            let mut got = Vec::new();
            let trace = pc_obs::traced(|| {
                let _scan = pc_obs::span!("scan");
                scan_chain_in(&store, list.head(), &[], ReadClass::Cache, |p: Point| {
                    got.push(p);
                    true
                })
            });
            trace.0.unwrap();
            assert_eq!(got, *records);
            let reads = blocks.len() as u64;
            assert_eq!(trace.1.reads_by_class[ReadClass::Cache as usize], reads);
            assert_eq!(store.stats().reads, reads, "one read a block");
        }
        assert_eq!(store.live_pages(), 2 + 1, "two pack pages, one page of a first block");
    }

    /// A pack handle whose offset, or whose block, runs past its page is
    /// `Corrupt`, not a panic.
    #[test]
    fn a_pack_handle_past_its_page_is_corrupt() {
        use crate::layout::BlockList;
        use crate::types::Point;
        let store = PageStore::in_memory(256);
        let mut packer = Packer::default();
        let records: Vec<Point> = (0..20).map(|i| Point::new(i, i, i as u64)).collect();
        let (list, _) = BlockList::build_packed(&store, &records, &mut packer).unwrap();
        packer.finish(&store).unwrap();
        let TailAt::Packed(page, _) = TailAt::decode(list.head().0) else { unreachable!() };
        let scan = |at: TailAt| {
            let head = PageId(at.encode());
            scan_chain_in(&store, head, &[], ReadClass::Cache, |_: Point| true)
        };
        assert!(scan(TailAt::Packed(page, 0)).is_ok());
        for offset in [257, 250, 230] {
            let err = scan(TailAt::Packed(page, offset));
            assert!(matches!(err, Err(StoreError::Corrupt(_))), "offset {offset}: {err:?}");
        }
        let past = PageId(TailAt::Packed(page, 300).encode());
        let err = BlockList::<Point>::read_block(&store, past);
        assert!(matches!(err, Err(StoreError::Corrupt(_))), "{err:?}");
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

            // Both patch the bytes they are handed: neither reads the page.
            let last = records.len() - 1;
            let reads = store.stats().reads;
            patch_record(&store, NodeRef { page: id, slot: last as u16 }, &page, &rec(99)).unwrap();
            assert_eq!(store.stats().reads, reads, "a patch reads nothing");
            let patched = store.read(id).unwrap();
            assert_eq!(Rec::at(&patched, last as u16).unwrap(), rec(99));
            let slot_start = Rec::HEADER + Rec::LEN * last;
            assert_eq!(patched[..slot_start], page[..slot_start]);
            assert_eq!(patched[slot_start + Rec::LEN..], page[slot_start + Rec::LEN..]);

            // `patch_page` rewrites the header and a tail, and an empty tail
            // keeps the page's own; the count and the records stay.
            let header = |v: u32| move |w: &mut PageWriter<'_>| w.put_u32(v);
            let reads = store.stats().reads;
            patch_page::<Rec>(&store, id, &patched, header(0xbeef), &[0x5a; 9]).unwrap();
            assert_eq!(store.stats().reads, reads, "a patch reads nothing");
            let moved = store.read(id).unwrap();
            assert_eq!(PageReader::new(&moved[2..]).get_u32().unwrap(), 0xbeef);
            assert_eq!(Rec::all(&moved).unwrap(), Rec::all(&patched).unwrap());
            assert_eq!(moved[page_size - 9..], [0x5a; 9]);
            assert_eq!(moved[Rec::HEADER..page_size - 9], patched[Rec::HEADER..page_size - 9]);
            patch_page::<Rec>(&store, id, &moved, header(0xfeed), &[]).unwrap();
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
