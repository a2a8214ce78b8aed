//! Reusable on-page layouts.
//!
//! [`BlockList`] is the single most important structure in the
//! reproduction: every cover-list, A-list, S-list, X-list, Y-list and path
//! cache in the paper is "a list of records blocked `B` to a page". It is a
//! singly-linked chain of pages, each holding a count, a next-page pointer,
//! and up to `capacity` records at the field widths of the owning
//! structure's [`Frame`], preserving insertion order. The frame is the
//! caller's — it is in no block's bytes — so every call that encodes or
//! decodes records takes it.

use std::marker::PhantomData;

use crate::codec::{PageReader, PageWriter};
use crate::error::{Result, StoreError};
use crate::store::{PageId, PageStore, NULL_PAGE};
use crate::types::{Frame, Framed, Record};

/// Byte overhead of a block-list page header: `count: u16`, `next: u64`.
const BLOCK_HEADER: usize = 2 + 8;

/// Handle to a blocked, immutable-once-built list of records.
///
/// The handle itself is 16 bytes (head page id + length) and implements
/// [`Record`], so lists can be embedded in parent pages (e.g. a tree node
/// storing handles to its cover list and cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockList<R: Framed> {
    head: PageId,
    len: u64,
    _marker: PhantomData<fn() -> R>,
}

/// Decodes one block: its records and the next page of its chain.
pub fn decode_block<R: Framed>(page: &[u8], frame: Frame) -> Result<(Vec<R>, PageId)> {
    let mut r = PageReader::new(page);
    let count = r.get_u16()? as usize;
    let next = PageId(r.get_u64()?);
    let cap = BlockList::<R>::capacity(page.len(), frame);
    if count > cap {
        return Err(StoreError::Corrupt(format!(
            "block claims {count} records but capacity is {cap}"
        )));
    }
    Ok((unpack_records(frame, &mut r, count)?, next))
}

/// The next `count` records under `r`, stored at `frame`: the decode loop
/// of every page of data records (presized, no adaptor between the cursor
/// and the `Vec`: a scan spends its time here).
#[inline]
pub fn unpack_records<R: Framed>(
    frame: Frame,
    r: &mut PageReader<'_>,
    count: usize,
) -> Result<Vec<R>> {
    let mut records = Vec::with_capacity(count);
    for _ in 0..count {
        records.push(R::unpack(frame, r)?);
    }
    Ok(records)
}

/// The next page of a block's chain, for the walks that need no record.
pub fn next_of(page: &[u8]) -> Result<PageId> {
    let mut r = PageReader::new(page);
    r.skip(2)?;
    Ok(PageId(r.get_u64()?))
}

/// The pages of the chain of blocks starting at `head`, in order (one I/O
/// per block), for the walks that count or free a structure's pages.
pub fn chain_pages(store: &PageStore, head: PageId) -> Result<Vec<PageId>> {
    let mut out = Vec::new();
    let mut cur = head;
    while !cur.is_null() {
        out.push(cur);
        cur = next_of(&store.read(cur)?)?;
    }
    Ok(out)
}

impl<R: Framed> BlockList<R> {
    /// The empty list: no pages, zero records.
    pub fn empty() -> Self {
        BlockList { head: NULL_PAGE, len: 0, _marker: PhantomData }
    }

    /// Records of `frame`'s widths that fit in one page of `page_size`
    /// bytes.
    pub fn capacity(page_size: usize, frame: Frame) -> usize {
        let cap = (page_size - BLOCK_HEADER) / frame.record_len::<R>();
        assert!(cap > 0, "page size {page_size} too small for records of frame {frame}");
        cap
    }

    /// Builds a list from `records`, writing `ceil(len / capacity)` pages.
    /// Record order is preserved — the paper's lists are always sorted by
    /// the caller before blocking.
    pub fn build(store: &PageStore, frame: Frame, records: &[R]) -> Result<Self> {
        let cap = Self::capacity(store.page_size(), frame);
        Ok(Self::build_blocked(store, frame, records, cap)?.0)
    }

    /// [`BlockList::build`] with `per_block <= capacity` records to a page
    /// (`ceil(len / per_block)` pages). A structure whose lists are copied
    /// into other lists block by block picks one count for all of them, so
    /// that a block of a source is a block of the copy whatever the two
    /// record sizes are. Also returns the blocks' pages in chain order, for
    /// the builder that records more of them than the head.
    pub fn build_blocked(
        store: &PageStore,
        frame: Frame,
        records: &[R],
        per_block: usize,
    ) -> Result<(Self, Vec<PageId>)> {
        if records.is_empty() {
            return Ok((Self::empty(), Vec::new()));
        }
        let cap = Self::capacity(store.page_size(), frame);
        assert!(
            (1..=cap).contains(&per_block),
            "{per_block} records per block, a page holds {cap}"
        );
        let chunks: Vec<&[R]> = records.chunks(per_block).collect();
        let ids: Vec<PageId> = chunks.iter().map(|_| store.alloc()).collect::<Result<_>>()?;
        let mut buf = vec![0u8; store.page_size()];
        for (i, chunk) in chunks.iter().enumerate() {
            let next = ids.get(i + 1).copied().unwrap_or(NULL_PAGE);
            let used = {
                let mut w = PageWriter::new(&mut buf);
                w.put_u16(chunk.len() as u16)?;
                w.put_u64(next.0)?;
                for rec in *chunk {
                    rec.pack(frame, &mut w)?;
                }
                w.position()
            };
            store.write(ids[i], &buf[..used])?;
        }
        Ok((BlockList { head: ids[0], len: records.len() as u64, _marker: PhantomData }, ids))
    }

    /// First page of the chain ([`NULL_PAGE`] when empty).
    pub fn head(&self) -> PageId {
        self.head
    }

    /// Total number of records.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the list holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the list one *block* at a time; each step costs one
    /// I/O. Stopping early (not exhausting the iterator) reads no further
    /// pages — this is how queries achieve output-sensitive cost.
    pub fn blocks<'s>(&self, store: &'s PageStore, frame: Frame) -> BlockIter<'s, R> {
        Self::blocks_from(store, frame, self.head)
    }

    /// [`BlockList::blocks`] from the block on page `start` on: a list's
    /// owner may name more of its blocks than the head (the second, for
    /// the continuation rule; any, through a directory), and a scan can
    /// start at each of them.
    pub fn blocks_from(store: &PageStore, frame: Frame, start: PageId) -> BlockIter<'_, R> {
        BlockIter { store, frame, next: start, _marker: PhantomData }
    }

    /// Reads the entire list into memory (one I/O per block).
    pub fn read_all(&self, store: &PageStore, frame: Frame) -> Result<Vec<R>> {
        let mut out = Vec::with_capacity(self.len as usize);
        for block in self.blocks(store, frame) {
            out.extend(block?);
        }
        Ok(out)
    }

    /// Reads one block of a list directly by its page id, returning the
    /// records and the next page in the chain. This is the random-access
    /// primitive behind *directory-indexed* lists (used by the 3-sided PST
    /// to jump into the middle of a sorted list in one I/O).
    pub fn read_block(
        store: &PageStore,
        frame: Frame,
        page_id: PageId,
    ) -> Result<(Vec<R>, PageId)> {
        decode_block(&store.read(page_id)?, frame)
    }

    /// The page ids of every block in chain order (one I/O per block), for
    /// the walks that count or free a built structure's pages. A builder
    /// has them from [`BlockList::build_blocked`] and does not call this.
    pub fn block_pages(&self, store: &PageStore) -> Result<Vec<PageId>> {
        chain_pages(store, self.head)
    }

    /// Frees every page of the list. The handle must not be used again.
    pub fn free(&self, store: &PageStore) -> Result<()> {
        self.block_pages(store)?.into_iter().try_for_each(|page| store.free(page))
    }
}

impl<R: Framed> Record for BlockList<R> {
    const ENCODED_LEN: usize = 16;

    fn encode(&self, w: &mut PageWriter<'_>) -> Result<()> {
        w.put_u64(self.head.0)?;
        w.put_u64(self.len)
    }

    fn decode(r: &mut PageReader<'_>) -> Result<Self> {
        Ok(BlockList { head: PageId(r.get_u64()?), len: r.get_u64()?, _marker: PhantomData })
    }
}

/// Iterator over the blocks of a [`BlockList`]; see
/// [`BlockList::blocks`].
pub struct BlockIter<'s, R: Framed> {
    store: &'s PageStore,
    frame: Frame,
    next: PageId,
    _marker: PhantomData<fn() -> R>,
}

impl<R: Framed> Iterator for BlockIter<'_, R> {
    type Item = Result<Vec<R>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next.is_null() {
            return None;
        }
        Some(BlockList::read_block(self.store, self.frame, self.next).map(|(records, next)| {
            self.next = next;
            records
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Point;

    /// The fixed 24-byte form: the arithmetic these tests state.
    const WIDE: Frame = Frame::WIDE;

    fn points(n: usize) -> Vec<Point> {
        (0..n).map(|i| Point::new(i as i64, (i * 7 % 101) as i64, i as u64)).collect()
    }

    #[test]
    fn empty_list_has_no_pages() {
        let store = PageStore::in_memory(256);
        let list = BlockList::<Point>::build(&store, WIDE, &[]).unwrap();
        assert!(list.is_empty());
        assert_eq!(store.live_pages(), 0);
        assert_eq!(list.read_all(&store, WIDE).unwrap(), vec![]);
        assert!(list.blocks(&store, WIDE).next().is_none());
        assert_eq!(store.stats().total_io(), 0);
    }

    #[test]
    fn build_and_read_all_preserves_order() {
        let store = PageStore::in_memory(256);
        let data = points(100);
        let list = BlockList::build(&store, WIDE, &data).unwrap();
        assert_eq!(list.len(), 100);
        assert_eq!(list.read_all(&store, WIDE).unwrap(), data);
    }

    #[test]
    fn capacity_matches_layout_arithmetic() {
        // 256-byte page: (256 - 10) / 24 = 10 points per block.
        assert_eq!(BlockList::<Point>::capacity(256, WIDE), 10);
        let store = PageStore::in_memory(256);
        BlockList::build(&store, WIDE, &points(95)).unwrap();
        assert_eq!(store.live_pages(), 10); // ceil(95/10)
        assert_eq!(store.stats().writes, 10);
    }

    #[test]
    fn a_narrower_frame_blocks_more_records_to_the_page() {
        // 4 KiB: (4096 - 10) / 24 = 170 wide, (4096 - 10) / 9 = 454 at 3/3/3.
        assert_eq!(BlockList::<Point>::capacity(4096, WIDE), 170);
        assert_eq!(BlockList::<Point>::capacity(4096, Frame::new(3, 3, 3)), 454);
        let store = PageStore::in_memory(256);
        let data: Vec<Point> =
            (0..100).map(|i| Point::new(i - 50, -300 * i, i as u64 * 70_000)).collect();
        let frame = Frame::of(&data);
        assert_eq!(frame, Frame::new(1, 2, 3));
        // (256 - 10) / 6 = 41 to a block.
        let list = BlockList::build(&store, frame, &data).unwrap();
        assert_eq!(store.live_pages(), 3);
        assert_eq!(list.read_all(&store, frame).unwrap(), data);
        let page = store.read(list.head()).unwrap();
        let (first, next) = decode_block::<Point>(&page, frame).unwrap();
        assert_eq!((&first[..], next), (&data[..41], next_of(&page).unwrap()));
        assert_eq!(list.block_pages(&store).unwrap()[1], next);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn a_record_the_frame_does_not_hold_is_refused() {
        let store = PageStore::in_memory(256);
        let _ = BlockList::build(&store, Frame::new(1, 1, 1), &[Point::new(128, 0, 0)]);
    }

    #[test]
    fn early_stop_reads_only_needed_blocks() {
        let store = PageStore::in_memory(256); // 10 points/block
        let list = BlockList::build(&store, WIDE, &points(100)).unwrap();
        store.reset_stats();
        let mut seen = 0;
        for block in list.blocks(&store, WIDE) {
            seen += block.unwrap().len();
            if seen >= 25 {
                break;
            }
        }
        assert_eq!(store.stats().reads, 3, "25 records span 3 blocks of 10");
    }

    #[test]
    fn first_block_is_one_io() {
        let store = PageStore::in_memory(256);
        let data = points(50);
        let list = BlockList::build(&store, WIDE, &data).unwrap();
        store.reset_stats();
        let first = list.blocks(&store, WIDE).next().unwrap().unwrap();
        assert_eq!(first, data[..10].to_vec());
        assert_eq!(store.stats().reads, 1);
    }

    #[test]
    fn handle_roundtrips_as_record() {
        let store = PageStore::in_memory(256);
        let list = BlockList::build(&store, WIDE, &points(30)).unwrap();
        let mut buf = vec![0u8; BlockList::<Point>::ENCODED_LEN];
        let mut w = PageWriter::new(&mut buf);
        list.encode(&mut w).unwrap();
        let mut r = PageReader::new(&buf);
        let back = BlockList::<Point>::decode(&mut r).unwrap();
        assert_eq!(back, list);
        assert_eq!(back.read_all(&store, WIDE).unwrap().len(), 30);
    }

    #[test]
    fn free_releases_every_page() {
        let store = PageStore::in_memory(256);
        let list = BlockList::build(&store, WIDE, &points(95)).unwrap();
        assert_eq!(store.live_pages(), 10);
        list.free(&store).unwrap();
        assert_eq!(store.live_pages(), 0);
    }

    #[test]
    fn single_partial_block() {
        let store = PageStore::in_memory(256);
        let data = points(3);
        let list = BlockList::build(&store, WIDE, &data).unwrap();
        assert_eq!(store.live_pages(), 1);
        assert_eq!(list.read_all(&store, WIDE).unwrap(), data);
    }

    #[test]
    fn short_blocked_list_builds_reads_and_frees() {
        // 7 records to a block where a page holds 10: 30 records, 5 blocks.
        let store = PageStore::in_memory(256);
        let data = points(30);
        let (list, built) = BlockList::build_blocked(&store, WIDE, &data, 7).unwrap();
        assert_eq!(list.len(), 30);
        assert_eq!(store.live_pages(), 5);
        let sizes: Vec<usize> = list.blocks(&store, WIDE).map(|b| b.unwrap().len()).collect();
        assert_eq!(sizes, vec![7, 7, 7, 7, 2]);
        assert_eq!(list.blocks(&store, WIDE).next().unwrap().unwrap(), data[..7].to_vec());
        assert_eq!(list.read_all(&store, WIDE).unwrap(), data);
        let pages = list.block_pages(&store).unwrap();
        assert_eq!(pages.len(), 5);
        assert_eq!(built, pages, "the build names the pages the chain walk finds");
        let (second, next) = BlockList::<Point>::read_block(&store, WIDE, pages[1]).unwrap();
        assert_eq!((second, next), (data[7..14].to_vec(), pages[2]));
        // A scan can start at any block: the second one on.
        let from_second: Vec<Point> = BlockList::blocks_from(&store, WIDE, pages[1])
            .flat_map(|block| block.unwrap())
            .collect();
        assert_eq!(from_second, data[7..]);

        list.free(&store).unwrap();
        assert_eq!(store.live_pages(), 0);
    }

    #[test]
    #[should_panic(expected = "records per block")]
    fn blocking_past_the_page_capacity_is_refused() {
        let store = PageStore::in_memory(256);
        let _ = BlockList::build_blocked(&store, WIDE, &points(30), 11);
    }
}
