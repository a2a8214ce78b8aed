//! The block codec, and the blocked list built on it (DESIGN §4.1).
//!
//! Every list of data records is a run of blocks, and every block
//! describes itself:
//!
//! ```text
//! [count u16][next u64] then per column [base u64][width u8][mode u8]
//! then the columns, bit-packed low bit first, one after the other
//! ```
//!
//! Per block and column the codec stores whichever is narrower: each value
//! as an offset from the column's smallest, or, where the column is
//! monotone in the block, as its gap from the one before (the first value
//! the base), at 0–64 bits. So a block's `B` is what its own records need,
//! and an outlier costs bytes in the blocks it lands in, not a rebuild.
//! Fill is judged in bytes ([`cut`]), never below [`min_records`], the
//! guaranteed `B`. [`BlockList`] chains blocks, one a page, and
//! [`scan_chain`] is the one loop a query reads a chain of blocks with.

use std::marker::PhantomData;

use pc_obs::ReadClass;

use crate::codec::{get_bits, put_bits, PageReader, PageWriter};
use crate::error::{Result, StoreError};
use crate::page::Page;
use crate::skeleton::{write_chain, Packer, TailAt};
use crate::store::{PageId, PageStore, NULL_PAGE};
use crate::types::Record;

/// The most columns a record has: an update is a point, a flag and a stamp.
pub const MAX_COLUMNS: usize = 5;

/// Bytes of a block's header before its columns': `count u16`, `next u64`.
const BLOCK_HEADER: usize = 2 + 8;
/// Bytes of one column's header: `base u64`, `width u8`, `mode u8`.
const COLUMN_HEADER: usize = 8 + 1 + 1;
/// The most records a block holds: its `u16` count.
const MAX_RECORDS: usize = u16::MAX as usize;

/// A column's values as offsets from the base, its smallest.
const OFFSET: u8 = 0;
/// Gaps of a non-increasing column: the base is the first value, each next
/// one the previous minus its field.
const GAP_DOWN: u8 = 1;
/// Gaps of a non-decreasing column.
const GAP_UP: u8 = 2;

/// A data record as the block codec stores it: [`Columns::COLUMNS`]
/// unsigned keys. A signed field is stored as its [`key_of`], so the
/// codec's order and gaps are the field's.
pub trait Columns: Sized + Copy {
    /// How many columns the record has, at most [`MAX_COLUMNS`].
    const COLUMNS: usize;

    /// Column `c` (`c < COLUMNS`) of the record.
    fn column(&self, c: usize) -> u64;

    /// The record whose columns are the first `COLUMNS` of `c`.
    fn from_columns(c: &[u64; MAX_COLUMNS]) -> Self;
}

/// The unsigned key of a signed field: order-preserving (the sign bit
/// flipped).
#[inline]
pub fn key_of(v: i64) -> u64 {
    (v as u64) ^ (1 << 63)
}

/// The signed field of a [`key_of`].
#[inline]
pub fn signed_of(key: u64) -> i64 {
    (key ^ (1 << 63)) as i64
}

/// The bits `v` takes: 0 for 0.
fn bits(v: u64) -> u32 {
    u64::BITS - v.leading_zeros()
}

/// Bytes of a block header for records of `columns` columns.
fn header_len(columns: usize) -> usize {
    BLOCK_HEADER + COLUMN_HEADER * columns
}

/// One column of a growing block: what each of its codings needs.
#[derive(Debug, Clone, Copy)]
struct ColumnRun {
    first: u64,
    last: u64,
    min: u64,
    max: u64,
    /// Widest gap so far, down and up; `None` once the column turned the
    /// other way.
    down: Option<u64>,
    up: Option<u64>,
}

impl ColumnRun {
    fn new(v: u64) -> ColumnRun {
        ColumnRun { first: v, last: v, min: v, max: v, down: Some(0), up: Some(0) }
    }

    fn add(&mut self, v: u64) {
        self.down = self.down.filter(|_| v <= self.last).map(|gap| gap.max(self.last - v));
        self.up = self.up.filter(|_| v >= self.last).map(|gap| gap.max(v - self.last));
        (self.min, self.max, self.last) = (self.min.min(v), self.max.max(v), v);
    }

    /// The narrowest coding of the column's `count` values: (bits, base,
    /// width, mode). Offsets win a tie: they decode without a running sum.
    fn coding(&self, count: usize) -> (usize, u64, u32, u8) {
        let offset = bits(self.max - self.min);
        let mut best = (count * offset as usize, self.min, offset, OFFSET);
        for (gap, mode) in [(self.down, GAP_DOWN), (self.up, GAP_UP)] {
            let Some(width) = gap.map(bits) else { continue };
            let fields = count.saturating_sub(1) * width as usize;
            if fields < best.0 {
                best = (fields, self.first, width, mode);
            }
        }
        best
    }
}

/// A block grown a record at a time and priced in bytes, so that every cut
/// of a run of records is priced in one pass.
#[derive(Debug, Clone)]
pub struct Fill {
    count: usize,
    columns: usize,
    runs: [ColumnRun; MAX_COLUMNS],
}

impl Fill {
    /// The empty block of records of `columns` columns.
    pub fn new(columns: usize) -> Fill {
        assert!((1..=MAX_COLUMNS).contains(&columns), "{columns} columns");
        Fill { count: 0, columns, runs: [ColumnRun::new(0); MAX_COLUMNS] }
    }

    /// Adds `rec` at the end.
    pub fn add<R: Columns>(&mut self, rec: &R) {
        debug_assert_eq!(R::COLUMNS, self.columns);
        for (c, run) in self.runs[..self.columns].iter_mut().enumerate() {
            let v = rec.column(c);
            if self.count == 0 {
                *run = ColumnRun::new(v);
            } else {
                run.add(v);
            }
        }
        self.count += 1;
    }

    /// Encoded bytes of the block; past the count, more than any page.
    pub fn bytes(&self) -> usize {
        if self.count > MAX_RECORDS {
            return usize::MAX;
        }
        let runs = &self.runs[..self.columns];
        let bits: usize = runs.iter().map(|run| run.coding(self.count).0).sum();
        header_len(self.columns) + bits.div_ceil(8)
    }

    /// True if the block fits `budget` bytes.
    pub fn fits(&self, budget: usize) -> bool {
        self.bytes() <= budget
    }
}

/// The fewest records of `R` a block of `budget` bytes holds: the count at
/// 64-bit columns (169 points at 4 KiB, 19 at 512 B). Every block of a
/// [`cut`] but the last holds at least this many.
pub fn min_records<R: Columns>(budget: usize) -> usize {
    let m = budget.saturating_sub(header_len(R::COLUMNS)) * 8 / (64 * R::COLUMNS);
    assert!(m >= 1, "{budget}-byte blocks hold no record at full width");
    m.min(MAX_RECORDS)
}

/// Where `records` are cut into blocks of at most `budget` bytes: the
/// start of every block, each the longest run that fits.
pub fn cut<R: Columns>(records: &[R], budget: usize) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut start = 0;
    while start < records.len() {
        starts.push(start);
        let taken = fill_one(&records[start..], budget).0;
        assert!(taken > 0, "{budget}-byte blocks hold no record");
        start += taken;
    }
    starts
}

/// How many of `records`, taken in order, fill `blocks` blocks of `budget`
/// bytes, each the longest run that fits (none if one record alone passes
/// the budget).
pub fn fill_blocks<R: Columns>(records: &[R], blocks: usize, budget: usize) -> usize {
    let mut taken = 0;
    for _ in 0..blocks {
        match fill_one(&records[taken..], budget).0 {
            0 => break,
            run => taken += run,
        }
    }
    taken
}

/// The longest run of `records` one block of `budget` bytes holds, and
/// that block. A block's bytes only grow with its records, so it is priced
/// a step of 16 at a time, and record by record through the step that
/// passes `budget`.
fn fill_one<R: Columns>(records: &[R], budget: usize) -> (usize, Fill) {
    let mut fill = Fill::new(R::COLUMNS);
    let mut taken = 0;
    while taken < records.len() {
        let step = &records[taken..records.len().min(taken + 16)];
        let mut grown = fill.clone();
        step.iter().for_each(|rec| grown.add(rec));
        if !grown.fits(budget) {
            for rec in step {
                let before = fill.clone();
                fill.add(rec);
                if !fill.fits(budget) {
                    return (taken, before);
                }
                taken += 1;
            }
        }
        (fill, taken) = (grown, taken + step.len());
    }
    (taken, fill)
}

/// Encodes `records` as one block chained to `next`: exactly
/// [`Fill::bytes`] bytes. Panics if they exceed `u16::MAX`.
pub fn encode_block<R: Columns>(records: &[R], next: PageId) -> Vec<u8> {
    let mut fill = Fill::new(R::COLUMNS);
    records.iter().for_each(|rec| fill.add(rec));
    encode_filled(records, next, &fill)
}

/// `records` cut into blocks as [`BlockList::build`] cuts them for pages
/// of `page_size` bytes: each block's record count and bytes, chained to
/// nothing ([`set_next`] chains them). For a builder that keeps a list's
/// last block elsewhere than on a page of its own
/// ([`BlockList::with_head`]).
pub fn encode_blocks<R: Columns>(records: &[R], page_size: usize) -> Vec<(usize, Vec<u8>)> {
    let (mut blocks, mut taken) = (Vec::new(), 0);
    while taken < records.len() {
        let (run, fill) = fill_one(&records[taken..], page_size);
        assert!(run > 0, "{page_size}-byte blocks hold no record");
        blocks.push((run, encode_filled(&records[taken..taken + run], NULL_PAGE, &fill)));
        taken += run;
    }
    blocks
}

/// Chains the encoded block `block` to `next`.
pub fn set_next(block: &mut [u8], next: PageId) {
    block[2..10].copy_from_slice(&next.0.to_le_bytes());
}

/// [`encode_block`] of `records` whose [`Fill`] is `fill`.
fn encode_filled<R: Columns>(records: &[R], next: PageId, fill: &Fill) -> Vec<u8> {
    let bytes = fill.bytes();
    assert!(bytes != usize::MAX, "{} records in one block", records.len());
    // Room for `put_bits`' 16-byte window past the last field.
    let mut buf = vec![0u8; bytes + 16];
    buf[..2].copy_from_slice(&(records.len() as u16).to_le_bytes());
    buf[2..10].copy_from_slice(&next.0.to_le_bytes());
    let mut bit = 8 * header_len(R::COLUMNS);
    for c in 0..R::COLUMNS {
        let (_, base, width, mode) = fill.runs[c].coding(records.len());
        let at = BLOCK_HEADER + COLUMN_HEADER * c;
        buf[at..at + 8].copy_from_slice(&base.to_le_bytes());
        (buf[at + 8], buf[at + 9]) = (width as u8, mode);
        let mut prev = base;
        let skip = usize::from(mode != OFFSET);
        for rec in &records[skip..] {
            let v = rec.column(c);
            let field = match mode {
                OFFSET => v - base,
                GAP_DOWN => prev - v,
                _ => v - prev,
            };
            put_bits(&mut buf, bit, field, width);
            bit += width as usize;
            prev = v;
        }
    }
    buf.truncate(bytes);
    buf
}

/// One column of a [`Block`]: its base, width, mode and first bit.
#[derive(Debug, Clone, Copy, Default)]
struct Column {
    base: u64,
    width: u32,
    mode: u8,
    start: usize,
}

/// A block read in place: its count, its next page and each column's
/// coding; the records are decoded one at a time ([`Block::each`]).
#[derive(Debug, Clone, Copy)]
pub struct Block<'a> {
    page: &'a [u8],
    /// Records in the block.
    pub count: usize,
    /// The next block of its chain ([`NULL_PAGE`] at the end).
    pub next: PageId,
    /// Bytes the block takes, its header included.
    pub bytes: usize,
    columns: [Column; MAX_COLUMNS],
}

impl<'a> Block<'a> {
    /// The block of records of `R` at the start of `page`: a typed
    /// [`StoreError::Corrupt`] unless every column lies inside the page.
    pub fn parse<R: Columns>(page: &'a [u8]) -> Result<Block<'a>> {
        let mut r = PageReader::new(page);
        let (count, next) = (usize::from(r.get_u16()?), PageId(r.get_u64()?));
        let mut columns = [Column::default(); MAX_COLUMNS];
        let mut bit = 8 * header_len(R::COLUMNS);
        for column in &mut columns[..R::COLUMNS] {
            let (base, width, mode) = (r.get_u64()?, u32::from(r.get_u8()?), r.get_u8()?);
            if width > 64 || mode > GAP_UP {
                return Err(StoreError::Corrupt(format!(
                    "block column of mode {mode}, {width} bits"
                )));
            }
            let fields = if mode == OFFSET { count } else { count.saturating_sub(1) };
            *column = Column { base, width, mode, start: bit };
            bit += fields * width as usize;
        }
        if bit.div_ceil(8) > page.len() {
            return Err(StoreError::Corrupt(format!(
                "block of {count} records runs to bit {bit} of a {}-byte page",
                page.len()
            )));
        }
        Ok(Block { page, count, next, bytes: bit.div_ceil(8), columns })
    }

    /// Column `c` of records `from..from + out.len()` into `out`, a gap
    /// column's running value in `last`: one tight loop, its coding fixed
    /// for the block.
    #[inline]
    fn column(&self, c: usize, from: usize, out: &mut [u64], last: &mut u64) {
        let Column { base, width, mode, start } = self.columns[c];
        let (page, w) = (self.page, width as usize);
        let field = |i: usize| get_bits(page, start + i * w, width);
        match mode {
            _ if width == 0 => out.fill(base),
            OFFSET => {
                let fields = out.iter_mut().zip(from..);
                fields.for_each(|(v, i)| *v = base.wrapping_add(field(i)));
            }
            _ => {
                for (v, i) in out.iter_mut().zip(from..) {
                    *last = match i {
                        0 => base,
                        _ if mode == GAP_DOWN => last.wrapping_sub(field(i - 1)),
                        _ => last.wrapping_add(field(i - 1)),
                    };
                    *v = *last;
                }
            }
        }
    }

    /// Hands `take` the records in order until it declines one (then
    /// false), decoding them column by column a chunk at a time, the chunks
    /// doubling from 4 records to 32: a scan that stops early decodes
    /// little past the record it stops at.
    #[inline]
    pub fn each<R: Columns>(&self, mut take: impl FnMut(R) -> bool) -> bool {
        const CHUNK: usize = 32;
        let (mut chunk, mut last) = ([[0u64; CHUNK]; MAX_COLUMNS], [0u64; MAX_COLUMNS]);
        let (mut from, mut size) = (0, 4);
        while from < self.count {
            let k = size.min(self.count - from);
            for c in 0..R::COLUMNS {
                self.column(c, from, &mut chunk[c][..k], &mut last[c]);
            }
            let mut rows = (0..k).map(|j| R::from_columns(&std::array::from_fn(|c| chunk[c][j])));
            if !rows.all(&mut take) {
                return false;
            }
            (from, size) = (from + k, (2 * size).min(CHUNK));
        }
        true
    }

    /// Every record, decoded.
    pub fn to_vec<R: Columns>(&self) -> Vec<R> {
        let mut out = Vec::with_capacity(self.count);
        self.each(|rec| {
            out.push(rec);
            true
        });
        out
    }
}

/// Decodes one block: its records and the next page of its chain.
pub fn decode_block<R: Columns>(page: &[u8]) -> Result<(Vec<R>, PageId)> {
    let block = Block::parse::<R>(page)?;
    Ok((block.to_vec(), block.next))
}

/// The next page of a block's chain, for the walks that need no record.
pub fn next_of(page: &[u8]) -> Result<PageId> {
    let mut r = PageReader::new(page);
    r.skip(2)?;
    Ok(PageId(r.get_u64()?))
}

/// The page a chain's link names and its block's bytes there: a page of
/// its own, or a pack page from the link's offset on
/// (`skeleton::TailAt::Packed`).
fn read_link(store: &PageStore, link: PageId) -> Result<(PageId, Page, usize)> {
    let at = TailAt::decode(link.0);
    let id = at.page().unwrap_or(link);
    let page = store.read(id)?;
    let offset = page.len() - at.bytes(&page)?.len();
    Ok((id, page, offset))
}

/// The pages of the chain of blocks starting at `head`, in order (one I/O
/// per block; a pack page where a block is on one), for the walks that
/// count or free a structure's pages.
pub fn chain_pages(store: &PageStore, head: PageId) -> Result<Vec<PageId>> {
    let mut out = Vec::new();
    let mut cur = head;
    while !cur.is_null() {
        let (id, page, offset) = read_link(store, cur)?;
        out.push(id);
        cur = next_of(&page[offset..])?;
    }
    Ok(out)
}

/// Scans the chain of blocks from page `start` on, each block one read
/// named `class`, handing its records to `take` until it returns false: no
/// block is decoded far, or read at all, past that record. A chain whose
/// last block rides in a page tail is `skeleton::scan_chain_in`'s.
#[inline]
pub fn scan_chain<R: Columns>(
    store: &PageStore,
    start: PageId,
    class: ReadClass,
    take: impl FnMut(R) -> bool,
) -> Result<()> {
    crate::skeleton::scan_chain_in(store, start, &[], class, take)
}

/// Handle to a blocked, immutable-once-built list of records.
///
/// The handle itself is 16 bytes (head page id + length) and implements
/// [`Record`], so lists can be embedded in parent pages (e.g. a tree node
/// storing handles to its cover list and cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockList<R: Columns> {
    head: PageId,
    len: u64,
    _marker: PhantomData<fn() -> R>,
}

impl<R: Columns> BlockList<R> {
    /// The empty list: no pages, zero records.
    pub fn empty() -> Self {
        BlockList { head: NULL_PAGE, len: 0, _marker: PhantomData }
    }

    /// Builds a list from `records`, [`cut`] to the store's pages. Record
    /// order is preserved — the paper's lists are always sorted by the
    /// caller before blocking.
    pub fn build(store: &PageStore, records: &[R]) -> Result<Self> {
        Ok(Self::build_blocks(store, records)?.0)
    }

    /// [`BlockList::build`], also returning each block's page and record
    /// count in chain order, for the builders that name more of a list
    /// than its head (its second block, a directory of its blocks).
    pub fn build_blocks(store: &PageStore, records: &[R]) -> Result<(Self, Vec<(PageId, usize)>)> {
        if records.is_empty() {
            return Ok((Self::empty(), Vec::new()));
        }
        let encoded = encode_blocks(records, store.page_size());
        let ids: Vec<PageId> = encoded.iter().map(|_| store.alloc()).collect::<Result<_>>()?;
        let mut blocks = Vec::with_capacity(encoded.len());
        for (i, (run, mut bytes)) in encoded.into_iter().enumerate() {
            set_next(&mut bytes, ids.get(i + 1).copied().unwrap_or(NULL_PAGE));
            store.write(ids[i], &bytes)?;
            blocks.push((ids[i], run));
        }
        Ok((BlockList { head: ids[0], len: records.len() as u64, _marker: PhantomData }, blocks))
    }

    /// [`BlockList::build_blocks`], but the last block on a shared page of
    /// `packer`, which the block before it or the head names.
    pub fn build_packed(
        store: &PageStore,
        records: &[R],
        packer: &mut Packer,
    ) -> Result<(Self, Vec<(PageId, usize)>)> {
        let blocks = encode_blocks(records, store.page_size());
        let Some((_, last)) = blocks.last() else { return Ok((Self::empty(), Vec::new())) };
        let at = packer.put(store, last)?;
        let links = write_chain(store, blocks, at)?;
        Ok((Self::with_head(links[0].0, records.len() as u64), links))
    }

    /// The list of `len` records whose first block is at `head`: a page, or
    /// whatever else its builder made of its [`encode_blocks`] (such as a
    /// `skeleton::TailAt` value, which its readers resolve).
    pub fn with_head(head: PageId, len: u64) -> Self {
        BlockList { head, len, _marker: PhantomData }
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
    pub fn blocks<'s>(&self, store: &'s PageStore) -> impl Iterator<Item = Result<Vec<R>>> + 's {
        Self::blocks_from(store, self.head)
    }

    /// [`BlockList::blocks`] from the block on page `start` on: a list's
    /// owner may name more of its blocks than the head (the second, for
    /// the continuation rule; any, through a directory), and a scan can
    /// start at each of them.
    pub fn blocks_from(
        store: &PageStore,
        start: PageId,
    ) -> impl Iterator<Item = Result<Vec<R>>> + '_ {
        let mut next = start;
        std::iter::from_fn(move || {
            let block = (!next.is_null()).then(|| Self::read_block(store, next))?;
            next = block.as_ref().map_or(NULL_PAGE, |&(_, after)| after);
            Some(block.map(|(records, _)| records))
        })
    }

    /// Reads the entire list into memory (one I/O per block).
    pub fn read_all(&self, store: &PageStore) -> Result<Vec<R>> {
        let mut out = Vec::with_capacity(self.len as usize);
        for block in self.blocks(store) {
            out.extend(block?);
        }
        Ok(out)
    }

    /// Reads one block of a list directly by its page id, returning the
    /// records and the next page in the chain. This is the random-access
    /// primitive behind *directory-indexed* lists (used by the 3-sided PST
    /// to jump into the middle of a sorted list in one I/O).
    pub fn read_block(store: &PageStore, page_id: PageId) -> Result<(Vec<R>, PageId)> {
        let (_, page, offset) = read_link(store, page_id)?;
        decode_block(&page[offset..])
    }

    /// The page ids of every block in chain order (one I/O per block), for
    /// the walks that count or free a built structure's pages. A builder
    /// has them from [`BlockList::build_blocks`] and does not call this.
    pub fn block_pages(&self, store: &PageStore) -> Result<Vec<PageId>> {
        chain_pages(store, self.head)
    }

    /// Frees every page of the list. The handle must not be used again.
    pub fn free(&self, store: &PageStore) -> Result<()> {
        self.block_pages(store)?.into_iter().try_for_each(|page| store.free(page))
    }
}

impl<R: Columns> Record for BlockList<R> {
    const ENCODED_LEN: usize = 16;

    fn encode(&self, w: &mut PageWriter<'_>) -> Result<()> {
        w.put_u64(self.head.0)?;
        w.put_u64(self.len)
    }

    fn decode(r: &mut PageReader<'_>) -> Result<Self> {
        Ok(BlockList { head: PageId(r.get_u64()?), len: r.get_u64()?, _marker: PhantomData })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Point;

    fn points(n: usize) -> Vec<Point> {
        (0..n).map(|i| Point::new(i as i64, (i * 7 % 101) as i64, i as u64)).collect()
    }

    /// A record of five unsigned columns: every width and mode at once.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Five([u64; 5]);

    impl Columns for Five {
        const COLUMNS: usize = 5;

        fn column(&self, c: usize) -> u64 {
            self.0[c]
        }

        fn from_columns(c: &[u64; MAX_COLUMNS]) -> Self {
            Five(*c)
        }
    }

    fn round_trip<R: Columns + PartialEq + std::fmt::Debug>(records: &[R]) -> Vec<u8> {
        let bytes = encode_block(records, PageId(7));
        let block = Block::parse::<R>(&bytes).unwrap();
        assert_eq!((block.count, block.next), (records.len(), PageId(7)));
        assert_eq!(block.to_vec::<R>(), records);
        bytes
    }

    /// Every width 0–64, at both ends of `u64` and of `i64`, in each mode:
    /// a column of offsets, one falling and one rising (gaps), one flat.
    #[test]
    fn every_column_round_trips_at_every_width_in_every_mode() {
        for width in 0..=64u32 {
            let span = u64::MAX.checked_shr(64 - width).unwrap_or(0);
            for base in [0, u64::MAX - span, key_of(i64::MIN), key_of(i64::MAX) - span] {
                let rows = [0, span, span / 3, span / 2];
                let offsets: Vec<u64> = rows.iter().map(|&r| base + r).collect();
                let down: Vec<u64> = [span, span / 2, span / 3, 0].map(|r| base + r).to_vec();
                let records: Vec<Five> = (0..4)
                    .map(|i| Five([offsets[i], down[i], down[3 - i], base, base + rows[i]]))
                    .collect();
                let bytes = round_trip(&records);
                let block = Block::parse::<Five>(&bytes).unwrap();
                let modes: Vec<u8> = block.columns.iter().map(|c| c.mode).collect();
                if width > 2 {
                    assert_eq!(modes, [OFFSET, GAP_DOWN, GAP_UP, OFFSET, OFFSET], "{width}");
                }
                assert_eq!(block.columns[0].width, width, "an offset column of {width} bits");
                assert_eq!(block.columns[3].width, 0, "a flat column costs no bit");
            }
        }
        // Signed extremes through a point's keys.
        let extremes =
            [Point::new(i64::MIN, i64::MAX, u64::MAX), Point::new(i64::MAX, i64::MIN, 0)];
        round_trip(&extremes);
        round_trip(&[Point::new(-1, 0, 0)]);
    }

    #[test]
    fn a_block_packed_to_the_last_bit_decodes() {
        // Three columns of 61-bit offsets, 183 bits a record: eight records
        // end on the last bit of a 40 + 183-byte page, and a ninth passes it.
        let records: Vec<Point> = (0..9i64)
            .map(|i| {
                let hi = (i % 2) << 60;
                Point::new(i64::MIN + hi + i, i64::MAX - hi - i, (hi + i) as u64)
            })
            .collect();
        let page = header_len(3) + 183;
        assert_eq!(fill_blocks(&records, 1, page), 8);
        let bytes = round_trip(&records[..8]);
        assert_eq!(bytes.len(), page, "the last field ends on the page's last bit");
        assert_eq!(cut(&records, page), [0, 8]);
    }

    #[test]
    fn every_block_holds_at_least_the_full_width_count() {
        for page in [128, 512, 4096] {
            let m = min_records::<Point>(page);
            let wide: Vec<Point> = (0..2000u64)
                .map(|i| {
                    let spread = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    Point::new(spread as i64, spread.rotate_left(17) as i64, spread.rotate_left(31))
                })
                .collect();
            let starts = cut(&wide, page);
            let ends = starts[1..].iter().copied().chain([wide.len()]);
            let sizes: Vec<usize> = starts.iter().zip(ends).map(|(s, e)| e - s).collect();
            assert!(sizes[..sizes.len() - 1].iter().all(|&n| n >= m), "{page}: {sizes:?} < {m}");
        }
        assert_eq!(min_records::<Point>(4096), 169); // (4096 - 40)·8 / 192
        assert_eq!(min_records::<Point>(512), 19);
    }

    #[test]
    fn a_header_whose_columns_run_past_the_page_is_corrupt() {
        let bytes = encode_block(&points(50), NULL_PAGE);
        assert!(Block::parse::<Point>(&bytes[..bytes.len() - 1]).is_err());
        let mut wide = bytes.clone();
        wide[BLOCK_HEADER + 8] = 64; // the first column at 64 bits a record
        assert!(matches!(Block::parse::<Point>(&wide), Err(StoreError::Corrupt(_))));
        let mut bad = bytes.clone();
        bad[BLOCK_HEADER + 8] = 65;
        assert!(matches!(Block::parse::<Point>(&bad), Err(StoreError::Corrupt(_))));
        let mut bad = bytes;
        bad[BLOCK_HEADER + 9] = 3;
        assert!(matches!(Block::parse::<Point>(&bad), Err(StoreError::Corrupt(_))));
        assert!(Block::parse::<Point>(&[1, 0, 0]).is_err());
    }

    #[test]
    fn empty_list_has_no_pages() {
        let store = PageStore::in_memory(256);
        let list = BlockList::<Point>::build(&store, &[]).unwrap();
        assert!(list.is_empty());
        assert_eq!(store.live_pages(), 0);
        assert_eq!(list.read_all(&store).unwrap(), vec![]);
        assert!(list.blocks(&store).next().is_none());
        assert_eq!(store.stats().total_io(), 0);
    }

    #[test]
    fn build_and_read_all_preserves_order() {
        let store = PageStore::in_memory(256);
        let data = points(100);
        let list = BlockList::build(&store, &data).unwrap();
        assert_eq!(list.len(), 100);
        assert_eq!(list.read_all(&store).unwrap(), data);
    }

    /// Narrower data — the widths its records span, which each block's
    /// header records — blocks more records to the page, and an outlier
    /// widens only the block it lands in.
    #[test]
    fn a_narrower_frame_blocks_more_records_to_the_page() {
        // 100 narrow points: x rises by 1 (gaps of 1 bit), y offsets of 7
        // bits, ids rise by 1: (256 - 40)·8 / 9 bits = 192 fit a block; at
        // 64-bit columns, min_records: 9.
        let store = PageStore::in_memory(256);
        let narrow = points(100);
        let (_, blocks) = BlockList::build_blocks(&store, &narrow).unwrap();
        assert_eq!(blocks.len(), 1);
        assert_eq!(fill_blocks(&points(400), 1, 256), 192);
        assert_eq!(min_records::<Point>(256), 9);
        // An outlier widens its own block only.
        let mut data = points(400);
        data[300].y = i64::MAX;
        let (list, blocks) = BlockList::build_blocks(&store, &data).unwrap();
        let sizes: Vec<usize> = blocks.iter().map(|&(_, n)| n).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 400);
        // 192, 108, then 26 records at 66 bits from the outlier on, and 74.
        assert_eq!(sizes, [192, 108, 26, 74]);
        assert_eq!(list.read_all(&store).unwrap(), data);
        let pages: Vec<PageId> = blocks.iter().map(|&(page, _)| page).collect();
        assert_eq!(list.block_pages(&store).unwrap(), pages);
        let (second, next) = BlockList::<Point>::read_block(&store, pages[1]).unwrap();
        assert_eq!(second, data[sizes[0]..sizes[0] + sizes[1]]);
        assert_eq!(next, pages[2]);
        let from_second: Vec<Point> =
            BlockList::blocks_from(&store, pages[1]).flat_map(|block| block.unwrap()).collect();
        assert_eq!(from_second, data[sizes[0]..]);
    }

    #[test]
    fn early_stop_reads_only_needed_blocks() {
        let store = PageStore::in_memory(128);
        let list = BlockList::build(&store, &points(100)).unwrap();
        let first = BlockList::<Point>::read_block(&store, list.head()).unwrap().0.len();
        store.reset_stats();
        let mut seen = 0;
        for block in list.blocks(&store) {
            seen += block.unwrap().len();
            if seen > first {
                break;
            }
        }
        assert_eq!(store.stats().reads, 2, "one record past the first block is two reads");
    }

    #[test]
    fn first_block_is_one_io() {
        let store = PageStore::in_memory(128);
        let data = points(50);
        let list = BlockList::build(&store, &data).unwrap();
        store.reset_stats();
        let first = list.blocks(&store).next().unwrap().unwrap();
        assert_eq!(first, data[..first.len()].to_vec());
        assert_eq!(store.stats().reads, 1);
    }

    #[test]
    fn capacity_matches_layout_arithmetic() {
        // A header of 10 bytes and 10 a column; then the fields' bits.
        assert_eq!(header_len(Point::COLUMNS), 40);
        let mut fill = Fill::new(Point::COLUMNS);
        fill.add(&Point::new(5, 9, 1));
        assert_eq!(fill.bytes(), 40, "one record: every column flat, no bit");
        // One gap a column: x up 1 (1 bit), y down 7 (3 bits), id up 2 (2).
        fill.add(&Point::new(6, 2, 3));
        assert_eq!(fill.bytes(), 40 + 1);
        // 256-byte pages: (256 - 40)·8 / 9 = 192 of `points`, one block.
        let store = PageStore::in_memory(256);
        BlockList::build(&store, &points(192)).unwrap();
        assert_eq!(store.live_pages(), 1);
        BlockList::build(&store, &points(193)).unwrap();
        assert_eq!(store.live_pages(), 3);
        assert_eq!(store.stats().writes, 3);
    }

    #[test]
    fn single_partial_block() {
        let store = PageStore::in_memory(256);
        let data = points(3);
        let list = BlockList::build(&store, &data).unwrap();
        assert_eq!(store.live_pages(), 1);
        assert_eq!(list.read_all(&store).unwrap(), data);
    }

    #[test]
    fn short_blocked_list_builds_reads_and_frees() {
        // 128-byte pages: 88 bytes of fields, 78 of these points a block.
        let store = PageStore::in_memory(128);
        let data = points(200);
        let (list, built) = BlockList::build_blocks(&store, &data).unwrap();
        let sizes: Vec<usize> = built.iter().map(|&(_, n)| n).collect();
        assert_eq!(sizes, [78, 78, 44]);
        assert_eq!(list.blocks(&store).map(|b| b.unwrap().len()).collect::<Vec<_>>(), sizes);
        let pages = list.block_pages(&store).unwrap();
        assert_eq!(built.iter().map(|&(page, _)| page).collect::<Vec<_>>(), pages);
        let (second, next) = BlockList::<Point>::read_block(&store, pages[1]).unwrap();
        assert_eq!((second, next), (data[78..156].to_vec(), pages[2]));
        let from_second: Vec<Point> =
            BlockList::blocks_from(&store, pages[1]).flat_map(|block| block.unwrap()).collect();
        assert_eq!(from_second, data[78..]);
        list.free(&store).unwrap();
        assert_eq!(store.live_pages(), 0);
    }

    #[test]
    #[should_panic(expected = "records in one block")]
    fn blocking_past_the_page_capacity_is_refused() {
        // Flat columns cost no bit: only the u16 count bounds a block.
        let flat = vec![Point::new(1, 1, 1); MAX_RECORDS + 1];
        let _ = encode_block(&flat, NULL_PAGE);
    }

    /// Random blocks at random widths round-trip, and a cut's blocks are
    /// each the longest run that fits: one record more would not.
    #[test]
    fn random_blocks_round_trip_and_each_cut_is_the_longest_that_fits() {
        use pc_rng::check::{check, no_shrink, Config};
        check(
            &Config::with_cases(200),
            |rng| {
                let widths = [(); 5].map(|()| rng.gen_range(0..=64u64) as u32);
                let n = rng.gen_range(1..400usize);
                let mut rows: Vec<Five> =
                    (0..n)
                        .map(|_| {
                            Five(widths.map(|w| {
                                rng.next_u64() & u64::MAX.checked_shr(64 - w).unwrap_or(0)
                            }))
                        })
                        .collect();
                if rng.gen_bool(0.5) {
                    rows.sort_unstable_by_key(|r| std::cmp::Reverse(r.0[1]));
                }
                (rng.gen_range(100..1000usize), rows)
            },
            no_shrink,
            |(page, rows)| {
                let starts = cut(rows, *page);
                let ends: Vec<usize> = starts[1..].iter().copied().chain([rows.len()]).collect();
                for (&start, &end) in starts.iter().zip(&ends) {
                    let bytes = round_trip(&rows[start..end]);
                    assert!(bytes.len() <= *page, "a block of {} bytes", bytes.len());
                    if end < rows.len() {
                        assert!(encode_block(&rows[start..=end], NULL_PAGE).len() > *page);
                    }
                    assert_eq!(fill_blocks(&rows[start..], 1, *page), end - start);
                }
                Ok(())
            },
        );
    }

    #[test]
    fn handle_roundtrips_as_record() {
        let store = PageStore::in_memory(256);
        let list = BlockList::build(&store, &points(30)).unwrap();
        let mut buf = vec![0u8; BlockList::<Point>::ENCODED_LEN];
        let mut w = PageWriter::new(&mut buf);
        list.encode(&mut w).unwrap();
        let mut r = PageReader::new(&buf);
        let back = BlockList::<Point>::decode(&mut r).unwrap();
        assert_eq!(back, list);
        assert_eq!(back.read_all(&store).unwrap().len(), 30);
    }

    #[test]
    fn free_releases_every_page() {
        let store = PageStore::in_memory(128);
        let list = BlockList::build(&store, &points(95)).unwrap();
        assert!(store.live_pages() > 1);
        list.free(&store).unwrap();
        assert_eq!(store.live_pages(), 0);
    }
}
