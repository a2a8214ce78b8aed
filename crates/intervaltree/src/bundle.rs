//! The exit bundle: everything a stab reads at one node besides the
//! skeletal page, coalesced into one chain.
//!
//! ```text
//! bundle page: [n_src: u8][chain mask: u8][ancL, ancR, own counts: 3 × u16]
//!              [chain: u64] per mask bit     (rest of ancL, rest of ancR,
//!                                             own block)
//!              [continuation: u64] × n_src   (the source table)
//!              [ancL entries][ancR entries]  (interval + source byte)
//!              [own intervals]
//! ```
//!
//! Intervals lie at the widths of the tree's [`Frame`] — 24 bytes at
//! [`Frame::WIDE`], 25 with the source byte — which the tree's handle
//! carries, not the page.
//!
//! Three sections: `ancL` merges the first blocks of `L(a)` over the
//! in-page strict ancestors `a` the path leaves to the left (ascending
//! `lo`), `ancR` those of `R(a)` for the others (descending `hi`), and the
//! node's *own* intervals — a leaf's flat run, or a boundary node's list
//! of at most a block.
//! An `anc` entry names its source by its row in the table, and the row is
//! where that source's list goes on: its second block, or null when the
//! first was all of it. A continuation exists exactly when a whole block
//! was copied, so the copied count is not stored — a source continues when
//! a block's worth of its entries qualified.
//!
//! Own intervals are stored once and filtered with [`Interval::contains`];
//! a boundary node holding more than a block keeps its two sorted
//! [`BlockList`]s, whose heads lie in its skeletal record, not here.
//!
//! What does not fit beside the rest keeps a blocked tail. The own
//! intervals go on the page first (every exit reads all of them) or else
//! into a block of their own; then the smaller `anc` section, then the
//! larger, each whole if it fits and otherwise as long a head as there is
//! room for, the rest in a chain read only if the whole head qualified.
//! Sections totalling at most a page are exactly one page (DESIGN §12 has
//! the read-count argument against separate lists).

use pc_pagestore::codec::{PageReader, PageWriter};
use pc_pagestore::layout::BlockList;
use pc_pagestore::{Frame, Framed, Interval, PageId, PageStore, Result, NULL_PAGE};

/// `[n_src][chain mask][3 × count]`.
const HEADER: usize = 8;

/// Record widths of the three sections.
fn widths(frame: Frame) -> [usize; 3] {
    let entry = frame.record_len::<CacheEntry>();
    [entry, entry, frame.record_len::<Interval>()]
}

/// A copied interval tagged with its source's row in the bundle's table,
/// so queries can apply the continuation rule per source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheEntry {
    /// The copied interval.
    pub iv: Interval,
    /// Row of the source in [`Bundle::conts`].
    pub src: u8,
}

impl Framed for CacheEntry {
    const TAG: usize = 1;

    fn fields(&self) -> (i64, i64, u64) {
        self.iv.fields()
    }

    fn pack_tag(&self, w: &mut PageWriter<'_>) -> Result<()> {
        w.put_u8(self.src)
    }

    fn unpack_tagged((lo, hi, id): (i64, i64, u64), r: &mut PageReader<'_>) -> Result<Self> {
        Ok(CacheEntry { iv: Interval { lo, hi, id }, src: r.get_u8()? })
    }
}

/// A bundle page: its pointers decoded, its sections still encoded, so a
/// stab decodes no more of a section than the prefix it reports.
pub struct Bundle<'a> {
    /// The source table: per contributing ancestor, the second block of
    /// the list its entries were copied from.
    pub conts: Vec<PageId>,
    /// The chains holding what the page does not, null where there is
    /// none: the rest of `ancL`, the rest of `ancR`, the block of own
    /// intervals.
    pub chains: [PageId; 3],
    /// The records on the page: the heads of `ancL` and `ancR`
    /// ([`CacheEntry`]), and the node's own [`Interval`]s, all or none.
    pub sections: [&'a [u8]; 3],
}

/// The encoding of `records`, back to back.
fn encoded<R: Framed>(frame: Frame, records: &[R]) -> Result<Vec<u8>> {
    let mut buf = vec![0u8; records.len() * frame.record_len::<R>()];
    let mut w = PageWriter::new(&mut buf);
    records.iter().try_for_each(|rec| rec.pack(frame, &mut w))?;
    Ok(buf)
}

impl<'a> Bundle<'a> {
    /// Lays out one node's sections (in the module docs' order) and writes
    /// them. `own` is at most a block of intervals. Returns the bundle
    /// page, null for a node with nothing.
    pub fn write(
        store: &PageStore,
        frame: Frame,
        conts: Vec<PageId>,
        mut anc: [Vec<CacheEntry>; 2],
        mut own: &[Interval],
    ) -> Result<PageId> {
        if anc[0].is_empty() && anc[1].is_empty() && own.is_empty() {
            return Ok(NULL_PAGE);
        }
        let [entry_len, _, own_len] = widths(frame);
        let mut chains = [NULL_PAGE; 3];
        let mut free = store.page_size() - HEADER - 8 * conts.len();
        // A chain pointer for each ancestor section that may yet spill.
        let mut spill = 8 * anc.iter().filter(|s| !s.is_empty()).count();
        if own.len() * own_len + spill > free {
            chains[2] = BlockList::build(store, frame, own)?.head();
            own = &[];
            free -= 8;
        }
        free -= own.len() * own_len;
        let smaller = usize::from(anc[1].len() < anc[0].len());
        for i in [smaller, 1 - smaller] {
            if anc[i].is_empty() {
                continue;
            }
            spill -= 8;
            if anc[i].len() * entry_len + spill > free {
                free -= 8;
                let fit = (free - spill) / entry_len;
                chains[i] = BlockList::build(store, frame, &anc[i][fit..])?.head();
                anc[i].truncate(fit);
            }
            free -= anc[i].len() * entry_len;
        }
        let bytes = [encoded(frame, &anc[0])?, encoded(frame, &anc[1])?, encoded(frame, own)?];
        let page = store.alloc()?;
        let sections = bytes.each_ref().map(|b| &b[..]);
        Bundle { conts, chains, sections }.write_at(store, frame, page)?;
        Ok(page)
    }

    /// Encodes the bundle into `page` of `store`.
    fn write_at(&self, store: &PageStore, frame: Frame, page: PageId) -> Result<()> {
        let mut buf = vec![0u8; store.page_size()];
        let mut w = PageWriter::new(&mut buf);
        let held = self.chains.iter().filter(|c| !c.is_null());
        let mask = (0..3).filter(|&i| !self.chains[i].is_null()).fold(0, |m, i| m | 1u8 << i);
        w.put_u8(self.conts.len() as u8)?;
        w.put_u8(mask)?;
        for (section, width) in self.sections.iter().zip(widths(frame)) {
            w.put_u16((section.len() / width) as u16)?;
        }
        held.chain(&self.conts).try_for_each(|page| w.put_u64(page.0))?;
        self.sections.iter().try_for_each(|section| w.put_bytes(section))?;
        let used = w.position();
        store.write(page, &buf[..used])
    }

    /// Decodes a bundle page of a tree stored at `frame`.
    pub fn decode(page: &'a [u8], frame: Frame) -> Result<Self> {
        let mut r = PageReader::new(page);
        let (n_src, mask) = (r.get_u8()?, r.get_u8()?);
        let counts = [r.get_u16()?, r.get_u16()?, r.get_u16()?];
        let mut chains = [NULL_PAGE; 3];
        for (i, chain) in chains.iter_mut().enumerate() {
            if mask & 1 << i != 0 {
                *chain = PageId(r.get_u64()?);
            }
        }
        let conts = (0..n_src).map(|_| Ok(PageId(r.get_u64()?))).collect::<Result<_>>()?;
        let mut sections = [&page[..0]; 3];
        for ((section, count), width) in sections.iter_mut().zip(counts).zip(widths(frame)) {
            *section = r.get_bytes(count as usize * width)?;
        }
        Ok(Bundle { conts, chains, sections })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_entry_roundtrip() {
        let e = CacheEntry { iv: Interval::new(-3, 9, 77), src: 4 };
        for (frame, len) in [(Frame::WIDE, 25), (Frame::of(&[e]), 4)] {
            let buf = encoded(frame, &[e]).unwrap();
            assert_eq!(buf.len(), len);
            assert_eq!(CacheEntry::unpack(frame, &mut PageReader::new(&buf)).unwrap(), e);
        }
    }
}
