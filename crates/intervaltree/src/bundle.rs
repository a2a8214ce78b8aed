//! The exit bundle: everything a stab reads at one node besides the
//! skeletal page, coalesced into at most a page of bytes. Where they fit,
//! they ride in the tail of a skeletal page the stab reads anyway (an
//! exit's on the pages it goes on to, a leaf's on its own), else they
//! take a page of their own (`Skeleton::place`).
//!
//! ```text
//! bundle:      [n_src: u8][chain mask: u8][ancL, ancR, own bytes: 3 × u16]
//!              [chain: u64] per mask bit     (rest of ancL, rest of ancR,
//!                                             own block)
//!              [continuation: u64][copied: u16] × n_src  (the source table)
//!              [ancL block][ancR block]      (interval + source column)
//!              [own block]
//! ```
//!
//! Each section is one block of the block codec, at its own bit widths.
//!
//! Three sections: `ancL` merges the first blocks of `L(a)` over the
//! in-page strict ancestors `a` the path leaves to the left (ascending
//! `lo`), `ancR` those of `R(a)` for the others (descending `hi`), and the
//! node's *own* intervals — a leaf's flat run, or a boundary node's list
//! of at most a block.
//! An `anc` entry names its source by its row in the table, and the row is
//! where that source's list goes on — its second block, or null when the
//! first was all of it — and how many entries were copied, the first
//! block's count: a source continues when that many of its entries
//! qualified.
//!
//! Own intervals are stored once, ascending `lo`, and filtered with
//! [`Interval::contains`] up to the first that starts past the stab; a
//! boundary node holding more than a block keeps its two sorted
//! [`BlockList`]s, whose heads lie in its skeletal record, not here.
//!
//! What does not fit beside the rest keeps a blocked tail. The own
//! intervals go in the bundle first (every exit reads all of them) or else
//! into a block of their own; then the smaller `anc` section, then the
//! larger, each whole if it fits and otherwise as long a head as there is
//! room for, the rest in a chain read only if the whole head qualified.
//! Sections totalling at most a page are exactly one bundle (DESIGN §12 has
//! the read-count argument against separate lists).

use pc_pagestore::codec::{PageReader, PageWriter};
use pc_pagestore::layout::{
    encode_block, fill_blocks, signed_of, BlockList, Columns, Fill, MAX_COLUMNS,
};
use pc_pagestore::{Interval, PageId, PageStore, Result, NULL_PAGE};

/// `[n_src][chain mask][3 × bytes]`.
const HEADER: usize = 8;
/// Bytes of a row of the source table.
const ROW: usize = 8 + 2;

/// Encoded bytes of `records` as a section: none for none.
fn section_len<R: Columns>(records: &[R]) -> usize {
    let mut fill = Fill::new(R::COLUMNS);
    records.iter().for_each(|rec| fill.add(rec));
    if records.is_empty() {
        0
    } else {
        fill.bytes()
    }
}

/// The encoding of `records` as a section.
fn section<R: Columns>(records: &[R]) -> Vec<u8> {
    if records.is_empty() {
        Vec::new()
    } else {
        encode_block(records, NULL_PAGE)
    }
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

impl Columns for CacheEntry {
    const COLUMNS: usize = 4;

    #[inline]
    fn column(&self, c: usize) -> u64 {
        match c {
            3 => u64::from(self.src),
            c => self.iv.column(c),
        }
    }

    #[inline]
    fn from_columns(c: &[u64; MAX_COLUMNS]) -> Self {
        let iv = Interval { lo: signed_of(c[0]), hi: signed_of(c[1]), id: c[2] };
        CacheEntry { iv, src: c[3] as u8 }
    }
}

/// A bundle: its pointers decoded, its sections still encoded, so a stab
/// decodes no more of a section than the prefix it reports.
pub struct Bundle<'a> {
    /// The source table: per contributing ancestor, the second block of
    /// the list its entries were copied from and how many were copied.
    pub conts: Vec<(PageId, u16)>,
    /// The chains holding what the bundle does not, null where there is
    /// none: the rest of `ancL`, the rest of `ancR`, the block of own
    /// intervals.
    pub chains: [PageId; 3],
    /// The blocks in the bundle (empty where a section has no record): the
    /// heads of `ancL` and `ancR` ([`CacheEntry`]), and the node's own
    /// [`Interval`]s, all or none.
    pub sections: [&'a [u8]; 3],
}

impl<'a> Bundle<'a> {
    /// Lays out one node's sections (in the module docs' order) in at
    /// most a page, writing the chains of what does not fit. `own` is at
    /// most a block of intervals. Returns the bundle's bytes, none for a
    /// node with nothing.
    pub fn encode(
        store: &PageStore,
        conts: Vec<(PageId, u16)>,
        mut anc: [Vec<CacheEntry>; 2],
        mut own: &[Interval],
    ) -> Result<Vec<u8>> {
        if anc[0].is_empty() && anc[1].is_empty() && own.is_empty() {
            return Ok(Vec::new());
        }
        let mut chains = [NULL_PAGE; 3];
        let mut free = store.page_size() - HEADER - ROW * conts.len();
        // A chain pointer for each ancestor section that may yet spill.
        let mut spill = 8 * anc.iter().filter(|s| !s.is_empty()).count();
        if section_len(own) + spill > free {
            chains[2] = BlockList::build(store, own)?.head();
            own = &[];
            free -= 8;
        }
        free -= section_len(own);
        let smaller = usize::from(anc[1].len() < anc[0].len());
        for i in [smaller, 1 - smaller] {
            if anc[i].is_empty() {
                continue;
            }
            spill -= 8;
            if section_len(&anc[i]) + spill > free {
                free -= 8;
                let fit = fill_blocks(&anc[i], 1, free - spill);
                chains[i] = BlockList::build(store, &anc[i][fit..])?.head();
                anc[i].truncate(fit);
            }
            free -= section_len(&anc[i]);
        }
        let sections = [section(&anc[0]), section(&anc[1]), section(own)];
        let mut bytes = vec![0u8; store.page_size()];
        let mut w = PageWriter::new(&mut bytes);
        let mask = (0..3).filter(|&i| !chains[i].is_null()).fold(0, |m, i| m | 1u8 << i);
        w.put_u8(conts.len() as u8)?;
        w.put_u8(mask)?;
        for section in &sections {
            w.put_u16(section.len() as u16)?;
        }
        chains.iter().filter(|c| !c.is_null()).try_for_each(|page| w.put_u64(page.0))?;
        for &(cont, copied) in &conts {
            w.put_u64(cont.0)?;
            w.put_u16(copied)?;
        }
        sections.iter().try_for_each(|section| w.put_bytes(section))?;
        let used = w.position();
        Ok(bytes[..used].to_vec())
    }

    /// Decodes a bundle from its first byte on.
    pub fn decode(page: &'a [u8]) -> Result<Self> {
        let mut r = PageReader::new(page);
        let (n_src, mask) = (r.get_u8()?, r.get_u8()?);
        let lens = [r.get_u16()?, r.get_u16()?, r.get_u16()?];
        let mut chains = [NULL_PAGE; 3];
        for (i, chain) in chains.iter_mut().enumerate() {
            if mask & 1 << i != 0 {
                *chain = PageId(r.get_u64()?);
            }
        }
        let conts =
            (0..n_src).map(|_| Ok((PageId(r.get_u64()?), r.get_u16()?))).collect::<Result<_>>()?;
        let mut sections = [&page[..0]; 3];
        for (section, len) in sections.iter_mut().zip(lens) {
            *section = r.get_bytes(usize::from(len))?;
        }
        Ok(Bundle { conts, chains, sections })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_pagestore::layout::Block;

    /// The records of a section and of the chain after it, in order.
    fn section_and_chain<R: Columns>(store: &PageStore, section: &[u8], chain: PageId) -> Vec<R> {
        let mut out = if section.is_empty() {
            Vec::new()
        } else {
            Block::parse::<R>(section).unwrap().to_vec()
        };
        out.extend(BlockList::<R>::blocks_from(store, chain).flat_map(|block| block.unwrap()));
        out
    }

    /// A bundle of nothing is no bytes. Sections that fit beside each other
    /// are at most a page, to the most copies that fit beside four own
    /// intervals; one copy more spills the ancestor section's tail into a
    /// chain — the head as long as there is room for, the entries in order
    /// across both, the own intervals still in the bundle.
    #[test]
    fn sections_fit_one_page_and_one_entry_more_spills_a_tail() {
        let store = PageStore::in_memory(512);
        assert!(Bundle::encode(&store, vec![], [vec![], vec![]], &[]).unwrap().is_empty());
        let own: Vec<Interval> =
            (0..4).map(|i| Interval::new(i * 3, i * 3 + 9, 1_000 + i as u64)).collect();
        let copies = |k: i64| -> Vec<CacheEntry> {
            let iv = |i: i64| Interval::new(i * 5, 100_000 - i * 37 % 1000, (i * 7919) as u64);
            (0..k).map(|i| CacheEntry { iv: iv(i), src: 0 }).collect()
        };
        let table = vec![(NULL_PAGE, 0)];
        let write = |k: i64| {
            let bytes = Bundle::encode(&store, table.clone(), [copies(k), vec![]], &own).unwrap();
            assert!(bytes.len() <= 512, "{} bytes", bytes.len());
            bytes
        };
        let one_page = |k: i64| Bundle::decode(&write(k)).unwrap().chains == [NULL_PAGE; 3];
        let most = (1..2_000).take_while(|&k| one_page(k)).last().unwrap();
        assert!(most > 50, "{most} copies");
        let page = write(most);
        let bundle = Bundle::decode(&page).unwrap();
        let copied: Vec<CacheEntry> = section_and_chain(&store, bundle.sections[0], NULL_PAGE);
        assert_eq!(copied, copies(most));
        assert_eq!(section_and_chain::<Interval>(&store, bundle.sections[2], NULL_PAGE), own);

        let page = write(most + 1);
        let Bundle { conts, chains, sections } = Bundle::decode(&page).unwrap();
        assert_eq!(conts, table);
        assert!(!chains[0].is_null() && chains[1..] == [NULL_PAGE; 2], "{chains:?}");
        let head = Block::parse::<CacheEntry>(sections[0]).unwrap().count;
        assert!(head > 0 && head <= most as usize, "a head of {head}");
        let copied: Vec<CacheEntry> = section_and_chain(&store, sections[0], chains[0]);
        assert_eq!(copied, copies(most + 1));
        assert_eq!(section_and_chain::<Interval>(&store, sections[2], NULL_PAGE), own);
    }

    #[test]
    fn cache_entry_roundtrip() {
        use pc_pagestore::layout::Block;
        let entries = [
            CacheEntry { iv: Interval::new(-3, 9, 77), src: 4 },
            CacheEntry { iv: Interval::new(i64::MIN, i64::MAX, u64::MAX), src: 255 },
        ];
        let buf = section(&entries);
        assert_eq!(buf.len(), section_len(&entries));
        assert_eq!(Block::parse::<CacheEntry>(&buf).unwrap().to_vec::<CacheEntry>(), entries);
        assert!(section::<CacheEntry>(&[]).is_empty() && section_len::<CacheEntry>(&[]) == 0);
    }
}
