//! On-page node layout for the external B+-tree: a fixed prefix, then one
//! block of the block codec ([`pc_pagestore::layout`]).
//!
//! ```text
//! [tag u8][prev u64] then a block of (key, value) rows whose next is a leaf's next
//! ```
//!
//! A node is a run of *rows*: a leaf's entries, or an internal node's
//! `(separator, child id)` pairs, whose first key — its separator in the
//! parent — the block stores as row 1's (a 0 gap) and the node decodes as
//! `i64::MIN`. Columns take the widths of the node's own data: a 4 KiB leaf
//! holds ~2 700 of the benchmark's entries. Queries decode a page in place
//! ([`View::each`], stopping past their bound); updates decode a [`Node`].

use std::borrow::Cow;

use pc_pagestore::codec::PageReader;
use pc_pagestore::layout::{self, key_of, signed_of, Block, Columns, Fill, MAX_COLUMNS};
use pc_pagestore::{PageId, PageStore, Result, StoreError, NULL_PAGE};

const TAG_INTERNAL: u8 = 0;
const TAG_LEAF: u8 = 1;
/// Bytes before a node's block: its tag and a leaf's `prev` id.
const PREFIX: usize = 1 + 8;

/// What a node is; a leaf with its neighbours in key order ([`NULL_PAGE`]
/// at either end of the chain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Internal,
    Leaf { next: PageId, prev: PageId },
}

impl Kind {
    /// An unlinked leaf.
    pub const LEAF: Kind = Kind::Leaf { next: NULL_PAGE, prev: NULL_PAGE };
}

/// A row: a leaf's `(key, value)`, an internal node's `(separator, child)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row(pub i64, pub u64);

impl Columns for Row {
    const COLUMNS: usize = 2;

    #[inline]
    fn column(&self, c: usize) -> u64 {
        [key_of(self.0), self.1][c]
    }

    #[inline]
    fn from_columns(c: &[u64; MAX_COLUMNS]) -> Row {
        Row(signed_of(c[0]), c[1])
    }
}

/// A decoded node.
#[derive(Debug, Clone)]
pub struct Node {
    pub kind: Kind,
    /// Sorted by key, keys distinct; an internal node's row `i` holds the
    /// keys from its own to row `i + 1`'s, and its row 0 decodes `i64::MIN`.
    pub rows: Vec<Row>,
}

/// `rows` as the block of a node of `kind` stores them: an internal node's
/// first key is row 1's.
fn stored(kind: Kind, rows: &[Row]) -> Cow<'_, [Row]> {
    let mut stored = Cow::from(rows);
    if let (Kind::Internal, [_, second, ..]) = (kind, rows) {
        stored.to_mut()[0].0 = second.0;
    }
    stored
}

/// The page bytes of a node of every prefix of `rows`, shortest first; past
/// the count, more than any page. A block's bytes do not depend on its order.
fn prefix_bytes<'r>(rows: impl Iterator<Item = &'r Row>) -> Vec<usize> {
    let mut fill = Fill::new(Row::COLUMNS);
    let mut out = vec![PREFIX + fill.bytes()];
    for row in rows {
        fill.add(row);
        out.push(PREFIX.saturating_add(fill.bytes()));
    }
    out
}

/// The fewest rows a non-root node holds: the most `m` for which any
/// `2m − 1` rows fit a page at 64-bit columns ([`layout::min_records`]) —
/// 127 at 4 KiB, 3 at 128 B. A node past its page has `2m` rows and cuts
/// into pieces of `m`; one short of `m` merges with one at `m`.
pub fn min_rows(page_size: usize) -> usize {
    let m = layout::min_records::<Row>(page_size.saturating_sub(PREFIX)).div_ceil(2);
    assert!(m >= 2, "{page_size}-byte pages give a node fewer than 2 rows at full width");
    m
}

/// Where `rows` are cut into nodes of `kind` that fit `page_size` (the start
/// of every piece): [`layout::cut`], each the longest run that fits, then
/// the last two at their most even cut ([`balance`]). Past one page every
/// piece holds [`min_rows`]. An internal piece after the first is priced
/// with its own first key, not row 1's: never under what it takes.
pub fn pack(kind: Kind, rows: &[Row], page_size: usize) -> Vec<usize> {
    let mut starts = layout::cut(&stored(kind, rows), page_size - PREFIX);
    if let &[.., before, last] = &starts[..] {
        let cut = balance(kind, &rows[before..], page_size).unwrap_or(last - before);
        *starts.last_mut().expect("two pieces") = before + cut;
    }
    if starts.is_empty() {
        starts.push(0); // an empty leaf
    }
    starts
}

/// The most even cut, by encoded bytes, of `rows` into two nodes of `kind`
/// that fit `page_size` and hold at least [`min_rows`] each, if any, priced
/// as [`pack`] prices.
pub fn balance(kind: Kind, rows: &[Row], page_size: usize) -> Option<usize> {
    let (n, m, rows) = (rows.len(), min_rows(page_size), stored(kind, rows));
    if n < 2 * m {
        return None;
    }
    // The bytes of rows[..s] and of rows[s..].
    let (left, right) = (prefix_bytes(rows.iter()), prefix_bytes(rows.iter().rev()));
    let halves = |s: usize| (left[s], right[n - s]);
    (m..=n - m)
        .filter(|&s| halves(s).0.max(halves(s).1) <= page_size)
        .min_by_key(|&s| halves(s).0.abs_diff(halves(s).1))
}

impl Node {
    /// Reads and decodes the node at `id` (one I/O).
    pub fn read(store: &PageStore, id: PageId) -> Result<Node> {
        Ok(View::parse(&store.read(id)?)?.to_node())
    }

    /// The bytes [`write`] puts on its page; past the count, more than any
    /// page.
    pub fn bytes(&self) -> usize {
        prefix_bytes(stored(self.kind, &self.rows).iter())[self.rows.len()]
    }

    pub fn fits(&self, page_size: usize) -> bool {
        self.bytes() <= page_size
    }

    /// Under half a page or under [`min_rows`]: after a delete, a non-root
    /// node settles with a sibling.
    pub fn under(&self, page_size: usize) -> bool {
        self.bytes().saturating_mul(2) < page_size || self.rows.len() < min_rows(page_size)
    }

    /// Index of the row (child) whose keys cover `key`.
    pub fn child_index(&self, key: i64) -> usize {
        self.rows[1..].partition_point(|row| row.0 <= key)
    }
}

/// Writes `rows` cut at `starts` ([`pack`]) to the pages `ids`, a leaf's
/// pieces chained between `kind`'s neighbours; returns each piece's first
/// key (`i64::MIN` if empty) and page: the rows their parent takes.
pub fn write_pieces(
    store: &PageStore,
    kind: Kind,
    rows: &[Row],
    starts: &[usize],
    ids: &[PageId],
) -> Result<Vec<Row>> {
    let ends = starts[1..].iter().copied().chain([rows.len()]);
    for (j, (start, end)) in starts.iter().copied().zip(ends).enumerate() {
        let kind = match kind {
            Kind::Leaf { next, prev } => Kind::Leaf {
                next: ids.get(j + 1).copied().unwrap_or(next),
                prev: if j == 0 { prev } else { ids[j - 1] },
            },
            Kind::Internal => Kind::Internal,
        };
        write(store, ids[j], kind, &rows[start..end])?;
    }
    let first = |start: usize| rows.get(start).map_or(i64::MIN, |row| row.0);
    Ok(starts.iter().zip(ids).map(|(&start, id)| Row(first(start), id.0)).collect())
}

/// `rows` as a node of `kind`: the prefix, then the block.
pub fn encode(kind: Kind, rows: &[Row]) -> Vec<u8> {
    let (tag, next, prev) = match kind {
        Kind::Internal => (TAG_INTERNAL, NULL_PAGE, NULL_PAGE),
        Kind::Leaf { next, prev } => (TAG_LEAF, next, prev),
    };
    let block = layout::encode_block(&stored(kind, rows), next);
    [&[tag][..], &prev.0.to_le_bytes(), &block].concat()
}

/// Encodes `rows` as a node of `kind` and writes it to `id` (one I/O).
/// Panics if they do not fit a page: every caller cuts first.
pub fn write(store: &PageStore, id: PageId, kind: Kind, rows: &[Row]) -> Result<()> {
    let page = encode(kind, rows);
    assert!(page.len() <= store.page_size(), "{} rows do not fit one page", rows.len());
    store.write(id, &page)
}

/// Points the leaf at `id`, if there is one, back at `prev` in place.
pub fn set_prev(store: &PageStore, id: PageId, prev: PageId) -> Result<()> {
    if id.is_null() {
        return Ok(());
    }
    let mut page = store.read(id)?.to_vec();
    View::parse(&page)?;
    page[1..PREFIX].copy_from_slice(&prev.0.to_le_bytes());
    store.write(id, &page)
}

/// A node read in place: its kind and its block, the rows decoded a few at
/// a time with no per-node vectors.
#[derive(Debug, Clone, Copy)]
pub struct View<'a> {
    pub kind: Kind,
    block: Block<'a>,
}

impl<'a> View<'a> {
    /// The node `page` holds: a typed [`StoreError::Corrupt`] for an
    /// unknown tag or a block whose columns run past the page.
    pub fn parse(page: &'a [u8]) -> Result<View<'a>> {
        let mut r = PageReader::new(page);
        let (tag, prev) = (r.get_u8()?, PageId(r.get_u64()?));
        let block = Block::parse::<Row>(&page[PREFIX..])?;
        let kind = match tag {
            TAG_INTERNAL => Kind::Internal,
            TAG_LEAF => Kind::Leaf { next: block.next, prev },
            tag => return Err(StoreError::Corrupt(format!("unknown b+tree node tag {tag}"))),
        };
        Ok(View { kind, block })
    }

    /// A leaf's entries, an internal node's children.
    pub fn rows(&self) -> usize {
        self.block.count
    }

    /// Hands `take` the rows in key order, an internal node's first key as
    /// `i64::MIN`, until it declines one (then false): a scan that stops
    /// early decodes little past the row it stops at.
    #[inline]
    pub fn each(&self, mut take: impl FnMut(Row) -> bool) -> bool {
        let mut first = self.kind == Kind::Internal;
        self.block.each(|Row(key, value)| {
            take(Row(if std::mem::take(&mut first) { i64::MIN } else { key }, value))
        })
    }

    /// The last row whose key is at most `key`, if any: in an internal
    /// node, the child whose keys cover `key`.
    pub fn last_to(&self, key: i64) -> Option<(i64, u64)> {
        let mut last = None;
        self.each(|Row(k, v)| {
            last = (k <= key).then_some((k, v)).or(last);
            k <= key
        });
        last
    }

    /// A leaf's neighbours `(next, prev)`.
    pub fn links(&self) -> (PageId, PageId) {
        let Kind::Leaf { next, prev } = self.kind else { return (NULL_PAGE, NULL_PAGE) };
        (next, prev)
    }

    /// The whole node, decoded.
    pub fn to_node(self) -> Node {
        let mut rows = Vec::with_capacity(self.rows());
        self.each(|row| {
            rows.push(row);
            true
        });
        Node { kind: self.kind, rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGES: [usize; 2] = [128, 4096];

    fn roundtrip(store: &PageStore, kind: Kind, rows: &[Row]) -> Node {
        let id = store.alloc().unwrap();
        write(store, id, kind, rows).unwrap();
        let page = store.read(id).unwrap();
        let view = View::parse(&page).unwrap();
        assert_eq!(view.rows(), rows.len());
        let back = view.to_node();
        assert_eq!(back.kind, kind);
        assert_eq!(back.rows.len(), rows.len());
        for (i, (&got, &want)) in back.rows.iter().zip(rows).enumerate() {
            let keyed = i > 0 || kind != Kind::Internal;
            assert_eq!((keyed.then_some(got.0), got.1), (keyed.then_some(want.0), want.1));
        }
        back
    }

    /// The widths of the key and value columns a node of `rows` stores.
    fn widths(kind: Kind, rows: &[Row]) -> (u8, u8) {
        let page = encode(kind, rows);
        // Each column's header: base u64, width u8, mode u8, after the
        // block's count u16 and next u64.
        let column = |c: usize| page[PREFIX + 10 + 10 * c + 8];
        (column(0), column(1))
    }

    /// Two rows `gap` apart from `base` with values `lo` and `lo + span`.
    fn pair(base: i64, gap: u64, lo: u64, span: u64) -> [Row; 2] {
        [Row(base, lo), Row(base.wrapping_add(gap as i64), lo + span)]
    }

    #[test]
    fn leaf_roundtrip() {
        // Every column width 0–64, at both ends of i64 and u64.
        for page_size in PAGES {
            let store = PageStore::in_memory(page_size);
            let links = Kind::Leaf { next: PageId(42), prev: NULL_PAGE };
            for width in 0..=64u32 {
                let top = u64::MAX.checked_shr(64 - width).unwrap_or(0);
                let high = i64::MAX.wrapping_sub(top as i64);
                for rows in [pair(i64::MIN, top, 0, top), pair(high, top, u64::MAX - top, top)] {
                    // Width 0 is a lone entry's: no gap, one value.
                    let rows = if width == 0 { &rows[..1] } else { &rows[..] };
                    let node = roundtrip(&store, links, rows);
                    assert_eq!(widths(links, &node.rows), (width as u8, width as u8));
                }
            }
            roundtrip(&store, links, &[]);
            roundtrip(&store, Kind::LEAF, &[Row(i64::MIN, u64::MAX)]);
            roundtrip(&store, Kind::LEAF, &[Row(i64::MIN, 0), Row(i64::MAX, u64::MAX)]);
        }
    }

    #[test]
    fn internal_roundtrip() {
        for page_size in PAGES {
            let store = PageStore::in_memory(page_size);
            for width in 1..=64u32 {
                let top = u64::MAX.checked_shr(64 - width).unwrap_or(0);
                let [a, b] = pair(i64::MIN, top, u64::MAX - top, top);
                // Row 0 stores row 1's key: it widens neither column.
                let rows = [Row(i64::MIN, u64::MAX - top), a, b];
                let node = roundtrip(&store, Kind::Internal, &rows);
                assert_eq!(widths(Kind::Internal, &node.rows), (width as u8, width as u8));
                roundtrip(&store, Kind::Internal, &[Row(0, top), Row(i64::MAX, 0)]);
            }
            // One child: a root about to shrink.
            roundtrip(&store, Kind::Internal, &[Row(i64::MIN, u64::MAX)]);
        }
    }

    #[test]
    fn a_full_page_decodes_to_its_last_bit() {
        // 65-bit rows (a 1-bit key gap, 64-bit value offsets) packed to the
        // page's end: 64 gaps and 65 values end on the page's last bit.
        let page = PREFIX + 10 + 2 * 10 + 8 + 65 * 8;
        let store = PageStore::in_memory(page);
        let rows: Vec<Row> = (0..65)
            .map(|i| Row(i as i64, if i % 2 == 0 { u64::MAX - i as u64 } else { i as u64 }))
            .collect();
        assert_eq!(Node { kind: Kind::LEAF, rows: rows.clone() }.bytes(), page);
        let back = roundtrip(&store, Kind::LEAF, &rows);
        assert_eq!(back.rows, rows);
        let mut one_more = rows.clone();
        one_more.push(Row(65, 0));
        assert!(!Node { kind: Kind::LEAF, rows: one_more }.fits(page));
    }

    #[test]
    fn child_index_routes_by_separator() {
        let rows = vec![Row(i64::MIN, 0), Row(10, 1), Row(20, 2), Row(30, 3)];
        let n = Node { kind: Kind::Internal, rows };
        assert_eq!(n.child_index(5), 0);
        assert_eq!(n.child_index(10), 1, "separator key goes right");
        assert_eq!(n.child_index(15), 1);
        assert_eq!(n.child_index(29), 2);
        assert_eq!(n.child_index(30), 3);
        assert_eq!(n.child_index(99), 3);
        let store = PageStore::in_memory(256);
        let id = store.alloc().unwrap();
        write(&store, id, n.kind, &n.rows).unwrap();
        let page = store.read(id).unwrap();
        let view = View::parse(&page).unwrap();
        for key in [i64::MIN, 5, 10, 15, 29, 30, 99] {
            assert_eq!(view.last_to(key).unwrap().1, n.child_index(key) as u64, "{key}");
        }
    }

    #[test]
    fn capacities_are_sane() {
        // The benchmark's data: keys i·1000 + r (gaps under 2 000, 11 bits)
        // mapped to their ranks (gaps of 1, 1 bit).
        let rows: Vec<Row> =
            (0..10_000).map(|i| Row(i * 1000 + (i * 7919) % 1000, i as u64)).collect();
        let starts = pack(Kind::LEAF, &rows, 4096);
        assert_eq!(starts[1], 2705, "12 bits a row after the first in 4 057 bytes");
        // At the widest columns a half page holds `m` rows, any 2m − 1 fit.
        assert_eq!(PAGES.map(min_rows), [3, 127]);
        // `n` rows at 64-bit columns: keys across i64, values 0 and MAX.
        let wide = |n: usize| -> Vec<Row> {
            let key = |i: usize| {
                if i + 1 == n {
                    i64::MAX
                } else {
                    i64::MIN + i as i64
                }
            };
            (0..n).map(|i| Row(key(i), [0, u64::MAX][i % 2])).collect()
        };
        for page_size in PAGES {
            for kind in [Kind::LEAF, Kind::Internal] {
                let m = min_rows(page_size);
                assert!(Node { kind, rows: wide(2 * m - 1) }.fits(page_size));
                let more = Node { kind, rows: wide(2 * m + 1) };
                assert!(!more.fits(page_size), "m is the most");
            }
        }
        // Narrow rows stop at the u16 count.
        let ones: Vec<Row> = (0..200_000).map(|i| Row(i, 0)).collect();
        assert_eq!(pack(Kind::LEAF, &ones, 1 << 16)[1], usize::from(u16::MAX));
    }

    #[test]
    fn pack_and_balance_keep_every_piece_fitting_and_at_least_m() {
        for page_size in PAGES {
            for kind in [Kind::LEAF, Kind::Internal] {
                let m = min_rows(page_size);
                // Narrow runs with outlier keys and values at the ends and
                // inside.
                let mut rows: Vec<Row> = (0..3000).map(|i| Row(i * 3, i as u64)).collect();
                rows[0].0 = i64::MIN;
                rows[1500].1 = u64::MAX;
                rows[2999].0 = i64::MAX;
                let starts = pack(kind, &rows, page_size);
                let ends = starts[1..].iter().copied().chain([rows.len()]);
                for (a, b) in starts.iter().copied().zip(ends) {
                    assert!(b - a >= m, "{kind:?} at {page_size}: {a}..{b}");
                    assert!(Node { kind, rows: rows[a..b].to_vec() }.fits(page_size));
                }
                assert_eq!(balance(kind, &rows[..2 * m - 1], page_size), None);
            }
        }
    }

    /// What `write` puts on the page is what `fits` priced, byte for byte,
    /// whatever the kind, the row-0 key of an internal node, or the widths.
    #[test]
    fn the_bytes_written_are_the_bytes_priced() {
        let store = PageStore::in_memory(4096);
        let id = store.alloc().unwrap();
        let narrow: Vec<Row> = (0..200).map(|i| Row(i * 7, 1000 - i as u64)).collect();
        let mut outliers = narrow.clone();
        (outliers[0].0, outliers[100].1, outliers[199].0) = (i64::MIN, u64::MAX, i64::MAX);
        for rows in [&narrow[..], &outliers[..], &narrow[..1], &narrow[..2], &[][..]] {
            let links = Kind::Leaf { next: PageId(3), prev: PageId(u64::MAX) };
            for kind in [Kind::Internal, Kind::LEAF, links] {
                if kind == Kind::Internal && rows.is_empty() {
                    continue;
                }
                let page = encode(kind, rows);
                let priced = Node { kind, rows: rows.to_vec() }.bytes();
                assert_eq!(page.len(), priced, "{kind:?}, {} rows", rows.len());
                write(&store, id, kind, rows).unwrap();
                let written = store.read(id).unwrap();
                assert_eq!(&written[..page.len()], &page[..]);
                assert!(written[page.len()..].iter().all(|&b| b == 0));
            }
        }
    }

    #[test]
    fn corrupt_tag_is_detected() {
        let store = PageStore::in_memory(256);
        let id = store.alloc().unwrap();
        store.write(id, &[9u8, 0, 0]).unwrap();
        let page = store.read(id).unwrap();
        assert!(matches!(View::parse(&page), Err(StoreError::Corrupt(_))));
        // A count whose columns would run past the page.
        write(&store, id, Kind::LEAF, &[Row(1, 2), Row(5, 9)]).unwrap();
        let mut bytes = store.read(id).unwrap().to_vec();
        bytes[PREFIX..PREFIX + 2].copy_from_slice(&u16::MAX.to_le_bytes());
        bytes[PREFIX + 10 + 8] = 64;
        store.write(id, &bytes).unwrap();
        let page = store.read(id).unwrap();
        assert!(matches!(View::parse(&page), Err(StoreError::Corrupt(_))));
    }
}
