//! On-page node layout for the external B+-tree: every node is its own
//! codec.
//!
//! ```text
//! internal: [tag=0][count:u16][sep base:i64][sep width:u8][child base:u64][child width:u8]
//!           [separator gaps: (count − 1) × sep width][child offsets: (count + 1) × child width]
//! leaf:     [tag=1][count:u16][next:u64][prev:u64][key base:i64][key width:u8]
//!           [value base:u64][value width:u8][key gaps: (count − 1) × key width]
//!           [value offsets: count × value width]
//! ```
//!
//! A node is a run of *rows* `(key, value)`: a leaf's entries, or an
//! internal node's `(separator, child id)` pairs, whose first key is its
//! separator in the parent, not stored here. Keys are gaps from the previous
//! one (the first is the base), values offsets from the node's smallest,
//! bit-packed low bit first at the header's widths (0–64): a 4 KiB leaf
//! holds 1 476 of the benchmark's entries (11-bit gaps and offsets), and an
//! outlier widens only its own node. Queries decode a page in place
//! ([`View`], a field per 8-byte window load); updates decode a [`Node`].

use pc_pagestore::codec::{get_bits, put_bits, PageReader};
use pc_pagestore::{PageId, PageStore, Result, StoreError, NULL_PAGE};

const TAG_INTERNAL: u8 = 0;
const TAG_LEAF: u8 = 1;
/// Where a leaf's `prev` id sits.
const PREV_AT: usize = 11;
/// The most rows a node holds: the `u16` count.
const MAX_ROWS: usize = u16::MAX as usize;

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

    /// Tag, count, a leaf's sibling ids, a base and a width per column.
    fn header(self) -> usize {
        if self == Kind::Internal {
            21
        } else {
            37
        }
    }

    /// Leading rows whose key is not stored: an internal node's first.
    fn unkeyed(self) -> usize {
        usize::from(self == Kind::Internal)
    }
}

/// A decoded node.
#[derive(Debug, Clone)]
pub struct Node {
    pub kind: Kind,
    /// Sorted by key, keys distinct; an internal node's row `i` holds the
    /// keys from its own to row `i + 1`'s, and its row 0 decodes `i64::MIN`.
    pub rows: Vec<(i64, u64)>,
}

/// The bits `v` takes: 0 for 0.
fn bits(v: u64) -> u32 {
    u64::BITS - v.leading_zeros()
}

/// The gap from row `i − 1`'s key to row `i`'s.
fn gap(rows: &[(i64, u64)], i: usize) -> u64 {
    rows[i].0.wrapping_sub(rows[i - 1].0) as u64
}

/// What a contiguous run of rows needs — its count, widest stored gap and
/// value span — grown a row at a time, so every cut is priced in one pass.
#[derive(Debug, Clone, Copy)]
struct Run {
    rows: usize,
    gap: u64,
    lo: u64,
    hi: u64,
}

impl Run {
    const EMPTY: Run = Run { rows: 0, gap: 0, lo: u64::MAX, hi: 0 };

    /// Adds a row of `value` whose key adds `gap` to the stored ones.
    fn add(&mut self, value: u64, gap: Option<u64>) {
        self.rows += 1;
        (self.lo, self.hi) = (self.lo.min(value), self.hi.max(value));
        self.gap = self.gap.max(gap.unwrap_or(0));
    }

    fn of(kind: Kind, rows: &[(i64, u64)]) -> Run {
        let mut run = Run::EMPTY;
        for (i, &(_, value)) in rows.iter().enumerate() {
            run.add(value, (i > kind.unkeyed()).then(|| gap(rows, i)));
        }
        run
    }

    /// The bit widths of its key gaps and of its value offsets.
    fn widths(&self) -> (u32, u32) {
        (bits(self.gap), bits(self.hi.saturating_sub(self.lo)))
    }

    /// Encoded bytes as a node of `kind`; past the count, more than any page.
    fn bytes(&self, kind: Kind) -> usize {
        let (gap, value) = self.widths();
        let gaps = self.rows.saturating_sub(kind.unkeyed() + 1);
        let bits = gaps * gap as usize + self.rows * value as usize;
        if self.rows > MAX_ROWS {
            usize::MAX
        } else {
            kind.header() + bits.div_ceil(8)
        }
    }

    fn fits(&self, kind: Kind, page_size: usize) -> bool {
        self.bytes(kind) <= page_size
    }
}

/// The fewest rows a non-root node of `kind` holds: the most `m` for which
/// any `2m − 1` rows fit a page at 64-bit columns — 127 entries a leaf and
/// 128 children at 4 KiB, 3 and 4 at 128 B. A node past its page has `2m`
/// rows and cuts into pieces of `m`; one short of `m` merges with one at `m`.
pub fn min_rows(kind: Kind, page_size: usize) -> usize {
    // header + 8·(2·(2m − 1) − unkeyed − 1) <= page
    let m = (page_size + 24 + 8 * kind.unkeyed()).saturating_sub(kind.header()) / 32;
    assert!(m >= 2, "{page_size}-byte pages give a node fewer than 2 rows at full width");
    m.min(MAX_ROWS.div_ceil(2))
}

/// Where `rows` are cut into nodes of `kind` that fit `page_size` (the start
/// of every piece): greedily, each the longest run that fits, then the last
/// two at their most even cut ([`balance`]). Past one page every piece holds
/// [`min_rows`]: a run the next row overflows holds `2m − 1`.
pub fn pack(kind: Kind, rows: &[(i64, u64)], page_size: usize) -> Vec<usize> {
    let mut starts = vec![0];
    let mut run = Run::EMPTY;
    for i in 0..rows.len() {
        let mut grown = run;
        grown.add(rows[i].1, (i > starts[starts.len() - 1] + kind.unkeyed()).then(|| gap(rows, i)));
        if grown.fits(kind, page_size) {
            run = grown;
        } else {
            starts.push(i);
            run = Run::EMPTY;
            run.add(rows[i].1, None);
        }
    }
    if let &[.., before, last] = &starts[..] {
        let cut = balance(kind, &rows[before..], page_size).unwrap_or(last - before);
        *starts.last_mut().expect("two pieces") = before + cut;
    }
    starts
}

/// The most even cut, by encoded bytes, of `rows` into two nodes of `kind`
/// that fit `page_size` and hold at least [`min_rows`] each, if any.
pub fn balance(kind: Kind, rows: &[(i64, u64)], page_size: usize) -> Option<usize> {
    let (n, m, unkeyed) = (rows.len(), min_rows(kind, page_size), kind.unkeyed());
    if n < 2 * m {
        return None;
    }
    // The bytes of rows[..s] and rows[s..]; [a, b) stores gaps a + unkeyed + 1 .. b.
    let (mut left, mut right) = (vec![usize::MAX; n + 1], vec![usize::MAX; n + 1]);
    let (mut head, mut tail) = (Run::EMPTY, Run::EMPTY);
    for s in 0..n {
        head.add(rows[s].1, (s > unkeyed).then(|| gap(rows, s)));
        left[s + 1] = head.bytes(kind);
        let (t, stored) = (n - 1 - s, n + unkeyed - s);
        tail.add(rows[t].1, (stored < n).then(|| gap(rows, stored)));
        right[t] = tail.bytes(kind);
    }
    (m..=n - m)
        .filter(|&s| left[s].max(right[s]) <= page_size)
        .min_by_key(|&s| left[s].abs_diff(right[s]))
}

impl Node {
    /// Reads and decodes the node at `id` (one I/O).
    pub fn read(store: &PageStore, id: PageId) -> Result<Node> {
        Ok(View::parse(&store.read(id)?)?.to_node())
    }

    pub fn fits(&self, page_size: usize) -> bool {
        Run::of(self.kind, &self.rows).fits(self.kind, page_size)
    }

    /// Under half a page or under [`min_rows`]: after a delete, a non-root
    /// node settles with a sibling.
    pub fn under(&self, page_size: usize) -> bool {
        let bytes = Run::of(self.kind, &self.rows).bytes(self.kind);
        2 * bytes < page_size || self.rows.len() < min_rows(self.kind, page_size)
    }

    /// Index of the row (child) whose keys cover `key`.
    pub fn child_index(&self, key: i64) -> usize {
        self.rows[1..].partition_point(|&(k, _)| k <= key)
    }
}

/// Writes `rows` cut at `starts` ([`pack`]) to the pages `ids`, a leaf's
/// pieces chained between `kind`'s neighbours; returns each piece's first
/// key (`i64::MIN` if empty) and page: the rows their parent takes.
pub fn write_pieces(
    store: &PageStore,
    kind: Kind,
    rows: &[(i64, u64)],
    starts: &[usize],
    ids: &[PageId],
) -> Result<Vec<(i64, u64)>> {
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
    let first = |start: usize| rows.get(start).map_or(i64::MIN, |&(k, _)| k);
    Ok(starts.iter().zip(ids).map(|(&start, id)| (first(start), id.0)).collect())
}

/// Encodes `rows` as a node of `kind` and writes it to `id` (one I/O).
/// Panics if they do not fit a page: every caller cuts first.
pub fn write(store: &PageStore, id: PageId, kind: Kind, rows: &[(i64, u64)]) -> Result<()> {
    let run = Run::of(kind, rows);
    assert!(run.fits(kind, store.page_size()), "{} rows do not fit one page", rows.len());
    let ((gap_width, value_width), lo) = (run.widths(), run.lo.min(run.hi));
    let keyed = &rows[kind.unkeyed().min(rows.len())..];
    let (tag, links) = match kind {
        Kind::Internal => (TAG_INTERNAL, vec![]),
        Kind::Leaf { next, prev } => (TAG_LEAF, [next.0, prev.0].map(u64::to_le_bytes).concat()),
    };
    let base = keyed.first().map_or(0, |&(k, _)| k).to_le_bytes();
    let count = (keyed.len() as u16).to_le_bytes();
    let fields: [&[u8]; 7] = [
        &[tag],
        &count,
        &links,
        &base,
        &[gap_width as u8],
        &lo.to_le_bytes(),
        &[value_width as u8],
    ];
    let mut buf = fields.concat();
    let mut bit = 8 * buf.len();
    buf.resize(run.bytes(kind), 0);
    let gaps = (1..keyed.len()).map(|i| (gap(keyed, i), gap_width));
    for (v, width) in gaps.chain(rows.iter().map(|&(_, v)| (v - lo, value_width))) {
        put_bits(&mut buf, bit, v, width);
        bit += width as usize;
    }
    store.write(id, &buf)
}

/// Points the leaf at `id`, if there is one, back at `prev` in place.
pub fn set_prev(store: &PageStore, id: PageId, prev: PageId) -> Result<()> {
    if id.is_null() {
        return Ok(());
    }
    let mut page = store.read(id)?.to_vec();
    View::parse(&page)?;
    page[PREV_AT..PREV_AT + 8].copy_from_slice(&prev.0.to_le_bytes());
    store.write(id, &page)
}

/// A node read in place: each column's base, bit width and first bit, the
/// fields decoded one at a time with no per-node vectors.
#[derive(Debug, Clone, Copy)]
pub struct View<'a> {
    page: &'a [u8],
    pub kind: Kind,
    /// A leaf's entries, an internal node's children.
    pub rows: usize,
    keys: (u64, u32, usize),
    values: (u64, u32, usize),
}

impl<'a> View<'a> {
    /// The node `page` holds; its columns must lie inside the page.
    pub fn parse(page: &'a [u8]) -> Result<View<'a>> {
        let mut r = PageReader::new(page);
        let (tag, count) = (r.get_u8()?, usize::from(r.get_u16()?));
        let kind = match tag {
            TAG_INTERNAL => Kind::Internal,
            TAG_LEAF => Kind::Leaf { next: PageId(r.get_u64()?), prev: PageId(r.get_u64()?) },
            tag => return Err(StoreError::Corrupt(format!("unknown b+tree node tag {tag}"))),
        };
        let (key_base, key_width) = (r.get_u64()?, u32::from(r.get_u8()?));
        let (value_base, value_width) = (r.get_u64()?, u32::from(r.get_u8()?));
        let rows = count + kind.unkeyed();
        let widest = |width: u32| u64::MAX.checked_shr(64 - width).unwrap_or(0);
        let bytes = |gap, hi| Run { rows, gap, lo: 0, hi }.bytes(kind);
        if key_width.max(value_width) > 64
            || bytes(widest(key_width), widest(value_width)) > page.len()
        {
            return Err(StoreError::Corrupt("b+tree node columns past the page".into()));
        }
        let start = 8 * r.position();
        let values =
            (value_base, value_width, start + count.saturating_sub(1) * key_width as usize);
        Ok(View { page, kind, rows, keys: (key_base, key_width, start), values })
    }

    /// The stored keys in order: a leaf's every key, an internal node's
    /// separators (row `i + 1`'s key is the `i`-th).
    pub fn keys(&self) -> impl Iterator<Item = i64> + 'a {
        let (page, (base, width, start)) = (self.page, self.keys);
        (0..self.rows - self.kind.unkeyed()).scan(base as i64, move |key, i| {
            let k = *key;
            // Past the last key this reads what follows the column, unused.
            *key = k.wrapping_add(get_bits(page, start + i * width as usize, width) as i64);
            Some(k)
        })
    }

    /// Row `i`'s value: a leaf's value, an internal node's child id.
    #[inline]
    pub fn value(&self, i: usize) -> u64 {
        let (base, width, start) = self.values;
        base.wrapping_add(get_bits(self.page, start + i * width as usize, width))
    }

    /// The child of an internal node whose keys cover `key`.
    pub fn child_for(&self, key: i64) -> PageId {
        PageId(self.value(self.keys().take_while(|&k| k <= key).count()))
    }

    /// A leaf's neighbours `(next, prev)`.
    pub fn links(&self) -> (PageId, PageId) {
        match self.kind {
            Kind::Leaf { next, prev } => (next, prev),
            Kind::Internal => (NULL_PAGE, NULL_PAGE),
        }
    }

    /// The whole node, decoded.
    pub fn to_node(self) -> Node {
        let first = (self.kind == Kind::Internal).then_some(i64::MIN);
        let keys = first.into_iter().chain(self.keys());
        Node { kind: self.kind, rows: keys.enumerate().map(|(i, k)| (k, self.value(i))).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGES: [usize; 2] = [128, 4096];

    fn roundtrip(store: &PageStore, kind: Kind, rows: &[(i64, u64)]) -> Node {
        let id = store.alloc().unwrap();
        write(store, id, kind, rows).unwrap();
        let page = store.read(id).unwrap();
        let view = View::parse(&page).unwrap();
        assert_eq!(view.rows, rows.len());
        let back = view.to_node();
        assert_eq!(back.kind, kind);
        assert_eq!(back.rows.len(), rows.len());
        for (i, (&got, &want)) in back.rows.iter().zip(rows).enumerate() {
            let keyed = i >= kind.unkeyed();
            assert_eq!((keyed.then_some(got.0), got.1), (keyed.then_some(want.0), want.1));
        }
        back
    }

    /// Two rows `gap` apart from `base` with values `lo` and `lo + span`.
    fn pair(base: i64, gap: u64, lo: u64, span: u64) -> [(i64, u64); 2] {
        [(base, lo), (base.wrapping_add(gap as i64), lo + span)]
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
                    assert_eq!(Run::of(links, &node.rows).widths(), (width, width));
                }
            }
            roundtrip(&store, links, &[]);
            roundtrip(&store, Kind::LEAF, &[(i64::MIN, u64::MAX)]);
            roundtrip(&store, Kind::LEAF, &[(i64::MIN, 0), (i64::MAX, u64::MAX)]);
        }
    }

    #[test]
    fn internal_roundtrip() {
        for page_size in PAGES {
            let store = PageStore::in_memory(page_size);
            for width in 1..=64u32 {
                let top = u64::MAX.checked_shr(64 - width).unwrap_or(0);
                let [a, b] = pair(i64::MIN, top, u64::MAX - top, top);
                let node = roundtrip(&store, Kind::Internal, &[(i64::MIN, u64::MAX - top), a, b]);
                assert_eq!(Run::of(Kind::Internal, &node.rows).widths(), (width, width));
                roundtrip(&store, Kind::Internal, &[(0, top), (i64::MAX, 0)]);
            }
            // One child: a root about to shrink.
            roundtrip(&store, Kind::Internal, &[(i64::MIN, u64::MAX)]);
        }
    }

    #[test]
    fn a_full_page_decodes_to_its_last_bit() {
        // 65-bit rows (a 1-bit gap, 64-bit values) packed to the page's end:
        // the last value straddles a ninth byte of its window.
        let store = PageStore::in_memory(4096);
        let n = (8 * (4096 - Kind::LEAF.header()) + 1) / 65;
        let rows: Vec<(i64, u64)> = (0..n)
            .map(|i| (i as i64, if i % 2 == 0 { u64::MAX - i as u64 } else { i as u64 }))
            .collect();
        assert!(Run::of(Kind::LEAF, &rows).fits(Kind::LEAF, 4096));
        let back = roundtrip(&store, Kind::LEAF, &rows);
        assert_eq!(back.rows, rows);
        let mut one_more = rows.clone();
        one_more.push((n as i64, 0));
        assert!(!Run::of(Kind::LEAF, &one_more).fits(Kind::LEAF, 4096));
    }

    #[test]
    fn child_index_routes_by_separator() {
        let n = Node { kind: Kind::Internal, rows: vec![(i64::MIN, 0), (10, 1), (20, 2), (30, 3)] };
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
            assert_eq!(view.child_for(key), PageId(n.child_index(key) as u64), "{key}");
        }
    }

    #[test]
    fn capacities_are_sane() {
        // The benchmark's data: keys i·1000 + r (gaps under 2 000, 11 bits)
        // mapped to their ranks (11 bits within a leaf).
        let rows: Vec<(i64, u64)> =
            (0..5000).map(|i| (i * 1000 + (i * 7919) % 1000, i as u64)).collect();
        let starts = pack(Kind::LEAF, &rows, 4096);
        assert_eq!(starts[1], 1476, "22-bit entries in 4 059 bytes");
        // At the widest columns a half page holds `m` rows, any 2m − 1 fit.
        assert_eq!(PAGES.map(|p| min_rows(Kind::LEAF, p)), [3, 127]);
        assert_eq!(PAGES.map(|p| min_rows(Kind::Internal, p)), [4, 128]);
        // `n` rows at 64-bit columns: one gap across i64, values 0 and MAX.
        let wide = |n: usize| -> Vec<(i64, u64)> {
            let key = |i: usize| {
                if i + 1 == n {
                    i64::MAX
                } else {
                    i64::MIN + i as i64
                }
            };
            (0..n).map(|i| (key(i), [0, u64::MAX][i % 2])).collect()
        };
        for page_size in PAGES {
            for kind in [Kind::LEAF, Kind::Internal] {
                let m = min_rows(kind, page_size);
                assert!(Run::of(kind, &wide(2 * m - 1)).fits(kind, page_size));
                assert!(!Run::of(kind, &wide(2 * m + 1)).fits(kind, page_size), "m is the most");
            }
        }
        // Narrow rows stop at the u16 count.
        let ones: Vec<(i64, u64)> = (0..200_000).map(|i| (i, 0)).collect();
        assert_eq!(pack(Kind::LEAF, &ones, 1 << 16)[1], usize::from(u16::MAX));
    }

    #[test]
    fn pack_and_balance_keep_every_piece_fitting_and_at_least_m() {
        for page_size in PAGES {
            for kind in [Kind::LEAF, Kind::Internal] {
                let m = min_rows(kind, page_size);
                // Narrow runs with outlier keys and values at the ends and
                // inside.
                let mut rows: Vec<(i64, u64)> = (0..3000).map(|i| (i * 3, i as u64)).collect();
                rows[0].0 = i64::MIN;
                rows[1500].1 = u64::MAX;
                rows[2999].0 = i64::MAX;
                let starts = pack(kind, &rows, page_size);
                let ends = starts[1..].iter().copied().chain([rows.len()]);
                for (a, b) in starts.iter().copied().zip(ends) {
                    assert!(b - a >= m, "{kind:?} at {page_size}: {a}..{b}");
                    assert!(Run::of(kind, &rows[a..b]).fits(kind, page_size));
                }
                assert_eq!(balance(kind, &rows[..2 * m - 1], page_size), None);
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
        store.write(id, &[TAG_LEAF, 255, 255]).unwrap();
        let mut bytes = store.read(id).unwrap().to_vec();
        bytes[Kind::LEAF.header() - 10] = 64;
        store.write(id, &bytes).unwrap();
        let page = store.read(id).unwrap();
        assert!(matches!(View::parse(&page), Err(StoreError::Corrupt(_))));
    }
}
