//! Geometric record types shared by every index structure in the workspace.
//!
//! They live in the storage crate (the common dependency) so the segment
//! tree, interval tree, and priority search tree crates agree on encodings;
//! the umbrella `path-caching` crate re-exports them as public API.
//!
//! A data record is two coordinates and an id. Where a structure stores
//! them as data — blocked lists, points pages, caches, update buffers,
//! bundles — the block codec of [`crate::layout`] stores them column by
//! column at each block's own bit widths ([`Columns`]). [`Record`] is the
//! fixed-width form (24 bytes for a [`Point`]) that skeletal records and
//! handles use; an [`Interval`] is only ever data.

use crate::codec::{PageReader, PageWriter};
use crate::error::Result;
use crate::layout::{key_of, signed_of, Columns, MAX_COLUMNS};

/// A fixed-size record that can be embedded in pages and tree nodes.
pub trait Record: Sized + Clone {
    /// Encoded size in bytes; every instance encodes to exactly this many.
    const ENCODED_LEN: usize;

    /// Serializes into `w`.
    fn encode(&self, w: &mut PageWriter<'_>) -> Result<()>;

    /// Deserializes from `r`.
    fn decode(r: &mut PageReader<'_>) -> Result<Self>;
}

/// The two record shapes — `(a, b, id)` with named coordinates — as
/// three [`Columns`].
macro_rules! coordinate_record {
    ($t:ident, $a:ident, $b:ident) => {
        impl Columns for $t {
            const COLUMNS: usize = 3;

            #[inline]
            fn column(&self, c: usize) -> u64 {
                match c {
                    0 => key_of(self.$a),
                    1 => key_of(self.$b),
                    _ => self.id,
                }
            }

            #[inline]
            fn from_columns(c: &[u64; MAX_COLUMNS]) -> Self {
                $t { $a: signed_of(c[0]), $b: signed_of(c[1]), id: c[2] }
            }
        }
    };
}

/// A point in the plane with an opaque payload (typically a tuple id).
///
/// Coordinates are `i64`; ties are broken by `id` so inputs can always be
/// treated as having distinct coordinates (the paper's usual general-
/// position assumption, realized by lexicographic comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Point {
    /// x coordinate.
    pub x: i64,
    /// y coordinate.
    pub y: i64,
    /// Caller-defined payload, e.g. a record id.
    pub id: u64,
}

impl Point {
    /// Convenience constructor.
    pub fn new(x: i64, y: i64, id: u64) -> Self {
        Point { x, y, id }
    }
}

coordinate_record!(Point, x, y);

/// One update of a point set, as a dynamic structure applies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOp {
    /// Insert a point.
    Insert(Point),
    /// Delete a point.
    Delete(Point),
}

/// A point as skeletal records and handles embed it: 24 bytes.
impl Record for Point {
    const ENCODED_LEN: usize = 24;

    fn encode(&self, w: &mut PageWriter<'_>) -> Result<()> {
        w.put_i64(self.x)?;
        w.put_i64(self.y)?;
        w.put_u64(self.id)
    }

    fn decode(r: &mut PageReader<'_>) -> Result<Self> {
        Ok(Point { x: r.get_i64()?, y: r.get_i64()?, id: r.get_u64()? })
    }
}

/// A closed interval `[lo, hi]` on the line with an opaque payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Left endpoint (inclusive).
    pub lo: i64,
    /// Right endpoint (inclusive).
    pub hi: i64,
    /// Caller-defined payload, e.g. a record id.
    pub id: u64,
}

impl Interval {
    /// Creates an interval; panics if `lo > hi`.
    pub fn new(lo: i64, hi: i64, id: u64) -> Self {
        assert!(lo <= hi, "interval endpoints out of order: [{lo}, {hi}]");
        Interval { lo, hi, id }
    }

    /// True if the interval contains the query point `q`.
    pub fn contains(&self, q: i64) -> bool {
        self.lo <= q && q <= self.hi
    }

    /// The \[KRV\] reduction: interval `[lo, hi]` as the point `(lo, hi)`.
    /// A stabbing query at `q` becomes the 2-sided query `x ≤ q ∧ y ≥ q`
    /// (a diagonal-corner query, since the corner `(q, q)` lies on the
    /// diagonal).
    pub fn to_point(&self) -> Point {
        Point { x: self.lo, y: self.hi, id: self.id }
    }
}

coordinate_record!(Interval, lo, hi);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<R: Record + PartialEq + std::fmt::Debug>(rec: R) {
        let mut buf = vec![0u8; R::ENCODED_LEN];
        let mut w = PageWriter::new(&mut buf);
        rec.encode(&mut w).unwrap();
        assert_eq!(w.position(), R::ENCODED_LEN, "encode must fill ENCODED_LEN exactly");
        let mut r = PageReader::new(&buf);
        assert_eq!(R::decode(&mut r).unwrap(), rec);
    }

    #[test]
    fn record_roundtrips() {
        roundtrip(Point::new(-5, 9, 42));
    }

    /// A value of exactly `width` bytes (or fewer, one time in four).
    fn gen_signed(rng: &mut pc_rng::Rng, width: u8) -> i64 {
        let width = u64::from(width);
        let bytes = if rng.gen_bool(0.25) { rng.gen_range(1..=width) } else { width };
        let bits = 8 * bytes as u32;
        let magnitude = (rng.next_u64() >> 1) >> (64 - bits);
        if rng.gen_bool(0.5) { magnitude as i64 } else { !(magnitude as i64) }
    }

    /// Each block header is its records' frame: a block of points of random
    /// widths holds exactly what round-trips, and takes the narrowest coding
    /// of every column — offsets from its smallest value, or gaps where it
    /// is monotone, whichever is fewer bits — to the byte.
    #[test]
    fn frame_holds_exactly_what_round_trips_and_of_is_the_narrowest() {
        use crate::layout::{encode_block, key_of, Block};
        use pc_rng::check::{check, no_shrink, Config};
        let bits = |v: u64| (u64::BITS - v.leading_zeros()) as usize;
        let narrowest = |values: &[u64]| {
            let (lo, hi) = (values.iter().min().unwrap(), values.iter().max().unwrap());
            let mut best = values.len() * bits(hi - lo);
            let pairs = || values.windows(2).map(|w| (w[0], w[1]));
            let up = pairs().map(|(a, b)| b.checked_sub(a)).collect::<Option<Vec<u64>>>();
            let down = pairs().map(|(a, b)| a.checked_sub(b)).collect::<Option<Vec<u64>>>();
            for gaps in [up, down].into_iter().flatten() {
                let widest = gaps.iter().copied().max().unwrap_or(0);
                best = best.min((values.len() - 1) * bits(widest));
            }
            best
        };
        check(
            &Config::with_cases(400),
            |rng| {
                let widths = [(); 3].map(|()| rng.gen_range(1..=8u64) as u8);
                let mut points: Vec<Point> = (0..rng.gen_range(1..40usize))
                    .map(|_| {
                        let id = rng.next_u64() >> (64 - 8 * u32::from(widths[2]));
                        Point::new(gen_signed(rng, widths[0]), gen_signed(rng, widths[1]), id)
                    })
                    .collect();
                if rng.gen_bool(0.5) {
                    points.sort_unstable_by_key(|p| (p.x, p.y, p.id));
                }
                points
            },
            no_shrink,
            |points| {
                let block = encode_block(points, crate::store::NULL_PAGE);
                let back = Block::parse::<Point>(&block).unwrap().to_vec::<Point>();
                assert_eq!(&back, points, "round trip");
                let column = |f: fn(&Point) -> u64| points.iter().map(f).collect::<Vec<u64>>();
                let columns = [column(|p| key_of(p.x)), column(|p| key_of(p.y)), column(|p| p.id)];
                let fields: usize = columns.iter().map(|c| narrowest(c)).sum();
                assert_eq!(block.len(), 40 + fields.div_ceil(8), "the narrowest coding");
                Ok(())
            },
        );
    }

    /// The extremes of every field round-trip in a block and in the wide
    /// form, the fixed 24-byte record skeletal pages and handles use; the
    /// codec's key of a signed field keeps its order.
    #[test]
    fn frame_extremes_and_the_wide_form() {
        use crate::layout::{encode_block, key_of, signed_of, Block};
        let extremes = [
            Point::new(i64::MIN, i64::MAX, u64::MAX),
            Point::new(-1, 0, 0),
            Point::new(127, -128, 255),
            Point::new(i64::MAX, i64::MIN, 1),
        ];
        let block = encode_block(&extremes, crate::store::NULL_PAGE);
        assert_eq!(Block::parse::<Point>(&block).unwrap().to_vec::<Point>(), extremes);
        for p in extremes {
            roundtrip(p);
        }
        let ordered = [i64::MIN, -1, 0, 1, i64::MAX];
        assert!(ordered.windows(2).all(|w| key_of(w[0]) < key_of(w[1])));
        assert!(ordered.iter().all(|&v| signed_of(key_of(v)) == v));
    }

    #[test]
    fn interval_contains_is_closed() {
        let iv = Interval::new(3, 8, 0);
        assert!(iv.contains(3));
        assert!(iv.contains(8));
        assert!(iv.contains(5));
        assert!(!iv.contains(2));
        assert!(!iv.contains(9));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn inverted_interval_panics() {
        let _ = Interval::new(5, 4, 0);
    }

    #[test]
    fn krv_reduction_maps_stabbing_to_corner() {
        // interval [2, 9] stabs q=5  <=>  point (2, 9) satisfies x<=5<=y
        let iv = Interval::new(2, 9, 1);
        let p = iv.to_point();
        let q = 5i64;
        assert_eq!(iv.contains(q), p.x <= q && p.y >= q);
        let q = 1i64;
        assert_eq!(iv.contains(q), p.x <= q && p.y >= q);
    }
}
