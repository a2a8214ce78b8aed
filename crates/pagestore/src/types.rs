//! Geometric record types shared by every index structure in the workspace.
//!
//! They live in the storage crate (the common dependency) so the segment
//! tree, interval tree, and priority search tree crates agree on encodings;
//! the umbrella `path-caching` crate re-exports them as public API.
//!
//! A data record is two coordinates and an id. Where a structure stores
//! them as data — blocked lists, points pages, caches, update buffers,
//! bundles — it stores each field at the byte width its [`Frame`] names,
//! chosen once per structure instance from the records it holds, so a page
//! holds more of them. [`Record`] is the fixed-width form (a [`Point`] or
//! [`Interval`] at [`Frame::WIDE`], 24 bytes) that skeletal records and
//! handles use.

use crate::codec::{PageReader, PageWriter};
use crate::error::{Result, StoreError};

/// A fixed-size record that can be embedded in pages and tree nodes.
pub trait Record: Sized + Clone {
    /// Encoded size in bytes; every instance encodes to exactly this many.
    const ENCODED_LEN: usize;

    /// Serializes into `w`.
    fn encode(&self, w: &mut PageWriter<'_>) -> Result<()>;

    /// Deserializes from `r`.
    fn decode(r: &mut PageReader<'_>) -> Result<Self>;
}

/// A data record — two coordinates and an id, then [`Framed::TAG`] bytes of
/// its own — stored at the field widths of its structure's [`Frame`].
pub trait Framed: Sized + Clone {
    /// Bytes the record takes after the frame's three fields.
    const TAG: usize;

    /// The two coordinates and the id the frame has to hold.
    fn fields(&self) -> (i64, i64, u64);

    /// Writes the record's `TAG` bytes.
    fn pack_tag(&self, w: &mut PageWriter<'_>) -> Result<()>;

    /// The record of these fields, its `TAG` bytes next under `r`.
    fn unpack_tagged(fields: (i64, i64, u64), r: &mut PageReader<'_>) -> Result<Self>;

    /// Serializes into `w`: `frame.record_len::<Self>()` bytes.
    #[inline]
    fn pack(&self, frame: Frame, w: &mut PageWriter<'_>) -> Result<()> {
        frame.encode(self.fields(), w)?;
        self.pack_tag(w)
    }

    /// Deserializes from `r` (inlined across crates, as is everything
    /// below it: a scan spends its time decoding).
    #[inline]
    fn unpack(frame: Frame, r: &mut PageReader<'_>) -> Result<Self> {
        Self::unpack_tagged(frame.decode(r)?, r)
    }
}

/// The byte widths, 1–8 each, at which one structure instance stores its
/// records' two coordinates (two's complement, sign-extended on decode) and
/// their id (unsigned). Every capacity — the paper's `B` — is a function of
/// the page size and the frame; the frame lives in the structure's handle or
/// descriptor, never on the pages, so [`Frame::WIDE`] costs no byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Frame {
    a: u8,
    b: u8,
    id: u8,
}

/// Bytes of the narrowest two's-complement form of `v`.
fn signed_width(v: i64) -> u8 {
    // `v ^ (v >> 63)` clears the sign: its bits plus one sign bit.
    (65 - (v ^ (v >> 63)).leading_zeros()).div_ceil(8) as u8
}

impl Frame {
    /// Full-width fields: the 24-byte form every record has as a [`Record`].
    pub const WIDE: Frame = Frame { a: 8, b: 8, id: 8 };

    /// A frame of the given widths; panics unless each is in `1..=8`.
    pub const fn new(a: u8, b: u8, id: u8) -> Frame {
        let in_range = a.wrapping_sub(1) < 8 && b.wrapping_sub(1) < 8 && id.wrapping_sub(1) < 8;
        assert!(in_range, "frame width outside 1..=8");
        Frame { a, b, id }
    }

    /// The narrowest frame that holds the fields `(a, b, id)`.
    fn of_fields((a, b, id): (i64, i64, u64)) -> Frame {
        let id_width = (64 - id.leading_zeros()).div_ceil(8).max(1) as u8;
        Frame { a: signed_width(a), b: signed_width(b), id: id_width }
    }

    /// The narrowest frame that holds every one of `records` (1/1/1 for
    /// none).
    pub fn of<R: Framed>(records: &[R]) -> Frame {
        let widen = |frame: Frame, rec: &R| frame.union(Frame::of_fields(rec.fields()));
        records.iter().fold(Frame::default(), widen)
    }

    /// The narrowest frame that holds whatever `self` or `other` holds.
    pub fn union(self, other: Frame) -> Frame {
        Frame { a: self.a.max(other.a), b: self.b.max(other.b), id: self.id.max(other.id) }
    }

    /// True if `rec` survives [`Frame::encode`] → [`Frame::decode`].
    pub fn holds<R: Framed>(self, rec: &R) -> bool {
        self.holds_fields(rec.fields())
    }

    fn holds_fields(self, fields: (i64, i64, u64)) -> bool {
        self.union(Frame::of_fields(fields)) == self
    }

    /// The widths of the two coordinates and the id: the frame's three
    /// bytes in a descriptor ([`Frame::from_widths`] reads them back).
    pub fn widths(self) -> [u8; 3] {
        [self.a, self.b, self.id]
    }

    /// The frame a descriptor names; an error unless each width is in `1..=8`.
    pub fn from_widths(widths: [u8; 3]) -> Result<Frame> {
        if widths.iter().any(|w| !(1..=8).contains(w)) {
            return Err(StoreError::Corrupt(format!("frame widths {widths:?} outside 1..=8")));
        }
        Ok(Frame { a: widths[0], b: widths[1], id: widths[2] })
    }

    /// Encoded size of one `R` under this frame.
    pub fn record_len<R: Framed>(self) -> usize {
        usize::from(self.a + self.b + self.id) + R::TAG
    }

    /// Writes the three fields at the frame's widths, little-endian. Panics
    /// on fields the frame does not hold: a structure widens before it
    /// stores such a record, so they show a bug, and dropping their high
    /// bytes would store a different record.
    pub fn encode(self, fields: (i64, i64, u64), w: &mut PageWriter<'_>) -> Result<()> {
        assert!(self.holds_fields(fields), "frame {self} cannot hold {fields:?}");
        let (a, b, id) = fields;
        w.put_uint(a as u64, usize::from(self.a))?;
        w.put_uint(b as u64, usize::from(self.b))?;
        w.put_uint(id, usize::from(self.id))
    }

    /// Reads the three fields back.
    #[inline]
    pub fn decode(self, r: &mut PageReader<'_>) -> Result<(i64, i64, u64)> {
        let a = r.get_int(usize::from(self.a))?;
        let b = r.get_int(usize::from(self.b))?;
        Ok((a, b, r.get_uint(usize::from(self.id))?))
    }
}

impl Default for Frame {
    /// The frame of no records, 1/1/1: [`Frame::union`]'s identity.
    fn default() -> Frame {
        Frame { a: 1, b: 1, id: 1 }
    }
}

impl std::fmt::Display for Frame {
    /// `3/3/3`: the form the censuses, tables and DESIGN name a frame by.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}/{}", self.a, self.b, self.id)
    }
}

/// The two record shapes — `(a, b, id)` with named coordinates — as
/// [`Framed`] data and, at [`Frame::WIDE`], as a fixed [`Record`].
macro_rules! coordinate_record {
    ($t:ident, $a:ident, $b:ident) => {
        impl Framed for $t {
            const TAG: usize = 0;

            #[inline]
            fn fields(&self) -> (i64, i64, u64) {
                (self.$a, self.$b, self.id)
            }

            fn pack_tag(&self, _: &mut PageWriter<'_>) -> Result<()> {
                Ok(())
            }

            #[inline]
            fn unpack_tagged(fields: (i64, i64, u64), _: &mut PageReader<'_>) -> Result<Self> {
                let ($a, $b, id) = fields;
                Ok($t { $a, $b, id })
            }
        }

        impl Record for $t {
            const ENCODED_LEN: usize = 24;

            fn encode(&self, w: &mut PageWriter<'_>) -> Result<()> {
                self.pack(Frame::WIDE, w)
            }

            fn decode(r: &mut PageReader<'_>) -> Result<Self> {
                Self::unpack(Frame::WIDE, r)
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

    /// Total order by (x, y, id) — the x-order used for tree division.
    pub fn cmp_xy(&self, other: &Point) -> std::cmp::Ordering {
        (self.x, self.y, self.id).cmp(&(other.x, other.y, other.id))
    }

    /// Total order by (y, x, id) — the y-order used for heap layering.
    pub fn cmp_yx(&self, other: &Point) -> std::cmp::Ordering {
        (self.y, self.x, self.id).cmp(&(other.y, other.x, other.id))
    }
}

coordinate_record!(Point, x, y);

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

    /// The [KRV] reduction: interval `[lo, hi]` as the point `(lo, hi)`.
    /// A stabbing query at `q` becomes the 2-sided query `x ≤ q ∧ y ≥ q`
    /// (a diagonal-corner query, since the corner `(q, q)` lies on the
    /// diagonal).
    pub fn to_point(&self) -> Point {
        Point { x: self.lo, y: self.hi, id: self.id }
    }
}

coordinate_record!(Interval, lo, hi);

/// A bare `u64`, used where lists store page ids or record ids.
impl Record for u64 {
    const ENCODED_LEN: usize = 8;

    fn encode(&self, w: &mut PageWriter<'_>) -> Result<()> {
        w.put_u64(*self)
    }

    fn decode(r: &mut PageReader<'_>) -> Result<Self> {
        r.get_u64()
    }
}

/// A bare `i64` key record.
impl Record for i64 {
    const ENCODED_LEN: usize = 8;

    fn encode(&self, w: &mut PageWriter<'_>) -> Result<()> {
        w.put_i64(*self)
    }

    fn decode(r: &mut PageReader<'_>) -> Result<Self> {
        r.get_i64()
    }
}

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
        roundtrip(Interval::new(-10, 10, 7));
        roundtrip(123_456_789u64);
        roundtrip(-987_654_321i64);
    }

    /// A value of exactly `width` bytes (or fewer, one time in four).
    fn gen_signed(rng: &mut pc_rng::Rng, width: u8) -> i64 {
        let width = u64::from(width);
        let bytes = if rng.gen_bool(0.25) { rng.gen_range(1..=width) } else { width };
        let bits = 8 * bytes as u32;
        let magnitude = (rng.next_u64() >> 1) >> (64 - bits);
        if rng.gen_bool(0.5) { magnitude as i64 } else { !(magnitude as i64) }
    }

    #[test]
    fn frame_holds_exactly_what_round_trips_and_of_is_the_narrowest() {
        use pc_rng::check::{check, no_shrink, Config};
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
                // The extremes of every width, so `of` has to find them.
                let shift = widths.map(|w| 64 - 8 * w);
                let (x, y, id) = (i64::MIN >> shift[0], i64::MAX >> shift[1], u64::MAX >> shift[2]);
                points.push(Point::new(x, y, id));
                (widths, points)
            },
            no_shrink,
            |(widths, points)| {
                let frame = Frame::of(points);
                assert_eq!(frame.widths(), *widths, "of() is the generated frame");
                assert_eq!(Frame::from_widths(*widths).unwrap(), frame, "widths round-trip");
                let mut buf = [0u8; 24];
                for p in points {
                    assert!(frame.holds(p), "{frame} holds {p:?}");
                    let mut w = PageWriter::new(&mut buf);
                    p.pack(frame, &mut w).unwrap();
                    assert_eq!(w.position(), frame.record_len::<Point>(), "packed length");
                    let back = Point::unpack(frame, &mut PageReader::new(&buf)).unwrap();
                    assert_eq!(back, *p, "round trip");
                }
                // No narrower frame holds them all: each field has a witness.
                for field in 0..3 {
                    let mut narrower = *widths;
                    narrower[field] -= 1;
                    let Ok(narrower) = Frame::from_widths(narrower) else { continue };
                    assert!(points.iter().any(|p| !narrower.holds(p)), "{narrower} holds all");
                    assert_eq!(narrower.union(frame), frame, "union with a narrower frame");
                }
                Ok(())
            },
        );
    }

    #[test]
    fn frame_extremes_and_the_wide_form() {
        let extremes = [
            Point::new(i64::MIN, i64::MAX, u64::MAX),
            Point::new(-1, 0, 0),
            Point::new(127, -128, 255),
            Point::new(128, -129, 256),
        ];
        assert_eq!(extremes.map(|p| Frame::of(&[p]).widths()), [[8; 3], [1; 3], [1; 3], [2; 3]]);
        assert_eq!(Frame::of::<Point>(&[]), Frame::new(1, 1, 1));
        assert_eq!(Frame::WIDE.record_len::<Point>(), Point::ENCODED_LEN);
        assert_eq!(Frame::new(2, 5, 8).to_string(), "2/5/8");
        assert!(Frame::from_widths([0, 3, 3]).is_err() && Frame::from_widths([3, 9, 3]).is_err());
        // A record is its WIDE packing, byte for byte.
        let (mut a, mut b) = ([0u8; 24], [0u8; 24]);
        let iv = Interval::new(-7, 1 << 40, 99);
        Record::encode(&iv, &mut PageWriter::new(&mut a)).unwrap();
        iv.pack(Frame::WIDE, &mut PageWriter::new(&mut b)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn point_orders_break_ties_deterministically() {
        let a = Point::new(1, 2, 0);
        let b = Point::new(1, 2, 1);
        assert_eq!(a.cmp_xy(&b), std::cmp::Ordering::Less);
        assert_eq!(a.cmp_yx(&b), std::cmp::Ordering::Less);
        let c = Point::new(0, 9, 5);
        assert_eq!(c.cmp_xy(&a), std::cmp::Ordering::Less);
        assert_eq!(a.cmp_yx(&c), std::cmp::Ordering::Less);
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
