//! Public facades over the PST variants: static 2-sided, static 3-sided,
//! and fully dynamic 2-sided indexes.

use pc_pagestore::{PageStore, Point, Result};
use pc_pst::{
    BasicPst, DynamicPst, MultilevelPst, NaivePst, SegmentedPst, ThreeSided, ThreeSidedPst,
    TwoLevelPst, TwoSided,
};

/// Which of the paper's structures backs a [`PointIndex`] — the space/time
/// trade-off dial of §3–§4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// \[IKO\] baseline: `O(n/B)` space, `O(log n + t/B)` queries.
    Naive,
    /// Lemma 3.1: optimal queries, `O((n/B)·log n)` space.
    Basic,
    /// Theorem 3.2: optimal queries, `O((n/B)·log B)` space.
    Segmented,
    /// Theorem 4.3: optimal queries, `O((n/B)·log log B)` space.
    TwoLevel,
    /// Theorem 4.4 with the given level count (saturates at `log* B`).
    Multilevel(u32),
}

/// Which quadrant a 2-sided query's free sides open toward.
///
/// The engine answers north-east dominance queries (`x >= x0 && y >= y0`);
/// other orientations are handled by negating coordinates at build and
/// query time, which is a bijection preserving all bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Quadrant {
    /// `x >= x0 && y >= y0` (the paper's Figure 4 orientation).
    #[default]
    NorthEast,
    /// `x <= x0 && y >= y0` — the orientation of interval stabbing.
    NorthWest,
    /// `x >= x0 && y <= y0`.
    SouthEast,
    /// `x <= x0 && y <= y0`.
    SouthWest,
}

impl Quadrant {
    fn flip_x(self) -> bool {
        matches!(self, Quadrant::NorthWest | Quadrant::SouthWest)
    }

    fn flip_y(self) -> bool {
        matches!(self, Quadrant::SouthEast | Quadrant::SouthWest)
    }

    fn to_internal(self, p: Point) -> Point {
        Point {
            x: if self.flip_x() { -p.x } else { p.x },
            y: if self.flip_y() { -p.y } else { p.y },
            id: p.id,
        }
    }

    fn back_to_user(self, p: Point) -> Point {
        // The transform is an involution.
        self.to_internal(p)
    }
}

enum Backend {
    Naive(NaivePst),
    Basic(BasicPst),
    Segmented(SegmentedPst),
    TwoLevel(TwoLevelPst),
    Multilevel(MultilevelPst),
}

/// A static index answering 2-sided (dominance) queries with the I/O
/// bounds of the chosen [`Variant`].
pub struct PointIndex {
    backend: Backend,
    quadrant: Quadrant,
}

impl PointIndex {
    /// Builds an index over `points` opening toward [`Quadrant::NorthEast`].
    pub fn build(store: &PageStore, points: &[Point], variant: Variant) -> Result<Self> {
        Self::build_oriented(store, points, variant, Quadrant::NorthEast)
    }

    /// Builds an index whose queries open toward `quadrant`.
    pub fn build_oriented(
        store: &PageStore,
        points: &[Point],
        variant: Variant,
        quadrant: Quadrant,
    ) -> Result<Self> {
        let internal: Vec<Point> = points.iter().map(|&p| quadrant.to_internal(p)).collect();
        let backend = match variant {
            Variant::Naive => Backend::Naive(NaivePst::build(store, &internal)?),
            Variant::Basic => Backend::Basic(BasicPst::build(store, &internal)?),
            Variant::Segmented => Backend::Segmented(SegmentedPst::build(store, &internal)?),
            Variant::TwoLevel => Backend::TwoLevel(TwoLevelPst::build(store, &internal)?),
            Variant::Multilevel(k) => {
                Backend::Multilevel(MultilevelPst::build(store, &internal, k)?)
            }
        };
        Ok(PointIndex { backend, quadrant })
    }

    /// Number of indexed points.
    pub fn len(&self) -> u64 {
        match &self.backend {
            Backend::Naive(b) => b.len(),
            Backend::Basic(b) => b.len(),
            Backend::Segmented(b) => b.len(),
            Backend::TwoLevel(b) => b.len(),
            Backend::Multilevel(b) => b.len(),
        }
    }

    /// True when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reports all points dominating the corner in the index's quadrant.
    /// `q` is interpreted in *user* coordinates: e.g. for
    /// [`Quadrant::NorthWest`] the reported points satisfy
    /// `x <= q.x0 && y >= q.y0`.
    pub fn query(&self, store: &PageStore, q: TwoSided) -> Result<Vec<Point>> {
        let corner = self.quadrant.to_internal(Point::new(q.x0, q.y0, 0));
        let internal = TwoSided { x0: corner.x, y0: corner.y };
        let raw = match &self.backend {
            Backend::Naive(b) => b.query(store, internal)?,
            Backend::Basic(b) => b.query(store, internal)?,
            Backend::Segmented(b) => b.query(store, internal)?,
            Backend::TwoLevel(b) => b.query(store, internal)?,
            Backend::Multilevel(b) => b.query(store, internal)?,
        };
        Ok(raw.into_iter().map(|p| self.quadrant.back_to_user(p)).collect())
    }
}

/// A diagonal-corner query (Figure 1): a 2-sided query whose corner
/// `(q, q)` lies on the main diagonal — the special case that dynamic
/// interval management reduces to (\[KRV\]). Reported points satisfy
/// `x <= q && y >= q`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiagonalCorner {
    /// The diagonal coordinate of the corner.
    pub q: i64,
}

impl DiagonalCorner {
    /// True if `p` lies in the query region.
    pub fn contains(&self, p: &Point) -> bool {
        p.x <= self.q && p.y >= self.q
    }
}

impl PointIndex {
    /// Answers a diagonal-corner query. The index must have been built
    /// with [`Quadrant::NorthWest`] (the orientation whose free sides
    /// match Figure 1's diagonal-corner picture).
    ///
    /// # Panics
    ///
    /// Panics if the index was built for a different quadrant.
    pub fn query_diagonal(&self, store: &PageStore, q: DiagonalCorner) -> Result<Vec<Point>> {
        assert_eq!(
            self.quadrant,
            Quadrant::NorthWest,
            "diagonal-corner queries need a NorthWest-oriented index"
        );
        self.query(store, TwoSided { x0: q.q, y0: q.q })
    }
}

/// A static index answering 3-sided queries (`x1 <= x <= x2 && y >= y0`)
/// in optimal I/O (Theorem 3.3).
pub struct ThreeSidedIndex {
    inner: ThreeSidedPst,
}

impl ThreeSidedIndex {
    /// Builds the index over `points`.
    pub fn build(store: &PageStore, points: &[Point]) -> Result<Self> {
        Ok(ThreeSidedIndex { inner: ThreeSidedPst::build(store, points)? })
    }

    /// Number of indexed points.
    pub fn len(&self) -> u64 {
        self.inner.len()
    }

    /// True when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Reports all points in the 3-sided region.
    pub fn query(&self, store: &PageStore, q: ThreeSided) -> Result<Vec<Point>> {
        self.inner.query(store, q)
    }
}

/// A fully dynamic 2-sided index (Theorem 5.1): optimal queries,
/// `O(log_B n)` amortized updates.
pub struct DynamicPointIndex {
    inner: DynamicPst,
}

impl DynamicPointIndex {
    /// Builds the index over an initial point set (ids must stay unique
    /// among live points).
    pub fn build(store: &PageStore, points: &[Point]) -> Result<Self> {
        Ok(DynamicPointIndex { inner: DynamicPst::build(store, points)? })
    }

    /// Number of live points.
    pub fn len(&self) -> u64 {
        self.inner.len()
    }

    /// True when no points are live.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Inserts a point.
    pub fn insert(&mut self, store: &PageStore, p: Point) -> Result<()> {
        self.inner.insert(store, p)
    }

    /// Deletes a point by full `(x, y, id)` identity.
    pub fn delete(&mut self, store: &PageStore, p: Point) -> Result<()> {
        self.inner.delete(store, p)
    }

    /// Reports all points with `x >= q.x0 && y >= q.y0`.
    pub fn query(&self, store: &PageStore, q: TwoSided) -> Result<Vec<Point>> {
        self.inner.query(store, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64, bound: i64) -> i64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state % bound as u64) as i64
    }

    fn random_points(n: usize, domain: i64, seed: u64) -> Vec<Point> {
        let mut s = seed;
        (0..n)
            .map(|id| Point::new(xorshift(&mut s, domain), xorshift(&mut s, domain), id as u64))
            .collect()
    }

    fn ids(mut pts: Vec<Point>) -> Vec<u64> {
        let mut out: Vec<u64> = pts.drain(..).map(|p| p.id).collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn all_variants_agree() {
        let store = PageStore::in_memory(512);
        let pts = random_points(2000, 9000, 0xbeef);
        let variants = [
            Variant::Naive,
            Variant::Basic,
            Variant::Segmented,
            Variant::TwoLevel,
            Variant::Multilevel(3),
        ];
        let indexes: Vec<PointIndex> = variants
            .iter()
            .map(|&v| PointIndex::build(&store, &pts, v).unwrap())
            .collect();
        let mut s = 0x11u64;
        for _ in 0..40 {
            let q = TwoSided { x0: xorshift(&mut s, 9000), y0: xorshift(&mut s, 9000) };
            let want: Vec<u64> = {
                let mut v: Vec<u64> =
                    pts.iter().filter(|p| q.contains(p)).map(|p| p.id).collect();
                v.sort_unstable();
                v
            };
            for (i, idx) in indexes.iter().enumerate() {
                assert_eq!(ids(idx.query(&store, q).unwrap()), want, "variant {i} {q:?}");
            }
        }
    }

    #[test]
    fn quadrants_orient_correctly() {
        let store = PageStore::in_memory(512);
        let pts = random_points(1500, 5000, 0xfeed);
        let mut s = 0x22u64;
        for quadrant in
            [Quadrant::NorthEast, Quadrant::NorthWest, Quadrant::SouthEast, Quadrant::SouthWest]
        {
            let idx =
                PointIndex::build_oriented(&store, &pts, Variant::Segmented, quadrant).unwrap();
            for _ in 0..20 {
                let q = TwoSided { x0: xorshift(&mut s, 5000), y0: xorshift(&mut s, 5000) };
                let got = ids(idx.query(&store, q).unwrap());
                let mut want: Vec<u64> = pts
                    .iter()
                    .filter(|p| {
                        let xok = if quadrant.flip_x() { p.x <= q.x0 } else { p.x >= q.x0 };
                        let yok = if quadrant.flip_y() { p.y <= q.y0 } else { p.y >= q.y0 };
                        xok && yok
                    })
                    .map(|p| p.id)
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "{quadrant:?} {q:?}");
            }
        }
    }

    #[test]
    fn three_sided_index_roundtrip() {
        let store = PageStore::in_memory(512);
        let pts = random_points(1500, 5000, 0xaaaa);
        let idx = ThreeSidedIndex::build(&store, &pts).unwrap();
        let mut s = 0x33u64;
        for _ in 0..30 {
            let a = xorshift(&mut s, 5000);
            let q = ThreeSided { x1: a, x2: a + xorshift(&mut s, 2000), y0: xorshift(&mut s, 5000) };
            let got = ids(idx.query(&store, q).unwrap());
            let mut want: Vec<u64> =
                pts.iter().filter(|p| q.contains(p)).map(|p| p.id).collect();
            want.sort_unstable();
            assert_eq!(got, want, "{q:?}");
        }
    }

    #[test]
    fn dynamic_index_roundtrip() {
        let store = PageStore::in_memory(512);
        let mut idx = DynamicPointIndex::build(&store, &[]).unwrap();
        assert!(idx.is_empty());
        for i in 0..500u64 {
            idx.insert(&store, Point::new(i as i64, (i * 7 % 500) as i64, i)).unwrap();
        }
        assert_eq!(idx.len(), 500);
        let hits = idx.query(&store, TwoSided { x0: 250, y0: 0 }).unwrap();
        assert_eq!(hits.len(), 250);
        for i in 0..250u64 {
            idx.delete(&store, Point::new(i as i64, (i * 7 % 500) as i64, i)).unwrap();
        }
        assert_eq!(idx.len(), 250);
        let hits = idx.query(&store, TwoSided { x0: 0, y0: 0 }).unwrap();
        assert_eq!(hits.len(), 250);
        assert!(hits.iter().all(|p| p.x >= 250));
    }
}
