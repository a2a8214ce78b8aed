//! Point-set generators.

use pc_rng::Rng;

use crate::{RawPoint, DOMAIN};

/// Spatial distribution of a generated point set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PointDist {
    /// Independent uniform x and y over the domain.
    Uniform,
    /// `clusters` Gaussian-ish blobs of the given radius; models the
    /// correlated attributes common in real relations.
    Clustered {
        /// Number of cluster centers.
        clusters: usize,
        /// Approximate blob radius.
        radius: i64,
    },
    /// Points near the main diagonal (`y ≈ x`), within `width`. This is the
    /// distribution induced by the \[KRV\] interval reduction when intervals
    /// are short: `(lo, hi)` with `hi - lo` small.
    Diagonal {
        /// Maximum distance from the diagonal.
        width: i64,
    },
    /// Anti-correlated: `y ≈ DOMAIN - x` within `width`. Adversarial for
    /// dominance queries — output size varies wildly with the corner.
    AntiDiagonal {
        /// Maximum distance from the anti-diagonal.
        width: i64,
    },
}

/// Generates `n` points with ids `0..n`, deterministically from `seed`.
pub fn gen_points(n: usize, dist: PointDist, seed: u64) -> Vec<RawPoint> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    let centers: Vec<(i64, i64)> = match dist {
        PointDist::Clustered { clusters, .. } => (0..clusters.max(1))
            .map(|_| (rng.gen_range(0..=DOMAIN), rng.gen_range(0..=DOMAIN)))
            .collect(),
        _ => Vec::new(),
    };
    for id in 0..n {
        let (x, y) = match dist {
            PointDist::Uniform => (rng.gen_range(0..=DOMAIN), rng.gen_range(0..=DOMAIN)),
            PointDist::Clustered { radius, .. } => {
                let (cx, cy) = centers[rng.gen_range(0..centers.len())];
                // Sum of two uniforms approximates a triangular (bell-ish)
                // spread without needing a normal sampler.
                let dx = (rng.gen_range(-radius..=radius) + rng.gen_range(-radius..=radius)) / 2;
                let dy = (rng.gen_range(-radius..=radius) + rng.gen_range(-radius..=radius)) / 2;
                ((cx + dx).clamp(0, DOMAIN), (cy + dy).clamp(0, DOMAIN))
            }
            PointDist::Diagonal { width } => {
                let x = rng.gen_range(0..=DOMAIN);
                let y = (x + rng.gen_range(-width..=width)).clamp(0, DOMAIN);
                (x, y)
            }
            PointDist::AntiDiagonal { width } => {
                let x = rng.gen_range(0..=DOMAIN);
                let y = (DOMAIN - x + rng.gen_range(-width..=width)).clamp(0, DOMAIN);
                (x, y)
            }
        };
        out.push((x, y, id as u64));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let a = gen_points(100, PointDist::Uniform, 7);
        let b = gen_points(100, PointDist::Uniform, 7);
        let c = gen_points(100, PointDist::Uniform, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ids_are_sequential_and_coords_in_domain() {
        for dist in [
            PointDist::Uniform,
            PointDist::Clustered { clusters: 5, radius: 1000 },
            PointDist::Diagonal { width: 50 },
            PointDist::AntiDiagonal { width: 50 },
        ] {
            let pts = gen_points(500, dist, 1);
            assert_eq!(pts.len(), 500);
            for (i, &(x, y, id)) in pts.iter().enumerate() {
                assert_eq!(id, i as u64);
                assert!((0..=DOMAIN).contains(&x), "{dist:?}");
                assert!((0..=DOMAIN).contains(&y), "{dist:?}");
            }
        }
    }

    #[test]
    fn diagonal_points_hug_the_diagonal() {
        let pts = gen_points(1000, PointDist::Diagonal { width: 10 }, 3);
        assert!(pts.iter().all(|&(x, y, _)| (y - x).abs() <= 10 || y == 0 || y == DOMAIN));
    }

    #[test]
    fn antidiagonal_points_hug_the_antidiagonal() {
        let pts = gen_points(1000, PointDist::AntiDiagonal { width: 10 }, 3);
        assert!(pts
            .iter()
            .all(|&(x, y, _)| (x + y - DOMAIN).abs() <= 10 || y == 0 || y == DOMAIN));
    }

    #[test]
    fn clustered_points_concentrate() {
        // With 3 tight clusters, the bounding box of a random sample of
        // points should be far smaller than the domain in most dimensions.
        let pts = gen_points(2000, PointDist::Clustered { clusters: 3, radius: 500 }, 11);
        // Each point should be within 1000 of some cluster center; verify
        // indirectly: count distinct "rounded" cells — must be tiny.
        let mut cells: Vec<(i64, i64)> = pts.iter().map(|&(x, y, _)| (x / 2000, y / 2000)).collect();
        cells.sort_unstable();
        cells.dedup();
        assert!(cells.len() < 40, "clustered points spread over {} cells", cells.len());
    }
}
