//! The multilevel scheme of §4.2 (Theorem 4.4).
//!
//! Instead of placing a basic PST inside each `Θ(B log B)`-point region,
//! the multilevel scheme nests another region tree with regions of
//! `Θ(B log log B)` points, and so on — after `k` levels the space overhead
//! is `O((n/B)·log^(k) B)`, converging to `O((n/B)·log* B)` with query
//! time `O(log_B n + t/B + log* B)` (each level adds `O(1)` I/Os).
//!
//! This is a thin wrapper over the shared region-tree engine in
//! [`crate::two_level`], parameterized by the iterated-log sequence of
//! [`crate::two_level::region_blocks`] (regions of 7 blocks, then of 3, at
//! 4 KiB; of 3 alone at 512 bytes).
//! The recursion
//! saturates naturally once the iterated log reaches 1, so asking for more
//! levels than `log* B` is safe.

use pc_pagestore::{PageStore, Point, Result};

use crate::mem::TwoSided;
use crate::query::QueryCounters;
use crate::two_level::{build_region_tree, region_blocks};

static_pst!(
    /// The multilevel recursive PST (Theorem 4.4), `levels` deep.
    ///
    /// `levels = 1` is the basic PST (Lemma 3.1), `levels = 2` the
    /// two-level scheme (Theorem 4.3); higher values iterate §4.2. Values
    /// past `log* B` saturate.
    MultilevelPst(levels: u32),
    |store, points| {
        assert!(levels >= 1, "at least one level required");
        build_region_tree(store, points, &region_blocks(store.page_size(), levels))
    }
);

impl MultilevelPst {
    /// The level count requested at build time.
    pub fn levels(&self) -> u32 {
        self.levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{canonical, uniform_points};
    use pc_rng::Rng;

    #[test]
    fn level_counts_saturate_at_log_star() {
        let pts = uniform_points(&mut Rng::seed_from_u64(0x1212), 3000, 10_000);
        // Levels beyond log* B produce the same capacity sequence, hence
        // the same structure sizes.
        let store_a = PageStore::in_memory(512);
        MultilevelPst::build(&store_a, &pts, 4).unwrap();
        let store_b = PageStore::in_memory(512);
        MultilevelPst::build(&store_b, &pts, 12).unwrap();
        assert_eq!(store_a.live_pages(), store_b.live_pages());
    }

    #[test]
    fn duplicates_and_boundaries() {
        let pts: Vec<Point> =
            (0..800).map(|i| Point::new((i % 4) as i64 * 3, (i % 6) as i64 * 3, i)).collect();
        let store = PageStore::in_memory(512);
        let pst = MultilevelPst::build(&store, &pts, 3).unwrap();
        for x0 in [-1, 0, 3, 9, 10] {
            for y0 in [-1, 0, 6, 15, 16] {
                let q = TwoSided { x0, y0 };
                let want = canonical(pts.iter().copied().filter(|p| q.contains(p)).collect());
                assert_eq!(canonical(pst.query(&store, q).unwrap()), want, "{q:?}");
            }
        }
    }
}
