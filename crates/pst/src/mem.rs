//! In-memory heap-of-regions decomposition and key orders.
//!
//! Every external PST variant starts from this structure: a binary tree in
//! which each node owns the top `cap` points of its x-range by `y`-order,
//! with the remainder split at the median `x`.

use std::cmp::Ordering;

use pc_pagestore::Point;

/// Strict x-order key comparison: `(x, y, id)` lexicographic.
pub fn cmp_x(a: &Point, b: &Point) -> Ordering {
    (a.x, a.y, a.id).cmp(&(b.x, b.y, b.id))
}

/// Strict y-order key comparison: `(y, x, id)` lexicographic.
pub fn cmp_y(a: &Point, b: &Point) -> Ordering {
    (a.y, a.x, a.id).cmp(&(b.y, b.x, b.id))
}

/// A 2-sided dominance query: report points with `x >= x0 && y >= y0`
/// (Figure 1, in the orientation of the §3 algorithm).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoSided {
    /// Left boundary (inclusive).
    pub x0: i64,
    /// Bottom boundary (inclusive).
    pub y0: i64,
}

impl TwoSided {
    /// True if `p` lies in the query region.
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.x0 && p.y >= self.y0
    }
}

/// Sentinel child index.
pub const NONE: usize = usize::MAX;

/// One region of the decomposition.
#[derive(Debug)]
pub struct MemPstNode {
    /// The node's points, sorted descending by y-key. At most `cap`; nodes
    /// with children hold exactly `cap`.
    pub points: Vec<Point>,
    /// Maximum x-key point of the left subtree's x-range (routing key);
    /// meaningless for leaves.
    pub split: Point,
    /// Left child (x-keys `<= split`), or [`NONE`].
    pub left: usize,
    /// Right child, or [`NONE`].
    pub right: usize,
    /// Total points in this subtree (for rebalancing bookkeeping).
    pub subtree_size: u64,
}

impl MemPstNode {
    /// True if the node has no children.
    pub fn is_leaf(&self) -> bool {
        self.left == NONE
    }
}

/// Arena-allocated in-memory PST.
pub struct MemPst {
    /// Node arena; index 0 is the root.
    pub nodes: Vec<MemPstNode>,
    /// Region capacity used for the decomposition.
    pub cap: usize,
}

impl MemPst {
    /// Builds the decomposition with regions of `cap` points.
    ///
    /// `cap` is the paper's `B` for the basic scheme and `B log B` for the
    /// top level of the two-level scheme.
    pub fn build(points: &[Point], cap: usize) -> MemPst {
        assert!(cap >= 1);
        let mut sorted_x = points.to_vec();
        sorted_x.sort_unstable_by(cmp_x);
        let mut pst = MemPst { nodes: Vec::new(), cap };
        pst.build_subtree(sorted_x);
        pst
    }

    /// The children of node `ni`, left then right; `None` at a leaf.
    pub fn children(&self, ni: usize) -> Option<[usize; 2]> {
        let node = &self.nodes[ni];
        (!node.is_leaf()).then_some([node.left, node.right])
    }

    /// Recursively builds the subtree over `pts` (sorted by x-key),
    /// returning its arena index.
    fn build_subtree(&mut self, mut pts: Vec<Point>) -> usize {
        let idx = self.nodes.len();
        let subtree_size = pts.len() as u64;
        self.nodes.push(MemPstNode {
            points: Vec::new(),
            split: Point::new(0, 0, 0),
            left: NONE,
            right: NONE,
            subtree_size,
        });
        if pts.len() <= self.cap {
            pts.sort_unstable_by(|a, b| cmp_y(b, a));
            self.nodes[idx].points = pts;
            return idx;
        }
        // Select the top `cap` points by y-key.
        let mut order: Vec<usize> = (0..pts.len()).collect();
        order.sort_unstable_by(|&a, &b| cmp_y(&pts[b], &pts[a]));
        let mut chosen = vec![false; pts.len()];
        for &i in order.iter().take(self.cap) {
            chosen[i] = true;
        }
        let mut top: Vec<Point> = order[..self.cap].iter().map(|&i| pts[i]).collect();
        // `top` is already sorted descending by y-key.
        let rest: Vec<Point> =
            pts.drain(..).enumerate().filter(|(i, _)| !chosen[*i]).map(|(_, p)| p).collect();
        // `rest` stays sorted by x-key (drain preserves order).
        // At least one point per side where possible; a remainder of one
        // point yields an empty right leaf, which queries handle.
        let mid = (rest.len() / 2).max(1);
        let split = rest[mid - 1];
        let left_pts = rest[..mid].to_vec();
        let right_pts = rest[mid..].to_vec();
        top.shrink_to_fit();
        self.nodes[idx].points = top;
        self.nodes[idx].split = split;
        let left = self.build_subtree(left_pts);
        let right = self.build_subtree(right_pts);
        self.nodes[idx].left = left;
        self.nodes[idx].right = right;
        idx
    }

    /// In-memory oracle for 2-sided queries (used by tests).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn query_oracle(&self, q: TwoSided) -> Vec<Point> {
        let mut out = Vec::new();
        let mut stack = vec![0usize];
        while let Some(idx) = stack.pop() {
            let node = &self.nodes[idx];
            if node.subtree_size == 0 {
                continue;
            }
            out.extend(node.points.iter().filter(|p| q.contains(p)).copied());
            if !node.is_leaf() {
                // Children's points are strictly y-below this node's lowest
                // point, so they can only qualify if that lowest point is
                // itself at or above y0.
                let min = node.points.last().expect("internal nodes are full");
                if min.y >= q.y0 {
                    // Left subtree holds x-keys <= split: prune when even
                    // the split is left of the query.
                    if cmp_x(&node.split, &Point::new(q.x0, i64::MIN, u64::MIN))
                        != Ordering::Less
                    {
                        stack.push(node.left);
                    }
                    stack.push(node.right);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{canonical, uniform_points};
    use pc_rng::Rng;

    #[test]
    fn heap_property_holds() {
        let pts = uniform_points(&mut Rng::seed_from_u64(1), 1000, 500);
        let pst = MemPst::build(&pts, 16);
        // Every child point must be y-below its parent's minimum.
        for (i, node) in pst.nodes.iter().enumerate() {
            if node.is_leaf() {
                continue;
            }
            assert_eq!(node.points.len(), 16, "internal node {i} must be full");
            let min = node.points.last().unwrap();
            for &c in &[node.left, node.right] {
                for p in &pst.nodes[c].points {
                    assert_eq!(cmp_y(p, min), Ordering::Less, "heap violated at {i}");
                }
            }
        }
    }

    #[test]
    fn x_division_is_clean() {
        let pts = uniform_points(&mut Rng::seed_from_u64(2), 1000, 500);
        let pst = MemPst::build(&pts, 16);
        for node in &pst.nodes {
            if node.is_leaf() {
                continue;
            }
            for p in &pst.nodes[node.left].points {
                assert_ne!(cmp_x(p, &node.split), Ordering::Greater);
            }
            for p in &pst.nodes[node.right].points {
                assert_eq!(cmp_x(p, &node.split), Ordering::Greater);
            }
        }
    }

    #[test]
    fn node_points_sorted_descending_y() {
        let pts = uniform_points(&mut Rng::seed_from_u64(3), 500, 300);
        let pst = MemPst::build(&pts, 8);
        for node in &pst.nodes {
            for w in node.points.windows(2) {
                assert_eq!(cmp_y(&w[0], &w[1]), Ordering::Greater);
            }
        }
    }

    #[test]
    fn all_points_stored_exactly_once() {
        let pts = uniform_points(&mut Rng::seed_from_u64(4), 777, 400);
        let pst = MemPst::build(&pts, 10);
        let mut ids: Vec<u64> =
            pst.nodes.iter().flat_map(|n| n.points.iter().map(|p| p.id)).collect();
        ids.sort_unstable();
        let want: Vec<u64> = (0..777).collect();
        assert_eq!(ids, want);
    }

    #[test]
    fn oracle_matches_brute_force() {
        let mut rng = Rng::seed_from_u64(5);
        let pts = uniform_points(&mut rng, 800, 300);
        let pst = MemPst::build(&pts, 8);
        for _ in 0..100 {
            let q = TwoSided { x0: rng.gen_range(-20..330i64), y0: rng.gen_range(-20..330i64) };
            let want = canonical(pts.iter().copied().filter(|p| q.contains(p)).collect());
            assert_eq!(canonical(pst.query_oracle(q)), want, "{q:?}");
        }
    }

    #[test]
    fn duplicate_coordinates_are_exact() {
        // Many points sharing the same x and y exercise the strict-order
        // tie-breaking.
        let pts: Vec<Point> = (0..200).map(|i| Point::new(5, 7, i)).collect();
        let pst = MemPst::build(&pts, 4);
        for (q, want) in [
            (TwoSided { x0: 5, y0: 7 }, 200),
            (TwoSided { x0: 6, y0: 7 }, 0),
            (TwoSided { x0: 5, y0: 8 }, 0),
            (TwoSided { x0: 0, y0: 0 }, 200),
        ] {
            assert_eq!(pst.query_oracle(q).len(), want, "{q:?}");
        }
    }
}
