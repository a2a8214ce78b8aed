//! In-memory heap-of-regions decomposition and key orders.
//!
//! Every external PST variant starts from this structure: a binary tree in
//! which each node owns the top points of its x-range by `y`-order — as
//! many as its [`NodeFill`] holds — with the remainder split at the median
//! `x`.

use std::cmp::Ordering;

use pc_pagestore::layout::fill_blocks;
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

/// The most points a node holds, whatever its fill: record counts are
/// `u16`s with a flag bit, and a dynamic region may grow to twice its size.
pub const MAX_NODE_POINTS: usize = (1 << 14) - 1;

/// What a node holds: its top points by `y` while they fill `blocks` blocks
/// of `budget` bytes — one for a node of points, `m` for a 3-sided node's
/// Y-list — and, with `inner`, while they decompose into at most `blocks`
/// nodes of one `inner`-byte block: a region's inner tree is complete, not
/// split into leaves of a few points that each cost full-path caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeFill {
    pub blocks: usize,
    pub budget: usize,
    pub inner: Option<usize>,
}

impl NodeFill {
    /// How many of `points`, in descending y order, the node holds.
    pub fn take(&self, points: &[Point]) -> usize {
        let mut k = fill_blocks(points, self.blocks, self.budget).min(MAX_NODE_POINTS);
        let Some(budget) = self.inner else { return k };
        let one = NodeFill { blocks: 1, budget, inner: None };
        // A complete tree of `blocks` nodes is this deep. What lies below
        // it is the overflow of one bottom node or a few; the lowest points
        // are spread over all of them, so shed that many from each.
        let depth = (self.blocks + 1).ilog2() as usize;
        loop {
            let below = MemPst::build(&points[..k], one).points_below(depth);
            if below == 0 {
                return k;
            }
            k = k.saturating_sub(below << (depth - 1));
        }
    }
}

/// One region of the decomposition.
#[derive(Debug)]
pub struct MemPstNode {
    /// The node's points, sorted descending by y-key: all of its subtree's
    /// at a leaf, as many as the fill holds at a node with children.
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
    /// What each node holds.
    pub fill: NodeFill,
}

impl MemPst {
    /// Builds the decomposition with nodes of `fill`: one block for the
    /// basic scheme, `m` blocks (`m·B` points) for a level of regions.
    pub fn build(points: &[Point], fill: NodeFill) -> MemPst {
        let mut by_x = points.to_vec();
        by_x.sort_unstable_by(cmp_x);
        let mut by_y = points.to_vec();
        by_y.sort_unstable_by(|a, b| cmp_y(b, a));
        let mut pst = MemPst { nodes: Vec::new(), fill };
        pst.build_subtree(by_x, by_y);
        pst
    }

    /// The children of node `ni`, left then right; `None` at a leaf.
    pub fn children(&self, ni: usize) -> Option<[usize; 2]> {
        let node = &self.nodes[ni];
        (!node.is_leaf()).then_some([node.left, node.right])
    }

    /// Recursively builds the subtree over one set of points, given in
    /// x-key order and in descending y-key order, returning its arena
    /// index. Each node splits both orders in one pass, so a build sorts
    /// twice in all.
    fn build_subtree(&mut self, by_x: Vec<Point>, mut by_y: Vec<Point>) -> usize {
        let idx = self.nodes.len();
        self.nodes.push(MemPstNode {
            points: Vec::new(),
            split: Point::new(0, 0, 0),
            left: NONE,
            right: NONE,
            subtree_size: by_x.len() as u64,
        });
        // The top points by y-key, as many as the fill holds.
        let cap = self.fill.take(&by_y);
        if cap == by_y.len() {
            by_y.shrink_to_fit();
            self.nodes[idx].points = by_y;
            return idx;
        }
        let rest_y = by_y.split_off(cap);
        let mut top = by_y;
        // The head keeps the whole subtree's capacity until it is shrunk.
        top.shrink_to_fit();
        // The rest in x order: all but the top, of which the lowest may
        // have twins (equal points) left below.
        let lowest = top[cap - 1];
        let mut twins = top.iter().rev().take_while(|p| **p == lowest).count();
        let mut rest_x = by_x;
        rest_x.retain(|p| match cmp_y(p, &lowest) {
            Ordering::Equal if twins > 0 => {
                twins -= 1;
                false
            }
            order => order != Ordering::Greater,
        });
        // At least one point per side where possible; a remainder of one
        // point yields an empty right leaf, which queries handle.
        let mid = (rest_x.len() / 2).max(1);
        let split = rest_x[mid - 1];
        let mut left_x = rest_x;
        let right_x = left_x.split_off(mid);
        // A point equal to `split` is left as often as `left_x` holds one.
        let mut twins_left = left_x.iter().rev().take_while(|p| **p == split).count();
        let (left_y, right_y): (Vec<Point>, Vec<Point>) =
            rest_y.into_iter().partition(|p| match cmp_x(p, &split) {
                Ordering::Less => true,
                Ordering::Equal if twins_left > 0 => {
                    twins_left -= 1;
                    true
                }
                _ => false,
            });
        self.nodes[idx].points = top;
        self.nodes[idx].split = split;
        let left = self.build_subtree(left_x, left_y);
        let right = self.build_subtree(right_x, right_y);
        self.nodes[idx].left = left;
        self.nodes[idx].right = right;
        idx
    }

    /// The points of the nodes `depth` or more levels below the root.
    fn points_below(&self, depth: usize) -> usize {
        let mut stack = vec![(0, 0)];
        let mut below = 0;
        while let Some((ni, d)) = stack.pop() {
            if d >= depth {
                below += self.nodes[ni].points.len();
            }
            stack.extend(self.children(ni).into_iter().flatten().map(|c| (c, d + 1)));
        }
        below
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{canonical, uniform_points};
    use pc_rng::Rng;

    impl MemPst {
        /// In-memory oracle for 2-sided queries.
        fn query_oracle(&self, q: TwoSided) -> Vec<Point> {
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

    /// One block of 128 bytes: 16–20 of these small points a node.
    const SMALL: NodeFill = NodeFill { blocks: 1, budget: 128, inner: None };

    #[test]
    fn heap_property_holds() {
        let pts = uniform_points(&mut Rng::seed_from_u64(1), 1000, 500);
        let pst = MemPst::build(&pts, SMALL);
        // Every child point must be y-below its parent's minimum.
        for (i, node) in pst.nodes.iter().enumerate() {
            if node.is_leaf() {
                continue;
            }
            // Full: one more of its subtree's points would not fit.
            let mut below: Vec<Point> = [node.left, node.right]
                .iter()
                .flat_map(|&c| pst.nodes[c].points.iter().copied())
                .collect();
            below.sort_unstable_by(|a, b| cmp_y(b, a));
            let with_next: Vec<Point> = node.points.iter().chain(&below[..1]).copied().collect();
            assert_eq!(SMALL.take(&with_next), node.points.len(), "internal node {i} is full");
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
        let pst = MemPst::build(&pts, SMALL);
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
        let pst = MemPst::build(&pts, SMALL);
        for node in &pst.nodes {
            for w in node.points.windows(2) {
                assert_eq!(cmp_y(&w[0], &w[1]), Ordering::Greater);
            }
        }
    }

    #[test]
    fn all_points_stored_exactly_once() {
        let pts = uniform_points(&mut Rng::seed_from_u64(4), 777, 400);
        let pst = MemPst::build(&pts, SMALL);
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
        let pst = MemPst::build(&pts, SMALL);
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
        let pst = MemPst::build(&pts, SMALL);
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
