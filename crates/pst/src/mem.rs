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
    /// How many of `points`, in descending y order, the node holds and,
    /// with `inner`, the decomposition of those into nodes of one
    /// `inner`-byte block: the inner tree a region is built over.
    pub fn take(&self, points: &[Point]) -> (usize, Option<MemPst>) {
        let mut k = fill_blocks(points, self.blocks, self.budget).min(MAX_NODE_POINTS);
        let Some(budget) = self.inner else { return (k, None) };
        let one = NodeFill { blocks: 1, budget, inner: None };
        // A complete tree of `blocks` nodes is this deep. What lies below
        // it is the overflow of one bottom node or a few; the lowest points
        // are spread over all of them, so shed that many from each.
        let depth = (self.blocks + 1).ilog2() as usize;
        loop {
            let inner = MemPst::from_y_order(points[..k].to_vec(), one);
            let below = inner.points_below(depth);
            if below == 0 {
                return (k, Some(inner));
            }
            k = k.saturating_sub(below << (depth - 1));
        }
    }
}

/// One region of the decomposition.
#[derive(Debug)]
pub struct MemPstNode {
    /// Where the node's subtree starts in the arena's points: its own
    /// points, then its left subtree's, then its right subtree's.
    start: usize,
    /// How many points the node holds: all of its subtree's at a leaf, as
    /// many as the fill holds at a node with children.
    own: usize,
    /// Maximum x-key point of the left subtree's x-range (routing key);
    /// meaningless for leaves.
    pub split: Point,
    /// Left child (x-keys `<= split`), or [`NONE`].
    pub left: usize,
    /// Right child, or [`NONE`].
    pub right: usize,
    /// Total points in this subtree (for rebalancing bookkeeping).
    pub subtree_size: u64,
    /// With a fill's `inner`, the node's points in nodes of one `inner`
    /// block: the decomposition the fill took them by, kept for the
    /// region's inner tree.
    pub inner: Option<MemPst>,
}

impl MemPstNode {
    /// True if the node has no children.
    pub fn is_leaf(&self) -> bool {
        self.left == NONE
    }
}

/// Arena-allocated in-memory PST.
#[derive(Debug)]
pub struct MemPst {
    /// Node arena; index 0 is the root.
    pub nodes: Vec<MemPstNode>,
    /// Every node's points, a subtree's together in preorder.
    points: Vec<Point>,
    /// What each node holds.
    pub fill: NodeFill,
}

impl MemPst {
    /// Builds the decomposition with nodes of `fill`: one block for the
    /// basic scheme, `m` blocks (`m·B` points) for a level of regions.
    pub fn build(points: &[Point], fill: NodeFill) -> MemPst {
        let mut by_y = points.to_vec();
        by_y.sort_unstable_by(|a, b| cmp_y(b, a));
        MemPst::from_y_order(by_y, fill)
    }

    /// Builds the decomposition of `points`, given in descending y-key
    /// order, in place: the sort is the only one a build makes, and its
    /// working memory is the points and a copy of the root's remainder.
    fn from_y_order(points: Vec<Point>, fill: NodeFill) -> MemPst {
        let mut pst = MemPst { nodes: Vec::new(), points, fill };
        pst.build_subtree(0, pst.points.len());
        pst
    }

    /// The points node `ni` holds, sorted descending by y-key.
    pub fn points(&self, ni: usize) -> &[Point] {
        let node = &self.nodes[ni];
        &self.points[node.start..node.start + node.own]
    }

    /// The children of node `ni`, left then right; `None` at a leaf.
    pub fn children(&self, ni: usize) -> Option<[usize; 2]> {
        let node = &self.nodes[ni];
        (!node.is_leaf()).then_some([node.left, node.right])
    }

    /// Builds the subtree over `points[start..end]`, in descending y-key
    /// order, returning its arena index: the node keeps the top points, as
    /// many as the fill holds, where they are, and the rest is split in
    /// place into its children's ranges, each still in y order.
    fn build_subtree(&mut self, start: usize, end: usize) -> usize {
        let idx = self.nodes.len();
        let (own, inner) = self.fill.take(&self.points[start..end]);
        self.nodes.push(MemPstNode {
            start,
            own,
            split: Point::new(0, 0, 0),
            left: NONE,
            right: NONE,
            subtree_size: (end - start) as u64,
            inner,
        });
        let rest = start + own;
        if rest == end {
            return idx;
        }
        let (split, mid) = split_at_median(&mut self.points[rest..end]);
        self.nodes[idx].split = split;
        let left = self.build_subtree(rest, rest + mid);
        let right = self.build_subtree(rest + mid, end);
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
                below += self.nodes[ni].own;
            }
            stack.extend(self.children(ni).into_iter().flatten().map(|c| (c, d + 1)));
        }
        below
    }
}

/// Splits `rest`, in descending y-key order, at its median x-key: the
/// first `mid` of its points in x-key order go left, at least one where
/// possible (a remainder of one point yields an empty right leaf, which
/// queries handle). Reorders `rest`, stably, into the left points then the
/// right ones, and returns the split — the left's largest x-key — and
/// `mid`.
fn split_at_median(rest: &mut [Point]) -> (Point, usize) {
    let mid = (rest.len() / 2).max(1);
    let mut scratch = rest.to_vec();
    let (below, &mut split, _) = scratch.select_nth_unstable_by(mid - 1, cmp_x);
    // A point equal to `split` goes left as often as the first `mid` hold
    // one: those `mid` are the points below it and as many of its twins.
    let mut twins_left = mid - below.iter().filter(|p| cmp_x(p, &split).is_lt()).count();
    scratch.clear();
    let mut left = 0;
    for i in 0..rest.len() {
        let p = rest[i];
        let goes_left = match cmp_x(&p, &split) {
            Ordering::Less => true,
            Ordering::Equal if twins_left > 0 => {
                twins_left -= 1;
                true
            }
            _ => false,
        };
        if goes_left {
            rest[left] = p;
            left += 1;
        } else {
            scratch.push(p);
        }
    }
    rest[left..].copy_from_slice(&scratch);
    (split, mid)
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
                let points = self.points(idx);
                out.extend(points.iter().filter(|p| q.contains(p)).copied());
                if !node.is_leaf() {
                    // Children's points are strictly y-below this node's lowest
                    // point, so they can only qualify if that lowest point is
                    // itself at or above y0.
                    let min = points.last().expect("internal nodes are full");
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
                .flat_map(|&c| pst.points(c).iter().copied())
                .collect();
            below.sort_unstable_by(|a, b| cmp_y(b, a));
            let own = pst.points(i);
            let with_next: Vec<Point> = own.iter().chain(&below[..1]).copied().collect();
            assert_eq!(SMALL.take(&with_next).0, own.len(), "internal node {i} is full");
            let min = pst.points(i).last().unwrap();
            for &c in &[node.left, node.right] {
                for p in pst.points(c) {
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
            for p in pst.points(node.left) {
                assert_ne!(cmp_x(p, &node.split), Ordering::Greater);
            }
            for p in pst.points(node.right) {
                assert_eq!(cmp_x(p, &node.split), Ordering::Greater);
            }
        }
    }

    #[test]
    fn node_points_sorted_descending_y() {
        let pts = uniform_points(&mut Rng::seed_from_u64(3), 500, 300);
        let pst = MemPst::build(&pts, SMALL);
        for ni in 0..pst.nodes.len() {
            for w in pst.points(ni).windows(2) {
                assert_eq!(cmp_y(&w[0], &w[1]), Ordering::Greater);
            }
        }
    }

    #[test]
    fn all_points_stored_exactly_once() {
        let pts = uniform_points(&mut Rng::seed_from_u64(4), 777, 400);
        let pst = MemPst::build(&pts, SMALL);
        let mut ids: Vec<u64> =
            (0..pst.nodes.len()).flat_map(|ni| pst.points(ni).iter().map(|p| p.id)).collect();
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

    /// Duplicate-heavy point sets: `10·n` copies of one point, more than a
    /// node holds; 40-fold x-ties with 8 copies of each point; one y for
    /// all, 10 copies of each point.
    fn duplicate_heavy(n: u64) -> [Vec<Point>; 3] {
        [
            (0..10 * n).map(|_| Point::new(5, 7, 1)).collect(),
            (0..n).map(|i| Point::new((i / 40) as i64, (i * 7919 % 5) as i64, 0)).collect(),
            (0..n).map(|i| Point::new((i * 31 % 50) as i64, 3, i % 4)).collect(),
        ]
    }

    /// FNV-1a over every node's points, split, children and subtree size,
    /// in arena order.
    fn fingerprint(pst: &MemPst) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut put = |v: u64| h = (h ^ v).wrapping_mul(0x100_0000_01B3);
        let put_point = |p: &Point, put: &mut dyn FnMut(u64)| {
            put(p.x as u64);
            put(p.y as u64);
            put(p.id);
        };
        for (ni, node) in pst.nodes.iter().enumerate() {
            let points = pst.points(ni);
            put(points.len() as u64);
            for p in points {
                put_point(p, &mut put);
            }
            put_point(&node.split, &mut put);
            put(node.left as u64);
            put(node.right as u64);
            put(node.subtree_size);
        }
        h
    }

    /// Twins across the two rules: a node whose lowest point has a copy
    /// below it, and a split with copies on both sides.
    fn twins_exercised(pst: &MemPst) -> (usize, usize) {
        let subtree = |ni: usize| {
            let mut stack = vec![ni];
            let mut out = Vec::new();
            while let Some(ni) = stack.pop() {
                out.extend_from_slice(pst.points(ni));
                stack.extend(pst.children(ni).into_iter().flatten());
            }
            out
        };
        let (mut lowest, mut split) = (0, 0);
        for (ni, node) in pst.nodes.iter().enumerate() {
            let Some([l, r]) = pst.children(ni) else { continue };
            let (left, right) = (subtree(l), subtree(r));
            if let Some(low) = pst.points(ni).last() {
                lowest += usize::from(left.iter().chain(&right).any(|p| p == low));
            }
            split += usize::from(left.contains(&node.split) && right.contains(&node.split));
        }
        (lowest, split)
    }

    /// The decompositions of duplicate-heavy sets, where both twin rules
    /// decide — the lowest point of a node with a copy below it, a split
    /// with copies on both sides — under four fills: node counts and
    /// fingerprints recorded with the build that kept an x-sorted copy
    /// beside the y order and split both at every node.
    #[test]
    fn duplicate_heavy_decompositions_are_the_recorded_ones() {
        let fills = [
            SMALL,
            crate::build::node_fill(512),
            crate::three_sided::node_fill(512),
            crate::two_level::region_fill(512, 3, true),
        ];
        let recorded: [[(usize, u64); 4]; 3] = [
            [
                (3, 15865911434408146852),
                (3, 15865911434408146852),
                (3, 15865911434408146852),
                (3, 15865911434408146852),
            ],
            [
                (31, 4368960220131661953),
                (7, 18054013099162622326),
                (3, 17169070974221160396),
                (3, 3685285682659708518),
            ],
            [
                (31, 12556801112913869873),
                (7, 7510311919790890921),
                (3, 13519670246118275808),
                (3, 5508449450498297322),
            ],
        ];
        for (points, want) in duplicate_heavy(4000).iter().zip(recorded) {
            let (mut lowest, mut split) = (0, 0);
            for (fill, want) in fills.into_iter().zip(want) {
                let pst = MemPst::build(points, fill);
                assert_eq!((pst.nodes.len(), fingerprint(&pst)), want, "{fill:?}");
                let (l, s) = twins_exercised(&pst);
                (lowest, split) = (lowest + l, split + s);
            }
            assert!(lowest > 0 && split > 0, "twins at lowest {lowest}, at split {split}");
        }
    }
}
