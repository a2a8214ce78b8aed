//! In-memory segment-tree construction over elementary slabs.
//!
//! The external structures are built by first assembling the classic
//! segment tree in memory (endpoints → elementary slabs → balanced binary
//! tree → cover-list allocation), then paginating it (see `build`).
//!
//! ## Elementary slabs
//!
//! For sorted distinct endpoints `e_0 < … < e_{m-1}` the line decomposes
//! into `2m + 1` slabs, alternating open gaps and closed singletons:
//!
//! ```text
//! index: 0          1         2          3         …   2m
//! slab:  (-∞, e_0)  [e_0,e_0] (e_0,e_1)  [e_1,e_1] …   (e_{m-1}, +∞)
//! ```
//!
//! Closed input intervals decompose exactly into slab ranges, which sidesteps
//! the paper's "no shared endpoints" simplification. When `e_0 = i64::MIN`
//! slab 0 holds no integer, and the tree is built over slabs `1..=2m` only.
//!
//! The slab indices are the build's: the external records route by a key
//! on the query point itself ([`MemTree::route_key`]).

use pc_pagestore::Interval;

/// A node of the in-memory segment tree. Children are indices into the
/// arena (`usize::MAX` for leaves).
#[derive(Debug)]
pub struct MemNode {
    /// Lowest slab index covered by this subtree.
    pub lo: u32,
    /// Highest slab index covered by this subtree (inclusive).
    pub hi: u32,
    /// Highest slab index covered by the left child: a slab `<= split`
    /// lies to the left. Unused for leaves.
    pub split: u32,
    /// Arena index of the left child (`NONE` for leaves).
    pub left: usize,
    /// Arena index of the right child (`NONE` for leaves).
    pub right: usize,
    /// Cover-list: intervals allocated at this node.
    pub cover: Vec<Interval>,
}

/// Sentinel child index for leaves.
pub const NONE: usize = usize::MAX;

impl MemNode {
    /// True if this node has no children.
    pub fn is_leaf(&self) -> bool {
        self.left == NONE
    }
}

/// The in-memory segment tree: an arena of nodes plus the sorted endpoint
/// array defining the slab decomposition.
pub struct MemTree {
    /// Node arena; index 0 is the root.
    pub nodes: Vec<MemNode>,
    /// Sorted, deduplicated endpoint values.
    pub endpoints: Vec<i64>,
}

impl MemTree {
    /// Builds the tree and allocates every interval's cover-lists.
    pub fn build(intervals: &[Interval]) -> MemTree {
        let mut endpoints: Vec<i64> = Vec::with_capacity(intervals.len() * 2);
        for iv in intervals {
            endpoints.push(iv.lo);
            endpoints.push(iv.hi);
        }
        endpoints.sort_unstable();
        endpoints.dedup();

        let slabs = if endpoints.is_empty() { 1 } else { 2 * endpoints.len() as u32 + 1 };
        let first = u32::from(endpoints.first() == Some(&i64::MIN));
        let mut nodes = Vec::with_capacity(2 * slabs as usize);
        build_subtree(&mut nodes, first, slabs - 1);
        let mut tree = MemTree { nodes, endpoints };
        for iv in intervals {
            let lo_slab = tree.slab_of_endpoint(iv.lo);
            let hi_slab = tree.slab_of_endpoint(iv.hi);
            tree.allocate(0, lo_slab, hi_slab, *iv);
        }
        tree
    }

    /// Slab index of an endpoint value that is known to be in
    /// `self.endpoints` (singleton slab `2j + 1`).
    fn slab_of_endpoint(&self, v: i64) -> u32 {
        let j = self.endpoints.binary_search(&v).expect("endpoint must exist");
        2 * j as u32 + 1
    }

    /// The key a split at slab `split` routes by: a query point `q` lies
    /// in a slab `<= split` iff `q <= key`. For the singleton `[e_j, e_j]`
    /// that is `e_j`; for the open slab `(e_{j-1}, e_j)` it is `e_j − 1`,
    /// which fits unless `e_j = i64::MIN`, whose open slab below is never in
    /// the tree (see [`MemTree::build`]).
    pub fn route_key(&self, split: u32) -> i64 {
        let e = self.endpoints[split as usize / 2];
        match split % 2 {
            1 => e,
            _ => e.checked_sub(1).expect("the slab below i64::MIN is not in the tree"),
        }
    }

    /// Standard segment-tree allocation: store `iv` at every maximal node
    /// whose slab range is contained in `[lo, hi]`.
    fn allocate(&mut self, node: usize, lo: u32, hi: u32, iv: Interval) {
        let (nlo, nhi, split, left, right) = {
            let n = &self.nodes[node];
            (n.lo, n.hi, n.split, n.left, n.right)
        };
        debug_assert!(lo <= nhi && hi >= nlo, "allocation must overlap the node");
        if lo <= nlo && nhi <= hi {
            self.nodes[node].cover.push(iv);
            return;
        }
        if left == NONE {
            // A leaf slab is either fully inside or fully outside.
            return;
        }
        if lo <= split {
            self.allocate(left, lo, hi, iv);
        }
        if hi > split {
            self.allocate(right, lo, hi, iv);
        }
    }
}

/// Recursively builds a balanced subtree over slabs `[lo, hi]`, returning
/// its arena index.
fn build_subtree(nodes: &mut Vec<MemNode>, lo: u32, hi: u32) -> usize {
    let idx = nodes.len();
    nodes.push(MemNode { lo, hi, split: lo, left: NONE, right: NONE, cover: Vec::new() });
    if lo < hi {
        let mid = lo + (hi - lo) / 2;
        let left = build_subtree(nodes, lo, mid);
        let right = build_subtree(nodes, mid + 1, hi);
        let n = &mut nodes[idx];
        n.split = mid;
        n.left = left;
        n.right = right;
    }
    idx
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The test oracle: slab lookup by binary search and a walk by slab
    /// index, apart from the external records' keys.
    impl MemTree {
        /// Slab index containing an arbitrary query point.
        pub(crate) fn slab_of_query(&self, q: i64) -> u32 {
            match self.endpoints.binary_search(&q) {
                Ok(j) => 2 * j as u32 + 1,
                // Insertion position j means e_{j-1} < q < e_j: open slab 2j.
                Err(j) => 2 * j as u32,
            }
        }

        /// Walks the path of `q`'s slab and unions its cover-lists.
        pub(crate) fn stab_oracle(&self, q: i64) -> Vec<Interval> {
            let target = self.slab_of_query(q);
            let mut out = Vec::new();
            let mut cur = 0usize;
            loop {
                let n = &self.nodes[cur];
                out.extend(n.cover.iter().copied());
                if n.is_leaf() {
                    return out;
                }
                cur = if target <= n.split { n.left } else { n.right };
            }
        }
    }

    fn iv(lo: i64, hi: i64, id: u64) -> Interval {
        Interval::new(lo, hi, id)
    }

    /// Brute-force reference.
    fn brute(intervals: &[Interval], q: i64) -> Vec<u64> {
        let mut ids: Vec<u64> =
            intervals.iter().filter(|i| i.contains(q)).map(|i| i.id).collect();
        ids.sort_unstable();
        ids
    }

    fn check(intervals: &[Interval], queries: &[i64]) {
        let tree = MemTree::build(intervals);
        for &q in queries {
            let mut got: Vec<u64> = tree.stab_oracle(q).iter().map(|i| i.id).collect();
            got.sort_unstable();
            let want = brute(intervals, q);
            assert_eq!(got, want, "q={q}");
        }
    }

    #[test]
    fn matches_brute_force_on_small_cases() {
        let intervals = vec![iv(1, 5, 0), iv(3, 8, 1), iv(5, 5, 2), iv(0, 10, 3), iv(7, 9, 4)];
        check(&intervals, &[-1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
    }

    #[test]
    fn shared_endpoints_are_handled() {
        let intervals = vec![iv(2, 6, 0), iv(6, 9, 1), iv(6, 6, 2), iv(2, 2, 3)];
        check(&intervals, &[1, 2, 3, 5, 6, 7, 9, 10]);
    }

    #[test]
    fn randomized_against_brute_force() {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rand = move |bound: i64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as i64
        };
        let intervals: Vec<Interval> = (0..300)
            .map(|id| {
                let a = rand(1000);
                let b = a + rand(200);
                iv(a, b, id)
            })
            .collect();
        let queries: Vec<i64> = (0..200).map(|_| rand(1300) - 50).collect();
        check(&intervals, &queries);
    }

    #[test]
    fn allocation_count_is_logarithmic() {
        // Each interval must occupy O(log n) cover-list slots.
        let intervals: Vec<Interval> = (0..1000).map(|i| iv(i, i + 500, i as u64)).collect();
        let tree = MemTree::build(&intervals);
        let total: usize = tree.nodes.iter().map(|n| n.cover.len()).sum();
        let n = intervals.len() as f64;
        let bound = (n * 2.0 * n.log2()).ceil() as usize;
        assert!(total <= bound, "total allocations {total} exceed 2 n log n = {bound}");
    }

    #[test]
    fn empty_input_builds_single_leaf() {
        let tree = MemTree::build(&[]);
        assert_eq!(tree.nodes.len(), 1);
        assert!(tree.stab_oracle(5).is_empty());
    }

    /// Every split's key routes every probe as its slab index does, and an
    /// endpoint at `i64::MIN` leaves the empty slab below it out of the tree
    /// (its key, `i64::MIN − 1`, would not fit).
    #[test]
    fn route_keys_agree_with_slab_indices_at_the_domain_edges() {
        let (lo, hi) = (i64::MIN, i64::MAX);
        for intervals in [
            vec![iv(lo, lo, 0)],
            vec![iv(hi, hi, 0)],
            vec![iv(lo, 0, 0), iv(0, hi, 1), iv(lo + 1, hi - 1, 2), iv(-1, 1, 3)],
            vec![iv(5, 9, 0), iv(9, 12, 1)],
        ] {
            let tree = MemTree::build(&intervals);
            assert_eq!(tree.nodes[0].lo, u32::from(tree.endpoints[0] == lo), "{intervals:?}");
            let probes: Vec<i64> = tree
                .endpoints
                .iter()
                .flat_map(|&e| [e.checked_sub(1), Some(e), e.checked_add(1)])
                .flatten()
                .chain([lo, hi])
                .collect();
            for n in tree.nodes.iter().filter(|n| !n.is_leaf()) {
                let key = tree.route_key(n.split);
                for &q in &probes {
                    let left = tree.slab_of_query(q) <= n.split;
                    assert_eq!(q <= key, left, "q={q} split={} key={key}", n.split);
                }
            }
            let queries: Vec<i64> = probes.clone();
            check(&intervals, &queries);
        }
    }

    #[test]
    fn slab_of_query_alternates_open_closed() {
        let tree = MemTree::build(&[iv(10, 20, 0)]);
        // endpoints [10, 20]: slabs (-inf,10) [10] (10,20) [20] (20,inf)
        assert_eq!(tree.slab_of_query(5), 0);
        assert_eq!(tree.slab_of_query(10), 1);
        assert_eq!(tree.slab_of_query(15), 2);
        assert_eq!(tree.slab_of_query(20), 3);
        assert_eq!(tree.slab_of_query(25), 4);
    }
}
