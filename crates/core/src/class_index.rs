//! Indexing class hierarchies — the paper's §1 object-oriented-database
//! application.
//!
//! [KRV] showed that answering "find the objects of class `c` *or any of
//! its subclasses* whose indexed attribute satisfies a bound" efficiently
//! is the key to indexing in object-oriented databases, and that it calls
//! for 3-sided 2-dimensional searching. We realize the reduction by
//! numbering the class hierarchy in preorder: the subtree of `c` occupies
//! the contiguous interval `[pre(c), post(c)]`, so the query *"objects in
//! subtree(c) with attribute ≥ v"* is exactly the 3-sided query
//! `x ∈ [pre(c), post(c)] ∧ y ≥ v` over points
//! `(x = class preorder, y = attribute)` — answered in optimal
//! `O(log_B n + t/B)` I/Os by [`pc_pst::ThreeSidedPst`] (Theorem 3.3).

use pc_pagestore::{PageStore, Point, Result};
use pc_pst::{ThreeSided, ThreeSidedPst};

/// Opaque identifier of a registered class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClassId(usize);

/// An object registered in the hierarchy: `(class, attribute, object id)`.
#[derive(Debug, Clone, Copy)]
struct PendingObject {
    class: ClassId,
    attr: i64,
    id: u64,
}

/// Builder: declare the class hierarchy and the objects, then
/// [`ClassIndexBuilder::build`].
#[derive(Default)]
pub struct ClassIndexBuilder {
    parents: Vec<Option<ClassId>>,
    objects: Vec<PendingObject>,
}

impl ClassIndexBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a class; `parent` is `None` for a root. Classes must be
    /// registered parent-first.
    pub fn add_class(&mut self, parent: Option<ClassId>) -> ClassId {
        if let Some(p) = parent {
            assert!(p.0 < self.parents.len(), "unknown parent class");
        }
        let id = ClassId(self.parents.len());
        self.parents.push(parent);
        id
    }

    /// Registers an object of `class` with the given indexed attribute.
    /// Object ids must be unique.
    pub fn add_object(&mut self, class: ClassId, attr: i64, id: u64) {
        assert!(class.0 < self.parents.len(), "unknown class");
        self.objects.push(PendingObject { class, attr, id });
    }

    /// Builds the index.
    pub fn build(self, store: &PageStore) -> Result<ClassIndex> {
        // Preorder numbering: children grouped per parent, DFS from roots.
        let n = self.parents.len();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut roots = Vec::new();
        for (i, parent) in self.parents.iter().enumerate() {
            match parent {
                Some(p) => children[p.0].push(i),
                None => roots.push(i),
            }
        }
        let mut pre = vec![0i64; n];
        let mut post = vec![0i64; n];
        let mut counter = 0i64;
        let mut stack: Vec<(usize, bool)> = roots.iter().rev().map(|&r| (r, false)).collect();
        while let Some((c, visited)) = stack.pop() {
            if visited {
                post[c] = counter - 1;
                continue;
            }
            pre[c] = counter;
            counter += 1;
            stack.push((c, true));
            for &child in children[c].iter().rev() {
                stack.push((child, false));
            }
        }

        let points: Vec<Point> = self
            .objects
            .iter()
            .map(|o| Point::new(pre[o.class.0], o.attr, o.id))
            .collect();
        let pst = ThreeSidedPst::build(store, &points)?;
        Ok(ClassIndex { pst, pre, post })
    }
}

/// A static index over a class hierarchy answering subtree-plus-attribute
/// queries as single 3-sided queries.
///
/// ```
/// use path_caching::{ClassIndexBuilder, PageStore};
///
/// let store = PageStore::in_memory(4096);
/// let mut b = ClassIndexBuilder::new();
/// let vehicle = b.add_class(None);
/// let car = b.add_class(Some(vehicle));
/// let truck = b.add_class(Some(vehicle));
/// b.add_object(car, 150, 1); // a car with top speed 150
/// b.add_object(truck, 120, 2);
/// b.add_object(vehicle, 90, 3);
/// let index = b.build(&store).unwrap();
/// // All vehicles (any subclass) with top speed >= 100:
/// let fast = index.query_subtree(&store, vehicle, 100).unwrap();
/// assert_eq!(fast.len(), 2);
/// // Only cars:
/// let fast_cars = index.query_subtree(&store, car, 100).unwrap();
/// assert_eq!(fast_cars, vec![1]);
/// ```
pub struct ClassIndex {
    pst: ThreeSidedPst,
    pre: Vec<i64>,
    post: Vec<i64>,
}

impl ClassIndex {
    /// Object ids in `class` or any of its subclasses whose attribute is
    /// at least `min_attr`. One 3-sided query: `O(log_B n + t/B)` I/Os.
    pub fn query_subtree(
        &self,
        store: &PageStore,
        class: ClassId,
        min_attr: i64,
    ) -> Result<Vec<u64>> {
        let q = ThreeSided { x1: self.pre[class.0], x2: self.post[class.0], y0: min_attr };
        let mut ids: Vec<u64> = self.pst.query(store, q)?.into_iter().map(|p| p.id).collect();
        ids.sort_unstable();
        Ok(ids)
    }

    /// Object ids in exactly `class` (no subclasses) with attribute at
    /// least `min_attr`.
    pub fn query_exact(
        &self,
        store: &PageStore,
        class: ClassId,
        min_attr: i64,
    ) -> Result<Vec<u64>> {
        let x = self.pre[class.0];
        let q = ThreeSided { x1: x, x2: x, y0: min_attr };
        let mut ids: Vec<u64> = self.pst.query(store, q)?.into_iter().map(|p| p.id).collect();
        ids.sort_unstable();
        Ok(ids)
    }

    /// Number of indexed objects.
    pub fn len(&self) -> u64 {
        self.pst.len()
    }

    /// True when no objects are indexed.
    pub fn is_empty(&self) -> bool {
        self.pst.is_empty()
    }

    /// Diagnostic: the preorder interval of a class (subtree id range).
    pub fn subtree_range(&self, class: ClassId) -> (i64, i64) {
        (self.pre[class.0], self.post[class.0])
    }

    /// Testing aid: brute-force subtree membership, used by differential
    /// tests.
    #[doc(hidden)]
    pub fn is_in_subtree(&self, class: ClassId, candidate_pre: i64) -> bool {
        self.pre[class.0] <= candidate_pre && candidate_pre <= self.post[class.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn xorshift(state: &mut u64, bound: i64) -> i64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state % bound as u64) as i64
    }

    /// Random hierarchy + random objects, checked against brute force.
    #[test]
    fn random_hierarchy_matches_brute_force() {
        let store = PageStore::in_memory(512);
        let mut b = ClassIndexBuilder::new();
        let mut s = 0x777u64;
        let mut classes = vec![b.add_class(None)];
        let mut parent_of: HashMap<ClassId, Option<ClassId>> = HashMap::new();
        parent_of.insert(classes[0], None);
        for _ in 0..60 {
            let parent = classes[(xorshift(&mut s, classes.len() as i64)) as usize];
            let c = b.add_class(Some(parent));
            parent_of.insert(c, Some(parent));
            classes.push(c);
        }
        let mut objects = Vec::new();
        for id in 0..3000u64 {
            let class = classes[(xorshift(&mut s, classes.len() as i64)) as usize];
            let attr = xorshift(&mut s, 10_000);
            b.add_object(class, attr, id);
            objects.push((class, attr, id));
        }
        let index = b.build(&store).unwrap();

        let is_descendant = |mut c: ClassId, anc: ClassId| -> bool {
            loop {
                if c == anc {
                    return true;
                }
                match parent_of[&c] {
                    Some(p) => c = p,
                    None => return false,
                }
            }
        };

        for _ in 0..40 {
            let target = classes[(xorshift(&mut s, classes.len() as i64)) as usize];
            let min_attr = xorshift(&mut s, 10_000);
            let got = index.query_subtree(&store, target, min_attr).unwrap();
            let mut want: Vec<u64> = objects
                .iter()
                .filter(|(c, a, _)| *a >= min_attr && is_descendant(*c, target))
                .map(|(_, _, id)| *id)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "class {target:?} attr >= {min_attr}");
        }
    }

    #[test]
    fn exact_class_excludes_subclasses() {
        let store = PageStore::in_memory(512);
        let mut b = ClassIndexBuilder::new();
        let root = b.add_class(None);
        let child = b.add_class(Some(root));
        b.add_object(root, 10, 1);
        b.add_object(child, 10, 2);
        let index = b.build(&store).unwrap();
        assert_eq!(index.query_exact(&store, root, 0).unwrap(), vec![1]);
        assert_eq!(index.query_subtree(&store, root, 0).unwrap(), vec![1, 2]);
        assert_eq!(index.query_subtree(&store, child, 0).unwrap(), vec![2]);
    }

    #[test]
    fn forest_of_roots() {
        let store = PageStore::in_memory(512);
        let mut b = ClassIndexBuilder::new();
        let r1 = b.add_class(None);
        let r2 = b.add_class(None);
        let c1 = b.add_class(Some(r1));
        b.add_object(r1, 5, 1);
        b.add_object(r2, 5, 2);
        b.add_object(c1, 5, 3);
        let index = b.build(&store).unwrap();
        assert_eq!(index.query_subtree(&store, r1, 0).unwrap(), vec![1, 3]);
        assert_eq!(index.query_subtree(&store, r2, 0).unwrap(), vec![2]);
    }
}
