//! On-page node layout for the external B+-tree.
//!
//! Two node kinds share a one-byte tag:
//!
//! ```text
//! internal: [tag=0][count:u16][key * count][child:u64 * (count+1)]
//! leaf:     [tag=1][count:u16][next:u64][prev:u64][(key,value) * count]
//! ```
//!
//! Nodes are decoded into owned structs, mutated in memory, and re-encoded;
//! each read/write of a node is exactly one page I/O, matching the cost
//! model.

use pc_pagestore::codec::{PageReader, PageWriter};
use pc_pagestore::{PageId, PageStore, Record, Result, StoreError, NULL_PAGE};

const TAG_INTERNAL: u8 = 0;
const TAG_LEAF: u8 = 1;

/// An internal node: `children[i]` holds keys `k` with
/// `keys[i-1] <= k < keys[i]` (virtual sentinels at ±∞).
#[derive(Debug, Clone)]
pub struct Internal<K> {
    /// Separator keys, strictly increasing.
    pub keys: Vec<K>,
    /// Child page ids; always `keys.len() + 1` entries.
    pub children: Vec<PageId>,
}

/// A leaf node holding the actual entries, doubly linked to its neighbours.
#[derive(Debug, Clone)]
pub struct Leaf<K, V> {
    /// Sorted `(key, value)` entries.
    pub entries: Vec<(K, V)>,
    /// Next leaf in key order ([`NULL_PAGE`] at the right end).
    pub next: PageId,
    /// Previous leaf in key order ([`NULL_PAGE`] at the left end).
    pub prev: PageId,
}

/// A decoded B+-tree node.
#[derive(Debug, Clone)]
pub enum Node<K, V> {
    /// Routing node.
    Internal(Internal<K>),
    /// Entry-bearing node.
    Leaf(Leaf<K, V>),
}

impl<K: Record + Ord, V: Record> Node<K, V> {
    /// Maximum separator keys in an internal node for this page size.
    pub fn internal_capacity(page_size: usize) -> usize {
        // 3 header bytes, then c keys and c+1 children:
        //   3 + c*K + (c+1)*8 <= page_size
        let cap = (page_size - 3 - 8) / (K::ENCODED_LEN + 8);
        assert!(cap >= 4, "page size {page_size} gives internal fanout < 5");
        cap
    }

    /// Maximum entries in a leaf for this page size.
    pub fn leaf_capacity(page_size: usize) -> usize {
        // 3 header bytes + two sibling pointers, then c entries.
        let cap = (page_size - 3 - 16) / (K::ENCODED_LEN + V::ENCODED_LEN);
        assert!(cap >= 4, "page size {page_size} gives leaf capacity < 4");
        cap
    }

    /// Reads and decodes the node at `id` (one I/O).
    pub fn read(store: &PageStore, id: PageId) -> Result<Node<K, V>> {
        let page = store.read(id)?;
        let mut r = PageReader::new(&page);
        match r.get_u8()? {
            TAG_INTERNAL => {
                let count = r.get_u16()? as usize;
                let mut keys = Vec::with_capacity(count);
                for _ in 0..count {
                    keys.push(K::decode(&mut r)?);
                }
                let mut children = Vec::with_capacity(count + 1);
                for _ in 0..=count {
                    children.push(PageId(r.get_u64()?));
                }
                Ok(Node::Internal(Internal { keys, children }))
            }
            TAG_LEAF => {
                let count = r.get_u16()? as usize;
                let next = PageId(r.get_u64()?);
                let prev = PageId(r.get_u64()?);
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let k = K::decode(&mut r)?;
                    let v = V::decode(&mut r)?;
                    entries.push((k, v));
                }
                Ok(Node::Leaf(Leaf { entries, next, prev }))
            }
            tag => Err(StoreError::Corrupt(format!("unknown b+tree node tag {tag}"))),
        }
    }

    /// Encodes and writes the node to `id` (one I/O).
    pub fn write(&self, store: &PageStore, id: PageId) -> Result<()> {
        let mut buf = vec![0u8; store.page_size()];
        let used = {
            let mut w = PageWriter::new(&mut buf);
            match self {
                Node::Internal(n) => {
                    debug_assert_eq!(n.children.len(), n.keys.len() + 1);
                    w.put_u8(TAG_INTERNAL)?;
                    w.put_u16(n.keys.len() as u16)?;
                    for k in &n.keys {
                        k.encode(&mut w)?;
                    }
                    for c in &n.children {
                        w.put_u64(c.0)?;
                    }
                }
                Node::Leaf(n) => {
                    w.put_u8(TAG_LEAF)?;
                    w.put_u16(n.entries.len() as u16)?;
                    w.put_u64(n.next.0)?;
                    w.put_u64(n.prev.0)?;
                    for (k, v) in &n.entries {
                        k.encode(&mut w)?;
                        v.encode(&mut w)?;
                    }
                }
            }
            w.position()
        };
        store.write(id, &buf[..used])
    }

    /// Convenience: unwrap as internal node.
    pub fn expect_internal(self) -> Internal<K> {
        match self {
            Node::Internal(n) => n,
            Node::Leaf(_) => panic!("expected internal node"),
        }
    }

    /// Convenience: unwrap as leaf node.
    pub fn expect_leaf(self) -> Leaf<K, V> {
        match self {
            Node::Leaf(n) => n,
            Node::Internal(_) => panic!("expected leaf node"),
        }
    }
}

impl<K: Ord> Internal<K> {
    /// Index of the child subtree that covers `key`.
    pub fn child_index(&self, key: &K) -> usize {
        // partition_point: number of separators <= key
        self.keys.partition_point(|k| k <= key)
    }
}

pub fn empty_leaf<K, V>() -> Node<K, V> {
    Node::Leaf(Leaf { entries: Vec::new(), next: NULL_PAGE, prev: NULL_PAGE })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_roundtrip() {
        let store = PageStore::in_memory(256);
        let id = store.alloc().unwrap();
        let node: Node<i64, u64> = Node::Leaf(Leaf {
            entries: vec![(1, 10), (5, 50), (9, 90)],
            next: PageId(42),
            prev: NULL_PAGE,
        });
        node.write(&store, id).unwrap();
        let back = Node::<i64, u64>::read(&store, id).unwrap().expect_leaf();
        assert_eq!(back.entries, vec![(1, 10), (5, 50), (9, 90)]);
        assert_eq!(back.next, PageId(42));
        assert!(back.prev.is_null());
    }

    #[test]
    fn internal_roundtrip() {
        let store = PageStore::in_memory(256);
        let id = store.alloc().unwrap();
        let node: Node<i64, u64> = Node::Internal(Internal {
            keys: vec![10, 20],
            children: vec![PageId(1), PageId(2), PageId(3)],
        });
        node.write(&store, id).unwrap();
        let back = Node::<i64, u64>::read(&store, id).unwrap().expect_internal();
        assert_eq!(back.keys, vec![10, 20]);
        assert_eq!(back.children, vec![PageId(1), PageId(2), PageId(3)]);
    }

    #[test]
    fn child_index_routes_by_separator() {
        let n = Internal { keys: vec![10i64, 20, 30], children: vec![] };
        assert_eq!(n.child_index(&5), 0);
        assert_eq!(n.child_index(&10), 1, "separator key goes right");
        assert_eq!(n.child_index(&15), 1);
        assert_eq!(n.child_index(&29), 2);
        assert_eq!(n.child_index(&30), 3);
        assert_eq!(n.child_index(&99), 3);
    }

    #[test]
    fn capacities_are_sane() {
        let leaf = Node::<i64, u64>::leaf_capacity(4096);
        let internal = Node::<i64, u64>::internal_capacity(4096);
        assert_eq!(leaf, (4096 - 19) / 16);
        assert_eq!(internal, (4096 - 11) / 16);
        assert!(leaf > 200 && internal > 200);
    }

    #[test]
    fn corrupt_tag_is_detected() {
        let store = PageStore::in_memory(256);
        let id = store.alloc().unwrap();
        store.write(id, &[9u8, 0, 0]).unwrap();
        assert!(matches!(
            Node::<i64, u64>::read(&store, id),
            Err(StoreError::Corrupt(_))
        ));
    }
}
