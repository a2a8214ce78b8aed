//! On-page node layout for the external B+-tree.
//!
//! Two node kinds share a one-byte tag:
//!
//! ```text
//! internal: [tag=0][count:u16][key:a * count][child:u64 * (count+1)]
//! leaf:     [tag=1][count:u16][next:u64][prev:u64][(key:a, value:id) * count]
//! ```
//!
//! Keys and values take the widths of the tree's [`Frame`]: a key `a` bytes
//! (two's complement, sign-extended on decode), a value `id` bytes; the
//! frame's `b` is unused and takes no byte. Nodes are decoded into owned
//! structs, mutated in memory, and re-encoded; each read/write of a node is
//! exactly one page I/O, matching the cost model.

use pc_pagestore::codec::{PageReader, PageWriter};
use pc_pagestore::{Frame, PageId, PageStore, Point, Result, StoreError, NULL_PAGE};

const TAG_INTERNAL: u8 = 0;
const TAG_LEAF: u8 = 1;
/// The tag and the `u16` count.
const HEADER: usize = 3;

/// An internal node: `children[i]` holds keys `k` with
/// `keys[i-1] <= k < keys[i]` (virtual sentinels at ±∞).
#[derive(Debug, Clone)]
pub struct Internal {
    /// Separator keys, strictly increasing.
    pub keys: Vec<i64>,
    /// Child page ids; always `keys.len() + 1` entries.
    pub children: Vec<PageId>,
}

/// A leaf node holding the actual entries, doubly linked to its neighbours.
#[derive(Debug, Clone)]
pub struct Leaf {
    /// Sorted `(key, value)` entries.
    pub entries: Vec<(i64, u64)>,
    /// Next leaf in key order ([`NULL_PAGE`] at the right end).
    pub next: PageId,
    /// Previous leaf in key order ([`NULL_PAGE`] at the left end).
    pub prev: PageId,
}

/// A decoded B+-tree node.
#[derive(Debug, Clone)]
pub enum Node {
    /// Routing node.
    Internal(Internal),
    /// Entry-bearing node.
    Leaf(Leaf),
}

/// The byte widths of a key and of a value at `frame`.
fn widths(frame: Frame) -> (usize, usize) {
    let [key, _, value] = frame.widths();
    (usize::from(key), usize::from(value))
}

/// `cap`, which must allow a fanout of at least 5, bounded by the `u16`
/// count header.
fn checked(cap: usize, page_size: usize, frame: Frame) -> usize {
    assert!(cap >= 4, "{page_size}-byte pages at {frame} give a node fewer than 4 entries");
    cap.min(usize::from(u16::MAX))
}

/// Maximum separator keys in an internal node of a tree at `frame`.
pub fn internal_capacity(page_size: usize, frame: Frame) -> usize {
    // c keys and c + 1 children: HEADER + c·key + (c + 1)·8 <= page_size.
    checked((page_size - HEADER - 8) / (widths(frame).0 + 8), page_size, frame)
}

/// Maximum entries in a leaf of a tree at `frame`: the tree's `B`.
pub fn leaf_capacity(page_size: usize, frame: Frame) -> usize {
    // HEADER and two sibling pointers, then c entries.
    let (key, value) = widths(frame);
    checked((page_size - HEADER - 16) / (key + value), page_size, frame)
}

impl Node {
    /// Reads and decodes the node at `id` (one I/O).
    pub fn read(store: &PageStore, id: PageId, frame: Frame) -> Result<Node> {
        let (key, value) = widths(frame);
        let page = store.read(id)?;
        let mut r = PageReader::new(&page);
        match r.get_u8()? {
            TAG_INTERNAL => {
                let count = r.get_u16()? as usize;
                let keys = (0..count).map(|_| r.get_int(key)).collect::<Result<_>>()?;
                let children = (0..=count).map(|_| r.get_u64().map(PageId)).collect::<Result<_>>()?;
                Ok(Node::Internal(Internal { keys, children }))
            }
            TAG_LEAF => {
                let count = r.get_u16()? as usize;
                let next = PageId(r.get_u64()?);
                let prev = PageId(r.get_u64()?);
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    entries.push((r.get_int(key)?, r.get_uint(value)?));
                }
                Ok(Node::Leaf(Leaf { entries, next, prev }))
            }
            tag => Err(StoreError::Corrupt(format!("unknown b+tree node tag {tag}"))),
        }
    }

    /// Encodes and writes the node to `id` (one I/O). Panics on an entry
    /// `frame` does not hold: the tree widens before it stores one.
    pub fn write(&self, store: &PageStore, id: PageId, frame: Frame) -> Result<()> {
        let (key, value) = widths(frame);
        let count = |len: usize| u16::try_from(len).expect("capacities fit the u16 count");
        let mut buf = vec![0u8; store.page_size()];
        let used = {
            let mut w = PageWriter::new(&mut buf);
            match self {
                Node::Internal(n) => {
                    debug_assert_eq!(n.children.len(), n.keys.len() + 1);
                    w.put_u8(TAG_INTERNAL)?;
                    w.put_u16(count(n.keys.len()))?;
                    for &k in &n.keys {
                        w.put_uint(k as u64, key)?;
                    }
                    for c in &n.children {
                        w.put_u64(c.0)?;
                    }
                }
                Node::Leaf(n) => {
                    w.put_u8(TAG_LEAF)?;
                    w.put_u16(count(n.entries.len()))?;
                    w.put_u64(n.next.0)?;
                    w.put_u64(n.prev.0)?;
                    for &(k, v) in &n.entries {
                        // Dropping high bytes would store another entry.
                        assert!(frame.holds(&Point::new(k, 0, v)), "{frame} cannot hold {k}");
                        w.put_uint(k as u64, key)?;
                        w.put_uint(v, value)?;
                    }
                }
            }
            w.position()
        };
        store.write(id, &buf[..used])
    }

    /// Entries of a leaf, separator keys of an internal node.
    pub fn fill(&self) -> usize {
        match self {
            Node::Internal(n) => n.keys.len(),
            Node::Leaf(n) => n.entries.len(),
        }
    }

    /// Convenience: unwrap as internal node.
    pub fn expect_internal(self) -> Internal {
        match self {
            Node::Internal(n) => n,
            Node::Leaf(_) => panic!("expected internal node"),
        }
    }

    /// Convenience: unwrap as leaf node.
    pub fn expect_leaf(self) -> Leaf {
        match self {
            Node::Leaf(n) => n,
            Node::Internal(_) => panic!("expected leaf node"),
        }
    }
}

impl Internal {
    /// Index of the child subtree that covers `key`.
    pub fn child_index(&self, key: i64) -> usize {
        // partition_point: number of separators <= key
        self.keys.partition_point(|&k| k <= key)
    }
}

pub fn empty_leaf() -> Node {
    Node::Leaf(Leaf { entries: Vec::new(), next: NULL_PAGE, prev: NULL_PAGE })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Key/value widths 1/1, 3/3, 4/3 and 8/8.
    const FRAMES: [Frame; 4] =
        [Frame::new(1, 1, 1), Frame::new(3, 1, 3), Frame::new(4, 1, 3), Frame::WIDE];

    /// The smallest and largest key, and the largest value, `frame` holds.
    fn extremes(frame: Frame) -> (i64, i64, u64) {
        let (key, value) = widths(frame);
        let unused = 64 - 8 * key as u32;
        (i64::MIN >> unused, i64::MAX >> unused, u64::MAX >> (64 - 8 * value as u32))
    }

    #[test]
    fn leaf_roundtrip() {
        let store = PageStore::in_memory(256);
        let id = store.alloc().unwrap();
        for frame in FRAMES {
            let (lo, hi, top) = extremes(frame);
            let entries = vec![(lo, top), (-1, 0), (0, 1), (hi, top - 1)];
            let leaf = Leaf { entries: entries.clone(), next: PageId(42), prev: NULL_PAGE };
            Node::Leaf(leaf).write(&store, id, frame).unwrap();
            let back = Node::read(&store, id, frame).unwrap().expect_leaf();
            assert_eq!(back.entries, entries, "at {frame}");
            assert_eq!(back.next, PageId(42));
            assert!(back.prev.is_null());
        }
    }

    #[test]
    fn internal_roundtrip() {
        let store = PageStore::in_memory(256);
        let id = store.alloc().unwrap();
        for frame in FRAMES {
            let (lo, hi, _) = extremes(frame);
            let children = vec![PageId(1), PageId(2), PageId(3), PageId(u64::MAX - 1)];
            let node = Internal { keys: vec![lo, 0, hi], children: children.clone() };
            Node::Internal(node).write(&store, id, frame).unwrap();
            let back = Node::read(&store, id, frame).unwrap().expect_internal();
            assert_eq!(back.keys, vec![lo, 0, hi], "at {frame}");
            assert_eq!(back.children, children);
        }
    }

    #[test]
    fn child_index_routes_by_separator() {
        let n = Internal { keys: vec![10, 20, 30], children: vec![] };
        assert_eq!(n.child_index(5), 0);
        assert_eq!(n.child_index(10), 1, "separator key goes right");
        assert_eq!(n.child_index(15), 1);
        assert_eq!(n.child_index(29), 2);
        assert_eq!(n.child_index(30), 3);
        assert_eq!(n.child_index(99), 3);
    }

    #[test]
    fn capacities_are_sane() {
        let at = |page_size| FRAMES.map(|frame| leaf_capacity(page_size, frame));
        assert_eq!(at(4096), [2038, 679, 582, 254]);
        let at = |page_size| FRAMES.map(|frame| internal_capacity(page_size, frame));
        assert_eq!(at(4096), [453, 371, 340, 255]);
        // 1-byte entries would count past the u16 header: the count caps them.
        assert_eq!(leaf_capacity(1 << 18, FRAMES[0]), usize::from(u16::MAX));
        assert_eq!(internal_capacity(1 << 20, FRAMES[0]), usize::from(u16::MAX));
    }

    #[test]
    fn corrupt_tag_is_detected() {
        let store = PageStore::in_memory(256);
        let id = store.alloc().unwrap();
        store.write(id, &[9u8, 0, 0]).unwrap();
        assert!(matches!(Node::read(&store, id, Frame::WIDE), Err(StoreError::Corrupt(_))));
    }
}
