//! van Emde Boas repacking of a built external interval tree.
//!
//! See [`pc_pagestore::repack`] for the overall scheme. The interval
//! tree's skeletal pages form a proper tree (each page is filled from a
//! single subtree root). Every record owns at most one exit bundle — its
//! page and the chains that page points at (the tails of the ancestor
//! sections, the node's own block) — and a boundary node of more than a
//! block its `L` and `R`; all are attached to the skeletal page. A leaf whose run outgrew one block embeds a whole mini
//! segment tree via its [`SegTreeHandle`] — those are collected as
//! additional layout roots, so each mini tree ends up contiguous right
//! after the main tree, in its own vEB order.

use std::collections::{HashSet, VecDeque};

use pc_pagestore::codec::{PageReader, PageWriter};
use pc_pagestore::repack::{chain_pages, copy_chain, ensure_quiesced, PageGraph, Relocation};
use pc_pagestore::{PageId, PageStore, Result, NULL_PAGE};
use pc_segtree::SegTreeHandle;

use crate::build::{decode_record, encode_record, ExternalIntervalTree, NodeRecord, NodeRef};
use crate::bundle::Bundle;

impl ExternalIntervalTree {
    /// Records every page of this tree into `graph`: the skeletal tree
    /// with its attached bundles, then each leaf's mini segment tree.
    pub fn collect_pages(&self, store: &PageStore, graph: &mut PageGraph) -> Result<()> {
        let Some(root_idx) = graph.add_root(self.root_page) else {
            return Ok(());
        };
        let mut minis: Vec<SegTreeHandle> = Vec::new();
        let mut queue = VecDeque::from([(self.root_page, root_idx)]);
        while let Some((pid, idx)) = queue.pop_front() {
            let page = store.read(pid)?;
            let count = PageReader::new(&page).get_u16()? as usize;
            for slot in 0..count {
                let (bundle, lists) = match decode_record(&page, slot as u16)? {
                    NodeRecord::Internal { left, right, bundle, lists, .. } => {
                        for child in [left, right] {
                            if child.page != pid {
                                if let Some(child_idx) = graph.add_child(idx, child.page) {
                                    queue.push_back((child.page, child_idx));
                                }
                            }
                        }
                        (bundle, lists)
                    }
                    NodeRecord::Leaf { mini, bundle } => {
                        minis.extend(mini);
                        (bundle, [NULL_PAGE; 2])
                    }
                };
                let mut chains = lists.to_vec();
                if !bundle.is_null() {
                    graph.attach(idx, &[bundle]);
                    chains.extend(Bundle::decode(&store.read(bundle)?)?.chains);
                }
                for chain in chains {
                    graph.attach(idx, &chain_pages(store, chain)?);
                }
            }
        }
        // Mini trees after the whole skeletal tree: each one contiguous.
        for mini in minis {
            mini.collect_pages(store, graph)?;
        }
        Ok(())
    }

    /// Re-encodes every page into `dst` at its relocated id, mapping all
    /// embedded page ids through `map`. Returns the relocated handle.
    pub fn rewrite_into(
        &self,
        src: &PageStore,
        dst: &PageStore,
        map: &Relocation,
    ) -> Result<Self> {
        let mut visited = HashSet::new();
        let mut stack = vec![self.root_page];
        let mut buf = vec![0u8; src.page_size()];
        while let Some(pid) = stack.pop() {
            if !visited.insert(pid.0) {
                continue;
            }
            let page = src.read(pid)?;
            let count = PageReader::new(&page).get_u16()? as usize;
            let used = {
                let mut w = PageWriter::new(&mut buf);
                w.put_u16(count as u16)?;
                for slot in 0..count {
                    let moved = match decode_record(&page, slot as u16)? {
                        NodeRecord::Internal { boundary, left, right, bundle, mut lists } => {
                            for child in [left, right] {
                                if child.page != pid {
                                    stack.push(child.page);
                                }
                            }
                            for list in &mut lists {
                                copy_chain(src, dst, *list, map)?;
                                *list = map.get(*list)?;
                            }
                            NodeRecord::Internal {
                                boundary,
                                left: NodeRef { page: map.get(left.page)?, slot: left.slot },
                                right: NodeRef { page: map.get(right.page)?, slot: right.slot },
                                bundle: move_bundle(src, dst, bundle, map)?,
                                lists,
                            }
                        }
                        NodeRecord::Leaf { mini, bundle } => NodeRecord::Leaf {
                            mini: mini.map(|m| m.rewrite_into(src, dst, map)).transpose()?,
                            bundle: move_bundle(src, dst, bundle, map)?,
                        },
                    };
                    encode_record(&mut w, &moved)?;
                }
                w.position()
            };
            dst.write(map.get(pid)?, &buf[..used])?;
        }
        Ok(ExternalIntervalTree { root_page: map.get(self.root_page)?, n: self.n })
    }

    /// Rewrites the whole tree (mini segment trees included) into `dst`
    /// in van Emde Boas page order and returns the relocated handle. Both
    /// stores must be quiesced.
    pub fn repack(&self, src: &PageStore, dst: &PageStore) -> Result<Self> {
        ensure_quiesced(src)?;
        ensure_quiesced(dst)?;
        let mut graph = PageGraph::new();
        self.collect_pages(src, &mut graph)?;
        let reloc = Relocation::alloc_in(&graph.veb_order(), dst)?;
        self.rewrite_into(src, dst, &reloc)
    }
}

/// Copies the bundle at `page` and the chains it owns into `dst`, the
/// bundle page re-encoded with every id mapped, and returns its new id.
fn move_bundle(
    src: &PageStore,
    dst: &PageStore,
    page: PageId,
    map: &Relocation,
) -> Result<PageId> {
    if page.is_null() {
        return Ok(page);
    }
    let bytes = src.read(page)?;
    let mut bundle = Bundle::decode(&bytes)?;
    for chain in bundle.chains {
        copy_chain(src, dst, chain, map)?;
    }
    for id in bundle.chains.iter_mut().chain(&mut bundle.conts) {
        *id = map.get(*id)?;
    }
    let moved = map.get(page)?;
    bundle.write_at(dst, moved)?;
    Ok(moved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_pagestore::Interval;

    fn xorshift(state: &mut u64, bound: i64) -> i64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state % bound as u64) as i64
    }

    fn random_intervals(n: usize, seed: u64) -> Vec<Interval> {
        let mut s = seed;
        (0..n)
            .map(|id| {
                let a = xorshift(&mut s, 50_000);
                Interval::new(a, a + xorshift(&mut s, 3000), id as u64)
            })
            .collect()
    }

    fn ids(mut v: Vec<Interval>) -> Vec<u64> {
        let mut out: Vec<u64> = v.drain(..).map(|i| i.id).collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn repacked_tree_answers_identically_with_equal_transfers() {
        let src = PageStore::in_memory(512);
        let mut intervals = random_intervals(1200, 0xabba);
        // 80 intervals over the 8 smallest endpoints: all confined to the
        // first run, which therefore needs a mini tree; the rest are flat.
        intervals.extend((0..80).map(|i| {
            let lo = -1000 + (i % 8);
            Interval::new(lo, lo + (i / 8) % (8 - i % 8), 1200 + i as u64)
        }));
        // 45 around the middle: one boundary node keeps `L` and `R` as
        // lists of three blocks (heads in its record), the tables below it
        // continue into them, and 20 copies overflow a bundle page.
        intervals.extend((0..45).map(|i| Interval::new(24_000 - i, 26_000 + i, 1280 + i as u64)));
        let tree = ExternalIntervalTree::build(&src, &intervals).unwrap();
        let (flat, mini) = crate::build::leaf_kinds(&tree, &src);
        assert!(flat > 0 && mini == 1, "flat={flat} mini={mini}");
        let dst = PageStore::in_memory(512);
        let packed = tree.repack(&src, &dst).unwrap();
        assert_eq!(packed.len(), tree.len());
        assert_eq!(dst.live_pages(), src.live_pages());
        let mut s = 0x5150u64;
        let random = (0..40).map(|_| xorshift(&mut s, 55_000) - 1000);
        let mut most = 0;
        for q in (-1001..=-992).chain(random).chain(24_990..25_010) {
            src.reset_stats();
            let a = tree.stab(&src, q).unwrap();
            let reads_a = src.stats().reads;
            dst.reset_stats();
            let b = packed.stab(&dst, q).unwrap();
            assert_eq!(ids(a), ids(b), "q={q}");
            assert_eq!(dst.stats().reads, reads_a, "transfer count q={q}");
            most = most.max(reads_a);
        }
        assert!(most >= 6, "some stab runs through a tail or a list: {most} reads at most");
    }

    #[test]
    fn repack_empty_tree() {
        let src = PageStore::in_memory(512);
        let tree = ExternalIntervalTree::build(&src, &[]).unwrap();
        let dst = PageStore::in_memory(512);
        let packed = tree.repack(&src, &dst).unwrap();
        assert!(packed.stab(&dst, 0).unwrap().is_empty());
    }
}
