//! van Emde Boas repacking of a built external interval tree.
//!
//! See [`pc_pagestore::repack`] for the overall scheme. The interval
//! tree's skeletal pages form a proper tree (each page is filled from a
//! single subtree root). Every record owns up to four [`BlockList`]
//! chains (L/R interval lists, left/right ancestor caches) which are
//! attached to their page, as is a flat leaf's one-block run. A leaf
//! whose run outgrew one block embeds a whole mini segment tree via its
//! [`SegTreeHandle`] — those are collected as additional layout roots, so
//! each mini tree ends up contiguous right after the main tree, in its
//! own vEB order.

use std::collections::{HashSet, VecDeque};

use pc_pagestore::codec::{PageReader, PageWriter};
use pc_pagestore::layout::BlockList;
use pc_pagestore::repack::{chain_pages, copy_chain, ensure_quiesced, PageGraph, Relocation};
use pc_pagestore::{PageStore, Record, Result};
use pc_segtree::SegTreeHandle;

use crate::build::{
    decode_record, encode_record, ExternalIntervalTree, LeafRun, NodeRecord, NodeRef,
};

impl ExternalIntervalTree {
    /// Records every page of this tree into `graph`: the skeletal tree
    /// with its attached list chains, then each leaf's mini segment tree.
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
                match decode_record(&page, slot as u16)? {
                    NodeRecord::Internal { left, right, l_list, r_list, anc_l, anc_r, .. } => {
                        for list in [l_list.head(), r_list.head(), anc_l.head(), anc_r.head()]
                        {
                            graph.attach(idx, &chain_pages(store, list)?);
                        }
                        for child in [left, right] {
                            if child.page != pid {
                                if let Some(child_idx) = graph.add_child(idx, child.page) {
                                    queue.push_back((child.page, child_idx));
                                }
                            }
                        }
                    }
                    NodeRecord::Leaf { run, anc_l, anc_r } => {
                        for list in [anc_l.head(), anc_r.head()] {
                            graph.attach(idx, &chain_pages(store, list)?);
                        }
                        match run {
                            LeafRun::Flat(list) => {
                                graph.attach(idx, &chain_pages(store, list.head())?)
                            }
                            LeafRun::Mini(mini) => minis.push(mini),
                        }
                    }
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
                        NodeRecord::Internal {
                            boundary,
                            left,
                            right,
                            l_list,
                            r_list,
                            anc_l,
                            anc_r,
                        } => {
                            for list in [&l_list, &r_list] {
                                copy_chain(src, dst, list.head(), map)?;
                            }
                            for list in [&anc_l, &anc_r] {
                                copy_chain(src, dst, list.head(), map)?;
                            }
                            for child in [left, right] {
                                if child.page != pid {
                                    stack.push(child.page);
                                }
                            }
                            NodeRecord::Internal {
                                boundary,
                                left: NodeRef { page: map.get(left.page)?, slot: left.slot },
                                right: NodeRef { page: map.get(right.page)?, slot: right.slot },
                                l_list: relocate(&l_list, map)?,
                                r_list: relocate(&r_list, map)?,
                                anc_l: relocate(&anc_l, map)?,
                                anc_r: relocate(&anc_r, map)?,
                            }
                        }
                        NodeRecord::Leaf { run, anc_l, anc_r } => {
                            for list in [&anc_l, &anc_r] {
                                copy_chain(src, dst, list.head(), map)?;
                            }
                            let run = match run {
                                LeafRun::Flat(list) => {
                                    copy_chain(src, dst, list.head(), map)?;
                                    LeafRun::Flat(relocate(&list, map)?)
                                }
                                LeafRun::Mini(mini) => {
                                    LeafRun::Mini(mini.rewrite_into(src, dst, map)?)
                                }
                            };
                            NodeRecord::Leaf {
                                run,
                                anc_l: relocate(&anc_l, map)?,
                                anc_r: relocate(&anc_r, map)?,
                            }
                        }
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

fn relocate<R: Record>(list: &BlockList<R>, map: &Relocation) -> Result<BlockList<R>> {
    Ok(list.with_head(map.get(list.head())?))
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
        let tree = ExternalIntervalTree::build(&src, &intervals).unwrap();
        let (flat, mini) = crate::build::leaf_kinds(&tree, &src);
        assert!(flat > 0 && mini == 1, "flat={flat} mini={mini}");
        let dst = PageStore::in_memory(512);
        let packed = tree.repack(&src, &dst).unwrap();
        assert_eq!(packed.len(), tree.len());
        assert_eq!(dst.live_pages(), src.live_pages());
        let mut s = 0x5150u64;
        let random = (0..40).map(|_| xorshift(&mut s, 55_000) - 1000);
        for q in (-1001..=-992).chain(random) {
            src.reset_stats();
            let a = tree.stab(&src, q).unwrap();
            let reads_a = src.stats().reads;
            dst.reset_stats();
            let b = packed.stab(&dst, q).unwrap();
            assert_eq!(ids(a), ids(b), "q={q}");
            assert_eq!(dst.stats().reads, reads_a, "transfer count q={q}");
        }
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
