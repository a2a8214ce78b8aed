//! van Emde Boas repacking of the built PST variants.
//!
//! See [`pc_pagestore::repack`] for the overall scheme. The single-level
//! structures (naive / Lemma 3.1 / Theorem 3.2) have skeletal pages that
//! form a proper tree; each record owns exactly one points page plus its
//! A/S cache chains, all attached to the record's skeletal page. Points
//! pages embed their children's page ids (the descendant traversal walks
//! them without touching skeletal pages), so they are re-encoded with
//! remapped links rather than copied raw.
//!
//! The 3-sided structure (Theorem 3.3) has the same skeleton; each record
//! owns its Y-list chain, its A-list chain, and one directory page that
//! names the A-list's blocks and the S-family's chains. The directory is
//! attached once, to its owning node, right before the chains it indexes,
//! and is re-encoded with every page id remapped; so are the ids a record
//! keeps of its Y-list's second block and of its children's Y-lists.
//!
//! The recursive region schemes (Theorems 4.3/4.4) add per-record X/Y
//! lists, update buffers, and a nested inner structure — another region
//! tree or a basic PST. Inner structures are collected as separate layout
//! roots after their owning tree, so each stays contiguous. A record's
//! `right_y_list` aliases the right child's own Y-list: its pages are
//! owned (and copied) by the child's record, so it is skipped during
//! collection but still remapped during rewrite.

use std::collections::{HashSet, VecDeque};

use pc_pagestore::codec::{PageReader, PageWriter};
use pc_pagestore::layout::BlockList;
use pc_pagestore::repack::{
    chain_pages, copy_chain, copy_raw, ensure_quiesced, PageGraph, Relocation,
};
use pc_pagestore::{PageId, PageStore, Record, Result};

use crate::build::{
    decode_record, read_points_page, BasicPst, CacheMode, NaivePst, PstCore, SegmentedPst,
};
use crate::multilevel::MultilevelPst;
use crate::three_sided::{NodeDir, ThreeSidedPst, TsRecord};
use crate::two_level::{
    decode_header, encode_header, encode_record, InnerHandle, NodeRef, PageHeaderInfo,
    RegionRecord, TwoLevelPst,
};

impl PstCore {
    /// Records every page of this structure into `graph`: the skeletal
    /// tree with, per record, its points page and A/S cache chains.
    pub fn collect_pages(&self, store: &PageStore, graph: &mut PageGraph) -> Result<()> {
        let Some(root_idx) = graph.add_root(self.root_page) else {
            return Ok(());
        };
        let mut queue = VecDeque::from([(self.root_page, root_idx)]);
        while let Some((pid, idx)) = queue.pop_front() {
            let page = store.read(pid)?;
            let count = PageReader::new(&page).get_u16()? as usize;
            for slot in 0..count {
                let rec = decode_record(&page, slot as u16)?;
                graph.attach(idx, &[rec.own_pts]);
                graph.attach(idx, &chain_pages(store, rec.a_list.head())?);
                graph.attach(idx, &chain_pages(store, rec.s_list.head())?);
                for child in [rec.left, rec.right] {
                    if !child.page.is_null() && child.page != pid {
                        if let Some(child_idx) = graph.add_child(idx, child.page) {
                            queue.push_back((child.page, child_idx));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Re-encodes every page into `dst` at its relocated id, mapping all
    /// embedded page ids through `map`. Returns the relocated core.
    pub fn rewrite_into(
        &self,
        src: &PageStore,
        dst: &PageStore,
        map: &Relocation,
    ) -> Result<PstCore> {
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
                    let rec = decode_record(&page, slot as u16)?;
                    // Mirror of build_external's record serialization.
                    rec.split.encode(&mut w)?;
                    rec.min_y.encode(&mut w)?;
                    for child in [rec.left, rec.right] {
                        w.put_u64(map.get(child.page)?.0)?;
                        w.put_u16(child.slot)?;
                    }
                    w.put_u64(map.get(rec.own_pts)?.0)?;
                    w.put_u16(rec.own_cnt)?;
                    w.put_u64(map.get(rec.left_pts)?.0)?;
                    w.put_u16(rec.left_cnt)?;
                    w.put_u64(map.get(rec.right_pts)?.0)?;
                    w.put_u16(rec.right_cnt)?;
                    relocate(&rec.a_list, map)?.encode(&mut w)?;
                    relocate(&rec.s_list, map)?.encode(&mut w)?;
                }
                w.position()
            };
            for slot in 0..count {
                let rec = decode_record(&page, slot as u16)?;
                // Every node appears in exactly one record, so each points
                // page is rewritten exactly once here.
                rewrite_points_page(src, dst, rec.own_pts, map)?;
                copy_chain(src, dst, rec.a_list.head(), map)?;
                copy_chain(src, dst, rec.s_list.head(), map)?;
                for child in [rec.left, rec.right] {
                    if !child.page.is_null() && child.page != pid {
                        stack.push(child.page);
                    }
                }
            }
            dst.write(map.get(pid)?, &buf[..used])?;
        }
        Ok(PstCore { root_page: map.get(self.root_page)?, n: self.n, mode: self.mode })
    }

    /// Rewrites the whole structure into `dst` in van Emde Boas page order
    /// and returns the relocated core. Both stores must be quiesced.
    pub fn repack(&self, src: &PageStore, dst: &PageStore) -> Result<PstCore> {
        ensure_quiesced(src)?;
        ensure_quiesced(dst)?;
        let mut graph = PageGraph::new();
        self.collect_pages(src, &mut graph)?;
        let reloc = Relocation::alloc_in(&graph.veb_order(), dst)?;
        self.rewrite_into(src, dst, &reloc)
    }
}

/// Copies one points page, remapping the embedded child links (the
/// descendant traversal follows them without touching skeletal pages).
fn rewrite_points_page(
    src: &PageStore,
    dst: &PageStore,
    id: PageId,
    map: &Relocation,
) -> Result<()> {
    let pp = read_points_page(src, id)?;
    let mut buf = vec![0u8; src.page_size()];
    let used = {
        let mut w = PageWriter::new(&mut buf);
        w.put_u16(pp.points.len() as u16)?;
        w.put_u64(map.get(pp.left_pts)?.0)?;
        w.put_u64(map.get(pp.right_pts)?.0)?;
        w.put_u16(pp.left_cnt)?;
        w.put_u16(pp.right_cnt)?;
        for p in &pp.points {
            p.encode(&mut w)?;
        }
        w.position()
    };
    dst.write(map.get(id)?, &buf[..used])
}

fn relocate<R: Record>(list: &BlockList<R>, map: &Relocation) -> Result<BlockList<R>> {
    Ok(list.with_head(map.get(list.head())?))
}

macro_rules! variant_repack {
    ($name:ident) => {
        impl $name {
            /// Rewrites the structure into `dst` in van Emde Boas page
            /// order and returns the relocated handle. Both stores must be
            /// quiesced.
            pub fn repack(&self, src: &PageStore, dst: &PageStore) -> Result<Self> {
                Ok($name { core: self.core.repack(src, dst)? })
            }
        }
    };
}

variant_repack!(NaivePst);
variant_repack!(BasicPst);
variant_repack!(SegmentedPst);

impl ThreeSidedPst {
    fn collect_pages(&self, store: &PageStore, graph: &mut PageGraph) -> Result<()> {
        let Some(root_idx) = graph.add_root(self.root_page) else {
            return Ok(());
        };
        let mut queue = VecDeque::from([(self.root_page, root_idx)]);
        while let Some((pid, idx)) = queue.pop_front() {
            let page = store.read(pid)?;
            let count = PageReader::new(&page).get_u16()?;
            for slot in 0..count {
                let rec = TsRecord::decode(&page, slot)?;
                graph.attach(idx, &chain_pages(store, rec.y_list.head())?);
                if !rec.dir.is_null() {
                    graph.attach(idx, &[rec.dir]);
                    graph.attach(idx, &chain_pages(store, rec.a_list.head())?);
                    for (right_sibs, left_sibs) in NodeDir::read(store, rec.dir)?.s {
                        graph.attach(idx, &chain_pages(store, right_sibs.head())?);
                        graph.attach(idx, &chain_pages(store, left_sibs.head())?);
                    }
                }
                for child in [rec.left.at, rec.right.at] {
                    if !child.page.is_null() && child.page != pid {
                        if let Some(child_idx) = graph.add_child(idx, child.page) {
                            queue.push_back((child.page, child_idx));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn rewrite_into(&self, src: &PageStore, dst: &PageStore, map: &Relocation) -> Result<Self> {
        let mut buf = vec![0u8; src.page_size()];
        for (pid, records) in self.skeletal_pages(src)? {
            let used = {
                let mut w = PageWriter::new(&mut buf);
                w.put_u16(records.len() as u16)?;
                for mut rec in records {
                    // Every node's Y-list is copied once, through its own
                    // record; the parent's `y_head` only names it.
                    copy_chain(src, dst, rec.y_list.head(), map)?;
                    if !rec.dir.is_null() {
                        copy_chain(src, dst, rec.a_list.head(), map)?;
                        let mut dir = NodeDir::read(src, rec.dir)?;
                        for (_, block) in &mut dir.a {
                            *block = map.get(*block)?;
                        }
                        for (right_sibs, left_sibs) in &mut dir.s {
                            for list in [right_sibs, left_sibs] {
                                copy_chain(src, dst, list.head(), map)?;
                                *list = relocate(list, map)?;
                            }
                        }
                        dir.write(dst, map.get(rec.dir)?)?;
                    }
                    rec.y_list = relocate(&rec.y_list, map)?;
                    rec.a_list = relocate(&rec.a_list, map)?;
                    for id in [
                        &mut rec.y_second,
                        &mut rec.left.at.page,
                        &mut rec.left.y_head,
                        &mut rec.right.at.page,
                        &mut rec.right.y_head,
                        &mut rec.dir,
                    ] {
                        *id = map.get(*id)?;
                    }
                    rec.encode(&mut w)?;
                }
                w.position()
            };
            dst.write(map.get(pid)?, &buf[..used])?;
        }
        Ok(ThreeSidedPst { root_page: map.get(self.root_page)?, n: self.n })
    }

    /// Rewrites the structure into `dst` in van Emde Boas page order and
    /// returns the relocated handle. Both stores must be quiesced.
    pub fn repack(&self, src: &PageStore, dst: &PageStore) -> Result<Self> {
        ensure_quiesced(src)?;
        ensure_quiesced(dst)?;
        let mut graph = PageGraph::new();
        self.collect_pages(src, &mut graph)?;
        let reloc = Relocation::alloc_in(&graph.veb_order(), dst)?;
        self.rewrite_into(src, dst, &reloc)
    }
}

impl InnerHandle {
    /// Views a basic-PST inner structure as a [`PstCore`] (inner PSTs are
    /// always built with full-path caches; the mode does not affect
    /// layout).
    fn as_core(&self) -> PstCore {
        PstCore { root_page: self.root, n: self.n, mode: CacheMode::FullPath }
    }

    /// Records every page of this inner structure into `graph`.
    pub(crate) fn collect_pages(&self, store: &PageStore, graph: &mut PageGraph) -> Result<()> {
        if self.is_region {
            collect_region(store, self.root, graph)
        } else {
            self.as_core().collect_pages(store, graph)
        }
    }

    /// Re-encodes every page into `dst` at its relocated id.
    pub(crate) fn rewrite_into(
        &self,
        src: &PageStore,
        dst: &PageStore,
        map: &Relocation,
    ) -> Result<InnerHandle> {
        if self.is_region {
            rewrite_region(src, dst, self.root, map)?;
        } else {
            self.as_core().rewrite_into(src, dst, map)?;
        }
        Ok(InnerHandle { root: map.get(self.root)?, n: self.n, is_region: self.is_region })
    }

    /// Rewrites the whole structure into `dst` in van Emde Boas page
    /// order. Both stores must be quiesced.
    pub(crate) fn repack(&self, src: &PageStore, dst: &PageStore) -> Result<InnerHandle> {
        ensure_quiesced(src)?;
        ensure_quiesced(dst)?;
        let mut graph = PageGraph::new();
        self.collect_pages(src, &mut graph)?;
        let reloc = Relocation::alloc_in(&graph.veb_order(), dst)?;
        self.rewrite_into(src, dst, &reloc)
    }
}

fn collect_region(store: &PageStore, root: PageId, graph: &mut PageGraph) -> Result<()> {
    let Some(root_idx) = graph.add_root(root) else {
        return Ok(());
    };
    let mut inners: Vec<InnerHandle> = Vec::new();
    let mut queue = VecDeque::from([(root, root_idx)]);
    while let Some((pid, idx)) = queue.pop_front() {
        let page = store.read(pid)?;
        let header = decode_header(&page)?;
        if !header.u_page.is_null() {
            graph.attach(idx, &[header.u_page]);
        }
        for slot in 0..header.count {
            let rec = crate::two_level::decode_record(&page, slot)?;
            for head in
                [rec.x_list.head(), rec.y_list.head(), rec.a_list.head(), rec.s_list.head()]
            {
                graph.attach(idx, &chain_pages(store, head)?);
            }
            if !rec.u_buf.is_null() {
                graph.attach(idx, &[rec.u_buf]);
            }
            inners.push(InnerHandle {
                root: rec.inner_root,
                n: rec.inner_n,
                is_region: rec.inner_is_region,
            });
            for child in [rec.left, rec.right] {
                if !child.page.is_null() && child.page != pid {
                    if let Some(child_idx) = graph.add_child(idx, child.page) {
                        queue.push_back((child.page, child_idx));
                    }
                }
            }
        }
    }
    // Inner structures after the whole region tree: each one contiguous.
    for inner in inners {
        inner.collect_pages(store, graph)?;
    }
    Ok(())
}

fn rewrite_region(
    src: &PageStore,
    dst: &PageStore,
    root: PageId,
    map: &Relocation,
) -> Result<()> {
    let mut visited = HashSet::new();
    let mut stack = vec![root];
    let mut buf = vec![0u8; src.page_size()];
    while let Some(pid) = stack.pop() {
        if !visited.insert(pid.0) {
            continue;
        }
        let page = src.read(pid)?;
        let header = decode_header(&page)?;
        if !header.u_page.is_null() {
            copy_raw(src, dst, header.u_page, map)?;
        }
        let used = {
            let mut w = PageWriter::new(&mut buf);
            encode_header(
                &mut w,
                &PageHeaderInfo {
                    count: header.count,
                    churn: header.churn,
                    subtree_n: header.subtree_n,
                    u_page: map.get(header.u_page)?,
                },
            )?;
            for slot in 0..header.count {
                let rec = crate::two_level::decode_record(&page, slot)?;
                let moved = RegionRecord {
                    left: NodeRef { page: map.get(rec.left.page)?, slot: rec.left.slot },
                    right: NodeRef { page: map.get(rec.right.page)?, slot: rec.right.slot },
                    x_list: relocate(&rec.x_list, map)?,
                    y_list: relocate(&rec.y_list, map)?,
                    right_y_list: relocate(&rec.right_y_list, map)?,
                    a_list: relocate(&rec.a_list, map)?,
                    s_list: relocate(&rec.s_list, map)?,
                    inner_root: map.get(rec.inner_root)?,
                    u_buf: map.get(rec.u_buf)?,
                    ..rec
                };
                encode_record(&mut w, &moved)?;
            }
            w.position()
        };
        for slot in 0..header.count {
            let rec = crate::two_level::decode_record(&page, slot)?;
            for head in
                [rec.x_list.head(), rec.y_list.head(), rec.a_list.head(), rec.s_list.head()]
            {
                copy_chain(src, dst, head, map)?;
            }
            if !rec.u_buf.is_null() {
                copy_raw(src, dst, rec.u_buf, map)?;
            }
            InnerHandle { root: rec.inner_root, n: rec.inner_n, is_region: rec.inner_is_region }
                .rewrite_into(src, dst, map)?;
            for child in [rec.left, rec.right] {
                if !child.page.is_null() && child.page != pid {
                    stack.push(child.page);
                }
            }
        }
        dst.write(map.get(pid)?, &buf[..used])?;
    }
    Ok(())
}

impl TwoLevelPst {
    /// Rewrites the structure into `dst` in van Emde Boas page order and
    /// returns the relocated handle. Both stores must be quiesced.
    pub fn repack(&self, src: &PageStore, dst: &PageStore) -> Result<Self> {
        Ok(TwoLevelPst { root: self.root.repack(src, dst)? })
    }
}

impl MultilevelPst {
    /// Rewrites the structure into `dst` in van Emde Boas page order and
    /// returns the relocated handle. Both stores must be quiesced.
    pub fn repack(&self, src: &PageStore, dst: &PageStore) -> Result<Self> {
        Ok(MultilevelPst { root: self.root.repack(src, dst)?, levels: self.levels })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::TwoSided;
    use pc_pagestore::Point;

    fn xorshift(state: &mut u64, bound: i64) -> i64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state % bound as u64) as i64
    }

    fn random_points(n: usize, domain: i64, seed: u64) -> Vec<Point> {
        let mut s = seed;
        (0..n)
            .map(|id| Point::new(xorshift(&mut s, domain), xorshift(&mut s, domain), id as u64))
            .collect()
    }

    fn ids(mut pts: Vec<Point>) -> Vec<u64> {
        let mut out: Vec<u64> = pts.drain(..).map(|p| p.id).collect();
        out.sort_unstable();
        out
    }

    macro_rules! assert_repack_identical {
        ($orig:expr, $src:expr, $qseed:expr, $tag:expr) => {{
            let orig = $orig;
            let dst = PageStore::in_memory(512);
            let packed = orig.repack(&$src, &dst).unwrap();
            assert_eq!(dst.live_pages(), $src.live_pages(), "{}", $tag);
            let mut s: u64 = $qseed;
            for _ in 0..30 {
                let q = TwoSided {
                    x0: xorshift(&mut s, 11_000) - 500,
                    y0: xorshift(&mut s, 11_000) - 500,
                };
                let (ra, ca) = orig.query_counted(&$src, q).unwrap();
                let (rb, cb) = packed.query_counted(&dst, q).unwrap();
                assert_eq!(ids(ra), ids(rb), "{} q={q:?}", $tag);
                assert_eq!(ca.skeletal, cb.skeletal, "{} q={q:?}", $tag);
                assert_eq!(ca.cache_blocks, cb.cache_blocks, "{} q={q:?}", $tag);
                assert_eq!(ca.node_blocks, cb.node_blocks, "{} q={q:?}", $tag);
            }
        }};
    }

    #[test]
    fn repacked_single_level_variants_answer_and_count_identically() {
        let pts = random_points(2500, 10_000, 0xd00d);
        let src = PageStore::in_memory(512);
        assert_repack_identical!(NaivePst::build(&src, &pts).unwrap(), src, 0x11, "naive");
        let src = PageStore::in_memory(512);
        assert_repack_identical!(BasicPst::build(&src, &pts).unwrap(), src, 0x22, "basic");
        let src = PageStore::in_memory(512);
        assert_repack_identical!(SegmentedPst::build(&src, &pts).unwrap(), src, 0x33, "seg");
    }

    #[test]
    fn repacked_two_level_answers_and_counts_identically() {
        let pts = random_points(4000, 15_000, 0xfeed);
        let src = PageStore::in_memory(512);
        assert_repack_identical!(TwoLevelPst::build(&src, &pts).unwrap(), src, 0x44, "two");
    }

    #[test]
    fn repacked_multilevel_answers_and_counts_identically() {
        let pts = random_points(3000, 12_000, 0xbead);
        let src = PageStore::in_memory(512);
        assert_repack_identical!(MultilevelPst::build(&src, &pts, 3).unwrap(), src, 0x55, "ml");
    }

    #[test]
    fn repacked_three_sided_answers_and_counts_identically() {
        use crate::three_sided::ThreeSided;
        let pts = random_points(4000, 10_000, 0xace);
        let src = PageStore::in_memory(512);
        let orig = ThreeSidedPst::build(&src, &pts).unwrap();
        let dst = PageStore::in_memory(512);
        let packed = orig.repack(&src, &dst).unwrap();
        assert_eq!(dst.live_pages(), src.live_pages());
        let mut s = 0x66u64;
        for _ in 0..40 {
            let x1 = xorshift(&mut s, 11_000) - 500;
            let q = ThreeSided {
                x1,
                x2: x1 + xorshift(&mut s, 4_000),
                y0: xorshift(&mut s, 11_000) - 500,
            };
            let (ra, ca) = orig.query_counted(&src, q).unwrap();
            let (rb, cb) = packed.query_counted(&dst, q).unwrap();
            assert_eq!(ids(ra), ids(rb), "q={q:?}");
            assert_eq!(
                (ca.skeletal, ca.cache_blocks, ca.node_blocks),
                (cb.skeletal, cb.cache_blocks, cb.node_blocks),
                "q={q:?}"
            );
        }
    }

    #[test]
    fn repack_empty_structures() {
        let src = PageStore::in_memory(512);
        let pst = SegmentedPst::build(&src, &[]).unwrap();
        let dst = PageStore::in_memory(512);
        let packed = pst.repack(&src, &dst).unwrap();
        assert!(packed.query(&dst, TwoSided { x0: 0, y0: 0 }).unwrap().is_empty());

        let src = PageStore::in_memory(512);
        let pst = TwoLevelPst::build(&src, &[]).unwrap();
        let dst = PageStore::in_memory(512);
        let packed = pst.repack(&src, &dst).unwrap();
        assert!(packed.query(&dst, TwoSided { x0: 0, y0: 0 }).unwrap().is_empty());
    }
}
