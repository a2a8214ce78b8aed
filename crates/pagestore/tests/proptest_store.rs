//! Property tests for the storage substrate: arbitrary operation sequences
//! against an in-memory oracle, across backend/pool configurations.
//!
//! Runs on the in-tree `pc_rng::check` harness (hermetic replacement for
//! proptest): seeded generation, greedy shrinking, regression seeds pinned
//! in code. The one case proptest had persisted in
//! `proptest_store.proptest-regressions` is carried over below as the
//! explicit unit test [`regression_free_then_realloc_reads_zero`].

use std::collections::HashMap;

use pc_rng::check::{check, shrink_usize, shrink_vec, Config};
use pc_rng::Rng;

use pc_pagestore::{PageId, PageStore, StoreError};

/// One storage operation in a generated sequence.
#[derive(Debug, Clone)]
enum Op {
    Alloc,
    /// Write `fill` bytes of value `byte` to the i-th live page.
    Write { page_sel: usize, byte: u8, fill: usize },
    /// Read the i-th live page and compare against the oracle.
    Read { page_sel: usize },
    /// Free the i-th live page.
    Free { page_sel: usize },
}

/// Weighted op draw matching the old proptest strategy: 2 alloc, 4 write,
/// 4 read, 1 free.
fn gen_op(rng: &mut Rng) -> Op {
    match rng.gen_range(0usize..11) {
        0 | 1 => Op::Alloc,
        2..=5 => Op::Write {
            page_sel: rng.gen_range(0usize..=usize::MAX),
            byte: rng.gen_range(0u64..=255) as u8,
            fill: rng.gen_range(0usize..64),
        },
        6..=9 => Op::Read { page_sel: rng.gen_range(0usize..=usize::MAX) },
        _ => Op::Free { page_sel: rng.gen_range(0usize..=usize::MAX) },
    }
}

fn gen_ops(rng: &mut Rng) -> Vec<Op> {
    let n = rng.gen_range(1usize..200);
    (0..n).map(|_| gen_op(rng)).collect()
}

fn shrink_op(op: &Op) -> Vec<Op> {
    match *op {
        Op::Alloc => Vec::new(),
        Op::Write { page_sel, byte, fill } => {
            let mut out: Vec<Op> = shrink_usize(page_sel)
                .into_iter()
                .map(|p| Op::Write { page_sel: p, byte, fill })
                .collect();
            out.extend(shrink_usize(fill).into_iter().map(|f| Op::Write { page_sel, byte, fill: f }));
            out
        }
        Op::Read { page_sel } => {
            shrink_usize(page_sel).into_iter().map(|p| Op::Read { page_sel: p }).collect()
        }
        Op::Free { page_sel } => {
            shrink_usize(page_sel).into_iter().map(|p| Op::Free { page_sel: p }).collect()
        }
    }
}

macro_rules! ensure {
    ($cond:expr, $($arg:tt)+) => {
        if !$cond {
            return Err(format!($($arg)+));
        }
    };
}

fn run_ops(store: &PageStore, ops: &[Op]) -> Result<(), String> {
    let page_size = store.page_size();
    let mut live: Vec<PageId> = Vec::new();
    let mut oracle: HashMap<u64, Vec<u8>> = HashMap::new();
    for op in ops {
        match op {
            Op::Alloc => {
                let id = store.alloc().unwrap();
                ensure!(!live.contains(&id), "allocator returned a live id {id:?}");
                live.push(id);
                oracle.insert(id.0, vec![0u8; page_size]);
            }
            Op::Write { page_sel, byte, fill } => {
                if live.is_empty() {
                    continue;
                }
                let id = live[page_sel % live.len()];
                let data = vec![*byte; *fill];
                store.write(id, &data).unwrap();
                let entry = oracle.get_mut(&id.0).unwrap();
                entry.fill(0);
                entry[..data.len()].copy_from_slice(&data);
            }
            Op::Read { page_sel } => {
                if live.is_empty() {
                    continue;
                }
                let id = live[page_sel % live.len()];
                let page = store.read(id).unwrap();
                ensure!(page[..] == oracle[&id.0][..], "page {id:?} diverged from oracle");
            }
            Op::Free { page_sel } => {
                if live.is_empty() {
                    continue;
                }
                let idx = page_sel % live.len();
                let id = live.swap_remove(idx);
                store.free(id).unwrap();
                oracle.remove(&id.0);
                ensure!(
                    matches!(store.read(id), Err(StoreError::PageNotAllocated(_))),
                    "freed page {id:?} still readable"
                );
            }
        }
    }
    // Final sweep: every live page still reads back exactly.
    for id in &live {
        let page = store.read(*id).unwrap();
        ensure!(page[..] == oracle[&id.0][..], "final sweep: page {id:?} diverged");
    }
    ensure!(
        store.live_pages() == live.len() as u64,
        "live_pages {} != oracle {}",
        store.live_pages(),
        live.len()
    );
    Ok(())
}

fn shrink_ops(ops: &[Op]) -> Vec<Vec<Op>> {
    shrink_vec(ops, shrink_op)
}

/// Strict in-memory store behaves like a map of pages.
#[test]
fn strict_store_matches_oracle() {
    check(&Config::with_cases(48), gen_ops, |ops| shrink_ops(ops), |ops| {
        let store = PageStore::in_memory(64);
        run_ops(&store, ops)
    });
}

/// A pooled store (tiny pool, constant eviction) returns identical
/// contents — the pool must be transparent.
#[test]
fn pooled_store_matches_oracle() {
    check(&Config::with_cases(48), gen_ops, |ops| shrink_ops(ops), |ops| {
        let store = PageStore::in_memory_pooled(64, 3);
        run_ops(&store, ops)
    });
}

/// Strict and pooled stores see the same logical access counts:
/// pooled reads + hits == strict reads.
#[test]
fn pool_preserves_logical_access_counts() {
    let gen_shorter = |rng: &mut Rng| {
        let n = rng.gen_range(1usize..150);
        (0..n).map(|_| gen_op(rng)).collect::<Vec<Op>>()
    };
    check(&Config::with_cases(48), gen_shorter, |ops| shrink_ops(ops), |ops| {
        let strict = PageStore::in_memory(64);
        let pooled = PageStore::in_memory_pooled(64, 5);
        run_ops(&strict, ops)?;
        run_ops(&pooled, ops)?;
        let s = strict.stats();
        let p = pooled.stats();
        ensure!(
            p.reads + p.cache_hits == s.reads + s.cache_hits,
            "logical reads diverged: pooled {}+{} vs strict {}+{}",
            p.reads,
            p.cache_hits,
            s.reads,
            s.cache_hits
        );
        ensure!(p.allocs == s.allocs, "alloc counts diverged");
        ensure!(p.frees == s.frees, "free counts diverged");
        Ok(())
    });
}

/// Carried over from `proptest_store.proptest-regressions` (shrunk case
/// `[Alloc, Write { page_sel: 0, byte: 1, fill: 1 }, Free { page_sel:
/// 20364825358 }, Alloc]`): a freed-then-recycled page must read as
/// all-zero, not leak its previous contents.
#[test]
fn regression_free_then_realloc_reads_zero() {
    let ops = [
        Op::Alloc,
        Op::Write { page_sel: 0, byte: 1, fill: 1 },
        Op::Free { page_sel: 20_364_825_358 },
        Op::Alloc,
    ];
    let strict = PageStore::in_memory(64);
    run_ops(&strict, &ops).unwrap();
    let pooled = PageStore::in_memory_pooled(64, 3);
    run_ops(&pooled, &ops).unwrap();
}

#[test]
fn pooled_file_store_matches_oracle_after_sync_cycles() {
    // A deterministic mixed workload against a real file with a tiny pool,
    // interleaving syncs.
    let dir = std::env::temp_dir().join(format!("pcprop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("prop.bin");
    {
        let backend = pc_pagestore::backend::FileBackend::open(&path, 64 + 8).unwrap();
        let store = PageStore::new(
            pc_pagestore::StoreConfig { page_size: 64, pool_pages: 2, pool_shards: 2 },
            Box::new(backend),
        );
        let ids: Vec<PageId> = (0..16).map(|_| store.alloc().unwrap()).collect();
        for round in 0..10u8 {
            for (i, &id) in ids.iter().enumerate() {
                store.write(id, &[round.wrapping_mul(17) ^ i as u8; 30]).unwrap();
            }
            if round % 3 == 0 {
                store.sync().unwrap();
            }
            for (i, &id) in ids.iter().enumerate() {
                let page = store.read(id).unwrap();
                assert_eq!(page[0], round.wrapping_mul(17) ^ i as u8);
                assert_eq!(page[29], page[0]);
                assert_eq!(page[30], 0);
            }
        }
        store.sync().unwrap();
    }
    std::fs::remove_file(&path).unwrap();
}
