//! Deterministic stress sweep for the dynamic PST: many seeds, sorted-key
//! victim selection (no HashMap iteration-order dependence).

use std::collections::{BTreeMap, HashMap};

use pc_pagestore::{PageStore, Point};
use pc_pst::{DynamicPst, TwoSided};

fn xorshift(state: &mut u64, bound: i64) -> i64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state % bound as u64) as i64
}

fn run_seed(seed: u64) -> Result<(), String> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let initial: Vec<Point> = (0..800)
        .map(|id| Point::new(xorshift(&mut s, 20_000), xorshift(&mut s, 20_000), id))
        .collect();
    let store = PageStore::in_memory(512);
    let mut pst = DynamicPst::build(&store, &initial).unwrap();
    let mut oracle: HashMap<u64, Point> = initial.iter().map(|p| (p.id, *p)).collect();
    let mut next_id = 100_000u64;
    for step in 0..1200u64 {
        if xorshift(&mut s, 3) < 2 {
            let p = Point::new(xorshift(&mut s, 20_000), xorshift(&mut s, 20_000), next_id);
            next_id += 1;
            pst.insert(&store, p).unwrap();
            oracle.insert(p.id, p);
        } else if !oracle.is_empty() {
            let mut keys: Vec<u64> = oracle.keys().copied().collect();
            keys.sort_unstable();
            let k = keys[(xorshift(&mut s, keys.len() as i64)) as usize];
            let p = oracle.remove(&k).unwrap();
            pst.delete(&store, p).unwrap();
        }
        if step % 50 == 0 || step > 1100 {
            let q = TwoSided { x0: 0, y0: 0 };
            let mut got: Vec<u64> =
                pst.query(&store, q).unwrap().iter().map(|p| p.id).collect();
            got.sort_unstable();
            got.dedup();
            let mut want: Vec<u64> = oracle.keys().copied().collect();
            want.sort_unstable();
            if got != want {
                let extra: Vec<u64> =
                    got.iter().filter(|i| !want.contains(i)).copied().collect();
                let missing: Vec<u64> =
                    want.iter().filter(|i| !got.contains(i)).copied().collect();
                if std::env::var("PC_DIAG").is_ok() {
                    for id in &extra {
                        let hits: Vec<&Point> = Vec::new();
                        let _ = hits;
                        let res = pst.query(&store, TwoSided { x0: 0, y0: 0 }).unwrap();
                        let copies: Vec<&Point> =
                            res.iter().filter(|p| p.id == *id).collect();
                        eprintln!("extra id {id}: copies in final results: {copies:?}");
                    }
                }
                return Err(format!(
                    "seed {seed} step {step}: extra={extra:?} missing={missing:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Sweeps many deterministic workload seeds; any failure reproduces
/// standalone via `PC_SEED=<n>`. Seed 15 is the regression seed for the
/// x-tie routing bug (a split shared its x with a point, sending the
/// delete trickle down the wrong branch).
#[test]
fn dynamic_stress_seed_sweep() {
    let mut failures = Vec::new();
    let range: Vec<u64> = match std::env::var("PC_SEED") {
        Ok(v) => vec![v.parse().unwrap()],
        Err(_) => (0..25).collect(),
    };
    for seed in range {
        if let Err(e) = run_seed(seed) {
            failures.push(e);
        }
    }
    assert!(failures.is_empty(), "{failures:?}");
}

/// 20 000 points on 1 KiB pages, 12 000 updates, a random 2-sided query
/// every 40 steps against a `BTreeMap` model. At 1 KiB a skeletal page
/// would hold an even number of region records, so BFS-fill would split a
/// sibling pair across pages, which the dynamic S-caches do not cover;
/// `two_level::skeletal_capacity` therefore keeps the count odd.
#[test]
fn random_queries_track_a_model_on_1k_pages() {
    const DOMAIN: i64 = 1_000_000;
    let mut wrong = Vec::new();
    for seed in 0..5u64 {
        let mut s = (seed + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut model: BTreeMap<u64, Point> = (0..20_000)
            .map(|id| (id, Point::new(xorshift(&mut s, DOMAIN), xorshift(&mut s, DOMAIN), id)))
            .collect();
        let store = PageStore::in_memory(1024);
        let initial: Vec<Point> = model.values().copied().collect();
        let mut pst = DynamicPst::build(&store, &initial).unwrap();
        let mut next_id = 20_000u64;
        for step in 0..12_000u64 {
            if xorshift(&mut s, 2) == 0 {
                let p = Point::new(xorshift(&mut s, DOMAIN), xorshift(&mut s, DOMAIN), next_id);
                next_id += 1;
                pst.insert(&store, p).unwrap();
                model.insert(p.id, p);
            } else {
                let at = xorshift(&mut s, next_id as i64) as u64;
                let victim = model.range(at..).next().or_else(|| model.iter().next());
                if let Some((&id, &p)) = victim {
                    model.remove(&id);
                    pst.delete(&store, p).unwrap();
                }
            }
            if step % 40 == 0 {
                let q = TwoSided { x0: xorshift(&mut s, DOMAIN), y0: xorshift(&mut s, DOMAIN) };
                let mut got: Vec<u64> =
                    pst.query(&store, q).unwrap().iter().map(|p| p.id).collect();
                got.sort_unstable();
                let want: Vec<u64> = model
                    .values()
                    .filter(|p| q.contains(p))
                    .map(|p| p.id)
                    .collect();
                if got != want {
                    wrong.push((seed, step));
                }
            }
        }
    }
    assert!(wrong.is_empty(), "{} wrong answers, first {:?}", wrong.len(), wrong.first());
}
