//! Property tests for the WAL record codec and scanner, driven by the
//! `pc-rng` shrinking harness, and for recovery of the allocation table.
//!
//! Four properties, matching how a log actually fails:
//!
//! - **round-trip**: any record sequence encodes, scans back identical,
//!   with `valid_len` covering every byte and no torn tail;
//! - **truncation**: any byte-prefix of a valid log scans to a *record
//!   prefix* of the original sequence — never an error, never a phantom
//!   record, and the torn tail is exactly the leftover bytes;
//! - **corruption**: flipping any byte inside the record region never
//!   yields a record that wasn't written: the scan result is a prefix of
//!   the original sequence (the CRC catches the damage and the scanner
//!   stops there);
//! - **recovery**: a durable store killed after any mix of allocs, frees
//!   and commits reopens with the allocation table of its last commit,
//!   free-list order included.

use pc_pagestore::backend::MemBackend;
use pc_pagestore::wal::{
    decode_record, encode_header, scan, Entry, WalRecord, MAX_RECORD_PAYLOAD, WAL_HEADER_LEN,
};
use pc_pagestore::{AllocSnapshot, LogMedium, MemLog, PageStore, StoreConfig, WalConfig};
use pc_rng::check::{check, no_shrink, shrink_vec, Config};
use pc_rng::Rng;

const PAGE: usize = 64;

fn gen_record(rng: &mut Rng) -> WalRecord {
    match rng.gen_range(0..3u64) {
        0 | 1 => {
            let entries = (0..rng.gen_range(0..8usize))
                .map(|_| {
                    let id = rng.gen_range(0..64u64);
                    if rng.gen_range(0..2u64) == 0 { Entry::Take(id) } else { Entry::Push(id) }
                })
                .collect();
            let len = rng.gen_range(0..16usize);
            let mut meta = vec![0u8; len];
            rng.fill_bytes(&mut meta);
            WalRecord::Commit { entries, meta }
        }
        _ => {
            let frees = rng.gen_range(0..6usize);
            let free_list = (0..frees).map(|_| rng.gen_range(0..64u64)).collect();
            let meta_len = rng.gen_range(0..12usize);
            let mut meta = vec![0u8; meta_len];
            rng.fill_bytes(&mut meta);
            WalRecord::Checkpoint {
                alloc: AllocSnapshot { next_id: rng.gen_range(0..128u64), free_list },
                meta,
            }
        }
    }
}

fn gen_records(rng: &mut Rng) -> Vec<WalRecord> {
    let n = rng.gen_range(0..24usize);
    (0..n).map(|_| gen_record(rng)).collect()
}

/// Drop-front/drop-back/drop-one shrinking.
fn shrink_records(recs: &[WalRecord]) -> Vec<Vec<WalRecord>> {
    shrink_vec(recs, |_| Vec::new())
}

fn encode_log(records: &[WalRecord]) -> Vec<u8> {
    let mut bytes = encode_header(PAGE);
    for r in records {
        r.encode_into(&mut bytes).unwrap();
    }
    bytes
}

#[test]
fn prop_record_sequences_round_trip_through_scan() {
    check(
        &Config::with_cases(300),
        gen_records,
        |recs| shrink_records(recs),
        |records| {
            let bytes = encode_log(records);
            let out = scan(&bytes, PAGE).map_err(|e| format!("scan failed: {e}"))?;
            if out.records != *records {
                return Err(format!(
                    "round-trip mismatch: wrote {} records, read {}",
                    records.len(),
                    out.records.len()
                ));
            }
            if out.valid_len != bytes.len() as u64 || out.torn_bytes != 0 {
                return Err(format!(
                    "clean log misreported: valid {} of {}, torn {}",
                    out.valid_len,
                    bytes.len(),
                    out.torn_bytes
                ));
            }
            Ok(())
        },
    );
}

#[test]
fn prop_any_truncation_scans_to_a_record_prefix() {
    // Input: a record sequence plus a cut fraction; the cut point is
    // derived so shrinking the records keeps the case meaningful.
    check(
        &Config::with_cases(300),
        |rng| (gen_records(rng), rng.next_u64()),
        |(recs, frac)| {
            shrink_records(recs).into_iter().map(|r| (r, *frac)).collect::<Vec<_>>()
        },
        |(records, frac)| {
            let bytes = encode_log(records);
            let cut = (*frac as usize) % (bytes.len() + 1);
            let torn = &bytes[..cut];
            let out = match scan(torn, PAGE) {
                Ok(out) => out,
                // A cut inside the header of a non-empty log loses the
                // page-size field: that is corruption, not a torn tail —
                // but only when the surviving bytes are not a strict
                // prefix of the expected header (those scan as fresh).
                Err(_) if cut < WAL_HEADER_LEN => return Ok(()),
                Err(e) => return Err(format!("cut {cut}: scan failed: {e}")),
            };
            if out.records.as_slice() != &records[..out.records.len()] {
                return Err(format!(
                    "cut {cut}: scanned records are not a written prefix"
                ));
            }
            if out.valid_len + out.torn_bytes != cut as u64 {
                return Err(format!(
                    "cut {cut}: valid {} + torn {} != {}",
                    out.valid_len, out.torn_bytes, cut
                ));
            }
            // Cutting mid-record drops exactly that record, nothing more.
            if cut == bytes.len() && out.records.len() != records.len() {
                return Err("whole log scanned short".into());
            }
            Ok(())
        },
    );
}

#[test]
fn prop_corruption_never_fabricates_records() {
    check(
        &Config::with_cases(300),
        |rng| {
            let mut records = gen_records(rng);
            if records.is_empty() {
                records.push(gen_record(rng));
            }
            (records, rng.next_u64(), rng.gen_range(1..=255u64) as u8)
        },
        no_shrink,
        |(records, pos_seed, xor)| {
            let mut bytes = encode_log(records);
            // Corrupt one byte in the record region (past the header).
            let pos = WAL_HEADER_LEN + (*pos_seed as usize) % (bytes.len() - WAL_HEADER_LEN);
            bytes[pos] ^= xor;
            let out = match scan(&bytes, PAGE) {
                Ok(out) => out,
                Err(e) => return Err(format!("pos {pos}: record damage must not make \
                                              scan error (that's for header damage): {e}")),
            };
            // Every scanned record must be one that was actually written,
            // at its position — damage can only shorten the sequence or
            // (if it hit dead bytes the CRC doesn't cover… there are none)
            // leave it intact. A length-field hit may also resynchronize
            // by luck, but the CRC makes a fabricated record astronomically
            // unlikely; we require prefix-or-equal.
            let n = out.records.len();
            if n > records.len() || out.records.as_slice() != &records[..n] {
                return Err(format!(
                    "pos {pos} xor {xor:#x}: corrupted log scanned to a non-prefix \
                     ({n} records of {})",
                    records.len()
                ));
            }
            Ok(())
        },
    );
}

#[test]
fn prop_decode_record_never_panics_on_arbitrary_bytes() {
    check(
        &Config::with_cases(500),
        |rng| {
            let len = rng.gen_range(0..128usize);
            let mut bytes = vec![0u8; len];
            rng.fill_bytes(&mut bytes);
            bytes
        },
        |v| shrink_vec(v, |_| Vec::new()),
        |bytes| {
            // Must return cleanly — None or a record whose reported length
            // fits in the buffer.
            match decode_record(bytes) {
                None => Ok(()),
                Some((_, used)) if used <= bytes.len() => Ok(()),
                Some((_, used)) => {
                    Err(format!("decode claims {used} bytes from a {}-byte buffer", bytes.len()))
                }
            }
        },
    );
}

#[test]
fn oversized_length_field_is_rejected_not_allocated() {
    // A corrupt length field must not drive a huge allocation: anything
    // over MAX_RECORD_PAYLOAD is treated as torn.
    let mut bytes = encode_header(PAGE);
    let rec_start = bytes.len();
    WalRecord::Commit { entries: vec![Entry::Take(0)], meta: vec![7; 4] }
        .encode_into(&mut bytes)
        .unwrap();
    bytes[rec_start..rec_start + 4]
        .copy_from_slice(&((MAX_RECORD_PAYLOAD as u32) + 1).to_le_bytes());
    let out = scan(&bytes, PAGE).unwrap();
    assert!(out.records.is_empty());
    assert_eq!(out.valid_len, WAL_HEADER_LEN as u64);
    assert_eq!(out.torn_bytes, (bytes.len() - WAL_HEADER_LEN) as u64);
}

#[test]
fn prop_recovery_restores_the_last_commits_allocation_table() {
    // Each byte is one op: alloc, free of a live page, or commit; the ops
    // after the last commit are the group a crash loses.
    check(
        &Config::with_cases(200),
        |rng| {
            let n = rng.gen_range(0..80usize);
            (0..n).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>()
        },
        |ops| shrink_vec(ops, |_| Vec::new()),
        |ops| {
            let log = std::sync::Arc::new(MemLog::new());
            // A small threshold, so runs cross checkpoints too.
            let wal_cfg = WalConfig { checkpoint_bytes: 300 };
            let open = |log: Box<dyn LogMedium>| {
                let backend = Box::new(MemBackend::new(PAGE + 8));
                PageStore::new_durable(StoreConfig::strict(PAGE), backend, log, wal_cfg)
            };
            let (store, _) = open(Box::new(log.clone())).map_err(|e| e.to_string())?;
            let mut live = Vec::new();
            let mut committed = store.alloc_snapshot();
            for &op in ops {
                let done = match op % 4 {
                    0 | 1 => store.alloc().map(|id| live.push(id)),
                    2 if !live.is_empty() => store.free(live.swap_remove(op as usize % live.len())),
                    2 => Ok(()),
                    _ => store.commit_with(&[op]).map(|_| committed = store.alloc_snapshot()),
                };
                done.map_err(|e| format!("op {op}: {e}"))?;
            }
            let bytes = log.read_all().map_err(|e| e.to_string())?;
            let (reopened, _) =
                open(Box::new(MemLog::from_bytes(bytes))).map_err(|e| format!("reopen: {e}"))?;
            if reopened.alloc_snapshot() != committed {
                return Err(format!(
                    "recovered {:?}, last commit left {committed:?}",
                    reopened.alloc_snapshot()
                ));
            }
            Ok(())
        },
    );
}
