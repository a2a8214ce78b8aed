//! Crash recovery: rebuilding the allocation table from a scanned WAL.
//!
//! The scan ([`crate::wal::scan`]) dropped any torn tail, and an open group
//! never reaches the log, so every record left is acknowledged. Recovery
//! starts from the last checkpoint's snapshot and applies each later
//! commit's entries in log order, as the live store made them, so the free
//! list comes back in its order. A take the allocator would not make is
//! [`StoreError::Corrupt`].
//!
//! Recovery writes no frame: the store syncs the data backend before each
//! commit record, so the data file holds every committed page. Frames a
//! group that never committed wrote sit on pages the recovered table calls
//! free or has never handed out; the store zeroes such a page when it
//! allocates it.

use crate::error::{Result, StoreError};
use crate::wal::{AllocSnapshot, Entry, ScanOutcome, WalRecord};

/// What recovery found and did while reopening a durable store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Entries of the replayed commits applied to the allocation table.
    pub replayed_entries: u64,
    /// Commit records replayed (= durable groups recovered).
    pub commits: u64,
    /// True when the log ended in a torn or corrupt tail that was dropped.
    pub torn_tail: bool,
    /// Metadata payload of the last replayed commit — the caller's batch
    /// marker, telling the layer above exactly which acknowledged batch
    /// the store recovered to. `None` when the log held no commit.
    pub last_commit_meta: Option<Vec<u8>>,
    /// True when the *data file* ended mid-frame and its dangling tail was
    /// truncated ([`crate::PageStore::file_durable`]; false in memory).
    pub data_torn_tail: bool,
}

impl RecoveryReport {
    /// Total entries and commits replayed.
    pub fn replayed_records(&self) -> u64 {
        self.replayed_entries + self.commits
    }

    /// True when recovery had nothing to do: no replay and no torn tail —
    /// the store was closed cleanly.
    pub fn clean(&self) -> bool {
        self.replayed_records() == 0 && !self.torn_tail && !self.data_torn_tail
    }
}

/// Replays `outcome`: the last checkpoint's snapshot, then the entries of
/// every commit after it. Returns the report plus the reconstructed
/// allocation snapshot.
pub fn replay(outcome: &ScanOutcome) -> Result<(RecoveryReport, AllocSnapshot)> {
    let mut report = RecoveryReport { torn_tail: outcome.torn_bytes > 0, ..Default::default() };
    let mut snap = AllocSnapshot::default();
    for rec in &outcome.records {
        match rec {
            // A checkpoint holds everything before it, and re-embeds the
            // commit metadata current when it was installed: a crash before
            // the next commit must still report it.
            WalRecord::Checkpoint { alloc, meta } => {
                snap = alloc.clone();
                (report.replayed_entries, report.commits) = (0, 0);
                report.last_commit_meta = (!meta.is_empty()).then(|| meta.clone());
            }
            WalRecord::Commit { entries, meta } => {
                for &entry in entries {
                    match entry {
                        Entry::Take(id) => {
                            let got = snap.take();
                            if got != id {
                                let msg = format!("WAL takes page {id}; the allocator gives {got}");
                                return Err(StoreError::Corrupt(msg));
                            }
                        }
                        Entry::Push(id) => snap.free_list.push(id),
                    }
                }
                report.replayed_entries += entries.len() as u64;
                report.commits += 1;
                report.last_commit_meta = Some(meta.clone());
            }
        }
    }
    Ok((report, snap))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{encode_header, scan};
    use Entry::{Push, Take};

    fn scan_of(records: &[WalRecord], page_size: usize) -> ScanOutcome {
        torn_scan_of(records, page_size, 0)
    }

    /// The scan of `records` with their last `cut` bytes torn off.
    fn torn_scan_of(records: &[WalRecord], page_size: usize, cut: usize) -> ScanOutcome {
        let mut bytes = encode_header(page_size);
        for r in records {
            r.encode_into(&mut bytes).unwrap();
        }
        scan(&bytes[..bytes.len() - cut], page_size).unwrap()
    }

    fn commit(entries: &[Entry], meta: &[u8]) -> WalRecord {
        WalRecord::Commit { entries: entries.to_vec(), meta: meta.to_vec() }
    }

    #[test]
    fn replay_stops_at_the_last_commit() {
        // Every whole commit applies, in order; the torn one after them
        // never reached the log as a commit.
        let recs = [
            commit(&[Take(0), Take(1)], &[1]),
            commit(&[Take(2), Push(0)], &[2]),
            commit(&[Take(0), Take(3)], &[3]),
        ];
        let (report, snap) = replay(&torn_scan_of(&recs, 64, 3)).unwrap();
        assert_eq!((report.replayed_entries, report.commits), (4, 2));
        assert_eq!(report.last_commit_meta.as_deref(), Some(&[2u8][..]));
        assert!(report.torn_tail);
        assert!(!report.clean());
        assert_eq!(snap, AllocSnapshot { next_id: 3, free_list: vec![0] });
    }

    #[test]
    fn no_commit_means_nothing_replays() {
        let (report, snap) = replay(&torn_scan_of(&[commit(&[Take(0)], &[1])], 64, 1)).unwrap();
        assert_eq!(report.replayed_records(), 0);
        assert!(report.torn_tail);
        assert_eq!(report.last_commit_meta, None);
        assert_eq!(snap, AllocSnapshot::default());
    }

    #[test]
    fn replay_starts_after_the_last_checkpoint() {
        let recs = vec![
            // Pre-checkpoint history must NOT be replayed: the checkpoint's
            // snapshot already holds it.
            commit(&[Take(0)], &[]),
            WalRecord::Checkpoint {
                alloc: AllocSnapshot { next_id: 3, free_list: vec![2] },
                meta: b"ckpt-era".to_vec(),
            },
            commit(&[Take(2)], &[9]),
        ];
        let (report, snap) = replay(&scan_of(&recs, 64)).unwrap();
        assert_eq!(report.replayed_entries, 1, "only the post-checkpoint entry");
        assert_eq!(report.commits, 1, "only the post-checkpoint commit");
        assert_eq!(
            report.last_commit_meta.as_deref(),
            Some(&[9u8][..]),
            "a commit after the checkpoint overrides the checkpoint's re-embedded metadata"
        );
        assert_eq!(snap, AllocSnapshot { next_id: 3, free_list: vec![] });
    }

    #[test]
    fn alloc_and_free_replay_preserves_recycling_order() {
        // Start from a checkpoint with free list [5, 3] (3 recycles first:
        // alloc pops from the back).
        let recs = vec![
            WalRecord::Checkpoint {
                alloc: AllocSnapshot { next_id: 6, free_list: vec![5, 3] },
                meta: vec![],
            },
            // Page 6, taken and freed in one group, is pushed at once;
            // committed page 0 is pushed at the commit, after the rest.
            commit(&[Take(3), Take(5), Take(6), Push(6), Push(0)], &[]),
            commit(&[Take(0), Push(3)], &[]),
        ];
        let (report, snap) = replay(&scan_of(&recs, 64)).unwrap();
        assert_eq!(report.replayed_entries, 7);
        assert_eq!(snap, AllocSnapshot { next_id: 7, free_list: vec![6, 3] });
    }

    #[test]
    fn a_take_the_allocator_would_not_make_is_corrupt() {
        let checkpoint = WalRecord::Checkpoint {
            alloc: AllocSnapshot { next_id: 4, free_list: vec![1] },
            meta: vec![],
        };
        // With page 1 on the free list, the allocator hands out 1, not 4.
        for bad in [Take(4), Take(0), Take(9)] {
            let recs = [checkpoint.clone(), commit(&[bad], &[])];
            assert!(matches!(replay(&scan_of(&recs, 64)), Err(StoreError::Corrupt(_))), "{bad:?}");
        }
        let recs = [checkpoint, commit(&[Take(1), Take(4)], &[])];
        assert_eq!(replay(&scan_of(&recs, 64)).unwrap().1.next_id, 5);
    }

    #[test]
    fn clean_log_reports_clean() {
        // Exactly what a checkpointed, cleanly-closed store leaves behind.
        let recs = vec![WalRecord::Checkpoint {
            alloc: AllocSnapshot { next_id: 2, free_list: vec![] },
            meta: b"sticky".to_vec(),
        }];
        let (report, snap) = replay(&scan_of(&recs, 64)).unwrap();
        assert!(report.clean(), "{report:?}");
        assert_eq!(
            report.last_commit_meta.as_deref(),
            Some(&b"sticky"[..]),
            "a clean checkpoint-only log still restores the commit metadata"
        );
        assert_eq!(snap.next_id, 2);
        // An empty log is clean too.
        let (report, snap) = replay(&ScanOutcome::default()).unwrap();
        assert!(report.clean());
        assert_eq!(snap, AllocSnapshot::default());
    }
}
