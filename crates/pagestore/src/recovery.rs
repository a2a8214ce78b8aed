//! Crash recovery: rebuilding the allocation table from a scanned WAL.
//!
//! The scan ([`crate::wal::scan`]) already dropped any torn tail; this
//! module replays the surviving records *up to the last commit* — records
//! after it are intact but unacknowledged, so they are discarded (counted
//! in the report), never applied. Stopping at the last commit lands the
//! store exactly on the most recent acknowledged consistency point.
//!
//! Recovery writes no frame. A durable store never overwrites a committed
//! page and syncs the data backend before each commit record, so the data
//! file already holds every committed page as it was committed. What
//! remains is the allocation table: the last checkpoint snapshot plus the
//! replayed alloc/free records, with the free list in the order the live
//! store built it. Frames an uncommitted group wrote sit on pages the
//! recovered table calls free or has never handed out; the store zeroes
//! such a page when it allocates it.

use std::collections::HashSet;

use crate::wal::{AllocSnapshot, ScanOutcome, WalRecord};

/// What recovery found and did while reopening a durable store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Allocation records replayed into the allocation table.
    pub replayed_allocs: u64,
    /// Free records replayed into the allocation table.
    pub replayed_frees: u64,
    /// Commit records inside the replayed range (= durable batches
    /// recovered).
    pub commits: u64,
    /// True when the log ended in a torn or corrupt tail that was dropped.
    pub torn_tail: bool,
    /// Intact records after the last commit, discarded as unacknowledged
    /// (plus any records the torn tail cut off are simply absent).
    pub discarded_records: u64,
    /// Metadata payload of the last replayed commit — the caller's batch
    /// marker, telling the layer above exactly which acknowledged batch
    /// the store recovered to. `None` when the log held no commit.
    pub last_commit_meta: Option<Vec<u8>>,
    /// True when the *data file* (not the log) ended mid-frame and the
    /// dangling tail was truncated before replay. Filled in by
    /// [`crate::PageStore::file_durable`]; always false for replay over
    /// in-memory media.
    pub data_torn_tail: bool,
}

impl RecoveryReport {
    /// Total records replayed (allocs + frees + commits).
    pub fn replayed_records(&self) -> u64 {
        self.replayed_allocs + self.replayed_frees + self.commits
    }

    /// True when recovery had nothing to do: no replay, no torn tail, no
    /// discarded records — the store was closed cleanly.
    pub fn clean(&self) -> bool {
        self.replayed_records() == 0
            && self.discarded_records == 0
            && !self.torn_tail
            && !self.data_torn_tail
    }
}

/// Replays `outcome`'s allocation records, stopping at the last commit.
///
/// Returns the report plus the reconstructed allocation snapshot. As in
/// the live store, a page freed in the group that allocated it is free at
/// once, and any other freed page joins the free list at its group's
/// commit, so the free list comes back in the live store's order.
pub fn replay(outcome: &ScanOutcome) -> (RecoveryReport, AllocSnapshot) {
    let mut report = RecoveryReport { torn_tail: outcome.torn_bytes > 0, ..Default::default() };

    // The replayable range: after the last checkpoint (a snapshot of
    // everything before it), up to and including the last commit.
    let ckpt = outcome
        .records
        .iter()
        .rposition(|r| matches!(r, WalRecord::Checkpoint { .. }));
    let mut snap = match ckpt.map(|i| &outcome.records[i]) {
        Some(WalRecord::Checkpoint { alloc, meta, .. }) => {
            // The checkpoint re-embeds the commit metadata that was
            // current when it was installed; without it, a crash after a
            // checkpoint (with no later commit) would forget which
            // acknowledged batch the store sits on. A later commit in the
            // replay range overrides this.
            if !meta.is_empty() {
                report.last_commit_meta = Some(meta.clone());
            }
            alloc.clone()
        }
        _ => AllocSnapshot::default(),
    };
    let start = ckpt.map(|i| i + 1).unwrap_or(0);
    let end = outcome.records[start..]
        .iter()
        .rposition(|r| matches!(r, WalRecord::Commit { .. }))
        // No commit since the checkpoint: nothing is acknowledged, so
        // nothing is replayed and everything pending is discarded.
        .map_or(start, |i| start + i + 1);
    report.discarded_records = (outcome.records.len() - end) as u64;

    // The open group, as the live store tracks it.
    let mut fresh: HashSet<u64> = HashSet::new();
    let mut held: Vec<u64> = Vec::new();
    for rec in &outcome.records[start..end] {
        match rec {
            WalRecord::Alloc { page, .. } => {
                let id = page.0;
                if let Some(pos) = snap.free_list.iter().rposition(|&f| f == id) {
                    snap.free_list.remove(pos);
                }
                snap.next_id = snap.next_id.max(id + 1);
                fresh.insert(id);
                report.replayed_allocs += 1;
            }
            WalRecord::Free { page, .. } => {
                if fresh.contains(&page.0) {
                    snap.free_list.push(page.0);
                } else {
                    held.push(page.0);
                }
                report.replayed_frees += 1;
            }
            WalRecord::Commit { meta, .. } => {
                fresh.clear();
                snap.free_list.append(&mut held);
                report.commits += 1;
                report.last_commit_meta = Some(meta.clone());
            }
            // The range starts after the last checkpoint.
            WalRecord::Checkpoint { .. } => unreachable!("checkpoint inside the replay range"),
        }
    }
    (report, snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PageId;
    use crate::wal::{encode_header, scan};

    fn scan_of(records: &[WalRecord], page_size: usize) -> ScanOutcome {
        let mut bytes = encode_header(page_size);
        for r in records {
            r.encode_into(&mut bytes);
        }
        scan(&bytes, page_size).unwrap()
    }

    #[test]
    fn replay_stops_at_the_last_commit() {
        let recs = vec![
            WalRecord::Alloc { lsn: 1, page: PageId(0) },
            WalRecord::Alloc { lsn: 2, page: PageId(1) },
            WalRecord::Commit { lsn: 3, meta: vec![1] },
            WalRecord::Free { lsn: 4, page: PageId(0) },
            WalRecord::Alloc { lsn: 5, page: PageId(2) },
        ];
        let (report, snap) = replay(&scan_of(&recs, 64));
        assert_eq!(report.replayed_allocs, 2);
        assert_eq!(report.replayed_frees, 0);
        assert_eq!(report.commits, 1);
        assert_eq!(report.discarded_records, 2, "records past the commit are dropped");
        assert_eq!(report.last_commit_meta.as_deref(), Some(&[1u8][..]));
        assert!(!report.torn_tail);
        assert!(!report.clean());
        assert_eq!(snap, AllocSnapshot { next_id: 2, free_list: vec![] });
    }

    #[test]
    fn replay_starts_after_the_last_checkpoint() {
        let recs = vec![
            // Pre-checkpoint history must NOT be replayed: the checkpoint's
            // snapshot already holds it.
            WalRecord::Alloc { lsn: 1, page: PageId(7) },
            WalRecord::Commit { lsn: 2, meta: vec![] },
            WalRecord::Checkpoint {
                lsn: 3,
                alloc: AllocSnapshot { next_id: 3, free_list: vec![2] },
                meta: b"ckpt-era".to_vec(),
            },
            WalRecord::Alloc { lsn: 4, page: PageId(2) },
            WalRecord::Commit { lsn: 5, meta: vec![9] },
        ];
        let (report, snap) = replay(&scan_of(&recs, 64));
        assert_eq!(report.replayed_allocs, 1, "only the post-checkpoint alloc");
        assert_eq!(report.commits, 1, "only the post-checkpoint commit");
        assert_eq!(
            report.last_commit_meta.as_deref(),
            Some(&[9u8][..]),
            "a commit after the checkpoint overrides the checkpoint's re-embedded metadata"
        );
        assert_eq!(snap, AllocSnapshot { next_id: 3, free_list: vec![] });
    }

    #[test]
    fn no_commit_means_nothing_replays() {
        let recs = vec![
            WalRecord::Alloc { lsn: 1, page: PageId(0) },
            WalRecord::Alloc { lsn: 2, page: PageId(1) },
        ];
        let (report, snap) = replay(&scan_of(&recs, 64));
        assert_eq!(report.replayed_records(), 0);
        assert_eq!(report.discarded_records, 2);
        assert_eq!(report.last_commit_meta, None);
        assert_eq!(snap, AllocSnapshot::default());
    }

    #[test]
    fn alloc_and_free_replay_preserves_recycling_order() {
        // Start from a checkpoint with free list [5, 3] (3 recycles first:
        // alloc pops from the back).
        let recs = vec![
            WalRecord::Checkpoint {
                lsn: 1,
                alloc: AllocSnapshot { next_id: 6, free_list: vec![5, 3] },
                meta: vec![],
            },
            WalRecord::Alloc { lsn: 2, page: PageId(3) },
            // Page 0 was committed: it joins the free list at the commit.
            WalRecord::Free { lsn: 3, page: PageId(0) },
            WalRecord::Alloc { lsn: 4, page: PageId(6) },
            // Page 6 was allocated in this group: free at once.
            WalRecord::Free { lsn: 5, page: PageId(6) },
            WalRecord::Commit { lsn: 6, meta: vec![] },
            // Page 3 was allocated by the previous group: committed.
            WalRecord::Free { lsn: 7, page: PageId(3) },
            WalRecord::Commit { lsn: 8, meta: vec![] },
        ];
        let (report, snap) = replay(&scan_of(&recs, 64));
        assert_eq!(report.replayed_allocs, 2);
        assert_eq!(report.replayed_frees, 3);
        assert_eq!(snap, AllocSnapshot { next_id: 7, free_list: vec![5, 6, 0, 3] });
    }

    #[test]
    fn clean_log_reports_clean() {
        // Exactly what a checkpointed, cleanly-closed store leaves behind.
        let recs = vec![WalRecord::Checkpoint {
            lsn: 1,
            alloc: AllocSnapshot { next_id: 2, free_list: vec![] },
            meta: b"sticky".to_vec(),
        }];
        let (report, snap) = replay(&scan_of(&recs, 64));
        assert!(report.clean(), "{report:?}");
        assert_eq!(
            report.last_commit_meta.as_deref(),
            Some(&b"sticky"[..]),
            "a clean checkpoint-only log still restores the commit metadata"
        );
        assert_eq!(snap.next_id, 2);
        // An empty log is clean too.
        let (report, snap) = replay(&ScanOutcome::default());
        assert!(report.clean());
        assert_eq!(snap, AllocSnapshot::default());
    }
}
