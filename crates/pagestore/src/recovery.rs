//! Crash recovery: the last commit's descriptors are the allocation table.
//!
//! The scan ([`crate::wal::scan`]) drops a torn tail, and an open group
//! never reaches the log, so the last record is the last acknowledged
//! commit. A committed page is never overwritten, so the pages its
//! descriptors reach are intact on the medium, and every other id is free.
//! A reopened store starts with every id below the data file's frame count
//! allocated, so its owner can open its structures from the recovered
//! metadata and walk them; it then hands the store the ids they reach, once
//! and before any alloc or free ([`crate::PageStore::free_unreached`]), and
//! the store frees the rest. A log with no record reopens empty. Recovery
//! writes no frame: a page a lost group wrote is zeroed when handed out.

/// What recovery found while reopening a durable store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// True when the log ended in a torn or corrupt tail that was dropped.
    pub torn_tail: bool,
    /// Metadata of the last record — the caller's batch marker, telling the
    /// layer above exactly which acknowledged batch the store recovered to.
    /// `None` when the log held no record.
    pub last_commit_meta: Option<Vec<u8>>,
    /// True when the *data file* ended mid-frame and its dangling tail was
    /// truncated ([`crate::PageStore::file_durable`]; false in memory).
    pub data_torn_tail: bool,
}

impl RecoveryReport {
    /// True when neither the log nor the data file ended in a torn tail:
    /// the store was closed cleanly.
    pub fn clean(&self) -> bool {
        !self.torn_tail && !self.data_torn_tail
    }
}

#[cfg(test)]
mod tests {
    use crate::backend::MemBackend;
    use crate::store::{PageId, PageStore, StoreConfig, WalConfig, CHECKSUM_LEN};
    use crate::wal::{encode_header, encode_record, scan, LogMedium, MemLog};
    use std::sync::Arc;

    const PAGE: usize = 64;

    /// A log of one record per meta, its last `cut` bytes torn off.
    fn log_of(metas: &[&[u8]], cut: usize) -> MemLog {
        let mut bytes = encode_header(PAGE);
        for meta in metas {
            encode_record(&mut bytes, meta).unwrap();
        }
        MemLog::from_bytes(bytes[..bytes.len() - cut].to_vec())
    }

    fn reopen(
        backend: &Arc<MemBackend>,
        log: impl LogMedium + 'static,
    ) -> (PageStore, crate::RecoveryReport) {
        let data = Box::new(Arc::clone(backend));
        PageStore::new_durable(StoreConfig::strict(PAGE), data, Box::new(log), WalConfig::default())
            .unwrap()
    }

    #[test]
    fn replay_stops_at_the_last_commit() {
        // The torn record after the whole ones never reached the log as a
        // commit: the one before it names the recovered state.
        let backend = Arc::new(MemBackend::new(PAGE + CHECKSUM_LEN));
        let (_, report) = reopen(&backend, log_of(&[&[1], &[2], &[3]], 3));
        assert_eq!(report.last_commit_meta.as_deref(), Some(&[2u8][..]));
        assert!(report.torn_tail);
        assert!(!report.clean());
    }

    /// A log with no whole record reopens empty: every frame on the medium
    /// is free, and an id handed out again reads as zeros.
    #[test]
    fn no_commit_means_nothing_replays() {
        let backend = Arc::new(MemBackend::new(PAGE + CHECKSUM_LEN));
        let (store, _) = reopen(&backend, MemLog::new());
        for _ in 0..3 {
            let id = store.alloc().unwrap();
            store.write(id, b"never committed").unwrap();
        }
        drop(store);
        let (store, report) = reopen(&backend, log_of(&[&[1]], 1));
        assert!(report.torn_tail);
        assert_eq!(report.last_commit_meta, None);
        assert!(store.allocated_pages().is_empty());
        assert_eq!(store.alloc().unwrap(), PageId(0), "the lowest free id first");
        assert!(store.read(PageId(0)).unwrap().iter().all(|&b| b == 0));
    }

    /// A checkpoint swaps the log for its last record; a commit after it
    /// is the one a reopen names, and the reopen's own swap keeps it alone.
    #[test]
    fn replay_starts_after_the_last_checkpoint() {
        let backend = Arc::new(MemBackend::new(PAGE + CHECKSUM_LEN));
        let log = Arc::new(MemLog::new());
        let (store, _) = reopen(&backend, Arc::clone(&log));
        for meta in [&b"before"[..], b"checkpointed"] {
            store.alloc().unwrap();
            store.commit_with(meta).unwrap();
        }
        store.checkpoint().unwrap();
        assert_eq!(scan(&log.read_all().unwrap(), PAGE).unwrap().records, [b"checkpointed"]);
        store.alloc().unwrap();
        store.commit_with(b"after").unwrap();
        drop(store);
        let (_, report) = reopen(&backend, Arc::clone(&log));
        assert_eq!(report.last_commit_meta.as_deref(), Some(&b"after"[..]));
        assert_eq!(scan(&log.read_all().unwrap(), PAGE).unwrap().records, [b"after"]);
    }

    #[test]
    fn clean_log_reports_clean() {
        // Exactly what a checkpointed, cleanly-closed store leaves behind.
        let backend = Arc::new(MemBackend::new(PAGE + CHECKSUM_LEN));
        let (_, report) = reopen(&backend, log_of(&[b"sticky"], 0));
        assert!(report.clean(), "{report:?}");
        assert_eq!(
            report.last_commit_meta.as_deref(),
            Some(&b"sticky"[..]),
            "a clean one-record log still restores the commit metadata"
        );
        // An empty log is clean too.
        let (_, report) = reopen(&backend, MemLog::new());
        assert!(report.clean());
        assert_eq!(report.last_commit_meta, None);
    }
}
