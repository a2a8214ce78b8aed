//! Error type shared by all storage operations.

use std::fmt;

use crate::store::PageId;

/// Result alias used throughout the storage layer.
pub type Result<T> = std::result::Result<T, StoreError>;

/// Errors raised by the page store and structures built on it.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying operating-system I/O failure (file backend only).
    Io(std::io::Error),
    /// A page id was used that has never been allocated or was freed.
    PageNotAllocated(PageId),
    /// Stored checksum did not match page contents — torn or corrupt write.
    ChecksumMismatch(PageId),
    /// A write payload was larger than the configured page size.
    PayloadTooLarge {
        /// Size of the rejected payload in bytes.
        payload: usize,
        /// Configured usable page size in bytes.
        page_size: usize,
    },
    /// A page-layout decode failed (truncated or malformed on-page data).
    Corrupt(String),
    /// A log record's payload exceeds what the log's scanner accepts
    /// ([`crate::wal::MAX_RECORD_PAYLOAD`]); nothing was written.
    LogRecordTooLarge {
        /// Size of the refused payload in bytes.
        payload: usize,
        /// Largest payload a record may carry.
        max: usize,
    },
    /// A durable store refused a write to a page the last commit holds: a
    /// committed page is never overwritten. Write a page allocated since the
    /// last commit, or write inside a version apply session, which moves a
    /// frozen page to a fresh one.
    CommittedPage(PageId),
    /// The page exhausted its transient-fault retry budget and is held in
    /// the store's quarantine set; access is refused until the backend is
    /// repaired (e.g. via [`crate::PageStore::scrub`]) or the set is
    /// cleared with [`crate::PageStore::clear_quarantine`].
    Quarantined(PageId),
    /// A partial (torn) trailing write was detected in a backing file: the
    /// file ends mid-frame or mid-record. A WAL-backed open recovers by
    /// truncating the tail, which only an uncommitted group can own
    /// ([`crate::PageStore::file_durable`]); without a log the damage is
    /// surfaced rather than silently dropped.
    TornWrite {
        /// Complete frames (or log records) preceding the torn tail.
        complete: u64,
        /// Dangling bytes beyond the last complete unit.
        trailing_bytes: u64,
    },
    /// The simulated-crash harness ([`crate::crash`]) killed the store at
    /// an injected crash point; all further I/O on this store fails with
    /// this error until the surviving media are reopened and recovered.
    Crashed,
    /// An `as_of` request named an epoch outside the retained window of a
    /// [`crate::VersionedStore`] (either never installed or already
    /// trimmed by the retention policy).
    VersionNotRetained {
        /// The epoch seq the caller asked for.
        requested: u64,
        /// Oldest retained epoch seq.
        oldest: u64,
        /// Current (newest) epoch seq.
        current: u64,
    },
}

impl StoreError {
    /// True for failures worth retrying: the operation may succeed if
    /// re-issued (interrupted/timed-out I/O, including the transient
    /// faults injected by [`crate::backend::FaultBackend`]).
    ///
    /// Everything else is *permanent* for the retry layer: allocation and
    /// size errors are caller bugs, checksum/layout corruption will not
    /// heal by re-reading the same frame (a router replica group reads
    /// another replica instead), and quarantine is by definition sticky.
    pub fn is_transient(&self) -> bool {
        match self {
            StoreError::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::Interrupted
                    | std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::WouldBlock
            ),
            _ => false,
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::PageNotAllocated(id) => write!(f, "page {id:?} is not allocated"),
            StoreError::ChecksumMismatch(id) => write!(f, "checksum mismatch on page {id:?}"),
            StoreError::PayloadTooLarge { payload, page_size } => {
                write!(f, "payload of {payload} bytes exceeds page size {page_size}")
            }
            StoreError::Corrupt(msg) => write!(f, "corrupt page layout: {msg}"),
            StoreError::LogRecordTooLarge { payload, max } => {
                write!(f, "log record payload of {payload} bytes exceeds the {max}-byte limit")
            }
            StoreError::CommittedPage(id) => {
                write!(f, "page {id:?} is committed and cannot be overwritten")
            }
            StoreError::Quarantined(id) => {
                write!(f, "page {id:?} is quarantined after exhausting its retry budget")
            }
            StoreError::TornWrite { complete, trailing_bytes } => write!(
                f,
                "torn trailing write: {trailing_bytes} dangling bytes after {complete} \
                 complete units (recoverable via WAL recovery)"
            ),
            StoreError::Crashed => write!(f, "store killed at an injected crash point"),
            StoreError::VersionNotRetained { requested, oldest, current } => write!(
                f,
                "version {requested} is not retained (retained range {oldest}..={current})"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PageId;

    #[test]
    fn display_variants_are_informative() {
        let e = StoreError::PageNotAllocated(PageId(7));
        assert!(e.to_string().contains('7'));
        let e = StoreError::PayloadTooLarge { payload: 5000, page_size: 4096 };
        assert!(e.to_string().contains("5000"));
        assert!(e.to_string().contains("4096"));
        let e = StoreError::LogRecordTooLarge { payload: 70_000_000, max: 1 << 26 };
        assert!(e.to_string().contains("70000000"));
        let e = StoreError::Corrupt("bad header".into());
        assert!(e.to_string().contains("bad header"));
    }

    #[test]
    fn transient_classification() {
        use std::io::ErrorKind;
        for kind in [ErrorKind::Interrupted, ErrorKind::TimedOut, ErrorKind::WouldBlock] {
            assert!(StoreError::Io(std::io::Error::new(kind, "glitch")).is_transient());
        }
        assert!(!StoreError::Io(std::io::Error::other("dead disk")).is_transient());
        assert!(!StoreError::ChecksumMismatch(PageId(1)).is_transient());
        assert!(!StoreError::PageNotAllocated(PageId(1)).is_transient());
        assert!(!StoreError::Corrupt("x".into()).is_transient());
        assert!(!StoreError::Quarantined(PageId(1)).is_transient());
        assert!(!StoreError::TornWrite { complete: 3, trailing_bytes: 17 }.is_transient());
        assert!(!StoreError::Crashed.is_transient());
        assert!(!StoreError::VersionNotRetained { requested: 9, oldest: 3, current: 7 }
            .is_transient());
    }

    #[test]
    fn version_not_retained_display_carries_the_window() {
        let e = StoreError::VersionNotRetained { requested: 2, oldest: 5, current: 9 };
        for needle in ["2", "5", "9"] {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }

    #[test]
    fn torn_write_display_carries_both_lengths() {
        let e = StoreError::TornWrite { complete: 12, trailing_bytes: 300 };
        assert!(e.to_string().contains("12"), "{e}");
        assert!(e.to_string().contains("300"), "{e}");
        assert!(e.to_string().contains("torn"), "{e}");
    }

    #[test]
    fn quarantined_display_names_the_page() {
        let e = StoreError::Quarantined(PageId(9));
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains("quarantin"));
    }

    #[test]
    fn io_error_converts_and_sources() {
        let ioe = std::io::Error::other("boom");
        let e: StoreError = ioe.into();
        assert!(e.to_string().contains("boom"));
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
