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
    /// A build refused because a count a record names does not fit its
    /// field (a segment-tree cache slice past `u16::MAX` intervals);
    /// nothing is truncated.
    CountOverflow {
        /// The count that did not fit.
        count: usize,
        /// The largest the field holds.
        max: usize,
    },
    /// A write refused because a committed epoch may still read the page:
    /// on a durable store or inside a version apply session, a page the
    /// store's open group did not allocate. Write a page allocated since,
    /// such as the one [`crate::PageStore::relocate`] gives.
    CommittedPage(PageId),
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
    /// A durable store was written under another on-disk layout version
    /// ([`crate::wal::LAYOUT_VERSION`]); nothing of it was read.
    LayoutVersion {
        /// The version its log names.
        found: u32,
        /// The version this build reads and writes.
        expected: u32,
    },
}

/// A copy for each op of a batch that failed whole. An `Io` error keeps
/// its kind and message; `std::io::Error` itself is not `Clone`.
impl Clone for StoreError {
    fn clone(&self) -> Self {
        use StoreError::*;
        match self {
            Io(e) => Io(std::io::Error::new(e.kind(), e.to_string())),
            PageNotAllocated(id) => PageNotAllocated(*id),
            ChecksumMismatch(id) => ChecksumMismatch(*id),
            &PayloadTooLarge { payload, page_size } => PayloadTooLarge { payload, page_size },
            Corrupt(msg) => Corrupt(msg.clone()),
            &LogRecordTooLarge { payload, max } => LogRecordTooLarge { payload, max },
            &CountOverflow { count, max } => CountOverflow { count, max },
            CommittedPage(id) => CommittedPage(*id),
            &TornWrite { complete, trailing_bytes } => TornWrite { complete, trailing_bytes },
            Crashed => Crashed,
            &VersionNotRetained { requested, oldest, current } => {
                VersionNotRetained { requested, oldest, current }
            }
            &LayoutVersion { found, expected } => LayoutVersion { found, expected },
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
            StoreError::CountOverflow { count, max } => {
                write!(f, "a count of {count} exceeds its field's {max}")
            }
            StoreError::CommittedPage(id) => {
                write!(f, "page {id:?} is committed and cannot be overwritten")
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
            StoreError::LayoutVersion { found, expected } => write!(
                f,
                "the store was written under layout version {found}; this build reads \
                 version {expected}"
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
    fn a_clone_keeps_the_variant_and_the_message() {
        let io = StoreError::Io(std::io::Error::new(std::io::ErrorKind::Interrupted, "glitch"));
        let copy = io.clone();
        assert!(matches!(&copy, StoreError::Io(e) if e.kind() == std::io::ErrorKind::Interrupted));
        assert_eq!(copy.to_string(), io.to_string());
        let e = StoreError::TornWrite { complete: 3, trailing_bytes: 17 };
        assert_eq!(e.clone().to_string(), e.to_string());
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
