//! Write-ahead log for the page store's shadow paging.
//!
//! The log is an append-only sequence of checksummed, LSN-stamped records
//! over a pluggable [`LogMedium`] (a real file, a memory buffer for tests,
//! or the crash-injected medium in [`crate::crash`]). It carries no page
//! contents: a durable store never overwrites a committed page, so each
//! page reaches the data file once, and the log only has to say which
//! pages exist.
//!
//! * allocation-table changes are logged as [`WalRecord::Alloc`] /
//!   [`WalRecord::Free`], one per call;
//! * a [`WalRecord::Commit`] marks a *consistency point*: the group-commit
//!   boundary at which the caller's structures are internally consistent.
//!   The store syncs the data backend first; [`Wal::commit`] then appends
//!   the record, flushes, and `fsync`s — one log fsync per batch, however
//!   many records it carries (group commit);
//! * a checkpoint ([`Wal::install_checkpoint`]) atomically replaces the
//!   whole log with a fresh one holding a single [`WalRecord::Checkpoint`]
//!   (an allocation-table snapshot), which bounds replay work to the
//!   records of one checkpoint interval.
//!
//! Recovery ([`crate::recovery`]) scans the log, drops a torn tail at the
//! first invalid record, replays the allocation records between the last
//! checkpoint and the last commit, and discards intact-but-uncommitted
//! records after it — so a reopened store lands exactly on the most recent
//! durable consistency point without writing a frame.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use pc_sync::Mutex;

use crate::codec::fnv1a64;
use crate::error::{Result, StoreError};
use crate::store::PageId;

/// Magic bytes opening every WAL (version 2: no page images).
pub const WAL_MAGIC: &[u8; 8] = b"PCWAL002";
/// Header length: magic plus the little-endian page size.
pub const WAL_HEADER_LEN: usize = 16;

/// Fixed part of a record: `len: u32, kind: u8, lsn: u64, page: u64`.
const REC_FIXED: usize = 4 + 1 + 8 + 8;
/// Trailing checksum length.
const REC_CRC: usize = 8;
/// Upper bound on one record's payload; a torn length field must never
/// make the scanner chase gigabytes.
pub const MAX_RECORD_PAYLOAD: usize = 1 << 26;

const K_ALLOC: u8 = 2;
const K_FREE: u8 = 3;
const K_COMMIT: u8 = 4;
const K_CHECKPOINT: u8 = 5;

/// Where log bytes live. Implementations are internally synchronized; the
/// [`Wal`] serializes appends itself, so `append`/`sync`/`reset` are never
/// called concurrently with each other (reads may race and see a prefix).
pub trait LogMedium: Send + Sync {
    /// Entire current log contents.
    fn read_all(&self) -> Result<Vec<u8>>;
    /// Appends bytes at the end (buffered; durable only after `sync`).
    fn append(&self, buf: &[u8]) -> Result<()>;
    /// Makes all appended bytes durable.
    fn sync(&self) -> Result<()>;
    /// Current log length in bytes (appended, not necessarily synced).
    fn len(&self) -> Result<u64>;
    /// True when the log holds no bytes at all.
    fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }
    /// Atomically replaces the entire log with `contents`, durably: after
    /// this returns, a crash observes either the old log or the new one,
    /// never a mixture. (Files implement this as write-temp + fsync +
    /// rename.)
    fn reset(&self, contents: &[u8]) -> Result<()>;
}

/// A shared medium is a medium (see the same impl for `Backend`).
impl<T: LogMedium + ?Sized> LogMedium for Arc<T> {
    fn read_all(&self) -> Result<Vec<u8>> {
        (**self).read_all()
    }
    fn append(&self, buf: &[u8]) -> Result<()> {
        (**self).append(buf)
    }
    fn sync(&self) -> Result<()> {
        (**self).sync()
    }
    fn len(&self) -> Result<u64> {
        (**self).len()
    }
    fn is_empty(&self) -> Result<bool> {
        (**self).is_empty()
    }
    fn reset(&self, contents: &[u8]) -> Result<()> {
        (**self).reset(contents)
    }
}

/// File-backed log. `reset` is a write-to-temp / fsync / atomic-rename
/// sequence, so checkpoints can never leave a half-written log behind.
pub struct FileLog {
    path: PathBuf,
    file: Mutex<File>,
}

impl FileLog {
    /// Opens (creating if absent) the log at `path`. A stale `.tmp` from a
    /// crash mid-`reset` is removed — the rename never happened, so the
    /// real log is still the authoritative one.
    pub fn open(path: &Path) -> Result<FileLog> {
        let _ = std::fs::remove_file(Self::tmp_path(path));
        let file = OpenOptions::new().read(true).append(true).create(true).open(path)?;
        Ok(FileLog { path: path.to_path_buf(), file: Mutex::new(file) })
    }

    fn tmp_path(path: &Path) -> PathBuf {
        let mut os = path.as_os_str().to_os_string();
        os.push(".tmp");
        PathBuf::from(os)
    }
}

impl LogMedium for FileLog {
    fn read_all(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        let guard = self.file.lock();
        let mut f = &*guard;
        use std::io::Seek;
        f.seek(std::io::SeekFrom::Start(0))?;
        f.read_to_end(&mut out)?;
        Ok(out)
    }

    fn append(&self, buf: &[u8]) -> Result<()> {
        let guard = self.file.lock();
        (&*guard).write_all(buf)?;
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        self.file.lock().sync_data()?;
        Ok(())
    }

    fn len(&self) -> Result<u64> {
        Ok(self.file.lock().metadata()?.len())
    }

    fn reset(&self, contents: &[u8]) -> Result<()> {
        let tmp = Self::tmp_path(&self.path);
        let mut guard = self.file.lock();
        {
            let mut t = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            t.write_all(contents)?;
            t.sync_data()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        // Persist the rename itself: fsync the containing directory.
        if let Some(dir) = self.path.parent() {
            if let Ok(d) = File::open(if dir.as_os_str().is_empty() { Path::new(".") } else { dir })
            {
                let _ = d.sync_all();
            }
        }
        *guard = OpenOptions::new().read(true).append(true).open(&self.path)?;
        Ok(())
    }
}

/// In-memory log for tests and ephemeral durable stores.
#[derive(Default)]
pub struct MemLog {
    bytes: Mutex<Vec<u8>>,
}

impl MemLog {
    /// An empty log.
    pub fn new() -> MemLog {
        MemLog::default()
    }

    /// A log pre-seeded with `bytes` (e.g. a crash survivor's durable
    /// prefix).
    pub fn from_bytes(bytes: Vec<u8>) -> MemLog {
        MemLog { bytes: Mutex::new(bytes) }
    }
}

impl LogMedium for MemLog {
    fn read_all(&self) -> Result<Vec<u8>> {
        Ok(self.bytes.lock().clone())
    }

    fn append(&self, buf: &[u8]) -> Result<()> {
        self.bytes.lock().extend_from_slice(buf);
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }

    fn len(&self) -> Result<u64> {
        Ok(self.bytes.lock().len() as u64)
    }

    fn reset(&self, contents: &[u8]) -> Result<()> {
        *self.bytes.lock() = contents.to_vec();
        Ok(())
    }
}

/// Snapshot of the store's allocation table, carried by checkpoint records.
/// The allocated set is implied: every id below `next_id` that is not on
/// the free list is live, so the snapshot is two integers plus the free
/// list — no bitmap.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Next never-allocated page id.
    pub next_id: u64,
    /// Freed ids available for recycling, in exact stack order (recycling
    /// pops from the back, so order is part of the state).
    pub free_list: Vec<u64>,
}

impl AllocSnapshot {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.next_id.to_le_bytes());
        out.extend_from_slice(&(self.free_list.len() as u64).to_le_bytes());
        for id in &self.free_list {
            out.extend_from_slice(&id.to_le_bytes());
        }
    }

    /// Decodes a snapshot from the front of `buf`, returning it and any
    /// trailing bytes (a checkpoint record's re-embedded commit metadata).
    fn decode_prefix(buf: &[u8]) -> Option<(AllocSnapshot, &[u8])> {
        if buf.len() < 16 {
            return None;
        }
        let next_id = u64::from_le_bytes(buf[..8].try_into().unwrap());
        let n = u64::from_le_bytes(buf[8..16].try_into().unwrap()) as usize;
        let end = 16usize.checked_add(n.checked_mul(8)?)?;
        if buf.len() < end {
            return None;
        }
        let free_list = buf[16..end]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Some((AllocSnapshot { next_id, free_list }, &buf[end..]))
    }
}

/// One decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A page was allocated.
    Alloc {
        /// Record sequence number.
        lsn: u64,
        /// Allocated page.
        page: PageId,
    },
    /// A page was freed.
    Free {
        /// Record sequence number.
        lsn: u64,
        /// Freed page.
        page: PageId,
    },
    /// Group-commit boundary: everything up to here is a consistent,
    /// acknowledged state. Carries an opaque caller payload (e.g. a batch
    /// sequence number) that recovery hands back.
    Commit {
        /// Record sequence number.
        lsn: u64,
        /// Opaque caller metadata.
        meta: Vec<u8>,
    },
    /// Allocation-table snapshot; everything before it is already in the
    /// data file and durable.
    Checkpoint {
        /// Record sequence number.
        lsn: u64,
        /// Allocation state at the checkpoint.
        alloc: AllocSnapshot,
        /// The most recent *committed* caller metadata at checkpoint time
        /// (empty = none yet). A checkpoint discards every earlier record,
        /// including the commit that carried this payload — re-embedding it
        /// here keeps [`crate::RecoveryReport::last_commit_meta`] exact
        /// after a crash that follows a checkpoint with no further commit
        /// (the versioning layer stores its epoch map in this payload, so
        /// losing it would silently roll the visible version back).
        meta: Vec<u8>,
    },
}

impl WalRecord {
    /// The record's LSN.
    pub fn lsn(&self) -> u64 {
        match self {
            WalRecord::Alloc { lsn, .. }
            | WalRecord::Free { lsn, .. }
            | WalRecord::Commit { lsn, .. }
            | WalRecord::Checkpoint { lsn, .. } => *lsn,
        }
    }

    /// Appends the encoded record (`len | kind | lsn | page | payload |
    /// crc`, crc over kind..payload) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let (kind, page, payload): (u8, u64, Vec<u8>) = match self {
            WalRecord::Alloc { page, .. } => (K_ALLOC, page.0, Vec::new()),
            WalRecord::Free { page, .. } => (K_FREE, page.0, Vec::new()),
            WalRecord::Commit { meta, .. } => (K_COMMIT, 0, meta.clone()),
            WalRecord::Checkpoint { alloc, meta, .. } => {
                let mut p = Vec::new();
                alloc.encode_into(&mut p);
                p.extend_from_slice(meta);
                (K_CHECKPOINT, 0, p)
            }
        };
        let start = out.len();
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.push(kind);
        out.extend_from_slice(&self.lsn().to_le_bytes());
        out.extend_from_slice(&page.to_le_bytes());
        out.extend_from_slice(&payload);
        let crc = fnv1a64(&out[start + 4..]);
        out.extend_from_slice(&crc.to_le_bytes());
    }

    /// Encoded length in bytes.
    pub fn encoded_len(&self) -> usize {
        let payload = match self {
            WalRecord::Alloc { .. } | WalRecord::Free { .. } => 0,
            WalRecord::Commit { meta, .. } => meta.len(),
            WalRecord::Checkpoint { alloc, meta, .. } => {
                16 + alloc.free_list.len() * 8 + meta.len()
            }
        };
        REC_FIXED + payload + REC_CRC
    }
}

/// Tries to decode one record at the front of `buf`. Returns the record
/// and its encoded length, or `None` when the bytes are truncated,
/// corrupt, or not a record — the scanner treats that as the torn tail.
pub fn decode_record(buf: &[u8]) -> Option<(WalRecord, usize)> {
    if buf.len() < REC_FIXED + REC_CRC {
        return None;
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
    if len > MAX_RECORD_PAYLOAD {
        return None;
    }
    let total = REC_FIXED + len + REC_CRC;
    if buf.len() < total {
        return None;
    }
    let body = &buf[4..REC_FIXED + len];
    let stored = u64::from_le_bytes(buf[REC_FIXED + len..total].try_into().unwrap());
    if stored != fnv1a64(body) {
        return None;
    }
    let kind = buf[4];
    let lsn = u64::from_le_bytes(buf[5..13].try_into().unwrap());
    let page = u64::from_le_bytes(buf[13..21].try_into().unwrap());
    let payload = &buf[REC_FIXED..REC_FIXED + len];
    let rec = match kind {
        K_ALLOC if len == 0 => WalRecord::Alloc { lsn, page: PageId(page) },
        K_FREE if len == 0 => WalRecord::Free { lsn, page: PageId(page) },
        K_COMMIT => WalRecord::Commit { lsn, meta: payload.to_vec() },
        K_CHECKPOINT => {
            let (alloc, meta) = AllocSnapshot::decode_prefix(payload)?;
            WalRecord::Checkpoint { lsn, alloc, meta: meta.to_vec() }
        }
        _ => return None,
    };
    Some((rec, total))
}

/// Result of scanning a log image: the valid record prefix plus what (if
/// anything) had to be dropped from the tail.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// Records of the valid prefix, in log order.
    pub records: Vec<WalRecord>,
    /// Bytes of header + valid records.
    pub valid_len: u64,
    /// Bytes dropped after the valid prefix (a torn or corrupt tail).
    pub torn_bytes: u64,
}

/// Encodes a WAL header for `page_size`.
pub fn encode_header(page_size: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(WAL_HEADER_LEN);
    out.extend_from_slice(WAL_MAGIC);
    out.extend_from_slice(&(page_size as u64).to_le_bytes());
    out
}

/// Scans a full log image. An empty image is a fresh log (no records). A
/// present-but-wrong header is [`StoreError::Corrupt`]; a valid header
/// followed by a damaged record region yields the longest valid prefix.
pub fn scan(bytes: &[u8], page_size: usize) -> Result<ScanOutcome> {
    if bytes.is_empty() {
        return Ok(ScanOutcome::default());
    }
    // A crash can tear the very first append mid-header. A strict prefix
    // of the expected header is a fresh log with a torn tail, not
    // corruption.
    let expected = encode_header(page_size);
    if bytes.len() < WAL_HEADER_LEN && expected.starts_with(bytes) {
        return Ok(ScanOutcome { torn_bytes: bytes.len() as u64, ..ScanOutcome::default() });
    }
    if bytes.len() < WAL_HEADER_LEN || &bytes[..8] != WAL_MAGIC {
        return Err(StoreError::Corrupt("WAL header magic missing or truncated".into()));
    }
    let stored = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    if stored != page_size as u64 {
        return Err(StoreError::Corrupt(format!(
            "WAL was written for page_size {stored}, opened with {page_size}"
        )));
    }
    let mut records = Vec::new();
    let mut pos = WAL_HEADER_LEN;
    while pos < bytes.len() {
        match decode_record(&bytes[pos..]) {
            Some((rec, used)) => {
                records.push(rec);
                pos += used;
            }
            None => break,
        }
    }
    Ok(ScanOutcome {
        records,
        valid_len: pos as u64,
        torn_bytes: (bytes.len() - pos) as u64,
    })
}

/// Cumulative WAL activity counters — the one count of log activity; the
/// serve layer renders them as the `pc_store_wal_*` families.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (all kinds, commits and checkpoints included).
    pub appends: u64,
    /// Commit records written (= successful group commits).
    pub commits: u64,
    /// `fsync`s issued against the log medium.
    pub fsyncs: u64,
    /// Checkpoints installed (log swaps).
    pub checkpoints: u64,
    /// Records replayed by recovery at open.
    pub replayed: u64,
    /// Largest number of records made durable by one commit.
    pub max_group: u64,
    /// Current log length in bytes (appended, including unsynced).
    pub log_bytes: u64,
    /// Always 0: a durable store buffers no write. Kept so readers of
    /// these counters still build.
    pub dirty_pages: u64,
    /// Always 0: every durable read counts in `IoStats::reads`. Kept so
    /// readers of these counters still build.
    pub dirty_hits: u64,
}

struct WalInner {
    /// Encoded records appended to the medium but not yet fsynced count
    /// toward `uncommitted`; the buffer itself is flushed eagerly so the
    /// mutex hold is short.
    next_lsn: u64,
    /// Records appended since the last commit record.
    uncommitted: u64,
    /// Appended log length in bytes (header included).
    log_bytes: u64,
    /// The medium is empty (fresh log): the header rides along with the
    /// first append so an append-only medium is never headerless.
    needs_header: bool,
}

/// The write-ahead log: serialized appends over a [`LogMedium`], group
/// commit, and atomic checkpoint swap. See the module docs for the
/// protocol.
pub struct Wal {
    medium: Box<dyn LogMedium>,
    page_size: usize,
    inner: Mutex<WalInner>,
    appends: AtomicU64,
    commits: AtomicU64,
    fsyncs: AtomicU64,
    checkpoints: AtomicU64,
    replayed: AtomicU64,
    max_group: AtomicU64,
    /// Records made durable per commit — the distribution behind
    /// `max_group` (see [`Wal::group_sizes`]).
    group_sizes: pc_obs::Histogram,
}

impl Wal {
    /// Opens the log and returns the scan of its current contents. The
    /// caller (recovery) replays the scan, then calls
    /// [`Wal::install_checkpoint`] to reset the log to a fresh generation.
    pub fn open(medium: Box<dyn LogMedium>, page_size: usize) -> Result<(Wal, ScanOutcome)> {
        let bytes = medium.read_all()?;
        let outcome = scan(&bytes, page_size)?;
        let next_lsn = outcome.records.last().map(|r| r.lsn() + 1).unwrap_or(1);
        let wal = Wal {
            medium,
            page_size,
            inner: Mutex::new(WalInner {
                next_lsn,
                uncommitted: 0,
                log_bytes: bytes.len() as u64,
                needs_header: bytes.is_empty(),
            }),
            appends: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
            max_group: AtomicU64::new(0),
            group_sizes: pc_obs::Histogram::default(),
        };
        Ok((wal, outcome))
    }

    /// Appends the record `make` builds for the next LSN (caller holds
    /// `inner`); returns that LSN.
    fn push(&self, inner: &mut WalInner, make: impl FnOnce(u64) -> WalRecord) -> Result<u64> {
        let lsn = inner.next_lsn;
        let rec = make(lsn);
        let mut buf =
            if inner.needs_header { encode_header(self.page_size) } else { Vec::new() };
        buf.reserve(rec.encoded_len());
        rec.encode_into(&mut buf);
        self.medium.append(&buf)?;
        inner.needs_header = false;
        inner.next_lsn += 1;
        inner.log_bytes += buf.len() as u64;
        self.appends.fetch_add(1, Relaxed);
        Ok(lsn)
    }

    fn append_record(&self, make: impl FnOnce(u64) -> WalRecord) -> Result<u64> {
        let mut inner = self.inner.lock();
        let lsn = self.push(&mut inner, make)?;
        inner.uncommitted += 1;
        Ok(lsn)
    }

    /// Logs a page allocation.
    pub fn append_alloc(&self, page: PageId) -> Result<u64> {
        self.append_record(|lsn| WalRecord::Alloc { lsn, page })
    }

    /// Logs a page free.
    pub fn append_free(&self, page: PageId) -> Result<u64> {
        self.append_record(|lsn| WalRecord::Free { lsn, page })
    }

    /// Group commit: if any records were appended since the last commit,
    /// appends a [`WalRecord::Commit`] carrying `meta` and `fsync`s the
    /// log — one fsync for the whole group. Returns the number of records
    /// the commit made durable (0 = nothing pending, no fsync issued).
    pub fn commit(&self, meta: &[u8]) -> Result<u64> {
        let mut inner = self.inner.lock();
        if inner.uncommitted == 0 {
            return Ok(0);
        }
        let group = inner.uncommitted;
        self.push(&mut inner, |lsn| WalRecord::Commit { lsn, meta: meta.to_vec() })?;
        self.medium.sync()?;
        inner.uncommitted = 0;
        self.commits.fetch_add(1, Relaxed);
        self.fsyncs.fetch_add(1, Relaxed);
        self.max_group.fetch_max(group, Relaxed);
        self.group_sizes.record(group);
        Ok(group)
    }

    /// Atomically replaces the log with a fresh generation holding only a
    /// checkpoint of `alloc`. Every earlier record must be committed, and
    /// the data file synced — the caller's job. `meta` is the
    /// last committed caller metadata, re-embedded in the checkpoint so it
    /// survives the log swap (pass `&[]` when there has been none).
    pub fn install_checkpoint(&self, alloc: &AllocSnapshot, meta: &[u8]) -> Result<()> {
        let mut inner = self.inner.lock();
        let lsn = inner.next_lsn;
        let rec = WalRecord::Checkpoint { lsn, alloc: alloc.clone(), meta: meta.to_vec() };
        let mut contents = encode_header(self.page_size);
        rec.encode_into(&mut contents);
        self.medium.reset(&contents)?;
        inner.next_lsn += 1;
        inner.uncommitted = 0;
        inner.log_bytes = contents.len() as u64;
        inner.needs_header = false;
        self.appends.fetch_add(1, Relaxed);
        self.checkpoints.fetch_add(1, Relaxed);
        self.fsyncs.fetch_add(1, Relaxed);
        Ok(())
    }

    /// Appended log length in bytes (the auto-checkpoint trigger input).
    pub fn log_bytes(&self) -> u64 {
        self.inner.lock().log_bytes
    }

    /// Records appended since the last commit.
    pub fn uncommitted(&self) -> u64 {
        self.inner.lock().uncommitted
    }

    /// Notes `n` records replayed by recovery (stats only).
    pub fn note_replayed(&self, n: u64) {
        self.replayed.fetch_add(n, Relaxed);
    }

    /// Distribution of records made durable per group commit (empty
    /// commits issue no fsync and are not recorded).
    pub fn group_sizes(&self) -> pc_obs::HistogramSnapshot {
        self.group_sizes.snapshot()
    }

    /// Snapshot of the log's counters.
    pub fn stats(&self) -> WalStats {
        WalStats {
            appends: self.appends.load(Relaxed),
            commits: self.commits.load(Relaxed),
            fsyncs: self.fsyncs.load(Relaxed),
            checkpoints: self.checkpoints.load(Relaxed),
            replayed: self.replayed.load(Relaxed),
            max_group: self.max_group.load(Relaxed),
            log_bytes: self.inner.lock().log_bytes,
            ..WalStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Checkpoint {
                lsn: 1,
                alloc: AllocSnapshot { next_id: 4, free_list: vec![2, 0] },
                meta: b"carried".to_vec(),
            },
            WalRecord::Alloc { lsn: 2, page: PageId(0) },
            WalRecord::Alloc { lsn: 3, page: PageId(5) },
            WalRecord::Free { lsn: 4, page: PageId(0) },
            WalRecord::Commit { lsn: 5, meta: vec![9, 9] },
            WalRecord::Free { lsn: 6, page: PageId(3) },
        ]
    }

    fn encode_all(recs: &[WalRecord], page_size: usize) -> Vec<u8> {
        let mut out = encode_header(page_size);
        for r in recs {
            r.encode_into(&mut out);
        }
        out
    }

    #[test]
    fn records_roundtrip_through_scan() {
        let recs = sample_records();
        let bytes = encode_all(&recs, 128);
        let out = scan(&bytes, 128).unwrap();
        assert_eq!(out.records, recs);
        assert_eq!(out.valid_len, bytes.len() as u64);
        assert_eq!(out.torn_bytes, 0);
    }

    #[test]
    fn truncated_tail_is_dropped_cleanly() {
        let recs = sample_records();
        let full = encode_all(&recs, 128);
        // Cut mid-way through the last record: the prefix survives intact.
        let cut = full.len() - 3;
        let out = scan(&full[..cut], 128).unwrap();
        assert_eq!(out.records, recs[..recs.len() - 1]);
        assert!(out.torn_bytes > 0);
        // Every possible truncation yields a prefix of the records.
        for cut in WAL_HEADER_LEN..full.len() {
            let out = scan(&full[..cut], 128).unwrap();
            assert!(out.records.len() <= recs.len());
            assert_eq!(out.records[..], recs[..out.records.len()]);
        }
    }

    #[test]
    fn corrupt_record_stops_the_scan_there() {
        let recs = sample_records();
        let mut bytes = encode_all(&recs, 128);
        // Flip a byte inside the third record's page field.
        let mut pos = WAL_HEADER_LEN;
        for r in &recs[..2] {
            pos += r.encoded_len();
        }
        bytes[pos + REC_FIXED - 1] ^= 0xff;
        let out = scan(&bytes, 128).unwrap();
        assert_eq!(out.records, recs[..2]);
        assert!(out.torn_bytes > 0);
    }

    #[test]
    fn header_mismatch_is_corrupt_not_torn() {
        let bytes = encode_all(&sample_records(), 128);
        assert!(matches!(scan(&bytes, 256), Err(StoreError::Corrupt(_))));
        let mut garbled = bytes.clone();
        garbled[0] ^= 1;
        assert!(matches!(scan(&garbled, 128), Err(StoreError::Corrupt(_))));
        assert!(matches!(scan(b"XX", 128), Err(StoreError::Corrupt(_))));
        // A torn prefix of the *expected* header is a fresh log with a
        // torn tail (the first append died mid-header), not corruption.
        let header = encode_header(128);
        for cut in 1..header.len() {
            let out = scan(&header[..cut], 128).unwrap();
            assert!(out.records.is_empty());
            assert_eq!(out.torn_bytes, cut as u64, "cut={cut}");
        }
        // But a prefix of a *different* page size's header is corrupt.
        assert!(matches!(scan(&encode_header(256)[..12], 128), Err(StoreError::Corrupt(_))));
        // Empty image: a fresh log, not an error.
        let out = scan(&[], 128).unwrap();
        assert!(out.records.is_empty());
        assert_eq!(out.torn_bytes, 0);
    }

    #[test]
    fn wal_group_commit_fsyncs_once_per_batch() {
        let (wal, out) = Wal::open(Box::new(MemLog::new()), 64).unwrap();
        assert!(out.records.is_empty());
        for i in 0..5u64 {
            wal.append_alloc(PageId(i)).unwrap();
        }
        assert_eq!(wal.uncommitted(), 5);
        assert_eq!(wal.commit(b"batch-1").unwrap(), 5);
        assert_eq!(wal.commit(b"empty").unwrap(), 0, "empty commit is free");
        let s = wal.stats();
        assert_eq!(s.commits, 1);
        assert_eq!(s.fsyncs, 1);
        assert_eq!(s.max_group, 5);
        // One group of 5; the empty commit is not an observation.
        assert_eq!(wal.group_sizes().buckets, vec![(7, 1)]);
        assert_eq!(s.appends, 6, "5 allocs + 1 commit");
    }

    #[test]
    fn install_checkpoint_resets_the_log_generation() {
        let medium = Box::new(MemLog::new());
        let (wal, _) = Wal::open(medium, 64).unwrap();
        wal.append_alloc(PageId(0)).unwrap();
        wal.commit(&[]).unwrap();
        let before = wal.log_bytes();
        let snap = AllocSnapshot { next_id: 1, free_list: vec![] };
        wal.install_checkpoint(&snap, b"last-meta").unwrap();
        assert!(wal.log_bytes() < before);
        assert_eq!(wal.stats().checkpoints, 1);
        // The fresh generation's single record carries the re-embedded
        // commit metadata.
        let bytes = wal.medium.read_all().unwrap();
        let out = scan(&bytes, 64).unwrap();
        assert_eq!(out.records.len(), 1);
        match &out.records[0] {
            WalRecord::Checkpoint { alloc, meta, .. } => {
                assert_eq!(alloc, &snap);
                assert_eq!(meta, b"last-meta");
            }
            other => panic!("expected checkpoint, got {other:?}"),
        }
    }

    #[test]
    fn file_log_survives_reset_and_reopen() {
        let dir = std::env::temp_dir().join(format!("pcwal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.pcwal");
        let _ = std::fs::remove_file(&path);
        {
            let log = FileLog::open(&path).unwrap();
            log.reset(&encode_header(64)).unwrap();
            log.append(b"abc").unwrap();
            log.sync().unwrap();
            assert_eq!(log.len().unwrap(), WAL_HEADER_LEN as u64 + 3);
        }
        let log = FileLog::open(&path).unwrap();
        let all = log.read_all().unwrap();
        assert_eq!(&all[WAL_HEADER_LEN..], b"abc");
        // reset replaces everything atomically.
        log.reset(b"fresh").unwrap();
        assert_eq!(log.read_all().unwrap(), b"fresh");
        // A stale tmp file from a crashed reset is cleaned up on open.
        std::fs::write(FileLog::tmp_path(&path), b"junk").unwrap();
        let log = FileLog::open(&path).unwrap();
        assert_eq!(log.read_all().unwrap(), b"fresh");
        assert!(!FileLog::tmp_path(&path).exists());
        std::fs::remove_file(&path).unwrap();
    }
}
