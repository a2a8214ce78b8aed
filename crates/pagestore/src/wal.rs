//! Write-ahead log for the page store's shadow paging.
//!
//! The log is an append-only sequence of checksummed records over a
//! pluggable [`LogMedium`] (a real file, a memory buffer for tests, or the
//! crash-injected medium in [`crate::crash`]). It carries no page contents:
//! a durable store never overwrites a committed page, so the log only has
//! to say which pages exist.
//!
//! * a [`WalRecord::Commit`] is one whole group: the free-list operations
//!   ([`Entry`]) its allocs and frees made, in order, and the caller's
//!   metadata. The store syncs the data backend, then [`Wal::commit`]
//!   appends the record and `fsync`s once (group commit). The open group
//!   lives in the store's memory: `alloc` and `free` do no log I/O;
//! * a checkpoint ([`Wal::install_checkpoint`]) atomically replaces the
//!   whole log with a fresh one holding a single [`WalRecord::Checkpoint`]
//!   (an allocation-table snapshot), which bounds replay work.
//!
//! Recovery ([`crate::recovery`]) drops a torn tail and applies the entries
//! of every commit after the last checkpoint, landing exactly on the last
//! durable consistency point without writing a frame.
//!
//! A record is `len: u32 | kind: u8 | payload | crc: u64` (the checksum
//! covers kind and payload); a payload is a counted list of 8-byte words,
//! then the metadata. The writer refuses a payload over
//! [`MAX_RECORD_PAYLOAD`] before a byte reaches the medium, so one commit
//! carries at most `(MAX_RECORD_PAYLOAD - 8 - meta) / 8` entries: 8 388 607
//! with empty metadata.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use pc_sync::Mutex;

use crate::codec::fnv1a64;
use crate::error::{Result, StoreError};

/// Magic bytes opening every WAL (version 3: one record per commit).
pub const WAL_MAGIC: &[u8; 8] = b"PCWAL003";
/// Header length: magic plus the little-endian page size.
pub const WAL_HEADER_LEN: usize = 16;

/// Fixed part of a record: `len: u32, kind: u8`.
const REC_FIXED: usize = 4 + 1;
/// Trailing checksum length.
const REC_CRC: usize = 8;
/// Upper bound on one record's payload; a torn length field must never
/// make the scanner chase gigabytes.
pub const MAX_RECORD_PAYLOAD: usize = 1 << 26;

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
    /// Takes the id the next allocation gets: the top of the free list,
    /// else `next_id`.
    pub fn take(&mut self) -> u64 {
        self.free_list.pop().unwrap_or_else(|| {
            self.next_id += 1;
            self.next_id - 1
        })
    }

    /// A checkpoint's words: `next_id`, then the free list.
    fn words(&self) -> std::vec::IntoIter<u64> {
        [&[self.next_id][..], &self.free_list].concat().into_iter()
    }
}

/// One free-list operation of a group, as its commit record carries it: a
/// word holding the id, its top bit set for a push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// An allocation took this id: [`AllocSnapshot::take`]'s.
    Take(u64),
    /// This id went onto the free list.
    Push(u64),
}

const PUSH: u64 = 1 << 63;

impl Entry {
    fn word(self) -> u64 {
        match self {
            Entry::Take(id) => id,
            Entry::Push(id) => id | PUSH,
        }
    }

    fn from_word(word: u64) -> Entry {
        if word & PUSH == 0 { Entry::Take(word) } else { Entry::Push(word & !PUSH) }
    }
}

/// One decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// One committed group: everything up to here is a consistent,
    /// acknowledged state.
    Commit {
        /// The group's free-list operations, in the order they were made.
        entries: Vec<Entry>,
        /// Opaque caller metadata that recovery hands back.
        meta: Vec<u8>,
    },
    /// Allocation-table snapshot; everything before it is already in the
    /// data file and durable.
    Checkpoint {
        /// Allocation state at the checkpoint.
        alloc: AllocSnapshot,
        /// The last committed caller metadata (empty = none yet), which
        /// the swap would otherwise lose: the version layer's epoch map
        /// lives there, so [`crate::RecoveryReport::last_commit_meta`]
        /// must survive a crash after a checkpoint.
        meta: Vec<u8>,
    },
}

impl WalRecord {
    /// Appends the encoded record to `out`, or refuses one whose payload
    /// the scanner would reject, leaving `out` as it was.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<()> {
        match self {
            WalRecord::Commit { entries, meta } => {
                put_record(out, K_COMMIT, entries.iter().map(|e| e.word()), meta)
            }
            WalRecord::Checkpoint { alloc, meta } => {
                put_record(out, K_CHECKPOINT, alloc.words(), meta)
            }
        }
    }
}

/// Appends one record whose payload is the counted list of `words`, then
/// `meta`.
fn put_record(
    out: &mut Vec<u8>,
    kind: u8,
    words: impl ExactSizeIterator<Item = u64>,
    meta: &[u8],
) -> Result<()> {
    let payload = (1 + words.len()) * 8 + meta.len();
    if payload > MAX_RECORD_PAYLOAD {
        return Err(StoreError::LogRecordTooLarge { payload, max: MAX_RECORD_PAYLOAD });
    }
    let start = out.len();
    out.reserve(REC_FIXED + payload + REC_CRC);
    out.extend_from_slice(&(payload as u32).to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&(words.len() as u64).to_le_bytes());
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.extend_from_slice(meta);
    let crc = fnv1a64(&out[start + 4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Splits the counted list of words off the front of a payload.
fn take_words(buf: &[u8]) -> Option<(Vec<u64>, &[u8])> {
    let n = u64::from_le_bytes(buf.get(..8)?.try_into().unwrap()) as usize;
    let end = 8usize.checked_add(n.checked_mul(8)?)?;
    let words = buf.get(8..end)?.chunks_exact(8);
    Some((words.map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect(), &buf[end..]))
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
    let stored = u64::from_le_bytes(buf[REC_FIXED + len..total].try_into().unwrap());
    if stored != fnv1a64(&buf[4..REC_FIXED + len]) {
        return None;
    }
    let (words, meta) = take_words(&buf[REC_FIXED..REC_FIXED + len])?;
    let meta = meta.to_vec();
    let rec = match (buf[4], words.split_first()) {
        (K_COMMIT, _) => {
            let entries = words.iter().map(|&w| Entry::from_word(w)).collect();
            WalRecord::Commit { entries, meta }
        }
        (K_CHECKPOINT, Some((&next_id, free))) => {
            let alloc = AllocSnapshot { next_id, free_list: free.to_vec() };
            WalRecord::Checkpoint { alloc, meta }
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
    /// Entries made (one per durable `alloc` or `free`, counted when it
    /// runs) plus records appended (commits and checkpoints).
    pub appends: u64,
    /// Commit records written (= successful group commits).
    pub commits: u64,
    /// `fsync`s issued against the log medium.
    pub fsyncs: u64,
    /// Checkpoints installed (log swaps).
    pub checkpoints: u64,
    /// Entries and commits replayed by recovery at open.
    pub replayed: u64,
    /// Largest number of entries one commit made durable.
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
    /// Appended log length in bytes (header included).
    log_bytes: u64,
    /// The medium is empty (fresh log): the header rides along with the
    /// first append so an append-only medium is never headerless.
    needs_header: bool,
    /// A failed append left bytes on the medium, or a failed fsync a
    /// record of unknown fate: no record follows until a checkpoint.
    broken: bool,
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
    /// Entries made durable per commit — the distribution behind
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
        let wal = Wal {
            medium,
            page_size,
            inner: Mutex::new(WalInner {
                log_bytes: bytes.len() as u64,
                needs_header: bytes.is_empty(),
                broken: false,
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

    /// Counts one entry of the open group in [`WalStats::appends`]; the
    /// entry itself reaches the log with its commit.
    pub fn count_entry(&self) {
        self.appends.fetch_add(1, Relaxed);
    }

    /// Group commit: appends one [`WalRecord::Commit`] of `entries` and
    /// `meta` and `fsync`s the log once. Returns the number of entries
    /// made durable. On an error before the append nothing reached the
    /// medium, and a retry may follow.
    pub fn commit(&self, entries: &[Entry], meta: &[u8]) -> Result<u64> {
        let mut inner = self.inner.lock();
        if inner.broken {
            let e = std::io::Error::other("an earlier log write failed; reopen the store");
            return Err(e.into());
        }
        let mut buf =
            if inner.needs_header { encode_header(self.page_size) } else { Vec::new() };
        put_record(&mut buf, K_COMMIT, entries.iter().map(|e| e.word()), meta)?;
        if let Err(e) = self.medium.append(&buf) {
            inner.broken = self.medium.len().map_or(true, |len| len != inner.log_bytes);
            return Err(e);
        }
        inner.needs_header = false;
        inner.log_bytes += buf.len() as u64;
        self.appends.fetch_add(1, Relaxed);
        if let Err(e) = self.medium.sync() {
            inner.broken = true;
            return Err(e);
        }
        let group = entries.len() as u64;
        self.commits.fetch_add(1, Relaxed);
        self.fsyncs.fetch_add(1, Relaxed);
        self.max_group.fetch_max(group, Relaxed);
        self.group_sizes.record(group);
        Ok(group)
    }

    /// Atomically replaces the log with a fresh generation holding only a
    /// checkpoint of `alloc`. Every earlier group must be committed, and
    /// the data file synced — the caller's job. `meta` is the
    /// last committed caller metadata, re-embedded in the checkpoint so it
    /// survives the log swap (pass `&[]` when there has been none). A
    /// checkpoint too large for one record keeps the old log.
    pub fn install_checkpoint(&self, alloc: &AllocSnapshot, meta: &[u8]) -> Result<()> {
        let mut inner = self.inner.lock();
        let mut contents = encode_header(self.page_size);
        put_record(&mut contents, K_CHECKPOINT, alloc.words(), meta)?;
        self.medium.reset(&contents)?;
        *inner = WalInner { log_bytes: contents.len() as u64, needs_header: false, broken: false };
        self.appends.fetch_add(1, Relaxed);
        self.checkpoints.fetch_add(1, Relaxed);
        self.fsyncs.fetch_add(1, Relaxed);
        Ok(())
    }

    /// True after a log write of unknown fate: a failed append that left
    /// bytes, or a failed fsync. The record may be on the medium.
    pub fn is_broken(&self) -> bool {
        self.inner.lock().broken
    }

    /// Appended log length in bytes (the auto-checkpoint trigger input).
    pub fn log_bytes(&self) -> u64 {
        self.inner.lock().log_bytes
    }

    /// Notes `n` entries and commits replayed by recovery (stats only).
    pub fn note_replayed(&self, n: u64) {
        self.replayed.fetch_add(n, Relaxed);
    }

    /// Distribution of entries made durable per group commit (empty
    /// groups write no record and are not recorded).
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
                alloc: AllocSnapshot { next_id: 4, free_list: vec![2, 0] },
                meta: b"carried".to_vec(),
            },
            WalRecord::Commit {
                entries: vec![Entry::Take(0), Entry::Take(2), Entry::Push(0)],
                meta: vec![9, 9],
            },
            WalRecord::Commit { entries: vec![], meta: vec![] },
            WalRecord::Commit { entries: vec![Entry::Take(4), Entry::Push(3)], meta: vec![1] },
        ]
    }

    fn encode_all(recs: &[WalRecord], page_size: usize) -> Vec<u8> {
        let mut out = encode_header(page_size);
        for r in recs {
            r.encode_into(&mut out).unwrap();
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
        let entries = [Entry::Take(7), Entry::Push(7), Entry::Push(PUSH - 1)];
        assert_eq!(entries.map(|e| Entry::from_word(e.word())), entries);
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
        // Flip a byte inside the second record's first entry.
        let pos = encode_all(&recs[..1], 128).len() + REC_FIXED + 8;
        bytes[pos] ^= 0xff;
        let out = scan(&bytes, 128).unwrap();
        assert_eq!(out.records, recs[..1]);
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
        let entries: Vec<Entry> = (0..5).map(Entry::Take).collect();
        entries.iter().for_each(|_| wal.count_entry());
        assert_eq!(wal.commit(&entries, b"batch-1").unwrap(), 5);
        let s = wal.stats();
        assert_eq!(s.commits, 1);
        assert_eq!(s.fsyncs, 1);
        assert_eq!(s.max_group, 5);
        assert_eq!(wal.group_sizes().buckets, vec![(7, 1)]);
        assert_eq!(s.appends, 6, "5 entries + 1 commit");
        let out = scan(&wal.medium.read_all().unwrap(), 64).unwrap();
        assert_eq!(out.records, [WalRecord::Commit { entries, meta: b"batch-1".to_vec() }]);
    }

    #[test]
    fn oversized_records_are_refused_before_the_medium_sees_a_byte() {
        let (wal, _) = Wal::open(Box::new(MemLog::new()), 64).unwrap();
        let snap = AllocSnapshot { next_id: 1, free_list: vec![] };
        wal.install_checkpoint(&snap, b"old").unwrap();
        let before = wal.medium.read_all().unwrap();
        let huge = vec![0u8; MAX_RECORD_PAYLOAD];
        let too_large =
            |e: Option<StoreError>| matches!(e, Some(StoreError::LogRecordTooLarge { .. }));
        assert!(too_large(wal.commit(&[], &huge).err()), "8 + MAX bytes");
        assert!(too_large(wal.install_checkpoint(&snap, &huge).err()), "16 + MAX bytes");
        assert_eq!(wal.medium.read_all().unwrap(), before, "the old log stays");
        assert_eq!(wal.stats().commits, 0);
    }

    #[test]
    fn install_checkpoint_resets_the_log_generation() {
        let medium = Box::new(MemLog::new());
        let (wal, _) = Wal::open(medium, 64).unwrap();
        wal.commit(&[Entry::Take(0)], &[]).unwrap();
        wal.commit(&[Entry::Take(1)], &[]).unwrap();
        let before = wal.log_bytes();
        let snap = AllocSnapshot { next_id: 2, free_list: vec![] };
        wal.install_checkpoint(&snap, b"last-meta").unwrap();
        assert!(wal.log_bytes() < before);
        assert_eq!(wal.stats().checkpoints, 1);
        // The fresh generation's single record carries the re-embedded
        // commit metadata.
        let bytes = wal.medium.read_all().unwrap();
        let out = scan(&bytes, 64).unwrap();
        let want = WalRecord::Checkpoint { alloc: snap, meta: b"last-meta".to_vec() };
        assert_eq!(out.records, [want]);
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
