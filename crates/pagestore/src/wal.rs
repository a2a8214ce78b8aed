//! Write-ahead log for the page store's shadow paging.
//!
//! The log is an append-only sequence of checksummed records over a
//! pluggable [`LogMedium`] (a real file, a memory buffer for tests, or the
//! crash-injected medium in [`crate::crash`]). A record holds the caller's
//! metadata and nothing else: a durable store never overwrites a committed
//! page, so the last record's descriptors reach every page the store holds,
//! and recovery rebuilds the allocation table from them ([`crate::recovery`]).
//!
//! * a commit ([`Wal::commit`]) is one whole group: the store syncs the
//!   data backend, then the log appends one record and `fsync`s once
//!   (group commit). The open group lives in the store's memory: `alloc`
//!   and `free` do no log I/O;
//! * a checkpoint ([`Wal::install_checkpoint`]) atomically replaces the
//!   whole log with a fresh one holding only the last record, which bounds
//!   the log's length and the scan at the next open.
//!
//! The log opens with a header: [`WAL_MAGIC`], the page size and the
//! [`LAYOUT_VERSION`] of every format the store writes. A record is
//! `len: u32 | meta | crc: u64` (the checksum covers length and meta). The
//! writer refuses a meta over [`MAX_RECORD_PAYLOAD`] before a byte reaches
//! the medium.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use pc_sync::Mutex;

use crate::codec::fnv1a64;
use crate::error::{Result, StoreError};
use crate::recovery::RecoveryReport;

/// Magic bytes opening every WAL. A log of the formats before it names its
/// version in the magic's last digit (`PCWAL003` is version 3).
pub const WAL_MAGIC: &[u8; 8] = b"PCWAL006";
/// Version of every on-disk format the store and the structures on it
/// write: the log's, the version frame's and every page layout's. A change
/// to any of them bumps it, and a store written under another is refused
/// by name ([`StoreError::LayoutVersion`]).
pub const LAYOUT_VERSION: u32 = 6;
/// Header length: magic, then the little-endian page size and layout
/// version, four bytes each.
pub const WAL_HEADER_LEN: usize = 16;

/// Fixed part of a record: `len: u32`.
const REC_FIXED: usize = 4;
/// Trailing checksum length.
const REC_CRC: usize = 8;
/// Upper bound on one record's payload; a torn length field must never
/// make the scanner chase gigabytes.
pub const MAX_RECORD_PAYLOAD: usize = 1 << 26;

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

    /// The new file is opened before the rename, so a reset that fails
    /// leaves the old log and its handle, and one that succeeds the new.
    fn reset(&self, contents: &[u8]) -> Result<()> {
        let tmp = Self::tmp_path(&self.path);
        let mut guard = self.file.lock();
        let _ = std::fs::remove_file(&tmp);
        let fresh = OpenOptions::new().read(true).append(true).create_new(true).open(&tmp)?;
        (&fresh).write_all(contents)?;
        fresh.sync_data()?;
        std::fs::rename(&tmp, &self.path)?;
        // Persist the rename itself: fsync the containing directory.
        if let Some(dir) = self.path.parent() {
            if let Ok(d) = File::open(if dir.as_os_str().is_empty() { Path::new(".") } else { dir })
            {
                let _ = d.sync_all();
            }
        }
        *guard = fresh;
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

/// Appends one record of `meta` to `out`, or refuses one the scanner
/// would reject, leaving `out` as it was.
pub fn encode_record(out: &mut Vec<u8>, meta: &[u8]) -> Result<()> {
    if meta.len() > MAX_RECORD_PAYLOAD {
        return Err(StoreError::LogRecordTooLarge { payload: meta.len(), max: MAX_RECORD_PAYLOAD });
    }
    let start = out.len();
    out.reserve(REC_FIXED + meta.len() + REC_CRC);
    out.extend_from_slice(&(meta.len() as u32).to_le_bytes());
    out.extend_from_slice(meta);
    let crc = fnv1a64(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Tries to decode one record at the front of `buf`. Returns its meta and
/// its encoded length, or `None` when the bytes are truncated, corrupt, or
/// not a record — the scanner treats that as the torn tail.
pub fn decode_record(buf: &[u8]) -> Option<(Vec<u8>, usize)> {
    let len = u32::from_le_bytes(buf.get(..REC_FIXED)?.try_into().unwrap()) as usize;
    if len > MAX_RECORD_PAYLOAD {
        return None;
    }
    let body = REC_FIXED + len;
    let stored = u64::from_le_bytes(buf.get(body..body + REC_CRC)?.try_into().unwrap());
    (stored == fnv1a64(&buf[..body])).then(|| (buf[REC_FIXED..body].to_vec(), body + REC_CRC))
}

/// Result of scanning a log image: the valid record prefix plus what (if
/// anything) had to be dropped from the tail.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// The metadata of each record of the valid prefix, in log order.
    pub records: Vec<Vec<u8>>,
    /// Bytes of header + valid records.
    pub valid_len: u64,
    /// Bytes dropped after the valid prefix (a torn or corrupt tail).
    pub torn_bytes: u64,
}

/// Encodes a WAL header for `page_size`.
pub fn encode_header(page_size: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(WAL_HEADER_LEN);
    out.extend_from_slice(WAL_MAGIC);
    out.extend_from_slice(&(page_size as u32).to_le_bytes());
    out.extend_from_slice(&LAYOUT_VERSION.to_le_bytes());
    out
}

/// Scans a full log image. An empty image is a fresh log (no records). A
/// log of another layout version is [`StoreError::LayoutVersion`], another
/// present-but-wrong header [`StoreError::Corrupt`]; a valid header
/// followed by a damaged record region yields the longest valid prefix.
pub fn scan(bytes: &[u8], page_size: usize) -> Result<ScanOutcome> {
    // A crash can tear the very first append mid-header. A strict prefix
    // of the expected header is a fresh log with a torn tail, not
    // corruption.
    let expected = encode_header(page_size);
    if bytes.len() < WAL_HEADER_LEN && expected.starts_with(bytes) {
        return Ok(ScanOutcome { torn_bytes: bytes.len() as u64, ..ScanOutcome::default() });
    }
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let found = match bytes.get(..8) {
        Some(magic) if magic == WAL_MAGIC && bytes.len() >= WAL_HEADER_LEN => word(12),
        Some([b'P', b'C', b'W', b'A', b'L', b'0', b'0', digit])
            if digit.is_ascii_digit() && &bytes[..8] != WAL_MAGIC =>
        {
            u32::from(digit - b'0')
        }
        _ => return Err(StoreError::Corrupt("WAL header magic missing or truncated".into())),
    };
    if found != LAYOUT_VERSION {
        return Err(StoreError::LayoutVersion { found, expected: LAYOUT_VERSION });
    }
    let stored = word(8) as usize;
    if stored != page_size {
        return Err(StoreError::Corrupt(format!(
            "WAL was written for page_size {stored}, opened with {page_size}"
        )));
    }
    let mut records = Vec::new();
    let mut pos = WAL_HEADER_LEN;
    while let Some((meta, used)) = decode_record(&bytes[pos..]) {
        records.push(meta);
        pos += used;
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
    /// Durable `alloc`s and `free`s (one each, counted when it runs) plus
    /// records appended (commits and checkpoints).
    pub appends: u64,
    /// Commit records written (= successful group commits).
    pub commits: u64,
    /// `fsync`s issued against the log medium.
    pub fsyncs: u64,
    /// Checkpoints installed (log swaps).
    pub checkpoints: u64,
    /// Most allocs and frees one commit made durable.
    pub max_group: u64,
    /// Current log length in bytes (appended, including unsynced).
    pub log_bytes: u64,
    /// Always 0: every durable read counts in `IoStats::reads`. Kept so
    /// readers of these counters still build.
    pub dirty_hits: u64,
}

struct WalInner {
    /// Appended log length in bytes (header included).
    log_bytes: u64,
    /// The last record's metadata, `None` while the log holds none.
    last: Option<Vec<u8>>,
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
    checkpoint_bytes: u64,
    inner: Mutex<WalInner>,
    appends: AtomicU64,
    commits: AtomicU64,
    fsyncs: AtomicU64,
    checkpoints: AtomicU64,
    max_group: AtomicU64,
    /// Allocs and frees made durable per commit — the distribution behind
    /// `max_group` (see [`Wal::group_sizes`]).
    group_sizes: pc_obs::Histogram,
}

impl Wal {
    /// Opens the log and swaps it for one holding only its last record,
    /// which drops a torn tail; a commit past `checkpoint_bytes` swaps it.
    pub fn open(
        medium: Box<dyn LogMedium>,
        page_size: usize,
        checkpoint_bytes: u64,
    ) -> Result<(Wal, RecoveryReport)> {
        let bytes = medium.read_all()?;
        let mut outcome = scan(&bytes, page_size)?;
        let last = outcome.records.pop();
        let report = RecoveryReport {
            torn_tail: outcome.torn_bytes > 0,
            last_commit_meta: last.clone(),
            data_torn_tail: false,
        };
        let wal = Wal {
            medium,
            page_size,
            checkpoint_bytes,
            inner: Mutex::new(WalInner { log_bytes: bytes.len() as u64, last, broken: false }),
            appends: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            max_group: AtomicU64::new(0),
            group_sizes: pc_obs::Histogram::default(),
        };
        wal.install_checkpoint()?;
        Ok((wal, report))
    }

    /// Counts one durable alloc or free in [`WalStats::appends`]; the log
    /// itself never hears of it.
    pub fn count_entry(&self) {
        self.appends.fetch_add(1, Relaxed);
    }

    /// Group commit: appends one record of `meta` (an empty one re-stamps
    /// the last record's) and `fsync`s once; `group` is the allocs and
    /// frees it makes durable (stats only). On an error before the append
    /// nothing reached the medium. A commit past the threshold swaps the
    /// log; a swap that fails keeps the old log for the next commit to swap.
    pub fn commit(&self, meta: &[u8], group: u64) -> Result<()> {
        let mut inner = self.inner.lock();
        if inner.broken {
            let e = std::io::Error::other("an earlier log write failed; reopen the store");
            return Err(e.into());
        }
        let meta = match (meta, &inner.last) {
            ([], Some(last)) => last.clone(),
            _ => meta.to_vec(),
        };
        let mut buf = Vec::new();
        encode_record(&mut buf, &meta)?;
        if let Err(e) = self.medium.append(&buf) {
            inner.broken = self.medium.len().map_or(true, |len| len != inner.log_bytes);
            return Err(e);
        }
        inner.log_bytes += buf.len() as u64;
        self.appends.fetch_add(1, Relaxed);
        if let Err(e) = self.medium.sync() {
            inner.broken = true;
            return Err(e);
        }
        inner.last = Some(meta);
        self.commits.fetch_add(1, Relaxed);
        self.fsyncs.fetch_add(1, Relaxed);
        self.max_group.fetch_max(group, Relaxed);
        self.group_sizes.record(group);
        if inner.log_bytes >= self.checkpoint_bytes {
            let _ = self.swap(&mut inner);
        }
        Ok(())
    }

    /// Atomically replaces the log with a fresh generation holding only its
    /// last record. Every earlier group must be committed, and the data
    /// file synced — the caller's job. A swap that fails keeps the old log.
    pub fn install_checkpoint(&self) -> Result<()> {
        self.swap(&mut self.inner.lock())
    }

    fn swap(&self, inner: &mut WalInner) -> Result<()> {
        let mut contents = encode_header(self.page_size);
        if let Some(meta) = &inner.last {
            encode_record(&mut contents, meta)?;
        }
        self.medium.reset(&contents)?;
        (inner.log_bytes, inner.broken) = (contents.len() as u64, false);
        self.appends.fetch_add(1, Relaxed);
        self.checkpoints.fetch_add(1, Relaxed);
        self.fsyncs.fetch_add(1, Relaxed);
        Ok(())
    }

    /// The last committed metadata, `None` before the first commit.
    pub fn last_meta(&self) -> Option<Vec<u8>> {
        self.inner.lock().last.clone()
    }

    /// True after a log write of unknown fate: a failed append that left
    /// bytes, or a failed fsync. The record may be on the medium.
    pub fn is_broken(&self) -> bool {
        self.inner.lock().broken
    }

    /// Distribution of allocs and frees made durable per group commit (a
    /// commit of metadata alone counts a group of none).
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
            max_group: self.max_group.load(Relaxed),
            log_bytes: self.inner.lock().log_bytes,
            ..WalStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Vec<u8>> {
        vec![b"carried".to_vec(), vec![9, 9], vec![], vec![1]]
    }

    fn encode_all(recs: &[Vec<u8>], page_size: usize) -> Vec<u8> {
        let mut out = encode_header(page_size);
        for r in recs {
            encode_record(&mut out, r).unwrap();
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
        // Flip a byte inside the second record's meta.
        let pos = encode_all(&recs[..1], 128).len() + REC_FIXED;
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

    /// A log of another layout version is refused by name, whether the
    /// header stores the version or, before it did, the magic named it.
    #[test]
    fn another_layout_version_is_refused_by_name() {
        let mut newer = encode_all(&sample_records(), 128);
        newer[12..16].copy_from_slice(&(LAYOUT_VERSION + 1).to_le_bytes());
        let older = [&b"PCWAL003"[..], &128u64.to_le_bytes()].concat();
        for (bytes, found) in [(newer, LAYOUT_VERSION + 1), (older, 3)] {
            match scan(&bytes, 128) {
                Err(e @ StoreError::LayoutVersion { .. }) => {
                    let message = e.to_string();
                    assert!(message.contains(&found.to_string()), "{message}");
                    assert!(message.contains(&LAYOUT_VERSION.to_string()), "{message}");
                }
                other => panic!("layout version {found}: {other:?}"),
            }
        }
    }

    #[test]
    fn wal_group_commit_fsyncs_once_per_batch() {
        let (wal, report) = Wal::open(Box::new(MemLog::new()), 64, u64::MAX).unwrap();
        assert_eq!(report.last_commit_meta, None);
        (0..5).for_each(|_| wal.count_entry());
        wal.commit(b"batch-1", 5).unwrap();
        let s = wal.stats();
        assert_eq!(s.commits, 1);
        assert_eq!(s.fsyncs, 2, "the open's swap and the commit");
        assert_eq!(s.max_group, 5);
        assert_eq!(wal.group_sizes().buckets, vec![(7, 1)]);
        assert_eq!(s.appends, 7, "the open's swap, 5 allocs or frees and 1 commit");
        let out = scan(&wal.medium.read_all().unwrap(), 64).unwrap();
        assert_eq!(out.records, [b"batch-1".to_vec()]);
    }

    #[test]
    fn oversized_records_are_refused_before_the_medium_sees_a_byte() {
        let (wal, _) = Wal::open(Box::new(MemLog::new()), 64, u64::MAX).unwrap();
        wal.commit(b"old", 1).unwrap();
        let before = wal.medium.read_all().unwrap();
        let huge = vec![0u8; MAX_RECORD_PAYLOAD + 1];
        let too_large =
            |e: Option<StoreError>| matches!(e, Some(StoreError::LogRecordTooLarge { .. }));
        assert!(too_large(wal.commit(&huge, 0).err()), "1 + MAX bytes");
        assert_eq!(wal.medium.read_all().unwrap(), before, "the old log stays");
        assert_eq!(wal.stats().commits, 1);
        let mut out = Vec::new();
        assert!(too_large(encode_record(&mut out, &huge).err()) && out.is_empty());
    }

    #[test]
    fn install_checkpoint_resets_the_log_generation() {
        let (wal, _) = Wal::open(Box::new(MemLog::new()), 64, u64::MAX).unwrap();
        // Before the first commit, a swap leaves the header alone.
        wal.install_checkpoint().unwrap();
        assert_eq!(wal.medium.read_all().unwrap(), encode_header(64));
        wal.commit(b"first", 1).unwrap();
        wal.commit(b"last-meta", 1).unwrap();
        wal.commit(b"", 1).unwrap();
        let before = wal.stats().log_bytes;
        wal.install_checkpoint().unwrap();
        assert!(wal.stats().log_bytes < before);
        assert_eq!(wal.stats().checkpoints, 3, "the open's swap and these two");
        // The fresh generation's single record is the last commit's, which
        // the empty one re-stamped.
        let out = scan(&wal.medium.read_all().unwrap(), 64).unwrap();
        assert_eq!(out.records, [b"last-meta".to_vec()]);
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
