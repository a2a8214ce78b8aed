//! Storage backends: where page frames physically live.
//!
//! A *frame* is the page payload plus an 8-byte trailing checksum; the
//! [`crate::PageStore`] computes and verifies checksums, so backends only
//! move opaque frames. Frame addressing is by [`PageId`] ordinal.
//!
//! All methods take `&self`: backends are internally synchronized (memory:
//! a sharded `RwLock`; file: positional I/O), so concurrent readers never
//! serialize on a global lock — held by `tests/concurrency_and_pool.rs`,
//! timed by `benchmark/`'s `throughput_ops_s`.

use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pc_sync::RwLock;

use crate::error::{Result, StoreError};
use crate::store::PageId;

pub use crate::fault::{FaultBackend, FaultHandle, FaultPlan, InjectionStats};

/// Nothing in the workspace reads it; it goes with ROADMAP 3f.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Always 0.
    pub failovers: u64,
    /// Always 0.
    pub repairs: u64,
}

/// Nothing in the workspace reads it; it goes with ROADMAP 3f.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Always 0.
    pub frames_checked: u64,
    /// Always 0.
    pub repaired: u64,
    /// Always 0.
    pub unrecoverable: u64,
}

/// A linear array of fixed-size frames addressed by page id.
///
/// Backends are deliberately dumb: no caching, no counting, no checksums.
/// All policy lives in [`crate::PageStore`].
pub trait Backend: Send + Sync {
    /// Size of one frame in bytes (page payload + checksum trailer).
    fn frame_size(&self) -> usize;

    /// Reads frame `id` into `buf` (`buf.len() == frame_size()`).
    ///
    /// Reading a frame that was never written fills `buf` with zeroes; the
    /// store layer rejects such reads earlier via its allocation table, so
    /// this is only reachable through store-internal recovery paths.
    fn read_frame(&self, id: PageId, buf: &mut [u8]) -> Result<()>;

    /// Writes frame `id` from `buf` (`buf.len() == frame_size()`).
    fn write_frame(&self, id: PageId, buf: &[u8]) -> Result<()>;

    /// Flushes buffered writes to durable storage (no-op for memory).
    fn sync(&self) -> Result<()>;

    /// Number of frames this backend has capacity for right now (grows on
    /// demand); used only for diagnostics.
    fn frame_count(&self) -> u64;

    /// Nothing in the workspace calls it; it goes with ROADMAP 3f.
    fn resilience_stats(&self) -> ResilienceStats {
        ResilienceStats::default()
    }

    /// Nothing in the workspace calls it; it goes with ROADMAP 3f.
    fn reset_resilience_stats(&self) {}

    /// Nothing in the workspace calls it; it goes with ROADMAP 3f.
    fn scrub(&self) -> Result<ScrubReport> {
        Ok(ScrubReport::default())
    }
}

/// A shared backend is a backend — a test keeps its `Arc` to see what the
/// store left on the medium. Every method the store calls forwards.
impl<T: Backend + ?Sized> Backend for Arc<T> {
    fn frame_size(&self) -> usize {
        (**self).frame_size()
    }
    fn read_frame(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        (**self).read_frame(id, buf)
    }
    fn write_frame(&self, id: PageId, buf: &[u8]) -> Result<()> {
        (**self).write_frame(id, buf)
    }
    fn sync(&self) -> Result<()> {
        (**self).sync()
    }
    fn frame_count(&self) -> u64 {
        (**self).frame_count()
    }
}

/// Heap-backed backend: the "disk" is a vector of frames behind a
/// read-write lock (reads of distinct pages proceed in parallel).
///
/// This is the default for experiments — it makes I/O *counting* exact and
/// fast without touching the real filesystem.
pub struct MemBackend {
    frame_size: usize,
    frames: RwLock<Vec<Option<Box<[u8]>>>>,
}

impl MemBackend {
    /// Creates an empty in-memory backend with the given frame size.
    pub fn new(frame_size: usize) -> Self {
        MemBackend { frame_size, frames: RwLock::new(Vec::new()) }
    }
}

impl Backend for MemBackend {
    fn frame_size(&self) -> usize {
        self.frame_size
    }

    fn read_frame(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), self.frame_size);
        let frames = self.frames.read();
        match frames.get(id.0 as usize).and_then(|f| f.as_deref()) {
            Some(frame) => buf.copy_from_slice(frame),
            None => buf.fill(0),
        }
        Ok(())
    }

    fn write_frame(&self, id: PageId, buf: &[u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), self.frame_size);
        let idx = id.0 as usize;
        let mut frames = self.frames.write();
        if idx >= frames.len() {
            frames.resize_with(idx + 1, || None);
        }
        match &mut frames[idx] {
            Some(frame) => frame.copy_from_slice(buf),
            slot @ None => *slot = Some(buf.to_vec().into_boxed_slice()),
        }
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }

    fn frame_count(&self) -> u64 {
        self.frames.read().len() as u64
    }
}

/// File-backed backend using positional reads/writes on a single file
/// (`pread`/`pwrite`-style, so concurrent access needs no seeking lock).
///
/// The file starts with a 64-byte superblock (magic + `frame_size`) so a
/// reopen with a different frame size fails with [`StoreError::Corrupt`]
/// instead of silently misaddressing every frame; frame `i` lives at byte
/// offset `SUPERBLOCK_LEN + i * frame_size`. This backend exists to
/// demonstrate that every structure in the workspace runs unmodified
/// against a real disk file; experiments use [`MemBackend`] because only
/// transfer *counts* matter in the paper's model.
///
/// **Migration note:** files written before the superblock existed have
/// frame 0 at offset 0 and no magic, so opening one fails the magic check.
/// Recover by prepending a 64-byte header (magic `PCPSTOR1`, then the
/// original frame size as a little-endian `u64`, zero padding) — e.g.
/// `(printf 'PCPSTOR1'; python3 -c "import sys;
/// sys.stdout.buffer.write((4104).to_bytes(8,'little')+bytes(48))";
/// cat old.bin) > new.bin` — or by rebuilding the file from source data.
#[derive(Debug)]
pub struct FileBackend {
    file: File,
    frame_size: usize,
    frames: AtomicU64,
}

/// Bytes reserved at the front of a [`FileBackend`] file for the
/// superblock: 8-byte magic, 8-byte little-endian frame size, zero padding.
pub const SUPERBLOCK_LEN: u64 = 64;

const SUPERBLOCK_MAGIC: &[u8; 8] = b"PCPSTOR1";

impl FileBackend {
    /// Opens (creating if necessary) `path` as a frame file.
    ///
    /// A new or empty file gets a superblock recording `frame_size`; an
    /// existing file must carry a matching superblock, otherwise this
    /// returns [`StoreError::Corrupt`] (wrong frame size, a pre-superblock
    /// file — see the migration note on [`FileBackend`] — or not a frame
    /// file at all).
    pub fn open(path: &Path, frame_size: usize) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        if len == 0 {
            let mut sb = [0u8; SUPERBLOCK_LEN as usize];
            sb[..8].copy_from_slice(SUPERBLOCK_MAGIC);
            sb[8..16].copy_from_slice(&(frame_size as u64).to_le_bytes());
            write_at(&file, &sb, 0)?;
            file.sync_data()?;
            return Ok(FileBackend { file, frame_size, frames: AtomicU64::new(0) });
        }
        let mut sb = [0u8; SUPERBLOCK_LEN as usize];
        if len < SUPERBLOCK_LEN || {
            read_at(&file, &mut sb, 0)?;
            &sb[..8] != SUPERBLOCK_MAGIC
        } {
            return Err(StoreError::Corrupt(format!(
                "{} is not a frame file: superblock magic missing (pre-superblock \
                 files need a 64-byte header prepended; see FileBackend docs)",
                path.display()
            )));
        }
        let stored = u64::from_le_bytes(sb[8..16].try_into().unwrap());
        if stored != frame_size as u64 {
            return Err(StoreError::Corrupt(format!(
                "{} was written with frame_size {stored}, reopened with {frame_size}",
                path.display()
            )));
        }
        let body = len - SUPERBLOCK_LEN;
        let trailing_bytes = body % frame_size as u64;
        if trailing_bytes != 0 {
            // A file ending mid-frame is the tail of a write that a crash
            // cut short. Refusing (instead of silently rounding the frame
            // count down, which hides the damage) forces the caller to
            // decide: re-create the file, or recover explicitly via
            // [`FileBackend::open_recovering`].
            return Err(StoreError::TornWrite {
                complete: body / frame_size as u64,
                trailing_bytes,
            });
        }
        let frames = body / frame_size as u64;
        Ok(FileBackend { file, frame_size, frames: AtomicU64::new(frames) })
    }

    /// Opens like [`FileBackend::open`], but a file ending mid-frame (a
    /// torn tail) is truncated back to the last complete frame instead of
    /// refused. Returns the backend plus whether a torn tail was dropped.
    /// Intended for durable stores, whose WAL restores whatever page the
    /// truncated tail belonged to; on a bare file store the truncation
    /// would silently lose that page's last write, which is exactly why
    /// `open` refuses instead.
    pub fn open_recovering(path: &Path, frame_size: usize) -> Result<(Self, bool)> {
        match Self::open(path, frame_size) {
            Err(StoreError::TornWrite { complete, .. }) => {
                let file =
                    OpenOptions::new().read(true).write(true).open(path)?;
                file.set_len(SUPERBLOCK_LEN + complete * frame_size as u64)?;
                file.sync_data()?;
                drop(file);
                Ok((Self::open(path, frame_size)?, true))
            }
            other => Ok((other?, false)),
        }
    }

    fn frame_offset(&self, id: PageId) -> u64 {
        SUPERBLOCK_LEN + id.0 * self.frame_size as u64
    }
}

#[cfg(unix)]
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(unix)]
fn write_at(file: &File, buf: &[u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.write_all_at(buf, offset)
}

#[cfg(not(unix))]
compile_error!("FileBackend currently requires a Unix platform for positional I/O");

impl Backend for FileBackend {
    fn frame_size(&self) -> usize {
        self.frame_size
    }

    fn read_frame(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), self.frame_size);
        if id.0 >= self.frames.load(Ordering::Acquire) {
            buf.fill(0);
            return Ok(());
        }
        read_at(&self.file, buf, self.frame_offset(id))?;
        Ok(())
    }

    fn write_frame(&self, id: PageId, buf: &[u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), self.frame_size);
        write_at(&self.file, buf, self.frame_offset(id))?;
        self.frames.fetch_max(id.0 + 1, Ordering::AcqRel);
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    fn frame_count(&self) -> u64 {
        self.frames.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(backend: &dyn Backend) {
        let fs = backend.frame_size();
        let frame_a: Vec<u8> = (0..fs).map(|i| (i % 251) as u8).collect();
        let frame_b: Vec<u8> = (0..fs).map(|i| (i % 13) as u8).collect();
        backend.write_frame(PageId(0), &frame_a).unwrap();
        backend.write_frame(PageId(5), &frame_b).unwrap();

        let mut buf = vec![0u8; fs];
        backend.read_frame(PageId(0), &mut buf).unwrap();
        assert_eq!(buf, frame_a);
        backend.read_frame(PageId(5), &mut buf).unwrap();
        assert_eq!(buf, frame_b);
        // unwritten hole reads as zeroes
        backend.read_frame(PageId(3), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        // overwrite
        backend.write_frame(PageId(0), &frame_b).unwrap();
        backend.read_frame(PageId(0), &mut buf).unwrap();
        assert_eq!(buf, frame_b);
        assert!(backend.frame_count() >= 6);
        backend.sync().unwrap();
    }

    #[test]
    fn mem_backend_roundtrip() {
        roundtrip(&MemBackend::new(128));
    }

    #[test]
    fn file_backend_roundtrip() {
        let dir = std::env::temp_dir().join(format!("pcps-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("frames.bin");
        roundtrip(&FileBackend::open(&path, 128).unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_backend_persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("pcps-reopen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("frames.bin");
        let frame: Vec<u8> = (0..64).map(|i| i as u8).collect();
        {
            let b = FileBackend::open(&path, 64).unwrap();
            b.write_frame(PageId(2), &frame).unwrap();
            b.sync().unwrap();
        }
        let b = FileBackend::open(&path, 64).unwrap();
        assert_eq!(b.frame_count(), 3);
        let mut buf = vec![0u8; 64];
        b.read_frame(PageId(2), &mut buf).unwrap();
        assert_eq!(buf, frame);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_backend_rejects_frame_size_mismatch_on_reopen() {
        let dir = std::env::temp_dir().join(format!("pcps-sbsize-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("frames.bin");
        {
            let b = FileBackend::open(&path, 64).unwrap();
            b.write_frame(PageId(0), &[7u8; 64]).unwrap();
            b.sync().unwrap();
        }
        let err = FileBackend::open(&path, 128).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "got {err}");
        assert!(err.to_string().contains("64"), "{err}");
        assert!(err.to_string().contains("128"), "{err}");
        // The matching size still opens and reads back intact.
        let b = FileBackend::open(&path, 64).unwrap();
        let mut buf = [0u8; 64];
        b.read_frame(PageId(0), &mut buf).unwrap();
        assert_eq!(buf, [7u8; 64]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_backend_surfaces_a_torn_tail_instead_of_silently_truncating() {
        let dir = std::env::temp_dir().join(format!("pcps-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.bin");
        {
            let b = FileBackend::open(&path, 64).unwrap();
            b.write_frame(PageId(0), &[1u8; 64]).unwrap();
            b.write_frame(PageId(1), &[2u8; 64]).unwrap();
            b.sync().unwrap();
        }
        // A crash mid-append leaves a partial trailing frame.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[9u8; 40]).unwrap();
        }
        // Plain open refuses with the typed condition (the old behavior
        // was to round the frame count down and hide the damage).
        match FileBackend::open(&path, 64).unwrap_err() {
            StoreError::TornWrite { complete, trailing_bytes } => {
                assert_eq!((complete, trailing_bytes), (2, 40));
            }
            other => panic!("expected TornWrite, got {other}"),
        }
        // open_recovering truncates back to the last complete frame…
        let (b, torn) = FileBackend::open_recovering(&path, 64).unwrap();
        assert!(torn);
        assert_eq!(b.frame_count(), 2);
        let mut buf = [0u8; 64];
        b.read_frame(PageId(1), &mut buf).unwrap();
        assert_eq!(buf, [2u8; 64]);
        drop(b);
        // …durably: the next plain open sees a whole-frame file.
        let (b, torn) = FileBackend::open_recovering(&path, 64).unwrap();
        assert!(!torn);
        assert_eq!(b.frame_count(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_backend_rejects_pre_superblock_files() {
        let dir = std::env::temp_dir().join(format!("pcps-legacy-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("legacy.bin");
        // A legacy frame file: raw frames from offset 0, no magic.
        std::fs::write(&path, vec![0xaau8; 192]).unwrap();
        let err = FileBackend::open(&path, 64).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "got {err}");
        assert!(err.to_string().contains("superblock"), "{err}");
        // Too-short garbage (shorter than a superblock) is rejected too.
        std::fs::write(&path, b"PCx").unwrap();
        assert!(FileBackend::open(&path, 64).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mem_backend_supports_concurrent_readers() {
        let backend = MemBackend::new(64);
        for i in 0..64u64 {
            backend.write_frame(PageId(i), &[i as u8; 64]).unwrap();
        }
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let mut buf = [0u8; 64];
                    for round in 0..200u64 {
                        let id = round % 64;
                        backend.read_frame(PageId(id), &mut buf).unwrap();
                        assert!(buf.iter().all(|&b| b == id as u8));
                    }
                });
            }
        });
    }
}
