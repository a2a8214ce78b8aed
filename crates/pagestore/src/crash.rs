//! Whole-process crash simulation for durability testing.
//!
//! Where [`crate::fault`] injects *faults the store must survive while
//! running*, this module simulates *dying*: a [`CrashController`] counts
//! every durable I/O (data-frame write, log append, fsync, log reset)
//! across a [`CrashBackend`] and a [`CrashLog`] sharing it, and kills the
//! store at a chosen op index. After the kill every operation fails with
//! [`StoreError::Crashed`] — the process view is gone — and the test
//! extracts what *durable media* would hold:
//!
//! * synced state survives verbatim;
//! * each unsynced frame write survives fully, survives as a torn
//!   prefix-over-old, or is dropped — decided by a seeded lottery, like a
//!   real page cache losing power mid-writeback;
//! * unsynced log appends survive as a seeded byte-prefix of the append
//!   stream, which is exactly how an append-only file tears;
//! * a log `reset` (the checkpoint swap, implemented by rename) is atomic:
//!   a crash during it leaves either the old log or the new one, complete.
//!
//! The crash-point *matrix* pattern: run the workload once with an
//! unarmed controller to count its durable I/Os, then re-run it killing
//! at every index from 1 to that count, reopening + recovering each time.
//! Every decision derives from `(seed, op ordinal)`, so any failure
//! reproduces exactly from its `(seed, kill_at)` pair.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use pc_sync::Mutex;

use crate::backend::{Backend, MemBackend};
use crate::error::{Result, StoreError};
use crate::store::PageId;
use crate::wal::{LogMedium, MemLog};

const SALT_FATE: u64 = 0xfa7e_fa7e;
const SALT_CUT: u64 = 0x0c07_0c07;
const SALT_RESET: u64 = 0x5e7a_5e7a;

/// When (and how deterministically) to kill the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Seed for every survival-lottery decision.
    pub seed: u64,
    /// 1-based durable-I/O ordinal to die at; `0` never kills (counting
    /// mode — run the workload once to learn how many kill points exist).
    pub kill_at: u64,
}

impl CrashPlan {
    /// Counting mode: never kill, just count durable I/Os.
    pub fn count_only(seed: u64) -> Self {
        CrashPlan { seed, kill_at: 0 }
    }

    /// Kill at the `kill_at`-th durable I/O (1-based).
    pub fn kill_at(seed: u64, kill_at: u64) -> Self {
        CrashPlan { seed, kill_at }
    }
}

struct CtrlState {
    seed: u64,
    kill_at: u64,
    ops: AtomicU64,
    crashed: AtomicBool,
}

/// Shared kill switch: clone one into every crash-simulated medium of a
/// store so the op ordinal spans data and log I/O in program order.
#[derive(Clone)]
pub struct CrashController(Arc<CtrlState>);

impl CrashController {
    /// Controller following `plan`.
    pub fn new(plan: CrashPlan) -> Self {
        CrashController(Arc::new(CtrlState {
            seed: plan.seed,
            kill_at: plan.kill_at,
            ops: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
        }))
    }

    /// Durable I/Os issued so far (the size of the kill-point matrix).
    pub fn ops(&self) -> u64 {
        self.0.ops.load(Ordering::Relaxed)
    }

    /// True once the store has been killed; every subsequent operation on
    /// attached media fails with [`StoreError::Crashed`].
    pub fn crashed(&self) -> bool {
        self.0.crashed.load(Ordering::Relaxed)
    }

    /// The lottery seed.
    pub fn seed(&self) -> u64 {
        self.0.seed
    }

    /// Assigns the next durable-I/O ordinal and reports whether this op is
    /// the kill point. The caller stages its mutation *before* declaring
    /// the crash, so the dying op's bytes are in the unsynced layer and
    /// eligible for partial survival — like a write in flight at power
    /// loss.
    fn stage(&self) -> (u64, bool) {
        let ordinal = self.0.ops.fetch_add(1, Ordering::Relaxed) + 1;
        let kill = self.0.kill_at != 0 && ordinal >= self.0.kill_at;
        if kill {
            self.0.crashed.store(true, Ordering::Relaxed);
        }
        (ordinal, kill)
    }

    fn check_alive(&self) -> Result<()> {
        if self.crashed() {
            return Err(StoreError::Crashed);
        }
        Ok(())
    }

    /// One draw from the decision space `(seed, salt, a, b)`.
    fn draw(&self, salt: u64, a: u64, b: u64) -> u64 {
        pc_rng::draw(self.0.seed, salt, a, b)
    }
}

struct BackendState {
    /// Synced frames: survive any crash verbatim.
    durable: BTreeMap<u64, Vec<u8>>,
    /// Written-but-unsynced frames (the simulated OS page cache), each
    /// tagged with the durable-I/O ordinal that wrote it (the lottery
    /// salt).
    cache: BTreeMap<u64, (u64, Vec<u8>)>,
}

/// A [`Backend`] whose durability is governed by a [`CrashController`];
/// see the module docs.
pub struct CrashBackend {
    frame_size: usize,
    ctrl: CrashController,
    state: Mutex<BackendState>,
}

impl CrashBackend {
    /// Fresh crash-simulated backend attached to `ctrl`.
    pub fn new(frame_size: usize, ctrl: CrashController) -> Self {
        CrashBackend {
            frame_size,
            ctrl,
            state: Mutex::new(BackendState { durable: BTreeMap::new(), cache: BTreeMap::new() }),
        }
    }

    /// Pre-seeds the durable layer with `frames` (a survivor from a
    /// previous crash, carried into the next round of a multi-crash test).
    pub fn with_frames(frame_size: usize, ctrl: CrashController, frames: Vec<(PageId, Vec<u8>)>) -> Self {
        let b = CrashBackend::new(frame_size, ctrl);
        b.state.lock().durable.extend(frames.into_iter().map(|(id, f)| (id.0, f)));
        b
    }

    /// What durable media hold after the crash: synced frames verbatim,
    /// each unsynced frame run through the seeded lottery — survives
    /// fully, survives as a torn prefix over the old durable contents
    /// (zeroes if never synced), or is lost.
    ///
    /// Meaningful only once [`CrashController::crashed`] is true, but safe
    /// to call any time (unsynced frames are *always* run through the
    /// lottery — calling this on a live store answers "what if we died
    /// right now?").
    pub fn surviving_frames(&self) -> Vec<(PageId, Vec<u8>)> {
        let state = self.state.lock();
        let mut frames = state.durable.clone();
        for (&id, &(ordinal, ref new)) in &state.cache {
            match self.ctrl.draw(SALT_FATE, id, ordinal) % 3 {
                0 => {
                    frames.insert(id, new.clone());
                }
                1 => {
                    let mut torn =
                        frames.get(&id).cloned().unwrap_or_else(|| vec![0u8; self.frame_size]);
                    let cut = 1 + self.ctrl.draw(SALT_CUT, id, ordinal) as usize
                        % (self.frame_size.max(2) - 1);
                    let cut = cut.min(new.len());
                    torn[..cut].copy_from_slice(&new[..cut]);
                    frames.insert(id, torn);
                }
                _ => {} // dropped: old durable contents (or nothing) remain
            }
        }
        frames.into_iter().map(|(id, f)| (PageId(id), f)).collect()
    }

    /// The survivors as a fresh [`MemBackend`], ready to hand to recovery.
    pub fn surviving_backend(&self) -> MemBackend {
        let backend = MemBackend::new(self.frame_size);
        for (id, frame) in self.surviving_frames() {
            backend.write_frame(id, &frame).expect("MemBackend writes are infallible");
        }
        backend
    }
}

impl Backend for CrashBackend {
    fn frame_size(&self) -> usize {
        self.frame_size
    }

    fn read_frame(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        self.ctrl.check_alive()?;
        debug_assert_eq!(buf.len(), self.frame_size);
        let state = self.state.lock();
        match state.cache.get(&id.0).map(|(_, f)| f).or_else(|| state.durable.get(&id.0)) {
            Some(frame) => buf.copy_from_slice(frame),
            None => buf.fill(0),
        }
        Ok(())
    }

    fn write_frame(&self, id: PageId, buf: &[u8]) -> Result<()> {
        self.ctrl.check_alive()?;
        debug_assert_eq!(buf.len(), self.frame_size);
        let mut state = self.state.lock();
        let (ordinal, kill) = self.ctrl.stage();
        state.cache.insert(id.0, (ordinal, buf.to_vec()));
        if kill {
            return Err(StoreError::Crashed);
        }
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        self.ctrl.check_alive()?;
        let mut state = self.state.lock();
        let (_, kill) = self.ctrl.stage();
        if kill {
            // Died inside fsync: nothing promoted; the cache entries stay
            // in the lottery.
            return Err(StoreError::Crashed);
        }
        let cache = std::mem::take(&mut state.cache);
        state.durable.extend(cache.into_iter().map(|(id, (_, f))| (id, f)));
        Ok(())
    }

    fn frame_count(&self) -> u64 {
        let state = self.state.lock();
        let hi = |m: Option<&u64>| m.map(|&id| id + 1).unwrap_or(0);
        hi(state.durable.keys().next_back()).max(hi(state.cache.keys().next_back()))
    }
}

struct LogState {
    /// Synced log bytes: survive any crash verbatim.
    durable: Vec<u8>,
    /// Unsynced appends in order, each tagged with its durable-I/O
    /// ordinal.
    pending: Vec<(u64, Vec<u8>)>,
    /// A reset (checkpoint swap) in flight when the crash hit: the rename
    /// either happened or it didn't — seeded coin at extraction.
    pending_reset: Option<(u64, Vec<u8>)>,
}

/// A [`LogMedium`] whose durability is governed by a [`CrashController`];
/// see the module docs.
pub struct CrashLog {
    ctrl: CrashController,
    state: Mutex<LogState>,
}

impl CrashLog {
    /// Fresh (empty) crash-simulated log attached to `ctrl`.
    pub fn new(ctrl: CrashController) -> Self {
        CrashLog {
            ctrl,
            state: Mutex::new(LogState {
                durable: Vec::new(),
                pending: Vec::new(),
                pending_reset: None,
            }),
        }
    }

    /// A log pre-seeded with durable `bytes` (a previous crash's survivor).
    pub fn with_bytes(ctrl: CrashController, bytes: Vec<u8>) -> Self {
        let log = CrashLog::new(ctrl);
        log.state.lock().durable = bytes;
        log
    }

    /// What durable media hold after the crash. A reset in flight resolves
    /// by seeded coin to the complete old log or the complete new one
    /// (rename atomicity); otherwise the synced bytes survive plus a
    /// seeded byte-prefix of the unsynced append stream — the natural torn
    /// tail the WAL scanner must truncate.
    pub fn surviving_bytes(&self) -> Vec<u8> {
        let state = self.state.lock();
        if let Some((ordinal, new)) = &state.pending_reset {
            if self.ctrl.draw(SALT_RESET, *ordinal, 0).is_multiple_of(2) {
                return new.clone();
            }
            // Rename didn't land: fall through to the old log + pending.
        }
        let mut bytes = state.durable.clone();
        let tail: Vec<u8> =
            state.pending.iter().flat_map(|(_, b)| b.iter().copied()).collect();
        if !tail.is_empty() {
            let salt = state.pending.last().map(|&(o, _)| o).unwrap_or(0);
            let keep = self.ctrl.draw(SALT_CUT, salt, tail.len() as u64) as usize
                % (tail.len() + 1);
            bytes.extend_from_slice(&tail[..keep]);
        }
        bytes
    }

    /// The survivors as a fresh [`MemLog`], ready to hand to recovery.
    pub fn surviving_log(&self) -> MemLog {
        MemLog::from_bytes(self.surviving_bytes())
    }
}

impl LogMedium for CrashLog {
    fn read_all(&self) -> Result<Vec<u8>> {
        self.ctrl.check_alive()?;
        let state = self.state.lock();
        let mut out = state.durable.clone();
        for (_, b) in &state.pending {
            out.extend_from_slice(b);
        }
        Ok(out)
    }

    fn append(&self, buf: &[u8]) -> Result<()> {
        self.ctrl.check_alive()?;
        let mut state = self.state.lock();
        let (ordinal, kill) = self.ctrl.stage();
        state.pending.push((ordinal, buf.to_vec()));
        if kill {
            return Err(StoreError::Crashed);
        }
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        self.ctrl.check_alive()?;
        let mut state = self.state.lock();
        let (_, kill) = self.ctrl.stage();
        if kill {
            return Err(StoreError::Crashed);
        }
        let pending = std::mem::take(&mut state.pending);
        for (_, b) in pending {
            state.durable.extend_from_slice(&b);
        }
        Ok(())
    }

    fn len(&self) -> Result<u64> {
        self.ctrl.check_alive()?;
        let state = self.state.lock();
        let pending: usize = state.pending.iter().map(|(_, b)| b.len()).sum();
        Ok((state.durable.len() + pending) as u64)
    }

    fn reset(&self, contents: &[u8]) -> Result<()> {
        self.ctrl.check_alive()?;
        let mut state = self.state.lock();
        let (ordinal, kill) = self.ctrl.stage();
        if kill {
            state.pending_reset = Some((ordinal, contents.to_vec()));
            return Err(StoreError::Crashed);
        }
        state.durable = contents.to_vec();
        state.pending.clear();
        state.pending_reset = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctrl(seed: u64, kill_at: u64) -> CrashController {
        CrashController::new(CrashPlan { seed, kill_at })
    }

    #[test]
    fn counting_mode_never_kills_and_counts_every_durable_io() {
        let c = ctrl(1, 0);
        let backend = CrashBackend::new(16, c.clone());
        let log = CrashLog::new(c.clone());
        backend.write_frame(PageId(0), &[1u8; 16]).unwrap();
        log.append(b"rec").unwrap();
        log.sync().unwrap();
        backend.sync().unwrap();
        log.reset(b"fresh").unwrap();
        assert_eq!(c.ops(), 5);
        assert!(!c.crashed());
        let mut buf = [0u8; 16];
        backend.read_frame(PageId(0), &mut buf).unwrap();
        assert_eq!(buf, [1u8; 16]);
        assert_eq!(log.read_all().unwrap(), b"fresh");
    }

    #[test]
    fn kill_point_fails_the_op_and_everything_after() {
        let c = ctrl(2, 2);
        let backend = CrashBackend::new(16, c.clone());
        backend.write_frame(PageId(0), &[1u8; 16]).unwrap(); // op 1
        let err = backend.write_frame(PageId(1), &[2u8; 16]).unwrap_err(); // op 2: dies
        assert!(matches!(err, StoreError::Crashed));
        assert!(c.crashed());
        let mut buf = [0u8; 16];
        assert!(matches!(backend.read_frame(PageId(0), &mut buf), Err(StoreError::Crashed)));
        assert!(matches!(backend.sync(), Err(StoreError::Crashed)));
    }

    #[test]
    fn synced_state_survives_any_crash_verbatim() {
        for kill_at in 3..6 {
            let c = ctrl(77, kill_at);
            let backend = CrashBackend::new(16, c.clone());
            let log = CrashLog::new(c.clone());
            backend.write_frame(PageId(0), &[9u8; 16]).unwrap(); // op 1
            log.append(b"committed").unwrap(); // op 2
            // ops 3+: one of these dies depending on kill_at.
            let _ = log.sync(); // op 3
            let _ = backend.sync(); // op 4
            let _ = backend.write_frame(PageId(1), &[1u8; 16]); // op 5
            assert!(c.crashed(), "kill_at={kill_at}");
            if kill_at > 3 {
                assert!(log.surviving_bytes().starts_with(b"committed"), "synced log survives");
            }
            if kill_at > 4 {
                let frames = backend.surviving_frames();
                let f0 = frames.iter().find(|(id, _)| *id == PageId(0)).expect("synced frame");
                assert_eq!(f0.1, vec![9u8; 16]);
            }
        }
    }

    #[test]
    fn unsynced_log_tail_survives_as_a_prefix() {
        // Whatever the seed decides, the survivors must be durable bytes
        // plus a (possibly empty, possibly complete) prefix of the
        // unsynced appends, in order.
        for seed in 0..32 {
            let c = ctrl(seed, 4);
            let log = CrashLog::new(c.clone());
            log.append(b"AAAA").unwrap(); // op 1
            log.sync().unwrap(); // op 2
            log.append(b"BBBB").unwrap(); // op 3
            let _ = log.append(b"CCCC"); // op 4: dies
            assert!(c.crashed());
            let got = log.surviving_bytes();
            let full: &[u8] = b"AAAABBBBCCCC";
            assert!(got.len() >= 4, "synced prefix must survive: {got:?}");
            assert_eq!(&got[..], &full[..got.len()], "survivors are a stream prefix");
        }
    }

    #[test]
    fn unsynced_frames_fate_is_deterministic_per_seed() {
        let survivors = |seed: u64| {
            let c = ctrl(seed, 9);
            let backend = CrashBackend::new(16, c.clone());
            backend.write_frame(PageId(0), &[0xee; 16]).unwrap();
            backend.sync().unwrap();
            for i in 0..8u64 {
                let _ = backend.write_frame(PageId(i), &[i as u8 + 1; 16]);
            }
            assert!(c.crashed());
            backend.surviving_frames()
        };
        assert_eq!(survivors(5), survivors(5), "same seed, same fates");
        // Across many seeds all three fates occur for the overwritten page:
        // survive-new, torn (mixed), dropped (old contents).
        let (mut full, mut torn, mut dropped) = (false, false, false);
        for seed in 0..64 {
            let frames = survivors(seed);
            let f0 = &frames.iter().find(|(id, _)| *id == PageId(0)).unwrap().1;
            if f0 == &vec![1u8; 16] {
                full = true;
            } else if f0 == &vec![0xee; 16] {
                dropped = true;
            } else if f0.contains(&1u8) && f0.contains(&0xee) {
                torn = true;
            }
        }
        assert!(full && torn && dropped, "full={full} torn={torn} dropped={dropped}");
    }

    #[test]
    fn reset_crash_resolves_to_old_or_new_complete_log() {
        let (mut old_won, mut new_won) = (false, false);
        for seed in 0..32 {
            let c = ctrl(seed, 3);
            let log = CrashLog::new(c.clone());
            log.append(b"OLD").unwrap(); // op 1
            log.sync().unwrap(); // op 2
            let err = log.reset(b"NEW").unwrap_err(); // op 3: dies mid-rename
            assert!(matches!(err, StoreError::Crashed));
            match log.surviving_bytes().as_slice() {
                b"OLD" => old_won = true,
                b"NEW" => new_won = true,
                other => panic!("reset must be atomic, got {other:?}"),
            }
        }
        assert!(old_won && new_won, "both rename outcomes must occur across seeds");
    }

    #[test]
    fn surviving_backend_round_trips_through_membackend() {
        let c = ctrl(3, 0);
        let backend = CrashBackend::new(16, c);
        backend.write_frame(PageId(4), &[7u8; 16]).unwrap();
        backend.sync().unwrap();
        let survivor = backend.surviving_backend();
        let mut buf = [0u8; 16];
        survivor.read_frame(PageId(4), &mut buf).unwrap();
        assert_eq!(buf, [7u8; 16]);
        assert_eq!(survivor.frame_count(), 5);
        assert_eq!(backend.frame_count(), 5);
    }

    #[test]
    fn with_frames_and_with_bytes_carry_previous_survivors() {
        let c = ctrl(8, 0);
        let backend =
            CrashBackend::with_frames(16, c.clone(), vec![(PageId(2), vec![3u8; 16])]);
        let mut buf = [0u8; 16];
        backend.read_frame(PageId(2), &mut buf).unwrap();
        assert_eq!(buf, [3u8; 16]);
        let log = CrashLog::with_bytes(c, b"carried".to_vec());
        assert_eq!(log.read_all().unwrap(), b"carried");
        assert_eq!(log.len().unwrap(), 7);
        assert!(log.len().unwrap() > 0);
    }
}
