//! Deterministic fault injection for storage backends.
//!
//! [`FaultBackend`] decorates any [`Backend`] and injects failures —
//! transient I/O errors, permanent frame loss, torn writes, single-bit rot
//! — according to a seeded [`FaultPlan`]. Every decision is a pure function
//! of `(seed, op kind, page id, per-page access ordinal)`, so a failure
//! scenario reproduces exactly from its seed: same workload + same plan =
//! same faults, regardless of thread timing or wall clock.
//!
//! A [`FaultHandle`] (cloneable, obtained before the backend is boxed into
//! a store) is the control plane: flip injection on/off mid-run, swap
//! plans, arm targeted "fail the Nth access to page P" triggers, and read
//! back [`InjectionStats`] to assert that a test actually exercised faults.
//!
//! ## Fault taxonomy
//!
//! | fault            | op    | surfaces as                               |
//! |------------------|-------|-------------------------------------------|
//! | transient        | r/w   | one-shot `Err(Io)`, kind `Interrupted`    |
//! | frame loss       | read  | sticky permanent `Err(Io)`; write heals   |
//! | torn write       | write | silent `Ok`; prefix new + suffix old      |
//! | bit rot at write | write | silent `Ok`; one flipped bit at rest      |
//!
//! Silent faults are exactly the ones the store's checksums must catch;
//! loud faults reach the store's caller as they are, to fail the read over
//! to another replica or roll the batch back (DESIGN §9). A torn write
//! therefore never keeps the old frame whole, checksum included: no
//! checksum tells that apart from a write never made (lost writes are
//! outside the fault model, DESIGN §9).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use pc_rng::{draw, mix64};
use pc_sync::Mutex;

use crate::backend::Backend;
use crate::error::Result;
use crate::store::PageId;

/// Per-operation fault probabilities plus the seed that makes them
/// deterministic. All probabilities are per-access, in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for every injection decision. Two backends with the same plan
    /// and workload inject identical faults.
    pub seed: u64,
    /// Probability a read fails with a one-shot `Interrupted` I/O error.
    pub read_transient_p: f64,
    /// Probability a write fails with a one-shot `Interrupted` I/O error
    /// (nothing is written).
    pub write_transient_p: f64,
    /// Probability a write silently persists only a prefix of the frame,
    /// keeping the old suffix (the classic torn page). The cut falls after
    /// the first byte the write changes and at or before the last, so the
    /// frame at rest is neither the old one nor the new one.
    pub torn_write_p: f64,
    /// Probability a write silently flips one bit of the persisted frame.
    pub bit_rot_p: f64,
    /// Probability a read discovers the frame is gone for good: the error
    /// is *permanent* and sticky until the page is rewritten.
    pub frame_loss_p: f64,
}

impl FaultPlan {
    /// A plan that injects nothing (targeted triggers still fire).
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            read_transient_p: 0.0,
            write_transient_p: 0.0,
            torn_write_p: 0.0,
            bit_rot_p: 0.0,
            frame_loss_p: 0.0,
        }
    }

    /// Transient faults only, at probability `p` per read and per write:
    /// each fails one access and leaves the frame as it was, so the same
    /// access issued again may succeed.
    pub fn transient(seed: u64, p: f64) -> Self {
        FaultPlan { read_transient_p: p, write_transient_p: p, ..FaultPlan::none(seed) }
    }
}

/// Snapshot of how many faults a [`FaultBackend`] has injected, by kind.
/// Tests assert on these so "the run survived" can be distinguished from
/// "the run was never actually under fault".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionStats {
    /// Reads failed with a transient error.
    pub read_transients: u64,
    /// Writes failed with a transient error.
    pub write_transients: u64,
    /// Writes that silently persisted a torn frame.
    pub torn_writes: u64,
    /// Writes that silently persisted a flipped bit.
    pub bit_rots: u64,
    /// Frames that became permanently lost (until rewritten).
    pub frames_lost: u64,
    /// Targeted Nth-access triggers that fired.
    pub triggers_fired: u64,
}

impl InjectionStats {
    /// Total injected faults across all kinds.
    pub fn total(&self) -> u64 {
        self.read_transients
            + self.write_transients
            + self.torn_writes
            + self.bit_rots
            + self.frames_lost
            + self.triggers_fired
    }
}

/// Mutable fault tables: per-page access ordinals (what makes "the Nth
/// access" well-defined even under concurrency), armed triggers, and the
/// sticky lost page set. One mutex — fault injection is a test facility,
/// not a hot path.
#[derive(Default)]
struct Tables {
    reads: HashMap<u64, u64>,
    writes: HashMap<u64, u64>,
    read_triggers: HashSet<(u64, u64)>,
    write_triggers: HashSet<(u64, u64)>,
    lost: HashSet<u64>,
}

#[derive(Default)]
struct Counters {
    read_transients: AtomicU64,
    write_transients: AtomicU64,
    torn_writes: AtomicU64,
    bit_rots: AtomicU64,
    frames_lost: AtomicU64,
    triggers_fired: AtomicU64,
}

struct FaultState {
    enabled: AtomicBool,
    plan: Mutex<FaultPlan>,
    tables: Mutex<Tables>,
    counters: Counters,
}

/// Op salts keep read/write/torn/rot/loss decisions for the same
/// `(page, ordinal)` independent of each other.
const SALT_READ: u64 = 0x7265_6164; // "read"
const SALT_WRITE: u64 = 0x7772_6974; // "writ"
const SALT_TORN: u64 = 0x746f_726e; // "torn"
const SALT_ROT: u64 = 0x1077_0b17;
const SALT_LOSS: u64 = 0x10c0_57f0;

/// One uniform draw in `[0, 1)` from the decision inputs.
fn unit(seed: u64, salt: u64, id: u64, ordinal: u64) -> f64 {
    // Standard 53-bit mantissa trick: exact doubles, uniform in [0, 1).
    (draw(seed, salt, id, ordinal) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Deterministic Bernoulli trial: fires iff the draw lands below `p`.
fn decide(plan: &FaultPlan, salt: u64, id: u64, ordinal: u64, p: f64) -> bool {
    p > 0.0 && unit(plan.seed, salt, id, ordinal) < p
}

fn transient_err(what: &str, id: PageId) -> crate::StoreError {
    std::io::Error::new(
        std::io::ErrorKind::Interrupted,
        format!("injected transient {what} fault on page {}", id.0),
    )
    .into()
}

fn lost_err(id: PageId) -> crate::StoreError {
    // `Other`, not the transient class's `Interrupted`: a lost frame does
    // not come back by reading the same replica again.
    std::io::Error::other(format!("injected permanent frame loss on page {}", id.0)).into()
}

/// Cloneable control plane for a [`FaultBackend`]; see the module docs.
#[derive(Clone)]
pub struct FaultHandle(Arc<FaultState>);

impl FaultHandle {
    /// Enables or disables all injection (triggers included). Access
    /// ordinals keep counting either way, so a disable/enable window
    /// doesn't shift which later accesses fault.
    pub fn set_enabled(&self, on: bool) {
        self.0.enabled.store(on, Ordering::Relaxed);
    }

    /// True when injection is active.
    pub fn enabled(&self) -> bool {
        self.0.enabled.load(Ordering::Relaxed)
    }

    /// Replaces the fault plan (takes effect on the next access).
    pub fn set_plan(&self, plan: FaultPlan) {
        *self.0.plan.lock() = plan;
    }

    /// Current fault plan.
    pub fn plan(&self) -> FaultPlan {
        *self.0.plan.lock()
    }

    /// Arms a one-shot trigger: the `nth` read of `id` (1-based, counted
    /// over the backend's lifetime) fails with a transient error.
    pub fn fail_nth_read(&self, id: PageId, nth: u64) {
        self.0.tables.lock().read_triggers.insert((id.0, nth));
    }

    /// Arms a one-shot trigger: the `nth` write of `id` (1-based) fails
    /// with a transient error before reaching the inner backend.
    pub fn fail_nth_write(&self, id: PageId, nth: u64) {
        self.0.tables.lock().write_triggers.insert((id.0, nth));
    }

    /// Cumulative injection counts since construction.
    pub fn injected(&self) -> InjectionStats {
        let c = &self.0.counters;
        InjectionStats {
            read_transients: c.read_transients.load(Ordering::Relaxed),
            write_transients: c.write_transients.load(Ordering::Relaxed),
            torn_writes: c.torn_writes.load(Ordering::Relaxed),
            bit_rots: c.bit_rots.load(Ordering::Relaxed),
            frames_lost: c.frames_lost.load(Ordering::Relaxed),
            triggers_fired: c.triggers_fired.load(Ordering::Relaxed),
        }
    }
}

/// A [`Backend`] decorator injecting deterministic faults; see module docs.
pub struct FaultBackend {
    inner: Box<dyn Backend>,
    state: Arc<FaultState>,
}

impl FaultBackend {
    /// Wraps `inner` with injection governed by `plan` (enabled from the
    /// start; a [`FaultPlan::none`] plan injects nothing until triggers are
    /// armed or the plan is swapped via the handle).
    pub fn new(inner: Box<dyn Backend>, plan: FaultPlan) -> Self {
        FaultBackend {
            inner,
            state: Arc::new(FaultState {
                enabled: AtomicBool::new(true),
                plan: Mutex::new(plan),
                tables: Mutex::new(Tables::default()),
                counters: Counters::default(),
            }),
        }
    }

    /// Control handle; grab one before boxing the backend into a store.
    pub fn handle(&self) -> FaultHandle {
        FaultHandle(Arc::clone(&self.state))
    }

    fn bump(&self, c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }
}

impl Backend for FaultBackend {
    fn frame_size(&self) -> usize {
        self.inner.frame_size()
    }

    fn read_frame(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        if !self.state.enabled.load(Ordering::Relaxed) {
            // Still count the access so ordinals stay workload-aligned.
            let mut t = self.state.tables.lock();
            *t.reads.entry(id.0).or_insert(0) += 1;
            drop(t);
            return self.inner.read_frame(id, buf);
        }
        let plan = *self.state.plan.lock();
        let (ordinal, triggered, lost) = {
            let mut t = self.state.tables.lock();
            let n = t.reads.entry(id.0).or_insert(0);
            *n += 1;
            let ordinal = *n;
            let triggered = t.read_triggers.remove(&(id.0, ordinal));
            let lost = t.lost.contains(&id.0)
                || if decide(&plan, SALT_LOSS, id.0, ordinal, plan.frame_loss_p) {
                    t.lost.insert(id.0);
                    self.bump(&self.state.counters.frames_lost);
                    true
                } else {
                    false
                };
            (ordinal, triggered, lost)
        };
        if triggered {
            self.bump(&self.state.counters.triggers_fired);
            return Err(transient_err("read", id));
        }
        if lost {
            return Err(lost_err(id));
        }
        if decide(&plan, SALT_READ, id.0, ordinal, plan.read_transient_p) {
            self.bump(&self.state.counters.read_transients);
            return Err(transient_err("read", id));
        }
        self.inner.read_frame(id, buf)
    }

    fn write_frame(&self, id: PageId, buf: &[u8]) -> Result<()> {
        if !self.state.enabled.load(Ordering::Relaxed) {
            let mut t = self.state.tables.lock();
            *t.writes.entry(id.0).or_insert(0) += 1;
            drop(t);
            return self.inner.write_frame(id, buf);
        }
        let plan = *self.state.plan.lock();
        let (ordinal, triggered) = {
            let mut t = self.state.tables.lock();
            let n = t.writes.entry(id.0).or_insert(0);
            *n += 1;
            let ordinal = *n;
            (ordinal, t.write_triggers.remove(&(id.0, ordinal)))
        };
        if triggered {
            self.bump(&self.state.counters.triggers_fired);
            return Err(transient_err("write", id));
        }
        if decide(&plan, SALT_WRITE, id.0, ordinal, plan.write_transient_p) {
            self.bump(&self.state.counters.write_transients);
            return Err(transient_err("write", id));
        }
        // From here the write reaches media (possibly mangled), replacing
        // whatever was stored: a lost frame is healed.
        self.state.tables.lock().lost.remove(&id.0);
        if decide(&plan, SALT_TORN, id.0, ordinal, plan.torn_write_p) {
            let mut torn = vec![0u8; buf.len()];
            self.inner.read_frame(id, &mut torn)?; // old contents
            // Tear between the first and the last changed byte: the first
            // lands, the last does not. A write that changes fewer than two
            // bytes cannot be torn that way, and is not torn at all.
            let differs = |(new, old): (&u8, &u8)| new != old;
            let first = buf.iter().zip(&torn).position(differs);
            let last = buf.iter().zip(&torn).rposition(differs);
            if let (Some(first), Some(last)) = (first, last) {
                if first < last {
                    self.bump(&self.state.counters.torn_writes);
                    let span = (last - first) as u64;
                    let cut = first + 1 + (mix64(plan.seed ^ mix64(id.0 ^ ordinal)) % span) as usize;
                    torn[..cut].copy_from_slice(&buf[..cut]);
                    return self.inner.write_frame(id, &torn); // silent success
                }
            }
        }
        if !buf.is_empty() && decide(&plan, SALT_ROT, id.0, ordinal, plan.bit_rot_p) {
            self.bump(&self.state.counters.bit_rots);
            let mut rotted = buf.to_vec();
            let bit = mix64(plan.seed ^ mix64(id.0.rotate_left(7) ^ ordinal)) as usize
                % (buf.len() * 8);
            rotted[bit / 8] ^= 1 << (bit % 8);
            return self.inner.write_frame(id, &rotted); // silent success
        }
        self.inner.write_frame(id, buf)
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }

    fn frame_count(&self) -> u64 {
        self.inner.frame_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn fresh(plan: FaultPlan) -> (FaultBackend, FaultHandle) {
        let b = FaultBackend::new(Box::new(MemBackend::new(64)), plan);
        let h = b.handle();
        (b, h)
    }

    fn write_ok(b: &FaultBackend, id: u64, fill: u8) {
        b.write_frame(PageId(id), &[fill; 64]).unwrap();
    }

    fn interrupted(e: &crate::StoreError) -> bool {
        matches!(e, crate::StoreError::Io(e) if e.kind() == std::io::ErrorKind::Interrupted)
    }

    #[test]
    fn same_seed_injects_identical_faults() {
        let run = |seed: u64| {
            let (b, h) = fresh(FaultPlan::transient(seed, 0.2));
            let mut outcomes = Vec::new();
            let mut buf = [0u8; 64];
            for i in 0..50u64 {
                outcomes.push(b.write_frame(PageId(i % 5), &[1; 64]).is_ok());
                outcomes.push(b.read_frame(PageId(i % 5), &mut buf).is_ok());
            }
            (outcomes, h.injected())
        };
        let (a, sa) = run(42);
        let (b, sb) = run(42);
        assert_eq!(a, b, "same seed must produce the same fault sequence");
        assert_eq!(sa, sb);
        assert!(sa.total() > 0, "p=0.2 over 100 ops must inject something");
        let (c, _) = run(43);
        assert_ne!(a, c, "different seeds should diverge (p=0.2, 100 ops)");
    }

    #[test]
    fn disabled_backend_is_transparent_but_keeps_counting() {
        let (b, h) = fresh(FaultPlan::transient(7, 1.0));
        h.set_enabled(false);
        let mut buf = [0u8; 64];
        for i in 0..20u64 {
            b.write_frame(PageId(i), &[3; 64]).unwrap();
            b.read_frame(PageId(i), &mut buf).unwrap();
            assert_eq!(buf, [3u8; 64]);
        }
        assert_eq!(h.injected().total(), 0);
        // Re-enabling with p=1.0: the very next access faults.
        h.set_enabled(true);
        assert!(b.read_frame(PageId(0), &mut buf).is_err());
    }

    #[test]
    fn nth_access_triggers_fire_exactly_once() {
        let (b, h) = fresh(FaultPlan::none(1));
        write_ok(&b, 9, 5);
        h.fail_nth_read(PageId(9), 2);
        h.fail_nth_write(PageId(9), 3); // one write done already → 3rd is next+1
        let mut buf = [0u8; 64];
        b.read_frame(PageId(9), &mut buf).unwrap(); // 1st read: fine
        let err = b.read_frame(PageId(9), &mut buf).unwrap_err(); // 2nd: trigger
        assert!(interrupted(&err), "{err}");
        b.read_frame(PageId(9), &mut buf).unwrap(); // 3rd: one-shot, fine again
        write_ok(&b, 9, 6); // 2nd write: fine
        assert!(interrupted(&b.write_frame(PageId(9), &[7; 64]).unwrap_err()));
        write_ok(&b, 9, 7); // 4th write: fine
        assert_eq!(h.injected().triggers_fired, 2);
    }

    #[test]
    fn torn_writes_are_silent_and_compose_old_and_new() {
        let (b, h) = fresh(FaultPlan::none(11));
        b.write_frame(PageId(0), &[0xaa; 64]).unwrap();
        h.set_plan(FaultPlan { torn_write_p: 1.0, ..FaultPlan::none(11) });
        b.write_frame(PageId(0), &[0xbb; 64]).unwrap(); // silent tear
        assert_eq!(h.injected().torn_writes, 1);
        let mut buf = [0u8; 64];
        b.read_frame(PageId(0), &mut buf).unwrap();
        let cut = buf.iter().position(|&x| x == 0xaa).expect("old suffix must survive");
        assert!(cut >= 1, "at least one new byte lands");
        assert!(buf[..cut].iter().all(|&x| x == 0xbb), "new prefix");
        assert!(buf[cut..].iter().all(|&x| x == 0xaa), "old suffix");
    }

    #[test]
    fn bit_rot_flips_exactly_one_bit() {
        let (b, h) = fresh(FaultPlan { bit_rot_p: 1.0, ..FaultPlan::none(13) });
        b.write_frame(PageId(4), &[0u8; 64]).unwrap();
        assert_eq!(h.injected().bit_rots, 1);
        let mut buf = [0u8; 64];
        b.read_frame(PageId(4), &mut buf).unwrap();
        let ones: u32 = buf.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1, "exactly one bit differs from the written frame");
    }

    #[test]
    fn frame_loss_is_sticky_until_rewritten() {
        let (b, h) = fresh(FaultPlan::none(17));
        write_ok(&b, 2, 9);
        h.set_plan(FaultPlan { frame_loss_p: 1.0, ..FaultPlan::none(17) });
        let mut buf = [0u8; 64];
        assert!(!interrupted(&b.read_frame(PageId(2), &mut buf).unwrap_err()));
        h.set_plan(FaultPlan::none(17));
        for _ in 0..3 {
            let err = b.read_frame(PageId(2), &mut buf).unwrap_err();
            assert!(!interrupted(&err), "loss must be permanent: {err}");
        }
        assert_eq!(h.injected().frames_lost, 1, "one loss, however often it is read");
        write_ok(&b, 2, 10); // rewrite heals
        b.read_frame(PageId(2), &mut buf).unwrap();
        assert_eq!(buf, [10u8; 64]);
    }

    /// A torn write is never a lost write: over old/new frame pairs that
    /// differ everywhere, in one payload byte, only in the payload's tail,
    /// or from a never-written frame, the torn frame fails the store's
    /// validity rule every time. A write that changes nothing is not torn.
    #[test]
    fn every_torn_write_is_detectable() {
        let framed = |payload: &[u8]| {
            let mut frame = payload.to_vec();
            frame.extend_from_slice(&crate::codec::fnv1a64(payload).to_le_bytes());
            frame
        };
        let mut rng = pc_rng::Rng::seed_from_u64(29);
        for i in 0..2_000u64 {
            let mut old = vec![0u8; 56];
            rng.fill_bytes(&mut old);
            let mut new = old.clone();
            match i % 4 {
                0 => rng.fill_bytes(&mut new),
                1 => new[rng.gen_range(0..56usize)] ^= 1 << (i % 8),
                2 => new[rng.gen_range(48..56usize)..].iter_mut().for_each(|x| *x ^= 0x5a),
                _ => new.fill(0),
            }
            let (b, h) = fresh(FaultPlan::none(i));
            if i % 8 != 3 {
                b.write_frame(PageId(1), &framed(&old)).unwrap();
            }
            let torn = FaultPlan { torn_write_p: 1.0, ..FaultPlan::none(i) };
            h.set_plan(torn);
            let new = framed(&new);
            b.write_frame(PageId(1), &new).unwrap();
            assert_eq!(h.injected().torn_writes, 1, "pair {i} was not torn");
            let mut buf = [0u8; 64];
            b.read_frame(PageId(1), &mut buf).unwrap();
            assert!(!crate::codec::frame_is_valid(&buf), "pair {i}: the tear went undetected");
            h.set_plan(FaultPlan::none(i));
            b.write_frame(PageId(1), &new).unwrap();
            h.set_plan(torn);
            b.write_frame(PageId(1), &new).unwrap();
            b.read_frame(PageId(1), &mut buf).unwrap();
            assert_eq!((h.injected().torn_writes, &buf[..]), (1, &new[..]), "pair {i}");
        }
    }

    #[test]
    fn unit_draw_is_uniformish() {
        let mut below = 0u32;
        for i in 0..10_000u64 {
            if unit(3, SALT_READ, i % 97, i / 97) < 0.25 {
                below += 1;
            }
        }
        assert!((2000..3000).contains(&below), "p=0.25 over 10k draws: got {below}");
    }
}
