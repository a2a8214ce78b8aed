//! N-way replicated backend with checksum-verified read failover and a
//! scrub/repair pass.
//!
//! [`MirrorBackend`] keeps every frame on `N` replica backends. Writes go
//! to *all* replicas and fail if any replica fails — a partial mirror write
//! is reported (preferring a retryable error) so the store's retry layer
//! re-drives the whole replicated write, rather than leaving one replica
//! silently stale behind a valid checksum. Reads try replicas in order and
//! serve the first frame the workspace frame rule classifies as *written*
//! ([`crate::codec::classify_frame`] — the same rule the store's checksum
//! verification applies, so the mirror can never "accept" bytes the store
//! would reject). An all-zero *unwritten* frame never shadows a later
//! replica's written data: a fresh or wiped replica answering zeros is a
//! failover-and-repair case, not an answer. A read served by a later
//! replica is a *failover*, and the divergent earlier replicas are
//! rewritten from the good frame on the spot (*read-repair*).
//! [`MirrorBackend::scrub`] walks every frame offline and restores replica
//! agreement from the lowest-indexed written copy.
//!
//! Scrub restores **agreement, not recency**: if replicas diverge with both
//! copies internally valid (possible only after a partial write escaped the
//! retry layer), the lowest-indexed replica's frame wins. The store-level
//! quarantine exists precisely to fence pages whose mirrored write
//! exhausted its retries, closing that window.
//!
//! **Write-ordinal lockstep.** Every write round — a store write, a
//! read-repair, a scrub repair — either writes all replicas or none, so a
//! page's Nth write lands on every replica as that replica's Nth write.
//! Deterministic fault injection leans on this: two [`crate::FaultPlan`]s
//! with one seed and phases half a unit apart fire on disjoint
//! `(page, ordinal)` pairs, which is a guarantee that no single-kind silent
//! fault ever corrupts every replica of a frame at once — but only while
//! the replicas' ordinals agree.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::backend::{Backend, ResilienceStats, ScrubReport};
use crate::codec::{classify_frame, FrameState};
use crate::error::{Result, StoreError};
use crate::store::PageId;

/// A backend replicating frames across N inner backends; see module docs.
pub struct MirrorBackend {
    replicas: Vec<Box<dyn Backend>>,
    frame_size: usize,
    failovers: AtomicU64,
    repairs: AtomicU64,
}

impl MirrorBackend {
    /// Builds a mirror over `replicas` (at least one, identical frame
    /// sizes). One replica is a valid degenerate mirror — useful for
    /// comparing counters against true replication.
    pub fn new(replicas: Vec<Box<dyn Backend>>) -> Self {
        assert!(!replicas.is_empty(), "a mirror needs at least one replica");
        let frame_size = replicas[0].frame_size();
        assert!(
            replicas.iter().all(|r| r.frame_size() == frame_size),
            "all mirror replicas must share one frame size"
        );
        MirrorBackend {
            replicas,
            frame_size,
            failovers: AtomicU64::new(0),
            repairs: AtomicU64::new(0),
        }
    }

    /// Number of replicas.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    fn note_repair(&self) {
        self.repairs.fetch_add(1, Ordering::Relaxed);
    }
}

/// Of the errors a replicated op collected, pick what to surface: a
/// retryable error if any replica failed retryably (the store's retry loop
/// can then re-drive the whole mirrored op), else the first error.
fn prefer_transient(errs: Vec<StoreError>) -> StoreError {
    let mut first = None;
    for e in errs {
        if e.is_transient() {
            return e;
        }
        first.get_or_insert(e);
    }
    first.expect("prefer_transient called with at least one error")
}

impl Backend for MirrorBackend {
    fn frame_size(&self) -> usize {
        self.frame_size
    }

    fn read_frame(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        let mut errs: Vec<StoreError> = Vec::new();
        // Earlier replicas that could not produce *written* data; they can
        // be repaired once a good copy turns up. `corrupt` frames failed
        // their checksum; `unwritten` frames read as all-zero — which is
        // not damage, but must never shadow a later replica's real data
        // (a fresh or wiped replica would otherwise silently answer every
        // read with a zero page).
        let mut corrupt: Vec<usize> = Vec::new();
        let mut unwritten: Vec<usize> = Vec::new();
        let mut corrupt_bytes: Option<Vec<u8>> = None;
        for (i, replica) in self.replicas.iter().enumerate() {
            match replica.read_frame(id, buf) {
                Ok(()) => match classify_frame(buf) {
                    FrameState::Written => {
                        if i > 0 {
                            self.failovers.fetch_add(1, Ordering::Relaxed);
                        }
                        // Read-repair, best-effort — a failed repair write
                        // leaves that replica corrupt-but-detectable, which
                        // scrub will get. The round rewrites *every*
                        // replica, not just the divergent ones: a repair
                        // that wrote a strict subset would advance the
                        // replicas' write counts unevenly, and
                        // deterministic fault injectors keyed on per-page
                        // write ordinals (FaultBackend with phase-offset
                        // plans) rely on those staying in lockstep to
                        // guarantee faults never hit all replicas at once.
                        if !corrupt.is_empty() || !unwritten.is_empty() {
                            for (j, replica) in self.replicas.iter().enumerate() {
                                if replica.write_frame(id, buf).is_ok()
                                    && (corrupt.contains(&j) || unwritten.contains(&j))
                                {
                                    self.note_repair();
                                }
                            }
                        }
                        return Ok(());
                    }
                    FrameState::Unwritten => unwritten.push(i),
                    FrameState::Corrupt => {
                        corrupt.push(i);
                        if corrupt_bytes.is_none() {
                            corrupt_bytes = Some(buf.to_vec());
                        }
                    }
                },
                Err(e) => errs.push(e),
            }
        }
        // No replica produced written data. A replica that failed
        // retryably may still hold a good copy, so a retryable error wins:
        // the store's retry loop re-drives the whole mirrored read. Failing
        // that, corrupt bytes beat unwritten zeroes — a corrupt frame is
        // evidence data existed, and handing up its bytes lets the store
        // report ChecksumMismatch instead of silently serving a zero page.
        // Only when every answering replica says "never written" is the
        // zero page the truth.
        let retryable = errs.iter().any(StoreError::is_transient);
        match (corrupt_bytes, retryable) {
            (_, true) => Err(prefer_transient(errs)),
            (Some(bytes), false) => {
                buf.copy_from_slice(&bytes);
                Ok(())
            }
            (None, false) if !unwritten.is_empty() => {
                buf.fill(0);
                Ok(())
            }
            (None, false) => Err(prefer_transient(errs)),
        }
    }

    fn write_frame(&self, id: PageId, buf: &[u8]) -> Result<()> {
        let mut errs: Vec<StoreError> = Vec::new();
        for replica in &self.replicas {
            if let Err(e) = replica.write_frame(id, buf) {
                errs.push(e);
            }
        }
        // All-or-error: a partial mirror write must be re-driven in full,
        // otherwise a failed replica keeps its old (valid-checksum!) frame
        // and could later serve it as a silently stale answer.
        if errs.is_empty() {
            Ok(())
        } else {
            Err(prefer_transient(errs))
        }
    }

    fn sync(&self) -> Result<()> {
        for replica in &self.replicas {
            replica.sync()?;
        }
        Ok(())
    }

    fn frame_count(&self) -> u64 {
        self.replicas.iter().map(|r| r.frame_count()).max().unwrap_or(0)
    }

    fn resilience_stats(&self) -> ResilienceStats {
        ResilienceStats {
            failovers: self.failovers.load(Ordering::Relaxed),
            repairs: self.repairs.load(Ordering::Relaxed),
        }
    }

    fn reset_resilience_stats(&self) {
        self.failovers.store(0, Ordering::Relaxed);
        self.repairs.store(0, Ordering::Relaxed);
    }

    fn scrub(&self) -> Result<ScrubReport> {
        let _span = pc_obs::span!("mirror.scrub");
        // Scrub runs offline with no store retry layer above it, so it
        // absorbs transient replica errors itself. Reads retry per replica
        // (reads never advance write ordinals); a repair round that fails
        // transiently on any replica is re-driven against *all* replicas,
        // keeping the write-ordinal lockstep intact. Without this, a
        // transient read on one replica while the other holds a torn frame
        // would be miscounted as unrecoverable.
        const ATTEMPTS: u32 = 4;
        fn read_retrying(replica: &dyn Backend, id: PageId, buf: &mut [u8]) -> Result<()> {
            let mut last = None;
            for _ in 0..ATTEMPTS {
                match replica.read_frame(id, buf) {
                    Err(e) if e.is_transient() => last = Some(e),
                    other => return other,
                }
            }
            Err(last.expect("retry loop ran at least once"))
        }
        let mut report = ScrubReport::default();
        let mut frame = vec![0u8; self.frame_size];
        let mut scratch = vec![0u8; self.frame_size];
        for ordinal in 0..self.frame_count() {
            let id = PageId(ordinal);
            report.frames_checked += 1;
            // Canonical copy: the lowest-indexed replica holding *written*
            // data (agreement, not recency — see module docs). An unwritten
            // (all-zero) frame is never canonical: a fresh or wiped replica
            // must not "repair" a good replica down to zeros, and zeros
            // must not paper over a corrupt replica — corruption stays
            // detectable. A frame every answering replica reports as
            // unwritten is simply healthy and needs nothing.
            let mut canonical: Option<usize> = None;
            let mut saw_corrupt = false;
            let mut saw_unwritten = false;
            for (i, replica) in self.replicas.iter().enumerate() {
                if read_retrying(replica.as_ref(), id, &mut frame).is_ok() {
                    match classify_frame(&frame) {
                        FrameState::Written => {
                            canonical = Some(i);
                            break;
                        }
                        FrameState::Unwritten => saw_unwritten = true,
                        FrameState::Corrupt => saw_corrupt = true,
                    }
                }
            }
            let Some(canon_idx) = canonical else {
                if saw_corrupt || !saw_unwritten {
                    report.unrecoverable += 1;
                }
                continue;
            };
            let mut divergent: Vec<usize> = Vec::new();
            for (i, replica) in self.replicas.iter().enumerate() {
                if i == canon_idx {
                    continue;
                }
                let healthy = match read_retrying(replica.as_ref(), id, &mut scratch) {
                    Ok(()) => scratch == frame,
                    Err(_) => false,
                };
                if !healthy {
                    divergent.push(i);
                }
            }
            // All-or-none repair rounds, for the same write-ordinal-lockstep
            // reason as read-repair (see `read_frame`). Each divergent
            // replica counts as repaired at most once across the re-driven
            // rounds.
            if !divergent.is_empty() {
                let mut pending = divergent;
                let mut repaired_any = false;
                for _ in 0..ATTEMPTS {
                    let mut retry = false;
                    for (i, replica) in self.replicas.iter().enumerate() {
                        match replica.write_frame(id, &frame) {
                            Ok(()) => {
                                if let Some(pos) = pending.iter().position(|&p| p == i) {
                                    pending.remove(pos);
                                    self.note_repair();
                                    repaired_any = true;
                                }
                            }
                            Err(e) if e.is_transient() => retry = true,
                            Err(_) => {}
                        }
                    }
                    if !retry {
                        break;
                    }
                }
                if repaired_any {
                    report.repaired += 1;
                }
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::codec::{fnv1a64, frame_is_valid};
    use crate::fault::{FaultBackend, FaultHandle, FaultPlan};

    const FS: usize = 64;

    fn valid_frame(fill: u8) -> Vec<u8> {
        let mut f = vec![fill; FS];
        let sum = fnv1a64(&f[..FS - 8]);
        f[FS - 8..].copy_from_slice(&sum.to_le_bytes());
        f
    }

    fn mirror2() -> (MirrorBackend, FaultHandle, FaultHandle) {
        let a = FaultBackend::new(Box::new(MemBackend::new(FS)), FaultPlan::none(1));
        let b = FaultBackend::new(Box::new(MemBackend::new(FS)), FaultPlan::none(2));
        let (ha, hb) = (a.handle(), b.handle());
        (MirrorBackend::new(vec![Box::new(a), Box::new(b)]), ha, hb)
    }

    #[test]
    fn roundtrip_and_replica_agreement() {
        let (m, _, _) = mirror2();
        let frame = valid_frame(9);
        m.write_frame(PageId(0), &frame).unwrap();
        let mut buf = vec![0u8; FS];
        m.read_frame(PageId(0), &mut buf).unwrap();
        assert_eq!(buf, frame);
        assert_eq!(m.resilience_stats(), ResilienceStats::default());
    }

    #[test]
    fn read_fails_over_and_repairs_a_rotten_primary() {
        let (m, ha, _) = mirror2();
        let frame = valid_frame(7);
        m.write_frame(PageId(3), &frame).unwrap();
        ha.rot_page(PageId(3)); // replica 0 now serves a flipped bit
        let mut buf = vec![0u8; FS];
        m.read_frame(PageId(3), &mut buf).unwrap();
        assert_eq!(buf, frame, "failover must serve replica 1's good copy");
        let rs = m.resilience_stats();
        assert_eq!((rs.failovers, rs.repairs), (1, 1));
        // Read-repair rewrote replica 0 (the rewrite clears pending rot),
        // so the next read is clean off the primary.
        m.read_frame(PageId(3), &mut buf).unwrap();
        assert_eq!(buf, frame);
        assert_eq!(m.resilience_stats().failovers, 1, "no second failover");
    }

    #[test]
    fn transient_primary_error_fails_over_without_store_retry() {
        let (m, ha, _) = mirror2();
        let frame = valid_frame(5);
        m.write_frame(PageId(1), &frame).unwrap();
        ha.fail_nth_read(PageId(1), 2);
        let mut buf = vec![0u8; FS];
        m.read_frame(PageId(1), &mut buf).unwrap(); // 1st read: primary fine
        m.read_frame(PageId(1), &mut buf).unwrap(); // 2nd: replica 1 serves
        assert_eq!(buf, frame);
        assert_eq!(m.resilience_stats().failovers, 1);
    }

    #[test]
    fn partial_write_reports_an_error_preferring_transient() {
        let (m, _, hb) = mirror2();
        m.write_frame(PageId(2), &valid_frame(1)).unwrap();
        hb.fail_nth_write(PageId(2), 2);
        let err = m.write_frame(PageId(2), &valid_frame(2)).unwrap_err();
        assert!(err.is_transient(), "retry layer must get a retryable error: {err}");
        // Replica 0 took the new frame, replica 1 kept the old one; the
        // re-driven write converges both.
        m.write_frame(PageId(2), &valid_frame(2)).unwrap();
        let mut buf = vec![0u8; FS];
        m.read_frame(PageId(2), &mut buf).unwrap();
        assert_eq!(buf, valid_frame(2));
        assert_eq!(m.resilience_stats().failovers, 0);
    }

    #[test]
    fn all_replicas_corrupt_surfaces_the_bytes_not_a_panic() {
        let (m, ha, hb) = mirror2();
        m.write_frame(PageId(4), &valid_frame(3)).unwrap();
        ha.rot_page(PageId(4));
        hb.rot_page(PageId(4));
        let mut buf = vec![0u8; FS];
        // Both replicas corrupt: the read succeeds with invalid bytes so the
        // store's checksum verification reports ChecksumMismatch.
        m.read_frame(PageId(4), &mut buf).unwrap();
        assert!(!frame_is_valid(&buf));
        assert_eq!(m.resilience_stats().repairs, 0, "nothing good to repair from");
    }

    #[test]
    fn all_replicas_lost_surfaces_a_permanent_error() {
        let (m, ha, hb) = mirror2();
        m.write_frame(PageId(5), &valid_frame(8)).unwrap();
        ha.lose_page(PageId(5));
        hb.lose_page(PageId(5));
        let mut buf = vec![0u8; FS];
        let err = m.read_frame(PageId(5), &mut buf).unwrap_err();
        assert!(!err.is_transient());
    }

    #[test]
    fn scrub_rewrites_bad_replicas_and_reports() {
        let (m, ha, hb) = mirror2();
        for i in 0..8u64 {
            m.write_frame(PageId(i), &valid_frame(i as u8 + 1)).unwrap();
        }
        ha.rot_page(PageId(2));
        hb.rot_page(PageId(6));
        hb.lose_page(PageId(7));
        let report = m.scrub().unwrap();
        assert_eq!(report.frames_checked, 8);
        assert_eq!(report.repaired, 3);
        assert_eq!(report.unrecoverable, 0);
        assert_eq!(m.resilience_stats().repairs, 3);
        // Everything reads clean off the primary afterwards.
        let mut buf = vec![0u8; FS];
        for i in 0..8u64 {
            m.read_frame(PageId(i), &mut buf).unwrap();
            assert_eq!(buf, valid_frame(i as u8 + 1));
        }
        assert_eq!(m.resilience_stats().failovers, 0);
    }

    #[test]
    fn fresh_primary_must_not_shadow_written_secondary() {
        // Regression: replica 0 is fresh (reads as zeros — "unwritten"),
        // replica 1 holds real data. The zero frame used to pass
        // frame_is_valid and win, silently serving a zero page.
        let secondary = MemBackend::new(FS);
        let frame = valid_frame(6);
        secondary.write_frame(PageId(0), &frame).unwrap();
        let m = MirrorBackend::new(vec![
            Box::new(MemBackend::new(FS)),
            Box::new(secondary),
        ]);
        let mut buf = vec![0u8; FS];
        m.read_frame(PageId(0), &mut buf).unwrap();
        assert_eq!(buf, frame, "written data must win over unwritten zeros");
        let rs = m.resilience_stats();
        assert_eq!((rs.failovers, rs.repairs), (1, 1));
        // Read-repair filled the fresh replica: next read is clean off the
        // primary, no second failover.
        m.read_frame(PageId(0), &mut buf).unwrap();
        assert_eq!(buf, frame);
        assert_eq!(m.resilience_stats().failovers, 1);
    }

    #[test]
    fn never_written_frame_reads_as_zeros_without_failover() {
        let (m, _, _) = mirror2();
        let mut buf = vec![1u8; FS];
        m.read_frame(PageId(9), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(m.resilience_stats(), ResilienceStats::default());
    }

    #[test]
    fn scrub_repairs_fresh_replica_from_written_one_never_the_reverse() {
        let secondary = MemBackend::new(FS);
        let frame = valid_frame(4);
        secondary.write_frame(PageId(0), &frame).unwrap();
        let m = MirrorBackend::new(vec![
            Box::new(MemBackend::new(FS)),
            Box::new(secondary),
        ]);
        let report = m.scrub().unwrap();
        assert_eq!(report.repaired, 1);
        assert_eq!(report.unrecoverable, 0);
        let mut buf = vec![0u8; FS];
        m.read_frame(PageId(0), &mut buf).unwrap();
        assert_eq!(buf, frame, "scrub must copy written data into the fresh replica");
        assert_eq!(m.resilience_stats().failovers, 0, "primary now holds the data");
    }

    #[test]
    fn scrub_leaves_never_written_frames_alone_and_keeps_corruption_detectable() {
        let (m, ha, hb) = mirror2();
        // Frame 0: written then corrupted on both replicas — no written
        // copy survives, and the unwritten-looking zeros elsewhere must
        // not be used to paper over it.
        m.write_frame(PageId(0), &valid_frame(2)).unwrap();
        ha.rot_page(PageId(0));
        hb.rot_page(PageId(0));
        // Frame 1: written on both, so frames 0..=1 exist; frame 1 healthy.
        m.write_frame(PageId(1), &valid_frame(3)).unwrap();
        let report = m.scrub().unwrap();
        assert_eq!(report.unrecoverable, 1);
        assert_eq!(report.repaired, 0);
        // The corrupt frame still reads as corrupt bytes, not zeros.
        let mut buf = vec![0u8; FS];
        m.read_frame(PageId(0), &mut buf).unwrap();
        assert!(!frame_is_valid(&buf));
    }

    #[test]
    fn scrub_reports_unrecoverable_frames_untouched() {
        let (m, ha, hb) = mirror2();
        m.write_frame(PageId(0), &valid_frame(1)).unwrap();
        ha.rot_page(PageId(0));
        hb.rot_page(PageId(0));
        let report = m.scrub().unwrap();
        assert_eq!(report.unrecoverable, 1);
        assert_eq!(report.repaired, 0);
    }
}
