//! Deterministic 1-in-N request sampling.
//!
//! The serve layer decides per request whether to open a
//! [`crate::begin_trace`] capture, so a server traces a controlled
//! fraction of its traffic. The decision is a pure function of
//! `(seed, key)` — *not* a thread-local counter — so the sampled set is
//! independent of worker interleaving: the same workload replayed against
//! the same seed selects exactly the same requests. That property is what
//! makes sampled traces comparable across runs (and is pinned by the
//! determinism tests).
//!
//! The rate is a relaxed atomic so an operator can retune a live server
//! (the `SetSampling` ADMIN op); `0` disables sampling entirely.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// SplitMix64 finalizer: a cheap, well-dispersed 64-bit mix.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// A seeded, runtime-switchable 1-in-N sampler.
#[derive(Debug)]
pub struct Sampler {
    seed: u64,
    every: AtomicU64,
}

impl Sampler {
    /// A sampler selecting (deterministically) about one key in `every`.
    /// `every == 0` selects nothing; `every == 1` selects everything.
    pub fn new(every: u64, seed: u64) -> Sampler {
        Sampler { seed, every: AtomicU64::new(every) }
    }

    /// The current rate (0 = off).
    pub fn every(&self) -> u64 {
        self.every.load(Relaxed)
    }

    /// Retunes the rate on a live sampler.
    pub fn set_every(&self, every: u64) {
        self.every.store(every, Relaxed);
    }

    /// Whether the request identified by `key` is sampled. Pure in
    /// `(seed, key)` for a fixed rate.
    #[inline]
    pub fn should_sample(&self, key: u64) -> bool {
        match self.every.load(Relaxed) {
            0 => false,
            1 => true,
            n => mix64(self.seed ^ key.wrapping_mul(0x9e3779b97f4a7c15)).is_multiple_of(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_off_and_one_is_everything() {
        let s = Sampler::new(0, 7);
        assert!((0..100).all(|k| !s.should_sample(k)));
        s.set_every(1);
        assert_eq!(s.every(), 1);
        assert!((0..100).all(|k| s.should_sample(k)));
    }

    #[test]
    fn same_seed_same_rate_selects_the_same_set() {
        let a = Sampler::new(8, 0xFEED);
        let b = Sampler::new(8, 0xFEED);
        let pick = |s: &Sampler| (0..10_000u64).filter(|&k| s.should_sample(k)).collect::<Vec<_>>();
        assert_eq!(pick(&a), pick(&b));
        assert!(!pick(&a).is_empty());
    }

    #[test]
    fn different_seeds_select_different_sets() {
        let a = Sampler::new(8, 1);
        let b = Sampler::new(8, 2);
        let pick = |s: &Sampler| (0..10_000u64).filter(|&k| s.should_sample(k)).collect::<Vec<_>>();
        assert_ne!(pick(&a), pick(&b));
    }

    #[test]
    fn rate_is_approximately_one_in_n() {
        for every in [2u64, 8, 64] {
            let s = Sampler::new(every, 0xA5A5);
            let n = 100_000u64;
            let hits = (0..n).filter(|&k| s.should_sample(k)).count() as f64;
            let expect = n as f64 / every as f64;
            assert!(
                (hits - expect).abs() < expect * 0.25,
                "every={every}: {hits} hits, expected ~{expect}"
            );
        }
    }

    #[test]
    fn retuning_applies_immediately() {
        let s = Sampler::new(0, 3);
        assert!(!s.should_sample(10));
        s.set_every(1);
        assert!(s.should_sample(10));
        s.set_every(0);
        assert!(!s.should_sample(10));
    }
}
