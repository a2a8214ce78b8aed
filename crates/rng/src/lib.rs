//! # pc-rng — deterministic random numbers without crates.io
//!
//! The workspace is hermetic (tier-1 verify runs with the network
//! disabled), so this crate replaces `rand` everywhere: workload
//! generation, randomized tests, and the property-testing harness in
//! [`check`].
//!
//! The generator is **xoshiro256\*\*** (Blackman & Vigna), seeded from a
//! single `u64` through **SplitMix64** — the same seeding scheme the
//! reference implementation recommends, and the scheme `rand`'s
//! `SeedableRng::seed_from_u64` uses. Both algorithms are tiny, public
//! domain, and fully specified, which is the point: every EXPERIMENTS.md
//! run is reproducible bit-for-bit on any machine from the printed seed,
//! with no third-party code on the measurement path.
//!
//! Determinism contract: for a fixed crate version, `Rng::seed_from_u64(s)`
//! yields the same stream on every platform. The stream is pinned by unit
//! tests against the reference test vectors, so an accidental algorithm
//! change fails CI rather than silently invalidating recorded experiments.

pub mod check;

/// SplitMix64: a tiny 64-bit generator used to expand one seed word into
/// xoshiro state (and usable standalone for cheap hashing/mixing).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One-shot SplitMix64 mix of a single word; handy for deriving per-case
/// seeds from a base seed plus an index.
pub fn mix64(x: u64) -> u64 {
    SplitMix64::new(x).next_u64()
}

/// One draw from the decision space `(seed, salt, a, b)`: how the seeded
/// fault and crash plans decide per access, with no state to advance, so a
/// decision depends on what is accessed and never on what else ran before.
pub fn draw(seed: u64, salt: u64, a: u64, b: u64) -> u64 {
    let (salt, a, b) = (mix64(salt), mix64(a).rotate_left(17), mix64(b).rotate_left(31));
    mix64(seed.wrapping_add(salt).wrapping_add(a).wrapping_add(b))
}

/// Seeded xoshiro256** generator: the workspace-standard PRNG.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator whose 256-bit state is expanded from `seed`
    /// with SplitMix64 (never all-zero, per the xoshiro authors).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Rng { s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()] }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)` by unbiased rejection sampling.
    /// `bound` must be nonzero.
    fn bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Reject the low `2^64 mod bound` values so the remainder is exact.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let v = self.next_u64();
            if v >= threshold {
                return v % bound;
            }
        }
    }

    /// Uniform value in `range`, matching `rand`'s `gen_range` call shape:
    /// both `lo..hi` and `lo..=hi` work, over `i64`, `u64`, and `usize`.
    ///
    /// Panics if the range is empty.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fills `buf` with random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    /// Fisher–Yates shuffle of `slice`.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.bounded(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// A reference to a uniformly random element, or `None` if empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.bounded(slice.len() as u64) as usize])
        }
    }
}

/// Range types accepted by [`Rng::gen_range`].
pub trait SampleRange {
    /// Element type produced by sampling.
    type Output;
    /// Draws one uniform value from the range.
    fn sample(self, rng: &mut Rng) -> Self::Output;
}

impl SampleRange for std::ops::Range<i64> {
    type Output = i64;
    fn sample(self, rng: &mut Rng) -> i64 {
        assert!(self.start < self.end, "empty range {}..{}", self.start, self.end);
        let span = self.end.wrapping_sub(self.start) as u64;
        self.start.wrapping_add(rng.bounded(span) as i64)
    }
}

impl SampleRange for std::ops::RangeInclusive<i64> {
    type Output = i64;
    fn sample(self, rng: &mut Rng) -> i64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = hi.wrapping_sub(lo) as u64;
        if span == u64::MAX {
            // Full i64 domain: every 64-bit draw is a valid sample.
            return rng.next_u64() as i64;
        }
        lo.wrapping_add(rng.bounded(span + 1) as i64)
    }
}

impl SampleRange for std::ops::Range<u64> {
    type Output = u64;
    fn sample(self, rng: &mut Rng) -> u64 {
        assert!(self.start < self.end, "empty range {}..{}", self.start, self.end);
        self.start + rng.bounded(self.end - self.start)
    }
}

impl SampleRange for std::ops::RangeInclusive<u64> {
    type Output = u64;
    fn sample(self, rng: &mut Rng) -> u64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = hi - lo;
        if span == u64::MAX {
            return rng.next_u64();
        }
        lo + rng.bounded(span + 1)
    }
}

impl SampleRange for std::ops::Range<usize> {
    type Output = usize;
    fn sample(self, rng: &mut Rng) -> usize {
        (self.start as u64..self.end as u64).sample(rng) as usize
    }
}

impl SampleRange for std::ops::RangeInclusive<usize> {
    type Output = usize;
    fn sample(self, rng: &mut Rng) -> usize {
        (*self.start() as u64..=*self.end() as u64).sample(rng) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vectors from the xoshiro256** public-domain C source:
    /// state seeded as {1, 2, 3, 4} must produce this exact stream.
    #[test]
    fn xoshiro_reference_vectors() {
        let mut rng = Rng { s: [1, 2, 3, 4] };
        let expected: [u64; 8] = [
            11520,
            0,
            1509978240,
            1215971899390074240,
            1216172134540287360,
            607988272756665600,
            16172922978634559625,
            8476171486693032832,
        ];
        for want in expected {
            assert_eq!(rng.next_u64(), want);
        }
    }

    /// Reference vectors for SplitMix64 seeded with 1234567.
    #[test]
    fn splitmix_reference_vectors() {
        let mut sm = SplitMix64::new(1234567);
        let expected: [u64; 5] = [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ];
        for want in expected {
            assert_eq!(sm.next_u64(), want);
        }
    }

    #[test]
    fn seeding_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = Rng::seed_from_u64(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::seed_from_u64(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::seed_from_u64(43);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn gen_range_stays_in_bounds_all_shapes() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..2000 {
            let v = rng.gen_range(-5i64..70);
            assert!((-5..70).contains(&v));
            let v = rng.gen_range(-1_000_000i64..=1_000_000);
            assert!((-1_000_000..=1_000_000).contains(&v));
            let v = rng.gen_range(0usize..3);
            assert!(v < 3);
            let v = rng.gen_range(0usize..=0);
            assert_eq!(v, 0);
            let v = rng.gen_range(5u64..=6);
            assert!((5..=6).contains(&v));
        }
    }

    #[test]
    fn gen_range_covers_small_domains() {
        let mut rng = Rng::seed_from_u64(11);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[rng.gen_range(0usize..5)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 5 values should appear in 200 draws");
    }

    #[test]
    fn full_domain_inclusive_ranges_do_not_overflow() {
        let mut rng = Rng::seed_from_u64(13);
        let _ = rng.gen_range(i64::MIN..=i64::MAX);
        let _ = rng.gen_range(0u64..=u64::MAX);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(17);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(v, sorted, "shuffle of 100 elements should not be identity");
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = Rng::seed_from_u64(19);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(23);
        for _ in 0..1000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
