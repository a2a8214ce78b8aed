//! The B-tree's intra-node search: a fork of [`slice::partition_point`].
//!
//! Same contract as `std`'s, restructured the way "Cache-Friendly Search
//! Trees" and the classic branch-free lower-bound idiom suggest: the probe
//! result feeds the new base through arithmetic (a conditional move, not a
//! branch), the range shrinks by `len -= half` in both outcomes, so the
//! trip count depends only on the slice length, and below
//! [`LINEAR_CUTOFF`] elements a forward linear scan takes over. Purely
//! in-memory: callers issue the same page reads, so strict-mode transfer
//! counts are untouched.
//!
//! **Measured (PR 24, `benchmark/` `point_warm`, seed 11, ten alternating
//! pairs, this module against `std` at every call site):** on
//! `btree.range_us` — `pc-btree`'s separator and leaf searches, its only
//! callers — median 5.12 µs (quartiles 5.04–5.33) against 5.39 with `std`
//! (5.29–6.95), ahead in 8 of 10 pairs: 5%, inside the spread, not a gain
//! by the nine-in-ten rule, and invisible end to end (`query_p50_us` 72.4
//! against 69.9). On `pst.two_sided_us` 5.58 against 5.51, ahead in 6 of
//! 10: nothing, so `pc-pst` and `pc-segtree` call `std`'s. ROADMAP 2i has
//! the rest of the deletion.

/// Range length below which a forward linear scan replaces halving.
///
/// Benchmark-tuned coarsely: any value in 4..=16 is within noise on the
/// slices this workspace produces; 8 keeps the worst-case scan at one
/// cache line of `i64`s.
pub const LINEAR_CUTOFF: usize = 8;

/// Branch-free equivalent of [`slice::partition_point`].
///
/// Requires the same precondition: `pred` is monotone over `xs` (a — possibly
/// empty — prefix satisfies it, the rest does not). Returns the length of
/// that prefix, i.e. the index of the first element for which `pred` is
/// false, or `xs.len()` when all satisfy it.
#[inline]
pub fn partition_point<T>(xs: &[T], mut pred: impl FnMut(&T) -> bool) -> usize {
    let mut base = 0usize;
    let mut len = xs.len();
    // Invariants: every element before `base` satisfies `pred`, and the
    // boundary lies in `base..=base + len`. Probing `base + half - 1` and
    // shrinking by `half` in both outcomes preserves both: on success the
    // boundary is >= base + half; on failure it is <= base + half - 1,
    // and the kept slack `len - half = ceil(len/2) >= half - 1` covers it.
    while len > LINEAR_CUTOFF {
        let half = len / 2;
        let advance = usize::from(pred(&xs[base + half - 1]));
        base += advance * half;
        len -= half;
    }
    let end = base + len;
    while base < end && pred(&xs[base]) {
        base += 1;
    }
    base
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_slice() {
        let xs: [i64; 0] = [];
        assert_eq!(partition_point(&xs, |&x| x < 5), 0);
    }

    #[test]
    fn single_element() {
        assert_eq!(partition_point(&[3i64], |&x| x < 5), 1);
        assert_eq!(partition_point(&[7i64], |&x| x < 5), 0);
    }

    #[test]
    fn all_equal_keys() {
        let xs = [9i64; 33];
        assert_eq!(partition_point(&xs, |&x| x < 9), 0);
        assert_eq!(partition_point(&xs, |&x| x <= 9), 33);
        assert_eq!(partition_point(&xs, |&x| x < 100), 33);
    }

    #[test]
    fn duplicates_find_first_boundary() {
        let xs = [1i64, 1, 2, 2, 2, 3, 3, 5, 5, 5, 5, 8];
        for key in 0..10 {
            assert_eq!(
                partition_point(&xs, |&x| x < key),
                xs.partition_point(|&x| x < key),
                "key {key}"
            );
            assert_eq!(
                partition_point(&xs, |&x| x <= key),
                xs.partition_point(|&x| x <= key),
                "key {key}"
            );
        }
    }

    #[test]
    fn crossover_boundary_lengths() {
        // Every length around the linear-scan cutoff, every boundary
        // position: the cmov loop and the tail scan must hand off exactly.
        for len in 0..=(4 * LINEAR_CUTOFF) {
            let xs: Vec<usize> = (0..len).collect();
            for boundary in 0..=len {
                assert_eq!(
                    partition_point(&xs, |&x| x < boundary),
                    boundary,
                    "len {len} boundary {boundary}"
                );
            }
        }
    }

    #[test]
    fn agrees_with_std_on_fuzzed_inputs() {
        let mut rng = pc_rng::Rng::seed_from_u64(0x5ea_2c4);
        for _ in 0..2000 {
            let len = rng.gen_range(0usize..200);
            let mut xs: Vec<i64> = (0..len).map(|_| rng.gen_range(-20i64..20)).collect();
            xs.sort_unstable();
            let key = rng.gen_range(-25i64..25);
            assert_eq!(
                partition_point(&xs, |&x| x < key),
                xs.partition_point(|&x| x < key),
                "lt: xs={xs:?} key={key}"
            );
            assert_eq!(
                partition_point(&xs, |&x| x <= key),
                xs.partition_point(|&x| x <= key),
                "le: xs={xs:?} key={key}"
            );
        }
    }
}
