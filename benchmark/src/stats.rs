//! Exact latency statistics: every sample is kept as a `u64` nanosecond
//! count (no buckets), merged across connections and sorted once after the
//! pass. Rates and percentiles are taken per time slice and the median
//! slice is reported, so one slow slice (a checkpoint, a host hiccup) does
//! not move the reported value.

/// The percentiles the tail rule chooses from, lowest first.
const LADDER: [f64; 6] = [0.50, 0.90, 0.99, 0.999, 0.9999, 0.99999];

/// Sorted nanosecond samples of one kind of operation.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn new(mut ns: Vec<u64>) -> Samples {
        ns.sort_unstable();
        Samples(ns)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// 1-based nearest rank of percentile `p` among `n` samples.
    fn rank(p: f64, n: usize) -> usize {
        ((p * n as f64).ceil() as usize).clamp(1, n)
    }

    /// Nearest-rank percentile (`p` in `(0, 1]`); `None` without samples.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        (!self.0.is_empty()).then(|| self.0[Self::rank(p, self.0.len()) - 1])
    }

    pub fn percentile_us(&self, p: f64) -> Option<f64> {
        self.percentile(p).map(|ns| ns as f64 / 1e3)
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().map(|&v| v as f64).sum()
    }

    pub fn mean(&self) -> Option<f64> {
        (!self.0.is_empty()).then(|| self.sum() / self.0.len() as f64)
    }

    /// The highest ladder percentile with at least ten samples beyond it,
    /// with its value: the furthest tail this sample count supports.
    pub fn supported_tail(&self) -> Option<(f64, u64)> {
        let n = self.0.len();
        LADDER
            .iter()
            .rev()
            .find(|&&p| n > 0 && n - Self::rank(p, n) >= 10)
            .map(|&p| (p, self.0[Self::rank(p, n) - 1]))
    }
}

/// Median of a list (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// Interquartile range over median of a handful of values (the quartiles
/// are the medians of the lower and upper halves); 0 when undefined.
pub fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (lower, upper) = (&v[..v.len() / 2], &v[v.len().div_ceil(2)..]);
    match (median(lower), median(upper), median(&v)) {
        (Some(q1), Some(q3), Some(m)) if m > 0.0 => (q3 - q1) / m,
        _ => 0.0,
    }
}

/// The measured window of a timed pass: `warmup_ns` discarded, then
/// `slices` slices of `slice_ns` each. Times are nanoseconds since the
/// pass started.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub warmup_ns: u64,
    pub slice_ns: u64,
    pub slices: usize,
}

impl Window {
    pub fn end_ns(&self) -> u64 {
        self.warmup_ns + self.slice_ns * self.slices as u64
    }

    /// The slice a completion time falls in; `None` during warm-up or
    /// after the last slice.
    pub fn slice_of(&self, done_ns: u64) -> Option<usize> {
        let at = done_ns.checked_sub(self.warmup_ns)? / self.slice_ns;
        ((at as usize) < self.slices).then_some(at as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_vectors() {
        let s = Samples::new((1..=100).rev().collect());
        assert_eq!(s.percentile(0.50), Some(50));
        assert_eq!(s.percentile(0.99), Some(99));
        assert_eq!(s.percentile(1.0), Some(100));
        assert_eq!(s.percentile(0.001), Some(1));
        assert_eq!(Samples::new(vec![7]).percentile(0.99), Some(7));
        assert_eq!(Samples::default().percentile(0.5), None);
        assert_eq!(s.mean(), Some(50.5));
    }

    #[test]
    fn ties_do_not_move_the_rank() {
        // 90 equal values then 10 larger: p50 and p90 sit on the tie.
        let mut v = vec![5u64; 90];
        v.extend(std::iter::repeat_n(9, 10));
        let s = Samples::new(v);
        assert_eq!(s.percentile(0.50), Some(5));
        assert_eq!(s.percentile(0.90), Some(5));
        assert_eq!(s.percentile(0.91), Some(9));
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 19 samples: even p50 (rank 10) has only 9 beyond it.
        assert_eq!(Samples::new((0..19).collect()).supported_tail(), None);
        // 20 samples: p50 has exactly ten beyond.
        assert_eq!(Samples::new((0..20).collect()).supported_tail(), Some((0.50, 9)));
        // 999 samples: p99 is rank 990, nine beyond -> falls back to p90.
        assert_eq!(Samples::new((0..999).collect()).supported_tail().unwrap().0, 0.90);
        // 1000 samples: p99 is rank 990, ten beyond.
        assert_eq!(Samples::new((0..1000).collect()).supported_tail(), Some((0.99, 989)));
        // 10_000 samples reach p99.9 and no further.
        assert_eq!(Samples::new((0..10_000).collect()).supported_tail().unwrap().0, 0.999);
    }

    #[test]
    fn slices_exclude_warmup_and_overtime() {
        let w = Window { warmup_ns: 1_000, slice_ns: 1_000, slices: 3 };
        assert_eq!(w.slice_of(999), None);
        assert_eq!(w.slice_of(1_000), Some(0));
        assert_eq!(w.slice_of(3_999), Some(2));
        assert_eq!(w.slice_of(4_000), None);
        assert_eq!(w.end_ns(), 4_000);
        // One bad slice (1) among good ones (4, 4) does not move the median.
        assert_eq!(median(&[4.0, 1.0, 4.0]), Some(4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // Quartiles 2 and 5 around a median of 3.5.
        assert_eq!(spread(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), 3.0 / 3.5);
        assert_eq!(spread(&[]), 0.0);
    }
}
