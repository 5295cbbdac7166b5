//! Log-bucketed latency histograms (HDR-style, integer-only).
//!
//! Values are microseconds. The first 32 buckets are exact (one per µs);
//! above that each power-of-two octave is split into 16 sub-buckets, giving
//! a worst-case relative error under ~6.25% at any magnitude while the whole
//! histogram stays under 1000 fixed buckets. Recording is O(1) with no
//! allocation, so a load driver's hot path never touches the heap.

/// Number of exact low buckets (one per microsecond).
const LINEAR_MAX: u64 = 32;
/// Sub-buckets per octave above the linear range.
const SUBBUCKETS: usize = 16;
/// Total bucket count: octaves 5..=63, 16 sub-buckets each.
const BUCKETS: usize = LINEAR_MAX as usize + (64 - 6) * SUBBUCKETS + SUBBUCKETS;

/// A fixed-size log-bucketed histogram of `u64` microsecond values.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
}

/// Bucket index for value `v`.
fn index_of(v: u64) -> usize {
    if v < LINEAR_MAX {
        return v as usize;
    }
    // Octave = position of the highest set bit (≥ 5 here); the next 4 bits
    // select the sub-bucket within the octave.
    let octave = 63 - u64::from(v.leading_zeros());
    let sub = ((v >> (octave - 4)) & 15) as usize;
    (LINEAR_MAX as usize + (octave as usize - 5) * SUBBUCKETS + sub).min(BUCKETS - 1)
}

/// Largest value mapping to bucket `idx` (inverse of [`index_of`]).
fn upper_bound(idx: usize) -> u64 {
    if idx < LINEAR_MAX as usize {
        return idx as u64;
    }
    let octave = 5 + (idx - LINEAR_MAX as usize) / SUBBUCKETS;
    let sub = ((idx - LINEAR_MAX as usize) % SUBBUCKETS) as u128;
    // u128 keeps the top octave (shift 59, factor up to 32) overflow-free.
    let ub = ((17 + sub) << (octave - 4)) - 1;
    ub.min(u128::from(u64::MAX)) as u64
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one value (microseconds).
    pub fn record(&mut self, v: u64) {
        self.counts[index_of(v)] += 1;
        self.total += 1;
        self.sum += u128::from(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest recorded value, exact.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum as f64 / self.total as f64
    }

    /// Value at quantile `q` in `[0, 1]` (bucket upper bound, capped at the
    /// exact observed max); 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return upper_bound(idx).min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_and_upper_bound_are_consistent() {
        // Every value must land in a bucket whose upper bound is >= the
        // value and within the octave's 1/16 relative-error guarantee.
        let mut probes: Vec<u64> = (0..2_000).collect();
        for shift in 11..63 {
            probes.push(1u64 << shift);
            probes.push((1u64 << shift) + (1u64 << (shift - 1)));
            probes.push((1u64 << shift) - 1);
        }
        probes.push(u64::MAX);
        for &v in &probes {
            let idx = index_of(v);
            let ub = upper_bound(idx);
            assert!(ub >= v, "v={v} idx={idx} ub={ub}");
            if v >= LINEAR_MAX && idx < BUCKETS - 1 {
                // Relative error bound: ub < v * (1 + 1/16) + 1.
                assert!(
                    (ub as f64) < (v as f64) * 1.0626 + 1.0,
                    "v={v} idx={idx} ub={ub}"
                );
            }
        }
    }

    #[test]
    fn low_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..32 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 31);
        assert_eq!(h.count(), 32);
    }

    #[test]
    fn quantiles_track_a_known_distribution() {
        let mut h = LogHistogram::new();
        // 1000 values: 1..=1000 ms in µs.
        for v in 1..=1000u64 {
            h.record(v * 1_000);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((475_000..=535_000).contains(&p50), "p50={p50}");
        assert!((940_000..=1_000_000).contains(&p99), "p99={p99}");
        assert_eq!(h.quantile(1.0), 1_000_000);
        assert_eq!(h.max(), 1_000_000);
        let mean = h.mean();
        assert!((mean - 500_500.0).abs() < 1.0, "mean={mean}");
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut c = LogHistogram::new();
        for v in [10u64, 5_000, 123_456, 7] {
            a.record(v);
            c.record(v);
        }
        for v in [900_000u64, 42] {
            b.record(v);
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.max(), c.max());
        assert_eq!(a.quantile(0.5), c.quantile(0.5));
        assert_eq!(a.mean(), c.mean());
    }

    #[test]
    fn extreme_values_do_not_panic() {
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }
}
