//! Exact order statistics over raw samples.
//!
//! Gated latencies keep every sample and sort: `loadgen::hist::LogHistogram`
//! rounds to bucket edges (≤6.25 %), which is coarser than the 10 % bounds
//! these metrics are held to. The histogram is used where its resolution is
//! enough (generator lateness).

/// Nearest-rank index of quantile `q` among `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of `sorted` (ascending); 0 when empty.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// How many of `n` samples lie beyond the nearest-rank `q` percentile: a
/// percentile with fewer than ten samples beyond it is not worth gating.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// Median of unsorted floats (mean of the middle pair when even); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Microseconds to milliseconds.
pub fn ms(us: u64) -> f64 {
    us as f64 / 1e3
}

/// Sorted copy of `samples`.
pub fn sorted(samples: &[u64]) -> Vec<u64> {
    let mut v = samples.to_vec();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_and_samples_beyond_are_nearest_rank() {
        let s: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&s, 0.5), 100);
        assert_eq!(percentile(&s, 0.9), 180);
        assert_eq!(samples_beyond(200, 0.9), 20);
        assert_eq!(samples_beyond(200, 0.99), 2);
        // 95 samples: rank(0.9) = ceil(85.5) = 86, nine lie beyond.
        assert_eq!(samples_beyond(95, 0.9), 9);
        assert_eq!(percentile(&s[..1], 0.99), 1);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(samples_beyond(0, 0.9), 0);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&s, 1.0), 200);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
