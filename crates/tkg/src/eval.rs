//! Time-aware filtered evaluation: MRR and Hits@{1,3,10} (Section IV-B1).
//!
//! Under the *time-aware filtered* setting, when ranking the true object of
//! a query `(s, r, ?, t)` we remove from the candidate list only the other
//! objects `o'` such that `(s, r, o', t)` is a true fact **at the same
//! timestamp** — never facts from other timestamps (that would leak the
//! static filter criticised by recent work).

use std::collections::BTreeSet;

use crate::quad::Quad;

/// Aggregate ranking metrics, reported as percentages like the paper.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Metrics {
    /// Mean reciprocal rank × 100.
    pub mrr: f64,
    /// Hits@1 × 100.
    pub hits1: f64,
    /// Hits@3 × 100.
    pub hits3: f64,
    /// Hits@10 × 100.
    pub hits10: f64,
    /// Number of ranked queries.
    pub count: usize,
}

impl std::fmt::Display for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MRR {:5.2}  H@1 {:5.2}  H@3 {:5.2}  H@10 {:5.2}  (n={})",
            self.mrr, self.hits1, self.hits3, self.hits10, self.count
        )
    }
}

/// Streaming accumulator of ranks.
///
/// ```
/// use logcl_tkg::RankAccumulator;
/// let mut acc = RankAccumulator::new();
/// acc.push(1);
/// acc.push(4);
/// let m = acc.finish();
/// assert_eq!(m.hits1, 50.0);
/// assert_eq!(m.hits10, 100.0);
/// assert!((m.mrr - 62.5).abs() < 1e-9); // (1 + 1/4) / 2
/// ```
#[derive(Debug, Default, Clone)]
pub struct RankAccumulator {
    sum_rr: f64,
    h1: usize,
    h3: usize,
    h10: usize,
    n: usize,
}

impl RankAccumulator {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one 1-based rank.
    pub fn push(&mut self, rank: usize) {
        assert!(rank >= 1, "ranks are 1-based");
        self.sum_rr += 1.0 / rank as f64;
        if rank <= 1 {
            self.h1 += 1;
        }
        if rank <= 3 {
            self.h3 += 1;
        }
        if rank <= 10 {
            self.h10 += 1;
        }
        self.n += 1;
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &RankAccumulator) {
        self.sum_rr += other.sum_rr;
        self.h1 += other.h1;
        self.h3 += other.h3;
        self.h10 += other.h10;
        self.n += other.n;
    }

    /// Number of queries recorded.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Final metrics (percentages).
    pub fn finish(&self) -> Metrics {
        if self.n == 0 {
            return Metrics::default();
        }
        let n = self.n as f64;
        Metrics {
            mrr: 100.0 * self.sum_rr / n,
            hits1: 100.0 * self.h1 as f64 / n,
            hits3: 100.0 * self.h3 as f64 / n,
            hits10: 100.0 * self.h10 as f64 / n,
            count: self.n,
        }
    }
}

/// True when a candidate scored `sc` ranks ahead of a target scored
/// `target`: strictly greater, and a NaN target — which a sound model never
/// produces — behind every number, as `logcl_core::shard::rank_order` puts
/// NaN after every number. Equal scores, and two NaNs, do not outrank.
fn outranks(sc: f32, target: f32) -> bool {
    sc > target || (target.is_nan() && !sc.is_nan())
}

/// Computes the time-aware filtered 1-based rank of the true object of `q`
/// within `scores` (one score per candidate entity). `truth_at_t` is the set
/// of `(s, r, o)` facts true at the query timestamp, inverse-closed.
pub fn rank_time_aware(
    scores: &[f32],
    q: &Quad,
    truth_at_t: &BTreeSet<(usize, usize, usize)>,
) -> usize {
    let target = q.o;
    let target_score = scores[target];
    let mut rank = 1usize;
    for (o, &sc) in scores.iter().enumerate() {
        if o == target {
            continue;
        }
        if truth_at_t.contains(&(q.s, q.r, o)) {
            continue; // filtered: another true answer at the same timestamp
        }
        if outranks(sc, target_score) {
            rank += 1;
        }
    }
    rank
}

/// Raw (unfiltered) rank, for diagnostics.
pub fn rank_raw(scores: &[f32], target: usize) -> usize {
    let target_score = scores[target];
    1 + scores
        .iter()
        .enumerate()
        .filter(|&(o, &sc)| o != target && outranks(sc, target_score))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_math() {
        let mut acc = RankAccumulator::new();
        acc.push(1);
        acc.push(2);
        acc.push(11);
        let m = acc.finish();
        assert_eq!(m.count, 3);
        assert!((m.mrr - 100.0 * (1.0 + 0.5 + 1.0 / 11.0) / 3.0).abs() < 1e-9);
        assert!((m.hits1 - 100.0 / 3.0).abs() < 1e-9);
        assert!((m.hits3 - 200.0 / 3.0).abs() < 1e-9);
        assert!((m.hits10 - 200.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_combined() {
        let mut a = RankAccumulator::new();
        a.push(1);
        let mut b = RankAccumulator::new();
        b.push(4);
        b.push(20);
        let mut c = RankAccumulator::new();
        for r in [1, 4, 20] {
            c.push(r);
        }
        a.merge(&b);
        assert_eq!(a.finish(), c.finish());
    }

    #[test]
    fn empty_metrics_are_zero() {
        assert_eq!(RankAccumulator::new().finish(), Metrics::default());
    }

    #[test]
    fn filtered_rank_removes_same_time_answers() {
        // Candidates 0..4; query (s=7, r=1, o=2, t=5). Scores rank entity 0
        // first, then 1, then 2.
        let scores = vec![0.9, 0.8, 0.7, 0.1];
        let q = Quad::new(7, 1, 2, 5);
        let mut truth = BTreeSet::new();
        assert_eq!(rank_time_aware(&scores, &q, &truth), 3);
        // Entity 0 is another true answer at t=5 -> filtered out.
        truth.insert((7, 1, 0));
        assert_eq!(rank_time_aware(&scores, &q, &truth), 2);
        // Facts with a different relation are not filtered.
        truth.clear();
        truth.insert((7, 0, 0));
        assert_eq!(rank_time_aware(&scores, &q, &truth), 3);
    }

    #[test]
    fn target_never_filtered_even_if_true() {
        let scores = vec![0.9, 0.1];
        let q = Quad::new(0, 0, 1, 0);
        let mut truth = BTreeSet::new();
        truth.insert((0, 0, 1)); // the target itself
        assert_eq!(rank_time_aware(&scores, &q, &truth), 2);
    }

    #[test]
    fn raw_rank_counts_all_better() {
        let scores = vec![0.5, 0.9, 0.7];
        assert_eq!(rank_raw(&scores, 0), 3);
        assert_eq!(rank_raw(&scores, 1), 1);
    }

    #[test]
    fn ties_resolve_optimistically() {
        // Equal scores do not outrank the target (strictly-greater rule).
        let scores = vec![0.5, 0.5, 0.5];
        assert_eq!(rank_raw(&scores, 1), 1);
    }

    #[test]
    fn nan_target_ranks_after_every_unfiltered_number() {
        let scores = vec![0.9, f32::NAN, f32::NEG_INFINITY, f32::NAN, 0.1];
        let q = Quad::new(7, 1, 1, 5);
        let mut truth = BTreeSet::new();
        // Behind 0.9, -inf and 0.1; the other NaN ties with it.
        assert_eq!(rank_time_aware(&scores, &q, &truth), 4);
        assert_eq!(rank_raw(&scores, 1), 4);
        // A filtered candidate does not count, a number or not.
        truth.insert((7, 1, 0));
        truth.insert((7, 1, 3));
        assert_eq!(rank_time_aware(&scores, &q, &truth), 3);
    }

    #[test]
    fn nan_candidate_does_not_outrank_a_number() {
        let scores = vec![f32::NAN, 0.5, f32::NAN, 0.7];
        let q = Quad::new(0, 0, 1, 0);
        assert_eq!(rank_time_aware(&scores, &q, &BTreeSet::new()), 2);
        assert_eq!(rank_raw(&scores, 1), 2);
        assert_eq!(rank_raw(&scores, 3), 1);
    }
}
