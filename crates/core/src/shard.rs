//! Entity-partitioned sharding of the all-entities decoder scoring.
//!
//! LogCL's decoder (Eq. 18–19) scores every candidate entity independently:
//! the logit of entity `e` is the inner product of the decoded query
//! representation with row `e` of the candidate matrix. The score space
//! therefore partitions cleanly across workers — shard `i` of `N` scores
//! the contiguous entity range [`ShardSpec::range`] and nothing else, and
//! because each logit's reduction runs over the embedding dimension only
//! (never across entities), a shard-local score is **bit-identical** to
//! the same entity's score in a single-node run.
//!
//! The merge contract ([`merge_topk`]) is equally strict: concatenating
//! per-shard top-k lists and re-sorting with the *same* comparator as
//! [`crate::predict::topk_from_scores`] (score descending, entity id
//! ascending on ties) reproduces the single-node ranking bit-for-bit,
//! provided every live shard contributed `min(k, shard_width)` candidates.
//!
//! Softmax probabilities are the one quantity that is *not* bit-stable
//! under sharding: the single-node denominator is a left-to-right `f32`
//! sum over the full entity order, which cannot be reconstructed from
//! per-shard partial sums. [`SoftmaxStat`] carries each shard's
//! `(max, Σ exp(x - max))` so a merger can rebuild numerically equal (but
//! not bit-equal) probabilities; rankings never depend on them.

use logcl_tensor::kernels::{ops, Unary};

/// Which contiguous slice of the entity vocabulary one worker scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Zero-based shard index, `< count`.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

/// A malformed shard specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// `count` was zero.
    ZeroCount,
    /// `index >= count`.
    IndexOutOfRange {
        /// Offending shard index.
        index: usize,
        /// Total shard count.
        count: usize,
    },
    /// A spec string that is not `i/N`.
    Malformed(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroCount => write!(f, "shard count must be at least 1"),
            Self::IndexOutOfRange { index, count } => {
                write!(f, "shard index {index} out of range (< {count})")
            }
            Self::Malformed(s) => write!(f, "malformed shard spec {s:?} (want i/N, e.g. 0/3)"),
        }
    }
}

impl std::error::Error for ShardError {}

impl ShardSpec {
    /// Validated constructor.
    pub fn new(index: usize, count: usize) -> Result<Self, ShardError> {
        if count == 0 {
            return Err(ShardError::ZeroCount);
        }
        if index >= count {
            return Err(ShardError::IndexOutOfRange { index, count });
        }
        Ok(Self { index, count })
    }

    /// Parses the CLI form `i/N` (e.g. `"0/3"`).
    pub fn parse(spec: &str) -> Result<Self, ShardError> {
        let (i, n) = spec
            .split_once('/')
            .ok_or_else(|| ShardError::Malformed(spec.into()))?;
        let index: usize = i
            .trim()
            .parse()
            .map_err(|_| ShardError::Malformed(spec.into()))?;
        let count: usize = n
            .trim()
            .parse()
            .map_err(|_| ShardError::Malformed(spec.into()))?;
        Self::new(index, count)
    }

    /// The contiguous entity range `[lo, hi)` this shard scores: entities
    /// are split as evenly as possible, the first `E mod N` shards taking
    /// one extra. Ranges tile `0..num_entities` exactly, so the union over
    /// all shards is the full vocabulary and no entity is scored twice.
    /// Shards with `index >= num_entities` get an empty range.
    pub fn range(&self, num_entities: usize) -> (usize, usize) {
        let base = num_entities / self.count;
        let rem = num_entities % self.count;
        let lo = self.index * base + self.index.min(rem);
        let width = base + usize::from(self.index < rem);
        (lo, lo + width)
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// One shard-local candidate: a global entity id with its raw logit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredEntity {
    /// Global entity id.
    pub entity: usize,
    /// Raw decoder logit (pre-softmax), bit-identical to single-node.
    pub score: f32,
}

/// A shard's softmax partial statistics: the shard-range maximum and the
/// left-to-right sum of `exp(x - max)` over the shard's entity order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftmaxStat {
    /// Maximum raw score in the shard range (`-inf` for an empty shard).
    pub max: f32,
    /// `Σ exp(score - max)` over the shard range (`0` for an empty shard).
    pub sum_exp: f32,
}

impl SoftmaxStat {
    /// Computes the stats for one shard's score slice, with the same
    /// max-fold and left-to-right summation as
    /// [`crate::predict::topk_from_scores`]. The `exp`s go through the
    /// kernel layer's `Unary::Exp`, whose lane copies have libm's bits on
    /// every input.
    pub fn from_scores(scores: &[f32]) -> Self {
        let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut exps: Vec<f32> = scores.iter().map(|&x| x - max).collect();
        ops::unary_inplace(Unary::Exp, &mut exps);
        let sum_exp: f32 = exps.iter().sum();
        Self { max, sum_exp }
    }

    /// Combines per-shard stats into a global `(max, Σ exp(x - max))`.
    ///
    /// `f32::max` is exactly combinable, so the global max is bit-identical
    /// to single-node. The recombined sum is only *numerically* equal to
    /// the single-node left-to-right sum (f32 addition is not associative);
    /// probabilities derived from it agree to float tolerance, which is why
    /// the merge contract covers rankings and raw scores, never
    /// probabilities. Empty shards (`sum_exp == 0`) contribute nothing.
    pub fn combine(stats: &[SoftmaxStat]) -> Self {
        let max = stats
            .iter()
            .map(|s| s.max)
            .fold(f32::NEG_INFINITY, f32::max);
        let sum_exp = stats
            .iter()
            .filter(|s| s.sum_exp > 0.0)
            .map(|s| s.sum_exp * (s.max - max).exp())
            .sum();
        Self { max, sum_exp }
    }

    /// Softmax probability of a raw score under these stats.
    pub fn probability(&self, score: f32) -> f32 {
        if self.sum_exp <= 0.0 {
            return 0.0;
        }
        (score - self.max).exp() / self.sum_exp
    }
}

/// The deterministic ranking order shared by every top-k path in the repo:
/// score descending, entity id ascending on exact ties (`-0.0` and `0.0` are
/// such a tie). A NaN score — which the model never produces — ranks after
/// every number, `-inf` included, and NaNs order among themselves by entity
/// id: the order is total, so a full sort and the heap of [`top_k_by`] agree
/// on it and neither can panic on an inconsistent comparator.
pub fn rank_order(a: &ScoredEntity, b: &ScoredEntity) -> std::cmp::Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or_else(|| a.score.is_nan().cmp(&b.score.is_nan()))
        .then_with(|| a.entity.cmp(&b.entity))
}

/// A candidate kept by [`top_k_by`], ordered by [`rank_order`] of its key:
/// the greatest is the worst kept, so it sits at the root of the max-heap.
struct Ranked<T>(ScoredEntity, T);

impl<T> PartialEq for Ranked<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl<T> Eq for Ranked<T> {}

impl<T> PartialOrd for Ranked<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Ranked<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        rank_order(&self.0, &other.0)
    }
}

/// The first `k` of `items` in [`rank_order`] of `key`, best first, in one
/// pass: a heap holds the `k` best so far with the worst of them on top, and
/// a candidate that does not beat it is rejected with one comparison. No
/// buffer longer than `k` is built, and `k = |E|` costs O(n log k). Entity
/// ids are distinct wherever this ranks, so the order has no equal pair and
/// the result is exactly the prefix of the full sort.
pub fn top_k_by<T>(
    items: impl IntoIterator<Item = T>,
    k: usize,
    key: impl Fn(&T) -> ScoredEntity,
) -> Vec<T> {
    let items = items.into_iter();
    let mut kept = std::collections::BinaryHeap::with_capacity(k.min(items.size_hint().0));
    for item in items {
        let candidate = Ranked(key(&item), item);
        if kept.len() < k {
            kept.push(candidate);
        } else if kept.peek().is_some_and(|worst| candidate < *worst) {
            if let Some(mut worst) = kept.peek_mut() {
                *worst = candidate;
            }
        }
    }
    kept.into_sorted_vec()
        .into_iter()
        .map(|Ranked(_, item)| item)
        .collect()
}

/// Top-k of one shard's score slice. `scores[i]` is the logit of global
/// entity `lo + i`; the result is ranked by [`rank_order`] and truncated
/// to `k`, in one pass over the slice ([`top_k_by`]).
pub fn shard_topk(scores: &[f32], lo: usize, k: usize) -> Vec<ScoredEntity> {
    let all = scores.iter().enumerate().map(|(i, &score)| ScoredEntity {
        entity: lo + i,
        score,
    });
    top_k_by(all, k, |c| *c)
}

/// Merges per-shard top-k lists into the global top-k.
///
/// Bit-identical to a single-node ranking over the concatenation of the
/// shard ranges whenever each input list holds its shard's true top
/// `min(k, shard_width)` in [`rank_order`] — the standard scatter-gather
/// argument: any entity in the global top-k is in its own shard's top-k.
pub fn merge_topk(per_shard: &[Vec<ScoredEntity>], k: usize) -> Vec<ScoredEntity> {
    top_k_by(per_shard.iter().flatten().copied(), k, |c| *c)
}

#[cfg(test)]
mod tests {
    use super::*;

    use logcl_tensor::rng::splitmix64;

    /// The top-k this module ran before [`top_k_by`]: select the `k` best
    /// with `select_nth_unstable_by`, then sort only those. The reference
    /// the one-pass heap must reproduce.
    fn select_top_k(mut all: Vec<ScoredEntity>, k: usize) -> Vec<ScoredEntity> {
        if k < all.len() {
            all.select_nth_unstable_by(k, rank_order);
            all.truncate(k);
        }
        all.sort_by(rank_order);
        all
    }

    fn bits(ranked: &[ScoredEntity]) -> Vec<(usize, u32)> {
        ranked
            .iter()
            .map(|c| (c.entity, c.score.to_bits()))
            .collect()
    }

    /// One-pass top-k ≡ select + sort, entity for entity and bit for bit:
    /// seeded score vectors drawn from NaN (both signs), ±0, ±inf and a few
    /// repeated values (ties), or from raw bit patterns; every `k` around 0
    /// and `n` plus a random one; a non-zero `lo`; `shard_topk` alone, and
    /// `merge_topk` over both the two halves' top-k lists and the raw halves.
    #[test]
    fn one_pass_topk_equals_select_then_sort() {
        const PALETTE: [f32; 9] = [
            f32::NAN,
            -f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.0,
            -1.0,
            0.5,
        ];
        for seed in 0..2_000u64 {
            let draw = |i: u64| splitmix64(seed, i);
            let n = (draw(0) % 64) as usize;
            let lo = (draw(1) % 1_000) as usize;
            let scores: Vec<f32> = (0..n as u64)
                .map(|i| match draw(10 + i) {
                    d if d % 4 == 0 => f32::from_bits((d >> 32) as u32),
                    d => PALETTE[(d >> 8) as usize % PALETTE.len()],
                })
                .collect();
            let all: Vec<ScoredEntity> = scores
                .iter()
                .enumerate()
                .map(|(i, &score)| ScoredEntity {
                    entity: lo + i,
                    score,
                })
                .collect();
            let cut = (draw(2) % (n as u64 + 1)) as usize;
            for k in [
                0,
                1,
                2,
                n.saturating_sub(1),
                n,
                n + 1,
                (draw(3) % 80) as usize,
            ] {
                let want = bits(&select_top_k(all.clone(), k));
                assert_eq!(bits(&shard_topk(&scores, lo, k)), want, "seed {seed} k {k}");
                let lists = [
                    shard_topk(&scores[cut..], lo + cut, k),
                    shard_topk(&scores[..cut], lo, k),
                ];
                assert_eq!(bits(&merge_topk(&lists, k)), want, "seed {seed} k {k}");
                let halves = [all[cut..].to_vec(), all[..cut].to_vec()];
                assert_eq!(bits(&merge_topk(&halves, k)), want, "seed {seed} k {k}");
            }
        }
    }

    #[test]
    fn spec_validation_and_parse() {
        assert_eq!(
            ShardSpec::parse("1/3"),
            Ok(ShardSpec { index: 1, count: 3 })
        );
        assert_eq!(ShardSpec::parse("0/1"), ShardSpec::new(0, 1));
        assert_eq!(ShardSpec::parse("3/3"), ShardSpec::new(3, 3));
        assert!(matches!(
            ShardSpec::new(3, 3),
            Err(ShardError::IndexOutOfRange { index: 3, count: 3 })
        ));
        assert_eq!(ShardSpec::new(0, 0), Err(ShardError::ZeroCount));
        assert!(matches!(
            ShardSpec::parse("x/3"),
            Err(ShardError::Malformed(_))
        ));
        assert!(matches!(
            ShardSpec::parse("03"),
            Err(ShardError::Malformed(_))
        ));
        assert_eq!(ShardSpec::parse(" 2 / 5 ").unwrap().to_string(), "2/5");
    }

    #[test]
    fn ranges_tile_the_vocabulary_exactly() {
        for num_entities in [0usize, 1, 2, 7, 10, 100, 101] {
            for count in 1usize..=6 {
                let mut next = 0;
                for index in 0..count {
                    let (lo, hi) = ShardSpec { index, count }.range(num_entities);
                    assert_eq!(lo, next, "E={num_entities} N={count} i={index}");
                    assert!(hi >= lo);
                    next = hi;
                }
                assert_eq!(next, num_entities, "ranges must cover E={num_entities}");
            }
        }
        // Uneven split: the first E mod N shards take the extra entity.
        assert_eq!(ShardSpec { index: 0, count: 3 }.range(10), (0, 4));
        assert_eq!(ShardSpec { index: 1, count: 3 }.range(10), (4, 7));
        assert_eq!(ShardSpec { index: 2, count: 3 }.range(10), (7, 10));
        // More shards than entities: trailing shards are empty.
        assert_eq!(ShardSpec { index: 3, count: 4 }.range(2), (2, 2));
    }

    #[test]
    fn shard_topk_ranks_desc_with_entity_tiebreak() {
        let ranked = shard_topk(&[1.0, 3.0, 3.0, 2.0], 10, 3);
        let pairs: Vec<(usize, f32)> = ranked.iter().map(|s| (s.entity, s.score)).collect();
        assert_eq!(pairs, vec![(11, 3.0), (12, 3.0), (13, 2.0)]);
    }

    #[test]
    fn merge_equals_single_shard_ranking() {
        let scores = [0.5f32, -1.0, 0.5, 2.0, 2.0, -3.0, 0.0];
        let k = 4;
        let single = shard_topk(&scores, 0, k);
        let split = [
            shard_topk(&scores[..3], 0, k),
            shard_topk(&scores[3..5], 3, k),
            shard_topk(&scores[5..], 5, k),
        ];
        let merged = merge_topk(&split, k);
        assert_eq!(merged.len(), single.len());
        for (m, s) in merged.iter().zip(&single) {
            assert_eq!(m.entity, s.entity);
            assert_eq!(m.score.to_bits(), s.score.to_bits());
        }
    }

    #[test]
    fn softmax_stats_recombine_numerically() {
        let scores = [0.1f32, 2.0, -1.5, 0.7, 0.7, 3.0];
        let full = SoftmaxStat::from_scores(&scores);
        let parts = [
            SoftmaxStat::from_scores(&scores[..2]),
            SoftmaxStat::from_scores(&scores[2..4]),
            SoftmaxStat::from_scores(&scores[4..]),
        ];
        let combined = SoftmaxStat::combine(&parts);
        // The max is exactly combinable; the sum to float tolerance.
        assert_eq!(combined.max.to_bits(), full.max.to_bits());
        assert!((combined.sum_exp - full.sum_exp).abs() / full.sum_exp < 1e-6);
        let p_full = full.probability(2.0);
        let p_comb = combined.probability(2.0);
        assert!((p_full - p_comb).abs() < 1e-6);
    }

    #[test]
    fn empty_shards_are_inert() {
        let empty = SoftmaxStat::from_scores(&[]);
        assert_eq!(empty.sum_exp, 0.0);
        assert_eq!(empty.probability(1.0), 0.0);
        let combined = SoftmaxStat::combine(&[empty, SoftmaxStat::from_scores(&[1.0, 2.0])]);
        let direct = SoftmaxStat::from_scores(&[1.0, 2.0]);
        assert_eq!(combined.max.to_bits(), direct.max.to_bits());
        assert!((combined.sum_exp - direct.sum_exp).abs() < 1e-6);
        assert!(shard_topk(&[], 5, 3).is_empty());
        assert!(merge_topk(&[vec![], vec![]], 3).is_empty());
    }
}
