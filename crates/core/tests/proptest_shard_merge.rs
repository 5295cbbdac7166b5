//! Property tests for the scatter-gather merge contract (PR 10 satellite):
//! for ANY N-way entity partition, per-shard `shard_topk` followed by
//! `merge_topk` must be `to_bits`-identical — same entity order, same raw
//! score bits — to single-node `topk_from_scores`. Tie-heavy score vectors
//! (drawn from a tiny palette) exercise the entity-id tie-break, and a
//! companion property checks that `SoftmaxStat::combine` recovers the
//! single-node softmax probabilities to float tolerance.

use logcl_core::{
    merge_topk, rank_order, shard_topk, topk_from_scores, topk_in_range, ScoredEntity, ShardSpec,
    SoftmaxStat,
};
use logcl_tkg::TkgDataset;
use proptest::prelude::*;

/// A dataset stub with just enough shape for `topk_from_scores`: it only
/// reads `entity_names` (all fields are public, so no preset generation
/// is needed).
fn tiny_dataset(num_entities: usize) -> TkgDataset {
    TkgDataset {
        name: "merge-prop".to_string(),
        num_entities,
        num_rels: 1,
        num_times: 1,
        train: Vec::new(),
        valid: Vec::new(),
        test: Vec::new(),
        entity_names: (0..num_entities).map(|i| format!("e{i}")).collect(),
        rel_names: vec!["r0".to_string()],
        static_facts: Vec::new(),
        num_static_rels: 0,
    }
}

/// Splits `scores` into the `n` shard ranges of `ShardSpec` and runs the
/// per-shard top-k. `n` may exceed the entity count; trailing shards are
/// empty and must merge away cleanly.
fn scatter(scores: &[f32], n: usize, k: usize) -> Vec<Vec<ScoredEntity>> {
    (0..n)
        .map(|i| {
            let spec = ShardSpec::new(i, n).expect("valid shard index");
            let (lo, hi) = spec.range(scores.len());
            shard_topk(&scores[lo..hi], lo, k)
        })
        .collect()
}

fn assert_bit_identical(scores: &[f32], n: usize, k: usize) -> Result<(), TestCaseError> {
    let ds = tiny_dataset(scores.len());
    let single = topk_from_scores(&ds, scores, k);
    let merged = merge_topk(&scatter(scores, n, k), k);

    prop_assert_eq!(
        merged.len(),
        single.len(),
        "merged {} entries vs single-node {} (n={}, k={})",
        merged.len(),
        single.len(),
        n,
        k
    );
    for (rank, (m, s)) in merged.iter().zip(single.iter()).enumerate() {
        prop_assert_eq!(
            m.entity,
            s.entity,
            "rank {}: merged entity {} != single-node {} (n={})",
            rank,
            m.entity,
            s.entity,
            n
        );
        prop_assert_eq!(
            m.score.to_bits(),
            s.score.to_bits(),
            "rank {}: merged score bits differ from single-node (n={})",
            rank,
            n
        );
    }
    Ok(())
}

/// What `shard_topk` and `merge_topk` were before they selected: rank
/// everything with a full stable sort, keep the first `k`.
fn full_sort_topk(mut all: Vec<ScoredEntity>, k: usize) -> Vec<ScoredEntity> {
    all.sort_by(rank_order);
    all.truncate(k);
    all
}

/// Selection top-k against the full sort — same entities, same score bits,
/// same order — for every `k` around the edges of the vector plus `extra_k`,
/// per shard and through the merge of a two-way split.
fn assert_selection_is_the_sorted_prefix(
    scores: &[f32],
    extra_k: usize,
) -> Result<(), TestCaseError> {
    let len = scores.len();
    let all: Vec<ScoredEntity> = scores
        .iter()
        .enumerate()
        .map(|(i, &score)| ScoredEntity {
            entity: 100 + i,
            score,
        })
        .collect();
    let key = |v: &[ScoredEntity]| -> Vec<(usize, u32)> {
        v.iter().map(|c| (c.entity, c.score.to_bits())).collect()
    };
    for k in [0, 1, len.saturating_sub(1), len, len + 1, extra_k] {
        let want = key(&full_sort_topk(all.clone(), k));
        prop_assert_eq!(
            &key(&shard_topk(scores, 100, k)),
            &want,
            "shard_topk, k={}",
            k
        );
        let (left, right) = all.split_at(len / 2);
        let merged = merge_topk(&[right.to_vec(), left.to_vec()], k);
        prop_assert_eq!(&key(&merged), &want, "merge_topk, k={}", k);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The generator of `merge_matches_single_node_for_random_scores`:
    /// mostly distinct scores, so the selection's partition does the work.
    #[test]
    fn selection_topk_is_the_full_sort_prefix_on_random_scores(
        raw in proptest::collection::vec(-1000i32..1000, 1..80),
        k in 0usize..16,
    ) {
        let scores: Vec<f32> = raw.iter().map(|&v| v as f32 / 16.0).collect();
        assert_selection_is_the_sorted_prefix(&scores, k)?;
    }

    /// Tie-heavy vectors: a handful of distinct values including both
    /// infinities and both zeros (`-0.0` ties with `0.0`, so only the entity
    /// id orders them, and the score bits that come back must be each
    /// entity's own).
    #[test]
    fn selection_topk_is_the_full_sort_prefix_on_ties_zeros_and_infinities(
        raw in proptest::collection::vec(0usize..7, 1..60),
        k in 0usize..32,
    ) {
        let palette = [0.5f32, -2.25, 7.125, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY];
        let scores: Vec<f32> = raw.iter().map(|&v| palette[v]).collect();
        assert_selection_is_the_sorted_prefix(&scores, k)?;
    }

    /// `rank_order` is total with NaN in the vector: every NaN ranks after
    /// every number, `-inf` included, in entity order — so the full sort and
    /// the selection still agree and neither panics.
    #[test]
    fn selection_topk_ranks_nan_last(
        raw in proptest::collection::vec(0usize..5, 1..40),
        k in 0usize..16,
    ) {
        let palette = [f32::NAN, 1.5, f32::NEG_INFINITY, -0.0, f32::NAN];
        let scores: Vec<f32> = raw.iter().map(|&v| palette[v]).collect();
        assert_selection_is_the_sorted_prefix(&scores, k)?;
        let ranked = shard_topk(&scores, 0, scores.len());
        let numbers = scores.iter().filter(|s| !s.is_nan()).count();
        prop_assert!(ranked[..numbers].iter().all(|c| !c.score.is_nan()));
        prop_assert!(ranked[numbers..].iter().all(|c| c.score.is_nan()));
        prop_assert!(ranked[numbers..].windows(2).all(|w| w[0].entity < w[1].entity));
    }

    /// Arbitrary scores, arbitrary partition width (including n > |E|,
    /// which leaves trailing shards empty).
    #[test]
    fn merge_matches_single_node_for_random_scores(
        raw in proptest::collection::vec(-1000i32..1000, 1..80),
        n in 1usize..9,
        k in 1usize..16,
    ) {
        let scores: Vec<f32> = raw.iter().map(|&v| v as f32 / 16.0).collect();
        assert_bit_identical(&scores, n, k)?;
    }

    /// Tie-heavy vectors: scores drawn from a 3-value palette force exact
    /// f32 ties, so only the entity-id ascending tie-break can produce a
    /// deterministic order — and it must match single-node exactly.
    #[test]
    fn merge_matches_single_node_on_exact_ties(
        raw in proptest::collection::vec(0usize..3, 1..60),
        n in 1usize..7,
        k in 1usize..32,
    ) {
        let palette = [0.5f32, -2.25, 7.125];
        let scores: Vec<f32> = raw.iter().map(|&v| palette[v]).collect();
        assert_bit_identical(&scores, n, k)?;
    }

    /// Degenerate partitions: every entity its own shard (plus empties
    /// when n > |E|) must still reproduce the single-node ranking.
    #[test]
    fn one_entity_per_shard_is_still_identical(
        raw in proptest::collection::vec(-64i32..64, 1..24),
        extra in 0usize..4,
        k in 1usize..8,
    ) {
        let scores: Vec<f32> = raw.iter().map(|&v| v as f32 * 0.375).collect();
        let n = scores.len() + extra;
        assert_bit_identical(&scores, n, k)?;
    }

    /// An unsharded node is shard 0 of 1: `topk_from_scores` and the reply a
    /// `--shard 0/1` worker builds agree bit for bit — entity order, raw
    /// score, AND probability (one range, so one summation order) — and
    /// both agree with the obvious reference, a full stable sort plus a
    /// full softmax, which is how `topk_from_scores` was written before it
    /// shared the shard path's comparator and softmax.
    #[test]
    fn unsharded_topk_is_the_shard_zero_of_one_reply(
        raw in proptest::collection::vec(0usize..12, 1..60),
        k in 1usize..32,
    ) {
        // A 12-value palette: plenty of exact ties, several distinct exps.
        let scores: Vec<f32> = raw.iter().map(|&v| v as f32 * 0.625 - 3.0).collect();
        let ds = tiny_dataset(scores.len());
        let single = topk_from_scores(&ds, &scores, k);
        let (lo, hi) = ShardSpec::new(0, 1).unwrap().range(scores.len());
        let (shard, stat) = topk_in_range(&ds, &scores[lo..hi], lo, k);

        let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = scores.iter().map(|&x| (x - max).exp()).collect();
        let z: f32 = exps.iter().sum();
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap());
        order.truncate(k);

        prop_assert_eq!(single.len(), order.len());
        prop_assert_eq!(&single, &shard);
        prop_assert_eq!(stat.max.to_bits(), max.to_bits());
        prop_assert_eq!(stat.sum_exp.to_bits(), z.to_bits());
        for (p, &e) in single.iter().zip(&order) {
            prop_assert_eq!(p.entity, e);
            prop_assert_eq!(&p.name, &format!("e{e}"));
            prop_assert_eq!(p.score.to_bits(), scores[e].to_bits());
            prop_assert_eq!(p.probability.to_bits(), (exps[e] / z).to_bits());
        }
    }

    /// Softmax partials: combining per-shard `(max, Σ exp)` statistics
    /// recovers the single-node probabilities to float tolerance. (The
    /// merge contract guarantees bit-identical *scores*; probabilities
    /// are only numerically equal because f32 addition is not
    /// associative across shard boundaries.)
    #[test]
    fn combined_softmax_stats_match_full_softmax(
        raw in proptest::collection::vec(-200i32..200, 1..64),
        n in 1usize..7,
    ) {
        let scores: Vec<f32> = raw.iter().map(|&v| v as f32 / 8.0).collect();
        let ds = tiny_dataset(scores.len());
        let single = topk_from_scores(&ds, &scores, scores.len());

        let stats: Vec<SoftmaxStat> = (0..n)
            .map(|i| {
                let (lo, hi) = ShardSpec::new(i, n).unwrap().range(scores.len());
                SoftmaxStat::from_scores(&scores[lo..hi])
            })
            .collect();
        let combined = SoftmaxStat::combine(&stats);

        for p in &single {
            let got = combined.probability(p.score);
            prop_assert!(
                (got - p.probability).abs() <= 1e-5,
                "entity {}: combined probability {} vs single-node {} (n={})",
                p.entity, got, p.probability, n
            );
        }
    }
}
