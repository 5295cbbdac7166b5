//! Property-based tests over the data→evaluation pipeline.

use logcl::prelude::*;
use logcl::tkg::RankAccumulator;
use proptest::prelude::*;
use strategies::quad_strategy;

/// Input strategies.
mod strategies {
    use super::*;

    /// Strategy: a random consistent quad list over a small vocabulary.
    pub fn quad_strategy() -> impl Strategy<Value = Vec<Quad>> {
        prop::collection::vec((0usize..8, 0usize..3, 0usize..8, 0usize..20), 10..80).prop_map(|v| {
            v.into_iter()
                .map(|(s, r, o, t)| Quad::new(s, r, o, t))
                .collect()
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dataset_split_is_a_partition_ordered_by_time(quads in quad_strategy()) {
        let ds = TkgDataset::from_quads("prop", 8, 3, quads.clone());
        let total = ds.train.len() + ds.valid.len() + ds.test.len();
        let mut dedup = quads.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(total, dedup.len());
        // Time ordering between splits.
        let max_train = ds.train.iter().map(|q| q.t).max();
        let min_valid = ds.valid.iter().map(|q| q.t).min();
        let max_valid = ds.valid.iter().map(|q| q.t).max();
        let min_test = ds.test.iter().map(|q| q.t).min();
        if let (Some(a), Some(b)) = (max_train, min_valid) {
            prop_assert!(a < b);
        }
        if let (Some(a), Some(b)) = (max_valid, min_test) {
            prop_assert!(a < b);
        }
    }

    #[test]
    fn inverse_closure_is_involutive(quads in quad_strategy()) {
        let ds = TkgDataset::from_quads("prop", 8, 3, quads);
        let inv = ds.with_inverses(&ds.train);
        prop_assert_eq!(inv.len(), ds.train.len() * 2);
        for pair in inv.chunks(2) {
            prop_assert_eq!(pair[1].inverse(ds.num_rels), pair[0]);
        }
    }

    #[test]
    fn snapshots_preserve_every_fact(quads in quad_strategy()) {
        let ds = TkgDataset::from_quads("prop", 8, 3, quads);
        let snaps = ds.snapshots();
        let total: usize = snaps.iter().map(|s| s.len()).sum();
        prop_assert_eq!(total, 2 * (ds.train.len() + ds.valid.len() + ds.test.len()));
        for (t, s) in snaps.iter().enumerate() {
            prop_assert_eq!(s.t, t);
        }
    }

    #[test]
    fn history_counts_match_brute_force(quads in quad_strategy()) {
        let ds = TkgDataset::from_quads("prop", 8, 3, quads);
        let snaps = ds.snapshots();
        let cut = snaps.len() / 2;
        // The prefix built alone, and the whole timeline read as of `cut`.
        let prefix = logcl::tkg::HistoryIndex::build(&snaps[..cut]);
        let whole = logcl::tkg::HistoryIndex::build(&snaps);
        // Brute force recount.
        for q in ds.train.iter().take(10) {
            let expected = snaps[..cut]
                .iter()
                .flat_map(|s| &s.edges)
                .filter(|&&(s2, r2, o2)| (s2, r2, o2) == (q.s, q.r, q.o))
                .count() as u32;
            prop_assert_eq!(prefix.as_of(cut).count(q.s, q.r, q.o), expected);
            prop_assert_eq!(whole.as_of(cut).count(q.s, q.r, q.o), expected);
        }
    }

    #[test]
    fn filtered_rank_never_worse_than_raw(quads in quad_strategy(), seed in 0u64..1000) {
        let ds = TkgDataset::from_quads("prop", 8, 3, quads);
        if ds.test.is_empty() {
            return Ok(());
        }
        let mut rng = logcl::tensor::Rng::seed(seed);
        let scores: Vec<f32> = (0..ds.num_entities).map(|_| rng.uniform(0.0, 1.0)).collect();
        let q = ds.test[0];
        let truth = ds.facts_at(q.t);
        let filtered = logcl::tkg::eval::rank_time_aware(&scores, &q, &truth);
        let raw = logcl::tkg::eval::rank_raw(&scores, q.o);
        prop_assert!(filtered <= raw, "filtering can only improve the rank");
        prop_assert!(filtered >= 1);
    }

    #[test]
    fn metrics_are_monotone_in_rank_quality(ranks in prop::collection::vec(1usize..50, 1..40)) {
        let mut acc = RankAccumulator::new();
        for &r in &ranks {
            acc.push(r);
        }
        let m = acc.finish();
        prop_assert!(m.hits1 <= m.hits3 + 1e-9);
        prop_assert!(m.hits3 <= m.hits10 + 1e-9);
        prop_assert!(m.mrr > 0.0 && m.mrr <= 100.0);
        // Improving every rank by clamping at 1 cannot lower any metric.
        let mut best = RankAccumulator::new();
        for _ in &ranks {
            best.push(1);
        }
        let b = best.finish();
        prop_assert!(b.mrr >= m.mrr && b.hits1 >= m.hits1);
    }

    #[test]
    fn subgraph_entities_are_subset_of_vocabulary(quads in quad_strategy()) {
        let ds = TkgDataset::from_quads("prop", 8, 3, quads);
        let snaps = ds.snapshots();
        let hist = logcl::tkg::HistoryIndex::build(&snaps);
        for s in 0..ds.num_entities {
            let g = hist.query_subgraph(s, 0, 30);
            prop_assert!(g.len() <= 30);
            for e in g.entities() {
                prop_assert!(e < ds.num_entities);
            }
        }
    }
}
