//! CyGNet (Zhu et al., 2021) — the copy-generation global baseline.
//!
//! Two modes score every candidate: **copy** restricts attention to the
//! one-hop historical answer vocabulary of `(s, r)` (a masked linear score),
//! **generation** scores all entities from the query embedding. The final
//! distribution is the fixed mixture `α·copy + (1−α)·generation`, trained
//! with negative log-likelihood.

use logcl_tensor::nn::{Embedding, Linear, ParamSet};
use logcl_tensor::optim::Adam;
use logcl_tensor::{Rng, Tensor, Var};
use logcl_tkg::quad::Quad;
use logcl_tkg::{HistoryIndex, HistoryView, TkgDataset};

use logcl_core::api::{EvalContext, TkgModel, TrainOptions};
use logcl_core::{TrainError, TrainReport};

use crate::util::group_by_time;

/// Mask value applied to non-historical candidates in copy mode.
const COPY_MASK: f32 = -100.0;

/// The CyGNet model.
pub struct CyGNet {
    /// All trainable parameters.
    pub params: ParamSet,
    ent: Embedding,
    rel: Embedding,
    gen_head: Linear,
    copy_head: Linear,
    /// Copy-mode mixture weight α (paper: 0.8).
    pub alpha: f32,
}

impl CyGNet {
    /// Builds CyGNet for `ds`.
    pub fn new(ds: &TkgDataset, dim: usize, alpha: f32, seed: u64) -> Self {
        let mut rng = Rng::seed(seed);
        let ent = Embedding::new(ds.num_entities, dim, &mut rng);
        let rel = Embedding::new(ds.num_rels_with_inverse(), dim, &mut rng);
        let gen_head = Linear::new(2 * dim, dim, &mut rng);
        let copy_head = Linear::new(2 * dim, dim, &mut rng);
        let mut params = ParamSet::new();
        ent.register(&mut params, "ent");
        rel.register(&mut params, "rel");
        gen_head.register(&mut params, "gen_head");
        copy_head.register(&mut params, "copy_head");
        Self {
            params,
            ent,
            rel,
            gen_head,
            copy_head,
            alpha,
        }
    }

    /// The combined probability distribution `[B, E]`.
    fn probs(&self, history: HistoryView<'_>, queries: &[Quad]) -> Var {
        let b = queries.len();
        let e = self.ent.len();
        let s: Vec<usize> = queries.iter().map(|q| q.s).collect();
        let r: Vec<usize> = queries.iter().map(|q| q.r).collect();
        let query_emb = self.ent.lookup(&s).concat_cols(&self.rel.lookup(&r));

        let gen_logits = self
            .gen_head
            .forward(&query_emb)
            .matmul(&self.ent.weight.transpose2());
        let gen_probs = gen_logits.softmax_rows();

        // Copy vocabulary mask: 0 where (s, r, o) occurred, COPY_MASK else.
        let mut mask = vec![COPY_MASK; b * e];
        for (i, q) in queries.iter().enumerate() {
            for (o, _) in history.seen_objects(q.s, q.r) {
                mask[i * e + o] = 0.0;
            }
        }
        let copy_logits = self
            .copy_head
            .forward(&query_emb)
            .matmul(&self.ent.weight.transpose2())
            .add(&Var::constant(Tensor::from_vec(mask, &[b, e])));
        let copy_probs = copy_logits.softmax_rows();

        copy_probs
            .scale(self.alpha)
            .add(&gen_probs.scale(1.0 - self.alpha))
    }

    /// NLL of the targets under the mixture.
    fn nll(&self, history: HistoryView<'_>, queries: &[Quad]) -> Var {
        let probs = self.probs(history, queries);
        let e = self.ent.len();
        let mut onehot = Tensor::zeros(&[queries.len(), e]);
        for (i, q) in queries.iter().enumerate() {
            onehot.set2(i, q.o, 1.0);
        }
        let picked = probs.add_scalar(1e-9).ln().mul(&Var::constant(onehot));
        picked.sum().scale(-1.0 / queries.len() as f32)
    }
}

impl TkgModel for CyGNet {
    fn name(&self) -> String {
        "CyGNet".into()
    }

    fn fit(&mut self, ds: &TkgDataset, opts: &TrainOptions) -> Result<TrainReport, TrainError> {
        let by_time = group_by_time(&ds.train, ds.num_times);
        let mut opt = Adam::new(&self.params, opts.lr);
        let history = HistoryIndex::build(&ds.snapshots());
        for _ in 0..opts.epochs {
            for (t, quads) in by_time.iter().enumerate().take(ds.train_end_time()) {
                if !quads.is_empty() {
                    let inv: Vec<Quad> = quads.iter().map(|q| q.inverse(ds.num_rels)).collect();
                    let history = history.as_of(t);
                    let loss = self.nll(history, quads).add(&self.nll(history, &inv));
                    loss.backward();
                    opt.clip_and_step(opts.grad_clip);
                }
            }
        }
        Ok(TrainReport::default())
    }

    fn score(&mut self, ctx: &EvalContext<'_>, queries: &[Quad]) -> Vec<Vec<f32>> {
        if queries.is_empty() {
            return Vec::new();
        }
        let probs = self.probs(ctx.history.as_of(ctx.t), queries).to_tensor();
        (0..queries.len()).map(|i| probs.row(i).to_vec()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logcl_core::evaluate;
    use logcl_tkg::{Snapshot, SyntheticPreset};

    #[test]
    fn copy_mode_prefers_historical_answers() {
        let ds = SyntheticPreset::Icews14.generate_scaled(0.15);
        let model = CyGNet::new(&ds, 8, 0.8, 7);
        let mut history = HistoryIndex::new();
        history.advance(&Snapshot {
            t: 0,
            edges: vec![(0, 0, 5), (0, 0, 5), (0, 0, 7)],
        });
        let q = Quad::new(0, 0, 5, 1);
        let probs = model.probs(history.as_of(1), &[q]).to_tensor();
        // Historical candidates 5 and 7 must dominate random entities even
        // untrained, because of the copy-mode mask.
        let p5 = probs.at2(0, 5);
        let p7 = probs.at2(0, 7);
        let p1 = probs.at2(0, 1);
        assert!(p5 > p1 * 5.0, "copy mask ineffective: {p5} vs {p1}");
        assert!(p7 > p1 * 5.0);
    }

    #[test]
    fn probabilities_normalise() {
        let ds = SyntheticPreset::Icews14.generate_scaled(0.15);
        let model = CyGNet::new(&ds, 8, 0.5, 7);
        let history = HistoryIndex::new();
        let probs = model
            .probs(history.as_of(0), &[Quad::new(0, 0, 0, 0)])
            .to_tensor();
        let total: f32 = probs.row(0).iter().sum();
        assert!((total - 1.0).abs() < 1e-4, "sum {total}");
    }

    #[test]
    fn copy_model_exploits_repetitions() {
        // The copy mask alone already ranks repeated facts highly; training
        // must keep that strength (the generation head refines within it).
        let ds = SyntheticPreset::Icews14.generate_scaled(0.15);
        let mut model = CyGNet::new(&ds, 16, 0.8, 7);
        let test = ds.test.clone();
        let before = evaluate(&mut model, &ds, &test);
        model.fit(&ds, &TrainOptions::epochs(4)).unwrap();
        let after = evaluate(&mut model, &ds, &test);
        assert!(
            after.mrr > 30.0,
            "copy model should exploit repetitions: {}",
            after.mrr
        );
        assert!(
            after.mrr > before.mrr - 5.0,
            "{} -> {}",
            before.mrr,
            after.mrr
        );
    }
}
