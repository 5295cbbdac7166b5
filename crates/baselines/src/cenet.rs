//! CENET-lite (Xu et al., 2023) — contrastive historical/non-historical
//! reasoning, reduced to its core ideas:
//!
//! 1. a generation scorer over query embeddings augmented with a trainable
//!    **frequency feature** `w_f · log(1 + count(s, r, o))`;
//! 2. a **boundary classifier** predicting whether the answer is a
//!    historical entity for `(s, r)`, trained jointly (BCE);
//! 3. CENET's mask-based inference: the classifier's verdict boosts either
//!    the historical or the non-historical candidate set at test time.

use logcl_tensor::nn::{Embedding, Linear, ParamSet};
use logcl_tensor::optim::Adam;
use logcl_tensor::{Rng, Tensor, Var};
use logcl_tkg::quad::Quad;
use logcl_tkg::{HistoryIndex, HistoryView, TkgDataset};

use logcl_core::api::{EvalContext, TkgModel, TrainOptions};
use logcl_core::{TrainError, TrainReport};

use crate::util::group_by_time;

/// Test-time boost applied to the candidate set the classifier favours.
const MASK_BOOST: f32 = 2.0;

/// The CENET-lite model.
pub struct CenetLite {
    /// All trainable parameters.
    pub params: ParamSet,
    ent: Embedding,
    rel: Embedding,
    gen_head: Linear,
    /// Weight of the log-frequency feature.
    pub w_freq: Var,
    classifier: Linear,
}

impl CenetLite {
    /// Builds CENET-lite for `ds`.
    pub fn new(ds: &TkgDataset, dim: usize, seed: u64) -> Self {
        let mut rng = Rng::seed(seed);
        let ent = Embedding::new(ds.num_entities, dim, &mut rng);
        let rel = Embedding::new(ds.num_rels_with_inverse(), dim, &mut rng);
        let gen_head = Linear::new(2 * dim, dim, &mut rng);
        let w_freq = Var::param(Tensor::scalar(1.0));
        let classifier = Linear::new(2 * dim + 1, 1, &mut rng);
        let mut params = ParamSet::new();
        ent.register(&mut params, "ent");
        rel.register(&mut params, "rel");
        gen_head.register(&mut params, "gen_head");
        params.register("w_freq", w_freq.clone());
        classifier.register(&mut params, "classifier");
        Self {
            params,
            ent,
            rel,
            gen_head,
            w_freq,
            classifier,
        }
    }

    fn query_emb(&self, queries: &[Quad]) -> Var {
        let s: Vec<usize> = queries.iter().map(|q| q.s).collect();
        let r: Vec<usize> = queries.iter().map(|q| q.r).collect();
        self.ent.lookup(&s).concat_cols(&self.rel.lookup(&r))
    }

    /// Log-frequency features `log(1 + count)` per candidate, `[B, E]`.
    fn freq_features(&self, history: HistoryView<'_>, queries: &[Quad]) -> Tensor {
        let e = self.ent.len();
        let mut feat = Tensor::zeros(&[queries.len(), e]);
        for (i, q) in queries.iter().enumerate() {
            for (o, c) in history.seen_objects(q.s, q.r) {
                feat.set2(i, o, (1.0 + c as f32).ln());
            }
        }
        feat
    }

    /// Generation + frequency logits, `[B, E]`.
    fn logits(&self, history: HistoryView<'_>, queries: &[Quad]) -> Var {
        let emb = self.query_emb(queries);
        let gen = self
            .gen_head
            .forward(&emb)
            .matmul(&self.ent.weight.transpose2());
        let freq = Var::constant(self.freq_features(history, queries));
        gen.add(&freq.mul(&self.w_freq))
    }

    /// History-volume feature `log(1 + Σ count(s, r, ·))` per query, `[B, 1]`.
    ///
    /// Without it the boundary classifier is time-blind: it sees only the
    /// (s, r) embeddings, so it learns the label marginal of the training
    /// timeline (mostly "non-historical" — early timesteps have little
    /// history) and carries that prior to test time, where the full history
    /// makes most answers historical. CENET's classifier conditions on
    /// history-dependent features for exactly this reason.
    fn history_feature(history: HistoryView<'_>, queries: &[Quad]) -> Tensor {
        let mut feat = Tensor::zeros(&[queries.len(), 1]);
        for (i, q) in queries.iter().enumerate() {
            let total: u32 = history.seen_objects(q.s, q.r).iter().map(|&(_, c)| c).sum();
            feat.set2(i, 0, (1.0 + total as f32).ln());
        }
        feat
    }

    /// Historical-boundary classifier logit per query, `[B, 1]`.
    fn boundary_logits(&self, history: HistoryView<'_>, queries: &[Quad]) -> Var {
        let feat = Var::constant(Self::history_feature(history, queries));
        self.classifier
            .forward(&self.query_emb(queries).concat_cols(&feat))
    }

    fn joint_loss(&self, history: HistoryView<'_>, queries: &[Quad]) -> Var {
        let targets: Vec<usize> = queries.iter().map(|q| q.o).collect();
        let ce = self.logits(history, queries).cross_entropy(&targets);
        // Boundary labels: answer is a historical object of (s, r)?
        let labels: Vec<f32> = queries
            .iter()
            .map(|q| {
                if history.count(q.s, q.r, q.o) > 0 {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        let labels = Tensor::from_vec(labels, &[queries.len(), 1]);
        let bce = self
            .boundary_logits(history, queries)
            .bce_with_logits(&labels);
        ce.add(&bce)
    }
}

impl TkgModel for CenetLite {
    fn name(&self) -> String {
        "CENET".into()
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
                    let loss = self
                        .joint_loss(history, quads)
                        .add(&self.joint_loss(history, &inv));
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
        let history = ctx.history.as_of(ctx.t);
        let logits = self.logits(history, queries).to_tensor();
        let boundary = self.boundary_logits(history, queries).to_tensor();
        let e = self.ent.len();
        let mut rows = Vec::with_capacity(queries.len());
        for (i, q) in queries.iter().enumerate() {
            let mut row = logits.row(i).to_vec();
            // Mask-based inference: boost the candidate set the boundary
            // classifier favours.
            let p_hist = 1.0 / (1.0 + (-boundary.at2(i, 0)).exp());
            let mut is_hist = vec![false; e];
            for (o, _) in history.seen_objects(q.s, q.r) {
                is_hist[o] = true;
            }
            // Confidence-weighted mask: +MASK_BOOST on historical candidates
            // when the classifier is sure the answer is historical (p → 1),
            // -MASK_BOOST when sure it is novel (p → 0), and ~0 when
            // uncertain — an unsure classifier must not distort the ranking.
            let boost = MASK_BOOST * (2.0 * p_hist - 1.0);
            for (o, v) in row.iter_mut().enumerate() {
                if is_hist[o] {
                    *v += boost;
                }
            }
            rows.push(row);
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logcl_core::evaluate;
    use logcl_tkg::SyntheticPreset;

    #[test]
    fn freq_features_reflect_counts() {
        let ds = SyntheticPreset::Icews14.generate_scaled(0.15);
        let model = CenetLite::new(&ds, 8, 7);
        let mut history = HistoryIndex::new();
        history.advance(&logcl_tkg::Snapshot {
            t: 0,
            edges: vec![(0, 0, 3), (0, 0, 3), (0, 0, 4)],
        });
        let f = model.freq_features(history.as_of(1), &[Quad::new(0, 0, 0, 1)]);
        assert!((f.at2(0, 3) - 3.0f32.ln()).abs() < 1e-5);
        assert!((f.at2(0, 4) - 2.0f32.ln()).abs() < 1e-5);
        assert_eq!(f.at2(0, 0), 0.0);
    }

    #[test]
    fn training_improves() {
        let ds = SyntheticPreset::Icews14.generate_scaled(0.15);
        let mut model = CenetLite::new(&ds, 16, 7);
        let test = ds.test.clone();
        let before = evaluate(&mut model, &ds, &test);
        model.fit(&ds, &TrainOptions::epochs(4)).unwrap();
        let after = evaluate(&mut model, &ds, &test);
        assert!(after.mrr > before.mrr, "{} -> {}", before.mrr, after.mrr);
    }

    #[test]
    fn boundary_classifier_produces_finite_logits() {
        let ds = SyntheticPreset::Icews14.generate_scaled(0.15);
        let model = CenetLite::new(&ds, 8, 7);
        let b = model.boundary_logits(
            HistoryIndex::new().as_of(0),
            &[Quad::new(0, 0, 0, 0), Quad::new(1, 1, 0, 0)],
        );
        assert_eq!(b.shape(), vec![2, 1]);
        assert!(b.value().all_finite());
    }
}
