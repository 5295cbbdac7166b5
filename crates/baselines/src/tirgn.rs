//! TiRGN-lite (Li et al., 2022) — time-guided recurrent graph network with
//! local-global historical patterns, reduced to its core idea and published
//! form: the final distribution is a fixed-weight mixture of the local
//! recurrent (RE-GCN-style) softmax and a *global* softmax of the same
//! scores restricted to the query's full repetition-history vocabulary
//! (`p = α·p_local + (1−α)·p_global`, TiRGN's history gate).

use logcl_gnn::ConvTransE;
use logcl_tensor::nn::{Embedding, ParamSet};
use logcl_tensor::optim::Adam;
use logcl_tensor::{Rng, Tensor, Var};
use logcl_tkg::quad::Quad;
use logcl_tkg::{HistoryIndex, HistoryView, TkgDataset};

use logcl_core::api::{EvalContext, TkgModel, TrainOptions};
use logcl_core::{TrainError, TrainReport};

use crate::recurrent::RecurrentEncoder;
use crate::util::{group_by_time, logits_to_rows};

/// The TiRGN-lite model.
pub struct TirgnLite {
    /// All trainable parameters.
    pub params: ParamSet,
    ent: Embedding,
    rel: Embedding,
    encoder: RecurrentEncoder,
    decoder: ConvTransE,
    /// Mixture weight α of the unrestricted local distribution
    /// (TiRGN's fixed history-gate weight).
    pub alpha: f32,
    /// History window length.
    pub m: usize,
    /// Gaussian perturbation of the initial entity representations
    /// (Fig. 2's robustness probe); `CLEAN` by default.
    pub noise: logcl_tkg::NoiseSpec,
    rng: Rng,
}

impl TirgnLite {
    /// Builds TiRGN-lite for `ds` with window `m`.
    pub fn new(ds: &TkgDataset, dim: usize, m: usize, channels: usize, seed: u64) -> Self {
        let mut rng = Rng::seed(seed);
        let ent = Embedding::new(ds.num_entities, dim, &mut rng);
        let rel = Embedding::new(ds.num_rels_with_inverse(), dim, &mut rng);
        let encoder = RecurrentEncoder::new(dim, 2, 0.2, &mut rng);
        let decoder = ConvTransE::new(dim, channels, 0.2, &mut rng);
        let mut params = ParamSet::new();
        ent.register(&mut params, "ent");
        rel.register(&mut params, "rel");
        encoder.register(&mut params, "encoder");
        decoder.register(&mut params, "decoder");
        Self {
            params,
            ent,
            rel,
            encoder,
            decoder,
            alpha: 0.7,
            m,
            noise: logcl_tkg::NoiseSpec::CLEAN,
            rng,
        }
    }

    /// Mask penalty: 0 where `(s, r, o)` has occurred, −1e4 elsewhere
    /// (TiRGN's binary history vocabulary restricted to past answers).
    fn history_mask(&self, history: HistoryView<'_>, queries: &[Quad]) -> Tensor {
        let e = self.ent.len();
        let mut feat = Tensor::full(&[queries.len(), e], -1e4);
        for (i, q) in queries.iter().enumerate() {
            for (o, _) in history.seen_objects(q.s, q.r) {
                feat.set2(i, o, 0.0);
            }
        }
        feat
    }

    fn probs(
        &mut self,
        snapshots: &[logcl_tkg::Snapshot],
        history: &HistoryIndex,
        queries: &[Quad],
        t: usize,
        training: bool,
    ) -> Var {
        let s: Vec<usize> = queries.iter().map(|q| q.s).collect();
        let r: Vec<usize> = queries.iter().map(|q| q.r).collect();
        let h0 = if self.noise.is_clean() {
            self.ent.weight.clone()
        } else {
            let shape = self.ent.weight.shape();
            let n = Tensor::randn(&shape, self.noise.std, &mut self.rng);
            self.ent.weight.add(&Var::constant(n))
        };
        let enc = self.encoder.encode(
            &h0,
            &self.rel.weight,
            snapshots,
            t,
            self.m,
            training,
            &mut self.rng,
        );
        let e_s = enc.h_final.gather_rows(&s);
        let e_r = enc.rel_final.gather_rows(&r);
        let decoded = self.decoder.decode(&e_s, &e_r, training, &mut self.rng);
        let local = self.decoder.score_all(&decoded, &enc.h_final);
        let p_local = local.softmax_rows();
        let masked = local.add(&Var::constant(self.history_mask(history.as_of(t), queries)));
        let p_global = masked.softmax_rows();
        p_local
            .scale(self.alpha)
            .add(&p_global.scale(1.0 - self.alpha))
    }

    /// NLL of the mixture distribution.
    fn nll(
        &mut self,
        snapshots: &[logcl_tkg::Snapshot],
        history: &HistoryIndex,
        queries: &[Quad],
        t: usize,
    ) -> Var {
        let probs = self.probs(snapshots, history, queries, t, true);
        let e = self.ent.len();
        let mut onehot = Tensor::zeros(&[queries.len(), e]);
        for (i, q) in queries.iter().enumerate() {
            onehot.set2(i, q.o, 1.0);
        }
        let picked = probs.add_scalar(1e-9).ln().mul(&Var::constant(onehot));
        picked.sum().scale(-1.0 / queries.len() as f32)
    }
}

impl TkgModel for TirgnLite {
    fn name(&self) -> String {
        "TiRGN".into()
    }

    fn fit(&mut self, ds: &TkgDataset, opts: &TrainOptions) -> Result<TrainReport, TrainError> {
        let snapshots = ds.snapshots();
        let by_time = group_by_time(&ds.train, ds.num_times);
        let mut opt = Adam::new(&self.params, opts.lr);
        let history = HistoryIndex::build(&snapshots);
        for _ in 0..opts.epochs {
            for (t, quads) in by_time.iter().enumerate().take(ds.train_end_time()) {
                if !quads.is_empty() {
                    let inv: Vec<Quad> = quads.iter().map(|q| q.inverse(ds.num_rels)).collect();
                    let loss1 = self.nll(&snapshots, &history, quads, t);
                    let loss2 = self.nll(&snapshots, &history, &inv, t);
                    loss1.add(&loss2).backward();
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
        let probs = self.probs(ctx.snapshots, ctx.history, queries, ctx.t, false);
        logits_to_rows(&probs, queries.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logcl_core::evaluate;
    use logcl_tkg::SyntheticPreset;

    #[test]
    fn history_mask_marks_past_answers() {
        let ds = SyntheticPreset::Icews14.generate_scaled(0.15);
        let model = TirgnLite::new(&ds, 8, 3, 3, 7);
        let mut history = HistoryIndex::new();
        history.advance(&logcl_tkg::Snapshot {
            t: 0,
            edges: vec![(0, 0, 2), (0, 0, 2)],
        });
        let f = model.history_mask(history.as_of(1), &[Quad::new(0, 0, 0, 1)]);
        assert_eq!(f.at2(0, 2), 0.0);
        assert_eq!(f.at2(0, 3), -1e4);
    }

    #[test]
    fn trained_model_keeps_global_strength() {
        // The history feature alone is a strong prior; after a few epochs
        // the combined model must stay strong (the local decoder refines
        // the non-repetitive queries over longer training).
        let ds = SyntheticPreset::Icews14.generate_scaled(0.15);
        let mut model = TirgnLite::new(&ds, 16, 3, 4, 7);
        let test = ds.test.clone();
        model.fit(&ds, &TrainOptions::epochs(3)).unwrap();
        let after = evaluate(&mut model, &ds, &test);
        assert!(after.mrr > 40.0, "TiRGN-lite too weak: {}", after.mrr);
    }
}
