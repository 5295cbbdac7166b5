//! A KBGAT-style attention aggregator (Nathani et al., 2019) — the Table V
//! "KBAT" alternative.
//!
//! Per edge `(s, r, o)` an attention logit is computed from the concatenated
//! projected triple; logits are softmax-normalised **per object** (a scatter
//! softmax) and weight the messages `W(h_s + r)`.

use logcl_tensor::nn::{xavier_uniform, ParamSet};
use logcl_tensor::{Rng, Var};

use crate::aggregator::{rows_at, Aggregator, EdgeBatch};

/// One KBGAT-style attention layer.
pub struct KbgatLayer {
    /// Message / projection transform `W`.
    pub w: Var,
    /// Self-loop transform.
    pub w_self: Var,
    /// Attention vector over `[Wh_s ‖ Wr ‖ Wh_o]` (`[3D, 1]`).
    pub a: Var,
    /// LeakyReLU slope for attention logits.
    pub slope: f32,
}

impl KbgatLayer {
    /// Xavier-initialised layer of width `dim`.
    pub fn new(dim: usize, rng: &mut Rng) -> Self {
        Self {
            w: Var::param(xavier_uniform(dim, dim, rng)),
            w_self: Var::param(xavier_uniform(dim, dim, rng)),
            a: Var::param(xavier_uniform(3 * dim, 1, rng)),
            slope: 0.2,
        }
    }

    /// Softmax over edges grouped by object: `exp(logit) / Σ_{edges into o}
    /// exp(logit)`, computed with gather/scatter so it differentiates.
    fn scatter_softmax(&self, logits: &Var, edges: &EdgeBatch<'_>) -> Var {
        // Stabilise by the global max (cheap; per-group max not needed at
        // these magnitudes).
        let max = logits
            .value()
            .data()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max);
        let exp = logits.add_scalar(-max).exp();
        let denom_per_obj = exp.scatter_add_rows(edges.objects, edges.num_entities);
        let denom_per_edge = denom_per_obj.gather_rows(edges.objects).add_scalar(1e-12);
        exp.div(&denom_per_edge)
    }
}

impl Aggregator for KbgatLayer {
    fn forward(&self, h: &Var, rel: &Var, edges: Option<&EdgeBatch<'_>>, out: &[usize]) -> Var {
        let self_loop = rows_at(h, out).matmul(&self.w_self);
        let Some(edges) = edges else {
            return self_loop.rrelu();
        };
        let hw = h.matmul(&self.w);
        let rw = rel.matmul(&self.w);
        let h_s = hw.gather_rows(edges.subjects);
        let r_e = rw.gather_rows(edges.relations);
        let objects_in_h: Vec<usize> = edges.objects.iter().map(|&o| out[o]).collect();
        let h_o = hw.gather_rows(&objects_in_h);
        let feat = h_s.concat_cols(&r_e).concat_cols(&h_o); // [M, 3D]
        let logits = feat.matmul(&self.a).leaky_relu(self.slope); // [M, 1]
        let alpha = self.scatter_softmax(&logits, edges); // [M, 1]
        let msg = h_s.add(&r_e).mul(&alpha);
        let agg = msg.scatter_add_rows(edges.objects, edges.num_entities);
        agg.add(&self_loop).rrelu()
    }

    fn register(&self, params: &mut ParamSet, prefix: &str) {
        params.register(format!("{prefix}.w"), self.w.clone());
        params.register(format!("{prefix}.w_self"), self.w_self.clone());
        params.register(format!("{prefix}.a"), self.a.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::every_row;
    use logcl_tensor::Tensor;

    #[test]
    fn attention_weights_sum_to_one_per_object() {
        let mut rng = Rng::seed(41);
        let layer = KbgatLayer::new(4, &mut rng);
        let h = Var::constant(Tensor::randn(&[5, 4], 0.5, &mut rng));
        let rel = Var::constant(Tensor::randn(&[2, 4], 0.5, &mut rng));
        // Three edges into object 2, one into object 0.
        let (s, r, o) = (vec![0, 1, 3, 4], vec![0, 1, 0, 1], vec![2, 2, 2, 0]);
        let edges = EdgeBatch {
            subjects: &s,
            relations: &r,
            objects: &o,
            num_entities: 5,
        };

        let hw = h.matmul(&layer.w);
        let rw = rel.matmul(&layer.w);
        let feat = hw
            .gather_rows(&s)
            .concat_cols(&rw.gather_rows(&r))
            .concat_cols(&hw.gather_rows(&o));
        let logits = feat.matmul(&layer.a).leaky_relu(layer.slope);
        let alpha = layer.scatter_softmax(&logits, &edges);
        let av = alpha.to_tensor();
        let into_2: f32 = av.data()[0] + av.data()[1] + av.data()[2];
        assert!((into_2 - 1.0).abs() < 1e-5, "sum {into_2}");
        assert!((av.data()[3] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn forward_shape_and_grads() {
        let mut rng = Rng::seed(42);
        let layer = KbgatLayer::new(6, &mut rng);
        let h = Var::param(Tensor::randn(&[4, 6], 0.5, &mut rng));
        let rel = Var::param(Tensor::randn(&[3, 6], 0.5, &mut rng));
        let (s, r, o) = (vec![0, 1, 2], vec![0, 1, 2], vec![3, 3, 1]);
        let edges = EdgeBatch {
            subjects: &s,
            relations: &r,
            objects: &o,
            num_entities: 4,
        };
        let out = layer.forward(&h, &rel, Some(&edges), &every_row(&h));
        assert_eq!(out.shape(), vec![4, 6]);
        out.sum().backward();
        assert!(layer.a.grad().is_some(), "attention vector must train");
        assert!(h.grad().unwrap().all_finite());
    }
}
