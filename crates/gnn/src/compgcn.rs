//! CompGCN-style layer (Vashishth et al., 2020) with `sub` and `mult`
//! entity–relation composition — the Table V alternatives.
//!
//! Messages are `W₁ φ(h_s, r)` where `φ` is `h_s − r` (sub) or `h_s ⊙ r`
//! (mult); aggregation, normalisation and self-loop mirror the R-GCN layer
//! so the comparison isolates the composition function, as in the paper.

use logcl_tensor::nn::{xavier_uniform, ParamSet};
use logcl_tensor::{Rng, Tensor, Var};

use crate::aggregator::{rows_at, Aggregator, EdgeBatch};

/// The entity–relation composition function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Composition {
    /// `φ(h, r) = h − r`.
    Sub,
    /// `φ(h, r) = h ⊙ r`.
    Mult,
}

/// One CompGCN layer.
pub struct CompGcnLayer {
    /// Message transform.
    pub w1: Var,
    /// Self-loop transform.
    pub w2: Var,
    /// Relation transform (CompGCN also projects relations per layer).
    pub w_rel: Var,
    comp: Composition,
}

impl CompGcnLayer {
    /// Xavier-initialised layer of width `dim`.
    pub fn new(dim: usize, comp: Composition, rng: &mut Rng) -> Self {
        Self {
            w1: Var::param(xavier_uniform(dim, dim, rng)),
            w2: Var::param(xavier_uniform(dim, dim, rng)),
            w_rel: Var::param(xavier_uniform(dim, dim, rng)),
            comp,
        }
    }

    /// The composition used by this layer.
    pub fn composition(&self) -> Composition {
        self.comp
    }
}

impl Aggregator for CompGcnLayer {
    fn forward(&self, h: &Var, rel: &Var, edges: Option<&EdgeBatch<'_>>, out: &[usize]) -> Var {
        let self_loop = rows_at(h, out).matmul(&self.w2);
        let Some(edges) = edges else {
            return self_loop.rrelu();
        };
        let h_s = h.gather_rows(edges.subjects);
        let r_e = rel.matmul(&self.w_rel).gather_rows(edges.relations);
        let composed = match self.comp {
            Composition::Sub => h_s.sub(&r_e),
            Composition::Mult => h_s.mul(&r_e),
        };
        let msg = composed.matmul(&self.w1);
        let inv_deg = edges.inv_in_degree_per_edge();
        let norm = Var::constant(Tensor::from_vec(inv_deg, &[edges.len(), 1]));
        let agg = msg
            .mul(&norm)
            .scatter_add_rows(edges.objects, edges.num_entities);
        agg.add(&self_loop).rrelu()
    }

    fn register(&self, params: &mut ParamSet, prefix: &str) {
        params.register(format!("{prefix}.w1"), self.w1.clone());
        params.register(format!("{prefix}.w2"), self.w2.clone());
        params.register(format!("{prefix}.w_rel"), self.w_rel.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::every_row;

    fn run(comp: Composition) -> Var {
        let mut rng = Rng::seed(31);
        let layer = CompGcnLayer::new(4, comp, &mut rng);
        let h = Var::param(Tensor::randn(&[4, 4], 0.5, &mut rng));
        let rel = Var::param(Tensor::randn(&[2, 4], 0.5, &mut rng));
        let (s, r, o) = (vec![0, 1, 3], vec![0, 1, 0], vec![2, 2, 1]);
        let edges = EdgeBatch {
            subjects: &s,
            relations: &r,
            objects: &o,
            num_entities: 4,
        };
        layer.forward(&h, &rel, Some(&edges), &every_row(&h))
    }

    #[test]
    fn sub_and_mult_differ() {
        let a = run(Composition::Sub);
        let b = run(Composition::Mult);
        assert_eq!(a.shape(), vec![4, 4]);
        assert_ne!(a.value().data(), b.value().data());
    }

    #[test]
    fn gradients_flow() {
        let mut rng = Rng::seed(32);
        let layer = CompGcnLayer::new(4, Composition::Mult, &mut rng);
        let h = Var::param(Tensor::randn(&[4, 4], 0.5, &mut rng));
        let rel = Var::param(Tensor::randn(&[2, 4], 0.5, &mut rng));
        let (s, r, o) = (vec![0, 1], vec![0, 1], vec![2, 3]);
        let edges = EdgeBatch {
            subjects: &s,
            relations: &r,
            objects: &o,
            num_entities: 4,
        };
        layer
            .forward(&h, &rel, Some(&edges), &every_row(&h))
            .sum()
            .backward();
        assert!(
            layer.w_rel.grad().is_some(),
            "relation projection must be trained"
        );
        assert!(rel.grad().is_some());
    }

    #[test]
    fn composition_accessor() {
        let mut rng = Rng::seed(33);
        let layer = CompGcnLayer::new(2, Composition::Sub, &mut rng);
        assert_eq!(layer.composition(), Composition::Sub);
    }
}
