//! The entity-aggregating R-GCN layer of Eq. 4:
//!
//! ```text
//! h_o^{l+1} = RReLU( 1/c_o · Σ_{(s,r): (s,r,o) ∈ G_t} W₁ (h_s + r)  +  W₂ h_o )
//! ```
//!
//! Messages are `W₁(h_s + r)` normalised by the object's in-degree and
//! scatter-added onto objects; every entity additionally receives a
//! self-loop term `W₂ h_o`.

use logcl_tensor::nn::{xavier_uniform, ParamSet};
use logcl_tensor::{Rng, Tensor, Var};

use crate::aggregator::{rows_at, Aggregator, EdgeBatch};

/// One R-GCN layer (Eq. 4).
pub struct RgcnLayer {
    /// Message transform `W₁`.
    pub w1: Var,
    /// Self-loop transform `W₂`.
    pub w2: Var,
}

impl RgcnLayer {
    /// Xavier-initialised layer of width `dim`.
    pub fn new(dim: usize, rng: &mut Rng) -> Self {
        Self {
            w1: Var::param(xavier_uniform(dim, dim, rng)),
            w2: Var::param(xavier_uniform(dim, dim, rng)),
        }
    }
}

impl Aggregator for RgcnLayer {
    fn forward(&self, h: &Var, rel: &Var, edges: Option<&EdgeBatch<'_>>, out: &[usize]) -> Var {
        let self_loop = rows_at(h, out).matmul(&self.w2);
        let Some(edges) = edges else {
            return self_loop.rrelu();
        };
        // Per-edge message W₁(h_s + r), normalised by 1/c_o.
        let h_s = h.gather_rows(edges.subjects);
        let r_e = rel.gather_rows(edges.relations);
        let msg = h_s.add(&r_e).matmul(&self.w1);
        let inv_deg = edges.inv_in_degree_per_edge();
        let norm = Var::constant(Tensor::from_vec(inv_deg, &[edges.len(), 1]));
        let msg = msg.mul(&norm);
        let agg = msg.scatter_add_rows(edges.objects, edges.num_entities);
        agg.add(&self_loop).rrelu()
    }

    fn register(&self, params: &mut ParamSet, prefix: &str) {
        params.register(format!("{prefix}.w1"), self.w1.clone());
        params.register(format!("{prefix}.w2"), self.w2.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::every_row;

    fn setup(dim: usize) -> (RgcnLayer, Var, Var) {
        let mut rng = Rng::seed(17);
        let layer = RgcnLayer::new(dim, &mut rng);
        let h = Var::param(Tensor::randn(&[5, dim], 0.5, &mut rng));
        let rel = Var::param(Tensor::randn(&[3, dim], 0.5, &mut rng));
        (layer, h, rel)
    }

    #[test]
    fn output_shape_preserved() {
        let (layer, h, rel) = setup(6);
        let (s, r, o) = (vec![0, 1], vec![0, 2], vec![2, 2]);
        let edges = EdgeBatch {
            subjects: &s,
            relations: &r,
            objects: &o,
            num_entities: 5,
        };
        let out = layer.forward(&h, &rel, Some(&edges), &every_row(&h));
        assert_eq!(out.shape(), vec![5, 6]);
    }

    #[test]
    fn isolated_entities_keep_self_loop_only() {
        let (layer, h, rel) = setup(4);
        let (s, r, o) = (vec![0], vec![0], vec![1]);
        let edges = EdgeBatch {
            subjects: &s,
            relations: &r,
            objects: &o,
            num_entities: 5,
        };
        let out = layer.forward(&h, &rel, Some(&edges), &every_row(&h));
        // Entity 3 is isolated: output equals RReLU(W₂ h₃).
        let expected = h.matmul(&layer.w2).rrelu();
        let got = out.value().row(3).to_vec();
        let want = expected.value().row(3).to_vec();
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn in_degree_normalisation_averages_messages() {
        // Two subjects with identical embeddings sending the same relation
        // into one object must equal a single such message (mean, not sum).
        let mut rng = Rng::seed(23);
        let layer = RgcnLayer::new(4, &mut rng);
        let base = Tensor::randn(&[1, 4], 0.5, &mut rng);
        let mut h_data = Vec::new();
        for _ in 0..3 {
            h_data.extend_from_slice(base.data());
        }
        let h = Var::constant(Tensor::from_vec(h_data, &[3, 4]));
        let rel = Var::constant(Tensor::randn(&[1, 4], 0.5, &mut rng));

        let (s1, r1, o1) = (vec![0, 1], vec![0, 0], vec![2, 2]);
        let e1 = EdgeBatch {
            subjects: &s1,
            relations: &r1,
            objects: &o1,
            num_entities: 3,
        };
        let (s2, r2, o2) = (vec![0], vec![0], vec![2]);
        let e2 = EdgeBatch {
            subjects: &s2,
            relations: &r2,
            objects: &o2,
            num_entities: 3,
        };

        let out1 = layer.forward(&h, &rel, Some(&e1), &every_row(&h));
        let out2 = layer.forward(&h, &rel, Some(&e2), &every_row(&h));
        for (a, b) in out1.value().row(2).iter().zip(out2.value().row(2)) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn empty_graph_is_pure_self_loop() {
        let (layer, h, rel) = setup(4);
        let (s, r, o): (Vec<usize>, Vec<usize>, Vec<usize>) = (vec![], vec![], vec![]);
        let edges = EdgeBatch {
            subjects: &s,
            relations: &r,
            objects: &o,
            num_entities: 5,
        };
        let out = layer.forward(&h, &rel, None, &every_row(&h));
        let expected = h.matmul(&layer.w2).rrelu();
        assert_eq!(out.value().data(), expected.value().data());
        // Rows with no edge into them inside a graph that has edges still
        // run the message path: `w1` gets a zero gradient, not none.
        let into_two = EdgeBatch {
            num_entities: 2,
            ..edges
        };
        let out = layer.forward(&h, &rel, Some(&into_two), &[1, 3]);
        assert_eq!(
            out.value().data(),
            expected.value().gather_rows(&[1, 3]).data()
        );
        out.sum().backward();
        let g1 = layer.w1.grad().expect("the message path ran");
        assert!(g1.data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn gradients_reach_weights() {
        let (layer, h, rel) = setup(4);
        let (s, r, o) = (vec![0, 1, 4], vec![0, 1, 2], vec![2, 2, 0]);
        let edges = EdgeBatch {
            subjects: &s,
            relations: &r,
            objects: &o,
            num_entities: 5,
        };
        layer
            .forward(&h, &rel, Some(&edges), &every_row(&h))
            .sum()
            .backward();
        assert!(layer.w1.grad().is_some());
        assert!(layer.w2.grad().is_some());
        assert!(h.grad().unwrap().all_finite());
    }
}
