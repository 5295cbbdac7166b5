//! The shared RE-GCN-style recurrent encoder: per-snapshot R-GCN
//! aggregation, entity GRU evolution and relation time-gate evolution over
//! the last `m` snapshots — *without* LogCL's periodic time encoding or
//! entity-aware attention. RE-GCN, CEN-lite and TiRGN-lite all build on it.

use logcl_gnn::aggregator::EdgeBatch;
use logcl_gnn::{AggregatorKind, GruCell, RelGnn, RelationEvolution};
use logcl_tensor::nn::{dropout, ParamSet};
use logcl_tensor::{Rng, Var};
use logcl_tkg::Snapshot;

/// The recurrent evolution encoder.
pub struct RecurrentEncoder {
    gnn: RelGnn,
    gru: GruCell,
    rel_evo: RelationEvolution,
    dropout_p: f32,
}

/// Final evolved matrices.
pub struct RecurrentEncoding {
    /// Entity matrix at the query time (`[E, D]`).
    pub h_final: Var,
    /// Relation matrix at the query time (`[2R, D]`).
    pub rel_final: Var,
}

impl RecurrentEncoder {
    /// Builds the encoder (`layers`-deep R-GCN, width `dim`).
    pub fn new(dim: usize, layers: usize, dropout_p: f32, rng: &mut Rng) -> Self {
        Self {
            gnn: RelGnn::new(AggregatorKind::Rgcn, dim, layers, rng),
            gru: GruCell::new(dim, rng),
            rel_evo: RelationEvolution::new(dim, rng),
            dropout_p,
        }
    }

    /// Evolves embeddings over snapshots `t_q − m .. t_q − 1`.
    #[expect(
        clippy::too_many_arguments,
        reason = "mirrors the encoder call signature used across models"
    )]
    pub fn encode(
        &self,
        h0: &Var,
        rel0: &Var,
        snapshots: &[Snapshot],
        t_q: usize,
        m: usize,
        training: bool,
        rng: &mut Rng,
    ) -> RecurrentEncoding {
        let num_entities = h0.shape()[0];
        let start = t_q.saturating_sub(m);
        let mut h = h0.clone();
        let mut rel = rel0.clone();
        for snap in &snapshots[start..t_q] {
            let (s_idx, r_idx, o_idx) = snap.edge_index();
            let edges = EdgeBatch {
                subjects: &s_idx,
                relations: &r_idx,
                objects: &o_idx,
                num_entities,
            };
            let h_agg = self.gnn.forward(&h, &rel, &edges);
            let h_agg = dropout(&h_agg, self.dropout_p, training, rng);
            h = self.gru.forward(&h, &h_agg);
            rel = self.rel_evo.forward(&rel, rel0, &h, &s_idx, &r_idx);
        }
        RecurrentEncoding {
            h_final: h,
            rel_final: rel,
        }
    }

    /// Registers all sub-modules.
    pub fn register(&self, params: &mut ParamSet, prefix: &str) {
        self.gnn.register(params, &format!("{prefix}.gnn"));
        self.gru.register(params, &format!("{prefix}.gru"));
        self.rel_evo.register(params, &format!("{prefix}.rel_evo"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logcl_tensor::Tensor;
    use logcl_tkg::Quad;

    #[test]
    fn encode_shapes_and_grads() {
        let mut rng = Rng::seed(131);
        let enc = RecurrentEncoder::new(8, 2, 0.0, &mut rng);
        let h0 = Var::param(Tensor::randn(&[5, 8], 0.3, &mut rng));
        let rel0 = Var::param(Tensor::randn(&[4, 8], 0.3, &mut rng));
        let quads = vec![
            Quad::new(0, 0, 1, 0),
            Quad::new(1, 1, 2, 1),
            Quad::new(2, 0, 3, 2),
        ];
        let snaps = Snapshot::group_by_time(&quads, 4);
        let out = enc.encode(&h0, &rel0, &snaps, 3, 3, false, &mut rng);
        assert_eq!(out.h_final.shape(), vec![5, 8]);
        out.h_final.sum().backward();
        assert!(h0.grad().is_some());
    }

    #[test]
    fn zero_window_returns_initial() {
        let mut rng = Rng::seed(132);
        let enc = RecurrentEncoder::new(4, 1, 0.0, &mut rng);
        let h0 = Var::constant(Tensor::randn(&[3, 4], 0.3, &mut rng));
        let rel0 = Var::constant(Tensor::randn(&[2, 4], 0.3, &mut rng));
        let snaps = Snapshot::group_by_time(&[], 2);
        let out = enc.encode(&h0, &rel0, &snaps, 0, 3, false, &mut rng);
        assert_eq!(out.h_final.value().data(), h0.value().data());
        assert_eq!(out.rel_final.value().data(), rel0.value().data());
    }
}
