//! The global entity-aware attention encoder (Section III-D).
//!
//! For each query `(s, r, ?, t_q)` a *historical query subgraph* is sampled
//! from all facts before `t_q`: the one-hop facts of `s` united with the
//! one-hop facts of every historical answer object of `(s, r)` — a static
//! (time-stripped) graph. A second relational GNN aggregates it over the
//! *initial* embeddings (Eq. 12), and the entity-aware gate of Eq. 13–14
//! modulates the result per query.
//!
//! For batching, the subgraphs of all queries at one timestamp are unioned
//! into a single edge set before aggregation; per-query representations are
//! then read out at the query subjects. This preserves the paper's per-query
//! subgraph semantics: each query only reads its own subject row, whose
//! receptive field is its own subgraph's neighbourhood.
//!
//! The forward reads one row of `H_g^{Agg}` per query: its subject's. So
//! the encoder reads out **the query subjects only** (every row for LogCL-G,
//! whose decoder scores against `H_g^{Agg}` itself), and the GNN computes
//! only what those rows depend on ([`RelGnn::forward_rows`]): layer `ℓ` of
//! `ω` computes the rows within `ω − ℓ` hops upstream of the subjects, over
//! the edges into them. Every row it computes has the bits the
//! whole-vocabulary pass gives that entity: the matmul kernel computes an
//! output row from its own input row, every in-edge of a computed row is
//! kept, so its in-degree is the whole graph's, and scatter-add
//! accumulates each row's messages in edge order. KBGAT is exempt — its
//! scatter softmax subtracts the largest logit over the layer's whole edge
//! list — and computes the subjects and every edge endpoint at each layer.
//! In the default two-layer R-GCN the last layer computes the subject rows
//! alone and the first those plus their in-neighbours (DESIGN.md, "What a
//! query's global encoding costs", has the counts).

use logcl_gnn::aggregator::EdgeBatch;
use logcl_gnn::{GlobalEntityAttention, RelGnn};
use logcl_tensor::nn::ParamSet;
use logcl_tensor::{Rng, Var};
use logcl_tkg::HistoryView;
use std::collections::BTreeSet;

use crate::config::LogClConfig;

/// The outputs of one global encoding pass.
pub struct GlobalEncoding {
    /// The entities read out, ascending: the query subjects — or the whole
    /// vocabulary for LogCL-G, whose decoder candidates are `h_agg` itself.
    pub rows: Vec<usize>,
    /// Aggregated entity matrix `H_g^{Agg}` over the unioned query
    /// subgraphs, `[rows.len(), D]`: row `i` belongs to entity `rows[i]`.
    pub h_agg: Var,
}

impl GlobalEncoding {
    /// The `H_g^{Agg}` rows of `entities`, each of which must be read out
    /// (every query subject is).
    pub fn gather(&self, entities: &[usize]) -> Var {
        self.h_agg.gather_rows(&positions(&self.rows, entities))
    }
}

/// Where each of `entities` sits in the ascending `rows`.
fn positions(rows: &[usize], entities: &[usize]) -> Vec<usize> {
    entities
        .iter()
        .map(|&e| {
            let at = rows.partition_point(|&row| row < e);
            assert!(
                rows.get(at) == Some(&e),
                "entity {e} is outside the global encoding's row set"
            );
            at
        })
        .collect()
}

/// The global encoder.
pub struct GlobalEncoder {
    gnn: RelGnn,
    att: GlobalEntityAttention,
    max_edges_per_query: usize,
    /// LogCL-G (no local encoder) decodes against `H_g^{Agg}` itself, so it
    /// needs a row for every entity; every other variant reads subject rows
    /// only.
    whole_vocabulary: bool,
}

impl GlobalEncoder {
    /// Builds the encoder from the model configuration.
    pub fn new(cfg: &LogClConfig, rng: &mut Rng) -> Self {
        Self {
            gnn: RelGnn::new(cfg.aggregator, cfg.dim, cfg.global_layers, rng),
            att: GlobalEntityAttention::new(cfg.dim, rng),
            max_edges_per_query: cfg.max_subgraph_edges,
            whole_vocabulary: !cfg.use_local,
        }
    }

    /// Samples and unions the historical query subgraphs of `queries` from
    /// `history` — the index as of the query time — then aggregates them
    /// with the global GNN over the initial embeddings `h0` / `rel0`
    /// (Eq. 12), reading out the query subjects' rows only (every row for
    /// LogCL-G).
    pub fn encode(
        &self,
        h0: &Var,
        rel0: &Var,
        history: HistoryView<'_>,
        queries: &[(usize, usize)],
    ) -> GlobalEncoding {
        let cap = self.max_edges_per_query;
        let edges = match queries {
            [first, rest @ ..] if rest.iter().all(|q| q == first) => {
                history.query_subgraph(first.0, first.1, cap).edges
            }
            _ => {
                // The union in first-occurrence order, each `(s, r)` once.
                let mut seen_pairs: BTreeSet<(usize, usize)> = BTreeSet::new();
                let mut seen_edges: BTreeSet<(usize, usize, usize)> = BTreeSet::new();
                let mut edges = Vec::new();
                for &(s, r) in queries.iter().filter(|&&q| seen_pairs.insert(q)) {
                    let sub = history.query_subgraph(s, r, cap);
                    edges.extend(sub.edges.into_iter().filter(|&e| seen_edges.insert(e)));
                }
                edges
            }
        };
        let (s_idx, (r_idx, o_idx)): (Vec<usize>, (Vec<usize>, Vec<usize>)) =
            edges.iter().map(|&(s, r, o)| (s, (r, o))).unzip();
        let num_entities = h0.shape()[0];
        let rows: Vec<usize> = if self.whole_vocabulary {
            (0..num_entities).collect()
        } else {
            let mut subjects: Vec<usize> = queries.iter().map(|&(s, _)| s).collect();
            subjects.sort_unstable();
            subjects.dedup();
            subjects
        };
        let edges = EdgeBatch {
            subjects: &s_idx,
            relations: &r_idx,
            objects: &o_idx,
            num_entities,
        };
        // LogCL-G's GNN input stays the gathered copy it has always been:
        // its gradient then reaches the entity table as one sum, in the
        // order training has always added it.
        let h = if self.whole_vocabulary {
            h0.gather_rows(&rows)
        } else {
            h0.clone()
        };
        let h_agg = self.gnn.forward_rows(&h, rel0, &edges, &rows);
        GlobalEncoding { rows, h_agg }
    }

    /// Per-query global representations: the gated subject rows (Eq. 13–14),
    /// or raw subject rows when entity-aware attention is ablated.
    pub fn query_representation(
        &self,
        enc: &GlobalEncoding,
        h0: &Var,
        subjects: &[usize],
        use_entity_attention: bool,
    ) -> Var {
        let h_g = enc.gather(subjects);
        if !use_entity_attention {
            return h_g;
        }
        let h_static = h0.gather_rows(subjects);
        self.att.forward(&h_g, &h_static)
    }

    /// Registers the GNN stack and the gate.
    pub fn register(&self, params: &mut ParamSet, prefix: &str) {
        self.gnn.register(params, &format!("{prefix}.gnn"));
        self.att.register(params, &format!("{prefix}.att"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logcl_tensor::Tensor;
    use logcl_tkg::{HistoryIndex, Snapshot};

    fn history() -> HistoryIndex {
        HistoryIndex::build(&[
            Snapshot {
                t: 0,
                edges: vec![(0, 0, 1), (1, 1, 2), (3, 0, 4)],
            },
            Snapshot {
                t: 1,
                edges: vec![(0, 0, 1), (2, 1, 0)],
            },
        ])
    }

    fn setup() -> (GlobalEncoder, Var, Var) {
        let cfg = LogClConfig {
            dim: 8,
            ..Default::default()
        };
        let mut rng = Rng::seed(111);
        let enc = GlobalEncoder::new(&cfg, &mut rng);
        let h0 = Var::param(Tensor::randn(&[5, 8], 0.3, &mut rng));
        let rel0 = Var::param(Tensor::randn(&[4, 8], 0.3, &mut rng));
        (enc, h0, rel0)
    }

    #[test]
    fn encode_and_read_out() {
        let (enc, h0, rel0) = setup();
        let hist = history();
        let out = enc.encode(&h0, &rel0, hist.as_of(2), &[(0, 0), (2, 1), (0, 0)]);
        // The subjects, ascending, once each: their subgraphs' other
        // endpoints are computed on the way and never read out.
        assert_eq!(out.rows, vec![0, 2]);
        assert_eq!(out.h_agg.shape(), vec![2, 8]);
        let rep = enc.query_representation(&out, &h0, &[0, 2], true);
        assert_eq!(rep.shape(), vec![2, 8]);
        assert!(rep.value().all_finite());
    }

    #[test]
    fn duplicate_queries_do_not_duplicate_edges() {
        let (enc, h0, rel0) = setup();
        let hist = history();
        let a = enc.encode(&h0, &rel0, hist.as_of(2), &[(0, 0)]);
        let b = enc.encode(&h0, &rel0, hist.as_of(2), &[(0, 0), (0, 0), (0, 0)]);
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.h_agg.value().data(), b.h_agg.value().data());
    }

    #[test]
    fn no_history_falls_back_to_self_loops() {
        let (enc, h0, rel0) = setup();
        let hist = HistoryIndex::new();
        // With zero edges the row set is the subject alone and the
        // aggregation a pure self-loop stack of that row.
        let out = enc.encode(&h0, &rel0, hist.as_of(0), &[(3, 1)]);
        assert_eq!(out.rows, vec![3]);
        let edges = EdgeBatch {
            subjects: &[],
            relations: &[],
            objects: &[],
            num_entities: 5,
        };
        let self_loops = enc.gnn.forward(&h0, &rel0, &edges);
        assert_eq!(out.h_agg.value().data(), self_loops.value().row(3));
    }

    #[test]
    #[should_panic(expected = "outside the global encoding's row set")]
    fn reading_an_entity_outside_the_row_set_is_refused() {
        let (enc, h0, rel0) = setup();
        let hist = history();
        let out = enc.encode(&h0, &rel0, hist.as_of(2), &[(0, 0)]);
        out.gather(&[4]);
    }

    #[test]
    fn gate_ablation_changes_representation() {
        let (enc, h0, rel0) = setup();
        let hist = history();
        let out = enc.encode(&h0, &rel0, hist.as_of(2), &[(0, 0)]);
        let gated = enc.query_representation(&out, &h0, &[0], true);
        let raw = enc.query_representation(&out, &h0, &[0], false);
        assert_ne!(gated.value().data(), raw.value().data());
    }

    #[test]
    fn gradients_flow_to_initial_embeddings() {
        let (enc, h0, rel0) = setup();
        let hist = history();
        let out = enc.encode(&h0, &rel0, hist.as_of(2), &[(0, 0), (3, 0)]);
        let rep = enc.query_representation(&out, &h0, &[0, 3], true);
        rep.sum().backward();
        assert!(h0.grad().is_some());
        assert!(rel0.grad().is_some());
    }
}
