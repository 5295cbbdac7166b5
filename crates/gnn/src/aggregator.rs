//! The swappable relational-GNN interface used by both LogCL encoders.
//!
//! Table V of the paper replaces the R-GCN inside the local and global
//! encoders with CompGCN (sub / mult composition) and KBGAT. This module
//! provides the common trait plus a small enum-dispatched stack of layers so
//! the encoders stay agnostic of the aggregator choice.

use logcl_tensor::nn::ParamSet;
use logcl_tensor::{Rng, Var};

use crate::compgcn::{CompGcnLayer, Composition};
use crate::kbgat::KbgatLayer;
use crate::rgcn::RgcnLayer;

/// The edge list a relational GNN consumes: parallel `(subject, relation,
/// object)` index vectors plus the per-object in-degree normaliser.
pub struct EdgeBatch<'a> {
    /// Subject index per edge.
    pub subjects: &'a [usize],
    /// Relation index per edge.
    pub relations: &'a [usize],
    /// Object index per edge.
    pub objects: &'a [usize],
    /// Number of entities in the embedding matrix.
    pub num_entities: usize,
}

impl EdgeBatch<'_> {
    /// Number of edges.
    pub fn len(&self) -> usize {
        self.subjects.len()
    }

    /// True when there are no edges (aggregation degenerates to self-loops).
    pub fn is_empty(&self) -> bool {
        self.subjects.is_empty()
    }

    /// `1 / in_degree(o)` per edge (the `1/c_o` factor of Eq. 4).
    pub fn inv_in_degree_per_edge(&self) -> Vec<f32> {
        let mut deg = vec![0u32; self.num_entities];
        for &o in self.objects {
            deg[o] += 1;
        }
        self.objects
            .iter()
            .map(|&o| 1.0 / deg[o].max(1) as f32)
            .collect()
    }
}

/// One message-passing layer over a multi-relational edge batch.
pub trait Aggregator {
    /// Computes rows of the layer's output from entity embeddings `h`
    /// (`[N, D]`) and relation embeddings `rel` (`[R, D]`).
    ///
    /// `out` holds the ascending positions in `h` of the rows to compute;
    /// the result is `[out.len(), D]`, row `i` being the row `h`'s row
    /// `out[i]` gets over the whole graph. `edges` index `h` by subject and
    /// the result by object (`num_entities == out.len()`), and hold every
    /// edge into those rows in the graph's order. `None` means the graph
    /// has no edge at all and only the self-loop runs; `Some` with no edge
    /// still runs the message path, so the message weights get the (zero)
    /// gradient they get over the whole graph.
    fn forward(&self, h: &Var, rel: &Var, edges: Option<&EdgeBatch<'_>>, out: &[usize]) -> Var;

    /// Registers the layer's parameters.
    fn register(&self, params: &mut ParamSet, prefix: &str);
}

/// The rows of `h` at the ascending positions `rows`: `h` itself when they
/// are all of its rows. A matmul's output row depends on its own input row
/// alone, so a transform of these rows has the bits the whole matrix's
/// transform gives them.
pub(crate) fn rows_at(h: &Var, rows: &[usize]) -> Var {
    if rows.len() == h.shape()[0] {
        h.clone()
    } else {
        h.gather_rows(rows)
    }
}

/// Every row position of `h`, the `out` of a layer computing all of them.
#[cfg(test)]
pub(crate) fn every_row(h: &Var) -> Vec<usize> {
    (0..h.shape()[0]).collect()
}

/// Where each of `entities` sits in the ascending `rows`, which hold it.
fn positions(rows: &[usize], entities: &[usize]) -> Vec<usize> {
    entities
        .iter()
        .map(|&e| rows.partition_point(|&row| row < e))
        .collect()
}

/// Which relational GNN fills the encoders (Table V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregatorKind {
    /// The paper's default (Eq. 4).
    Rgcn,
    /// CompGCN with subtraction composition.
    CompGcnSub,
    /// CompGCN with multiplication composition.
    CompGcnMult,
    /// KBGAT-style edge attention.
    Kbgat,
}

impl AggregatorKind {
    /// All Table V variants, paper row order.
    pub const ALL: [AggregatorKind; 4] =
        [Self::Rgcn, Self::CompGcnSub, Self::CompGcnMult, Self::Kbgat];

    /// Display name matching the paper's rows.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Rgcn => "RGCN",
            Self::CompGcnSub => "CompGCN-sub",
            Self::CompGcnMult => "CompGCN-mult",
            Self::Kbgat => "KBAT",
        }
    }

    /// Whether a layer's output row is a function of that row's in-edges
    /// and their endpoints' rows alone, so that edges into rows nobody
    /// reads can be left out without moving a bit. KBGAT's is not: its
    /// scatter softmax subtracts the largest logit over the layer's whole
    /// edge list.
    fn row_local(&self) -> bool {
        *self != Self::Kbgat
    }

    fn build_layer(&self, dim: usize, rng: &mut Rng) -> Box<dyn Aggregator> {
        match self {
            Self::Rgcn => Box::new(RgcnLayer::new(dim, rng)),
            Self::CompGcnSub => Box::new(CompGcnLayer::new(dim, Composition::Sub, rng)),
            Self::CompGcnMult => Box::new(CompGcnLayer::new(dim, Composition::Mult, rng)),
            Self::Kbgat => Box::new(KbgatLayer::new(dim, rng)),
        }
    }
}

/// A stack of `layers` aggregator layers of one kind — the "ω-layer R-GCN"
/// of the paper's encoders (2 by default, swept in Fig. 6).
pub struct RelGnn {
    layers: Vec<Box<dyn Aggregator>>,
    kind: AggregatorKind,
}

impl RelGnn {
    /// Builds a `num_layers`-deep stack.
    pub fn new(kind: AggregatorKind, dim: usize, num_layers: usize, rng: &mut Rng) -> Self {
        assert!(num_layers >= 1, "need at least one layer");
        let layers = (0..num_layers)
            .map(|_| kind.build_layer(dim, rng))
            .collect();
        Self { layers, kind }
    }

    /// The configured aggregator kind.
    pub fn kind(&self) -> AggregatorKind {
        self.kind
    }

    /// Number of stacked layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Runs every layer in sequence over every row.
    pub fn forward(&self, h: &Var, rel: &Var, edges: &EdgeBatch<'_>) -> Var {
        let every: Vec<usize> = (0..edges.num_entities).collect();
        self.forward_rows(h, rel, edges, &every)
    }

    /// The rows `read` (ascending entity ids) of the stack's output,
    /// `[read.len(), D]`, with the bits [`RelGnn::forward`] gives them.
    ///
    /// Each layer computes only the rows of
    /// [`RelGnn::receptive_rows`], over only the edges into them, in the
    /// graph's order: every in-edge of a computed row is kept, so in-degrees
    /// and each row's scatter-add order are the whole graph's. When the
    /// graph has edges, every layer runs its message path, even over none.
    pub fn forward_rows(&self, h: &Var, rel: &Var, edges: &EdgeBatch<'_>, read: &[usize]) -> Var {
        let field = self.receptive_rows(edges, read);
        let messages = !edges.is_empty();
        let mut cur = rows_at(h, &field[0]);
        for (layer, pair) in self.layers.iter().zip(field.windows(2)) {
            let (input, output) = (&pair[0], &pair[1]);
            cur = if output.len() == edges.num_entities {
                layer.forward(&cur, rel, messages.then_some(edges), output)
            } else {
                let kept: Vec<usize> = (0..edges.len())
                    .filter(|&i| output.binary_search(&edges.objects[i]).is_ok())
                    .collect();
                let pick = |of: &[usize]| kept.iter().map(|&i| of[i]).collect::<Vec<_>>();
                let into = EdgeBatch {
                    subjects: &positions(input, &pick(edges.subjects)),
                    relations: &pick(edges.relations),
                    objects: &positions(output, &pick(edges.objects)),
                    num_entities: output.len(),
                };
                layer.forward(
                    &cur,
                    rel,
                    messages.then_some(&into),
                    &positions(input, output),
                )
            };
        }
        let last = &field[field.len() - 1];
        if last.len() == read.len() {
            cur
        } else {
            cur.gather_rows(&positions(last, read))
        }
    }

    /// The entity rows, ascending, that [`RelGnn::forward_rows`] computes
    /// to read out `read`: entry `0` is taken from the input, entry `ℓ + 1`
    /// is what layer `ℓ` computes. Working back from `read`, a layer's input
    /// is its output rows plus the subjects of the edges into them — the
    /// rows within `depth − ℓ` hops upstream of `read`. A stack that is not
    /// row-local (KBGAT) computes `read` and every edge endpoint at each
    /// layer, and every row when `read` is all of them.
    pub fn receptive_rows(&self, edges: &EdgeBatch<'_>, read: &[usize]) -> Vec<Vec<usize>> {
        let depth = self.layers.len();
        if read.len() == edges.num_entities || !self.kind.row_local() {
            let mut rows = read.to_vec();
            if rows.len() < edges.num_entities {
                rows.extend(edges.subjects.iter().chain(edges.objects));
                rows.sort_unstable();
                rows.dedup();
            }
            return vec![rows; depth + 1];
        }
        let mut field = vec![read.to_vec()];
        for _ in 0..depth {
            let out = &field[field.len() - 1];
            let mut rows = out.clone();
            rows.extend(
                edges
                    .objects
                    .iter()
                    .zip(edges.subjects)
                    .filter(|&(o, _)| out.binary_search(o).is_ok())
                    .map(|(_, &s)| s),
            );
            rows.sort_unstable();
            rows.dedup();
            field.push(rows);
        }
        field.reverse();
        field
    }

    /// Registers all layers' parameters.
    pub fn register(&self, params: &mut ParamSet, prefix: &str) {
        for (i, layer) in self.layers.iter().enumerate() {
            layer.register(params, &format!("{prefix}.layer{i}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logcl_tensor::Tensor;

    fn toy_edges() -> (Vec<usize>, Vec<usize>, Vec<usize>) {
        (vec![0, 1, 2], vec![0, 1, 0], vec![1, 2, 1])
    }

    #[test]
    fn inv_in_degree_matches_counts() {
        let (s, r, o) = toy_edges();
        let edges = EdgeBatch {
            subjects: &s,
            relations: &r,
            objects: &o,
            num_entities: 4,
        };
        assert_eq!(edges.inv_in_degree_per_edge(), vec![0.5, 1.0, 0.5]);
    }

    #[test]
    fn every_kind_builds_and_runs() {
        let mut rng = Rng::seed(3);
        let (s, r, o) = toy_edges();
        let edges = EdgeBatch {
            subjects: &s,
            relations: &r,
            objects: &o,
            num_entities: 4,
        };
        let h = Var::param(Tensor::randn(&[4, 8], 0.5, &mut rng));
        let rel = Var::param(Tensor::randn(&[2, 8], 0.5, &mut rng));
        for kind in AggregatorKind::ALL {
            let gnn = RelGnn::new(kind, 8, 2, &mut rng);
            assert_eq!(gnn.depth(), 2);
            let out = gnn.forward(&h, &rel, &edges);
            assert_eq!(out.shape(), vec![4, 8]);
            assert!(
                out.value().all_finite(),
                "{kind:?} produced non-finite output"
            );
            // Gradients flow back to both inputs.
            out.sum().backward();
            assert!(h.grad().is_some(), "{kind:?}: no entity gradient");
            assert!(rel.grad().is_some(), "{kind:?}: no relation gradient");
            h.zero_grad();
            rel.zero_grad();
        }
    }

    #[test]
    fn read_rows_carry_the_whole_forwards_bits() {
        let mut rng = Rng::seed(5);
        // A chain 0 → 1 → 2 → 3 plus 4 → 0 and a self-loop on 5.
        let (s, r, o) = (
            vec![0, 1, 2, 4, 5],
            vec![0, 1, 0, 1, 0],
            vec![1, 2, 3, 0, 5],
        );
        let edges = EdgeBatch {
            subjects: &s,
            relations: &r,
            objects: &o,
            num_entities: 7,
        };
        let h = Var::param(Tensor::randn(&[7, 8], 0.5, &mut rng));
        let rel = Var::param(Tensor::randn(&[2, 8], 0.5, &mut rng));
        for kind in AggregatorKind::ALL {
            let gnn = RelGnn::new(kind, 8, 2, &mut rng);
            let whole = gnn.forward(&h, &rel, &edges).to_tensor();
            for read in [vec![2], vec![0, 3], vec![6], vec![1, 5, 6]] {
                let rows = gnn.forward_rows(&h, &rel, &edges, &read).to_tensor();
                for (i, &e) in read.iter().enumerate() {
                    let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(rows.row(i)), bits(whole.row(e)), "{kind:?} {read:?}");
                }
            }
        }
        let rgcn = RelGnn::new(AggregatorKind::Rgcn, 8, 2, &mut rng);
        // Two hops up from 3: 2, then 1; entity 6 has no edge at all.
        assert_eq!(
            rgcn.receptive_rows(&edges, &[3, 6]),
            vec![vec![1, 2, 3, 6], vec![2, 3, 6], vec![3, 6]]
        );
        // KBGAT keeps every endpoint at every layer.
        let kbgat = RelGnn::new(AggregatorKind::Kbgat, 8, 2, &mut rng);
        assert_eq!(
            kbgat.receptive_rows(&edges, &[6]),
            vec![vec![0, 1, 2, 3, 4, 5, 6]; 3]
        );
    }

    #[test]
    fn registration_counts_params() {
        let mut rng = Rng::seed(4);
        for (kind, min_params) in [
            (AggregatorKind::Rgcn, 2),
            (AggregatorKind::CompGcnSub, 2),
            (AggregatorKind::Kbgat, 3),
        ] {
            let gnn = RelGnn::new(kind, 4, 1, &mut rng);
            let mut params = ParamSet::new();
            gnn.register(&mut params, "g");
            assert!(
                params.len() >= min_params,
                "{kind:?} registered {}",
                params.len()
            );
        }
    }
}
