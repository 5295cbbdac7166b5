//! Property tests for the global encoder's read-out: reading out the query
//! subjects only — each GNN layer computing only the rows within reach of
//! them, over only the edges into those rows — must give every returned row
//! the **bits** (`to_bits`) the whole-vocabulary pass gives the same entity,
//! and every weight the same gradient, for random timelines (repeats,
//! inverse edges, empty snapshots, subjects with no history), every
//! Table V aggregator, the Fig. 6 depth sweep, single queries and batches
//! with duplicate `(s, r)` pairs, and `as_of` cuts below the horizon.
//!
//! The reference is not a second implementation: a `GlobalEncoder` built for
//! the LogCL-G configuration (no local encoder) runs the same `encode` with
//! every row `0..|E|` read out, because that variant decodes against `H_g`
//! itself. Same seed, same weights; only the rows read out differ.

use proptest::prelude::*;

use logcl_core::config::LogClConfig;
use logcl_core::global_encoder::{GlobalEncoder, GlobalEncoding};
use logcl_gnn::aggregator::EdgeBatch;
use logcl_gnn::{AggregatorKind, RelGnn};
use logcl_tensor::nn::ParamSet;
use logcl_tensor::{Rng, Tensor, Var};
use logcl_tkg::{HistoryIndex, HistoryView, Quad, Snapshot};

const NUM_RELS: usize = 3;
const DIM: usize = 8;

/// Folds raw tuples into in-range quads over `e` entities and `t`
/// timestamps, each followed by its inverse edge; a small `e` makes repeats,
/// a `t` larger than the fact count makes empty snapshots.
fn timeline(raw: &[(usize, usize, usize, usize)], e: usize, t: usize) -> Vec<Snapshot> {
    let quads: Vec<Quad> = raw
        .iter()
        .flat_map(|&(s, r, o, time)| {
            let (s, r, o, time) = (s % e, r % NUM_RELS, o % e, time % t);
            [
                Quad::new(s, r, o, time),
                Quad::new(o, r + NUM_RELS, s, time),
            ]
        })
        .collect();
    Snapshot::group_by_time(&quads, t)
}

/// One encoder with its own copies of the embedding tables, so two sides'
/// gradients never meet.
struct Side {
    enc: GlobalEncoder,
    params: ParamSet,
    h0: Var,
    rel0: Var,
}

/// The subgraph-rows encoder (`use_local`, every served configuration) or
/// the whole-vocabulary one (LogCL-G) — identical weights and tables.
fn side(cfg: &LogClConfig, whole_vocabulary: bool, num_entities: usize, seed: u64) -> Side {
    let cfg = LogClConfig {
        use_local: !whole_vocabulary,
        ..cfg.clone()
    };
    let mut rng = Rng::seed(seed);
    let enc = GlobalEncoder::new(&cfg, &mut rng);
    let mut params = ParamSet::new();
    enc.register(&mut params, "global");
    let h0 = Var::param(Tensor::randn(&[num_entities, DIM], 0.3, &mut rng));
    let rel0 = Var::param(Tensor::randn(&[2 * NUM_RELS, DIM], 0.3, &mut rng));
    Side {
        enc,
        params,
        h0,
        rel0,
    }
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

fn tensor_bits(t: &Tensor) -> Vec<u32> {
    bits(t.data())
}

/// Every row of `compact` against the same entity's row of `whole`.
fn assert_rows_match(
    compact: &GlobalEncoding,
    whole: &GlobalEncoding,
    num_entities: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&whole.rows, &(0..num_entities).collect::<Vec<_>>());
    prop_assert_eq!(compact.h_agg.shape(), vec![compact.rows.len(), DIM]);
    prop_assert!(compact.rows.windows(2).all(|w| w[0] < w[1]), "ascending");
    let (c, w) = (compact.h_agg.value(), whole.h_agg.value());
    for (i, &entity) in compact.rows.iter().enumerate() {
        prop_assert_eq!(bits(c.row(i)), bits(w.row(entity)), "entity {}", entity);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn subgraph_rows_carry_the_whole_vocabulary_bits(
        e in 2usize..14,
        t in 1usize..9,
        raw in proptest::collection::vec((0usize..64, 0usize..64, 0usize..64, 0usize..64), 0..30),
        raw_queries in proptest::collection::vec((0usize..64, 0usize..64), 1..6),
        kind_at in 0usize..4,
        global_layers in 1usize..5,
        max_subgraph_edges in 1usize..12,
        cut_raw in 0usize..64,
        seed in 1u64..1_000,
    ) {
        let history = HistoryIndex::build(&timeline(&raw, e, t));
        let view = history.as_of(cut_raw % (t + 1));
        let cfg = LogClConfig {
            dim: DIM,
            aggregator: AggregatorKind::ALL[kind_at],
            global_layers,
            max_subgraph_edges,
            ..Default::default()
        };
        let (compact, whole) = (side(&cfg, false, e, seed), side(&cfg, true, e, seed));

        // The fused / training shape: several queries, the first one twice.
        let mut queries: Vec<(usize, usize)> = raw_queries
            .iter()
            .map(|&(s, r)| (s % e, r % (2 * NUM_RELS)))
            .collect();
        queries.push(queries[0]);
        let subjects: Vec<usize> = queries.iter().map(|&(s, _)| s).collect();
        let enc_c = compact.enc.encode(&compact.h0, &compact.rel0, view, &queries);
        let enc_w = whole.enc.encode(&whole.h0, &whole.rel0, view, &queries);
        assert_rows_match(&enc_c, &enc_w, e)?;
        for gated in [true, false] {
            let rep_c = compact.enc.query_representation(&enc_c, &compact.h0, &subjects, gated);
            let rep_w = whole.enc.query_representation(&enc_w, &whole.h0, &subjects, gated);
            prop_assert_eq!(tensor_bits(&rep_c.value()), tensor_bits(&rep_w.value()));
        }

        // The exact-batching serve shape: each query alone.
        for &q in &queries {
            let one_c = compact.enc.encode(&compact.h0, &compact.rel0, view, &[q]);
            let one_w = whole.enc.encode(&whole.h0, &whole.rel0, view, &[q]);
            prop_assert_eq!(&one_c.rows, &vec![q.0], "the subject alone is read out");
            assert_rows_match(&one_c, &one_w, e)?;
        }
    }

    /// What moves in training, exactly. Backward from a loss on the gated
    /// subject rows (Eq. 13–14) and on the raw contrast view (Eq. 16):
    ///
    /// * every `global.*` weight and the relation table get `to_bits`-equal
    ///   gradients — a row or edge a layer leaves out contributes exact
    ///   zeros to the `Aᵀ G` reductions and the relation table's scatter,
    ///   and ascending row sets in edge order keep their order;
    /// * the *entity table's* gradient may differ in the last bits. Over the
    ///   whole vocabulary `h0` feeds the self-loop matmul, the message gather
    ///   and the gate directly, and autograd adds those contributions into
    ///   `h0` one by one; read out at the subjects, the first two meet at
    ///   the one `gather_rows` of the first layer's input rows and reach
    ///   `h0` as a single scatter-add. Same terms, possibly another association, so f32
    ///   rounding may differ: bounded here at 1e-6 of the gradient's largest
    ///   element (not of each element — a sum that cancels to near zero has
    ///   no small relative error to keep). In this harness the gate happens
    ///   to be added last on both sides and every case is bit-equal; inside
    ///   the full model `h0` also feeds the local encoder, and one training
    ///   step at the parent of PR 15 against the change differed in 29 of
    ///   816 `ent.weight` gradient elements by at most 5.2e-8 of the largest
    ///   (every other parameter's gradient, and the loss, bit-equal).
    #[test]
    fn gradients_match_except_the_entity_tables_summation_order(
        e in 2usize..14,
        t in 1usize..9,
        raw in proptest::collection::vec((0usize..64, 0usize..64, 0usize..64, 0usize..64), 1..30),
        raw_queries in proptest::collection::vec((0usize..64, 0usize..64), 1..6),
        kind_at in 0usize..4,
        global_layers in 1usize..5,
        seed in 1u64..1_000,
    ) {
        let history = HistoryIndex::build(&timeline(&raw, e, t));
        let cfg = LogClConfig {
            dim: DIM,
            aggregator: AggregatorKind::ALL[kind_at],
            global_layers,
            max_subgraph_edges: 10,
            ..Default::default()
        };
        let mut queries: Vec<(usize, usize)> = raw_queries
            .iter()
            .map(|&(s, r)| (s % e, r % (2 * NUM_RELS)))
            .collect();
        queries.push(queries[0]);
        assert_gradients_match(&cfg, history.as_of(t), &queries, e, seed)?;
    }
}

/// Backward from the same loss on both sides (see the property above) and
/// compare: every `global.*` weight and the relation table `to_bits`, the
/// entity table within 1e-6 of its largest element. Returns the compact
/// side's parameters, gradients in place.
fn assert_gradients_match(
    cfg: &LogClConfig,
    view: HistoryView<'_>,
    queries: &[(usize, usize)],
    e: usize,
    seed: u64,
) -> Result<ParamSet, TestCaseError> {
    let subjects: Vec<usize> = queries.iter().map(|&(s, _)| s).collect();
    // Fixed non-uniform loss weights, so no gradient is trivially flat.
    let mut rng = Rng::seed(seed + 1);
    let w_rep = Var::constant(Tensor::randn(&[subjects.len(), DIM], 1.0, &mut rng));
    let w_view = Var::constant(Tensor::randn(&[subjects.len(), DIM], 1.0, &mut rng));

    let sides = [side(cfg, false, e, seed), side(cfg, true, e, seed)];
    for s in &sides {
        let enc = s.enc.encode(&s.h0, &s.rel0, view, queries);
        let rep = s.enc.query_representation(&enc, &s.h0, &subjects, true);
        let view = enc.gather(&subjects);
        rep.mul(&w_rep)
            .sum()
            .add(&view.mul(&w_view).sum())
            .backward();
    }
    let [compact, whole] = sides;

    for ((name, c), (_, w)) in compact.params.iter().zip(whole.params.iter()) {
        let (gc, gw) = (c.grad(), w.grad());
        prop_assert_eq!(gc.is_some(), gw.is_some(), "{}", name);
        if let (Some(gc), Some(gw)) = (gc, gw) {
            prop_assert_eq!(tensor_bits(&gc), tensor_bits(&gw), "{}", name);
        }
    }
    let (rc, rw) = (compact.rel0.grad(), whole.rel0.grad());
    prop_assert_eq!(
        rc.as_ref().map(tensor_bits),
        rw.as_ref().map(tensor_bits),
        "relation table"
    );

    let gc = compact.h0.grad().expect("h0 is read by the gate");
    let gw = whole.h0.grad().expect("h0 is read by the gate");
    let scale = gw.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
    for (a, b) in gc.data().iter().zip(gw.data()) {
        prop_assert!(
            (a - b).abs() <= 1e-6 * scale,
            "entity table: {} vs {}",
            a,
            b
        );
    }
    Ok(compact.params)
}

/// A subject with no in-edge inside a non-empty subgraph: no layer's
/// message reaches the one row read out, so the pruned last layer has no
/// edge — yet the whole graph has edges, and there every message weight
/// gets a (zero) gradient. So must the compact side, for every aggregator
/// and depth, or a training step would treat the weight as unused.
#[test]
fn a_subject_without_in_edges_still_trains_every_message_weight() {
    // Subject 0 only sends: (0, 0, 1), then 1 and 2 talk among themselves.
    let history = HistoryIndex::build(&[
        Snapshot {
            t: 0,
            edges: vec![(0, 0, 1), (1, 1, 2)],
        },
        Snapshot {
            t: 1,
            edges: vec![(2, 2, 1), (0, 0, 1)],
        },
    ]);
    let sub = history.query_subgraph(0, 0, 10);
    assert_eq!(sub.edges, vec![(0, 0, 1), (1, 1, 2), (2, 2, 1)]);
    for kind in AggregatorKind::ALL {
        for global_layers in 1..5 {
            let cfg = LogClConfig {
                dim: DIM,
                aggregator: kind,
                global_layers,
                ..Default::default()
            };
            for queries in [&[(0, 0)][..], &[(0, 0), (0, 0)], &[(0, 0), (2, 1)]] {
                let params = assert_gradients_match(&cfg, history.as_of(2), queries, 4, 5)
                    .unwrap_or_else(|e| panic!("{kind:?}, depth {global_layers}: {e}"));
                for (name, p) in params.iter() {
                    if name.ends_with(".w1") {
                        assert!(
                            p.grad().is_some(),
                            "{kind:?}, depth {global_layers}: {name}"
                        );
                    }
                }
            }
        }
    }
}

/// The subject-0 hub: subject 0 reaches `fan` objects, each of which
/// reaches `fan` more — far more than one query's 60-edge cap around
/// subject 0 at either vocabulary size.
fn hub(num_entities: usize) -> HistoryIndex {
    let fan = 40.min(num_entities - 1);
    let mut quads = Vec::new();
    for o in 1..=fan {
        quads.push(Quad::new(0, 0, o, 0));
        for hop in 1..=fan {
            quads.push(Quad::new(o, 1, (o * 31 + hop * 7) % num_entities, 1));
        }
    }
    HistoryIndex::build(&Snapshot::group_by_time(&quads, 2))
}

/// The point of the change as a count, not a timing: the rows each layer
/// of the default two-layer R-GCN computes for one query — input rows
/// first, then each layer's output — are pinned, bounded by the query's
/// subgraph and end at its subject alone, whatever the vocabulary size;
/// the whole-vocabulary pass computes `|E|` rows at every layer. The read
/// row keeps the whole pass's bits.
#[test]
fn rows_each_layer_computes_do_not_grow_with_the_vocabulary() {
    let cfg = LogClConfig {
        dim: DIM,
        ..Default::default()
    };
    for (num_entities, counts) in [
        (50usize, [((0, 0), [1, 1, 1]), ((7, 1), [1, 1, 1])]),
        (5_000, [((0, 0), [1, 1, 1]), ((7, 1), [2, 2, 1])]),
    ] {
        let history = hub(num_entities);
        let gnn = RelGnn::new(cfg.aggregator, DIM, cfg.global_layers, &mut Rng::seed(7));
        let (compact, whole) = (
            side(&cfg, false, num_entities, 7),
            side(&cfg, true, num_entities, 7),
        );
        for ((s, r), want) in counts {
            let sub = history
                .as_of(2)
                .query_subgraph(s, r, cfg.max_subgraph_edges);
            assert!(sub.len() >= 50, "{} edges", sub.len());
            let (s_idx, (r_idx, o_idx)): (Vec<usize>, (Vec<usize>, Vec<usize>)) =
                sub.edges.iter().map(|&(s, r, o)| (s, (r, o))).unzip();
            let edges = EdgeBatch {
                subjects: &s_idx,
                relations: &r_idx,
                objects: &o_idx,
                num_entities,
            };
            let field = gnn.receptive_rows(&edges, &[s]);
            let got: Vec<usize> = field.iter().map(Vec::len).collect();
            assert_eq!(got, want, "|E| = {num_entities}, query ({s}, {r})");
            assert!(got.iter().all(|&n| n <= sub.entities().len() + 1));
            let every: Vec<usize> = (0..num_entities).collect();
            let whole_field = gnn.receptive_rows(&edges, &every);
            assert!(whole_field.iter().all(|rows| rows.len() == num_entities));

            let enc = compact
                .enc
                .encode(&compact.h0, &compact.rel0, history.as_of(2), &[(s, r)]);
            assert_eq!(enc.rows, vec![s]);
            let reference = whole
                .enc
                .encode(&whole.h0, &whole.rel0, history.as_of(2), &[(s, r)]);
            assert_eq!(reference.rows.len(), num_entities);
            assert_eq!(
                bits(enc.h_agg.value().row(0)),
                bits(reference.h_agg.value().row(s)),
                "entity {s}"
            );
        }
    }
}
