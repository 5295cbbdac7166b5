//! Property tests for the candidate layout a [`SharedEncoding`] keeps: in
//! evaluation mode the Eq. 18 operand `h_final[lo..hi]ᵀ` is laid out once
//! per encoding and range, and every logit scored through it must carry the
//! **bits** (`to_bits`) of the per-query lines it replaced, written out here
//! as the specification:
//!
//! ```text
//! decoded.matmul(&candidates.gather_rows(&(lo..hi)).transpose2())
//! ```
//!
//! over seeded random timelines, every Table V aggregator, entity-aware
//! attention on and off, the full model and LogCL-L, windowed
//! (`encode(.., false)`, `t_q = 0` included) and head (`shared_from_state`)
//! encodings, the whole range, every `ShardSpec::new(i, n)` range for
//! `n ∈ {2, 3, 7, |E|}` and single rows — asked of **one** encoding in turn,
//! so each forward meets the layout the previous range left behind — with
//! and without the global encoder (`forward_queries_local_only`), for
//! multi-query batches with a duplicate (the fused shape) and each query
//! alone (the exact shape).

use proptest::prelude::*;

use logcl_core::model::SharedEncoding;
use logcl_core::trainer::online_step;
use logcl_core::{EvalContext, LogCl, LogClConfig, ShardSpec};
use logcl_gnn::AggregatorKind;
use logcl_tensor::Var;
use logcl_tkg::{HistoryIndex, Quad, Snapshot, SyntheticPreset, TkgDataset};

const NUM_RELS: usize = 3;
const DIM: usize = 8;

fn tiny_cfg() -> LogClConfig {
    LogClConfig {
        dim: DIM,
        time_bank: 4,
        channels: 3,
        m: 3,
        ..Default::default()
    }
}

/// Raw tuples folded into an `e`-entity, `t`-timestamp dataset (the stand-in
/// proptest has no `prop_flat_map`, so dependent ranges are reduced modulo
/// the drawn sizes). The last timestamp always holds a fact, so `|T| = t`.
fn dataset(raw: &[(usize, usize, usize, usize)], e: usize, t: usize) -> TkgDataset {
    let mut quads: Vec<Quad> = raw
        .iter()
        .map(|&(s, r, o, time)| Quad::new(s % e, r % NUM_RELS, o % e, time % t))
        .collect();
    quads.push(Quad::new(0, 0, e - 1, t - 1));
    TkgDataset::from_quads("layout", e, NUM_RELS, quads)
}

fn bits(v: &Var) -> Vec<u32> {
    v.value().data().iter().map(|v| v.to_bits()).collect()
}

/// Every range the property asks of one encoding, in an order that changes
/// the range on every step: whole, then the shards of each split
/// interleaved with single rows.
fn ranges(e: usize, row: usize) -> Vec<(usize, usize)> {
    let mut out = vec![(0, e)];
    for n in [2, 3, 7, e] {
        for i in 0..n {
            let (lo, hi) = ShardSpec::new(i, n).expect("i < n").range(e);
            if lo < hi {
                out.push((lo, hi));
                out.push(((row + i) % e, (row + i) % e + 1));
            }
        }
    }
    out.push((0, e));
    out
}

/// The per-query lines over the encoding's own candidate matrix.
fn spec(shared: &SharedEncoding, decoded: &Var, (lo, hi): (usize, usize)) -> Vec<u32> {
    let candidates = &shared.local.as_ref().expect("local candidates").h_final;
    let ids: Vec<usize> = (lo..hi).collect();
    bits(&decoded.matmul(&candidates.gather_rows(&ids).transpose2()))
}

/// Asks `shared` every range in turn and holds each answer to the spec.
fn check_encoding(
    model: &mut LogCl,
    shared: &SharedEncoding,
    history: &HistoryIndex,
    queries: &[Quad],
    e: usize,
    row: usize,
) -> Result<(), TestCaseError> {
    for (at, range) in ranges(e, row).into_iter().enumerate() {
        let skip_global = at % 3 == 2;
        let out = model.forward_queries_in_range(shared, history, queries, skip_global, range);
        prop_assert_eq!(out.logits.shape(), vec![queries.len(), range.1 - range.0]);
        prop_assert_eq!(
            bits(&out.logits),
            spec(shared, &out.decoded, range),
            "range {:?}, skip_global {}",
            range,
            skip_global
        );
        // The exact-batching shape on a few of the ranges: each query alone.
        if at % 5 == 0 {
            for q in queries {
                let one = std::slice::from_ref(q);
                let out = model.forward_queries_in_range(shared, history, one, false, range);
                prop_assert_eq!(
                    bits(&out.logits),
                    spec(shared, &out.decoded, range),
                    "range {:?}, query {:?}",
                    range,
                    q
                );
            }
        }
    }
    // The two unsharded entry points are the whole range.
    let whole = (0, e);
    let full = model.forward_queries(shared, history, queries, false);
    prop_assert_eq!(bits(&full.logits), spec(shared, &full.decoded, whole));
    let local_only = model.forward_queries_local_only(shared, history, queries);
    prop_assert_eq!(
        bits(&local_only.logits),
        spec(shared, &local_only.decoded, whole)
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kept_layout_scores_the_bits_of_the_per_query_lines(
        e in 2usize..14,
        t in 2usize..7,
        raw in proptest::collection::vec((0usize..64, 0usize..64, 0usize..64, 0usize..64), 4..30),
        raw_queries in proptest::collection::vec((0usize..64, 0usize..64), 1..5),
        kind_at in 0usize..4,
        attention in 0usize..2,
        with_global in 0usize..2,
        t_q_raw in 0usize..64,
        row_raw in 0usize..64,
        seed in 1u64..1_000,
    ) {
        let ds = dataset(&raw, e, t);
        let snaps = ds.snapshots();
        let history = HistoryIndex::build(&snaps);
        let cfg = LogClConfig {
            aggregator: AggregatorKind::ALL[kind_at],
            use_entity_attention: attention == 1,
            use_global: with_global == 1,
            seed,
            ..tiny_cfg()
        };
        let mut model = LogCl::new(&ds, cfg);
        let (t_q, row) = (t_q_raw % (t + 1), row_raw % e);
        let at = |time: usize| -> Vec<Quad> {
            let mut queries: Vec<Quad> = raw_queries
                .iter()
                .map(|&(s, r)| Quad::new(s % e, r % (2 * NUM_RELS), 0, time))
                .collect();
            queries.push(queries[0]);
            queries
        };

        let windowed = model.encode(&snaps, t_q, false);
        check_encoding(&mut model, &windowed, &history, &at(t_q), e, row)?;

        let state = model.init_encoder_state(&snaps);
        let head = model.shared_from_state(&state);
        prop_assert_eq!(head.t_q, t);
        check_encoding(&mut model, &head, &history, &at(t), e, row)?;
    }
}

fn seeded() -> (TkgDataset, Vec<Snapshot>, HistoryIndex) {
    let ds = SyntheticPreset::Icews14.generate_scaled(0.15);
    let snaps = ds.snapshots();
    let history = HistoryIndex::build(&snaps);
    (ds, snaps, history)
}

fn queries_at(ds: &TkgDataset, t: usize, n: usize) -> Vec<Quad> {
    let queries: Vec<Quad> = ds
        .all_quads()
        .into_iter()
        .filter(|q| q.t == t)
        .take(n)
        .collect();
    assert!(!queries.is_empty());
    queries
}

/// One encoding asked three ranges in turn, then one range fifty times,
/// answers each time what an encoding built for that one question answers.
#[test]
fn a_reused_encoding_answers_as_a_fresh_one_does() {
    let (ds, snaps, history) = seeded();
    let mut model = LogCl::new(&ds, tiny_cfg());
    let (t, e) = (10, ds.num_entities);
    let queries = queries_at(&ds, t, 4);
    let state = model.init_encoder_state(&snaps[..t]);
    let fresh = |model: &mut LogCl, head: bool, range| -> Vec<u32> {
        let shared = if head {
            model.shared_from_state(&state)
        } else {
            model.encode(&snaps, t, false)
        };
        let out = model.forward_queries_in_range(&shared, &history, &queries, false, range);
        bits(&out.logits)
    };
    for head in [false, true] {
        let held = if head {
            model.shared_from_state(&state)
        } else {
            model.encode(&snaps, t, false)
        };
        let turns = [(0, e), (e / 3, e - 1), (7, 8), (0, e), (e / 3, e - 1)];
        for range in turns.into_iter().chain([(5, e / 2); 50]) {
            let out = model.forward_queries_in_range(&held, &history, &queries, false, range);
            assert_eq!(
                bits(&out.logits),
                fresh(&mut model, head, range),
                "head {head}, range {range:?}"
            );
        }
    }
}

/// LogCL-G decodes against `H_g`, a function of the query: nothing is kept
/// for it, and a range is still the columns of the whole.
#[test]
fn query_dependent_candidates_are_scored_as_before() {
    let (ds, snaps, history) = seeded();
    let mut model = LogCl::new(&ds, tiny_cfg().without_local());
    let (t, e) = (10, ds.num_entities);
    let queries = queries_at(&ds, t, 3);
    let shared = model.encode(&snaps, t, false);
    let whole = model.forward_queries(&shared, &history, &queries, false);
    let whole = whole.logits.to_tensor();
    for (lo, hi) in [(0, e), (3, 40), (e - 1, e), (3, 40)] {
        let out = model.forward_queries_in_range(&shared, &history, &queries, false, (lo, hi));
        let part = out.logits.to_tensor();
        for q in 0..queries.len() {
            assert_eq!(
                part.row(q).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                whole.row(q)[lo..hi]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "query {q}, range {lo}..{hi}"
            );
        }
    }
}

/// At `t_q = 0` the window is empty and the candidate matrix *is* the live
/// entity table, so an encoding held across an optimizer step reads the
/// stepped weights — before the layout was kept and after. A layout captured
/// by the first forward would answer the second one from the old table.
#[test]
fn an_encoding_that_aliases_the_live_table_follows_an_optimizer_step() {
    let (ds, snaps, history) = seeded();
    let mut model = LogCl::new(&ds, tiny_cfg());
    let e = ds.num_entities;
    let queries = queries_at(&ds, 0, 4);
    // One held encoding per range, so that the second forward asks for the
    // very range the first one would have laid out.
    let ranges = [(0, e), (e / 2, e)];
    let held: Vec<(SharedEncoding, Vec<u32>)> = ranges
        .iter()
        .map(|&r| {
            let held = model.encode(&snaps, 0, false);
            let out = model.forward_queries_in_range(&held, &history, &queries, false, r);
            assert_eq!(bits(&out.logits), spec(&held, &out.decoded, r));
            let before = bits(&out.logits);
            (held, before)
        })
        .collect();

    let ctx = EvalContext {
        ds: &ds,
        snapshots: &snaps,
        history: &history,
        t: 3,
    };
    online_step(&mut model, &ctx, &queries_at(&ds, 3, 8));

    let fresh = model.encode(&snaps, 0, false);
    for (&r, (held, before)) in ranges.iter().zip(&held) {
        let again = model.forward_queries_in_range(held, &history, &queries, false, r);
        let anew = model.forward_queries_in_range(&fresh, &history, &queries, false, r);
        assert_ne!(&bits(&again.logits), before, "the step moved nothing");
        assert_eq!(bits(&again.logits), bits(&anew.logits));
        assert_eq!(bits(&again.logits), spec(held, &again.decoded, r));
    }
}
