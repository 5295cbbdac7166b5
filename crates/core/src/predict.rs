//! Readable top-k predictions — the Table VI case-study machinery.

use logcl_tensor::autograd::no_grad;
use logcl_tkg::quad::Quad;
use logcl_tkg::{HistoryIndex, TkgDataset};

use crate::api::{EvalContext, TkgModel};
use crate::model::LogCl;
use crate::shard::{shard_topk, SoftmaxStat};

/// One ranked prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Candidate entity id.
    pub entity: usize,
    /// Candidate entity name.
    pub name: String,
    /// Softmax probability over all candidates.
    pub probability: f32,
    /// Raw decoder logit (pre-softmax). Unlike the probability, the raw
    /// score is bit-identical across entity-sharded and single-node
    /// scoring, so it is what scatter-gather merges rank by.
    pub score: f32,
}

/// A malformed query that cannot be scored against `ds`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictError {
    /// Subject id ≥ `|E|`.
    SubjectOutOfRange {
        /// Offending subject id.
        s: usize,
        /// Entity vocabulary size.
        num_entities: usize,
    },
    /// Relation id ≥ `2 |R|` (inverse-closed vocabulary).
    RelationOutOfRange {
        /// Offending relation id.
        r: usize,
        /// Relation vocabulary size including inverses.
        num_rels_with_inverse: usize,
    },
    /// Query time past the dataset horizon (`t > |T|`; `t = |T|` is the
    /// one-step-ahead forecast over the full history).
    TimeBeyondHorizon {
        /// Offending timestamp.
        t: usize,
        /// Number of snapshots in the dataset.
        horizon: usize,
    },
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Self::SubjectOutOfRange { s, num_entities } => {
                write!(f, "subject out of range: id {s} >= |E| = {num_entities}")
            }
            Self::RelationOutOfRange {
                r,
                num_rels_with_inverse,
            } => write!(
                f,
                "relation out of range: id {r} >= 2|R| = {num_rels_with_inverse}"
            ),
            Self::TimeBeyondHorizon { t, horizon } => {
                write!(f, "time beyond dataset horizon: t = {t} > |T| = {horizon}")
            }
        }
    }
}

impl std::error::Error for PredictError {}

/// Checks that `(s, r, ?, t)` is answerable against `ds`'s vocabulary and
/// horizon. The serving layer calls this before queueing work so a
/// malformed request can never reach (and panic) the model.
pub fn validate_query(ds: &TkgDataset, s: usize, r: usize, t: usize) -> Result<(), PredictError> {
    if s >= ds.num_entities {
        return Err(PredictError::SubjectOutOfRange {
            s,
            num_entities: ds.num_entities,
        });
    }
    if r >= ds.num_rels_with_inverse() {
        return Err(PredictError::RelationOutOfRange {
            r,
            num_rels_with_inverse: ds.num_rels_with_inverse(),
        });
    }
    if t > ds.num_times {
        return Err(PredictError::TimeBeyondHorizon {
            t,
            horizon: ds.num_times,
        });
    }
    Ok(())
}

/// Turns one `|E|`-long score vector into named top-`k` predictions with
/// softmax probabilities. Shared by [`predict_topk`] and the serving layer
/// so batched responses are bit-identical to single-query ones: a single
/// node is shard 0 of 1, so this is [`topk_in_range`] over the whole
/// vocabulary — one comparator and one softmax for every path.
pub fn topk_from_scores(ds: &TkgDataset, scores: &[f32], k: usize) -> Vec<Prediction> {
    topk_in_range(ds, scores, 0, k).0
}

/// Named top-`k` of the score slice of one contiguous entity range
/// (`scores[i]` is the logit of entity `lo + i`), ranked by
/// [`crate::shard::rank_order`], with softmax probabilities over that range
/// and the [`SoftmaxStat`] they came from — what a scatter-gather merger
/// needs to recombine probabilities over the union of ranges.
pub fn topk_in_range(
    ds: &TkgDataset,
    scores: &[f32],
    lo: usize,
    k: usize,
) -> (Vec<Prediction>, SoftmaxStat) {
    let stat = SoftmaxStat::from_scores(scores);
    let predictions = shard_topk(scores, lo, k)
        .into_iter()
        .map(|c| Prediction {
            entity: c.entity,
            name: ds.entity_name(c.entity),
            probability: stat.probability(c.score),
            score: c.score,
        })
        .collect();
    (predictions, stat)
}

/// Asks `model` the query `(s, r, ?, t)` and returns the top-`k` candidate
/// objects with softmax probabilities, like the paper's case-study tables.
/// Malformed queries come back as [`PredictError`] — this module has no
/// panicking path.
pub fn predict_topk(
    model: &mut dyn TkgModel,
    ds: &TkgDataset,
    s: usize,
    r: usize,
    t: usize,
    k: usize,
) -> Result<Vec<Prediction>, PredictError> {
    validate_query(ds, s, r, t)?;
    let snapshots = ds.snapshots();
    let history = HistoryIndex::build(&snapshots);
    let ctx = EvalContext {
        ds,
        snapshots: &snapshots,
        history: &history,
        t,
    };
    // Scoring is never differentiated: no graph is recorded, whatever the
    // model (CyGNet and RE-GCN score through taped ops).
    let query = Quad::new(s, r, 0, t); // object unused for scoring
    let scores = no_grad(|| model.score(&ctx, &[query])).remove(0);
    Ok(topk_from_scores(ds, &scores, k))
}

/// The streaming counterpart of [`predict_topk`] for the one-step forecast
/// `(s, r, ?, |T|)`: builds a fresh [`crate::local_encoder::EncoderState`]
/// over the full history and answers from it, exactly as the serving head
/// path does from its incrementally maintained state. Because a rebuilt
/// state is bit-identical to an incrementally advanced one, this function
/// is the from-scratch reference the serving integration tests pin
/// `/predict`-at-the-horizon against.
pub fn predict_topk_stream(
    model: &mut LogCl,
    ds: &TkgDataset,
    s: usize,
    r: usize,
    k: usize,
) -> Result<Vec<Prediction>, PredictError> {
    validate_query(ds, s, r, ds.num_times)?;
    let snapshots = ds.snapshots();
    let state = model.init_encoder_state(&snapshots);
    let history = HistoryIndex::build(&snapshots);
    let shared = model.shared_from_state(&state);
    let query = Quad::new(s, r, 0, ds.num_times); // object unused for scoring
    let out = model.forward_queries(&shared, &history, &[query], false);
    let scores = out.logits.to_tensor().row(0).to_vec();
    Ok(topk_from_scores(ds, &scores, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::test_support::{ConstModel, TapeFreeModel};
    use logcl_tkg::SyntheticPreset;

    #[test]
    fn topk_scores_without_a_tape() {
        let ds = SyntheticPreset::Icews14.generate_scaled(0.15);
        let mut model = TapeFreeModel(ConstModel {
            favourite: 3,
            calls: 0,
        });
        let preds = predict_topk(&mut model, &ds, 0, 0, ds.test[0].t, 3).unwrap();
        assert_eq!(preds[0].entity, 3);
    }

    #[test]
    fn topk_is_sorted_and_probabilistic() {
        let ds = SyntheticPreset::Icews14.generate_scaled(0.15);
        let mut model = ConstModel {
            favourite: 3,
            calls: 0,
        };
        let t = ds.test[0].t;
        let preds = predict_topk(&mut model, &ds, 0, 0, t, 5).unwrap();
        assert_eq!(preds.len(), 5);
        assert_eq!(preds[0].entity, 3, "favourite entity must rank first");
        assert!(preds
            .windows(2)
            .all(|w| w[0].probability >= w[1].probability));
        let total: f32 = preds.iter().map(|p| p.probability).sum();
        assert!(total <= 1.0 + 1e-5);
        assert!(!preds[0].name.is_empty());
    }

    #[test]
    fn reports_errors_instead_of_panicking() {
        let ds = SyntheticPreset::Icews14.generate_scaled(0.15);
        let mut model = ConstModel {
            favourite: 0,
            calls: 0,
        };
        let err = predict_topk(&mut model, &ds, ds.num_entities, 0, 5, 3).unwrap_err();
        assert!(matches!(err, PredictError::SubjectOutOfRange { .. }));
        let err = predict_topk(&mut model, &ds, 0, ds.num_rels_with_inverse(), 5, 3).unwrap_err();
        assert!(matches!(err, PredictError::RelationOutOfRange { .. }));
        let err = predict_topk(&mut model, &ds, 0, 0, ds.num_times + 1, 3).unwrap_err();
        assert!(matches!(err, PredictError::TimeBeyondHorizon { .. }));
        assert_eq!(model.calls, 0, "invalid queries must never reach the model");
        // The boundary forecast t == |T| is legal.
        let preds = predict_topk(&mut model, &ds, 0, 0, ds.num_times, 3).unwrap();
        assert_eq!(preds.len(), 3);
    }

    #[test]
    fn streaming_forecast_is_deterministic_and_validated() {
        let ds = SyntheticPreset::Icews14.generate_scaled(0.15);
        let cfg = crate::config::LogClConfig {
            dim: 16,
            time_bank: 4,
            channels: 6,
            m: 3,
            ..Default::default()
        };
        let mut model = LogCl::new(&ds, cfg);
        let a = predict_topk_stream(&mut model, &ds, 0, 0, 5).unwrap();
        let b = predict_topk_stream(&mut model, &ds, 0, 0, 5).unwrap();
        assert_eq!(a, b, "state rebuild must be a pure function");
        assert_eq!(a.len(), 5);
        assert!(a.windows(2).all(|w| w[0].probability >= w[1].probability));
        let err = predict_topk_stream(&mut model, &ds, ds.num_entities, 0, 5).unwrap_err();
        assert!(matches!(err, PredictError::SubjectOutOfRange { .. }));
    }

    #[test]
    fn validate_query_messages_are_operator_readable() {
        let ds = SyntheticPreset::Icews14.generate_scaled(0.15);
        assert!(validate_query(&ds, 0, 0, 0).is_ok());
        let msg = validate_query(&ds, ds.num_entities + 1, 0, 0)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("subject out of range"), "{msg}");
    }
}
