//! Bit-exact answer checks against a twin model.
//!
//! The twin is built in this process from the same dataset and the same
//! `LogClConfig` (hence the same parameter seed) as the served model, so it
//! holds identical parameters. Served answers must equal the reference
//! functions' answers in entity order and in every score's `to_bits`.

use logcl_core::model::SharedEncoding;
use logcl_core::{predict_topk, topk_from_scores, EncoderState, LogCl, Prediction};
use logcl_tkg::{HistoryIndex, Quad, Snapshot, TkgDataset};

use crate::load::{Outcome, Query, TOP_K};
use crate::system::model_config;
use crate::BenchError;

/// A from-scratch model over one dataset, with the head state built once.
pub struct Twin {
    /// The dataset the twin answers over.
    pub ds: TkgDataset,
    /// The model; parameters equal the served model's.
    pub model: LogCl,
    /// Every snapshot of `ds`, inverse edges included.
    pub snapshots: Vec<Snapshot>,
    /// The global history vocabulary over every snapshot.
    pub history: HistoryIndex,
    /// The streaming state built from scratch over every snapshot.
    pub state: EncoderState,
    /// The head encoding read out of a freshly built streaming state.
    pub shared: SharedEncoding,
}

fn ranking(predictions: &[Prediction]) -> Vec<(usize, u32)> {
    predictions
        .iter()
        .map(|p| (p.entity, p.score.to_bits()))
        .collect()
}

impl Twin {
    /// Builds the twin: the steps of `predict_topk_stream` up to the query,
    /// done once instead of once per query.
    pub fn new(ds: &TkgDataset) -> Twin {
        let mut model = LogCl::new(ds, model_config());
        let snapshots = ds.snapshots();
        let state = model.init_encoder_state(&snapshots);
        Twin {
            ds: ds.clone(),
            history: HistoryIndex::build(&snapshots),
            shared: model.shared_from_state(&state),
            snapshots,
            state,
            model,
        }
    }

    /// Full-vocabulary head scores of `(s, r)`: the rest of
    /// `predict_topk_stream`.
    pub fn head_scores(&mut self, s: usize, r: usize) -> Vec<f32> {
        let query = Quad::new(s, r, 0, self.ds.num_times);
        let out = self
            .model
            .forward_queries(&self.shared, &self.history, &[query], false);
        out.logits.to_tensor().row(0).to_vec()
    }

    /// The reference answer to `query`: `predict_topk_stream`'s at the head,
    /// `predict_topk`'s at a historical timestamp.
    pub fn reference(&mut self, query: Query) -> Result<Vec<(usize, u32)>, BenchError> {
        let predictions = match query.t {
            None => {
                let scores = self.head_scores(query.s, query.r);
                topk_from_scores(&self.ds, &scores, TOP_K)
            }
            Some(t) => predict_topk(&mut self.model, &self.ds, query.s, query.r, t, TOP_K)?,
        };
        Ok(ranking(&predictions))
    }
}

/// `ds` with `appends[i]` added at timestamp `|T| + i` — what a server that
/// was sent exactly those head appends holds.
pub fn extended(ds: &TkgDataset, appends: &[Vec<(usize, usize, usize)>]) -> TkgDataset {
    let mut out = ds.clone();
    for facts in appends {
        let t = out.num_times;
        out.test
            .extend(facts.iter().map(|&(s, r, o)| Quad::new(s, r, o, t)));
        out.num_times = t + 1;
    }
    out
}

/// Up to `n` outcomes spread evenly over `outcomes`, cache misses first so
/// that a workload with rare misses still has its miss path checked.
pub fn sample(outcomes: &[Outcome], n: usize) -> Vec<&Outcome> {
    let answered: Vec<&Outcome> = outcomes.iter().filter(|o| o.ok()).collect();
    let (misses, hits): (Vec<&Outcome>, Vec<&Outcome>) = answered
        .into_iter()
        .partition(|o| o.answer.as_ref().is_some_and(|a| !a.cache_hit));
    let mut picked: Vec<&Outcome> = misses.into_iter().take(n / 4).collect();
    let want = n.saturating_sub(picked.len());
    if want > 0 && !hits.is_empty() {
        let step = (hits.len() / want).max(1);
        picked.extend(hits.into_iter().step_by(step).take(want));
    }
    picked
}

/// Checks `samples` against the twin; returns how many were checked.
/// The first mismatch is an error: a wrong answer fails the run.
pub fn check(twin: &mut Twin, samples: &[&Outcome]) -> Result<usize, BenchError> {
    for outcome in samples {
        let served = outcome
            .answer
            .as_ref()
            .ok_or("verification sample without an answer")?;
        let expect = twin.reference(outcome.query)?;
        if served.ranking != expect {
            return Err(format!(
                "answer to {:?} differs from the twin's:\n served {:?}\n expect {:?}",
                outcome.query, served.ranking, expect
            )
            .into());
        }
    }
    Ok(samples.len())
}
