//! The model interface and the shared evaluation driver.
//!
//! Every model in the reproduction — LogCL, its ablations and all baselines —
//! implements [`TkgModel`], so one driver produces every table's metrics
//! under identical two-phase, time-aware-filtered conditions.

use std::collections::BTreeSet;
use std::path::PathBuf;

use logcl_tensor::autograd::no_grad;
use logcl_tkg::eval::{rank_time_aware, Metrics, RankAccumulator};
use logcl_tkg::quad::{Quad, Time};
use logcl_tkg::{HistoryIndex, Snapshot, TkgDataset};

use crate::checkpoint::{CheckpointPolicy, TrainError};
use crate::trainer::TrainReport;

/// Everything a model may condition on when scoring queries at time `t`:
/// the full snapshot sequence (the model must only read `snapshots[..t]`),
/// and the history index, which the model reads as `history.as_of(t)`.
pub struct EvalContext<'a> {
    /// The dataset (vocabulary sizes, names).
    pub ds: &'a TkgDataset,
    /// All snapshots (inverse-closed); **only `[..t]` may be read**.
    pub snapshots: &'a [Snapshot],
    /// Global history; may cover facts at or after `t`, so every read goes
    /// through `history.as_of(t)`.
    pub history: &'a HistoryIndex,
    /// The query timestamp.
    pub t: Time,
}

/// Training options shared across models.
#[derive(Debug, Clone)]
pub struct TrainOptions {
    /// Number of passes over the training timeline.
    pub epochs: usize,
    /// Learning rate (paper: 1e-3 with Adam).
    pub lr: f32,
    /// Global-norm gradient clip.
    pub grad_clip: f32,
    /// Print per-epoch losses.
    pub verbose: bool,
    /// Keep the checkpoint with the best validation MRR (evaluated over the
    /// second half of training) instead of the last epoch's parameters.
    pub select_on_valid: bool,
    /// Durable checkpointing policy (`None`: train purely in memory).
    pub checkpoint: Option<CheckpointPolicy>,
    /// Resume from a checkpoint file written by an earlier (interrupted)
    /// run of the same configuration.
    pub resume: Option<PathBuf>,
    /// Divergence-sentinel budget: how many rollback-and-halve-LR retries
    /// are allowed before training gives up with [`TrainError::Diverged`].
    pub max_rollbacks: usize,
    /// Pre-clip gradient norms above this trip the divergence sentinel
    /// (non-finite losses and gradients always trip it).
    pub divergence_grad_limit: f32,
    /// Test hook: report a `NaN` loss once, on the first batch of this
    /// epoch, to exercise the rollback path deterministically.
    pub inject_nan_loss_at_epoch: Option<usize>,
    /// Test hook: stop training (as a crash would) right after this
    /// epoch's checkpoint is written; `epochs` still governs the
    /// validation-selection cadence so a resumed run matches an
    /// uninterrupted one bit-for-bit.
    pub halt_after_epoch: Option<usize>,
}

impl Default for TrainOptions {
    fn default() -> Self {
        Self {
            epochs: 12,
            lr: 1e-3,
            grad_clip: 5.0,
            verbose: false,
            select_on_valid: true,
            checkpoint: None,
            resume: None,
            max_rollbacks: 3,
            divergence_grad_limit: 1e4,
            inject_nan_loss_at_epoch: None,
            halt_after_epoch: None,
        }
    }
}

impl TrainOptions {
    /// Quiet options with a given number of epochs.
    pub fn epochs(n: usize) -> Self {
        Self {
            epochs: n,
            ..Self::default()
        }
    }
}

/// A temporal-KG extrapolation model.
pub trait TkgModel {
    /// Display name for tables.
    fn name(&self) -> String;

    /// Trains on the dataset's training split. Errors are reserved for
    /// unrecoverable conditions (checkpoint I/O failure, divergence after
    /// the rollback budget); models without durable state can simply
    /// return `Ok(TrainReport::default())`.
    fn fit(&mut self, ds: &TkgDataset, opts: &TrainOptions) -> Result<TrainReport, TrainError>;

    /// Scores every candidate object for each query (one `|E|`-long score
    /// vector per query). Queries may be inverse-direction; the model sees
    /// relation ids in `0..2|R|`.
    fn score(&mut self, ctx: &EvalContext<'_>, queries: &[Quad]) -> Vec<Vec<f32>>;

    /// Online adaptation on the ground-truth facts of the just-evaluated
    /// timestamp (Fig. 10). Default: no-op (offline models).
    fn online_update(&mut self, _ctx: &EvalContext<'_>, _quads: &[Quad]) {}
}

/// Which propagation phases the evaluation runs (Table VII).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Original queries then inverse queries (the full protocol).
    Both,
    /// Original queries only (LogCL-FP).
    FirstOnly,
    /// Inverse queries only (LogCL-SP).
    SecondOnly,
}

/// Evaluates `model` on `quads` (a test or validation split of `ds`) with
/// the full two-phase protocol and time-aware filtering.
pub fn evaluate(model: &mut dyn TkgModel, ds: &TkgDataset, quads: &[Quad]) -> Metrics {
    evaluate_with_phase(model, ds, quads, Phase::Both, false)
}

/// Evaluation with explicit phase selection and optional online updates.
pub fn evaluate_with_phase(
    model: &mut dyn TkgModel,
    ds: &TkgDataset,
    quads: &[Quad],
    phase: Phase,
    online: bool,
) -> Metrics {
    let mut acc = RankAccumulator::new();
    two_phase(model, ds, quads, phase, online, |_, q, s, truth| {
        acc.push(rank_time_aware(s, q, truth));
    });
    acc.finish()
}

/// The evaluation protocol every metric shares: per timestamp of `quads`,
/// the original queries then their inverses (as `phase` selects) are scored
/// and each `(query, scores, ground truth)` is handed to `visit` with the
/// timestamp's context; then, if `online`, the model adapts on the facts.
pub(crate) fn two_phase(
    model: &mut dyn TkgModel,
    ds: &TkgDataset,
    quads: &[Quad],
    phase: Phase,
    online: bool,
    mut visit: impl FnMut(&EvalContext<'_>, &Quad, &[f32], &BTreeSet<(usize, usize, usize)>),
) {
    let snapshots = ds.snapshots();
    let times = TkgDataset::split_times(quads);
    let history = HistoryIndex::build(&snapshots);
    for &t in &times {
        let truth = ds.facts_at(t);
        let at_t: Vec<Quad> = quads.iter().filter(|q| q.t == t).copied().collect();
        let ctx = EvalContext {
            ds,
            snapshots: &snapshots,
            history: &history,
            t,
        };

        // Scoring is never differentiated, whatever the model: no graph is
        // recorded. `online_update` below trains, so it stays outside.
        if matches!(phase, Phase::Both | Phase::FirstOnly) {
            let scores = no_grad(|| model.score(&ctx, &at_t));
            assert_eq!(scores.len(), at_t.len(), "model returned wrong score count");
            for (q, s) in at_t.iter().zip(&scores) {
                assert_eq!(
                    s.len(),
                    ds.num_entities,
                    "score vector must cover all entities"
                );
                visit(&ctx, q, s, &truth);
            }
        }
        if matches!(phase, Phase::Both | Phase::SecondOnly) {
            let inv: Vec<Quad> = at_t.iter().map(|q| q.inverse(ds.num_rels)).collect();
            let scores = no_grad(|| model.score(&ctx, &inv));
            for (q, s) in inv.iter().zip(&scores) {
                visit(&ctx, q, s, &truth);
            }
        }
        if online {
            model.online_update(&ctx, &at_t);
        }
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use logcl_tensor::{Tensor, Var};
    use logcl_tkg::quad::Quad;

    /// [`ConstModel`] whose `score` fails when called with the autograd
    /// tape recording: an op on a parameter must come back a leaf.
    pub struct TapeFreeModel(pub ConstModel);

    impl TkgModel for TapeFreeModel {
        fn name(&self) -> String {
            self.0.name()
        }
        fn fit(&mut self, ds: &TkgDataset, opts: &TrainOptions) -> Result<TrainReport, TrainError> {
            self.0.fit(ds, opts)
        }
        fn score(&mut self, ctx: &EvalContext<'_>, queries: &[Quad]) -> Vec<Vec<f32>> {
            let probe = Var::param(Tensor::ones(&[1])).scale(2.0);
            assert!(
                probe.is_leaf(),
                "score ran with the autograd tape recording"
            );
            self.0.score(ctx, queries)
        }
    }

    /// A trivially scorable model: always prefers entity `favourite`.
    pub struct ConstModel {
        pub favourite: usize,
        pub calls: usize,
    }

    impl TkgModel for ConstModel {
        fn name(&self) -> String {
            "Const".into()
        }
        fn fit(
            &mut self,
            _ds: &TkgDataset,
            _opts: &TrainOptions,
        ) -> Result<TrainReport, TrainError> {
            Ok(TrainReport::default())
        }
        fn score(&mut self, ctx: &EvalContext<'_>, queries: &[Quad]) -> Vec<Vec<f32>> {
            self.calls += 1;
            queries
                .iter()
                .map(|_| {
                    let mut v = vec![0.0f32; ctx.ds.num_entities];
                    v[self.favourite] = 1.0;
                    v
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{ConstModel, TapeFreeModel};
    use super::*;

    fn toy_ds() -> TkgDataset {
        // Entity 1 is always the object; subject cycles.
        let quads: Vec<Quad> = (0..20).map(|t| Quad::new(t % 3, 0, 1, t)).collect();
        TkgDataset::from_quads("toy", 4, 1, quads)
    }

    #[test]
    fn perfect_model_scores_perfectly() {
        let ds = toy_ds();
        let mut model = ConstModel {
            favourite: 1,
            calls: 0,
        };
        // Phase 1 only: all queries have object 1.
        let m = evaluate_with_phase(&mut model, &ds, &ds.test.clone(), Phase::FirstOnly, false);
        assert_eq!(m.mrr, 100.0);
        assert_eq!(m.hits1, 100.0);
    }

    #[test]
    fn inverse_phase_asks_reverse_queries() {
        let ds = toy_ds();
        // For inverse queries the answer is the original subject (0/1/2),
        // so always guessing 1 is only sometimes right.
        let mut model = ConstModel {
            favourite: 1,
            calls: 0,
        };
        let m = evaluate_with_phase(&mut model, &ds, &ds.test.clone(), Phase::SecondOnly, false);
        assert!(m.hits1 < 100.0);
        assert!(m.count > 0);
    }

    #[test]
    fn both_phases_double_query_count() {
        let ds = toy_ds();
        let mut model = ConstModel {
            favourite: 0,
            calls: 0,
        };
        let test = ds.test.clone();
        let both = evaluate(&mut model, &ds, &test);
        let single = evaluate_with_phase(&mut model, &ds, &test, Phase::FirstOnly, false);
        assert_eq!(both.count, 2 * single.count);
    }

    #[test]
    fn every_phase_scores_without_a_tape() {
        let ds = toy_ds();
        let mut model = TapeFreeModel(ConstModel {
            favourite: 1,
            calls: 0,
        });
        let m = evaluate_with_phase(&mut model, &ds, &ds.test.clone(), Phase::Both, true);
        assert!(m.count > 0);
    }

    #[test]
    fn default_train_options_match_paper() {
        let o = TrainOptions::default();
        assert!((o.lr - 1e-3).abs() < 1e-9);
        assert!(o.epochs > 0);
    }
}
