//! Offline training with two-phase forward propagation (Algorithm 1) and
//! the online-update protocol of Fig. 10 — now crash-safe: the loop writes
//! durable checkpoints under a [`CheckpointPolicy`], resumes from them
//! bit-identically, and heals transient divergence by rolling back to the
//! last good epoch with a halved learning rate.

use logcl_tensor::optim::{clip_grad_norm, Adam};
use logcl_tensor::serialize::{self, Checkpoint};
use logcl_tkg::eval::Metrics;
use logcl_tkg::quad::Quad;
use logcl_tkg::{HistoryIndex, TkgDataset};

use crate::api::{evaluate_with_phase, EvalContext, Phase, TkgModel, TrainOptions};
use crate::checkpoint::{RollbackEvent, TrainCheckpoint, TrainError, ValidPoint};
use crate::model::LogCl;

/// Per-epoch training diagnostics.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Mean per-timestamp loss of each epoch.
    pub epoch_losses: Vec<f32>,
    /// Validation MRR trace (epoch index, MRR) when selection ran.
    pub valid_trace: Vec<(usize, f64)>,
    /// The epoch whose parameters were kept.
    pub selected_epoch: Option<usize>,
    /// Divergence incidents the sentinel healed (rollback + LR halving).
    pub rollbacks: Vec<RollbackEvent>,
    /// Epoch the run continued from, when it was resumed.
    pub resumed_at_epoch: Option<usize>,
    /// Set when the `halt_after_epoch` test hook cut the run short.
    pub halted_at_epoch: Option<usize>,
}

impl TrainReport {
    /// Final epoch's loss (`NaN` when no training happened).
    pub fn final_loss(&self) -> f32 {
        self.epoch_losses.last().copied().unwrap_or(f32::NAN)
    }
}

/// Groups quads by timestamp into a dense `Vec` of length `num_times`.
fn group_by_time(quads: &[Quad], num_times: usize) -> Vec<Vec<Quad>> {
    let mut by_t: Vec<Vec<Quad>> = vec![Vec::new(); num_times];
    for q in quads {
        by_t[q.t].push(*q);
    }
    by_t
}

/// In-memory snapshot of everything the sentinel needs to rewind a
/// diverged epoch: parameters, optimizer moments, RNG stream.
struct GoodState {
    params: Checkpoint,
    opt: logcl_tensor::optim::AdamState,
    rng: logcl_tensor::rng::RngState,
}

impl GoodState {
    fn capture(model: &LogCl, opt: &Adam) -> Self {
        Self {
            params: serialize::snapshot(&model.params),
            opt: opt.export_state(),
            rng: model.rng_state(),
        }
    }

    fn restore_into(&self, model: &mut LogCl, opt: &mut Adam) -> Result<(), TrainError> {
        serialize::restore(&model.params, &self.params)?;
        opt.import_state(&self.opt)?;
        model.restore_rng_state(self.rng);
        Ok(())
    }
}

/// What one pass over the training timeline produced.
enum EpochOutcome {
    /// Mean loss over non-empty batches.
    Completed(f32),
    /// The sentinel tripped: (timestamp, cause).
    Diverged(usize, String),
}

/// Trains `model` on `ds.train` for `opts.epochs` passes.
///
/// Each timestamp is one batch (the paper's batching). Per timestamp the
/// query-independent encodings are computed once and the two propagation
/// phases (original queries, then inverse queries) are run on top of them —
/// the separation that prevents the entity-aware attention from perceiving
/// the answer entities (Section III-F).
///
/// With `opts.checkpoint` set, the complete training state (parameters,
/// Adam moments, RNG, epoch cursor, selection state) is persisted
/// atomically so `opts.resume` can continue an interrupted run to
/// bit-identical final metrics. Non-finite losses and exploding gradients
/// trip a sentinel that rewinds to the last completed epoch, halves the
/// learning rate and retries, up to `opts.max_rollbacks` times.
pub fn train(
    model: &mut LogCl,
    ds: &TkgDataset,
    opts: &TrainOptions,
) -> Result<TrainReport, TrainError> {
    let snapshots = ds.snapshots();
    let train_end = ds.train_end_time();
    let by_time = group_by_time(&ds.train, ds.num_times);
    let mut opt = Adam::new(&model.params, opts.lr);
    let mut report = TrainReport::default();
    let mut best_valid: Option<f64> = None;
    let mut best_ckpt: Option<Checkpoint> = None;
    let mut start_epoch = 0usize;
    let mut rollbacks_used = 0usize;

    if let Some(path) = &opts.resume {
        let ck = TrainCheckpoint::load(path)?;
        ck.model
            .validate_meta(&model.cfg.variant_name(), &model.cfg.fingerprint())?;
        if ck.total_epochs != opts.epochs {
            return Err(TrainError::Resume(format!(
                "checkpoint belongs to a {}-epoch run but this run asks for {} \
                 (the validation-selection schedule depends on the total; \
                 pass the original epoch count)",
                ck.total_epochs, opts.epochs
            )));
        }
        if ck.next_epoch > opts.epochs {
            return Err(TrainError::Resume(format!(
                "checkpoint already completed {} of {} epochs",
                ck.next_epoch, opts.epochs
            )));
        }
        serialize::restore(&model.params, &ck.model)?;
        opt.import_state(&ck.optimizer)?;
        model.restore_rng_state(ck.rng);
        start_epoch = ck.next_epoch;
        report.epoch_losses = ck.epoch_losses;
        report.valid_trace = ck.valid_trace.iter().map(|p| (p.epoch, p.mrr)).collect();
        report.selected_epoch = ck.selected_epoch;
        report.rollbacks = ck.rollback_events;
        report.resumed_at_epoch = Some(start_epoch);
        best_valid = ck.best_valid;
        best_ckpt = ck.best_params;
        rollbacks_used = ck.rollbacks_used;
        if opts.verbose {
            eprintln!(
                "[{}] resumed from {} at epoch {start_epoch}/{}",
                model.name(),
                path.display(),
                opts.epochs
            );
        }
    }

    let mut good = GoodState::capture(model, &opt);
    let mut nan_injected = false;
    let history = HistoryIndex::build(&snapshots);

    let mut epoch = start_epoch;
    while epoch < opts.epochs {
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        let mut outcome = None;
        for (t, quads) in by_time.iter().enumerate().take(train_end) {
            if !quads.is_empty() {
                let shared = model.encode(&snapshots, t, true);

                // Phase 1: original query set.
                let out1 = model.forward_queries(&shared, &history, quads, true);
                let targets1: Vec<usize> = quads.iter().map(|q| q.o).collect();
                let mut loss = out1.logits.cross_entropy(&targets1);
                if let Some(cl) = out1.contrast {
                    loss = loss.add(&cl);
                }

                // Phase 2: inverse query set.
                let inv: Vec<Quad> = quads.iter().map(|q| q.inverse(ds.num_rels)).collect();
                let out2 = model.forward_queries(&shared, &history, &inv, true);
                let targets2: Vec<usize> = inv.iter().map(|q| q.o).collect();
                let mut loss2 = out2.logits.cross_entropy(&targets2);
                if let Some(cl) = out2.contrast {
                    loss2 = loss2.add(&cl);
                }

                let total = loss.add(&loss2);
                let mut loss_val = total.item();
                if opts.inject_nan_loss_at_epoch == Some(epoch) && !nan_injected {
                    nan_injected = true;
                    loss_val = f32::NAN;
                }
                if !loss_val.is_finite() {
                    model.params.zero_grad();
                    outcome = Some(EpochOutcome::Diverged(
                        t,
                        format!("non-finite loss {loss_val}"),
                    ));
                    break;
                }
                total.backward();
                let norm = clip_grad_norm(&model.params.vars(), opts.grad_clip);
                if !norm.is_finite() || norm > opts.divergence_grad_limit {
                    model.params.zero_grad();
                    outcome = Some(EpochOutcome::Diverged(
                        t,
                        format!(
                            "gradient norm {norm:.3e} breached limit {:.3e}",
                            opts.divergence_grad_limit
                        ),
                    ));
                    break;
                }
                opt.step();
                epoch_loss += loss_val as f64;
                batches += 1;
            }
        }
        let outcome = outcome.unwrap_or_else(|| {
            EpochOutcome::Completed(if batches > 0 {
                (epoch_loss / batches as f64) as f32
            } else {
                0.0
            })
        });

        match outcome {
            EpochOutcome::Diverged(t, reason) => {
                rollbacks_used += 1;
                if rollbacks_used > opts.max_rollbacks {
                    return Err(TrainError::Diverged {
                        epoch,
                        rollbacks: rollbacks_used - 1,
                        reason,
                    });
                }
                let lr_before = opt.lr();
                good.restore_into(model, &mut opt)?;
                let lr_after = lr_before * 0.5;
                opt.set_lr(lr_after);
                if opts.verbose {
                    eprintln!(
                        "[{}] epoch {epoch}: DIVERGED at t={t} ({reason}); \
                         rolled back, lr {lr_before:.2e} -> {lr_after:.2e} \
                         (retry {rollbacks_used}/{})",
                        model.name(),
                        opts.max_rollbacks
                    );
                }
                report.rollbacks.push(RollbackEvent {
                    epoch,
                    timestamp: t,
                    reason,
                    lr_before,
                    lr_after,
                });
                continue; // retry the same epoch from the rewound state
            }
            EpochOutcome::Completed(mean) => {
                report.epoch_losses.push(mean);
                if opts.verbose {
                    eprintln!("[{}] epoch {epoch}: loss {mean:.4}", model.name());
                }
            }
        }

        // Validation-MRR model selection (the paper's protocol): from the
        // midpoint of training, checkpoint whenever the valid score
        // improves, and restore the best checkpoint at the end.
        let mut improved = false;
        if opts.select_on_valid
            && !ds.valid.is_empty()
            && (epoch + 1) * 2 > opts.epochs
            && (epoch % 2 == 1 || epoch + 1 == opts.epochs)
        {
            let valid = ds.valid.clone();
            let m = crate::api::evaluate(model, ds, &valid);
            report.valid_trace.push((epoch, m.mrr));
            improved = best_valid.is_none_or(|b| m.mrr > b);
            if improved {
                best_valid = Some(m.mrr);
                best_ckpt = Some(serialize::snapshot(&model.params));
                report.selected_epoch = Some(epoch);
            }
            if opts.verbose {
                eprintln!("[{}] epoch {epoch}: valid {m}", model.name());
            }
        }

        good = GoodState::capture(model, &opt);

        if let Some(policy) = &opts.checkpoint {
            let cadence_due = policy.every_epochs > 0
                && (epoch + 1 - start_epoch).is_multiple_of(policy.every_epochs);
            let best_due = policy.on_best_valid && improved;
            let last_epoch = epoch + 1 == opts.epochs;
            if cadence_due || best_due || last_epoch {
                let ck = TrainCheckpoint {
                    model: serialize::snapshot_with_meta(
                        &model.params,
                        &model.cfg.variant_name(),
                        &model.cfg.fingerprint(),
                    ),
                    optimizer: opt.export_state(),
                    rng: model.rng_state(),
                    next_epoch: epoch + 1,
                    total_epochs: opts.epochs,
                    epoch_losses: report.epoch_losses.clone(),
                    valid_trace: report
                        .valid_trace
                        .iter()
                        .map(|&(epoch, mrr)| ValidPoint { epoch, mrr })
                        .collect(),
                    selected_epoch: report.selected_epoch,
                    best_valid,
                    best_params: best_ckpt.clone(),
                    rollbacks_used,
                    rollback_events: report.rollbacks.clone(),
                };
                ck.save(&policy.path)?;
                if opts.verbose {
                    eprintln!(
                        "[{}] epoch {epoch}: checkpoint -> {}",
                        model.name(),
                        policy.path.display()
                    );
                }
            }
        }

        if opts.halt_after_epoch == Some(epoch) {
            // SIGKILL stand-in for the crash/resume test: stop immediately,
            // skipping even the best-checkpoint restore a clean run does.
            report.halted_at_epoch = Some(epoch);
            return Ok(report);
        }

        epoch += 1;
    }

    if let Some(ckpt) = best_ckpt {
        serialize::restore(&model.params, &ckpt)?;
    }
    // Keep an optimizer around for online updates at a reduced rate.
    model.opt = Some(Adam::new(&model.params, opts.lr * 0.5));
    model.opt_options = opts.clone();
    Ok(report)
}

/// Bounds for one online fine-tuning loop over a closed snapshot's facts.
#[derive(Debug, Clone)]
pub struct OnlineAdaptOptions {
    /// Maximum gradient steps per closed snapshot.
    pub max_steps: usize,
    /// Loss guard: a step whose loss is non-finite or exceeds
    /// `loss_guard ×` the first finite loss rolls the whole loop back to
    /// its pre-adaptation state (parameters, optimizer moments, RNG) and
    /// stops — serving never keeps a diverged update.
    pub loss_guard: f32,
    /// Test hook: report a `NaN` loss at this step to exercise the
    /// rollback path deterministically.
    pub inject_nan_at_step: Option<usize>,
}

impl Default for OnlineAdaptOptions {
    fn default() -> Self {
        Self {
            max_steps: 1,
            loss_guard: 10.0,
            inject_nan_at_step: None,
        }
    }
}

/// What one online adaptation loop did.
#[derive(Debug, Clone, Default)]
pub struct OnlineAdaptReport {
    /// Gradient steps actually applied (a rolled-back step counts zero).
    pub steps: usize,
    /// Loss of the first step, when one ran.
    pub first_loss: Option<f32>,
    /// Loss of the last completed step.
    pub last_loss: Option<f32>,
    /// Whether the loss guard tripped and the model was restored to its
    /// pre-adaptation state.
    pub rolled_back: bool,
}

/// Bounded online fine-tuning on the ground-truth facts of one closed
/// snapshot (the Fig. 10 protocol grown into a serving-safe loop): at most
/// `opts.max_steps` two-phase gradient steps, guarded by the PR 2
/// rollback machinery — the complete pre-adaptation state is captured up
/// front and restored wholesale if any step's loss is non-finite or
/// explodes past the guard.
pub fn online_adapt(
    model: &mut LogCl,
    ctx: &EvalContext<'_>,
    quads: &[Quad],
    opts: &OnlineAdaptOptions,
) -> OnlineAdaptReport {
    let mut report = OnlineAdaptReport::default();
    if quads.is_empty() || opts.max_steps == 0 {
        return report;
    }
    let mut opt = model
        .opt
        .take()
        .unwrap_or_else(|| Adam::new(&model.params, model.opt_options.lr * 0.5));
    let good = GoodState::capture(model, &opt);
    let clip = model.opt_options.grad_clip;
    let inv: Vec<Quad> = quads.iter().map(|q| q.inverse(ctx.ds.num_rels)).collect();
    let targets1: Vec<usize> = quads.iter().map(|q| q.o).collect();
    let targets2: Vec<usize> = inv.iter().map(|q| q.o).collect();

    for step in 0..opts.max_steps {
        let shared = model.encode(ctx.snapshots, ctx.t, true);
        let out1 = model.forward_queries(&shared, ctx.history, quads, true);
        let mut loss = out1.logits.cross_entropy(&targets1);
        if let Some(cl) = out1.contrast {
            loss = loss.add(&cl);
        }
        let out2 = model.forward_queries(&shared, ctx.history, &inv, true);
        let mut loss2 = out2.logits.cross_entropy(&targets2);
        if let Some(cl) = out2.contrast {
            loss2 = loss2.add(&cl);
        }
        let total = loss.add(&loss2);
        let mut loss_val = total.item();
        if opts.inject_nan_at_step == Some(step) {
            loss_val = f32::NAN;
        }
        let guard_tripped = !loss_val.is_finite()
            || report
                .first_loss
                .is_some_and(|first| loss_val > opts.loss_guard * first.abs());
        if guard_tripped {
            model.params.zero_grad();
            // Restore cannot fail: the capture was taken from this very
            // model moments ago, so names and shapes match.
            let restored = good.restore_into(model, &mut opt);
            #[expect(clippy::expect_used, reason = "infallible by construction")]
            restored.expect("restoring a same-process capture");
            report.rolled_back = true;
            report.steps = 0;
            report.last_loss = None;
            break;
        }
        total.backward();
        opt.clip_and_step(clip);
        report.steps += 1;
        report.first_loss.get_or_insert(loss_val);
        report.last_loss = Some(loss_val);
    }

    model.opt = Some(opt);
    report
}

/// One online gradient step on the ground-truth facts of the timestamp just
/// evaluated (the Fig. 10 protocol): the model adapts to emerging facts
/// before moving to the next timestamp. Delegates to [`online_adapt`] with
/// a single unguarded step (non-finite losses still roll back).
pub fn online_step(model: &mut LogCl, ctx: &EvalContext<'_>, quads: &[Quad]) {
    online_adapt(
        model,
        ctx,
        quads,
        &OnlineAdaptOptions {
            max_steps: 1,
            loss_guard: f32::INFINITY,
            inject_nan_at_step: None,
        },
    );
}

/// Evaluates under the online setting (Fig. 10): after scoring each test
/// timestamp, the model takes one adaptation step on its ground truth.
pub fn evaluate_online(model: &mut dyn TkgModel, ds: &TkgDataset, quads: &[Quad]) -> Metrics {
    evaluate_with_phase(model, ds, quads, Phase::Both, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::evaluate;
    use crate::checkpoint::CheckpointPolicy;
    use crate::config::LogClConfig;
    use logcl_tkg::SyntheticPreset;

    fn tiny() -> (TkgDataset, LogCl) {
        let ds = SyntheticPreset::Icews14.generate_scaled(0.15);
        let cfg = LogClConfig {
            dim: 16,
            time_bank: 4,
            channels: 6,
            m: 3,
            ..Default::default()
        };
        let model = LogCl::new(&ds, cfg);
        (ds, model)
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let (ds, mut model) = tiny();
        let report = train(&mut model, &ds, &TrainOptions::epochs(3)).unwrap();
        assert_eq!(report.epoch_losses.len(), 3);
        assert!(
            report.epoch_losses[2] < report.epoch_losses[0],
            "losses {:?}",
            report.epoch_losses
        );
    }

    #[test]
    fn trained_model_beats_untrained() {
        let (ds, mut trained) = tiny();
        train(&mut trained, &ds, &TrainOptions::epochs(4)).unwrap();
        let (_, mut fresh) = tiny();
        let test = ds.test.clone();
        let m_trained = evaluate(&mut trained, &ds, &test);
        let m_fresh = evaluate(&mut fresh, &ds, &test);
        assert!(
            m_trained.mrr > m_fresh.mrr + 1.0,
            "trained {} vs fresh {}",
            m_trained.mrr,
            m_fresh.mrr
        );
    }

    #[test]
    fn online_evaluation_runs_and_is_finite() {
        let (ds, mut model) = tiny();
        train(&mut model, &ds, &TrainOptions::epochs(2)).unwrap();
        let test = ds.test.clone();
        let m = evaluate_online(&mut model, &ds, &test);
        assert!(m.mrr > 0.0 && m.mrr <= 100.0);
        assert_eq!(m.count, 2 * test.len());
    }

    #[test]
    fn valid_selection_keeps_best_checkpoint() {
        let (ds, mut model) = tiny();
        let mut opts = TrainOptions::epochs(6);
        opts.select_on_valid = true;
        let report = train(&mut model, &ds, &opts).unwrap();
        // Selection only scans the second half of training.
        assert!(
            !report.valid_trace.is_empty(),
            "valid trace must be recorded"
        );
        let selected = report.selected_epoch.expect("an epoch must be selected");
        assert!((selected + 1) * 2 > opts.epochs);
        // The selected epoch is the argmax of the trace.
        let best =
            report
                .valid_trace
                .iter()
                .cloned()
                .fold((0usize, f64::NEG_INFINITY), |acc, (e, m)| {
                    if m > acc.1 {
                        (e, m)
                    } else {
                        acc
                    }
                });
        assert_eq!(selected, best.0);
    }

    #[test]
    fn selection_off_keeps_last_epoch() {
        let (ds, mut model) = tiny();
        let mut opts = TrainOptions::epochs(3);
        opts.select_on_valid = false;
        let report = train(&mut model, &ds, &opts).unwrap();
        assert!(report.valid_trace.is_empty());
        assert!(report.selected_epoch.is_none());
    }

    /// An injected NaN loss must not abort training: the sentinel rewinds
    /// to the last good epoch, halves the LR, records the incident, and
    /// the run still finishes all its epochs.
    #[test]
    fn divergence_rolls_back_and_heals() {
        let (ds, mut model) = tiny();
        let mut opts = TrainOptions::epochs(3);
        opts.select_on_valid = false;
        opts.inject_nan_loss_at_epoch = Some(1);
        let report = train(&mut model, &ds, &opts).unwrap();
        assert_eq!(report.epoch_losses.len(), 3, "all epochs must complete");
        assert_eq!(report.rollbacks.len(), 1);
        let ev = &report.rollbacks[0];
        assert_eq!(ev.epoch, 1);
        assert!(ev.reason.contains("non-finite"), "{}", ev.reason);
        assert!((ev.lr_after - ev.lr_before * 0.5).abs() < 1e-12);
        assert!(report.final_loss().is_finite());
    }

    /// When every retry diverges, training must stop with a typed error —
    /// not loop forever, not abort the process.
    #[test]
    fn divergence_budget_is_bounded() {
        let (ds, mut model) = tiny();
        let mut opts = TrainOptions::epochs(2);
        opts.select_on_valid = false;
        opts.max_rollbacks = 2;
        // A zero grad-norm limit trips the sentinel on every batch.
        opts.divergence_grad_limit = 0.0;
        match train(&mut model, &ds, &opts) {
            Err(TrainError::Diverged { rollbacks, .. }) => assert_eq!(rollbacks, 2),
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_policy_writes_resumable_file() {
        let dir = std::env::temp_dir().join("logcl-trainer-ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("policy.ckpt");
        let (ds, mut model) = tiny();
        let mut opts = TrainOptions::epochs(4);
        opts.select_on_valid = false;
        opts.checkpoint = Some(CheckpointPolicy::new(&path, 2));
        train(&mut model, &ds, &opts).unwrap();
        let ck = TrainCheckpoint::load(&path).unwrap();
        assert_eq!(ck.next_epoch, 4);
        assert_eq!(ck.total_epochs, 4);
        assert_eq!(ck.epoch_losses.len(), 4);
        ck.model
            .validate_meta(&model.cfg.variant_name(), &model.cfg.fingerprint())
            .unwrap();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn resume_with_wrong_epoch_count_is_rejected() {
        let dir = std::env::temp_dir().join("logcl-trainer-resume-guard");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("guard.ckpt");
        let (ds, mut model) = tiny();
        let mut opts = TrainOptions::epochs(2);
        opts.select_on_valid = false;
        opts.checkpoint = Some(CheckpointPolicy::new(&path, 1));
        train(&mut model, &ds, &opts).unwrap();
        let (_, mut resumed) = tiny();
        let mut opts2 = TrainOptions::epochs(5);
        opts2.select_on_valid = false;
        opts2.resume = Some(path.clone());
        match train(&mut resumed, &ds, &opts2) {
            Err(TrainError::Resume(msg)) => assert!(msg.contains("epoch"), "{msg}"),
            other => panic!("expected Resume error, got {other:?}"),
        }
        std::fs::remove_file(path).ok();
    }

    fn online_ctx(ds: &TkgDataset) -> (Vec<logcl_tkg::Snapshot>, HistoryIndex, usize) {
        let snapshots = ds.snapshots();
        let t = ds.num_times;
        let history = HistoryIndex::build(&snapshots);
        (snapshots, history, t)
    }

    #[test]
    fn online_adapt_is_bounded_and_reduces_loss() {
        let (ds, mut model) = tiny();
        train(&mut model, &ds, &TrainOptions::epochs(1)).unwrap();
        let (snapshots, history, t) = online_ctx(&ds);
        let ctx = EvalContext {
            ds: &ds,
            snapshots: &snapshots,
            history: &history,
            t,
        };
        let quads: Vec<Quad> = ds.test.iter().take(6).copied().collect();
        let opts = OnlineAdaptOptions {
            max_steps: 4,
            ..Default::default()
        };
        let report = online_adapt(&mut model, &ctx, &quads, &opts);
        assert_eq!(report.steps, 4);
        assert!(!report.rolled_back);
        let (first, last) = (report.first_loss.unwrap(), report.last_loss.unwrap());
        assert!(
            last < first,
            "repeated steps must reduce loss: {first} -> {last}"
        );
        // Empty facts and a zero budget are both no-ops.
        let none = online_adapt(&mut model, &ctx, &[], &opts);
        assert_eq!(none.steps, 0);
        let zero = online_adapt(
            &mut model,
            &ctx,
            &quads,
            &OnlineAdaptOptions {
                max_steps: 0,
                ..Default::default()
            },
        );
        assert_eq!(zero.steps, 0);
    }

    /// An injected NaN mid-loop must restore the exact pre-adaptation
    /// parameters — the serving stack relies on a rolled-back update being
    /// indistinguishable from no update.
    #[test]
    fn online_divergence_rolls_back_to_bitwise_pre_state() {
        let (ds, mut model) = tiny();
        train(&mut model, &ds, &TrainOptions::epochs(1)).unwrap();
        let (snapshots, history, t) = online_ctx(&ds);
        let ctx = EvalContext {
            ds: &ds,
            snapshots: &snapshots,
            history: &history,
            t,
        };
        let quads: Vec<Quad> = ds.test.iter().take(6).copied().collect();
        let before = serialize::snapshot(&model.params);
        let rng_before = model.rng_state();
        let report = online_adapt(
            &mut model,
            &ctx,
            &quads,
            &OnlineAdaptOptions {
                max_steps: 3,
                inject_nan_at_step: Some(1),
                ..Default::default()
            },
        );
        assert!(report.rolled_back);
        assert_eq!(report.steps, 0);
        let after = serialize::snapshot(&model.params);
        assert_eq!(
            serde_json::to_string(&before).unwrap(),
            serde_json::to_string(&after).unwrap(),
            "rollback must restore parameters bit-for-bit"
        );
        assert_eq!(model.rng_state(), rng_before);
    }

    #[test]
    fn group_by_time_is_dense() {
        let quads = vec![Quad::new(0, 0, 1, 2), Quad::new(1, 0, 0, 2)];
        let g = group_by_time(&quads, 4);
        assert_eq!(g.len(), 4);
        assert_eq!(g[2].len(), 2);
        assert!(g[0].is_empty() && g[3].is_empty());
    }
}
