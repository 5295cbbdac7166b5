//! Crash/resume integration test: interrupting training mid-run (the
//! SIGKILL-equivalent `halt_after_epoch` hook stops right after a durable
//! checkpoint, exactly like a kill between epochs) and resuming from the
//! checkpoint must reproduce the uninterrupted run's final loss, final
//! parameters and test MRR **bit for bit** under a fixed seed — the
//! checkpoint provably captures the complete training state.

use logcl_core::api::evaluate;
use logcl_core::checkpoint::CheckpointPolicy;
use logcl_core::config::LogClConfig;
use logcl_core::trainer::train;
use logcl_core::{LogCl, TrainOptions};
use logcl_tkg::{SyntheticPreset, TkgDataset};

const EPOCHS: usize = 6;
const HALT_AFTER: usize = 2;

fn dataset() -> TkgDataset {
    SyntheticPreset::Icews14.generate_scaled(0.15)
}

fn model(ds: &TkgDataset) -> LogCl {
    LogCl::new(
        ds,
        LogClConfig {
            dim: 16,
            time_bank: 4,
            channels: 6,
            m: 3,
            seed: 20240807,
            ..Default::default()
        },
    )
}

fn opts() -> TrainOptions {
    let mut o = TrainOptions::epochs(EPOCHS);
    o.select_on_valid = true; // exercise the valid-selection state too
    o
}

fn params_bits(model: &LogCl) -> Vec<(String, Vec<u32>)> {
    model
        .params
        .iter()
        .map(|(name, var)| {
            let t = var.to_tensor();
            (
                name.to_string(),
                t.data().iter().map(|f| f.to_bits()).collect(),
            )
        })
        .collect()
}

#[test]
fn interrupted_plus_resume_matches_uninterrupted_bit_for_bit() {
    let dir = std::env::temp_dir().join("logcl-crash-resume");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt_path = dir.join("interrupted.ckpt");

    let ds = dataset();

    // --- Reference: one uninterrupted run. --------------------------------
    let mut reference = model(&ds);
    let ref_report = train(&mut reference, &ds, &opts()).unwrap();
    let test = ds.test.clone();
    let ref_metrics = evaluate(&mut reference, &ds, &test);

    // --- Interrupted run: killed right after epoch HALT_AFTER's
    //     checkpoint hit the disk. ---------------------------------------
    let mut interrupted = model(&ds);
    let mut halt_opts = opts();
    halt_opts.checkpoint = Some(CheckpointPolicy::new(&ckpt_path, 1));
    halt_opts.halt_after_epoch = Some(HALT_AFTER);
    let halt_report = train(&mut interrupted, &ds, &halt_opts).unwrap();
    assert_eq!(halt_report.halted_at_epoch, Some(HALT_AFTER));
    assert_eq!(halt_report.epoch_losses.len(), HALT_AFTER + 1);

    // --- Resumed run: a fresh process restores everything. --------------
    let mut resumed = model(&ds);
    let mut resume_opts = opts();
    resume_opts.resume = Some(ckpt_path.clone());
    let res_report = train(&mut resumed, &ds, &resume_opts).unwrap();
    assert_eq!(res_report.resumed_at_epoch, Some(HALT_AFTER + 1));

    // Loss curve: the interrupted prefix plus the resumed run's curve is
    // exactly the reference curve (resume carries the prefix forward).
    assert_eq!(res_report.epoch_losses.len(), EPOCHS);
    for (e, (a, b)) in ref_report
        .epoch_losses
        .iter()
        .zip(&res_report.epoch_losses)
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "epoch {e} loss diverged: {a} vs {b}"
        );
    }
    assert_eq!(
        ref_report.final_loss().to_bits(),
        res_report.final_loss().to_bits()
    );

    // Validation-selection state followed the same trajectory.
    assert_eq!(ref_report.selected_epoch, res_report.selected_epoch);
    assert_eq!(ref_report.valid_trace.len(), res_report.valid_trace.len());
    for ((ea, ma), (eb, mb)) in ref_report.valid_trace.iter().zip(&res_report.valid_trace) {
        assert_eq!(ea, eb);
        assert_eq!(ma.to_bits(), mb.to_bits(), "valid MRR diverged at {ea}");
    }

    // Final parameters are bitwise identical…
    assert_eq!(params_bits(&reference), params_bits(&resumed));

    // …so the final test metrics are too.
    let res_metrics = evaluate(&mut resumed, &ds, &test);
    assert_eq!(ref_metrics.mrr.to_bits(), res_metrics.mrr.to_bits());
    assert_eq!(ref_metrics.hits1.to_bits(), res_metrics.hits1.to_bits());
    assert_eq!(ref_metrics.hits3.to_bits(), res_metrics.hits3.to_bits());
    assert_eq!(ref_metrics.hits10.to_bits(), res_metrics.hits10.to_bits());

    std::fs::remove_file(&ckpt_path).ok();
}
