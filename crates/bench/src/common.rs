//! Shared plumbing for the experiment binary: run configuration, model
//! fitting helpers, table rendering and JSON result dumps.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use logcl_baselines::BaselineKind;
use logcl_core::{evaluate, LogCl, LogClConfig, TkgModel, TrainOptions};
use logcl_tkg::eval::Metrics;
use logcl_tkg::{SyntheticPreset, TkgDataset};
use serde::{Deserialize, Serialize};

/// Knobs every experiment shares, parsed from the command line.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Dataset scale in `(0, 1]` (1.0 = the full DESIGN.md presets).
    pub scale: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Embedding dimensionality.
    pub dim: usize,
    /// ConvTransE kernels.
    pub channels: usize,
    /// Output directory for JSON results.
    pub out_dir: PathBuf,
    /// Optional preset filter (names like `icews14`).
    pub presets: Option<Vec<String>>,
    /// Optional model-name filter for table 3.
    pub models: Option<Vec<String>>,
    /// Tune LogCL's λ on the validation split (the paper's per-dataset
    /// hyper-parameter protocol); baselines keep their defaults.
    pub tune: bool,
    /// Seeds for model initialisation. Table III averages over all of them
    /// (one full train+eval per seed per model); every other experiment
    /// runs one, and `parse` refuses more.
    pub seeds: Vec<u64>,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            scale: 0.4,
            epochs: 6,
            dim: 48,
            channels: 16,
            out_dir: PathBuf::from("results"),
            presets: None,
            models: None,
            tune: false,
            seeds: vec![42],
        }
    }
}

impl RunConfig {
    /// Parses `--key value` style arguments for experiment `cmd`.
    pub fn parse(cmd: &str, args: &[String]) -> Result<Self, String> {
        let mut cfg = Self::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("missing value for {name}"))
            };
            match arg.as_str() {
                "--scale" => cfg.scale = value("--scale")?.parse().map_err(|e| format!("{e}"))?,
                "--epochs" => {
                    cfg.epochs = value("--epochs")?.parse().map_err(|e| format!("{e}"))?
                }
                "--dim" => cfg.dim = value("--dim")?.parse().map_err(|e| format!("{e}"))?,
                "--channels" => {
                    cfg.channels = value("--channels")?.parse().map_err(|e| format!("{e}"))?
                }
                "--out" => cfg.out_dir = PathBuf::from(value("--out")?),
                "--presets" => {
                    cfg.presets = Some(
                        value("--presets")?
                            .split(',')
                            .map(|s| s.to_lowercase())
                            .collect(),
                    )
                }
                "--models" => {
                    cfg.models = Some(
                        value("--models")?
                            .split(',')
                            .map(|s| s.to_lowercase())
                            .collect(),
                    )
                }
                "--tune" => cfg.tune = true,
                "--seeds" => {
                    cfg.seeds = value("--seeds")?
                        .split(',')
                        .map(|x| x.parse().map_err(|e| format!("bad seed {x}: {e}")))
                        .collect::<Result<Vec<u64>, String>>()?;
                    if cfg.seeds.is_empty() {
                        return Err("--seeds needs at least one seed".into());
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if !(0.0..=1.0).contains(&cfg.scale) || cfg.scale == 0.0 {
            return Err("--scale must be in (0, 1]".into());
        }
        if cmd != "table3" && cfg.seeds.len() > 1 {
            return Err(format!("{cmd} runs one seed; only table3 takes several"));
        }
        Ok(cfg)
    }

    /// The seed of a single-seed run (`parse` keeps `seeds` non-empty).
    pub fn seed(&self) -> u64 {
        self.seeds[0]
    }

    /// The local history window per preset (paper: 7/7/9/7, scaled down
    /// with the rest of the reproduction).
    pub fn window(&self, preset: SyntheticPreset) -> usize {
        match preset {
            SyntheticPreset::Icews0515 => 6,
            _ => 4,
        }
    }

    /// The contrastive temperature per preset (paper: 0.03/0.03/0.07/0.07).
    pub fn tau(&self, preset: SyntheticPreset) -> f32 {
        match preset {
            SyntheticPreset::Icews14 | SyntheticPreset::Icews18 => 0.03,
            _ => 0.07,
        }
    }

    /// Generates a preset's dataset at the configured scale.
    pub fn dataset(&self, preset: SyntheticPreset) -> TkgDataset {
        preset.generate_scaled(self.scale)
    }

    /// Whether a preset passes the `--presets` filter.
    pub fn preset_enabled(&self, preset: SyntheticPreset) -> bool {
        match &self.presets {
            None => true,
            Some(list) => {
                let name = preset.name().to_lowercase();
                list.iter().any(|p| name.contains(p))
            }
        }
    }

    /// Whether a model passes the `--models` filter.
    pub fn model_enabled(&self, name: &str) -> bool {
        match &self.models {
            None => true,
            Some(list) => {
                let name = name.to_lowercase();
                list.iter().any(|m| name.contains(m))
            }
        }
    }

    /// Training options derived from the knobs.
    pub fn train_options(&self) -> TrainOptions {
        TrainOptions {
            epochs: self.epochs,
            ..Default::default()
        }
    }

    /// A LogCL config tuned for `preset` at this run's size.
    pub fn logcl_config(&self, preset: SyntheticPreset) -> LogClConfig {
        LogClConfig {
            dim: self.dim,
            time_bank: (self.dim / 4).max(4),
            channels: self.channels,
            m: self.window(preset),
            tau: self.tau(preset),
            seed: self.seed(),
            ..Default::default()
        }
    }

    /// Builds a Table III roster model for `preset`.
    pub fn build_baseline(
        &self,
        kind: BaselineKind,
        ds: &TkgDataset,
        preset: SyntheticPreset,
    ) -> Box<dyn TkgModel> {
        if kind == BaselineKind::LogCl {
            Box::new(LogCl::new(ds, self.logcl_config(preset)))
        } else {
            kind.build(
                ds,
                self.dim,
                self.window(preset),
                self.channels,
                self.seed(),
            )
        }
    }
}

/// Trains LogCL over a small λ grid, selecting by validation MRR — the
/// paper's per-dataset hyper-parameter tuning, applied to our model only
/// (baselines run at their defaults, as the paper reports them).
pub fn fit_tuned_logcl(
    cfg: &RunConfig,
    ds: &TkgDataset,
    preset: SyntheticPreset,
    opts: &TrainOptions,
) -> LogCl {
    let mut best: Option<(f64, LogCl)> = None;
    for lambda in [0.7f32, 0.8, 0.9] {
        let config = LogClConfig {
            lambda,
            ..cfg.logcl_config(preset)
        };
        let mut model = LogCl::new(ds, config);
        model.fit(ds, opts).expect("training failed");
        let valid = evaluate(&mut model, ds, &ds.valid.clone());
        eprintln!("    LogCL λ={lambda}: valid {valid}");
        if best.as_ref().is_none_or(|(b, _)| valid.mrr > *b) {
            best = Some((valid.mrr, model));
        }
    }
    best.expect("at least one candidate").1
}

/// Element-wise mean of a set of metric measurements (equal weights; the
/// seed-averaged numbers the multi-seed runs report).
pub fn mean_metrics(ms: &[Metrics]) -> Metrics {
    assert!(!ms.is_empty(), "mean of no measurements");
    let n = ms.len() as f64;
    Metrics {
        mrr: ms.iter().map(|m| m.mrr).sum::<f64>() / n,
        hits1: ms.iter().map(|m| m.hits1).sum::<f64>() / n,
        hits3: ms.iter().map(|m| m.hits3).sum::<f64>() / n,
        hits10: ms.iter().map(|m| m.hits10).sum::<f64>() / n,
        count: ms[0].count,
    }
}

/// Fits and evaluates one model, logging wall time.
pub fn fit_and_eval(model: &mut dyn TkgModel, ds: &TkgDataset, opts: &TrainOptions) -> Metrics {
    let start = Instant::now();
    model.fit(ds, opts).expect("training failed");
    let train_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let metrics = evaluate(model, ds, &ds.test.clone());
    eprintln!(
        "    {} on {}: train {:.1}s, eval {:.1}s -> {}",
        model.name(),
        ds.name,
        train_secs,
        start.elapsed().as_secs_f64(),
        metrics
    );
    metrics
}

/// One labelled result row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Row label (model / variant / sweep value).
    pub label: String,
    /// Dataset name.
    pub dataset: String,
    /// The metrics.
    pub mrr: f64,
    /// Hits@1.
    pub hits1: f64,
    /// Hits@3.
    pub hits3: f64,
    /// Hits@10.
    pub hits10: f64,
}

impl Row {
    /// Builds a row from metrics.
    pub fn new(label: impl Into<String>, dataset: impl Into<String>, m: &Metrics) -> Self {
        Self {
            label: label.into(),
            dataset: dataset.into(),
            mrr: m.mrr,
            hits1: m.hits1,
            hits3: m.hits3,
            hits10: m.hits10,
        }
    }
}

/// Renders rows grouped by dataset as a paper-style text table.
pub fn print_table(title: &str, rows: &[Row]) {
    println!("\n=== {title} ===");
    let mut by_ds: BTreeMap<&str, Vec<&Row>> = BTreeMap::new();
    for r in rows {
        by_ds.entry(r.dataset.as_str()).or_default().push(r);
    }
    for (ds, rows) in by_ds {
        println!("\n[{ds}]");
        println!(
            "{:<22} {:>7} {:>7} {:>7} {:>8}",
            "model", "MRR", "H@1", "H@3", "H@10"
        );
        for r in rows {
            println!(
                "{:<22} {:>7.2} {:>7.2} {:>7.2} {:>8.2}",
                r.label, r.mrr, r.hits1, r.hits3, r.hits10
            );
        }
    }
}

/// Dumps rows (plus the run config summary) as JSON under the out dir.
pub fn dump_json(cfg: &RunConfig, name: &str, rows: &[Row]) {
    #[derive(Serialize)]
    struct Dump<'a> {
        experiment: &'a str,
        scale: f64,
        epochs: usize,
        dim: usize,
        rows: &'a [Row],
    }
    let dump = Dump {
        experiment: name,
        scale: cfg.scale,
        epochs: cfg.epochs,
        dim: cfg.dim,
        rows,
    };
    if let Err(e) = fs::create_dir_all(&cfg.out_dir) {
        eprintln!("warning: cannot create {}: {e}", cfg.out_dir.display());
        return;
    }
    let path = cfg.out_dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(&dump) {
        Ok(json) => {
            if let Err(e) = fs::write(&path, json) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                eprintln!("    wrote {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: JSON serialisation failed: {e}"),
    }
}

/// The presets an experiment iterates, honouring the filter.
pub fn presets(cfg: &RunConfig, all: &[SyntheticPreset]) -> Vec<SyntheticPreset> {
    all.iter()
        .copied()
        .filter(|p| cfg.preset_enabled(*p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_accepts_every_flag() {
        let cfg = RunConfig::parse(
            "table3",
            &strs(&[
                "--scale",
                "0.5",
                "--epochs",
                "9",
                "--dim",
                "32",
                "--channels",
                "8",
                "--out",
                "/tmp/x",
                "--presets",
                "icews14,gdelt",
                "--models",
                "logcl",
                "--tune",
                "--seeds",
                "1,2,3",
            ]),
        )
        .unwrap();
        assert_eq!(cfg.scale, 0.5);
        assert_eq!(cfg.epochs, 9);
        assert!(cfg.tune);
        assert_eq!(cfg.seeds, vec![1, 2, 3]);
        assert!(cfg.preset_enabled(SyntheticPreset::Icews14));
        assert!(!cfg.preset_enabled(SyntheticPreset::Icews18));
        assert!(cfg.model_enabled("LogCL"));
        assert!(!cfg.model_enabled("RE-GCN"));
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(RunConfig::parse("table3", &strs(&["--scale", "0"])).is_err());
        assert!(RunConfig::parse("table3", &strs(&["--bogus"])).is_err());
        assert!(RunConfig::parse("table3", &strs(&["--epochs"])).is_err());
        assert!(RunConfig::parse("table3", &strs(&["--seeds", "x"])).is_err());
        assert!(RunConfig::parse("table3", &strs(&["--seed", "7"])).is_err());
    }

    #[test]
    fn parse_refuses_several_seeds_outside_table3() {
        for cmd in ["fig2", "fig10", "table4", "all"] {
            let several = RunConfig::parse(cmd, &strs(&["--seeds", "1,2,3"])).unwrap_err();
            assert_eq!(
                several,
                format!("{cmd} runs one seed; only table3 takes several")
            );
            let one = RunConfig::parse(cmd, &strs(&["--seeds", "7"])).unwrap();
            assert_eq!(one.seed(), 7);
        }
        assert_eq!(RunConfig::default().seed(), 42);
    }

    #[test]
    fn paper_hyperparams_per_preset() {
        let cfg = RunConfig::default();
        assert_eq!(cfg.window(SyntheticPreset::Icews0515), 6);
        assert_eq!(cfg.window(SyntheticPreset::Icews14), 4);
        assert_eq!(cfg.tau(SyntheticPreset::Icews14), 0.03);
        assert_eq!(cfg.tau(SyntheticPreset::Gdelt), 0.07);
    }

    #[test]
    fn mean_metrics_averages() {
        let a = Metrics {
            mrr: 10.0,
            hits1: 5.0,
            hits3: 10.0,
            hits10: 20.0,
            count: 4,
        };
        let b = Metrics {
            mrr: 30.0,
            hits1: 15.0,
            hits3: 30.0,
            hits10: 40.0,
            count: 4,
        };
        let m = mean_metrics(&[a, b]);
        assert_eq!(m.mrr, 20.0);
        assert_eq!(m.hits1, 10.0);
        assert_eq!(m.count, 4);
    }
}
