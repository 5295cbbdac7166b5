//! Fig. 10 — online training: CEN, RETIA (≈ RE-GCN with online updates,
//! see DESIGN.md) and LogCL, offline versus online, on ICEWS14/18/05-15
//! stand-ins.

use logcl_baselines::{CenLite, ReGcn};
use logcl_core::{evaluate, evaluate_online, LogCl, TkgModel};
use logcl_tkg::{SyntheticPreset, TkgDataset};

use crate::common::{dump_json, presets, Row, RunConfig};

const PRESETS: [SyntheticPreset; 3] = [
    SyntheticPreset::Icews14,
    SyntheticPreset::Icews18,
    SyntheticPreset::Icews0515,
];

/// Runs the experiment.
pub fn run(cfg: &RunConfig) {
    let mut rows = Vec::new();
    println!("\n=== Fig. 10: offline vs online training (MRR / Hits@1) ===");
    for preset in presets(cfg, &PRESETS) {
        let ds = cfg.dataset(preset);
        eprintln!("[fig10] {ds}");
        println!("\n[{}]", preset.name());
        println!(
            "{:<8} {:>9} {:>8} | {:>9} {:>8}",
            "model", "off MRR", "off H@1", "on MRR", "on H@1"
        );
        for which in ["CEN", "RETIA", "LogCL"] {
            if !cfg.model_enabled(which) {
                continue;
            }
            let build = |ds: &TkgDataset| -> Box<dyn TkgModel> {
                match which {
                    "CEN" => Box::new(CenLite::new(
                        ds,
                        cfg.dim,
                        cfg.window(preset),
                        cfg.channels,
                        cfg.seed(),
                    )),
                    "RETIA" => Box::new(ReGcn::new(
                        ds,
                        cfg.dim,
                        cfg.window(preset),
                        cfg.channels,
                        cfg.seed(),
                    )),
                    _ => Box::new(LogCl::new(ds, cfg.logcl_config(preset))),
                }
            };
            let test = ds.test.clone();
            let mut offline = build(&ds);
            offline
                .fit(&ds, &cfg.train_options())
                .expect("training failed");
            let m_off = evaluate(offline.as_mut(), &ds, &test);
            let mut online = build(&ds);
            online
                .fit(&ds, &cfg.train_options())
                .expect("training failed");
            let m_on = evaluate_online(online.as_mut(), &ds, &test);
            println!(
                "{:<8} {:>9.2} {:>8.2} | {:>9.2} {:>8.2}",
                which, m_off.mrr, m_off.hits1, m_on.mrr, m_on.hits1
            );
            rows.push(Row::new(
                format!("{which} (offline)"),
                preset.name(),
                &m_off,
            ));
            rows.push(Row::new(format!("{which} (online)"), preset.name(), &m_on));
        }
    }
    dump_json(cfg, "fig10", &rows);
    println!(
        "\nExpected shape (paper): online beats offline for every model \
         (emerging facts get absorbed), and LogCL gains the most."
    );
}
