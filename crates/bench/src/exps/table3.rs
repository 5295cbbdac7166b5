//! Table III — main results: MRR / Hits@1/3/10 for the whole model roster
//! on all four benchmark stand-ins, time-aware filtered.

use logcl_baselines::BaselineKind;
use logcl_tkg::SyntheticPreset;

use crate::common::{
    dump_json, fit_and_eval, fit_tuned_logcl, mean_metrics, presets, print_table, Row, RunConfig,
};
use logcl_core::evaluate;

/// Runs the experiment.
pub fn run(cfg: &RunConfig) {
    let mut rows = Vec::new();
    for preset in presets(cfg, &SyntheticPreset::ALL) {
        let ds = cfg.dataset(preset);
        eprintln!("[table3] {ds}");
        for kind in BaselineKind::TABLE3 {
            if !cfg.model_enabled(kind.name()) {
                continue;
            }
            let mut runs = Vec::with_capacity(cfg.seeds.len());
            for &seed in &cfg.seeds {
                let mut cfg_seed = cfg.clone();
                cfg_seed.seeds = vec![seed];
                let m = if kind == BaselineKind::LogCl && cfg.tune {
                    let mut model =
                        fit_tuned_logcl(&cfg_seed, &ds, preset, &cfg_seed.train_options());
                    let m = evaluate(&mut model, &ds, &ds.test.clone());
                    eprintln!("    LogCL (tuned, seed {seed}) on {}: {m}", ds.name);
                    m
                } else {
                    let mut model = cfg_seed.build_baseline(kind, &ds, preset);
                    fit_and_eval(model.as_mut(), &ds, &cfg_seed.train_options())
                };
                runs.push(m);
            }
            let metrics = mean_metrics(&runs);
            rows.push(Row::new(
                format!("{:<14} [{}]", kind.name(), kind.category()),
                preset.name(),
                &metrics,
            ));
        }
    }
    print_table("Table III: main results (time-aware filtered)", &rows);
    dump_json(cfg, "table3", &rows);
    println!(
        "\nExpected shape (paper): Static < Interpolation < single-view \
         extrapolation < local+global (TiRGN) < LogCL, on every dataset."
    );
}

/// EXPERIMENTS.md's Table III is a render of the committed dumps.
#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use serde::Deserialize;

    use crate::common::Row;

    /// Table III's rows and columns in the order EXPERIMENTS.md prints them.
    const ORDER: [&str; 11] = [
        "DistMult",
        "Conv-TransE",
        "TTransE",
        "CyGNet",
        "RE-NET",
        "RE-GCN",
        "CEN",
        "TiRGN",
        "HisMatch",
        "CENET",
        "LogCL",
    ];
    const DATASETS: [&str; 4] = ["ICEWS14-s", "ICEWS18-s", "ICEWS05-15-s", "GDELT-s"];

    /// Renders EXPERIMENTS.md's Table III Markdown block from `table3` JSON
    /// dumps. A later dump overrides an earlier one cell by cell; a cell no
    /// dump has reads `–`.
    fn render(dumps: &[&str]) -> String {
        #[derive(Deserialize)]
        struct Dump {
            rows: Vec<Row>,
        }
        let mut cells = BTreeMap::new();
        for text in dumps {
            for row in serde_json::from_str::<Dump>(text).unwrap().rows {
                let model = row.label.split('[').next().unwrap_or_default().trim();
                cells.insert((model.to_string(), row.dataset.clone()), row);
            }
        }
        let mut out = String::from("| Model |");
        for ds in DATASETS {
            // A non-breaking hyphen keeps `‑s` on the name in a narrow column.
            let ds = ds.replace("-s", "\u{2011}s");
            out += &format!(" {ds} MRR / H@1 / H@3 / H@10 |");
        }
        out += &format!("\n|---|{}\n", "---|".repeat(DATASETS.len()));
        for model in ORDER {
            out += &format!("| {model} |");
            for ds in DATASETS {
                out += &match cells.get(&(model.to_string(), ds.to_string())) {
                    Some(r) => format!(
                        " {:.2} / {:.2} / {:.2} / {:.2} |",
                        r.mrr, r.hits1, r.hits3, r.hits10
                    ),
                    None => " \u{2013} |".to_string(),
                };
            }
            out.push('\n');
        }
        out
    }

    /// The committed dumps in the order EXPERIMENTS.md renders them: the
    /// 1-epoch run first, so the tuned run overrides every cell it has.
    fn committed() -> String {
        render(&[
            include_str!("../../../../results/table3.json"),
            include_str!("../../../../results/final_a/table3.json"),
        ])
    }

    #[test]
    fn experiments_md_table3_is_the_render_of_results() {
        let doc = include_str!("../../../../EXPERIMENTS.md");
        let table = committed();
        assert!(
            doc.contains(&table),
            "EXPERIMENTS.md's Table III differs from the render of results/; \
             regenerate it with `print_table3`:\n{table}"
        );
    }

    #[test]
    #[ignore = "prints the table for regeneration; not a check"]
    fn print_table3() {
        print!("{}", committed());
    }
}
