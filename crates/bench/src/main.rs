//! The experiment harness: regenerates every table and figure of the LogCL
//! paper's evaluation on the synthetic benchmark stand-ins.
//!
//! ```sh
//! cargo run --release -p logcl-bench --bin experiments -- table3 --scale 0.4 --epochs 6
//! cargo run --release -p logcl-bench --bin experiments -- all
//! ```
//!
//! Common flags: `--scale` (dataset scale, default 0.4), `--epochs`,
//! `--dim`, `--channels`, `--seeds 42` (several, comma-separated, only for
//! `table3`, which averages over them), `--tune` (select LogCL's λ on
//! validation), `--out <dir>` (JSON results), `--presets icews14,gdelt`,
//! `--models logcl,re-gcn`.

mod common;
mod exps;

use common::RunConfig;

const USAGE: &str = "usage: experiments <table3|table4|table5|table6|table7|fig2|fig5|fig6|fig7|fig8|fig9|fig10|all> [--scale S] [--epochs N] [--dim D] [--channels C] [--seeds K[,K...]] [--tune] [--out DIR] [--presets a,b] [--models a,b]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let cfg = match RunConfig::parse(cmd, &args[1..]) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "run config: scale={} epochs={} dim={} channels={} seeds={:?}",
        cfg.scale, cfg.epochs, cfg.dim, cfg.channels, cfg.seeds
    );
    let start = std::time::Instant::now();
    match cmd.as_str() {
        "table3" => exps::table3::run(&cfg),
        "table4" => exps::table4::run(&cfg),
        "table5" => exps::table5::run(&cfg),
        "table6" => exps::table6::run(&cfg),
        "table7" => exps::table7::run(&cfg),
        "fig2" => exps::fig2::run(&cfg),
        "fig5" => exps::fig5::run(&cfg),
        "fig6" => exps::fig6::run(&cfg),
        "fig7" => exps::fig7::run(&cfg),
        "fig8" => exps::fig8::run(&cfg),
        "fig9" => exps::fig9::run(&cfg),
        "fig10" => exps::fig10::run(&cfg),
        "all" => {
            exps::table3::run(&cfg);
            exps::table4::run(&cfg);
            exps::table5::run(&cfg);
            exps::table6::run(&cfg);
            exps::table7::run(&cfg);
            exps::fig2::run(&cfg);
            exps::fig5::run(&cfg);
            exps::fig6::run(&cfg);
            exps::fig7::run(&cfg);
            exps::fig8::run(&cfg);
            exps::fig9::run(&cfg);
            exps::fig10::run(&cfg);
        }
        other => {
            eprintln!("unknown experiment {other}\n{USAGE}");
            std::process::exit(2);
        }
    }
    eprintln!("\ntotal wall time: {:.1}s", start.elapsed().as_secs_f64());
}
