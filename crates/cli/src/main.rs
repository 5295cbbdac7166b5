//! `logcl` — the command-line face of the reproduction.
//!
//! ```sh
//! logcl generate --preset icews14 --out data/icews14-s     # write TSV benchmark
//! logcl info --data data/icews14-s                         # dataset statistics
//! logcl train --data data/icews14-s --epochs 20 --save model.json
//! logcl eval --data data/icews14-s --load model.json
//! logcl predict --data data/icews14-s --load model.json \
//!     --subject China --relation Cooperate --time 115 --topk 5
//! logcl serve --data data/icews14-s --load model.json --addr 127.0.0.1:7878
//! logcl serve --data data/icews14-s --load model.json --shard 0/3   # worker
//! logcl router --shards 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003
//! ```

mod args;
mod commands;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&argv) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run(argv: &[String]) -> Result<(), String> {
    let Some(cmd) = argv.first() else {
        return Err(format!("no command given\n{}", args::USAGE));
    };
    let opts = args::CliOptions::parse(&argv[1..])?;
    match cmd.as_str() {
        "generate" => commands::generate(&opts),
        "info" => commands::info(&opts),
        "train" => commands::train(&opts),
        "eval" => commands::eval(&opts),
        "predict" => commands::predict(&opts),
        "serve" => commands::serve(&opts),
        "router" => commands::router(&opts),
        "help" | "--help" | "-h" => {
            println!("{}", args::USAGE);
            Ok(())
        }
        other => Err(format!("unknown command {other}\n{}", args::USAGE)),
    }
}
