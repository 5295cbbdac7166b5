//! `bench` — microbenchmarks for the kernels, a training epoch and ingest.
//!
//! ```sh
//! cargo run --release -p logcl-bench --bin bench -- kernels
//! cargo run --release -p logcl-bench --bin bench -- epoch
//! cargo run --release -p logcl-bench --bin bench -- ingest
//! ```
//!
//! `bench kernels` times every major kernel entry point and writes
//! `BENCH_kernels.json`; `bench epoch` times a full training epoch end to
//! end and writes `BENCH_epoch.json`; `bench ingest` times a streaming head
//! append against a from-scratch re-encode and writes `BENCH_ingest.json`.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use logcl_core::{LogCl, LogClConfig, TkgModel, TrainOptions};
use logcl_tensor::kernels::{ops, Binary, Serial, Unary};
use logcl_tensor::{Rng, Tensor};
use logcl_tkg::SyntheticPreset;
use serde::Serialize;

const USAGE: &str = "usage: bench <kernels|epoch|ingest> [--min-ms MS] [--scale S] [--dim D] \
                     [--epochs N] [--out DIR]";

/// One measurement row in the emitted JSON.
#[derive(Debug, Clone, Serialize)]
struct Record {
    /// Kernel or stage name (`matmul`, `train_epoch`, `ingest_advance`, ...).
    op: String,
    /// Problem shape, human-readable.
    shape: String,
    /// Mean wall time per iteration.
    ns_per_iter: f64,
}

impl Record {
    fn new(op: &str, shape: &str, ns_per_iter: f64) -> Record {
        eprintln!("  {op:<18} {shape:<36} {ns_per_iter:>14.0} ns/iter");
        Record {
            op: op.into(),
            shape: shape.into(),
            ns_per_iter,
        }
    }
}

#[derive(Debug, Clone, Serialize)]
struct Dump {
    command: String,
    records: Vec<Record>,
}

#[derive(Debug, Clone)]
struct BenchConfig {
    min_ms: u64,
    scale: f64,
    dim: usize,
    epochs: usize,
    out_dir: PathBuf,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            min_ms: 200,
            scale: 0.3,
            dim: 48,
            epochs: 1,
            out_dir: PathBuf::from("."),
        }
    }
}

impl BenchConfig {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut cfg = Self::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("missing value for {name}"))
            };
            match arg.as_str() {
                "--min-ms" => {
                    cfg.min_ms = value("--min-ms")?.parse().map_err(|e| format!("{e}"))?
                }
                "--scale" => cfg.scale = value("--scale")?.parse().map_err(|e| format!("{e}"))?,
                "--dim" => cfg.dim = value("--dim")?.parse().map_err(|e| format!("{e}"))?,
                "--epochs" => {
                    cfg.epochs = value("--epochs")?.parse().map_err(|e| format!("{e}"))?
                }
                "--out" => cfg.out_dir = PathBuf::from(value("--out")?),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(cfg)
    }
}

/// Runs `f` repeatedly for at least `min_ms` (after one warmup call) and
/// returns the mean wall time per call in nanoseconds.
fn time_ns(min_ms: u64, mut f: impl FnMut()) -> f64 {
    f(); // warmup: faults pages
    let budget = Duration::from_millis(min_ms);
    let start = Instant::now();
    let mut iters: u64 = 0;
    while start.elapsed() < budget {
        f();
        iters += 1;
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn randn(n: usize, rng: &mut Rng) -> Vec<f32> {
    Tensor::randn(&[n], 1.0, rng).data().to_vec()
}

/// One kernel case: a name, a shape label, and a runner returning the
/// output.
type KernelRun = Box<dyn Fn() -> Vec<f32>>;

struct Case {
    op: &'static str,
    shape: String,
    run: KernelRun,
}

fn kernel_cases() -> Vec<Case> {
    let mut rng = Rng::seed(7);
    let a256 = randn(256 * 256, &mut rng);
    let b256 = randn(256 * 256, &mut rng);
    let a_tall = randn(4096 * 64, &mut rng);
    let b_small = randn(64 * 64, &mut rng);
    let x1m = randn(1 << 20, &mut rng);
    let y1m = randn(1 << 20, &mut rng);
    let soft = randn(512 * 512, &mut rng);
    let table = randn(4096 * 64, &mut rng);
    // Deterministic pseudo-random row indices (Knuth multiplicative hash).
    let idx: Vec<usize> = (0..65536usize)
        .map(|i| (i.wrapping_mul(2654435761)) % 4096)
        .collect();
    let scatter_src = randn(65536 * 64, &mut rng);

    vec![
        Case {
            op: "matmul",
            shape: "256x256 . 256x256".into(),
            run: {
                let (a, b) = (a256.clone(), b256.clone());
                Box::new(move || ops::matmul(&Serial, &a, &b, 256, 256, 256))
            },
        },
        Case {
            op: "matmul",
            shape: "4096x64 . 64x64".into(),
            run: {
                let (a, b) = (a_tall.clone(), b_small.clone());
                Box::new(move || ops::matmul(&Serial, &a, &b, 4096, 64, 64))
            },
        },
        Case {
            op: "matmul_sparse_lhs",
            shape: "4096x64 . 64x64".into(),
            run: {
                let (a, b) = (a_tall, b_small);
                Box::new(move || ops::matmul_sparse_lhs(&a, &b, 4096, 64, 64))
            },
        },
        Case {
            op: "unary_sigmoid",
            shape: "1048576".into(),
            run: {
                let x = x1m.clone();
                Box::new(move || ops::unary(Unary::Sigmoid, &x))
            },
        },
        Case {
            op: "binary_add",
            shape: "1048576".into(),
            run: {
                let (x, y) = (x1m.clone(), y1m);
                Box::new(move || ops::binary(Binary::Add, &x, &y))
            },
        },
        Case {
            op: "sum",
            shape: "1048576".into(),
            run: {
                let x = x1m;
                Box::new(move || vec![ops::sum(&x)])
            },
        },
        Case {
            op: "softmax_rows",
            shape: "512x512".into(),
            run: {
                let x = soft;
                Box::new(move || ops::softmax_rows(&x, 512, 512))
            },
        },
        Case {
            op: "gather_rows",
            shape: "65536 of 4096x64".into(),
            run: {
                let (x, idx) = (table, idx.clone());
                Box::new(move || ops::gather_rows(&x, 64, &idx))
            },
        },
        Case {
            op: "scatter_add_rows",
            shape: "65536 -> 4096x64".into(),
            run: {
                let (src, idx) = (scatter_src, idx);
                Box::new(move || ops::scatter_add_rows(&src, 64, &idx, 4096))
            },
        },
    ]
}

fn bench_kernels(cfg: &BenchConfig) -> Vec<Record> {
    kernel_cases()
        .into_iter()
        .map(|case| {
            let ns = time_ns(cfg.min_ms, || {
                std::hint::black_box((case.run)());
            });
            Record::new(case.op, &case.shape, ns)
        })
        .collect()
}

fn bench_epoch(cfg: &BenchConfig) -> Vec<Record> {
    let ds = SyntheticPreset::Icews14.generate_scaled(cfg.scale);
    eprintln!("  dataset: {ds}");
    let shape = format!(
        "icews14@{} dim={} epochs={}",
        cfg.scale, cfg.dim, cfg.epochs
    );
    let opts = TrainOptions {
        epochs: cfg.epochs,
        verbose: false,
        ..Default::default()
    };
    let model_cfg = LogClConfig {
        dim: cfg.dim,
        time_bank: (cfg.dim / 4).max(4),
        m: 4,
        ..Default::default()
    };
    let mut model = LogCl::new(&ds, model_cfg);
    let start = Instant::now();
    model.fit(&ds, &opts).expect("training failed");
    let ns = start.elapsed().as_nanos() as f64 / cfg.epochs as f64;
    vec![Record::new("train_epoch", &shape, ns)]
}

/// Incremental streaming ingest vs from-scratch re-encode, at growing
/// history depths.
///
/// `advance` is the serving ingest path: one [`LogCl::advance_encoder_state`]
/// plus one [`HistoryIndex::advance`] absorbing a head snapshot into live
/// structures — O(|Δ|) whatever the depth. `reencode` builds the same two
/// structures from scratch over the full prefix ([`LogCl::init_encoder_state`]
/// and [`HistoryIndex::build`]) — O(T·|Δ|), the cost every head append would
/// pay without the streaming refactor (and what the rare backfill path
/// still pays). O(Δ) holds iff re-encode time over advance time at the
/// same depth grows linearly with depth.
fn bench_ingest(cfg: &BenchConfig) -> Vec<Record> {
    let ds = SyntheticPreset::Icews14.generate_scaled(cfg.scale);
    eprintln!("  dataset: {ds}");
    let snapshots = ds.snapshots();
    let depths: Vec<usize> = [4, 8, 16, 32, 64]
        .into_iter()
        .filter(|&d| d <= ds.num_times)
        .collect();
    let model_cfg = LogClConfig {
        dim: cfg.dim,
        time_bank: (cfg.dim / 4).max(4),
        m: 4,
        ..Default::default()
    };
    let mut model = LogCl::new(&ds, model_cfg);
    let mut records = Vec::new();
    for &depth in &depths {
        let delta_edges = snapshots[depth - 1].edges.len();
        let shape = format!("depth={depth} dim={} |delta|={delta_edges}", cfg.dim);

        // From-scratch path: rebuild streaming state + history index over
        // the whole prefix, as every ingest did before the refactor.
        let reencode_ns = time_ns(cfg.min_ms, || {
            std::hint::black_box(model.init_encoder_state(&snapshots[..depth]));
            std::hint::black_box(logcl_tkg::HistoryIndex::build(&snapshots[..depth]));
        });

        // Streaming path: absorb one head snapshot into live state. The
        // delta keeps the depth-(T-1) snapshot's edge list but must carry a
        // strictly increasing timestamp ([`HistoryIndex::advance`] enforces
        // time order), so the horizon walks forward across iterations while
        // every iteration still pays exactly one O(|Δ|) absorb.
        let mut state = model.init_encoder_state(&snapshots[..depth - 1]);
        let mut history = logcl_tkg::HistoryIndex::build(&snapshots[..depth - 1]);
        let mut delta = snapshots[depth - 1].clone();
        let advance_ns = time_ns(cfg.min_ms, || {
            model.advance_encoder_state(&mut state, &delta);
            history.advance(&delta);
            delta.t += 1;
        });

        eprintln!("  reencode / advance: {:.2}x", reencode_ns / advance_ns);
        records.push(Record::new("ingest_reencode", &shape, reencode_ns));
        records.push(Record::new("ingest_advance", &shape, advance_ns));
    }
    records
}

fn write_dump(cfg: &BenchConfig, name: &str, command: &str, records: Vec<Record>) {
    let dump = Dump {
        command: command.into(),
        records,
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("warning: cannot create {}: {e}", cfg.out_dir.display());
        return;
    }
    let path = cfg.out_dir.join(name);
    let json = serde_json::to_string_pretty(&dump).expect("serialise records");
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let cfg = match BenchConfig::parse(&args[1..]) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    eprintln!("bench {cmd}");
    match cmd.as_str() {
        "kernels" => {
            let records = bench_kernels(&cfg);
            write_dump(&cfg, "BENCH_kernels.json", "kernels", records);
        }
        "epoch" => {
            let records = bench_epoch(&cfg);
            write_dump(&cfg, "BENCH_epoch.json", "epoch", records);
        }
        "ingest" => {
            let records = bench_ingest(&cfg);
            write_dump(&cfg, "BENCH_ingest.json", "ingest", records);
        }
        other => {
            eprintln!("unknown command {other}\n{USAGE}");
            std::process::exit(2);
        }
    }
}
