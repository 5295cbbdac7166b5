//! The `benchmark` binary.
//!
//! ```text
//! benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
//! benchmark run --all --seed <n> --out <dir> [--seconds <s>] [--smoke]
//! benchmark compare <a/results.json> <b/results.json>
//! benchmark calibrate <seed/results.json>...
//! ```
//!
//! `run --workload` is the driver's entry point: it prints every metric by
//! name with its unit, then — as the last line of standard output — one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. Any
//! error, a verification mismatch included, exits non-zero without that
//! line. An untraced run (`--trace 0`) is three set-ups and a closed loop of
//! `--seconds`; a traced run is the open-loop ladder around a closed loop,
//! the `/metrics` deltas and the replay. `run --all` runs each workload
//! untraced and traced, each in a fresh child process, and writes
//! `results.json` and `trace.json`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use logcl_benchmark::compare::{calibrate, compare, load, summarise};
use logcl_benchmark::spec::{metric, moves, registry, workload, SMOKE_LADDER, WORKLOADS};
use logcl_benchmark::trace::to_json;
use logcl_benchmark::workload::{run, RunArgs, STOLEN_SHARE_KEY};
use logcl_benchmark::BenchError;
use serde_json::{json, Map, Value};

/// Load-phase seconds of `--smoke`.
const SMOKE_SECONDS: f64 = 3.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("calibrate") => cmd_calibrate(&args[1..]),
        _ => Err("usage: benchmark run|compare|calibrate … (see the crate README)".into()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs and bare `--switch`es.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String], switches: &[&str]) -> Result<Flags, BenchError> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            let value = if switches.contains(&name) {
                String::new()
            } else {
                it.next()
                    .ok_or_else(|| format!("--{name} needs a value"))?
                    .clone()
            };
            map.insert(name.to_string(), value);
        }
        Ok(Flags(map))
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, BenchError> {
        match self.0.get(name) {
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot read {raw:?}").into()),
            None => Ok(None),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }
}

/// Writes `text` to `path` and syncs it.
fn write_synced(path: &Path, text: &str) -> Result<(), BenchError> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(text.as_bytes())?;
    file.sync_all()?;
    Ok(())
}

/// Kernel threads of every run: the product's serial backend.
const KERNEL_THREADS: usize = 1;

/// Pins the product's kernel backend, whatever the caller's environment
/// says, so that every run and every `results.json` comes from the same
/// backend. On the 2-core sandbox the load generator, the connection
/// handlers and the model worker already fill both cores; the shipped
/// default (a pool of 2) then runs its condvar hand-offs at the mercy of the
/// hypervisor: three `head_read` runs in a row read `closed_rps` 154, 196
/// and 233. `LOGCL_THREADS` is the product's own operator knob (CI sets it
/// too) and the only way to choose the backend while `ServeConfig` and
/// `LogClConfig` stay at their defaults.
fn pin_kernel_threads() {
    std::env::set_var("LOGCL_THREADS", KERNEL_THREADS.to_string());
}

/// How `closed_rps` and `setup_s` are read (see `workload::granted`); a
/// `results.json` made before this was the rule carries no such entry.
const METHOD: &str = "median 0.5 s slice and fastest set-up, stolen time taken off";

/// What a `results.json` was measured under; `compare` refuses two files
/// that differ here.
fn settings(seconds: f64, smoke: bool) -> Value {
    let ladders: Map = WORKLOADS
        .iter()
        .map(|w| {
            let ladder = if smoke { SMOKE_LADDER } else { w.ladder };
            (w.name.to_string(), json!(ladder.to_vec()))
        })
        .collect();
    json!({
        "threads": KERNEL_THREADS,
        "method": METHOD,
        "seconds": seconds,
        "smoke": smoke,
        "ladders": Value::Object(ladders),
    })
}

fn cmd_run(args: &[String]) -> Result<ExitCode, BenchError> {
    pin_kernel_threads();
    let flags = Flags::parse(args, &["all", "smoke"])?;
    let smoke = flags.has("smoke");
    let seed: u64 = flags.get("seed")?.unwrap_or(7);
    let seconds = match flags.get("seconds")? {
        Some(s) => s,
        None if smoke => SMOKE_SECONDS,
        None => registry().run_seconds,
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let out: Option<PathBuf> = flags.get("out")?;
    if let Some(dir) = &out {
        std::fs::create_dir_all(dir)?;
    }
    if flags.has("all") {
        let out = out.ok_or("run --all needs --out <dir>")?;
        return run_all(seed, seconds, smoke, &out);
    }

    let name: String = flags
        .get("workload")?
        .ok_or("run needs --workload or --all")?;
    let workload = workload(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let trace = match flags.get::<u8>("trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}").into()),
    };
    let report = run(&RunArgs {
        workload,
        seed,
        seconds,
        trace,
        smoke,
    })?;

    println!(
        "# {name} seed={seed} seconds={seconds} trace={} threads={} ladder={:?}",
        u8::from(trace),
        logcl_tensor::kernels::current_threads(),
        workload.ladder
    );
    for line in &report.info {
        println!("# {line}");
    }
    let mut metrics = Map::new();
    for (metric_name, value) in &report.metrics {
        let unit = metric(metric_name).map_or("", |m| m.unit.as_str());
        match moves(metric_name) {
            Some(target) => println!("{metric_name} = {value} {unit} (should move {target})"),
            None => println!("{metric_name} = {value} {unit}"),
        }
        metrics.insert(
            metric_name.to_string(),
            json!({ "value": *value, "unit": unit }),
        );
    }
    if let (Some(dir), true) = (&out, trace) {
        write_synced(
            &dir.join(format!("trace.{name}.json")),
            &to_json(&report.spans).to_string(),
        )?;
    }
    let line = json!({
        "correct": true,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": Value::Object(metrics),
    });
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

/// Untraced runs of each workload in `run --all`; `results.json` carries
/// their medians. One run takes half a minute, and the sandbox slows down
/// by a quarter to a half for a minute at a time: a single run per workload
/// set the seed commit against itself as "worse" in one workload of four.
const UNTRACED_RUNS: usize = 3;

/// One workload in a fresh child process, so that no run inherits another's
/// heap, caches or kernel pool. Returns its result line plus its `#` lines.
fn child(
    workload: &str,
    trace: bool,
    seed: u64,
    seconds: f64,
    smoke: bool,
    out: &Path,
) -> Result<Value, BenchError> {
    let trace = if trace { "1" } else { "0" };
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["run", "--workload", workload, "--trace", trace])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .arg("--out")
        .arg(out)
        .stdout(Stdio::piped());
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.spawn()?.wait_with_output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!("{workload} (trace {trace}) exited with {}", output.status).into());
    }
    let last = stdout.lines().last().ok_or("a run printed nothing")?;
    let mut result: Value = serde_json::from_str(last)?;
    if let Value::Object(map) = &mut result {
        let detail: Vec<&str> = stdout.lines().filter(|l| l.starts_with('#')).collect();
        map.insert("info".into(), json!(detail));
    }
    Ok(result)
}

/// A run over which the hypervisor withheld more than this share of the CPU
/// time asked for measured the host (at a third withheld, `head_read` read
/// 162 rps for 240): `run --all` makes it again, at most [`RERUNS`] times,
/// and counts what it threw away under `discarded` in `results.json`.
const MAX_STOLEN_SHARE: f64 = 0.10;
const RERUNS: usize = 2;

/// [`child`], made again while the hypervisor sat on it. Returns the run
/// kept — the last one made, whatever it saw — and how many were discarded.
fn undisturbed_child(
    workload: &str,
    trace: bool,
    seed: u64,
    seconds: f64,
    smoke: bool,
    out: &Path,
) -> Result<(Value, usize), BenchError> {
    let mut discarded = 0;
    loop {
        let result = child(workload, trace, seed, seconds, smoke, out)?;
        let stolen = result
            .get("info")
            .and_then(Value::as_array)
            .into_iter()
            .flatten()
            .filter_map(Value::as_str)
            .find_map(|line| line.split_once(STOLEN_SHARE_KEY))
            .and_then(|(_, rest)| rest.split_whitespace().next()?.parse::<f64>().ok());
        if discarded == RERUNS || stolen.is_none_or(|share| share <= MAX_STOLEN_SHARE) {
            return Ok((result, discarded));
        }
        println!("# discarded: the hypervisor withheld {stolen:?} of the CPU time asked for");
        discarded += 1;
    }
}

/// Every workload: [`UNTRACED_RUNS`] untraced runs, in passes over all four
/// so that one workload's runs lie minutes apart, then one traced run.
fn run_all(seed: u64, seconds: f64, smoke: bool, out: &Path) -> Result<ExitCode, BenchError> {
    let passes = if smoke { 1 } else { UNTRACED_RUNS };
    let mut untraced: BTreeMap<&str, Vec<Value>> = BTreeMap::new();
    let mut discarded = 0;
    for _ in 0..passes {
        for w in &WORKLOADS {
            let (result, again) = undisturbed_child(w.name, false, seed, seconds, smoke, out)?;
            untraced.entry(w.name).or_default().push(result);
            discarded += again;
        }
    }
    let mut workloads = Map::new();
    let mut traces = Map::new();
    for w in &WORKLOADS {
        let mut entry = Map::new();
        let runs = untraced.remove(w.name).unwrap_or_default();
        entry.insert("end_to_end".into(), summarise(runs));
        let (traced, again) = undisturbed_child(w.name, true, seed, seconds, smoke, out)?;
        entry.insert("per_layer".into(), traced);
        discarded += again;
        workloads.insert(w.name.into(), Value::Object(entry));
        let trace_file = out.join(format!("trace.{}.json", w.name));
        traces.insert(w.name.into(), load(&trace_file)?);
        std::fs::remove_file(trace_file)?;
    }
    let results = json!({
        "seed": seed,
        "settings": settings(seconds, smoke),
        "discarded": discarded,
        "workloads": Value::Object(workloads),
    });
    write_synced(
        &out.join("results.json"),
        &serde_json::to_string_pretty(&results)?,
    )?;
    write_synced(&out.join("trace.json"), &Value::Object(traces).to_string())?;
    println!("# wrote {}/results.json and trace.json", out.display());
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, BenchError> {
    let [a, b] = args else {
        return Err("usage: benchmark compare <a/results.json> <b/results.json>".into());
    };
    let (lines, any_worse) = compare(&load(Path::new(a))?, &load(Path::new(b))?)?;
    for line in lines {
        println!("{line}");
    }
    Ok(if any_worse {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_calibrate(args: &[String]) -> Result<ExitCode, BenchError> {
    if args.is_empty() {
        return Err("usage: benchmark calibrate <seed/results.json>...".into());
    }
    let runs = args
        .iter()
        .map(|path| load(Path::new(path)))
        .collect::<Result<Vec<_>, _>>()?;
    for line in calibrate(&runs) {
        println!("{line}");
    }
    Ok(ExitCode::SUCCESS)
}
