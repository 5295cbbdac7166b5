//! `--smoke`: every workload, untraced and traced, on miniature graphs.
//! Asserts the contract the driver relies on — exactly the workload and
//! metric names of `BENCHMARK.json`, with their units — and that `compare`
//! and `calibrate` read what `run --all` wrote.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use logcl_benchmark::spec::BENCHMARK_JSON;
use serde_json::Value;

fn benchmark(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("spawning the benchmark binary")
}

fn array<'a>(doc: &'a Value, key: &str) -> &'a Vec<Value> {
    doc.get(key).and_then(Value::as_array).expect(key)
}

fn text<'a>(doc: &'a Value, key: &str) -> &'a str {
    doc.get(key).and_then(Value::as_str).expect(key)
}

#[test]
fn smoke_run_emits_exactly_the_names_of_benchmark_json() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let out_arg = out.to_str().expect("UTF-8 target dir");
    let run = benchmark(&["run", "--all", "--smoke", "--seed", "7", "--out", out_arg]);
    assert!(
        run.status.success(),
        "run --all --smoke failed:\n{}\n{}",
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );

    let spec: Value = serde_json::from_str(BENCHMARK_JSON).unwrap();
    let results: Value =
        serde_json::from_str(&std::fs::read_to_string(out.join("results.json")).unwrap()).unwrap();
    let ran = results.get("workloads").and_then(Value::as_object).unwrap();
    let declared: BTreeSet<&str> = array(&spec, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(
        ran.keys().map(String::as_str).collect::<BTreeSet<_>>(),
        declared
    );

    // Exactly the declared names and units of `part`, every value finite.
    let assert_metrics = |result: &Value, part: &str, at: &str| {
        let emitted: BTreeSet<(&str, &str)> = result
            .get("metrics")
            .and_then(Value::as_object)
            .unwrap()
            .iter()
            .map(|(name, m)| {
                assert!(m.get("value").and_then(Value::as_f64).unwrap().is_finite());
                (name.as_str(), text(m, "unit"))
            })
            .collect();
        let wanted: BTreeSet<(&str, &str)> = array(&spec, part)
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit")))
            .collect();
        assert_eq!(emitted, wanted, "{at}/{part}");
    };
    // A run's result line, as the driver reads it.
    let assert_result = |result: &Value, part: &str, at: &str| {
        let keys: BTreeSet<&str> = result
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .filter(|k| *k != "info")
            .collect();
        assert_eq!(
            keys,
            BTreeSet::from(["attempted", "correct", "failed", "metrics"]),
            "{at}/{part}"
        );
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
        assert!(result.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
        assert_metrics(result, part, at);
    };
    for (workload, entry) in ran {
        // The untraced runs are summarised; the traced run is kept as it is.
        let summary = entry.get("end_to_end").unwrap();
        assert_metrics(summary, "end_to_end", workload);
        assert!(summary
            .get("failed_share")
            .and_then(Value::as_f64)
            .is_some());
        let untraced = array(summary, "runs");
        assert!(!untraced.is_empty(), "{workload}");
        for run in untraced {
            assert_result(run, "end_to_end", workload);
        }
        assert_result(entry.get("per_layer").unwrap(), "per_layer", workload);
    }

    // One trace per workload, every span well-formed.
    let trace: Value =
        serde_json::from_str(&std::fs::read_to_string(out.join("trace.json")).unwrap()).unwrap();
    for workload in &declared {
        let spans = array(&trace, workload);
        assert!(!spans.is_empty(), "{workload} recorded no span");
        for span in spans {
            let start = span.get("start_ns").and_then(Value::as_u64).unwrap();
            let end = span.get("end_ns").and_then(Value::as_u64).unwrap();
            assert!(start <= end);
            text(span, "name");
        }
    }

    // A run compared with itself is the same everywhere; calibrate reads it.
    let results_arg = out.join("results.json");
    let results_arg = results_arg.to_str().unwrap();
    let same = benchmark(&["compare", results_arg, results_arg]);
    let listing = String::from_utf8_lossy(&same.stdout);
    assert!(same.status.success(), "{listing}");
    assert!(listing.lines().all(|l| l.starts_with("same")), "{listing}");
    assert!(listing.contains("closed_rps"));
    let ladders = benchmark(&["calibrate", results_arg]);
    assert!(ladders.status.success());
    assert_eq!(
        String::from_utf8_lossy(&ladders.stdout).lines().count(),
        declared.len()
    );
}

#[test]
fn bad_invocations_exit_non_zero_without_a_result_line() {
    for args in [
        &["run", "--workload", "no_such_workload"][..],
        &["run", "--workload", "head_read", "--trace", "2"],
        &["run", "--all"],
        &["compare", "only-one.json"],
        &["frobnicate"],
    ] {
        let out = benchmark(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
