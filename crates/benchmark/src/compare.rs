//! `benchmark compare` and `benchmark calibrate`, over `results.json` files
//! written by `benchmark run --all --out <dir>`.

use std::path::Path;

use serde_json::{json, Map, Value};

use crate::spec::{compare_bound, ladder_from_closed_rps, registry, round_sig2, Better, WORKLOADS};
use crate::stats::median;
use crate::BenchError;

/// `failed / attempted` may rise by this much (absolute) before `compare`
/// calls it worse.
const FAILED_SHARE_SLACK: f64 = 0.002;

/// The verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// Worsened by more than the bound.
    Worse,
    /// Measured on neither side.
    Unresolved,
}

/// Applies a frozen bound: `b` against baseline `a`. A run reports 0 for a
/// metric it could not measure (no rung passed, no cold answer came back),
/// so a value that is missing, 0 or non-finite on one side only is a
/// finding, not a gap in the table: worse, unless a higher-is-better metric
/// rose from nothing.
pub fn verdict(a: f64, b: f64, better: Better, bound: f64) -> Verdict {
    let measured = |x: f64| x.is_finite() && x > 0.0;
    match (measured(a), measured(b)) {
        (false, false) => return Verdict::Unresolved,
        (false, true) if better == Better::Higher => return Verdict::Better,
        (false, true) | (true, false) => return Verdict::Worse,
        (true, true) => {}
    }
    // Signed worsening as a share of the baseline.
    let worsening = match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Reads and parses a `results.json`.
pub fn load(path: &Path) -> Result<Value, BenchError> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()).into())
}

fn section<'a>(doc: &'a Value, workload: &str, section: &str) -> Option<&'a Value> {
    doc.get("workloads")?.get(workload)?.get(section)
}

fn value_of(run: Option<&Value>, metric: &str) -> Option<f64> {
    run?.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// `failed / attempted` of one run, or the recorded median of several.
fn failed_share(run: Option<&Value>) -> Option<f64> {
    if let Some(share) = run?.get("failed_share") {
        return share.as_f64();
    }
    let attempted = run?.get("attempted")?.as_f64()?;
    let failed = run?.get("failed")?.as_f64()?;
    (attempted > 0.0).then(|| failed / attempted)
}

/// What `results.json` records for the untraced runs of one workload: each
/// metric's median, the median failed share, and the runs themselves.
pub fn summarise(runs: Vec<Value>) -> Value {
    let mut metrics = Map::new();
    if let Some(names) = runs
        .first()
        .and_then(|r| r.get("metrics"))
        .and_then(Value::as_object)
    {
        for (name, first) in names {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| value_of(Some(r), name))
                .collect();
            let unit = first.get("unit").cloned().unwrap_or(Value::Null);
            metrics.insert(
                name.clone(),
                json!({ "value": median(&values), "unit": unit }),
            );
        }
    }
    let shares: Vec<f64> = runs.iter().filter_map(|r| failed_share(Some(r))).collect();
    json!({
        "metrics": Value::Object(metrics),
        "failed_share": median(&shares),
        "runs": runs,
    })
}

/// Compares `b` against baseline `a`, one line per bounded (metric,
/// workload) pair with both values and the base of the ratio. Returns the
/// lines and whether anything is worse. Refuses two files whose `settings`
/// (kernel threads, run length, ladders) differ: their numbers were not
/// measured under the same conditions.
pub fn compare(a: &Value, b: &Value) -> Result<(Vec<String>, bool), BenchError> {
    match (a.get("settings"), b.get("settings")) {
        (Some(sa), Some(sb)) if sa == sb => {}
        (sa, sb) => {
            return Err(format!(
                "the two runs were not made with the same settings: {} against {}",
                sa.unwrap_or(&Value::Null),
                sb.unwrap_or(&Value::Null)
            )
            .into())
        }
    }
    let mut lines = Vec::new();
    let mut any_worse = false;
    let registry = registry();
    for workload in &WORKLOADS {
        for (part, table) in [
            ("end_to_end", &registry.end_to_end),
            ("per_layer", &registry.per_layer),
        ] {
            let (run_a, run_b) = (
                section(a, workload.name, part),
                section(b, workload.name, part),
            );
            for metric in table {
                let Some(bound) = compare_bound(&metric.name) else {
                    continue;
                };
                let va = value_of(run_a, &metric.name).unwrap_or(0.0);
                let vb = value_of(run_b, &metric.name).unwrap_or(0.0);
                let v = verdict(va, vb, metric.better, bound);
                if v == Verdict::Unresolved {
                    continue; // the metric does not exist on this workload
                }
                any_worse |= v == Verdict::Worse;
                lines.push(format!(
                    "{:<10} {:<13} {:<26} a={va:<12.4} b={vb:<12.4} {} b/a={:.4} (base a; {} is better; bound {:.0} %)",
                    format!("{v:?}").to_lowercase(),
                    workload.name,
                    metric.name,
                    metric.unit,
                    if va != 0.0 { vb / va } else { f64::NAN },
                    metric.better.word(),
                    bound * 100.0,
                ));
            }
            let (fa, fb) = (failed_share(run_a), failed_share(run_b));
            if let (Some(fa), Some(fb)) = (fa, fb) {
                let worse = fb > fa + FAILED_SHARE_SLACK;
                any_worse |= worse;
                lines.push(format!(
                    "{:<10} {:<13} {:<26} a={fa:<12.6} b={fb:<12.6} share of attempted ({part}; may rise by {FAILED_SHARE_SLACK} absolute)",
                    if worse { "worse" } else { "same" },
                    workload.name,
                    "failed_share",
                ));
            }
        }
    }
    Ok((lines, any_worse))
}

/// The ladder each workload's `closed_rps` implies: the median over
/// `seed_runs`, since a single run's throughput moves by a fifth from one
/// minute to the next on the sandbox.
pub fn calibrate(seed_runs: &[Value]) -> Vec<String> {
    WORKLOADS
        .iter()
        .map(|w| {
            let rates: Vec<f64> = seed_runs
                .iter()
                .filter_map(|run| value_of(section(run, w.name, "end_to_end"), "closed_rps"))
                .collect();
            if rates.is_empty() {
                return format!("{:<13} has no closed_rps in these files", w.name);
            }
            let rps = median(&rates);
            let [r1, r2, r3] = ladder_from_closed_rps(rps);
            format!(
                "{:<13} closed_rps={rates:.1?} median={rps:.2} S={} ladder: [{r1}, {r2}, {r3}] (frozen now: {:?})",
                w.name,
                round_sig2(rps),
                w.ladder
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_respect_direction_and_bound() {
        use Better::{Higher, Lower};
        assert_eq!(verdict(10.0, 10.9, Lower, 0.10), Verdict::Same);
        assert_eq!(verdict(10.0, 11.1, Lower, 0.10), Verdict::Worse);
        assert_eq!(verdict(10.0, 8.9, Lower, 0.10), Verdict::Better);
        assert_eq!(verdict(100.0, 92.0, Higher, 0.07), Verdict::Worse);
        assert_eq!(verdict(100.0, 108.0, Higher, 0.07), Verdict::Better);
        assert_eq!(verdict(100.0, 94.0, Higher, 0.07), Verdict::Same);
        // Dropping a rung (r2 → r1 halves the rate) is always worse.
        assert_eq!(verdict(20.0, 10.0, Higher, 0.25), Verdict::Worse);
        // No rung passes any more, a metric vanished, or one appeared
        // that the baseline could not measure: never a silent pass.
        assert_eq!(verdict(20.0, 0.0, Higher, 0.25), Verdict::Worse);
        assert_eq!(verdict(10.0, 0.0, Lower, 0.10), Verdict::Worse);
        assert_eq!(verdict(10.0, f64::NAN, Lower, 0.10), Verdict::Worse);
        assert_eq!(verdict(0.0, 10.0, Lower, 0.10), Verdict::Worse);
        assert_eq!(verdict(0.0, 20.0, Higher, 0.25), Verdict::Better);
        assert_eq!(verdict(0.0, 0.0, Lower, 0.10), Verdict::Unresolved);
    }

    fn results(threads: u64, metrics: Value, failed: u64) -> Value {
        let run = json!({ "attempted": 1000u64, "failed": failed, "metrics": metrics });
        let workload = json!({ "end_to_end": run });
        json!({
            "settings": json!({ "threads": threads }),
            "workloads": json!({ "head_read": workload }),
        })
    }

    fn rps(value: f64, failed: u64) -> Value {
        let metric = json!({ "value": value, "unit": "1/s" });
        results(1, json!({ "closed_rps": metric }), failed)
    }

    #[test]
    fn compare_flags_worse_metrics_and_more_failures() {
        let worse = |a: &Value, b: &Value| compare(a, b).unwrap().1;
        let (lines, any_worse) = compare(&rps(100.0, 0), &rps(95.0, 1)).unwrap();
        assert!(!any_worse, "{lines:?}");
        assert!(lines
            .iter()
            .any(|l| l.starts_with("same") && l.contains("closed_rps")));
        assert!(worse(&rps(100.0, 0), &rps(70.0, 0)));
        assert!(worse(&rps(100.0, 0), &rps(100.0, 3)));
        let (lines, any_worse) = compare(&rps(70.0, 3), &rps(100.0, 0)).unwrap();
        assert!(!any_worse);
        assert!(lines.iter().any(|l| l.starts_with("better")));
        // A gated metric that one side does not report is worse there.
        let without = results(1, json!({}), 0);
        assert!(worse(&rps(100.0, 0), &without));
    }

    #[test]
    fn summarise_takes_medians_and_keeps_the_runs() {
        let run = |setup: f64, failed: u64| {
            let metric = json!({ "value": setup, "unit": "s" });
            json!({
                "attempted": 1000u64,
                "failed": failed,
                "metrics": json!({ "setup_s": metric }),
            })
        };
        let summary = summarise(vec![run(9.0, 0), run(20.0, 30), run(8.0, 1)]);
        assert_eq!(value_of(Some(&summary), "setup_s"), Some(9.0));
        assert_eq!(failed_share(Some(&summary)), Some(0.001));
        assert_eq!(
            summary.get("runs").and_then(Value::as_array).unwrap().len(),
            3
        );
        let unit = summary.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(unit.get("unit"), Some(&json!("s")));
    }

    #[test]
    fn compare_refuses_runs_made_under_other_settings() {
        let metric = json!({ "value": 100.0, "unit": "1/s" });
        let two_threads = results(2, json!({ "closed_rps": metric }), 0);
        assert!(compare(&rps(100.0, 0), &two_threads).is_err());
        let unlabelled = json!({ "workloads": rps(100.0, 0).get("workloads").cloned() });
        assert!(compare(&unlabelled, &unlabelled).is_err());
    }

    /// The issue's acceptance test: the seed commit, run twice per seed,
    /// is never worse than itself in either direction.
    #[test]
    fn committed_baselines_agree_with_themselves() {
        let load = |text: &str| serde_json::from_str::<Value>(text).unwrap();
        let pairs = [
            (
                load(include_str!("../baseline/seed7-a.results.json")),
                load(include_str!("../baseline/seed7-b.results.json")),
            ),
            (
                load(include_str!("../baseline/seed11-a.results.json")),
                load(include_str!("../baseline/seed11-b.results.json")),
            ),
        ];
        for (a, b) in &pairs {
            for (x, y) in [(a, b), (b, a)] {
                let (lines, any_worse) = compare(x, y).unwrap();
                let worse: Vec<_> = lines.iter().filter(|l| l.starts_with("worse")).collect();
                assert!(!any_worse, "{worse:#?}");
            }
        }
    }

    #[test]
    fn calibrate_prints_the_rule() {
        let doc = |rps: f64| {
            let metric = json!({ "value": rps, "unit": "1/s" });
            let run = json!({ "metrics": json!({ "closed_rps": metric }) });
            let workload = json!({ "end_to_end": run });
            json!({ "workloads": json!({ "head_read": workload }) })
        };
        let lines = calibrate(&[doc(90.0), doc(134.4), doc(400.0)]);
        assert!(lines[0].contains("[16.25, 32.5, 162.5]"), "{}", lines[0]);
        assert!(lines[1].contains("no closed_rps"));
    }
}
