//! What the benchmark measures: workloads, frozen ladders, metric registry.
//!
//! `BENCHMARK.json` at the repo root carries the names, units, directions
//! and bounds the driver needs; it is compiled in ([`BENCHMARK_JSON`]) and
//! read once ([`registry`]). What that file's fixed shape has no room for —
//! ladders, latency limits, which end-to-end metric a layer metric should
//! move, the bounds `compare` holds single runs to — lives here.

use std::sync::OnceLock;

use serde_json::Value;

use crate::datasets::Kg;

/// The root `BENCHMARK.json`, as built.
pub const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// Which traffic a workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `/predict` at the head.
    HeadRead,
    /// `/predict` with an explicit historical `time`, 49 in 50 hot, 1 in 50 cold.
    HistoryRead,
    /// Paced head appends on one connection, head reads on the other.
    IngestMix,
    /// Head `/predict` through a router and two shard workers.
    ShardedRead,
}

/// One workload: data, traffic, and its frozen ladder.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Traffic shape.
    pub kind: Kind,
    /// Dataset served.
    pub kg: Kg,
    /// Open-loop rungs r1/r2/r3 in requests per second. Frozen: derived once
    /// by `benchmark calibrate` from the seed commit's `closed_rps` (S,
    /// rounded to two significant digits) by [`ladder_from_closed_rps`].
    pub ladder: [f64; 3],
    /// A rung's p90 from due time must not exceed this.
    pub limit_ms: f64,
}

/// The four workloads. Ladders are frozen from `benchmark calibrate` over the
/// four seed-commit runs in `baseline/`: S = 220, 250, 250 and 66 (see
/// README, "Calibration").
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "head_read",
        kind: Kind::HeadRead,
        kg: Kg::Kg1k,
        ladder: [27.5, 55.0, 275.0],
        limit_ms: 100.0,
    },
    Workload {
        name: "history_read",
        kind: Kind::HistoryRead,
        kg: Kg::Kg340,
        ladder: [31.25, 62.5, 312.5],
        limit_ms: 100.0,
    },
    Workload {
        name: "ingest_mix",
        kind: Kind::IngestMix,
        kg: Kg::Kg340,
        ladder: [31.25, 62.5, 312.5],
        limit_ms: 100.0,
    },
    Workload {
        name: "sharded_read",
        kind: Kind::ShardedRead,
        kg: Kg::Kg4k,
        ladder: [8.25, 16.5, 82.5],
        limit_ms: 250.0,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Rates used by `--smoke`, where a debug build serves miniature graphs and
/// only the names and the verification are asserted.
pub const SMOKE_LADDER: [f64; 3] = [4.0, 8.0, 16.0];

/// Shares of a traced run's `--seconds` given to r1, r2, the closed loop and
/// r3. The closed loop runs in three equal parts, before r1, between the
/// rungs and after r2; r3 runs last so that the overload it exists to
/// provoke cannot leak into another phase. An untraced run gives all of
/// `--seconds` to the closed loop: what the driver gates comes from it.
pub const PHASE_SHARES: [f64; 4] = [0.10, 0.30, 0.50, 0.10];

/// The ladder rule of `benchmark calibrate`: r1 = S/8, r2 = S/4,
/// r3 = 1.25·S. S comes from a closed loop whose two clients share the
/// batcher's linger window; open-loop requests mostly pay it alone, so S/2
/// already keeps the single model worker ≈60 % busy, and on a sandbox whose
/// speed moves by a third from one minute to the next the reference rung
/// then drifts in and out of overload (p50 from 6 ms to 79 ms on one
/// commit). At S/4 a slowdown of a third costs the median a tenth. r3 stays
/// above S: it must fail on the seed commit.
pub fn ladder_from_closed_rps(closed_rps: f64) -> [f64; 3] {
    let s = round_sig2(closed_rps);
    [0.125 * s, 0.25 * s, 1.25 * s]
}

/// Rounds to two significant digits.
pub fn round_sig2(x: f64) -> f64 {
    if x <= 0.0 || !x.is_finite() {
        return 0.0;
    }
    let mag = 10f64.powf(x.log10().floor() - 1.0);
    (x / mag).round() * mag
}

/// Direction of improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric, as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median the driver lets
    /// it worsen by.
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`, parsed: the one place metric names, units, directions
/// and the driver's bounds are written down.
#[derive(Debug)]
pub struct Registry {
    /// `run_seconds`: the default of `--seconds`.
    pub run_seconds: f64,
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// What an untraced run reports (`--trace 0`).
    pub end_to_end: Vec<Metric>,
    /// What a traced run reports (`--trace 1`).
    pub per_layer: Vec<Metric>,
}

fn parse_registry(text: &str) -> Option<Registry> {
    let doc: Value = serde_json::from_str(text).ok()?;
    let metrics = |key: &str| -> Option<Vec<Metric>> {
        doc.get(key)?
            .as_array()?
            .iter()
            .map(|m| {
                Some(Metric {
                    name: m.get("name")?.as_str()?.to_string(),
                    unit: m.get("unit")?.as_str()?.to_string(),
                    better: match m.get("better")?.as_str()? {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        _ => return None,
                    },
                    bound: m.get("bound").and_then(Value::as_f64),
                })
            })
            .collect()
    };
    Some(Registry {
        run_seconds: doc.get("run_seconds")?.as_f64()?,
        workloads: doc
            .get("workloads")?
            .as_array()?
            .iter()
            .map(|w| Some(w.get("name")?.as_str()?.to_string()))
            .collect::<Option<_>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// The parsed [`BENCHMARK_JSON`].
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        parse_registry(BENCHMARK_JSON).expect("the compiled-in BENCHMARK.json is well-formed")
    })
}

/// Finds a metric of either table.
pub fn metric(name: &str) -> Option<&'static Metric> {
    let r = registry();
    r.end_to_end
        .iter()
        .chain(&r.per_layer)
        .find(|m| m.name == name)
}

/// The run's counts of requests that failed (the result line's `failed`),
/// were refused or were answered degraded (its `# requests:` line): what the
/// shed, degradation and router-retry counters should move. The only `moves`
/// target that is not a metric (they are usually 0, which a metric may never
/// read).
pub const FAILED: &str = "failed";

/// Which end-to-end metric (or `client.*` row, or [`FAILED`]) each layer
/// metric should move, written down before the first run. In a closed loop
/// throughput is clients over mean latency, so whatever a request waits for
/// moves `closed_rps` (and `client.closed_p50_ms` with it). Rows that are the
/// benchmark's own health or findings (`loadgen.*`, `gap.*`, `trace.*`) and
/// the `client.*` rows themselves move nothing and are not listed.
const MOVES: [(&str, &str); 43] = [
    ("client.unloaded_p50_ms", "closed_rps"),
    // From /metrics deltas over the r2 rung and the closed loop.
    ("serve.server.request_ms_mean", "closed_rps"),
    ("serve.batcher.queue_wait_ms_mean", "client.predict_p90_ms"),
    ("serve.batcher.batch_size_mean", "closed_rps"),
    ("tensor.kernels.busy_share", "closed_rps"),
    ("tensor.kernels.busy_ms_per_request", "closed_rps"),
    ("serve.cache.hit_ratio", "client.cold_p50_ms"),
    ("serve.registry.advance_ms_mean", "client.ingest_ack_p50_ms"),
    ("serve.wal.fsyncs_per_ingest", "client.ingest_ack_p50_ms"),
    ("serve.wal.bytes_per_ingest", "client.ingest_ack_p50_ms"),
    ("serve.registry.state_rebuilds", "client.ingest_ack_p50_ms"),
    ("serve.shed.shed_total", FAILED),
    ("serve.shed.degraded_total", FAILED),
    ("cluster.router.retries_total", FAILED),
    ("cluster.router.partial_total", FAILED),
    ("cluster.router.shard_wait_ms_mean", "closed_rps"),
    ("cluster.router.overhead_ms", "closed_rps"),
    // From the traced replay: the p50 of each span.
    ("serve.http.read_request_us", "closed_rps"),
    ("serve.http.write_response_us", "closed_rps"),
    ("serve.registry.predict_group_ms", "closed_rps"),
    ("core.predict.validate_query_us", "closed_rps"),
    ("tkg.history.query_subgraph_us", "closed_rps"),
    ("core.model.forward_ms", "closed_rps"),
    ("core.model.forward_local_only_ms", "closed_rps"),
    ("core.global_encoder.share", "closed_rps"),
    ("core.predict.topk_us", "closed_rps"),
    ("gnn.rgcn.forward_ms", "closed_rps"),
    ("gnn.conv_transe.decode_us", "closed_rps"),
    ("gnn.conv_transe.score_all_us", "closed_rps"),
    ("tensor.kernels.matmul_decoder_us", "closed_rps"),
    ("tensor.kernels.matmul_rgcn_us", "closed_rps"),
    ("tensor.kernels.matmul_rgcn_gflops", "closed_rps"),
    ("core.model.encode_ms", "client.cold_p50_ms"),
    ("tkg.history.prefix_build_ms", "client.cold_p50_ms"),
    ("core.model.advance_state_ms", "client.ingest_ack_p50_ms"),
    ("core.model.shared_from_state_us", "client.fresh_p50_ms"),
    ("tkg.history.advance_us", "client.ingest_ack_p50_ms"),
    ("serve.wal.append_us", "client.ingest_ack_p50_ms"),
    ("serve.wal.sync_us", "client.ingest_ack_p50_ms"),
    ("core.trainer.online_adapt_ms", "client.update_ack_p50_ms"),
    ("core.shard.shard_topk_us", "closed_rps"),
    ("cluster.merge.parse_reply_us", "closed_rps"),
    ("cluster.merge.merge_replies_us", "closed_rps"),
];

/// The share of run `a`'s value by which run `b`'s may be worse before
/// `benchmark compare` calls it worse; `None` = reported, never gated.
///
/// `compare` gates only what one `run --all` of the seed commit repeats
/// against another (README, "Agreement of repeated runs"): `closed_rps` at
/// its `BENCHMARK.json` bound. `setup_s` moved by a quarter to two fifths
/// between two sets of runs of one commit — the driver gates its median
/// over ten, at the driver's own cap of 25 % — and every `client.*` row
/// moved by more than the issue's 10–20 % (`client.slo_rate_rps` dropped a
/// rung in two runs of 64): as the issue rules, they are informational, not
/// given wider bounds.
pub fn compare_bound(name: &str) -> Option<f64> {
    match metric(name)? {
        m if m.name == "setup_s" => None,
        m => m.bound,
    }
}

/// What layer metric `name` should move, if anything.
pub fn moves(name: &str) -> Option<&'static str> {
    MOVES.iter().find(|(m, _)| *m == name).map(|(_, to)| *to)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_rule_rounds_to_two_significant_digits() {
        assert_eq!(round_sig2(134.4), 130.0);
        assert_eq!(round_sig2(37.2), 37.0);
        assert_eq!(round_sig2(8.46), 8.5);
        assert_eq!(round_sig2(0.0), 0.0);
        assert_eq!(ladder_from_closed_rps(134.4), [16.25, 32.5, 162.5]);
    }

    #[test]
    fn phase_shares_fill_the_run() {
        assert!((PHASE_SHARES.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn benchmark_json_names_the_workloads_and_bounds_every_end_to_end_metric() {
        let r = registry();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(r.workloads, ours);
        // The issue's cap: a metric that cannot meet 20 % is demoted, its
        // bound is not widened. `setup_s` cannot be demoted — the driver
        // requires it, with the largest bound — and `compare` does not gate
        // it: it has the driver's cap.
        for m in &r.end_to_end {
            let cap = if m.name == "setup_s" { 0.25 } else { 0.20 };
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= cap), "{m:?}");
        }
        assert!(r.per_layer.iter().all(|m| m.bound.is_none()));
        let doc: Value = serde_json::from_str(BENCHMARK_JSON).unwrap();
        assert_eq!(
            doc.get("paths"),
            Some(&serde_json::json!(["crates/benchmark"]))
        );
    }

    #[test]
    fn every_moves_row_joins_a_layer_metric_to_a_real_target() {
        let r = registry();
        for (from, to) in MOVES {
            assert!(r.per_layer.iter().any(|m| m.name == from), "{from}");
            assert!(to == FAILED || metric(to).is_some(), "{from} -> {to}");
        }
        assert_eq!(
            compare_bound("closed_rps"),
            metric("closed_rps").unwrap().bound
        );
        assert!(metric("setup_s").unwrap().bound.is_some());
        assert_eq!(compare_bound("setup_s"), None);
        assert_eq!(compare_bound("client.slo_rate_rps"), None);
    }
}
