//! End-to-end harness test: boot a real `logcl-serve` instance, replay a
//! short seeded trace open-loop, and round-trip the resulting report.

use std::time::Duration;

use logcl_core::LogClConfig;
use logcl_loadgen::report::{parse_build_info, BenchReport};
use logcl_loadgen::runner::{self, RunConfig};
use logcl_loadgen::schedule::{build_schedule, fingerprint, Arrival, TraceConfig};
use logcl_serve::{ModelSpec, ServeConfig, Server};
use logcl_tkg::SyntheticPreset;

fn test_server() -> Server {
    let ds = SyntheticPreset::Icews14.generate_scaled(0.15);
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        // Degradation thresholds pushed out of reach: this test checks the
        // harness's bookkeeping, not overload behaviour.
        brownout_sojourn: Duration::from_secs(10),
        shed_sojourn: Duration::from_secs(60),
        ..ServeConfig::default()
    };
    let spec = ModelSpec {
        name: "default".into(),
        cfg: LogClConfig {
            dim: 16,
            time_bank: 4,
            channels: 6,
            m: 3,
            ..Default::default()
        },
        checkpoint: None,
        train: None,
    };
    Server::start(cfg, ds, vec![spec]).expect("server must start")
}

#[test]
fn replay_against_live_server_produces_a_valid_report() {
    let server = test_server();
    let addr = server.addr().to_string();
    let ds = SyntheticPreset::Icews14.generate_scaled(0.15);

    let trace = TraceConfig {
        seed: 42,
        rps: 60.0,
        duration_ms: 1_500,
        arrival: Arrival::Poisson,
        predict_percent: 80,
        // Generous deadlines: this test must not flake into 504s on a
        // loaded CI box.
        deadline_ms: 20_000,
        deadline_jitter_pct: 10,
        num_entities: ds.num_entities,
        num_rels: ds.num_rels,
        k: 5,
        ingest_facts: 3,
    };
    let schedule = build_schedule(&trace).expect("schedule");
    let fp = fingerprint(&schedule);

    let run_cfg = RunConfig {
        addr: addr.clone(),
        workers: 8,
        io_timeout: Duration::from_secs(60),
        ingest_time: ds.num_times,
        ingest_update: false,
    };
    let stats = runner::run(&schedule, &run_cfg).expect("run");

    assert_eq!(
        stats.completed, stats.scheduled,
        "every request must finish"
    );
    assert_eq!(stats.transport_errors, 0, "no connection failures expected");
    assert_eq!(stats.http_errors, 0, "no 4xx/5xx beyond shed/deadline");
    assert!(stats.ok + stats.degraded > 0, "some requests must succeed");
    assert_eq!(
        stats.retry_after_missing, 0,
        "every 503/504 must carry Retry-After"
    );
    // Every response carries a degradation tier header.
    let tier_total: u64 = stats.tiers.values().sum();
    assert_eq!(tier_total, stats.completed, "tiers: {:?}", stats.tiers);
    assert!(stats.latency.count() > 0);

    // Report round-trip: build -> validate -> write -> read back.
    let mut report = BenchReport::from_run(&trace, fp, &stats);
    let (status, metrics_text) =
        runner::http_get(&addr, "/metrics", Duration::from_secs(10)).expect("metrics scrape");
    assert_eq!(status, 200);
    let build = parse_build_info(&metrics_text).expect("logcl_build_info must be exported");
    assert!(!build.version.is_empty());
    assert!(!build.backend.is_empty());
    assert_eq!(build.features, "fault-inject"); // dev-deps enable the feature
    report.build = Some(build);
    report.validate().expect("fresh report must validate");

    let dir = std::env::temp_dir().join("logcl-loadgen-harness");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_serve.json").to_string_lossy().to_string();
    report.write(&path).expect("write report");
    let back = BenchReport::read(&path).expect("read report");
    assert_eq!(back.schedule_fingerprint, report.schedule_fingerprint);
    assert_eq!(back.outcomes.ok, report.outcomes.ok);
    assert_eq!(
        back.build.as_ref().map(|b| b.backend.clone()),
        report.build.map(|b| b.backend)
    );
    std::fs::remove_dir_all(dir).ok();

    server.shutdown();
}

#[test]
fn healthz_scrape_exposes_the_ingest_horizon() {
    let server = test_server();
    let addr = server.addr().to_string();
    let (status, body) =
        runner::http_get(&addr, "/healthz", Duration::from_secs(10)).expect("healthz");
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&body).expect("healthz is JSON");
    let horizon = v.get("horizon").and_then(|h| h.as_u64()).expect("horizon");
    assert!(horizon > 0);
    server.shutdown();
}
