//! The ratchet must catch a real regression: replay the same seeded trace
//! against a healthy server and against one slowed via fault injection, and
//! assert the slowed run fails the ratchet check that the healthy run
//! passes. (`logcl loadgen --baseline` maps that failure to a non-zero
//! process exit; the CLI crate's `loadgen_cli` test covers the exit code
//! end-to-end.)

use std::time::Duration;

use logcl_core::LogClConfig;
use logcl_loadgen::ratchet::{self, RatchetPolicy};
use logcl_loadgen::report::BenchReport;
use logcl_loadgen::runner::{self, RunConfig};
use logcl_loadgen::schedule::{build_schedule, fingerprint, Arrival, TraceConfig};
use logcl_loadgen::LoadgenError;
use logcl_serve::{fault, ModelSpec, ServeConfig, Server};
use logcl_tkg::SyntheticPreset;

fn start_server() -> Server {
    let ds = SyntheticPreset::Icews14.generate_scaled(0.15);
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
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

fn replay(addr: &str, trace: &TraceConfig) -> BenchReport {
    let schedule = build_schedule(trace).expect("schedule");
    let fp = fingerprint(&schedule);
    let stats = runner::run(
        &schedule,
        &RunConfig {
            addr: addr.into(),
            workers: 8,
            io_timeout: Duration::from_secs(60),
            ingest_time: 0,
            ingest_update: false,
        },
    )
    .expect("run");
    BenchReport::from_run(trace, fp, &stats)
}

#[test]
fn ratchet_fails_on_a_fault_injected_slowdown() {
    let trace = TraceConfig {
        seed: 11,
        rps: 30.0,
        duration_ms: 1_200,
        arrival: Arrival::Constant,
        predict_percent: 100,
        deadline_ms: 0, // no deadlines: the slow run must answer, not 504
        deadline_jitter_pct: 0,
        num_entities: 40,
        num_rels: 8,
        k: 3,
        ingest_facts: 1,
    };

    // Healthy baseline.
    fault::clear();
    let baseline_server = start_server();
    let baseline = replay(&baseline_server.addr().to_string(), &trace);
    baseline_server.shutdown();
    assert!(
        baseline.outcomes.ok + baseline.outcomes.degraded > 0,
        "baseline produced no successes: {baseline:?}"
    );

    // A healthy re-run replays the identical schedule (fingerprints match)
    // and passes its own ratchet.
    assert_eq!(
        baseline.schedule_fingerprint,
        replay_fingerprint_only(&trace),
        "same trace must give the same schedule"
    );
    ratchet::check(&baseline, &baseline, &RatchetPolicy::default())
        .expect("a run must never regress against itself");

    // Slowed server: every compute batch eats a seeded ~50-150ms delay.
    fault::install(fault::FaultPlan {
        compute_delay: Some(Duration::from_millis(50)),
        ..fault::FaultPlan::default()
    });
    let slow_server = start_server();
    let slow = replay(&slow_server.addr().to_string(), &trace);
    slow_server.shutdown();
    fault::clear();

    let err = ratchet::check(&slow, &baseline, &RatchetPolicy::default())
        .expect_err("a 50ms+ injected delay must fail the ratchet");
    let LoadgenError::Ratchet { violations } = &err else {
        panic!("expected a ratchet violation, got: {err}");
    };
    assert!(
        violations.iter().any(|v| v.contains("latency")),
        "violations should name latency: {violations:?}"
    );
}

fn replay_fingerprint_only(trace: &TraceConfig) -> String {
    format!(
        "{:016x}",
        fingerprint(&build_schedule(trace).expect("schedule"))
    )
}
