//! Burst-vs-brownout chaos scenario: replay a seeded bursty trace against a
//! real server whose brownout threshold is within reach, with a
//! fault-injected per-batch compute delay so the queue sojourn is governed
//! by the plan rather than CI machine speed. The server must brown out
//! during the peaks, keep answering (every request completes, every
//! 503/504 carries Retry-After), and return to the normal tier once the
//! burst traffic stops.

use std::time::Duration;

use logcl_core::LogClConfig;
use logcl_loadgen::runner::{self, RunConfig};
use logcl_loadgen::schedule::{build_schedule, Arrival, TraceConfig};
use logcl_serve::fault::{self, FaultPlan};
use logcl_serve::{ModelSpec, ServeConfig, Server};
use logcl_tkg::SyntheticPreset;

#[test]
fn bursty_load_browns_out_and_recovers_to_normal() {
    let ds = SyntheticPreset::Icews14.generate_scaled(0.15);
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        // One request per batch so the injected per-batch delay caps the
        // service rate at a known ~250 rps, well under the burst peaks.
        max_batch: 1,
        // Brownout within easy reach of the peaks (queue depth in the tens
        // of injected 4ms batches) but above the single-batch sojourn seen
        // at the base rate; shedding out of reach so the scenario isolates
        // the brownout tier.
        brownout_sojourn: Duration::from_millis(25),
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
    fault::install(FaultPlan {
        compute_delay: Some(Duration::from_millis(4)),
        ..FaultPlan::default()
    });
    let server = Server::start(cfg, ds.clone(), vec![spec]).expect("server must start");
    let addr = server.addr().to_string();

    // 3 burst periods: 200ms peaks at 8x the 50 rps base rate (~400 rps,
    // exceeding the ~250 rps fault-capped service rate), 800ms troughs that
    // drain the queue back under the brownout threshold.
    let trace = TraceConfig {
        seed: 1_337,
        rps: 50.0,
        duration_ms: 3_000,
        arrival: Arrival::Burst {
            period_ms: 1_000,
            duty_pct: 20,
            peak_mult: 8,
        },
        predict_percent: 100,
        // Generous deadlines: brownout, not deadline pressure, is under test.
        deadline_ms: 20_000,
        deadline_jitter_pct: 0,
        num_entities: ds.num_entities,
        num_rels: ds.num_rels,
        k: 5,
        ingest_facts: 3,
    };
    let schedule = build_schedule(&trace).expect("schedule");
    let run_cfg = RunConfig {
        addr: addr.clone(),
        workers: 8,
        io_timeout: Duration::from_secs(60),
        ingest_time: ds.num_times,
        ingest_update: false,
    };
    let stats = runner::run(&schedule, &run_cfg).expect("run");

    // Chaos invariants: nothing is dropped, overload is survived (not
    // errored), and degraded answers are honestly labelled.
    assert_eq!(
        stats.completed, stats.scheduled,
        "every request must finish"
    );
    assert_eq!(stats.transport_errors, 0, "no connection failures expected");
    assert_eq!(
        stats.retry_after_missing, 0,
        "every 503/504 must carry Retry-After"
    );
    assert!(
        stats.ok + stats.degraded == stats.completed - stats.shed_503 - stats.deadline_504,
        "outcomes must partition: {stats:?}"
    );
    let browned = stats.tiers.get("brownout").copied().unwrap_or(0);
    let normal = stats.tiers.get("normal").copied().unwrap_or(0);
    assert!(
        browned > 0,
        "burst peaks must drive the server into brownout, tiers: {:?}",
        stats.tiers
    );
    assert!(
        normal > 0,
        "troughs must recover to the normal tier, tiers: {:?}",
        stats.tiers
    );

    // Post-burst recovery: the tier steps down one level per
    // `recovery_streak` consecutive healthy observations, so the first
    // probe run walks the state machine back to normal and the second must
    // then be served entirely at the normal tier.
    fault::clear();
    std::thread::sleep(Duration::from_millis(400));
    let probe_trace = TraceConfig {
        rps: 40.0,
        duration_ms: 250,
        arrival: Arrival::Constant,
        ..trace
    };
    let probe = build_schedule(&probe_trace).expect("probe schedule");
    assert!(!probe.is_empty());
    let walk_down = runner::run(&probe, &run_cfg).expect("first probe run");
    assert!(
        walk_down.tiers.get("normal").copied().unwrap_or(0) > 0,
        "recovery must reach the normal tier, tiers: {:?}",
        walk_down.tiers
    );
    let settled = runner::run(&probe, &run_cfg).expect("second probe run");
    assert_eq!(
        settled.tiers.get("normal").copied().unwrap_or(0),
        settled.completed,
        "a settled server must serve everything at the normal tier, tiers: {:?}",
        settled.tiers
    );

    server.shutdown();
}
