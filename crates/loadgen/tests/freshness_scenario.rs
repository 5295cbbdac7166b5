//! Freshness scenario end-to-end: boot a durable server, measure
//! ingest-to-visible latency for a run of head appends (with online
//! adaptation on), then reboot over the same WAL directory and check the
//! replayed stream is still visible — the recorded appends double as a
//! crash-recovery regression corpus.

use std::path::PathBuf;
use std::time::Duration;

use logcl_core::LogClConfig;
use logcl_loadgen::freshness::{self, FreshnessConfig};
use logcl_loadgen::runner;
use logcl_serve::{ModelSpec, ServeConfig, Server};
use logcl_tkg::{SyntheticPreset, TkgDataset};

fn tiny_ds() -> TkgDataset {
    SyntheticPreset::Icews14.generate_scaled(0.15)
}

fn spec() -> ModelSpec {
    ModelSpec {
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
    }
}

fn durable_server(dir: &std::path::Path) -> Server {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        brownout_sojourn: Duration::from_secs(10),
        shed_sojourn: Duration::from_secs(60),
        wal_dir: Some(dir.to_path_buf()),
        online_steps: 1,
        ..ServeConfig::default()
    };
    Server::start(cfg, tiny_ds(), vec![spec()]).expect("server must start")
}

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("logcl-freshness-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn horizon_of(addr: &str) -> u64 {
    let (status, body) =
        runner::http_get(addr, "/healthz", Duration::from_secs(30)).expect("healthz");
    assert_eq!(status, 200, "{body}");
    let v: serde_json::Value = serde_json::from_str(&body).expect("healthz JSON");
    v.get("horizon")
        .and_then(serde_json::Value::as_u64)
        .unwrap()
}

#[test]
fn head_appends_become_visible_and_survive_a_reboot() {
    let dir = scratch();
    let ds = tiny_ds();
    let server = durable_server(&dir);
    let addr = server.addr().to_string();
    let start_horizon = horizon_of(&addr);

    let cfg = FreshnessConfig {
        addr: addr.clone(),
        rounds: 4,
        // Generous SLO: this test asserts the pipeline works, not that CI
        // hardware is fast. The CLI run is where the SLO bites.
        slo_ms: 30_000,
        update: true,
        io_timeout: Duration::from_secs(60),
        num_entities: ds.num_entities,
        num_rels: ds.num_rels,
    };
    let report = freshness::run(&cfg).expect("freshness run");
    assert_eq!(report.rounds.len(), 4);
    assert_eq!(report.violations(), 0, "rounds: {:?}", report.rounds);
    for (i, round) in report.rounds.iter().enumerate() {
        assert_eq!(
            round.ingest_time,
            start_horizon + i as u64,
            "each round must append at the then-current head"
        );
        assert!(
            round.visible_micros >= round.ingest_micros,
            "visibility includes the ingest ack: {round:?}"
        );
    }
    assert_eq!(horizon_of(&addr), start_horizon + 4);
    server.shutdown();

    // Reboot over the same WAL dir: the appends replay through the
    // incremental advance path and the stream must still be queryable.
    let reborn = durable_server(&dir);
    let addr = reborn.addr().to_string();
    assert_eq!(horizon_of(&addr), start_horizon + 4);
    let probe = format!(
        r#"{{"subject": 0, "relation": 0, "time": {}, "k": 2}}"#,
        start_horizon + 4
    );
    let (status, body) =
        runner::http_post(&addr, "/predict", &probe, Duration::from_secs(60)).expect("predict");
    assert_eq!(status, 200, "replayed head must answer: {body}");
    reborn.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
