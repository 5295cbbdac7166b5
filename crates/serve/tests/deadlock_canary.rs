//! Deadlock canary: four threads hammer one server with the operations
//! whose lock interactions L009/L010 reason about statically — predict
//! (compute permits + encoding cache), head ingest without adaptation, head ingest
//! with `update: true` (weight-update rebuild path), and `/metrics`
//! scrapes — and the test simply requires that all of them finish inside a
//! generous wall-clock bound. A lock-order inversion or a blocking call
//! under a guard that the static lints missed shows up here as a hang, and
//! the watchdog turns the hang into a failure instead of a stuck CI job.
//!
//! The workload is deterministic: fixed thread count, fixed iteration
//! counts, a fixed dataset seed, and a completion channel instead of
//! sleeps. Only the interleaving varies run to run — which is the point.

use std::sync::mpsc;
use std::time::Duration;

use logcl_core::LogClConfig;
use logcl_serve::http::Client;
use logcl_serve::{ModelSpec, ServeConfig, Server};
use logcl_tkg::{SyntheticPreset, TkgDataset};
use serde_json::Value;

/// Whole-canary budget. Generous: the workload completes in a few seconds
/// on a loaded CI runner; a deadlock never completes.
const CANARY_DEADLINE: Duration = Duration::from_secs(120);

fn tiny_ds() -> TkgDataset {
    SyntheticPreset::Icews14.generate_scaled(0.15)
}

fn tiny_cfg() -> LogClConfig {
    LogClConfig {
        dim: 16,
        time_bank: 4,
        channels: 6,
        m: 3,
        ..Default::default()
    }
}

fn test_server() -> Server {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        max_batch: 32,
        // Overload shedding has its own tests; here every request should
        // be answered, not shed, so completion is the only signal.
        brownout_sojourn: Duration::from_secs(10),
        shed_sojourn: Duration::from_secs(60),
        ..ServeConfig::default()
    };
    let spec = ModelSpec {
        name: "default".into(),
        cfg: tiny_cfg(),
        checkpoint: None,
        train: None,
    };
    Server::start(cfg, tiny_ds(), vec![spec]).expect("server must start")
}

/// One request on its own connection.
fn request(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let reply = Client::new(addr, Duration::from_secs(120))
        .and_then(|mut client| client.send(method, path, &[], body.as_bytes()))
        .expect("exchange");
    (reply.status, reply.text())
}

fn horizon_of(addr: std::net::SocketAddr) -> u64 {
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    serde_json::from_str::<Value>(&body)
        .expect("healthz JSON")
        .get("horizon")
        .and_then(Value::as_u64)
        .expect("horizon field")
}

#[test]
fn concurrent_predict_ingest_update_and_scrape_all_complete() {
    let server = test_server();
    let addr = server.addr();
    let (done_tx, done_rx) = mpsc::channel::<&'static str>();

    let mut handles = Vec::new();

    // 1) Predict hammer: exercises the compute permits and the encoding cache
    //    while ingests invalidate the cache under it.
    {
        let tx = done_tx.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..48u64 {
                let body = format!(
                    r#"{{"subject": {}, "relation": {}, "time": 0, "k": 3}}"#,
                    i % 7,
                    i % 3
                );
                let (status, body) = request(addr, "POST", "/predict", &body);
                assert!(status < 500, "predict {i}: {status} {body}");
            }
            tx.send("predict").expect("report completion");
        }));
    }

    // 2) Head ingest without adaptation: advances the streaming encoder
    //    state and the history index (racing ingests may land as
    //    backfills — also answered, also fine).
    {
        let tx = done_tx.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..8u64 {
                let t = horizon_of(addr);
                let body = format!(
                    r#"{{"time": {t}, "facts": [[{}, 0, {}]], "update": false}}"#,
                    i % 5,
                    (i + 1) % 5
                );
                let (status, body) = request(addr, "POST", "/ingest", &body);
                assert!(status < 500, "ingest {i}: {status} {body}");
            }
            tx.send("ingest").expect("report completion");
        }));
    }

    // 3) Head ingest with online adaptation: the heaviest path — gradient
    //    steps plus the weight-update encoder-state rebuild.
    {
        let tx = done_tx.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..4u64 {
                let t = horizon_of(addr);
                let body = format!(
                    r#"{{"time": {t}, "facts": [[{}, 1, {}]], "update": true}}"#,
                    i % 5,
                    (i + 2) % 5
                );
                let (status, body) = request(addr, "POST", "/ingest", &body);
                assert!(status < 500, "adapting ingest {i}: {status} {body}");
            }
            tx.send("update").expect("report completion");
        }));
    }

    // 4) Metrics scrapes: reads every counter family while the other
    //    threads are writing them.
    {
        let tx = done_tx.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..48u64 {
                let (status, body) = request(addr, "GET", "/metrics", "");
                assert_eq!(status, 200, "scrape {i}: {body}");
                assert!(
                    body.contains("logcl_encoder_state_rebuilds_total"),
                    "{body}"
                );
            }
            tx.send("scrape").expect("report completion");
        }));
    }
    drop(done_tx);

    // Watchdog: every worker must report within the shared deadline. A
    // deadlock anywhere in the serve stack leaves at least one worker
    // silent and fails here instead of hanging the test binary.
    let deadline = std::time::Instant::now() + CANARY_DEADLINE;
    let mut finished = Vec::new();
    while finished.len() < 4 {
        let left = deadline.saturating_duration_since(std::time::Instant::now());
        match done_rx.recv_timeout(left) {
            Ok(name) => finished.push(name),
            Err(e) => panic!(
                "deadlock canary tripped ({e}): only {finished:?} finished within \
                 {CANARY_DEADLINE:?} — a lock-order inversion or blocking-under-lock \
                 regression is the likely cause"
            ),
        }
    }
    for h in handles {
        h.join().expect("worker panicked");
    }
    server.shutdown();
}
