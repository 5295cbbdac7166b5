//! Router + real workers end-to-end: scatter-gather predict bit-identical
//! to single-node (to the cap's depth when a shard is in Brownout),
//! exactly-once ingest fan-out (including the
//! double-send-across-a-worker-restart case), partial-result degradation
//! when a shard dies, recovery back to full coverage, and metrics.

use std::net::TcpListener;
use std::path::Path;
use std::time::{Duration, Instant};

use logcl_cluster::{Router, RouterConfig, WorkerState};
use logcl_core::ShardSpec;
use logcl_serve::http::{read_request, write_response, Response};
use logcl_serve::{ServeConfig, Server};
use serde_json::Value;

mod common;
use common::{
    header_of, horizon_of, json, request, request_full, scratch, tiny_ds, untrained_spec, Scratch,
};

const SHARDS: usize = 3;

/// Boots one worker. `addr` lets a restarted worker rebind its old port;
/// `wal_dir` makes its ingest durable.
fn worker(shard: Option<ShardSpec>, addr: &str, wal_dir: Option<&Path>) -> Server {
    let cfg = ServeConfig {
        addr: addr.into(),
        shard,
        wal_dir: wal_dir.map(Path::to_path_buf),
        brownout_sojourn: Duration::from_secs(10),
        shed_sojourn: Duration::from_secs(60),
        ..ServeConfig::default()
    };
    Server::start(cfg, tiny_ds(), vec![untrained_spec()]).expect("worker must start")
}

fn router_over(workers: &[&Server]) -> Router {
    let cfg = RouterConfig {
        shards: workers.iter().map(|w| vec![w.addr().to_string()]).collect(),
        retries: 1,
        retry_base: Duration::from_millis(5),
        probe_interval: Duration::from_millis(50),
        connect_timeout: Duration::from_millis(250),
        ..RouterConfig::default()
    };
    Router::start(cfg).expect("router must start")
}

/// `(entity, score_bits)` pairs from a predict reply, in rank order.
fn ranking(body: &Value) -> Vec<(u64, u64)> {
    body.get("predictions")
        .and_then(Value::as_array)
        .expect("predictions array")
        .iter()
        .map(|p| {
            (
                p.get("entity").and_then(Value::as_u64).expect("entity"),
                p.get("score_bits").and_then(Value::as_u64).expect("bits"),
            )
        })
        .collect()
}

// ----------------------------------------------------------------- predict

/// Predicting through the router over three sharded workers must reproduce
/// the single-node top-k bit-for-bit: same entities, same order, same raw
/// score bit patterns, with full coverage and no degradation flag.
#[test]
fn router_predict_is_bit_identical_to_single_node() {
    let single = worker(None, "127.0.0.1:0", None);
    let workers: Vec<Server> = (0..SHARDS)
        .map(|i| {
            worker(
                Some(ShardSpec::new(i, SHARDS).unwrap()),
                "127.0.0.1:0",
                None,
            )
        })
        .collect();
    let router = router_over(&workers.iter().collect::<Vec<_>>());
    let t = horizon_of(single.addr());

    for (s, r, k) in [(0u64, 0u64, 5usize), (1, 0, 10), (3, 1, 7)] {
        let query = format!(r#"{{"subject": {s}, "relation": {r}, "time": {t}, "k": {k}}}"#);
        let (status, want_body) = request(single.addr(), "POST", "/predict", &query);
        assert_eq!(status, 200, "{want_body}");
        let want = ranking(&json(&want_body));

        let (status, headers, body) = request_full(router.addr(), "POST", "/predict", &query, &[]);
        assert_eq!(status, 200, "{body}");
        let reply = json(&body);
        assert_eq!(ranking(&reply), want, "query ({s},{r}) diverged");
        assert_eq!(reply.get("degraded").and_then(Value::as_bool), Some(false));
        assert_eq!(reply.get("coverage").and_then(Value::as_f64), Some(1.0));
        let shards = reply.get("shards").expect("shards summary");
        let answered: Vec<u64> = shards
            .get("answered")
            .and_then(Value::as_array)
            .expect("answered shard list")
            .iter()
            .filter_map(Value::as_u64)
            .collect();
        assert_eq!(answered, vec![0, 1, 2], "{reply}");
        assert_eq!(shards.get("total").and_then(Value::as_u64), Some(3));
        assert_eq!(header_of(&headers, "x-logcl-degradation"), Some("normal"));
    }

    router.shutdown();
    for w in workers {
        w.shutdown();
    }
    single.shutdown();
}

/// A worker in Brownout caps its `k` and keeps its scores exact, so a router
/// over it and a Normal-tier peer answers the single node's ranking to the
/// cap's depth, bit-for-bit — flagged degraded, tier `brownout`.
#[test]
fn a_browned_out_shard_merges_to_the_single_node_prefix() {
    let single = worker(None, "127.0.0.1:0", None);
    let normal = worker(Some(ShardSpec::new(0, 2).unwrap()), "127.0.0.1:0", None);
    // A zero threshold pins this worker at (at least) Brownout.
    let browned_out = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            shard: Some(ShardSpec::new(1, 2).unwrap()),
            brownout_sojourn: Duration::ZERO,
            shed_sojourn: Duration::from_secs(60),
            ..ServeConfig::default()
        },
        tiny_ds(),
        vec![untrained_spec()],
    )
    .expect("worker must start");
    let cap = ServeConfig::default().brownout_k_cap;
    let router = router_over(&[&normal, &browned_out]);
    let t = horizon_of(single.addr());

    for (s, r) in [(0u64, 0u64), (1, 0), (3, 1)] {
        let query = format!(r#"{{"subject": {s}, "relation": {r}, "time": {t}, "k": 7}}"#);
        let (status, want_body) = request(single.addr(), "POST", "/predict", &query);
        assert_eq!(status, 200, "{want_body}");
        let want = ranking(&json(&want_body));

        let (status, headers, body) = request_full(router.addr(), "POST", "/predict", &query, &[]);
        assert_eq!(status, 200, "{body}");
        let reply = json(&body);
        assert_eq!(ranking(&reply), want[..cap], "query ({s},{r}) diverged");
        assert_eq!(reply.get("degraded").and_then(Value::as_bool), Some(true));
        assert_eq!(reply.get("coverage").and_then(Value::as_f64), Some(1.0));
        assert_eq!(header_of(&headers, "x-logcl-degradation"), Some("brownout"));
    }

    router.shutdown();
    normal.shutdown();
    browned_out.shutdown();
    single.shutdown();
}

/// A dead shard with the retry budget exhausted must degrade, not fail:
/// 200 with `degraded: true`, partial coverage, the partial tier header and
/// Retry-After discipline — and after the worker returns, the router walks
/// it back to Up and full coverage resumes.
#[test]
fn dead_shard_degrades_to_partial_answers_then_recovers() {
    let workers: Vec<Server> = (0..SHARDS)
        .map(|i| {
            worker(
                Some(ShardSpec::new(i, SHARDS).unwrap()),
                "127.0.0.1:0",
                None,
            )
        })
        .collect();
    let victim_addr = workers[2].addr();
    let router = router_over(&workers.iter().collect::<Vec<_>>());
    let t = horizon_of(workers[0].addr());
    let query = format!(r#"{{"subject": 0, "relation": 0, "time": {t}, "k": 5}}"#);

    // Kill shard 2 (in-process stand-in for kill -9: the listener closes and
    // connections are refused, which is what the router observes either way).
    let mut workers = workers;
    workers.remove(2).shutdown();

    let (status, headers, body) = request_full(router.addr(), "POST", "/predict", &query, &[]);
    assert_eq!(status, 200, "a dead shard must degrade, not 5xx: {body}");
    let reply = json(&body);
    assert_eq!(reply.get("degraded").and_then(Value::as_bool), Some(true));
    let coverage = reply
        .get("coverage")
        .and_then(Value::as_f64)
        .expect("coverage");
    assert!(
        (0.0..1.0).contains(&coverage) && coverage > 0.5,
        "coverage should be ~2/3, got {coverage}"
    );
    assert_eq!(header_of(&headers, "x-logcl-degradation"), Some("partial"));
    assert!(
        header_of(&headers, "retry-after").is_some(),
        "partial answers must carry Retry-After"
    );
    assert!(
        !reply
            .get("predictions")
            .and_then(Value::as_array)
            .unwrap()
            .is_empty(),
        "surviving shards must still answer"
    );

    // The router noticed: shard 2's replica is no longer Up.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let state = router.shard_states()[2][0];
        if state != WorkerState::Up {
            break;
        }
        assert!(Instant::now() < deadline, "shard 2 never left Up");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Restart the worker on its old port; the prober walks it back to Up
    // and coverage returns to 1.0.
    let reborn = worker(
        Some(ShardSpec::new(2, SHARDS).unwrap()),
        &victim_addr.to_string(),
        None,
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, _, body) = request_full(router.addr(), "POST", "/predict", &query, &[]);
        assert_eq!(status, 200, "{body}");
        let reply = json(&body);
        if reply.get("coverage").and_then(Value::as_f64) == Some(1.0) {
            assert_eq!(reply.get("degraded").and_then(Value::as_bool), Some(false));
            break;
        }
        assert!(
            Instant::now() < deadline,
            "coverage never returned to 1.0 after restart"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(router.shard_states()[2][0], WorkerState::Up);

    router.shutdown();
    reborn.shutdown();
    for w in workers {
        w.shutdown();
    }
}

// ------------------------------------------------------------------ ingest

/// Exactly-once ingest across the cluster, including a worker restart in
/// the middle of a client double-send: the router fans one ingest id to
/// every worker, a retry with the same id is deduplicated everywhere —
/// even by a worker that crashed and recovered from its WAL between the
/// two sends — and no shard's WAL ends up with duplicate facts.
#[test]
fn duplicate_ingest_across_worker_restart_applies_exactly_once() {
    let dirs: Vec<Scratch> = (0..SHARDS).map(|i| scratch(&format!("wal-{i}"))).collect();
    let workers: Vec<Server> = (0..SHARDS)
        .map(|i| {
            worker(
                Some(ShardSpec::new(i, SHARDS).unwrap()),
                "127.0.0.1:0",
                Some(&dirs[i]),
            )
        })
        .collect();
    let router = router_over(&workers.iter().collect::<Vec<_>>());
    let t0 = horizon_of(workers[0].addr());

    let ingest_body = format!(r#"{{"time": {t0}, "facts": [[1, 0, 2], [3, 1, 4]]}}"#);
    let id_header = [("X-LogCL-Ingest-Id", "cluster-dup-1")];

    let (status, headers, body) =
        request_full(router.addr(), "POST", "/ingest", &ingest_body, &id_header);
    assert_eq!(status, 200, "{body}");
    let first = json(&body);
    assert_eq!(first.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(first.get("workers").and_then(Value::as_u64), Some(3));
    assert_eq!(first.get("acked").and_then(Value::as_u64), Some(3));
    assert_eq!(first.get("appended").and_then(Value::as_u64), Some(2));
    assert_eq!(
        first.get("deduplicated").and_then(Value::as_bool),
        Some(false)
    );
    assert_eq!(
        header_of(&headers, "x-logcl-ingest-id"),
        Some("cluster-dup-1"),
        "the router must echo the id it used"
    );
    for w in &workers {
        assert_eq!(horizon_of(w.addr()), t0 + 1, "every worker advanced once");
    }

    // Worker 0 dies and recovers from its WAL on the same port.
    let victim_addr = workers[0].addr();
    let mut workers = workers;
    workers.remove(0).shutdown();
    let reborn = worker(
        Some(ShardSpec::new(0, SHARDS).unwrap()),
        &victim_addr.to_string(),
        Some(&dirs[0]),
    );
    assert_eq!(
        horizon_of(reborn.addr()),
        t0 + 1,
        "the restarted worker must recover the acked ingest from its WAL"
    );

    // The client double-sends the SAME id through the router.
    let (status, headers, body) =
        request_full(router.addr(), "POST", "/ingest", &ingest_body, &id_header);
    assert_eq!(status, 200, "{body}");
    let retry = json(&body);
    assert_eq!(retry.get("acked").and_then(Value::as_u64), Some(3));
    assert_eq!(
        retry.get("deduplicated").and_then(Value::as_bool),
        Some(true),
        "every worker (including the restarted one) must dedupe: {retry}"
    );
    assert_eq!(
        retry.get("appended").and_then(Value::as_u64),
        Some(2),
        "the remembered outcome is replayed, not re-applied"
    );
    assert_eq!(
        header_of(&headers, "x-logcl-ingest-id"),
        Some("cluster-dup-1")
    );

    // No duplicate facts in any shard's WAL: each worker's horizon moved
    // exactly once, and a fresh recovery from each WAL replays exactly one
    // ingest frame.
    assert_eq!(horizon_of(reborn.addr()), t0 + 1);
    for w in &workers {
        assert_eq!(horizon_of(w.addr()), t0 + 1);
    }
    router.shutdown();
    reborn.shutdown();
    for w in workers {
        w.shutdown();
    }
    for dir in &dirs {
        let check = worker(None, "127.0.0.1:0", Some(dir));
        assert_eq!(
            check
                .metrics()
                .wal_replayed_frames
                .load(std::sync::atomic::Ordering::Relaxed),
            1,
            "WAL at {} must hold exactly one ingest frame",
            dir.display()
        );
        assert_eq!(horizon_of(check.addr()), t0 + 1);
        check.shutdown();
    }
}

// ----------------------------------------------------------------- metrics

/// The router's scrape exposes per-shard health gauges, pre-registered
/// retry reasons, and latency histograms that actually observe traffic.
#[test]
fn metrics_scrape_reflects_cluster_traffic() {
    let workers: Vec<Server> = (0..SHARDS)
        .map(|i| {
            worker(
                Some(ShardSpec::new(i, SHARDS).unwrap()),
                "127.0.0.1:0",
                None,
            )
        })
        .collect();
    let router = router_over(&workers.iter().collect::<Vec<_>>());
    let t = horizon_of(workers[0].addr());
    let query = format!(r#"{{"subject": 0, "relation": 0, "time": {t}, "k": 5}}"#);
    let (status, body) = request(router.addr(), "POST", "/predict", &query);
    assert_eq!(status, 200, "{body}");

    let (status, text) = request(router.addr(), "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        text.contains("logcl_router_predict_requests_total 1"),
        "{text}"
    );
    for shard in 0..SHARDS {
        assert!(
            text.contains(&format!(
                "logcl_router_shard_state{{shard=\"{shard}\",replica=\"0\"}} 3"
            )),
            "shard {shard} should scrape as Up (3): {text}"
        );
        assert!(
            text.contains(&format!(
                "logcl_router_shard_{shard}_latency_seconds_count 1"
            )),
            "shard {shard} latency histogram should have observed the hop: {text}"
        );
    }
    for reason in ["connect", "timeout", "http", "io"] {
        assert!(
            text.contains(&format!(
                "logcl_router_retries_total{{reason=\"{reason}\"}}"
            )),
            "retry reason {reason} must be pre-registered: {text}"
        );
    }
    assert!(text.contains("logcl_partial_responses_total 0"), "{text}");
    assert!(text.contains("logcl_router_hedges_total 0"), "{text}");

    router.shutdown();
    for w in workers {
        w.shutdown();
    }
}

/// A stand-in for a worker whose every answer is a `200` the router cannot
/// read as a shard reply: a real shard answer cut off mid-candidate. It
/// serves until the test process ends.
fn unreadable_worker() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for mut stream in listener.incoming().flatten() {
            std::thread::spawn(move || {
                while let Ok(req) = read_request(&mut stream) {
                    let body = r#"{"predictions":[{"entity":1,"name":"e1","score_bits":10"#;
                    let resp = Response::json(200, body.to_string());
                    if write_response(&mut stream, &resp, req.keep_alive).is_err()
                        || !req.keep_alive
                    {
                        break;
                    }
                }
            });
        }
    });
    addr
}

/// A shard whose `200` cannot be read is a failed shard, never merged on a
/// guess — and never dropped without a trace: the answer is partial
/// (shard 0 alone, coverage its half of the vocabulary) and
/// `logcl_router_unreadable_replies_total` reads 1.
#[test]
fn an_unreadable_shard_reply_is_counted_and_answered_partially() {
    let live = worker(Some(ShardSpec::new(0, 2).unwrap()), "127.0.0.1:0", None);
    let router = Router::start(RouterConfig {
        shards: vec![vec![live.addr().to_string()], vec![unreadable_worker()]],
        probe_interval: Duration::from_millis(50),
        connect_timeout: Duration::from_millis(250),
        ..RouterConfig::default()
    })
    .expect("router must start");
    let t = horizon_of(live.addr());
    let query = format!(r#"{{"subject": 0, "relation": 0, "time": {t}, "k": 5}}"#);

    let (status, headers, body) = request_full(router.addr(), "POST", "/predict", &query, &[]);
    assert_eq!(status, 200, "{body}");
    let reply = json(&body);
    // Shard 0 of 2 holds 26 of the smoke graph's 51 entities: ≈ half.
    let entities = tiny_ds().num_entities;
    let (lo, hi) = ShardSpec::new(0, 2).unwrap().range(entities);
    let half = (hi - lo) as f64 / entities as f64;
    assert_eq!(reply.get("coverage").and_then(Value::as_f64), Some(half));
    assert_eq!(reply.get("degraded").and_then(Value::as_bool), Some(true));
    let answered: Vec<u64> = reply
        .get("shards")
        .and_then(|s| s.get("answered"))
        .and_then(Value::as_array)
        .expect("answered shard list")
        .iter()
        .filter_map(Value::as_u64)
        .collect();
    assert_eq!(answered, vec![0], "{reply}");
    assert_eq!(header_of(&headers, "x-logcl-degradation"), Some("partial"));

    let (status, text) = request(router.addr(), "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        text.contains("logcl_router_unreadable_replies_total 1"),
        "{text}"
    );
    assert!(text.contains("logcl_partial_responses_total 1"), "{text}");

    router.shutdown();
    live.shutdown();
}
