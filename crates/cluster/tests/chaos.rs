//! Chaos suite (only built with `--features fault-inject`): seeded fault
//! plans at the router's network boundaries prove the liveness story —
//! a refused shard degrades to partial answers instead of 5xx storms or
//! hangs, a stalled shard is hedged around, a probe blackhole still
//! recovers through passive traffic, and clearing the plan walks the
//! afflicted shard back to Up. The last two cases put the faults on the
//! workers' side of a kept-alive hop (`logcl_serve::fault`): a socket that
//! carried a 5xx or outlived its deadline never goes back to the pool.
#![cfg(feature = "fault-inject")]

use std::sync::Mutex;
use std::time::{Duration, Instant};

use logcl_cluster::fault::{clear, fired, install, FaultPlan, FaultPoint};
use logcl_cluster::{Router, RouterConfig, WorkerState};
use logcl_core::ShardSpec;
use logcl_serve::http::Client;
use logcl_serve::{ServeConfig, Server};
use serde_json::Value;

mod common;
use common::{header_of, horizon_of, json, request, request_full, tiny_ds, untrained_spec};

const SHARDS: usize = 3;

/// The fault plan is process-global; chaos tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn workers() -> Vec<Server> {
    (0..SHARDS)
        .map(|i| {
            let cfg = ServeConfig {
                addr: "127.0.0.1:0".into(),
                shard: Some(ShardSpec::new(i, SHARDS).unwrap()),
                brownout_sojourn: Duration::from_secs(10),
                shed_sojourn: Duration::from_secs(60),
                ..ServeConfig::default()
            };
            Server::start(cfg, tiny_ds(), vec![untrained_spec()]).expect("worker must start")
        })
        .collect()
}

fn router_over(workers: &[Server], hedge_after: Option<Duration>) -> Router {
    let cfg = RouterConfig {
        shards: workers.iter().map(|w| vec![w.addr().to_string()]).collect(),
        retries: 2,
        retry_base: Duration::from_millis(2),
        hedge_after,
        probe_interval: Duration::from_millis(50),
        connect_timeout: Duration::from_millis(250),
        default_deadline: Duration::from_secs(10),
        seed: 0xc4a0_5eed,
        ..RouterConfig::default()
    };
    Router::start(cfg).expect("router must start")
}

fn predict(router: &Router, query: &str) -> (u16, Vec<(String, String)>, Value) {
    let (status, headers, body) = request_full(router.addr(), "POST", "/predict", query, &[]);
    let v = json(&body);
    (status, headers, v)
}

/// Refused connects to one shard must yield prompt partial answers (never
/// a hang or a 5xx), and clearing the plan walks the shard back to Up and
/// coverage back to 1.0.
#[test]
fn refused_shard_degrades_promptly_and_recovers_when_the_fault_lifts() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let ws = workers();
    let router = router_over(&ws, None);
    let t = horizon_of(ws[0].addr());
    let query = format!(r#"{{"subject": 0, "relation": 0, "time": {t}, "k": 5}}"#);

    install(FaultPlan {
        seed: 7,
        connect_refuse_shard: Some(2),
        ..FaultPlan::default()
    });

    // Liveness: with retries exhausted against an injected refusal, the
    // answer must arrive quickly (bounded by backoff, nowhere near the
    // 10s deadline) and be a partial 200, not a 5xx.
    let started = Instant::now();
    let (status, headers, reply) = predict(&router, &query);
    let elapsed = started.elapsed();
    assert_eq!(status, 200, "{reply}");
    assert_eq!(reply.get("degraded").and_then(Value::as_bool), Some(true));
    let coverage = reply.get("coverage").and_then(Value::as_f64).unwrap();
    assert!(coverage > 0.5 && coverage < 1.0, "coverage {coverage}");
    assert_eq!(header_of(&headers, "x-logcl-degradation"), Some("partial"));
    assert!(header_of(&headers, "retry-after").is_some());
    assert!(
        elapsed < Duration::from_secs(5),
        "degradation must be prompt, took {elapsed:?}"
    );
    assert!(fired(FaultPoint::ConnectRefuse) > 0);

    // Three straight failures walked the replica to Down.
    assert_eq!(router.shard_states()[2][0], WorkerState::Down);

    // Fault lifts: the prober (50ms interval) probes the Down replica and
    // walks it back to Up; coverage returns to 1.0.
    clear();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, _, reply) = predict(&router, &query);
        assert_eq!(status, 200);
        if reply.get("coverage").and_then(Value::as_f64) == Some(1.0) {
            break;
        }
        assert!(Instant::now() < deadline, "never recovered: {reply}");
        std::thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(router.shard_states()[2][0], WorkerState::Up);

    router.shutdown();
    for w in ws {
        w.shutdown();
    }
}

/// A stalled (live-but-wedged) shard triggers tail-latency hedging: the
/// hedge fires after `hedge_after`, the answer still arrives with full
/// coverage, and `logcl_router_hedges_total` counts it.
#[test]
fn stalled_shard_is_hedged_and_still_answers_in_full() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let ws = workers();
    let router = router_over(&ws, Some(Duration::from_millis(10)));
    let t = horizon_of(ws[0].addr());
    let query = format!(r#"{{"subject": 1, "relation": 0, "time": {t}, "k": 5}}"#);

    install(FaultPlan {
        seed: 11,
        stall_shard: Some(0),
        stall: Some(Duration::from_millis(60)),
        ..FaultPlan::default()
    });

    let (status, _, reply) = predict(&router, &query);
    assert_eq!(status, 200, "{reply}");
    assert_eq!(
        reply.get("coverage").and_then(Value::as_f64),
        Some(1.0),
        "a stall is slow, not lossy: {reply}"
    );
    assert!(fired(FaultPoint::ShardStall) > 0);

    let (_, text) = request(router.addr(), "GET", "/metrics", "");
    let hedges: u64 = text
        .lines()
        .find(|l| l.starts_with("logcl_router_hedges_total"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .expect("hedges counter in scrape");
    assert!(hedges > 0, "the stalled shard should have been hedged");

    clear();
    router.shutdown();
    for w in ws {
        w.shutdown();
    }
}

/// With active probes blackholed, a downed shard can only recover through
/// passive traffic — and it does: the single cheap attempt the router
/// grants an all-Down shard doubles as the recovery signal.
#[test]
fn probe_blackhole_still_recovers_via_passive_traffic() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let ws = workers();
    let router = router_over(&ws, None);
    let t = horizon_of(ws[0].addr());
    let query = format!(r#"{{"subject": 2, "relation": 1, "time": {t}, "k": 5}}"#);

    install(FaultPlan {
        seed: 13,
        connect_refuse_shard: Some(1),
        probe_blackhole: true,
        ..FaultPlan::default()
    });

    let (status, _, reply) = predict(&router, &query);
    assert_eq!(status, 200, "{reply}");
    assert_eq!(reply.get("degraded").and_then(Value::as_bool), Some(true));
    assert_eq!(router.shard_states()[1][0], WorkerState::Down);

    // The prober keeps trying and keeps being blackholed.
    let deadline = Instant::now() + Duration::from_secs(5);
    while fired(FaultPoint::ProbeBlackhole) == 0 {
        assert!(Instant::now() < deadline, "prober never attempted a probe");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        router.shard_states()[1][0],
        WorkerState::Down,
        "blackholed probes must not revive the shard"
    );

    // Connects work again but probes stay dark: recovery must come from
    // the passive attempt on live traffic.
    install(FaultPlan {
        seed: 13,
        probe_blackhole: true,
        ..FaultPlan::default()
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, _, reply) = predict(&router, &query);
        assert_eq!(status, 200);
        if reply.get("coverage").and_then(Value::as_f64) == Some(1.0) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "passive traffic never revived the shard: {reply}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(router.shard_states()[1][0], WorkerState::Up);

    clear();
    router.shutdown();
    for w in ws {
        w.shutdown();
    }
}

// ------------------------------------------------- pooled hop connections

fn idle_everywhere(router: &Router, want: usize) -> bool {
    router
        .idle_hop_connections()
        .iter()
        .all(|group| group.iter().all(|&idle| idle == want))
}

/// Workers that shed every request (`503`) get none of their sockets back:
/// the pool empties instead of recycling connections to a refusing peer,
/// and refills — one socket a shard — once they recover.
#[test]
fn a_5xx_never_returns_its_socket_and_the_pool_refills_on_recovery() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let ws = workers();
    let router = router_over(&ws, None);
    let t = horizon_of(ws[0].addr());
    let query = format!(r#"{{"subject": 3, "relation": 0, "time": {t}, "k": 5}}"#);

    let (status, _, reply) = predict(&router, &query);
    assert_eq!(status, 200, "{reply}");
    assert!(
        idle_everywhere(&router, 1),
        "{:?}",
        router.idle_hop_connections()
    );

    logcl_serve::fault::install(logcl_serve::fault::FaultPlan {
        queue_saturated: true,
        ..Default::default()
    });
    let (status, headers, reply) = predict(&router, &query);
    assert_eq!(status, 503, "every shard refused: {reply}");
    assert!(header_of(&headers, "retry-after").is_some());
    assert!(
        idle_everywhere(&router, 0),
        "{:?}",
        router.idle_hop_connections()
    );
    let (_, text) = request(router.addr(), "GET", "/metrics", "");
    assert!(
        text.contains("logcl_router_hop_connections_total{reused=\"true\"} 0"),
        "a refused hop is not an answered one: {text}"
    );

    logcl_serve::fault::clear();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, _, reply) = predict(&router, &query);
        if status == 200 && reply.get("coverage").and_then(Value::as_f64) == Some(1.0) {
            break;
        }
        assert!(Instant::now() < deadline, "never recovered: {reply}");
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(
        idle_everywhere(&router, 1),
        "{:?}",
        router.idle_hop_connections()
    );

    router.shutdown();
    for w in ws {
        w.shutdown();
    }
}

/// A worker still computing when the request's deadline passes: the hop on
/// its *reused* socket ends as a timeout (or the worker's own `504`), is not
/// sent again, and the socket is dropped; the next request opens a new one.
#[test]
fn a_hop_past_its_deadline_is_not_replayed_and_its_socket_is_dropped() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let ws = workers();
    let router = Router::start(RouterConfig {
        shards: ws.iter().map(|w| vec![w.addr().to_string()]).collect(),
        retries: 0,
        ..RouterConfig::default()
    })
    .expect("router must start");
    let t = horizon_of(ws[0].addr());
    let query = format!(r#"{{"subject": 4, "relation": 1, "time": {t}, "k": 5}}"#);
    let asked = |w: &Server| {
        w.metrics()
            .predict_requests
            .load(std::sync::atomic::Ordering::Relaxed)
    };

    let (status, _, reply) = predict(&router, &query);
    assert_eq!(status, 200, "{reply}");
    assert!(idle_everywhere(&router, 1));
    let before: Vec<u64> = ws.iter().map(asked).collect();

    logcl_serve::fault::install(logcl_serve::fault::FaultPlan {
        seed: 17,
        compute_delay: Some(Duration::from_millis(400)),
        ..Default::default()
    });
    let reply = Client::new(router.addr(), Duration::from_secs(30))
        .and_then(|mut c| {
            c.send(
                "POST",
                "/predict",
                &[("X-LogCL-Deadline-Ms", "100")],
                query.as_bytes(),
            )
        })
        .expect("exchange");
    assert_eq!(
        reply.status,
        503,
        "no shard can answer in time: {}",
        reply.text()
    );
    logcl_serve::fault::clear();

    // The router's connection thread read both hops before it answered:
    // each ended in `Pool::read` as a timeout (or the worker's 504), and a
    // socket `Pool::read` does not put back is dropped there. The wait only
    // covers a hop handed to a thread, which drops its socket when it ends.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !idle_everywhere(&router, 0) {
        assert!(
            Instant::now() < deadline,
            "{:?}",
            router.idle_hop_connections()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let after: Vec<u64> = ws.iter().map(asked).collect();
    for (shard, (b, a)) in before.iter().zip(&after).enumerate() {
        assert_eq!(
            a - b,
            1,
            "shard {shard} was sent the timed-out request again"
        );
    }

    // The delayed forwards drain, then a new request rides new sockets.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, _, reply) = predict(&router, &query);
        if status == 200 && reply.get("coverage").and_then(Value::as_f64) == Some(1.0) {
            break;
        }
        assert!(Instant::now() < deadline, "never recovered: {reply}");
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(
        idle_everywhere(&router, 1),
        "{:?}",
        router.idle_hop_connections()
    );

    router.shutdown();
    for w in ws {
        w.shutdown();
    }
}
