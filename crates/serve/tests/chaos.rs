//! Deterministic chaos suite (`--features fault-inject`).
//!
//! Each test installs a seeded [`logcl_serve::fault::FaultPlan`] and drives
//! a real server over sockets, asserting the overload-resilience contract:
//! no panics, `/healthz` and `/metrics` always answer, every shed response
//! carries `Retry-After`, the tier recovers to Normal once the fault
//! clears, and predictions after a degradation episode are bit-identical
//! to predictions before it.
//!
//! The fault plan is process-global, so the tests serialise on a mutex and
//! clear the plan before releasing it.

#![cfg(feature = "fault-inject")]

use std::sync::atomic::Ordering;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use logcl_core::{
    online_adapt, predict_topk, predict_topk_stream, EvalContext, LogCl, OnlineAdaptOptions,
    Prediction,
};
use logcl_serve::fault::{self, FaultPlan, FaultPoint};
use logcl_serve::{ServeConfig, Server, StartError};
use logcl_tkg::HistoryIndex;
use serde_json::Value;

mod common;
use common::{
    copy_dir, extend, header_of, horizon_of, json, predictions_of, request, request_full, scratch,
    tiny_cfg, tiny_ds, untrained_spec,
};

static SERIAL: Mutex<()> = Mutex::new(());

/// Serialises chaos tests (the fault plan is process-global) and clears
/// any plan a previous — possibly panicked — test left installed.
fn serial() -> MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    guard
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    }
}

/// Status, headers, and body.
type Answer = (u16, Vec<(String, String)>, String);

/// Asserts the liveness endpoints answer 200 and returns the tier healthz
/// reports — callable at any point of any fault episode.
fn health_always_live(addr: std::net::SocketAddr) -> String {
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "healthz shed: {body}");
    let tier = json(&body)
        .get("tier")
        .and_then(Value::as_str)
        .expect("healthz reports the tier")
        .to_string();
    let (status, _) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200, "metrics shed");
    tier
}

#[test]
fn injected_checkpoint_fault_fails_startup_with_a_typed_error() {
    let _guard = serial();
    fault::install(FaultPlan {
        checkpoint_read_error: true,
        ..FaultPlan::default()
    });
    let err = match Server::start(serve_config(), tiny_ds(), vec![untrained_spec()]) {
        Ok(_) => panic!("injected checkpoint fault must fail startup"),
        Err(e) => e,
    };
    assert!(
        matches!(err, StartError::Checkpoint { .. }),
        "wrong error kind: {err}"
    );
    assert_eq!(fault::fired(FaultPoint::CheckpointRead), 1);

    // With the plan cleared, the same configuration starts cleanly.
    fault::clear();
    let server =
        Server::start(serve_config(), tiny_ds(), vec![untrained_spec()]).expect("clean start");
    assert_eq!(health_always_live(server.addr()), "normal");
    server.shutdown();
}

#[test]
fn compute_delay_overload_sheds_then_recovers_bit_identically() {
    let _guard = serial();
    let cfg = ServeConfig {
        brownout_sojourn: Duration::from_millis(20),
        shed_sojourn: Duration::from_millis(60),
        recovery_streak: 2,
        ..serve_config()
    };
    let server = Server::start(cfg, tiny_ds(), vec![untrained_spec()]).expect("start");
    let addr = server.addr();
    let t = horizon_of(addr);
    let query = format!(r#"{{"subject": 0, "relation": 0, "time": {t}, "k": 5}}"#);

    // Unloaded baseline, full fidelity.
    let (status, headers, baseline) = request_full(addr, "POST", "/predict", &query, &[]);
    assert_eq!(status, 200, "{baseline}");
    assert_eq!(header_of(&headers, "X-LogCL-Degradation"), Some("normal"));
    let baseline = json(&baseline)
        .get("predictions")
        .expect("predictions array")
        .to_string();

    // Inject a deterministic compute stall into every forward, hold every
    // compute permit with one, then queue one more request behind them.
    fault::install(FaultPlan {
        seed: 42,
        compute_delay: Some(Duration::from_millis(400)),
        ..FaultPlan::default()
    });
    let permits = server.overload().compute_permits();
    let stalled: Vec<_> = (1..=permits)
        .map(|s| {
            let body = format!(r#"{{"subject": {s}, "relation": 0, "time": {t}, "k": 5}}"#);
            std::thread::spawn(move || request_full(addr, "POST", "/predict", &body, &[]))
        })
        .collect();
    wait_until("every permit is held by a stalled forward", || {
        fault::fired(FaultPoint::ComputeDelay) == permits as u64
    });
    let queued = std::thread::spawn(move || {
        let body = format!(
            r#"{{"subject": {}, "relation": 0, "time": {t}, "k": 5}}"#,
            permits + 1
        );
        request_full(addr, "POST", "/predict", &body, &[])
    });
    let overload = server.overload();
    wait_until("a request waits for a permit", || {
        overload.queue_wait(Instant::now()) > Duration::ZERO
    });
    std::thread::sleep(Duration::from_millis(100));

    // By now the waiting request is far older than shed_sojourn: fresh
    // predicts must be refused with Retry-After, while liveness stays
    // untouched.
    let (status, headers, body) = request_full(addr, "POST", "/predict", &query, &[]);
    assert_eq!(status, 503, "overloaded server must shed: {body}");
    assert!(
        header_of(&headers, "Retry-After").is_some(),
        "shed without Retry-After: {headers:?}"
    );
    let tier = health_always_live(addr);
    assert_ne!(tier, "normal", "tier must reflect the episode");

    // Work admitted before the overload is still answered, not dropped.
    for client in stalled.into_iter().chain([queued]) {
        let (status, _, body) = client.join().unwrap();
        assert_eq!(status, 200, "{body}");
    }
    assert!(fault::fired(FaultPoint::ComputeDelay) >= 1);
    assert!(
        server.metrics().shed_overload.load(Ordering::Relaxed) >= 1,
        "admission shed must be counted"
    );

    // Clear the fault: probe traffic must walk the tier back to Normal
    // (recovery is streak-bounded, so a handful of probes suffices).
    fault::clear();
    let mut recovered = None;
    for _ in 0..50 {
        let (status, headers, body) = request_full(addr, "POST", "/predict", &query, &[]);
        if status == 200 && header_of(&headers, "X-LogCL-Degradation") == Some("normal") {
            let v = json(&body);
            if v.get("degraded").and_then(Value::as_bool) == Some(false) {
                recovered = Some(v.get("predictions").expect("predictions").to_string());
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let recovered = recovered.expect("tier never recovered to normal");
    assert_eq!(
        recovered, baseline,
        "post-episode predictions must be bit-identical to the unloaded baseline"
    );
    assert_eq!(health_always_live(addr), "normal");
    server.shutdown();
}

/// A burst: offers four predicts per compute permit, 3 ms apart, at the
/// last `keys` timestamps in turn, to a server that stalls every forward
/// ≥ 40 ms, so the last wave waits at least three stalls for a permit.
/// Every request must be answered in full, naming its tier. Returns the
/// tier once all are answered — the recovery streak is one more than the
/// burst's permit grants, so an escalation sticks — and the tier once the
/// fault has cleared and a streak of probes has walked it back down.
fn tiers_around_a_burst(keys: usize) -> (String, String) {
    let permits = std::thread::available_parallelism().map_or(1, usize::from);
    let burst = 4 * permits;
    let cfg = ServeConfig {
        brownout_sojourn: Duration::from_millis(80),
        shed_sojourn: Duration::from_secs(60),
        recovery_streak: burst as u32 + 1,
        ..serve_config()
    };
    let server = Server::start(cfg, tiny_ds(), vec![untrained_spec()]).expect("start");
    assert_eq!(server.overload().compute_permits(), permits);
    let addr = server.addr();
    let head = horizon_of(addr) as usize;
    fault::install(FaultPlan {
        seed: 7,
        compute_delay: Some(Duration::from_millis(40)),
        ..FaultPlan::default()
    });
    let clients: Vec<_> = (0..burst)
        .map(|i| {
            let t = head - i % keys;
            std::thread::sleep(Duration::from_millis(3));
            std::thread::spawn(move || {
                let body = format!(r#"{{"subject": {i}, "relation": 0, "time": {t}, "k": 5}}"#);
                request_full(addr, "POST", "/predict", &body, &[])
            })
        })
        .collect();
    for client in clients {
        let (status, headers, body) = client.join().unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(
            header_of(&headers, "X-LogCL-Degradation").is_some(),
            "an answer must name its tier: {headers:?}"
        );
    }
    fault::clear();
    let after_burst = health_always_live(addr);
    let query = format!(r#"{{"subject": 0, "relation": 0, "time": {head}, "k": 5}}"#);
    for _ in 0..=burst {
        let (status, body) = request(addr, "POST", "/predict", &query);
        assert_eq!(status, 200, "{body}");
    }
    let recovered = health_always_live(addr);
    server.shutdown();
    (after_burst, recovered)
}

/// Stalled forwards back requests up whatever their keys: under one
/// timestamp or four, the later requests wait for a compute permit, and
/// that wait must reach Brownout — and, once the stall clears, recover.
#[test]
fn a_burst_over_one_or_four_keys_browns_out_and_recovers_to_normal() {
    let _guard = serial();
    let expected = ("brownout".to_string(), "normal".to_string());
    assert_eq!(tiers_around_a_burst(1), expected, "one key");
    assert_eq!(tiers_around_a_burst(4), expected, "four keys");
}

#[test]
fn batcher_death_sheds_predicts_but_leaves_liveness_up() {
    let _guard = serial();
    let server = Server::start(serve_config(), tiny_ds(), vec![untrained_spec()]).expect("start");
    let addr = server.addr();
    let t = horizon_of(addr);
    let query = format!(r#"{{"subject": 0, "relation": 0, "time": {t}}}"#);

    // One healthy answer first.
    let (status, _) = request(addr, "POST", "/predict", &query);
    assert_eq!(status, 200);

    fault::install(FaultPlan {
        batcher_death_at_batch: Some(0),
        ..FaultPlan::default()
    });
    // The next ingest run kills the model thread: the in-hand ingest is
    // answered 503 (dropped reply channel), not left hanging.
    let ingest = format!(r#"{{"time": {t}, "facts": [[1, 0, 2]], "update": false}}"#);
    let (status, headers, body) = request_full(addr, "POST", "/ingest", &ingest, &[]);
    assert_eq!(status, 503, "{body}");
    assert!(header_of(&headers, "Retry-After").is_some(), "{headers:?}");
    assert_eq!(fault::fired(FaultPoint::BatcherDeath), 1);

    // Subsequent predicts shed at admission — the worker is known dead —
    // while health stays live and names the tier.
    let (status, headers, _) = request_full(addr, "POST", "/predict", &query, &[]);
    assert_eq!(status, 503);
    assert!(header_of(&headers, "Retry-After").is_some());
    assert_eq!(health_always_live(addr), "shed");

    fault::clear();
    server.shutdown();
}

#[test]
fn queue_saturation_fault_sheds_with_retry_after() {
    let _guard = serial();
    let server = Server::start(serve_config(), tiny_ds(), vec![untrained_spec()]).expect("start");
    let addr = server.addr();
    let t = horizon_of(addr);
    let query = format!(r#"{{"subject": 0, "relation": 0, "time": {t}}}"#);

    fault::install(FaultPlan {
        queue_saturated: true,
        ..FaultPlan::default()
    });
    let (status, headers, body) = request_full(addr, "POST", "/predict", &query, &[]);
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("queue full"), "{body}");
    assert!(header_of(&headers, "Retry-After").is_some(), "{headers:?}");
    assert!(fault::fired(FaultPoint::QueueSaturate) >= 1);
    assert!(server.metrics().shed_queue_full.load(Ordering::Relaxed) >= 1);
    health_always_live(addr);

    fault::clear();
    let (status, _) = request(addr, "POST", "/predict", &query);
    assert_eq!(status, 200, "cleared saturation must admit again");
    server.shutdown();
}

// ------------------------------------------------ a request held in flight
//
// A predict computes on its own connection thread as soon as it holds a
// compute permit, so the only thing that keeps one in flight long enough to
// act on is a stalled forward: the requests that stall hold permits, and a
// request under test waits behind them once every permit is held.

/// Polls until `cond` holds (10 s at most).
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let give_up = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < give_up, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Stalls the next `bodies.len()` forwards — and only those — for one to
/// three times `delay` each, sends one predict per body, and returns once
/// every one of them holds a compute permit inside its stall.
fn occupy(
    addr: std::net::SocketAddr,
    delay: Duration,
    bodies: Vec<String>,
) -> Vec<std::thread::JoinHandle<Answer>> {
    let n = bodies.len() as u64;
    fault::install(FaultPlan {
        compute_delay: Some(delay),
        compute_delay_batches: Some(n),
        ..FaultPlan::default()
    });
    let occupiers = bodies
        .into_iter()
        .map(|body| std::thread::spawn(move || request_full(addr, "POST", "/predict", &body, &[])))
        .collect();
    wait_until("every occupier stalls", || {
        fault::fired(FaultPoint::ComputeDelay) == n
    });
    occupiers
}

/// [`occupy`] with one stalled predict per compute permit, the `i`-th
/// asking `body(i)`: from here on a predict waits for a permit.
fn occupy_every_permit(
    server: &Server,
    delay: Duration,
    body: impl Fn(usize) -> String,
) -> Vec<std::thread::JoinHandle<Answer>> {
    let permits = server.overload().compute_permits();
    occupy(server.addr(), delay, (0..permits).map(body).collect())
}

#[test]
fn graceful_shutdown_answers_requests_already_in_flight() {
    let _guard = serial();
    let server = Server::start(serve_config(), tiny_ds(), vec![untrained_spec()]).expect("start");
    let addr = server.addr();
    let t = horizon_of(addr);
    let overload = server.overload();

    // Every permit held by a stalled request and one more waiting for a
    // permit when the shutdown endpoint fires.
    let occupiers = occupy_every_permit(&server, Duration::from_millis(150), |i| {
        format!(r#"{{"subject": {}, "relation": 1, "time": {t}}}"#, 3 + i)
    });
    let queued = std::thread::spawn(move || {
        let body = format!(r#"{{"subject": 2, "relation": 1, "time": {t}}}"#);
        request_full(addr, "POST", "/predict", &body, &[])
    });
    wait_until("the last request waits for a permit", || {
        overload.queue_wait(Instant::now()) > Duration::ZERO
    });
    let (status, _) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    server.run(); // returns once every thread is joined

    for client in occupiers.into_iter().chain([queued]) {
        let (status, _, body) = client.join().unwrap();
        assert_eq!(status, 200, "in-flight request was dropped: {body}");
        assert!(!predictions_of(&json(&body)).is_empty());
    }
    fault::clear();
}

#[test]
fn expired_deadline_is_shed_before_compute_and_admitted_work_stays_exact() {
    // Stalled forwards hold every compute permit for longer than the short
    // deadline of a request waiting behind them: the expired request must
    // be answered 504 *without* reaching the model, while the patient
    // request waiting next to it is answered exactly as an unloaded server
    // would. Degradation thresholds are pushed out of reach so the
    // admitted answer is full-fidelity.
    let _guard = serial();
    let cfg = ServeConfig {
        brownout_sojourn: Duration::from_secs(10),
        shed_sojourn: Duration::from_secs(60),
        ..serve_config()
    };
    let server = Server::start(cfg, tiny_ds(), vec![untrained_spec()]).expect("start");
    let addr = server.addr();
    let t = horizon_of(addr);
    let overload = server.overload();
    let occupiers = occupy_every_permit(&server, Duration::from_millis(200), |i| {
        format!(
            r#"{{"subject": {}, "relation": 0, "time": {t}, "k": 5}}"#,
            2 + i
        )
    });

    // The impatient client: 100ms budget behind a stall of at least 200ms.
    let impatient = std::thread::spawn(move || {
        request_full(
            addr,
            "POST",
            "/predict",
            &format!(r#"{{"subject": 0, "relation": 0, "time": {t}, "k": 5}}"#),
            &[("X-LogCL-Deadline-Ms", "100")],
        )
    });
    // The patient client waits behind it for a permit.
    wait_until("the impatient request waits for a permit", || {
        overload.queue_wait(Instant::now()) > Duration::ZERO
    });
    let patient = std::thread::spawn(move || {
        let body = format!(r#"{{"subject": 1, "relation": 0, "time": {t}, "k": 5}}"#);
        request_full(addr, "POST", "/predict", &body, &[])
    });

    // The impatient client leaves the permit queue at its 100ms deadline:
    // a 504 naming the deadline, and the counters below prove the request
    // never reached compute.
    let (status, headers, body) = impatient.join().unwrap();
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("deadline"), "{body}");
    assert!(
        header_of(&headers, "Retry-After").is_some(),
        "shed responses must carry Retry-After: {headers:?}"
    );
    for occupier in occupiers {
        let (status, _, body) = occupier.join().unwrap();
        assert_eq!(status, 200, "{body}");
    }
    let (status, headers, body) = patient.join().unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(header_of(&headers, "X-LogCL-Degradation"), Some("normal"));
    let degraded = json(&body).get("degraded").and_then(Value::as_bool);
    assert_eq!(degraded, Some(false));

    // Byte-identical to the unloaded path: same untrained config scored
    // sequentially in-process.
    let ds = tiny_ds();
    let mut reference = LogCl::new(&ds, tiny_cfg());
    let expected: Vec<(u64, f32)> = predict_topk_stream(&mut reference, &ds, 1, 0, 5)
        .unwrap()
        .into_iter()
        .map(|p| (p.entity as u64, p.probability))
        .collect();
    assert_eq!(
        predictions_of(&json(&body)),
        expected,
        "admitted request diverged from the unloaded answer"
    );

    // The shed happened waiting for a permit, before compute, and the scrape
    // says so.
    let metrics = server.metrics();
    assert_eq!(metrics.shed_before_compute.load(Ordering::Relaxed), 1);
    assert_eq!(metrics.shed_deadline_queue.load(Ordering::Relaxed), 1);
    let (_, text) = request(addr, "GET", "/metrics", "");
    assert!(
        text.contains("logcl_shed_total{reason=\"deadline_queue\"} 1"),
        "{text}"
    );
    assert!(text.contains("logcl_shed_before_compute_total 1"), "{text}");
    fault::clear();
    server.shutdown();
}

#[test]
fn concurrency_shed_is_503_with_retry_after() {
    // One predict slot: while the first request holds it inside a stalled
    // forward, a second concurrent request must be shed at admission — 503
    // with Retry-After, counted as a concurrency shed — and the holder
    // still answers 200.
    let _guard = serial();
    let cfg = ServeConfig {
        max_inflight_predict: 1,
        brownout_sojourn: Duration::from_secs(10),
        shed_sojourn: Duration::from_secs(60),
        ..serve_config()
    };
    let server = Server::start(cfg, tiny_ds(), vec![untrained_spec()]).expect("start");
    let addr = server.addr();
    let holder = occupy(
        addr,
        Duration::from_millis(150),
        vec![r#"{"subject": 0, "relation": 0}"#.into()],
    );

    let (status, headers, body) = request_full(
        addr,
        "POST",
        "/predict",
        r#"{"subject": 1, "relation": 0}"#,
        &[],
    );
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("in-flight"), "{body}");
    assert!(
        header_of(&headers, "Retry-After").is_some(),
        "every 503 must carry Retry-After: {headers:?}"
    );
    for holder in holder {
        let (status, _, body) = holder.join().unwrap();
        assert_eq!(status, 200, "{body}");
    }
    assert_eq!(server.metrics().shed_concurrency.load(Ordering::Relaxed), 1);
    fault::clear();
    server.shutdown();
}

// ------------------------------------------- reads on connection threads

/// `(entity, score_bits, probability_bits)` of a `/predict` reply, in reply
/// order.
fn bits_of(body: &str) -> Vec<(u64, u32, u32)> {
    json(body)
        .get("predictions")
        .and_then(Value::as_array)
        .expect("predictions array")
        .iter()
        .map(|p| {
            let field = |name: &str| p.get(name).and_then(Value::as_u64).expect(name);
            let probability = p.get("probability").and_then(Value::as_f64).unwrap() as f32;
            (
                field("entity"),
                field("score_bits") as u32,
                probability.to_bits(),
            )
        })
        .collect()
}

/// The same triples of a library answer.
fn twin_bits(predictions: Vec<Prediction>) -> Vec<(u64, u32, u32)> {
    predictions
        .into_iter()
        .map(|p| (p.entity as u64, p.score.to_bits(), p.probability.to_bits()))
        .collect()
}

fn time_of(body: &str) -> u64 {
    json(body)
        .get("query")
        .and_then(|q| q.get("time"))
        .and_then(Value::as_u64)
        .expect("query.time")
}

/// Two reads overlap: while one connection's predict is stalled inside its
/// forward, another connection's predict is computed and answered — bit for
/// bit the library's answer — before the first returns.
#[test]
fn a_read_stalled_in_compute_does_not_hold_up_another_connections_read() {
    let _guard = serial();
    let server = Server::start(serve_config(), tiny_ds(), vec![untrained_spec()]).expect("start");
    let addr = server.addr();
    if server.overload().compute_permits() < 2 {
        eprintln!("one compute permit on this host: reads cannot overlap here");
        return;
    }
    let stalled = occupy(
        addr,
        Duration::from_secs(2),
        vec![r#"{"subject": 1, "relation": 0, "k": 5}"#.into()],
    );
    let (status, body) = request(
        addr,
        "POST",
        "/predict",
        r#"{"subject": 2, "relation": 1, "k": 5}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(
        !stalled[0].is_finished(),
        "the second read waited for the stalled one"
    );
    let ds = tiny_ds();
    let mut twin = LogCl::new(&ds, tiny_cfg());
    let want = twin_bits(predict_topk_stream(&mut twin, &ds, 2, 1, 5).unwrap());
    assert_eq!(bits_of(&body), want);
    for client in stalled {
        let (status, _, body) = client.join().unwrap();
        assert_eq!(status, 200, "{body}");
        let want = twin_bits(predict_topk_stream(&mut twin, &ds, 1, 0, 5).unwrap());
        assert_eq!(bits_of(&body), want);
    }
    fault::clear();
    server.shutdown();
}

/// A head read in flight across an `/ingest` is answered at the horizon it
/// was parsed at — bit-equal to `predict_topk_stream` over the snapshots of
/// then, from the streamed state that answered that horizon a moment
/// earlier, with no encode — while the ingest is applied and acked beside
/// it; the next head read is at the new horizon.
#[test]
fn a_head_read_in_flight_across_an_ingest_is_answered_at_its_horizon() {
    let _guard = serial();
    let server = Server::start(serve_config(), tiny_ds(), vec![untrained_spec()]).expect("start");
    let addr = server.addr();
    let h = horizon_of(addr) as usize;
    let head_read = r#"{"subject": 3, "relation": 1, "k": 5}"#;
    for _ in 0..2 {
        let (status, body) = request(addr, "POST", "/predict", head_read);
        assert_eq!(status, 200, "{body}");
    }
    let misses = server.metrics().cache_misses.load(Ordering::Relaxed);

    let in_flight = occupy(addr, Duration::from_secs(1), vec![head_read.into()]);
    let facts = [(3, 1, 7), (8, 0, 3)];
    let ingest = format!(r#"{{"time": {h}, "facts": [[3, 1, 7], [8, 0, 3]], "update": false}}"#);
    let (status, body) = request(addr, "POST", "/ingest", &ingest);
    assert_eq!(status, 200, "{body}");
    assert!(
        !in_flight[0].is_finished(),
        "the ingest waited for the read in flight"
    );
    assert_eq!(horizon_of(addr) as usize, h + 1);

    let mut ds = tiny_ds();
    let mut twin = LogCl::new(&ds, tiny_cfg());
    for client in in_flight {
        let (status, _, body) = client.join().unwrap();
        assert_eq!(status, 200, "{body}");
        assert_eq!(time_of(&body) as usize, h, "answered at its horizon");
        let want = twin_bits(predict_topk_stream(&mut twin, &ds, 3, 1, 5).unwrap());
        assert_eq!(bits_of(&body), want);
    }
    assert_eq!(
        server.metrics().cache_misses.load(Ordering::Relaxed),
        misses,
        "the read in flight encoded nothing"
    );

    fault::clear();
    let (status, body) = request(addr, "POST", "/predict", head_read);
    assert_eq!(status, 200, "{body}");
    assert_eq!(time_of(&body) as usize, h + 1);
    extend(&mut ds, h, &facts);
    let want = twin_bits(predict_topk_stream(&mut twin, &ds, 3, 1, 5).unwrap());
    assert_eq!(bits_of(&body), want);
    server.shutdown();
}

/// A cold historical encode under the old weights that races an
/// `update: true` is never served under the new ones: the racing read's
/// cache slot is in its generation, still unfilled, when the update is
/// published; once the update is acked, the same query misses the cache
/// and equals a twin holding the updated weights.
#[test]
fn a_cold_encode_racing_a_weight_update_is_never_served_after_it() {
    let _guard = serial();
    let server = Server::start(serve_config(), tiny_ds(), vec![untrained_spec()]).expect("start");
    let addr = server.addr();
    let h = horizon_of(addr) as usize;
    let t0 = h - 5;
    let cold = format!(r#"{{"subject": 2, "relation": 1, "time": {t0}, "k": 5}}"#);

    let racing = occupy(addr, Duration::from_secs(1), vec![cold.clone()]);
    let facts = [(2, 0, 1), (5, 1, 3)];
    let ingest = format!(r#"{{"time": {h}, "facts": [[2, 0, 1], [5, 1, 3]], "update": true}}"#);
    let (status, body) = request(addr, "POST", "/ingest", &ingest);
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        json(&body).get("online_update").and_then(Value::as_bool),
        Some(true)
    );

    let mut ds = tiny_ds();
    let mut twin = LogCl::new(&ds, tiny_cfg());
    // The racing read answers from the generation it loaded: old weights.
    let before = twin_bits(predict_topk(&mut twin, &ds, 2, 1, t0, 5).unwrap());
    for client in racing {
        let (status, _, body) = client.join().unwrap();
        assert_eq!(status, 200, "{body}");
        assert_eq!(bits_of(&body), before);
    }
    fault::clear();

    let fresh = extend(&mut ds, h, &facts);
    let snapshots = ds.snapshots();
    let history = HistoryIndex::build(&snapshots);
    let ctx = EvalContext {
        ds: &ds,
        snapshots: &snapshots,
        history: &history,
        t: h,
    };
    let report = online_adapt(&mut twin, &ctx, &fresh, &OnlineAdaptOptions::default());
    assert_eq!(report.steps, 1);
    let after = twin_bits(predict_topk(&mut twin, &ds, 2, 1, t0, 5).unwrap());
    assert_ne!(after, before, "the update must move this answer");
    let (status, body) = request(addr, "POST", "/predict", &cold);
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        json(&body).get("cache_hit").and_then(Value::as_bool),
        Some(false),
        "the old weights' encoding was not carried over"
    );
    assert_eq!(bits_of(&body), after);
    server.shutdown();
}

// ------------------------------------------------------------- WAL faults

fn durable_config(dir: &std::path::Path) -> ServeConfig {
    ServeConfig {
        wal_dir: Some(dir.to_path_buf()),
        wal_compact_every: 0,
        brownout_sojourn: Duration::from_secs(10),
        shed_sojourn: Duration::from_secs(60),
        ..serve_config()
    }
}

fn ingest_with_id(addr: std::net::SocketAddr, t: u64, id: &str) -> (u16, String) {
    let body = format!(r#"{{"time": {t}, "facts": [[1, 0, 2], [3, 1, 4]], "update": true}}"#);
    let (status, _, body) =
        request_full(addr, "POST", "/ingest", &body, &[("X-LogCL-Ingest-Id", id)]);
    (status, body)
}

/// An injected WAL append failure fails the ack (500, naming the safe
/// retry), and the idempotent retry converges: the fact set is applied
/// exactly once in memory and exactly once in the durable log.
#[test]
fn wal_append_fault_fails_the_ack_and_the_retry_converges() {
    let _guard = serial();
    let dir = scratch("append-fault");
    let server =
        Server::start(durable_config(&dir), tiny_ds(), vec![untrained_spec()]).expect("start");
    let addr = server.addr();
    let t0 = horizon_of(addr);

    // The first (0th) append fails; the retry's append succeeds.
    fault::install(FaultPlan {
        wal_append_error_at: Some(0),
        ..FaultPlan::default()
    });
    let (status, body) = ingest_with_id(addr, t0, "retry-append");
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("retry is safe"), "{body}");
    assert_eq!(fault::fired(FaultPoint::WalAppend), 1);
    // The application already happened in memory (the failure was in the
    // log, not the model) — the horizon moved, but nothing was acked.
    assert_eq!(horizon_of(addr), t0 + 1);
    assert_eq!(server.metrics().durable_acks.load(Ordering::Relaxed), 0);
    assert_eq!(server.metrics().wal_errors.load(Ordering::Relaxed), 1);

    let (status, body) = ingest_with_id(addr, t0, "retry-append");
    assert_eq!(status, 200, "the retry must succeed: {body}");
    let v = json(&body);
    assert_eq!(v.get("durable").and_then(Value::as_bool), Some(true));
    assert_eq!(
        v.get("appended").and_then(Value::as_u64),
        Some(0),
        "idempotent re-application appends nothing new"
    );
    assert_eq!(horizon_of(addr), t0 + 1, "applied exactly once");
    assert_eq!(fault::fired(FaultPoint::WalAppend), 1, "fault is one-shot");

    // The retried frame is durable: a crash image recovers the facts.
    let crash = scratch("append-fault-crash");
    copy_dir(&dir, &crash);
    fault::clear();
    server.shutdown();
    let reborn =
        Server::start(durable_config(&crash), tiny_ds(), vec![untrained_spec()]).expect("reborn");
    assert_eq!(horizon_of(reborn.addr()), t0 + 1);
    reborn.shutdown();
}

/// An injected group-commit fsync failure fails every ack in the group; the
/// retry converges and — although the log then holds two frames for the same
/// ingest id — recovery replays the application exactly once.
#[test]
fn wal_fsync_fault_fails_the_group_and_recovery_applies_exactly_once() {
    let _guard = serial();
    let dir = scratch("fsync-fault");
    let server =
        Server::start(durable_config(&dir), tiny_ds(), vec![untrained_spec()]).expect("start");
    let addr = server.addr();
    let t0 = horizon_of(addr);

    fault::install(FaultPlan {
        wal_fsync_error_at: Some(0),
        ..FaultPlan::default()
    });
    let (status, body) = ingest_with_id(addr, t0, "retry-fsync");
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("retry is safe"), "{body}");
    assert_eq!(fault::fired(FaultPoint::WalFsync), 1);
    assert_eq!(server.metrics().durable_acks.load(Ordering::Relaxed), 0);

    let (status, body) = ingest_with_id(addr, t0, "retry-fsync");
    assert_eq!(status, 200, "the retry must succeed: {body}");
    assert_eq!(
        json(&body).get("durable").and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(horizon_of(addr), t0 + 1, "applied exactly once");
    let answer = {
        let q = format!(
            r#"{{"subject": 1, "relation": 0, "time": {}, "k": 5}}"#,
            t0 + 1
        );
        let (status, body) = request(addr, "POST", "/predict", &q);
        assert_eq!(status, 200, "{body}");
        json(&body)
            .get("predictions")
            .expect("predictions")
            .to_string()
    };

    let crash = scratch("fsync-fault-crash");
    copy_dir(&dir, &crash);
    fault::clear();
    server.shutdown();

    // Both frames carry "retry-fsync": the first replay records the id, the
    // second is skipped — one application, bit-identical to the live server.
    let reborn =
        Server::start(durable_config(&crash), tiny_ds(), vec![untrained_spec()]).expect("reborn");
    let addr = reborn.addr();
    assert_eq!(
        horizon_of(addr),
        t0 + 1,
        "duplicate frame must not re-apply"
    );
    let q = format!(
        r#"{{"subject": 1, "relation": 0, "time": {}, "k": 5}}"#,
        t0 + 1
    );
    let (status, body) = request(addr, "POST", "/predict", &q);
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        json(&body)
            .get("predictions")
            .expect("predictions")
            .to_string(),
        answer,
        "recovery across a duplicated frame must stay bit-identical"
    );
    reborn.shutdown();
}

/// Ingest during a Brownout episode: `/ingest` is never browned out — the
/// ack is still durable, and the facts survive a crash restart.
#[test]
fn ingest_during_brownout_still_acks_durably() {
    let _guard = serial();
    let dir = scratch("brownout-ingest");
    let cfg = ServeConfig {
        brownout_sojourn: Duration::ZERO,
        ..durable_config(&dir)
    };
    let server = Server::start(cfg, tiny_ds(), vec![untrained_spec()]).expect("start");
    let addr = server.addr();
    let t0 = horizon_of(addr);
    assert_eq!(health_always_live(addr), "brownout");

    let (status, body) = ingest_with_id(addr, t0, "brownout-1");
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        json(&body).get("durable").and_then(Value::as_bool),
        Some(true),
        "a browned-out server must still ack durably: {body}"
    );

    let crash = scratch("brownout-ingest-crash");
    copy_dir(&dir, &crash);
    server.shutdown();
    let reborn =
        Server::start(durable_config(&crash), tiny_ds(), vec![untrained_spec()]).expect("reborn");
    assert_eq!(horizon_of(reborn.addr()), t0 + 1);
    reborn.shutdown();
}

#[test]
fn socket_stall_fault_slows_connections_but_never_drops_them() {
    let _guard = serial();
    let server = Server::start(serve_config(), tiny_ds(), vec![untrained_spec()]).expect("start");
    let addr = server.addr();

    fault::install(FaultPlan {
        socket_stall: Some(Duration::from_millis(120)),
        ..FaultPlan::default()
    });
    let started = Instant::now();
    let (status, _) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "stalled connection must still be answered");
    assert!(
        started.elapsed() >= Duration::from_millis(120),
        "stall was not applied"
    );
    assert!(fault::fired(FaultPoint::SocketStall) >= 1);

    fault::clear();
    server.shutdown();
}
