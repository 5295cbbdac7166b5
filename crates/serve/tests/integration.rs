//! End-to-end tests over real sockets: concurrent clients and a head feed,
//! exactness versus the library's `predict_topk` / `predict_topk_stream`
//! (head and historical timestamps) and online ingestion. Everything runs
//! against an ephemeral port through the crate's own `http::Client`. The
//! rows that need a request held in flight — the drain on shutdown, the
//! concurrency shed, the deadline shed — hold it with an injected compute
//! delay and live in `tests/chaos.rs`. What a connection goes through — keep-alive,
//! close, 408, 413, the cap, drain — is the same loop as the router's and
//! is tested once for both, in `crates/cluster/tests/lifecycle.rs`.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use logcl_core::{
    online_adapt, predict_topk, predict_topk_stream, EvalContext, LogCl, LogClConfig,
    OnlineAdaptOptions,
};
use logcl_serve::http::Client;
use logcl_serve::{ModelSpec, ServeConfig, Server};
use logcl_tkg::{HistoryIndex, Quad, SyntheticPreset, TkgDataset};
use serde_json::Value;

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

/// An untrained model spec: deterministic init from the config seed, so a
/// locally built `LogCl::new` with the same config is parameter-identical.
fn untrained_spec() -> ModelSpec {
    ModelSpec {
        name: "default".into(),
        cfg: tiny_cfg(),
        checkpoint: None,
        train: None,
    }
}

fn test_server() -> Server {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        max_batch: 32,
        // Tests in this binary run in parallel and contend for CPU; push
        // the degradation thresholds out of reach so exactness tests never
        // see a browned-out answer. Overload behaviour has its own tests
        // with deliberately tight thresholds.
        brownout_sojourn: Duration::from_secs(10),
        shed_sojourn: Duration::from_secs(60),
        ..ServeConfig::default()
    };
    Server::start(cfg, tiny_ds(), vec![untrained_spec()]).expect("server must start")
}

/// One request on its own connection.
fn request(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let (status, _, body) = request_full(addr, method, path, body, &[]);
    (status, body)
}

/// Like [`request`] but sends extra request headers and returns the
/// response headers alongside status and body.
fn request_full(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    extra_headers: &[(&str, &str)],
) -> (u16, Vec<(String, String)>, String) {
    let reply = Client::new(addr, Duration::from_secs(120))
        .and_then(|mut client| client.send(method, path, extra_headers, body.as_bytes()))
        .expect("exchange");
    let body = reply.text();
    (reply.status, reply.headers, body)
}

/// The value of `name` (case-insensitive) among parsed response headers.
fn header_of<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

fn json(body: &str) -> Value {
    serde_json::from_str(body).unwrap_or_else(|e| panic!("bad JSON {body:?}: {e}"))
}

/// Pulls `(entity, probability)` pairs out of a `/predict` response body.
fn predictions_of(body: &Value) -> Vec<(u64, f32)> {
    body.get("predictions")
        .and_then(Value::as_array)
        .expect("predictions array")
        .iter()
        .map(|p| {
            (
                p.get("entity").and_then(Value::as_u64).expect("entity id"),
                p.get("probability")
                    .and_then(Value::as_f64)
                    .expect("probability") as f32,
            )
        })
        .collect()
}

#[test]
fn concurrent_clients_get_answers_identical_to_sequential() {
    let server = test_server();
    let addr = server.addr();
    let t = {
        let (status, body) = request(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
        json(&body).get("horizon").and_then(Value::as_u64).unwrap() as usize
    };

    // Warm the encoding cache so the burst below exercises the hit path.
    let (status, _) = request(
        addr,
        "POST",
        "/predict",
        &format!(r#"{{"subject": 0, "relation": 0, "time": {t}}}"#),
    );
    assert_eq!(status, 200);

    // 8 clients fire simultaneously at the same timestamp.
    let n = 8usize;
    let barrier = Arc::new(Barrier::new(n));
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let body = format!(r#"{{"subject": {i}, "relation": 0, "time": {t}, "k": 5}}"#);
                request(addr, "POST", "/predict", &body)
            })
        })
        .collect();
    let responses: Vec<(u16, String)> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Reference: the same untrained config scored sequentially in-process.
    let ds = tiny_ds();
    let mut reference = LogCl::new(&ds, tiny_cfg());
    let mut any_cache_hit = false;
    for (i, (status, body)) in responses.iter().enumerate() {
        assert_eq!(*status, 200, "client {i}: {body}");
        let v = json(body);
        let got = predictions_of(&v);
        let expected: Vec<(u64, f32)> = predict_topk_stream(&mut reference, &ds, i, 0, 5)
            .unwrap()
            .into_iter()
            .map(|p| (p.entity as u64, p.probability))
            .collect();
        assert_eq!(got, expected, "client {i} diverged from sequential path");
        assert_eq!(
            v.get("batch_size").and_then(Value::as_u64),
            Some(1),
            "every forward answers one request"
        );
        any_cache_hit |= v.get("cache_hit").and_then(Value::as_bool).unwrap();
    }
    assert!(any_cache_hit, "warm encoding was never reused");

    let metrics = server.metrics();
    assert!(metrics.cache_hits.load(Ordering::Relaxed) > 0);
    assert_eq!(metrics.cache_misses.load(Ordering::Relaxed), 1);

    // The scrape endpoint reports the same story.
    let (status, text) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(text.contains("logcl_encoding_cache_hits_total"), "{text}");
    assert!(text.contains("logcl_batch_size_count"), "{text}");
    server.shutdown();
}

#[test]
fn rejects_malformed_requests_with_proper_statuses() {
    let server = test_server();
    let addr = server.addr();

    let (status, _) = request(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/predict", "");
    assert_eq!(status, 405);
    let (status, _) = request(addr, "POST", "/healthz", "");
    assert_eq!(status, 405);
    let (status, body) = request(addr, "POST", "/predict", "{not json");
    assert_eq!(status, 400, "{body}");
    let (status, body) = request(addr, "POST", "/predict", r#"{"relation": 0}"#);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("subject"), "{body}");
    let (status, body) = request(
        addr,
        "POST",
        "/predict",
        r#"{"subject": 999999, "relation": 0}"#,
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("out of range"), "{body}");
    let (status, body) = request(
        addr,
        "POST",
        "/predict",
        r#"{"subject": 0, "relation": 0, "model": "missing"}"#,
    );
    assert_eq!(status, 404, "{body}");
    let (status, body) = request(addr, "POST", "/ingest", r#"{"time": 0, "facts": []}"#);
    assert_eq!(status, 400, "{body}");
    let (status, body) = request(
        addr,
        "POST",
        "/ingest",
        r#"{"time": 999999, "facts": [[0, 0, 1]]}"#,
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("gap"), "{body}");
    server.shutdown();
}

#[test]
fn ingest_extends_horizon_invalidates_cache_and_changes_predictions() {
    let server = test_server();
    let addr = server.addr();
    let horizon = {
        let (_, body) = request(addr, "GET", "/healthz", "");
        json(&body).get("horizon").and_then(Value::as_u64).unwrap()
    };

    // Baseline prediction at the current horizon (fills the cache).
    let query = format!(r#"{{"subject": 1, "relation": 0, "time": {horizon}, "k": 5}}"#);
    let (status, before) = request(addr, "POST", "/predict", &query);
    assert_eq!(status, 200);
    let before = predictions_of(&json(&before));

    // Ingest fresh facts at the horizon and run one online step.
    let (status, body) = request(
        addr,
        "POST",
        "/ingest",
        &format!(r#"{{"time": {horizon}, "facts": [[1, 0, 2], [3, 1, 4]], "update": true}}"#),
    );
    assert_eq!(status, 200, "{body}");
    let v = json(&body);
    assert!(v.get("appended").and_then(Value::as_u64).unwrap() > 0);
    assert!(v.get("online_update").and_then(Value::as_bool).unwrap());
    assert!(
        v.get("invalidated_encodings")
            .and_then(Value::as_u64)
            .unwrap()
            > 0,
        "cached encoding at t = horizon must be dropped: {body}"
    );
    assert_eq!(
        v.get("horizon").and_then(Value::as_u64).unwrap(),
        horizon + 1
    );

    // The new horizon is visible to liveness checks...
    let (_, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(
        json(&body).get("horizon").and_then(Value::as_u64).unwrap(),
        horizon + 1
    );
    // ...the invalidation counter moved...
    assert!(server.metrics().cache_invalidations.load(Ordering::Relaxed) > 0);
    assert!(server.metrics().ingested_facts.load(Ordering::Relaxed) > 0);
    // ...and the same query now answers differently (weights changed).
    let (status, after) = request(addr, "POST", "/predict", &query);
    assert_eq!(status, 200);
    let after = predictions_of(&json(&after));
    assert_ne!(before, after, "online step left predictions untouched");
    server.shutdown();
}

#[test]
fn freshness_metrics_track_streaming_advance_and_online_adaptation() {
    let server = test_server();
    let addr = server.addr();
    let horizon = {
        let (_, body) = request(addr, "GET", "/healthz", "");
        json(&body).get("horizon").and_then(Value::as_u64).unwrap()
    };

    // One miss then one hit at the head primes the post-ingest hit-ratio
    // gauge at exactly 0.5.
    let query = format!(r#"{{"subject": 0, "relation": 0, "time": {horizon}, "k": 3}}"#);
    let (status, _) = request(addr, "POST", "/predict", &query);
    assert_eq!(status, 200);
    let (status, _) = request(addr, "POST", "/predict", &query);
    assert_eq!(status, 200);

    // A head ingest (update defaults to true) advances the streaming state
    // and runs the bounded online loop.
    let (status, body) = request(
        addr,
        "POST",
        "/ingest",
        &format!(r#"{{"time": {horizon}, "facts": [[0, 0, 1], [2, 1, 3]]}}"#),
    );
    assert_eq!(status, 200, "{body}");

    let (status, text) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    for family in [
        // Horizon gauge moved with the ingest.
        format!("logcl_encoder_state_horizon {}", horizon + 1),
        // The O(Δ) advance was timed exactly once.
        "logcl_ingest_advance_seconds_count 1".into(),
        // One bounded online loop: default budget is a single step, taken.
        "logcl_online_steps_total 1".into(),
        "logcl_online_rollbacks_total 0".into(),
        // Boot rebuild (one model) + the post-update rebuild, each under
        // its own reason label.
        "logcl_encoder_state_rebuilds_total{reason=\"boot\"} 1".into(),
        "logcl_encoder_state_rebuilds_total{reason=\"weight_update\"} 1".into(),
        "logcl_encoder_state_rebuilds_total{reason=\"backfill\"} 0".into(),
        "logcl_encoder_state_rebuilds_total{reason=\"recovery\"} 0".into(),
        // 1 hit / (1 hit + 1 miss) at ingest time.
        "logcl_post_ingest_cache_hit_ratio 0.5".into(),
    ] {
        let family: String = family;
        assert!(text.contains(&family), "missing {family} in:\n{text}");
    }
    server.shutdown();
}

#[test]
fn brownout_degrades_answers_and_names_the_tier() {
    // A zero brownout threshold pins the tier at (at least) Brownout from
    // the first observation: answers must be degraded — capped k, exact
    // scores — and every response must name the tier. /healthz is never
    // shed and reports the tier too.
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        brownout_sojourn: Duration::ZERO,
        shed_sojourn: Duration::from_secs(60),
        brownout_k_cap: 2,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, tiny_ds(), vec![untrained_spec()]).expect("start");
    let addr = server.addr();
    let t = {
        let (status, headers, body) = request_full(addr, "GET", "/healthz", "", &[]);
        assert_eq!(status, 200);
        assert_eq!(
            header_of(&headers, "X-LogCL-Degradation"),
            Some("brownout"),
            "{headers:?}"
        );
        let v = json(&body);
        assert_eq!(v.get("tier").and_then(Value::as_str), Some("brownout"));
        v.get("horizon").and_then(Value::as_u64).unwrap()
    };
    let query = |k: usize| format!(r#"{{"subject": 0, "relation": 0, "time": {t}, "k": {k}}}"#);

    // The same query at the Normal tier: what a capped answer is a prefix of.
    let normal = test_server();
    let (status, body) = request(normal.addr(), "POST", "/predict", &query(7));
    assert_eq!(status, 200, "{body}");
    let exact = ranking_of(&json(&body));
    assert_eq!(exact.len(), 7, "{body}");
    normal.shutdown();

    let (status, headers, body) = request_full(addr, "POST", "/predict", &query(7), &[]);
    assert_eq!(status, 200, "{body}");
    assert_eq!(header_of(&headers, "X-LogCL-Degradation"), Some("brownout"));
    let v = json(&body);
    assert_eq!(
        v.get("degraded").and_then(Value::as_bool),
        Some(true),
        "{body}"
    );
    assert_eq!(
        ranking_of(&v),
        exact[..2],
        "brownout caps k at brownout_k_cap and keeps the exact scores: {body}"
    );
    assert!(server.metrics().degraded_responses.load(Ordering::Relaxed) >= 1);

    // A request the cap does not shorten is the exact, undegraded answer.
    let (status, headers, body) = request_full(addr, "POST", "/predict", &query(2), &[]);
    assert_eq!(status, 200, "{body}");
    assert_eq!(header_of(&headers, "X-LogCL-Degradation"), Some("brownout"));
    let v = json(&body);
    assert_eq!(
        v.get("degraded").and_then(Value::as_bool),
        Some(false),
        "{body}"
    );
    assert_eq!(ranking_of(&v), exact[..2], "{body}");

    let (_, text) = request(addr, "GET", "/metrics", "");
    assert!(text.contains("logcl_degradation_tier 1"), "{text}");
    server.shutdown();
}

#[test]
fn deadline_header_is_validated_and_expired_budgets_never_queue() {
    let server = test_server();
    let addr = server.addr();

    let (status, _, body) = request_full(
        addr,
        "POST",
        "/predict",
        r#"{"subject": 0, "relation": 0}"#,
        &[("X-LogCL-Deadline-Ms", "soon")],
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("X-LogCL-Deadline-Ms"), "{body}");

    // A zero budget is expired by the time admission runs: 504 without any
    // model work, counted as an admission shed, with Retry-After.
    let (status, headers, body) = request_full(
        addr,
        "POST",
        "/predict",
        r#"{"subject": 0, "relation": 0}"#,
        &[("X-LogCL-Deadline-Ms", "0")],
    );
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("before admission"), "{body}");
    assert!(header_of(&headers, "Retry-After").is_some(), "{headers:?}");
    assert_eq!(
        server
            .metrics()
            .shed_deadline_admission
            .load(Ordering::Relaxed),
        1
    );
    // A sane budget still answers.
    let (status, _, _) = request_full(
        addr,
        "POST",
        "/predict",
        r#"{"subject": 0, "relation": 0}"#,
        &[("X-LogCL-Deadline-Ms", "30000")],
    );
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn deadline_header_rejects_garbage_and_clamps_oversized_budgets() {
    let server = test_server();
    let addr = server.addr();

    // Negative and u64-overflowing values are 400s naming the header —
    // never a panic, never a silent fallback to the default budget.
    for bad in ["-5", "99999999999999999999999"] {
        let (status, _, body) = request_full(
            addr,
            "POST",
            "/predict",
            r#"{"subject": 0, "relation": 0}"#,
            &[("X-LogCL-Deadline-Ms", bad)],
        );
        assert_eq!(status, 400, "value {bad:?}: {body}");
        assert!(
            body.contains("X-LogCL-Deadline-Ms"),
            "value {bad:?}: {body}"
        );
    }

    // A budget above the server ceiling parses fine and is clamped to
    // `max_deadline` rather than rejected: ~31 years becomes 120s and the
    // request answers normally.
    let (status, _, body) = request_full(
        addr,
        "POST",
        "/predict",
        r#"{"subject": 0, "relation": 0}"#,
        &[("X-LogCL-Deadline-Ms", "999999999999")],
    );
    assert_eq!(status, 200, "{body}");

    // Surrounding whitespace is tolerated (the header is trimmed before
    // parsing), matching what proxies commonly emit.
    let (status, _, body) = request_full(
        addr,
        "POST",
        "/predict",
        r#"{"subject": 0, "relation": 0}"#,
        &[("X-LogCL-Deadline-Ms", " 30000 ")],
    );
    assert_eq!(status, 200, "{body}");
    server.shutdown();
}

/// `(entity, score_bits)` pairs from a `/predict` reply, in reply order.
fn ranking_of(body: &Value) -> Vec<(usize, u32)> {
    body.get("predictions")
        .and_then(Value::as_array)
        .expect("predictions array")
        .iter()
        .map(|p| {
            (
                p.get("entity").and_then(Value::as_u64).expect("entity id") as usize,
                p.get("score_bits").and_then(Value::as_u64).expect("bits") as u32,
            )
        })
        .collect()
}

/// What `/ingest` does to the registry's dataset, done to the twin's:
/// the facts not already present at `t` join the test split and the
/// horizon covers `t`. Returns the facts that were new.
fn extend(ds: &mut TkgDataset, t: usize, facts: &[(usize, usize, usize)]) -> Vec<Quad> {
    let fresh: Vec<Quad> = facts
        .iter()
        .filter(|f| !ds.all_quads().iter().any(|q| q.t == t && q.triple() == **f))
        .map(|&(s, r, o)| Quad::new(s, r, o, t))
        .collect();
    ds.test.extend_from_slice(&fresh);
    ds.num_times = ds.num_times.max(t + 1);
    fresh
}

/// The registry keeps one history index and reads it as of each query's
/// time; cache entries hold encodings only. So whatever is ingested, and
/// whichever entries the cache has evicted and recomputed, an answer at a
/// historical `t` is `predict_topk`'s and the head answer is
/// `predict_topk_stream`'s on an identically extended dataset — entity for
/// entity, bit for bit.
#[test]
fn historical_and_head_answers_stay_exact_across_ingests_and_evictions() {
    const CACHE_CAPACITY: usize = 3;
    const K: usize = 6;
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        cache_capacity: CACHE_CAPACITY,
        // Exactness test: keep degradation out of reach (see `test_server`).
        brownout_sojourn: Duration::from_secs(10),
        shed_sojourn: Duration::from_secs(60),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, tiny_ds(), vec![untrained_spec()]).expect("server must start");
    let addr = server.addr();
    let mut ds = tiny_ds();
    let mut twin = LogCl::new(&ds, tiny_cfg());
    let base = ds.num_times;

    let ask = |body: String| {
        let (status, reply) = request(addr, "POST", "/predict", &body);
        assert_eq!(status, 200, "{body}: {reply}");
        json(&reply)
    };
    let ingest = |t: usize, facts: &[(usize, usize, usize)], update: bool| {
        let facts: Vec<String> = facts
            .iter()
            .map(|(s, r, o)| format!("[{s}, {r}, {o}]"))
            .collect();
        let body = format!(
            r#"{{"time": {t}, "facts": [{}], "update": {update}}}"#,
            facts.join(", ")
        );
        let (status, reply) = request(addr, "POST", "/ingest", &body);
        assert_eq!(status, 200, "{body}: {reply}");
        json(&reply)
    };
    // More distinct historical times than the cache holds, asked twice
    // over, so the second pass finds most of them evicted; then the head.
    let check = |ds: &TkgDataset, twin: &mut LogCl, what: &str| {
        let head = ds.num_times;
        let times = [head - 1, base - 2, base - 5, head - 3, base - 8];
        assert!(times.len() > CACHE_CAPACITY);
        let mut recomputed = 0;
        for pass in 0..2 {
            for &t in &times {
                for (s, r, inverse) in [(1usize, 0usize, false), (2, 1, true)] {
                    let reply = ask(format!(
                        r#"{{"subject": {s}, "relation": {r}, "inverse": {inverse}, "time": {t}, "k": {K}}}"#
                    ));
                    let r = if inverse { r + ds.num_rels } else { r };
                    let want: Vec<(usize, u32)> = predict_topk(twin, ds, s, r, t, K)
                        .expect("reference")
                        .iter()
                        .map(|p| (p.entity, p.score.to_bits()))
                        .collect();
                    assert_eq!(ranking_of(&reply), want, "{what}: ({s}, {r}) at t = {t}");
                    let hit = reply.get("cache_hit").and_then(Value::as_bool).unwrap();
                    recomputed += usize::from(pass == 1 && !hit);
                }
            }
        }
        assert!(recomputed > 0, "{what}: no evicted entry was recomputed");
        for (s, r) in [(1usize, 0usize), (4, 1)] {
            let reply = ask(format!(r#"{{"subject": {s}, "relation": {r}, "k": {K}}}"#));
            let want: Vec<(usize, u32)> = predict_topk_stream(twin, ds, s, r, K)
                .expect("reference")
                .iter()
                .map(|p| (p.entity, p.score.to_bits()))
                .collect();
            assert_eq!(ranking_of(&reply), want, "{what}: ({s}, {r}) at the head");
        }
    };

    check(&ds, &mut twin, "base");

    // Head appends: the index is advanced in place.
    for facts in [[(1, 0, 2), (3, 1, 4)], [(1, 0, 5), (2, 1, 1)]] {
        let t = ds.num_times;
        let reply = ingest(t, &facts, false);
        assert_eq!(
            reply.get("horizon").and_then(Value::as_u64),
            Some(t as u64 + 1)
        );
        extend(&mut ds, t, &facts);
    }
    check(&ds, &mut twin, "after head appends");

    // A backfill: the index is rebuilt over the amended timeline, and every
    // later timestamp's history now holds these facts.
    let backfill = [(1, 0, 6), (6, 1, 2)];
    ingest(base - 4, &backfill, false);
    assert_eq!(extend(&mut ds, base - 4, &backfill).len(), 2);
    check(&ds, &mut twin, "after a backfill");

    // An online update at the head: one guarded gradient step on the new
    // facts, against the history as of their timestamp.
    let t = ds.num_times;
    let facts = [(2, 0, 1), (5, 1, 3)];
    let reply = ingest(t, &facts, true);
    assert_eq!(
        reply.get("online_update").and_then(Value::as_bool),
        Some(true)
    );
    let fresh = extend(&mut ds, t, &facts);
    let snapshots = ds.snapshots();
    let history = HistoryIndex::build(&snapshots[..t]);
    let ctx = EvalContext {
        ds: &ds,
        snapshots: &snapshots,
        history: &history,
        t,
    };
    let report = online_adapt(&mut twin, &ctx, &fresh, &OnlineAdaptOptions::default());
    assert_eq!(report.steps, 1);
    check(&ds, &mut twin, "after an online update");

    server.shutdown();
}

/// Four clients mix head and historical reads while a feed appends at the
/// head. Every answer is bit-equal to a from-scratch twin at the `time` it
/// reports: `predict_topk_stream` over the dataset as extended up to that
/// horizon for a head read, `predict_topk` for a historical one.
#[test]
fn mixed_reads_beside_a_head_feed_stay_exact_at_the_time_they_report() {
    const K: usize = 5;
    const FEED: usize = 4;
    let server = test_server();
    let addr = server.addr();
    let base = tiny_ds().num_times;
    let feed: Vec<[(usize, usize, usize); 2]> = (0..FEED)
        .map(|i| [(1 + i, 0, 2 + i), (4, 1, 6 + i)])
        .collect();

    let answers: Vec<(Option<usize>, usize, usize, String)> = std::thread::scope(|scope| {
        let feeder = scope.spawn(|| {
            for (i, facts) in feed.iter().enumerate() {
                let t = base + i;
                let body = format!(
                    r#"{{"time": {t}, "facts": [[{}, {}, {}], [{}, {}, {}]], "update": false}}"#,
                    facts[0].0, facts[0].1, facts[0].2, facts[1].0, facts[1].1, facts[1].2
                );
                let (status, reply) = request(addr, "POST", "/ingest", &body);
                assert_eq!(status, 200, "{reply}");
                std::thread::sleep(Duration::from_millis(15));
            }
        });
        let clients: Vec<_> = (0..4)
            .map(|c| {
                scope.spawn(move || {
                    (0..16)
                        .map(|i| {
                            let (s, r) = ((c * 7 + i) % 20, (c + i) % 4);
                            let time = (i % 2 == 1).then(|| base - 1 - (c + i) % 6);
                            let body = match time {
                                Some(t) => format!(
                                    r#"{{"subject": {s}, "relation": {r}, "time": {t}, "k": {K}}}"#
                                ),
                                None => format!(r#"{{"subject": {s}, "relation": {r}, "k": {K}}}"#),
                            };
                            let (status, reply) = request(addr, "POST", "/predict", &body);
                            assert_eq!(status, 200, "{body}: {reply}");
                            (time, s, r, reply)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        feeder.join().expect("feeder");
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client"))
            .collect()
    });

    // The dataset at every horizon the feed passed through.
    let mut ds = tiny_ds();
    let mut at_horizon = vec![ds.clone()];
    for (i, facts) in feed.iter().enumerate() {
        extend(&mut ds, base + i, facts);
        at_horizon.push(ds.clone());
    }
    let mut twin = LogCl::new(&ds, tiny_cfg());
    let mut heads = 0;
    for (time, s, r, reply) in answers {
        let reply = json(&reply);
        let reported = reply
            .get("query")
            .and_then(|q| q.get("time"))
            .and_then(Value::as_u64)
            .expect("query.time") as usize;
        let want = match time {
            Some(t) => {
                assert_eq!(reported, t);
                predict_topk(&mut twin, &ds, s, r, t, K)
            }
            None => {
                heads += 1;
                predict_topk_stream(&mut twin, &at_horizon[reported - base], s, r, K)
            }
        };
        let want: Vec<(usize, u32)> = want
            .expect("reference")
            .iter()
            .map(|p| (p.entity, p.score.to_bits()))
            .collect();
        assert_eq!(ranking_of(&reply), want, "({s}, {r}) at t = {reported}");
    }
    assert_eq!(heads, 32);
    server.shutdown();
}
