//! The scatter-gather router: one thin process in front of N entity-sharded
//! `logcl serve --shard` workers, speaking the same HTTP protocol.
//!
//! * `POST /predict` — fans the request to every shard, merges the per-shard
//!   top-k into a global top-k that is bit-identical (scores and order) to a
//!   single unsharded worker's answer, and recombines softmax probabilities
//!   from per-shard partials. A shard that stays unreachable after the retry
//!   budget degrades the answer instead of failing it: the response carries
//!   `"degraded": true`, a `"coverage"` fraction, and the
//!   `X-LogCL-Degradation: partial` header.
//! * `POST /ingest`  — fans to *every* worker (each holds the full model;
//!   only decoding is entity-partitioned) under one `X-LogCL-Ingest-Id`.
//!   Router-level retries reuse the same id, so the workers' WAL dedup (PR 7)
//!   makes the whole fan-out exactly-once even across worker restarts.
//! * `GET /healthz`, `GET /metrics`, `POST /shutdown` — the usual triad.
//!
//! Inbound, the router is the same process as a worker: it runs on
//! [`logcl_serve::listener`] (accept, a thread per connection under
//! `max_connections`, keep-alive lifecycle, 503 at the cap, drain) and only
//! supplies `route` as the callback. Everything below is the outbound side.
//!
//! Failure handling per outbound hop: bounded retries with deterministic
//! jittered exponential backoff, each retry against the next-preferred
//! replica; per-worker health state machines (Up → Suspect → Down, walked
//! back by an active prober or by passive success); remaining-deadline
//! propagation via `X-LogCL-Deadline-Ms` on every hop; optional tail-latency
//! hedging for predict.

use std::io::ErrorKind;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use logcl_serve::deadline::{self, expired, remaining_budget, remaining_ms, DEADLINE_HEADER};
use logcl_serve::http::{Reply, Request, Response};
use logcl_serve::listener::{Inbound, Listener, ListenerConfig};
use logcl_serve::{ShutdownState, StartError};
use logcl_tensor::rng::splitmix64;
use serde_json::{json, Value};

use crate::client::{self, FailReason, HopError};
use crate::config::RouterConfig;
use crate::health::{WorkerHealth, WorkerState};
use crate::merge::{self, ShardReply};
use crate::metrics::RouterMetrics;

/// One worker process: a replica of one entity shard.
struct Replica {
    /// The worker's address and the idle kept-alive connections to it.
    pool: client::Pool,
    health: WorkerHealth,
}

struct RouterCtx {
    cfg: RouterConfig,
    shards: Vec<Vec<Replica>>,
    metrics: RouterMetrics,
    shutdown: Arc<ShutdownState>,
    /// Monotone counter minting unique ingest ids.
    ingest_seq: AtomicU64,
    /// Monotone counter feeding deterministic backoff jitter.
    attempt_seq: AtomicU64,
    pid: u32,
}

/// A running router. Dropping it (or calling [`Router::shutdown`]) stops
/// accepting, finishes in-flight connections, and joins every thread.
pub struct Router {
    listener: Listener,
    ctx: Arc<RouterCtx>,
    prober: Option<JoinHandle<()>>,
}

impl Router {
    /// Binds the router, starts accepting, and spawns the prober.
    pub fn start(cfg: RouterConfig) -> Result<Router, StartError> {
        if cfg.shards.is_empty() {
            return Err(StartError::Io {
                context: "router needs at least one worker shard (--shards)".into(),
                source: std::io::Error::new(ErrorKind::InvalidInput, "empty shard list"),
            });
        }
        let shards: Vec<Vec<Replica>> = cfg
            .shards
            .iter()
            .map(|group| {
                group
                    .iter()
                    .map(|addr| Replica {
                        pool: client::Pool::new(addr.as_str()),
                        health: WorkerHealth::default(),
                    })
                    .collect()
            })
            .collect();
        let ctx = Arc::new(RouterCtx {
            metrics: RouterMetrics::new(shards.len()),
            shards,
            shutdown: Arc::new(ShutdownState::new()),
            ingest_seq: AtomicU64::new(0),
            attempt_seq: AtomicU64::new(0),
            pid: std::process::id(),
            cfg,
        });

        let listener = {
            let ctx = Arc::clone(&ctx);
            Listener::start(
                ListenerConfig {
                    name: "logcl-router",
                    addr: ctx.cfg.addr.clone(),
                    max_connections: ctx.cfg.max_connections,
                    read_timeout: ctx.cfg.read_timeout,
                    write_timeout: ctx.cfg.read_timeout,
                    max_body_bytes: ctx.cfg.max_body_bytes,
                    retry_after_secs: ctx.cfg.retry_after_secs,
                },
                Arc::clone(&ctx.shutdown),
                Box::new(move |inbound, started| match inbound {
                    Inbound::Request(req) => route(&ctx, req, started),
                    Inbound::Unreadable(_, resp) => resp,
                    Inbound::AtCapacity(resp) => {
                        ctx.metrics.shed_connections.fetch_add(1, Ordering::Relaxed);
                        resp
                    }
                }),
            )?
        };
        let prober = {
            let ctx = Arc::clone(&ctx);
            thread::Builder::new()
                .name("logcl-router-prober".into())
                .spawn(move || prober_loop(&ctx))
                .map_err(|e| StartError::Io {
                    context: "spawn prober".into(),
                    source: e,
                })?
        };

        Ok(Router {
            listener,
            ctx,
            prober: Some(prober),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// The shutdown latch: `trigger()` it from any thread to begin graceful
    /// shutdown.
    pub fn shutdown_handle(&self) -> Arc<ShutdownState> {
        Arc::clone(&self.ctx.shutdown)
    }

    /// A snapshot of every worker's health state, indexed `[shard][replica]`
    /// (for tests and operational assertions).
    pub fn shard_states(&self) -> Vec<Vec<WorkerState>> {
        self.ctx
            .shards
            .iter()
            .map(|group| group.iter().map(|r| r.health.state()).collect())
            .collect()
    }

    /// How many idle kept-alive connections the router holds to each worker
    /// right now, indexed `[shard][replica]` (never above
    /// [`client::MAX_IDLE`]).
    pub fn idle_hop_connections(&self) -> Vec<Vec<usize>> {
        self.ctx
            .shards
            .iter()
            .map(|group| group.iter().map(|r| r.pool.idle_count()).collect())
            .collect()
    }

    /// Blocks until shutdown is triggered (via the handle or
    /// `POST /shutdown`), then drains and joins everything.
    pub fn run(mut self) {
        self.ctx.shutdown.wait();
        self.drain();
    }

    /// Triggers shutdown and drains.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        self.listener.drain(); // in-flight connections answered
        if let Some(prober) = self.prober.take() {
            let _ = prober.join();
        }
        // Hang up on the workers. (A detached hedge loser may still put a
        // socket back afterwards; it closes when the context drops.)
        for replica in self.ctx.shards.iter().flatten() {
            replica.pool.clear();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.drain();
    }
}

// ------------------------------------------------------------------- probe

/// Walks Suspect/Down workers back via active `GET /healthz` probes. The
/// passive path (real traffic succeeding) also recovers workers; the prober
/// exists so an idle cluster notices recoveries too.
fn prober_loop(ctx: &Arc<RouterCtx>) {
    while !ctx.shutdown.wait_timeout(ctx.cfg.probe_interval) {
        for group in &ctx.shards {
            for replica in group {
                if !replica.health.begin_probe() {
                    continue;
                }
                ctx.metrics.probes.fetch_add(1, Ordering::Relaxed);
                if probe_worker(ctx, replica) {
                    replica.health.probe_success();
                } else {
                    replica.health.probe_failure();
                }
            }
        }
    }
}

fn probe_worker(ctx: &RouterCtx, replica: &Replica) -> bool {
    if injected_probe_blackhole() {
        return false;
    }
    let deadline = Instant::now() + ctx.cfg.connect_timeout * 2;
    matches!(
        // A connection of its own: a probe is there to test the connect path.
        client::request(
            replica.pool.addr(),
            "GET",
            "/healthz",
            &[],
            b"",
            deadline,
            ctx.cfg.connect_timeout,
        ),
        Ok(resp) if resp.status == 200
    )
}

#[cfg(feature = "fault-inject")]
fn injected_probe_blackhole() -> bool {
    crate::fault::probe_blackholed()
}

#[cfg(not(feature = "fault-inject"))]
fn injected_probe_blackhole() -> bool {
    false
}

#[cfg(feature = "fault-inject")]
fn injected_hop_fault(
    ctx: &RouterCtx,
    shard: usize,
    attempt_no: u64,
    deadline: Instant,
) -> Option<HopError> {
    if crate::fault::connect_refused(shard) {
        return Some(HopError {
            reason: FailReason::Connect,
            detail: "injected connect refusal".into(),
        });
    }
    if let Some(stall) = crate::fault::shard_stall(shard, attempt_no) {
        thread::sleep(stall.min(remaining_budget(deadline, Instant::now())));
    }
    let _ = ctx;
    None
}

#[cfg(not(feature = "fault-inject"))]
fn injected_hop_fault(
    _ctx: &RouterCtx,
    _shard: usize,
    _attempt_no: u64,
    _deadline: Instant,
) -> Option<HopError> {
    None
}

// ------------------------------------------------------------ outbound hops

/// One attempt against one worker. Propagates the *remaining* deadline
/// budget (never the client's original figure) as `X-LogCL-Deadline-Ms`,
/// and feeds the outcome into the worker's health machine.
#[allow(clippy::too_many_arguments)]
fn attempt_once(
    ctx: &RouterCtx,
    shard: usize,
    replica: &Replica,
    method: &str,
    path: &str,
    extra: &[(&str, &str)],
    body: &[u8],
    deadline: Instant,
    attempt_no: u64,
) -> Result<Reply, HopError> {
    if let Some(err) = injected_hop_fault(ctx, shard, attempt_no, deadline) {
        replica.health.note_failure(ctx.cfg.down_after);
        return Err(err);
    }
    let ms = remaining_ms(deadline, Instant::now()).to_string();
    let mut headers = extra.to_vec();
    headers.push((DEADLINE_HEADER, &ms));
    let hop_start = Instant::now();
    match replica.pool.request(
        method,
        path,
        &headers,
        body,
        deadline,
        ctx.cfg.connect_timeout,
    ) {
        Ok(resp) => {
            replica.health.note_success();
            ctx.metrics.count_hop_connection(resp.reused_connection);
            ctx.metrics.shard_latency[shard].observe(hop_start.elapsed().as_secs_f64());
            Ok(resp)
        }
        Err(e) => {
            replica.health.note_failure(ctx.cfg.down_after);
            Err(e)
        }
    }
}

/// Jittered exponential backoff before retry `attempt + 1`, bounded by the
/// remaining deadline: sleeps in `[base·2ᵃ/2, base·2ᵃ)`, the jitter drawn
/// deterministically from the router seed.
fn backoff(ctx: &RouterCtx, attempt: usize, deadline: Instant) {
    let exp = ctx
        .cfg
        .retry_base
        .saturating_mul(1u32 << attempt.min(6) as u32);
    let half = exp / 2;
    let n = ctx.attempt_seq.fetch_add(1, Ordering::AcqRel);
    let jitter_permille = splitmix64(ctx.cfg.seed, n) % 1000;
    let jitter =
        Duration::from_nanos((half.as_nanos() as u64).saturating_mul(jitter_permille) / 1000);
    let sleep = (half + jitter).min(remaining_budget(deadline, Instant::now()));
    if !sleep.is_zero() {
        thread::sleep(sleep);
    }
}

/// Replica preference order for a scatter attempt: healthiest first, stable
/// by index among equals.
fn replica_order(group: &[Replica]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..group.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(group[i].health.state() as u8));
    order
}

/// Calls one shard with the full failover policy: bounded retries, each
/// against the next-preferred replica, jittered backoff between attempts,
/// and (for predict) one hedged attempt when the first is slow. A shard
/// whose every replica is Down gets exactly one probe-like attempt — cheap
/// enough to keep paying, and the only passive recovery signal there is.
fn call_shard(
    ctx: &Arc<RouterCtx>,
    shard: usize,
    path: &str,
    extra: &[(&str, &str)],
    body: &[u8],
    deadline: Instant,
    hedge: bool,
) -> Result<Reply, HopError> {
    let group = &ctx.shards[shard];
    let order = replica_order(group);
    let all_down = group.iter().all(|r| r.health.state() == WorkerState::Down);
    let attempts = if all_down {
        1
    } else {
        1 + ctx.cfg.retries as usize
    };
    let mut last: Option<HopError> = None;
    for attempt in 0..attempts {
        if expired(deadline, Instant::now()) {
            break;
        }
        let replica_idx = order[attempt % order.len()];
        let result = if hedge && attempt == 0 && ctx.cfg.hedge_after.is_some() {
            hedged_attempt(
                ctx,
                shard,
                replica_idx,
                order[1 % order.len()],
                path,
                body,
                deadline,
            )
        } else {
            attempt_once(
                ctx,
                shard,
                &group[replica_idx],
                "POST",
                path,
                extra,
                body,
                deadline,
                ctx.attempt_seq.fetch_add(1, Ordering::AcqRel),
            )
        };
        match result {
            Ok(resp) => return Ok(resp),
            Err(e) => {
                if attempt + 1 < attempts {
                    ctx.metrics.count_retry(e.reason);
                    backoff(ctx, attempt, deadline);
                }
                last = Some(e);
            }
        }
    }
    Err(last.unwrap_or(HopError {
        reason: FailReason::Timeout,
        detail: "deadline exhausted before any attempt".into(),
    }))
}

/// The hedged first attempt for predict: launch against the preferred
/// replica, and if nothing comes back within `hedge_after`, launch a second
/// attempt (next-preferred replica — or a second connection to the same one
/// in a single-replica shard, pooled or new, never queued behind the
/// primary's) and take whichever answers first. Losers run
/// to completion on detached threads; their sends into the dropped channel
/// are ignored.
fn hedged_attempt(
    ctx: &Arc<RouterCtx>,
    shard: usize,
    primary: usize,
    secondary: usize,
    path: &str,
    body: &[u8],
    deadline: Instant,
) -> Result<Reply, HopError> {
    let hedge_after = ctx.cfg.hedge_after.unwrap_or_default();
    let (tx, rx) = mpsc::channel();
    let launch = |replica_idx: usize, tx: mpsc::Sender<Result<Reply, HopError>>| {
        let ctx = Arc::clone(ctx);
        let path = path.to_string();
        let body = body.to_vec();
        let n = ctx.attempt_seq.fetch_add(1, Ordering::AcqRel);
        thread::spawn(move || {
            let result = attempt_once(
                &ctx,
                shard,
                &ctx.shards[shard][replica_idx],
                "POST",
                &path,
                &[],
                &body,
                deadline,
                n,
            );
            let _ = tx.send(result);
        });
    };
    launch(primary, tx.clone());
    let first_wait = hedge_after.min(remaining_budget(deadline, Instant::now()));
    match rx.recv_timeout(first_wait) {
        Ok(result) => result, // fast answer (or fast failure → outer retry loop)
        Err(_) => {
            ctx.metrics.hedges.fetch_add(1, Ordering::Relaxed);
            launch(secondary, tx);
            let mut last: Option<HopError> = None;
            for _ in 0..2 {
                let wait = remaining_budget(deadline, Instant::now()).max(Duration::from_millis(1));
                match rx.recv_timeout(wait) {
                    Ok(Ok(resp)) => return Ok(resp),
                    Ok(Err(e)) => last = Some(e),
                    Err(_) => break,
                }
            }
            Err(last.unwrap_or(HopError {
                reason: FailReason::Timeout,
                detail: format!("shard {shard}: no attempt answered within the deadline"),
            }))
        }
    }
}

// ----------------------------------------------------------------- routing

fn route(ctx: &Arc<RouterCtx>, req: &Request, started: Instant) -> Response {
    let path = req.path.split('?').next().unwrap_or("");
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => healthz(ctx),
        ("GET", "/metrics") => {
            let states: Vec<Vec<u8>> = ctx
                .shards
                .iter()
                .map(|group| group.iter().map(|r| r.health.state() as u8).collect())
                .collect();
            Response::text(200, ctx.metrics.render(&states))
        }
        ("POST", "/predict") => predict(ctx, req, started),
        ("POST", "/ingest") => ingest(ctx, req, started),
        ("POST", "/shutdown") if ctx.cfg.enable_shutdown_endpoint => {
            ctx.shutdown.trigger();
            Response::json(200, json!({ "status": "shutting down" }).to_string())
        }
        ("GET", "/predict" | "/ingest" | "/shutdown") => {
            Response::json(405, json!({ "error": "use POST" }).to_string())
        }
        _ => Response::json(
            404,
            json!({ "error": format!("no route {} {}", req.method, req.path) }).to_string(),
        ),
    }
}

fn healthz(ctx: &RouterCtx) -> Response {
    let workers: Vec<Value> = ctx
        .shards
        .iter()
        .enumerate()
        .map(|(shard, group)| {
            let replicas: Vec<Value> = group
                .iter()
                .map(|r| {
                    json!({
                        "addr": r.pool.addr(),
                        "state": r.health.state().name(),
                        "failures": r.health.failures(),
                    })
                })
                .collect();
            json!({ "shard": shard, "replicas": replicas })
        })
        .collect();
    let routable = ctx
        .shards
        .iter()
        .filter(|group| group.iter().any(|r| r.health.state() != WorkerState::Down))
        .count();
    Response::json(
        200,
        json!({
            "status": "ok",
            "role": "router",
            "shards": ctx.shards.len(),
            "routable_shards": routable,
            "workers": workers,
        })
        .to_string(),
    )
}

/// Parses the client's deadline header into an absolute deadline (clamped
/// to the router ceiling) and sheds already-expired requests with 504.
fn admit_deadline(ctx: &RouterCtx, req: &Request, started: Instant) -> Result<Instant, Response> {
    let budget = deadline::from_header(
        req.header(DEADLINE_HEADER),
        ctx.cfg.default_deadline,
        ctx.cfg.max_deadline,
    )
    .map_err(|e| Response::json(400, json!({ "error": e.to_string() }).to_string()))?;
    let deadline = started + budget;
    if expired(deadline, Instant::now()) {
        ctx.metrics.shed_deadline.fetch_add(1, Ordering::Relaxed);
        return Err(Response::json(
            504,
            json!({ "error": "deadline exhausted before routing" }).to_string(),
        ));
    }
    Ok(deadline)
}

// ----------------------------------------------------------------- predict

fn predict(ctx: &Arc<RouterCtx>, req: &Request, started: Instant) -> Response {
    let deadline = match admit_deadline(ctx, req, started) {
        Ok(d) => d,
        Err(resp) => return resp,
    };
    ctx.metrics.predict_requests.fetch_add(1, Ordering::Relaxed);
    let parsed: Value = match serde_json::from_slice(&req.body) {
        Ok(v) => v,
        Err(e) => {
            return Response::json(
                400,
                json!({ "error": format!("predict body must be JSON: {e}") }).to_string(),
            )
        }
    };
    let k = parsed
        .get("k")
        .and_then(Value::as_u64)
        .map(|v| v as usize)
        .unwrap_or(ctx.cfg.default_k);

    // Scatter: one thread per shard, each running the full failover policy.
    let total = ctx.shards.len();
    let (tx, rx) = mpsc::channel();
    for shard in 0..total {
        let ctx = Arc::clone(ctx);
        let tx = tx.clone();
        let body = req.body.clone();
        thread::spawn(move || {
            let result = call_shard(&ctx, shard, "/predict", &[], &body, deadline, true);
            let _ = tx.send((shard, result));
        });
    }
    drop(tx);

    // Gather until every shard reported or the deadline passed; stragglers
    // simply don't make it into the answer (partial-result degradation).
    let mut replies: Vec<ShardReply> = Vec::with_capacity(total);
    let mut fatal: Option<Reply> = None;
    let mut heard = 0usize;
    while heard < total {
        let wait = remaining_budget(deadline, Instant::now()).max(Duration::from_millis(1));
        let (_, result) = match rx.recv_timeout(wait) {
            Ok(item) => item,
            Err(_) => break,
        };
        heard += 1;
        match result {
            Ok(resp) if resp.status == 200 => {
                // A 200 with an unintelligible body is a failed shard, not
                // a guessable one.
                if let Ok(reply) = merge::parse_shard_reply(&resp.body) {
                    replies.push(reply);
                }
            }
            // A 4xx is an answer about the *request* (unknown entity, bad
            // body) — identical on every shard, so forward the first one.
            Ok(resp) => {
                fatal.get_or_insert(resp);
            }
            Err(_) => {}
        }
    }

    if replies.is_empty() {
        if let Some(f) = fatal {
            return Response::json(f.status, f.text());
        }
        return Response::json(
            503,
            json!({ "error": "no worker shard available", "coverage": 0.0 }).to_string(),
        );
    }

    let merged = merge::merge_replies(&replies, k, total);
    let partial = merged.coverage < 1.0;
    if partial {
        ctx.metrics
            .partial_responses
            .fetch_add(1, Ordering::Relaxed);
    }
    let predictions: Vec<Value> = merged
        .predictions
        .iter()
        .map(|p| {
            json!({
                "entity": p.entity,
                "name": p.name,
                "probability": p.probability,
                "score": p.score,
                "score_bits": p.score.to_bits(),
            })
        })
        .collect();
    let shard_summary = json!({ "answered": merged.answered, "total": total });
    let body = json!({
        "predictions": predictions,
        "degraded": partial || merged.shard_degraded,
        "coverage": merged.coverage,
        "cache_hit": merged.all_cache_hits,
        "shards": shard_summary,
    });
    let tier = if partial {
        "partial"
    } else if merged.shard_degraded {
        "brownout"
    } else {
        "normal"
    };
    let mut resp = Response::json(200, body.to_string()).with_header("X-LogCL-Degradation", tier);
    if partial {
        // A partial answer is worth retrying for a full one.
        resp = resp.with_header("Retry-After", ctx.cfg.retry_after_secs.to_string());
    }
    resp
}

// ------------------------------------------------------------------ ingest

fn ingest(ctx: &Arc<RouterCtx>, req: &Request, started: Instant) -> Response {
    let deadline = match admit_deadline(ctx, req, started) {
        Ok(d) => d,
        Err(resp) => return resp,
    };
    ctx.metrics.ingest_requests.fetch_add(1, Ordering::Relaxed);
    if serde_json::from_slice::<Value>(&req.body).is_err() {
        return Response::json(
            400,
            json!({ "error": "ingest body must be JSON" }).to_string(),
        );
    }
    // One id for the whole fan-out, minted at most once per client request:
    // every worker, every retry, and every client retry (echoed back in the
    // response header) sees the same id, so worker-side WAL dedup makes the
    // distributed ingest exactly-once.
    let ingest_id = match req.header("x-logcl-ingest-id") {
        Some(raw) => {
            let id = raw.trim();
            if id.is_empty() || id.len() > 128 {
                return Response::json(
                    400,
                    json!({ "error": "X-LogCL-Ingest-Id must be 1..=128 characters" }).to_string(),
                );
            }
            id.to_string()
        }
        None => {
            let seq = ctx.ingest_seq.fetch_add(1, Ordering::AcqRel);
            format!(
                "router-{}-{}-{:08x}",
                ctx.pid,
                seq,
                splitmix64(ctx.cfg.seed ^ u64::from(ctx.pid), seq) as u32
            )
        }
    };

    // Ingest fans to EVERY worker — each replica holds the full model and
    // its own WAL; only decoding is entity-partitioned.
    let (tx, rx) = mpsc::channel();
    let mut total = 0usize;
    for (shard, group) in ctx.shards.iter().enumerate() {
        for replica_idx in 0..group.len() {
            total += 1;
            let ctx = Arc::clone(ctx);
            let tx = tx.clone();
            let body = req.body.clone();
            let id = ingest_id.clone();
            thread::spawn(move || {
                let result = call_worker_ingest(&ctx, shard, replica_idx, &id, &body, deadline);
                let _ = tx.send(result);
            });
        }
    }
    drop(tx);

    let mut acked = 0usize;
    let mut appended: u64 = 0;
    let mut all_deduplicated = true;
    let mut fatal: Option<Reply> = None;
    let mut heard = 0usize;
    while heard < total {
        let wait = remaining_budget(deadline, Instant::now()).max(Duration::from_millis(1));
        let result = match rx.recv_timeout(wait) {
            Ok(item) => item,
            Err(_) => break,
        };
        heard += 1;
        match result {
            Ok(resp) if resp.status == 200 => {
                acked += 1;
                if let Ok(v) = serde_json::from_slice::<Value>(&resp.body) {
                    appended = appended.max(v.get("appended").and_then(Value::as_u64).unwrap_or(0));
                    if !v
                        .get("deduplicated")
                        .and_then(Value::as_bool)
                        .unwrap_or(false)
                    {
                        all_deduplicated = false;
                    }
                }
            }
            Ok(resp) => {
                fatal.get_or_insert(resp);
            }
            Err(_) => {}
        }
    }

    if let Some(f) = fatal {
        // A worker rejected the request itself (bad fact, out-of-range id):
        // forward its verdict; a retry with the same payload cannot succeed.
        return Response::json(f.status, f.text()).with_header("X-LogCL-Ingest-Id", ingest_id);
    }
    if acked == total {
        Response::json(
            200,
            json!({
                "status": "ok",
                "ingest_id": ingest_id,
                "workers": total,
                "acked": acked,
                "appended": appended,
                "deduplicated": all_deduplicated,
            })
            .to_string(),
        )
        .with_header("X-LogCL-Ingest-Id", ingest_id)
    } else {
        // Not every worker acknowledged: the cluster is inconsistent until a
        // retry converges it. The echoed id makes that retry exactly-once.
        Response::json(
            503,
            json!({
                "error": "ingest incomplete; retry with the same X-LogCL-Ingest-Id",
                "ingest_id": ingest_id,
                "workers": total,
                "acked": acked,
            })
            .to_string(),
        )
        .with_header("X-LogCL-Ingest-Id", ingest_id)
    }
}

/// Ingest hop to one specific worker: retries stay on that worker (every
/// worker must ack) and always resend the same ingest id.
fn call_worker_ingest(
    ctx: &Arc<RouterCtx>,
    shard: usize,
    replica_idx: usize,
    ingest_id: &str,
    body: &[u8],
    deadline: Instant,
) -> Result<Reply, HopError> {
    let replica = &ctx.shards[shard][replica_idx];
    let extra = [("X-LogCL-Ingest-Id", ingest_id)];
    let mut last: Option<HopError> = None;
    for attempt in 0..=(ctx.cfg.retries as usize) {
        if expired(deadline, Instant::now()) {
            break;
        }
        match attempt_once(
            ctx,
            shard,
            replica,
            "POST",
            "/ingest",
            &extra,
            body,
            deadline,
            ctx.attempt_seq.fetch_add(1, Ordering::AcqRel),
        ) {
            Ok(resp) => return Ok(resp),
            Err(e) => {
                if attempt < ctx.cfg.retries as usize {
                    ctx.metrics.count_retry(e.reason);
                    backoff(ctx, attempt, deadline);
                }
                last = Some(e);
            }
        }
    }
    Err(last.unwrap_or(HopError {
        reason: FailReason::Timeout,
        detail: "deadline exhausted before any attempt".into(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config(shards: Vec<Vec<String>>) -> RouterConfig {
        RouterConfig {
            shards,
            retries: 0,
            default_deadline: Duration::from_millis(400),
            connect_timeout: Duration::from_millis(100),
            probe_interval: Duration::from_millis(50),
            ..RouterConfig::default()
        }
    }

    /// One exchange with the router; 5xx responses come back as answers (it
    /// is [`client::request`] that maps them to retryable errors).
    fn roundtrip(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Reply {
        roundtrip_with(addr, method, path, &[], body)
    }

    fn roundtrip_with(
        addr: SocketAddr,
        method: &str,
        path: &str,
        extra: &[(&str, &str)],
        body: &[u8],
    ) -> Reply {
        logcl_serve::http::Client::new(addr, Duration::from_secs(30))
            .and_then(|mut client| client.send(method, path, extra, body))
            .expect("exchange with the router")
    }

    #[test]
    fn healthz_and_metrics_describe_the_cluster() {
        let router =
            Router::start(test_config(vec![vec!["127.0.0.1:1".into()]])).expect("router starts");
        let addr = router.addr();
        let resp = roundtrip(addr, "GET", "/healthz", b"");
        assert_eq!(resp.status, 200);
        let v: Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(v.get("role").and_then(Value::as_str), Some("router"));
        assert_eq!(v.get("shards").and_then(Value::as_u64), Some(1));
        let resp = roundtrip(addr, "GET", "/metrics", b"");
        let text = String::from_utf8_lossy(&resp.body).into_owned();
        assert!(
            text.contains("logcl_router_shard_state{shard=\"0\",replica=\"0\"}"),
            "{text}"
        );
        assert!(
            text.contains("logcl_router_retries_total{reason=\"connect\"} 0"),
            "{text}"
        );
        router.shutdown();
    }

    #[test]
    fn predict_with_no_workers_answers_503_with_retry_after() {
        // Port 1 is never listening: every shard attempt fails as Connect.
        let router =
            Router::start(test_config(vec![vec!["127.0.0.1:1".into()]])).expect("router starts");
        let resp = roundtrip(router.addr(), "POST", "/predict", br#"{"subject": 0}"#);
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("1"));
        let v: Value = serde_json::from_slice(&resp.body).unwrap();
        assert!(v.get("error").is_some());
        // The failed traffic degraded the worker's health state.
        assert_ne!(router.shard_states()[0][0], WorkerState::Up);
        router.shutdown();
    }

    #[test]
    fn bad_requests_answer_4xx_without_touching_workers() {
        let router =
            Router::start(test_config(vec![vec!["127.0.0.1:1".into()]])).expect("router starts");
        let addr = router.addr();
        assert_eq!(roundtrip(addr, "POST", "/predict", b"not json").status, 400);
        assert_eq!(roundtrip(addr, "POST", "/ingest", b"not json").status, 400);
        assert_eq!(roundtrip(addr, "GET", "/nope", b"").status, 404);
        assert_eq!(roundtrip(addr, "GET", "/predict", b"").status, 405);
        // No outbound attempt happened, so the (unreachable) worker is
        // still optimistically Up.
        assert_eq!(router.shard_states()[0][0], WorkerState::Up);
        router.shutdown();
    }

    #[test]
    fn shutdown_endpoint_stops_run() {
        let router =
            Router::start(test_config(vec![vec!["127.0.0.1:1".into()]])).expect("router starts");
        let addr = router.addr();
        let resp = roundtrip(addr, "POST", "/shutdown", b"");
        assert_eq!(resp.status, 200);
        router.run(); // returns promptly because shutdown is triggered
    }

    #[test]
    fn expired_deadline_is_shed_with_504() {
        let router =
            Router::start(test_config(vec![vec!["127.0.0.1:1".into()]])).expect("router starts");
        let resp = roundtrip_with(
            router.addr(),
            "POST",
            "/predict",
            &[("X-LogCL-Deadline-Ms", "0")],
            br#"{"subject": 0}"#,
        );
        assert_eq!(resp.status, 504);
        assert_eq!(resp.header("retry-after"), Some("1"));
        router.shutdown();
    }
}
