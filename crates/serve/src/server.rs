//! The inference server: configuration, the model thread, and the JSON
//! endpoint routing handed to the shared connection loop
//! ([`crate::listener`]), which owns accepting, connection lifecycle and
//! drain. A `/predict` is computed on the connection thread that parsed
//! it, from the generation the model thread published last
//! ([`crate::registry::Published`]); an `/ingest` is handed to the model
//! thread and answered when it is applied and logged.
//!
//! Endpoints:
//! * `GET  /healthz`  — liveness probe.
//! * `GET  /metrics`  — Prometheus text exposition ([`crate::metrics`]).
//! * `POST /predict`  — `{"subject", "relation", "time"?, "k"?, "inverse"?,
//!   "model"?}`; subject/relation accept names or numeric ids. Answers the
//!   top-k entities with softmax probabilities.
//! * `POST /ingest`   — `{"time", "facts": [[s, r, o], ...], "update"?,
//!   "model"?}`; appends facts and (by default) runs one online adaptation
//!   step, invalidating affected cached encodings. With durability enabled
//!   the ack means the facts are fsynced to the write-ahead log; an
//!   `X-LogCL-Ingest-Id` header makes retries idempotent.
//! * `POST /shutdown` — begins graceful shutdown (the SIGTERM equivalent:
//!   pure-std processes cannot install signal handlers, so the flag is
//!   raised over HTTP or programmatically via [`Server::shutdown_handle`]).

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use logcl_core::ShardSpec;
use logcl_tkg::TkgDataset;
use serde_json::{json, Value};

use crate::answer::{self, Object};
use crate::batcher::{run_batcher, IngestJob, PredictOutcome, ServeError};
use crate::error::StartError;
use crate::http::{HttpError, Request, Response};
use crate::listener::{Inbound, Listener, ListenerConfig, ShutdownState};
use crate::metrics::Metrics;
use crate::registry::{ModelSpec, Publisher, Query, Registry, RegistryOptions};
use crate::shed::{OverloadPolicy, OverloadState};

/// Bounded ingest-queue depth; excess ingests are answered `503`.
const INGEST_QUEUE_CAP: usize = 1024;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Concurrent inbound connections handled (excess answered `503`).
    pub max_connections: usize,
    /// Ingest-run cap: how many queued ingests one group commit takes. The
    /// model thread never waits for a run to fill.
    pub max_batch: usize,
    /// `k` when a predict request does not specify one.
    pub default_k: usize,
    /// Cached encodings kept per model.
    pub cache_capacity: usize,
    /// No effect: every predict is computed on its own. Kept because
    /// `crates/benchmark` names it.
    pub fused: bool,
    /// Serve `POST /shutdown` (disable when fronted by untrusted traffic).
    pub enable_shutdown_endpoint: bool,
    /// Per-connection socket read timeout; a peer that stalls longer is
    /// answered `408` and disconnected (counted in `/metrics`).
    pub read_timeout: Duration,
    /// Per-request body-size cap in bytes; larger declared bodies are
    /// answered `413` without being read (counted in `/metrics`).
    pub max_body_bytes: usize,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// Per-request deadline applied when the client sends no
    /// `X-LogCL-Deadline-Ms` header.
    pub default_deadline: Duration,
    /// Ceiling clamped onto client-supplied deadlines.
    pub max_deadline: Duration,
    /// Wait for a compute permit at which the degradation tier escalates
    /// to Brownout ([`crate::shed`]).
    pub brownout_sojourn: Duration,
    /// Wait for a compute permit at which the degradation tier escalates
    /// to Shed and incoming `/predict` is answered `503` (`/healthz` and
    /// `/metrics` are never shed).
    pub shed_sojourn: Duration,
    /// Consecutive healthy observations needed to step the tier down once.
    pub recovery_streak: u32,
    /// Effective top-k cap applied to predictions while in Brownout.
    pub brownout_k_cap: usize,
    /// Concurrent in-flight `/predict` requests admitted, computing or
    /// waiting for a compute permit.
    pub max_inflight_predict: usize,
    /// Directory for the durable-ingest write-ahead log and serving
    /// snapshot; `None` disables durability (accepted ingests live only in
    /// memory and are lost on crash).
    pub wal_dir: Option<std::path::PathBuf>,
    /// Snapshot-compact the WAL after this many logged ingests
    /// (`0` = never compact; the log grows without bound).
    pub wal_compact_every: u64,
    /// Max online fine-tuning gradient steps per `update:true` ingest
    /// (`0` disables online adaptation; the loss guard may stop — and roll
    /// back — a loop before the budget is spent).
    pub online_steps: usize,
    /// Serve as entity shard `i/N`: `/predict` scores only this worker's
    /// contiguous candidate range and reports shard-local softmax partials
    /// for a scatter-gather router to merge. `/ingest` is unaffected (every
    /// shard holds the full model and history). `None` = single-node.
    pub shard: Option<ShardSpec>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let overload = OverloadPolicy::default();
        Self {
            addr: "127.0.0.1:7878".into(),
            max_connections: 128,
            max_batch: 32,
            default_k: 10,
            cache_capacity: 64,
            fused: false,
            enable_shutdown_endpoint: true,
            read_timeout: Duration::from_secs(10),
            max_body_bytes: crate::http::MAX_BODY_BYTES,
            write_timeout: Duration::from_secs(10),
            default_deadline: Duration::from_secs(30),
            max_deadline: Duration::from_secs(120),
            brownout_sojourn: overload.brownout_sojourn,
            shed_sojourn: overload.shed_sojourn,
            recovery_streak: overload.recovery_streak,
            brownout_k_cap: overload.brownout_k_cap,
            max_inflight_predict: overload.max_inflight_predict,
            wal_dir: None,
            wal_compact_every: 64,
            online_steps: 1,
            shard: None,
        }
    }
}

/// Immutable vocabulary shared with handler threads for name resolution
/// (entity/relation vocabularies never change; the horizon may grow, so it
/// is read from the published generation).
struct Vocab {
    num_rels: usize,
    entity_by_name: BTreeMap<String, usize>,
    rel_by_name: BTreeMap<String, usize>,
}

impl Vocab {
    fn from_dataset(ds: &TkgDataset) -> Self {
        Self {
            num_rels: ds.num_rels,
            entity_by_name: ds
                .entity_names
                .iter()
                .enumerate()
                .map(|(i, n)| (n.clone(), i))
                .collect(),
            rel_by_name: ds
                .rel_names
                .iter()
                .enumerate()
                .map(|(i, n)| (n.clone(), i))
                .collect(),
        }
    }
}

struct HandlerCtx {
    vocab: Vocab,
    ingest_tx: SyncSender<IngestJob>,
    publisher: Arc<Publisher>,
    metrics: Arc<Metrics>,
    shutdown: Arc<ShutdownState>,
    overload: Arc<OverloadState>,
    default_k: usize,
    enable_shutdown_endpoint: bool,
    default_deadline: Duration,
    max_deadline: Duration,
    /// Entity vocabulary size (immutable), surfaced by `/healthz` so a
    /// router can compute coverage fractions.
    num_entities: usize,
    /// This worker's shard assignment with its resolved range, if any.
    shard: Option<(ShardSpec, (usize, usize))>,
}

// -------------------------------------------------------------------- server

/// A running inference server.
pub struct Server {
    listener: Listener,
    shutdown: Arc<ShutdownState>,
    worker: Option<JoinHandle<()>>,
    metrics: Arc<Metrics>,
    overload: Arc<OverloadState>,
}

impl Server {
    /// Binds, builds the model registry on the model thread (propagating
    /// load/validation errors as typed [`StartError`]s), and starts
    /// accepting connections once its first generation is published.
    pub fn start(
        cfg: ServeConfig,
        ds: TkgDataset,
        specs: Vec<ModelSpec>,
    ) -> Result<Server, StartError> {
        let metrics = Arc::new(Metrics::default());
        let shutdown = Arc::new(ShutdownState::new());
        let overload = Arc::new(OverloadState::new(
            OverloadPolicy {
                brownout_sojourn: cfg.brownout_sojourn,
                shed_sojourn: cfg.shed_sojourn.max(cfg.brownout_sojourn),
                recovery_streak: cfg.recovery_streak.max(1),
                brownout_k_cap: cfg.brownout_k_cap,
                max_inflight_predict: cfg.max_inflight_predict,
            },
            Arc::clone(&metrics),
        ));
        let vocab = Vocab::from_dataset(&ds);
        let num_entities = ds.num_entities;
        let (ingest_tx, ingest_rx) = mpsc::sync_channel::<IngestJob>(INGEST_QUEUE_CAP);

        // Model thread: owns the registry (the model is not Send, so it is
        // built on this thread) and applies every ingest; reports startup
        // success — where readers load its generations from — or failure.
        let (ready_tx, ready_rx) = mpsc::channel::<Result<Arc<Publisher>, StartError>>();
        let worker = {
            let metrics = Arc::clone(&metrics);
            let max_batch = cfg.max_batch.max(1);
            let registry_options = RegistryOptions {
                fused: cfg.fused,
                cache_capacity: cfg.cache_capacity,
                online_steps: cfg.online_steps,
                shard: cfg.shard,
            };
            let overload = Arc::clone(&overload);
            let wal_dir = cfg.wal_dir.clone();
            let wal_compact_every = cfg.wal_compact_every;
            thread::Builder::new()
                .name("logcl-serve-model".into())
                .spawn(move || {
                    let mut registry = match Registry::build(
                        ds,
                        specs,
                        Arc::clone(&metrics),
                        Arc::new(AtomicUsize::new(0)),
                        registry_options,
                        Arc::clone(&overload),
                    ) {
                        Ok(r) => r,
                        Err(e) => {
                            let _ = ready_tx.send(Err(e));
                            return;
                        }
                    };
                    // Durable ingest: recover snapshot + WAL state before
                    // declaring readiness — a failed recovery fails startup
                    // (fail-closed; never silently drop acknowledged facts).
                    if let Some(dir) = &wal_dir {
                        if let Err(e) = registry.enable_durability(dir, wal_compact_every) {
                            let _ = ready_tx.send(Err(e));
                            return;
                        }
                    }
                    let _ = ready_tx.send(Ok(registry.publisher()));
                    run_batcher(&mut registry, &ingest_rx, max_batch, &metrics, &overload);
                    // Shutdown drain: everything acked is already fsynced;
                    // this catches any trailing un-synced appends.
                    registry.flush_durability();
                })
                .map_err(|e| StartError::Io {
                    context: "spawn model worker".into(),
                    source: e,
                })?
        };
        let publisher = match ready_rx.recv() {
            Ok(Ok(publisher)) => publisher,
            Ok(Err(e)) => {
                let _ = worker.join();
                return Err(e);
            }
            Err(_) => {
                let _ = worker.join();
                return Err(StartError::WorkerDied);
            }
        };

        // The handlers own the only `ingest_tx`: the listener drops them at
        // the end of its drain, and only then does the model thread — every
        // queued ingest answered — see its queue close.
        let ctx = HandlerCtx {
            vocab,
            ingest_tx,
            publisher,
            metrics: Arc::clone(&metrics),
            shutdown: Arc::clone(&shutdown),
            overload: Arc::clone(&overload),
            default_k: cfg.default_k.max(1),
            enable_shutdown_endpoint: cfg.enable_shutdown_endpoint,
            default_deadline: cfg.default_deadline,
            max_deadline: cfg.max_deadline.max(cfg.default_deadline),
            num_entities,
            shard: cfg.shard.map(|s| (s, s.range(num_entities))),
        };
        let listener = Listener::start(
            ListenerConfig {
                name: "logcl-serve",
                addr: cfg.addr,
                max_connections: cfg.max_connections,
                read_timeout: cfg.read_timeout,
                write_timeout: cfg.write_timeout,
                max_body_bytes: cfg.max_body_bytes,
            },
            Arc::clone(&shutdown),
            Box::new(move |inbound, started| respond(inbound, &ctx, started)),
        )?;

        Ok(Server {
            listener,
            shutdown,
            worker: Some(worker),
            metrics,
            overload,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// Server-wide metrics (shared with `GET /metrics`).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// The overload/degradation state (compute permits, tier machine,
    /// queue-age signal) — shared with admission; useful for tests and
    /// programmatic health probes.
    pub fn overload(&self) -> Arc<OverloadState> {
        Arc::clone(&self.overload)
    }

    /// The shutdown latch: `trigger()` it from any thread (tests, a signal
    /// bridge, an admin thread) to begin graceful shutdown.
    pub fn shutdown_handle(&self) -> Arc<ShutdownState> {
        Arc::clone(&self.shutdown)
    }

    /// Blocks until shutdown is triggered (via the handle or
    /// `POST /shutdown`), then drains and joins everything.
    pub fn run(mut self) {
        self.shutdown.wait();
        self.drain();
    }

    /// Triggers shutdown and drains: stop accepting, finish in-flight
    /// connections, answer every queued ingest, join all threads.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        self.listener.drain(); // in-flight answered, last ingest_tx dropped
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
    }
}

// ------------------------------------------------------------------ handlers

/// The listener's callback: every response this server writes — routed
/// answers and the connection loop's own refusals alike — is counted and
/// names the current degradation tier.
fn respond(inbound: Inbound<'_>, ctx: &HandlerCtx, started: Instant) -> Response {
    let resp = match inbound {
        Inbound::Request(req) => {
            ctx.metrics.count_request(route_key(&req.path));
            route(req, ctx, started)
        }
        Inbound::Unreadable(e, resp) => {
            match e {
                HttpError::ReadTimeout => {
                    ctx.metrics.read_timeouts.fetch_add(1, Ordering::Relaxed);
                }
                HttpError::BodyTooLarge => {
                    ctx.metrics.oversized_bodies.fetch_add(1, Ordering::Relaxed);
                }
                _ => {}
            }
            resp
        }
        Inbound::AtCapacity(resp) => {
            ctx.metrics.shed_connections.fetch_add(1, Ordering::Relaxed);
            resp
        }
    };
    let tier = ctx.overload.tier(Instant::now());
    let resp = resp.with_header("X-LogCL-Degradation", tier.name());
    ctx.metrics.count_response(resp.status, started.elapsed());
    resp
}

fn route_key(path: &str) -> &str {
    path.split('?').next().unwrap_or(path)
}

fn route(req: &Request, ctx: &HandlerCtx, started: Instant) -> Response {
    match (req.method.as_str(), route_key(&req.path)) {
        // `/healthz` and `/metrics` are never shed, whatever the tier: an
        // overloaded server must stay observable.
        ("GET", "/healthz") => Response::json(
            200,
            json!({
                "status": "ok",
                "horizon": ctx.publisher.load().horizon(),
                "tier": ctx.overload.tier(Instant::now()).name(),
                "entities": ctx.num_entities,
                "shard": shard_json(ctx.shard),
            })
            .to_string(),
        ),
        ("GET", "/metrics") => Response::text(200, ctx.metrics.render()),
        ("POST", "/predict") => predict(req, ctx, started),
        ("POST", "/ingest") => ingest(req, ctx, started),
        ("POST", "/shutdown") if ctx.enable_shutdown_endpoint => {
            ctx.shutdown.trigger();
            Response::json(200, json!({ "status": "shutting down" }).to_string())
        }
        ("GET", "/predict" | "/ingest" | "/shutdown") => error_response(&ServeError {
            status: 405,
            message: "use POST".into(),
        }),
        ("POST", "/healthz" | "/metrics") => error_response(&ServeError {
            status: 405,
            message: "use GET".into(),
        }),
        (_, path) => error_response(&ServeError::not_found(format!("no route for {path}"))),
    }
}

fn error_response(err: &ServeError) -> Response {
    Response::json(err.status, json!({ "error": err.message }).to_string())
}

/// The `"shard"` object advertised by `/healthz`: the assignment and its
/// resolved entity range, or `null` for a single-node server.
fn shard_json(shard: Option<(ShardSpec, (usize, usize))>) -> Value {
    match shard {
        Some((spec, (lo, hi))) => json!({
            "index": spec.index,
            "count": spec.count,
            "lo": lo,
            "hi": hi,
        }),
        None => Value::Null,
    }
}

fn parse_body(req: &Request) -> Result<Value, ServeError> {
    serde_json::from_slice(&req.body)
        .map_err(|e| ServeError::bad_request(format!("invalid JSON body: {e}")))
}

/// Resolves a JSON field that may be a numeric id or a vocabulary name.
fn resolve_id(
    value: &Value,
    what: &str,
    by_name: &BTreeMap<String, usize>,
) -> Result<usize, ServeError> {
    match value {
        Value::Number(n) => n
            .as_u64()
            .map(|v| v as usize)
            .ok_or_else(|| ServeError::bad_request(format!("{what} must be a non-negative id"))),
        Value::String(s) => by_name
            .get(s.as_str())
            .copied()
            .or_else(|| s.parse::<usize>().ok())
            .ok_or_else(|| ServeError::bad_request(format!("unknown {what} name {s:?}"))),
        _ => Err(ServeError::bad_request(format!(
            "{what} must be an id or a name"
        ))),
    }
}

/// Parses the client's `X-LogCL-Deadline-Ms` header into an absolute
/// deadline (clamped to the server ceiling); absent means the server
/// default applies.
fn request_deadline(
    req: &Request,
    ctx: &HandlerCtx,
    started: Instant,
) -> Result<Instant, ServeError> {
    let budget = crate::deadline::from_header(
        req.header(crate::deadline::DEADLINE_HEADER),
        ctx.default_deadline,
        ctx.max_deadline,
    )
    .map_err(|e| ServeError::bad_request(e.to_string()))?;
    Ok(started + budget)
}

/// Admission gates shared by the model-backed endpoints: expired deadline
/// (504) and, for `/predict`, the Shed tier (503). Returns the deadline.
fn admit_deadline(
    req: &Request,
    ctx: &HandlerCtx,
    started: Instant,
) -> Result<Instant, ServeError> {
    let deadline = request_deadline(req, ctx, started)?;
    if Instant::now() >= deadline {
        ctx.metrics
            .shed_deadline_admission
            .fetch_add(1, Ordering::Relaxed);
        return Err(ServeError {
            status: 504,
            message: "deadline expired before admission".into(),
        });
    }
    Ok(deadline)
}

fn queue_full_error() -> ServeError {
    ServeError {
        status: 503,
        message: "work queue full, retry later".into(),
    }
}

/// Hands an ingest to the model thread.
fn submit(ctx: &HandlerCtx, job: IngestJob) -> Result<(), ServeError> {
    #[cfg(feature = "fault-inject")]
    {
        if crate::fault::queue_saturated() {
            ctx.metrics.shed_queue_full.fetch_add(1, Ordering::Relaxed);
            return Err(queue_full_error());
        }
    }
    match ctx.ingest_tx.try_send(job) {
        Ok(()) => Ok(()),
        Err(TrySendError::Full(_)) => {
            ctx.metrics.shed_queue_full.fetch_add(1, Ordering::Relaxed);
            Err(queue_full_error())
        }
        Err(TrySendError::Disconnected(_)) => {
            // The model thread's receiver is gone while we are still
            // admitting: it died (graceful shutdown keeps it alive until
            // every handler finishes). Route future admissions to Shed.
            ctx.overload.mark_worker_unhealthy();
            Err(ServeError {
                status: 503,
                message: "model worker unavailable; retry against a healthy replica".into(),
            })
        }
    }
}

fn await_reply<T>(
    rx: &mpsc::Receiver<Result<T, ServeError>>,
    deadline: Instant,
) -> Result<T, ServeError> {
    let budget = crate::deadline::remaining_budget(deadline, Instant::now());
    match rx.recv_timeout(budget) {
        Ok(result) => result,
        Err(mpsc::RecvTimeoutError::Timeout) => Err(ServeError {
            status: 504,
            message: "deadline exceeded waiting for the model worker".into(),
        }),
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServeError {
            status: 503,
            message: "model worker dropped the request; retry against a healthy replica".into(),
        }),
    }
}

fn predict(req: &Request, ctx: &HandlerCtx, started: Instant) -> Response {
    match predict_inner(req, ctx, started) {
        Ok(resp) => resp,
        Err(e) => error_response(&e),
    }
}

fn predict_inner(
    req: &Request,
    ctx: &HandlerCtx,
    started: Instant,
) -> Result<Response, ServeError> {
    let deadline = admit_deadline(req, ctx, started)?;
    // CoDel-style admission: in the Shed tier with requests waiting for a
    // compute permit (or a dead model thread) `/predict` is refused before
    // any parsing (the central header logic adds Retry-After). With nobody
    // waiting, probes pass through so recovery observations can happen at
    // all.
    let now = Instant::now();
    if ctx.overload.should_shed_predict(now) {
        ctx.metrics.shed_overload.fetch_add(1, Ordering::Relaxed);
        return Err(ServeError {
            status: 503,
            message: format!(
                "server overloaded (queue delay {}ms); retry later",
                ctx.overload.queue_wait(now).as_millis()
            ),
        });
    }
    let Some(_inflight) = ctx.overload.try_acquire_predict() else {
        ctx.metrics.shed_concurrency.fetch_add(1, Ordering::Relaxed);
        return Err(ServeError {
            status: 503,
            message: "too many in-flight predict requests".into(),
        });
    };
    let body = parse_body(req)?;
    let subject = body
        .get("subject")
        .ok_or_else(|| ServeError::bad_request("missing field \"subject\""))?;
    let relation = body
        .get("relation")
        .ok_or_else(|| ServeError::bad_request("missing field \"relation\""))?;
    let s = resolve_id(subject, "subject", &ctx.vocab.entity_by_name)?;
    let mut r = resolve_id(relation, "relation", &ctx.vocab.rel_by_name)?;
    if body
        .get("inverse")
        .and_then(Value::as_bool)
        .unwrap_or(false)
    {
        r += ctx.vocab.num_rels;
    }
    // One generation answers the whole request: a head read is the
    // forecast at this generation's horizon, whatever is ingested while it
    // waits or computes.
    let published = ctx.publisher.load();
    let t = match body.get("time") {
        Some(v) => v
            .as_u64()
            .map(|v| v as usize)
            .ok_or_else(|| ServeError::bad_request("\"time\" must be a non-negative integer"))?,
        // Default: one-step-ahead forecast over the full current history.
        None => published.horizon(),
    };
    let k = match body.get("k") {
        Some(v) => v
            .as_u64()
            .map(|v| v as usize)
            .filter(|&k| k >= 1)
            .ok_or_else(|| ServeError::bad_request("\"k\" must be a positive integer"))?,
        None => ctx.default_k,
    };
    let model = body
        .get("model")
        .and_then(Value::as_str)
        .unwrap_or("default");
    #[cfg(feature = "fault-inject")]
    {
        if crate::fault::queue_saturated() {
            ctx.metrics.shed_queue_full.fetch_add(1, Ordering::Relaxed);
            return Err(queue_full_error());
        }
    }
    let query = Query {
        model,
        s,
        r,
        t,
        k,
        enqueued_at: Instant::now(),
        deadline,
    };
    let outcome = published.serve(&query, &ctx.metrics, &ctx.overload)?;
    Ok(Response::json(
        200,
        predict_body(model, [s, r, t], &outcome, ctx.num_entities),
    ))
}

/// The `/predict` answer's text for query `[subject, relation, time]`,
/// written straight into its bytes ([`crate::answer`]).
fn predict_body(
    model: &str,
    query: [usize; 3],
    outcome: &PredictOutcome,
    entities: usize,
) -> String {
    let [s, r, t] = query.map(|v| v as u64);
    let mut text = String::with_capacity(256 + 112 * outcome.predictions.len());
    let body = Object::open(&mut text)
        .uint("batch_size", outcome.batch_size as u64)
        .bool("cache_hit", outcome.cache_hit)
        .bool("degraded", outcome.degraded)
        .str("model", model)
        .field("predictions", |out| {
            answer::array(out, &outcome.predictions, |out, p| {
                answer::prediction(out, p.entity, &p.name, p.probability, p.score)
            })
        })
        .field("query", |out| {
            Object::open(out)
                .uint("relation", r)
                .uint("subject", s)
                .uint("time", t)
                .close()
        });
    match &outcome.shard {
        // Shard provenance + softmax partials (as exact bit patterns, since
        // `max` may be -inf and JSON cannot carry infinities) so the router
        // can recombine global probabilities.
        Some(shard) => body.field("shard", |out| {
            Object::open(out)
                .uint("count", shard.spec.count as u64)
                .uint("entities", entities as u64)
                .uint("hi", shard.hi as u64)
                .uint("index", shard.spec.index as u64)
                .uint("lo", shard.lo as u64)
                .uint("softmax_max_bits", u64::from(shard.stat.max.to_bits()))
                .uint(
                    "softmax_sum_exp_bits",
                    u64::from(shard.stat.sum_exp.to_bits()),
                )
                .close()
        }),
        None => body,
    }
    .close();
    text
}

fn ingest(req: &Request, ctx: &HandlerCtx, started: Instant) -> Response {
    match ingest_inner(req, ctx, started) {
        Ok(resp) => resp,
        Err(e) => error_response(&e),
    }
}

fn ingest_inner(req: &Request, ctx: &HandlerCtx, started: Instant) -> Result<Response, ServeError> {
    let deadline = admit_deadline(req, ctx, started)?;
    let Some(_inflight) = ctx.overload.try_acquire_ingest() else {
        ctx.metrics.shed_concurrency.fetch_add(1, Ordering::Relaxed);
        return Err(ServeError {
            status: 503,
            message: "too many in-flight ingest requests".into(),
        });
    };
    let body = parse_body(req)?;
    let t = body
        .get("time")
        .and_then(Value::as_u64)
        .ok_or_else(|| ServeError::bad_request("missing or invalid field \"time\""))?
        as usize;
    let facts_json = body
        .get("facts")
        .and_then(Value::as_array)
        .ok_or_else(|| ServeError::bad_request("missing field \"facts\" (array of [s, r, o])"))?;
    let mut facts = Vec::with_capacity(facts_json.len());
    for fact in facts_json {
        let Some([sv, rv, ov]) = fact.as_array().map(Vec::as_slice).and_then(|a| {
            if let [s, r, o] = a {
                Some([s, r, o])
            } else {
                None
            }
        }) else {
            return Err(ServeError::bad_request(
                "each fact must be a [s, r, o] triple",
            ));
        };
        let s = resolve_id(sv, "subject", &ctx.vocab.entity_by_name)?;
        let r = resolve_id(rv, "relation", &ctx.vocab.rel_by_name)?;
        let o = resolve_id(ov, "object", &ctx.vocab.entity_by_name)?;
        facts.push((s, r, o));
    }
    let update = body.get("update").and_then(Value::as_bool).unwrap_or(true);
    let model = body
        .get("model")
        .and_then(Value::as_str)
        .unwrap_or("default")
        .to_string();
    // Client-supplied idempotency key: a retried ingest carrying the same id
    // is answered from the dedup window instead of being applied twice.
    let ingest_id = match req.header("x-logcl-ingest-id") {
        Some(raw) => {
            let id = raw.trim();
            if id.is_empty() || id.len() > 128 {
                return Err(ServeError::bad_request(
                    "X-LogCL-Ingest-Id must be 1..=128 characters",
                ));
            }
            Some(id.to_string())
        }
        None => None,
    };

    let (reply, reply_rx) = mpsc::channel();
    submit(
        ctx,
        IngestJob {
            model,
            t,
            facts,
            update,
            ingest_id,
            deadline,
            enqueued_at: Instant::now(),
            reply,
        },
    )?;
    let outcome = await_reply(&reply_rx, deadline)?;
    Ok(Response::json(
        200,
        json!({
            "appended": outcome.appended,
            "invalidated_encodings": outcome.invalidated,
            "online_update": outcome.updated,
            "horizon": outcome.horizon,
            "durable": outcome.durable,
            "deduplicated": outcome.deduplicated,
        })
        .to_string(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::tests::{seeded_f32, seeded_name};
    use crate::batcher::ShardDetail;
    use logcl_core::{Prediction, SoftmaxStat};
    use logcl_tensor::rng::splitmix64;

    /// The construction `predict_inner` rendered before it wrote the text
    /// itself: the reference the writer must reproduce byte for byte.
    fn reference(
        model: &str,
        [s, r, t]: [usize; 3],
        outcome: &PredictOutcome,
        entities: usize,
    ) -> String {
        let predictions: Vec<Value> = outcome
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
        let mut response = json!({
            "model": model,
            "query": json!({ "subject": s, "relation": r, "time": t }),
            "predictions": predictions,
            "batch_size": outcome.batch_size,
            "cache_hit": outcome.cache_hit,
            "degraded": outcome.degraded,
        });
        if let (Some(shard), Value::Object(map)) = (&outcome.shard, &mut response) {
            map.insert(
                "shard".into(),
                json!({
                    "index": shard.spec.index,
                    "count": shard.spec.count,
                    "lo": shard.lo,
                    "hi": shard.hi,
                    "entities": entities,
                    "softmax_max_bits": shard.stat.max.to_bits(),
                    "softmax_sum_exp_bits": shard.stat.sum_exp.to_bits(),
                }),
            );
        }
        response.to_string()
    }

    fn outcome(
        predictions: Vec<Prediction>,
        shard: Option<ShardDetail>,
        seed: u64,
    ) -> PredictOutcome {
        PredictOutcome {
            predictions,
            batch_size: 1 + (splitmix64(seed, 90) % 32) as usize,
            cache_hit: seed.is_multiple_of(2),
            degraded: seed.is_multiple_of(3),
            shard,
        }
    }

    fn shard(seed: u64, max: f32, sum_exp: f32) -> ShardDetail {
        let count = 1 + (splitmix64(seed, 91) % 8) as usize;
        let index = (splitmix64(seed, 92) % count as u64) as usize;
        ShardDetail {
            spec: ShardSpec::new(index, count).expect("index < count"),
            lo: index * 100,
            hi: index * 100 + 100,
            stat: SoftmaxStat { max, sum_exp },
        }
    }

    fn prediction(entity: usize, name: &str, probability: f32, score: f32) -> Prediction {
        Prediction {
            entity,
            name: name.into(),
            probability,
            score,
        }
    }

    #[test]
    fn the_predict_answer_is_byte_identical_to_its_json_construction() {
        let table = [
            outcome(Vec::new(), None, 0),
            outcome(vec![prediction(0, "", 0.0, -0.0)], None, 1),
            outcome(
                vec![
                    prediction(7, "Iraq_1", 0.5, 2.5),
                    prediction(3, "say \"hi\"\\\n\t\u{01}", f32::NAN, f32::INFINITY),
                    prediction(usize::MAX, "é中𝄞", f32::MIN_POSITIVE / 2.0, f32::MAX),
                ],
                None,
                2,
            ),
            outcome(
                vec![prediction(12, "Guinea", 1.0, f32::NEG_INFINITY)],
                Some(shard(3, f32::NEG_INFINITY, 0.0)),
                3,
            ),
        ];
        for (i, o) in table.iter().enumerate() {
            let query = [i, 2 * i, 3 * i];
            assert_eq!(
                predict_body("default", query, o, 4000),
                reference("default", query, o, 4000)
            );
        }
        for seed in 0..300 {
            let n = (splitmix64(seed, 0) % 12) as usize;
            let predictions = (0..n as u64)
                .map(|i| {
                    prediction(
                        (splitmix64(seed, 10 + i) % 50_000) as usize,
                        &seeded_name(seed * 64 + i),
                        seeded_f32(seed, 30 + i),
                        seeded_f32(seed, 60 + i),
                    )
                })
                .collect();
            let shard =
                (seed % 2 == 1).then(|| shard(seed, seeded_f32(seed, 93), seeded_f32(seed, 94)));
            let o = outcome(predictions, shard, seed);
            let model = seeded_name(seed + 1_000_000);
            let query = [1, 2, 3].map(|k| (splitmix64(seed, 95 + k) % 100_000) as usize);
            assert_eq!(
                predict_body(&model, query, &o, 50_000),
                reference(&model, query, &o, 50_000),
                "seed {seed}"
            );
        }
    }
}
