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
//!
//! A fan-out runs on the connection thread that read the request, and a
//! healthy one spawns nothing: every hop is written on an idle kept-alive
//! connection before any reply is read, then the replies are read in order
//! (`fan_out`). Only a hop that would otherwise wait on something besides
//! its own reply leaves that thread for one of its own — a connect (no idle
//! connection), the fault seam's stall, a failed first attempt's retries, a
//! hedge that fires — so one such hop never delays the others.

use std::io::ErrorKind;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use logcl_serve::answer::{self, Object};
use logcl_serve::deadline::{self, expired, remaining_budget, remaining_ms, DEADLINE_HEADER};
use logcl_serve::http::{Reply, Request, Response};
use logcl_serve::listener::{Inbound, Listener, ListenerConfig, RETRY_AFTER_SECS};
use logcl_serve::{ShutdownState, StartError};
use logcl_tensor::rng::splitmix64;
use serde_json::{json, Value};

use crate::client::{self, FailReason, HopError};
use crate::config::RouterConfig;
use crate::health::{WorkerHealth, WorkerState};
use crate::merge::{self, MergedAnswer, ShardReply};
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
fn injected_hop_fault(shard: usize, attempt_no: u64) -> Result<Option<Duration>, HopError> {
    if crate::fault::connect_refused(shard) {
        return Err(HopError {
            reason: FailReason::Connect,
            detail: "injected connect refusal".into(),
        });
    }
    Ok(crate::fault::shard_stall(shard, attempt_no))
}

#[cfg(not(feature = "fault-inject"))]
fn injected_hop_fault(_shard: usize, _attempt_no: u64) -> Result<Option<Duration>, HopError> {
    Ok(None)
}

// ------------------------------------------------------------ outbound hops

/// What every attempt of one fan-out sends, and by when.
#[derive(Clone, Copy)]
struct Outbound<'a> {
    path: &'static str,
    /// `/ingest`'s `X-LogCL-Ingest-Id`, one for the whole fan-out.
    ingest_id: Option<&'a str>,
    body: &'a [u8],
    deadline: Instant,
}

/// An [`Outbound`] a thread can own.
#[derive(Clone)]
struct OwnedOutbound {
    path: &'static str,
    ingest_id: Option<String>,
    body: Vec<u8>,
    deadline: Instant,
}

impl OwnedOutbound {
    fn of(out: Outbound<'_>) -> Self {
        Self {
            path: out.path,
            ingest_id: out.ingest_id.map(str::to_string),
            body: out.body.to_vec(),
            deadline: out.deadline,
        }
    }

    fn view(&self) -> Outbound<'_> {
        Outbound {
            path: self.path,
            ingest_id: self.ingest_id.as_deref(),
            body: &self.body,
            deadline: self.deadline,
        }
    }
}

/// One hop of a fan-out: its shard, the replicas its attempts walk, and how
/// many attempts it gets.
#[derive(Clone)]
struct Plan {
    shard: usize,
    order: Vec<usize>,
    attempts: usize,
}

/// One attempt whose request is on the wire.
struct Attempt {
    replica: usize,
    /// When the write began: a hedge fires `hedge_after` from here, and the
    /// shard's latency runs from here to the end of the read.
    at: Instant,
    hop: client::Hop,
}

/// Where a hop handed off the connection thread picks up.
// A few per fan-out, moved once: not worth a box.
#[allow(clippy::large_enum_variant)]
enum Resume {
    /// Nothing written yet: the worker had no idle connection (a connect
    /// may block), or the fault seam holds the hop back by this stall.
    Start(Option<Duration>),
    /// The first attempt is on the wire and its hedge is due.
    Race(Attempt),
    /// The first attempt failed.
    Retry(HopError),
}

/// The fault seams of one attempt (`fault-inject` only): an injected
/// refusal is the worker's failure, `Some` a stall to hold the hop back by.
fn seam(ctx: &RouterCtx, shard: usize, replica: usize) -> Result<Option<Duration>, HopError> {
    let attempt_no = ctx.attempt_seq.fetch_add(1, Ordering::AcqRel);
    injected_hop_fault(shard, attempt_no).inspect_err(|_| {
        ctx.shards[shard][replica]
            .health
            .note_failure(ctx.cfg.down_after)
    })
}

/// When a hop the fault seam stalls may go out: `stall` from now, never past
/// the deadline (now, with no stall).
fn held_until(stall: Option<Duration>, deadline: Instant) -> Instant {
    (Instant::now() + stall.unwrap_or_default()).min(deadline)
}

fn sleep_until(instant: Instant) {
    thread::sleep(instant.saturating_duration_since(Instant::now()));
}

/// Puts one request on the wire, propagating the *remaining* deadline budget
/// (never the client's original figure) as `X-LogCL-Deadline-Ms`: on an idle
/// connection to the worker or — `may_connect` — on a new one when none is
/// idle. `None`: none was idle, and connecting was not allowed.
fn write(
    ctx: &RouterCtx,
    shard: usize,
    replica: usize,
    out: Outbound<'_>,
    may_connect: bool,
) -> Option<Result<Attempt, HopError>> {
    let worker = &ctx.shards[shard][replica];
    let ms = remaining_ms(out.deadline, Instant::now()).to_string();
    let mut headers = Vec::with_capacity(2);
    if let Some(id) = out.ingest_id {
        headers.push(("X-LogCL-Ingest-Id", id));
    }
    headers.push((DEADLINE_HEADER, ms.as_str()));
    let at = Instant::now();
    let (path, body, deadline) = (out.path, out.body, out.deadline);
    let written = if may_connect {
        worker.pool.write(
            "POST",
            path,
            &headers,
            body,
            deadline,
            ctx.cfg.connect_timeout,
        )
    } else {
        worker
            .pool
            .write_idle("POST", path, &headers, body, deadline)?
    };
    Some(match written {
        Ok(hop) => Ok(Attempt { replica, at, hop }),
        Err(e) => {
            worker.health.note_failure(ctx.cfg.down_after);
            Err(e)
        }
    })
}

/// [`write`] off the connection thread, where a connect may block.
fn connect_and_write(
    ctx: &RouterCtx,
    shard: usize,
    replica: usize,
    out: Outbound<'_>,
) -> Result<Attempt, HopError> {
    write(ctx, shard, replica, out, true)
        // logcl-allow(L002): a write that may connect always writes or fails; `None` is only "none idle, may not connect"
        .unwrap_or_else(|| unreachable!("a write that may connect returned no outcome"))
}

/// The read half of one attempt: reads the reply within what is left of the
/// deadline, floored at 1 ms, so a reply that arrived in time is read even
/// behind a slower shard that was read first. Feeds the outcome into the
/// worker's health machine and, from the write to the end of the read, the
/// shard's latency.
fn finish(
    ctx: &RouterCtx,
    shard: usize,
    attempt: Attempt,
    out: Outbound<'_>,
) -> Result<Reply, HopError> {
    let worker = &ctx.shards[shard][attempt.replica];
    match worker.pool.read(attempt.hop, out.deadline) {
        Ok(resp) => {
            worker.health.note_success();
            ctx.metrics.count_hop_connection(resp.reused_connection);
            ctx.metrics.shard_latency[shard].observe(attempt.at.elapsed().as_secs_f64());
            Ok(resp)
        }
        Err(e) => {
            worker.health.note_failure(ctx.cfg.down_after);
            Err(e)
        }
    }
}

/// One whole attempt off the connection thread: the fault seams (a stall is
/// slept here), the write — connecting if need be — and the read.
fn attempt_once(
    ctx: &RouterCtx,
    shard: usize,
    replica: usize,
    out: Outbound<'_>,
) -> Result<Reply, HopError> {
    sleep_until(held_until(seam(ctx, shard, replica)?, out.deadline));
    let attempt = connect_and_write(ctx, shard, replica, out)?;
    finish(ctx, shard, attempt, out)
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

/// A predict scatter's plan for one shard: replicas healthiest first (stable
/// by index among equals), and how many attempts it gets. A shard whose
/// every replica is Down gets exactly one probe-like attempt — cheap enough
/// to keep paying, and the only passive recovery signal there is.
fn shard_plan(ctx: &RouterCtx, shard: usize) -> Plan {
    let group = &ctx.shards[shard];
    let mut order: Vec<usize> = (0..group.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(group[i].health.state() as u8));
    let all_down = group.iter().all(|r| r.health.state() == WorkerState::Down);
    let attempts = if all_down {
        1
    } else {
        1 + ctx.cfg.retries as usize
    };
    Plan {
        shard,
        order,
        attempts,
    }
}

/// The first attempt's write half, on the connection thread: the fault
/// seams, then the request on an idle connection. Nothing here waits: `Err`
/// is where the hop picks up once it is handed off.
// `Resume` is large only for `Race`, which `begin` never returns.
#[allow(clippy::result_large_err)]
fn begin(ctx: &RouterCtx, plan: &Plan, out: Outbound<'_>) -> Result<Attempt, Resume> {
    let replica = plan.order[0];
    match seam(ctx, plan.shard, replica) {
        Err(e) => Err(Resume::Retry(e)),
        Ok(Some(stall)) => Err(Resume::Start(Some(stall))),
        Ok(None) => match write(ctx, plan.shard, replica, out, false) {
            None => Err(Resume::Start(None)),
            Some(written) => written.map_err(Resume::Retry),
        },
    }
}

/// When an attempt's hedge is due: `hedge_after` from when it began, never
/// past the deadline.
fn hedge_due(began: Instant, hedge_after: Option<Duration>, deadline: Instant) -> Option<Instant> {
    hedge_after.map(|after| (began + after).min(deadline))
}

/// Whether the hop's reply has begun (or the worker hung up) by `due`,
/// waiting until then at most.
fn answered_by(hop: &mut client::Hop, due: Instant) -> bool {
    hop.answered_within(due.saturating_duration_since(Instant::now()))
}

/// The first attempt of a hop handed off before anything was written: the
/// stall the fault seam asked for, the write (connecting if need be) and the
/// read, hedged given `hedge_after`. The hedge is due from here — a stall or
/// a connect is part of the wait it cuts short — so a hop held past it is
/// raced while it is still held.
fn first_attempt(
    ctx: &Arc<RouterCtx>,
    plan: &Plan,
    out: Outbound<'_>,
    stall: Option<Duration>,
    hedge_after: Option<Duration>,
) -> Result<Reply, HopError> {
    let due = hedge_due(Instant::now(), hedge_after, out.deadline);
    let held = held_until(stall, out.deadline);
    let (shard, replica) = (plan.shard, plan.order[0]);
    if let Some(due) = due.filter(|&due| held > due) {
        sleep_until(due);
        return race(ctx, plan, out, move |ctx, out| {
            sleep_until(held);
            let primary = connect_and_write(ctx, shard, replica, out)?;
            finish(ctx, shard, primary, out)
        });
    }
    sleep_until(held);
    let mut primary = connect_and_write(ctx, shard, replica, out)?;
    match due {
        Some(due) if !answered_by(&mut primary.hop, due) => {
            race(ctx, plan, out, move |ctx, out| {
                finish(ctx, shard, primary, out)
            })
        }
        _ => finish(ctx, shard, primary, out),
    }
}

/// The rest of a hop handed off the connection thread, from `from`, with the
/// full failover policy: bounded retries, each against the next replica in
/// the plan's order, jittered backoff between attempts, and — given
/// `hedge_after` — a hedged race when the first attempt is slow.
fn resume(
    ctx: &Arc<RouterCtx>,
    plan: &Plan,
    out: Outbound<'_>,
    from: Resume,
    hedge_after: Option<Duration>,
) -> Result<Reply, HopError> {
    let shard = plan.shard;
    let mut result = match from {
        Resume::Start(stall) => first_attempt(ctx, plan, out, stall, hedge_after),
        Resume::Race(primary) => race(ctx, plan, out, move |ctx, out| {
            finish(ctx, shard, primary, out)
        }),
        Resume::Retry(e) => Err(e),
    };
    for attempt in 1..plan.attempts {
        let e = match result {
            Ok(resp) => return Ok(resp),
            Err(e) => e,
        };
        ctx.metrics.count_retry(e.reason);
        backoff(ctx, attempt - 1, out.deadline);
        if expired(out.deadline, Instant::now()) {
            return Err(e);
        }
        result = attempt_once(ctx, plan.shard, plan.order[attempt % plan.order.len()], out);
    }
    result
}

/// A fired hedge: a second attempt — the next-preferred replica, or a second
/// connection to the same one in a single-replica shard, pooled or new,
/// never queued behind the primary's — races the `primary` (the rest of the
/// first attempt, usually its read), each on a thread of its own, and the
/// first answer wins. Losers run to completion detached; their sends into
/// the dropped channel are ignored. A thread the OS refuses is done without,
/// and the primary is awaited alone.
fn race(
    ctx: &Arc<RouterCtx>,
    plan: &Plan,
    out: Outbound<'_>,
    primary: impl FnOnce(&RouterCtx, Outbound<'_>) -> Result<Reply, HopError> + Send + 'static,
) -> Result<Reply, HopError> {
    ctx.metrics.hedges.fetch_add(1, Ordering::Relaxed);
    let (shard, secondary) = (plan.shard, plan.order[1 % plan.order.len()]);
    let (tx, rx) = mpsc::channel();
    let owned = OwnedOutbound::of(out);
    let reader = (Arc::clone(ctx), primary, owned.clone(), tx.clone());
    if let Err((_, primary, ..)) = spawn_with(reader, move |(ctx, primary, out, tx)| {
        let _ = tx.send(primary(&ctx, out.view()));
    }) {
        return primary(ctx, out);
    }
    // Refused, this leaves the primary alone on the channel, which closes
    // after its one result.
    let _ = spawn_with((Arc::clone(ctx), owned, tx), move |(ctx, out, tx)| {
        let _ = tx.send(attempt_once(&ctx, shard, secondary, out.view()));
    });
    let mut last: Option<HopError> = None;
    for _ in 0..2 {
        let wait = remaining_budget(out.deadline, Instant::now()).max(Duration::from_millis(1));
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

/// Runs `job(work)` on a thread of its own. When the OS refuses the thread,
/// `work` comes back instead of a panic.
fn spawn_with<W: Send + 'static>(work: W, job: impl FnOnce(W) + Send + 'static) -> Result<(), W> {
    // The work crosses over once the thread exists, so a refusal keeps it.
    let (hand_over, handed) = mpsc::channel();
    let spawned = thread::Builder::new()
        .name("logcl-router-hop".into())
        .spawn(move || {
            if let Ok(work) = handed.recv() {
                job(work);
            }
        });
    match spawned {
        Ok(_) => {
            let _ = hand_over.send(work);
            Ok(())
        }
        Err(_) => Err(work),
    }
}

/// A hop's outcome as it comes back from the thread it was handed to.
type Outcome = (usize, Result<Reply, HopError>);

/// The hops of one fan-out handed off the connection thread, and the channel
/// their outcomes come back on — opened at the first hand-off, so a fan-out
/// that hands none off opens none.
#[derive(Default)]
struct Away {
    count: usize,
    channel: Option<(mpsc::Sender<Outcome>, mpsc::Receiver<Outcome>)>,
}

impl Away {
    /// Hands the hop in `slot` off from `from`. `Some` when it settled right
    /// here instead: a failure with no attempt left, or a thread the OS
    /// refused — the rest of the hop then runs on this thread.
    fn hand_off(
        &mut self,
        ctx: &Arc<RouterCtx>,
        slot: usize,
        plan: &Plan,
        out: Outbound<'_>,
        from: Resume,
        hedge_after: Option<Duration>,
    ) -> Option<Result<Reply, HopError>> {
        let from = match from {
            Resume::Retry(e) if plan.attempts == 1 => return Some(Err(e)),
            from => from,
        };
        let tx = self.channel.get_or_insert_with(mpsc::channel).0.clone();
        let work = (Arc::clone(ctx), plan.clone(), OwnedOutbound::of(out), from);
        match spawn_with(work, move |(ctx, plan, out, from)| {
            let _ = tx.send((slot, resume(&ctx, &plan, out.view(), from, hedge_after)));
        }) {
            Ok(()) => {
                self.count += 1;
                None
            }
            Err((_, _, _, from)) => Some(resume(ctx, plan, out, from, hedge_after)),
        }
    }

    /// Collects the handed-off hops' outcomes into `outcomes` until all are
    /// in or the deadline has passed (waiting at least 1 ms); a hop still
    /// out then stays out of the answer.
    fn gather(self, outcomes: &mut [Option<Result<Reply, HopError>>], deadline: Instant) {
        let Some((tx, rx)) = self.channel else {
            return;
        };
        drop(tx);
        for _ in 0..self.count {
            let wait = remaining_budget(deadline, Instant::now()).max(Duration::from_millis(1));
            match rx.recv_timeout(wait) {
                Ok((slot, result)) => outcomes[slot] = Some(result),
                Err(_) => break,
            }
        }
    }
}

/// Sends `out` along every plan and returns each hop's outcome, in plan
/// order. Every first attempt that finds an idle connection is written
/// before any reply is read, so the workers compute side by side, and the
/// replies are read here in plan order. A hop that would otherwise wait on
/// something besides its own reply — a connect (no idle connection), the
/// fault seam's stall, a failed first attempt's retries, a due hedge — is
/// handed to a thread of its own, and gathered until the deadline.
fn fan_out(
    ctx: &Arc<RouterCtx>,
    plans: &[Plan],
    out: Outbound<'_>,
    hedge_after: Option<Duration>,
) -> Vec<Result<Reply, HopError>> {
    let mut outcomes: Vec<Option<Result<Reply, HopError>>> = plans.iter().map(|_| None).collect();
    let mut away = Away::default();
    let mut written = Vec::with_capacity(plans.len());
    for (slot, plan) in plans.iter().enumerate() {
        match begin(ctx, plan, out) {
            Ok(attempt) => written.push((slot, attempt)),
            Err(from) => outcomes[slot] = away.hand_off(ctx, slot, plan, out, from, hedge_after),
        }
    }
    for (slot, mut attempt) in written {
        let plan = &plans[slot];
        let from = match hedge_due(attempt.at, hedge_after, out.deadline) {
            Some(due) if !answered_by(&mut attempt.hop, due) => Resume::Race(attempt),
            _ => match finish(ctx, plan.shard, attempt, out) {
                Ok(resp) => {
                    outcomes[slot] = Some(Ok(resp));
                    continue;
                }
                Err(e) => Resume::Retry(e),
            },
        };
        outcomes[slot] = away.hand_off(ctx, slot, plan, out, from, hedge_after);
    }
    away.gather(&mut outcomes, out.deadline);
    outcomes
        .into_iter()
        .map(|outcome| {
            outcome.unwrap_or_else(|| {
                Err(HopError {
                    reason: FailReason::Timeout,
                    detail: "no answer within the deadline".into(),
                })
            })
        })
        .collect()
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

    // Scatter to every shard, each hop with the full failover policy. Shards
    // that miss the deadline simply don't make it into the answer
    // (partial-result degradation).
    let total = ctx.shards.len();
    let out = Outbound {
        path: "/predict",
        ingest_id: None,
        body: &req.body,
        deadline,
    };
    let plans: Vec<Plan> = (0..total).map(|shard| shard_plan(ctx, shard)).collect();
    let mut replies: Vec<ShardReply> = Vec::with_capacity(total);
    let mut fatal: Option<Reply> = None;
    for outcome in fan_out(ctx, &plans, out, ctx.cfg.hedge_after) {
        match outcome {
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
        let mut body = String::new();
        Object::open(&mut body)
            .float("coverage", 0.0)
            .str("error", "no worker shard available")
            .close();
        return Response::json(503, body);
    }

    let merged = merge::merge_replies(&replies, k, total);
    let partial = merged.coverage < 1.0;
    if partial {
        ctx.metrics
            .partial_responses
            .fetch_add(1, Ordering::Relaxed);
    }
    let tier = if partial {
        "partial"
    } else if merged.shard_degraded {
        "brownout"
    } else {
        "normal"
    };
    let body = merged_body(&merged, partial || merged.shard_degraded, total);
    let mut resp = Response::json(200, body).with_header("X-LogCL-Degradation", tier);
    if partial {
        // A partial answer is worth retrying for a full one.
        resp = resp.with_header("Retry-After", RETRY_AFTER_SECS.to_string());
    }
    resp
}

/// The merged answer's text, written straight into its bytes
/// ([`logcl_serve::answer`]).
fn merged_body(merged: &MergedAnswer, degraded: bool, total: usize) -> String {
    let mut text = String::with_capacity(128 + 112 * merged.predictions.len());
    Object::open(&mut text)
        .bool("cache_hit", merged.all_cache_hits)
        .float("coverage", merged.coverage)
        .bool("degraded", degraded)
        .field("predictions", |out| {
            answer::array(out, &merged.predictions, |out, p| {
                answer::prediction(out, p.entity, &p.name, p.probability, p.score)
            })
        })
        .field("shards", |out| {
            Object::open(out)
                .field("answered", |out| {
                    answer::array(out, &merged.answered, |out, &i| answer::uint(out, i as u64))
                })
                .uint("total", total as u64)
                .close()
        })
        .close();
    text
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
    // its own WAL; only decoding is entity-partitioned. Retries stay on
    // that worker (every worker must ack) and always resend the same id.
    let out = Outbound {
        path: "/ingest",
        ingest_id: Some(&ingest_id),
        body: &req.body,
        deadline,
    };
    let plans: Vec<Plan> = ctx
        .shards
        .iter()
        .enumerate()
        .flat_map(|(shard, group)| {
            (0..group.len()).map(move |replica| Plan {
                shard,
                order: vec![replica],
                attempts: 1 + ctx.cfg.retries as usize,
            })
        })
        .collect();
    let total = plans.len();

    let mut acked = 0usize;
    let mut appended: u64 = 0;
    let mut all_deduplicated = true;
    let mut fatal: Option<Reply> = None;
    for outcome in fan_out(ctx, &plans, out, None) {
        match outcome {
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

    /// The construction `predict` rendered before it wrote the merged
    /// answer itself: the reference the writer must reproduce byte for byte.
    fn merged_reference(merged: &MergedAnswer, degraded: bool, total: usize) -> String {
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
        json!({
            "predictions": predictions,
            "degraded": degraded,
            "coverage": merged.coverage,
            "cache_hit": merged.all_cache_hits,
            "shards": shard_summary,
        })
        .to_string()
    }

    #[test]
    fn the_merged_answer_is_byte_identical_to_its_json_construction() {
        use crate::merge::MergedPrediction;
        const NAMES: [&str; 8] = [
            "",
            "Iraq_1",
            "\"q\"",
            "back\\slash",
            "\n\r\t\u{08}\u{0c}",
            "\u{01}\u{1f}",
            "é中𝄞",
            "a b",
        ];
        const FLOATS: [f32; 8] = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::MIN_POSITIVE / 2.0,
            f32::MAX,
            0.1,
            1.0,
        ];
        for seed in 0..300u64 {
            let draw = |i: u64| splitmix64(seed, i);
            let float = |i: u64| match draw(i) % 3 {
                0 => FLOATS[(draw(i) / 3 % 8) as usize],
                _ => f32::from_bits((draw(i) >> 32) as u32),
            };
            let total = 1 + (draw(0) % 4) as usize;
            let answered: Vec<usize> = (0..total)
                .filter(|&i| seed == 0 || draw(10 + i as u64) % 3 > 0)
                .collect();
            let merged = MergedAnswer {
                predictions: (0..draw(1) % 12)
                    .map(|i| MergedPrediction {
                        entity: (draw(20 + i) % 50_000) as usize,
                        name: NAMES[(draw(40 + i) % 8) as usize]
                            .repeat(1 + (draw(60 + i) % 2) as usize),
                        probability: float(80 + i),
                        score: float(100 + i),
                    })
                    .collect(),
                coverage: answered.len() as f64 / total as f64,
                shard_degraded: draw(2) % 2 == 0,
                all_cache_hits: draw(3) % 2 == 0,
                answered,
            };
            let degraded = merged.coverage < 1.0 || merged.shard_degraded;
            assert_eq!(
                merged_body(&merged, degraded, total),
                merged_reference(&merged, degraded, total),
                "seed {seed}"
            );
        }
    }
}
