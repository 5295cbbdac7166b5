//! Open-loop schedule replay against a live `logcl-serve` instance.
//!
//! The dispatcher walks the schedule on its own thread, sleeping to each
//! request's offset and handing the rendered request to a worker pool — it
//! never waits for a response, so a slow server cannot throttle the offered
//! load (the coordinated-omission trap). Each worker holds one persistent
//! keep-alive [`Client`] and reuses its connection across requests
//! (reconnecting lazily when the server closes it), matching how real
//! clients amortise connection setup; the reuse rate is reported. The wire
//! is `logcl_serve::http`'s; this module only schedules and classifies.
//!
//! Two latencies are recorded per good response:
//!
//! - **end-to-end** (`latency`): scheduled dispatch time → response read.
//!   This is the honest open-loop number — queueing delay caused by an
//!   overloaded harness or server is *included*.
//! - **service** (`service_latency`): actual send → response read.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use logcl_serve::deadline::DEADLINE_HEADER;
use logcl_serve::http::{Client, ClientError, Reply};

use crate::hist::LogHistogram;
use crate::schedule::{Op, PlannedRequest};
use crate::timing::Clock;
use crate::LoadgenError;

/// How to replay a schedule.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Server address, `host:port`.
    pub addr: String,
    /// Worker threads issuing requests.
    pub workers: usize,
    /// Per-connection I/O timeout (connect, read, write).
    pub io_timeout: Duration,
    /// Snapshot time used for every ingest. Ingesting repeatedly at the
    /// horizon observed before the run is always valid (`t <= horizon`) no
    /// matter how requests reorder, and still exercises append +
    /// cache-invalidation.
    pub ingest_time: usize,
    /// Whether ingests request an online model update.
    pub ingest_update: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            addr: "127.0.0.1:0".into(),
            workers: 16,
            io_timeout: Duration::from_secs(5),
            ingest_time: 0,
            ingest_update: false,
        }
    }
}

/// How one request ended, from the harness's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeKind {
    /// 200 with full-fidelity answer.
    Ok,
    /// 200 served degraded (brownout tier reduced the work).
    Degraded,
    /// 503 — shed by admission control.
    Shed,
    /// 504 — deadline exhausted.
    DeadlineExpired,
    /// Any other HTTP status.
    HttpError,
    /// Connect/read/write failure or malformed response.
    Transport,
}

/// One completed request, as reported by a worker.
struct Sample {
    scheduled_micros: u64,
    sent_micros: u64,
    done_micros: u64,
    kind: OutcomeKind,
    tier: Option<String>,
    retry_after_missing: bool,
    reused_connection: bool,
}

/// Aggregated results of one replay.
#[derive(Debug)]
pub struct RunStats {
    /// Requests in the schedule.
    pub scheduled: u64,
    /// Requests that produced a sample (including errors).
    pub completed: u64,
    /// Full-fidelity 200s.
    pub ok: u64,
    /// Degraded 200s.
    pub degraded: u64,
    /// 503s.
    pub shed_503: u64,
    /// 504s.
    pub deadline_504: u64,
    /// Other HTTP statuses.
    pub http_errors: u64,
    /// Transport-level failures.
    pub transport_errors: u64,
    /// 503/504 responses missing the mandatory `Retry-After` header.
    pub retry_after_missing: u64,
    /// Requests served over an already-open keep-alive connection.
    pub reused_connections: u64,
    /// Responses per degradation tier (`X-LogCL-Degradation` header).
    pub tiers: BTreeMap<String, u64>,
    /// End-to-end latency of good (200) responses, µs from scheduled time.
    pub latency: LogHistogram,
    /// Service latency of good (200) responses, µs from actual send.
    pub service_latency: LogHistogram,
}

impl RunStats {
    /// Empty stats for a schedule of `scheduled` requests.
    pub fn new(scheduled: u64) -> Self {
        RunStats {
            scheduled,
            completed: 0,
            ok: 0,
            degraded: 0,
            shed_503: 0,
            deadline_504: 0,
            http_errors: 0,
            transport_errors: 0,
            retry_after_missing: 0,
            reused_connections: 0,
            tiers: BTreeMap::new(),
            latency: LogHistogram::new(),
            service_latency: LogHistogram::new(),
        }
    }

    /// Share of scheduled requests answered with a 200, in `[0, 1]`.
    pub fn goodput_rate(&self) -> f64 {
        if self.scheduled == 0 {
            return 0.0;
        }
        (self.ok + self.degraded) as f64 / self.scheduled as f64
    }

    /// Share of completed requests that reused an open keep-alive
    /// connection, in `[0, 1]`.
    pub fn connection_reuse_rate(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.reused_connections as f64 / self.completed as f64
    }

    fn absorb(&mut self, s: Sample) {
        self.completed += 1;
        match s.kind {
            OutcomeKind::Ok => self.ok += 1,
            OutcomeKind::Degraded => self.degraded += 1,
            OutcomeKind::Shed => self.shed_503 += 1,
            OutcomeKind::DeadlineExpired => self.deadline_504 += 1,
            OutcomeKind::HttpError => self.http_errors += 1,
            OutcomeKind::Transport => self.transport_errors += 1,
        }
        if s.retry_after_missing {
            self.retry_after_missing += 1;
        }
        if s.reused_connection {
            self.reused_connections += 1;
        }
        if let Some(tier) = s.tier {
            *self.tiers.entry(tier).or_insert(0) += 1;
        }
        if matches!(s.kind, OutcomeKind::Ok | OutcomeKind::Degraded) {
            self.latency
                .record(s.done_micros.saturating_sub(s.scheduled_micros));
            self.service_latency
                .record(s.done_micros.saturating_sub(s.sent_micros));
        }
    }
}

/// A rendered request ready to go on the wire.
struct Job {
    scheduled_micros: u64,
    path: &'static str,
    body: String,
    deadline_ms: Option<u64>,
}

/// Renders a planned op to its HTTP path and JSON body.
fn render(op: &Op, cfg: &RunConfig) -> (&'static str, String, Option<u64>) {
    match op {
        Op::Predict {
            subject,
            relation,
            k,
            deadline_ms,
        } => (
            "/predict",
            format!("{{\"subject\":{subject},\"relation\":{relation},\"k\":{k}}}"),
            *deadline_ms,
        ),
        Op::Ingest { facts, deadline_ms } => {
            let rendered: Vec<String> = facts
                .iter()
                .map(|(s, r, o)| format!("[{s},{r},{o}]"))
                .collect();
            (
                "/ingest",
                format!(
                    "{{\"time\":{},\"facts\":[{}],\"update\":{}}}",
                    cfg.ingest_time,
                    rendered.join(","),
                    cfg.ingest_update
                ),
                *deadline_ms,
            )
        }
    }
}

/// Replays `schedule` against `cfg.addr` and aggregates the results.
pub fn run(schedule: &[PlannedRequest], cfg: &RunConfig) -> Result<RunStats, LoadgenError> {
    let clock = Clock::start();
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let (sample_tx, sample_rx) = mpsc::channel::<Sample>();
    let job_rx = Arc::new(Mutex::new(job_rx));

    let mut workers = Vec::new();
    for _ in 0..cfg.workers.max(1) {
        let rx = Arc::clone(&job_rx);
        let tx = sample_tx.clone();
        // One persistent keep-alive connection per worker, reconnected
        // lazily when the server closes it. Built here, not on the worker,
        // so an unresolvable address fails the run before any traffic.
        let mut conn = client(&cfg.addr, cfg.io_timeout)?.keep_alive();
        workers.push(std::thread::spawn(move || loop {
            let job = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
            let Ok(job) = job else { break };
            let sample = execute(&mut conn, &job, clock);
            if tx.send(sample).is_err() {
                break;
            }
        }));
    }
    drop(sample_tx);

    // Open-loop dispatch on this thread: sleep to each offset, hand off,
    // never wait for the response.
    for req in schedule {
        clock.sleep_until_micros(req.at_micros);
        let (path, body, deadline_ms) = render(&req.op, cfg);
        let job = Job {
            scheduled_micros: req.at_micros,
            path,
            body,
            deadline_ms,
        };
        if job_tx.send(job).is_err() {
            break;
        }
    }
    drop(job_tx);

    let mut stats = RunStats::new(schedule.len() as u64);
    for sample in sample_rx {
        stats.absorb(sample);
    }
    for w in workers {
        let _ = w.join();
    }
    Ok(stats)
}

/// One plain GET against the server, for `/healthz` and `/metrics` scrapes.
/// Returns `(status, body)`.
pub fn http_get(
    addr: &str,
    path: &str,
    io_timeout: Duration,
) -> Result<(u16, String), LoadgenError> {
    exchange("GET", addr, path, "", io_timeout)
}

/// One `Connection: close` POST with a JSON body. Used by the freshness
/// scenario, which measures individual exchanges rather than sustained load
/// (the keep-alive worker pool in [`run`] is overkill there).
pub fn http_post(
    addr: &str,
    path: &str,
    body: &str,
    io_timeout: Duration,
) -> Result<(u16, String), LoadgenError> {
    exchange("POST", addr, path, body, io_timeout)
}

fn exchange(
    method: &str,
    addr: &str,
    path: &str,
    body: &str,
    io_timeout: Duration,
) -> Result<(u16, String), LoadgenError> {
    let reply = client(addr, io_timeout)?
        .send(method, path, &[], body.as_bytes())
        .map_err(|e| client_error(format!("{method} {path} against {addr}"), e))?;
    Ok((reply.status, reply.text()))
}

fn client(addr: &str, io_timeout: Duration) -> Result<Client, LoadgenError> {
    Client::new(addr, io_timeout).map_err(|e| client_error(format!("resolving {addr}"), e))
}

fn client_error(context: String, e: ClientError) -> LoadgenError {
    LoadgenError::io(context, std::io::Error::other(e))
}

/// Issues one request and classifies the response; never fails — transport
/// errors become [`OutcomeKind::Transport`] samples.
fn execute(conn: &mut Client, job: &Job, clock: Clock) -> Sample {
    let sent_micros = clock.elapsed_micros();
    let deadline = job.deadline_ms.map(|d| d.to_string());
    let headers: Vec<(&str, &str)> = deadline
        .iter()
        .map(|d| (DEADLINE_HEADER, d.as_str()))
        .collect();
    let reply = conn.send("POST", job.path, &headers, job.body.as_bytes());
    let done_micros = clock.elapsed_micros();
    let (kind, tier, retry_after_missing) = match &reply {
        Ok(reply) => classify(reply),
        Err(_) => (OutcomeKind::Transport, None, false),
    };
    Sample {
        scheduled_micros: job.scheduled_micros,
        sent_micros,
        done_micros,
        kind,
        tier,
        retry_after_missing,
        reused_connection: reply.is_ok_and(|r| r.reused_connection),
    }
}

/// What the harness reads off a response: the outcome class (status, plus
/// the `degraded` flag of a 200's body), the `X-LogCL-Degradation` tier,
/// and whether a shed/timeout answer forgot its mandatory `Retry-After`.
fn classify(reply: &Reply) -> (OutcomeKind, Option<String>, bool) {
    let kind = match reply.status {
        200 => {
            let degraded = serde_json::from_slice::<serde_json::Value>(&reply.body)
                .ok()
                .and_then(|v| v.get("degraded").and_then(|d| d.as_bool()))
                .unwrap_or(false);
            if degraded {
                OutcomeKind::Degraded
            } else {
                OutcomeKind::Ok
            }
        }
        503 => OutcomeKind::Shed,
        504 => OutcomeKind::DeadlineExpired,
        _ => OutcomeKind::HttpError,
    };
    let tier = reply.header("x-logcl-degradation").map(String::from);
    let retry_after_missing =
        matches!(reply.status, 503 | 504) && reply.header("retry-after").is_none();
    (kind, tier, retry_after_missing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Op;
    use logcl_serve::http::{read_response, write_response, Response};

    #[test]
    fn render_predict_matches_serve_wire_format() {
        let (path, body, d) = render(
            &Op::Predict {
                subject: 3,
                relation: 1,
                k: 5,
                deadline_ms: Some(250),
            },
            &RunConfig::default(),
        );
        assert_eq!(path, "/predict");
        assert_eq!(body, "{\"subject\":3,\"relation\":1,\"k\":5}");
        assert_eq!(d, Some(250));
        // The body must be valid JSON for the server's parser.
        serde_json::from_str::<serde_json::Value>(&body).unwrap();
    }

    #[test]
    fn render_ingest_pins_time_and_update_flag() {
        let cfg = RunConfig {
            ingest_time: 12,
            ingest_update: true,
            ..RunConfig::default()
        };
        let (path, body, _) = render(
            &Op::Ingest {
                facts: vec![(0, 1, 2), (3, 4, 5)],
                deadline_ms: None,
            },
            &cfg,
        );
        assert_eq!(path, "/ingest");
        assert_eq!(
            body,
            "{\"time\":12,\"facts\":[[0,1,2],[3,4,5]],\"update\":true}"
        );
        serde_json::from_str::<serde_json::Value>(&body).unwrap();
    }

    /// A response as the server's writer puts it on the wire, read back.
    fn reply(resp: &Response) -> Reply {
        let mut wire = Vec::new();
        write_response(&mut wire, resp, true).unwrap();
        read_response(&mut wire.as_slice(), 1 << 16).unwrap()
    }

    #[test]
    fn classify_reads_status_tier_degraded_and_retry_after() {
        let brownout = Response::json(200, "{\"degraded\":true}".into())
            .with_header("X-LogCL-Degradation", "brownout");
        assert_eq!(
            classify(&reply(&brownout)),
            (OutcomeKind::Degraded, Some("brownout".into()), false)
        );
        let normal = Response::json(200, "{\"degraded\":false}".into());
        assert_eq!(classify(&reply(&normal)), (OutcomeKind::Ok, None, false));
        let shed = Response::json(503, "{}".into()).with_header("Retry-After", "1");
        assert_eq!(classify(&reply(&shed)), (OutcomeKind::Shed, None, false));
        // A 503/504 without Retry-After is counted against the server.
        let bare = Response::json(504, "{\"degraded\":true}".into());
        assert_eq!(
            classify(&reply(&bare)),
            (OutcomeKind::DeadlineExpired, None, true)
        );
        let other = Response::json(404, "{}".into());
        assert_eq!(
            classify(&reply(&other)),
            (OutcomeKind::HttpError, None, false)
        );
    }

    /// The router's partial-result degradation (a shard down, answer from
    /// the survivors) flows through the harness like any other tier: a
    /// degraded 200 classified under `tiers["partial"]`.
    #[test]
    fn router_partial_tier_is_parsed_and_counted() {
        let partial = Response::json(200, "{\"degraded\":true,\"coverage\":0.6666666}".into())
            .with_header("X-LogCL-Degradation", "partial")
            .with_header("Retry-After", "1");
        let (kind, tier, retry_after_missing) = classify(&reply(&partial));
        assert_eq!(kind, OutcomeKind::Degraded);
        assert_eq!(tier.as_deref(), Some("partial"));

        let mut stats = RunStats::new(1);
        stats.absorb(Sample {
            scheduled_micros: 0,
            sent_micros: 10,
            done_micros: 1_010,
            kind,
            tier,
            retry_after_missing,
            reused_connection: true,
        });
        assert_eq!(stats.degraded, 1);
        assert_eq!(stats.tiers.get("partial"), Some(&1));
    }

    #[test]
    fn stats_classify_and_count_every_outcome() {
        let mut stats = RunStats::new(6);
        let sample = |kind, tier: Option<&str>, missing| Sample {
            scheduled_micros: 0,
            sent_micros: 10,
            done_micros: 1_010,
            kind,
            tier: tier.map(String::from),
            retry_after_missing: missing,
            reused_connection: matches!(kind, OutcomeKind::Ok | OutcomeKind::Degraded),
        };
        stats.absorb(sample(OutcomeKind::Ok, Some("none"), false));
        stats.absorb(sample(OutcomeKind::Degraded, Some("brownout"), false));
        stats.absorb(sample(OutcomeKind::Shed, Some("shed"), true));
        stats.absorb(sample(OutcomeKind::DeadlineExpired, Some("none"), false));
        stats.absorb(sample(OutcomeKind::HttpError, None, false));
        stats.absorb(sample(OutcomeKind::Transport, None, false));
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.ok, 1);
        assert_eq!(stats.degraded, 1);
        assert_eq!(stats.shed_503, 1);
        assert_eq!(stats.deadline_504, 1);
        assert_eq!(stats.http_errors, 1);
        assert_eq!(stats.transport_errors, 1);
        assert_eq!(stats.retry_after_missing, 1);
        assert_eq!(stats.tiers.get("none"), Some(&2));
        // Only the two 200s entered the latency histograms.
        assert_eq!(stats.latency.count(), 2);
        assert_eq!(stats.service_latency.count(), 2);
        assert_eq!(stats.latency.quantile(1.0), 1_010);
        assert!((stats.goodput_rate() - 2.0 / 6.0).abs() < 1e-9);
        assert_eq!(stats.reused_connections, 2);
        assert!((stats.connection_reuse_rate() - 2.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn an_unresolvable_address_fails_the_run_before_any_traffic() {
        let cfg = RunConfig {
            addr: "definitely not an address".into(),
            ..RunConfig::default()
        };
        let err = run(&[], &cfg).unwrap_err();
        assert!(err.to_string().contains("resolving"), "{err}");
        assert!(http_get(&cfg.addr, "/healthz", cfg.io_timeout).is_err());
    }
}
