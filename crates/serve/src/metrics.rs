//! Lock-free serving metrics rendered in the Prometheus text exposition
//! format: request counters per endpoint, a latency histogram, the
//! ingest-run length histogram, encoding-cache hit/miss counters, and
//! kernel-backend identity.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Latency buckets in seconds (upper bounds; `+Inf` is implicit).
pub const LATENCY_BUCKETS: [f64; 9] = [0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.5, 2.0];
/// Run-length buckets (upper bounds; `+Inf` is implicit).
pub const BATCH_BUCKETS: [f64; 7] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// A fixed-bucket histogram over `AtomicU64` counters.
pub struct Histogram {
    bounds: &'static [f64],
    counts: Vec<AtomicU64>, // one per bound, plus +Inf
    /// Sum scaled by 1e6 to keep atomic integer arithmetic.
    sum_micro: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// A zeroed histogram over `bounds` (public so the cluster router can
    /// build per-shard latency histograms from the same machinery).
    pub fn new(bounds: &'static [f64]) -> Self {
        Self {
            bounds,
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_micro: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_micro
            .fetch_add((value * 1e6).max(0.0) as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Number of observations `<= bound` for each bound (cumulative), used
    /// by tests; the last entry equals [`Histogram::total`].
    pub fn cumulative(&self) -> Vec<u64> {
        let mut acc = 0;
        self.counts
            .iter()
            .map(|c| {
                acc += c.load(Ordering::Relaxed);
                acc
            })
            .collect()
    }

    /// Appends this histogram's Prometheus exposition lines to `out`.
    pub fn render(&self, name: &str, help: &str, out: &mut String) {
        use std::fmt::Write;
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut acc = 0u64;
        for (i, bound) in self.bounds.iter().enumerate() {
            acc += self.counts[i].load(Ordering::Relaxed);
            let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {acc}");
        }
        acc += self.counts[self.bounds.len()].load(Ordering::Relaxed);
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {acc}");
        let sum = self.sum_micro.load(Ordering::Relaxed) as f64 / 1e6;
        let _ = writeln!(out, "{name}_sum {sum}");
        let _ = writeln!(out, "{name}_count {}", self.count.load(Ordering::Relaxed));
    }
}

/// Appends one metric family in the Prometheus text format: its `HELP` and
/// `TYPE` lines, then one `name{labels} value` sample per pair (`name value`
/// when the labels are empty). The server's and the router's `/metrics` are
/// both written with it.
pub fn write_family<L: AsRef<str>, V: std::fmt::Display>(
    out: &mut String,
    name: &str,
    kind: &str,
    help: &str,
    samples: impl IntoIterator<Item = (L, V)>,
) {
    use std::fmt::Write;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    for (labels, value) in samples {
        let labels = labels.as_ref();
        if labels.is_empty() {
            let _ = writeln!(out, "{name} {value}");
        } else {
            let _ = writeln!(out, "{name}{{{labels}}} {value}");
        }
    }
}

/// From-scratch encoder-state rebuilds, split by the reason the O(Δ)
/// advance path could not be taken. Each field becomes one
/// `logcl_encoder_state_rebuilds_total{reason="…"}` series.
#[derive(Default)]
pub struct RebuildCounters {
    /// First build over the base history at model load.
    pub boot: AtomicU64,
    /// Online adaptation changed the parameters the state was evolved
    /// under, so the state had to be re-derived from the new weights.
    pub weight_update: AtomicU64,
    /// A backfill amended an already-consumed snapshot, invalidating the
    /// advance-only structures.
    pub backfill: AtomicU64,
    /// Crash recovery found no usable persisted state record (legacy
    /// snapshot or stale horizon).
    pub recovery: AtomicU64,
}

impl RebuildCounters {
    /// Sum across every reason (the pre-split scalar view).
    pub fn total(&self) -> u64 {
        self.boot.load(Ordering::Relaxed)
            + self.weight_update.load(Ordering::Relaxed)
            + self.backfill.load(Ordering::Relaxed)
            + self.recovery.load(Ordering::Relaxed)
    }
}

/// All counters exported at `GET /metrics`.
pub struct Metrics {
    /// `POST /predict` requests accepted.
    pub predict_requests: AtomicU64,
    /// `POST /ingest` requests accepted.
    pub ingest_requests: AtomicU64,
    /// `GET /healthz` + `GET /metrics` + admin requests.
    pub admin_requests: AtomicU64,
    /// Responses with a 2xx status.
    pub responses_ok: AtomicU64,
    /// Responses with a 4xx status.
    pub responses_client_error: AtomicU64,
    /// Responses with a 5xx status.
    pub responses_server_error: AtomicU64,
    /// End-to-end request latency.
    pub latency: Histogram,
    /// Ingests per group-commit run, one observation per run.
    pub batch_size: Histogram,
    /// Requests answered from a cached snapshot encoding.
    pub cache_hits: AtomicU64,
    /// Requests that had to compute the snapshot encoding.
    pub cache_misses: AtomicU64,
    /// Cached encodings dropped by ingestion invalidation.
    pub cache_invalidations: AtomicU64,
    /// Facts appended via `POST /ingest`.
    pub ingested_facts: AtomicU64,
    /// Online adaptation steps taken.
    pub online_updates: AtomicU64,
    /// Connections answered `408` because the peer stalled past the read
    /// timeout.
    pub read_timeouts: AtomicU64,
    /// Requests answered `413` because the declared body exceeded the limit.
    pub oversized_bodies: AtomicU64,
    /// Requests answered `503` because the bounded ingest queue was full.
    pub shed_queue_full: AtomicU64,
    /// Requests answered `504` at admission: the deadline had already
    /// passed (or was unsatisfiable) before any work was queued.
    pub shed_deadline_admission: AtomicU64,
    /// Requests answered `504` after admission, before compute: the
    /// deadline expired while waiting for a compute permit or the writer.
    pub shed_deadline_queue: AtomicU64,
    /// Requests answered `503` by queue-delay admission control (the
    /// CoDel-style permit-wait signal or the Shed degradation tier).
    pub shed_overload: AtomicU64,
    /// Requests answered `503` by the per-endpoint concurrency cap.
    pub shed_concurrency: AtomicU64,
    /// Connections answered `503` on arrival because `max_connections` were
    /// already open.
    pub shed_connections: AtomicU64,
    /// Requests shed after admission but before entering model compute
    /// (the load-shedding guarantee: expired work never burns compute).
    /// Superset sum lives in `logcl_shed_total`.
    pub shed_before_compute: AtomicU64,
    /// Predict requests whose answer Brownout's `k` cap shortened.
    pub degraded_responses: AtomicU64,
    /// Current degradation tier (0 = normal, 1 = brownout, 2 = shed),
    /// mirrored from the overload state machine on every transition.
    pub degradation_tier: AtomicU64,
    /// Each predict's wait for a compute permit (asking → granted, or
    /// leaving at its deadline) — the CoDel-style overload signal.
    pub queue_sojourn: Histogram,
    /// Frames appended to the ingest write-ahead log.
    pub wal_appended_frames: AtomicU64,
    /// Group-commit fsyncs of the write-ahead log (each may cover several
    /// appended frames; the ratio to appended frames is the amortisation).
    pub wal_fsyncs: AtomicU64,
    /// Intact frames replayed from the log at startup.
    pub wal_replayed_frames: AtomicU64,
    /// Torn-tail bytes truncated off the log at startup.
    pub wal_truncated_bytes: AtomicU64,
    /// Facts restored at startup from snapshot + WAL replay combined.
    pub wal_recovered_facts: AtomicU64,
    /// Compactions: snapshot written, then the log truncated.
    pub wal_compactions: AtomicU64,
    /// WAL append/fsync/compaction failures (the ingest was answered 500
    /// and must be retried; nothing was acknowledged).
    pub wal_errors: AtomicU64,
    /// Ingests answered from the idempotency window (duplicate
    /// `X-LogCL-Ingest-Id`; the remembered outcome was replayed).
    pub ingest_dedup_hits: AtomicU64,
    /// Ingests acknowledged only after their WAL frame was fsynced.
    pub durable_acks: AtomicU64,
    /// Time spent advancing streaming encoder state + history indexes per
    /// ingest (the O(Δ) freshness cost; excludes online fine-tuning).
    pub ingest_advance: Histogram,
    /// Individual online fine-tuning gradient steps applied (a bounded
    /// loop may take several per ingest; rolled-back steps are not
    /// counted — see `logcl_online_rollbacks_total`).
    pub online_steps: AtomicU64,
    /// Online fine-tuning loops aborted by the loss guard and rolled back
    /// to the pre-adaptation parameters.
    pub online_rollbacks: AtomicU64,
    /// Streaming encoder states rebuilt from scratch, split by why the
    /// O(Δ) advance path could not be taken (rendered as a `reason` label).
    pub encoder_state_rebuilds: RebuildCounters,
    /// Current streaming encoder horizon (snapshots consumed; gauge).
    pub encoder_state_horizon: AtomicU64,
    /// Encoding-cache hit ratio observed at the last ingest, in parts per
    /// million (gauge; 0 before the first ingest).
    pub post_ingest_hit_ratio_ppm: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Self {
            predict_requests: AtomicU64::new(0),
            ingest_requests: AtomicU64::new(0),
            admin_requests: AtomicU64::new(0),
            responses_ok: AtomicU64::new(0),
            responses_client_error: AtomicU64::new(0),
            responses_server_error: AtomicU64::new(0),
            latency: Histogram::new(&LATENCY_BUCKETS),
            batch_size: Histogram::new(&BATCH_BUCKETS),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_invalidations: AtomicU64::new(0),
            ingested_facts: AtomicU64::new(0),
            online_updates: AtomicU64::new(0),
            read_timeouts: AtomicU64::new(0),
            oversized_bodies: AtomicU64::new(0),
            shed_queue_full: AtomicU64::new(0),
            shed_deadline_admission: AtomicU64::new(0),
            shed_deadline_queue: AtomicU64::new(0),
            shed_overload: AtomicU64::new(0),
            shed_concurrency: AtomicU64::new(0),
            shed_connections: AtomicU64::new(0),
            shed_before_compute: AtomicU64::new(0),
            degraded_responses: AtomicU64::new(0),
            degradation_tier: AtomicU64::new(0),
            queue_sojourn: Histogram::new(&LATENCY_BUCKETS),
            wal_appended_frames: AtomicU64::new(0),
            wal_fsyncs: AtomicU64::new(0),
            wal_replayed_frames: AtomicU64::new(0),
            wal_truncated_bytes: AtomicU64::new(0),
            wal_recovered_facts: AtomicU64::new(0),
            wal_compactions: AtomicU64::new(0),
            wal_errors: AtomicU64::new(0),
            ingest_dedup_hits: AtomicU64::new(0),
            durable_acks: AtomicU64::new(0),
            ingest_advance: Histogram::new(&LATENCY_BUCKETS),
            online_steps: AtomicU64::new(0),
            online_rollbacks: AtomicU64::new(0),
            encoder_state_rebuilds: RebuildCounters::default(),
            encoder_state_horizon: AtomicU64::new(0),
            post_ingest_hit_ratio_ppm: AtomicU64::new(0),
        }
    }
}

impl Metrics {
    /// Bumps the per-endpoint request counter.
    pub fn count_request(&self, path: &str) {
        let counter = match path {
            "/predict" => &self.predict_requests,
            "/ingest" => &self.ingest_requests,
            _ => &self.admin_requests,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a finished response: status class + latency.
    pub fn count_response(&self, status: u16, elapsed: Duration) {
        let counter = match status {
            200..=299 => &self.responses_ok,
            400..=499 => &self.responses_client_error,
            _ => &self.responses_server_error,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.latency.observe(elapsed.as_secs_f64());
    }

    /// Renders every metric in the Prometheus text format.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(2048);
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        // Runs of single-valued counters, each `(name, help, value)`.
        let counters = |out: &mut String, rows: &[(&str, &str, &AtomicU64)]| {
            for &(name, help, v) in rows {
                write_family(out, name, "counter", help, [("", load(v))]);
            }
        };
        write_family(
            &mut out,
            "logcl_requests_total",
            "counter",
            "Requests received, by endpoint.",
            [
                ("endpoint=\"predict\"", load(&self.predict_requests)),
                ("endpoint=\"ingest\"", load(&self.ingest_requests)),
                ("endpoint=\"admin\"", load(&self.admin_requests)),
            ],
        );
        write_family(
            &mut out,
            "logcl_responses_total",
            "counter",
            "Responses sent, by status class.",
            [
                ("class=\"2xx\"", load(&self.responses_ok)),
                ("class=\"4xx\"", load(&self.responses_client_error)),
                ("class=\"5xx\"", load(&self.responses_server_error)),
            ],
        );
        counters(
            &mut out,
            &[
                (
                    "logcl_encoding_cache_hits_total",
                    "Predict requests served from a cached snapshot encoding.",
                    &self.cache_hits,
                ),
                (
                    "logcl_encoding_cache_misses_total",
                    "Predict requests that computed a snapshot encoding.",
                    &self.cache_misses,
                ),
                (
                    "logcl_encoding_cache_invalidations_total",
                    "Cached snapshot encodings dropped by ingestion.",
                    &self.cache_invalidations,
                ),
                (
                    "logcl_ingested_facts_total",
                    "Facts appended through POST /ingest.",
                    &self.ingested_facts,
                ),
                (
                    "logcl_online_updates_total",
                    "Online adaptation steps taken after ingestion.",
                    &self.online_updates,
                ),
                (
                    "logcl_read_timeouts_total",
                    "Connections answered 408 after stalling past the read timeout.",
                    &self.read_timeouts,
                ),
                (
                    "logcl_oversized_bodies_total",
                    "Requests answered 413 for exceeding the body-size limit.",
                    &self.oversized_bodies,
                ),
            ],
        );
        write_family(
            &mut out,
            "logcl_shed_total",
            "counter",
            "Requests shed (503/504 with Retry-After), by cause.",
            [
                ("reason=\"queue_full\"", load(&self.shed_queue_full)),
                (
                    "reason=\"deadline_admission\"",
                    load(&self.shed_deadline_admission),
                ),
                ("reason=\"deadline_queue\"", load(&self.shed_deadline_queue)),
                ("reason=\"overload\"", load(&self.shed_overload)),
                ("reason=\"concurrency\"", load(&self.shed_concurrency)),
                ("reason=\"connections\"", load(&self.shed_connections)),
            ],
        );
        counters(
            &mut out,
            &[
                (
                    "logcl_shed_before_compute_total",
                    "Admitted requests shed before model compute.",
                    &self.shed_before_compute,
                ),
                (
                    "logcl_degraded_responses_total",
                    "Predict responses whose top-k the brownout cap shortened.",
                    &self.degraded_responses,
                ),
            ],
        );
        write_family(
            &mut out,
            "logcl_degradation_tier",
            "gauge",
            "Current degradation tier (0 normal, 1 brownout, 2 shed).",
            [("", load(&self.degradation_tier))],
        );
        write_family(
            &mut out,
            "logcl_wal_frames_total",
            "counter",
            "Write-ahead-log frame activity, by kind.",
            [
                ("kind=\"appended\"", load(&self.wal_appended_frames)),
                ("kind=\"replayed\"", load(&self.wal_replayed_frames)),
            ],
        );
        counters(
            &mut out,
            &[
                (
                    "logcl_wal_fsyncs_total",
                    "Group-commit fsyncs of the write-ahead log.",
                    &self.wal_fsyncs,
                ),
                (
                    "logcl_wal_truncated_bytes_total",
                    "Torn-tail bytes truncated off the log at startup.",
                    &self.wal_truncated_bytes,
                ),
                (
                    "logcl_wal_recovered_facts_total",
                    "Facts restored at startup (snapshot + WAL replay).",
                    &self.wal_recovered_facts,
                ),
                (
                    "logcl_wal_compactions_total",
                    "Snapshot-then-truncate compactions of the write-ahead log.",
                    &self.wal_compactions,
                ),
                (
                    "logcl_wal_errors_total",
                    "WAL append/fsync/compaction failures (ingest answered 500).",
                    &self.wal_errors,
                ),
                (
                    "logcl_ingest_dedup_hits_total",
                    "Duplicate ingest ids answered from the idempotency window.",
                    &self.ingest_dedup_hits,
                ),
                (
                    "logcl_durable_acks_total",
                    "Ingests acknowledged after their WAL frame was fsynced.",
                    &self.durable_acks,
                ),
                (
                    "logcl_online_steps_total",
                    "Online fine-tuning gradient steps applied (rollbacks excluded).",
                    &self.online_steps,
                ),
                (
                    "logcl_online_rollbacks_total",
                    "Online fine-tuning loops rolled back by the loss guard.",
                    &self.online_rollbacks,
                ),
            ],
        );
        let rebuilds = &self.encoder_state_rebuilds;
        write_family(
            &mut out,
            "logcl_encoder_state_rebuilds_total",
            "counter",
            "Streaming encoder states rebuilt from scratch, by reason.",
            [
                ("reason=\"boot\"", load(&rebuilds.boot)),
                ("reason=\"weight_update\"", load(&rebuilds.weight_update)),
                ("reason=\"backfill\"", load(&rebuilds.backfill)),
                ("reason=\"recovery\"", load(&rebuilds.recovery)),
            ],
        );
        write_family(
            &mut out,
            "logcl_encoder_state_horizon",
            "gauge",
            "Snapshots consumed by the streaming encoder state.",
            [("", load(&self.encoder_state_horizon))],
        );
        write_family(
            &mut out,
            "logcl_post_ingest_cache_hit_ratio",
            "gauge",
            "Encoding-cache hit ratio at the last ingest.",
            [("", load(&self.post_ingest_hit_ratio_ppm) as f64 / 1e6)],
        );
        // Backend identity gauge: the kernels run serially on the calling
        // thread; the `isa` label says which compiled copy of the matmul tile
        // this CPU runs. Value = compute threads, always 1.
        write_family(
            &mut out,
            "logcl_kernel_backend_info",
            "gauge",
            "Kernel backend and vector ISA (value = compute threads).",
            [(
                format!(
                    "backend=\"serial\",isa=\"{}\"",
                    logcl_tensor::kernels::isa()
                ),
                1,
            )],
        );
        // Build identity info-gauge: lets a scrape or a dashboard pin down
        // exactly which binary produced a measurement.
        let features: &[&str] = &[
            #[cfg(feature = "fault-inject")]
            "fault-inject",
        ];
        // The git hash is baked in when CI exports LOGCL_GIT_HASH at build
        // time; plain local builds report "unknown".
        write_family(
            &mut out,
            "logcl_build_info",
            "gauge",
            "Server build identity (value is always 1).",
            [(
                format!(
                    "version=\"{}\",git=\"{}\",backend=\"serial\",features=\"{}\"",
                    env!("CARGO_PKG_VERSION"),
                    option_env!("LOGCL_GIT_HASH").unwrap_or("unknown"),
                    features.join(",")
                ),
                1,
            )],
        );
        self.latency.render(
            "logcl_request_duration_seconds",
            "End-to-end request latency.",
            &mut out,
        );
        self.batch_size.render(
            "logcl_batch_size",
            "Ingests applied per group-commit run (predicts are never batched).",
            &mut out,
        );
        self.queue_sojourn.render(
            "logcl_queue_sojourn_seconds",
            "Wait for a compute permit per predict: asking to granted, or to leaving at the deadline.",
            &mut out,
        );
        self.ingest_advance.render(
            "logcl_ingest_advance_seconds",
            "Streaming state + history advance time per ingest.",
            &mut out,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = Histogram::new(&BATCH_BUCKETS);
        for v in [1.0, 1.0, 3.0, 9.0, 1000.0] {
            h.observe(v);
        }
        let cum = h.cumulative();
        assert_eq!(cum[0], 2); // <= 1
        assert_eq!(cum[2], 3); // <= 4
        assert_eq!(cum[4], 4); // <= 16
        assert_eq!(*cum.last().unwrap(), 5); // +Inf
        assert_eq!(h.total(), 5);
    }

    /// Every counter and gauge distinct and non-zero, every histogram fed.
    fn fixed_state() -> Metrics {
        let m = Metrics::default();
        let rebuilds = &m.encoder_state_rebuilds;
        for (i, counter) in [
            &m.predict_requests,
            &m.ingest_requests,
            &m.admin_requests,
            &m.responses_ok,
            &m.responses_client_error,
            &m.responses_server_error,
            &m.cache_hits,
            &m.cache_misses,
            &m.cache_invalidations,
            &m.ingested_facts,
            &m.online_updates,
            &m.read_timeouts,
            &m.oversized_bodies,
            &m.shed_queue_full,
            &m.shed_deadline_admission,
            &m.shed_deadline_queue,
            &m.shed_overload,
            &m.shed_concurrency,
            &m.shed_connections,
            &m.shed_before_compute,
            &m.degraded_responses,
            &m.wal_appended_frames,
            &m.wal_fsyncs,
            &m.wal_replayed_frames,
            &m.wal_truncated_bytes,
            &m.wal_recovered_facts,
            &m.wal_compactions,
            &m.wal_errors,
            &m.ingest_dedup_hits,
            &m.durable_acks,
            &m.online_steps,
            &m.online_rollbacks,
            &rebuilds.boot,
            &rebuilds.weight_update,
            &rebuilds.backfill,
            &rebuilds.recovery,
            &m.encoder_state_horizon,
        ]
        .into_iter()
        .enumerate()
        {
            counter.store(i as u64 + 1, Ordering::Relaxed);
        }
        m.degradation_tier.store(1, Ordering::Relaxed);
        m.post_ingest_hit_ratio_ppm
            .store(625_000, Ordering::Relaxed);
        for seconds in [0.0005, 0.003, 0.04, 3.0] {
            m.latency.observe(seconds);
            m.queue_sojourn.observe(seconds / 2.0);
            m.ingest_advance.observe(seconds / 4.0);
        }
        m.batch_size.observe(3.0);
        m.batch_size.observe(40.0);
        m
    }

    /// The exposition of a fixed state, byte for byte as committed in
    /// `tests/metrics.prom` (its `@…@` tokens stand for the values that
    /// depend on the host and the build).
    #[test]
    fn render_is_byte_identical_to_the_reference_exposition() {
        let features = if cfg!(feature = "fault-inject") {
            "fault-inject"
        } else {
            ""
        };
        let expected = include_str!("../tests/metrics.prom")
            .replace("@ISA@", logcl_tensor::kernels::isa())
            .replace("@VERSION@", env!("CARGO_PKG_VERSION"))
            .replace("@GIT@", option_env!("LOGCL_GIT_HASH").unwrap_or("unknown"))
            .replace("@FEATURES@", features);
        assert_eq!(fixed_state().render(), expected);
    }

    #[test]
    fn render_contains_every_family() {
        let m = Metrics::default();
        m.count_request("/predict");
        m.count_response(200, Duration::from_millis(3));
        m.batch_size.observe(4.0);
        m.cache_hits.fetch_add(2, Ordering::Relaxed);
        let text = m.render();
        // The build identity names the compiled features: a binary built
        // for the chaos suites must say so on every scrape.
        let features = if cfg!(feature = "fault-inject") {
            "fault-inject"
        } else {
            ""
        };
        let build = format!(",features=\"{features}\"}} 1");
        for family in [
            "logcl_requests_total{endpoint=\"predict\"} 1",
            "logcl_responses_total{class=\"2xx\"} 1",
            "logcl_encoding_cache_hits_total 2",
            "logcl_request_duration_seconds_bucket",
            "logcl_batch_size_count 1",
            "logcl_kernel_backend_info{backend=\"serial\",",
            "logcl_build_info{version=\"",
            "logcl_shed_total{reason=\"queue_full\"} 0",
            "logcl_shed_total{reason=\"deadline_queue\"} 0",
            "logcl_shed_before_compute_total 0",
            "logcl_degradation_tier 0",
            "logcl_queue_sojourn_seconds_count",
            "logcl_wal_frames_total{kind=\"appended\"} 0",
            "logcl_wal_frames_total{kind=\"replayed\"} 0",
            "logcl_wal_fsyncs_total 0",
            "logcl_wal_recovered_facts_total 0",
            "logcl_wal_compactions_total 0",
            "logcl_ingest_dedup_hits_total 0",
            "logcl_durable_acks_total 0",
            "logcl_online_steps_total 0",
            "logcl_online_rollbacks_total 0",
            "logcl_encoder_state_rebuilds_total{reason=\"boot\"} 0",
            "logcl_encoder_state_rebuilds_total{reason=\"weight_update\"} 0",
            "logcl_encoder_state_rebuilds_total{reason=\"backfill\"} 0",
            "logcl_encoder_state_rebuilds_total{reason=\"recovery\"} 0",
            "logcl_encoder_state_horizon 0",
            "logcl_post_ingest_cache_hit_ratio 0",
            "logcl_ingest_advance_seconds_count 0",
            build.as_str(),
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
        // The `backend=` label stays first (scrapers match on that prefix);
        // `isa` is whatever the kernel's own detection says on this host.
        let isa = format!(",isa=\"{}\"}} ", logcl_tensor::kernels::isa());
        assert!(text.contains(&isa), "missing {isa} in:\n{text}");
    }
}
