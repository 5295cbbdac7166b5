//! Lock-free serving metrics rendered in the Prometheus text exposition
//! format: request counters per endpoint, a latency histogram, the
//! micro-batch size histogram, encoding-cache hit/miss counters, and
//! kernel-backend utilisation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Latency buckets in seconds (upper bounds; `+Inf` is implicit).
pub const LATENCY_BUCKETS: [f64; 9] = [0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.5, 2.0];
/// Batch-size buckets (upper bounds; `+Inf` is implicit).
pub const BATCH_BUCKETS: [f64; 7] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
/// Compute-utilisation buckets: average pool compute threads busy per
/// wall-clock second while a batch executed (upper bounds; `+Inf` implicit).
pub const UTIL_BUCKETS: [f64; 8] = [0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 8.0];

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
    /// Micro-batch sizes, one observation per executed batch.
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
    /// Requests answered `503` because the bounded work queue was full.
    pub shed_queue_full: AtomicU64,
    /// Requests answered `504` at admission: the deadline had already
    /// passed (or was unsatisfiable) before any work was queued.
    pub shed_deadline_admission: AtomicU64,
    /// Requests answered `504` by the batcher: the deadline expired while
    /// the request sat in the work queue (shed *before* compute).
    pub shed_deadline_queue: AtomicU64,
    /// Requests answered `503` by queue-delay admission control (the
    /// CoDel-style sojourn signal or the Shed degradation tier).
    pub shed_overload: AtomicU64,
    /// Requests answered `503` by the per-endpoint concurrency cap.
    pub shed_concurrency: AtomicU64,
    /// Connections answered `503` on arrival because `max_connections` were
    /// already open.
    pub shed_connections: AtomicU64,
    /// Requests shed after admission but before entering model compute
    /// (the load-shedding guarantee: expired work never burns the model
    /// worker). Superset sum lives in `logcl_shed_total`.
    pub shed_before_compute: AtomicU64,
    /// Predict requests answered under a degraded tier (Brownout effects:
    /// reduced top-k and/or local-only decoding).
    pub degraded_responses: AtomicU64,
    /// Current degradation tier (0 = normal, 1 = brownout, 2 = shed),
    /// mirrored from the overload state machine on every transition.
    pub degradation_tier: AtomicU64,
    /// Queue sojourn (enqueue → dequeue) of work items, observed by the
    /// batcher — the CoDel-style overload signal.
    pub queue_sojourn: Histogram,
    /// Average kernel-pool compute threads busy per wall-clock second while
    /// each predict batch executed (0 under the serial backend, which runs
    /// on the model worker thread itself).
    pub compute_utilisation: Histogram,
    /// Kernel-pool busy time attributed to predict batches, in microseconds.
    pub kernel_busy_micros: AtomicU64,
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
            compute_utilisation: Histogram::new(&UTIL_BUCKETS),
            kernel_busy_micros: AtomicU64::new(0),
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
        use std::fmt::Write;
        let mut out = String::with_capacity(2048);
        let counter = |out: &mut String, name: &str, help: &str, pairs: &[(&str, u64)]| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            for (label, v) in pairs {
                if label.is_empty() {
                    let _ = writeln!(out, "{name} {v}");
                } else {
                    let _ = writeln!(out, "{name}{{{label}}} {v}");
                }
            }
        };
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        counter(
            &mut out,
            "logcl_requests_total",
            "Requests received, by endpoint.",
            &[
                ("endpoint=\"predict\"", load(&self.predict_requests)),
                ("endpoint=\"ingest\"", load(&self.ingest_requests)),
                ("endpoint=\"admin\"", load(&self.admin_requests)),
            ],
        );
        counter(
            &mut out,
            "logcl_responses_total",
            "Responses sent, by status class.",
            &[
                ("class=\"2xx\"", load(&self.responses_ok)),
                ("class=\"4xx\"", load(&self.responses_client_error)),
                ("class=\"5xx\"", load(&self.responses_server_error)),
            ],
        );
        counter(
            &mut out,
            "logcl_encoding_cache_hits_total",
            "Predict requests served from a cached snapshot encoding.",
            &[("", load(&self.cache_hits))],
        );
        counter(
            &mut out,
            "logcl_encoding_cache_misses_total",
            "Predict requests that computed a snapshot encoding.",
            &[("", load(&self.cache_misses))],
        );
        counter(
            &mut out,
            "logcl_encoding_cache_invalidations_total",
            "Cached snapshot encodings dropped by ingestion.",
            &[("", load(&self.cache_invalidations))],
        );
        counter(
            &mut out,
            "logcl_ingested_facts_total",
            "Facts appended through POST /ingest.",
            &[("", load(&self.ingested_facts))],
        );
        counter(
            &mut out,
            "logcl_online_updates_total",
            "Online adaptation steps taken after ingestion.",
            &[("", load(&self.online_updates))],
        );
        counter(
            &mut out,
            "logcl_read_timeouts_total",
            "Connections answered 408 after stalling past the read timeout.",
            &[("", load(&self.read_timeouts))],
        );
        counter(
            &mut out,
            "logcl_oversized_bodies_total",
            "Requests answered 413 for exceeding the body-size limit.",
            &[("", load(&self.oversized_bodies))],
        );
        counter(
            &mut out,
            "logcl_shed_total",
            "Requests shed (503/504 with Retry-After), by cause.",
            &[
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
        counter(
            &mut out,
            "logcl_shed_before_compute_total",
            "Admitted requests shed by the batcher before model compute.",
            &[("", load(&self.shed_before_compute))],
        );
        counter(
            &mut out,
            "logcl_degraded_responses_total",
            "Predict responses answered under a degraded (brownout) tier.",
            &[("", load(&self.degraded_responses))],
        );
        let _ = writeln!(
            out,
            "# HELP logcl_degradation_tier Current degradation tier (0 normal, 1 brownout, 2 shed)."
        );
        let _ = writeln!(out, "# TYPE logcl_degradation_tier gauge");
        let _ = writeln!(
            out,
            "logcl_degradation_tier {}",
            load(&self.degradation_tier)
        );
        counter(
            &mut out,
            "logcl_kernel_busy_micros_total",
            "Kernel-pool busy time attributed to predict batches (us).",
            &[("", load(&self.kernel_busy_micros))],
        );
        counter(
            &mut out,
            "logcl_wal_frames_total",
            "Write-ahead-log frame activity, by kind.",
            &[
                ("kind=\"appended\"", load(&self.wal_appended_frames)),
                ("kind=\"replayed\"", load(&self.wal_replayed_frames)),
            ],
        );
        counter(
            &mut out,
            "logcl_wal_fsyncs_total",
            "Group-commit fsyncs of the write-ahead log.",
            &[("", load(&self.wal_fsyncs))],
        );
        counter(
            &mut out,
            "logcl_wal_truncated_bytes_total",
            "Torn-tail bytes truncated off the log at startup.",
            &[("", load(&self.wal_truncated_bytes))],
        );
        counter(
            &mut out,
            "logcl_wal_recovered_facts_total",
            "Facts restored at startup (snapshot + WAL replay).",
            &[("", load(&self.wal_recovered_facts))],
        );
        counter(
            &mut out,
            "logcl_wal_compactions_total",
            "Snapshot-then-truncate compactions of the write-ahead log.",
            &[("", load(&self.wal_compactions))],
        );
        counter(
            &mut out,
            "logcl_wal_errors_total",
            "WAL append/fsync/compaction failures (ingest answered 500).",
            &[("", load(&self.wal_errors))],
        );
        counter(
            &mut out,
            "logcl_ingest_dedup_hits_total",
            "Duplicate ingest ids answered from the idempotency window.",
            &[("", load(&self.ingest_dedup_hits))],
        );
        counter(
            &mut out,
            "logcl_durable_acks_total",
            "Ingests acknowledged after their WAL frame was fsynced.",
            &[("", load(&self.durable_acks))],
        );
        counter(
            &mut out,
            "logcl_online_steps_total",
            "Online fine-tuning gradient steps applied (rollbacks excluded).",
            &[("", load(&self.online_steps))],
        );
        counter(
            &mut out,
            "logcl_online_rollbacks_total",
            "Online fine-tuning loops rolled back by the loss guard.",
            &[("", load(&self.online_rollbacks))],
        );
        counter(
            &mut out,
            "logcl_encoder_state_rebuilds_total",
            "Streaming encoder states rebuilt from scratch, by reason.",
            &[
                ("reason=\"boot\"", load(&self.encoder_state_rebuilds.boot)),
                (
                    "reason=\"weight_update\"",
                    load(&self.encoder_state_rebuilds.weight_update),
                ),
                (
                    "reason=\"backfill\"",
                    load(&self.encoder_state_rebuilds.backfill),
                ),
                (
                    "reason=\"recovery\"",
                    load(&self.encoder_state_rebuilds.recovery),
                ),
            ],
        );
        let _ = writeln!(
            out,
            "# HELP logcl_encoder_state_horizon Snapshots consumed by the streaming encoder state."
        );
        let _ = writeln!(out, "# TYPE logcl_encoder_state_horizon gauge");
        let _ = writeln!(
            out,
            "logcl_encoder_state_horizon {}",
            load(&self.encoder_state_horizon)
        );
        let _ = writeln!(
            out,
            "# HELP logcl_post_ingest_cache_hit_ratio Encoding-cache hit ratio at the last ingest."
        );
        let _ = writeln!(out, "# TYPE logcl_post_ingest_cache_hit_ratio gauge");
        let _ = writeln!(
            out,
            "logcl_post_ingest_cache_hit_ratio {}",
            load(&self.post_ingest_hit_ratio_ppm) as f64 / 1e6
        );
        // Backend identity gauge: labels carry the backend's name and which
        // compiled copy of the matmul tile this CPU runs, value the thread
        // count, following the Prometheus `_info` convention.
        let _ = writeln!(
            out,
            "# HELP logcl_kernel_backend_info Active kernel backend and vector ISA (value = compute threads)."
        );
        let _ = writeln!(out, "# TYPE logcl_kernel_backend_info gauge");
        let _ = writeln!(
            out,
            "logcl_kernel_backend_info{{backend=\"{}\",isa=\"{}\"}} {}",
            logcl_tensor::kernels::backend_name(),
            logcl_tensor::kernels::isa(),
            logcl_tensor::kernels::current_threads()
        );
        // Build identity info-gauge: lets bench reports and dashboards pin
        // down exactly which binary produced a measurement.
        let _ = writeln!(
            out,
            "# HELP logcl_build_info Server build identity (value is always 1)."
        );
        let _ = writeln!(out, "# TYPE logcl_build_info gauge");
        let features: &[&str] = &[
            #[cfg(feature = "fault-inject")]
            "fault-inject",
        ];
        // The git hash is baked in when CI exports LOGCL_GIT_HASH at build
        // time; plain local builds report "unknown".
        let _ = writeln!(
            out,
            "logcl_build_info{{version=\"{}\",git=\"{}\",backend=\"{}\",features=\"{}\"}} 1",
            env!("CARGO_PKG_VERSION"),
            option_env!("LOGCL_GIT_HASH").unwrap_or("unknown"),
            logcl_tensor::kernels::backend_name(),
            features.join(",")
        );
        self.latency.render(
            "logcl_request_duration_seconds",
            "End-to-end request latency.",
            &mut out,
        );
        self.batch_size.render(
            "logcl_batch_size",
            "Queries coalesced per executed micro-batch.",
            &mut out,
        );
        self.queue_sojourn.render(
            "logcl_queue_sojourn_seconds",
            "Work-queue sojourn per item: enqueue to leaving the queue for a batch, set-aside time included.",
            &mut out,
        );
        self.compute_utilisation.render(
            "logcl_compute_utilisation",
            "Pool compute threads busy per wall-second, per predict batch.",
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

    #[test]
    fn render_contains_every_family() {
        let m = Metrics::default();
        m.count_request("/predict");
        m.count_response(200, Duration::from_millis(3));
        m.batch_size.observe(4.0);
        m.cache_hits.fetch_add(2, Ordering::Relaxed);
        let text = m.render();
        for family in [
            "logcl_requests_total{endpoint=\"predict\"} 1",
            "logcl_responses_total{class=\"2xx\"} 1",
            "logcl_encoding_cache_hits_total 2",
            "logcl_request_duration_seconds_bucket",
            "logcl_batch_size_count 1",
            "logcl_kernel_backend_info{backend=",
            "logcl_build_info{version=\"",
            "logcl_compute_utilisation_bucket",
            "logcl_kernel_busy_micros_total",
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
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
        // The `backend=` label stays first (scrapers match on that prefix);
        // `isa` is whatever the kernel's own detection says on this host.
        let isa = format!(",isa=\"{}\"}} ", logcl_tensor::kernels::isa());
        assert!(text.contains(&isa), "missing {isa} in:\n{text}");
    }
}
