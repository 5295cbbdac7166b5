//! Router metrics in the Prometheus text exposition format.
//!
//! Reuses [`logcl_serve::metrics::Histogram`] for per-shard latency; the
//! counters are plain atomics. Every `reason` label of
//! `logcl_router_retries_total` is pre-registered at zero so dashboards and
//! scrape tests see the full taxonomy before the first failure.

use std::sync::atomic::{AtomicU64, Ordering};

use logcl_serve::metrics::{write_family, Histogram, LATENCY_BUCKETS};

use crate::client::FailReason;

/// All router counters exported at `GET /metrics`.
pub struct RouterMetrics {
    /// `POST /predict` requests admitted.
    pub predict_requests: AtomicU64,
    /// `POST /ingest` requests admitted.
    pub ingest_requests: AtomicU64,
    /// Retried outbound hops, by failure taxonomy (connect/timeout/http/io).
    pub retries_connect: AtomicU64,
    /// See [`RouterMetrics::retries_connect`].
    pub retries_timeout: AtomicU64,
    /// See [`RouterMetrics::retries_connect`].
    pub retries_http: AtomicU64,
    /// See [`RouterMetrics::retries_connect`].
    pub retries_io: AtomicU64,
    /// Answered hops, `[opened their socket, rode one an earlier hop had
    /// used]` — the first is a first use, an empty pool under concurrent
    /// hops, or the replay of a pooled socket the worker had closed.
    pub hop_connections: [AtomicU64; 2],
    /// Hedged second attempts launched for slow shards.
    pub hedges: AtomicU64,
    /// Predict answers returned with `coverage < 1.0`.
    pub partial_responses: AtomicU64,
    /// Shard `200` answers to `/predict` that could not be read as a shard
    /// reply, and so were left out of the merge.
    pub unreadable_replies: AtomicU64,
    /// Requests shed at admission because their deadline was spent.
    pub shed_deadline: AtomicU64,
    /// Connections refused because the connection cap was reached.
    pub shed_connections: AtomicU64,
    /// Active `/healthz` probes sent.
    pub probes: AtomicU64,
    /// Per-shard end-to-end hop latency (successful attempts only).
    pub shard_latency: Vec<Histogram>,
}

impl RouterMetrics {
    /// Zeroed metrics for a cluster of `shards` shards.
    pub fn new(shards: usize) -> Self {
        Self {
            predict_requests: AtomicU64::new(0),
            ingest_requests: AtomicU64::new(0),
            retries_connect: AtomicU64::new(0),
            retries_timeout: AtomicU64::new(0),
            retries_http: AtomicU64::new(0),
            retries_io: AtomicU64::new(0),
            hop_connections: [AtomicU64::new(0), AtomicU64::new(0)],
            hedges: AtomicU64::new(0),
            partial_responses: AtomicU64::new(0),
            unreadable_replies: AtomicU64::new(0),
            shed_deadline: AtomicU64::new(0),
            shed_connections: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            shard_latency: (0..shards)
                .map(|_| Histogram::new(&LATENCY_BUCKETS))
                .collect(),
        }
    }

    /// Records one retried hop under its taxonomy bucket.
    pub fn count_retry(&self, reason: FailReason) {
        match reason {
            FailReason::Connect => &self.retries_connect,
            FailReason::Timeout => &self.retries_timeout,
            FailReason::Http => &self.retries_http,
            FailReason::Io => &self.retries_io,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one answered hop by whether it reused a pooled socket.
    pub fn count_hop_connection(&self, reused: bool) {
        self.hop_connections[usize::from(reused)].fetch_add(1, Ordering::Relaxed);
    }

    /// Renders every counter; `shard_states` supplies the
    /// `logcl_router_shard_state{shard,replica}` gauge values (the numeric
    /// [`crate::health::WorkerState`]).
    pub fn render(&self, shard_states: &[Vec<u8>]) -> String {
        let mut out = String::with_capacity(2048);
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        // Runs of single-valued counters, each `(name, help, value)`.
        let counters = |out: &mut String, rows: &[(&str, &str, &AtomicU64)]| {
            for &(name, help, v) in rows {
                write_family(out, name, "counter", help, [("", load(v))]);
            }
        };
        counters(
            &mut out,
            &[
                (
                    "logcl_router_predict_requests_total",
                    "Predict requests admitted by the router.",
                    &self.predict_requests,
                ),
                (
                    "logcl_router_ingest_requests_total",
                    "Ingest requests admitted by the router.",
                    &self.ingest_requests,
                ),
            ],
        );
        write_family(
            &mut out,
            "logcl_router_retries_total",
            "counter",
            "Outbound hops retried, by failure reason.",
            [
                (FailReason::Connect, &self.retries_connect),
                (FailReason::Timeout, &self.retries_timeout),
                (FailReason::Http, &self.retries_http),
                (FailReason::Io, &self.retries_io),
            ]
            .map(|(reason, v)| (format!("reason=\"{}\"", reason.name()), load(v))),
        );
        write_family(
            &mut out,
            "logcl_router_hop_connections_total",
            "counter",
            "Answered hops, by whether the socket had carried an earlier hop.",
            [true, false].map(|reused| {
                (
                    format!("reused=\"{reused}\""),
                    load(&self.hop_connections[usize::from(reused)]),
                )
            }),
        );
        counters(
            &mut out,
            &[
                (
                    "logcl_router_hedges_total",
                    "Hedged second attempts launched for slow shards.",
                    &self.hedges,
                ),
                (
                    "logcl_partial_responses_total",
                    "Predict answers returned with coverage below 1.0.",
                    &self.partial_responses,
                ),
                (
                    "logcl_router_unreadable_replies_total",
                    "Shard 200 answers to /predict that were not a readable shard reply.",
                    &self.unreadable_replies,
                ),
                (
                    "logcl_router_shed_deadline_total",
                    "Requests shed at admission with their deadline already spent.",
                    &self.shed_deadline,
                ),
                (
                    "logcl_router_shed_connections_total",
                    "Connections refused at the router's connection cap.",
                    &self.shed_connections,
                ),
                (
                    "logcl_router_probes_total",
                    "Active health probes sent to workers.",
                    &self.probes,
                ),
            ],
        );
        write_family(
            &mut out,
            "logcl_router_shard_state",
            "gauge",
            "Worker availability (3=up, 2=suspect, 1=probing, 0=down).",
            shard_states
                .iter()
                .enumerate()
                .flat_map(|(shard, replicas)| {
                    replicas.iter().enumerate().map(move |(replica, state)| {
                        (format!("shard=\"{shard}\",replica=\"{replica}\""), state)
                    })
                }),
        );
        for (shard, hist) in self.shard_latency.iter().enumerate() {
            hist.render(
                &format!("logcl_router_shard_{shard}_latency_seconds"),
                "End-to-end latency of successful hops to this shard.",
                &mut out,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exposition of a fixed state — every counter distinct and
    /// non-zero, two shards with three replicas between them — byte for
    /// byte as committed in `tests/router_metrics.prom`.
    #[test]
    fn render_is_byte_identical_to_the_reference_exposition() {
        let m = RouterMetrics::new(2);
        for (i, counter) in [
            &m.predict_requests,
            &m.ingest_requests,
            &m.retries_connect,
            &m.retries_timeout,
            &m.retries_http,
            &m.retries_io,
            &m.hop_connections[0],
            &m.hop_connections[1],
            &m.hedges,
            &m.partial_responses,
            &m.unreadable_replies,
            &m.shed_deadline,
            &m.shed_connections,
            &m.probes,
        ]
        .into_iter()
        .enumerate()
        {
            counter.store(i as u64 + 1, Ordering::Relaxed);
        }
        m.shard_latency[0].observe(0.003);
        m.shard_latency[1].observe(0.04);
        m.shard_latency[1].observe(3.0);
        assert_eq!(
            m.render(&[vec![3], vec![0, 2]]),
            include_str!("../tests/router_metrics.prom")
        );
    }

    #[test]
    fn renders_full_retry_taxonomy_at_zero() {
        let m = RouterMetrics::new(2);
        let out = m.render(&[vec![3], vec![0, 2]]);
        for reason in ["connect", "timeout", "http", "io"] {
            assert!(
                out.contains(&format!(
                    "logcl_router_retries_total{{reason=\"{reason}\"}} 0"
                )),
                "missing pre-registered reason {reason}:\n{out}"
            );
        }
        assert!(out.contains("logcl_router_shard_state{shard=\"0\",replica=\"0\"} 3"));
        assert!(out.contains("logcl_router_shard_state{shard=\"1\",replica=\"0\"} 0"));
        assert!(out.contains("logcl_router_shard_state{shard=\"1\",replica=\"1\"} 2"));
        assert!(out.contains("logcl_router_shard_0_latency_seconds_count 0"));
        assert!(out.contains("logcl_partial_responses_total 0"));
        assert!(out.contains("logcl_router_unreadable_replies_total 0"));
        assert!(out.contains("logcl_router_hedges_total 0"));
        assert!(out.contains("logcl_router_hop_connections_total{reused=\"true\"} 0"));
        assert!(out.contains("logcl_router_hop_connections_total{reused=\"false\"} 0"));
    }

    #[test]
    fn hop_connections_count_by_reuse() {
        let m = RouterMetrics::new(1);
        m.count_hop_connection(false);
        m.count_hop_connection(true);
        m.count_hop_connection(true);
        let out = m.render(&[vec![3]]);
        assert!(out.contains("logcl_router_hop_connections_total{reused=\"true\"} 2"));
        assert!(out.contains("logcl_router_hop_connections_total{reused=\"false\"} 1"));
    }

    #[test]
    fn retry_counters_route_by_reason() {
        let m = RouterMetrics::new(1);
        m.count_retry(FailReason::Connect);
        m.count_retry(FailReason::Connect);
        m.count_retry(FailReason::Http);
        let out = m.render(&[vec![3]]);
        assert!(out.contains("logcl_router_retries_total{reason=\"connect\"} 2"));
        assert!(out.contains("logcl_router_retries_total{reason=\"http\"} 1"));
        assert!(out.contains("logcl_router_retries_total{reason=\"timeout\"} 0"));
    }
}
