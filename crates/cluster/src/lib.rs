//! `logcl-cluster`: fault-tolerant sharded serving for LogCL.
//!
//! A thin router process ([`Router`]) fronts N entity-partitioned
//! `logcl serve --shard i/N` workers, speaking the exact same HTTP protocol
//! as a single worker:
//!
//! * [`config`]  — the `--shards` topology spec and [`RouterConfig`].
//! * [`client`]  — the outbound hop: a per-worker pool of kept-alive
//!   connections, deadlines cut from the request's budget, and a failure
//!   taxonomy that doubles as the retry-metric labels.
//! * [`health`]  — per-worker Up → Suspect → Down → Probing state machines,
//!   atomics-only.
//! * [`merge`]   — the bit-exactness contract: per-shard top-k candidates
//!   (scores carried as `f32::to_bits`) merged with the same comparator as
//!   single-node ranking, softmax probabilities recombined from per-shard
//!   partials.
//! * [`metrics`] — router-side Prometheus counters, gauges, and per-shard
//!   latency histograms.
//! * [`router`]  — the scatter-gather process: failover, bounded retries
//!   with jittered backoff, optional predict hedging, remaining-deadline
//!   propagation, exactly-once ingest fan-out, and partial-result
//!   degradation when a shard stays down. Its inbound side — accepting,
//!   connection lifecycle, the connection cap, drain — is not here: it is
//!   [`logcl_serve::listener`], the loop the workers run on too.
//!
//! Under the `fault-inject` cargo feature (tests only — `fault.rs` fails to
//! compile in a build without it) the `fault` module injects deterministic
//! faults at the router's network boundaries for chaos testing.

// Panic-freedom and determinism (DESIGN.md, "Lint table"): non-test
// code calls no unwrap/expect/panic-family macro and uses nothing
// `clippy.toml` disallows. A justified site carries
// `#[expect(…, reason = "…")]`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_types
    )
)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod client;
pub mod config;
#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod health;
pub mod merge;
pub mod metrics;
pub mod router;

pub use client::{FailReason, HopError};
pub use config::{parse_shards, ClusterError, RouterConfig};
pub use health::{WorkerHealth, WorkerState};
pub use merge::{
    merge_replies, parse_shard_reply, MergedAnswer, MergedPrediction, ShardCandidate, ShardReply,
    ShardReplyError,
};
pub use metrics::RouterMetrics;
pub use router::Router;
