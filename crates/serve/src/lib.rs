//! `logcl-serve`: a std-only inference server for LogCL temporal knowledge
//! graph models.
//!
//! The crate hand-rolls everything a small production server needs on top of
//! `std::net` — no async runtime, no HTTP framework:
//!
//! * [`http`] — the workspace's one HTTP codec and client: a bounded,
//!   fail-closed message reader (tolerant of fragmented reads, hard caps on
//!   head and body) under both the request and the response half, the two
//!   writers, and the small blocking [`http::Client`] that the router's
//!   worker hops, the load harness and the tests all speak through.
//! * [`listener`] — the workspace's one server-side connection loop: a
//!   blocking accept, a thread per connection under a cap, the keep-alive
//!   lifecycle, the shutdown latch and graceful drain. This server and the
//!   `logcl-cluster` router both run on it.
//! * [`answer`] — the `/predict` answer written straight into its JSON
//!   text, byte-identical to the `json!` rendering it replaced.
//! * [`metrics`] — lock-free Prometheus-format counters and histograms.
//! * [`cache`] — the per-model snapshot-encoding cache keyed by timestamp.
//! * [`batcher`] — the model thread's ingest loop (group commit) and the
//!   request/answer types of the model boundary.
//! * [`registry`] — checkpoint loading/validation, ingestion on the model
//!   thread, and the generations it publishes, which every `/predict` is
//!   computed from on its own connection thread.
//! * [`server`] — configuration, the model thread, and the endpoint
//!   routing handed to [`listener`].
//! * [`shed`] — overload resilience: compute permits, deadline-aware
//!   shedding and the Normal → Brownout → Shed degradation state machine.
//! * [`wal`] — the durable-ingest write-ahead log: CRC32-framed records,
//!   group-commit fsync, torn-tail truncation on replay.
//!
//! Under the `fault-inject` cargo feature (tests only — lint L008 proves it
//! never reaches a default build) the `fault` module adds deterministic
//! fault injection at audited boundaries for chaos testing.
//!
//! Start one with [`Server::start`] and a [`ServeConfig`]; see the README's
//! "Serving" section for the HTTP API.

pub mod answer;
pub mod batcher;
pub mod cache;
pub mod deadline;
pub mod error;
#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod http;
pub mod listener;
pub mod metrics;
pub mod registry;
pub mod server;
pub mod shed;
pub mod wal;

pub use batcher::{ServeError, ShardDetail};
pub use cache::EncodingCache;
pub use error::StartError;
pub use listener::ShutdownState;
pub use metrics::Metrics;
pub use registry::{ModelSpec, Registry};
pub use server::{ServeConfig, Server};
pub use shed::{OverloadPolicy, OverloadState, Tier};
pub use wal::{Wal, WalError, WalRecord};
