//! `logcl-benchmark`: the repo's benchmark.
//!
//! Four serving workloads drive the product through its public API only
//! (`Server::start`, `Router::start`, `Registry::build`, `LogCl::*`,
//! `HistoryIndex::*`, `http::*`, `Wal::*`, `merge_replies`, `kernels::ops`,
//! `GET /metrics`) with every product default as shipped. Each run reports
//! end-to-end metrics from an untraced socket run, or per-layer metrics from
//! `/metrics` deltas plus a traced in-process replay. See the crate README
//! for who each metric serves and how the layers are expected to interact.
//!
//! * [`spec`]      — the metric registry and the frozen ladders.
//! * [`datasets`]  — the three fixed-seed synthetic graphs.
//! * [`client`]    — the keep-alive HTTP client that returns bodies.
//! * [`stats`]     — exact percentiles and the spread statistic.
//! * [`prom`]      — Prometheus text parsing and deltas.
//! * [`trace`]     — in-memory spans and self-time arithmetic.
//! * [`load`]      — seeded request streams, open and closed loops, rungs.
//! * [`system`]    — booting and tearing down the system under test.
//! * [`verify`]    — bit-exact answer checks against a twin model.
//! * [`replay`]    — the traced in-process replay.
//! * [`workload`]  — one run of one workload, start to finish.
//! * [`compare`]   — `compare` and `calibrate`.

pub mod client;
pub mod compare;
pub mod datasets;
pub mod load;
pub mod prom;
pub mod replay;
pub mod spec;
pub mod stats;
pub mod system;
pub mod trace;
pub mod verify;
pub mod workload;

/// Any failure that aborts a run: the benchmark exits non-zero without
/// printing a result line.
pub type BenchError = Box<dyn std::error::Error + Send + Sync>;
