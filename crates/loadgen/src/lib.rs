//! `logcl-loadgen` — an open-loop, trace-driven load generator for
//! `logcl-serve`.
//!
//! It replays traffic and counts what came back; it judges nothing. The
//! perf instrument is `crates/benchmark`, which links [`timing`] and
//! [`hist`] from here.
//!
//! - [`schedule`] builds a deterministic request schedule from a seed: every
//!   arrival time, query id and per-request deadline is derived from the
//!   workspace's pinned xoshiro256++ PRNG, so two runs with the same
//!   [`schedule::TraceConfig`] send byte-identical traffic on an identical
//!   timeline (the schedule [`schedule::fingerprint`] proves it).
//! - [`runner`] replays a schedule *open loop* against a live server: the
//!   dispatcher never waits for responses, so a slow server cannot slow the
//!   offered load down (no coordinated omission). Latency is measured from
//!   the *scheduled* send time as well as the actual one.
//! - [`hist`] records latencies in log-bucketed histograms (HDR-style,
//!   integer-only) so tail quantiles stay accurate without unbounded memory.
//! - [`freshness`] measures ingest-to-visible latency: how long after an
//!   acked head append the new timestamp answers `/predict`.
//! - [`timing`] is the only module allowed to read the wall clock
//!   (enforced by the crate's `clippy.toml`).

// Determinism (DESIGN.md, "Lint table"): non-test code uses nothing
// `clippy.toml` disallows. A justified site carries
// `#[expect(…, reason = "…")]`.
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]
#![deny(clippy::allow_attributes_without_reason)]

pub mod freshness;
pub mod hist;
pub mod runner;
pub mod schedule;
pub mod timing;

/// Errors surfaced by the load harness.
///
/// Every variant carries enough context to act on: what was being done, and
/// which setting was rejected.
#[derive(Debug)]
pub enum LoadgenError {
    /// An I/O operation failed; `context` names what was being done.
    Io {
        /// What the harness was doing when the error hit.
        context: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// A trace or run configuration was rejected before any traffic.
    Config(String),
}

impl LoadgenError {
    /// Wraps an I/O error with a description of the failed operation.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        LoadgenError::Io {
            context: context.into(),
            source,
        }
    }
}

impl std::fmt::Display for LoadgenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadgenError::Io { context, source } => write!(f, "{context}: {source}"),
            LoadgenError::Config(msg) => write!(f, "invalid loadgen config: {msg}"),
        }
    }
}

impl std::error::Error for LoadgenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadgenError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_error_keeps_context_and_source() {
        let e = LoadgenError::io(
            "connecting to 127.0.0.1:7878",
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        assert!(e.to_string().contains("connecting"), "{e}");
        assert!(std::error::Error::source(&e).is_some());
    }
}
