//! `logcl-loadgen` — the wall clock and the latency histogram that
//! `crates/benchmark` measures with.
//!
//! - [`timing`] anchors a monotonic [`timing::Clock`] and reads microsecond
//!   offsets from it; it is the only module allowed to read the wall clock
//!   (enforced by the crate's `clippy.toml`).
//! - [`hist`] records latencies in a log-bucketed [`hist::LogHistogram`]
//!   (HDR-style, integer-only) so tail quantiles stay accurate without
//!   unbounded memory.

// Determinism (DESIGN.md, "Lint table"): non-test code uses nothing
// `clippy.toml` disallows. A justified site carries
// `#[expect(…, reason = "…")]`.
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]
#![deny(clippy::allow_attributes_without_reason)]

pub mod hist;
pub mod timing;
