//! `logcl-analyze`: the in-repo invariant lint engine.
//!
//! A std-only static-analysis pass (lexer, no `syn`) that walks every
//! workspace source file and enforces, as hard CI gates, the invariants
//! clippy cannot check: the kernel boundary, fsync, lock and wire-boundary
//! discipline. Panic-freedom and determinism are clippy
//! lints. See DESIGN.md ("Static analysis & enforced invariants") for the
//! table of every rule and its enforcer, and CONTRIBUTING.md for the
//! `logcl-allow` workflow.

// Panic-freedom (DESIGN.md, "Lint table"): non-test code calls no
// unwrap/expect/panic-family macro. A justified site carries
// `#[expect(…, reason = "…")]`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod concurrency;
pub mod config;
pub mod engine;
pub mod lexer;
pub mod lints;
pub mod source;

pub use engine::{
    analyze_root, analyze_sources, find_workspace_root, lock_graph_dot_root, Analysis,
};
pub use lints::{lint_by_id, registry, Diagnostic, LintPass, META_LINT};
