//! # logcl-tkg
//!
//! Temporal-knowledge-graph data structures and evaluation machinery for the
//! LogCL (ICDE 2024) reproduction:
//!
//! * [`Quad`] / [`TkgDataset`] — quadruple facts `(s, r, o, t)`, train/valid/
//!   test splits, inverse-relation closure and a TSV loader compatible with
//!   the public ICEWS/GDELT dumps.
//! * [`Snapshot`] — the per-timestamp multi-relational graph `G_t` with
//!   degree bookkeeping for GCN normalisation.
//! * [`synthetic`] — pattern-planting generators standing in for the four
//!   benchmark datasets (see DESIGN.md for the substitution argument), with
//!   presets mirroring ICEWS14/ICEWS18/ICEWS05-15/GDELT statistics at
//!   reduced scale.
//! * [`history`] — the global repetition index and the paper's two-hop
//!   historical query-subgraph sampler (Section III-D): one time-versioned
//!   index, read "as of `t`" so only facts with time `< t` are visible.
//! * [`eval`] — time-aware filtered MRR / Hits@k exactly as defined in
//!   Section IV-B1.
//! * [`noise`] — Gaussian perturbation specs for the robustness studies
//!   (Figs. 2 and 5).
//! * [`extension`] — the serializable ingestion delta (appended facts +
//!   advanced horizon) used by the serving stack's compaction snapshots.

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
        clippy::disallowed_types,
        clippy::disallowed_methods
    )
)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod dataset;
pub mod eval;
pub mod extension;
pub mod history;
pub mod noise;
pub mod quad;
pub mod snapshot;
pub mod synthetic;

pub use dataset::{DatasetError, TkgDataset};
pub use eval::{Metrics, RankAccumulator};
pub use extension::{DatasetExtension, ExtensionError};
pub use history::{HistoryIndex, HistoryView, QuerySubgraph};
pub use noise::NoiseSpec;
pub use quad::Quad;
pub use snapshot::Snapshot;
pub use synthetic::{SyntheticConfig, SyntheticPreset};
