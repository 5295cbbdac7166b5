//! # logcl-baselines
//!
//! Re-implemented comparison models for Table III (and Figs. 2 & 10),
//! one strong representative per category of the paper's baseline taxonomy:
//!
//! | Category | Models |
//! |---|---|
//! | Static KG reasoning | [`DistMult`], [`ConvTransEStatic`] |
//! | TKG interpolation | [`TTransE`] |
//! | TKG extrapolation, global/copy | [`CyGNet`], [`CenetLite`] |
//! | TKG extrapolation, local recurrent | [`ReNet`], [`ReGcn`], [`CenLite`] |
//! | TKG extrapolation, local + global | [`TirgnLite`], [`HisMatch`] |
//!
//! The `-lite` suffix marks faithful-in-spirit reductions (see DESIGN.md):
//! CEN-lite ensembles RE-GCN rollouts over multiple history lengths (CEN's
//! core idea), TiRGN-lite gates RE-GCN's local scores with a global
//! repetition-history score (TiRGN's core idea), CENET-lite augments a
//! generation scorer with frequency features and a historical/non-historical
//! boundary classifier (CENET's core idea).
//!
//! Every model implements [`logcl_core::TkgModel`], so the same two-phase
//! time-aware-filtered evaluation driver produces every number.

// Determinism (DESIGN.md, "Lint table"): non-test code uses nothing
// `clippy.toml` disallows. A justified site carries
// `#[expect(…, reason = "…")]`.
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]
#![deny(clippy::allow_attributes_without_reason)]

pub mod cen;
pub mod cenet;
pub mod cygnet;
pub mod hismatch;
pub mod recurrent;
pub mod regcn;
pub mod registry;
pub mod renet;
pub mod static_models;
pub mod tirgn;
pub mod ttranse;
pub mod util;

pub use cen::CenLite;
pub use cenet::CenetLite;
pub use cygnet::CyGNet;
pub use hismatch::HisMatch;
pub use regcn::ReGcn;
pub use registry::BaselineKind;
pub use renet::ReNet;
pub use static_models::{ConvTransEStatic, DistMult};
pub use tirgn::TirgnLite;
pub use ttranse::TTransE;
