//! # logcl-gnn
//!
//! The neural building blocks of LogCL and its baselines, built on
//! [`logcl_tensor`]:
//!
//! * [`rgcn::RgcnLayer`] — the entity-aggregating R-GCN of Eq. 4.
//! * [`compgcn::CompGcnLayer`] — CompGCN with `sub`/`mult` composition
//!   (Table V alternatives).
//! * [`kbgat::KbgatLayer`] — a KBGAT-style edge-attention aggregator
//!   (Table V alternative).
//! * [`aggregator::{Aggregator, AggregatorKind, RelGnn}`] — the common
//!   interface the encoders program against, so the GNN can be swapped.
//! * [`gru::GruCell`] — the entity-evolution GRU of Eq. 5.
//! * [`time_gate::RelationEvolution`] — relation mean-pooling + time gate
//!   (Eq. 6–8).
//! * [`time_encode::TimeEncoder`] — the periodic time encoding of Eq. 2–3.
//! * [`attention::{LocalEntityAttention, GlobalEntityAttention}`] — the
//!   entity-aware attention mechanisms (Eq. 9–11 and 13–14).
//! * [`conv_transe::ConvTransE`] — the decoder of Eq. 18.

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

pub mod aggregator;
pub mod attention;
pub mod compgcn;
pub mod conv_transe;
pub mod gru;
pub mod kbgat;
pub mod rgcn;
pub mod time_encode;
pub mod time_gate;

pub use aggregator::{Aggregator, AggregatorKind, RelGnn};
pub use attention::{GlobalEntityAttention, LocalEntityAttention};
pub use conv_transe::ConvTransE;
pub use gru::GruCell;
pub use rgcn::RgcnLayer;
pub use time_encode::TimeEncoder;
pub use time_gate::RelationEvolution;
