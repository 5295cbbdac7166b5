//! # logcl-core
//!
//! The LogCL model (ICDE 2024) and its training/evaluation harness:
//!
//! * [`config::LogClConfig`] — hyper-parameters plus the ablation switches
//!   that realise every Table IV/V variant.
//! * [`model::LogCl`] — the full encoder–decoder: local entity-aware
//!   attention recurrent encoder, global entity-aware attention encoder,
//!   local–global query contrast module and ConvTransE decoder.
//! * [`api::TkgModel`] — the trait every model (LogCL and the baselines in
//!   `logcl-baselines`) implements, plus the shared two-phase evaluation
//!   driver with time-aware filtered metrics.
//! * [`trainer`] — offline training (two-phase forward propagation, Adam)
//!   and the online-update protocol of Fig. 10.
//! * [`predict`] — top-k readable predictions for the Table VI case study.

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

pub mod api;
pub mod checkpoint;
pub mod config;
pub mod contrast;
pub mod diagnostics;
pub mod global_encoder;
pub mod local_encoder;
pub mod model;
pub mod predict;
pub mod serving_snapshot;
pub mod shard;
pub mod static_graph;
pub mod trainer;

pub use api::{evaluate, evaluate_with_phase, EvalContext, Phase, TkgModel, TrainOptions};
pub use checkpoint::{CheckpointPolicy, RollbackEvent, TrainCheckpoint, TrainError};
pub use config::{ContrastStrategy, LogClConfig};
pub use diagnostics::{evaluate_detailed, DetailedReport};
pub use local_encoder::{EncoderState, EncoderStateRecord};
pub use model::LogCl;
pub use predict::{
    predict_topk, predict_topk_stream, topk_from_scores, topk_in_range, validate_query,
    PredictError, Prediction,
};
pub use serving_snapshot::{DedupEntry, ModelParamSnapshot, ServingSnapshot};
pub use shard::{
    merge_topk, rank_order, shard_topk, top_k_by, ScoredEntity, ShardError, ShardSpec, SoftmaxStat,
};
pub use trainer::{
    evaluate_online, online_adapt, OnlineAdaptOptions, OnlineAdaptReport, TrainReport,
};
