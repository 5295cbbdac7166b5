//! Typed startup errors for the serving stack.
//!
//! [`StartError`] is the serve crate's boundary error: everything that can
//! go wrong between [`crate::Server::start`] and the first accepted
//! connection maps onto one of its variants, preserving the typed causes
//! ([`CheckpointError`], [`TrainError`], [`std::io::Error`]) instead of
//! flattening them into strings at the crate boundary.

use crate::wal::WalError;
use logcl_core::TrainError;
use logcl_tensor::serialize::CheckpointError;

/// Why the server (or its model registry) failed to start.
#[derive(Debug)]
pub enum StartError {
    /// The registry was given no model specs.
    NoModels,
    /// A model's checkpoint failed metadata validation or restoration.
    Checkpoint {
        /// The registry key of the offending model spec.
        model: String,
        /// The underlying checkpoint failure.
        source: CheckpointError,
    },
    /// Startup (train-from-scratch) training for a model failed.
    Train {
        /// The registry key of the offending model spec.
        model: String,
        /// The underlying training failure.
        source: TrainError,
    },
    /// Binding, configuring, or spawning server infrastructure failed.
    Io {
        /// What was being attempted (e.g. `"bind 127.0.0.1:7878"`).
        context: String,
        /// The underlying I/O failure.
        source: std::io::Error,
    },
    /// A model's config adds input noise: its answer would depend on the
    /// RNG of whichever connection thread computed it.
    NoisyModel {
        /// The registry key of the offending model spec.
        model: String,
    },
    /// The model worker thread died before reporting readiness.
    WorkerDied,
    /// The write-ahead log could not be opened or replayed at startup.
    Wal {
        /// What recovery was doing (e.g. `"opening the ingest WAL"`).
        context: String,
        /// The underlying WAL failure.
        source: WalError,
    },
    /// Recovered durable state contradicts the configured base state
    /// (snapshot/WAL refers to unknown models, out-of-range facts, or a
    /// changed base dataset). Fail-closed: refuse to serve rather than
    /// silently drop acknowledged ingests.
    Recovery {
        /// What was inconsistent.
        context: String,
    },
}

impl std::fmt::Display for StartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StartError::NoModels => write!(f, "registry needs at least one model spec"),
            StartError::Checkpoint { model, source } => write!(f, "model {model:?}: {source}"),
            StartError::Train { model, source } => {
                write!(f, "model {model:?}: training failed: {source}")
            }
            StartError::Io { context, source } => write!(f, "{context}: {source}"),
            StartError::NoisyModel { model } => {
                write!(f, "model {model:?}: serving needs clean input noise")
            }
            StartError::WorkerDied => write!(f, "model worker died during startup"),
            StartError::Wal { context, source } => write!(f, "{context}: {source}"),
            StartError::Recovery { context } => {
                write!(f, "durable state is inconsistent with the base: {context}")
            }
        }
    }
}

impl std::error::Error for StartError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StartError::Checkpoint { source, .. } => Some(source),
            StartError::Train { source, .. } => Some(source),
            StartError::Io { source, .. } => Some(source),
            StartError::Wal { source, .. } => Some(source),
            StartError::NoModels | StartError::WorkerDied | StartError::Recovery { .. } => None,
            StartError::NoisyModel { .. } => None,
        }
    }
}
