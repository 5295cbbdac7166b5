//! Deterministic fault injection for the serve stack (chaos testing).
//!
//! This module only exists under the `fault-inject` cargo feature; the
//! audited call sites in `server.rs`, `batcher.rs`, `listener.rs`,
//! `registry.rs` and `wal.rs` are each wrapped in
//! `#[cfg(feature = "fault-inject")]`. The compiler holds the gate: an
//! ungated hook names a module a default build does not have, and the
//! `compile_error!` below fails a build that compiles this file without
//! the feature — default release builds contain none of this code.
//!
//! Faults are scheduled deterministically: a [`FaultPlan`] is installed
//! once per test, decisions are pure functions of the plan's seed and a
//! monotone call counter (no wall-clock randomness, consistent with the
//! determinism rules), so a chaos run replays bit-identically for a fixed
//! seed.

#[cfg(not(feature = "fault-inject"))]
compile_error!("`fault` is for `fault-inject` builds only: gate `mod fault;` with that feature");

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use logcl_tensor::rng::splitmix64;

/// Audited boundaries where a fault can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// Artificial delay in a predict holding its compute permit, after it
    /// found (or inserted) its encoding's cache slot, before the encode and
    /// forward.
    ComputeDelay,
    /// Checkpoint restore fails during registry build (startup).
    CheckpointRead,
    /// The model thread exits as if it died.
    BatcherDeath,
    /// A queue reports saturation: the ingest channel on submit, the
    /// compute-permit queue when a predict asks for a permit.
    QueueSaturate,
    /// The connection handler stalls before reading the request.
    SocketStall,
    /// Appending a frame to the write-ahead log fails with an I/O error.
    WalAppend,
    /// The group-commit `fsync` of the write-ahead log fails.
    WalFsync,
}

/// A seeded, fully deterministic schedule of injected faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed for the per-forward delay jitter; two runs with the same seed
    /// and traffic fire identical faults.
    pub seed: u64,
    /// Base compute delay a predict holds its compute permit (and its cache
    /// slot) for.
    pub compute_delay: Option<Duration>,
    /// Inject the compute delay only into the first N predicts granted a
    /// permit (`None` = every one while the plan is installed).
    pub compute_delay_batches: Option<u64>,
    /// Fail checkpoint reads during `Registry::build`.
    pub checkpoint_read_error: bool,
    /// The model thread dies before applying ingest run N (0-based).
    pub batcher_death_at_batch: Option<u64>,
    /// Ingest submits and predict admissions see a full queue.
    pub queue_saturated: bool,
    /// Connection handlers stall this long before reading the request
    /// (simulates a slow/stalled client socket holding a handler thread).
    pub socket_stall: Option<Duration>,
    /// The Nth (0-based) WAL frame append fails with an injected I/O error
    /// (`None` = appends never fail).
    pub wal_append_error_at: Option<u64>,
    /// The Nth (0-based) WAL group-commit fsync fails with an injected I/O
    /// error (`None` = fsyncs never fail).
    pub wal_fsync_error_at: Option<u64>,
}

struct Counters {
    compute_delay: AtomicU64,
    checkpoint_read: AtomicU64,
    batcher_death: AtomicU64,
    queue_saturate: AtomicU64,
    socket_stall: AtomicU64,
    wal_append: AtomicU64,
    wal_fsync: AtomicU64,
}

static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);
/// Predicts granted a compute permit since `install`: the index
/// [`compute_delay`] schedules by.
static COMPUTES: AtomicU64 = AtomicU64::new(0);
static FIRED: Counters = Counters {
    compute_delay: AtomicU64::new(0),
    checkpoint_read: AtomicU64::new(0),
    batcher_death: AtomicU64::new(0),
    queue_saturate: AtomicU64::new(0),
    socket_stall: AtomicU64::new(0),
    wal_append: AtomicU64::new(0),
    wal_fsync: AtomicU64::new(0),
};

fn counter(point: FaultPoint) -> &'static AtomicU64 {
    match point {
        FaultPoint::ComputeDelay => &FIRED.compute_delay,
        FaultPoint::CheckpointRead => &FIRED.checkpoint_read,
        FaultPoint::BatcherDeath => &FIRED.batcher_death,
        FaultPoint::QueueSaturate => &FIRED.queue_saturate,
        FaultPoint::SocketStall => &FIRED.socket_stall,
        FaultPoint::WalAppend => &FIRED.wal_append,
        FaultPoint::WalFsync => &FIRED.wal_fsync,
    }
}

fn with_plan<T>(f: impl FnOnce(&FaultPlan) -> Option<T>) -> Option<T> {
    let guard = PLAN.lock().unwrap_or_else(|e| e.into_inner());
    guard.as_ref().and_then(f)
}

/// Installs a plan (replacing any previous one) and resets fire counters.
pub fn install(plan: FaultPlan) {
    let mut guard = PLAN.lock().unwrap_or_else(|e| e.into_inner());
    for c in [
        &FIRED.compute_delay,
        &FIRED.checkpoint_read,
        &FIRED.batcher_death,
        &FIRED.queue_saturate,
        &FIRED.socket_stall,
        &FIRED.wal_append,
        &FIRED.wal_fsync,
        &COMPUTES,
    ] {
        c.store(0, Ordering::Release);
    }
    *guard = Some(plan);
}

/// Removes the installed plan; all hooks become no-ops again.
pub fn clear() {
    let mut guard = PLAN.lock().unwrap_or_else(|e| e.into_inner());
    *guard = None;
}

/// How many times the given fault point has fired since `install`.
pub fn fired(point: FaultPoint) -> u64 {
    counter(point).load(Ordering::Acquire)
}

/// Delay to inject into the next predict granted a compute permit, if any.
/// Jittered deterministically from the seed and that predict's index since
/// `install`: 1–3 × the base delay.
pub fn compute_delay() -> Option<Duration> {
    let batch_idx = COMPUTES.fetch_add(1, Ordering::AcqRel);
    with_plan(|p| {
        let base = p.compute_delay?;
        if let Some(n) = p.compute_delay_batches {
            if batch_idx >= n {
                return None;
            }
        }
        counter(FaultPoint::ComputeDelay).fetch_add(1, Ordering::AcqRel);
        let factor = 1 + (splitmix64(p.seed, batch_idx) % 3) as u32;
        Some(base * factor)
    })
}

/// Whether checkpoint restore should fail at this point of registry build.
pub fn checkpoint_read_error() -> bool {
    with_plan(|p| {
        if !p.checkpoint_read_error {
            return None;
        }
        counter(FaultPoint::CheckpointRead).fetch_add(1, Ordering::AcqRel);
        Some(())
    })
    .is_some()
}

/// Whether the model thread should die before applying ingest run
/// `batch_idx`.
pub fn batcher_dies(batch_idx: u64) -> bool {
    with_plan(|p| {
        let at = p.batcher_death_at_batch?;
        if batch_idx < at {
            return None;
        }
        counter(FaultPoint::BatcherDeath).fetch_add(1, Ordering::AcqRel);
        Some(())
    })
    .is_some()
}

/// Whether an ingest submit or a predict's admission sees a full queue.
pub fn queue_saturated() -> bool {
    with_plan(|p| {
        if !p.queue_saturated {
            return None;
        }
        counter(FaultPoint::QueueSaturate).fetch_add(1, Ordering::AcqRel);
        Some(())
    })
    .is_some()
}

/// Whether the `n`-th (0-based) WAL frame append should fail. One-shot at
/// exactly `n`: the retry after the failed ack must be able to succeed, so
/// chaos tests can assert exactly-once application across a durability error.
pub fn wal_append_fails(n: u64) -> bool {
    with_plan(|p| {
        let at = p.wal_append_error_at?;
        if n != at {
            return None;
        }
        counter(FaultPoint::WalAppend).fetch_add(1, Ordering::AcqRel);
        Some(())
    })
    .is_some()
}

/// Whether the `n`-th (0-based) WAL group-commit fsync should fail.
/// One-shot at exactly `n`, mirroring [`wal_append_fails`].
pub fn wal_fsync_fails(n: u64) -> bool {
    with_plan(|p| {
        let at = p.wal_fsync_error_at?;
        if n != at {
            return None;
        }
        counter(FaultPoint::WalFsync).fetch_add(1, Ordering::AcqRel);
        Some(())
    })
    .is_some()
}

/// Stall to apply before reading a request off the socket, if any.
pub fn socket_stall() -> Option<Duration> {
    with_plan(|p| {
        let d = p.socket_stall?;
        counter(FaultPoint::SocketStall).fetch_add(1, Ordering::AcqRel);
        Some(d)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plan is process-global: tests in this module serialise on a
    /// mutex so cargo's parallel test threads cannot stomp each other.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn plans_fire_deterministically_for_a_fixed_seed() {
        let _guard = serial();
        install(FaultPlan {
            seed: 7,
            compute_delay: Some(Duration::from_millis(10)),
            compute_delay_batches: Some(4),
            ..FaultPlan::default()
        });
        let first: Vec<_> = (0..6).map(|_| compute_delay()).collect();
        install(FaultPlan {
            seed: 7,
            compute_delay: Some(Duration::from_millis(10)),
            compute_delay_batches: Some(4),
            ..FaultPlan::default()
        });
        let second: Vec<_> = (0..6).map(|_| compute_delay()).collect();
        assert_eq!(first, second, "same seed must replay identically");
        assert!(first[4].is_none() && first[5].is_none());
        assert_eq!(fired(FaultPoint::ComputeDelay), 4);
        for d in first.into_iter().flatten() {
            assert!(d >= Duration::from_millis(10) && d <= Duration::from_millis(30));
        }
        clear();
        assert!(compute_delay().is_none(), "cleared plan must be inert");
    }

    #[test]
    fn different_seeds_give_different_jitter_somewhere() {
        let _guard = serial();
        let schedule = |seed: u64| -> Vec<Option<Duration>> {
            install(FaultPlan {
                seed,
                compute_delay: Some(Duration::from_millis(10)),
                ..FaultPlan::default()
            });
            (0..32).map(|_| compute_delay()).collect()
        };
        let a = schedule(1);
        let b = schedule(2);
        clear();
        assert_ne!(a, b, "32 jittered delays should differ across seeds");
    }

    #[test]
    fn point_predicates_honour_their_plan_fields() {
        let _guard = serial();
        install(FaultPlan {
            checkpoint_read_error: true,
            queue_saturated: true,
            batcher_death_at_batch: Some(2),
            socket_stall: Some(Duration::from_millis(5)),
            ..FaultPlan::default()
        });
        assert!(checkpoint_read_error());
        assert!(queue_saturated());
        assert!(!batcher_dies(0));
        assert!(!batcher_dies(1));
        assert!(batcher_dies(2));
        assert!(batcher_dies(3));
        assert_eq!(socket_stall(), Some(Duration::from_millis(5)));
        assert_eq!(fired(FaultPoint::CheckpointRead), 1);
        assert_eq!(fired(FaultPoint::BatcherDeath), 2);
        clear();
        assert!(!checkpoint_read_error() && !queue_saturated());
    }

    #[test]
    fn wal_faults_fire_exactly_once_at_their_index() {
        let _guard = serial();
        install(FaultPlan {
            wal_append_error_at: Some(1),
            wal_fsync_error_at: Some(0),
            ..FaultPlan::default()
        });
        assert!(!wal_append_fails(0));
        assert!(wal_append_fails(1));
        assert!(!wal_append_fails(2), "append fault is one-shot");
        assert!(wal_fsync_fails(0));
        assert!(!wal_fsync_fails(1), "fsync fault is one-shot");
        assert_eq!(fired(FaultPoint::WalAppend), 1);
        assert_eq!(fired(FaultPoint::WalFsync), 1);
        clear();
        assert!(!wal_append_fails(1) && !wal_fsync_fails(0));
    }
}
