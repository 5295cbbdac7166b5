//! Deterministic fault injection at the router's network boundaries
//! (chaos testing across the process split).
//!
//! This module only exists under the `fault-inject` cargo feature; the
//! audited call sites in `router.rs` are each wrapped in
//! `#[cfg(feature = "fault-inject")]`. The compiler holds the gate: an
//! ungated hook names a module a default build does not have, and the
//! `compile_error!` below fails a build that compiles this file without
//! the feature — default release builds contain none of this code.
//!
//! It extends the serve stack's in-process [`FaultPlan`] idiom
//! (`logcl_serve::fault`) across the router/worker boundary: the faults
//! here simulate what a kill -9'd, partitioned, or stalled *worker process*
//! looks like from the router's side of the wire.

#[cfg(not(feature = "fault-inject"))]
compile_error!("`fault` is for `fault-inject` builds only: gate `mod fault;` with that feature");

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use logcl_tensor::rng::splitmix64;

/// Audited boundaries where a router fault can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// Outbound connects to one shard fail as refused.
    ConnectRefuse,
    /// Outbound hops to one shard are held back before the request is
    /// written. The hold delays that shard's hop only: the router writes the
    /// other shards' hops meanwhile and reads their replies after it.
    ShardStall,
    /// Active health probes are blackholed (fail without reaching the wire).
    ProbeBlackhole,
}

/// A seeded, fully deterministic schedule of injected router faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed for stall jitter; two runs with the same seed and traffic fire
    /// identical faults.
    pub seed: u64,
    /// Refuse every outbound connect to this shard index (simulates a
    /// worker whose port is gone — the kill -9 signature).
    pub connect_refuse_shard: Option<usize>,
    /// Hold back outbound hops to this shard (simulates a live-but-wedged
    /// worker that accepts and then goes quiet); only this shard's hop
    /// waits, never the other shards' hops of the same scatter.
    pub stall_shard: Option<usize>,
    /// Base stall duration for [`FaultPlan::stall_shard`], jittered 1–3×.
    pub stall: Option<Duration>,
    /// Blackhole active health probes: the prober's `GET /healthz` fails
    /// without touching the network, so passive traffic is the only
    /// recovery signal.
    pub probe_blackhole: bool,
}

struct Counters {
    connect_refuse: AtomicU64,
    shard_stall: AtomicU64,
    probe_blackhole: AtomicU64,
}

static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);
static FIRED: Counters = Counters {
    connect_refuse: AtomicU64::new(0),
    shard_stall: AtomicU64::new(0),
    probe_blackhole: AtomicU64::new(0),
};

fn counter(point: FaultPoint) -> &'static AtomicU64 {
    match point {
        FaultPoint::ConnectRefuse => &FIRED.connect_refuse,
        FaultPoint::ShardStall => &FIRED.shard_stall,
        FaultPoint::ProbeBlackhole => &FIRED.probe_blackhole,
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
        &FIRED.connect_refuse,
        &FIRED.shard_stall,
        &FIRED.probe_blackhole,
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

/// Whether an outbound connect to `shard` should fail as refused.
pub fn connect_refused(shard: usize) -> bool {
    with_plan(|p| {
        if p.connect_refuse_shard != Some(shard) {
            return None;
        }
        counter(FaultPoint::ConnectRefuse).fetch_add(1, Ordering::AcqRel);
        Some(())
    })
    .is_some()
}

/// Stall to inject before the `n`-th outbound hop to `shard`, if any
/// (jittered deterministically 1–3× the base).
pub fn shard_stall(shard: usize, n: u64) -> Option<Duration> {
    with_plan(|p| {
        if p.stall_shard != Some(shard) {
            return None;
        }
        let base = p.stall?;
        counter(FaultPoint::ShardStall).fetch_add(1, Ordering::AcqRel);
        let factor = 1 + (splitmix64(p.seed, n) % 3) as u32;
        Some(base * factor)
    })
}

/// Whether active health probes are blackholed right now.
pub fn probe_blackholed() -> bool {
    with_plan(|p| {
        if !p.probe_blackhole {
            return None;
        }
        counter(FaultPoint::ProbeBlackhole).fetch_add(1, Ordering::AcqRel);
        Some(())
    })
    .is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plan is process-global: tests serialise on a mutex so cargo's
    /// parallel test threads cannot stomp each other.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn faults_target_their_shard_only() {
        let _guard = serial();
        install(FaultPlan {
            connect_refuse_shard: Some(1),
            stall_shard: Some(2),
            stall: Some(Duration::from_millis(10)),
            ..FaultPlan::default()
        });
        assert!(!connect_refused(0));
        assert!(connect_refused(1));
        assert!(shard_stall(0, 0).is_none());
        let d = shard_stall(2, 0).unwrap();
        assert!(d >= Duration::from_millis(10) && d <= Duration::from_millis(30));
        assert_eq!(fired(FaultPoint::ConnectRefuse), 1);
        assert_eq!(fired(FaultPoint::ShardStall), 1);
        clear();
        assert!(!connect_refused(1) && shard_stall(2, 0).is_none());
    }

    #[test]
    fn probe_blackhole_is_global_and_deterministic() {
        let _guard = serial();
        install(FaultPlan {
            probe_blackhole: true,
            ..FaultPlan::default()
        });
        assert!(probe_blackholed());
        assert!(probe_blackholed());
        assert_eq!(fired(FaultPoint::ProbeBlackhole), 2);
        clear();
        assert!(!probe_blackholed());
    }

    #[test]
    fn stall_jitter_replays_for_a_fixed_seed() {
        let _guard = serial();
        let schedule = |seed: u64| -> Vec<Option<Duration>> {
            install(FaultPlan {
                seed,
                stall_shard: Some(0),
                stall: Some(Duration::from_millis(5)),
                ..FaultPlan::default()
            });
            (0..16).map(|n| shard_stall(0, n)).collect()
        };
        let a = schedule(9);
        let b = schedule(9);
        assert_eq!(a, b, "same seed must replay identically");
        clear();
    }
}
