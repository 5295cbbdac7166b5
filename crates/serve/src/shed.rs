//! Overload resilience: compute permits, deadline-aware shedding and the
//! degradation-tier state machine.
//!
//! A `/predict` computes under one of `available_parallelism()` *compute
//! permits* (read once), granted first come first served. The wait for a
//! permit is the queue: its depth and oldest waiter's age are the
//! instantaneous admission signal, and each request's wait — observed at
//! its grant, or when its deadline makes it leave (`504`, never computed)
//! — is the CoDel-style *sojourn*. LogCL inference cost is
//! history-dependent (local recurrence over `m` snapshots plus a
//! query-dependent global two-hop subgraph, Eq. 9–14), so a binary "queue
//! full" signal sheds far too late; three tiers react to the sojourn:
//!
//! * **Normal** — full fidelity.
//! * **Brownout** — predict requests are still admitted and answered by
//!   the full model, but the effective top-k is capped
//!   ([`OverloadPolicy::brownout_k_cap`]) and an answer the cap shortened
//!   is flagged `degraded`. The scores stay exact: a capped answer is the
//!   prefix of the Normal-tier one ([`crate::registry`]). Every response
//!   names the tier in an `X-LogCL-Degradation` header.
//! * **Shed** — incoming `/predict` is answered `503` + `Retry-After`
//!   without waiting for a permit, for as long as anyone is waiting (or the
//!   model thread is gone). Once no request waits, probe requests are
//!   admitted even at stored-tier Shed — their sojourn observations are
//!   what drives the recovery streak. `/healthz` and `/metrics` are
//!   **never** shed.
//!
//! Escalation is immediate (one bad observation is enough — by the time
//! sojourn crosses a threshold the queue is already old); recovery steps
//! down one tier at a time after [`OverloadPolicy::recovery_streak`]
//! consecutive healthy observations, so the tier cannot flap on a single
//! quiet grant and provably returns to Normal within
//! `2 × recovery_streak` requests once load clears.
//!
//! Observations are made under the permit lock; handler threads read the
//! tier and the queue signal with plain atomic loads.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::metrics::Metrics;

/// Sentinel for "the queue is (as far as we know) empty".
const EMPTY: u64 = u64::MAX;

/// Concurrent in-flight `/ingest` requests admitted.
const MAX_INFLIGHT_INGEST: usize = 32;

/// Degradation tier, in escalation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Full fidelity.
    Normal = 0,
    /// Exact answers with a capped top-k.
    Brownout = 1,
    /// Incoming `/predict` is answered `503` without waiting for a permit.
    Shed = 2,
}

impl Tier {
    /// Lower-case name, as surfaced in headers and `/healthz`.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Normal => "normal",
            Tier::Brownout => "brownout",
            Tier::Shed => "shed",
        }
    }

    fn from_u8(v: u8) -> Tier {
        match v {
            2 => Tier::Shed,
            1 => Tier::Brownout,
            _ => Tier::Normal,
        }
    }
}

/// Thresholds driving the state machine, the Brownout cap and the
/// `/predict` concurrency cap.
#[derive(Debug, Clone)]
pub struct OverloadPolicy {
    /// Sojourn at or above this escalates to at least Brownout.
    pub brownout_sojourn: Duration,
    /// Sojourn at or above this escalates to Shed.
    pub shed_sojourn: Duration,
    /// Consecutive healthy observations required to step *down* one tier.
    pub recovery_streak: u32,
    /// Effective top-k cap applied to predict requests in Brownout.
    pub brownout_k_cap: usize,
    /// Concurrent in-flight `/predict` requests admitted.
    pub max_inflight_predict: usize,
}

impl Default for OverloadPolicy {
    fn default() -> Self {
        Self {
            brownout_sojourn: Duration::from_millis(50),
            shed_sojourn: Duration::from_millis(250),
            recovery_streak: 3,
            brownout_k_cap: 3,
            max_inflight_predict: 256,
        }
    }
}

/// Shared overload state: compute permits, tier, queue-age signal, worker
/// health, and the per-endpoint in-flight counters.
pub struct OverloadState {
    policy: OverloadPolicy,
    /// Epoch for the micros-since-start encoding of enqueue times.
    t0: Instant,
    tier: AtomicU8,
    healthy_streak: AtomicU32,
    /// Lowered when the model thread exits or its channel disconnects
    /// while the server is still answering — the strongest possible shed
    /// signal.
    worker_healthy: AtomicBool,
    /// Requests waiting for a compute permit (mirrors `permits`).
    queue_depth: AtomicUsize,
    /// Enqueue time (micros since `t0`) of the oldest request waiting for a
    /// permit; [`EMPTY`] when none waits (mirrors `permits`).
    head_enqueued_micros: AtomicU64,
    /// How many forwards may run at once.
    compute_permits: usize,
    permits: Mutex<Permits>,
    /// Signalled when a permit is returned or a waiter leaves the queue.
    released: Condvar,
    inflight_predict: AtomicUsize,
    inflight_ingest: AtomicUsize,
    metrics: Arc<Metrics>,
}

/// The permits not held, and who waits for one, oldest first.
struct Permits {
    free: usize,
    waiting: VecDeque<(u64, Instant)>,
    next_ticket: u64,
}

/// RAII token for one admitted in-flight request (concurrency cap).
pub struct InflightGuard<'a> {
    counter: &'a AtomicUsize,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One forward's right to compute; returned on drop.
pub struct ComputePermit<'a> {
    state: &'a OverloadState,
}

impl Drop for ComputePermit<'_> {
    fn drop(&mut self) {
        self.state.lock_permits().free += 1;
        self.state.released.notify_all();
    }
}

impl OverloadState {
    /// A fresh state at tier Normal, with one compute permit per unit of
    /// the host's available parallelism.
    pub fn new(policy: OverloadPolicy, metrics: Arc<Metrics>) -> Self {
        let compute_permits = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            policy,
            t0: Instant::now(),
            tier: AtomicU8::new(Tier::Normal as u8),
            healthy_streak: AtomicU32::new(0),
            worker_healthy: AtomicBool::new(true),
            queue_depth: AtomicUsize::new(0),
            head_enqueued_micros: AtomicU64::new(EMPTY),
            compute_permits,
            permits: Mutex::new(Permits {
                free: compute_permits,
                waiting: VecDeque::new(),
                next_ticket: 0,
            }),
            released: Condvar::new(),
            inflight_predict: AtomicUsize::new(0),
            inflight_ingest: AtomicUsize::new(0),
            metrics,
        }
    }

    /// The policy this state was built with (read by the registry for the
    /// Brownout cap).
    pub fn policy(&self) -> &OverloadPolicy {
        &self.policy
    }

    /// How many forwards may run at once.
    pub fn compute_permits(&self) -> usize {
        self.compute_permits
    }

    fn micros(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_micros() as u64
    }

    /// Locks the permit queue, shrugging off poison: it is a counter and a
    /// list left coherent before every unlock.
    fn lock_permits(&self) -> MutexGuard<'_, Permits> {
        self.permits.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Waits, first come first served, for a compute permit. A request
    /// enqueued at `enqueued_at` whose `deadline` passes before it is
    /// granted — or at the grant — leaves without one: `Err` carries how
    /// long it waited, and the caller answers `504` before any compute.
    /// Either way the wait is observed as the request's sojourn.
    pub fn acquire_compute(
        &self,
        enqueued_at: Instant,
        deadline: Instant,
    ) -> Result<ComputePermit<'_>, Duration> {
        let mut permits = self.lock_permits();
        let ticket = permits.next_ticket;
        permits.next_ticket += 1;
        permits.waiting.push_back((ticket, enqueued_at));
        self.mirror(&permits);
        loop {
            let now = Instant::now();
            let first = permits.waiting.front().is_some_and(|&(t, _)| t == ticket);
            if (first && permits.free > 0) || now >= deadline {
                permits.waiting.retain(|&(t, _)| t != ticket);
                self.mirror(&permits);
                let waited = self.observe_sojourn(enqueued_at, now);
                if now < deadline {
                    permits.free -= 1;
                    return Ok(ComputePermit { state: self });
                }
                drop(permits);
                self.released.notify_all();
                return Err(waited);
            }
            permits = self
                .released
                .wait_timeout(permits, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    /// Publishes the queue's depth and oldest enqueue time for lock-free
    /// readers. Called with the permit lock held.
    fn mirror(&self, permits: &Permits) {
        self.queue_depth
            .store(permits.waiting.len(), Ordering::Release);
        let head = permits
            .waiting
            .front()
            .map_or(EMPTY, |&(_, at)| self.micros(at));
        self.head_enqueued_micros.store(head, Ordering::Release);
    }

    /// Feeds one request's permit wait into the state machine and returns
    /// it. Called with the permit lock held, so observations never race.
    fn observe_sojourn(&self, enqueued_at: Instant, now: Instant) -> Duration {
        let sojourn = now.saturating_duration_since(enqueued_at);
        self.metrics.queue_sojourn.observe(sojourn.as_secs_f64());
        let target = if sojourn >= self.policy.shed_sojourn {
            Tier::Shed
        } else if sojourn >= self.policy.brownout_sojourn {
            Tier::Brownout
        } else {
            Tier::Normal
        };
        self.observe_target(target);
        sojourn
    }

    /// The transition function: escalate immediately, recover one tier per
    /// `recovery_streak` consecutive healthy observations. Called with the
    /// permit lock held (one writer at a time).
    fn observe_target(&self, target: Tier) {
        let cur = Tier::from_u8(self.tier.load(Ordering::Acquire));
        let next = if target >= cur {
            self.healthy_streak.store(0, Ordering::Release);
            target
        } else {
            let streak = self.healthy_streak.fetch_add(1, Ordering::AcqRel) + 1;
            if streak >= self.policy.recovery_streak {
                self.healthy_streak.store(0, Ordering::Release);
                Tier::from_u8((cur as u8).saturating_sub(1))
            } else {
                cur
            }
        };
        self.tier.store(next as u8, Ordering::Release);
        self.metrics
            .degradation_tier
            .store(next as u64, Ordering::Relaxed);
    }

    /// How long the oldest request waiting for a compute permit has waited
    /// (zero when none waits) — the instantaneous admission signal, valid
    /// even while every permit is held by a long forward and no grant
    /// produces a fresh observation.
    pub fn queue_wait(&self, now: Instant) -> Duration {
        let head = self.head_enqueued_micros.load(Ordering::Acquire);
        if head == EMPTY {
            return Duration::ZERO;
        }
        Duration::from_micros(self.micros(now).saturating_sub(head))
    }

    /// The effective tier at `now`: the state machine's tier, escalated by
    /// the instantaneous queue age and by worker death.
    pub fn tier(&self, now: Instant) -> Tier {
        if !self.worker_healthy.load(Ordering::Acquire) {
            return Tier::Shed;
        }
        let stored = Tier::from_u8(self.tier.load(Ordering::Acquire));
        let wait = self.queue_wait(now);
        let instant = if wait >= self.policy.shed_sojourn {
            Tier::Shed
        } else if wait >= self.policy.brownout_sojourn {
            Tier::Brownout
        } else {
            Tier::Normal
        };
        stored.max(instant)
    }

    /// Whether an incoming `/predict` should be refused outright. Shed
    /// refuses only while someone waits for a permit (or the model thread
    /// is gone): once the queue drains, probe requests are admitted even at
    /// stored-tier Shed — their healthy sojourn observations are the only
    /// signal that can drive the recovery streak, so a hard refusal would
    /// otherwise wedge the server at Shed forever.
    pub fn should_shed_predict(&self, now: Instant) -> bool {
        if !self.worker_healthy.load(Ordering::Acquire) {
            return true;
        }
        self.tier(now) == Tier::Shed && self.queue_depth.load(Ordering::Acquire) > 0
    }

    /// Requests waiting for a compute permit.
    #[cfg(test)]
    pub(crate) fn queue_depth(&self) -> usize {
        self.queue_depth.load(Ordering::Acquire)
    }

    /// Marks the model thread unhealthy (its loop exited, its channel
    /// disconnected, an injected death). The tier reads as Shed from now on.
    pub fn mark_worker_unhealthy(&self) {
        self.worker_healthy.store(false, Ordering::Release);
        self.metrics
            .degradation_tier
            .store(Tier::Shed as u64, Ordering::Relaxed);
    }

    /// Whether the model thread is still believed healthy.
    pub fn worker_healthy(&self) -> bool {
        self.worker_healthy.load(Ordering::Acquire)
    }

    /// Admits one `/predict` under the concurrency cap, or refuses.
    pub fn try_acquire_predict(&self) -> Option<InflightGuard<'_>> {
        Self::acquire(&self.inflight_predict, self.policy.max_inflight_predict)
    }

    /// Admits one `/ingest` under the concurrency cap, or refuses.
    pub fn try_acquire_ingest(&self) -> Option<InflightGuard<'_>> {
        Self::acquire(&self.inflight_ingest, MAX_INFLIGHT_INGEST)
    }

    fn acquire<'a>(counter: &'a AtomicUsize, cap: usize) -> Option<InflightGuard<'a>> {
        counter
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < cap.max(1)).then_some(n + 1)
            })
            .ok()
            .map(|_| InflightGuard { counter })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(policy: OverloadPolicy) -> OverloadState {
        OverloadState::new(policy, Arc::new(Metrics::default()))
    }

    fn policy() -> OverloadPolicy {
        OverloadPolicy {
            brownout_sojourn: Duration::from_millis(50),
            shed_sojourn: Duration::from_millis(250),
            recovery_streak: 3,
            ..OverloadPolicy::default()
        }
    }

    #[test]
    fn escalates_immediately_and_recovers_after_a_streak() {
        let s = state(policy());
        let now = Instant::now();
        assert_eq!(s.tier(now), Tier::Normal);
        s.observe_target(Tier::Shed);
        assert_eq!(s.tier(now), Tier::Shed);
        // Two healthy observations are not enough to step down…
        s.observe_target(Tier::Normal);
        s.observe_target(Tier::Normal);
        assert_eq!(s.tier(now), Tier::Shed);
        // …the third steps down exactly one tier.
        s.observe_target(Tier::Normal);
        assert_eq!(s.tier(now), Tier::Brownout);
        // Three more reach Normal: bounded recovery in 2 × streak.
        for _ in 0..3 {
            s.observe_target(Tier::Normal);
        }
        assert_eq!(s.tier(now), Tier::Normal);
    }

    #[test]
    fn a_bad_observation_resets_the_recovery_streak() {
        let s = state(policy());
        s.observe_target(Tier::Brownout);
        s.observe_target(Tier::Normal);
        s.observe_target(Tier::Normal);
        s.observe_target(Tier::Brownout); // streak broken
        s.observe_target(Tier::Normal);
        s.observe_target(Tier::Normal);
        assert_eq!(s.tier(Instant::now()), Tier::Brownout);
        s.observe_target(Tier::Normal);
        assert_eq!(s.tier(Instant::now()), Tier::Normal);
    }

    #[test]
    fn sojourn_observations_drive_the_tier() {
        let s = state(policy());
        let t = Instant::now();
        // 300ms sojourn (>= shed threshold) escalates straight to Shed.
        let sojourn = s.observe_sojourn(t, t + Duration::from_millis(300));
        assert_eq!(sojourn, Duration::from_millis(300));
        assert_eq!(s.tier(t), Tier::Shed);
        // Sub-brownout sojourns walk it back down, one tier a streak.
        for _ in 0..6 {
            s.observe_sojourn(t, t + Duration::from_millis(1));
        }
        assert_eq!(s.tier(t), Tier::Normal);
    }

    /// Every permit held by the test thread, so whoever asks waits.
    fn held(s: &OverloadState) -> Vec<ComputePermit<'_>> {
        let far = Instant::now() + Duration::from_secs(60);
        (0..s.compute_permits())
            .map(|_| {
                s.acquire_compute(Instant::now(), far)
                    .expect("a free permit")
            })
            .collect()
    }

    fn wait_for_depth(s: &OverloadState, depth: usize) {
        let give_up = Instant::now() + Duration::from_secs(10);
        while s.queue_depth() != depth {
            assert!(Instant::now() < give_up, "depth never reached {depth}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn permits_go_first_come_first_served_and_the_queue_signal_is_the_oldest_waiter() {
        let s = state(OverloadPolicy {
            brownout_sojourn: Duration::from_millis(20),
            shed_sojourn: Duration::from_millis(40),
            ..policy()
        });
        let older = Instant::now();
        let mut permits = held(&s);
        std::thread::sleep(Duration::from_millis(50));
        let far = Instant::now() + Duration::from_secs(60);
        let (granted_tx, granted) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            for (name, enqueued_at) in [("a", older), ("b", Instant::now())] {
                let (state, granted_tx) = (&s, granted_tx.clone());
                scope.spawn(move || {
                    let permit = state.acquire_compute(enqueued_at, far).expect("granted");
                    granted_tx.send(name).expect("report the grant");
                    drop(permit);
                });
                wait_for_depth(&s, if name == "a" { 1 } else { 2 });
            }
            let now = Instant::now();
            assert!(s.queue_wait(now) >= Duration::from_millis(50), "a's age");
            assert_eq!(s.tier(now), Tier::Shed, "the instantaneous signal");
            assert!(s.should_shed_predict(now));
            permits.pop();
            assert_eq!(granted.recv().expect("a grant"), "a");
            assert_eq!(granted.recv().expect("a grant"), "b");
        });
        assert_eq!(s.queue_depth(), 0);
        assert_eq!(s.queue_wait(Instant::now()), Duration::ZERO);
        assert!(!s.should_shed_predict(Instant::now()));
        drop(permits);
        assert_eq!(
            held(&s).len(),
            s.compute_permits(),
            "every permit came back"
        );
    }

    #[test]
    fn a_waiter_past_its_deadline_leaves_without_a_permit() {
        let metrics = Arc::new(Metrics::default());
        let s = OverloadState::new(policy(), Arc::clone(&metrics));
        let permits = held(&s);
        let enqueued_at = Instant::now();
        let waited = s
            .acquire_compute(enqueued_at, enqueued_at + Duration::from_millis(20))
            .map(|_| ())
            .expect_err("no permit frees up in time");
        assert!(waited >= Duration::from_millis(20), "{waited:?}");
        assert_eq!(s.queue_depth(), 0);
        drop(permits);
        assert!(
            s.acquire_compute(Instant::now(), Instant::now()).is_err(),
            "a grant at or past the deadline is no grant"
        );
        assert_eq!(held(&s).len(), s.compute_permits());
        assert!(metrics.queue_sojourn.total() >= 2, "both waits observed");
    }

    #[test]
    fn shed_admits_probes_once_the_backlog_drains() {
        let s = state(policy());
        let t = Instant::now();
        // A 300ms sojourn pins the stored tier at Shed…
        s.observe_sojourn(t, t + Duration::from_millis(300));
        assert_eq!(s.tier(t), Tier::Shed);
        // …but with nobody waiting, predicts are admitted as probes: the
        // resulting observations are the only path back to Normal.
        assert!(!s.should_shed_predict(t));
        // While someone waits for a permit, Shed refuses.
        let permits = held(&s);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let far = Instant::now() + Duration::from_secs(60);
                drop(s.acquire_compute(Instant::now(), far));
            });
            wait_for_depth(&s, 1);
            assert!(s.should_shed_predict(Instant::now()));
            drop(permits);
        });
        assert!(!s.should_shed_predict(Instant::now()));
    }

    #[test]
    fn worker_death_reads_as_shed() {
        let s = state(policy());
        assert!(s.worker_healthy());
        s.mark_worker_unhealthy();
        assert_eq!(s.tier(Instant::now()), Tier::Shed);
        assert!(s.should_shed_predict(Instant::now()));
    }

    #[test]
    fn inflight_caps_enforce_and_release() {
        let s = state(OverloadPolicy {
            max_inflight_predict: 2,
            ..policy()
        });
        let a = s.try_acquire_predict();
        let b = s.try_acquire_predict();
        assert!(a.is_some() && b.is_some());
        assert!(s.try_acquire_predict().is_none(), "cap must refuse a third");
        drop(a);
        assert!(s.try_acquire_predict().is_some(), "release must reopen");
    }
}
