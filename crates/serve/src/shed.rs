//! Overload resilience: the degradation-tier state machine and the
//! queue-delay admission signal.
//!
//! LogCL inference cost is history-dependent (local recurrence over `m`
//! snapshots plus a query-dependent global two-hop subgraph, Eq. 9–14), so
//! per-request cost varies widely and a binary "queue full" signal sheds
//! far too late. This module implements CoDel-style control instead: the
//! batcher observes the *sojourn time* of every work item — enqueue to the
//! moment it leaves the queue for a batch (or is shed as expired), the time
//! it spent set aside behind another key's batch included — and a
//! three-tier state machine reacts long before the queue hits its capacity
//! bound:
//!
//! * **Normal** — full fidelity.
//! * **Brownout** — predict requests are still admitted, but answered
//!   degraded: the effective top-k is capped and (when the model has a
//!   local encoder) the per-query global encoding is skipped, so the
//!   cached snapshot encoding alone answers the query
//!   ([`crate::registry`]). That encoding was 0.87–0.94 of a forward while
//!   it swept all `|E|` rows; over the query subgraph's own rows (PR 15) it
//!   is ≈0.2 of one at |E| = 4 000 and ≈0.5 at |E| = 1 000, ≈0.15–0.3 ms
//!   either way. Every response names the tier in an
//!   `X-LogCL-Degradation` header.
//! * **Shed** — incoming `/predict` is answered `503` + `Retry-After`
//!   without being queued, for as long as a backlog exists (or the worker
//!   is gone). Once the queue drains, probe requests are admitted even at
//!   stored-tier Shed — their sojourn observations are what drives the
//!   recovery streak. `/healthz` and `/metrics` are **never** shed.
//!
//! Escalation is immediate (one bad observation is enough — by the time
//! sojourn crosses a threshold the queue is already old); recovery steps
//! down one tier at a time after [`OverloadPolicy::recovery_streak`]
//! consecutive healthy observations, so the tier cannot flap on a single
//! quiet dequeue and provably returns to Normal within
//! `2 × recovery_streak` requests once load clears.
//!
//! The state is written by the single batcher thread (observations) and
//! read by handler threads (admission), so plain atomic loads/stores
//! suffice — there is no read-modify-write race on the tier.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::metrics::Metrics;

/// Sentinel for "the queue is (as far as we know) empty".
const EMPTY: u64 = u64::MAX;

/// Degradation tier, in escalation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Full fidelity.
    Normal = 0,
    /// Degraded answers: capped top-k, local-only decoding.
    Brownout = 1,
    /// Incoming `/predict` is answered `503` without queueing.
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

/// Thresholds and degradation knobs driving the state machine
/// (defaults mirror [`crate::ServeConfig`]).
#[derive(Debug, Clone)]
pub struct OverloadPolicy {
    /// Sojourn at or above this escalates to at least Brownout.
    pub brownout_sojourn: Duration,
    /// Sojourn at or above this escalates to Shed.
    pub shed_sojourn: Duration,
    /// Consecutive healthy observations required to step *down* one tier.
    pub recovery_streak: u32,
    /// Compute utilisation (pool threads busy per wall-second) at or above
    /// this escalates to at least Brownout; `0.0` disables the signal.
    pub brownout_utilisation: f64,
    /// Effective top-k cap applied to predict requests in Brownout.
    pub brownout_k_cap: usize,
    /// Skip the global encoder (decode local-only, Eq. 18–19 with the
    /// λ-mixture collapsed to its local term) in Brownout. Saves ≈0.15–0.3 ms
    /// of a forward (module header); what it mostly decides is whether the
    /// reply is counted `degraded`.
    pub brownout_skip_global: bool,
    /// Concurrent in-flight `/predict` requests admitted.
    pub max_inflight_predict: usize,
    /// Concurrent in-flight `/ingest` requests admitted.
    pub max_inflight_ingest: usize,
}

impl Default for OverloadPolicy {
    fn default() -> Self {
        Self {
            brownout_sojourn: Duration::from_millis(50),
            shed_sojourn: Duration::from_millis(250),
            recovery_streak: 3,
            brownout_utilisation: 0.0,
            brownout_k_cap: 3,
            brownout_skip_global: true,
            max_inflight_predict: 256,
            max_inflight_ingest: 32,
        }
    }
}

/// Shared overload state: tier, queue-age signal, worker health, and the
/// per-endpoint in-flight counters.
pub struct OverloadState {
    policy: OverloadPolicy,
    /// Epoch for the micros-since-start encoding of enqueue times.
    t0: Instant,
    tier: AtomicU8,
    healthy_streak: AtomicU32,
    /// Lowered when the batcher exits or its channel disconnects while the
    /// server is still answering — the strongest possible shed signal.
    worker_healthy: AtomicBool,
    queue_depth: AtomicUsize,
    /// Enqueue time (micros since `t0`) of (approximately) the oldest item
    /// still queued; [`EMPTY`] when the queue was last seen empty. An
    /// *under*-estimate of queue age is impossible by construction: the
    /// value only moves forward when the batcher actually dequeues.
    head_enqueued_micros: AtomicU64,
    inflight_predict: AtomicUsize,
    inflight_ingest: AtomicUsize,
    metrics: Arc<Metrics>,
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

impl OverloadState {
    /// A fresh state at tier Normal.
    pub fn new(policy: OverloadPolicy, metrics: Arc<Metrics>) -> Self {
        Self {
            policy,
            t0: Instant::now(),
            tier: AtomicU8::new(Tier::Normal as u8),
            healthy_streak: AtomicU32::new(0),
            worker_healthy: AtomicBool::new(true),
            queue_depth: AtomicUsize::new(0),
            head_enqueued_micros: AtomicU64::new(EMPTY),
            inflight_predict: AtomicUsize::new(0),
            inflight_ingest: AtomicUsize::new(0),
            metrics,
        }
    }

    /// The policy this state was built with (read by the registry for the
    /// Brownout degradation knobs).
    pub fn policy(&self) -> &OverloadPolicy {
        &self.policy
    }

    fn micros(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_micros() as u64
    }

    /// Records one item entering the work queue. Must be called *before*
    /// the send that makes the item visible to the batcher — otherwise the
    /// dequeue accounting can run first and leave a permanently stale head
    /// anchor (an empty queue that reads as ever-growing age). A send that
    /// then fails must be rolled back with [`Self::note_send_failed`].
    pub fn note_enqueued(&self, at: Instant) {
        self.queue_depth.fetch_add(1, Ordering::AcqRel);
        // Only claim the head slot when the queue was believed empty —
        // otherwise an older item already anchors the age signal.
        let _ = self.head_enqueued_micros.compare_exchange(
            EMPTY,
            self.micros(at),
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Rolls back a [`Self::note_enqueued`] whose send failed (queue full
    /// or disconnected): the item never became visible to the batcher. The
    /// head anchor may transiently keep the failed item's timestamp when
    /// other work is queued — a conservative over-estimate of queue age
    /// that the next real dequeue corrects.
    pub fn note_send_failed(&self) {
        let depth = self
            .queue_depth
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |d| {
                Some(d.saturating_sub(1))
            })
            .unwrap_or(1)
            .saturating_sub(1);
        if depth == 0 {
            self.head_enqueued_micros.store(EMPTY, Ordering::Release);
        }
    }

    /// Records the oldest queued item leaving the work queue *for work* — it
    /// joins a batch or is shed as expired; an item the batcher only sets
    /// aside for a later batch is still queued. Feeds the sojourn signal
    /// into the state machine and returns the observed sojourn. Called by
    /// the batcher thread only.
    pub fn note_dequeued(&self, enqueued_at: Instant, now: Instant) -> Duration {
        self.dequeue(enqueued_at, now, true)
    }

    /// [`Self::note_dequeued`] for an item taken past older ones that stay
    /// queued (a same-key job absorbed into an open batch from behind
    /// another key's): the age anchor stays on the older item.
    pub fn note_dequeued_past_older(&self, enqueued_at: Instant, now: Instant) -> Duration {
        self.dequeue(enqueued_at, now, false)
    }

    fn dequeue(&self, enqueued_at: Instant, now: Instant, oldest: bool) -> Duration {
        let depth = self
            .queue_depth
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |d| {
                Some(d.saturating_sub(1))
            })
            .unwrap_or(1)
            .saturating_sub(1);
        if depth == 0 {
            self.head_enqueued_micros.store(EMPTY, Ordering::Release);
        } else if oldest {
            // Anything still queued arrived at or after this item: advance
            // the age anchor to the dequeued item's enqueue time (a slight
            // over-estimate of the head's age — conservative by design).
            self.head_enqueued_micros
                .store(self.micros(enqueued_at), Ordering::Release);
        }
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

    /// Feeds one compute-utilisation observation (pool threads busy per
    /// wall-second over a batch) into the state machine. A no-op when the
    /// utilisation signal is disabled (`brownout_utilisation == 0`).
    pub fn observe_utilisation(&self, util: f64) {
        if self.policy.brownout_utilisation <= 0.0 {
            return;
        }
        let target = if util >= self.policy.brownout_utilisation {
            Tier::Brownout
        } else {
            Tier::Normal
        };
        self.observe_target(target);
    }

    /// The transition function: escalate immediately, recover one tier per
    /// `recovery_streak` consecutive healthy observations. Single-writer
    /// (the batcher thread).
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

    /// Age of the oldest queued work (zero when the queue is empty) — the
    /// instantaneous admission signal, valid even when the batcher is
    /// wedged in a long batch and produces no fresh observations.
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
    /// refuses only while there is an actual backlog (or the worker is
    /// gone): once the queue drains, probe requests are admitted even at
    /// stored-tier Shed — their healthy sojourn observations are the only
    /// signal that can drive the recovery streak, so a hard refusal would
    /// otherwise wedge the server at Shed forever.
    pub fn should_shed_predict(&self, now: Instant) -> bool {
        if !self.worker_healthy.load(Ordering::Acquire) {
            return true;
        }
        self.tier(now) == Tier::Shed && self.queue_depth.load(Ordering::Acquire) > 0
    }

    /// Items enqueued and not yet taken for work, set-aside ones included.
    #[cfg(test)]
    pub(crate) fn queue_depth(&self) -> usize {
        self.queue_depth.load(Ordering::Acquire)
    }

    /// Marks the model worker unhealthy (batcher exit, channel disconnect,
    /// injected death). The tier reads as Shed from now on.
    pub fn mark_worker_unhealthy(&self) {
        self.worker_healthy.store(false, Ordering::Release);
        self.metrics
            .degradation_tier
            .store(Tier::Shed as u64, Ordering::Relaxed);
    }

    /// Whether the model worker is still believed healthy.
    pub fn worker_healthy(&self) -> bool {
        self.worker_healthy.load(Ordering::Acquire)
    }

    /// Admits one `/predict` under the concurrency cap, or refuses.
    pub fn try_acquire_predict(&self) -> Option<InflightGuard<'_>> {
        Self::acquire(&self.inflight_predict, self.policy.max_inflight_predict)
    }

    /// Admits one `/ingest` under the concurrency cap, or refuses.
    pub fn try_acquire_ingest(&self) -> Option<InflightGuard<'_>> {
        Self::acquire(&self.inflight_ingest, self.policy.max_inflight_ingest)
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
        let sojourn = s.note_dequeued(t, t + Duration::from_millis(300));
        assert_eq!(sojourn, Duration::from_millis(300));
        assert_eq!(s.tier(t), Tier::Shed);
        // 100ms sojourns are in the brownout band: they hold Shed back
        // from recovering only until the streak of sub-brownout ones.
        for _ in 0..6 {
            s.note_dequeued(t, t + Duration::from_millis(1));
        }
        assert_eq!(s.tier(t), Tier::Normal);
    }

    #[test]
    fn queue_wait_tracks_oldest_enqueue_and_escalates_admission() {
        let s = state(policy());
        let t = Instant::now();
        assert_eq!(s.queue_wait(t), Duration::ZERO);
        s.note_enqueued(t);
        // A later enqueue does not move the head anchor.
        s.note_enqueued(t + Duration::from_millis(10));
        let wait = s.queue_wait(t + Duration::from_millis(300));
        assert!(wait >= Duration::from_millis(299), "{wait:?}");
        // Stored tier is still Normal (no dequeues), yet admission sees
        // Shed through the instantaneous signal.
        assert_eq!(s.tier(t + Duration::from_millis(300)), Tier::Shed);
        // Draining both items empties the signal.
        s.note_dequeued(t, t + Duration::from_millis(301));
        s.note_dequeued(
            t + Duration::from_millis(10),
            t + Duration::from_millis(301),
        );
        assert_eq!(s.queue_wait(t + Duration::from_millis(302)), Duration::ZERO);
    }

    #[test]
    fn a_take_past_an_older_item_leaves_the_anchor_on_it() {
        let s = state(policy());
        let t = Instant::now();
        s.note_enqueued(t);
        s.note_enqueued(t + Duration::from_millis(200));
        s.note_enqueued(t + Duration::from_millis(250));
        // The 250 ms item joins an open batch from behind the other two:
        // the queue is still as old as its oldest member.
        let later = t + Duration::from_millis(300);
        s.note_dequeued_past_older(t + Duration::from_millis(250), later);
        assert!(s.queue_wait(later) >= Duration::from_millis(299));
        assert_eq!(s.tier(later), Tier::Shed);
        // Taking the oldest moves the anchor on; taking the last empties it.
        s.note_dequeued(t, later);
        assert!(s.queue_wait(later) <= Duration::from_millis(300));
        s.note_dequeued(t + Duration::from_millis(200), later);
        assert_eq!(s.queue_wait(later), Duration::ZERO);
        assert_eq!(s.queue_depth(), 0);
    }

    #[test]
    fn failed_send_rolls_back_the_queue_age_anchor() {
        let s = state(policy());
        let t = Instant::now();
        s.note_enqueued(t);
        s.note_send_failed();
        assert_eq!(
            s.queue_wait(t + Duration::from_secs(5)),
            Duration::ZERO,
            "a rolled-back enqueue must not read as queue age"
        );
        assert_eq!(s.tier(t + Duration::from_secs(5)), Tier::Normal);
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
    fn shed_admits_probes_once_the_backlog_drains() {
        let s = state(policy());
        let t = Instant::now();
        // A 300ms sojourn pins the stored tier at Shed…
        s.note_dequeued(t, t + Duration::from_millis(300));
        assert_eq!(s.tier(t), Tier::Shed);
        // …but with an empty queue, predicts are admitted as probes: the
        // resulting observations are the only path back to Normal.
        assert!(!s.should_shed_predict(t));
        // While a backlog exists, Shed refuses.
        s.note_enqueued(t);
        assert!(s.should_shed_predict(t));
        s.note_dequeued(t, t + Duration::from_millis(1));
        assert!(!s.should_shed_predict(t));
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

    #[test]
    fn utilisation_signal_escalates_only_when_enabled() {
        let off = state(policy());
        off.observe_utilisation(100.0);
        assert_eq!(off.tier(Instant::now()), Tier::Normal);
        let on = state(OverloadPolicy {
            brownout_utilisation: 2.0,
            ..policy()
        });
        on.observe_utilisation(2.5);
        assert_eq!(on.tier(Instant::now()), Tier::Brownout);
    }
}
