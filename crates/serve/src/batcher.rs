//! The micro-batcher.
//!
//! All model work funnels through one worker thread (the autograd graph is
//! `Rc`-based, so the model cannot be shared across threads — and a single
//! owner conveniently serialises weight updates against scoring). Handler
//! threads enqueue [`WorkItem`]s on a bounded channel; the worker takes the
//! oldest item, coalesces with it every `/predict` for the same
//! `(model, timestamp)` that is queued *right then*, up to a maximum batch
//! size, and computes. It never waits for company: a batch shares nothing
//! but the cached encoding and duplicate `(s, r)` pairs, so what joins is
//! what queued while the previous batch ran. Jobs for other keys met on the
//! way are set aside in arrival order and still queued; a later batch
//! absorbs the set-aside jobs for its key wherever they sit.
//!
//! Every job carries an absolute deadline. The worker re-checks it at each
//! dequeue boundary and once more immediately before compute: an expired
//! job is answered `504` with the time it already spent queued and is shed
//! *before* any model work — under overload the queue never burns compute
//! on answers nobody is waiting for. Each job's sojourn — enqueue to the
//! moment it leaves the queue *for a batch*, set-aside time included — feeds
//! the [`crate::shed`] state machine.
//!
//! On shutdown the senders are dropped; the worker drains every queued item
//! — answering each one — before it exits, so graceful shutdown never
//! abandons an accepted request.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender};
use std::time::Instant;

use logcl_core::{Prediction, ShardSpec, SoftmaxStat};

use crate::metrics::Metrics;
use crate::shed::OverloadState;

/// A scoring request travelling from a handler thread to the worker.
pub struct PredictJob {
    /// Registry model name.
    pub model: String,
    /// Subject entity id.
    pub s: usize,
    /// Relation id (inverse-closed vocabulary, `0..2|R|`).
    pub r: usize,
    /// Query timestamp — the batching key.
    pub t: usize,
    /// How many candidates to return.
    pub k: usize,
    /// Absolute deadline: at or past it the job is shed (504), not computed.
    pub deadline: Instant,
    /// When the job entered the work queue (sojourn and shed accounting).
    pub enqueued_at: Instant,
    /// Where the worker sends the answer.
    pub reply: Sender<Result<PredictOutcome, ServeError>>,
}

/// Shard provenance attached to answers served in `--shard` mode, carrying
/// everything a scatter-gather router needs to merge this worker's partial
/// answer with its peers': the entity range actually scored and the
/// shard-local softmax statistics ([`SoftmaxStat`]) for recombining global
/// probabilities.
#[derive(Debug, Clone, Copy)]
pub struct ShardDetail {
    /// Which shard of how many this worker is.
    pub spec: ShardSpec,
    /// First entity id this worker scored (inclusive).
    pub lo: usize,
    /// One past the last entity id this worker scored.
    pub hi: usize,
    /// Shard-local softmax partials over `[lo, hi)`.
    pub stat: SoftmaxStat,
}

/// A successful prediction, plus how it was served.
#[derive(Debug)]
pub struct PredictOutcome {
    /// Ranked candidates with softmax probabilities.
    pub predictions: Vec<Prediction>,
    /// How many requests the containing micro-batch coalesced.
    pub batch_size: usize,
    /// Whether the snapshot encoding came from the cache.
    pub cache_hit: bool,
    /// Whether the answer was degraded (Brownout: capped k and/or
    /// local-only decoding).
    pub degraded: bool,
    /// `Some` when this worker scored only an entity shard; the
    /// probabilities above are then shard-local, and the merge happens at
    /// the router.
    pub shard: Option<ShardDetail>,
}

/// A fact-ingestion request.
pub struct IngestJob {
    /// Registry model name to adapt online (all models see the new facts).
    pub model: String,
    /// Timestamp the facts belong to; `t == |T|` extends the horizon.
    pub t: usize,
    /// `(s, r, o)` base-direction facts.
    pub facts: Vec<(usize, usize, usize)>,
    /// Run one online adaptation step (Fig. 10) after appending.
    pub update: bool,
    /// Client-supplied idempotency key (`X-LogCL-Ingest-Id`): a duplicate
    /// within the dedup window replays the remembered outcome.
    pub ingest_id: Option<String>,
    /// Absolute deadline: at or past it the job is shed (504), not applied.
    pub deadline: Instant,
    /// When the job entered the work queue.
    pub enqueued_at: Instant,
    /// Where the worker sends the answer.
    pub reply: Sender<Result<IngestOutcome, ServeError>>,
}

/// The result of an ingestion.
#[derive(Debug, Clone)]
pub struct IngestOutcome {
    /// Facts actually appended (duplicates are dropped).
    pub appended: usize,
    /// Cached encodings invalidated across all registry models.
    pub invalidated: usize,
    /// Whether an online adaptation step ran.
    pub updated: bool,
    /// The dataset horizon `|T|` after ingestion.
    pub horizon: usize,
    /// Whether the acknowledgement is backed by an fsynced WAL frame
    /// (`false` when the server runs with durability disabled).
    pub durable: bool,
    /// Whether this was a duplicate ingest id answered from the
    /// idempotency window (nothing was re-applied).
    pub deduplicated: bool,
}

/// Anything the worker can be asked to do.
pub enum WorkItem {
    /// Score one query (the batchable kind).
    Predict(PredictJob),
    /// Append facts and optionally adapt online.
    Ingest(IngestJob),
}

impl WorkItem {
    fn enqueued_at(&self) -> Instant {
        match self {
            WorkItem::Predict(j) => j.enqueued_at,
            WorkItem::Ingest(j) => j.enqueued_at,
        }
    }

    fn deadline(&self) -> Instant {
        match self {
            WorkItem::Predict(j) => j.deadline,
            WorkItem::Ingest(j) => j.deadline,
        }
    }
}

/// An error answered to the client with the given HTTP status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// HTTP status to answer with.
    pub status: u16,
    /// Human-readable message.
    pub message: String,
}

impl ServeError {
    /// A 400.
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self {
            status: 400,
            message: message.into(),
        }
    }

    /// A 404.
    pub fn not_found(message: impl Into<String>) -> Self {
        Self {
            status: 404,
            message: message.into(),
        }
    }
}

/// What the worker loop delegates model work to (the real implementation is
/// [`crate::registry::Registry`]; tests substitute a recorder).
pub trait BatchHandler {
    /// Answers every job in `group` (all share one `(model, t)` key).
    fn handle_predict_group(&mut self, group: Vec<PredictJob>);
    /// Answers one ingestion.
    fn handle_ingest(&mut self, job: IngestJob);
    /// Answers a run of consecutive ingestions drained from the queue in
    /// one go. A durable handler applies them all and acknowledges behind a
    /// single group-commit fsync; the default just loops
    /// [`BatchHandler::handle_ingest`].
    fn handle_ingest_group(&mut self, jobs: Vec<IngestJob>) {
        for job in jobs {
            self.handle_ingest(job);
        }
    }
}

/// The 504 answered to a job shed in the queue, carrying the time it spent.
fn expired_error(enqueued_at: Instant, now: Instant) -> ServeError {
    let waited = now.saturating_duration_since(enqueued_at).as_millis();
    ServeError {
        status: 504,
        message: format!("deadline exceeded after {waited}ms in queue; shed before compute"),
    }
}

fn count_queue_shed(metrics: &Metrics) {
    metrics.shed_deadline_queue.fetch_add(1, Ordering::Relaxed);
    metrics.shed_before_compute.fetch_add(1, Ordering::Relaxed);
}

/// Answers `job` 504 without compute (its deadline has passed).
fn shed_expired_predict(job: PredictJob, now: Instant, metrics: &Metrics) {
    count_queue_shed(metrics);
    let _ = job.reply.send(Err(expired_error(job.enqueued_at, now)));
}

/// Passes a still-live item through, or answers an expired one 504 and
/// swallows it — the shed-before-compute boundary at every dequeue.
fn shed_if_expired(item: WorkItem, metrics: &Metrics) -> Option<WorkItem> {
    let now = Instant::now();
    if now < item.deadline() {
        return Some(item);
    }
    match item {
        WorkItem::Predict(job) => shed_expired_predict(job, now, metrics),
        WorkItem::Ingest(job) => {
            count_queue_shed(metrics);
            let _ = job.reply.send(Err(expired_error(job.enqueued_at, now)));
        }
    }
    None
}

/// Whether `item` belongs in the predict batch keyed `(model, t)`.
fn joins(item: &WorkItem, key: &(String, usize)) -> bool {
    matches!(item, WorkItem::Predict(j) if j.model == key.0 && j.t == key.1)
}

/// `item` leaves the queue *for work* — it joins a predict group or an
/// ingest run, or is shed here as expired (`None`). This is the one place a
/// queued item's clock stops: an item merely moved from the channel into
/// `pending` is still queued and still ageing. `oldest` is false when an
/// older item stays set aside behind the one taken.
fn leave_queue(
    item: WorkItem,
    oldest: bool,
    metrics: &Metrics,
    overload: &OverloadState,
) -> Option<WorkItem> {
    let now = Instant::now();
    if oldest {
        overload.note_dequeued(item.enqueued_at(), now);
    } else {
        overload.note_dequeued_past_older(item.enqueued_at(), now);
    }
    shed_if_expired(item, metrics)
}

/// Runs the worker loop until every sender is gone and the queue is drained.
/// `max_batch` is the hard cap on coalesced requests per batch.
pub fn run_batcher<H: BatchHandler>(
    handler: &mut H,
    rx: &Receiver<WorkItem>,
    max_batch: usize,
    metrics: &Metrics,
    overload: &OverloadState,
) {
    // Items received while another key's batch was open, in arrival order;
    // everything in the channel is younger than everything here.
    let mut pending: VecDeque<WorkItem> = VecDeque::new();
    // Index of the next predict batch to execute — the key deterministic
    // fault schedules are expressed in.
    #[cfg(feature = "fault-inject")]
    let mut fault_batches: u64 = 0;
    loop {
        let item = match pending.pop_front() {
            Some(item) => item,
            // Block for new work; a disconnect with nothing pending means
            // the server dropped its sender and every handler finished —
            // the drain is complete.
            None => match rx.recv() {
                Ok(item) => item,
                Err(_) => return,
            },
        };

        #[cfg(feature = "fault-inject")]
        {
            if crate::fault::batcher_dies(fault_batches) {
                // Simulated worker-thread death: the in-hand item is
                // dropped unanswered (its reply channel closes) and the
                // tier machine learns the worker is gone.
                overload.mark_worker_unhealthy();
                return;
            }
        }

        let item = match leave_queue(item, true, metrics, overload) {
            Some(item) => item,
            None => continue,
        };
        let first = match item {
            WorkItem::Ingest(job) => {
                // Coalesce the run of ingests already waiting behind this
                // one (set-aside queue first, then whatever is sitting in
                // the channel right now) so a durable handler can amortise
                // one group-commit fsync across all of them.
                let mut ingests = vec![job];
                while ingests.len() < max_batch {
                    let next = match pending.pop_front() {
                        Some(item) => item,
                        None => match rx.try_recv() {
                            Ok(item) => item,
                            Err(_) => break,
                        },
                    };
                    if !matches!(next, WorkItem::Ingest(_)) {
                        // The run ends here; `next` stays queued, oldest.
                        pending.push_front(next);
                        break;
                    }
                    if let Some(WorkItem::Ingest(live)) = leave_queue(next, true, metrics, overload)
                    {
                        ingests.push(live);
                    }
                }
                handler.handle_ingest_group(ingests);
                continue;
            }
            WorkItem::Predict(job) => job,
        };

        // Open a batch keyed by the first job, the oldest item queued.
        let key = (first.model.clone(), first.t);
        let mut group = vec![first];
        // Absorb matching set-aside jobs; other keys keep their order. An
        // item is taken only to join or, its deadline past, to be shed.
        let mut skipped = VecDeque::new();
        let now = Instant::now();
        while let Some(item) = pending.pop_front() {
            let wanted = group.len() < max_batch && joins(&item, &key);
            if !wanted && now < item.deadline() {
                skipped.push_back(item);
            } else if let Some(WorkItem::Predict(j)) =
                leave_queue(item, skipped.is_empty(), metrics, overload)
            {
                group.push(j);
            }
        }
        pending = skipped;
        // Then whatever the channel holds right now. An error is "empty" or
        // "every sender gone"; either way the batch is what it is, and the
        // `recv` at the top of the loop is the one place a drain ends.
        while group.len() < max_batch {
            let Ok(item) = rx.try_recv() else { break };
            if !joins(&item, &key) && Instant::now() < item.deadline() {
                pending.push_back(item);
            } else if let Some(WorkItem::Predict(j)) =
                leave_queue(item, pending.is_empty(), metrics, overload)
            {
                group.push(j);
            }
        }

        // Dequeuing took time, and `first` was checked before it began;
        // this is the last boundary before compute.
        let now = Instant::now();
        let mut live = Vec::with_capacity(group.len());
        for job in group {
            if now >= job.deadline {
                shed_expired_predict(job, now, metrics);
            } else {
                live.push(job);
            }
        }
        if live.is_empty() {
            continue;
        }
        let group = live;

        #[cfg(feature = "fault-inject")]
        {
            if let Some(delay) = crate::fault::compute_delay(fault_batches) {
                std::thread::sleep(delay);
            }
        }

        metrics.batch_size.observe(group.len() as f64);
        // Utilisation = pool busy-time accrued during the batch divided by
        // wall time: the average number of compute threads kept busy. The
        // serial backend bypasses the pool, so it reads as 0 by design.
        let busy0 = logcl_tensor::kernels::busy_nanos();
        let started = Instant::now();
        handler.handle_predict_group(group);
        let wall = started.elapsed().as_secs_f64();
        let busy = logcl_tensor::kernels::busy_nanos().saturating_sub(busy0);
        metrics
            .kernel_busy_micros
            .fetch_add(busy / 1_000, Ordering::Relaxed);
        if wall > 0.0 {
            let util = busy as f64 / 1e9 / wall;
            metrics.compute_utilisation.observe(util);
            overload.observe_utilisation(util);
        }
        #[cfg(feature = "fault-inject")]
        {
            fault_batches += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shed::OverloadPolicy;
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    /// Records group shapes and answers every job (so reply channels see a
    /// response, like the real handler guarantees).
    #[derive(Default)]
    struct Recorder {
        groups: Vec<Vec<(usize, usize, usize)>>, // (s, r, t) per job
        ingests: usize,
        ingest_groups: Vec<usize>, // coalesced run sizes
    }

    impl BatchHandler for Recorder {
        fn handle_predict_group(&mut self, group: Vec<PredictJob>) {
            self.groups
                .push(group.iter().map(|j| (j.s, j.r, j.t)).collect());
            for job in group {
                let _ = job.reply.send(Ok(PredictOutcome {
                    predictions: Vec::new(),
                    batch_size: 1,
                    cache_hit: false,
                    degraded: false,
                    shard: None,
                }));
            }
        }
        fn handle_ingest(&mut self, job: IngestJob) {
            self.ingests += 1;
            let _ = job.reply.send(Ok(IngestOutcome {
                appended: job.facts.len(),
                invalidated: 0,
                updated: job.update,
                horizon: job.t + 1,
                durable: false,
                deduplicated: false,
            }));
        }
        fn handle_ingest_group(&mut self, jobs: Vec<IngestJob>) {
            self.ingest_groups.push(jobs.len());
            for job in jobs {
                self.handle_ingest(job);
            }
        }
    }

    fn overload() -> OverloadState {
        OverloadState::new(OverloadPolicy::default(), Arc::new(Metrics::default()))
    }

    fn job(s: usize, t: usize) -> (PredictJob, Receiver<Result<PredictOutcome, ServeError>>) {
        job_with_deadline(s, t, Instant::now() + Duration::from_secs(30))
    }

    fn job_with_deadline(
        s: usize,
        t: usize,
        deadline: Instant,
    ) -> (PredictJob, Receiver<Result<PredictOutcome, ServeError>>) {
        let (reply, reply_rx) = mpsc::channel();
        (
            PredictJob {
                model: "default".into(),
                s,
                r: 0,
                t,
                k: 3,
                deadline,
                enqueued_at: Instant::now(),
                reply,
            },
            reply_rx,
        )
    }

    #[test]
    fn max_batch_cutoff_splits_queued_work() {
        let (tx, rx) = mpsc::sync_channel(64);
        let mut replies = Vec::new();
        for i in 0..10 {
            let (j, r) = job(i, 5);
            tx.send(WorkItem::Predict(j)).unwrap();
            replies.push(r);
        }
        drop(tx);
        let mut rec = Recorder::default();
        run_batcher(&mut rec, &rx, 4, &Metrics::default(), &overload());
        let sizes: Vec<usize> = rec.groups.iter().map(|g| g.len()).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
        for r in replies {
            r.recv()
                .expect("every job must be answered")
                .expect("recorder answers Ok");
        }
    }

    #[test]
    fn different_timestamps_never_share_a_batch() {
        let (tx, rx) = mpsc::sync_channel(64);
        let mut replies = Vec::new();
        for (s, t) in [(0, 7), (1, 7), (2, 9), (3, 7)] {
            let (j, r) = job(s, t);
            tx.send(WorkItem::Predict(j)).unwrap();
            replies.push(r);
        }
        drop(tx);
        let mut rec = Recorder::default();
        run_batcher(&mut rec, &rx, 32, &Metrics::default(), &overload());
        for g in &rec.groups {
            let t0 = g[0].2;
            assert!(g.iter().all(|&(_, _, t)| t == t0), "mixed batch {g:?}");
        }
        // All three t=7 jobs coalesce even though a t=9 job arrived between
        // them (it is set aside, not dropped).
        assert_eq!(rec.groups.len(), 2);
        assert_eq!(rec.groups[0].len(), 3);
        assert_eq!(rec.groups[1], vec![(2, 0, 9)]);
        for r in replies {
            r.recv().unwrap().unwrap();
        }
    }

    #[test]
    fn a_lone_job_is_answered_while_the_channel_stays_open() {
        let (tx, rx) = mpsc::sync_channel(64);
        let worker = thread::spawn(move || {
            let mut rec = Recorder::default();
            run_batcher(&mut rec, &rx, 8, &Metrics::default(), &overload());
            rec.groups
        });
        let (j, reply) = job(0, 3);
        tx.send(WorkItem::Predict(j)).unwrap();
        // The sender outlives the answer: a worker that waits for anything
        // but work — company, a hang-up — never sends it.
        reply
            .recv_timeout(Duration::from_secs(5))
            .expect("a queued job is computed without waiting for another")
            .expect("recorder answers Ok");
        drop(tx);
        assert_eq!(worker.join().unwrap(), vec![vec![(0, 0, 3)]]);
    }

    #[test]
    fn sender_dropped_mid_batch_still_answers_every_accepted_job() {
        let (tx, rx) = mpsc::sync_channel(64);
        let mut replies = Vec::new();
        for s in 0..3 {
            let (j, r) = job(s, 4);
            tx.send(WorkItem::Predict(j)).unwrap();
            replies.push(r);
        }
        drop(tx); // sender gone while the batch is still being assembled
        let mut rec = Recorder::default();
        run_batcher(&mut rec, &rx, 8, &Metrics::default(), &overload());
        assert_eq!(rec.groups, vec![vec![(0, 0, 4), (1, 0, 4), (2, 0, 4)]]);
        for r in replies {
            r.recv().unwrap().unwrap();
        }
    }

    #[test]
    fn expired_jobs_are_shed_before_compute_with_504() {
        let (tx, rx) = mpsc::sync_channel(64);
        let past = Instant::now() - Duration::from_millis(5);
        let (dead, dead_rx) = job_with_deadline(0, 2, past);
        let (live, live_rx) = job(1, 2);
        tx.send(WorkItem::Predict(dead)).unwrap();
        tx.send(WorkItem::Predict(live)).unwrap();
        let (ingest_reply, ingest_rx) = mpsc::channel();
        tx.send(WorkItem::Ingest(IngestJob {
            model: "default".into(),
            t: 9,
            facts: vec![(0, 0, 1)],
            update: false,
            ingest_id: None,
            deadline: past,
            enqueued_at: Instant::now(),
            reply: ingest_reply,
        }))
        .unwrap();
        drop(tx);
        let mut rec = Recorder::default();
        let metrics = Metrics::default();
        run_batcher(&mut rec, &rx, 32, &metrics, &overload());
        // Only the live job reached compute.
        assert_eq!(rec.groups, vec![vec![(1, 0, 2)]]);
        assert_eq!(rec.ingests, 0, "expired ingest must not apply");
        let err = dead_rx
            .recv()
            .unwrap()
            .expect_err("expired job answers Err");
        assert_eq!(err.status, 504);
        assert!(
            err.message.contains("shed before compute"),
            "{}",
            err.message
        );
        let ingest_err = ingest_rx.recv().unwrap().expect_err("expired ingest Err");
        assert_eq!(ingest_err.status, 504);
        live_rx.recv().unwrap().expect("live job answered Ok");
        assert_eq!(metrics.shed_before_compute.load(Ordering::Relaxed), 2);
        assert_eq!(metrics.shed_deadline_queue.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn shutdown_drains_every_queued_item() {
        let (tx, rx) = mpsc::sync_channel(64);
        let mut replies = Vec::new();
        for i in 0..5 {
            let (j, r) = job(i, i); // five distinct timestamps
            tx.send(WorkItem::Predict(j)).unwrap();
            replies.push(r);
        }
        let (ingest_reply, ingest_rx) = mpsc::channel();
        tx.send(WorkItem::Ingest(IngestJob {
            model: "default".into(),
            t: 9,
            facts: vec![(0, 0, 1)],
            update: false,
            ingest_id: None,
            deadline: Instant::now() + Duration::from_secs(30),
            enqueued_at: Instant::now(),
            reply: ingest_reply,
        }))
        .unwrap();
        drop(tx); // "SIGTERM": no more senders
        let mut rec = Recorder::default();
        let metrics = Metrics::default();
        run_batcher(&mut rec, &rx, 32, &metrics, &overload());
        assert_eq!(rec.groups.len(), 5, "each timestamp drained as a batch");
        assert_eq!(rec.ingests, 1);
        for r in replies {
            r.recv()
                .expect("drained job must still be answered")
                .expect("recorder answers Ok");
        }
        ingest_rx.recv().unwrap().unwrap();
        assert_eq!(metrics.batch_size.total(), 5);
    }

    #[test]
    fn consecutive_ingests_coalesce_into_one_group() {
        let (tx, rx) = mpsc::sync_channel(64);
        let mut replies = Vec::new();
        for i in 0..3 {
            let (reply, r) = mpsc::channel();
            tx.send(WorkItem::Ingest(IngestJob {
                model: "default".into(),
                t: 9 + i,
                facts: vec![(0, 0, 1)],
                update: false,
                ingest_id: None,
                deadline: Instant::now() + Duration::from_secs(30),
                enqueued_at: Instant::now(),
                reply,
            }))
            .unwrap();
            replies.push(r);
        }
        let (j, predict_rx) = job(0, 2);
        tx.send(WorkItem::Predict(j)).unwrap();
        drop(tx);
        let mut rec = Recorder::default();
        run_batcher(&mut rec, &rx, 32, &Metrics::default(), &overload());
        assert_eq!(
            rec.ingest_groups,
            vec![3],
            "queued ingests must coalesce into one group-commit run"
        );
        assert_eq!(rec.ingests, 3);
        assert_eq!(rec.groups.len(), 1, "the predict still runs on its own");
        for r in replies {
            r.recv().unwrap().unwrap();
        }
        predict_rx.recv().unwrap().unwrap();
    }

    // ------------------------------------------------ one clock per request
    //
    // The tests below build jobs with explicit `enqueued_at`s and let the
    // handler own the only sender, so `run_batcher` runs on the test's own
    // thread with the channel open for exactly as long as work remains, and
    // no assertion waits on a timer of the test's own.

    fn job_enqueued(
        s: usize,
        t: usize,
        enqueued_at: Instant,
    ) -> (PredictJob, Receiver<Result<PredictOutcome, ServeError>>) {
        let (mut j, r) = job(s, t);
        j.enqueued_at = enqueued_at;
        (j, r)
    }

    /// What `server::submit` does: count the enqueue, then send.
    fn submit(tx: &mpsc::SyncSender<WorkItem>, state: &OverloadState, job: PredictJob) {
        state.note_enqueued(job.enqueued_at);
        tx.send(WorkItem::Predict(job)).unwrap();
    }

    /// A [`Recorder`] that holds the sender and hangs up once `left` jobs
    /// are answered. Each group takes `compute`; `late` is sent into the
    /// channel while the first group computes; `waits` and `depths` are the
    /// overload state's queue age and depth as each group starts.
    struct Script<'a> {
        rec: Recorder,
        tx: Option<mpsc::SyncSender<WorkItem>>,
        left: usize,
        late: Vec<PredictJob>,
        compute: Duration,
        state: &'a OverloadState,
        waits: Vec<Duration>,
        depths: Vec<usize>,
    }

    impl<'a> Script<'a> {
        fn new(tx: mpsc::SyncSender<WorkItem>, left: usize, state: &'a OverloadState) -> Self {
            Self {
                rec: Recorder::default(),
                tx: Some(tx),
                left,
                late: Vec::new(),
                compute: Duration::ZERO,
                state,
                waits: Vec::new(),
                depths: Vec::new(),
            }
        }
    }

    impl BatchHandler for Script<'_> {
        fn handle_predict_group(&mut self, group: Vec<PredictJob>) {
            self.waits.push(self.state.queue_wait(Instant::now()));
            self.depths.push(self.state.queue_depth());
            if let Some(tx) = &self.tx {
                for job in self.late.drain(..) {
                    submit(tx, self.state, job);
                }
            }
            thread::sleep(self.compute);
            self.left -= group.len();
            self.rec.handle_predict_group(group);
            if self.left == 0 {
                self.tx = None;
            }
        }
        fn handle_ingest(&mut self, job: IngestJob) {
            self.rec.handle_ingest(job);
        }
    }

    #[test]
    fn jobs_queued_long_ago_still_batch_up_to_the_cap() {
        // A job's age decides nothing about its batch: ten same-key jobs
        // enqueued a second ago coalesce up to the cap like fresh ones.
        let (tx, rx) = mpsc::sync_channel(64);
        let enqueued_at = Instant::now() - Duration::from_secs(1);
        let mut replies = Vec::new();
        for i in 0..10 {
            let (j, r) = job_enqueued(i, 5, enqueued_at);
            tx.send(WorkItem::Predict(j)).unwrap();
            replies.push(r);
        }
        drop(tx);
        let mut rec = Recorder::default();
        run_batcher(&mut rec, &rx, 4, &Metrics::default(), &overload());
        let sizes: Vec<usize> = rec.groups.iter().map(|g| g.len()).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
        for r in replies {
            r.recv().unwrap().unwrap();
        }
    }

    #[test]
    fn batches_open_in_arrival_order_and_absorb_across_keys() {
        // Arrival order a1 b1 c1 a2 b2, 4 ms apart, all in the past (the
        // state's epoch must predate them, hence the one set-up sleep): b2
        // sits behind c1 in `pending` when b1's batch opens and is still
        // absorbed; c waits for neither a2 nor b2 to get a batch of its own.
        let state = overload();
        let step = Duration::from_millis(4);
        thread::sleep(5 * step);
        let base = Instant::now() - 5 * step;
        let (tx, rx) = mpsc::sync_channel(64);
        let mut replies = Vec::new();
        for (i, (s, t)) in [(0, 1), (1, 2), (2, 3), (3, 1), (4, 2)]
            .into_iter()
            .enumerate()
        {
            let (j, r) = job_enqueued(s, t, base + step * i as u32);
            submit(&tx, &state, j);
            replies.push(r);
        }
        let mut script = Script::new(tx, 5, &state);
        run_batcher(&mut script, &rx, 8, &Metrics::default(), &state);
        assert_eq!(
            script.rec.groups,
            vec![
                vec![(0, 0, 1), (3, 0, 1)],
                vec![(1, 0, 2), (4, 0, 2)],
                vec![(2, 0, 3)]
            ]
        );
        // a2 and b2 were taken past b1 (then 4 steps old) and c1 (3 steps):
        // the age signal stays on the oldest job still queued, not on the
        // younger one that left (2 steps and 1 step old).
        assert_eq!(script.depths, vec![3, 1, 0]);
        assert!(script.waits[0] >= 4 * step, "{:?}", script.waits);
        assert!(script.waits[1] >= 3 * step, "{:?}", script.waits);
        assert_eq!(script.waits[2], Duration::ZERO);
        for r in replies {
            r.recv().unwrap().unwrap();
        }
    }

    #[test]
    fn a_set_aside_job_still_takes_what_reached_the_channel_meanwhile() {
        // b1 is set aside while a1's batch runs; b2 reaches the channel
        // during that compute. b1's batch opens from the set-aside list and
        // must still look in the channel, where b2 is.
        let state = overload();
        let (tx, rx) = mpsc::sync_channel(64);
        let (a1, a1_rx) = job(0, 1);
        let (b1, b1_rx) = job(1, 2);
        let (b2, b2_rx) = job(2, 2);
        submit(&tx, &state, a1);
        submit(&tx, &state, b1);
        let mut script = Script::new(tx, 3, &state);
        script.late.push(b2);
        run_batcher(&mut script, &rx, 8, &Metrics::default(), &state);
        assert_eq!(
            script.rec.groups,
            vec![vec![(0, 0, 1)], vec![(1, 0, 2), (2, 0, 2)]]
        );
        for r in [a1_rx, b1_rx, b2_rx] {
            r.recv().unwrap().unwrap();
        }
    }

    #[test]
    fn set_aside_time_is_queue_time() {
        // Three keys round-robin, three rounds, 5 ms a group: the second
        // key's jobs wait one group out in `pending`, the third's two.
        let metrics = Arc::new(Metrics::default());
        let state = OverloadState::new(OverloadPolicy::default(), Arc::clone(&metrics));
        let (tx, rx) = mpsc::sync_channel(64);
        let now = Instant::now();
        let mut replies = Vec::new();
        for i in 0..9 {
            let (j, r) = job_enqueued(i, i % 3, now);
            submit(&tx, &state, j);
            replies.push(r);
        }
        let mut script = Script::new(tx, 9, &state);
        script.compute = Duration::from_millis(5);
        run_batcher(&mut script, &rx, 8, &metrics, &state);
        assert_eq!(script.rec.groups.len(), 3);
        // Every job's observed sojourn covers the groups computed ahead of
        // it: at most the first group's three jobs read under 5 ms, at most
        // the first two groups' six under 10 ms.
        let sojourn = metrics.queue_sojourn.cumulative();
        let under = |bound: f64| {
            let i = crate::metrics::LATENCY_BUCKETS
                .iter()
                .position(|&b| b == bound)
                .unwrap();
            sojourn[i]
        };
        assert_eq!(metrics.queue_sojourn.total(), 9);
        assert!(under(0.005) <= 3 && under(0.01) <= 6, "{sojourn:?}");
        // Set-aside jobs are queued jobs: the depth counts them, the age
        // signal is live while any remain, and both read empty at the end.
        assert_eq!(script.depths, vec![6, 3, 0]);
        assert!(script.waits[0] > Duration::ZERO && script.waits[1] > Duration::ZERO);
        assert_eq!(script.waits[2], Duration::ZERO);
        assert_eq!(state.queue_depth(), 0);
        assert_eq!(
            state.queue_wait(Instant::now() + Duration::from_secs(5)),
            Duration::ZERO,
            "a drained queue has no age"
        );
        for r in replies {
            r.recv().unwrap().unwrap();
        }
    }
}
