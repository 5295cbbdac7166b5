//! The ingest writer loop, and the request and answer types of the model
//! boundary.
//!
//! One model thread owns every model's mutable state — parameters, the
//! streamed encoder state, the dataset, the WAL — and applies every
//! `/ingest`. Handler threads send [`IngestJob`]s down a bounded channel;
//! [`run_batcher`] takes the oldest, coalesces with it the ingests queued
//! *right then* (up to a maximum run length) so a durable handler
//! acknowledges them all behind one group-commit fsync, and never waits for
//! company. A `/predict` never comes here: it is computed on the connection
//! thread that parsed it, against the generation the model thread published
//! last ([`crate::registry::Published`]).
//!
//! Every job carries an absolute deadline. The loop checks it as each job
//! leaves the channel: an expired ingest is answered `504` with the time it
//! already spent queued and is never applied.
//!
//! On shutdown the senders are dropped; the loop drains every queued ingest
//! — answering each one — before it exits, so graceful shutdown never
//! abandons an accepted request.

use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender};
use std::time::Instant;

use logcl_core::{Prediction, ShardSpec, SoftmaxStat};

use crate::metrics::Metrics;
use crate::shed::OverloadState;

/// A scoring request as [`BatchHandler::handle_predict_group`] takes it.
pub struct PredictJob {
    /// Registry model name.
    pub model: String,
    /// Subject entity id.
    pub s: usize,
    /// Relation id (inverse-closed vocabulary, `0..2|R|`).
    pub r: usize,
    /// Query timestamp.
    pub t: usize,
    /// How many candidates to return.
    pub k: usize,
    /// Absolute deadline: at or past it the job is shed (504), not computed.
    pub deadline: Instant,
    /// When the job asked for compute (sojourn and shed accounting).
    pub enqueued_at: Instant,
    /// Where the answer is sent.
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
    /// How many requests the forward answered: always 1, as every
    /// `/predict` is computed on its own.
    pub batch_size: usize,
    /// Whether the snapshot encoding came from the cache.
    pub cache_hit: bool,
    /// Whether Brownout's `k` cap shortened the answer (its scores are
    /// exact either way).
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
    /// When the job entered the ingest queue.
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

/// What the model boundary delegates to (the real implementation is
/// [`crate::registry::Registry`]; tests substitute a recorder).
pub trait BatchHandler {
    /// Answers every job in `group` on the calling thread.
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

/// Passes a still-live ingest through, or answers an expired one 504 with
/// the time it spent queued and swallows it — it is never applied.
fn shed_if_expired(job: IngestJob, metrics: &Metrics) -> Option<IngestJob> {
    let now = Instant::now();
    if now < job.deadline {
        return Some(job);
    }
    metrics.shed_deadline_queue.fetch_add(1, Ordering::Relaxed);
    metrics.shed_before_compute.fetch_add(1, Ordering::Relaxed);
    let waited = now.saturating_duration_since(job.enqueued_at).as_millis();
    let _ = job.reply.send(Err(ServeError {
        status: 504,
        message: format!("deadline exceeded after {waited}ms in queue; shed before compute"),
    }));
    None
}

/// Runs the ingest writer loop until every sender is gone and the queue is
/// drained. `max_batch` caps the ingests one run coalesces; each run's
/// length is observed in `logcl_batch_size`.
pub fn run_batcher<H: BatchHandler>(
    handler: &mut H,
    rx: &Receiver<IngestJob>,
    max_batch: usize,
    metrics: &Metrics,
    overload: &OverloadState,
) {
    // Index of the next ingest run — the key deterministic fault schedules
    // are expressed in; a simulated death is all `overload` is told.
    #[cfg(feature = "fault-inject")]
    let mut fault_runs: u64 = 0;
    #[cfg(not(feature = "fault-inject"))]
    let _ = overload;
    // A disconnect with nothing queued means the server dropped its sender
    // and every handler finished: the drain is complete.
    while let Ok(first) = rx.recv() {
        #[cfg(feature = "fault-inject")]
        {
            if crate::fault::batcher_dies(fault_runs) {
                // Simulated model-thread death: the in-hand job is dropped
                // unanswered (its reply channel closes) and the tier machine
                // learns the thread is gone.
                overload.mark_worker_unhealthy();
                return;
            }
            fault_runs += 1;
        }
        let mut run: Vec<IngestJob> = shed_if_expired(first, metrics).into_iter().collect();
        // Whatever else is queued right now joins the run.
        while run.len() < max_batch {
            let Ok(next) = rx.try_recv() else { break };
            run.extend(shed_if_expired(next, metrics));
        }
        if run.is_empty() {
            continue;
        }
        metrics.batch_size.observe(run.len() as f64);
        handler.handle_ingest_group(run);
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

    /// Records ingest runs and answers every job (so reply channels see a
    /// response, like the real handler guarantees).
    #[derive(Default)]
    struct Recorder {
        ingests: Vec<usize>,       // t per applied ingest
        ingest_groups: Vec<usize>, // coalesced run sizes
    }

    impl BatchHandler for Recorder {
        fn handle_predict_group(&mut self, group: Vec<PredictJob>) {
            for job in group {
                let _ = job.reply.send(Err(ServeError::not_found("no models")));
            }
        }
        fn handle_ingest(&mut self, job: IngestJob) {
            self.ingests.push(job.t);
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

    type Reply = Receiver<Result<IngestOutcome, ServeError>>;

    fn ingest(t: usize, deadline: Instant) -> (IngestJob, Reply) {
        let (reply, reply_rx) = mpsc::channel();
        let job = IngestJob {
            model: "default".into(),
            t,
            facts: vec![(0, 0, 1)],
            update: false,
            ingest_id: None,
            deadline,
            enqueued_at: Instant::now(),
            reply,
        };
        (job, reply_rx)
    }

    fn live(t: usize) -> (IngestJob, Reply) {
        ingest(t, Instant::now() + Duration::from_secs(30))
    }

    #[test]
    fn queued_ingests_coalesce_into_runs_up_to_the_cap() {
        let (tx, rx) = mpsc::sync_channel(64);
        let mut replies = Vec::new();
        for t in 9..19 {
            let (job, reply) = live(t);
            tx.send(job).unwrap();
            replies.push(reply);
        }
        drop(tx);
        let mut rec = Recorder::default();
        let metrics = Metrics::default();
        run_batcher(&mut rec, &rx, 4, &metrics, &overload());
        assert_eq!(rec.ingest_groups, vec![4, 4, 2]);
        assert_eq!(rec.ingests, (9..19).collect::<Vec<_>>(), "arrival order");
        assert_eq!(metrics.batch_size.total(), 3, "one observation a run");
        for r in replies {
            r.recv().expect("answered").expect("recorder answers Ok");
        }
    }

    #[test]
    fn a_lone_ingest_is_answered_while_the_channel_stays_open() {
        let (tx, rx) = mpsc::sync_channel(64);
        let worker = thread::spawn(move || {
            let mut rec = Recorder::default();
            run_batcher(&mut rec, &rx, 8, &Metrics::default(), &overload());
            rec.ingest_groups
        });
        let (job, reply) = live(3);
        tx.send(job).unwrap();
        // The sender outlives the answer: a loop that waits for anything
        // but work — company, a hang-up — never sends it.
        reply
            .recv_timeout(Duration::from_secs(5))
            .expect("a queued ingest is applied without waiting for another")
            .expect("recorder answers Ok");
        drop(tx);
        assert_eq!(worker.join().unwrap(), vec![1]);
    }

    #[test]
    fn expired_ingests_are_shed_before_they_are_applied_with_504() {
        let (tx, rx) = mpsc::sync_channel(64);
        let (dead, dead_rx) = ingest(9, Instant::now() - Duration::from_millis(5));
        let (alive, alive_rx) = live(10);
        tx.send(dead).unwrap();
        tx.send(alive).unwrap();
        drop(tx);
        let mut rec = Recorder::default();
        let metrics = Metrics::default();
        run_batcher(&mut rec, &rx, 32, &metrics, &overload());
        assert_eq!(rec.ingests, vec![10], "the expired ingest must not apply");
        let err = dead_rx.recv().unwrap().expect_err("expired ingest Err");
        assert_eq!(err.status, 504);
        assert!(
            err.message.contains("shed before compute"),
            "{}",
            err.message
        );
        alive_rx.recv().unwrap().expect("live ingest answered Ok");
        assert_eq!(metrics.shed_before_compute.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.shed_deadline_queue.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn shutdown_drains_every_queued_ingest() {
        let (tx, rx) = mpsc::sync_channel(64);
        let replies: Vec<Reply> = (0..5)
            .map(|t| {
                let (job, reply) = live(t);
                tx.send(job).unwrap();
                reply
            })
            .collect();
        drop(tx); // "SIGTERM": no more senders
        let mut rec = Recorder::default();
        run_batcher(&mut rec, &rx, 2, &Metrics::default(), &overload());
        assert_eq!(rec.ingests.len(), 5);
        for r in replies {
            r.recv()
                .expect("drained ingest must still be answered")
                .expect("recorder answers Ok");
        }
    }
}
