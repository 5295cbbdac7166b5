//! The model registry: loads checkpoints, validates them against their
//! configuration, applies online ingestion, and publishes what every
//! prediction is answered from.
//!
//! [`Registry`] lives on the model thread (a `Var` is an `Rc` handle and
//! therefore not `Send`), built *on* that thread from a [`ModelSpec`] list;
//! startup errors are reported back through a channel before the server
//! starts accepting traffic. At boot, and after every applied ingest
//! (before its ack), it publishes a [`Published`] generation by pointer
//! swap: per model the frozen weights and the head encoding, plus the
//! history index, the snapshots, the dataset and this generation's encoding
//! cache — tensors shared copy-on-write, so a publish costs reference
//! counts and copies of what the ingest changed. A `/predict` loads one
//! generation and computes on its own connection thread, on that thread's
//! replica of the published weights ([`FrozenWeights::with_replica`]).
//!
//! With durability enabled ([`Registry::enable_durability`]) the registry
//! also owns the ingest [`Wal`]: recovery loads the last compaction
//! snapshot, replays the log's intact frames, and every subsequent ingest
//! is applied → logged → group-commit fsynced → only then acknowledged.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use logcl_core::model::{FrozenEncoding, FrozenWeights};
use logcl_core::serving_snapshot::SERVING_SNAPSHOT_VERSION;
use logcl_core::{
    trainer, DedupEntry, EncoderState, EvalContext, LogCl, LogClConfig, ModelParamSnapshot,
    ServingSnapshot, ShardSpec, TrainOptions,
};
use logcl_tensor::serialize::Checkpoint;
use logcl_tensor::Tensor;
use logcl_tkg::quad::Quad;
use logcl_tkg::{DatasetExtension, HistoryIndex, Snapshot, TkgDataset};

use crate::batcher::{
    BatchHandler, IngestJob, IngestOutcome, PredictJob, PredictOutcome, ServeError, ShardDetail,
};
use crate::cache::EncodingCache;
use crate::error::StartError;
use crate::metrics::Metrics;
use crate::shed::{OverloadState, Tier};
use crate::wal::{Wal, WalRecord};

/// Log file name inside the durability directory.
pub const WAL_FILE: &str = "ingest.wal";
/// Compaction-snapshot file name inside the durability directory.
pub const SNAPSHOT_FILE: &str = "snapshot.ckpt";
/// How many ingest ids the idempotency window remembers (oldest evicted).
pub const DEDUP_WINDOW: usize = 1024;

/// Everything needed to materialise one served model (all fields are
/// `Send`, unlike the model itself).
pub struct ModelSpec {
    /// Registry key; `/predict` bodies select it via `"model"` (default
    /// `"default"`).
    pub name: String,
    /// Model configuration; must match the checkpoint's fingerprint, and
    /// its noise must be clean.
    pub cfg: LogClConfig,
    /// Pre-trained parameters to restore, validated on load.
    pub checkpoint: Option<Checkpoint>,
    /// Train from scratch at startup when no checkpoint is given.
    pub train: Option<TrainOptions>,
}

/// One model on the writer.
struct ModelEntry {
    name: String,
    model: LogCl,
    /// The incrementally-advanced streaming encoder state (always equal to
    /// what a from-scratch build over the current parameters + snapshots
    /// would produce; head ingests advance it in O(Δ)).
    state: EncoderState,
    /// `model`'s parameters as of its last weight change, shared by every
    /// generation published since.
    weights: Arc<FrozenWeights>,
}

/// Registry tunables that aren't shared handles (bundled so
/// [`Registry::build`] stays readable as knobs accumulate).
#[derive(Debug, Clone, Copy)]
pub struct RegistryOptions {
    /// No effect: every predict is computed on its own. Kept because
    /// `crates/benchmark` names it.
    pub fused: bool,
    /// Cached snapshot encodings retained per model.
    pub cache_capacity: usize,
    /// Max online fine-tuning gradient steps per `update:true` ingest
    /// (`0` disables online adaptation entirely).
    pub online_steps: usize,
    /// Score only this entity shard's candidate range (`None` = the whole
    /// vocabulary, i.e. ordinary single-node serving).
    pub shard: Option<ShardSpec>,
}

/// A cached encoding, computed once by whichever reader inserted the slot;
/// readers that find it being computed wait for that one computation.
type Slot = Arc<OnceLock<Arc<FrozenEncoding>>>;

/// Locks a cache (a map) or the current generation (a pointer): neither can
/// be left half-written by a panic elsewhere.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// One model in a [`Published`] generation.
struct PublishedModel {
    name: String,
    weights: Arc<FrozenWeights>,
    /// The streamed state at the horizon, read out as an encoding.
    head: Arc<FrozenEncoding>,
    /// Encodings per timestamp, scored against the generation's one
    /// [`HistoryIndex`] read as of the entry's `t`.
    cache: Mutex<EncodingCache<Slot>>,
}

impl PublishedModel {
    fn of(entry: &ModelEntry, cache: EncodingCache<Slot>) -> Self {
        Self {
            name: entry.name.clone(),
            weights: Arc::clone(&entry.weights),
            head: Arc::new(entry.model.shared_from_state(&entry.state).freeze()),
            cache: Mutex::new(cache),
        }
    }
}

/// One generation of what predictions are answered from: immutable but for
/// its encoding cache, and every part the writer's state after one ingest.
pub struct Published {
    ds: Arc<TkgDataset>,
    snapshots: Arc<Vec<Snapshot>>,
    history: Arc<HistoryIndex>,
    models: Vec<PublishedModel>,
    /// The candidate range `[lo, hi)` every decode is restricted to: the
    /// shard's, or the whole (immutable) entity vocabulary — an unsharded
    /// node is shard 0 of 1.
    entity_range: (usize, usize),
    /// Entity-shard assignment (`None` = single-node serving); answers carry
    /// shard provenance only when it is set.
    shard: Option<ShardSpec>,
}

/// One `/predict` as the read path takes it: the fields of a
/// [`PredictJob`] but its reply channel.
pub struct Query<'a> {
    pub model: &'a str,
    pub s: usize,
    pub r: usize,
    pub t: usize,
    pub k: usize,
    pub enqueued_at: Instant,
    pub deadline: Instant,
}

impl Published {
    /// The horizon `|T|` of this generation: a query without a `time` is
    /// the one-step forecast at it.
    pub fn horizon(&self) -> usize {
        self.ds.num_times
    }

    /// Answers `query` from this generation on the calling thread, once it
    /// holds a compute permit (a deadline that passes first is a `504`):
    /// bit-identical to sequential `predict_topk_stream` at the head and
    /// `predict_topk` at historical timestamps over this generation.
    pub fn serve(
        &self,
        query: &Query<'_>,
        metrics: &Metrics,
        overload: &OverloadState,
    ) -> Result<PredictOutcome, ServeError> {
        let _permit = overload
            .acquire_compute(query.enqueued_at, query.deadline)
            .map_err(|waited| {
                metrics.shed_deadline_queue.fetch_add(1, Ordering::Relaxed);
                metrics.shed_before_compute.fetch_add(1, Ordering::Relaxed);
                ServeError {
                    status: 504,
                    message: format!(
                        "deadline exceeded after {}ms waiting for a compute permit; \
                         shed before compute",
                        waited.as_millis()
                    ),
                }
            })?;
        self.predict(query, metrics, overload)
    }

    fn predict(
        &self,
        query: &Query<'_>,
        metrics: &Metrics,
        overload: &OverloadState,
    ) -> Result<PredictOutcome, ServeError> {
        let Query { s, r, t, k, .. } = *query;
        let Some(model) = self.models.iter().find(|m| m.name == query.model) else {
            return Err(ServeError::not_found(format!(
                "unknown model {:?}",
                query.model
            )));
        };
        logcl_core::validate_query(&self.ds, s, r, t)
            .map_err(|e| ServeError::bad_request(e.to_string()))?;

        // Brownout degradation (crate::shed): under pressure, cap the
        // effective top-k. The forward is the full model's either way, so a
        // capped answer is the prefix of the uncapped one.
        let k_cap = if overload.tier(Instant::now()) >= Tier::Brownout {
            overload.policy().brownout_k_cap.max(1)
        } else {
            usize::MAX
        };

        let (encoding, cache_hit) = self.encoding(model, t, metrics);
        // Every decode is restricted to this worker's candidate range (the
        // whole vocabulary unless `--shard i/N` narrowed it): the scores are
        // a *slice* (`scores[j]` is the logit of global entity `lo + j`),
        // bit-identical per entity whatever the range. An empty range
        // yields an empty slice without touching the model.
        let (lo, hi) = self.entity_range;
        let logits = (lo < hi).then(|| {
            model.weights.with_replica(&self.ds, |replica| {
                let out = replica.forward_queries_in_range(
                    &encoding.thaw(),
                    &self.history,
                    &[Quad::new(s, r, 0, t)],
                    self.entity_range,
                );
                out.logits.to_tensor()
            })
        });
        let scores = logits.as_ref().map_or(&[][..], Tensor::data);

        let k_eff = k.min(k_cap);
        let degraded = k_eff < k;
        if degraded {
            metrics.degraded_responses.fetch_add(1, Ordering::Relaxed);
        }
        // Ranking + softmax over this worker's range. On a shard the
        // probabilities are range-local, and the router recombines global
        // ones from the per-shard stats.
        let (predictions, stat) = logcl_core::topk_in_range(&self.ds, scores, lo, k_eff);
        let shard = self.shard.map(|spec| ShardDetail { spec, lo, hi, stat });
        Ok(PredictOutcome {
            predictions,
            batch_size: 1,
            cache_hit,
            degraded,
            shard,
        })
    }

    /// The encoding at `t` and whether it was cached: the streamed head, or
    /// a historical window encoded on this thread — once per generation.
    fn encoding(
        &self,
        model: &PublishedModel,
        t: usize,
        metrics: &Metrics,
    ) -> (Arc<FrozenEncoding>, bool) {
        let (slot, hit) = {
            let mut cache = lock(&model.cache);
            match cache.get(t) {
                Some(slot) => (Arc::clone(slot), true),
                None => {
                    let slot = Slot::default();
                    cache.insert(t, Arc::clone(&slot));
                    (slot, false)
                }
            }
        };
        if hit {
            metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
        // A stalled read holds its permit and this generation's slot: a
        // miss's slot is in the cache, not yet filled, while it waits.
        #[cfg(feature = "fault-inject")]
        {
            if let Some(delay) = crate::fault::compute_delay() {
                std::thread::sleep(delay);
            }
        }
        let encoding = slot.get_or_init(|| {
            if t == self.horizon() {
                Arc::clone(&model.head)
            } else {
                model.weights.with_replica(&self.ds, |replica| {
                    Arc::new(replica.encode(&self.snapshots, t, false).freeze())
                })
            }
        });
        (Arc::clone(encoding), hit)
    }
}

/// The current generation, replaced whole by pointer swap: the lock is
/// held only to clone or swap the `Arc`.
pub struct Publisher {
    current: Mutex<Arc<Published>>,
}

impl Publisher {
    /// The generation published last. A request loads it once and answers
    /// from it throughout, whatever is published meanwhile.
    pub fn load(&self) -> Arc<Published> {
        Arc::clone(&lock(&self.current))
    }

    fn store(&self, next: Arc<Published>) {
        // Freed (if this was its last reader) outside the lock.
        let _previous = std::mem::replace(&mut *lock(&self.current), next);
    }
}

/// Insertion-ordered idempotency window: remembers the outcome acked for
/// each recent `X-LogCL-Ingest-Id` so a retry replays the answer, not the
/// work. Bounded at [`DEDUP_WINDOW`]; the oldest id is evicted first.
#[derive(Default)]
struct DedupWindow {
    map: BTreeMap<String, IngestOutcome>,
    order: VecDeque<String>,
}

impl DedupWindow {
    fn get(&self, id: &str) -> Option<&IngestOutcome> {
        self.map.get(id)
    }

    fn insert(&mut self, id: String, outcome: IngestOutcome) {
        if self.map.insert(id.clone(), outcome).is_none() {
            self.order.push_back(id);
            while self.order.len() > DEDUP_WINDOW {
                if let Some(evicted) = self.order.pop_front() {
                    self.map.remove(&evicted);
                }
            }
        }
    }

    fn to_entries(&self) -> Vec<DedupEntry> {
        self.order
            .iter()
            .filter_map(|id| {
                self.map.get(id).map(|o| DedupEntry {
                    id: id.clone(),
                    appended: o.appended,
                    invalidated: o.invalidated,
                    updated: o.updated,
                    horizon: o.horizon,
                })
            })
            .collect()
    }

    fn from_entries(entries: &[DedupEntry]) -> Self {
        let mut window = DedupWindow::default();
        for e in entries {
            window.insert(
                e.id.clone(),
                IngestOutcome {
                    appended: e.appended,
                    invalidated: e.invalidated,
                    updated: e.updated,
                    horizon: e.horizon,
                    // An entry persisted in a durable snapshot was, by
                    // construction, durably acknowledged.
                    durable: true,
                    deduplicated: false,
                },
            );
        }
        window
    }
}

/// The registry's durable-ingest state (present only when the server was
/// started with a WAL directory).
struct DurableState {
    wal: Wal,
    dir: PathBuf,
    /// Compact (snapshot + truncate) after this many logged ingests
    /// (`0` = never compact automatically).
    compact_every: u64,
    /// Frames currently in the log (reset to 0 by compaction).
    since_compact: u64,
}

/// What startup recovery found; surfaced by [`Registry::enable_durability`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Whether a compaction snapshot was loaded.
    pub snapshot_loaded: bool,
    /// Facts restored from the snapshot's dataset extension.
    pub snapshot_facts: usize,
    /// Intact WAL frames replayed.
    pub replayed_frames: usize,
    /// Facts appended by WAL replay (after dedup against the snapshot).
    pub replayed_facts: usize,
    /// Torn-tail bytes truncated off the log.
    pub truncated_bytes: u64,
}

/// The writer-side model store and [`BatchHandler`] implementation.
pub struct Registry {
    ds: Arc<TkgDataset>,
    snapshots: Arc<Vec<Snapshot>>,
    entries: Vec<ModelEntry>,
    metrics: Arc<Metrics>,
    /// Mirrors `ds.num_times` for the caller of [`Registry::build`].
    horizon: Arc<AtomicUsize>,
    /// Degradation tier and brownout policy, shared with the admission
    /// path; the read path and the ingest path both consult the tier.
    overload: Arc<OverloadState>,
    /// The one global history vocabulary, over every consumed snapshot:
    /// advanced by head ingests, rebuilt only on the rare backfill path.
    /// Every prediction and every online adaptation, at the head or at a
    /// historical `t`, reads it as of its own query time.
    head_history: Arc<HistoryIndex>,
    /// Max online fine-tuning steps per `update:true` ingest.
    online_steps: usize,
    /// What readers answer from.
    publisher: Arc<Publisher>,
    /// Durable-ingest state; `None` = memory-only ingestion.
    durable: Option<DurableState>,
    /// Idempotency window (active with or without durability).
    dedup: DedupWindow,
    /// Test-split length of the base dataset at build time, before any
    /// recovery or ingestion — the anchor compaction snapshots diff against.
    base_test_len: usize,
    /// Ingests applied since the base (monotone across compactions).
    applied_ingests: u64,
}

impl Registry {
    /// Builds every model, restoring and validating checkpoints, and
    /// publishes the first generation; returns a typed [`StartError`] (not
    /// a panic) for any mismatch. A model whose configuration adds noise is
    /// refused: its evaluation forward draws from the model's RNG, so an
    /// answer would depend on which thread computed it.
    pub fn build(
        ds: TkgDataset,
        specs: Vec<ModelSpec>,
        metrics: Arc<Metrics>,
        horizon: Arc<AtomicUsize>,
        options: RegistryOptions,
        overload: Arc<OverloadState>,
    ) -> Result<Self, StartError> {
        if specs.is_empty() {
            return Err(StartError::NoModels);
        }
        if let Some(noisy) = specs.iter().find(|s| !s.cfg.noise.is_clean()) {
            return Err(StartError::NoisyModel {
                model: noisy.name.clone(),
            });
        }
        let snapshots = ds.snapshots();
        let mut entries = Vec::with_capacity(specs.len());
        for spec in specs {
            #[cfg(feature = "fault-inject")]
            {
                if crate::fault::checkpoint_read_error() {
                    return Err(StartError::Checkpoint {
                        model: spec.name.clone(),
                        source: logcl_tensor::serialize::CheckpointError::Corrupt(
                            "injected checkpoint read fault".into(),
                        ),
                    });
                }
            }
            let mut model = LogCl::new(&ds, spec.cfg.clone());
            if let Some(ckpt) = &spec.checkpoint {
                ckpt.validate_meta(&spec.cfg.variant_name(), &spec.cfg.fingerprint())
                    .map_err(|e| StartError::Checkpoint {
                        model: spec.name.clone(),
                        source: e,
                    })?;
                logcl_tensor::serialize::restore(&model.params, ckpt).map_err(|e| {
                    StartError::Checkpoint {
                        model: spec.name.clone(),
                        source: e,
                    }
                })?;
            } else if let Some(opts) = &spec.train {
                trainer::train(&mut model, &ds, opts).map_err(|e| StartError::Train {
                    model: spec.name.clone(),
                    source: e,
                })?;
            }
            // Boot the streaming state over the full base history; every
            // later head ingest advances it in O(Δ) instead of re-encoding.
            let state = model.init_encoder_state(&snapshots);
            metrics
                .encoder_state_rebuilds
                .boot
                .fetch_add(1, Ordering::Relaxed);
            entries.push(ModelEntry {
                name: spec.name,
                weights: Arc::new(model.freeze()),
                model,
                state,
            });
        }
        horizon.store(ds.num_times, Ordering::SeqCst);
        metrics
            .encoder_state_horizon
            .store(ds.num_times as u64, Ordering::Relaxed);
        let base_test_len = ds.test.len();
        let num_entities = ds.num_entities;
        let first = Published {
            history: Arc::new(HistoryIndex::build(&snapshots)),
            ds: Arc::new(ds),
            snapshots: Arc::new(snapshots),
            models: entries
                .iter()
                .map(|e| PublishedModel::of(e, EncodingCache::new(options.cache_capacity)))
                .collect(),
            entity_range: options
                .shard
                .map_or((0, num_entities), |s| s.range(num_entities)),
            shard: options.shard,
        };
        Ok(Self {
            ds: Arc::clone(&first.ds),
            snapshots: Arc::clone(&first.snapshots),
            head_history: Arc::clone(&first.history),
            entries,
            metrics,
            horizon,
            overload,
            online_steps: options.online_steps,
            publisher: Arc::new(Publisher {
                current: Mutex::new(Arc::new(first)),
            }),
            durable: None,
            dedup: DedupWindow::default(),
            base_test_len,
            applied_ingests: 0,
        })
    }

    /// Where readers load the current generation from.
    pub fn publisher(&self) -> Arc<Publisher> {
        Arc::clone(&self.publisher)
    }

    /// Publishes the writer's state as the next generation. Its caches
    /// start from the previous generation's entries, minus those at or
    /// after `stale_from` and — its weights changed — every one of the
    /// `reweighted` model's; returns how many entries that dropped.
    fn publish(&mut self, stale_from: Option<usize>, reweighted: Option<usize>) -> usize {
        let previous = self.publisher.load();
        let mut invalidated = 0;
        let models = self
            .entries
            .iter()
            .zip(&previous.models)
            .enumerate()
            .map(|(i, (entry, before))| {
                let mut cache = lock(&before.cache).clone();
                if let Some(t) = stale_from {
                    invalidated += cache.invalidate_from(t);
                }
                if reweighted == Some(i) {
                    invalidated += cache.clear();
                }
                PublishedModel::of(entry, cache)
            })
            .collect();
        self.publisher.store(Arc::new(Published {
            ds: Arc::clone(&self.ds),
            snapshots: Arc::clone(&self.snapshots),
            history: Arc::clone(&self.head_history),
            models,
            entity_range: previous.entity_range,
            shard: previous.shard,
        }));
        invalidated
    }

    /// Model names in registration order.
    pub fn model_names(&self) -> Vec<String> {
        self.entries.iter().map(|e| e.name.clone()).collect()
    }

    fn entry_index(&self, name: &str) -> Option<usize> {
        self.entries.iter().position(|e| e.name == name)
    }

    /// Re-freezes model `idx`'s weights after they changed, for the next
    /// generation.
    fn refreeze(&mut self, idx: usize) {
        let entry = &mut self.entries[idx];
        entry.weights = Arc::new(entry.model.freeze());
    }

    /// Fail-closed admission for one ingest: resolves the model and checks
    /// every precondition *before* anything is mutated or logged. Returns
    /// the entry index of the target model.
    fn validate_ingest(
        &self,
        model: &str,
        t: usize,
        facts: &[(usize, usize, usize)],
    ) -> Result<usize, ServeError> {
        let Some(idx) = self.entry_index(model) else {
            return Err(ServeError::not_found(format!("unknown model {model:?}")));
        };
        if facts.is_empty() {
            return Err(ServeError::bad_request("no facts given"));
        }
        if t > self.ds.num_times {
            return Err(ServeError::bad_request(format!(
                "time {} would leave a gap: horizon is {} (use t <= horizon)",
                t, self.ds.num_times
            )));
        }
        let mut seen = std::collections::BTreeSet::new();
        for &(s, r, o) in facts {
            if s >= self.ds.num_entities || o >= self.ds.num_entities {
                return Err(ServeError::bad_request(format!(
                    "entity out of range in fact ({s}, {r}, {o}): |E| = {}",
                    self.ds.num_entities
                )));
            }
            if r >= self.ds.num_rels {
                return Err(ServeError::bad_request(format!(
                    "relation out of range in fact ({s}, {r}, {o}): |R| = {} \
                     (ingest base-direction facts only)",
                    self.ds.num_rels
                )));
            }
            if !seen.insert((s, r, o)) {
                return Err(ServeError::bad_request(format!(
                    "fact ({s}, {r}, {o}) appears more than once in the request body"
                )));
            }
        }
        Ok(idx)
    }

    /// Applies one validated ingest: appends facts at `t`, advances (or
    /// rebuilds) the streaming encoder states and the global history index,
    /// invalidates affected cache entries, and optionally runs a bounded
    /// online fine-tuning loop (Fig. 10). Infallible after
    /// [`Registry::validate_ingest`] — and idempotent: re-applying the same
    /// facts appends nothing and (since `appended == 0`) skips both the
    /// online loop and the structure rebuilds, which is what makes WAL
    /// replay over a compaction snapshot crash-safe.
    ///
    /// Cost model: a head append (`t == |T|`) is O(Δ) — one
    /// `HistoryIndex::advance` plus one `advance_encoder_state` per model.
    /// A backfill (`t < |T|`) mutates an already-consumed snapshot, so the
    /// advance-only structures are rebuilt from scratch (rare path, counted
    /// in `logcl_encoder_state_rebuilds_total`).
    fn apply_ingest(
        &mut self,
        idx: usize,
        t: usize,
        facts: &[(usize, usize, usize)],
        update: bool,
    ) -> IngestOutcome {
        let was_head = t == self.ds.num_times;
        // Append new (deduplicated) facts to the test split — snapshots and
        // time-aware filtering read all splits uniformly.
        let existing: std::collections::BTreeSet<(usize, usize, usize)> = self
            .ds
            .all_quads()
            .iter()
            .filter(|q| q.t == t)
            .map(|q| q.triple())
            .collect();
        let fresh: Vec<Quad> = facts
            .iter()
            .filter(|f| !existing.contains(f))
            .map(|&(s, r, o)| Quad::new(s, r, o, t))
            .collect();
        let appended = fresh.len();
        let ds = Arc::make_mut(&mut self.ds);
        ds.test.extend_from_slice(&fresh);
        ds.num_times = ds.num_times.max(t + 1);
        self.snapshots = Arc::new(self.ds.snapshots());
        self.horizon.store(self.ds.num_times, Ordering::SeqCst);
        self.applied_ingests += 1;
        self.metrics
            .ingested_facts
            .fetch_add(appended as u64, Ordering::Relaxed);

        // Bounded online fine-tuning on the fresh facts, head append and
        // backfill alike: the model reads `head_history` as of `t`, and what
        // this ingest changes (facts at `t`) is never `< t`, so it does not
        // matter that the index is brought up to date only below. The loss
        // guard inside `online_adapt` restores the parameters bit-exactly on
        // divergence, so a rollback leaves caches and encoder states valid.
        let mut report = trainer::OnlineAdaptReport::default();
        if update && appended > 0 && self.online_steps > 0 {
            let opts = trainer::OnlineAdaptOptions {
                max_steps: self.online_steps,
                ..Default::default()
            };
            let ctx = EvalContext {
                ds: &self.ds,
                snapshots: &self.snapshots,
                history: &self.head_history,
                t,
            };
            let model = &mut self.entries[idx].model;
            report = trainer::online_adapt(model, &ctx, &fresh, &opts);
            self.metrics.online_updates.fetch_add(1, Ordering::Relaxed);
            self.metrics
                .online_steps
                .fetch_add(report.steps as u64, Ordering::Relaxed);
            if report.rolled_back {
                self.metrics
                    .online_rollbacks
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        let params_changed = report.steps > 0;
        if params_changed {
            self.refreeze(idx);
        }

        // Incremental advance (the streaming invariant): keep
        // `head_history` and every model's `EncoderState` equal to what a
        // from-scratch build over (parameters, snapshots) would produce.
        let advance_started = Instant::now();
        if was_head {
            if params_changed {
                // The adapted model's state was evolved under the old
                // parameters; rebuild it under the new ones (the rebuild
                // also consumes the just-closed snapshot, so the advance
                // loop below skips it via the horizon check).
                let rebuilt = self.entries[idx].model.init_encoder_state(&self.snapshots);
                self.entries[idx].state = rebuilt;
                self.metrics
                    .encoder_state_rebuilds
                    .weight_update
                    .fetch_add(1, Ordering::Relaxed);
            }
            Arc::make_mut(&mut self.head_history).advance(&self.snapshots[t]);
            for entry in &mut self.entries {
                if entry.state.horizon == t {
                    entry
                        .model
                        .advance_encoder_state(&mut entry.state, &self.snapshots[t]);
                }
            }
        } else if appended > 0 {
            // Backfill: an already-consumed snapshot changed under the
            // advance-only structures, so O(Δ) is off the table — rebuild
            // them over the amended timeline (the rare path by design).
            self.head_history = Arc::new(HistoryIndex::build(&self.snapshots));
            for entry in &mut self.entries {
                let rebuilt = entry.model.init_encoder_state(&self.snapshots);
                entry.state = rebuilt;
            }
            self.metrics
                .encoder_state_rebuilds
                .backfill
                .fetch_add(self.entries.len() as u64, Ordering::Relaxed);
        }
        self.metrics
            .ingest_advance
            .observe(advance_started.elapsed().as_secs_f64());

        // Structural invalidation: encodings at and after t read (or are
        // about to read) the changed snapshot. A weight update makes every
        // cached encoding of the adapted model stale (models do not share
        // parameters), so other models keep every entry below `t`.
        let invalidated = self.publish(Some(t), params_changed.then_some(idx));
        self.metrics
            .cache_invalidations
            .fetch_add(invalidated as u64, Ordering::Relaxed);
        self.metrics
            .encoder_state_horizon
            .store(self.ds.num_times as u64, Ordering::Relaxed);
        let hits = self.metrics.cache_hits.load(Ordering::Relaxed);
        let misses = self.metrics.cache_misses.load(Ordering::Relaxed);
        if let Some(ppm) = (hits * 1_000_000).checked_div(hits + misses) {
            self.metrics
                .post_ingest_hit_ratio_ppm
                .store(ppm, Ordering::Relaxed);
        }

        IngestOutcome {
            appended,
            invalidated,
            updated: params_changed,
            horizon: self.ds.num_times,
            durable: false,
            deduplicated: false,
        }
    }

    /// Turns on durable ingestion rooted at `dir` and runs crash recovery:
    /// load the compaction snapshot if one exists (dataset extension, model
    /// parameters, idempotency window), then replay the WAL's intact frames
    /// in order — a torn tail is truncated, everything else is applied
    /// through the normal ingest path so recovery is bit-identical to
    /// having served those requests. Fail-closed: recovered state that
    /// contradicts the base refuses startup instead of dropping acks.
    pub fn enable_durability(
        &mut self,
        dir: &Path,
        compact_every: u64,
    ) -> Result<RecoveryStats, StartError> {
        let mut stats = RecoveryStats::default();
        let snap_path = dir.join(SNAPSHOT_FILE);
        if snap_path.exists() {
            let snap = ServingSnapshot::load(&snap_path).map_err(|e| StartError::Checkpoint {
                model: "<serving-snapshot>".into(),
                source: e,
            })?;
            snap.extension
                .apply(Arc::make_mut(&mut self.ds))
                .map_err(|e| StartError::Recovery {
                    context: format!("applying the snapshot's dataset extension: {e}"),
                })?;
            stats.snapshot_loaded = true;
            stats.snapshot_facts = snap.extension.quads.len();
            self.snapshots = Arc::new(self.ds.snapshots());
            self.horizon.store(self.ds.num_times, Ordering::SeqCst);
            for ms in &snap.models {
                let Some(idx) = self.entry_index(&ms.name) else {
                    return Err(StartError::Recovery {
                        context: format!(
                            "snapshot carries parameters for unknown model {:?}",
                            ms.name
                        ),
                    });
                };
                {
                    let entry = &self.entries[idx];
                    ms.checkpoint
                        .validate_meta(
                            &entry.model.cfg.variant_name(),
                            &entry.model.cfg.fingerprint(),
                        )
                        .map_err(|e| StartError::Checkpoint {
                            model: ms.name.clone(),
                            source: e,
                        })?;
                    logcl_tensor::serialize::restore(&entry.model.params, &ms.checkpoint).map_err(
                        |e| StartError::Checkpoint {
                            model: ms.name.clone(),
                            source: e,
                        },
                    )?;
                }
                self.refreeze(idx);
                if let Some(rng) = &ms.rng {
                    // Resume the model's random stream so online adaptation
                    // after the restart continues exactly where the
                    // uninterrupted server would have been.
                    self.entries[idx].model.restore_rng_state(*rng);
                }
                // Prefer the persisted streaming state (bit-exact resume of
                // the pre-crash float stream); fall back to a deterministic
                // rebuild for legacy snapshots or a stale horizon.
                let restored = ms
                    .state
                    .as_ref()
                    .filter(|rec| rec.horizon == self.ds.num_times)
                    .and_then(|rec| EncoderState::from_record(rec).ok());
                match restored {
                    Some(state) => self.entries[idx].state = state,
                    None => {
                        let rebuilt = self.entries[idx].model.init_encoder_state(&self.snapshots);
                        self.entries[idx].state = rebuilt;
                        self.metrics
                            .encoder_state_rebuilds
                            .recovery
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            self.head_history = Arc::new(HistoryIndex::build(&self.snapshots));
            self.metrics
                .encoder_state_horizon
                .store(self.ds.num_times as u64, Ordering::Relaxed);
            self.dedup = DedupWindow::from_entries(&snap.dedup);
            self.applied_ingests = snap.applied_ingests;
        }

        let opened = Wal::open(dir.join(WAL_FILE)).map_err(|e| StartError::Wal {
            context: "opening the ingest write-ahead log".into(),
            source: e,
        })?;
        stats.truncated_bytes = opened.truncated_bytes;
        stats.replayed_frames = opened.records.len();
        let frames_in_log = opened.records.len() as u64;
        for record in opened.records {
            // A frame whose id the window already remembers predates the
            // snapshot (crash between snapshot write and log truncation):
            // its effect is already restored.
            if let Some(id) = &record.ingest_id {
                if self.dedup.get(id).is_some() {
                    continue;
                }
            }
            let idx = self
                .validate_ingest(&record.model, record.t, &record.facts)
                .map_err(|e| StartError::Recovery {
                    context: format!(
                        "replaying a logged ingest (model {:?}, t {}): {}",
                        record.model, record.t, e.message
                    ),
                })?;
            let outcome = self.apply_ingest(idx, record.t, &record.facts, record.update);
            stats.replayed_facts += outcome.appended;
            if let Some(id) = record.ingest_id {
                let mut remembered = outcome;
                remembered.durable = true;
                self.dedup.insert(id, remembered);
            }
        }
        self.metrics
            .wal_replayed_frames
            .fetch_add(stats.replayed_frames as u64, Ordering::Relaxed);
        self.metrics
            .wal_truncated_bytes
            .fetch_add(stats.truncated_bytes, Ordering::Relaxed);
        self.metrics.wal_recovered_facts.fetch_add(
            (stats.snapshot_facts + stats.replayed_facts) as u64,
            Ordering::Relaxed,
        );
        self.durable = Some(DurableState {
            wal: opened.wal,
            dir: dir.to_path_buf(),
            compact_every,
            since_compact: frames_in_log,
        });
        self.publish(None, None);
        Ok(stats)
    }

    /// The complete durable state right now, as a compaction snapshot.
    fn snapshot_now(&self) -> ServingSnapshot {
        ServingSnapshot {
            version: SERVING_SNAPSHOT_VERSION,
            extension: DatasetExtension::capture(&self.ds, self.base_test_len),
            models: self
                .entries
                .iter()
                .map(|e| ModelParamSnapshot {
                    name: e.name.clone(),
                    checkpoint: logcl_tensor::serialize::snapshot_with_meta(
                        &e.model.params,
                        &e.model.cfg.variant_name(),
                        &e.model.cfg.fingerprint(),
                    ),
                    // Persist the advanced streaming state + RNG stream so a
                    // restart resumes the exact float stream instead of
                    // re-deriving it (and so ingests applied while the
                    // process was down replay through the same incremental
                    // advance path the live server used).
                    state: Some(e.state.to_record()),
                    rng: Some(e.model.rng_state()),
                })
                .collect(),
            dedup: self.dedup.to_entries(),
            applied_ingests: self.applied_ingests,
        }
    }

    /// Compacts when the log has accumulated `compact_every` frames: write
    /// the snapshot (atomic tmp + fsync + rename), then truncate the log.
    /// A crash between the two steps is safe — replaying the stale frames
    /// over the new snapshot is a no-op (see [`Registry::apply_ingest`]).
    /// Failures leave the previous snapshot + full log intact and are
    /// counted, never escalated: serving continues, the log just grows.
    fn maybe_compact(&mut self) {
        let due = match &self.durable {
            Some(d) => d.compact_every > 0 && d.since_compact >= d.compact_every,
            None => false,
        };
        if !due {
            return;
        }
        let snap = self.snapshot_now();
        let Some(d) = &mut self.durable else {
            return;
        };
        if snap.save(d.dir.join(SNAPSHOT_FILE)).is_err() {
            self.metrics.wal_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        match d.wal.reset() {
            Ok(()) => {
                d.since_compact = 0;
                self.metrics.wal_compactions.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.metrics.wal_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Final flush on shutdown: fsync any unsynced frames. Group commit
    /// syncs after every ingest run, so this is a cheap safety net for the
    /// drain path; errors are counted, not propagated (we are exiting).
    pub fn flush_durability(&mut self) {
        if let Some(d) = &mut self.durable {
            if d.wal.pending() > 0 && d.wal.sync().is_err() {
                self.metrics.wal_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl BatchHandler for Registry {
    /// Answers each job through the read path on the calling thread, from
    /// the generation published last.
    fn handle_predict_group(&mut self, group: Vec<PredictJob>) {
        let published = self.publisher.load();
        for job in group {
            let query = Query {
                model: &job.model,
                s: job.s,
                r: job.r,
                t: job.t,
                k: job.k,
                enqueued_at: job.enqueued_at,
                deadline: job.deadline,
            };
            let answer = published.serve(&query, &self.metrics, &self.overload);
            let _ = job.reply.send(answer);
        }
    }

    fn handle_ingest(&mut self, job: IngestJob) {
        self.handle_ingest_group(vec![job]);
    }

    /// The durable ingest path: per job — idempotency check, fail-closed
    /// validation, in-memory apply, WAL append — then ONE group-commit
    /// fsync for the whole run, and only after it succeeds are the jobs
    /// acknowledged (and their ids remembered). A WAL failure answers 500
    /// without recording the id: the state is applied in memory but not
    /// durable, and a retry re-converges because `apply_ingest` is
    /// idempotent.
    fn handle_ingest_group(&mut self, jobs: Vec<IngestJob>) {
        // Brownout degradation: online fine-tuning is optional work, shed
        // under pressure like any other. The decision is taken *before* the
        // WAL sees the record so crash replay re-applies exactly what the
        // live path did (`apply_ingest` itself never consults the tier).
        let brownout = self.overload.tier(Instant::now()) >= Tier::Brownout;
        let mut acks = Vec::with_capacity(jobs.len());
        for job in jobs {
            let effective_update = job.update && !brownout;
            if let Some(id) = &job.ingest_id {
                if let Some(remembered) = self.dedup.get(id) {
                    self.metrics
                        .ingest_dedup_hits
                        .fetch_add(1, Ordering::Relaxed);
                    let mut replayed = remembered.clone();
                    replayed.deduplicated = true;
                    let _ = job.reply.send(Ok(replayed));
                    continue;
                }
            }
            let idx = match self.validate_ingest(&job.model, job.t, &job.facts) {
                Ok(idx) => idx,
                Err(e) => {
                    let _ = job.reply.send(Err(e));
                    continue;
                }
            };
            let outcome = self.apply_ingest(idx, job.t, &job.facts, effective_update);
            if self.durable.is_some() {
                let record = WalRecord {
                    model: job.model.clone(),
                    t: job.t,
                    facts: job.facts.clone(),
                    update: effective_update,
                    ingest_id: job.ingest_id.clone(),
                };
                let appended_ok = match &mut self.durable {
                    Some(d) => {
                        let r = d.wal.append(&record);
                        if r.is_ok() {
                            d.since_compact += 1;
                        }
                        r
                    }
                    None => Ok(()),
                };
                if let Err(e) = appended_ok {
                    self.metrics.wal_errors.fetch_add(1, Ordering::Relaxed);
                    let _ = job.reply.send(Err(ServeError {
                        status: 500,
                        message: format!(
                            "ingest applied but not logged durably: {e}; retry is safe \
                             (idempotent application)"
                        ),
                    }));
                    continue;
                }
                self.metrics
                    .wal_appended_frames
                    .fetch_add(1, Ordering::Relaxed);
            }
            acks.push((job.reply, outcome, job.ingest_id));
        }

        // Group commit: one fsync covers every frame appended above.
        if !acks.is_empty() {
            if let Some(d) = &mut self.durable {
                if let Err(e) = d.wal.sync() {
                    self.metrics
                        .wal_errors
                        .fetch_add(acks.len() as u64, Ordering::Relaxed);
                    let message = format!(
                        "ingest applied but not fsynced: {e}; retry is safe \
                         (idempotent application)"
                    );
                    for (reply, _, _) in acks {
                        let _ = reply.send(Err(ServeError {
                            status: 500,
                            message: message.clone(),
                        }));
                    }
                    return;
                }
                self.metrics.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
            }
        }

        let durable = self.durable.is_some();
        for (reply, mut outcome, id) in acks {
            outcome.durable = durable;
            if durable {
                self.metrics.durable_acks.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(id) = id {
                self.dedup.insert(id, outcome.clone());
            }
            let _ = reply.send(Ok(outcome));
        }
        self.maybe_compact();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logcl_tkg::SyntheticPreset;

    fn tiny_cfg() -> LogClConfig {
        LogClConfig {
            dim: 16,
            time_bank: 4,
            channels: 6,
            m: 3,
            ..Default::default()
        }
    }

    fn tiny_ds() -> TkgDataset {
        SyntheticPreset::Icews14.generate_scaled(0.15)
    }

    /// The options a default server builds its registry with.
    fn options() -> RegistryOptions {
        let defaults = crate::ServeConfig::default();
        RegistryOptions {
            fused: defaults.fused,
            cache_capacity: defaults.cache_capacity,
            online_steps: defaults.online_steps,
            shard: defaults.shard,
        }
    }

    fn build(specs: Vec<ModelSpec>) -> Result<Registry, StartError> {
        Registry::build(
            tiny_ds(),
            specs,
            Arc::new(Metrics::default()),
            Arc::new(AtomicUsize::new(0)),
            options(),
            Arc::new(OverloadState::new(
                crate::shed::OverloadPolicy::default(),
                Arc::new(Metrics::default()),
            )),
        )
    }

    #[test]
    fn rejects_checkpoint_with_wrong_config_fingerprint() {
        let ds = tiny_ds();
        let model = LogCl::new(&ds, tiny_cfg());
        let ckpt = logcl_tensor::serialize::snapshot_with_meta(
            &model.params,
            "LogCL",
            &tiny_cfg().fingerprint(),
        );
        // Loading under a *different* dim must fail with the fingerprint
        // message, not a shape panic.
        let other = LogClConfig {
            dim: 32,
            ..tiny_cfg()
        };
        let err = build(vec![ModelSpec {
            name: "default".into(),
            cfg: other,
            checkpoint: Some(ckpt),
            train: None,
        }])
        .err()
        .expect("mismatched fingerprint must be rejected");
        assert!(
            matches!(err, StartError::Checkpoint { .. }),
            "expected a checkpoint error, got: {err}"
        );
        assert!(err.to_string().contains("config"), "{err}");
    }

    #[test]
    fn rejects_legacy_checkpoint_with_wrong_shapes_cleanly() {
        let ds = tiny_ds();
        let model = LogCl::new(&ds, tiny_cfg());
        // Legacy checkpoint: no metadata, so only restore()'s shape check
        // can catch the mismatch — as an error, not a panic.
        let ckpt = logcl_tensor::serialize::snapshot(&model.params);
        let err = build(vec![ModelSpec {
            name: "default".into(),
            cfg: LogClConfig {
                dim: 32,
                ..tiny_cfg()
            },
            checkpoint: Some(ckpt),
            train: None,
        }])
        .err()
        .expect("mismatched shapes must be rejected");
        assert!(err.to_string().contains("mismatch"), "{err}");
    }

    /// Whether the generation published last has model `i`'s encoding at
    /// `t` cached.
    fn cached(reg: &Registry, i: usize, t: usize) -> bool {
        lock(&reg.publisher.load().models[i].cache).contains(t)
    }

    #[test]
    fn weight_update_clears_only_the_updated_models_cache() {
        let mut reg = build(vec![
            ModelSpec {
                name: "a".into(),
                cfg: tiny_cfg(),
                checkpoint: None,
                train: None,
            },
            ModelSpec {
                name: "b".into(),
                cfg: tiny_cfg(),
                checkpoint: None,
                train: None,
            },
        ])
        .unwrap();

        // Warm model a's cache at a historical timestamp (below the head).
        let t0 = reg.ds.num_times - 1;
        let (tx, rx) = std::sync::mpsc::channel();
        reg.handle_predict_group(vec![PredictJob {
            model: "a".into(),
            s: 0,
            r: 0,
            t: t0,
            k: 3,
            deadline: Instant::now() + std::time::Duration::from_secs(30),
            enqueued_at: Instant::now(),
            reply: tx,
        }]);
        rx.recv().unwrap().unwrap();
        assert!(cached(&reg, 0, t0));

        // Model b ingests at the head with update:true. Its own cache is
        // cleared by the weight update, but model a's historical entry is
        // carried into the next generation — the clear is scoped to the
        // adapted model.
        let head = reg.ds.num_times;
        let idx_b = reg.entry_index("b").unwrap();
        let outcome = reg.apply_ingest(idx_b, head, &[(0, 0, 1), (1, 1, 2)], true);
        assert!(outcome.updated, "online adaptation should have stepped");
        assert!(
            cached(&reg, 0, t0),
            "model a's cache must survive model b's update:true ingest"
        );

        // The streaming invariant held throughout: every state and the
        // shared history index cover the (now extended) full timeline, and
        // so does what readers load.
        for entry in &reg.entries {
            assert_eq!(entry.state.horizon, reg.ds.num_times);
        }
        assert_eq!(outcome.horizon, head + 1);
        assert_eq!(reg.publisher.load().horizon(), head + 1);
    }

    #[test]
    fn a_noisy_config_is_refused_with_a_typed_error() {
        let err = build(vec![ModelSpec {
            name: "noisy".into(),
            cfg: LogClConfig {
                noise: logcl_tkg::NoiseSpec::with_std(0.5),
                ..tiny_cfg()
            },
            checkpoint: None,
            train: None,
        }])
        .err()
        .expect("a noisy config must be refused");
        assert!(
            matches!(&err, StartError::NoisyModel { model } if model == "noisy"),
            "{err}"
        );
    }

    #[test]
    fn accepts_matching_checkpoint_and_publishes_horizon() {
        let ds = tiny_ds();
        let model = LogCl::new(&ds, tiny_cfg());
        let ckpt = logcl_tensor::serialize::snapshot_with_meta(
            &model.params,
            "LogCL",
            &tiny_cfg().fingerprint(),
        );
        let horizon = Arc::new(AtomicUsize::new(0));
        let reg = Registry::build(
            tiny_ds(),
            vec![ModelSpec {
                name: "default".into(),
                cfg: tiny_cfg(),
                checkpoint: Some(ckpt),
                train: None,
            }],
            Arc::new(Metrics::default()),
            horizon.clone(),
            options(),
            Arc::new(OverloadState::new(
                crate::shed::OverloadPolicy::default(),
                Arc::new(Metrics::default()),
            )),
        )
        .unwrap();
        assert_eq!(reg.model_names(), vec!["default".to_string()]);
        assert_eq!(horizon.load(Ordering::SeqCst), reg.ds.num_times);
    }
}
