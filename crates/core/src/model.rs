//! The assembled LogCL model (Fig. 3).

use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

use logcl_gnn::ConvTransE;
use logcl_tensor::autograd::no_grad;
use logcl_tensor::nn::{uninitialised, Embedding, Mlp, ParamSet};
use logcl_tensor::optim::Adam;
use logcl_tensor::{Rng, Tensor, Var};
use logcl_tkg::quad::Quad;
use logcl_tkg::{HistoryIndex, Snapshot, TkgDataset};

use crate::api::{EvalContext, TkgModel, TrainOptions};
use crate::config::LogClConfig;
use crate::contrast::contrastive_loss;
use crate::global_encoder::{GlobalEncoder, GlobalEncoding};
use crate::local_encoder::{EncoderState, LocalEncoder, LocalEncoding};
use crate::static_graph::StaticGraph;
use crate::trainer;

/// Runs one forward: a training pass records the autograd graph, an
/// evaluation pass — which nothing will ever call `backward()` on — runs the
/// same ops under [`no_grad`] and keeps values only.
fn recording_if<T>(training: bool, forward: impl FnOnce() -> T) -> T {
    if training {
        forward()
    } else {
        no_grad(forward)
    }
}

/// Query-independent encodings shared by the two propagation phases at one
/// timestamp (the local recurrent encoding never sees the queries, so
/// re-computing it per phase would only waste work). Encoded with
/// `training == false` it is values and nothing else: every matrix in
/// `local` is a constant leaf, and `h0` is the live entity table's handle
/// (or a constant copy of it when noise or the static graph refined it).
///
/// It also keeps what an evaluation-mode forward derives from those values
/// alone: the Eq. 18 operand `h_final[lo..hi]ᵀ` (`[D, hi − lo]`), laid out
/// by the first forward that asks for the range and read by every later one
/// — `(hi − lo)·D·4` bytes beside the entry's `2m·|E|·D·4`, dropped with
/// it. A forward over another range lays out again and keeps the newer one.
/// Only a *constant* `h_final` is laid out. Where `h_final` is the live
/// entity table itself (`t_q = 0`: the window is empty, so the evolved
/// matrix is the table's own handle) or a recorded node (encoded with
/// `training == true`), each forward slices and transposes for itself as a
/// training pass does — so an encoding held across an optimizer step still
/// reads the stepped table through `h0` and, at `t_q = 0`, through the
/// candidates, exactly as before the layout was kept.
///
/// One thawed from a [`FrozenEncoding`] keeps its layout in the frozen
/// form instead, where every thread's forward reads it.
pub struct SharedEncoding {
    /// The (possibly noise-perturbed) initial entity embeddings used by
    /// this forward pass.
    pub h0: Var,
    /// The local recurrent encoding, when the local encoder is enabled.
    pub local: Option<LocalEncoding>,
    /// The timestamp encoded for.
    pub t_q: usize,
    layout: Kept,
}

/// Where a [`SharedEncoding`]'s candidate layout lives.
enum Kept {
    /// `(lo, hi)` and `local.h_final[lo..hi]ᵀ`, once a forward has asked.
    Here(RefCell<Option<((usize, usize), Var)>>),
    /// In the frozen encoding this one was thawed from.
    Frozen(Arc<FrozenEncoding>),
}

impl SharedEncoding {
    fn new(h0: Var, local: Option<LocalEncoding>, t_q: usize) -> Self {
        Self {
            h0,
            local,
            t_q,
            layout: Kept::Here(RefCell::default()),
        }
    }

    /// `h_final[lo..hi]ᵀ` as the constant the scoring product reads: the
    /// same `gather_rows` and `transpose2` kernels a per-query pass runs,
    /// so the operand's values — and every logit's reduction over them — are
    /// the ones that pass would have produced.
    fn candidate_layout(&self, h_final: &Var, range: (usize, usize)) -> Var {
        let lay_out = || {
            let ids: Vec<usize> = (range.0..range.1).collect();
            h_final.value().gather_rows(&ids).transpose2()
        };
        match &self.layout {
            Kept::Here(cell) => {
                let mut kept = cell.borrow_mut();
                if let Some((_, operand)) = kept.as_ref().filter(|(of, _)| *of == range) {
                    return operand.clone();
                }
                let operand = Var::constant(lay_out());
                *kept = Some((range, operand.clone()));
                operand
            }
            Kept::Frozen(frozen) => {
                let (of, operand) = frozen.layout.get_or_init(|| (range, lay_out()));
                Var::constant(if *of == range {
                    operand.clone()
                } else {
                    lay_out()
                })
            }
        }
    }

    /// The values of this encoding as a [`FrozenEncoding`], with the layout
    /// a forward already kept (if any).
    pub fn freeze(&self) -> FrozenEncoding {
        let layout = OnceLock::new();
        if let Kept::Here(cell) = &self.layout {
            if let Some((range, operand)) = cell.borrow().as_ref() {
                let _ = layout.set((*range, operand.to_tensor()));
            }
        }
        let values = |vars: &[Var]| vars.iter().map(Var::to_tensor).collect();
        FrozenEncoding {
            h0: self.h0.to_tensor(),
            local: self.local.as_ref().map(|enc| FrozenLocal {
                h_final: enc.h_final.to_tensor(),
                rel_final: enc.rel_final.to_tensor(),
                aggs: values(&enc.aggs),
                evolved: values(&enc.evolved),
            }),
            t_q: self.t_q,
            layout,
        }
    }
}

/// The values of a [`SharedEncoding`], `Send + Sync`: what every thread's
/// evaluation forward at `t_q` reads. Freezing and thawing share storage
/// (tensors are copy-on-write), so either costs a reference count per
/// matrix. The candidate layout is kept here, laid out by the first forward
/// on any thread and read by every later one; a forward over another range
/// than the kept one lays its operand out for itself.
pub struct FrozenEncoding {
    h0: Tensor,
    local: Option<FrozenLocal>,
    t_q: usize,
    layout: OnceLock<((usize, usize), Tensor)>,
}

struct FrozenLocal {
    h_final: Tensor,
    rel_final: Tensor,
    aggs: Vec<Tensor>,
    evolved: Vec<Tensor>,
}

impl FrozenEncoding {
    /// The encoding as constant leaves for a forward on this thread.
    pub fn thaw(self: &Arc<Self>) -> SharedEncoding {
        let leaves = |values: &[Tensor]| values.iter().cloned().map(Var::constant).collect();
        SharedEncoding {
            h0: Var::constant(self.h0.clone()),
            local: self.local.as_ref().map(|enc| LocalEncoding {
                h_final: Var::constant(enc.h_final.clone()),
                rel_final: Var::constant(enc.rel_final.clone()),
                aggs: leaves(&enc.aggs),
                evolved: leaves(&enc.evolved),
            }),
            t_q: self.t_q,
            layout: Kept::Frozen(Arc::clone(self)),
        }
    }
}

/// Every parameter of a [`LogCl`] with the configuration that shapes them,
/// `Send + Sync`: what [`LogCl::from_frozen`] rebuilds a model from. A
/// freeze costs a reference count per tensor, and an optimizer step on the
/// model afterwards copies what it writes rather than change the snapshot.
pub struct FrozenWeights {
    cfg: LogClConfig,
    params: Vec<(String, Tensor)>,
}

thread_local! {
    /// This thread's models rebuilt from frozen weights, keyed by the
    /// weights' identity.
    static REPLICAS: RefCell<Vec<(Arc<FrozenWeights>, LogCl)>> = const { RefCell::new(Vec::new()) };
}

impl FrozenWeights {
    /// Runs `f` on this thread's model rebuilt from these weights, building
    /// it on first use. A replica lives as long as someone else still holds
    /// its weights: a build drops every replica whose weights only this
    /// thread still refers to.
    pub fn with_replica<T>(
        self: &Arc<Self>,
        ds: &TkgDataset,
        f: impl FnOnce(&mut LogCl) -> T,
    ) -> T {
        REPLICAS.with(|cell| {
            let mut replicas = cell.borrow_mut();
            let at = match replicas.iter().position(|(w, _)| Arc::ptr_eq(w, self)) {
                Some(at) => at,
                None => {
                    replicas.retain(|(w, _)| Arc::strong_count(w) > 1);
                    replicas.push((Arc::clone(self), LogCl::from_frozen(ds, self)));
                    replicas.len() - 1
                }
            };
            f(&mut replicas[at].1)
        })
    }
}

/// One phase's forward outputs.
pub struct ForwardOutput {
    /// `[B, |E|]` entity logits.
    pub logits: Var,
    /// `[B, D]` ConvTransE prediction vectors the logits were scored from.
    pub decoded: Var,
    /// The contrastive loss `L_cl`, when the contrast module ran.
    pub contrast: Option<Var>,
}

/// The LogCL model.
pub struct LogCl {
    /// Configuration (ablation switches included).
    pub cfg: LogClConfig,
    /// Every trainable parameter, for optimizers and checkpointing.
    pub params: ParamSet,
    ent: Embedding,
    rel: Embedding,
    local: LocalEncoder,
    global: GlobalEncoder,
    mlp_local: Mlp,
    mlp_global: Mlp,
    decoder: ConvTransE,
    static_graph: Option<StaticGraph>,
    rng: Rng,
    pub(crate) opt: Option<Adam>,
    pub(crate) opt_options: TrainOptions,
}

impl LogCl {
    /// Rebuilds the model `weights` were frozen from, for evaluation: the
    /// same modules over `ds`'s vocabulary (and static graph), every
    /// parameter set to its frozen value with no initialisation drawn
    /// first. Its RNG starts from the config's seed, which an evaluation
    /// forward draws from only under a noisy config.
    pub fn from_frozen(ds: &TkgDataset, weights: &FrozenWeights) -> Self {
        let model = uninitialised(|| Self::new(ds, weights.cfg.clone()));
        assert_eq!(model.params.len(), weights.params.len());
        for ((name, var), (frozen, value)) in model.params.iter().zip(&weights.params) {
            assert_eq!(name, frozen, "frozen weights come from another config");
            var.set_value(value.clone());
        }
        model
    }

    /// Every parameter's current value, for [`LogCl::from_frozen`].
    pub fn freeze(&self) -> FrozenWeights {
        FrozenWeights {
            cfg: self.cfg.clone(),
            params: self
                .params
                .iter()
                .map(|(name, var)| (name.to_string(), var.to_tensor()))
                .collect(),
        }
    }

    /// Builds a model sized for `ds` (entity/relation vocabulary) under
    /// `cfg`.
    pub fn new(ds: &TkgDataset, cfg: LogClConfig) -> Self {
        cfg.validate();
        let mut rng = Rng::seed(cfg.seed);
        let dim = cfg.dim;
        let ent = Embedding::new(ds.num_entities, dim, &mut rng);
        let rel = Embedding::new(ds.num_rels_with_inverse(), dim, &mut rng);
        let local = LocalEncoder::new(&cfg, &mut rng);
        let global = GlobalEncoder::new(&cfg, &mut rng);
        let mlp_local = Mlp::new(2 * dim, dim, dim, true, &mut rng);
        let mlp_global = Mlp::new(2 * dim, dim, dim, true, &mut rng);
        let decoder = ConvTransE::new(dim, cfg.channels, cfg.dropout, &mut rng);
        let static_graph = if cfg.use_static {
            StaticGraph::new(ds, dim, &mut rng)
        } else {
            None
        };

        let mut params = ParamSet::new();
        ent.register(&mut params, "ent");
        rel.register(&mut params, "rel");
        if cfg.use_local {
            local.register(&mut params, "local");
        }
        if cfg.use_global {
            global.register(&mut params, "global");
        }
        if cfg.use_contrast && cfg.use_local && cfg.use_global {
            mlp_local.register(&mut params, "mlp_local");
            mlp_global.register(&mut params, "mlp_global");
        }
        decoder.register(&mut params, "decoder");
        if let Some(sg) = &static_graph {
            sg.register(&mut params, "static");
        }

        Self {
            cfg,
            params,
            ent,
            rel,
            local,
            global,
            mlp_local,
            mlp_global,
            decoder,
            static_graph,
            rng,
            opt: None,
            opt_options: TrainOptions::default(),
        }
    }

    /// Number of scalar trainable weights.
    pub fn num_weights(&self) -> usize {
        self.params.num_weights()
    }

    /// Snapshots the model's RNG (dropout masks, noise draws) so a resumed
    /// run continues the exact random stream an uninterrupted one would.
    pub fn rng_state(&self) -> logcl_tensor::rng::RngState {
        self.rng.state()
    }

    /// Restores a previously captured RNG state.
    pub fn restore_rng_state(&mut self, state: logcl_tensor::rng::RngState) {
        self.rng.restore(state);
    }

    /// The initial entity embeddings for one forward pass: the trainable
    /// table, plus fresh Gaussian noise when the config asks for perturbed
    /// inputs (Figs. 2 & 5).
    fn initial_entities(&mut self) -> Var {
        let base = if self.cfg.noise.is_clean() {
            // Plain handle: gradients flow straight into the table.
            self.ent.weight.clone()
        } else {
            let shape = self.ent.weight.shape();
            let noise = Tensor::randn(&shape, self.cfg.noise.std, &mut self.rng);
            self.ent.weight.add(&Var::constant(noise))
        };
        match &self.static_graph {
            Some(sg) => sg.refine(&base),
            None => base,
        }
    }

    /// Runs the query-independent encoders for queries at `t_q`.
    pub fn encode(&mut self, snapshots: &[Snapshot], t_q: usize, training: bool) -> SharedEncoding {
        recording_if(training, || {
            let h0 = self.initial_entities();
            let local = if self.cfg.use_local {
                Some(self.local.encode(
                    &h0,
                    &self.rel.weight,
                    snapshots,
                    t_q,
                    self.cfg.m,
                    training,
                    &mut self.rng,
                ))
            } else {
                None
            };
            SharedEncoding::new(h0, local, t_q)
        })
    }

    /// Builds a fresh streaming state and advances it over every snapshot —
    /// the deterministic rebuild used at boot (no persisted state) and
    /// after a weight update (the GRU is not invertible, so new weights
    /// mean a new stream). Routes through the same
    /// [`LogCl::advance_encoder_state`] ops as live serving so a rebuilt
    /// state is bit-identical to an incrementally grown one.
    pub fn init_encoder_state(&mut self, snapshots: &[Snapshot]) -> EncoderState {
        let h0 = self.initial_entities().to_tensor();
        let rel0 = self.rel.weight.to_tensor();
        let mut state = self
            .local
            .init_state(&h0, &rel0, self.cfg.m, self.cfg.use_local);
        for snap in snapshots {
            self.advance_encoder_state(&mut state, snap);
        }
        state
    }

    /// Consumes one closed snapshot into the streaming state — O(Δ), no
    /// RNG, no gradient graph retained.
    pub fn advance_encoder_state(&self, state: &mut EncoderState, snap: &Snapshot) {
        self.local
            .advance_state(state, &self.rel.weight.to_tensor(), snap);
    }

    /// Reads a streaming state out as the [`SharedEncoding`] for one-step
    /// forecast queries at `t = state.horizon`, without touching the
    /// snapshot history.
    pub fn shared_from_state(&self, state: &EncoderState) -> SharedEncoding {
        SharedEncoding::new(
            Var::constant(state.h0.clone()),
            state.local.then(|| self.local.encoding_from_state(state)),
            state.horizon,
        )
    }

    /// One propagation phase: scores `queries` (all at `shared.t_q`)
    /// against every entity and, in training, computes the contrastive
    /// loss. The global encoder reads `history.as_of(shared.t_q)`, so the
    /// index may know facts at or after `t_q` — they are never seen.
    pub fn forward_queries(
        &mut self,
        shared: &SharedEncoding,
        history: &HistoryIndex,
        queries: &[Quad],
        training: bool,
    ) -> ForwardOutput {
        self.forward_queries_impl(shared, history, queries, training, false, None)
    }

    /// [`LogCl::forward_queries`] with the global two-hop encoder skipped:
    /// the decoder input falls back to the pure local representation (the
    /// λ-mixture of Eq. 19 collapses to its local term) and the candidate
    /// matrix stays the local evolved entity matrix of Eq. 18 — the paper's
    /// −G ablation, evaluated on a model trained with both encoders. Nothing
    /// serves it: it is the path the golden `LocalOnly` rows pin and the
    /// benchmark times. The skip is a no-op when the configuration has no
    /// local encoder (there would be nothing to fall back to) or no global
    /// encoder (nothing to skip).
    pub fn forward_queries_local_only(
        &mut self,
        shared: &SharedEncoding,
        history: &HistoryIndex,
        queries: &[Quad],
    ) -> ForwardOutput {
        self.forward_queries_impl(shared, history, queries, false, true, None)
    }

    /// The serving entry point: evaluation-mode scoring, as
    /// [`LogCl::forward_queries`], restricted to the candidate entities in
    /// `[lo, hi)`. The Eq. 18
    /// scoring matmul reads the candidate rows `[lo, hi)` only, so a worker
    /// owning one entity shard computes only its share of the decoder's
    /// work; each logit's reduction runs over the embedding dimension
    /// alone, so column `j` of the result is bit-identical to column
    /// `lo + j` of the full logits. The operand of that product —
    /// the rows sliced and transposed to `[D, hi − lo]` — is laid out by the
    /// first call on `shared` for the range and kept there
    /// (`(hi − lo)·D·4` bytes; see [`SharedEncoding`]), so a later call pays
    /// for the product alone; an unsharded node is shard 0 of 1 and keeps
    /// the whole matrix's transpose. The range must be non-empty and within
    /// `|E|`.
    pub fn forward_queries_in_range(
        &mut self,
        shared: &SharedEncoding,
        history: &HistoryIndex,
        queries: &[Quad],
        entity_range: (usize, usize),
    ) -> ForwardOutput {
        self.forward_queries_impl(shared, history, queries, false, false, Some(entity_range))
    }

    fn forward_queries_impl(
        &mut self,
        shared: &SharedEncoding,
        history: &HistoryIndex,
        queries: &[Quad],
        training: bool,
        skip_global: bool,
        range: Option<(usize, usize)>,
    ) -> ForwardOutput {
        recording_if(training, || {
            self.forward_phase(shared, history, queries, training, skip_global, range)
        })
    }

    fn forward_phase(
        &mut self,
        shared: &SharedEncoding,
        history: &HistoryIndex,
        queries: &[Quad],
        training: bool,
        skip_global: bool,
        entity_range: Option<(usize, usize)>,
    ) -> ForwardOutput {
        assert!(!queries.is_empty(), "forward_queries on empty batch");
        // Only honour the skip when a local encoding exists to fall back
        // to; otherwise degrading would leave no representation at all.
        let skip_global = skip_global && shared.local.is_some();
        let subjects: Vec<usize> = queries.iter().map(|q| q.s).collect();
        let rels: Vec<usize> = queries.iter().map(|q| q.r).collect();
        let cfg = &self.cfg;

        // ---------------------------------------------------------- local
        // The query representation travels with the encoding it was read
        // from, so later stages never have to re-prove "rep implies
        // encoding" with an expect.
        let (local_ctx, r_dec) = match &shared.local {
            Some(enc) => {
                let rep = self.local.query_representation(
                    enc,
                    &subjects,
                    &rels,
                    cfg.use_entity_attention,
                );
                (Some((enc, rep)), enc.rel_final.gather_rows(&rels))
            }
            None => (None, self.rel.weight.gather_rows(&rels)),
        };

        // --------------------------------------------------------- global
        let global_ctx: Option<(GlobalEncoding, _)> = if cfg.use_global && !skip_global {
            let pairs: Vec<(usize, usize)> =
                subjects.iter().copied().zip(rels.iter().copied()).collect();
            let enc = self.global.encode(
                &shared.h0,
                &self.rel.weight,
                history.as_of(shared.t_q),
                &pairs,
            );
            let rep = self.global.query_representation(
                &enc,
                &shared.h0,
                &subjects,
                cfg.use_entity_attention,
            );
            Some((enc, rep))
        } else {
            None
        };

        // ------------------------------------------------ fusion (Eq. 19)
        // λ is the *local* share (Fig. 8: "a larger value of λ indicates a
        // higher proportion of the local encoder"). Per Eq. 18 the candidate
        // matrix is the local evolved entity matrix `H_{t_q}`; only the
        // decoder input ĥ is the λ-mixture.
        let lambda = cfg.lambda;
        let (h_q, candidates) = match (&local_ctx, &global_ctx) {
            (Some((enc_l, l)), Some((_, g))) => {
                let h_q = l.scale(lambda).add(&g.scale(1.0 - lambda));
                (h_q, enc_l.h_final.clone())
            }
            (Some((enc_l, l)), None) => (l.clone(), enc_l.h_final.clone()),
            // LogCL-G: the candidates are `H_g` itself — the one variant
            // whose global encoding has a row for every entity.
            (None, Some((enc_g, g))) => {
                assert_eq!(enc_g.rows.len(), shared.h0.shape()[0]);
                (g.clone(), enc_g.h_agg.clone())
            }
            // logcl-allow(L002): LogClConfig validation rejects configs with no encoder; both-None is unrepresentable here
            (None, None) => unreachable!("config validation requires an encoder"),
        };

        // -------------------------------------------- decoding (Eq. 18)
        // Entity sharding scores against the candidate rows `[lo, hi)`
        // only: per-entity logits are dot products over the embedding
        // dimension, so shard-local columns match the unsharded ones
        // bit-for-bit while the compute shrinks to the shard's share. In
        // evaluation the local candidates are a function of the encoding
        // alone, which keeps their sliced, transposed form; what is left
        // per query is the product.
        let decoded = self.decoder.decode(&h_q, &r_dec, training, &mut self.rng);
        let whole = (0, candidates.shape()[0]);
        let range = entity_range.unwrap_or(whole);
        let constant = candidates.is_leaf() && !candidates.is_param();
        let logits = if !training && local_ctx.is_some() && constant {
            decoded.matmul(&shared.candidate_layout(&candidates, range))
        } else if range == whole {
            self.decoder.score_all(&decoded, &candidates)
        } else {
            let ids: Vec<usize> = (range.0..range.1).collect();
            self.decoder
                .score_all(&decoded, &candidates.gather_rows(&ids))
        };

        // ------------------------------------- contrast (Eq. 15–17)
        let contrast = match (&local_ctx, &global_ctx) {
            (Some((enc_l, _)), Some((enc_g, _))) if training && cfg.use_contrast => {
                // Eq. 15: z_t from the aggregated local view and evolved
                // relations; Eq. 16: z_g from the aggregated global view and
                // static relations.
                let local_view = match enc_l.aggs.last() {
                    Some(agg) => agg.gather_rows(&subjects),
                    None => enc_l.h_final.gather_rows(&subjects),
                };
                let z_l = self.mlp_local.forward(&local_view.concat_cols(&r_dec));
                let g_view = enc_g.gather(&subjects);
                let r_static = self.rel.weight.gather_rows(&rels);
                let z_g = self.mlp_global.forward(&g_view.concat_cols(&r_static));
                Some(contrastive_loss(&z_l, &z_g, cfg.tau, cfg.contrast))
            }
            _ => None,
        };

        ForwardOutput {
            logits,
            decoded,
            contrast,
        }
    }

    /// Scores one batch of queries at `t` under evaluation semantics
    /// (no dropout; noise still applied when configured, since the
    /// robustness studies perturb test-time inputs too).
    pub fn score_queries(
        &mut self,
        snapshots: &[Snapshot],
        history: &HistoryIndex,
        queries: &[Quad],
        t: usize,
    ) -> Vec<Vec<f32>> {
        if queries.is_empty() {
            return Vec::new();
        }
        let shared = self.encode(snapshots, t, false);
        let out = self.forward_queries(&shared, history, queries, false);
        let logits = out.logits.to_tensor();
        (0..queries.len()).map(|i| logits.row(i).to_vec()).collect()
    }
}

impl TkgModel for LogCl {
    fn name(&self) -> String {
        self.cfg.variant_name()
    }

    fn fit(
        &mut self,
        ds: &TkgDataset,
        opts: &TrainOptions,
    ) -> Result<trainer::TrainReport, crate::checkpoint::TrainError> {
        trainer::train(self, ds, opts)
    }

    fn score(&mut self, ctx: &EvalContext<'_>, queries: &[Quad]) -> Vec<Vec<f32>> {
        self.score_queries(ctx.snapshots, ctx.history, queries, ctx.t)
    }

    fn online_update(&mut self, ctx: &EvalContext<'_>, quads: &[Quad]) {
        trainer::online_step(self, ctx, quads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logcl_tkg::SyntheticPreset;

    fn tiny_ds() -> TkgDataset {
        SyntheticPreset::Icews14.generate_scaled(0.15)
    }

    fn tiny_cfg() -> LogClConfig {
        LogClConfig {
            dim: 16,
            time_bank: 4,
            channels: 6,
            m: 3,
            ..Default::default()
        }
    }

    #[test]
    fn builds_and_counts_weights() {
        let ds = tiny_ds();
        let model = LogCl::new(&ds, tiny_cfg());
        assert!(model.num_weights() > 1000);
        assert_eq!(model.name(), "LogCL");
    }

    #[test]
    fn forward_shapes_and_contrast_presence() {
        let ds = tiny_ds();
        let mut model = LogCl::new(&ds, tiny_cfg());
        let snaps = ds.snapshots();
        let t = 10;
        let history = HistoryIndex::build(&snaps);
        let queries: Vec<Quad> = ds
            .train
            .iter()
            .filter(|q| q.t == t)
            .take(5)
            .copied()
            .collect();
        assert!(!queries.is_empty());
        let shared = model.encode(&snaps, t, true);
        let out = model.forward_queries(&shared, &history, &queries, true);
        assert_eq!(out.logits.shape(), vec![queries.len(), ds.num_entities]);
        assert!(
            out.contrast.is_some(),
            "full model must produce L_cl in training"
        );
        // Eval mode: no contrast.
        let out_eval = model.forward_queries(&shared, &history, &queries, false);
        assert!(out_eval.contrast.is_none());
    }

    /// The leakage rule lives in `forward_queries`: an index that knows the
    /// whole timeline scores exactly as the prefix built alone does.
    #[test]
    fn forward_reads_history_as_of_the_query_time() {
        let ds = tiny_ds();
        let mut model = LogCl::new(&ds, tiny_cfg());
        let snaps = ds.snapshots();
        let t = 10;
        let whole = HistoryIndex::build(&snaps);
        let prefix = HistoryIndex::build(&snaps[..t]);
        let queries: Vec<Quad> = ds.train.iter().filter(|q| q.t == t).copied().collect();
        assert!(
            queries.iter().any(|q| {
                let cap = model.cfg.max_subgraph_edges;
                whole.query_subgraph(q.s, q.r, cap).edges
                    != prefix.query_subgraph(q.s, q.r, cap).edges
            }),
            "the later facts must matter for the comparison to mean anything"
        );
        let shared = model.encode(&snaps, t, false);
        let bits = |out: ForwardOutput| -> Vec<u32> {
            let logits = out.logits.to_tensor();
            logits.data().iter().map(|v| v.to_bits()).collect()
        };
        let from_whole = bits(model.forward_queries(&shared, &whole, &queries, false));
        let from_prefix = bits(model.forward_queries(&shared, &prefix, &queries, false));
        assert_eq!(from_whole, from_prefix);
    }

    fn queries_at(ds: &TkgDataset, t: usize, n: usize) -> Vec<Quad> {
        let queries: Vec<Quad> = ds
            .train
            .iter()
            .filter(|q| q.t == t)
            .take(n)
            .copied()
            .collect();
        assert!(!queries.is_empty());
        queries
    }

    /// An evaluation-mode pass hands back values with no graph behind them:
    /// what `logcl serve` caches per timestamp is its tensors and nothing
    /// else.
    #[test]
    fn evaluation_outputs_are_leaves() {
        let ds = tiny_ds();
        let mut model = LogCl::new(&ds, tiny_cfg());
        let snaps = ds.snapshots();
        let history = HistoryIndex::build(&snaps);
        let queries = queries_at(&ds, 10, 5);

        let shared = model.encode(&snaps, 10, false);
        let local = shared
            .local
            .as_ref()
            .expect("the full model has a local encoder");
        assert_eq!(local.aggs.len(), 3);
        assert!(shared.h0.is_leaf() && local.h_final.is_leaf() && local.rel_final.is_leaf());
        assert!(local.aggs.iter().chain(&local.evolved).all(Var::is_leaf));
        assert!(
            model
                .forward_queries(&shared, &history, &queries, false)
                .logits
                .is_leaf(),
            "forward_queries(.., false)"
        );
        assert!(
            model
                .forward_queries_in_range(&shared, &history, &queries, (3, 40))
                .logits
                .is_leaf(),
            "forward_queries_in_range"
        );

        // The same calls in training mode still record.
        let shared = model.encode(&snaps, 10, true);
        let local = shared.local.as_ref().expect("local encoder");
        assert!(!local.h_final.is_leaf());
        assert!(!model
            .forward_queries(&shared, &history, &queries, true)
            .logits
            .is_leaf());
    }

    /// The layout is built by the first forward over a range and by nothing
    /// after it: the buffer a second forward reads is the very allocation
    /// the first one made — whichever thaw of the frozen encoding, and
    /// whichever thread, ran either forward. Another range (the whole one,
    /// with or without the global encoder) is laid out for its own forward
    /// and leaves the kept one alone; in the
    /// unfrozen form it replaces it, and a parameter-backed or recorded
    /// candidate matrix never gets one.
    #[test]
    fn a_second_forward_on_the_same_encoding_lays_nothing_out() {
        let ds = tiny_ds();
        let mut model = LogCl::new(&ds, tiny_cfg());
        let snaps = ds.snapshots();
        let history = HistoryIndex::build(&snaps);
        let queries = queries_at(&ds, 10, 5);
        let kept = |frozen: &FrozenEncoding| {
            frozen
                .layout
                .get()
                .map(|(range, operand)| (*range, operand.data().as_ptr() as usize))
        };

        let frozen = Arc::new(model.encode(&snaps, 10, false).freeze());
        assert!(
            kept(&frozen).is_none(),
            "nothing is laid out before it is asked for"
        );
        model.forward_queries_in_range(&frozen.thaw(), &history, &queries, (3, 40));
        let first = kept(&frozen).expect("the first forward lays the range out");
        assert_eq!(first.0, (3, 40));
        model.forward_queries_in_range(&frozen.thaw(), &history, &queries[..1], (3, 40));
        let weights = Arc::new(model.freeze());
        std::thread::scope(|scope| {
            scope.spawn(|| {
                weights.with_replica(&ds, |replica| {
                    replica.forward_queries_in_range(&frozen.thaw(), &history, &queries, (3, 40))
                });
            });
        });
        assert_eq!(kept(&frozen), Some(first));
        model.forward_queries(&frozen.thaw(), &history, &queries, false);
        model.forward_queries_local_only(&frozen.thaw(), &history, &queries);
        assert_eq!(kept(&frozen), Some(first), "another range keeps nothing");

        let shared = model.encode(&snaps, 10, false);
        model.forward_queries_in_range(&shared, &history, &queries, (3, 40));
        model.forward_queries(&shared, &history, &queries, false);
        let replaced = shared.freeze();
        assert_eq!(
            replaced.layout.get().map(|(range, _)| *range),
            Some((0, ds.num_entities)),
            "unfrozen, another range replaces the kept one"
        );
        let at_zero = model.encode(&snaps, 0, false);
        model.forward_queries(&at_zero, &history, &queries_at(&ds, 0, 2), false);
        assert!(
            at_zero.freeze().layout.get().is_none(),
            "h_final is the live table at t_q = 0"
        );
        let recorded = model.encode(&snaps, 10, true);
        model.forward_queries(&recorded, &history, &queries, false);
        model.forward_queries(&recorded, &history, &queries, true);
        assert!(recorded.freeze().layout.get().is_none());
    }

    /// A replica rebuilt from frozen weights scores what the model scored
    /// when it was frozen, to the bit — also after the model takes an
    /// optimizer step, which copies what it writes instead of changing the
    /// snapshot — and both frozen forms can cross threads.
    #[test]
    fn a_replica_of_frozen_weights_scores_the_bits_of_the_model_it_was_frozen_from() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<FrozenWeights>();
        send_sync::<FrozenEncoding>();
        let ds = tiny_ds();
        let mut model = LogCl::new(&ds, tiny_cfg());
        let snaps = ds.snapshots();
        let history = HistoryIndex::build(&snaps);
        let queries = queries_at(&ds, 10, 5);
        let bits = |out: ForwardOutput| -> Vec<u32> {
            out.logits
                .to_tensor()
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        let encoding = Arc::new(model.encode(&snaps, 10, false).freeze());
        let before = bits(model.forward_queries(&encoding.thaw(), &history, &queries, false));
        let weights = Arc::new(model.freeze());

        let targets: Vec<usize> = queries.iter().map(|q| q.o).collect();
        let mut opt = Adam::new(&model.params, 1e-2);
        let shared = model.encode(&snaps, 10, true);
        let out = model.forward_queries(&shared, &history, &queries, true);
        out.logits.cross_entropy(&targets).backward();
        opt.step();
        let stepped = bits(model.forward_queries(&encoding.thaw(), &history, &queries, false));
        assert_ne!(stepped, before, "the step must change the live model");

        let replayed = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    weights.with_replica(&ds, |replica| {
                        let replica_encoding = Arc::new(replica.encode(&snaps, 10, false).freeze());
                        (
                            bits(replica.forward_queries(
                                &encoding.thaw(),
                                &history,
                                &queries,
                                false,
                            )),
                            bits(replica.forward_queries(
                                &replica_encoding.thaw(),
                                &history,
                                &queries,
                                false,
                            )),
                        )
                    })
                })
                .join()
                .expect("replica thread")
        });
        assert_eq!(replayed.0, before);
        assert_eq!(replayed.1, before, "a replica's own encode is the model's");
    }

    /// A training pass still back-propagates into every registered
    /// parameter — all 40 of them, the count at the parent of the change
    /// that stopped inference recording — also right after an evaluation
    /// pass has entered and left its scope.
    #[test]
    fn a_training_pass_still_reaches_every_registered_parameter() {
        let ds = tiny_ds();
        let mut model = LogCl::new(&ds, tiny_cfg());
        let snaps = ds.snapshots();
        let history = HistoryIndex::build(&snaps);
        let queries = queries_at(&ds, 10, 5);
        let targets: Vec<usize> = queries.iter().map(|q| q.o).collect();
        model.score_queries(&snaps, &history, &queries, 10);
        let shared = model.encode(&snaps, 10, true);
        let out = model.forward_queries(&shared, &history, &queries, true);
        let contrast = out.contrast.expect("the full model trains with L_cl");
        out.logits.cross_entropy(&targets).add(&contrast).backward();
        let with_gradient = model.params.iter().filter(|(_, v)| v.grad().is_some());
        assert_eq!(with_gradient.count(), 40);
        assert_eq!(model.params.len(), 40);
    }

    #[test]
    fn ablations_change_parameter_sets() {
        let ds = tiny_ds();
        let full = LogCl::new(&ds, tiny_cfg());
        let no_global = LogCl::new(&ds, tiny_cfg().without_global());
        let no_cl = LogCl::new(&ds, tiny_cfg().without_contrast());
        assert!(no_global.num_weights() < full.num_weights());
        assert!(no_cl.num_weights() < full.num_weights());
    }

    #[test]
    fn variant_forward_paths_run() {
        let ds = tiny_ds();
        let snaps = ds.snapshots();
        let t = 8;
        let history = HistoryIndex::build(&snaps);
        let queries: Vec<Quad> = ds
            .train
            .iter()
            .filter(|q| q.t == t)
            .take(3)
            .copied()
            .collect();
        for cfg in [
            tiny_cfg().without_local(),
            tiny_cfg().without_global(),
            tiny_cfg().without_entity_attention(),
            tiny_cfg().without_contrast(),
        ] {
            let mut model = LogCl::new(&ds, cfg);
            let scores = model.score_queries(&snaps, &history, &queries, t);
            assert_eq!(scores.len(), queries.len());
            assert!(scores[0].iter().all(|v| v.is_finite()), "{}", model.name());
        }
    }

    #[test]
    fn noise_perturbs_scores() {
        let ds = tiny_ds();
        let snaps = ds.snapshots();
        let t = 8;
        let history = HistoryIndex::build(&snaps);
        let queries: Vec<Quad> = ds
            .train
            .iter()
            .filter(|q| q.t == t)
            .take(2)
            .copied()
            .collect();
        let mut clean = LogCl::new(&ds, tiny_cfg());
        let mut noisy = LogCl::new(
            &ds,
            LogClConfig {
                noise: logcl_tkg::NoiseSpec::with_std(1.0),
                ..tiny_cfg()
            },
        );
        let a = clean.score_queries(&snaps, &history, &queries, t);
        let b = noisy.score_queries(&snaps, &history, &queries, t);
        assert_ne!(a[0], b[0], "noise must perturb the forward pass");
    }

    #[test]
    fn static_graph_option_changes_model() {
        let ds = tiny_ds();
        let plain = LogCl::new(&ds, tiny_cfg());
        let with_static = LogCl::new(
            &ds,
            LogClConfig {
                use_static: true,
                ..tiny_cfg()
            },
        );
        assert!(
            with_static.num_weights() > plain.num_weights(),
            "static module must add parameters"
        );
        // And it must actually run + train.
        let mut model = with_static;
        let snaps = ds.snapshots();
        let t = 8;
        let history = HistoryIndex::build(&snaps);
        let queries: Vec<Quad> = ds
            .train
            .iter()
            .filter(|q| q.t == t)
            .take(3)
            .copied()
            .collect();
        let shared = model.encode(&snaps, t, true);
        let out = model.forward_queries(&shared, &history, &queries, true);
        out.logits.sum().backward();
        let sg_param = model
            .params
            .get("static.gnn.w1")
            .expect("static params registered");
        assert!(
            sg_param.grad().is_some(),
            "static module must receive gradients"
        );
    }

    #[test]
    fn training_step_reduces_loss_on_repeated_batch() {
        let ds = tiny_ds();
        let mut model = LogCl::new(&ds, tiny_cfg());
        let snaps = ds.snapshots();
        let t = 12;
        let history = HistoryIndex::build(&snaps);
        let queries: Vec<Quad> = ds
            .train
            .iter()
            .filter(|q| q.t == t)
            .take(8)
            .copied()
            .collect();
        let targets: Vec<usize> = queries.iter().map(|q| q.o).collect();
        let mut opt = Adam::new(&model.params, 2e-3);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..8 {
            let shared = model.encode(&snaps, t, true);
            let out = model.forward_queries(&shared, &history, &queries, true);
            let mut loss = out.logits.cross_entropy(&targets);
            if let Some(cl) = out.contrast {
                loss = loss.add(&cl);
            }
            last = loss.item();
            first.get_or_insert(last);
            loss.backward();
            opt.step();
        }
        assert!(
            last < first.unwrap(),
            "loss must decrease: {} -> {last}",
            first.unwrap()
        );
    }
}
