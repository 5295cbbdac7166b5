//! The local entity-aware attention recurrent encoder (Section III-C).
//!
//! For each of the last `m` snapshots before the query time, entities are
//! (1) fused with a periodic encoding of the interval to the query time
//! (Eq. 2–3), (2) aggregated over concurrent facts by a relational GNN
//! (Eq. 4), and (3) evolved through an entity GRU (Eq. 5) while relations
//! evolve through mean pooling + a time gate (Eq. 6–8). Entity-aware
//! attention (Eq. 9–11) then forms per-query representations that weight
//! past snapshots by their relevance to the query.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use logcl_gnn::aggregator::EdgeBatch;
use logcl_gnn::attention::mean_relation_per_query;
use logcl_gnn::{GruCell, LocalEntityAttention, RelGnn, RelationEvolution, TimeEncoder};
use logcl_tensor::autograd::no_grad;
use logcl_tensor::nn::{dropout, ParamSet};
use logcl_tensor::serialize::{CheckpointError, TensorRecord};
use logcl_tensor::{Rng, Tensor, Var};
use logcl_tkg::Snapshot;

use crate::config::LogClConfig;

/// The outputs of one local encoding pass over the last `m` snapshots.
pub struct LocalEncoding {
    /// Evolved entity matrix `H_{t_q}` (`[E, D]`).
    pub h_final: Var,
    /// Evolved relation matrix `R_{t_q}` (`[2R, D]`).
    pub rel_final: Var,
    /// Post-aggregation entity matrices, one per processed snapshot
    /// (oldest first).
    pub aggs: Vec<Var>,
    /// Post-evolution entity matrices, aligned with `aggs`.
    pub evolved: Vec<Var>,
}

/// The checkpointable streaming state of the recurrent encoder.
///
/// Where [`LocalEncoder::encode`] re-runs a *query-relative* window (each
/// step's interval is `t_q − t`, so nothing can be reused across queries),
/// the streaming state evolves the entity/relation matrices over the full
/// snapshot prefix with a *fixed unit interval* per step — the
/// evolutional-representation discipline of RE-GCN/CEN. One consumed
/// snapshot is O(Δ) work, the state is a few dense tensors plus a bounded
/// window of the last `m` (aggregated, evolved) pairs for entity-aware
/// attention, and the whole thing serialises into a snapshot record so a
/// restarted server resumes the exact float stream.
///
/// The `horizon` cursor is a watermark: each snapshot is consumed exactly
/// once, when the horizon first passes it. Late facts appended behind the
/// watermark stay visible to the windowed encode path but never rewind the
/// stream — live serving and WAL replay therefore apply the same advance
/// ops in the same order, which is what makes recovery bit-identical.
#[derive(Debug, Clone)]
pub struct EncoderState {
    /// Initial (refined) entity embeddings the stream started from (`[E, D]`).
    pub h0: Tensor,
    /// Entities evolved over `snapshots[..horizon]` (`[E, D]`).
    pub h: Tensor,
    /// Relations evolved over the same prefix (`[2R, D]`).
    pub rel: Tensor,
    /// Last `≤ m` (post-aggregation, post-evolution) pairs, oldest first.
    pub window: VecDeque<(Tensor, Tensor)>,
    /// Attention window length.
    pub m: usize,
    /// Number of snapshots consumed (the watermark).
    pub horizon: usize,
    /// Whether the local encoder is enabled; when `false` the state only
    /// tracks the watermark (LogCL-w/o-local still serves the head).
    pub local: bool,
}

/// One serialised (aggregated, evolved) attention-window pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowPairRecord {
    /// Post-aggregation entity matrix.
    pub agg: TensorRecord,
    /// Post-evolution entity matrix.
    pub evolved: TensorRecord,
}

/// Serialisable form of [`EncoderState`], embedded in serving snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncoderStateRecord {
    /// See [`EncoderState::local`].
    pub local: bool,
    /// See [`EncoderState::m`].
    pub m: usize,
    /// See [`EncoderState::horizon`].
    pub horizon: usize,
    /// See [`EncoderState::h0`].
    pub h0: TensorRecord,
    /// See [`EncoderState::h`].
    pub h: TensorRecord,
    /// See [`EncoderState::rel`].
    pub rel: TensorRecord,
    /// See [`EncoderState::window`].
    pub window: Vec<WindowPairRecord>,
}

impl EncoderState {
    /// Converts to the serialisable record.
    pub fn to_record(&self) -> EncoderStateRecord {
        EncoderStateRecord {
            local: self.local,
            m: self.m,
            horizon: self.horizon,
            h0: TensorRecord::from(&self.h0),
            h: TensorRecord::from(&self.h),
            rel: TensorRecord::from(&self.rel),
            window: self
                .window
                .iter()
                .map(|(a, e)| WindowPairRecord {
                    agg: TensorRecord::from(a),
                    evolved: TensorRecord::from(e),
                })
                .collect(),
        }
    }

    /// Rebuilds the state from a record, rejecting shape-inconsistent
    /// records instead of panicking deep in `Tensor`.
    pub fn from_record(rec: &EncoderStateRecord) -> Result<Self, CheckpointError> {
        let mut window = VecDeque::with_capacity(rec.window.len());
        for pair in &rec.window {
            window.push_back((pair.agg.try_to_tensor()?, pair.evolved.try_to_tensor()?));
        }
        Ok(Self {
            h0: rec.h0.try_to_tensor()?,
            h: rec.h.try_to_tensor()?,
            rel: rec.rel.try_to_tensor()?,
            window,
            m: rec.m,
            horizon: rec.horizon,
            local: rec.local,
        })
    }

    /// FNV-1a fingerprint over the exact bit patterns of every tensor plus
    /// the cursor fields — two states with equal fingerprints are
    /// bit-identical for every serving purpose.
    pub fn to_bits(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn mix(hash: &mut u64, word: u64) {
            *hash ^= word;
            *hash = hash.wrapping_mul(PRIME);
        }
        fn mix_tensor(hash: &mut u64, t: &Tensor) {
            for &d in t.shape() {
                mix(hash, d as u64);
            }
            for &v in t.data() {
                mix(hash, v.to_bits() as u64);
            }
        }
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        mix(&mut hash, self.local as u64);
        mix(&mut hash, self.m as u64);
        mix(&mut hash, self.horizon as u64);
        mix_tensor(&mut hash, &self.h0);
        mix_tensor(&mut hash, &self.h);
        mix_tensor(&mut hash, &self.rel);
        for (a, e) in &self.window {
            mix_tensor(&mut hash, a);
            mix_tensor(&mut hash, e);
        }
        hash
    }
}

/// The recurrent encoder.
pub struct LocalEncoder {
    time_enc: TimeEncoder,
    gnn: RelGnn,
    gru: GruCell,
    rel_evo: RelationEvolution,
    att: LocalEntityAttention,
    dropout_p: f32,
}

impl LocalEncoder {
    /// Builds the encoder from the model configuration.
    pub fn new(cfg: &LogClConfig, rng: &mut Rng) -> Self {
        Self {
            time_enc: TimeEncoder::new(cfg.dim, cfg.time_bank, rng),
            gnn: RelGnn::new(cfg.aggregator, cfg.dim, cfg.local_layers, rng),
            gru: GruCell::new(cfg.dim, rng),
            rel_evo: RelationEvolution::new(cfg.dim, rng),
            att: LocalEntityAttention::new(cfg.dim, rng),
            dropout_p: cfg.dropout,
        }
    }

    /// Runs the aggregation + evolution pipeline over snapshots
    /// `t_q − m .. t_q − 1` (clipped at 0).
    ///
    /// `h0` / `rel0` are the initial (possibly noise-perturbed) embeddings;
    /// `num_entities` anchors the scatter target size.
    #[expect(
        clippy::too_many_arguments,
        clippy::needless_range_loop,
        reason = "t drives both indexing and the interval d"
    )]
    pub fn encode(
        &self,
        h0: &Var,
        rel0: &Var,
        snapshots: &[Snapshot],
        t_q: usize,
        m: usize,
        training: bool,
        rng: &mut Rng,
    ) -> LocalEncoding {
        let num_entities = h0.shape()[0];
        let start = t_q.saturating_sub(m);
        let mut h = h0.clone();
        let mut rel = rel0.clone();
        let mut aggs = Vec::with_capacity(t_q - start);
        let mut evolved = Vec::with_capacity(t_q - start);
        for t in start..t_q {
            let snap = &snapshots[t];
            let d = (t_q - t) as f32;
            let h_dyn = self.time_enc.forward(&h, d); // Eq. 2–3
            let (s_idx, r_idx, o_idx) = snap.edge_index();
            let edges = EdgeBatch {
                subjects: &s_idx,
                relations: &r_idx,
                objects: &o_idx,
                num_entities,
            };
            let h_agg = self.gnn.forward(&h_dyn, &rel, &edges); // Eq. 4
            let h_agg = dropout(&h_agg, self.dropout_p, training, rng);
            h = self.gru.forward(&h, &h_agg); // Eq. 5
            rel = self.rel_evo.forward(&rel, rel0, &h, &s_idx, &r_idx); // Eq. 6–8
            aggs.push(h_agg);
            evolved.push(h.clone());
        }
        LocalEncoding {
            h_final: h,
            rel_final: rel,
            aggs,
            evolved,
        }
    }

    /// Starts a streaming state at horizon 0 from the given initial
    /// embeddings. Advance it snapshot by snapshot with
    /// [`LocalEncoder::advance_state`].
    pub fn init_state(&self, h0: &Tensor, rel0: &Tensor, m: usize, local: bool) -> EncoderState {
        EncoderState {
            h0: h0.clone(),
            h: h0.clone(),
            rel: rel0.clone(),
            window: VecDeque::new(),
            m,
            horizon: 0,
            local,
        }
    }

    /// Consumes one closed snapshot: one aggregation + evolution step with
    /// a unit interval, in place, under inference semantics (dropout is
    /// identity, no RNG is drawn — the advance is a pure function of the
    /// state, the weights and the snapshot). O(|snap| + E·D) regardless of
    /// how deep the history already is.
    ///
    /// `rel0` is the static relation table (the time-gate anchor of
    /// Eq. 6–8), passed by value each call because the state must not hold
    /// a borrow of the model across ingests.
    pub fn advance_state(&self, state: &mut EncoderState, rel0: &Tensor, snap: &Snapshot) {
        debug_assert_eq!(
            snap.t, state.horizon,
            "streaming advance must consume snapshots in watermark order"
        );
        if state.local {
            // The state takes tensors out of the step, never a graph.
            no_grad(|| {
                let num_entities = state.h0.shape()[0];
                let h = Var::constant(state.h.clone());
                let rel = Var::constant(state.rel.clone());
                let rel0 = Var::constant(rel0.clone());
                let h_dyn = self.time_enc.forward(&h, 1.0); // Eq. 2–3, unit interval
                let (s_idx, r_idx, o_idx) = snap.edge_index();
                let edges = EdgeBatch {
                    subjects: &s_idx,
                    relations: &r_idx,
                    objects: &o_idx,
                    num_entities,
                };
                let h_agg = self.gnn.forward(&h_dyn, &rel, &edges); // Eq. 4
                let h_next = self.gru.forward(&h, &h_agg); // Eq. 5
                let rel_next = self.rel_evo.forward(&rel, &rel0, &h_next, &s_idx, &r_idx); // Eq. 6–8
                state.h = h_next.to_tensor();
                state.rel = rel_next.to_tensor();
                state.window.push_back((h_agg.to_tensor(), state.h.clone()));
                while state.window.len() > state.m {
                    state.window.pop_front();
                }
            });
        }
        state.horizon += 1;
    }

    /// Reads the state out as a [`LocalEncoding`] (constants — the
    /// streaming path is inference-only), shaped exactly like the output of
    /// [`LocalEncoder::encode_stream`] at the same horizon.
    pub fn encoding_from_state(&self, state: &EncoderState) -> LocalEncoding {
        LocalEncoding {
            h_final: Var::constant(state.h.clone()),
            rel_final: Var::constant(state.rel.clone()),
            aggs: state
                .window
                .iter()
                .map(|(a, _)| Var::constant(a.clone()))
                .collect(),
            evolved: state
                .window
                .iter()
                .map(|(_, e)| Var::constant(e.clone()))
                .collect(),
        }
    }

    /// From-scratch reference for the streaming semantics: evolves over the
    /// whole prefix `snapshots[..horizon]` with a unit interval per step in
    /// one connected graph, keeping the last `m` (agg, evolved) pairs. The
    /// incremental [`LocalEncoder::advance_state`] is property-tested
    /// bit-identical to this at every prefix — per-step graph truncation
    /// (constants in, tensors out) must not change a single float.
    pub fn encode_stream(
        &self,
        h0: &Var,
        rel0: &Var,
        snapshots: &[Snapshot],
        horizon: usize,
        m: usize,
    ) -> LocalEncoding {
        let num_entities = h0.shape()[0];
        let mut h = h0.clone();
        let mut rel = rel0.clone();
        let mut aggs: VecDeque<Var> = VecDeque::new();
        let mut evolved: VecDeque<Var> = VecDeque::new();
        for snap in &snapshots[..horizon] {
            let h_dyn = self.time_enc.forward(&h, 1.0);
            let (s_idx, r_idx, o_idx) = snap.edge_index();
            let edges = EdgeBatch {
                subjects: &s_idx,
                relations: &r_idx,
                objects: &o_idx,
                num_entities,
            };
            let h_agg = self.gnn.forward(&h_dyn, &rel, &edges);
            h = self.gru.forward(&h, &h_agg);
            rel = self.rel_evo.forward(&rel, rel0, &h, &s_idx, &r_idx);
            aggs.push_back(h_agg);
            evolved.push_back(h.clone());
            if aggs.len() > m {
                aggs.pop_front();
                evolved.pop_front();
            }
        }
        LocalEncoding {
            h_final: h,
            rel_final: rel,
            aggs: aggs.into(),
            evolved: evolved.into(),
        }
    }

    /// Per-query local representations (Eq. 9–11). With entity-aware
    /// attention disabled (LogCL-w/o-eatt) the representation is simply the
    /// subject's final evolved state.
    pub fn query_representation(
        &self,
        enc: &LocalEncoding,
        subjects: &[usize],
        rels: &[usize],
        use_entity_attention: bool,
    ) -> Var {
        let h_now = enc.h_final.gather_rows(subjects);
        if !use_entity_attention || enc.aggs.len() < 2 {
            return h_now;
        }
        let r_mean = mean_relation_per_query(&enc.rel_final, subjects, rels);
        // Past steps: all but the last processed snapshot (the last evolved
        // state *is* h_now's matrix).
        let past = enc.aggs.len() - 1;
        let agg_rows: Vec<Var> = enc.aggs[..past]
            .iter()
            .map(|a| a.gather_rows(subjects))
            .collect();
        let ev_rows: Vec<Var> = enc.evolved[..past]
            .iter()
            .map(|e| e.gather_rows(subjects))
            .collect();
        self.att.forward(&h_now, &r_mean, &agg_rows, &ev_rows)
    }

    /// Registers every sub-module's parameters.
    pub fn register(&self, params: &mut ParamSet, prefix: &str) {
        self.time_enc.register(params, &format!("{prefix}.time"));
        self.gnn.register(params, &format!("{prefix}.gnn"));
        self.gru.register(params, &format!("{prefix}.gru"));
        self.rel_evo.register(params, &format!("{prefix}.rel_evo"));
        self.att.register(params, &format!("{prefix}.att"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logcl_tensor::Tensor;
    use logcl_tkg::Quad;

    fn toy_snapshots() -> Vec<Snapshot> {
        let quads = vec![
            Quad::new(0, 0, 1, 0),
            Quad::new(1, 1, 2, 0),
            Quad::new(2, 0, 3, 1),
            Quad::new(0, 1, 3, 2),
            Quad::new(3, 0, 0, 3),
        ];
        Snapshot::group_by_time(&quads, 5)
    }

    fn setup() -> (LocalEncoder, Var, Var, Rng) {
        let cfg = LogClConfig {
            dim: 8,
            time_bank: 4,
            ..Default::default()
        };
        let mut rng = Rng::seed(101);
        let enc = LocalEncoder::new(&cfg, &mut rng);
        let h0 = Var::param(Tensor::randn(&[4, 8], 0.3, &mut rng));
        let rel0 = Var::param(Tensor::randn(&[4, 8], 0.3, &mut rng));
        (enc, h0, rel0, rng)
    }

    #[test]
    fn encode_produces_one_state_per_snapshot() {
        let (enc, h0, rel0, mut rng) = setup();
        let snaps = toy_snapshots();
        let out = enc.encode(&h0, &rel0, &snaps, 4, 3, false, &mut rng);
        assert_eq!(out.aggs.len(), 3);
        assert_eq!(out.evolved.len(), 3);
        assert_eq!(out.h_final.shape(), vec![4, 8]);
        assert_eq!(out.rel_final.shape(), vec![4, 8]);
    }

    #[test]
    fn window_clips_at_time_zero() {
        let (enc, h0, rel0, mut rng) = setup();
        let snaps = toy_snapshots();
        let out = enc.encode(&h0, &rel0, &snaps, 1, 5, false, &mut rng);
        assert_eq!(out.aggs.len(), 1);
        let out0 = enc.encode(&h0, &rel0, &snaps, 0, 5, false, &mut rng);
        assert_eq!(out0.aggs.len(), 0);
        assert_eq!(out0.h_final.value().data(), h0.value().data());
    }

    #[test]
    fn query_representation_shapes() {
        let (enc, h0, rel0, mut rng) = setup();
        let snaps = toy_snapshots();
        let out = enc.encode(&h0, &rel0, &snaps, 4, 4, false, &mut rng);
        let rep = enc.query_representation(&out, &[0, 2], &[0, 1], true);
        assert_eq!(rep.shape(), vec![2, 8]);
        let rep_no_att = enc.query_representation(&out, &[0, 2], &[0, 1], false);
        assert_eq!(rep_no_att.shape(), vec![2, 8]);
        assert_ne!(rep.value().data(), rep_no_att.value().data());
    }

    #[test]
    fn gradient_flows_to_initial_embeddings() {
        let (enc, h0, rel0, mut rng) = setup();
        let snaps = toy_snapshots();
        let out = enc.encode(&h0, &rel0, &snaps, 3, 3, true, &mut rng);
        let rep = enc.query_representation(&out, &[1], &[2], true);
        rep.sum().backward();
        assert!(h0.grad().is_some());
        assert!(rel0.grad().is_some());
        assert!(h0.grad().unwrap().all_finite());
    }

    #[test]
    fn registration_is_complete() {
        let (enc, _, _, _) = setup();
        let mut params = ParamSet::new();
        enc.register(&mut params, "local");
        // time(3) + gnn(2 layers × 2) + gru(9) + rel_evo(2) + att(3) = 21
        assert_eq!(params.len(), 21);
    }

    #[test]
    fn advance_matches_stream_reference_at_every_prefix() {
        let (enc, h0, rel0, _) = setup();
        let snaps = toy_snapshots();
        let mut state = enc.init_state(&h0.to_tensor(), &rel0.to_tensor(), 3, true);
        for horizon in 0..=snaps.len() {
            let reference = enc.encode_stream(&h0, &rel0, &snaps, horizon, 3);
            let from_state = enc.encoding_from_state(&state);
            assert_eq!(state.horizon, horizon);
            assert_eq!(
                from_state.h_final.value().data(),
                reference.h_final.value().data(),
                "entity drift at horizon {horizon}"
            );
            assert_eq!(
                from_state.rel_final.value().data(),
                reference.rel_final.value().data(),
                "relation drift at horizon {horizon}"
            );
            assert_eq!(from_state.aggs.len(), reference.aggs.len());
            for (a, b) in from_state.aggs.iter().zip(reference.aggs.iter()) {
                assert_eq!(a.value().data(), b.value().data());
            }
            if horizon < snaps.len() {
                enc.advance_state(&mut state, &rel0.to_tensor(), &snaps[horizon]);
            }
        }
        assert_eq!(state.window.len(), 3, "window must stay bounded at m");
    }

    #[test]
    fn state_record_round_trip_is_bit_exact() {
        let (enc, h0, rel0, _) = setup();
        let snaps = toy_snapshots();
        let mut state = enc.init_state(&h0.to_tensor(), &rel0.to_tensor(), 2, true);
        for snap in &snaps[..3] {
            enc.advance_state(&mut state, &rel0.to_tensor(), snap);
        }
        let rec = state.to_record();
        let json = serde_json::to_string(&rec).unwrap();
        let back: EncoderStateRecord = serde_json::from_str(&json).unwrap();
        let restored = EncoderState::from_record(&back).unwrap();
        assert_eq!(restored.to_bits(), state.to_bits());
        // And the restored state advances identically to the original.
        let mut a = state.clone();
        let mut b = restored;
        enc.advance_state(&mut a, &rel0.to_tensor(), &snaps[3]);
        enc.advance_state(&mut b, &rel0.to_tensor(), &snaps[3]);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn corrupt_state_record_is_a_typed_error() {
        let (enc, h0, rel0, _) = setup();
        let state = enc.init_state(&h0.to_tensor(), &rel0.to_tensor(), 2, true);
        let mut rec = state.to_record();
        rec.h.shape = vec![999, 999];
        assert!(EncoderState::from_record(&rec).is_err());
    }

    #[test]
    fn disabled_local_state_only_tracks_the_watermark() {
        let (enc, h0, rel0, _) = setup();
        let snaps = toy_snapshots();
        let mut state = enc.init_state(&h0.to_tensor(), &rel0.to_tensor(), 3, false);
        for snap in &snaps {
            enc.advance_state(&mut state, &rel0.to_tensor(), snap);
        }
        assert_eq!(state.horizon, snaps.len());
        assert!(state.window.is_empty());
        assert_eq!(state.h.data(), h0.to_tensor().data());
    }

    #[test]
    fn deterministic_in_eval_mode() {
        let (enc, h0, rel0, _) = setup();
        let snaps = toy_snapshots();
        let a = enc.encode(&h0, &rel0, &snaps, 4, 3, false, &mut Rng::seed(1));
        let b = enc.encode(&h0, &rel0, &snaps, 4, 3, false, &mut Rng::seed(2));
        assert_eq!(a.h_final.value().data(), b.h_final.value().data());
    }
}
