//! Wire-level scatter-gather merge: per-shard `/predict` answers in, one
//! global answer out.
//!
//! The bit-exactness contract lives here. Workers transmit each candidate's
//! raw logit as `score_bits` (the exact `f32::to_bits` pattern — JSON
//! decimal round-trips are not bit-reliable), and the merge re-ranks the
//! union with [`logcl_core::merge_topk`], the *same* comparator as the
//! single-node `topk_from_scores`. The merged ranking (entity order and raw
//! scores) is therefore bit-identical to a single unsharded worker's.
//! Probabilities are recombined from the per-shard softmax partials
//! ([`SoftmaxStat`]) and are numerically — not bit — equal (f32 addition is
//! not associative across the shard boundary).

use std::collections::BTreeMap;

use logcl_core::{merge_topk, ScoredEntity, SoftmaxStat};
use serde_json::Value;

/// One shard's parsed `/predict` answer.
#[derive(Debug)]
pub struct ShardReply {
    /// Which shard answered.
    pub index: usize,
    /// First entity id the shard scored (inclusive).
    pub lo: usize,
    /// One past the last entity id the shard scored.
    pub hi: usize,
    /// Total entity vocabulary size `|E|` (same on every worker).
    pub entities: usize,
    /// Shard-local softmax partials.
    pub stat: SoftmaxStat,
    /// The shard's top-k candidates with bit-exact scores.
    pub candidates: Vec<ScoredEntity>,
    /// Entity names keyed by id (for re-labelling the merged list).
    pub names: BTreeMap<usize, String>,
    /// Whether the shard answered degraded (brownout on the worker).
    pub degraded: bool,
    /// Whether the shard's snapshot encoding came from its cache.
    pub cache_hit: bool,
}

/// Why a worker's 200 body could not be understood as a shard reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardReplyError {
    /// The body was not JSON at all.
    Unparseable(String),
    /// No `"shard"` object — the worker is not running in `--shard` mode.
    NotSharded,
    /// A required numeric field was absent or non-numeric.
    MissingField(&'static str),
    /// `"predictions"` was absent or not an array.
    MissingPredictions,
}

impl std::fmt::Display for ShardReplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Unparseable(detail) => write!(f, "unparseable shard body: {detail}"),
            Self::NotSharded => write!(
                f,
                "shard reply missing \"shard\" (is the worker running with --shard?)"
            ),
            Self::MissingField(key) => write!(f, "shard reply missing numeric \"{key}\""),
            Self::MissingPredictions => write!(f, "shard reply missing \"predictions\""),
        }
    }
}

impl std::error::Error for ShardReplyError {}

/// Parses a worker's `/predict` JSON body into a [`ShardReply`]. Returns a
/// typed error for any missing or malformed field — a worker that answers
/// 200 with an unintelligible body is treated as failed, never merged on a
/// guess.
pub fn parse_shard_reply(body: &[u8]) -> Result<ShardReply, ShardReplyError> {
    let value: Value =
        serde_json::from_slice(body).map_err(|e| ShardReplyError::Unparseable(e.to_string()))?;
    let shard = value.get("shard").ok_or(ShardReplyError::NotSharded)?;
    let field = |obj: &Value, key: &'static str| -> Result<u64, ShardReplyError> {
        obj.get(key)
            .and_then(Value::as_u64)
            .ok_or(ShardReplyError::MissingField(key))
    };
    let index = field(shard, "index")? as usize;
    let lo = field(shard, "lo")? as usize;
    let hi = field(shard, "hi")? as usize;
    let entities = field(shard, "entities")? as usize;
    let stat = SoftmaxStat {
        max: f32::from_bits(field(shard, "softmax_max_bits")? as u32),
        sum_exp: f32::from_bits(field(shard, "softmax_sum_exp_bits")? as u32),
    };
    let predictions = value
        .get("predictions")
        .and_then(Value::as_array)
        .ok_or(ShardReplyError::MissingPredictions)?;
    let mut candidates = Vec::with_capacity(predictions.len());
    let mut names = BTreeMap::new();
    for p in predictions {
        let entity = field(p, "entity")? as usize;
        let score = f32::from_bits(field(p, "score_bits")? as u32);
        candidates.push(ScoredEntity { entity, score });
        if let Some(name) = p.get("name").and_then(Value::as_str) {
            names.insert(entity, name.to_string());
        }
    }
    Ok(ShardReply {
        index,
        lo,
        hi,
        entities,
        stat,
        candidates,
        names,
        degraded: value
            .get("degraded")
            .and_then(Value::as_bool)
            .unwrap_or(false),
        cache_hit: value
            .get("cache_hit")
            .and_then(Value::as_bool)
            .unwrap_or(false),
    })
}

/// One entry of the merged global ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedPrediction {
    /// Global entity id.
    pub entity: usize,
    /// Entity name (from the owning shard's reply).
    pub name: String,
    /// Globally recombined softmax probability.
    pub probability: f32,
    /// Raw decoder logit, bit-identical to single-node.
    pub score: f32,
}

/// The router's merged answer.
#[derive(Debug)]
pub struct MergedAnswer {
    /// Global top-k over every answering shard, ended early where a capped
    /// reply's depth ends ([`merge_replies`]).
    pub predictions: Vec<MergedPrediction>,
    /// Fraction of the entity vocabulary actually scored: `1.0` when every
    /// shard answered, less when the answer is partial.
    pub coverage: f64,
    /// Whether any answering shard was itself degraded (worker brownout).
    pub shard_degraded: bool,
    /// Whether every answering shard served from its encoding cache.
    pub all_cache_hits: bool,
    /// Shard indexes that contributed.
    pub answered: Vec<usize>,
}

/// Merges the shard replies that made it back. `total_shards` is the
/// configured cluster width; missing shards shrink `coverage` below `1.0`
/// (the partial-result degradation contract) but never fail the merge.
///
/// A reply holding `min(k, hi − lo)` candidates is its shard's ranking to
/// depth `k`; a shorter one — a worker in Brownout caps `k` — only to its
/// own length. The merged list ends at the shallowest depth, so every rank
/// it holds is the global one.
pub fn merge_replies(replies: &[ShardReply], k: usize, total_shards: usize) -> MergedAnswer {
    let per_shard: Vec<Vec<ScoredEntity>> = replies.iter().map(|r| r.candidates.clone()).collect();
    let stats: Vec<SoftmaxStat> = replies.iter().map(|r| r.stat).collect();
    let global = SoftmaxStat::combine(&stats);
    let depth = replies
        .iter()
        .map(|r| {
            let len = r.candidates.len();
            if len >= k.min(r.hi.saturating_sub(r.lo)) {
                k
            } else {
                len
            }
        })
        .fold(k, usize::min);
    let merged = merge_topk(&per_shard, depth);
    let predictions = merged
        .into_iter()
        .map(|c| MergedPrediction {
            entity: c.entity,
            name: replies
                .iter()
                .find_map(|r| r.names.get(&c.entity))
                .cloned()
                .unwrap_or_default(),
            probability: global.probability(c.score),
            score: c.score,
        })
        .collect();
    // Coverage is the scored fraction of the vocabulary. |E| comes from the
    // replies themselves (every worker reports the same value); with no
    // replies at all there is nothing scored and nothing to divide by.
    let entities = replies.iter().map(|r| r.entities).max().unwrap_or(0);
    let covered: usize = replies.iter().map(|r| r.hi - r.lo).sum();
    let coverage = if entities == 0 {
        0.0
    } else {
        covered as f64 / entities as f64
    };
    let mut answered: Vec<usize> = replies.iter().map(|r| r.index).collect();
    answered.sort_unstable();
    let _ = total_shards; // width is implied by coverage; kept for callers' clarity
    MergedAnswer {
        predictions,
        coverage,
        shard_degraded: replies.iter().any(|r| r.degraded),
        all_cache_hits: !replies.is_empty() && replies.iter().all(|r| r.cache_hit),
        answered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn reply_json(index: usize, lo: usize, hi: usize, scores: &[(usize, f32)]) -> Vec<u8> {
        let stat = SoftmaxStat::from_scores(&scores.iter().map(|&(_, s)| s).collect::<Vec<_>>());
        let predictions: Vec<Value> = scores
            .iter()
            .map(|&(e, s)| {
                json!({
                    "entity": e,
                    "name": format!("e{e}"),
                    "probability": 0.0,
                    "score": s,
                    "score_bits": s.to_bits(),
                })
            })
            .collect();
        let shard = json!({
            "index": index,
            "count": 2,
            "lo": lo,
            "hi": hi,
            "entities": 10,
            "softmax_max_bits": stat.max.to_bits(),
            "softmax_sum_exp_bits": stat.sum_exp.to_bits(),
        });
        json!({
            "model": "default",
            "predictions": predictions,
            "degraded": false,
            "cache_hit": true,
            "shard": shard,
        })
        .to_string()
        .into_bytes()
    }

    #[test]
    fn parses_and_merges_bit_exactly() {
        let a = parse_shard_reply(&reply_json(0, 0, 5, &[(1, 2.5), (0, 1.0), (3, 0.25)])).unwrap();
        let b = parse_shard_reply(&reply_json(1, 5, 10, &[(7, 2.5), (9, 0.5), (5, 0.0)])).unwrap();
        let merged = merge_replies(&[a, b], 3, 2);
        assert_eq!(merged.coverage, 1.0);
        assert!(!merged.shard_degraded);
        assert!(merged.all_cache_hits);
        assert_eq!(merged.answered, vec![0, 1]);
        let order: Vec<usize> = merged.predictions.iter().map(|p| p.entity).collect();
        // 2.5 tie broken by entity id ascending: 1 before 7.
        assert_eq!(order, vec![1, 7, 0]);
        assert_eq!(merged.predictions[0].score.to_bits(), 2.5f32.to_bits());
        assert_eq!(merged.predictions[0].name, "e1");
        let p: f32 = merged.predictions.iter().map(|p| p.probability).sum();
        assert!(p <= 1.0 + 1e-5);
    }

    #[test]
    fn partial_merge_reports_coverage() {
        let a = parse_shard_reply(&reply_json(0, 0, 5, &[(1, 2.5)])).unwrap();
        let merged = merge_replies(&[a], 3, 2);
        assert_eq!(merged.coverage, 0.5);
        assert_eq!(merged.answered, vec![0]);
        assert_eq!(merged.predictions.len(), 1);
        let empty = merge_replies(&[], 3, 2);
        assert_eq!(empty.coverage, 0.0);
        assert!(empty.predictions.is_empty());
        assert!(!empty.all_cache_hits);
    }

    /// A shard capped at 3 of `k = 5` holds its ranking to depth 3 only, so
    /// the merge ends there — where the single-node ranking agrees with it.
    /// Read past rank 3, it would miss entity 3 (shard 0's fourth, the
    /// global fifth) and rank entity 6 there instead.
    #[test]
    fn a_capped_shard_ends_the_merge_at_its_depth() {
        let scores = [3.0f32, 2.75, 2.625, 2.375, 0.125, 2.5, 2.25, 2.0, 1.0, 0.75];
        let ds = logcl_tkg::TkgDataset::from_quads("ten", scores.len(), 1, Vec::new());
        let shard = |index: usize, lo: usize, hi: usize, k: usize| {
            let (top, _) = logcl_core::topk_in_range(&ds, &scores[lo..hi], lo, k);
            let top: Vec<(usize, f32)> = top.iter().map(|p| (p.entity, p.score)).collect();
            parse_shard_reply(&reply_json(index, lo, hi, &top)).unwrap()
        };
        let merged = merge_replies(&[shard(0, 0, 5, 3), shard(1, 5, 10, 5)], 5, 2);
        let got: Vec<(usize, u32)> = merged
            .predictions
            .iter()
            .map(|p| (p.entity, p.score.to_bits()))
            .collect();
        let want: Vec<(usize, u32)> = logcl_core::topk_from_scores(&ds, &scores, 5)
            .iter()
            .take(3)
            .map(|p| (p.entity, p.score.to_bits()))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn rejects_unintelligible_bodies() {
        assert!(parse_shard_reply(b"not json").is_err());
        let no_shard = json!({"predictions": Vec::<Value>::new()}).to_string();
        let err = parse_shard_reply(no_shard.as_bytes()).unwrap_err();
        assert_eq!(err, ShardReplyError::NotSharded);
        assert!(err.to_string().contains("--shard"), "{err}");
    }
}
