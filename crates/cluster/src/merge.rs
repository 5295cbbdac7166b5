//! Wire-level scatter-gather merge: per-shard `/predict` answers in, one
//! global answer out.
//!
//! The bit-exactness contract lives here. Workers transmit each candidate's
//! raw logit as `score_bits` (the exact `f32::to_bits` pattern — JSON
//! decimal round-trips are not bit-reliable), and the merge re-ranks the
//! union with [`logcl_core::top_k_by`] — the one-pass top-k behind
//! `merge_topk` and the single-node `topk_from_scores`, with the *same*
//! comparator. The merged ranking (entity order and raw
//! scores) is therefore bit-identical to a single unsharded worker's.
//! Probabilities are recombined from the per-shard softmax partials
//! ([`SoftmaxStat`]) and are numerically — not bit — equal (f32 addition is
//! not associative across the shard boundary).

use std::borrow::Cow;

use logcl_core::{top_k_by, ScoredEntity, SoftmaxStat};

/// One candidate of a shard's answer: its id and bit-exact score, and the
/// name the worker gave it (empty when the prediction carried none).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCandidate {
    /// Global entity id and raw logit.
    pub scored: ScoredEntity,
    /// Entity name, for labelling the merged list.
    pub name: String,
}

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
    /// The shard's top-k candidates with bit-exact scores, in reply order.
    pub candidates: Vec<ShardCandidate>,
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
///
/// The fields are read straight off the bytes, in one pass and without a
/// tree: what `serde_json::from_slice::<Value>` and lookups on its tree
/// would give, under the vendored parser's grammar — the whole document is
/// validated, a later duplicate key replaces an earlier one, and a body the
/// tree rejects is rejected with the same error variant.
pub fn parse_shard_reply(body: &[u8]) -> Result<ShardReply, ShardReplyError> {
    let text = std::str::from_utf8(body)
        .map_err(|e| ShardReplyError::Unparseable(format!("invalid UTF-8: {e}")))?;
    let mut reader = Reader { text, pos: 0 };
    reader
        .document()
        .map_err(|at| ShardReplyError::Unparseable(format!("{} at byte {}", at.0, at.1)))?
        .into_reply()
}

/// The `"shard"` object's numeric keys, in the order a missing one is
/// reported.
const SHARD_KEYS: [&str; 6] = [
    "index",
    "lo",
    "hi",
    "entities",
    "softmax_max_bits",
    "softmax_sum_exp_bits",
];

/// What a reply's tree lookups would find, gathered in one pass.
#[derive(Default)]
struct Fields {
    /// The last `"shard"` value's [`SHARD_KEYS`] as `u64`s (`None`: absent
    /// or not an unsigned integer); `None` when there is no `"shard"` key.
    shard: Option<[Option<u64>; 6]>,
    /// The last `"predictions"` value, `None` when absent or not an array.
    predictions: Option<Predictions>,
    degraded: bool,
    cache_hit: bool,
}

/// A `"predictions"` array: its candidates, or the field the first
/// incomplete prediction lacks.
#[derive(Default)]
struct Predictions {
    candidates: Vec<ShardCandidate>,
    missing: Option<&'static str>,
}

impl Fields {
    fn into_reply(self) -> Result<ShardReply, ShardReplyError> {
        let shard = self.shard.ok_or(ShardReplyError::NotSharded)?;
        let field = |i: usize| shard[i].ok_or(ShardReplyError::MissingField(SHARD_KEYS[i]));
        let (index, lo, hi, entities) = (field(0)?, field(1)?, field(2)?, field(3)?);
        let stat = SoftmaxStat {
            max: f32::from_bits(field(4)? as u32),
            sum_exp: f32::from_bits(field(5)? as u32),
        };
        let predictions = self
            .predictions
            .ok_or(ShardReplyError::MissingPredictions)?;
        if let Some(key) = predictions.missing {
            return Err(ShardReplyError::MissingField(key));
        }
        Ok(ShardReply {
            index: index as usize,
            lo: lo as usize,
            hi: hi as usize,
            entities: entities as usize,
            stat,
            candidates: predictions.candidates,
            degraded: self.degraded,
            cache_hit: self.cache_hit,
        })
    }
}

/// The vendored parser's recursion ceiling: a value nested deeper is an
/// error, as it is there.
const MAX_DEPTH: usize = 128;

/// A syntax error: what was wrong, and at which byte.
struct SyntaxError(&'static str, usize);

/// A value read where a field's value may stand: the kinds a lookup keeps,
/// everything else validated and dropped.
enum Scalar<'a> {
    Uint(u64),
    Bool(bool),
    Str(Cow<'a, str>),
    Other,
}

impl<'a> Scalar<'a> {
    fn uint(self) -> Option<u64> {
        match self {
            Scalar::Uint(n) => Some(n),
            _ => None,
        }
    }

    fn is_true(&self) -> bool {
        matches!(self, Scalar::Bool(true))
    }

    fn string(self) -> Option<Cow<'a, str>> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// A cursor over a reply, following `serde::parse_str`'s grammar step for
/// step: the same whitespace, literals, escapes, number classification and
/// depth limit.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

type Parse<T> = Result<T, SyntaxError>;

impl<'a> Reader<'a> {
    fn err<T>(&self, msg: &'static str) -> Parse<T> {
        Err(SyntaxError(msg, self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn literal(&mut self, lit: &str) -> Parse<()> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            self.err("expected a literal")
        }
    }

    /// Whether the value at `depth` opens with `open`; an error where the
    /// parser would refuse to descend.
    fn opens(&self, depth: usize, open: u8) -> Parse<bool> {
        if depth > MAX_DEPTH {
            return self.err("recursion limit exceeded");
        }
        Ok(self.peek() == Some(open))
    }

    /// The whole body: a top-level object's reply fields, then nothing but
    /// whitespace.
    fn document(&mut self) -> Parse<Fields> {
        let mut fields = Fields::default();
        self.ws();
        if self.opens(0, b'{')? {
            self.object(0, |read, key, depth| {
                match &*key {
                    "shard" => fields.shard = Some(read.shard(depth)?),
                    "predictions" => fields.predictions = read.predictions(depth)?,
                    "degraded" => fields.degraded = read.scalar(depth)?.is_true(),
                    "cache_hit" => fields.cache_hit = read.scalar(depth)?.is_true(),
                    _ => read.skip(depth)?,
                }
                Ok(())
            })?;
        } else {
            self.skip(0)?;
        }
        self.ws();
        if self.pos != self.text.len() {
            return self.err("trailing characters after JSON value");
        }
        Ok(fields)
    }

    fn shard(&mut self, depth: usize) -> Parse<[Option<u64>; 6]> {
        let mut shard = [None; 6];
        if self.opens(depth, b'{')? {
            self.object(depth, |read, key, depth| {
                match SHARD_KEYS.iter().position(|k| *k == key) {
                    Some(i) => shard[i] = read.scalar(depth)?.uint(),
                    None => read.skip(depth)?,
                }
                Ok(())
            })?;
        } else {
            self.skip(depth)?;
        }
        Ok(shard)
    }

    fn predictions(&mut self, depth: usize) -> Parse<Option<Predictions>> {
        if !self.opens(depth, b'[')? {
            self.skip(depth)?;
            return Ok(None);
        }
        let mut list = Predictions::default();
        self.array(depth, |read, depth| {
            let (mut entity, mut score_bits, mut name) = (None, None, None);
            if read.opens(depth, b'{')? {
                read.object(depth, |read, key, depth| {
                    match &*key {
                        "entity" => entity = read.scalar(depth)?.uint(),
                        "score_bits" => score_bits = read.scalar(depth)?.uint(),
                        "name" => name = read.scalar(depth)?.string(),
                        _ => read.skip(depth)?,
                    }
                    Ok(())
                })?;
            } else {
                read.skip(depth)?;
            }
            if list.missing.is_none() {
                match (entity, score_bits) {
                    (None, _) => list.missing = Some("entity"),
                    (_, None) => list.missing = Some("score_bits"),
                    (Some(entity), Some(bits)) => list.candidates.push(ShardCandidate {
                        scored: ScoredEntity {
                            entity: entity as usize,
                            score: f32::from_bits(bits as u32),
                        },
                        name: name.map(Cow::into_owned).unwrap_or_default(),
                    }),
                }
            }
            Ok(())
        })?;
        Ok(Some(list))
    }

    /// A value at `depth`, kept if it is an unsigned integer, a boolean or
    /// a string.
    fn scalar(&mut self, depth: usize) -> Parse<Scalar<'a>> {
        if depth > MAX_DEPTH {
            return self.err("recursion limit exceeded");
        }
        match self.peek() {
            Some(b'"') => self.string().map(Scalar::Str),
            Some(b't') => self.literal("true").map(|()| Scalar::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Scalar::Bool(false)),
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                Ok(self.number()?.map_or(Scalar::Other, Scalar::Uint))
            }
            _ => self.skip(depth).map(|()| Scalar::Other),
        }
    }

    /// Validates the value at `depth` and drops it.
    fn skip(&mut self, depth: usize) -> Parse<()> {
        if depth > MAX_DEPTH {
            return self.err("recursion limit exceeded");
        }
        match self.peek() {
            Some(b'n') => self.literal("null"),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'"') => self.string().map(drop),
            Some(b'[') => self.array(depth, |read, depth| read.skip(depth)),
            Some(b'{') => self.object(depth, |read, _, depth| read.skip(depth)),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number().map(drop),
            Some(_) => self.err("unexpected character"),
            None => self.err("unexpected end of input"),
        }
    }

    /// The array whose `[` is next, each element handed to `element` with
    /// its depth.
    fn array(
        &mut self,
        depth: usize,
        mut element: impl FnMut(&mut Self, usize) -> Parse<()>,
    ) -> Parse<()> {
        self.pos += 1;
        self.ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.ws();
            element(self, depth + 1)?;
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return self.err("expected `,` or `]` in array"),
            }
        }
    }

    /// The object whose `{` is next, each member's key and value depth
    /// handed to `member`, which reads the value.
    fn object(
        &mut self,
        depth: usize,
        mut member: impl FnMut(&mut Self, Cow<'a, str>, usize) -> Parse<()>,
    ) -> Parse<()> {
        self.pos += 1;
        self.ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.ws();
            if self.peek() != Some(b'"') {
                return self.err("expected string key in object");
            }
            let key = self.string()?;
            self.ws();
            if self.peek() != Some(b':') {
                return self.err("expected `:` after object key");
            }
            self.pos += 1;
            self.ws();
            member(self, key, depth + 1)?;
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return self.err("expected `,` or `}` in object"),
            }
        }
    }

    /// The string whose `"` is next, borrowed from the body unless it holds
    /// an escape.
    fn string(&mut self) -> Parse<Cow<'a, str>> {
        self.pos += 1;
        let text = self.text;
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // `pos` stops on an ASCII byte or the end: a char boundary.
            let chunk = &text[start..self.pos];
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(chunk),
                        Some(mut s) => {
                            s.push_str(chunk);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(chunk);
                    self.escape(s)?;
                }
                Some(_) => return self.err("raw control character in string"),
                None => return self.err("unterminated string"),
            }
        }
    }

    fn escape(&mut self, s: &mut String) -> Parse<()> {
        let Some(c) = self.peek() else {
            return self.err("unterminated escape");
        };
        self.pos += 1;
        match c {
            b'"' => s.push('"'),
            b'\\' => s.push('\\'),
            b'/' => s.push('/'),
            b'n' => s.push('\n'),
            b'r' => s.push('\r'),
            b't' => s.push('\t'),
            b'b' => s.push('\u{08}'),
            b'f' => s.push('\u{0c}'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    if self.literal("\\u").is_err() {
                        return self.err("unpaired surrogate in \\u escape");
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return self.err("invalid low surrogate in \\u escape");
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                match char::from_u32(code) {
                    Some(c) => s.push(c),
                    None => return self.err("invalid \\u escape"),
                }
            }
            _ => return self.err("unknown escape"),
        }
        Ok(())
    }

    /// Four hex digits, read as the parser reads them (`from_str_radix`,
    /// which also takes a leading `+`).
    fn hex4(&mut self) -> Parse<u32> {
        let digits = self.text.as_bytes().get(self.pos..self.pos + 4);
        let Some(v) = digits
            .and_then(|d| std::str::from_utf8(d).ok())
            .and_then(|d| u32::from_str_radix(d, 16).ok())
        else {
            return self.err("invalid \\u escape");
        };
        self.pos += 4;
        Ok(v)
    }

    /// The number that starts here, classified as the parser does: the run
    /// of `[0-9.eE+-]` after an optional `-` is an unsigned integer if it
    /// has none of `.eE+-` and fits a `u64` (`Some`), else a valid signed
    /// integer or finite float (`None`), else an error.
    fn number(&mut self) -> Parse<Option<u64>> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Some(n));
            }
            if text.parse::<i64>().is_ok() {
                return Ok(None);
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(None),
            Ok(_) => self.err("number overflows f64"),
            Err(_) => self.err("invalid number"),
        }
    }
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
    // `merge_topk`'s ranking, over every reply's candidates in place: each
    // kept one brings its own name along.
    let candidates = replies.iter().flat_map(|r| &r.candidates);
    let predictions = top_k_by(candidates, depth, |c| c.scored)
        .into_iter()
        .map(|c| MergedPrediction {
            entity: c.scored.entity,
            name: c.name.clone(),
            probability: global.probability(c.scored.score),
            score: c.scored.score,
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
    use logcl_tensor::rng::splitmix64;
    use serde_json::{json, Value};

    /// The reader this module ran before it read the bytes: a
    /// `serde_json::Value` tree, then lookups on it. The reference
    /// [`parse_shard_reply`] must agree with, accept for accept and error
    /// variant for error variant.
    fn parse_shard_reply_tree(body: &[u8]) -> Result<ShardReply, ShardReplyError> {
        let value: Value = serde_json::from_slice(body)
            .map_err(|e| ShardReplyError::Unparseable(e.to_string()))?;
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
        for p in predictions {
            let entity = field(p, "entity")? as usize;
            let score = f32::from_bits(field(p, "score_bits")? as u32);
            candidates.push(ShardCandidate {
                scored: ScoredEntity { entity, score },
                name: p
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string(),
            });
        }
        Ok(ShardReply {
            index,
            lo,
            hi,
            entities,
            stat,
            candidates,
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

    /// A reader's outcome with every float as its bits, and an unparseable
    /// body as its variant alone (the two readers word the detail apart).
    fn outcome(read: &Result<ShardReply, ShardReplyError>) -> String {
        match read {
            Ok(r) => {
                let candidates: Vec<(usize, u32, &str)> = r
                    .candidates
                    .iter()
                    .map(|c| (c.scored.entity, c.scored.score.to_bits(), c.name.as_str()))
                    .collect();
                format!(
                    "Ok {} {} {} {} {} {} {candidates:?} {} {}",
                    r.index,
                    r.lo,
                    r.hi,
                    r.entities,
                    r.stat.max.to_bits(),
                    r.stat.sum_exp.to_bits(),
                    r.degraded,
                    r.cache_hit
                )
            }
            Err(ShardReplyError::Unparseable(_)) => "Unparseable".into(),
            Err(e) => format!("{e:?}"),
        }
    }

    /// Answers of two real `--shard i/2` workers on the smoke graph, with a
    /// few entity names rewritten to need every kind of escape: head and
    /// historical queries, `k` from 1 past the shard's width.
    fn worker_answers() -> Vec<Vec<u8>> {
        use logcl_core::{LogClConfig, ShardSpec};
        use logcl_serve::{http::Client, ModelSpec, ServeConfig, Server};
        use std::time::Duration;
        let mut ds = logcl_tkg::SyntheticPreset::Icews14.generate_scaled(0.15);
        let names = [
            "q\"uote",
            "back\\slash",
            "tab\t/\n",
            "\u{01}\u{1f}\u{7f}",
            "é中𝄞",
            "",
        ];
        for (i, name) in names.iter().enumerate() {
            ds.entity_names[i * 5] = name.to_string();
        }
        let mut bodies = Vec::new();
        for index in 0..2 {
            let server = Server::start(
                ServeConfig {
                    addr: "127.0.0.1:0".into(),
                    shard: Some(ShardSpec::new(index, 2).unwrap()),
                    ..ServeConfig::default()
                },
                ds.clone(),
                vec![ModelSpec {
                    name: "default".into(),
                    cfg: LogClConfig {
                        dim: 8,
                        time_bank: 4,
                        channels: 4,
                        m: 2,
                        ..Default::default()
                    },
                    checkpoint: None,
                    train: None,
                }],
            )
            .expect("worker starts");
            let mut client = Client::new(server.addr(), Duration::from_secs(30)).unwrap();
            for (i, k) in [1usize, 2, 3, 5, 40].into_iter().enumerate() {
                for time in [String::new(), format!(", \"time\": {}", 3 + i)] {
                    let query =
                        format!("{{\"subject\": {i}, \"relation\": {i}, \"k\": {k}{time}}}");
                    let reply = client
                        .send("POST", "/predict", &[], query.as_bytes())
                        .unwrap();
                    assert_eq!(reply.status, 200, "{}", reply.text());
                    bodies.push(reply.body);
                }
            }
            server.shutdown();
        }
        bodies
    }

    /// Values a mutation puts where a value stood: every number kind the
    /// grammar classifies apart, the other kinds, and nesting.
    const VALUES: [&str; 28] = [
        "1",
        "0",
        "-0",
        "-1",
        "1.0",
        "1e999",
        "-1e999",
        "1E5",
        "18446744073709551616",
        "18446744073709551615",
        "4294967296",
        "007",
        "-",
        "1-2",
        "1.",
        "true",
        "false",
        "null",
        "\"x\"",
        "\"\\u0031\"",
        "[]",
        "{}",
        "[1,[2]]",
        "{\"index\":1}",
        "{\"entity\":1,\"score_bits\":2}",
        "[{\"entity\":3,\"score_bits\":1065353216,\"name\":\"n\"}]",
        "{\"shard\":{}}",
        "\"e\\u0301\\\"\"",
    ];

    /// Keys a mutation writes, each field also spelled with an escape.
    const KEYS: [&str; 20] = [
        "shard",
        "predictions",
        "degraded",
        "cache_hit",
        "index",
        "lo",
        "hi",
        "entities",
        "softmax_max_bits",
        "softmax_sum_exp_bits",
        "entity",
        "score_bits",
        "name",
        "model",
        "sh\\u0061rd",
        "entit\\u0079",
        "score\\u005fbits",
        "n\\u0061me",
        "degr\\u0061ded",
        "l\\u006f",
    ];

    /// Inserted where a string may be: escapes good and bad, and bytes
    /// that are not UTF-8.
    const ESCAPES: [&[u8]; 14] = [
        b"\\\"",
        b"\\\\",
        b"\\/",
        b"\\u00e9",
        b"\\uD834\\uDD1E",
        b"\\uD800",
        b"\\uDC00",
        b"\\u+041",
        b"\\u12",
        b"\\x",
        b"\x01",
        b"\xff",
        b"\xc3",
        b"\xe4\xb8",
    ];

    /// Single bytes a byte edit or an insertion draws from.
    const BYTES: &[u8] = b"\"\\{}[],: -.eE+0179ntfu\x00\x1f\x7f\x80\xc3\xff";

    fn positions(body: &[u8], byte: u8) -> Vec<usize> {
        (0..body.len()).filter(|&i| body[i] == byte).collect()
    }

    /// One seeded mutation of `body`.
    fn mutate(body: &mut Vec<u8>, draw: &mut impl FnMut() -> u64) {
        let mut pick = |n: usize| (draw() % n.max(1) as u64) as usize;
        let len = body.len();
        match pick(9) {
            0 if len > 0 => body[pick(len)] = BYTES[pick(BYTES.len())],
            1 if len > 0 => {
                let at = pick(len);
                body.drain(at..(at + 1 + pick(4)).min(len));
            }
            2 => body.insert(pick(len + 1), BYTES[pick(BYTES.len())]),
            3 => body.truncate(pick(len + 1)),
            // A duplicate member: first in its object (the original wins)
            // or last (it wins).
            4 => {
                let member = format!(
                    "\"{}\":{}",
                    KEYS[pick(KEYS.len())],
                    VALUES[pick(VALUES.len())]
                );
                let (opens, closes) = (positions(body, b'{'), positions(body, b'}'));
                if pick(2) == 0 && !opens.is_empty() {
                    let at = opens[pick(opens.len())] + 1;
                    body.splice(at..at, format!("{member},").into_bytes());
                } else if !closes.is_empty() {
                    let at = closes[pick(closes.len())];
                    body.splice(at..at, format!(",{member}").into_bytes());
                }
            }
            // A value replaced: the first digit run after a `:`.
            5 => {
                let colons = positions(body, b':');
                if !colons.is_empty() {
                    let at = colons[pick(colons.len())] + 1;
                    let end = (at..body.len())
                        .find(|&i| !body[i].is_ascii_digit())
                        .unwrap_or(body.len());
                    body.splice(at..end, VALUES[pick(VALUES.len())].bytes());
                }
            }
            // An escape (or a non-UTF-8 byte) just inside a string.
            6 => {
                let quotes = positions(body, b'"');
                if !quotes.is_empty() {
                    let at = quotes[pick(quotes.len())] + 1;
                    body.splice(at..at, ESCAPES[pick(ESCAPES.len())].iter().copied());
                }
            }
            // Nesting around the 128-level ceiling, at the top or in place
            // of a value.
            7 => {
                let n = 120 + pick(12);
                let (open, close) = ("[".repeat(n), "]".repeat(n));
                let colons = positions(body, b':');
                if pick(2) == 0 || colons.is_empty() {
                    body.splice(0..0, open.into_bytes());
                    body.extend_from_slice(close.as_bytes());
                } else {
                    let at = colons[pick(colons.len())] + 1;
                    body.splice(at..at, format!("{open}1{close},\"x\":").into_bytes());
                }
            }
            _ => {
                let at = pick(len + 1);
                body.splice(at..at, ESCAPES[pick(ESCAPES.len())].iter().copied());
            }
        }
    }

    /// The reader ≡ the tree over 100 000 seeded mutations of real worker
    /// answers — byte edits, deletions, insertions, truncation, duplicate
    /// keys (escaped ones too), replaced values of every number kind,
    /// escapes good and bad, nesting around the depth ceiling, bytes that
    /// are not UTF-8: the same bodies accepted with the same fields, the
    /// rest rejected with the same variant.
    #[test]
    fn the_byte_reader_agrees_with_the_tree_on_mutated_worker_answers() {
        let seeds = worker_answers();
        let mut seen = std::collections::BTreeMap::<String, usize>::new();
        for body in &seeds {
            let tree = outcome(&parse_shard_reply_tree(body));
            assert!(tree.starts_with("Ok"), "{tree}");
            assert_eq!(outcome(&parse_shard_reply(body)), tree);
        }
        for case in 0..100_000u64 {
            let mut n = 0;
            let mut draw = || {
                n += 1;
                splitmix64(case, n)
            };
            let mut body = seeds[(draw() % seeds.len() as u64) as usize].clone();
            for _ in 0..1 + draw() % 3 {
                mutate(&mut body, &mut draw);
            }
            let tree = outcome(&parse_shard_reply_tree(&body));
            let read = outcome(&parse_shard_reply(&body));
            assert_eq!(
                read,
                tree,
                "case {case}: {}",
                String::from_utf8_lossy(&body)
            );
            let class = tree
                .split([' ', '('])
                .next()
                .unwrap_or_default()
                .to_string();
            *seen.entry(class).or_default() += 1;
        }
        // Every outcome was reached often enough to have been compared.
        for class in [
            "Ok",
            "Unparseable",
            "NotSharded",
            "MissingField",
            "MissingPredictions",
        ] {
            let count = seen.get(class).copied().unwrap_or(0);
            assert!(count >= 100, "{class} reached {count} times: {seen:?}");
        }
    }

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
