//! `/predict` answers written straight into their JSON text — a worker's
//! single-node or shard answer and the router's merged one — with no
//! `serde_json::Value` tree in between.
//!
//! The text is byte-identical to what the vendored `serde_json` renders for
//! the same `json!` construction, because clients and the router's merge
//! read these bytes: object keys in the order a `BTreeMap` iterates them
//! (each [`Object`] is given them in that order; debug builds assert it),
//! integers in decimal, floats through `{:?}` of `f64` with non-finite ones
//! written `null`, and strings escaped the vendored writer's way. Cold paths
//! (errors, `/healthz`, `/ingest`) keep `json!`.

use std::fmt::Write as _;

/// A JSON object being appended to a `String`, one field at a time, in the
/// order a `BTreeMap` keeps its keys.
pub struct Object<'a> {
    out: &'a mut String,
    last: Option<&'static str>,
}

impl<'a> Object<'a> {
    /// Opens an object at the end of `out`.
    pub fn open(out: &'a mut String) -> Self {
        out.push('{');
        Self { out, last: None }
    }

    /// Appends `"key":` and then whatever `value` writes.
    pub fn field(self, key: &'static str, value: impl FnOnce(&mut String)) -> Self {
        debug_assert!(
            self.last.is_none_or(|last| last < key),
            "{key:?} after {:?}: keys must come in BTreeMap order",
            self.last
        );
        debug_assert!(!key.contains(['"', '\\']) && !key.contains(char::is_control));
        if self.last.is_some() {
            self.out.push(',');
        }
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        value(self.out);
        Self {
            out: self.out,
            last: Some(key),
        }
    }

    /// An unsigned integer field.
    pub fn uint(self, key: &'static str, v: u64) -> Self {
        self.field(key, |out| uint(out, v))
    }

    /// A float field (`null` when not finite).
    pub fn float(self, key: &'static str, v: f64) -> Self {
        self.field(key, |out| float(out, v))
    }

    /// A boolean field.
    pub fn bool(self, key: &'static str, v: bool) -> Self {
        self.field(key, |out| out.push_str(if v { "true" } else { "false" }))
    }

    /// A string field.
    pub fn str(self, key: &'static str, v: &str) -> Self {
        self.field(key, |out| string(out, v))
    }

    /// Closes the object.
    pub fn close(self) {
        self.out.push('}');
    }
}

/// Appends `[…]`, each item written by `item`.
pub fn array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push(']');
}

/// Appends an unsigned integer in decimal.
pub fn uint(out: &mut String, v: u64) {
    let _ = write!(out, "{v}");
}

/// Appends a float the way the vendored writer does: `{:?}` of the `f64`
/// (shortest round-trip, always with a point or an exponent), `null` for
/// NaN and ±inf, which JSON cannot carry.
pub fn float(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// Appends a quoted string: `"` and `\` backslashed, `\n \r \t \b \f` by
/// name, every other control character as `\u00XX`, everything else —
/// non-ASCII included — as it is.
pub fn string(out: &mut String, s: &str) {
    out.push('"');
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => "",
            _ => continue,
        };
        // Every byte matched above is ASCII, so `i` is a char boundary.
        out.push_str(&s[plain..i]);
        if escaped.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escaped);
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

/// Appends one ranked candidate, as a worker and the router both write it:
/// `score_bits` is the raw logit's exact `f32` bit pattern, because JSON
/// decimal round-trips are not bit-reliable and the router's merge must
/// reproduce the single-node ranking bit for bit.
pub fn prediction(out: &mut String, entity: usize, name: &str, probability: f32, score: f32) {
    Object::open(out)
        .uint("entity", entity as u64)
        .str("name", name)
        .float("probability", f64::from(probability))
        .float("score", f64::from(score))
        .uint("score_bits", u64::from(score.to_bits()))
        .close();
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use logcl_tensor::rng::splitmix64;
    use serde_json::json;

    fn written(f: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        f(&mut out);
        out
    }

    /// Names a vocabulary could hold: quotes, backslashes, every kind of
    /// control character, non-ASCII of every UTF-8 width.
    pub(crate) fn seeded_name(seed: u64) -> String {
        const PIECES: [&str; 14] = [
            "a", "Iraq_1", "\"", "\\", "\n", "\r", "\t", "\u{08}", "\u{0c}", "\u{01}", "\u{1f}",
            "é", "中", "𝄞",
        ];
        let len = splitmix64(seed, 0) % 9;
        (1..=len)
            .map(|i| PIECES[(splitmix64(seed, i) % PIECES.len() as u64) as usize])
            .collect()
    }

    /// Scores that stress the float path, then seeded bit patterns.
    pub(crate) fn seeded_f32(seed: u64, i: u64) -> f32 {
        const EDGES: [f32; 10] = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            f32::MIN_POSITIVE / 2.0, // subnormal
            f32::MAX,
            f32::MIN,
            1.0,
            0.1,
        ];
        let draw = splitmix64(seed, i);
        match draw % 3 {
            0 => EDGES[(draw / 3 % EDGES.len() as u64) as usize],
            _ => f32::from_bits((draw >> 32) as u32),
        }
    }

    #[test]
    fn strings_and_numbers_match_the_vendored_writer() {
        for s in [
            "",
            "plain",
            "\"\\\n\r\t\u{08}\u{0c}\u{00}\u{1f}\u{7f}",
            "é中𝄞 mixed \"x\"",
        ] {
            assert_eq!(written(|o| string(o, s)), json!(s).to_string(), "{s:?}");
        }
        for seed in 0..500 {
            let s = seeded_name(seed);
            assert_eq!(written(|o| string(o, &s)), json!(s).to_string(), "{s:?}");
        }
        for v in [0, 1, u64::from(u32::MAX), u64::MAX] {
            assert_eq!(written(|o| uint(o, v)), json!(v).to_string());
        }
        for seed in 0..200 {
            for i in 0..8 {
                let x = seeded_f32(seed, i);
                assert_eq!(
                    written(|o| float(o, f64::from(x))),
                    json!(x).to_string(),
                    "{x:?}"
                );
                let y = f64::from_bits(splitmix64(seed, 100 + i));
                assert_eq!(written(|o| float(o, y)), json!(y).to_string(), "{y:?}");
            }
        }
    }

    #[test]
    fn a_prediction_matches_its_json_construction() {
        for seed in 0..300 {
            let (name, p, s) = (seeded_name(seed), seeded_f32(seed, 1), seeded_f32(seed, 2));
            let entity = (splitmix64(seed, 3) % 100_000) as usize;
            let reference = json!({
                "entity": entity,
                "name": name,
                "probability": p,
                "score": s,
                "score_bits": s.to_bits(),
            });
            assert_eq!(
                written(|o| prediction(o, entity, &name, p, s)),
                reference.to_string()
            );
        }
        assert_eq!(
            written(|o| array(o, [3u64, 1], uint)),
            json!([3u64, 1u64]).to_string()
        );
        assert_eq!(written(|o| array(o, Vec::<u64>::new(), uint)), "[]");
    }
}
