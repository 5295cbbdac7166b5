//! The snapshot-encoding cache.
//!
//! LogCL's forward pass splits into a query-independent part — the local
//! recurrent encoding of the last `m` snapshots before `t` (`model.encode`)
//! — and a cheap per-query part. The trainer already reuses one encoding
//! across the two propagation phases of a timestamp; the server widens that
//! reuse window across *requests*: all queries at the same `t` share one
//! encoding until ingestion invalidates it.
//!
//! Invalidation rules (see DESIGN.md):
//! * appending facts at `t` drops entries with key `>= t`. An encoding for
//!   `t_q` reads `snapshots[..t_q]`, so for the windowed encodings strictly
//!   `> t` would suffice; the entry at `t` goes too because, when `t` was
//!   the head, it was read out of the streaming state, and from now on `t`
//!   is a historical timestamp answered by the windowed encode. Entries
//!   hold encodings only — the history they are scored against is the
//!   registry's one index read as of the entry's key, which an ingest at or
//!   after that key cannot change,
//! * an online weight update drops *everything* — every cached encoding was
//!   computed under the old parameters.
//!
//! An entry costs its values and nothing else: the model encodes for serving
//! without recording an autograd graph (`logcl_tensor::autograd::no_grad`),
//! so what is cached is `2m` entity matrices and one relation matrix —
//! 0.71 MB at |E| = 340, 8.2 MB at |E| = 4000 with `m = 4`, `dim = 64` — not
//! the intermediates of the encode that produced them. The one thing it
//! still shares with the model is `h0`, the live entity table's handle,
//! which is one more reason the weight-update rule above stands.

use std::collections::BTreeMap;

/// A bounded map from timestamp to cached value, evicting the smallest
/// (oldest) timestamp first — serving traffic clusters near the horizon.
pub struct EncodingCache<V> {
    map: BTreeMap<usize, V>,
    capacity: usize,
}

impl<V> EncodingCache<V> {
    /// An empty cache holding at most `capacity` encodings.
    pub fn new(capacity: usize) -> Self {
        Self {
            map: BTreeMap::new(),
            capacity: capacity.max(1),
        }
    }

    /// The cached value for timestamp `t`, if present.
    pub fn get(&self, t: usize) -> Option<&V> {
        self.map.get(&t)
    }

    /// Whether timestamp `t` is cached.
    pub fn contains(&self, t: usize) -> bool {
        self.map.contains_key(&t)
    }

    /// Inserts (or replaces) the encoding for `t`, evicting the oldest
    /// timestamp when full.
    pub fn insert(&mut self, t: usize, value: V) {
        if !self.map.contains_key(&t) && self.map.len() >= self.capacity {
            self.map.pop_first();
        }
        self.map.insert(t, value);
    }

    /// Drops every entry with timestamp `>= t`; returns how many were
    /// dropped.
    pub fn invalidate_from(&mut self, t: usize) -> usize {
        let dropped = self.map.split_off(&t);
        dropped.len()
    }

    /// Drops everything (weights changed); returns how many entries died.
    pub fn clear(&mut self) -> usize {
        let n = self.map.len();
        self.map.clear();
        n
    }

    /// Number of cached encodings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_and_capacity_eviction() {
        let mut c: EncodingCache<&'static str> = EncodingCache::new(2);
        c.insert(10, "ten");
        c.insert(11, "eleven");
        assert_eq!(c.get(10), Some(&"ten"));
        // Third insert evicts the oldest timestamp (10).
        c.insert(12, "twelve");
        assert_eq!(c.len(), 2);
        assert!(!c.contains(10));
        assert!(c.contains(11) && c.contains(12));
        // Re-inserting an existing key is a replace, not an eviction.
        c.insert(12, "TWELVE");
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(12), Some(&"TWELVE"));
    }

    #[test]
    fn invalidate_from_drops_at_and_after() {
        let mut c: EncodingCache<usize> = EncodingCache::new(8);
        for t in [3, 5, 7, 9] {
            c.insert(t, t);
        }
        assert_eq!(c.invalidate_from(5), 3);
        assert!(c.contains(3));
        assert!(!c.contains(5) && !c.contains(7) && !c.contains(9));
        assert_eq!(c.invalidate_from(100), 0);
    }

    #[test]
    fn clear_reports_count() {
        let mut c: EncodingCache<u8> = EncodingCache::new(4);
        c.insert(1, 1);
        c.insert(2, 2);
        assert_eq!(c.clear(), 2);
        assert!(c.is_empty());
    }
}
