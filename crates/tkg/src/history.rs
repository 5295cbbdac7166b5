//! Global history: the repetition index and the paper's two-hop historical
//! query subgraph (Section III-D).
//!
//! One [`HistoryIndex`] holds the whole timeline, and every fact in it
//! remembers its timestamp. Reads go through [`HistoryIndex::as_of`]: the
//! view for query time `t_q` answers from exactly the facts with `t < t_q`
//! — the extrapolation setting's information boundary — so that rule lives
//! here and a reader cannot compile without naming a time.

use std::collections::{BTreeMap, BTreeSet};

use crate::quad::{EntityId, RelId, Time};
use crate::snapshot::Snapshot;

type Triple = (EntityId, RelId, EntityId);

/// A static (time-stripped) subgraph of historical facts relevant to one
/// query, per the paper: one-hop facts of the query subject united with
/// one-hop facts of every historical answer object of `(s, r)`.
#[derive(Debug, Clone, Default)]
pub struct QuerySubgraph {
    /// Deduplicated triples, in the order [`HistoryView::query_subgraph`]
    /// documents.
    pub edges: Vec<Triple>,
}

impl QuerySubgraph {
    /// Entities participating in the subgraph, sorted and deduplicated.
    pub fn entities(&self) -> Vec<EntityId> {
        let mut ents: Vec<EntityId> = self.edges.iter().flat_map(|&(s, _, o)| [s, o]).collect();
        ents.sort_unstable();
        ents.dedup();
        ents
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when the query has no usable history.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// Time-versioned cumulative index of every fact absorbed so far.
///
/// [`HistoryIndex::advance`] sees snapshots in time order, so each per-key
/// list below is ordered by time and "as of `t`" is a prefix of it, found by
/// binary search: [`HistoryIndex::as_of`]`(t)` reads exactly what
/// `HistoryIndex::build(&snaps[..t])` would hold, without building it.
///
/// ```
/// use logcl_tkg::{HistoryIndex, Snapshot};
/// let mut idx = HistoryIndex::new();
/// idx.advance(&Snapshot { t: 0, edges: vec![(0, 1, 2), (0, 1, 2), (2, 0, 3)] });
/// idx.advance(&Snapshot { t: 1, edges: vec![(0, 1, 2), (0, 1, 4)] });
/// assert_eq!(idx.as_of(1).count(0, 1, 2), 2);
/// assert_eq!(idx.as_of(1).seen_objects(0, 1), vec![(2, 2)]);
/// assert_eq!(idx.as_of(2).seen_objects(0, 1), vec![(2, 3), (4, 1)]);
/// let g = idx.as_of(1).query_subgraph(0, 1, 10); // one-hop of 0 ∪ one-hop of answer 2
/// assert_eq!(g.entities(), vec![0, 2, 3]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct HistoryIndex {
    /// `(s, r)` → every occurrence as `(time, object)`, in arrival order and
    /// so ascending in time (the CyGNet/CENET "copy vocabulary" and the
    /// subgraph seed). Ordered maps so every iteration order is a function
    /// of the keys, never of hasher internals.
    occurrences: BTreeMap<(EntityId, RelId), Vec<(Time, EntityId)>>,
    /// Entity → incident triples in first-seen order, each with the time it
    /// was first seen (ascending); the set deduplicates.
    incident: BTreeMap<EntityId, Vec<(Time, Triple)>>,
    seen: BTreeSet<Triple>,
    /// Next timestamp expected by [`HistoryIndex::advance`].
    t_next: Time,
}

impl HistoryIndex {
    /// An empty index (no history yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an index covering every snapshot in `snaps` (must be
    /// inverse-closed if inverse queries will be asked).
    pub fn build(snaps: &[Snapshot]) -> Self {
        let mut idx = Self::new();
        for s in snaps {
            idx.advance(s);
        }
        idx
    }

    /// Absorbs one snapshot. Snapshots must be fed in time order.
    pub fn advance(&mut self, snap: &Snapshot) {
        assert!(
            snap.t >= self.t_next,
            "snapshots must be advanced in time order (got {}, expected >= {})",
            snap.t,
            self.t_next
        );
        self.t_next = snap.t + 1;
        for &(s, r, o) in &snap.edges {
            self.occurrences
                .entry((s, r))
                .or_default()
                .push((snap.t, o));
            if self.seen.insert((s, r, o)) {
                self.incident
                    .entry(s)
                    .or_default()
                    .push((snap.t, (s, r, o)));
                self.incident
                    .entry(o)
                    .or_default()
                    .push((snap.t, (s, r, o)));
            }
        }
    }

    /// Timestamps covered so far (facts with `t <` this are indexed).
    pub fn horizon(&self) -> Time {
        self.t_next
    }

    /// The index as a query at time `t` may see it: the facts with time
    /// `< t`. Total — a `t` at or beyond [`HistoryIndex::horizon`] is the
    /// whole index.
    pub fn as_of(&self, t: Time) -> HistoryView<'_> {
        HistoryView { index: self, t }
    }

    /// [`HistoryView::query_subgraph`] over everything absorbed so far.
    pub fn query_subgraph(&self, s: EntityId, r: RelId, max_edges: usize) -> QuerySubgraph {
        self.as_of(self.horizon()).query_subgraph(s, r, max_edges)
    }
}

/// A [`HistoryIndex`] read as of one query time: every answer comes from
/// the facts with time `< t` and equals what an index built over that
/// prefix of the timeline alone would give.
#[derive(Debug, Clone, Copy)]
pub struct HistoryView<'a> {
    index: &'a HistoryIndex,
    t: Time,
}

/// The entries of a time-ascending list that lie before `t`.
fn before<T>(list: Option<&Vec<(Time, T)>>, t: Time) -> &[(Time, T)] {
    let list = list.map_or(&[][..], Vec::as_slice);
    &list[..list.partition_point(|&(at, _)| at < t)]
}

impl HistoryView<'_> {
    /// Historical answer objects of `(s, r)` with their frequencies,
    /// ascending by object id.
    pub fn seen_objects(&self, s: EntityId, r: RelId) -> Vec<(EntityId, u32)> {
        let mut counts: BTreeMap<EntityId, u32> = BTreeMap::new();
        for &(_, o) in before(self.index.occurrences.get(&(s, r)), self.t) {
            *counts.entry(o).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// Total number of occurrences of `(s, r, o)` in history.
    pub fn count(&self, s: EntityId, r: RelId, o: EntityId) -> u32 {
        let occurrences = before(self.index.occurrences.get(&(s, r)), self.t);
        occurrences.iter().filter(|&&(_, seen)| seen == o).count() as u32
    }

    /// Whether the entity has appeared in any historical fact.
    pub fn entity_seen(&self, e: EntityId) -> bool {
        !before(self.index.incident.get(&e), self.t).is_empty()
    }

    /// The paper's historical query subgraph for query `(s, r, ?)`:
    /// `G'_g = G'_g1 ∪ G'_g2` where `G'_g1` are one-hop facts containing
    /// `s` and `G'_g2` are one-hop facts containing each historical answer
    /// object of `(s, r)`.
    ///
    /// The triples are the concatenation of `s`'s own incident list and
    /// then each answer's incident list in ascending object id — every list
    /// in first-seen order, a triple kept only where it first appears in
    /// that concatenation. At most `max_edges` are kept, and the cap drops
    /// from the *front of the concatenation*: `s`'s own oldest facts go
    /// first, and the lists of the highest-id answers survive whole. That
    /// is recency within one list, not across them; the order is pinned by
    /// every checkpoint and recorded result, so it is documented, not
    /// changed.
    pub fn query_subgraph(&self, s: EntityId, r: RelId, max_edges: usize) -> QuerySubgraph {
        let mut edges: Vec<Triple> = Vec::new();
        let mut dedup: BTreeSet<Triple> = BTreeSet::new();
        let answers = self.seen_objects(s, r);
        for e in std::iter::once(s).chain(answers.iter().map(|&(o, _)| o)) {
            for &(_, tr) in before(self.index.incident.get(&e), self.t) {
                if dedup.insert(tr) {
                    edges.push(tr);
                }
            }
        }
        if edges.len() > max_edges {
            edges.drain(..edges.len() - max_edges);
        }
        QuerySubgraph { edges }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snaps() -> Vec<Snapshot> {
        vec![
            Snapshot {
                t: 0,
                edges: vec![(0, 0, 1), (1, 1, 2)],
            },
            Snapshot {
                t: 1,
                edges: vec![(0, 0, 1), (2, 0, 3)],
            },
            Snapshot {
                t: 2,
                edges: vec![(1, 0, 4), (4, 1, 5)],
            },
        ]
    }

    #[test]
    fn counts_accumulate_over_time() {
        let idx = HistoryIndex::build(&snaps());
        assert_eq!(idx.horizon(), 3);
        let all = idx.as_of(3);
        assert_eq!(all.count(0, 0, 1), 2);
        assert_eq!(all.count(2, 0, 3), 1);
        assert_eq!(all.count(9, 9, 9), 0);
        // The same index, read earlier: facts at `t` are never `< t`.
        assert_eq!(idx.as_of(1).count(0, 0, 1), 1);
        assert_eq!(idx.as_of(1).count(2, 0, 3), 0);
        assert_eq!(idx.as_of(0).count(0, 0, 1), 0);
    }

    #[test]
    fn seen_objects_sorted() {
        let mut idx = HistoryIndex::new();
        idx.advance(&Snapshot {
            t: 0,
            edges: vec![(0, 0, 5), (0, 0, 2), (0, 0, 5)],
        });
        assert_eq!(idx.as_of(1).seen_objects(0, 0), vec![(2, 1), (5, 2)]);
        assert!(idx.as_of(0).seen_objects(0, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn advance_enforces_order() {
        let mut idx = HistoryIndex::new();
        idx.advance(&Snapshot::empty(2));
        idx.advance(&Snapshot::empty(1));
    }

    #[test]
    fn subgraph_is_two_hop_union() {
        let idx = HistoryIndex::build(&snaps());
        // Query (0, 0, ?): one-hop of 0 = {(0,0,1)}; historical answers of
        // (0,0) = {1}; one-hop of 1 = {(0,0,1), (1,1,2), (1,0,4)}.
        let g = idx.query_subgraph(0, 0, 100);
        let set: BTreeSet<_> = g.edges.iter().copied().collect();
        assert!(set.contains(&(0, 0, 1)));
        assert!(set.contains(&(1, 1, 2)));
        assert!(set.contains(&(1, 0, 4)));
        // Facts not touching 0 or answer 1 are excluded.
        assert!(!set.contains(&(4, 1, 5)));
        assert!(!set.contains(&(2, 0, 3)));
        assert_eq!(g.entities(), vec![0, 1, 2, 4]);
        // As of t = 2 the fact (1,0,4) has not happened yet.
        let earlier = idx.as_of(2).query_subgraph(0, 0, 100);
        assert_eq!(earlier.edges, vec![(0, 0, 1), (1, 1, 2)]);
    }

    #[test]
    fn subgraph_cap_drops_the_front_of_the_concatenation() {
        let idx = HistoryIndex::build(&snaps());
        let g = idx.query_subgraph(0, 0, 2);
        // Uncapped: [(0,0,1)] from the subject, then (1,1,2), (1,0,4) from
        // answer 1. The subject's own triple is the one dropped.
        assert_eq!(g.edges, vec![(1, 1, 2), (1, 0, 4)]);
    }

    #[test]
    fn unseen_query_yields_empty_subgraph() {
        let idx = HistoryIndex::build(&snaps());
        assert!(idx.query_subgraph(9, 0, 10).is_empty());
        assert!(!idx.as_of(3).entity_seen(9));
        assert!(idx.as_of(3).entity_seen(4));
        assert!(!idx.as_of(2).entity_seen(4));
    }

    #[test]
    fn as_of_beyond_the_horizon_is_the_whole_index() {
        let idx = HistoryIndex::build(&snaps());
        for t in [3, 4, usize::MAX] {
            assert_eq!(idx.as_of(t).count(0, 0, 1), 2);
            assert_eq!(
                idx.as_of(t).query_subgraph(0, 0, 100).edges,
                idx.query_subgraph(0, 0, 100).edges
            );
        }
    }
}
