//! Determinism regression tests for the history/eval structures whose
//! hash-ordered containers were replaced with ordered ones (`BTreeMap`/
//! `BTreeSet`; the crate's `clippy.toml` disallows hash-ordered ones): the
//! observable outputs must not depend on insertion order or on which
//! process run produced them — two runs must render byte-identical output.

use std::collections::BTreeSet;

use logcl_tkg::eval::rank_time_aware;
use logcl_tkg::quad::Quad;
use logcl_tkg::{HistoryIndex, Snapshot};

/// A small synthetic stream with repeated `(s, r)` pairs and shared
/// entities, deterministically scrambled per-snapshot by `order`.
fn snapshots(reverse_within_snapshot: bool) -> Vec<Snapshot> {
    let base = vec![
        (0, vec![(0, 0, 1), (1, 1, 2), (0, 0, 3), (3, 2, 0)]),
        (1, vec![(0, 0, 1), (2, 0, 3), (1, 1, 2), (4, 2, 1)]),
        (2, vec![(1, 0, 4), (4, 1, 5), (0, 0, 3), (5, 2, 2)]),
    ];
    base.into_iter()
        .map(|(t, mut edges)| {
            if reverse_within_snapshot {
                edges.reverse();
            }
            Snapshot { t, edges }
        })
        .collect()
}

#[test]
fn seen_objects_is_insertion_order_invariant() {
    let a = HistoryIndex::build(&snapshots(false));
    let b = HistoryIndex::build(&snapshots(true));
    let (a, b) = (a.as_of(a.horizon()), b.as_of(b.horizon()));
    for s in 0..6 {
        for r in 0..3 {
            assert_eq!(
                a.seen_objects(s, r),
                b.seen_objects(s, r),
                "seen_objects({s}, {r}) depends on within-snapshot edge order"
            );
        }
    }
}

#[test]
fn two_runs_render_identical_bytes() {
    // The end-to-end form of the invariant: independently build the index
    // twice and render every query's history to a byte string — the bytes
    // must match exactly. Before the BTreeMap conversion this went through
    // hasher-seeded iteration order and could differ across processes.
    let render = || {
        let idx = HistoryIndex::build(&snapshots(false));
        let mut out = String::new();
        for s in 0..6 {
            for r in 0..3 {
                let seen = idx.as_of(idx.horizon()).seen_objects(s, r);
                out.push_str(&format!("{s},{r}:{seen:?};"));
                out.push_str(&format!("{:?}\n", idx.query_subgraph(s, r, 8).edges));
            }
        }
        out
    };
    assert_eq!(render().into_bytes(), render().into_bytes());
}

#[test]
fn rel_subjects_iterates_in_relation_order() {
    let snap = &snapshots(false)[0];
    let rels: Vec<usize> = snap.rel_subjects().into_keys().collect();
    let mut sorted = rels.clone();
    sorted.sort_unstable();
    assert_eq!(
        rels, sorted,
        "rel_subjects must iterate in ascending RelId order"
    );
}

#[test]
fn time_aware_ranking_is_stable_across_truth_set_construction_order() {
    let scores = vec![0.1f32, 0.9, 0.3, 0.9, 0.2];
    let q = Quad {
        s: 0,
        r: 0,
        o: 3,
        t: 0,
    };
    let mut fwd = BTreeSet::new();
    let mut rev = BTreeSet::new();
    let facts = [(0usize, 0usize, 1usize), (0, 0, 3), (2, 1, 4)];
    for f in facts {
        fwd.insert(f);
    }
    for f in facts.iter().rev() {
        rev.insert(*f);
    }
    assert_eq!(
        rank_time_aware(&scores, &q, &fwd),
        rank_time_aware(&scores, &q, &rev)
    );
}
