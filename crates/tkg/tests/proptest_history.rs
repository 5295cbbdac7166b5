//! The as-of contract of [`HistoryIndex`]: one index over the whole
//! timeline, read as of `t`, answers every reader exactly as an index built
//! over `snaps[..t]` alone — same counts, same edges, same order. That
//! equality is what lets every caller share one index and leaves the
//! extrapolation boundary (`t < t_q`) to `history.rs`.

use logcl_tkg::{HistoryIndex, HistoryView, Snapshot};
use proptest::prelude::*;

const ENTITIES: usize = 7;
const RELS: usize = 2;
const TIMES: usize = 9;
const CAPS: [usize; 4] = [1, 7, 60, usize::MAX];

/// A timeline over a small vocabulary, so `(s, r, o)` repeats across and
/// within snapshots; every fact brings its inverse edge, some snapshots
/// are empty.
fn timeline(facts: &[(usize, usize, usize, usize)]) -> Vec<Snapshot> {
    (0..TIMES)
        .map(|t| Snapshot {
            t,
            edges: facts
                .iter()
                .filter(|f| f.3 == t)
                .flat_map(|&(s, r, o, _)| [(s, r, o), (o, r + RELS, s)])
                .collect(),
        })
        .collect()
}

/// All four readers, over every key of the vocabulary.
fn assert_same_answers(
    got: HistoryView<'_>,
    want: HistoryView<'_>,
    what: &str,
) -> Result<(), TestCaseError> {
    for e in 0..ENTITIES {
        prop_assert_eq!(
            got.entity_seen(e),
            want.entity_seen(e),
            "{} entity {}",
            what,
            e
        );
    }
    for s in 0..ENTITIES {
        for r in 0..2 * RELS {
            prop_assert_eq!(
                got.seen_objects(s, r),
                want.seen_objects(s, r),
                "{} seen_objects({}, {})",
                what,
                s,
                r
            );
            for o in 0..ENTITIES {
                prop_assert_eq!(got.count(s, r, o), want.count(s, r, o));
            }
            for cap in CAPS {
                prop_assert_eq!(
                    got.query_subgraph(s, r, cap).edges,
                    want.query_subgraph(s, r, cap).edges,
                    "{} query_subgraph({}, {}, {})",
                    what,
                    s,
                    r,
                    cap
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn as_of_equals_the_prefix_built_alone(
        facts in prop::collection::vec(
            (0..ENTITIES, 0..RELS, 0..ENTITIES, 0..TIMES),
            0..60,
        )
    ) {
        let snaps = timeline(&facts);
        let full = HistoryIndex::build(&snaps);
        // Grown one `advance` at a time, as a serving head is.
        let mut live = HistoryIndex::new();
        for t in 0..=snaps.len() {
            let prefix = HistoryIndex::build(&snaps[..t]);
            let want = prefix.as_of(t);
            assert_same_answers(full.as_of(t), want, "full.as_of(t)")?;
            assert_same_answers(live.as_of(usize::MAX), want, "advance-grown")?;
            for s in 0..ENTITIES {
                prop_assert_eq!(
                    live.query_subgraph(s, 0, 7).edges,
                    prefix.query_subgraph(s, 0, 7).edges
                );
            }
            if let Some(snap) = snaps.get(t) {
                live.advance(snap);
            }
        }
        prop_assert_eq!(live.horizon(), full.horizon());
    }
}
