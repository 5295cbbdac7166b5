//! The served science, pinned across commits: on a seeded synthetic preset
//! and the default untrained model (parameter seed 42), every query below
//! must reproduce the entity ids and `score.to_bits()` committed in
//! `golden_scores.txt`.
//!
//! The table was generated at the parent of PR 15 (rev `bb8d0b0`, before the
//! global encoder moved from all `|E|` rows to the query subgraph's own) and
//! is committed unedited, so this test passing is the proof that the change
//! moved no served bit — and it keeps guarding later refactors of the
//! prediction path. To regenerate after a change that is *meant* to move
//! scores, say so in CHANGES.md and run
//! `cargo test --release --test golden_scores -- --ignored --nocapture print_table`.

use logcl::core::{predict_topk_stream, topk_from_scores, Prediction};
use logcl::prelude::*;
use logcl::tkg::HistoryIndex;

const K: usize = 5;
/// `Icews14.generate_scaled(0.6)` has 72 timestamps; queries at 72 are the
/// one-step forecast the serving head answers.
const HEAD: usize = 72;

#[derive(Debug, Clone, Copy)]
enum Path {
    /// `predict_topk`: from-scratch windowed encode at any `t`.
    Topk,
    /// `predict_topk_stream`: the streamed encoder state, head only.
    Stream,
    /// `forward_queries_local_only` on the streamed state: what a browned-out
    /// server answers.
    LocalOnly,
}

/// `(path, s, r, t)`. Relations ≥ 24 are inverses. Chosen from the preset's
/// own facts so that the list covers long and short histories, `(s, r)`
/// pairs with no historical answer (`(1, 14)`, `(43, 12)`), and a query at
/// `t = 0`, before any fact.
const QUERIES: [(Path, usize, usize, usize); 24] = [
    (Path::Topk, 8, 13, HEAD),
    (Path::Stream, 8, 13, HEAD),
    (Path::LocalOnly, 8, 13, HEAD),
    (Path::Topk, 101, 11, HEAD),
    (Path::Stream, 101, 11, HEAD),
    (Path::Topk, 136, 7, HEAD),
    (Path::Topk, 193, 16, HEAD),
    (Path::Topk, 1, 14, HEAD),
    (Path::Stream, 1, 14, HEAD),
    (Path::Topk, 138, 37, HEAD),
    (Path::Stream, 138, 37, HEAD),
    (Path::Stream, 3, 45, HEAD),
    (Path::Topk, 152, 23, 66),
    (Path::Topk, 131, 21, 67),
    (Path::Topk, 180, 3, 67),
    (Path::Topk, 1, 14, 67),
    (Path::Topk, 43, 22, 68),
    (Path::Topk, 138, 37, 65),
    (Path::Topk, 151, 15, 50),
    (Path::Topk, 95, 22, 40),
    (Path::Topk, 43, 12, 20),
    (Path::Topk, 197, 21, 9),
    (Path::Topk, 8, 6, 1),
    (Path::Topk, 8, 6, 0),
];

fn answer(
    model: &mut LogCl,
    ds: &TkgDataset,
    (path, s, r, t): (Path, usize, usize, usize),
) -> Vec<Prediction> {
    match path {
        Path::Topk => predict_topk(model, ds, s, r, t, K).expect("valid query"),
        Path::Stream => predict_topk_stream(model, ds, s, r, K).expect("valid query"),
        Path::LocalOnly => {
            let snapshots = ds.snapshots();
            let state = model.init_encoder_state(&snapshots);
            let shared = model.shared_from_state(&state);
            let history = HistoryIndex::build(&snapshots);
            let query = Quad::new(s, r, 0, t);
            let out = model.forward_queries_local_only(&shared, &history, &[query]);
            topk_from_scores(ds, out.logits.to_tensor().row(0), K)
        }
    }
}

/// One table line per query: `path s r t entity:score_bits ×K`.
fn table() -> Vec<String> {
    let ds = SyntheticPreset::Icews14.generate_scaled(0.6);
    assert_eq!(ds.num_times, HEAD);
    let mut model = LogCl::new(&ds, LogClConfig::default());
    QUERIES
        .iter()
        .map(|&q| {
            let cells: Vec<String> = answer(&mut model, &ds, q)
                .iter()
                .map(|p| format!("{}:{:08x}", p.entity, p.score.to_bits()))
                .collect();
            format!("{:?} {} {} {} {}", q.0, q.1, q.2, q.3, cells.join(" "))
        })
        .collect()
}

#[test]
fn served_scores_reproduce_the_committed_table() {
    let committed: Vec<&str> = include_str!("golden_scores.txt")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    let actual = table();
    assert_eq!(committed.len(), actual.len(), "table length");
    for (want, got) in committed.iter().zip(&actual) {
        assert_eq!(want, got, "a served score moved");
    }
}

#[test]
#[ignore = "prints the table for regeneration; not a check"]
fn print_table() {
    for line in table() {
        println!("{line}");
    }
}
