//! Detailed evaluation diagnostics beyond the headline table numbers:
//! raw-vs-filtered metrics, per-relation breakdowns, and the repetition
//! split (historical vs novel answers) that explains *where* a model's
//! MRR comes from — the analysis lens used throughout the paper's
//! discussion sections.

use std::collections::BTreeMap;

use logcl_tkg::eval::{rank_raw, rank_time_aware, Metrics, RankAccumulator};
use logcl_tkg::quad::Quad;
use logcl_tkg::TkgDataset;

use crate::api::{two_phase, Phase, TkgModel};

/// A full diagnostic report for one model on one split.
#[derive(Debug, Clone)]
pub struct DetailedReport {
    /// Time-aware filtered metrics (the headline numbers).
    pub filtered: Metrics,
    /// Raw (unfiltered) metrics.
    pub raw: Metrics,
    /// Metrics restricted to queries whose answer had occurred before with
    /// the same `(s, r)` — the repetition slice copy models excel at.
    pub historical: Metrics,
    /// Metrics restricted to queries with a novel answer — the slice only
    /// evolution-aware models can do well on.
    pub novel: Metrics,
    /// Per-relation filtered metrics, sorted by descending query count
    /// (base + inverse relations are reported separately).
    pub per_relation: Vec<(String, Metrics)>,
}

impl std::fmt::Display for DetailedReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "filtered:   {}", self.filtered)?;
        writeln!(f, "raw:        {}", self.raw)?;
        writeln!(f, "historical: {}", self.historical)?;
        writeln!(f, "novel:      {}", self.novel)?;
        writeln!(f, "top relations by query count:")?;
        for (name, m) in self.per_relation.iter().take(8) {
            writeln!(f, "  {name:<40} {m}")?;
        }
        Ok(())
    }
}

/// Runs the full two-phase evaluation while collecting every diagnostic
/// slice in a single pass over the model's scores.
pub fn evaluate_detailed(
    model: &mut dyn TkgModel,
    ds: &TkgDataset,
    quads: &[Quad],
) -> DetailedReport {
    let mut filtered = RankAccumulator::new();
    let mut raw = RankAccumulator::new();
    let mut historical = RankAccumulator::new();
    let mut novel = RankAccumulator::new();
    let mut per_rel: BTreeMap<usize, RankAccumulator> = BTreeMap::new();
    two_phase(model, ds, quads, Phase::Both, false, |ctx, q, s, truth| {
        let fr = rank_time_aware(s, q, truth);
        filtered.push(fr);
        raw.push(rank_raw(s, q.o));
        if ctx.history.as_of(ctx.t).count(q.s, q.r, q.o) > 0 {
            historical.push(fr);
        } else {
            novel.push(fr);
        }
        per_rel.entry(q.r).or_default().push(fr);
    });

    let mut per_relation: Vec<(String, Metrics)> = per_rel
        .into_iter()
        .map(|(r, acc)| (ds.rel_name(r), acc.finish()))
        .collect();
    per_relation.sort_by(|a, b| b.1.count.cmp(&a.1.count).then(a.0.cmp(&b.0)));

    DetailedReport {
        filtered: filtered.finish(),
        raw: raw.finish(),
        historical: historical.finish(),
        novel: novel.finish(),
        per_relation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::evaluate;
    use crate::api::test_support::{ConstModel, TapeFreeModel};
    use logcl_tkg::SyntheticPreset;

    #[test]
    fn detailed_scores_without_a_tape() {
        let ds = SyntheticPreset::Icews14.generate_scaled(0.15);
        let mut model = TapeFreeModel(ConstModel {
            favourite: 1,
            calls: 0,
        });
        let r = evaluate_detailed(&mut model, &ds, &ds.test.clone());
        assert!(r.filtered.count > 0);
    }

    #[test]
    fn detailed_filtered_matches_plain_evaluate() {
        let ds = SyntheticPreset::Icews14.generate_scaled(0.15);
        let mut model = ConstModel {
            favourite: 1,
            calls: 0,
        };
        let test = ds.test.clone();
        let plain = evaluate(&mut model, &ds, &test);
        let detailed = evaluate_detailed(&mut model, &ds, &test);
        assert_eq!(plain, detailed.filtered);
    }

    #[test]
    fn slices_partition_the_queries() {
        let ds = SyntheticPreset::Icews14.generate_scaled(0.15);
        let mut model = ConstModel {
            favourite: 0,
            calls: 0,
        };
        let r = evaluate_detailed(&mut model, &ds, &ds.test.clone());
        assert_eq!(r.historical.count + r.novel.count, r.filtered.count);
        let rel_total: usize = r.per_relation.iter().map(|(_, m)| m.count).sum();
        assert_eq!(rel_total, r.filtered.count);
        assert_eq!(r.raw.count, r.filtered.count);
    }

    #[test]
    fn raw_never_beats_filtered() {
        let ds = SyntheticPreset::Icews14.generate_scaled(0.15);
        let mut model = ConstModel {
            favourite: 2,
            calls: 0,
        };
        let r = evaluate_detailed(&mut model, &ds, &ds.test.clone());
        assert!(r.filtered.mrr >= r.raw.mrr - 1e-9);
    }

    #[test]
    fn report_renders() {
        let ds = SyntheticPreset::Icews14.generate_scaled(0.15);
        let mut model = ConstModel {
            favourite: 0,
            calls: 0,
        };
        let r = evaluate_detailed(&mut model, &ds, &ds.test.clone());
        let text = format!("{r}");
        assert!(text.contains("filtered:") && text.contains("novel:"));
    }
}
