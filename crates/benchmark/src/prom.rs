//! Prometheus text exposition: parse a scrape, subtract two scrapes.

use std::collections::BTreeMap;

/// One scrape: series (name with its label set, verbatim) → value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    /// Parses exposition text. Comment lines and lines whose value is not a
    /// number are skipped — a scrape is a measurement aid, not an input to
    /// validate.
    pub fn parse(text: &str) -> Scrape {
        let mut series = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // The value follows the last space; label values may hold spaces.
            let Some((name, value)) = line.rsplit_once(' ') else {
                continue;
            };
            if let Ok(v) = value.parse::<f64>() {
                series.insert(name.trim().to_string(), v);
            }
        }
        Scrape(series)
    }

    /// The value of one exact series, 0 when absent.
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// Sum over every series of metric family `name` (all label sets).
    pub fn family(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| {
                k.strip_prefix(name)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
            })
            // Not `sum()`: the empty float sum is −0.0, and a count of nothing
            // should read 0.
            .fold(0.0, |total, (_, v)| total + v)
    }

    /// `self − before`, series by series (series absent before count from 0).
    pub fn minus(&self, before: &Scrape) -> Scrape {
        Scrape(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.get(k)))
                .collect(),
        )
    }

    /// `self + other`, series by series.
    pub fn plus(&self, other: &Scrape) -> Scrape {
        let mut out = self.0.clone();
        for (k, v) in &other.0 {
            *out.entry(k.clone()).or_insert(0.0) += v;
        }
        Scrape(out)
    }

    /// Mean of a histogram family over this (delta) scrape, in the
    /// histogram's own unit; 0 when it saw no observation.
    pub fn hist_mean(&self, name: &str) -> f64 {
        let count = self.get(&format!("{name}_count"));
        if count <= 0.0 {
            return 0.0;
        }
        self.get(&format!("{name}_sum")) / count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "# HELP logcl_shed_total Requests shed.\n\
        # TYPE logcl_shed_total counter\n\
        logcl_shed_total{reason=\"queue_full\"} 1\n\
        logcl_shed_total{reason=\"overload\"} 2\n\
        logcl_shed_before_compute_total 9\n\
        logcl_batch_size_sum 10\n\
        logcl_batch_size_count 8\n";
    const AFTER: &str = "logcl_shed_total{reason=\"queue_full\"} 4\n\
        logcl_shed_total{reason=\"overload\"} 2\n\
        logcl_shed_before_compute_total 9\n\
        logcl_batch_size_sum 40\n\
        logcl_batch_size_count 18\n\
        logcl_build_info{version=\"0.1.0\",git=\"a b\"} 1\n\
        garbage line\n";

    #[test]
    fn parses_and_subtracts() {
        let before = Scrape::parse(BEFORE);
        let after = Scrape::parse(AFTER);
        assert_eq!(before.get("logcl_shed_total{reason=\"overload\"}"), 2.0);
        assert_eq!(
            after.get("logcl_build_info{version=\"0.1.0\",git=\"a b\"}"),
            1.0
        );
        let delta = after.minus(&before);
        assert_eq!(delta.get("logcl_shed_total{reason=\"queue_full\"}"), 3.0);
        // The family sum takes every label set and no longer-named family.
        assert_eq!(delta.family("logcl_shed_total"), 3.0);
        assert_eq!(before.family("logcl_shed_total"), 3.0);
        assert_eq!(delta.hist_mean("logcl_batch_size"), 3.0);
        assert_eq!(delta.hist_mean("logcl_absent"), 0.0);
        assert_eq!(delta.plus(&delta).family("logcl_shed_total"), 6.0);
    }
}
