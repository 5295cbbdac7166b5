//! Ingest-to-visible freshness scenario.
//!
//! The latency trace in [`crate::runner`] measures how fast the server
//! *answers*; this module measures how fast new facts become *answerable*.
//! Each round:
//!
//! 1. reads the current horizon `h` from `/healthz`,
//! 2. stamps a [`Clock`] and POSTs one head append (`time == h`) to
//!    `/ingest`,
//! 3. polls `/predict` at `time == h + 1` — rejected as out-of-range until
//!    the append lands, answered `200` the moment the streaming state has
//!    advanced — and records the elapsed ingest-to-visible time.
//!
//! Because `/ingest` replies only after the WAL fsync *and* the O(Δ)
//! encoder-state advance, the measured interval covers the full durable
//! streaming path, not just request transport. Rounds exceeding the SLO are
//! counted as violations; the caller decides whether violations fail the
//! run.
//!
//! All wall-clock reads go through [`crate::timing::Clock`] (the crate's
//! `clippy.toml` bans `Instant::now()` elsewhere in it).

use std::time::Duration;

use crate::runner::{http_get, http_post};
use crate::timing::Clock;
use crate::LoadgenError;

/// How to probe freshness.
#[derive(Debug, Clone)]
pub struct FreshnessConfig {
    /// Server address, `host:port`.
    pub addr: String,
    /// Head appends to measure, one per round.
    pub rounds: usize,
    /// Ingest-to-visible budget per round, in milliseconds.
    pub slo_ms: u64,
    /// Whether each ingest requests bounded online adaptation
    /// (`update: true`).
    pub update: bool,
    /// Per-connection I/O timeout.
    pub io_timeout: Duration,
    /// Entity vocabulary size of the served dataset (round facts are derived
    /// from the round index modulo this).
    pub num_entities: usize,
    /// Relation vocabulary size of the served dataset.
    pub num_rels: usize,
}

impl Default for FreshnessConfig {
    fn default() -> Self {
        FreshnessConfig {
            addr: "127.0.0.1:0".into(),
            rounds: 8,
            slo_ms: 1_000,
            update: true,
            io_timeout: Duration::from_secs(60),
            num_entities: 2,
            num_rels: 1,
        }
    }
}

/// One measured head append.
#[derive(Debug, Clone)]
pub struct FreshnessRound {
    /// The head timestamp this round appended at.
    pub ingest_time: u64,
    /// Ingest POST round-trip (ack implies WAL fsync + state advance).
    pub ingest_micros: u64,
    /// Ingest send → first `200` predict at the new head.
    pub visible_micros: u64,
    /// Predict attempts before the new head answered.
    pub polls: u64,
}

/// Every round of a freshness run, plus the SLO it was judged against.
#[derive(Debug, Clone)]
pub struct FreshnessReport {
    /// Per-round measurements, in execution order.
    pub rounds: Vec<FreshnessRound>,
    /// The per-round budget, in milliseconds.
    pub slo_ms: u64,
}

impl FreshnessReport {
    /// Worst ingest-to-visible time across all rounds, in microseconds.
    pub fn max_visible_micros(&self) -> u64 {
        self.rounds
            .iter()
            .map(|r| r.visible_micros)
            .max()
            .unwrap_or(0)
    }

    /// Rounds whose ingest-to-visible time exceeded the SLO.
    pub fn violations(&self) -> usize {
        let budget = self.slo_ms.saturating_mul(1_000);
        self.rounds
            .iter()
            .filter(|r| r.visible_micros > budget)
            .count()
    }
}

/// Runs the scenario against a live server. Fails on transport errors, on
/// rejected ingests, and on a round where the new head never became visible
/// within `10 * slo_ms` (a stuck server must not hang the harness) — but
/// *not* on mere SLO violations, which are reported for the caller to judge.
pub fn run(cfg: &FreshnessConfig) -> Result<FreshnessReport, LoadgenError> {
    if cfg.rounds == 0 {
        return Err(LoadgenError::Config("freshness rounds must be > 0".into()));
    }
    if cfg.num_entities < 2 || cfg.num_rels == 0 {
        return Err(LoadgenError::Config(format!(
            "freshness needs >= 2 entities and >= 1 relation, got {} and {}",
            cfg.num_entities, cfg.num_rels
        )));
    }
    let give_up_micros = cfg.slo_ms.saturating_mul(10_000).max(1_000_000);
    let mut rounds = Vec::with_capacity(cfg.rounds);
    for i in 0..cfg.rounds {
        let h = horizon(&cfg.addr, cfg.io_timeout)?;
        let ingest_body = format!(
            r#"{{"time": {h}, "facts": {}, "update": {}}}"#,
            round_facts(i, cfg.num_entities, cfg.num_rels),
            cfg.update
        );
        // Before this lands, `h + 1` is beyond the horizon and `/predict`
        // rejects it; the first `200` is the freshness edge.
        let probe_body = format!(
            r#"{{"subject": {}, "relation": 0, "time": {}, "k": 2}}"#,
            i % cfg.num_entities,
            h + 1
        );
        let clock = Clock::start();
        let (status, resp) = http_post(&cfg.addr, "/ingest", &ingest_body, cfg.io_timeout)?;
        let ingest_micros = clock.elapsed_micros();
        if status != 200 {
            return Err(LoadgenError::Config(format!(
                "freshness round {i}: ingest at t={h} rejected with {status}: {resp}"
            )));
        }
        let mut polls = 0u64;
        let visible_micros = loop {
            polls += 1;
            let (status, _) = http_post(&cfg.addr, "/predict", &probe_body, cfg.io_timeout)?;
            let now = clock.elapsed_micros();
            if status == 200 {
                break now;
            }
            if now > give_up_micros {
                return Err(LoadgenError::Config(format!(
                    "freshness round {i}: head t={} still not visible after {}us \
                     ({polls} polls, last status {status})",
                    h + 1,
                    now
                )));
            }
            clock.sleep_until_micros(now + 1_000);
        };
        rounds.push(FreshnessRound {
            ingest_time: h,
            ingest_micros,
            visible_micros,
            polls,
        });
    }
    Ok(FreshnessReport {
        rounds,
        slo_ms: cfg.slo_ms,
    })
}

/// Deterministic, within-round-distinct facts for round `i`. Each round
/// appends at a fresh head timestamp, so cross-round repeats never trip the
/// server's duplicate-fact rejection.
fn round_facts(i: usize, num_entities: usize, num_rels: usize) -> String {
    let s = i % num_entities;
    let o = (i + 1) % num_entities;
    let r = i % num_rels;
    format!("[[{s}, {r}, {o}], [{o}, {r}, {s}]]")
}

fn horizon(addr: &str, io_timeout: Duration) -> Result<u64, LoadgenError> {
    let (status, body) = http_get(addr, "/healthz", io_timeout)?;
    if status != 200 {
        return Err(LoadgenError::Config(format!(
            "healthz returned {status}: {body}"
        )));
    }
    let parsed: serde_json::Value = serde_json::from_str(&body)
        .map_err(|e| LoadgenError::Config(format!("healthz body did not parse: {e}")))?;
    parsed
        .get("horizon")
        .and_then(serde_json::Value::as_u64)
        .ok_or_else(|| LoadgenError::Config(format!("healthz body has no horizon: {body}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rounds_is_rejected() {
        let cfg = FreshnessConfig {
            rounds: 0,
            ..FreshnessConfig::default()
        };
        assert!(run(&cfg).is_err());
    }

    #[test]
    fn tiny_vocabulary_is_rejected() {
        let cfg = FreshnessConfig {
            num_entities: 1,
            ..FreshnessConfig::default()
        };
        assert!(run(&cfg).is_err());
    }

    #[test]
    fn round_facts_are_distinct_within_a_round() {
        for i in 0..16 {
            let facts = round_facts(i, 5, 3);
            let parsed: serde_json::Value = serde_json::from_str(&facts).unwrap();
            let arr = parsed.as_array().unwrap();
            assert_eq!(arr.len(), 2);
            assert_ne!(arr[0], arr[1], "round {i} repeated a fact: {facts}");
        }
    }

    #[test]
    fn report_counts_violations_against_the_slo() {
        let report = FreshnessReport {
            rounds: vec![
                FreshnessRound {
                    ingest_time: 10,
                    ingest_micros: 500,
                    visible_micros: 900,
                    polls: 1,
                },
                FreshnessRound {
                    ingest_time: 11,
                    ingest_micros: 800,
                    visible_micros: 2_500,
                    polls: 2,
                },
            ],
            slo_ms: 2,
        };
        assert_eq!(report.max_visible_micros(), 2_500);
        assert_eq!(report.violations(), 1);
    }
}
