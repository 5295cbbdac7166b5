//! Seeded request streams and the two ways of sending them.
//!
//! * Open loop: requests are due on a Poisson schedule whatever the server
//!   does; latency runs from the due time, so a stall is charged to every
//!   request it delays, and how late the generator itself ran is reported.
//! * Closed loop: each client sends its next request when the previous one
//!   completes, so a slow server receives less load.
//!
//! `--seed` drives every draw here (arrival gaps, subjects, relations,
//! timestamps, facts) and nothing else in the process.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use logcl_loadgen::hist::LogHistogram;
use logcl_loadgen::timing::Clock;
use logcl_tensor::Rng;
use serde_json::Value;

use crate::client::{Conn, Reply};
use crate::stats;

/// `k` of every predict.
pub const TOP_K: usize = 10;

/// One `(s, r, ?, t)` question; `t == None` asks at the live head.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Query {
    /// Subject entity id.
    pub s: usize,
    /// Base-direction relation id.
    pub r: usize,
    /// Explicit historical timestamp, if any.
    pub t: Option<usize>,
}

impl Query {
    /// The `/predict` JSON body.
    pub fn body(&self) -> String {
        match self.t {
            Some(t) => format!(
                "{{\"subject\":{},\"relation\":{},\"k\":{TOP_K},\"time\":{t}}}",
                self.s, self.r
            ),
            None => format!(
                "{{\"subject\":{},\"relation\":{},\"k\":{TOP_K}}}",
                self.s, self.r
            ),
        }
    }
}

/// How `history_read` picks timestamps: mostly from a hot set the cache can
/// hold, sometimes from a cold set that, together with the hot one, exceeds
/// the cache.
#[derive(Debug, Clone)]
pub struct TimeMix {
    /// Frequently asked timestamps (the most recent ones).
    pub hot: Vec<usize>,
    /// Rarely asked timestamps (older ones).
    pub cold: Vec<usize>,
    /// Timestamps older still that nobody asks for: the warm-up asks once
    /// for each, so that the cache is full before the first measured
    /// request. Filling it costs the server half a gigabyte of fresh pages;
    /// left to the measured cold queries, that made the first third of a
    /// run read a fifth slower than the rest.
    pub filler: Vec<usize>,
    /// One query in this many is cold. The share is exact, not a coin flip
    /// per query: a cold query costs tens of hot ones, so a binomial count
    /// of them in a few-second phase would be most of the run-to-run spread.
    /// For the same reason the cold timestamps are not drawn but taken in
    /// turn, round the cold set from a seeded start: by the time one comes
    /// round again the cache has seen every other, which is more than it has
    /// room for beside the hot set, so every cold query is a miss. Drawn
    /// with repeats, a growing and seed-dependent share of them would hit.
    pub cold_every: usize,
}

impl TimeMix {
    /// The mix of the `history_read` workload over a horizon of
    /// `num_times`: the latest 32 timestamps hot, the 48 before them cold,
    /// the 32 before those filler (all shrink on a short smoke horizon), 2 %
    /// cold. Hot and cold together are more than the default cache holds
    /// (64), hot and filler fill it.
    pub fn for_horizon(num_times: usize) -> TimeMix {
        let hot = 32.min(num_times * 3 / 10).max(1);
        let cold = 48.min(num_times * 2 / 5).max(1);
        let oldest_cold = num_times - hot - cold;
        TimeMix {
            hot: (num_times - hot..num_times).collect(),
            cold: (oldest_cold..num_times - hot).collect(),
            filler: (oldest_cold.saturating_sub(32)..oldest_cold).collect(),
            cold_every: 50,
        }
    }
}

/// A seeded source of queries over one vocabulary.
pub struct Draw {
    rng: Rng,
    entities: usize,
    rels: usize,
    times: Option<TimeMix>,
    /// Queries drawn so far, offset by a seeded phase.
    drawn: usize,
    /// Position in the cold set of this stream's next cold query, and the
    /// step to the one after.
    cold_at: usize,
    cold_step: usize,
}

/// Salt of the draw that places the start of the round of the cold set.
const COLD_START_SALT: u64 = 0xc01d;

/// Streams that must not share draws get distinct salts.
fn stream_seed(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt.wrapping_mul(0xd1b5_4a32_d192_ed03)
}

impl Draw {
    /// Stream number `salt` of benchmark seed `seed`.
    pub fn new(seed: u64, salt: u64, entities: usize, rels: usize, times: Option<TimeMix>) -> Draw {
        let mut rng = Rng::seed(stream_seed(seed, salt));
        let drawn = times.as_ref().map_or(0, |mix| rng.below(mix.cold_every));
        // Where the round of the cold set starts depends on the seed alone,
        // so that the lanes of one run stay apart.
        let cold_at = times.as_ref().map_or(0, |mix| {
            Rng::seed(stream_seed(seed, COLD_START_SALT)).below(mix.cold.len())
        });
        Draw {
            rng,
            entities,
            rels,
            times,
            drawn,
            cold_at,
            cold_step: 1,
        }
    }

    /// Makes this stream lane `index` of `lanes` that go round the cold set
    /// together: each takes every `lanes`-th cold timestamp, so that clients
    /// sending side by side never ask for one another's.
    pub fn lane(mut self, index: usize, lanes: usize) -> Draw {
        self.cold_at += index;
        self.cold_step = lanes;
        self
    }

    /// The next query.
    pub fn query(&mut self) -> Query {
        let s = self.rng.below(self.entities);
        let r = self.rng.below(self.rels);
        self.drawn += 1;
        let t = self.times.as_ref().map(|mix| {
            if self.drawn.is_multiple_of(mix.cold_every) {
                let t = mix.cold[self.cold_at % mix.cold.len()];
                self.cold_at += self.cold_step;
                t
            } else {
                mix.hot[self.rng.below(mix.hot.len())]
            }
        });
        Query { s, r, t }
    }

    /// `n` distinct base-direction facts (an `/ingest` body rejects
    /// duplicates).
    pub fn facts(&mut self, n: usize) -> Vec<(usize, usize, usize)> {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let fact = (
                self.rng.below(self.entities),
                self.rng.below(self.rels),
                self.rng.below(self.entities),
            );
            if seen.insert(fact) {
                out.push(fact);
            }
        }
        out
    }

    /// A Poisson schedule of `rate` requests per second over `duration_us`,
    /// starting at clock offset `start_us`.
    pub fn poisson(&mut self, rate: f64, start_us: u64, duration_us: u64) -> Vec<Planned> {
        let mut plan = Vec::new();
        let mut at = 0.0f64;
        loop {
            // Exponential gap; 1 − u is in (0, 1], so the log is finite.
            let u = f64::from(self.rng.uniform(0.0, 1.0));
            at += -(1.0 - u).ln() / rate * 1e6;
            if at >= duration_us as f64 {
                return plan;
            }
            plan.push(Planned {
                due_us: start_us + at as u64,
                query: self.query(),
            });
        }
    }
}

/// A query pinned to the clock offset at which it is due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planned {
    /// Due time, microseconds on the run clock.
    pub due_us: u64,
    /// What to ask.
    pub query: Query,
}

/// FNV-1a over the byte stream the plan puts on the wire plus its timing,
/// relative to the plan's own start: equal seeds give equal fingerprints.
pub fn fingerprint(plan: &[Planned]) -> u64 {
    let origin = plan.first().map_or(0, |p| p.due_us);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for p in plan {
        eat(&(p.due_us - origin).to_le_bytes());
        eat(p.query.body().as_bytes());
    }
    h
}

/// The parts of a `/predict` answer the benchmark reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// `(entity, score_bits)` in rank order.
    pub ranking: Vec<(usize, u32)>,
    /// Whether the snapshot encoding came from the cache.
    pub cache_hit: bool,
    /// Whether the server (or router) flagged the answer degraded.
    pub degraded: bool,
    /// Router answers: the scored share of the vocabulary.
    pub coverage: Option<f64>,
    /// Single-node answers: the timestamp the query was answered at.
    pub time: Option<usize>,
}

impl Answer {
    /// Parses a 200 `/predict` body; `None` if it is not one.
    pub fn parse(body: &[u8]) -> Option<Answer> {
        let doc: Value = serde_json::from_slice(body).ok()?;
        let ranking = doc
            .get("predictions")?
            .as_array()?
            .iter()
            .map(|p| {
                Some((
                    p.get("entity")?.as_u64()? as usize,
                    u32::try_from(p.get("score_bits")?.as_u64()?).ok()?,
                ))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Answer {
            ranking,
            cache_hit: doc.get("cache_hit")?.as_bool()?,
            degraded: doc.get("degraded")?.as_bool()?,
            coverage: doc.get("coverage").and_then(Value::as_f64),
            time: doc
                .get("query")
                .and_then(|q| q.get("time"))
                .and_then(Value::as_u64)
                .map(|t| t as usize),
        })
    }
}

/// What became of one request.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// What was asked.
    pub query: Query,
    /// When it was due (closed loop: when it was sent).
    pub due_us: u64,
    /// When the send began.
    pub sent_us: u64,
    /// When the whole response had arrived.
    pub done_us: u64,
    /// HTTP status; 0 when the exchange failed.
    pub status: u16,
    /// The parsed answer of a 200.
    pub answer: Option<Answer>,
    /// How often the server refused it (503) before this outcome.
    pub refusals: u32,
}

impl Outcome {
    /// The request was answered: a 200 with a well-formed body, at whatever
    /// fidelity. Anything else is a failed operation.
    pub fn answered(&self) -> bool {
        self.status == 200 && self.answer.is_some()
    }

    /// A full-fidelity answer: 200, parsed, not degraded, full coverage.
    /// Only these count as work done and have a latency; an answer the
    /// server degraded or the router put together from fewer than all
    /// shards is counted on its own and misses every latency limit.
    pub fn ok(&self) -> bool {
        self.status == 200
            && self
                .answer
                .as_ref()
                .is_some_and(|a| !a.degraded && a.coverage.is_none_or(|c| c >= 1.0))
    }

    /// Latency from the due time.
    pub fn latency_us(&self) -> u64 {
        self.done_us.saturating_sub(self.due_us)
    }
}

/// How often a patient client asks again after a 503.
pub const PATIENCE: u32 = 5;
/// Longest wait a `Retry-After` is honoured for, seconds.
const MAX_RETRY_AFTER_S: u64 = 2;

/// Sends one predict and times it on `clock`. A client with `patience` left
/// does what the server tells a refused caller to do: on a 503 it waits as
/// long as `Retry-After` says and asks again, the wait counted in the
/// request's latency. Without patience a refusal is the outcome.
pub fn ask(
    conn: &mut Conn,
    clock: Clock,
    query: Query,
    due_us: Option<u64>,
    patience: u32,
) -> Outcome {
    let sent_us = clock.elapsed_micros();
    let mut refusals = 0;
    let (status, answer) = loop {
        match conn.request("POST", "/predict", &[], query.body().as_bytes()) {
            Ok(reply) if reply.status == 503 && refusals < patience => {
                refusals += 1;
                let wait_s = reply
                    .header("retry-after")
                    .and_then(|v| v.parse::<u64>().ok())
                    .map_or(1, |s| s.min(MAX_RETRY_AFTER_S));
                clock.sleep_until_micros(clock.elapsed_micros() + wait_s * 1_000_000);
            }
            Ok(Reply { status, body, .. }) => {
                break (status, Answer::parse(&body).filter(|_| status == 200))
            }
            Err(_) => break (0, None),
        }
    };
    Outcome {
        query,
        due_us: due_us.unwrap_or(sent_us),
        sent_us,
        done_us: clock.elapsed_micros(),
        status,
        answer,
        refusals,
    }
}

/// Replays `plan` open loop over `conns` (one in-flight request each): the
/// next due request goes to whichever connection frees up first, and waits
/// — on the clock, counted in its latency — when none is free. A refused
/// request is asked again up to `patience` times.
pub fn open_loop(
    conns: &mut [Conn],
    clock: Clock,
    plan: &[Planned],
    patience: u32,
) -> Vec<Outcome> {
    let next = AtomicUsize::new(0);
    let mut slots: Vec<(usize, Outcome)> = thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let next = &next;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(p) = plan.get(i) else {
                            return mine;
                        };
                        clock.sleep_until_micros(p.due_us);
                        mine.push((i, ask(conn, clock, p.query, Some(p.due_us), patience)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("load worker panicked"))
            .collect()
    });
    slots.sort_by_key(|(i, _)| *i);
    slots.into_iter().map(|(_, o)| o).collect()
}

/// Runs one closed-loop client per `(connection, draw)` pair until the
/// clock passes `until_us`; a request begun before then is completed.
pub fn closed_loop(
    conns: &mut [Conn],
    draws: &mut [Draw],
    clock: Clock,
    until_us: u64,
) -> Vec<Outcome> {
    thread::scope(|scope| {
        let clients: Vec<_> = conns
            .iter_mut()
            .zip(draws)
            .map(|(conn, draw)| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    while clock.elapsed_micros() < until_us {
                        mine.push(ask(conn, clock, draw.query(), None, PATIENCE));
                    }
                    mine
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("closed-loop client panicked"))
            .collect()
    })
}

/// One open-loop rung, judged.
#[derive(Debug, Clone)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests sent.
    pub attempted: usize,
    /// Requests that failed, were refused, or came back degraded.
    pub failed: usize,
    /// Latency percentiles from due time over successful requests, µs.
    pub p50_us: u64,
    /// See [`Rung::p50_us`].
    pub p90_us: u64,
    /// See [`Rung::p50_us`] (informational).
    pub p95_us: u64,
    /// See [`Rung::p50_us`] (informational).
    pub p99_us: u64,
    /// Samples beyond the p90.
    pub beyond_p90: usize,
    /// Generator lateness (send start minus due time) p99, µs.
    pub lateness_p99_us: u64,
    /// Whether the rung meets its limit.
    pub pass: bool,
}

/// Grace after a rung's scheduled end within which its last response must
/// land: a growing backlog shows as a late tail.
pub const DRAIN_GRACE_US: u64 = 2_000_000;
/// Largest failed share a passing rung may have.
pub const MAX_FAILED_SHARE: f64 = 0.005;

/// Judges a rung. It passes iff its p90 from due time — with every failed,
/// refused or degraded request counted as a miss — is within `limit_us`,
/// its failed share is at most [`MAX_FAILED_SHARE`], and its last response
/// landed within [`DRAIN_GRACE_US`] of `scheduled_end_us`.
pub fn judge(rate: f64, outcomes: &[Outcome], limit_us: u64, scheduled_end_us: u64) -> Rung {
    let good = stats::sorted(
        &outcomes
            .iter()
            .filter(|o| o.ok())
            .map(Outcome::latency_us)
            .collect::<Vec<_>>(),
    );
    let failed = outcomes.len() - good.len();
    // Misses sort last: the p90 over all attempts is a real latency only if
    // enough of them succeeded.
    let mut with_misses = good.clone();
    with_misses.resize(outcomes.len(), u64::MAX);
    let last_done = outcomes.iter().map(|o| o.done_us).max().unwrap_or(0);
    let mut lateness = LogHistogram::new();
    for o in outcomes {
        lateness.record(o.sent_us.saturating_sub(o.due_us));
    }
    let pass = !outcomes.is_empty()
        && stats::percentile(&with_misses, 0.9) <= limit_us
        && failed as f64 <= MAX_FAILED_SHARE * outcomes.len() as f64
        && last_done <= scheduled_end_us + DRAIN_GRACE_US;
    Rung {
        rate,
        attempted: outcomes.len(),
        failed,
        p50_us: stats::percentile(&good, 0.5),
        p90_us: stats::percentile(&good, 0.9),
        p95_us: stats::percentile(&good, 0.95),
        p99_us: stats::percentile(&good, 0.99),
        beyond_p90: stats::samples_beyond(good.len(), 0.9),
        lateness_p99_us: lateness.quantile(0.99),
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> Vec<Planned> {
        let mix = TimeMix::for_horizon(120);
        Draw::new(seed, 1, 340, 24, Some(mix)).poisson(50.0, 1_000, 4_000_000)
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = plan(7);
        assert_eq!(a, plan(7));
        assert_eq!(fingerprint(&a), fingerprint(&plan(7)));
        assert_ne!(fingerprint(&a), fingerprint(&plan(11)));
        // Roughly rate × duration arrivals, in order, inside the window.
        assert!((120..280).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0].due_us <= w[1].due_us));
        assert!(a.iter().all(|p| (1_000..4_001_000).contains(&p.due_us)));
        // Streams of one seed differ from each other.
        let mut x = Draw::new(7, 1, 340, 24, None);
        let mut y = Draw::new(7, 2, 340, 24, None);
        assert_ne!(
            (0..8).map(|_| x.query()).collect::<Vec<_>>(),
            (0..8).map(|_| y.query()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn time_mix_draws_hot_mostly_and_facts_are_distinct() {
        let mix = TimeMix::for_horizon(120);
        assert_eq!(mix.hot, (88..120).collect::<Vec<_>>());
        assert_eq!(mix.cold, (40..88).collect::<Vec<_>>());
        assert_eq!(mix.filler, (8..40).collect::<Vec<_>>());
        let mut draw = Draw::new(3, 0, 340, 24, Some(mix.clone()));
        let cold = (0..4000)
            .filter(|_| mix.cold.contains(&draw.query().t.unwrap()))
            .count();
        assert_eq!(cold, 80, "exactly one query in fifty is cold");
        let facts = draw.facts(100);
        let distinct: std::collections::BTreeSet<_> = facts.iter().collect();
        assert_eq!(distinct.len(), 100);
        // Cold timestamps come in turn: two lanes take alternate ones from a
        // start that depends on the seed alone, and between them visit the
        // whole cold set before either sees one again.
        let cold_of = |mut d: Draw| -> Vec<usize> {
            (0..50 * 24)
                .filter_map(|_| d.query().t.filter(|t| mix.cold.contains(t)))
                .collect()
        };
        let lane = |i| Draw::new(3, 20 + i as u64, 340, 24, Some(mix.clone())).lane(i, 2);
        let (a, b) = (cold_of(lane(0)), cold_of(lane(1)));
        assert_eq!((a.len(), b.len()), (24, 24));
        let both: std::collections::BTreeSet<_> = a.iter().chain(&b).collect();
        assert_eq!(both.len(), 48);
        assert_eq!(b[0], mix.cold[(a[0] - mix.cold[0] + 1) % 48]);
        let other_seed = cold_of(Draw::new(4, 20, 340, 24, Some(mix.clone())).lane(0, 2));
        assert_ne!(a[0], other_seed[0]);
        // A short horizon still yields two disjoint non-empty sets.
        let small = TimeMix::for_horizon(10);
        assert_eq!((small.hot, small.cold), (vec![7, 8, 9], vec![3, 4, 5, 6]));
        assert_eq!(small.filler, vec![0, 1, 2]);
    }

    #[test]
    fn answer_parsing_reads_bits_and_flags() {
        let body = br#"{"predictions":[{"entity":4,"score_bits":1065353216,"name":"x"}],
            "cache_hit":true,"degraded":false,"query":{"subject":1,"relation":2,"time":9}}"#;
        let a = Answer::parse(body).unwrap();
        assert_eq!(a.ranking, vec![(4, 1.0f32.to_bits())]);
        assert_eq!(
            (a.cache_hit, a.degraded, a.time, a.coverage),
            (true, false, Some(9), None)
        );
        assert!(Answer::parse(br#"{"error":"nope"}"#).is_none());
    }

    fn outcome(due_us: u64, latency_us: u64, good: bool) -> Outcome {
        Outcome {
            query: Query {
                s: 0,
                r: 0,
                t: None,
            },
            due_us,
            sent_us: due_us + 10,
            done_us: due_us + latency_us,
            status: if good { 200 } else { 503 },
            answer: good.then(|| Answer {
                ranking: Vec::new(),
                cache_hit: true,
                degraded: false,
                coverage: None,
                time: None,
            }),
            refusals: 0,
        }
    }

    #[test]
    fn rung_rule() {
        // 1000 requests at 10 ms: passes a 100 ms limit.
        let fine: Vec<Outcome> = (0..1000).map(|i| outcome(i * 1000, 10_000, true)).collect();
        let r = judge(100.0, &fine, 100_000, 1_000_000);
        assert!(r.pass);
        assert_eq!(
            (r.p50_us, r.p90_us, r.beyond_p90, r.failed),
            (10_000, 10_000, 100, 0)
        );
        assert_eq!(r.lateness_p99_us, 10);

        // 0.6 % refused: the failed share alone fails it.
        let mut refused = fine.clone();
        for o in refused.iter_mut().take(6) {
            *o = outcome(o.due_us, 1_000, false);
        }
        assert!(!judge(100.0, &refused, 100_000, 1_000_000).pass);
        // 0.5 % is still allowed.
        refused[5] = fine[5].clone();
        assert!(judge(100.0, &refused, 100_000, 1_000_000).pass);

        // 11 % slow: the p90 is over the limit.
        let mut slow = fine.clone();
        for o in slow.iter_mut().take(110) {
            *o = outcome(o.due_us, 150_000, true);
        }
        assert!(!judge(100.0, &slow, 100_000, 1_000_000).pass);

        // Degraded answers are misses even though they are fast 200s — and
        // answers all the same, where a refusal is none.
        let mut degraded = fine.clone();
        for o in degraded.iter_mut().take(200) {
            o.answer.as_mut().unwrap().degraded = true;
        }
        assert!(degraded[0].answered() && !degraded[0].ok());
        assert!(!refused[0].answered() && !refused[0].ok());
        let r = judge(100.0, &degraded, 100_000, 1_000_000);
        assert!(!r.pass);
        assert_eq!(r.failed, 200);

        // A response landing more than 2 s after the scheduled end: backlog.
        let mut late = fine.clone();
        late[999] = outcome(999_000, 2_100_000, true);
        assert!(!judge(100.0, &late, 100_000, 1_000_000).pass);
        assert!(!judge(100.0, &[], 100_000, 1_000_000).pass);
    }
}
