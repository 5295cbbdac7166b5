//! One run of one workload.
//!
//! An untraced run measures what the driver gates and nothing else: set-up
//! with warm-up; a closed loop as long as `--seconds`; verification; two
//! more set-ups (`setup_s` is the fastest of the three).
//!
//! A traced run measures the layers: set-up; the closed loop in three parts
//! with the open-loop rungs r1 and r2 between them, `--seconds` in all; the
//! open-loop overload rung r3, last so that nothing else runs in its wake;
//! verification; the `update:true` phase and the replay.
//!
//! `attempted` and `failed` cover every request of every phase except r3,
//! whose whole purpose is to be refused on today's code. A request has
//! failed if it was not answered: no response, a status other than 200, a
//! body that is no answer. An answer the server degraded is an answer — the
//! product's stated reaction to a queue older than 50 ms, which on a shared
//! host a stalled vCPU produces as readily as load does — so it is not a
//! failed operation; it is counted on its own, is no work done for
//! `closed_rps`, and misses every latency limit.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use logcl_loadgen::timing::Clock;
use logcl_tkg::TkgDataset;
use serde_json::Value;

use crate::client::Conn;
use crate::load::{
    ask, closed_loop, fingerprint, judge, open_loop, Draw, Outcome, Planned, Query, Rung, TimeMix,
    PATIENCE,
};
use crate::prom::Scrape;
use crate::replay::replay;
use crate::spec::{registry, Kind, Workload, PHASE_SHARES, SMOKE_LADDER};
use crate::stats::{median, ms, percentile, sorted};
use crate::system::{System, SHARDS};
use crate::trace::Span;
use crate::verify::{check, extended, sample, Twin};
use crate::BenchError;

/// Set-ups per untraced run; `setup_s` is the fastest, each counted less the
/// share of it the hypervisor withheld (see [`ClosedPart`]). A set-up is the
/// same single-threaded work every time, so whatever else the sandbox does
/// to it — a core that runs a third slower for seconds on end — only ever
/// adds time: the median of three still read 0.7 s or 1.0 s (`head_read`)
/// from one run to the next, the fastest of three reads 0.7 s unless all
/// three are hit.
const SETUP_REPS: usize = 3;
/// Length of the slices the closed loop's throughput is read in: two periods
/// of the feed, and long enough for five cold queries of `history_read`.
const SLICE_US: u64 = 500_000;
/// What precedes the run's stolen share in its `# host:` line; `run --all`
/// reads it to repeat a run the hypervisor sat on.
pub const STOLEN_SHARE_KEY: &str = "stolen_share=";
/// The feed's period and batch size.
const FEED_PERIOD_US: u64 = 500_000;
const FEED_FACTS: usize = 100;
/// Gap between drawing a phase's schedule and its first possible arrival.
const PHASE_LEAD_US: u64 = 50_000;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of every request draw.
    pub seed: u64,
    /// Length of the load phases together, seconds.
    pub seconds: f64,
    /// Report per-layer metrics (and run the traced extras) instead of
    /// end-to-end metrics.
    pub trace: bool,
    /// Miniature graphs and token rates: names and verification only.
    pub smoke: bool,
}

/// What a run found.
pub struct Report {
    /// Requests sent, r3 excluded.
    pub attempted: usize,
    /// Of those, how many were not answered.
    pub failed: usize,
    /// Exactly the end-to-end names (untraced) or the per-layer names
    /// (traced).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable detail: rungs, tails, counts, the time table.
    pub info: Vec<String>,
    /// Spans of the traced replay.
    pub spans: Vec<Span>,
}

struct Booted {
    ds: TkgDataset,
    system: System,
    readers: Vec<Conn>,
    feed: Option<Conn>,
}

/// Boots the system and warms it: every connection answers a few predicts,
/// and `history_read` asks once for each timestamp of its filler and hot
/// sets, so that the measured phases start with the cache full and the hot
/// encodings in it.
fn set_up(workload: &Workload, smoke: bool) -> Result<Booted, BenchError> {
    let ds = workload.kg.generate(smoke);
    let system = System::boot(workload.kind, &ds)?;
    let conn = || Conn::new(system.target);
    let (mut readers, mut feed) = match workload.kind {
        Kind::IngestMix => (vec![conn()], Some(conn())),
        _ => (vec![conn(), conn()], None),
    };
    let clock = Clock::start();
    let warm = |conn: &mut Conn, query: Query| -> Result<(), BenchError> {
        let outcome = ask(conn, clock, query, None, PATIENCE);
        if outcome.answered() {
            Ok(())
        } else {
            Err(format!("warm-up {query:?} answered {}", outcome.status).into())
        }
    };
    if workload.kind == Kind::HistoryRead {
        let mix = TimeMix::for_horizon(ds.num_times);
        for &t in mix.filler.iter().chain(&mix.hot) {
            warm(
                &mut readers[0],
                Query {
                    s: 0,
                    r: 0,
                    t: Some(t),
                },
            )?;
        }
    }
    let newest = ds.num_times.checked_sub(1);
    let t = newest.filter(|_| workload.kind == Kind::HistoryRead);
    for conn in readers.iter_mut().chain(feed.as_mut()) {
        for s in 0..4 {
            warm(conn, Query { s, r: 0, t })?;
        }
    }
    Ok(Booted {
        ds,
        system,
        readers,
        feed,
    })
}

/// An `/ingest` acknowledgement.
struct Ack {
    appended: usize,
    horizon: usize,
    durable: bool,
    updated: bool,
}

/// Sends one head append; `None` unless it was answered 200 with a
/// well-formed acknowledgement.
fn append(
    conn: &mut Conn,
    t: usize,
    facts: &[(usize, usize, usize)],
    update: bool,
    id: &str,
) -> Option<Ack> {
    let triples: Vec<String> = facts
        .iter()
        .map(|(s, r, o)| format!("[{s},{r},{o}]"))
        .collect();
    let body = format!(
        "{{\"time\":{t},\"facts\":[{}],\"update\":{update}}}",
        triples.join(",")
    );
    let reply = conn
        .request(
            "POST",
            "/ingest",
            &[("X-LogCL-Ingest-Id", id)],
            body.as_bytes(),
        )
        .ok()
        .filter(|r| r.status == 200)?;
    let doc: Value = serde_json::from_slice(&reply.body).ok()?;
    Some(Ack {
        appended: doc.get("appended")?.as_u64()? as usize,
        horizon: doc.get("horizon")?.as_u64()? as usize,
        durable: doc.get("durable")?.as_bool()?,
        updated: doc.get("online_update")?.as_bool()?,
    })
}

/// What the feed connection did.
#[derive(Default)]
struct FeedLog {
    /// The facts of every acknowledged append, in order.
    appends: Vec<Vec<(usize, usize, usize)>>,
    /// Append sent → acknowledgement, µs.
    ack_us: Vec<u64>,
    /// Append sent → first 200 answered at the new horizon, µs.
    fresh_us: Vec<u64>,
    attempted: usize,
    failed: usize,
    /// Predicts at the new horizon that were answered degraded.
    degraded: usize,
    /// Whether every acknowledgement carried `durable:true`.
    durable: bool,
}

/// The paced feed of `ingest_mix`: every [`FEED_PERIOD_US`] one true head
/// append (`time` = the current horizon, [`FEED_FACTS`] facts, an ingest
/// id), then one predict at the new horizon.
fn feed(
    mut conn: Conn,
    clock: Clock,
    mut draw: Draw,
    base: usize,
    seed: u64,
    stop: &AtomicBool,
) -> FeedLog {
    let mut log = FeedLog {
        durable: true,
        ..FeedLog::default()
    };
    let start = clock.elapsed_micros();
    for tick in 0.. {
        // Sleep in slices so that a stop is noticed without waiting out a
        // whole period.
        let due = start + tick * FEED_PERIOD_US;
        while clock.elapsed_micros() < due && !stop.load(Ordering::SeqCst) {
            clock.sleep_until_micros(due.min(clock.elapsed_micros() + 20_000));
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let t = base + log.appends.len();
        let facts = draw.facts(FEED_FACTS);
        let sent = clock.elapsed_micros();
        let ack = append(&mut conn, t, &facts, false, &format!("bench-{seed}-{t}"));
        let acked = clock.elapsed_micros();
        log.attempted += 1;
        match ack {
            Some(ack) if ack.horizon == t + 1 && ack.appended == facts.len() => {
                log.durable &= ack.durable;
                log.ack_us.push(acked - sent);
                log.appends.push(facts);
            }
            _ => {
                log.failed += 1;
                continue;
            }
        }
        let fresh = ask(&mut conn, clock, draw.query(), None, PATIENCE);
        log.attempted += 1;
        let at_new_horizon = fresh.answer.as_ref().and_then(|a| a.time) == Some(t + 1);
        if !(fresh.answered() && at_new_horizon) {
            log.failed += 1;
        } else if fresh.ok() {
            log.fresh_us.push(fresh.done_us - sent);
        } else {
            log.degraded += 1;
        }
    }
    log
}

/// One open-loop rung: draw its schedule, replay it, judge it.
fn open_phase(
    readers: &mut [Conn],
    clock: Clock,
    draw: &mut Draw,
    rate: f64,
    duration_us: u64,
    limit_us: u64,
    patience: u32,
) -> (Vec<Planned>, Vec<Outcome>, Rung) {
    let start = clock.elapsed_micros() + PHASE_LEAD_US;
    let plan = draw.poisson(rate, start, duration_us);
    let outcomes = open_loop(readers, clock, &plan, patience);
    let rung = judge(rate, &outcomes, limit_us, start + duration_us);
    (plan, outcomes, rung)
}

/// After the overload rung: ask until eight answers in a row come back at
/// full fidelity, i.e. the backlog has drained and the degradation tier is
/// back to normal.
fn settle(conn: &mut Conn, clock: Clock, query: Query) -> Result<(), BenchError> {
    let give_up = clock.elapsed_micros() + 15_000_000;
    let mut streak = 0;
    while streak < 8 {
        if clock.elapsed_micros() > give_up {
            return Err(
                "the server did not return to normal within 15 s of the overload rung".into(),
            );
        }
        streak = if ask(conn, clock, query, None, 0).ok() {
            streak + 1
        } else {
            0
        };
        thread::sleep(Duration::from_millis(20));
    }
    Ok(())
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, BenchError> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// CPU time of the whole VM since boot, in jiffies, from the first line of
/// `/proc/stat`.
#[derive(Debug, Clone, Copy)]
struct HostCpu {
    /// user + nice + system.
    busy: u64,
    /// Steal: time a vCPU had work while the hypervisor ran something else.
    stolen: u64,
}

/// `None` where there is no `/proc/stat` with a steal column.
fn host_cpu() -> Option<HostCpu> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some(HostCpu {
        busy: fields.first()? + fields.get(1)? + fields.get(2)?,
        stolen: *fields.get(7)?,
    })
}

/// Length of a jiffy, the unit of `/proc/stat`: `USER_HZ` is 100 on Linux.
const JIFFY_S: f64 = 0.01;

/// What the hypervisor withheld between two readings of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Stolen {
    /// CPU time withheld, summed over the vCPUs, seconds.
    seconds: f64,
    /// The same as a share of the CPU time the VM asked for.
    share: f64,
}

/// Nothing where `/proc/stat` cannot be read.
fn stolen(before: Option<HostCpu>, after: Option<HostCpu>) -> Stolen {
    match (before, after) {
        (Some(a), Some(b)) => {
            let stolen = b.stolen.saturating_sub(a.stolen) as f64;
            Stolen {
                seconds: stolen * JIFFY_S,
                share: stolen / (b.busy.saturating_sub(a.busy) as f64 + stolen).max(1.0),
            }
        }
        _ => Stolen::default(),
    }
}

/// The length `wall_s` would have had on a host that withholds nothing.
///
/// The sandbox is a shared host: for a second to an hour at a time the
/// hypervisor withholds a tenth to two thirds of the CPU time the VM asks
/// for (`steal` in `/proc/stat`), and what is timed then reads up to three
/// times as slow as the same code a minute later. A jiffy withheld from a
/// thread the work waits for delays the work by a jiffy; a jiffy withheld
/// while `busy_vcpus` run side by side delays it by that fraction of one.
/// Time spent waiting — the batcher's linger, a feed period — is nobody's to
/// steal, which is why the stolen *time* is taken off and not the stolen
/// *share* of the length: over 40 runs made while 0–54 % was withheld,
/// discounting by the share read `history_read`, half of whose latency is
/// linger, 244 rps at 2 % withheld and 330 at 54 %; this reads it 240 and
/// 261. At least a tenth of the length is left standing: beyond that the
/// counters of half a second mean nothing.
fn granted(wall_s: f64, stolen: Stolen, busy_vcpus: f64) -> f64 {
    (wall_s - stolen.seconds / busy_vcpus).max(0.1 * wall_s)
}

/// One stretch of the closed loop, cut into slices of [`SLICE_US`].
///
/// `closed_rps` is the median over a run's slices of the full-fidelity
/// answers per second of the time [`granted`], not the run's count over its
/// length: what else the host does — a core that runs a third slower for a
/// while, a burst inside a slice — comes and goes, and the median slice
/// carries none of it until it covers half the run. On a machine that
/// steals nothing this is the plain median slice.
struct ClosedPart {
    /// Full-fidelity answers made in each slice.
    answers: Vec<f64>,
    /// What the hypervisor withheld in each slice.
    stolen: Vec<Stolen>,
    /// Length of a slice, seconds.
    slice_s: f64,
    latencies_us: Vec<u64>,
}

/// Reads the host's CPU counters on `clock` at `from_us` and after each of
/// `n` slices of `slice_us`.
fn watch_host(clock: Clock, from_us: u64, slice_us: u64, n: u64) -> Vec<Option<HostCpu>> {
    (0..=n)
        .map(|i| {
            clock.sleep_until_micros(from_us + i * slice_us);
            host_cpu()
        })
        .collect()
}

impl ClosedPart {
    /// Cuts `[from_us, until_us)` into whole slices of `slice_us` and gives
    /// each the full-fidelity answers made in it. An answer whose request
    /// was sent in one slice and completed in the next is shared between
    /// them by the time it spent in each, so that a slice's count moves by
    /// less than a whole answer with where its edges happen to fall; what
    /// lies past `until_us` — a request begun before the end is finished —
    /// is in no slice. `host` holds the readings of [`watch_host`] at the
    /// slices' edges.
    fn cut(
        outcomes: &[Outcome],
        host: &[Option<HostCpu>],
        from_us: u64,
        until_us: u64,
        slice_us: u64,
    ) -> ClosedPart {
        let mut answers = vec![0.0f64; ((until_us - from_us) / slice_us) as usize];
        let mut latencies_us = Vec::with_capacity(outcomes.len());
        for o in outcomes.iter().filter(|o| o.ok()) {
            latencies_us.push(o.latency_us());
            let slice_of = |at_us: u64| (at_us.saturating_sub(from_us) / slice_us) as usize;
            let (first, last) = (slice_of(o.sent_us), slice_of(o.done_us));
            for i in first..=last {
                let Some(count) = answers.get_mut(i) else {
                    break;
                };
                let starts = from_us + i as u64 * slice_us;
                let inside = (starts + slice_us).min(o.done_us) - starts.max(o.sent_us);
                *count += if first == last {
                    1.0
                } else {
                    inside as f64 / (o.done_us - o.sent_us) as f64
                };
            }
        }
        let edge = |i: usize| host.get(i).copied().flatten();
        ClosedPart {
            stolen: (0..answers.len())
                .map(|i| stolen(edge(i), edge(i + 1)))
                .collect(),
            answers,
            slice_s: slice_us as f64 / 1e6,
            latencies_us,
        }
    }

    /// Answers per second of the time [`granted`], slice by slice.
    fn rates(&self, busy_vcpus: f64) -> impl Iterator<Item = f64> + '_ {
        self.answers
            .iter()
            .zip(&self.stolen)
            .map(move |(&n, &stolen)| n / granted(self.slice_s, stolen, busy_vcpus))
    }
}

fn rung_line(name: &str, r: &Rung) -> String {
    format!(
        "{name} @ {:.1} rps: n={} failed={} p50={:.3} ms p90={:.3} ms ({} beyond) \
         p95={:.3} ms p99={:.3} ms (informational) lateness_p99={:.3} ms -> {}",
        r.rate,
        r.attempted,
        r.failed,
        ms(r.p50_us),
        ms(r.p90_us),
        r.beyond_p90,
        ms(r.p95_us),
        ms(r.p99_us),
        ms(r.lateness_p99_us),
        if r.pass { "pass" } else { "fail" },
    )
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Result<Report, BenchError> {
    let RunArgs {
        workload,
        seed,
        seconds,
        trace,
        smoke,
    } = *args;
    let kind = workload.kind;
    let mut info = Vec::new();
    let run_started = Instant::now();
    let host_before = host_cpu();

    // ------------------------------------------------------------ set-up
    let Booted {
        ds,
        system,
        mut readers,
        feed: feed_conn,
    } = set_up(workload, smoke)?;
    // Wall time of each set-up and what was withheld meanwhile.
    let mut setups = vec![(
        run_started.elapsed().as_secs_f64(),
        stolen(host_before, host_cpu()),
    )];

    // ------------------------------------------------------- load phases
    let ladder = if smoke { SMOKE_LADDER } else { workload.ladder };
    let limit_us = (workload.limit_ms * 1e3) as u64;
    let run_us = (seconds * 1e6) as u64;
    let [d1, d2, dc, d3] = PHASE_SHARES.map(|share| (share * seconds * 1e6) as u64);
    let times = (kind == Kind::HistoryRead).then(|| TimeMix::for_horizon(ds.num_times));
    let draw = |salt: u64| Draw::new(seed, salt, ds.num_entities, ds.num_rels, times.clone());
    let base_horizon = ds.num_times;
    let clock = Clock::start();
    let stop = AtomicBool::new(false);

    struct Rungs {
        r1: Rung,
        r2: Rung,
        r2_plan: Vec<Planned>,
    }
    struct Loaded {
        /// The open-loop rungs between the parts of a traced run's closed
        /// loop.
        rungs: Option<Rungs>,
        /// Every request of the closed loop and of r1 and r2.
        sent: Vec<Outcome>,
        closed: Vec<ClosedPart>,
        /// `/metrics` deltas over all of that: workers, router.
        delta: (Scrape, Scrape),
        window_us: u64,
    }
    let (loaded, feed_log) = thread::scope(|scope| {
        let feeder = feed_conn.map(|conn| {
            let (draw, stop) = (draw(10), &stop);
            scope.spawn(move || feed(conn, clock, draw, base_horizon, seed, stop))
        });
        let loaded = (|| -> Result<Loaded, BenchError> {
            let before = (
                system.scrape_workers()?,
                system.scrape_router()?,
                clock.elapsed_micros(),
            );
            let lanes = readers.len();
            let mut draws: Vec<Draw> = (0..lanes)
                .map(|i| draw(20 + i as u64).lane(i, lanes))
                .collect();
            let mut closed = Vec::new();
            let mut sent = Vec::new();
            let mut closed_part = |readers: &mut [Conn], sent: &mut Vec<Outcome>, len_us: u64| {
                let from = clock.elapsed_micros();
                let slice_us = SLICE_US.min(len_us).max(1);
                let (outcomes, host) = thread::scope(|scope| {
                    let watch =
                        scope.spawn(move || watch_host(clock, from, slice_us, len_us / slice_us));
                    let outcomes = closed_loop(readers, &mut draws, clock, from + len_us);
                    (outcomes, watch.join().expect("host watcher panicked"))
                });
                closed.push(ClosedPart::cut(
                    &outcomes,
                    &host,
                    from,
                    from + len_us,
                    slice_us,
                ));
                sent.extend(outcomes);
            };
            let rungs = if trace {
                // The closed loop runs in three parts — before r1, between
                // the rungs, after r2 — so that its /metrics deltas and its
                // median latency span the run: the sandbox's speed drifts by
                // a quarter in spells of up to a quarter of a minute.
                closed_part(&mut readers, &mut sent, dc / 3);
                let (_, o1, r1) = open_phase(
                    &mut readers,
                    clock,
                    &mut draw(1),
                    ladder[0],
                    d1,
                    limit_us,
                    PATIENCE,
                );
                sent.extend(o1);
                closed_part(&mut readers, &mut sent, dc / 3);
                let (r2_plan, o2, r2) = open_phase(
                    &mut readers,
                    clock,
                    &mut draw(2),
                    ladder[1],
                    d2,
                    limit_us,
                    PATIENCE,
                );
                sent.extend(o2);
                closed_part(&mut readers, &mut sent, dc / 3);
                Some(Rungs { r1, r2, r2_plan })
            } else {
                closed_part(&mut readers, &mut sent, run_us);
                None
            };
            let after = (
                system.scrape_workers()?,
                system.scrape_router()?,
                clock.elapsed_micros(),
            );
            Ok(Loaded {
                rungs,
                sent,
                closed,
                delta: (after.0.minus(&before.0), after.1.minus(&before.1)),
                window_us: after.2 - before.2,
            })
        })();
        stop.store(true, Ordering::SeqCst);
        let feed_log = feeder.map(|f| f.join().expect("feed thread panicked"));
        (loaded, feed_log)
    });
    let loaded = loaded?;

    let mut attempted = loaded.sent.len();
    let mut failed = loaded.sent.iter().filter(|o| !o.answered()).count();
    let mut degraded = loaded
        .sent
        .iter()
        .filter(|o| o.answered() && !o.ok())
        .count();
    let refusals: u32 = loaded.sent.iter().map(|o| o.refusals).sum();
    if let Some(log) = &feed_log {
        attempted += log.attempted;
        failed += log.failed;
        degraded += log.degraded;
    }

    // ------------------------------------------------------ verification
    let verifying = Instant::now();
    let samples = if smoke { 6 } else { 24 };
    let after_load = system.scrape_workers()?;
    let (mut twin, checked) = match &feed_log {
        Some(log) => {
            let acked = log.appends.len();
            let frames = after_load.get("logcl_wal_frames_total{kind=\"appended\"}");
            let horizon = after_load.get("logcl_encoder_state_horizon");
            let rebuilds = after_load.family("logcl_encoder_state_rebuilds_total")
                - after_load.get("logcl_encoder_state_rebuilds_total{reason=\"boot\"}");
            if !log.durable
                || frames != acked as f64
                || horizon != (base_horizon + acked) as f64
                || rebuilds != 0.0
            {
                return Err(format!(
                    "ingest invariants broken: acks={acked} all_durable={} wal_frames={frames} \
                     horizon={horizon} (base {base_horizon}) non-boot rebuilds={rebuilds}",
                    log.durable
                )
                .into());
            }
            // Fresh head answers against a model rebuilt from scratch over
            // the dataset extended with exactly the facts sent.
            let mut twin = Twin::new(&extended(&ds, &log.appends));
            let mut head = draw(30);
            let fresh: Vec<Outcome> = (0..samples)
                .map(|_| ask(&mut readers[0], clock, head.query(), None, PATIENCE))
                .collect();
            attempted += fresh.len();
            failed += fresh.iter().filter(|o| !o.answered()).count();
            degraded += fresh.iter().filter(|o| o.answered() && !o.ok()).count();
            let checked = check(&mut twin, &sample(&fresh, samples))?;
            (twin, checked)
        }
        None => {
            let mut twin = Twin::new(&ds);
            let checked = check(&mut twin, &sample(&loaded.sent, samples))?;
            (twin, checked)
        }
    };
    if checked == 0 {
        return Err("nothing to verify: no request was answered at full fidelity".into());
    }
    info.push(format!(
        "verify_s = {:.3} s: {checked} answers bit-equal to the twin's (untimed)",
        verifying.elapsed().as_secs_f64()
    ));
    info.push(format!(
        "requests: {attempted} sent, {failed} failed (not answered), {degraded} answered degraded \
         or by fewer than all shards (no work done, not failed), {refusals} refusals (503) waited \
         out as Retry-After says"
    ));
    info.push(format!(
        "host: {STOLEN_SHARE_KEY}{:.3} of the CPU time asked for up to here was withheld by \
         the hypervisor (steal / (user + system + steal), /proc/stat)",
        stolen(host_before, host_cpu()).share
    ));

    // --------------------------------------------------------- reporting
    // While it is not waiting the loop keeps between one vCPU busy (a
    // request handed from thread to thread) and one per client (each
    // client's own request): the midpoint, which for a single client is
    // exact. Over forty runs with 0–54 % withheld it left every workload's
    // figure level where either end tilted it (README, "Agreement").
    let busy_vcpus = (1 + readers.len()) as f64 / 2.0;
    let rates: Vec<f64> = loaded
        .closed
        .iter()
        .flat_map(|part| part.rates(busy_vcpus))
        .collect();
    info.push(format!(
        "closed loop: answers / ms withheld in each of {} slices of {} ms, {busy_vcpus} vCPUs \
         busy: {}",
        rates.len(),
        SLICE_US / 1000,
        loaded
            .closed
            .iter()
            .flat_map(|part| part.answers.iter().zip(&part.stolen))
            .map(|(n, stolen)| format!("{n:.1}/{:.0}", 1e3 * stolen.seconds))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    info.push(format!(
        "closed loop: {:.1} answers per second of the time granted in the median slice",
        median(&rates)
    ));

    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    let Some(rungs) = loaded.rungs else {
        // The router waits out an idle keep-alive connection's read
        // timeout; close ours first.
        drop(readers);
        system.shutdown();
        // The other set-ups run here, a run's length after the first, so
        // that one slow spell of the sandbox does not cover them all.
        while setups.len() < SETUP_REPS {
            let (started, host) = (Instant::now(), host_cpu());
            let again = set_up(workload, smoke)?;
            setups.push((started.elapsed().as_secs_f64(), stolen(host, host_cpu())));
            drop((again.readers, again.feed));
            again.system.shutdown();
        }
        info.push(format!(
            "set-ups, wall s / ms withheld: {}",
            setups
                .iter()
                .map(|(wall_s, stolen)| format!("{wall_s:.3}/{:.0}", 1e3 * stolen.seconds))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        // A set-up is one thread's work.
        metrics.insert(
            "setup_s",
            setups
                .iter()
                .map(|(wall_s, stolen)| granted(*wall_s, *stolen, 1.0))
                .fold(f64::INFINITY, f64::min),
        );
        metrics.insert("closed_rps", median(&rates));
        debug_assert_eq!(metrics.len(), registry().end_to_end.len());
        return Ok(Report {
            attempted,
            failed,
            metrics,
            info,
            spans: Vec::new(),
        });
    };

    // r3 and what it provokes are its own result, in no count above. The
    // run waits for the server to be back to normal before going on.
    let (_, _, r3) = open_phase(
        &mut readers,
        clock,
        &mut draw(3),
        ladder[2],
        d3,
        limit_us,
        0,
    );
    let settle_query = Query {
        s: 0,
        r: 0,
        t: times.as_ref().map(|mix| mix.hot[0]),
    };
    settle(&mut readers[0], clock, settle_query)?;
    info.push(format!(
        "r2 stream fingerprint {:016x} ({} requests)",
        fingerprint(&rungs.r2_plan),
        rungs.r2_plan.len()
    ));
    info.push(rung_line("r1", &rungs.r1));
    info.push(rung_line("r2", &rungs.r2));
    info.push(rung_line("r3", &r3));
    let slo_rate = [&rungs.r1, &rungs.r2, &r3]
        .iter()
        .take_while(|r| r.pass)
        .last()
        .map_or(0.0, |r| r.rate);
    info.push(format!(
        "slo_rate = {slo_rate} rps (limit: p90 <= {} ms)",
        workload.limit_ms
    ));

    for m in &registry().per_layer {
        metrics.insert(m.name.as_str(), 0.0);
    }
    let closed_latencies: Vec<u64> = loaded
        .closed
        .iter()
        .flat_map(|part| part.latencies_us.iter().copied())
        .collect();
    metrics.insert(
        "client.closed_p50_ms",
        ms(percentile(&sorted(&closed_latencies), 0.5)),
    );
    metrics.insert("client.predict_p50_ms", ms(rungs.r2.p50_us));
    metrics.insert("client.predict_p90_ms", ms(rungs.r2.p90_us));
    // Read before the traced extras allocate their twins.
    metrics.insert("client.peak_rss_mb", peak_rss_mb()?);
    metrics.insert("client.slo_rate_rps", slo_rate);
    metrics.insert("loadgen.lateness_p99_ms", ms(rungs.r2.lateness_p99_us));
    let cold = sorted(
        &loaded
            .sent
            .iter()
            .filter(|o| o.ok() && o.answer.as_ref().is_some_and(|a| !a.cache_hit))
            .map(Outcome::latency_us)
            .collect::<Vec<_>>(),
    );
    if kind == Kind::HistoryRead {
        metrics.insert("client.cold_p50_ms", ms(percentile(&cold, 0.5)));
        info.push(format!("cold answers: n={}", cold.len()));
    }

    metrics.insert(
        "serve.registry.state_rebuilds",
        after_load.family("logcl_encoder_state_rebuilds_total")
            - after_load.get("logcl_encoder_state_rebuilds_total{reason=\"boot\"}"),
    );
    let (workers, router) = &loaded.delta;
    let predicts = workers.get("logcl_requests_total{endpoint=\"predict\"}");
    let busy_us = workers.get("logcl_kernel_busy_micros_total");
    let lookups = workers.get("logcl_encoding_cache_hits_total")
        + workers.get("logcl_encoding_cache_misses_total");
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    metrics.insert(
        "serve.server.request_ms_mean",
        1e3 * workers.hist_mean("logcl_request_duration_seconds"),
    );
    metrics.insert(
        "serve.batcher.queue_wait_ms_mean",
        1e3 * workers.hist_mean("logcl_queue_sojourn_seconds"),
    );
    metrics.insert(
        "serve.batcher.batch_size_mean",
        workers.hist_mean("logcl_batch_size"),
    );
    metrics.insert(
        "tensor.kernels.busy_share",
        ratio(busy_us, loaded.window_us as f64),
    );
    metrics.insert(
        "tensor.kernels.busy_ms_per_request",
        ratio(busy_us / 1e3, predicts),
    );
    metrics.insert(
        "serve.cache.hit_ratio",
        ratio(workers.get("logcl_encoding_cache_hits_total"), lookups),
    );
    metrics.insert("serve.shed.shed_total", workers.family("logcl_shed_total"));
    metrics.insert(
        "serve.shed.degraded_total",
        workers.get("logcl_degraded_responses_total"),
    );
    metrics.insert(
        "cluster.router.retries_total",
        router.family("logcl_router_retries_total"),
    );
    metrics.insert(
        "cluster.router.partial_total",
        router.get("logcl_partial_responses_total"),
    );
    let shard_series = |i: usize, part: &str| {
        router.get(&format!("logcl_router_shard_{i}_latency_seconds_{part}"))
    };
    let shard_sum: f64 = (0..SHARDS).map(|i| shard_series(i, "sum")).sum();
    let shard_count: f64 = (0..SHARDS).map(|i| shard_series(i, "count")).sum();
    metrics.insert(
        "cluster.router.shard_wait_ms_mean",
        1e3 * ratio(shard_sum, shard_count),
    );

    if let Some(log) = &feed_log {
        let acks = sorted(&log.ack_us);
        metrics.insert("client.ingest_ack_p50_ms", ms(percentile(&acks, 0.5)));
        metrics.insert("client.ingest_ack_p90_ms", ms(percentile(&acks, 0.9)));
        metrics.insert(
            "client.fresh_p50_ms",
            ms(percentile(&sorted(&log.fresh_us), 0.5)),
        );
        info.push(format!(
            "feed: {} appends acked, {} fresh predicts at the new horizon",
            acks.len(),
            log.fresh_us.len()
        ));
        metrics.insert(
            "serve.registry.advance_ms_mean",
            1e3 * after_load.hist_mean("logcl_ingest_advance_seconds"),
        );
        let frames = after_load.get("logcl_wal_frames_total{kind=\"appended\"}");
        metrics.insert(
            "serve.wal.fsyncs_per_ingest",
            ratio(after_load.get("logcl_wal_fsyncs_total"), frames),
        );
        // The log was not compacted yet (fewer appends than the default
        // `wal_compact_every`), so its length is every frame written.
        let wal_bytes = match system.wal_file() {
            Some(path) => std::fs::metadata(path)?.len() as f64,
            None => 0.0,
        };
        metrics.insert("serve.wal.bytes_per_ingest", ratio(wal_bytes, frames));

        // `update:true` appends, one at a time, nobody reading: the paper's
        // online protocol, the only serving use of backward plus Adam.
        let mut facts = draw(40);
        let mut updates = Vec::new();
        for i in 0..if smoke { 1 } else { 2 } {
            let t = base_horizon + log.appends.len() + i;
            let sent = clock.elapsed_micros();
            let ack = append(
                &mut readers[0],
                t,
                &facts.facts(FEED_FACTS),
                true,
                &format!("bench-{seed}-update-{t}"),
            );
            attempted += 1;
            match ack {
                Some(ack) if ack.updated && ack.durable && ack.horizon == t + 1 => {
                    updates.push(clock.elapsed_micros() - sent);
                }
                _ => failed += 1,
            }
        }
        metrics.insert(
            "client.update_ack_p50_ms",
            ms(percentile(&sorted(&updates), 0.5)),
        );
        info.push(format!("update:true appends: n={}", updates.len()));
    }

    // ------------------------------------------------------- the replay
    let queries: Vec<Query> = rungs.r2_plan.iter().map(|p| p.query).collect();
    let replayed = replay(kind, smoke, &system, &queries, &mut twin, seed)?;
    metrics.extend(replayed.metrics);
    info.extend(replayed.table);
    debug_assert_eq!(metrics.len(), registry().per_layer.len());
    drop(readers);
    system.shutdown();
    Ok(Report {
        attempted,
        failed,
        metrics,
        info,
        spans: replayed.spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::Answer;

    fn at(busy: u64, stolen: u64) -> Option<HostCpu> {
        Some(HostCpu { busy, stolen })
    }

    #[test]
    fn stolen_time_comes_off_the_length_not_the_share() {
        assert_eq!(stolen(at(100, 10), at(130, 10)), Stolen::default());
        let tenth = stolen(at(100, 10), at(130, 20));
        assert_eq!((tenth.seconds, tenth.share), (0.1, 0.25));
        // Nothing to read, nothing ran: quiet.
        assert_eq!(stolen(None, at(1, 1)), Stolen::default());
        assert_eq!(stolen(at(5, 5), at(5, 5)), Stolen::default());

        // One thread: every jiffy withheld is a jiffy late. Two vCPUs busy
        // side by side: half of one. A wait is nobody's to steal, so a
        // second that was mostly linger loses the same 0.1 s.
        assert_eq!(granted(1.0, tenth, 1.0), 0.9);
        assert_eq!(granted(1.0, tenth, 2.0), 0.95);
        assert_eq!(granted(0.5, Stolen::default(), 1.5), 0.5);
        // Counters that claim the whole length was stolen mean nothing.
        let all = stolen(at(0, 0), at(1, 99));
        assert_eq!(granted(0.5, all, 1.0), 0.05);
    }

    fn outcome(done_us: u64, degraded: bool) -> Outcome {
        Outcome {
            query: Query {
                s: 0,
                r: 0,
                t: None,
            },
            due_us: done_us - 40,
            sent_us: done_us - 40,
            done_us,
            status: 200,
            answer: Some(Answer {
                ranking: Vec::new(),
                cache_hit: true,
                degraded,
                coverage: None,
                time: None,
            }),
            refusals: 0,
        }
    }

    #[test]
    fn the_closed_loop_is_read_slice_by_slice() {
        // Each took 40 µs. Three answers in the first 100 µs; one that
        // spent half its time there and half in the second; one degraded
        // (no work done); one with three quarters of its time in the second
        // and the rest after the end (in no slice).
        let outcomes = [
            outcome(1_040, false),
            outcome(1_050, false),
            outcome(1_099, false),
            outcome(1_120, false),
            outcome(1_150, true),
            outcome(1_210, false),
        ];
        let part = ClosedPart::cut(&outcomes, &[], 1_000, 1_200, 100);
        assert_eq!(part.answers, [3.5, 1.25]);
        assert_eq!(part.latencies_us, [40; 5]);
        assert_eq!(part.rates(1.5).collect::<Vec<_>>(), [35_000.0, 12_500.0]);
        // A slice of 1 s from which 0.3 s were withheld while 1.5 vCPUs
        // were busy was 0.8 s long.
        let host = [at(0, 0), at(100, 30)];
        let slow = ClosedPart::cut(&outcomes, &host, 1_000, 1_001_000, 1_000_000);
        assert_eq!(slow.answers, [5.0]);
        let rate = slow.rates(1.5).next().unwrap();
        assert!((rate - 5.0 / 0.8).abs() < 1e-9, "{rate}");
        // A burst that takes a slice's answers away does not move the median.
        assert_eq!(median(&[250.0, 240.0, 90.0, 245.0, 10.0]), 240.0);
    }
}
