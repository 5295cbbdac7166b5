//! Durable-ingest tests: crash recovery from the write-ahead log, torn-tail
//! truncation at every byte offset, client idempotency, snapshot compaction,
//! and fail-closed `/ingest` validation.
//!
//! The kill-9 tests never get to call the process-level `kill`: instead they
//! copy the WAL directory *while the server is still running* — that copy is
//! exactly the on-disk image an abrupt death would leave (every acked ingest
//! is fsynced before its ack, so the live directory is always crash-ready) —
//! and boot a second server from the copy.

use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::Duration;

use logcl_serve::wal::{Wal, WalRecord};
use logcl_serve::{ServeConfig, Server};
use serde_json::Value;

mod common;
use common::{copy_dir, horizon_of, json, request, request_full, scratch, tiny_ds, untrained_spec};

/// Boots a durable server over `dir` with degradation thresholds pushed out
/// of reach (durability semantics are what's under test here).
fn durable_server(dir: &Path, compact_every: u64) -> Server {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        brownout_sojourn: Duration::from_secs(10),
        shed_sojourn: Duration::from_secs(60),
        wal_dir: Some(dir.to_path_buf()),
        wal_compact_every: compact_every,
        ..ServeConfig::default()
    };
    Server::start(cfg, tiny_ds(), vec![untrained_spec()]).expect("server must start")
}

/// The full `/predict` answer as a canonical string — used for bit-identity
/// assertions across a crash/restart boundary.
fn predict_answer(addr: std::net::SocketAddr, t: u64) -> String {
    let body = format!(r#"{{"subject": 1, "relation": 0, "time": {t}, "k": 5}}"#);
    let (status, body) = request(addr, "POST", "/predict", &body);
    assert_eq!(status, 200, "{body}");
    json(&body)
        .get("predictions")
        .expect("predictions array")
        .to_string()
}

fn ingest(
    addr: std::net::SocketAddr,
    t: u64,
    facts: &str,
    update: bool,
    id: Option<&str>,
) -> Value {
    let body = format!(r#"{{"time": {t}, "facts": {facts}, "update": {update}}}"#);
    let headers: Vec<(&str, &str)> = id.map(|i| ("X-LogCL-Ingest-Id", i)).into_iter().collect();
    let (status, _, body) = request_full(addr, "POST", "/ingest", &body, &headers);
    assert_eq!(status, 200, "{body}");
    json(&body)
}

// ---------------------------------------------------------------- recovery

/// Kill-9 equivalence, append-only path (`update: false`): a server restarted
/// from the crash image answers `/predict` bit-identically to the
/// uninterrupted server, with every acked fact present.
#[test]
fn crash_image_recovers_append_only_ingests_bit_identically() {
    let dir = scratch("append-only");
    let server = durable_server(&dir, 0);
    let addr = server.addr();
    let t0 = horizon_of(addr);

    let v = ingest(addr, t0, "[[1, 0, 2], [3, 1, 4]]", false, None);
    assert_eq!(v.get("durable").and_then(Value::as_bool), Some(true));
    assert_eq!(v.get("appended").and_then(Value::as_u64), Some(2));
    let v = ingest(addr, t0 + 1, "[[2, 0, 5]]", false, None);
    assert_eq!(v.get("durable").and_then(Value::as_bool), Some(true));

    let horizon = horizon_of(addr);
    assert_eq!(horizon, t0 + 2);
    let uninterrupted = predict_answer(addr, horizon);

    // The crash image: copied while the first server is still live.
    let crash = scratch("append-only-crash");
    copy_dir(&dir, &crash);
    server.shutdown();

    let reborn = durable_server(&crash, 0);
    assert_eq!(horizon_of(reborn.addr()), horizon, "horizon must recover");
    assert_eq!(
        predict_answer(reborn.addr(), horizon),
        uninterrupted,
        "recovered predictions must be bit-identical to the uninterrupted server"
    );
    let m = reborn.metrics();
    assert_eq!(m.wal_replayed_frames.load(Ordering::Relaxed), 2);
    assert_eq!(m.wal_recovered_facts.load(Ordering::Relaxed), 3);
    let (_, text) = request(reborn.addr(), "GET", "/metrics", "");
    assert!(
        text.contains("logcl_wal_frames_total{kind=\"replayed\"} 2"),
        "{text}"
    );
    assert!(text.contains("logcl_wal_recovered_facts_total 3"), "{text}");
    reborn.shutdown();
}

/// Kill-9 equivalence, online-update path (`update: true`): every durable
/// head append is read back by the very next `/predict` at the new horizon
/// (read-your-writes: the ack comes after the WAL fsync and the state
/// advance, so no polling is needed); replay re-runs the same adaptation
/// steps in the same order, so the recovered weights — and therefore
/// `/predict` — are bit-identical.
#[test]
fn crash_image_recovers_online_update_ingests_bit_identically() {
    let dir = scratch("online");
    let server = durable_server(&dir, 0);
    let addr = server.addr();
    let t0 = horizon_of(addr);

    for (t, facts) in [(t0, "[[1, 0, 2], [3, 1, 4]]"), (t0 + 1, "[[4, 1, 1]]")] {
        let next = format!(
            r#"{{"subject": 1, "relation": 0, "time": {}, "k": 5}}"#,
            t + 1
        );
        let (status, body) = request(addr, "POST", "/predict", &next);
        assert_eq!(
            status, 400,
            "t + 1 is beyond the horizon before the append: {body}"
        );
        let v = ingest(addr, t, facts, true, None);
        assert_eq!(v.get("online_update").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("durable").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("horizon").and_then(Value::as_u64), Some(t + 1));
        let (status, body) = request(addr, "POST", "/predict", &next);
        assert_eq!(status, 200, "the acked append must answer at once: {body}");
    }

    let horizon = horizon_of(addr);
    assert_eq!(horizon, t0 + 2);
    let uninterrupted = predict_answer(addr, horizon);

    let crash = scratch("online-crash");
    copy_dir(&dir, &crash);
    server.shutdown();

    let reborn = durable_server(&crash, 0);
    assert_eq!(horizon_of(reborn.addr()), horizon);
    assert_eq!(
        predict_answer(reborn.addr(), horizon),
        uninterrupted,
        "replayed online updates must reproduce the exact weights"
    );
    // Replay routed through the same incremental path the live server used:
    // the streaming encoder state was advanced to the recovered horizon.
    let (_, text) = request(reborn.addr(), "GET", "/metrics", "");
    assert!(
        text.contains(&format!("logcl_encoder_state_horizon {horizon}")),
        "replay must advance the streaming state to the recovered head:\n{text}"
    );
    reborn.shutdown();
}

/// Snapshot compaction: with `wal_compact_every: 1` every ingest triggers a
/// checkpoint + WAL truncate; recovery then loads the snapshot (no frames to
/// replay) and still answers bit-identically.
#[test]
fn compacted_state_recovers_from_the_snapshot_alone() {
    let dir = scratch("compact");
    let server = durable_server(&dir, 1);
    let addr = server.addr();
    let t0 = horizon_of(addr);

    ingest(addr, t0, "[[1, 0, 2], [3, 1, 4]]", true, None);
    ingest(addr, t0 + 1, "[[2, 0, 5]]", false, None);
    let horizon = horizon_of(addr);
    let uninterrupted = predict_answer(addr, horizon);
    // A run compacts right after it acks, on the model thread, which a
    // predict no longer waits behind: wait for the second compaction.
    let compactions = || server.metrics().wal_compactions.load(Ordering::Relaxed);
    let give_up = std::time::Instant::now() + Duration::from_secs(10);
    while compactions() < 2 && std::time::Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(compactions(), 2);

    let crash = scratch("compact-crash");
    copy_dir(&dir, &crash);
    server.shutdown();

    assert!(
        crash.join("snapshot.ckpt").exists(),
        "compaction must have written a snapshot"
    );
    let reborn = durable_server(&crash, 1);
    assert_eq!(horizon_of(reborn.addr()), horizon);
    assert_eq!(predict_answer(reborn.addr(), horizon), uninterrupted);
    assert_eq!(
        reborn.metrics().wal_replayed_frames.load(Ordering::Relaxed),
        0,
        "a compacted log has nothing to replay"
    );
    // The snapshot carried the advanced streaming state: recovery restored
    // it instead of rebuilding (the single rebuild is the boot-time init
    // over the base dataset, before the snapshot was even read).
    let rebuilds = &reborn.metrics().encoder_state_rebuilds;
    assert_eq!(
        rebuilds.boot.load(Ordering::Relaxed),
        1,
        "the one rebuild must be the boot-time init"
    );
    assert_eq!(
        rebuilds.recovery.load(Ordering::Relaxed),
        0,
        "a valid persisted state record must be restored, not rebuilt"
    );
    assert_eq!(rebuilds.total(), 1);
    reborn.shutdown();
}

// ------------------------------------------------------------- idempotency

/// A client retry carrying the same `X-LogCL-Ingest-Id` is answered from the
/// dedup window: applied exactly once, `deduplicated: true` on the retry,
/// and still exactly once after a crash restart.
#[test]
fn duplicate_ingest_id_is_applied_exactly_once_even_across_restart() {
    let dir = scratch("dedup");
    let server = durable_server(&dir, 0);
    let addr = server.addr();
    let t0 = horizon_of(addr);

    let first = ingest(addr, t0, "[[1, 0, 2], [3, 1, 4]]", true, Some("req-abc"));
    assert_eq!(first.get("appended").and_then(Value::as_u64), Some(2));
    assert_eq!(
        first.get("deduplicated").and_then(Value::as_bool),
        Some(false)
    );
    let after_first = predict_answer(addr, horizon_of(addr));

    let retry = ingest(addr, t0, "[[1, 0, 2], [3, 1, 4]]", true, Some("req-abc"));
    assert_eq!(
        retry.get("deduplicated").and_then(Value::as_bool),
        Some(true),
        "{retry}"
    );
    assert_eq!(
        retry.get("appended").and_then(Value::as_u64),
        first.get("appended").and_then(Value::as_u64),
        "the remembered outcome must be replayed verbatim"
    );
    assert_eq!(
        horizon_of(addr),
        t0 + 1,
        "a deduplicated retry must not advance the horizon again"
    );
    assert_eq!(
        predict_answer(addr, horizon_of(addr)),
        after_first,
        "a deduplicated retry must not touch the weights"
    );
    assert_eq!(
        server.metrics().ingest_dedup_hits.load(Ordering::Relaxed),
        1
    );

    let crash = scratch("dedup-crash");
    copy_dir(&dir, &crash);
    server.shutdown();

    // The WAL holds one frame for "req-abc"; replay applies it once and a
    // post-restart retry still hits the recovered dedup window.
    let reborn = durable_server(&crash, 0);
    let addr = reborn.addr();
    assert_eq!(horizon_of(addr), t0 + 1);
    assert_eq!(predict_answer(addr, t0 + 1), after_first);
    let retry = ingest(addr, t0, "[[1, 0, 2], [3, 1, 4]]", true, Some("req-abc"));
    assert_eq!(
        retry.get("deduplicated").and_then(Value::as_bool),
        Some(true),
        "the dedup window must survive recovery: {retry}"
    );
    assert_eq!(horizon_of(addr), t0 + 1);
    reborn.shutdown();
}

// ----------------------------------------------------------- torn tails

/// Truncating the log at *every* byte offset recovers exactly the longest
/// intact prefix of records — never a partial record, never an error — and
/// the repair is idempotent (a second open sees a clean log).
#[test]
fn truncation_at_every_byte_offset_recovers_the_longest_valid_prefix() {
    let dir = scratch("torn");
    let path = dir.join("ingest.wal");
    let records: Vec<WalRecord> = (0..4)
        .map(|i| WalRecord {
            model: "default".into(),
            t: 100 + i,
            facts: vec![(i, i + 1, i + 2), (i + 3, i, i + 1)],
            update: i % 2 == 0,
            ingest_id: if i % 2 == 0 {
                Some(format!("id-{i}"))
            } else {
                None
            },
        })
        .collect();

    // Append everything, tracking each frame's end offset.
    let mut boundaries = Vec::new();
    {
        let mut open = Wal::open(&path).expect("fresh open");
        assert!(open.records.is_empty());
        for r in &records {
            open.wal.append(r).expect("append");
            open.wal.sync().expect("sync");
            boundaries.push(std::fs::metadata(&path).expect("stat").len());
        }
    }
    let full = std::fs::read(&path).expect("read full log");
    let total = full.len() as u64;
    assert_eq!(boundaries.last().copied(), Some(total));

    for cut in 0..=total {
        let torn = dir.join(format!("torn-{cut}.wal"));
        std::fs::write(&torn, &full[..cut as usize]).expect("write torn log");
        let open = Wal::open(&torn).expect("torn open must never fail");
        let intact = boundaries.iter().filter(|&&end| end <= cut).count();
        assert_eq!(
            open.records,
            records[..intact],
            "cut at byte {cut}: wrong prefix recovered"
        );
        let last_boundary = boundaries[..intact].last().copied().unwrap_or(0);
        assert_eq!(
            open.truncated_bytes,
            cut - last_boundary,
            "cut at byte {cut}: wrong torn-tail accounting"
        );
        drop(open);
        // The repair truncated the file: a second open is clean.
        let reopened = Wal::open(&torn).expect("reopen after repair");
        assert_eq!(reopened.records, records[..intact]);
        assert_eq!(reopened.truncated_bytes, 0, "repair must be idempotent");
        let _ = std::fs::remove_file(&torn);
    }
}

/// A server restarted over a torn log serves the intact prefix: truncation
/// is counted, never fatal, and the server never fails open.
#[test]
fn server_recovers_over_a_torn_tail_and_serves_the_intact_prefix() {
    let dir = scratch("torn-server");
    let server = durable_server(&dir, 0);
    let addr = server.addr();
    let t0 = horizon_of(addr);
    ingest(addr, t0, "[[1, 0, 2]]", false, None);
    ingest(addr, t0 + 1, "[[3, 1, 4]]", false, None);
    let crash = scratch("torn-server-crash");
    copy_dir(&dir, &crash);
    server.shutdown();

    // Tear mid-frame: chop 3 bytes off the second frame.
    let wal_path = crash.join("ingest.wal");
    let bytes = std::fs::read(&wal_path).expect("read wal");
    std::fs::write(&wal_path, &bytes[..bytes.len() - 3]).expect("tear wal");

    let reborn = durable_server(&crash, 0);
    assert_eq!(
        horizon_of(reborn.addr()),
        t0 + 1,
        "only the intact first frame must be recovered"
    );
    let m = reborn.metrics();
    assert_eq!(m.wal_replayed_frames.load(Ordering::Relaxed), 1);
    assert!(m.wal_truncated_bytes.load(Ordering::Relaxed) > 0);
    reborn.shutdown();
}

// ------------------------------------------------------------- validation

/// `/ingest` validation fails closed with typed 400s — including the
/// duplicate-fact-in-body rule — and rejected requests leave no trace in
/// memory or in the durable state.
#[test]
fn invalid_ingests_are_rejected_without_corrupting_durable_state() {
    let dir = scratch("validation");
    let server = durable_server(&dir, 0);
    let addr = server.addr();
    let t0 = horizon_of(addr);

    let cases: &[(String, &str)] = &[
        // Empty facts array.
        (format!(r#"{{"time": {t0}, "facts": []}}"#), "no facts"),
        // Non-monotonic time: a gap past the horizon.
        (
            format!(r#"{{"time": {}, "facts": [[1, 0, 2]]}}"#, t0 + 10),
            "gap",
        ),
        // Out-of-range entity id.
        (
            format!(r#"{{"time": {t0}, "facts": [[999999, 0, 2]]}}"#),
            "out of range",
        ),
        // Out-of-range relation id.
        (
            format!(r#"{{"time": {t0}, "facts": [[1, 999999, 2]]}}"#),
            "out of range",
        ),
        // The same fact twice in one body.
        (
            format!(r#"{{"time": {t0}, "facts": [[1, 0, 2], [1, 0, 2]]}}"#),
            "more than once",
        ),
    ];
    for (body, needle) in cases {
        let (status, resp) = request(addr, "POST", "/ingest", body);
        assert_eq!(status, 400, "{body} -> {resp}");
        assert!(resp.contains(needle), "{body} -> {resp}");
    }
    // An oversized idempotency key is refused before any work happens.
    let long_id = "x".repeat(129);
    let (status, _, resp) = request_full(
        addr,
        "POST",
        "/ingest",
        &format!(r#"{{"time": {t0}, "facts": [[1, 0, 2]]}}"#),
        &[("X-LogCL-Ingest-Id", &long_id)],
    );
    assert_eq!(status, 400, "{resp}");
    assert!(resp.contains("X-LogCL-Ingest-Id"), "{resp}");

    // Nothing moved: no horizon change, no durable acks, no logged frames.
    assert_eq!(horizon_of(addr), t0);
    let m = server.metrics();
    assert_eq!(m.durable_acks.load(Ordering::Relaxed), 0);
    assert_eq!(m.wal_appended_frames.load(Ordering::Relaxed), 0);

    // A valid ingest still lands, and a restart replays only it.
    ingest(addr, t0, "[[1, 0, 2]]", false, None);
    let crash = scratch("validation-crash");
    copy_dir(&dir, &crash);
    server.shutdown();
    let reborn = durable_server(&crash, 0);
    assert_eq!(horizon_of(reborn.addr()), t0 + 1);
    assert_eq!(
        reborn.metrics().wal_replayed_frames.load(Ordering::Relaxed),
        1
    );
    reborn.shutdown();
}

/// `/shutdown` drains the WAL: after a graceful stop the live directory
/// itself (not a crash image) recovers every acked ingest.
#[test]
fn graceful_shutdown_leaves_a_recoverable_wal() {
    let dir = scratch("graceful");
    let server = durable_server(&dir, 0);
    let addr = server.addr();
    let t0 = horizon_of(addr);
    ingest(addr, t0, "[[1, 0, 2], [3, 1, 4]]", true, None);
    let horizon = horizon_of(addr);
    let answer = predict_answer(addr, horizon);
    let (status, _) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    server.run();

    let reborn = durable_server(&dir, 0);
    assert_eq!(horizon_of(reborn.addr()), horizon);
    assert_eq!(predict_answer(reborn.addr(), horizon), answer);
    reborn.shutdown();
}
