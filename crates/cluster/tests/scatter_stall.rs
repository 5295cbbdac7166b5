//! One shard that has to wait never holds up the others. The router writes
//! every shard's request on its connection thread before it reads any reply;
//! a hop that would wait there for anything besides its own reply — a stall,
//! a connect that hangs, a failover chain — is handed to a thread of its own.
//! Were it not, a stalled or hung shard 0 would starve every shard behind it
//! (503), and two failing shards would pay their failover chains one after
//! the other.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use logcl_cluster::{Router, RouterConfig};
use logcl_serve::http::{read_request, write_response, Client, Reply, Response};
use serde_json::Value;

/// The fault plan is process-global: the tests here run one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static ONE: Mutex<()> = Mutex::new(());
    ONE.lock().unwrap_or_else(|e| e.into_inner())
}

fn post(addr: SocketAddr, path: &str, deadline_ms: &str, body: &str) -> Reply {
    Client::new(addr, Duration::from_secs(30))
        .and_then(|mut c| {
            c.send(
                "POST",
                path,
                &[("X-LogCL-Deadline-Ms", deadline_ms)],
                body.as_bytes(),
            )
        })
        .expect("exchange")
}

fn coverage_and_answered(reply: &Reply) -> (f64, Vec<u64>) {
    let v: Value = serde_json::from_slice(&reply.body).expect("JSON answer");
    let coverage = v.get("coverage").and_then(Value::as_f64).expect("coverage");
    let answered = v
        .get("shards")
        .and_then(|s| s.get("answered"))
        .and_then(Value::as_array)
        .expect("shards.answered")
        .iter()
        .filter_map(Value::as_u64)
        .collect();
    (coverage, answered)
}

/// A stand-in for worker shard `index` of two, on connections it keeps
/// alive, each served by a thread of its own: its `n`-th request is
/// answered `script[n]` (a status, after a delay), the last entry repeating.
/// A 200 to `/predict` is a one-candidate shard answer, to `/ingest` an ack.
/// It serves until the test process ends.
fn stand_in(index: usize, script: Vec<(u16, Duration)>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let seen = Arc::new(AtomicUsize::new(0));
    let script = Arc::new(script);
    std::thread::spawn(move || {
        for mut stream in listener.incoming().flatten() {
            let (seen, script) = (Arc::clone(&seen), Arc::clone(&script));
            std::thread::spawn(move || {
                while let Ok(req) = read_request(&mut stream) {
                    let n = seen.fetch_add(1, Ordering::SeqCst);
                    let (status, delay) = script[n.min(script.len() - 1)];
                    std::thread::sleep(delay);
                    let one = 1.0f32.to_bits();
                    let body = match (status, req.path.as_str()) {
                        (200, "/predict") => format!(
                            "{{\"predictions\":[{{\"entity\":{e},\"name\":\"e{e}\",\"score_bits\":{one}}}],\
                             \"shard\":{{\"entities\":2,\"hi\":{hi},\"index\":{index},\"lo\":{e},\
                             \"softmax_max_bits\":{one},\"softmax_sum_exp_bits\":{one}}}}}",
                            e = index,
                            hi = index + 1,
                        ),
                        (200, _) => r#"{"appended":1,"deduplicated":false}"#.into(),
                        _ => r#"{"error":"overloaded"}"#.into(),
                    };
                    let resp = Response::json(status, body);
                    if write_response(&mut stream, &resp, req.keep_alive).is_err()
                        || !req.keep_alive
                    {
                        break;
                    }
                }
            });
        }
    });
    addr
}

/// A listener whose accept queue is full and stays full: the kernel drops
/// every further SYN, so a connect to it hangs until its own timeout — a
/// worker whose backlog has filled, or a host that has gone away.
struct Hung {
    addr: String,
    _listener: TcpListener,
    _queued: Vec<TcpStream>,
}

fn hung() -> Hung {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut queued = Vec::new();
    while let Ok(stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(100)) {
        queued.push(stream);
        assert!(queued.len() < 5_000, "the accept queue never filled");
    }
    Hung {
        addr: addr.to_string(),
        _listener: listener,
        _queued: queued,
    }
}

/// Shard 0 cannot be connected to within the request's deadline, which is
/// shorter than the router's connect timeout: shard 1 is still written and
/// read, and the answer is a 200 `partial` of shard 1 alone — on a cold pool
/// and on a warm one.
#[test]
fn a_shard_whose_connect_hangs_leaves_the_others_answer_intact() {
    let _one = serial();
    let hung = hung();
    let live = stand_in(1, vec![(200, Duration::ZERO)]);
    let router = Router::start(RouterConfig {
        shards: vec![vec![hung.addr.clone()], vec![live]],
        connect_timeout: Duration::from_millis(500),
        ..RouterConfig::default()
    })
    .expect("router must start");
    for round in 0..3 {
        let started = Instant::now();
        let reply = post(router.addr(), "/predict", "150", r#"{"subject": 0}"#);
        assert_eq!(reply.status, 200, "round {round}: {}", reply.text());
        assert_eq!(reply.header("x-logcl-degradation"), Some("partial"));
        assert_eq!(
            coverage_and_answered(&reply),
            (0.5, vec![1]),
            "round {round}"
        );
        assert!(
            started.elapsed() < Duration::from_millis(450),
            "round {round}: {:?}, not within the 150 ms deadline",
            started.elapsed()
        );
    }
    router.shutdown();
}

/// Two shards (two ingest workers) fail their first attempt at once, on
/// warm connections. Each retry chain then runs beside the other, so the
/// request pays one chain (a 300 ms retry), not two. Likewise two hedges
/// that fire at once race side by side.
#[test]
fn two_failing_shards_cost_one_failover_chain_not_two() {
    let _one = serial();
    let slow = Duration::from_millis(300);
    let cases = [
        ("/predict", (503, Duration::ZERO), 1, None),
        ("/ingest", (503, Duration::ZERO), 1, None),
        (
            "/predict",
            (200, Duration::from_secs(2)),
            0,
            Some(Duration::from_millis(50)),
        ),
    ];
    for (path, first, retries, hedge_after) in cases {
        let script = vec![(200, Duration::ZERO), first, (200, slow)];
        let router = Router::start(RouterConfig {
            shards: (0..2).map(|i| vec![stand_in(i, script.clone())]).collect(),
            retries,
            retry_base: Duration::from_millis(2),
            hedge_after,
            ..RouterConfig::default()
        })
        .expect("router must start");
        // Leaves an idle connection to each worker, so the next scatter
        // writes both first attempts on the connection thread.
        let warm = post(router.addr(), path, "5000", r#"{"subject": 0}"#);
        assert_eq!(warm.status, 200, "{path}: {}", warm.text());
        let started = Instant::now();
        let reply = post(router.addr(), path, "5000", r#"{"subject": 0}"#);
        let took = started.elapsed();
        assert_eq!(reply.status, 200, "{path}: {}", reply.text());
        if path == "/predict" {
            assert_eq!(coverage_and_answered(&reply), (1.0, vec![0, 1]), "{path}");
        }
        assert!(
            took < slow + Duration::from_millis(200),
            "{path}, hedge {hedge_after:?}: {took:?} — the second chain waited for the first"
        );
        router.shutdown();
    }
}

#[cfg(feature = "fault-inject")]
mod stall {
    use super::*;
    use logcl_cluster::fault::{clear, fired, install, FaultPlan, FaultPoint};
    use logcl_cluster::{merge_replies, parse_shard_reply};
    use logcl_core::{LogClConfig, ShardSpec};
    use logcl_serve::{ModelSpec, ServeConfig, Server};
    use logcl_tkg::SyntheticPreset;

    const SHARDS: usize = 3;
    const K: usize = 5;

    fn workers() -> Vec<Server> {
        (0..SHARDS)
            .map(|i| {
                let cfg = ServeConfig {
                    addr: "127.0.0.1:0".into(),
                    shard: Some(ShardSpec::new(i, SHARDS).unwrap()),
                    brownout_sojourn: Duration::from_secs(10),
                    shed_sojourn: Duration::from_secs(60),
                    ..ServeConfig::default()
                };
                let spec = ModelSpec {
                    name: "default".into(),
                    cfg: LogClConfig {
                        dim: 16,
                        time_bank: 4,
                        channels: 6,
                        m: 3,
                        ..Default::default()
                    },
                    checkpoint: None,
                    train: None,
                };
                let ds = SyntheticPreset::Icews14.generate_scaled(0.15);
                Server::start(cfg, ds, vec![spec]).expect("worker must start")
            })
            .collect()
    }

    /// `(entity, score_bits)` in rank order.
    fn ranking(body: &[u8]) -> Vec<(u64, u64)> {
        let v: Value = serde_json::from_slice(body).expect("JSON answer");
        v.get("predictions")
            .and_then(Value::as_array)
            .expect("predictions")
            .iter()
            .map(|p| {
                let field = |k| p.get(k).and_then(Value::as_u64).expect("numeric field");
                (field("entity"), field("score_bits"))
            })
            .collect()
    }

    /// The `ShardStall` seam holds back only its own shard's hop. With no
    /// retry and no hedge to hide behind, a stall past the deadline leaves a
    /// `partial` 200 made of exactly the unstalled shards' own answers —
    /// wherever the stalled shard sits.
    #[test]
    fn a_shard_stalled_past_the_deadline_leaves_the_others_answer_intact() {
        let _one = serial();
        let ws = workers();
        let router = Router::start(RouterConfig {
            shards: ws.iter().map(|w| vec![w.addr().to_string()]).collect(),
            retries: 0,
            hedge_after: None,
            ..RouterConfig::default()
        })
        .expect("router must start");
        let query = format!(r#"{{"subject": 5, "relation": 1, "k": {K}}}"#);
        // Warm: full coverage, and every worker's encoding cached, so the
        // unstalled shards answer well inside the deadline below.
        let full = post(router.addr(), "/predict", "30000", &query);
        assert_eq!(full.status, 200, "{}", full.text());

        for stalled in [0, SHARDS - 1] {
            // What the unstalled shards answer on their own, merged as the
            // router merges: the partial answer must be exactly this.
            let alone: Vec<_> = (0..SHARDS)
                .filter(|&i| i != stalled)
                .map(|i| {
                    let reply = post(ws[i].addr(), "/predict", "30000", &query);
                    parse_shard_reply(&reply.body).expect("a shard answer")
                })
                .collect();
            let expected = merge_replies(&alone, K, SHARDS);

            // Jittered 1–3×, every stall is past the 400 ms deadline.
            install(FaultPlan {
                seed: 25,
                stall_shard: Some(stalled),
                stall: Some(Duration::from_millis(600)),
                ..FaultPlan::default()
            });
            let reply = post(router.addr(), "/predict", "400", &query);
            clear();
            assert_eq!(
                reply.status,
                200,
                "stalled shard {stalled}: {}",
                reply.text()
            );
            assert_eq!(reply.header("x-logcl-degradation"), Some("partial"));
            assert_eq!(fired(FaultPoint::ShardStall), 1, "one hop, held back");
            let want: Vec<u64> = expected.answered.iter().map(|&i| i as u64).collect();
            assert_eq!(
                coverage_and_answered(&reply),
                (expected.coverage, want),
                "stalled shard {stalled}"
            );
            let bits: Vec<(u64, u64)> = expected
                .predictions
                .iter()
                .map(|p| (p.entity as u64, u64::from(p.score.to_bits())))
                .collect();
            assert_eq!(ranking(&reply.body), bits, "stalled shard {stalled}");
        }

        router.shutdown();
        for w in ws {
            w.shutdown();
        }
    }
}
