//! Process-level cluster test: real `logcl serve --shard` worker processes
//! fronted by a real `logcl router` process-peer (in-test router would not
//! prove the CLI wiring), with a genuine kill -9 mid-load. Asserts the
//! degradation contract (partial 200s with Retry-After, never 5xx storms)
//! and recovery to full coverage once the worker is restarted on its port.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use logcl_serve::http::Client;
use serde_json::Value;

const SHARDS: usize = 3;

/// Kills every child on drop so a failing assertion never leaks processes.
struct Procs(Vec<Child>);

impl Drop for Procs {
    fn drop(&mut self) {
        for c in &mut self.0 {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// A fresh per-test scratch directory under the temp dir, unique per process
/// so parallel test binaries never collide. Derefs to its `Path`; dropping
/// it — when the test ends, pass or fail — removes the directory.
struct Scratch(PathBuf);

impl std::ops::Deref for Scratch {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scratch(name: &str) -> Scratch {
    let dir = std::env::temp_dir().join(format!("logcl-cluster-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    Scratch(dir)
}

fn logcl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_logcl"))
}

/// Common model-shape flags — train and serve must agree or the checkpoint
/// fingerprint check rejects the load.
const SHAPE: &[&str] = &["--dim", "16", "--m", "3", "--seed", "7"];

/// Spawns a `logcl` subcommand with piped stdout and waits for its
/// "listening on http://..." line; a sidecar thread keeps draining stdout
/// afterwards so the child can never block on a full pipe.
fn spawn_listening(args: &[String]) -> (Child, SocketAddr) {
    let mut child = logcl()
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn logcl");
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut addr_sent = false;
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if !addr_sent {
                if let Some(rest) = line.strip_prefix("listening on http://") {
                    let _ = tx.send(rest.trim().to_string());
                    addr_sent = true;
                }
            }
        }
    });
    let addr: SocketAddr = rx
        .recv_timeout(Duration::from_secs(300))
        .expect("child never printed its listening address")
        .parse()
        .expect("parseable listen address");
    (child, addr)
}

type Response = (u16, Vec<(String, String)>, String);

fn request_full(addr: SocketAddr, method: &str, path: &str, body: &str) -> Option<Response> {
    let reply = Client::new(addr, Duration::from_secs(120))
        .and_then(|mut client| client.send(method, path, &[], body.as_bytes()))
        .ok()?;
    let body = reply.text();
    Some((reply.status, reply.headers, body))
}

fn header_of<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

fn json(body: &str) -> Value {
    serde_json::from_str(body).unwrap_or_else(|e| panic!("bad JSON {body:?}: {e}"))
}

fn worker_args(data: &str, model: &str, wal: &Path, shard: usize, addr: &str) -> Vec<String> {
    let mut args: Vec<String> = ["serve", "--data", data, "--load", model, "--addr", addr]
        .iter()
        .map(|s| s.to_string())
        .collect();
    args.extend(SHAPE.iter().map(|s| s.to_string()));
    args.extend([
        "--shard".to_string(),
        format!("{shard}/{SHARDS}"),
        "--wal-dir".to_string(),
        wal.to_string_lossy().to_string(),
    ]);
    args
}

#[test]
fn router_and_workers_survive_kill_dash_nine() {
    let dir = scratch("e2e");
    let data = dir.join("data").to_string_lossy().to_string();
    let model = dir.join("model.json").to_string_lossy().to_string();

    // Dataset + tiny checkpoint, via the real CLI.
    let out = logcl()
        .args([
            "generate", "--preset", "icews14", "--scale", "0.1", "--out", &data,
        ])
        .output()
        .expect("generate runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = logcl()
        .args(["train", "--data", &data, "--epochs", "1", "--save", &model])
        .args(SHAPE)
        .output()
        .expect("train runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Three worker processes (ephemeral ports) + the router process-peer.
    let mut procs = Procs(Vec::new());
    let mut worker_addrs = Vec::new();
    let wals: Vec<PathBuf> = (0..SHARDS).map(|i| dir.join(format!("wal-{i}"))).collect();
    for (i, wal) in wals.iter().enumerate() {
        let (child, addr) = spawn_listening(&worker_args(&data, &model, wal, i, "127.0.0.1:0"));
        procs.0.push(child);
        worker_addrs.push(addr);
    }
    let shards_spec = worker_addrs
        .iter()
        .map(SocketAddr::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let router_args: Vec<String> = [
        "router",
        "--shards",
        &shards_spec,
        "--addr",
        "127.0.0.1:0",
        "--retries",
        "1",
        "--retry-base-ms",
        "5",
        "--probe-interval-ms",
        "50",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let (router_child, router) = spawn_listening(&router_args);
    procs.0.push(router_child);

    // Healthy cluster: full-coverage answers and an exactly-once ingest.
    let (status, _, body) = request_full(
        router,
        "POST",
        "/predict",
        r#"{"subject": 0, "relation": 0, "k": 5}"#,
    )
    .expect("router reachable");
    assert_eq!(status, 200, "{body}");
    let reply = json(&body);
    assert_eq!(reply.get("coverage").and_then(Value::as_f64), Some(1.0));
    assert_eq!(reply.get("degraded").and_then(Value::as_bool), Some(false));

    let horizon = {
        let (status, _, body) =
            request_full(worker_addrs[0], "GET", "/healthz", "").expect("worker healthz");
        assert_eq!(status, 200);
        json(&body).get("horizon").and_then(Value::as_u64).unwrap()
    };
    let (status, _, body) = request_full(
        router,
        "POST",
        "/ingest",
        &format!(r#"{{"time": {horizon}, "facts": [[1, 0, 2]]}}"#),
    )
    .expect("router reachable");
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        json(&body).get("acked").and_then(Value::as_u64),
        Some(SHARDS as u64)
    );

    // kill -9 worker 2 mid-load: background clients keep hammering the
    // router while the process dies. Every answer must stay a 200 — the
    // storm the router must not produce is 5xx.
    let stop = Arc::new(AtomicBool::new(false));
    let load: Vec<_> = (0..3)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut statuses = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    if let Some((status, _, _)) = request_full(
                        router,
                        "POST",
                        "/predict",
                        r#"{"subject": 1, "relation": 0, "k": 5}"#,
                    ) {
                        statuses.push(status);
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                statuses
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(100));
    procs.0[2].kill().expect("SIGKILL worker 2");
    let _ = procs.0[2].wait();

    // The router settles into partial-coverage answers with Retry-After.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, headers, body) = request_full(
            router,
            "POST",
            "/predict",
            r#"{"subject": 0, "relation": 0, "k": 5}"#,
        )
        .expect("router must stay reachable");
        assert_eq!(status, 200, "never 5xx after a worker death: {body}");
        let reply = json(&body);
        let coverage = reply.get("coverage").and_then(Value::as_f64).unwrap();
        if coverage < 1.0 {
            assert_eq!(reply.get("degraded").and_then(Value::as_bool), Some(true));
            assert!(coverage > 0.5, "coverage ~2/3, got {coverage}");
            assert_eq!(header_of(&headers, "x-logcl-degradation"), Some("partial"));
            assert!(
                header_of(&headers, "retry-after").is_some(),
                "partial answers must advertise Retry-After"
            );
            break;
        }
        assert!(Instant::now() < deadline, "router never noticed the death");
        std::thread::sleep(Duration::from_millis(20));
    }

    stop.store(true, Ordering::Relaxed);
    for h in load {
        let statuses = h.join().expect("load thread");
        assert!(
            statuses.iter().all(|&s| s == 200),
            "mid-kill load must see only 200s, got {statuses:?}"
        );
    }

    // Restart the worker on its old port; coverage must return to 1.0.
    let (reborn, _) = spawn_listening(&worker_args(
        &data,
        &model,
        &wals[2],
        2,
        &worker_addrs[2].to_string(),
    ));
    procs.0.push(reborn);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, _, body) = request_full(
            router,
            "POST",
            "/predict",
            r#"{"subject": 0, "relation": 0, "k": 5}"#,
        )
        .expect("router reachable");
        assert_eq!(status, 200, "{body}");
        let reply = json(&body);
        if reply.get("coverage").and_then(Value::as_f64) == Some(1.0) {
            assert_eq!(reply.get("degraded").and_then(Value::as_bool), Some(false));
            break;
        }
        assert!(
            Instant::now() < deadline,
            "coverage never recovered after worker restart: {reply}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    drop(procs);
}
