//! One connection-lifecycle table for both processes. `logcl serve` and
//! `logcl router` run on the same connection loop
//! (`logcl_serve::listener`), so every row here — keep-alive, close, 408,
//! 413, 400, a peer that just leaves, many persistent connections at once,
//! the cost of a fresh connection, the connection cap, drain — runs against
//! a [`Server`] and against a [`Router`] over that server and expects the
//! same bytes. Where a process also counts the event (`/metrics`), the row
//! asserts the counter.
//!
//! Rows that need a malformed, stalled or half-closed exchange write it by
//! hand on a `TcpStream`; everything else goes through `http::Client`. Rows
//! that need a request still in flight stall the worker's forwards with an
//! injected compute delay (`logcl_serve::fault`).

use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use logcl_cluster::client::MAX_IDLE;
use logcl_cluster::{Router, RouterConfig, WorkerState};
use logcl_core::ShardSpec;
use logcl_serve::fault::{self, FaultPlan, FaultPoint};
use logcl_serve::http::{self, Client, Reply};
use logcl_serve::{ServeConfig, Server};
use serde_json::Value;

mod common;
use common::{tiny_ds, untrained_spec};

/// The settings a row may want changed; the inbound limits apply to both
/// processes, hedging to the router; `stall` holds the worker's first
/// predict for one to three times its length before its forward.
#[derive(Clone, Copy)]
struct Limits {
    read_timeout: Duration,
    max_body_bytes: usize,
    max_connections: usize,
    stall: Option<Duration>,
    hedge_after: Option<Duration>,
}

impl Default for Limits {
    fn default() -> Self {
        let serve = ServeConfig::default();
        Self {
            read_timeout: serve.read_timeout,
            max_body_bytes: serve.max_body_bytes,
            max_connections: serve.max_connections,
            stall: None,
            hedge_after: None,
        }
    }
}

/// The fault plan is process-global: a pair that stalls its worker lives
/// alone, all the others live side by side.
static PLAN: RwLock<()> = RwLock::new(());

enum Turn {
    Shared {
        _held: RwLockReadGuard<'static, ()>,
    },
    Alone {
        _held: RwLockWriteGuard<'static, ()>,
    },
}

impl Turn {
    fn take(stall: Option<Duration>) -> Turn {
        let Some(delay) = stall else {
            let _held = PLAN.read().unwrap_or_else(|e| e.into_inner());
            return Turn::Shared { _held };
        };
        let _held = PLAN.write().unwrap_or_else(|e| e.into_inner());
        fault::install(FaultPlan {
            compute_delay: Some(delay),
            compute_delay_batches: Some(1),
            ..FaultPlan::default()
        });
        Turn::Alone { _held }
    }
}

impl Drop for Turn {
    fn drop(&mut self) {
        if matches!(self, Turn::Alone { .. }) {
            fault::clear();
        }
    }
}

/// A server and a router over it (as its one shard, `0/1`).
struct Pair {
    server: Server,
    router: Router,
    _turn: Turn,
}

/// One process under test: where to connect, and — for the server, which
/// counts what the router does not — the process itself.
struct Target<'a> {
    name: &'static str,
    addr: SocketAddr,
    server: Option<&'a Server>,
}

/// The one worker (shard `0/1`) at `addr`; a restarted worker rebinds its
/// old port.
fn worker(limits: Limits, addr: &str) -> Server {
    let cfg = ServeConfig {
        addr: addr.into(),
        read_timeout: limits.read_timeout,
        max_body_bytes: limits.max_body_bytes,
        max_connections: limits.max_connections,
        shard: Some(ShardSpec::new(0, 1).expect("shard 0/1")),
        brownout_sojourn: Duration::from_secs(10),
        shed_sojourn: Duration::from_secs(60),
        ..ServeConfig::default()
    };
    Server::start(cfg, tiny_ds(), vec![untrained_spec()]).expect("server must start")
}

impl Pair {
    fn boot(limits: Limits) -> Pair {
        let _turn = Turn::take(limits.stall);
        let server = worker(limits, "127.0.0.1:0");
        let router = Router::start(RouterConfig {
            shards: vec![vec![server.addr().to_string()]],
            read_timeout: limits.read_timeout,
            max_body_bytes: limits.max_body_bytes,
            max_connections: limits.max_connections,
            hedge_after: limits.hedge_after,
            ..RouterConfig::default()
        })
        .expect("router must start");
        Pair {
            server,
            router,
            _turn,
        }
    }

    /// The server first: its counters are asserted exactly, before the
    /// router's rows send it traffic of their own.
    fn targets(&self) -> [Target<'_>; 2] {
        [
            Target {
                name: "serve",
                addr: self.server.addr(),
                server: Some(&self.server),
            },
            Target {
                name: "router",
                addr: self.router.addr(),
                server: None,
            },
        ]
    }

    fn shutdown(self) {
        self.router.shutdown();
        self.server.shutdown();
    }
}

/// A connection the test owns, so that it can see the very same socket stay
/// open — and then see its EOF.
struct Raw(BufReader<TcpStream>);

impl Raw {
    fn connect(addr: SocketAddr) -> Raw {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set read timeout");
        Raw(BufReader::new(stream))
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0.get_mut().write_all(bytes).expect("write");
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str, keep_alive: bool) -> Reply {
        let headers = [("Host", "t")];
        http::write_request(
            self.0.get_mut(),
            method,
            path,
            &headers,
            body.as_bytes(),
            keep_alive,
        )
        .expect("write request");
        self.read_reply()
    }

    fn read_reply(&mut self) -> Reply {
        http::read_response(&mut self.0, 1 << 20).expect("read response")
    }

    /// Everything the peer still sends before it closes.
    fn rest(&mut self) -> Vec<u8> {
        let mut rest = Vec::new();
        self.0.read_to_end(&mut rest).expect("read to EOF");
        rest
    }
}

fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> Reply {
    Client::new(addr, Duration::from_secs(30))
        .and_then(|mut client| client.send(method, path, &[], body.as_bytes()))
        .expect("exchange")
}

fn kept_alive(addr: SocketAddr) -> Client {
    Client::new(addr, Duration::from_secs(30))
        .expect("client")
        .keep_alive()
}

fn predictions(reply: &Reply) -> usize {
    let body: Value = serde_json::from_slice(&reply.body).expect("JSON body");
    body.get("predictions")
        .and_then(Value::as_array)
        .expect("predictions array")
        .len()
}

/// Polls until `cond` holds (5 s at most).
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let give_up = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < give_up, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn scrape(addr: SocketAddr) -> String {
    let reply = send(addr, "GET", "/metrics", "");
    assert_eq!(reply.status, 200);
    reply.text()
}

#[test]
fn three_requests_down_one_connection_then_close_is_honoured() {
    let pair = Pair::boot(Limits::default());
    for t in pair.targets() {
        let mut conn = Raw::connect(t.addr);
        // Three requests down one connection: each answered with
        // `Connection: keep-alive`, the socket left open.
        for i in 0..3 {
            let body = format!(r#"{{"subject": {i}, "relation": 0}}"#);
            let reply = conn.exchange("POST", "/predict", &body, true);
            assert_eq!(reply.status, 200, "{} #{i}: {}", t.name, reply.text());
            assert_eq!(
                reply.header("connection"),
                Some("keep-alive"),
                "{} #{i}",
                t.name
            );
            assert!(predictions(&reply) > 0, "{} #{i}", t.name);
        }
        // `Connection: close` on the last one is answered in kind, then EOF.
        let reply = conn.exchange("GET", "/healthz", "", false);
        assert_eq!(reply.status, 200, "{}", t.name);
        assert_eq!(reply.header("connection"), Some("close"), "{}", t.name);
        assert!(
            conn.rest().is_empty(),
            "{} must close after Connection: close",
            t.name
        );
    }
    pair.shutdown();
}

#[test]
fn a_stalled_head_is_answered_408_and_the_connection_closed() {
    let pair = Pair::boot(Limits {
        read_timeout: Duration::from_millis(150),
        ..Limits::default()
    });
    for t in pair.targets() {
        // Half a request head, then silence.
        let mut conn = Raw::connect(t.addr);
        conn.write(b"POST /predict HTTP/1.1\r\nHost: t");
        let reply = conn.read_reply();
        assert_eq!(reply.status, 408, "{}: {}", t.name, reply.text());
        assert_eq!(reply.header("connection"), Some("close"), "{}", t.name);
        assert!(conn.rest().is_empty(), "{}", t.name);
        if let Some(server) = t.server {
            assert_eq!(server.metrics().read_timeouts.load(Ordering::Relaxed), 1);
            let metrics = scrape(t.addr);
            assert!(metrics.contains("logcl_read_timeouts_total 1"), "{metrics}");
        }
    }
    pair.shutdown();
}

#[test]
fn a_declared_body_over_the_cap_is_answered_413_without_being_read() {
    let pair = Pair::boot(Limits {
        max_body_bytes: 64,
        ..Limits::default()
    });
    for t in pair.targets() {
        // The head declares 256 bytes and not one of them is ever sent: an
        // answer that waited for the body would wait out the read timeout.
        let mut conn = Raw::connect(t.addr);
        let asked = Instant::now();
        conn.write(b"POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: 256\r\n\r\n");
        let reply = conn.read_reply();
        assert_eq!(reply.status, 413, "{}: {}", t.name, reply.text());
        assert!(reply.text().contains("too large"), "{}", reply.text());
        assert!(asked.elapsed() < Duration::from_secs(5), "{}", t.name);
        assert_eq!(reply.header("connection"), Some("close"), "{}", t.name);
        assert!(conn.rest().is_empty(), "{}", t.name);
        if let Some(server) = t.server {
            assert_eq!(server.metrics().oversized_bodies.load(Ordering::Relaxed), 1);
            let metrics = scrape(t.addr);
            assert!(
                metrics.contains("logcl_oversized_bodies_total 1"),
                "{metrics}"
            );
        }
        // A normally-sized request to the same process still succeeds.
        let reply = send(
            t.addr,
            "POST",
            "/predict",
            r#"{"subject": 0, "relation": 0}"#,
        );
        assert_eq!(reply.status, 200, "{}: {}", t.name, reply.text());
    }
    pair.shutdown();
}

#[test]
fn a_malformed_head_is_answered_400_and_the_connection_closed() {
    let pair = Pair::boot(Limits::default());
    for t in pair.targets() {
        let mut conn = Raw::connect(t.addr);
        conn.write(b"POST /predict HTTP/1.1\r\nContent-Length: two\r\n\r\n{}");
        let reply = conn.read_reply();
        assert_eq!(reply.status, 400, "{}: {}", t.name, reply.text());
        assert!(reply.text().contains("malformed"), "{}", reply.text());
        // What follows an unframeable message cannot be told from its
        // body: answered once, then closed, whatever the peer wanted.
        assert_eq!(reply.header("connection"), Some("close"), "{}", t.name);
        assert!(conn.rest().is_empty(), "{}", t.name);
    }
    pair.shutdown();
}

#[test]
fn a_kept_alive_peer_that_leaves_or_idles_out_is_closed_in_silence() {
    let pair = Pair::boot(Limits {
        read_timeout: Duration::from_millis(150),
        ..Limits::default()
    });
    for t in pair.targets() {
        // One that says goodbye (half-close, so that anything the server
        // wrote in reply would still be readable) and one that goes quiet
        // past the read timeout: keep-alive ending, not a protocol error.
        for leaves in [true, false] {
            let mut conn = Raw::connect(t.addr);
            let reply = conn.exchange("GET", "/healthz", "", true);
            assert_eq!(reply.status, 200, "{}", t.name);
            assert_eq!(reply.header("connection"), Some("keep-alive"), "{}", t.name);
            if leaves {
                conn.0
                    .get_ref()
                    .shutdown(Shutdown::Write)
                    .expect("half-close");
            }
            let rest = conn.rest();
            assert!(
                rest.is_empty(),
                "{} (leaves: {leaves}) wrote {:?}",
                t.name,
                String::from_utf8_lossy(&rest)
            );
        }
        if let Some(server) = t.server {
            let m = server.metrics();
            assert_eq!(m.read_timeouts.load(Ordering::Relaxed), 0);
            assert_eq!(m.responses_client_error.load(Ordering::Relaxed), 0);
            assert_eq!(m.responses_server_error.load(Ordering::Relaxed), 0);
        }
    }
    pair.shutdown();
}

#[test]
fn sixteen_kept_alive_connections_all_stay_persistent() {
    // Four times what the handler pool this loop replaced could hold: with
    // a thread per connection nobody is ever asked to make room.
    const CONNECTIONS: usize = 16;
    const REQUESTS: usize = 40;
    let pair = Pair::boot(Limits::default());
    for t in pair.targets() {
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                let addr = t.addr;
                std::thread::spawn(move || {
                    let mut client = kept_alive(addr);
                    (0..REQUESTS)
                        .map(|_| client.send("GET", "/healthz", &[], b"").expect("exchange"))
                        .collect::<Vec<Reply>>()
                })
            })
            .collect();
        for client in clients {
            let replies = client.join().expect("client thread");
            assert!(replies.iter().all(|r| r.status == 200), "{}", t.name);
            let closes = replies.iter().filter(|r| !r.keep_alive).count();
            assert_eq!(closes, 0, "{}: answers with `Connection: close`", t.name);
            let reconnects = replies.iter().skip(1).filter(|r| !r.reused_connection);
            assert_eq!(reconnects.count(), 0, "{}: reconnects", t.name);
        }
    }
    pair.shutdown();
}

#[test]
fn forty_fresh_connections_finish_inside_100_ms() {
    // The budget a sleeping acceptor cannot meet: a connection that arrives
    // while the accept thread sleeps 5 ms waits the sleep out, so forty in
    // a row took >= 190 ms by construction; a blocking accept takes them as
    // they come. Best of five rounds, so that one scheduling hiccup on a
    // shared host is not a verdict.
    let pair = Pair::boot(Limits::default());
    for t in pair.targets() {
        let best = (0..5)
            .map(|_| {
                let started = Instant::now();
                for _ in 0..40 {
                    assert_eq!(send(t.addr, "GET", "/healthz", "").status, 200);
                }
                started.elapsed()
            })
            .min()
            .expect("five rounds");
        assert!(
            best < Duration::from_millis(100),
            "{}: 40 fresh-connection GET /healthz took {best:?}",
            t.name
        );
    }
    pair.shutdown();
}

#[test]
fn a_connection_over_the_cap_is_answered_503_and_counted() {
    let pair = Pair::boot(Limits {
        max_connections: 2,
        ..Limits::default()
    });
    for t in pair.targets() {
        // Two idle kept-alive connections hold both slots…
        let mut held: Vec<Client> = (0..2).map(|_| kept_alive(t.addr)).collect();
        for client in &mut held {
            let reply = client.send("GET", "/healthz", &[], b"").expect("exchange");
            assert!(reply.status == 200 && reply.keep_alive, "{}", t.name);
        }
        // …so the third is told to come back, and hung up on.
        let reply = send(t.addr, "GET", "/healthz", "");
        assert_eq!(reply.status, 503, "{}: {}", t.name, reply.text());
        assert_eq!(reply.header("retry-after"), Some("1"), "{}", t.name);
        assert!(!reply.keep_alive, "{}", t.name);
        assert_eq!(
            reply.header("x-logcl-degradation").is_some(),
            t.server.is_some(),
            "{}: the server stamps its tier on the loop's refusals too",
            t.name
        );
        // Once one of the two leaves, a fourth gets in — and then a fifth,
        // the scrape. A slot is freed by its connection's own thread, a
        // moment after the peer has its answer, so each may be refused a few
        // times first; every refusal is one more to find counted.
        held.pop();
        let mut refused = 1;
        let mut admitted = |path: &str| {
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                let reply = send(t.addr, "GET", path, "");
                if reply.status == 200 {
                    return reply;
                }
                assert_eq!(reply.status, 503, "{}: {}", t.name, reply.text());
                refused += 1;
                assert!(Instant::now() < deadline, "{}: slot never freed", t.name);
                std::thread::sleep(Duration::from_millis(5));
            }
        };
        admitted("/healthz");
        let metrics = admitted("/metrics").text();
        // The held connection is not over the cap, and still works.
        let reply = held[0].send("GET", "/healthz", &[], b"").expect("exchange");
        assert!(reply.status == 200 && reply.reused_connection, "{}", t.name);
        let series = match t.server {
            Some(server) => {
                let counted = server.metrics().shed_connections.load(Ordering::Relaxed);
                assert_eq!(counted, refused);
                format!("logcl_shed_total{{reason=\"connections\"}} {refused}")
            }
            None => format!("logcl_router_shed_connections_total {refused}"),
        };
        assert!(metrics.contains(&series), "want {series}:\n{metrics}");
    }
    pair.shutdown();
}

#[test]
fn drain_does_not_wait_for_an_idle_kept_alive_connection() {
    // `shutdown()` on each process, an idle kept-alive client still open:
    // nowhere near the 10 s read timeout the connection could idle for.
    let pair = Pair::boot(Limits::default());
    let mut idle: Vec<Client> = pair
        .targets()
        .iter()
        .map(|t| {
            let mut client = kept_alive(t.addr);
            let reply = client.send("GET", "/healthz", &[], b"").expect("exchange");
            assert!(reply.status == 200 && reply.keep_alive, "{}", t.name);
            client
        })
        .collect();
    let started = Instant::now();
    pair.router.shutdown();
    let router_took = started.elapsed();
    pair.server.shutdown();
    let server_took = started.elapsed() - router_took;
    // Before the second boot: one thread asking for the read lock twice
    // waits for ever once a writer has queued between the two.
    drop(pair._turn);
    assert!(router_took < Duration::from_secs(1), "{router_took:?}");
    assert!(server_took < Duration::from_secs(1), "{server_took:?}");
    // Both ports are closed: the stale socket fails and so does the retry.
    for client in &mut idle {
        assert!(client.send("GET", "/healthz", &[], b"").is_err());
    }

    // The same through `POST /shutdown` and `run()`.
    let pair = Pair::boot(Limits::default());
    let (server_addr, router_addr) = (pair.server.addr(), pair.router.addr());
    let _idle = [kept_alive(server_addr), kept_alive(router_addr)].map(|mut client| {
        assert_eq!(
            client.send("GET", "/healthz", &[], b"").unwrap().status,
            200
        );
        client
    });
    let started = Instant::now();
    assert_eq!(send(router_addr, "POST", "/shutdown", "").status, 200);
    pair.router.run();
    assert_eq!(send(server_addr, "POST", "/shutdown", "").status, 200);
    pair.server.run();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "{:?}",
        started.elapsed()
    );
}

/// The router twin of serve's
/// `graceful_shutdown_answers_requests_already_in_flight`.
#[test]
fn router_shutdown_answers_a_request_already_in_flight() {
    let pair = Pair::boot(Limits {
        stall: Some(Duration::from_millis(150)),
        ..Limits::default()
    });
    let addr = pair.router.addr();
    let predict = move |subject: usize| {
        let body = format!(r#"{{"subject": {subject}, "relation": 1}}"#);
        std::thread::spawn(move || send(addr, "POST", "/predict", &body))
    };
    // Every compute permit of the worker held by a stalled forward and one
    // more request waiting for a permit — all in flight on the router —
    // when the router's shutdown endpoint fires.
    let permits = pair.server.overload().compute_permits();
    fault::install(FaultPlan {
        compute_delay: Some(Duration::from_millis(150)),
        compute_delay_batches: Some(permits as u64),
        ..FaultPlan::default()
    });
    let occupiers: Vec<_> = (0..permits).map(|i| predict(3 + i)).collect();
    wait_until("every permit's forward stalls", || {
        fault::fired(FaultPoint::ComputeDelay) == permits as u64
    });
    let queued = predict(2);
    let overload = pair.server.overload();
    wait_until("the last request waits for a permit", || {
        overload.queue_wait(Instant::now()) > Duration::ZERO
    });
    assert_eq!(send(addr, "POST", "/shutdown", "").status, 200);
    pair.router.run(); // returns once every thread is joined

    for client in occupiers.into_iter().chain([queued]) {
        let reply = client.join().expect("client thread");
        assert_eq!(
            reply.status,
            200,
            "in-flight request was dropped: {}",
            reply.text()
        );
        assert!(predictions(&reply) > 0);
    }
    pair.server.shutdown();
}

// ------------------------------------------------ the router's hop connections

const PREDICT: &str = r#"{"subject": 2, "relation": 1}"#;

/// One `/predict` through the router, answered in full.
fn predict_in_full(router: SocketAddr) {
    let reply = send(router, "POST", "/predict", PREDICT);
    assert_eq!(reply.status, 200, "{}", reply.text());
    let body: Value = serde_json::from_slice(&reply.body).expect("JSON body");
    assert_eq!(body.get("coverage").and_then(Value::as_f64), Some(1.0));
    assert_eq!(body.get("degraded").and_then(Value::as_bool), Some(false));
}

/// `logcl_router_hop_connections_total` as `(reused, fresh)`, and the sum of
/// `logcl_router_retries_total` over its reasons.
fn hop_counters(router: SocketAddr) -> ((u64, u64), u64) {
    let text = scrape(router);
    let value = |series: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(series))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("{series} missing:\n{text}"))
    };
    let retries = ["connect", "timeout", "http", "io"]
        .map(|r| value(&format!("logcl_router_retries_total{{reason=\"{r}\"}}")))
        .iter()
        .sum();
    let hops = (
        value("logcl_router_hop_connections_total{reused=\"true\"}"),
        value("logcl_router_hop_connections_total{reused=\"false\"}"),
    );
    (hops, retries)
}

#[test]
fn hops_to_a_worker_ride_one_kept_connection() {
    let pair = Pair::boot(Limits::default());
    for _ in 0..5 {
        predict_in_full(pair.router.addr());
    }
    assert_eq!(pair.router.idle_hop_connections(), [[1]]);
    assert_eq!(hop_counters(pair.router.addr()), ((4, 1), 0));
    pair.shutdown();
}

/// A worker restarted between two predicts: the pooled socket is dead, the
/// hop is replayed on a fresh connection inside the same attempt, and
/// nothing else notices — full answer, no retry counted, no health edge.
#[test]
fn a_worker_restarted_between_two_predicts_costs_no_retry_and_no_health_edge() {
    let pair = Pair::boot(Limits::default());
    let router = pair.router.addr();
    predict_in_full(router);
    assert_eq!(pair.router.idle_hop_connections(), [[1]]);

    let worker_addr = pair.server.addr().to_string();
    pair.server.shutdown();
    let reborn = worker(Limits::default(), &worker_addr);

    predict_in_full(router);
    assert_eq!(pair.router.shard_states(), [[WorkerState::Up]]);
    let health: Value =
        serde_json::from_slice(&send(router, "GET", "/healthz", "").body).expect("JSON body");
    let first = |v: &Value, key: &str| v.get(key)?.as_array()?.first().cloned();
    let replica = first(&health, "workers").and_then(|w| first(&w, "replicas"));
    let failures = replica.and_then(|r| r.get("failures")?.as_u64());
    assert_eq!(failures, Some(0), "{health}");
    assert_eq!(
        hop_counters(router),
        ((0, 2), 0),
        "both answers on fresh sockets, no retry"
    );
    // The replay's socket was pooled in the dead one's place.
    predict_in_full(router);
    assert_eq!(hop_counters(router), ((1, 2), 0));

    pair.router.shutdown();
    reborn.shutdown();
}

/// A worker's `shutdown()` does not wait for the router's idle pooled
/// sockets: they are closed within the listener's idle poll.
#[test]
fn a_worker_drains_past_the_routers_idle_hop_connections() {
    let pair = Pair::boot(Limits::default());
    predict_in_full(pair.router.addr());
    assert_eq!(pair.router.idle_hop_connections(), [[1]]);
    let started = Instant::now();
    pair.server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "{:?}",
        started.elapsed()
    );
    pair.router.shutdown();
}

#[test]
fn thirty_two_clients_leave_no_more_idle_sockets_than_the_bound() {
    const CLIENTS: usize = 32;
    const REQUESTS: usize = 12;
    let pair = Pair::boot(Limits::default());
    let router = pair.router.addr();
    let most_idle = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = kept_alive(router);
                    for _ in 0..REQUESTS {
                        let reply = client
                            .send("POST", "/predict", &[], PREDICT.as_bytes())
                            .expect("exchange");
                        assert_eq!(reply.status, 200, "{}", reply.text());
                    }
                })
            })
            .collect();
        let mut most = 0;
        while !clients.iter().all(|c| c.is_finished()) {
            most = most.max(pair.router.idle_hop_connections()[0][0]);
            std::thread::sleep(Duration::from_millis(1));
        }
        most
    });
    let left = pair.router.idle_hop_connections()[0][0];
    assert!(
        most_idle <= MAX_IDLE && left <= MAX_IDLE,
        "{most_idle}, {left}"
    );
    assert!(left >= 1, "the last hop's socket is kept");
    let ((reused, fresh), retries) = hop_counters(router);
    assert_eq!(reused + fresh, (CLIENTS * REQUESTS) as u64);
    assert_eq!(retries, 0);
    pair.shutdown();
}

/// A hedge never queues behind the primary's connection: with the primary's
/// request held in the worker's stalled first forward, the hedge opens a
/// second socket, and both come back to the pool.
#[test]
fn a_hedge_takes_a_second_connection() {
    let pair = Pair::boot(Limits {
        stall: Some(Duration::from_millis(150)),
        hedge_after: Some(Duration::from_millis(10)),
        ..Limits::default()
    });
    let router = pair.router.addr();
    predict_in_full(router);
    assert!(scrape(router).contains("logcl_router_hedges_total 1"));
    // The loser runs to completion on its own thread.
    wait_until("both hop sockets are pooled", || {
        pair.router.idle_hop_connections() == [[2]]
    });
    assert_eq!(hop_counters(router).0, (0, 2));
    pair.shutdown();
}
