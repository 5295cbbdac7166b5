//! The router's side of a router → worker hop: what the shared
//! [`logcl_serve::http::Client`] cannot know. Every call carries an absolute
//! deadline, and connect, read and write timeouts are all derived from the
//! remaining budget so a hop can never outlive its request; every failure is
//! sorted into the retry-accounting taxonomy.
//!
//! A hop rides a kept-alive connection from its worker's [`Pool`] and puts
//! it back after a clean exchange, so a steady scatter pays no connect, no
//! connection thread on the worker and no TIME_WAIT socket per request. The
//! router's failure domain is still the *request*: a socket that carried a
//! 5xx, an unframeable reply, a timeout or an advertised close is dropped,
//! never pooled, so a half-dead connection cannot poison a later request. A
//! pooled socket the worker has closed meanwhile (idle timeout, restart) is
//! found before anything is written on it — a non-blocking peek when it
//! leaves the pool — and dropped, so the hop goes out on a fresh connection
//! at once. A close that lands after the write is replayed once on a fresh
//! connection inside the same call. Both are `Client`'s keep-alive
//! lifecycle, not a failure: no health edge, no retry counted, and for
//! `/ingest` the router's `X-LogCL-Ingest-Id` makes a replay a dedup. A dead
//! socket fails at once, so the replay runs on what is left of the same
//! budget; a *timeout* on a reused socket is the deadline speaking and is
//! never replayed. [`request`] is the same exchange on a connection of its
//! own, for the prober, whose job is to test the connect path.
//!
//! An exchange comes in two halves, so the router can put every shard's
//! request on the wire before it waits for any reply: [`Pool::write`] sends
//! and returns a [`Hop`], [`Pool::read`] reads its reply (and is where the
//! replay happens). [`Pool::write_idle`] is the write half that never
//! connects. [`Pool::request`] is the two halves back to back.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use logcl_serve::deadline::remaining_budget;
use logcl_serve::http::{Client, ClientError, HttpError, Reply, Sent};

/// Why an outbound hop failed — the retry-accounting taxonomy
/// (`logcl_router_retries_total{reason=...}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailReason {
    /// TCP connect refused / unreachable / timed out.
    Connect,
    /// The deadline expired while waiting on the socket.
    Timeout,
    /// The worker answered a retryable HTTP status (5xx).
    Http,
    /// The exchange died mid-flight (reset, truncated or unframeable
    /// response).
    Io,
}

impl FailReason {
    /// The `reason` label value.
    pub fn name(self) -> &'static str {
        match self {
            FailReason::Connect => "connect",
            FailReason::Timeout => "timeout",
            FailReason::Http => "http",
            FailReason::Io => "io",
        }
    }
}

/// A failed hop: the taxonomy bucket plus a human-readable detail.
#[derive(Debug, Clone)]
pub struct HopError {
    /// Retry-accounting bucket.
    pub reason: FailReason,
    /// Operator-readable detail.
    pub detail: String,
}

impl HopError {
    fn timeout(detail: &str) -> Self {
        HopError {
            reason: FailReason::Timeout,
            detail: detail.into(),
        }
    }

    fn from_client(addr: &str, e: &ClientError) -> Self {
        let reason = match e {
            ClientError::Connect(_) => FailReason::Connect,
            ClientError::Exchange(HttpError::ReadTimeout) => FailReason::Timeout,
            ClientError::Exchange(_) => FailReason::Io,
        };
        HopError {
            reason,
            detail: format!("{addr}: {e}"),
        }
    }
}

/// Opens a connection to `addr` within `min(connect_timeout, remaining
/// budget)`; `connect_timeout(0)` is an invalid argument, not an instant
/// failure, hence the 1 ms floor.
fn open(addr: &str, deadline: Instant, connect_timeout: Duration) -> Result<Client, HopError> {
    let budget = remaining_budget(deadline, Instant::now());
    if budget.is_zero() {
        return Err(HopError::timeout("deadline exhausted before connect"));
    }
    let handshake = connect_timeout.min(budget).max(Duration::from_millis(1));
    let fail = |e: ClientError| HopError::from_client(addr, &e);
    let mut client = Client::new(addr, handshake).map_err(fail)?;
    client.connect().map_err(fail)?;
    Ok(client)
}

/// The write half of one `method path` exchange on `client`, within what is
/// left of `deadline` (re-read here, after any handshake).
fn write_half(
    client: &mut Client,
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
    deadline: Instant,
) -> Result<Sent, HopError> {
    let budget = remaining_budget(deadline, Instant::now());
    if budget.is_zero() {
        return Err(HopError::timeout("deadline exhausted before the exchange"));
    }
    client.set_io_timeout(budget);
    client
        .write(method, path, headers, body)
        .map_err(|e| HopError::from_client(addr, &e))
}

/// The read half: waits for the reply within what is left of `deadline`,
/// floored at 1 ms — a reply that arrived in time is read even when the
/// caller got to it late. Any 2xx–4xx response parses as `Ok` — HTTP-level
/// failures below 500 are answers, not transport faults; 5xx maps to a
/// retryable [`FailReason::Http`].
fn read_half(
    client: &mut Client,
    addr: &str,
    sent: Sent,
    deadline: Instant,
) -> Result<Reply, HopError> {
    client.set_io_timeout(remaining_budget(deadline, Instant::now()).max(Duration::from_millis(1)));
    let reply = client
        .read(sent)
        .map_err(|e| HopError::from_client(addr, &e))?;
    if reply.status >= 500 {
        return Err(HopError {
            reason: FailReason::Http,
            detail: format!("worker answered {}: {}", reply.status, reply.text()),
        });
    }
    Ok(reply)
}

/// Performs one `method path` exchange against `addr` on a connection of its
/// own (opened here, closed by the worker after its answer), bounded by
/// `deadline` and, for the TCP handshake, `connect_timeout`.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
    deadline: Instant,
    connect_timeout: Duration,
) -> Result<Reply, HopError> {
    let mut client = open(addr, deadline, connect_timeout)?;
    let sent = write_half(&mut client, addr, method, path, headers, body, deadline)?;
    read_half(&mut client, addr, sent, deadline)
}

/// A hop whose request is on the wire and whose reply is still to be read
/// ([`Pool::write`], then [`Pool::read`]).
pub struct Hop {
    client: Client,
    sent: Sent,
}

impl Hop {
    /// Whether the worker has begun to answer (or failed) within `timeout`,
    /// floored at 1 ms; reads nothing out of the reply.
    pub fn answered_within(&mut self, timeout: Duration) -> bool {
        self.sent.answered_within(timeout)
    }
}

/// Idle sockets a [`Pool`] keeps; a hop that finds it full on its way back
/// closes its own.
pub const MAX_IDLE: usize = 8;

/// One worker's idle kept-alive connections. The lock guards a `Vec` push
/// or pop and nothing else: it is never held across I/O, and a panic under
/// it cannot leave the list in a state worth refusing.
pub struct Pool {
    addr: String,
    idle: Mutex<Vec<Client>>,
}

impl Pool {
    /// An empty pool for the worker at `addr`; sockets are opened on demand.
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            idle: Mutex::new(Vec::new()),
        }
    }

    /// The worker's address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn lock_idle(&self) -> MutexGuard<'_, Vec<Client>> {
        self.idle.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Idle sockets held right now.
    pub fn idle_count(&self) -> usize {
        self.lock_idle().len()
    }

    /// Closes every idle socket — taken out under the lock, closed after it.
    pub fn clear(&self) {
        let closing = std::mem::take(&mut *self.lock_idle());
        drop(closing);
    }

    /// The most recently used idle connection the worker has not closed, if
    /// any. The closed ones it finds on the way are dropped, after the lock.
    fn take(&self) -> Option<Client> {
        loop {
            let mut client = self.lock_idle().pop()?;
            if client.is_open() {
                return Some(client);
            }
        }
    }

    /// Keeps `client` for a later hop, or — at [`MAX_IDLE`] — lets it close
    /// (on return, after the guard has gone).
    fn put_back(&self, client: Client) {
        let mut idle = self.lock_idle();
        if idle.len() < MAX_IDLE {
            idle.push(client);
        }
    }

    /// [`request`] on the most recently used idle connection, or on a new
    /// kept-alive one when none is idle (a second hop in flight — a hedge —
    /// never queues behind the first). The connection comes back only after
    /// a clean exchange the worker agreed to keep alive.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
        deadline: Instant,
        connect_timeout: Duration,
    ) -> Result<Reply, HopError> {
        let hop = self.write(method, path, headers, body, deadline, connect_timeout)?;
        self.read(hop, deadline)
    }

    /// The write half of [`Pool::request`]: the request goes out and the
    /// call returns without waiting for the worker.
    pub fn write(
        &self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
        deadline: Instant,
        connect_timeout: Duration,
    ) -> Result<Hop, HopError> {
        match self.write_idle(method, path, headers, body, deadline) {
            Some(written) => written,
            None => {
                let client = open(&self.addr, deadline, connect_timeout)?.keep_alive();
                self.write_on(client, method, path, headers, body, deadline)
            }
        }
    }

    /// [`Pool::write`] that never connects: `None` when no open connection
    /// is idle, so the caller can put the connect — which may block for the
    /// whole handshake timeout — where it holds up nobody.
    pub fn write_idle(
        &self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
        deadline: Instant,
    ) -> Option<Result<Hop, HopError>> {
        let client = self.take()?;
        Some(self.write_on(client, method, path, headers, body, deadline))
    }

    fn write_on(
        &self,
        mut client: Client,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
        deadline: Instant,
    ) -> Result<Hop, HopError> {
        let sent = write_half(
            &mut client,
            &self.addr,
            method,
            path,
            headers,
            body,
            deadline,
        )?;
        Ok(Hop { client, sent })
    }

    /// The read half of [`Pool::request`]: the reply to `hop`, read within
    /// what is left of `deadline` (floored at 1 ms).
    pub fn read(&self, hop: Hop, deadline: Instant) -> Result<Reply, HopError> {
        let Hop { mut client, sent } = hop;
        let reply = read_half(&mut client, &self.addr, sent, deadline)?;
        if reply.keep_alive {
            self.put_back(client);
        }
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::sync::mpsc;

    use logcl_serve::http::{read_request, write_response, Request, Response, MAX_HEAD_BYTES};

    /// A scripted worker: accepts one connection, reads the request, writes
    /// `reply` verbatim and hangs up. Joins to the request it was sent.
    fn scripted_worker(reply: Vec<u8>) -> (String, std::thread::JoinHandle<Request>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let worker = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let req = read_request(&mut s).unwrap();
            s.write_all(&reply).unwrap();
            req
        });
        (addr, worker)
    }

    /// A worker that keeps connections: for each inner list, accepts one
    /// connection and answers one request per entry on it — `true` agrees to
    /// keep the connection alive, `false` says `Connection: close` — then
    /// drops it and says so on `closed`. Joins to the requests it was sent
    /// and whether anyone connected after the script ran out.
    #[expect(
        clippy::type_complexity,
        reason = "the address, the close signal and the join handle, named at the call site"
    )]
    fn keeping_worker(
        script: Vec<Vec<bool>>,
    ) -> (
        String,
        mpsc::Receiver<()>,
        std::thread::JoinHandle<(Vec<Request>, bool)>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (closed_tx, closed) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            let mut seen = Vec::new();
            for exchanges in script {
                let (mut stream, _) = listener.accept().unwrap();
                for keep in exchanges {
                    let req = read_request(&mut stream).unwrap();
                    let resp = Response::json(200, format!("{{\"n\":{}}}", seen.len()));
                    write_response(&mut stream, &resp, keep && req.keep_alive).unwrap();
                    seen.push(req);
                }
                drop(stream);
                let _ = closed_tx.send(());
            }
            listener.set_nonblocking(true).unwrap();
            (seen, listener.accept().is_ok())
        });
        (addr, closed, worker)
    }

    fn served(resp: &Response) -> Vec<u8> {
        let mut wire = Vec::new();
        write_response(&mut wire, resp, false).unwrap();
        wire
    }

    fn hop_on(pool: &Pool, method: &str, path: &str, body: &[u8]) -> Result<Reply, HopError> {
        pool.request(
            method,
            path,
            &[("X-LogCL-Deadline-Ms", "100")],
            body,
            Instant::now() + Duration::from_secs(2),
            Duration::from_millis(500),
        )
    }

    /// One hop through a pool of its own.
    fn hop(addr: &str, method: &str, path: &str, body: &[u8]) -> Result<Reply, HopError> {
        hop_on(&Pool::new(addr), method, path, body)
    }

    #[test]
    fn refused_connection_classifies_as_connect() {
        // Port 1 on localhost is essentially never listening.
        let err = hop("127.0.0.1:1", "GET", "/healthz", b"").unwrap_err();
        assert_eq!(err.reason, FailReason::Connect);
        assert_eq!(err.reason.name(), "connect");
        let err = hop("not an address", "GET", "/healthz", b"").unwrap_err();
        assert_eq!(err.reason, FailReason::Connect);
    }

    #[test]
    fn expired_deadline_fails_fast_as_timeout() {
        let err = request(
            "127.0.0.1:1",
            "GET",
            "/healthz",
            &[],
            b"",
            Instant::now() - Duration::from_millis(1),
            Duration::from_millis(200),
        )
        .unwrap_err();
        assert_eq!(err.reason, FailReason::Timeout);
    }

    #[test]
    fn a_quiet_worker_times_out_within_the_deadline() {
        // Accepts (the listener's backlog does) and never answers.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let started = Instant::now();
        let err = request(
            &listener.local_addr().unwrap().to_string(),
            "GET",
            "/healthz",
            &[],
            b"",
            started + Duration::from_millis(80),
            Duration::from_millis(500),
        )
        .unwrap_err();
        assert_eq!(err.reason, FailReason::Timeout, "{}", err.detail);
        assert!(started.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn parses_a_served_response_end_to_end() {
        let resp = Response::json(200, r#"{"ok":true}"#.into()).with_header("X-Test", "yes");
        let (addr, worker) = scripted_worker(served(&resp));
        let reply = hop(&addr, "POST", "/predict", br#"{"subject":0}"#).unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.header("x-test"), Some("yes"));
        assert_eq!(reply.body, br#"{"ok":true}"#);
        let sent = worker.join().unwrap();
        assert_eq!(
            (sent.method.as_str(), sent.path.as_str()),
            ("POST", "/predict")
        );
        assert_eq!(sent.header("x-logcl-deadline-ms"), Some("100"));
        assert_eq!(sent.body, br#"{"subject":0}"#);
        assert!(sent.keep_alive, "a hop asks to keep its connection");
    }

    /// The prober's exchange stays on a connection of its own.
    #[test]
    fn a_request_outside_a_pool_asks_the_worker_to_close() {
        let (addr, worker) = scripted_worker(served(&Response::json(200, "{}".into())));
        let reply = request(
            &addr,
            "GET",
            "/healthz",
            &[],
            b"",
            Instant::now() + Duration::from_secs(2),
            Duration::from_millis(500),
        )
        .unwrap();
        assert_eq!(reply.status, 200);
        assert!(!worker.join().unwrap().keep_alive);
    }

    #[test]
    fn two_hops_to_one_worker_ride_one_connection() {
        let (addr, _closed, worker) = keeping_worker(vec![vec![true, true]]);
        let pool = Pool::new(addr);
        let first = hop_on(&pool, "POST", "/predict", b"{}").unwrap();
        assert_eq!(pool.idle_count(), 1);
        let second = hop_on(&pool, "POST", "/predict", b"{}").unwrap();
        assert_eq!(pool.idle_count(), 1);
        assert!(!first.reused_connection && second.reused_connection);
        assert_eq!(
            (first.text().as_str(), second.text().as_str()),
            ("{\"n\":0}", "{\"n\":1}")
        );
        pool.clear();
        assert_eq!(pool.idle_count(), 0);
        let (seen, connected_again) = worker.join().unwrap();
        assert_eq!(
            seen.len(),
            2,
            "both on the one connection the script accepts"
        );
        assert!(!connected_again);
    }

    #[test]
    fn a_worker_that_says_close_gets_a_fresh_connection_next_time() {
        let (addr, _closed, worker) = keeping_worker(vec![vec![false], vec![true]]);
        let pool = Pool::new(addr);
        let first = hop_on(&pool, "GET", "/healthz", b"").unwrap();
        assert!(!first.keep_alive);
        assert_eq!(pool.idle_count(), 0, "an advertised close is not pooled");
        let second = hop_on(&pool, "GET", "/healthz", b"").unwrap();
        assert!(!second.reused_connection);
        assert_eq!(pool.idle_count(), 1);
        assert_eq!(worker.join().unwrap().0.len(), 2);
    }

    /// The worker closed the pooled socket while it sat idle (idle timeout,
    /// restart): the hop is replayed on a fresh connection inside the same
    /// call, and the caller sees one `Ok`.
    #[test]
    fn a_closed_idle_socket_is_replayed_once_and_the_caller_sees_one_ok() {
        let (addr, closed, worker) = keeping_worker(vec![vec![true], vec![true]]);
        let pool = Pool::new(addr);
        hop_on(&pool, "POST", "/ingest", b"{}").unwrap();
        assert_eq!(pool.idle_count(), 1);
        closed.recv().unwrap();
        let second = hop_on(&pool, "POST", "/ingest", b"{}").unwrap();
        assert_eq!(second.status, 200);
        assert!(!second.reused_connection, "answered on the replay's socket");
        assert_eq!(pool.idle_count(), 1);
        let (seen, _) = worker.join().unwrap();
        assert_eq!(seen.len(), 2, "the dead socket delivered nothing");
    }

    /// A worker that goes quiet on a *reused* socket is the deadline
    /// speaking: one `Timeout` within the budget, no replay, nothing pooled.
    #[test]
    fn a_quiet_worker_on_a_reused_socket_times_out_and_is_not_replayed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let pool = Pool::new(listener.local_addr().unwrap().to_string());
        let (gave_up, caller_gave_up) = mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap();
            write_response(
                &mut stream,
                &Response::json(200, "{}".into()),
                req.keep_alive,
            )
            .unwrap();
            read_request(&mut stream).unwrap(); // read, never answered
            caller_gave_up.recv().unwrap();
            listener.set_nonblocking(true).unwrap();
            listener.accept().is_ok()
        });
        hop_on(&pool, "POST", "/predict", b"{}").unwrap();
        assert_eq!(pool.idle_count(), 1);
        let started = Instant::now();
        let err = pool
            .request(
                "POST",
                "/predict",
                &[],
                b"{}",
                started + Duration::from_millis(80),
                Duration::from_millis(500),
            )
            .unwrap_err();
        assert_eq!(err.reason, FailReason::Timeout, "{}", err.detail);
        assert!(started.elapsed() < Duration::from_secs(2));
        assert_eq!(pool.idle_count(), 0, "a timed-out socket is not pooled");
        gave_up.send(()).unwrap();
        assert!(!worker.join().unwrap(), "the timed-out hop was sent again");
    }

    // ------------------------------------------------------ the two halves

    fn write_on(pool: &Pool, body: &[u8], deadline: Instant) -> Hop {
        pool.write(
            "POST",
            "/predict",
            &[],
            body,
            deadline,
            Duration::from_millis(500),
        )
        .expect("write half")
    }

    /// Two hops written before either is read, their replies arriving in
    /// the reverse order: reading the slow one first loses neither, and the
    /// fast one's reply — already in its socket — is read even once the
    /// deadline has passed (the read half's 1 ms floor).
    #[test]
    fn replies_arriving_in_reverse_order_are_both_read() {
        /// Answers one request with `{"worker": name}`, running `hold`
        /// before the answer and `then` after it.
        fn one_reply(
            name: &'static str,
            hold: impl FnOnce() + Send + 'static,
            then: impl FnOnce() + Send + 'static,
        ) -> (Pool, std::thread::JoinHandle<Request>) {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let pool = Pool::new(listener.local_addr().unwrap().to_string());
            let worker = std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                let req = read_request(&mut stream).unwrap();
                hold();
                let reply = Response::json(200, format!("{{\"worker\":\"{name}\"}}"));
                write_response(&mut stream, &reply, req.keep_alive).unwrap();
                then();
                req
            });
            (pool, worker)
        }
        let (fast_answered, after_fast) = mpsc::channel::<()>();
        let (slow, slow_worker) = one_reply("slow", move || after_fast.recv().unwrap(), || {});
        let (fast, fast_worker) = one_reply("fast", || {}, move || fast_answered.send(()).unwrap());
        let deadline = Instant::now() + Duration::from_secs(5);
        let slow_hop = write_on(&slow, b"{\"to\":0}", deadline);
        let fast_hop = write_on(&fast, b"{\"to\":1}", deadline);
        let slow_reply = slow.read(slow_hop, deadline).unwrap();
        let fast_reply = fast.read(fast_hop, Instant::now()).unwrap();
        assert_eq!(slow_reply.text(), "{\"worker\":\"slow\"}");
        assert_eq!(fast_reply.text(), "{\"worker\":\"fast\"}");
        assert_eq!(slow_worker.join().unwrap().body, b"{\"to\":0}");
        assert_eq!(fast_worker.join().unwrap().body, b"{\"to\":1}");
        assert_eq!((slow.idle_count(), fast.idle_count()), (1, 1));
    }

    /// Pooled sockets their workers closed while idle (the workers' read
    /// timeout, after a quiet spell) are found when they leave the pool,
    /// before anything is written on them: two hops written back to back
    /// both reach their workers before either reply is read, instead of the
    /// second replay waiting behind the first one's read.
    #[test]
    fn closed_pooled_sockets_are_found_at_write_time_and_both_hops_go_out() {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let (addr, closed, worker) = keeping_worker(vec![vec![true], vec![true]]);
                let pool = Pool::new(addr);
                hop_on(&pool, "POST", "/predict", b"{}").unwrap();
                closed.recv().unwrap();
                (pool, closed, worker)
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(2);
        let hops: Vec<Hop> = workers
            .iter()
            .map(|(pool, ..)| {
                let hop = write_on(pool, b"{}", deadline);
                assert_eq!(pool.idle_count(), 0, "the dead socket was dropped");
                hop
            })
            .collect();
        // `closed` fires again once a worker has answered its second request
        // and hung up: both have, and no reply has been read yet.
        for (_, closed, _) in &workers {
            closed.recv_timeout(Duration::from_secs(2)).unwrap();
        }
        for ((pool, _, worker), hop) in workers.into_iter().zip(hops) {
            let reply = pool.read(hop, deadline).unwrap();
            assert_eq!(reply.text(), "{\"n\":1}");
            assert!(!reply.reused_connection, "written on a fresh connection");
            let (seen, connected_again) = worker.join().unwrap();
            assert_eq!(seen.len(), 2, "the dead socket carried nothing");
            assert!(!connected_again);
        }
    }

    /// A close that lands after the write — the worker read the request on
    /// the reused socket, then hung up without an answer — is left to the
    /// read half, which replays the request once on a fresh connection. The
    /// caller sees one `Ok`, so the router counts no retry and moves no
    /// health state.
    #[test]
    fn a_close_after_the_write_is_replayed_once_by_the_read_half() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let pool = Pool::new(listener.local_addr().unwrap().to_string());
        let worker = std::thread::spawn(move || {
            let answer = |stream: &mut TcpStream, n: usize| {
                let req = read_request(stream).unwrap();
                let resp = Response::json(200, format!("{{\"n\":{n}}}"));
                write_response(stream, &resp, req.keep_alive).unwrap();
            };
            let (mut stream, _) = listener.accept().unwrap();
            answer(&mut stream, 0);
            read_request(&mut stream).unwrap(); // read, then hung up on
            drop(stream);
            let (mut stream, _) = listener.accept().unwrap();
            answer(&mut stream, 1);
            listener.set_nonblocking(true).unwrap();
            listener.accept().is_ok()
        });
        hop_on(&pool, "POST", "/ingest", b"{}").unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        let hop = write_on(&pool, b"{}", deadline);
        let reply = pool.read(hop, deadline).unwrap();
        assert_eq!(reply.text(), "{\"n\":1}");
        assert!(!reply.reused_connection, "answered on the replay's socket");
        assert_eq!(pool.idle_count(), 1);
        assert!(!worker.join().unwrap(), "replayed once, not twice");
    }

    /// The read half's timeout is the deadline speaking: no replay, and the
    /// socket — which may yet carry the late reply — never goes back.
    #[test]
    fn a_read_half_timeout_is_not_replayed_and_its_socket_is_dropped() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let pool = Pool::new(listener.local_addr().unwrap().to_string());
        let (gave_up, caller_gave_up) = mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap();
            write_response(
                &mut stream,
                &Response::json(200, "{}".into()),
                req.keep_alive,
            )
            .unwrap();
            read_request(&mut stream).unwrap(); // read, never answered
            caller_gave_up.recv().unwrap();
            listener.set_nonblocking(true).unwrap();
            listener.accept().is_ok()
        });
        hop_on(&pool, "POST", "/predict", b"{}").unwrap();
        let hop = write_on(&pool, b"{}", Instant::now() + Duration::from_secs(2));
        let started = Instant::now();
        let err = pool
            .read(hop, started + Duration::from_millis(80))
            .unwrap_err();
        assert_eq!(err.reason, FailReason::Timeout, "{}", err.detail);
        assert!(started.elapsed() < Duration::from_secs(1));
        assert_eq!(pool.idle_count(), 0, "a timed-out socket is not pooled");
        gave_up.send(()).unwrap();
        assert!(!worker.join().unwrap(), "the timed-out hop was sent again");
    }

    #[test]
    fn the_pool_keeps_at_most_max_idle_sockets() {
        // Every hop in flight at once, each on a connection of its own; the
        // worker answers only once all of them have asked.
        const HOPS: usize = MAX_IDLE + 3;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let pool = Pool::new(listener.local_addr().unwrap().to_string());
        let worker = std::thread::spawn(move || {
            let mut streams: Vec<TcpStream> = (0..HOPS)
                .map(|_| {
                    let (mut stream, _) = listener.accept().unwrap();
                    assert!(read_request(&mut stream).unwrap().keep_alive);
                    stream
                })
                .collect();
            for stream in &mut streams {
                write_response(stream, &Response::json(200, "{}".into()), true).unwrap();
            }
            streams
        });
        std::thread::scope(|scope| {
            for _ in 0..HOPS {
                scope.spawn(|| hop_on(&pool, "POST", "/predict", b"{}").unwrap());
            }
        });
        assert_eq!(pool.idle_count(), MAX_IDLE);
        drop(worker.join().unwrap());
    }

    #[test]
    fn statuses_below_500_are_answers_and_5xx_is_retryable_http() {
        let (addr, worker) = scripted_worker(served(&Response::json(404, "{}".into())));
        assert_eq!(hop(&addr, "GET", "/nope", b"").unwrap().status, 404);
        worker.join().unwrap();
        // A 5xx never returns its socket, whatever the worker said of it.
        let mut kept = Vec::new();
        write_response(&mut kept, &Response::json(503, "{}".into()), true).unwrap();
        let (addr, worker) = scripted_worker(kept);
        let pool = Pool::new(addr);
        let err = hop_on(&pool, "GET", "/healthz", b"").unwrap_err();
        worker.join().unwrap();
        assert_eq!(err.reason, FailReason::Http);
        assert!(err.detail.contains("503"), "{}", err.detail);
        assert_eq!(pool.idle_count(), 0);
    }

    /// A worker reply the codec cannot frame is a typed `Io` failure (retried
    /// or degraded like any other), never "read to EOF and hope", and its
    /// socket is not pooled. The bytes are hand-written because each reply
    /// is malformed on purpose; before the router shared the server's
    /// reader, every one but the truncated body came back `Ok`.
    #[test]
    fn unframeable_replies_fail_closed_as_io() {
        let long_head = format!(
            "HTTP/1.1 200 OK\r\nX-Pad: {}\r\nContent-Length: 2\r\n\r\n{{}}",
            "a".repeat(MAX_HEAD_BYTES)
        );
        let cases: [(&str, &[u8]); 6] = [
            (
                "malformed Content-Length",
                b"HTTP/1.1 200 OK\r\nContent-Length: 2x\r\nConnection: close\r\n\r\n{}",
            ),
            (
                "duplicated Content-Length",
                b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
            ),
            (
                "non-UTF-8 head",
                b"HTTP/1.1 200 OK\r\nX-Bad: \xff\r\nContent-Length: 2\r\n\r\n{}",
            ),
            ("head over the cap", long_head.as_bytes()),
            (
                "body shorter than declared",
                b"HTTP/1.1 200 OK\r\nContent-Length: 20\r\n\r\n{}",
            ),
            (
                "no length on a connection the worker keeps open",
                b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\n\r\n{}",
            ),
        ];
        for (name, reply) in cases {
            let (addr, worker) = scripted_worker(reply.to_vec());
            let pool = Pool::new(addr);
            let err = hop_on(&pool, "GET", "/healthz", b"").unwrap_err();
            worker.join().unwrap();
            assert_eq!(err.reason, FailReason::Io, "{name}: {}", err.detail);
            assert_eq!(pool.idle_count(), 0, "{name}");
        }
        // The legal length-less form — the worker says it is closing, and
        // does — still parses (by hand too: `write_response` always declares
        // a length).
        let (addr, worker) =
            scripted_worker(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n{}".to_vec());
        assert_eq!(hop(&addr, "GET", "/healthz", b"").unwrap().body, b"{}");
        worker.join().unwrap();
    }
}
