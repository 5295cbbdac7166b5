//! The product's one server-side connection loop: bind, accept, one thread
//! per connection under a cap, the keep-alive lifecycle, and graceful
//! drain. `logcl serve` and `logcl router` both run on it and differ only in
//! the [`App`] callback they hand over; lint L012 keeps it the only one (no
//! other non-test code may bind a `TcpListener`). DESIGN.md, "Persistent
//! connections", has the argument.
//!
//! `accept()` blocks, so a connection is picked up the moment the kernel
//! completes its handshake, and each gets its own thread: none can hold up
//! another, so none is ever asked to yield, and requests queue in exactly
//! one place — the application's own (serve: the wait for a compute
//! permit), where its deadlines and shed machinery see them. A connection serves requests until the peer
//! asks to close, a message cannot be framed (answered once, then closed),
//! the peer leaves or idles out between requests (closed in silence —
//! keep-alive ending is not an error), or shutdown begins.

use std::io::ErrorKind;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use serde_json::json;

use crate::error::StartError;
use crate::http::{read_request_limited, write_response, Client, HttpError, Request, Response};

/// How long an idle kept-alive connection blocks in one `peek` before it
/// looks at the shutdown latch again. An arriving request ends the `peek` at
/// once, so this delays no request — only drain, by at most this much.
const IDLE_POLL: Duration = Duration::from_millis(10);

/// Pause after `accept()` itself fails (out of descriptors, say), so a
/// condition that persists cannot spin the accept thread.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(5);

/// A latch other threads can wait on; raising it begins shutdown.
#[derive(Default)]
pub struct ShutdownState {
    raised: AtomicBool,
    lock: Mutex<bool>,
    cv: Condvar,
}

impl ShutdownState {
    /// A latch that has not been raised.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag and wakes every waiter. Idempotent. A poisoned lock
    /// (a handler panicked mid-notify) cannot stop shutdown: the boolean
    /// state is valid regardless, so the poison is shrugged off.
    pub fn trigger(&self) {
        self.raised.store(true, Ordering::SeqCst);
        *self.lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cv.notify_all();
    }

    /// Whether shutdown has begun.
    pub fn is_triggered(&self) -> bool {
        self.raised.load(Ordering::SeqCst)
    }

    /// Blocks until [`ShutdownState::trigger`] is called. Poison-tolerant
    /// for the same reason as [`ShutdownState::trigger`].
    pub fn wait(&self) {
        let mut raised = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        while !*raised {
            raised = self.cv.wait(raised).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Waits up to `timeout` and returns whether the latch is raised — a
    /// periodic worker (the router's prober) sleeps on this so shutdown
    /// wakes it at once.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let raised = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        if *raised {
            return true;
        }
        let (raised, _) = self
            .cv
            .wait_timeout(raised, timeout)
            .unwrap_or_else(|e| e.into_inner());
        *raised
    }
}

/// `Retry-After` seconds stamped on every `503`/`504` and on a router's
/// partial answer.
pub const RETRY_AFTER_SECS: u64 = 1;

/// What a process tells the loop about its inbound side.
pub struct ListenerConfig {
    /// Thread-name prefix (`<name>-accept`, `<name>-conn`).
    pub name: &'static str,
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Concurrent connections served; one over is answered `503`.
    pub max_connections: usize,
    /// Socket read timeout: how long a peer may stall inside a message
    /// (→ `408`) and how long a kept-alive connection may sit idle.
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Per-request body cap in bytes (→ `413` above it, body unread).
    pub max_body_bytes: usize,
}

/// What the loop hands the application callback. The two refusals come
/// with the loop's answer already made: the application only counts them
/// and stamps its headers, as on any other response.
pub enum Inbound<'a> {
    /// A request read whole off a connection.
    Request(&'a Request),
    /// No request could be read — stalled (`408`), oversized (`413`, `431`)
    /// or malformed (`400`, `405`). The connection closes after this answer.
    Unreadable(&'a HttpError, Response),
    /// A connection over `max_connections` (or one no thread could be
    /// spawned for), answered `503` and closed.
    AtCapacity(Response),
}

/// The application: turns what arrived, and when, into the response to
/// write. Runs on the connection's own thread (the accept thread for
/// [`Inbound::AtCapacity`]) and may block for as long as the request takes.
pub type App = Box<dyn Fn(Inbound<'_>, Instant) -> Response + Send + Sync>;

/// What the accept thread owns and the connection threads borrow.
struct Shared {
    cfg: ListenerConfig,
    shutdown: Arc<ShutdownState>,
    app: App,
    /// Connections open, against `cfg.max_connections`.
    open: AtomicUsize,
}

/// One connection's claim on the cap, released when its thread ends — by
/// return or by panic.
struct Slot<'a>(&'a AtomicUsize);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A bound, accepting listener. Dropping it drains it.
pub struct Listener {
    addr: SocketAddr,
    shutdown: Arc<ShutdownState>,
    accept: Option<JoinHandle<()>>,
}

impl Listener {
    /// Binds `cfg.addr` and starts accepting.
    pub fn start(
        cfg: ListenerConfig,
        shutdown: Arc<ShutdownState>,
        app: App,
    ) -> Result<Listener, StartError> {
        let listener = TcpListener::bind(&cfg.addr).map_err(|e| StartError::Io {
            context: format!("bind {}", cfg.addr),
            source: e,
        })?;
        let addr = listener.local_addr().map_err(|e| StartError::Io {
            context: "local_addr".into(),
            source: e,
        })?;
        let accept = thread::Builder::new().name(format!("{}-accept", cfg.name));
        let shared = Shared {
            cfg,
            shutdown: Arc::clone(&shutdown),
            app,
            open: AtomicUsize::new(0),
        };
        let accept = accept
            .spawn(move || accept_connections(listener, &shared))
            .map_err(|e| StartError::Io {
                context: "spawn accept loop".into(),
                source: e,
            })?;
        Ok(Listener {
            addr,
            shutdown,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Raises the latch, stops accepting, and returns once every connection
    /// has ended: a response being computed is written (`Connection:
    /// close`), an idle kept-alive connection notices within `IDLE_POLL`.
    /// By then the port can be rebound and the callback has been dropped.
    pub fn drain(&mut self) {
        self.shutdown.trigger();
        let Some(accept) = self.accept.take() else {
            return;
        };
        // `accept()` has no timeout; a connection of our own makes it return
        // and look at the latch. A loopback connect to a listening socket is
        // completed by the kernel without the accept thread's help, so it
        // fails only when (a) it is refused — the socket is closed, so the
        // accept thread has left its loop already; (b) it times out on a
        // full accept queue — then `accept()` has connections to return and
        // reads the latch after each; or (c) this process has no descriptor
        // left for the probe's socket — the same shortage makes `accept()`
        // fail on the next arrival, and its error path reads the latch too.
        // In no case does the loop outlive the next connection attempt.
        let wake = match self.addr {
            SocketAddr::V4(a) if a.ip().is_unspecified() => (Ipv4Addr::LOCALHOST, a.port()).into(),
            SocketAddr::V6(a) if a.ip().is_unspecified() => (Ipv6Addr::LOCALHOST, a.port()).into(),
            addr => addr,
        };
        let _ = Client::new(wake, Duration::from_secs(1)).and_then(|mut probe| probe.connect());
        let _ = accept.join();
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.drain();
    }
}

impl Shared {
    /// The application's response to `inbound`, plus the one `Retry-After`
    /// stamp: every shed or timed-out answer says when to come back.
    fn respond(&self, inbound: Inbound<'_>, started: Instant) -> Response {
        let resp = (self.app)(inbound, started);
        if matches!(resp.status, 503 | 504)
            && !resp.headers.iter().any(|(name, _)| *name == "Retry-After")
        {
            return resp.with_header("Retry-After", RETRY_AFTER_SECS.to_string());
        }
        resp
    }

    /// Answers a connection the loop will not serve: `503`, then close. Runs
    /// on the accept thread, so the write is bounded by the write timeout.
    fn refuse(&self, mut stream: &TcpStream) {
        // The peer's request goes unread, so closing resets the connection
        // and discards whatever has not left yet: the answer is one write
        // and, with Nagle off, on the wire before the reset can follow it.
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(self.cfg.write_timeout));
        let resp = Response::json(
            503,
            json!({ "error": "at connection capacity, retry later" }).to_string(),
        );
        let resp = self.respond(Inbound::AtCapacity(resp), Instant::now());
        let _ = write_response(&mut stream, &resp, false);
    }
}

/// The accept thread. Connection threads are scoped to it: they borrow
/// `shared`, and leaving the scope waits for the last of them — drain's wait
/// for open connections, with nothing to poll.
fn accept_connections(listener: TcpListener, shared: &Shared) {
    thread::scope(|scope| {
        loop {
            let accepted = listener.accept();
            // Read after every return, success or not. Drain's wake
            // connection, or what arrived beside it, is dropped unanswered.
            if shared.shutdown.is_triggered() {
                break;
            }
            let stream = match accepted {
                Ok((stream, _)) => Arc::new(stream),
                Err(_) => {
                    thread::sleep(ACCEPT_ERROR_BACKOFF);
                    continue;
                }
            };
            // Only this thread adds to `open`, so the check cannot be
            // overtaken. The socket is shared with the connection thread so
            // that, when none can be spawned (the closure is dropped unrun,
            // its slot with it), the peer is still refused, not hung up on.
            let admitted = shared.open.load(Ordering::SeqCst) < shared.cfg.max_connections && {
                shared.open.fetch_add(1, Ordering::SeqCst);
                let (slot, stream) = (Slot(&shared.open), Arc::clone(&stream));
                thread::Builder::new()
                    .name(format!("{}-conn", shared.cfg.name))
                    .spawn_scoped(scope, move || {
                        let _slot = slot;
                        serve_connection(&stream, shared);
                    })
                    .is_ok()
            };
            if !admitted {
                shared.refuse(&stream);
            }
        }
        // Close the port before the scope waits for the open connections:
        // from here a connect is refused, not queued.
        drop(listener);
    });
}

/// Waits until the kept-alive peer's next request starts to arrive (true)
/// or the connection is over (false): closed by the peer, idle past the
/// read timeout, or shutdown. `peek` consumes nothing and returns the moment
/// a byte is there, so the request is then read intact and undelayed.
fn next_request_arrived(stream: &TcpStream, shared: &Shared) -> bool {
    let idle_since = Instant::now();
    let read_timeout = shared.cfg.read_timeout;
    let _ = stream.set_read_timeout(Some(IDLE_POLL.min(read_timeout)));
    let arrived = loop {
        match stream.peek(&mut [0u8; 1]) {
            Ok(0) => break false, // peer closed
            Ok(_) => break true,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.shutdown.is_triggered() || idle_since.elapsed() >= read_timeout {
                    break false;
                }
            }
            Err(_) => break false,
        }
    };
    let _ = stream.set_read_timeout(Some(read_timeout));
    arrived
}

fn serve_connection(mut stream: &TcpStream, shared: &Shared) {
    let cfg = &shared.cfg;
    // Persistent connections are Nagle-sensitive: the short last segment of
    // a response longer than one (`/metrics`) waits for the ACK of those
    // before it, which the peer delays ~40ms. One-shot connections never
    // noticed because close flushes.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    #[cfg(feature = "fault-inject")]
    {
        // Simulated slow/stalled client socket holding a connection thread.
        if let Some(stall) = crate::fault::socket_stall() {
            thread::sleep(stall);
        }
    }
    // Each request's latency clock (and deadline anchor) starts once its
    // head and body have fully arrived, so idle gaps between keep-alive
    // requests never eat budgets.
    let mut served = 0usize;
    loop {
        if served > 0 && !next_request_arrived(stream, shared) {
            return;
        }
        let (resp, keep_alive) = match read_request_limited(&mut stream, cfg.max_body_bytes) {
            Ok(req) => {
                let resp = shared.respond(Inbound::Request(&req), Instant::now());
                (resp, req.keep_alive)
            }
            Err(HttpError::Io(_)) => return, // peer vanished; nothing to answer
            // A kept-alive peer closing (or going quiet) between requests
            // is normal connection lifecycle, not a protocol error.
            Err(HttpError::UnexpectedEof | HttpError::ReadTimeout) if served > 0 => return,
            Err(e) => {
                let resp =
                    Response::json(e.status(), json!({ "error": e.to_string() }).to_string());
                // After a malformed exchange the stream framing is unknown:
                // answer once and close.
                let resp = shared.respond(Inbound::Unreadable(&e, resp), Instant::now());
                (resp, false)
            }
        };
        // Decided at write time: shutdown may have begun while the
        // response was being computed.
        let keep_alive = keep_alive && !shared.shutdown.is_triggered();
        if write_response(&mut stream, &resp, keep_alive).is_err() || !keep_alive {
            return;
        }
        served += 1;
    }
}
