//! The router's side of a router → worker hop: what the shared
//! [`logcl_serve::http::Client`] cannot know. Every call carries an absolute
//! deadline, and connect, read and write timeouts are all derived from the
//! remaining budget so a hop can never outlive its request; every failure is
//! sorted into the retry-accounting taxonomy.
//!
//! Deliberately connection-per-request: the router's failure domain is the
//! *request*, and a fresh connection per attempt means a half-dead kept-
//! alive socket can never poison a later request.

use std::time::{Duration, Instant};

use logcl_serve::deadline::remaining_budget;
use logcl_serve::http::{Client, ClientError, HttpError, Reply};

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

/// Performs one `method path` exchange against `addr` with the given extra
/// headers and body, bounded by `deadline` (and `connect_timeout` for the
/// TCP handshake). Any 2xx–4xx response parses as `Ok` — HTTP-level
/// failures below 500 are answers, not transport faults; 5xx maps to a
/// retryable [`FailReason::Http`].
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
    deadline: Instant,
    connect_timeout: Duration,
) -> Result<Reply, HopError> {
    let budget = remaining_budget(deadline, Instant::now());
    if budget.is_zero() {
        return Err(HopError::timeout("deadline exhausted before connect"));
    }
    // Resolve and connect within min(connect budget, remaining budget);
    // connect_timeout(0) is an invalid argument, not an instant failure.
    let handshake = connect_timeout.min(budget).max(Duration::from_millis(1));
    let fail = |e: ClientError| HopError::from_client(addr, &e);
    let mut client = Client::new(addr, handshake).map_err(fail)?;
    client.connect().map_err(fail)?;
    let budget = remaining_budget(deadline, Instant::now());
    if budget.is_zero() {
        return Err(HopError::timeout("deadline exhausted after connect"));
    }
    client.set_io_timeout(budget);
    let reply = client.send(method, path, headers, body).map_err(fail)?;
    if reply.status >= 500 {
        return Err(HopError {
            reason: FailReason::Http,
            detail: format!("worker answered {}: {}", reply.status, reply.text()),
        });
    }
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

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

    fn served(resp: &Response) -> Vec<u8> {
        let mut wire = Vec::new();
        write_response(&mut wire, resp, false).unwrap();
        wire
    }

    fn hop(addr: &str, method: &str, path: &str, body: &[u8]) -> Result<Reply, HopError> {
        request(
            addr,
            method,
            path,
            &[("X-LogCL-Deadline-Ms", "100")],
            body,
            Instant::now() + Duration::from_secs(2),
            Duration::from_millis(500),
        )
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
        assert!(!sent.keep_alive, "one connection per hop");
    }

    #[test]
    fn statuses_below_500_are_answers_and_5xx_is_retryable_http() {
        let (addr, worker) = scripted_worker(served(&Response::json(404, "{}".into())));
        assert_eq!(hop(&addr, "GET", "/nope", b"").unwrap().status, 404);
        worker.join().unwrap();
        let (addr, worker) = scripted_worker(served(&Response::json(503, "{}".into())));
        let err = hop(&addr, "GET", "/healthz", b"").unwrap_err();
        worker.join().unwrap();
        assert_eq!(err.reason, FailReason::Http);
        assert!(err.detail.contains("503"), "{}", err.detail);
    }

    /// A worker reply the codec cannot frame is a typed `Io` failure (retried
    /// or degraded like any other), never "read to EOF and hope". The bytes
    /// are hand-written because each reply is malformed on purpose; before
    /// the router shared the server's reader, every one but the truncated
    /// body came back `Ok`.
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
            let err = hop(&addr, "GET", "/healthz", b"").unwrap_err();
            worker.join().unwrap();
            assert_eq!(err.reason, FailReason::Io, "{name}: {}", err.detail);
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
