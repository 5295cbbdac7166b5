//! The product's one HTTP/1.1 implementation, written against `std` only
//! (the build environment has no crates.io access, so no hyper/tokio): the
//! codec for both halves of an exchange — [`read_request`] /
//! [`write_response`] on the server side, [`write_request`] /
//! [`read_response`] on the client side, all four over one bounded,
//! fail-closed message reader — and [`Client`], the small blocking client
//! the router's worker hops, the load harness and the test suites share.
//! Persistent connections with HTTP/1.1 keep-alive semantics
//! (`Connection: close` honoured both ways), bounded head and body sizes,
//! `GET`/`POST` only — everything a model inference endpoint needs and
//! nothing more. Lint L012 keeps it the only one: outside this file no
//! non-test code may spell the protocol version or connect a `TcpStream`.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Upper bound on the start line + headers of a message, in bytes.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Upper bound on a request body, in bytes.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Upper bound on a response body read by [`Client`], in bytes. Far above
/// any answer the servers here produce: it exists so a broken peer cannot
/// make a client buffer without limit, not to shape traffic.
pub const MAX_RESPONSE_BYTES: usize = 64 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET` or `POST`.
    pub method: String,
    /// Request target, query string included (routing splits it off).
    pub path: String,
    /// Header `(name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection may serve another request after this one
    /// (HTTP/1.1 default, overridden by a `Connection` header either way).
    pub keep_alive: bool,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_in(&self.headers, name)
    }
}

/// A parsed HTTP response, as [`read_response`] and [`Client::send`] hand
/// it back. Any status is an answer; what a 5xx means is the caller's call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Header `(name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw response body.
    pub body: Vec<u8>,
    /// Whether the peer will keep the connection open after this response.
    pub keep_alive: bool,
    /// Whether [`Client::send`] got this answer over a connection an earlier
    /// exchange had left open (always `false` from [`read_response`]).
    pub reused_connection: bool,
}

impl Reply {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_in(&self.headers, name)
    }

    /// The body as text (invalid UTF-8 replaced, never an error).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

fn header_in<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// Everything that can go wrong while reading a message. On the server
/// side each maps to an HTTP status so handler code stays a one-liner; on
/// the client side each is a failed exchange.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed start line, header, or `Content-Length` (→ 400).
    Malformed(String),
    /// Anything other than `GET`/`POST` (→ 405).
    MethodNotAllowed(String),
    /// Start line + headers exceed [`MAX_HEAD_BYTES`] (→ 431).
    HeadTooLarge,
    /// Declared (or, for a close-delimited response, actual) body exceeds
    /// the caller's limit (→ 413).
    BodyTooLarge,
    /// The peer closed the connection mid-message (→ 400).
    UnexpectedEof,
    /// The peer stalled past the socket timeout (→ 408).
    ReadTimeout,
    /// Transport failure.
    Io(io::Error),
}

impl HttpError {
    /// HTTP status code this parse failure answers with.
    pub fn status(&self) -> u16 {
        match self {
            Self::Malformed(_) | Self::UnexpectedEof => 400,
            Self::MethodNotAllowed(_) => 405,
            Self::ReadTimeout => 408,
            Self::BodyTooLarge => 413,
            Self::HeadTooLarge => 431,
            Self::Io(_) => 500,
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Malformed(m) => write!(f, "malformed message: {m}"),
            Self::MethodNotAllowed(m) => write!(f, "method not allowed: {m}"),
            Self::HeadTooLarge => write!(f, "message head too large"),
            Self::BodyTooLarge => write!(f, "message body too large"),
            Self::UnexpectedEof => write!(f, "connection closed mid-message"),
            Self::ReadTimeout => write!(f, "timed out waiting for the peer"),
            Self::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        // A socket configured with `set_read_timeout` surfaces a stalled
        // peer as WouldBlock (unix) or TimedOut (windows); both mean the
        // peer owes us bytes it never sent.
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => Self::ReadTimeout,
            _ => Self::Io(e),
        }
    }
}

// ------------------------------------------------------------ message reader

/// One message off the wire, its start line already parsed into `S` by the
/// caller's half of the protocol.
struct Message<S> {
    start: S,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
    keep_alive: bool,
}

/// Checks a start line's version token and says whether it is HTTP/1.1
/// (whose connections persist by default; 1.0's do not).
fn http11(version: Option<&str>) -> Result<bool, HttpError> {
    let version = version.ok_or_else(|| HttpError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported version {version}"
        )));
    }
    Ok(version.eq_ignore_ascii_case("HTTP/1.1"))
}

/// Reads exactly one message from `r`, tolerating arbitrarily fragmented
/// reads (a TCP stream may deliver the head one byte at a time) and
/// consuming not one byte past the message's end, so the next message on a
/// persistent connection is still in `r`. Fails closed on everything it
/// cannot frame: a head over [`MAX_HEAD_BYTES`] or not UTF-8, a header line
/// without a colon, a `Content-Length` that does not parse or appears
/// twice, a declared body over `max_body` or cut short by EOF.
///
/// `parse_start` turns the start line into the caller's `S` plus "is this
/// HTTP/1.1", before any body byte is read — a request refused for its
/// method never waits for its body. `close_delimited` is what a missing
/// `Content-Length` means: `false` (requests) an empty body; `true`
/// (responses) a body that runs to EOF, legal only when the peer also said
/// it is closing the connection.
fn read_message<S>(
    r: &mut impl BufRead,
    max_body: usize,
    close_delimited: bool,
    parse_start: impl FnOnce(&str) -> Result<(S, bool), HttpError>,
) -> Result<Message<S>, HttpError> {
    // Accumulate until the blank line that ends the head.
    let mut head: Vec<u8> = Vec::with_capacity(512);
    loop {
        let available = r.fill_buf()?;
        if available.is_empty() {
            return Err(HttpError::UnexpectedEof);
        }
        let (old_len, taken) = (head.len(), available.len());
        head.extend_from_slice(available);
        // The blank line may straddle two fills: rescan from three bytes
        // before the join, never from the start (a trickled head stays O(n)).
        let scan_from = old_len.saturating_sub(3);
        let found = head[scan_from..].windows(4).position(|w| w == b"\r\n\r\n");
        match found {
            Some(pos) => {
                let end = scan_from + pos + 4;
                r.consume(end - old_len);
                head.truncate(end);
                break;
            }
            None => r.consume(taken),
        }
        // Without a blank line yet, the earliest one could still start three
        // bytes before the end of what we hold.
        if head.len() > MAX_HEAD_BYTES + 3 {
            return Err(HttpError::HeadTooLarge);
        }
    }
    let head = &head[..head.len() - 4];
    if head.len() > MAX_HEAD_BYTES {
        return Err(HttpError::HeadTooLarge);
    }
    let head = std::str::from_utf8(head)
        .map_err(|_| HttpError::Malformed("head is not valid UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let (start, http11) = parse_start(lines.next().unwrap_or_default())?;

    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("malformed header line {line:?}")))?;
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            // Two lengths are two framings of one stream: refuse to pick.
            if content_length.is_some() {
                return Err(HttpError::Malformed("duplicate Content-Length".into()));
            }
            content_length = Some(
                value
                    .parse()
                    .map_err(|_| HttpError::Malformed(format!("bad Content-Length {value:?}")))?,
            );
        }
        headers.push((name.to_string(), value.to_string()));
    }
    let keep_alive = match header_in(&headers, "connection") {
        Some(v) if v.eq_ignore_ascii_case("close") => false,
        Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
        _ => http11,
    };

    let mut body = Vec::new();
    match content_length {
        Some(len) if len > max_body => return Err(HttpError::BodyTooLarge),
        Some(len) => {
            r.take(len as u64).read_to_end(&mut body)?;
            if body.len() < len {
                return Err(HttpError::UnexpectedEof);
            }
        }
        None if !close_delimited => {}
        None if keep_alive => {
            return Err(HttpError::Malformed(
                "no Content-Length on a persistent connection".into(),
            ))
        }
        None => {
            r.take((max_body as u64).saturating_add(1))
                .read_to_end(&mut body)?;
            if body.len() > max_body {
                return Err(HttpError::BodyTooLarge);
            }
        }
    }
    Ok(Message {
        start,
        headers,
        body,
        keep_alive,
    })
}

// --------------------------------------------------------------- server half

/// Reads one request from `r`. The body is bounded by the default
/// [`MAX_BODY_BYTES`].
pub fn read_request(r: &mut impl Read) -> Result<Request, HttpError> {
    read_request_limited(r, MAX_BODY_BYTES)
}

/// [`read_request`] with a caller-chosen body limit (→ 413 above it).
pub fn read_request_limited(r: &mut impl Read, max_body: usize) -> Result<Request, HttpError> {
    let mut r = BufReader::new(r);
    let msg = read_message(&mut r, max_body, false, |line| {
        let mut parts = line.split_ascii_whitespace();
        let method = parts
            .next()
            .ok_or_else(|| HttpError::Malformed("missing method".into()))?;
        let path = parts
            .next()
            .ok_or_else(|| HttpError::Malformed("missing request target".into()))?;
        let http11 = http11(parts.next())?;
        if method != "GET" && method != "POST" {
            return Err(HttpError::MethodNotAllowed(method.to_string()));
        }
        Ok(((method.to_string(), path.to_string()), http11))
    })?;
    // Whatever the reader buffered past the message's end is lost with it,
    // so a client that pipelines (or under-declares its body) is refused,
    // not half-served.
    if !r.buffer().is_empty() {
        return Err(HttpError::Malformed(
            "body longer than Content-Length".into(),
        ));
    }
    let (method, path) = msg.start;
    Ok(Request {
        method,
        path,
        headers: msg.headers,
        body: msg.body,
        keep_alive: msg.keep_alive,
    })
}

/// An HTTP response about to be written.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers (`Retry-After`, `X-LogCL-Degradation`, …), written in
    /// order after the fixed ones.
    pub headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// Appends one extra header (builder style).
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "",
    }
}

fn connection_value(keep_alive: bool) -> &'static str {
    if keep_alive {
        "keep-alive"
    } else {
        "close"
    }
}

/// Writes `resp` to `w`, advertising `Connection: keep-alive` or
/// `Connection: close` — the caller decides whether the connection
/// survives this exchange. Like a request, a response goes out in a single
/// write: one segment and one wake-up of the reader on a `TCP_NODELAY`
/// socket, where a write per formatted piece made a `/predict` answer
/// seventeen of each.
pub fn write_response(w: &mut impl Write, resp: &Response, keep_alive: bool) -> io::Result<()> {
    let mut out = Vec::with_capacity(256 + resp.body.len());
    write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        resp.status,
        status_text(resp.status),
        resp.content_type,
        resp.body.len(),
        connection_value(keep_alive)
    )?;
    for (name, value) in &resp.headers {
        write!(out, "{name}: {value}\r\n")?;
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(&resp.body);
    w.write_all(&out)?;
    w.flush()
}

// --------------------------------------------------------------- client half

/// Writes one request to `w`: `headers` in order, then the `Content-Length`
/// and `Connection` lines this codec owns, then `body`. Head and body go
/// out in a single write, so a request is one segment on a `TCP_NODELAY`
/// socket rather than one per header.
pub fn write_request(
    w: &mut impl Write,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    w.write_all(&encode_request(method, path, headers, body, keep_alive))?;
    w.flush()
}

/// The bytes [`write_request`] writes.
fn encode_request(
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(256 + body.len());
    // Writing into a `Vec` cannot fail.
    let _ = write!(out, "{method} {path} HTTP/1.1\r\n");
    for (name, value) in headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    let _ = write!(
        out,
        "Content-Length: {}\r\nConnection: {}\r\n\r\n",
        body.len(),
        connection_value(keep_alive)
    );
    out.extend_from_slice(body);
    out
}

/// Reads one response from `r`, leaving whatever follows it unread. The
/// body is `Content-Length`-delimited or, when the peer announced
/// `Connection: close` (or speaks HTTP/1.0), runs to EOF; either way it is
/// bounded by `max_body`.
pub fn read_response(r: &mut impl BufRead, max_body: usize) -> Result<Reply, HttpError> {
    let msg = read_message(r, max_body, true, |line| {
        let mut parts = line.split_ascii_whitespace();
        let http11 = http11(parts.next())?;
        let status = parts
            .next()
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| HttpError::Malformed(format!("malformed status line {line:?}")))?;
        Ok((status, http11))
    })?;
    Ok(Reply {
        status: msg.start,
        headers: msg.headers,
        body: msg.body,
        keep_alive: msg.keep_alive,
        reused_connection: false,
    })
}

/// Why a [`Client`] exchange failed.
#[derive(Debug)]
pub enum ClientError {
    /// Address resolution or the TCP handshake failed: nothing was sent.
    Connect(io::Error),
    /// The connection was up but the exchange over it failed.
    Exchange(HttpError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Connect(e) => write!(f, "connect: {e}"),
            Self::Exchange(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Connect(e) => Some(e),
            Self::Exchange(e) => Some(e),
        }
    }
}

/// A small blocking HTTP client for one peer. By default every
/// [`Client::send`] opens its own connection and asks the server to close
/// it; [`Client::keep_alive`] makes the connection persistent instead,
/// reopened lazily whenever the server closes it.
pub struct Client {
    host: String,
    addr: SocketAddr,
    connect_timeout: Duration,
    io_timeout: Duration,
    keep_alive: bool,
    conn: Option<BufReader<TcpStream>>,
    /// Whether `conn` has already carried an exchange (and so may have been
    /// closed by the server since).
    conn_reused: bool,
}

impl Client {
    /// A client for `addr` (`host:port`, resolved once, here) whose connect,
    /// read and write timeouts are all `timeout`.
    pub fn new(addr: impl ToString, timeout: Duration) -> Result<Self, ClientError> {
        let host = addr.to_string();
        let addr = host
            .to_socket_addrs()
            .map_err(ClientError::Connect)?
            .next()
            .ok_or_else(|| {
                ClientError::Connect(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("{host} resolved to no addresses"),
                ))
            })?;
        Ok(Self {
            host,
            addr,
            connect_timeout: timeout,
            io_timeout: timeout,
            keep_alive: false,
            conn: None,
            conn_reused: false,
        })
    }

    /// Keeps the connection open across [`Client::send`] calls.
    pub fn keep_alive(mut self) -> Self {
        self.keep_alive = true;
        self
    }

    /// Opens the connection now (a no-op when one is open) — for callers
    /// that account for the handshake apart from the exchange.
    pub fn connect(&mut self) -> Result<(), ClientError> {
        if self.conn.is_none() {
            self.conn = Some(self.open()?);
            self.conn_reused = false;
        }
        Ok(())
    }

    fn open(&self) -> Result<BufReader<TcpStream>, ClientError> {
        let stream = TcpStream::connect_timeout(&self.addr, self.connect_timeout)
            .map_err(ClientError::Connect)?;
        // Requests go out as one write, but responses come back as several:
        // without TCP_NODELAY on both ends the Nagle / delayed-ACK
        // interaction stalls every reused exchange ~40ms.
        let _ = stream.set_nodelay(true);
        Ok(BufReader::new(stream))
    }

    /// Whether the connection an earlier exchange left open is still fit for
    /// the next request, found by a non-blocking peek: it is when reading it
    /// would block. The peer's close, a reset, or bytes nobody asked for all
    /// mean it is not, and it is dropped here, so the next
    /// [`Client::write`] opens a fresh one at once instead of leaving the
    /// replay to [`Client::read`]. `false` when no connection is held.
    pub fn is_open(&mut self) -> bool {
        let Some(conn) = &self.conn else {
            return false;
        };
        let open = conn.buffer().is_empty() && {
            let stream = conn.get_ref();
            let peeked = stream
                .set_nonblocking(true)
                .and_then(|()| stream.peek(&mut [0; 1]));
            // Left non-blocking, its next read would fail at once.
            stream.set_nonblocking(false).is_ok()
                && matches!(peeked, Err(e) if e.kind() == io::ErrorKind::WouldBlock)
        };
        if !open {
            self.conn = None;
        }
        open
    }

    /// Sets the read and write timeout of every later exchange.
    pub fn set_io_timeout(&mut self, timeout: Duration) {
        self.io_timeout = timeout;
    }

    /// One `method path` exchange with the given extra headers and body
    /// (`Host`, `Content-Length`, `Connection` and — with a body — a JSON
    /// `Content-Type` are added here). Any status is `Ok`. The two halves,
    /// [`Client::write`] then [`Client::read`].
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<Reply, ClientError> {
        let sent = self.write(method, path, headers, body)?;
        self.read(sent)
    }

    /// The write half of [`Client::send`]: puts the request on the wire and
    /// returns without waiting for the peer, so a caller can write to
    /// several peers before it reads from any. A write that fails on a
    /// socket an earlier exchange left open is not an error yet — the peer
    /// may have closed it — and is left to [`Client::read`] to replay.
    pub fn write(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<Sent, ClientError> {
        let mut all = Vec::with_capacity(headers.len() + 2);
        all.push(("Host", self.host.as_str()));
        if !body.is_empty() {
            all.push(("Content-Type", "application/json"));
        }
        all.extend_from_slice(headers);
        let wire = encode_request(method, path, &all, body, self.keep_alive);
        // Taken, and put back only after a clean keep-alive exchange: any
        // error, or an advertised close, and the socket is done.
        let (conn, reused) = match self.conn.take() {
            Some(conn) => (conn, self.conn_reused),
            None => (self.open()?, false),
        };
        match self.transmit(conn, &wire) {
            Err(e) if !reused => Err(ClientError::Exchange(e)),
            conn => Ok(Sent { conn, wire, reused }),
        }
    }

    /// The read half of [`Client::send`]: reads the reply to `sent` within
    /// the io timeout set now.
    ///
    /// A request that finds a connection left open by an earlier exchange
    /// closed is replayed once, here, on a fresh connection: the server may
    /// close an idle socket between requests, which is normal keep-alive
    /// lifecycle, not an error worth reporting. A read timeout is never
    /// replayed.
    pub fn read(&mut self, sent: Sent) -> Result<Reply, ClientError> {
        let Sent { conn, wire, reused } = sent;
        match conn.and_then(|conn| self.receive(conn)) {
            // Only a socket the peer has closed: a timeout is the caller's
            // deadline speaking, and a reply that does not frame is a reply.
            Err(HttpError::UnexpectedEof | HttpError::Io(_)) if reused => {
                let conn = self.open()?;
                self.transmit(conn, &wire)
                    .and_then(|conn| self.receive(conn))
                    .map_err(ClientError::Exchange)
            }
            Ok(reply) => Ok(Reply {
                reused_connection: reused,
                ..reply
            }),
            Err(e) => Err(ClientError::Exchange(e)),
        }
    }

    fn transmit(
        &self,
        mut conn: BufReader<TcpStream>,
        wire: &[u8],
    ) -> Result<BufReader<TcpStream>, HttpError> {
        let stream = conn.get_mut();
        stream.set_write_timeout(Some(self.io_timeout))?;
        stream.write_all(wire)?;
        Ok(conn)
    }

    fn receive(&mut self, mut conn: BufReader<TcpStream>) -> Result<Reply, HttpError> {
        conn.get_ref().set_read_timeout(Some(self.io_timeout))?;
        let reply = read_response(&mut conn, MAX_RESPONSE_BYTES)?;
        if self.keep_alive && reply.keep_alive {
            self.conn = Some(conn);
            self.conn_reused = true;
        }
        Ok(reply)
    }
}

/// A request [`Client::write`] put on the wire whose reply [`Client::read`]
/// has not read yet.
pub struct Sent {
    /// The connection it went out on, or why writing on a reused one failed.
    conn: Result<BufReader<TcpStream>, HttpError>,
    /// The request as written, for the one replay on a dead socket.
    wire: Vec<u8>,
    /// Whether the connection had carried an earlier exchange.
    reused: bool,
}

impl Sent {
    /// Whether the peer has begun to answer — or hung up — within `timeout`
    /// (floored at 1 ms). Nothing is taken out of the reply: [`Client::read`]
    /// still parses all of it.
    pub fn answered_within(&mut self, timeout: Duration) -> bool {
        let Ok(conn) = &mut self.conn else {
            return true;
        };
        if !conn.buffer().is_empty() {
            return true;
        }
        let waited = conn
            .get_ref()
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))
            .and_then(|()| conn.fill_buf().map(|_| ()));
        !matches!(waited, Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::net::TcpListener;
    use std::time::Instant;

    /// A reader that hands out `step` bytes per `read` call (1 = the worst
    /// possible TCP fragmentation) and, once drained, either reports EOF or
    /// stalls the way a socket whose read timeout fired does.
    struct Feed {
        data: Vec<u8>,
        pos: usize,
        step: usize,
        stall: bool,
    }

    impl Read for Feed {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.data.len() - self.pos);
            if n == 0 && self.stall {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "stalled"));
            }
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    // ------------------------------------------------- wire conformance table

    /// The two parsers under test and a well-formed start line for each
    /// (equally long, so one row's bytes size both heads alike).
    const HALVES: [(&str, &str); 2] = [
        ("read_request", "POST / HTTP/1.1"),
        ("read_response", "HTTP/1.1 200 OK"),
    ];
    /// Body limit the table runs under.
    const LIMIT: usize = 16;

    fn parse(half: usize, r: &mut impl BufRead) -> Result<Vec<u8>, HttpError> {
        match half {
            0 => read_request_limited(r, LIMIT).map(|m| m.body),
            _ => read_response(r, LIMIT).map(|m| m.body),
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Outcome {
        Body(&'static str),
        Malformed,
        HeadTooLarge,
        BodyTooLarge,
        Eof,
        Timeout,
    }
    use Outcome::*;

    impl Outcome {
        fn matches(self, got: &Result<Vec<u8>, HttpError>) -> bool {
            match (self, got) {
                (Body(want), Ok(body)) => body == want.as_bytes(),
                (Malformed, Err(HttpError::Malformed(_)))
                | (HeadTooLarge, Err(HttpError::HeadTooLarge))
                | (BodyTooLarge, Err(HttpError::BodyTooLarge))
                | (Eof, Err(HttpError::UnexpectedEof))
                | (Timeout, Err(HttpError::ReadTimeout)) => true,
                _ => false,
            }
        }

        /// The status a server answers this outcome with.
        fn status(self) -> u16 {
            match self {
                Body(_) => 200,
                Malformed | Eof => 400,
                Timeout => 408,
                BodyTooLarge => 413,
                HeadTooLarge => 431,
            }
        }
    }

    /// How a row's bytes arrive. `Any` and `ThenStall` run the row both
    /// whole and one byte at a time and demand the same outcome — framing
    /// must not depend on fragmentation; after the last byte the peer closes,
    /// or under `ThenStall` goes quiet.
    #[derive(Clone, Copy, PartialEq)]
    enum How {
        Any,
        Whole,
        Trickled,
        ThenStall,
    }
    use How::*;

    /// What follows the start line when the head must be exactly `head_len`
    /// bytes (blank line not counted): one long header pads it out.
    fn padded_head(head_len: usize) -> Vec<u8> {
        let fixed = "\r\nContent-Length: 0\r\nX-Pad: ";
        let pad = head_len - HALVES[0].1.len() - fixed.len();
        format!("{fixed}{}\r\n\r\n", "a".repeat(pad)).into_bytes()
    }

    /// `(what, bytes after the start line, delivery, [request, response])`.
    fn table() -> Vec<(&'static str, Vec<u8>, How, [Outcome; 2])> {
        let row = |what, rest: &[u8], how, expect| (what, rest.to_vec(), how, expect);
        vec![
            row(
                "declared body, extra headers",
                b"\r\nX-A: b\r\nContent-Length: 5\r\n\r\nhello",
                Any,
                [Body("hello"); 2],
            ),
            row(
                "head exactly at MAX_HEAD_BYTES",
                &padded_head(MAX_HEAD_BYTES),
                Any,
                [Body(""); 2],
            ),
            row(
                "head one past MAX_HEAD_BYTES",
                &padded_head(MAX_HEAD_BYTES + 1),
                Any,
                [HeadTooLarge; 2],
            ),
            // 3 bytes of slack for a blank line straddling the cap, then one
            // more: refused without waiting for the rest.
            row(
                "no blank line within the cap",
                &[b'a'; MAX_HEAD_BYTES + 4],
                ThenStall,
                [HeadTooLarge; 2],
            ),
            // A request without one has no body; a response on a persistent
            // connection without one cannot be framed.
            row(
                "missing Content-Length",
                b"\r\nX-A: b\r\n\r\n",
                Any,
                [Body(""), Malformed],
            ),
            row(
                "bad Content-Length",
                b"\r\nContent-Length: abc\r\n\r\n",
                Any,
                [Malformed; 2],
            ),
            row(
                "negative Content-Length",
                b"\r\nContent-Length: -1\r\n\r\n",
                Any,
                [Malformed; 2],
            ),
            row(
                "duplicate Content-Length",
                b"\r\nContent-Length: 5\r\ncontent-length: 5\r\n\r\nhello",
                Any,
                [Malformed; 2],
            ),
            row(
                "Content-Length at the body limit",
                b"\r\nContent-Length: 16\r\n\r\n0123456789abcdef",
                Any,
                [Body("0123456789abcdef"); 2],
            ),
            row(
                "Content-Length one past the body limit",
                b"\r\nContent-Length: 17\r\n\r\n0123456789abcdefg",
                Any,
                [BodyTooLarge; 2],
            ),
            // What arrived glued to a request past its declared end is
            // refused (no pipelining); a response reader just stops there…
            row(
                "body longer than declared, glued",
                b"\r\nContent-Length: 2\r\n\r\nhello",
                Whole,
                [Malformed, Body("he")],
            ),
            // …and bytes that had not arrived yet are never read at all.
            row(
                "body longer than declared, trickled",
                b"\r\nContent-Length: 2\r\n\r\nhello",
                Trickled,
                [Body("he"); 2],
            ),
            row(
                "body shorter than declared",
                b"\r\nContent-Length: 5\r\n\r\nhe",
                Any,
                [Eof; 2],
            ),
            row("EOF inside the head", b"\r\nContent-Le", Any, [Eof; 2]),
            // Only a response may be EOF-delimited; to a request reader the
            // same bytes are an undeclared body (when it sees them at all).
            row(
                "EOF-delimited body",
                b"\r\nConnection: close\r\n\r\nhello",
                Whole,
                [Malformed, Body("hello")],
            ),
            row(
                "EOF-delimited body, trickled",
                b"\r\nConnection: close\r\n\r\nhello",
                Trickled,
                [Body(""), Body("hello")],
            ),
            row(
                "EOF-delimited body past the body limit",
                b"\r\nConnection: close\r\n\r\n0123456789abcdefg",
                Whole,
                [Malformed, BodyTooLarge],
            ),
            row(
                "non-UTF-8 head",
                b"\r\nX-Bad: \xff\r\nContent-Length: 0\r\n\r\n",
                Any,
                [Malformed; 2],
            ),
            row(
                "header line without a colon",
                b"\r\nContent-Length 0\r\n\r\n",
                Any,
                [Malformed; 2],
            ),
            row(
                "peer stalls inside the head",
                b"\r\nContent-Le",
                ThenStall,
                [Timeout; 2],
            ),
            row(
                "peer stalls inside the body",
                b"\r\nContent-Length: 5\r\n\r\nhe",
                ThenStall,
                [Timeout; 2],
            ),
        ]
    }

    #[test]
    fn wire_conformance_table() {
        for (what, rest, how, expect) in table() {
            for (half, (parser, start)) in HALVES.iter().enumerate() {
                for (step, skip) in [(usize::MAX, Trickled), (1, Whole)] {
                    if how == skip {
                        continue;
                    }
                    let mut r = BufReader::new(Feed {
                        data: [start.as_bytes(), &rest].concat(),
                        pos: 0,
                        step,
                        stall: how == ThenStall,
                    });
                    let (want, got) = (expect[half], parse(half, &mut r));
                    assert!(
                        want.matches(&got),
                        "{parser}, {what:?} (step {step}): want {want:?}, got {got:?}"
                    );
                    if let Err(e) = got {
                        assert_eq!(e.status(), want.status(), "{parser}, {what:?}");
                    }
                }
            }
        }
    }

    /// Two keep-alive messages back to back on one stream: the response
    /// reader consumes exactly the first, so the second is still there; the
    /// request reader, which owns no buffer between calls, refuses the pair
    /// rather than lose the second.
    #[test]
    fn back_to_back_messages_are_not_over_read() {
        let two = |start: &str| {
            format!(
                "{start}\r\nContent-Length: 3\r\n\r\none{start}\r\nContent-Length: 3\r\nConnection: close\r\n\r\ntwo"
            )
            .into_bytes()
        };
        for step in [usize::MAX, 1, 7] {
            let mut r = BufReader::new(Feed {
                data: two(HALVES[1].1),
                pos: 0,
                step,
                stall: false,
            });
            let first = read_response(&mut r, LIMIT).unwrap();
            assert_eq!(
                (first.body.as_slice(), first.keep_alive),
                (&b"one"[..], true)
            );
            let second = read_response(&mut r, LIMIT).unwrap();
            assert_eq!(
                (second.body.as_slice(), second.keep_alive),
                (&b"two"[..], false)
            );
            assert!(matches!(
                read_response(&mut r, LIMIT),
                Err(HttpError::UnexpectedEof)
            ));
        }
        let err = read_request(&mut Cursor::new(two(HALVES[0].1))).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err}");
    }

    // ------------------------------------------------ what the table leaves

    #[test]
    fn rejects_bad_start_lines() {
        let request = |raw: &[u8]| read_request(&mut Cursor::new(raw.to_vec())).unwrap_err();
        let err = request(b"BREW /pot HTTP/1.1\r\n\r\n");
        assert!(matches!(err, HttpError::MethodNotAllowed(ref m) if m == "BREW"));
        assert_eq!(err.status(), 405);
        // Refused on its start line: the declared body is never waited for.
        let err = request(b"BREW /pot HTTP/1.1\r\nContent-Length: 5\r\n\r\n");
        assert!(matches!(err, HttpError::MethodNotAllowed(_)));
        assert_eq!(request(b"GET /pot SMTP/1.0\r\n\r\n").status(), 400);
        assert_eq!(request(b"GET\r\n\r\n").status(), 400);

        let response = |raw: &[u8]| read_response(&mut Cursor::new(raw.to_vec()), LIMIT);
        for raw in [
            &b"SMTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n"[..],
            b"HTTP/1.1 two-hundred OK\r\nContent-Length: 0\r\n\r\n",
            b"HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
            b"\r\n\r\n",
        ] {
            let err = response(raw).unwrap_err();
            assert!(matches!(err, HttpError::Malformed(_)), "{err}");
        }
        // The reason phrase is optional and may hold spaces.
        assert_eq!(
            response(b"HTTP/1.1 404\r\nContent-Length: 0\r\n\r\n")
                .unwrap()
                .status,
            404
        );
        assert_eq!(
            response(b"HTTP/1.0 503 Service Unavailable\r\n\r\n")
                .unwrap()
                .status,
            503
        );
    }

    #[test]
    fn keep_alive_follows_http11_defaults_and_connection_header() {
        let req = read_request(&mut Cursor::new(b"GET / HTTP/1.1\r\n\r\n".to_vec())).unwrap();
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        let req = read_request(&mut Cursor::new(
            b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec(),
        ))
        .unwrap();
        assert!(!req.keep_alive, "Connection: close overrides the default");
        let req = read_request(&mut Cursor::new(b"GET / HTTP/1.0\r\n\r\n".to_vec())).unwrap();
        assert!(!req.keep_alive, "HTTP/1.0 defaults to close");
        let req = read_request(&mut Cursor::new(
            b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n".to_vec(),
        ))
        .unwrap();
        assert!(req.keep_alive, "explicit Keep-Alive opts in");
    }

    #[test]
    fn response_writer_emits_well_formed_http() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            &Response::json(200, "{\"ok\":true}".into()),
            false,
        )
        .unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"), "{s}");
        assert!(s.contains("Content-Length: 11\r\n"), "{s}");
        assert!(s.contains("Connection: close\r\n"), "{s}");
        assert!(s.ends_with("{\"ok\":true}"), "{s}");
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(200, "{\"ok\":true}".into()), true).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("Connection: keep-alive\r\n"), "{s}");
    }

    /// Each writer's output is what the other half's reader parses back.
    #[test]
    fn writers_and_readers_round_trip() {
        let mut wire = Vec::new();
        let headers = [("Host", "h"), ("X-LogCL-Deadline-Ms", "250")];
        write_request(&mut wire, "POST", "/predict?x=1", &headers, b"{}", true).unwrap();
        write_request(&mut wire, "GET", "/healthz", &[], b"", false).unwrap();
        let wire = String::from_utf8(wire).unwrap();
        let (first, second) = wire.split_at(wire.find("GET").unwrap());
        let req = read_request(&mut first.as_bytes()).unwrap();
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("POST", "/predict?x=1")
        );
        assert_eq!(req.header("x-logcl-deadline-ms"), Some("250"));
        assert_eq!((req.body.as_slice(), req.keep_alive), (&b"{}"[..], true));
        let req = read_request(&mut second.as_bytes()).unwrap();
        assert_eq!(
            (req.method.as_str(), req.body.len(), req.keep_alive),
            ("GET", 0, false)
        );

        let resp = Response::json(503, "{}".into())
            .with_header("Retry-After", "1")
            .with_header("X-LogCL-Degradation", "shed");
        let mut wire = Vec::new();
        write_response(&mut wire, &resp, false).unwrap();
        let reply = read_response(&mut wire.as_slice(), LIMIT).unwrap();
        assert_eq!((reply.status, reply.text().as_str()), (503, "{}"));
        assert_eq!(reply.header("retry-after"), Some("1"));
        assert_eq!(reply.header("X-LOGCL-DEGRADATION"), Some("shed"));
        assert!(!reply.keep_alive && !reply.reused_connection);
    }

    // ------------------------------------------------------------------ client

    /// A scripted peer: for each inner list, accepts one connection and
    /// answers that many requests on it (echoing the request's keep-alive
    /// wish), then drops it. Returns what it was sent.
    fn scripted_server(
        listener: TcpListener,
        exchanges_per_connection: Vec<usize>,
    ) -> std::thread::JoinHandle<Vec<Request>> {
        std::thread::spawn(move || {
            let mut seen = Vec::new();
            for exchanges in exchanges_per_connection {
                let (mut stream, _) = listener.accept().unwrap();
                for _ in 0..exchanges {
                    let req = read_request(&mut stream).unwrap();
                    let resp = Response::json(200, format!("{{\"n\":{}}}", seen.len()));
                    write_response(&mut stream, &resp, req.keep_alive).unwrap();
                    seen.push(req);
                }
            }
            seen
        })
    }

    #[test]
    fn client_is_one_connection_per_exchange_by_default() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = scripted_server(listener, vec![1, 1]);
        let mut client = Client::new(addr, Duration::from_secs(5)).unwrap();
        let first = client
            .send("POST", "/predict", &[("X-Extra", "1")], b"{\"subject\":0}")
            .unwrap();
        let second = client.send("GET", "/healthz", &[], b"").unwrap();
        assert_eq!((first.status, first.text().as_str()), (200, "{\"n\":0}"));
        assert_eq!(second.text(), "{\"n\":1}");
        assert!(!first.keep_alive && !first.reused_connection && !second.reused_connection);
        let seen = server.join().unwrap();
        assert_eq!(seen[0].header("host"), Some(addr.to_string().as_str()));
        assert_eq!(seen[0].header("content-type"), Some("application/json"));
        assert_eq!(seen[0].header("x-extra"), Some("1"));
        assert_eq!(seen[0].body, b"{\"subject\":0}");
        assert_eq!(
            (seen[1].method.as_str(), seen[1].header("content-type")),
            ("GET", None)
        );
    }

    #[test]
    fn keep_alive_client_reuses_and_reconnects_once_on_a_stale_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // The peer hangs up after one exchange although it promised
        // keep-alive — an idle-timeout close, as the client sees it.
        let server = scripted_server(listener, vec![1, 2]);
        let mut client = Client::new(addr, Duration::from_secs(5))
            .unwrap()
            .keep_alive();
        let replies: Vec<Reply> = (0..3)
            .map(|_| client.send("GET", "/healthz", &[], b"").unwrap())
            .collect();
        let reused: Vec<bool> = replies.iter().map(|r| r.reused_connection).collect();
        // #2 first went down the dead socket, then was answered on a new one.
        assert_eq!(reused, [false, false, true]);
        assert!(replies.iter().all(|r| r.status == 200 && r.keep_alive));
        assert_eq!(server.join().unwrap().len(), 3);
    }

    /// `is_open` peeks without taking anything and leaves the socket
    /// blocking, so the next exchange rides it; once the peer has closed it,
    /// `is_open` drops it and the next exchange goes out on a new one.
    #[test]
    fn is_open_finds_a_closed_connection_and_leaves_an_open_one_as_it_was() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = scripted_server(listener, vec![2, 1]);
        let mut client = Client::new(addr, Duration::from_secs(5))
            .unwrap()
            .keep_alive();
        assert!(!client.is_open(), "nothing held yet");
        client.send("GET", "/healthz", &[], b"").unwrap();
        assert!(client.is_open());
        let second = client.send("GET", "/healthz", &[], b"").unwrap();
        assert_eq!(
            (second.text().as_str(), second.reused_connection),
            ("{\"n\":1}", true)
        );
        // The script now hangs up on the first connection.
        let gave_up = Instant::now() + Duration::from_secs(2);
        while client.is_open() {
            assert!(Instant::now() < gave_up, "the peer's close never showed");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(!client.is_open());
        let third = client.send("GET", "/healthz", &[], b"").unwrap();
        assert_eq!(
            (third.text().as_str(), third.reused_connection),
            ("{\"n\":2}", false)
        );
        assert_eq!(server.join().unwrap().len(), 3);
    }

    /// A peer that goes quiet on a reused socket costs one timeout, not two:
    /// the replay is for a socket the peer closed, never for a deadline.
    #[test]
    fn a_timeout_on_a_reused_socket_is_not_replayed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (gave_up, client_gave_up) = std::sync::mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap();
            write_response(
                &mut stream,
                &Response::json(200, "{}".into()),
                req.keep_alive,
            )
            .unwrap();
            // The second request is read and never answered; the socket stays
            // open until the client has given up.
            read_request(&mut stream).unwrap();
            client_gave_up.recv().unwrap();
            listener.set_nonblocking(true).unwrap();
            listener.accept().map(|_| ()).map_err(|e| e.kind())
        });
        let mut client = Client::new(addr, Duration::from_secs(5))
            .unwrap()
            .keep_alive();
        assert!(client.send("GET", "/healthz", &[], b"").unwrap().keep_alive);
        client.set_io_timeout(Duration::from_millis(50));
        let err = client.send("GET", "/healthz", &[], b"").unwrap_err();
        assert!(
            matches!(err, ClientError::Exchange(HttpError::ReadTimeout)),
            "{err}"
        );
        gave_up.send(()).unwrap();
        assert_eq!(
            server.join().unwrap(),
            Err(io::ErrorKind::WouldBlock),
            "the timed-out request was sent again on a second connection"
        );
    }

    #[test]
    fn client_errors_say_whether_anything_was_sent() {
        let err = Client::new("definitely not an address", Duration::from_secs(1)).err();
        assert!(matches!(err, Some(ClientError::Connect(_))));
        // Port 1 on localhost is essentially never listening.
        let mut client = Client::new("127.0.0.1:1", Duration::from_millis(200)).unwrap();
        assert!(matches!(client.connect(), Err(ClientError::Connect(_))));
        assert!(matches!(
            client.send("GET", "/", &[], b""),
            Err(ClientError::Connect(_))
        ));

        // A peer that accepts and then says nothing: the exchange times out.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client =
            Client::new(listener.local_addr().unwrap(), Duration::from_secs(5)).unwrap();
        client.connect().unwrap();
        client.set_io_timeout(Duration::from_millis(50));
        let err = client.send("GET", "/", &[], b"").unwrap_err();
        assert!(
            matches!(err, ClientError::Exchange(HttpError::ReadTimeout)),
            "{err}"
        );
    }
}
