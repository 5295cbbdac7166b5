//! A small keep-alive HTTP/1.1 client that returns status, headers and body.
//!
//! `loadgen::runner::run` drops bodies and its `http_post` closes the
//! connection per request; verification needs the bodies and the workloads
//! are specified over at most two persistent connections.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A complete HTTP response.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Header `(name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body, `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl Reply {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// One persistent connection to `addr`, reopened when the peer closes it.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

/// Longest a single exchange may take before it counts as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

impl Conn {
    /// A connection to `addr`, opened on first use.
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, stream: None }
    }

    /// Sends one request and reads the whole response. A reused connection
    /// the server has meanwhile closed is reopened once (legal keep-alive
    /// behaviour, not a failure); any other error is returned.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<Reply> {
        let mut wire = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n");
        for (name, value) in headers {
            wire.push_str(&format!("{name}: {value}\r\n"));
        }
        wire.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
        let mut wire = wire.into_bytes();
        wire.extend_from_slice(body);

        let reused = self.stream.is_some();
        match self.exchange(&wire) {
            Ok(reply) => Ok(reply),
            Err(_) if reused => {
                self.stream = None;
                self.exchange(&wire)
            }
            Err(e) => Err(e),
        }
    }

    fn exchange(&mut self, wire: &[u8]) -> io::Result<Reply> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            self.stream = Some(stream);
        }
        let result = match &mut self.stream {
            Some(stream) => stream.write_all(wire).and_then(|()| read_reply(stream)),
            None => Err(io::Error::other("connection not open")),
        };
        match result {
            Ok(reply) => {
                let close = reply
                    .header("connection")
                    .is_some_and(|v| v.eq_ignore_ascii_case("close"));
                if close {
                    self.stream = None;
                }
                Ok(reply)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Largest head or body the client will buffer.
const MAX_REPLY_BYTES: usize = 16 << 20;

fn read_reply(stream: &mut impl Read) -> io::Result<Reply> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        if buf.len() > MAX_REPLY_BYTES {
            return Err(bad("response head too large"));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before the response head ended",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_string(), v.trim().to_string()))
        .collect();
    let len = headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .ok_or_else(|| bad("missing Content-Length"))?;
    if len > MAX_REPLY_BYTES {
        return Err(bad("response body too large"));
    }
    let mut body = buf.split_off(head_end + 4);
    let already = body.len();
    if already > len {
        return Err(bad("more bytes than Content-Length announced"));
    }
    body.resize(len, 0);
    stream.read_exact(&mut body[already..])?;
    Ok(Reply {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn reads_status_headers_and_body() {
        let wire =
            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nX-LogCL-Degradation: normal\r\n\r\nhello";
        let reply = read_reply(&mut Cursor::new(wire.to_vec())).unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.body, b"hello");
        assert_eq!(reply.header("x-logcl-degradation"), Some("normal"));
    }

    #[test]
    fn rejects_truncated_and_unframed_replies() {
        let cut = b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort";
        assert!(read_reply(&mut Cursor::new(cut.to_vec())).is_err());
        let unframed = b"HTTP/1.1 200 OK\r\n\r\n";
        assert!(read_reply(&mut Cursor::new(unframed.to_vec())).is_err());
        let no_head = b"HTTP/1.1 200 OK\r\nContent-Le";
        assert!(read_reply(&mut Cursor::new(no_head.to_vec())).is_err());
    }
}
