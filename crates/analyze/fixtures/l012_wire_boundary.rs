// L012 fixture: a second HTTP implementation outside crates/serve/src/http.rs,
// and a second listener outside crates/serve/src/listener.rs.

use std::io::Write;
use std::net::TcpStream;

pub fn probe(addr: &str) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
}

pub fn probe_bounded(addr: &std::net::SocketAddr, t: std::time::Duration) -> bool {
    std::net::TcpStream::connect_timeout(addr, t).is_ok()
}

pub fn is_ok(status_line: &str) -> bool {
    status_line.starts_with(r"HTTP/1.0 200") || status_line == "HTTP/2 200"
}

// Mentioning HTTP/1.1 in a comment is prose, not an implementation, and an
// accepted inbound stream is not an outbound connect.
pub fn accept(listener: &std::net::TcpListener) -> Option<TcpStream> {
    listener.accept().ok().map(|(stream, _)| stream)
}

// Binding a listener of one's own is a second accept loop.
pub fn listen(addr: &str) -> std::io::Result<std::net::TcpListener> {
    std::net::TcpListener::bind(addr)
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_writes_malformed_bytes_by_hand() {
        let _scripted_peer = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut s = std::net::TcpStream::connect("127.0.0.1:1").unwrap();
        std::io::Write::write_all(&mut s, b"GET / HTTP/1.1\r\nContent-Length: x\r\n\r\n").unwrap();
    }
}
