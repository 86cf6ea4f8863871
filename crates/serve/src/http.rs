//! Hand-rolled HTTP/1.1, sized to the service's needs: one request per
//! connection (`Connection: close`), `Content-Length`-framed bodies,
//! no chunked encoding, no keep-alive. Both the server side
//! ([`read_request`] / [`write_response`]) and the client side
//! ([`get`] / [`post`], used by the load-test harness and the
//! integration tests) live here so the two ends can never drift.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Largest accepted request body (16 MiB) — an admission-control guard
/// so a hostile `Content-Length` cannot make a worker allocate
/// unboundedly.
pub const MAX_BODY: usize = 16 << 20;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Request target as sent (no query parsing; the service needs none).
    pub path: String,
    /// Decoded body (empty when the request carried none).
    pub body: String,
}

/// Read and frame one request from `stream`. Errors are strings; the
/// caller answers them with a 400.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = find_blank_line(&buf) {
            break pos;
        }
        if buf.len() > 64 << 10 {
            return Err("header section exceeds 64 KiB".into());
        }
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed before headers completed".into());
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head =
        std::str::from_utf8(&buf[..header_end]).map_err(|e| format!("non-UTF-8 headers: {e}"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_uppercase();
    let path = parts.next().ok_or("request line has no target")?.to_string();

    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length =
                    value.trim().parse().map_err(|e| format!("bad content-length: {e}"))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(format!("body of {content_length} bytes exceeds {MAX_BODY}"));
    }

    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).map_err(|e| format!("read body: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-body".into());
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    let body = String::from_utf8(body).map_err(|e| format!("non-UTF-8 body: {e}"))?;
    Ok(Request { method, path, body })
}

fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Reason phrase for the status codes the service emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Write a complete JSON response and flush. Head and body leave in one
/// write, as a request does: two would be two segments, and the second
/// can sit behind Nagle's algorithm until the first is acknowledged.
/// Failures are swallowed — a client that hung up mid-response is its
/// own problem, never the server's.
pub fn write_response(stream: &mut impl Write, status: u16, body: &str) {
    let response = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        reason(status),
        body.len(),
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// Client: one round trip, returning `(status, body)`. `timeout` bounds
/// each socket operation, not the whole exchange.
fn round_trip(addr: &str, request: &str, timeout: Duration) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(timeout)).ok();
    stream.set_write_timeout(Some(timeout)).ok();
    stream.write_all(request.as_bytes()).map_err(|e| format!("send: {e}"))?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response).map_err(|e| format!("receive: {e}"))?;
    let text = String::from_utf8(response).map_err(|e| format!("non-UTF-8 response: {e}"))?;
    let (head, body) =
        text.split_once("\r\n\r\n").ok_or("response has no header/body separator")?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line: {}", head.lines().next().unwrap_or("")))?;
    Ok((status, body.to_string()))
}

/// `GET path` against `addr`, returning `(status, body)`.
pub fn get(addr: &str, path: &str, timeout: Duration) -> Result<(u16, String), String> {
    round_trip(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"),
        timeout,
    )
}

/// `POST path` with a JSON body against `addr`, returning
/// `(status, body)`.
pub fn post(
    addr: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> Result<(u16, String), String> {
    round_trip(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len(),
        ),
        timeout,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn request_response_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let req = read_request(&mut s).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/echo");
            write_response(&mut s, 200, &format!("{{\"len\": {}}}", req.body.len()));
        });
        let body = "x".repeat(10_000); // bigger than one read chunk
        let (status, resp) = post(&addr, "/echo", &body, Duration::from_secs(5)).unwrap();
        assert_eq!(status, 200);
        assert_eq!(resp, "{\"len\": 10000}");
        server.join().unwrap();
    }

    #[test]
    fn a_response_is_one_write() {
        /// Takes whatever it is given whole and keeps the pieces apart.
        struct Pieces(Vec<Vec<u8>>);
        impl Write for Pieces {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut out = Pieces(Vec::new());
        write_response(&mut out, 429, "{\"ok\": false}");
        assert_eq!(out.0.len(), 1, "head and body in one write");
        assert_eq!(
            String::from_utf8(out.0.remove(0)).unwrap(),
            "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
             Content-Length: 13\r\nConnection: close\r\n\r\n{\"ok\": false}"
        );
    }

    #[test]
    fn oversized_content_length_is_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            assert!(read_request(&mut s).is_err());
            write_response(&mut s, 400, "{}");
        });
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .write_all(
                format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1).as_bytes(),
            )
            .unwrap();
        let mut out = Vec::new();
        stream.read_to_end(&mut out).unwrap();
        assert!(String::from_utf8_lossy(&out).starts_with("HTTP/1.1 400"));
        server.join().unwrap();
    }
}
