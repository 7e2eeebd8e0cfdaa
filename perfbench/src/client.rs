//! A minimal HTTP/1.1 client for the load generator.
//!
//! Unlike the service's own `client::Session`, it never retries: a
//! reset is a failed request, and the caller must see it. It counts
//! its connects, reads `X-Cache` as the serving tier, and drops the
//! connection when the server answers `Connection: close` (every
//! worker-pool answer does).

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// How long one response may take before the request counts as failed.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// The tier that answered, from the `X-Cache` response header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// The precomputed `/v1/cr` lattice.
    Memo,
    /// An LRU hit.
    Hit,
    /// Computed for this request (inline or on the worker pool).
    Miss,
    /// No tier header (`/healthz`, errors).
    Untiered,
}

impl Tier {
    /// Reads the tier from an `X-Cache` header value.
    #[must_use]
    pub fn from_header(value: Option<&str>) -> Tier {
        match value.map(str::trim) {
            Some(v) if v.eq_ignore_ascii_case("memo") => Tier::Memo,
            Some(v) if v.eq_ignore_ascii_case("hit") => Tier::Hit,
            Some(v) if v.eq_ignore_ascii_case("miss") => Tier::Miss,
            _ => Tier::Untiered,
        }
    }
}

/// Why a request got no response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// The connect was refused or failed.
    Connect,
    /// The peer reset or closed the connection mid-exchange.
    Reset,
    /// No complete response within the read timeout.
    Timeout,
    /// The response could not be parsed.
    Malformed,
}

impl TransportError {
    fn from_io(error: &io::Error) -> TransportError {
        match error.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => TransportError::Timeout,
            io::ErrorKind::InvalidData => TransportError::Malformed,
            _ => TransportError::Reset,
        }
    }
}

/// One response as the generator needs it.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Serving tier from `X-Cache`.
    pub tier: Tier,
    /// Whether the server closed the connection after this response.
    pub close: bool,
    /// Response body.
    pub body: Vec<u8>,
}

/// Serializes a request with `Content-Length` framing, keep-alive.
#[must_use]
pub fn wire(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A lazily (re)connecting keep-alive connection.
pub struct Conn {
    addr: String,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// TCP connects made so far.
    pub connects: u64,
}

impl Conn {
    /// A connection to `addr`; connects on first use.
    #[must_use]
    pub fn new(addr: &str) -> Conn {
        Conn { addr: addr.to_owned(), stream: None, buf: Vec::with_capacity(8192), connects: 0 }
    }

    /// Sends one serialized request and reads its response.
    ///
    /// # Errors
    ///
    /// Any connect, write, read or framing failure; the connection is
    /// dropped and the next request reconnects.
    pub fn send(&mut self, request: &[u8]) -> Result<Response, TransportError> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr).map_err(|_| TransportError::Connect)?;
            self.connects += 1;
            stream.set_read_timeout(Some(READ_TIMEOUT)).map_err(|_| TransportError::Connect)?;
            let _ = stream.set_nodelay(true);
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let result = stream
            .write_all(request)
            .and_then(|()| read_response(stream, &mut self.buf))
            .map_err(|e| TransportError::from_io(&e));
        if !matches!(&result, Ok(response) if !response.close) {
            self.stream = None;
        }
        result
    }
}

fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_owned())
}

/// Reads one `Content-Length`-framed response. Only one request is
/// ever outstanding, so nothing past the body arrives.
fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<Response> {
    buf.clear();
    let mut chunk = [0u8; 8192];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed before head"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| invalid("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let (mut length, mut tier, mut close) = (None, Tier::Untiered, false);
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(value.parse::<usize>().map_err(|_| invalid("bad Content-Length"))?);
        } else if name.eq_ignore_ascii_case("x-cache") {
            tier = Tier::from_header(Some(value));
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let length = length.ok_or_else(|| invalid("missing Content-Length"))?;
    let mut body = buf[head_end..].to_vec();
    if body.len() > length {
        return Err(invalid("bytes past the response body"));
    }
    let have = body.len();
    body.resize(length, 0);
    stream.read_exact(&mut body[have..])?;
    Ok(Response { status, tier, close, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x_cache_header_selects_the_tier() {
        assert_eq!(Tier::from_header(Some("memo")), Tier::Memo);
        assert_eq!(Tier::from_header(Some(" hit")), Tier::Hit);
        assert_eq!(Tier::from_header(Some("MISS")), Tier::Miss);
        assert_eq!(Tier::from_header(Some("stale")), Tier::Untiered);
        assert_eq!(Tier::from_header(None), Tier::Untiered);
    }

    #[test]
    fn wire_frames_the_body() {
        let bytes = wire("POST", "/v1/supremum", "{\"n\": 3}");
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("POST /v1/supremum HTTP/1.1\r\n"));
        assert!(text.contains("Content-Length: 8\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"n\": 3}"));
    }
}
