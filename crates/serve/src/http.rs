//! Dependency-free HTTP/1.1 message framing over `std::net` streams.
//!
//! Implements exactly what the serving subsystem needs: request parsing
//! (request line, headers, `Content-Length` body) with hard size limits,
//! response serialization with keep-alive support, and a tiny blocking
//! client used by the load generator and the integration tests. Chunked
//! transfer encoding is intentionally unsupported — a request carrying
//! `Transfer-Encoding` is rejected with `411 Length Required` semantics
//! (as a [`HttpError::UnsupportedEncoding`]) rather than misparsed.
//!
//! Every socket read on the request path is bounded by a
//! [`Deadline`]: the caller arms a short
//! per-operation socket timeout and the read loops here treat each
//! `WouldBlock`/`TimedOut` as a poll tick, returning
//! [`HttpError::Timeout`] the moment the request deadline expires. A
//! slow-loris client dribbling one byte per second therefore costs a
//! worker at most the request budget, not forever.

use crate::deadline::Deadline;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Maximum accepted header block size (request line + headers).
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Upper bound on how much of an over-limit body is drained before the
/// `413` is written (see `read_request`): enough that any client within an
/// order of magnitude of the limit reliably receives the JSON error body,
/// without letting a hostile `Content-Length` stream gigabytes through a
/// rejected request.
pub const MAX_DRAIN_BYTES: usize = 8 << 20;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the request target (no query string).
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// Raw request body (empty without `Content-Length`).
    pub body: Vec<u8>,
    /// True when the client asked to close the connection after this
    /// exchange (`Connection: close` or HTTP/1.0 without keep-alive).
    pub close: bool,
    /// Effective per-request deadline: the server budget passed to
    /// [`read_request`], tightened by an `X-Deadline-Ms` header if the
    /// client sent one (a client can only shorten its budget, never
    /// extend it).
    pub deadline: Deadline,
    /// Client-supplied `X-Request-Id`, sanitized (printable ASCII, at most
    /// [`MAX_REQUEST_ID_LEN`] chars). The server echoes it on the response
    /// and threads it through the access log; absent, one is generated.
    pub request_id: Option<String>,
}

/// Longest accepted client-supplied request id; longer values truncate.
pub const MAX_REQUEST_ID_LEN: usize = 120;

/// Sanitizes a client-supplied request id: printable ASCII only (anything
/// else is dropped — ids land in log lines and response headers verbatim),
/// truncated to [`MAX_REQUEST_ID_LEN`]. Returns `None` for an effectively
/// empty id.
#[must_use]
pub fn sanitize_request_id(raw: &str) -> Option<String> {
    let id: String = raw
        .chars()
        .filter(|c| c.is_ascii_graphic())
        .take(MAX_REQUEST_ID_LEN)
        .collect();
    if id.is_empty() {
        None
    } else {
        Some(id)
    }
}

impl Request {
    /// First query value for `key`, if present.
    #[must_use]
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Request-side protocol failures (each maps to a 4xx response).
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection before a complete request arrived.
    ConnectionClosed,
    /// Socket-level failure.
    Io(std::io::Error),
    /// The request deadline expired before the client delivered a complete
    /// request (slow-loris guard; maps to 408).
    Timeout,
    /// Malformed request line or header.
    Malformed(String),
    /// Header block or declared body exceeds the configured limit.
    TooLarge(String),
    /// `Transfer-Encoding` is not supported; bodies need `Content-Length`.
    UnsupportedEncoding,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::ConnectionClosed => write!(f, "connection closed"),
            HttpError::Io(e) => write!(f, "io error: {e}"),
            HttpError::Timeout => {
                write!(f, "deadline expired while reading the request")
            }
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge(m) => write!(f, "request too large: {m}"),
            HttpError::UnsupportedEncoding => {
                write!(f, "transfer-encoding not supported; use content-length")
            }
        }
    }
}

/// True for the error kinds a timed-out blocking socket read returns.
fn is_poll_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Classifies one read error against the deadline: keep polling (`Ok`),
/// report expiry, or propagate. With an **unbounded** deadline a socket
/// timeout is not a poll tick — it is the caller's configured hard timeout
/// (legacy behavior), so it propagates as `Io`.
fn check_poll(e: std::io::Error, deadline: &Deadline) -> Result<(), HttpError> {
    if !is_poll_timeout(&e) {
        return Err(HttpError::Io(e));
    }
    match deadline.remaining() {
        None => Err(HttpError::Io(e)),
        Some(_) if deadline.expired() => Err(HttpError::Timeout),
        Some(_) => Ok(()),
    }
}

fn read_line(
    reader: &mut BufReader<&TcpStream>,
    budget: &mut usize,
    deadline: &Deadline,
) -> Result<String, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Err(HttpError::ConnectionClosed);
                }
                return Err(HttpError::Malformed("truncated line".into()));
            }
            Ok(_) => {
                *budget = budget
                    .checked_sub(1)
                    .ok_or_else(|| HttpError::TooLarge("header block".into()))?;
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map_err(|_| HttpError::Malformed("non-UTF-8 header".into()));
                }
                line.push(byte[0]);
            }
            Err(e) => check_poll(e, deadline)?,
        }
    }
}

/// Decodes `%XX` escapes (exactly two ASCII hex digits; anything else
/// keeps the `%` as a literal) and `+` as a space.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if bytes
                .get(i + 1..i + 3)
                .is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit)) =>
            {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).unwrap_or("");
                out.push(u8::from_str_radix(hex, 16).unwrap_or(b'%'));
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Reads exactly `buf.len()` body bytes, treating socket timeouts as
/// deadline poll ticks (unlike `read_exact`, which would surface the first
/// tick as a hard error).
fn read_body(
    reader: &mut BufReader<&TcpStream>,
    buf: &mut [u8],
    deadline: &Deadline,
) -> Result<(), HttpError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return Err(HttpError::Malformed("truncated body".into())),
            Ok(n) => filled += n,
            Err(e) => check_poll(e, deadline)?,
        }
    }
    Ok(())
}

/// Reads and parses one request from `stream`. `max_body_bytes` bounds the
/// accepted `Content-Length`; `deadline` bounds how long the peer may take
/// to deliver the complete request (the caller should arm a short socket
/// read timeout so the deadline is actually polled).
///
/// # Errors
/// See [`HttpError`]; `ConnectionClosed` on a cleanly closed idle
/// keep-alive connection, `Timeout` when `deadline` expires mid-request.
pub fn read_request(
    reader: &mut BufReader<&TcpStream>,
    max_body_bytes: usize,
    deadline: Deadline,
) -> Result<Request, HttpError> {
    let mut deadline = deadline;
    let mut budget = MAX_HEADER_BYTES;
    let request_line = read_line(reader, &mut budget, &deadline)?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?
        .to_string();
    let version = parts.next().unwrap_or("HTTP/1.0");
    let http10 = version.eq_ignore_ascii_case("HTTP/1.0");

    let mut content_length = 0usize;
    let mut close = http10;
    let mut deadline_ms: Option<u64> = None;
    let mut request_id: Option<String> = None;
    loop {
        let line = read_line(reader, &mut budget, &deadline)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!(
                "header without colon: {line}"
            )));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                content_length = value
                    .parse()
                    .map_err(|_| HttpError::Malformed("bad content-length".into()))?;
            }
            "transfer-encoding" => return Err(HttpError::UnsupportedEncoding),
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v.contains("close") {
                    close = true;
                } else if v.contains("keep-alive") {
                    close = false;
                }
            }
            "x-deadline-ms" => {
                deadline_ms = Some(
                    value
                        .parse()
                        .map_err(|_| HttpError::Malformed("bad x-deadline-ms".into()))?,
                );
            }
            "x-request-id" => request_id = sanitize_request_id(value),
            _ => {}
        }
    }
    // The client budget can only tighten the server's; apply it before the
    // body read so a tight client deadline also bounds body delivery.
    if let Some(ms) = deadline_ms {
        deadline.tighten(ms);
    }
    if content_length > max_body_bytes {
        // Drain (bounded) what the peer is still writing before erroring.
        // Without this the server's error response races the client's
        // in-flight body: closing with unread data pending sends RST,
        // which can discard the buffered response, and the client sees a
        // reset instead of the 413 JSON error body.
        let mut remaining = content_length.min(MAX_DRAIN_BYTES);
        let mut sink = [0u8; 8192];
        while remaining > 0 {
            let want = remaining.min(sink.len());
            match reader.read(&mut sink[..want]) {
                Ok(0) => break,
                Ok(n) => remaining -= n,
                // The drain is best-effort: stop on expiry or any failure.
                Err(e) => {
                    if check_poll(e, &deadline).is_err() {
                        break;
                    }
                }
            }
        }
        return Err(HttpError::TooLarge(format!(
            "body of {content_length} bytes exceeds limit {max_body_bytes}"
        )));
    }
    let mut body = vec![0u8; content_length];
    read_body(reader, &mut body, &deadline)?;

    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target.clone(), ""),
    };
    let query = query_str
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect();
    Ok(Request {
        method,
        path,
        query,
        body,
        close,
        deadline,
        request_id,
    })
}

/// Best-effort peek at a request's head — request line plus headers —
/// returning `(path, request_id)`. Used on the **shed** path: a connection
/// rejected at the accept gate still deserves an `X-Request-Id` echo and
/// an access-log line, but must not cost a worker a full parse. Any
/// protocol error or deadline expiry simply yields `(None, None)`.
#[must_use]
pub fn peek_head(
    reader: &mut BufReader<&TcpStream>,
    deadline: &Deadline,
) -> (Option<String>, Option<String>) {
    let mut budget = MAX_HEADER_BYTES;
    let Ok(request_line) = read_line(reader, &mut budget, deadline) else {
        return (None, None);
    };
    let path = request_line
        .split_whitespace()
        .nth(1)
        .map(|t| t.split_once('?').map_or(t, |(p, _)| p).to_string());
    let mut request_id = None;
    loop {
        match read_line(reader, &mut budget, deadline) {
            Ok(line) if line.is_empty() => break,
            Ok(line) => {
                if let Some((name, value)) = line.split_once(':') {
                    if name.trim().eq_ignore_ascii_case("x-request-id") {
                        request_id = sanitize_request_id(value.trim());
                        break; // got what we came for
                    }
                }
            }
            Err(_) => break,
        }
    }
    (path, request_id)
}

/// An HTTP response ready to serialize.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes (JSON for every endpoint of this server).
    pub body: Vec<u8>,
    /// When set, a `Retry-After` header is emitted (rounded **up** to
    /// whole seconds, minimum 1, per RFC 9110). Shed responses use this so
    /// clients can distinguish "back off and retry" from permanent
    /// failure; the JSON body additionally carries the exact
    /// `retry_after_ms`.
    pub retry_after: Option<Duration>,
    /// Request id echoed back as an `X-Request-Id` header (on success,
    /// error, and shed responses alike).
    pub request_id: Option<String>,
    /// `Content-Type` of the body. Defaults to `application/json`; the
    /// Prometheus exposition endpoint overrides it.
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response with the given status.
    #[must_use]
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            body: body.into_bytes(),
            retry_after: None,
            request_id: None,
            content_type: "application/json",
        }
    }

    /// A plain-text response (Prometheus exposition format).
    #[must_use]
    pub fn text(status: u16, body: String, content_type: &'static str) -> Self {
        Self {
            status,
            body: body.into_bytes(),
            retry_after: None,
            request_id: None,
            content_type,
        }
    }

    /// Sets the echoed request id (builder style).
    #[must_use]
    pub fn with_request_id(mut self, id: impl Into<String>) -> Self {
        self.request_id = Some(id.into());
        self
    }

    /// Canonical reason phrase for the status codes this server emits.
    #[must_use]
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Internal Server Error",
        }
    }

    /// Writes the response. `close` controls the `Connection` header.
    ///
    /// # Errors
    /// Propagates socket write failures.
    pub fn write_to(&self, stream: &mut impl Write, close: bool) -> std::io::Result<()> {
        let retry_after = self.retry_after.map_or(String::new(), |d| {
            let secs = d.as_millis().div_ceil(1000).max(1);
            format!("retry-after: {secs}\r\n")
        });
        let request_id = self
            .request_id
            .as_deref()
            .map_or(String::new(), |id| format!("x-request-id: {id}\r\n"));
        let head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n{}{}connection: {}\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
            retry_after,
            request_id,
            if close { "close" } else { "keep-alive" },
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn roundtrip(raw: &[u8]) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(raw).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(&server_side);
        read_request(&mut reader, 1024, Deadline::unbounded())
    }

    #[test]
    fn parses_post_with_body_and_query() {
        let req = roundtrip(
            b"POST /predict?model=default&x=a%20b HTTP/1.1\r\ncontent-length: 4\r\n\r\nbody",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/predict");
        assert_eq!(req.query_param("model"), Some("default"));
        assert_eq!(req.query_param("x"), Some("a b"));
        assert_eq!(req.body, b"body");
        assert!(!req.close);
    }

    #[test]
    fn percent_escapes_take_exactly_two_hex_digits() {
        // `u8::from_str_radix` would read "+A" as 10 and decode a newline.
        assert_eq!(percent_decode("a%+Ab"), "a% Ab");
        assert_eq!(percent_decode("%4a%4"), "J%4");
        assert_eq!(percent_decode("%-1%zz"), "%-1%zz");
    }

    #[test]
    fn connection_close_detected() {
        let req = roundtrip(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(req.close);
        assert_eq!(req.path, "/healthz");
    }

    #[test]
    fn oversized_body_rejected() {
        let err = roundtrip(b"POST /x HTTP/1.1\r\ncontent-length: 9999\r\n\r\n").unwrap_err();
        assert!(matches!(err, HttpError::TooLarge(_)), "{err}");
    }

    #[test]
    fn chunked_encoding_rejected() {
        let err = roundtrip(b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n").unwrap_err();
        assert!(matches!(err, HttpError::UnsupportedEncoding));
    }

    #[test]
    fn garbage_rejected() {
        let err = roundtrip(b"NOT-HTTP\r\n\r\n").unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)));
    }

    #[test]
    fn x_deadline_ms_tightens_request_deadline() {
        let req = roundtrip(b"GET /healthz HTTP/1.1\r\nX-Deadline-Ms: 0\r\n\r\n").unwrap();
        assert!(req.deadline.expired());
        let req = roundtrip(b"GET /healthz HTTP/1.1\r\nX-Deadline-Ms: 60000\r\n\r\n").unwrap();
        assert!(!req.deadline.expired());
        assert!(req.deadline.remaining().unwrap() <= Duration::from_secs(60));
        let err = roundtrip(b"GET /healthz HTTP/1.1\r\nX-Deadline-Ms: nope\r\n\r\n").unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)));
    }

    #[test]
    fn stalled_body_times_out_against_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        // Declare a body, send only half of it, then stall (keep the
        // socket open so only the deadline can end the read).
        client
            .write_all(b"POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nhal")
            .unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let mut reader = BufReader::new(&server_side);
        let started = std::time::Instant::now();
        let err = read_request(
            &mut reader,
            1024,
            Deadline::after(Duration::from_millis(150)),
        )
        .unwrap_err();
        assert!(matches!(err, HttpError::Timeout), "{err}");
        assert!(started.elapsed() >= Duration::from_millis(140));
        assert!(started.elapsed() < Duration::from_secs(2));
        drop(client);
    }

    #[test]
    fn response_serializes_with_length() {
        let mut buf = Vec::new();
        Response::json(200, "{\"ok\":true}".into())
            .write_to(&mut buf, true)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 11"), "{text}");
        assert!(text.contains("connection: close"), "{text}");
        assert!(!text.contains("retry-after"), "{text}");
        assert!(text.ends_with("{\"ok\":true}"), "{text}");
    }

    #[test]
    fn request_id_parsed_and_sanitized() {
        let req = roundtrip(b"GET /healthz HTTP/1.1\r\nX-Request-Id: abc-123\r\n\r\n").unwrap();
        assert_eq!(req.request_id.as_deref(), Some("abc-123"));
        // Control characters and spaces are stripped; empty ids drop out.
        assert_eq!(sanitize_request_id("a b\tc"), Some("abc".into()));
        assert_eq!(sanitize_request_id("\u{1}\u{2}"), None);
        let long = "x".repeat(500);
        assert_eq!(
            sanitize_request_id(&long).unwrap().len(),
            MAX_REQUEST_ID_LEN
        );
    }

    #[test]
    fn response_echoes_request_id_and_content_type() {
        let mut buf = Vec::new();
        Response::json(200, "{}".into())
            .with_request_id("r-42")
            .write_to(&mut buf, true)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("x-request-id: r-42\r\n"), "{text}");
        let mut buf = Vec::new();
        Response::text(200, "m 1\n".into(), "text/plain; version=0.0.4")
            .write_to(&mut buf, true)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.contains("content-type: text/plain; version=0.0.4\r\n"),
            "{text}"
        );
    }

    #[test]
    fn peek_head_extracts_path_and_id() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .write_all(b"POST /predict?model=m HTTP/1.1\r\nX-Request-Id: peek-1\r\n\r\n")
            .unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(&server_side);
        let (path, id) = peek_head(&mut reader, &Deadline::unbounded());
        assert_eq!(path.as_deref(), Some("/predict"));
        assert_eq!(id.as_deref(), Some("peek-1"));
    }

    #[test]
    fn retry_after_header_rounds_up_to_seconds() {
        let mut response = Response::json(503, "{}".into());
        response.retry_after = Some(Duration::from_millis(1));
        let mut buf = Vec::new();
        response.write_to(&mut buf, true).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("retry-after: 1\r\n"), "{text}");
        response.retry_after = Some(Duration::from_millis(2500));
        let mut buf = Vec::new();
        response.write_to(&mut buf, true).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("retry-after: 3\r\n"), "{text}");
    }
}
