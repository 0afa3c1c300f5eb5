//! Incremental HTTP/1.1 request parsing and response framing.
//!
//! The workspace builds hermetically with no external crates, so the
//! network front end parses HTTP itself. The parser is *incremental*: a
//! connection handler feeds it whatever bytes `read` returned and asks for
//! the next complete request — partial requests simply report "need more
//! bytes", so split bodies, pipelined requests, and slow writers all fall
//! out of the same state machine. Every way a peer can violate the
//! protocol maps to a typed [`HttpError`] with a definite status code —
//! the malformed-request corpus in [`crate::chaos`] sweeps them all and
//! asserts the server never panics or hangs.
//!
//! Deliberately out of scope (this is a serving endpoint, not a general
//! web server): chunked transfer encoding (`501`), HTTP/2 (`505`), and
//! multipart bodies. Requests are framed by `Content-Length` only.

use std::fmt;

/// Hard framing limits a connection must respect.
#[derive(Clone, Copy, Debug)]
pub struct HttpLimits {
    /// Maximum bytes of request line + headers (everything before the
    /// blank line).
    pub max_header_bytes: usize,
    /// Maximum `Content-Length` a request may declare.
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        Self { max_header_bytes: 8 * 1024, max_body_bytes: 8 * 1024 * 1024 }
    }
}

/// A protocol violation, each with the HTTP status the server answers
/// before closing the connection (framing is unrecoverable after any of
/// these).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// The request line is not `METHOD TARGET VERSION`.
    BadRequestLine,
    /// The version token is not `HTTP/1.0` or `HTTP/1.1`.
    BadVersion,
    /// A header line has no `:` separator, a name that is not an RFC 9110
    /// token, or a CR, LF or NUL in its value.
    BadHeader,
    /// Request line + headers exceed [`HttpLimits::max_header_bytes`].
    HeaderTooLarge,
    /// `Content-Length` is present but not a non-negative integer, or
    /// appears more than once with conflicting values (RFC 9112 §6.3 —
    /// behind a proxy that picks the other value, honouring either copy
    /// silently is a request-smuggling vector).
    BadContentLength,
    /// A method that carries a body arrived without `Content-Length`.
    LengthRequired,
    /// The declared body exceeds [`HttpLimits::max_body_bytes`].
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// The configured cap.
        max: usize,
    },
    /// `Transfer-Encoding` framing is not supported.
    UnsupportedTransferEncoding,
}

impl HttpError {
    /// The response status for this violation.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequestLine
            | HttpError::BadHeader
            | HttpError::BadContentLength => 400,
            HttpError::BadVersion => 505,
            HttpError::HeaderTooLarge => 431,
            HttpError::LengthRequired => 411,
            HttpError::BodyTooLarge { .. } => 413,
            HttpError::UnsupportedTransferEncoding => 501,
        }
    }

    /// Short stable identifier used in error response bodies.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            HttpError::BadRequestLine => "bad_request_line",
            HttpError::BadVersion => "bad_version",
            HttpError::BadHeader => "bad_header",
            HttpError::HeaderTooLarge => "header_too_large",
            HttpError::BadContentLength => "bad_content_length",
            HttpError::LengthRequired => "length_required",
            HttpError::BodyTooLarge { .. } => "body_too_large",
            HttpError::UnsupportedTransferEncoding => "unsupported_transfer_encoding",
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::BadRequestLine => write!(f, "malformed request line"),
            HttpError::BadVersion => write!(f, "unsupported HTTP version"),
            HttpError::BadHeader => write!(f, "malformed header line"),
            HttpError::HeaderTooLarge => write!(f, "request head exceeds the header limit"),
            HttpError::BadContentLength => write!(f, "content-length is not a valid integer"),
            HttpError::LengthRequired => write!(f, "request body requires content-length"),
            HttpError::BodyTooLarge { declared, max } => {
                write!(f, "declared body of {declared} bytes exceeds the {max}-byte cap")
            }
            HttpError::UnsupportedTransferEncoding => {
                write!(f, "transfer-encoding framing is not supported")
            }
        }
    }
}

impl std::error::Error for HttpError {}

/// One parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Method token, upper-cased as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request target (path + query, as received).
    pub target: String,
    /// `true` for `HTTP/1.1` (keep-alive by default), `false` for 1.0.
    pub http11: bool,
    /// Headers in arrival order, names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The body (exactly `Content-Length` bytes; empty when absent).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given (lower-case) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after this request:
    /// HTTP/1.1 defaults to keep-alive, 1.0 to close, and a `Connection`
    /// header overrides either way.
    #[must_use]
    pub fn keep_alive(&self) -> bool {
        match self.header("connection").map(str::to_ascii_lowercase) {
            Some(v) if v.contains("close") => false,
            Some(v) if v.contains("keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// Incremental request parser over one connection's byte stream.
///
/// Feed raw bytes with [`push`](RequestParser::push), then call
/// [`next_request`](RequestParser::next_request) until it returns
/// `Ok(None)` (need more bytes). Pipelined requests parse back-to-back
/// from the same buffer.
pub struct RequestParser {
    buf: Vec<u8>,
    limits: HttpLimits,
}

impl RequestParser {
    /// A parser with the given framing limits.
    #[must_use]
    pub fn new(limits: HttpLimits) -> Self {
        Self { buf: Vec::new(), limits }
    }

    /// Appends raw bytes from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether a request has *started* but not yet completed — the
    /// connection handler answers `408` (instead of silently closing an
    /// idle keep-alive connection) when a read timeout fires mid-request.
    #[must_use]
    pub fn mid_request(&self) -> bool {
        !self.buf.is_empty()
    }

    /// The next complete request, `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    /// A typed [`HttpError`] on any framing violation; the connection
    /// cannot be re-synchronised afterwards and must be closed once the
    /// error status has been written.
    pub fn next_request(&mut self) -> Result<Option<Request>, HttpError> {
        let Some(head_end) = find_head_end(&self.buf) else {
            if self.buf.len() > self.limits.max_header_bytes {
                return Err(HttpError::HeaderTooLarge);
            }
            return Ok(None);
        };
        if head_end > self.limits.max_header_bytes {
            return Err(HttpError::HeaderTooLarge);
        }
        let head =
            std::str::from_utf8(&self.buf[..head_end]).map_err(|_| HttpError::BadHeader)?;
        let mut lines = head.split("\r\n").map(|l| l.strip_suffix('\r').unwrap_or(l));
        let request_line = lines.next().unwrap_or("");
        let (method, target, http11) = parse_request_line(request_line)?;
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (name, value) = line.split_once(':').ok_or(HttpError::BadHeader)?;
            // The name is a token as sent — no trimming — so whitespace
            // before the colon (RFC 9112 §5.1) and an obs-folded line
            // (§5.2) are refused, as is CR, LF or NUL in a value (RFC
            // 9110 §5.5): another hop may read any of them differently.
            if name.is_empty()
                || !name.bytes().all(is_tchar)
                || value.bytes().any(|b| matches!(b, b'\r' | b'\n' | 0))
            {
                return Err(HttpError::BadHeader);
            }
            headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
        }
        if headers.iter().any(|(k, _)| k == "transfer-encoding") {
            return Err(HttpError::UnsupportedTransferEncoding);
        }
        let mut declared: Option<&str> = None;
        for (k, v) in &headers {
            if k == "content-length" {
                // Identical repeats collapse (RFC 9112 allows that);
                // conflicting values are a desync vector and fatal.
                if declared.is_some_and(|prev| prev != v) {
                    return Err(HttpError::BadContentLength);
                }
                declared = Some(v);
            }
        }
        let body_len = match declared {
            Some(v) => {
                // RFC 9112: `1*DIGIT`. `usize::from_str` also takes a
                // leading `+`, which another hop may read differently.
                if !v.bytes().all(|b| b.is_ascii_digit()) {
                    return Err(HttpError::BadContentLength);
                }
                let len: usize = v.parse().map_err(|_| HttpError::BadContentLength)?;
                if len > self.limits.max_body_bytes {
                    return Err(HttpError::BodyTooLarge {
                        declared: len,
                        max: self.limits.max_body_bytes,
                    });
                }
                len
            }
            None if method == "POST" || method == "PUT" => {
                return Err(HttpError::LengthRequired)
            }
            None => 0,
        };
        let body_start = head_end + 4;
        let total = body_start + body_len;
        if self.buf.len() < total {
            return Ok(None); // body still in flight
        }
        let body = self.buf[body_start..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(Request { method, target, http11, headers, body }))
    }
}

/// Byte offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// RFC 9110 §5.6.2 `tchar`, the bytes a field name may hold.
fn is_tchar(b: u8) -> bool {
    b.is_ascii_alphanumeric()
        || matches!(
            b,
            b'!' | b'#' | b'$' | b'%' | b'&' | b'\'' | b'*' | b'+' | b'-' | b'.' | b'^' | b'_'
                | b'`' | b'|' | b'~'
        )
}

fn parse_request_line(line: &str) -> Result<(String, String, bool), HttpError> {
    let mut parts = line.split_ascii_whitespace();
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::BadRequestLine);
    };
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::BadRequestLine);
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        v if v.starts_with("HTTP/") => return Err(HttpError::BadVersion),
        _ => return Err(HttpError::BadRequestLine),
    };
    Ok((method.to_owned(), target.to_owned(), http11))
}

/// The canonical reason phrase for the statuses this server emits.
#[must_use]
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Frames one response: status line, supplied headers, `Content-Length`,
/// and the body. `close` adds `Connection: close`.
#[must_use]
pub fn write_response(
    status: u16,
    extra_headers: &[(&str, String)],
    body: &[u8],
    close: bool,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + body.len());
    out.extend_from_slice(
        format!("HTTP/1.1 {status} {}\r\n", status_reason(status)).as_bytes(),
    );
    out.extend_from_slice(b"content-type: application/json\r\n");
    out.extend_from_slice(format!("content-length: {}\r\n", body.len()).as_bytes());
    for (name, value) in extra_headers {
        out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    if close {
        out.extend_from_slice(b"connection: close\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        let mut p = RequestParser::new(HttpLimits::default());
        p.push(bytes);
        p.next_request()
    }

    #[test]
    fn parses_a_simple_get() {
        let req = parse_one(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .expect("complete request");
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/healthz");
        assert!(req.http11);
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.keep_alive());
    }

    #[test]
    fn parses_post_with_body_split_across_pushes() {
        let mut p = RequestParser::new(HttpLimits::default());
        p.push(b"POST /v1/serve HTTP/1.1\r\ncontent-length: 5\r\n\r\nhe");
        assert!(p.next_request().unwrap().is_none(), "body incomplete");
        assert!(p.mid_request());
        p.push(b"llo");
        let req = p.next_request().unwrap().expect("complete");
        assert_eq!(req.body, b"hello");
        assert!(!p.mid_request());
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let mut p = RequestParser::new(HttpLimits::default());
        p.push(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        assert_eq!(p.next_request().unwrap().unwrap().target, "/a");
        assert_eq!(p.next_request().unwrap().unwrap().target, "/b");
        assert!(p.next_request().unwrap().is_none());
    }

    #[test]
    fn typed_errors_for_each_violation() {
        assert_eq!(parse_one(b"garbage\r\n\r\n"), Err(HttpError::BadRequestLine));
        assert_eq!(
            parse_one(b"GET / HTTP/9.9\r\n\r\n").unwrap_err(),
            HttpError::BadVersion
        );
        assert_eq!(
            parse_one(b"GET / HTTP/1.1\r\nbad header line\r\n\r\n").unwrap_err(),
            HttpError::BadHeader
        );
        assert_eq!(
            parse_one(b"POST / HTTP/1.1\r\ncontent-length: nan\r\n\r\n").unwrap_err(),
            HttpError::BadContentLength
        );
        assert_eq!(
            parse_one(b"POST / HTTP/1.1\r\ncontent-length: -3\r\n\r\n").unwrap_err(),
            HttpError::BadContentLength
        );
        assert_eq!(parse_one(b"POST / HTTP/1.1\r\n\r\n").unwrap_err(), HttpError::LengthRequired);
        assert_eq!(
            parse_one(b"POST / HTTP/1.1\r\ncontent-length: 5\r\ncontent-length: 6\r\n\r\nhello?")
                .unwrap_err(),
            HttpError::BadContentLength,
            "conflicting duplicate content-lengths are a smuggling vector"
        );
        assert_eq!(
            parse_one(b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n").unwrap_err(),
            HttpError::UnsupportedTransferEncoding
        );
    }

    #[test]
    fn identical_duplicate_content_lengths_collapse() {
        let req = parse_one(b"POST / HTTP/1.1\r\ncontent-length: 5\r\ncontent-length: 5\r\n\r\nhello")
            .unwrap()
            .expect("complete request");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn oversized_head_is_rejected_before_completion() {
        let limits = HttpLimits { max_header_bytes: 64, max_body_bytes: 1024 };
        let mut p = RequestParser::new(limits);
        p.push(b"GET / HTTP/1.1\r\nx-pad: ");
        p.push(&[b'a'; 128]);
        assert_eq!(p.next_request().unwrap_err(), HttpError::HeaderTooLarge);
    }

    #[test]
    fn oversized_body_is_rejected_at_the_declaration() {
        let limits = HttpLimits { max_header_bytes: 1024, max_body_bytes: 8 };
        let mut p = RequestParser::new(limits);
        p.push(b"POST / HTTP/1.1\r\ncontent-length: 9\r\n\r\n");
        assert_eq!(
            p.next_request().unwrap_err(),
            HttpError::BodyTooLarge { declared: 9, max: 8 }
        );
    }

    #[test]
    fn connection_close_overrides_keep_alive() {
        let req = parse_one(b"GET / HTTP/1.1\r\nconnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive());
        let req = parse_one(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive(), "HTTP/1.0 defaults to close");
    }

    #[test]
    fn response_framing_includes_length_and_close() {
        let bytes = write_response(429, &[("retry-after", "1".to_owned())], b"{}", true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
