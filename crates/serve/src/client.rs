//! A minimal blocking HTTP/1.1 client, just enough to exercise the front
//! end from tests, benches, and the example — same hermeticity rule as
//! the server (std sockets only).

use crate::codec::{self, CodecError};
use mcond_graph::NodeBatch;
use mcond_linalg::DMat;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A fully read response: status line, lowercased headers, raw body.
#[derive(Clone, Debug)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    /// First header with this (case-insensitive) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy — error envelopes are always ASCII JSON).
    #[must_use]
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// One keep-alive client connection.
pub struct Client {
    stream: TcpStream,
    addr: SocketAddr,
}

impl Client {
    /// Connects with a read timeout covering every response wait.
    ///
    /// # Errors
    /// Socket-level failures connecting or configuring the stream.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Self { stream, addr })
    }

    /// The server address this client talks to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sends one request and reads one response on the keep-alive
    /// connection.
    ///
    /// # Errors
    /// Socket failures, or `InvalidData` when the response violates
    /// HTTP/1.1 framing.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        self.request_with(method, path, &[], body)
    }

    /// [`request`](Client::request) with extra request headers — how tests
    /// attach `x-mcond-deadline-ms` budgets.
    ///
    /// # Errors
    /// Same contract as [`request`](Client::request).
    pub fn request_with(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<Response> {
        let mut head = format!("{method} {path} HTTP/1.1\r\nhost: mcond\r\n");
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        if !body.is_empty() || method == "POST" || method == "PUT" {
            head.push_str(&format!("content-length: {}\r\n", body.len()));
        }
        head.push_str("\r\n");
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        read_response(&mut self.stream)
    }

    /// `POST /v1/serve` round trip: encode the batch, parse the reply
    /// into `(trace, logits)` on 200 or surface the error envelope.
    ///
    /// # Errors
    /// [`PostError::Io`] on transport failure, [`PostError::Http`] for a
    /// non-200 status (with the body text), [`PostError::Codec`] when a
    /// 200 body does not decode as logits.
    pub fn post_batch(&mut self, batch: &NodeBatch) -> Result<(u64, DMat), PostError> {
        self.post_batch_tagged(batch).map(|r| (r.trace, r.logits))
    }

    /// [`post_batch`](Client::post_batch), additionally surfacing the
    /// serving epoch from the `x-mcond-epoch` response header — what the
    /// hot-swap chaos suite uses to verify each answer against the exact
    /// checkpoint that produced it.
    ///
    /// # Errors
    /// Same contract as [`post_batch`](Client::post_batch).
    pub fn post_batch_tagged(&mut self, batch: &NodeBatch) -> Result<ServeReply, PostError> {
        let body = codec::encode_batch(batch);
        let resp = self.request("POST", "/v1/serve", body.as_bytes())?;
        if resp.status != 200 {
            return Err(PostError::Http { status: resp.status, body: resp.text() });
        }
        let epoch = resp.header("x-mcond-epoch").and_then(|v| v.parse().ok());
        let (trace, logits) = codec::decode_logits(&resp.text())?;
        Ok(ServeReply { trace, epoch, logits })
    }
}

/// A successful `POST /v1/serve` round trip, with its trace id and the
/// epoch that served it.
#[derive(Clone, Debug)]
pub struct ServeReply {
    /// The request's trace id (`x-mcond-trace`).
    pub trace: u64,
    /// The serving epoch (`x-mcond-epoch`); `None` only against servers
    /// predating the epoch header.
    pub epoch: Option<u64>,
    /// The decoded logits.
    pub logits: DMat,
}

/// What [`Client::post_batch`] can fail with.
#[derive(Debug)]
pub enum PostError {
    Io(io::Error),
    Http { status: u16, body: String },
    Codec(CodecError),
}

impl From<io::Error> for PostError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<CodecError> for PostError {
    fn from(e: CodecError) -> Self {
        Self::Codec(e)
    }
}

impl std::fmt::Display for PostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "transport: {e}"),
            Self::Http { status, body } => write!(f, "http {status}: {body}"),
            Self::Codec(e) => write!(f, "response codec: {e}"),
        }
    }
}

impl std::error::Error for PostError {}

/// Reads exactly one `Content-Length`-framed response from the stream.
pub(crate) fn read_response(stream: &mut TcpStream) -> io::Result<Response> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_crlf2(&buf) {
            break pos;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before response head",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
    }
    let len: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0);
    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    while body.len() < len {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(len);
    Ok(Response { status, headers, body })
}

fn find_crlf2(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}
