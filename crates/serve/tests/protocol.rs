//! Protocol robustness: every malformed-HTTP case in the
//! `mcond_serve::chaos` corpus gets a clean typed status or a clean
//! close — never a panic, never a connection hung past its deadline —
//! and the server keeps answering healthy requests after each abuse.

mod common;

use mcond_serve::chaos::{protocol_corpus, ChaosWrite, Expect};
use mcond_serve::{spawn, Client, HttpLimits, ServeConfig, ServeHandle};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

const READ_TIMEOUT: Duration = Duration::from_millis(300);

fn spawn_toy() -> ServeHandle {
    let cfg = ServeConfig { read_timeout: READ_TIMEOUT, ..ServeConfig::default() };
    spawn(common::toy_slot(), cfg).expect("spawn front end")
}

/// Runs one scripted case and returns every status the server answered
/// (empty when it closed silently).
fn run_case(handle: &ServeHandle, writes: &[ChaosWrite]) -> Vec<u16> {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
    for w in writes {
        match w {
            ChaosWrite::Bytes(b) => {
                // The server may have already rejected and closed; a
                // failed write is part of the scenario, not an error.
                if (&stream).write_all(b).is_err() {
                    break;
                }
            }
            ChaosWrite::Pause(d) => std::thread::sleep(*d),
            ChaosWrite::CloseWrite => {
                let _ = stream.shutdown(Shutdown::Write);
            }
        }
    }
    // Drain everything until EOF, bounded by a hard deadline — a case
    // that never reaches EOF is a hung connection, which the corpus
    // contract forbids.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        assert!(Instant::now() < deadline, "connection hung past the drain deadline");
        match (&stream).read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
    }
    parse_statuses(&buf)
}

/// Splits a byte stream of back-to-back `Content-Length`-framed
/// responses into their status codes.
fn parse_statuses(mut buf: &[u8]) -> Vec<u16> {
    let mut statuses = Vec::new();
    while !buf.is_empty() {
        let head_end = buf
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("response head is complete");
        let head = std::str::from_utf8(&buf[..head_end]).expect("ASCII head");
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code in the status line");
        statuses.push(status);
        let len: usize = head
            .lines()
            .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(String::from))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        buf = &buf[(head_end + 4 + len).min(buf.len())..];
    }
    statuses
}

#[test]
fn corpus_yields_clean_statuses_and_the_server_survives() {
    let handle = spawn_toy();
    let corpus = protocol_corpus(
        &HttpLimits::default(),
        READ_TIMEOUT,
        common::INC_COLS,
        common::FEATURE_DIM,
    );
    for case in &corpus {
        let got = run_case(&handle, &case.writes);
        match case.expect {
            Expect::Statuses(want) => {
                assert_eq!(got, want, "case {}: wrong status sequence", case.name);
            }
            Expect::Closed => {
                assert!(got.is_empty(), "case {}: expected silent close, got {got:?}", case.name);
            }
            Expect::StatusOrClosed(want) => {
                assert!(
                    got.is_empty() || got == [want],
                    "case {}: expected [{want}] or close, got {got:?}",
                    case.name
                );
            }
        }
        // Graceful degradation: the abuse must not poison later
        // connections.
        let mut client = Client::connect(handle.addr(), Duration::from_secs(5)).unwrap();
        let resp = client.request("GET", "/healthz", b"").unwrap();
        assert_eq!(resp.status, 200, "case {}: server unhealthy afterwards", case.name);
    }
    handle.shutdown();
}

#[test]
fn keep_alive_connection_serves_the_corpus_of_good_requests_back_to_back() {
    let handle = spawn_toy();
    let mut client = Client::connect(handle.addr(), Duration::from_secs(5)).unwrap();
    for _ in 0..8 {
        let h = client.request("GET", "/healthz", b"").unwrap();
        assert_eq!(h.status, 200);
        let m = client.request("GET", "/metrics", b"").unwrap();
        assert_eq!(m.status, 200);
        // Two JSONL lines: server scope + process scope.
        let text = m.text();
        let lines: Vec<_> = text.lines().filter(|l| !l.is_empty()).collect();
        assert_eq!(lines.len(), 2, "metrics is JSONL with two scopes");
        for line in lines {
            assert!(mcond_obs::Json::parse(line).is_ok(), "metrics line is valid JSON: {line}");
        }
    }
    handle.shutdown();
}
