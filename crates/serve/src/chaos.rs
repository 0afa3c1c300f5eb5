//! Table-driven malformed-HTTP corpus, mirroring the
//! [`mcond_core::chaos`] catalogue style: each case is a named sequence
//! of raw socket writes plus the outcome a robust server must produce —
//! a clean 4xx/5xx status, a silent close, or either. The invariant
//! under test is *graceful degradation*: no case may panic the server,
//! hang the connection past its timeout, or poison later requests.

use crate::http::HttpLimits;
use std::time::Duration;

/// One scripted step of a hostile client.
#[derive(Clone, Debug)]
pub enum ChaosWrite {
    /// Send these bytes.
    Bytes(Vec<u8>),
    /// Go quiet for this long (slowloris building block).
    Pause(Duration),
    /// Half-close the write side, keep reading.
    CloseWrite,
}

/// What the server must do in response.
#[derive(Clone, Copy, Debug)]
pub enum Expect {
    /// Exactly these statuses, in order, then connection close.
    Statuses(&'static [u16]),
    /// Connection closes with no response bytes.
    Closed,
    /// Either of the above — acceptable when the race between our close
    /// and the server's response is inherently timing-dependent.
    StatusOrClosed(u16),
}

/// A named protocol-abuse scenario.
pub struct ProtocolCase {
    pub name: &'static str,
    pub writes: Vec<ChaosWrite>,
    pub expect: Expect,
}

fn req(s: &str) -> ChaosWrite {
    ChaosWrite::Bytes(s.as_bytes().to_vec())
}

/// The corpus, parameterized by the server's configured limits, read
/// timeout, and expected batch shape — oversized/slowloris cases always
/// cross the line by a margin instead of assuming defaults, and the one
/// well-formed (split-body) case targets a batch the server actually
/// accepts (`inc_cols` incremental columns — the mapping's rows, the
/// training-node count when `M = I` — and `feature_dim` features).
#[must_use]
pub fn protocol_corpus(
    limits: &HttpLimits,
    read_timeout: Duration,
    inc_cols: usize,
    feature_dim: usize,
) -> Vec<ProtocolCase> {
    let huge_header = format!(
        "GET /healthz HTTP/1.1\r\nx-filler: {}\r\n\r\n",
        "a".repeat(limits.max_header_bytes + 64)
    );
    let huge_body_head = format!(
        "POST /v1/serve HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        limits.max_body_bytes + 1
    );
    let stall = read_timeout + Duration::from_millis(300);
    let post = |path: &str, body: &str| {
        ChaosWrite::Bytes(
            format!("POST {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}", body.len())
                .into_bytes(),
        )
    };
    // Allocation-bomb shape: a tiny, syntactically valid
    // request declaring 9e15 sparse rows. The codec must answer 400
    // without sizing anything from the declaration (an attempted
    // allocation would abort the process, which the suite would see as a
    // dead server on the next case).
    let alloc_bomb_body = format!(
        "{{\"feature_dim\": {feature_dim}, \"features\": [], \"incremental\": \
         {{\"rows\": 9000000000000000, \"cols\": {inc_cols}, \"entries\": []}}}}"
    );
    // A valid empty batch, dribbled across four writes: headers split
    // mid-name, body split mid-object. Robust framing must reassemble it
    // and answer 200.
    let split_body = format!(
        "{{\"feature_dim\": {feature_dim}, \"features\": [], \
         \"incremental\": {{\"cols\": {inc_cols}, \"entries\": []}}}}"
    );
    // The same valid batch, but with a deadline budget near u64::MAX
    // milliseconds. Naive `Instant + Duration` arithmetic on such a budget
    // can overflow the platform clock's representable range and panic the
    // connection thread; the server must refuse the budget with a clean
    // 400 instead.
    let huge_deadline = format!(
        "POST /v1/serve HTTP/1.1\r\nx-mcond-deadline-ms: 18000000000000000000\r\n\
         content-length: {}\r\n\r\n{}",
        split_body.len(),
        split_body
    );
    // 20 000 unclosed `[`: a parser that recurses once per bracket
    // overflows the connection thread's 2 MB stack on this, and a stack
    // overflow is not a panic — it aborts the process. As the whole body,
    // under a key the batch schema does not know (the decoder's
    // skip-a-value path), and as a reload request.
    let brackets = "[".repeat(20_000);
    let deep_body = post("/v1/serve", &brackets);
    let deep_under_unknown_key = post(
        "/v1/serve",
        &format!("{}, \"annotations\": {brackets}}}", &split_body[..split_body.len() - 1]),
    );
    let deep_reload = post("/v1/admin/reload", &format!("{{\"path\": {brackets}}}"));
    let half = split_body.len() / 2;
    let split_writes = vec![
        req("POST /v1/serve HTTP"),
        req("/1.1\r\ncontent-le"),
        ChaosWrite::Bytes(
            format!("ngth: {}\r\n\r\n{}", split_body.len(), &split_body[..half]).into_bytes(),
        ),
        ChaosWrite::Bytes(split_body.as_bytes()[half..].to_vec()),
    ];
    vec![
        ProtocolCase {
            name: "truncated_request_line",
            writes: vec![req("GET /healthz"), ChaosWrite::Pause(stall)],
            expect: Expect::Statuses(&[408]),
        },
        ProtocolCase {
            name: "garbage_request_line",
            writes: vec![req("ONE TWO THREE FOUR\r\n\r\n")],
            expect: Expect::Statuses(&[400]),
        },
        ProtocolCase {
            name: "lowercase_method",
            writes: vec![req("get /healthz HTTP/1.1\r\n\r\n")],
            expect: Expect::Statuses(&[400]),
        },
        ProtocolCase {
            name: "http_0_9_version",
            writes: vec![req("GET /healthz HTTP/0.9\r\n\r\n")],
            expect: Expect::Statuses(&[505]),
        },
        ProtocolCase {
            name: "not_http_at_all",
            writes: vec![req("\x16\x03\x01\x02\x00 TLS client hello\r\n\r\n")],
            expect: Expect::Statuses(&[400]),
        },
        ProtocolCase {
            name: "oversized_headers",
            writes: vec![ChaosWrite::Bytes(huge_header.into_bytes())],
            expect: Expect::Statuses(&[431]),
        },
        ProtocolCase {
            name: "bad_content_length",
            writes: vec![req("POST /v1/serve HTTP/1.1\r\ncontent-length: banana\r\n\r\n")],
            expect: Expect::Statuses(&[400]),
        },
        ProtocolCase {
            name: "negative_content_length",
            writes: vec![req("POST /v1/serve HTTP/1.1\r\ncontent-length: -5\r\n\r\n")],
            expect: Expect::Statuses(&[400]),
        },
        ProtocolCase {
            name: "plus_signed_content_length",
            writes: vec![req("POST /v1/serve HTTP/1.1\r\ncontent-length: +5\r\n\r\n")],
            expect: Expect::Statuses(&[400]),
        },
        // RFC 9112 §5.1: whitespace between a field name and its colon.
        ProtocolCase {
            name: "space_before_header_colon",
            writes: vec![req("GET /healthz HTTP/1.1\r\nContent-Length : 0\r\n\r\n")],
            expect: Expect::Statuses(&[400]),
        },
        // RFC 9112 §5.2: an obs-folded continuation line.
        ProtocolCase {
            name: "obs_folded_header",
            writes: vec![req("GET /healthz HTTP/1.1\r\nX-Pad: a\r\n Content-Length: 0\r\n\r\n")],
            expect: Expect::Statuses(&[400]),
        },
        // RFC 9110 §5.5: a bare LF inside a field value.
        ProtocolCase {
            name: "bare_lf_in_header_value",
            writes: vec![req("GET /healthz HTTP/1.1\r\nX-Pad: a\nContent-Length: 5\r\n\r\n")],
            expect: Expect::Statuses(&[400]),
        },
        ProtocolCase {
            name: "conflicting_content_lengths",
            writes: vec![req(
                "POST /v1/serve HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 8\r\n\r\n{}",
            )],
            expect: Expect::Statuses(&[400]),
        },
        ProtocolCase {
            name: "huge_declared_sparse_rows",
            writes: vec![post("/v1/serve", &alloc_bomb_body)],
            expect: Expect::Statuses(&[400]),
        },
        ProtocolCase {
            name: "missing_content_length_on_post",
            writes: vec![req("POST /v1/serve HTTP/1.1\r\n\r\n")],
            expect: Expect::Statuses(&[411]),
        },
        ProtocolCase {
            name: "declared_body_over_cap",
            writes: vec![ChaosWrite::Bytes(huge_body_head.into_bytes())],
            expect: Expect::Statuses(&[413]),
        },
        ProtocolCase {
            name: "chunked_transfer_encoding",
            writes: vec![req(
                "POST /v1/serve HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n0\r\n\r\n",
            )],
            expect: Expect::Statuses(&[501]),
        },
        ProtocolCase {
            name: "slowloris_headers",
            // Drip one header byte, then stall past the read timeout.
            writes: vec![
                req("GET /metrics HTTP/1.1\r\nx-slow: a"),
                ChaosWrite::Pause(stall),
            ],
            expect: Expect::Statuses(&[408]),
        },
        ProtocolCase {
            name: "slowloris_body",
            writes: vec![
                req("POST /v1/serve HTTP/1.1\r\ncontent-length: 1000\r\n\r\n{\"fea"),
                ChaosWrite::Pause(stall),
            ],
            expect: Expect::Statuses(&[408]),
        },
        ProtocolCase {
            name: "half_close_mid_body",
            writes: vec![
                req("POST /v1/serve HTTP/1.1\r\ncontent-length: 50\r\n\r\n{\"trunc"),
                ChaosWrite::CloseWrite,
            ],
            // The server sees EOF mid-frame; silent close and 408 are
            // both clean outcomes depending on whether the timeout or
            // the EOF lands first.
            expect: Expect::StatusOrClosed(408),
        },
        ProtocolCase {
            name: "non_json_body",
            writes: vec![req("POST /v1/serve HTTP/1.1\r\ncontent-length: 9\r\n\r\nnot json!")],
            expect: Expect::Statuses(&[400]),
        },
        ProtocolCase {
            name: "json_wrong_shape",
            writes: vec![req(
                "POST /v1/serve HTTP/1.1\r\ncontent-length: 17\r\n\r\n{\"features\": 42}\n",
            )],
            expect: Expect::Statuses(&[400]),
        },
        ProtocolCase {
            name: "deeply_nested_body",
            writes: vec![deep_body],
            expect: Expect::Statuses(&[400]),
        },
        ProtocolCase {
            name: "deeply_nested_under_unknown_key",
            writes: vec![deep_under_unknown_key],
            expect: Expect::Statuses(&[400]),
        },
        ProtocolCase {
            name: "deeply_nested_reload_body",
            writes: vec![deep_reload],
            expect: Expect::Statuses(&[400]),
        },
        ProtocolCase {
            name: "unknown_path",
            writes: vec![req("GET /v2/serve HTTP/1.1\r\n\r\n")],
            expect: Expect::Statuses(&[404]),
        },
        ProtocolCase {
            name: "get_on_serve_endpoint",
            writes: vec![req("GET /v1/serve HTTP/1.1\r\n\r\n")],
            expect: Expect::Statuses(&[405]),
        },
        ProtocolCase {
            name: "huge_deadline_header",
            writes: vec![ChaosWrite::Bytes(huge_deadline.into_bytes())],
            expect: Expect::Statuses(&[400]),
        },
        ProtocolCase {
            name: "split_body_across_writes",
            writes: split_writes,
            expect: Expect::Statuses(&[200]),
        },
        ProtocolCase {
            name: "pipelined_pair",
            writes: vec![req(
                "GET /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n",
            )],
            expect: Expect::Statuses(&[200, 200]),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_nonempty_and_uniquely_named() {
        let corpus = protocol_corpus(&HttpLimits::default(), Duration::from_millis(100), 3, 3);
        assert!(corpus.len() >= 15, "corpus should cover the catalogue");
        let mut names: Vec<_> = corpus.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), corpus.len(), "duplicate case names");
    }

    #[test]
    fn split_body_case_is_length_consistent() {
        // The split-body case computes its content-length from the
        // payload; keep the corpus honest if someone edits it.
        let corpus = protocol_corpus(&HttpLimits::default(), Duration::from_millis(100), 5, 2);
        let case = corpus.iter().find(|c| c.name == "split_body_across_writes").unwrap();
        let mut all = Vec::new();
        for w in &case.writes {
            if let ChaosWrite::Bytes(b) = w {
                all.extend_from_slice(b);
            }
        }
        let text = String::from_utf8(all).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        let declared: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length: "))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(declared, body.len(), "content-length must match the dribbled body");
    }
}
