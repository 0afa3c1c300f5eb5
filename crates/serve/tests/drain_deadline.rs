//! Graceful drain and deadline budgets: keep-alive clients with queued
//! requests get exactly one complete response during shutdown (never a
//! mid-reply connection reset), at 1 and 4 worker threads; queued work
//! whose deadline budget expires answers a typed `503` instead of a stale
//! result; and `/healthz` reports the supervision vitals.

mod common;

use common::counter;
use mcond_obs::Json;
use mcond_serve::{encode_batch, spawn, Client, PostError, ServeConfig};
use std::time::Duration;

/// Queued keep-alive requests across a graceful shutdown: each of the
/// four blocked clients receives exactly one complete `200` — the drain
/// serves everything admitted before it began — and the connection is
/// closed cleanly *after* the reply, proven by the next request on the
/// same socket failing without ever corrupting the first.
#[test]
fn drain_serves_every_queued_request_exactly_once_across_thread_counts() {
    const QUEUED: usize = 4;
    let data = common::dataset();
    for worker_threads in [1usize, 4] {
        let handle = spawn(
            common::toy_slot(),
            ServeConfig {
                thread_limit: Some(worker_threads),
                ..ServeConfig::default()
            },
        )
        .expect("spawn front end");
        let addr = handle.addr();

        let mut probe = Client::connect(addr, Duration::from_secs(5)).unwrap();
        let admitted_before = counter(&mut probe, "serve.http.admitted");

        // Park the batcher so the clients' requests are queued — admitted
        // but unanswered — when the shutdown begins.
        handle.pause();
        std::thread::sleep(Duration::from_millis(80));

        let batch = data.batch(&[4], false);
        let clients: Vec<_> = (0..QUEUED)
            .map(|i| {
                let batch = batch.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr, Duration::from_secs(30))
                        .unwrap_or_else(|e| panic!("client {i}: {e}"));
                    let first = client.post_batch(&batch);
                    // The drain must close the connection *after* the one
                    // complete reply; a second request can only fail.
                    let second = client.post_batch(&batch);
                    (first, second)
                })
            })
            .collect();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while counter(&mut probe, "serve.http.admitted") < admitted_before + QUEUED as u64 {
            assert!(std::time::Instant::now() < deadline, "clients never queued");
            std::thread::sleep(Duration::from_millis(10));
        }

        // Graceful drain: resume the batcher, serve the queue, then stop.
        handle.shutdown();

        for (i, worker) in clients.into_iter().enumerate() {
            let (first, second) = worker.join().expect("client thread panicked");
            let (_, logits) = first.unwrap_or_else(|e| {
                panic!(
                    "client {i} at {worker_threads} threads: queued request must be \
                     served during the drain, got {e}"
                )
            });
            assert_eq!(logits.rows(), 1, "one complete logit row — no truncated reply");
            assert!(
                second.is_err(),
                "client {i}: the drained connection must be closed after its one reply"
            );
        }
    }
}

/// A request whose `x-mcond-deadline-ms` budget expires while queued is
/// answered `503 deadline_exceeded` by the batcher's sweep, and the
/// expiry is counted.
#[test]
fn deadline_header_expires_queued_work_with_typed_503() {
    let data = common::dataset();
    let handle =
        spawn(common::toy_slot(), ServeConfig::default()).expect("spawn");
    let addr = handle.addr();

    let mut probe = Client::connect(addr, Duration::from_secs(5)).unwrap();
    let expired_before = counter(&mut probe, "serve.http.deadline_expired");

    // Sanity: a roomy budget serves normally.
    let body = encode_batch(&data.batch(&[4], false));
    let resp = probe
        .request_with("POST", "/v1/serve", &[("x-mcond-deadline-ms", "30000")], body.as_bytes())
        .expect("roomy deadline");
    assert_eq!(resp.status, 200, "a roomy budget serves: {}", resp.text());

    // Park the batcher past the budget, then let it sweep.
    handle.pause();
    std::thread::sleep(Duration::from_millis(60));
    let waiter = {
        let body = body.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr, Duration::from_secs(30)).unwrap();
            client.request_with(
                "POST",
                "/v1/serve",
                &[("x-mcond-deadline-ms", "80")],
                body.as_bytes(),
            )
        })
    };
    std::thread::sleep(Duration::from_millis(250));
    handle.resume();

    let resp = waiter.join().expect("client thread").expect("queued request answered");
    assert_eq!(resp.status, 503, "expired budget answers 503: {}", resp.text());
    assert!(
        resp.text().contains("deadline_exceeded"),
        "error envelope names the kind: {}",
        resp.text()
    );
    let expired_after = counter(&mut probe, "serve.http.deadline_expired");
    assert!(
        expired_after > expired_before,
        "expiry must count: before {expired_before}, after {expired_after}"
    );
    handle.shutdown();
}

/// Without the header, [`ServeConfig::default_deadline`] applies the same
/// budget; a malformed header is a `400` before admission.
#[test]
fn default_deadline_applies_and_malformed_header_is_400() {
    let data = common::dataset();
    let handle = spawn(
        common::toy_slot(),
        ServeConfig {
            default_deadline: Some(Duration::from_millis(80)),
            ..ServeConfig::default()
        },
    )
    .expect("spawn");
    let addr = handle.addr();
    let body = encode_batch(&data.batch(&[4], false));

    // Malformed budgets never reach the queue.
    let mut client = Client::connect(addr, Duration::from_secs(5)).unwrap();
    // "18000000000000000000" parses as u64 but would overflow Instant
    // arithmetic; "86400001" is one past the 24h cap.
    for bad in ["0", "-5", "soon", "", "18000000000000000000", "86400001"] {
        let resp = client
            .request_with("POST", "/v1/serve", &[("x-mcond-deadline-ms", bad)], body.as_bytes())
            .expect("request");
        assert_eq!(resp.status, 400, "budget {bad:?} must be rejected");
        assert!(resp.text().contains("bad_deadline"), "{}", resp.text());
    }

    handle.pause();
    std::thread::sleep(Duration::from_millis(60));
    let waiter = {
        let body = body.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr, Duration::from_secs(30)).unwrap();
            // No header: the configured default budget governs.
            client.request("POST", "/v1/serve", body.as_bytes())
        })
    };
    std::thread::sleep(Duration::from_millis(250));
    handle.resume();
    let resp = waiter.join().expect("client thread").expect("queued request answered");
    assert_eq!(resp.status, 503, "default budget expired: {}", resp.text());
    assert!(resp.text().contains("deadline_exceeded"), "{}", resp.text());
    handle.shutdown();
}

/// `GET /healthz` carries the supervision vitals: epoch + checkpoint id,
/// queue depth, and a fresh batcher heartbeat age.
#[test]
fn healthz_reports_epoch_checkpoint_queue_depth_and_heartbeat() {
    let handle =
        spawn(common::toy_slot(), ServeConfig::default()).expect("spawn");
    let mut client = Client::connect(handle.addr(), Duration::from_secs(5)).unwrap();
    let resp = client.request("GET", "/healthz", b"").expect("healthz");
    assert_eq!(resp.status, 200);
    let j = Json::parse(&resp.text()).expect("healthz body is JSON");
    assert_eq!(j.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(j.get("epoch").and_then(Json::as_f64), Some(1.0), "boot epoch is 1");
    assert_eq!(
        j.get("checkpoint").and_then(Json::as_str),
        Some("toy-fixture"),
        "checkpoint id surfaces for operators"
    );
    assert_eq!(j.get("queue_depth").and_then(Json::as_f64), Some(0.0), "idle queue");
    let heartbeat = j
        .get("heartbeat_age_ms")
        .and_then(Json::as_f64)
        .expect("heartbeat age present");
    assert!(heartbeat < 5_000.0, "a live batcher has a fresh heartbeat, saw {heartbeat}");
    handle.shutdown();
}

/// Requests that arrive *after* a drain began answer `503`, not a hang:
/// the full shutdown story from a client's perspective is "one response
/// per admitted request, a clean refusal for everything later".
#[test]
fn requests_after_shutdown_are_refused_not_hung() {
    let data = common::dataset();
    let handle =
        spawn(common::toy_slot(), ServeConfig::default()).expect("spawn");
    let addr = handle.addr();
    let mut client = Client::connect(addr, Duration::from_secs(5)).unwrap();
    let batch = data.batch(&[4], false);
    client.post_batch(&batch).expect("healthy before shutdown");
    handle.shutdown();
    match client.post_batch(&batch) {
        Err(PostError::Io(_)) => {} // connection closed by the drain
        Err(PostError::Http { status, .. }) => {
            assert_eq!(status, 503, "a reachable drained server refuses typed");
        }
        Err(PostError::Codec(e)) => panic!("drained server corrupted a reply: {e}"),
        Ok(_) => panic!("a drained server must not serve new work"),
    }
}
