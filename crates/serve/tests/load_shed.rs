//! Load shedding and backpressure: with the batcher's dequeue gate
//! paused, the bounded queue fills deterministically; overflow requests
//! get 429 + `Retry-After` and the `serve.http.shed` counter moves; on
//! resume every queued request drains to exactly one 200 — nothing
//! dropped, nothing duplicated — and fresh traffic is readmitted.

mod common;

use mcond_obs::Json;
use mcond_serve::{spawn, Client, ServeConfig};
use std::time::Duration;

/// Reads the process-scope value of a counter from `GET /metrics`.
fn counter(client: &mut Client, name: &str) -> u64 {
    let resp = client.request("GET", "/metrics", b"").expect("metrics");
    assert_eq!(resp.status, 200);
    for line in resp.text().lines().filter(|l| !l.is_empty()) {
        let j = Json::parse(line).expect("metrics line parses");
        if j.get("scope").and_then(Json::as_str) == Some("process") {
            let metrics = j.get("metrics").expect("metrics object");
            if let Some(v) = metrics
                .get("counters")
                .and_then(|c| c.get(name))
                .and_then(Json::as_f64)
            {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                return v as u64;
            }
            return 0;
        }
    }
    panic!("no process-scope metrics line");
}

#[test]
fn saturated_queue_sheds_with_retry_after_then_drains_back_to_200s() {
    const QUEUE: usize = 4;
    let data = common::dataset();
    let handle = spawn(
        common::toy_slot(),
        ServeConfig {
            queue_capacity: QUEUE,
            // Shed purely on depth in this test: the EWMA threshold is
            // parked out of reach.
            shed_wait_us: u64::MAX,
            ..ServeConfig::default()
        },
    )
    .expect("spawn front end");
    let addr = handle.addr();

    let mut probe = Client::connect(addr, Duration::from_secs(5)).unwrap();
    let shed_before = counter(&mut probe, "serve.http.shed");
    let admitted_before = counter(&mut probe, "serve.http.admitted");

    // Close the dequeue gate, then give the batcher time to finish any
    // in-flight poll and park — from here on admitted jobs only queue.
    handle.pause();
    std::thread::sleep(Duration::from_millis(120));

    let batch = data.batch(&[4], false);
    let queued: Vec<_> = (0..QUEUE)
        .map(|i| {
            let batch = batch.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, Duration::from_secs(30))
                    .unwrap_or_else(|e| panic!("client {i}: {e}"));
                client.post_batch(&batch)
            })
        })
        .collect();
    // Wait until every queued client is actually admitted before probing
    // the overflow path — the admitted counter makes this deterministic.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while counter(&mut probe, "serve.http.admitted") < admitted_before + QUEUE as u64 {
        assert!(std::time::Instant::now() < deadline, "queue never saturated");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Overflow requests: all shed with 429 + Retry-After, all counted.
    for i in 0..4 {
        let resp = probe
            .request("POST", "/v1/serve", mcond_serve::encode_batch(&batch).as_bytes())
            .expect("overflow probe");
        assert_eq!(resp.status, 429, "overflow {i} must shed");
        assert_eq!(resp.header("retry-after"), Some("1"), "429 must carry Retry-After");
    }
    let shed_during = counter(&mut probe, "serve.http.shed");
    assert!(
        shed_during >= shed_before + 4,
        "shed counter must move: before {shed_before}, during {shed_during}"
    );

    // Pressure drops: every queued request drains to exactly one 200
    // with the same logits.
    handle.resume();
    let mut served = 0;
    for (i, worker) in queued.into_iter().enumerate() {
        let (_, logits) = worker
            .join()
            .expect("queued client panicked")
            .unwrap_or_else(|e| panic!("queued client {i} not served after resume: {e}"));
        assert_eq!(logits.rows(), 1, "one logit row per one-node batch");
        served += 1;
    }
    assert_eq!(served, QUEUE, "no dropped or duplicated responses");

    // Fresh traffic is readmitted once drained.
    let (_, logits) = probe.post_batch(&batch).expect("server drained back to 200s");
    assert_eq!(logits.rows(), 1);
    handle.shutdown();
}
