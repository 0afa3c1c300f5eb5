//! Concurrency integration: N client threads hammer a live server over
//! localhost and every HTTP response must be bitwise identical to a
//! direct `try_serve` call for the same batch — at 1 and 4 worker
//! threads — while panicking requests answer 500 without harming their
//! coalesced siblings.

mod common;

use mcond_core::chaos::corrupted_batches;
use mcond_graph::NodeBatch;
use mcond_serve::{spawn, Client, PostError, ServeConfig};
use std::time::Duration;

/// The batch mix each client thread cycles through.
fn batch_mix() -> Vec<NodeBatch> {
    let data = common::dataset();
    vec![
        data.batch(&[4, 5], true),
        data.batch(&[4], false),
        data.batch(&[5], true),
        data.batch(&[], true),
    ]
}

/// 8 client threads × 6 rounds against servers pinned to 1 and 4 worker
/// threads: every 200 is bitwise equal to the library call, every trace
/// id is echoed in the `x-mcond-trace` header path (via the body field
/// the codec returns).
#[test]
fn responses_are_bitwise_identical_to_direct_calls_across_thread_counts() {
    let batches = batch_mix();
    for worker_threads in [1usize, 4] {
        let slot = common::toy_slot();
        let epoch = slot.load();
        let expected: Vec<_> = batches
            .iter()
            .map(|b| epoch.server().try_serve(b).expect("fixture batch is valid"))
            .collect();
        let cfg = ServeConfig {
            thread_limit: Some(worker_threads),
            // A wide window forces real coalescing across client threads.
            coalesce_window: Duration::from_millis(5),
            ..ServeConfig::default()
        };
        let handle = spawn(slot, cfg).expect("spawn front end");
        let addr = handle.addr();

        let workers: Vec<_> = (0..8)
            .map(|t| {
                let batches = batches.clone();
                let expected: Vec<Vec<f32>> =
                    expected.iter().map(|m| m.as_slice().to_vec()).collect();
                std::thread::spawn(move || {
                    let mut client =
                        Client::connect(addr, Duration::from_secs(10)).expect("connect");
                    for round in 0..6 {
                        let i = (t + round) % batches.len();
                        let (_trace, logits) =
                            client.post_batch(&batches[i]).expect("200 for a valid batch");
                        assert_eq!(
                            logits.as_slice(),
                            expected[i].as_slice(),
                            "thread {t} round {round}: HTTP logits drifted from try_serve \
                             at {worker_threads} worker threads"
                        );
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("client thread panicked");
        }
        handle.shutdown();
    }
}

/// A server whose model is misconfigured past validation (its second
/// layer expects 5 hidden units, its first makes 4) panics inside the
/// forward pass: over HTTP that is a
/// 500 with kind "panicked", while the empty batch coalesced next to it
/// — which skips the forward pass — still answers 200.
#[test]
fn panicking_request_returns_500_while_siblings_succeed() {
    let data = common::dataset();
    let handle = spawn(
        common::broken_toy_slot(),
        ServeConfig { coalesce_window: Duration::from_millis(20), ..ServeConfig::default() },
    )
    .expect("spawn front end");
    let addr = handle.addr();

    let poison = data.batch(&[4], false);
    let empty = data.batch(&[], true);
    let victim = std::thread::spawn(move || {
        let mut client = Client::connect(addr, Duration::from_secs(10)).unwrap();
        client.post_batch(&poison)
    });
    let sibling = std::thread::spawn(move || {
        let mut client = Client::connect(addr, Duration::from_secs(10)).unwrap();
        client.post_batch(&empty)
    });

    match victim.join().unwrap() {
        Err(PostError::Http { status, body }) => {
            assert_eq!(status, 500, "panic maps to 500");
            assert!(body.contains("panicked"), "error envelope names the kind: {body}");
        }
        other => panic!("expected 500 for the panicking request, got {other:?}"),
    }
    let (_, logits) = sibling.join().unwrap().expect("empty sibling survives the panic");
    assert_eq!(logits.rows(), 0, "empty batch answers an empty logit matrix");

    // The server itself survives: fresh empty request still 200.
    let mut client = Client::connect(addr, Duration::from_secs(10)).unwrap();
    let (_, again) = client.post_batch(&data.batch(&[], false)).expect("server survives");
    assert_eq!(again.rows(), 0);
    handle.shutdown();
}

/// The core chaos catalogue over the wire: every corrupted batch maps to
/// a 4xx (InvalidBatch → 400) and a healthy donor keeps serving bitwise
/// stable logits between corruptions.
#[test]
fn corrupted_batches_map_to_client_errors_over_http() {
    let data = common::dataset();
    let slot = common::toy_slot();
    let donor = data.batch(&[4, 5], true);
    let reference = slot.load().server().try_serve(&donor).expect("donor valid");

    let handle = spawn(slot, ServeConfig::default()).expect("spawn front end");
    let mut client = Client::connect(handle.addr(), Duration::from_secs(10)).unwrap();
    for case in corrupted_batches(&donor) {
        match client.post_batch(&case.batch) {
            Err(PostError::Http { status, .. }) => {
                // Non-finite payloads die in the codec (400); the rest
                // reach the server and come back as typed InvalidBatch
                // (also 400).
                assert_eq!(status, 400, "case {}: corruption must map to 400", case.name);
            }
            Ok(_) => panic!("case {}: corrupted batch was served", case.name),
            Err(other) => panic!("case {}: transport-level failure {other}", case.name),
        }
        let (_, logits) = client.post_batch(&donor).expect("donor still serves");
        assert_eq!(
            logits.as_slice(),
            reference.as_slice(),
            "case {}: donor logits drifted after the corruption",
            case.name
        );
    }
    handle.shutdown();
}
