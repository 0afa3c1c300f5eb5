//! Hot-swap chaos: ≥100 checkpoint reloads under closed-loop client load
//! with zero non-200s, every answer bitwise-verified against the exact
//! epoch its `x-mcond-epoch` header claims; corrupt-checkpoint reload
//! storms that never disturb serving; and the watchdog recovering a
//! panicked or wedged batcher with typed answers for its orphans.

mod common;

use common::counter;
use mcond_core::{Checkpoint, GraphDelta, InductiveServer, LiveBase};
use mcond_graph::NodeBatch;
use mcond_linalg::MatRng;
use mcond_obs::Json;
use mcond_serve::{boot_slot, spawn, Client, PostError, ServeConfig};
use mcond_sparse::{Coo, Csr};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many hot swaps the storm performs (ISSUE floor: 100).
const RELOADS: usize = 100;

fn reload_body(path: &std::path::Path) -> Vec<u8> {
    format!("{{\"path\": \"{}\"}}", path.display()).into_bytes()
}

/// The probe batch the closed-loop clients hammer: one test node from the
/// toy split, valid against every toy checkpoint.
fn probe_batch() -> NodeBatch {
    common::dataset().batch(&[4, 5], true)
}

/// Expected logits for `batch` under the checkpoint `seed` produces —
/// computed through the plain borrowing server, the reference the wire
/// answers must match bitwise.
fn expected_logits(seed: u64, batch: &NodeBatch) -> Vec<f32> {
    let ckpt = common::toy_checkpoint(seed);
    let server = InductiveServer::from_checkpoint(&ckpt);
    server.try_serve(batch).expect("probe batch valid").as_slice().to_vec()
}

/// ≥100 hot swaps between two bitwise-distinct checkpoints while four
/// closed-loop clients hammer `/v1/serve`: every response is a 200, and
/// every response's logits match the checkpoint its epoch header claims —
/// epoch parity tells us which file was live (boot = A = odd epochs).
#[test]
fn hundred_reloads_under_load_serve_only_200s_with_epoch_true_answers() {
    const SEED_A: u64 = 11;
    const SEED_B: u64 = 22;
    let path_a = common::checkpoint_file("storm_a", SEED_A);
    let path_b = common::checkpoint_file("storm_b", SEED_B);
    let batch = probe_batch();
    let want_a = expected_logits(SEED_A, &batch);
    let want_b = expected_logits(SEED_B, &batch);
    assert_ne!(want_a, want_b, "the two checkpoints must be bitwise distinguishable");

    let slot = boot_slot(&path_a).expect("boot from checkpoint A");
    let handle = spawn(slot, ServeConfig::default()).expect("spawn front end");
    let addr = handle.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..4)
        .map(|t| {
            let stop = Arc::clone(&stop);
            let batch = batch.clone();
            std::thread::spawn(move || {
                let mut client =
                    Client::connect(addr, Duration::from_secs(30)).expect("connect");
                let mut seen: Vec<(u64, Vec<f32>)> = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    let reply = client
                        .post_batch_tagged(&batch)
                        .unwrap_or_else(|e| panic!("client {t}: non-200 under reload storm: {e}"));
                    let epoch = reply.epoch.expect("every response carries x-mcond-epoch");
                    seen.push((epoch, reply.logits.as_slice().to_vec()));
                }
                seen
            })
        })
        .collect();

    // The storm: alternate B, A, B, A, ... so epoch e serves A when e is
    // odd (epoch 1 booted from A) and B when e is even.
    let mut admin = Client::connect(addr, Duration::from_secs(30)).expect("admin connect");
    for i in 1..=RELOADS {
        let path = if i % 2 == 1 { &path_b } else { &path_a };
        let resp = admin
            .request("POST", "/v1/admin/reload", &reload_body(path))
            .expect("reload request");
        assert_eq!(resp.status, 200, "reload {i} failed: {}", resp.text());
    }
    stop.store(true, Ordering::Release);

    let mut total = 0usize;
    let mut epochs_seen = std::collections::BTreeSet::new();
    for worker in clients {
        for (epoch, logits) in worker.join().expect("client thread panicked") {
            let want = if epoch % 2 == 1 { &want_a } else { &want_b };
            assert_eq!(
                &logits, want,
                "epoch {epoch}: logits are not bitwise the checkpoint this epoch installed"
            );
            epochs_seen.insert(epoch);
            total += 1;
        }
    }
    assert!(total > 0, "closed-loop clients must actually serve traffic");
    assert!(
        epochs_seen.len() >= 2,
        "traffic must span multiple epochs to prove the swap happened under load; saw {epochs_seen:?}"
    );
    assert_eq!(handle.epoch(), 1 + RELOADS as u64, "one epoch per successful reload");

    handle.shutdown();
    std::fs::remove_file(path_a).ok();
    std::fs::remove_file(path_b).ok();
}

/// Retired epochs are freed through the real reload path: the front end
/// (handlers, batcher, reload pipeline), not just `EpochSlot`, must let go
/// of an epoch once the next one answers. 50 reloads of one bundle with a
/// served request after each; every earlier epoch is then unreachable.
#[test]
fn fifty_reloads_through_the_front_end_free_every_retired_epoch() {
    const RELOADS: u64 = 50;
    let path = common::checkpoint_file("retire", 51);
    let batch = probe_batch();
    let slot = boot_slot(&path).expect("boot from checkpoint");
    let handle = spawn(Arc::clone(&slot), ServeConfig::default()).expect("spawn front end");
    let mut client = Client::connect(handle.addr(), Duration::from_secs(30)).expect("connect");

    let mut retired = Vec::new();
    for i in 1..=RELOADS {
        retired.push(Arc::downgrade(&slot.load()));
        handle.reload(&path).unwrap_or_else(|e| panic!("reload {i}: {e}"));
        let reply = client.post_batch_tagged(&batch).expect("served after the swap");
        assert_eq!(reply.epoch, Some(1 + i), "the request after reload {i} runs on its epoch");
    }
    assert_eq!(handle.epoch(), 1 + RELOADS);
    for (i, epoch) in retired.iter().enumerate() {
        assert!(epoch.upgrade().is_none(), "epoch {} is still held after retirement", i + 1);
    }

    handle.shutdown();
    std::fs::remove_file(path).ok();
}

/// The live-graph loop under traffic: 100 cycles of promote-one-node →
/// checkpoint of the grown base → hot swap, while four closed-loop clients
/// hammer `/v1/serve` with an *original-width* probe batch. Zero non-200s
/// — prefix validation keeps old clients serveable against every grown
/// epoch — and each successful swap advances exactly one epoch.
#[test]
fn interleaved_promotions_and_hot_swaps_serve_only_200s() {
    const CYCLES: usize = 100;
    let ckpt0 = common::toy_checkpoint(41);
    let model = ckpt0.model.clone();
    let mut live = LiveBase::synthetic(ckpt0.synthetic.clone(), ckpt0.mapping.clone());
    let path = std::env::temp_dir().join(format!(
        "mcond_serve_interleave_{}.mcst",
        std::process::id()
    ));
    ckpt0.save(&path).expect("save boot checkpoint");

    let slot = boot_slot(&path).expect("boot from checkpoint");
    let handle = spawn(slot, ServeConfig::default()).expect("spawn front end");
    let addr = handle.addr();
    let batch = probe_batch();

    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..4)
        .map(|t| {
            let stop = Arc::clone(&stop);
            let batch = batch.clone();
            std::thread::spawn(move || {
                let mut client =
                    Client::connect(addr, Duration::from_secs(30)).expect("connect");
                let mut served = 0usize;
                while !stop.load(Ordering::Acquire) {
                    client.post_batch_tagged(&batch).unwrap_or_else(|e| {
                        panic!("client {t}: non-200 during promote/swap interleave: {e}")
                    });
                    served += 1;
                }
                served
            })
        })
        .collect();

    let mut admin = Client::connect(addr, Duration::from_secs(30)).expect("admin connect");
    for i in 1..=CYCLES {
        // Promote one node, attached to a rotating original train node.
        let width = live.inc_width();
        let mut inc = Coo::new(1, width);
        inc.push(0, i % common::INC_COLS, 1.0);
        let delta = GraphDelta::new(NodeBatch {
            features: MatRng::seed_from(1000 + i as u64).normal(
                1,
                common::FEATURE_DIM,
                0.0,
                1.0,
            ),
            incremental: inc.to_csr(),
            interconnect: Csr::empty(1, 1),
            labels: vec![i % 2],
        });
        let report = live.promote(&delta).unwrap_or_else(|e| panic!("promotion {i}: {e}"));
        assert_eq!(report.version, i as u64);

        // Bundle the grown base and hot-swap it in.
        Checkpoint::new(live.base().clone(), live.mapping().clone(), model.clone())
            .expect("grown base bundles")
            .save(&path)
            .expect("save grown checkpoint");
        let resp = admin
            .request("POST", "/v1/admin/reload", &reload_body(&path))
            .expect("reload request");
        assert_eq!(resp.status, 200, "swap {i} failed: {}", resp.text());
    }
    stop.store(true, Ordering::Release);

    let total: usize = clients.into_iter().map(|c| c.join().expect("client panicked")).sum();
    assert!(total > 0, "closed-loop clients must actually serve traffic");
    assert_eq!(handle.epoch(), 1 + CYCLES as u64, "one epoch per promote/swap cycle");

    // The final epoch serves the fully grown base: two synthetic nodes
    // plus one per promotion.
    let health = admin.request("GET", "/healthz", b"").expect("healthz");
    let health = Json::parse(&health.text()).expect("healthz body is JSON");
    assert_eq!(
        health.get("base_nodes").and_then(Json::as_f64),
        Some((2 + CYCLES) as f64),
        "the final epoch serves the fully grown base"
    );

    handle.shutdown();
    std::fs::remove_file(path).ok();
}

/// A storm of reloads pointing at a corrupt bundle: the first attempt is
/// rejected 422 by CRC validation, immediate retries are rejected 429 by
/// the exponential backoff, and between every rejection the old epoch
/// keeps answering bitwise-identical logits. A valid bundle after the
/// backoff elapses swaps cleanly and resets the gate.
#[test]
fn corrupt_reload_storm_never_disturbs_serving_and_backoff_gates_retries() {
    const SEED_A: u64 = 31;
    const SEED_B: u64 = 32;
    let path_a = common::checkpoint_file("corrupt_good", SEED_A);
    let path_b = common::checkpoint_file("corrupt_next", SEED_B);

    // Corrupt copy of A: flip a byte mid-file so a section CRC breaks.
    let corrupt = std::env::temp_dir()
        .join(format!("mcond_serve_corrupt_{}_{SEED_A}.mcst", std::process::id()));
    let mut bytes = std::fs::read(&path_a).expect("read valid bundle");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&corrupt, &bytes).expect("write corrupt bundle");

    let batch = probe_batch();
    let want_a = expected_logits(SEED_A, &batch);

    let slot = boot_slot(&path_a).expect("boot from checkpoint A");
    let cfg = ServeConfig {
        reload_backoff: Duration::from_millis(200),
        reload_backoff_cap: Duration::from_secs(2),
        ..ServeConfig::default()
    };
    let handle = spawn(slot, cfg).expect("spawn front end");
    let mut admin = Client::connect(handle.addr(), Duration::from_secs(10)).unwrap();
    let mut serve = Client::connect(handle.addr(), Duration::from_secs(10)).unwrap();

    let mut saw_422 = 0u32;
    let mut saw_429 = 0u32;
    for i in 0..10 {
        let resp = admin
            .request("POST", "/v1/admin/reload", &reload_body(&corrupt))
            .expect("reload request");
        match resp.status {
            422 => saw_422 += 1,
            429 => {
                let retry: u64 = resp
                    .header("retry-after")
                    .expect("backoff rejection advertises Retry-After")
                    .parse()
                    .expect("integral Retry-After");
                assert!(retry >= 1, "Retry-After floor is one second");
                saw_429 += 1;
            }
            other => panic!("attempt {i}: corrupt reload must answer 422 or 429, got {other}"),
        }
        // The old epoch is bitwise untouched between every rejection.
        let reply = serve.post_batch_tagged(&batch).expect("serving survives the storm");
        assert_eq!(reply.epoch, Some(1), "no corrupt bundle ever became an epoch");
        assert_eq!(
            reply.logits.as_slice(),
            want_a.as_slice(),
            "attempt {i}: in-flight answers drifted during the corrupt storm"
        );
    }
    assert!(saw_422 >= 1, "the CRC rejection must surface at least once");
    assert!(saw_429 >= 1, "the backoff must gate at least one immediate retry");
    assert_eq!(handle.epoch(), 1, "corrupt bundles never swap");

    // Wait out the armed backoff (doubled per failure, capped at 2s) and
    // prove a valid bundle still swaps — failure never bricks reloads.
    std::thread::sleep(Duration::from_millis(2_200));
    let resp = admin
        .request("POST", "/v1/admin/reload", &reload_body(&path_b))
        .expect("reload request");
    assert_eq!(resp.status, 200, "valid reload after backoff: {}", resp.text());
    assert_eq!(handle.epoch(), 2);
    let reply = serve.post_batch_tagged(&batch).expect("serving continues on the new epoch");
    assert_eq!(reply.epoch, Some(2));
    assert_eq!(reply.logits.as_slice(), expected_logits(SEED_B, &batch).as_slice());

    handle.shutdown();
    for p in [path_a, path_b, corrupt] {
        std::fs::remove_file(p).ok();
    }
}

/// A panicked batcher: the heartbeat dies, the watchdog respawns within
/// one period, and a request queued across the gap is served by the
/// replacement — the client sees a plain 200, never an error.
#[test]
fn watchdog_respawns_a_panicked_batcher_and_queued_work_survives() {
    let data = common::dataset();
    let cfg = ServeConfig {
        watchdog_period: Duration::from_millis(150),
        ..ServeConfig::default()
    };
    let handle = spawn(common::toy_slot(), cfg).expect("spawn front end");
    let mut client = Client::connect(handle.addr(), Duration::from_secs(30)).unwrap();
    let restarts_before = counter(&mut client, "serve.watchdog.restarts");

    let batch = data.batch(&[4], false);
    let (_, logits) = client.post_batch(&batch).expect("healthy before the chaos");
    assert_eq!(logits.rows(), 1);

    handle.inject_batcher_panic();
    // Let the batcher actually hit the injected panic on its next tick.
    std::thread::sleep(Duration::from_millis(60));

    let t0 = Instant::now();
    let (_, logits) = client
        .post_batch(&batch)
        .expect("request queued across the panic is served by the respawned batcher");
    assert_eq!(logits.rows(), 1);
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "recovery must land within a couple of watchdog periods, took {:?}",
        t0.elapsed()
    );
    let restarts_after = counter(&mut client, "serve.watchdog.restarts");
    assert!(
        restarts_after > restarts_before,
        "the restart must be counted: before {restarts_before}, after {restarts_after}"
    );
    handle.shutdown();
}

/// A wedged batcher with a job already in flight: the watchdog answers
/// the orphan with a typed `503 aborted` instead of leaving its handler
/// to time out, and a fresh request lands on the replacement.
#[test]
fn watchdog_aborts_inflight_orphans_of_a_stalled_batcher() {
    let data = common::dataset();
    let cfg = ServeConfig {
        watchdog_period: Duration::from_millis(150),
        ..ServeConfig::default()
    };
    let handle = spawn(common::toy_slot(), cfg).expect("spawn front end");
    let addr = handle.addr();

    // The stall triggers after the batcher takes its *next* batch in
    // flight — exactly the window where a job is dequeued but unanswered.
    handle.inject_batcher_stall(Duration::from_secs(5));
    let batch = data.batch(&[4], false);
    let t0 = Instant::now();
    let mut client = Client::connect(addr, Duration::from_secs(30)).unwrap();
    match client.post_batch(&batch) {
        Err(PostError::Http { status, body }) => {
            assert_eq!(status, 503, "orphaned job answers a typed 503");
            assert!(body.contains("aborted"), "error envelope names the kind: {body}");
        }
        other => panic!("expected the watchdog to abort the orphan, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "the orphan must be answered within a couple of watchdog periods, not the \
         5s stall: took {:?}",
        t0.elapsed()
    );

    // The replacement batcher serves fresh traffic long before the wedged
    // predecessor wakes (it self-retires via the generation check).
    let mut fresh = Client::connect(addr, Duration::from_secs(30)).unwrap();
    let (_, logits) = fresh.post_batch(&batch).expect("replacement batcher serves");
    assert_eq!(logits.rows(), 1);
    handle.shutdown();
}
