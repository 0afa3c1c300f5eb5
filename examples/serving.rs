//! Deployment serving: persist a condensation artifact (one `MCST`
//! container — a checkpoint without its `model` section), reload it, and
//! serve inductive batches with [`InductiveServer`], then put the same
//! artifact behind the `mcond-serve` HTTP front end and round-trip a
//! batch over a real localhost socket.
//!
//! ```sh
//! cargo run --release --example serving
//! ```
//!
//! Set `MCOND_SERVE_HOLD_SECS=30` to keep the HTTP server alive after
//! the demo so you can poke it with curl (the example prints a ready-to-
//! paste command).

use mcond::core::{load_condensed, save_condensed, Checkpoint, InductiveServer};
use mcond::prelude::*;
use mcond::serve::{boot_slot, encode_batch, spawn, Client};
use std::time::{Duration, Instant};

fn main() {
    // Condense once (the "offline" phase).
    let data = load_dataset("reddit", Scale::Small, 0).expect("bundled dataset");
    let condensed = condense(
        &data,
        &McondConfig { ratio: 0.015, outer_loops: 3, relay_steps: 10, ..Default::default() },
    );

    // Ship the artifact: synthetic graph + mapping, no original graph.
    let dir = std::env::temp_dir().join("mcond_serving_artifact");
    save_condensed(&condensed, &dir).expect("save artifact");
    let artifact = load_condensed(&dir).expect("load artifact");
    std::fs::remove_dir_all(&dir).ok();
    println!(
        "artifact: {} synthetic nodes, {:.3} MB total",
        artifact.synthetic.num_nodes(),
        artifact.storage_bytes() as f64 / 1e6
    );

    // Train the deployment model on the synthetic graph.
    let ops = GraphOps::from_adj(&artifact.synthetic.adj);
    let mut model = GnnModel::new(
        GnnKind::Sgc,
        artifact.synthetic.feature_dim(),
        64,
        artifact.synthetic.num_classes,
        0,
    );
    train(
        &mut model,
        &ops,
        &artifact.synthetic.features,
        &artifact.synthetic.labels,
        &TrainConfig { epochs: 150, lr: 0.03, ..TrainConfig::default() },
        None,
    );

    // Serve the test batches from the library.
    let batches = data.test_batches(100, true);
    let server = InductiveServer::on_synthetic(&artifact.synthetic, &artifact.mapping, &model);
    let start = Instant::now();
    let mut hits = 0.0;
    let mut total = 0usize;
    for batch in &batches {
        let logits = server.try_serve(batch).expect("test batch serves");
        hits += accuracy(&logits, &batch.labels) * batch.len() as f64;
        total += batch.len();
    }
    println!(
        "library serving: {:.2}% accuracy, {:.2} ms for {} batches",
        100.0 * hits / total as f64,
        1000.0 * start.elapsed().as_secs_f64(),
        batches.len()
    );

    // ── Network serving ────────────────────────────────────────────────
    // Bundle the deployable triple (S, M, weights) as one checkpoint,
    // boot an HTTP front end from the file alone, and verify a wire
    // round trip is bitwise identical to the library call.
    let ckpt_path = std::env::temp_dir().join("mcond_serving_demo.mckpt");
    let bytes =
        Checkpoint::new(artifact.synthetic.clone(), artifact.mapping.clone(), model.clone())
            .expect("artifact sections agree")
            .save(&ckpt_path)
            .expect("write checkpoint");
    println!("\ncheckpoint: {} ({bytes} bytes)", ckpt_path.display());

    let slot = boot_slot(&ckpt_path).expect("boot from checkpoint");
    let handle = spawn(slot.clone(), ServeConfig::default()).expect("bind localhost");
    println!(
        "HTTP front end listening on http://{} (epoch {})",
        handle.addr(),
        handle.epoch()
    );

    let demo = &batches[0];
    let direct = slot.load().server().try_serve(demo).expect("library serve");
    let mut client = Client::connect(handle.addr(), Duration::from_secs(10)).expect("connect");
    let (trace, wire) = client.post_batch(demo).expect("HTTP serve");
    assert!(
        wire.bit_eq(&direct),
        "HTTP logits must be bitwise identical to the library call"
    );
    println!(
        "POST /v1/serve: {} logits rows over the socket, bitwise equal to try_serve \
         (trace id {trace})",
        wire.rows()
    );
    let health = client.request("GET", "/healthz", b"").expect("healthz");
    println!("GET /healthz: {} {}", health.status, health.text());

    // ── Zero-downtime hot reload ───────────────────────────────────────
    // Train a v2 of the model, save it as a second checkpoint, and swap
    // it in under the live server: validated load + canary + one pointer
    // exchange. In-flight requests finish on their epoch; every response
    // names its epoch in `x-mcond-epoch`.
    let mut model_v2 = model;
    train(
        &mut model_v2,
        &ops,
        &artifact.synthetic.features,
        &artifact.synthetic.labels,
        &TrainConfig { epochs: 50, lr: 0.03, ..TrainConfig::default() },
        None,
    );
    let v2_path = std::env::temp_dir().join("mcond_serving_demo_v2.mckpt");
    Checkpoint::new(artifact.synthetic.clone(), artifact.mapping.clone(), model_v2)
        .expect("v2 sections agree")
        .save(&v2_path)
        .expect("write v2 checkpoint");
    let before = handle.epoch();
    let outcome = handle.reload(&v2_path).expect("hot reload");
    println!(
        "hot reload: epoch {before} -> {} (checkpoint {}), zero requests dropped",
        outcome.epoch, outcome.checkpoint_id
    );
    let reply = client.post_batch_tagged(demo).expect("serve on the new epoch");
    assert_eq!(
        reply.epoch,
        Some(outcome.epoch),
        "responses after the swap must carry the new epoch"
    );
    println!(
        "POST /v1/serve after the swap: x-mcond-epoch {} on the same keep-alive connection",
        outcome.epoch
    );

    // A request body for manual exploration.
    let body_path = std::env::temp_dir().join("mcond_serving_demo_batch.json");
    std::fs::write(&body_path, encode_batch(demo)).expect("write demo batch");
    println!(
        "\ntry it yourself:\n  curl -s -X POST http://{addr}/v1/serve --data-binary @{body}\n  \
         curl -s http://{addr}/metrics\n  curl -s http://{addr}/healthz\n  \
         curl -s -X POST http://{addr}/v1/admin/reload -d '{{\"path\": \"{v2}\"}}'",
        addr = handle.addr(),
        body = body_path.display(),
        v2 = v2_path.display()
    );
    if let Ok(hold) = std::env::var("MCOND_SERVE_HOLD_SECS") {
        let secs: u64 = hold.parse().unwrap_or(30);
        println!("holding the server for {secs}s (MCOND_SERVE_HOLD_SECS)...");
        std::thread::sleep(Duration::from_secs(secs));
    }
    handle.shutdown();
    std::fs::remove_file(&ckpt_path).ok();
    std::fs::remove_file(&v2_path).ok();
}
