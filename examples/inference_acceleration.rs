//! The headline experiment in miniature: how much faster and smaller is
//! inductive inference on the condensed graph versus the original graph?
//! (Paper: up to 121.5x speedup and 55.9x memory reduction on Reddit.)
//!
//! Both targets are served through [`InductiveServer::try_serve`] — the
//! one attach path. The second half times the one-way [`FrozenBase`]
//! predictor on the condensed graph, fed the server's attachment rows.
//!
//! ```sh
//! cargo run --release --example inference_acceleration
//! ```

use mcond::prelude::*;
use std::time::Instant;

fn main() {
    // Reddit-like: the largest, densest bundled dataset.
    let data = load_dataset("reddit", Scale::Small, 0).expect("bundled dataset");
    let original = data.original_graph();
    let condensed = condense(
        &data,
        &McondConfig { ratio: 0.01, outer_loops: 3, relay_steps: 10, ..Default::default() },
    );

    // One model serves both targets: train on the original graph (O->·).
    let ops = GraphOps::from_adj(&original.adj);
    let mut model = GnnModel::new(
        GnnKind::Sgc,
        original.feature_dim(),
        64,
        original.num_classes,
        0,
    );
    train(
        &mut model,
        &ops,
        &original.features,
        &original.labels,
        &TrainConfig { epochs: 150, lr: 0.03, ..TrainConfig::default() },
        None,
    );

    let batches = data.test_batches(1000, true);
    let servers = [
        ("original graph (Whole)", InductiveServer::on_original(&original, &model)),
        (
            "synthetic graph (MCond)",
            InductiveServer::on_synthetic(&condensed.synthetic, &condensed.mapping, &model),
        ),
    ];

    let mut costs = Vec::new();
    for (label, server) in &servers {
        let mut seconds = 0.0;
        let mut memory = 0usize;
        let mut hits = 0.0;
        let mut total = 0usize;
        for batch in &batches {
            let start = Instant::now();
            let logits = server.try_serve(batch).expect("test batch serves");
            seconds += start.elapsed().as_secs_f64();
            hits += accuracy(&logits, &batch.labels) * batch.len() as f64;
            total += batch.len();
            // §II-B storage model: the extended graph's bytes, counted.
            let attach_nnz = server.attachment(batch).nnz();
            memory = memory.max(extended_storage_bytes(server.base_graph(), attach_nnz, batch));
        }
        println!(
            "{label:>24}: acc {:.2}%  time {:.2} ms/batch  memory {:.2} MB",
            100.0 * hits / total as f64,
            1000.0 * seconds / batches.len() as f64,
            memory as f64 / 1e6
        );
        costs.push((seconds, memory));
    }

    println!(
        "\nMCond vs Whole: {:.1}x inference speedup, {:.1}x memory reduction",
        costs[0].0 / costs[1].0.max(1e-12),
        costs[0].1 as f64 / costs[1].1.max(1) as f64
    );

    // --- Frozen-base predictor on the condensed graph -------------------
    // A different predictor on connected batches (see
    // results/ablation_serve_mode.txt): per-layer base activations are
    // cached once, so a request touches only its own rows.
    let (_, server) = &servers[1];
    let syn = &condensed.synthetic;
    let cache = FrozenBase::new(&model, &syn.adj, &syn.features);
    let start = Instant::now();
    for b in &batches {
        let attach = server.attachment(b);
        let logits = model.predict_frozen(&cache, &attach, &b.interconnect, &b.features);
        assert!(logits.all_finite(), "frozen-base logits must be finite");
    }
    println!(
        "FrozenBase (one-way attach) on the condensed graph: {:.2} ms/batch",
        1000.0 * start.elapsed().as_secs_f64() / batches.len() as f64
    );
}
