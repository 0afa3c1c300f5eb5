//! Drift experiment: inductive serving accuracy vs promoted-node count
//! between refreshes — the live-graph lifecycle opened by `core::delta`.
//!
//! A pubmed-small condensation is trained once, then held-out test nodes
//! are split into a fixed probe set and a promotion stream. The stream is
//! promoted into the live base in waves ([`LiveBase::promote`]); after
//! every wave the probe set is re-served and scored against ground truth,
//! charting how accuracy moves as the base absorbs approximately-attached
//! nodes without a refresh. The final phase runs the incremental refresh
//! (Eq. 12–15 re-sparsification + log replay) and re-scores the probes —
//! the replay-equivalence guard asserts the refreshed logits are bitwise
//! identical to the live base's, so the refresh row's accuracy delta is
//! provably zero and its cost columns (wall ms, checkpoint bytes) are the
//! honest price of the operation. An original-graph reference row (Eq. 3,
//! full neighbourhood) bounds what serving could score with no
//! condensation at all.
//!
//! Knobs: `MCOND_DRIFT_WAVES` (promotion waves, default 5),
//! `MCOND_DRIFT_WAVE` (nodes per wave, default 16),
//! `MCOND_DRIFT_PROBES` (probe nodes, default 100),
//! `MCOND_DRIFT_EPOCHS` (training epochs, default 80).
//!
//! Output: `results/BENCH_delta_drift.json`.

use mcond_bench::{print_table, Row, TableReport};
use mcond_core::{condense, GraphDelta, InductiveServer, LiveBase, McondConfig};
use mcond_gnn::{accuracy, train, GnnKind, GnnModel, GraphOps, TrainConfig};
use mcond_graph::{load_dataset, InductiveDataset, NodeBatch, Scale};
use std::time::Instant;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Chunks `nodes` into probe batches of at most 25 (the serving batch
/// size the other benches use).
fn probe_batches(data: &InductiveDataset, nodes: &[usize]) -> Vec<NodeBatch> {
    nodes.chunks(25).map(|c| data.batch(c, true)).collect()
}

/// Serves every probe batch and returns (accuracy over all probes,
/// elapsed milliseconds). Panics on any serve error — probes were built
/// against the original training width and must stay valid under prefix
/// widening as the base grows.
fn score(server: &InductiveServer, probes: &[NodeBatch]) -> (f64, f64) {
    let start = Instant::now();
    let mut correct = 0usize;
    let mut total = 0usize;
    for (i, batch) in probes.iter().enumerate() {
        let logits = server.try_serve(batch).unwrap_or_else(|e| panic!("probe batch {i}: {e}"));
        #[allow(clippy::cast_precision_loss)]
        let acc = accuracy(&logits, &batch.labels);
        correct += (acc * batch.labels.len() as f64).round() as usize;
        total += batch.labels.len();
    }
    #[allow(clippy::cast_precision_loss)]
    (correct as f64 / total as f64, start.elapsed().as_secs_f64() * 1e3)
}

fn main() {
    let waves = env_usize("MCOND_DRIFT_WAVES", 5);
    let wave_nodes = env_usize("MCOND_DRIFT_WAVE", 16);
    let n_probes = env_usize("MCOND_DRIFT_PROBES", 100);
    let epochs = env_usize("MCOND_DRIFT_EPOCHS", 80);

    let data = load_dataset("pubmed", Scale::Small, 0).expect("pubmed generator");
    assert!(
        n_probes + waves * wave_nodes <= data.test_idx.len(),
        "probe set and promotion stream overlap: {} probes + {}x{} promoted > {} test nodes",
        n_probes,
        waves,
        wave_nodes,
        data.test_idx.len()
    );
    let probes = probe_batches(&data, &data.test_idx[..n_probes]);
    let stream = &data.test_idx[n_probes..n_probes + waves * wave_nodes];

    let cfg = McondConfig { ratio: 0.02, ..McondConfig::default() };
    let condensed = condense(&data, &cfg);
    let syn = condensed.synthetic.clone();
    let mut model =
        GnnModel::new(GnnKind::Gcn, data.full.feature_dim(), 32, data.full.num_classes, 7);
    train(
        &mut model,
        &GraphOps::from_adj(&syn.adj),
        &syn.features,
        &syn.labels,
        &TrainConfig { epochs, ..TrainConfig::default() },
        None,
    );

    let mut report = TableReport::new(
        "probe accuracy vs promoted-node count between refreshes (pubmed-small)",
    );

    // Upper reference: serving on the full original graph (Eq. 3) — what
    // the probes score with no condensation in the loop at all.
    let original = data.original_graph();
    let reference = InductiveServer::on_original(&original, &model);
    let (ref_acc, ref_ms) = score(&reference, &probes);
    report.push(
        Row::new()
            .key("phase", "reference_original")
            .metric("promoted", 0.0)
            .metric("accuracy", ref_acc)
            .metric("eval_ms", ref_ms),
    );

    let mut live =
        LiveBase::synthetic(syn, condensed.mapping.clone()).with_frozen_cache(&model);
    #[allow(clippy::cast_precision_loss)]
    let mut push_live_row = |live: &LiveBase, phase: String, promoted: usize| -> f64 {
        let (acc, eval_ms) = score(&live.server(&model), &probes);
        report.push(
            Row::new()
                .key("phase", phase)
                .metric("promoted", promoted as f64)
                .metric("accuracy", acc)
                .metric("base_nodes", live.base().num_nodes() as f64)
                .metric("mapping_nnz", live.mapping().expect("synthetic base").nnz() as f64)
                .metric("eval_ms", eval_ms),
        );
        acc
    };
    push_live_row(&live, "live".to_owned(), 0);

    for (w, chunk) in stream.chunks(wave_nodes).enumerate() {
        let delta = GraphDelta::from_batch(&data.batch(chunk, true));
        let promo = live.promote(&delta).unwrap_or_else(|e| panic!("wave {w}: {e}"));
        let promoted = wave_nodes * (w + 1);
        println!(
            "wave {w}: promoted {} nodes ({} edges), base version {} (cache {:?})",
            promo.nodes, promo.edges, promo.version, promo.cache
        );
        push_live_row(&live, "live".to_owned(), promoted);
    }

    // Incremental refresh: Eq. 12–15 re-sparsification + log replay. The
    // replayed state must be bitwise what the live base already serves —
    // guard that here so the cost columns describe a provably-lossless
    // operation.
    let refresh_start = Instant::now();
    let (refreshed, ckpt) =
        live.refresh(&condensed, &model, cfg.mu, cfg.delta).expect("refresh");
    let refresh_ms = refresh_start.elapsed().as_secs_f64() * 1e3;
    {
        let live_srv = live.server(&model);
        let fresh_srv = refreshed.server(&model);
        for (i, batch) in probes.iter().enumerate() {
            let a = live_srv.try_serve(batch).expect("live probe");
            let b = fresh_srv.try_serve(batch).expect("refreshed probe");
            assert!(
                a.bit_eq(&b),
                "probe batch {i}: refresh replay diverged from the live base — refusing to report"
            );
        }
        println!("verified {} probe batches bitwise stable across refresh", probes.len());
    }
    let ckpt_bytes = ckpt.to_writer().to_bytes().len();
    let lineage = ckpt.lineage.expect("refresh stamps lineage");
    #[allow(clippy::cast_precision_loss)]
    {
        let (acc, eval_ms) = score(&refreshed.server(&model), &probes);
        report.push(
            Row::new()
                .key("phase", "refreshed")
                .metric("promoted", lineage.promoted_nodes as f64)
                .metric("accuracy", acc)
                .metric("base_nodes", refreshed.base().num_nodes() as f64)
                .metric("mapping_nnz", refreshed.mapping().expect("synthetic").nnz() as f64)
                .metric("eval_ms", eval_ms)
                .metric("refresh_ms", refresh_ms)
                .metric("checkpoint_bytes", ckpt_bytes as f64),
        );
    }

    report.attach_metrics(&mcond_obs::snapshot());
    print_table(&report);
    report.dump_bench_json("BENCH_delta_drift");
}
