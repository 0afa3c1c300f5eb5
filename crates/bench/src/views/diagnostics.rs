//! Views that are not in the paper: the frozen-base predictor ablation
//! and the dataset-difficulty calibration.

use super::at_ratio;
use crate::eval::evaluate_inductive;
use crate::jobs::{default_batch_size, default_epochs, Jobs};
use crate::report::{Row, TableReport};
use mcond_core::InductiveServer;
use mcond_gnn::{train, FrozenBase, GnnKind, GnnModel, GraphOps, TrainConfig};
use mcond_graph::NodeBatch;
use mcond_linalg::DMat;
use std::time::Instant;

/// Answers every batch with `predict`; returns the logits and the mean
/// microseconds per batch.
fn time_all(batches: &[NodeBatch], predict: impl Fn(&NodeBatch) -> DMat) -> (Vec<DMat>, f64) {
    let start = Instant::now();
    let logits: Vec<DMat> = batches.iter().map(predict).collect();
    (logits, start.elapsed().as_secs_f64() * 1e6 / batches.len() as f64)
}

/// What the one-way [`FrozenBase`] predictor answers, against the exact
/// path `InductiveServer::try_serve` runs, on the paper's two attachment
/// targets (DESIGN.md §4g):
///
/// * synthetic — the condensed graph `S` through the mapping `M` (Eq. 11),
/// * original — the training graph `T` (Eq. 3),
///
/// for one-node requests and for graph batches, with a GCN trained on `S`.
/// The cache is built once per target from the base graph, and fed each
/// batch's attachment rows (`InductiveServer::attachment`).
/// Per seed × target × request shape × mode: test `accuracy`, argmax
/// `agreement_with_exact`, `max_abs_logit_dev` from the exact logits, and
/// mean `us_per_batch`. The exact rows are their own reference (agreement
/// 1, deviation 0).
pub fn ablation_serve_mode(jobs: &Jobs, name: &str, report: &mut TableReport) {
    let batch_size = default_batch_size(jobs.args.scale);
    let ratio = jobs.ratios(name)[1];
    for rep in 0..jobs.args.repeats {
        let seed = jobs.args.seed + rep as u64;
        let ds = jobs.dataset(name, seed);
        let condensed = jobs.mcond(&ds, ratio);
        let model = jobs.model(&condensed, GnnKind::Gcn, seed);
        let targets = [
            ("synthetic", &condensed.synthetic, Some(&condensed.mapping)),
            ("original", &ds.original, None),
        ];
        for (target, base, mapping) in targets {
            let server = match mapping {
                Some(m) => InductiveServer::on_synthetic(base, m, &model),
                None => InductiveServer::on_original(base, &model),
            };
            let cache = FrozenBase::new(&model, &base.adj, &base.features);
            for (shape, size) in [("1-node", 1), ("graph batch", batch_size)] {
                let batches = ds.data.test_batches(size, true);
                let nodes: usize = batches.iter().map(NodeBatch::len).sum();
                let (exact, exact_us) =
                    time_all(&batches, |b| server.try_serve(b).expect("test batch serves"));
                let (frozen, frozen_us) = time_all(&batches, |b| {
                    let attach = server.attachment(b);
                    model.predict_frozen(&cache, &attach, &b.interconnect, &b.features)
                });
                for (mode, logits, us) in
                    [("exact", &exact, exact_us), ("frozen", &frozen, frozen_us)]
                {
                    let (mut hits, mut agree, mut dev) = (0usize, 0usize, 0.0f32);
                    for ((got, want), batch) in logits.iter().zip(&exact).zip(&batches) {
                        let (got_cls, want_cls) = (got.argmax_rows(), want.argmax_rows());
                        hits += got_cls.iter().zip(&batch.labels).filter(|(a, b)| a == b).count();
                        agree += got_cls.iter().zip(&want_cls).filter(|(a, b)| a == b).count();
                        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                            dev = dev.max((g - w).abs());
                        }
                    }
                    report.push(
                        Row::new()
                            .key("dataset", at_ratio(name, ratio))
                            .key("seed", seed)
                            .key("target", target)
                            .key("shape", format!("{shape} ({size})"))
                            .key("mode", mode)
                            .metric("accuracy", hits as f64 / nodes as f64)
                            .metric("agreement_with_exact", agree as f64 / nodes as f64)
                            .metric("max_abs_logit_dev", f64::from(dev))
                            .metric("us_per_batch", us),
                    );
                }
            }
        }
    }
}

/// Dataset-difficulty diagnostics for the synthetic stand-ins.
///
/// The paper's result ordering depends on three dataset traits:
///
/// * **feature-only accuracy** (SGC with 0 hops) must sit well below
/// * **structure accuracy** (Whole: SGC with 2 hops on the full graph), and
/// * **coreset starvation**: at ratio `r`, a test node should have ≈
///   `r · degree` edges into a random coreset — when this is ≪ 1 the
///   coreset baselines collapse, as on real Reddit.
///
/// Run after touching the generator knobs in `mcond-graph/src/specs.rs`.
pub fn calibrate_datasets(jobs: &Jobs, name: &str, report: &mut TableReport) {
    let seed = jobs.args.seed;
    let ratios = jobs.ratios(name);
    let ds = jobs.dataset(name, seed);
    let original = &ds.original;
    let ops = GraphOps::from_adj(&original.adj);
    let epochs = jobs.args.epochs.unwrap_or_else(|| default_epochs(jobs.args.scale));
    let cfg = TrainConfig { epochs, lr: 0.03, ..TrainConfig::default() };

    let eval_with_hops = |hops: usize| -> f64 {
        let mut model =
            GnnModel::new(GnnKind::Sgc, original.feature_dim(), 0, original.num_classes, seed);
        model.hops = hops;
        train(&mut model, &ops, &original.features, &original.labels, &cfg, None);
        let batches = ds.data.test_batches(default_batch_size(jobs.args.scale), false);
        evaluate_inductive(&InductiveServer::on_original(original, &model), &batches).accuracy
    };
    let feature_only = eval_with_hops(0);
    let structural = eval_with_hops(2);

    // Mean test-node edges into the training graph, and the expected
    // edges into a random coreset of size r·N at each paper ratio.
    let batches = ds.data.test_batches(usize::MAX, false);
    let test_degree = batches.iter().map(|b| b.incremental.nnz() as f64).sum::<f64>()
        / ds.data.test_idx.len() as f64;

    report.push(
        Row::new()
            .key("dataset", name)
            .metric("feature_only_acc", 100.0 * feature_only)
            .metric("whole_acc", 100.0 * structural)
            .metric("structure_gain", 100.0 * (structural - feature_only))
            .metric("test_degree", test_degree)
            .metric("coreset_edges_r0", test_degree * ratios[0])
            .metric("coreset_edges_r1", test_degree * ratios[1]),
    );
}
