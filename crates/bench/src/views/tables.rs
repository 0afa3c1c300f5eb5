//! Tables I–V.

use super::{at_ratio, paper_ratio, BATCH_MODES};
use crate::eval::{evaluate_inductive, mean_std, propagated_embeddings};
use crate::jobs::{default_batch_size, default_condense_config, Jobs};
use crate::report::{Row, TableReport};
use mcond_core::{coreset, vng, CoresetMethod, InductiveServer, McondConfig};
use mcond_gnn::{accuracy, BaseDegrees, GnnKind, GnnModel, GraphOps, Propagator};
use mcond_graph::{Graph, NodeBatch};
use mcond_linalg::DMat;
use mcond_propagate::{error_propagation, label_propagation};
use mcond_sparse::Csr;
use std::time::Instant;

/// Table I: dataset properties. Node/edge/feature/class counts and the
/// training-set size (the original graph handed to condensation),
/// alongside homophily as a sanity column for the synthetic substitution.
pub fn table1(jobs: &Jobs, name: &str, report: &mut TableReport) {
    let data = &jobs.dataset(name, jobs.args.seed).data;
    let stats = data.full.stats();
    report.push(
        Row::new()
            .key("dataset", name)
            .metric("#nodes", stats.nodes as f64)
            .metric("#edges", stats.edges as f64)
            .metric("#feature", stats.features as f64)
            .metric("#class", stats.classes as f64)
            .metric("#training", data.train_idx.len() as f64)
            .metric("homophily", data.full.edge_homophily()),
    );
}

/// Method → accuracy per repeat (percent), methods in first-seen order.
type Cells = Vec<(String, Vec<f64>)>;

fn record(cells: &mut Cells, method: &str, v: f64) {
    if let Some(slot) = cells.iter_mut().find(|(k, _)| k == method) {
        slot.1.push(v);
    } else {
        cells.push((method.to_owned(), vec![v]));
    }
}

/// Table II: inductive test accuracy of every method under both batch
/// settings and both condensation ratios.
///
/// Methods: Whole (O->O), Random/Degree/Herding/K-Center coresets and VNG
/// (train on T, infer on reduced graph), MCond_OS (O->S), GCond (S->O),
/// MCond_SO (S->O), MCond_SS (S->S).
pub fn table2(jobs: &Jobs, name: &str, report: &mut TableReport) {
    let scale = jobs.args.scale;
    let ratios = jobs.ratios(name);
    // One cell block per (ratio, batch mode).
    let mut cells: [[Cells; 2]; 2] = Default::default();
    for rep in 0..jobs.args.repeats {
        let seed = jobs.args.seed + rep as u64;
        let ds = jobs.dataset(name, seed);
        let original = &ds.original;
        let model_original = jobs.model(&ds, GnnKind::Sgc, seed);
        let embeddings = propagated_embeddings(original, 2);
        let batches = BATCH_MODES
            .map(|(graph_batch, _)| ds.data.test_batches(default_batch_size(scale), graph_batch));
        for (&ratio, ratio_cells) in ratios.iter().zip(&mut cells) {
            let mcond = jobs.mcond(&ds, ratio);
            let model_synthetic = jobs.model(&mcond, GnnKind::Sgc, seed);

            // Coresets and VNG: train on T, infer on reduced graph.
            let n_syn = mcond.synthetic.num_nodes();
            let coresets = CoresetMethod::ALL
                .map(|method| (method, coreset(original, &embeddings, n_syn, method, seed)));
            let virtual_graph = vng(original, &original.features, n_syn, seed);

            // GCond baseline: separate condensation without the MCond
            // additions, trained on S, inferred on the original.
            let scale_defaults = default_condense_config(name, scale, ratio, seed);
            let gcond_cfg = McondConfig {
                outer_loops: scale_defaults.outer_loops,
                relay_steps: scale_defaults.relay_steps,
                ..McondConfig::gcond(ratio, seed)
            };
            let gcond = jobs.condense(&ds, &gcond_cfg);
            let gcond_model = jobs.model(&gcond, GnnKind::Sgc, seed);

            for (batches, cells) in batches.iter().zip(ratio_cells) {
                let on_original = |model: &GnnModel| {
                    evaluate_inductive(&InductiveServer::on_original(original, model), batches)
                };
                let on_reduced = |graph: &Graph, mapping: &Csr, model: &GnnModel| {
                    evaluate_inductive(
                        &InductiveServer::on_synthetic(graph, mapping, model),
                        batches,
                    )
                };
                let on_mcond = |model: &GnnModel| on_reduced(&mcond.synthetic, &mcond.mapping, model);

                // Whole: O->O.
                record(cells, "Whole", 100.0 * on_original(&model_original).accuracy);
                for (method, reduced) in &coresets {
                    let r = on_reduced(&reduced.graph, &reduced.mapping, &model_original);
                    record(cells, method.name(), 100.0 * r.accuracy);
                }
                let r = on_reduced(&virtual_graph.graph, &virtual_graph.mapping, &model_original);
                record(cells, "VNG", 100.0 * r.accuracy);

                // MCond targets.
                record(cells, "MCond_OS", 100.0 * on_mcond(&model_original).accuracy);
                record(cells, "MCond_SO", 100.0 * on_original(&model_synthetic).accuracy);
                record(cells, "MCond_SS", 100.0 * on_mcond(&model_synthetic).accuracy);
                record(cells, "GCond", 100.0 * on_original(&gcond_model).accuracy);
            }
        }
    }

    for (ratio, ratio_cells) in ratios.iter().zip(cells) {
        for ((_, batch_label), cells) in BATCH_MODES.into_iter().zip(ratio_cells) {
            for (method, accs) in cells {
                let (mean, std) = mean_std(&accs);
                report.push(
                    Row::new()
                        .key("dataset", name)
                        .key("batch", batch_label)
                        .key("r", format!("{:.2}%", 100.0 * ratio))
                        .key("method", method)
                        .metric("acc", mean)
                        .metric("std", std),
                );
            }
        }
    }
}

struct Propagated {
    vanilla: f64,
    lp: f64,
    ep: f64,
    propagation_ms: f64,
}

/// Vanilla / LP / EP accuracy of `model` deployed on `base` — through
/// `mapping` (Eq. 11) when there is one, through the identity (Eq. 3)
/// otherwise. LP and EP iterate on the served extended operator, so the
/// propagation time is its construction from the base's cached degrees
/// plus the two iterations.
fn propagate(
    model: &GnnModel,
    base: &Graph,
    mapping: Option<&Csr>,
    batches: &[NodeBatch],
) -> Propagated {
    let server = match mapping {
        Some(m) => InductiveServer::on_synthetic(base, m, model),
        None => InductiveServer::on_original(base, model),
    };
    let deg = BaseDegrees::of(&base.adj);
    // The residual error propagation diffuses is the model's error on the
    // labelled base nodes — a property of the base graph alone.
    let base_logits = model.predict(&GraphOps::from_adj(&base.adj), &base.features);
    let mut vanilla_hits = 0.0;
    let mut lp_hits = 0.0;
    let mut ep_hits = 0.0;
    let mut nodes = 0usize;
    let mut prop_seconds = 0.0;
    for batch in batches {
        let test_logits = server.try_serve(batch).expect("test batch must be servable");
        vanilla_hits += accuracy(&test_logits, &batch.labels) * batch.len() as f64;

        let attach = server.attachment(batch);
        let logits = base_logits.vstack(&test_logits);

        let start = Instant::now();
        let op = Propagator::extended_sym(&base.adj, &attach, &batch.interconnect, &deg);
        let hop = |x: &DMat| op.spmm(x);
        let lp_scores = label_propagation(hop, op.rows(), &base.labels, base.num_classes);
        let ep_scores = error_propagation(hop, &logits, &base.labels);
        prop_seconds += start.elapsed().as_secs_f64();

        let n_base = base.num_nodes();
        let lp_test = lp_scores.slice_rows(n_base, lp_scores.rows());
        let ep_test = ep_scores.slice_rows(n_base, ep_scores.rows());
        lp_hits += accuracy(&lp_test, &batch.labels) * batch.len() as f64;
        ep_hits += accuracy(&ep_test, &batch.labels) * batch.len() as f64;
        nodes += batch.len();
    }
    let n = nodes.max(1) as f64;
    Propagated {
        vanilla: 100.0 * vanilla_hits / n,
        lp: 100.0 * lp_hits / n,
        ep: 100.0 * ep_hits / n,
        // LP+EP measured together above; report the per-batch half as the
        // per-technique propagation time.
        propagation_ms: 500.0 * prop_seconds / batches.len().max(1) as f64,
    }
}

/// Table III: label propagation (LP) and error propagation (EP) on the
/// original (O) versus synthetic (S) graph, with per-batch propagation time
/// and the S-vs-O acceleration ratio.
///
/// The vanilla model is SGC trained on the synthetic graph (matching the
/// paper's Table III baseline rows, which equal MCond_SO / MCond_SS).
pub fn table3(jobs: &Jobs, name: &str, report: &mut TableReport) {
    let seed = jobs.args.seed;
    let ratio = paper_ratio(jobs, name);
    let ds = jobs.dataset(name, seed);
    let mcond = jobs.mcond(&ds, ratio);
    let model = jobs.model(&mcond, GnnKind::Sgc, seed);
    for (graph_batch, batch_label) in BATCH_MODES {
        let batches = ds.data.test_batches(default_batch_size(jobs.args.scale), graph_batch);
        let orig = propagate(&model, &ds.original, None, &batches);
        let syn = propagate(&model, &mcond.synthetic, Some(&mcond.mapping), &batches);
        for (graph_label, o, accel) in [
            ("O", &orig, 1.0),
            ("S", &syn, orig.propagation_ms / syn.propagation_ms.max(1e-9)),
        ] {
            report.push(
                Row::new()
                    .key("dataset", at_ratio(name, ratio))
                    .key("batch", batch_label)
                    .key("graph", graph_label)
                    .metric("vanilla", o.vanilla)
                    .metric("LP", o.lp)
                    .metric("EP", o.ep)
                    .metric("prop_time_ms", o.propagation_ms)
                    .metric("accel", accel),
            );
        }
    }
}

/// Table IV: generalisability of the synthetic graph and mapping across GNN
/// architectures. Each architecture is trained on the MCond synthetic graph
/// and evaluated both on the original graph (MCond_SO) and on the synthetic
/// graph through the mapping (MCond_SS), reporting accuracy and per-batch
/// inference time.
pub fn table4(jobs: &Jobs, name: &str, report: &mut TableReport) {
    let seed = jobs.args.seed;
    let ratio = paper_ratio(jobs, name);
    let ds = jobs.dataset(name, seed);
    let mcond = jobs.mcond(&ds, ratio);
    let models = [GnnKind::Gcn, GnnKind::Sage, GnnKind::Appnp, GnnKind::Cheby]
        .map(|kind| (kind, jobs.model(&mcond, kind, seed)));
    for (graph_batch, batch_label) in BATCH_MODES {
        let batches = ds.data.test_batches(default_batch_size(jobs.args.scale), graph_batch);
        for (kind, model) in &models {
            let so = evaluate_inductive(&InductiveServer::on_original(&ds.original, model), &batches);
            let ss = evaluate_inductive(
                &InductiveServer::on_synthetic(&mcond.synthetic, &mcond.mapping, model),
                &batches,
            );
            for (setting, res) in [("MCond_SO", so), ("MCond_SS", ss)] {
                report.push(
                    Row::new()
                        .key("dataset", at_ratio(name, ratio))
                        .key("batch", batch_label)
                        .key("arch", kind.name())
                        .key("setting", setting)
                        .metric("acc", 100.0 * res.accuracy)
                        .metric("time_ms", 1000.0 * res.seconds_per_batch),
                );
            }
        }
    }
}

/// Table V: optimisation-constraint ablation under the MCond_SS setting —
/// "Plain" (no L_str, no L_ind), "w/o L_str", "w/o L_ind", and full MCond.
pub fn table5(jobs: &Jobs, name: &str, report: &mut TableReport) {
    // (variant, uses L_str, uses L_ind)
    let variants = [
        ("Plain", false, false),
        ("w/o L_str", false, true),
        ("w/o L_ind", true, false),
        ("MCond_SS", true, true),
    ];
    let scale = jobs.args.scale;
    let ratio = paper_ratio(jobs, name);
    for (variant_name, use_structure_loss, use_inductive_loss) in variants {
        let mut accs = [Vec::new(), Vec::new()];
        for rep in 0..jobs.args.repeats {
            let seed = jobs.args.seed + rep as u64;
            let ds = jobs.dataset(name, seed);
            let cfg = McondConfig {
                use_structure_loss,
                use_inductive_loss,
                ..default_condense_config(name, scale, ratio, seed)
            };
            let condensed = jobs.condense(&ds, &cfg);
            let model = jobs.model(&condensed, GnnKind::Sgc, seed);
            let server =
                InductiveServer::on_synthetic(&condensed.synthetic, &condensed.mapping, &model);
            for ((graph_batch, _), accs) in BATCH_MODES.into_iter().zip(&mut accs) {
                let batches = ds.data.test_batches(default_batch_size(scale), graph_batch);
                accs.push(100.0 * evaluate_inductive(&server, &batches).accuracy);
            }
        }
        for ((_, batch_label), accs) in BATCH_MODES.into_iter().zip(accs) {
            let (mean, std) = mean_std(&accs);
            report.push(
                Row::new()
                    .key("dataset", at_ratio(name, ratio))
                    .key("method", variant_name)
                    .key("batch", batch_label)
                    .metric("acc", mean)
                    .metric("std", std),
            );
        }
    }
}
