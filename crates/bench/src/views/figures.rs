//! Figures 3–7.

use super::{at_ratio, is_figure_dataset, paper_ratio};
use crate::eval::{evaluate_inductive, propagated_embeddings};
use crate::jobs::{default_batch_size, default_condense_config, Jobs};
use crate::report::{Row, TableReport};
use mcond_core::{class_correlation_of, coreset, vng, CoresetMethod, InductiveServer, Mapping, McondConfig};
use mcond_gnn::GnnKind;
use mcond_graph::Graph;
use mcond_linalg::DMat;
use mcond_obs::MetricsSnapshot;

/// Fig. 3: inference time and memory under the **graph batch** setting for
/// each dataset and reduction ratio, with the MCond-vs-Whole acceleration
/// and compression rates the figure annotates.
pub fn fig3(jobs: &Jobs, name: &str, report: &mut TableReport) {
    cost(jobs, name, report, true);
}

/// Fig. 4: inference time and memory under the **node batch** setting
/// (inductive nodes arrive without interconnections; ã = 0).
pub fn fig4(jobs: &Jobs, name: &str, report: &mut TableReport) {
    cost(jobs, name, report, false);
}

/// Re-labels every metric in `snapshot` with `prefix` so snapshots from
/// several servers (or datasets) coexist in one report.
fn prefixed(snapshot: &MetricsSnapshot, prefix: &str) -> MetricsSnapshot {
    MetricsSnapshot {
        counters: snapshot.counters.iter().map(|(k, v)| (format!("{prefix}{k}"), *v)).collect(),
        gauges: snapshot.gauges.iter().map(|(k, v)| (format!("{prefix}{k}"), *v)).collect(),
        histograms: snapshot
            .histograms
            .iter()
            .map(|(k, v)| (format!("{prefix}{k}"), *v))
            .collect(),
    }
}

/// The inference time/memory comparison for one batch setting, every
/// method timed on the serving path itself. Each `(dataset, ratio)` block
/// attaches, under its `{name}/r={ratio}/` prefix, the Whole and MCond
/// servers' own metrics and the process-wide registry as this block left
/// it (reset at its start, so it holds this block's serving and nothing
/// the job table built).
fn cost(jobs: &Jobs, name: &str, report: &mut TableReport, graph_batch: bool) {
    // Aggregate kernel counters (FLOPs, SpMM traffic) even when no event
    // sink is configured, so the JSON dump always carries them.
    mcond_obs::enable_metrics();
    let seed = jobs.args.seed;
    let ds = jobs.dataset(name, seed);
    let original = &ds.original;
    let model_original = jobs.model(&ds, GnnKind::Sgc, seed);
    let batches = ds.data.test_batches(default_batch_size(jobs.args.scale), graph_batch);
    for ratio in jobs.ratios(name) {
        let mcond = jobs.mcond(&ds, ratio);
        mcond_obs::reset_metrics();
        let embeddings = propagated_embeddings(original, 2);
        let n_syn = mcond.synthetic.num_nodes();

        let server_whole = InductiveServer::on_original(original, &model_original);
        let whole = evaluate_inductive(&server_whole, &batches);
        let on_reduced = |graph, mapping| {
            evaluate_inductive(
                &InductiveServer::on_synthetic(graph, mapping, &model_original),
                &batches,
            )
        };
        let random = coreset(original, &embeddings, n_syn, CoresetMethod::Random, seed);
        let random_cost = on_reduced(&random.graph, &random.mapping);
        let virtual_graph = vng(original, &original.features, n_syn, seed);
        let vng_cost = on_reduced(&virtual_graph.graph, &virtual_graph.mapping);
        let server_mcond =
            InductiveServer::on_synthetic(&mcond.synthetic, &mcond.mapping, &model_original);
        let mcond_cost = evaluate_inductive(&server_mcond, &batches);

        for (method, res) in [
            ("Whole", whole),
            ("Random", random_cost),
            ("VNG", vng_cost),
            ("MCond", mcond_cost),
        ] {
            report.push(
                Row::new()
                    .key("dataset", name)
                    .key("r", format!("{:.2}%", 100.0 * ratio))
                    .key("method", method)
                    .metric("time_ms", 1000.0 * res.seconds_per_batch)
                    .metric("memory_MB", res.memory_bytes as f64 / 1e6)
                    .metric(
                        "speedup_vs_whole",
                        whole.seconds_per_batch / res.seconds_per_batch.max(1e-12),
                    )
                    .metric(
                        "compression_vs_whole",
                        whole.memory_bytes as f64 / res.memory_bytes.max(1) as f64,
                    ),
            );
        }

        let tag = format!("{name}/r={ratio}/");
        report.attach_metrics(&prefixed(&server_whole.metrics_snapshot(), &format!("{tag}whole.")));
        report.attach_metrics(&prefixed(&server_mcond.metrics_snapshot(), &format!("{tag}mcond.")));
        report.attach_metrics(&prefixed(&mcond_obs::snapshot(), &tag));
    }
}

/// Appends `corr` to the report's notes as text heat rows.
fn heat_rows(report: &mut TableReport, title: &str, corr: &DMat, order: &[usize]) {
    report.notes += &format!("\n--- {title} (classes ordered by size) ---\n");
    for &a in order {
        let row: Vec<String> = order.iter().map(|&b| format!("{:.3}", corr.get(a, b))).collect();
        report.notes += &format!("  {}\n", row.join(" "));
    }
}

/// Fig. 5: mapping-matrix visualisation and the initialisation study, on
/// Reddit as in the paper (else on the first selected dataset).
///
/// (a) class-correlation block structure of the *trained* mapping,
/// (b) the same for the class-aware *initialisation*,
/// (c) mapping-loss curves for class-aware versus random initialisation,
///     plus the resulting MCond_SS accuracy of both.
///
/// The class-correlation matrices are text heat rows in the report's notes
/// (mean mapping weight from original-class a to synthetic-class b, classes
/// ordered by size as in the paper).
pub fn fig5(jobs: &Jobs, name: &str, report: &mut TableReport) {
    if !is_figure_dataset(jobs, name, "reddit") {
        return;
    }
    let seed = jobs.args.seed;
    let ds = jobs.dataset(name, seed);
    let original = &ds.original;
    let ratio = 0.01_f64.max(original.num_classes as f64 / original.num_nodes() as f64);
    let cfg = default_condense_config(name, jobs.args.scale, ratio, seed);

    // Class order by size, descending (paper orders classes by class size).
    let mut order: Vec<usize> = (0..original.num_classes).collect();
    let counts = original.class_counts();
    order.sort_by_key(|&c| std::cmp::Reverse(counts[c]));

    // --- (a)/(b): trained vs initialised correlation. -----------------------
    let condensed = jobs.condense(&ds, &cfg);
    let init_mapping =
        Mapping::class_init(&original.labels, &condensed.synthetic.labels, Mapping::EPSILON);
    let trained_corr = class_correlation_of(
        &condensed.dense_mapping,
        &original.labels,
        &condensed.synthetic.labels,
        original.num_classes,
    );
    let init_corr = init_mapping.class_correlation(
        &original.labels,
        &condensed.synthetic.labels,
        original.num_classes,
    );
    heat_rows(report, "Fig. 5(a) — trained mapping M", &trained_corr, &order);
    heat_rows(report, "Fig. 5(b) — class-aware initialisation", &init_corr, &order);

    // --- (c): loss curves and accuracy, class-aware vs random init. ---------
    let batches = ds.data.test_batches(default_batch_size(jobs.args.scale), false);
    for (label, class_aware) in [("class-aware init", true), ("random init", false)] {
        let result = jobs.condense(&ds, &McondConfig { class_aware_init: class_aware, ..cfg.clone() });
        let losses = &result.history.mapping_loss;
        let first = losses.first().copied().unwrap_or(0.0);
        let last = losses.last().copied().unwrap_or(0.0);
        let stride = (losses.len() / 10).max(1);
        let samples: Vec<String> =
            losses.iter().step_by(stride).map(|v| format!("{v:.4}")).collect();
        report.notes += &format!("\nmapping-loss curve ({label}):\n  {}\n", samples.join(" -> "));

        let model = jobs.model(&result, GnnKind::Sgc, seed);
        let res = evaluate_inductive(
            &InductiveServer::on_synthetic(&result.synthetic, &result.mapping, &model),
            &batches,
        );
        report.push(
            Row::new()
                .key("dataset", name)
                .key("init", label)
                .metric("first_loss", f64::from(first))
                .metric("final_loss", f64::from(last))
                .metric("acc_node_batch", 100.0 * res.accuracy),
        );
    }
}

/// Fig. 6: the sparsity/accuracy trade-off of the mapping threshold `δ`
/// (Eq. 14), under the MCond_OS node-batch setting. One condensation run
/// per dataset is re-sparsified across the δ sweep.
pub fn fig6(jobs: &Jobs, name: &str, report: &mut TableReport) {
    let deltas = [0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5];
    let seed = jobs.args.seed;
    let ratio = paper_ratio(jobs, name);
    let ds = jobs.dataset(name, seed);
    let mcond = jobs.mcond(&ds, ratio);
    let model_original = jobs.model(&ds, GnnKind::Sgc, seed);
    let batches = ds.data.test_batches(default_batch_size(jobs.args.scale), false);
    let total_entries = (mcond.dense_mapping.rows() * mcond.dense_mapping.cols()) as f64;

    for delta in deltas {
        let (adj, mapping) = mcond.resparsify(0.5, delta);
        let synthetic = Graph::new(
            adj,
            mcond.synthetic.features.clone(),
            mcond.synthetic.labels.clone(),
            mcond.synthetic.num_classes,
        );
        let res = evaluate_inductive(
            &InductiveServer::on_synthetic(&synthetic, &mapping, &model_original),
            &batches,
        );
        report.push(
            Row::new()
                .key("dataset", at_ratio(name, ratio))
                .key("delta", delta)
                .metric("acc", 100.0 * res.accuracy)
                .metric("sparsity", 1.0 - mapping.nnz() as f64 / total_entries)
                .metric("mapping_nnz", mapping.nnz() as f64)
                .metric("mapping_MB", mapping.storage_bytes() as f64 / 1e6),
        );
    }
}

/// Fig. 7: sensitivity of MCond_OS (node batch) to the loss weights `λ`
/// (structure loss) and `β` (inductive loss), swept on Flickr as in the
/// paper (else on the first selected dataset). Each sweep holds the other
/// weight at (λ, β) = (0.1, 100).
pub fn fig7(jobs: &Jobs, name: &str, report: &mut TableReport) {
    if !is_figure_dataset(jobs, name, "flickr") {
        return;
    }
    report.title = format!("Fig. 7 — λ/β sensitivity of MCond_OS on {name}");
    let lambdas: [f32; 6] = [0.0, 0.01, 0.1, 1.0, 10.0, 100.0];
    let betas: [f32; 7] = [0.0, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0];
    let seed = jobs.args.seed;
    let ratio = jobs.ratios(name)[1];
    let ds = jobs.dataset(name, seed);
    let model = jobs.model(&ds, GnnKind::Sgc, seed);
    let batches = ds.data.test_batches(default_batch_size(jobs.args.scale), false);

    let sweep = lambdas
        .map(|lambda| ("lambda", lambda, 100.0))
        .into_iter()
        .chain(betas.map(|beta| ("beta", 0.1, beta)));
    for (which, lambda, beta) in sweep {
        let cfg = McondConfig {
            lambda,
            beta,
            use_structure_loss: lambda > 0.0,
            use_inductive_loss: beta > 0.0,
            ..default_condense_config(name, jobs.args.scale, ratio, seed)
        };
        let condensed = jobs.condense(&ds, &cfg);
        let res = evaluate_inductive(
            &InductiveServer::on_synthetic(&condensed.synthetic, &condensed.mapping, &model),
            &batches,
        );
        report.push(
            Row::new()
                .key("sweep", which)
                .key("lambda", lambda)
                .key("beta", beta)
                .metric("acc_node_batch", 100.0 * res.accuracy),
        );
    }
}
