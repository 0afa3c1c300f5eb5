//! Shared driver for the Fig. 3 / Fig. 4 inference-cost experiments.

use crate::pipeline::{build_pipelines, default_batch_size};
use crate::{evaluate_inductive, parse_args, print_table, propagated_embeddings, Row, TableReport};
use mcond_core::{coreset, vng, CoresetMethod, InductiveServer};
use mcond_graph::dataset_spec;
use mcond_obs::MetricsSnapshot;

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

/// Runs the inference time/memory comparison for one batch setting and
/// prints/dumps the report. Annotates each method with its acceleration and
/// compression rate versus Whole, as the figures do.
pub fn run_cost_experiment(graph_batch: bool, title: &str) {
    let args = parse_args();
    // Aggregate kernel counters (FLOPs, SpMM traffic) even when no event
    // sink is configured, so the JSON dump always carries them.
    mcond_obs::enable_metrics();
    let mut report = TableReport::new(title);
    for name in &args.datasets {
        let Ok(spec) = dataset_spec(name, args.scale, args.seed) else {
            eprintln!("skipping unknown dataset {name}");
            continue;
        };
        build_pipelines(name, args.scale, &spec.ratios, args.seed, args.epochs, |ratio, p| {
            let batches = p.data.test_batches(default_batch_size(args.scale), graph_batch);
            let embeddings = propagated_embeddings(&p.original, 2);
            let n_syn = p.mcond.synthetic.num_nodes();

            // Every method is timed on the serving path itself; the Whole
            // and MCond servers' request-level latency/fanout histograms
            // are folded into the dump below.
            let server_whole = InductiveServer::on_original(&p.original, &p.model_original);
            let whole = evaluate_inductive(&server_whole, &batches);
            let random =
                coreset(&p.original, &embeddings, n_syn, CoresetMethod::Random, args.seed);
            let random_cost = evaluate_inductive(
                &InductiveServer::on_synthetic(&random.graph, &random.mapping, &p.model_original),
                &batches,
            );
            let virtual_graph = vng(&p.original, &p.original.features, n_syn, args.seed);
            let vng_cost = evaluate_inductive(
                &InductiveServer::on_synthetic(
                    &virtual_graph.graph,
                    &virtual_graph.mapping,
                    &p.model_original,
                ),
                &batches,
            );
            let server_mcond = InductiveServer::on_synthetic(
                &p.mcond.synthetic,
                &p.mcond.mapping,
                &p.model_original,
            );
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
            report.attach_metrics(&prefixed(
                &server_whole.metrics_snapshot(),
                &format!("{tag}whole."),
            ));
            report.attach_metrics(&prefixed(
                &server_mcond.metrics_snapshot(),
                &format!("{tag}mcond."),
            ));
        });
    }
    report.attach_metrics(&mcond_obs::snapshot());
    print_table(&report);
    if let Some(path) = &args.json {
        report.dump_json(path).expect("write json");
    }
}
