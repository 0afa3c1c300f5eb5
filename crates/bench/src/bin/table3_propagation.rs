//! Table III: label propagation (LP) and error propagation (EP) on the
//! original (O) versus synthetic (S) graph, with per-batch propagation time
//! and the S-vs-O acceleration ratio.
//!
//! The vanilla model is SGC trained on the synthetic graph (matching the
//! paper's Table III baseline rows, which equal MCond_SO / MCond_SS).

use mcond_bench::pipeline::{build_pipeline, default_batch_size};
use mcond_bench::{parse_args, print_table, Row, TableReport};
use mcond_core::InductiveServer;
use mcond_gnn::{accuracy, GnnModel, GraphOps};
use mcond_graph::{dataset_spec, Graph};
use mcond_sparse::Csr;
use mcond_propagate::{error_propagation, label_propagation, PropagationConfig};
use std::time::Instant;

struct Outcome {
    vanilla: f64,
    lp: f64,
    ep: f64,
    propagation_ms: f64,
}

/// Vanilla / LP / EP accuracy of `model` deployed on `base` — through
/// `mapping` (Eq. 11) when there is one, directly (Eq. 3) otherwise.
fn evaluate(
    model: &GnnModel,
    base: &Graph,
    mapping: Option<&Csr>,
    batches: &[mcond_graph::NodeBatch],
) -> Outcome {
    let cfg = PropagationConfig::default();
    let server = match mapping {
        Some(m) => InductiveServer::on_synthetic(base, m, model),
        None => InductiveServer::on_original(base, model),
    };
    let n_base = base.num_nodes();
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

        // LP/EP are defined on the combined structure, so they — unlike
        // the GNN forward — get the extended adjacency spelled out.
        let adj = base.adj.block_extend(&server.attachment(batch), &batch.interconnect);
        let logits = base_logits.vstack(&test_logits);

        let start = Instant::now();
        let lp_scores = label_propagation(&adj, &base.labels, n_base, base.num_classes, &cfg);
        let ep_scores = error_propagation(&adj, &logits, &base.labels, n_base, 1.0, &cfg);
        prop_seconds += start.elapsed().as_secs_f64();

        let lp_test = lp_scores.slice_rows(n_base, lp_scores.rows());
        let ep_test = ep_scores.slice_rows(n_base, ep_scores.rows());
        lp_hits += accuracy(&lp_test, &batch.labels) * batch.len() as f64;
        ep_hits += accuracy(&ep_test, &batch.labels) * batch.len() as f64;
        nodes += batch.len();
    }
    let n = nodes.max(1) as f64;
    Outcome {
        vanilla: 100.0 * vanilla_hits / n,
        lp: 100.0 * lp_hits / n,
        ep: 100.0 * ep_hits / n,
        // LP+EP measured together above; report the per-batch half as the
        // per-technique propagation time.
        propagation_ms: 500.0 * prop_seconds / batches.len().max(1) as f64,
    }
}

fn main() {
    let args = parse_args();
    let mut report = TableReport::new("Table III — label/error propagation on O vs S");
    for name in &args.datasets {
        let Ok(spec) = dataset_spec(name, args.scale, args.seed) else {
            eprintln!("skipping unknown dataset {name}");
            continue;
        };
        // Paper uses the larger ratio for Pubmed/Flickr, the smaller for
        // Reddit.
        let ratio = if name == "reddit" { spec.ratios[0] } else { spec.ratios[1] };
        let p = build_pipeline(name, args.scale, ratio, args.seed, args.epochs);
        for &graph_batch in &[true, false] {
            let batch_label = if graph_batch { "graph" } else { "node" };
            let batches = p.data.test_batches(default_batch_size(args.scale), graph_batch);

            let model = &p.model_synthetic;
            let orig = evaluate(model, &p.original, None, &batches);
            let syn = evaluate(model, &p.mcond.synthetic, Some(&p.mcond.mapping), &batches);

            for (graph_label, o, accel) in [
                ("O", &orig, 1.0),
                ("S", &syn, orig.propagation_ms / syn.propagation_ms.max(1e-9)),
            ] {
                report.push(
                    Row::new()
                        .key("dataset", format!("{name} ({:.2}%)", 100.0 * ratio))
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
    print_table(&report);
    if let Some(path) = &args.json {
        report.dump_json(path).expect("write json");
    }
}
