//! Table II: inductive test accuracy of every method under both batch
//! settings and both condensation ratios.
//!
//! Methods: Whole (O->O), Random/Degree/Herding/K-Center coresets and VNG
//! (train on T, infer on reduced graph), MCond_OS (O->S), GCond (S->O),
//! MCond_SO (S->O), MCond_SS (S->S).

use mcond_bench::{
    evaluate_inductive, mean_std, parse_args, print_table, propagated_embeddings,
    train_on_graph, Row, TableReport,
};
use mcond_bench::pipeline::{build_pipelines, default_batch_size, default_condense_config};
use mcond_core::{condense, coreset, vng, CoresetMethod, InductiveServer, McondConfig};
use mcond_gnn::GnnKind;
use mcond_graph::dataset_spec;

/// Method → accuracy per repeat (percent), methods in first-seen order.
type Cells = Vec<(String, Vec<f64>)>;

fn record(cells: &mut Cells, method: &str, v: f64) {
    if let Some(slot) = cells.iter_mut().find(|(k, _)| k == method) {
        slot.1.push(v);
    } else {
        cells.push((method.to_owned(), vec![v]));
    }
}

fn main() {
    let args = parse_args();
    let mut report = TableReport::new("Table II — inductive test accuracy (%)");
    let batch_size = default_batch_size(args.scale);
    const BATCH_MODES: [(bool, &str); 2] = [(true, "graph"), (false, "node")];

    for name in &args.datasets {
        let Ok(spec) = dataset_spec(name, args.scale, args.seed) else {
            eprintln!("skipping unknown dataset {name}");
            continue;
        };
        // One cell block per (ratio, batch mode). The batch mode only picks
        // the test batches, so it is the innermost loop: everything trained
        // or condensed is built once per (ratio, seed), the original-graph
        // model once per seed.
        let mut cells: Vec<[Cells; 2]> = vec![Default::default(); spec.ratios.len()];
        for rep in 0..args.repeats {
            let seed = args.seed + rep as u64;
            let mut ratio_cells = cells.iter_mut();
            build_pipelines(name, args.scale, &spec.ratios, seed, args.epochs, |ratio, p| {
                let ratio_cells = ratio_cells.next().expect("one cell block per ratio");

                // Coresets and VNG: train on T, infer on reduced graph.
                let embeddings = propagated_embeddings(&p.original, 2);
                let n_syn = p.mcond.synthetic.num_nodes();
                let coresets = CoresetMethod::ALL
                    .map(|method| (method, coreset(&p.original, &embeddings, n_syn, method, seed)));
                let virtual_graph = vng(&p.original, &p.original.features, n_syn, seed);

                // GCond baseline: separate condensation without the MCond
                // additions, trained on S, inferred on the original.
                let scale_defaults = default_condense_config(name, args.scale, ratio, seed);
                let gcond_cfg = McondConfig {
                    outer_loops: scale_defaults.outer_loops,
                    relay_steps: scale_defaults.relay_steps,
                    ..McondConfig::gcond(ratio, seed)
                };
                let gcond = condense(&p.data, &gcond_cfg);
                let gcond_model =
                    train_on_graph(&gcond.synthetic, GnnKind::Sgc, p.epochs, 64, seed);

                for ((graph_batch, _), cells) in BATCH_MODES.into_iter().zip(ratio_cells) {
                    let batches = p.data.test_batches(batch_size, graph_batch);
                    let on_original = |model| {
                        evaluate_inductive(
                            &InductiveServer::on_original(&p.original, model),
                            &batches,
                        )
                    };
                    let on_reduced = |graph, mapping, model| {
                        evaluate_inductive(
                            &InductiveServer::on_synthetic(graph, mapping, model),
                            &batches,
                        )
                    };
                    let on_mcond =
                        |model| on_reduced(&p.mcond.synthetic, &p.mcond.mapping, model);

                    // Whole: O->O.
                    record(cells, "Whole", 100.0 * on_original(&p.model_original).accuracy);
                    for (method, reduced) in &coresets {
                        let r = on_reduced(&reduced.graph, &reduced.mapping, &p.model_original);
                        record(cells, method.name(), 100.0 * r.accuracy);
                    }
                    let r = on_reduced(
                        &virtual_graph.graph,
                        &virtual_graph.mapping,
                        &p.model_original,
                    );
                    record(cells, "VNG", 100.0 * r.accuracy);

                    // MCond targets.
                    record(cells, "MCond_OS", 100.0 * on_mcond(&p.model_original).accuracy);
                    record(cells, "MCond_SO", 100.0 * on_original(&p.model_synthetic).accuracy);
                    record(cells, "MCond_SS", 100.0 * on_mcond(&p.model_synthetic).accuracy);
                    record(cells, "GCond", 100.0 * on_original(&gcond_model).accuracy);
                }
            });
        }

        for (ratio, ratio_cells) in spec.ratios.iter().zip(cells) {
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
    print_table(&report);
    if let Some(path) = &args.json {
        report.dump_json(path).expect("write json");
    }
}
