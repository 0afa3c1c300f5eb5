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
use mcond_bench::pipeline::{build_pipeline, default_batch_size, default_condense_config, default_epochs};
use mcond_core::{condense, coreset, vng, CoresetMethod, InductiveServer, McondConfig};
use mcond_gnn::GnnKind;
use mcond_graph::dataset_spec;

fn main() {
    let args = parse_args();
    let mut report = TableReport::new("Table II — inductive test accuracy (%)");
    let batch_size = default_batch_size(args.scale);

    for name in &args.datasets {
        let Ok(spec) = dataset_spec(name, args.scale, args.seed) else {
            eprintln!("skipping unknown dataset {name}");
            continue;
        };
        for &ratio in &spec.ratios {
            for &graph_batch in &[true, false] {
                let batch_label = if graph_batch { "graph" } else { "node" };
                // method -> accuracy per repeat (percent).
                let mut cells: Vec<(String, Vec<f64>)> = Vec::new();
                let record = |cells: &mut Vec<(String, Vec<f64>)>, m: &str, v: f64| {
                    if let Some(slot) = cells.iter_mut().find(|(k, _)| k == m) {
                        slot.1.push(v);
                    } else {
                        cells.push((m.to_owned(), vec![v]));
                    }
                };

                for rep in 0..args.repeats {
                    let seed = args.seed + rep as u64;
                    let p = build_pipeline(name, args.scale, ratio, seed, args.epochs);
                    let batches = p.data.test_batches(batch_size, graph_batch);
                    let on_original = |model| {
                        evaluate_inductive(
                            &InductiveServer::on_original(&p.original, model),
                            &batches,
                        )
                    };
                    let on_mcond = |model| {
                        evaluate_inductive(
                            &InductiveServer::on_synthetic(
                                &p.mcond.synthetic,
                                &p.mcond.mapping,
                                model,
                            ),
                            &batches,
                        )
                    };

                    // Whole: O->O.
                    let whole = on_original(&p.model_original);
                    record(&mut cells, "Whole", 100.0 * whole.accuracy);

                    // Coresets and VNG: train on T, infer on reduced graph.
                    let embeddings = propagated_embeddings(&p.original, 2);
                    let n_syn = p.mcond.synthetic.num_nodes();
                    for method in CoresetMethod::ALL {
                        let reduced =
                            coreset(&p.original, &embeddings, n_syn, method, seed);
                        let r = evaluate_inductive(
                            &InductiveServer::on_synthetic(
                                &reduced.graph,
                                &reduced.mapping,
                                &p.model_original,
                            ),
                            &batches,
                        );
                        record(&mut cells, method.name(), 100.0 * r.accuracy);
                    }
                    let virtual_graph = vng(&p.original, &p.original.features, n_syn, seed);
                    let r = evaluate_inductive(
                        &InductiveServer::on_synthetic(
                            &virtual_graph.graph,
                            &virtual_graph.mapping,
                            &p.model_original,
                        ),
                        &batches,
                    );
                    record(&mut cells, "VNG", 100.0 * r.accuracy);

                    // MCond targets.
                    let os = on_mcond(&p.model_original);
                    record(&mut cells, "MCond_OS", 100.0 * os.accuracy);
                    let so = on_original(&p.model_synthetic);
                    record(&mut cells, "MCond_SO", 100.0 * so.accuracy);
                    let ss = on_mcond(&p.model_synthetic);
                    record(&mut cells, "MCond_SS", 100.0 * ss.accuracy);

                    // GCond baseline: separate condensation without the MCond
                    // additions, trained on S, inferred on the original.
                    let scale_defaults = default_condense_config(name, args.scale, ratio, seed);
                    let gcond_cfg = McondConfig {
                        outer_loops: scale_defaults.outer_loops,
                        relay_steps: scale_defaults.relay_steps,
                        ..McondConfig::gcond(ratio, seed)
                    };
                    let gcond = condense(&p.data, &gcond_cfg);
                    let epochs = args.epochs.unwrap_or_else(|| default_epochs(args.scale));
                    let gcond_model =
                        train_on_graph(&gcond.synthetic, GnnKind::Sgc, epochs, 64, seed);
                    let g = on_original(&gcond_model);
                    record(&mut cells, "GCond", 100.0 * g.accuracy);
                }

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
