//! Table IV: generalisability of the synthetic graph and mapping across GNN
//! architectures. Each architecture is trained on the MCond synthetic graph
//! and evaluated both on the original graph (MCond_SO) and on the synthetic
//! graph through the mapping (MCond_SS), reporting accuracy and per-batch
//! inference time.

use mcond_bench::pipeline::{default_batch_size, build_pipeline, default_epochs};
use mcond_bench::{evaluate_inductive, parse_args, print_table, train_on_graph, Row, TableReport};
use mcond_core::InductiveServer;
use mcond_gnn::GnnKind;
use mcond_graph::dataset_spec;

fn main() {
    let args = parse_args();
    let mut report = TableReport::new("Table IV — accuracy and time across GNN architectures");
    let architectures = [GnnKind::Gcn, GnnKind::Sage, GnnKind::Appnp, GnnKind::Cheby];

    for name in &args.datasets {
        let Ok(spec) = dataset_spec(name, args.scale, args.seed) else {
            eprintln!("skipping unknown dataset {name}");
            continue;
        };
        let ratio = if name == "reddit" { spec.ratios[0] } else { spec.ratios[1] };
        let p = build_pipeline(name, args.scale, ratio, args.seed, args.epochs);
        let epochs = args.epochs.unwrap_or_else(|| default_epochs(args.scale));
        let models = architectures
            .map(|kind| (kind, train_on_graph(&p.mcond.synthetic, kind, epochs, 64, args.seed)));

        for &graph_batch in &[true, false] {
            let batch_label = if graph_batch { "graph" } else { "node" };
            let batches = p.data.test_batches(default_batch_size(args.scale), graph_batch);
            for (kind, model) in &models {
                let so = evaluate_inductive(
                    &InductiveServer::on_original(&p.original, model),
                    &batches,
                );
                let ss = evaluate_inductive(
                    &InductiveServer::on_synthetic(&p.mcond.synthetic, &p.mcond.mapping, model),
                    &batches,
                );
                for (setting, res) in [("MCond_SO", so), ("MCond_SS", ss)] {
                    report.push(
                        Row::new()
                            .key("dataset", format!("{name} ({:.2}%)", 100.0 * ratio))
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
    print_table(&report);
    if let Some(path) = &args.json {
        report.dump_json(path).expect("write json");
    }
}
