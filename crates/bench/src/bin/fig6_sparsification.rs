//! Fig. 6: the sparsity/accuracy trade-off of the mapping threshold `δ`
//! (Eq. 14), under the MCond_OS node-batch setting. One condensation run
//! per dataset is re-sparsified across the δ sweep.

use mcond_bench::pipeline::{build_pipeline, default_batch_size};
use mcond_bench::{evaluate_inductive, parse_args, print_table, Row, TableReport};
use mcond_core::InductiveServer;
use mcond_graph::dataset_spec;

fn main() {
    let args = parse_args();
    let mut report = TableReport::new("Fig. 6 — accuracy vs mapping sparsity under δ");
    let deltas = [0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5];

    for name in &args.datasets {
        let Ok(spec) = dataset_spec(name, args.scale, args.seed) else {
            eprintln!("skipping unknown dataset {name}");
            continue;
        };
        let ratio = if name == "reddit" { spec.ratios[0] } else { spec.ratios[1] };
        let p = build_pipeline(name, args.scale, ratio, args.seed, args.epochs);
        let batches = p.data.test_batches(default_batch_size(args.scale), false);
        let total_entries = (p.mcond.dense_mapping.rows() * p.mcond.dense_mapping.cols()) as f64;

        for &delta in &deltas {
            let (adj, mapping) = p.mcond.resparsify(0.5, delta);
            let synthetic = mcond_graph::Graph::new(
                adj,
                p.mcond.synthetic.features.clone(),
                p.mcond.synthetic.labels.clone(),
                p.mcond.synthetic.num_classes,
            );
            let res = evaluate_inductive(
                &InductiveServer::on_synthetic(&synthetic, &mapping, &p.model_original),
                &batches,
            );
            report.push(
                Row::new()
                    .key("dataset", format!("{name} ({:.2}%)", 100.0 * ratio))
                    .key("delta", delta)
                    .metric("acc", 100.0 * res.accuracy)
                    .metric("sparsity", 1.0 - mapping.nnz() as f64 / total_entries)
                    .metric("mapping_nnz", mapping.nnz() as f64)
                    .metric("mapping_MB", mapping.storage_bytes() as f64 / 1e6),
            );
        }
    }
    print_table(&report);
    if let Some(path) = &args.json {
        report.dump_json(path).expect("write json");
    }
}
