//! Dataset-difficulty diagnostics for the synthetic stand-ins.
//!
//! The paper's result ordering depends on three dataset traits:
//!
//! * **feature-only accuracy** (SGC with 0 hops) must sit well below
//! * **structure accuracy** (Whole: SGC with 2 hops on the full graph), and
//! * **coreset starvation**: at ratio `r`, a test node should have ≈
//!   `r · degree` edges into a random coreset — when this is ≪ 1 the
//!   coreset baselines collapse, as on real Reddit.
//!
//! Run after touching the generator knobs in `mcond-graph/src/specs.rs`.

use mcond_bench::pipeline::default_batch_size;
use mcond_bench::{evaluate_inductive, parse_args, print_table, Row, TableReport};
use mcond_core::InductiveServer;
use mcond_gnn::{train, GnnKind, GnnModel, GraphOps, TrainConfig};
use mcond_graph::{dataset_spec, load_dataset};

fn main() {
    let args = parse_args();
    let mut report = TableReport::new("dataset difficulty calibration");
    for name in &args.datasets {
        let Ok(spec) = dataset_spec(name, args.scale, args.seed) else {
            eprintln!("skipping unknown dataset {name}");
            continue;
        };
        let data = load_dataset(name, args.scale, args.seed).expect("known dataset");
        let original = data.original_graph();
        let ops = GraphOps::from_adj(&original.adj);
        let epochs = args.epochs.unwrap_or(150);
        let cfg = TrainConfig { epochs, lr: 0.03, ..TrainConfig::default() };

        let eval_with_hops = |hops: usize| -> f64 {
            let mut model = GnnModel::new(
                GnnKind::Sgc,
                original.feature_dim(),
                0,
                original.num_classes,
                args.seed,
            );
            model.hops = hops;
            train(&mut model, &ops, &original.features, &original.labels, &cfg, None);
            let batches = data.test_batches(default_batch_size(args.scale), false);
            evaluate_inductive(&InductiveServer::on_original(&original, &model), &batches)
                .accuracy
        };
        let feature_only = eval_with_hops(0);
        let structural = eval_with_hops(2);

        // Mean test-node edges into the training graph, and the expected
        // edges into a random coreset of size r·N at each paper ratio.
        let batches = data.test_batches(usize::MAX, false);
        let test_degree = batches
            .iter()
            .map(|b| b.incremental.nnz() as f64)
            .sum::<f64>()
            / data.test_idx.len() as f64;

        report.push(
            Row::new()
                .key("dataset", name)
                .metric("feature_only_acc", 100.0 * feature_only)
                .metric("whole_acc", 100.0 * structural)
                .metric("structure_gain", 100.0 * (structural - feature_only))
                .metric("test_degree", test_degree)
                .metric("coreset_edges_r0", test_degree * spec.ratios[0])
                .metric("coreset_edges_r1", test_degree * spec.ratios[1]),
        );
    }
    print_table(&report);
    if let Some(path) = &args.json {
        report.dump_json(path).expect("write json");
    }
}
