//! Design-choice ablations called out in DESIGN.md §4 (not in the paper):
//!
//! * gradient distance: Eq. (5) column-cosine vs plain Frobenius L2,
//! * gradient matching granularity: whole-graph vs per-class (the original
//!   GCond formulation),
//!
//! evaluated as MCond_SO accuracy (the setting most sensitive to synthetic
//! graph quality).

use mcond_bench::pipeline::{default_batch_size, default_condense_config, default_epochs};
use mcond_bench::{
    evaluate_inductive, mean_std, parse_args, print_table, train_on_graph, Row, TableReport,
};
use mcond_core::{condense, GradDistance, InductiveServer, McondConfig};
use mcond_gnn::GnnKind;
use mcond_graph::{dataset_spec, load_dataset};

fn main() {
    let args = parse_args();
    let mut report = TableReport::new("Design ablation — gradient distance and granularity");
    type Tweak = fn(&mut McondConfig);
    let variants: [(&str, Tweak); 4] = [
        ("cosine/whole-graph (default)", |_| {}),
        ("L2/whole-graph", |c| c.grad_distance = GradDistance::L2),
        ("cosine/per-class", |c| c.per_class_matching = true),
        ("L2/per-class", |c| {
            c.grad_distance = GradDistance::L2;
            c.per_class_matching = true;
        }),
    ];

    for name in &args.datasets {
        let Ok(spec) = dataset_spec(name, args.scale, args.seed) else {
            eprintln!("skipping unknown dataset {name}");
            continue;
        };
        let ratio = spec.ratios[1];
        for (variant, tweak) in variants {
            let mut accs = Vec::with_capacity(args.repeats);
            for rep in 0..args.repeats {
                let seed = args.seed + rep as u64;
                let data = load_dataset(name, args.scale, seed).expect("known dataset");
                let mut cfg = default_condense_config(name, args.scale, ratio, seed);
                tweak(&mut cfg);
                let condensed = condense(&data, &cfg);
                let epochs = args.epochs.unwrap_or_else(|| default_epochs(args.scale));
                let model =
                    train_on_graph(&condensed.synthetic, GnnKind::Sgc, epochs, 64, seed);
                let batches = data.test_batches(default_batch_size(args.scale), false);
                let res = evaluate_inductive(
                    &InductiveServer::on_original(&data.original_graph(), &model),
                    &batches,
                );
                accs.push(100.0 * res.accuracy);
            }
            let (mean, std) = mean_std(&accs);
            report.push(
                Row::new()
                    .key("dataset", format!("{name} ({:.2}%)", 100.0 * ratio))
                    .key("variant", variant)
                    .metric("acc_SO", mean)
                    .metric("std", std),
            );
        }
    }
    print_table(&report);
    if let Some(path) = &args.json {
        report.dump_json(path).expect("write json");
    }
}
