//! Table V: optimisation-constraint ablation under the MCond_SS setting —
//! "Plain" (no L_str, no L_ind), "w/o L_str", "w/o L_ind", and full MCond.

use mcond_bench::pipeline::{default_batch_size, default_condense_config, default_epochs};
use mcond_bench::{
    evaluate_inductive, mean_std, parse_args, print_table, train_on_graph, Row, TableReport,
};
use mcond_core::{condense, InductiveServer, McondConfig};
use mcond_gnn::GnnKind;
use mcond_graph::{dataset_spec, load_dataset};

fn main() {
    let args = parse_args();
    let mut report = TableReport::new("Table V — optimisation-constraint ablation (MCond_SS)");
    type Tweak = fn(&mut McondConfig);
    let variants: [(&str, Tweak); 4] = [
        ("Plain", |c| {
            c.use_structure_loss = false;
            c.use_inductive_loss = false;
        }),
        ("w/o L_str", |c| c.use_structure_loss = false),
        ("w/o L_ind", |c| c.use_inductive_loss = false),
        ("MCond_SS", |_| {}),
    ];

    for name in &args.datasets {
        let Ok(spec) = dataset_spec(name, args.scale, args.seed) else {
            eprintln!("skipping unknown dataset {name}");
            continue;
        };
        let ratio = if name == "reddit" { spec.ratios[0] } else { spec.ratios[1] };
        for (variant_name, tweak) in variants {
            // The batch mode only picks the test batches, so it is the
            // innermost loop: one condensation per (variant, seed).
            let mut accs = [Vec::with_capacity(args.repeats), Vec::with_capacity(args.repeats)];
            for rep in 0..args.repeats {
                let seed = args.seed + rep as u64;
                let data = load_dataset(name, args.scale, seed).expect("known dataset");
                let mut cfg = default_condense_config(name, args.scale, ratio, seed);
                tweak(&mut cfg);
                let condensed = condense(&data, &cfg);
                let epochs = args.epochs.unwrap_or_else(|| default_epochs(args.scale));
                let model = train_on_graph(&condensed.synthetic, GnnKind::Sgc, epochs, 64, seed);
                let server =
                    InductiveServer::on_synthetic(&condensed.synthetic, &condensed.mapping, &model);
                for (graph_batch, accs) in [true, false].into_iter().zip(&mut accs) {
                    let batches = data.test_batches(default_batch_size(args.scale), graph_batch);
                    accs.push(100.0 * evaluate_inductive(&server, &batches).accuracy);
                }
            }
            for (batch_label, accs) in ["graph", "node"].into_iter().zip(accs) {
                let (mean, std) = mean_std(&accs);
                report.push(
                    Row::new()
                        .key("dataset", format!("{name} ({:.2}%)", 100.0 * ratio))
                        .key("method", variant_name)
                        .key("batch", batch_label)
                        .metric("acc", mean)
                        .metric("std", std),
                );
            }
        }
    }
    print_table(&report);
    if let Some(path) = &args.json {
        report.dump_json(path).expect("write json");
    }
}
