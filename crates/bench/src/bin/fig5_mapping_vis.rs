//! Fig. 5: mapping-matrix visualisation and the initialisation study.
//!
//! (a) class-correlation block structure of the *trained* mapping,
//! (b) the same for the class-aware *initialisation*,
//! (c) mapping-loss curves for class-aware versus random initialisation,
//!     plus the resulting MCond_SS accuracy of both.
//!
//! The class-correlation matrices are printed as text heat rows (mean
//! mapping weight from original-class a to synthetic-class b, classes
//! ordered by size as in the paper).

use mcond_bench::pipeline::{default_batch_size, default_condense_config, default_epochs};
use mcond_bench::{evaluate_inductive, parse_args, print_table, train_on_graph, Row, TableReport};
use mcond_core::{class_correlation_of, condense, InductiveServer, Mapping};
use mcond_gnn::GnnKind;
use mcond_graph::load_dataset;
use mcond_linalg::DMat;

fn print_correlation(title: &str, corr: &DMat, order: &[usize]) {
    println!("\n--- {title} (classes ordered by size) ---");
    for &a in order {
        let row: Vec<String> =
            order.iter().map(|&b| format!("{:.3}", corr.get(a, b))).collect();
        println!("  {}", row.join(" "));
    }
}

fn main() {
    let args = parse_args();
    // The paper shows Reddit; any requested dataset works.
    let name = args.datasets.first().map_or("reddit", String::as_str);
    let data = load_dataset(name, args.scale, args.seed).expect("known dataset");
    let original = data.original_graph();
    let ratio = 0.01_f64.max(original.num_classes as f64 / original.num_nodes() as f64);
    let cfg = default_condense_config(name, args.scale, ratio, args.seed);

    // Class order by size, descending (paper orders classes by class size).
    let mut order: Vec<usize> = (0..original.num_classes).collect();
    let counts = original.class_counts();
    order.sort_by_key(|&c| std::cmp::Reverse(counts[c]));

    // --- (a)/(b): trained vs initialised correlation. -----------------------
    let condensed = condense(&data, &cfg);
    let init_mapping =
        Mapping::class_init(&original.labels, &condensed.synthetic.labels, cfg.epsilon);
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
    print_correlation("Fig. 5(a) — trained mapping M", &trained_corr, &order);
    print_correlation("Fig. 5(b) — class-aware initialisation", &init_corr, &order);

    // --- (c): loss curves and accuracy, class-aware vs random init. ---------
    let mut report = TableReport::new("Fig. 5(c) — initialisation study");
    let epochs = args.epochs.unwrap_or_else(|| default_epochs(args.scale));
    for (label, class_aware) in [("class-aware init", true), ("random init", false)] {
        let mut variant_cfg = cfg.clone();
        variant_cfg.class_aware_init = class_aware;
        let result = condense(&data, &variant_cfg);
        let losses = &result.history.mapping_loss;
        let first = losses.first().copied().unwrap_or(0.0);
        let last = losses.last().copied().unwrap_or(0.0);
        println!("\nmapping-loss curve ({label}):");
        let stride = (losses.len() / 10).max(1);
        let samples: Vec<String> = losses
            .iter()
            .step_by(stride)
            .map(|v| format!("{v:.4}"))
            .collect();
        println!("  {}", samples.join(" -> "));

        let model = train_on_graph(&result.synthetic, GnnKind::Sgc, epochs, 64, args.seed);
        let batches = data.test_batches(default_batch_size(args.scale), false);
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
    print_table(&report);
    if let Some(path) = &args.json {
        report.dump_json(path).expect("write json");
    }
}
