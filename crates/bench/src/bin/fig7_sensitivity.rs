//! Fig. 7: sensitivity of MCond_OS (node batch) to the loss weights `λ`
//! (structure loss) and `β` (inductive loss), swept on Flickr as in the
//! paper (other datasets can be selected with `--datasets`).

use mcond_bench::pipeline::{default_batch_size, default_condense_config, default_epochs};
use mcond_bench::{evaluate_inductive, parse_args, print_table, train_on_graph, Row, TableReport};
use mcond_core::{condense, InductiveServer};
use mcond_gnn::GnnKind;
use mcond_graph::{dataset_spec, load_dataset};

fn main() {
    let mut args = parse_args();
    if args.datasets.len() > 1 {
        // The paper sweeps one dataset (Flickr); default to it.
        args.datasets = vec!["flickr".to_owned()];
    }
    let name = args.datasets[0].clone();
    let spec = dataset_spec(&name, args.scale, args.seed).expect("known dataset");
    let ratio = spec.ratios[1];
    let data = load_dataset(&name, args.scale, args.seed).expect("known dataset");
    let epochs = args.epochs.unwrap_or_else(|| default_epochs(args.scale));

    let lambdas = [0.0, 0.01, 0.1, 1.0, 10.0, 100.0];
    let betas = [0.0, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0];

    let mut report =
        TableReport::new(&format!("Fig. 7 — λ/β sensitivity of MCond_OS on {name}"));

    let mut evaluate = |lambda: f32, beta: f32, which: &str| {
        let mut cfg = default_condense_config(&name, args.scale, ratio, args.seed);
        cfg.lambda = lambda;
        cfg.beta = beta;
        cfg.use_structure_loss = lambda > 0.0;
        cfg.use_inductive_loss = beta > 0.0;
        let condensed = condense(&data, &cfg);
        let model = train_on_graph(
            &data.original_graph(),
            GnnKind::Sgc,
            epochs,
            64,
            args.seed,
        );
        let batches = data.test_batches(default_batch_size(args.scale), false);
        let res = evaluate_inductive(
            &InductiveServer::on_synthetic(&condensed.synthetic, &condensed.mapping, &model),
            &batches,
        );
        report.push(
            Row::new()
                .key("sweep", which)
                .key("lambda", lambda)
                .key("beta", beta)
                .metric("acc_node_batch", 100.0 * res.accuracy),
        );
    };

    let default_beta = 100.0;
    let default_lambda = 0.1;
    for &lambda in &lambdas {
        evaluate(lambda, default_beta, "lambda");
    }
    for &beta in &betas {
        evaluate(default_lambda, beta, "beta");
    }

    print_table(&report);
    if let Some(path) = &args.json {
        report.dump_json(path).expect("write json");
    }
}
