//! What `ServeMode::FrozenBase` answers, against `ServeMode::Exact`, on
//! the paper's two attachment targets (not in the paper; DESIGN.md §4g):
//!
//! * synthetic — the condensed graph `S` through the mapping `M` (Eq. 11),
//! * original — the training graph `T` (Eq. 3),
//!
//! for one-node requests and for graph batches, with a GCN trained on `S`.
//! Per dataset × seed × target × request shape × mode: test `accuracy`,
//! argmax `agreement_with_exact`, `max_abs_logit_dev` from the exact
//! logits, and mean `us_per_batch`. The exact rows are their own
//! reference (agreement 1, deviation 0).

use mcond_bench::pipeline::{default_batch_size, default_condense_config, default_epochs};
use mcond_bench::{parse_args, print_table, train_on_graph, Row, TableReport};
use mcond_core::{condense, InductiveServer, ServeMode};
use mcond_gnn::GnnKind;
use mcond_graph::{dataset_spec, load_dataset, NodeBatch};
use mcond_linalg::DMat;
use std::time::Instant;

/// Serves every batch; returns the logits and the mean microseconds per
/// batch.
fn serve_all(server: &InductiveServer<'_>, batches: &[NodeBatch]) -> (Vec<DMat>, f64) {
    let start = Instant::now();
    let logits: Vec<DMat> =
        batches.iter().map(|b| server.try_serve(b).expect("test batch serves")).collect();
    (logits, start.elapsed().as_secs_f64() * 1e6 / batches.len() as f64)
}

fn main() {
    let args = parse_args();
    let mut report = TableReport::new("Serve-mode ablation — FrozenBase against Exact");
    let batch_size = default_batch_size(args.scale);

    for name in &args.datasets {
        let Ok(spec) = dataset_spec(name, args.scale, args.seed) else {
            eprintln!("skipping unknown dataset {name}");
            continue;
        };
        let ratio = spec.ratios[1];
        for rep in 0..args.repeats {
            let seed = args.seed + rep as u64;
            let data = load_dataset(name, args.scale, seed).expect("known dataset");
            let condensed =
                condense(&data, &default_condense_config(name, args.scale, ratio, seed));
            let epochs = args.epochs.unwrap_or_else(|| default_epochs(args.scale));
            let model = train_on_graph(&condensed.synthetic, GnnKind::Gcn, epochs, 64, seed);
            let original = data.original_graph();
            let targets = [
                ("synthetic", &condensed.synthetic, Some(&condensed.mapping)),
                ("original", &original, None),
            ];
            for (target, base, mapping) in targets {
                let server = |mode| {
                    match mapping {
                        Some(m) => InductiveServer::on_synthetic(base, m, &model),
                        None => InductiveServer::on_original(base, &model),
                    }
                    .with_serve_mode(mode)
                };
                let (exact_server, frozen_server) =
                    (server(ServeMode::Exact), server(ServeMode::FrozenBase));
                for (shape, size) in [("1-node", 1), ("graph batch", batch_size)] {
                    let batches = data.test_batches(size, true);
                    let nodes: usize = batches.iter().map(NodeBatch::len).sum();
                    let (exact, exact_us) = serve_all(&exact_server, &batches);
                    let (frozen, frozen_us) = serve_all(&frozen_server, &batches);
                    for (mode, logits, us) in
                        [("exact", &exact, exact_us), ("frozen", &frozen, frozen_us)]
                    {
                        let (mut hits, mut agree, mut dev) = (0usize, 0usize, 0.0f32);
                        for ((got, want), batch) in logits.iter().zip(&exact).zip(&batches) {
                            let (got_cls, want_cls) = (got.argmax_rows(), want.argmax_rows());
                            hits += got_cls.iter().zip(&batch.labels).filter(|(a, b)| a == b).count();
                            agree += got_cls.iter().zip(&want_cls).filter(|(a, b)| a == b).count();
                            for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                                dev = dev.max((g - w).abs());
                            }
                        }
                        report.push(
                            Row::new()
                                .key("dataset", format!("{name} ({:.2}%)", 100.0 * ratio))
                                .key("seed", seed)
                                .key("target", target)
                                .key("shape", format!("{shape} ({size})"))
                                .key("mode", mode)
                                .metric("accuracy", hits as f64 / nodes as f64)
                                .metric("agreement_with_exact", agree as f64 / nodes as f64)
                                .metric("max_abs_logit_dev", f64::from(dev))
                                .metric("us_per_batch", us),
                        );
                    }
                }
            }
        }
    }
    print_table(&report);
    if let Some(path) = &args.json {
        report.dump_json(path).expect("write json");
    }
}
