//! Generalisability across GNN architectures (paper Table IV): the same
//! synthetic graph and mapping serve SGC, GCN, GraphSAGE, APPNP, and
//! ChebNet — each trained on S and evaluated inductively on S through M.
//!
//! ```sh
//! cargo run --release --example architecture_zoo
//! ```
//!
//! Adding an architecture to this table: a `GnnKind` variant (arms in
//! `name`/`code`/`param_count`), its parameters in `GnnModel::new`, and one
//! arm in `GnnModel::run` (`crates/gnn/src/model.rs`) — training, split
//! serving and the frozen-base cache all evaluate that one program, so
//! nothing in `frozen.rs`, `mcond-core` or `mcond-serve` changes. The loop
//! below iterates `GnnKind::ALL`.

use mcond::prelude::*;

fn main() {
    let data = load_dataset("flickr", Scale::Small, 0).expect("bundled dataset");
    let condensed = condense(&data, &McondConfig { ratio: 0.05, ..Default::default() });
    let batches = data.test_batches(1000, false);

    println!("architecture    train-acc   inductive-acc (node batch)");
    for kind in GnnKind::ALL {
        let ops = GraphOps::from_adj(&condensed.synthetic.adj);
        let mut model = GnnModel::new(
            kind,
            condensed.synthetic.feature_dim(),
            64,
            condensed.synthetic.num_classes,
            0,
        );
        let report = train(
            &mut model,
            &ops,
            &condensed.synthetic.features,
            &condensed.synthetic.labels,
            &TrainConfig { epochs: 200, lr: 0.03, ..TrainConfig::default() },
            None,
        );
        let server =
            InductiveServer::on_synthetic(&condensed.synthetic, &condensed.mapping, &model);
        let mut hits = 0.0;
        let mut total = 0usize;
        for batch in &batches {
            let logits = server.try_serve(batch).expect("test batch serves");
            hits += accuracy(&logits, &batch.labels) * batch.len() as f64;
            total += batch.len();
        }
        println!(
            "{:>12}    {:>6.2}%     {:>6.2}%",
            kind.name(),
            100.0 * report.train_accuracy,
            100.0 * hits / total as f64
        );
    }
}
