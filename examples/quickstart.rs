//! Quickstart: condense a graph, train on the small synthetic graph, and
//! run inductive inference directly on it through the learned mapping.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mcond::prelude::*;

fn main() {
    // 1. Load an inductive dataset. The training subgraph is the "original
    //    graph" T handed to condensation; validation/test nodes are unseen.
    let data = load_dataset("pubmed", Scale::Small, 0).expect("bundled dataset");
    let original = data.original_graph();
    println!(
        "original graph T: {} nodes, {} edges, {} classes",
        original.num_nodes(),
        original.num_edges(),
        original.num_classes
    );

    // 2. Condense: learn S = {A', X', Y'} and the mapping M (Algorithm 1).
    let cfg = McondConfig { ratio: 0.02, ..McondConfig::default() };
    let condensed = condense(&data, &cfg);
    println!(
        "synthetic graph S: {} nodes ({}x smaller), mapping nnz = {}",
        condensed.synthetic.num_nodes(),
        original.num_nodes() / condensed.synthetic.num_nodes(),
        condensed.mapping.nnz()
    );

    // 3. Train SGC on the synthetic graph only.
    let ops = GraphOps::from_adj(&condensed.synthetic.adj);
    let mut model = GnnModel::new(
        GnnKind::Sgc,
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
        &TrainConfig { epochs: 150, lr: 0.03, ..TrainConfig::default() },
        None,
    );
    println!("trained on S: final loss {:.4}", report.losses.last().unwrap());

    // 4. Inductive inference: attach test nodes to S through M (Eq. 11)
    //    and, for comparison, to the original graph (Eq. 3).
    let on_synthetic =
        InductiveServer::on_synthetic(&condensed.synthetic, &condensed.mapping, &model);
    let on_original = InductiveServer::on_original(&original, &model);
    let mut hits_s = 0.0;
    let mut hits_o = 0.0;
    let mut total = 0usize;
    for batch in data.test_batches(1000, false) {
        let logits_s = on_synthetic.try_serve(&batch).expect("test batch serves");
        let logits_o = on_original.try_serve(&batch).expect("test batch serves");
        hits_s += accuracy(&logits_s, &batch.labels) * batch.len() as f64;
        hits_o += accuracy(&logits_o, &batch.labels) * batch.len() as f64;
        total += batch.len();
    }
    println!(
        "inductive accuracy — on S through M: {:.2}%   on full T: {:.2}%",
        100.0 * hits_s / total as f64,
        100.0 * hits_o / total as f64,
    );
}
