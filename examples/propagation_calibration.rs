//! Non-parametric calibration on the condensed graph (paper Table III):
//! label propagation and error propagation refine inductive predictions at
//! negligible cost, because propagation runs on the tiny synthetic graph.
//!
//! ```sh
//! cargo run --release --example propagation_calibration
//! ```

use mcond::prelude::*;
use std::time::Instant;

fn main() {
    let data = load_dataset("pubmed", Scale::Small, 0).expect("bundled dataset");
    let condensed = condense(&data, &McondConfig { ratio: 0.02, ..Default::default() });

    // Train on the synthetic graph (the paper's Table III baseline).
    let ops = GraphOps::from_adj(&condensed.synthetic.adj);
    let mut model = GnnModel::new(
        GnnKind::Sgc,
        condensed.synthetic.feature_dim(),
        64,
        condensed.synthetic.num_classes,
        0,
    );
    train(
        &mut model,
        &ops,
        &condensed.synthetic.features,
        &condensed.synthetic.labels,
        &TrainConfig { epochs: 150, lr: 0.03, ..TrainConfig::default() },
        None,
    );

    let cfg = PropagationConfig::default();
    let syn = &condensed.synthetic;
    let n_syn = syn.num_nodes();
    let server = InductiveServer::on_synthetic(syn, &condensed.mapping, &model);
    // The residual error propagation diffuses: the model's error on the
    // labelled synthetic nodes.
    let base_logits = model.predict(&ops, &syn.features);
    let mut vanilla_hits = 0.0;
    let mut lp_hits = 0.0;
    let mut ep_hits = 0.0;
    let mut total = 0usize;
    let mut prop_seconds = 0.0;

    for batch in data.test_batches(1000, true) {
        // Serve the test nodes on S through M (Eq. 11).
        let test_logits = server.try_serve(&batch).expect("test batch serves");
        vanilla_hits += accuracy(&test_logits, &batch.labels) * batch.len() as f64;

        // LP/EP run on the combined structure, so spell it out: S
        // block-extended with the attachment rows aM.
        let attach = spmm_sparse(&batch.incremental, &condensed.mapping);
        let adj = syn.adj.block_extend(&attach, &batch.interconnect);
        let logits = base_logits.vstack(&test_logits);

        let start = Instant::now();
        // LP: diffuse the synthetic labels Y' to the attached test nodes.
        let lp = label_propagation(
            &adj,
            &condensed.synthetic.labels,
            n_syn,
            condensed.synthetic.num_classes,
            &cfg,
        );
        // EP: diffuse the model's residual error on synthetic nodes.
        let ep = error_propagation(&adj, &logits, &condensed.synthetic.labels, n_syn, 1.0, &cfg);
        prop_seconds += start.elapsed().as_secs_f64();

        lp_hits +=
            accuracy(&lp.slice_rows(n_syn, lp.rows()), &batch.labels) * batch.len() as f64;
        ep_hits +=
            accuracy(&ep.slice_rows(n_syn, ep.rows()), &batch.labels) * batch.len() as f64;
        total += batch.len();
    }

    let n = total as f64;
    println!("inductive accuracy on the synthetic graph (graph batch):");
    println!("  vanilla GNN:        {:.2}%", 100.0 * vanilla_hits / n);
    println!("  + label propagation: {:.2}%", 100.0 * lp_hits / n);
    println!("  + error propagation: {:.2}%", 100.0 * ep_hits / n);
    println!("  propagation time:    {:.3} ms total", 1000.0 * prop_seconds);
}
