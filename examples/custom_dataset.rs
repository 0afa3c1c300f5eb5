//! Bring your own graph: generate (or load) a custom attributed graph,
//! persist it as a graph file (a one-section `MCST` container), build an
//! inductive split, and condense it. Real datasets saved the same way drop
//! into the same pipeline.
//!
//! ```sh
//! cargo run --release --example custom_dataset
//! ```

use mcond::store::{load_graph, save_graph};
use mcond::prelude::*;

fn main() {
    // 1. A custom graph from the block-model generator (replace this with
    //    your own Graph built from Coo + DMat + labels).
    let graph = generate_sbm(&SbmConfig {
        nodes: 1_500,
        edges: 6_000,
        feature_dim: 48,
        num_classes: 5,
        homophily: 0.8,
        center_scale: 0.3,
        feature_noise: 1.0,
        ..SbmConfig::default()
    });
    println!(
        "custom graph: {} nodes, {} edges, homophily {:.2}",
        graph.num_nodes(),
        graph.num_edges(),
        graph.edge_homophily()
    );

    // 2. Round-trip through the on-disk format.
    let path = std::env::temp_dir().join("mcond_custom.mcst");
    save_graph(&graph, &path).expect("save");
    let graph = load_graph(&path).expect("load");
    std::fs::remove_file(&path).ok();
    println!("round-tripped through a graph file");

    // 3. Build an inductive split: 80% train (the original graph), 10%
    //    validation (support nodes), 10% test (inductive).
    let n = graph.num_nodes();
    let mut order: Vec<usize> = (0..n).collect();
    MatRng::seed_from(7).shuffle(&mut order);
    let train_idx = order[..n * 8 / 10].to_vec();
    let val = order[n * 8 / 10..n * 9 / 10].to_vec();
    let test = order[n * 9 / 10..].to_vec();
    let data = InductiveDataset::new(graph, train_idx, val, test);

    // 4. Condense and evaluate.
    let condensed = condense(&data, &McondConfig { ratio: 0.02, ..Default::default() });
    let original = data.original_graph();
    let model = {
        let ops = GraphOps::from_adj(&original.adj);
        let mut m = GnnModel::new(GnnKind::Sgc, original.feature_dim(), 64, original.num_classes, 0);
        train(
            &mut m,
            &ops,
            &original.features,
            &original.labels,
            &TrainConfig { epochs: 150, lr: 0.03, ..TrainConfig::default() },
            None,
        );
        m
    };
    let server = InductiveServer::on_synthetic(&condensed.synthetic, &condensed.mapping, &model);
    let mut hits = 0.0;
    let mut total = 0usize;
    for batch in data.test_batches(500, false) {
        let logits = server.try_serve(&batch).expect("test batch serves");
        hits += accuracy(&logits, &batch.labels) * batch.len() as f64;
        total += batch.len();
    }
    println!(
        "condensed to {} nodes; inductive accuracy on S: {:.2}%",
        condensed.synthetic.num_nodes(),
        100.0 * hits / total as f64
    );
}
