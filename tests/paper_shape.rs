//! Paper-shape regression tests: the qualitative claims of the paper's
//! evaluation, asserted on one seed of the small-scale datasets.
//!
//! These run the full pipeline several times, so they are `#[ignore]`d by
//! default; run them explicitly (release strongly recommended):
//!
//! ```sh
//! cargo test --release --test paper_shape -- --ignored
//! ```

use mcond::prelude::*;

fn pipeline_cfg(ratio: f64, seed: u64) -> McondConfig {
    McondConfig {
        ratio,
        outer_loops: 6,
        relay_steps: 15,
        mapping_steps: 80,
        support_cap: 300,
        lambda: 10.0,
        beta: 1.0,
        seed,
        ..McondConfig::default()
    }
}

fn train_sgc(graph: &Graph, seed: u64) -> GnnModel {
    let ops = GraphOps::from_adj(&graph.adj);
    let mut model =
        GnnModel::new(GnnKind::Sgc, graph.feature_dim(), 0, graph.num_classes, seed);
    train(
        &mut model,
        &ops,
        &graph.features,
        &graph.labels,
        &TrainConfig { epochs: 150, lr: 0.03, ..TrainConfig::default() },
        None,
    );
    model
}

fn inductive_accuracy(server: &InductiveServer<'_>, data: &InductiveDataset) -> f64 {
    let mut hits = 0.0;
    let mut total = 0usize;
    for batch in data.test_batches(100, false) {
        let logits = server.try_serve(&batch).expect("test batch serves");
        hits += accuracy(&logits, &batch.labels) * batch.len() as f64;
        total += batch.len();
    }
    hits / total as f64
}

/// The paper's central Table II ordering on the Reddit-like dataset:
/// condensation-based deployment beats starved coresets and VNG by a wide
/// margin, and everything trails Whole.
#[test]
#[ignore = "full pipeline; run with --ignored in release"]
fn reddit_ordering_condensation_beats_coresets_and_vng() {
    let data = load_dataset("reddit", Scale::Small, 0).unwrap();
    let original = data.original_graph();
    let condensed = condense(&data, &pipeline_cfg(0.015, 0));

    let model_o = train_sgc(&original, 0);
    let model_s = train_sgc(&condensed.synthetic, 0);

    let whole = inductive_accuracy(&InductiveServer::on_original(&original, &model_o), &data);
    let mcond_so =
        inductive_accuracy(&InductiveServer::on_original(&original, &model_s), &data);

    let embeddings = {
        let ahat = sym_normalize(&original.adj);
        let mut z = original.features.clone();
        for _ in 0..2 {
            z = ahat.spmm(&z);
        }
        z
    };
    let n_syn = condensed.synthetic.num_nodes();
    let random = coreset(&original, &embeddings, n_syn, CoresetMethod::Random, 0);
    let coreset_acc = inductive_accuracy(
        &InductiveServer::on_synthetic(&random.graph, &random.mapping, &model_o),
        &data,
    );
    let virtual_graph = vng(&original, &original.features, n_syn, 0);
    let vng_acc = inductive_accuracy(
        &InductiveServer::on_synthetic(&virtual_graph.graph, &virtual_graph.mapping, &model_o),
        &data,
    );

    assert!(whole > mcond_so, "Whole {whole} should top MCond_SO {mcond_so}");
    assert!(
        mcond_so > coreset_acc + 0.10,
        "MCond_SO {mcond_so} should clearly beat the Random coreset {coreset_acc}"
    );
    assert!(
        mcond_so > vng_acc + 0.10,
        "MCond_SO {mcond_so} should clearly beat VNG {vng_acc}"
    );
}

/// Fig. 3/4: synthetic-graph deployment is meaningfully faster and smaller
/// than original-graph deployment, and the gap grows with graph size.
#[test]
#[ignore = "full pipeline; run with --ignored in release"]
fn deployment_cost_gap_grows_with_graph_size() {
    let mut ratios = Vec::new();
    for name in ["pubmed", "reddit"] {
        let data = load_dataset(name, Scale::Small, 0).unwrap();
        let original = data.original_graph();
        let condensed = condense(&data, &pipeline_cfg(0.015, 0));
        let batch = data.test_batches(100, true).remove(0);
        let mem_o = extended_storage_bytes(&original, batch.incremental.nnz(), &batch);
        let am = spmm_sparse(&batch.incremental, &condensed.mapping);
        let mem_s = extended_storage_bytes(&condensed.synthetic, am.nnz(), &batch);
        ratios.push(mem_o as f64 / mem_s as f64);
    }
    assert!(ratios[0] > 2.0, "pubmed compression too small: {}", ratios[0]);
    assert!(
        ratios[1] > ratios[0],
        "compression should grow with graph size: {ratios:?}"
    );
}

/// Table V: the full loss beats the Plain (no L_str, no L_ind) ablation.
#[test]
#[ignore = "full pipeline; run with --ignored in release"]
fn full_losses_beat_plain_ablation() {
    let data = load_dataset("reddit", Scale::Small, 0).unwrap();
    let full_cfg = pipeline_cfg(0.015, 0);
    let plain_cfg = McondConfig {
        use_structure_loss: false,
        use_inductive_loss: false,
        ..full_cfg.clone()
    };
    let evaluate = |cfg: &McondConfig| {
        let condensed = condense(&data, cfg);
        let model = train_sgc(&condensed.synthetic, 0);
        inductive_accuracy(
            &InductiveServer::on_synthetic(&condensed.synthetic, &condensed.mapping, &model),
            &data,
        )
    };
    let full = evaluate(&full_cfg);
    let plain = evaluate(&plain_cfg);
    assert!(full > plain, "full MCond {full} should beat Plain {plain}");
}
