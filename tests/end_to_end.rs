//! End-to-end integration tests spanning the whole workspace: dataset →
//! condensation → GNN training → inductive inference → calibration.
//!
//! These use deliberately small configurations; they assert *relative*
//! behaviour (orderings, invariants), not absolute accuracy.

use mcond::gnn::{BaseDegrees, Propagator};
use mcond::prelude::*;

fn quick_cfg(ratio: f64, seed: u64) -> McondConfig {
    McondConfig {
        ratio,
        outer_loops: 3,
        relay_steps: 8,
        mapping_steps: 30,
        structure_batch: 128,
        support_cap: 64,
        lambda: 1.0,
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
        &TrainConfig { epochs: 120, lr: 0.05, ..TrainConfig::default() },
        None,
    );
    model
}

fn inductive_accuracy(
    server: &InductiveServer<'_>,
    data: &InductiveDataset,
    graph_batch: bool,
) -> f64 {
    let mut hits = 0.0;
    let mut total = 0usize;
    for batch in data.test_batches(100, graph_batch) {
        let logits = server.try_serve(&batch).expect("test batch serves");
        hits += accuracy(&logits, &batch.labels) * batch.len() as f64;
        total += batch.len();
    }
    hits / total as f64
}

#[test]
fn condense_then_infer_beats_chance_and_tracks_whole() {
    let data = load_dataset("pubmed", Scale::Small, 0).unwrap();
    let original = data.original_graph();
    let condensed = condense(&data, &quick_cfg(0.02, 0));

    let model_o = train_sgc(&original, 0);
    let whole =
        inductive_accuracy(&InductiveServer::on_original(&original, &model_o), &data, false);

    let model_s = train_sgc(&condensed.synthetic, 0);
    let on_s = inductive_accuracy(
        &InductiveServer::on_synthetic(&condensed.synthetic, &condensed.mapping, &model_s),
        &data,
        false,
    );

    let chance = 1.0 / original.num_classes as f64;
    assert!(whole > 0.75, "whole accuracy too low: {whole}");
    assert!(on_s > 2.0 * chance, "synthetic-graph inference at chance: {on_s}");
    assert!(
        on_s > whole - 0.35,
        "synthetic-graph inference too far from whole: {on_s} vs {whole}"
    );
}

#[test]
fn learned_mapping_beats_shuffled_mapping() {
    // Destroying the learned row structure of M must hurt on-S inference.
    let data = load_dataset("pubmed", Scale::Small, 1).unwrap();
    let condensed = condense(&data, &quick_cfg(0.02, 1));
    let model = train_sgc(&condensed.synthetic, 1);

    let good = inductive_accuracy(
        &InductiveServer::on_synthetic(&condensed.synthetic, &condensed.mapping, &model),
        &data,
        false,
    );

    // Shuffle mapping rows (node identities) with a fixed permutation.
    let n = condensed.dense_mapping.rows();
    let mut perm: Vec<usize> = (0..n).collect();
    MatRng::seed_from(99).shuffle(&mut perm);
    let shuffled_dense = condensed.dense_mapping.select_rows(&perm);
    let (shuffled, _) = sparsify_dense(&shuffled_dense, 0.01);
    let bad = inductive_accuracy(
        &InductiveServer::on_synthetic(&condensed.synthetic, &shuffled, &model),
        &data,
        false,
    );
    assert!(good > bad, "shuffled mapping should hurt: {good} vs {bad}");
}

#[test]
fn condensation_is_deterministic_per_seed() {
    let data = load_dataset("pubmed", Scale::Small, 2).unwrap();
    let a = condense(&data, &quick_cfg(0.02, 7));
    let b = condense(&data, &quick_cfg(0.02, 7));
    assert_eq!(a.synthetic.features, b.synthetic.features);
    assert_eq!(a.mapping, b.mapping);
    assert_eq!(a.synthetic.adj, b.synthetic.adj);
    let c = condense(&data, &quick_cfg(0.02, 8));
    assert_ne!(a.synthetic.features, c.synthetic.features);
}

#[test]
fn condensation_is_thread_invariant_as_a_whole() {
    // The kernels are each bitwise thread-invariant; this pins the whole of
    // Algorithm 1 — every tape step, optimiser update and loss trace.
    let data = load_dataset("pubmed", Scale::Small, 2).unwrap();
    let cfg = quick_cfg(0.02, 7);
    let serial = mcond::par::with_thread_limit(1, || condense(&data, &cfg));
    let pooled = mcond::par::with_thread_limit(4, || condense(&data, &cfg));
    assert!(serial.synthetic.features.bit_eq(&pooled.synthetic.features));
    assert!(serial.synthetic.adj.bit_eq(&pooled.synthetic.adj));
    assert!(serial.mapping.bit_eq(&pooled.mapping));
    assert!(serial.dense_adj.bit_eq(&pooled.dense_adj));
    assert!(serial.dense_mapping.bit_eq(&pooled.dense_mapping));
    let (a, b) = (&serial.history, &pooled.history);
    assert_eq!(a.grad_loss, b.grad_loss);
    assert_eq!(a.structure_loss, b.structure_loss);
    assert_eq!(a.transductive_loss, b.transductive_loss);
    assert_eq!(a.inductive_loss, b.inductive_loss);
    assert_eq!(a.mapping_loss, b.mapping_loss);
    assert!(!a.inductive_loss.is_empty(), "the config must exercise every loss");
}

#[test]
fn eq11_attachment_matches_manual_block_construction() {
    // Extending S by the sparse aM must equal hand-building
    // [[A', (aM)ᵀ],[aM, ã]] from the dense product.
    let data = load_dataset("pubmed", Scale::Small, 3).unwrap();
    let condensed = condense(&data, &quick_cfg(0.02, 3));
    let batch = data.test_batches(50, true).remove(0);
    let adj = condensed.synthetic.adj.block_extend(
        &spmm_sparse(&batch.incremental, &condensed.mapping),
        &batch.interconnect,
    );

    let n_syn = condensed.synthetic.num_nodes();
    let am = batch.incremental.to_dense().matmul(&condensed.mapping.to_dense());
    for i in 0..batch.len() {
        for j in 0..n_syn {
            let got = adj.get(n_syn + i, j);
            let want = am.get(i, j);
            assert!(
                mcond::linalg::approx_eq(got, want, 1e-5),
                "aM mismatch at ({i}, {j}): {got} vs {want}"
            );
            assert_eq!(adj.get(j, n_syn + i), got, "block asymmetry");
        }
    }
    for (i, j, v) in batch.interconnect.iter() {
        assert_eq!(adj.get(n_syn + i, n_syn + j), v, "ã corner mismatch");
    }
    assert_eq!(adj.rows(), n_syn + batch.len());
}

#[test]
fn coresets_and_vng_slot_into_the_same_inference_path() {
    let data = load_dataset("pubmed", Scale::Small, 4).unwrap();
    let original = data.original_graph();
    let model = train_sgc(&original, 4);
    let n_syn = 18;
    for method in CoresetMethod::ALL {
        let reduced = coreset(&original, &original.features, n_syn, method, 4);
        let acc = inductive_accuracy(
            &InductiveServer::on_synthetic(&reduced.graph, &reduced.mapping, &model),
            &data,
            false,
        );
        assert!(acc > 0.3, "{}: accuracy collapsed to {acc}", method.name());
    }
    let virtual_graph = vng(&original, &original.features, n_syn, 4);
    let acc = inductive_accuracy(
        &InductiveServer::on_synthetic(&virtual_graph.graph, &virtual_graph.mapping, &model),
        &data,
        false,
    );
    assert!(acc > 0.3, "VNG accuracy collapsed to {acc}");
}

#[test]
fn label_and_error_propagation_run_on_condensed_graph() {
    let data = load_dataset("pubmed", Scale::Small, 5).unwrap();
    let condensed = condense(&data, &quick_cfg(0.02, 5));
    let syn = &condensed.synthetic;
    let model = train_sgc(syn, 5);
    let server = InductiveServer::on_synthetic(syn, &condensed.mapping, &model);
    let n_syn = syn.num_nodes();

    let batch = data.test_batches(100, true).remove(0);
    let test_logits = server.try_serve(&batch).expect("test batch serves");
    let vanilla = accuracy(&test_logits, &batch.labels);

    // LP/EP iterate on the operator the server propagates with (Eq. 11).
    let attach = server.attachment(&batch);
    let deg = BaseDegrees::of(&syn.adj);
    let op = Propagator::extended_sym(&syn.adj, &attach, &batch.interconnect, &deg);
    let hop = |x: &DMat| op.spmm(x);
    let logits =
        model.predict(&GraphOps::from_adj(&syn.adj), &syn.features).vstack(&test_logits);

    let lp = label_propagation(hop, op.rows(), &syn.labels, syn.num_classes);
    let lp_acc = accuracy(&lp.slice_rows(n_syn, lp.rows()), &batch.labels);
    let ep = error_propagation(hop, &logits, &syn.labels);
    let ep_acc = accuracy(&ep.slice_rows(n_syn, ep.rows()), &batch.labels);

    // Calibration must stay in a sane band around the vanilla prediction.
    assert!(lp_acc > 0.3, "LP collapsed: {lp_acc}");
    assert!(ep_acc >= vanilla - 0.1, "EP broke predictions: {ep_acc} vs {vanilla}");
}

/// LP and EP on the served extended operator agree with the same
/// iterations on the materialised, re-normalised Eq. 3/11 graph, for a
/// graph batch (non-empty `ã`) on both bases: `S` through `M`, and `O`
/// through the identity.
#[test]
fn propagation_on_the_extended_operator_matches_the_materialised_graph() {
    let data = load_dataset("pubmed", Scale::Small, 7).unwrap();
    let condensed = condense(&data, &quick_cfg(0.02, 7));
    let original = data.original_graph();
    let eye = Csr::eye(original.num_nodes());
    let batch = data.test_batches(100, true).remove(0);
    assert!(batch.interconnect.nnz() > 0, "a graph batch carries interconnect edges");

    for (base, mapping) in [(&condensed.synthetic, &condensed.mapping), (&original, &eye)] {
        let attach = spmm_sparse(&batch.incremental, mapping);
        let deg = BaseDegrees::of(&base.adj);
        let op = Propagator::extended_sym(&base.adj, &attach, &batch.interconnect, &deg);
        let ahat = sym_normalize(&base.adj.block_extend(&attach, &batch.interconnect));
        let served = |x: &DMat| op.spmm(x);
        let reference = |x: &DMat| ahat.spmm(x);
        let (rows, classes) = (op.rows(), base.num_classes);
        let logits = MatRng::seed_from(7).normal(rows, classes, 0.0, 1.0);
        for (name, got, want) in [
            (
                "LP",
                label_propagation(served, rows, &base.labels, classes),
                label_propagation(reference, rows, &base.labels, classes),
            ),
            (
                "EP",
                error_propagation(served, &logits, &base.labels),
                error_propagation(reference, &logits, &base.labels),
            ),
        ] {
            assert_eq!(got.shape(), want.shape(), "{name}: shape");
            for (&g, &w) in got.as_slice().iter().zip(want.as_slice()) {
                assert!(
                    mcond::linalg::approx_eq(g, w, 1e-5),
                    "{name} on N = {}: {g} vs {w}",
                    base.num_nodes()
                );
            }
        }
    }
}

#[test]
fn sparsification_trades_accuracy_for_storage() {
    let data = load_dataset("pubmed", Scale::Small, 6).unwrap();
    let condensed = condense(&data, &quick_cfg(0.02, 6));
    let model = train_sgc(&condensed.synthetic, 6);

    let (adj_loose, map_loose) = condensed.resparsify(0.5, 0.0);
    let (adj_tight, map_tight) = condensed.resparsify(0.5, 0.2);
    assert!(map_tight.nnz() < map_loose.nnz(), "delta must prune entries");
    assert!(map_tight.storage_bytes() < map_loose.storage_bytes());

    // Both still produce usable predictions.
    for (adj, map) in [(adj_loose, map_loose), (adj_tight, map_tight)] {
        let graph = Graph::new(
            adj,
            condensed.synthetic.features.clone(),
            condensed.synthetic.labels.clone(),
            condensed.synthetic.num_classes,
        );
        let acc = inductive_accuracy(
            &InductiveServer::on_synthetic(&graph, &map, &model),
            &data,
            false,
        );
        assert!(acc.is_finite() && acc > 0.2, "accuracy collapsed: {acc}");
    }
}

#[test]
fn every_architecture_runs_inductively_on_the_condensed_graph() {
    let data = load_dataset("pubmed", Scale::Small, 7).unwrap();
    let condensed = condense(&data, &quick_cfg(0.02, 7));
    let batch = data.test_batches(50, false).remove(0);
    for kind in GnnKind::ALL {
        let ops = GraphOps::from_adj(&condensed.synthetic.adj);
        let mut model = GnnModel::new(
            kind,
            condensed.synthetic.feature_dim(),
            16,
            condensed.synthetic.num_classes,
            7,
        );
        train(
            &mut model,
            &ops,
            &condensed.synthetic.features,
            &condensed.synthetic.labels,
            &TrainConfig { epochs: 40, lr: 0.05, ..TrainConfig::default() },
            None,
        );
        let logits =
            InductiveServer::on_synthetic(&condensed.synthetic, &condensed.mapping, &model)
                .try_serve(&batch)
                .expect("test batch serves");
        assert_eq!(logits.rows(), batch.len(), "{}", kind.name());
        assert!(
            logits.as_slice().iter().all(|v| v.is_finite()),
            "{} produced non-finite logits",
            kind.name()
        );
    }
}
