//! Cross-crate invariant tests: storage model, normalisation consistency,
//! inductive-split bookkeeping, and on-disk round trips through the whole
//! pipeline.

use mcond::store::{load_graph, save_graph};
use mcond::prelude::*;

#[test]
fn storage_model_matches_paper_formula() {
    // §II-B: memory is O(||A||_0 + (N + n)d). Our CSR accounting must grow
    // linearly in nnz and the feature block in (N + n)·d.
    let data = load_dataset("pubmed", Scale::Small, 0).unwrap();
    let original = data.original_graph();
    let batch = data.test_batches(100, true).remove(0);
    let adj = original.adj.block_extend(&batch.incremental, &batch.interconnect);

    let nnz = adj.nnz();
    let bytes = adj.storage_bytes();
    // indptr (u64) + cols (u32) + vals (f32): 8·(rows+1) + 8·nnz.
    assert_eq!(bytes, 8 * (adj.rows() + 1) + 8 * nnz);
    // ...and the counted model the cost figures report agrees with it.
    let rows = original.num_nodes() + batch.len();
    assert_eq!(
        extended_storage_bytes(&original, batch.incremental.nnz(), &batch),
        bytes + rows * original.feature_dim() * 4
    );
}

#[test]
fn extended_graph_normalisation_is_consistent() {
    // Normalising the extended adjacency directly must equal normalising
    // after a dense round-trip (no CSR artefacts).
    let data = load_dataset("pubmed", Scale::Small, 1).unwrap();
    let original = data.original_graph();
    let batch = data.test_batches(50, true).remove(0);
    let adj = original.adj.block_extend(&batch.incremental, &batch.interconnect);

    let direct = sym_normalize(&adj).to_dense();
    let via_dense = mcond::sparse::sym_normalize_dense(&adj.to_dense());
    for (a, b) in direct.as_slice().iter().zip(via_dense.as_slice()) {
        assert!(mcond::linalg::approx_eq(*a, *b, 1e-4), "{a} vs {b}");
    }
}

#[test]
fn inductive_split_never_leaks_test_edges_into_training() {
    let data = load_dataset("flickr", Scale::Small, 2).unwrap();
    let original = data.original_graph();
    // The original graph must contain only train-train edges: its size can
    // never exceed the full graph's edge count, and every test node's
    // incremental row references only training columns (checked by
    // construction panics) — here we verify edge conservation.
    let full_edges = data.full.num_edges();
    let train_edges = original.num_edges();
    assert!(train_edges < full_edges);

    // Train + incremental + interconnect edges never exceed the full count.
    let batches = data.test_batches(usize::MAX, true);
    let batch = &batches[0];
    let test_edges: usize = batch.incremental.nnz() + batch.interconnect.nnz() / 2;
    assert!(train_edges + test_edges <= full_edges);
}

#[test]
fn pipeline_survives_disk_round_trip() {
    // Save the full graph, reload, rebuild the same split, and verify the
    // original graph and a condensation run are identical.
    let data = load_dataset("pubmed", Scale::Small, 3).unwrap();
    let path = std::env::temp_dir().join("mcond_pipeline_roundtrip.mcst");
    save_graph(&data.full, &path).unwrap();
    let reloaded = load_graph(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let data2 = InductiveDataset::new(
        reloaded,
        data.train_idx.clone(),
        data.val_idx.clone(),
        data.test_idx.clone(),
    );
    let cfg = McondConfig {
        ratio: 0.02,
        outer_loops: 1,
        relay_steps: 3,
        mapping_steps: 5,
        support_cap: 32,
        ..McondConfig::default()
    };
    let a = condense(&data, &cfg);
    let b = condense(&data2, &cfg);
    assert_eq!(a.synthetic.features, b.synthetic.features);
    assert_eq!(a.mapping, b.mapping);
}

#[test]
fn graph_and_node_batch_differ_only_in_interconnections() {
    let data = load_dataset("reddit", Scale::Small, 4).unwrap();
    let nodes: Vec<usize> = data.test_idx[..50].to_vec();
    let gb = data.batch(&nodes, true);
    let nb = data.batch(&nodes, false);
    assert_eq!(gb.incremental, nb.incremental);
    assert_eq!(gb.features, nb.features);
    assert_eq!(gb.labels, nb.labels);
    assert_eq!(nb.interconnect.nnz(), 0);
}

#[test]
fn synthetic_graph_is_a_valid_graph() {
    let data = load_dataset("pubmed", Scale::Small, 5).unwrap();
    let condensed = condense(
        &data,
        &McondConfig {
            ratio: 0.02,
            outer_loops: 2,
            relay_steps: 4,
            mapping_steps: 5,
            support_cap: 32,
            ..McondConfig::default()
        },
    );
    let s = &condensed.synthetic;
    // A' symmetric, weights in (0, 1), zero diagonal.
    for (i, j, v) in s.adj.iter() {
        assert!(v > 0.0 && v < 1.0, "A'[{i}][{j}] = {v}");
        assert!(
            mcond::linalg::approx_eq(s.adj.get(j, i), v, 1e-5),
            "A' asymmetric at ({i}, {j})"
        );
        assert_ne!(i, j, "learned self-loop");
    }
    // Mapping rows are renormalised after Eq. (14) thresholding: every
    // surviving (non-empty) row is a distribution over synthetic nodes —
    // it sums to exactly 1, not merely "at most 1 minus the pruned mass".
    // Rows whose entries were all pruned stay empty (no NaN backfill).
    for i in 0..condensed.mapping.rows() {
        let vals = condensed.mapping.row_vals(i);
        if vals.is_empty() {
            continue;
        }
        let row_sum: f32 = vals.iter().sum();
        assert!(
            mcond::linalg::approx_eq(row_sum, 1.0, 1e-4),
            "mapping row {i} sums to {row_sum}, expected 1"
        );
        assert!(vals.iter().all(|&v| v > 0.0 && v <= 1.0 + 1e-6));
    }
    // Labels cover every class.
    let counts = s.class_counts();
    assert!(counts.iter().all(|&c| c >= 1), "{counts:?}");
}

#[test]
fn resparsify_with_extreme_delta_prunes_rows_without_nans() {
    // Regression: renormalising the mapping after thresholding must leave
    // fully-pruned rows empty instead of dividing by a zero row sum. An
    // extreme δ prunes every entry of most (possibly all) rows; the result
    // must stay finite and any surviving row must still sum to 1.
    let data = load_dataset("pubmed", Scale::Small, 5).unwrap();
    let cfg = McondConfig {
        ratio: 0.02,
        outer_loops: 1,
        relay_steps: 3,
        mapping_steps: 5,
        support_cap: 32,
        ..McondConfig::default()
    };
    let condensed = condense(&data, &cfg);
    let (_, map) = condensed.resparsify(cfg.mu, 0.999_999);
    assert!(map.nnz() < condensed.mapping.nnz(), "extreme delta should prune");
    for i in 0..map.rows() {
        let vals = map.row_vals(i);
        assert!(vals.iter().all(|v| v.is_finite()), "row {i} has non-finite entries");
        if !vals.is_empty() {
            let s: f32 = vals.iter().sum();
            assert!(mcond::linalg::approx_eq(s, 1.0, 1e-4), "row {i} sums to {s}");
        }
    }
}

#[test]
fn storage_model_reports_synthetic_graph_as_smaller() {
    let data = load_dataset("reddit", Scale::Small, 6).unwrap();
    let original = data.original_graph();
    let condensed = condense(
        &data,
        &McondConfig {
            ratio: 0.01,
            outer_loops: 1,
            relay_steps: 3,
            mapping_steps: 5,
            support_cap: 32,
            ..McondConfig::default()
        },
    );
    let batch = data.test_batches(100, true).remove(0);
    let mem_o = extended_storage_bytes(&original, batch.incremental.nnz(), &batch);
    let am = spmm_sparse(&batch.incremental, &condensed.mapping);
    let mem_s = extended_storage_bytes(&condensed.synthetic, am.nnz(), &batch);
    assert!(
        mem_s * 2 < mem_o,
        "synthetic deployment should be at least 2x smaller: {mem_s} vs {mem_o}"
    );
}
