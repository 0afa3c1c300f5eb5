//! The train-once / infer-per-batch evaluation loop behind every table.

pub use mcond_core::propagated_embeddings;
use mcond_core::InductiveServer;
use mcond_gnn::{
    accuracy, extended_storage_bytes, train, GnnKind, GnnModel, GraphOps, TrainConfig,
};
use mcond_graph::{Graph, NodeBatch};
use std::time::Instant;

/// One evaluated cell: accuracy plus the Fig. 3/4 cost quantities.
#[derive(Clone, Copy, Debug)]
pub struct EvalResult {
    /// Test accuracy over all batches.
    pub accuracy: f64,
    /// Mean inference seconds per batch.
    pub seconds_per_batch: f64,
    /// Peak memory (storage model) over batches, bytes.
    pub memory_bytes: usize,
}

/// Trains a fresh GNN of the given kind on a fully labelled graph.
#[must_use]
pub fn train_on_graph(
    graph: &Graph,
    kind: GnnKind,
    epochs: usize,
    hidden: usize,
    seed: u64,
) -> GnnModel {
    let ops = GraphOps::from_adj(&graph.adj);
    let mut model = GnnModel::new(
        kind,
        graph.feature_dim(),
        hidden,
        graph.num_classes,
        seed,
    );
    let cfg = TrainConfig { epochs, lr: 0.03, weight_decay: 5e-4, patience: None };
    let _ = train(&mut model, &ops, &graph.features, &graph.labels, &cfg, None);
    model
}

/// Evaluates a deployment — a model served on its target by `server` —
/// on inductive batches, timing each batch's
/// [`try_serve`](InductiveServer::try_serve) (attach + normalise +
/// forward, as the paper measures) and accounting the storage model of
/// §II-B.
///
/// # Panics
/// Panics when a batch was not built against the server's base.
#[must_use]
pub fn evaluate_inductive(server: &InductiveServer<'_>, batches: &[NodeBatch]) -> EvalResult {
    let mut correct_weighted = 0.0f64;
    let mut total_nodes = 0usize;
    let mut total_seconds = 0.0f64;
    let mut peak_memory = 0usize;
    for batch in batches {
        let start = Instant::now();
        let logits = server.try_serve(batch).expect("evaluation batch must be servable");
        total_seconds += start.elapsed().as_secs_f64();
        correct_weighted += accuracy(&logits, &batch.labels) * batch.len() as f64;
        total_nodes += batch.len();
        let attach_nnz = server.attachment(batch).nnz();
        peak_memory =
            peak_memory.max(extended_storage_bytes(server.base_graph(), attach_nnz, batch));
    }
    EvalResult {
        accuracy: if total_nodes == 0 { 0.0 } else { correct_weighted / total_nodes as f64 },
        seconds_per_batch: if batches.is_empty() {
            0.0
        } else {
            total_seconds / batches.len() as f64
        },
        memory_bytes: peak_memory,
    }
}

/// Mean and sample standard deviation of repeated accuracy measurements.
#[must_use]
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    if values.len() < 2 {
        return (mean, 0.0);
    }
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
        / (values.len() - 1) as f64;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcond_graph::{load_dataset, Scale};
    use mcond_linalg::DMat;

    #[test]
    fn whole_pipeline_beats_chance_on_small_pubmed() {
        let data = load_dataset("pubmed", Scale::Small, 0).unwrap();
        let original = data.original_graph();
        let model = train_on_graph(&original, GnnKind::Sgc, 150, 32, 0);
        let batches = data.test_batches(100, true);
        let result =
            evaluate_inductive(&InductiveServer::on_original(&original, &model), &batches);
        assert!(result.accuracy > 0.55, "accuracy {}", result.accuracy);
        assert!(result.seconds_per_batch > 0.0);
        assert!(result.memory_bytes > 0);
    }

    /// Fig. 3/4's `memory_MB` column is the peak, over batches, of the
    /// extended graph's bytes — `aM` attachment on an Eq. 11 server — as
    /// `extended_storage_bytes` counts them (its own test holds that count
    /// to the materialised graph).
    #[test]
    fn memory_column_is_the_peak_extended_graph_size() {
        use mcond_sparse::{spmm_sparse, Coo, Csr};
        let mut coo = Coo::new(6, 6);
        for &(i, j) in &[(0, 1), (1, 2), (0, 2), (3, 0), (4, 1), (5, 2), (4, 5)] {
            coo.push_sym(i, j, 1.0);
        }
        let features = mcond_linalg::MatRng::seed_from(0).normal(6, 3, 0.0, 1.0);
        let full = Graph::new(coo.to_csr(), features, vec![0, 1, 0, 1, 0, 1], 2);
        let data = mcond_graph::InductiveDataset::new(full, vec![0, 1, 2], vec![3], vec![4, 5]);
        let syn = Graph::new(
            Csr::eye(2),
            DMat::from_rows(&[&[1., 0., 0.], &[0., 1., 0.]]),
            vec![0, 1],
            2,
        );
        let mut map = Coo::new(3, 2);
        map.push(0, 0, 0.5);
        map.push(1, 0, 0.5);
        map.push(2, 1, 1.0);
        let mapping = map.to_csr();
        let model = GnnModel::new(GnnKind::Gcn, 3, 4, 2, 1);
        // Two batches of different size: the peak is the larger one.
        let batches = [data.batch(&[4], true), data.batch(&[4, 5], true)];

        let server = InductiveServer::on_synthetic(&syn, &mapping, &model);
        let peak = batches
            .iter()
            .map(|b| extended_storage_bytes(&syn, spmm_sparse(&b.incremental, &mapping).nnz(), b))
            .max()
            .unwrap();
        assert_eq!(evaluate_inductive(&server, &batches).memory_bytes, peak);
    }

    #[test]
    fn mean_std_computes_sample_statistics() {
        let (m, s) = mean_std(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - 1.0).abs() < 1e-12);
        let (m1, s1) = mean_std(&[5.0]);
        assert_eq!((m1, s1), (5.0, 0.0));
    }

    #[test]
    fn propagated_embeddings_shape() {
        let data = load_dataset("pubmed", Scale::Small, 1).unwrap();
        let orig = data.original_graph();
        let z = propagated_embeddings(&orig, 2);
        assert_eq!(z.shape(), (orig.num_nodes(), orig.feature_dim()));
    }
}
