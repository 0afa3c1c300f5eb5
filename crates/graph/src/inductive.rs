//! Inductive dataset splits (paper §II-B, §IV-A).
//!
//! The *original graph* `T` handed to condensation is the induced subgraph
//! of the training nodes. Validation and test nodes are **inductive**: they
//! are invisible during condensation and arrive at inference time with an
//! incremental adjacency `a : n x N` into the training nodes (Eq. 3), plus —
//! in the *graph batch* setting — their interconnections `ã : n x n`.

use crate::Graph;
use mcond_sparse::{Coo, Csr};

/// A graph with a train/val/test node partition, pre-assembled for the
/// inductive evaluation protocol.
#[derive(Clone, Debug)]
pub struct InductiveDataset {
    /// The complete graph (all splits).
    pub full: Graph,
    /// Training node ids in `full` — these form the original graph `T`.
    pub train_idx: Vec<usize>,
    /// Validation node ids (inductive; used as *support nodes* `T_sup` for
    /// the mapping's inductive loss, per the paper's protocol).
    pub val_idx: Vec<usize>,
    /// Test node ids (inductive).
    pub test_idx: Vec<usize>,
}

/// One batch of inductive nodes prepared for Eq. (3)/(11): features, the
/// incremental adjacency into the training nodes, their interconnections,
/// and ground-truth labels.
#[derive(Clone, Debug)]
pub struct NodeBatch {
    /// `n x d` features `x`.
    pub features: mcond_linalg::DMat,
    /// `n x N_train` incremental adjacency `a` (edges to training nodes,
    /// training-subgraph column indexing).
    pub incremental: Csr,
    /// `n x n` interconnections `ã` among the batch (empty in the *node
    /// batch* setting).
    pub interconnect: Csr,
    /// Ground-truth labels.
    pub labels: Vec<usize>,
}

impl InductiveDataset {
    /// Builds a split, checking the partition is disjoint and in-bounds.
    ///
    /// # Panics
    /// Panics when the index sets overlap or exceed the node count.
    #[must_use]
    pub fn new(
        full: Graph,
        train_idx: Vec<usize>,
        val_idx: Vec<usize>,
        test_idx: Vec<usize>,
    ) -> Self {
        let n = full.num_nodes();
        let mut seen = vec![false; n];
        for &i in train_idx.iter().chain(&val_idx).chain(&test_idx) {
            assert!(i < n, "InductiveDataset: node {i} out of bounds");
            assert!(!seen[i], "InductiveDataset: node {i} appears in two splits");
            seen[i] = true;
        }
        Self { full, train_idx, val_idx, test_idx }
    }

    /// The original graph `T`: the induced training subgraph with features
    /// and labels (training-local node ids).
    #[must_use]
    pub fn original_graph(&self) -> Graph {
        self.full.induced_subgraph(&self.train_idx)
    }

    /// Assembles the [`NodeBatch`] for a set of inductive node ids.
    ///
    /// `graph_batch` controls whether interconnections among the batch are
    /// kept (`true`, the paper's *graph batch* setting) or zeroed (`false`,
    /// *node batch*).
    ///
    /// # Panics
    /// Panics when a node id is out of bounds or belongs to the training
    /// split (training nodes are not inductive).
    #[must_use]
    pub fn batch(&self, nodes: &[usize], graph_batch: bool) -> NodeBatch {
        let n_train = self.train_idx.len();
        // Map full-graph id -> training-local id.
        let mut train_pos = vec![u32::MAX; self.full.num_nodes()];
        for (pos, &t) in self.train_idx.iter().enumerate() {
            train_pos[t] = pos as u32;
        }
        let mut batch_pos = vec![u32::MAX; self.full.num_nodes()];
        for (pos, &b) in nodes.iter().enumerate() {
            assert!(b < self.full.num_nodes(), "batch: node {b} out of bounds");
            assert!(
                train_pos[b] == u32::MAX,
                "batch: node {b} is a training node, not inductive"
            );
            batch_pos[b] = pos as u32;
        }

        let mut inc = Coo::new(nodes.len(), n_train);
        let mut inter = Coo::new(nodes.len(), nodes.len());
        for (pos, &b) in nodes.iter().enumerate() {
            for (&c, &v) in self.full.adj.row_cols(b).iter().zip(self.full.adj.row_vals(b)) {
                let c = c as usize;
                if train_pos[c] != u32::MAX {
                    inc.push(pos, train_pos[c] as usize, v);
                } else if graph_batch && batch_pos[c] != u32::MAX {
                    inter.push(pos, batch_pos[c] as usize, v);
                }
            }
        }
        NodeBatch {
            features: self.full.features.select_rows(nodes),
            incremental: inc.to_csr(),
            interconnect: inter.to_csr(),
            labels: nodes.iter().map(|&i| self.full.labels[i]).collect(),
        }
    }

    /// Splits the test nodes into consecutive batches of at most
    /// `batch_size` (the paper evaluates with batches of 1000).
    #[must_use]
    pub fn test_batches(&self, batch_size: usize, graph_batch: bool) -> Vec<NodeBatch> {
        self.test_idx
            .chunks(batch_size.max(1))
            .map(|chunk| self.batch(chunk, graph_batch))
            .collect()
    }
}

impl NodeBatch {
    /// Number of inductive nodes in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcond_linalg::DMat;
    use mcond_sparse::Coo;

    /// 6-node graph: train {0,1,2} form a triangle, val {3}, test {4,5}.
    /// Edges: triangle 0-1-2, 3-0, 4-1, 5-2, 4-5.
    fn toy() -> InductiveDataset {
        let mut coo = Coo::new(6, 6);
        for &(i, j) in &[(0, 1), (1, 2), (0, 2), (3, 0), (4, 1), (5, 2), (4, 5)] {
            coo.push_sym(i, j, 1.0);
        }
        let features = DMat::from_vec(6, 1, (0..6).map(|i| i as f32).collect());
        let g = Graph::new(coo.to_csr(), features, vec![0, 1, 0, 1, 0, 1], 2);
        InductiveDataset::new(g, vec![0, 1, 2], vec![3], vec![4, 5])
    }

    #[test]
    fn original_graph_is_training_triangle() {
        let data = toy();
        let orig = data.original_graph();
        assert_eq!(orig.num_nodes(), 3);
        assert_eq!(orig.num_edges(), 3);
        assert_eq!(orig.labels, vec![0, 1, 0]);
    }

    #[test]
    fn batch_builds_incremental_adjacency() {
        let data = toy();
        let b = data.batch(&[4, 5], true);
        assert_eq!(b.len(), 2);
        // node 4 connects to training node 1 (local id 1)
        assert_eq!(b.incremental.get(0, 1), 1.0);
        // node 5 connects to training node 2 (local id 2)
        assert_eq!(b.incremental.get(1, 2), 1.0);
        // interconnect 4-5 present in graph batch
        assert_eq!(b.interconnect.get(0, 1), 1.0);
        assert_eq!(b.interconnect.get(1, 0), 1.0);
        assert_eq!(b.labels, vec![0, 1]);
        assert_eq!(b.features.row(0), &[4.0]);
    }

    #[test]
    fn node_batch_zeroes_interconnections() {
        let data = toy();
        let b = data.batch(&[4, 5], false);
        assert_eq!(b.interconnect.nnz(), 0);
        assert_eq!(b.incremental.nnz(), 2);
    }

    #[test]
    fn edges_to_other_inductive_nodes_outside_batch_are_dropped() {
        let data = toy();
        // Batch {4} alone: its edge to 5 (inductive, not in batch) vanishes.
        let b = data.batch(&[4], true);
        assert_eq!(b.interconnect.nnz(), 0);
        assert_eq!(b.incremental.nnz(), 1);
    }

    #[test]
    fn test_batches_partition_test_nodes() {
        let data = toy();
        let batches = data.test_batches(1, false);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].labels, vec![0]);
        assert_eq!(batches[1].labels, vec![1]);
    }

    #[test]
    #[should_panic(expected = "appears in two splits")]
    fn overlapping_splits_panic() {
        let data = toy();
        let _ = InductiveDataset::new(data.full, vec![0, 1], vec![1], vec![2]);
    }

    #[test]
    #[should_panic(expected = "is a training node")]
    fn batching_training_node_panics() {
        let data = toy();
        let _ = data.batch(&[0], false);
    }
}
