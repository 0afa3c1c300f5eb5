//! Evaluation metrics: accuracy and the paper's storage model.

use mcond_graph::{Graph, NodeBatch};
use mcond_linalg::DMat;

/// Classification accuracy of row-argmax predictions against labels.
///
/// # Panics
/// Panics when lengths disagree.
#[must_use]
pub fn accuracy(logits: &DMat, labels: &[usize]) -> f64 {
    assert_eq!(logits.rows(), labels.len(), "accuracy: row/label mismatch");
    if labels.is_empty() {
        return 0.0;
    }
    let preds = logits.argmax_rows();
    let correct = preds.iter().zip(labels).filter(|(p, y)| p == y).count();
    correct as f64 / labels.len() as f64
}

/// Per-class (correct, total) counts — the raw material for confusion
/// analyses like Fig. 5's class-correlation study.
#[must_use]
pub fn confusion_counts(logits: &DMat, labels: &[usize], num_classes: usize) -> Vec<(usize, usize)> {
    let preds = logits.argmax_rows();
    let mut counts = vec![(0usize, 0usize); num_classes];
    for (p, &y) in preds.iter().zip(labels) {
        counts[y].1 += 1;
        if *p == y {
            counts[y].0 += 1;
        }
    }
    counts
}

/// Storage model of §II-B for serving `batch` on `base` — the memory axis
/// of the paper's Fig. 3 / Fig. 4: CSR bytes of the extended adjacency
/// `[[A, attachᵀ], [attach, ã]]` (8-byte row pointers, 4 + 4 bytes per
/// stored entry) plus `(N + n)·d` feature floats. Counted, not
/// materialised: `attach_nnz` is `‖a‖₀` for Eq. 3 serving and `‖aM‖₀`
/// for Eq. 11.
#[must_use]
pub fn extended_storage_bytes(base: &Graph, attach_nnz: usize, batch: &NodeBatch) -> usize {
    let rows = base.num_nodes() + batch.len();
    let nnz = base.adj.nnz() + 2 * attach_nnz + batch.interconnect.nnz();
    (rows + 1) * 8 + nnz * 8 + rows * base.feature_dim() * 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcond_sparse::Coo;

    #[test]
    fn accuracy_counts_argmax_matches() {
        let logits = DMat::from_rows(&[&[2., 1.], &[0., 3.], &[5., 4.]]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-12);
        assert!((accuracy(&logits, &[0, 1, 0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accuracy_of_empty_is_zero() {
        assert_eq!(accuracy(&DMat::zeros(0, 2), &[]), 0.0);
    }

    #[test]
    fn confusion_counts_partition_labels() {
        let logits = DMat::from_rows(&[&[2., 1.], &[0., 3.], &[5., 4.], &[1., 2.]]);
        let counts = confusion_counts(&logits, &[0, 0, 1, 1], 2);
        assert_eq!(counts[0], (1, 2));
        assert_eq!(counts[1], (1, 2));
    }

    /// The counted model equals the bytes of the extended graph it stands
    /// for, whatever the attachment block holds.
    #[test]
    fn storage_model_matches_the_materialised_extended_graph() {
        let mut coo = Coo::new(3, 3);
        coo.push_sym(0, 1, 1.0);
        coo.push_sym(1, 2, 0.5);
        let base = Graph::new(coo.to_csr(), DMat::zeros(3, 4), vec![0, 1, 0], 2);
        let mut attach = Coo::new(2, 3);
        attach.push(0, 1, 1.0);
        attach.push(1, 0, 0.5);
        attach.push(1, 2, 0.5);
        let attach = attach.to_csr();
        let mut inter = Coo::new(2, 2);
        inter.push_sym(0, 1, 1.0);
        let batch = NodeBatch {
            features: DMat::zeros(2, 4),
            incremental: attach.clone(),
            interconnect: inter.to_csr(),
            labels: vec![0, 1],
        };
        let materialised = base.adj.block_extend(&attach, &batch.interconnect);
        assert_eq!(
            extended_storage_bytes(&base, attach.nnz(), &batch),
            materialised.storage_bytes() + (3 + 2) * 4 * 4
        );
    }
}
