//! The damped propagation kernel and its two calibration uses.

use mcond_linalg::DMat;
use mcond_sparse::{sym_normalize, Csr};

/// Parameters of the damped fixed-point propagation.
#[derive(Clone, Copy, Debug)]
pub struct PropagationConfig {
    /// Damping `α ∈ (0, 1)`: weight of the propagated term.
    pub alpha: f32,
    /// Number of iterations (the paper's propagation variants converge
    /// within ~10 on these graph sizes).
    pub iterations: usize,
}

impl Default for PropagationConfig {
    fn default() -> Self {
        Self { alpha: 0.8, iterations: 10 }
    }
}

/// Runs `F ← α Â F + (1 - α) F₀` for `iterations` steps starting from
/// `F = F₀`, where `Â` is the symmetric-normalised `adj` (self-loops
/// added).
///
/// # Panics
/// Panics when `adj` is not square or `f0` has the wrong row count.
#[must_use]
pub fn propagate(adj: &Csr, f0: &DMat, cfg: &PropagationConfig) -> DMat {
    assert_eq!(adj.rows(), adj.cols(), "propagate: adjacency must be square");
    assert_eq!(adj.rows(), f0.rows(), "propagate: F0 row mismatch");
    let ahat = sym_normalize(adj);
    let residual = f0.scale(1.0 - cfg.alpha);
    let mut f = f0.clone();
    for _ in 0..cfg.iterations {
        f = ahat.spmm(&f).scale(cfg.alpha).add(&residual);
    }
    f
}

/// Label propagation over an extended graph whose first `num_base` nodes
/// carry `base_labels`; returns class scores for **all** nodes (take rows
/// `num_base..` for the inductive predictions).
///
/// # Panics
/// Panics when `base_labels.len() != num_base` or a label exceeds
/// `num_classes`.
#[must_use]
pub fn label_propagation(
    adj: &Csr,
    base_labels: &[usize],
    num_base: usize,
    num_classes: usize,
    cfg: &PropagationConfig,
) -> DMat {
    assert_eq!(base_labels.len(), num_base, "label_propagation: label count");
    let n = adj.rows();
    let mut f0 = DMat::zeros(n, num_classes);
    for (i, &y) in base_labels.iter().enumerate() {
        assert!(y < num_classes, "label_propagation: label {y} out of range");
        f0.set(i, y, 1.0);
    }
    propagate(adj, &f0, cfg)
}

/// Error propagation (the "Correct" step of Correct & Smooth): computes the
/// residual `E₀ = onehot(Y_base) - softmax(logits_base)` on the first
/// `num_base` rows, diffuses it over the graph, and returns the corrected
/// scores `softmax(logits) + γ·E` for all nodes.
///
/// # Panics
/// Panics on row/label mismatches.
#[must_use]
pub fn error_propagation(
    adj: &Csr,
    logits: &DMat,
    base_labels: &[usize],
    num_base: usize,
    gamma: f32,
    cfg: &PropagationConfig,
) -> DMat {
    assert_eq!(adj.rows(), logits.rows(), "error_propagation: logits row mismatch");
    assert_eq!(base_labels.len(), num_base, "error_propagation: label count");
    let probs = logits.softmax_rows();
    let mut e0 = DMat::zeros(adj.rows(), logits.cols());
    for (i, &y) in base_labels.iter().enumerate() {
        for (slot, p) in e0.row_mut(i).iter_mut().zip(probs.row(i)) {
            *slot = -p;
        }
        let v = e0.get(i, y) + 1.0;
        e0.set(i, y, v);
    }
    let e = propagate(adj, &e0, cfg);
    probs.add(&e.scale(gamma))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcond_sparse::Coo;

    /// Two 4-cliques joined by one edge; nodes 0–3 class 0, 4–7 class 1.
    fn two_cliques() -> Csr {
        let mut coo = Coo::new(8, 8);
        for block in [0usize, 4] {
            for i in block..block + 4 {
                for j in (i + 1)..block + 4 {
                    coo.push_sym(i, j, 1.0);
                }
            }
        }
        coo.push_sym(3, 4, 1.0);
        coo.to_csr()
    }

    #[test]
    fn label_propagation_spreads_to_unlabeled_clique_members() {
        let adj = two_cliques();
        // Base nodes: 0 (class 0) and 4 (class 1); treat 1..=3 and 5..=7 as
        // "inductive" by rebuilding so seeds sit first.
        // Here we simply seed rows 0 and 4 via a 2-base trick: build
        // a permuted seed matrix manually with propagate().
        let mut f0 = DMat::zeros(8, 2);
        f0.set(0, 0, 1.0);
        f0.set(4, 1, 1.0);
        let scores = propagate(&adj, &f0, &PropagationConfig::default());
        for i in 1..4 {
            assert!(scores.get(i, 0) > scores.get(i, 1), "node {i} misclassified");
        }
        for i in 5..8 {
            assert!(scores.get(i, 1) > scores.get(i, 0), "node {i} misclassified");
        }
    }

    #[test]
    fn label_propagation_api_seeds_first_rows() {
        let adj = two_cliques();
        let scores =
            label_propagation(&adj, &[0, 0, 0, 0], 4, 2, &PropagationConfig::default());
        assert_eq!(scores.shape(), (8, 2));
        // Nodes 5..8 are far from the seeds: their class-0 score is small
        // but the bridge node 4 leans class 0.
        assert!(scores.get(4, 0) > scores.get(7, 0));
    }

    #[test]
    fn error_propagation_corrects_systematic_bias() {
        let adj = two_cliques();
        // GNN logits biased towards class 0 everywhere.
        let logits = DMat::from_vec(8, 2, [1.0, 0.0].repeat(8));
        let labels_base = vec![0usize, 0, 0, 0, 1, 1]; // nodes 0..6 are base
        let corrected =
            error_propagation(&adj, &logits, &labels_base, 6, 1.0, &PropagationConfig::default());
        // Inductive nodes 6, 7 live in the class-1 clique: the residual from
        // nodes 4, 5 must push them towards class 1.
        for i in 6..8 {
            assert!(
                corrected.get(i, 1) > logits.softmax_rows().get(i, 1),
                "node {i} not corrected"
            );
        }
    }

    #[test]
    fn zero_iterations_returns_seed() {
        let adj = two_cliques();
        let f0 = DMat::filled(8, 3, 0.25);
        let out = propagate(&adj, &f0, &PropagationConfig { alpha: 0.5, iterations: 0 });
        assert_eq!(out, f0);
    }

    #[test]
    fn propagation_is_bounded() {
        // With F0 rows in [0,1] and Â's spectral radius ≤ 1, scores stay
        // bounded by a small constant.
        let adj = two_cliques();
        let scores =
            label_propagation(&adj, &[0, 1, 0, 1], 4, 2, &PropagationConfig::default());
        assert!(scores.as_slice().iter().all(|v| v.is_finite() && v.abs() <= 2.0));
    }

    #[test]
    fn alpha_zero_freezes_seeds() {
        let adj = two_cliques();
        let f0 = DMat::from_vec(8, 1, (0..8).map(|i| i as f32).collect());
        let out = propagate(&adj, &f0, &PropagationConfig { alpha: 0.0, iterations: 5 });
        assert_eq!(out, f0);
    }
}
