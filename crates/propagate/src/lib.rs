//! Non-parametric calibration of inductive predictions (paper §IV-D, Q3).
//!
//! Once inductive nodes are wired into a graph — original (Eq. 3) or
//! synthetic-through-mapping (Eq. 11) — two classical propagation schemes
//! can refine predictions at negligible cost:
//!
//! * [`label_propagation`] diffuses the base nodes' (synthetic) labels
//!   `Y'` over the combined structure (Wang & Leskovec 2021),
//! * [`error_propagation`] diffuses the GNN's *residual error* on the base
//!   nodes and corrects inductive predictions (the "Correct" step of
//!   Correct & Smooth, Huang et al. 2021).
//!
//! Both run the damped fixed-point iteration `F ← α Â F + (1 - α) F₀`
//! ([`ALPHA`], [`ITERATIONS`]). `Â` is not built here: the caller passes
//! one hop `F ↦ Â F` of an operator it has already normalised, so the
//! calibration runs on whatever operator serves — for an inductive batch,
//! `mcond_gnn::Propagator::extended_sym` over the base's cached degrees,
//! the Eq. 3/11 extension without a materialised `(N + n)`-node graph.

#![forbid(unsafe_code)]

use mcond_linalg::DMat;

/// Damping `α`: weight of the propagated term.
pub const ALPHA: f32 = 0.8;

/// Number of iterations (the paper's propagation variants converge within
/// ~10 on these graph sizes).
pub const ITERATIONS: usize = 10;

/// Runs `F ← α Â F + (1 - α) F₀` for [`ITERATIONS`] steps starting from
/// `F = F₀`, where `hop` computes `Â F`.
///
/// # Panics
/// Panics when `hop` returns a matrix of another shape than its input.
#[must_use]
pub fn propagate(hop: impl Fn(&DMat) -> DMat, f0: &DMat) -> DMat {
    let residual = f0.scale(1.0 - ALPHA);
    let mut f = f0.clone();
    for _ in 0..ITERATIONS {
        f = hop(&f).scale(ALPHA).add(&residual);
    }
    f
}

/// Label propagation over an operator of `rows` nodes whose first
/// `base_labels.len()` nodes carry `base_labels`; returns class scores for
/// **all** nodes (take the rows after the base for the inductive
/// predictions).
///
/// # Panics
/// Panics when a label exceeds `num_classes` or there are more labels than
/// rows.
#[must_use]
pub fn label_propagation(
    hop: impl Fn(&DMat) -> DMat,
    rows: usize,
    base_labels: &[usize],
    num_classes: usize,
) -> DMat {
    let mut f0 = DMat::zeros(rows, num_classes);
    for (i, &y) in base_labels.iter().enumerate() {
        assert!(y < num_classes, "label_propagation: label {y} out of range");
        f0.set(i, y, 1.0);
    }
    propagate(hop, &f0)
}

/// Error propagation (the "Correct" step of Correct & Smooth): computes the
/// residual `E₀ = onehot(Y_base) - softmax(logits_base)` on the first
/// `base_labels.len()` rows of `logits`, diffuses it with `hop`, and
/// returns the corrected scores `softmax(logits) + E` for all nodes (the
/// correction unscaled, `γ = 1`).
///
/// # Panics
/// Panics when a label exceeds the logits' width or there are more labels
/// than rows.
#[must_use]
pub fn error_propagation(
    hop: impl Fn(&DMat) -> DMat,
    logits: &DMat,
    base_labels: &[usize],
) -> DMat {
    let probs = logits.softmax_rows();
    let mut e0 = DMat::zeros(logits.rows(), logits.cols());
    for (i, &y) in base_labels.iter().enumerate() {
        for (slot, p) in e0.row_mut(i).iter_mut().zip(probs.row(i)) {
            *slot = -p;
        }
        let v = e0.get(i, y) + 1.0;
        e0.set(i, y, v);
    }
    probs.add(&propagate(hop, &e0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcond_sparse::{sym_normalize, Coo, Csr};

    /// `Â` of two 4-cliques joined by one edge; nodes 0–3 class 0, 4–7
    /// class 1.
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
        sym_normalize(&coo.to_csr())
    }

    #[test]
    fn label_propagation_spreads_to_unlabeled_clique_members() {
        let ahat = two_cliques();
        // Seed rows 0 and 4, one per clique, through propagate() directly.
        let mut f0 = DMat::zeros(8, 2);
        f0.set(0, 0, 1.0);
        f0.set(4, 1, 1.0);
        let scores = propagate(|x: &DMat| ahat.spmm(x), &f0);
        for i in 1..4 {
            assert!(scores.get(i, 0) > scores.get(i, 1), "node {i} misclassified");
        }
        for i in 5..8 {
            assert!(scores.get(i, 1) > scores.get(i, 0), "node {i} misclassified");
        }
    }

    #[test]
    fn label_propagation_api_seeds_first_rows() {
        let ahat = two_cliques();
        let scores = label_propagation(|x: &DMat| ahat.spmm(x), 8, &[0, 0, 0, 0], 2);
        assert_eq!(scores.shape(), (8, 2));
        // Nodes 5..8 are far from the seeds: their class-0 score is small
        // but the bridge node 4 leans class 0.
        assert!(scores.get(4, 0) > scores.get(7, 0));
    }

    #[test]
    fn error_propagation_corrects_systematic_bias() {
        let ahat = two_cliques();
        // GNN logits biased towards class 0 everywhere.
        let logits = DMat::from_vec(8, 2, [1.0, 0.0].repeat(8));
        let labels_base = [0usize, 0, 0, 0, 1, 1]; // nodes 0..6 are base
        let corrected = error_propagation(|x: &DMat| ahat.spmm(x), &logits, &labels_base);
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
    fn propagation_is_bounded() {
        // With F0 rows in [0,1] and Â's spectral radius ≤ 1, scores stay
        // bounded by a small constant.
        let ahat = two_cliques();
        let scores = label_propagation(|x: &DMat| ahat.spmm(x), 8, &[0, 1, 0, 1], 2);
        assert!(scores.as_slice().iter().all(|v| v.is_finite() && v.abs() <= 2.0));
    }
}
