//! The mapping matrix `M : N x N'` (§III-C–E).
//!
//! `M` encodes each original node as a weighted ensemble of synthetic nodes
//! (Eq. 7). It is trained densely with the Eq. (15) normalisation applied
//! on the forward pass, and thresholded into a sparse matrix at the end
//! (Eq. 14).

use mcond_autodiff::{Adam, Tape, Var};
use mcond_linalg::DMat;
use std::sync::Arc;

/// The trainable mapping from original to synthetic nodes.
pub struct Mapping {
    /// Raw (pre-normalisation) parameters, shared with the tape of the
    /// step that reads them (see [`Mapping::tape_param`]).
    pub raw: Arc<DMat>,
    /// The `ε` of Eq. (15), suppressing subtle noisy weights.
    pub epsilon: f32,
}

impl Mapping {
    /// `ε` of Eq. (15) (paper: 1e-5) — what `condense` trains with.
    pub const EPSILON: f32 = 1e-5;

    /// Class-aware initialisation (§III-E): a constant positive raw weight
    /// when original node `i` and synthetic node `j` share a class, a
    /// constant negative weight otherwise.
    ///
    /// The paper states "set `M_ij` to a constant (e.g. 1)" for same-class
    /// pairs and 0 otherwise; because Eq. (15) passes the raw values through
    /// a sigmoid before row-normalising, a 1-vs-0 raw contrast yields only a
    /// 0.73-vs-0.5 weight contrast — too flat to matter for many-class
    /// datasets. We use ±4 so the *normalised* init is strongly
    /// block-diagonal (σ(4) ≈ 0.98 vs σ(-4) ≈ 0.02), which realises the
    /// intended "same-class only" initial mapping.
    #[must_use]
    pub fn class_init(original_labels: &[usize], synthetic_labels: &[usize], epsilon: f32) -> Self {
        const SAME: f32 = 4.0;
        const DIFF: f32 = -4.0;
        let mut raw = DMat::filled(original_labels.len(), synthetic_labels.len(), DIFF);
        for (i, &yi) in original_labels.iter().enumerate() {
            for (j, &yj) in synthetic_labels.iter().enumerate() {
                if yi == yj {
                    raw.set(i, j, SAME);
                }
            }
        }
        Self { raw: Arc::new(raw), epsilon }
    }

    /// Random uniform initialisation — the Fig. 5(c) ablation comparator.
    #[must_use]
    pub fn random_init(
        n_original: usize,
        n_synthetic: usize,
        epsilon: f32,
        rng: &mut mcond_linalg::MatRng,
    ) -> Self {
        Self { raw: Arc::new(rng.uniform(n_original, n_synthetic, 0.0, 1.0)), epsilon }
    }

    /// Registers the raw parameters on a tape, shared, not copied: the
    /// tape must be dropped before the optimiser updates them.
    pub fn tape_param(&self, tape: &mut Tape) -> Var {
        tape.param(Arc::clone(&self.raw))
    }

    /// One optimiser step on the raw parameters with gradient `g`.
    ///
    /// # Panics
    /// Panics when a tape still shares the parameters.
    pub(crate) fn step(&mut self, opt: &mut Adam, g: &DMat) {
        let raw = Arc::get_mut(&mut self.raw).expect("Mapping::step: drop the step's tape first");
        opt.step(raw, g);
    }

    /// Eq. (15) on the tape: `M̂_i = ReLU(σ(M_i) / Σ_j σ(M_ij) - ε)`.
    pub fn normalized(&self, tape: &mut Tape, raw: Var) -> Var {
        tape.sigmoid_row_normalize(raw, self.epsilon)
    }

    /// Tape-free evaluation of the normalised mapping (the same kernel).
    #[must_use]
    pub fn normalized_detached(&self) -> DMat {
        mcond_autodiff::sigmoid_row_normalized(&self.raw, self.epsilon)
    }

    /// Class-correlation block structure of this mapping (normalised form)
    /// — the quantity visualised in Fig. 5(a)/(b).
    #[must_use]
    pub fn class_correlation(
        &self,
        original_labels: &[usize],
        synthetic_labels: &[usize],
        num_classes: usize,
    ) -> DMat {
        class_correlation_of(
            &self.normalized_detached(),
            original_labels,
            synthetic_labels,
            num_classes,
        )
    }
}

/// Class-correlation block matrix of an arbitrary (already normalised)
/// dense mapping: entry `(a, b)` is the mean weight from original nodes of
/// class `a` to synthetic nodes of class `b`.
#[must_use]
pub fn class_correlation_of(
    m: &DMat,
    original_labels: &[usize],
    synthetic_labels: &[usize],
    num_classes: usize,
) -> DMat {
    let mut sums = DMat::zeros(num_classes, num_classes);
    let mut counts = vec![0f64; num_classes * num_classes];
    for (i, &yi) in original_labels.iter().enumerate() {
        for (j, &yj) in synthetic_labels.iter().enumerate() {
            let v = sums.get(yi, yj) + m.get(i, j);
            sums.set(yi, yj, v);
            counts[yi * num_classes + yj] += 1.0;
        }
    }
    for a in 0..num_classes {
        for b in 0..num_classes {
            let c = counts[a * num_classes + b];
            if c > 0.0 {
                let v = sums.get(a, b) / c as f32;
                sums.set(a, b, v);
            }
        }
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcond_linalg::MatRng;

    #[test]
    fn class_init_is_block_structured() {
        let m = Mapping::class_init(&[0, 1, 0], &[0, 1], 1e-5);
        assert_eq!(m.raw.get(0, 0), 4.0);
        assert_eq!(m.raw.get(0, 1), -4.0);
        assert_eq!(m.raw.get(1, 1), 4.0);
        assert_eq!(m.raw.get(2, 0), 4.0);
        // Normalised init is strongly block-diagonal.
        let norm = m.normalized_detached();
        assert!(norm.get(0, 0) > 0.9);
        assert!(norm.get(0, 1) < 0.1);
    }

    #[test]
    fn normalized_rows_are_subunit_distributions() {
        let mut rng = MatRng::seed_from(1);
        let m = Mapping::random_init(10, 4, 1e-3, &mut rng);
        let norm = m.normalized_detached();
        for i in 0..10 {
            let s: f32 = norm.row(i).iter().sum();
            assert!(s <= 1.0 + 1e-5, "row {i} sums to {s}");
            assert!(s > 0.5, "row {i} lost too much mass: {s}");
            assert!(norm.row(i).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn epsilon_suppresses_small_weights() {
        // With a large epsilon, uniform rows get fully suppressed.
        let m = Mapping { raw: Arc::new(DMat::zeros(2, 5)), epsilon: 0.5 };
        let norm = m.normalized_detached();
        assert!(norm.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn tape_and_detached_normalisation_agree() {
        let mut rng = MatRng::seed_from(2);
        let m = Mapping::random_init(6, 3, 1e-4, &mut rng);
        let mut tape = Tape::new();
        let raw = m.tape_param(&mut tape);
        let norm_var = m.normalized(&mut tape, raw);
        let tape_val = tape.value(norm_var);
        assert!(tape_val.bit_eq(&m.normalized_detached()));
    }

    #[test]
    fn gradient_reaches_raw_mapping() {
        let mut rng = MatRng::seed_from(3);
        let m = Mapping::random_init(5, 3, 1e-4, &mut rng);
        let h_syn = rng.normal(3, 2, 0.0, 1.0);
        let target = rng.normal(5, 2, 0.0, 1.0);
        let mut tape = Tape::new();
        let raw = m.tape_param(&mut tape);
        let norm = m.normalized(&mut tape, raw);
        let hs = tape.constant(h_syn);
        let approx = tape.matmul(norm, hs); // Eq. (7): H̃ = M H'
        let tgt = tape.constant(target);
        let loss = tape.l21_dist(tgt, approx);
        let grads = tape.backward(loss);
        let g = grads.get(raw).expect("no gradient for M");
        assert!(g.frobenius_norm() > 0.0);
    }

    #[test]
    fn class_correlation_diagonal_dominates_for_class_init() {
        let orig = vec![0, 0, 1, 1, 2, 2];
        let syn = vec![0, 1, 2];
        let m = Mapping::class_init(&orig, &syn, 1e-5);
        let corr = m.class_correlation(&orig, &syn, 3);
        // After the Eq. (15) sigmoid normalisation, same-class weight is
        // σ(1)-based and off-class σ(0)-based, so the diagonal dominates
        // without reaching 1.
        for a in 0..3 {
            assert!(corr.get(a, a) > 1.0 / 3.0, "diagonal below uniform");
            for b in 0..3 {
                if a != b {
                    assert!(corr.get(a, b) < corr.get(a, a));
                }
            }
        }
    }
}
