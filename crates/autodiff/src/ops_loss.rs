//! Loss heads: each produces a scalar (1×1) node, or in the case of
//! [`Tape::softmax_error`], the analytic gradient-error matrix used by
//! gradient matching.

use crate::gram::GramTarget;
use crate::ops_basic::ROW_PASS_MIN_ROWS;
use crate::tape::{Op, Tape, Var};
use mcond_linalg::DMat;
use std::sync::Arc;

impl Tape {
    /// Mean softmax cross-entropy of `logits` against integer `labels`.
    ///
    /// # Panics
    /// Panics when `labels.len() != logits.rows()`.
    pub fn softmax_cross_entropy(&mut self, logits: Var, labels: Arc<Vec<usize>>) -> Var {
        let x = self.value(logits);
        assert_eq!(labels.len(), x.rows(), "softmax_cross_entropy: label count");
        let probs = x.softmax_rows();
        let n = x.rows().max(1) as f32;
        let mut loss = 0.0f32;
        for (i, &y) in labels.iter().enumerate() {
            loss -= probs.get(i, y).max(1e-12).ln();
        }
        loss /= n;
        let rg = self.rg(logits.0);
        self.push(
            DMat::from_vec(1, 1, vec![loss]),
            Op::SoftmaxCrossEntropy(logits.0, labels),
            rg,
            Some(probs),
        )
    }

    /// The *softmax error* matrix `E = (softmax(logits) - onehot(labels))/N`.
    ///
    /// For a linear (SGC) relay model with propagated features `Z`, the
    /// cross-entropy weight gradient is exactly `Zᵀ E`, so building `E` as a
    /// tape op lets gradient matching differentiate through the relay
    /// gradient analytically (the `create_graph=True` trick, exact for SGC).
    pub fn softmax_error(&mut self, logits: Var, labels: Arc<Vec<usize>>) -> Var {
        let x = self.value(logits);
        assert_eq!(labels.len(), x.rows(), "softmax_error: label count");
        let probs = x.softmax_rows();
        let n = x.rows().max(1) as f32;
        let mut value = probs.clone();
        for (i, &y) in labels.iter().enumerate() {
            let v = value.get(i, y) - 1.0;
            value.set(i, y, v);
        }
        value.scale_assign(1.0 / n);
        let rg = self.rg(logits.0);
        self.push(value, Op::SoftmaxError(logits.0, labels), rg, Some(probs))
    }

    /// Scalar L2,1 norm `Σ_i ‖X_i‖₂` (rows' L2 norms summed): the
    /// [`Tape::l21_dist`] of `a` from a zero matrix, whose `x − 0 = x`
    /// leaves value and gradient unchanged.
    pub fn l21(&mut self, a: Var) -> Var {
        let (rows, cols) = self.value(a).shape();
        let zero = self.constant(DMat::zeros(rows, cols));
        self.l21_dist(a, zero)
    }

    /// Scalar `Σ_i ‖A_i − B_i‖₂` — Eq. (10) / Eq. (12) without their `1/N`
    /// factors (compose with [`Tape::scale`]), and without recording the
    /// `N x d` difference: value and gradients have the bits of recording
    /// `A − B` and taking its L2,1 norm. The row norms are one row-parallel
    /// pass.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn l21_dist(&mut self, a: Var, b: Var) -> Var {
        let (x, y) = (self.value(a), self.value(b));
        assert_eq!(x.shape(), y.shape(), "l21_dist: shape mismatch");
        // The per-row norms are the backward rule's denominators; keep them.
        let mut norms = DMat::zeros(x.rows(), 1);
        norms.par_fill_rows(ROW_PASS_MIN_ROWS, |i, norm| {
            let diff = x.row(i).iter().zip(y.row(i)).map(|(p, q)| p - q);
            norm[0] = diff.map(|v| v * v).sum::<f32>().sqrt();
        });
        let value = DMat::from_vec(1, 1, vec![norms.as_slice().iter().sum()]);
        let rg = self.rg(a.0) || self.rg(b.0);
        self.push(value, Op::L21Dist(a.0, b.0), rg, Some(norms))
    }

    /// Scalar `Σ_i ‖Z_i − M_i H‖₂` — [`Tape::l21_dist`] of `Z` from `M·H`
    /// — for the `Z` and `H` behind `target`, reading only its `d`-free
    /// statistics: `s_i = ‖Z_i‖² + M_i·(Q_i − 2 P_i)` with `Q = M G`, and
    /// the row's term is `√max(s_i, 0)`. The forward is one `N x N' x N'`
    /// product and one row pass; the gradient is `seed·(Q_i − P_i)/r_i`
    /// (zero where `r_i ≤ 1e-12`, as [`Tape::l21_dist`]'s), one row pass.
    ///
    /// `s_i` is a difference of terms of size `‖Z_i‖²`, so a row fitted to
    /// a relative residual `ρ = r_i/‖Z_i‖` carries a rounding error of
    /// about `2⁻²⁴/ρ²` relative to `r_i` and its gradient: 6·10⁻⁴ at
    /// `ρ = 0.01`, a few percent at `ρ = 10⁻³`, and all of it below
    /// `ρ ≈ 2.4·10⁻⁴`.
    ///
    /// # Panics
    /// Panics when `m` is not `target.rows() x N'`.
    pub fn l21_gram_dist(&mut self, m: Var, target: Arc<GramTarget>) -> Var {
        let x = self.value(m);
        let (n, k) = (target.rows(), target.gram.rows());
        assert_eq!(x.shape(), (n, k), "l21_gram_dist: M is not {n}x{k}");
        let q = x.matmul(&target.gram);
        let mut norms = DMat::zeros(n, 1);
        norms.par_fill_rows(ROW_PASS_MIN_ROWS, |i, norm| {
            let terms = x.row(i).iter().zip(q.row(i)).zip(target.cross.row(i));
            let s = target.sq_norms[i] + terms.map(|((m, q), p)| m * (q - 2.0 * p)).sum::<f32>();
            norm[0] = s.max(0.0).sqrt();
        });
        let value = DMat::from_vec(1, 1, vec![norms.as_slice().iter().sum()]);
        let rg = self.rg(m.0);
        self.push(value, Op::L21GramDist(m.0, target, norms), rg, Some(q))
    }

    /// Column-wise cosine distance `Σ_j (1 - cos(A_:j, B_:j))` — the per-layer
    /// gradient distance of Eq. (5). Zero-norm columns contribute `1`
    /// (maximum distance) and receive zero gradient.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn cosine_col_dist(&mut self, a: Var, b: Var) -> Var {
        let (x, y) = (self.value(a), self.value(b));
        assert_eq!(x.shape(), y.shape(), "cosine_col_dist: shape mismatch");
        let mut total = 0.0f32;
        for j in 0..x.cols() {
            let mut dot = 0.0f32;
            let mut na = 0.0f32;
            let mut nb = 0.0f32;
            for i in 0..x.rows() {
                let (av, bv) = (x.get(i, j), y.get(i, j));
                dot += av * bv;
                na += av * av;
                nb += bv * bv;
            }
            let denom = na.sqrt() * nb.sqrt();
            total += if denom > 1e-12 { 1.0 - dot / denom } else { 1.0 };
        }
        let rg = self.rg(a.0) || self.rg(b.0);
        self.push(
            DMat::from_vec(1, 1, vec![total]),
            Op::CosineColDist(a.0, b.0),
            rg,
            None,
        )
    }

    /// Binary cross-entropy over sampled node pairs — the structure loss of
    /// Eq. (8) extended with negative samples: for each `(i, j, target)`,
    /// the logit is `H_i · H_j` and the loss term is
    /// `-[t·log σ(d) + (1-t)·log(1-σ(d))]`, averaged over the batch.
    ///
    /// The paper's Eq. (8) writes only the positive term but states the batch
    /// "consists of both positive and negative edge samples"; with `A_ij = 0`
    /// the written term vanishes for negatives, so the standard BCE reading
    /// (used by link-prediction objectives the equation is modelled on) is
    /// implemented here.
    ///
    /// # Panics
    /// Panics on an empty batch or out-of-range indices.
    pub fn pair_bce(&mut self, h: Var, pairs: Arc<Vec<(u32, u32, f32)>>) -> Var {
        assert!(!pairs.is_empty(), "pair_bce: empty batch");
        let x = self.value(h);
        let n = x.rows();
        let mut loss = 0.0f32;
        for &(i, j, t) in pairs.iter() {
            let (i, j) = (i as usize, j as usize);
            assert!(i < n && j < n, "pair_bce: pair ({i}, {j}) out of range");
            let d: f32 = x.row(i).iter().zip(x.row(j)).map(|(a, b)| a * b).sum();
            // Numerically stable BCE-with-logits:
            // -[t·logσ(d) + (1-t)·log(1-σ(d))] = max(d,0) - t·d + ln(1+e^{-|d|})
            loss += d.max(0.0) - t * d + (-d.abs()).exp().ln_1p();
        }
        loss /= pairs.len() as f32;
        let rg = self.rg(h.0);
        self.push(DMat::from_vec(1, 1, vec![loss]), Op::PairBce(h.0, pairs), rg, None)
    }
}
