//! Dense algebra and activation ops.

use crate::tape::{Op, Tape, Var};
use mcond_linalg::{sigmoid_scalar, DMat};
use std::sync::Arc;

impl Tape {
    /// `a · b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        let rg = self.rg(a.0) || self.rg(b.0);
        self.push(value, Op::MatMul(a.0, b.0), rg, None)
    }

    /// `a + b` (element-wise, equal shapes).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).add(self.value(b));
        let rg = self.rg(a.0) || self.rg(b.0);
        self.push(value, Op::Add(a.0, b.0), rg, None)
    }

    /// `a ⊙ b` (Hadamard).
    pub fn hadamard(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).hadamard(self.value(b));
        let rg = self.rg(a.0) || self.rg(b.0);
        self.push(value, Op::Hadamard(a.0, b.0), rg, None)
    }

    /// `c · a` for a compile-time constant `c`.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let value = self.value(a).scale(c);
        let rg = self.rg(a.0);
        self.push(value, Op::ScaleConst(a.0, c), rg, None)
    }

    /// `max(a, 0)`.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.value(a).relu();
        let rg = self.rg(a.0);
        self.push(value, Op::Relu(a.0), rg, None)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.value(a).sigmoid();
        let rg = self.rg(a.0);
        self.push(value, Op::Sigmoid(a.0), rg, None)
    }

    /// `aᵀ`.
    pub fn transpose(&mut self, a: Var) -> Var {
        let value = self.value(a).transpose();
        let rg = self.rg(a.0);
        self.push(value, Op::Transpose(a.0), rg, None)
    }

    /// `[a; b]` — vertical concatenation.
    pub fn vstack(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).vstack(self.value(b));
        let rg = self.rg(a.0) || self.rg(b.0);
        self.push(value, Op::VStack(a.0, b.0), rg, None)
    }

    /// Rows `lo..hi` of `a`.
    pub fn slice_rows(&mut self, a: Var, lo: usize, hi: usize) -> Var {
        let value = self.value(a).slice_rows(lo, hi);
        let rg = self.rg(a.0);
        self.push(value, Op::SliceRows(a.0, lo, hi), rg, None)
    }

    /// Row gather of `a` by `indices` (duplicates allowed).
    pub fn select_rows(&mut self, a: Var, indices: Arc<Vec<usize>>) -> Var {
        let value = self.value(a).select_rows(&indices);
        let rg = self.rg(a.0);
        self.push(value, Op::SelectRows(a.0, indices), rg, None)
    }

    /// Adds a `1 x d` bias row (`bias`) to every row of `a`.
    ///
    /// # Panics
    /// Panics when `bias` is not `1 x a.cols()`.
    pub fn add_row_broadcast(&mut self, a: Var, bias: Var) -> Var {
        let b = self.value(bias);
        assert_eq!(b.rows(), 1, "add_row_broadcast: bias must be a single row");
        let value = self.value(a).add_row_broadcast(b.row(0));
        let rg = self.rg(a.0) || self.rg(bias.0);
        self.push(value, Op::AddRowBroadcast(a.0, bias.0), rg, None)
    }

    /// `diag(v) · a`: multiplies row `i` of `a` by `v_i` — the degree scaling
    /// of a propagation whose degrees are themselves on the tape.
    ///
    /// # Panics
    /// Panics when `v` is not `a.rows() x 1`.
    pub fn scale_rows(&mut self, a: Var, v: Var) -> Var {
        let scales = self.value(v);
        assert_eq!(scales.cols(), 1, "scale_rows: scales must be a single column");
        let value = self.value(a).scale_rows(scales.as_slice());
        let rg = self.rg(a.0) || self.rg(v.0);
        self.push(value, Op::ScaleRows(a.0, v.0), rg, None)
    }

    /// Element-wise `x^{-1/2}`, with zero where `x <= 0` — the `D̃^{-1/2}` of
    /// [`mcond_sparse::sym_normalize_dense`], same expression and same
    /// treatment of non-positive degrees.
    pub fn inv_sqrt(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 });
        let rg = self.rg(a.0);
        self.push(value, Op::InvSqrt(a.0), rg, None)
    }

    /// Eq. (15) as one op: `relu(σ(a)_ij / Σ_k σ(a)_ik − eps)`, rows whose
    /// sigmoid sum is zero left undivided.
    ///
    /// Forward and backward are one row-parallel pass each. The value and
    /// the gradient have the bits of the unfused chain `sigmoid`, row-sum
    /// division, `− eps`, `relu`: every element goes through the same
    /// operations in the same order, and each row sum is an ascending sum.
    pub fn sigmoid_row_normalize(&mut self, a: Var, eps: f32) -> Var {
        let (value, cache) = sigmoid_row_normalize_rows(self.value(a), eps);
        let rg = self.rg(a.0);
        self.push(value, Op::SigmoidRowNormalize(a.0), rg, Some(cache))
    }
}

/// Rows per task of the fused row passes: enough exponentials or
/// multiply-adds per task to amortise a pool dispatch.
pub(crate) const ROW_PASS_MIN_ROWS: usize = 64;

/// The forward kernel of [`Tape::sigmoid_row_normalize`]: the value and
/// the backward cache `[σ(x) | rowsum σ(x)]` (`cols + 1` per row).
pub(crate) fn sigmoid_row_normalize_rows(x: &DMat, eps: f32) -> (DMat, DMat) {
    let mut value = DMat::zeros(x.rows(), x.cols());
    let mut cache = DMat::zeros(x.rows(), x.cols() + 1);
    value.par_fill_rows_zip(&mut cache, ROW_PASS_MIN_ROWS, |i, out, sig| {
        let (sig, sum) = sig.split_at_mut(out.len());
        for (s, &v) in sig.iter_mut().zip(x.row(i)) {
            *s = sigmoid_scalar(v);
        }
        let s: f32 = sig.iter().sum();
        sum[0] = s;
        for (o, &y) in out.iter_mut().zip(sig.iter()) {
            let y = if s != 0.0 { y / s } else { y };
            *o = (y - eps).max(0.0);
        }
    });
    (value, cache)
}
