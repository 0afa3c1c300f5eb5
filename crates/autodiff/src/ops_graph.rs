//! Graph-specific differentiable ops: sparse products, the differentiable
//! GCN normalisation, and the pairwise plumbing of the Eq. (6) adjacency
//! generator.

use crate::tape::{Op, Tape, Var};
use mcond_linalg::DMat;
use mcond_sparse::Csr;
use std::sync::Arc;

impl Tape {
    /// `S · b` where `S` is a constant sparse matrix — the message-passing
    /// primitive. Gradient flows into `b` only.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn spmm(&mut self, s: Arc<Csr>, b: Var) -> Var {
        let value = s.spmm(self.value(b));
        let rg = self.rg(b.0);
        self.push(value, Op::SpMM(s, b.0), rg, None)
    }

    /// Differentiable symmetric GCN normalisation of a dense square input:
    /// `Y = D̃^{-1/2}(A + I)D̃^{-1/2}` with `D̃ = diag(rowsum(A + I))`. The
    /// forward value *is* [`mcond_sparse::sym_normalize_dense`]'s.
    ///
    /// Used to train through the learned synthetic adjacency `A'`.
    ///
    /// # Panics
    /// Panics when the input is not square.
    pub fn sym_normalize(&mut self, a: Var) -> Var {
        let (value, r) = mcond_sparse::sym_normalize_dense_with_scale(self.value(a));
        // Cache r (as an n x 1 matrix) for the backward pass.
        let cache = DMat::from_vec(r.len(), 1, r);
        let rg = self.rg(a.0);
        self.push(value, Op::SymNormalize(a.0), rg, Some(cache))
    }

    /// Builds the `n² x h` matrix whose row `i·n + j` is `p_i + q_j`. With
    /// `p = X·W1[..d]` and `q = X·W1[d..]` this is `[x_i; x_j]·W1` for every
    /// ordered pair — the first layer of MLP_Φ in Eq. (6) — without the
    /// `n² x 2d` pair matrix.
    ///
    /// Quadratic in `n`; intended for the small synthetic node set
    /// (`n = N' ≪ N`).
    ///
    /// # Panics
    /// Panics when `p` and `q` differ in shape.
    pub fn pair_sum(&mut self, p: Var, q: Var) -> Var {
        let (pv, qv) = (self.value(p), self.value(q));
        assert_eq!(pv.shape(), qv.shape(), "pair_sum: shape mismatch");
        let (n, h) = pv.shape();
        let mut value = DMat::zeros(n * n, h);
        for i in 0..n {
            for j in 0..n {
                let row = value.row_mut(i * n + j);
                for ((dst, a), b) in row.iter_mut().zip(pv.row(i)).zip(qv.row(j)) {
                    *dst = a + b;
                }
            }
        }
        let rg = self.rg(p.0) || self.rg(q.0);
        self.push(value, Op::PairSum(p.0, q.0), rg, None)
    }

    /// Reshapes an `n² x 1` pair score vector into the symmetric `n x n`
    /// matrix `(Z_{i·n+j} + Z_{j·n+i}) / 2` — the symmetrisation of Eq. (6)
    /// (apply [`Tape::sigmoid`] on the result to finish the equation).
    ///
    /// # Panics
    /// Panics when the input is not a perfect-square-length column vector.
    pub fn pair_mean_sym(&mut self, z: Var) -> Var {
        let v = self.value(z);
        assert_eq!(v.cols(), 1, "pair_mean_sym: expected a column vector");
        let n2 = v.rows();
        let n = (n2 as f64).sqrt().round() as usize;
        assert_eq!(n * n, n2, "pair_mean_sym: length {n2} is not a perfect square");
        let mut value = DMat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let s = 0.5 * (v.get(i * n + j, 0) + v.get(j * n + i, 0));
                value.set(i, j, s);
            }
        }
        let rg = self.rg(z.0);
        self.push(value, Op::PairMeanSym(z.0), rg, None)
    }

    /// Zeroes the diagonal of a square matrix (no learned self-loops in `A'`
    /// — the self-loop is added back by the normalisation).
    ///
    /// Implemented as a Hadamard with a constant mask so no new op kind is
    /// needed.
    pub fn zero_diagonal(&mut self, a: Var) -> Var {
        let n = self.value(a).rows();
        let mut mask = DMat::filled(n, n, 1.0);
        for i in 0..n {
            mask.set(i, i, 0.0);
        }
        let m = self.constant(mask);
        self.hadamard(a, m)
    }
}
