//! The reverse sweep.
//!
//! Gradient kernels inherit the forward kernels' determinism contracts:
//! every adjoint is computed with the same `matmul`/`spmm` family the
//! forward pass uses, so gradients are bitwise invariant across
//! `MCOND_THREADS` at a fixed `MCOND_SIMD` level. Across SIMD levels the
//! *sparse* adjoints (`spmm_t`) are bitwise identical too, while the dense
//! matmul adjoints may differ in the last ulps when the FMA tiers regroup
//! additions — training runs that must be replayed exactly pin the level.

use crate::ops_basic::ROW_PASS_MIN_ROWS;
use crate::tape::{Op, Tape, Var};
use mcond_linalg::{sigmoid_scalar, DMat};

/// Gradients produced by [`Tape::backward`], indexed by [`Var`].
pub struct Gradients {
    grads: Vec<Option<DMat>>,
}

impl Gradients {
    /// The gradient accumulated for `v`, if any flowed into it.
    #[must_use]
    pub fn get(&self, v: Var) -> Option<&DMat> {
        self.grads.get(v.0).and_then(Option::as_ref)
    }

    /// Removes and returns the gradient for `v`.
    pub fn take(&mut self, v: Var) -> Option<DMat> {
        self.grads.get_mut(v.0).and_then(Option::take)
    }
}

impl Tape {
    /// Runs the reverse sweep from scalar node `loss` (seeded with 1.0) and
    /// returns per-node gradients.
    ///
    /// # Panics
    /// Panics when `loss` is not a 1×1 node.
    #[must_use]
    pub fn backward(&self, loss: Var) -> Gradients {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward: loss must be scalar"
        );
        let mut grads: Vec<Option<DMat>> = vec![None; self.nodes.len()];
        grads[loss.0] = Some(DMat::from_vec(1, 1, vec![1.0]));

        for id in (0..=loss.0).rev() {
            if !self.nodes[id].requires_grad {
                continue;
            }
            let Some(g) = grads[id].take() else { continue };
            self.accumulate(id, &g, &mut grads);
            // Leaves keep their gradient; interior nodes release theirs once
            // propagated to save memory.
            if matches!(self.nodes[id].op, Op::Leaf) {
                grads[id] = Some(g);
            }
        }
        Gradients { grads }
    }

    /// Propagates the upstream gradient `g` of node `id` into its inputs.
    #[allow(clippy::too_many_lines)]
    fn accumulate(&self, id: usize, g: &DMat, grads: &mut [Option<DMat>]) {
        let node = &self.nodes[id];
        match &node.op {
            Op::Leaf => {}
            Op::MatMul(a, b) => {
                if self.rg(*a) {
                    add_grad(grads, *a, g.matmul_nt(&self.nodes[*b].value));
                }
                if self.rg(*b) {
                    add_grad(grads, *b, self.nodes[*a].value.matmul_tn(g));
                }
            }
            Op::SpMM(s, b) => {
                if self.rg(*b) {
                    add_grad(grads, *b, s.spmm_t(g));
                }
            }
            Op::Add(a, b) => {
                if self.rg(*a) {
                    add_grad(grads, *a, g.clone());
                }
                if self.rg(*b) {
                    add_grad(grads, *b, g.clone());
                }
            }
            Op::Hadamard(a, b) => {
                if self.rg(*a) {
                    add_grad(grads, *a, g.hadamard(&self.nodes[*b].value));
                }
                if self.rg(*b) {
                    add_grad(grads, *b, g.hadamard(&self.nodes[*a].value));
                }
            }
            Op::ScaleConst(a, c) => {
                if self.rg(*a) {
                    add_grad(grads, *a, g.scale(*c));
                }
            }
            Op::Relu(a) => {
                if self.rg(*a) {
                    let mask = self.nodes[*a].value.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
                    add_grad(grads, *a, g.hadamard(&mask));
                }
            }
            Op::Sigmoid(a) => {
                if self.rg(*a) {
                    let y = &node.value;
                    let dy = y.map(|v| v * (1.0 - v));
                    add_grad(grads, *a, g.hadamard(&dy));
                }
            }
            Op::Transpose(a) => {
                if self.rg(*a) {
                    add_grad(grads, *a, g.transpose());
                }
            }
            Op::VStack(a, b) => {
                let ra = self.nodes[*a].value.rows();
                if self.rg(*a) {
                    add_grad(grads, *a, g.slice_rows(0, ra));
                }
                if self.rg(*b) {
                    add_grad(grads, *b, g.slice_rows(ra, g.rows()));
                }
            }
            Op::SliceRows(a, lo, _hi) => {
                if self.rg(*a) {
                    let src = &self.nodes[*a].value;
                    let mut ga = DMat::zeros(src.rows(), src.cols());
                    for i in 0..g.rows() {
                        ga.row_mut(lo + i).copy_from_slice(g.row(i));
                    }
                    add_grad(grads, *a, ga);
                }
            }
            Op::SelectRows(a, idx) => {
                if self.rg(*a) {
                    let src = &self.nodes[*a].value;
                    let mut ga = DMat::zeros(src.rows(), src.cols());
                    for (pos, &i) in idx.iter().enumerate() {
                        for (dst, s) in ga.row_mut(i).iter_mut().zip(g.row(pos)) {
                            *dst += *s;
                        }
                    }
                    add_grad(grads, *a, ga);
                }
            }
            Op::AddRowBroadcast(a, bias) => {
                if self.rg(*a) {
                    add_grad(grads, *a, g.clone());
                }
                if self.rg(*bias) {
                    add_grad(grads, *bias, DMat::from_vec(1, g.cols(), g.col_sums()));
                }
            }
            Op::ScaleRows(a, v) => {
                if self.rg(*a) {
                    add_grad(grads, *a, g.scale_rows(self.nodes[*v].value.as_slice()));
                }
                if self.rg(*v) {
                    let x = &self.nodes[*a].value;
                    let gv = (0..g.rows())
                        .map(|i| g.row(i).iter().zip(x.row(i)).map(|(gv, xv)| gv * xv).sum())
                        .collect();
                    add_grad(grads, *v, DMat::from_vec(g.rows(), 1, gv));
                }
            }
            Op::InvSqrt(a) => {
                if self.rg(*a) {
                    // y = x^{-1/2}  =>  dy/dx = -y³/2 (and 0 where y was clamped to 0).
                    add_grad(grads, *a, g.zip_with(&node.value, |gv, y| -0.5 * gv * y * y * y));
                }
            }
            Op::SigmoidRowNormalize(a) => {
                // Replays sigmoid → row division → `− ε` → relu per
                // element: the relu multiplies by 1/0 (keeping -0.0),
                // `(g − Σ_k g_ik y_ik)/s` with `y = σ/s` and an ascending
                // sum (zero-sum rows stay zero), then `· σ(1 − σ)`.
                if self.rg(*a) {
                    let cache = node.cache.as_ref().expect("SigmoidRowNormalize cache");
                    let mut ga = DMat::zeros(g.rows(), g.cols());
                    ga.par_fill_rows(ROW_PASS_MIN_ROWS, |i, dst| {
                        let (sig, s) = cache.row(i).split_at(g.cols());
                        let s = s[0];
                        if s != 0.0 {
                            let masked = g.row(i).iter().zip(node.value.row(i)).map(|(gv, &y)| {
                                gv * if y > 0.0 { 1.0 } else { 0.0 }
                            });
                            let inner: f32 =
                                masked.clone().zip(sig).map(|(gv, y)| gv * (y / s)).sum();
                            for ((d, gv), y) in dst.iter_mut().zip(masked).zip(sig) {
                                *d = (gv - inner) / s * (y * (1.0 - y));
                            }
                        }
                    });
                    add_grad(grads, *a, ga);
                }
            }
            Op::SymNormalize(a) => {
                if self.rg(*a) {
                    add_grad(grads, *a, self.sym_normalize_backward(id, *a, g));
                }
            }
            Op::PairSum(p, q) => {
                // Row i·n + j is p_i + q_j: p_i collects the rows of block i,
                // q_j the j-th row of every block.
                let (n, h) = self.nodes[*p].value.shape();
                let mut gp = DMat::zeros(n, h);
                let mut gq = DMat::zeros(n, h);
                for i in 0..n {
                    for j in 0..n {
                        let grow = g.row(i * n + j);
                        for (dst, s) in gp.row_mut(i).iter_mut().zip(grow) {
                            *dst += *s;
                        }
                        for (dst, s) in gq.row_mut(j).iter_mut().zip(grow) {
                            *dst += *s;
                        }
                    }
                }
                if self.rg(*p) {
                    add_grad(grads, *p, gp);
                }
                if self.rg(*q) {
                    add_grad(grads, *q, gq);
                }
            }
            Op::PairMeanSym(z) => {
                if self.rg(*z) {
                    let n = node.value.rows();
                    let mut gz = DMat::zeros(n * n, 1);
                    for i in 0..n {
                        for j in 0..n {
                            // y_ij = (z_{i·n+j} + z_{j·n+i}) / 2, so z_{i·n+j}
                            // receives half of g_ij (as first operand) plus
                            // half of g_ji (as second operand).
                            gz.set(i * n + j, 0, 0.5 * (g.get(i, j) + g.get(j, i)));
                        }
                    }
                    add_grad(grads, *z, gz);
                }
            }
            Op::SoftmaxCrossEntropy(a, labels) => {
                if self.rg(*a) {
                    let probs = node.cache.as_ref().expect("SoftmaxCrossEntropy cache");
                    let seed = g.get(0, 0);
                    let n = probs.rows().max(1) as f32;
                    let mut ga = probs.clone();
                    for (i, &y) in labels.iter().enumerate() {
                        let v = ga.get(i, y) - 1.0;
                        ga.set(i, y, v);
                    }
                    ga.scale_assign(seed / n);
                    add_grad(grads, *a, ga);
                }
            }
            Op::SoftmaxError(a, _labels) => {
                if self.rg(*a) {
                    // y_ij = (s_ij - onehot_ij)/N where s = softmax(x).
                    // dx_ij = (1/N) s_ij (g_ij - Σ_k g_ik s_ik)
                    let probs = node.cache.as_ref().expect("SoftmaxError cache");
                    let n = probs.rows().max(1) as f32;
                    let mut ga = DMat::zeros(g.rows(), g.cols());
                    for i in 0..g.rows() {
                        let inner: f32 =
                            g.row(i).iter().zip(probs.row(i)).map(|(gv, sv)| gv * sv).sum();
                        for ((dst, gv), sv) in
                            ga.row_mut(i).iter_mut().zip(g.row(i)).zip(probs.row(i))
                        {
                            *dst = sv * (gv - inner) / n;
                        }
                    }
                    add_grad(grads, *a, ga);
                }
            }
            Op::L21Dist(a, b) => {
                // `seed·v/‖v‖` for `a` (`v = a_i − b_i`, zero where
                // `‖v‖ ≤ 1e-12`), times -1 for `b`: the bits a recorded
                // difference node would pass on, `-0.0` rows included.
                let norms = node.cache.as_ref().expect("L21Dist cache");
                let (x, y) = (&self.nodes[*a].value, &self.nodes[*b].value);
                let seed = g.get(0, 0);
                for (side, sign) in [(*a, 1.0f32), (*b, -1.0)] {
                    if !self.rg(side) {
                        continue;
                    }
                    let mut out = DMat::zeros(x.rows(), x.cols());
                    out.par_fill_rows(ROW_PASS_MIN_ROWS, |i, dst| {
                        let norm = norms.get(i, 0);
                        let v = x.row(i).iter().zip(y.row(i)).map(|(p, q)| p - q);
                        for (d, v) in dst.iter_mut().zip(v) {
                            *d = if norm > 1e-12 { seed * v / norm } else { 0.0 } * sign;
                        }
                    });
                    add_grad(grads, side, out);
                }
            }
            Op::L21GramDist(m, target, norms) => {
                if self.rg(*m) {
                    let q = node.cache.as_ref().expect("L21GramDist cache");
                    let seed = g.get(0, 0);
                    let mut out = DMat::zeros(q.rows(), q.cols());
                    out.par_fill_rows(ROW_PASS_MIN_ROWS, |i, dst| {
                        let norm = norms.get(i, 0);
                        if norm > 1e-12 {
                            let qp = q.row(i).iter().zip(target.cross.row(i));
                            for (d, (q, p)) in dst.iter_mut().zip(qp) {
                                *d = seed * (q - p) / norm;
                            }
                        }
                    });
                    add_grad(grads, *m, out);
                }
            }
            Op::CosineColDist(a, b) => {
                let seed = g.get(0, 0);
                let (x, y) = (&self.nodes[*a].value, &self.nodes[*b].value);
                let (rows, cols) = x.shape();
                let mut ga = DMat::zeros(rows, cols);
                let mut gb = DMat::zeros(rows, cols);
                for j in 0..cols {
                    let mut dot = 0.0f32;
                    let mut na2 = 0.0f32;
                    let mut nb2 = 0.0f32;
                    for i in 0..rows {
                        let (av, bv) = (x.get(i, j), y.get(i, j));
                        dot += av * bv;
                        na2 += av * av;
                        nb2 += bv * bv;
                    }
                    let (na, nb) = (na2.sqrt(), nb2.sqrt());
                    if na * nb <= 1e-12 {
                        continue; // zero-norm column: constant loss 1, no grad
                    }
                    let cos = dot / (na * nb);
                    for i in 0..rows {
                        let (av, bv) = (x.get(i, j), y.get(i, j));
                        // d(1-cos)/da_i = -(b_i/(na·nb) - cos·a_i/na²)
                        ga.set(i, j, -seed * (bv / (na * nb) - cos * av / na2));
                        gb.set(i, j, -seed * (av / (na * nb) - cos * bv / nb2));
                    }
                }
                if self.rg(*a) {
                    add_grad(grads, *a, ga);
                }
                if self.rg(*b) {
                    add_grad(grads, *b, gb);
                }
            }
            Op::PairBce(h, pairs) => {
                if self.rg(*h) {
                    let x = &self.nodes[*h].value;
                    let seed = g.get(0, 0) / pairs.len() as f32;
                    let mut gh = DMat::zeros(x.rows(), x.cols());
                    for &(i, j, t) in pairs.iter() {
                        let (i, j) = (i as usize, j as usize);
                        let d: f32 =
                            x.row(i).iter().zip(x.row(j)).map(|(a, b)| a * b).sum();
                        let coeff = seed * (sigmoid_scalar(d) - t);
                        for (dst, v) in gh.row_mut(i).iter_mut().zip(x.row(j)) {
                            *dst += coeff * v;
                        }
                        for (dst, v) in gh.row_mut(j).iter_mut().zip(x.row(i)) {
                            *dst += coeff * v;
                        }
                    }
                    add_grad(grads, *h, gh);
                }
            }
        }
    }

    /// Backward rule for `Y = D̃^{-1/2}(X + I)D̃^{-1/2}`.
    ///
    /// With `T = X + I`, `d = rowsum(T)`, `r_i = d_i^{-1/2}`,
    /// `y_ij = t_ij r_i r_j`. Perturbing `t_kl` changes only `d_k` (hence
    /// only `r_k`), and `r_k` scales both row `k` and column `k` of `Y`, so
    /// both correction terms key on the *row* index `k`:
    /// `∂L/∂t_kl = g_kl r_k r_l - (r_k³/2)·(u_k + w_k)`,
    /// where `u_k = Σ_j g_kj t_kj r_j` (row `k` of `G⊙T` against `r`) and
    /// `w_k = Σ_i g_ik t_ik r_i` (column `k`). `∂L/∂x = ∂L/∂t` since the
    /// self-loop shift is constant.
    fn sym_normalize_backward(&self, id: usize, a: usize, g: &DMat) -> DMat {
        let node = &self.nodes[id];
        let r = node.cache.as_ref().expect("SymNormalize cache");
        let x: &DMat = &self.nodes[a].value;
        let n = x.rows();
        // Recover T = X + I.
        let mut t = x.clone();
        for i in 0..n {
            let v = t.get(i, i) + 1.0;
            t.set(i, i, v);
        }
        let mut u = vec![0.0f32; n];
        let mut w = vec![0.0f32; n];
        for (i, u_i) in u.iter_mut().enumerate() {
            let ri = r.get(i, 0);
            for (j, w_j) in w.iter_mut().enumerate() {
                let gt = g.get(i, j) * t.get(i, j);
                *u_i += gt * r.get(j, 0);
                *w_j += gt * ri;
            }
        }
        let mut out = DMat::zeros(n, n);
        for k in 0..n {
            let rk = r.get(k, 0);
            let corr = 0.5 * rk * rk * rk * (u[k] + w[k]);
            for l in 0..n {
                let rl = r.get(l, 0);
                out.set(k, l, g.get(k, l) * rk * rl - corr);
            }
        }
        out
    }
}

fn add_grad(grads: &mut [Option<DMat>], id: usize, g: DMat) {
    match &mut grads[id] {
        Some(existing) => existing.add_assign(&g),
        slot @ None => *slot = Some(g),
    }
}
