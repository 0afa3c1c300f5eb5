//! The five GNN architectures of the paper.

use crate::propagator::{BaseDegrees, Propagator};
use mcond_autodiff::{Tape, Var};
use mcond_linalg::{DMat, MatRng};
use mcond_sparse::{sym_normalize, Csr};
use std::sync::Arc;

/// Architecture selector (paper §IV-A and Table IV).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GnnKind {
    /// Simplified GCN (Wu et al. 2019): `Â^K X W` — the model used for
    /// condensation and the default deployment model.
    Sgc,
    /// 2-layer GCN (Kipf & Welling 2017).
    Gcn,
    /// GraphSAGE with mean aggregation (Hamilton et al. 2017).
    Sage,
    /// APPNP (Klicpera et al. 2019): MLP followed by personalised-PageRank
    /// propagation.
    Appnp,
    /// ChebNet with K = 2 polynomials and the λ_max ≈ 2 approximation
    /// (Defferrard et al. 2016).
    Cheby,
}

impl GnnKind {
    /// All architectures, in Table IV order (with SGC first).
    pub const ALL: [GnnKind; 5] =
        [GnnKind::Sgc, GnnKind::Gcn, GnnKind::Sage, GnnKind::Appnp, GnnKind::Cheby];

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GnnKind::Sgc => "SGC",
            GnnKind::Gcn => "GCN",
            GnnKind::Sage => "GraphSAGE",
            GnnKind::Appnp => "APPNP",
            GnnKind::Cheby => "Cheby",
        }
    }

    /// Stable one-byte architecture tag used by the on-disk checkpoint
    /// format (`mcond-store`). Never renumber existing variants.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            GnnKind::Sgc => 0,
            GnnKind::Gcn => 1,
            GnnKind::Sage => 2,
            GnnKind::Appnp => 3,
            GnnKind::Cheby => 4,
        }
    }

    /// Inverse of [`GnnKind::code`]; `None` for unknown tags (e.g. a
    /// checkpoint written by a newer build).
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        GnnKind::ALL.into_iter().find(|k| k.code() == code)
    }

    /// Number of parameter matrices this architecture owns (weights and
    /// biases, layer-major — the layout produced by [`GnnModel::new`]).
    #[must_use]
    pub fn param_count(self) -> usize {
        match self {
            GnnKind::Sgc => 2,
            GnnKind::Gcn | GnnKind::Appnp => 4,
            GnnKind::Sage | GnnKind::Cheby => 6,
        }
    }
}

/// Precomputed propagation operators for one graph.
///
/// `sym` is the GCN kernel `D̃^{-1/2}(A + I)D̃^{-1/2}`; `mean` the row-
/// stochastic `D^{-1}A` used by the SAGE mean aggregator. Either operator
/// may be a materialised matrix or a lazily extended block operator (see
/// [`Propagator`]); [`GnnModel::predict`] works with both, while training
/// requires materialised operators.
pub struct GraphOps<'a> {
    /// Symmetric-normalised adjacency with self-loops.
    pub sym: Propagator<'a>,
    /// Row-normalised adjacency (no self-loops).
    pub mean: Propagator<'a>,
}

impl GraphOps<'static> {
    /// Builds both operators from a raw adjacency (materialised form).
    #[must_use]
    pub fn from_adj(adj: &Csr) -> Self {
        let sym = Arc::new(sym_normalize(adj));
        // Row normalisation on sparse: scale each row by 1/degree.
        let degrees = adj.row_weighted_degrees();
        let dense_free = {
            // Scale values row-wise without densifying.
            let mut coo = mcond_sparse::Coo::with_capacity(adj.rows(), adj.cols(), adj.nnz());
            for (i, j, v) in adj.iter() {
                let d = degrees[i];
                if d > 0.0 {
                    coo.push(i, j, v / d);
                }
            }
            coo.to_csr()
        };
        Self { sym: Propagator::Matrix(sym), mean: Propagator::Matrix(Arc::new(dense_free)) }
    }
}

impl<'a> GraphOps<'a> {
    /// Builds both operators for the extended graph `[[base, incᵀ], [inc,
    /// inter]]` **without materialising it** — per-batch inductive serving
    /// then costs O(nnz(inc) + nnz(inter) + n) instead of copying the base
    /// graph (see `mcond-core`'s `InductiveServer`). The blocks are
    /// borrowed, not cloned: a request's `inc`/`inter` are used in place.
    #[must_use]
    pub fn extended(base: &'a Csr, inc: &'a Csr, inter: &'a Csr) -> Self {
        Self {
            sym: Propagator::extended_sym(base, inc, inter),
            mean: Propagator::extended_mean(base, inc, inter),
        }
    }

    /// [`extended`](Self::extended) with the base graph's degree sums
    /// supplied by the caller ([`BaseDegrees::of`], computed once per
    /// server). Bitwise identical to [`extended`](Self::extended).
    #[must_use]
    pub fn extended_with(
        base: &'a Csr,
        inc: &'a Csr,
        inter: &'a Csr,
        deg: &BaseDegrees,
    ) -> Self {
        Self {
            sym: Propagator::extended_sym_with(base, inc, inter, deg),
            mean: Propagator::extended_mean_with(base, inc, inter, deg),
        }
    }
}

/// A GNN with owned parameters.
///
/// The parameter list layout per architecture (weights then biases,
/// layer-major) is an internal detail; use [`GnnModel::tape_params`] /
/// [`GnnModel::params_mut`] to iterate.
#[derive(Clone)]
pub struct GnnModel {
    kind: GnnKind,
    params: Vec<DMat>,
    /// Propagation depth: SGC/APPNP power steps, otherwise layer count (2).
    pub hops: usize,
    /// APPNP teleport probability.
    pub alpha: f32,
}

impl GnnModel {
    /// Initialises a model with Glorot weights and zero biases.
    #[must_use]
    pub fn new(kind: GnnKind, in_dim: usize, hidden: usize, out_dim: usize, seed: u64) -> Self {
        let mut rng = MatRng::seed_from(seed);
        let params = match kind {
            GnnKind::Sgc => vec![rng.glorot(in_dim, out_dim), DMat::zeros(1, out_dim)],
            GnnKind::Gcn | GnnKind::Appnp => vec![
                rng.glorot(in_dim, hidden),
                DMat::zeros(1, hidden),
                rng.glorot(hidden, out_dim),
                DMat::zeros(1, out_dim),
            ],
            GnnKind::Sage => vec![
                rng.glorot(in_dim, hidden),   // self
                rng.glorot(in_dim, hidden),   // neighbour
                DMat::zeros(1, hidden),
                rng.glorot(hidden, out_dim),  // self
                rng.glorot(hidden, out_dim),  // neighbour
                DMat::zeros(1, out_dim),
            ],
            GnnKind::Cheby => vec![
                rng.glorot(in_dim, hidden),   // T0
                rng.glorot(in_dim, hidden),   // T1
                DMat::zeros(1, hidden),
                rng.glorot(hidden, out_dim),  // T0
                rng.glorot(hidden, out_dim),  // T1
                DMat::zeros(1, out_dim),
            ],
        };
        Self { kind, params, hops: 2, alpha: 0.1 }
    }

    /// Rebuilds a model from an architecture tag and an explicit parameter
    /// list — the checkpoint-restore path (`mcond-store`). `params` must
    /// follow the layer-major weights-then-biases layout that
    /// [`GnnModel::new`] produces and [`GnnModel::params`] exposes.
    ///
    /// # Panics
    /// Panics when the parameter count does not match the architecture;
    /// callers restoring untrusted bytes must validate first (the store
    /// decoder does, returning a typed error instead).
    #[must_use]
    pub fn from_parts(kind: GnnKind, params: Vec<DMat>, hops: usize, alpha: f32) -> Self {
        assert_eq!(
            params.len(),
            kind.param_count(),
            "GnnModel::from_parts: {} expects {} parameter matrices",
            kind.name(),
            kind.param_count()
        );
        Self { kind, params, hops, alpha }
    }

    /// Architecture of this model.
    #[must_use]
    pub fn kind(&self) -> GnnKind {
        self.kind
    }

    /// Number of output classes `C` (the logit width).
    ///
    /// Every architecture's parameter list ends with the output bias
    /// (`1 x C`), so this is layout-independent. Serving layers use it to
    /// shape `0 x C` responses for empty batches without a forward pass.
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.params.last().map_or(0, DMat::cols)
    }

    /// Mutable access to the parameters (for the optimizer), in the same
    /// order as [`GnnModel::tape_params`].
    pub fn params_mut(&mut self) -> &mut [DMat] {
        &mut self.params
    }

    /// Read access to the parameters.
    #[must_use]
    pub fn params(&self) -> &[DMat] {
        &self.params
    }

    /// Registers all parameters on a tape.
    pub fn tape_params(&self, tape: &mut Tape) -> Vec<Var> {
        self.params.iter().map(|p| tape.param(p.clone())).collect()
    }

    /// Builds the logits graph on `tape` using parameter vars `ps` (from
    /// [`GnnModel::tape_params`]) and feature var `x`.
    ///
    /// # Panics
    /// Panics if `ps` does not match the architecture's parameter count.
    pub fn forward(&self, tape: &mut Tape, ps: &[Var], ops: &GraphOps, x: Var) -> Var {
        assert_eq!(ps.len(), self.params.len(), "forward: wrong parameter count");
        match self.kind {
            GnnKind::Sgc => {
                let mut h = x;
                for _ in 0..self.hops {
                    h = tape.spmm(ops.sym.csr(), h);
                }
                let hw = tape.matmul(h, ps[0]);
                tape.add_row_broadcast(hw, ps[1])
            }
            GnnKind::Gcn => {
                let xw = tape.matmul(x, ps[0]);
                let h = tape.spmm(ops.sym.csr(), xw);
                let h = tape.add_row_broadcast(h, ps[1]);
                let h = tape.relu(h);
                let hw = tape.matmul(h, ps[2]);
                let out = tape.spmm(ops.sym.csr(), hw);
                tape.add_row_broadcast(out, ps[3])
            }
            GnnKind::Sage => {
                let self1 = tape.matmul(x, ps[0]);
                let agg = tape.spmm(ops.mean.csr(), x);
                let nbr1 = tape.matmul(agg, ps[1]);
                let h = tape.add(self1, nbr1);
                let h = tape.add_row_broadcast(h, ps[2]);
                let h = tape.relu(h);
                let self2 = tape.matmul(h, ps[3]);
                let agg2 = tape.spmm(ops.mean.csr(), h);
                let nbr2 = tape.matmul(agg2, ps[4]);
                let out = tape.add(self2, nbr2);
                tape.add_row_broadcast(out, ps[5])
            }
            GnnKind::Appnp => {
                let xw = tape.matmul(x, ps[0]);
                let h = tape.add_row_broadcast(xw, ps[1]);
                let h = tape.relu(h);
                let hw = tape.matmul(h, ps[2]);
                let h0 = tape.add_row_broadcast(hw, ps[3]);
                // Personalised PageRank: Z_{k+1} = (1-α) Â Z_k + α H₀.
                let teleport = tape.scale(h0, self.alpha);
                let mut z = h0;
                for _ in 0..self.hops {
                    let prop = tape.spmm(ops.sym.csr(), z);
                    let damped = tape.scale(prop, 1.0 - self.alpha);
                    z = tape.add(damped, teleport);
                }
                z
            }
            GnnKind::Cheby => {
                // λ_max ≈ 2 gives T0 = X, T1 = L̃X = -ÂX.
                let t1x = tape.spmm(ops.sym.csr(), x);
                let t1x = tape.scale(t1x, -1.0);
                let h0 = tape.matmul(x, ps[0]);
                let h1 = tape.matmul(t1x, ps[1]);
                let h = tape.add(h0, h1);
                let h = tape.add_row_broadcast(h, ps[2]);
                let h = tape.relu(h);
                let t1h = tape.spmm(ops.sym.csr(), h);
                let t1h = tape.scale(t1h, -1.0);
                let o0 = tape.matmul(h, ps[3]);
                let o1 = tape.matmul(t1h, ps[4]);
                let out = tape.add(o0, o1);
                tape.add_row_broadcast(out, ps[5])
            }
        }
    }

    /// Tape-free inference: logits for every node of `(adj, x)`.
    ///
    /// This is the deployment path measured by the paper's time/memory
    /// experiments; it allocates no autodiff bookkeeping.
    #[must_use]
    pub fn predict(&self, ops: &GraphOps, x: &DMat) -> DMat {
        let p = &self.params;
        match self.kind {
            GnnKind::Sgc => {
                let mut h = x.clone();
                for _ in 0..self.hops {
                    h = ops.sym.spmm(&h);
                }
                h.matmul(&p[0]).add_row_broadcast(p[1].row(0))
            }
            GnnKind::Gcn => {
                let h = ops.sym.spmm(&x.matmul(&p[0])).add_row_broadcast(p[1].row(0)).relu();
                ops.sym.spmm(&h.matmul(&p[2])).add_row_broadcast(p[3].row(0))
            }
            GnnKind::Sage => {
                let h = x
                    .matmul(&p[0])
                    .add(&ops.mean.spmm(x).matmul(&p[1]))
                    .add_row_broadcast(p[2].row(0))
                    .relu();
                h.matmul(&p[3])
                    .add(&ops.mean.spmm(&h).matmul(&p[4]))
                    .add_row_broadcast(p[5].row(0))
            }
            GnnKind::Appnp => {
                let h = x.matmul(&p[0]).add_row_broadcast(p[1].row(0)).relu();
                let h0 = h.matmul(&p[2]).add_row_broadcast(p[3].row(0));
                let teleport = h0.scale(self.alpha);
                let mut z = h0;
                for _ in 0..self.hops {
                    z = ops.sym.spmm(&z).scale(1.0 - self.alpha).add(&teleport);
                }
                z
            }
            GnnKind::Cheby => {
                let t1x = ops.sym.spmm(x).scale(-1.0);
                let h = x
                    .matmul(&p[0])
                    .add(&t1x.matmul(&p[1]))
                    .add_row_broadcast(p[2].row(0))
                    .relu();
                let t1h = ops.sym.spmm(&h).scale(-1.0);
                h.matmul(&p[3])
                    .add(&t1h.matmul(&p[4]))
                    .add_row_broadcast(p[5].row(0))
            }
        }
    }

    /// Split-operator inference: logits for the **new rows only** of the
    /// graph behind `ops`, fed as a `(x_base, x_new)` pair that is never
    /// vstacked.
    ///
    /// This is the serving fast path: every dense layer step is
    /// row-independent and the propagation steps use
    /// [`Propagator::spmm_split`] / [`Propagator::spmm_bottom`], so the
    /// returned `n×C` block is **bitwise identical** to
    /// `predict(ops, x_base.vstack(x_new))` sliced to its last `n` rows —
    /// at any thread count — while the final propagation computes only the
    /// `n` inductive output rows and no base-side state is copied.
    ///
    /// # Panics
    /// Panics on dimension mismatch between the split inputs and `ops`.
    #[must_use]
    pub fn predict_split(&self, ops: &GraphOps<'_>, x_base: &DMat, x_new: &DMat) -> DMat {
        let p = &self.params;
        match self.kind {
            GnnKind::Sgc => {
                if self.hops == 0 {
                    return x_new.matmul(&p[0]).add_row_broadcast(p[1].row(0));
                }
                if self.hops == 1 {
                    return ops
                        .sym
                        .spmm_bottom(x_base, x_new)
                        .matmul(&p[0])
                        .add_row_broadcast(p[1].row(0));
                }
                let (mut hb, mut hn) = ops.sym.spmm_split(x_base, x_new);
                for _ in 1..self.hops - 1 {
                    let (tb, tn) = ops.sym.spmm_split(&hb, &hn);
                    hb = tb;
                    hn = tn;
                }
                ops.sym
                    .spmm_bottom(&hb, &hn)
                    .matmul(&p[0])
                    .add_row_broadcast(p[1].row(0))
            }
            GnnKind::Gcn => {
                let (hb, hn) = ops.sym.spmm_split(&x_base.matmul(&p[0]), &x_new.matmul(&p[0]));
                let hb = hb.add_row_broadcast(p[1].row(0)).relu();
                let hn = hn.add_row_broadcast(p[1].row(0)).relu();
                ops.sym
                    .spmm_bottom(&hb.matmul(&p[2]), &hn.matmul(&p[2]))
                    .add_row_broadcast(p[3].row(0))
            }
            GnnKind::Sage => {
                let (ab, an) = ops.mean.spmm_split(x_base, x_new);
                let hb = x_base
                    .matmul(&p[0])
                    .add(&ab.matmul(&p[1]))
                    .add_row_broadcast(p[2].row(0))
                    .relu();
                let hn = x_new
                    .matmul(&p[0])
                    .add(&an.matmul(&p[1]))
                    .add_row_broadcast(p[2].row(0))
                    .relu();
                hn.matmul(&p[3])
                    .add(&ops.mean.spmm_bottom(&hb, &hn).matmul(&p[4]))
                    .add_row_broadcast(p[5].row(0))
            }
            GnnKind::Appnp => {
                let mlp = |x: &DMat| {
                    x.matmul(&p[0])
                        .add_row_broadcast(p[1].row(0))
                        .relu()
                        .matmul(&p[2])
                        .add_row_broadcast(p[3].row(0))
                };
                let hb0 = mlp(x_base);
                let hn0 = mlp(x_new);
                if self.hops == 0 {
                    return hn0;
                }
                let tb = hb0.scale(self.alpha);
                let tn = hn0.scale(self.alpha);
                let (mut zb, mut zn) = (hb0, hn0);
                for _ in 0..self.hops - 1 {
                    let (pb, pn) = ops.sym.spmm_split(&zb, &zn);
                    zb = pb.scale(1.0 - self.alpha).add(&tb);
                    zn = pn.scale(1.0 - self.alpha).add(&tn);
                }
                ops.sym.spmm_bottom(&zb, &zn).scale(1.0 - self.alpha).add(&tn)
            }
            GnnKind::Cheby => {
                let (t1b, t1n) = ops.sym.spmm_split(x_base, x_new);
                let hb = x_base
                    .matmul(&p[0])
                    .add(&t1b.scale(-1.0).matmul(&p[1]))
                    .add_row_broadcast(p[2].row(0))
                    .relu();
                let hn = x_new
                    .matmul(&p[0])
                    .add(&t1n.scale(-1.0).matmul(&p[1]))
                    .add_row_broadcast(p[2].row(0))
                    .relu();
                let t1h_n = ops.sym.spmm_bottom(&hb, &hn).scale(-1.0);
                hn.matmul(&p[3])
                    .add(&t1h_n.matmul(&p[4]))
                    .add_row_broadcast(p[5].row(0))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcond_sparse::Coo;
    use std::sync::Arc as StdArc;

    fn ring(n: usize) -> Csr {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push_sym(i, (i + 1) % n, 1.0);
        }
        coo.to_csr()
    }

    #[test]
    fn every_architecture_produces_logits_of_right_shape() {
        let adj = ring(6);
        let ops = GraphOps::from_adj(&adj);
        let x = MatRng::seed_from(1).normal(6, 4, 0.0, 1.0);
        for kind in GnnKind::ALL {
            let model = GnnModel::new(kind, 4, 8, 3, 7);
            let out = model.predict(&ops, &x);
            assert_eq!(out.shape(), (6, 3), "{}", kind.name());
            assert!(out.as_slice().iter().all(|v| v.is_finite()), "{}", kind.name());
        }
    }

    /// The split-operator contract every serving caller relies on:
    /// `predict_split` returns exactly the rows a vstacked `predict` would
    /// put at the bottom — bitwise, for every architecture, at 1 and 4
    /// threads, whether the new nodes' blocks are dense, have
    /// structurally empty rows, or carry no edges at all.
    #[test]
    fn predict_split_is_bitwise_the_bottom_of_the_stacked_predict() {
        let base = ring(7);
        let n = 3;
        let block = |rows: usize, cols: usize, entries: &[(usize, usize, f32)]| {
            let mut coo = Coo::new(rows, cols);
            for &(i, j, v) in entries {
                coo.push(i, j, v);
            }
            coo.to_csr()
        };
        let cases = [
            (
                "dense",
                block(n, 7, &[(0, 0, 1.0), (0, 3, 0.5), (1, 1, 2.0), (1, 6, 1.0), (2, 2, 0.25), (2, 5, 1.5)]),
                block(n, n, &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 0.5), (2, 1, 0.5)]),
            ),
            (
                "some-empty-rows",
                block(n, 7, &[(0, 4, 1.0), (2, 0, 0.5), (2, 6, 2.0)]),
                block(n, n, &[(0, 2, 1.0), (2, 0, 1.0)]),
            ),
            ("edge-free", Csr::empty(n, 7), Csr::empty(n, n)),
        ];
        let deg = BaseDegrees::of(&base);
        let mut rng = MatRng::seed_from(12);
        let x_base = rng.normal(7, 4, 0.0, 1.0);
        let x_new = rng.normal(n, 4, 0.0, 1.0);
        let stacked = x_base.vstack(&x_new);
        for kind in GnnKind::ALL {
            let model = GnnModel::new(kind, 4, 6, 3, 5);
            for (case, inc, inter) in &cases {
                let ops = GraphOps::extended_with(&base, inc, inter, &deg);
                for threads in [1usize, 4] {
                    mcond_par::with_thread_limit(threads, || {
                        let full = model.predict(&ops, &stacked);
                        let split = model.predict_split(&ops, &x_base, &x_new);
                        assert_eq!(
                            split.as_slice(),
                            full.slice_rows(7, 7 + n).as_slice(),
                            "{} {case} t{threads}",
                            kind.name()
                        );
                    });
                }
            }
        }
    }

    #[test]
    fn out_dim_reports_class_count_for_every_architecture() {
        for kind in GnnKind::ALL {
            let model = GnnModel::new(kind, 4, 8, 3, 7);
            assert_eq!(model.out_dim(), 3, "{}", kind.name());
        }
    }

    #[test]
    fn tape_forward_matches_predict() {
        let adj = ring(5);
        let ops = GraphOps::from_adj(&adj);
        let x = MatRng::seed_from(2).normal(5, 3, 0.0, 1.0);
        for kind in GnnKind::ALL {
            let model = GnnModel::new(kind, 3, 6, 2, 11);
            let mut tape = Tape::new();
            let ps = model.tape_params(&mut tape);
            let xv = tape.constant(x.clone());
            let out_var = model.forward(&mut tape, &ps, &ops, xv);
            let tape_out = tape.value(out_var).clone();
            let direct = model.predict(&ops, &x);
            for (a, b) in tape_out.as_slice().iter().zip(direct.as_slice()) {
                assert!(
                    mcond_linalg::approx_eq(*a, *b, 1e-4),
                    "{}: {a} vs {b}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn graph_ops_mean_rows_are_stochastic() {
        let adj = ring(4);
        let ops = GraphOps::from_adj(&adj);
        let mean = ops.mean.csr();
        for i in 0..4 {
            let s: f32 = mean.row_vals(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        let _ = StdArc::strong_count(&mean);
    }

    #[test]
    fn sgc_is_linear_in_features() {
        // predict(x1 + x2) == predict(x1) + predict(x2) - bias (affine map).
        let adj = ring(4);
        let ops = GraphOps::from_adj(&adj);
        let model = GnnModel::new(GnnKind::Sgc, 3, 0, 2, 3);
        let mut rng = MatRng::seed_from(4);
        let x1 = rng.normal(4, 3, 0.0, 1.0);
        let x2 = rng.normal(4, 3, 0.0, 1.0);
        let lhs = model.predict(&ops, &x1.add(&x2));
        let bias_mat = {
            let zero = DMat::zeros(4, 3);
            model.predict(&ops, &zero)
        };
        let rhs = model.predict(&ops, &x1).add(&model.predict(&ops, &x2)).sub(&bias_mat);
        for (a, b) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            assert!(mcond_linalg::approx_eq(*a, *b, 1e-3), "{a} vs {b}");
        }
    }

    #[test]
    fn appnp_teleport_keeps_h0_influence() {
        // With alpha = 1 propagation is the identity on H0.
        let adj = ring(4);
        let ops = GraphOps::from_adj(&adj);
        let mut model = GnnModel::new(GnnKind::Appnp, 3, 5, 2, 5);
        model.alpha = 1.0;
        let x = MatRng::seed_from(6).normal(4, 3, 0.0, 1.0);
        let out = model.predict(&ops, &x);
        // alpha=1 => z = teleport + 0: equals H0 regardless of hops.
        model.hops = 7;
        let out2 = model.predict(&ops, &x);
        for (a, b) in out.as_slice().iter().zip(out2.as_slice()) {
            assert!(mcond_linalg::approx_eq(*a, *b, 1e-4));
        }
    }
}
