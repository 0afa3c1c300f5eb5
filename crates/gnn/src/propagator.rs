//! Sparse propagation operators.
//!
//! GNN layers only ever *multiply* by the (normalised) adjacency, so the
//! operator does not need to be materialised. [`Propagator`] is either a
//! materialised CSR matrix or a **lazily extended block operator**
//!
//! ```text
//! [[ base, incᵀ ],
//!  [ inc,  inter ]]
//! ```
//!
//! with normalisation applied on the fly. The lazy form makes per-batch
//! inductive inference O(nnz(inc) + nnz(inter) + n·d) instead of copying
//! the entire base graph into a new CSR per batch (Eq. 3/11 deployments
//! re-attach a fresh batch to the same base graph every call).
//!
//! # Split-operator serving
//!
//! The extended operator additionally exposes the product in **split form**
//! ([`Propagator::spmm_split`], [`Propagator::spmm_bottom`]): the caller
//! passes base-side and new-side activations as two separate matrices and
//! never vstacks them. Because every dense step of a GNN layer is
//! row-independent and the extension's raw product is already computed
//! block-wise, the split form is **bitwise identical** to slicing the
//! vstacked product — at any thread count (the kernels' determinism
//! contract). [`spmm_bottom`](Propagator::spmm_bottom) computes only the
//! `n` inductive output rows, which lets the final layer of a served
//! forward pass cost `n×C` instead of `(N'+n)×C`.
//!
//! The base graph's degree sums never change between requests;
//! [`BaseDegrees`] captures them once so per-request normalisation only
//! folds in the incremental/interconnect mass.
//!
//! # SIMD levels
//!
//! Propagation is built entirely on the SpMM kernels, which are **bitwise
//! identical at every `MCOND_SIMD` level** (lane-widened multiply-then-add,
//! same order — see `mcond_sparse`'s module docs). Served logits therefore
//! only depend on the SIMD level through the *dense* head matmuls, whose
//! FMA tiers regroup additions; a deployment that must reproduce archived
//! logits exactly pins `MCOND_SIMD` rather than the propagation path.

use mcond_linalg::DMat;
use mcond_sparse::Csr;
use std::sync::Arc;

/// Per-node weighted degree sums of a fixed base graph, computed once and
/// shared across every request served against that graph.
///
/// `sym` includes the GCN self-loop (`1 + Σ_j w_ij`), `mean` does not
/// (`Σ_j w_ij`). [`Propagator::extended_sym`] / [`Propagator::extended_mean`]
/// take them from the caller and fold in only a request's mass, in the
/// order a from-scratch pass over the extended matrix would add it.
#[derive(Clone)]
pub struct BaseDegrees {
    /// `1 + row mass` per base node (symmetric kernel, self-loop included).
    pub sym: Vec<f32>,
    /// `row mass` per base node (mean kernel, no self-loop).
    pub mean: Vec<f32>,
}

impl BaseDegrees {
    /// Accumulates both degree vectors in one pass over `base`.
    #[must_use]
    pub fn of(base: &Csr) -> Self {
        let n = base.rows();
        let mut sym = vec![1.0f32; n];
        let mut mean = vec![0.0f32; n];
        for (i, _, v) in base.iter() {
            sym[i] += v;
            mean[i] += v;
        }
        Self { sym, mean }
    }

    /// Folds a promotion's edge mass into the degree sums **in place**,
    /// in `O(nnz(attach) + nnz(inter))` instead of re-summing the whole
    /// base: `attach` is the `n x N` bottom-left block being appended to
    /// the base (its mirror extends the old rows) and `inter` the `n x n`
    /// block among the appended nodes.
    ///
    /// Because `Csr::block_extend` appends the mirrored columns *after*
    /// each old row's existing entries and the new rows' entries in
    /// `attach`-then-`inter` slice order, this accumulation visits values
    /// in exactly the order [`BaseDegrees::of`] would on the extended
    /// matrix — the update is **bitwise identical** to a from-scratch
    /// recompute.
    ///
    /// # Panics
    /// Panics when the block shapes disagree with the current base size.
    pub fn extend_for_promotion(&mut self, attach: &Csr, inter: &Csr) {
        let n_old = self.sym.len();
        assert_eq!(attach.cols(), n_old, "extend_for_promotion: attach columns");
        assert_eq!(inter.rows(), attach.rows(), "extend_for_promotion: inter rows");
        assert_eq!(inter.cols(), attach.rows(), "extend_for_promotion: inter must be square");
        // Old rows: the mirrored top-right entries, visited in the same
        // (ascending new-row) order block_extend appends their columns.
        for (_, j, v) in attach.iter() {
            self.sym[j] += v;
            self.mean[j] += v;
        }
        // New rows: attach mass first, then interconnect mass.
        for i in 0..attach.rows() {
            let mut s = 1.0f32;
            let mut m = 0.0f32;
            for &v in attach.row_vals(i) {
                s += v;
                m += v;
            }
            for &v in inter.row_vals(i) {
                s += v;
                m += v;
            }
            self.sym.push(s);
            self.mean.push(m);
        }
    }
}

/// The lazy extension payload: borrowed base graph + incremental blocks +
/// precomputed normalisation vectors, split base-side / new-side.
///
/// Borrowing (instead of owning `Arc`s) is what makes the serving fast
/// path zero-copy: a request's `inc`/`inter` blocks are used in place and
/// the base graph is shared by reference for the lifetime of the forward
/// pass.
pub struct Extension<'a> {
    base: &'a Csr,
    inc: &'a Csr,
    inter: &'a Csr,
    /// Per-node scale for base rows: `1/sqrt(d̃)` (symmetric kernel,
    /// applied before and after the raw product) or `1/d` (mean kernel,
    /// applied after). Length `base.rows()`.
    scale_base: Vec<f32>,
    /// Same, for the new (inductive) rows. Length `inc.rows()`.
    scale_new: Vec<f32>,
    /// Whether a self-loop term (`+ x_i`) is part of the raw product
    /// (symmetric GCN kernel) or not (mean kernel).
    self_loop: bool,
}

impl Extension<'_> {
    /// Raw block product `Ã_ext · [x_base; x_new]` (plus self-loops when
    /// configured), returned without vstacking the two halves.
    fn raw_split(&self, x_base: &DMat, x_new: &DMat) -> (DMat, DMat) {
        // Top block: base·x_base + incᵀ·x_new (+ x_base).
        let mut top = self.base.spmm(x_base);
        top.add_assign(&self.inc.spmm_t(x_new));
        // Bottom block: inc·x_base + inter·x_new (+ x_new).
        let bottom = self.raw_bottom(x_base, x_new);
        if self.self_loop {
            top.add_assign(x_base);
        }
        (top, bottom)
    }

    /// Bottom block only: `inc·x_base + inter·x_new (+ x_new)`.
    fn raw_bottom(&self, x_base: &DMat, x_new: &DMat) -> DMat {
        let mut bottom = self.inc.spmm(x_base);
        bottom.add_assign(&self.inter.spmm(x_new));
        if self.self_loop {
            bottom.add_assign(x_new);
        }
        bottom
    }
}

/// A multiply-only view of a (normalised) adjacency.
pub enum Propagator<'a> {
    /// Materialised sparse matrix.
    Matrix(Arc<Csr>),
    /// Lazily extended block operator (symmetric kernel:
    /// `D̃^{-1/2} Ã_ext D̃^{-1/2}`; mean kernel: `D^{-1} A_ext`).
    Extended(Box<Extension<'a>>),
}

impl<'a> Propagator<'a> {
    /// Number of rows (= columns) of the square operator.
    #[must_use]
    pub fn rows(&self) -> usize {
        match self {
            Propagator::Matrix(m) => m.rows(),
            Propagator::Extended(e) => e.base.rows() + e.inc.rows(),
        }
    }

    /// `self · x`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn spmm(&self, x: &DMat) -> DMat {
        match self {
            Propagator::Matrix(m) => m.spmm(x),
            Propagator::Extended(e) => {
                assert_eq!(x.rows(), self.rows(), "Propagator::spmm: row mismatch");
                let n_base = e.base.rows();
                let x_base = x.slice_rows(0, n_base);
                let x_new = x.slice_rows(n_base, x.rows());
                let (top, bottom) = self.spmm_split(&x_base, &x_new);
                top.vstack(&bottom)
            }
        }
    }

    /// Split product `self · [x_base; x_new]`, returned as the
    /// `(top, bottom)` halves without ever vstacking the input.
    ///
    /// Bitwise identical to `self.spmm(&x_base.vstack(x_new))` split back
    /// into its two row blocks, at any thread count.
    ///
    /// # Panics
    /// Panics on dimension mismatch (`x_base` must carry exactly the base
    /// rows and `x_new` the new rows) and for materialised operators.
    #[must_use]
    pub fn spmm_split(&self, x_base: &DMat, x_new: &DMat) -> (DMat, DMat) {
        let e = self.extension();
        check_split_input(e, x_base, x_new);
        if e.self_loop {
            // Symmetric kernel: scale, raw product, scale.
            let xbs = x_base.scale_rows(&e.scale_base);
            let xns = x_new.scale_rows(&e.scale_new);
            let (mut top, mut bottom) = e.raw_split(&xbs, &xns);
            top.scale_rows_assign(&e.scale_base);
            bottom.scale_rows_assign(&e.scale_new);
            (top, bottom)
        } else {
            // Mean kernel: raw product, then reciprocal-degree scale.
            let (mut top, mut bottom) = e.raw_split(x_base, x_new);
            top.scale_rows_assign(&e.scale_base);
            bottom.scale_rows_assign(&e.scale_new);
            (top, bottom)
        }
    }

    /// Bottom rows only of the split product: the `n` inductive output
    /// rows of `self · [x_base; x_new]`, skipping the `N'` base output
    /// rows entirely.
    ///
    /// Bitwise identical to `self.spmm_split(x_base, x_new).1`.
    ///
    /// # Panics
    /// Panics on dimension mismatch and for materialised operators.
    #[must_use]
    pub fn spmm_bottom(&self, x_base: &DMat, x_new: &DMat) -> DMat {
        let e = self.extension();
        check_split_input(e, x_base, x_new);
        let mut bottom = if e.self_loop {
            let xbs = x_base.scale_rows(&e.scale_base);
            let xns = x_new.scale_rows(&e.scale_new);
            e.raw_bottom(&xbs, &xns)
        } else {
            e.raw_bottom(x_base, x_new)
        };
        bottom.scale_rows_assign(&e.scale_new);
        bottom
    }

    /// The block payload behind the split forms.
    ///
    /// # Panics
    /// Panics for materialised operators: a stacked matrix has no
    /// base/new halves, and serving only ever builds extended operators.
    fn extension(&self) -> &Extension<'a> {
        match self {
            Propagator::Extended(e) => e,
            Propagator::Matrix(_) => panic!(
                "Propagator: the split forms need an extended operator; \
                 a materialised matrix multiplies the stacked input with spmm"
            ),
        }
    }

    /// The materialised CSR handle, for recording `Tape::spmm` ops during
    /// training.
    ///
    /// # Panics
    /// Panics for extended operators — materialise the extension first
    /// (training always runs on a fixed graph; the lazy form is an
    /// inference-serving optimisation).
    #[must_use]
    pub fn csr(&self) -> Arc<Csr> {
        match self {
            Propagator::Matrix(m) => Arc::clone(m),
            Propagator::Extended(_) => panic!(
                "Propagator::csr: extended operators cannot be recorded on a tape; \
                 materialise the extended graph for training"
            ),
        }
    }

    /// Builds the **symmetric GCN kernel** of the extended graph without
    /// materialising it: `D̃^{-1/2}(Ã_ext)D̃^{-1/2}` with self-loops, where
    /// the extension is `[[base, incᵀ], [inc, inter]]`. `deg` is the base
    /// graph's [`BaseDegrees::of`], computed once per server instead of
    /// once per request.
    ///
    /// # Panics
    /// Panics on inconsistent block shapes or a `deg` of the wrong length.
    #[must_use]
    pub fn extended_sym(base: &'a Csr, inc: &'a Csr, inter: &'a Csr, deg: &BaseDegrees) -> Self {
        check_blocks(base, inc, inter);
        assert_eq!(deg.sym.len(), base.rows(), "extended_sym: degree length mismatch");
        // Degrees of Ã_ext (self-loop included): base sums are shared, the
        // request only folds in its incremental/interconnect mass — in the
        // same order the from-scratch accumulation would.
        let mut deg_base = deg.sym.clone();
        let deg_new = fold_request_mass(inc, inter, &mut deg_base, 1.0);
        let inv_sqrt = |d: &f32| if *d > 0.0 { 1.0 / d.sqrt() } else { 0.0 };
        Propagator::Extended(Box::new(Extension {
            base,
            inc,
            inter,
            scale_base: deg_base.iter().map(inv_sqrt).collect(),
            scale_new: deg_new.iter().map(inv_sqrt).collect(),
            self_loop: true,
        }))
    }

    /// Builds the **mean (row-stochastic) kernel** of the extended graph:
    /// `D^{-1} A_ext`, no self-loops, over the base's shared `deg`.
    ///
    /// # Panics
    /// Panics on inconsistent block shapes or a `deg` of the wrong length.
    #[must_use]
    pub fn extended_mean(base: &'a Csr, inc: &'a Csr, inter: &'a Csr, deg: &BaseDegrees) -> Self {
        check_blocks(base, inc, inter);
        assert_eq!(deg.mean.len(), base.rows(), "extended_mean: degree length mismatch");
        let mut deg_base = deg.mean.clone();
        let deg_new = fold_request_mass(inc, inter, &mut deg_base, 0.0);
        let inv = |d: &f32| if *d > 0.0 { 1.0 / d } else { 0.0 };
        Propagator::Extended(Box::new(Extension {
            base,
            inc,
            inter,
            scale_base: deg_base.iter().map(inv).collect(),
            scale_new: deg_new.iter().map(inv).collect(),
            self_loop: false,
        }))
    }
}

/// Folds a request's edge mass into degree sums: every `inc` entry into
/// its new row and, mirrored, into the base row it names; every `inter`
/// entry into its new row. Returns the new rows' sums, each starting at
/// `self_mass`. Walks rows in order, a row's `inc` entries before its
/// `inter` entries, so every sum adds its terms in the order a
/// from-scratch pass over the extended matrix would.
fn fold_request_mass(inc: &Csr, inter: &Csr, deg_base: &mut [f32], self_mass: f32) -> Vec<f32> {
    (0..inc.rows())
        .map(|i| {
            let mut d = self_mass;
            for (&j, &v) in inc.row_cols(i).iter().zip(inc.row_vals(i)) {
                d += v; // row of the bottom-left block
                deg_base[j as usize] += v; // mirrored into the top-right block
            }
            for &v in inter.row_vals(i) {
                d += v;
            }
            d
        })
        .collect()
}

fn check_blocks(base: &Csr, inc: &Csr, inter: &Csr) {
    assert_eq!(base.rows(), base.cols(), "extended: base must be square");
    assert_eq!(inc.cols(), base.rows(), "extended: inc columns must index the base");
    assert_eq!(inter.rows(), inc.rows(), "extended: inter rows");
    assert_eq!(inter.cols(), inc.rows(), "extended: inter must be square");
}

fn check_split_input(e: &Extension<'_>, x_base: &DMat, x_new: &DMat) {
    assert_eq!(x_base.rows(), e.base.rows(), "spmm_split: base row mismatch");
    assert_eq!(x_new.rows(), e.inc.rows(), "spmm_split: new row mismatch");
    assert_eq!(x_base.cols(), x_new.cols(), "spmm_split: column mismatch");
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcond_linalg::{approx_eq, MatRng};
    use mcond_sparse::{row_normalize_dense, sym_normalize, Coo};

    /// base: ring of 4; two new nodes, node 0' -> base 1 (w 2.0),
    /// node 1' -> base 3 (w 1.0); new nodes connected to each other.
    fn blocks() -> (Csr, Csr, Csr) {
        let mut base = Coo::new(4, 4);
        for i in 0..4 {
            base.push_sym(i, (i + 1) % 4, 1.0);
        }
        let mut inc = Coo::new(2, 4);
        inc.push(0, 1, 2.0);
        inc.push(1, 3, 1.0);
        let mut inter = Coo::new(2, 2);
        inter.push_sym(0, 1, 1.0);
        (base.to_csr(), inc.to_csr(), inter.to_csr())
    }

    fn materialised(base: &Csr, inc: &Csr, inter: &Csr) -> Csr {
        base.block_extend(inc, inter)
    }

    #[test]
    fn extended_sym_matches_materialised_normalisation() {
        let (base, inc, inter) = blocks();
        let lazy = Propagator::extended_sym(&base, &inc, &inter, &BaseDegrees::of(&base));
        let dense = sym_normalize(&materialised(&base, &inc, &inter));
        let x = MatRng::seed_from(1).normal(6, 3, 0.0, 1.0);
        let a = lazy.spmm(&x);
        let b = dense.spmm(&x);
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            assert!(approx_eq(*u, *v, 1e-4), "{u} vs {v}");
        }
    }

    #[test]
    fn extended_mean_matches_materialised_normalisation() {
        let (base, inc, inter) = blocks();
        let lazy = Propagator::extended_mean(&base, &inc, &inter, &BaseDegrees::of(&base));
        let dense_raw = materialised(&base, &inc, &inter).to_dense();
        let dense = row_normalize_dense(&dense_raw);
        let x = MatRng::seed_from(2).normal(6, 3, 0.0, 1.0);
        let a = lazy.spmm(&x);
        let b = dense.matmul(&x);
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            assert!(approx_eq(*u, *v, 1e-4), "{u} vs {v}");
        }
    }

    /// The split/bottom forms must reproduce the vstacked product bitwise,
    /// for both extended kernels, at 1 and 4 threads.
    #[test]
    fn split_and_bottom_match_full_product_bitwise() {
        let (base, inc, inter) = blocks();
        let x = MatRng::seed_from(9).normal(6, 5, 0.0, 1.0);
        let xb = x.slice_rows(0, 4);
        let xn = x.slice_rows(4, 6);
        let deg = BaseDegrees::of(&base);
        for threads in [1usize, 4] {
            mcond_par::with_thread_limit(threads, || {
                for p in [
                    Propagator::extended_sym(&base, &inc, &inter, &deg),
                    Propagator::extended_mean(&base, &inc, &inter, &deg),
                ] {
                    let full = p.spmm(&x);
                    let (top, bottom) = p.spmm_split(&xb, &xn);
                    assert_eq!(top.as_slice(), full.slice_rows(0, 4).as_slice());
                    assert_eq!(bottom.as_slice(), full.slice_rows(4, 6).as_slice());
                    assert_eq!(p.spmm_bottom(&xb, &xn).as_slice(), bottom.as_slice());
                }
            });
        }
    }

    /// Two stacked promotions folded in incrementally must agree
    /// **bitwise** with a from-scratch accumulation over the final
    /// extended matrix.
    #[test]
    fn incremental_degrees_match_from_scratch_bitwise() {
        let (base, inc, inter) = blocks();
        let mut deg = BaseDegrees::of(&base);
        deg.extend_for_promotion(&inc, &inter);
        let grown = base.block_extend(&inc, &inter);
        // Second wave: one node attached to old row 1 and promoted row 4.
        let mut inc2 = Coo::new(1, 6);
        inc2.push(0, 1, 0.5);
        inc2.push(0, 4, 1.5);
        let inc2 = inc2.to_csr();
        let inter2 = Csr::empty(1, 1);
        deg.extend_for_promotion(&inc2, &inter2);
        let full = BaseDegrees::of(&grown.block_extend(&inc2, &inter2));
        assert_eq!(deg.sym, full.sym);
        assert_eq!(deg.mean, full.mean);
    }

    #[test]
    fn empty_extension_reduces_to_base_kernel() {
        let (base, _, _) = blocks();
        let inc = Csr::empty(0, 4);
        let inter = Csr::empty(0, 0);
        let lazy = Propagator::extended_sym(&base, &inc, &inter, &BaseDegrees::of(&base));
        let direct = sym_normalize(&base);
        let x = MatRng::seed_from(3).normal(4, 2, 0.0, 1.0);
        let a = lazy.spmm(&x);
        let b = direct.spmm(&x);
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            assert!(approx_eq(*u, *v, 1e-4));
        }
    }

    #[test]
    fn matrix_variant_delegates() {
        let (base, _, _) = blocks();
        let norm = Arc::new(sym_normalize(&base));
        let p = Propagator::Matrix(Arc::clone(&norm));
        let x = MatRng::seed_from(4).normal(4, 2, 0.0, 1.0);
        assert_eq!(p.spmm(&x), norm.spmm(&x));
        assert_eq!(p.rows(), 4);
        assert!(Arc::ptr_eq(&p.csr(), &norm));
    }

    #[test]
    #[should_panic(expected = "need an extended operator")]
    fn materialised_split_panics() {
        let (base, _, _) = blocks();
        let p = Propagator::Matrix(Arc::new(sym_normalize(&base)));
        let _ = p.spmm_bottom(&DMat::zeros(3, 1), &DMat::zeros(1, 1));
    }

    #[test]
    #[should_panic(expected = "cannot be recorded on a tape")]
    fn extended_csr_handle_panics() {
        let (base, inc, inter) = blocks();
        let lazy = Propagator::extended_sym(&base, &inc, &inter, &BaseDegrees::of(&base));
        let _ = lazy.csr();
    }
}
