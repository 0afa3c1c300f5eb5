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
//! The hop — scale, raw block product, scale — is written once, over the
//! block products it is made of. [`Propagator`] serves with its matrix
//! instance; [`TapeExtension`] records it on a tape with a trainable `inc`,
//! so condensation's `L_ind` (Eq. 11–12) trains through the served operator.
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

use mcond_autodiff::{Tape, Var};
use mcond_linalg::DMat;
use mcond_sparse::Csr;
use std::borrow::Cow;
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
        check_blocks((n_old, n_old), (attach.rows(), attach.cols()), inter);
        // Old rows take the mirrored top-right entries in ascending new-row
        // order, as block_extend appends their columns; new rows their
        // attach mass, then their interconnect mass: a request's fold.
        let sym = fold_request_mass(attach, inter, &mut self.sym, 1.0);
        let mean = fold_request_mass(attach, inter, &mut self.mean, 0.0);
        self.sym.extend(sym);
        self.mean.extend(mean);
    }
}

/// The lazy extension payload: borrowed base graph + incremental blocks +
/// precomputed normalisation vectors, split base-side / new-side. The
/// matrix instance of the one hop.
///
/// Borrowing (instead of owning `Arc`s) is what makes the serving fast
/// path zero-copy: a request's `inc`/`inter` blocks are used in place and
/// the base graph is shared by reference for the lifetime of the forward
/// pass.
pub struct Extension<'a> {
    base: &'a Csr,
    inc: &'a Csr,
    inter: &'a Csr,
    /// Per-node scales of the base rows and of the new (inductive) rows:
    /// `1/sqrt(d̃)` (symmetric kernel, applied before and after the raw
    /// product) or `1/d` (mean kernel, applied after).
    scales: [Vec<f32>; 2],
    /// Whether a self-loop term (`+ x_i`) is part of the raw product
    /// (symmetric GCN kernel) or not (mean kernel).
    self_loop: bool,
}

/// The extended operator's base rows (or columns) and new ones.
#[derive(Clone, Copy)]
enum Half {
    Base,
    New,
}

/// What one hop of the extended operator is made of, over values `M`:
/// [`hop`] is written once against it, and [`Extension`] (matrices, served)
/// and [`TapeExtension`] (tape values) are its instances.
trait BlockOps {
    type M: Clone;
    /// Symmetric kernel (self-loops, `D̃^{-1/2}` before and after the raw
    /// product), else the mean kernel (`D^{-1}` after it).
    fn symmetric(&self) -> bool;
    /// The `(rows, cols)` block times `y`: `base`, `incᵀ`, `inc`, `inter`.
    fn mul(&mut self, rows: Half, cols: Half, y: &Self::M) -> Self::M;
    /// `acc + y`.
    fn add(&mut self, acc: Self::M, y: &Self::M) -> Self::M;
    /// `y`'s rows times `half`'s scales.
    fn scale(&mut self, half: Half, y: Cow<'_, Self::M>) -> Self::M;
}

impl BlockOps for &Extension<'_> {
    type M = DMat;
    fn symmetric(&self) -> bool {
        self.self_loop
    }
    fn mul(&mut self, rows: Half, cols: Half, y: &DMat) -> DMat {
        match (rows, cols) {
            (Half::Base, Half::Base) => self.base.spmm(y),
            (Half::Base, Half::New) => self.inc.spmm_t(y),
            (Half::New, Half::Base) => self.inc.spmm(y),
            (Half::New, Half::New) => self.inter.spmm(y),
        }
    }
    fn add(&mut self, mut acc: DMat, y: &DMat) -> DMat {
        acc.add_assign(y);
        acc
    }
    fn scale(&mut self, half: Half, y: Cow<'_, DMat>) -> DMat {
        let scales = &self.scales[half as usize];
        // An input is scaled into a copy, the hop's own product in place.
        match y {
            Cow::Borrowed(y) => y.scale_rows(scales),
            Cow::Owned(mut y) => {
                y.scale_rows_assign(scales);
                y
            }
        }
    }
}

/// One hop — scale (symmetric kernel), raw block product, scale — giving
/// the new rows, and the base rows too when `top`.
fn hop<B: BlockOps>(b: &mut B, x_base: &B::M, x_new: &B::M, top: bool) -> (Option<B::M>, B::M) {
    let scaled = b.symmetric().then(|| {
        (b.scale(Half::Base, Cow::Borrowed(x_base)), b.scale(Half::New, Cow::Borrowed(x_new)))
    });
    let (xb, xn) = scaled.as_ref().map_or((x_base, x_new), |(xb, xn)| (xb, xn));
    let top = top.then(|| raw(b, Half::Base, xb, xn));
    let bottom = raw(b, Half::New, xb, xn);
    (top.map(|t| b.scale(Half::Base, Cow::Owned(t))), b.scale(Half::New, Cow::Owned(bottom)))
}

/// One half of the raw block product: `base·x_base + incᵀ·x_new` for the
/// base rows, `inc·x_base + inter·x_new` for the new rows, plus the half's
/// own input under the symmetric kernel's self-loop.
fn raw<B: BlockOps>(b: &mut B, half: Half, x_base: &B::M, x_new: &B::M) -> B::M {
    let acc = b.mul(half, Half::Base, x_base);
    let rest = b.mul(half, Half::New, x_new);
    let acc = b.add(acc, &rest);
    match (b.symmetric(), half) {
        (false, _) => acc,
        (true, Half::Base) => b.add(acc, x_base),
        (true, Half::New) => b.add(acc, x_new),
    }
}

/// New rows after `hops` hops: full hops, then a last one of new rows only.
fn bottom_after<B: BlockOps>(b: &mut B, hops: usize, x_base: &B::M, x_new: &B::M) -> B::M {
    match hops {
        0 => x_new.clone(),
        1 => hop(b, x_base, x_new, false).1,
        _ => {
            let (top, bottom) = hop(b, x_base, x_new, true);
            bottom_after(b, hops - 1, &top.expect("a full hop has base rows"), &bottom)
        }
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
        let mut e = self.extension(x_base, x_new);
        let (top, bottom) = hop(&mut e, x_base, x_new, true);
        (top.expect("a full hop has base rows"), bottom)
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
        let mut e = self.extension(x_base, x_new);
        hop(&mut e, x_base, x_new, false).1
    }

    /// The new rows of `selfᴸ · [x_base; x_new]`, `L = hops`: `L − 1`
    /// split hops, then a bottom one (`x_new` itself when `hops == 0`).
    ///
    /// # Panics
    /// Panics on dimension mismatch and for materialised operators.
    #[must_use]
    pub fn spmm_bottom_pow(&self, hops: usize, x_base: &DMat, x_new: &DMat) -> DMat {
        let mut e = self.extension(x_base, x_new);
        bottom_after(&mut e, hops, x_base, x_new)
    }

    /// The block payload behind the split forms, checked against their
    /// inputs (`x_base` carries exactly the base rows, `x_new` the new
    /// rows, both as wide).
    ///
    /// # Panics
    /// Panics on dimension mismatch, and for materialised operators: a
    /// stacked matrix has no base/new halves, and serving only ever builds
    /// extended operators.
    fn extension(&self, x_base: &DMat, x_new: &DMat) -> &Extension<'a> {
        let Propagator::Extended(e) = self else {
            panic!(
                "Propagator: the split forms need an extended operator; \
                 a materialised matrix multiplies the stacked input with spmm"
            )
        };
        assert_eq!(x_base.rows(), e.base.rows(), "spmm_split: base row mismatch");
        assert_eq!(x_new.rows(), e.inc.rows(), "spmm_split: new row mismatch");
        assert_eq!(x_base.cols(), x_new.cols(), "spmm_split: column mismatch");
        e
    }

    /// The materialised CSR handle, for recording `Tape::spmm` ops during
    /// training.
    ///
    /// # Panics
    /// Panics for extended operators: record their hops with
    /// [`TapeExtension`] instead, or materialise the extension.
    #[must_use]
    pub fn csr(&self) -> Arc<Csr> {
        match self {
            Propagator::Matrix(m) => Arc::clone(m),
            Propagator::Extended(_) => panic!(
                "Propagator::csr: extended operators cannot be recorded on a tape; \
                 record their hops with TapeExtension or materialise the extended graph"
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
        assert_eq!(deg.sym.len(), base.rows(), "extended_sym: degree length mismatch");
        Self::extended(base, inc, inter, deg.sym.clone(), true)
    }

    /// Builds the **mean (row-stochastic) kernel** of the extended graph:
    /// `D^{-1} A_ext`, no self-loops, over the base's shared `deg`.
    ///
    /// # Panics
    /// Panics on inconsistent block shapes or a `deg` of the wrong length.
    #[must_use]
    pub fn extended_mean(base: &'a Csr, inc: &'a Csr, inter: &'a Csr, deg: &BaseDegrees) -> Self {
        assert_eq!(deg.mean.len(), base.rows(), "extended_mean: degree length mismatch");
        Self::extended(base, inc, inter, deg.mean.clone(), false)
    }

    /// The base's shared degree sums `deg` plus the request's mass (and a
    /// self-loop when `sym`), folded in a from-scratch pass's order; a row
    /// of degree `d > 0` scales by `1/sqrt(d)` (`sym`) or `1/d`, else by 0.
    fn extended(base: &'a Csr, inc: &'a Csr, inter: &'a Csr, deg: Vec<f32>, sym: bool) -> Self {
        check_blocks((base.rows(), base.cols()), (inc.rows(), inc.cols()), inter);
        let mut deg_base = deg;
        let deg_new = fold_request_mass(inc, inter, &mut deg_base, if sym { 1.0 } else { 0.0 });
        let inv = |d: f32| if d > 0.0 { if sym { 1.0 / d.sqrt() } else { 1.0 / d } } else { 0.0 };
        let scales = [deg_base, deg_new].map(|deg| deg.into_iter().map(inv).collect());
        Propagator::Extended(Box::new(Extension { base, inc, inter, scales, self_loop: sym }))
    }
}

/// The symmetric kernel of `[[base, incᵀ], [inc, inter]]` on a tape, `inc`
/// a [`Var`] (condensation's `S = a·M̂`): the tape instance of the hop.
/// Each degree is a constant half ([`BaseDegrees::of`] `base`, `inter`)
/// plus `inc`'s mass on the tape, so gradient flows through it too; the
/// grouping differs from [`Propagator::extended_sym`]'s (equal to rounding).
pub struct TapeExtension<'t> {
    tape: &'t mut Tape,
    base: Arc<Csr>,
    inter: Arc<Csr>,
    inc: Var,
    inc_t: Var,
    /// `D̃^{-1/2}` of the base rows and of the new rows, as columns.
    scales: [Var; 2],
}

impl<'t> TapeExtension<'t> {
    /// Records the degree scalings on `tape`; `deg` is `base`'s
    /// [`BaseDegrees::of`].
    ///
    /// # Panics
    /// Panics on inconsistent block shapes or a `deg` of the wrong length.
    pub fn sym(
        tape: &'t mut Tape,
        base: Arc<Csr>,
        inc: Var,
        inter: Arc<Csr>,
        deg: &BaseDegrees,
    ) -> Self {
        check_blocks((base.rows(), base.cols()), tape.value(inc).shape(), &inter);
        assert_eq!(deg.sym.len(), base.rows(), "extended_sym: degree length mismatch");
        let inc_t = tape.transpose(inc);
        let scales = [
            inv_sqrt_degree(tape, deg.sym.clone(), inc_t),
            inv_sqrt_degree(tape, BaseDegrees::of(&inter).sym, inc),
        ];
        Self { tape, base, inter, inc, inc_t, scales }
    }

    /// [`Propagator::spmm_bottom_pow`] on tape values.
    pub fn spmm_bottom_pow(&mut self, hops: usize, x_base: Var, x_new: Var) -> Var {
        bottom_after(self, hops, &x_base, &x_new)
    }
}

/// `(fixed + block·1)^{-1/2}`, a column: a degree's constant half plus
/// `block`'s row sums.
fn inv_sqrt_degree(tape: &mut Tape, fixed: Vec<f32>, block: Var) -> Var {
    let (rows, cols) = tape.value(block).shape();
    let fixed = tape.constant(DMat::from_vec(rows, 1, fixed));
    let ones = tape.constant(DMat::filled(cols, 1, 1.0));
    let moving = tape.matmul(block, ones);
    let deg = tape.add(fixed, moving);
    tape.inv_sqrt(deg)
}

impl BlockOps for TapeExtension<'_> {
    type M = Var;
    fn symmetric(&self) -> bool {
        true
    }
    fn mul(&mut self, rows: Half, cols: Half, y: &Var) -> Var {
        match (rows, cols) {
            (Half::Base, Half::Base) => self.tape.spmm(Arc::clone(&self.base), *y),
            (Half::Base, Half::New) => self.tape.matmul(self.inc_t, *y),
            (Half::New, Half::Base) => self.tape.matmul(self.inc, *y),
            (Half::New, Half::New) => self.tape.spmm(Arc::clone(&self.inter), *y),
        }
    }
    fn add(&mut self, acc: Var, y: &Var) -> Var {
        self.tape.add(acc, *y)
    }
    fn scale(&mut self, half: Half, y: Cow<'_, Var>) -> Var {
        self.tape.scale_rows(*y, self.scales[half as usize])
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

/// The shapes of `[[base, incᵀ], [inc, inter]]`'s blocks, `base`'s and
/// `inc`'s given as `(rows, cols)`.
fn check_blocks(base: (usize, usize), (inc_rows, inc_cols): (usize, usize), inter: &Csr) {
    assert_eq!(base.0, base.1, "extended: base must be square");
    assert_eq!(inc_cols, base.0, "extended: inc columns must index the base");
    assert_eq!(inter.rows(), inc_rows, "extended: inter rows");
    assert_eq!(inter.cols(), inc_rows, "extended: inter must be square");
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

    /// Condensation's `L_ind` target: the support rows of Eq. (3)'s
    /// two-hop propagation on the training graph, through the extended
    /// operator, against the assembled and normalised `(N + n)`-node graph
    /// that computed it before — on pubmed-small with a graph batch of
    /// validation nodes, so the interconnect is not empty.
    #[test]
    fn bottom_pow_matches_the_materialised_training_graph() {
        let data = mcond_graph::load_dataset("pubmed", mcond_graph::Scale::Small, 0).unwrap();
        let original = data.original_graph();
        let batch = data.batch(&data.val_idx[..data.val_idx.len().min(300)], true);
        assert!(batch.interconnect.nnz() > 0);
        let deg = BaseDegrees::of(&original.adj);
        let (inc, inter) = (&batch.incremental, &batch.interconnect);
        let lazy = Propagator::extended_sym(&original.adj, inc, inter, &deg);
        let got = lazy.spmm_bottom_pow(2, &original.features, &batch.features);
        let ext_hat = sym_normalize(&materialised(&original.adj, inc, inter));
        let n = original.num_nodes();
        let z = (0..2)
            .fold(original.features.vstack(&batch.features), |z, _| ext_hat.spmm(&z))
            .slice_rows(n, n + batch.len());
        assert_eq!(got.shape(), z.shape());
        let diff =
            got.as_slice().iter().zip(z.as_slice()).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max);
        assert!(diff <= 1e-5, "bottom_pow vs materialised graph: max |Δ| = {diff}");
        assert_eq!(lazy.spmm_bottom_pow(0, &original.features, &batch.features), batch.features);
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
