//! The five GNN architectures of the paper — each written once.
//!
//! [`GnnModel::run`] states every forward pass as seven ops over an
//! abstract value ([`Interp`]); it is the only place that says what a
//! layer *is*. Six evaluators supply what a value is and what `prop`
//! means, and run that one program: tape ([`GnnModel::forward`]), dense
//! ([`GnnModel::predict`]) and split ([`GnnModel::predict_split`]) here,
//! the cache's build and serve in `frozen.rs`, and the base prefix's
//! build in `prefix.rs`. `contract.rs` holds each to a hand-written
//! reference, bitwise.
//!
//! The program marks an architecture's last propagation [`Rows::Output`]:
//! nothing propagates after it, so only the rows logits were asked for
//! are read from its product. What that buys is up to the evaluator:
//! split computes `n` rows instead of `N' + n`, the cache builders (whose
//! graph has no output rows) skip the product, tape and dense ignore it.
//! A value no `prop` reaches has base rows that read only the base
//! features and the parameters: split takes them from a [`BasePrefix`]
//! instead of computing them per request. The five dense ops treat rows
//! independently, so the tape-free evaluators share one implementation of
//! them ([`Mats`]).

use crate::prefix::BasePrefix;
use crate::propagator::{BaseDegrees, Propagator};
use mcond_autodiff::{Tape, Var};
use mcond_linalg::{DMat, MatRng};
use mcond_sparse::{sym_normalize, Csr};
use std::borrow::Cow;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

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

/// Propagation operators for one graph.
///
/// `sym` is the GCN kernel `D̃^{-1/2}(A + I)D̃^{-1/2}`; `mean` the row-
/// stochastic `D^{-1}A` used by the SAGE mean aggregator. Either operator
/// may be a materialised matrix or a lazily extended block operator (see
/// [`Propagator`]); [`GnnModel::predict`] works with both, while training
/// requires materialised operators.
///
/// Materialised operators are built up front. Extended ones are built
/// the first time the layer program reads them, so a request pays only
/// for the kernel its architecture propagates with.
pub struct GraphOps<'a> {
    /// The extended graph's blocks, for the operators not built yet;
    /// `None` when both were materialised at construction.
    blocks: Option<Blocks<'a>>,
    /// Symmetric-normalised adjacency with self-loops.
    sym: OnceLock<Propagator<'a>>,
    /// Row-normalised adjacency (no self-loops).
    mean: OnceLock<Propagator<'a>>,
}

/// `[[base, incᵀ], [inc, inter]]` and the base's degree sums.
struct Blocks<'a> {
    base: &'a Csr,
    inc: &'a Csr,
    inter: &'a Csr,
    deg: &'a BaseDegrees,
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
        Self {
            blocks: None,
            sym: OnceLock::from(Propagator::Matrix(sym)),
            mean: OnceLock::from(Propagator::Matrix(Arc::new(dense_free))),
        }
    }
}

impl<'a> GraphOps<'a> {
    /// The operators of the extended graph `[[base, incᵀ], [inc, inter]]`,
    /// **never materialised** — per-batch inductive serving then costs
    /// O(nnz(inc) + nnz(inter) + n) instead of copying the base graph (see
    /// `mcond-core`'s `InductiveServer`). The blocks are borrowed, not
    /// cloned: a request's `inc`/`inter` are used in place, and `deg` is
    /// the base's [`BaseDegrees::of`], computed once per server.
    #[must_use]
    pub fn extended(base: &'a Csr, inc: &'a Csr, inter: &'a Csr, deg: &'a BaseDegrees) -> Self {
        Self {
            blocks: Some(Blocks { base, inc, inter, deg }),
            sym: OnceLock::new(),
            mean: OnceLock::new(),
        }
    }

    /// The operator behind `kernel`, built on first read.
    pub(crate) fn kernel(&self, kernel: Kernel) -> &Propagator<'a> {
        let (cell, build): (_, fn(_, _, _, &BaseDegrees) -> _) = match kernel {
            Kernel::Sym => (&self.sym, Propagator::extended_sym),
            Kernel::Mean => (&self.mean, Propagator::extended_mean),
        };
        cell.get_or_init(|| {
            let b = self.blocks.as_ref().expect("materialised operators are built up front");
            build(b.base, b.inc, b.inter, b.deg)
        })
    }

    /// Which operators have been built, `(sym, mean)`.
    #[cfg(test)]
    pub(crate) fn built(&self) -> (bool, bool) {
        (self.sym.get().is_some(), self.mean.get().is_some())
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

    /// Input feature width `d` the model reads: every architecture's
    /// parameter list starts with a `d x ·` input weight.
    #[must_use]
    pub fn in_dim(&self) -> usize {
        self.params.first().map_or(0, DMat::rows)
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

    /// The forward pass of every architecture, with `p` the parameter
    /// list in [`GnnModel::new`]'s layout. Ops are issued in the order the
    /// training tape has always recorded them.
    pub(crate) fn run<I: Interp>(&self, i: &mut I, p: &[I::P], x: I::V) -> I::V {
        use Kernel::{Mean, Sym};
        use Rows::{All, Output};
        match self.kind {
            GnnKind::Sgc => {
                let mut h = x;
                for k in 0..self.hops {
                    h = i.prop(Sym, &h, if k + 1 == self.hops { Output } else { All });
                }
                // Narrows only when `hops == 0` left every row in place.
                let h = i.output_rows(&h);
                let hw = i.matmul(&h, &p[0]);
                i.bias(&hw, &p[1])
            }
            GnnKind::Gcn => {
                let xw = i.matmul(&x, &p[0]);
                let h = i.prop(Sym, &xw, All);
                let h = i.bias(&h, &p[1]);
                let h = i.relu(&h);
                let hw = i.matmul(&h, &p[2]);
                let out = i.prop(Sym, &hw, Output);
                i.bias(&out, &p[3])
            }
            GnnKind::Sage => {
                let self1 = i.matmul(&x, &p[0]);
                let agg = i.prop(Mean, &x, All);
                let nbr1 = i.matmul(&agg, &p[1]);
                let h = i.add(&self1, &nbr1);
                let h = i.bias(&h, &p[2]);
                let h = i.relu(&h);
                let h_out = i.output_rows(&h);
                let self2 = i.matmul(&h_out, &p[3]);
                let agg2 = i.prop(Mean, &h, Output);
                let nbr2 = i.matmul(&agg2, &p[4]);
                let out = i.add(&self2, &nbr2);
                i.bias(&out, &p[5])
            }
            GnnKind::Appnp => {
                let xw = i.matmul(&x, &p[0]);
                let h = i.bias(&xw, &p[1]);
                let h = i.relu(&h);
                let hw = i.matmul(&h, &p[2]);
                let h0 = i.bias(&hw, &p[3]);
                // Personalised PageRank: Z_{k+1} = (1-α) Â Z_k + α H₀.
                let teleport = i.scale(&h0, self.alpha);
                let teleport_out = i.output_rows(&teleport);
                let mut z = h0;
                for k in 0..self.hops {
                    let last = k + 1 == self.hops;
                    let prop = i.prop(Sym, &z, if last { Output } else { All });
                    let damped = i.scale(&prop, 1.0 - self.alpha);
                    z = i.add(&damped, if last { &teleport_out } else { &teleport });
                }
                i.output_rows(&z)
            }
            GnnKind::Cheby => {
                // λ_max ≈ 2 gives T0 = X, T1 = L̃X = -ÂX.
                let t1x = i.prop(Sym, &x, All);
                let t1x = i.scale(&t1x, -1.0);
                let h0 = i.matmul(&x, &p[0]);
                let h1 = i.matmul(&t1x, &p[1]);
                let h = i.add(&h0, &h1);
                let h = i.bias(&h, &p[2]);
                let h = i.relu(&h);
                let t1h = i.prop(Sym, &h, Output);
                let t1h = i.scale(&t1h, -1.0);
                let h_out = i.output_rows(&h);
                let o0 = i.matmul(&h_out, &p[3]);
                let o1 = i.matmul(&t1h, &p[4]);
                let out = i.add(&o0, &o1);
                i.bias(&out, &p[5])
            }
        }
    }

    /// Builds the logits graph on `tape` using parameter vars `ps` (from
    /// [`GnnModel::tape_params`]) and feature var `x`.
    ///
    /// # Panics
    /// Panics if `ps` does not match the architecture's parameter count.
    pub fn forward(&self, tape: &mut Tape, ps: &[Var], ops: &GraphOps, x: Var) -> Var {
        self.forward_reusing(tape, ps, ops, x, &mut ConstProps::default())
    }

    /// [`GnnModel::forward`] that reads the propagations of constants from
    /// `consts`, filled by the first call: every call with one `consts`
    /// must pass the same `ops` and the same value of `x`.
    pub(crate) fn forward_reusing(
        &self,
        tape: &mut Tape,
        ps: &[Var],
        ops: &GraphOps,
        x: Var,
        consts: &mut ConstProps,
    ) -> Var {
        assert_eq!(ps.len(), self.params.len(), "forward: wrong parameter count");
        self.run(&mut OnTape { tape, ops, consts, site: 0 }, ps, x)
    }

    /// Tape-free inference: logits for every node of `(adj, x)`.
    ///
    /// This is the deployment path measured by the paper's time/memory
    /// experiments; it allocates no autodiff bookkeeping.
    #[must_use]
    pub fn predict(&self, ops: &GraphOps, x: &DMat) -> DMat {
        into_dmat(self.run(&mut Dense { ops }, &self.params, input(x)))
    }

    /// Split-operator inference: logits for the **new rows only** of the
    /// graph behind `ops`, fed as a `(x_base, x_new)` pair that is never
    /// vstacked.
    ///
    /// This is the serving fast path: every dense layer step is
    /// row-independent and the propagation steps use
    /// [`Propagator::spmm_split`] / [`Propagator::spmm_bottom`]; the base
    /// rows of every value no propagation reaches are read from `prefix`
    /// ([`BasePrefix::new`] of this model on `x_base`), not computed. So
    /// the returned `n×C` block is **bitwise identical** to
    /// `predict(ops, x_base.vstack(x_new))` sliced to its last `n` rows —
    /// at any thread count, the prefix's included — while the base rows
    /// cost only what propagation reaches, the final propagation computes
    /// only the `n` inductive output rows and no base-side state is copied.
    ///
    /// # Panics
    /// Panics on dimension mismatch between the split inputs and `ops`,
    /// when `ops` holds materialised operators, and when `prefix` was
    /// built on a base of another row count or for another model.
    #[must_use]
    pub fn predict_split(
        &self,
        ops: &GraphOps<'_>,
        prefix: &BasePrefix,
        x_base: &DMat,
        x_new: &DMat,
    ) -> DMat {
        assert_eq!(x_base.rows(), prefix.rows(), "predict_split: prefix built on another base");
        let x = Halves { base: Base::Prefix(Some(input(x_base))), new: input(x_new) };
        let mut split = Split { ops, prefix, site: 0 };
        let out = self.run(&mut split, &self.params, x).new;
        assert_eq!(split.site, prefix.len(), "predict_split: prefix built for another model");
        into_dmat(out)
    }
}

/// Which normalised adjacency a propagation multiplies by.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernel {
    Sym,
    Mean,
}

/// Which rows of a propagation's product the rest of the program reads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rows {
    /// Every row: a later propagation consumes the product.
    All,
    /// Only the rows logits were asked for: nothing propagates after this
    /// product, so rows that exist to feed neighbours are dead.
    Output,
}

/// What an evaluator of [`GnnModel::run`] says for itself: what a value
/// is, what propagation means, and how a value narrows.
pub(crate) trait Evaluator {
    type V: Clone;
    /// `kernel · v`; with [`Rows::Output`], only the output rows of it.
    fn prop(&mut self, kernel: Kernel, v: &Self::V, rows: Rows) -> Self::V;
    /// `v` narrowed to the rows logits were asked for, as it must be to
    /// meet a [`Rows::Output`] product. Copies nothing; by default every
    /// row is an output row.
    fn output_rows(&mut self, v: &Self::V) -> Self::V {
        v.clone()
    }
}

/// What [`GnnModel::run`] is written against: an [`Evaluator`] and the
/// five dense ops, over its values `V` and parameters `P`.
pub(crate) trait Interp: Evaluator {
    type P;
    fn matmul(&mut self, v: &Self::V, w: &Self::P) -> Self::V;
    fn bias(&mut self, v: &Self::V, b: &Self::P) -> Self::V;
    fn relu(&mut self, v: &Self::V) -> Self::V;
    fn scale(&mut self, v: &Self::V, c: f32) -> Self::V;
    fn add(&mut self, a: &Self::V, b: &Self::V) -> Self::V;
}

/// The products of a training program's propagations that read no
/// parameter, by site (the `n`-th `prop` the program issues; `None` where
/// the operand carries a gradient): SGC's `Â^K X`, and the `ÂX` / `D⁻¹AX`
/// of Cheby's and SAGE's first layers. A fit computes them once, not once
/// per epoch.
#[derive(Default)]
pub(crate) struct ConstProps(Vec<Option<Arc<DMat>>>);

/// Training: values are tape vars, every op is recorded, every row kept.
/// A propagation of a constant is a constant leaf, from `consts` once it
/// has been computed (by the tape's own SpMM kernel, so with its bits).
struct OnTape<'t, 'o> {
    tape: &'t mut Tape,
    ops: &'t GraphOps<'o>,
    consts: &'t mut ConstProps,
    site: usize,
}

impl Evaluator for OnTape<'_, '_> {
    type V = Var;
    fn prop(&mut self, kernel: Kernel, v: &Var, _: Rows) -> Var {
        let s = self.ops.kernel(kernel).csr();
        let site = self.site;
        self.site += 1;
        if self.consts.0.len() == site {
            let constant = !self.tape.requires_grad(*v);
            self.consts.0.push(constant.then(|| Arc::new(s.spmm(self.tape.value(*v)))));
        }
        match &self.consts.0[site] {
            Some(value) => self.tape.constant(Arc::clone(value)),
            None => self.tape.spmm(s, *v),
        }
    }
}

impl Interp for OnTape<'_, '_> {
    type P = Var;
    fn matmul(&mut self, v: &Var, w: &Var) -> Var {
        self.tape.matmul(*v, *w)
    }
    fn bias(&mut self, v: &Var, b: &Var) -> Var {
        self.tape.add_row_broadcast(*v, *b)
    }
    fn relu(&mut self, v: &Var) -> Var {
        self.tape.relu(*v)
    }
    fn scale(&mut self, v: &Var, c: f32) -> Var {
        self.tape.scale(*v, c)
    }
    fn add(&mut self, a: &Var, b: &Var) -> Var {
        self.tape.add(*a, *b)
    }
}

/// A matrix held by a tape-free evaluator: the caller's input, borrowed,
/// or an intermediate it computed. Cloning shares, so narrowing is free.
pub(crate) type Mat<'a> = Rc<Cow<'a, DMat>>;

pub(crate) fn input(m: &DMat) -> Mat<'_> {
    Rc::new(Cow::Borrowed(m))
}

pub(crate) fn made(m: DMat) -> Mat<'static> {
    Rc::new(Cow::Owned(m))
}

pub(crate) fn into_dmat(m: Mat<'_>) -> DMat {
    Rc::try_unwrap(m).map_or_else(|shared| DMat::clone(&shared), Cow::into_owned)
}

/// An evaluator whose values are made of dense matrices: a dense op is
/// the `DMat` op on each — the blanket [`Interp`] impl below, for every
/// such evaluator.
pub(crate) trait Mats: Evaluator {
    fn map(&mut self, v: &Self::V, f: impl Fn(&DMat) -> DMat) -> Self::V;
    fn zip(&mut self, a: &Self::V, b: &Self::V, f: impl Fn(&DMat, &DMat) -> DMat) -> Self::V;
}

/// An evaluator whose value is one [`Mat`]: a dense op is the `DMat` op
/// on it.
pub(crate) trait Whole {}

impl<'a, T: Whole + Evaluator<V = Mat<'a>>> Mats for T {
    fn map(&mut self, v: &Mat<'a>, f: impl Fn(&DMat) -> DMat) -> Mat<'a> {
        made(f(v))
    }
    fn zip(&mut self, a: &Mat<'a>, b: &Mat<'a>, f: impl Fn(&DMat, &DMat) -> DMat) -> Mat<'a> {
        made(f(a, b))
    }
}

impl<T: Mats> Interp for T {
    type P = DMat;
    fn matmul(&mut self, v: &T::V, w: &DMat) -> T::V {
        self.map(v, |m| m.matmul(w))
    }
    fn bias(&mut self, v: &T::V, b: &DMat) -> T::V {
        self.map(v, |m| m.add_row_broadcast(b.row(0)))
    }
    fn relu(&mut self, v: &T::V) -> T::V {
        self.map(v, DMat::relu)
    }
    fn scale(&mut self, v: &T::V, c: f32) -> T::V {
        self.map(v, |m| m.scale(c))
    }
    fn add(&mut self, a: &T::V, b: &T::V) -> T::V {
        self.zip(a, b, DMat::add)
    }
}

/// Whole-graph inference: one matrix, every row kept.
struct Dense<'a, 'o> {
    ops: &'a GraphOps<'o>,
}

impl<'a> Evaluator for Dense<'a, '_> {
    type V = Mat<'a>;
    fn prop(&mut self, kernel: Kernel, v: &Mat<'a>, _: Rows) -> Mat<'a> {
        made(self.ops.kernel(kernel).spmm(v))
    }
}

impl Whole for Dense<'_, '_> {}

/// A value of the [`Split`] evaluator: base rows and new rows, never
/// stacked.
#[derive(Clone)]
struct Halves<'a> {
    base: Base<'a>,
    new: Mat<'a>,
}

/// The base rows of a [`Halves`].
#[derive(Clone)]
enum Base<'a> {
    /// A `prop` reached the value: computed for this request.
    Rows(Mat<'a>),
    /// No `prop` reached it: a value of the [`BasePrefix`], `Some` where
    /// something reads it (the input's are `x_base`).
    Prefix(Option<Mat<'a>>),
    /// Narrowed to its output rows: it has no base rows.
    Gone,
}

impl Base<'_> {
    fn rows(&self) -> &DMat {
        match self {
            Base::Rows(m) | Base::Prefix(Some(m)) => m,
            Base::Prefix(None) => panic!("split: the base prefix did not keep a value it reads"),
            Base::Gone => panic!("split: operand already narrowed to its output rows"),
        }
    }
}

/// Serving on the extended graph: the `n` new rows are the output rows,
/// so a [`Rows::Output`] product is [`Propagator::spmm_bottom`]. A value
/// no `prop` reaches takes its base rows from `prefix`, by site.
struct Split<'a, 'o> {
    ops: &'a GraphOps<'o>,
    prefix: &'a BasePrefix,
    site: usize,
}

impl<'a> Split<'a, '_> {
    /// The base rows of the next value no `prop` reaches.
    fn next_site(&mut self) -> Base<'a> {
        let kept = self.prefix.site(self.site);
        self.site += 1;
        Base::Prefix(kept.map(input))
    }
}

impl<'a> Evaluator for Split<'a, '_> {
    type V = Halves<'a>;
    fn prop(&mut self, kernel: Kernel, v: &Halves<'a>, rows: Rows) -> Halves<'a> {
        let op = self.ops.kernel(kernel);
        let base = v.base.rows();
        match rows {
            Rows::All => {
                let (top, bottom) = op.spmm_split(base, &v.new);
                Halves { base: Base::Rows(made(top)), new: made(bottom) }
            }
            Rows::Output => Halves { base: Base::Gone, new: made(op.spmm_bottom(base, &v.new)) },
        }
    }
    fn output_rows(&mut self, v: &Halves<'a>) -> Halves<'a> {
        Halves { base: Base::Gone, new: v.new.clone() }
    }
}

impl<'a> Mats for Split<'a, '_> {
    fn map(&mut self, v: &Halves<'a>, f: impl Fn(&DMat) -> DMat) -> Halves<'a> {
        let base = match &v.base {
            Base::Rows(b) => Base::Rows(made(f(b))),
            Base::Prefix(_) => self.next_site(),
            Base::Gone => Base::Gone,
        };
        Halves { base, new: made(f(&v.new)) }
    }
    fn zip(&mut self, a: &Halves<'a>, b: &Halves<'a>, f: impl Fn(&DMat, &DMat) -> DMat) -> Halves<'a> {
        let base = match (&a.base, &b.base) {
            (Base::Prefix(_), Base::Prefix(_)) => self.next_site(),
            (Base::Gone, Base::Gone) => Base::Gone,
            (x, y) => Base::Rows(made(f(x.rows(), y.rows()))),
        };
        Halves { base, new: made(f(&a.new, &b.new)) }
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

    #[test]
    fn out_dim_reports_class_count_for_every_architecture() {
        for kind in GnnKind::ALL {
            let model = GnnModel::new(kind, 4, 8, 3, 7);
            assert_eq!(model.out_dim(), 3, "{}", kind.name());
        }
    }

    #[test]
    fn graph_ops_mean_rows_are_stochastic() {
        let adj = ring(4);
        let ops = GraphOps::from_adj(&adj);
        let mean = ops.kernel(Kernel::Mean).csr();
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
