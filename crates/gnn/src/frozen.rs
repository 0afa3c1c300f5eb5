//! Frozen-base serving cache: `ServeMode::FrozenBase`.
//!
//! The exact extended-operator forward pass must re-propagate over all
//! `N' + n` rows because attaching a batch perturbs base-side degrees and
//! base activations feed the new rows at every layer. [`FrozenBase`]
//! attaches one way instead: new rows read the base, the base never reads
//! them. Nothing here knows an architecture:
//! building, serving and patching are three evaluators of `GnnModel::run`
//! (see `model.rs`), and a *site* is a `prop` the program issues.
//!
//! **Build** runs the program once over the base graph alone (base-only
//! normalisation, no batch attached). Each `prop` leaves behind the
//! operand it would multiply by the bottom-left `inc` block — pre-scaled
//! by the frozen base normalisation at a symmetric site — then
//! multiplies. Except at the `Rows::Output` propagation, the last: the
//! base graph has no output rows, so that product and everything after
//! it is empty, and a cache costs `sites − 1` SpMMs.
//!
//! **Serve** runs the program on a request's `n` new rows in
//! `O(L·(nnz(inc) + nnz(inter) + n·d))`, each `prop` computing
//!
//! ```text
//! sym:  s_n ∘ ( inc·(s_b ∘ H_b)  +  inter·(s_n ∘ H_n)  +  s_n ∘ H_n )
//! mean: r_n ∘ ( inc·H_b          +  inter·H_n )
//! ```
//!
//! where `s_b ∘ H_b` / `H_b` is the next site's operand and `s_n`/`r_n`
//! are the request's own degree scales (exact, from `inc`/`inter` row
//! mass). The **difference** is entirely base-side: cached `H_b` ignores
//! the batch's back-edges into the base graph, and `s_b` is the base-only
//! scale `1/sqrt(1 + base mass)` rather than the batch-perturbed one. For
//! a batch with *no* incremental edges the two coincide and the frozen
//! path reproduces the exact logits. For a connected batch it is not an
//! estimate of them but a different predictor:
//! `results/ablation_serve_mode.txt` (S-trained GCN, three datasets × three
//! seeds) has its argmax agree with the exact path on 72–96 % of one-node
//! requests to an 18–39-node synthetic graph, logits up to 75 apart, and
//! accuracy *higher* on reddit (0.82 → 0.95) and pubmed, lower on flickr
//! (0.40 → 0.33); on the original graph at reddit's density it is close
//! (agreement ≥ 0.99, |Δlogit| ≤ 2.6), on pubmed's and flickr's it is not
//! (0.72–0.94). The calibration test in `mcond-core` pins the edge-free
//! case and a 6-node fixture, nothing more. The exact split path stays
//! the default — this cache is opt-in.
//!
//! **Patch** runs the program on the closure rows of a base mutation:
//! each `prop` scatters its operand's rows into the old site and
//! multiplies the closure rows of the mutated base operator by the full
//! *unscaled* operand. That is the one use of an unscaled operand, so a
//! site keeps one only where that multiply needs it (`Site::raw`).

use crate::model::{input, into_dmat, made, Evaluator, Kernel, Mat, Rows};
use crate::model::{GnnKind, GnnModel, GraphOps};
use crate::propagator::BaseDegrees;
use mcond_linalg::DMat;
use mcond_sparse::{Coo, Csr};
use std::borrow::Cow;

/// One propagation site of the frozen program, in forward order.
#[derive(Clone)]
#[cfg_attr(test, derive(PartialEq))]
struct Site {
    /// The base-side operand serving multiplies `inc` by: pre-scaled by
    /// the frozen base scale at a symmetric site, as is at a mean site.
    operand: DMat,
    /// The operand unscaled, kept only where [`FrozenBase::try_patch`]
    /// multiplies by it and has no other copy: at a symmetric site that
    /// is not the last — unless it is the feature matrix, which the
    /// patch is handed again (`None` there means exactly that).
    raw: Option<DMat>,
}

/// Per-layer base activations frozen under base-only normalisation.
///
/// Built once per `(model, base graph)` pair via [`FrozenBase::new`];
/// served via [`GnnModel::predict_frozen`]. Immutable and `Sync` — one
/// cache can serve concurrent requests.
///
/// The cache is stamped with the **base version** it was built from
/// ([`FrozenBase::base_version`], [`FrozenBase::with_version`]): a live
/// base graph that admits delta promotions bumps its version on every
/// mutation, and the serving layer refuses to answer from a cache whose
/// stamp trails the base (`ServeError::StaleCache` in `mcond-core`)
/// instead of emitting silently wrong logits. When a promotion's
/// receptive field is small, [`FrozenBase::try_patch`] recomputes only
/// the affected rows — bitwise identical to a full rebuild — and
/// re-stamps the cache.
#[derive(Clone)]
#[cfg_attr(test, derive(PartialEq))]
pub struct FrozenBase {
    kind: GnnKind,
    hops: usize,
    n_base: usize,
    in_dim: usize,
    sites: Vec<Site>,
    /// Version of the base graph the cache reflects (0 for a static base).
    base_version: u64,
}

/// Frozen symmetric scale `1/sqrt(1 + base row mass)` — identical to what
/// `sym_normalize` bakes into the base-only kernel.
fn frozen_sym_scale(deg: &BaseDegrees) -> Vec<f32> {
    deg.sym.iter().map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 }).collect()
}

/// The base graph has no output rows: a narrowed value is empty, and
/// every op the program issues on it is free.
fn no_rows(like: &DMat) -> Mat<'static> {
    made(DMat::zeros(0, like.cols()))
}

/// [`FrozenBase::new`]: the program over the base graph alone, every
/// `prop` leaving its operand behind as a site.
struct Build<'a> {
    ops: &'a GraphOps<'a>,
    sb: &'a [f32],
    sites: Vec<Site>,
}

impl<'a> Evaluator for Build<'a> {
    type V = Mat<'a>;
    fn prop(&mut self, kernel: Kernel, v: &Mat<'a>, rows: Rows) -> Mat<'a> {
        let operand = match kernel {
            Kernel::Sym => v.scale_rows(self.sb),
            Kernel::Mean => DMat::clone(v),
        };
        // Only the feature matrix is ever borrowed (see `Site::raw`).
        let patch_multiplies =
            kernel == Kernel::Sym && rows == Rows::All && matches!(**v, Cow::Owned(_));
        self.sites.push(Site { operand, raw: patch_multiplies.then(|| DMat::clone(v)) });
        match rows {
            Rows::All => made(self.ops.kernel(kernel).spmm(v)),
            Rows::Output => no_rows(v),
        }
    }
    fn output_rows(&mut self, v: &Mat<'a>) -> Mat<'a> {
        no_rows(v)
    }
}

impl FrozenBase {
    /// Runs the base-only forward pass of `model` over `(base_adj,
    /// base_x)` and caches every propagation site's base operand.
    ///
    /// # Panics
    /// Panics on inconsistent shapes (`base_adj` not square or feature
    /// rows not matching it).
    #[must_use]
    pub fn new(model: &GnnModel, base_adj: &Csr, base_x: &DMat) -> Self {
        let mut span = mcond_obs::span_timed("frozen_base.build", "serve.cache.build_us");
        span.record("base_nodes", base_adj.rows());
        assert_eq!(base_adj.rows(), base_adj.cols(), "FrozenBase: base must be square");
        assert_eq!(base_x.rows(), base_adj.rows(), "FrozenBase: feature rows mismatch");
        let ops = GraphOps::from_adj(base_adj);
        let sb = frozen_sym_scale(&BaseDegrees::of(base_adj));
        let mut build = Build { ops: &ops, sb: &sb, sites: Vec::new() };
        model.run(&mut build, model.params(), input(base_x));
        Self {
            kind: model.kind(),
            hops: model.hops,
            n_base: base_adj.rows(),
            in_dim: base_x.cols(),
            sites: build.sites,
            base_version: 0,
        }
    }

    /// Stamps the cache with the base version it reflects; the serving
    /// layer compares this against the live base's version before
    /// answering from the cache.
    #[must_use]
    pub fn with_version(mut self, version: u64) -> Self {
        self.base_version = version;
        self
    }

    /// The base version this cache was built (or last patched) against.
    #[must_use]
    pub fn base_version(&self) -> u64 {
        self.base_version
    }

    /// Architecture the cache was frozen for.
    #[must_use]
    pub fn kind(&self) -> GnnKind {
        self.kind
    }

    /// Number of cached propagation sites (layers touching the graph).
    #[must_use]
    pub fn sites(&self) -> usize {
        self.sites.len()
    }

    /// Number of base nodes the cache covers.
    #[must_use]
    pub fn n_base(&self) -> usize {
        self.n_base
    }

    /// Payload size of the cached activations (site operands and the
    /// unscaled copies the patch path keeps), in bytes.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.sites
            .iter()
            .flat_map(|s| std::iter::once(&s.operand).chain(&s.raw))
            .map(|m| m.rows() * m.cols() * core::mem::size_of::<f32>())
            .sum()
    }

    /// Incrementally re-freezes the cache after the base graph grew:
    /// `new_adj`/`new_x` are the mutated base (old nodes keep their ids;
    /// appended nodes take the highest ids), `deg` its degree sums, and
    /// `touched` the **old** rows that gained edges in the mutation
    /// (appended rows are included automatically). Only rows inside the
    /// hop-closure of the mutation are recomputed; every recomputed value
    /// is **bitwise identical** to a from-scratch
    /// [`FrozenBase::new`] over the mutated base (the kernels' row
    /// independence contract). The returned cache is stamped with
    /// `new_version`.
    ///
    /// Returns `None` when the closure exceeds `max_rows` — the signal
    /// that a full rebuild is cheaper than the patch.
    ///
    /// # Panics
    /// Panics when `model` does not match the architecture/depth this
    /// cache was frozen for, when the new base shrank or its shapes are
    /// inconsistent, or when `touched`/`deg` disagree with `new_adj`.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn try_patch(
        &self,
        model: &GnnModel,
        new_adj: &Csr,
        new_x: &DMat,
        deg: &BaseDegrees,
        touched: &[usize],
        max_rows: usize,
        new_version: u64,
    ) -> Option<FrozenBase> {
        assert_eq!(self.kind, model.kind(), "try_patch: architecture mismatch");
        assert_eq!(self.hops, model.hops, "try_patch: propagation depth mismatch");
        assert_eq!(new_adj.rows(), new_adj.cols(), "try_patch: base must be square");
        assert_eq!(new_x.rows(), new_adj.rows(), "try_patch: feature rows mismatch");
        assert_eq!(new_x.cols(), self.in_dim, "try_patch: feature width mismatch");
        assert_eq!(deg.sym.len(), new_adj.rows(), "try_patch: degree length mismatch");
        let n_old = self.n_base;
        let n_new = new_adj.rows();
        assert!(n_new >= n_old, "try_patch: base shrank ({n_old} -> {n_new})");

        // Hop-closure of the mutation: seeds are the appended rows plus
        // every old row whose degree (and therefore sym scale) changed;
        // each propagation between the first site and the last widens the
        // affected set by one hop.
        let mut in_set = vec![false; n_new];
        let mut rows: Vec<usize> = Vec::new();
        for s in touched.iter().copied().chain(n_old..n_new) {
            assert!(s < n_new, "try_patch: touched row {s} out of bounds");
            if !in_set[s] {
                in_set[s] = true;
                rows.push(s);
            }
        }
        let mut frontier = rows.clone();
        for _ in 1..self.sites.len() {
            if rows.len() > max_rows {
                return None;
            }
            let mut next = Vec::new();
            for &r in &frontier {
                for &c in new_adj.row_cols(r) {
                    let c = c as usize;
                    if !in_set[c] {
                        in_set[c] = true;
                        next.push(c);
                        rows.push(c);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        if rows.len() > max_rows {
            return None;
        }
        rows.sort_unstable();

        // Frozen symmetric scale of the mutated base, full vector plus the
        // closure-row gather — same expression as the from-scratch build.
        let sb_full = frozen_sym_scale(deg);
        let mut patch = Patch {
            old: &self.sites,
            new_adj,
            new_x,
            sb_rows: rows.iter().map(|&r| sb_full[r]).collect(),
            sb_full,
            rows: &rows,
            local: [None, None],
            sites: Vec::with_capacity(self.sites.len()),
        };
        model.run(&mut patch, model.params(), made(new_x.select_rows(&rows)));
        Some(FrozenBase {
            kind: self.kind,
            hops: self.hops,
            n_base: n_new,
            in_dim: self.in_dim,
            sites: patch.sites,
            base_version: new_version,
        })
    }
}

/// [`FrozenBase::try_patch`]: the program over the closure rows only;
/// each `prop`'s product is the next value's closure rows.
struct Patch<'a> {
    old: &'a [Site],
    new_adj: &'a Csr,
    new_x: &'a DMat,
    sb_full: Vec<f32>,
    sb_rows: Vec<f32>,
    rows: &'a [usize],
    /// Closure rows of the base operators, by `Kernel`, built on first use.
    local: [Option<Csr>; 2],
    sites: Vec<Site>,
}

impl<'a> Evaluator for Patch<'a> {
    type V = Mat<'a>;
    fn prop(&mut self, kernel: Kernel, v: &Mat<'a>, rows: Rows) -> Mat<'a> {
        let old = &self.old[self.sites.len()];
        let widen = |old: &DMat, patch: &DMat| widen_scatter(old, self.new_x.rows(), self.rows, patch);
        let operand = match kernel {
            Kernel::Sym => widen(&old.operand, &v.scale_rows(&self.sb_rows)),
            Kernel::Mean => widen(&old.operand, v),
        };
        let raw = old.raw.as_ref().map(|r| widen(r, v));
        let out = match rows {
            Rows::Output => no_rows(v),
            Rows::All => {
                let local = self.local[kernel as usize].get_or_insert_with(|| match kernel {
                    Kernel::Sym => local_sym_rows(self.new_adj, &self.sb_full, self.rows),
                    Kernel::Mean => local_mean_rows(self.new_adj, self.rows),
                });
                let unscaled = match kernel {
                    Kernel::Sym => raw.as_ref().unwrap_or(self.new_x),
                    Kernel::Mean => &operand,
                };
                made(local.spmm(unscaled))
            }
        };
        self.sites.push(Site { operand, raw });
        out
    }
    fn output_rows(&mut self, v: &Mat<'a>) -> Mat<'a> {
        no_rows(v)
    }
}

/// The closure rows of the symmetrically normalised base operator
/// `D̃^{-1/2}(A + I)D̃^{-1/2}`, as a `|rows| x N` CSR. Entry construction
/// mirrors `sym_normalize` exactly (adjacency entries first, diagonal
/// last, same multiply association) so each local row is bitwise
/// identical to the corresponding row of the full operator.
fn local_sym_rows(adj: &Csr, isr: &[f32], rows: &[usize]) -> Csr {
    let nnz: usize = rows.iter().map(|&r| adj.row_cols(r).len()).sum();
    let mut coo = Coo::with_capacity(rows.len(), adj.cols(), nnz + rows.len());
    for (li, &r) in rows.iter().enumerate() {
        for (&j, &v) in adj.row_cols(r).iter().zip(adj.row_vals(r)) {
            coo.push(li, j as usize, v * isr[r] * isr[j as usize]);
        }
    }
    for (li, &r) in rows.iter().enumerate() {
        coo.push(li, r, isr[r] * isr[r]);
    }
    coo.to_csr()
}

/// The closure rows of the mean (row-stochastic) base operator `D^{-1}A`,
/// mirroring `GraphOps::from_adj` (rows with non-positive mass stay
/// empty, same divide per entry).
fn local_mean_rows(adj: &Csr, rows: &[usize]) -> Csr {
    let nnz: usize = rows.iter().map(|&r| adj.row_cols(r).len()).sum();
    let mut coo = Coo::with_capacity(rows.len(), adj.cols(), nnz);
    for (li, &r) in rows.iter().enumerate() {
        let d: f32 = adj.row_vals(r).iter().sum();
        if d > 0.0 {
            for (&j, &v) in adj.row_cols(r).iter().zip(adj.row_vals(r)) {
                coo.push(li, j as usize, v / d);
            }
        }
    }
    coo.to_csr()
}

/// Widens `old` to `n_rows` rows (appended rows zero-filled) and
/// overwrites row `rows[k]` with `patch` row `k`.
fn widen_scatter(old: &DMat, n_rows: usize, rows: &[usize], patch: &DMat) -> DMat {
    debug_assert_eq!(patch.rows(), rows.len());
    let mut out = DMat::zeros(n_rows, old.cols());
    for i in 0..old.rows() {
        out.row_mut(i).copy_from_slice(old.row(i));
    }
    for (k, &r) in rows.iter().enumerate() {
        out.row_mut(r).copy_from_slice(patch.row(k));
    }
    out
}

/// The request's own degree scales: symmetric `1/sqrt(1 + inc mass +
/// inter mass)` and mean `1/(inc mass + inter mass)` per new row —
/// identical to what the exact extended operator computes for its new
/// rows.
fn request_scales(inc: &Csr, inter: &Csr) -> (Vec<f32>, Vec<f32>) {
    let n = inc.rows();
    let mut sym = vec![1.0f32; n];
    let mut mean = vec![0.0f32; n];
    for (bi, _, v) in inc.iter() {
        sym[bi] += v;
        mean[bi] += v;
    }
    for (bi, _, v) in inter.iter() {
        sym[bi] += v;
        mean[bi] += v;
    }
    let sn = sym.iter().map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 }).collect();
    let rn = mean.iter().map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 }).collect();
    (sn, rn)
}

/// [`GnnModel::predict_frozen`]: the program over the new rows only,
/// each `prop` answered from the next cached site.
struct Serve<'a> {
    sites: std::slice::Iter<'a, Site>,
    inc: &'a Csr,
    inter: &'a Csr,
    sn: Vec<f32>,
    rn: Vec<f32>,
}

impl<'a> Evaluator for Serve<'a> {
    type V = Mat<'a>;
    fn prop(&mut self, kernel: Kernel, v: &Mat<'a>, _: Rows) -> Mat<'a> {
        let cached = &self.sites.next().expect("prop: cache frozen with fewer sites").operand;
        let mut out = self.inc.spmm(cached);
        match kernel {
            // s_n ∘ (inc·cached + inter·(s_n ∘ v) + s_n ∘ v)
            Kernel::Sym => {
                let vs = v.scale_rows(&self.sn);
                out.add_assign(&self.inter.spmm(&vs));
                out.add_assign(&vs);
                out.scale_rows_assign(&self.sn);
            }
            // r_n ∘ (inc·cached + inter·v)
            Kernel::Mean => {
                out.add_assign(&self.inter.spmm(v));
                out.scale_rows_assign(&self.rn);
            }
        }
        made(out)
    }
}

impl GnnModel {
    /// Serves a batch's logits from a [`FrozenBase`] cache — the
    /// one-way-attachment `O(L·(nnz + n·d))` path. See the module docs for
    /// how its answers differ from the exact ones.
    ///
    /// # Panics
    /// Panics when `frozen` was built for a different architecture /
    /// propagation depth, or on block-shape mismatch.
    #[must_use]
    pub fn predict_frozen(
        &self,
        frozen: &FrozenBase,
        inc: &Csr,
        inter: &Csr,
        x_new: &DMat,
    ) -> DMat {
        assert_eq!(frozen.kind, self.kind(), "predict_frozen: architecture mismatch");
        assert_eq!(
            frozen.hops, self.hops,
            "predict_frozen: cache frozen at a different propagation depth"
        );
        assert_eq!(inc.cols(), frozen.n_base, "predict_frozen: inc columns must index the base");
        assert_eq!(inc.rows(), x_new.rows(), "predict_frozen: inc rows");
        assert_eq!(inter.rows(), x_new.rows(), "predict_frozen: inter rows");
        assert_eq!(inter.cols(), x_new.rows(), "predict_frozen: inter must be square");
        assert_eq!(x_new.cols(), frozen.in_dim, "predict_frozen: feature width mismatch");
        let (sn, rn) = request_scales(inc, inter);
        let mut serve = Serve { sites: frozen.sites.iter(), inc, inter, sn, rn };
        into_dmat(self.run(&mut serve, self.params(), input(x_new)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcond_linalg::MatRng;
    use mcond_sparse::Coo;

    fn fixture() -> (Csr, DMat) {
        let mut base = Coo::new(5, 5);
        for i in 0..5 {
            base.push_sym(i, (i + 1) % 5, 1.0);
        }
        (base.to_csr(), MatRng::seed_from(11).normal(5, 4, 0.0, 1.0))
    }

    fn exact_new_rows(
        model: &GnnModel,
        base: &Csr,
        base_x: &DMat,
        inc: &Csr,
        inter: &Csr,
        x_new: &DMat,
    ) -> DMat {
        let ops = GraphOps::extended(base, inc, inter);
        model.predict_split(&ops, base_x, x_new)
    }

    /// With zero incremental edges the batch does not perturb base
    /// degrees or activations, so the frozen path must agree with the
    /// exact one (the only remaining difference is exact-zero `inc`
    /// contributions).
    #[test]
    fn disconnected_batch_is_served_exactly() {
        let (base, base_x) = fixture();
        let inc = Csr::empty(2, 5);
        let mut inter = Coo::new(2, 2);
        inter.push_sym(0, 1, 1.0);
        let inter = inter.to_csr();
        let x_new = MatRng::seed_from(12).normal(2, 4, 0.0, 1.0);
        for kind in GnnKind::ALL {
            let model = GnnModel::new(kind, 4, 6, 3, 21);
            let frozen = FrozenBase::new(&model, &base, &base_x);
            let approx = model.predict_frozen(&frozen, &inc, &inter, &x_new);
            let exact = exact_new_rows(&model, &base, &base_x, &inc, &inter, &x_new);
            assert_eq!(approx.shape(), (2, 3), "{}", kind.name());
            for (a, b) in approx.as_slice().iter().zip(exact.as_slice()) {
                assert!(
                    mcond_linalg::approx_eq(*a, *b, 1e-5),
                    "{}: {a} vs {b}",
                    kind.name()
                );
            }
        }
    }

    /// Connected batches deviate but stay finite, shape-correct, and in
    /// the same ballpark as the exact logits.
    #[test]
    fn connected_batch_stays_finite_and_bounded() {
        let (base, base_x) = fixture();
        let mut inc = Coo::new(2, 5);
        inc.push(0, 1, 2.0);
        inc.push(1, 3, 1.0);
        let inc = inc.to_csr();
        let inter = Csr::empty(2, 2);
        let x_new = MatRng::seed_from(13).normal(2, 4, 0.0, 1.0);
        for kind in GnnKind::ALL {
            let model = GnnModel::new(kind, 4, 6, 3, 22);
            let frozen = FrozenBase::new(&model, &base, &base_x);
            assert!(frozen.bytes() > 0);
            let approx = model.predict_frozen(&frozen, &inc, &inter, &x_new);
            let exact = exact_new_rows(&model, &base, &base_x, &inc, &inter, &x_new);
            assert_eq!(approx.shape(), exact.shape());
            assert!(approx.all_finite(), "{}", kind.name());
            let dev: f32 = approx
                .as_slice()
                .iter()
                .zip(exact.as_slice())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f32::max);
            assert!(dev < 5.0, "{}: max deviation {dev}", kind.name());
        }
    }

    /// One operand per site, plus an unscaled copy only where a patch
    /// multiplies by it: none at the last site, none where the operand is
    /// the feature matrix (5 nodes, 4 features, hidden 6, 3 classes).
    #[test]
    fn cache_keeps_no_operand_nothing_reads() {
        let (base, base_x) = fixture();
        let f32s = |kind| FrozenBase::new(&GnnModel::new(kind, 4, 6, 3, 21), &base, &base_x).bytes() / 4;
        assert_eq!(f32s(GnnKind::Sgc), 5 * (4 + 4));
        assert_eq!(f32s(GnnKind::Gcn), 5 * (6 + 6 + 3));
        assert_eq!(f32s(GnnKind::Sage), 5 * (4 + 6));
        assert_eq!(f32s(GnnKind::Appnp), 5 * (3 + 3 + 3));
        assert_eq!(f32s(GnnKind::Cheby), 5 * (4 + 6));
    }

    /// A closure larger than the row budget refuses to patch (the caller
    /// falls back to a full rebuild).
    #[test]
    fn oversized_closure_declines_to_patch() {
        let (base, base_x) = fixture();
        let mut b = Coo::new(1, 5);
        b.push(0, 0, 1.0);
        let new_adj = base.block_extend(&b.to_csr(), &Csr::empty(1, 1));
        let new_x = base_x.vstack(&MatRng::seed_from(18).normal(1, 4, 0.0, 1.0));
        let deg = BaseDegrees::of(&new_adj);
        let model = GnnModel::new(GnnKind::Gcn, 4, 6, 3, 24);
        let frozen = FrozenBase::new(&model, &base, &base_x);
        assert!(frozen.try_patch(&model, &new_adj, &new_x, &deg, &[0], 1, 1).is_none());
    }

    #[test]
    #[should_panic(expected = "architecture mismatch")]
    fn cross_architecture_cache_is_rejected() {
        let (base, base_x) = fixture();
        let sgc = GnnModel::new(GnnKind::Sgc, 4, 0, 3, 1);
        let gcn = GnnModel::new(GnnKind::Gcn, 4, 6, 3, 1);
        let frozen = FrozenBase::new(&sgc, &base, &base_x);
        let _ = gcn.predict_frozen(&frozen, &Csr::empty(1, 5), &Csr::empty(1, 1), &DMat::zeros(1, 4));
    }
}
