//! Frozen-base predictor: one-way attachment over cached base activations.
//!
//! The exact extended-operator forward pass must re-propagate over all
//! `N' + n` rows because attaching a batch perturbs base-side degrees and
//! base activations feed the new rows at every layer. [`FrozenBase`]
//! attaches one way instead: new rows read the base, the base never reads
//! them. Nothing here knows an architecture:
//! building and serving are two evaluators of `GnnModel::run`
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
//! seeds) has its argmax agree with the exact path on 73–96 % of one-node
//! requests to an 18–39-node synthetic graph, logits up to 73 apart, and
//! accuracy *higher* on reddit (0.82 → 0.94) and pubmed, lower on flickr
//! (0.40 → 0.33); on the original graph at reddit's density it is close
//! (agreement ≥ 0.988, |Δlogit| ≤ 1.9), on pubmed's and flickr's it is not
//! (0.73–0.95). The calibration test in `mcond-core` pins the edge-free
//! case and a 6-node fixture, nothing more. `InductiveServer` always
//! runs the exact split path; this predictor is called directly, fed the
//! server's `attachment` rows.

use crate::model::{input, into_dmat, made, Evaluator, Kernel, Mat, Rows, Whole};
use crate::model::{GnnKind, GnnModel, GraphOps};
use crate::propagator::BaseDegrees;
use mcond_linalg::DMat;
use mcond_sparse::Csr;

/// Per-layer base activations frozen under base-only normalisation.
///
/// Built once per `(model, base graph)` pair via [`FrozenBase::new`];
/// served via [`GnnModel::predict_frozen`]. Immutable and `Sync` — one
/// cache can serve concurrent requests.
#[derive(Clone)]
pub struct FrozenBase {
    kind: GnnKind,
    hops: usize,
    n_base: usize,
    in_dim: usize,
    /// One per propagation site, in forward order: the base-side operand
    /// serving multiplies `inc` by — pre-scaled by the frozen base scale
    /// at a symmetric site, as is at a mean site.
    sites: Vec<DMat>,
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
struct Build<'a, 'o> {
    ops: &'a GraphOps<'o>,
    sb: &'a [f32],
    sites: Vec<DMat>,
}

impl<'a> Evaluator for Build<'a, '_> {
    type V = Mat<'a>;
    fn prop(&mut self, kernel: Kernel, v: &Mat<'a>, rows: Rows) -> Mat<'a> {
        self.sites.push(match kernel {
            Kernel::Sym => v.scale_rows(self.sb),
            Kernel::Mean => DMat::clone(v),
        });
        match rows {
            Rows::All => made(self.ops.kernel(kernel).spmm(v)),
            Rows::Output => no_rows(v),
        }
    }
    fn output_rows(&mut self, v: &Mat<'a>) -> Mat<'a> {
        no_rows(v)
    }
}

impl Whole for Build<'_, '_> {}

impl FrozenBase {
    /// Runs the base-only forward pass of `model` over `(base_adj,
    /// base_x)` and caches every propagation site's base operand.
    ///
    /// # Panics
    /// Panics on inconsistent shapes (`base_adj` not square or feature
    /// rows not matching it).
    #[must_use]
    pub fn new(model: &GnnModel, base_adj: &Csr, base_x: &DMat) -> Self {
        let mut span = mcond_obs::span_timed("frozen_base.build", "gnn.frozen.build_us");
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
        }
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

    /// Payload size of the cached activations (one operand per site), in
    /// bytes.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.sites.iter().map(|m| m.rows() * m.cols() * core::mem::size_of::<f32>()).sum()
    }
}

/// The request's own degree scales: symmetric `1/sqrt(1 + inc mass +
/// inter mass)` and mean `1/(inc mass + inter mass)` per new row —
/// identical to what the exact extended operator computes for its new
/// rows.
fn request_scales(inc: &Csr, inter: &Csr) -> (Vec<f32>, Vec<f32>) {
    (0..inc.rows())
        .map(|i| {
            let (mut sym, mut mean) = (1.0f32, 0.0f32);
            for &v in inc.row_vals(i).iter().chain(inter.row_vals(i)) {
                sym += v;
                mean += v;
            }
            let sn = if sym > 0.0 { 1.0 / sym.sqrt() } else { 0.0 };
            let rn = if mean > 0.0 { 1.0 / mean } else { 0.0 };
            (sn, rn)
        })
        .unzip()
}

/// [`GnnModel::predict_frozen`]: the program over the new rows only,
/// each `prop` answered from the next cached site.
struct Serve<'a> {
    sites: std::slice::Iter<'a, DMat>,
    inc: &'a Csr,
    inter: &'a Csr,
    sn: Vec<f32>,
    rn: Vec<f32>,
}

impl<'a> Evaluator for Serve<'a> {
    type V = Mat<'a>;
    fn prop(&mut self, kernel: Kernel, v: &Mat<'a>, _: Rows) -> Mat<'a> {
        let cached = self.sites.next().expect("prop: cache frozen with fewer sites");
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

impl Whole for Serve<'_> {}

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
        let deg = BaseDegrees::of(base);
        let ops = GraphOps::extended(base, inc, inter, &deg);
        model.predict_split(&ops, &crate::BasePrefix::new(model, base_x), base_x, x_new)
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

    /// One operand per site (5 nodes, 4 features, hidden 6, 3 classes,
    /// two hops).
    #[test]
    fn cache_keeps_no_operand_nothing_reads() {
        let (base, base_x) = fixture();
        let f32s = |kind| FrozenBase::new(&GnnModel::new(kind, 4, 6, 3, 21), &base, &base_x).bytes() / 4;
        assert_eq!(f32s(GnnKind::Sgc), 5 * (4 + 4));
        assert_eq!(f32s(GnnKind::Gcn), 5 * (6 + 3));
        assert_eq!(f32s(GnnKind::Sage), 5 * (4 + 6));
        assert_eq!(f32s(GnnKind::Appnp), 5 * (3 + 3));
        assert_eq!(f32s(GnnKind::Cheby), 5 * (4 + 6));
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
