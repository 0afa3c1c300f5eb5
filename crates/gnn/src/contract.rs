//! The architecture contract: every evaluator of [`GnnModel::run`] against
//! one hand-written reference, for every architecture and depth.
//!
//! [`reference_predict`] is the paper's layer equations written out per
//! architecture on plain matrices — readable, and deliberately *not*
//! derived from `run`. The table below pins the six evaluators to it:
//!
//! | evaluator                    | must equal                              |
//! |------------------------------|-----------------------------------------|
//! | dense (`predict`)            | the reference, bitwise                  |
//! | prefix-build + split (`BasePrefix::new`, `predict_split`) | bottom rows of the stacked dense, bitwise; builds only the operators it reads |
//! | tape (`forward`)             | dense on the materialised graph, bitwise |
//! | frozen-build + frozen-serve (`FrozenBase::new`, `predict_frozen`) | split, on a batch with no edges |
//! | tape hop (`TapeExtension`)  | split hop and materialised block, max \|Δ\| ≤ 1e-5 |
//!
//! The last row is one hop of the extended operator rather than a whole
//! forward: the hop is one generic function with a matrix instance (the
//! split evaluator's) and a tape instance, whose degrees are summed in a
//! different grouping — hence a bound instead of bitwise equality.

use crate::model::Kernel::{Mean, Sym};
use crate::{BaseDegrees, BasePrefix, FrozenBase, GnnKind, GnnModel, GraphOps, Propagator, TapeExtension};
use mcond_autodiff::Tape;
use mcond_linalg::{DMat, MatRng};
use mcond_sparse::{sparsify_dense, sym_normalize_dense, Coo, Csr};
use std::sync::Arc;

/// Whole-graph logits, one arm per architecture (paper §IV-A, Table IV).
fn reference_predict(model: &GnnModel, ops: &GraphOps, x: &DMat) -> DMat {
    let p = model.params();
    let (sym, mean) = (ops.kernel(Sym), ops.kernel(Mean));
    match model.kind() {
        GnnKind::Sgc => {
            let mut h = x.clone();
            for _ in 0..model.hops {
                h = sym.spmm(&h);
            }
            h.matmul(&p[0]).add_row_broadcast(p[1].row(0))
        }
        GnnKind::Gcn => {
            let h = sym.spmm(&x.matmul(&p[0])).add_row_broadcast(p[1].row(0)).relu();
            sym.spmm(&h.matmul(&p[2])).add_row_broadcast(p[3].row(0))
        }
        GnnKind::Sage => {
            let h = x
                .matmul(&p[0])
                .add(&mean.spmm(x).matmul(&p[1]))
                .add_row_broadcast(p[2].row(0))
                .relu();
            h.matmul(&p[3])
                .add(&mean.spmm(&h).matmul(&p[4]))
                .add_row_broadcast(p[5].row(0))
        }
        GnnKind::Appnp => {
            let h = x.matmul(&p[0]).add_row_broadcast(p[1].row(0)).relu();
            let h0 = h.matmul(&p[2]).add_row_broadcast(p[3].row(0));
            let teleport = h0.scale(model.alpha);
            let mut z = h0;
            for _ in 0..model.hops {
                z = sym.spmm(&z).scale(1.0 - model.alpha).add(&teleport);
            }
            z
        }
        GnnKind::Cheby => {
            let t1x = sym.spmm(x).scale(-1.0);
            let h = x
                .matmul(&p[0])
                .add(&t1x.matmul(&p[1]))
                .add_row_broadcast(p[2].row(0))
                .relu();
            let t1h = sym.spmm(&h).scale(-1.0);
            h.matmul(&p[3])
                .add(&t1h.matmul(&p[4]))
                .add_row_broadcast(p[5].row(0))
        }
    }
}

fn block(rows: usize, cols: usize, entries: &[(usize, usize, f32)]) -> Csr {
    let mut coo = Coo::new(rows, cols);
    for &(i, j, v) in entries {
        coo.push(i, j, v);
    }
    coo.to_csr()
}

const N_BASE: usize = 7;
const N_NEW: usize = 3;

/// A 7-ring with one weighted chord, so base degrees are not uniform.
fn base_graph() -> Csr {
    let mut coo = Coo::new(N_BASE, N_BASE);
    for i in 0..N_BASE {
        coo.push_sym(i, (i + 1) % N_BASE, 1.0);
    }
    coo.push_sym(0, 3, 0.5);
    coo.to_csr()
}

/// `(name, inc, inter)` for three new nodes: every row attached, some
/// rows structurally empty, no edges at all.
fn batches() -> [(&'static str, Csr, Csr); 3] {
    let (n, b) = (N_NEW, N_BASE);
    [
        (
            "dense",
            block(n, b, &[(0, 0, 1.0), (0, 3, 0.5), (1, 1, 2.0), (1, 6, 1.0), (2, 2, 0.25), (2, 5, 1.5)]),
            block(n, n, &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 0.5), (2, 1, 0.5)]),
        ),
        (
            "some-empty-rows",
            block(n, b, &[(0, 4, 1.0), (2, 0, 0.5), (2, 6, 2.0)]),
            block(n, n, &[(0, 2, 1.0), (2, 0, 1.0)]),
        ),
        ("edge-free", Csr::empty(n, b), Csr::empty(n, n)),
    ]
}

#[test]
fn every_evaluator_agrees_with_the_reference_forward() {
    let base = base_graph();
    let deg = BaseDegrees::of(&base);
    let mut rng = MatRng::seed_from(12);
    let x_base = rng.normal(N_BASE, 4, 0.0, 1.0);
    let x_new = rng.normal(N_NEW, 4, 0.0, 1.0);
    let stacked = x_base.vstack(&x_new);
    for kind in GnnKind::ALL {
        for hops in 0..=3 {
            let mut model = GnnModel::new(kind, 4, 6, 3, 5);
            model.hops = hops;
            let frozen = FrozenBase::new(&model, &base, &x_base);
            // (sym, mean): what the architecture propagates with, if at all.
            let reads = match kind {
                GnnKind::Sage => (false, true),
                GnnKind::Sgc | GnnKind::Appnp if hops == 0 => (false, false),
                _ => (true, false),
            };
            for (case, inc, inter) in &batches() {
                let extended = GraphOps::extended(&base, inc, inter, &deg);
                let grown = base.block_extend(inc, inter);
                let materialised = GraphOps::from_adj(&grown);
                for threads in [1usize, 4] {
                    let tag = format!("{} hops={hops} {case} t{threads}", kind.name());
                    mcond_par::with_thread_limit(threads, || {
                        // dense == reference, on both operator forms.
                        let dense = model.predict(&extended, &stacked);
                        assert_eq!(dense, reference_predict(&model, &extended, &stacked), "dense {tag}");
                        let dense_mat = model.predict(&materialised, &stacked);
                        assert_eq!(
                            dense_mat,
                            reference_predict(&model, &materialised, &stacked),
                            "dense (materialised) {tag}"
                        );

                        // split == bottom rows of the stacked dense, and
                        // builds only the operators the program reads.
                        let split_ops = GraphOps::extended(&base, inc, inter, &deg);
                        let prefix = BasePrefix::new(&model, &x_base);
                        let split = model.predict_split(&split_ops, &prefix, &x_base, &x_new);
                        assert_eq!(split_ops.built(), reads, "operators built {tag}");
                        assert_eq!(
                            split.as_slice(),
                            dense.slice_rows(N_BASE, N_BASE + N_NEW).as_slice(),
                            "split {tag}"
                        );

                        // tape == dense on the same materialised operators.
                        let mut tape = Tape::new();
                        let ps = model.tape_params(&mut tape);
                        let xv = tape.constant(stacked.clone());
                        let out = model.forward(&mut tape, &ps, &materialised, xv);
                        assert_eq!(tape.value(out), &dense_mat, "tape {tag}");

                        // frozen-serve == exact when the batch perturbs nothing.
                        let served = model.predict_frozen(&frozen, inc, inter, &x_new);
                        assert_eq!(served.shape(), split.shape(), "frozen-serve {tag}");
                        assert!(served.all_finite(), "frozen-serve {tag}");
                        if *case == "edge-free" {
                            assert_eq!(served, split, "frozen-serve {tag}");
                        }
                    });
                }
            }
        }
    }
}

fn max_abs_diff(a: &DMat, b: &DMat) -> f32 {
    assert_eq!(a.shape(), b.shape());
    a.as_slice().iter().zip(b.as_slice()).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
}

/// The tape row: Eq. (11)'s extended graph at condensation's shapes
/// (reddit-small at r = 1.5 %, 300 support nodes) — a hollow symmetric `A'`
/// thresholded like the deployed one, a non-negative `S` standing in for
/// `a·M̂` (dense on the tape, `Csr::from_dense(S)` for the split hop), and a
/// sparse symmetric `ã`.
#[test]
fn tape_hop_agrees_with_the_split_hop_and_the_materialised_block() {
    let (n_syn, n, d) = (39, 300, 96);
    let mut rng = MatRng::seed_from(41);
    let u = rng.uniform(n_syn, n_syn, 0.0, 1.0);
    let mut adj = u.add(&u.transpose()).scale(0.5);
    for i in 0..n_syn {
        adj.set(i, i, 0.0);
    }
    let (base, _) = sparsify_dense(&adj, 0.5);
    let s = rng.uniform(n, n_syn, -0.3, 0.2).relu();
    let mut inter = Coo::new(n, n);
    for _ in 0..n {
        let (i, j) = (rng.index(n), rng.index(n));
        if i != j {
            inter.push_sym(i, j, 1.0);
        }
    }
    let inter = inter.to_csr().map_values(|_| 1.0);
    let (x_syn, x_sup) = (rng.normal(n_syn, d, 0.0, 1.0), rng.normal(n, d, 0.0, 1.0));
    let deg = BaseDegrees::of(&base);
    let inc = Csr::from_dense(&s);

    let block = base.to_dense().hstack(&s.transpose()).vstack(&s.hstack(&inter.to_dense()));
    let block_hat = sym_normalize_dense(&block);
    let materialised: Vec<DMat> = (1..=2)
        .scan(x_syn.vstack(&x_sup), |z, _| {
            *z = block_hat.matmul(z);
            Some(z.clone())
        })
        .collect();
    let (base, inter) = (Arc::new(base), Arc::new(inter));
    for threads in [1usize, 4] {
        mcond_par::with_thread_limit(threads, || {
            let matrix = Propagator::extended_sym(&base, &inc, &inter, &deg);
            for hops in [1, 2] {
                let mut tape = Tape::new();
                let s_var = tape.param(s.clone());
                let (xb, xn) = (tape.constant(x_syn.clone()), tape.constant(x_sup.clone()));
                let (b, i) = (Arc::clone(&base), Arc::clone(&inter));
                let rows = TapeExtension::sym(&mut tape, b, s_var, i, &deg).spmm_bottom_pow(hops, xb, xn);
                let on_tape = tape.value(rows);
                let split = matrix.spmm_bottom_pow(hops, &x_syn, &x_sup);
                let dense = materialised[hops - 1].slice_rows(n_syn, n_syn + n);
                let vs_split = max_abs_diff(on_tape, &split);
                let vs_dense = max_abs_diff(on_tape, &dense);
                let tag = format!("{hops} hop(s) t{threads}");
                assert!(vs_split <= 1e-5, "{tag}: tape vs split, max |Δ| = {vs_split}");
                assert!(vs_dense <= 1e-5, "{tag}: tape vs materialised, max |Δ| = {vs_dense}");
            }
        });
    }
}
