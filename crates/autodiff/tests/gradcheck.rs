//! Finite-difference verification of every autodiff op.
//!
//! f32 central differences are noisy, so steps and tolerances are chosen
//! per-op; the point is catching wrong adjoint formulas (which produce
//! order-1 errors), not chasing ulps.

use mcond_autodiff::check::assert_gradients_match;
use mcond_autodiff::{GramTarget, Tape, Var};
use mcond_linalg::{DMat, MatRng};
use mcond_sparse::Coo;
use std::sync::Arc;

fn small(rows: usize, cols: usize, seed: u64) -> DMat {
    MatRng::seed_from(seed).uniform(rows, cols, -1.0, 1.0)
}

#[test]
fn matmul_lhs_and_rhs() {
    let b0 = small(3, 2, 1);
    assert_gradients_match(&small(4, 3, 0), 1e-2, 2e-2, |t, p| {
        let a = t.param(p);
        let b = t.constant(b0.clone());
        let y = t.matmul(a, b);
        let l = t.l21(y);
        (a, l)
    });
    let a0 = small(4, 3, 2);
    assert_gradients_match(&small(3, 2, 3), 1e-2, 2e-2, |t, p| {
        let a = t.constant(a0.clone());
        let b = t.param(p);
        let y = t.matmul(a, b);
        let l = t.l21(y);
        (b, l)
    });
}

#[test]
fn spmm_rhs() {
    let mut coo = Coo::new(4, 3);
    coo.push(0, 1, 2.0);
    coo.push(1, 0, -1.0);
    coo.push(3, 2, 0.5);
    coo.push(2, 1, 1.5);
    let s = Arc::new(coo.to_csr());
    assert_gradients_match(&small(3, 2, 4), 1e-2, 2e-2, |t, p| {
        let b = t.param(p);
        let y = t.spmm(Arc::clone(&s), b);
        let l = t.l21(y);
        (b, l)
    });
}

#[test]
fn elementwise_ops() {
    let other = small(3, 3, 5);
    assert_gradients_match(&small(3, 3, 6), 1e-2, 2e-2, |t, p| {
        let a = t.param(p);
        let b = t.constant(other.clone());
        let s1 = t.add(a, b);
        let s2 = t.hadamard(s1, b);
        let s3 = t.scale(s2, 1.7);
        let l = t.l21(s3);
        (a, l)
    });
}

#[test]
fn activations() {
    // Shift away from 0 so ReLU's kink doesn't break finite differences.
    let base = small(3, 3, 7).map(|v| v + if v >= 0.0 { 0.3 } else { -0.3 });
    assert_gradients_match(&base, 1e-3, 3e-2, |t, p| {
        let a = t.param(p);
        let r = t.relu(a);
        let s = t.sigmoid(r);
        let l = t.l21(s);
        (a, l)
    });
}

#[test]
fn structural_ops() {
    let other = small(2, 4, 8);
    assert_gradients_match(&small(3, 4, 9), 1e-2, 2e-2, |t, p| {
        let a = t.param(p);
        let b = t.constant(other.clone());
        let v = t.vstack(a, b); // 5 x 4
        let tr = t.transpose(v); // 4 x 5
        let s = t.slice_rows(tr, 1, 4); // 3 x 5
        let sel = t.select_rows(s, Arc::new(vec![0, 2, 2, 1]));
        let l = t.l21(sel);
        (a, l)
    });
}

#[test]
fn add_row_broadcast_bias() {
    let x0 = small(4, 3, 10);
    assert_gradients_match(&small(1, 3, 11), 1e-2, 2e-2, |t, p| {
        let x = t.constant(x0.clone());
        let b = t.param(p);
        let y = t.add_row_broadcast(x, b);
        let l = t.l21(y);
        (b, l)
    });
}

#[test]
fn sigmoid_row_normalize_with_clamped_entries() {
    // Eq. (15) with ε = 0.1: row 0 keeps two entries and clamps two (each
    // ≈ 0.09 below the threshold, far outside the FD step), the other rows
    // keep all four.
    let mut base = small(3, 4, 12);
    base.row_mut(0).copy_from_slice(&[3.0, 2.5, -4.0, -5.0]);
    let w0 = small(4, 2, 39);
    assert_gradients_match(&base, 1e-3, 3e-2, |t, p| {
        let a = t.param(p);
        let y = t.sigmoid_row_normalize(a, 0.1);
        let w = t.constant(w0.clone());
        let z = t.matmul(y, w);
        let l = t.l21(z);
        (a, l)
    });
}

#[test]
fn sym_normalize() {
    let base = MatRng::seed_from(13).uniform(4, 4, 0.1, 1.0);
    assert_gradients_match(&base, 1e-3, 3e-2, |t, p| {
        let a = t.param(p);
        let y = t.sym_normalize(a);
        let l = t.l21(y);
        (a, l)
    });
}

#[test]
fn scale_rows_both_sides() {
    let scales = MatRng::seed_from(31).uniform(4, 1, 0.5, 2.0);
    assert_gradients_match(&small(4, 3, 32), 1e-2, 2e-2, |t, p| {
        let a = t.param(p);
        let v = t.constant(scales.clone());
        let y = t.scale_rows(a, v);
        let l = t.l21(y);
        (a, l)
    });
    let a0 = small(4, 3, 33);
    assert_gradients_match(&scales, 1e-2, 2e-2, |t, p| {
        let a = t.constant(a0.clone());
        let v = t.param(p);
        let y = t.scale_rows(a, v);
        let l = t.l21(y);
        (v, l)
    });
}

#[test]
fn inv_sqrt_on_positive_degrees() {
    // Degrees of a graph with self-loops are >= 1; stay clear of the clamp.
    let base = MatRng::seed_from(34).uniform(5, 1, 1.0, 4.0);
    let x0 = small(5, 3, 35);
    assert_gradients_match(&base, 1e-3, 3e-2, |t, p| {
        let d = t.param(p);
        let r = t.inv_sqrt(d);
        let x = t.constant(x0.clone());
        let y = t.scale_rows(x, r);
        let l = t.l21(y);
        (d, l)
    });
}

#[test]
fn pair_sum_and_mean_sym() {
    // Eq. (6) as the adjacency generator records it: p_i + q_j per pair.
    let w0 = small(5, 1, 14);
    let q0 = small(4, 5, 36);
    assert_gradients_match(&small(4, 5, 15), 1e-2, 3e-2, |t, p| {
        let pv = t.param(p);
        let qv = t.constant(q0.clone());
        let ps = t.pair_sum(pv, qv); // 16 x 5
        let w = t.constant(w0.clone());
        let z = t.matmul(ps, w); // 16 x 1
        let sym = t.pair_mean_sym(z); // 4 x 4
        let sig = t.sigmoid(sym);
        let l = t.l21(sig);
        (pv, l)
    });
    // Both operands at once: x feeds p and q, as X' does.
    let w1 = small(6, 5, 37);
    assert_gradients_match(&small(4, 3, 38), 1e-2, 3e-2, |t, p| {
        let x = t.param(p);
        let w = t.constant(w1.clone());
        let w_i = t.slice_rows(w, 0, 3);
        let w_j = t.slice_rows(w, 3, 6);
        let pv = t.matmul(x, w_i);
        let qv = t.matmul(x, w_j);
        let ps = t.pair_sum(pv, qv);
        let act = t.sigmoid(ps);
        let l = t.l21(act);
        (x, l)
    });
}

#[test]
fn softmax_cross_entropy_grad() {
    let labels = Arc::new(vec![0usize, 2, 1, 2]);
    assert_gradients_match(&small(4, 3, 16), 1e-2, 2e-2, |t, p| {
        let logits = t.param(p);
        let l = t.softmax_cross_entropy(logits, Arc::clone(&labels));
        (logits, l)
    });
}

#[test]
fn softmax_error_second_order_path() {
    // The gradient-matching path: loss = distance(const, ZᵀE(ZW)).
    let labels = Arc::new(vec![1usize, 0, 1]);
    let w0 = small(2, 2, 17);
    let target = small(2, 2, 18);
    assert_gradients_match(&small(3, 2, 19), 1e-2, 4e-2, |t, p| {
        let z = t.param(p);
        let w = t.constant(w0.clone());
        let logits = t.matmul(z, w);
        let e = t.softmax_error(logits, Arc::clone(&labels));
        let zt = t.transpose(z);
        let g = t.matmul(zt, e); // analytic SGC weight gradient
        let tgt = t.constant(target.clone());
        let l = t.l21_dist(g, tgt);
        (z, l)
    });
}

#[test]
fn l21_away_from_zero_rows() {
    let base = small(3, 4, 20).map(|v| v + 2.0);
    assert_gradients_match(&base, 1e-3, 2e-2, |t, p| {
        let a = t.param(p);
        let l = t.l21(a);
        (a, l)
    });
}

#[test]
fn l21_dist_both_sides_with_a_zero_residual_row() {
    // Row 1 of the operands coincides: its norm is 0 and its gradient is
    // zero on both sides (the FD quotient of |h| is 0 too).
    let other = small(3, 4, 40);
    let mut base = small(3, 4, 41);
    base.row_mut(1).copy_from_slice(other.row(1));
    assert_gradients_match(&base, 1e-3, 2e-2, |t, p| {
        let a = t.param(p);
        let b = t.constant(other.clone());
        let l = t.l21_dist(a, b);
        (a, l)
    });
    assert_gradients_match(&base, 1e-3, 2e-2, |t, p| {
        let a = t.constant(other.clone());
        let b = t.param(p);
        let l = t.l21_dist(a, b);
        (b, l)
    });
}

/// The unfused Eq. (15) chain the fused op replaced — `sigmoid`, row-sum
/// division, `+ (−ε)`, `relu` — on `DMat`s: its value, and the gradient
/// its four backward rules give for the upstream gradient `g`.
fn eq15_chain_reference(x: &DMat, eps: f32, g: &DMat) -> (DMat, DMat) {
    let sig = x.sigmoid();
    let sums = sig.row_sums();
    let mut div = sig.clone();
    for (i, &s) in sums.iter().enumerate() {
        if s != 0.0 {
            for v in div.row_mut(i) {
                *v /= s;
            }
        }
    }
    let shifted = div.map(|v| v + -eps);
    let mask = shifted.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
    let g_relu = g.hadamard(&mask);
    let mut g_div = DMat::zeros(g.rows(), g.cols());
    for (i, &s) in sums.iter().enumerate() {
        if s == 0.0 {
            continue;
        }
        let inner: f32 = g_relu.row(i).iter().zip(div.row(i)).map(|(gv, yv)| gv * yv).sum();
        for (dst, gv) in g_div.row_mut(i).iter_mut().zip(g_relu.row(i)) {
            *dst = (gv - inner) / s;
        }
    }
    (shifted.relu(), g_div.hadamard(&sig.map(|v| v * (1.0 - v))))
}

/// `sub` then `l21`, on `DMat`s: the value and both operands' gradients
/// for the upstream scalar `seed`.
fn l21_of_difference_reference(a: &DMat, b: &DMat, seed: f32) -> (f32, DMat, DMat) {
    let diff = a.sub(b);
    let norms: Vec<f32> =
        (0..diff.rows()).map(|i| diff.row(i).iter().map(|v| v * v).sum::<f32>().sqrt()).collect();
    let mut ga = DMat::zeros(diff.rows(), diff.cols());
    for (i, &norm) in norms.iter().enumerate() {
        if norm > 1e-12 {
            for (dst, v) in ga.row_mut(i).iter_mut().zip(diff.row(i)) {
                *dst = seed * v / norm;
            }
        }
    }
    let gb = ga.scale(-1.0);
    (norms.iter().sum(), ga, gb)
}

#[test]
fn fused_ops_have_the_bits_of_the_chains_they_replace() {
    // 300 rows clear the row-pass chunk size, so 4 threads split the work.
    let mut x = MatRng::seed_from(42).normal(300, 39, 0.0, 3.0);
    x.row_mut(0).fill(-200.0); // σ underflows: a zero-sum row
    x.row_mut(1).fill(-0.0);
    x.row_mut(2).fill(-6.0); // ε clamps all but the first three
    x.row_mut(2)[..3].copy_from_slice(&[6.0, 5.0, 4.0]);
    let w0 = MatRng::seed_from(43).normal(39, 8, 0.0, 1.0);
    let target = MatRng::seed_from(44).normal(300, 8, 0.0, 1.0);
    let eps = 1e-2;
    // d/dY of the downstream loss: the same ops on a tape whose leaf is Y.
    let downstream = |t: &mut Tape, y: Var| {
        let w = t.constant(w0.clone());
        let z = t.matmul(y, w);
        let tgt = t.constant(target.clone());
        t.l21_dist(tgt, z)
    };
    for threads in [1, 4] {
        mcond_par::with_thread_limit(threads, || {
            let mut t = Tape::new();
            let xv = t.param(x.clone());
            let y = t.sigmoid_row_normalize(xv, eps);
            let l = downstream(&mut t, y);
            let gx = t.backward(l).take(xv).expect("gradient reaches x");

            let mut t2 = Tape::new();
            let y2 = t2.param(t.value(y).clone());
            let l2 = downstream(&mut t2, y2);
            let g_up = t2.backward(l2).take(y2).expect("gradient reaches Y");
            let (value, grad) = eq15_chain_reference(&x, eps, &g_up);
            assert!(t.value(y).bit_eq(&value), "Eq. 15 value at {threads} thread(s)");
            assert!(gx.bit_eq(&grad), "Eq. 15 gradient at {threads} thread(s)");
            assert!(value.row(2)[3..].iter().all(|&v| v == 0.0), "ε must clamp row 2");
        });
    }

    let a0 = MatRng::seed_from(45).normal(300, 96, 0.0, 1.0);
    let mut b0 = MatRng::seed_from(46).normal(300, 96, 0.0, 1.0);
    b0.row_mut(7).copy_from_slice(a0.row(7)); // a zero residual row
    let (value, ga_ref, gb_ref) = l21_of_difference_reference(&a0, &b0, 0.7);
    assert_eq!(gb_ref.get(7, 0).to_bits(), (-0.0f32).to_bits());
    for threads in [1, 4] {
        mcond_par::with_thread_limit(threads, || {
            let mut t = Tape::new();
            let (a, b) = (t.param(a0.clone()), t.param(b0.clone()));
            let d = t.l21_dist(a, b);
            let l = t.scale(d, 0.7);
            let mut grads = t.backward(l);
            assert_eq!(t.scalar(d).to_bits(), value.to_bits(), "L2,1 value at {threads} thread(s)");
            assert!(grads.take(a).expect("gradient reaches a").bit_eq(&ga_ref));
            assert!(grads.take(b).expect("gradient reaches b").bit_eq(&gb_ref));
        });
    }
}

/// Rows of an Eq. (15)-shaped mapping (non-negative, each summing to
/// less than 1) for `rows` targets and `k` synthetic nodes.
fn mapping_rows(rows: usize, k: usize, seed: u64) -> DMat {
    let mut m = MatRng::seed_from(seed).uniform(rows, k, 0.0, 1.0);
    for i in 0..rows {
        let s: f32 = m.row(i).iter().sum();
        m.row_mut(i).iter_mut().for_each(|v| *v *= 0.9 / s);
    }
    m
}

/// `l21_dist(Z, M·H)` on a tape: the value, and the gradient w.r.t. `M`
/// scaled by `seed` — what `l21_gram_dist` replaces.
fn l21_of_product(m0: &DMat, h: &DMat, z: &DMat, seed: f32) -> (f32, DMat) {
    let mut t = Tape::new();
    let m = t.param(m0.clone());
    let hv = t.constant(h.clone());
    let mh = t.matmul(m, hv);
    let zv = t.constant(z.clone());
    let d = t.l21_dist(zv, mh);
    let l = t.scale(d, seed);
    (t.scalar(d), t.backward(l).take(m).expect("gradient reaches M"))
}

fn l21_gram(m0: &DMat, target: &Arc<GramTarget>, seed: f32) -> (f32, DMat) {
    let mut t = Tape::new();
    let m = t.param(m0.clone());
    let d = t.l21_gram_dist(m, Arc::clone(target));
    let l = t.scale(d, seed);
    (t.scalar(d), t.backward(l).take(m).expect("gradient reaches M"))
}

/// The largest `|a − b| / max(|b|, 1e-2)`: `check_gradient`'s error
/// measure, with `b` as the reference.
fn max_rel_err(a: &DMat, b: &DMat) -> f32 {
    let pairs = a.as_slice().iter().zip(b.as_slice());
    pairs.map(|(x, y)| (x - y).abs() / y.abs().max(1e-2)).fold(0.0, f32::max)
}

#[test]
fn l21_gram_dist_finite_differences() {
    let h = small(4, 6, 50);
    let z = small(5, 6, 51);
    let target = Arc::new(GramTarget::new(&z, &h));
    assert_gradients_match(&mapping_rows(5, 4, 52), 1e-3, 2e-2, |t, p| {
        let m = t.param(p);
        let l = t.l21_gram_dist(m, Arc::clone(&target));
        (m, l)
    });
}

#[test]
fn l21_gram_dist_agrees_with_l21_dist_of_the_product() {
    let (n, k, d) = (40, 7, 24);
    // Dyadic `H` and row 0 of `M` keep every product and sum behind row 0
    // exact, so an exact fit there is `s_0 = 0` exactly and takes the
    // `r ≤ 1e-12` branch: a zero gradient, not 0/0.
    let h = DMat::from_vec(k, d, (0..k * d).map(|e| ((e * 7 % 9) as f32 - 4.0) / 4.0).collect());
    let mut m = mapping_rows(n, k, 54);
    m.row_mut(0).iter_mut().enumerate().for_each(|(j, v)| *v = (j % 3) as f32 / 16.0);
    let fit = m.matmul(&h);
    let mut z = fit.add(&MatRng::seed_from(55).normal(n, d, 0.0, 0.5));
    z.row_mut(0).copy_from_slice(fit.row(0));
    // Row 1 nearly fits: residual / ‖Z_1‖ = ρ = 1e-3.
    let rho = 1e-3;
    let nudge = MatRng::seed_from(56).normal(1, d, 0.0, 1.0);
    let norm = |v: &[f32]| v.iter().map(|x| x * x).sum::<f32>().sqrt();
    let step = rho * norm(fit.row(1)) / norm(nudge.row(0));
    for ((dst, f), e) in z.row_mut(1).iter_mut().zip(fit.row(1)).zip(nudge.row(0)) {
        *dst = f + e * step;
    }

    let (value, grad) = l21_gram(&m, &Arc::new(GramTarget::new(&z, &h)), 0.7);
    let (ref_value, ref_grad) = l21_of_product(&m, &h, &z, 0.7);
    assert!((value - ref_value).abs() <= 1e-5 * ref_value, "value {value} vs {ref_value}");
    assert!(grad.all_finite(), "a zero residual must not give NaN");
    assert!(grad.row(0).iter().all(|&v| v == 0.0), "exact fit: {:?}", grad.row(0));
    let err = max_rel_err(&grad.slice_rows(2, n), &ref_grad.slice_rows(2, n));
    assert!(err <= 1e-4, "rows far from a fit: gradient error {err}");
    // `s_1` is a difference of terms of size ‖Z_1‖², so its rounding is
    // ≈ 2⁻²⁴/ρ² ≈ 6e-2 of it (4.3e-2 measured): the cancellation the op's
    // doc states, bounded, not a wrong rule (which errs by order 1).
    let err = max_rel_err(&grad.slice_rows(1, 2), &ref_grad.slice_rows(1, 2));
    assert!(err <= 0.1, "near-fit row: gradient error {err}");
}

#[test]
fn l21_gram_dist_over_sampled_rows() {
    let (n, k, d) = (30, 6, 16);
    let h = MatRng::seed_from(57).normal(k, d, 0.0, 1.0);
    let m0 = mapping_rows(n, k, 58);
    let z = m0.matmul(&h).add(&MatRng::seed_from(59).normal(n, d, 0.0, 0.5));
    let ids = Arc::new(vec![3usize, 17, 3, 29, 0, 11]); // row 3 twice
    let gram = GramTarget::new(&z, &h);
    let mut t = Tape::new();
    let m = t.param(m0.clone());
    let rows = t.select_rows(m, Arc::clone(&ids));
    let d_gram = t.l21_gram_dist(rows, Arc::new(gram.select_rows(&ids)));
    let value = t.scalar(d_gram);
    let grad = t.backward(d_gram).take(m).expect("gradient reaches M");

    let mut t = Tape::new();
    let m = t.param(m0.clone());
    let rows = t.select_rows(m, Arc::clone(&ids));
    let hv = t.constant(h.clone());
    let mh = t.matmul(rows, hv);
    let zv = t.constant(z.select_rows(&ids));
    let d_ref = t.l21_dist(zv, mh);
    let ref_value = t.scalar(d_ref);
    let ref_grad = t.backward(d_ref).take(m).expect("gradient reaches M");
    assert!((value - ref_value).abs() <= 1e-5 * ref_value, "value {value} vs {ref_value}");
    let err = max_rel_err(&grad, &ref_grad);
    assert!(err <= 1e-4, "gradient error {err}");
    assert!(grad.row(1).iter().all(|&v| v == 0.0), "an unsampled row gets no gradient");
}

#[test]
fn l21_gram_dist_is_thread_invariant() {
    // 300 rows clear the row-pass chunk size, so 4 threads split the work.
    let h = MatRng::seed_from(60).normal(39, 96, 0.0, 1.0);
    let m0 = mapping_rows(300, 39, 61);
    let z = m0.matmul(&h).add(&MatRng::seed_from(62).normal(300, 96, 0.0, 0.5));
    let run = |threads| {
        mcond_par::with_thread_limit(threads, || {
            l21_gram(&m0, &Arc::new(GramTarget::new(&z, &h)), 0.7)
        })
    };
    let (v1, g1) = run(1);
    let (v4, g4) = run(4);
    assert_eq!(v1.to_bits(), v4.to_bits(), "value at 1 and 4 threads");
    assert!(g1.bit_eq(&g4), "gradient at 1 and 4 threads");
}

#[test]
fn cosine_col_dist_both_sides() {
    let other = small(4, 3, 21);
    assert_gradients_match(&small(4, 3, 22), 1e-3, 4e-2, |t, p| {
        let a = t.param(p);
        let b = t.constant(other.clone());
        let l = t.cosine_col_dist(a, b);
        (a, l)
    });
    let first = small(4, 3, 23);
    assert_gradients_match(&small(4, 3, 24), 1e-3, 4e-2, |t, p| {
        let a = t.constant(first.clone());
        let b = t.param(p);
        let l = t.cosine_col_dist(a, b);
        (b, l)
    });
}

#[test]
fn pair_bce_grad() {
    let pairs = Arc::new(vec![(0u32, 1u32, 1.0f32), (1, 2, 0.0), (0, 2, 1.0), (2, 2, 0.0)]);
    assert_gradients_match(&small(3, 4, 25), 1e-2, 3e-2, |t, p| {
        let h = t.param(p);
        let l = t.pair_bce(h, Arc::clone(&pairs));
        (h, l)
    });
}

#[test]
fn zero_diagonal_masks_gradient() {
    assert_gradients_match(&small(4, 4, 27), 1e-2, 2e-2, |t, p| {
        let a = t.param(p);
        let z = t.zero_diagonal(a);
        let l = t.l21(z);
        (a, l)
    });
}

#[test]
fn composite_two_layer_gcn_like_network() {
    // ReLU(Â X W1) W2 with cross-entropy: the full training path.
    let mut coo = Coo::new(5, 5);
    for &(i, j) in &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)] {
        coo.push_sym(i, j, 1.0);
    }
    let adj = Arc::new(mcond_sparse::sym_normalize(&coo.to_csr()));
    let x0 = small(5, 3, 28);
    let w2 = small(4, 2, 29);
    let labels = Arc::new(vec![0usize, 1, 0, 1, 0]);
    assert_gradients_match(&small(3, 4, 30), 1e-2, 4e-2, |t, p| {
        let x = t.constant(x0.clone());
        let w1 = t.param(p);
        let xw = t.matmul(x, w1);
        let h1 = t.spmm(Arc::clone(&adj), xw);
        let h1 = t.relu(h1);
        let w2v = t.constant(w2.clone());
        let h2 = t.matmul(h1, w2v);
        let logits = t.spmm(Arc::clone(&adj), h2);
        let l = t.softmax_cross_entropy(logits, Arc::clone(&labels));
        (w1, l)
    });
}
