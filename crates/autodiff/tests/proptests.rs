//! Property-style tests of the autodiff engine: structural identities the
//! tape must satisfy for arbitrary inputs. Cases are drawn from the
//! workspace's seeded [`MatRng`] (no external fuzzing crate); assertion
//! messages carry the case index for deterministic replay.

use mcond_autodiff::Tape;
use mcond_linalg::{approx_eq, DMat, MatRng};

const CASES: u64 = 48;

fn case_rng(salt: u64, case: u64) -> MatRng {
    MatRng::seed_from(0xAD1F ^ (salt << 32) ^ case)
}

fn arb_mat(rng: &mut MatRng, max_dim: usize) -> DMat {
    let r = 1 + rng.index(max_dim);
    let c = 1 + rng.index(max_dim);
    rng.uniform(r, c, -3.0, 3.0)
}

/// Backward of a linear map is input-independent: for l = Σ rows ‖·‖ of
/// (s·X), scaling the *loss* by c scales the gradient by c.
#[test]
fn gradient_scales_linearly_with_loss_scaling() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let m = arb_mat(&mut rng, 8);
        let c = 0.5 + 2.5 * rng.unit();
        let grad_of = |scale: f32| {
            let mut tape = Tape::new();
            let x = tape.param(m.clone());
            let l = tape.l21(x);
            let scaled = tape.scale(l, scale);
            let grads = tape.backward(scaled);
            grads.get(x).cloned().unwrap_or_else(|| DMat::zeros(m.rows(), m.cols()))
        };
        let g1 = grad_of(1.0);
        let gc = grad_of(c);
        for (a, b) in g1.as_slice().iter().zip(gc.as_slice()) {
            assert!(approx_eq(*a * c, *b, 1e-3), "case {case}: {} vs {b}", a * c);
        }
    }
}

/// Sum rule: grad(l1 + l2) == grad(l1) + grad(l2).
#[test]
fn gradient_of_sum_is_sum_of_gradients() {
    for case in 0..CASES {
        let m = arb_mat(&mut case_rng(2, case), 6);
        let both = {
            let mut tape = Tape::new();
            let x = tape.param(m.clone());
            let l1 = tape.l21(x);
            let s = tape.sigmoid(x);
            let l2 = tape.l21(s);
            let l = tape.add(l1, l2);
            let grads = tape.backward(l);
            grads.get(x).cloned().unwrap()
        };
        let separate = {
            let g = |which: usize| {
                let mut tape = Tape::new();
                let x = tape.param(m.clone());
                let l = if which == 0 {
                    tape.l21(x)
                } else {
                    let s = tape.sigmoid(x);
                    tape.l21(s)
                };
                let grads = tape.backward(l);
                grads.get(x).cloned().unwrap_or_else(|| DMat::zeros(m.rows(), m.cols()))
            };
            g(0).add(&g(1))
        };
        for (a, b) in both.as_slice().iter().zip(separate.as_slice()) {
            assert!(approx_eq(*a, *b, 1e-3), "case {case}: {a} vs {b}");
        }
    }
}

/// Transpose symmetry: grad through a transpose equals transposed grad.
#[test]
fn transpose_pushes_gradient_through() {
    for case in 0..CASES {
        let m = arb_mat(&mut case_rng(3, case), 7);
        let direct = {
            let mut tape = Tape::new();
            let x = tape.param(m.clone());
            let l = tape.l21(x);
            tape.backward(l).get(x).cloned().unwrap()
        };
        let via_double_transpose = {
            let mut tape = Tape::new();
            let x = tape.param(m.clone());
            let t = tape.transpose(x);
            let tt = tape.transpose(t);
            let l = tape.l21(tt);
            tape.backward(l).get(x).cloned().unwrap()
        };
        for (a, b) in direct.as_slice().iter().zip(via_double_transpose.as_slice()) {
            assert!(approx_eq(*a, *b, 1e-4), "case {case}: {a} vs {b}");
        }
    }
}

/// The forward value of composed ops matches eager dense evaluation.
#[test]
fn forward_values_match_eager_algebra() {
    for case in 0..CASES {
        let m = arb_mat(&mut case_rng(4, case), 6);
        let mut tape = Tape::new();
        let x = tape.param(m.clone());
        let r = tape.relu(x);
        let s = tape.scale(r, 2.0);
        let eager = m.relu().scale(2.0);
        assert_eq!(tape.value(s), &eager, "case {case}");
    }
}

/// vstack/slice_rows round trip preserves gradients exactly.
#[test]
fn vstack_slice_round_trip() {
    for case in 0..CASES {
        let m = arb_mat(&mut case_rng(5, case), 5);
        let mut tape = Tape::new();
        let x = tape.param(m.clone());
        let doubled = tape.vstack(x, x);
        let back = tape.slice_rows(doubled, 0, m.rows());
        let l = tape.l21(back);
        let g_roundtrip = tape.backward(l).get(x).cloned().unwrap();

        let mut tape2 = Tape::new();
        let x2 = tape2.param(m.clone());
        let l2 = tape2.l21(x2);
        let g_direct = tape2.backward(l2).get(x2).cloned().unwrap();
        for (a, b) in g_roundtrip.as_slice().iter().zip(g_direct.as_slice()) {
            assert!(approx_eq(*a, *b, 1e-4), "case {case}: {a} vs {b}");
        }
    }
}

/// Softmax cross-entropy is non-negative and ln(C) at uniform logits.
#[test]
fn cross_entropy_bounds() {
    for case in 0..CASES {
        let mut rng = case_rng(6, case);
        let rows = 1 + rng.index(5);
        let cols = 2 + rng.index(3);
        let mut tape = Tape::new();
        let logits = tape.param(DMat::zeros(rows, cols));
        let labels = std::sync::Arc::new((0..rows).map(|i| i % cols).collect::<Vec<_>>());
        let l = tape.softmax_cross_entropy(logits, labels);
        let v = tape.scalar(l);
        assert!(v >= 0.0, "case {case}");
        assert!(approx_eq(v, (cols as f32).ln(), 1e-4), "case {case}: {v}");
    }
}
