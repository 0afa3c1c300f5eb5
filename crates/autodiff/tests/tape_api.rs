//! Behavioural tests of the tape API itself: bookkeeping, gradient
//! accumulation, constant handling, and reuse.

use mcond_autodiff::Tape;
use mcond_linalg::{approx_eq, DMat};
use std::sync::Arc;

#[test]
fn tape_length_tracks_recorded_nodes() {
    let mut tape = Tape::new();
    assert!(tape.is_empty());
    let a = tape.param(DMat::eye(2));
    let b = tape.constant(DMat::eye(2));
    let _ = tape.add(a, b);
    assert_eq!(tape.len(), 3);
    tape.clear();
    assert!(tape.is_empty());
}

#[test]
fn value_returns_forward_result() {
    let mut tape = Tape::new();
    let a = tape.param(DMat::from_rows(&[&[1.0, 2.0]]));
    let b = tape.constant(DMat::from_rows(&[&[3.0, 4.0]]));
    let c = tape.hadamard(a, b);
    assert_eq!(tape.value(c), &DMat::from_rows(&[&[3.0, 8.0]]));
}

#[test]
fn scalar_reads_one_by_one_nodes() {
    let mut tape = Tape::new();
    let a = tape.param(DMat::from_rows(&[&[2.0, 2.0]]));
    let l = tape.l21(a);
    assert!(approx_eq(tape.scalar(l), 8.0f32.sqrt(), 1e-5));
}

#[test]
#[should_panic(expected = "scalar")]
fn scalar_rejects_matrices() {
    let mut tape = Tape::new();
    let a = tape.param(DMat::eye(2));
    let _ = tape.scalar(a);
}

#[test]
#[should_panic(expected = "loss must be scalar")]
fn backward_rejects_matrix_loss() {
    let mut tape = Tape::new();
    let a = tape.param(DMat::eye(2));
    let _ = tape.backward(a);
}

#[test]
fn gradients_accumulate_when_a_var_is_reused() {
    // loss = l21(x + x) => grad = 2 * d l21(2x)/d(2x) applied twice.
    let x0 = DMat::from_rows(&[&[3.0, 4.0]]);
    let mut tape = Tape::new();
    let x = tape.param(x0.clone());
    let y = tape.add(x, x);
    let l = tape.l21(y);
    let grads = tape.backward(l);
    let g = grads.get(x).unwrap();
    // d‖2x‖/dx = 2·x/‖x‖: for (3,4): (1.2, 1.6).
    assert!(approx_eq(g.get(0, 0), 1.2, 1e-4));
    assert!(approx_eq(g.get(0, 1), 1.6, 1e-4));
}

#[test]
fn constants_receive_no_gradient() {
    let mut tape = Tape::new();
    let a = tape.param(DMat::eye(2));
    let b = tape.constant(DMat::eye(2));
    let y = tape.matmul(a, b);
    let l = tape.l21(y);
    let grads = tape.backward(l);
    assert!(grads.get(a).is_some());
    assert!(grads.get(b).is_none());
}

#[test]
fn take_removes_gradient() {
    let mut tape = Tape::new();
    let a = tape.param(DMat::eye(3));
    let l = tape.l21(a);
    let mut grads = tape.backward(l);
    assert!(grads.take(a).is_some());
    assert!(grads.take(a).is_none());
    assert!(grads.get(a).is_none());
}

#[test]
fn branches_after_the_loss_do_not_contribute() {
    // Nodes recorded after the loss node must not affect its gradient.
    let mut tape = Tape::new();
    let x = tape.param(DMat::from_rows(&[&[1.0, 1.0]]));
    let l = tape.l21(x);
    let _unrelated = tape.scale(x, 100.0);
    let grads = tape.backward(l);
    let g = grads.get(x).unwrap();
    let norm = 2.0f32.sqrt();
    assert!(approx_eq(g.get(0, 0), 1.0 / norm, 1e-4));
}

#[test]
fn diamond_graph_accumulates_both_paths() {
    // y = relu(x) + sigmoid(x): both branches feed the loss.
    let mut tape = Tape::new();
    let x = tape.param(DMat::from_rows(&[&[0.5]]));
    let r = tape.relu(x);
    let s = tape.sigmoid(x);
    let y = tape.add(r, s);
    let l = tape.l21(y);
    let grads = tape.backward(l);
    // dl/dy = 1 (positive scalar row), dy/dx = 1 + σ'(0.5).
    let sig = 1.0 / (1.0 + (-0.5f32).exp());
    let expected = 1.0 + sig * (1.0 - sig);
    assert!(approx_eq(grads.get(x).unwrap().get(0, 0), expected, 1e-4));
}

#[test]
fn cleared_tape_can_be_reused() {
    let mut tape = Tape::new();
    for step in 0..3 {
        tape.clear();
        let x = tape.param(DMat::filled(2, 2, step as f32 + 1.0));
        let l = tape.l21(x);
        let grads = tape.backward(l);
        assert!(grads.get(x).is_some());
    }
}

#[test]
fn select_rows_with_duplicates_doubles_gradient() {
    let mut tape = Tape::new();
    let x = tape.param(DMat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]));
    let sel = tape.select_rows(x, Arc::new(vec![0, 0]));
    let l = tape.l21(sel);
    let grads = tape.backward(l);
    let g = grads.get(x).unwrap();
    // Row 0 selected twice: gradient = 2 · x_0/‖x_0‖ = (2, 0); row 1 was
    // never selected, so its gradient is zero.
    assert!(approx_eq(g.get(0, 0), 2.0, 1e-4));
    assert_eq!(g.get(1, 1), 0.0);
}

#[test]
fn multi_parameter_backward_gives_gradients_to_each() {
    let mut tape = Tape::new();
    let w1 = tape.param(DMat::eye(2));
    let w2 = tape.param(DMat::filled(2, 2, 0.5));
    let x = tape.constant(DMat::from_rows(&[&[1.0, 2.0]]));
    let h = tape.matmul(x, w1);
    let y = tape.matmul(h, w2);
    let l = tape.l21(y);
    let grads = tape.backward(l);
    assert!(grads.get(w1).unwrap().frobenius_norm() > 0.0);
    assert!(grads.get(w2).unwrap().frobenius_norm() > 0.0);
}

#[test]
fn l21_value_and_gradient_are_the_uncached_expressions_bitwise() {
    // The op keeps its per-row norms for backward; value and gradient must
    // stay what recomputing them gives: Σ_i ‖x_i‖ and seed·x_ij/‖x_i‖.
    let x0 = DMat::from_rows(&[&[0.3, -1.2, 0.7], &[0.0, 0.0, 0.0], &[-0.9, 0.8, 1.5]]);
    let mut tape = Tape::new();
    let x = tape.param(x0.clone());
    let norm = tape.l21(x);
    let l = tape.scale(norm, 0.37);
    assert_eq!(tape.scalar(norm).to_bits(), x0.l21_norm().to_bits());
    let grads = tape.backward(l);
    let g = grads.get(x).unwrap();
    for i in 0..x0.rows() {
        let row_norm = x0.row(i).iter().map(|v| v * v).sum::<f32>().sqrt();
        for (j, v) in x0.row(i).iter().enumerate() {
            let expected = if row_norm > 1e-12 { 0.37 * v / row_norm } else { 0.0 };
            assert_eq!(g.get(i, j).to_bits(), expected.to_bits(), "entry ({i}, {j})");
        }
    }
}

#[test]
fn inv_sqrt_clamps_non_positive_degrees_to_zero_with_zero_gradient() {
    // The same rule as `sym_normalize`: such a node neither sends nor
    // receives messages, and no NaN/Inf reaches the loss or the gradient.
    let mut tape = Tape::new();
    let d = tape.param(DMat::from_rows(&[&[4.0], &[0.0], &[-1.0]]));
    let r = tape.inv_sqrt(d);
    assert_eq!(tape.value(r), &DMat::from_rows(&[&[0.5], &[0.0], &[0.0]]));
    let x = tape.constant(DMat::filled(3, 2, 1.0));
    let y = tape.scale_rows(x, r);
    let l = tape.l21(y);
    let grads = tape.backward(l);
    let g = grads.get(d).unwrap();
    assert!(g.get(0, 0) < 0.0);
    assert_eq!((g.get(1, 0), g.get(2, 0)), (0.0, 0.0));
}

#[test]
fn shared_leaves_match_by_value_leaves_bitwise_and_are_left_untouched() {
    // loss = ‖P·Cᵀ + P⊙C‖₂,₁ with P a parameter and C a constant.
    fn loss_and_grad(p: impl Into<Arc<DMat>>, c: impl Into<Arc<DMat>>) -> (u32, Vec<u32>) {
        let mut tape = Tape::new();
        let p = tape.param(p);
        let c = tape.constant(c);
        let ct = tape.transpose(c);
        let prod = tape.matmul(p, ct);
        let had = tape.hadamard(p, c);
        let sum = tape.add(prod, had);
        let l = tape.l21(sum);
        let grads = tape.backward(l);
        assert!(grads.get(c).is_none(), "a shared constant still receives no gradient");
        let g = grads.get(p).expect("parameter gradient");
        (tape.scalar(l).to_bits(), g.as_slice().iter().map(|v| v.to_bits()).collect())
    }
    let x0 = DMat::from_rows(&[&[0.3, -1.2, 0.7], &[2.0, 0.1, -0.4], &[-0.9, 0.8, 1.5]]);
    let by_value = loss_and_grad(x0.clone(), x0.clone());

    // One Arc, registered twice on one tape (param and constant), on two
    // successive tapes.
    let shared = Arc::new(x0.clone());
    for _ in 0..2 {
        assert_eq!(loss_and_grad(Arc::clone(&shared), Arc::clone(&shared)), by_value);
    }
    assert_eq!(*shared, x0, "the tape never writes through a leaf");
    assert_eq!(Arc::strong_count(&shared), 1, "dropped tapes release their leaves");
}
