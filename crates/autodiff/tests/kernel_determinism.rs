//! Gradient determinism across thread counts and SIMD levels.
//!
//! The backward sweep runs on the same kernel family as the forward pass,
//! so it inherits the kernels' contracts: bitwise invariance across
//! `MCOND_THREADS` at any fixed `MCOND_SIMD` level, and tolerance-level
//! agreement between the FMA tiers and the scalar reference (the sparse
//! adjoint is bitwise identical at every level; only dense matmul adjoints
//! may regroup additions).

use mcond_autodiff::Tape;
use mcond_linalg::simd::{self, SimdLevel};
use mcond_linalg::{approx_eq, DMat, MatRng};
use mcond_sparse::{Coo, Csr};
use std::sync::Arc;

/// A skewed random graph big enough to clear every parallel threshold.
fn graph(rows: usize, cols: usize, seed: u64) -> Csr {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut coo = Coo::new(rows, cols);
    for i in 0..rows {
        let deg = 2 + (next() as usize % 8) + if i % 29 == 0 { 32 } else { 0 };
        for _ in 0..deg {
            let c = (next() as usize) % cols;
            let v = ((next() % 2000) as f32 - 1000.0) / 500.0;
            coo.push(i, c, v);
        }
    }
    coo.to_csr()
}

/// d/dB of `l21(relu(Y)) + l21_dist(T, eq15(Y))` with `Y = (S·B)·W` — a
/// composite touching spmm, matmul, an activation and the two fused row
/// ops, with shapes large enough that both the forward products and the
/// adjoints fan out to the pool.
fn composite_grad(s: &Arc<Csr>, b0: &DMat, w0: &DMat) -> DMat {
    let mut t = Tape::new();
    let b = t.param(b0.clone());
    let y1 = t.spmm(Arc::clone(s), b);
    let w = t.constant(w0.clone());
    let y2 = t.matmul(y1, w);
    let y3 = t.relu(y2);
    let l_relu = t.l21(y3);
    let m = t.sigmoid_row_normalize(y2, 1e-2);
    let target = t.constant(MatRng::seed_from(3).uniform(300, 64, 0.0, 0.05));
    let l_map = t.l21_dist(target, m);
    let l = t.add(l_relu, l_map);
    let mut grads = t.backward(l);
    grads.take(b).expect("gradient must reach the parameter")
}

#[test]
fn composite_gradients_are_thread_invariant_at_every_level() {
    let s = Arc::new(graph(300, 157, 41));
    let b0 = MatRng::seed_from(1).uniform(157, 96, -1.0, 1.0);
    let w0 = MatRng::seed_from(2).uniform(96, 64, -1.0, 1.0);
    let scalar_ref = simd::with_simd_level(SimdLevel::Scalar, || {
        mcond_par::with_thread_limit(1, || composite_grad(&s, &b0, &w0))
    });
    for level in simd::available_levels() {
        let one = simd::with_simd_level(level, || {
            mcond_par::with_thread_limit(1, || composite_grad(&s, &b0, &w0))
        });
        let four = simd::with_simd_level(level, || {
            mcond_par::with_thread_limit(4, || composite_grad(&s, &b0, &w0))
        });
        assert_eq!(
            one.as_slice(),
            four.as_slice(),
            "gradient drifted across thread counts at level {}",
            level.name()
        );
        // Across levels only tolerance equality is promised (dense FMA
        // tiers regroup additions); the values must still agree closely.
        for (g, r) in one.as_slice().iter().zip(scalar_ref.as_slice()) {
            assert!(
                approx_eq(*g, *r, 1e-3),
                "level {} gradient {g} vs scalar {r}",
                level.name()
            );
        }
    }
}
