//! The synthetic adjacency generator MLP_Φ of Eq. (6):
//! `A'_ij = σ((MLP_Φ([x'_i; x'_j]) + MLP_Φ([x'_j; x'_i])) / 2)`, with the
//! diagonal zeroed (the normalisation re-adds the self-loop).

use mcond_autodiff::{Adam, Tape, Var};
use mcond_linalg::{DMat, MatRng};

/// A 2-layer MLP over concatenated synthetic-node feature pairs.
pub struct AdjacencyGenerator {
    /// First layer `2d x h`.
    pub w1: DMat,
    /// First-layer bias.
    pub b1: DMat,
    /// Second layer `h x 1`.
    pub w2: DMat,
    /// Second-layer bias.
    pub b2: DMat,
}

impl AdjacencyGenerator {
    /// Glorot-initialised generator for feature dimension `d` and hidden
    /// width `hidden`.
    #[must_use]
    pub fn init(feature_dim: usize, hidden: usize, rng: &mut MatRng) -> Self {
        Self {
            w1: rng.glorot(2 * feature_dim, hidden),
            b1: DMat::zeros(1, hidden),
            w2: rng.glorot(hidden, 1),
            b2: DMat::zeros(1, 1),
        }
    }

    /// Registers Φ's parameters on the tape (order: w1, b1, w2, b2).
    pub fn tape_params(&self, tape: &mut Tape) -> [Var; 4] {
        [
            tape.param(self.w1.clone()),
            tape.param(self.b1.clone()),
            tape.param(self.w2.clone()),
            tape.param(self.b2.clone()),
        ]
    }

    /// Builds the dense `N' x N'` synthetic adjacency from the feature var
    /// `xs` and parameter vars `ps` — the full Eq. (6) with zeroed diagonal.
    /// Values lie in `(0, 1)` off the diagonal.
    pub fn adjacency(&self, tape: &mut Tape, ps: &[Var; 4], xs: Var) -> Var {
        // The first layer is linear in its two halves:
        // [x_i; x_j]·W1 = x_i·W1[..d] + x_j·W1[d..].
        let d = tape.value(xs).cols();
        let w1_i = tape.slice_rows(ps[0], 0, d);
        let w1_j = tape.slice_rows(ps[0], d, 2 * d);
        let p = tape.matmul(xs, w1_i);
        let q = tape.matmul(xs, w1_j);
        let h = tape.pair_sum(p, q); // N'^2 x h
        let h = tape.add_row_broadcast(h, ps[1]);
        let h = tape.relu(h);
        let z = tape.matmul(h, ps[2]);
        let z = tape.add_row_broadcast(z, ps[3]); // N'^2 x 1
        let sym = tape.pair_mean_sym(z); // N' x N'
        let sig = tape.sigmoid(sym);
        tape.zero_diagonal(sig)
    }

    /// Tape-free evaluation of the adjacency for the current parameters —
    /// used after training and by the sparsification step.
    #[must_use]
    pub fn adjacency_detached(&self, xs: &DMat) -> DMat {
        let mut tape = Tape::new();
        let ps = self.tape_params(&mut tape);
        let x = tape.constant(xs.clone());
        let a = self.adjacency(&mut tape, &ps, x);
        tape.value(a).clone()
    }

    /// Creates Adam optimizers for the four parameters, matching
    /// [`AdjacencyGenerator::tape_params`] order.
    #[must_use]
    pub fn optimizers(&self, lr: f32) -> [Adam; 4] {
        [
            Adam::new(lr, self.w1.rows(), self.w1.cols()),
            Adam::new(lr, 1, self.b1.cols()),
            Adam::new(lr, self.w2.rows(), self.w2.cols()),
            Adam::new(lr, 1, 1),
        ]
    }

    /// Applies gradient steps to all four parameters.
    pub fn apply(
        &mut self,
        grads: &mut mcond_autodiff::Gradients,
        ps: &[Var; 4],
        opts: &mut [Adam; 4],
    ) {
        let params = [&mut self.w1, &mut self.b1, &mut self.w2, &mut self.b2];
        for ((param, var), opt) in params.into_iter().zip(ps).zip(opts.iter_mut()) {
            if let Some(g) = grads.take(*var) {
                opt.step(param, &g);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Eq. (6) with the `N'² x 2d` pair matrix written out.
    fn pair_matrix_reference(g: &AdjacencyGenerator, xs: &DMat) -> DMat {
        let (n, d) = xs.shape();
        let mut pairs = DMat::zeros(n * n, 2 * d);
        for i in 0..n {
            for j in 0..n {
                let row = pairs.row_mut(i * n + j);
                row[..d].copy_from_slice(xs.row(i));
                row[d..].copy_from_slice(xs.row(j));
            }
        }
        let h = pairs.matmul(&g.w1).add_row_broadcast(g.b1.row(0)).relu();
        let z = h.matmul(&g.w2).add_row_broadcast(g.b2.row(0));
        let mut a = DMat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let s = 0.5 * (z.get(i * n + j, 0) + z.get(j * n + i, 0));
                    a.set(i, j, mcond_linalg::sigmoid_scalar(s));
                }
            }
        }
        a
    }

    #[test]
    fn adjacency_matches_the_pair_matrix_and_is_symmetric_bounded_and_hollow() {
        // The ruler's shapes: N' = 39 synthetic nodes of reddit-small.
        let (n, d, hidden) = (39, 96, 64);
        let mut rng = MatRng::seed_from(9);
        let mut generator = AdjacencyGenerator::init(d, hidden, &mut rng);
        // Initialised biases are zero; move them so they are exercised.
        generator.b1 = rng.normal(1, hidden, 0.0, 0.1);
        generator.b2 = rng.normal(1, 1, 0.0, 0.1);
        let xs = rng.normal(n, d, 0.0, 1.0);
        let a = generator.adjacency_detached(&xs);
        assert_eq!(a.shape(), (n, n));
        let reference = pair_matrix_reference(&generator, &xs);
        for i in 0..n {
            assert_eq!(a.get(i, i), 0.0, "diagonal must be zeroed");
            for j in 0..n {
                let v = a.get(i, j);
                assert!(
                    (v - reference.get(i, j)).abs() <= 1e-5,
                    "A'[{i}][{j}] = {v}, pair matrix gives {}",
                    reference.get(i, j)
                );
                if i != j {
                    assert!(v > 0.0 && v < 1.0, "A'[{i}][{j}] = {v} out of (0,1)");
                }
                assert_eq!(v, a.get(j, i), "asymmetric at ({i},{j})");
            }
        }
    }

    #[test]
    fn gradient_flows_to_all_parameters_and_features() {
        let mut rng = MatRng::seed_from(10);
        let generator = AdjacencyGenerator::init(4, 6, &mut rng);
        let xs0 = rng.normal(5, 4, 0.0, 1.0);
        let mut tape = Tape::new();
        let ps = generator.tape_params(&mut tape);
        let xs = tape.param(xs0);
        let a = generator.adjacency(&mut tape, &ps, xs);
        let loss = tape.l21(a);
        let grads = tape.backward(loss);
        for p in ps {
            assert!(grads.get(p).is_some(), "missing gradient for a Φ parameter");
        }
        let gx = grads.get(xs).expect("missing gradient for features");
        assert!(gx.frobenius_norm() > 0.0);
    }

    #[test]
    fn training_can_push_edge_values_down() {
        // Minimising Σ σ(...)² should shrink mean edge weight.
        let mut rng = MatRng::seed_from(11);
        let mut generator = AdjacencyGenerator::init(3, 6, &mut rng);
        let xs = rng.normal(5, 3, 0.0, 1.0);
        let before = generator.adjacency_detached(&xs).mean();
        let mut opts = generator.optimizers(0.05);
        for _ in 0..40 {
            let mut tape = Tape::new();
            let ps = generator.tape_params(&mut tape);
            let x = tape.constant(xs.clone());
            let a = generator.adjacency(&mut tape, &ps, x);
            let loss = tape.l21(a);
            let mut grads = tape.backward(loss);
            generator.apply(&mut grads, &ps, &mut opts);
        }
        let after = generator.adjacency_detached(&xs).mean();
        assert!(after < before, "{before} -> {after}");
    }
}
