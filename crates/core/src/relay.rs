//! The relay GNN `f(·)` of §III-A.
//!
//! Following the paper's protocol (§IV-A), the relay used during
//! condensation is SGC: `H = Â^L X W + b`. Because SGC is linear in its
//! parameters, the cross-entropy weight gradient has the closed form
//! `G_W = Zᵀ E`, `G_b = 1ᵀ E` with `Z = Â^L X` and
//! `E = (softmax(ZW + b) - onehot(Y)) / N` — which is what lets gradient
//! matching differentiate *through the relay gradient* exactly with
//! first-order autodiff (see `mcond-autodiff`'s `softmax_error`).

use mcond_autodiff::{Adam, Tape, Var};
use mcond_graph::Graph;
use mcond_linalg::{DMat, MatRng};
use mcond_sparse::sym_normalize;
use std::sync::Arc;

/// `Z = Â^L X` on `graph`: the relay's pre-propagated features, and the
/// embeddings the Herding / K-Center / VNG baselines select on.
#[must_use]
pub fn propagated_embeddings(graph: &Graph, hops: usize) -> DMat {
    let ahat = sym_normalize(&graph.adj);
    (0..hops).fold(graph.features.clone(), |z, _| ahat.spmm(&z))
}

/// A relay SGC model: one weight `d x C` and one bias `1 x C`.
pub struct Relay {
    /// Linear weight.
    pub w: DMat,
    /// Bias row.
    pub b: DMat,
}

impl Relay {
    /// Fresh Glorot-initialised relay (one draw from `P_θ0` of Eq. 4).
    #[must_use]
    pub fn init(feature_dim: usize, num_classes: usize, rng: &mut MatRng) -> Self {
        Self { w: rng.glorot(feature_dim, num_classes), b: DMat::zeros(1, num_classes) }
    }

    /// Embeddings `H = Z W + b` for pre-propagated features `Z` (tape-free).
    #[must_use]
    pub fn embed(&self, z: &DMat) -> DMat {
        z.matmul(&self.w).add_row_broadcast(self.b.row(0))
    }

    /// The analytic cross-entropy gradient on pre-propagated features:
    /// `[G_W; G_b]` stacked into one `(d + 1) x C` matrix (the per-layer
    /// stack of Eq. 5's gradient set).
    #[must_use]
    pub fn gradient(&self, z: &DMat, labels: &[usize]) -> DMat {
        let n = z.rows().max(1) as f32;
        let mut err = self.embed(z).softmax_rows();
        for (i, &y) in labels.iter().enumerate() {
            let v = err.get(i, y) - 1.0;
            err.set(i, y, v);
        }
        err.scale_assign(1.0 / n);
        let gw = z.matmul_tn(&err);
        let gb = DMat::from_vec(1, err.cols(), err.col_sums());
        gw.vstack(&gb)
    }

    /// Tape expression of the same stacked gradient for a *variable*
    /// pre-propagated feature node `z` (the synthetic side of Eq. 4).
    /// `w`/`b` enter as constants — the relay is frozen while `S` updates.
    pub fn gradient_on_tape(&self, tape: &mut Tape, z: Var, labels: Arc<Vec<usize>>) -> Var {
        let w = tape.constant(self.w.clone());
        let b = tape.constant(self.b.clone());
        let zw = tape.matmul(z, w);
        let logits = tape.add_row_broadcast(zw, b);
        let err = tape.softmax_error(logits, labels);
        let zt = tape.transpose(z);
        let gw = tape.matmul(zt, err);
        // G_b = column sums of E == onesᵀ E.
        let n = tape.value(err).rows();
        let ones = tape.constant(DMat::filled(1, n, 1.0));
        let gb = tape.matmul(ones, err);
        tape.vstack(gw, gb)
    }

    /// One optimisation step of the relay parameters on a (detached)
    /// synthetic graph — line 11 of Algorithm 1. Returns the loss.
    pub fn train_step(
        &mut self,
        z_detached: &DMat,
        labels: &[usize],
        opt_w: &mut Adam,
        opt_b: &mut Adam,
    ) -> f32 {
        let mut tape = Tape::new();
        let w = tape.param(self.w.clone());
        let b = tape.param(self.b.clone());
        let z = tape.constant(z_detached.clone());
        let zw = tape.matmul(z, w);
        let logits = tape.add_row_broadcast(zw, b);
        let loss = tape.softmax_cross_entropy(logits, Arc::new(labels.to_vec()));
        let value = tape.scalar(loss);
        let mut grads = tape.backward(loss);
        if let Some(g) = grads.take(w) {
            opt_w.step(&mut self.w, &g);
        }
        if let Some(g) = grads.take(b) {
            opt_b.step(&mut self.b, &g);
        }
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcond_linalg::approx_eq;

    fn fixture() -> (Relay, DMat, Vec<usize>) {
        let mut rng = MatRng::seed_from(3);
        let relay = Relay::init(4, 3, &mut rng);
        let z = rng.normal(6, 4, 0.0, 1.0);
        let labels = vec![0usize, 1, 2, 0, 1, 2];
        (relay, z, labels)
    }

    #[test]
    fn analytic_gradient_matches_tape_gradient() {
        let (relay, z, labels) = fixture();
        let analytic = relay.gradient(&z, &labels);

        // Tape version with z constant should produce identical values.
        let mut tape = Tape::new();
        let zv = tape.constant(z.clone());
        let g = relay.gradient_on_tape(&mut tape, zv, Arc::new(labels.clone()));
        let tape_val = tape.value(g);
        assert_eq!(analytic.shape(), tape_val.shape());
        for (a, b) in analytic.as_slice().iter().zip(tape_val.as_slice()) {
            assert!(approx_eq(*a, *b, 1e-5), "{a} vs {b}");
        }
    }

    #[test]
    fn analytic_gradient_matches_autodiff_of_ce() {
        // Differentiate CE(ZW + b) w.r.t. W/b with the tape and compare.
        let (relay, z, labels) = fixture();
        let mut tape = Tape::new();
        let w = tape.param(relay.w.clone());
        let b = tape.param(relay.b.clone());
        let zv = tape.constant(z.clone());
        let zw = tape.matmul(zv, w);
        let logits = tape.add_row_broadcast(zw, b);
        let loss = tape.softmax_cross_entropy(logits, Arc::new(labels.clone()));
        let grads = tape.backward(loss);
        let stacked = relay.gradient(&z, &labels);
        let gw = grads.get(w).unwrap();
        let gb = grads.get(b).unwrap();
        for i in 0..gw.rows() {
            for j in 0..gw.cols() {
                assert!(approx_eq(stacked.get(i, j), gw.get(i, j), 1e-5));
            }
        }
        for j in 0..gb.cols() {
            assert!(approx_eq(stacked.get(gw.rows(), j), gb.get(0, j), 1e-5));
        }
    }

    #[test]
    fn train_step_reduces_loss() {
        let (mut relay, z, labels) = fixture();
        let mut ow = Adam::new(0.1, relay.w.rows(), relay.w.cols());
        let mut ob = Adam::new(0.1, 1, relay.b.cols());
        let first = relay.train_step(&z, &labels, &mut ow, &mut ob);
        let mut last = first;
        for _ in 0..60 {
            last = relay.train_step(&z, &labels, &mut ow, &mut ob);
        }
        assert!(last < first * 0.5, "{first} -> {last}");
    }

    #[test]
    fn embed_shapes() {
        let (relay, z, _) = fixture();
        assert_eq!(relay.embed(&z).shape(), (6, 3));
    }
}
