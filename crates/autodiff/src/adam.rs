//! The Adam optimizer (Kingma & Ba), as used for all trainable pieces in the
//! paper (relay GNN weights, synthetic features `X'`, MLP_Φ, mapping `M`).

use mcond_linalg::DMat;

/// Adam state for one parameter tensor.
///
/// Keep one `Adam` per parameter and call [`Adam::step`] with the parameter
/// and its freshly computed gradient each iteration.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: DMat,
    v: DMat,
}

impl Adam {
    /// Standard Adam with β₁ = 0.9, β₂ = 0.999, ε = 1e-8, no weight decay.
    #[must_use]
    pub fn new(lr: f32, rows: usize, cols: usize) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: DMat::zeros(rows, cols),
            v: DMat::zeros(rows, cols),
        }
    }

    /// Adds L2 weight decay (added to the gradient, classic Adam style).
    #[must_use]
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Current learning rate.
    #[must_use]
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// One Adam update of `param` given `grad`.
    ///
    /// # Panics
    /// Panics when shapes disagree with the state.
    pub fn step(&mut self, param: &mut DMat, grad: &DMat) {
        assert_eq!(param.shape(), self.m.shape(), "Adam::step: parameter shape changed");
        assert_eq!(param.shape(), grad.shape(), "Adam::step: gradient shape mismatch");
        self.t += 1;
        let b1 = self.beta1;
        let b2 = self.beta2;
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        let p = param.as_mut_slice();
        let m = self.m.as_mut_slice();
        let v = self.v.as_mut_slice();
        for i in 0..p.len() {
            let g = grad.as_slice()[i] + self.weight_decay * p[i];
            m[i] = b1 * m[i] + (1.0 - b1) * g;
            v[i] = b2 * v[i] + (1.0 - b2) * g * g;
            let m_hat = m[i] / bc1;
            let v_hat = v[i] / bc2;
            p[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }

    /// Resets the moment estimates and step counter (used between outer
    /// loops of the alternating optimisation).
    pub fn reset(&mut self) {
        self.t = 0;
        self.m.map_assign(|_| 0.0);
        self.v.map_assign(|_| 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise f(x) = (x - 3)², gradient 2(x - 3).
    #[test]
    fn adam_converges_on_quadratic() {
        let mut x = DMat::from_vec(1, 1, vec![0.0]);
        let mut opt = Adam::new(0.1, 1, 1);
        for _ in 0..500 {
            let g = DMat::from_vec(1, 1, vec![2.0 * (x.get(0, 0) - 3.0)]);
            opt.step(&mut x, &g);
        }
        assert!((x.get(0, 0) - 3.0).abs() < 1e-3, "got {}", x.get(0, 0));
    }

    #[test]
    fn first_step_moves_by_lr() {
        // With bias correction, |Δx| == lr on the first step (for any g ≠ 0).
        let mut x = DMat::from_vec(1, 1, vec![1.0]);
        let mut opt = Adam::new(0.05, 1, 1);
        opt.step(&mut x, &DMat::from_vec(1, 1, vec![123.0]));
        assert!((x.get(0, 0) - (1.0 - 0.05)).abs() < 1e-5);
    }

    #[test]
    fn weight_decay_shrinks_params_without_gradient() {
        let mut x = DMat::from_vec(1, 1, vec![10.0]);
        let mut opt = Adam::new(0.1, 1, 1).with_weight_decay(0.1);
        for _ in 0..100 {
            opt.step(&mut x, &DMat::zeros(1, 1));
        }
        assert!(x.get(0, 0) < 10.0);
    }

    #[test]
    fn reset_clears_momentum() {
        let mut x = DMat::from_vec(1, 1, vec![0.0]);
        let mut opt = Adam::new(0.1, 1, 1);
        opt.step(&mut x, &DMat::from_vec(1, 1, vec![1.0]));
        opt.reset();
        let before = x.get(0, 0);
        // After reset, a first step again moves by exactly lr.
        opt.step(&mut x, &DMat::from_vec(1, 1, vec![5.0]));
        assert!((x.get(0, 0) - (before - 0.1)).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "gradient shape mismatch")]
    fn shape_mismatch_panics() {
        let mut x = DMat::zeros(2, 2);
        let mut opt = Adam::new(0.1, 2, 2);
        opt.step(&mut x, &DMat::zeros(1, 1));
    }
}
