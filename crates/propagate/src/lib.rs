//! Non-parametric calibration of inductive predictions (paper §IV-D, Q3).
//!
//! Once inductive nodes are wired into a graph — original (Eq. 3) or
//! synthetic-through-mapping (Eq. 11) — two classical propagation schemes
//! can refine predictions at negligible cost:
//!
//! * [`label_propagation`] diffuses the base nodes' (synthetic) labels
//!   `Y'` over the combined structure (Wang & Leskovec 2021),
//! * [`error_propagation`] diffuses the GNN's *residual error* on the base
//!   nodes and corrects inductive predictions (the "Correct" step of
//!   Correct & Smooth, Huang et al. 2021).
//!
//! Both run the damped fixed-point iteration
//! `F ← α Â F + (1 - α) F₀` for a fixed number of steps.

#![forbid(unsafe_code)]

mod propagation;

pub use propagation::{error_propagation, label_propagation, propagate, PropagationConfig};
