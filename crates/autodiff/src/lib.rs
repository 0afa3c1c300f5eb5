//! Reverse-mode automatic differentiation over [`mcond_linalg::DMat`].
//!
//! The Rust GNN-autodiff ecosystem is thin, so this crate implements the
//! differentiation engine the MCond reproduction needs: a define-by-run
//! [`Tape`] whose nodes hold forward values, and a single reverse sweep that
//! accumulates gradients for every recorded operation.
//!
//! The op set is exactly what the paper's objectives require:
//!
//! * dense/sparse products and element-wise algebra (GNN layers, Eq. 1),
//! * a **differentiable symmetric GCN normalisation** (training through the
//!   learned synthetic adjacency `A'`),
//! * the **pairwise-MLP adjacency generator** plumbing (Eq. 6:
//!   [`Tape::pair_sum`], [`Tape::pair_mean_sym`]),
//! * a degree scaling whose degrees are on the tape ([`Tape::inv_sqrt`],
//!   [`Tape::scale_rows`]) — Eq. (11)'s extended graph propagated block by
//!   block, never assembled,
//! * the mapping matrix's Eq. (15) normalisation as one fused op
//!   ([`Tape::sigmoid_row_normalize`]; [`sigmoid_row_normalized`] is the
//!   same kernel off the tape),
//! * loss heads: softmax cross-entropy, the *softmax error* term used by
//!   gradient matching (Eq. 4), column-wise cosine distance (Eq. 5),
//!   link-reconstruction BCE over sampled pairs (Eq. 8), and the L2,1 norm
//!   (Eq. 10/12), also as a distance [`Tape::l21_dist`] that records no
//!   difference matrix, and as [`Tape::l21_gram_dist`], the same distance
//!   from a [`GramTarget`]'s statistics with no `d`-wide work at all.
//!
//! # Example
//! ```
//! use mcond_autodiff::Tape;
//! use mcond_linalg::DMat;
//! let mut tape = Tape::new();
//! let x = tape.param(DMat::from_rows(&[&[1.0, 2.0]]));
//! let w = tape.param(DMat::from_rows(&[&[3.0], &[4.0]]));
//! let y = tape.matmul(x, w);
//! let loss = tape.l21(y); // ||xW||_{2,1} = |1*3 + 2*4| = 11
//! let grads = tape.backward(loss);
//! assert_eq!(grads.get(w).unwrap().as_slice(), &[1.0, 2.0]);
//! ```

#![forbid(unsafe_code)]

mod adam;
mod backward;
pub mod check;
mod gram;
mod ops_basic;
mod ops_graph;
mod ops_loss;
mod tape;

pub use adam::Adam;
pub use backward::Gradients;
pub use gram::GramTarget;
pub use tape::{Tape, Var};

/// Eq. (15) off the tape: the value [`Tape::sigmoid_row_normalize`]
/// records, computed by the same row kernel.
#[must_use]
pub fn sigmoid_row_normalized(x: &mcond_linalg::DMat, eps: f32) -> mcond_linalg::DMat {
    ops_basic::sigmoid_row_normalize_rows(x, eps).0
}
