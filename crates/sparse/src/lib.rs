//! Sparse matrix substrate for the `mcond` workspace.
//!
//! Graphs are stored as [`Csr`] (compressed sparse row) matrices; [`Coo`]
//! is the mutable builder format. The kernels here are exactly the ones the
//! paper's pipeline needs:
//!
//! * CSR × dense SpMM — the message-passing primitive (`Â H`),
//! * symmetric GCN normalisation `D̃^{-1/2} Ã D̃^{-1/2}` (Eq. 1),
//! * row normalisation (for incremental adjacencies `a` and `aM`),
//! * threshold sparsification (Eq. 14) with storage accounting.
//!
//! # Example
//! ```
//! use mcond_sparse::{Coo, Csr};
//! use mcond_linalg::DMat;
//! let mut coo = Coo::new(3, 3);
//! coo.push(0, 1, 1.0);
//! coo.push(1, 0, 1.0);
//! let adj: Csr = coo.to_csr();
//! let h = DMat::eye(3);
//! let out = adj.spmm(&h); // one propagation step
//! assert_eq!(out.get(0, 1), 1.0);
//! ```

mod coo;
mod csr;
mod normalize;
mod sparsify;

pub use coo::Coo;
pub use csr::{spmm_sparse, Csr};
pub use normalize::{
    renormalize_rows, row_normalize_dense, sym_normalize, sym_normalize_dense,
    sym_normalize_dense_with_scale,
};
pub use sparsify::{sparsify_dense, SparsifyStats};
