//! # mcond
//!
//! A Rust reproduction of **"Graph Condensation for Inductive Node
//! Representation Learning"** (MCond, ICDE 2024).
//!
//! MCond condenses a large training graph `T = {A, X, Y}` into a small
//! synthetic graph `S = {A', X', Y'}` *and* learns an explicit one-to-many
//! mapping `M : N x N'` from original to synthetic nodes, so unseen
//! (inductive) nodes can be attached directly to the synthetic graph via
//! `aM` — message passing then runs on `N' ≪ N` nodes, giving large
//! inference speedups and memory savings at near-par accuracy.
//!
//! This crate is a facade over the workspace:
//!
//! * [`linalg`] — dense matrices ([`linalg::DMat`]),
//! * [`sparse`] — CSR graphs, GCN normalisation, sparsification,
//! * [`autodiff`] — the reverse-mode tape engine,
//! * [`graph`] — datasets, inductive splits, generators,
//! * [`gnn`] — SGC/GCN/GraphSAGE/APPNP/Cheby models and training,
//! * [`core`] — MCond itself plus GCond/coreset/VNG baselines,
//! * [`store`] — versioned, CRC-checked checkpointing of condensed
//!   artifacts ([`core::Checkpoint`] bundles `S`, `M` and the weights),
//! * [`propagate`] — label & error propagation calibration,
//! * [`par`] — the deterministic worker pool behind the kernels
//!   (`MCOND_THREADS`; results are bitwise identical at any thread count),
//! * [`serve`] — the std-only HTTP/1.1 front end: `POST /v1/serve` with
//!   adaptive micro-batching and load shedding over a live socket.
//!
//! ## Quickstart
//!
//! ```no_run
//! use mcond::prelude::*;
//!
//! // 1. An inductive dataset: train subgraph = "original graph" T.
//! let data = load_dataset("pubmed", Scale::Small, 0).unwrap();
//!
//! // 2. Condense T into S and learn the mapping M (Algorithm 1).
//! let condensed = condense(&data, &McondConfig { ratio: 0.02, ..Default::default() });
//!
//! // 3. Train any GNN on the small graph S.
//! let model = {
//!     let ops = GraphOps::from_adj(&condensed.synthetic.adj);
//!     let mut m = GnnModel::new(GnnKind::Sgc, condensed.synthetic.feature_dim(), 64,
//!                               condensed.synthetic.num_classes, 0);
//!     train(&mut m, &ops, &condensed.synthetic.features,
//!           &condensed.synthetic.labels, &TrainConfig::default(), None);
//!     m
//! };
//!
//! // 4. Inductive inference directly on S through M (Eq. 11).
//! let batch = data.test_batches(1000, false).remove(0);
//! let server = InductiveServer::on_synthetic(&condensed.synthetic, &condensed.mapping, &model);
//! let logits = server.try_serve(&batch).expect("test batches are valid");
//! println!("accuracy: {:.2}%", 100.0 * accuracy(&logits, &batch.labels));
//! ```

#![forbid(unsafe_code)]

/// The README's `rust` snippets, compiled as doctests so they cannot
/// outlive the API they show.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub use mcond_autodiff as autodiff;
pub use mcond_core as core;
pub use mcond_gnn as gnn;
pub use mcond_graph as graph;
pub use mcond_linalg as linalg;
pub use mcond_obs as obs;
pub use mcond_propagate as propagate;
pub use mcond_par as par;
pub use mcond_serve as serve;
pub use mcond_sparse as sparse;
pub use mcond_store as store;

/// The most common imports in one place.
pub mod prelude {
    pub use mcond_autodiff::{Adam, Tape, Var};
    pub use mcond_core::{
        condense, coreset, vng, Checkpoint, Condensed, CoresetMethod, DeltaError, DeltaLineage,
        GraphDelta, InductiveServer, LiveBase, McondConfig, PromotionReport, ServeError,
    };
    pub use mcond_gnn::{
        accuracy, extended_storage_bytes, train, FrozenBase, GnnKind, GnnModel, GraphOps,
        TrainConfig,
    };
    pub use mcond_graph::{
        generate_sbm, load_dataset, BatchError, Graph, InductiveDataset, NodeBatch, SbmConfig,
        Scale,
    };
    pub use mcond_linalg::{DMat, MatRng};
    pub use mcond_propagate::{error_propagation, label_propagation, PropagationConfig};
    pub use mcond_serve::{ServeConfig, ServeHandle};
    pub use mcond_sparse::{sparsify_dense, spmm_sparse, sym_normalize, Coo, Csr};
    pub use mcond_store::StoreError;
}
