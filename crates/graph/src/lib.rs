//! Graph data substrate for the `mcond` workspace.
//!
//! Provides the attributed-graph type consumed by every algorithm
//! ([`Graph`]), the **inductive split** machinery of the paper's evaluation
//! ([`InductiveDataset`]: the original graph is the induced training
//! subgraph; validation/test nodes are *inductive* and arrive with an
//! incremental adjacency `a` into the training nodes), and calibrated
//! synthetic generators standing in for Pubmed / Flickr / Reddit
//! (see `DESIGN.md` §3 for the substitution rationale).
//!
//! # Example
//! ```
//! use mcond_graph::{load_dataset, Scale};
//! let data = load_dataset("pubmed", Scale::Small, 0).unwrap();
//! assert_eq!(data.full.num_classes, 3);
//! let original = data.original_graph();
//! assert_eq!(original.num_nodes(), data.train_idx.len());
//! ```

#![forbid(unsafe_code)]

mod graph;
mod import;
mod inductive;
mod sbm;
mod specs;
mod validate;

pub use graph::{Graph, GraphStats};
pub use import::import_graph;
pub use inductive::{InductiveDataset, NodeBatch};
pub use validate::BatchError;
pub use sbm::{generate_sbm, SbmConfig};
pub use specs::{dataset_spec, load_dataset, DatasetSpec, Scale, DATASET_NAMES};
