//! **MCond** — mapping-aware graph condensation (ICDE 2024), the paper's
//! core contribution, plus every baseline its evaluation compares against.
//!
//! Given an original training graph `T = {A, X, Y}`, [`condense`] jointly
//! learns:
//!
//! 1. a small synthetic graph `S = {A', X', Y'}` via gradient matching
//!    (Eq. 4–5) with a pairwise-MLP adjacency generator (Eq. 6) and a
//!    topology-preserving structure loss (Eq. 8–9), and
//! 2. a sparse one-to-many **mapping matrix** `M : N x N'` (Eq. 15 init /
//!    normalisation) trained under transductive (Eq. 10) and inductive
//!    (Eq. 12) constraints,
//!
//! alternating between the two (Algorithm 1) and finishing with threshold
//! sparsification (Eq. 14). At inference time, [`InductiveServer::try_serve`]
//! implements Eq. (11): an unseen node with incremental adjacency `a` into
//! the original nodes is wired into `S` through `aM`, so message passing
//! runs on `N' ≪ N` nodes.
//!
//! Baselines: [`coreset`] (Random / Degree / Herding / K-Center) and
//! [`vng`] (virtual node graph via weighted k-means).
//!
//! # Example
//! ```no_run
//! use mcond_core::{condense, McondConfig};
//! use mcond_graph::{load_dataset, Scale};
//! let data = load_dataset("pubmed", Scale::Small, 0).unwrap();
//! let result = condense(&data, &McondConfig { ratio: 0.02, ..McondConfig::default() });
//! println!("synthetic nodes: {}", result.synthetic.num_nodes());
//! ```

#![forbid(unsafe_code)]

mod adjgen;
mod artifact;
pub mod chaos;
mod checkpoint;
mod condense;
mod coreset;
mod delta;
mod epoch;
mod mapping;
mod relay;
mod sampling;
mod serve_error;
mod server;
mod vng;

pub use adjgen::AdjacencyGenerator;
pub use artifact::{load_condensed, save_condensed, Artifact};
pub use checkpoint::Checkpoint;
pub use condense::{condense, CondenseHistory, Condensed, McondConfig};
pub use coreset::{coreset, CoresetMethod, ReducedGraph};
pub use delta::{DeltaError, GraphDelta, LiveBase, PromotionReport};
pub use epoch::{EpochServer, EpochSlot};
pub use mapping::{class_correlation_of, Mapping};
pub use relay::{propagated_embeddings, Relay};
pub use sampling::sample_edge_batch;
pub use serve_error::ServeError;
pub use server::{InductiveServer, DEFAULT_MAX_BATCH};
pub use vng::vng;
