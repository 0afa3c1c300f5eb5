//! GNN model zoo for the MCond reproduction.
//!
//! All five architectures of the paper's Table IV are implemented on the
//! `mcond-autodiff` tape: SGC (the condensation/deployment model), GCN,
//! GraphSAGE (mean aggregator), APPNP and ChebNet. A shared [`GnnModel`]
//! value owns the parameters; [`train`] fits it on any `(adjacency,
//! features, labels)` triple — original or synthetic graph alike — and
//! [`GnnModel::predict`] runs tape-free inference.
//!
//! [`accuracy`] and [`extended_storage_bytes`] are the paper's evaluation
//! metrics: test accuracy and the storage model `O(‖A‖₀ + (N + n)d)` of
//! §II-B.

#![forbid(unsafe_code)]

#[cfg(test)]
mod contract;
mod frozen;
mod metrics;
mod model;
mod prefix;
mod propagator;
mod trainer;

pub use frozen::FrozenBase;
pub use metrics::{accuracy, confusion_counts, extended_storage_bytes};
pub use model::{GnnKind, GnnModel, GraphOps};
pub use prefix::BasePrefix;
pub use propagator::{BaseDegrees, Propagator, TapeExtension};
pub use trainer::{train, TrainConfig, TrainReport};
