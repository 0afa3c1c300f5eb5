//! Shared experiment harness for the MCond reproduction.
//!
//! The `repro` binary regenerates every table and figure of the paper in
//! one process: each is a view ([`views`]) over one job table ([`jobs`])
//! that builds each dataset, condensation and trained model once per run.
//! This library holds that machinery plus CLI parsing, the
//! train-once/infer-per-batch evaluation loop, and table/JSON reporting.
//! It times nothing in isolation: what a kernel, a tier, the pool or a
//! condensation step costs is a row of the lifecycle benchmark
//! (`benchmark/`), the workspace's one performance harness.

#![forbid(unsafe_code)]

pub mod cli;
pub mod eval;
pub mod jobs;
pub mod report;
pub mod views;

pub use cli::{parse_args, BenchArgs};
pub use eval::{evaluate_inductive, mean_std, propagated_embeddings, train_on_graph, EvalResult};
pub use jobs::{default_batch_size, default_condense_config, default_epochs, Jobs};
pub use report::{Row, TableReport};
