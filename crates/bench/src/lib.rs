//! Shared experiment harness for the MCond reproduction.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper;
//! this library holds the common machinery: CLI parsing, the
//! train-once/infer-per-batch evaluation loop, and table/JSON reporting.
//! It times nothing in isolation: what a kernel, a tier, the pool or a
//! condensation step costs is a row of the lifecycle benchmark
//! (`benchmark/`), the workspace's one performance harness.

#![forbid(unsafe_code)]

pub mod cli;
pub mod cost;
pub mod pipeline;
pub mod eval;
pub mod report;

pub use cli::{parse_args, BenchArgs};
pub use eval::{
    evaluate_inductive, mean_std, propagated_embeddings, train_on_graph, EvalResult, EvalSetting,
};
pub use pipeline::{build_pipeline, default_batch_size, default_condense_config, default_epochs, Pipeline};
pub use report::{print_table, Row, TableReport};
