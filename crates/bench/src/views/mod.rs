//! The paper's tables and figures. Each is a view: a function of
//! `(jobs, dataset)` that pushes rows into its own report. A view's name
//! is the stem of its `results/` files.

mod diagnostics;
mod figures;
mod tables;

use crate::jobs::Jobs;
use crate::report::TableReport;

/// One table or figure.
#[derive(Debug)]
pub struct View {
    /// Stem of the view's `results/` files.
    pub name: &'static str,
    /// Title of its report.
    pub title: &'static str,
    /// Pushes the view's rows for one dataset.
    pub run: fn(&Jobs, &str, &mut TableReport),
}

/// Every view, in the order the driver runs them.
#[rustfmt::skip]
pub const VIEWS: [View; 12] = [
    View { name: "table1_datasets", title: "Table I — dataset properties", run: tables::table1 },
    View { name: "table2_accuracy", title: "Table II — inductive test accuracy (%)", run: tables::table2 },
    View { name: "fig3_cost_graph_batch", title: "Fig. 3 — inference cost, graph batch", run: figures::fig3 },
    View { name: "fig4_cost_node_batch", title: "Fig. 4 — inference cost, node batch", run: figures::fig4 },
    View { name: "table3_propagation", title: "Table III — label/error propagation on O vs S", run: tables::table3 },
    View { name: "table4_architectures", title: "Table IV — accuracy and time across GNN architectures", run: tables::table4 },
    View { name: "table5_ablation", title: "Table V — optimisation-constraint ablation (MCond_SS)", run: tables::table5 },
    View { name: "fig5_mapping_vis", title: "Fig. 5(c) — initialisation study", run: figures::fig5 },
    View { name: "fig6_sparsification", title: "Fig. 6 — accuracy vs mapping sparsity under δ", run: figures::fig6 },
    View { name: "fig7_sensitivity", title: "Fig. 7 — λ/β sensitivity of MCond_OS", run: figures::fig7 },
    View { name: "ablation_serve_mode", title: "Serve-mode ablation — FrozenBase against Exact", run: diagnostics::ablation_serve_mode },
    View { name: "calibrate_datasets", title: "dataset difficulty calibration", run: diagnostics::calibrate_datasets },
];

/// The two batch settings, in table order: graph batches keep test-test
/// edges, node batches drop them.
const BATCH_MODES: [(bool, &str); 2] = [(true, "graph"), (false, "node")];

/// The ratio of the single-ratio views: the larger one for Pubmed and
/// Flickr, the smaller one for Reddit, as in the paper.
fn paper_ratio(jobs: &Jobs, name: &str) -> f64 {
    let [small, large] = jobs.ratios(name);
    if name == "reddit" { small } else { large }
}

/// `name (r%)`, the dataset column of a single-ratio view.
fn at_ratio(name: &str, ratio: f64) -> String {
    format!("{name} ({:.2}%)", 100.0 * ratio)
}

/// Whether a one-dataset figure runs on `name`: on `paper` (the dataset
/// the paper shows) when it is selected, else on the first selected one.
fn is_figure_dataset(jobs: &Jobs, name: &str, paper: &str) -> bool {
    let selected = &jobs.args.datasets;
    name == if selected.iter().any(|d| d == paper) { paper } else { &selected[0] }
}
