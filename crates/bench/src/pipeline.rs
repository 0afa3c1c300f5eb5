//! Shared construction of the per-(dataset, ratio, seed) experiment state.

use crate::eval::train_on_graph;
use mcond_core::{condense, Condensed, McondConfig};
use mcond_gnn::{GnnKind, GnnModel};
use mcond_graph::{load_dataset, Graph, InductiveDataset, Scale};

/// Everything the experiment binaries need for one configuration: the
/// dataset, the MCond artefacts, and SGC models trained on each side.
pub struct Pipeline {
    /// The inductive dataset.
    pub data: InductiveDataset,
    /// The original (training) graph `T`.
    pub original: Graph,
    /// MCond condensation output (`S`, `M`, traces).
    pub mcond: Condensed,
    /// SGC trained on the original graph (the `O->·` model).
    pub model_original: GnnModel,
    /// SGC trained on the MCond synthetic graph (the `S->·` model).
    pub model_synthetic: GnnModel,
    /// Epochs used for GNN training (scale-dependent).
    pub epochs: usize,
}

/// Per-dataset loss weights `(λ, β)` selected on the validation split with
/// the Fig. 7 sweep (the paper grid-searches both per dataset; §IV-A).
#[must_use]
pub fn tuned_loss_weights(dataset: &str) -> (f32, f32) {
    match dataset {
        "pubmed" => (1.0, 1.0),
        "flickr" => (10.0, 10.0),
        // reddit and unknown datasets.
        _ => (10.0, 1.0),
    }
}

/// Default condensation configuration per dataset and scale: the paper's
/// 3000–4000 epochs map to (outer × relay) steps here; the small scale uses
/// enough to converge on the synthetic datasets in seconds.
#[must_use]
pub fn default_condense_config(
    dataset: &str,
    scale: Scale,
    ratio: f64,
    seed: u64,
) -> McondConfig {
    let (lambda, beta) = tuned_loss_weights(dataset);
    match scale {
        Scale::Small => McondConfig {
            ratio,
            outer_loops: 6,
            relay_steps: 15,
            mapping_steps: 80,
            support_cap: 300,
            lambda,
            beta,
            seed,
            ..McondConfig::default()
        },
        Scale::Paper => McondConfig {
            ratio,
            outer_loops: 10,
            relay_steps: 25,
            mapping_steps: 100,
            support_cap: 512,
            structure_batch: 1024,
            transductive_batch: 4096,
            lambda,
            beta,
            seed,
            ..McondConfig::default()
        },
    }
}

/// GNN training epochs per scale.
#[must_use]
pub fn default_epochs(scale: Scale) -> usize {
    match scale {
        Scale::Small => 150,
        Scale::Paper => 400,
    }
}

/// Inference batch size per scale. The paper evaluates with batches of
/// 1000 test nodes on graphs of 20k-233k nodes; the small scale uses 100 so
/// a batch stays a comparably small fraction of the graph (otherwise the
/// graph-batch setting's test-test interconnections dominate and inflate
/// every baseline).
#[must_use]
pub fn default_batch_size(scale: Scale) -> usize {
    match scale {
        Scale::Small => 100,
        Scale::Paper => 1000,
    }
}

/// The per-ratio half of a [`Pipeline`]: condensation and the SGC trained
/// on its output.
fn build_synthetic(
    data: &InductiveDataset,
    dataset: &str,
    scale: Scale,
    ratio: f64,
    seed: u64,
    epochs: usize,
) -> (Condensed, GnnModel) {
    let mcond = condense(data, &default_condense_config(dataset, scale, ratio, seed));
    let model_synthetic = train_on_graph(&mcond.synthetic, GnnKind::Sgc, epochs, 64, seed);
    (mcond, model_synthetic)
}

/// Builds the full pipeline for one configuration.
///
/// # Panics
/// Panics on unknown dataset names (the binaries validate earlier).
#[must_use]
pub fn build_pipeline(
    dataset: &str,
    scale: Scale,
    ratio: f64,
    seed: u64,
    epochs_override: Option<usize>,
) -> Pipeline {
    let data = load_dataset(dataset, scale, seed).expect("dataset name validated by caller");
    let original = data.original_graph();
    let epochs = epochs_override.unwrap_or_else(|| default_epochs(scale));
    let model_original = train_on_graph(&original, GnnKind::Sgc, epochs, 64, seed);
    let (mcond, model_synthetic) = build_synthetic(&data, dataset, scale, ratio, seed, epochs);
    Pipeline { data, original, mcond, model_original, model_synthetic, epochs }
}

/// Hands `each` the pipeline of every ratio in turn. The ratio-independent
/// half — the dataset, `T` and the model trained on it, minutes at paper
/// scale — is built once; only the condensation and the model trained on
/// `S` are redone per ratio.
///
/// # Panics
/// Panics on unknown dataset names (the binaries validate earlier).
pub fn build_pipelines(
    dataset: &str,
    scale: Scale,
    ratios: &[f64],
    seed: u64,
    epochs_override: Option<usize>,
    mut each: impl FnMut(f64, &Pipeline),
) {
    let Some((&first, rest)) = ratios.split_first() else { return };
    let mut p = build_pipeline(dataset, scale, first, seed, epochs_override);
    each(first, &p);
    for &ratio in rest {
        (p.mcond, p.model_synthetic) =
            build_synthetic(&p.data, dataset, scale, ratio, seed, p.epochs);
        each(ratio, &p);
    }
}
