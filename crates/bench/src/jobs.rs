//! The run's job table: every dataset, condensation and trained model the
//! views ask for is built once and handed out as an `Rc`.
//!
//! A job's key names everything it is built from: a dataset is
//! `(name, seed)`, a condensation its dataset's key plus the full
//! [`McondConfig`] (its `Debug` text covers every field), a model its
//! graph's key plus kind, epochs, hidden width and seed. The driver builds
//! a fresh table for each dataset, so a run holds one dataset's jobs at a
//! time.

use crate::cli::BenchArgs;
use crate::eval::train_on_graph;
use mcond_core::{condense, Condensed, McondConfig};
use mcond_gnn::{GnnKind, GnnModel};
use mcond_graph::{dataset_spec, load_dataset, Graph, InductiveDataset, Scale};
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Deref;
use std::rc::Rc;

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

/// Hidden width of every model the job table trains.
const HIDDEN: usize = 64;

/// A built job: its key and its output (which it dereferences to).
pub struct Job<T> {
    /// Everything the output was built from, as text.
    pub key: String,
    value: T,
}

impl<T> Deref for Job<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

/// A generated dataset and its original (training) graph `T`.
pub struct Dataset {
    /// Registry name (`pubmed`, `flickr`, `reddit`).
    pub name: String,
    /// Generator and split seed.
    pub seed: u64,
    /// The inductive dataset.
    pub data: InductiveDataset,
    /// `data.original_graph()`, built once.
    pub original: Graph,
}

/// A job whose output has a graph a model can be trained on: `T` for a
/// dataset, `S` for a condensation.
pub trait TrainGraph {
    /// The graph to train on.
    fn train_graph(&self) -> &Graph;
}

impl TrainGraph for Dataset {
    fn train_graph(&self) -> &Graph {
        &self.original
    }
}

impl TrainGraph for Condensed {
    fn train_graph(&self) -> &Graph {
        &self.synthetic
    }
}

/// Outputs by key, each built on its first request.
struct Memo<T>(RefCell<HashMap<String, Rc<T>>>);

impl<T> Default for Memo<T> {
    fn default() -> Self {
        Self(RefCell::new(HashMap::new()))
    }
}

impl<T> Memo<T> {
    fn get(&self, key: String, build: impl FnOnce() -> T) -> Rc<T> {
        if let Some(hit) = self.0.borrow().get(&key) {
            return Rc::clone(hit);
        }
        let built = Rc::new(build());
        self.0.borrow_mut().insert(key, Rc::clone(&built));
        built
    }
}

fn condense_key(dataset: &str, cfg: &McondConfig) -> String {
    format!("{dataset}/{cfg:?}")
}

/// The job table of one run.
pub struct Jobs {
    /// The run's options.
    pub args: BenchArgs,
    datasets: Memo<Job<Dataset>>,
    condensations: Memo<Job<Condensed>>,
    models: Memo<GnnModel>,
}

impl Jobs {
    /// An empty table for the run `args` describes.
    #[must_use]
    pub fn new(args: BenchArgs) -> Self {
        Self { args, datasets: Memo::default(), condensations: Memo::default(), models: Memo::default() }
    }

    /// The paper's two condensation ratios for `name`.
    ///
    /// # Panics
    /// Panics on an unknown dataset name (the CLI rejects those).
    #[must_use]
    pub fn ratios(&self, name: &str) -> [f64; 2] {
        dataset_spec(name, self.args.scale, self.args.seed).expect("known dataset").ratios
    }

    /// The dataset `name` generated with `seed`.
    ///
    /// # Panics
    /// Panics on an unknown dataset name (the CLI rejects those).
    pub fn dataset(&self, name: &str, seed: u64) -> Rc<Job<Dataset>> {
        let key = format!("{name}/{seed}");
        self.datasets.get(key.clone(), || {
            let data = load_dataset(name, self.args.scale, seed).expect("known dataset");
            let original = data.original_graph();
            Job { key, value: Dataset { name: name.to_owned(), seed, data, original } }
        })
    }

    /// `condense(dataset, cfg)`.
    pub fn condense(&self, dataset: &Job<Dataset>, cfg: &McondConfig) -> Rc<Job<Condensed>> {
        let key = condense_key(&dataset.key, cfg);
        self.condensations
            .get(key.clone(), || Job { key, value: condense(&dataset.data, cfg) })
    }

    /// MCond at `ratio` under [`default_condense_config`], seeded like the
    /// dataset.
    pub fn mcond(&self, dataset: &Job<Dataset>, ratio: f64) -> Rc<Job<Condensed>> {
        let cfg = default_condense_config(&dataset.name, self.args.scale, ratio, dataset.seed);
        self.condense(dataset, &cfg)
    }

    /// A `kind` model trained on `graph`'s graph by [`train_on_graph`] for
    /// `--epochs` epochs, else the scale's default.
    pub fn model<G: TrainGraph>(&self, graph: &Job<G>, kind: GnnKind, seed: u64) -> Rc<GnnModel> {
        let epochs = self.args.epochs.unwrap_or_else(|| default_epochs(self.args.scale));
        let key = format!("{}/{kind:?}/{epochs}/{HIDDEN}/{seed}", graph.key);
        self.models.get(key, || train_on_graph(graph.train_graph(), kind, epochs, HIDDEN, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A config that differs from another in any one field is another
    /// condensation job; equal configs share one.
    #[test]
    fn condensation_keys_cover_every_config_field() {
        let base = default_condense_config("pubmed", Scale::Small, 0.01, 0);
        // No `..`: a new field does not compile here until it has a variant.
        let McondConfig {
            ratio,
            outer_loops,
            relay_steps,
            mapping_steps,
            lambda,
            beta,
            mu,
            delta,
            structure_batch,
            support_cap,
            transductive_batch,
            use_structure_loss,
            use_inductive_loss,
            train_mapping,
            class_aware_init,
            seed,
        } = base.clone();
        let b = || base.clone();
        let variants = [
            McondConfig { ratio: ratio * 2.0, ..b() },
            McondConfig { outer_loops: outer_loops + 1, ..b() },
            McondConfig { relay_steps: relay_steps + 1, ..b() },
            McondConfig { mapping_steps: mapping_steps + 1, ..b() },
            McondConfig { lambda: lambda * 2.0, ..b() },
            McondConfig { beta: beta * 2.0, ..b() },
            McondConfig { mu: mu * 2.0, ..b() },
            McondConfig { delta: delta * 2.0, ..b() },
            McondConfig { structure_batch: structure_batch + 1, ..b() },
            McondConfig { support_cap: support_cap + 1, ..b() },
            McondConfig { transductive_batch: transductive_batch + 1, ..b() },
            McondConfig { use_structure_loss: !use_structure_loss, ..b() },
            McondConfig { use_inductive_loss: !use_inductive_loss, ..b() },
            McondConfig { train_mapping: !train_mapping, ..b() },
            McondConfig { class_aware_init: !class_aware_init, ..b() },
            McondConfig { seed: seed + 1, ..b() },
        ];

        let memo = Memo::default();
        let builds = Cell::new(0usize);
        let job = |cfg: &McondConfig| {
            memo.get(condense_key("pubmed/0", cfg), || builds.set(builds.get() + 1))
        };
        let first = job(&base);
        assert!(Rc::ptr_eq(&first, &job(&b())), "equal configs share one job");
        for (i, cfg) in variants.iter().enumerate() {
            assert!(!Rc::ptr_eq(&first, &job(cfg)), "variant {i} reused the base job");
        }
        assert_eq!(builds.get(), 1 + variants.len(), "every variant is its own job");
    }
}
