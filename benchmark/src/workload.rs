//! The four workloads and the inputs a seed generates for them.
//!
//! Every workload runs the same lifecycle on the `reddit`/`Scale::Small`
//! preset (4000 nodes, 96 features, 8 classes; original graph N = 2600,
//! r = 0.015 -> N' = 39). They differ in what a request carries and in
//! which graph answers it, so that each loads a different set of layers.
//!
//! Two seeds, kept apart. The *world* — graph, split, condensation,
//! training — is the protocol's and is world 0 unless `--world` says
//! otherwise: between worlds the sparsified mapping changes size by a
//! quarter and S->S accuracy by 20 points, which is a different system,
//! not noise. `--seed` generates the *requests*: which test nodes share a
//! batch, and in which order the batches are sent.

use mcond_graph::{load_dataset, InductiveDataset, NodeBatch, Scale};
use mcond_linalg::MatRng;
use mcond_serve::encode_batch;

pub const DATASET: &str = "reddit";
pub const SCALE: Scale = Scale::Small;
pub const RATIO: f64 = 0.015;
/// Closed-loop clients of the throughput block: one per core of the host
/// the protocol was sized on. A run on fewer cores is marked invalid.
pub const HTTP2_CLIENTS: usize = 2;

/// Which graph answers the requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// The condensed graph through the mapping `M` (Eq. 11).
    Synthetic,
    /// The original graph behind an identity mapping (Eq. 3).
    Original,
}

/// Operations per round. Fixed, so that every round's percentiles rest on
/// the same number of samples; a shorter run has fewer rounds, never
/// smaller ones.
#[derive(Clone, Copy, Debug)]
pub struct Counts {
    pub lib: usize,
    pub http1: usize,
    /// Total over the [`HTTP2_CLIENTS`] clients.
    pub http2: usize,
    /// A slate is every test node, served in one `try_serve_many`.
    pub offline_slates: usize,
}

impl Counts {
    /// A tenth of the counts, for `--smoke`. Percentiles the smaller
    /// sample cannot support fall back to the median there.
    pub fn tenth(self) -> Self {
        Self {
            lib: (self.lib / 10).max(1),
            http1: (self.http1 / 10).max(1),
            http2: (self.http2 / 10).max(HTTP2_CLIENTS),
            offline_slates: 1,
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Nodes per request.
    pub batch_nodes: usize,
    /// Graph batch (interconnections kept) or node batch.
    pub graph_batch: bool,
    pub target: Target,
    /// Identical `condense()` calls, spread between chunks of rounds; the
    /// fastest is reported.
    pub condense_repeats: usize,
    pub counts: Counts,
}

pub const WORKLOADS: [Workload; 4] = [
    // The serve layer does ~95 % of the work of a request here: the 500 us
    // coalesce window, the queue and the thread hops. A window, queue or
    // hop change shows on this workload and on no other.
    Workload {
        name: "online_syn",
        batch_nodes: 1,
        graph_batch: false,
        target: Target::Synthetic,
        condense_repeats: 2,
        counts: Counts {
            lib: 4000,
            http1: 300,
            http2: 600,
            offline_slates: 4,
        },
    },
    // ~100 KB JSON bodies: the wire codec dominates the HTTP time, and the
    // in-process time is `a*M` attach + split propagation at N' = 39,
    // where the fixed per-call overhead of the exact serve mode lives.
    Workload {
        name: "batch_syn",
        batch_nodes: 100,
        graph_batch: true,
        target: Target::Synthetic,
        condense_repeats: 2,
        counts: Counts {
            lib: 500,
            http1: 100,
            http2: 200,
            offline_slates: 5,
        },
    },
    // The same requests and the same S-trained model on the original
    // graph: SpMM, GEMM and the pool do the in-process work. Its
    // `lib_p50_us` over `batch_syn`'s is the paper's acceleration, and an
    // overhead fix tuned for N' = 39 that costs N = 2600 shows here.
    Workload {
        name: "batch_orig",
        batch_nodes: 100,
        graph_batch: true,
        target: Target::Original,
        condense_repeats: 2,
        counts: Counts {
            lib: 200,
            http1: 100,
            http2: 200,
            offline_slates: 2,
        },
    },
    // Condensation itself: autodiff, GEMM and full-graph spmm/spmm_t in
    // forward and backward, the other way round from serving's row-range
    // SpMM, so a kernel change that helps one and hurts the other shows.
    Workload {
        name: "condense",
        batch_nodes: 100,
        graph_batch: true,
        target: Target::Synthetic,
        condense_repeats: 4,
        counts: Counts {
            lib: 500,
            http1: 100,
            http2: 200,
            offline_slates: 5,
        },
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// What the program receives: the dataset, the test nodes cut into
/// request batches, and each batch's wire body, encoded once so that the
/// timed loops do no JSON work of their own.
pub struct Inputs {
    pub data: InductiveDataset,
    /// The test nodes in the order the seed put them; batch `b` is
    /// `order[b * batch_nodes..][..batch_nodes]`.
    pub order: Vec<usize>,
    pub batches: Vec<NodeBatch>,
    pub bodies: Vec<String>,
}

impl Inputs {
    pub fn test_nodes(&self) -> usize {
        self.batches.iter().map(NodeBatch::len).sum()
    }
}

/// Generates a workload's inputs from the two seeds alone.
pub fn make_inputs(w: &Workload, world: u64, seed: u64) -> Inputs {
    let data = load_dataset(DATASET, SCALE, world).expect("the preset exists");
    let mut order = data.test_idx.clone();
    MatRng::seed_from(seed).shuffle(&mut order);
    let batches: Vec<NodeBatch> = order
        .chunks(w.batch_nodes)
        .map(|nodes| data.batch(nodes, w.graph_batch))
        .collect();
    let bodies = batches.iter().map(encode_batch).collect();
    Inputs {
        data,
        order,
        batches,
        bodies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_gives_identical_inputs_and_another_seed_different_ones() {
        let w = find("batch_syn").unwrap();
        let (a, b) = (make_inputs(&w, 0, 7), make_inputs(&w, 0, 7));
        assert_eq!(a.bodies, b.bodies);
        assert_eq!(a.order, b.order);
        assert!(a.data.full.adj.bit_eq(&b.data.full.adj));
        assert!(a.data.full.features.bit_eq(&b.data.full.features));
        assert_eq!(a.batches.len(), 10);
        assert_eq!(a.test_nodes(), 1000);

        // Another seed: the same world and the same test nodes, batched
        // differently.
        let c = make_inputs(&w, 0, 8);
        assert!(a.data.full.adj.bit_eq(&c.data.full.adj));
        assert_ne!(a.order, c.order);
        assert_ne!(a.bodies, c.bodies);
        let sorted = |i: &Inputs| {
            let mut nodes = i.order.clone();
            nodes.sort_unstable();
            nodes
        };
        assert_eq!(sorted(&a), sorted(&c));

        // Another world: a different graph.
        let d = make_inputs(&w, 1, 7);
        assert!(!a.data.full.adj.bit_eq(&d.data.full.adj));
    }

    #[test]
    fn every_round_supports_its_p90() {
        for w in WORKLOADS {
            assert!(w.counts.lib >= 100 && w.counts.http1 >= 100, "{}", w.name);
            assert_eq!(w.counts.http2 % HTTP2_CLIENTS, 0, "{}", w.name);
        }
    }
}
