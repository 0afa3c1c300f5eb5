//! Split-operator serving fast path: equivalence and calibration
//! (DESIGN.md §4g).
//!
//! The sweep asserts the tentpole contract: the logits
//! [`InductiveServer::try_serve`] returns are **bitwise identical** to the
//! vstack-and-slice reference forward — written out below from public
//! `mcond-gnn`/`mcond-sparse` API, attach and the empty-row self-loop
//! included — for every architecture, at 1 and 4 threads, on both
//! targets. The chaos catalogue passes through the fast path with the same
//! typed-error taxonomy, and the one-way [`FrozenBase`] predictor is
//! calibrated against the exact path.

use mcond_core::chaos::corrupted_batches;
use mcond_core::{InductiveServer, ServeError};
use mcond_gnn::{FrozenBase, GnnKind, GnnModel, GraphOps};
use mcond_graph::{Graph, InductiveDataset, NodeBatch};
use mcond_linalg::{DMat, MatRng};
use mcond_sparse::{spmm_sparse, Coo, Csr};

/// 6-node toy split: train {0,1,2} triangle, val {3}, test {4,5}; 3-dim
/// features; plus a 2-node synthetic graph whose mapping covers train
/// nodes {0,1} with half mass and train node 2 fully (so batch coverage
/// varies node to node).
fn fixture() -> (InductiveDataset, Graph, Csr) {
    let mut coo = Coo::new(6, 6);
    for &(i, j) in &[(0, 1), (1, 2), (0, 2), (3, 0), (4, 1), (5, 2), (4, 5)] {
        coo.push_sym(i, j, 1.0);
    }
    let features = MatRng::seed_from(7).normal(6, 3, 0.0, 1.0);
    let g = Graph::new(coo.to_csr(), features, vec![0, 1, 0, 1, 0, 1], 2);
    let data = InductiveDataset::new(g, vec![0, 1, 2], vec![3], vec![4, 5]);

    let syn = Graph::new(
        Csr::eye(2),
        DMat::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]),
        vec![0, 1],
        2,
    );
    let mut map = Coo::new(3, 2);
    map.push(0, 0, 0.5);
    map.push(1, 0, 0.5);
    map.push(2, 1, 1.0);
    (data, syn, map.to_csr())
}

/// A mapping with train node 2 fully pruned: batch node 5 (attached only
/// to train 2) gets an empty `aM` row, exercising the self-loop fallback.
fn pruned_mapping() -> Csr {
    let mut map = Coo::new(3, 2);
    map.push(0, 0, 0.5);
    map.push(1, 0, 0.5);
    map.to_csr()
}

fn counter(server: &InductiveServer<'_>, name: &str) -> u64 {
    server.metrics_snapshot().counters.iter().find(|(k, _)| k == name).map_or(0, |(_, v)| *v)
}

/// The reference answer: attach (`a`, or `aM` through `mapping`; a node
/// left without an attachment row keeps only its self-loop), vstack base
/// and batch features, run every layer over all `N + n` rows of the lazily
/// extended graph and slice the batch's rows off the bottom.
fn reference(model: &GnnModel, base: &Graph, mapping: Option<&Csr>, batch: &NodeBatch) -> DMat {
    let attach =
        mapping.map_or_else(|| batch.incremental.clone(), |m| spmm_sparse(&batch.incremental, m));
    let ops = GraphOps::extended(&base.adj, &attach, &batch.interconnect);
    let logits = model.predict(&ops, &base.features.vstack(&batch.features));
    logits.slice_rows(base.num_nodes(), logits.rows())
}

/// The tentpole sweep: every architecture × thread count × attachment
/// target, over a mapping that leaves one node without an attachment row
/// — the server and the reference must agree bitwise.
#[test]
fn exact_path_is_bitwise_identical_to_the_stacked_reference_everywhere() {
    let (data, syn, _) = fixture();
    let mapping = pruned_mapping();
    let original = data.original_graph();
    let batches =
        [data.batch(&[4, 5], true), data.batch(&[4], false), data.batch(&[5], true)];

    for kind in GnnKind::ALL {
        let model = GnnModel::new(kind, 3, 4, 2, 1);
        for threads in [1usize, 4] {
            mcond_par::with_thread_limit(threads, || {
                let targets = [
                    ("synthetic", &syn, Some(&mapping)),
                    ("original", &original, None),
                ];
                for (target, base, mapping) in targets {
                    let server = match mapping {
                        Some(m) => InductiveServer::on_synthetic(base, m, &model),
                        None => InductiveServer::on_original(base, &model),
                    };
                    for (bi, batch) in batches.iter().enumerate() {
                        let got = server.try_serve(batch).expect("every batch serves");
                        let want = reference(&model, base, mapping, batch);
                        assert_eq!(
                            got.as_slice(),
                            want.as_slice(),
                            "{} t{threads} {target} batch {bi}: logits drifted",
                            kind.name()
                        );
                    }
                }
            });
        }
    }
}

/// The chaos catalogue passes through the fast path with the same
/// typed-error taxonomy — no panic escapes, and the donor keeps serving
/// bitwise-stable finite logits afterwards.
#[test]
fn chaos_catalogue_passes_through_the_fast_path() {
    let (data, syn, mapping) = fixture();
    let model = GnnModel::new(GnnKind::Gcn, 3, 4, 2, 1);
    let donor = data.batch(&[4, 5], true);
    let cases = corrupted_batches(&donor);
    assert!(cases.len() >= 10);

    let server = InductiveServer::on_synthetic(&syn, &mapping, &model);
    let good = server.try_serve(&donor).expect("donor batch is valid");
    assert!(good.all_finite(), "donor logits must be finite");
    for case in &cases {
        match server.try_serve(&case.batch) {
            Err(ServeError::InvalidBatch(_)) => {}
            Err(other) => panic!("{}: unexpected error {other:?}", case.name),
            Ok(_) => panic!("{}: corrupted batch was served", case.name),
        }
    }
    let again = server.try_serve(&donor).expect("server survives the sweep");
    assert_eq!(again.as_slice(), good.as_slice());
    assert_eq!(counter(&server, "serve.panic"), 0);
    assert_eq!(counter(&server, "serve.rejected"), cases.len() as u64);
}

/// Calibration of the one-way frozen-base predictor, fed the attachment
/// rows the server builds: a batch with no incremental edges is answered
/// exactly, and so is a node served from its self-loop; connected batches
/// deviate by a bounded, finite amount for every architecture.
#[test]
fn frozen_base_calibration_against_the_exact_path() {
    let (data, syn, mapping) = fixture();
    let connected = data.batch(&[4, 5], false);
    let disconnected = {
        let mut b = connected.clone();
        b.incremental = Csr::empty(2, 3);
        b
    };

    let pruned = pruned_mapping();
    let self_loop = data.batch(&[5], false);

    for kind in GnnKind::ALL {
        let model = GnnModel::new(kind, 3, 4, 2, 1);
        let exact = InductiveServer::on_synthetic(&syn, &mapping, &model);
        let cache = FrozenBase::new(&model, &syn.adj, &syn.features);
        let frozen = |server: &InductiveServer<'_>, b: &NodeBatch| {
            model.predict_frozen(&cache, &server.attachment(b), &b.interconnect, &b.features)
        };

        // Exact on disconnected batches (no base perturbation to ignore),
        // and on a node whose `aM` row is empty (its self-loop only).
        let pruned_server = InductiveServer::on_synthetic(&syn, &pruned, &model);
        for (server, batch) in [(&exact, &disconnected), (&pruned_server, &self_loop)] {
            let e = server.try_serve(batch).expect("exact serves");
            let f = frozen(server, batch);
            for (a, b) in e.as_slice().iter().zip(f.as_slice()) {
                assert!(
                    mcond_linalg::approx_eq(*a, *b, 1e-5),
                    "{}: an unattached batch must be answered exactly ({a} vs {b})",
                    kind.name()
                );
            }
        }

        // Bounded deviation on connected batches.
        let e = exact.try_serve(&connected).expect("exact serves");
        let f = frozen(&exact, &connected);
        assert_eq!(e.shape(), f.shape());
        assert!(f.all_finite(), "{}", kind.name());
        let dev = e
            .as_slice()
            .iter()
            .zip(f.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(dev < 1.0, "{}: frozen-base deviation {dev} out of bounds", kind.name());
    }
}

/// Regression for the coverage-accounting bugfix: negative edge weights
/// must not zero out coverage, and coverage must never exceed 1 even when
/// signed sums would inflate it.
#[test]
fn coverage_uses_absolute_mass_and_clamps_to_one() {
    let (data, syn, mapping) = fixture();
    let model = GnnModel::new(GnnKind::Gcn, 3, 4, 2, 1);
    let donor = data.batch(&[4], false);

    // Node with weights {+0.5 → train 0, -1.0 → train 1}: both map onto
    // synthetic node 0 with mass 0.5, so the aM entry is 0.25 - 0.5 =
    // -0.25 and the old *signed* sum (-0.5 raw) forced coverage to 0.0.
    // Absolute mass gives |−0.25| / 1.5 = 1/6.
    let negative = {
        let mut b = donor.clone();
        let mut inc = Coo::new(1, 3);
        inc.push(0, 0, 0.5);
        inc.push(0, 1, -1.0);
        b.incremental = inc.to_csr();
        b
    };
    let server = InductiveServer::on_synthetic(&syn, &mapping, &model);
    server.try_serve(&negative).expect("negative weights serve");
    let cov = server
        .metrics_snapshot()
        .histograms
        .iter()
        .find(|(k, _)| k == "serve.coverage")
        .expect("coverage histogram")
        .1;
    assert!((cov.max - 1.0 / 6.0).abs() < 1e-5, "coverage {0} != 1/6", cov.max);

    // A super-stochastic mapping row (mass 2.0) would report coverage 2.0
    // without the clamp — the histogram must stay inside [0, 1].
    let heavy = {
        let mut m = Coo::new(3, 2);
        m.push(0, 0, 2.0);
        m.push(1, 0, 0.5);
        m.push(2, 1, 1.0);
        m.to_csr()
    };
    let inflated = {
        let mut b = donor.clone();
        let mut inc = Coo::new(1, 3);
        inc.push(0, 0, 1.0);
        b.incremental = inc.to_csr();
        b
    };
    let server = InductiveServer::on_synthetic(&syn, &heavy, &model);
    server.try_serve(&inflated).expect("inflated batch serves");
    let cov = server
        .metrics_snapshot()
        .histograms
        .iter()
        .find(|(k, _)| k == "serve.coverage")
        .expect("coverage histogram")
        .1;
    assert!((cov.max - 1.0).abs() < 1e-6, "coverage must clamp to 1, got {}", cov.max);
    assert!(cov.min > 0.0, "abs-mass coverage of a non-empty row is positive");
}
