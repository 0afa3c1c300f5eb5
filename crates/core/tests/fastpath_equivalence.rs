//! Split-operator serving fast path: equivalence and calibration
//! (DESIGN.md §4g).
//!
//! The sweep asserts the tentpole contract: the logits
//! [`InductiveServer::try_serve`] returns are **bitwise identical** to the
//! vstack-and-slice reference forward — written out below from public
//! `mcond-gnn`/`mcond-sparse` API, attach and fallback included — for
//! every architecture, at 1 and 4 threads, under every fallback policy.
//! The chaos catalogue passes through the fast path with the same
//! typed-error taxonomy, and the opt-in [`ServeMode::FrozenBase`] cache is
//! calibrated against the exact path.

use mcond_core::chaos::corrupted_batches;
use mcond_core::{FallbackPolicy, InductiveServer, ServeError, ServeMode};
use mcond_gnn::{GnnKind, GnnModel, GraphOps};
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
/// to train 2) gets an empty `aM` row, exercising the fallback branches.
fn pruned_mapping() -> Csr {
    let mut map = Coo::new(3, 2);
    map.push(0, 0, 0.5);
    map.push(1, 0, 0.5);
    map.to_csr()
}

fn counter(server: &InductiveServer<'_>, name: &str) -> u64 {
    server.metrics_snapshot().counters.iter().find(|(k, _)| k == name).map_or(0, |(_, v)| *v)
}

/// The reference answer: attach (`a`, or `aM` through `mapping`), apply
/// the fallback policy to nodes left without an attachment row, then
/// vstack base and batch features, run every layer over all `N + n` rows
/// of the lazily extended graph and slice the batch's rows off the bottom.
fn reference(
    model: &GnnModel,
    base: &Graph,
    mapping: Option<&Csr>,
    original: &Graph,
    policy: FallbackPolicy,
    batch: &NodeBatch,
) -> Result<DMat, ServeError> {
    let attach =
        mapping.map_or_else(|| batch.incremental.clone(), |m| spmm_sparse(&batch.incremental, m));
    let uncovered = (0..batch.len()).find(|&i| attach.row_cols(i).is_empty());
    let (base, attach) = match (uncovered, policy) {
        (Some(node), FallbackPolicy::Reject) => {
            return Err(ServeError::NoAttachment { node, coverage: 0.0 })
        }
        // Degrade the whole batch to Eq. 3 (a no-op when already there).
        (Some(_), FallbackPolicy::OriginalGraph) if mapping.is_some() => {
            (original, batch.incremental.clone())
        }
        // Fully covered, or `SelfLoopOnly` over an already-empty row.
        _ => (base, attach),
    };
    let ops = GraphOps::extended(&base.adj, &attach, &batch.interconnect);
    let logits = model.predict(&ops, &base.features.vstack(&batch.features));
    Ok(logits.slice_rows(base.num_nodes(), logits.rows()))
}

/// The tentpole sweep: every architecture × thread count × fallback
/// policy × attachment target, over a mapping that leaves one node
/// without an attachment row — the server and the reference must agree
/// bitwise on every Ok result and on every typed error.
#[test]
fn exact_path_is_bitwise_identical_to_the_stacked_reference_everywhere() {
    let (data, syn, _) = fixture();
    let mapping = pruned_mapping();
    let original = data.original_graph();
    let batches =
        [data.batch(&[4, 5], true), data.batch(&[4], false), data.batch(&[5], true)];
    let policies =
        [FallbackPolicy::Reject, FallbackPolicy::SelfLoopOnly, FallbackPolicy::OriginalGraph];

    for kind in GnnKind::ALL {
        let model = GnnModel::new(kind, 3, 4, 2, 1);
        for threads in [1usize, 4] {
            mcond_par::with_thread_limit(threads, || {
                for policy in policies {
                    // Synthetic (Eq. 11) serving, fallback armed with the
                    // original graph so `OriginalGraph` can degrade.
                    let exact = InductiveServer::on_synthetic(&syn, &mapping, &model)
                        .with_fallback(policy)
                        .with_original_graph(&original);
                    for (bi, batch) in batches.iter().enumerate() {
                        let a = exact.try_serve(batch);
                        let b =
                            reference(&model, &syn, Some(&mapping), &original, policy, batch);
                        match (&a, &b) {
                            (Ok(x), Ok(y)) => assert_eq!(
                                x.as_slice(),
                                y.as_slice(),
                                "{} t{threads} {policy:?} batch {bi}: logits drifted",
                                kind.name()
                            ),
                            (Err(x), Err(y)) => assert_eq!(x, y),
                            _ => panic!(
                                "{} t{threads} {policy:?} batch {bi}: Ok/Err disagreement",
                                kind.name()
                            ),
                        }
                    }

                    // Original-graph (Eq. 3) serving.
                    let exact = InductiveServer::on_original(&original, &model)
                        .with_fallback(policy);
                    for (bi, batch) in batches.iter().enumerate() {
                        let a = exact.try_serve(batch);
                        let b = reference(&model, &original, None, &original, policy, batch);
                        match (&a, &b) {
                            (Ok(x), Ok(y)) => assert_eq!(
                                x.as_slice(),
                                y.as_slice(),
                                "{} t{threads} {policy:?} original batch {bi}",
                                kind.name()
                            ),
                            (Err(x), Err(y)) => assert_eq!(x, y),
                            _ => panic!("{} t{threads} {policy:?}: disagreement", kind.name()),
                        }
                    }
                }
            });
        }
    }
}

/// The chaos catalogue passes through the fast path (and the frozen-base
/// cache) with the same typed-error taxonomy — no panic escapes, and the
/// donor keeps serving bitwise-stable finite logits afterwards.
#[test]
fn chaos_catalogue_passes_through_the_fast_path() {
    let (data, syn, mapping) = fixture();
    let model = GnnModel::new(GnnKind::Gcn, 3, 4, 2, 1);
    let donor = data.batch(&[4, 5], true);
    let cases = corrupted_batches(&donor);
    assert!(cases.len() >= 10);

    let servers = [
        ("exact", InductiveServer::on_synthetic(&syn, &mapping, &model)),
        (
            "frozen",
            InductiveServer::on_synthetic(&syn, &mapping, &model)
                .with_serve_mode(ServeMode::FrozenBase),
        ),
    ];
    for (mode, server) in &servers {
        let good = server.try_serve(&donor).expect("donor batch is valid");
        assert!(good.all_finite(), "{mode}: donor logits must be finite");
        for case in corrupted_batches(&donor) {
            match server.try_serve(&case.batch) {
                Err(ServeError::InvalidBatch(_)) => {}
                Err(other) => panic!("{mode}/{}: unexpected error {other:?}", case.name),
                Ok(_) => panic!("{mode}/{}: corrupted batch was served", case.name),
            }
        }
        let again = server.try_serve(&donor).expect("server survives the sweep");
        assert_eq!(again.as_slice(), good.as_slice());
        assert_eq!(counter(server, "serve.panic"), 0, "{mode}");
        assert_eq!(counter(server, "serve.rejected"), cases.len() as u64, "{mode}");
    }
}

/// Calibration of the opt-in frozen-base cache: a batch with no
/// incremental edges is served exactly; connected batches deviate by a
/// bounded, finite amount for every architecture, and the cache probes
/// record the hits.
#[test]
fn frozen_base_calibration_against_the_exact_path() {
    let (data, syn, mapping) = fixture();
    let connected = data.batch(&[4, 5], false);
    let disconnected = {
        let mut b = connected.clone();
        b.incremental = Csr::empty(2, 3);
        b
    };

    for kind in GnnKind::ALL {
        let model = GnnModel::new(kind, 3, 4, 2, 1);
        let exact = InductiveServer::on_synthetic(&syn, &mapping, &model);
        let frozen = InductiveServer::on_synthetic(&syn, &mapping, &model)
            .with_serve_mode(ServeMode::FrozenBase);

        // Exact on disconnected batches (no base perturbation to ignore).
        let e = exact.try_serve(&disconnected).expect("exact serves");
        let f = frozen.try_serve(&disconnected).expect("frozen serves");
        for (a, b) in e.as_slice().iter().zip(f.as_slice()) {
            assert!(
                mcond_linalg::approx_eq(*a, *b, 1e-5),
                "{}: disconnected batch must serve exactly ({a} vs {b})",
                kind.name()
            );
        }

        // Bounded deviation on connected batches.
        let e = exact.try_serve(&connected).expect("exact serves");
        let f = frozen.try_serve(&connected).expect("frozen serves");
        assert_eq!(e.shape(), f.shape());
        assert!(f.all_finite(), "{}", kind.name());
        let dev = e
            .as_slice()
            .iter()
            .zip(f.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(dev < 1.0, "{}: frozen-base deviation {dev} out of bounds", kind.name());

        assert_eq!(counter(&frozen, "serve.cache.hits"), 2, "{}", kind.name());
        assert_eq!(counter(&exact, "serve.cache.hits"), 0, "{}", kind.name());
    }
}

/// Regression for the coverage-accounting bugfix: negative edge weights
/// must not zero out coverage (spurious rejection), and coverage must
/// never exceed 1 even when signed sums would inflate it.
#[test]
fn coverage_uses_absolute_mass_and_clamps_to_one() {
    let (data, syn, mapping) = fixture();
    let model = GnnModel::new(GnnKind::Gcn, 3, 4, 2, 1);
    let donor = data.batch(&[4], false);

    // Node with weights {+0.5 → train 0, -1.0 → train 1}: both map onto
    // synthetic node 0 with mass 0.5, so the aM entry is 0.25 - 0.5 =
    // -0.25 and the old *signed* sum (-0.5 raw) forced coverage to 0.0 —
    // a spurious rejection under any positive threshold. Absolute mass
    // gives |−0.25| / 1.5 = 1/6.
    let negative = {
        let mut b = donor.clone();
        let mut inc = Coo::new(1, 3);
        inc.push(0, 0, 0.5);
        inc.push(0, 1, -1.0);
        b.incremental = inc.to_csr();
        b
    };
    let strict = InductiveServer::on_synthetic(&syn, &mapping, &model)
        .with_fallback(FallbackPolicy::Reject)
        .with_coverage_threshold(0.1);
    let served = strict.try_serve(&negative);
    assert!(
        served.is_ok(),
        "negative weights must not be spuriously rejected: {served:?}"
    );
    let cov = strict
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
