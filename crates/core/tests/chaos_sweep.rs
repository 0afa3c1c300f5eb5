//! Chaos sweep over the serving boundary (DESIGN.md §4f).
//!
//! Sweeps every corrupted batch from `mcond_core::chaos` through **both**
//! attachment targets (Eq. 3 original-graph and Eq. 11 synthetic) and asserts
//! the fault-tolerance contract: every corruption is answered with a typed
//! [`ServeError`] — never a panic, never a non-finite logit — and in a
//! mixed fan-out the corrupted siblings leave valid batches' results
//! bitwise identical at any thread count.

use mcond_core::chaos::corrupted_batches;
use mcond_core::{InductiveServer, ServeError};
use mcond_gnn::{GnnKind, GnnModel};
use mcond_graph::{Graph, InductiveDataset, NodeBatch};
use mcond_linalg::{DMat, MatRng};
use mcond_sparse::{Coo, Csr};

/// 6-node toy split: train {0,1,2} triangle, val {3}, test {4,5}; 3-dim
/// features; plus a 2-node synthetic graph whose mapping covers train
/// nodes {0,1} (node 2's row is empty, as after extreme Eq. 14 pruning).
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

fn model() -> GnnModel {
    GnnModel::new(GnnKind::Gcn, 3, 4, 2, 1)
}

/// Every chaos case gets a typed error on both targets; the valid
/// donor keeps serving finite logits before and after the sweep.
#[test]
fn every_corruption_yields_a_typed_error_on_both_modes() {
    let (data, syn, mapping) = fixture();
    let original = data.original_graph();
    let model = model();
    let donor = data.batch(&[4, 5], true);
    let cases = corrupted_batches(&donor);
    assert!(cases.len() >= 10, "catalogue unexpectedly small: {}", cases.len());

    let servers = [
        ("original", InductiveServer::on_original(&original, &model)),
        ("synthetic", InductiveServer::on_synthetic(&syn, &mapping, &model)),
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

        // The server survives the sweep unharmed.
        let again = server.try_serve(&donor).expect("server still serves after sweep");
        assert_eq!(again.as_slice(), good.as_slice());

        let snap = server.metrics_snapshot();
        let counter = |name: &str| {
            snap.counters.iter().find(|(k, _)| k == name).map_or(0, |(_, v)| *v)
        };
        assert_eq!(counter("serve.requests"), 2, "{mode}: only the donor serves");
        assert_eq!(counter("serve.rejected"), cases.len() as u64, "{mode}");
        assert_eq!(counter("serve.panic"), 0, "{mode}: no panics in the sweep");
    }
}

/// Mixed valid/corrupted fan-out: valid batches come back bitwise
/// identical to a sequential loop at 1 and 4 threads; corrupted slots hold
/// the same typed error at both thread counts.
#[test]
fn mixed_fanout_is_deterministic_across_thread_counts() {
    let (data, syn, mapping) = fixture();
    let model = model();

    let valid_a = data.batch(&[4, 5], true);
    let valid_b = data.batch(&[4], false);
    let valid_c = data.batch(&[5], true);
    let mut batches: Vec<NodeBatch> = vec![valid_a.clone()];
    for case in corrupted_batches(&valid_a) {
        batches.push(case.batch);
    }
    batches.push(valid_b.clone());
    batches.push(valid_c.clone());

    let serve_all = |threads: usize| {
        let server = InductiveServer::on_synthetic(&syn, &mapping, &model);
        mcond_par::with_thread_limit(threads, || server.try_serve_many(&batches))
    };
    let at_one = serve_all(1);
    let at_four = serve_all(4);
    assert_eq!(at_one.len(), batches.len());

    let sequential = InductiveServer::on_synthetic(&syn, &mapping, &model);
    for (i, (one, four)) in at_one.iter().zip(&at_four).enumerate() {
        match (one, four) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.as_slice(), b.as_slice(), "slot {i} drifted across threads");
                let reference =
                    sequential.try_serve(&batches[i]).expect("sequential serve");
                assert_eq!(a.as_slice(), reference.as_slice(), "slot {i} != sequential");
                assert!(a.all_finite(), "slot {i}: non-finite logits served");
            }
            (Err(a), Err(b)) => {
                assert_eq!(a, b, "slot {i}: error drifted across thread counts");
                assert!(
                    matches!(a, ServeError::InvalidBatch(_)),
                    "slot {i}: unexpected error {a:?}"
                );
            }
            (a, b) => panic!("slot {i}: Ok/Err disagreement across threads: {a:?} vs {b:?}"),
        }
    }
    // The three valid slots are exactly the Ok ones.
    let ok_slots: Vec<usize> =
        (0..at_one.len()).filter(|&i| at_one[i].is_ok()).collect();
    assert_eq!(ok_slots.len(), 3);
}

/// A genuine internal panic (a model misconfigured for the feature
/// dimension blows up inside the forward pass, past request validation) is
/// caught per request: its slot holds `Err(Panicked)`, siblings complete,
/// and the server — including its poisoned-then-recovered stats mutex —
/// stays usable.
#[test]
fn internal_panics_are_isolated_per_request() {
    let (data, syn, mapping) = fixture();
    // in_dim 5 disagrees with the 3-dim features: validation cannot see a
    // model misconfiguration, so the matmul inside predict() panics.
    let bad_model = GnnModel::new(GnnKind::Gcn, 5, 4, 2, 1);
    let server = InductiveServer::on_synthetic(&syn, &mapping, &bad_model);

    let empty = data.batch(&[], true);
    let batches = vec![data.batch(&[4], false), empty, data.batch(&[5], true)];
    let results = mcond_par::with_thread_limit(4, || server.try_serve_many(&batches));

    match &results[0] {
        Err(ServeError::Panicked { context }) => {
            assert!(!context.is_empty(), "panic context should carry the message");
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    // The empty sibling takes the fast path (no forward pass) and
    // completes despite its neighbours panicking.
    let ok = results[1].as_ref().expect("empty batch serves");
    assert_eq!(ok.shape(), (0, bad_model.out_dim()));
    assert!(matches!(results[2], Err(ServeError::Panicked { .. })));

    let snap = server.metrics_snapshot();
    let counter = |name: &str| {
        snap.counters.iter().find(|(k, _)| k == name).map_or(0, |(_, v)| *v)
    };
    assert_eq!(counter("serve.panic"), 2);
    assert_eq!(counter("serve.requests"), 1, "only the empty batch was answered");
    assert_eq!(counter("serve.rejected"), 0, "panics are not typed rejections");

    // Still usable afterwards: a fresh empty request is served.
    let again = server.try_serve(&data.batch(&[], false)).expect("server survives");
    assert_eq!(again.rows(), 0);
}

/// The self-loop fallback also holds under fan-out: a node with an empty
/// attachment row is served, counted once, and its logits agree with a
/// sequential loop at 1 and 4 threads.
#[test]
fn self_loop_fallback_holds_under_fanout() {
    let (data, syn, _) = fixture();
    // A mapping with train node 2 fully pruned: batch node 5 (attached
    // only to train 2) has an empty aM row.
    let mut map = Coo::new(3, 2);
    map.push(0, 0, 0.5);
    map.push(1, 0, 0.5);
    let pruned = map.to_csr();
    let model = model();
    let batches = vec![data.batch(&[5], false), data.batch(&[4], false)];

    let sequential = InductiveServer::on_synthetic(&syn, &pruned, &model);
    let expected: Vec<DMat> =
        batches.iter().map(|b| sequential.try_serve(b).unwrap()).collect();
    for threads in [1, 4] {
        let server = InductiveServer::on_synthetic(&syn, &pruned, &model);
        let served = mcond_par::with_thread_limit(threads, || server.try_serve_many(&batches));
        for (i, (r, want)) in served.iter().zip(&expected).enumerate() {
            let logits = r.as_ref().unwrap_or_else(|e| panic!("t{threads} slot {i}: {e}"));
            assert!(logits.all_finite());
            assert_eq!(logits.as_slice(), want.as_slice(), "t{threads} slot {i} drifted");
        }
        let counters = server.metrics_snapshot().counters;
        assert!(counters.contains(&("serve.fallback".to_owned(), 1)), "t{threads}");
    }
}
