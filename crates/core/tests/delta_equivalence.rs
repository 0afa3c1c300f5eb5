//! Delta-ingestion equivalence suite (DESIGN.md §4l).
//!
//! The live-base contract: promoting served nodes **one delta at a time**
//! leaves the base in exactly the state a single combined promotion (or a
//! from-scratch rebuild) produces — bitwise, for the adjacency, the grown
//! mapping `M`, the features, and the incrementally maintained
//! [`BaseDegrees`] — and the logits served off the grown base are bitwise
//! identical between the live base's server and a from-scratch one — and
//! so are the one-way [`FrozenBase`] predictor's, cache built on the
//! live base against one built on a copy of it — at 1 and 4 threads. A
//! checkpoint of the grown base boots a server that answers like the
//! live one.

use mcond_core::{Checkpoint, GraphDelta, InductiveServer, LiveBase};
use mcond_gnn::{BaseDegrees, FrozenBase, GnnKind, GnnModel};
use mcond_graph::{Graph, NodeBatch};
use mcond_linalg::{DMat, MatRng};
use mcond_par::with_thread_limit;
use mcond_sparse::{Coo, Csr};

/// Synthetic base: 2 nodes; mapping covers the 3 original training nodes
/// — {0,1} with half mass onto synthetic 0, {2} fully onto synthetic 1.
fn base() -> (Graph, Csr) {
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
    (syn, map.to_csr())
}

/// A hand-built delta: `n` nodes with `dim`-dim features over `width`
/// base-index columns, with the given attachment entries and a small
/// interconnect chain.
fn delta_dim(
    n: usize,
    dim: usize,
    width: usize,
    edges: &[(usize, usize, f32)],
    seed: u64,
) -> GraphDelta {
    let mut inc = Coo::new(n, width);
    for &(i, j, v) in edges {
        inc.push(i, j, v);
    }
    let mut inter = Coo::new(n, n);
    for i in 1..n {
        inter.push_sym(i - 1, i, 1.0);
    }
    GraphDelta::new(NodeBatch {
        features: MatRng::seed_from(seed).normal(n, dim, 0.0, 1.0),
        incremental: inc.to_csr(),
        interconnect: inter.to_csr(),
        labels: (0..n).map(|i| i % 2).collect(),
    })
}

/// [`delta_dim`] at the 3-dim feature width of the hand-built base.
fn delta(n: usize, width: usize, edges: &[(usize, usize, f32)], seed: u64) -> GraphDelta {
    delta_dim(n, 3, width, edges, seed)
}

/// Three promotions: the first two attach to original training nodes
/// (widths 3), the third was assembled against the grown base and
/// attaches to a promoted node as well (width 7 = 3 original + 4
/// promoted).
fn deltas() -> Vec<GraphDelta> {
    vec![
        delta(2, 3, &[(0, 1, 1.0), (1, 2, 1.0), (1, 0, 0.5)], 11),
        delta(2, 3, &[(0, 0, 2.0), (1, 1, 1.0)], 12),
        delta(1, 7, &[(0, 2, 1.0), (0, 3, 0.5), (0, 5, 0.25)], 13),
    ]
}

/// A probe batch in the *original* (width-3) index space — a client that
/// never heard about the promotions.
fn probe() -> NodeBatch {
    let mut inc = Coo::new(2, 3);
    inc.push(0, 0, 1.0);
    inc.push(1, 2, 1.0);
    let mut inter = Coo::new(2, 2);
    inter.push_sym(0, 1, 1.0);
    NodeBatch {
        features: MatRng::seed_from(99).normal(2, 3, 0.0, 1.0),
        incremental: inc.to_csr(),
        interconnect: inter.to_csr(),
        labels: vec![0, 1],
    }
}

fn assert_degrees_bitwise(a: &BaseDegrees, b: &BaseDegrees, ctx: &str) {
    assert_eq!(a.sym.len(), b.sym.len(), "{ctx}: sym length");
    for (i, (x, y)) in a.sym.iter().zip(&b.sym).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: sym[{i}] {x} vs {y}");
    }
    for (i, (x, y)) in a.mean.iter().zip(&b.mean).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: mean[{i}] {x} vs {y}");
    }
}

/// One delta at a time vs. one combined promotion: identical base state.
fn check_state_equivalence() {
    let (syn, map) = base();
    let mut incremental = LiveBase::synthetic(syn.clone(), map.clone());
    let ds = deltas();
    // Stepwise: three promotions.
    for d in &ds {
        incremental.promote(d).unwrap();
    }

    // Combined: deltas 1+2 stacked into one promotion (they only touch
    // original training nodes), then delta 3 against the grown base.
    let combined_batch = {
        let (d1, d2) = (&ds[0].batch, &ds[1].batch);
        let mut inc = Coo::new(4, 3);
        for src in [d1, d2] {
            let off = if std::ptr::eq(src, d1) { 0 } else { 2 };
            for (i, j, v) in src.incremental.iter() {
                inc.push(i + off, j, v);
            }
        }
        let mut inter = Coo::new(4, 4);
        for (i, j, v) in d1.interconnect.iter() {
            inter.push(i, j, v);
        }
        for (i, j, v) in d2.interconnect.iter() {
            inter.push(i + 2, j + 2, v);
        }
        let mut labels = d1.labels.clone();
        labels.extend_from_slice(&d2.labels);
        NodeBatch {
            features: d1.features.vstack(&d2.features),
            incremental: inc.to_csr(),
            interconnect: inter.to_csr(),
            labels,
        }
    };
    let mut rebuilt = LiveBase::synthetic(syn, map);
    rebuilt.promote(&GraphDelta::new(combined_batch)).unwrap();
    rebuilt.promote(&ds[2]).unwrap();

    assert!(
        incremental.base().adj.bit_eq(&rebuilt.base().adj),
        "adjacency diverged from the combined rebuild"
    );
    assert!(
        incremental.base().features.bit_eq(&rebuilt.base().features),
        "features diverged"
    );
    assert_eq!(incremental.base().labels, rebuilt.base().labels, "labels diverged");
    assert!(
        incremental.mapping().bit_eq(rebuilt.mapping()),
        "mapping diverged from the combined rebuild"
    );
    assert_degrees_bitwise(incremental.degrees(), rebuilt.degrees(), "vs combined");

    // The incrementally maintained degrees also match a from-scratch
    // recompute over the final adjacency — the O(delta) update hides no
    // accumulated drift.
    let fresh = BaseDegrees::of(&incremental.base().adj);
    assert_degrees_bitwise(incremental.degrees(), &fresh, "vs from-scratch");

    // `LiveBase::server` hands those degrees to the server as they are; a
    // server that recomputes them from the adjacency answers the same.
    let model = GnnModel::new(GnnKind::Gcn, 3, 4, 2, 2);
    let handed = incremental.server(&model).try_serve(&probe()).unwrap();
    let recomputed =
        InductiveServer::on_synthetic(incremental.base(), incremental.mapping(), &model)
            .try_serve(&probe())
            .unwrap();
    assert!(handed.bit_eq(&recomputed), "handed-over degrees changed the served logits");
}

/// Serving off the grown base after three promotions: the live base's
/// server vs. a from-scratch server over the same grown artifacts, every
/// architecture; and `predict_frozen` with a cache built on the live
/// base vs. one built on the copy.
fn check_serving_equivalence() {
    let batch = probe();
    for kind in GnnKind::ALL {
        let model = GnnModel::new(kind, 3, 4, 2, 2);
        let (syn, map) = base();
        let mut live = LiveBase::synthetic(syn, map);
        for d in &deltas() {
            live.promote(d).unwrap();
        }
        let (grown, mapping) = (live.base().clone(), live.mapping().clone());
        let (live_server, fresh_server) =
            (live.server(&model), InductiveServer::on_synthetic(&grown, &mapping, &model));
        let a = live_server.try_serve(&batch).unwrap();
        let b = fresh_server.try_serve(&batch).unwrap();
        assert!(a.bit_eq(&b), "{}: exact logits diverged", kind.name());

        let frozen = |base: &Graph, server: &InductiveServer<'_>| {
            let cache = FrozenBase::new(&model, &base.adj, &base.features);
            let attach = server.attachment(&batch);
            model.predict_frozen(&cache, &attach, &batch.interconnect, &batch.features)
        };
        let a = frozen(live.base(), &live_server);
        let b = frozen(&grown, &fresh_server);
        assert!(a.bit_eq(&b), "{}: frozen logits diverged", kind.name());
    }
}

#[test]
fn incremental_state_matches_rebuild_at_1_and_4_threads() {
    with_thread_limit(1, check_state_equivalence);
    with_thread_limit(4, check_state_equivalence);
}

#[test]
fn incremental_serving_matches_rebuild_at_1_and_4_threads() {
    with_thread_limit(1, check_serving_equivalence);
    with_thread_limit(4, check_serving_equivalence);
}

/// The grown base is checkpointed like any condensed one: a bundle of
/// `live.base()` and `live.mapping()` round-trips through bytes and boots
/// a server that answers an original-width probe bitwise like the live
/// base's own server.
#[test]
fn grown_base_checkpoint_round_trips_and_serves_like_the_live_base() {
    // A real (tiny) condensation as the starting base: the SBM toy from
    // the chaos sweep.
    let g = mcond_graph::generate_sbm(&mcond_graph::SbmConfig {
        nodes: 24,
        edges: 60,
        feature_dim: 6,
        num_classes: 2,
        ..mcond_graph::SbmConfig::default()
    });
    let n = g.num_nodes();
    let train: Vec<usize> = (0..n - 6).collect();
    let val: Vec<usize> = (n - 6..n - 3).collect();
    let test: Vec<usize> = (n - 3..n).collect();
    let data = mcond_graph::InductiveDataset::new(g, train, val, test);
    let cfg = mcond_core::McondConfig {
        ratio: 0.3,
        outer_loops: 2,
        relay_steps: 1,
        mapping_steps: 1,
        ..mcond_core::McondConfig::default()
    };
    let condensed = mcond_core::condense(&data, &cfg);
    let model = GnnModel::new(GnnKind::Gcn, 6, 8, 2, 1);

    let synthetic = condensed.synthetic.clone();
    let mapping = condensed.mapping.clone();
    let mut live = LiveBase::synthetic(synthetic, mapping);
    let width = live.inc_width();
    live.promote(&delta_dim(2, 6, width, &[(0, 1, 1.0), (1, 3, 1.0)], 21)).unwrap();
    live.promote(&delta_dim(1, 6, width, &[(0, 0, 1.0), (0, 5, 0.5)], 22)).unwrap();

    let ckpt = Checkpoint::new(live.base().clone(), live.mapping().clone(), model.clone())
        .expect("grown base bundles");
    let restored = Checkpoint::from_bytes(ckpt.to_writer().to_bytes()).unwrap();
    assert!(restored.synthetic.adj.bit_eq(&live.base().adj), "adjacency changed in the store");
    assert!(restored.mapping.bit_eq(live.mapping()), "mapping changed in the store");

    let mut inc = Coo::new(1, 3);
    inc.push(0, 1, 1.0);
    let narrow = NodeBatch {
        features: MatRng::seed_from(5).normal(1, 6, 0.0, 1.0),
        incremental: inc.to_csr(),
        interconnect: Csr::empty(1, 1),
        labels: vec![0],
    };
    let booted = InductiveServer::from_checkpoint(&restored).try_serve(&narrow).unwrap();
    let served = live.server(&model).try_serve(&narrow).unwrap();
    assert!(booted.bit_eq(&served), "booted server diverged from the live base's");
}
