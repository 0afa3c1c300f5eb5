//! Property-style tests of the condensation building blocks, driven by
//! the workspace's seeded [`MatRng`] (no external fuzzing crate).

use mcond_core::{coreset, vng, CoresetMethod, Mapping};
use mcond_graph::{generate_sbm, SbmConfig};
use mcond_linalg::{DMat, MatRng};

const CASES: u64 = 16;

fn case_rng(salt: u64, case: u64) -> MatRng {
    MatRng::seed_from(0xC04E ^ (salt << 32) ^ case)
}

fn arb_graph(rng: &mut MatRng) -> mcond_graph::Graph {
    let nodes = 40 + rng.index(80);
    generate_sbm(&SbmConfig {
        nodes,
        edges: nodes * 3,
        feature_dim: 6,
        num_classes: 2 + rng.index(3),
        seed: 1 + rng.index(29) as u64,
        ..SbmConfig::default()
    })
}

/// Every coreset method returns exactly the requested node count, a
/// one-hot mapping, and preserves all classes.
#[test]
fn coreset_invariants() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let g = arb_graph(&mut rng);
        let n_select = g.num_classes + rng.index(10);
        let seed = rng.index(5) as u64;
        for method in CoresetMethod::ALL {
            let reduced = coreset(&g, &g.features, n_select, method, seed);
            assert_eq!(reduced.graph.num_nodes(), n_select, "case {case} {method:?}");
            assert_eq!(reduced.mapping.nnz(), n_select, "case {case} {method:?}");
            assert!(
                reduced.graph.class_counts().iter().all(|&c| c >= 1),
                "case {case} {method:?}"
            );
            // Mapping columns are a permutation-free selection: each column
            // has exactly one entry.
            let mut col_counts = vec![0usize; n_select];
            for (_, j, v) in reduced.mapping.iter() {
                assert_eq!(v, 1.0, "case {case} {method:?}");
                col_counts[j] += 1;
            }
            assert!(col_counts.iter().all(|&c| c == 1), "case {case} {method:?}");
        }
    }
}

/// VNG covers every original node exactly once and its virtual features
/// lie inside the convex hull (coordinate-wise bounds) of the inputs.
#[test]
fn vng_invariants() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let g = arb_graph(&mut rng);
        let k = (g.num_classes + rng.index(8)).min(g.num_nodes());
        let seed = rng.index(5) as u64;
        let reduced = vng(&g, &g.features, k, seed);
        assert_eq!(reduced.mapping.nnz(), g.num_nodes(), "case {case}");
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        for v in g.features.as_slice() {
            lo = lo.min(*v);
            hi = hi.max(*v);
        }
        for v in reduced.graph.features.as_slice() {
            assert!(
                *v >= lo - 1e-4 && *v <= hi + 1e-4,
                "case {case}: feature {v} outside hull"
            );
        }
    }
}

/// Eq. (15) normalisation: rows are non-negative and sum to ≤ 1 for any
/// raw mapping.
#[test]
fn mapping_normalisation_bounds() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let rows = 1 + rng.index(11);
        let cols = 1 + rng.index(7);
        let eps = 0.05 * rng.unit();
        let mut mat_rng = MatRng::seed_from(rng.index(50) as u64);
        let m = Mapping { raw: mat_rng.normal(rows, cols, 0.0, 2.0).into(), epsilon: eps };
        let norm = m.normalized_detached();
        for i in 0..rows {
            let row_sum: f32 = norm.row(i).iter().sum();
            assert!(row_sum <= 1.0 + 1e-4, "case {case}: row {i} sums to {row_sum}");
            assert!(norm.row(i).iter().all(|&v| v >= 0.0), "case {case}: row {i}");
        }
    }
}

/// Larger epsilon never increases any normalised entry.
#[test]
fn epsilon_is_monotone() {
    for case in 0..CASES {
        let mut rng = case_rng(4, case);
        let rows = 1 + rng.index(7);
        let cols = 1 + rng.index(5);
        let mut mat_rng = MatRng::seed_from(rng.index(20) as u64);
        let raw = mat_rng.normal(rows, cols, 0.0, 1.5);
        let small = Mapping { raw: raw.clone().into(), epsilon: 1e-4 }.normalized_detached();
        let large = Mapping { raw: raw.into(), epsilon: 5e-2 }.normalized_detached();
        for (a, b) in large.as_slice().iter().zip(small.as_slice()) {
            assert!(a <= b, "case {case}: {a} > {b}");
        }
    }
}

/// Class-aware init always produces a strictly diagonal-dominant
/// class-correlation matrix.
#[test]
fn class_init_correlation_is_diagonal_dominant() {
    for case in 0..CASES {
        let g = arb_graph(&mut case_rng(5, case));
        let syn_labels: Vec<usize> = (0..g.num_classes).collect();
        let m = Mapping::class_init(&g.labels, &syn_labels, 1e-5);
        let corr = m.class_correlation(&g.labels, &syn_labels, g.num_classes);
        for a in 0..g.num_classes {
            for b in 0..g.num_classes {
                if a != b {
                    assert!(
                        corr.get(a, a) > corr.get(a, b),
                        "case {case}: class {a}: diagonal {} <= off {}",
                        corr.get(a, a),
                        corr.get(a, b)
                    );
                }
            }
        }
    }
}

/// Deterministic check outside the randomized fan: herding on identical
/// embeddings still returns the requested count (degenerate distance field).
#[test]
fn herding_handles_degenerate_embeddings() {
    let g = generate_sbm(&SbmConfig {
        nodes: 60,
        edges: 150,
        feature_dim: 4,
        num_classes: 3,
        ..SbmConfig::default()
    });
    let constant = DMat::filled(g.num_nodes(), 4, 1.0);
    let reduced = coreset(&g, &constant, 9, CoresetMethod::Herding, 0);
    assert_eq!(reduced.graph.num_nodes(), 9);
}
