//! Named dataset presets calibrated to the paper's Table I.
//!
//! Each dataset is written once, as its [`Scale::Small`] spec: laptop size,
//! with a *shape* (homophily, degree skew, class imbalance, subclusters,
//! feature noise, split proportions) that mimics the real dataset. It is
//! the default for tests and the experiment binaries.
//!
//! The [`Scale::Paper`] spec is the small spec at Table I's size. Only the
//! counts change (nodes, edges, feature dimension `d`, classes, the
//! train/val/test sizes and the two ratios); every shape field is
//! inherited, and `center_scale` is derived as
//! `center_scale_small · √(d_small / d_paper)`. Class centres have
//! coordinates of scale `center_scale`, so they sit ≈ `center_scale · √d`
//! apart against a per-coordinate noise that does not grow with `d`; the
//! rule keeps that distance, so features alone do not solve the task.

use crate::sbm::{generate_sbm, SbmConfig};
use crate::{Graph, InductiveDataset};
use mcond_linalg::MatRng;
use std::str::FromStr;

/// Experiment scale selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-sized datasets preserving the statistical shape.
    Small,
    /// Table-I-sized datasets.
    Paper,
}

impl FromStr for Scale {
    type Err = String;

    /// Parses `small` or `paper`, the spelling of the `--scale` flags.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "small" => Ok(Self::Small),
            "paper" => Ok(Self::Paper),
            other => Err(format!("unknown scale {other:?}")),
        }
    }
}

/// A named dataset recipe: block-model parameters plus split sizes.
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Dataset name (`pubmed`, `flickr`, `reddit`).
    pub name: &'static str,
    /// Block-model parameters.
    pub sbm: SbmConfig,
    /// Number of training nodes (the original graph `T`).
    pub train: usize,
    /// Number of validation (support) nodes.
    pub val: usize,
    /// Number of test nodes.
    pub test: usize,
    /// Condensation ratios `r` evaluated in the paper for this dataset.
    pub ratios: [f64; 2],
}

/// The dataset names understood by [`load_dataset`].
pub const DATASET_NAMES: [&str; 3] = ["pubmed", "flickr", "reddit"];

/// Returns the recipe for a named dataset at the requested scale (the
/// paper spec is derived from the small one; see the module docs).
///
/// # Errors
/// Returns an error string for unknown names.
pub fn dataset_spec(name: &str, scale: Scale, seed: u64) -> Result<DatasetSpec, String> {
    // Pubmed is a homophilous citation net, Flickr is noisier and less
    // homophilous (GNN accuracies are low there), Reddit is large, dense,
    // highly homophilous and class-imbalanced. Table I's row is
    // [nodes, edges, d, classes, train, val, test] and the two ratios.
    let (small, table1, ratios) = match name {
        "pubmed" => (
            DatasetSpec {
                name: "pubmed",
                sbm: SbmConfig {
                    nodes: 1_200,
                    edges: 3_600,
                    feature_dim: 64,
                    num_classes: 3,
                    homophily: 0.85,
                    degree_exponent: 2.4,
                    class_imbalance: 0.3,
                    subclusters_per_class: 8,
                    subcluster_affinity: 0.85,
                    center_scale: 0.15,
                    feature_noise: 1.0,
                    seed,
                },
                train: 900,
                val: 100,
                test: 200,
                ratios: [0.01, 0.02],
            },
            [19_717, 44_338, 500, 3, 18_217, 500, 1_000],
            [0.0016, 0.0032],
        ),
        "flickr" => (
            DatasetSpec {
                name: "flickr",
                sbm: SbmConfig {
                    nodes: 2_000,
                    edges: 20_000,
                    feature_dim: 64,
                    num_classes: 7,
                    homophily: 0.45,
                    degree_exponent: 2.2,
                    class_imbalance: 0.6,
                    subclusters_per_class: 8,
                    subcluster_affinity: 0.85,
                    center_scale: 0.22,
                    feature_noise: 1.2,
                    seed,
                },
                train: 1_000,
                val: 500,
                test: 500,
                ratios: [0.01, 0.03],
            },
            [89_250, 899_756, 500, 7, 44_625, 22_312, 22_313],
            [0.001, 0.005],
        ),
        "reddit" => (
            DatasetSpec {
                name: "reddit",
                sbm: SbmConfig {
                    nodes: 4_000,
                    edges: 80_000,
                    feature_dim: 96,
                    num_classes: 8,
                    homophily: 0.92,
                    degree_exponent: 2.1,
                    class_imbalance: 1.0,
                    subclusters_per_class: 16,
                    subcluster_affinity: 0.85,
                    center_scale: 0.15,
                    feature_noise: 1.0,
                    seed,
                },
                train: 2_600,
                val: 400,
                test: 1_000,
                ratios: [0.0075, 0.015],
            },
            [232_965, 11_606_919, 602, 41, 153_932, 23_699, 55_334],
            [0.001, 0.005],
        ),
        _ => return Err(format!("unknown dataset {name:?}; expected one of {DATASET_NAMES:?}")),
    };
    if scale == Scale::Small {
        return Ok(small);
    }
    let [nodes, edges, feature_dim, num_classes, train, val, test] = table1;
    let rescale = (small.sbm.feature_dim as f64 / feature_dim as f64).sqrt() as f32;
    let center_scale = small.sbm.center_scale * rescale;
    let sbm = SbmConfig { nodes, edges, feature_dim, num_classes, center_scale, ..small.sbm };
    Ok(DatasetSpec { sbm, train, val, test, ratios, ..small })
}

/// Generates the named dataset and its inductive split.
///
/// # Errors
/// Returns an error string for unknown names.
pub fn load_dataset(name: &str, scale: Scale, seed: u64) -> Result<InductiveDataset, String> {
    let spec = dataset_spec(name, scale, seed)?;
    Ok(build_split(generate_sbm(&spec.sbm), &spec, seed))
}

/// Randomly partitions a graph's nodes per the spec's split sizes.
fn build_split(graph: Graph, spec: &DatasetSpec, seed: u64) -> InductiveDataset {
    assert!(
        spec.train + spec.val + spec.test <= graph.num_nodes(),
        "split sizes exceed node count"
    );
    // Derive the split from an independent stream so the graph content and
    // split assignment can be varied separately.
    let mut rng = MatRng::seed_from(seed.wrapping_mul(0x9E37_79B9).wrapping_add(7));
    let mut order: Vec<usize> = (0..graph.num_nodes()).collect();
    rng.shuffle(&mut order);
    let train = order[..spec.train].to_vec();
    let val = order[spec.train..spec.train + spec.val].to_vec();
    let test = order[spec.train + spec.val..spec.train + spec.val + spec.test].to_vec();
    InductiveDataset::new(graph, train, val, test)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_names_resolve_at_small_scale() {
        for name in DATASET_NAMES {
            let data = load_dataset(name, Scale::Small, 0).unwrap();
            assert!(data.original_graph().num_nodes() > 0, "{name}");
        }
    }

    #[test]
    fn unknown_name_errors() {
        assert!(load_dataset("cora", Scale::Small, 0).is_err());
        assert!(dataset_spec("", Scale::Paper, 0).is_err());
    }

    #[test]
    fn paper_scale_spec_matches_table1() {
        // name, [nodes, edges, d, classes], [train, val, test], ratios.
        let table1 = [
            ("pubmed", [19_717, 44_338, 500, 3], [18_217, 500, 1_000], [0.0016, 0.0032]),
            ("flickr", [89_250, 899_756, 500, 7], [44_625, 22_312, 22_313], [0.001, 0.005]),
            ("reddit", [232_965, 11_606_919, 602, 41], [153_932, 23_699, 55_334], [1e-3, 5e-3]),
        ];
        for (name, counts, split, ratios) in table1 {
            let spec = dataset_spec(name, Scale::Paper, 0).unwrap();
            let sbm = &spec.sbm;
            assert_eq!([sbm.nodes, sbm.edges, sbm.feature_dim, sbm.num_classes], counts, "{name}");
            assert_eq!([spec.train, spec.val, spec.test], split, "{name}");
            assert_eq!(spec.ratios, ratios, "{name}");
        }
    }

    /// A paper spec is its small twin at Table I's counts: every shape
    /// field is inherited, and `center_scale` keeps the small spec's
    /// distance between class centres, `center_scale · √d`.
    #[test]
    fn paper_spec_is_its_small_twin_rescaled() {
        let derived = [("pubmed", 0.0537), ("flickr", 0.0787), ("reddit", 0.0599)];
        for (name, want_center_scale) in derived {
            let small = dataset_spec(name, Scale::Small, 4).unwrap();
            let paper = dataset_spec(name, Scale::Paper, 4).unwrap();
            let (s, p) = (&small.sbm, &paper.sbm);
            let counts_back = SbmConfig {
                nodes: s.nodes,
                edges: s.edges,
                feature_dim: s.feature_dim,
                num_classes: s.num_classes,
                center_scale: s.center_scale,
                ..p.clone()
            };
            assert_eq!(format!("{counts_back:?}"), format!("{s:?}"), "{name}: shape differs");
            assert_eq!(paper.name, small.name);
            let separation = |c: &SbmConfig| c.center_scale * (c.feature_dim as f32).sqrt();
            assert!((separation(p) - separation(s)).abs() < 1e-5, "{name}");
            assert!((p.center_scale - want_center_scale).abs() < 5e-5, "{name}");
        }
    }

    #[test]
    fn small_split_sizes_are_exact() {
        let data = load_dataset("pubmed", Scale::Small, 3).unwrap();
        assert_eq!(data.train_idx.len(), 900);
        assert_eq!(data.val_idx.len(), 100);
        assert_eq!(data.test_idx.len(), 200);
    }

    #[test]
    fn split_is_seed_deterministic() {
        let a = load_dataset("flickr", Scale::Small, 5).unwrap();
        let b = load_dataset("flickr", Scale::Small, 5).unwrap();
        assert_eq!(a.train_idx, b.train_idx);
        assert_eq!(a.test_idx, b.test_idx);
    }

    #[test]
    fn dataset_characters_are_ordered() {
        // Reddit-small must be more homophilous than Flickr-small, and
        // Flickr-small denser than Pubmed-small — the traits the paper's
        // result ordering depends on.
        let pubmed = load_dataset("pubmed", Scale::Small, 0).unwrap();
        let flickr = load_dataset("flickr", Scale::Small, 0).unwrap();
        let reddit = load_dataset("reddit", Scale::Small, 0).unwrap();
        assert!(reddit.full.edge_homophily() > flickr.full.edge_homophily());
        let avg_deg = |g: &Graph| 2.0 * g.num_edges() as f64 / g.num_nodes() as f64;
        assert!(avg_deg(&flickr.full) > avg_deg(&pubmed.full));
    }
}
