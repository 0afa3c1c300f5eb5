//! Request-level chaos harness for the serving layer.
//!
//! [`corrupted_batches`] takes one *valid* [`NodeBatch`] and derives a
//! catalogue of systematically corrupted variants — every structural and
//! numerical failure mode the serving boundary must absorb: an oversized
//! incremental width (a batch indexing base nodes that do not exist —
//! narrower widths are *valid* prefix requests against a live, growing
//! base),
//! `NaN`/`±Inf` in each sparse/dense component, out-of-range interconnect
//! columns, mismatched row counts, truncated label vectors.
//!
//! The contract, enforced by the `chaos_sweep` integration test and the
//! `robust_serving` example on **both** attachment targets (Eq. 3 original and
//! Eq. 11 synthetic): every corrupted batch is answered with a typed
//! [`ServeError`](crate::ServeError) — never a panic, never a non-finite
//! logit — and in a mixed fan-out
//! ([`try_serve_many`](crate::InductiveServer::try_serve_many)) the
//! corrupted siblings leave the valid batches' results bitwise untouched.

use mcond_graph::NodeBatch;
use mcond_sparse::Coo;

/// One corrupted batch and the failure mode it encodes.
pub struct ChaosCase {
    /// Short stable identifier of the corruption (e.g.
    /// `"inc-width-plus-one"`), usable as a test-case label.
    pub name: &'static str,
    /// The corrupted batch; feeding it to
    /// [`try_serve`](crate::InductiveServer::try_serve) must yield a typed
    /// error.
    pub batch: NodeBatch,
}

/// Derives the corruption catalogue from one valid, non-empty batch.
///
/// Cases that need existing structure to corrupt (a non-zero to poison, a
/// column to drop) are skipped when the donor batch lacks it, so the
/// catalogue is usable with any fixture; a batch with at least one node,
/// one feature column, and one incremental edge produces every case.
///
/// # Panics
/// Panics when the donor batch is empty — corruptions are relative to real
/// structure.
#[must_use]
pub fn corrupted_batches(valid: &NodeBatch) -> Vec<ChaosCase> {
    assert!(!valid.is_empty(), "corrupted_batches: donor batch must be non-empty");
    let n = valid.len();
    let inc_cols = valid.incremental.cols();
    let mut cases = Vec::new();
    let mut case = |name: &'static str, batch: NodeBatch| cases.push(ChaosCase { name, batch });

    // -- wrong incremental width: the batch indexes a different base graph.
    {
        let mut coo = Coo::with_capacity(n, inc_cols + 1, valid.incremental.nnz());
        for (i, j, v) in valid.incremental.iter() {
            coo.push(i, j, v);
        }
        let mut b = valid.clone();
        b.incremental = coo.to_csr();
        case("inc-width-plus-one", b);
    }
    // A *narrower* incremental is deliberately absent: live bases grow by
    // promotion and existing node ids never change meaning, so a batch
    // assembled against an older, smaller base is a valid prefix-width
    // request (`validate_against_prefix`), not a corruption.

    // -- non-finite features.
    if valid.features.cols() > 0 {
        for (name, bad) in [
            ("nan-feature", f32::NAN),
            ("inf-feature", f32::INFINITY),
            ("neg-inf-feature", f32::NEG_INFINITY),
        ] {
            let mut b = valid.clone();
            b.features.set(0, 0, bad);
            case(name, b);
        }
    }

    // -- non-finite sparse values.
    if valid.incremental.nnz() > 0 {
        let mut b = valid.clone();
        b.incremental = b.incremental.map_values(|_| f32::NAN);
        case("nan-incremental", b);
    }
    if valid.interconnect.nnz() > 0 {
        let mut b = valid.clone();
        b.interconnect = b.interconnect.map_values(|_| f32::INFINITY);
        case("inf-interconnect", b);
    }

    // -- interconnect shape violations.
    {
        let mut coo = Coo::new(n, n + 3);
        coo.push(0, n + 2, 1.0); // column indexes no batch node
        let mut b = valid.clone();
        b.interconnect = coo.to_csr();
        case("interconnect-out-of-range-column", b);
    }
    {
        let mut b = valid.clone();
        b.interconnect = Coo::new(n + 1, n).to_csr();
        case("interconnect-row-mismatch", b);
    }

    // -- row-count inconsistencies.
    {
        let mut b = valid.clone();
        b.labels.pop();
        case("truncated-labels", b);
    }
    {
        let mut b = valid.clone();
        b.features = b.features.slice_rows(0, n - 1);
        case("missing-feature-row", b);
    }

    // -- feature dimension drift.
    {
        let mut b = valid.clone();
        b.features = b.features.hstack(&mcond_linalg::DMat::zeros(n, 1));
        case("feature-dim-plus-one", b);
    }

    cases
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcond_graph::BatchError;
    use mcond_linalg::DMat;
    use mcond_sparse::Csr;

    fn donor() -> NodeBatch {
        let mut inc = Coo::new(2, 4);
        inc.push(0, 1, 1.0);
        inc.push(1, 3, 1.0);
        let mut inter = Coo::new(2, 2);
        inter.push_sym(0, 1, 1.0);
        NodeBatch {
            features: DMat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]),
            incremental: inc.to_csr(),
            interconnect: inter.to_csr(),
            labels: vec![0, 1],
        }
    }

    #[test]
    fn full_donor_produces_the_whole_catalogue() {
        let cases = corrupted_batches(&donor());
        assert_eq!(cases.len(), 11);
        let mut names: Vec<&str> = cases.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cases.len(), "case names must be unique");
    }

    #[test]
    fn every_case_fails_validation() {
        let donor = donor();
        assert_eq!(donor.validate_against_prefix(4, 2), Ok(()));
        for case in corrupted_batches(&donor) {
            assert!(
                case.batch.validate_against_prefix(4, 2).is_err(),
                "chaos case {} passed validation",
                case.name
            );
        }
    }

    #[test]
    fn structure_free_donor_skips_structure_dependent_cases() {
        let sparse_donor = NodeBatch {
            features: DMat::from_rows(&[&[0.5]]),
            incremental: Csr::empty(1, 4),
            interconnect: Csr::empty(1, 1),
            labels: vec![0],
        };
        let cases = corrupted_batches(&sparse_donor);
        let names: Vec<&str> = cases.iter().map(|c| c.name).collect();
        assert!(!names.contains(&"nan-incremental"));
        assert!(!names.contains(&"inf-interconnect"));
        assert!(names.contains(&"inc-width-plus-one"));
    }

    #[test]
    fn wrong_width_case_names_the_base_mismatch() {
        let donor = donor();
        let case = corrupted_batches(&donor)
            .into_iter()
            .find(|c| c.name == "inc-width-plus-one")
            .unwrap();
        assert_eq!(
            case.batch.validate_against_prefix(4, 2),
            Err(BatchError::IncrementalWidth { got: 5, expected: 4 })
        );
    }
}
