//! Request validation for inductive serving.
//!
//! A [`NodeBatch`](crate::NodeBatch) arriving at a server is untrusted
//! input: it may have been assembled against the wrong base graph, carry
//! non-finite features, or be structurally inconsistent (truncated labels,
//! an interconnect block of the wrong shape). Every inconsistency is a
//! typed [`BatchError`] so serving layers can reject a request instead of
//! panicking deep inside a kernel — see `mcond-core`'s
//! `InductiveServer::try_serve`.

use crate::NodeBatch;
use std::fmt;

/// A structural or numerical defect in a [`NodeBatch`].
///
/// Variants are ordered roughly by how early the defect is detectable:
/// internal row-count consistency first, then cross-checks against the
/// serving base, then value hygiene.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchError {
    /// A component's row count disagrees with the batch's node count
    /// (`labels.len()`): truncated label vectors and missing feature or
    /// incremental rows all land here.
    RowCountMismatch {
        /// Which component disagrees (`"features"` / `"incremental"`).
        component: &'static str,
        /// Rows the component actually has.
        rows: usize,
        /// The batch's node count.
        expected: usize,
    },
    /// The interconnect block `ã` is not `n x n` — including out-of-range
    /// interconnect columns, which manifest as a too-wide block.
    InterconnectShape {
        /// Actual rows of the interconnect block.
        rows: usize,
        /// Actual columns of the interconnect block.
        cols: usize,
        /// The batch's node count `n`.
        expected: usize,
    },
    /// The incremental adjacency's columns do not index the serving base
    /// (the mapping's rows, the training-node count when `M = I`): the
    /// batch indexes a different base graph.
    IncrementalWidth {
        /// Columns the incremental block actually has.
        got: usize,
        /// Base width the server expected.
        expected: usize,
    },
    /// Feature dimension disagrees with the base features.
    FeatureDim {
        /// Columns the batch features actually have.
        got: usize,
        /// Feature dimension of the serving base.
        expected: usize,
    },
    /// A component carries a `NaN` or `±Inf` value.
    NonFinite {
        /// Which component is poisoned (`"features"` / `"incremental"` /
        /// `"interconnect"`).
        component: &'static str,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::RowCountMismatch { component, rows, expected } => write!(
                f,
                "batch {component} has {rows} rows but the batch holds {expected} nodes"
            ),
            BatchError::InterconnectShape { rows, cols, expected } => write!(
                f,
                "batch interconnect is {rows}x{cols} but must be \
                 {expected}x{expected} (columns may only index batch nodes)"
            ),
            BatchError::IncrementalWidth { got, expected } => write!(
                f,
                "batch incremental width {got} does not match the serving base \
                 width {expected}: batch indexes a different base graph"
            ),
            BatchError::FeatureDim { got, expected } => write!(
                f,
                "batch feature dimension {got} does not match the base feature \
                 dimension {expected}"
            ),
            BatchError::NonFinite { component } => {
                write!(f, "batch {component} contains a non-finite (NaN/Inf) value")
            }
        }
    }
}

impl std::error::Error for BatchError {}

impl NodeBatch {
    /// Validates the batch against a serving base: `base_cols` is the
    /// width of the base's index space (the mapping's rows, the
    /// training-node count when `M = I`) and `feature_dim` the base's
    /// feature dimension.
    ///
    /// The incremental width may be *narrower* than `base_cols`: a live
    /// base only ever appends nodes — existing ids never change meaning —
    /// so a batch assembled against an older, smaller base still addresses
    /// a valid prefix of the grown index space. A *wider* batch fails with
    /// [`BatchError::IncrementalWidth`]: it indexes nodes this base does
    /// not have.
    ///
    /// Checks, in order: internal row-count consistency (features and
    /// incremental rows vs. `labels.len()`), the interconnect's `n x n`
    /// shape, the incremental width, the feature dimension, and finally
    /// that every value in features/incremental/interconnect is finite.
    /// Returns the first defect found; an empty batch with consistent
    /// shapes is valid.
    ///
    /// # Errors
    /// The first [`BatchError`] detected, in the order above.
    pub fn validate_against_prefix(
        &self,
        base_cols: usize,
        feature_dim: usize,
    ) -> Result<(), BatchError> {
        let n = self.labels.len();
        if self.features.rows() != n {
            return Err(BatchError::RowCountMismatch {
                component: "features",
                rows: self.features.rows(),
                expected: n,
            });
        }
        if self.incremental.rows() != n {
            return Err(BatchError::RowCountMismatch {
                component: "incremental",
                rows: self.incremental.rows(),
                expected: n,
            });
        }
        if self.interconnect.rows() != n || self.interconnect.cols() != n {
            return Err(BatchError::InterconnectShape {
                rows: self.interconnect.rows(),
                cols: self.interconnect.cols(),
                expected: n,
            });
        }
        if self.incremental.cols() > base_cols {
            return Err(BatchError::IncrementalWidth {
                got: self.incremental.cols(),
                expected: base_cols,
            });
        }
        if self.features.cols() != feature_dim {
            return Err(BatchError::FeatureDim {
                got: self.features.cols(),
                expected: feature_dim,
            });
        }
        if !self.features.all_finite() {
            return Err(BatchError::NonFinite { component: "features" });
        }
        if !self.incremental.all_finite() {
            return Err(BatchError::NonFinite { component: "incremental" });
        }
        if !self.interconnect.all_finite() {
            return Err(BatchError::NonFinite { component: "interconnect" });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcond_linalg::DMat;
    use mcond_sparse::{Coo, Csr};

    /// A consistent 2-node batch against a 3-node base with 2-dim features.
    fn valid() -> NodeBatch {
        let mut inc = Coo::new(2, 3);
        inc.push(0, 1, 1.0);
        inc.push(1, 2, 0.5);
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
    fn valid_batch_passes() {
        assert_eq!(valid().validate_against_prefix(3, 2), Ok(()));
    }

    #[test]
    fn empty_batch_is_valid() {
        let b = NodeBatch {
            features: DMat::zeros(0, 2),
            incremental: Csr::empty(0, 3),
            interconnect: Csr::empty(0, 0),
            labels: Vec::new(),
        };
        assert_eq!(b.validate_against_prefix(3, 2), Ok(()));
    }

    #[test]
    fn truncated_labels_are_a_row_count_mismatch() {
        let mut b = valid();
        b.labels.pop();
        assert_eq!(
            b.validate_against_prefix(3, 2),
            Err(BatchError::RowCountMismatch { component: "features", rows: 2, expected: 1 })
        );
    }

    #[test]
    fn missing_feature_row_is_detected() {
        let mut b = valid();
        b.features = b.features.slice_rows(0, 1);
        assert_eq!(
            b.validate_against_prefix(3, 2),
            Err(BatchError::RowCountMismatch { component: "features", rows: 1, expected: 2 })
        );
    }

    #[test]
    fn interconnect_with_out_of_range_columns_is_rejected() {
        let mut b = valid();
        let mut inter = Coo::new(2, 5);
        inter.push(0, 4, 1.0); // column 4 indexes no batch node
        b.interconnect = inter.to_csr();
        assert_eq!(
            b.validate_against_prefix(3, 2),
            Err(BatchError::InterconnectShape { rows: 2, cols: 5, expected: 2 })
        );
    }

    #[test]
    fn wider_incremental_width_names_the_base_mismatch() {
        let b = valid(); // incremental is 2x3
        let err = b.validate_against_prefix(2, 2).unwrap_err();
        assert_eq!(err, BatchError::IncrementalWidth { got: 3, expected: 2 });
        assert!(err.to_string().contains("different base graph"));
    }

    #[test]
    fn prefix_validation_accepts_narrower_but_not_wider_batches() {
        let b = valid(); // incremental is 2x3
        // Against a base that has since grown to 7 nodes: prefix-valid.
        assert_eq!(b.validate_against_prefix(7, 2), Ok(()));
        // Exact width passes too.
        assert_eq!(b.validate_against_prefix(3, 2), Ok(()));
        // Wider than the base: indexes nodes that do not exist.
        assert_eq!(
            b.validate_against_prefix(0, 2),
            Err(BatchError::IncrementalWidth { got: 3, expected: 0 })
        );
    }

    #[test]
    fn feature_dim_mismatch_is_rejected() {
        let b = valid();
        assert_eq!(
            b.validate_against_prefix(3, 5),
            Err(BatchError::FeatureDim { got: 2, expected: 5 })
        );
    }

    #[test]
    fn non_finite_values_are_rejected_per_component() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut b = valid();
            b.features.set(1, 0, bad);
            assert_eq!(
                b.validate_against_prefix(3, 2),
                Err(BatchError::NonFinite { component: "features" }),
            );

            let mut b = valid();
            b.incremental = b.incremental.map_values(|_| bad);
            assert_eq!(
                b.validate_against_prefix(3, 2),
                Err(BatchError::NonFinite { component: "incremental" }),
            );

            let mut b = valid();
            b.interconnect = b.interconnect.map_values(|_| bad);
            assert_eq!(
                b.validate_against_prefix(3, 2),
                Err(BatchError::NonFinite { component: "interconnect" }),
            );
        }
    }
}
