//! Live-graph delta ingestion: promoting served inductive nodes into the
//! synthetic base.
//!
//! The paper answers unseen nodes against a fixed `S = {A', X', Y'}`.
//! [`LiveBase`] lets the nodes served against it become part of the graph
//! the *next* queries attach to: [`LiveBase::promote`] folds a batch of
//! served nodes (features + attachment edges, as a [`GraphDelta`]) into
//! the base. The attachment is first mapped through `M` (Eq. 11, `aM`)
//! and renormalised row-stochastic, then appended both as new rows of `M`
//! and as a block extension of the base adjacency/features.
//! [`BaseDegrees`] are updated incrementally (O(delta nnz), not O(base
//! nnz)). The grown base is checkpointed like any condensed one:
//! `Checkpoint::new(live.base().clone(), live.mapping().clone(), model.clone())`.
//!
//! A server over the live base ([`LiveBase::server`]) borrows it, so no
//! promotion can land while one exists: the degree sums it shares with
//! that server always describe the base it serves. See `DESIGN.md` §4l.

use crate::server::InductiveServer;
use mcond_gnn::{BaseDegrees, GnnModel};
use mcond_graph::{BatchError, Graph, NodeBatch};
use mcond_sparse::{renormalize_rows, spmm_sparse, Csr};
use std::borrow::Cow;
use std::fmt;

/// A batch of served inductive nodes queued for promotion into the base:
/// exactly the payload of a [`NodeBatch`] — features, incremental
/// adjacency into the base's index space, interconnect among the batch,
/// labels — but with promotion (not one-shot inference) semantics.
#[derive(Clone, Debug)]
pub struct GraphDelta {
    /// The served batch being promoted. Its `incremental` block may be
    /// narrower than the current mapping (assembled before earlier
    /// promotions landed): its columns then address a prefix of the
    /// mapping's rows, exactly like prefix serving.
    pub batch: NodeBatch,
}

impl GraphDelta {
    /// Wraps a served batch for promotion.
    #[must_use]
    pub fn new(batch: NodeBatch) -> Self {
        Self { batch }
    }

    /// Clones a served batch into a delta (the serving path keeps the
    /// original for its own reply).
    #[must_use]
    pub fn from_batch(batch: &NodeBatch) -> Self {
        Self { batch: batch.clone() }
    }

    /// Nodes this delta promotes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.batch.labels.len()
    }
}

/// Why a promotion was refused. The base is never left half-mutated: a
/// rejected delta changes nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// The delta failed the same structural validation a serve request
    /// undergoes ([`NodeBatch::validate_against_prefix`]).
    Invalid(BatchError),
    /// A promoted node's label does not fit the base's class space —
    /// the base cannot represent it.
    LabelOutOfRange {
        /// Batch-local index of the offending node.
        node: usize,
        /// Its label.
        label: usize,
        /// The base's class count.
        classes: usize,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::Invalid(e) => write!(f, "invalid delta: {e}"),
            DeltaError::LabelOutOfRange { node, label, classes } => write!(
                f,
                "delta node {node} carries label {label} but the base has only \
                 {classes} classes"
            ),
        }
    }
}

impl std::error::Error for DeltaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeltaError::Invalid(e) => Some(e),
            DeltaError::LabelOutOfRange { .. } => None,
        }
    }
}

impl From<BatchError> for DeltaError {
    fn from(e: BatchError) -> Self {
        DeltaError::Invalid(e)
    }
}

/// Receipt for one [`LiveBase::promote`] call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PromotionReport {
    /// Nodes promoted.
    pub nodes: usize,
    /// Stored non-zeros added (attachment block + interconnect, before
    /// mirroring).
    pub edges: usize,
    /// The base version after this promotion.
    pub version: u64,
}

/// A serving base that grows: the condensed graph and its mapping plus
/// the degree sums and version needed to fold served nodes in
/// incrementally.
pub struct LiveBase {
    base: Graph,
    mapping: Csr,
    degrees: BaseDegrees,
    version: u64,
}

impl LiveBase {
    /// A live base over a condensed graph served through its mapping
    /// (Eq. 11 attachment).
    ///
    /// # Panics
    /// Panics when the mapping's columns do not index the graph's nodes.
    #[must_use]
    pub fn synthetic(base: Graph, mapping: Csr) -> Self {
        assert_eq!(
            mapping.cols(),
            base.num_nodes(),
            "LiveBase: mapping columns must index the base nodes"
        );
        let degrees = BaseDegrees::of(&base.adj);
        Self { base, mapping, degrees, version: 0 }
    }

    /// The current (grown) base graph.
    #[must_use]
    pub fn base(&self) -> &Graph {
        &self.base
    }

    /// The current (grown) mapping.
    #[must_use]
    pub fn mapping(&self) -> &Csr {
        &self.mapping
    }

    /// The incrementally maintained degree sums.
    #[must_use]
    pub fn degrees(&self) -> &BaseDegrees {
        &self.degrees
    }

    /// The current base version (one bump per promotion).
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Width a delta's incremental block is validated against: the
    /// mapping's row space (original training nodes + promoted nodes).
    #[must_use]
    pub fn inc_width(&self) -> usize {
        self.mapping.rows()
    }

    /// Folds a batch of served nodes into the base. On success the base
    /// adjacency/features/labels have grown by `delta.nodes()` rows, the
    /// mapping gained the renormalised attachment rows, the degree sums
    /// were extended incrementally (bitwise identical to a from-scratch
    /// [`BaseDegrees::of`]), and the version was bumped.
    ///
    /// # Errors
    /// [`DeltaError`] when the delta is structurally invalid or carries
    /// an out-of-range label; the base is unchanged.
    pub fn promote(&mut self, delta: &GraphDelta) -> Result<PromotionReport, DeltaError> {
        delta.batch.validate_against_prefix(self.inc_width(), self.base.feature_dim())?;
        if let Some((node, &label)) =
            delta.batch.labels.iter().enumerate().find(|&(_, &y)| y >= self.base.num_classes)
        {
            return Err(DeltaError::LabelOutOfRange {
                node,
                label,
                classes: self.base.num_classes,
            });
        }
        let n = delta.nodes();

        // Attachment rows in the base's index space: aM (Eq. 11),
        // renormalised row-stochastic like every other row of M (Eq. 15).
        // A prefix-width `a` addresses the first rows of M as it is.
        let attach = renormalize_rows(&spmm_sparse(&delta.batch.incremental, &self.mapping));
        let inter = &delta.batch.interconnect;
        let edges = attach.nnz() + inter.nnz();

        self.degrees.extend_for_promotion(&attach, inter);
        let adj = self.base.adj.block_extend(&attach, inter);
        let features = self.base.features.vstack(&delta.batch.features);
        let mut labels = self.base.labels.clone();
        labels.extend_from_slice(&delta.batch.labels);
        self.base = Graph::new(adj, features, labels, self.base.num_classes);
        let grown_width = self.mapping.cols() + n;
        self.mapping =
            self.mapping.widen_cols(grown_width).append_rows(&attach.widen_cols(grown_width));
        self.version += 1;

        mcond_obs::counter_add("delta.promotions", 1);
        mcond_obs::counter_add("delta.promoted_nodes", n as u64);
        mcond_obs::counter_add("delta.edges", edges as u64);
        Ok(PromotionReport { nodes: n, edges, version: self.version })
    }

    /// Boots a serving endpoint on this base's *current* state, handing
    /// it the incrementally maintained degree sums as they are.
    ///
    /// The server borrows the base, so the base cannot be promoted while
    /// the server lives — which is why the degree sums it was handed can
    /// never go stale:
    ///
    /// ```compile_fail,E0502
    /// # use mcond_core::{GraphDelta, LiveBase};
    /// # fn demo(live: &mut LiveBase, model: &mcond_gnn::GnnModel, delta: &GraphDelta) {
    /// let server = live.server(model);
    /// live.promote(delta).unwrap(); // error: `*live` is borrowed by `server`
    /// drop(server);
    /// # }
    /// ```
    ///
    /// # Panics
    /// Panics when the model's input width is not the base's feature
    /// width — at construction, which builds the model's
    /// [`BasePrefix`](mcond_gnn::BasePrefix) on the grown base.
    #[must_use]
    pub fn server<'a>(&'a self, model: &'a GnnModel) -> InductiveServer<'a> {
        InductiveServer::new(
            Cow::Borrowed(&self.base),
            Cow::Borrowed(&self.degrees),
            Cow::Borrowed(&self.mapping),
            Cow::Borrowed(model),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcond_gnn::GnnKind;
    use mcond_graph::InductiveDataset;
    use mcond_linalg::{DMat, MatRng};
    use mcond_sparse::Coo;

    /// 6-node toy with train {0,1,2}, val {3}, test {4,5} — the same
    /// fixture the inference tests use.
    fn toy() -> InductiveDataset {
        let mut coo = Coo::new(6, 6);
        for &(i, j) in &[(0, 1), (1, 2), (0, 2), (3, 0), (4, 1), (5, 2), (4, 5)] {
            coo.push_sym(i, j, 1.0);
        }
        let features = MatRng::seed_from(0).normal(6, 3, 0.0, 1.0);
        let g = Graph::new(coo.to_csr(), features, vec![0, 1, 0, 1, 0, 1], 2);
        InductiveDataset::new(g, vec![0, 1, 2], vec![3], vec![4, 5])
    }

    fn syn_base() -> (Graph, Csr) {
        let syn = Graph::new(
            Csr::eye(2),
            DMat::from_rows(&[&[1., 0., 0.], &[0., 1., 0.]]),
            vec![0, 1],
            2,
        );
        let mut map = Coo::new(3, 2);
        map.push(0, 0, 0.5);
        map.push(1, 0, 0.5);
        map.push(2, 1, 1.0);
        (syn, map.to_csr())
    }

    #[test]
    fn promotion_grows_base_mapping_and_degrees_consistently() {
        let data = toy();
        let (syn, map) = syn_base();
        let mut live = LiveBase::synthetic(syn, map);
        assert_eq!(live.inc_width(), 3);

        let delta = GraphDelta::from_batch(&data.batch(&[4, 5], false));
        let report = live.promote(&delta).unwrap();
        assert_eq!(report.nodes, 2);
        assert_eq!(report.version, 1);

        // Base grew by two nodes; the mapping gained two rows *and* two
        // columns (promoted nodes are addressable base nodes).
        assert_eq!(live.base().num_nodes(), 4);
        let m = live.mapping();
        assert_eq!((m.rows(), m.cols()), (5, 4));
        assert_eq!(live.inc_width(), 5);
        // Appended mapping rows are row-stochastic (Eq. 15 semantics).
        for i in 3..5 {
            let s: f32 = m.row_vals(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-6, "row {i} sums to {s}");
        }
        // Incremental degrees match a from-scratch recompute bitwise.
        let fresh = BaseDegrees::of(&live.base().adj);
        assert_eq!(live.degrees().sym, fresh.sym);
        assert_eq!(live.degrees().mean, fresh.mean);

        // A delta assembled before the growth (width 3 < inc_width 5)
        // lands on the same bits as that delta widened by hand.
        let narrow = data.batch(&[3], false);
        assert_eq!(narrow.incremental.cols(), 3);
        let mut widened = narrow.clone();
        widened.incremental = widened.incremental.widen_cols(live.inc_width());
        let (syn, map) = syn_base();
        let mut by_hand = LiveBase::synthetic(syn, map);
        by_hand.promote(&delta).unwrap();
        live.promote(&GraphDelta::new(narrow)).unwrap();
        by_hand.promote(&GraphDelta::new(widened)).unwrap();
        assert!(live.base().adj.bit_eq(&by_hand.base().adj));
        assert!(live.mapping().bit_eq(by_hand.mapping()));
        assert_eq!(live.degrees().sym, by_hand.degrees().sym);
        assert_eq!(live.degrees().mean, by_hand.degrees().mean);
    }

    #[test]
    fn rejected_deltas_leave_the_base_untouched() {
        let data = toy();
        let (syn, map) = syn_base();
        let mut live = LiveBase::synthetic(syn, map);
        let before_nodes = live.base().num_nodes();

        // Too-wide incremental block: structurally invalid.
        let mut batch = data.batch(&[4], false);
        batch.incremental = Csr::empty(1, 9);
        match live.promote(&GraphDelta::new(batch)) {
            Err(DeltaError::Invalid(BatchError::IncrementalWidth { got: 9, expected: 3 })) => {}
            other => panic!("expected IncrementalWidth, got {other:?}"),
        }

        // Label outside the base's class space.
        let mut batch = data.batch(&[4], false);
        batch.labels[0] = 7;
        match live.promote(&GraphDelta::new(batch)) {
            Err(DeltaError::LabelOutOfRange { node: 0, label: 7, classes: 2 }) => {}
            other => panic!("expected LabelOutOfRange, got {other:?}"),
        }

        assert_eq!(live.base().num_nodes(), before_nodes);
        assert_eq!(live.version(), 0);
    }

    /// For every architecture — APPNP's prefix has two sites — so a
    /// grown base's prefix is the one a fresh server builds.
    #[test]
    fn served_logits_after_promotion_match_a_fresh_server() {
        let data = toy();
        let (syn, map) = syn_base();
        let mut live = LiveBase::synthetic(syn, map);
        live.promote(&GraphDelta::from_batch(&data.batch(&[4], false))).unwrap();
        let batch = data.batch(&[5], false);
        for kind in GnnKind::ALL {
            let model = GnnModel::new(kind, 3, 4, 2, 1);
            // A narrow (pre-promotion) batch is served by the live server...
            let live_out = live.server(&model).try_serve(&batch).unwrap();
            // ...and matches a from-scratch server over the grown artifacts.
            let base = live.base().clone();
            let mapping = live.mapping().clone();
            let fresh = InductiveServer::on_synthetic(&base, &mapping, &model);
            let fresh_out = fresh.try_serve(&batch).unwrap();
            assert!(live_out.bit_eq(&fresh_out), "{}", kind.name());
        }
    }
}
