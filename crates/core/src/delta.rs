//! Live-graph delta ingestion: promoting served inductive nodes into the
//! base.
//!
//! The paper's serving story is static — condense once, then answer
//! inductive queries against a frozen `S = {A', X', Y'}` forever. Real
//! graphs keep growing: nodes that arrived as inductive queries become
//! part of the graph the *next* queries attach to. [`LiveBase`] closes
//! that loop:
//!
//! 1. **Promotion** ([`LiveBase::promote`]): a batch of served nodes
//!    (features + attachment edges, as a [`GraphDelta`]) is folded into
//!    the base. On a synthetic base the attachment is first mapped
//!    through `M` (Eq. 11, `aM`) and renormalised row-stochastic, then
//!    appended both as new rows of `M` and as a block extension of the
//!    base adjacency/features. [`BaseDegrees`] are updated incrementally
//!    (O(delta nnz), not O(base nnz)).
//! 2. **Refresh** ([`LiveBase::refresh`]): a cheap re-run of only the
//!    mapping/sparsification stage (Eq. 12–15, via
//!    [`Condensed::resparsify`]) against the stored dense matrices,
//!    replaying the promotion log on the fresh base and emitting a
//!    serve-ready [`Checkpoint`] stamped with a [`DeltaLineage`] — ready
//!    to hot-swap through `EpochServer` without dropping requests.
//!
//! A server over the live base ([`LiveBase::server`]) borrows it, so no
//! promotion can land while one exists: the degree sums it shares with
//! that server always describe the base it serves. See `DESIGN.md` §4l.

use crate::checkpoint::Checkpoint;
use crate::condense::Condensed;
use crate::server::InductiveServer;
use mcond_gnn::{BaseDegrees, GnnModel};
use mcond_graph::{BatchError, Graph, NodeBatch};
use mcond_sparse::{renormalize_rows, spmm_sparse, Csr};
use mcond_store::StoreError;
use std::fmt;

/// A batch of served inductive nodes queued for promotion into the base:
/// exactly the payload of a [`NodeBatch`] — features, incremental
/// adjacency into the base's index space, interconnect among the batch,
/// labels — but with promotion (not one-shot inference) semantics.
#[derive(Clone, Debug)]
pub struct GraphDelta {
    /// The served batch being promoted. Its `incremental` block may be
    /// narrower than the current base (assembled before earlier
    /// promotions landed); promotion widens it, exactly like prefix
    /// serving does.
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

/// Provenance of a live (promoted) base, persisted as the optional
/// `"delta"` checkpoint section so a reloaded bundle records what version
/// of the base it holds and how the base got there.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct DeltaLineage {
    /// Base version (promotion count since the last full rebuild of this
    /// lineage's history — monotone per [`LiveBase`]).
    pub version: u64,
    /// Promotions applied.
    pub promotions: u64,
    /// Total nodes promoted across those promotions.
    pub promoted_nodes: u64,
    /// Base node count after the last promotion.
    pub base_nodes: u64,
    /// Mapping row count after the last promotion (0 on an original
    /// base, which carries no mapping).
    pub mapping_rows: u64,
}

/// A serving base that grows: the condensed graph (or an original graph)
/// plus everything needed to fold served nodes in incrementally —
/// degrees, versioning, and the promotion log for refresh replay.
pub struct LiveBase {
    base: Graph,
    mapping: Option<Csr>,
    degrees: BaseDegrees,
    version: u64,
    promotions: u64,
    promoted_nodes: u64,
    log: Vec<GraphDelta>,
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
        Self {
            base,
            mapping: Some(mapping),
            degrees,
            version: 0,
            promotions: 0,
            promoted_nodes: 0,
            log: Vec::new(),
        }
    }

    /// A live base over an original (uncondensed) graph: deltas attach
    /// directly (Eq. 3), no mapping is maintained.
    #[must_use]
    pub fn original(base: Graph) -> Self {
        let degrees = BaseDegrees::of(&base.adj);
        Self {
            base,
            mapping: None,
            degrees,
            version: 0,
            promotions: 0,
            promoted_nodes: 0,
            log: Vec::new(),
        }
    }

    /// The current (grown) base graph.
    #[must_use]
    pub fn base(&self) -> &Graph {
        &self.base
    }

    /// The current (grown) mapping, when this is a synthetic base.
    #[must_use]
    pub fn mapping(&self) -> Option<&Csr> {
        self.mapping.as_ref()
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

    /// Promotions applied so far.
    #[must_use]
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// This base's provenance, for checkpoint stamping.
    #[must_use]
    pub fn lineage(&self) -> DeltaLineage {
        DeltaLineage {
            version: self.version,
            promotions: self.promotions,
            promoted_nodes: self.promoted_nodes,
            base_nodes: self.base.num_nodes() as u64,
            mapping_rows: self.mapping.as_ref().map_or(0, Csr::rows) as u64,
        }
    }

    /// Width a delta's incremental block is validated against: the
    /// mapping's row space (original training nodes + promoted nodes) on
    /// a synthetic base, the node count on an original base.
    #[must_use]
    pub fn inc_width(&self) -> usize {
        self.mapping.as_ref().map_or(self.base.num_nodes(), Csr::rows)
    }

    /// Folds a batch of served nodes into the base. On success the base
    /// adjacency/features/labels have grown by `delta.nodes()` rows, the
    /// mapping (when present) gained the renormalised attachment rows,
    /// the degree sums were extended incrementally (bitwise identical to
    /// a from-scratch [`BaseDegrees::of`]), and the version was bumped.
    ///
    /// # Errors
    /// [`DeltaError`] when the delta is structurally invalid or carries
    /// an out-of-range label; the base is unchanged.
    pub fn promote(&mut self, delta: &GraphDelta) -> Result<PromotionReport, DeltaError> {
        let width = self.inc_width();
        delta.batch.validate_against_prefix(width, self.base.feature_dim())?;
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

        // Attachment rows in the base's index space: raw edges on an
        // original base; aM (Eq. 11), renormalised row-stochastic like
        // every other row of M (Eq. 15), on a synthetic base.
        let inc = if delta.batch.incremental.cols() < width {
            delta.batch.incremental.widen_cols(width)
        } else {
            delta.batch.incremental.clone()
        };
        let attach = match &self.mapping {
            Some(m) => renormalize_rows(&spmm_sparse(&inc, m)),
            None => inc,
        };
        let inter = &delta.batch.interconnect;
        let edges = attach.nnz() + inter.nnz();

        self.degrees.extend_for_promotion(&attach, inter);
        let adj = self.base.adj.block_extend(&attach, inter);
        let features = self.base.features.vstack(&delta.batch.features);
        let mut labels = self.base.labels.clone();
        labels.extend_from_slice(&delta.batch.labels);
        self.base = Graph::new(adj, features, labels, self.base.num_classes);
        if let Some(m) = self.mapping.take() {
            let grown_width = m.cols() + n;
            self.mapping = Some(
                m.widen_cols(grown_width).append_rows(&attach.widen_cols(grown_width)),
            );
        }
        self.version += 1;
        self.promotions += 1;
        self.promoted_nodes += n as u64;
        self.log.push(delta.clone());

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
    #[must_use]
    pub fn server<'a>(&'a self, model: &'a GnnModel) -> InductiveServer<'a> {
        InductiveServer::with_degrees(&self.base, &self.degrees, self.mapping.as_ref(), model)
    }

    /// Bundles the current (grown) base into a serve-ready
    /// [`Checkpoint`], lineage-stamped — the artifact a hot-swapping
    /// server reloads after promotions.
    ///
    /// # Errors
    /// [`StoreError::ShapeMismatch`] when this is an original (unmapped)
    /// base — only condensed bases are checkpointable — or when `model`
    /// does not fit the base.
    pub fn checkpoint(&self, model: &GnnModel) -> Result<Checkpoint, StoreError> {
        let Some(mapping) = &self.mapping else {
            return Err(StoreError::ShapeMismatch {
                reason: "an original (unmapped) live base cannot be checkpointed".to_owned(),
            });
        };
        Ok(Checkpoint::new(self.base.clone(), mapping.clone(), model.clone())?
            .with_lineage(self.lineage()))
    }

    /// Incremental refresh (Eq. 12–15 only): re-runs mapping/adjacency
    /// sparsification against the condensation's stored dense matrices
    /// with new thresholds, replays this base's promotion log onto the
    /// fresh synthetic base, and emits the lineage-stamped checkpoint —
    /// all without re-running condensation. The returned [`LiveBase`]
    /// carries the same log.
    ///
    /// # Errors
    /// [`StoreError::ShapeMismatch`] when `model` does not fit the
    /// refreshed graph.
    ///
    /// # Panics
    /// Panics when the replayed log no longer validates — impossible
    /// unless `condensed` is a different condensation than this base was
    /// built from (resparsifying never changes shapes).
    pub fn refresh(
        &self,
        condensed: &Condensed,
        model: &GnnModel,
        mu: f32,
        delta: f32,
    ) -> Result<(LiveBase, Checkpoint), StoreError> {
        let start = std::time::Instant::now();
        let (adj, mapping) = condensed.resparsify(mu, delta);
        let synthetic = Graph::new(
            adj,
            condensed.synthetic.features.clone(),
            condensed.synthetic.labels.clone(),
            condensed.synthetic.num_classes,
        );
        let mut live = LiveBase::synthetic(synthetic, mapping);
        for d in &self.log {
            live.promote(d).expect("replayed delta was valid when first promoted");
        }
        let ckpt = live.checkpoint(model)?;
        mcond_obs::counter_add("delta.refreshes", 1);
        mcond_obs::histogram_record("delta.refresh.ms", start.elapsed().as_secs_f64() * 1e3);
        Ok((live, ckpt))
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
        let m = live.mapping().unwrap();
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
        // Lineage reflects the growth.
        assert_eq!(
            live.lineage(),
            DeltaLineage {
                version: 1,
                promotions: 1,
                promoted_nodes: 2,
                base_nodes: 4,
                mapping_rows: 5,
            }
        );
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

    #[test]
    fn served_logits_after_promotion_match_a_fresh_server() {
        let data = toy();
        let (syn, map) = syn_base();
        let model = GnnModel::new(GnnKind::Gcn, 3, 4, 2, 1);
        let mut live = LiveBase::synthetic(syn, map);
        live.promote(&GraphDelta::from_batch(&data.batch(&[4], false))).unwrap();

        // A narrow (pre-promotion) batch is served by the live server...
        let batch = data.batch(&[5], false);
        let live_out = live.server(&model).try_serve(&batch).unwrap();
        // ...and matches a from-scratch server over the grown artifacts.
        let base = live.base().clone();
        let mapping = live.mapping().unwrap().clone();
        let fresh = InductiveServer::on_synthetic(&base, &mapping, &model);
        let fresh_out = fresh.try_serve(&batch).unwrap();
        assert!(live_out.bit_eq(&fresh_out));
    }

    #[test]
    fn original_base_promotes_raw_edges() {
        let data = toy();
        let orig = data.original_graph();
        let n0 = orig.num_nodes();
        let mut live = LiveBase::original(orig);
        let report = live.promote(&GraphDelta::from_batch(&data.batch(&[4, 5], true))).unwrap();
        assert_eq!(report.nodes, 2);
        assert!(live.mapping().is_none());
        assert_eq!(live.base().num_nodes(), n0 + 2);
        assert_eq!(live.inc_width(), n0 + 2);
        // Raw attachment: the promoted node keeps its unit edge weight.
        assert_eq!(live.base().adj.get(n0, 1), 1.0);
        let fresh = BaseDegrees::of(&live.base().adj);
        assert_eq!(live.degrees().sym, fresh.sym);
    }

    #[test]
    fn original_base_refuses_to_checkpoint() {
        let data = toy();
        let live = LiveBase::original(data.original_graph());
        let model = GnnModel::new(GnnKind::Gcn, 3, 4, 2, 1);
        assert!(matches!(
            live.checkpoint(&model),
            Err(StoreError::ShapeMismatch { .. })
        ));
    }
}
