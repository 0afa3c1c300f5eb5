//! Batch inference serving — the one function that turns a
//! [`NodeBatch`] into logits.
//!
//! [`InductiveServer::try_serve`] attaches a batch of unseen nodes to a
//! base graph (Eq. 3 on the original graph, Eq. 11 through the mapping on
//! the condensed one) and runs the forward pass **without materialising
//! the extended graph**: it uses the lazy extended
//! [`Propagator`](mcond_gnn::Propagator), so a request computes only the
//! incremental degree updates and streams the propagation through the
//! shared base CSR — `O(nnz(a) + nnz(ã) + forward pass)` per batch, never
//! `O(‖A‖₀)`. Every caller — library users, the CLI, the HTTP front end,
//! the `repro` views — goes through it, and it answers one way.
//!
//! # Ownership
//!
//! The server holds its graph, mapping and model as [`Cow`]s. The
//! borrowing constructors ([`on_original`](InductiveServer::on_original),
//! [`on_synthetic`](InductiveServer::on_synthetic),
//! [`from_checkpoint`](InductiveServer::from_checkpoint)) copy nothing;
//! [`Checkpoint::into_server`](crate::Checkpoint::into_server) moves an
//! owned bundle in and yields an `InductiveServer<'static>` that a
//! long-lived slot (see `epoch`) can own outright.
//!
//! # Forward pass
//!
//! A request runs the **split-operator** forward pass
//! ([`GnnModel::predict_split`]): base features and the batch's features
//! are fed as a `(x_base, x_new)` pair that is never vstacked,
//! the batch's `inc`/`inter` blocks are borrowed in place (no clones), the
//! base graph's degree sums are shared across requests
//! ([`mcond_gnn::BaseDegrees`], computed once at construction), and the
//! final propagation computes only the `n` inductive output rows. The
//! logits are **bitwise identical** to vstacking the features, running
//! every layer over all `N' + n` rows and slicing the bottom block, at any
//! thread count (pinned by `mcond-gnn`'s split-vs-stacked test).
//!
//! [`mcond_gnn::FrozenBase`] — base activations cached under base-only
//! normalisation, one-way attachment — is a second predictor, not a
//! serving option: the `ablation_serve_mode` view builds one from the
//! base and feeds it [`attachment`](InductiveServer::attachment) directly.
//!
//! # Fault tolerance
//!
//! Requests are untrusted. [`try_serve`](InductiveServer::try_serve)
//! sizes every batch against the batch cap, validates it against the
//! serving base (dimensions, shapes, finiteness — see
//! `NodeBatch::validate_against_prefix`) and returns a typed [`ServeError`]
//! instead of panicking;
//! [`try_serve_many`](InductiveServer::try_serve_many) additionally
//! isolates each request behind `catch_unwind`, so an internal panic in one
//! request surfaces as [`ServeError::Panicked`] while its siblings
//! complete. A node whose attachment row is empty (no neighbour survives
//! the sparsified mapping) is served from its self-loop and counted under
//! `serve.fallback`. The `chaos` module sweeps systematically corrupted
//! batches through both targets to prove the taxonomy is total.
//!
//! # Tracing
//!
//! Every request gets a process-unique trace id (`try_serve` via
//! `mcond_obs::ensure_trace`, `try_serve_many` one per slot) stamped on all
//! of its span/point records, and the serve path is decomposed into stage
//! spans — `validate`, `attach`, `propagate`, `head` — each feeding a
//! `serve.stage.*` histogram even when no event sink is attached. When
//! the flight recorder (`mcond_obs::flight`) is on, a panicking request in
//! [`try_serve_many`](InductiveServer::try_serve_many) dumps the worker's
//! recent event ring, trace-stamped, before reporting
//! [`ServeError::Panicked`].
//!
//! # Concurrency
//!
//! The server is `Sync` — its parts are immutable and the per-instance
//! statistics sit behind a [`Mutex`] — so
//! [`try_serve_many`](InductiveServer::try_serve_many) can fan independent
//! batches across the `mcond-par` pool. Each request runs entirely on one
//! worker — the nested kernels inside a request stay serial (the pool
//! forbids nested parallelism), so per-batch results are identical to a
//! sequential [`try_serve`](InductiveServer::try_serve) loop.

use crate::serve_error::{panic_context, ServeError};
use mcond_gnn::{BaseDegrees, GnnModel, GraphOps};
use mcond_graph::{Graph, NodeBatch};
use mcond_linalg::DMat;
use mcond_obs::{Histogram, MetricsSnapshot};
use mcond_sparse::{spmm_sparse, Csr};
use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Default cap on nodes per request; far above any sane batch, low enough
/// to reject a length field gone wild before it allocates.
pub const DEFAULT_MAX_BATCH: usize = 1 << 20;

/// What one answered request contributes to the serving statistics.
struct RequestTally {
    /// Attachment fanout `‖aM̂‖₀` (or `‖a‖₀` on Eq. 3 serving).
    fanout: usize,
    /// Nodes served from their self-loop: empty attachment row.
    fallback_nodes: u64,
}

/// Per-instance serving statistics; kept on the server (not the global
/// registry) so concurrent servers — and parallel tests — never mix
/// numbers.
#[derive(Default)]
struct ServeStats {
    requests: u64,
    rejected: u64,
    fallback: u64,
    panics: u64,
    latency_us: Histogram,
    fanout: Histogram,
    batch_size: Histogram,
    coverage: Histogram,
}

/// A reusable inductive-inference endpoint over a fixed base graph
/// (original `T` per Eq. 3, or synthetic `S` + mapping per Eq. 11). Its
/// parts are owned or borrowed (see the module docs): `'a` is the lifetime
/// of whatever it borrows, `'static` when it owns everything.
pub struct InductiveServer<'a> {
    graph: Cow<'a, Graph>,
    /// Degree sums of `graph`, computed once and shared by every
    /// request's extension.
    deg: Cow<'a, BaseDegrees>,
    mapping: Option<Cow<'a, Csr>>,
    model: Cow<'a, GnnModel>,
    max_batch: usize,
    stats: Mutex<ServeStats>,
}

impl<'a> InductiveServer<'a> {
    /// A server over owned or borrowed parts; `mapping` selects Eq. 11
    /// (through `M`) over Eq. 3 (direct) attachment.
    ///
    /// # Panics
    /// Panics when the mapping's columns do not index the graph's nodes.
    pub(crate) fn new(
        graph: Cow<'a, Graph>,
        mapping: Option<Cow<'a, Csr>>,
        model: Cow<'a, GnnModel>,
    ) -> Self {
        let deg = Cow::Owned(BaseDegrees::of(&graph.adj));
        Self::on_base(graph, deg, mapping, model)
    }

    /// [`new`](Self::new) for a caller that already keeps the graph's
    /// degree sums up to date (`LiveBase`), so they are not recomputed.
    /// `degrees` must be what `BaseDegrees::of(&graph.adj)` would return.
    ///
    /// # Panics
    /// As [`new`](Self::new), and when `degrees` does not cover the graph.
    pub(crate) fn with_degrees(
        graph: &'a Graph,
        degrees: &'a BaseDegrees,
        mapping: Option<&'a Csr>,
        model: &'a GnnModel,
    ) -> Self {
        assert_eq!(
            degrees.sym.len(),
            graph.num_nodes(),
            "InductiveServer: degree sums must cover the base nodes"
        );
        Self::on_base(
            Cow::Borrowed(graph),
            Cow::Borrowed(degrees),
            mapping.map(Cow::Borrowed),
            Cow::Borrowed(model),
        )
    }

    fn on_base(
        graph: Cow<'a, Graph>,
        deg: Cow<'a, BaseDegrees>,
        mapping: Option<Cow<'a, Csr>>,
        model: Cow<'a, GnnModel>,
    ) -> Self {
        if let Some(m) = &mapping {
            assert_eq!(
                m.cols(),
                graph.num_nodes(),
                "InductiveServer: mapping columns must index the synthetic nodes"
            );
        }
        Self {
            graph,
            deg,
            mapping,
            model,
            max_batch: DEFAULT_MAX_BATCH,
            stats: Mutex::new(ServeStats::default()),
        }
    }

    /// Serves inference on the original graph (Eq. 3 attachment).
    #[must_use]
    pub fn on_original(graph: &'a Graph, model: &'a GnnModel) -> Self {
        Self::new(Cow::Borrowed(graph), None, Cow::Borrowed(model))
    }

    /// Serves inference on the synthetic graph through the mapping
    /// (Eq. 11 attachment).
    ///
    /// # Panics
    /// Panics when the mapping's columns do not index the synthetic nodes.
    #[must_use]
    pub fn on_synthetic(graph: &'a Graph, mapping: &'a Csr, model: &'a GnnModel) -> Self {
        Self::new(Cow::Borrowed(graph), Some(Cow::Borrowed(mapping)), Cow::Borrowed(model))
    }

    /// Caps the number of nodes a single request may carry (default
    /// [`DEFAULT_MAX_BATCH`]); larger batches are rejected with
    /// [`ServeError::BatchTooLarge`].
    #[must_use]
    pub fn with_max_batch(mut self, max: usize) -> Self {
        self.max_batch = max;
        self
    }

    /// The base graph requests attach to (`T` for Eq. 3 serving, `S` for
    /// Eq. 11).
    #[must_use]
    pub fn base_graph(&self) -> &Graph {
        &self.graph
    }

    /// The batch's attachment rows in the base's index space — its
    /// incremental adjacency `a` on an Eq. 3 server, `aM` through the
    /// mapping on an Eq. 11 server.
    /// [`try_serve`](InductiveServer::try_serve) attaches with exactly
    /// this; cost experiments size the extended graph by it, label/error
    /// propagation build that graph from it, and a
    /// [`mcond_gnn::FrozenBase`] predictor is fed it.
    ///
    /// # Panics
    /// Panics when the batch is wider than
    /// [`expected_incremental_cols`](InductiveServer::expected_incremental_cols).
    #[must_use]
    pub fn attachment<'b>(&self, batch: &'b NodeBatch) -> Cow<'b, Csr> {
        match self.mapping.as_deref() {
            // The conversion indexes `M`'s rows by column value, so a
            // prefix-width batch needs no widening first.
            Some(mapping) => Cow::Owned(spmm_sparse(&batch.incremental, mapping)),
            None => widened(&batch.incremental, self.base_nodes()),
        }
    }

    /// Number of base nodes.
    #[must_use]
    pub fn base_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// The incremental-adjacency width every request must have: training
    /// nodes for Eq. 3 serving, mapping rows for Eq. 11. Callers building
    /// synthetic probe batches (e.g. a reload canary) size them with this.
    #[must_use]
    pub fn expected_incremental_cols(&self) -> usize {
        self.mapping.as_ref().map_or_else(|| self.base_nodes(), |m| m.rows())
    }

    /// Feature dimension every request's rows must have.
    #[must_use]
    pub fn feature_dim(&self) -> usize {
        self.graph.feature_dim()
    }

    /// Logits (`n x C`) for one batch, with every failure mode reported as
    /// a typed [`ServeError`] instead of a panic.
    ///
    /// The batch is sized against the batch cap first, then validated
    /// against the serving base (dimensions, interconnect shape,
    /// finiteness);
    /// an empty batch short-circuits to a `0 x C` response without
    /// touching the kernels. Per-node attachment coverage is measured
    /// before the forward pass (a node with an empty attachment row is
    /// served from its self-loop), and the response is withheld
    /// ([`ServeError::NonFiniteLogits`]) if the model produces a non-finite
    /// value.
    ///
    /// # Errors
    /// See [`ServeError`] for the full taxonomy.
    pub fn try_serve(&self, batch: &NodeBatch) -> Result<DMat, ServeError> {
        // One trace id per request (kept when the caller — e.g.
        // `try_serve_many` — already opened one for us).
        let _trace = mcond_obs::ensure_trace();
        let out = self.serve_validated(batch);
        if out.is_err() {
            mcond_obs::counter_add("serve.rejected", 1);
            let mut stats = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
            stats.rejected += 1;
        }
        out
    }

    fn serve_validated(&self, batch: &NodeBatch) -> Result<DMat, ServeError> {
        let serve_span = mcond_obs::span_with("serve", vec![("batch", batch.len().into())]);
        let start = Instant::now();
        {
            let _stage = mcond_obs::span_timed("validate", "serve.stage.validate");
            // The O(1) cap goes first: it exists to turn an oversized
            // batch away before anything — the O(n·d) finiteness scan
            // below included — walks it.
            if batch.len() > self.max_batch {
                return Err(ServeError::BatchTooLarge { len: batch.len(), max: self.max_batch });
            }
            // Prefix-tolerant width check: a batch assembled against an
            // older, narrower base (before a delta promotion grew the
            // index space) stays valid — appended ids never change the
            // meaning of existing ones.
            batch.validate_against_prefix(self.expected_incremental_cols(), self.feature_dim())?;
        }
        if batch.is_empty() {
            // Fast path: no degree updates, no forward pass — just the
            // `0 x C` shape the caller expects.
            self.record_request(
                batch,
                &[],
                RequestTally { fanout: 0, fallback_nodes: 0 },
                start,
            );
            return Ok(DMat::zeros(0, self.model.out_dim()));
        }

        // Attachment rows and per-node mapping coverage. The batch's own
        // incremental rows are borrowed — only the mapping conversion
        // materialises a new matrix.
        let attach_stage = mcond_obs::span_timed("attach", "serve.stage.attach");
        let inc = self.attachment(batch);
        let coverage: Vec<f32> = match self.mapping {
            None => (0..batch.len())
                .map(|i| if inc.row_cols(i).is_empty() { 0.0 } else { 1.0 })
                .collect(),
            Some(_) => {
                // Coverage is the fraction of the node's *absolute*
                // incremental mass surviving the mapping, clamped to
                // [0, 1]: signed sums would zero out nodes whose edge
                // weights cancel, and could report > 1 into the coverage
                // histogram.
                (0..batch.len())
                    .map(|i| {
                        let raw: f32 = batch.incremental.row_vals(i).iter().map(|v| v.abs()).sum();
                        if raw > 0.0 {
                            let kept: f32 = inc.row_vals(i).iter().map(|v| v.abs()).sum();
                            // + 0.0 normalises the -0.0 that `Sum`'s float
                            // identity yields for an empty `aM` row.
                            (kept / raw).clamp(0.0, 1.0) + 0.0
                        } else {
                            0.0
                        }
                    })
                    .collect()
            }
        };
        // A node with an empty row keeps only its self-loop (plus any
        // batch interconnections) in the extended graph.
        let fallback_nodes =
            (0..batch.len()).filter(|&i| inc.row_cols(i).is_empty()).count() as u64;
        if fallback_nodes > 0 {
            mcond_obs::counter_add("serve.fallback", fallback_nodes);
        }
        drop(attach_stage);

        // Forward pass. All blocks are borrowed into the extension —
        // nothing is cloned.
        let fanout = inc.nnz();
        let propagate_stage = mcond_obs::span_timed("propagate", "serve.stage.propagate");
        let ops = GraphOps::extended_with(&self.graph.adj, &inc, &batch.interconnect, &self.deg);
        let out = self.model.predict_split(&ops, &self.graph.features, &batch.features);
        drop(propagate_stage);
        {
            let _stage = mcond_obs::span_timed("head", "serve.stage.head");
            if !out.all_finite() {
                return Err(ServeError::NonFiniteLogits);
            }
        }
        // The serve span covers the serving computation — its stage spans
        // decompose it (near-)completely. Request bookkeeping below (stats
        // mutex, `serve.request` point, histogram records) is telemetry
        // overhead, kept outside the span so it never pollutes the
        // profile's stage coverage; `latency_us` still measures it via
        // `start`.
        drop(serve_span);

        self.record_request(batch, &coverage, RequestTally { fanout, fallback_nodes }, start);
        Ok(out)
    }

    /// Books one answered request into the per-server statistics and the
    /// event log.
    fn record_request(
        &self,
        batch: &NodeBatch,
        coverage: &[f32],
        tally: RequestTally,
        start: Instant,
    ) {
        let latency_us = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        {
            let mut stats = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
            stats.requests += 1;
            stats.fallback += tally.fallback_nodes;
            #[allow(clippy::cast_precision_loss)]
            {
                stats.latency_us.record(latency_us as f64);
                stats.fanout.record(tally.fanout as f64);
                stats.batch_size.record(batch.len() as f64);
                for &c in coverage {
                    stats.coverage.record(f64::from(c));
                }
            }
        }
        if mcond_obs::enabled() {
            mcond_obs::point(
                "serve.request",
                &[
                    ("batch", batch.len().into()),
                    ("fanout", tally.fanout.into()),
                    ("fallback", tally.fallback_nodes.into()),
                    ("latency_us", latency_us.into()),
                ],
            );
        }
    }

    /// Per-request results for every batch, fanned across the `mcond-par`
    /// pool with **panic isolation**: each request runs behind
    /// `catch_unwind`, so a batch that panics inside the server (a
    /// misconfiguration surfacing in a kernel, say) yields
    /// `Err(`[`ServeError::Panicked`]`)` in its slot while every sibling
    /// request completes normally. The stats mutex recovers from poisoning,
    /// so the server stays fully usable afterwards.
    ///
    /// Successful results are bitwise identical to a sequential
    /// [`try_serve`](InductiveServer::try_serve) loop at any thread count,
    /// regardless of how many siblings fail. Output order matches input
    /// order.
    #[must_use]
    pub fn try_serve_many(&self, batches: &[NodeBatch]) -> Vec<Result<DMat, ServeError>> {
        self.try_serve_many_traced(batches).into_iter().map(|(out, _)| out).collect()
    }

    /// [`try_serve_many`](InductiveServer::try_serve_many), additionally
    /// returning the per-request trace id alongside each slot. The id is
    /// the one `begin_trace` assigned for that request's span — the same
    /// value stamped on its log events and flight records — so a network
    /// front end can hand it back to the caller (`x-mcond-trace`) for
    /// end-to-end correlation. When no event consumer is active the trace
    /// layer is inert and every id is `0`.
    #[must_use]
    pub fn try_serve_many_traced(
        &self,
        batches: &[NodeBatch],
    ) -> Vec<(Result<DMat, ServeError>, u64)> {
        type Slot = Mutex<Option<(Result<DMat, ServeError>, u64)>>;
        let _span =
            mcond_obs::span_with("try_serve_many", vec![("batches", batches.len().into())]);
        let slots: Vec<Slot> = batches.iter().map(|_| Mutex::new(None)).collect();
        mcond_par::parallel_for_chunks(batches.len(), 1, |range| {
            for i in range {
                // Per-request trace id, opened *outside* the unwind
                // boundary so the panic handler (and its flight dump)
                // still attributes to the request that died.
                let trace = mcond_obs::begin_trace();
                let trace_id = trace.id();
                let out = catch_unwind(AssertUnwindSafe(|| self.try_serve(&batches[i])))
                    .unwrap_or_else(|payload| {
                        if mcond_obs::flight::active() {
                            // Post-mortem: the last events on this thread,
                            // trace-stamped, as one `flight` record.
                            let _ = mcond_obs::flight::dump("serve.panic");
                        }
                        mcond_obs::counter_add("serve.panic", 1);
                        let mut stats =
                            self.stats.lock().unwrap_or_else(PoisonError::into_inner);
                        stats.panics += 1;
                        drop(stats);
                        Err(ServeError::Panicked { context: panic_context(payload.as_ref()) })
                    });
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) =
                    Some((out, trace_id));
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("try_serve_many: pool completed with an unfilled slot")
            })
            .collect()
    }

    /// Freezes this server's request statistics (latency, attachment
    /// fanout `‖aM̂‖₀`, batch sizes, per-node mapping coverage, the
    /// rejected/fallback/panic tallies) into a snapshot for reports.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let stats = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
        #[allow(clippy::cast_precision_loss)]
        MetricsSnapshot {
            counters: vec![
                ("serve.requests".to_owned(), stats.requests),
                ("serve.rejected".to_owned(), stats.rejected),
                ("serve.fallback".to_owned(), stats.fallback),
                ("serve.panic".to_owned(), stats.panics),
            ],
            gauges: Vec::new(),
            histograms: vec![
                ("serve.latency_us".to_owned(), stats.latency_us.summary()),
                ("serve.fanout".to_owned(), stats.fanout.summary()),
                ("serve.batch_size".to_owned(), stats.batch_size.summary()),
                ("serve.coverage".to_owned(), stats.coverage.summary()),
            ],
        }
    }
}

/// `m` addressed in a `cols`-wide index space. A prefix-width block
/// (built before the base grew) is widened — pure metadata, entries
/// untouched — so every downstream operator sees consistent block shapes;
/// a full-width one is borrowed as it is.
fn widened(m: &Csr, cols: usize) -> Cow<'_, Csr> {
    if m.cols() < cols {
        Cow::Owned(m.widen_cols(cols))
    } else {
        Cow::Borrowed(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{condense, McondConfig};
    use mcond_gnn::GnnKind;
    use mcond_graph::{load_dataset, Scale};
    use mcond_linalg::approx_eq;
    use mcond_sparse::Coo;

    /// Reference forward the lazy path is held to (within tolerance — the
    /// normalisation is summed in a different order): materialise the whole
    /// extended graph, re-normalise it, run every row, slice the batch.
    fn materialised(
        model: &GnnModel,
        base: &Graph,
        mapping: Option<&Csr>,
        batch: &NodeBatch,
    ) -> DMat {
        let attach = mapping
            .map_or_else(|| batch.incremental.clone(), |m| spmm_sparse(&batch.incremental, m));
        let adj = base.adj.block_extend(&attach, &batch.interconnect);
        let x = base.features.vstack(&batch.features);
        let logits = model.predict(&GraphOps::from_adj(&adj), &x);
        logits.slice_rows(base.num_nodes(), logits.rows())
    }

    fn setup() -> (mcond_graph::InductiveDataset, crate::Condensed, GnnModel) {
        let data = load_dataset("pubmed", Scale::Small, 0).unwrap();
        let condensed = condense(
            &data,
            &McondConfig {
                ratio: 0.02,
                outer_loops: 1,
                relay_steps: 3,
                mapping_steps: 5,
                support_cap: 32,
                ..McondConfig::default()
            },
        );
        let model = GnnModel::new(
            GnnKind::Gcn,
            data.full.feature_dim(),
            16,
            data.full.num_classes,
            1,
        );
        (data, condensed, model)
    }

    /// 6-node toy for the self-loop fallback: train {0,1,2} triangle; val
    /// {3}; test {4,5}. Synthetic graph with 2 nodes; the mapping covers
    /// train nodes {0,1} only — train node 2's row is empty, as after
    /// extreme Eq. 14 pruning — so test node 5 (connected only to train 2)
    /// gets an empty `aM` row.
    fn fallback_fixture() -> (mcond_graph::InductiveDataset, Graph, Csr, GnnModel) {
        use mcond_graph::InductiveDataset;
        use mcond_linalg::MatRng;

        let mut coo = Coo::new(6, 6);
        for &(i, j) in &[(0, 1), (1, 2), (0, 2), (3, 0), (4, 1), (5, 2), (4, 5)] {
            coo.push_sym(i, j, 1.0);
        }
        let features = MatRng::seed_from(0).normal(6, 3, 0.0, 1.0);
        let g = Graph::new(coo.to_csr(), features, vec![0, 1, 0, 1, 0, 1], 2);
        let data = InductiveDataset::new(g, vec![0, 1, 2], vec![3], vec![4, 5]);

        let syn = Graph::new(
            Csr::eye(2),
            DMat::from_rows(&[&[1., 0., 0.], &[0., 1., 0.]]),
            vec![0, 1],
            2,
        );
        let mut map = Coo::new(3, 2);
        map.push(0, 0, 0.5);
        map.push(1, 0, 0.5);
        // train node 2: all mapping mass pruned.
        let mapping = map.to_csr();
        let model = GnnModel::new(GnnKind::Gcn, 3, 4, 2, 1);
        (data, syn, mapping, model)
    }

    #[test]
    fn server_matches_materialised_path_on_original() {
        let (data, _, model) = setup();
        let original = data.original_graph();
        let server = InductiveServer::on_original(&original, &model);
        for batch in data.test_batches(60, true) {
            let lazy = server.try_serve(&batch).unwrap();
            let eager = materialised(&model, &original, None, &batch);
            assert_eq!(lazy.shape(), eager.shape());
            for (a, b) in lazy.as_slice().iter().zip(eager.as_slice()) {
                assert!(approx_eq(*a, *b, 1e-4), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn server_matches_materialised_path_on_synthetic() {
        let (data, condensed, model) = setup();
        let server =
            InductiveServer::on_synthetic(&condensed.synthetic, &condensed.mapping, &model);
        let batch = data.test_batches(80, false).remove(0);
        let lazy = server.try_serve(&batch).unwrap();
        let eager =
            materialised(&model, &condensed.synthetic, Some(&condensed.mapping), &batch);
        for (a, b) in lazy.as_slice().iter().zip(eager.as_slice()) {
            assert!(approx_eq(*a, *b, 1e-4), "{a} vs {b}");
        }
    }

    #[test]
    fn server_agrees_for_every_architecture() {
        let (data, condensed, _) = setup();
        let batch = data.test_batches(40, true).remove(0);
        for kind in GnnKind::ALL {
            let model = GnnModel::new(
                kind,
                data.full.feature_dim(),
                8,
                data.full.num_classes,
                2,
            );
            let server = InductiveServer::on_synthetic(
                &condensed.synthetic,
                &condensed.mapping,
                &model,
            );
            let lazy = server.try_serve(&batch).unwrap();
            let eager =
                materialised(&model, &condensed.synthetic, Some(&condensed.mapping), &batch);
            for (a, b) in lazy.as_slice().iter().zip(eager.as_slice()) {
                assert!(approx_eq(*a, *b, 1e-4), "{}: {a} vs {b}", kind.name());
            }
        }
    }

    /// Concurrent fan-out must be invisible in the results: per-batch
    /// logits bitwise-match a sequential serve loop, and the request
    /// counter reflects every batch exactly once.
    #[test]
    fn try_serve_many_matches_sequential_serve_loop() {
        let (data, condensed, model) = setup();
        let batches = data.test_batches(30, true);
        assert!(batches.len() > 1, "need several batches to exercise fan-out");

        let sequential = InductiveServer::on_synthetic(
            &condensed.synthetic,
            &condensed.mapping,
            &model,
        );
        let expected: Vec<DMat> =
            batches.iter().map(|b| sequential.try_serve(b).unwrap()).collect();

        let concurrent = InductiveServer::on_synthetic(
            &condensed.synthetic,
            &condensed.mapping,
            &model,
        );
        let got = mcond_par::with_thread_limit(4, || concurrent.try_serve_many(&batches));

        assert_eq!(got.len(), expected.len());
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(g.as_ref().unwrap().as_slice(), e.as_slice(), "batch {i} drifted");
        }

        let seq_snap = sequential.metrics_snapshot();
        let par_snap = concurrent.metrics_snapshot();
        assert_eq!(seq_snap.counters, par_snap.counters);
        let counter = |name: &str| {
            par_snap
                .counters
                .iter()
                .find(|(k, _)| k == name)
                .unwrap_or_else(|| panic!("missing counter {name}"))
                .1
        };
        assert_eq!(counter("serve.requests"), batches.len() as u64);
        assert_eq!(counter("serve.rejected"), 0);
        assert_eq!(counter("serve.panic"), 0);
    }

    #[test]
    fn mismatched_batch_is_rejected() {
        let (data, _, model) = setup();
        let original = data.original_graph();
        let server = InductiveServer::on_original(&original, &model);
        // A batch built against the synthetic mapping's indexing of a
        // *different* dataset.
        let other = load_dataset("flickr", Scale::Small, 0).unwrap();
        let bad_batch = other.test_batches(10, false).remove(0);
        assert!(matches!(
            server.try_serve(&bad_batch),
            Err(ServeError::InvalidBatch(mcond_graph::BatchError::IncrementalWidth { .. }))
        ));
    }

    /// Empty batches short-circuit to `0 x C` on both targets — no
    /// degree updates, no forward pass — and still count as requests.
    #[test]
    fn empty_batch_fast_path_returns_zero_by_c() {
        let (data, syn, mapping, model) = fallback_fixture();
        let original = data.original_graph();
        let empty = data.batch(&[], true);

        let on_original = InductiveServer::on_original(&original, &model);
        let out = on_original.try_serve(&empty).expect("empty batch is valid");
        assert_eq!(out.shape(), (0, model.out_dim()));

        let on_synthetic = InductiveServer::on_synthetic(&syn, &mapping, &model);
        let out = on_synthetic.try_serve(&empty).expect("empty batch is valid");
        assert_eq!(out.shape(), (0, 2));

        let snap = on_synthetic.metrics_snapshot();
        assert!(snap.counters.contains(&("serve.requests".to_owned(), 1)));
        assert!(snap.counters.contains(&("serve.rejected".to_owned(), 0)));
    }

    #[test]
    fn oversized_batch_is_rejected_with_typed_error() {
        let (data, syn, mapping, model) = fallback_fixture();
        let server =
            InductiveServer::on_synthetic(&syn, &mapping, &model).with_max_batch(1);
        let batch = data.batch(&[4, 5], true);
        assert_eq!(
            server.try_serve(&batch),
            Err(ServeError::BatchTooLarge { len: 2, max: 1 })
        );
        let snap = server.metrics_snapshot();
        assert!(snap.counters.contains(&("serve.rejected".to_owned(), 1)));

        // The cap is checked before the O(n·d) finiteness scan: an
        // over-cap batch is turned away as too large even when it also
        // carries a NaN the scan would have found.
        let mut poisoned = batch.clone();
        poisoned.features.set(1, 0, f32::NAN);
        assert_eq!(
            server.try_serve(&poisoned),
            Err(ServeError::BatchTooLarge { len: 2, max: 1 })
        );
    }

    /// Node 5's `aM` row is empty (its only training neighbour has a fully
    /// pruned mapping row): it is served from its self-loop, with finite
    /// logits, and counted once under `serve.fallback`.
    #[test]
    fn empty_attachment_row_is_served_from_its_self_loop() {
        let (data, syn, mapping, model) = fallback_fixture();
        let batch = data.batch(&[5], true);
        let server = InductiveServer::on_synthetic(&syn, &mapping, &model);
        let out = server.try_serve(&batch).expect("self-loop fallback serves");
        assert_eq!(out.shape(), (1, 2));
        assert!(out.all_finite());
        assert!(server
            .metrics_snapshot()
            .counters
            .contains(&("serve.fallback".to_owned(), 1)));
    }

    /// A batch built against a narrower (pre-promotion) base is served —
    /// its columns address a prefix of the grown index space — and its
    /// logits match the same batch widened by hand.
    #[test]
    fn prefix_width_batch_is_served_after_base_growth() {
        let (data, syn, mapping, model) = fallback_fixture();
        let batch = data.batch(&[4, 5], true);
        // Grow the mapping by one (promoted) row: 4 rows over 2 synthetic
        // nodes. The old 3-wide batch must still be answerable.
        let mut grown = Coo::new(4, 2);
        for (i, j, v) in mapping.iter() {
            grown.push(i, j, v);
        }
        grown.push(3, 1, 1.0);
        let grown = grown.to_csr();
        let server = InductiveServer::on_synthetic(&syn, &grown, &model);
        let narrow = server.try_serve(&batch).expect("prefix batch serves");
        let widened = {
            let mut b = batch.clone();
            b.incremental = b.incremental.widen_cols(4);
            server.try_serve(&b).expect("widened batch serves")
        };
        assert_eq!(narrow.as_slice(), widened.as_slice());
        // Wider than the base still fails validation.
        let mut too_wide = batch.clone();
        too_wide.incremental = too_wide.incremental.widen_cols(9);
        assert!(matches!(
            server.try_serve(&too_wide),
            Err(ServeError::InvalidBatch(mcond_graph::BatchError::IncrementalWidth { .. }))
        ));
    }
}
