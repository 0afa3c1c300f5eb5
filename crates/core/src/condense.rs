//! Algorithm 1: alternating optimisation of the synthetic graph `S` and the
//! mapping matrix `M`.

use crate::adjgen::AdjacencyGenerator;
use crate::coreset::class_budgets;
use crate::mapping::Mapping;
use crate::relay::Relay;
use crate::sampling::sample_edge_batch;
use mcond_autodiff::{Adam, Tape, Var};
use mcond_graph::{Graph, InductiveDataset};
use mcond_linalg::{DMat, MatRng};
use mcond_sparse::{
    renormalize_rows, sparsify_dense, sym_normalize, sym_normalize_dense, Coo, Csr,
};
use std::sync::Arc;

/// Hyper-parameters of MCond (defaults follow §IV-A where stated).
#[derive(Clone, Debug)]
pub struct McondConfig {
    /// Condensation ratio `r = N'/N`.
    pub ratio: f64,
    /// Outer loops `K` (each draws a fresh relay initialisation `θ₀`).
    pub outer_loops: usize,
    /// Inner steps `T` per outer loop (synthetic-graph updates, each
    /// followed by one relay step).
    pub relay_steps: usize,
    /// Mapping updates per outer loop.
    pub mapping_steps: usize,
    /// Propagation depth `L` (paper: 2-layer models).
    pub hops: usize,
    /// Hidden width of the MLP_Φ adjacency generator.
    pub adjgen_hidden: usize,
    /// Structure-loss weight `λ` (Eq. 9).
    pub lambda: f32,
    /// Inductive-loss weight `β` (Eq. 13).
    pub beta: f32,
    /// Learning rate `η₁` for `X'`.
    pub lr_feat: f32,
    /// Learning rate `η₂` for Φ.
    pub lr_phi: f32,
    /// Learning rate for `M` (paper: 0.1).
    pub lr_map: f32,
    /// Learning rate for the relay GNN.
    pub lr_relay: f32,
    /// `ε` of Eq. (15) (paper: 1e-5).
    pub epsilon: f32,
    /// Sparsification threshold `µ` for `A'` (Eq. 14).
    pub mu: f32,
    /// Sparsification threshold `δ` for `M` (Eq. 14).
    pub delta: f32,
    /// Edge samples per structure-loss batch (half positive/half negative).
    pub structure_batch: usize,
    /// Cap on support (validation) nodes `n` used by the inductive loss per
    /// step; one Eq. (11) hop costs `O(n·N'·d)` plus the support nodes' own
    /// edges.
    pub support_cap: usize,
    /// Row mini-batch size for the transductive loss (`0` = all rows).
    /// Eq. (10) is a sum over original-node rows, so sampling rows is plain
    /// SGD; required at paper scale where the full `N x N'` product per
    /// step is prohibitive.
    pub transductive_batch: usize,
    /// Ablation: disable the structure loss `L_str` ("w/o L_str").
    pub use_structure_loss: bool,
    /// Ablation: disable the inductive loss `L_ind` ("w/o L_ind").
    pub use_inductive_loss: bool,
    /// Disable mapping training entirely — this is the GCond baseline (the
    /// returned mapping is the normalised class-aware init).
    pub train_mapping: bool,
    /// Class-aware init for `M` (§III-E); `false` gives the Fig. 5(c)
    /// random-init comparator.
    pub class_aware_init: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for McondConfig {
    fn default() -> Self {
        Self {
            ratio: 0.02,
            outer_loops: 4,
            relay_steps: 12,
            mapping_steps: 30,
            hops: 2,
            adjgen_hidden: 64,
            lambda: 0.1,
            beta: 100.0,
            lr_feat: 0.05,
            lr_phi: 0.01,
            lr_map: 0.1,
            lr_relay: 0.05,
            epsilon: 1e-5,
            mu: 0.5,
            delta: 0.01,
            structure_batch: 256,
            support_cap: 128,
            transductive_batch: 0,
            use_structure_loss: true,
            use_inductive_loss: true,
            train_mapping: true,
            class_aware_init: true,
            seed: 0,
        }
    }
}

impl McondConfig {
    /// The GCond baseline: gradient matching only, no structure loss, no
    /// mapping training.
    #[must_use]
    pub fn gcond(ratio: f64, seed: u64) -> Self {
        Self {
            ratio,
            use_structure_loss: false,
            use_inductive_loss: false,
            train_mapping: false,
            seed,
            ..Self::default()
        }
    }
}

/// Per-step loss traces of a condensation run.
#[derive(Clone, Debug, Default)]
pub struct CondenseHistory {
    /// Gradient-matching loss `L_gra` per synthetic-graph step.
    pub grad_loss: Vec<f32>,
    /// Structure loss `L_str` per synthetic-graph step (empty when
    /// disabled).
    pub structure_loss: Vec<f32>,
    /// Transductive loss `L_tra` per mapping step.
    pub transductive_loss: Vec<f32>,
    /// Inductive loss `L_ind` per mapping step (empty when disabled).
    pub inductive_loss: Vec<f32>,
    /// Total mapping loss `L_M` per mapping step — Fig. 5(c)'s y-axis.
    pub mapping_loss: Vec<f32>,
}

/// The result of condensation.
pub struct Condensed {
    /// `S = {A', X', Y'}` with the sparsified adjacency.
    pub synthetic: Graph,
    /// Sparsified mapping `M : N x N'`.
    pub mapping: Csr,
    /// Dense `A'` before Eq. (14) — kept for the Fig. 6 sweeps.
    pub dense_adj: DMat,
    /// Dense normalised `M` before Eq. (14).
    pub dense_mapping: DMat,
    /// Loss traces.
    pub history: CondenseHistory,
}

impl Condensed {
    /// Re-applies Eq. (14) with new thresholds to the stored dense matrices
    /// (the Fig. 6 experiment varies `δ` without re-condensing).
    #[must_use]
    pub fn resparsify(&self, mu: f32, delta: f32) -> (Csr, Csr) {
        let (adj, _) = sparsify_dense(&self.dense_adj, mu);
        let (map, _) = sparsify_dense(&self.dense_mapping, delta);
        // Thresholding drops probability mass; restore the row-stochastic
        // semantics of `M` (empty rows — fully pruned nodes — stay empty).
        (adj, renormalize_rows(&map))
    }
}

/// Loop-invariant operands of the inductive loss (Eq. 11–12): the support
/// batch's pieces in the form every mapping-step tape registers them.
struct Support {
    /// `a`: support → original-node edges.
    incremental: Arc<Csr>,
    side: SupportSide,
    /// Support embeddings `Â^L X` on the *original* graph (θ-independent).
    target: Arc<DMat>,
}

/// The support side of Eq. (11)'s extended graph, constant for the run.
struct SupportSide {
    /// `X_sup`.
    features: Arc<DMat>,
    /// `ã + I`: support ↔ support edges with their self-loops, sparse.
    adj_loop: Arc<Csr>,
    /// `rowsum(ã + I)` (`n x 1`).
    deg: Arc<DMat>,
}

impl SupportSide {
    fn new(features: DMat, interconnect: &Csr) -> Self {
        let n = interconnect.rows();
        let mut adj_loop = Coo::with_capacity(n, n, interconnect.nnz() + n);
        for (i, j, v) in interconnect.iter() {
            adj_loop.push(i, j, v);
        }
        for i in 0..n {
            adj_loop.push(i, i, 1.0);
        }
        let adj_loop = adj_loop.to_csr();
        let deg = column(adj_loop.row_weighted_degrees());
        Self { features: Arc::new(features), adj_loop: Arc::new(adj_loop), deg: Arc::new(deg) }
    }
}

/// The synthetic side of Eq. (11)'s extended graph, constant within an
/// outer loop's mapping phase.
struct SyntheticSide {
    /// `X'`.
    features: Arc<DMat>,
    /// `A' + I` (the deployed, µ-thresholded `A'`).
    adj_loop: Arc<DMat>,
    /// `rowsum(A' + I)` (`N' x 1`).
    deg: Arc<DMat>,
}

impl SyntheticSide {
    fn new(features: DMat, adj: &DMat) -> Self {
        let adj_loop = adj.add(&DMat::eye(adj.rows()));
        let deg = column(adj_loop.row_sums());
        Self { features: Arc::new(features), adj_loop: Arc::new(adj_loop), deg: Arc::new(deg) }
    }
}

fn column(values: Vec<f32>) -> DMat {
    DMat::from_vec(values.len(), 1, values)
}

/// Support rows of `Â_ext^L [X'; X_sup]` for Eq. (11)'s extended graph
/// `A_ext = [[A', Sᵀ], [S, ã]]`, `S = a·M̂` (`n x N'`, the only block that
/// carries gradient), normalised as in Eq. (1) — computed block by block
/// instead of assembling `A_ext`. With `d_top = rowsum(A'+I) + colsum(S)` and
/// `d_bot = rowsum(ã+I) + rowsum(S)`, one hop is
///
/// ```text
/// Z_top ← D_top^{-½} [(A'+I)·Y_top + Sᵀ·Y_bot]
/// Z_bot ← D_bot^{-½} [ S·Y_top + (ã+I)·Y_bot ]      Y = D^{-½} Z
/// ```
///
/// and the last hop needs its bottom half only: the decomposition the serve
/// path runs (`Propagator::spmm_split` / `spmm_bottom`), here on the tape.
/// `ã` stays sparse and nothing `(N'+n) x (N'+n)` exists.
fn extended_support_rows(
    tape: &mut Tape,
    s: Var,
    syn: &SyntheticSide,
    sup: &SupportSide,
    hops: usize,
) -> Var {
    let s_t = tape.transpose(s);
    let (n, n_syn) = tape.value(s).shape();
    let ones_syn = tape.constant(DMat::filled(n_syn, 1, 1.0));
    let ones_sup = tape.constant(DMat::filled(n, 1, 1.0));
    let inv_sqrt_degree = |tape: &mut Tape, fixed: &Arc<DMat>, s_side: Var, ones: Var| {
        let fixed = tape.constant(Arc::clone(fixed));
        let moving = tape.matmul(s_side, ones);
        let deg = tape.add(fixed, moving);
        tape.inv_sqrt(deg)
    };
    let r_top = inv_sqrt_degree(tape, &syn.deg, s_t, ones_sup);
    let r_bot = inv_sqrt_degree(tape, &sup.deg, s, ones_syn);

    let adj_loop = tape.constant(Arc::clone(&syn.adj_loop));
    let mut z_top = tape.constant(Arc::clone(&syn.features));
    let mut z_bot = tape.constant(Arc::clone(&sup.features));
    for hop in 0..hops {
        let y_top = tape.scale_rows(z_top, r_top);
        let y_bot = tape.scale_rows(z_bot, r_bot);
        if hop + 1 < hops {
            let from_top = tape.matmul(adj_loop, y_top);
            let from_bot = tape.matmul(s_t, y_bot);
            let raw = tape.add(from_top, from_bot);
            z_top = tape.scale_rows(raw, r_top);
        }
        let from_top = tape.matmul(s, y_top);
        let from_bot = tape.spmm(Arc::clone(&sup.adj_loop), y_bot);
        let raw = tape.add(from_top, from_bot);
        z_bot = tape.scale_rows(raw, r_bot);
    }
    z_bot
}

/// `L` propagation steps from `x`: `Â^L X` for `step = |z| Â·z`.
fn propagate(hops: usize, x: DMat, step: impl Fn(&DMat) -> DMat) -> DMat {
    (0..hops).fold(x, |z, _| step(&z))
}

/// Runs MCond (Algorithm 1) on the dataset's original (training) graph.
///
/// A ratio that yields fewer synthetic nodes than classes is raised to one
/// node per class.
///
/// # Panics
/// Panics when a class has no node in the training graph (every class
/// needs a real node to initialise its synthetic ones from).
#[must_use]
pub fn condense(data: &InductiveDataset, cfg: &McondConfig) -> Condensed {
    let original = data.original_graph();
    let n = original.num_nodes();
    let d = original.feature_dim();
    let c = original.num_classes;
    let n_syn = ((cfg.ratio * n as f64).round() as usize).max(c);
    let _condense_span = mcond_obs::span_with(
        "condense",
        vec![("n", n.into()), ("n_syn", n_syn.into()), ("d", d.into()), ("c", c.into())],
    );
    let mut rng = MatRng::seed_from(cfg.seed);

    // --- Synthetic labels Y' (fixed, class-proportional) and X' init
    // (random real features per class, as in GCond). -----------------------
    let budgets = class_budgets(&original.class_counts(), n_syn);
    let mut labels_syn = Vec::with_capacity(n_syn);
    let mut init_rows = Vec::with_capacity(n_syn);
    for (class, &budget) in budgets.iter().enumerate() {
        let members = original.class_members(class);
        let picks = rng.sample_indices(members.len(), budget.min(members.len()));
        for p in &picks {
            init_rows.push(members[*p]);
        }
        // If the class has fewer members than budget, repeat samples.
        for extra in picks.len()..budget {
            init_rows.push(members[extra % members.len()]);
        }
        labels_syn.extend(std::iter::repeat_n(class, budget));
    }
    let mut x_syn = original.features.select_rows(&init_rows);
    // Small jitter so repeated rows are not identical.
    let jitter = rng.normal(x_syn.rows(), x_syn.cols(), 0.0, 0.01);
    x_syn.add_assign(&jitter);
    let labels_syn_rc = Arc::new(labels_syn.clone());

    // --- Original-graph precomputation. -----------------------------------
    let ahat = sym_normalize(&original.adj);
    let z_orig = Arc::new(propagate(cfg.hops, original.features.clone(), |z| ahat.spmm(z)));

    // --- Support nodes (validation split, capped). -------------------------
    let support_nodes: Vec<usize> = {
        let cap = cfg.support_cap.min(data.val_idx.len());
        let picks = rng.sample_indices(data.val_idx.len(), cap);
        picks.into_iter().map(|p| data.val_idx[p]).collect()
    };
    let use_support = cfg.train_mapping && cfg.use_inductive_loss && !support_nodes.is_empty();
    let support = use_support.then(|| {
        let sup = data.batch(&support_nodes, false);
        let ext_hat =
            sym_normalize(&original.adj.block_extend(&sup.incremental, &sup.interconnect));
        let z = propagate(cfg.hops, original.features.vstack(&sup.features), |z| ext_hat.spmm(z));
        Support {
            target: Arc::new(z.slice_rows(n, n + sup.len())),
            side: SupportSide::new(sup.features, &sup.interconnect),
            incremental: Arc::new(sup.incremental),
        }
    });

    // --- Trainable pieces. --------------------------------------------------
    let mut generator = AdjacencyGenerator::init(d, cfg.adjgen_hidden, &mut rng);
    let mut gen_opts = generator.optimizers(cfg.lr_phi);
    let mut feat_opt = Adam::new(cfg.lr_feat, n_syn, d);
    let mut mapping = if cfg.class_aware_init {
        Mapping::class_init(&original.labels, &labels_syn, cfg.epsilon)
    } else {
        Mapping::random_init(n, n_syn, cfg.epsilon, &mut rng)
    };
    let mut map_opt = Adam::new(cfg.lr_map, n, n_syn);
    let mut history = CondenseHistory::default();

    // --- Algorithm 1 main loop. ---------------------------------------------
    for outer in 0..cfg.outer_loops {
        let _outer_span = mcond_obs::span_with("condense.outer", vec![("outer", outer.into())]);
        let mut relay = Relay::init(d, c, cfg.hops, &mut rng);
        let mut relay_opt_w = Adam::new(cfg.lr_relay, d, c);
        let mut relay_opt_b = Adam::new(cfg.lr_relay, 1, c);

        // ---- Update synthetic graph (lines 6–11). -------------------------
        // `M` only moves in the mapping phase below.
        let relay_span = mcond_obs::span("condense.relay");
        let m_norm = cfg.use_structure_loss.then(|| mapping.normalized_detached());
        for t in 0..cfg.relay_steps {
            let mut tape = Tape::new();
            let phi = generator.tape_params(&mut tape);
            let xs = tape.param(x_syn.clone());
            let adj_syn = generator.adjacency(&mut tape, &phi, xs);
            let ahat_syn = tape.sym_normalize(adj_syn);
            let mut z = xs;
            for _ in 0..cfg.hops {
                z = tape.matmul(ahat_syn, z);
            }

            // Relay step of the *previous* iteration (line 11), deferred to
            // here: it trains on Z' = Â'^L X' at the (Φ, X') that iteration
            // left behind, which is the forward value just computed. The
            // update after an outer loop's last step has no reader (the
            // relay is re-drawn, the mapping phase never sees it) and is
            // not made.
            if t > 0 {
                relay.train_step(tape.value(z), &labels_syn, &mut relay_opt_w, &mut relay_opt_b);
            }

            let g_orig = relay.gradient(&z_orig, &original.labels);
            let g_syn = relay.gradient_on_tape(&mut tape, z, Arc::clone(&labels_syn_rc));
            let g_target = tape.constant(g_orig);
            let l_gra = tape.cosine_col_dist(g_target, g_syn);
            history.grad_loss.push(tape.scalar(l_gra));

            let l_s = if let Some(m_norm) = &m_norm {
                // For SGC, the relay's node embeddings H' = f(A', X') are
                // the propagated features Â'^L X' (the classifier W is the
                // separate readout of Eq. 2), i.e. the node `z` itself.
                // Only the batch's rows of H̃ = M̂ H' are needed, so gather
                // those rows of M̂ before the N-row product — identical loss
                // and gradients, but O(|B|·N'·d) instead of O(N·N'·d).
                let batch = sample_edge_batch(&original.adj, cfg.structure_batch, &mut rng);
                let mut ids: Vec<usize> = batch
                    .iter()
                    .flat_map(|&(i, j, _)| [i as usize, j as usize])
                    .collect();
                ids.sort_unstable();
                ids.dedup();
                let local_of = |node: u32| -> u32 {
                    ids.binary_search(&(node as usize)).expect("node in id set") as u32
                };
                let local_batch: Vec<(u32, u32, f32)> =
                    batch.iter().map(|&(i, j, t)| (local_of(i), local_of(j), t)).collect();
                let m_const = tape.constant(m_norm.select_rows(&ids));
                let h_tilde = tape.matmul(m_const, z);
                let l_str = tape.pair_bce(h_tilde, Arc::new(local_batch));
                history.structure_loss.push(tape.scalar(l_str));
                let weighted = tape.scale(l_str, cfg.lambda);
                tape.add(l_gra, weighted)
            } else {
                l_gra
            };

            let mut grads = tape.backward(l_s);
            if let Some(g) = grads.take(xs) {
                feat_opt.step(&mut x_syn, &g);
            }
            generator.apply(&mut grads, &phi, &mut gen_opts);

            if mcond_obs::enabled() {
                let mut fields = vec![
                    ("outer", outer.into()),
                    ("step", t.into()),
                    ("l_gra", history.grad_loss.last().copied().unwrap_or(f32::NAN).into()),
                ];
                if cfg.use_structure_loss {
                    if let Some(&l_str) = history.structure_loss.last() {
                        fields.push(("l_str", l_str.into()));
                    }
                }
                mcond_obs::point("condense.relay_step", &fields);
            }
        }
        drop(relay_span);

        // ---- Update mapping matrix (lines 12–15). --------------------------
        // Embeddings are the relay's propagated features (see the structure
        // loss above): H = Â^L X on the original graph, H' = Â'^L X' on the
        // synthetic graph, and the support rows of the extended propagation.
        if cfg.train_mapping {
            let _mapping_span = mcond_obs::span("condense.mapping");
            // The mapping must be trained against the graph that will be
            // *deployed*: the µ-sparsified A' (Eq. 14). Using the dense
            // pre-threshold A' here changes the degrees — and hence the
            // symmetric normalisation — enough that a mapping tuned on it
            // misfires at inference time.
            let adj_syn_det = Arc::new(
                generator.adjacency_detached(&x_syn).map(|v| if v >= cfg.mu { v } else { 0.0 }),
            );
            let ahat_syn = sym_normalize_dense(&adj_syn_det);
            let h_syn = Arc::new(propagate(cfg.hops, x_syn.clone(), |z| ahat_syn.matmul(z)));
            let inductive = support
                .as_ref()
                .map(|sup| (sup, SyntheticSide::new(x_syn.clone(), &adj_syn_det)));

            for step in 0..cfg.mapping_steps {
                let forward_span = mcond_obs::span("condense.mapping.forward");
                let mut tape = Tape::new();
                let raw = mapping.tape_param(&mut tape);
                let m_hat = mapping.normalized(&mut tape, raw);

                // L_tra (Eq. 10), optionally over a sampled row mini-batch
                // (`transductive_batch` > 0) — plain SGD over Eq. (10)'s
                // row sum, needed at paper scale where the full N x N'
                // product per step is prohibitive.
                let (m_rows, h_rows, rows_used) =
                    if cfg.transductive_batch > 0 && cfg.transductive_batch < n {
                        let ids = Arc::new(rng.sample_indices(n, cfg.transductive_batch));
                        let m_sel = tape.select_rows(m_hat, Arc::clone(&ids));
                        (m_sel, Arc::new(z_orig.select_rows(&ids)), cfg.transductive_batch)
                    } else {
                        (m_hat, Arc::clone(&z_orig), n)
                    };
                let h_syn_c = tape.constant(Arc::clone(&h_syn));
                let h_tilde = tape.matmul(m_rows, h_syn_c);
                let h_orig_c = tape.constant(h_rows);
                let l21 = tape.l21_dist(h_orig_c, h_tilde);
                let l_tra = tape.scale(l21, 1.0 / rows_used as f32);
                history.transductive_loss.push(tape.scalar(l_tra));

                let l_m = if let Some((sup, syn)) = &inductive {
                    // L_ind (Eq. 11–12): connect support nodes to S
                    // through aM̂ and compare embeddings.
                    let am = tape.spmm(Arc::clone(&sup.incremental), m_hat);
                    let h_sup_syn =
                        extended_support_rows(&mut tape, am, syn, &sup.side, cfg.hops);
                    let target = tape.constant(Arc::clone(&sup.target));
                    let l21_sup = tape.l21_dist(target, h_sup_syn);
                    let l_ind = tape.scale(l21_sup, 1.0 / sup.target.rows() as f32);
                    history.inductive_loss.push(tape.scalar(l_ind));
                    let weighted = tape.scale(l_ind, cfg.beta);
                    tape.add(l_tra, weighted)
                } else {
                    l_tra
                };
                history.mapping_loss.push(tape.scalar(l_m));
                drop(forward_span);

                if mcond_obs::enabled() {
                    let mut fields = vec![
                        ("outer", outer.into()),
                        ("step", step.into()),
                        ("l_tra", history.transductive_loss.last().copied().unwrap_or(f32::NAN).into()),
                        ("l_map", history.mapping_loss.last().copied().unwrap_or(f32::NAN).into()),
                    ];
                    if cfg.use_inductive_loss {
                        if let Some(&l_ind) = history.inductive_loss.last() {
                            fields.push(("l_ind", l_ind.into()));
                        }
                    }
                    mcond_obs::point("condense.mapping_step", &fields);
                }

                let backward_span = mcond_obs::span("condense.mapping.backward");
                let mut grads = tape.backward(l_m);
                drop(backward_span);
                if let Some(g) = grads.take(raw) {
                    let _adam_span = mcond_obs::span("condense.mapping.adam");
                    map_opt.step(&mut mapping.raw, &g);
                }
            }
        }
    }

    // --- Eq. (14) sparsification. -------------------------------------------
    let dense_adj = generator.adjacency_detached(&x_syn);
    let dense_mapping = mapping.normalized_detached();
    let (adj_sparse, adj_stats) = sparsify_dense(&dense_adj, cfg.mu);
    let (map_sparse, map_stats) = sparsify_dense(&dense_mapping, cfg.delta);
    // Eq. (14) drops sub-threshold mass, so surviving rows of `M` no longer
    // sum to 1; renormalise them (empty rows stay empty) so inductive
    // propagation `a M` keeps its random-walk interpretation.
    let map_sparse = renormalize_rows(&map_sparse);
    mcond_obs::point(
        "condense.sparsify",
        &[
            ("adj_nnz_before", (adj_stats.kept + adj_stats.dropped).into()),
            ("adj_nnz_after", adj_stats.kept.into()),
            ("map_nnz_before", (map_stats.kept + map_stats.dropped).into()),
            ("map_nnz_after", map_stats.kept.into()),
        ],
    );
    mcond_obs::emit_snapshot("condense");

    Condensed {
        synthetic: Graph::new(adj_sparse, x_syn, labels_syn, c),
        mapping: map_sparse,
        dense_adj,
        dense_mapping,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcond_graph::{load_dataset, Scale};

    fn quick_cfg() -> McondConfig {
        McondConfig {
            ratio: 0.03,
            outer_loops: 2,
            relay_steps: 4,
            mapping_steps: 6,
            structure_batch: 64,
            support_cap: 24,
            ..McondConfig::default()
        }
    }

    /// Random operands of Eq. (11)'s extended graph: hollow symmetric `A'`
    /// thresholded like the deployed one, a non-negative `S` standing in for
    /// `a·M̂`, and a sparse symmetric `ã`.
    fn extended_operands(n_syn: usize, n: usize, d: usize, seed: u64) -> (DMat, DMat, Csr, DMat, DMat) {
        let mut rng = MatRng::seed_from(seed);
        let u = rng.uniform(n_syn, n_syn, 0.0, 1.0);
        let mut adj = u.add(&u.transpose()).scale(0.5).map(|v| if v >= 0.5 { v } else { 0.0 });
        for i in 0..n_syn {
            adj.set(i, i, 0.0);
        }
        let s = rng.uniform(n, n_syn, -0.3, 0.2).relu();
        let mut inter = Coo::new(n, n);
        for _ in 0..n {
            let (i, j) = (rng.index(n), rng.index(n));
            if i != j {
                inter.push_sym(i, j, 1.0);
            }
        }
        let inter = inter.to_csr().map_values(|_| 1.0);
        (adj, s, inter, rng.normal(n_syn, d, 0.0, 1.0), rng.normal(n, d, 0.0, 1.0))
    }

    fn max_abs_diff(a: &DMat, b: &DMat) -> f32 {
        assert_eq!(a.shape(), b.shape());
        a.as_slice().iter().zip(b.as_slice()).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
    }

    #[test]
    fn block_form_support_rows_match_the_materialised_block_and_the_serve_path() {
        // The ruler's shapes: reddit-small at r = 1.5 %, 300 support nodes.
        let (n_syn, n, d, hops) = (39, 300, 96, 2);
        let (adj, s, inter, x_syn, x_sup) = extended_operands(n_syn, n, d, 41);

        let mut tape = Tape::new();
        let s_var = tape.param(s.clone());
        let syn = SyntheticSide::new(x_syn.clone(), &adj);
        let sup = SupportSide::new(x_sup.clone(), &inter);
        let rows = extended_support_rows(&mut tape, s_var, &syn, &sup, hops);
        let block_form = tape.value(rows);

        // (a) What the parent commit recorded on the tape: the assembled
        // (N'+n)² block, normalised and multiplied `hops` times.
        let block = adj.hstack(&s.transpose()).vstack(&s.hstack(&inter.to_dense()));
        let block_hat = sym_normalize_dense(&block);
        let z = propagate(hops, x_syn.vstack(&x_sup), |z| block_hat.matmul(z));
        let materialised = z.slice_rows(n_syn, n_syn + n);
        let diff = max_abs_diff(block_form, &materialised);
        assert!(diff <= 1e-5, "block form vs materialised block: max |Δ| = {diff}");

        // (b) The serve path's decomposition of the same operator.
        let (base, inc) = (Csr::from_dense(&adj), Csr::from_dense(&s));
        let deg = mcond_gnn::BaseDegrees::of(&base);
        let ext = mcond_gnn::Propagator::extended_sym(&base, &inc, &inter, &deg);
        let (top, bottom) = ext.spmm_split(&x_syn, &x_sup);
        let served = ext.spmm_bottom(&top, &bottom);
        let diff = max_abs_diff(block_form, &served);
        assert!(diff <= 1e-5, "block form vs spmm_split/spmm_bottom: max |Δ| = {diff}");
    }

    #[test]
    fn block_form_inductive_loss_gradient_matches_finite_differences() {
        // L_ind of Eq. (12) w.r.t. raw M, through Eq. (15), a·M̂ and the
        // block-form propagation.
        let (n_orig, n_syn, n, d, hops) = (6, 3, 4, 3, 2);
        let (adj, _, inter, x_syn, x_sup) = extended_operands(n_syn, n, d, 42);
        let mut rng = MatRng::seed_from(43);
        let mut a = Coo::new(n, n_orig);
        for i in 0..n {
            a.push(i, rng.index(n_orig), 1.0);
            a.push(i, rng.index(n_orig), 1.0);
        }
        let a = Arc::new(a.to_csr());
        let target = rng.normal(n, d, 0.0, 1.0);
        let syn = SyntheticSide::new(x_syn, &adj);
        let sup = SupportSide::new(x_sup, &inter);
        let raw0 = rng.uniform(n_orig, n_syn, -1.0, 1.0);
        mcond_autodiff::check::assert_gradients_match(&raw0, 1e-2, 4e-2, |tape, p| {
            let mapping = Mapping { raw: p, epsilon: 1e-5 };
            let raw = mapping.tape_param(tape);
            let m_hat = mapping.normalized(tape, raw);
            let am = tape.spmm(Arc::clone(&a), m_hat);
            let rows = extended_support_rows(tape, am, &syn, &sup, hops);
            let tgt = tape.constant(target.clone());
            let l = tape.l21_dist(tgt, rows);
            (raw, l)
        });
    }

    #[test]
    fn condense_produces_consistent_shapes() {
        let data = load_dataset("pubmed", Scale::Small, 0).unwrap();
        let result = condense(&data, &quick_cfg());
        let n = data.train_idx.len();
        let n_syn = result.synthetic.num_nodes();
        assert_eq!(n_syn, (0.03 * n as f64).round() as usize);
        assert_eq!(result.mapping.rows(), n);
        assert_eq!(result.mapping.cols(), n_syn);
        assert_eq!(result.synthetic.labels.len(), n_syn);
        assert_eq!(result.dense_adj.shape(), (n_syn, n_syn));
    }

    #[test]
    fn synthetic_labels_match_class_distribution() {
        let data = load_dataset("pubmed", Scale::Small, 1).unwrap();
        let result = condense(&data, &quick_cfg());
        let counts = result.synthetic.class_counts();
        assert!(counts.iter().all(|&c| c >= 1));
        // The largest original class keeps the largest synthetic budget.
        let orig_counts = data.original_graph().class_counts();
        let max_orig = orig_counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, &v)| v)
            .unwrap()
            .0;
        let max_syn = counts.iter().enumerate().max_by_key(|&(_, &v)| v).unwrap().0;
        assert_eq!(max_orig, max_syn);
    }

    #[test]
    fn losses_are_recorded_and_finite() {
        let data = load_dataset("pubmed", Scale::Small, 2).unwrap();
        let cfg = quick_cfg();
        let result = condense(&data, &cfg);
        let expected_steps = cfg.outer_loops * cfg.relay_steps;
        assert_eq!(result.history.grad_loss.len(), expected_steps);
        assert_eq!(result.history.structure_loss.len(), expected_steps);
        assert_eq!(
            result.history.mapping_loss.len(),
            cfg.outer_loops * cfg.mapping_steps
        );
        assert!(result
            .history
            .grad_loss
            .iter()
            .chain(&result.history.mapping_loss)
            .all(|v| v.is_finite()));
    }

    #[test]
    fn mapping_training_reduces_mapping_loss() {
        let data = load_dataset("pubmed", Scale::Small, 3).unwrap();
        let cfg = McondConfig { mapping_steps: 40, ..quick_cfg() };
        let result = condense(&data, &cfg);
        let losses = &result.history.mapping_loss;
        let first_block_mean: f32 =
            losses[..5].iter().sum::<f32>() / 5.0;
        let last_block_mean: f32 =
            losses[losses.len() - 5..].iter().sum::<f32>() / 5.0;
        assert!(
            last_block_mean < first_block_mean,
            "{first_block_mean} -> {last_block_mean}"
        );
    }

    #[test]
    fn gcond_config_disables_mapping_training() {
        let data = load_dataset("pubmed", Scale::Small, 4).unwrap();
        let result = condense(&data, &McondConfig::gcond(0.03, 4));
        assert!(result.history.mapping_loss.is_empty());
        assert!(result.history.structure_loss.is_empty());
        // Mapping still usable (normalised class init).
        assert!(result.mapping.nnz() > 0);
    }

    #[test]
    fn transductive_row_batching_still_learns() {
        let data = load_dataset("pubmed", Scale::Small, 10).unwrap();
        let cfg = McondConfig {
            transductive_batch: 64,
            mapping_steps: 40,
            ..quick_cfg()
        };
        let result = condense(&data, &cfg);
        let losses = &result.history.mapping_loss;
        assert!(losses.iter().all(|v| v.is_finite()));
        let first: f32 = losses[..5].iter().sum::<f32>() / 5.0;
        let last: f32 = losses[losses.len() - 5..].iter().sum::<f32>() / 5.0;
        assert!(last < first, "{first} -> {last}");
    }

    #[test]
    fn resparsify_is_monotone() {
        let data = load_dataset("pubmed", Scale::Small, 5).unwrap();
        let result = condense(&data, &quick_cfg());
        let (_, loose) = result.resparsify(0.0, 0.0);
        let (_, tight) = result.resparsify(0.9, 0.5);
        assert!(tight.nnz() <= loose.nnz());
    }
}
