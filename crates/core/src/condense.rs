//! Algorithm 1: alternating optimisation of the synthetic graph `S` and the
//! mapping matrix `M`.

use crate::adjgen::AdjacencyGenerator;
use crate::coreset::class_budgets;
use crate::mapping::Mapping;
use crate::relay::{propagated_embeddings, Relay};
use crate::sampling::sample_edge_batch;
use mcond_autodiff::{Adam, GramTarget, Tape};
use mcond_gnn::{BaseDegrees, Propagator, TapeExtension};
use mcond_graph::{Graph, InductiveDataset, NodeBatch};
use mcond_linalg::{DMat, MatRng};
use mcond_sparse::{renormalize_rows, sparsify_dense, sym_normalize_dense, Csr, SparsifyStats};
use std::sync::Arc;

/// Propagation depth `L` (paper: 2-layer models).
const HOPS: usize = 2;
/// Hidden width of the MLP_Φ adjacency generator (Eq. 6).
const ADJGEN_HIDDEN: usize = 64;
// Learning rates: `η₁` for `X'`, `η₂` for Φ, `M`'s (paper: 0.1), the relay's.
const LR_FEAT: f32 = 0.05;
const LR_PHI: f32 = 0.01;
const LR_MAP: f32 = 0.1;
const LR_RELAY: f32 = 0.05;

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
    /// Structure-loss weight `λ` (Eq. 9).
    pub lambda: f32,
    /// Inductive-loss weight `β` (Eq. 13).
    pub beta: f32,
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
            lambda: 0.1,
            beta: 100.0,
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
        let [(adj, _), (map, _)] = sparsify(&self.dense_adj, &self.dense_mapping, mu, delta);
        (adj, map)
    }
}

/// Eq. (14): `A'` thresholded at `µ` and `M` at `δ` by `sparsify_dense`'s
/// rule, each with its accounting. Thresholding drops probability mass, so
/// the surviving rows of `M` are renormalised (empty rows — fully pruned
/// nodes — stay empty) and inductive propagation `a M` keeps its
/// random-walk interpretation.
fn sparsify(adj: &DMat, mapping: &DMat, mu: f32, delta: f32) -> [(Csr, SparsifyStats); 2] {
    let adj = sparsify_dense(adj, mu);
    let (map, map_stats) = sparsify_dense(mapping, delta);
    [adj, (renormalize_rows(&map), map_stats)]
}

/// Loop-invariant operands of the inductive loss (Eq. 11–12): the support
/// batch's `a` (support → original edges), `ã` and `X_sup` as every
/// mapping-step tape registers them, and its embeddings on the *original*
/// graph (θ-independent).
struct Support {
    incremental: Arc<Csr>,
    interconnect: Arc<Csr>,
    features: Arc<DMat>,
    target: Arc<DMat>,
}

impl Support {
    fn new(original: &Graph, batch: NodeBatch) -> Self {
        // The support rows of Eq. (3)'s `Â_ext^L [X; X_sup]`, evaluated as
        // the server evaluates it: block by block, `T` never copied.
        let deg = BaseDegrees::of(&original.adj);
        let target =
            Propagator::extended_sym(&original.adj, &batch.incremental, &batch.interconnect, &deg)
                .spmm_bottom_pow(HOPS, &original.features, &batch.features);
        Self {
            incremental: Arc::new(batch.incremental),
            interconnect: Arc::new(batch.interconnect),
            features: Arc::new(batch.features),
            target: Arc::new(target),
        }
    }
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
    let z_orig = Arc::new(propagated_embeddings(&original, HOPS));

    // --- Support nodes (validation split, capped). -------------------------
    let support_nodes: Vec<usize> = {
        let cap = cfg.support_cap.min(data.val_idx.len());
        let picks = rng.sample_indices(data.val_idx.len(), cap);
        picks.into_iter().map(|p| data.val_idx[p]).collect()
    };
    let use_support = cfg.train_mapping && cfg.use_inductive_loss && !support_nodes.is_empty();
    let support =
        use_support.then(|| Support::new(&original, data.batch(&support_nodes, false)));

    // --- Trainable pieces. --------------------------------------------------
    let mut generator = AdjacencyGenerator::init(d, ADJGEN_HIDDEN, &mut rng);
    let mut gen_opts = generator.optimizers(LR_PHI);
    let mut feat_opt = Adam::new(LR_FEAT, n_syn, d);
    let mut mapping = if cfg.class_aware_init {
        Mapping::class_init(&original.labels, &labels_syn, Mapping::EPSILON)
    } else {
        Mapping::random_init(n, n_syn, Mapping::EPSILON, &mut rng)
    };
    let mut map_opt = Adam::new(LR_MAP, n, n_syn);
    let mut history = CondenseHistory::default();

    // --- Algorithm 1 main loop. ---------------------------------------------
    for outer in 0..cfg.outer_loops {
        let _outer_span = mcond_obs::span_with("condense.outer", vec![("outer", outer.into())]);
        let mut relay = Relay::init(d, c, &mut rng);
        let mut relay_opt_w = Adam::new(LR_RELAY, d, c);
        let mut relay_opt_b = Adam::new(LR_RELAY, 1, c);

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
            for _ in 0..HOPS {
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
                if let Some(&l_str) = history.structure_loss.last() {
                    fields.push(("l_str", l_str.into()));
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
            // misfires at inference time. Eq. (14)'s rule is `sparsify`'s.
            let (adj_syn, _) = sparsify_dense(&generator.adjacency_detached(&x_syn), cfg.mu);
            let ahat_syn = sym_normalize_dense(&adj_syn.to_dense());
            let h_syn = (0..HOPS).fold(x_syn.clone(), |z, _| ahat_syn.matmul(&z));
            // Eq. (10) against this phase's fixed H' needs only the Gram
            // statistics of H and H' (`P = H H'ᵀ`, `G = H' H'ᵀ`, `‖H_i‖²`):
            // a step then does no N x d work.
            let gram = Arc::new(GramTarget::new(&z_orig, &h_syn));
            // Eq. (11)'s extended graph is the one the server builds: the
            // sparse A' above, its degrees, and X' on the base rows.
            let inductive = support.as_ref().map(|sup| {
                (sup, BaseDegrees::of(&adj_syn), Arc::new(adj_syn), Arc::new(x_syn.clone()))
            });

            for step in 0..cfg.mapping_steps {
                let forward_span = mcond_obs::span("condense.mapping.forward");
                let mut tape = Tape::new();
                let raw = mapping.tape_param(&mut tape);
                let m_hat = mapping.normalized(&mut tape, raw);

                // L_tra (Eq. 10), optionally over a sampled row mini-batch
                // (`transductive_batch` > 0) — plain SGD over Eq. (10)'s
                // row sum, needed at paper scale where the full N x N'
                // work per step is prohibitive.
                let (m_rows, target) =
                    if cfg.transductive_batch > 0 && cfg.transductive_batch < n {
                        let ids = rng.sample_indices(n, cfg.transductive_batch);
                        let target = Arc::new(gram.select_rows(&ids));
                        (tape.select_rows(m_hat, Arc::new(ids)), target)
                    } else {
                        (m_hat, Arc::clone(&gram))
                    };
                let rows_used = target.rows();
                let l21 = tape.l21_gram_dist(m_rows, target);
                let l_tra = tape.scale(l21, 1.0 / rows_used as f32);
                history.transductive_loss.push(tape.scalar(l_tra));

                let l_m = if let Some((sup, deg, adj_syn, x_syn_c)) = &inductive {
                    // L_ind (Eq. 11–12): connect support nodes to S
                    // through aM̂ and compare embeddings.
                    let am = tape.spmm(Arc::clone(&sup.incremental), m_hat);
                    let x_base = tape.constant(Arc::clone(x_syn_c));
                    let x_new = tape.constant(Arc::clone(&sup.features));
                    let inter = Arc::clone(&sup.interconnect);
                    let h_sup_syn =
                        TapeExtension::sym(&mut tape, Arc::clone(adj_syn), am, inter, deg)
                            .spmm_bottom_pow(HOPS, x_base, x_new);
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
                    if let Some(&l_ind) = history.inductive_loss.last() {
                        fields.push(("l_ind", l_ind.into()));
                    }
                    mcond_obs::point("condense.mapping_step", &fields);
                }

                let backward_span = mcond_obs::span("condense.mapping.backward");
                let mut grads = tape.backward(l_m);
                drop(backward_span);
                drop(tape);
                if let Some(g) = grads.take(raw) {
                    let _adam_span = mcond_obs::span("condense.mapping.adam");
                    mapping.step(&mut map_opt, &g);
                }
            }
        }
    }

    // --- Eq. (14) sparsification. -------------------------------------------
    let dense_adj = generator.adjacency_detached(&x_syn);
    let dense_mapping = mapping.normalized_detached();
    let [(adj_sparse, adj_stats), (map_sparse, map_stats)] =
        sparsify(&dense_adj, &dense_mapping, cfg.mu, cfg.delta);
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
    use mcond_sparse::Coo;

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

    #[test]
    fn block_form_inductive_loss_gradient_matches_finite_differences() {
        // L_ind of Eq. (12) w.r.t. raw M, through Eq. (15), a·M̂ and the
        // tape instance of the extended operator's hop.
        let (n_orig, n_syn, n, d) = (6, 3, 4, 3);
        let mut rng = MatRng::seed_from(42);
        let u = rng.uniform(n_syn, n_syn, 0.0, 1.0);
        let mut adj = u.add(&u.transpose()).scale(0.5);
        for i in 0..n_syn {
            adj.set(i, i, 0.0);
        }
        let (adj, _) = sparsify_dense(&adj, 0.5);
        let deg = BaseDegrees::of(&adj);
        let (adj, inter) = (Arc::new(adj), Arc::new(Csr::from_dense(&DMat::from_rows(&[
            &[0.0, 1.0, 0.0, 0.0],
            &[1.0, 0.0, 0.0, 1.0],
            &[0.0, 0.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0, 0.0],
        ]))));
        let (x_syn, x_sup) = (rng.normal(n_syn, d, 0.0, 1.0), rng.normal(n, d, 0.0, 1.0));
        let mut a = Coo::new(n, n_orig);
        for i in 0..n {
            a.push(i, rng.index(n_orig), 1.0);
            a.push(i, rng.index(n_orig), 1.0);
        }
        let a = Arc::new(a.to_csr());
        let target = rng.normal(n, d, 0.0, 1.0);
        let raw0 = rng.uniform(n_orig, n_syn, -1.0, 1.0);
        mcond_autodiff::check::assert_gradients_match(&raw0, 1e-2, 4e-2, |tape, p| {
            let mapping = Mapping { raw: Arc::new(p), epsilon: Mapping::EPSILON };
            let raw = mapping.tape_param(tape);
            let m_hat = mapping.normalized(tape, raw);
            let am = tape.spmm(Arc::clone(&a), m_hat);
            let (xb, xn) = (tape.constant(x_syn.clone()), tape.constant(x_sup.clone()));
            let rows = TapeExtension::sym(tape, Arc::clone(&adj), am, Arc::clone(&inter), &deg)
                .spmm_bottom_pow(HOPS, xb, xn);
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
