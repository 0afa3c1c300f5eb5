//! Full-batch GNN training with Adam.

use crate::model::ConstProps;
use crate::{accuracy, GnnModel, GraphOps};
use mcond_autodiff::{Adam, Tape};
use mcond_linalg::DMat;
use std::sync::Arc;

/// Training hyper-parameters.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Number of full-batch epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// L2 weight decay on all parameters.
    pub weight_decay: f32,
    /// Stop early when `patience` epochs pass without a validation-accuracy
    /// improvement (requires validation data; `None` disables).
    pub patience: Option<usize>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { epochs: 200, lr: 0.01, weight_decay: 5e-4, patience: None }
    }
}

/// Outcome of a training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Cross-entropy per epoch.
    pub losses: Vec<f32>,
    /// Final training accuracy.
    pub train_accuracy: f64,
    /// Best validation accuracy (when validation data was supplied).
    pub val_accuracy: Option<f64>,
    /// Number of epochs actually run.
    pub epochs_run: usize,
}

/// Trains `model` on a fully labelled graph (the paper trains on either the
/// original training subgraph or the synthetic graph, both fully labelled).
///
/// `val` optionally supplies `(ops, features, labels)` of a held-out graph
/// configuration for early stopping / model selection; the parameters with
/// the best validation accuracy are restored at the end.
///
/// # Panics
/// Panics when label count and feature rows disagree.
pub fn train(
    model: &mut GnnModel,
    ops: &GraphOps,
    features: &DMat,
    labels: &[usize],
    cfg: &TrainConfig,
    val: Option<(&GraphOps, &DMat, &[usize])>,
) -> TrainReport {
    assert_eq!(features.rows(), labels.len(), "train: features/labels mismatch");
    let mut train_span = mcond_obs::span_with(
        "gnn.train",
        vec![
            ("nodes", features.rows().into()),
            ("epochs_budget", cfg.epochs.into()),
            ("has_val", val.is_some().into()),
        ],
    );
    let labels_rc = Arc::new(labels.to_vec());
    let features_rc = Arc::new(features.clone());
    let mut opts: Vec<Adam> = model
        .params()
        .iter()
        .map(|p| Adam::new(cfg.lr, p.rows(), p.cols()).with_weight_decay(cfg.weight_decay))
        .collect();

    let mut losses = Vec::with_capacity(cfg.epochs);
    let mut best_val = f64::NEG_INFINITY;
    let mut best_params: Option<Vec<DMat>> = None;
    let mut stale = 0usize;
    let mut epochs_run = 0usize;
    // The features are constant, so what the program propagates before
    // its first parameter is the same every epoch: compute it once.
    let mut consts = ConstProps::default();

    for epoch in 0..cfg.epochs {
        epochs_run += 1;
        let mut tape = Tape::new();
        let ps = model.tape_params(&mut tape);
        let x = tape.constant(Arc::clone(&features_rc));
        let logits = model.forward_reusing(&mut tape, &ps, ops, x, &mut consts);
        let loss = tape.softmax_cross_entropy(logits, Arc::clone(&labels_rc));
        losses.push(tape.scalar(loss));
        let mut grads = tape.backward(loss);
        for ((param, var), opt) in model.params_mut().iter_mut().zip(&ps).zip(&mut opts) {
            if let Some(g) = grads.take(*var) {
                opt.step(param, &g);
            }
        }

        let mut val_acc = None;
        if let Some((vops, vx, vy)) = val {
            let acc = accuracy(&model.predict(vops, vx), vy);
            val_acc = Some(acc);
            if acc > best_val {
                best_val = acc;
                best_params = Some(model.params().to_vec());
                stale = 0;
            } else {
                stale += 1;
                if cfg.patience.is_some_and(|p| stale >= p) {
                    if mcond_obs::enabled() {
                        mcond_obs::point(
                            "gnn.train.early_stop",
                            &[
                                ("epoch", epoch.into()),
                                ("stale", stale.into()),
                                ("best_val", best_val.into()),
                            ],
                        );
                    }
                    break;
                }
            }
        }
        if mcond_obs::enabled() {
            let mut fields =
                vec![("epoch", epoch.into()), ("loss", losses[epochs_run - 1].into())];
            if let Some(acc) = val_acc {
                fields.push(("val_acc", acc.into()));
            }
            mcond_obs::point("gnn.train.epoch", &fields);
        }
    }

    if let Some(best) = best_params {
        for (dst, src) in model.params_mut().iter_mut().zip(best) {
            *dst = src;
        }
    }
    let train_accuracy = accuracy(&model.predict(ops, features), labels);
    train_span.record("epochs_run", epochs_run);
    train_span.record("train_acc", train_accuracy);
    TrainReport {
        losses,
        train_accuracy,
        val_accuracy: (best_val > f64::NEG_INFINITY).then_some(best_val),
        epochs_run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GnnKind;
    use mcond_graph::{generate_sbm, SbmConfig};

    fn dataset() -> (GraphOps<'static>, DMat, Vec<usize>) {
        let g = generate_sbm(&SbmConfig {
            nodes: 120,
            edges: 360,
            feature_dim: 16,
            num_classes: 3,
            homophily: 0.85,
            center_scale: 1.2,
            ..SbmConfig::default()
        });
        (GraphOps::from_adj(&g.adj), g.features.clone(), g.labels.clone())
    }

    #[test]
    fn training_reduces_loss_for_every_architecture() {
        let (ops, x, y) = dataset();
        for kind in GnnKind::ALL {
            let mut model = GnnModel::new(kind, 16, 16, 3, 1);
            let cfg = TrainConfig { epochs: 60, lr: 0.05, ..TrainConfig::default() };
            let report = train(&mut model, &ops, &x, &y, &cfg, None);
            let first = report.losses[0];
            let last = *report.losses.last().unwrap();
            assert!(last < first * 0.8, "{}: {first} -> {last}", kind.name());
        }
    }

    #[test]
    fn trained_model_beats_chance_comfortably() {
        let (ops, x, y) = dataset();
        let mut model = GnnModel::new(GnnKind::Gcn, 16, 16, 3, 2);
        let cfg = TrainConfig { epochs: 120, lr: 0.05, ..TrainConfig::default() };
        let report = train(&mut model, &ops, &x, &y, &cfg, None);
        assert!(report.train_accuracy > 0.7, "accuracy {}", report.train_accuracy);
    }

    #[test]
    fn early_stopping_halts_before_epoch_budget() {
        let (ops, x, y) = dataset();
        let mut model = GnnModel::new(GnnKind::Sgc, 16, 0, 3, 3);
        let cfg = TrainConfig {
            epochs: 500,
            lr: 0.1,
            patience: Some(5),
            ..TrainConfig::default()
        };
        let report = train(&mut model, &ops, &x, &y, &cfg, Some((&ops, &x, &y[..])));
        assert!(report.epochs_run < 500, "ran all {} epochs", report.epochs_run);
        assert!(report.val_accuracy.is_some());
    }

    #[test]
    fn validation_restores_best_parameters() {
        let (ops, x, y) = dataset();
        let mut model = GnnModel::new(GnnKind::Gcn, 16, 8, 3, 4);
        let cfg = TrainConfig { epochs: 40, lr: 0.05, ..TrainConfig::default() };
        let report = train(&mut model, &ops, &x, &y, &cfg, Some((&ops, &x, &y[..])));
        let final_acc = accuracy(&model.predict(&ops, &x), &y);
        // The restored parameters must realise the reported best accuracy.
        assert!((final_acc - report.val_accuracy.unwrap()).abs() < 1e-9);
    }
}
