//! Shared fixture for the serve integration suites: the same 6-node toy
//! split as `mcond-core`'s chaos sweep, moved into owning servers and
//! wrapped in epoch slots the front end's hot-swap machinery expects.

// Each test binary includes this module but uses a different subset.
#![allow(dead_code)]

use mcond_core::{Checkpoint, EpochServer, EpochSlot};
use mcond_serve::Client;
use mcond_gnn::{GnnKind, GnnModel};
use mcond_graph::{Graph, InductiveDataset};
use mcond_linalg::{DMat, MatRng};
use mcond_sparse::{Coo, Csr};
use std::path::PathBuf;
use std::sync::Arc;

/// Incremental width every request against the toy server must have
/// (mapping rows for Eq. 11 serving).
pub const INC_COLS: usize = 3;
/// Feature dimension of the toy split.
pub const FEATURE_DIM: usize = 3;

/// 6-node toy split: train {0,1,2} triangle, val {3}, test {4,5}.
pub fn dataset() -> InductiveDataset {
    let mut coo = Coo::new(6, 6);
    for &(i, j) in &[(0, 1), (1, 2), (0, 2), (3, 0), (4, 1), (5, 2), (4, 5)] {
        coo.push_sym(i, j, 1.0);
    }
    let features = MatRng::seed_from(7).normal(6, FEATURE_DIM, 0.0, 1.0);
    let g = Graph::new(coo.to_csr(), features, vec![0, 1, 0, 1, 0, 1], 2);
    InductiveDataset::new(g, vec![0, 1, 2], vec![3], vec![4, 5])
}

/// Boot epoch slot over a 2-node synthetic graph and 3x2 mapping.
pub fn toy_slot() -> Arc<EpochSlot> {
    toy_slot_with(GnnModel::new(GnnKind::Gcn, FEATURE_DIM, 4, 2, 1))
}

/// [`toy_slot`] with a model whose second weight expects 5 hidden units
/// where its first layer makes 4: it boots (the base prefix stops at
/// `X'W₀`) and passes validation, but panics inside the forward pass (the
/// chaos-sweep misconfiguration), for exercising 500s. `Checkpoint::new`
/// does not check the layer chain and the store decoder would reject it,
/// so the bundle is assembled field by field.
pub fn broken_toy_slot() -> Arc<EpochSlot> {
    let mut model = GnnModel::new(GnnKind::Gcn, FEATURE_DIM, 4, 2, 1);
    model.params_mut()[2] = DMat::zeros(5, 2);
    toy_slot_with(model)
}

fn toy_slot_with(model: GnnModel) -> Arc<EpochSlot> {
    let synthetic = Graph::new(
        Csr::eye(2),
        DMat::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]),
        vec![0, 1],
        2,
    );
    let mut map = Coo::new(INC_COLS, 2);
    map.push(0, 0, 0.5);
    map.push(1, 0, 0.5);
    map.push(2, 1, 1.0);
    let ckpt = Checkpoint { synthetic, mapping: map.to_csr(), model };
    Arc::new(EpochSlot::new(EpochServer::new(ckpt.into_server(), "toy-fixture")))
}

/// A valid, saveable checkpoint over the same toy shapes as
/// [`toy_slot`] — 2 synthetic nodes, 3-dim features, 3x2 mapping.
/// Different `seed`s produce bitwise-distinct model weights, which is
/// what the reload chaos suite alternates between to prove each answer
/// came from the epoch its header claims.
pub fn toy_checkpoint(seed: u64) -> Checkpoint {
    let mut coo = Coo::new(2, 2);
    coo.push_sym(0, 1, 1.0);
    let graph = Graph::new(
        coo.to_csr(),
        DMat::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]),
        vec![0, 1],
        2,
    );
    let mut map = Coo::new(INC_COLS, 2);
    map.push(0, 0, 0.5);
    map.push(1, 0, 0.5);
    map.push(2, 1, 1.0);
    let model = GnnModel::new(GnnKind::Gcn, FEATURE_DIM, 4, 2, seed);
    Checkpoint::new(graph, map.to_csr(), model).expect("toy checkpoint is valid")
}

/// Reads the process-scope value of a counter from `GET /metrics`.
pub fn counter(client: &mut Client, name: &str) -> u64 {
    let resp = client.request("GET", "/metrics", b"").expect("metrics");
    assert_eq!(resp.status, 200);
    for line in resp.text().lines().filter(|l| !l.is_empty()) {
        let j = mcond_obs::Json::parse(line).expect("metrics line parses");
        if j.get("scope").and_then(mcond_obs::Json::as_str) == Some("process") {
            let metrics = j.get("metrics").expect("metrics object");
            if let Some(v) = metrics
                .get("counters")
                .and_then(|c| c.get(name))
                .and_then(mcond_obs::Json::as_f64)
            {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                return v as u64;
            }
            return 0;
        }
    }
    panic!("no process-scope metrics line");
}

/// Saves [`toy_checkpoint`]`(seed)` under a unique temp path (per process
/// and tag, so parallel test binaries never collide) and returns it.
pub fn checkpoint_file(tag: &str, seed: u64) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "mcond_serve_{tag}_{}_{seed}.mcst",
        std::process::id()
    ));
    toy_checkpoint(seed).save(&path).expect("save toy checkpoint");
    path
}
