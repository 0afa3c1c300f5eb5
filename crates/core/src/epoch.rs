//! Epoch-versioned checkpoint ownership for zero-downtime serving.
//!
//! A long-lived serving process must survive a model swap without dropping
//! a request. The shape here is the classic RCU/arc-swap pattern, built
//! std-only: one [`EpochSlot`] holds the *current* [`EpochServer`] behind
//! an `Arc`; every request clones that `Arc` and finishes on the epoch it
//! started on, a swap is one pointer exchange under a short-held lock, and
//! the retired epoch frees itself when its last in-flight request drops —
//! nothing is leaked, nothing grows per reload.
//!
//! # Ownership
//!
//! An [`InductiveServer`] owns or borrows its parts; an epoch needs the
//! owning kind so it can die. [`EpochServer`] wraps an
//! `InductiveServer<'static>` — built by
//! [`Checkpoint::into_server`](crate::Checkpoint::into_server), which
//! moves the bundle in — so the graph, mapping and weights live exactly as
//! long as the epoch's last `Arc` holder.

use crate::serve_error::ServeError;
use crate::server::InductiveServer;
use mcond_graph::NodeBatch;
use mcond_linalg::DMat;
use mcond_sparse::Csr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// One immutable generation of the serving model: a server that owns its
/// checkpoint, the slot-assigned sequence number, and the checkpoint's
/// content id.
pub struct EpochServer {
    server: InductiveServer<'static>,
    seq: u64,
    id: String,
}

impl EpochServer {
    /// Builds an epoch around a server that owns its parts. `id` is the
    /// checkpoint's content id (see `CheckpointReader::content_id`), or
    /// any operator-meaningful tag.
    #[must_use]
    pub fn new(server: InductiveServer<'static>, id: impl Into<String>) -> Self {
        Self { server, seq: 0, id: id.into() }
    }

    /// The server for this epoch. In-flight requests hold the epoch's
    /// `Arc`, so the borrow stays valid across a concurrent swap.
    #[must_use]
    pub fn server(&self) -> &InductiveServer<'static> {
        &self.server
    }

    /// Slot-assigned generation number: `1` for the boot epoch, `+1` per
    /// successful install. `0` means "never installed".
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The checkpoint content id this epoch serves from.
    #[must_use]
    pub fn checkpoint_id(&self) -> &str {
        &self.id
    }

    /// Canary self-check: serves one synthetic probe batch (a single
    /// zero-feature node with an empty attachment row) through the full
    /// forward pass, with the same panic isolation wire requests get. A
    /// checkpoint whose model panics on real input shapes, or whose
    /// weights produce non-finite logits, fails here — *before* a reload
    /// would swap it in.
    ///
    /// # Errors
    /// The [`ServeError`] the probe batch died with.
    pub fn canary(&self) -> Result<(), ServeError> {
        let probe = NodeBatch {
            features: DMat::zeros(1, self.server.feature_dim()),
            incremental: Csr::empty(1, self.server.expected_incremental_cols()),
            interconnect: Csr::empty(1, 1),
            labels: vec![0],
        };
        let mut out = self.server.try_serve_many(&[probe]);
        out.pop().expect("canary fan-out returns one slot").map(|_| ())
    }
}

/// The swap point: holds the current [`EpochServer`] and exchanges it
/// atomically. Readers pay one short mutex hold to clone an `Arc`; the
/// lock is never held across a request, a load, or a canary.
pub struct EpochSlot {
    current: Mutex<Arc<EpochServer>>,
    /// Mirror of the current epoch's `seq`, readable without the lock —
    /// cheap epoch tags on shed/error responses.
    seq: AtomicU64,
}

impl EpochSlot {
    /// Installs `first` as epoch 1 and returns the slot.
    #[must_use]
    pub fn new(mut first: EpochServer) -> Self {
        first.seq = 1;
        Self { current: Mutex::new(Arc::new(first)), seq: AtomicU64::new(1) }
    }

    /// The current epoch. Requests clone this once and serve from the
    /// clone, so a concurrent [`install`](EpochSlot::install) can never
    /// pull the model out from under them.
    #[must_use]
    pub fn load(&self) -> Arc<EpochServer> {
        Arc::clone(&self.current.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// The current epoch's sequence number, lock-free.
    #[must_use]
    pub fn current_seq(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// Swaps `staged` in as the new current epoch, assigning it the next
    /// sequence number. Returns the installed epoch; the retired one is
    /// dropped here unless in-flight requests still hold it, in which case
    /// it frees when the last of them completes.
    pub fn install(&self, mut staged: EpochServer) -> Arc<EpochServer> {
        let mut cur = self.current.lock().unwrap_or_else(PoisonError::into_inner);
        staged.seq = cur.seq + 1;
        let fresh = Arc::new(staged);
        *cur = Arc::clone(&fresh);
        self.seq.store(fresh.seq, Ordering::Release);
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Checkpoint;
    use mcond_gnn::{GnnKind, GnnModel};
    use mcond_graph::Graph;
    use mcond_sparse::Coo;
    use std::sync::Weak;

    fn tiny_checkpoint(seed: u64) -> Checkpoint {
        let mut coo = Coo::new(2, 2);
        coo.push_sym(0, 1, 1.0);
        let graph = Graph::new(
            coo.to_csr(),
            DMat::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]),
            vec![0, 1],
            2,
        );
        let mut map = Coo::new(3, 2);
        map.push(0, 0, 1.0);
        map.push(1, 1, 1.0);
        map.push(2, 1, 1.0);
        let model = GnnModel::new(GnnKind::Gcn, 3, 4, 2, seed);
        Checkpoint::new(graph, map.to_csr(), model).unwrap()
    }

    fn tiny_epoch(seed: u64, id: &str) -> EpochServer {
        EpochServer::new(tiny_checkpoint(seed).into_server(), id)
    }

    #[test]
    fn install_bumps_seq_and_inflight_requests_keep_their_epoch() {
        let slot = EpochSlot::new(tiny_epoch(1, "a"));
        assert_eq!(slot.current_seq(), 1);
        let held = slot.load();
        assert_eq!(held.checkpoint_id(), "a");

        let installed = slot.install(tiny_epoch(2, "b"));
        assert_eq!(installed.seq(), 2);
        assert_eq!(slot.current_seq(), 2);
        // The held epoch still answers — on its own weights.
        assert_eq!(held.seq(), 1);
        held.canary().unwrap();
        assert_eq!(slot.load().checkpoint_id(), "b");
    }

    #[test]
    fn retired_epoch_frees_when_last_holder_drops() {
        let slot = EpochSlot::new(tiny_epoch(1, "a"));
        let held = slot.load();
        let weak: Weak<EpochServer> = Arc::downgrade(&held);
        slot.install(tiny_epoch(2, "b"));
        assert!(weak.upgrade().is_some(), "in-flight holder pins the retired epoch");
        drop(held);
        assert!(
            weak.upgrade().is_none(),
            "retired epoch must free once the last request completes — anything \
             else is the per-reload leak this module exists to kill"
        );
    }

    #[test]
    fn canary_catches_a_model_that_panics_on_real_shapes() {
        // A second weight expecting 5 hidden units where the first layer
        // makes 4: the store decoder would reject it, so the bundle is
        // assembled field by field; it boots (the base prefix stops at
        // X'W₀), passes the cheap request validation and dies inside the
        // forward pass.
        let mut model = GnnModel::new(GnnKind::Gcn, 3, 4, 2, 1);
        model.params_mut()[2] = DMat::zeros(5, 2);
        let bad = Checkpoint { model, ..tiny_checkpoint(1) };
        let epoch = EpochServer::new(bad.into_server(), "bad");
        match epoch.canary() {
            Err(ServeError::Panicked { .. }) => {}
            other => panic!("expected Panicked, got {other:?}"),
        }
    }
}
