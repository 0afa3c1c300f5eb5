//! Checkpoint boot: turn an on-disk [`Checkpoint`](mcond_core::Checkpoint)
//! bundle (written by `mcond-store`) into the [`EpochSlot`] the front end
//! serves from — the deployment path where the serving process never sees
//! the original graph, only the condensed artifact. The slot *owns* its
//! checkpoint: every reload frees the retired epoch once its last
//! in-flight request completes.

use mcond_core::{Checkpoint, EpochServer, EpochSlot};
use mcond_store::StoreError;
use std::path::Path;
use std::sync::Arc;

/// Loads and fully verifies the checkpoint at `path` (every section CRC,
/// then the cross-section shape invariants) and installs it as epoch 1 of
/// a fresh [`EpochSlot`]. Hand the slot to [`crate::spawn`]; swap new
/// checkpoints in later with [`crate::ServeHandle::reload`] or
/// `POST /v1/admin/reload`.
///
/// # Errors
/// Any [`StoreError`] from reading or validating the bundle.
pub fn boot_slot(path: impl AsRef<Path>) -> Result<Arc<EpochSlot>, StoreError> {
    let (ckpt, id) = Checkpoint::load_for_serving(path)?;
    Ok(Arc::new(EpochSlot::new(EpochServer::new(ckpt.into_server(), id))))
}
