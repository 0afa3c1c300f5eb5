//! Checkpoint hot-reload: validated load → canary → atomic swap.
//!
//! The reload pipeline runs entirely **off the serving path** — on the
//! admin handler thread or the library caller's thread, never the
//! batcher. Its stages, in order, each of which leaves the old epoch
//! serving untouched on failure:
//!
//! 1. **Validated load** — [`Checkpoint::load_for_serving`] CRC-checks
//!    every section of the MCST bundle up front, then decodes and
//!    re-validates the cross-section shape invariants. Any [`StoreError`]
//!    aborts here.
//! 2. **Canary** — the staged epoch serves one synthetic probe batch
//!    through the full forward pass ([`EpochServer::canary`]); a model
//!    that panics on real shapes or emits non-finite logits is rejected
//!    before it can answer traffic.
//! 3. **Swap** — [`EpochSlot::install`]: one pointer exchange. In-flight
//!    batches finish on their epoch; the retired epoch frees when its
//!    last request completes.
//!
//! Failures count (`serve.reload.failed`) and arm an exponential backoff
//! (`reload_backoff · 2^(n-1)`, capped): a crash-looping deployment that
//! hammers reload with the same corrupt bundle gets `429`s instead of
//! burning CPU re-parsing it. One success resets the backoff. Concurrent
//! reload attempts are serialized — the loser observes
//! [`ReloadError::InProgress`] immediately rather than queueing.

use crate::front::ServeConfig;
use mcond_core::{Checkpoint, EpochServer, EpochSlot, ServeError};
use mcond_store::StoreError;
use std::fmt;
use std::path::Path;
use std::sync::{Arc, Mutex, TryLockError};
use std::time::{Duration, Instant};

/// Why a reload did not swap. Every variant leaves the previous epoch
/// serving, bitwise untouched.
#[derive(Debug)]
pub enum ReloadError {
    /// Another reload is mid-pipeline; retry after it settles.
    InProgress,
    /// Recent reloads failed and the exponential backoff has not elapsed.
    Backoff {
        /// How long until the next attempt will be admitted.
        retry_after: Duration,
    },
    /// The bundle failed CRC verification, decoding, or shape validation.
    Store(StoreError),
    /// The bundle loaded but its canary self-check batch failed.
    Canary(ServeError),
}

impl fmt::Display for ReloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReloadError::InProgress => write!(f, "another reload is in progress"),
            ReloadError::Backoff { retry_after } => write!(
                f,
                "reloads are backing off after repeated failures; retry in {:.1}s",
                retry_after.as_secs_f64()
            ),
            ReloadError::Store(e) => write!(f, "checkpoint rejected: {e}"),
            ReloadError::Canary(e) => write!(f, "canary self-check failed: {e}"),
        }
    }
}

impl std::error::Error for ReloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReloadError::Store(e) => Some(e),
            ReloadError::Canary(e) => Some(e),
            _ => None,
        }
    }
}

/// What a successful reload installed.
#[derive(Debug, Clone)]
pub struct ReloadOutcome {
    /// The new epoch's sequence number (now stamped on responses).
    pub epoch: u64,
    /// The installed checkpoint's content id.
    pub checkpoint_id: String,
}

struct Gate {
    consecutive_failures: u32,
    not_before: Option<Instant>,
}

/// Serializes reload attempts and carries the failure-backoff state.
pub(crate) struct ReloadControl {
    gate: Mutex<Gate>,
}

impl ReloadControl {
    pub(crate) fn new() -> Self {
        Self { gate: Mutex::new(Gate { consecutive_failures: 0, not_before: None }) }
    }
}

/// Computes the backoff armed after the `failures`-th consecutive
/// failure: `base · 2^(failures-1)`, capped.
fn backoff_after(failures: u32, cfg: &ServeConfig) -> Duration {
    let exp = failures.saturating_sub(1).min(16);
    cfg.reload_backoff.saturating_mul(1u32 << exp).min(cfg.reload_backoff_cap)
}

/// The full reload pipeline. See the module docs for the stage contract.
pub(crate) fn attempt(
    slot: &Arc<EpochSlot>,
    control: &ReloadControl,
    cfg: &ServeConfig,
    path: &Path,
) -> Result<ReloadOutcome, ReloadError> {
    let mut gate = match control.gate.try_lock() {
        Ok(g) => g,
        Err(TryLockError::WouldBlock) => {
            mcond_obs::counter_add("serve.reload.rejected_busy", 1);
            return Err(ReloadError::InProgress);
        }
        Err(TryLockError::Poisoned(p)) => p.into_inner(),
    };
    if let Some(not_before) = gate.not_before {
        let now = Instant::now();
        if now < not_before {
            mcond_obs::counter_add("serve.reload.rejected_backoff", 1);
            return Err(ReloadError::Backoff { retry_after: not_before - now });
        }
    }

    let start = Instant::now();
    let staged = match Checkpoint::load_for_serving(path) {
        Ok((ckpt, id)) => EpochServer::new(ckpt.into_server(), id),
        Err(e) => {
            record_failure(&mut gate, cfg);
            return Err(ReloadError::Store(e));
        }
    };
    if let Err(e) = staged.canary() {
        record_failure(&mut gate, cfg);
        return Err(ReloadError::Canary(e));
    }

    let installed = slot.install(staged);
    gate.consecutive_failures = 0;
    gate.not_before = None;
    mcond_obs::counter_add("serve.reload.ok", 1);
    #[allow(clippy::cast_precision_loss)]
    mcond_obs::gauge_set("serve.reload.epoch", installed.seq() as f64);
    mcond_obs::histogram_record("serve.reload.ms", start.elapsed().as_secs_f64() * 1e3);
    Ok(ReloadOutcome {
        epoch: installed.seq(),
        checkpoint_id: installed.checkpoint_id().to_owned(),
    })
}

fn record_failure(gate: &mut Gate, cfg: &ServeConfig) {
    gate.consecutive_failures = gate.consecutive_failures.saturating_add(1);
    let backoff = backoff_after(gate.consecutive_failures, cfg);
    gate.not_before = Some(Instant::now() + backoff);
    mcond_obs::counter_add("serve.reload.failed", 1);
}

/// Poison-tolerant gate read, for tests.
#[cfg(test)]
fn gate_state(control: &ReloadControl) -> (u32, Option<Instant>) {
    let g = control.gate.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    (g.consecutive_failures, g.not_before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_per_failure_and_caps() {
        let cfg = ServeConfig {
            reload_backoff: Duration::from_millis(100),
            reload_backoff_cap: Duration::from_secs(1),
            ..ServeConfig::default()
        };
        assert_eq!(backoff_after(1, &cfg), Duration::from_millis(100));
        assert_eq!(backoff_after(2, &cfg), Duration::from_millis(200));
        assert_eq!(backoff_after(3, &cfg), Duration::from_millis(400));
        assert_eq!(backoff_after(4, &cfg), Duration::from_millis(800));
        assert_eq!(backoff_after(5, &cfg), Duration::from_secs(1), "capped");
        assert_eq!(backoff_after(60, &cfg), Duration::from_secs(1), "shift never overflows");
    }

    #[test]
    fn failed_attempt_arms_backoff_and_success_resets_it() {
        use mcond_core::{Checkpoint, EpochServer, EpochSlot};
        use mcond_gnn::{GnnKind, GnnModel};
        use mcond_graph::Graph;
        use mcond_linalg::DMat;
        use mcond_sparse::Coo;

        let make_ckpt = || {
            let mut coo = Coo::new(2, 2);
            coo.push_sym(0, 1, 1.0);
            let graph = Graph::new(
                coo.to_csr(),
                DMat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]),
                vec![0, 1],
                2,
            );
            let mut map = Coo::new(3, 2);
            map.push(0, 0, 1.0);
            map.push(1, 1, 1.0);
            map.push(2, 1, 1.0);
            Checkpoint::new(graph, map.to_csr(), GnnModel::new(GnnKind::Gcn, 2, 4, 2, 9))
                .unwrap()
        };
        let slot =
            Arc::new(EpochSlot::new(EpochServer::new(make_ckpt().into_server(), "boot")));
        let control = ReloadControl::new();
        let cfg = ServeConfig {
            reload_backoff: Duration::from_secs(60),
            ..ServeConfig::default()
        };

        // Missing file: typed Store error, backoff armed.
        let missing = std::env::temp_dir().join("mcond_reload_gate_missing.mcst");
        let _ = std::fs::remove_file(&missing);
        match attempt(&slot, &control, &cfg, &missing) {
            Err(ReloadError::Store(_)) => {}
            other => panic!("expected Store error, got {:?}", other.map(|o| o.epoch)),
        }
        let (fails, armed) = gate_state(&control);
        assert_eq!(fails, 1);
        assert!(armed.is_some());
        assert_eq!(slot.current_seq(), 1, "old epoch untouched");

        // While armed, attempts answer Backoff without touching the disk.
        match attempt(&slot, &control, &cfg, &missing) {
            Err(ReloadError::Backoff { retry_after }) => {
                assert!(retry_after <= Duration::from_secs(60));
            }
            other => panic!("expected Backoff, got {:?}", other.map(|o| o.epoch)),
        }

        // A valid bundle after the backoff expires resets the gate.
        let good = std::env::temp_dir().join("mcond_reload_gate_good.mcst");
        make_ckpt().save(&good).unwrap();
        {
            let mut g = control.gate.lock().unwrap();
            g.not_before = Some(Instant::now() - Duration::from_millis(1));
        }
        let outcome = attempt(&slot, &control, &cfg, &good).expect("valid reload swaps");
        std::fs::remove_file(&good).ok();
        assert_eq!(outcome.epoch, 2);
        assert_eq!(slot.current_seq(), 2);
        let (fails, armed) = gate_state(&control);
        assert_eq!(fails, 0, "success resets the failure count");
        assert!(armed.is_none(), "success disarms the backoff");
    }
}
