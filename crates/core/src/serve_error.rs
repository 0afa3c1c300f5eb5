//! The serving layer's error taxonomy.
//!
//! Every way a request can fail at the [`InductiveServer`] boundary is a
//! [`ServeError`] variant — a malformed request is rejected with a typed
//! error, never a panic, and an *internal* panic (a server misconfiguration
//! surfacing inside a kernel) is isolated per request by
//! [`try_serve_many`](crate::InductiveServer::try_serve_many) and reported
//! as [`ServeError::Panicked`]. See `DESIGN.md` §4f.

use mcond_graph::BatchError;
use std::fmt;

/// Why a serve request was not answered with logits.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// The request failed [`NodeBatch::validate_against`]
    /// (`mcond_graph::NodeBatch::validate_against`): a dimension mismatch
    /// against the base/mapping, an inconsistent shape, or non-finite
    /// input values.
    InvalidBatch(BatchError),
    /// The batch exceeds the server's configured size cap
    /// ([`InductiveServer::with_max_batch`](crate::InductiveServer::with_max_batch)).
    BatchTooLarge {
        /// Nodes in the rejected batch.
        len: usize,
        /// The configured cap.
        max: usize,
    },
    /// Under [`FallbackPolicy::Reject`](crate::FallbackPolicy::Reject): an
    /// inductive node's attachment row (`a` or `aM`) is empty or its
    /// mapping coverage fell below the configured threshold.
    NoAttachment {
        /// Batch-local index of the first offending node.
        node: usize,
        /// Its mapping coverage (fraction of incremental mass surviving
        /// the sparsified `M`; 0 for an empty row).
        coverage: f32,
    },
    /// [`FallbackPolicy::OriginalGraph`](crate::FallbackPolicy::OriginalGraph)
    /// was triggered but no original graph was attached via
    /// [`InductiveServer::with_original_graph`](crate::InductiveServer::with_original_graph).
    FallbackUnavailable {
        /// Batch-local index of the first node needing the fallback.
        node: usize,
    },
    /// The forward pass produced a non-finite logit (degenerate model
    /// weights, e.g. after a diverged training run): the response is
    /// withheld rather than serving garbage.
    NonFiniteLogits,
    /// A panic escaped the serving internals and was caught at the request
    /// boundary; sibling requests in the same
    /// [`try_serve_many`](crate::InductiveServer::try_serve_many) call are
    /// unaffected.
    Panicked {
        /// The panic payload's message, when it carried one.
        context: String,
    },
    /// The request's deadline budget expired while it waited in a serving
    /// queue; it was answered without occupying a batch slot so live
    /// requests behind it are not delayed by work nobody is waiting for.
    DeadlineExceeded {
        /// How long the request had waited when the budget was checked.
        waited_ms: u64,
        /// The budget the caller (or the front end's default) granted.
        budget_ms: u64,
    },
    /// The serving runtime abandoned the request without computing logits —
    /// the batcher watchdog respawned a stalled worker and failed its
    /// orphaned queue entries, or the server shut down with the request
    /// still queued. The request may be retried against a healthy server.
    Aborted {
        /// What the runtime was doing when it gave the request up.
        reason: &'static str,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidBatch(e) => write!(f, "invalid batch: {e}"),
            ServeError::BatchTooLarge { len, max } => {
                write!(f, "batch of {len} nodes exceeds the server cap of {max}")
            }
            ServeError::NoAttachment { node, coverage } => write!(
                f,
                "node {node} has no usable attachment (mapping coverage \
                 {coverage:.3}) and the fallback policy is Reject"
            ),
            ServeError::FallbackUnavailable { node } => write!(
                f,
                "node {node} needs the original-graph fallback but no original \
                 graph is attached to this server"
            ),
            ServeError::NonFiniteLogits => {
                write!(f, "forward pass produced non-finite logits; response withheld")
            }
            ServeError::Panicked { context } => {
                write!(f, "request panicked inside the server: {context}")
            }
            ServeError::DeadlineExceeded { waited_ms, budget_ms } => write!(
                f,
                "request deadline of {budget_ms} ms expired after {waited_ms} ms \
                 in the serving queue"
            ),
            ServeError::Aborted { reason } => {
                write!(f, "request abandoned by the serving runtime: {reason}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::InvalidBatch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BatchError> for ServeError {
    fn from(e: BatchError) -> Self {
        ServeError::InvalidBatch(e)
    }
}

/// Extracts a human-readable message from a caught panic payload.
pub(crate) fn panic_context(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure_and_chains_the_source() {
        let e = ServeError::from(BatchError::IncrementalWidth { got: 3, expected: 7 });
        assert!(e.to_string().contains("different base graph"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&ServeError::NonFiniteLogits).is_none());
    }

    #[test]
    fn panic_context_handles_all_payload_kinds() {
        let s: Box<dyn std::any::Any + Send> = Box::new("static msg");
        assert_eq!(panic_context(s.as_ref()), "static msg");
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("owned msg"));
        assert_eq!(panic_context(s.as_ref()), "owned msg");
        let s: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_context(s.as_ref()), "non-string panic payload");
    }
}
