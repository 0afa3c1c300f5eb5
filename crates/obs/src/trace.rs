//! Request-scoped trace ids and cross-thread trace context.
//!
//! [`begin_trace`] stamps the current thread with a fresh process-unique
//! trace id; every span/point record emitted while the guard lives carries
//! it (the `"trace"` key in JSONL, `trace=N` in pretty output). The serving
//! layer assigns one id per request, so a JSONL log slices cleanly into
//! per-request timelines.
//!
//! [`capture_context`] freezes the current id *and* span position into a
//! [`TraceContext`]; a pool worker that [`TraceContext::enter`]s it has its
//! spans attributed to the owning request's call tree (path prefix + trace
//! id) instead of an orphan root path. The guard restores the worker's own
//! state on drop, so contexts nest and interleave safely.
//!
//! Everything here is inert — id 0, no thread-local writes beyond one read
//! — when no event sink is active.

use crate::span::{self, Prefix};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// The trace id stamped on records emitted by this thread right now
/// (0 = outside any trace).
#[must_use]
pub fn current_trace() -> u64 {
    CURRENT.with(Cell::get)
}

/// RAII scope of one trace id; restores the previous id on drop.
pub struct TraceGuard {
    id: u64,
    prev: u64,
    installed: bool,
}

impl TraceGuard {
    /// The id carried by records inside this scope (0 on an inert guard).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if self.installed {
            CURRENT.with(|c| c.set(self.prev));
        }
    }
}

/// Starts a fresh trace scope with a new process-unique id (monotonically
/// increasing from 1). Inert when no event sink is active.
#[must_use]
pub fn begin_trace() -> TraceGuard {
    if !crate::sink::enabled() {
        return TraceGuard { id: 0, prev: 0, installed: false };
    }
    let id = NEXT_TRACE.fetch_add(1, Ordering::Relaxed);
    let prev = CURRENT.with(|c| c.replace(id));
    TraceGuard { id, prev, installed: true }
}

/// Like [`begin_trace`], but keeps an already-active trace: when the thread
/// is inside a trace the guard is inert and reports the enclosing id.
/// `InductiveServer::try_serve` calls this so direct calls get their own
/// trace while `try_serve_many` keeps the per-request ids it assigned.
#[must_use]
pub fn ensure_trace() -> TraceGuard {
    let current = current_trace();
    if current != 0 {
        return TraceGuard { id: current, prev: current, installed: false };
    }
    begin_trace()
}

/// A frozen (trace id, span position) pair — cheap to clone, `Send`, the
/// unit of cross-thread trace propagation. The pool captures one per batch
/// submission and enters it on every worker that drains the batch.
#[derive(Clone, Default)]
pub struct TraceContext {
    trace: u64,
    prefix: Option<Arc<Prefix>>,
}

/// Captures the calling thread's trace id and span path for propagation
/// into pool workers. Empty (one atomic load) when tracing is off.
#[must_use]
pub fn capture_context() -> TraceContext {
    if !crate::sink::enabled() {
        return TraceContext::default();
    }
    TraceContext { trace: current_trace(), prefix: span::capture_prefix() }
}

impl TraceContext {
    /// Installs this context on the current thread until the guard drops:
    /// spans opened meanwhile extend the captured path and carry the
    /// captured trace id.
    #[must_use]
    pub fn enter(&self) -> ContextGuard {
        let prev_trace = CURRENT.with(|c| c.replace(self.trace));
        let prev_prefix = span::set_prefix(self.prefix.clone());
        ContextGuard { prev_trace, prev_prefix }
    }
}

/// Restores the thread's own trace id and span prefix on drop.
pub struct ContextGuard {
    prev_trace: u64,
    prev_prefix: Option<Arc<Prefix>>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev_trace));
        let _ = span::set_prefix(self.prev_prefix.take());
    }
}
