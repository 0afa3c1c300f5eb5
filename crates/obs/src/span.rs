//! Hierarchical RAII spans over a thread-local stack.
//!
//! A [`SpanGuard`] pushes its name on creation and pops on drop, emitting a
//! `span_start` event when it opens and a `span` event (with the measured
//! wall-clock duration) when it closes. Nesting is tracked per thread, so
//! concurrent pipelines interleave cleanly in the log — each record carries
//! the thread id, the current trace id, and the slash-joined path of the
//! enclosing spans.
//!
//! Two robustness properties the serving layer relies on:
//!
//! * **Panic healing** — a guard records its stack depth at open and
//!   truncates back to it on drop, so spans leaked below it (a panic caught
//!   by `catch_unwind` between open and close, a guard that never dropped)
//!   cannot corrupt the paths of later spans on the thread.
//! * **Worker attribution** — a [`Prefix`] installed via
//!   [`crate::TraceContext::enter`] splices this thread's spans under the
//!   submitting request's path, so kernel work on pool workers shows up in
//!   the owning request's call tree.

use crate::sink::{emit, enabled, metrics_on, Field, Record};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    /// Path/depth inherited from another thread's span stack (set while a
    /// pool worker drains a batch under an entered trace context).
    static PREFIX: RefCell<Option<Arc<Prefix>>> = const { RefCell::new(None) };
}

/// A frozen snapshot of one thread's span position, spliced under worker
/// threads so their spans attribute to the submitting request.
#[derive(Debug)]
pub(crate) struct Prefix {
    pub(crate) path: String,
    pub(crate) depth: usize,
}

/// Depth of the current thread's span stack (inherited prefix included).
#[must_use]
pub(crate) fn current_depth() -> usize {
    let base = PREFIX.with(|p| p.borrow().as_ref().map_or(0, |p| p.depth));
    base + STACK.with(|s| s.borrow().len())
}

pub(crate) fn current_path() -> String {
    let mut path =
        PREFIX.with(|p| p.borrow().as_ref().map_or_else(String::new, |p| p.path.clone()));
    STACK.with(|s| {
        for name in s.borrow().iter() {
            if !path.is_empty() {
                path.push('/');
            }
            path.push_str(name);
        }
    });
    path
}

/// Swaps the inherited prefix, returning the previous one.
pub(crate) fn set_prefix(p: Option<Arc<Prefix>>) -> Option<Arc<Prefix>> {
    PREFIX.with(|cell| std::mem::replace(&mut *cell.borrow_mut(), p))
}

/// Captures the current position as a prefix for another thread.
pub(crate) fn capture_prefix() -> Option<Arc<Prefix>> {
    let depth = current_depth();
    if depth == 0 {
        return None;
    }
    Some(Arc::new(Prefix { path: current_path(), depth }))
}

/// An active span; closing (dropping) it emits the timing record.
/// Inert — a single branch — when no event sink is active.
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
    fields: Vec<(&'static str, Field)>,
    /// Stack length before this guard pushed; drop truncates back to it.
    depth_at_open: usize,
    /// False for a timing-only guard ([`span_timed`] with metrics on but
    /// no event sink): it measures but never touches the stack.
    on_stack: bool,
    /// Histogram fed with the duration on close ([`span_timed`]).
    hist: Option<&'static str>,
}

/// Opens a span named `name` on this thread's stack.
#[must_use]
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, Vec::new())
}

/// Opens a span carrying structured fields (emitted on both the start and
/// end records).
#[must_use]
pub fn span_with(name: &'static str, fields: Vec<(&'static str, Field)>) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            name,
            start: None,
            fields: Vec::new(),
            depth_at_open: 0,
            on_stack: false,
            hist: None,
        };
    }
    let depth_at_open = STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.push(name);
        s.len() - 1
    });
    // Clock the span before emitting its start record: the emission cost
    // then counts against this span's own time, not the parent's self time
    // (which a `Profile` derives by subtracting child totals).
    let start = Instant::now();
    let path = current_path();
    emit(&Record {
        kind: "span_start",
        name,
        path: Some(&path),
        dur_us: None,
        depth: current_depth() - 1,
        trace: crate::trace::current_trace(),
        fields: &fields,
        payload: None,
    });
    SpanGuard { name, start: Some(start), fields, depth_at_open, on_stack: true, hist: None }
}

/// Opens a span that additionally records its duration into the named
/// histogram on close. Unlike [`span`], this stays live whenever metrics
/// are on — even with no event sink it still times the scope and feeds the
/// histogram (without touching the span stack), which is how the
/// `serve.stage.*` latencies keep flowing in sink-off production serving.
#[must_use]
pub fn span_timed(name: &'static str, hist: &'static str) -> SpanGuard {
    if enabled() {
        let mut g = span_with(name, Vec::new());
        g.hist = Some(hist);
        g
    } else if metrics_on() {
        SpanGuard {
            name,
            start: Some(Instant::now()),
            fields: Vec::new(),
            depth_at_open: 0,
            on_stack: false,
            hist: Some(hist),
        }
    } else {
        SpanGuard { name, start: None, fields: Vec::new(), depth_at_open: 0, on_stack: false, hist: None }
    }
}

impl SpanGuard {
    /// Adds a field to the closing record (e.g. a result computed inside
    /// the span). No-op on an inert guard.
    pub fn record(&mut self, key: &'static str, value: impl Into<Field>) {
        if self.start.is_some() && self.on_stack {
            self.fields.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let dur_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        if let Some(hist) = self.hist {
            #[allow(clippy::cast_precision_loss)]
            crate::metrics::histogram_record(hist, dur_us as f64);
        }
        if !self.on_stack {
            return;
        }
        // Heal any spans leaked below us (a panic caught between our open
        // and close, an inner guard that never dropped) before deriving the
        // close path — later spans on this thread must see a clean stack.
        STACK.with(|s| s.borrow_mut().truncate(self.depth_at_open + 1));
        let path = current_path();
        emit(&Record {
            kind: "span",
            name: self.name,
            path: Some(&path),
            dur_us: Some(dur_us),
            depth: current_depth() - 1,
            trace: crate::trace::current_trace(),
            fields: &self.fields,
            payload: None,
        });
        STACK.with(|s| {
            let popped = s.borrow_mut().pop();
            debug_assert_eq!(popped, Some(self.name), "span stack corrupted");
        });
    }
}
