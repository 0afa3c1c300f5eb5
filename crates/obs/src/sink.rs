//! Event sinks: where trace records go.
//!
//! The sink is process-global and configured once from the environment on
//! first use:
//!
//! * `MCOND_LOG` — `off`/`0`/unset disables everything (the default no-op
//!   sink); `1`/`on`/`stderr` logs to stderr; `pretty`/`jsonl` are shorthand
//!   for stderr with that format; any other value is a file path (JSONL by
//!   default).
//! * `MCOND_LOG_FORMAT` — `pretty` or `jsonl`, overriding the default
//!   format of the chosen destination.
//!
//! When disabled, every probe in the workspace reduces to one relaxed
//! atomic load and a branch — the zero-cost-when-off contract the hot
//! kernels rely on. Tests use [`testing::capture`] to swap in an in-memory
//! JSONL writer without touching the environment.

use crate::json::Json;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Output format of an active sink.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogFormat {
    /// Human-readable, depth-indented lines on one stream.
    Pretty,
    /// One JSON object per line (the machine-readable schema).
    Jsonl,
}

/// A structured field value attached to spans and points.
#[derive(Clone, Debug, PartialEq)]
pub enum Field {
    /// Unsigned integer (counts, sizes).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (losses, rates).
    F64(f64),
    /// Text.
    Str(String),
    /// Flag.
    Bool(bool),
}

impl Field {
    fn to_json(&self) -> Json {
        match self {
            Field::U64(v) => Json::from(*v),
            Field::I64(v) => Json::from(*v),
            Field::F64(v) => Json::from(*v),
            Field::Str(s) => Json::from(s.as_str()),
            Field::Bool(b) => Json::from(*b),
        }
    }

    fn pretty(&self) -> String {
        match self {
            Field::U64(v) => v.to_string(),
            Field::I64(v) => v.to_string(),
            Field::F64(v) => format!("{v:.6}"),
            Field::Str(s) => s.clone(),
            Field::Bool(b) => b.to_string(),
        }
    }
}

macro_rules! field_from {
    ($($t:ty => $variant:ident as $conv:ty),*) => {$(
        impl From<$t> for Field {
            #[allow(clippy::cast_lossless)]
            fn from(v: $t) -> Field {
                Field::$variant(v as $conv)
            }
        }
    )*};
}
field_from!(u64 => U64 as u64, usize => U64 as u64, u32 => U64 as u64,
            i64 => I64 as i64, i32 => I64 as i64,
            f64 => F64 as f64, f32 => F64 as f64);

impl From<bool> for Field {
    fn from(v: bool) -> Field {
        Field::Bool(v)
    }
}

impl From<&str> for Field {
    fn from(v: &str) -> Field {
        Field::Str(v.to_owned())
    }
}

impl From<String> for Field {
    fn from(v: String) -> Field {
        Field::Str(v)
    }
}

/// One trace record, built by the span/point/metrics front-ends.
pub(crate) struct Record<'a> {
    /// Event kind: `span_start`, `span`, `point`, or `metrics`.
    pub kind: &'static str,
    /// Event name (e.g. `condense.outer`).
    pub name: &'a str,
    /// Slash-joined span path including `name` (span events only).
    pub path: Option<&'a str>,
    /// Wall-clock duration in microseconds (`span` events only).
    pub dur_us: Option<u64>,
    /// Span-stack depth at emission (pretty indentation).
    pub depth: usize,
    /// Request-scoped trace id (0 = outside any trace).
    pub trace: u64,
    /// Structured fields.
    pub fields: &'a [(&'a str, Field)],
    /// Metrics snapshot (`metrics` records only).
    pub payload: Option<Json>,
}

struct SinkState {
    format: LogFormat,
    writer: Box<dyn Write + Send>,
}

/// Activation bits, all read through one relaxed load of [`ACTIVE`]: every
/// probe in the workspace stays a single atomic load + branch when the
/// whole substrate is off. `EVENTS` is the only bit that puts spans on the
/// stack: the sink is their one consumer.
pub(crate) const EVENTS: u32 = 1 << 0;
pub(crate) const METRICS_FORCED: u32 = 1 << 1;

static ACTIVE: AtomicU32 = AtomicU32::new(0);
static INIT_DONE: AtomicBool = AtomicBool::new(false);
static SEQ: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

fn sink() -> &'static Mutex<Option<SinkState>> {
    static SINK: OnceLock<Mutex<Option<SinkState>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

fn start_instant() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

fn lock_sink() -> MutexGuard<'static, Option<SinkState>> {
    sink().lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// This thread's stable small integer id (assigned on first use).
#[must_use]
pub fn thread_id() -> u64 {
    TID.with(|t| *t)
}

fn init_from_env() {
    if INIT_DONE.swap(true, Ordering::AcqRel) {
        return;
    }
    let spec = std::env::var("MCOND_LOG").unwrap_or_default();
    let (target, default_format) = match spec.as_str() {
        "" | "0" | "off" | "none" => return,
        "1" | "on" | "stderr" => (None, LogFormat::Pretty),
        "pretty" => (None, LogFormat::Pretty),
        "jsonl" | "json" => (None, LogFormat::Jsonl),
        path => (Some(path.to_owned()), LogFormat::Jsonl),
    };
    let format = match std::env::var("MCOND_LOG_FORMAT").as_deref() {
        Ok("pretty") => LogFormat::Pretty,
        Ok("jsonl" | "json") => LogFormat::Jsonl,
        _ => default_format,
    };
    let writer: Box<dyn Write + Send> = match target {
        None => Box::new(std::io::stderr()),
        Some(path) => match std::fs::File::create(&path) {
            Ok(f) => Box::new(f),
            Err(e) => {
                eprintln!("mcond-obs: cannot open MCOND_LOG={path}: {e}; logging to stderr");
                Box::new(std::io::stderr())
            }
        },
    };
    *lock_sink() = Some(SinkState { format, writer });
    start_instant();
    flag_set(EVENTS, true);
}

/// The current activation bitmask (reads the environment on first use;
/// later calls are one relaxed atomic load).
#[inline]
pub(crate) fn flags() -> u32 {
    if !INIT_DONE.load(Ordering::Acquire) {
        init_from_env();
    }
    ACTIVE.load(Ordering::Relaxed)
}

/// Sets or clears one activation bit.
pub(crate) fn flag_set(bit: u32, on: bool) {
    if on {
        ACTIVE.fetch_or(bit, Ordering::Release);
    } else {
        ACTIVE.fetch_and(!bit, Ordering::Release);
    }
}

/// Whether an event sink is active (env-configured or test-installed).
///
/// The first call reads the environment; later calls are one atomic load.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    flags() & EVENTS != 0
}

/// Whether metric recording (counters/gauges/histograms) is active: true
/// when events are on or after [`enable_metrics`].
#[inline]
#[must_use]
pub fn metrics_on() -> bool {
    flags() & (EVENTS | METRICS_FORCED) != 0
}

/// Turns on metric aggregation without any event sink — used by the bench
/// harness to collect kernel counters into reports while keeping event
/// logging off.
pub fn enable_metrics() {
    flag_set(METRICS_FORCED, true);
}

/// Emits a free-standing point event (a named measurement with fields).
/// No-op when the sink is disabled.
pub fn point(name: &str, fields: &[(&str, Field)]) {
    if !enabled() {
        return;
    }
    emit(&Record {
        kind: "point",
        name,
        path: None,
        dur_us: None,
        depth: crate::span::current_depth(),
        trace: crate::trace::current_trace(),
        fields,
        payload: None,
    });
}

pub(crate) fn emit(record: &Record<'_>) {
    let mut guard = lock_sink();
    let Some(state) = guard.as_mut() else {
        return;
    };
    let line = match state.format {
        LogFormat::Jsonl => jsonl_line(record),
        LogFormat::Pretty => pretty_line(record),
    };
    let _ = writeln!(state.writer, "{line}");
    let _ = state.writer.flush();
}

fn jsonl_line(record: &Record<'_>) -> String {
    let mut obj = Json::obj()
        .with("ev", record.kind)
        .with("name", record.name)
        .with("t_us", elapsed_us())
        .with("seq", SEQ.fetch_add(1, Ordering::Relaxed))
        .with("tid", thread_id());
    if let Some(path) = record.path {
        obj.insert("path", path);
    }
    if let Some(us) = record.dur_us {
        obj.insert("us", us);
    }
    if record.trace != 0 {
        obj.insert("trace", record.trace);
    }
    if !record.fields.is_empty() {
        let mut fields = Json::obj();
        for (k, v) in record.fields {
            fields.insert(k, v.to_json());
        }
        obj.insert("fields", fields);
    }
    if let Some(payload) = &record.payload {
        obj.insert("metrics", payload.clone());
    }
    obj.dump()
}

fn pretty_line(record: &Record<'_>) -> String {
    let indent = "  ".repeat(record.depth);
    let mut line = format!(
        "[{:>10.3}ms t{}] {indent}{} {}",
        elapsed_us() as f64 / 1000.0,
        thread_id(),
        match record.kind {
            "span_start" => ">",
            "span" => "<",
            "metrics" => "#",
            _ => "·",
        },
        record.path.unwrap_or(record.name),
    );
    if let Some(us) = record.dur_us {
        line.push_str(&format!(" ({:.3}ms)", us as f64 / 1000.0));
    }
    if record.trace != 0 {
        line.push_str(&format!(" trace={}", record.trace));
    }
    for (k, v) in record.fields {
        line.push_str(&format!(" {k}={}", v.pretty()));
    }
    if let Some(payload) = &record.payload {
        line.push_str(&format!(" {}", payload.dump()));
    }
    line
}

fn elapsed_us() -> u64 {
    u64::try_from(start_instant().elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Test support: capture events in memory and inspect them as parsed JSONL.
pub mod testing {
    use super::{
        enabled, flag_set, lock_sink, AtomicBool, LogFormat, Mutex, MutexGuard, PoisonError,
        SinkState, Write, EVENTS,
    };
    use crate::json::Json;
    use std::sync::{Arc, OnceLock};

    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap_or_else(PoisonError::into_inner).extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Exclusive capture session: installs a JSONL sink writing to memory.
    /// Concurrent captures serialise on a global mutex; dropping the handle
    /// puts back the sink it replaced (an `MCOND_LOG` destination keeps
    /// receiving records after the capture ends).
    pub struct Capture {
        buf: Arc<Mutex<Vec<u8>>>,
        prev: Option<SinkState>,
        _guard: Option<MutexGuard<'static, ()>>,
    }

    fn capture_lock() -> &'static Mutex<()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
    }

    /// Begins capturing all events as JSONL into an in-memory buffer.
    #[must_use]
    pub fn capture() -> Capture {
        let guard = capture_lock().lock().unwrap_or_else(PoisonError::into_inner);
        install(Some(guard))
    }

    /// Swaps the capture sink in; `guard` is `None` only for a capture
    /// nested inside one that holds the lock.
    fn install(guard: Option<MutexGuard<'static, ()>>) -> Capture {
        // Read the environment first, so an `MCOND_LOG` sink exists to be
        // put back when the capture ends.
        let _ = enabled();
        let buf = Arc::new(Mutex::new(Vec::new()));
        let prev = lock_sink().replace(SinkState {
            format: LogFormat::Jsonl,
            writer: Box::new(SharedBuf(Arc::clone(&buf))),
        });
        flag_set(EVENTS, true);
        Capture { buf, prev, _guard: guard }
    }

    impl Capture {
        /// The raw captured text so far.
        #[must_use]
        pub fn text(&self) -> String {
            let bytes = self.buf.lock().unwrap_or_else(PoisonError::into_inner).clone();
            String::from_utf8_lossy(&bytes).into_owned()
        }

        /// Every captured line parsed as JSON.
        ///
        /// # Panics
        /// Panics when a captured line is not valid JSON — the schema
        /// guarantee the golden tests assert.
        #[must_use]
        pub fn parsed_lines(&self) -> Vec<Json> {
            self.text()
                .lines()
                .filter(|l| !l.is_empty())
                .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad JSONL line {l:?}: {e}")))
                .collect()
        }

        /// Discards everything captured so far.
        pub fn clear(&self) {
            self.buf.lock().unwrap_or_else(PoisonError::into_inner).clear();
        }
    }

    impl Drop for Capture {
        fn drop(&mut self) {
            let prev = self.prev.take();
            flag_set(EVENTS, prev.is_some());
            *lock_sink() = prev;
        }
    }

    /// Compile-time check that the sink state stays Send (the writer moves
    /// across the global mutex).
    const _: fn() = || {
        fn assert_send<T: Send>() {}
        assert_send::<SinkState>();
        assert_send::<AtomicBool>();
    };

    #[cfg(test)]
    mod tests {
        use super::{capture, install};

        #[test]
        fn a_dropped_capture_puts_back_the_sink_it_replaced() {
            let first = capture();
            drop(install(None));
            drop(crate::span("after_nested_capture"));
            assert!(
                first.text().contains("\"after_nested_capture\""),
                "a span opened after the nested capture ended missed the sink it replaced"
            );
        }
    }
}
