//! Deterministic data-parallel execution for the `mcond` workspace.
//!
//! A lazily-initialised, persistent worker pool (std only — no external
//! crates, keeping the workspace hermetic) behind a handful of structured
//! primitives:
//!
//! * [`parallel_for_chunks`] — split `0..len` into contiguous chunks and
//!   run a shared closure over them on the pool;
//! * [`parallel_row_chunks`] / [`parallel_row_ranges`] — hand each task a
//!   **disjoint `&mut` window** of a row-major output buffer, the pattern
//!   every kernel in `mcond-linalg`/`mcond-sparse` uses.
//!
//! # Determinism contract
//!
//! Callers partition the *output*: every output element is produced by
//! exactly one task, with the same floating-point operations in the same
//! order as the serial path. There are no float atomics and no
//! reduction-order drift, so results are **bit-for-bit identical** for any
//! thread count — `MCOND_THREADS=1` and `MCOND_THREADS=64` agree exactly.
//! Chunk boundaries affect scheduling only, never values.
//!
//! # Configuration
//!
//! * `MCOND_THREADS` — total participants (the submitting thread counts as
//!   one). Unset or `0` means [`std::thread::available_parallelism`]; `1`
//!   forces the serial path (no workers are ever spawned, useful for
//!   debugging). Read once per process.
//! * [`with_thread_limit`] — a thread-local override for tests and benches
//!   that must compare thread counts inside one process.
//!
//! Nested parallelism degrades gracefully: a parallel region entered from
//! inside a pool task runs serially inline on the calling thread (no
//! deadlock, no queue churn), which is exactly what a fan-out like
//! `InductiveServer::serve_many` wants — outer requests parallel, inner
//! kernels serial per worker.
//!
//! # Panic isolation
//!
//! A panic inside one task does not tear down the pool and does not stop
//! its siblings: every task runs behind `catch_unwind`, the remaining
//! tasks of the submission run to completion (their writes land), the
//! workers survive, and the *first* captured payload is re-raised on the
//! submitting thread only after the whole submission has settled. Callers
//! that want per-task error values instead of a re-raised panic wrap their
//! task body in `catch_unwind` themselves — since nested regions run
//! serially inline, such a wrapper catches everything the task does and
//! the pool never observes the panic at all. That is how
//! `InductiveServer::try_serve_many` turns a panicking request into
//! `Err(ServeError::Panicked)` while sibling requests complete normally.
//!
//! # Observability
//!
//! Each parallel submission bumps the `par.pool.tasks` counter by its task
//! count and each spawned worker bumps `par.pool.threads` once; both go
//! through `mcond_obs::counter_add`, which is a single relaxed atomic load
//! when observability is disabled.

mod pool;

pub use pool::{
    max_threads, parallel_for_chunks, parallel_row_chunks, parallel_row_ranges,
    parallel_row_ranges_ordered, with_thread_limit,
};
