//! The persistent worker pool and the chunked-execution primitives.
//!
//! One process-global pool, created on the first parallel submission.
//! Workers are spawned on demand up to `requested_threads - 1` (the
//! submitting thread always participates, so `MCOND_THREADS=4` means three
//! workers plus the caller) and then parked on a condvar between batches.
//!
//! A *batch* is one submission: a shared `Fn(Range<usize>)` body plus a
//! list of disjoint ranges. Tasks are claimed with a relaxed atomic
//! fetch-add (cheap work stealing); completion is a counter plus condvar.
//! The submitting thread pushes the batch, helps drain it, then blocks
//! until the last straggler finishes — which is also what makes the
//! lifetime erasure below sound: the closure cannot be dropped while any
//! worker can still reach it.

use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Hard cap on pool participants; `MCOND_THREADS` and
/// [`with_thread_limit`] both clamp to it.
const MAX_THREADS: usize = 256;

/// Scheduling granularity: aim for this many chunks per participant so the
/// fetch-add work stealing can rebalance uneven chunks.
const CHUNKS_PER_THREAD: usize = 4;

/// The type-erased task body shared by every task of a batch.
type Body = dyn Fn(Range<usize>) + Sync;

/// One submission: a shared body plus the ranges to run it over.
struct Batch {
    /// Lifetime-erased pointer to the caller's closure.
    ///
    /// SAFETY contract: [`run_batch`] does not return until `completed`
    /// reaches `ranges.len()`, and every dereference happens before the
    /// completion increment that accounts for it, so the pointee outlives
    /// all uses.
    body: *const Body,
    ranges: Vec<Range<usize>>,
    /// Submitter's trace id + span path, entered by workers while they
    /// drain this batch so their spans attribute to the owning request.
    ctx: mcond_obs::TraceContext,
    /// Next unclaimed task index.
    next: AtomicUsize,
    /// Finished task count; the task that completes the batch flips `done`.
    completed: AtomicUsize,
    /// First panic payload observed while running tasks.
    panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: `body` is only dereferenced while the submitting thread blocks in
// `run_batch`, which keeps the pointee alive and shared (`Sync`) for the
// whole window. All other fields are Send + Sync.
unsafe impl Send for Batch {}
unsafe impl Sync for Batch {}

impl Batch {
    /// `true` once every task index has been claimed.
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.ranges.len()
    }

    /// Claims and runs tasks until none remain.
    fn drain(&self) {
        loop {
            let idx = self.next.fetch_add(1, Ordering::Relaxed);
            if idx >= self.ranges.len() {
                return;
            }
            let range = self.ranges[idx].clone();
            // SAFETY: see the `body` field contract — the submitter is
            // blocked until we bump `completed` below, so the closure is
            // alive here.
            let body = unsafe { &*self.body };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(range))) {
                let mut slot = lock(&self.panic_payload);
                slot.get_or_insert(payload);
            }
            if self.completed.fetch_add(1, Ordering::AcqRel) + 1 == self.ranges.len() {
                *lock(&self.done) = true;
                self.done_cv.notify_all();
            }
        }
    }
}

struct Pool {
    /// Batches with unclaimed tasks. Usually empty or one entry; concurrent
    /// submitters (e.g. parallel test binaries) may stack several.
    queue: Mutex<Vec<Arc<Batch>>>,
    work_cv: Condvar,
    /// Workers spawned so far (grows on demand, never shrinks).
    spawned: Mutex<usize>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// `MCOND_THREADS` parsed once per process (0/unset → available
/// parallelism).
static ENV_THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// Set for pool workers (permanently) and for any thread while it
    /// drains a batch: parallel primitives called under it run serially.
    static IN_PARALLEL_REGION: Cell<bool> = const { Cell::new(false) };
    /// [`with_thread_limit`] override.
    static THREAD_LIMIT: Cell<Option<usize>> = const { Cell::new(None) };
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn env_threads() -> usize {
    *ENV_THREADS.get_or_init(|| {
        let configured = std::env::var("MCOND_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(0);
        let n = if configured == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            configured
        };
        n.clamp(1, MAX_THREADS)
    })
}

/// The number of participants (including the calling thread) a parallel
/// region entered *right now, on this thread* would use.
///
/// Inside a pool task this is always 1: nested regions run serially.
#[must_use]
pub fn max_threads() -> usize {
    if IN_PARALLEL_REGION.with(Cell::get) {
        return 1;
    }
    THREAD_LIMIT
        .with(Cell::get)
        .map_or_else(env_threads, |n| n.clamp(1, MAX_THREADS))
}

/// Runs `f` with the calling thread's parallelism capped at `threads`
/// (1 forces the serial path). Restores the previous limit afterwards,
/// also on panic.
///
/// This exists so determinism tests and benches can compare thread counts
/// within one process without racing on the `MCOND_THREADS` environment
/// variable.
pub fn with_thread_limit<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_LIMIT.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREAD_LIMIT.with(|c| c.replace(Some(threads.max(1)))));
    f()
}

/// Marks the current thread as inside a parallel region for the duration
/// of the returned guard.
fn enter_region() -> impl Drop {
    struct Leave(bool);
    impl Drop for Leave {
        fn drop(&mut self) {
            IN_PARALLEL_REGION.with(|c| c.set(self.0));
        }
    }
    Leave(IN_PARALLEL_REGION.with(|c| c.replace(true)))
}

fn worker_loop() {
    // Workers never start nested parallel regions.
    IN_PARALLEL_REGION.with(|c| c.set(true));
    let pool = POOL.get().expect("worker spawned before pool init");
    loop {
        let batch = {
            let mut queue = lock(&pool.queue);
            loop {
                queue.retain(|b| !b.exhausted());
                if let Some(b) = queue.first() {
                    break Arc::clone(b);
                }
                queue = pool
                    .work_cv
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // Attribute everything this batch does to the submitting request
        // (no-op context when tracing was off at submission).
        let _ctx = batch.ctx.enter();
        batch.drain();
    }
}

/// Returns the pool, spawning workers until `participants - 1` exist.
fn pool_for(participants: usize) -> &'static Pool {
    let pool = POOL.get_or_init(|| Pool {
        queue: Mutex::new(Vec::new()),
        work_cv: Condvar::new(),
        spawned: Mutex::new(0),
    });
    let wanted = participants.saturating_sub(1);
    let mut spawned = lock(&pool.spawned);
    while *spawned < wanted {
        let name = format!("mcond-par-{}", *spawned);
        match std::thread::Builder::new().name(name).spawn(worker_loop) {
            Ok(_) => {
                *spawned += 1;
                mcond_obs::counter_add("par.pool.threads", 1);
            }
            // Out of threads: run with what we have (possibly serial).
            Err(_) => break,
        }
    }
    pool
}

/// Submits `ranges` over `body` and blocks until every task has finished.
/// The caller participates in draining its own batch, so completion never
/// depends on worker availability.
fn run_batch(ranges: Vec<Range<usize>>, participants: usize, body: &(dyn Fn(Range<usize>) + Sync)) {
    debug_assert!(!ranges.is_empty());
    mcond_obs::counter_add("par.pool.tasks", ranges.len() as u64);
    // SAFETY: we erase the closure's lifetime but do not return before
    // `done` is signalled, i.e. before the last dereference has completed.
    let body_erased: *const Body = unsafe { std::mem::transmute(body) };
    let batch = Arc::new(Batch {
        body: body_erased,
        ranges,
        // The submitting thread keeps its own stack; only workers enter.
        ctx: mcond_obs::capture_context(),
        next: AtomicUsize::new(0),
        completed: AtomicUsize::new(0),
        panic_payload: Mutex::new(None),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
    });
    let pool = pool_for(participants);
    {
        let mut queue = lock(&pool.queue);
        queue.push(Arc::clone(&batch));
        pool.work_cv.notify_all();
    }
    {
        let _region = enter_region();
        batch.drain();
    }
    let mut done = lock(&batch.done);
    while !*done {
        done = batch
            .done_cv
            .wait(done)
            .unwrap_or_else(PoisonError::into_inner);
    }
    drop(done);
    // Drop our queue entry eagerly (workers also prune exhausted batches).
    lock(&pool.queue).retain(|b| !Arc::ptr_eq(b, &batch));
    let payload = lock(&batch.panic_payload).take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Splits `0..len` into contiguous chunks of at least `min_chunk` items,
/// aiming for a few chunks per participant. Always returns at least one
/// range for `len > 0`, in ascending order, tiling `0..len` exactly.
#[must_use]
fn chunk_ranges(len: usize, min_chunk: usize, participants: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let target = participants.max(1) * CHUNKS_PER_THREAD;
    let chunk = len.div_ceil(target).max(min_chunk.max(1));
    (0..len)
        .step_by(chunk)
        .map(|lo| lo..(lo + chunk).min(len))
        .collect()
}

/// Runs `f` over contiguous chunks of `0..len` (each at least `min_chunk`
/// long), in parallel when profitable.
///
/// The serial path (`MCOND_THREADS=1`, nested regions, or a single chunk)
/// calls `f(0..len)` once; chunk boundaries never influence what `f`
/// computes, only how the iteration space is scheduled.
///
/// # Panics
/// Re-raises the first panic observed in any chunk after all chunks have
/// settled.
pub fn parallel_for_chunks<F>(len: usize, min_chunk: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if len == 0 {
        return;
    }
    let threads = max_threads();
    if threads <= 1 || len <= min_chunk.max(1) {
        f(0..len);
        return;
    }
    let ranges = chunk_ranges(len, min_chunk, threads);
    if ranges.len() <= 1 {
        f(0..len);
        return;
    }
    run_batch(ranges, threads, &f);
}

/// Splits the row-major buffer `data` (rows of `row_len` values) into
/// contiguous row chunks of at least `min_rows` rows and calls
/// `f(row_range, chunk)` for each — every invocation owns a **disjoint
/// `&mut` window** of the buffer, which is what makes the parallel kernels
/// race-free without atomics.
///
/// # Panics
/// Panics when `data.len()` is not a multiple of `row_len`; re-raises task
/// panics like [`parallel_for_chunks`].
pub fn parallel_row_chunks<F>(data: &mut [f32], row_len: usize, min_rows: usize, f: F)
where
    F: Fn(Range<usize>, &mut [f32]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(
        row_len > 0 && data.len().is_multiple_of(row_len),
        "parallel_row_chunks: buffer of {} is not rows of {row_len}",
        data.len()
    );
    let rows = data.len() / row_len;
    let ranges = chunk_ranges(rows, min_rows, max_threads());
    parallel_row_ranges(data, row_len, &ranges, f);
}

/// [`parallel_row_chunks`] with caller-chosen row ranges; the ranges must
/// tile `0..rows` in ascending order.
///
/// # Panics
/// Panics when the ranges do not tile the buffer exactly; re-raises task
/// panics like [`parallel_for_chunks`].
pub fn parallel_row_ranges<F>(data: &mut [f32], row_len: usize, ranges: &[Range<usize>], f: F)
where
    F: Fn(Range<usize>, &mut [f32]) + Sync,
{
    row_ranges_impl(data, row_len, ranges, None, f);
}

/// [`parallel_row_ranges`] with a caller-chosen **claim order**: `order[k]`
/// is the index (into `ranges`) of the k-th window handed out. The sparse
/// kernels use this to start the heaviest nnz ranges first so a straggler
/// chunk never runs alone at the tail of the batch.
///
/// The order is purely a scheduling hint — every window is still a disjoint
/// `&mut` stripe and each output element is produced by exactly one `f`
/// invocation, so results are identical for every permutation (and on the
/// serial path, which ignores the order and runs ascending).
///
/// # Panics
/// Panics when `order` is not a permutation of `0..ranges.len()`, when the
/// ranges do not tile the buffer exactly; re-raises task panics like
/// [`parallel_for_chunks`].
pub fn parallel_row_ranges_ordered<F>(
    data: &mut [f32],
    row_len: usize,
    ranges: &[Range<usize>],
    order: &[usize],
    f: F,
) where
    F: Fn(Range<usize>, &mut [f32]) + Sync,
{
    assert_eq!(order.len(), ranges.len(), "parallel_row_ranges_ordered: order length");
    let mut seen = vec![false; ranges.len()];
    for &idx in order {
        assert!(
            idx < ranges.len() && !std::mem::replace(&mut seen[idx], true),
            "parallel_row_ranges_ordered: order is not a permutation (index {idx})"
        );
    }
    row_ranges_impl(data, row_len, ranges, Some(order), f);
}

fn row_ranges_impl<F>(
    data: &mut [f32],
    row_len: usize,
    ranges: &[Range<usize>],
    order: Option<&[usize]>,
    f: F,
) where
    F: Fn(Range<usize>, &mut [f32]) + Sync,
{
    if ranges.is_empty() {
        assert!(data.is_empty(), "parallel_row_ranges: ranges do not tile the buffer");
        return;
    }
    assert!(
        row_len > 0 && data.len().is_multiple_of(row_len),
        "parallel_row_ranges: buffer of {} is not rows of {row_len}",
        data.len()
    );
    let threads = max_threads();
    if threads <= 1 || ranges.len() <= 1 {
        let mut remaining = data;
        let mut expected = 0;
        for r in ranges {
            assert_eq!(r.start, expected, "parallel_row_ranges: ranges must tile in order");
            expected = r.end;
            let (head, tail) = std::mem::take(&mut remaining).split_at_mut((r.end - r.start) * row_len);
            f(r.clone(), head);
            remaining = tail;
        }
        assert!(remaining.is_empty(), "parallel_row_ranges: ranges do not tile the buffer");
        return;
    }
    // Pre-split the buffer into per-range windows; tasks claim them by
    // index. The Mutex costs one uncontended lock per chunk — noise next
    // to the kernel work a chunk represents.
    let mut windows: Vec<Option<(Range<usize>, &mut [f32])>> = Vec::with_capacity(ranges.len());
    {
        let mut remaining = data;
        let mut expected = 0;
        for r in ranges {
            assert_eq!(r.start, expected, "parallel_row_ranges: ranges must tile in order");
            expected = r.end;
            let (head, tail) = std::mem::take(&mut remaining).split_at_mut((r.end - r.start) * row_len);
            windows.push(Some((r.clone(), head)));
            remaining = tail;
        }
        assert!(remaining.is_empty(), "parallel_row_ranges: ranges do not tile the buffer");
    }
    let windows = Mutex::new(windows);
    let body = |idx_range: Range<usize>| {
        for idx in idx_range {
            let (rows, chunk) = lock(&windows)[idx].take().expect("window claimed twice");
            f(rows, chunk);
        }
    };
    let idx_ranges: Vec<Range<usize>> = match order {
        Some(order) => order.iter().map(|&i| i..i + 1).collect(),
        None => (0..ranges.len()).map(|i| i..i + 1).collect(),
    };
    run_batch(idx_ranges, threads, &body);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_row_ranges_match_unordered_at_every_thread_count() {
        let ranges = vec![0..3, 3..4, 4..9, 9..16];
        let order = vec![2, 3, 0, 1]; // heaviest-first style permutation
        let fill = |rows: Range<usize>, chunk: &mut [f32]| {
            for (ii, i) in rows.enumerate() {
                for (j, v) in chunk[ii * 4..(ii + 1) * 4].iter_mut().enumerate() {
                    *v = (i * 4 + j) as f32;
                }
            }
        };
        let mut expect = vec![0.0f32; 16 * 4];
        parallel_row_ranges(&mut expect, 4, &ranges, fill);
        for threads in [1, 4] {
            let mut got = vec![0.0f32; 16 * 4];
            with_thread_limit(threads, || {
                parallel_row_ranges_ordered(&mut got, 4, &ranges, &order, fill);
            });
            assert_eq!(got, expect, "claim order changed results at {threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn ordered_row_ranges_reject_duplicate_indices() {
        let mut data = vec![0.0f32; 4];
        parallel_row_ranges_ordered(&mut data, 1, &[0..2, 2..4], &[0, 0], |_, _| {});
    }

    #[test]
    #[should_panic(expected = "order length")]
    fn ordered_row_ranges_reject_short_order() {
        let mut data = vec![0.0f32; 4];
        parallel_row_ranges_ordered(&mut data, 1, &[0..2, 2..4], &[0], |_, _| {});
    }

    #[test]
    fn chunk_ranges_tile_the_space() {
        for &(len, min_chunk, threads) in
            &[(0usize, 1usize, 4usize), (1, 1, 4), (7, 3, 2), (1000, 1, 8), (5, 100, 4)]
        {
            let ranges = chunk_ranges(len, min_chunk, threads);
            let mut expected = 0;
            for r in &ranges {
                assert_eq!(r.start, expected);
                assert!(r.end > r.start);
                if r.end != len {
                    assert!(r.end - r.start >= min_chunk.max(1));
                }
                expected = r.end;
            }
            assert_eq!(expected, len);
        }
    }

    #[test]
    fn parallel_for_chunks_covers_every_index_once() {
        let hits: Vec<AtomicUsize> = (0..10_000).map(|_| AtomicUsize::new(0)).collect();
        with_thread_limit(4, || {
            parallel_for_chunks(hits.len(), 1, |range| {
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn row_chunks_hand_out_disjoint_windows() {
        let mut data = vec![0.0f32; 97 * 5];
        with_thread_limit(4, || {
            parallel_row_chunks(&mut data, 5, 1, |rows, chunk| {
                assert_eq!(chunk.len(), (rows.end - rows.start) * 5);
                for (offset, value) in chunk.iter_mut().enumerate() {
                    *value += (rows.start * 5 + offset) as f32;
                }
            });
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as f32, "row element {i} written exactly once");
        }
    }

    #[test]
    fn serial_limit_forces_inline_execution() {
        let on_caller = std::thread::current().id();
        with_thread_limit(1, || {
            assert_eq!(max_threads(), 1);
            parallel_for_chunks(100, 1, |_| {
                assert_eq!(std::thread::current().id(), on_caller);
            });
        });
    }

    #[test]
    fn nested_regions_run_serially() {
        with_thread_limit(4, || {
            parallel_for_chunks(8, 1, |_| {
                // Inside a task the effective parallelism is 1 …
                assert_eq!(max_threads(), 1);
                // … so a nested region runs inline without deadlocking.
                let inner = AtomicUsize::new(0);
                parallel_for_chunks(50, 1, |r| {
                    inner.fetch_add(r.end - r.start, Ordering::Relaxed);
                });
                assert_eq!(inner.load(Ordering::Relaxed), 50);
            });
        });
    }

    #[test]
    fn task_panics_propagate_to_the_submitter() {
        let caught = std::panic::catch_unwind(|| {
            with_thread_limit(4, || {
                parallel_for_chunks(64, 1, |range| {
                    assert!(!range.contains(&13), "boom at 13");
                });
            });
        });
        assert!(caught.is_err(), "panic must cross the pool boundary");
        // The pool stays usable afterwards.
        let count = AtomicUsize::new(0);
        with_thread_limit(4, || {
            parallel_for_chunks(64, 1, |r| {
                count.fetch_add(r.end - r.start, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 64);
    }

    /// The panic-isolation contract (see the crate docs): when one chunk
    /// panics, every sibling chunk still runs and its writes land before
    /// the payload is re-raised on the submitter — and a task that catches
    /// its own panic hides it from the pool entirely.
    #[test]
    fn sibling_chunks_complete_their_writes_when_one_panics() {
        let done: Vec<AtomicUsize> = (0..32).map(|_| AtomicUsize::new(0)).collect();
        let caught = std::panic::catch_unwind(|| {
            with_thread_limit(4, || {
                parallel_for_chunks(32, 1, |range| {
                    assert!(!range.contains(&20), "boom at 20");
                    for i in range {
                        done[i].store(1, Ordering::Relaxed);
                    }
                });
            });
        });
        assert!(caught.is_err());
        // Exactly the panicked chunk's writes are missing.
        let boom = chunk_ranges(32, 1, 4)
            .into_iter()
            .find(|r| r.contains(&20))
            .expect("some chunk covers index 20");
        for (i, d) in done.iter().enumerate() {
            let expect = usize::from(!boom.contains(&i));
            assert_eq!(d.load(Ordering::Relaxed), expect, "index {i}");
        }

        // A task-level catch_unwind keeps the panic away from the pool:
        // the submission returns normally with every slot filled.
        let outcomes: Vec<AtomicUsize> = (0..32).map(|_| AtomicUsize::new(0)).collect();
        with_thread_limit(4, || {
            parallel_for_chunks(32, 1, |range| {
                for i in range.clone() {
                    let r = std::panic::catch_unwind(|| assert!(i != 20, "boom at 20"));
                    outcomes[i].store(if r.is_ok() { 1 } else { 2 }, Ordering::Relaxed);
                }
            });
        });
        for (i, o) in outcomes.iter().enumerate() {
            let expect = if i == 20 { 2 } else { 1 };
            assert_eq!(o.load(Ordering::Relaxed), expect, "slot {i}");
        }
    }

    #[test]
    fn with_thread_limit_restores_on_exit() {
        let before = max_threads();
        with_thread_limit(2, || assert_eq!(max_threads(), 2));
        assert_eq!(max_threads(), before);
        let _ = std::panic::catch_unwind(|| {
            with_thread_limit(3, || panic!("escape"));
        });
        assert_eq!(max_threads(), before, "limit restored after panic");
    }
}
