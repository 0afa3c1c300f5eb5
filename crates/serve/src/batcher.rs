//! The micro-batching worker and its supervisor.
//!
//! The **batcher** merges queued jobs ([`merge`]: everything already
//! queued, plus a bounded wait for company it has a sign of: a request
//! that is observably arriving, or a previous fan-out that coalesced),
//! expires overdue deadlines, and runs one `try_serve_many_traced`
//! fan-out per merged batch on the current epoch. It beats a heartbeat
//! every loop tick (and while paused); the fan-out itself does not, which
//! is exactly the property the **watchdog** supervises: a heartbeat older
//! than `watchdog_period` means the batcher is wedged (or dead of a
//! panic), so the watchdog answers the in-flight orphans with typed
//! `503`s, bumps the batcher generation, and spawns a replacement. A
//! wedged predecessor that eventually wakes observes the stale generation
//! and retires without touching the queue — at most one live consumer,
//! always.

use crate::front::{ServeConfig, Shared};
use crate::queue::{Job, JobQueue, Pop};
use mcond_core::ServeError;
use mcond_graph::NodeBatch;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Most requests merged into one fan-out.
const MAX_COALESCE: usize = 64;

/// Spawns generation `gen` of the batcher. `None` only when the OS
/// refuses a thread.
pub(crate) fn spawn_batcher(
    shared: &Arc<Shared>,
    cfg: &ServeConfig,
    gen: u64,
) -> Option<JoinHandle<()>> {
    let shared = Arc::clone(shared);
    let cfg = cfg.clone();
    thread::Builder::new()
        .name(format!("mcond-serve-batcher-{gen}"))
        .spawn(move || batcher_loop(&shared, &cfg, gen))
        .ok()
}

fn batcher_loop(shared: &Arc<Shared>, cfg: &ServeConfig, gen: u64) {
    // When the previous fan-out was dispatched, if it carried more than
    // one job.
    let mut coalesced_at = None;
    loop {
        if shared.stop.load(Ordering::Acquire)
            || gen != shared.batcher_gen.load(Ordering::Acquire)
        {
            return;
        }
        shared.stamp_heartbeat();
        if shared.inject_panic.swap(false, Ordering::AcqRel) {
            panic!("injected batcher panic (chaos hook)");
        }
        // Drain exit: once draining, close the queue the moment it runs
        // dry. `close_if_empty` holds the push lock, so a handler either
        // enqueued before the close (we will serve it next loop) or sees
        // `Closed` and answers 503 — no stranded jobs.
        if shared.draining.load(Ordering::Acquire) && shared.queue.close_if_empty() {
            return;
        }
        shared.wait_unpaused();
        let first = match shared.queue.pop_timeout(Duration::from_millis(20)) {
            Pop::Job(job) => *job,
            Pop::Empty => {
                // Idle tick: decay the backpressure signal so a drained
                // server readmits traffic.
                shared.decay_wait();
                mcond_obs::gauge_set(
                    "serve.http.queue_wait_ewma_us",
                    shared.ewma_wait_us.load(Ordering::Relaxed) as f64,
                );
                continue;
            }
            Pop::Closed => return,
        };
        let popped = Instant::now();
        let jobs = merge(
            &shared.queue,
            &shared.receiving,
            first,
            cfg.coalesce_window,
            MAX_COALESCE,
            coalesced_at,
        );
        let dispatched = Instant::now();
        coalesced_at = (jobs.len() > 1).then_some(dispatched);
        let gathering_us = (dispatched - popped).as_secs_f64() * 1e6;
        mcond_obs::histogram_record("serve.http.stage.coalesce_wait", gathering_us);
        for job in &jobs {
            let wait_us = micros_since(job.enqueued);
            shared.record_wait(wait_us);
            mcond_obs::histogram_record("serve.http.stage.queue_wait", wait_us as f64);
        }
        #[allow(clippy::cast_precision_loss)]
        mcond_obs::gauge_set("serve.http.queue_depth", shared.queue.len() as f64);

        // The batch serves on ONE epoch, captured here: a reload that
        // lands mid-fan-out affects the *next* batch, never this one.
        let epoch = shared.slot.load();
        let epoch_seq = epoch.seq();

        // Deadline sweep: jobs whose budget expired while queued answer
        // a typed 503 now instead of occupying a fan-out slot.
        let now = Instant::now();
        let mut live = Vec::with_capacity(jobs.len());
        for job in jobs {
            match job.deadline {
                Some(d) if now >= d => {
                    mcond_obs::counter_add("serve.http.deadline_expired", 1);
                    let waited_ms =
                        u64::try_from(job.enqueued.elapsed().as_millis()).unwrap_or(u64::MAX);
                    let budget_ms = u64::try_from(
                        job.budget.unwrap_or_default().as_millis(),
                    )
                    .unwrap_or(u64::MAX);
                    let _ = job.reply.try_send((
                        Err(ServeError::DeadlineExceeded { waited_ms, budget_ms }),
                        0,
                        epoch_seq,
                    ));
                }
                _ => live.push(job),
            }
        }
        if live.is_empty() {
            continue;
        }

        // Register the in-flight reply senders (tagged with our
        // generation) *before* computing, so a watchdog that declares us
        // dead mid-fan-out can answer these exact jobs.
        {
            let mut inflight = shared.lock_inflight();
            *inflight = (gen, live.iter().map(|j| j.reply.clone()).collect());
        }
        // Chaos hook: wedge *with* jobs in flight — the worst case the
        // watchdog exists for.
        let stall_ms = shared.inject_stall_ms.swap(0, Ordering::AcqRel);
        if stall_ms > 0 {
            thread::sleep(Duration::from_millis(stall_ms));
        }

        let (batches, replies): (Vec<NodeBatch>, Vec<_>) =
            live.into_iter().map(|j| (j.batch, j.reply)).unzip();
        let results = match cfg.thread_limit {
            Some(t) => mcond_par::with_thread_limit(t, || {
                epoch.server().try_serve_many_traced(&batches)
            }),
            None => epoch.server().try_serve_many_traced(&batches),
        };
        mcond_obs::counter_add("serve.http.batches", 1);
        mcond_obs::counter_add("serve.http.coalesced", batches.len() as u64);
        {
            // Deregister only our own registration — a successor batcher
            // may already have its own batch in flight.
            let mut inflight = shared.lock_inflight();
            if inflight.0 == gen {
                *inflight = (0, Vec::new());
            }
        }
        for (reply, slot) in replies.into_iter().zip(results) {
            // `try_send`, twice over: a handler that timed out dropped
            // its receiver, and a watchdog that declared us dead already
            // answered — the capacity-1 channel makes the duplicate send
            // fail silently either way.
            let (out, trace) = slot;
            let _ = reply.try_send((out, trace, epoch_seq));
        }
    }
}

fn micros_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Gathers one fan-out's jobs behind `first`. Whatever is already queued
/// is taken at once (up to `max_coalesce`). With the queue empty the
/// batch is dispatched, unless there is a sign of company:
///
/// - `receiving` says a connection handler has read part of a request it
///   has not pushed or answered yet: the batch lingers for that request
///   until it arrives or the count drops to zero, `window` at the longest;
/// - `coalesced_at`, the previous fan-out carried more than one job and
///   was dispatched then: the batch gathers until `window` after that
///   dispatch. While clients are concurrent, fan-outs are then spaced a
///   window apart and each carries what arrived in it; clients in a closed
///   loop keep riding one fan-out per round trip, paced by the window
///   rather than by how the scheduler interleaves their threads. A server
///   whose fan-out and round trip already take longer than the window
///   waits for nothing.
///
/// A lone request sees neither sign and pays nothing; its fan-out carries
/// one job and ends the spacing.
pub(crate) fn merge(
    queue: &JobQueue,
    receiving: &AtomicUsize,
    first: Job,
    window: Duration,
    max_coalesce: usize,
    coalesced_at: Option<Instant>,
) -> Vec<Job> {
    let mut jobs = vec![first];
    let cap = Instant::now() + window;
    if let Some(spaced) = coalesced_at.map(|at| at + window) {
        while jobs.len() < max_coalesce {
            match queue.pop_until(spaced, || true) {
                Pop::Job(job) => jobs.push(*job),
                Pop::Empty | Pop::Closed => break,
            }
        }
    }
    while jobs.len() < max_coalesce {
        match queue.pop_until(cap, || receiving.load(Ordering::Acquire) > 0) {
            Pop::Job(job) => jobs.push(*job),
            Pop::Empty | Pop::Closed => break,
        }
    }
    jobs
}

/// The supervisor: watches the batcher heartbeat and restarts on stall.
pub(crate) fn watchdog_loop(shared: &Arc<Shared>, cfg: &ServeConfig) {
    let period_ms = u64::try_from(cfg.watchdog_period.as_millis()).unwrap_or(u64::MAX).max(1);
    let tick = Duration::from_millis((period_ms / 4).clamp(1, 50));
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        thread::sleep(tick);
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        // A closed queue means the batcher exited *legitimately* (drain
        // complete) — a stale heartbeat there is not a stall.
        if shared.queue.is_closed() {
            continue;
        }
        if shared.heartbeat_age_ms() <= period_ms {
            continue;
        }

        // Stalled or dead. Restart sequence: flag (healthz → 503), retire
        // the generation, answer the orphans, reap-or-abandon the corpse,
        // spawn the replacement.
        shared.restarting.store(true, Ordering::Release);
        mcond_obs::counter_add("serve.watchdog.restarts", 1);
        let next_gen = shared.batcher_gen.fetch_add(1, Ordering::AcqRel) + 1;
        let epoch_seq = shared.slot.current_seq();
        let orphans = {
            let mut inflight = shared.lock_inflight();
            std::mem::take(&mut inflight.1)
        };
        mcond_obs::counter_add("serve.watchdog.orphans", orphans.len() as u64);
        for reply in orphans {
            let _ = reply.try_send((
                Err(ServeError::Aborted {
                    reason: "batcher stalled; watchdog respawned it and abandoned this job",
                }),
                0,
                epoch_seq,
            ));
        }
        {
            let mut slot = shared.batcher.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(handle) = slot.take() {
                if handle.is_finished() {
                    let _ = handle.join(); // panicked batcher: reap it
                }
                // else: wedged — abandoned; the generation check retires
                // it whenever it wakes.
            }
            // Fresh grace window so the replacement is not instantly
            // declared stalled before its first tick.
            shared.stamp_heartbeat();
            *slot = spawn_batcher(shared, cfg, next_gen);
        }
        shared.restarting.store(false, Ordering::Release);
    }
}

/// Hard-fails `jobs` with a typed shutdown error — the path for queue
/// leftovers when the drain grace expires.
pub(crate) fn fail_jobs(jobs: Vec<Job>, epoch_seq: u64, reason: &'static str) {
    for job in jobs {
        let _ = job.reply.try_send((Err(ServeError::Aborted { reason }), 0, epoch_seq));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::front::tests::{batcher_tests, test_batch, test_shared};
    use crate::front::Receiving;
    use crate::queue::Reply;
    use std::sync::mpsc::{self, Receiver};

    /// Far longer than any test may take: a merge that sleeps on it shows
    /// up as a failed elapsed-time assertion, not as a slow pass.
    const WIDE: Duration = Duration::from_secs(30);

    fn job() -> (Job, Receiver<Reply>) {
        let (reply, rx) = mpsc::sync_channel(1);
        let job = Job {
            batch: test_batch(),
            enqueued: Instant::now(),
            deadline: None,
            budget: None,
            reply,
        };
        (job, rx)
    }

    fn push_jobs(queue: &JobQueue, n: usize) -> Vec<Receiver<Reply>> {
        (0..n)
            .map(|_| {
                let (job, rx) = job();
                assert!(queue.push(job).is_ok(), "queue has room");
                rx
            })
            .collect()
    }

    #[test]
    fn merge_takes_what_is_queued_and_does_not_wait_for_more() {
        let queue = JobQueue::new(8);
        let receiving = AtomicUsize::new(0);
        let _replies = push_jobs(&queue, 5);
        let started = Instant::now();
        let jobs = merge(&queue, &receiving, job().0, WIDE, 4, None);
        assert_eq!(jobs.len(), 4, "stops at max_coalesce");
        assert_eq!(queue.len(), 2, "the rest stays queued for the next fan-out");
        let jobs = merge(&queue, &receiving, job().0, WIDE, 4, None);
        assert_eq!(jobs.len(), 3, "takes what is left and dispatches");
        assert!(started.elapsed() < WIDE / 2, "nobody is receiving: no linger");
    }

    #[test]
    fn merge_lingers_while_a_request_is_arriving_and_no_longer() {
        let shared = test_shared();
        let pushing = Receiving::begin(&shared);
        let abandoning = Receiving::begin(&shared);
        let started = Instant::now();
        let jobs = thread::scope(|s| {
            let merging =
                s.spawn(|| merge(&shared.queue, &shared.receiving, job().0, WIDE, 8, None));
            // One arriving request is pushed, the other goes away. The
            // merge must pick up the first and stop waiting at the second,
            // wherever it was when each happened.
            pushing.before_push();
            assert!(shared.queue.push(job().0).is_ok());
            drop(abandoning);
            merging.join().expect("merge returns")
        });
        assert_eq!(jobs.len(), 2, "the arriving job rides the same fan-out");
        assert!(started.elapsed() < WIDE / 2, "the linger ends when the count reaches zero");
    }

    #[test]
    fn merge_gives_up_on_a_stalled_request_after_the_window() {
        let shared = test_shared();
        let _stalled = Receiving::begin(&shared);
        let window = Duration::from_millis(20);
        let started = Instant::now();
        let jobs = merge(&shared.queue, &shared.receiving, job().0, window, 8, None);
        assert_eq!(jobs.len(), 1);
        assert!(started.elapsed() >= window, "a request was arriving: linger the whole window");
    }

    #[test]
    fn merge_spaces_a_fan_out_a_window_after_a_coalesced_one() {
        let queue = JobQueue::new(8);
        let receiving = AtomicUsize::new(0);
        let window = Duration::from_millis(20);
        let _replies = push_jobs(&queue, 1);
        let coalesced_at = Instant::now();
        let jobs = merge(&queue, &receiving, job().0, window, 8, Some(coalesced_at));
        assert_eq!(jobs.len(), 2);
        assert!(coalesced_at.elapsed() >= window, "nobody is receiving, it gathers anyway");

        let started = Instant::now();
        let jobs = merge(&queue, &receiving, job().0, WIDE, 8, Some(coalesced_at - WIDE));
        assert_eq!(jobs.len(), 1);
        assert!(started.elapsed() < WIDE / 2, "a window has passed since: nothing to wait for");

        let _replies = push_jobs(&queue, 1);
        let started = Instant::now();
        let jobs = merge(&queue, &receiving, job().0, WIDE, 2, Some(started));
        assert_eq!(jobs.len(), 2);
        assert!(started.elapsed() < WIDE / 2, "a full batch is dispatched at once");
    }

    /// Jobs queued behind a closed pause gate ride ONE fan-out when it
    /// opens: merging what is already queued needs no window.
    #[test]
    fn jobs_queued_while_paused_merge_into_one_fan_out() {
        const K: usize = 4;
        let _serial = batcher_tests();
        mcond_obs::enable_metrics();
        let shared = Arc::new(test_shared());
        let cfg = ServeConfig { coalesce_window: WIDE, ..ServeConfig::default() };
        *shared.paused.lock().unwrap() = true;
        let batcher = spawn_batcher(&shared, &cfg, 1).expect("spawn batcher");
        let replies = push_jobs(&shared.queue, K);
        let before = mcond_obs::snapshot();

        let started = Instant::now();
        *shared.paused.lock().unwrap() = false;
        shared.unpause.notify_all();
        for rx in replies {
            let (result, _, _) = rx.recv().expect("every queued job is answered");
            result.expect("the fixture batch is valid");
        }
        assert!(started.elapsed() < WIDE / 2, "queued jobs do not wait out the window");
        let after = mcond_obs::snapshot();
        let grew = |name| after.counter(name) - before.counter(name);
        assert_eq!(grew("serve.http.batches"), 1, "one fan-out");
        assert_eq!(grew("serve.http.coalesced"), K as u64, "carrying every queued job");

        shared.stop.store(true, Ordering::Release);
        batcher.join().expect("batcher exits cleanly");
    }

    /// A fan-out that follows a coalesced one is dispatched no sooner than
    /// a window after it; one that follows a lone job is dispatched at
    /// once again.
    #[test]
    fn fan_outs_are_spaced_a_window_apart_only_while_they_coalesce() {
        let _serial = batcher_tests();
        let shared = Arc::new(test_shared());
        let window = Duration::from_millis(200);
        let cfg = ServeConfig { coalesce_window: window, ..ServeConfig::default() };
        *shared.paused.lock().unwrap() = true;
        let batcher = spawn_batcher(&shared, &cfg, 1).expect("spawn batcher");
        // Pushes `n` jobs, opens the gate, and times until all are answered.
        let round_trip = |n: usize| {
            let started = Instant::now();
            let replies = push_jobs(&shared.queue, n);
            *shared.paused.lock().unwrap() = false;
            shared.unpause.notify_all();
            for rx in replies {
                rx.recv().expect("answered").0.expect("the fixture batch is valid");
            }
            started.elapsed()
        };

        let started = Instant::now();
        assert!(round_trip(2) < window / 2, "queued together behind the gate: no wait");
        round_trip(1);
        assert!(started.elapsed() >= window, "the fan-out before it was coalesced");
        assert!(round_trip(1) < window / 2, "the fan-out before it carried one job");

        shared.stop.store(true, Ordering::Release);
        batcher.join().expect("batcher exits cleanly");
    }
}
