//! The bounded job queue between connection handlers and the batcher.
//!
//! `mpsc::sync_channel` served PR 8, but a supervised runtime needs two
//! things a channel cannot give: a *respawnable* consumer (a `Receiver` is
//! single-owner and moves into the batcher thread — a watchdog could never
//! hand the queue to a replacement) and a close/push race-free **drain**
//! (the `closed` flag and `push` serialize under one mutex, so "stop
//! accepting, then answer everything already queued" has no window where a
//! handler enqueues into a queue nobody will ever drain). So: a
//! `Mutex<VecDeque>` + `Condvar`, std-only like everything else here.

use mcond_core::ServeError;
use mcond_graph::NodeBatch;
use mcond_linalg::DMat;
use std::collections::VecDeque;
use std::sync::mpsc::SyncSender;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// What the batcher sends back per job: the result, the trace id, and the
/// epoch sequence number that produced it (`x-mcond-epoch`).
pub(crate) type Reply = (Result<DMat, ServeError>, u64, u64);

/// One admitted request travelling to the batcher.
pub(crate) struct Job {
    pub batch: NodeBatch,
    pub enqueued: Instant,
    /// Absolute expiry (`enqueued + budget`); `None` = no deadline.
    pub deadline: Option<Instant>,
    /// The budget that produced `deadline`, for the typed error.
    pub budget: Option<Duration>,
    pub reply: SyncSender<Reply>,
}

struct Inner {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// Why a push was refused. The job is dropped with the rejection — the
/// caller answers the client directly (it never started waiting on the
/// reply channel).
pub(crate) enum PushRejected {
    /// At capacity — shed with `429`.
    Full,
    /// Draining or stopped — answer `503` and let the client retry
    /// elsewhere.
    Closed,
}

/// What a timed pop observed.
pub(crate) enum Pop {
    Job(Box<Job>),
    Empty,
    Closed,
}

pub(crate) struct JobQueue {
    inner: Mutex<Inner>,
    ready: Condvar,
    capacity: usize,
}

impl JobQueue {
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner { jobs: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits `job` unless the queue is full or closed.
    pub fn push(&self, job: Job) -> Result<(), PushRejected> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushRejected::Closed);
        }
        if inner.jobs.len() >= self.capacity {
            return Err(PushRejected::Full);
        }
        inner.jobs.push_back(job);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Waits up to `timeout` for a job. `Closed` is terminal: the queue is
    /// empty and no job will ever arrive again.
    pub fn pop_timeout(&self, timeout: Duration) -> Pop {
        self.pop_until(Instant::now() + timeout, || true)
    }

    /// Takes a queued job at once; with none queued, waits for one for as
    /// long as `expecting()` holds, until `deadline` at the latest.
    /// `expecting` is evaluated under the queue lock, so a change to what
    /// it reads followed by [`wake`](Self::wake) is never missed.
    pub fn pop_until(&self, deadline: Instant, expecting: impl Fn() -> bool) -> Pop {
        let mut inner = self.lock();
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Pop::Job(Box::new(job));
            }
            if inner.closed {
                return Pop::Closed;
            }
            if !expecting() {
                return Pop::Empty;
            }
            let now = Instant::now();
            if now >= deadline {
                return Pop::Empty;
            }
            let (guard, _) = self
                .ready
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
        }
    }

    /// Makes a blocked [`pop_until`](Self::pop_until) evaluate its
    /// condition again. Passing through the lock first orders the wake
    /// after any check the popper already made, so it is either waiting
    /// (and hears this) or has yet to check (and sees the new state).
    pub fn wake(&self) {
        drop(self.lock());
        self.ready.notify_all();
    }

    pub fn len(&self) -> usize {
        self.lock().jobs.len()
    }

    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// The drain-exit handshake: atomically closes the queue **iff** it is
    /// empty. The batcher calls this once draining starts; because the
    /// check and the flag share the push mutex, a handler either got its
    /// job in before the close (the batcher will serve it) or observes
    /// `Closed` and answers 503 — never a silently stranded job.
    pub fn close_if_empty(&self) -> bool {
        let mut inner = self.lock();
        if inner.jobs.is_empty() {
            inner.closed = true;
            drop(inner);
            self.ready.notify_all();
            true
        } else {
            false
        }
    }

    /// Hard close: refuses future pushes and returns whatever was queued,
    /// so the caller can fail each job with a typed error instead of
    /// leaving its handler to time out.
    pub fn close(&self) -> Vec<Job> {
        let mut inner = self.lock();
        inner.closed = true;
        let leftovers = inner.jobs.drain(..).collect();
        drop(inner);
        self.ready.notify_all();
        leftovers
    }
}
