//! The HTTP front end: accept loop, connection handlers, the adaptive
//! micro-batching worker, and its supervisor.
//!
//! # Architecture
//!
//! ```text
//!  accept thread ──► conn handler threads (one per connection, bounded)
//!                        │  parse HTTP ► decode batch ► admission control
//!                        ▼
//!                  bounded JobQueue (Mutex<VecDeque> + Condvar)
//!                        │
//!                  batcher thread: take every queued job (≤ MAX_COALESCE),
//!                  linger ≤ coalesce_window only while a handler is still
//!                  receiving a request or fan-outs are coalescing, expire
//!                  overdue deadlines, then one `try_serve_many_traced`
//!                  fan-out on the current epoch
//!                        │                          ▲ heartbeat
//!                  per-job reply channel      watchdog thread: respawns a
//!                        │                    stalled batcher, answers its
//!                        ▼                    orphans with typed errors
//!                  handler writes the response (+ `x-mcond-epoch`)
//! ```
//!
//! # Epochs (DESIGN.md §4k)
//!
//! The model lives in an [`EpochSlot`]: the batcher clones the current
//! [`EpochServer`] `Arc` once per coalesced batch, so a concurrent
//! [`ServeHandle::reload`] never disturbs an in-flight fan-out — it
//! finishes on the epoch it started on, and the retired epoch frees when
//! its last request completes. Every `/v1/serve` response carries the
//! serving epoch in `x-mcond-epoch`.
//!
//! # Coalescing / shedding state machine (DESIGN.md §4j)
//!
//! The batcher merges what is queued and dispatches without waiting,
//! unless it sees company (`batcher::merge`). The `receiving` count says a
//! handler has read part of a request it has not pushed or answered: the
//! batcher lingers for that request, at most
//! [`ServeConfig::coalesce_window`]. Or its previous fan-out carried more
//! than one job: it gathers until a window after that dispatch, so
//! fan-outs are spaced a window apart for as long as they keep coalescing.
//!
//! A `POST /v1/serve` request is **admitted** when the queue has room and
//! the smoothed queue-wait EWMA is under `shed_wait_us`; admitted jobs are
//! enqueued and the handler blocks on the job's reply channel. When the
//! queue is full or the EWMA crosses the threshold the request is **shed**
//! with `429` and a `Retry-After` derived from the EWMA (counter
//! `serve.http.shed`); the EWMA halves on every idle batcher tick, so a
//! drained server automatically readmits.
//!
//! # Shutdown
//!
//! [`ServeHandle::shutdown`] drains: stop accepting, let the batcher serve
//! everything already queued, wait until every admitted response has been
//! written, then stop the threads. Requests arriving mid-drain answer
//! `503`; requests queued before the drain each get exactly one real
//! response.

use crate::codec::{self, CodecError};
use crate::http::{write_response, HttpLimits, Request, RequestParser};
use crate::queue::{Job, JobQueue, PushRejected, Reply};
use crate::reload::{self, ReloadControl, ReloadError, ReloadOutcome};
use mcond_core::{EpochSlot, ServeError};
use mcond_obs::Json;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Most simultaneously open connections; further accepts are answered
/// `503` and closed.
const MAX_CONNECTIONS: usize = 128;

/// How long a handler waits for its job's result before answering `504`.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Upper bound (seconds) on the `Retry-After` advertised on `429`
/// responses (see [`retry_after_secs`]).
const RETRY_AFTER_CAP_SECS: u32 = 30;

/// Longest [`ServeHandle::shutdown`] waits for queued jobs to drain and
/// their responses to be written before hard-failing leftovers.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Tuning knobs for one front end. `Default` is sized for tests and small
/// deployments; every field is plain data, override what you need.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port (see
    /// [`ServeHandle::addr`]).
    pub addr: String,
    /// The longest a fan-out may wait for company. The batcher dispatches
    /// what is queued at once, except that
    /// - while some connection handler has read part of a request it has
    ///   not yet pushed or answered, it lingers until that request lands,
    ///   no handler is mid-request any more, or this much time has passed;
    /// - after a fan-out that carried more than one job, it gathers until
    ///   this much time after that dispatch: under concurrent load
    ///   fan-outs are at least a window apart, each carrying what arrived
    ///   in it.
    ///
    /// A lone request never pays it.
    pub coalesce_window: Duration,
    /// Bounded depth of the job queue; requests beyond it are shed with
    /// `429`.
    pub queue_capacity: usize,
    /// Per-connection socket read timeout: a request that stalls
    /// mid-frame (slowloris) is answered `408` and the connection closed;
    /// an *idle* keep-alive connection is closed silently.
    pub read_timeout: Duration,
    /// Queue-wait EWMA (µs) above which new requests are shed even while
    /// the queue has room — early backpressure when `serve.stage.*` work
    /// is the bottleneck rather than arrival bursts.
    pub shed_wait_us: u64,
    /// Deadline budget granted to requests that do not send an
    /// `x-mcond-deadline-ms` header; `None` = no default deadline. An
    /// expired job is answered `503` (`deadline_exceeded`) by the batcher
    /// instead of occupying a fan-out slot.
    pub default_deadline: Option<Duration>,
    /// Batcher heartbeat staleness beyond which the watchdog declares the
    /// batcher stalled, answers its in-flight orphans with typed errors,
    /// and respawns it. Must comfortably exceed the worst-case single
    /// fan-out, which does not beat the heart while computing.
    pub watchdog_period: Duration,
    /// Base backoff applied after a failed reload; doubles per consecutive
    /// failure (capped by `reload_backoff_cap`) and resets on success.
    pub reload_backoff: Duration,
    /// Ceiling for the reload backoff.
    pub reload_backoff_cap: Duration,
    /// When set, the batcher pins its fan-outs to this thread count via
    /// [`mcond_par::with_thread_limit`] — results are bitwise identical
    /// either way (the pool's contract); tests use it to compare 1- and
    /// 4-thread servers in one process.
    pub thread_limit: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            coalesce_window: Duration::from_micros(500),
            queue_capacity: 256,
            read_timeout: Duration::from_secs(5),
            shed_wait_us: 500_000,
            default_deadline: None,
            watchdog_period: Duration::from_secs(2),
            reload_backoff: Duration::from_millis(250),
            reload_backoff_cap: Duration::from_secs(30),
            thread_limit: None,
        }
    }
}

/// State shared between the accept loop, handlers, the batcher, and the
/// watchdog.
pub(crate) struct Shared {
    pub(crate) stop: AtomicBool,
    /// Drain mode: stop admitting, finish what's queued.
    pub(crate) draining: AtomicBool,
    /// The watchdog is mid-restart of the batcher (healthz answers 503).
    pub(crate) restarting: AtomicBool,
    /// Smoothed queue wait in µs (α = 1/8), halved on idle ticks.
    pub(crate) ewma_wait_us: AtomicU64,
    pub(crate) live_conns: AtomicUsize,
    /// Admitted jobs whose HTTP response has not been written yet — the
    /// graceful drain waits for this to reach zero.
    pub(crate) open_replies: AtomicUsize,
    /// Connection handlers that have read bytes of a request they have
    /// not yet pushed or answered (see [`Receiving`]). The batcher lingers
    /// for them while this is non-zero. It publishes nothing:
    /// a job travels through the queue mutex, and a stale read only costs
    /// one linger (bounded by `coalesce_window`) or one missed merge.
    pub(crate) receiving: AtomicUsize,
    /// Chaos/testing gate: while `true` the batcher stops dequeuing, so
    /// the queue fills deterministically (the load-shed suite drives it).
    pub(crate) paused: Mutex<bool>,
    pub(crate) unpause: Condvar,
    pub(crate) queue: JobQueue,
    pub(crate) slot: Arc<EpochSlot>,
    pub(crate) reload: ReloadControl,
    /// Time origin for the heartbeat clock.
    pub(crate) t0: Instant,
    /// Batcher liveness stamp, ms since `t0`; refreshed every loop tick
    /// and while waiting out a pause.
    pub(crate) heartbeat_ms: AtomicU64,
    /// Batcher generation: bumped by the watchdog on respawn; a stalled
    /// predecessor that wakes up self-retires when its generation is
    /// stale, so at most one batcher ever consumes the queue.
    pub(crate) batcher_gen: AtomicU64,
    pub(crate) batcher: Mutex<Option<JoinHandle<()>>>,
    /// Reply senders of the batch currently inside a fan-out, tagged with
    /// the generation that registered them — what the watchdog answers
    /// with typed errors when that generation is declared dead.
    pub(crate) inflight: Mutex<(u64, Vec<mpsc::SyncSender<Reply>>)>,
    /// Chaos hooks (see [`ServeHandle::inject_batcher_panic`]).
    pub(crate) inject_panic: AtomicBool,
    pub(crate) inject_stall_ms: AtomicU64,
}

impl Shared {
    fn new(slot: Arc<EpochSlot>, queue_capacity: usize) -> Self {
        Self {
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            restarting: AtomicBool::new(false),
            ewma_wait_us: AtomicU64::new(0),
            live_conns: AtomicUsize::new(0),
            open_replies: AtomicUsize::new(0),
            receiving: AtomicUsize::new(0),
            paused: Mutex::new(false),
            unpause: Condvar::new(),
            queue: JobQueue::new(queue_capacity),
            slot,
            reload: ReloadControl::new(),
            t0: Instant::now(),
            heartbeat_ms: AtomicU64::new(0),
            batcher_gen: AtomicU64::new(1),
            batcher: Mutex::new(None),
            inflight: Mutex::new((0, Vec::new())),
            inject_panic: AtomicBool::new(false),
            inject_stall_ms: AtomicU64::new(0),
        }
    }

    pub(crate) fn overloaded(&self, cfg: &ServeConfig) -> bool {
        self.queue.len() >= cfg.queue_capacity
            || self.ewma_wait_us.load(Ordering::Relaxed) > cfg.shed_wait_us
    }

    pub(crate) fn record_wait(&self, wait_us: u64) {
        let old = self.ewma_wait_us.load(Ordering::Relaxed);
        self.ewma_wait_us.store(old - old / 8 + wait_us / 8, Ordering::Relaxed);
    }

    pub(crate) fn decay_wait(&self) {
        let old = self.ewma_wait_us.load(Ordering::Relaxed);
        if old > 0 {
            self.ewma_wait_us.store(old / 2, Ordering::Relaxed);
        }
    }

    /// Milliseconds since the front end started — the heartbeat clock.
    pub(crate) fn now_ms(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    pub(crate) fn stamp_heartbeat(&self) {
        self.heartbeat_ms.store(self.now_ms(), Ordering::Relaxed);
    }

    pub(crate) fn heartbeat_age_ms(&self) -> u64 {
        self.now_ms().saturating_sub(self.heartbeat_ms.load(Ordering::Relaxed))
    }

    /// Blocks while the pause gate is closed (and the server is running).
    /// Stamps the heartbeat each wait tick: a paused batcher is idle by
    /// request, not stalled, and must not trip the watchdog.
    pub(crate) fn wait_unpaused(&self) {
        let mut paused = self.paused.lock().unwrap_or_else(PoisonError::into_inner);
        while *paused && !self.stop.load(Ordering::Acquire) {
            self.stamp_heartbeat();
            let (guard, _) = self
                .unpause
                .wait_timeout(paused, Duration::from_millis(20))
                .unwrap_or_else(PoisonError::into_inner);
            paused = guard;
        }
    }

    pub(crate) fn lock_inflight(&self) -> MutexGuard<'_, (u64, Vec<mpsc::SyncSender<Reply>>)> {
        self.inflight.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One handler's count in [`Shared::receiving`], held from the first bytes
/// of a request until that request is pushed or answered.
pub(crate) struct Receiving<'a>(&'a Shared);

impl<'a> Receiving<'a> {
    pub(crate) fn begin(shared: &'a Shared) -> Self {
        shared.receiving.fetch_add(1, Ordering::AcqRel);
        Self(shared)
    }

    /// Lowers the count for a job that is about to be pushed, without a
    /// wake-up: the push's own notify wakes a lingering batcher, which
    /// then pops the job and already sees the lower count.
    pub(crate) fn before_push(self) {
        self.0.receiving.fetch_sub(1, Ordering::AcqRel);
        std::mem::forget(self);
    }
}

impl Drop for Receiving<'_> {
    /// Every way out but a push: the request was answered or abandoned,
    /// so a batcher lingering for it has nothing left to wait for.
    fn drop(&mut self) {
        if self.0.receiving.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.0.queue.wake();
        }
    }
}

/// A running front end. Dropping the handle shuts the server down
/// (gracefully — see [`ServeHandle::shutdown`]).
pub struct ServeHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    cfg: ServeConfig,
    accept: Option<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl ServeHandle {
    /// The bound address (resolves port `0` to the ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The current epoch sequence number — the value stamped on responses
    /// as `x-mcond-epoch`.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.shared.slot.current_seq()
    }

    /// Loads, validates, canaries, and — only if all of that passes —
    /// swaps in the checkpoint at `path` as the new serving epoch. The
    /// same code path `POST /v1/admin/reload` runs; see [`reload`] for
    /// the failure taxonomy and backoff behaviour. In-flight requests are
    /// never disturbed: they finish on the epoch they started on.
    ///
    /// # Errors
    /// [`ReloadError`] — the old epoch keeps serving untouched on every
    /// error path.
    pub fn reload(&self, path: impl AsRef<Path>) -> Result<ReloadOutcome, ReloadError> {
        reload::attempt(&self.shared.slot, &self.shared.reload, &self.cfg, path.as_ref())
    }

    /// Closes the batcher's dequeue gate: admitted jobs stay queued (so
    /// the bounded queue fills and sheds deterministically) until
    /// [`resume`](ServeHandle::resume). A chaos/testing facility, in the
    /// spirit of `mcond_core::chaos` — metrics and health endpoints keep
    /// answering while paused, and the pause does not trip the watchdog.
    pub fn pause(&self) {
        *self.shared.paused.lock().unwrap_or_else(PoisonError::into_inner) = true;
    }

    /// Reopens the dequeue gate; queued jobs drain in arrival order.
    pub fn resume(&self) {
        *self.shared.paused.lock().unwrap_or_else(PoisonError::into_inner) = false;
        self.shared.unpause.notify_all();
    }

    /// Chaos hook: the batcher panics at its next loop tick. The watchdog
    /// must detect the dead heartbeat and respawn it; queued jobs survive
    /// (the queue outlives the worker) and are served by the replacement.
    pub fn inject_batcher_panic(&self) {
        self.shared.inject_panic.store(true, Ordering::Release);
    }

    /// Chaos hook: the batcher wedges for `stall` *after* taking its next
    /// batch in flight — the worst case, jobs dequeued but unanswered.
    /// The watchdog answers those orphans with typed `503`s and respawns;
    /// the stalled thread self-retires when it wakes.
    pub fn inject_batcher_stall(&self, stall: Duration) {
        let ms = u64::try_from(stall.as_millis()).unwrap_or(u64::MAX);
        self.shared.inject_stall_ms.store(ms.max(1), Ordering::Release);
    }

    /// Graceful drain: stop accepting, let the batcher answer everything
    /// already queued, wait (bounded by `DRAIN_GRACE`) until every
    /// admitted response has been written, then stop the service threads.
    /// Requests that arrive mid-drain answer `503`; requests queued
    /// before the drain each receive exactly one real response, never a
    /// mid-reply reset.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        if self.shared.stop.load(Ordering::Acquire) {
            return; // explicit shutdown already ran; Drop is a no-op
        }
        self.shared.draining.store(true, Ordering::Release);
        self.resume();
        // Unblock the accept loop with one throwaway connection; it sees
        // `draining` and retires, so no new connections join the drain.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // The batcher closes the queue once it runs dry; every admitted
        // job decrements `open_replies` when its response hits the wire.
        let deadline = Instant::now() + DRAIN_GRACE;
        while Instant::now() < deadline
            && !(self.shared.queue.is_closed()
                && self.shared.open_replies.load(Ordering::Acquire) == 0)
        {
            thread::sleep(Duration::from_millis(2));
        }
        self.shared.stop.store(true, Ordering::Release);
        self.resume();
        // Past the grace window: hard-close and answer leftovers typed
        // instead of letting their handlers wait out `REPLY_TIMEOUT`.
        crate::batcher::fail_jobs(
            self.shared.queue.close(),
            self.shared.slot.current_seq(),
            "server shut down before the request was served",
        );
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
        let batcher = self.shared.batcher.lock().unwrap_or_else(PoisonError::into_inner).take();
        if let Some(h) = batcher {
            // A healthy batcher exits within one poll tick of the closed
            // queue; a wedged one (stall injection) is abandoned — its
            // generation check retires it when it wakes.
            let waited = Instant::now();
            while !h.is_finished() && waited.elapsed() < Duration::from_millis(500) {
                thread::sleep(Duration::from_millis(2));
            }
            if h.is_finished() {
                let _ = h.join();
            }
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// Binds the listener and spawns the accept loop, the batching worker,
/// and its watchdog. Also turns on metric aggregation
/// ([`mcond_obs::enable_metrics`]) so `GET /metrics` always has counters
/// to report.
///
/// The model arrives as an [`EpochSlot`] — the owning, swappable form
/// [`crate::boot_slot`] builds from a checkpoint file — so the same slot
/// can be reloaded under traffic via [`ServeHandle::reload`] or
/// `POST /v1/admin/reload`.
///
/// # Errors
/// Any socket-level `io::Error` from binding the address.
pub fn spawn(slot: Arc<EpochSlot>, config: ServeConfig) -> std::io::Result<ServeHandle> {
    mcond_obs::enable_metrics();
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared::new(slot, config.queue_capacity));
    shared.stamp_heartbeat();

    let first = crate::batcher::spawn_batcher(&shared, &config, 1)
        .ok_or_else(|| std::io::Error::other("cannot spawn batcher thread"))?;
    *shared.batcher.lock().unwrap_or_else(PoisonError::into_inner) = Some(first);
    let watchdog = {
        let shared = Arc::clone(&shared);
        let cfg = config.clone();
        thread::Builder::new()
            .name("mcond-serve-watchdog".to_owned())
            .spawn(move || crate::batcher::watchdog_loop(&shared, &cfg))?
    };
    let accept = {
        let shared = Arc::clone(&shared);
        let cfg = config.clone();
        thread::Builder::new().name("mcond-serve-accept".to_owned()).spawn(move || {
            accept_loop(&listener, &shared, &cfg);
        })?
    };
    Ok(ServeHandle { addr, shared, cfg: config, accept: Some(accept), watchdog: Some(watchdog) })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, cfg: &ServeConfig) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) || shared.draining.load(Ordering::Acquire) {
            return;
        }
        let Ok(stream) = stream else { continue };
        if shared.live_conns.load(Ordering::Acquire) >= MAX_CONNECTIONS {
            mcond_obs::counter_add("serve.http.conns_rejected", 1);
            let body = error_body("too_many_connections", "connection limit reached");
            let _ = (&stream).write_all(&write_response(503, &[], body.as_bytes(), true));
            continue;
        }
        shared.live_conns.fetch_add(1, Ordering::AcqRel);
        mcond_obs::counter_add("serve.http.conns", 1);
        let conn_shared = Arc::clone(shared);
        let cfg = cfg.clone();
        let spawned = thread::Builder::new().name("mcond-serve-conn".to_owned()).spawn(
            move || {
                handle_conn(stream, &conn_shared, &cfg);
                conn_shared.live_conns.fetch_sub(1, Ordering::AcqRel);
            },
        );
        if spawned.is_err() {
            shared.live_conns.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// One framed response plus whether it answers an *admitted* job — the
/// graceful drain counts admitted responses onto the wire.
struct Routed {
    bytes: Vec<u8>,
    admitted: bool,
}

impl Routed {
    fn plain(bytes: Vec<u8>) -> Self {
        Self { bytes, admitted: false }
    }
}

/// The per-connection loop: parse requests (pipelining-aware), route
/// them, write responses. Returns when the peer closes, framing breaks,
/// a read times out, the server stops, or a drain begins (responses
/// written mid-drain carry `Connection: close`).
fn handle_conn(mut stream: TcpStream, shared: &Arc<Shared>, cfg: &ServeConfig) {
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    let _ = stream.set_nodelay(true);
    let mut parser = RequestParser::new(HttpLimits::default());
    let mut buf = [0u8; 16 * 1024];
    // Held while a request is partly read; every `return` below drops it.
    let mut receiving: Option<Receiving> = None;
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        // Drain every complete request already buffered before reading
        // more — pipelined requests answer back-to-back.
        loop {
            match parser.next_request() {
                Ok(Some(req)) => {
                    mcond_obs::counter_add("serve.http.requests", 1);
                    let keep = req.keep_alive();
                    // A pipelined request was buffered whole by an
                    // earlier read and starts its count here.
                    let receiving = receiving.take().unwrap_or_else(|| Receiving::begin(shared));
                    let routed = route(&req, shared, cfg, keep, receiving);
                    let wrote = stream.write_all(&routed.bytes).is_ok();
                    if routed.admitted {
                        // Decrement only after the bytes hit the socket:
                        // this is what lets the drain guarantee "no
                        // connection reset mid-reply".
                        shared.open_replies.fetch_sub(1, Ordering::AcqRel);
                    }
                    if !wrote || !keep || shared.draining.load(Ordering::Acquire) {
                        return;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // Framing is unrecoverable: answer the typed status
                    // and close.
                    mcond_obs::counter_add("serve.http.protocol_errors", 1);
                    let body = error_body(e.kind(), &e.to_string());
                    let _ = stream
                        .write_all(&write_response(e.status(), &[], body.as_bytes(), true));
                    return;
                }
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => return, // peer closed
            Ok(n) => {
                parser.push(&buf[..n]);
                receiving.get_or_insert_with(|| Receiving::begin(shared));
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if parser.mid_request() {
                    // A started-but-stalled request (slowloris): typed
                    // timeout, then close.
                    mcond_obs::counter_add("serve.http.timeouts", 1);
                    let body = error_body("request_timeout", "request stalled mid-frame");
                    let _ = stream.write_all(&write_response(408, &[], body.as_bytes(), true));
                }
                return;
            }
            Err(_) => return,
        }
    }
}

/// Routes one parsed request to its endpoint and frames the response.
fn route(
    req: &Request,
    shared: &Arc<Shared>,
    cfg: &ServeConfig,
    keep_alive: bool,
    receiving: Receiving,
) -> Routed {
    // Mid-drain responses close the connection so keep-alive clients
    // re-resolve to a healthy server instead of queueing on a dying one.
    let close = !keep_alive || shared.draining.load(Ordering::Acquire);
    let endpoint = (req.method.as_str(), req.target.as_str());
    if endpoint == ("POST", "/v1/serve") {
        return serve_endpoint(req, shared, cfg, close, receiving);
    }
    // No other route feeds the batcher (and a reload runs for a long time).
    drop(receiving);
    match endpoint {
        ("POST", "/v1/admin/reload") => Routed::plain(reload_endpoint(req, shared, cfg, close)),
        ("GET", "/healthz") => Routed::plain(healthz_endpoint(shared, close)),
        ("GET", "/metrics") => {
            // JSONL: one line for this server's request statistics, one
            // for the process-wide registry (http counters live there).
            let epoch = shared.slot.load();
            let mut body = Json::obj()
                .with("scope", "server")
                .with("metrics", epoch.server().metrics_snapshot().to_json())
                .dump();
            body.push('\n');
            body.push_str(
                &Json::obj()
                    .with("scope", "process")
                    .with("metrics", mcond_obs::snapshot().to_json())
                    .dump(),
            );
            body.push('\n');
            Routed::plain(write_response(200, &[], body.as_bytes(), close))
        }
        (_, "/v1/serve" | "/v1/admin/reload") => Routed::plain(method_not_allowed("POST", close)),
        (_, "/healthz" | "/metrics") => Routed::plain(method_not_allowed("GET", close)),
        _ => {
            let body = error_body("not_found", "unknown path");
            Routed::plain(write_response(404, &[], body.as_bytes(), close))
        }
    }
}

/// `GET /healthz`: liveness plus the supervision vitals — the current
/// epoch and checkpoint id, queue depth, and batcher heartbeat age.
/// Answers `503` while the watchdog is mid-restart or the server is
/// draining, so load balancers rotate traffic away.
fn healthz_endpoint(shared: &Arc<Shared>, close: bool) -> Vec<u8> {
    let epoch = shared.slot.load();
    let restarting = shared.restarting.load(Ordering::Acquire);
    let draining = shared.draining.load(Ordering::Acquire);
    let status = if restarting {
        "restarting"
    } else if draining {
        "draining"
    } else {
        "ok"
    };
    let body = Json::obj()
        .with("status", status)
        .with("epoch", epoch.seq())
        .with("checkpoint", epoch.checkpoint_id())
        .with("base_nodes", epoch.server().base_nodes())
        .with("queue_depth", shared.queue.len())
        .with("heartbeat_age_ms", shared.heartbeat_age_ms())
        .dump();
    let code = if restarting || draining { 503 } else { 200 };
    write_response(code, &[], body.as_bytes(), close)
}

/// `POST /v1/admin/reload`: body `{"path": "..."}`. Runs the full
/// validated-load + canary + swap pipeline **on this handler thread** —
/// never on the batcher — and maps the typed outcome onto HTTP.
fn reload_endpoint(req: &Request, shared: &Arc<Shared>, cfg: &ServeConfig, close: bool) -> Vec<u8> {
    let path = std::str::from_utf8(&req.body)
        .ok()
        .and_then(|text| Json::parse(text).ok())
        .and_then(|j| j.get("path").and_then(Json::as_str).map(str::to_owned));
    let Some(path) = path else {
        let body = error_body("bad_reload_request", "body must be {\"path\": \"...\"}");
        return write_response(400, &[], body.as_bytes(), close);
    };
    match reload::attempt(&shared.slot, &shared.reload, cfg, Path::new(&path)) {
        Ok(outcome) => {
            let body = Json::obj()
                .with("epoch", outcome.epoch)
                .with("checkpoint", outcome.checkpoint_id)
                .dump();
            write_response(200, &[], body.as_bytes(), close)
        }
        Err(ReloadError::InProgress) => {
            let body = error_body("reload_in_progress", "another reload is running");
            write_response(409, &[], body.as_bytes(), close)
        }
        Err(ReloadError::Backoff { retry_after }) => {
            let secs = retry_after_secs(retry_after);
            let body = error_body(
                "reload_backoff",
                "recent reloads failed; wait out the advertised backoff",
            );
            write_response(429, &[("retry-after", secs.to_string())], body.as_bytes(), close)
        }
        Err(ReloadError::Store(e)) => {
            let body = error_body("bad_checkpoint", &e.to_string());
            write_response(422, &[], body.as_bytes(), close)
        }
        Err(ReloadError::Canary(e)) => {
            let body = error_body("canary_failed", &e.to_string());
            write_response(422, &[], body.as_bytes(), close)
        }
    }
}

/// Upper bound on a client-supplied deadline budget: 24 hours. A budget
/// above this is hostile or nonsensical — `Instant + huge Duration` can
/// overflow the platform clock's representable range and panic inside the
/// connection thread — so the request is rejected at parse time instead.
const MAX_DEADLINE_MS: u64 = 86_400_000;

/// Parses the request's deadline budget: the `x-mcond-deadline-ms` header
/// when present (must be a positive integer no larger than
/// [`MAX_DEADLINE_MS`]), else the configured default. `Err` means the
/// header was malformed or out of range.
fn request_budget(req: &Request, cfg: &ServeConfig) -> Result<Option<Duration>, ()> {
    match req.header("x-mcond-deadline-ms") {
        Some(raw) => match raw.trim().parse::<u64>() {
            Ok(ms) if ms > 0 && ms <= MAX_DEADLINE_MS => Ok(Some(Duration::from_millis(ms))),
            _ => Err(()),
        },
        None => Ok(cfg.default_deadline),
    }
}

/// `POST /v1/serve`: decode, admit (or shed), enqueue, await the fan-out
/// result, map it to a status. Every response — success or failure —
/// carries `x-mcond-epoch`.
fn serve_endpoint(
    req: &Request,
    shared: &Arc<Shared>,
    cfg: &ServeConfig,
    close: bool,
    receiving: Receiving,
) -> Routed {
    let epoch_hdr = |seq: u64| ("x-mcond-epoch", seq.to_string());
    let current = shared.slot.current_seq();
    let Ok(text) = std::str::from_utf8(&req.body) else {
        mcond_obs::counter_add("serve.http.bad_requests", 1);
        let body = error_body("codec", &CodecError::Utf8.to_string());
        return Routed::plain(write_response(400, &[epoch_hdr(current)], body.as_bytes(), close));
    };
    let decoding = Instant::now();
    let decoded = codec::decode_batch(text);
    mcond_obs::histogram_record("serve.http.stage.decode", decoding.elapsed().as_secs_f64() * 1e6);
    let batch = match decoded {
        Ok(b) => b,
        Err(e) => {
            mcond_obs::counter_add("serve.http.bad_requests", 1);
            let body = error_body("codec", &e.to_string());
            return Routed::plain(write_response(
                400,
                &[epoch_hdr(current)],
                body.as_bytes(),
                close,
            ));
        }
    };
    let Ok(budget) = request_budget(req, cfg) else {
        mcond_obs::counter_add("serve.http.bad_requests", 1);
        let body = error_body(
            "bad_deadline",
            "x-mcond-deadline-ms must be a positive integer no larger than 86400000 (24h)",
        );
        return Routed::plain(write_response(400, &[epoch_hdr(current)], body.as_bytes(), close));
    };

    if shared.draining.load(Ordering::Acquire) {
        let body = error_body("shutting_down", "server is draining");
        return Routed::plain(write_response(503, &[epoch_hdr(current)], body.as_bytes(), close));
    }
    // Admission control: shed *before* touching the queue when the server
    // is already over its bounds.
    if shared.overloaded(cfg) {
        return Routed::plain(shed_response(shared, close));
    }
    let (reply_tx, reply_rx) = mpsc::sync_channel(1);
    let enqueued = Instant::now();
    let job = Job {
        batch,
        enqueued,
        // checked_add: a configured default_deadline is not range-checked
        // like the header is, and Instant arithmetic panics on overflow.
        // An unrepresentable deadline degrades to "no deadline".
        deadline: budget.and_then(|b| enqueued.checked_add(b)),
        budget,
        reply: reply_tx,
    };
    receiving.before_push();
    match shared.queue.push(job) {
        Ok(()) => {
            mcond_obs::counter_add("serve.http.admitted", 1);
            shared.open_replies.fetch_add(1, Ordering::AcqRel);
        }
        Err(PushRejected::Full) => {
            return Routed::plain(shed_response(shared, close));
        }
        Err(PushRejected::Closed) => {
            let body = error_body("shutting_down", "serving worker is gone");
            return Routed::plain(write_response(
                503,
                &[epoch_hdr(current)],
                body.as_bytes(),
                close,
            ));
        }
    }
    let bytes = match reply_rx.recv_timeout(REPLY_TIMEOUT) {
        Ok((Ok(logits), trace, epoch)) => {
            let encoding = Instant::now();
            let body = codec::encode_logits(trace, &logits);
            mcond_obs::histogram_record(
                "serve.http.stage.encode",
                encoding.elapsed().as_secs_f64() * 1e6,
            );
            write_response(
                200,
                &[("x-mcond-trace", trace.to_string()), epoch_hdr(epoch)],
                body.as_bytes(),
                close,
            )
        }
        Ok((Err(e), trace, epoch)) => {
            let (status, kind) = serve_error_status(&e);
            let body = error_body(kind, &e.to_string());
            write_response(
                status,
                &[("x-mcond-trace", trace.to_string()), epoch_hdr(epoch)],
                body.as_bytes(),
                close,
            )
        }
        Err(RecvTimeoutError::Timeout) => {
            mcond_obs::counter_add("serve.http.timeouts", 1);
            let body = error_body("reply_timeout", "request timed out in the serving queue");
            write_response(504, &[epoch_hdr(current)], body.as_bytes(), close)
        }
        Err(RecvTimeoutError::Disconnected) => {
            let body = error_body("shutting_down", "serving worker dropped the request");
            write_response(503, &[epoch_hdr(current)], body.as_bytes(), close)
        }
    };
    Routed { bytes, admitted: true }
}

/// The `Retry-After` seconds a `429` advertises for `wait` (the queue-wait
/// EWMA when shedding, the rest of the backoff on a reload): rounded **up**
/// to whole seconds, so a client that waits exactly that long is past the
/// wait; floored at 1 and capped by `RETRY_AFTER_CAP_SECS` so a
/// pathological wait cannot park clients forever.
pub(crate) fn retry_after_secs(wait: Duration) -> u32 {
    let secs = wait.as_nanos().div_ceil(1_000_000_000).max(1);
    u32::try_from(secs).map_or(RETRY_AFTER_CAP_SECS, |s| s.min(RETRY_AFTER_CAP_SECS))
}

fn shed_response(shared: &Shared, close: bool) -> Vec<u8> {
    mcond_obs::counter_add("serve.http.shed", 1);
    let ewma = Duration::from_micros(shared.ewma_wait_us.load(Ordering::Relaxed));
    let retry = retry_after_secs(ewma);
    let body = error_body("shed", "server is over capacity; retry after the advertised delay");
    write_response(
        429,
        &[
            ("retry-after", retry.to_string()),
            ("x-mcond-epoch", shared.slot.current_seq().to_string()),
        ],
        body.as_bytes(),
        close,
    )
}

fn method_not_allowed(allow: &str, close: bool) -> Vec<u8> {
    let body = error_body("method_not_allowed", &format!("use {allow}"));
    write_response(405, &[("allow", allow.to_owned())], body.as_bytes(), close)
}

/// Maps a [`ServeError`] to its HTTP status and stable error kind.
///
/// | variant | status |
/// |---|---|
/// | `InvalidBatch` | 400 |
/// | `BatchTooLarge` | 413 |
/// | `NonFiniteLogits` | 500 |
/// | `Panicked` | 500 |
/// | `DeadlineExceeded` | 503 |
/// | `Aborted` | 503 |
#[must_use]
pub fn serve_error_status(e: &ServeError) -> (u16, &'static str) {
    match e {
        ServeError::InvalidBatch(_) => (400, "invalid_batch"),
        ServeError::BatchTooLarge { .. } => (413, "batch_too_large"),
        ServeError::NonFiniteLogits => (500, "non_finite_logits"),
        ServeError::Panicked { .. } => (500, "panicked"),
        ServeError::DeadlineExceeded { .. } => (503, "deadline_exceeded"),
        ServeError::Aborted { .. } => (503, "aborted"),
    }
}

/// The JSON error envelope every non-200 response carries.
pub(crate) fn error_body(kind: &str, message: &str) -> String {
    Json::obj()
        .with("error", Json::obj().with("kind", kind).with("message", message))
        .dump()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::client::{read_response, Client};
    use crate::queue::Pop;
    use mcond_graph::NodeBatch;

    #[test]
    fn serve_error_mapping_is_total_and_stable() {
        use mcond_graph::BatchError;
        let cases: Vec<(ServeError, u16, &str)> = vec![
            (
                ServeError::InvalidBatch(BatchError::NonFinite { component: "features" }),
                400,
                "invalid_batch",
            ),
            (ServeError::BatchTooLarge { len: 9, max: 1 }, 413, "batch_too_large"),
            (ServeError::NonFiniteLogits, 500, "non_finite_logits"),
            (ServeError::Panicked { context: "boom".into() }, 500, "panicked"),
            (
                ServeError::DeadlineExceeded { waited_ms: 7, budget_ms: 5 },
                503,
                "deadline_exceeded",
            ),
            (ServeError::Aborted { reason: "watchdog" }, 503, "aborted"),
        ];
        for (e, status, kind) in cases {
            assert_eq!(serve_error_status(&e), (status, kind), "{e}");
            assert!(!crate::http::status_reason(status).is_empty());
        }
    }

    #[test]
    fn retry_after_derives_from_the_ewma_rounded_up_and_capped() {
        let secs = |us| retry_after_secs(Duration::from_micros(us));
        // Idle queue: floor of 1 second, never 0.
        assert_eq!(secs(0), 1);
        // Sub-second waits still round up to the floor.
        assert_eq!(secs(250_000), 1);
        // Just over a second rounds *up*, not down.
        assert_eq!(secs(1_000_001), 2);
        assert_eq!(secs(4_500_000), 5);
        // A pathological EWMA is capped.
        assert_eq!(secs(90_000_000), 30);
        assert_eq!(secs(u64::MAX), 30);
    }

    #[test]
    fn ewma_decay_lowers_the_advertised_retry_after() {
        let shared = test_shared();
        shared.ewma_wait_us.store(3_000_000, Ordering::Relaxed);
        let cfg = ServeConfig { shed_wait_us: 1_000, ..ServeConfig::default() };
        assert!(shared.overloaded(&cfg), "hot EWMA sheds");
        let advertised =
            || retry_after_secs(Duration::from_micros(shared.ewma_wait_us.load(Ordering::Relaxed)));
        assert_eq!(advertised(), 3);
        for _ in 0..20 {
            shared.decay_wait();
        }
        assert!(!shared.overloaded(&cfg), "idle decay readmits");
        assert_eq!(advertised(), 1, "drained queue advertises the 1-second floor");
    }

    /// A client that waits out the advertised `Retry-After` of a reload
    /// backoff must land past it: 1.5 s left is advertised as 2, not 1.
    #[test]
    fn reload_backoff_retry_after_rounds_up() {
        let shared = Arc::new(test_shared());
        let cfg =
            ServeConfig { reload_backoff: Duration::from_millis(1500), ..ServeConfig::default() };
        let corrupt = std::env::temp_dir().join("mcond_front_reload_retry_after.mcst");
        std::fs::write(&corrupt, b"not a checkpoint").expect("write corrupt bundle");
        let body = Json::obj().with("path", corrupt.to_str().expect("UTF-8 temp path")).dump();
        let head =
            format!("POST /v1/admin/reload HTTP/1.1\r\ncontent-length: {}\r\n\r\n", body.len());
        let (mut stream, handler) = conn(&shared, &cfg);
        assert_eq!(send(&mut stream, &head, body.as_bytes()), 422, "corrupt bundle");
        stream.write_all(head.as_bytes()).expect("write head");
        stream.write_all(body.as_bytes()).expect("write body");
        let resp = read_response(&mut stream).expect("response");
        assert_eq!(resp.status, 429, "inside the backoff");
        assert_eq!(resp.header("retry-after"), Some("2"));
        drop(stream);
        handler.join().expect("handler returns when the peer hangs up");
        std::fs::remove_file(&corrupt).ok();
    }

    #[test]
    fn healthz_answers_503_while_draining_or_restarting() {
        let shared = Arc::new(test_shared());
        let status_of = |bytes: Vec<u8>| -> (u16, String) {
            let text = String::from_utf8(bytes).expect("ASCII response");
            let status = text
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .expect("status code");
            (status, text)
        };

        let (status, text) = status_of(healthz_endpoint(&shared, false));
        assert_eq!(status, 200);
        assert!(text.contains("\"ok\""), "healthy body names its status: {text}");
        assert!(text.contains("\"epoch\""), "healthz carries the epoch: {text}");
        assert!(text.contains("\"checkpoint\""), "healthz carries the checkpoint id: {text}");
        assert!(text.contains("\"queue_depth\""), "healthz carries queue depth: {text}");
        assert!(text.contains("\"heartbeat_age_ms\""), "healthz carries heartbeat age: {text}");

        shared.draining.store(true, Ordering::Release);
        let (status, text) = status_of(healthz_endpoint(&shared, false));
        assert_eq!(status, 503, "draining answers 503 so balancers rotate away");
        assert!(text.contains("\"draining\""), "{text}");
        shared.draining.store(false, Ordering::Release);

        shared.restarting.store(true, Ordering::Release);
        let (status, text) = status_of(healthz_endpoint(&shared, false));
        assert_eq!(status, 503, "mid-restart answers 503");
        assert!(text.contains("\"restarting\""), "{text}");
    }

    /// Tests that run a batcher take this: `serve.http.batches` and
    /// `serve.http.coalesced` are process-wide counters.
    pub(crate) fn batcher_tests() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Spins (yielding) until `done` holds; a condition that never comes
    /// true fails the test instead of hanging it.
    fn wait_for(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            thread::yield_now();
        }
    }

    /// Runs `handle_conn` on its own thread over a loopback pair and
    /// returns the client end.
    fn conn(shared: &Arc<Shared>, cfg: &ServeConfig) -> (TcpStream, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        let (stream, _) = listener.accept().expect("accept");
        let (shared, cfg) = (Arc::clone(shared), cfg.clone());
        (client, thread::spawn(move || handle_conn(stream, &shared, &cfg)))
    }

    /// Writes one request and reads its response status.
    fn send(stream: &mut TcpStream, head: &str, body: &[u8]) -> u16 {
        stream.write_all(head.as_bytes()).expect("write head");
        stream.write_all(body).expect("write body");
        read_response(stream).expect("response").status
    }

    fn post_serve(stream: &mut TcpStream, extra_headers: &str, body: &[u8]) -> u16 {
        send(stream, &serve_head(extra_headers, body.len()), body)
    }

    fn serve_head(extra_headers: &str, body_len: usize) -> String {
        format!("POST /v1/serve HTTP/1.1\r\n{extra_headers}content-length: {body_len}\r\n\r\n")
    }

    fn receiving(shared: &Shared) -> usize {
        shared.receiving.load(Ordering::Acquire)
    }

    #[test]
    fn receiving_returns_to_zero_on_every_way_out_of_a_request() {
        let shared = Arc::new(test_shared());
        let cfg = ServeConfig::default();
        let good = codec::encode_batch(&test_batch());
        let (mut stream, handler) = conn(&shared, &cfg);

        // Routed exits lower the count before the response is written, so
        // once the client holds the response it must read zero.
        assert_eq!(post_serve(&mut stream, "", &[0xff, 0xfe]), 400, "bad UTF-8");
        assert_eq!(receiving(&shared), 0, "after bad UTF-8");
        assert_eq!(post_serve(&mut stream, "", b"{\"not\": \"a batch\"}"), 400, "codec");
        assert_eq!(receiving(&shared), 0, "after a codec error");
        assert_eq!(
            post_serve(&mut stream, "x-mcond-deadline-ms: 0\r\n", good.as_bytes()),
            400,
            "bad deadline"
        );
        assert_eq!(receiving(&shared), 0, "after a bad deadline");
        shared.ewma_wait_us.store(2 * cfg.shed_wait_us, Ordering::Relaxed);
        assert_eq!(post_serve(&mut stream, "", good.as_bytes()), 429, "shed");
        assert_eq!(receiving(&shared), 0, "after a shed");
        shared.ewma_wait_us.store(0, Ordering::Relaxed);
        assert_eq!(send(&mut stream, "GET /healthz HTTP/1.1\r\n\r\n", b""), 200);
        assert_eq!(receiving(&shared), 0, "after /healthz");
        assert_eq!(send(&mut stream, "GET /metrics HTTP/1.1\r\n\r\n", b""), 200);
        assert_eq!(receiving(&shared), 0, "after /metrics");

        // Admitted: the count is already down when the job is in the queue.
        stream.write_all(serve_head("", good.len()).as_bytes()).expect("write head");
        stream.write_all(good.as_bytes()).expect("write body");
        let Pop::Job(job) = shared.queue.pop_timeout(Duration::from_secs(10)) else {
            panic!("the valid request was not enqueued");
        };
        assert_eq!(receiving(&shared), 0, "lowered before the push");
        job.reply
            .try_send((Err(ServeError::Aborted { reason: "test" }), 0, 0))
            .expect("reply slot is free");
        assert_eq!(read_response(&mut stream).expect("response").status, 503);
        drop(stream);
        handler.join().expect("handler returns when the peer hangs up");

        shared.draining.store(true, Ordering::Release);
        let (mut stream, handler) = conn(&shared, &cfg);
        assert_eq!(post_serve(&mut stream, "", good.as_bytes()), 503, "draining");
        assert_eq!(receiving(&shared), 0, "after a drain refusal");
        handler.join().expect("a draining handler closes the connection");
        shared.draining.store(false, Ordering::Release);

        // Framing errors, a stall and a disconnect end the handler, which
        // is when the count drops: join it first.
        let short_timeout =
            ServeConfig { read_timeout: Duration::from_millis(50), ..ServeConfig::default() };
        let half = serve_head("", 64) + "{";
        let oversize = serve_head("", 999_999_999);
        let framing = [
            ("oversize", &cfg, oversize.as_str(), Some(413)),
            ("no length", &cfg, "POST /v1/serve HTTP/1.1\r\n\r\n", Some(411)),
            ("stall", &short_timeout, half.as_str(), Some(408)),
            ("disconnect", &cfg, half.as_str(), None),
        ];
        for (name, cfg, head, status) in framing {
            let (mut stream, handler) = conn(&shared, cfg);
            stream.write_all(head.as_bytes()).expect("write");
            match status {
                Some(status) => {
                    let got = read_response(&mut stream).expect("response").status;
                    assert_eq!(got, status, "{name}");
                }
                None => {
                    wait_for("the half request to be read", || receiving(&shared) == 1);
                    drop(stream);
                }
            }
            handler.join().expect("handler returns");
            assert_eq!(receiving(&shared), 0, "after {name}");
        }
    }

    /// A connection that sent half a request makes other clients' fan-outs
    /// linger, but only for `coalesce_window`, never for as long as the
    /// half request stays open (`read_timeout`, 30 s here).
    #[test]
    fn a_half_sent_request_delays_others_by_at_most_the_window() {
        let _serial = batcher_tests();
        let window = Duration::from_millis(100);
        let handle = spawn(
            Arc::new(EpochSlot::new(test_epoch())),
            ServeConfig {
                coalesce_window: window,
                read_timeout: Duration::from_secs(30),
                ..ServeConfig::default()
            },
        )
        .expect("spawn front end");
        let shared = Arc::clone(&handle.shared);
        let mut staller = TcpStream::connect(handle.addr()).expect("connect");
        staller
            .write_all((serve_head("", 64) + "{").as_bytes())
            .expect("write half a request");
        wait_for("the half request to be read", || receiving(&shared) == 1);

        let mut client = Client::connect(handle.addr(), Duration::from_secs(20)).expect("connect");
        let sent = Instant::now();
        client.post_batch(&test_batch()).expect("the lone client is served");
        let took = sent.elapsed();
        assert!(took >= window, "did not linger for the arriving request: {took:?}");
        assert!(took < Duration::from_secs(5), "linger not capped by the window: {took:?}");

        drop(staller);
        wait_for("the staller's count to drop", || receiving(&shared) == 0);
        handle.shutdown();
    }

    pub(crate) fn test_shared() -> Shared {
        Shared::new(Arc::new(EpochSlot::new(test_epoch())), 4)
    }

    fn test_epoch() -> mcond_core::EpochServer {
        use mcond_core::{Checkpoint, EpochServer};
        use mcond_gnn::{GnnKind, GnnModel};
        use mcond_graph::Graph;
        use mcond_linalg::DMat;
        use mcond_sparse::Coo;
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
        let model = GnnModel::new(GnnKind::Gcn, 2, 4, 2, 1);
        let ckpt = Checkpoint::new(graph, map.to_csr(), model).unwrap();
        EpochServer::new(ckpt.into_server(), "test")
    }

    /// One node the [`test_epoch`] server accepts.
    pub(crate) fn test_batch() -> NodeBatch {
        use mcond_linalg::DMat;
        use mcond_sparse::{Coo, Csr};
        let mut inc = Coo::new(1, 3);
        inc.push(0, 0, 1.0);
        NodeBatch {
            features: DMat::from_rows(&[&[1.0, 0.0]]),
            incremental: inc.to_csr(),
            interconnect: Csr::empty(1, 1),
            labels: vec![0],
        }
    }
}
