//! Observability substrate for the `mcond` workspace.
//!
//! Everything the condense→train→serve pipeline reports — hierarchical
//! timing spans, per-step losses, kernel work counters, serving latency
//! histograms — flows through this crate. It is deliberately dependency-free
//! (std only): the workspace builds hermetically, so even JSON encoding is
//! in-repo ([`json::Json`]).
//!
//! # Model
//!
//! * **Spans** ([`span`], [`span_with`], [`span_timed`]) are RAII guards
//!   over a thread-local stack; closing one emits a `span` record with its
//!   wall-clock duration and slash-joined path. [`span_timed`] also feeds
//!   a named histogram, and keeps timing even when only metrics are on.
//! * **Traces** ([`begin_trace`], [`ensure_trace`]) stamp a request-scoped
//!   id (the `trace` record field) onto every span/point emitted in scope;
//!   [`capture_context`]/[`TraceContext::enter`] carry that id — and the
//!   span path — across threads so pool workers attribute to the owning
//!   request.
//! * **Points** ([`point`]) are one-shot named measurements with structured
//!   fields (losses per step, sparsification counts, …).
//! * **Metrics** ([`counter_add`], [`gauge_set`], [`histogram_record`])
//!   aggregate in a thread-sharded registry (one shard per live thread;
//!   an exiting thread folds its shard into a retired one, so a server
//!   that spawns a thread per connection does not grow); [`snapshot`]
//!   merges the shards into a [`MetricsSnapshot`] for reports and
//!   [`emit_snapshot`] writes them to the event log.
//! * **Profiler** ([`profile::start`], [`profile::stop`]) folds span
//!   closes into a call-tree [`Profile`] (calls, total/self µs per path)
//!   with text-table and folded-stack renderings; [`Profile::from_jsonl`]
//!   does the same offline for any JSONL log.
//! * **Flight recorder** ([`flight::enable`], [`flight::dump`]) keeps a
//!   bounded per-thread ring of recent events (allocation-free after
//!   warm-up) that the serving layer dumps when a request panics.
//!
//! # Sinks
//!
//! Configured once from the environment (see [`sink`] docs): `MCOND_LOG`
//! selects the destination (`off` default, `stderr`, `pretty`, `jsonl`, or
//! a file path) and `MCOND_LOG_FORMAT` forces `pretty` or `jsonl`. With no
//! sink every probe is one relaxed atomic load — the hot kernels rely on
//! this being free.
//!
//! # Well-known metric names
//!
//! The serving layer (`mcond-core`'s `InductiveServer`) both keeps
//! per-server statistics and mirrors its failure tallies into the global
//! registry under stable names:
//!
//! * `serve.requests` — answered requests (per-server snapshot only);
//! * `serve.rejected` — requests refused with a typed `ServeError`
//!   (validation failure, batch cap, non-finite logits);
//! * `serve.fallback` — *nodes* (not requests) whose attachment row was
//!   empty, served from their self-loop;
//! * `serve.panic` — requests whose internal panic was caught at the
//!   `try_serve_many` request boundary.
//!
//! `mcond-gnn`'s `FrozenBase` predictor records `gnn.frozen.build_us`, a
//! histogram of wall µs per cache build (the `frozen_base.build` span).
//!
//! The live-graph ingestion path (`mcond-core`'s `LiveBase`) reports its
//! promotion and refresh activity under the `delta.*` prefix:
//!
//! * `delta.promotions` — promotion calls that grew the base;
//! * `delta.promoted_nodes` — nodes promoted into the base (a promotion
//!   may carry several);
//! * `delta.edges` — attachment + interconnect edges absorbed by
//!   promotions;
//! * `delta.refreshes` — incremental refreshes (Eq. 12–15 re-run + log
//!   replay);
//! * `delta.refresh.ms` — histogram: wall milliseconds per refresh.
//!
//! The serving stage timers decompose every request's latency into the
//! paper's Eq. 11 pipeline, one histogram per stage (µs), recorded by
//! `span_timed` under the `serve` span:
//!
//! * `serve.stage.validate` — structural batch validation + batch cap;
//! * `serve.stage.attach` — incremental attachment build, coverage and
//!   the empty-row count (Eq. 10's `aM` row assembly);
//! * `serve.stage.propagate` — operator assembly + GNN forward
//!   (Eq. 11's propagation over the extended graph);
//! * `serve.stage.head` — output finalisation (finiteness audit).
//!
//! Span and point records carry a `trace` field (a process-unique positive
//! integer) when emitted inside a request scope; `try_serve*` assigns one
//! id per request, and pool workers inherit the submitter's id.
//!
//! Per-server snapshots additionally carry the `serve.latency_us`,
//! `serve.fanout`, `serve.batch_size`, and `serve.coverage` histograms
//! (coverage: fraction of each node's *absolute* incremental mass
//! surviving the sparsified mapping, clamped to `[0, 1]`). The parallel
//! pool contributes `par.pool.tasks` and `par.pool.threads`.
//!
//! The HTTP front end (`mcond-serve`) adds its own family under
//! `serve.http.*`:
//!
//! * `serve.http.requests` — HTTP requests parsed off sockets (every
//!   route, including rejected ones);
//! * `serve.http.admitted` — `/v1/serve` requests that passed admission
//!   control and entered the batching queue;
//! * `serve.http.shed` — requests answered `429` by load shedding
//!   (queue at capacity or queue-wait EWMA over threshold);
//! * `serve.http.bad_requests` — `/v1/serve` bodies rejected by the
//!   wire codec (malformed JSON, non-UTF-8, out-of-range entries);
//! * `serve.http.protocol_errors` — connections dropped for HTTP
//!   framing violations (each also answers its typed 4xx/5xx);
//! * `serve.http.timeouts` — mid-frame read stalls answered `408` plus
//!   queue replies that missed the front end's `REPLY_TIMEOUT` (`504`);
//! * `serve.http.batches` / `serve.http.coalesced` — fan-outs executed
//!   and requests merged into them (their ratio is the effective
//!   coalescing factor; 1.0 means every request rode alone);
//! * `serve.http.stage.decode` — histogram (µs), one sample per
//!   `/v1/serve` body that was UTF-8: the wire codec turning it into a
//!   `NodeBatch` or a typed refusal (recorded by the connection handler);
//! * `serve.http.stage.encode` — histogram (µs), one sample per `200`:
//!   the logits written out as the reply body. With the two below these
//!   are four of the socket-to-socket stages; reading the request off the
//!   socket, parsing its head and writing the reply have none yet;
//! * `serve.http.stage.queue_wait` — histogram (µs), one sample per
//!   job: enqueue to dispatch, any linger included — the number the
//!   queue-wait EWMA is fed;
//! * `serve.http.stage.coalesce_wait` — histogram (µs), one sample per
//!   fan-out: first pop to dispatch, i.e. what the batcher spent
//!   gathering the batch. Near zero unless it lingered for a request a
//!   connection handler was still receiving, or gathered until a window
//!   after a fan-out that carried more than one job; never above
//!   `coalesce_window`;
//! * `serve.http.conns` / `serve.http.conns_rejected` — connections
//!   accepted / refused at the front end's `MAX_CONNECTIONS` bound;
//! * `serve.http.queue_depth`, `serve.http.queue_wait_ewma_us` —
//!   gauges: jobs waiting in the batching queue and the smoothed
//!   queue-wait backpressure signal;
//! * `serve.http.deadline_expired` — queued requests whose
//!   `x-mcond-deadline-ms` budget (or the configured default) ran out
//!   before fan-out; answered `503 deadline_exceeded`, never computed.
//!
//! Hot reload and batcher supervision emit `serve.reload.*` /
//! `serve.watchdog.*`:
//!
//! * `serve.reload.ok` — checkpoints validated, canaried, and swapped
//!   in (each bumps the serving epoch by exactly one);
//! * `serve.reload.failed` — reload attempts rejected by the store
//!   (CRC/shape/decode) or by the canary forward pass; the live epoch
//!   is untouched and the failure arms the exponential backoff;
//! * `serve.reload.rejected_busy` — attempts answered `409` because
//!   another reload held the admin lock;
//! * `serve.reload.rejected_backoff` — attempts answered `429` inside
//!   the post-failure backoff window;
//! * `serve.reload.epoch` — gauge: the currently serving epoch
//!   (mirrors the `x-mcond-epoch` response header);
//! * `serve.reload.ms` — histogram: wall time of successful reloads,
//!   load through swap;
//! * `serve.watchdog.restarts` — batcher threads respawned after a
//!   missed heartbeat (panic or stall); the flight recorder dumps a
//!   `serve.watchdog.stall` report on each;
//! * `serve.watchdog.orphans` — in-flight requests answered a typed
//!   `503` because their batcher generation was retired mid-service.
//!
//! # Example
//! ```
//! let _capture = mcond_obs::testing::capture();
//! {
//!     let mut s = mcond_obs::span_with("demo", vec![("n", 4u64.into())]);
//!     mcond_obs::point("demo.step", &[("loss", 0.5f32.into())]);
//!     s.record("result", 1u64);
//! }
//! let lines = _capture.parsed_lines();
//! assert_eq!(lines.len(), 3); // span_start, point, span
//! ```

#![forbid(unsafe_code)]

pub mod flight;
pub mod json;
mod metrics;
pub mod profile;
mod sink;
mod span;
mod trace;

pub use json::Json;
pub use metrics::{
    counter_add, emit_snapshot, gauge_set, histogram_record, reset_metrics, snapshot, Histogram,
    HistogramSummary, MetricsSnapshot,
};
pub use profile::{Profile, ProfileEntry};
pub use sink::{enable_metrics, enabled, metrics_on, point, testing, thread_id, Field, LogFormat};
pub use span::{span, span_timed, span_with, SpanGuard};
pub use trace::{
    begin_trace, capture_context, current_trace, ensure_trace, ContextGuard, TraceContext,
    TraceGuard,
};
