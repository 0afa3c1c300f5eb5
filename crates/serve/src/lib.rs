//! # mcond-serve — std-only HTTP serving front end
//!
//! Puts a socket in front of [`mcond_core::InductiveServer`]: the MCond
//! deployment story (PAPER.md) is that inductive inference over the
//! condensed mapping is cheap enough to serve interactively, and this
//! crate is where that claim meets a wire. Hermeticity rule as
//! everywhere in the workspace — `std::net::TcpListener` plus a small
//! incremental HTTP/1.1 parser, no external crates.
//!
//! ## Endpoints
//!
//! | route | body | reply |
//! |---|---|---|
//! | `POST /v1/serve` | JSON [`NodeBatch`](mcond_graph::NodeBatch) (see [`codec`]) | `{"trace", "rows", "cols", "logits"}` + `x-mcond-trace` / `x-mcond-epoch` headers |
//! | `POST /v1/admin/reload` | `{"path": "model.mckpt"}` | `{"epoch", "checkpoint"}` after validated-load + canary + swap |
//! | `GET /metrics` | — | JSONL: per-server `metrics_snapshot()` line + process-wide registry line |
//! | `GET /healthz` | — | `{"status", "epoch", "checkpoint", "queue_depth", "heartbeat_age_ms", ...}`; `503` mid-restart or draining |
//!
//! ## Behaviour under load
//!
//! The batcher merges every queued request into one `try_serve_many`
//! fan-out (adaptive micro-batching over the `mcond-par` pool) and
//! dispatches at once. It waits for more only when it sees company, and
//! never longer than [`ServeConfig::coalesce_window`]: while another
//! connection has sent part of a request, and, after a fan-out that
//! carried more than one request, until a window after that dispatch. So
//! a lone request is not delayed, and under concurrent load fan-outs are a
//! window apart, each carrying what arrived in it. Panic isolation in the
//! fan-out
//! means a poisoned request answers `500` while its coalesced siblings
//! answer `200`. A bounded job queue plus a queue-wait EWMA shed excess
//! load with `429` + `Retry-After` and recover on their own once
//! pressure drops. Every [`mcond_core::ServeError`] maps to a stable
//! HTTP status ([`serve_error_status`]).
//!
//! ```no_run
//! use mcond_serve::{boot_slot, spawn, Client, ServeConfig};
//! use std::time::Duration;
//!
//! let slot = boot_slot("model.mckpt")?;
//! let handle = spawn(slot, ServeConfig::default())?;
//! println!("serving epoch {} on {}", handle.epoch(), handle.addr());
//! // Later, under traffic — validated load + canary + atomic swap:
//! // handle.reload("model-v2.mckpt")?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Supervision
//!
//! The batcher runs under a watchdog: a stalled or panicked worker is
//! detected within [`ServeConfig::watchdog_period`], its orphaned jobs
//! answer typed `503`s, and a replacement takes over the (intact) queue.
//! Per-request deadline budgets (`x-mcond-deadline-ms` header or
//! [`ServeConfig::default_deadline`]) expire queued work with `503`
//! instead of serving answers nobody is waiting for, and
//! [`ServeHandle::shutdown`] drains gracefully — every admitted request
//! gets exactly one response before the process exits.
//!
//! The [`chaos`] module exports the malformed-HTTP corpus the protocol
//! test suite drives, in the same catalogue style as
//! [`mcond_core::chaos`].

#![forbid(unsafe_code)]

mod batcher;
pub mod boot;
pub mod chaos;
pub mod client;
pub mod codec;
pub mod front;
pub mod http;
mod queue;
pub mod reload;

pub use boot::boot_slot;
pub use client::{Client, PostError, Response, ServeReply};
pub use codec::{
    decode_batch, decode_logits, encode_batch, encode_logits, CodecError, MAX_WIRE_COLS,
};
pub use front::{serve_error_status, spawn, ServeConfig, ServeHandle};
pub use http::{HttpError, HttpLimits};
pub use reload::{ReloadError, ReloadOutcome};
