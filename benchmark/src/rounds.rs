//! The timed rounds. A run is many short rounds; each round does, in this
//! order, one `lib` block, one `http-1` block, one `http-2` block, one
//! `offline` block, one `boot` and one `promote`, with fixed operation
//! counts. Interleaving makes an interference burst on the shared host
//! hit every metric for a minority of rounds instead of one metric for
//! all of them; the quiet decile across rounds then leaves it out.

use crate::lifecycle::{check_response, Ctx, Stack, CLIENT_TIMEOUT};
use crate::stats::{median, percentile, Better};
use crate::workload::{Counts, HTTP2_CLIENTS};
use mcond_core::{GraphDelta, LiveBase};
use mcond_serve::{boot_slot, Client, Response};
use std::hint::black_box;
use std::io;
use std::time::Instant;

/// The per-round metrics, in the order a round reports them.
pub const ROUND_METRICS: [(&str, Better); 8] = [
    ("lib_p50_us", Better::Lower),
    ("lib_p90_us", Better::Lower),
    ("http_p50_us", Better::Lower),
    ("http_p90_us", Better::Lower),
    ("http_rps", Better::Higher),
    ("offline_nodes_per_s", Better::Higher),
    ("boot_ms", Better::Lower),
    ("promote_ms", Better::Lower),
];

/// Promotions per round; the round's value is their median.
pub const PROMOTES_PER_ROUND: usize = 5;

/// One value per [`ROUND_METRICS`] entry.
pub type RoundValues = [f64; ROUND_METRICS.len()];

/// A client's view of one request of the throughput block, handed back
/// to the main thread when the block is over.
struct Http2Reply {
    batch: usize,
    start_ns: u64,
    end_ns: u64,
    response: io::Result<Response>,
}

pub struct Rounds<'a> {
    stack: &'a Stack,
    counts: Counts,
    client: Client,
    clients2: Vec<Client>,
    /// Traced runs only: `serve.http.coalesced` / `serve.http.batches`
    /// summed over the throughput blocks.
    coalescing: Option<(u64, u64)>,
}

/// The front end's fan-out counters, from the registry `GET /metrics`
/// serialises.
fn coalesce_counters() -> (u64, u64) {
    let snap = mcond_obs::snapshot();
    (
        snap.counter("serve.http.coalesced"),
        snap.counter("serve.http.batches"),
    )
}

/// p90 where the block's sample supports it (every full-size block
/// does); a `--smoke` block of a tenth the size reports its median there.
fn p50_p90(us: &[f64]) -> (f64, f64) {
    let p50 = percentile(us, 0.5).expect("a block has requests");
    (p50, percentile(us, 0.9).unwrap_or(p50))
}

fn micros(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

impl<'a> Rounds<'a> {
    pub fn new(stack: &'a Stack, counts: Counts, traced: bool) -> Result<Self, String> {
        let connect = || {
            Client::connect(stack.handle.addr(), CLIENT_TIMEOUT)
                .map_err(|e| format!("connect: {e}"))
        };
        let clients2 = (0..HTTP2_CLIENTS)
            .map(|_| connect())
            .collect::<Result<_, _>>()?;
        let coalescing = traced.then_some((0, 0));
        Ok(Self {
            stack,
            counts,
            client: connect()?,
            clients2,
            coalescing,
        })
    }

    /// Requests per fan-out over the throughput blocks so far (traced
    /// runs only).
    #[allow(clippy::cast_precision_loss)]
    pub fn coalesce_mean(&self) -> Option<f64> {
        self.coalescing
            .map(|(coalesced, batches)| coalesced as f64 / batches as f64)
    }

    /// One closed-loop keep-alive client on `GET /healthz`: the cost of a
    /// request that carries no body and does no model work.
    pub fn healthz_block(&mut self, n: usize, ctx: &mut Ctx) -> Result<Vec<f64>, String> {
        let mut us = Vec::with_capacity(n);
        for _ in 0..n {
            ctx.tally.attempted += 1;
            let t = Instant::now();
            let resp = self.client.request("GET", "/healthz", b"");
            us.push(micros(t));
            if resp.map_err(|e| format!("healthz: transport: {e}"))?.status != 200 {
                ctx.tally.failed += 1;
            }
        }
        Ok(us)
    }

    /// `try_serve` from one caller, straight on the boot epoch.
    pub fn lib_block(&mut self, ctx: &mut Ctx) -> Result<Vec<f64>, String> {
        let Stack {
            inputs,
            expected,
            slot,
            ..
        } = self.stack;
        let epoch = slot.load();
        let server = epoch.server();
        let block = ctx.rec.enter("block.lib", 0);
        let mut us = Vec::with_capacity(self.counts.lib);
        for i in 0..self.counts.lib {
            let b = i % inputs.batches.len();
            ctx.tally.attempted += 1;
            let request = ctx.rec.new_request();
            let span = ctx.rec.enter("request.lib", request);
            let t = Instant::now();
            let out = server.try_serve(black_box(&inputs.batches[b]));
            let dt = micros(t);
            ctx.rec.exit(span);
            match out {
                Ok(logits) if logits.bit_eq(&expected[b]) => us.push(dt),
                Ok(_) => return Err(format!("lib: batch {b} changed its answer between calls")),
                Err(_) => {
                    ctx.tally.failed += 1;
                    us.push(f64::INFINITY);
                }
            }
        }
        ctx.rec.exit(block);
        Ok(us)
    }

    /// `POST /v1/serve` from one closed-loop keep-alive client. The timed
    /// interval is first byte written to last byte read; decoding and the
    /// bitwise check come after it.
    pub fn http1_block(&mut self, ctx: &mut Ctx) -> Result<Vec<f64>, String> {
        let Stack {
            inputs, expected, ..
        } = self.stack;
        let block = ctx.rec.enter("block.http1", 0);
        let mut us = Vec::with_capacity(self.counts.http1);
        for i in 0..self.counts.http1 {
            let b = i % inputs.batches.len();
            ctx.tally.attempted += 1;
            let request = ctx.rec.new_request();
            let span = ctx.rec.enter("request.http", request);
            let t = Instant::now();
            let resp = self
                .client
                .request("POST", "/v1/serve", inputs.bodies[b].as_bytes());
            let dt = micros(t);
            ctx.rec.exit(span);
            let resp = resp.map_err(|e| format!("http-1: transport: {e}"))?;
            let span = ctx.rec.enter("client.decode_check", request);
            let ok = check_response(&resp, &expected[b], "http-1")?;
            ctx.rec.exit(span);
            if ok {
                us.push(dt);
            } else {
                ctx.tally.failed += 1;
                us.push(f64::INFINITY);
            }
        }
        ctx.rec.exit(block);
        Ok(us)
    }

    /// Throughput: [`HTTP2_CLIENTS`] closed-loop clients, no more load
    /// threads than cores. Completed 200s over the block's wall time;
    /// responses are checked once the clock has stopped, so the clients'
    /// own decoding does not compete with the server for the two cores.
    pub fn http2_block(&mut self, ctx: &mut Ctx) -> Result<f64, String> {
        let Stack {
            inputs, expected, ..
        } = self.stack;
        let per_client = self.counts.http2 / HTTP2_CLIENTS;
        let origin = ctx.rec.origin();
        let before = self.coalescing.map(|_| coalesce_counters());
        let block = ctx.rec.enter("block.http2", 0);
        let t = Instant::now();
        let replies: Vec<Vec<Http2Reply>> = std::thread::scope(|s| {
            let workers: Vec<_> = self
                .clients2
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    s.spawn(move || {
                        (0..per_client)
                            .map(|i| {
                                let batch = (c + i * HTTP2_CLIENTS) % inputs.batches.len();
                                let start = Instant::now();
                                let response = client.request(
                                    "POST",
                                    "/v1/serve",
                                    inputs.bodies[batch].as_bytes(),
                                );
                                let end = Instant::now();
                                let ns = |at: Instant| {
                                    u64::try_from(at.duration_since(origin).as_nanos())
                                        .unwrap_or(u64::MAX)
                                };
                                Http2Reply {
                                    batch,
                                    start_ns: ns(start),
                                    end_ns: ns(end),
                                    response,
                                }
                            })
                            .collect()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("load client panicked"))
                .collect()
        });
        let wall = t.elapsed().as_secs_f64();
        ctx.rec.exit(block);
        if let (Some(sum), Some(before)) = (&mut self.coalescing, before) {
            let after = coalesce_counters();
            *sum = (sum.0 + after.0 - before.0, sum.1 + after.1 - before.1);
        }
        let mut ok = 0u32;
        for reply in replies.into_iter().flatten() {
            ctx.tally.attempted += 1;
            let request = ctx.rec.new_request();
            ctx.rec.add(
                "request.http",
                block,
                (reply.start_ns, reply.end_ns),
                request,
            );
            let resp = reply
                .response
                .map_err(|e| format!("http-2: transport: {e}"))?;
            if check_response(&resp, &expected[reply.batch], "http-2")? {
                ok += 1;
            } else {
                ctx.tally.failed += 1;
            }
        }
        Ok(f64::from(ok) / wall)
    }

    /// `try_serve_many` over slates of every test node: batch-level
    /// fan-out over the pool, the paper's evaluate-all-test-nodes use.
    pub fn offline_block(&mut self, ctx: &mut Ctx) -> Result<f64, String> {
        let Stack {
            inputs,
            expected,
            slot,
            ..
        } = self.stack;
        let epoch = slot.load();
        let block = ctx.rec.enter("block.offline", 0);
        let mut nodes = 0usize;
        let t = Instant::now();
        let slates: Vec<_> = (0..self.counts.offline_slates)
            .map(|_| epoch.server().try_serve_many(black_box(&inputs.batches)))
            .collect();
        let wall = t.elapsed().as_secs_f64();
        ctx.rec.exit(block);
        for slate in slates {
            for (b, out) in slate.into_iter().enumerate() {
                ctx.tally.attempted += 1;
                match out {
                    Ok(logits) if logits.bit_eq(&expected[b]) => nodes += logits.rows(),
                    Ok(_) => return Err(format!("offline: batch {b} differs from try_serve")),
                    Err(_) => ctx.tally.failed += 1,
                }
            }
        }
        #[allow(clippy::cast_precision_loss)]
        Ok(nodes as f64 / wall)
    }

    /// `boot_slot`: read + CRC + validate + build server, the reload and
    /// cold-start cost.
    pub fn boot_block(&mut self, ctx: &mut Ctx) -> Result<f64, String> {
        ctx.tally.attempted += 1;
        let span = ctx.rec.enter("block.boot", 0);
        let t = Instant::now();
        let slot = boot_slot(black_box(&self.stack.path));
        let dt = t.elapsed().as_secs_f64() * 1e3;
        ctx.rec.exit(span);
        let slot = slot.map_err(|e| format!("re-boot of the saved checkpoint: {e}"))?;
        if slot.load().checkpoint_id() != self.stack.checkpoint_id {
            return Err("re-boot loaded a different checkpoint than the first boot".to_owned());
        }
        Ok(dt)
    }

    /// The write path beside the reads: on a fresh `LiveBase` built
    /// untimed from copies of the boot graph and mapping, promote one
    /// test batch and serve the next on the grown base. A sub-millisecond
    /// one-shot, so a round takes the median of [`PROMOTES_PER_ROUND`].
    pub fn promote_block(&mut self, ctx: &mut Ctx) -> Result<f64, String> {
        let Stack {
            inputs,
            ckpt,
            model,
            ..
        } = self.stack;
        let next = &inputs.batches[1 % inputs.batches.len()];
        let mut ms = Vec::with_capacity(PROMOTES_PER_ROUND);
        for _ in 0..PROMOTES_PER_ROUND {
            let mut live = LiveBase::synthetic(ckpt.synthetic.clone(), ckpt.mapping.clone());
            let delta = GraphDelta::from_batch(&inputs.batches[0]);
            ctx.tally.attempted += 2;
            let span = ctx.rec.enter("block.promote", 0);
            let t = Instant::now();
            let promoted = live.promote(black_box(&delta));
            let served = live.server(model).try_serve(black_box(next));
            let dt = t.elapsed().as_secs_f64() * 1e3;
            ctx.rec.exit(span);
            promoted.map_err(|e| format!("promote refused a served batch: {e}"))?;
            match served {
                Ok(logits) if logits.rows() == next.len() && logits.all_finite() => ms.push(dt),
                Ok(_) => {
                    return Err("promote: the grown base answered with malformed logits".into())
                }
                Err(_) => {
                    ctx.tally.failed += 1;
                    ms.push(f64::INFINITY);
                }
            }
        }
        Ok(median(&ms))
    }

    /// One round at a tenth of the counts, discarded: the stack's set-up
    /// already sent every batch through both paths, this warms what it did
    /// not touch — the pool, the throughput clients' connections, the
    /// boot and promote paths.
    pub fn warm_up(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        let full = self.counts;
        self.counts = full.tenth();
        let round = self.round(ctx);
        self.counts = full;
        round.map(|_| ())
    }

    /// One full round, blocks in protocol order.
    pub fn round(&mut self, ctx: &mut Ctx) -> Result<RoundValues, String> {
        let span = ctx.rec.enter("round", 0);
        let (lib_p50, lib_p90) = p50_p90(&self.lib_block(ctx)?);
        let (http_p50, http_p90) = p50_p90(&self.http1_block(ctx)?);
        let http_rps = self.http2_block(ctx)?;
        let offline_nodes_per_s = self.offline_block(ctx)?;
        let boot_ms = self.boot_block(ctx)?;
        let promote_ms = self.promote_block(ctx)?;
        ctx.rec.exit(span);
        Ok([
            lib_p50,
            lib_p90,
            http_p50,
            http_p90,
            http_rps,
            offline_nodes_per_s,
            boot_ms,
            promote_ms,
        ])
    }
}
