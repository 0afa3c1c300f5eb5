//! Hot-swap latency impact: serving p50/p99 with and without a concurrent
//! checkpoint reload storm.
//!
//! Two bitwise-distinct pubmed-small checkpoints (same shapes, different
//! weight seeds) alternate through `ServeHandle::reload` while paced
//! closed-loop clients hammer `/v1/serve`. Every response is verified
//! against the exact checkpoint its `x-mcond-epoch` header claims — the
//! benchmark refuses to report latencies for answers that are not
//! provably epoch-consistent. The headline comparison is the baseline
//! phase (no reloads) against the storm phase (a reload every few
//! milliseconds): the epoch-slot design claims a swap is one pointer
//! exchange, so the p99 delta is the honest price of hot reloading.
//!
//! Knobs: `MCOND_RELOAD_MS` (per-phase duration, default 1500),
//! `MCOND_RELOAD_CLIENTS` (client threads, default 4),
//! `MCOND_RELOAD_QPS` (aggregate offered rate, default 200).
//!
//! Output: `results/BENCH_reload_swap.json`.

use mcond_bench::{print_table, Row, TableReport};
use mcond_core::{Checkpoint, InductiveServer};
use mcond_gnn::{GnnKind, GnnModel};
use mcond_graph::{load_dataset, NodeBatch, Scale};
use mcond_serve::{boot_slot, spawn, Client, PostError, ServeConfig, ServeHandle};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Per-batch expected logits for both checkpoints: epoch parity decides
/// which one a given answer must match (boot = A = odd epochs, every
/// reload alternates starting with B).
struct Expected {
    a: Vec<Vec<f32>>,
    b: Vec<Vec<f32>>,
}

impl Expected {
    fn verify(&self, batch_idx: usize, epoch: u64, logits: &[f32]) {
        let want = if epoch % 2 == 1 { &self.a[batch_idx] } else { &self.b[batch_idx] };
        assert_eq!(
            logits,
            want.as_slice(),
            "batch {batch_idx} on epoch {epoch}: logits are not bitwise the checkpoint \
             this epoch installed — refusing to report latencies for wrong answers"
        );
    }
}

struct PhaseOutcome {
    latencies_us: Vec<f64>,
    shed: u64,
    requests: usize,
}

/// One paced closed-loop phase with per-response epoch verification.
fn run_phase(
    addr: SocketAddr,
    batches: &Arc<Vec<NodeBatch>>,
    expected: &Arc<Expected>,
    offered_qps: f64,
    clients: usize,
    duration: Duration,
) -> PhaseOutcome {
    let latencies = Arc::new(Mutex::new(Vec::new()));
    let shed = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    #[allow(clippy::cast_precision_loss)]
    let interval = Duration::from_secs_f64(clients as f64 / offered_qps);
    let workers: Vec<_> = (0..clients)
        .map(|t| {
            let batches = Arc::clone(batches);
            let expected = Arc::clone(expected);
            let latencies = Arc::clone(&latencies);
            let shed = Arc::clone(&shed);
            std::thread::spawn(move || {
                let mut client =
                    Client::connect(addr, Duration::from_secs(30)).expect("connect");
                let phase = interval.mul_f64(t as f64 / clients as f64);
                let mut local = Vec::new();
                let mut i = t;
                loop {
                    let k = local.len() as u32;
                    let due = start + phase + interval * k;
                    let now = Instant::now();
                    if now.duration_since(start) >= duration {
                        break;
                    }
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let batch_idx = i % batches.len();
                    let sent = Instant::now();
                    match client.post_batch_tagged(&batches[batch_idx]) {
                        Ok(reply) => {
                            let epoch =
                                reply.epoch.expect("every response carries x-mcond-epoch");
                            expected.verify(batch_idx, epoch, reply.logits.as_slice());
                            local.push(sent.elapsed().as_secs_f64() * 1e6);
                        }
                        Err(PostError::Http { status: 429, .. }) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                            local.push(f64::NAN);
                        }
                        Err(e) => panic!("client {t}: non-200 under the storm: {e}"),
                    }
                    i += 1;
                }
                let mut all = latencies.lock().unwrap();
                all.extend(local.into_iter().filter(|v| v.is_finite()));
            })
        })
        .collect();
    for w in workers {
        w.join().expect("load client panicked");
    }
    let mut latencies_us = Arc::try_unwrap(latencies).unwrap().into_inner().unwrap();
    latencies_us.sort_by(f64::total_cmp);
    let requests = latencies_us.len();
    PhaseOutcome { latencies_us, shed: shed.load(Ordering::Relaxed), requests }
}

/// Alternates reloads B, A, B, ... (preserving the epoch-parity contract)
/// until `stop`; returns the number of swaps performed.
fn reload_storm(
    handle: &ServeHandle,
    path_a: &PathBuf,
    path_b: &PathBuf,
    stop: &AtomicBool,
) -> usize {
    let mut n = 0usize;
    while !stop.load(Ordering::Acquire) {
        let path = if n.is_multiple_of(2) { path_b } else { path_a };
        handle.reload(path).unwrap_or_else(|e| panic!("reload {n}: {e}"));
        n += 1;
        std::thread::sleep(Duration::from_millis(5));
    }
    n
}

fn main() {
    let data = load_dataset("pubmed", Scale::Small, 0).expect("pubmed generator");
    let original = data.original_graph();
    let n_train = original.num_nodes();
    let make_ckpt = |seed: u64| {
        let model = GnnModel::new(
            GnnKind::Gcn,
            data.full.feature_dim(),
            16,
            data.full.num_classes,
            seed,
        );
        Checkpoint::new(original.clone(), mcond_sparse::Csr::eye(n_train), model)
            .expect("bundle agrees")
    };
    let ckpt_a = make_ckpt(2);
    let ckpt_b = make_ckpt(3);
    let batches = Arc::new(data.test_batches(25, true));
    let expected = Arc::new(Expected {
        a: {
            let server = InductiveServer::from_checkpoint(&ckpt_a);
            batches
                .iter()
                .map(|b| server.try_serve(b).expect("valid").as_slice().to_vec())
                .collect()
        },
        b: {
            let server = InductiveServer::from_checkpoint(&ckpt_b);
            batches
                .iter()
                .map(|b| server.try_serve(b).expect("valid").as_slice().to_vec())
                .collect()
        },
    });
    assert_ne!(expected.a, expected.b, "checkpoints must be bitwise distinguishable");

    let pid = std::process::id();
    let path_a = std::env::temp_dir().join(format!("mcond_bench_swap_a_{pid}.mcst"));
    let path_b = std::env::temp_dir().join(format!("mcond_bench_swap_b_{pid}.mcst"));
    ckpt_a.save(&path_a).expect("save A");
    ckpt_b.save(&path_b).expect("save B");
    drop((ckpt_a, ckpt_b));

    let slot = boot_slot(&path_a).expect("boot from checkpoint A");
    let handle = spawn(slot, ServeConfig::default()).expect("spawn front end");
    let addr = handle.addr();

    let duration = Duration::from_millis(env_usize("MCOND_RELOAD_MS", 1500) as u64);
    let clients = env_usize("MCOND_RELOAD_CLIENTS", 4);
    #[allow(clippy::cast_precision_loss)]
    let qps = env_usize("MCOND_RELOAD_QPS", 200) as f64;

    let mut report = TableReport::new(
        "serving latency with vs without a concurrent checkpoint reload storm (pubmed-small)",
    );

    let baseline = run_phase(addr, &batches, &expected, qps, clients, duration);
    report.push(
        Row::new()
            .key("phase", "baseline")
            .metric("p50_us", percentile(&baseline.latencies_us, 0.50))
            .metric("p99_us", percentile(&baseline.latencies_us, 0.99))
            .metric("requests", baseline.requests as f64)
            .metric("shed", baseline.shed as f64)
            .metric("reloads", 0.0),
    );

    let stop = Arc::new(AtomicBool::new(false));
    let storm = std::thread::scope(|s| {
        let reloader = {
            let stop = Arc::clone(&stop);
            let (handle, path_a, path_b) = (&handle, &path_a, &path_b);
            s.spawn(move || reload_storm(handle, path_a, path_b, &stop))
        };
        let out = run_phase(addr, &batches, &expected, qps, clients, duration);
        stop.store(true, Ordering::Release);
        let reloads = reloader.join().expect("reloader panicked");
        (out, reloads)
    });
    let (storm_out, reloads) = storm;
    assert!(reloads > 0, "the storm phase must actually reload");
    assert_eq!(handle.epoch(), 1 + reloads as u64, "one epoch per swap");
    report.push(
        Row::new()
            .key("phase", "reload_storm")
            .metric("p50_us", percentile(&storm_out.latencies_us, 0.50))
            .metric("p99_us", percentile(&storm_out.latencies_us, 0.99))
            .metric("requests", storm_out.requests as f64)
            .metric("shed", storm_out.shed as f64)
            .metric("reloads", reloads as f64),
    );
    println!(
        "storm phase: {} requests verified epoch-true across {} hot swaps",
        storm_out.requests, reloads
    );

    report.attach_metrics(&mcond_obs::snapshot());
    print_table(&report);
    report.dump_bench_json("BENCH_reload_swap");
    handle.shutdown();
    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_b).ok();
}
