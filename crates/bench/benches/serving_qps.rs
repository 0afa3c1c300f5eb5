//! Closed-loop HTTP serving load generator: p50/p99 latency vs offered
//! QPS over a real localhost socket.
//!
//! A pubmed-small checkpoint (original training graph behind an identity
//! mapping) is saved to disk, booted through the owned-epoch path
//! (`boot_slot`), and served behind the `mcond-serve` front end — the
//! same artifact-file lifecycle production uses, with nothing leaked.
//! Before any timing, every batch's HTTP response is verified bitwise
//! identical to a direct `try_serve` call, so the numbers below are for
//! provably-correct responses; then 50 hot reloads of the same bundle
//! must leave process RSS flat — the guard that the epoch machinery
//! actually frees retired checkpoints. Each offered-QPS level runs a
//! paced closed-loop: every client thread schedules sends at its share
//! of the offered rate but never pipelines — it waits for each response
//! before the next send, so latency feedback throttles the achieved rate
//! the way real callers do. Shed responses (429) are counted separately
//! and excluded from the latency distribution.
//!
//! Knobs: `MCOND_QPS_MS` (per-level duration, default 1500),
//! `MCOND_QPS_CLIENTS` (client threads, default 4).
//!
//! Output: `results/BENCH_serving_qps.json`.

use mcond_bench::{print_table, Row, TableReport};
use mcond_core::Checkpoint;
use mcond_gnn::{GnnKind, GnnModel};
use mcond_graph::{load_dataset, NodeBatch, Scale};
use mcond_serve::{boot_slot, spawn, Client, PostError, ServeConfig};
use mcond_sparse::Csr;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const OFFERED_QPS: [f64; 3] = [100.0, 400.0, 1600.0];
/// Hot reloads the RSS-flatness guard performs.
const RELOADS: usize = 50;

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

/// Resident set size in KiB from `/proc/self/status` (Linux only; `None`
/// elsewhere, which skips the flatness assertion).
fn rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

struct LevelOutcome {
    latencies_us: Vec<f64>,
    shed: u64,
    elapsed: Duration,
}

/// One closed-loop level: `clients` threads pace sends to hit
/// `offered_qps` in aggregate, each waiting for its response before the
/// next scheduled send.
fn run_level(
    addr: SocketAddr,
    batches: &Arc<Vec<NodeBatch>>,
    offered_qps: f64,
    clients: usize,
    duration: Duration,
) -> LevelOutcome {
    let latencies = Arc::new(Mutex::new(Vec::new()));
    let shed = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    #[allow(clippy::cast_precision_loss)]
    let interval = Duration::from_secs_f64(clients as f64 / offered_qps);
    let workers: Vec<_> = (0..clients)
        .map(|t| {
            let batches = Arc::clone(batches);
            let latencies = Arc::clone(&latencies);
            let shed = Arc::clone(&shed);
            std::thread::spawn(move || {
                let mut client =
                    Client::connect(addr, Duration::from_secs(30)).expect("connect");
                // Stagger thread phases so the aggregate arrival process
                // is smooth rather than `clients`-bursty.
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
                    let sent = Instant::now();
                    match client.post_batch(&batches[i % batches.len()]) {
                        Ok(_) => {
                            local.push(sent.elapsed().as_secs_f64() * 1e6);
                        }
                        Err(PostError::Http { status: 429, .. }) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                            // Count the slot as used so pacing holds.
                            local.push(f64::NAN);
                        }
                        Err(e) => panic!("client {t}: {e}"),
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
    let elapsed = start.elapsed();
    let mut latencies_us = Arc::try_unwrap(latencies).unwrap().into_inner().unwrap();
    latencies_us.sort_by(f64::total_cmp);
    LevelOutcome { latencies_us, shed: shed.load(Ordering::Relaxed), elapsed }
}

fn main() {
    let data = load_dataset("pubmed", Scale::Small, 0).expect("pubmed generator");
    let original = data.original_graph();
    let n_train = original.num_nodes();
    let model = GnnModel::new(
        GnnKind::Gcn,
        data.full.feature_dim(),
        16,
        data.full.num_classes,
        2,
    );
    // Identity mapping over the training graph: the original-graph serving
    // setting (Eq. 3) expressed as a bootable checkpoint artifact.
    let ckpt = Checkpoint::new(original, Csr::eye(n_train), model).expect("bundle agrees");
    let ckpt_path = std::env::temp_dir()
        .join(format!("mcond_bench_qps_{}.mcst", std::process::id()));
    let ckpt_bytes = ckpt.save(&ckpt_path).expect("save checkpoint");
    drop(ckpt);

    let slot = boot_slot(&ckpt_path).expect("boot from checkpoint");
    let batches = Arc::new(data.test_batches(25, true));

    let handle = spawn(Arc::clone(&slot), ServeConfig::default()).expect("spawn front end");
    let addr = handle.addr();

    // Correctness before latency: every batch's HTTP logits must be
    // bitwise identical to the direct library call on the boot epoch.
    {
        let epoch = slot.load();
        let mut client = Client::connect(addr, Duration::from_secs(30)).expect("connect");
        for (i, batch) in batches.iter().enumerate() {
            let direct = epoch.server().try_serve(batch).expect("batch valid");
            let (_, wire) = client.post_batch(batch).expect("HTTP serve");
            assert!(
                wire.bit_eq(&direct),
                "batch {i}: HTTP response diverged from try_serve — refusing to time"
            );
        }
        println!(
            "verified {} batches bitwise identical over the socket",
            batches.len()
        );
    }

    // Leak guard: 50 hot reloads of the same bundle must leave RSS flat.
    // Every reload loads + canaries + installs a fresh epoch; the retired
    // one must free once the slot drops it — per-reload growth means the
    // `Box::leak` era came back.
    {
        let before_kb = rss_kb();
        for i in 0..RELOADS {
            handle.reload(&ckpt_path).unwrap_or_else(|e| panic!("reload {i}: {e}"));
        }
        assert_eq!(handle.epoch(), 1 + RELOADS as u64, "one epoch per reload");
        if let (Some(before), Some(after)) = (before_kb, rss_kb()) {
            let growth_kb = after.saturating_sub(before);
            let ckpt_kb = ckpt_bytes.div_ceil(1024);
            // A real leak retains ~RELOADS× the checkpoint; allow ample
            // allocator noise below that.
            let budget_kb = (10 * ckpt_kb).max(16 * 1024);
            println!(
                "rss after {RELOADS} reloads: {before} KiB -> {after} KiB \
                 (growth {growth_kb} KiB, budget {budget_kb} KiB, bundle {ckpt_kb} KiB)"
            );
            assert!(
                growth_kb < budget_kb,
                "process RSS grew {growth_kb} KiB across {RELOADS} reloads \
                 (budget {budget_kb} KiB): retired epochs are not being freed"
            );
        } else {
            println!("rss flatness guard skipped: /proc/self/status unavailable");
        }
    }

    let duration = Duration::from_millis(env_usize("MCOND_QPS_MS", 1500) as u64);
    let clients = env_usize("MCOND_QPS_CLIENTS", 4);
    let mut report =
        TableReport::new("closed-loop serving latency vs offered QPS (pubmed-small, Eq. 3)");
    for offered in OFFERED_QPS {
        let out = run_level(addr, &batches, offered, clients, duration);
        #[allow(clippy::cast_precision_loss)]
        let achieved = out.latencies_us.len() as f64 / out.elapsed.as_secs_f64();
        report.push(
            Row::new()
                .key("offered_qps", format!("{offered}"))
                .metric("achieved_qps", achieved)
                .metric("p50_us", percentile(&out.latencies_us, 0.50))
                .metric("p99_us", percentile(&out.latencies_us, 0.99))
                .metric("requests", out.latencies_us.len() as f64)
                .metric("shed", out.shed as f64),
        );
    }
    report.attach_metrics(&mcond_obs::snapshot());
    print_table(&report);
    report.dump_bench_json("BENCH_serving_qps");
    handle.shutdown();
    std::fs::remove_file(&ckpt_path).ok();
}
