//! Overhead of the observability substrate across its operating points:
//!
//! * **Sink off** (the production default) — every probe must collapse to
//!   one relaxed atomic load; the raw loop and the probed loop should be
//!   indistinguishable.
//! * **Metrics on** — the sharded registry versus an in-bench
//!   reproduction of the old design (one process-wide `Mutex<BTreeMap>`
//!   every probe contends on), hammered at 1 and 4 threads through the
//!   same `mcond_par` fan-out serving uses. The report carries the
//!   `speedup_vs_global_lock` the sharding buys under contention. Note
//!   the `host_threads` row when reading it: on a single-core host the
//!   4 threads timeslice instead of contending, the global lock is never
//!   held by a running thread while another probes, and the speedup
//!   converges to ~1x (the sharded path's thread-local indirection even
//!   costs a few ns serially); the win materialises with real hardware
//!   parallelism, where every probe ping-pongs the shared lock's cache
//!   line across cores.
//! * **Full tracing** — per-request trace id + span + counter with an
//!   attached sink, at 1 and 4 threads, the worst-case hot path.
//!
//! Run with `MCOND_LOG` unset so the disabled baseline is actually
//! disabled. Output: `results/BENCH_obs_overhead.json`.

use mcond_bench::microbench::{black_box, Bench};
use mcond_bench::{print_table, Row, TableReport};
use mcond_linalg::MatRng;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Probes per hammer-loop iteration; reported numbers are per probe.
const OPS: usize = 8_192;

/// The pre-sharding registry design, reproduced in-bench: every probe from
/// every thread funnels through one process-wide lock.
struct GlobalLockRegistry {
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

impl GlobalLockRegistry {
    const fn new() -> Self {
        Self { counters: Mutex::new(BTreeMap::new()) }
    }

    fn add(&self, name: &'static str, delta: u64) {
        let mut map = self.counters.lock().unwrap();
        *map.entry(name).or_insert(0) += delta;
    }
}

static GLOBAL_LOCK: GlobalLockRegistry = GlobalLockRegistry::new();

fn hammer_sharded(threads: usize) {
    mcond_par::with_thread_limit(threads, || {
        mcond_par::parallel_for_chunks(OPS, 64, |range| {
            for _ in range {
                mcond_obs::counter_add("bench.obs.sharded", 1);
            }
        });
    });
}

fn hammer_global_lock(threads: usize) {
    mcond_par::with_thread_limit(threads, || {
        mcond_par::parallel_for_chunks(OPS, 64, |range| {
            for _ in range {
                GLOBAL_LOCK.add("bench.obs.global", 1);
            }
        });
    });
}

/// Requests per full-tracing iteration (trace id + span + counter each).
const REQUESTS: usize = 256;

fn traced_requests(threads: usize) {
    mcond_par::with_thread_limit(threads, || {
        mcond_par::parallel_for_chunks(REQUESTS, 1, |range| {
            for _ in range {
                let _trace = mcond_obs::begin_trace();
                let _span = mcond_obs::span("bench.request");
                mcond_obs::counter_add("bench.obs.traced", 1);
            }
        });
    });
}

#[allow(clippy::cast_precision_loss)]
fn main() {
    assert!(
        std::env::var("MCOND_LOG").map_or(true, |v| v.is_empty()),
        "run the overhead bench with MCOND_LOG unset so the disabled \
         baseline is actually disabled"
    );
    let mut bench = Bench::from_env();
    let mut rng = MatRng::seed_from(7);
    let a = rng.uniform(64, 64, -1.0, 1.0);
    let b = rng.uniform(64, 64, -1.0, 1.0);

    // --- Sink off: probes must cost one relaxed atomic load. -------------
    bench.run("obs/off/matmul64_raw", || black_box(a.matmul(&b)));
    bench.run("obs/off/matmul64_probed", || {
        let _span = mcond_obs::span("bench.matmul");
        mcond_obs::counter_add("bench.flops", 2 * 64 * 64 * 64);
        black_box(a.matmul(&b))
    });
    bench.run("obs/off/probe", || {
        mcond_obs::counter_add("bench.probe", 1);
        black_box(())
    });
    bench.run("obs/off/span", || {
        let _span = mcond_obs::span("bench.span");
        black_box(())
    });

    // --- Metrics on: sharded registry vs the old global lock, under the
    // --- same fan-out serving uses. ---------------------------------------
    mcond_obs::enable_metrics();
    bench.run("obs/metrics/probe", || {
        mcond_obs::counter_add("bench.probe", 1);
        black_box(())
    });
    for threads in [1usize, 4] {
        bench.run(&format!("obs/metrics/sharded/t{threads}"), || hammer_sharded(threads));
        bench.run(&format!("obs/metrics/global_lock/t{threads}"), || {
            hammer_global_lock(threads);
        });
    }

    // --- Full tracing: sink attached, one trace + span + counter per
    // --- request. The capture buffer is cleared each iteration so memory
    // --- stays bounded across calibration. --------------------------------
    let cap = mcond_obs::testing::capture();
    for threads in [1usize, 4] {
        bench.run(&format!("obs/tracing_full/t{threads}"), || {
            cap.clear();
            traced_requests(threads);
        });
    }
    drop(cap);

    // --- Report. ----------------------------------------------------------
    let median = |name: &str| {
        bench.results().iter().find(|m| m.name == name).map(|m| m.median_ns).unwrap_or(f64::NAN)
    };
    let mut report = TableReport::new("observability overhead");
    let host_threads =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    report.push(
        Row::new().key("bench", "host_threads").metric("value", host_threads as f64),
    );
    for name in ["obs/off/matmul64_raw", "obs/off/matmul64_probed"] {
        report.push(Row::new().key("bench", name).metric("median_ns", median(name)));
    }
    for name in ["obs/off/probe", "obs/off/span", "obs/metrics/probe"] {
        report.push(Row::new().key("bench", name).metric("ns_per_probe", median(name)));
    }
    for threads in [1usize, 4] {
        let sharded = median(&format!("obs/metrics/sharded/t{threads}"));
        let global = median(&format!("obs/metrics/global_lock/t{threads}"));
        report.push(
            Row::new()
                .key("bench", format!("obs/metrics/registry/t{threads}"))
                .metric("sharded_ns_per_probe", sharded / OPS as f64)
                .metric("global_lock_ns_per_probe", global / OPS as f64)
                .metric("speedup_vs_global_lock", global / sharded),
        );
    }
    for threads in [1usize, 4] {
        let traced = median(&format!("obs/tracing_full/t{threads}"));
        report.push(
            Row::new()
                .key("bench", format!("obs/tracing_full/t{threads}"))
                .metric("ns_per_request", traced / REQUESTS as f64),
        );
    }
    report.attach_metrics(&mcond_obs::snapshot());

    bench.finish("observability overhead");
    print_table(&report);
    report.dump_bench_json("BENCH_obs_overhead");
}
