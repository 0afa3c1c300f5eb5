//! Serial-vs-parallel speedup of the `mcond-par` fan-out paths: dense GEMM,
//! CSR SpMM on an SBM graph, and concurrent batch serving. Each kernel runs
//! once under `with_thread_limit(1)` (forced-serial baseline) and once under
//! `with_thread_limit(4)` — forced explicitly, because the ambient default
//! is serial unless `MCOND_THREADS` is exported, and an earlier version of
//! this bench silently timed the serial path twice. The report records both
//! timings and their ratio so later PRs have a perf baseline to regress
//! against.
//!
//! On a single-core machine the 4-thread rows still run (the pool
//! oversubscribes) and the speedup simply records ~1.0 — the bench never
//! fails on thread availability.
//!
//! Output: `results/BENCH_parallel.json` (plus the usual `MCOND_BENCH_JSON`
//! dump of the raw measurements when that variable is set).

use mcond_bench::microbench::{black_box, Bench};
use mcond_bench::{print_table, Row, TableReport};
use mcond_core::InductiveServer;
use mcond_gnn::{GnnKind, GnnModel};
use mcond_graph::{generate_sbm, load_dataset, SbmConfig, Scale};
use mcond_linalg::MatRng;
use mcond_sparse::sym_normalize;

const SERIAL: &str = "serial";
const PARALLEL: &str = "parallel";

/// Thread count of the parallel arm. Pinned (not `max_threads()`) so the
/// recorded rows mean the same thing on every machine.
const PAR_THREADS: usize = 4;

fn bench_matmul(bench: &mut Bench) {
    let mut rng = MatRng::seed_from(1);
    let a = rng.uniform(512, 512, -1.0, 1.0);
    let b = rng.uniform(512, 512, -1.0, 1.0);
    bench.run(&format!("matmul/512/{SERIAL}"), || {
        mcond_par::with_thread_limit(1, || black_box(a.matmul(&b)))
    });
    bench.run(&format!("matmul/512/{PARALLEL}"), || {
        mcond_par::with_thread_limit(PAR_THREADS, || black_box(a.matmul(&b)))
    });
}

fn bench_spmm(bench: &mut Bench) {
    let graph = generate_sbm(&SbmConfig {
        nodes: 8_000,
        edges: 80_000,
        feature_dim: 64,
        ..SbmConfig::default()
    });
    let ahat = sym_normalize(&graph.adj);
    bench.run(&format!("spmm/sbm8000/{SERIAL}"), || {
        mcond_par::with_thread_limit(1, || black_box(ahat.spmm(&graph.features)))
    });
    bench.run(&format!("spmm/sbm8000/{PARALLEL}"), || {
        mcond_par::with_thread_limit(PAR_THREADS, || black_box(ahat.spmm(&graph.features)))
    });
}

fn bench_serve_many(bench: &mut Bench) {
    let data = load_dataset("pubmed", Scale::Small, 0).expect("pubmed generator");
    let original = data.original_graph();
    let model =
        GnnModel::new(GnnKind::Gcn, data.full.feature_dim(), 16, data.full.num_classes, 2);
    let server = InductiveServer::on_original(&original, &model);
    let batches = data.test_batches(40, true);
    bench.run(&format!("serve_many/pubmed/{SERIAL}"), || {
        mcond_par::with_thread_limit(1, || black_box(server.try_serve_many(&batches)))
    });
    bench.run(&format!("serve_many/pubmed/{PARALLEL}"), || {
        mcond_par::with_thread_limit(PAR_THREADS, || black_box(server.try_serve_many(&batches)))
    });
}

/// Folds the raw measurements into one row per kernel with serial/parallel
/// medians and their ratio.
fn speedup_report(bench: &Bench) -> TableReport {
    let mut report = TableReport::new("parallel speedup (serial median / parallel median)");
    let median = |name: &str| {
        bench
            .results()
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.median_ns)
            .unwrap_or(f64::NAN)
    };
    for kernel in ["matmul/512", "spmm/sbm8000", "serve_many/pubmed"] {
        let serial = median(&format!("{kernel}/{SERIAL}"));
        let parallel = median(&format!("{kernel}/{PARALLEL}"));
        report.push(
            Row::new()
                .key("kernel", kernel)
                .key("serial_threads", 1)
                .key("parallel_threads", PAR_THREADS)
                .metric("serial_median_ns", serial)
                .metric("parallel_median_ns", parallel)
                .metric("speedup", serial / parallel),
        );
    }
    report.attach_metrics(&mcond_obs::snapshot());
    report
}

fn main() {
    let mut bench = Bench::from_env();
    bench_matmul(&mut bench);
    bench_spmm(&mut bench);
    bench_serve_many(&mut bench);
    let report = speedup_report(&bench);
    bench.finish("parallel kernel microbenches");
    print_table(&report);
    report.dump_bench_json("BENCH_parallel");
}
