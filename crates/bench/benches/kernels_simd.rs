//! SIMD-tier sweep of the hot kernels: every `MCOND_SIMD` level of the
//! dense GEMM flavours, matvec, and CSR SpMM, timed at one thread so the
//! rows isolate vectorisation from pool fan-out.
//!
//! Each row derives GFLOP/s from the kernels' own flop counters
//! (`linalg.matmul.flops`, `sparse.spmm.flops`) rather than a hand-written
//! formula: the counter delta of a single call is divided by the median
//! time, so the number stays honest if a kernel's flop model ever changes.
//! `speedup_vs_scalar` compares each level against the retained scalar
//! reference kernels — the headline number the SIMD rewrite is judged on.
//!
//! Output: `results/BENCH_kernels_simd.json` (plus the usual
//! `MCOND_BENCH_JSON` dump when that variable is set).

use mcond_bench::microbench::{black_box, Bench};
use mcond_bench::{print_table, Row, TableReport};
use mcond_graph::{generate_sbm, SbmConfig};
use mcond_linalg::simd::{self, SimdLevel};
use mcond_linalg::{DMat, MatRng};
use mcond_sparse::{sym_normalize, Csr};

/// One kernel under test: a name, the flop counter it bumps, and the call.
struct Kernel {
    name: &'static str,
    flops_counter: &'static str,
    call: Box<dyn Fn() -> DMat>,
}

fn kernels() -> Vec<Kernel> {
    let mut rng = MatRng::seed_from(1);
    let a = rng.uniform(512, 512, -1.0, 1.0);
    let b = rng.uniform(512, 512, -1.0, 1.0);
    let at = rng.uniform(384, 256, -1.0, 1.0);
    let bt = rng.uniform(384, 256, -1.0, 1.0);
    let v = rng.uniform(1024, 1024, -1.0, 1.0);
    let x: Vec<f32> = rng.uniform(1024, 1, -1.0, 1.0).as_slice().to_vec();
    let graph = generate_sbm(&SbmConfig {
        nodes: 8_000,
        edges: 80_000,
        feature_dim: 64,
        ..SbmConfig::default()
    });
    let ahat = sym_normalize(&graph.adj);
    let feats = graph.features.clone();
    let ahat_t: Csr = ahat.clone();
    let feats_t = graph.features;
    vec![
        Kernel {
            name: "matmul/512",
            flops_counter: "linalg.matmul.flops",
            call: Box::new(move || a.matmul(&b)),
        },
        Kernel {
            name: "matmul_tn/384x256",
            flops_counter: "linalg.matmul.flops",
            call: Box::new({
                let (at, bt) = (at.clone(), bt.clone());
                move || at.matmul_tn(&bt)
            }),
        },
        Kernel {
            name: "matmul_nt/384x256",
            flops_counter: "linalg.matmul.flops",
            call: Box::new(move || bt.matmul_nt(&at)),
        },
        Kernel {
            name: "matvec/1024",
            flops_counter: "linalg.matmul.flops",
            call: Box::new(move || DMat::from_vec(1024, 1, v.matvec(&x))),
        },
        Kernel {
            name: "spmm/sbm8000",
            flops_counter: "sparse.spmm.flops",
            call: Box::new(move || ahat.spmm(&feats)),
        },
        Kernel {
            name: "spmm_t/sbm8000",
            flops_counter: "sparse.spmm.flops",
            call: Box::new(move || ahat_t.spmm_t(&feats_t)),
        },
    ]
}

/// Flops one invocation of `call` books on `counter`, read from the
/// observability registry (metrics are force-enabled in `main`).
fn flops_per_call(counter: &str, call: &dyn Fn() -> DMat) -> f64 {
    let before = mcond_obs::snapshot().counter(counter);
    black_box(call());
    let after = mcond_obs::snapshot().counter(counter);
    #[allow(clippy::cast_precision_loss)]
    {
        (after - before) as f64
    }
}

fn main() {
    // Counters on (no event sink): GFLOP/s comes from the kernels' own
    // flop accounting.
    mcond_obs::enable_metrics();
    let mut bench = Bench::from_env();
    let mut report = TableReport::new("SIMD kernel tiers (1 thread, scalar reference = 1.0x)");
    let levels: Vec<SimdLevel> = simd::available_levels();
    for kernel in kernels() {
        let flops = flops_per_call(kernel.flops_counter, &kernel.call);
        let mut scalar_median = f64::NAN;
        for &level in &levels {
            let name = format!("{}/{}", kernel.name, level.name());
            mcond_par::with_thread_limit(1, || {
                simd::with_simd_level(level, || {
                    bench.run(&name, || black_box((kernel.call)()));
                });
            });
            let median = bench
                .results()
                .last()
                .map(|m| m.median_ns)
                .unwrap_or(f64::NAN);
            if level == SimdLevel::Scalar {
                scalar_median = median;
            }
            report.push(
                Row::new()
                    .key("kernel", kernel.name)
                    .key("level", level.name())
                    .key("threads", 1)
                    .metric("median_ns", median)
                    .metric("gflops", flops / median)
                    .metric("speedup_vs_scalar", scalar_median / median),
            );
        }
    }
    report.attach_metrics(&mcond_obs::snapshot());
    bench.finish("SIMD kernel microbenches");
    print_table(&report);
    report.dump_bench_json("BENCH_kernels_simd");
}
