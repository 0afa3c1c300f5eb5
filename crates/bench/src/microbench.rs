//! Minimal in-repo microbenchmark harness.
//!
//! The workspace builds hermetically with no external crates, so the
//! `benches/` targets (all `harness = false` binaries) drive this module
//! instead of an external benchmarking framework. The protocol is the
//! usual one: double the iteration count until one sample exceeds a
//! minimum wall-clock budget, then time a fixed number of samples and
//! report per-iteration statistics from the sample distribution.
//!
//! Environment knobs:
//! * `MCOND_BENCH_SAMPLES` — samples per bench (default 20; set low for
//!   smoke runs).
//! * `MCOND_BENCH_SAMPLE_MS` — minimum milliseconds per sample
//!   (default 10).
//! * `MCOND_BENCH_JSON` — when set to a path, the run also dumps a
//!   [`TableReport`](crate::TableReport) JSON file of every measurement.
//!
//! Setting either sample knob marks the run as a smoke run: benches that
//! keep a committed baseline then write it under `target/bench-smoke/`
//! instead of `results/` (see
//! [`TableReport::dump_bench_json`](crate::TableReport::dump_bench_json)).

pub use std::hint::black_box;
use std::time::Instant;

use crate::{Row, TableReport};

/// One finished measurement, in nanoseconds per iteration.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Bench name (slash-separated, e.g. `matmul/nn/128`).
    pub name: String,
    /// Mean over samples.
    pub mean_ns: f64,
    /// Median over samples.
    pub median_ns: f64,
    /// Fastest sample — the least noisy estimate on a quiet machine.
    pub min_ns: f64,
    /// Iterations timed per sample.
    pub iters: u64,
}

/// A benchmark session: run closures, collect [`Measurement`]s, print a
/// human-readable line per bench and optionally dump JSON at the end.
pub struct Bench {
    samples: usize,
    min_sample_ns: u128,
    results: Vec<Measurement>,
}

impl Bench {
    /// A session configured from the environment (see module docs).
    #[must_use]
    pub fn from_env() -> Self {
        let samples = std::env::var("MCOND_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(20)
            .max(1);
        let sample_ms: u128 = std::env::var("MCOND_BENCH_SAMPLE_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(10)
            .max(1);
        Self { samples, min_sample_ns: sample_ms * 1_000_000, results: Vec::new() }
    }

    /// Overrides the sample count (e.g. for expensive end-to-end benches).
    #[must_use]
    pub fn sample_size(mut self, samples: usize) -> Self {
        self.samples = samples.max(1);
        self
    }

    /// Times `f`, records the measurement, and prints one summary line.
    pub fn run<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        // Calibration: double iterations until one batch fills the budget.
        let mut iters: u64 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = t.elapsed().as_nanos();
            if elapsed >= self.min_sample_ns || iters >= 1 << 24 {
                break;
            }
            // Jump straight towards the budget instead of pure doubling so
            // calibration stays cheap for fast closures.
            let factor = if elapsed == 0 {
                16
            } else {
                (self.min_sample_ns / elapsed.max(1)).clamp(2, 16) as u64
            };
            iters = iters.saturating_mul(factor);
        }

        let mut per_iter: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                #[allow(clippy::cast_precision_loss)]
                {
                    t.elapsed().as_nanos() as f64 / iters as f64
                }
            })
            .collect();
        per_iter.sort_by(f64::total_cmp);
        let min_ns = per_iter[0];
        let median_ns = per_iter[per_iter.len() / 2];
        let mean_ns = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
        println!(
            "{name:<44} median {:>12}  mean {:>12}  min {:>12}  ({} samples x {iters} iters)",
            fmt_ns(median_ns),
            fmt_ns(mean_ns),
            fmt_ns(min_ns),
            per_iter.len(),
        );
        self.results.push(Measurement {
            name: name.to_owned(),
            mean_ns,
            median_ns,
            min_ns,
            iters,
        });
    }

    /// The measurements recorded so far.
    #[must_use]
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// Finishes the session: folds the measurements into a
    /// [`TableReport`] and dumps it when `MCOND_BENCH_JSON` is set.
    pub fn finish(self, title: &str) -> TableReport {
        let mut report = TableReport::new(title);
        for m in &self.results {
            report.push(
                Row::new()
                    .key("bench", &m.name)
                    .metric("median_ns", m.median_ns)
                    .metric("mean_ns", m.mean_ns)
                    .metric("min_ns", m.min_ns),
            );
        }
        report.attach_metrics(&mcond_obs::snapshot());
        if let Ok(path) = std::env::var("MCOND_BENCH_JSON") {
            if !path.is_empty() {
                if let Err(e) = report.dump_json(&path) {
                    eprintln!("MCOND_BENCH_JSON: cannot write {path}: {e}");
                }
            }
        }
        report
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurements_are_recorded_and_reported() {
        std::env::remove_var("MCOND_BENCH_JSON");
        let mut bench = Bench::from_env().sample_size(3);
        let mut acc = 0u64;
        bench.run("noop_add", || {
            acc = acc.wrapping_add(1);
            acc
        });
        assert_eq!(bench.results().len(), 1);
        let m = &bench.results()[0];
        assert!(m.min_ns >= 0.0 && m.min_ns <= m.mean_ns * 1.0001);
        let report = bench.finish("test benches");
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].keys[0].1, "noop_add");
    }
}
