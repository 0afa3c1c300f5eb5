//! Metric tables, the provenance block, and the run's outputs.

use crate::spans::Recorder;
use crate::stats::{Better, Spread};
use mcond_obs::Json;
use std::collections::BTreeMap;

/// Name, unit and direction of a metric, and for end-to-end metrics the
/// share of the parent's median by which it may worsen. `BENCHMARK.json`
/// repeats these tables; a unit test holds the two together.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

pub const END_TO_END: [MetricDef; 13] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("condense_s", "s", Lower, 0.25),
    e2e("accuracy", "fraction", Higher, 0.10),
    e2e("lib_p50_us", "us", Lower, 0.25),
    e2e("lib_p90_us", "us", Lower, 0.25),
    e2e("http_p50_us", "us", Lower, 0.25),
    e2e("http_p90_us", "us", Lower, 0.25),
    e2e("http_rps", "1/s", Higher, 0.25),
    e2e("offline_nodes_per_s", "1/s", Higher, 0.25),
    e2e("boot_ms", "ms", Lower, 0.15),
    e2e("promote_ms", "ms", Lower, 0.25),
    e2e("checkpoint_mb", "MB", Lower, 0.02),
    e2e("peak_rss_mb", "MB", Lower, 0.05),
];

pub const PER_LAYER: [MetricDef; 55] = [
    layer("graph.generate_ms", "ms", Lower),
    layer("graph.batch_assemble_us", "us", Lower),
    layer("graph.validate_us", "us", Lower),
    layer("linalg.matmul_us", "us", Lower),
    layer("linalg.matmul_gflops", "GFLOP/s", Higher),
    layer("linalg.flops_per_request", "count", Lower),
    layer("linalg.flops_per_condense", "count", Lower),
    layer("sparse.normalize_us", "us", Lower),
    layer("sparse.spmm_us", "us", Lower),
    layer("sparse.spmm_gflops", "GFLOP/s", Higher),
    layer("sparse.spmm_t_us", "us", Lower),
    layer("sparse.sparsify_ms", "ms", Lower),
    layer("sparse.nnz_per_request", "count", Lower),
    layer("sparse.bytes_per_request", "count", Lower),
    layer("par.threads", "count", Higher),
    layer("par.dispatch_us", "us", Lower),
    layer("par.tasks_per_request", "count", Lower),
    layer("par.spmm_speedup", "ratio", Higher),
    layer("autodiff.step_syn_us", "us", Lower),
    layer("autodiff.step_orig_us", "us", Lower),
    layer("autodiff.adam_us", "us", Lower),
    layer("gnn.predict_base_us", "us", Lower),
    layer("gnn.train_epoch_ms", "ms", Lower),
    layer("core.stage_validate_us", "us", Lower),
    layer("core.stage_attach_us", "us", Lower),
    layer("core.stage_propagate_us", "us", Lower),
    layer("core.stage_head_us", "us", Lower),
    layer("core.stage_sum_share", "fraction", Higher),
    layer("core.fanout_mean", "count", Lower),
    layer("core.coverage_mean", "fraction", Higher),
    layer("core.fallback_share", "fraction", Lower),
    layer("core.condense_outer_ms", "ms", Lower),
    layer("core.checkpoint_build_ms", "ms", Lower),
    layer("core.epoch_load_ns", "ns", Lower),
    layer("store.encode_ms", "ms", Lower),
    layer("store.decode_ms", "ms", Lower),
    layer("store.save_ms", "ms", Lower),
    layer("store.load_ms", "ms", Lower),
    layer("store.decode_mb_per_s", "MB/s", Higher),
    layer("serve.encode_batch_us", "us", Lower),
    layer("serve.decode_batch_us", "us", Lower),
    layer("serve.encode_logits_us", "us", Lower),
    layer("serve.decode_logits_us", "us", Lower),
    layer("serve.request_bytes", "count", Lower),
    layer("serve.response_bytes", "count", Lower),
    layer("serve.parse_us", "us", Lower),
    layer("serve.http_floor_us", "us", Lower),
    layer("serve.queue_coalesce_us", "us", Lower),
    layer("serve.unaccounted_share", "fraction", Lower),
    layer("serve.coalesce_mean", "count", Higher),
    layer("serve.shed", "count", Lower),
    layer("obs.trace_overhead_lib_pct", "%", Lower),
    layer("obs.trace_overhead_http_pct", "%", Lower),
    layer("trace.lib_p50_us", "us", Lower),
    layer("trace.http_p50_us", "us", Lower),
];

/// What produced the numbers. Every output carries it.
pub fn provenance() -> Json {
    let command_line = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map_or_else(
                || "unknown".to_owned(),
                |out| String::from_utf8_lossy(&out.stdout).trim().to_owned(),
            )
    };
    let env = |name: &str| std::env::var(name).map_or(Json::Null, Json::from);
    Json::obj()
        .with("git_commit", command_line("git", &["rev-parse", "HEAD"]))
        .with("rustc", command_line("rustc", &["--version"]))
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, usize::from),
        )
        .with("par_max_threads", mcond_par::max_threads())
        .with("simd_level", mcond_linalg::simd::simd_level().name())
        .with("MCOND_THREADS", env("MCOND_THREADS"))
        .with("MCOND_SIMD", env("MCOND_SIMD"))
}

pub fn spread_json(s: &Spread) -> Json {
    Json::obj()
        .with("n", s.n)
        .with("min", s.min)
        .with("q25", s.q25)
        .with("median", s.median)
        .with("q75", s.q75)
        .with("max", s.max)
}

/// Direction of every metric and the regression bound of the end-to-end
/// ones, so that a report can be read without the source beside it.
pub fn defs_json(defs: &[MetricDef]) -> Json {
    let mut out = Json::obj();
    for def in defs {
        let mut entry = Json::obj()
            .with("unit", def.unit)
            .with("better", def.better.as_str());
        if def.bound > 0.0 {
            entry.insert("bound", def.bound);
        }
        out.insert(def.name, entry);
    }
    out
}

/// Per-name self time of the recorded spans.
pub fn self_time_json(rec: &Recorder) -> Json {
    let mut out = Json::obj();
    for (name, t) in rec.self_times() {
        #[allow(clippy::cast_precision_loss)]
        out.insert(
            name,
            Json::obj()
                .with("count", t.count)
                .with("total_ms", t.total_ns as f64 / 1e6)
                .with("self_ms", t.self_ns as f64 / 1e6),
        );
    }
    out
}

/// Prints every metric by name with its unit, and returns the `metrics`
/// object of the result line. A missing or non-finite value is an error:
/// a metric is never silently dropped.
pub fn metrics_json(defs: &[MetricDef], values: &BTreeMap<String, f64>) -> Result<Json, String> {
    let mut out = Json::obj();
    for def in defs {
        let value = *values
            .get(def.name)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        if !value.is_finite() {
            return Err(format!(
                "metric {} is not finite: too many operations failed",
                def.name
            ));
        }
        println!("{:<32} {:>16.4} {}", def.name, value, def.unit);
        out.insert(
            def.name,
            Json::obj().with("value", value).with("unit", def.unit),
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn names(list: &Json) -> Vec<&str> {
        list.as_arr()
            .unwrap()
            .iter()
            .map(|m| m.get("name").unwrap().as_str().unwrap())
            .collect()
    }

    /// `BENCHMARK.json` is the contract the driver reads; the tables here
    /// are what the binary prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            names(json.get("workloads").unwrap()),
            WORKLOADS.map(|w| w.name)
        );
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = json.get(key).unwrap().as_arr().unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (m, def) in listed.iter().zip(defs) {
                assert_eq!(m.get("name").unwrap().as_str(), Some(def.name));
                assert_eq!(
                    m.get("unit").unwrap().as_str(),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(
                    m.get("better").unwrap().as_str(),
                    Some(def.better.as_str()),
                    "{}",
                    def.name
                );
                if key == "end_to_end" {
                    assert_eq!(
                        m.get("bound").unwrap().as_f64(),
                        Some(def.bound),
                        "{}",
                        def.name
                    );
                }
            }
        }
    }

    #[test]
    fn metric_names_are_unique_and_setup_has_the_largest_bound() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), END_TO_END.len() + PER_LAYER.len());
        let max = END_TO_END.iter().map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(END_TO_END[0].name, "setup_s");
        assert_eq!(END_TO_END[0].bound, max);
    }
}
