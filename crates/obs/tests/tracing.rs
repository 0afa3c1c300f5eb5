//! Integration tests of the tracing facade: span nesting and ordering
//! across threads, counter aggregation under contention, and JSONL schema
//! guarantees.
//!
//! Capture sessions serialise on a global lock inside `testing::capture`,
//! but the *sink* is process-global, so a test that emits while another
//! test's capture is active would leak into that buffer. Every test
//! therefore uses unique event names and filters its captured lines to
//! them — the discipline that keeps this file safe under the default
//! parallel test runner.

use mcond_obs::{testing, Json};

fn named<'a>(lines: &'a [Json], names: &[&str]) -> Vec<&'a Json> {
    lines
        .iter()
        .filter(|l| {
            l.get("name").and_then(Json::as_str).is_some_and(|n| names.contains(&n))
        })
        .collect()
}

fn kind_of(line: &Json) -> &str {
    line.get("ev").and_then(Json::as_str).expect("every record has an ev kind")
}

#[test]
fn span_nesting_builds_paths_and_durations() {
    let cap = testing::capture();
    {
        let _outer = mcond_obs::span("nest_outer");
        {
            let _inner = mcond_obs::span_with("nest_inner", vec![("k", 7u64.into())]);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }
    let all = cap.parsed_lines();
    let lines = named(&all, &["nest_outer", "nest_inner"]);
    let ends: Vec<_> = lines.iter().filter(|l| kind_of(l) == "span").collect();
    assert_eq!(ends.len(), 2);
    // Inner closes first with the nested path; outer closes last.
    assert_eq!(ends[0].get("path").and_then(Json::as_str), Some("nest_outer/nest_inner"));
    assert_eq!(ends[1].get("path").and_then(Json::as_str), Some("nest_outer"));
    // Durations are measured and nested: outer >= inner >= the sleep.
    let inner_us = ends[0].get("us").and_then(Json::as_f64).unwrap();
    let outer_us = ends[1].get("us").and_then(Json::as_f64).unwrap();
    assert!(inner_us >= 2_000.0, "inner {inner_us}us");
    assert!(outer_us >= inner_us, "outer {outer_us} < inner {inner_us}");
    // Fields survive on both records of the inner span.
    let starts: Vec<_> = lines.iter().filter(|l| kind_of(l) == "span_start").collect();
    assert_eq!(
        starts[1].get("fields").and_then(|f| f.get("k")).and_then(Json::as_f64),
        Some(7.0)
    );
}

#[test]
fn spans_interleave_but_nest_correctly_across_threads() {
    let cap = testing::capture();
    let workers: Vec<_> = (0..4u64)
        .map(|i| {
            std::thread::spawn(move || {
                let _t = mcond_obs::span_with("mt_worker", vec![("idx", i.into())]);
                for _ in 0..3 {
                    let _step = mcond_obs::span("mt_step");
                    std::hint::black_box(0u64);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let all = cap.parsed_lines();
    let lines = named(&all, &["mt_worker", "mt_step"]);

    // Per thread, replay the event stream against a stack: starts push,
    // ends must match the top — proving nesting never leaks across threads.
    use std::collections::HashMap;
    let mut stacks: HashMap<u64, Vec<String>> = HashMap::new();
    let mut per_thread_ends: HashMap<u64, usize> = HashMap::new();
    for line in &lines {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let tid = line.get("tid").and_then(Json::as_f64).unwrap() as u64;
        let name = line.get("name").and_then(Json::as_str).unwrap().to_owned();
        let path = line.get("path").and_then(Json::as_str).unwrap().to_owned();
        let stack = stacks.entry(tid).or_default();
        match kind_of(line) {
            "span_start" => {
                stack.push(name.clone());
                assert_eq!(path, stack.join("/"), "start path mismatch on thread {tid}");
            }
            "span" => {
                assert_eq!(stack.join("/"), path, "end path mismatch on thread {tid}");
                assert_eq!(stack.pop(), Some(name));
                *per_thread_ends.entry(tid).or_default() += 1;
            }
            other => panic!("unexpected event {other}"),
        }
    }
    // Every stack drained, every thread produced its 4 span ends.
    assert!(stacks.values().all(Vec::is_empty));
    assert_eq!(per_thread_ends.len(), 4);
    assert!(per_thread_ends.values().all(|&n| n == 4));
    // seq is globally unique and increasing in emission order.
    let seqs: Vec<f64> =
        lines.iter().map(|l| l.get("seq").and_then(Json::as_f64).unwrap()).collect();
    assert!(seqs.windows(2).all(|w| w[1] > w[0]), "seq not strictly increasing: {seqs:?}");
}

#[test]
fn counters_aggregate_across_threads() {
    let _cap = testing::capture();
    let workers: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(|| {
                for _ in 0..1000 {
                    mcond_obs::counter_add("test.aggregation", 3);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let snap = mcond_obs::snapshot();
    assert_eq!(snap.counter("test.aggregation"), 8 * 1000 * 3);
}

#[test]
fn histograms_record_through_the_registry() {
    let cap = testing::capture();
    for v in [1.0, 2.0, 4.0, 1000.0] {
        mcond_obs::histogram_record("test.latency", v);
    }
    mcond_obs::gauge_set("test.gauge", 0.25);
    let snap = mcond_obs::snapshot();
    let h = snap.histogram("test.latency").expect("histogram recorded");
    assert_eq!(h.count, 4);
    assert_eq!(h.max, 1000.0);
    assert!(h.p99 >= h.p50);
    assert!(snap.gauges.contains(&("test.gauge".to_owned(), 0.25)));

    // emit_snapshot writes a parseable metrics record.
    mcond_obs::emit_snapshot("hist_unit");
    let all = cap.parsed_lines();
    let lines = named(&all, &["hist_unit"]);
    assert_eq!(lines.len(), 1);
    assert_eq!(kind_of(lines[0]), "metrics");
    let metrics = lines[0].get("metrics").expect("payload");
    assert!(metrics.get("histograms").and_then(|h| h.get("test.latency")).is_some());
}

#[test]
fn points_carry_fields_and_thread_ids() {
    let cap = testing::capture();
    mcond_obs::point(
        "point_loss",
        &[("step", 3u64.into()), ("l_gra", 0.125f32.into()), ("phase", "outer".into())],
    );
    let all = cap.parsed_lines();
    let lines = named(&all, &["point_loss"]);
    assert_eq!(lines.len(), 1);
    let fields = lines[0].get("fields").unwrap();
    assert_eq!(fields.get("step").and_then(Json::as_f64), Some(3.0));
    assert_eq!(fields.get("l_gra").and_then(Json::as_f64), Some(0.125));
    assert_eq!(fields.get("phase").and_then(Json::as_str), Some("outer"));
    assert!(lines[0].get("tid").is_some());
    assert!(lines[0].get("t_us").is_some());
}

/// Regression for the span-stack leak across panic isolation: a guard
/// that never drops (forgotten here, but the same shape as a panic racing
/// a guard's construction) leaves its name on the stack; the enclosing
/// guard must truncate back to its own depth so later spans on the thread
/// report clean paths.
#[test]
fn span_stack_heals_after_a_panic_under_catch_unwind() {
    let cap = testing::capture();
    {
        let _outer = mcond_obs::span("leak_outer");
        let result = std::panic::catch_unwind(|| {
            let _inner = mcond_obs::span("leak_inner");
            let deeper = mcond_obs::span("leak_deeper");
            std::mem::forget(deeper); // leaked: its pop never runs
            panic!("boom inside span");
        });
        assert!(result.is_err());
        let _next = mcond_obs::span("leak_next");
    }
    let all = cap.parsed_lines();
    let next_end: Vec<_> = named(&all, &["leak_next"])
        .into_iter()
        .filter(|l| kind_of(l) == "span")
        .collect();
    assert_eq!(
        next_end[0].get("path").and_then(Json::as_str),
        Some("leak_outer/leak_next"),
        "leaked span corrupted the next span's path"
    );
    // The guard that unwound healed the stack and closed with its own path.
    let inner_end: Vec<_> = named(&all, &["leak_inner"])
        .into_iter()
        .filter(|l| kind_of(l) == "span")
        .collect();
    assert_eq!(inner_end[0].get("path").and_then(Json::as_str), Some("leak_outer/leak_inner"));
    let outer_end: Vec<_> = named(&all, &["leak_outer"])
        .into_iter()
        .filter(|l| kind_of(l) == "span")
        .collect();
    assert_eq!(outer_end[0].get("path").and_then(Json::as_str), Some("leak_outer"));
}

#[test]
fn trace_ids_stamp_records_and_scope_correctly() {
    let cap = testing::capture();
    assert_eq!(mcond_obs::current_trace(), 0);
    let first_id = {
        let t = mcond_obs::begin_trace();
        assert!(t.id() > 0);
        assert_eq!(mcond_obs::current_trace(), t.id());
        // ensure_trace keeps the active trace rather than replacing it.
        let kept = mcond_obs::ensure_trace();
        assert_eq!(kept.id(), t.id());
        drop(kept);
        assert_eq!(mcond_obs::current_trace(), t.id());
        let _s = mcond_obs::span("trace_span_a");
        mcond_obs::point("trace_point_a", &[]);
        t.id()
    };
    assert_eq!(mcond_obs::current_trace(), 0, "guard restores the no-trace state");
    let second_id = {
        let t = mcond_obs::begin_trace();
        let _s = mcond_obs::span("trace_span_b");
        t.id()
    };
    assert!(second_id > first_id, "trace ids are monotonically increasing");
    mcond_obs::point("trace_point_none", &[]);

    let all = cap.parsed_lines();
    #[allow(clippy::cast_precision_loss)]
    for l in named(&all, &["trace_span_a", "trace_point_a"]) {
        assert_eq!(l.get("trace").and_then(Json::as_f64), Some(first_id as f64));
    }
    #[allow(clippy::cast_precision_loss)]
    for l in named(&all, &["trace_span_b"]) {
        assert_eq!(l.get("trace").and_then(Json::as_f64), Some(second_id as f64));
    }
    // Records outside any trace omit the key entirely.
    for l in named(&all, &["trace_point_none"]) {
        assert_eq!(l.get("trace"), None);
    }
}

#[test]
fn trace_context_attributes_worker_spans_to_the_request() {
    let cap = testing::capture();
    let trace_id = {
        let t = mcond_obs::begin_trace();
        let _req = mcond_obs::span("ctx_request");
        let ctx = mcond_obs::capture_context();
        let worker = std::thread::spawn(move || {
            let _g = ctx.enter();
            let _k = mcond_obs::span("ctx_kernel");
        });
        worker.join().unwrap();
        // After the worker, this thread's own state is untouched.
        let _local = mcond_obs::span("ctx_local");
        t.id()
    };
    let all = cap.parsed_lines();
    let kernel: Vec<_> = named(&all, &["ctx_kernel"])
        .into_iter()
        .filter(|l| kind_of(l) == "span")
        .collect();
    assert_eq!(kernel.len(), 1);
    assert_eq!(
        kernel[0].get("path").and_then(Json::as_str),
        Some("ctx_request/ctx_kernel"),
        "worker span must splice under the submitting request's path"
    );
    #[allow(clippy::cast_precision_loss)]
    let expected = Some(trace_id as f64);
    assert_eq!(kernel[0].get("trace").and_then(Json::as_f64), expected);
    let local: Vec<_> = named(&all, &["ctx_local"])
        .into_iter()
        .filter(|l| kind_of(l) == "span")
        .collect();
    assert_eq!(local[0].get("path").and_then(Json::as_str), Some("ctx_request/ctx_local"));
}

#[test]
fn profiler_folds_spans_into_a_call_tree() {
    let cap = testing::capture();
    for _ in 0..3 {
        let _root = mcond_obs::span("prof_root");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let _leaf = mcond_obs::span("prof_leaf");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let profile = mcond_obs::Profile::from_jsonl(&cap.text());
    let root = profile.get("prof_root").expect("root profiled");
    let leaf = profile.get("prof_root/prof_leaf").expect("leaf profiled");
    assert_eq!((root.calls, leaf.calls), (3, 3));
    assert!(root.total_us >= leaf.total_us);
    // Self time = total minus direct children; leaves keep everything.
    assert_eq!(root.self_us, root.total_us - leaf.total_us);
    assert_eq!(leaf.self_us, leaf.total_us);
    assert!(root.self_us >= 3 * 2_000, "root self time covers its sleeps");
    // Both renderings mention the nested path.
    assert!(profile.folded().contains("prof_root;prof_leaf "));
    assert!(profile.table().contains("prof_root/prof_leaf"));
    // Entries are sorted by descending self time.
    let selfs: Vec<u64> = profile.entries().iter().map(|e| e.self_us).collect();
    assert!(selfs.windows(2).all(|w| w[0] >= w[1]));
}

/// The sharded registry must resolve concurrent gauge writes to the
/// globally last write, not an arbitrary shard's value.
#[test]
fn gauges_resolve_last_write_wins_across_shards() {
    let _cap = testing::capture();
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(4));
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let b = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                b.wait();
                mcond_obs::gauge_set("test.lww", f64::from(i));
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // This write happens after every thread joined: it is globally last
    // and must win over every other shard's entry.
    mcond_obs::gauge_set("test.lww", 42.0);
    let snap = mcond_obs::snapshot();
    assert!(
        snap.gauges.contains(&("test.lww".to_owned(), 42.0)),
        "stale shard won: {:?}",
        snap.gauges
    );
}

#[test]
fn span_timed_feeds_its_histogram_and_emits_a_span() {
    let cap = testing::capture();
    {
        let _t = mcond_obs::span_timed("timed_unit", "test.timed_unit_us");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let snap = mcond_obs::snapshot();
    let h = snap.histogram("test.timed_unit_us").expect("histogram fed on close");
    assert_eq!(h.count, 1);
    assert!(h.max >= 1_000.0, "measured {}us", h.max);
    let all = cap.parsed_lines();
    let ends =
        named(&all, &["timed_unit"]).into_iter().filter(|l| kind_of(l) == "span").count();
    assert_eq!(ends, 1, "span_timed is a real span while events are on");
}

#[test]
fn capture_session_only_sees_its_own_window() {
    // Events emitted before a capture opens never appear in it.
    {
        let pre = testing::capture();
        let _s = mcond_obs::span("window_before");
        drop(_s);
        drop(pre);
    }
    let cap = testing::capture();
    let lines = cap.parsed_lines();
    assert!(named(&lines, &["window_before"]).is_empty());
}
