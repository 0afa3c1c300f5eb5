//! Golden-file test of the observability pipeline: one small condense →
//! train → serve run must emit JSONL in which *every* line parses back,
//! and the expected event families (spans with durations, per-step losses,
//! kernel counters, serve requests) are all present.

use mcond_core::{condense, InductiveServer, McondConfig};
use mcond_gnn::{train, GnnKind, GnnModel, GraphOps, TrainConfig};
use mcond_graph::{load_dataset, Scale};
use mcond_linalg::DMat;
use mcond_obs::{testing, Json};

fn get<'a>(line: &'a Json, key: &str) -> Option<&'a Json> {
    line.get(key)
}

#[test]
fn condense_train_serve_emits_well_formed_jsonl() {
    let cap = testing::capture();

    let data = load_dataset("pubmed", Scale::Small, 0).expect("bundled dataset");
    let cfg = McondConfig {
        ratio: 0.02,
        outer_loops: 1,
        relay_steps: 2,
        mapping_steps: 2,
        support_cap: 32,
        ..McondConfig::default()
    };
    let condensed = condense(&data, &cfg);

    let mut model = GnnModel::new(
        GnnKind::Gcn,
        data.full.feature_dim(),
        8,
        data.full.num_classes,
        7,
    );
    let ops = GraphOps::from_adj(&condensed.synthetic.adj);
    let train_cfg = TrainConfig { epochs: 3, lr: 0.05, ..TrainConfig::default() };
    let _report = train(
        &mut model,
        &ops,
        &condensed.synthetic.features,
        &condensed.synthetic.labels,
        &train_cfg,
        None,
    );

    let server =
        InductiveServer::on_synthetic(&condensed.synthetic, &condensed.mapping, &model);
    let batch = data.test_batches(40, false).remove(0);
    server.try_serve(&batch).expect("golden batch serves");

    // --- Every emitted line must parse back as a JSON object with the
    // --- envelope keys. --------------------------------------------------
    let text = cap.text();
    assert!(!text.is_empty(), "no events captured");
    let mut lines = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let parsed = Json::parse(raw)
            .unwrap_or_else(|e| panic!("line {i} is not valid JSON ({e}): {raw}"));
        for key in ["ev", "name", "t_us", "seq", "tid"] {
            assert!(parsed.get(key).is_some(), "line {i} missing {key}: {raw}");
        }
        lines.push(parsed);
    }

    let find = |ev: &str, name: &str| -> Vec<&Json> {
        lines
            .iter()
            .filter(|l| {
                get(l, "ev").and_then(Json::as_str) == Some(ev)
                    && get(l, "name").and_then(Json::as_str) == Some(name)
            })
            .collect()
    };

    // Root condense span closes with a measured duration and its config.
    let condense_spans = find("span", "condense");
    assert_eq!(condense_spans.len(), 1);
    assert!(get(condense_spans[0], "us").and_then(Json::as_f64).unwrap() > 0.0);
    let n_syn = get(find("span_start", "condense")[0], "fields")
        .and_then(|f| f.get("n_syn"))
        .and_then(Json::as_f64)
        .unwrap();
    assert!(n_syn >= 1.0);

    // The two phases of Algorithm 1 are spans of their own, once per outer
    // loop and inside it.
    for phase in ["condense.relay", "condense.mapping"] {
        let spans = find("span", phase);
        assert_eq!(spans.len(), cfg.outer_loops, "{phase}");
        for sp in spans {
            let path = get(sp, "path").and_then(Json::as_str).unwrap();
            assert_eq!(path, format!("condense/condense.outer/{phase}"));
        }
    }

    // Per-step losses: K x T relay steps with finite l_gra, and mapping
    // steps with l_tra/l_map.
    let relay_points = find("point", "condense.relay_step");
    assert_eq!(relay_points.len(), cfg.outer_loops * cfg.relay_steps);
    for pt in &relay_points {
        let l_gra =
            get(pt, "fields").and_then(|f| f.get("l_gra")).and_then(Json::as_f64).unwrap();
        assert!(l_gra.is_finite(), "non-finite l_gra");
    }
    let mapping_points = find("point", "condense.mapping_step");
    assert_eq!(mapping_points.len(), cfg.outer_loops * cfg.mapping_steps);
    for pt in &mapping_points {
        let fields = get(pt, "fields").unwrap();
        assert!(fields.get("l_tra").and_then(Json::as_f64).unwrap().is_finite());
        assert!(fields.get("l_map").and_then(Json::as_f64).unwrap().is_finite());
    }

    // Eq. (14) sparsification reports nnz before/after for A' and M.
    let sparsify = find("point", "condense.sparsify");
    assert_eq!(sparsify.len(), 1);
    let sf = get(sparsify[0], "fields").unwrap();
    let before = sf.get("adj_nnz_before").and_then(Json::as_f64).unwrap();
    let after = sf.get("adj_nnz_after").and_then(Json::as_f64).unwrap();
    assert!(after <= before);

    // Kernel counters made it into the condense-end metrics record.
    let metrics = find("metrics", "condense");
    assert_eq!(metrics.len(), 1);
    let counters = get(metrics[0], "metrics").and_then(|m| m.get("counters")).unwrap();
    assert!(
        counters.get("linalg.matmul.flops").and_then(Json::as_f64).unwrap() > 0.0,
        "no matmul FLOPs counted during condense"
    );
    assert!(
        counters.get("sparse.spmm.nnz").and_then(Json::as_f64).unwrap() > 0.0,
        "no SpMM nnz counted during condense"
    );

    // Training emitted per-epoch losses inside its span.
    assert_eq!(find("point", "gnn.train.epoch").len(), train_cfg.epochs);
    assert_eq!(find("span", "gnn.train").len(), 1);

    // Serving emitted a span and a request point with latency + fanout.
    assert_eq!(find("span", "serve").len(), 1);
    let request = find("point", "serve.request");
    assert_eq!(request.len(), 1);
    let rf = get(request[0], "fields").unwrap();
    assert_eq!(rf.get("batch").and_then(Json::as_f64), Some(40.0));
    assert!(rf.get("fanout").and_then(Json::as_f64).is_some());
    assert!(rf.get("latency_us").and_then(Json::as_f64).is_some());

    // And the server's own snapshot agrees with the one request served.
    let snap = server.metrics_snapshot();
    assert_eq!(snap.counter("serve.requests"), 1);
    assert_eq!(snap.histogram("serve.latency_us").unwrap().count, 1);
}

/// Request-scoped tracing golden test: every request in a fan-out gets its
/// own trace id, constant across all of that request's records; the serve
/// span decomposes into stage spans nested under it whose durations sum to
/// within the parent's duration; and turning tracing on does not perturb
/// the math — logits stay bitwise identical at 1 and 4 threads.
#[test]
fn traces_and_stage_spans_decompose_serving() {
    let cap = testing::capture();

    let data = load_dataset("pubmed", Scale::Small, 0).expect("bundled dataset");
    let model = GnnModel::new(GnnKind::Gcn, data.full.feature_dim(), 8, data.full.num_classes, 3);
    let original = data.original_graph();
    let server = InductiveServer::on_original(&original, &model);
    let mut batches = data.test_batches(10, true);
    batches.truncate(3);
    assert!(batches.len() >= 2, "need a real fan-out");

    let at_one = mcond_par::with_thread_limit(1, || server.try_serve_many(&batches));
    cap.clear();
    let at_four = mcond_par::with_thread_limit(4, || server.try_serve_many(&batches));
    for (i, (a, b)) in at_one.iter().zip(&at_four).enumerate() {
        let (a, b) = (a.as_ref().expect("serves at 1 thread"), b.as_ref().expect("at 4"));
        assert_eq!(a.as_slice(), b.as_slice(), "slot {i}: logits drift with tracing on");
    }

    // --- Inspect the traced 4-thread run. ---------------------------------
    let lines = cap.parsed_lines();
    let kind = |l: &Json| get(l, "ev").and_then(Json::as_str).unwrap_or("").to_owned();
    let name = |l: &Json| get(l, "name").and_then(Json::as_str).unwrap_or("").to_owned();
    let trace_of = |l: &Json| get(l, "trace").and_then(Json::as_f64).unwrap_or(0.0);
    let dur_of = |l: &Json| get(l, "us").and_then(Json::as_f64).unwrap_or(0.0);

    let serves: Vec<&Json> =
        lines.iter().filter(|l| kind(l) == "span" && name(l) == "serve").collect();
    assert_eq!(serves.len(), batches.len(), "one serve span per request");

    let mut seen = std::collections::BTreeSet::new();
    for serve in &serves {
        let trace = trace_of(serve);
        assert!(trace > 0.0, "serve span missing its trace id: {serve:?}");
        assert!(seen.insert(trace as u64), "trace id reused across requests");

        let serve_path = get(serve, "path").and_then(Json::as_str).unwrap();
        let in_request: Vec<&Json> =
            lines.iter().filter(|l| (trace_of(l) - trace).abs() < 0.5).collect();

        // Stage spans: exactly one of each, nested under this serve span,
        // sharing the request's trace id.
        let mut stage_sum = 0.0;
        for stage in ["validate", "attach", "propagate", "head"] {
            let spans: Vec<&&Json> = in_request
                .iter()
                .filter(|l| kind(l) == "span" && name(l) == stage)
                .collect();
            assert_eq!(spans.len(), 1, "stage {stage} for trace {trace}");
            let path = get(spans[0], "path").and_then(Json::as_str).unwrap();
            assert_eq!(
                path,
                format!("{serve_path}/{stage}"),
                "stage {stage} not nested under its serve span"
            );
            stage_sum += dur_of(spans[0]);
        }
        // Stages are sequential inside the serve span; allow 1us per stage
        // of truncation slop (durations round down independently).
        assert!(
            stage_sum <= dur_of(serve) + 4.0,
            "stage durations {stage_sum}us exceed serve span {}us",
            dur_of(serve)
        );

        // The request point carries the same id, so the JSONL log slices
        // into per-request timelines on the trace key alone.
        let points = in_request
            .iter()
            .filter(|l| kind(l) == "point" && name(l) == "serve.request")
            .count();
        assert_eq!(points, 1, "trace {trace}: serve.request point missing or duplicated");
    }
}

/// A request that panics past validation can still be traced through the
/// log: `try_serve_many_traced` hands back the id its records carry, and
/// its `serve` span both opened and closed (the close is emitted while
/// unwinding) under that id.
#[test]
fn panicking_request_is_traced_through_the_log() {
    let cap = testing::capture();

    let data = load_dataset("pubmed", Scale::Small, 0).expect("bundled dataset");
    // The second weight expects 9 hidden units, the first layer makes 8:
    // neither construction nor validation can see it, the matmul inside
    // the forward pass panics (same fault as chaos_sweep).
    let mut bad_model =
        GnnModel::new(GnnKind::Gcn, data.full.feature_dim(), 8, data.full.num_classes, 3);
    bad_model.params_mut()[2] = DMat::zeros(9, data.full.num_classes);
    let original = data.original_graph();
    let server = InductiveServer::on_original(&original, &bad_model);
    let batches = data.test_batches(10, true);

    let mut results =
        mcond_par::with_thread_limit(1, || server.try_serve_many_traced(&batches[..1]));
    let (result, trace) = results.remove(0);
    assert!(matches!(result, Err(mcond_core::ServeError::Panicked { .. })));
    assert!(trace > 0, "a panicking request keeps its trace id");

    #[allow(clippy::cast_precision_loss)]
    let id = trace as f64;
    let lines = cap.parsed_lines();
    let serve_records = |ev: &str| {
        lines
            .iter()
            .filter(|l| {
                get(l, "ev").and_then(Json::as_str) == Some(ev)
                    && get(l, "name").and_then(Json::as_str) == Some("serve")
                    && get(l, "trace").and_then(Json::as_f64) == Some(id)
            })
            .count()
    };
    assert_eq!(serve_records("span_start"), 1, "trace {trace}: serve span_start missing");
    assert_eq!(serve_records("span"), 1, "trace {trace}: serve span not closed while unwinding");
}
