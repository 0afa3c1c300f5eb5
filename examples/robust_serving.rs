//! Fault-tolerant serving: typed errors, per-request panic isolation,
//! the self-loop fallback, and the request-level chaos harness (DESIGN.md §4f),
//! plus the observability layer watching it all (DESIGN.md §4h): a profile
//! folded from the event log decomposing the serve path into its stage
//! spans, and a panicking request traced through that log by its id.
//!
//! Condenses a small graph, then attacks the resulting [`InductiveServer`]
//! with every corrupted batch from `mcond::core::chaos` — on **both**
//! attachment targets, at 1 and 4 threads — asserting the robustness contract:
//! every corruption is answered with a typed [`ServeError`] (never a
//! panic, never a non-finite logit), and corrupted siblings in a mixed
//! fan-out leave valid results bitwise untouched.
//!
//! ```sh
//! cargo run --release --example robust_serving
//! # with a JSONL trace for offline analysis (see trace-report):
//! MCOND_LOG=target/robust_serving_trace.jsonl cargo run --release --example robust_serving
//! ```

use mcond::core::chaos::corrupted_batches;
use mcond::prelude::*;

fn main() {
    let data = load_dataset("pubmed", Scale::Small, 0).expect("bundled dataset");
    let condensed = condense(
        &data,
        &McondConfig { ratio: 0.02, outer_loops: 2, relay_steps: 8, ..Default::default() },
    );
    let original = data.original_graph();
    let model = GnnModel::new(
        GnnKind::Gcn,
        data.full.feature_dim(),
        32,
        data.full.num_classes,
        0,
    );

    // --- chaos sweep: both targets, both thread counts -------------------
    let donor = data.test_batches(50, true).remove(0);
    let catalogue = corrupted_batches(&donor);
    println!("chaos catalogue: {} corruptions of a valid {}-node batch", catalogue.len(), donor.len());

    let on_original = InductiveServer::on_original(&original, &model);
    let on_synthetic =
        InductiveServer::on_synthetic(&condensed.synthetic, &condensed.mapping, &model);
    for (mode, server) in [("original", &on_original), ("synthetic", &on_synthetic)] {
        for threads in [1usize, 4] {
            let mut batches = vec![donor.clone()];
            batches.extend(corrupted_batches(&donor).into_iter().map(|c| c.batch));
            let results =
                mcond::par::with_thread_limit(threads, || server.try_serve_many(&batches));

            let valid = results[0].as_ref().unwrap_or_else(|e| {
                panic!("{mode}@{threads}: valid batch rejected: {e}")
            });
            assert!(valid.all_finite(), "{mode}@{threads}: non-finite logits served");
            for (case, result) in catalogue.iter().zip(&results[1..]) {
                match result {
                    Err(e) => {
                        assert!(
                            matches!(e, ServeError::InvalidBatch(_)),
                            "{mode}@{threads}/{}: unexpected error class {e:?}",
                            case.name
                        );
                    }
                    Ok(_) => panic!("{mode}@{threads}/{}: corruption was served", case.name),
                }
            }
            println!(
                "  [{mode}] {} threads: {} corruptions -> typed errors, valid batch served",
                threads,
                catalogue.len()
            );
        }
    }

    // Valid results are bitwise identical across thread counts.
    let reference = on_synthetic.try_serve(&donor).expect("reference serve");
    for threads in [1usize, 4] {
        let again = mcond::par::with_thread_limit(threads, || {
            on_synthetic.try_serve_many(std::slice::from_ref(&donor))
        })
        .remove(0)
        .expect("valid batch serves");
        assert_eq!(
            again.as_slice(),
            reference.as_slice(),
            "thread count changed valid results"
        );
    }
    println!("  valid logits bitwise identical at 1 and 4 threads");

    // --- self-profile: the serve path decomposes into its stages ---------
    // The span records of the log fold into a call tree; the stage spans
    // (validate / attach / propagate / head) must account for >= 90% of
    // the serve span's wall time — anything less means untraced work crept
    // into the hot path.
    let profile = {
        // Profile against the in-memory sink: with `MCOND_LOG` pointed at a
        // file, per-record write latency would otherwise be charged to the
        // serve span's self time and drown the stages it decomposes into.
        let sink = mcond::obs::testing::capture();
        for batch in &data.test_batches(50, true) {
            let _ = on_original.try_serve(batch);
        }
        mcond::obs::Profile::from_jsonl(&sink.text())
    };
    print!("{}", profile.table());
    let serve = profile.get("serve").expect("serve span profiled");
    let stage_self: u64 = ["validate", "attach", "propagate", "head"]
        .iter()
        .filter_map(|s| profile.get(&format!("serve/{s}")))
        .map(|e| e.self_us)
        .sum();
    assert!(
        stage_self * 10 >= serve.total_us * 9,
        "stage spans cover only {stage_self}us of the {}us serve path",
        serve.total_us
    );
    println!(
        "  self-profile: stages cover {stage_self}us / {}us of serve ({:.1}%)",
        serve.total_us,
        100.0 * stage_self as f64 / serve.total_us.max(1) as f64
    );

    // --- a panicking request, traced through the log ---------------------
    // A model whose layers disagree (its second weight expects 9 hidden
    // units, its first layer makes 8) boots and blows up inside the
    // forward pass, past validation. The caught panic keeps the request's
    // trace id, and the log holds its `serve` span, opened and closed
    // (while unwinding) under that id.
    {
        use mcond::obs::Json;
        let cap = mcond::obs::testing::capture();
        let mut bad_model =
            GnnModel::new(GnnKind::Gcn, data.full.feature_dim(), 8, data.full.num_classes, 1);
        bad_model.params_mut()[2] = DMat::zeros(9, data.full.num_classes);
        let bad = InductiveServer::on_original(&original, &bad_model);
        let (result, trace) = mcond::par::with_thread_limit(1, || {
            bad.try_serve_many_traced(std::slice::from_ref(&donor))
        })
        .remove(0);
        assert!(
            matches!(result, Err(ServeError::Panicked { .. })),
            "misconfigured model should panic past validation"
        );
        assert!(trace > 0, "a panicking request keeps its trace id");
        let records: Vec<Json> = cap
            .parsed_lines()
            .into_iter()
            .filter(|l| l.get("trace").and_then(Json::as_f64) == Some(trace as f64))
            .collect();
        for ev in ["span_start", "span"] {
            assert!(
                records.iter().any(|l| l.get("ev").and_then(Json::as_str) == Some(ev)
                    && l.get("name").and_then(Json::as_str) == Some("serve")),
                "trace {trace}: no serve {ev} record"
            );
        }
        println!("  panic: trace {trace} has {} records in the log", records.len());
    }

    // --- self-loop fallback ---------------------------------------------
    // A brutally sparsified mapping leaves some inductive nodes with an
    // empty `aM` row; they are served from their own self-loop and
    // counted under `serve.fallback`.
    let pruned = {
        let mut coo = Coo::new(condensed.mapping.rows(), condensed.mapping.cols());
        for (i, j, v) in condensed.mapping.iter() {
            if v >= 0.9 {
                coo.push(i, j, v);
            }
        }
        coo.to_csr()
    };
    let batch = data.test_batches(200, true).remove(0);
    let server = InductiveServer::on_synthetic(&condensed.synthetic, &pruned, &model);
    let served = server.try_serve(&batch).expect("the self-loop fallback always serves");
    let fallback = server
        .metrics_snapshot()
        .counters
        .iter()
        .find(|(k, _)| k == "serve.fallback")
        .map_or(0, |(_, v)| *v);
    let attach = server.attachment(&batch);
    let empty_rows = (0..batch.len()).filter(|&i| attach.row_cols(i).is_empty()).count();
    assert_eq!(fallback, empty_rows as u64, "every empty attachment row is counted once");
    assert!(served.all_finite());
    println!(
        "  self-loop fallback: served {} nodes, {fallback} from their self-loop",
        served.rows()
    );

    println!("robust_serving: all invariants held");
}
