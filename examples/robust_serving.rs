//! Fault-tolerant serving: typed errors, per-request panic isolation,
//! fallback policies, and the request-level chaos harness (DESIGN.md §4f),
//! plus the observability layer watching it all (DESIGN.md §4h): the
//! self-profiler decomposing the serve path into its stage spans, and the
//! panic flight recorder producing a trace-stamped post-mortem.
//!
//! Condenses a small graph, then attacks the resulting [`InductiveServer`]
//! with every corrupted batch from `mcond::core::chaos` — on **both**
//! serving modes, at 1 and 4 threads — asserting the robustness contract:
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

    // --- chaos sweep: both serving modes, both thread counts -------------
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
    // The profiler folds span closes into a call tree; the stage spans
    // (validate / attach / propagate / head, plus fallback when it fires)
    // must account for >= 90% of the serve span's wall time — anything
    // less means untraced work crept into the hot path.
    mcond::obs::profile::start();
    {
        // Profile against the in-memory sink: with `MCOND_LOG` pointed at a
        // file, per-record write latency would otherwise be charged to the
        // serve span's self time and drown the stages it decomposes into.
        let _sink = mcond::obs::testing::capture();
        for batch in &data.test_batches(50, true) {
            let _ = on_original.try_serve(batch);
        }
    }
    let profile = mcond::obs::profile::stop();
    print!("{}", profile.table());
    let serve = profile.get("serve").expect("serve span profiled");
    let stage_self: u64 = ["validate", "attach", "fallback", "propagate", "head"]
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

    // --- panic flight recorder -------------------------------------------
    // A model misconfigured for the feature dimension blows up inside the
    // forward pass, past validation. With the flight recorder on, the
    // caught panic dumps the last events on the dying request's thread as
    // one `flight` record stamped with that request's trace id.
    {
        use mcond::obs::Json;
        let cap = mcond::obs::testing::capture();
        mcond::obs::flight::enable(true);
        let bad_model = GnnModel::new(
            GnnKind::Gcn,
            data.full.feature_dim() + 1,
            8,
            data.full.num_classes,
            1,
        );
        let bad = InductiveServer::on_original(&original, &bad_model);
        let results = mcond::par::with_thread_limit(1, || {
            bad.try_serve_many(std::slice::from_ref(&donor))
        });
        mcond::obs::flight::enable(false);
        assert!(
            matches!(results[0], Err(ServeError::Panicked { .. })),
            "misconfigured model should panic past validation"
        );
        let dump = cap
            .parsed_lines()
            .into_iter()
            .find(|l| l.get("ev").and_then(Json::as_str) == Some("flight"))
            .expect("caught panic must dump the flight ring");
        let trace = dump.get("trace").and_then(Json::as_f64).unwrap_or(0.0);
        let events = dump.get("events").and_then(Json::as_arr).map_or(0, <[Json]>::len);
        assert!(trace > 0.0, "flight dump must carry the dying request's trace id");
        assert!(events > 0, "flight dump must carry the pre-panic events");
        mcond::obs::flight::clear();
        println!("  flight recorder: panic dumped {events} events for trace {trace:.0}");
    }

    // --- fallback policies ----------------------------------------------
    // A brutally sparsified mapping leaves some inductive nodes with an
    // empty `aM` row; each policy answers them differently.
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
    let uncovered = {
        let strict = InductiveServer::on_synthetic(&condensed.synthetic, &pruned, &model)
            .with_fallback(FallbackPolicy::Reject);
        match strict.try_serve(&batch) {
            Err(ServeError::NoAttachment { node, coverage }) => {
                println!(
                    "  Reject: refused — node {node} has coverage {coverage:.3} under the pruned mapping"
                );
                true
            }
            Ok(_) => {
                println!("  Reject: every node still covered after pruning");
                false
            }
            Err(e) => panic!("unexpected error under Reject: {e}"),
        }
    };

    let lenient = InductiveServer::on_synthetic(&condensed.synthetic, &pruned, &model);
    let served = lenient.try_serve(&batch).expect("SelfLoopOnly always serves");
    let snap = lenient.metrics_snapshot();
    let fallback = snap
        .counters
        .iter()
        .find(|(k, _)| k == "serve.fallback")
        .map_or(0, |(_, v)| *v);
    println!(
        "  SelfLoopOnly: served {} nodes, {} via self-loop fallback",
        served.rows(),
        fallback
    );
    assert!(served.all_finite());

    let degraded_server = InductiveServer::on_synthetic(&condensed.synthetic, &pruned, &model)
        .with_fallback(FallbackPolicy::OriginalGraph)
        .with_original_graph(&original);
    let degraded = degraded_server.try_serve(&batch).expect("OriginalGraph fallback serves");
    if uncovered {
        let eq3 = InductiveServer::on_original(&original, &model)
            .try_serve(&batch)
            .expect("Eq. 3 serving succeeds");
        assert_eq!(
            degraded.as_slice(),
            eq3.as_slice(),
            "degraded batch must match Eq. 3 serving exactly"
        );
        println!("  OriginalGraph: degraded batch matches Eq. 3 serving bitwise");
    } else {
        println!("  OriginalGraph: no fallback needed, served on the synthetic graph");
    }

    println!("robust_serving: all invariants held");
}
