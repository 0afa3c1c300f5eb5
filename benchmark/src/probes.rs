//! Per-layer probes of the traced run. Layers are the crate names; each
//! probe times one public function from the benchmark's side, on the
//! workload's own data (the boot graph is the condensed graph on `*_syn`
//! and the original graph on `batch_orig`), or reads a counter the
//! program already exports.

use crate::lifecycle::{build_checkpoint, Ctx, Stack};
use crate::rounds::Rounds;
use crate::stats::median;
use crate::workload::{Workload, DATASET, RATIO, SCALE};
use mcond_autodiff::{Adam, Tape};
use mcond_bench::default_condense_config;
use mcond_core::{Artifact, Checkpoint, Condensed};
use mcond_gnn::{train, GraphOps, TrainConfig};
use mcond_graph::load_dataset;
use mcond_linalg::DMat;
use mcond_serve::http::RequestParser;
use mcond_serve::{decode_batch, decode_logits, encode_batch, encode_logits, HttpLimits};
use mcond_sparse::{sym_normalize, Csr};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

pub type Values = BTreeMap<&'static str, f64>;

/// Median wall microseconds of `iters` calls after one untimed call, one
/// span per call.
fn probe<R>(ctx: &mut Ctx, span: &'static str, iters: usize, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let us: Vec<f64> = (0..iters)
        .map(|_| {
            let id = ctx.rec.enter(span, 0);
            let t = Instant::now();
            black_box(f());
            let dt = t.elapsed().as_secs_f64() * 1e6;
            ctx.rec.exit(id);
            dt
        })
        .collect();
    median(&us)
}

/// Tape forward + backward of spmm -> matmul -> softmax cross-entropy:
/// the chain every relay and training step of condensation runs.
fn autodiff_step(adj: &Arc<Csr>, x: &DMat, w: &DMat, labels: &Arc<Vec<usize>>) {
    let mut tape = Tape::new();
    let wv = tape.param(w.clone());
    let xv = tape.constant(x.clone());
    let h = tape.spmm(Arc::clone(adj), xv);
    let z = tape.matmul(h, wv);
    let loss = tape.softmax_cross_entropy(z, Arc::clone(labels));
    black_box(tape.backward(loss).get(wv).map(DMat::rows));
}

#[allow(clippy::cast_precision_loss)]
fn gflops(flops: usize, us: f64) -> f64 {
    flops as f64 / (us * 1e3)
}

/// Everything that does not depend on the timed rounds. `condense_s` is
/// the traced run's one `condense()` call and `condense_flops` the
/// `linalg.matmul.flops` counter over it.
#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
pub fn layer_probes(
    w: &Workload,
    world: u64,
    stack: &Stack,
    (condensed, artifact): (&Condensed, &Artifact),
    (condense_s, condense_flops): (f64, u64),
    rounds: &mut Rounds<'_>,
    ctx: &mut Ctx,
) -> Result<Values, String> {
    let mut v = Values::new();
    let Stack {
        inputs,
        ckpt,
        model,
        expected,
        slot,
        ..
    } = stack;
    let base = &ckpt.synthetic;
    let epoch = slot.load();
    let server = epoch.server();
    let batch = &inputs.batches[0];
    let cfg = default_condense_config(DATASET, SCALE, RATIO, world);

    // graph
    v.insert(
        "graph.generate_ms",
        probe(ctx, "probe.graph.generate", 3, || {
            load_dataset(DATASET, SCALE, world)
        }) / 1e3,
    );
    let nodes = &inputs.order[..w.batch_nodes];
    v.insert(
        "graph.batch_assemble_us",
        probe(ctx, "probe.graph.batch_assemble", 50, || {
            inputs.data.batch(nodes, w.graph_batch)
        }),
    );
    let (width, dim) = (server.expected_incremental_cols(), server.feature_dim());
    v.insert(
        "graph.validate_us",
        probe(ctx, "probe.graph.validate", 200, || {
            batch.validate_against_prefix(width, dim)
        }),
    );

    // linalg: X_base * W1.
    let w1 = &model.params()[0];
    let us = probe(ctx, "probe.linalg.matmul", 100, || base.features.matmul(w1));
    v.insert("linalg.matmul_us", us);
    v.insert(
        "linalg.matmul_gflops",
        gflops(
            2 * base.features.rows() * base.features.cols() * w1.cols(),
            us,
        ),
    );
    v.insert("linalg.flops_per_condense", condense_flops as f64);

    // sparse
    v.insert(
        "sparse.normalize_us",
        probe(ctx, "probe.sparse.normalize", 50, || {
            sym_normalize(&base.adj)
        }),
    );
    let ahat = Arc::new(sym_normalize(&base.adj));
    let spmm_us = probe(ctx, "probe.sparse.spmm", 100, || ahat.spmm(&base.features));
    v.insert("sparse.spmm_us", spmm_us);
    v.insert(
        "sparse.spmm_gflops",
        gflops(2 * ahat.nnz() * base.features.cols(), spmm_us),
    );
    v.insert(
        "sparse.spmm_t_us",
        probe(ctx, "probe.sparse.spmm_t", 100, || {
            ahat.spmm_t(&base.features)
        }),
    );
    v.insert(
        "sparse.sparsify_ms",
        probe(ctx, "probe.sparse.sparsify", 20, || {
            condensed.resparsify(cfg.mu, cfg.delta)
        }) / 1e3,
    );

    // par
    let threads = mcond_par::max_threads();
    v.insert("par.threads", threads as f64);
    v.insert(
        "par.dispatch_us",
        probe(ctx, "probe.par.dispatch", 500, || {
            mcond_par::parallel_for_chunks(threads, 1, |range| {
                black_box(range);
            });
        }),
    );
    let serial_us = probe(ctx, "probe.par.spmm_serial", 100, || {
        mcond_par::with_thread_limit(1, || ahat.spmm(&base.features))
    });
    v.insert("par.spmm_speedup", serial_us / spmm_us);

    // autodiff: one step at N' and one at N, whatever the workload serves.
    let original = inputs.data.original_graph();
    for (name, span, graph, iters) in [
        (
            "autodiff.step_syn_us",
            "probe.autodiff.step_syn",
            &condensed.synthetic,
            100,
        ),
        (
            "autodiff.step_orig_us",
            "probe.autodiff.step_orig",
            &original,
            20,
        ),
    ] {
        let adj = Arc::new(sym_normalize(&graph.adj));
        let labels = Arc::new(graph.labels.clone());
        let weights = DMat::zeros(graph.feature_dim(), graph.num_classes);
        v.insert(
            name,
            probe(ctx, span, iters, || {
                autodiff_step(&adj, &graph.features, &weights, &labels)
            }),
        );
    }
    let mut param = w1.clone();
    let grad = DMat::filled(w1.rows(), w1.cols(), 1e-3);
    let mut adam = Adam::new(0.01, w1.rows(), w1.cols());
    v.insert(
        "autodiff.adam_us",
        probe(ctx, "probe.autodiff.adam", 200, || {
            adam.step(&mut param, &grad)
        }),
    );

    // gnn
    let ops = GraphOps::from_adj(&base.adj);
    v.insert(
        "gnn.predict_base_us",
        probe(ctx, "probe.gnn.predict_base", 50, || {
            model.predict(&ops, &base.features)
        }),
    );
    const EPOCHS: usize = 5;
    let train_cfg = TrainConfig {
        epochs: EPOCHS,
        ..TrainConfig::default()
    };
    v.insert(
        "gnn.train_epoch_ms",
        probe(ctx, "probe.gnn.train", 5, || {
            train(
                &mut model.clone(),
                &ops,
                &base.features,
                &base.labels,
                &train_cfg,
                None,
            )
        }) / 1e3
            / EPOCHS as f64,
    );

    // core: the program's own stage histograms and work counters over one
    // block of in-process requests. The histograms' buckets are powers of
    // two, so their medians resolve a factor of two at best; their sums
    // are exact, so a stage is reported as its mean per request and held
    // against the mean request time of the same block.
    mcond_obs::reset_metrics();
    let block_us = rounds.lib_block(ctx)?;
    let requests = block_us.len() as f64;
    let snap = mcond_obs::snapshot();
    let mut stage_sum = 0.0;
    for (metric, histogram) in [
        ("core.stage_validate_us", "serve.stage.validate"),
        ("core.stage_attach_us", "serve.stage.attach"),
        ("core.stage_propagate_us", "serve.stage.propagate"),
        ("core.stage_head_us", "serve.stage.head"),
    ] {
        let mean = snap.histogram(histogram).map_or(0.0, |h| h.sum / requests);
        stage_sum += mean;
        v.insert(metric, mean);
    }
    v.insert(
        "core.stage_sum_share",
        stage_sum / (block_us.iter().sum::<f64>() / requests),
    );
    v.insert(
        "linalg.flops_per_request",
        snap.counter("linalg.matmul.flops") as f64 / requests,
    );
    v.insert(
        "sparse.nnz_per_request",
        snap.counter("sparse.spmm.nnz") as f64 / requests,
    );
    v.insert(
        "sparse.bytes_per_request",
        snap.counter("sparse.spmm.bytes") as f64 / requests,
    );
    v.insert(
        "par.tasks_per_request",
        snap.counter("par.pool.tasks") as f64 / requests,
    );
    let served = server.metrics_snapshot();
    let mean = |name: &str| served.histogram(name).map_or(0.0, |h| h.mean);
    v.insert("core.fanout_mean", mean("serve.fanout"));
    v.insert("core.coverage_mean", mean("serve.coverage"));
    let nodes_served = served.histogram("serve.batch_size").map_or(0.0, |h| h.sum);
    v.insert(
        "core.fallback_share",
        served.counter("serve.fallback") as f64 / nodes_served,
    );
    v.insert(
        "core.condense_outer_ms",
        condense_s * 1e3 / cfg.outer_loops as f64,
    );
    v.insert(
        "core.checkpoint_build_ms",
        probe(ctx, "probe.core.checkpoint_build", 10, || {
            build_checkpoint(w.target, &inputs.data, artifact, model)
        }) / 1e3,
    );
    const LOADS: u32 = 100_000;
    let t = Instant::now();
    for _ in 0..LOADS {
        black_box(slot.load());
    }
    v.insert(
        "core.epoch_load_ns",
        t.elapsed().as_secs_f64() * 1e9 / f64::from(LOADS),
    );

    // store
    v.insert(
        "store.encode_ms",
        probe(ctx, "probe.store.encode", 20, || {
            ckpt.to_writer().to_bytes()
        }) / 1e3,
    );
    let image = ckpt.to_writer().to_bytes();
    let mut images = vec![image.clone(); 21];
    let decode_us = probe(ctx, "probe.store.decode", 20, || {
        Checkpoint::from_bytes(images.pop().expect("one image per call")).map(|c| c.mapping.nnz())
    });
    v.insert("store.decode_ms", decode_us / 1e3);
    v.insert("store.decode_mb_per_s", image.len() as f64 / decode_us);
    let scratch = ctx
        .out_dir
        .join(format!("{}.{}.probe.mcst", w.name, std::process::id()));
    v.insert(
        "store.save_ms",
        probe(ctx, "probe.store.save", 10, || ckpt.save(&scratch).ok()) / 1e3,
    );
    v.insert(
        "store.load_ms",
        probe(ctx, "probe.store.load", 10, || {
            Checkpoint::load(&scratch).map(|c| c.mapping.nnz())
        }) / 1e3,
    );
    std::fs::remove_file(&scratch).ok();

    // serve: the wire codec and the HTTP framing, piece by piece.
    let body = &inputs.bodies[0];
    let logits_body = encode_logits(1, &expected[0]);
    v.insert(
        "serve.encode_batch_us",
        probe(ctx, "probe.serve.encode_batch", 50, || encode_batch(batch)),
    );
    v.insert(
        "serve.decode_batch_us",
        probe(ctx, "probe.serve.decode_batch", 50, || {
            decode_batch(body).map(|b| b.len())
        }),
    );
    v.insert(
        "serve.encode_logits_us",
        probe(ctx, "probe.serve.encode_logits", 200, || {
            encode_logits(1, &expected[0])
        }),
    );
    v.insert(
        "serve.decode_logits_us",
        probe(ctx, "probe.serve.decode_logits", 200, || {
            decode_logits(&logits_body).map(|l| l.0)
        }),
    );
    let mut raw = format!(
        "POST /v1/serve HTTP/1.1\r\nhost: mcond\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body.as_bytes());
    v.insert("serve.request_bytes", raw.len() as f64);
    v.insert("serve.response_bytes", logits_body.len() as f64);
    v.insert(
        "serve.parse_us",
        probe(ctx, "probe.serve.parse", 50, || {
            let mut parser = RequestParser::new(HttpLimits::default());
            parser.push(&raw);
            parser.next_request().map(|r| r.map(|r| r.body.len()))
        }),
    );
    let floor = rounds.healthz_block(300, ctx)?;
    v.insert("serve.http_floor_us", median(&floor));
    Ok(v)
}
