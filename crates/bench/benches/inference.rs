//! The Fig. 3 / Fig. 4 kernel as a microbench: end-to-end inductive
//! inference of one test batch on the original graph (Eq. 3) versus the
//! condensed graph through the mapping (Eq. 11) — both through
//! `InductiveServer::try_serve`, the path that ships — plus the Table III
//! propagation kernels on both targets.

use mcond_bench::microbench::{black_box, Bench};
use mcond_bench::pipeline::{build_pipeline, Pipeline};
use mcond_core::InductiveServer;
use mcond_graph::Scale;
use mcond_propagate::{label_propagation, PropagationConfig};
use mcond_sparse::spmm_sparse;

fn pipeline() -> Pipeline {
    build_pipeline("reddit", Scale::Small, 0.015, 0, Some(60))
}

fn bench_inductive_inference(bench: &mut Bench, p: &Pipeline) {
    let batch = &p.data.test_batches(100, true)[0];
    let original = InductiveServer::on_original(&p.original, &p.model_original);
    let synthetic =
        InductiveServer::on_synthetic(&p.mcond.synthetic, &p.mcond.mapping, &p.model_original);

    bench.run("inductive_inference/original_graph", || {
        black_box(original.try_serve(batch).expect("test batch serves"))
    });
    bench.run("inductive_inference/synthetic_graph", || {
        black_box(synthetic.try_serve(batch).expect("test batch serves"))
    });
}

fn bench_propagation(bench: &mut Bench, p: &Pipeline) {
    let batch = &p.data.test_batches(100, true)[0];
    let cfg = PropagationConfig::default();

    // Label propagation runs on the combined structure, spelled out.
    let adj_o = p.original.adj.block_extend(&batch.incremental, &batch.interconnect);
    let adj_s = p
        .mcond
        .synthetic
        .adj
        .block_extend(&spmm_sparse(&batch.incremental, &p.mcond.mapping), &batch.interconnect);

    bench.run("label_propagation/original_graph", || {
        black_box(label_propagation(
            &adj_o,
            &p.original.labels,
            p.original.num_nodes(),
            p.original.num_classes,
            &cfg,
        ))
    });
    bench.run("label_propagation/synthetic_graph", || {
        black_box(label_propagation(
            &adj_s,
            &p.mcond.synthetic.labels,
            p.mcond.synthetic.num_nodes(),
            p.original.num_classes,
            &cfg,
        ))
    });
}

fn main() {
    let p = pipeline();
    let mut bench = Bench::from_env().sample_size(20);
    bench_inductive_inference(&mut bench, &p);
    bench_propagation(&mut bench, &p);
    bench.finish("inductive inference microbenches");
}
