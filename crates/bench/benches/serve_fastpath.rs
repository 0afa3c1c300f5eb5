//! Serving latency of the two forward passes [`InductiveServer`] offers —
//! the exact split-operator pass (`ServeMode::Exact`, the default) and the
//! opt-in frozen-base cache (`ServeMode::FrozenBase`) — each on both
//! attachment targets: the original graph (Eq. 3) and a reduced graph +
//! mapping (Eq. 11).
//!
//! Each mode serves the same batch set serially; the report records the
//! per-mode median and the speedup over the exact pass. The equivalence
//! contract itself (served logits bitwise equal to the vstack-and-slice
//! forward) is enforced by the `fastpath_equivalence` test — the bench
//! asserts it once more on one batch so a perf number is never reported
//! for a divergent path.
//!
//! Output: `results/BENCH_serve_fastpath.json`.

use mcond_bench::microbench::{black_box, Bench};
use mcond_bench::{print_table, Row, TableReport};
use mcond_core::{vng, InductiveServer, ServeMode};
use mcond_gnn::{GnnKind, GnnModel, GraphOps};
use mcond_graph::{load_dataset, Graph, NodeBatch, Scale};
use mcond_sparse::{spmm_sparse, Csr};

const MODES: [(&str, ServeMode); 2] =
    [("exact", ServeMode::Exact), ("frozen", ServeMode::FrozenBase)];

fn bench_serving(
    bench: &mut Bench,
    target: &str,
    model: &GnnModel,
    base: &Graph,
    mapping: Option<&Csr>,
    batches: &[NodeBatch],
) {
    let make = |mode| {
        match mapping {
            Some(m) => InductiveServer::on_synthetic(base, m, model),
            None => InductiveServer::on_original(base, model),
        }
        .with_serve_mode(mode)
    };

    // Guard the contract before timing it: the served logits must equal
    // the stacked forward (vstack, every layer over all rows, slice the
    // bottom) bitwise before their latency means anything.
    let batch = &batches[0];
    let attach =
        mapping.map_or_else(|| batch.incremental.clone(), |m| spmm_sparse(&batch.incremental, m));
    let ops = GraphOps::extended(&base.adj, &attach, &batch.interconnect);
    let stacked = model.predict(&ops, &base.features.vstack(&batch.features));
    let served = make(ServeMode::Exact).try_serve(batch).expect("bench batch serves");
    assert_eq!(
        served.as_slice(),
        stacked.slice_rows(base.num_nodes(), stacked.rows()).as_slice(),
        "{target}: served logits diverged from the stacked reference"
    );

    for (name, mode) in MODES {
        let server = make(mode);
        bench.run(&format!("serve/{target}/{name}"), || {
            for batch in batches {
                black_box(server.try_serve(batch).expect("bench batch serves"));
            }
        });
    }
}

fn report(bench: &Bench, targets: &[&str]) -> TableReport {
    let mut report = TableReport::new("serving fast path (median over the batch sweep)");
    let median = |name: &str| {
        bench
            .results()
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.median_ns)
            .unwrap_or(f64::NAN)
    };
    for target in targets {
        let exact = median(&format!("serve/{target}/exact"));
        for (name, _) in MODES {
            let m = median(&format!("serve/{target}/{name}"));
            report.push(
                Row::new()
                    .key("target", target)
                    .key("mode", name)
                    .metric("median_ns", m)
                    .metric("speedup_vs_exact", exact / m),
            );
        }
    }
    report.attach_metrics(&mcond_obs::snapshot());
    report
}

fn main() {
    let mut bench = Bench::from_env();
    let data = load_dataset("pubmed", Scale::Small, 0).expect("pubmed generator");
    let original = data.original_graph();
    let model =
        GnnModel::new(GnnKind::Gcn, data.full.feature_dim(), 16, data.full.num_classes, 2);
    let batches = data.test_batches(40, true);

    // Eq. 3: attach to the original training graph.
    bench_serving(&mut bench, "original", &model, &original, None, &batches);

    // Eq. 11: attach to a reduced graph through its mapping (VNG stands in
    // for a condensed artifact — serving cost only depends on N' and nnz).
    let n_virtual = (original.num_nodes() / 20).max(original.num_classes);
    let reduced = vng(&original, &original.features, n_virtual, 3);
    bench_serving(
        &mut bench,
        "synthetic",
        &model,
        &reduced.graph,
        Some(&reduced.mapping),
        &batches,
    );

    let report = report(&bench, &["original", "synthetic"]);
    bench.finish("serving fast path microbenches");
    print_table(&report);
    report.dump_bench_json("BENCH_serve_fastpath");
}
