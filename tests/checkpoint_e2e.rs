//! End-to-end golden test for the persistence layer: condense → train →
//! checkpoint → restore → serve, asserting the restored server produces
//! **bitwise identical** logits to the in-memory pipeline — at 1 worker
//! thread and at 4 — and that the saved image survives the exhaustive
//! fault-injection sweep (every truncation and injected bit flip is a
//! typed error, never a panic or a silently different answer).

use mcond::core::{load_condensed, save_condensed, Checkpoint, InductiveServer};
use mcond::prelude::*;
use mcond::store::corruption_sweep;

/// One small condense+train run shared by the assertions below (computed
/// once; the fault sweep and the golden comparison probe the same bits).
fn condensed_pipeline() -> &'static (InductiveDataset, mcond::core::Condensed, GnnModel) {
    static PIPELINE: std::sync::OnceLock<(InductiveDataset, mcond::core::Condensed, GnnModel)> =
        std::sync::OnceLock::new();
    PIPELINE.get_or_init(build_pipeline)
}

fn build_pipeline() -> (InductiveDataset, mcond::core::Condensed, GnnModel) {
    let data = load_dataset("pubmed", Scale::Small, 11).unwrap();
    let condensed = condense(
        &data,
        &McondConfig {
            ratio: 0.02,
            outer_loops: 1,
            relay_steps: 3,
            mapping_steps: 5,
            support_cap: 32,
            ..McondConfig::default()
        },
    );
    let ops = GraphOps::from_adj(&condensed.synthetic.adj);
    let mut model = GnnModel::new(
        GnnKind::Sgc,
        condensed.synthetic.feature_dim(),
        32,
        condensed.synthetic.num_classes,
        0,
    );
    train(
        &mut model,
        &ops,
        &condensed.synthetic.features,
        &condensed.synthetic.labels,
        &TrainConfig { epochs: 30, ..TrainConfig::default() },
        None,
    );
    (data, condensed, model)
}

#[test]
fn restored_server_is_bitwise_identical_to_in_memory_pipeline() {
    let (data, condensed, model) = condensed_pipeline();
    let ckpt = condensed.checkpoint(model);

    // Persist and restore through the real filesystem.
    let path = std::env::temp_dir().join("mcond_checkpoint_e2e.mcst");
    let written = ckpt.save(&path).expect("save checkpoint");
    assert!(written > 0);
    let restored = Checkpoint::load(&path).expect("load checkpoint");
    std::fs::remove_file(&path).ok();

    // The restored artifacts carry the exact bits of the originals.
    assert!(restored.synthetic.adj.bit_eq(&ckpt.synthetic.adj));
    assert!(restored.synthetic.features.bit_eq(&ckpt.synthetic.features));
    assert!(restored.mapping.bit_eq(&ckpt.mapping));

    let batches = data.test_batches(64, false);
    for threads in [1, 4] {
        let expected: Vec<DMat> = mcond::par::with_thread_limit(threads, || {
            let live =
                InductiveServer::on_synthetic(&condensed.synthetic, &condensed.mapping, model);
            batches.iter().map(|b| live.try_serve(b).expect("live server serves")).collect()
        });
        let got: Vec<DMat> = mcond::par::with_thread_limit(threads, || {
            let server = InductiveServer::from_checkpoint(&restored);
            batches.iter().map(|b| server.try_serve(b).expect("restored server serves")).collect()
        });
        for (i, (e, g)) in expected.iter().zip(&got).enumerate() {
            assert!(
                g.bit_eq(e),
                "batch {i} logits drifted after checkpoint restore (threads = {threads})"
            );
        }
    }
}

/// A real condensation, but of a deliberately tiny graph: the sweeps below
/// are exhaustive (one load per truncation boundary and per flipped bit),
/// so their cost scales with image size squared — a small image keeps the
/// exhaustiveness affordable.
fn tiny_condensed() -> mcond::core::Condensed {
    let graph = generate_sbm(&SbmConfig {
        nodes: 240,
        edges: 720,
        feature_dim: 12,
        num_classes: 3,
        ..SbmConfig::default()
    });
    let n = graph.num_nodes();
    let mut order: Vec<usize> = (0..n).collect();
    MatRng::seed_from(13).shuffle(&mut order);
    let data = InductiveDataset::new(
        graph,
        order[..n * 8 / 10].to_vec(),
        order[n * 8 / 10..n * 9 / 10].to_vec(),
        order[n * 9 / 10..].to_vec(),
    );
    condense(
        &data,
        &McondConfig {
            ratio: 0.05,
            outer_loops: 1,
            relay_steps: 2,
            mapping_steps: 3,
            support_cap: 16,
            ..McondConfig::default()
        },
    )
}

#[test]
fn real_checkpoint_survives_the_fault_sweep() {
    let condensed = tiny_condensed();
    let ops = GraphOps::from_adj(&condensed.synthetic.adj);
    let mut model = GnnModel::new(
        GnnKind::Sgc,
        condensed.synthetic.feature_dim(),
        8,
        condensed.synthetic.num_classes,
        3,
    );
    train(
        &mut model,
        &ops,
        &condensed.synthetic.features,
        &condensed.synthetic.labels,
        &TrainConfig { epochs: 5, ..TrainConfig::default() },
        None,
    );
    let image = condensed.checkpoint(&model).to_writer().to_bytes();

    // Pristine image loads.
    Checkpoint::from_bytes(image.clone()).expect("pristine checkpoint");

    let mut mutations = 0usize;
    for c in corruption_sweep(&image) {
        assert!(
            Checkpoint::from_bytes(c.bytes).is_err(),
            "{} produced a successful load from a corrupted checkpoint",
            c.label
        );
        mutations += 1;
    }
    assert!(mutations > image.len(), "sweep covered only {mutations} mutations");
}

/// The same sweep over the other bundle the system persists — the
/// `save_condensed` directory — through the filesystem, since that is the
/// only way its bytes are ever read.
#[test]
fn saved_artifact_bundle_survives_the_fault_sweep() {
    let dir = std::env::temp_dir().join("mcond_artifact_fault_sweep");
    save_condensed(&tiny_condensed(), &dir).expect("save artifact");
    load_condensed(&dir).expect("pristine artifact");
    let files: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    let [file] = files.as_slice() else { panic!("one container expected, found {files:?}") };
    let image = std::fs::read(file).unwrap();
    assert_eq!(image[..4], mcond::store::MAGIC);

    let mut mutations = 0usize;
    for c in corruption_sweep(&image) {
        std::fs::write(file, &c.bytes).unwrap();
        assert!(
            load_condensed(&dir).is_err(),
            "{} produced a successful load from a corrupted artifact",
            c.label
        );
        mutations += 1;
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(mutations > image.len(), "sweep covered only {mutations} mutations");
}
