//! Versioned checkpointing: condense once, persist the serve-ready bundle
//! (`S = {A', X', Y'}` + mapping `M` + trained weights) as one CRC-checked
//! `MCST` file, then boot an [`InductiveServer`] from the restored bundle —
//! without the original graph — and verify its logits are bitwise
//! identical to the in-memory pipeline. Doubles as the CI smoke test for
//! the persistence layer.
//!
//! ```sh
//! cargo run --release --example checkpointing
//! ```

use mcond::core::{Checkpoint, InductiveServer};
use mcond::prelude::*;

fn main() {
    // --- Offline phase: condense and train. --------------------------------
    let data = load_dataset("pubmed", Scale::Small, 0).expect("bundled dataset");
    let condensed = condense(
        &data,
        &McondConfig { ratio: 0.02, outer_loops: 2, relay_steps: 5, ..Default::default() },
    );
    let ops = GraphOps::from_adj(&condensed.synthetic.adj);
    let mut model = GnnModel::new(
        GnnKind::Sgc,
        condensed.synthetic.feature_dim(),
        64,
        condensed.synthetic.num_classes,
        0,
    );
    train(
        &mut model,
        &ops,
        &condensed.synthetic.features,
        &condensed.synthetic.labels,
        &TrainConfig { epochs: 100, ..TrainConfig::default() },
        None,
    );

    // --- Persist the serve-ready bundle atomically. ------------------------
    let path = std::env::temp_dir().join("mcond_example_checkpoint.mcst");
    let ckpt = condensed.checkpoint(&model);
    let bytes = ckpt.save(&path).expect("save checkpoint");
    println!("checkpoint: {bytes} bytes at {}", path.display());

    // --- Deployment phase: restore and serve (no original graph). ----------
    let restored = Checkpoint::load(&path).expect("load checkpoint");
    let server = InductiveServer::from_checkpoint(&restored);
    let live = InductiveServer::on_synthetic(&condensed.synthetic, &condensed.mapping, &model);

    let batches = data.test_batches(100, false);
    let mut hits = 0.0;
    let mut total = 0usize;
    for batch in &batches {
        let logits = server.try_serve(batch).expect("restored server serves");
        assert!(
            logits.bit_eq(&live.try_serve(batch).expect("live server serves")),
            "restored server drifted from the in-memory pipeline"
        );
        hits += accuracy(&logits, &batch.labels) * batch.len() as f64;
        total += batch.len();
    }
    println!(
        "restored server: {:.2}% accuracy over {} inductive nodes — bitwise \
         identical to the in-memory pipeline",
        100.0 * hits / total as f64,
        total
    );

    // --- Integrity: corruption is a typed error, never a panic. ------------
    let mut image = std::fs::read(&path).expect("read image");
    let mid = image.len() / 2;
    image[mid] ^= 0x40;
    match Checkpoint::from_bytes(image) {
        Err(e) => println!("flipped one bit mid-file: load rejected with `{e}`"),
        Ok(_) => unreachable!("corrupted checkpoint must not load"),
    }
    std::fs::remove_file(&path).ok();
}
