//! The lifecycle every workload runs before it is timed:
//! dataset -> `condense()` -> train on the synthetic graph ->
//! `Checkpoint::save` -> `boot_slot` -> `spawn` -> verify.
//!
//! Verification is the correctness gate: nothing is timed until every
//! test batch's wire logits are bitwise the library's, and a wrong output
//! at any point is an `Err` that ends the run without a result.

use crate::spans::Recorder;
use crate::workload::{Inputs, Target, Workload, DATASET, RATIO, SCALE};
use mcond_bench::{default_condense_config, default_epochs, train_on_graph};
use mcond_core::{condense, Artifact, Checkpoint, Condensed, EpochSlot};
use mcond_gnn::{GnnKind, GnnModel};
use mcond_graph::InductiveDataset;
use mcond_linalg::DMat;
use mcond_obs::Json;
use mcond_serve::{boot_slot, decode_logits, spawn, Client, Response, ServeConfig, ServeHandle};
use mcond_sparse::Csr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hidden width of the served GCN (the experiment pipeline's).
const HIDDEN: usize = 64;
/// Read timeout of every benchmark client: far above any request here.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Operations attempted and failed. A failed operation is one the program
/// refused or answered with an error; a *wrong* answer is not counted, it
/// ends the run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// What every stage of a run carries: the span recorder, the operation
/// tally, and the directory the run may write to.
pub struct Ctx {
    pub rec: Recorder,
    pub tally: Tally,
    pub out_dir: PathBuf,
}

/// One timed `condense()` on the world's dataset.
pub fn condense_timed(data: &InductiveDataset, world: u64, ctx: &mut Ctx) -> (Condensed, f64) {
    let cfg = default_condense_config(DATASET, SCALE, RATIO, world);
    ctx.tally.attempted += 1;
    let t = Instant::now();
    let condensed = ctx.rec.time("phase.condense", || condense(data, &cfg));
    (condensed, t.elapsed().as_secs_f64())
}

/// Whether a `condense()` result is bitwise the artifact an earlier call
/// left behind: the determinism check, across processes.
pub fn same_condensation(condensed: &Condensed, artifact: &Artifact) -> bool {
    condensed.synthetic.adj.bit_eq(&artifact.synthetic.adj)
        && condensed
            .synthetic
            .features
            .bit_eq(&artifact.synthetic.features)
        && condensed.synthetic.labels == artifact.synthetic.labels
        && condensed.mapping.bit_eq(&artifact.mapping)
}

/// Wall milliseconds of each set-up phase, for the provenance block.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    pub generate_ms: f64,
    pub train_ms: f64,
    pub build_ms: f64,
    pub save_ms: f64,
    pub boot_ms: f64,
    pub spawn_ms: f64,
    pub verify_ms: f64,
}

/// A booted, verified serving stack and what the timed rounds check
/// against.
pub struct Stack {
    pub inputs: Inputs,
    pub model: GnnModel,
    /// In-memory copy of what was saved: the boot graph and mapping.
    pub ckpt: Checkpoint,
    pub path: PathBuf,
    pub bytes: u64,
    pub slot: Arc<EpochSlot>,
    pub handle: ServeHandle,
    /// `try_serve` logits of every batch on the boot epoch.
    pub expected: Vec<DMat>,
    pub accuracy: f64,
    pub checkpoint_id: String,
    pub phases: Phases,
}

impl Phases {
    pub fn to_json(self) -> Json {
        Json::obj()
            .with("generate", self.generate_ms)
            .with("train", self.train_ms)
            .with("checkpoint_build", self.build_ms)
            .with("save", self.save_ms)
            .with("boot", self.boot_ms)
            .with("spawn", self.spawn_ms)
            .with("verify", self.verify_ms)
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Decodes a `/v1/serve` response and holds it against the library's
/// answer. `Ok(false)` is a refused or failed request; `Err` a wrong one.
pub fn check_response(resp: &Response, want: &DMat, what: &str) -> Result<bool, String> {
    if resp.status != 200 {
        return Ok(false);
    }
    let (_, logits) =
        decode_logits(&resp.text()).map_err(|e| format!("{what}: undecodable 200 body: {e}"))?;
    if logits.bit_eq(want) {
        Ok(true)
    } else {
        Err(format!(
            "{what}: wire logits are not bitwise equal to try_serve"
        ))
    }
}

/// The serve-ready bundle of a target: the condensed graph with its
/// mapping, or the original graph behind an identity mapping (Eq. 3
/// expressed as a bootable checkpoint). The model is the S-trained one
/// either way.
pub fn build_checkpoint(
    target: Target,
    data: &InductiveDataset,
    artifact: &Artifact,
    model: &GnnModel,
) -> Result<Checkpoint, String> {
    match target {
        Target::Synthetic => Checkpoint::new(
            artifact.synthetic.clone(),
            artifact.mapping.clone(),
            model.clone(),
        ),
        Target::Original => {
            let original = data.original_graph();
            let n = original.num_nodes();
            Checkpoint::new(original, Csr::eye(n), model.clone())
        }
    }
    .map_err(|e| format!("checkpoint bundle: {e}"))
}

/// Everything after the inputs exist: train, save, boot, spawn, verify.
pub fn stand_up(
    w: &Workload,
    world: u64,
    inputs: Inputs,
    generate_ms: f64,
    artifact: &Artifact,
    ctx: &mut Ctx,
) -> Result<Stack, String> {
    let Ctx {
        rec,
        tally,
        out_dir,
    } = ctx;
    let mut phases = Phases {
        generate_ms,
        ..Phases::default()
    };

    let t = Instant::now();
    let model = rec.time("phase.train", || {
        train_on_graph(
            &artifact.synthetic,
            GnnKind::Gcn,
            default_epochs(SCALE),
            HIDDEN,
            world,
        )
    });
    phases.train_ms = ms(t);

    let t = Instant::now();
    let ckpt = rec.time("phase.checkpoint_build", || {
        build_checkpoint(w.target, &inputs.data, artifact, &model)
    })?;
    phases.build_ms = ms(t);

    let path = out_dir.join(format!("{}.{}.mcst", w.name, std::process::id()));
    let t = Instant::now();
    let bytes = rec
        .time("phase.save", || ckpt.save(&path))
        .map_err(|e| format!("save checkpoint: {e}"))?;
    phases.save_ms = ms(t);

    let t = Instant::now();
    let slot = rec
        .time("phase.boot", || boot_slot(&path))
        .map_err(|e| format!("boot: {e}"))?;
    phases.boot_ms = ms(t);

    let t = Instant::now();
    let handle = rec
        .time("phase.spawn", || {
            spawn(Arc::clone(&slot), ServeConfig::default())
        })
        .map_err(|e| format!("spawn front end: {e}"))?;
    phases.spawn_ms = ms(t);

    let t = Instant::now();
    let verify = rec.enter("phase.verify", 0);
    let epoch = slot.load();
    let mut client =
        Client::connect(handle.addr(), CLIENT_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    let mut expected = Vec::with_capacity(inputs.batches.len());
    let mut hits = 0usize;
    for (i, (batch, body)) in inputs.batches.iter().zip(&inputs.bodies).enumerate() {
        tally.attempted += 2;
        let direct = epoch
            .server()
            .try_serve(batch)
            .map_err(|e| format!("batch {i}: try_serve refused a generated batch: {e}"))?;
        let resp = client
            .request("POST", "/v1/serve", body.as_bytes())
            .map_err(|e| format!("batch {i}: transport: {e}"))?;
        if !check_response(&resp, &direct, &format!("batch {i}"))? {
            return Err(format!(
                "batch {i}: HTTP {} during verification",
                resp.status
            ));
        }
        hits += direct
            .argmax_rows()
            .iter()
            .zip(&batch.labels)
            .filter(|(p, y)| p == y)
            .count();
        expected.push(direct);
    }
    rec.exit(verify);
    phases.verify_ms = ms(t);

    #[allow(clippy::cast_precision_loss)]
    let accuracy = hits as f64 / inputs.test_nodes() as f64;
    let checkpoint_id = epoch.checkpoint_id().to_owned();
    Ok(Stack {
        inputs,
        model,
        ckpt,
        path,
        bytes,
        slot,
        handle,
        expected,
        accuracy,
        checkpoint_id,
        phases,
    })
}

impl Stack {
    /// Drains and stops the front end, and removes the checkpoint file.
    pub fn tear_down(self) {
        self.handle.shutdown();
        std::fs::remove_file(&self.path).ok();
    }
}
