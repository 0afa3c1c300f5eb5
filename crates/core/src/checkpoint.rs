//! The serve-ready artifact bundle: condensed graph + mapping + weights.
//!
//! A [`Checkpoint`] is everything [`InductiveServer`](crate::InductiveServer)
//! needs to answer inductive queries — the synthetic triple `S = {A', X',
//! Y'}`, the sparsified mapping `M`, and the trained GNN — persisted as one
//! `MCST` container (see `mcond-store`). [`Checkpoint::load`] re-validates
//! the cross-section invariants (`M` columns index the synthetic nodes, the
//! model's input/output widths match `X'`/`Y'`), so a restored bundle is
//! exactly as safe to serve from as a freshly condensed one, and a server
//! booted from it never touches the original graph.

use crate::artifact::{self, Artifact};
use crate::condense::Condensed;
use crate::server::InductiveServer;
use mcond_gnn::{BaseDegrees, GnnModel};
use mcond_graph::Graph;
use mcond_sparse::Csr;
use mcond_store::{codec, CheckpointReader, CheckpointWriter, StoreError};
use std::borrow::Cow;
use std::path::Path;
use std::time::Instant;

/// Section name of the weights inside the container, beside the
/// `synthetic` and `mapping` sections a checkpoint shares with an
/// [`Artifact`]. The decoder reads these three only: a section it does not
/// know is skipped (and CRC-checked by [`Checkpoint::load_for_serving`]).
const SEC_MODEL: &str = "model";

/// A complete, serve-ready condensed artifact.
#[derive(Clone)]
pub struct Checkpoint {
    /// The condensed graph `S = {A', X', Y'}`.
    pub synthetic: Graph,
    /// Sparsified mapping `M : N x N'` from original to synthetic nodes.
    pub mapping: Csr,
    /// Trained GNN weights.
    pub model: GnnModel,
}

impl Checkpoint {
    /// Bundles the three artifacts, validating that they agree with each
    /// other (the same checks [`Checkpoint::load`] applies to untrusted
    /// bytes, so an in-memory bundle can never save an unserveable file).
    ///
    /// # Errors
    /// [`StoreError::ShapeMismatch`] when the mapping or model does not fit
    /// the synthetic graph.
    pub fn new(synthetic: Graph, mapping: Csr, model: GnnModel) -> Result<Self, StoreError> {
        artifact::mapping_indexes(&mapping, &synthetic)?;
        let in_dim = model.in_dim();
        if in_dim != synthetic.feature_dim() {
            return Err(StoreError::ShapeMismatch {
                reason: format!(
                    "model expects {in_dim}-dim inputs but X' has {} features",
                    synthetic.feature_dim()
                ),
            });
        }
        let out_dim = model.out_dim();
        if out_dim != synthetic.num_classes {
            return Err(StoreError::ShapeMismatch {
                reason: format!(
                    "model emits {out_dim} logits but the graph has {} classes",
                    synthetic.num_classes
                ),
            });
        }
        Ok(Self { synthetic, mapping, model })
    }

    /// Serialises the bundle into an `MCST` image.
    #[must_use]
    pub fn to_writer(&self) -> CheckpointWriter {
        let mut w = CheckpointWriter::new();
        artifact::add_sections(&mut w, &self.synthetic, &self.mapping);
        w.add_encoded(SEC_MODEL, |b| codec::encode_model(b, &self.model));
        w
    }

    /// Writes the bundle to `path` atomically; returns the bytes written.
    ///
    /// # Errors
    /// [`StoreError::Io`] on filesystem failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<u64, StoreError> {
        self.to_writer().write_atomic(path.as_ref())
    }

    /// Reads and validates a bundle from `path`.
    ///
    /// # Errors
    /// Any [`StoreError`]: corrupt bytes surface as the typed error naming
    /// the damaged section (a corrupted `mapping` section yields
    /// `ChecksumMismatch { section: "mapping" }`, never a panic), and
    /// structurally valid but mutually inconsistent sections surface as
    /// [`StoreError::ShapeMismatch`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let start = Instant::now();
        let reader = CheckpointReader::open(path.as_ref())?;
        let ckpt = Self::from_reader(&reader)?;
        mcond_obs::histogram_record("store.load.ms", start.elapsed().as_secs_f64() * 1e3);
        mcond_obs::emit_snapshot("store.load");
        Ok(ckpt)
    }

    /// Reads a bundle for hot-swap serving: every section's CRC is checked
    /// up front ([`CheckpointReader::verify_sections`]) — not only the
    /// sections the decoder touches — before the usual decode and
    /// cross-section validation. Returns the checkpoint together with its
    /// [content id](CheckpointReader::content_id), the stable fingerprint a
    /// serving layer reports as the epoch's checkpoint id.
    ///
    /// # Errors
    /// Same contract as [`Checkpoint::load`], plus a typed
    /// [`StoreError::ChecksumMismatch`] for damage anywhere in the file.
    pub fn load_for_serving(path: impl AsRef<Path>) -> Result<(Self, String), StoreError> {
        let start = Instant::now();
        let reader = CheckpointReader::open(path.as_ref())?;
        reader.verify_sections()?;
        let id = reader.content_id();
        let ckpt = Self::from_reader(&reader)?;
        mcond_obs::histogram_record("store.load.ms", start.elapsed().as_secs_f64() * 1e3);
        Ok((ckpt, id))
    }

    /// Decodes a bundle from an in-memory image (the fault-injection sweep
    /// uses this to probe thousands of corrupted variants without touching
    /// the filesystem).
    ///
    /// # Errors
    /// Same contract as [`Checkpoint::load`].
    pub fn from_bytes(image: Vec<u8>) -> Result<Self, StoreError> {
        Self::from_reader(&CheckpointReader::from_bytes(image)?)
    }

    fn from_reader(reader: &CheckpointReader) -> Result<Self, StoreError> {
        let Artifact { synthetic, mapping } = artifact::read_sections(reader)?;
        let model = reader.decode(SEC_MODEL, codec::decode_model)?;
        Self::new(synthetic, mapping, model)
    }

    /// Moves the bundle into a server that owns it — what a long-lived
    /// serving slot boots from. Same endpoint as
    /// [`InductiveServer::from_checkpoint`], with nothing left to outlive.
    ///
    /// # Panics
    /// Panics, at construction, when a bundle assembled field by field
    /// (bypassing [`Checkpoint::new`]'s checks) holds a model whose input
    /// width is not the graph's feature width.
    #[must_use]
    pub fn into_server(self) -> InductiveServer<'static> {
        let deg = BaseDegrees::of(&self.synthetic.adj);
        InductiveServer::new(
            Cow::Owned(self.synthetic),
            Cow::Owned(deg),
            Cow::Owned(self.mapping),
            Cow::Owned(self.model),
        )
    }
}

impl Condensed {
    /// Bundles this condensation result with trained weights into a
    /// serve-ready [`Checkpoint`].
    ///
    /// # Panics
    /// Panics when `model` was not trained on this condensed graph (its
    /// dimensions disagree) — that is a programming error, unlike the
    /// typed errors untrusted *bytes* produce on load.
    #[must_use]
    pub fn checkpoint(&self, model: &GnnModel) -> Checkpoint {
        Checkpoint::new(self.synthetic.clone(), self.mapping.clone(), model.clone())
            .expect("condensed artifacts and model disagree")
    }
}

impl<'a> InductiveServer<'a> {
    /// Boots a serving endpoint from a restored checkpoint — the synthetic
    /// graph, mapping and weights only; the original graph is never needed.
    ///
    /// # Panics
    /// As [`Checkpoint::into_server`].
    #[must_use]
    pub fn from_checkpoint(ckpt: &'a Checkpoint) -> Self {
        Self::on_synthetic(&ckpt.synthetic, &ckpt.mapping, &ckpt.model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcond_gnn::GnnKind;
    use mcond_linalg::DMat;
    use mcond_sparse::Coo;

    fn tiny_bundle() -> Checkpoint {
        let mut coo = Coo::new(3, 3);
        coo.push_sym(0, 1, 1.0);
        coo.push_sym(1, 2, 0.5);
        let graph = Graph::new(
            coo.to_csr(),
            DMat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.5, 0.5]]),
            vec![0, 1, 0],
            2,
        );
        let mut map = Coo::new(5, 3);
        for i in 0..5 {
            map.push(i, i % 3, 1.0);
        }
        let model = GnnModel::new(GnnKind::Sgc, 2, 4, 2, 7);
        Checkpoint::new(graph, map.to_csr(), model).unwrap()
    }

    #[test]
    fn bundle_round_trips_bitwise() {
        let ckpt = tiny_bundle();
        let restored = Checkpoint::from_bytes(ckpt.to_writer().to_bytes()).unwrap();
        assert!(restored.synthetic.adj.bit_eq(&ckpt.synthetic.adj));
        assert!(restored.synthetic.features.bit_eq(&ckpt.synthetic.features));
        assert_eq!(restored.synthetic.labels, ckpt.synthetic.labels);
        assert!(restored.mapping.bit_eq(&ckpt.mapping));
        assert_eq!(restored.model.kind(), ckpt.model.kind());
        for (a, b) in restored.model.params().iter().zip(ckpt.model.params()) {
            assert!(a.bit_eq(b));
        }
    }

    #[test]
    fn a_legacy_delta_section_is_skipped_and_crc_checked() {
        // Bundles written by earlier versions may carry a 40-byte `delta`
        // section (five u64s). The decoder never asks for it, the
        // up-front CRC sweep accepts it, and the three sections the
        // decoder does read decode to the same bits.
        let plain = tiny_bundle();
        let mut w = plain.to_writer();
        w.add_encoded("delta", |b| [4, 4, 9, 12, 14].into_iter().for_each(|v| b.put_u64(v)));
        let image = w.to_bytes();
        let reader = CheckpointReader::from_bytes(image.clone()).unwrap();
        assert_eq!(reader.section("delta").unwrap().len(), 40);
        reader.verify_sections().unwrap();

        let path = std::env::temp_dir().join("mcond_core_checkpoint_delta_section.mcst");
        std::fs::write(&path, &image).unwrap();
        let (served, _) = Checkpoint::load_for_serving(&path).unwrap();
        std::fs::remove_file(&path).ok();
        for restored in [Checkpoint::from_bytes(image).unwrap(), served] {
            assert!(restored.synthetic.adj.bit_eq(&plain.synthetic.adj));
            assert!(restored.synthetic.features.bit_eq(&plain.synthetic.features));
            assert_eq!(restored.synthetic.labels, plain.synthetic.labels);
            assert!(restored.mapping.bit_eq(&plain.mapping));
            for (a, b) in restored.model.params().iter().zip(plain.model.params()) {
                assert!(a.bit_eq(b));
            }
        }
    }

    #[test]
    fn mismatched_mapping_is_rejected_at_bundle_time() {
        let ckpt = tiny_bundle();
        let bad_map = Csr::empty(5, 7); // wrong synthetic node count
        match Checkpoint::new(ckpt.synthetic, bad_map, ckpt.model) {
            Err(StoreError::ShapeMismatch { .. }) => {}
            other => panic!("expected ShapeMismatch, got {:?}", other.err()),
        }
    }

    #[test]
    fn save_load_survives_the_filesystem() {
        let ckpt = tiny_bundle();
        let path = std::env::temp_dir().join("mcond_core_checkpoint_roundtrip.mcst");
        ckpt.save(&path).unwrap();
        let restored = Checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(restored.mapping.bit_eq(&ckpt.mapping));
    }
}
