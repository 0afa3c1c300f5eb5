//! Deployment artifacts: persist a condensation result as a directory
//! bundle so the (tiny) synthetic graph and mapping can ship without the
//! original graph — the storage win the paper's Fig. 3/4 measure.
//!
//! An artifact is a [`Checkpoint`](crate::Checkpoint) without its `model`
//! section: one `MCST` container, `<dir>/condensed.mcst`, whose
//! `synthetic` section holds `S = {A', X', Y'}` and whose `mapping`
//! section holds the sparsified `M : N x N'`. Both bundles write and read
//! those two sections through the functions below.

use crate::Condensed;
use mcond_graph::Graph;
use mcond_sparse::Csr;
use mcond_store::{codec, CheckpointReader, CheckpointWriter, StoreError};
use std::path::Path;

const SEC_SYNTHETIC: &str = "synthetic";
const SEC_MAPPING: &str = "mapping";
const FILE_NAME: &str = "condensed.mcst";

/// The deployable subset of a condensation result.
#[derive(Debug)]
pub struct Artifact {
    /// The synthetic graph `S`.
    pub synthetic: Graph,
    /// The sparsified mapping `M`.
    pub mapping: Csr,
}

impl Artifact {
    /// Total on-disk/in-memory footprint in bytes (adjacency + features +
    /// labels + mapping) — the deployment storage the paper compares.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.synthetic.adj.storage_bytes()
            + self.synthetic.features.len() * std::mem::size_of::<f32>()
            + self.synthetic.labels.len() * std::mem::size_of::<u32>()
            + self.mapping.storage_bytes()
    }
}

/// Adds the `synthetic` and `mapping` sections to `w`.
pub(crate) fn add_sections(w: &mut CheckpointWriter, synthetic: &Graph, mapping: &Csr) {
    w.add_encoded(SEC_SYNTHETIC, |b| codec::encode_graph(b, synthetic));
    w.add_encoded(SEC_MAPPING, |b| codec::encode_csr(b, mapping));
}

/// Decodes the two sections [`add_sections`] wrote. Each is valid on its
/// own; whether they fit each other is [`mapping_indexes`]' to say.
pub(crate) fn read_sections(reader: &CheckpointReader) -> Result<Artifact, StoreError> {
    let synthetic = reader.decode(SEC_SYNTHETIC, codec::decode_graph)?;
    let mapping = reader.decode(SEC_MAPPING, codec::decode_csr)?;
    Ok(Artifact { synthetic, mapping })
}

/// The cross-section invariant of every bundle: `M`'s columns index the
/// synthetic nodes.
pub(crate) fn mapping_indexes(mapping: &Csr, synthetic: &Graph) -> Result<(), StoreError> {
    if mapping.cols() != synthetic.num_nodes() {
        return Err(StoreError::ShapeMismatch {
            reason: format!(
                "mapping has {} columns but the synthetic graph has {} nodes",
                mapping.cols(),
                synthetic.num_nodes()
            ),
        });
    }
    Ok(())
}

/// Writes the deployable pieces of `condensed` into `dir` (created if
/// missing).
///
/// # Errors
/// [`StoreError::Io`] on filesystem failures.
pub fn save_condensed(condensed: &Condensed, dir: &Path) -> Result<(), StoreError> {
    std::fs::create_dir_all(dir)?;
    let mut w = CheckpointWriter::new();
    add_sections(&mut w, &condensed.synthetic, &condensed.mapping);
    w.write_atomic(&dir.join(FILE_NAME)).map(|_| ())
}

/// Loads an artifact bundle written by [`save_condensed`].
///
/// # Errors
/// Any [`StoreError`]: the bytes are untrusted, so damage is a typed error
/// and sections that disagree are [`StoreError::ShapeMismatch`].
pub fn load_condensed(dir: &Path) -> Result<Artifact, StoreError> {
    let artifact = read_sections(&CheckpointReader::open(&dir.join(FILE_NAME))?)?;
    mapping_indexes(&artifact.mapping, &artifact.synthetic)?;
    Ok(artifact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{condense, McondConfig};
    use mcond_graph::{load_dataset, Scale};

    fn quick() -> Condensed {
        let data = load_dataset("pubmed", Scale::Small, 0).unwrap();
        condense(
            &data,
            &McondConfig {
                ratio: 0.02,
                outer_loops: 1,
                relay_steps: 2,
                mapping_steps: 3,
                support_cap: 16,
                ..McondConfig::default()
            },
        )
    }

    #[test]
    fn artifact_round_trips() {
        let condensed = quick();
        let dir = std::env::temp_dir().join("mcond_artifact_test");
        save_condensed(&condensed, &dir).unwrap();
        let artifact = load_condensed(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(artifact.synthetic.adj.bit_eq(&condensed.synthetic.adj));
        assert!(artifact.synthetic.features.bit_eq(&condensed.synthetic.features));
        assert_eq!(artifact.synthetic.labels, condensed.synthetic.labels);
        assert!(artifact.mapping.bit_eq(&condensed.mapping));
    }

    #[test]
    fn mismatched_bundle_is_rejected() {
        // A mapping of the wrong width, sealed into an otherwise valid
        // bundle: every CRC passes and every section decodes.
        let condensed = Condensed { mapping: Csr::eye(3), ..quick() };
        let dir = std::env::temp_dir().join("mcond_artifact_bad");
        save_condensed(&condensed, &dir).unwrap();
        let err = load_condensed(&dir).unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert!(matches!(err, StoreError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn storage_accounting_is_positive_and_consistent() {
        let condensed = quick();
        let dir = std::env::temp_dir().join("mcond_artifact_storage");
        save_condensed(&condensed, &dir).unwrap();
        let artifact = load_condensed(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let bytes = artifact.storage_bytes();
        assert!(bytes > 0);
        assert!(
            bytes
                >= artifact.synthetic.adj.storage_bytes()
                    + artifact.mapping.storage_bytes()
        );
    }
}
