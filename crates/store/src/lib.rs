//! Versioned, integrity-checked persistence — the one binary format every
//! file this workspace writes is in.
//!
//! A checkpoint is a single `MCST` container file holding named binary
//! sections — the condensed graph `S = {A', X', Y'}`, the sparsified
//! mapping `M`, and the trained GNN weights — each guarded by an in-repo
//! CRC32 and written atomically (temp file + rename), so a crashed save
//! never leaves a torn file and a corrupted file is always detected as a
//! typed [`StoreError`], never a panic or a silently-wrong load. A graph
//! file ([`save_graph`] / [`load_graph`]) is the same container with one
//! section; a condensation artifact (`mcond_core::save_condensed`) is a
//! checkpoint without its `model` section.
//!
//! Layering: this crate owns the *format* (container + per-type codecs).
//! The `mcond-core` crate owns the *bundle* semantics (`Checkpoint` with
//! `save`/`load` and `InductiveServer::from_checkpoint`).
//!
//! # Example
//! ```
//! use mcond_store::codec::{self, ByteReader, ByteWriter};
//! use mcond_store::{CheckpointReader, CheckpointWriter};
//! use mcond_linalg::DMat;
//!
//! let x = DMat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let mut payload = ByteWriter::new();
//! codec::encode_dmat(&mut payload, &x);
//! let mut w = CheckpointWriter::new();
//! w.add_section("features", payload.into_bytes());
//! let image = w.to_bytes();
//!
//! let r = CheckpointReader::from_bytes(image).unwrap();
//! let mut cursor = ByteReader::new(r.section("features").unwrap(), "features");
//! let back = codec::decode_dmat(&mut cursor).unwrap();
//! cursor.finish().unwrap();
//! assert!(back.bit_eq(&x));
//! ```

#![forbid(unsafe_code)]

pub mod codec;
mod crc32;
mod error;
pub mod fault;
mod file;
mod graph_file;

pub use crc32::crc32;
pub use error::StoreError;
pub use fault::{bit_flips, corruption_sweep, truncations, Corruption};
pub use file::{CheckpointReader, CheckpointWriter, FORMAT_VERSION, MAGIC};
pub use graph_file::{load_graph, save_graph};
