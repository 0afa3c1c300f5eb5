//! Graph files: a one-section `MCST` container over the graph codec.
//!
//! Real datasets (Planetoid Pubmed, GraphSAINT Flickr, GraphSAGE Reddit)
//! are converted once — `mcond_graph::import_graph` reads the text export —
//! saved here, and dropped in place of the synthetic generators. A graph
//! file gets everything a checkpoint gets: CRC-guarded bytes, an atomic
//! write, and a decoder that answers any byte string with a value or a
//! typed [`StoreError`].

use crate::{codec, CheckpointReader, CheckpointWriter, StoreError};
use mcond_graph::Graph;
use std::path::Path;

const SEC_GRAPH: &str = "graph";

/// Writes `graph` to `path` atomically; returns the bytes written.
///
/// # Errors
/// [`StoreError::Io`] on filesystem failures.
pub fn save_graph(graph: &Graph, path: &Path) -> Result<u64, StoreError> {
    let mut w = CheckpointWriter::new();
    w.add_encoded(SEC_GRAPH, |b| codec::encode_graph(b, graph));
    w.write_atomic(path)
}

/// Reads and validates the graph file at `path`.
///
/// # Errors
/// Any [`StoreError`]; never panics, whatever the bytes.
pub fn load_graph(path: &Path) -> Result<Graph, StoreError> {
    CheckpointReader::open(path)?.decode(SEC_GRAPH, codec::decode_graph)
}
