//! Fault-injection sweep over the checkpoint container.
//!
//! The robustness contract: **every** truncation at every byte boundary and
//! **every** injected bit flip of a valid image must yield a typed
//! [`StoreError`] somewhere on the load path — never a panic, and never a
//! silently different payload. The sweep is exhaustive over the image the
//! container format produces, so a regression in any of the integrity
//! checks (magic, version, table CRC, bounds, payload CRCs, strict
//! end-of-file accounting) fails this suite immediately.

use mcond_store::codec::{self, ByteReader, ByteWriter};
use mcond_store::{
    corruption_sweep, load_graph, save_graph, CheckpointReader, CheckpointWriter, StoreError,
};
use std::path::PathBuf;

/// A small but structurally complete image: several sections of different
/// sizes, including an empty one.
fn sample_image() -> Vec<u8> {
    let mut dmat = ByteWriter::new();
    codec::encode_dmat(&mut dmat, &mcond_linalg::DMat::from_rows(&[&[1.5, -2.5], &[0.0, 4.0]]));
    let mut w = CheckpointWriter::new();
    w.add_section("features", dmat.into_bytes());
    w.add_section("empty", Vec::new());
    w.add_section("blob", (0u8..=63).collect());
    w.to_bytes()
}

/// Full load: parse the container, then CRC-verify and read every section.
/// Returns the payloads so the sweep can also prove no silent corruption.
fn load_all(image: Vec<u8>) -> Result<Vec<Vec<u8>>, StoreError> {
    let r = CheckpointReader::from_bytes(image)?;
    ["features", "empty", "blob"]
        .iter()
        .map(|name| r.section(name).map(<[u8]>::to_vec))
        .collect()
}

#[test]
fn pristine_image_loads() {
    let payloads = load_all(sample_image()).expect("pristine image must load");
    assert_eq!(payloads[2], (0u8..=63).collect::<Vec<u8>>());
}

/// The tentpole guarantee: the exhaustive mutation sweep never panics and
/// never silently succeeds with altered bytes.
#[test]
fn every_corruption_is_detected_or_harmless() {
    let image = sample_image();
    let pristine = load_all(image.clone()).unwrap();
    let mut checked = 0usize;
    for c in corruption_sweep(&image) {
        match load_all(c.bytes) {
            Err(_) => {} // typed error — the expected outcome
            Ok(payloads) => {
                // A mutation that still loads must be byte-identical —
                // anything else is a silently-wrong load.
                assert_eq!(payloads, pristine, "{} loaded with altered payloads", c.label);
                panic!("{} was not detected", c.label);
            }
        }
        checked += 1;
    }
    assert!(checked > image.len(), "sweep too small: {checked} mutations");
}

/// Truncations must be rejected already at container-open time — the strict
/// end-of-file accounting catches cuts even in the final payload, where no
/// section access would otherwise touch the missing bytes.
#[test]
fn truncations_fail_at_open() {
    let image = sample_image();
    for end in 0..image.len() {
        let r = CheckpointReader::from_bytes(image[..end].to_vec());
        assert!(r.is_err(), "truncate@{end} opened successfully");
    }
}

/// Payload damage is localised: a flip inside one section's payload leaves
/// the *other* sections readable (graceful degradation), while the damaged
/// one reports a checksum mismatch naming itself.
#[test]
fn payload_corruption_degrades_gracefully() {
    let image = sample_image();
    let pristine = CheckpointReader::from_bytes(image.clone()).unwrap();
    let ranges = pristine.payload_ranges();
    let (_, blob_range) = ranges.iter().find(|(n, _)| n == "blob").unwrap().clone();
    for offset in blob_range.clone() {
        let mut mutated = image.clone();
        mutated[offset] ^= 0x10;
        let r = CheckpointReader::from_bytes(mutated).expect("container still opens");
        match r.section("blob") {
            Err(StoreError::ChecksumMismatch { section }) => assert_eq!(section, "blob"),
            other => panic!("flip@{offset}: expected ChecksumMismatch, got {other:?}"),
        }
        assert!(r.section("features").is_ok(), "flip@{offset} leaked into `features`");
    }
}

/// Decoder totality below the CRC layer: even if a corrupt payload were
/// handed directly to the typed decoders (CRC bypassed), they return typed
/// errors, never panic. Sweeps one bit flip per byte and all truncations of
/// an encoded DMat.
#[test]
fn decoders_are_total_under_corruption()  {
    let mut w = ByteWriter::new();
    codec::encode_dmat(&mut w, &mcond_linalg::DMat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
    let bytes = w.into_bytes();
    for end in 0..bytes.len() {
        let mut r = ByteReader::new(&bytes[..end], "dmat");
        // Either a decode error or a finish error; both are fine — only a
        // panic or a silent full success would be a bug.
        let decoded = codec::decode_dmat(&mut r);
        if decoded.is_ok() {
            assert!(r.finish().is_err(), "truncate@{end} decoded cleanly");
        }
    }
    for byte in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[byte] ^= 1 << (byte % 8);
        let mut r = ByteReader::new(&mutated, "dmat");
        // Flips in the f32 payload change values but stay structurally
        // valid — that's the CRC layer's job. Header flips must error.
        let _ = codec::decode_dmat(&mut r).map(|_| ());
    }
}

/// A corrupt section *count* cannot cause huge allocations or quadratic
/// table walks — it is rejected by the plausibility bound.
#[test]
fn hostile_section_count_is_rejected() {
    let mut image = sample_image();
    image[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    match CheckpointReader::from_bytes(image) {
        Err(StoreError::Malformed { .. } | StoreError::Truncated { .. }) => {}
        other => panic!("expected Malformed/Truncated, got {:?}", other.err()),
    }
}

/// Hostile in-payload lengths (e.g. a DMat claiming 2^60 rows) are rejected
/// before any allocation is sized from them.
#[test]
fn hostile_payload_lengths_are_rejected() {
    let mut w = ByteWriter::new();
    w.put_u64(1 << 60);
    w.put_u64(1 << 60);
    let bytes = w.into_bytes();
    let mut r = ByteReader::new(&bytes, "dmat");
    match codec::decode_dmat(&mut r) {
        Err(StoreError::Malformed { section, .. }) => assert_eq!(section, "dmat"),
        other => panic!("expected Malformed, got {:?}", other.err()),
    }
}

// --- graph files -------------------------------------------------------------

/// Four nodes, three features, two classes; row 0 holds two edges so a
/// pair of column ids can be swapped inside one row.
fn sample_graph() -> mcond_graph::Graph {
    let mut coo = mcond_sparse::Coo::new(4, 4);
    coo.push_sym(0, 1, 1.0);
    coo.push_sym(0, 2, 0.5);
    coo.push_sym(2, 3, 2.0);
    mcond_graph::Graph::new(
        coo.to_csr(),
        mcond_linalg::DMat::from_rows(&[
            &[1.0, 0.0, 0.5],
            &[0.0, 1.0, -0.5],
            &[f32::NAN, -0.0, 3.0],
            &[2.0, 2.0, 2.0],
        ]),
        vec![0, 1, 1, 0],
        2,
    )
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mcond_store_faults_{name}.mcst"))
}

#[test]
fn graph_file_round_trips_bitwise_and_starts_with_the_magic() {
    let (g, path) = (sample_graph(), scratch("roundtrip"));
    let written = save_graph(&g, &path).unwrap();
    let image = std::fs::read(&path).unwrap();
    let back = load_graph(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(written, image.len() as u64);
    assert_eq!(image[..4], mcond_store::MAGIC);
    assert!(back.adj.bit_eq(&g.adj));
    assert!(back.features.bit_eq(&g.features));
    assert_eq!((back.labels, back.num_classes), (g.labels, g.num_classes));
}

/// Every truncation and every bit flip of a saved graph file is a typed
/// error from `load_graph` — through the filesystem, as a user would meet it.
#[test]
fn every_corruption_of_a_graph_file_is_a_typed_error() {
    let path = scratch("sweep");
    save_graph(&sample_graph(), &path).unwrap();
    let image = std::fs::read(&path).unwrap();
    let mut checked = 0usize;
    for c in corruption_sweep(&image) {
        std::fs::write(&path, &c.bytes).unwrap();
        assert!(load_graph(&path).is_err(), "{} was not detected", c.label);
        checked += 1;
    }
    std::fs::remove_file(&path).ok();
    assert!(checked > image.len(), "sweep too small: {checked} mutations");
    assert!(matches!(load_graph(&path), Err(StoreError::Io(_))), "a missing file is typed too");
}

/// Structurally hostile graph payloads, re-sealed through
/// `CheckpointWriter` so every CRC passes and the bytes reach the decoder.
/// A reader that trusts its header answers the four with two aborts (an
/// 8 TB allocation each), a panic and a silent load of unsorted rows.
#[test]
fn hostile_graph_payloads_are_rejected_by_the_decoder() {
    let path = scratch("hostile");
    save_graph(&sample_graph(), &path).unwrap();
    let pristine = CheckpointReader::open(&path).unwrap();
    let (section, range) = pristine.payload_ranges().remove(0);
    let payload = std::fs::read(&path).unwrap()[range].to_vec();

    // Graph payload: u64 classes | Csr (u64 rows, cols, nnz; u64*rows row
    // lengths; u32*nnz column ids; f32*nnz values) | DMat (u64 rows, cols;
    // data) | u32*N labels. The sample has N = 4, nnz = 6.
    let (n, nnz) = (4usize, 6usize);
    let csr_rows = 8;
    let col_ids = csr_rows + 24 + 8 * n;
    let dmat_cols = col_ids + 8 * nnz + 8;
    type Edit = fn(&mut [u8], usize);
    let cases: [(&str, usize, Edit); 4] = [
        ("N = 2^40", csr_rows, |b, at| b[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes())),
        ("d = 2^40", dmat_cols, |b, at| b[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes())),
        ("column id = N", col_ids, |b, at| b[at..at + 4].copy_from_slice(&4u32.to_le_bytes())),
        ("row 0 columns swapped", col_ids, |b, at| b[at..at + 8].rotate_left(4)),
    ];
    for (what, at, edit) in cases {
        let mut hostile = payload.clone();
        edit(&mut hostile, at);
        let mut w = CheckpointWriter::new();
        w.add_section(&section, hostile);
        w.write_atomic(&path).unwrap();
        match load_graph(&path) {
            Err(StoreError::Malformed { section: s, .. }) => assert_eq!(s, section, "{what}"),
            other => panic!("{what}: expected Malformed, got {:?}", other.err()),
        }
    }
    std::fs::remove_file(&path).ok();
}
