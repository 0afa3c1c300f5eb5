//! The `MCST` checkpoint container: magic + format version + CRC-guarded
//! section table + CRC-guarded payloads, written atomically.
//!
//! ```text
//! [0..4)    magic  b"MCST"
//! [4..8)    u32    format version (currently 1)
//! [8..12)   u32    section count
//! [12..16)  u32    CRC32 of the section table bytes
//! table     per section:
//!             u8  name length   name bytes (ASCII)
//!             u64 payload offset (absolute)   u64 payload length
//!             u32 CRC32 of the payload
//! payloads  back-to-back, ending exactly at end-of-file
//! ```
//!
//! Every byte of the file is covered by a check: the fixed header fields by
//! explicit comparisons, the table by its own CRC, and each payload by its
//! table entry's CRC — so any single-bit flip or truncation is detected and
//! reported as a typed [`StoreError`] (the fault-injection suite sweeps
//! exactly these mutations). Writes go through a temp file in the target
//! directory followed by an atomic rename, so a crash mid-save can never
//! leave a torn checkpoint under the final name.

use crate::codec::{ByteReader, ByteWriter};
use crate::crc32::crc32;
use crate::StoreError;
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// File magic.
pub const MAGIC: [u8; 4] = *b"MCST";
/// Current format version. Bump on any layout change; readers reject
/// versions they do not understand.
pub const FORMAT_VERSION: u32 = 1;

/// Fixed-size prefix before the section table.
const FIXED_HEADER: usize = 16;
/// Upper bound on the section count — far above any real checkpoint, low
/// enough that a corrupt count cannot cause pathological table parsing.
const MAX_SECTIONS: u32 = 4096;

/// Accumulates named sections and serialises them into one checkpoint
/// image.
#[derive(Default)]
pub struct CheckpointWriter {
    sections: Vec<(String, Vec<u8>)>,
}

impl CheckpointWriter {
    /// An empty checkpoint.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a named section.
    ///
    /// # Panics
    /// Panics on empty, non-ASCII, over-long (> 255 bytes) or duplicate
    /// names — these are programming errors, not data errors.
    pub fn add_section(&mut self, name: &str, payload: Vec<u8>) {
        assert!(
            !name.is_empty() && name.len() <= 255 && name.is_ascii(),
            "section name must be 1..=255 ASCII bytes"
        );
        assert!(
            self.sections.iter().all(|(n, _)| n != name),
            "duplicate section name `{name}`"
        );
        self.sections.push((name.to_owned(), payload));
    }

    /// Adds a named section holding whatever `encode` writes — one of the
    /// [`codec`](crate::codec) encoders, usually.
    ///
    /// # Panics
    /// As [`CheckpointWriter::add_section`].
    pub fn add_encoded(&mut self, name: &str, encode: impl FnOnce(&mut ByteWriter)) {
        let mut payload = ByteWriter::new();
        encode(&mut payload);
        self.add_section(name, payload.into_bytes());
    }

    /// The fixed header and the section table — everything before the
    /// first payload.
    fn header(&self) -> Vec<u8> {
        let table_len: usize =
            self.sections.iter().map(|(name, _)| 1 + name.len() + 8 + 8 + 4).sum();

        let mut table = Vec::with_capacity(table_len);
        let mut offset = (FIXED_HEADER + table_len) as u64;
        for (name, payload) in &self.sections {
            table.push(name.len() as u8);
            table.extend_from_slice(name.as_bytes());
            table.extend_from_slice(&offset.to_le_bytes());
            table.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            table.extend_from_slice(&crc32(payload).to_le_bytes());
            offset += payload.len() as u64;
        }

        let mut out = Vec::with_capacity(FIXED_HEADER + table_len);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&table).to_le_bytes());
        out.extend_from_slice(&table);
        out
    }

    /// Serialises the checkpoint into its on-disk image.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.header();
        out.reserve_exact(self.sections.iter().map(|(_, p)| p.len()).sum());
        for (_, payload) in &self.sections {
            out.extend_from_slice(payload);
        }
        out
    }

    /// Writes the checkpoint to `path` atomically (temp file + rename in
    /// the same directory) and fsyncs before the rename, so a crash during
    /// the save leaves either the previous file or the complete new one —
    /// never a torn image. The payloads go to the temp file one by one —
    /// no second copy of a dataset-sized section is built on the way.
    /// Returns the number of bytes written.
    ///
    /// # Errors
    /// [`StoreError::Io`] on filesystem failures.
    pub fn write_atomic(&self, path: &Path) -> Result<u64, StoreError> {
        let start = Instant::now();
        let header = self.header();
        let written =
            (header.len() + self.sections.iter().map(|(_, p)| p.len()).sum::<usize>()) as u64;
        let tmp = tmp_path(path);
        let result = (|| -> Result<(), StoreError> {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&header)?;
            for (_, payload) in &self.sections {
                f.write_all(payload)?;
            }
            f.sync_all()?;
            drop(f);
            std::fs::rename(&tmp, path)?;
            Ok(())
        })();
        if result.is_err() {
            std::fs::remove_file(&tmp).ok();
        }
        result?;
        mcond_obs::counter_add("store.save.bytes", written);
        mcond_obs::histogram_record("store.save.ms", start.elapsed().as_secs_f64() * 1e3);
        mcond_obs::emit_snapshot("store.save");
        Ok(written)
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map_or_else(|| "checkpoint".into(), ToOwned::to_owned);
    name.push(".tmp");
    path.with_file_name(name)
}

#[derive(Debug)]
struct SectionEntry {
    name: String,
    range: Range<usize>,
    crc: u32,
}

/// A parsed checkpoint image. Construction validates the header, the
/// section-table CRC, and every payload's bounds; payload CRCs are checked
/// on access, so one corrupt section still lets callers read the others.
#[derive(Debug)]
pub struct CheckpointReader {
    data: Vec<u8>,
    sections: Vec<SectionEntry>,
    table_end: usize,
}

impl CheckpointReader {
    /// Reads and parses the checkpoint at `path`.
    ///
    /// # Errors
    /// Any [`StoreError`] variant; see [`CheckpointReader::from_bytes`].
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let data = std::fs::read(path)?;
        mcond_obs::counter_add("store.load.bytes", data.len() as u64);
        Self::from_bytes(data)
    }

    /// Parses a checkpoint image already in memory.
    ///
    /// # Errors
    /// [`StoreError::BadMagic`] / [`StoreError::UnsupportedVersion`] /
    /// [`StoreError::Truncated`] / [`StoreError::ChecksumMismatch`] (with
    /// section `"header"`) / [`StoreError::Malformed`] on structural
    /// damage. Never panics, whatever the bytes.
    pub fn from_bytes(data: Vec<u8>) -> Result<Self, StoreError> {
        if data.len() < FIXED_HEADER {
            return Err(StoreError::Truncated { context: "header" });
        }
        if data[0..4] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = u32::from_le_bytes([data[4], data[5], data[6], data[7]]);
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let count = u32::from_le_bytes([data[8], data[9], data[10], data[11]]);
        if count > MAX_SECTIONS {
            return Err(StoreError::Malformed {
                section: "header".to_owned(),
                reason: format!("implausible section count {count}"),
            });
        }
        let table_crc = u32::from_le_bytes([data[12], data[13], data[14], data[15]]);

        let mut pos = FIXED_HEADER;
        let mut sections = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let name_len = *data.get(pos).ok_or(StoreError::Truncated { context: "section table" })?
                as usize;
            pos += 1;
            let entry_end = pos + name_len + 8 + 8 + 4;
            if name_len == 0 || entry_end > data.len() {
                return Err(StoreError::Truncated { context: "section table" });
            }
            let name = std::str::from_utf8(&data[pos..pos + name_len])
                .ok()
                .filter(|n| n.is_ascii())
                .ok_or_else(|| StoreError::Malformed {
                    section: "header".to_owned(),
                    reason: "non-ASCII section name".to_owned(),
                })?
                .to_owned();
            pos += name_len;
            let u64_at = |p: usize| {
                let mut b = [0u8; 8];
                b.copy_from_slice(&data[p..p + 8]);
                u64::from_le_bytes(b)
            };
            let offset = u64_at(pos);
            let len = u64_at(pos + 8);
            let crc = u32::from_le_bytes([data[pos + 16], data[pos + 17], data[pos + 18], data[pos + 19]]);
            pos += 20;
            sections.push((name, offset, len, crc));
        }
        let table_end = pos;
        if crc32(&data[FIXED_HEADER..table_end]) != table_crc {
            return Err(StoreError::ChecksumMismatch { section: "header".to_owned() });
        }

        let mut parsed = Vec::with_capacity(sections.len());
        let mut expected_end = table_end;
        for (name, offset, len, crc) in sections {
            if parsed.iter().any(|s: &SectionEntry| s.name == name) {
                return Err(StoreError::Malformed {
                    section: "header".to_owned(),
                    reason: format!("duplicate section `{name}`"),
                });
            }
            let (start, end) = usize::try_from(offset)
                .ok()
                .and_then(|s| usize::try_from(len).ok().and_then(|l| s.checked_add(l).map(|e| (s, e))))
                .ok_or_else(|| StoreError::Malformed {
                    section: name.clone(),
                    reason: "payload extent overflows".to_owned(),
                })?;
            if start < table_end {
                return Err(StoreError::Malformed {
                    section: name.clone(),
                    reason: "payload overlaps the header".to_owned(),
                });
            }
            if end > data.len() {
                return Err(StoreError::Truncated { context: "section payload" });
            }
            expected_end = expected_end.max(end);
            parsed.push(SectionEntry { name, range: start..end, crc });
        }
        if expected_end != data.len() {
            return Err(StoreError::Malformed {
                section: "header".to_owned(),
                reason: format!(
                    "file is {} bytes but sections end at {expected_end}",
                    data.len()
                ),
            });
        }
        Ok(Self { data, sections: parsed, table_end })
    }

    /// Names of the stored sections, in file order.
    #[must_use]
    pub fn section_names(&self) -> Vec<&str> {
        self.sections.iter().map(|s| s.name.as_str()).collect()
    }

    /// Byte ranges of each section payload within the image — the hook the
    /// fault-injection helper uses to aim one bit flip at every section.
    #[must_use]
    pub fn payload_ranges(&self) -> Vec<(String, Range<usize>)> {
        self.sections.iter().map(|s| (s.name.clone(), s.range.clone())).collect()
    }

    /// End of the header + section table region (payloads start here).
    #[must_use]
    pub fn header_len(&self) -> usize {
        self.table_end
    }

    /// A section's payload, CRC-verified on every call.
    ///
    /// # Errors
    /// [`StoreError::MissingSection`] when absent;
    /// [`StoreError::ChecksumMismatch`] naming the section when its bytes
    /// are corrupt — other sections of the same file remain readable, which
    /// is what lets callers recompute just the damaged piece.
    pub fn section(&self, name: &'static str) -> Result<&[u8], StoreError> {
        let entry = self
            .sections
            .iter()
            .find(|s| s.name == name)
            .ok_or(StoreError::MissingSection { section: name })?;
        let payload = &self.data[entry.range.clone()];
        if crc32(payload) != entry.crc {
            return Err(StoreError::ChecksumMismatch { section: name.to_owned() });
        }
        Ok(payload)
    }

    /// Decodes section `name` with `decode` (one of the
    /// [`codec`](crate::codec) decoders, usually), requiring that it
    /// consumes the payload to its last byte.
    ///
    /// # Errors
    /// As [`CheckpointReader::section`], then whatever `decode` returns,
    /// then [`StoreError::Malformed`] on trailing bytes.
    pub fn decode<T>(
        &self,
        name: &'static str,
        decode: impl FnOnce(&mut ByteReader<'_>) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let mut r = ByteReader::new(self.section(name)?, name);
        let value = decode(&mut r)?;
        r.finish()?;
        Ok(value)
    }

    /// CRC-verifies **every** section payload up front, not just the ones a
    /// decoder happens to touch — the validated-load path a hot-swap server
    /// runs before staging a checkpoint, so a bundle with a corrupt
    /// trailing section is rejected before any swap is attempted.
    ///
    /// # Errors
    /// [`StoreError::ChecksumMismatch`] naming the first damaged section.
    pub fn verify_sections(&self) -> Result<(), StoreError> {
        for entry in &self.sections {
            if crc32(&self.data[entry.range.clone()]) != entry.crc {
                return Err(StoreError::ChecksumMismatch { section: entry.name.clone() });
            }
        }
        Ok(())
    }

    /// A short, stable fingerprint of the image content, derived from the
    /// section names and their payload CRCs. Two bundles with identical
    /// payloads share an id regardless of when or where they were written;
    /// serving layers stamp it on responses (`x-mcond-epoch` metadata) so
    /// operators can tell *which* checkpoint answered. Collision-resistant
    /// enough for fleet bookkeeping, not cryptographic.
    #[must_use]
    pub fn content_id(&self) -> String {
        let mut acc = Vec::new();
        for entry in &self.sections {
            acc.extend_from_slice(entry.name.as_bytes());
            acc.push(0);
            acc.extend_from_slice(&entry.crc.to_le_bytes());
            acc.extend_from_slice(&(entry.range.len() as u64).to_le_bytes());
        }
        format!("{:08x}", crc32(&acc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckpointWriter {
        let mut w = CheckpointWriter::new();
        w.add_section("alpha", vec![1, 2, 3, 4, 5]);
        w.add_section("beta", Vec::new());
        w.add_section("gamma", vec![0xFF; 64]);
        w
    }

    #[test]
    fn image_round_trips() {
        let image = sample().to_bytes();
        let r = CheckpointReader::from_bytes(image).unwrap();
        assert_eq!(r.section_names(), vec!["alpha", "beta", "gamma"]);
        assert_eq!(r.section("alpha").unwrap(), &[1, 2, 3, 4, 5]);
        assert_eq!(r.section("beta").unwrap(), &[] as &[u8]);
        assert_eq!(r.section("gamma").unwrap(), &[0xFF; 64]);
    }

    #[test]
    fn file_round_trips_through_atomic_write() {
        let path = std::env::temp_dir().join("mcond_store_file_roundtrip.mcst");
        let written = sample().write_atomic(&path).unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());
        let r = CheckpointReader::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(r.section("alpha").unwrap(), &[1, 2, 3, 4, 5]);
        // No temp file left behind.
        assert!(!tmp_path(&path).exists());
    }

    #[test]
    fn missing_section_is_typed() {
        let r = CheckpointReader::from_bytes(sample().to_bytes()).unwrap();
        match r.section("delta") {
            Err(StoreError::MissingSection { section: "delta" }) => {}
            other => panic!("expected MissingSection, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_payload_reports_its_section_and_leaves_others_readable() {
        let mut image = sample().to_bytes();
        let r = CheckpointReader::from_bytes(image.clone()).unwrap();
        let ranges = r.payload_ranges();
        let (_, alpha_range) = ranges.iter().find(|(n, _)| n == "alpha").unwrap().clone();
        image[alpha_range.start] ^= 0x01;
        let r = CheckpointReader::from_bytes(image).unwrap();
        match r.section("alpha") {
            Err(StoreError::ChecksumMismatch { section }) => assert_eq!(section, "alpha"),
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        // Degraded, not dead: the undamaged sections still load.
        assert_eq!(r.section("gamma").unwrap(), &[0xFF; 64]);
    }

    #[test]
    fn verify_sections_catches_damage_the_decoder_would_skip() {
        let r = CheckpointReader::from_bytes(sample().to_bytes()).unwrap();
        r.verify_sections().unwrap();
        // Corrupt the *last* section — a decoder that only reads "alpha"
        // would never notice, but a validated load must.
        let mut image = sample().to_bytes();
        let ranges = CheckpointReader::from_bytes(image.clone()).unwrap().payload_ranges();
        let (_, gamma) = ranges.iter().find(|(n, _)| n == "gamma").unwrap().clone();
        image[gamma.start] ^= 0x80;
        let r = CheckpointReader::from_bytes(image).unwrap();
        match r.verify_sections() {
            Err(StoreError::ChecksumMismatch { section }) => assert_eq!(section, "gamma"),
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn content_id_is_stable_for_identical_payloads_and_shifts_on_change() {
        let a = CheckpointReader::from_bytes(sample().to_bytes()).unwrap().content_id();
        let b = CheckpointReader::from_bytes(sample().to_bytes()).unwrap().content_id();
        assert_eq!(a, b, "same payloads, same id");
        assert_eq!(a.len(), 8, "compact hex id");
        let mut other = CheckpointWriter::new();
        other.add_section("alpha", vec![1, 2, 3, 4, 6]);
        other.add_section("beta", Vec::new());
        other.add_section("gamma", vec![0xFF; 64]);
        let c = CheckpointReader::from_bytes(other.to_bytes()).unwrap().content_id();
        assert_ne!(a, c, "one changed byte moves the id");
    }

    #[test]
    fn wrong_magic_and_version_are_typed() {
        let mut image = sample().to_bytes();
        image[0] = b'X';
        assert!(matches!(
            CheckpointReader::from_bytes(image).unwrap_err(),
            StoreError::BadMagic
        ));
        let mut image = sample().to_bytes();
        image[4] = 99;
        assert!(matches!(
            CheckpointReader::from_bytes(image).unwrap_err(),
            StoreError::UnsupportedVersion(99)
        ));
    }
}
