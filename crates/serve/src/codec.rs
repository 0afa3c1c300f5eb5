//! JSON wire codec for [`NodeBatch`] requests and logits responses.
//!
//! Both directions work on text and buffers only (hermeticity rule — no
//! serde, and no document tree either): the decoders pull values off a
//! [`mcond_obs::json::Reader`] straight into the `Vec`s a `DMat` / `Coo`
//! is built from, the encoders push numbers into one pre-sized `String`
//! with [`mcond_obs::json::write_number`]. The decoder is *total*: any
//! byte string either decodes to a structurally well-formed batch or
//! returns a typed [`CodecError`], never a panic — the seeded fuzz suite
//! (`codec_fuzz` test) drives random, truncated, and bit-mutated payloads
//! through it to prove that, and holds it to the tree-building decoder it
//! replaced (kept as a test-side reference). Nesting is followed
//! [`mcond_obs::json::MAX_DEPTH`] levels deep and is a
//! [`CodecError::Parse`] beyond that, under unknown keys included. The
//! decoder also refuses to let client-declared shapes drive allocations
//! (see the shape-bounds paragraph below); within those bounds it accepts
//! any self-consistent shape and lets [`NodeBatch::validate_against`]
//! produce its usual typed `ServeError`, so wire requests fail exactly
//! like library requests.
//!
//! # Request format (`POST /v1/serve`)
//!
//! ```json
//! {
//!   "feature_dim": 3,
//!   "features": [[0.1, 0.2, 0.3], [1.0, 2.0, 3.0]],
//!   "incremental": {"cols": 140, "entries": [[0, 7, 1.0], [1, 12, 0.5]]},
//!   "interconnect": {"entries": [[0, 1, 1.0], [1, 0, 1.0]]},
//!   "labels": [0, 1]
//! }
//! ```
//!
//! `features` is dense (row per node); sparse matrices are
//! `{rows?, cols?, entries: [[row, col, value], ...]}` with `rows`
//! defaulting to the node count and `interconnect.cols` to the node count
//! (`incremental.cols` — the base-graph width — is required).
//! `feature_dim` is required only when `features` is empty (the empty
//! batch still has a feature width to validate); `labels` and the whole
//! `interconnect` object are optional. Keys may come in any order; of a
//! repeated key the first occurrence counts, and later ones — like keys
//! the schema does not know — are checked for syntax only. Numbers must be
//! finite: JSON has no
//! `NaN`/`Infinity`, a non-finite f32 on the encode side serialises as
//! `null`, and the decoder rejects both `null` and any finite f64 whose
//! f32 cast overflows to infinity — the wire cannot smuggle a non-finite
//! value past validation.
//!
//! Declared shapes are resource-bounded before anything is allocated
//! from them: a sparse `rows` must equal the batch's node count (a
//! mismatch could only fail `validate_against` later, but CSR conversion
//! allocates `rows + 1` slots *first*, so a lying declaration must die at
//! decode time, not after a multi-petabyte allocation attempt), and
//! `cols` is capped at [`MAX_WIRE_COLS`] — the CSR representation stores
//! column indices as `u32`, so wider matrices are unrepresentable
//! anyway. While the document is being read, nothing is sized from a
//! declaration at all: the feature, entry and label vectors grow with the
//! values actually present (so with the body, which the HTTP layer
//! caps), and the `rows`/`cols` checks run before the first matrix is
//! built. Within those bounds, *semantic* validation against the
//! serving base (incremental width, feature dimension, label count) is
//! still deliberately deferred to [`NodeBatch::validate_against`], so
//! wire requests fail exactly like library requests.
//!
//! # Which error a defective body gets
//!
//! One pass over the text reports **the first defect in document order**:
//! a syntax error, a value of the wrong type (its own syntax is checked
//! first, so a malformed value is always [`CodecError::Parse`]), a bad
//! index, a non-finite number, a sparse entry that is not a triple, a
//! feature row narrower or wider than the first. Checks that need a
//! second field cannot run until the document has ended — keys come in
//! any order — and run then, in this order: `features` missing;
//! `feature_dim` missing for an empty batch, or different from the row
//! width; `incremental` missing; then per sparse matrix (`incremental`,
//! `interconnect`) `rows` ≠ node count, `incremental.cols` missing, `cols`
//! above the cap, an entry outside `rows × cols`. So a body with two
//! defects may answer with the semantic one although a syntax error
//! follows it (the tree decoder this replaced parsed everything first and
//! always reported the syntax error); a body with one defect gets the
//! error it always got, and every one of them is a `400`.
//!
//! Round-trip fidelity is **bitwise** for finite values: `f32 → f64`
//! widening is exact, the writer emits shortest-round-trip decimal (and
//! `-0.0` explicitly), the reader parses each number as `f64` and narrows
//! it, so `decode(encode(b))` reproduces every payload bit the serving
//! layer can observe.

use mcond_graph::NodeBatch;
use mcond_linalg::DMat;
use mcond_obs::json::{write_number, Reader};
use mcond_sparse::{Coo, Csr};
use std::fmt;

/// Widest sparse matrix the wire accepts: CSR stores column indices as
/// `u32`, so any declared `cols` beyond this is unrepresentable and is
/// rejected with [`CodecError::ColsTooLarge`] before anything is built
/// from it.
pub const MAX_WIRE_COLS: usize = u32::MAX as usize;

/// Why a wire payload failed to decode. Every variant maps to HTTP `400`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The body is not syntactically valid JSON (offset in the message).
    Parse(String),
    /// The body is not UTF-8.
    Utf8,
    /// A required field is absent.
    Missing(&'static str),
    /// A field has the wrong JSON type (or a non-finite / `null` number
    /// where a finite one is required).
    Type {
        /// Dotted path of the offending field.
        field: &'static str,
        /// What the decoder needed there.
        expected: &'static str,
    },
    /// A dense row has a different width than the first row.
    Ragged {
        /// Row index.
        row: usize,
        /// Its width.
        got: usize,
        /// Width of row 0.
        expected: usize,
    },
    /// A sparse entry is not a `[row, col, value]` triple.
    EntryShape {
        /// Which sparse field.
        field: &'static str,
        /// Entry index.
        index: usize,
    },
    /// A sparse entry's indices fall outside the declared shape.
    EntryOutOfRange {
        /// Which sparse field.
        field: &'static str,
        /// The entry's row.
        row: usize,
        /// The entry's column.
        col: usize,
        /// Declared row count.
        rows: usize,
        /// Declared column count.
        cols: usize,
    },
    /// An index field is not a non-negative integer.
    BadIndex {
        /// Dotted path of the offending field.
        field: &'static str,
    },
    /// A sparse matrix declares a row count different from the batch's
    /// node count. Rejected at decode time because CSR conversion
    /// allocates `rows + 1` slots before semantic validation would run.
    RowCountMismatch {
        /// Which sparse field.
        field: &'static str,
        /// Declared row count.
        got: usize,
        /// The batch's node count.
        expected: usize,
    },
    /// A sparse matrix declares a column count beyond [`MAX_WIRE_COLS`].
    ColsTooLarge {
        /// Which sparse field.
        field: &'static str,
        /// Declared column count.
        got: usize,
        /// The [`MAX_WIRE_COLS`] cap.
        max: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Parse(msg) => write!(f, "body is not valid JSON: {msg}"),
            CodecError::Utf8 => write!(f, "body is not UTF-8"),
            CodecError::Missing(field) => write!(f, "missing required field {field:?}"),
            CodecError::Type { field, expected } => {
                write!(f, "field {field:?} must be {expected}")
            }
            CodecError::Ragged { row, got, expected } => write!(
                f,
                "features row {row} has {got} values but row 0 has {expected}"
            ),
            CodecError::EntryShape { field, index } => {
                write!(f, "{field} entry {index} is not a [row, col, value] triple")
            }
            CodecError::EntryOutOfRange { field, row, col, rows, cols } => write!(
                f,
                "{field} entry ({row}, {col}) is outside the declared {rows}x{cols} shape"
            ),
            CodecError::BadIndex { field } => {
                write!(f, "field {field:?} must be a non-negative integer")
            }
            CodecError::RowCountMismatch { field, got, expected } => write!(
                f,
                "{field} declares {got} rows but the batch has {expected} nodes"
            ),
            CodecError::ColsTooLarge { field, got, max } => {
                write!(f, "{field} declares {got} columns, above the {max} cap")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// A [`Reader`] syntax error is a [`CodecError::Parse`].
impl From<String> for CodecError {
    fn from(msg: String) -> Self {
        CodecError::Parse(msg)
    }
}

/// Output bytes reserved per dense value: a widened `f32` prints up to 17
/// significant digits plus sign, point and comma.
const DENSE_VALUE_BYTES: usize = 22;

/// Serialises a batch to a compact JSON string.
#[must_use]
pub fn encode_batch(batch: &NodeBatch) -> String {
    let nnz = batch.incremental.nnz() + batch.interconnect.nnz();
    let mut out = String::with_capacity(
        256 + DENSE_VALUE_BYTES * (batch.features.len() + nnz) + 8 * batch.labels.len(),
    );
    out.push_str("{\"feature_dim\":");
    write_index(&mut out, batch.features.cols());
    out.push_str(",\"features\":");
    write_rows(&mut out, &batch.features);
    out.push_str(",\"incremental\":");
    write_sparse(&mut out, &batch.incremental);
    out.push_str(",\"interconnect\":");
    write_sparse(&mut out, &batch.interconnect);
    out.push_str(",\"labels\":");
    write_list(&mut out, &batch.labels, |out, &l| write_index(out, l));
    out.push('}');
    out
}

/// Decodes a JSON text body into a batch, in one pass over the text.
///
/// # Errors
/// A typed [`CodecError`] for any syntactic or structural defect; see the
/// module docs for which one a body with several gets, and for the
/// division of labour with `NodeBatch::validate_against`.
pub fn decode_batch(text: &str) -> Result<NodeBatch, CodecError> {
    let mut r = Reader::new(text);
    let (mut dim, mut features, mut labels) = (None, None, None);
    let (mut incremental, mut interconnect) = (None, None);
    let not_an_object = CodecError::Type { field: "<root>", expected: "an object" };
    let mut more = enter(&mut r, b'{', not_an_object)?;
    while more {
        let key = r.key()?;
        match key.as_str() {
            "feature_dim" if dim.is_none() => dim = Some(index(&mut r, "feature_dim")?),
            "features" if features.is_none() => {
                features = Some(Dense::read(&mut r, "features")?);
            }
            "incremental" if incremental.is_none() => {
                incremental = Some(Sparse::read(&mut r, "incremental")?);
            }
            "interconnect" if interconnect.is_none() => {
                interconnect = Some(Sparse::read(&mut r, "interconnect")?);
            }
            "labels" if labels.is_none() => {
                let not_labels =
                    CodecError::Type { field: "labels", expected: "an array of integers" };
                let mut items = Vec::new();
                let mut more = enter(&mut r, b'[', not_labels)?;
                while more {
                    items.push(index(&mut r, "labels")?);
                    more = r.next(b']')?;
                }
                labels = Some(items);
            }
            // Unknown, or a repeat of a key already taken: syntax only.
            _ => r.skip_value()?,
        }
        more = r.next(b'}')?;
    }
    r.end()?;

    // Every field is in; the checks that need two of them (module docs).
    let Dense { data, rows: n, width } = features.ok_or(CodecError::Missing("features"))?;
    let width = match (width, dim) {
        (Some(got), Some(expected)) if got != expected => {
            return Err(CodecError::Ragged { row: 0, got, expected });
        }
        (Some(width), _) | (None, Some(width)) => width,
        (None, None) => return Err(CodecError::Missing("feature_dim")),
    };
    let incremental = incremental
        .ok_or(CodecError::Missing("incremental"))?
        .into_csr("incremental", n, None)?;
    let interconnect = match interconnect {
        Some(parts) => parts.into_csr("interconnect", n, Some(n))?,
        None => Csr::empty(n, n),
    };
    Ok(NodeBatch {
        features: DMat::from_vec(n, width, data),
        incremental,
        interconnect,
        labels: labels.unwrap_or_else(|| vec![0; n]),
    })
}

/// Serialises a logits response: the request's trace id and the `n x C`
/// logit matrix, row per node.
#[must_use]
pub fn encode_logits(trace: u64, logits: &DMat) -> String {
    let mut out = String::with_capacity(64 + DENSE_VALUE_BYTES * logits.len());
    out.push_str("{\"trace\":");
    #[allow(clippy::cast_precision_loss)]
    write_number(&mut out, trace as f64);
    out.push_str(",\"rows\":");
    write_index(&mut out, logits.rows());
    out.push_str(",\"cols\":");
    write_index(&mut out, logits.cols());
    out.push_str(",\"logits\":");
    write_rows(&mut out, logits);
    out.push('}');
    out
}

/// Decodes a logits response back into `(trace, logits)`.
///
/// # Errors
/// A typed [`CodecError`] on any syntactic or structural defect.
pub fn decode_logits(text: &str) -> Result<(u64, DMat), CodecError> {
    let mut r = Reader::new(text);
    let (mut trace, mut rows, mut cols, mut body) = (None, None, None, None);
    let wrong_cols = || CodecError::Type { field: "logits", expected: "exactly `cols` columns" };
    let mut more = enter(&mut r, b'{', CodecError::Missing("trace"))?;
    while more {
        let key = r.key()?;
        match key.as_str() {
            "trace" if trace.is_none() => trace = Some(index(&mut r, "trace")?),
            "rows" if rows.is_none() => rows = Some(index(&mut r, "rows")?),
            "cols" if cols.is_none() => cols = Some(index(&mut r, "cols")?),
            "logits" if body.is_none() => {
                // Rows of different widths cannot all be `cols` wide.
                body = Some(Dense::read(&mut r, "logits").map_err(|e| match e {
                    CodecError::Ragged { .. } => wrong_cols(),
                    other => other,
                })?);
            }
            _ => r.skip_value()?,
        }
        more = r.next(b'}')?;
    }
    r.end()?;
    let trace = trace.ok_or(CodecError::Missing("trace"))?;
    let rows = rows.ok_or(CodecError::Missing("rows"))?;
    let cols = cols.ok_or(CodecError::Missing("cols"))?;
    let body = body.ok_or(CodecError::Missing("logits"))?;
    if body.rows != rows {
        return Err(CodecError::Type { field: "logits", expected: "exactly `rows` rows" });
    }
    if body.width.is_some_and(|w| w != cols) {
        return Err(wrong_cols());
    }
    Ok((trace as u64, DMat::from_vec(rows, cols, body.data)))
}

fn write_list<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (k, x) in items.into_iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push(']');
}

fn write_index(out: &mut String, v: usize) {
    #[allow(clippy::cast_precision_loss)]
    write_number(out, v as f64);
}

fn write_rows(out: &mut String, m: &DMat) {
    write_list(out, 0..m.rows(), |out, i| {
        write_list(out, m.row(i), |out, &v| write_number(out, f64::from(v)));
    });
}

fn write_sparse(out: &mut String, m: &Csr) {
    out.push_str("{\"rows\":");
    write_index(out, m.rows());
    out.push_str(",\"cols\":");
    write_index(out, m.cols());
    out.push_str(",\"entries\":");
    write_list(out, m.iter(), |out, (i, j, v)| {
        out.push('[');
        write_index(out, i);
        out.push(',');
        write_index(out, j);
        out.push(',');
        write_number(out, f64::from(v));
        out.push(']');
    });
    out.push('}');
}

/// Enters the array or object the schema needs at the reader's position
/// (see [`Reader::begin`]); any other value there is `wrong`.
fn enter(r: &mut Reader, open: u8, wrong: CodecError) -> Result<bool, CodecError> {
    if r.peek() == Some(open) {
        Ok(r.begin(open)?)
    } else {
        Err(wrong_type(r, wrong))
    }
}

/// The error for a value the schema cannot use: `wrong` if the value is
/// at least well-formed JSON, its syntax error otherwise.
fn wrong_type(r: &mut Reader, wrong: CodecError) -> CodecError {
    match r.skip_value() {
        Ok(()) => wrong,
        Err(msg) => CodecError::Parse(msg),
    }
}

fn at_number(r: &Reader) -> bool {
    matches!(r.peek(), Some(b'-' | b'0'..=b'9'))
}

/// A finite f32, rejecting `null` (the writer's spelling of NaN/Inf),
/// anything non-numeric, and finite f64s whose f32 cast overflows to
/// infinity (e.g. `1e39`) — the *narrowed* value is what must be finite.
fn finite_f32(r: &mut Reader, field: &'static str) -> Result<f32, CodecError> {
    let not_finite = CodecError::Type { field, expected: "a finite number" };
    if !at_number(r) {
        return Err(wrong_type(r, not_finite));
    }
    #[allow(clippy::cast_possible_truncation)]
    let v = r.number()? as f32;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(not_finite)
    }
}

/// A non-negative integer index that fits `usize` exactly.
fn index(r: &mut Reader, field: &'static str) -> Result<usize, CodecError> {
    let bad = CodecError::BadIndex { field };
    if !at_number(r) {
        return Err(wrong_type(r, bad));
    }
    let v = r.number()?;
    if v >= 0.0 && v.fract() == 0.0 && v <= 2f64.powi(53) {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Ok(v as usize)
    } else {
        Err(bad)
    }
}

/// A dense `[[v, ...], ...]` value as it came off the wire: the values
/// row-major, how many rows, and how wide they all are (`None` without
/// rows).
struct Dense {
    data: Vec<f32>,
    rows: usize,
    width: Option<usize>,
}

impl Dense {
    /// Reads the rows straight into one buffer; a row whose width differs
    /// from the first row's is [`CodecError::Ragged`] as it closes.
    fn read(r: &mut Reader, field: &'static str) -> Result<Dense, CodecError> {
        let not_rows = || CodecError::Type { field, expected: "an array of rows" };
        let mut dense = Dense { data: Vec::new(), rows: 0, width: None };
        let mut more = enter(r, b'[', not_rows())?;
        while more {
            let start = dense.data.len();
            let mut more_values = enter(r, b'[', not_rows())?;
            while more_values {
                dense.data.push(finite_f32(r, field)?);
                more_values = r.next(b']')?;
            }
            let got = dense.data.len() - start;
            match dense.width {
                None => dense.width = Some(got),
                Some(expected) if got != expected => {
                    return Err(CodecError::Ragged { row: dense.rows, got, expected });
                }
                Some(_) => {}
            }
            dense.rows += 1;
            more = r.next(b']')?;
        }
        Ok(dense)
    }
}

/// A sparse `{rows?, cols?, entries?}` object as it came off the wire.
/// Nothing in it has been compared with anything yet: the node count the
/// shape must agree with may come later in the document.
struct Sparse {
    rows: Option<usize>,
    cols: Option<usize>,
    entries: Vec<(usize, usize, f32)>,
}

impl Sparse {
    fn read(r: &mut Reader, field: &'static str) -> Result<Sparse, CodecError> {
        let (mut rows, mut cols, mut entries) = (None, None, None);
        let not_sparse = CodecError::Type { field, expected: "an object with an entries array" };
        let mut more = enter(r, b'{', not_sparse)?;
        while more {
            let key = r.key()?;
            match key.as_str() {
                "rows" if rows.is_none() => rows = Some(index(r, field)?),
                "cols" if cols.is_none() => cols = Some(index(r, field)?),
                "entries" if entries.is_none() => entries = Some(Self::read_entries(r, field)?),
                _ => r.skip_value()?,
            }
            more = r.next(b'}')?;
        }
        Ok(Sparse { rows, cols, entries: entries.unwrap_or_default() })
    }

    fn read_entries(
        r: &mut Reader,
        field: &'static str,
    ) -> Result<Vec<(usize, usize, f32)>, CodecError> {
        let mut entries = Vec::new();
        let mut more = enter(r, b'[', CodecError::Type { field, expected: "an entries array" })?;
        while more {
            // Exactly `[row, col, value]`: too few, too many, not an array.
            let shape = || CodecError::EntryShape { field, index: entries.len() };
            if !enter(r, b'[', shape())? {
                return Err(shape());
            }
            let i = index(r, field)?;
            if !r.next(b']')? {
                return Err(shape());
            }
            let j = index(r, field)?;
            if !r.next(b']')? {
                return Err(shape());
            }
            let v = finite_f32(r, field)?;
            if r.next(b']')? {
                return Err(shape());
            }
            entries.push((i, j, v));
            more = r.next(b']')?;
        }
        Ok(entries)
    }

    /// Checks the declared shape against the batch's node count `n` —
    /// an explicit `rows` must *equal* it (module docs: CSR conversion
    /// allocates `rows + 1` slots, so a lying declaration is rejected
    /// before anything is sized from it) — and builds the matrix.
    /// `default_cols` is `Some(n)` for the interconnect (square by
    /// default) and `None` for the incremental matrix, whose `cols` — the
    /// base-graph width — the client must declare, bounded by
    /// [`MAX_WIRE_COLS`].
    fn into_csr(
        self,
        field: &'static str,
        n: usize,
        default_cols: Option<usize>,
    ) -> Result<Csr, CodecError> {
        let rows = self.rows.unwrap_or(n);
        if rows != n {
            return Err(CodecError::RowCountMismatch { field, got: rows, expected: n });
        }
        let Some(cols) = self.cols.or(default_cols) else {
            return Err(CodecError::Missing("incremental.cols"));
        };
        if cols > MAX_WIRE_COLS {
            return Err(CodecError::ColsTooLarge { field, got: cols, max: MAX_WIRE_COLS });
        }
        let mut coo = Coo::with_capacity(rows, cols, self.entries.len());
        for (i, j, v) in self.entries {
            if i >= rows || j >= cols {
                return Err(CodecError::EntryOutOfRange { field, row: i, col: j, rows, cols });
            }
            coo.push(i, j, v);
        }
        Ok(coo.to_csr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NodeBatch {
        let mut inc = Coo::new(2, 5);
        inc.push(0, 1, 1.0);
        inc.push(1, 4, -0.25);
        let mut inter = Coo::new(2, 2);
        inter.push_sym(0, 1, 1.0);
        NodeBatch {
            features: DMat::from_rows(&[&[0.5, -0.0, 3.25], &[1e-7, 2.0, -1.5]]),
            incremental: inc.to_csr(),
            interconnect: inter.to_csr(),
            labels: vec![1, 0],
        }
    }

    #[test]
    fn round_trip_is_bitwise() {
        let batch = sample();
        let back = decode_batch(&encode_batch(&batch)).unwrap();
        assert!(back.features.bit_eq(&batch.features), "features drifted");
        assert!(back.incremental.bit_eq(&batch.incremental));
        assert!(back.interconnect.bit_eq(&batch.interconnect));
        assert_eq!(back.labels, batch.labels);
    }

    #[test]
    fn empty_batch_round_trips_with_explicit_dim() {
        let batch = NodeBatch {
            features: DMat::zeros(0, 3),
            incremental: Csr::empty(0, 7),
            interconnect: Csr::empty(0, 0),
            labels: vec![],
        };
        let back = decode_batch(&encode_batch(&batch)).unwrap();
        assert_eq!(back.features.shape(), (0, 3));
        assert_eq!(back.incremental.cols(), 7);
    }

    #[test]
    fn non_finite_payloads_yield_typed_errors() {
        let mut batch = sample();
        batch.features.set(0, 0, f32::NAN);
        // NaN serialises as null; decode rejects it with a typed error.
        assert_eq!(
            decode_batch(&encode_batch(&batch)).unwrap_err(),
            CodecError::Type { field: "features", expected: "a finite number" }
        );
        let mut batch = sample();
        batch.incremental = batch.incremental.map_values(|_| f32::INFINITY);
        assert!(matches!(
            decode_batch(&encode_batch(&batch)),
            Err(CodecError::Type { field: "incremental", .. })
        ));
    }

    #[test]
    fn missing_and_malformed_fields_are_typed() {
        assert!(matches!(decode_batch("not json"), Err(CodecError::Parse(_))));
        assert_eq!(
            decode_batch("[]").unwrap_err(),
            CodecError::Type { field: "<root>", expected: "an object" }
        );
        assert_eq!(decode_batch("{}").unwrap_err(), CodecError::Missing("features"));
        assert_eq!(
            decode_batch(r#"{"features": []}"#).unwrap_err(),
            CodecError::Missing("feature_dim")
        );
        assert_eq!(
            decode_batch(r#"{"features": [[1.0]], "incremental": {"entries": []}}"#)
                .unwrap_err(),
            CodecError::Missing("incremental.cols")
        );
        assert_eq!(
            decode_batch(r#"{"features": [[1.0], [2.0, 3.0]], "incremental": {"cols": 2}}"#)
                .unwrap_err(),
            CodecError::Ragged { row: 1, got: 2, expected: 1 }
        );
        assert_eq!(
            decode_batch(
                r#"{"features": [[1.0]], "incremental": {"cols": 2, "entries": [[0, 5, 1.0]]}}"#
            )
            .unwrap_err(),
            CodecError::EntryOutOfRange { field: "incremental", row: 0, col: 5, rows: 1, cols: 2 }
        );
        assert_eq!(
            decode_batch(
                r#"{"features": [[1.0]], "incremental": {"cols": 2, "entries": [[0, 1]]}}"#
            )
            .unwrap_err(),
            CodecError::EntryShape { field: "incremental", index: 0 }
        );
        assert_eq!(
            decode_batch(r#"{"features": [[1.0]], "incremental": {"cols": -2}}"#).unwrap_err(),
            CodecError::BadIndex { field: "incremental" }
        );
    }

    #[test]
    fn wrong_declared_cols_decode_and_fail_batch_validation_later() {
        // Within the resource bounds the codec still accepts semantically
        // wrong widths (interconnect 1x3 for a 1-node batch, incremental
        // cols 4 against a 5-wide base) — validate_against owns those
        // rejections, so HTTP requests fail exactly like library calls.
        let batch = decode_batch(
            r#"{"features": [[1.0]],
                "incremental": {"cols": 4, "entries": []},
                "interconnect": {"cols": 3, "entries": []}}"#,
        )
        .unwrap();
        assert!(batch.validate_against(5, 1).is_err());
    }

    #[test]
    fn lying_row_declarations_die_at_decode_without_allocating() {
        // The remote-DoS shape: a tiny request declaring 9e15 rows
        // would force a ~72 PB indptr allocation in to_csr if it got that
        // far. It must be a typed error instead — for absurd counts and
        // for any mismatch at all.
        assert_eq!(
            decode_batch(
                r#"{"features": [[1.0]],
                    "incremental": {"rows": 9000000000000000, "cols": 2, "entries": []}}"#,
            )
            .unwrap_err(),
            CodecError::RowCountMismatch {
                field: "incremental",
                got: 9_000_000_000_000_000,
                expected: 1
            }
        );
        assert_eq!(
            decode_batch(
                r#"{"features": [[1.0]],
                    "incremental": {"cols": 2, "entries": []},
                    "interconnect": {"rows": 3, "cols": 3, "entries": []}}"#,
            )
            .unwrap_err(),
            CodecError::RowCountMismatch { field: "interconnect", got: 3, expected: 1 }
        );
    }

    #[test]
    fn cols_beyond_the_u32_representation_are_rejected() {
        assert_eq!(
            decode_batch(
                r#"{"features": [[1.0]],
                    "incremental": {"cols": 9000000000000000, "entries": []}}"#,
            )
            .unwrap_err(),
            CodecError::ColsTooLarge {
                field: "incremental",
                got: 9_000_000_000_000_000,
                max: MAX_WIRE_COLS
            }
        );
        // The cap itself is fine.
        let batch = decode_batch(&format!(
            r#"{{"features": [[1.0]], "incremental": {{"cols": {MAX_WIRE_COLS}, "entries": []}}}}"#
        ))
        .unwrap();
        assert_eq!(batch.incremental.cols(), MAX_WIRE_COLS);
    }

    #[test]
    fn f64_values_overflowing_f32_are_rejected_as_non_finite() {
        // 1e39 is a finite f64 but saturates to +inf as an f32; the
        // decoder's invariant is about the narrowed value.
        assert_eq!(
            decode_batch(
                r#"{"features": [[1e39]], "incremental": {"cols": 2, "entries": []}}"#
            )
            .unwrap_err(),
            CodecError::Type { field: "features", expected: "a finite number" }
        );
        assert_eq!(
            decode_batch(
                r#"{"features": [[1.0]],
                    "incremental": {"cols": 2, "entries": [[0, 0, -1e309]]}}"#
            )
            .unwrap_err(),
            CodecError::Type { field: "incremental", expected: "a finite number" }
        );
    }

    #[test]
    fn lying_logits_shape_cannot_force_a_huge_preallocation() {
        // Server responses are trusted less than they should be: a
        // declared cols of 9e15 must fail on the first row's width check,
        // not abort the client in Vec::with_capacity.
        assert_eq!(
            decode_logits(
                r#"{"trace": 1, "rows": 1, "cols": 9000000000000000, "logits": [[1.0]]}"#
            )
            .unwrap_err(),
            CodecError::Type { field: "logits", expected: "exactly `cols` columns" }
        );
    }

    #[test]
    fn nesting_past_the_cap_is_a_parse_error_wherever_it_sits() {
        // 20 000 levels used to overflow the handler thread's stack and
        // abort the process; a key outside the schema is no way around
        // the cap, and neither is a logits body.
        let deep = "[".repeat(20_000);
        let under_unknown_key = format!(
            r#"{{"features": [[1.0]], "incremental": {{"cols": 2}}, "annotations": {deep}}}"#
        );
        for body in [&deep, &under_unknown_key] {
            assert!(matches!(decode_batch(body), Err(CodecError::Parse(_))));
            assert!(matches!(decode_logits(body), Err(CodecError::Parse(_))));
        }
    }

    #[test]
    fn logits_round_trip_is_bitwise() {
        let logits = DMat::from_rows(&[&[0.1, -0.0], &[f32::MIN_POSITIVE, 123456.75]]);
        let text = encode_logits(42, &logits);
        let (trace, back) = decode_logits(&text).unwrap();
        assert_eq!(trace, 42);
        assert!(back.bit_eq(&logits));
    }
}
