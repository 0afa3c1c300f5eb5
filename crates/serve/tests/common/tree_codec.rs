//! The wire codec as it was before it stopped building a tree: every
//! function parses the whole body into a [`Json`] value and walks it, or
//! builds a [`Json`] value and dumps it. Kept, unchanged, as the reference
//! `codec_fuzz` holds the streaming codec in `mcond_serve::codec` to —
//! same decoded bits, same wire bytes, same errors (up to which of two
//! defects is named: see that module's docs).

use mcond_graph::NodeBatch;
use mcond_linalg::DMat;
use mcond_obs::Json;
use mcond_serve::{CodecError, MAX_WIRE_COLS};
use mcond_sparse::{Coo, Csr};

const PREALLOC_CLAMP: usize = 1 << 20;

/// Serialises a batch to the wire object.
#[must_use]
pub fn batch_to_json(batch: &NodeBatch) -> Json {
    Json::obj()
        .with("feature_dim", batch.features.cols())
        .with(
            "features",
            Json::Arr(
                (0..batch.features.rows())
                    .map(|i| {
                        Json::Arr(
                            batch.features.row(i).iter().map(|&v| Json::from(v)).collect(),
                        )
                    })
                    .collect(),
            ),
        )
        .with("incremental", csr_to_json(&batch.incremental))
        .with("interconnect", csr_to_json(&batch.interconnect))
        .with("labels", Json::Arr(batch.labels.iter().map(|&l| Json::from(l)).collect()))
}

/// Serialises a batch to a compact JSON string.
#[must_use]
pub fn encode_batch(batch: &NodeBatch) -> String {
    batch_to_json(batch).dump()
}

/// Decodes the wire object back into a batch.
///
/// # Errors
/// A typed [`CodecError`] for any structural defect; see the module docs
/// for the division of labour with `NodeBatch::validate_against`.
pub fn batch_from_json(json: &Json) -> Result<NodeBatch, CodecError> {
    let Json::Obj(_) = json else {
        return Err(CodecError::Type { field: "<root>", expected: "an object" });
    };
    let rows = json
        .get("features")
        .ok_or(CodecError::Missing("features"))?
        .as_arr()
        .ok_or(CodecError::Type { field: "features", expected: "an array of rows" })?;
    let n = rows.len();
    let dim = match json.get("feature_dim") {
        Some(v) => Some(parse_index(v, "feature_dim")?),
        None => None,
    };
    let first_width = match rows.first() {
        Some(row) => row
            .as_arr()
            .ok_or(CodecError::Type { field: "features", expected: "an array of rows" })?
            .len(),
        None => dim.ok_or(CodecError::Missing("feature_dim"))?,
    };
    if let Some(d) = dim {
        if n > 0 && d != first_width {
            return Err(CodecError::Ragged { row: 0, got: first_width, expected: d });
        }
    }
    let mut data = Vec::with_capacity(n.saturating_mul(first_width).min(PREALLOC_CLAMP));
    for (i, row) in rows.iter().enumerate() {
        let row = row
            .as_arr()
            .ok_or(CodecError::Type { field: "features", expected: "an array of rows" })?;
        if row.len() != first_width {
            return Err(CodecError::Ragged { row: i, got: row.len(), expected: first_width });
        }
        for v in row {
            data.push(parse_f32(v, "features")?);
        }
    }
    let features = DMat::from_vec(n, first_width, data);

    let inc_json =
        json.get("incremental").ok_or(CodecError::Missing("incremental"))?;
    let incremental = csr_from_json(inc_json, "incremental", n, None)?;
    let interconnect = match json.get("interconnect") {
        Some(j) => csr_from_json(j, "interconnect", n, Some(n))?,
        None => Csr::empty(n, n),
    };
    let labels = match json.get("labels") {
        Some(Json::Arr(items)) => {
            let mut labels = Vec::with_capacity(items.len());
            for item in items {
                labels.push(parse_index(item, "labels")?);
            }
            labels
        }
        Some(_) => {
            return Err(CodecError::Type { field: "labels", expected: "an array of integers" })
        }
        None => vec![0; n],
    };
    Ok(NodeBatch { features, incremental, interconnect, labels })
}

/// Parses and decodes a JSON text body.
///
/// # Errors
/// [`CodecError::Parse`] on syntax errors, otherwise as
/// [`batch_from_json`].
pub fn decode_batch(text: &str) -> Result<NodeBatch, CodecError> {
    let json = Json::parse(text).map_err(CodecError::Parse)?;
    batch_from_json(&json)
}

/// Serialises a logits response: the request's trace id and the `n x C`
/// logit matrix, row per node.
#[must_use]
pub fn encode_logits(trace: u64, logits: &DMat) -> String {
    Json::obj()
        .with("trace", trace)
        .with("rows", logits.rows())
        .with("cols", logits.cols())
        .with(
            "logits",
            Json::Arr(
                (0..logits.rows())
                    .map(|i| Json::Arr(logits.row(i).iter().map(|&v| Json::from(v)).collect()))
                    .collect(),
            ),
        )
        .dump()
}

/// Decodes a logits response back into `(trace, logits)`.
///
/// # Errors
/// A typed [`CodecError`] on any structural defect.
pub fn decode_logits(text: &str) -> Result<(u64, DMat), CodecError> {
    let json = Json::parse(text).map_err(CodecError::Parse)?;
    let trace = parse_index(json.get("trace").ok_or(CodecError::Missing("trace"))?, "trace")?;
    let rows = parse_index(json.get("rows").ok_or(CodecError::Missing("rows"))?, "rows")?;
    let cols = parse_index(json.get("cols").ok_or(CodecError::Missing("cols"))?, "cols")?;
    let body = json
        .get("logits")
        .ok_or(CodecError::Missing("logits"))?
        .as_arr()
        .ok_or(CodecError::Type { field: "logits", expected: "an array of rows" })?;
    if body.len() != rows {
        return Err(CodecError::Type { field: "logits", expected: "exactly `rows` rows" });
    }
    let mut data = Vec::with_capacity(rows.saturating_mul(cols).min(PREALLOC_CLAMP));
    for row in body {
        let row = row
            .as_arr()
            .ok_or(CodecError::Type { field: "logits", expected: "an array of rows" })?;
        if row.len() != cols {
            return Err(CodecError::Type { field: "logits", expected: "exactly `cols` columns" });
        }
        for v in row {
            data.push(parse_f32(v, "logits")?);
        }
    }
    Ok((trace as u64, DMat::from_vec(rows, cols, data)))
}

fn csr_to_json(m: &Csr) -> Json {
    Json::obj().with("rows", m.rows()).with("cols", m.cols()).with(
        "entries",
        Json::Arr(
            m.iter()
                .map(|(i, j, v)| Json::Arr(vec![Json::from(i), Json::from(j), Json::from(v)]))
                .collect(),
        ),
    )
}

/// Decodes a sparse object. `default_rows` is the batch's node count —
/// an explicit `rows` must *equal* it (module docs: CSR conversion
/// allocates `rows + 1` slots, so a lying declaration is rejected before
/// anything is sized from it); `default_cols` is `Some(n)` for the
/// interconnect (square by default) and `None` for the incremental
/// matrix, whose `cols` — the base-graph width — the client must
/// declare, bounded by [`MAX_WIRE_COLS`].
fn csr_from_json(
    json: &Json,
    field: &'static str,
    default_rows: usize,
    default_cols: Option<usize>,
) -> Result<Csr, CodecError> {
    let Json::Obj(_) = json else {
        return Err(CodecError::Type { field, expected: "an object with an entries array" });
    };
    let rows = match json.get("rows") {
        Some(v) => parse_index(v, field)?,
        None => default_rows,
    };
    if rows != default_rows {
        return Err(CodecError::RowCountMismatch { field, got: rows, expected: default_rows });
    }
    let cols = match (json.get("cols"), default_cols) {
        (Some(v), _) => parse_index(v, field)?,
        (None, Some(d)) => d,
        (None, None) => return Err(CodecError::Missing("incremental.cols")),
    };
    if cols > MAX_WIRE_COLS {
        return Err(CodecError::ColsTooLarge { field, got: cols, max: MAX_WIRE_COLS });
    }
    let entries = match json.get("entries") {
        Some(j) => j
            .as_arr()
            .ok_or(CodecError::Type { field, expected: "an entries array" })?,
        None => &[],
    };
    let mut coo = Coo::with_capacity(rows, cols, entries.len());
    for (index, entry) in entries.iter().enumerate() {
        let triple = entry.as_arr().ok_or(CodecError::EntryShape { field, index })?;
        let [i, j, v] = triple else {
            return Err(CodecError::EntryShape { field, index });
        };
        let i = parse_index(i, field)?;
        let j = parse_index(j, field)?;
        let v = parse_f32(v, field)?;
        if i >= rows || j >= cols {
            return Err(CodecError::EntryOutOfRange { field, row: i, col: j, rows, cols });
        }
        coo.push(i, j, v);
    }
    Ok(coo.to_csr())
}

/// A finite f32, rejecting `null` (the writer's spelling of NaN/Inf),
/// anything non-numeric, and finite f64s whose f32 cast overflows to
/// infinity (e.g. `1e39`) — the *narrowed* value is what must be finite.
fn parse_f32(json: &Json, field: &'static str) -> Result<f32, CodecError> {
    match json {
        Json::Num(v) if v.is_finite() => {
            #[allow(clippy::cast_possible_truncation)]
            let f = *v as f32;
            if f.is_finite() {
                Ok(f)
            } else {
                Err(CodecError::Type { field, expected: "a finite number" })
            }
        }
        _ => Err(CodecError::Type { field, expected: "a finite number" }),
    }
}

/// A non-negative integer index that fits `usize` exactly.
fn parse_index(json: &Json, field: &'static str) -> Result<usize, CodecError> {
    match json {
        Json::Num(v)
            if v.is_finite() && *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) =>
        {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Ok(*v as usize)
        }
        _ => Err(CodecError::BadIndex { field }),
    }
}

