//! Seeded property fuzzing of the wire codec, in the same style as the
//! store fault-injection suite: random `NodeBatch`es (including NaN/Inf
//! contamination and empty shapes) must either round-trip bitwise or
//! fail with a typed [`CodecError`]; random byte mutations and
//! truncations of valid payloads must never panic the decoder.

use mcond_graph::NodeBatch;
use mcond_linalg::{DMat, MatRng};
use mcond_serve::{decode_batch, decode_logits, encode_batch, encode_logits, CodecError};
use mcond_sparse::Coo;

/// Draws a random batch: `n×d` features, `n×base` incremental, `n×n`
/// interconnect, with occasional degenerate shapes.
fn random_batch(rng: &mut MatRng, round: usize) -> NodeBatch {
    let n = [0usize, 1, 2, 3, 5, 8][round % 6];
    let d = 1 + round % 4;
    let base = 1 + round % 5;
    let features = rng.normal(n, d, 0.0, 10.0);
    let mut inc = Coo::new(n, base);
    let mut inter = Coo::new(n, n);
    for i in 0..n {
        inc.push(i, i % base, rng.normal(1, 1, 0.0, 1.0).get(0, 0));
        if n > 1 {
            inter.push(i, (i + 1) % n, 1.0);
        }
    }
    NodeBatch {
        features,
        incremental: inc.to_csr(),
        interconnect: inter.to_csr(),
        labels: (0..n).map(|i| i % 2).collect(),
    }
}

/// Seeds a deterministic corruption into the batch's floats.
fn poison(batch: &mut NodeBatch, round: usize) {
    if batch.features.rows() == 0 {
        return;
    }
    let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][round % 3];
    batch.features.set(0, 0, bad);
}

#[test]
fn clean_batches_round_trip_bitwise() {
    let mut rng = MatRng::seed_from(0x5EED);
    for round in 0..200 {
        let batch = random_batch(&mut rng, round);
        let text = encode_batch(&batch);
        let back = decode_batch(&text)
            .unwrap_or_else(|e| panic!("round {round}: clean batch failed decode: {e}"));
        assert!(back.features.bit_eq(&batch.features), "round {round}: features drifted");
        assert!(back.incremental.bit_eq(&batch.incremental), "round {round}: incremental");
        assert!(back.interconnect.bit_eq(&batch.interconnect), "round {round}: interconnect");
        assert_eq!(back.labels, batch.labels, "round {round}: labels");
    }
}

#[test]
fn non_finite_payloads_fail_typed_never_panic() {
    let mut rng = MatRng::seed_from(0xBAD);
    let mut typed_failures = 0;
    for round in 0..120 {
        let mut batch = random_batch(&mut rng, round);
        poison(&mut batch, round);
        match decode_batch(&encode_batch(&batch)) {
            Ok(back) => {
                // Empty batches have nothing to poison and stay clean.
                assert_eq!(batch.features.rows(), 0, "round {round}: poison decoded");
                assert_eq!(back.features.rows(), 0);
            }
            Err(CodecError::Type { field, .. }) => {
                assert_eq!(field, "features", "round {round}");
                typed_failures += 1;
            }
            Err(other) => panic!("round {round}: wrong error class: {other}"),
        }
    }
    assert!(typed_failures > 50, "poisoning must actually exercise the error path");
}

#[test]
fn logits_round_trip_bitwise_including_edge_floats() {
    let specials: &[f32] = &[
        0.0,
        -0.0,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        1.0e-40, // subnormal
        123_456.75,
    ];
    let mut rng = MatRng::seed_from(0xF10A7);
    for round in 0..100 {
        let rows = round % 5;
        let cols = 1 + round % 3;
        let mut logits = rng.normal(rows, cols, 0.0, 1.0e6);
        if rows > 0 {
            logits.set(0, 0, specials[round % specials.len()]);
        }
        let (trace, back) = decode_logits(&encode_logits(round as u64, &logits))
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(trace, round as u64);
        assert!(back.bit_eq(&logits), "round {round}: logits drifted");
    }
}

/// Byte-level adversarial pass: mutate or truncate a valid payload at a
/// seeded random position. The decoder must return — `Ok` or typed
/// `Err` — but never panic (the harness would abort on panic).
#[test]
fn mutated_and_truncated_payloads_never_panic() {
    let mut rng = MatRng::seed_from(0xC0DEC);
    let base = {
        let batch = random_batch(&mut rng, 4);
        encode_batch(&batch)
    };
    let draw = |rng: &mut MatRng, bound: usize| -> usize {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let v = (rng.normal(1, 1, 0.0, 1.0).get(0, 0).abs() * 1.0e4) as usize;
        v % bound.max(1)
    };
    let mut outcomes = [0usize; 2];
    for round in 0..600 {
        let mut bytes = base.clone().into_bytes();
        if round % 3 == 0 {
            // Truncation.
            bytes.truncate(draw(&mut rng, bytes.len()));
        } else {
            // Single-byte mutation over printable-ish space.
            let pos = draw(&mut rng, bytes.len());
            let delta = 1 + (draw(&mut rng, 94)) as u8;
            bytes[pos] = 32 + (bytes[pos].wrapping_add(delta)) % 95;
        }
        // Non-UTF8 never reaches the codec in the server (the endpoint
        // rejects it first); nothing to assert for that branch.
        if let Ok(text) = String::from_utf8(bytes) {
            match decode_batch(&text) {
                Ok(_) => outcomes[0] += 1,
                Err(_) => outcomes[1] += 1,
            }
        }
    }
    assert!(outcomes[1] > 100, "mutations must exercise the error paths: {outcomes:?}");
}

// ---------------------------------------------------------------------
// The streaming codec against the tree codec it replaced.
// ---------------------------------------------------------------------

#[path = "common/tree_codec.rs"]
mod tree;

fn same_bits(a: &NodeBatch, b: &NodeBatch) -> bool {
    a.features.bit_eq(&b.features)
        && a.incremental.bit_eq(&b.incremental)
        && a.interconnect.bit_eq(&b.interconnect)
        && a.labels == b.labels
}

/// Both decoders' results for one document: `Ok` on both sides and `same`,
/// or `Err` on both. Returns whether it decoded.
fn decoders_agree<T>(
    streaming: Result<T, CodecError>,
    tree: Result<T, CodecError>,
    same: impl Fn(&T, &T) -> bool,
    what: &str,
    doc: &str,
) -> bool {
    match (streaming, tree) {
        (Ok(a), Ok(b)) => {
            assert!(same(&a, &b), "{what}: decoded bits differ on {doc:?}");
            true
        }
        (Err(_), Err(_)) => false,
        (a, b) => panic!(
            "{what}: streaming {:?} but tree {:?} on {doc:?}",
            a.map(|_| ()),
            b.map(|_| ())
        ),
    }
}

fn batch_decoders_agree(doc: &str, what: &str) -> bool {
    decoders_agree(decode_batch(doc), tree::decode_batch(doc), same_bits, what, doc)
}

fn logits_decoders_agree(doc: &str, what: &str) -> bool {
    let same = |a: &(u64, DMat), b: &(u64, DMat)| a.0 == b.0 && a.1.bit_eq(&b.1);
    decoders_agree(decode_logits(doc), tree::decode_logits(doc), same, what, doc)
}

/// The bytes JSON structure is made of — a mutation drawn from here turns
/// a number into a bracket, closes an array early, splices `null` in,
/// far more often than a printable-ASCII draw does.
const STRUCTURAL: &[u8] = b"[]{},:0123456789.-e\" nul";

/// `doc` with 1–4 bytes overwritten from [`STRUCTURAL`], or cut short.
/// Documents are ASCII, so any cut or overwrite leaves valid UTF-8.
fn damage(rng: &mut MatRng, doc: &str, truncate: bool) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    if truncate {
        bytes.truncate(rng.index(bytes.len()));
    } else {
        for _ in 0..=rng.index(4) {
            let pos = rng.index(bytes.len());
            bytes[pos] = STRUCTURAL[rng.index(STRUCTURAL.len())];
        }
    }
    String::from_utf8(bytes).expect("ASCII in, ASCII out")
}

#[test]
fn streaming_decoder_agrees_with_the_tree_decoder_on_3000_documents() {
    let mut rng = MatRng::seed_from(0xD1FF);
    let (mut decoded, mut refused) = (0usize, 0usize);
    for round in 0..3000 {
        let batch = random_batch(&mut rng, round);
        // Compact and indented spellings: the second puts whitespace
        // between every pair of tokens.
        let doc = if round % 2 == 0 {
            encode_batch(&batch)
        } else {
            tree::batch_to_json(&batch).pretty()
        };
        let doc = match round % 5 {
            0 => doc,
            1 => damage(&mut rng, &doc, true),
            _ => damage(&mut rng, &doc, false),
        };
        if batch_decoders_agree(&doc, &format!("round {round}")) {
            decoded += 1;
        } else {
            refused += 1;
        }
    }
    assert!(decoded > 600 && refused > 600, "both outcomes exercised: {decoded} / {refused}");
}

#[test]
fn streaming_logits_decoder_agrees_with_the_tree_decoder() {
    let mut rng = MatRng::seed_from(0x10617);
    let (mut decoded, mut refused) = (0usize, 0usize);
    for round in 0..1000 {
        let logits = rng.normal(round % 5, 1 + round % 3, 0.0, 1.0e3);
        let doc = encode_logits(round as u64, &logits);
        let doc = match round % 4 {
            0 => doc,
            1 => damage(&mut rng, &doc, true),
            _ => damage(&mut rng, &doc, false),
        };
        if logits_decoders_agree(&doc, &format!("round {round}")) {
            decoded += 1;
        } else {
            refused += 1;
        }
    }
    assert!(decoded > 200 && refused > 200, "both outcomes exercised: {decoded} / {refused}");
}

/// Every one-defect document the codec's unit tests pin an error value
/// for: the streaming decoder names the same defect, with the same
/// fields, as the tree decoder.
#[test]
fn single_defect_documents_get_the_error_value_they_always_got() {
    let batch_docs = [
        "not json",
        "[]",
        "{}",
        r#"{"features": []}"#,
        r#"{"features": 42}"#,
        r#"{"features": [[1.0]], "incremental": {"entries": []}}"#,
        r#"{"features": [[1.0]]}"#,
        r#"{"features": [[1.0], [2.0, 3.0]], "incremental": {"cols": 2}}"#,
        r#"{"features": [[1.0]], "incremental": {"cols": 2, "entries": [[0, 5, 1.0]]}}"#,
        r#"{"features": [[1.0]], "incremental": {"cols": 2, "entries": [[0, 1]]}}"#,
        r#"{"features": [[1.0]], "incremental": {"cols": 2, "entries": [[0, 1, 1.0, 2]]}}"#,
        r#"{"features": [[1.0]], "incremental": {"cols": 2, "entries": [7]}}"#,
        r#"{"features": [[1.0]], "incremental": {"cols": 2, "entries": 7}}"#,
        r#"{"features": [[1.0]], "incremental": {"cols": -2}}"#,
        r#"{"features": [[1.0]], "incremental": {"cols": 1.5}}"#,
        r#"{"features": [[1.0]], "incremental": 3}"#,
        r#"{"features": [[null]], "incremental": {"cols": 2}}"#,
        r#"{"features": [[1e39]], "incremental": {"cols": 2, "entries": []}}"#,
        r#"{"features": [[1.0]], "incremental": {"cols": 2, "entries": [[0, 0, -1e309]]}}"#,
        r#"{"features": [[1.0]], "feature_dim": 2, "incremental": {"cols": 2}}"#,
        r#"{"features": [[1.0]], "feature_dim": "x", "incremental": {"cols": 2}}"#,
        r#"{"features": [[1.0]], "incremental": {"cols": 2}, "labels": 0}"#,
        r#"{"features": [[1.0]], "incremental": {"cols": 2}, "labels": [0.5]}"#,
        r#"{"features": [[1.0]],
            "incremental": {"rows": 9000000000000000, "cols": 2, "entries": []}}"#,
        r#"{"features": [[1.0]],
            "incremental": {"cols": 2, "entries": []},
            "interconnect": {"rows": 3, "cols": 3, "entries": []}}"#,
        r#"{"features": [[1.0]], "incremental": {"cols": 9000000000000000, "entries": []}}"#,
        r#"{"features": [[1.0]], "incremental": {"cols": 2}} trailing"#,
        r#"{"features": [[1.0]], "incremental": {"cols": 2}"#,
    ];
    for doc in batch_docs {
        let streaming = decode_batch(doc).map(|_| ()).expect_err(doc);
        assert_eq!(streaming, tree::decode_batch(doc).map(|_| ()).expect_err(doc), "on {doc:?}");
    }
    let logits_docs = [
        "[]",
        "{}",
        r#"{"trace": 1, "rows": 1, "cols": 1}"#,
        r#"{"trace": 1, "rows": 1, "cols": 9000000000000000, "logits": [[1.0]]}"#,
        r#"{"trace": 1, "rows": 2, "cols": 1, "logits": [[1.0]]}"#,
        r#"{"trace": 1, "rows": 1, "cols": 1, "logits": [[null]]}"#,
        r#"{"trace": 1, "rows": 1, "cols": 1, "logits": [1.0]}"#,
        r#"{"trace": -1, "rows": 1, "cols": 1, "logits": [[1.0]]}"#,
        r#"{"trace": 1, "rows": 1, "cols": 1, "logits": [[1.0]]"#,
    ];
    for doc in logits_docs {
        let streaming = decode_logits(doc).map(|_| ()).expect_err(doc);
        assert_eq!(streaming, tree::decode_logits(doc).map(|_| ()).expect_err(doc), "on {doc:?}");
    }
}

/// All orders of `items`, each joined with `,`.
fn joined_permutations(items: &[&str]) -> Vec<String> {
    fn go(rest: &mut Vec<String>, taken: &mut Vec<String>, out: &mut Vec<String>) {
        if rest.is_empty() {
            out.push(taken.join(","));
        }
        for k in 0..rest.len() {
            let item = rest.remove(k);
            taken.push(item);
            go(rest, taken, out);
            rest.insert(k, taken.pop().unwrap());
        }
    }
    let mut out = Vec::new();
    go(&mut items.iter().map(|s| (*s).to_owned()).collect(), &mut Vec::new(), &mut out);
    out
}

/// The decoder takes its fields as they come: nothing about key order,
/// repeats, keys it does not know, or whitespace changes the decoded bits.
#[test]
fn key_order_repeats_unknown_keys_and_whitespace_do_not_change_the_bits() {
    let members = [
        r#""feature_dim":3"#,
        r#""features":[[0.5,-0.0,3.25],[1e-7,2,-1.5]]"#,
        r#""incremental":{"rows":2,"cols":5,"entries":[[0,1,1],[1,4,-0.25]]}"#,
        r#""interconnect":{"rows":2,"cols":2,"entries":[[0,1,1],[1,0,1]]}"#,
        r#""labels":[1,0]"#,
    ];
    let canonical = format!("{{{}}}", members.join(","));
    let want = decode_batch(&canonical).unwrap();
    assert_eq!(want.features.shape(), (2, 3));
    assert_eq!(want.features.get(0, 1).to_bits(), (-0.0f32).to_bits());
    assert_eq!((want.incremental.nnz(), want.interconnect.nnz()), (2, 2));
    assert_eq!(want.labels, [1, 0]);
    let check = |doc: &str| {
        assert!(batch_decoders_agree(doc, "reordered"), "refused {doc:?}");
        assert!(same_bits(&decode_batch(doc).unwrap(), &want), "other bits from {doc:?}");
    };

    // All 5! top-level orders (feature_dim after features, the sparse
    // matrices before the features that give them their row count, ...).
    let orders = joined_permutations(&members);
    assert_eq!(orders.len(), 120);
    for order in &orders {
        check(&format!("{{{order}}}"));
    }
    // All 3! orders inside a sparse object: rows / cols after entries.
    let inner = [r#""rows":2"#, r#""cols":5"#, r#""entries":[[0,1,1],[1,4,-0.25]]"#];
    for order in joined_permutations(&inner) {
        check(&canonical.replace(members[2], &format!(r#""incremental":{{{order}}}"#)));
    }
    // Of a repeated key the first occurrence counts, at both levels —
    // whatever the repeat holds, as long as it is JSON.
    check(&canonical.replace(members[0], r#""feature_dim":3,"feature_dim":7"#));
    check(&canonical.replace(members[1], &format!(r#"{},"features":[[9]]"#, members[1])));
    check(&canonical.replace(members[4], r#""labels":[1,0],"labels":"none""#));
    check(&canonical.replace(r#""cols":5"#, r#""cols":5,"cols":9000000000000000"#));
    check(&canonical.replace(r#""rows":2,"cols":5"#, r#""rows":2,"rows":77,"cols":5"#));
    check(&format!("{{{},{}}}", members.join(","), r#""incremental":{"entries":[[5,5,5]]}"#));
    // ... and a repeat that is not JSON is still a syntax error.
    for broken in [r#""labels":[1,0],"labels":[1,"#, r#""labels":[1,0],"labels":[1 0]"#] {
        let doc = canonical.replace(members[4], broken);
        assert!(matches!(decode_batch(&doc), Err(CodecError::Parse(_))), "{doc:?}");
        assert!(matches!(tree::decode_batch(&doc), Err(CodecError::Parse(_))), "{doc:?}");
    }
    // Keys outside the schema, with nested values, at both levels.
    let extra = r#""meta":{"a":[1,{"b":null},[[]],true],"c":"br[ack}ets \" \\ é"}"#;
    check(&format!("{{{extra},{}}}", members.join(",")));
    check(&format!("{{{},{extra}}}", members.join(",")));
    check(&canonical.replace(r#""cols":5"#, &format!(r#""cols":5,{extra},"x":[[1,2],[3]]"#)));
    // Whitespace around every structural byte.
    let mut spaced = String::new();
    for c in canonical.chars() {
        if "[]{},:".contains(c) {
            spaced.push_str(" \n\t\r");
            spaced.push(c);
            spaced.push_str("\r\t\n ");
        } else {
            spaced.push(c);
        }
    }
    check(&spaced);
}

/// The encoders write the bytes the tree's `dump()` wrote.
#[test]
fn encoders_write_the_same_bytes_as_the_tree_encoders() {
    let specials: &[f32] = &[
        0.0,
        -0.0,
        1.0e-40,  // subnormal
        -1.0e-45, // smallest subnormal
        f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        3.0,
        -7.0,
        16_777_216.0,
        1.0e15,
        -1.0e15,
        1.0e20,
        0.1,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];
    let mut rng = MatRng::seed_from(0x3717E);
    for round in 0..200 {
        let mut batch = random_batch(&mut rng, round);
        let n = batch.features.rows();
        for k in 0..n.min(3) {
            let v = specials[(round + k) % specials.len()];
            batch.features.set(k, (round + k) % batch.features.cols(), v);
        }
        let special = specials[round % specials.len()];
        if round % 3 == 0 {
            batch.incremental = batch.incremental.map_values(|_| special);
        }
        if round % 7 == 0 {
            batch.labels = (0..n).map(|i| i * 1_000_000_007).collect();
        }
        assert_eq!(encode_batch(&batch), tree::encode_batch(&batch), "round {round}");

        let mut logits = rng.normal(round % 6, 1 + round % 4, 0.0, 1.0e4);
        if logits.rows() > 0 {
            logits.set(0, 0, special);
        }
        let trace = [0, 1, 42, (1 << 53) + 1, u64::MAX][round % 5] ^ (round as u64 % 2);
        assert_eq!(
            encode_logits(trace, &logits),
            tree::encode_logits(trace, &logits),
            "round {round}"
        );
    }
}
