//! A minimal JSON value with writer and parser, and the pull reader the
//! parser is built on.
//!
//! The workspace builds in a hermetic environment with no registry access,
//! so machine-readable output (JSONL event logs, bench result dumps) runs on
//! this module instead of `serde`/`serde_json`. It covers exactly what the
//! observability layer and the bench harness need: building values, compact
//! and pretty serialisation with full string escaping, and a strict parser
//! so tests can round-trip every emitted line. Documents that arrive from
//! outside the process are read with the same grammar through [`Reader`],
//! which [`Json::parse`] is one client of: it bounds nesting
//! ([`MAX_DEPTH`]), and a caller that knows its schema can take values off
//! it without a [`Json`] tree in between.

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order (stable, diffable dumps).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; non-finite values serialise as `null` (JSON has no NaN).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    #[must_use]
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Inserts `key: value` (builder style) — only meaningful on `Obj`.
    ///
    /// # Panics
    /// Panics when `self` is not an object.
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.insert(key, value);
        self
    }

    /// Inserts `key: value` in place.
    ///
    /// # Panics
    /// Panics when `self` is not an object.
    pub fn insert(&mut self, key: &str, value: impl Into<Json>) {
        match self {
            Json::Obj(pairs) => pairs.push((key.to_owned(), value.into())),
            other => panic!("Json::insert on non-object {other:?}"),
        }
    }

    /// Object field lookup (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, when this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, when this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, when this is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Compact single-line serialisation.
    #[must_use]
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialisation with 2-space indentation.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_number(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, depth| {
                    items[i].write(out, indent, depth);
                });
            }
            Json::Obj(pairs) => {
                write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i, depth| {
                    let (k, v) = &pairs[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth);
                });
            }
        }
    }

    /// Parses a JSON document (must consume the full input).
    ///
    /// # Errors
    /// Returns a message with the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut r = Reader::new(text);
        let value = r.value()?;
        r.end()?;
        Ok(value)
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
}

/// Appends `v` the way every document of this workspace spells a number:
/// non-finite as `null`, `-0.0` explicitly, integral values below 1e15
/// without a decimal point, anything else as the shortest decimal that
/// parses back to the same `f64`.
pub fn write_number(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == 0.0 && v.is_sign_negative() {
        // The integer fast path below would erase the sign bit; keep it
        // so dump→parse round-trips every finite f64 bitwise.
        out.push_str("-0.0");
    } else if v == v.trunc() && v.abs() < 1e15 {
        #[allow(clippy::cast_possible_truncation)]
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! from_num {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            #[allow(clippy::cast_precision_loss, clippy::cast_lossless)]
            fn from(v: $t) -> Json {
                Json::Num(v as f64)
            }
        }
    )*};
}
from_num!(f64, f32, u64, i64, u32, i32, usize);

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Deepest array/object nesting the [`Reader`] follows. Everything that
/// walks a document — [`Json::parse`], [`Reader::skip_value`], a
/// schema-driven decoder — recurses once per level, so the cap is what
/// keeps a body of 20 000 `[` characters an error instead of a stack
/// overflow (which aborts the process, not just the thread).
pub const MAX_DEPTH: usize = 128;

/// A pull reader over one JSON document: the workspace's only JSON
/// lexer. [`Json::parse`] builds a tree with it; a decoder that knows its
/// schema (the `mcond-serve` wire codec) reads values straight into its
/// own buffers and never builds one.
///
/// Arrays and objects are walked with [`Reader::begin`] / [`Reader::next`]:
///
/// ```
/// use mcond_obs::json::Reader;
/// let mut r = Reader::new(" [1, 2.5 ,3] ");
/// let mut sum = 0.0;
/// let mut more = r.begin(b'[')?;
/// while more {
///     sum += r.number()?;
///     more = r.next(b']')?;
/// }
/// r.end()?;
/// assert_eq!(sum, 6.5);
/// # Ok::<(), String>(())
/// ```
///
/// Every error is a message carrying the byte offset of the defect.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the first non-whitespace byte of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        let mut r = Reader { text, pos: 0, depth: 0 };
        r.ws();
        r
    }

    /// Skips whitespace.
    pub fn ws(&mut self) {
        let bytes = self.text.as_bytes();
        while self.pos < bytes.len() && matches!(bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
    }

    /// The next byte, unconsumed. A value starts with `{`, `[`, `"`, `-`,
    /// a digit, or the first letter of `true` / `false` / `null`.
    #[must_use]
    pub fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes the byte `b`.
    ///
    /// # Errors
    /// When the next byte is anything else.
    pub fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    /// Enters an array (`open` = `b'['`) or object (`b'{'`). `true` when
    /// an element follows, `false` when it closed at once (the closer is
    /// consumed).
    ///
    /// # Errors
    /// When the next byte is not `open`, or the nesting passes
    /// [`MAX_DEPTH`].
    pub fn begin(&mut self, open: u8) -> Result<bool, String> {
        self.expect(open)?;
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos - 1));
        }
        self.depth += 1;
        self.ws();
        if self.peek() == Some(open + 2) {
            // ASCII: ']' is '[' + 2 and '}' is '{' + 2.
            self.pos += 1;
            self.depth -= 1;
            return Ok(false);
        }
        Ok(true)
    }

    /// After an element: consumes `,` (`true`, the reader is at the next
    /// element) or `close` (`false`, the container is done).
    ///
    /// # Errors
    /// When neither follows.
    pub fn next(&mut self, close: u8) -> Result<bool, String> {
        self.ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                self.ws();
                Ok(true)
            }
            Some(c) if c == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ => Err(format!("expected ',' or {:?} at byte {}", close as char, self.pos)),
        }
    }

    /// An object key and its `:`; the reader is left at the value.
    ///
    /// # Errors
    /// On a malformed key string or a missing `:`.
    pub fn key(&mut self) -> Result<String, String> {
        let key = self.string()?;
        self.ws();
        self.expect(b':')?;
        self.ws();
        Ok(key)
    }

    /// A number: the longest run of `0-9 - + . e E`, parsed as `f64`.
    ///
    /// # Errors
    /// When the run is not a number `f64::from_str` accepts.
    pub fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        // The run is ASCII, so both ends are character boundaries.
        self.text[start..self.pos].parse().map_err(|_| format!("bad number at byte {start}"))
    }

    /// A string, escapes decoded.
    ///
    /// # Errors
    /// On a missing quote, a bad escape, or the end of input.
    pub fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err("unterminated string".to_owned());
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".to_owned());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .text
                                .as_bytes()
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by our emitter;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape {:?}", other as char)),
                    }
                }
                _ => {
                    // Collect the full UTF-8 sequence starting at pos-1.
                    let start = self.pos - 1;
                    while self.peek().is_some_and(|b| b & 0xc0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.text.as_bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// Any value, as a tree. Recursion is bounded by [`MAX_DEPTH`].
    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => {
                let mut pairs = Vec::new();
                let mut more = self.begin(b'{')?;
                while more {
                    let key = self.key()?;
                    pairs.push((key, self.value()?));
                    more = self.next(b'}')?;
                }
                Ok(Json::Obj(pairs))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                let mut more = self.begin(b'[')?;
                while more {
                    items.push(self.value()?);
                    more = self.next(b']')?;
                }
                Ok(Json::Arr(items))
            }
            _ => self.scalar(),
        }
    }

    /// A string, a number, `true`, `false` or `null`.
    fn scalar(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number().map(Json::Num),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    /// Consumes one value of any type, checking its syntax and keeping
    /// nothing of it.
    ///
    /// # Errors
    /// On any syntax error inside the value, nesting past [`MAX_DEPTH`]
    /// included.
    pub fn skip_value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                let mut more = self.begin(open)?;
                while more {
                    if open == b'{' {
                        self.key()?;
                    }
                    self.skip_value()?;
                    more = self.next(open + 2)?;
                }
                Ok(())
            }
            _ => self.scalar().map(drop),
        }
    }

    /// The document is over: only whitespace may remain.
    ///
    /// # Errors
    /// On trailing data.
    pub fn end(&mut self) -> Result<(), String> {
        self.ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(format!("trailing data at byte {}", self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors() {
        let j = Json::obj().with("name", "serve").with("us", 125u64).with("ok", true);
        assert_eq!(j.get("name").and_then(Json::as_str), Some("serve"));
        assert_eq!(j.get("us").and_then(Json::as_f64), Some(125.0));
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn negative_zero_round_trips_bitwise() {
        let dumped = Json::Num(-0.0).dump();
        assert_eq!(dumped, "-0.0");
        let back = Json::parse(&dumped).unwrap().as_f64().unwrap();
        assert_eq!(back.to_bits(), (-0.0f64).to_bits());
        // Positive zero keeps the terse integer form.
        assert_eq!(Json::Num(0.0).dump(), "0");
    }

    #[test]
    fn compact_dump_round_trips() {
        let j = Json::obj()
            .with("ev", "span")
            .with("fields", Json::obj().with("loss", 0.5).with("step", 3u64))
            .with("tags", vec!["a", "b"])
            .with("none", Json::Null);
        let text = j.dump();
        assert_eq!(Json::parse(&text).unwrap(), j);
    }

    #[test]
    fn pretty_dump_round_trips_and_indents() {
        let j = Json::obj().with("title", "test").with("rows", vec![1u64, 2]);
        let text = j.pretty();
        assert!(text.contains("\"title\": \"test\""));
        assert!(text.contains("\n  "));
        assert_eq!(Json::parse(&text).unwrap(), j);
    }

    #[test]
    fn string_escaping_round_trips() {
        let nasty = "a\"b\\c\nd\te\r\u{1}π";
        let j = Json::Str(nasty.to_owned());
        assert_eq!(Json::parse(&j.dump()).unwrap(), j);
    }

    #[test]
    fn integers_have_no_decimal_point() {
        assert_eq!(Json::from(3u64).dump(), "3");
        assert_eq!(Json::from(-2i64).dump(), "-2");
        assert_eq!(Json::from(0.5f64).dump(), "0.5");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).dump(), "null");
        assert_eq!(Json::Num(f64::INFINITY).dump(), "null");
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("123 456").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn parses_nested_documents() {
        let j = Json::parse(r#"{"a": [1, {"b": null}, true], "c": -1.5e2}"#).unwrap();
        assert_eq!(j.get("c").and_then(Json::as_f64), Some(-150.0));
        let arr = j.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].get("b"), Some(&Json::Null));
    }

    /// Regression: the parser recursed once per `[` with no bound, so a
    /// 20 KB body overflowed a 2 MB thread stack — which aborts the whole
    /// process. Run on a spawned thread with the default stack, like the
    /// connection handlers that hit it.
    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        std::thread::spawn(|| {
            for deep in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
                let err = Json::parse(&deep).unwrap_err();
                assert!(err.contains("nesting deeper than"), "{err}");
                assert!(Reader::new(&deep).skip_value().is_err());
            }
        })
        .join()
        .expect("no overflow, no panic");
        // The cap itself parses, one level more does not.
        let nested = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        // Depth is nesting, not a count of containers seen.
        assert!(Json::parse(&format!("[{}]", vec!["[{}]"; 1000].join(","))).is_ok());
    }

    #[test]
    fn reader_pulls_a_document_without_building_it() {
        let doc = r#" { "xs" : [1, -2.5e0 , 3] , "skip": {"deep": [null, "]"]}, "n": 7 } "#;
        let mut r = Reader::new(doc);
        let (mut xs, mut n) = (Vec::new(), 0.0);
        let mut more = r.begin(b'{').unwrap();
        while more {
            match r.key().unwrap().as_str() {
                "xs" => {
                    let mut more = r.begin(b'[').unwrap();
                    while more {
                        xs.push(r.number().unwrap());
                        more = r.next(b']').unwrap();
                    }
                }
                "n" => n = r.number().unwrap(),
                _ => r.skip_value().unwrap(),
            }
            more = r.next(b'}').unwrap();
        }
        r.end().unwrap();
        assert_eq!((xs, n), (vec![1.0, -2.5, 3.0], 7.0));

        assert!(!Reader::new("[ ]").begin(b'[').unwrap());
        assert!(Reader::new("{}").begin(b'[').is_err());
        assert!(Reader::new("[1 2]").skip_value().is_err());
        assert!(Reader::new("{\"a\":1,}").skip_value().is_err());
        assert!(Reader::new("1 2").end().is_err());
    }
}
