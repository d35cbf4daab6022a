//! A minimal JSON value type with a writer and a parser.
//!
//! The workspace builds fully offline, so `serde_json` is unavailable. This
//! module covers what campaign artifacts (and the bench tables) need:
//! deterministic serialization (object keys keep insertion order), pretty
//! printing, and a strict recursive-descent parser for replaying artifacts.
//!
//! A document's shape is written once, as calls into a [`Sink`]. Two sinks
//! exist: [`TreeSink`] builds a [`Json`] value, [`TextSink`] writes text
//! (pretty or compact) straight into any `io::Write`. A [`Json`] tree is
//! itself rendered by emitting it into a `TextSink`, so escaping and
//! indentation exist in one place and a shape streamed to a file is
//! byte-identical to the same shape built as a tree and then rendered.
//!
//! Numbers are stored as `f64`; anything that must survive a round trip at
//! full 64-bit precision (seeds, fingerprints) is stored as a string by the
//! artifact writer.

use std::fmt;
use std::io;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved for deterministic output.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Parses a complete JSON document (see the module-level [`parse`]).
    pub fn parse(input: &str) -> Result<Json, ParseError> {
        parse(input)
    }

    /// Adds (or replaces) a field on an object; panics on non-objects.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<Json>) -> &mut Json {
        let Json::Obj(fields) = self else {
            panic!("Json::set on a non-object");
        };
        let key = key.into();
        let value = value.into();
        if let Some(slot) = fields.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            fields.push((key, value));
        }
        self
    }

    /// Builder-style [`Json::set`].
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Json>) -> Json {
        self.set(key, value);
        self
    }

    /// Field lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The payload as `u64`: accepts integral numbers and decimal strings
    /// (the artifact encoding for full-precision 64-bit values).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            Json::Str(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        self.render(false)
    }

    /// Pretty rendering with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        self.render(true)
    }

    fn render(&self, pretty: bool) -> String {
        let mut sink = TextSink::new(Vec::new(), pretty);
        self.emit(&mut sink);
        let bytes = sink.finish().expect("writing to a Vec cannot fail");
        String::from_utf8(bytes).expect("the text sink writes UTF-8")
    }

    /// Emits this value into `sink`.
    pub fn emit(&self, sink: &mut dyn Sink) {
        match self {
            Json::Null => sink.null(),
            Json::Bool(b) => sink.bool(*b),
            Json::Num(n) => sink.num(*n),
            Json::Str(s) => sink.str(s),
            Json::Arr(items) => {
                sink.begin_arr();
                for item in items {
                    item.emit(sink);
                }
                sink.end_arr();
            }
            Json::Obj(fields) => {
                sink.begin_obj();
                for (k, v) in fields {
                    sink.key(k);
                    v.emit(sink);
                }
                sink.end_obj();
            }
        }
    }

    /// The tree `emit` describes.
    pub fn build(emit: impl FnOnce(&mut dyn Sink)) -> Json {
        let mut sink = TreeSink::default();
        emit(&mut sink);
        sink.finish()
    }
}

/// Where a document's shape goes: one call per token, in document order.
/// Inside an object every value is preceded by its [`Sink::key`].
pub trait Sink {
    /// Opens an object.
    fn begin_obj(&mut self);
    /// Closes the innermost open object.
    fn end_obj(&mut self);
    /// Opens an array.
    fn begin_arr(&mut self);
    /// Closes the innermost open array.
    fn end_arr(&mut self);
    /// The key of the next value (objects only).
    fn key(&mut self, key: &str);
    /// A string value.
    fn str(&mut self, s: &str);
    /// A string value rendered from `v` (ids, and `u64`s riding decimal
    /// strings).
    fn display(&mut self, v: &dyn fmt::Display);
    /// A number.
    fn num(&mut self, n: f64);
    /// A boolean.
    fn bool(&mut self, b: bool);
    /// `null`.
    fn null(&mut self);
}

/// A [`Sink`] that builds the [`Json`] tree.
#[derive(Default)]
pub struct TreeSink {
    /// Open containers, innermost last, each with the key it goes under.
    open: Vec<(Option<String>, Json)>,
    key: Option<String>,
    root: Option<Json>,
}

impl TreeSink {
    /// The finished value; panics when nothing (or half a document) was
    /// emitted.
    pub fn finish(self) -> Json {
        assert!(self.open.is_empty(), "unclosed container");
        self.root.expect("no value emitted")
    }

    fn value(&mut self, v: Json) {
        match self.open.last_mut() {
            Some((_, Json::Obj(fields))) => {
                let key = self.key.take().expect("object value without a key");
                fields.push((key, v));
            }
            Some((_, Json::Arr(items))) => items.push(v),
            Some(_) => unreachable!("only containers are opened"),
            None => self.root = Some(v),
        }
    }

    fn close(&mut self) {
        let (key, v) = self.open.pop().expect("close without open");
        self.key = key;
        self.value(v);
    }
}

impl Sink for TreeSink {
    fn begin_obj(&mut self) {
        self.open.push((self.key.take(), Json::obj()));
    }
    fn end_obj(&mut self) {
        self.close();
    }
    fn begin_arr(&mut self) {
        self.open.push((self.key.take(), Json::Arr(Vec::new())));
    }
    fn end_arr(&mut self) {
        self.close();
    }
    fn key(&mut self, key: &str) {
        self.key = Some(key.to_string());
    }
    fn str(&mut self, s: &str) {
        self.value(Json::Str(s.to_string()));
    }
    fn display(&mut self, v: &dyn fmt::Display) {
        self.value(Json::Str(v.to_string()));
    }
    fn num(&mut self, n: f64) {
        self.value(Json::Num(n));
    }
    fn bool(&mut self, b: bool) {
        self.value(Json::Bool(b));
    }
    fn null(&mut self) {
        self.value(Json::Null);
    }
}

/// A [`Sink`] that writes JSON text into `W`: compact on one line, or
/// pretty with two-space indentation. The first write error is kept and
/// returned by [`TextSink::finish`]; nothing is written after it.
pub struct TextSink<W: io::Write> {
    out: W,
    pretty: bool,
    /// One flag per open container: whether it holds an item yet.
    open: Vec<bool>,
    /// A key was just written; the next value continues its line.
    after_key: bool,
    error: Option<io::Error>,
    /// Reused by [`Sink::display`].
    scratch: String,
}

impl<W: io::Write> TextSink<W> {
    /// A sink writing into `out`.
    pub fn new(out: W, pretty: bool) -> Self {
        TextSink {
            out,
            pretty,
            open: Vec::new(),
            after_key: false,
            error: None,
            scratch: String::new(),
        }
    }

    /// The writer back (not flushed), or the first write error.
    pub fn finish(self) -> io::Result<W> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.out),
        }
    }

    fn put(&mut self, bytes: &[u8]) {
        if self.error.is_none() {
            self.error = self.out.write_all(bytes).err();
        }
    }

    /// Line break plus indentation for `depth` open containers.
    fn break_line(&mut self, depth: usize) {
        const SPACES: [u8; 64] = [b' '; 64];
        if self.pretty {
            self.put(b"\n");
            let mut left = 2 * depth;
            while left > 0 {
                let n = left.min(SPACES.len());
                self.put(&SPACES[..n]);
                left -= n;
            }
        }
    }

    /// Separator and indentation in front of an array item or an object key.
    fn item(&mut self) {
        if let Some(has_items) = self.open.last_mut() {
            if std::mem::replace(has_items, true) {
                self.put(b",");
            }
            self.break_line(self.open.len());
        }
    }

    fn before_value(&mut self) {
        if !std::mem::replace(&mut self.after_key, false) {
            self.item();
        }
    }

    fn close(&mut self, bracket: &[u8]) {
        if self.open.pop().expect("close without open") {
            self.break_line(self.open.len());
        }
        self.put(bracket);
    }

    /// Writes `s` quoted, copying runs of plain bytes between escapes.
    fn quoted(&mut self, s: &str) {
        self.put(b"\"");
        let bytes = s.as_bytes();
        let mut run = 0;
        for (i, &c) in bytes.iter().enumerate() {
            if c >= 0x20 && c != b'"' && c != b'\\' {
                continue;
            }
            self.put(&bytes[run..i]);
            run = i + 1;
            match c {
                b'"' => self.put(b"\\\""),
                b'\\' => self.put(b"\\\\"),
                b'\n' => self.put(b"\\n"),
                b'\r' => self.put(b"\\r"),
                b'\t' => self.put(b"\\t"),
                _ => {
                    const HEX: &[u8; 16] = b"0123456789abcdef";
                    let (hi, lo) = (HEX[(c >> 4) as usize], HEX[(c & 15) as usize]);
                    self.put(&[b'\\', b'u', b'0', b'0', hi, lo]);
                }
            }
        }
        self.put(&bytes[run..]);
        self.put(b"\"");
    }

    fn formatted(&mut self, args: fmt::Arguments<'_>) {
        if self.error.is_none() {
            self.error = self.out.write_fmt(args).err();
        }
    }
}

impl<W: io::Write> Sink for TextSink<W> {
    fn begin_obj(&mut self) {
        self.before_value();
        self.put(b"{");
        self.open.push(false);
    }
    fn end_obj(&mut self) {
        self.close(b"}");
    }
    fn begin_arr(&mut self) {
        self.before_value();
        self.put(b"[");
        self.open.push(false);
    }
    fn end_arr(&mut self) {
        self.close(b"]");
    }
    fn key(&mut self, key: &str) {
        self.item();
        self.quoted(key);
        self.put(if self.pretty { b": " as &[u8] } else { b":" });
        self.after_key = true;
    }
    fn str(&mut self, s: &str) {
        self.before_value();
        self.quoted(s);
    }
    fn display(&mut self, v: &dyn fmt::Display) {
        use fmt::Write;
        let mut text = std::mem::take(&mut self.scratch);
        text.clear();
        write!(text, "{v}").expect("writing to a String cannot fail");
        self.str(&text);
        self.scratch = text;
    }
    fn num(&mut self, n: f64) {
        self.before_value();
        if !n.is_finite() {
            // JSON has no Infinity/NaN; encode as null.
            self.put(b"null");
        } else if n.fract() == 0.0 && n.abs() < 1e15 {
            self.formatted(format_args!("{}", n as i64));
        } else {
            self.formatted(format_args!("{n}"));
        }
    }
    fn bool(&mut self, b: bool) {
        self.before_value();
        self.put(if b { b"true" } else { b"false" });
    }
    fn null(&mut self) {
        self.before_value();
        self.put(b"null");
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}
impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Num(n as f64)
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        // Beyond 2^53 the f64 round trip is lossy; callers needing full
        // precision (seeds, fingerprints) should store strings instead.
        Json::Num(n as f64)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}
impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}
impl From<Vec<String>> for Json {
    fn from(items: Vec<String>) -> Json {
        Json::Arr(items.into_iter().map(Json::Str).collect())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

/// A parse failure with byte offset context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where parsing failed.
    pub at: usize,
    /// Human-readable cause.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document; trailing whitespace is allowed,
/// trailing garbage is not.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters"));
    }
    Ok(value)
}

fn err(at: usize, msg: &str) -> ParseError {
    ParseError {
        at,
        msg: msg.to_string(),
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), ParseError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(err(*pos, "unexpected token"))
    }
}

/// How deep containers may nest. Artifacts nest 7 deep; the bound keeps a
/// hostile file from overflowing the stack of this recursive parser.
const MAX_DEPTH: usize = 128;

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    skip_ws(b, pos);
    if depth > MAX_DEPTH {
        return Err(err(*pos, "nesting too deep"));
    }
    let Some(&c) = b.get(*pos) else {
        return Err(err(*pos, "unexpected end of input"));
    };
    match c {
        b'n' => expect(b, pos, "null").map(|()| Json::Null),
        b't' => expect(b, pos, "true").map(|()| Json::Bool(true)),
        b'f' => expect(b, pos, "false").map(|()| Json::Bool(false)),
        b'"' => parse_string(b, pos).map(Json::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(&b',') => *pos += 1,
                    Some(&b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(err(*pos, "expected ',' or ']'")),
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(err(*pos, "expected ':'"));
                }
                *pos += 1;
                let value = parse_value(b, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(&b',') => *pos += 1,
                    Some(&b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(err(*pos, "expected ',' or '}'")),
                }
            }
        }
        b'-' | b'0'..=b'9' => parse_number(b, pos),
        _ => Err(err(*pos, "unexpected character")),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    if b.get(*pos) != Some(&b'"') {
        return Err(err(*pos, "expected string"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or escape in one piece. Both
        // are ASCII, so a run never ends inside a multi-byte character.
        let run = *pos;
        while *pos < b.len() && b[*pos] != b'"' && b[*pos] != b'\\' {
            *pos += 1;
        }
        out.push_str(std::str::from_utf8(&b[run..*pos]).map_err(|e| ParseError {
            at: run + e.valid_up_to(),
            msg: "invalid utf-8".into(),
        })?);
        let Some(&c) = b.get(*pos) else {
            return Err(err(*pos, "unterminated string"));
        };
        *pos += 1;
        if c == b'"' {
            return Ok(out);
        }
        let Some(&esc) = b.get(*pos) else {
            return Err(err(*pos, "unterminated escape"));
        };
        *pos += 1;
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
                if *pos + 4 > b.len() {
                    return Err(err(*pos, "short \\u escape"));
                }
                let hex = std::str::from_utf8(&b[*pos..*pos + 4])
                    .map_err(|_| err(*pos, "bad \\u escape"))?;
                let code = u32::from_str_radix(hex, 16).map_err(|_| err(*pos, "bad \\u hex"))?;
                *pos += 4;
                // Surrogate pairs are not produced by our writer; map lone
                // surrogates to the replacement character.
                out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
            }
            _ => return Err(err(*pos, "unknown escape")),
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| err(start, "bad number"))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err(start, "bad number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_structure() {
        let doc = Json::obj()
            .with("name", "campaign")
            .with("seed", "18446744073709551615")
            .with("count", 42u64)
            .with("ratio", 0.5)
            .with("ok", true)
            .with("none", Json::Null)
            .with(
                "items",
                Json::Arr(vec![Json::Num(1.0), Json::Str("two\nlines".into())]),
            );
        for text in [doc.to_string_compact(), doc.to_string_pretty()] {
            let back = parse(&text).expect("parse");
            assert_eq!(back, doc, "failed on {text}");
        }
    }

    #[test]
    fn full_precision_u64_via_strings() {
        let doc = Json::obj().with("fp", u64::MAX.to_string());
        let back = parse(&doc.to_string_compact()).expect("parse");
        assert_eq!(back.get("fp").and_then(Json::as_u64), Some(u64::MAX));
    }

    #[test]
    fn escapes_are_parsed() {
        let v = parse(r#"{"s": "a\"b\\c\ndA"}"#).expect("parse");
        assert_eq!(v.get("s").and_then(Json::as_str), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
    }

    #[test]
    fn rendering_is_pinned_byte_for_byte() {
        let doc = Json::obj()
            .with("s", "q\"b\\n\nt\tc\u{1}é✓")
            .with(
                "n",
                Json::Arr(vec![1.5.into(), 3u64.into(), f64::NAN.into()]),
            )
            .with("empty", Json::Arr(vec![Json::obj(), Json::Arr(vec![])]))
            .with("deep", Json::obj().with("k", Json::Null).with("b", false));
        assert_eq!(
            doc.to_string_compact(),
            r#"{"s":"q\"b\\n\nt\tc\u0001é✓","n":[1.5,3,null],"empty":[{},[]],"deep":{"k":null,"b":false}}"#
        );
        let pretty = r#"{
  "s": "q\"b\\n\nt\tc\u0001é✓",
  "n": [
    1.5,
    3,
    null
  ],
  "empty": [
    {},
    []
  ],
  "deep": {
    "k": null,
    "b": false
  }
}"#;
        assert_eq!(doc.to_string_pretty(), pretty);
        // NaN went out as null; everything else reads back.
        let back = parse(pretty).expect("parse");
        assert_eq!(back.get("s"), doc.get("s"));
        assert_eq!(back.get("deep"), doc.get("deep"));
        // A tree built through the sink is the tree.
        assert_eq!(Json::build(|sink| back.emit(sink)), back);
    }

    #[test]
    fn text_sink_keeps_the_first_write_error() {
        struct Full;
        impl io::Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = TextSink::new(Full, true);
        Json::obj().with("k", 1u64).emit(&mut sink);
        let err = sink.finish().err().expect("the error is kept");
        assert_eq!(err.to_string(), "disk full");
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let e = parse(&nested(MAX_DEPTH + 2)).expect_err("too deep");
        assert_eq!(e.msg, "nesting too deep");
        // What used to overflow the stack: 200 000 unclosed brackets.
        let hostile = format!("{{\"schema\":\"x\",\"x\":{}", "[".repeat(200_000));
        assert_eq!(
            parse(&hostile).expect_err("hostile").msg,
            "nesting too deep"
        );
        let hostile = "{\"a\":".repeat(200_000);
        assert_eq!(
            parse(&hostile).expect_err("hostile").msg,
            "nesting too deep"
        );
    }

    #[test]
    fn strings_stop_at_the_right_quote() {
        let v = parse(r#"["plain","é✓ \"quoted\" é","","tail\\"]"#).expect("parse");
        let items: Vec<&str> = v
            .as_array()
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(items, vec!["plain", "é✓ \"quoted\" é", "", "tail\\"]);
        assert_eq!(parse("\"open").unwrap_err().msg, "unterminated string");
        assert_eq!(parse("\"open\\").unwrap_err().msg, "unterminated escape");
    }

    #[test]
    fn set_replaces_existing_key() {
        let mut o = Json::obj().with("k", 1u64);
        o.set("k", 2u64);
        assert_eq!(o.get("k").and_then(Json::as_u64), Some(2));
    }
}
