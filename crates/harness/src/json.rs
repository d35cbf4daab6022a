//! A minimal JSON value type with a writer and a reader.
//!
//! The workspace builds fully offline, so `serde_json` is unavailable. This
//! module covers what campaign artifacts (and the bench tables) need:
//! deterministic serialization (object keys keep insertion order), pretty
//! printing, and strict parsing for replaying and ingesting artifacts.
//!
//! A document's shape is written once, as calls into a [`Sink`]. Two sinks
//! exist: [`TreeSink`] builds a [`Json`] value, [`TextSink`] writes text
//! (pretty or compact) straight into any `io::Write`. A [`Json`] tree is
//! itself rendered by emitting it into a `TextSink`, so escaping and
//! indentation exist in one place and a shape streamed to a file is
//! byte-identical to the same shape built as a tree and then rendered.
//!
//! Reading mirrors that: one scanner, two front ends. [`Reader`] is a pull
//! cursor over the text and owns the only whitespace, string/escape,
//! number, literal and nesting-depth routines. [`Json::parse`] is the
//! reader building the tree of a whole document; a decoder that keeps a
//! few fields of a large document (the failure artifact) walks the reader
//! itself and calls [`Reader::skip`] on the rest. The rule that makes the
//! second front end safe: `skip` validates everything `parse` validates —
//! it runs the same routines and only builds nothing — so a decoder that
//! skips accepts exactly the documents `Json::parse` accepts.
//!
//! Numbers are stored as `f64`; anything that must survive a round trip at
//! full 64-bit precision (seeds, fingerprints) is stored as a string by the
//! artifact writer.

use std::borrow::Cow;
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
            Json::Num(n) => f64_as_u64(*n),
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
/// trailing garbage is not. This is [`Reader::value`] over the whole text.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut reader = Reader::new(input);
    let value = reader.value()?;
    reader.finish()?;
    Ok(value)
}

/// How deep containers may nest. Artifacts nest 7 deep; the bound keeps a
/// hostile file from overflowing the stack of the recursive
/// [`Reader::value`] and [`Reader::skip`].
const MAX_DEPTH: usize = 128;

/// What [`Json::as_u64`] makes of a number: integral, non-negative and
/// exact in an `f64`.
fn f64_as_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53)).then_some(n as u64)
}

/// The eight bytes at `pos` as a little-endian word, if there are eight.
fn word(bytes: &[u8], pos: usize) -> Option<u64> {
    let eight = bytes.get(pos..pos + 8)?;
    Some(u64::from_le_bytes(eight.try_into().expect("eight bytes")))
}

/// The index of the first `"` or `\` at or after `pos`, or the length:
/// eight bytes per step, by the zero-byte test on the word xored with each.
fn quote_or_backslash(bytes: &[u8], mut pos: usize) -> usize {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    let zero_byte = |x: u64| x.wrapping_sub(ONES) & !x & HIGHS;
    while let Some(w) = word(bytes, pos) {
        let hits = zero_byte(w ^ (ONES * b'"' as u64)) | zero_byte(w ^ (ONES * b'\\' as u64));
        if hits != 0 {
            // The lowest flagged byte is a true match: a borrow only
            // carries upwards, so only bytes after a match can be flagged
            // falsely.
            return pos + hits.trailing_zeros() as usize / 8;
        }
        pos += 8;
    }
    pos + bytes[pos..]
        .iter()
        .position(|&c| c == b'"' || c == b'\\')
        .unwrap_or(bytes.len() - pos)
}

/// The kind of the value at a [`Reader`]'s cursor, from its first byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `null`
    Null,
    /// `true` / `false`
    Bool,
    /// A number.
    Num,
    /// A string.
    Str,
    /// An array.
    Arr,
    /// An object.
    Obj,
}

/// A pull cursor over JSON text: the one scanner behind [`Json::parse`].
///
/// A decoder walks the document itself: [`Reader::begin_obj`] then
/// [`Reader::next_key`] until it returns `None`, [`Reader::begin_arr`] then
/// [`Reader::next_item`] until `false`, and for each value one of
/// [`Reader::str`], [`Reader::num`], [`Reader::bool`], [`Reader::value`] (a
/// tree of just that value) or [`Reader::skip`], after [`Reader::peek`] when
/// the kind may vary.
/// Strings without escapes come back borrowed from the text. `skip` builds
/// nothing but runs the same whitespace, string, number, literal and depth
/// routines as `value`, so a document whose values a decoder partly skips
/// is refused exactly when [`Json::parse`] would refuse it.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Containers open around the cursor.
    depth: usize,
    /// The innermost container was just opened and has no entry yet.
    first: bool,
}

impl<'a> Reader<'a> {
    /// A cursor before the first value of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
            first: false,
        }
    }

    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.to_string(),
        }
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        let bytes = self.text.as_bytes();
        let mut pos = self.pos;
        while let Some(&c) = bytes.get(pos) {
            match c {
                // Pretty-printed indentation comes in runs of spaces.
                b' ' if word(bytes, pos) == Some(u64::from_le_bytes([b' '; 8])) => pos += 8,
                b' ' | b'\t' | b'\n' | b'\r' => pos += 1,
                _ => break,
            }
        }
        self.pos = pos;
    }

    /// Skips whitespace and returns the next value's first byte, refusing
    /// a value nested deeper than [`MAX_DEPTH`].
    fn start(&mut self) -> Result<u8, ParseError> {
        self.skip_ws();
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.byte()
            .ok_or_else(|| self.err("unexpected end of input"))
    }

    /// The kind of the next value.
    pub fn peek(&mut self) -> Result<Kind, ParseError> {
        Ok(match self.start()? {
            b'n' => Kind::Null,
            b't' | b'f' => Kind::Bool,
            b'"' => Kind::Str,
            b'[' => Kind::Arr,
            b'{' => Kind::Obj,
            b'-' | b'0'..=b'9' => Kind::Num,
            _ => return Err(self.err("unexpected character")),
        })
    }

    /// Enters the object at the cursor.
    pub fn begin_obj(&mut self) -> Result<(), ParseError> {
        if self.start()? != b'{' {
            return Err(self.err("expected '{'"));
        }
        self.enter();
        Ok(())
    }

    /// Enters the array at the cursor.
    pub fn begin_arr(&mut self) -> Result<(), ParseError> {
        if self.start()? != b'[' {
            return Err(self.err("expected '['"));
        }
        self.enter();
        Ok(())
    }

    /// Steps into the container whose bracket is at the cursor.
    fn enter(&mut self) {
        self.pos += 1;
        self.depth += 1;
        self.first = true;
    }

    /// The innermost object's next key, with the cursor left on its value;
    /// `None`, with the object left, after the last one.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        if !self.next_entry(b'}', "expected ',' or '}'")? {
            return Ok(None);
        }
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        if self.byte() != Some(b':') {
            return Err(self.err("expected ':'"));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// Whether the innermost array has another item, with the cursor left
    /// on it; `false`, with the array left, after the last one.
    pub fn next_item(&mut self) -> Result<bool, ParseError> {
        self.next_entry(b']', "expected ',' or ']'")
    }

    /// Steps over the separator in front of the innermost container's next
    /// entry, or over its closing bracket when there is none.
    fn next_entry(&mut self, close: u8, msg: &str) -> Result<bool, ParseError> {
        self.skip_ws();
        let first = std::mem::replace(&mut self.first, false);
        match self.byte() {
            Some(c) if c == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.err(msg)),
        }
    }

    /// The string at the cursor.
    pub fn str(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.start()?;
        self.string()
    }

    /// The string literal starting at the cursor: a slice of the text when
    /// it holds no escape, else decoded into a new `String`. The text is
    /// already UTF-8 and quotes and backslashes are ASCII, so every run
    /// between them is sliced, never re-validated.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        if self.byte() != Some(b'"') {
            return Err(self.err("expected string"));
        }
        self.pos += 1;
        let text = self.text;
        let bytes = text.as_bytes();
        let start = self.pos;
        let mut decoded: Option<String> = None;
        loop {
            let run = self.pos;
            self.pos = quote_or_backslash(bytes, run);
            let Some(c) = self.byte() else {
                return Err(self.err("unterminated string"));
            };
            let run = &text[run..self.pos];
            self.pos += 1;
            if c == b'"' {
                return Ok(match decoded {
                    None => Cow::Borrowed(&text[start..self.pos - 1]),
                    Some(mut out) => {
                        out.push_str(run);
                        Cow::Owned(out)
                    }
                });
            }
            let out = decoded.get_or_insert_with(String::new);
            out.push_str(run);
            let Some(esc) = self.byte() else {
                return Err(self.err("unterminated escape"));
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
                    if self.pos + 4 > bytes.len() {
                        return Err(self.err("short \\u escape"));
                    }
                    // `None` when the four bytes end inside a character.
                    let hex = text
                        .get(self.pos..self.pos + 4)
                        .ok_or_else(|| self.err("bad \\u escape"))?;
                    let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u hex"))?;
                    self.pos += 4;
                    // Surrogate pairs are not produced by our writer; map
                    // lone surrogates to the replacement character.
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                }
                _ => return Err(self.err("unknown escape")),
            }
        }
    }

    /// The number at the cursor.
    pub fn num(&mut self) -> Result<f64, ParseError> {
        if !matches!(self.start()?, b'-' | b'0'..=b'9') {
            return Err(self.err("expected number"));
        }
        self.number()
    }

    /// The number starting at the cursor.
    fn number(&mut self) -> Result<f64, ParseError> {
        let start = self.pos;
        while matches!(
            self.byte(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        self.text[start..self.pos].parse().map_err(|_| ParseError {
            at: start,
            msg: "bad number".into(),
        })
    }

    /// The boolean at the cursor.
    pub fn bool(&mut self) -> Result<bool, ParseError> {
        if !matches!(self.start()?, b't' | b'f') {
            return Err(self.err("expected a boolean"));
        }
        self.boolean()
    }

    /// The `true` or `false` starting at the cursor.
    fn boolean(&mut self) -> Result<bool, ParseError> {
        if self.byte() == Some(b't') {
            self.literal("true").map(|()| true)
        } else {
            self.literal("false").map(|()| false)
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), ParseError> {
        if !self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            return Err(self.err("unexpected token"));
        }
        self.pos += lit.len();
        Ok(())
    }

    /// The value at the cursor, built as a tree.
    pub fn value(&mut self) -> Result<Json, ParseError> {
        Ok(match self.peek()? {
            Kind::Obj => {
                self.enter();
                let mut fields = Vec::new();
                while let Some(key) = self.next_key()? {
                    let value = self.value()?;
                    fields.push((key.into_owned(), value));
                }
                Json::Obj(fields)
            }
            Kind::Arr => {
                self.enter();
                let mut items = Vec::new();
                while self.next_item()? {
                    items.push(self.value()?);
                }
                Json::Arr(items)
            }
            Kind::Str => Json::Str(self.string()?.into_owned()),
            Kind::Num => Json::Num(self.number()?),
            Kind::Bool => Json::Bool(self.boolean()?),
            Kind::Null => {
                self.literal("null")?;
                Json::Null
            }
        })
    }

    /// Steps over the value at the cursor, checking it exactly as
    /// [`Reader::value`] does and building nothing.
    pub fn skip(&mut self) -> Result<(), ParseError> {
        match self.peek()? {
            Kind::Obj => {
                self.enter();
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
            }
            Kind::Arr => {
                self.enter();
                while self.next_item()? {
                    self.skip()?;
                }
            }
            Kind::Str => {
                self.string()?;
            }
            Kind::Num => {
                self.number()?;
            }
            Kind::Bool => {
                self.boolean()?;
            }
            Kind::Null => self.literal("null")?,
        }
        Ok(())
    }

    /// The string at the cursor, or `None` (the value skipped) for any
    /// other kind: [`Json::as_str`] without the tree.
    pub fn opt_str(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        if self.peek()? == Kind::Str {
            return self.string().map(Some);
        }
        self.skip().map(|()| None)
    }

    /// The value at the cursor as [`Json::as_u64`] reads it (an integral
    /// number or a decimal string), or `None` (the value skipped).
    pub fn opt_u64(&mut self) -> Result<Option<u64>, ParseError> {
        Ok(match self.peek()? {
            Kind::Num => f64_as_u64(self.number()?),
            Kind::Str => self.string()?.parse().ok(),
            _ => {
                self.skip()?;
                None
            }
        })
    }

    /// Reads the value at the cursor into `slot` with `read` when `slot` is
    /// still empty, and skips it otherwise: of a key given twice, the first
    /// occurrence wins, as with [`Json::get`].
    pub fn first<T>(
        &mut self,
        slot: &mut Option<T>,
        read: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<(), ParseError> {
        match slot {
            Some(_) => self.skip(),
            None => {
                *slot = Some(read(self)?);
                Ok(())
            }
        }
    }

    /// Checks that nothing but whitespace follows the document.
    pub fn finish(mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing characters"));
        }
        Ok(())
    }
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

    /// Whether `skip` takes `text` as one whole document.
    fn skips(text: &str) -> bool {
        let mut r = Reader::new(text);
        r.skip().is_ok() && r.finish().is_ok()
    }

    #[test]
    fn skip_accepts_exactly_what_parse_accepts() {
        let doc = concat!(
            r#"{"schema":"x/v1", "n":[-1.5e3,0,2E-2,true,false,null],"#,
            r#" "s":"a\"b\\c\/\n\u00e9\u0041 é✓ tail","deep":[[{"k":{}}],[]],"#,
            "\n  \"ws\" :\t\r\n [ 1 , \"two\" ] }"
        );
        assert!(parse(doc).is_ok() && skips(doc));
        let mut texts: Vec<String> = Vec::new();
        for cut in 0..doc.len() {
            texts.push(String::from_utf8_lossy(&doc.as_bytes()[..cut]).into_owned());
            texts.push(String::from_utf8_lossy(&doc.as_bytes()[cut..]).into_owned());
            for bit in 0..8 {
                let mut flipped = doc.as_bytes().to_vec();
                flipped[cut] ^= 1 << bit;
                if let Ok(text) = String::from_utf8(flipped) {
                    texts.push(text);
                }
            }
        }
        texts.extend(
            [
                "",
                " ",
                "1 2",
                "01",
                "-",
                "1e",
                "[1,]",
                "{,}",
                "{\"a\"}",
                "\"\\x\"",
                "\"\\u12\"",
            ]
            .map(String::from),
        );
        let mut refused = 0;
        for text in &texts {
            let parsed = parse(text);
            assert_eq!(parsed.is_ok(), skips(text), "{text:?}");
            refused += parsed.is_err() as usize;
        }
        assert!(
            refused > texts.len() / 2,
            "the damage mostly breaks the text"
        );
    }

    #[test]
    fn strings_without_escapes_are_borrowed() {
        let mut r = Reader::new(r#"["plain é✓", "esc\naped", {"k\u0041": 1}]"#);
        r.begin_arr().unwrap();
        assert!(r.next_item().unwrap());
        assert!(matches!(r.str().unwrap(), Cow::Borrowed("plain é✓")));
        assert!(r.next_item().unwrap());
        assert!(matches!(r.str().unwrap(), Cow::Owned(s) if s == "esc\naped"));
        assert!(r.next_item().unwrap());
        r.begin_obj().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("kA"));
        assert_eq!(r.opt_u64().unwrap(), Some(1));
        assert_eq!(r.next_key().unwrap(), None);
        assert!(!r.next_item().unwrap());
        r.finish().unwrap();
    }

    #[test]
    fn the_reader_sees_the_first_of_a_repeated_key_as_get_does() {
        let text = r#"{"k": "first", "n": 7, "k": "second", "n": "8"}"#;
        let (mut k, mut n) = (None, None);
        let mut r = Reader::new(text);
        r.begin_obj().unwrap();
        while let Some(key) = r.next_key().unwrap() {
            match &*key {
                "k" => r.first(&mut k, Reader::opt_str).unwrap(),
                "n" => r.first(&mut n, Reader::opt_u64).unwrap(),
                _ => r.skip().unwrap(),
            }
        }
        r.finish().unwrap();
        let tree = parse(text).unwrap();
        assert_eq!(k.flatten().as_deref(), tree.get("k").and_then(Json::as_str));
        assert_eq!(n.flatten(), tree.get("n").and_then(Json::as_u64));
    }
}
