//! JSON for the campaign layer (built without crates.io, so without serde):
//! one writer, one reader, and a value tree for ad-hoc documents.
//!
//! The writer, `Writer`, streams every artifact, telemetry document and
//! cache entry straight into a `String`, deterministically: fields keep the
//! order they are written in, `u64`s are exact and floats use Rust's
//! shortest round-trip `Display`, so a result always serialises to the same
//! bytes. A type it writes implements `Encode`; a record type that is also
//! read back lists its fields once, in a `record!` table that generates
//! both directions. The reader, `Reader`, is the one tokenizer: a pull
//! parser for RFC 8259 that lends out strings from the input and reads a
//! value straight into its type, as the result cache does. The tree
//! ([`Json::parse`], [`Json::get`], [`Json::to_pretty`]) is a thin layer
//! over both, for ad-hoc documents and tests; no production path builds one.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64` (seeds, hashes, counts).
    UInt(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered (no sorting, no deduplication).
    Obj(Vec<(String, Json)>),
}

/// Initial output capacity: a cache entry fits, larger documents grow.
const RESERVE: usize = 8 << 10;

/// Indentation is pushed from this slice.
const SPACES: &str = "                                                                ";

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Self::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Self::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value as `f64` ([`Json::UInt`] converts).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::UInt(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// This value as `u64` (exact only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// This value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Self::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn to_compact(&self) -> String {
        let mut w = Writer::compact(RESERVE);
        self.write(&mut w);
        w.finish()
    }

    /// Pretty rendering with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut w = Writer::pretty(RESERVE);
        self.write(&mut w);
        w.finish()
    }

    /// Parse a JSON document. Returns the value and rejects trailing junk.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut r = Reader::new(text);
        let value = Json::read(&mut r)?;
        r.finish()?;
        Ok(value)
    }

    fn read(r: &mut Reader<'_>) -> Parsed<Json> {
        Ok(match r.peek()? {
            b'[' => Self::Arr(r.array(Self::read)?),
            b'{' => {
                let mut pairs = Vec::new();
                r.object(|r, key| Self::read(r).map(|v| pairs.push((key.to_string(), v))))?;
                Self::Obj(pairs)
            }
            b'"' => Self::Str(r.str()?.into_owned()),
            b't' | b'f' => Self::Bool(r.bool()?),
            b'n' => r.null().map(|()| Self::Null)?,
            _ => {
                let (text, plain) = r.number()?;
                match plain.then(|| text.parse().ok()).flatten() {
                    Some(v) => Self::UInt(v),
                    None => Self::Num(text.parse().map_err(|_| r.error("bad number"))?),
                }
            }
        })
    }
}

impl Encode for Json {
    fn write(&self, w: &mut Writer) {
        match self {
            Self::Null => w.null(),
            Self::Bool(b) => w.bool(*b),
            Self::UInt(v) => w.u64(*v),
            Self::Num(v) => w.f64(*v),
            Self::Str(s) => w.str(s),
            Self::Arr(items) => {
                items.write(w);
                w
            }
            Self::Obj(pairs) => {
                w.open('{');
                for (key, value) in pairs {
                    w.field(key, value);
                }
                w.close('}')
            }
        };
    }
}

/// A streaming JSON writer: containers are opened and closed, object
/// members are a [`Writer::key`] followed by one value, and commas,
/// newlines and indentation follow from that order. Pretty output indents
/// by two spaces and ends with a newline; empty containers render as `[]` /
/// `{}`; non-finite floats (which JSON lacks) render as `null`.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    out: String,
    pretty: bool,
    depth: usize,
    /// The innermost open container already holds an item.
    filled: bool,
    /// A key was just written: the next value follows it on its line.
    keyed: bool,
}

impl Writer {
    /// A writer of indented output, its buffer reserved to `capacity`.
    pub fn pretty(capacity: usize) -> Writer {
        Writer { pretty: true, ..Writer::compact(capacity) }
    }

    /// A writer of single-line output, its buffer reserved to `capacity`.
    pub fn compact(capacity: usize) -> Writer {
        Writer { out: String::with_capacity(capacity), ..Writer::default() }
    }

    /// The rendered text.
    pub fn finish(mut self) -> String {
        debug_assert_eq!(self.depth, 0, "unclosed container");
        if self.pretty {
            self.out.push('\n');
        }
        self.out
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            let n = 2 * self.depth;
            (0..n / SPACES.len()).for_each(|_| self.out.push_str(SPACES));
            self.out.push_str(&SPACES[..n % SPACES.len()]);
        }
    }

    /// Start the next value: after a key it follows directly, inside a
    /// container it goes on its own line after a comma.
    fn item(&mut self) -> &mut Self {
        if std::mem::take(&mut self.keyed) {
            return self;
        }
        if self.depth > 0 {
            if self.filled {
                self.out.push(',');
            }
            self.newline();
        }
        self.filled = true;
        self
    }

    /// Open an object (`'{'`) or array (`'['`).
    pub fn open(&mut self, bracket: char) -> &mut Self {
        self.item().out.push(bracket);
        self.depth += 1;
        self.filled = false;
        self
    }

    /// Close the innermost container with `'}'` or `']'`.
    pub fn close(&mut self, bracket: char) -> &mut Self {
        self.depth -= 1;
        if self.filled {
            self.newline();
        }
        self.out.push(bracket);
        self.filled = true;
        self
    }

    /// An object member's key; its value is the next thing written.
    pub fn key(&mut self, name: &str) -> &mut Self {
        let colon = if self.pretty { ": " } else { ":" };
        self.str(name).out.push_str(colon);
        self.keyed = true;
        self
    }

    /// One object member on one line: `name` and its value.
    pub fn field(&mut self, name: &str, value: impl Encode) -> &mut Self {
        value.write(self.key(name));
        self
    }

    /// A leaf written as its `Display` text.
    fn raw(&mut self, text: impl std::fmt::Display) -> &mut Self {
        write!(self.item().out, "{text}").expect("writing to a String cannot fail");
        self
    }

    /// `null`.
    fn null(&mut self) -> &mut Self {
        self.raw("null")
    }

    /// `true` / `false`.
    pub fn bool(&mut self, value: bool) -> &mut Self {
        self.raw(value)
    }

    /// An unsigned integer, exactly.
    pub fn u64(&mut self, value: u64) -> &mut Self {
        self.raw(value)
    }

    /// A float in Rust's shortest round-trip form; `null` unless finite.
    fn f64(&mut self, value: f64) -> &mut Self {
        if value.is_finite() {
            self.raw(value)
        } else {
            self.null()
        }
    }

    /// A string, escaped.
    pub fn str(&mut self, value: &str) -> &mut Self {
        let out = &mut self.item().out;
        out.push('"');
        escape_into(out, value);
        out.push('"');
        self
    }

    /// A string formatted by `value`'s `Display` and escaped as it is
    /// formatted, without an intermediate `String`.
    pub fn display(&mut self, value: impl std::fmt::Display) -> &mut Self {
        let out = &mut self.item().out;
        out.push('"');
        write!(Escaped(out), "{value}").expect("writing to a String cannot fail");
        out.push('"');
        self
    }
}

/// Append `s` with JSON's string escapes.
fn escape_into(out: &mut String, s: &str) {
    // Every byte that needs an escape is ASCII, so `run..i` always lies on
    // character boundaries.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate().filter(|&(_, b)| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => write!(out, "\\u{b:04x}").expect("writing to a String cannot fail"),
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// A `fmt::Write` sink that escapes what is written into it.
struct Escaped<'a>(&'a mut String);

impl std::fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        escape_into(self.0, s);
        Ok(())
    }
}

/// A value the [`Writer`] can emit at its current position.
pub(crate) trait Encode {
    /// Write this value.
    fn write(&self, w: &mut Writer);
}

impl<T: Encode + ?Sized> Encode for &T {
    fn write(&self, w: &mut Writer) {
        (**self).write(w)
    }
}

/// Numbers and booleans, written and read by the leaf of their name.
macro_rules! leaves {
    ($($ty:ident),+) => {$(
        impl Encode for $ty {
            fn write(&self, w: &mut Writer) {
                w.$ty(*self);
            }
        }

        impl Decode for $ty {
            fn decode(r: &mut Reader<'_>) -> Parsed<Self> {
                r.$ty()
            }
        }
    )+};
}
leaves!(u64, f64, bool);

/// Counts and indices widen to `u64`.
macro_rules! widened {
    ($($ty:ty),+) => {$(
        impl Encode for $ty {
            fn write(&self, w: &mut Writer) {
                w.u64(*self as u64);
            }
        }
    )+};
}
widened!(u32, usize);

impl Encode for str {
    fn write(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl Encode for String {
    fn write(&self, w: &mut Writer) {
        w.str(self);
    }
}

/// `None` is `null`.
impl<T: Encode> Encode for Option<T> {
    fn write(&self, w: &mut Writer) {
        match self {
            Some(value) => value.write(w),
            None => {
                w.null();
            }
        }
    }
}

impl<T: Encode> Encode for [T] {
    fn write(&self, w: &mut Writer) {
        w.open('[');
        self.iter().for_each(|item| item.write(w));
        w.close(']');
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn write(&self, w: &mut Writer) {
        self.as_slice().write(w)
    }
}

/// A parse failure with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// What a [`Reader`] step returns.
pub(crate) type Parsed<T = ()> = Result<T, ParseError>;

/// A pull reader over JSON text: each method skips whitespace, then reads one
/// value or fails. Numbers classify as in [`Json`]: [`Reader::u64`] takes
/// only a plain unsigned integer that fits, [`Reader::f64`] any number.
pub(crate) struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(text: &'a str) -> Self {
        Reader { text, pos: 0 }
    }

    /// A failure at the current position.
    pub fn error(&self, message: &'static str) -> ParseError {
        ParseError { offset: self.pos, message }
    }

    /// Skip whitespace; the next byte, if any.
    fn skip_blank(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(self.pos) {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    /// The first byte of the next value.
    pub fn peek(&mut self) -> Parsed<u8> {
        self.skip_blank().ok_or_else(|| self.error("unexpected end of input"))
    }

    /// Consume `token`, which must come next.
    fn eat(&mut self, token: &str, message: &'static str) -> Parsed {
        self.skip_blank();
        if !self.text.as_bytes()[self.pos..].starts_with(token.as_bytes()) {
            return Err(self.error(message));
        }
        self.pos += token.len();
        Ok(())
    }

    fn null(&mut self) -> Parsed {
        self.eat("null", "invalid literal")
    }

    pub fn bool(&mut self) -> Parsed<bool> {
        let value = self.peek()? == b't';
        self.eat(if value { "true" } else { "false" }, "invalid literal")?;
        Ok(value)
    }

    /// Scan a number: its text, and whether it is a plain unsigned integer
    /// (no sign, fraction or exponent).
    fn number(&mut self) -> Parsed<(&'a str, bool)> {
        self.peek()?;
        let (bytes, start) = (self.text.as_bytes(), self.pos);
        let digits =
            |from: usize| from + bytes[from..].iter().take_while(|b| b.is_ascii_digit()).count();
        // int = "0" / digit1-9 *DIGIT, frac = "." 1*DIGIT, exp = e [sign] 1*DIGIT
        let mut i = start + (bytes[start] == b'-') as usize;
        let mut end = if bytes.get(i) == Some(&b'0') { i + 1 } else { digits(i) };
        let mut ok = end > i;
        if bytes.get(end) == Some(&b'.') {
            i = end + 1;
            end = digits(i);
            ok &= end > i;
        }
        if let Some(b'e' | b'E') = bytes.get(end) {
            i = end + 1 + matches!(bytes.get(end + 1), Some(b'+' | b'-')) as usize;
            end = digits(i);
            ok &= end > i;
        }
        ok.then_some(()).ok_or_else(|| self.error("bad number"))?;
        let text = &self.text[start..end];
        self.pos = end;
        Ok((text, !text.bytes().any(|b| matches!(b, b'-' | b'.' | b'e' | b'E'))))
    }

    fn f64(&mut self) -> Parsed<f64> {
        let (text, _) = self.number()?;
        text.parse().map_err(|_| self.error("bad number"))
    }

    pub fn u64(&mut self) -> Parsed<u64> {
        match self.number()? {
            (text, true) => text.parse().map_err(|_| self.error("integer out of range")),
            _ => Err(self.error("expected an unsigned integer")),
        }
    }

    /// A string, borrowed from the input unless it contains an escape.
    pub fn str(&mut self) -> Parsed<Cow<'a, str>> {
        self.eat("\"", "unexpected character")?;
        // Escapes decode into `owned`, which lacks the input from `run` on.
        // The scan stops only at ASCII bytes: slices fall on char boundaries.
        let (bytes, start, mut owned) = (self.text.as_bytes(), self.pos, String::new());
        let mut run = start;
        loop {
            match bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => break,
                Some(b'\\') => {
                    owned.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    owned.push(self.escape()?);
                    run = self.pos;
                }
                Some(0..=0x1f) => return Err(self.error("control character in string")),
                Some(_) => self.pos += 1,
            }
        }
        let tail = &self.text[run..self.pos];
        self.pos += 1;
        Ok(if run == start { Cow::Borrowed(tail) } else { Cow::Owned(owned + tail) })
    }

    /// One escape, the reader just past its backslash.
    fn escape(&mut self) -> Parsed<char> {
        let at = self.text.as_bytes().get(self.pos).copied();
        if let Some(i) = at.and_then(|b| b"\"\\/bfnrt".iter().position(|&e| e == b)) {
            self.pos += 1;
            return Ok(['"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t'][i]);
        }
        if at != Some(b'u') {
            return Err(self.error("bad escape"));
        }
        // A surrogate pair combines; a lone surrogate maps to U+FFFD.
        let high = self.hex4()?;
        if (0xd800..0xdc00).contains(&high) && self.text[self.pos..].starts_with("\\u") {
            let before = self.pos;
            self.pos += 1;
            if let Some(Ok(c)) = char::decode_utf16([high, self.hex4()?]).next() {
                return Ok(c);
            }
            self.pos = before;
        }
        Ok(char::from_u32(high.into()).unwrap_or('\u{fffd}'))
    }

    /// The four hex digits after the `u` at the current position.
    fn hex4(&mut self) -> Parsed<u16> {
        let hex = self.text.as_bytes().get(self.pos + 1..self.pos + 5);
        let hex = hex.ok_or_else(|| self.error("short \\u escape"))?;
        let code = hex.iter().try_fold(0, |code, &h| Some(code << 4 | (h as char).to_digit(16)?));
        let code = code.ok_or_else(|| self.error("bad \\u escape"))?;
        self.pos += 5;
        Ok(code as u16)
    }

    /// An array's or object's items, each read by `item`.
    fn items(
        &mut self,
        (open, close, unexpected): (&str, u8, &'static str),
        mut item: impl FnMut(&mut Self) -> Parsed,
    ) -> Parsed {
        self.eat(open, "unexpected character")?;
        if self.skip_blank() != Some(close) {
            loop {
                item(self)?;
                match self.skip_blank() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => break,
                    _ => return Err(self.error(unexpected)),
                }
            }
        }
        self.pos += 1;
        Ok(())
    }

    /// An array's elements, each read by `item` (a unit `T` allocates
    /// nothing).
    pub fn array<T>(&mut self, mut item: impl FnMut(&mut Self) -> Parsed<T>) -> Parsed<Vec<T>> {
        let mut items = Vec::new();
        self.items(("[", b']', "expected ',' or ']'"), |r| item(r).map(|v| items.push(v)))?;
        Ok(items)
    }

    /// An object: `field` reads (or skips) the value of each key.
    pub(crate) fn object(&mut self, mut field: impl FnMut(&mut Self, &str) -> Parsed) -> Parsed {
        self.items(("{", b'}', "expected ',' or '}'"), |r| {
            let key = r.str()?;
            r.eat(":", "unexpected character")?;
            field(r, &key)
        })
    }

    /// Read a field into `slot` unless an earlier occurrence of its key
    /// filled it: the first occurrence wins, as with [`Json::get`].
    pub(crate) fn once<T>(
        &mut self,
        slot: &mut Option<T>,
        f: impl FnOnce(&mut Self) -> Parsed<T>,
    ) -> Parsed {
        if slot.is_some() {
            return self.skip_value();
        }
        *slot = Some(f(self)?);
        Ok(())
    }

    /// A string that must equal `want`.
    pub fn expect_str(&mut self, want: &str) -> Parsed {
        let equal = self.str()? == want;
        equal.then_some(()).ok_or_else(|| self.error("unexpected string"))
    }

    /// Skip one value, checking its syntax.
    pub(crate) fn skip_value(&mut self) -> Parsed {
        match self.peek()? {
            b'[' => self.array(Self::skip_value).map(drop),
            b'{' => self.object(|r, _| r.skip_value()),
            b'"' => self.str().map(drop),
            b't' | b'f' => self.bool().map(drop),
            b'n' => self.null(),
            _ => self.number().map(drop),
        }
    }

    /// End of input: only whitespace may remain.
    pub fn finish(&mut self) -> Parsed {
        let end = self.skip_blank().is_none();
        end.then_some(()).ok_or_else(|| self.error("trailing characters"))
    }
}

/// Read the object at reader `$r` into one binding per listed key, each
/// value read by its function: keys in any order, unknown keys skipped, the
/// first occurrence of a key wins ([`Reader::once`]) and a missing key
/// fails.
macro_rules! read_fields {
    ($r:ident { $($key:ident: $read:expr),+ $(,)? }) => {
        $(let mut $key = None;)+
        $r.object(|r, field| match field {
            $(stringify!($key) => r.once(&mut $key, $read),)+
            _ => r.skip_value(),
        })?;
        $(let $key = $key.ok_or_else(|| $r.error("missing field"))?;)+
    };
}
pub(crate) use read_fields;

/// A value a [`Reader`] can read into its type.
pub(crate) trait Decode: Sized {
    fn decode(r: &mut Reader<'_>) -> Parsed<Self>;
}

/// `null` is `None`.
impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Parsed<Self> {
        match r.peek()? {
            b'n' => r.null().map(|()| None),
            _ => T::decode(r).map(Some),
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Parsed<Self> {
        r.array(T::decode)
    }
}

/// The one field list of a record type. It generates the type's [`Encode`]:
/// an object of the fields in table order, each through its type's codec,
/// led by a `"kind": "tag"` member when the table says `as "tag"`. Without
/// the leading `encode` (a write-only type) it also generates the
/// [`Decode`], by [`read_fields!`]'s rules, which requires the tag.
macro_rules! record {
    (encode $ty:ty $(as $tag:literal)? { $($field:ident),+ $(,)? }) => {
        impl $crate::json::Encode for $ty {
            fn write(&self, w: &mut $crate::json::Writer) {
                w.open('{');
                $(w.field("kind", $tag);)?
                $(w.field(stringify!($field), &self.$field);)+
                w.close('}');
            }
        }
    };
    ($ty:ident $(as $tag:literal)? { $($field:ident),+ $(,)? }) => {
        $crate::json::record!(encode $ty $(as $tag)? { $($field),+ });

        impl $crate::json::Decode for $ty {
            fn decode(r: &mut $crate::json::Reader<'_>) -> $crate::json::Parsed<Self> {
                $crate::json::read_fields!(r {
                    $(kind: |r| r.expect_str($tag),)?
                    $($field: $crate::json::Decode::decode),+
                });
                $(let ((), _) = (kind, $tag);)? // checked as it was read
                Ok($ty { $($field),+ })
            }
        }
    };
}
pub(crate) use record;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact_and_pretty() {
        let v = Json::obj(vec![
            ("name", Json::Str("fig9 \"grid\"\n".into())),
            ("seed", Json::UInt(u64::MAX)),
            ("rate", Json::Num(0.00125)),
            ("neg", Json::Num(-3.5)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("xs", Json::Arr(vec![Json::UInt(1), Json::Num(2.5), Json::Str("x".into())])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        for text in [v.to_compact(), v.to_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
        // The escapes the writer emits, byte for byte.
        let escaped = Json::Str("q\"b\\n\nr\rt\tc\u{1}é/".into()).to_compact();
        assert_eq!(escaped, r#""q\"b\\n\nr\rt\tc\u0001é/""#);
    }

    #[test]
    fn u64_is_exact() {
        let v = Json::UInt(9_007_199_254_740_993); // 2^53 + 1: not an f64
        let parsed = Json::parse(&v.to_compact()).unwrap();
        assert_eq!(parsed.as_u64(), Some(9_007_199_254_740_993));
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for x in [0.1, 1e-7, 123456.789012345, f64::MIN_POSITIVE, 1e300] {
            let text = Json::Num(x).to_compact();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back, x, "{text}");
        }
    }

    #[test]
    fn serialisation_is_deterministic() {
        let build = || {
            Json::obj(vec![
                ("b", Json::UInt(2)),
                ("a", Json::UInt(1)),
                ("nested", Json::Arr(vec![Json::Num(0.25); 3])),
            ])
        };
        assert_eq!(build().to_pretty(), build().to_pretty());
        // Insertion order is preserved, not sorted.
        assert!(build().to_compact().starts_with("{\"b\""));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("\"abc").is_err());
        // RFC 8259 numbers: no plus sign, no bare or trailing point, no
        // leading zeros.
        for text in ["+1", "1.", ".5", "01", "00", "-01"] {
            assert!(Json::parse(text).is_err(), "{text}");
        }
        // Control characters must be escaped inside strings.
        assert!(Json::parse("\"a\u{1}b\"").is_err());
    }

    #[test]
    fn surrogate_pairs_combine() {
        assert_eq!(Json::parse(r#""\ud83d\ude00""#).unwrap(), Json::Str("\u{1f600}".into()));
        // A lone surrogate, high or low, still maps to U+FFFD.
        assert_eq!(Json::parse(r#""\ud83dx""#).unwrap(), Json::Str("\u{fffd}x".into()));
        assert_eq!(Json::parse(r#""\ude00\u0041""#).unwrap(), Json::Str("\u{fffd}A".into()));
        assert_eq!(Json::parse(r#""\ud83d\u0041""#).unwrap(), Json::Str("\u{fffd}A".into()));
    }

    #[test]
    fn non_finite_becomes_null() {
        assert_eq!(Json::Num(f64::NAN).to_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_compact(), "null");
    }

    #[test]
    fn getters() {
        let v = Json::parse(r#"{"a": 3, "b": [1, 2], "c": "x", "d": false}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("b").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("d").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("missing"), None);
    }
}
