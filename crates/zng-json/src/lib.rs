//! A small, dependency-free JSON library for the ZnG simulator.
//!
//! The simulator writes three kinds of JSON — [`RunResult`] dumps from
//! `zng-cli --json`, trace bundles from `zng-workloads`, and bench
//! records under `target/zng-results/` — and reads trace bundles back.
//! That narrow surface does not justify an external dependency, so this
//! crate provides:
//!
//! * [`Value`] — a JSON document tree preserving object key order.
//! * [`Value::parse`] — a recursive-descent parser with escape and
//!   number handling.
//! * [`Value::to_string_compact`] / [`Value::to_string_pretty`] —
//!   printers; the compact form writes `"key":value` with no spaces so
//!   textual fixtures are stable.
//! * Index by `&str` and `usize` plus `as_*` accessors, mirroring the
//!   ergonomics tests expect from a JSON value type.
//! * [`Value::Sparse`] — an array of non-negative integers that stores
//!   only its length and non-zero elements ([`SparseU64`]), for long,
//!   mostly-zero series such as the Fig. 17 request timelines. It
//!   prints exactly as the dense [`Value::Array`] of [`Number::U64`]s
//!   it stands for, and `v[i]` reads what it would read on that array
//!   (`0` for a zero element, `Null` past the end). It is built, never
//!   parsed: the parser returns the dense array, and since `==` on
//!   [`Value`] is structural the two are not equal. Compare their text.
//!
//! [`RunResult`]: ../zng_platforms/struct.RunResult.html

#![deny(unsafe_code)]

use std::fmt::{self, Write as _};
use std::ops::Index;

/// A JSON number: integers are kept exact, everything else is `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A floating-point number.
    F64(f64),
}

impl Number {
    /// The value as `f64` (integers convert losslessly up to 2^53).
    pub fn as_f64(self) -> f64 {
        match self {
            Number::U64(v) => v as f64,
            Number::I64(v) => v as f64,
            Number::F64(v) => v,
        }
    }

    /// The value as `u64` if it is a non-negative integer.
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Number::U64(v) => Some(v),
            Number::I64(v) => u64::try_from(v).ok(),
            Number::F64(_) => None,
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Number::U64(v) => write!(f, "{v}"),
            Number::I64(v) => write!(f, "{v}"),
            Number::F64(v) => {
                if !v.is_finite() {
                    // JSON has no NaN/Inf; null is the conventional fallback.
                    write!(f, "null")
                } else if v == v.trunc() && v.abs() < 1e15 {
                    // Keep float-ness visible ("1.0", not "1").
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
        }
    }
}

/// A parse or conversion error with a human-readable description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for JsonError {}

/// A JSON document tree. Object key order is preserved (struct fields
/// print in declaration order, like derived serializers would).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(Number),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object as ordered key/value pairs.
    Object(Vec<(String, Value)>),
    /// An array of non-negative integers stored sparsely. It prints as
    /// the dense `Array` of `Num(U64)`s it stands for but is not `==`
    /// to that array, which is what parsing its text gives back.
    Sparse(SparseU64),
}

static NULL: Value = Value::Null;
const STRING_WRITE: &str = "writing into a String cannot fail";
static ZERO: Value = Value::Num(Number::U64(0));

/// An array of `len` non-negative integers, stored as the ascending
/// indices and values of its non-zero elements (see [`Value::Sparse`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SparseU64 {
    len: usize,
    /// `(index, Num(U64(v)))` for every non-zero `v`, by index; kept as
    /// `Value`s so that `v[i]` can lend them.
    nonzero: Vec<(usize, Value)>,
}

impl SparseU64 {
    /// An array of `len` elements, zero except at the `(index, value)`
    /// pairs given.
    ///
    /// # Panics
    ///
    /// Panics if the indices are not strictly ascending, an index is
    /// not below `len`, or a value is zero.
    pub fn new(len: usize, nonzero: impl IntoIterator<Item = (usize, u64)>) -> SparseU64 {
        let mut next = 0;
        let nonzero = nonzero
            .into_iter()
            .map(|(i, v)| {
                assert!(
                    i >= next && i < len,
                    "sparse index {i} out of order or not below {len}"
                );
                assert!(v != 0, "sparse element {i} is zero");
                next = i + 1;
                (i, Value::from(v))
            })
            .collect();
        SparseU64 { len, nonzero }
    }

    /// Number of elements, zeros included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of non-zero elements, which is what the array stores.
    pub fn stored(&self) -> usize {
        self.nonzero.len()
    }

    /// Element `i` (`None` past the end).
    fn get(&self, i: usize) -> Option<&Value> {
        if i >= self.len {
            return None;
        }
        Some(
            self.nonzero
                .binary_search_by_key(&i, |&(j, _)| j)
                .map_or(&ZERO, |k| &self.nonzero[k].1),
        )
    }

    /// Every element in order, zeros included.
    fn elements(&self) -> impl Iterator<Item = &Value> {
        let mut stored = self.nonzero.iter().peekable();
        (0..self.len).map(move |i| stored.next_if(|&&(j, _)| j == i).map_or(&ZERO, |(_, v)| v))
    }
}

impl Value {
    /// Builds an object from `(key, value)` pairs.
    pub fn object<K: Into<String>>(pairs: Vec<(K, Value)>) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is a dense array. A
    /// [`Value::Sparse`] holds no such list and gives `None`; index it
    /// or use [`Value::as_sparse`].
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The sparse array, if this is a [`Value::Sparse`].
    pub fn as_sparse(&self) -> Option<&SparseU64> {
        match self {
            Value::Sparse(a) => Some(a),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Object member lookup (`None` for missing keys or non-objects).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] describing the first syntax problem,
    /// including trailing garbage after the document.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError(format!("trailing characters at byte {}", p.pos)));
        }
        Ok(v)
    }

    /// Prints the document with no whitespace (`{"k":1,"v":[2]}`).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Prints the document with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        let item = |out: &mut String, v: &Value| v.write(out, indent, level + 1);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) => write!(out, "{n}").expect(STRING_WRITE),
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) => write_list(out, indent, level, ['[', ']'], items, item),
            Value::Sparse(a) => write_list(out, indent, level, ['[', ']'], a.elements(), item),
            Value::Object(pairs) => {
                write_list(out, indent, level, ['{', '}'], pairs, |out, (k, v)| {
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    item(out, v);
                })
            }
        }
    }
}

/// Writes `items` between `open` and `close`, comma separated, each on
/// its own indented line when printing pretty (an empty list prints as
/// the bare brackets). Arrays, sparse arrays and objects share it.
fn write_list<T>(
    out: &mut String,
    indent: Option<usize>,
    level: usize,
    [open, close]: [char; 2],
    items: impl IntoIterator<Item = T>,
    mut write_item: impl FnMut(&mut String, T),
) {
    out.push(open);
    let mut empty = true;
    for x in items {
        if !empty {
            out.push(',');
        }
        empty = false;
        newline_indent(out, indent, level + 1);
        write_item(out, x);
    }
    if !empty {
        newline_indent(out, indent, level);
    }
    out.push(close);
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * level));
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect(STRING_WRITE),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

impl Index<&str> for Value {
    type Output = Value;

    /// `value["key"]` — yields `Null` for missing keys, like serde_json.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl Index<usize> for Value {
    type Output = Value;

    /// `value[i]` — yields `Null` out of bounds or on non-arrays. On a
    /// [`Value::Sparse`] it yields what the dense array would.
    fn index(&self, i: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(i),
            Value::Sparse(a) => a.get(i),
            _ => None,
        }
        .unwrap_or(&NULL)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<Value> for &str {
    fn eq(&self, other: &Value) -> bool {
        other.as_str() == Some(*self)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Num(Number::F64(v))
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

macro_rules! impl_from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::Num(Number::U64(v as u64))
            }
        }
    )*};
}

impl_from_uint!(u8, u16, u32, u64, usize);

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        if v >= 0 {
            Value::Num(Number::U64(v as u64))
        } else {
            Value::Num(Number::I64(v))
        }
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(JsonError("document nests too deeply".into()));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(JsonError(format!(
                "unexpected `{}` at byte {}",
                b as char, self.pos
            ))),
            None => Err(JsonError("unexpected end of input".into())),
        }
    }

    fn keyword(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(JsonError(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(pairs));
                }
                _ => {
                    return Err(JsonError(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(JsonError(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(JsonError("unterminated string".into()));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(JsonError("unterminated escape".into()));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(JsonError(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => {
                    // Copy the run up to the next quote or backslash in
                    // one go. Both are ASCII, so the run ends on a
                    // character boundary of the (valid UTF-8) input.
                    let start = self.pos - 1;
                    let end = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| start + n);
                    out.push_str(&self.text[start..end]);
                    self.pos = end;
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hex4 = |p: &mut Parser<'a>| -> Result<u32, JsonError> {
            let end = p.pos + 4;
            if end > p.bytes.len() {
                return Err(JsonError("truncated \\u escape".into()));
            }
            let s = std::str::from_utf8(&p.bytes[p.pos..end])
                .map_err(|_| JsonError("invalid \\u escape".into()))?;
            let v =
                u32::from_str_radix(s, 16).map_err(|_| JsonError("invalid \\u escape".into()))?;
            p.pos = end;
            Ok(v)
        };
        let hi = hex4(self)?;
        if (0xD800..0xDC00).contains(&hi) {
            // Surrogate pair: expect a following \uXXXX low surrogate.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = hex4(self)?;
                if (0xDC00..0xE000).contains(&lo) {
                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(c)
                        .ok_or_else(|| JsonError("invalid surrogate pair".into()));
                }
            }
            return Err(JsonError("unpaired surrogate".into()));
        }
        char::from_u32(hi).ok_or_else(|| JsonError("invalid \\u escape".into()))
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::Num(Number::U64(v)));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::Num(Number::I64(v)));
            }
        }
        text.parse::<f64>()
            .map(|v| Value::Num(Number::F64(v)))
            .map_err(|_| JsonError(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact_and_pretty() {
        let v = Value::object(vec![
            ("version", Value::from(1u32)),
            ("name", Value::from("betw")),
            ("ipc", Value::from(0.5f64)),
            ("flags", Value::from(vec![true, false])),
            ("nested", Value::object(vec![("k", Value::Null)])),
        ]);
        let compact = v.to_string_compact();
        assert_eq!(
            compact,
            r#"{"version":1,"name":"betw","ipc":0.5,"flags":[true,false],"nested":{"k":null}}"#
        );
        assert_eq!(Value::parse(&compact).unwrap(), v);
        let pretty = v.to_string_pretty();
        assert!(pretty.contains("\n  \"version\": 1"));
        assert_eq!(Value::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn indexing_mirrors_serde_json() {
        let v = Value::parse(r#"{"platform":"Zng","ipc":1.5,"xs":[1,2,3]}"#).unwrap();
        assert_eq!(v["platform"], "Zng");
        assert!(v["ipc"].as_f64().unwrap() > 1.0);
        assert_eq!(v["xs"][1].as_u64(), Some(2));
        assert_eq!(v["missing"], Value::Null);
        assert_eq!(v["xs"][9], Value::Null);
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Value::from("a\"b\\c\nd\te\u{1F600}\u{7}");
        let s = v.to_string_compact();
        assert_eq!(Value::parse(&s).unwrap(), v);
        let parsed = Value::parse(r#""A😀""#).unwrap();
        assert_eq!(parsed, "A\u{1F600}");
    }

    #[test]
    fn numbers_parse_exactly() {
        let v = Value::parse("[0,42,-7,3.25,1e3,18446744073709551615]").unwrap();
        let a = v.as_array().unwrap();
        assert_eq!(a[1].as_u64(), Some(42));
        assert_eq!(a[2], Value::Num(Number::I64(-7)));
        assert_eq!(a[3].as_f64(), Some(3.25));
        assert_eq!(a[4].as_f64(), Some(1000.0));
        assert_eq!(a[5].as_u64(), Some(u64::MAX));
    }

    #[test]
    fn float_printing_keeps_floatness() {
        assert_eq!(Value::from(1.0f64).to_string_compact(), "1.0");
        assert_eq!(Value::from(0.125f64).to_string_compact(), "0.125");
        assert_eq!(Value::from(f64::NAN).to_string_compact(), "null");
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "{not json",
            "",
            "[1,2",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "[1] trailing",
            "01x",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn multibyte_characters_parse_at_string_and_document_end() {
        for c in ['é', '€', '😀'] {
            let want = Value::from(format!("a{c}"));
            assert_eq!(Value::parse(&format!(r#""a{c}""#)).unwrap(), want);
            assert_eq!(Value::parse(&format!(r#" "a{c}" "#)).unwrap(), want);
            let doc = Value::parse(&format!(r#"{{"{c}":["{c}\n{c}"]}}"#)).unwrap();
            assert_eq!(doc[c.to_string().as_str()][0], format!("{c}\n{c}").as_str());
            let err = Value::parse(&format!(r#""a{c}"#)).unwrap_err();
            assert_eq!(err.0, "unterminated string", "{c}");
        }
    }

    #[test]
    fn sparse_prints_and_indexes_as_its_dense_array() {
        let sparse = Value::Sparse(SparseU64::new(5, [(0, 7), (3, 1)]));
        let dense = Value::from(vec![7u64, 0, 0, 1, 0]);
        assert_eq!(sparse.to_string_compact(), "[7,0,0,1,0]");
        assert_eq!(sparse.to_string_pretty(), dense.to_string_pretty());
        assert_eq!(Value::parse(&sparse.to_string_compact()).unwrap(), dense);
        for i in 0..6 {
            assert_eq!(sparse[i], dense[i], "{i}");
        }
        assert_eq!(sparse.as_array(), None);
        assert_ne!(sparse, dense, "equality is structural");
        let a = sparse.as_sparse().unwrap();
        assert_eq!((a.len(), a.stored(), a.is_empty()), (5, 2, false));
        let empty = Value::Sparse(SparseU64::new(0, []));
        assert_eq!(empty.to_string_pretty(), "[]");
        assert_eq!(empty[0], Value::Null);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn sparse_rejects_unordered_indices() {
        let _ = SparseU64::new(4, [(2, 1), (1, 1)]);
    }

    #[test]
    #[should_panic(expected = "not below 4")]
    fn sparse_rejects_indices_past_the_end() {
        let _ = SparseU64::new(4, [(4, 1)]);
    }

    #[test]
    #[should_panic(expected = "is zero")]
    fn sparse_rejects_stored_zeros() {
        let _ = SparseU64::new(4, [(1, 0)]);
    }

    #[test]
    fn value_stays_32_bytes() {
        assert_eq!(std::mem::size_of::<Value>(), 32);
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let doc = "[".repeat(4_000) + &"]".repeat(4_000);
        assert!(Value::parse(&doc).is_err());
    }
}
