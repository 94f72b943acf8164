//! Minimal JSON value model, parser and writer.
//!
//! The workspace builds offline without `serde`, so machine-readable reports
//! (the scenario benchmark harness, the `serve` stats wire format,
//! `BENCH_baseline.json`) need a JSON implementation of their own. This
//! module provides the small, dependency-free subset those consumers use:
//!
//! * [`Json`] — an order-preserving value tree (objects keep insertion
//!   order, so written reports have a stable, diff-friendly field order),
//! * [`Json::parse`] — a strict recursive-descent parser with a depth
//!   limit and byte-offset error reporting,
//! * [`Json::to_string_compact`] / [`Json::to_string_pretty`] — writers
//!   whose `f64` formatting round-trips exactly (shortest representation),
//!   so `parse(write(v)) == v` for every finite value.
//!
//! Non-finite numbers have no JSON representation; [`Json::num`] maps them
//! to `null` (and the parser rejects `NaN`/`Infinity` tokens), which keeps
//! every value this module can hold serializable.
//!
//! # Example
//!
//! ```
//! use runtime::json::Json;
//!
//! let value = Json::obj([
//!     ("name", Json::str("baseline_latency")),
//!     ("p50_us", Json::num(812.0)),
//!     ("ok", Json::Bool(true)),
//! ]);
//! let text = value.to_string_compact();
//! assert_eq!(text, r#"{"name":"baseline_latency","p50_us":812,"ok":true}"#);
//! assert_eq!(Json::parse(&text).unwrap(), value);
//! ```

use std::fmt;

/// Maximum nesting depth the parser accepts (arrays + objects combined).
const MAX_DEPTH: usize = 128;

/// A JSON value.
///
/// Objects are stored as insertion-ordered `(key, value)` vectors rather
/// than a map: report schemas stay in the order they were built, and the
/// handful of key lookups the workspace performs are over objects far too
/// small for a map to win.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (integers are written without a decimal point).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: what went wrong and the byte offset it was noticed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// A number value; non-finite inputs become [`Json::Null`] (JSON cannot
    /// represent them).
    pub fn num(value: f64) -> Json {
        if value.is_finite() {
            Json::Num(value)
        } else {
            Json::Null
        }
    }

    /// A string value.
    pub fn str(value: impl Into<String>) -> Json {
        Json::Str(value.into())
    }

    /// An object from `(key, value)` pairs, keeping their order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Looks up a key in an object (`None` for other variants or missing
    /// keys; the first matching key wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer (rejects negatives, fractions and
    /// magnitudes above 2^53 where `f64` stops being exact).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.0e15 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a `usize` (same exactness rules as [`Json::as_u64`]).
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object pairs.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// `true` for [`Json::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Parses one JSON document (trailing non-whitespace is an error).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut parser = Parser { bytes: input.as_bytes(), pos: 0 };
        parser.skip_ws();
        let value = parser.value(0)?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Writes the value on one line with no spaces — the framing used by
    /// the bench agents' line-oriented stdio/TCP protocol.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Writes the value indented by two spaces per level (the layout of the
    /// committed report files).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    item.write(out, indent, level + 1);
                }
                if !items.is_empty() {
                    newline_indent(out, indent, level);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    write_str(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, level + 1);
                }
                if !pairs.is_empty() {
                    newline_indent(out, indent, level);
                }
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

/// Writes a finite `f64`. Integral values in the exactly-representable
/// range print without a decimal point; everything else uses Rust's
/// shortest round-trip `f64` formatting, so parsing the output recovers
/// the bit-identical value.
fn write_num(out: &mut String, n: f64) {
    use fmt::Write as _;
    if n.fract() == 0.0 && n.abs() <= 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n:?}");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError { message: message.into(), offset: self.pos }
    }

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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting deeper than the supported limit"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(format!("unexpected character `{}`", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{text}`")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.hex4()?;
                            // Surrogate pair: a high surrogate must be
                            // followed by `\uXXXX` holding the low half.
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    let combined =
                                        0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(unit)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.error("invalid \\u escape")),
                            }
                            continue; // hex4 advanced past the escape already
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.error("unescaped control character in string"))
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // remainder is valid UTF-8; find the next char boundary).
                    let rest = &self.bytes[self.pos..];
                    let len = match std::str::from_utf8(rest) {
                        Ok(s) => s.chars().next().map_or(1, char::len_utf8),
                        Err(_) => 1,
                    };
                    let chunk = std::str::from_utf8(&rest[..len])
                        .map_err(|_| self.error("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.error("invalid \\u escape"))?;
        let unit = u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos = end;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.error("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.error("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.error("expected digits in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        let value: f64 = text.parse().map_err(|_| self.error("invalid number"))?;
        if !value.is_finite() {
            return Err(self.error("number overflows f64"));
        }
        Ok(Json::Num(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(Json::parse(r#""a\nbA""#).unwrap(), Json::str("a\nbA"));
    }

    #[test]
    fn parses_nested_structures_preserving_order() {
        let parsed = Json::parse(r#"{"b": [1, {"x": null}], "a": "z"}"#).unwrap();
        let pairs = parsed.as_obj().unwrap();
        assert_eq!(pairs[0].0, "b");
        assert_eq!(pairs[1].0, "a");
        assert_eq!(parsed.get("b").unwrap().as_arr().unwrap()[0], Json::Num(1.0));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1.2.3", "\"unterminated", "[1] 2", "nan", "Infinity"] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_unpaired_surrogates() {
        assert!(Json::parse(r#""\ud800""#).is_err());
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::str("😀"));
    }

    #[test]
    fn compact_round_trip_is_exact() {
        let value = Json::obj([
            ("count", Json::num(18446744073709551615u64 as f64)),
            ("pi", Json::num(std::f64::consts::PI)),
            ("tiny", Json::num(5.0e-324)),
            ("text", Json::str("line\n\"quoted\" \\ unicode ü")),
            ("list", Json::arr([Json::Null, Json::Bool(false), Json::num(-0.5)])),
            ("empty_obj", Json::obj::<String>([])),
            ("empty_arr", Json::arr([])),
        ]);
        let compact = value.to_string_compact();
        assert!(!compact.contains('\n'), "compact form must stay on one line");
        assert_eq!(Json::parse(&compact).unwrap(), value);
        assert_eq!(Json::parse(&value.to_string_pretty()).unwrap(), value);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::num(f64::NAN), Json::Null);
        assert_eq!(Json::num(f64::INFINITY), Json::Null);
    }

    #[test]
    fn integers_print_without_decimal_point() {
        assert_eq!(Json::num(42.0).to_string_compact(), "42");
        assert_eq!(Json::num(-7.0).to_string_compact(), "-7");
        assert_eq!(Json::num(0.25).to_string_compact(), "0.25");
    }

    #[test]
    fn depth_limit_rejects_pathological_input() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep).is_err());
    }
}
