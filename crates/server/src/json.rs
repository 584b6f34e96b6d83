//! Minimal JSON for the wire protocol — value tree, recursive-descent
//! parser and writer, nothing else.
//!
//! The build environment is offline (no serde), and the protocol needs
//! only a small, *total* JSON subset: every malformed byte sequence is
//! a typed [`JsonError`], parsing depth is bounded (a hostile client
//! must not be able to overflow a connection task's stack with
//! `[[[[…`), and object keys keep insertion order so responses are
//! byte-stable for the oracle tests.

use std::fmt;

/// Nesting bound for arrays/objects; parsing is the only recursion in
/// this module, so this caps stack depth on hostile input.
const MAX_DEPTH: usize = 128;

/// Largest integer `f64` represents exactly (2^53). Integers at or
/// below this bound travel as [`Json::Num`]; above it they must use
/// [`Json::Uint`] or they would be silently rounded.
const MAX_SAFE_INT: u64 = 1 << 53;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A JSON number carried as a float. Integers ride here only while
    /// they are exactly representable (|n| ≤ 2^53); larger integers use
    /// [`Json::Uint`] so the wire never silently rounds them — build
    /// integer fields with [`Json::uint`], which picks the right
    /// variant.
    Num(f64),
    /// An exact unsigned integer above 2^53. [`parse`] produces this
    /// for integer literals too large for `f64`, and the writer prints
    /// it digit-exact; generation counters and other u64 protocol
    /// fields survive the JSON layer unrounded.
    Uint(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered, later duplicates win on lookup
    /// order but both are kept when parsed.
    Obj(Vec<(String, Json)>),
    /// Pre-serialized JSON spliced verbatim into the output — the
    /// result cache's hit path (a stored node array replays as one
    /// memcpy instead of a tree rebuild). Writer-only: [`parse`] never
    /// produces it, and the splicer is responsible for validity.
    Raw(std::sync::Arc<String>),
}

impl Json {
    /// Object field lookup (first match).
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

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This number as a non-negative integer, if it is one exactly.
    /// [`Json::Uint`] values (integers above 2^53) qualify by
    /// construction; floats qualify only while exactly integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            Json::Uint(n) => Some(*n),
            _ => None,
        }
    }

    /// The number payload, if this is a number. A [`Json::Uint`] above
    /// 2^53 converts with rounding — callers that need exactness use
    /// [`Json::as_u64`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Uint(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience integer constructor.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Exact unsigned-integer constructor: values up to 2^53 normalize
    /// to [`Json::Num`] (the historical wire form, byte-identical
    /// output), larger values become [`Json::Uint`] and print
    /// digit-exact. The same normalization [`parse`] applies, so a
    /// round trip preserves both the value *and* the variant.
    pub fn uint(n: u64) -> Json {
        if n <= MAX_SAFE_INT {
            Json::Num(n as f64)
        } else {
            Json::Uint(n)
        }
    }

    /// Roughly the length [`Json::write`] will produce — exact for a
    /// [`Json::Raw`] splice, generous for scalars, short only by what
    /// string escapes add. Pre-size a buffer with it and a spliced node
    /// array is copied once instead of grown into by doubling.
    pub(crate) fn len_hint(&self) -> usize {
        match self {
            Json::Null | Json::Bool(_) => 5,
            Json::Num(_) | Json::Uint(_) => 24,
            Json::Str(s) => s.len() + 8,
            Json::Arr(items) => 2 + items.iter().map(|v| 1 + v.len_hint()).sum::<usize>(),
            Json::Obj(fields) => {
                2 + fields
                    .iter()
                    .map(|(k, v)| k.len() + 4 + v.len_hint())
                    .sum::<usize>()
            }
            Json::Raw(s) => s.len(),
        }
    }

    /// Serialize (compact, no whitespace).
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() <= MAX_SAFE_INT as f64 {
                    // Integral numbers print without the trailing ".0"
                    // rust's float Display would add.
                    let _ = fmt::Write::write_fmt(out, format_args!("{}", *n as i64));
                } else if !n.is_finite() {
                    out.push_str("null"); // JSON has no Inf/NaN
                } else if n.fract() == 0.0 {
                    // An integral float beyond 2^53: printing a digit
                    // run would masquerade as an exact integer (and the
                    // parser would reject it past u64::MAX). Exponent
                    // form keeps it float-typed on the wire and still
                    // round-trips the f64 exactly.
                    let _ = fmt::Write::write_fmt(out, format_args!("{n:e}"));
                } else {
                    let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
                }
            }
            Json::Uint(n) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
            Json::Raw(s) => out.push_str(s),
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse failure with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the input.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parse one JSON value; trailing input (other than whitespace) is an
/// error. Total over arbitrary bytes: typed errors, bounded depth.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = P { b: input.as_bytes(), input, pos: 0 };
    p.ws();
    let v = p.value(0)?;
    p.ws();
    if p.pos < p.b.len() {
        return Err(p.err("trailing input after value"));
    }
    Ok(v)
}

struct P<'a> {
    b: &'a [u8],
    input: &'a str,
    pos: usize,
}

impl<'a> P<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError { pos: self.pos, msg: msg.to_string() }
    }

    fn ws(&mut self) {
        while let Some(&c) = self.b.get(self.pos) {
            if matches!(c, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.b.get(self.pos) == Some(&c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.ws();
        match self.b.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat(b']') {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.ws();
                    if self.eat(b',') {
                        continue;
                    }
                    if self.eat(b']') {
                        return Ok(Json::Arr(items));
                    }
                    return Err(self.err("expected ',' or ']'"));
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.eat(b'}') {
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    if self.b.get(self.pos) != Some(&b'"') {
                        return Err(self.err("expected a string key"));
                    }
                    let key = self.string()?;
                    self.ws();
                    if !self.eat(b':') {
                        return Err(self.err("expected ':'"));
                    }
                    fields.push((key, self.value(depth + 1)?));
                    self.ws();
                    if self.eat(b',') {
                        continue;
                    }
                    if self.eat(b'}') {
                        return Ok(Json::Obj(fields));
                    }
                    return Err(self.err("expected ',' or '}'"));
                }
            }
            Some(_) => self.number(),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.input[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while let Some(&c) = self.b.get(self.pos) {
            if matches!(c, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = &self.input[start..self.pos];
        // Integer literals take an exact path: a plain digit run (no
        // fraction, no exponent) must survive as the integer the peer
        // wrote, not the nearest f64 — above 2^53 the two diverge
        // silently. Out-of-range integers are a typed error rather
        // than a rounded lie.
        let digits = text.strip_prefix('-').unwrap_or(text);
        let is_integer = !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit());
        if is_integer {
            if text.starts_with('-') {
                return match text.parse::<i64>() {
                    Ok(n) if n.unsigned_abs() <= MAX_SAFE_INT => Ok(Json::Num(n as f64)),
                    _ => {
                        self.pos = start;
                        Err(self.err("negative integer below -2^53 is not exactly representable"))
                    }
                };
            }
            return match digits.parse::<u64>() {
                Ok(n) => Ok(Json::uint(n)),
                Err(_) => {
                    self.pos = start;
                    Err(self.err("integer literal exceeds the u64 range"))
                }
            };
        }
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => {
                self.pos = start;
                Err(self.err("invalid number"))
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let rest = &self.input[self.pos..];
            let mut chars = rest.char_indices();
            match chars.next() {
                None => return Err(self.err("unterminated string")),
                Some((_, '"')) => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some((_, '\\')) => {
                    self.pos += 1;
                    let esc = self
                        .input[self.pos..]
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += esc.len_utf8();
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'b' => out.push('\u{8}'),
                        'f' => out.push('\u{c}'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'u' => {
                            let code = self.hex4()?;
                            // Surrogate pair: a high surrogate must be
                            // followed by `\uDC00..DFFF`.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if !self.input[self.pos..].starts_with("\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c =
                                    0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(c)
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid codepoint"))?);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some((_, c)) => {
                    if (c as u32) < 0x20 {
                        return Err(self.err("raw control character in string"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .input
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let code =
            u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        for src in [
            r#"null"#,
            r#"true"#,
            r#"[1,2.5,-3,"x",{"a":[]},null]"#,
            r#"{"id":1,"method":"query","params":{"xpath":"/a[b='c']"}}"#,
            "\"quote \\\" backslash \\\\ newline \\n unicode \\u00e9\"",
        ] {
            let v = parse(src).unwrap();
            let printed = v.to_string();
            assert_eq!(parse(&printed).unwrap(), v, "{src} → {printed}");
        }
    }

    #[test]
    fn escapes_and_unicode() {
        assert_eq!(parse(r#""\u00e9\u2603""#).unwrap(), Json::str("é☃"));
        // Surrogate pair (😀).
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Json::str("😀"));
        assert_eq!(Json::str("é\n\"").to_string(), "\"é\\n\\\"\"");
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        for bad in [
            "", "{", "[", "\"", "{\"a\"", "{\"a\":}", "[1,", "tru", "nul", "01x",
            "\"\\u12\"", "\"\\ud800\"", "\"\\q\"", "1 2", "{,}", "[1]]", "\u{1}",
            "\"\u{1}\"", "-", "+", "nan", "inf",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn integers_print_without_decimal_point() {
        assert_eq!(Json::num(3u32).to_string(), "3");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
    }

    /// The u64-precision boundary: integers above 2^53 must round-trip
    /// digit-exact through parse and print — the old float-only path
    /// silently rounded 2^53+1 to 2^53 (and `as_u64` had to bail).
    #[test]
    fn u64_integers_round_trip_exactly_at_every_boundary() {
        for n in [
            0u64,
            1,
            (1 << 53) - 1,
            1 << 53,          // last exactly-representable f64 integer
            (1 << 53) + 1,    // first value the float path would corrupt
            1 << 54,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let v = Json::uint(n);
            assert_eq!(v.as_u64(), Some(n), "constructor must carry {n} exactly");
            let text = v.to_string();
            assert_eq!(text, n.to_string(), "writer must print {n} digit-exact");
            let back = parse(&text).unwrap();
            assert_eq!(back.as_u64(), Some(n), "parse must recover {n} exactly");
            assert_eq!(back, v, "round trip must preserve the variant");
        }
        // Below the boundary the historical Num form is preserved —
        // byte-identical output for every value the old wire carried.
        assert!(matches!(Json::uint(1 << 53), Json::Num(_)));
        assert!(matches!(Json::uint((1 << 53) + 1), Json::Uint(_)));
    }

    /// Out-of-range integers are typed errors, never rounded: one past
    /// u64::MAX, and negative integers beyond the f64-exact range.
    #[test]
    fn out_of_range_integers_are_rejected_typed() {
        for bad in [
            "18446744073709551616",  // u64::MAX + 1
            "99999999999999999999999999",
            "-9007199254740993",     // -(2^53 + 1)
            "-18446744073709551616",
        ] {
            let err = parse(bad).expect_err("out-of-range integer must not parse");
            assert!(
                err.msg.contains("integer") || err.msg.contains("representable"),
                "{bad}: unexpected message {:?}",
                err.msg
            );
        }
        // Exponent-form floats are still floats: no exactness claim,
        // no rejection, and big integral f64s stay float-typed on the
        // wire via exponent printing.
        let huge = parse("1e300").unwrap();
        assert_eq!(huge.as_f64(), Some(1e300));
        let printed = huge.to_string();
        assert!(printed.contains('e'), "integral floats beyond 2^53 print in exponent form");
        assert_eq!(parse(&printed).unwrap(), huge);
        assert!(parse(&printed).unwrap().as_u64().is_none());
    }
}
