//! Minimal JSON for the wire protocol — value tree, recursive-descent
//! parser and writer, nothing else.
//!
//! The build environment is offline (no serde), and the protocol needs
//! only a small, *total* JSON subset: every malformed byte sequence is
//! a typed [`JsonError`], parsing depth is bounded (a hostile client
//! must not be able to overflow a connection task's stack with
//! `[[[[…`), and object keys keep insertion order so responses are
//! byte-stable for the oracle tests. Numbers follow RFC 8259's grammar
//! exactly (no `+1`, `.5`, `1.` or leading zeros), and `\u` takes
//! exactly four hex digits.
//!
//! The parser's grammar steps are also the crate's way to read JSON
//! *without* a tree: the client's `query` reply decoder (`crate::wire`)
//! walks a reply with them and reads its node array straight into
//! D-label triples.

use std::borrow::Cow;
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
    let mut cur = Cursor::new(input);
    let v = cur.value(0)?;
    cur.finish()?;
    Ok(v)
}

/// How a number token reads once [`lex_number`] has checked it.
enum Lexed {
    /// An integer literal — no fraction, no exponent; `magnitude` is
    /// `None` past `u64::MAX`.
    Integer { negative: bool, magnitude: Option<u64> },
    /// A fraction or exponent form.
    Float,
}

/// Lex one number token at `start` against RFC 8259's grammar,
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, returning
/// where it ends; `None` when the bytes there are not a number. This is
/// the one definition of an integer literal: [`parse`] keeps such a
/// literal exact, and [`Cursor::uint`] (the field reader of the reply
/// decoder and of [`Cursor::node_array`]'s scalar step) accepts
/// nothing else.
fn lex_number(b: &[u8], start: usize) -> Option<(usize, Lexed)> {
    let digits = |mut i: usize| {
        while b.get(i).is_some_and(u8::is_ascii_digit) {
            i += 1;
        }
        i
    };
    let negative = b.get(start) == Some(&b'-');
    let int_start = start + usize::from(negative);
    let mut end = int_start;
    let mut magnitude = Some(0u64);
    while let Some(&d @ b'0'..=b'9') = b.get(end) {
        magnitude = magnitude.and_then(|m| m.checked_mul(10)?.checked_add(u64::from(d - b'0')));
        end += 1;
    }
    if end == int_start || (end - int_start > 1 && b[int_start] == b'0') {
        return None;
    }
    let mut float = false;
    if b.get(end) == Some(&b'.') {
        let frac_end = digits(end + 1);
        if frac_end == end + 1 {
            return None;
        }
        (end, float) = (frac_end, true);
    }
    if matches!(b.get(end), Some(b'e' | b'E')) {
        let exp_start = end + 1 + usize::from(matches!(b.get(end + 1), Some(b'+' | b'-')));
        let exp_end = digits(exp_start);
        if exp_end == exp_start {
            return None;
        }
        (end, float) = (exp_end, true);
    }
    Some((end, if float { Lexed::Float } else { Lexed::Integer { negative, magnitude } }))
}

/// Eight copies of byte `b`, one per lane of a `u64` word.
const fn lanes(b: u8) -> u64 {
    u64::from_ne_bytes([b; 8])
}

/// Bit `i` set where lane `i` of `t` — eight text bytes loaded
/// little-endian, each XORed with `'0'` — is not a digit: a digit's
/// lane holds 0..=9, any other byte's is above 9 or has its top bit.
fn non_digits(t: u64) -> u32 {
    let high = ((t & lanes(0x7f)).wrapping_add(lanes(0x7f - 9)) | t) & lanes(0x80);
    // Gather the eight lane flags into the top byte, lane `i` at bit `i`.
    ((high >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56) as u32
}

/// The value of the `len` (1..=8) digits that start `t` (as in
/// [`non_digits`]). Shifting them to the top drops the bytes after them
/// and leaves zero lanes in front as leading zeros; three
/// multiply-shifts then fold the lanes pairwise into 2-, 4- and 8-digit
/// values.
fn digit_run(t: u64, len: usize) -> u64 {
    let t = t << (64 - 8 * len);
    let t = t.wrapping_mul(10 << 8 | 1) >> 8;
    let t = (t & 0x00ff_00ff_00ff_00ff).wrapping_mul(100 << 16 | 1) >> 16;
    (t & 0x0000_ffff_0000_ffff).wrapping_mul(10_000 << 32 | 1) >> 32
}

/// A position in JSON text and the grammar's steps from it. [`parse`]
/// builds its value tree with these steps; a decoder that wants no tree
/// — the `query` reply in `crate::wire` — walks the same text with the
/// same steps, so both accept exactly one grammar.
pub(crate) struct Cursor<'a> {
    b: &'a [u8],
    input: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `input`.
    pub(crate) fn new(input: &'a str) -> Self {
        Cursor { b: input.as_bytes(), input, pos: 0 }
    }

    /// A typed error at the cursor.
    pub(crate) fn err(&self, msg: &str) -> JsonError {
        JsonError { pos: self.pos, msg: msg.to_string() }
    }

    /// Bytes left after the cursor.
    pub(crate) fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }

    /// Step over trailing whitespace; anything else left is an error.
    pub(crate) fn finish(&mut self) -> Result<(), JsonError> {
        self.ws();
        if self.pos < self.b.len() {
            return Err(self.err("trailing input after value"));
        }
        Ok(())
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

    /// Step over one value of any kind and return it as a tree;
    /// `depth` counts the arrays and objects around it.
    pub(crate) fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.ws();
        match self.b.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|cur| {
                    items.push(cur.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                self.object(|cur, key| {
                    fields.push((key.into_owned(), cur.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            Some(_) => self.number(),
        }
    }

    /// Step over one array, calling `item` at each element; `item` must
    /// step over exactly that element.
    pub(crate) fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.ws();
        if !self.eat(b'[') {
            return Err(self.err("expected '['"));
        }
        self.ws();
        if self.eat(b']') {
            return Ok(());
        }
        loop {
            item(self)?;
            self.ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b']') {
                return Ok(());
            }
            return Err(self.err("expected ',' or ']'"));
        }
    }

    /// Step over one object, calling `field` with each key and the
    /// cursor at its value; `field` must step over exactly that value.
    pub(crate) fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.ws();
        if !self.eat(b'{') {
            return Err(self.err("expected '{'"));
        }
        self.ws();
        if self.eat(b'}') {
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.ws();
            if !self.eat(b':') {
                return Err(self.err("expected ':'"));
            }
            field(self, key)?;
            self.ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b'}') {
                return Ok(());
            }
            return Err(self.err("expected ',' or '}'"));
        }
    }

    /// Step over one unsigned integer literal (see [`lex_number`]) and
    /// return it exactly. A sign, a fraction, an exponent, a value past
    /// `u64::MAX` or anything but a number is an error.
    pub(crate) fn uint(&mut self) -> Result<u64, JsonError> {
        self.ws();
        match lex_number(self.b, self.pos) {
            Some((end, Lexed::Integer { negative: false, magnitude: Some(n) })) => {
                self.pos = end;
                Ok(n)
            }
            _ => Err(self.err("expected an unsigned integer literal")),
        }
    }

    /// Step over a node array, `[[start,end,level],…]`, appending each
    /// label to `out` as its 10-byte little-endian record (`u32`, `u32`,
    /// `u16`). The grammar is [`Cursor::array`] of arrays of exactly
    /// three [`Cursor::uint`] literals, whitespace between any two
    /// tokens, each field within its type; anything else is an error.
    pub(crate) fn node_array(&mut self, out: &mut Vec<u8>) -> Result<(), JsonError> {
        self.ws();
        if !self.eat(b'[') {
            return Err(self.err("expected '['"));
        }
        self.ws();
        if self.eat(b']') {
            return Ok(());
        }
        loop {
            let (start, end, level) = match self.label_window() {
                Some(label) => label,
                None => {
                    self.ws();
                    self.label()?
                }
            };
            let mut record = [0u8; 10];
            record[..4].copy_from_slice(&start.to_le_bytes());
            record[4..8].copy_from_slice(&end.to_le_bytes());
            record[8..].copy_from_slice(&level.to_le_bytes());
            out.extend_from_slice(&record);
            if self.eat(b',') {
                continue;
            }
            self.ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b']') {
                return Ok(());
            }
            return Err(self.err("expected ',' or ']'"));
        }
    }

    /// The fast path of [`Cursor::node_array`]: one label read from the
    /// 32 bytes at the cursor. The non-digit bytes among the first 24,
    /// as a bit mask from three 8-byte loads, place the label's `[`,
    /// `,`, `,` and `]`; each field between two of them is one
    /// multiply-shift fold of the 8-byte load at its start. It takes
    /// only a label [`Cursor::label`] would take the same way — no
    /// whitespace, at most 24 bytes, each field 1 to 8 digits (`level`
    /// 1 to 5, at most `u16::MAX`) with no leading zero — and leaves
    /// everything else, the frame's last 32 bytes included, to it.
    fn label_window(&mut self) -> Option<(u32, u32, u16)> {
        let window = self.b[self.pos..].first_chunk::<32>()?;
        if window[0] != b'[' {
            return None;
        }
        let word = |at: usize| {
            let mut bytes = [0; 8];
            bytes.copy_from_slice(&window[at..at + 8]);
            u64::from_le_bytes(bytes) ^ lanes(b'0')
        };
        // The stops after the `[`: bit `i` set where byte `i` is not a digit.
        let mut stops = (0..3).fold(0, |m, i| m | non_digits(word(8 * i)) << (8 * i)) & !1;
        let mut fields = [0u64; 3];
        let mut from = 1;
        for (field, (delim, widest)) in fields.iter_mut().zip([(b',', 8), (b',', 8), (b']', 5)]) {
            let at = stops.trailing_zeros() as usize;
            let len = at.wrapping_sub(from);
            if !(1..=widest).contains(&len)
                || window[at] != delim
                || (len > 1 && window[from] == b'0')
            {
                return None;
            }
            *field = digit_run(word(from), len);
            stops &= stops - 1;
            from = at + 1;
        }
        let [start, end, level] = fields;
        let level = u16::try_from(level).ok()?;
        self.pos += from;
        Some((start as u32, end as u32, level))
    }

    /// One label by the grammar's scalar steps: `[`, three
    /// [`Cursor::uint`] literals within `u32` / `u32` / `u16` split by
    /// `,`, then `]`, whitespace between any two tokens.
    fn label(&mut self) -> Result<(u32, u32, u16), JsonError> {
        if !self.eat(b'[') {
            return Err(self.err("expected '['"));
        }
        let mut fields = [0u64; 3];
        let shape = [(u32::MAX.into(), b','), (u32::MAX.into(), b','), (u16::MAX.into(), b']')];
        for (field, (max, delim)) in fields.iter_mut().zip(shape) {
            *field = self.uint()?;
            if *field > max {
                return Err(self.err("label field out of range"));
            }
            self.ws();
            match self.b.get(self.pos) {
                Some(&c) if c == delim => self.pos += 1,
                Some(b']') => return Err(self.err("a label has fewer than three fields")),
                Some(b',') => return Err(self.err("a label has more than three fields")),
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
        let [start, end, level] = fields;
        Ok((start as u32, end as u32, level as u16))
    }

    /// Step over one string and return its text — borrowed from the
    /// input unless it holds escapes.
    pub(crate) fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.ws();
        if !self.eat(b'"') {
            return Err(self.err("expected a string"));
        }
        let input = self.input;
        let mut owned: Option<String> = None;
        let mut run = self.pos;
        loop {
            // Only ASCII bytes stop the run, so every slice taken here
            // falls on a character boundary.
            match self.b.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    let tail = &input[run..self.pos];
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(mut text) => {
                            text.push_str(tail);
                            Cow::Owned(text)
                        }
                    });
                }
                Some(b'\\') => {
                    let text = owned.get_or_insert_with(String::new);
                    text.push_str(&input[run..self.pos]);
                    self.pos += 1;
                    self.escape(text)?;
                    run = self.pos;
                }
                Some(&c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Decode the escape after a backslash onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let esc = *self.b.get(self.pos).ok_or_else(|| self.err("dangling escape"))?;
        self.pos += 1;
        out.push(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let code = self.hex4()?;
                // Surrogate pair: a high surrogate must be followed by
                // `\uDC00..DFFF`.
                let c = if (0xD800..0xDC00).contains(&code) {
                    if !self.input[self.pos..].starts_with("\\u") {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    char::from_u32(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
                } else {
                    char::from_u32(code)
                };
                c.ok_or_else(|| self.err("invalid codepoint"))?
            }
            _ => return Err(self.err("invalid escape")),
        });
        Ok(())
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
        let (end, lexed) = lex_number(self.b, start).ok_or_else(|| self.err("invalid number"))?;
        // Integer literals take an exact path: a literal must survive
        // as the integer the peer wrote, not the nearest f64 — above
        // 2^53 the two diverge silently. Out-of-range integers are a
        // typed error rather than a rounded lie.
        let value = match lexed {
            Lexed::Integer { negative: false, magnitude: Some(n) } => Json::uint(n),
            Lexed::Integer { negative: false, magnitude: None } => {
                return Err(self.err("integer literal exceeds the u64 range"))
            }
            Lexed::Integer { negative: true, magnitude } => match magnitude {
                Some(n) if n <= MAX_SAFE_INT => Json::Num(-(n as i64) as f64),
                _ => {
                    return Err(
                        self.err("negative integer below -2^53 is not exactly representable")
                    )
                }
            },
            Lexed::Float => match self.input[start..end].parse::<f64>() {
                Ok(n) if n.is_finite() => Json::Num(n),
                _ => return Err(self.err("invalid number")),
            },
        };
        self.pos = end;
        Ok(value)
    }

    /// Exactly four hex digits (`from_str_radix` alone would take a
    /// leading `+`).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .b
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let code = hex.iter().try_fold(0u32, |code, &h| {
            Some(code << 4 | char::from(h).to_digit(16)?)
        });
        let code = code.ok_or_else(|| self.err("invalid \\u escape"))?;
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
            // RFC 8259's number grammar and `\u` + exactly four hex digits.
            "+1", ".5", "1.", "01", "-01", "00", "\"\\u+041\"",
            "1e", "1e+", "-.5", "[1.]", "\"\\u00g1\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for (src, want) in [
            ("0", Json::Num(0.0)),
            ("-0", Json::Num(0.0)),
            ("10", Json::Num(10.0)),
            ("0.5", Json::Num(0.5)),
            ("-1.25e2", Json::Num(-125.0)),
            ("1E-2", Json::Num(0.01)),
            ("2e+3", Json::Num(2000.0)),
        ] {
            assert_eq!(parse(src).unwrap(), want, "{src}");
        }
        assert_eq!(parse(r#""\u0041\u00E9""#).unwrap(), Json::str("Aé"));
    }

    /// The integer-literal reader (the reply decoder's fields, the
    /// node-array scanner's scalar step) takes exactly the literals
    /// `parse` keeps as exact non-negative integers.
    #[test]
    fn uint_reads_exactly_the_unsigned_integer_literals() {
        for src in ["0", "7", " 42", "9007199254740993", "18446744073709551615"] {
            let mut cur = Cursor::new(src);
            let n = cur.uint().unwrap();
            assert_eq!(parse(src).unwrap().as_u64(), Some(n), "{src}");
        }
        for src in ["-1", "1.0", "1e3", "01", "+1", "18446744073709551616", "\"1\"", "[1]", ""] {
            assert!(Cursor::new(src).uint().is_err(), "{src:?} is not an unsigned integer literal");
        }
    }

    /// The scanner's word arithmetic reads what a byte-at-a-time walk
    /// reads: which of eight bytes are digits, and the value of a run
    /// of every length from 1 to 8.
    #[test]
    fn word_steps_agree_with_the_bytes() {
        for text in [*b"12345678", *b"99999999", *b"00000000", *b"4294967,", *b"7]/:.e -"] {
            let t = u64::from_le_bytes(text) ^ lanes(b'0');
            let stops = (0..8).filter(|&i| !text[i].is_ascii_digit()).fold(0, |m, i| m | 1 << i);
            assert_eq!(non_digits(t), stops, "{:?}", std::str::from_utf8(&text));
            let run = text.iter().take_while(|b| b.is_ascii_digit()).count();
            for len in 1..=run {
                let want: u64 = std::str::from_utf8(&text[..len]).unwrap().parse().unwrap();
                assert_eq!(digit_run(t, len), want, "{:?}[..{len}]", std::str::from_utf8(&text));
            }
        }
        // Bytes past ASCII are never digits.
        let high = u64::from_le_bytes(*b"1\xb02\xff3\x804\x39");
        assert_eq!(non_digits(high ^ lanes(b'0')), 0b0010_1010);
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
