//! A minimal, dependency-free strict JSON parser and validity checker.
//!
//! The CI smoke job and the trace tests need to assert that the Chrome
//! `trace_event` export *parses*, and the benchmark telemetry layer needs
//! to *read* its own `BENCH_*.json` suites back — all without pulling
//! serde into the build (the container has no crates.io access). This is
//! a strict RFC 8259 recursive-descent parser: it accepts exactly
//! well-formed JSON documents, reports the byte offset of the first
//! violation, and (via [`parse`]) builds a [`Value`] tree with decoded
//! strings. Objects keep their key order and duplicate keys are rejected,
//! which the strict schema readers rely on.

use std::fmt;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source key order (duplicate keys are a parse error).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The object's fields, or `None` for non-objects.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The array's elements, or `None` for non-arrays.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, or `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, or `None` for non-numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The number as an exact unsigned integer (rejects fractions,
    /// negatives, and values beyond 2^53), or `None`.
    pub fn as_u64(&self) -> Option<u64> {
        let v = self.as_f64()?;
        if v >= 0.0 && v.fract() == 0.0 && v <= 9_007_199_254_740_992.0 {
            Some(v as u64)
        } else {
            None
        }
    }

    /// The boolean, or `None` for non-booleans.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Looks up an object field by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj()?
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    /// A short name for the value's type, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.kind())
    }
}

/// Parses one well-formed JSON document into a [`Value`].
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error (or
/// the offending duplicate object key).
pub fn parse(src: &str) -> Result<Value, String> {
    let bytes = src.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// Validates that `src` is one well-formed JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn validate(src: &str) -> Result<(), String> {
    parse(src).map(|_| ())
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}",
                b as char,
                self.pos.saturating_sub(1)
            ))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected '{lit}' at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Value::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("expected a JSON value at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut fields: Vec<(String, Value)> = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let at = self.pos;
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate object key {key:?} at byte {at}"));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Obj(fields)),
                _ => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}",
                        self.pos.saturating_sub(1)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Arr(items)),
                _ => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}",
                        self.pos.saturating_sub(1)
                    ))
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let mut u: u16 = 0;
        for _ in 0..4 {
            match self.bump() {
                Some(c) if c.is_ascii_hexdigit() => {
                    u = u << 4 | (c as char).to_digit(16).expect("hex digit") as u16;
                }
                _ => {
                    return Err(format!(
                        "bad \\u escape at byte {}",
                        self.pos.saturating_sub(1)
                    ))
                }
            }
        }
        Ok(u)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.hex4()?;
                        // combine surrogate pairs; an unpaired surrogate is
                        // syntactically legal JSON and decodes to U+FFFD
                        if (0xd800..0xdc00).contains(&hi)
                            && self.bytes[self.pos..].starts_with(b"\\u")
                        {
                            let mark = self.pos;
                            self.pos += 2;
                            let lo = self.hex4()?;
                            if (0xdc00..0xe000).contains(&lo) {
                                let c =
                                    0x10000 + ((hi as u32 - 0xd800) << 10) + (lo as u32 - 0xdc00);
                                out.push(char::from_u32(c).unwrap_or('\u{fffd}'));
                            } else {
                                out.push('\u{fffd}');
                                out.push(char::from_u32(lo as u32).unwrap_or('\u{fffd}'));
                            }
                            let _ = mark;
                        } else {
                            out.push(char::from_u32(hi as u32).unwrap_or('\u{fffd}'));
                        }
                    }
                    _ => return Err(format!("bad escape at byte {}", self.pos.saturating_sub(1))),
                },
                Some(c) if c < 0x20 => {
                    return Err(format!(
                        "raw control character at byte {}",
                        self.pos.saturating_sub(1)
                    ))
                }
                Some(c) => {
                    // re-assemble the UTF-8 sequence starting at c
                    let start = self.pos - 1;
                    let len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    self.pos = (start + len).min(self.bytes.len());
                    match std::str::from_utf8(&self.bytes[start..self.pos]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(format!("invalid UTF-8 at byte {start}")),
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(format!("bad number at byte {}", self.pos)),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(format!("bad fraction at byte {}", self.pos));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(format!("bad exponent at byte {}", self.pos));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("bad number at byte {start}"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

/// Escapes a string for embedding in a JSON string literal (shared by the
/// Chrome-trace and benchmark-telemetry writers).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
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
    out
}

/// Formats an `f64` as a valid JSON number. JSON has no NaN/Infinity, so
/// non-finite values are written as `0`; finite values use Rust's shortest
/// round-trippable decimal form, so write → parse is exact.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        if v.fract() == 0.0 && v.abs() < 1e15 {
            format!("{v:.0}")
        } else {
            format!("{v}")
        }
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::{parse, validate, Value};

    #[test]
    fn accepts_well_formed_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "-12.5e3",
            r#""a\nbé""#,
            r#"{"a":[1,2,{"b":null}],"c":"x"}"#,
            "  [ 1 , 2 ]  ",
        ] {
            validate(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "01",
            "1.e3",
            "\"unterminated",
            "\"bad\\q\"",
            "nulll",
            "[1] [2]",
            "{'a':1}",
            "{\"a\":1,\"a\":2}",
        ] {
            assert!(validate(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn parse_builds_the_value_tree() {
        let v = parse(r#"{"a":[1,-2.5,true],"b":"x\ny","c":null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1].as_f64(),
            Some(-2.5)
        );
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_bool(),
            Some(true)
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("c"), Some(&Value::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn strings_decode_escapes_and_surrogates() {
        assert_eq!(parse(r#""é\t\"\\""#).unwrap(), Value::Str("é\t\"\\".into()));
        // surrogate pair for 💡 (U+1F4A1)
        assert_eq!(parse(r#""💡""#).unwrap(), Value::Str("💡".into()));
        // lone surrogate decodes to the replacement character
        assert_eq!(
            parse(r#""\ud83dx""#).unwrap(),
            Value::Str("\u{fffd}x".into())
        );
        // raw multi-byte UTF-8 passes through
        assert_eq!(parse("\"héllo💡\"").unwrap(), Value::Str("héllo💡".into()));
    }

    #[test]
    fn as_u64_is_exact() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("42.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1e30").unwrap().as_u64(), None);
    }

    #[test]
    fn number_formatting_round_trips() {
        for v in [0.0, 1.5, -2.25, 1e-9, 12345678.901, 3.0, 1e300] {
            let s = super::number(v);
            assert_eq!(parse(&s).unwrap().as_f64(), Some(v), "{s}");
        }
        assert_eq!(super::number(f64::NAN), "0");
        assert_eq!(super::number(f64::INFINITY), "0");
    }
}
