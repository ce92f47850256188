//! Offline API-compatible subset of `serde_json` over the vendored
//! [`serde::Value`] data model.
//!
//! Rendering matches real serde_json where the workspace depends on it:
//! objects for string-keyed maps, arrays for sequences, shortest
//! round-trippable float formatting (`f64`'s `Display`). Maps with
//! non-string keys — which real serde_json rejects — render as arrays of
//! `[key, value]` pairs; the vendored `serde` accepts that shape back, so
//! typed round trips still work.

// The round-trip tests cover std's hash maps, which real serde_json
// serializes, so the workspace's map rule (`clippy.toml`) is off here.
#![allow(clippy::disallowed_types)]

use std::fmt::Write as _;

pub use serde::Value;
use serde::{Deserialize, Serialize};

/// JSON serialization/deserialization error.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error::new(e.to_string())
    }
}

/// Serialize `value` to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0)?;
    Ok(out)
}

/// Serialize `value` to a pretty-printed JSON string (2-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0)?;
    Ok(out)
}

/// Deserialize a `T` from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value(s)?;
    Ok(T::from_value(&value)?)
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * level));
    }
}

fn write_value(
    out: &mut String,
    v: &Value,
    indent: Option<usize>,
    level: usize,
) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(x) => {
            if !x.is_finite() {
                return Err(Error::new("cannot serialize non-finite float"));
            }
            // f64's Display is the shortest string that parses back to the
            // same value, so typed round trips are exact.
            let _ = write!(out, "{x}");
        }
        Value::Str(s) => write_json_string(out, s),
        Value::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return Ok(());
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1)?;
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Map(entries) => {
            let all_string_keys = entries.iter().all(|(k, _)| matches!(k, Value::Str(_)));
            if entries.is_empty() {
                out.push_str("{}");
                return Ok(());
            }
            if all_string_keys {
                out.push('{');
                for (i, (k, val)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    write_value(out, k, indent, level + 1)?;
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_value(out, val, indent, level + 1)?;
                }
                newline_indent(out, indent, level);
                out.push('}');
            } else {
                // Non-string keys: render as [[key, value], ...].
                out.push('[');
                for (i, (k, val)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    out.push('[');
                    write_value(out, k, indent, level + 1)?;
                    out.push(',');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_value(out, val, indent, level + 1)?;
                    out.push(']');
                }
                newline_indent(out, indent, level);
                out.push(']');
            }
        }
    }
    Ok(())
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            None => Err(Error::new("unexpected end of input")),
            Some(b'n') => {
                if self.eat_literal("null") {
                    Ok(Value::Null)
                } else {
                    Err(Error::new("invalid literal"))
                }
            }
            Some(b't') => {
                if self.eat_literal("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(Error::new("invalid literal"))
                }
            }
            Some(b'f') => {
                if self.eat_literal("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(Error::new("invalid literal"))
                }
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(_) => self.number(),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected ',' or ']' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            entries.push((Value::Str(key), val));
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected ',' or '}}' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| Error::new("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| Error::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: require a paired \uXXXX.
                                if !self.eat_literal("\\u") {
                                    return Err(Error::new("unpaired surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(Error::new("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                out.push(
                                    char::from_u32(c)
                                        .ok_or_else(|| Error::new("invalid surrogate pair"))?,
                                );
                            } else {
                                out.push(
                                    char::from_u32(cp)
                                        .ok_or_else(|| Error::new("invalid code point"))?,
                                );
                            }
                        }
                        _ => return Err(Error::new("invalid escape")),
                    }
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Multi-byte UTF-8: the input is a valid &str, so decode
                    // from the byte position before the consumed lead byte.
                    let start = self.pos - 1;
                    let rest = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| Error::new("invalid utf-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| Error::new("truncated \\u escape"))?;
        let s = std::str::from_utf8(hex).map_err(|_| Error::new("invalid \\u escape"))?;
        let cp = u32::from_str_radix(s, 16).map_err(|_| Error::new("invalid \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if text.is_empty() || text == "-" {
            return Err(Error::new(format!("invalid number at byte {start}")));
        }
        if !is_float {
            if let Some(stripped) = text.strip_prefix('-') {
                if let Ok(n) = stripped.parse::<i64>() {
                    return Ok(if n == 0 {
                        Value::U64(0)
                    } else {
                        Value::I64(-n)
                    });
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn scalar_round_trips() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(from_str::<i64>("-17").unwrap(), -17);
        assert_eq!(from_str::<f64>("0.125").unwrap(), 0.125);
        assert_eq!(to_string(&"a\"b\n").unwrap(), r#""a\"b\n""#);
        assert_eq!(from_str::<String>(r#""a\"b\n""#).unwrap(), "a\"b\n");
        assert_eq!(from_str::<String>(r#""é😀""#).unwrap(), "é😀");
    }

    #[test]
    fn float_round_trip_is_exact() {
        for x in [0.1, 1.0 / 3.0, 1e300, -2.5e-7, 123_456_789.123_456_79] {
            let s = to_string(&x).unwrap();
            assert_eq!(from_str::<f64>(&s).unwrap(), x, "via {s}");
        }
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![vec![1u32, 2], vec![], vec![3]];
        let back: Vec<Vec<u32>> = from_str(&to_string(&v).unwrap()).unwrap();
        assert_eq!(v, back);

        let m: HashMap<String, u32> = [("a".to_string(), 1), ("b".to_string(), 2)]
            .into_iter()
            .collect();
        let back: HashMap<String, u32> = from_str(&to_string(&m).unwrap()).unwrap();
        assert_eq!(m, back);

        // Non-string keys round-trip through the pair-array encoding.
        let m: HashMap<u32, String> = [(7, "x".to_string())].into_iter().collect();
        let back: HashMap<u32, String> = from_str(&to_string(&m).unwrap()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = vec![(1u32, "a".to_string()), (2, "b".to_string())];
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        let back: Vec<(u32, String)> = from_str(&pretty).unwrap();
        assert_eq!(v, back);
    }
}
