//! Offline stand-in for the `serde_json` crate.
//!
//! Serializes the vendored `serde` shim's [`Value`] tree to JSON text and
//! parses it back: [`to_string`], [`to_string_pretty`], [`from_str`]. The
//! grammar is standard JSON; integers round-trip exactly (split into
//! `UInt`/`Int` in the value model), floats use Rust's shortest round-trip
//! formatting.

#![forbid(unsafe_code)]

pub use serde::Value;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Serialization/parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error(e.0)
    }
}

impl From<Error> for std::io::Error {
    fn from(e: Error) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

// ---- writing ---------------------------------------------------------------

fn escape_into(s: &str, out: &mut String) {
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

fn write_float(f: f64, out: &mut String) {
    if f.is_finite() {
        let start = out.len();
        let _ = write!(out, "{f}");
        // Keep the float/integer distinction in the text form so a
        // round-trip preserves Value::Float where it matters little but
        // costs nothing.
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // JSON has no inf/nan; emit null like serde_json does.
        out.push_str("null");
    }
}

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // Numbers are formatted straight into `out`: no `String` per value
        // (writing to a `String` cannot fail).
        Value::UInt(u) => {
            let _ = write!(out, "{u}");
        }
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => write_float(*f, out),
        Value::String(s) => escape_into(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(item, out, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                escape_into(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, out, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * level));
    }
}

/// Serialize a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

/// Serialize a value to pretty-printed JSON (2-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

// ---- parsing ---------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser { bytes: text.as_bytes(), pos: 0 }
    }

    fn error(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(self.error("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.parse_value()?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(fields));
                        }
                        _ => return Err(self.error("expected ',' or '}'")),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(self.error("unexpected character")),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("short \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| self.error("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.error("bad \\u escape"))?;
                            // Surrogate pairs are not emitted by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy one UTF-8 scalar.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.error("invalid utf8"))?;
                    let c = s.chars().next().ok_or_else(|| self.error("unterminated string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
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
            .map_err(|_| self.error("invalid number"))?;
        if !is_float {
            if text.starts_with('-') {
                // Parsed signed, so `i64::MIN` (whose magnitude is not an
                // `i64`) stays an integer.
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Value::Int(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.error(&format!("invalid number {text:?}")))
    }
}

/// Parse JSON text into a value.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut p = Parser::new(text);
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(T::from_value(&value)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for (v, text) in [
            (Value::Null, "null"),
            (Value::Bool(true), "true"),
            (Value::UInt(18446744073709551615), "18446744073709551615"),
            (Value::Int(-42), "-42"),
            (Value::String("a\"b\\c\nd".into()), r#""a\"b\\c\nd""#),
        ] {
            let mut out = String::new();
            write_value(&v, &mut out, None, 0);
            assert_eq!(out, text);
            let back: Value = Parser::new(&out).parse_value().unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn floats_roundtrip() {
        for f in [0.0, 1.5, -2.25, 1e300, 0.1, 70.0] {
            let s = to_string(&f).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back, f, "{s}");
        }
    }

    #[test]
    fn numbers_written_in_place_keep_their_bytes_and_roundtrip() {
        for (v, text) in [
            (Value::UInt(0), "0"),
            (Value::UInt(u64::MAX), "18446744073709551615"),
            (Value::Int(i64::MIN), "-9223372036854775808"),
            (Value::Float(0.1), "0.1"),
            (Value::Float(1e300), &format!("{}.0", 1e300)),
            (Value::Float(-0.0), "-0.0"),
            (Value::Float(70.0), "70.0"),
            (Value::String("\u{1}".into()), "\"\\u0001\""),
        ] {
            let mut out = String::from("[");
            write_value(&v, &mut out, None, 0);
            assert_eq!(&out[1..], text);
            let back: Value = Parser::new(&out[1..]).parse_value().unwrap();
            match (&back, &v) {
                (Value::Float(a), Value::Float(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "{text}")
                }
                _ => assert_eq!(back, v),
            }
        }
    }

    #[test]
    fn nested_and_pretty() {
        let v = Value::Object(vec![
            ("a".into(), Value::Array(vec![Value::UInt(1), Value::UInt(2)])),
            ("b".into(), Value::Object(vec![("c".into(), Value::Null)])),
            ("empty".into(), Value::Array(vec![])),
        ]);
        let mut compact = String::new();
        write_value(&v, &mut compact, None, 0);
        assert_eq!(compact, r#"{"a":[1,2],"b":{"c":null},"empty":[]}"#);
        let mut pretty = String::new();
        write_value(&v, &mut pretty, Some(2), 0);
        let reparsed: Value = Parser::new(&pretty).parse_value().unwrap();
        assert_eq!(reparsed, v);
    }

    #[test]
    fn parse_errors() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("1 2").is_err());
        assert!(from_str::<Value>("\"abc").is_err());
    }
}
