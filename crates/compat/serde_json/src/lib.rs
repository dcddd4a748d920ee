//! Offline stand-in for `serde_json`, speaking the stub `serde::Value`
//! tree directly. Floats are written with Rust's shortest round-trip
//! `Display`, so serialize → deserialize reproduces every finite `f64`
//! bit-for-bit — the property the workspace's round-trip tests rely on.

use serde::{DeserializeOwned, Serialize, Value};

pub use serde::Error;

/// Serializes a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.serialize(), &mut out, None, 0);
    Ok(out)
}

/// Serializes a value to human-readable JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.serialize(), &mut out, Some(2), 0);
    Ok(out)
}

/// Parses JSON text into any deserializable type.
pub fn from_str<T: DeserializeOwned>(text: &str) -> Result<T, Error> {
    let value = parse(text)?;
    T::deserialize(&value)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(value: &Value, out: &mut String, indent: Option<usize>, level: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Num(x) => {
            if x.is_finite() {
                // `Display` for f64 is shortest-round-trip; force a `.0`
                // only when it prints like an integer so the value stays
                // typed as a float on re-read of heterogeneous data.
                let text = x.to_string();
                out.push_str(&text);
            } else {
                // Match serde_json: non-finite floats become null.
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
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
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(key, out);
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
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Deepest array/object nesting [`parse`] accepts (upstream serde_json's
/// recursion limit). The parser recurses once per level, so without a cap
/// a few kilobytes of `[` would overflow the stack and abort the process.
pub const MAX_DEPTH: usize = 128;

/// Parses JSON text into a [`Value`] tree. Input nested deeper than
/// [`MAX_DEPTH`] is rejected with an error.
pub fn parse(text: &str) -> Result<Value, Error> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error::custom(format!("trailing characters at byte {pos}")));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => *pos += 1,
            _ => break,
        }
    }
}

/// Parses one value whose enclosing arrays/objects number `depth`.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(Error::custom(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        )));
    }
    match bytes.get(*pos) {
        None => Err(Error::custom("unexpected end of input")),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    other => {
                        return Err(Error::custom(format!(
                            "expected `,` or `]` in array, found {other:?}"
                        )))
                    }
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(Error::custom("expected `:` after object key"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    other => {
                        return Err(Error::custom(format!(
                            "expected `,` or `}}` in object, found {other:?}"
                        )))
                    }
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Value) -> Result<Value, Error> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(Error::custom(format!("invalid literal at byte {pos}")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, Error> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(Error::custom("expected string"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(Error::custom("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0C}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| Error::custom("truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| Error::custom("invalid \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| Error::custom("invalid \\u escape"))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| Error::custom("invalid \\u code point"))?,
                        );
                        *pos += 4;
                    }
                    other => {
                        return Err(Error::custom(format!("invalid escape {other:?}")));
                    }
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input came from &str, so
                // boundaries are valid).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| Error::custom("invalid UTF-8 in string"))?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    while let Some(b) = bytes.get(*pos) {
        match b {
            b'-' | b'+' | b'0'..=b'9' | b'.' | b'e' | b'E' => *pos += 1,
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| Error::custom("invalid number"))?;
    if text.is_empty() {
        return Err(Error::custom(format!("unexpected character at byte {start}")));
    }
    let is_float = text.contains(['.', 'e', 'E']);
    if !is_float {
        if let Some(stripped) = text.strip_prefix('-') {
            if let Ok(n) = stripped.parse::<u128>() {
                return Ok(Value::Int(-(n as i128)));
            }
        } else if let Ok(n) = text.parse::<u128>() {
            return Ok(Value::UInt(n));
        }
    }
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| Error::custom(format!("invalid number `{text}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_roundtrip_is_exact() {
        for &x in &[0.1, 1.0 / 3.0, 6.02214076e23, -0.0, 123_456_789.123_456_79] {
            let json = to_string(&x).unwrap();
            let back: f64 = from_str(&json).unwrap();
            assert!(back == x || (back == 0.0 && x == 0.0), "{x} -> {json} -> {back}");
        }
    }

    #[test]
    fn nested_structures_roundtrip() {
        let v = Value::Object(vec![
            ("a".into(), Value::Array(vec![Value::Int(-3), Value::UInt(u64::MAX as u128 + 7)])),
            ("s".into(), Value::Str("quote \" slash \\ tab \t".into())),
            ("n".into(), Value::Null),
        ]);
        let compact = {
            let mut out = String::new();
            write_value(&v, &mut out, None, 0);
            out
        };
        assert_eq!(parse(&compact).unwrap(), v);
        let pretty = {
            let mut out = String::new();
            write_value(&v, &mut out, Some(2), 0);
            out
        };
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn nesting_past_the_depth_limit_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(parse(&objects).is_err());
        // 60 000 unclosed `[` fit under the sweep daemon's 64 KiB body cap.
        assert!(parse(&"[".repeat(60_000)).is_err());
    }
}
