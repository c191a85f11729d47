//! A minimal recursive-descent parser for the JSON subset that
//! `TableReport::to_json` writes (objects, arrays, strings, numbers):
//! `repro --check` reads the expected reports under
//! `crates/bench/expected/` with it, without a serde dependency.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in document order (duplicate keys kept as-is).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up `key` in an object (first occurrence); `None` for
    /// non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// A human-readable message naming the byte offset of the first problem.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of document".to_string()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(JsonValue::String(parse_string(bytes, pos)?)),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "non-UTF-8 number")?;
    text.parse::<f64>()
        .map(JsonValue::Number)
        .map_err(|_| format!("bad number {text:?} at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        // Surrogate pairs are not needed for reports;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?} at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences pass
                // through unmodified).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| format!("non-UTF-8 string at byte {}", *pos))?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    parse_seq(bytes, pos, [b'[', b']'], parse_value).map(JsonValue::Array)
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let pair = |bytes: &[u8], pos: &mut usize| {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        expect(bytes, pos, b':')?;
        Ok((key, parse_value(bytes, pos)?))
    };
    parse_seq(bytes, pos, [b'{', b'}'], pair).map(JsonValue::Object)
}

/// Parses `open`, then `item`s separated by commas, then `close`.
fn parse_seq<T>(
    bytes: &[u8],
    pos: &mut usize,
    [open, close]: [u8; 2],
    item: impl Fn(&[u8], &mut usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    expect(bytes, pos, open)?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&close) {
        *pos += 1;
        return Ok(items);
    }
    loop {
        items.push(item(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(&c) if c == close => {
                *pos += 1;
                return Ok(items);
            }
            _ => return Err(format!("unclosed {:?} at byte {}", open as char, *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_report_shape() {
        let doc = r#"{
            "experiment": "table1",
            "pi": 3.25,
            "neg": -2e3,
            "tables": [ { "title": "t \"x\"", "rows": [["a", "b"], []] } ]
        }"#;
        let v = parse(doc).unwrap();
        assert_eq!(
            v.get("experiment").and_then(JsonValue::as_str),
            Some("table1")
        );
        assert_eq!(v.get("pi"), Some(&JsonValue::Number(3.25)));
        assert_eq!(v.get("neg"), Some(&JsonValue::Number(-2000.0)));
        let tables = match v.get("tables").unwrap() {
            JsonValue::Array(items) => items,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            tables[0].get("title").and_then(JsonValue::as_str),
            Some("t \"x\"")
        );
    }

    #[test]
    fn escapes_round_trip_through_the_parser() {
        let raw = "quote \" slash \\ newline \n tab \t unit \u{1} done";
        let doc = format!("{{ \"k\": \"{}\" }}", crate::json_escape(raw));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").and_then(JsonValue::as_str), Some(raw));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "[1, 2",
            "{\"a\": 1} trailing",
            "\"unterminated",
            "nul",
            "{\"a\" 1}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }
}
