//! A minimal line-oriented JSON reader/writer.
//!
//! The workspace deliberately has no third-party dependencies, so the
//! server's wire format is handled here: a recursive-descent parser into
//! [`Json`] and a writer with full string escaping. Only what the
//! protocol needs — no comments, no trailing commas, numbers as `f64`
//! (the protocol never carries integers that lose `f64` precision;
//! 64-bit fingerprints travel as hex *strings*).

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key/value pairs in insertion order (duplicates keep the first).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= (1u64 << 53) as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises the value on one line.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self);
        out
    }
}

/// Builds an object from key/value pairs — the writer-side helper the
/// server composes responses with.
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A string value.
pub fn s(text: impl Into<String>) -> Json {
    Json::Str(text.into())
}

/// A numeric value.
pub fn n(value: f64) -> Json {
    Json::Num(value)
}

fn write_value(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(x) => {
            if x.fract() == 0.0 && x.abs() < (1u64 << 53) as f64 {
                let _ = write!(out, "{}", *x as i64);
            } else {
                let _ = write!(out, "{x}");
            }
        }
        Json::Str(text) => write_string(out, text),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, k);
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

fn write_string(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
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

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser { text: input, bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
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

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected '{}' at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-')
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                            if self.pos + 4 >= self.bytes.len() {
                                return Err("truncated \\u escape".to_string());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            // Surrogate pairs are not needed by the
                            // protocol; map them to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in
                    // one slice. Both are ASCII, which never occurs
                    // inside a multi-byte UTF-8 sequence, so the run
                    // ends on a character boundary.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
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
            let value = self.value()?;
            if !pairs.iter().any(|(k, _)| *k == key) {
                pairs.push((key, value));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_protocol_shapes() {
        let line = r#"{"op":"edit","id":"p1","delta":[{"action":"replace","name":"f","text":"func @f() {\nentry:\n  ret\n}"}],"step_budget":100}"#;
        let v = parse(line).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("edit"));
        assert_eq!(v.get("step_budget").and_then(Json::as_u64), Some(100));
        let delta = v.get("delta").and_then(Json::as_arr).unwrap();
        assert!(delta[0].get("text").and_then(Json::as_str).unwrap().contains('\n'));
        // Serialise and re-parse: fixpoint.
        let again = parse(&v.to_line()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{\"a\":").is_err());
        assert!(parse("[1,2,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn parses_multibyte_utf8_strings() {
        let text = "héllo → wörld 🦀 ∀x";
        let v = parse(&format!("{{\"k\":\"{text}\",\"{text}\":1}}")).unwrap();
        assert_eq!(v.get("k").and_then(Json::as_str), Some(text));
        assert_eq!(v.get(text).and_then(Json::as_u64), Some(1));
        // Runs of multi-byte characters around escapes.
        let v = parse("\"é\\n🦀\\\"ü\"").unwrap();
        assert_eq!(v, Json::Str("é\n🦀\"ü".to_string()));
    }

    #[test]
    fn decodes_every_escape() {
        let v = parse(r#""q\"b\\s\/n\nr\rt\tb\bf\fu\u0041\u00e9\u2192""#).unwrap();
        assert_eq!(v, Json::Str("q\"b\\s/n\nr\rt\tb\u{8}f\u{c}uAé→".to_string()));
        assert!(parse(r#""\x""#).is_err(), "unknown escape");
        assert!(parse(r#""\u12""#).is_err(), "truncated \\u escape");
        assert!(parse(r#""\uzzzz""#).is_err(), "non-hex \\u escape");
        assert!(parse("\"abc\\").is_err(), "escape at end of input");
    }

    #[test]
    fn parses_a_one_mebibyte_string() {
        let body: String = "abc→🦀\n".repeat((1 << 20) / 11 + 1);
        assert!(body.len() >= 1 << 20);
        let line = Json::Str(body.clone()).to_line();
        // `assert!`, not `assert_eq!`: a failure must not print 1 MiB.
        assert!(parse(&line).unwrap() == Json::Str(body), "1 MiB string did not round-trip");
    }

    #[test]
    fn escapes_control_characters() {
        let v = Json::Str("a\"b\\c\nd\u{1}".to_string());
        let line = v.to_line();
        assert_eq!(line, "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(parse(&line).unwrap(), v);
    }
}
