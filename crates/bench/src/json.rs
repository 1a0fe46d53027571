//! A minimal JSON parser and schema checker for the trace-smoke harness.
//!
//! The repository vendors no serde, so the smoke binary that validates the
//! observability exporters carries its own strict recursive-descent JSON
//! parser plus a checker for the small JSON-Schema subset used by the
//! checked-in schemas under `schemas/` (`type`, `properties`, `required`,
//! `items`, `enum`, `additionalProperties: false`, `minimum`, `minItems`).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64; JSON has one number type).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order normalized).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an unsigned integer (rejects fractional and negative
    /// numbers). Note f64 cannot represent every u64 exactly; 64-bit values
    /// that must survive bit-exactly (e.g. trace digests) should travel as
    /// hex strings instead.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Largest integer `f64` represents exactly (2^53); the cutover point
    /// for [`Json::lossless_u64`].
    pub const MAX_EXACT_U64: u64 = 1 << 53;

    /// Encodes a `u64` counter losslessly: a plain JSON number while exact
    /// in `f64`, a `"0x…"` hex string beyond 2^53 (`v as f64` above that
    /// silently rounds, so a digest-sized counter would round-trip wrong).
    /// [`Json::lossless_as_u64`] reads back either spelling; schemas pin
    /// such fields as `"type": ["integer", "string"]`.
    pub fn lossless_u64(v: u64) -> Json {
        if v <= Json::MAX_EXACT_U64 {
            Json::Num(v as f64)
        } else {
            Json::Str(format!("0x{v:x}"))
        }
    }

    /// Decodes either [`Json::lossless_u64`] spelling: an exact JSON number
    /// or the `"0x…"` hex-string fallback.
    pub fn lossless_as_u64(&self) -> Option<u64> {
        match self {
            Json::Str(s) => u64::from_str_radix(s.strip_prefix("0x")?, 16).ok(),
            other => other.as_u64(),
        }
    }

    /// The JSON type name (for error messages and schema checks).
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// Compact serializer: `parse(v.to_string())` round-trips every value this
/// module can represent (object keys come out in normalized order).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 => write!(f, "{}", *n as i64),
            Json::Num(n) => write!(f, "{n}"),
            Json::Str(s) => write_json_string(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_json_string(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_json_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// A parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses once
/// per level, so without a bound a hostile document (`[[[[...`) overflows
/// the stack and aborts the process. Every document the repository writes
/// or reads (schemas, manifests, Chrome traces, goldens) nests at most ten
/// levels deep.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (trailing whitespace allowed, nothing else).
///
/// # Errors
/// Returns a [`ParseError`] with byte offset on malformed input, including
/// arrays and objects nested deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let b = text.as_bytes();
    let mut p = Parser { b, i: 0, depth: 0 };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != b.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.i,
            msg: msg.to_owned(),
        }
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn lit(&mut self, s: &str, v: Json) -> Result<Json, ParseError> {
        if self.b[self.i..].starts_with(s.as_bytes()) {
            self.i += s.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{s}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object with `container`, refusing to open more
    /// than [`MAX_DEPTH`] levels.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(e) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if self.i + 4 > self.b.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.b[self.i..self.i + 4])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let n = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.i += 4;
                            // Surrogate pairs are not needed by our exporters.
                            out.push(char::from_u32(n).ok_or_else(|| self.err("bad codepoint"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                c if c < 0x20 => return Err(self.err("raw control character in string")),
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // Re-decode the multi-byte UTF-8 sequence.
                    let start = self.i - 1;
                    let s = std::str::from_utf8(&self.b[start..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let ch = s.chars().next().unwrap();
                    out.push(ch);
                    self.i = start + ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let s = std::str::from_utf8(&self.b[start..self.i]).expect("ascii");
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            let val = self.value()?;
            map.insert(key, val);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Validates `value` against a schema expressed in the JSON-Schema subset
/// used under `schemas/`. Returns every violation as a `path: problem` line.
pub fn check_schema(value: &Json, schema: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    check(value, schema, "$", &mut problems);
    problems
}

fn check(value: &Json, schema: &Json, path: &str, problems: &mut Vec<String>) {
    if let Some(types) = schema.get("type") {
        let allowed: Vec<&str> = match types {
            Json::Str(s) => vec![s.as_str()],
            Json::Arr(v) => v.iter().filter_map(Json::as_str).collect(),
            _ => vec![],
        };
        // JSON-Schema treats integers as a refinement of number.
        let actual = value.type_name();
        let ok = allowed.iter().any(|&t| {
            t == actual || (t == "integer" && matches!(value, Json::Num(n) if n.fract() == 0.0))
        });
        if !ok {
            problems.push(format!("{path}: expected type {allowed:?}, got {actual}"));
            return;
        }
    }
    if let Some(allowed) = schema.get("enum").and_then(Json::as_arr) {
        if !allowed.contains(value) {
            problems.push(format!("{path}: value not in enum"));
        }
    }
    if let (Json::Obj(map), Some(Json::Obj(props))) = (value, schema.get("properties")) {
        if let Some(required) = schema.get("required").and_then(Json::as_arr) {
            for key in required.iter().filter_map(Json::as_str) {
                if !map.contains_key(key) {
                    problems.push(format!("{path}: missing required member `{key}`"));
                }
            }
        }
        let closed = matches!(schema.get("additionalProperties"), Some(Json::Bool(false)));
        for (key, member) in map {
            match props.get(key) {
                Some(sub) => check(member, sub, &format!("{path}.{key}"), problems),
                None if closed => {
                    problems.push(format!("{path}: unexpected member `{key}`"));
                }
                None => {}
            }
        }
    }
    if let (Json::Num(n), Some(min)) = (value, schema.get("minimum").and_then(Json::as_num)) {
        if *n < min {
            problems.push(format!("{path}: {n} is below minimum {min}"));
        }
    }
    if let Json::Arr(items) = value {
        if let Some(min) = schema.get("minItems").and_then(Json::as_u64) {
            if (items.len() as u64) < min {
                problems.push(format!(
                    "{path}: array has {} item(s), fewer than minItems {min}",
                    items.len()
                ));
            }
        }
        if let Some(item_schema) = schema.get("items") {
            for (i, item) in items.iter().enumerate() {
                check(item, item_schema, &format!("{path}[{i}]"), problems);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_round_trip_shapes() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":"x\ny","c":null,"d":true}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert_eq!(v.get("d"), Some(&Json::Bool(true)));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].as_num(), Some(-300.0));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("\"\\q\"").is_err());
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH);
        assert!(err.msg.contains("nesting"), "{err}");
        // Deep enough to overflow an unbounded recursive parser.
        assert!(parse(&nest(200_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(200_000)).is_err());
        // Depth is per path, not a count of containers.
        let wide = format!("[{}]", vec![nest(MAX_DEPTH - 1); 3].join(","));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn schema_subset_checks() {
        let schema = parse(
            r#"{"type":"object","required":["n"],"additionalProperties":false,
                "properties":{"n":{"type":"integer"},"s":{"type":"string"}}}"#,
        )
        .unwrap();
        assert!(check_schema(&parse(r#"{"n":3,"s":"ok"}"#).unwrap(), &schema).is_empty());
        let bad = check_schema(&parse(r#"{"n":3.5,"x":1}"#).unwrap(), &schema);
        assert_eq!(bad.len(), 2, "{bad:?}");
    }

    #[test]
    fn minimum_bounds_numbers() {
        let schema = parse(r#"{"type":"number","minimum":0}"#).unwrap();
        assert!(check_schema(&parse("0").unwrap(), &schema).is_empty());
        assert!(check_schema(&parse("1.5").unwrap(), &schema).is_empty());
        let bad = check_schema(&parse("-0.5").unwrap(), &schema);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("below minimum"), "{bad:?}");
    }

    #[test]
    fn min_items_bounds_arrays() {
        let schema = parse(r#"{"type":"array","minItems":2,"items":{"type":"integer"}}"#).unwrap();
        assert!(check_schema(&parse("[1,2]").unwrap(), &schema).is_empty());
        let bad = check_schema(&parse("[1]").unwrap(), &schema);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("minItems"), "{bad:?}");
        // Item checks still run alongside the length check.
        let both = check_schema(&parse(r#"["x"]"#).unwrap(), &schema);
        assert_eq!(both.len(), 2, "{both:?}");
    }
}
