//! [`Json`] is the value tree; [`Json::encode`] produces compact RFC 8259
//! output and [`Json::parse`] builds a tree by walking a
//! [`Reader`](crate::Reader), the crate's one tokenizer, with a nesting
//! cap ([`MAX_DEPTH`]) so adversarial request bodies cannot blow the
//! stack, and no panicking index or `unwrap` (hl-lint's request-path rule
//! covers this crate). Object member order is preserved (members are a
//! `Vec`, not a map), which keeps encoding deterministic — the property
//! the byte-identical `/evaluate` acceptance test relies on.
//!
//! Numbers are `f64` (as in JSON itself). Encoding uses Rust's shortest
//! round-trip `Display` for `f64`, so `encode → parse` is the identity on
//! finite numbers (asserted by hl-serve's `json_roundtrip` proptest
//! suite). Non-finite numbers have no JSON representation and encode as
//! `null`.

use std::fmt;

use crate::reader::{Kind, Reader};

/// Maximum nesting depth [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (JSON numbers are doubles).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; member order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact encoding.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => encode_number(*n, out),
            Json::Str(s) => encode_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_string(k, out);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (any value type at the top level; only
    /// whitespace may follow it).
    ///
    /// # Errors
    /// [`JsonError`] with the byte offset and a reason on malformed input,
    /// and on nesting deeper than [`MAX_DEPTH`].
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut reader = Reader::new(input);
        let v = Json::read(&mut reader)?;
        reader.finish()?;
        Ok(v)
    }

    /// Reads the value `reader` stands at into a tree.
    fn read(reader: &mut Reader<'_>) -> Result<Json, JsonError> {
        Ok(match reader.peek()? {
            Kind::Null => {
                reader.null()?;
                Json::Null
            }
            Kind::Bool => Json::Bool(reader.bool()?),
            Kind::Num => Json::Num(reader.number()?),
            Kind::Str => Json::Str(reader.string()?.into_owned()),
            Kind::Arr => {
                reader.enter_array()?;
                let mut items = Vec::new();
                while reader.next_element()? {
                    items.push(Json::read(reader)?);
                }
                Json::Arr(items)
            }
            Kind::Obj => {
                reader.enter_object()?;
                let mut members = Vec::new();
                while let Some(key) = reader.next_key()? {
                    let value = Json::read(reader)?;
                    members.push((key.into_owned(), value));
                }
                Json::Obj(members)
            }
        })
    }
}

fn encode_number(n: f64, out: &mut String) {
    use fmt::Write;
    if n.is_finite() {
        // Rust's Display for f64 is the shortest string that round-trips,
        // so parse(encode(x)) == x exactly.
        let _ = write!(out, "{n}");
    } else {
        // NaN / infinities have no JSON representation.
        out.push_str("null");
    }
}

fn encode_string(s: &str, out: &mut String) {
    use fmt::Write;
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub pos: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.pos, self.reason)
    }
}

impl std::error::Error for JsonError {}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::Reader;

    #[test]
    fn encodes_scalars_and_containers() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Num(1.5)),
            ("b".into(), Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("c".into(), Json::str("x")),
        ]);
        assert_eq!(v.encode(), r#"{"a":1.5,"b":[null,true],"c":"x"}"#);
        assert_eq!(Json::Num(f64::NAN).encode(), "null");
        assert_eq!(Json::Num(-0.0).encode(), "-0");
    }

    #[test]
    fn escapes_and_unescapes_strings() {
        let s = "quote\" back\\ nl\n cr\r tab\t bell\u{7} nul\u{0} é☃";
        let enc = Json::str(s).encode();
        assert!(enc.contains("\\\""));
        assert!(enc.contains("\\u0007"));
        assert!(enc.contains("\\u0000"));
        assert_eq!(Json::parse(&enc).unwrap(), Json::str(s));
        // Explicit \u escapes, including a surrogate pair.
        assert_eq!(
            Json::parse(r#""\u0041\ud83d\ude00\/""#).unwrap(),
            Json::str("A😀/")
        );
    }

    #[test]
    fn parses_numbers() {
        for (text, want) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("12", 12.0),
            ("-3.5", -3.5),
            ("1e3", 1000.0),
            ("2.5E-2", 0.025),
            ("1e308", 1e308),
        ] {
            assert_eq!(Json::parse(text).unwrap(), Json::Num(want), "{text}");
        }
    }

    /// Documents `Json::parse` must refuse.
    const MALFORMED: &[&str] = &[
        "",
        "  ",
        "{",
        "[1,",
        "tru",
        "nul",
        "01",
        "1.",
        "1e",
        "+1",
        "--1",
        "\"abc",
        "\"\\q\"",
        "\"\\u12g4\"",
        "{\"a\"}",
        "{\"a\":}",
        "{a:1}",
        "[1 2]",
        "1 2",
        "{} {}",
        "\"\\ud800\"",
        "\"\\ud800\\u0041\"",
        "1e999",
        "\u{1}",
        // Raw control characters must be escaped.
        "\"a\nb\"",
    ];

    /// Walks `text` with [`Reader::skip`] and [`Reader::finish`].
    fn skip_walk(text: &str) -> Result<(), JsonError> {
        let mut reader = Reader::new(text);
        reader.skip()?;
        reader.finish()
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in MALFORMED {
            assert!(Json::parse(bad).is_err(), "must reject {bad:?}");
        }
    }

    #[test]
    fn a_reader_walk_rejects_the_malformed_documents_too() {
        for bad in MALFORMED {
            assert_eq!(
                skip_walk(bad).unwrap_err(),
                Json::parse(bad).unwrap_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn a_reader_walk_caps_depth_like_parse() {
        for depth in [MAX_DEPTH, MAX_DEPTH + 1] {
            let arrays = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
            let mut objects = "{\"k\":".repeat(depth);
            objects.push('1');
            objects.push_str(&"}".repeat(depth));
            let empty = format!("{}{}", "[".repeat(depth + 1), "]".repeat(depth + 1));
            for doc in [arrays, objects, empty] {
                let parsed = Json::parse(&doc).map(drop);
                assert_eq!(skip_walk(&doc), parsed, "depth {depth}: {doc}");
                assert_eq!(parsed.is_ok(), depth == MAX_DEPTH, "depth {depth}: {doc}");
            }
        }
    }

    #[test]
    fn depth_limit_is_enforced() {
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.reason.contains("nesting"), "{err}");
        // Objects count toward the same limit.
        let mut doc = String::new();
        for _ in 0..=MAX_DEPTH {
            doc.push_str("{\"k\":");
        }
        doc.push('1');
        doc.push_str(&"}".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&doc).is_err());
    }

    #[test]
    fn accessors_navigate_objects() {
        let v = Json::parse(r#"{"n":2,"s":"x","b":false,"a":[1],"n":3}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(2.0), "first wins");
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(false));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("n"), None);
    }

    #[test]
    fn whitespace_is_tolerated_everywhere() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } \n").unwrap();
        assert_eq!(v.encode(), r#"{"a":[1,2],"b":null}"#);
    }
}
