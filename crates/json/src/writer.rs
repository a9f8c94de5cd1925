//! [`Writer`] appends one compact JSON document straight into a byte
//! buffer: the write-side mirror of [`Reader`](crate::Reader), with no
//! [`Json`] tree in between. Containers take a closure that writes their
//! members; the writer places the commas and colons itself.
//!
//! ```
//! use hl_json::Writer;
//!
//! let mut w = Writer::new();
//! w.object(|w| {
//!     w.field("design", "HighLight").field("edp", 0.25);
//!     w.key("ranks").array(|w| {
//!         w.value(4.0).value(8.0);
//!     });
//! });
//! assert_eq!(w.into_string(), r#"{"design":"HighLight","edp":0.25,"ranks":[4,8]}"#);
//! ```
//!
//! Numbers go through the crate's shortest round-trip formatter (byte
//! for byte `format!("{n}")`, `null` for NaN and ±infinity); strings
//! without anything to escape are copied whole. [`View`] wraps the code
//! that writes one document so it can be encoded on its own or nested
//! in a larger one.

use crate::json::Json;
use crate::number::write_f64;

/// Appends a compact JSON document to a byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    out: Vec<u8>,
    /// The next value or key in the open container needs a `,` first.
    comma: bool,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer whose buffer holds `bytes` before it grows.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            out: Vec::with_capacity(bytes),
            comma: false,
        }
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.out
    }

    /// The document written so far as a string.
    pub fn into_string(self) -> String {
        // Every write copies a `&str` or ASCII, so the bytes are UTF-8.
        String::from_utf8(self.out)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    }

    #[inline]
    fn separate(&mut self) {
        if self.comma {
            self.out.push(b',');
        }
    }

    /// Writes an object key; the next write is its value.
    #[inline]
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        write_str(key, &mut self.out);
        self.out.push(b':');
        self.comma = false;
        self
    }

    /// Writes one value: an array element, an object member's value after
    /// [`Writer::key`], or the whole document.
    pub fn value(&mut self, value: impl Value) -> &mut Self {
        value.write_to(self);
        self
    }

    /// Writes the object member `key: value`.
    pub fn field(&mut self, key: &str, value: impl Value) -> &mut Self {
        self.key(key).value(value)
    }

    /// Writes an object whose members `members` writes.
    pub fn object(&mut self, members: impl FnOnce(&mut Self)) -> &mut Self {
        self.container(b'{', b'}', members)
    }

    /// Writes an array whose elements `elements` writes.
    pub fn array(&mut self, elements: impl FnOnce(&mut Self)) -> &mut Self {
        self.container(b'[', b']', elements)
    }

    fn container(&mut self, open: u8, close: u8, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.separate();
        self.out.push(open);
        self.comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
        self
    }

    fn scalar(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        self.separate();
        write(&mut self.out);
        self.comma = true;
    }
}

/// Something [`Writer::value`] can write as one JSON value.
pub trait Value {
    /// Writes `self` as the writer's next value.
    fn write_to(self, w: &mut Writer);
}

impl Value for f64 {
    fn write_to(self, w: &mut Writer) {
        w.scalar(|out| write_f64(self, out));
    }
}

/// Integers are JSON numbers, i.e. `f64`s: they encode as the nearest
/// `f64` does.
macro_rules! integer_value {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn write_to(self, w: &mut Writer) {
                (self as f64).write_to(w);
            }
        }
    )*};
}
integer_value!(u16, u32, u64, usize);

impl Value for bool {
    fn write_to(self, w: &mut Writer) {
        w.scalar(|out| out.extend_from_slice(if self { b"true" } else { b"false" }));
    }
}

impl Value for &str {
    fn write_to(self, w: &mut Writer) {
        w.scalar(|out| write_str(self, out));
    }
}

impl Value for &String {
    fn write_to(self, w: &mut Writer) {
        self.as_str().write_to(w);
    }
}

impl Value for String {
    fn write_to(self, w: &mut Writer) {
        self.as_str().write_to(w);
    }
}

/// `None` is `null`.
impl<T: Value> Value for Option<T> {
    fn write_to(self, w: &mut Writer) {
        match self {
            Some(v) => v.write_to(w),
            None => w.scalar(|out| out.extend_from_slice(b"null")),
        }
    }
}

impl Value for &Json {
    fn write_to(self, w: &mut Writer) {
        match self {
            Json::Null => None::<bool>.write_to(w),
            Json::Bool(b) => b.write_to(w),
            Json::Num(n) => n.write_to(w),
            Json::Str(s) => s.write_to(w),
            Json::Arr(items) => {
                w.array(|w| {
                    for item in items {
                        w.value(item);
                    }
                });
            }
            Json::Obj(members) => {
                w.object(|w| {
                    for (k, v) in members {
                        w.field(k, v);
                    }
                });
            }
        }
    }
}

/// A JSON document held as the code that writes it: [`View::encode`]
/// writes it alone, and as a [`Value`] it nests inside a larger document.
#[derive(Debug, Clone, Copy)]
pub struct View<F>(F);

impl<F: Fn(&mut Writer)> View<F> {
    /// The view `write` writes.
    pub fn new(write: F) -> Self {
        Self(write)
    }

    /// The compact encoding.
    pub fn encode(&self) -> String {
        let mut w = Writer::new();
        (self.0)(&mut w);
        w.into_string()
    }
}

impl<F: Fn(&mut Writer)> Value for View<F> {
    fn write_to(self, w: &mut Writer) {
        (self.0)(w);
    }
}

/// Writes `s` as a JSON string literal. One scan decides: a string with
/// nothing to escape is copied whole, any other goes byte by byte (every
/// escape is ASCII, so multi-byte characters pass through intact).
#[inline]
fn write_str(s: &str, out: &mut Vec<u8>) {
    out.push(b'"');
    if !s.bytes().any(needs_escape) {
        out.extend_from_slice(s.as_bytes());
    } else {
        for b in s.bytes() {
            match b {
                b'"' => out.extend_from_slice(b"\\\""),
                b'\\' => out.extend_from_slice(b"\\\\"),
                b'\n' => out.extend_from_slice(b"\\n"),
                b'\r' => out.extend_from_slice(b"\\r"),
                b'\t' => out.extend_from_slice(b"\\t"),
                0x08 => out.extend_from_slice(b"\\b"),
                0x0C => out.extend_from_slice(b"\\f"),
                b if b < 0x20 => {
                    const HEX: &[u8; 16] = b"0123456789abcdef";
                    out.extend_from_slice(b"\\u00");
                    out.push(HEX.get(usize::from(b >> 4)).copied().unwrap_or(b'0'));
                    out.push(HEX.get(usize::from(b & 0xF)).copied().unwrap_or(b'0'));
                }
                b => out.push(b),
            }
        }
    }
    out.push(b'"');
}

fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commas_follow_the_nesting() {
        let mut w = Writer::new();
        w.object(|w| {
            w.key("a").array(|w| {
                w.array(|_| {}).object(|_| {}).value(1.0);
            });
            w.field("b", Some(2u64)).field("c", None::<f64>);
            w.key("d").object(|w| {
                w.field("e", true);
            });
        });
        assert_eq!(
            w.into_string(),
            r#"{"a":[[],{},1],"b":2,"c":null,"d":{"e":true}}"#
        );
    }

    #[test]
    fn trees_write_as_they_encode() {
        let doc = r#"{"k":[null,false,-0.5,"x\ny\u0001é"],"o":{}}"#;
        let tree = Json::parse(doc).unwrap();
        let mut w = Writer::new();
        w.value(&tree);
        assert_eq!(w.into_string(), doc);
    }

    #[test]
    fn views_nest_and_encode_alone() {
        let inner = View::new(|w| {
            w.object(|w| {
                w.field("n", 1.5);
            });
        });
        assert_eq!(inner.encode(), r#"{"n":1.5}"#);
        let mut w = Writer::new();
        w.array(|w| {
            w.value(1.0).value(inner);
        });
        assert_eq!(w.into_string(), r#"[1,{"n":1.5}]"#);
    }
}
