//! [`Reader`]: the crate's one tokenizer, a pull reader over a `&str`.
//!
//! A caller walks a document token by token instead of building a
//! [`Json`](crate::Json) tree: it enters an array or an object, asks for
//! the next element or key, and reads numbers and strings in place, or
//! [`skip`](Reader::skip)s a value it does not need. [`Json::parse`] is
//! itself a walk over a `Reader`, so the reader keeps the parser's
//! grammar, its [`MAX_DEPTH`] nesting cap, and its [`JsonError`] byte
//! offsets and reasons.
//!
//! Strings without escapes are borrowed from the input. Integers of at
//! most 15 digits, with no fraction and no exponent, are accumulated
//! directly: every such integer is exact in an `f64`, so the result is
//! bit-identical to `str::parse`. Every other number takes the
//! `str::parse` path.
//!
//! The per-token methods are `#[inline]`: callers live in other crates
//! and the workspace builds without LTO.

use std::borrow::Cow;

use crate::json::{JsonError, MAX_DEPTH};

/// The kind of the value a [`Reader`] stands at, judged by its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool,
    /// A number.
    Num,
    /// A string.
    Str,
    /// An array.
    Arr,
    /// An object.
    Obj,
}

/// The longest integer the number fast path accumulates; every integer
/// of at most 15 decimal digits is below 2^53 and so exact in an `f64`.
const FAST_DIGITS: usize = 15;

/// A pull reader over one JSON document.
///
/// Between calls the reader stands at the first byte of a value or
/// between tokens; [`next_element`](Self::next_element),
/// [`next_key`](Self::next_key) and [`finish`](Self::finish) skip the
/// whitespace before them.
#[derive(Debug)]
pub struct Reader<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects entered and not yet closed.
    depth: usize,
    /// Set by entering a container, cleared by its first element or key:
    /// the element after it is not preceded by a comma.
    first: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `input`'s top-level value (leading
    /// whitespace skipped).
    pub fn new(input: &'a str) -> Self {
        let mut reader = Reader {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
            first: false,
        };
        reader.skip_ws();
        reader
    }

    /// The byte offset of the next unread byte.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The unread input.
    pub fn rest(&self) -> &'a str {
        self.input.get(self.pos..).unwrap_or_default()
    }

    fn err(&self, reason: impl Into<String>) -> JsonError {
        JsonError {
            pos: self.pos,
            reason: reason.into(),
        }
    }

    #[inline]
    fn peek_byte(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek_byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek_byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.rest().starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(format!("expected '{lit}'")))
        }
    }

    /// The kind of the value the reader stands at.
    ///
    /// # Errors
    /// At the end of the input, or at a byte no value starts with.
    #[inline]
    pub fn peek(&self) -> Result<Kind, JsonError> {
        match self.peek_byte() {
            Some(b'n') => Ok(Kind::Null),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'"') => Ok(Kind::Str),
            Some(b'[') => Ok(Kind::Arr),
            Some(b'{') => Ok(Kind::Obj),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Num),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Reads `null`.
    ///
    /// # Errors
    /// If the reader does not stand at `null`.
    #[inline]
    pub fn null(&mut self) -> Result<(), JsonError> {
        self.literal("null")
    }

    /// Reads `true` or `false`.
    ///
    /// # Errors
    /// If the reader does not stand at a boolean.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, JsonError> {
        if self.peek_byte() == Some(b't') {
            self.literal("true").map(|()| true)
        } else {
            self.literal("false").map(|()| false)
        }
    }

    /// Reads a number.
    ///
    /// # Errors
    /// On a malformed number, and on one that overflows a double.
    #[inline]
    pub fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        let negative = self.peek_byte() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // Integer part: 0, or a nonzero digit followed by digits.
        let int_start = self.pos;
        let mut int = 0u64;
        match self.peek_byte() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while let Some(d @ b'0'..=b'9') = self.peek_byte() {
                    // Wraps only past 19 digits, where the value is unused.
                    int = int.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let fraction_or_exponent = matches!(self.peek_byte(), Some(b'.' | b'e' | b'E'));
        if !fraction_or_exponent && self.pos - int_start <= FAST_DIGITS {
            let n = int as f64;
            return Ok(if negative { -n } else { n });
        }
        self.number_tail(start)
    }

    /// The rest of a number the fast path does not take: its fraction and
    /// exponent, then `str::parse` over the whole text.
    fn number_tail(&mut self, start: usize) -> Result<f64, JsonError> {
        if self.peek_byte() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek_byte(), Some(b'0'..=b'9')) {
                return Err(self.err("digits must follow the decimal point"));
            }
            while matches!(self.peek_byte(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek_byte(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek_byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek_byte(), Some(b'0'..=b'9')) {
                return Err(self.err("digits must follow the exponent"));
            }
            while matches!(self.peek_byte(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let n: f64 = self
            .input
            .get(start..self.pos)
            .and_then(|text| text.parse().ok())
            .ok_or_else(|| self.err("unparseable number"))?;
        if !n.is_finite() {
            return Err(self.err("number overflows a double"));
        }
        Ok(n)
    }

    /// The length of the run of plain string bytes at the reader: up to
    /// the next quote, backslash or control byte, or the end.
    #[inline]
    fn plain_run(&self) -> usize {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        rest.iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(rest.len())
    }

    /// Reads a string: borrowed from the input when it holds no escape.
    ///
    /// # Errors
    /// On a malformed string (unterminated, a bad escape, a lone
    /// surrogate, a raw control character).
    #[inline]
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        let end = start + self.plain_run();
        if self.bytes.get(end) == Some(&b'"') {
            // The run starts after an ASCII quote and ends at one, so it
            // is whole UTF-8.
            let run = self
                .input
                .get(start..end)
                .ok_or_else(|| self.err("invalid UTF-8"))?;
            self.pos = end + 1;
            return Ok(Cow::Borrowed(run));
        }
        self.escaped_string().map(Cow::Owned)
    }

    /// The rest of a string holding escapes (or malformed), unescaped.
    #[cold]
    fn escaped_string(&mut self) -> Result<String, JsonError> {
        let mut out = String::new();
        loop {
            match self.peek_byte() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek_byte()
                        .ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => out.push(self.unicode_escape()?),
                        c => {
                            self.pos -= 1;
                            return Err(self.err(format!("invalid escape '\\{}'", c as char)));
                        }
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("unescaped control character in string"));
                }
                Some(_) => {
                    // The input is a &str and the run ends at an ASCII
                    // byte or the end, so it is whole UTF-8.
                    let len = self.plain_run();
                    let run = self
                        .input
                        .get(self.pos..self.pos + len)
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .peek_byte()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: a \uXXXX low surrogate must follow.
            if self.rest().starts_with("\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(self.err("high surrogate not followed by a low surrogate"));
                }
                let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
            }
            return Err(self.err("lone high surrogate"));
        }
        if (0xDC00..0xE000).contains(&hi) {
            return Err(self.err("lone low surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
    }

    /// Enters the array the reader stands at; walk it with
    /// [`next_element`](Self::next_element).
    ///
    /// # Errors
    /// If the reader does not stand at `[`.
    #[inline]
    pub fn enter_array(&mut self) -> Result<(), JsonError> {
        self.expect(b'[')?;
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    /// Moves to the next element of the innermost array: `true` when the
    /// reader then stands at it, `false` when the array closed instead.
    ///
    /// # Errors
    /// On a missing separator, and on an element nested deeper than
    /// [`MAX_DEPTH`].
    #[inline]
    pub fn next_element(&mut self) -> Result<bool, JsonError> {
        self.skip_ws();
        let first = std::mem::replace(&mut self.first, false);
        match self.peek_byte() {
            Some(b']') => {
                self.pos += 1;
                self.depth = self.depth.saturating_sub(1);
                return Ok(false);
            }
            Some(b',') if !first => {
                self.pos += 1;
                self.skip_ws();
            }
            _ if first => {}
            _ => return Err(self.err("expected ',' or ']' in array")),
        }
        self.check_depth()?;
        Ok(true)
    }

    /// Enters the object the reader stands at; walk it with
    /// [`next_key`](Self::next_key).
    ///
    /// # Errors
    /// If the reader does not stand at `{`.
    #[inline]
    pub fn enter_object(&mut self) -> Result<(), JsonError> {
        self.expect(b'{')?;
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    /// Moves to the next member of the innermost object: its key, with the
    /// reader then standing at its value, or `None` when the object closed
    /// instead.
    ///
    /// # Errors
    /// On a missing separator or colon, a malformed key, and on a value
    /// nested deeper than [`MAX_DEPTH`].
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        self.skip_ws();
        let first = std::mem::replace(&mut self.first, false);
        match self.peek_byte() {
            Some(b'}') => {
                self.pos += 1;
                self.depth = self.depth.saturating_sub(1);
                return Ok(None);
            }
            Some(b',') if !first => {
                self.pos += 1;
                self.skip_ws();
            }
            _ if first => {}
            _ => return Err(self.err("expected ',' or '}' in object")),
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        self.check_depth()?;
        Ok(Some(key))
    }

    /// The nesting cap, checked where a value inside a container starts.
    #[inline]
    fn check_depth(&self) -> Result<(), JsonError> {
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        Ok(())
    }

    /// Reads past the value the reader stands at, checking it as
    /// [`Json::parse`](crate::Json::parse) would but building nothing.
    ///
    /// # Errors
    /// As [`Json::parse`](crate::Json::parse) on that value.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        match self.peek()? {
            Kind::Null => self.null(),
            Kind::Bool => self.bool().map(drop),
            Kind::Num => self.number().map(drop),
            Kind::Str => self.string().map(drop),
            Kind::Arr => {
                self.enter_array()?;
                while self.next_element()? {
                    self.skip()?;
                }
                Ok(())
            }
            Kind::Obj => {
                self.enter_object()?;
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
                Ok(())
            }
        }
    }

    /// Ends the walk: every container must be closed, and only whitespace
    /// may follow the top-level value.
    ///
    /// # Errors
    /// On an unclosed container or trailing characters.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.depth != 0 {
            return Err(self.err("unclosed array or object"));
        }
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after the document"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads `text` as one number with the reader, then checks nothing
    /// but whitespace follows.
    fn read_number(text: &str) -> Result<f64, JsonError> {
        let mut r = Reader::new(text);
        let n = r.number()?;
        r.finish().map(|()| n)
    }

    #[test]
    fn integer_fast_path_is_bit_equal_to_str_parse() {
        // 1 to 20 digits of both signs, across the 15-digit boundary.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 11
        };
        for digits in 1..=20u32 {
            for _ in 0..200 {
                let mut text: String = (0..digits)
                    .map(|i| {
                        let d = next() % 10;
                        let d = if i == 0 && digits > 1 { 1 + d % 9 } else { d };
                        char::from(b'0' + d as u8)
                    })
                    .collect();
                for signed in [false, true] {
                    if signed {
                        text.insert(0, '-');
                    }
                    let want: f64 = text.parse().unwrap();
                    let got = read_number(&text).unwrap();
                    assert_eq!(got.to_bits(), want.to_bits(), "{text}");
                }
            }
        }
        for text in [
            "0",
            "-0",
            "9",
            "999999999999999",
            "-999999999999999",
            "1000000000000000",
            "9007199254740992",
            "9007199254740993",
            "-9007199254740993",
            "18446744073709551615",
            "18446744073709551616",
            "99999999999999999999",
        ] {
            let want: f64 = text.parse().unwrap();
            let got = read_number(text).unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{text}");
        }
        assert_eq!(read_number("-0").unwrap().to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn the_fast_path_keeps_the_number_grammar() {
        for bad in ["01", "-01", "1.", "1e", "1e+", "-", "+1", "--1", ".5"] {
            assert!(read_number(bad).is_err(), "must reject {bad:?}");
        }
        // A leading zero ends the integer part, as in `Json::parse`.
        let mut r = Reader::new("01");
        assert_eq!(r.number().unwrap(), 0.0);
        assert_eq!(r.position(), 1);
    }

    #[test]
    fn walks_a_document_in_order() {
        let doc =
            r#" {"n": 12, "s": "plain", "e": "a\nb", "a": [true, null, [], {}], "x": 1.5e2} "#;
        let mut r = Reader::new(doc);
        r.enter_object().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("n"));
        assert_eq!(r.number().unwrap(), 12.0);
        assert_eq!(r.next_key().unwrap().as_deref(), Some("s"));
        let s = r.string().unwrap();
        assert!(matches!(s, Cow::Borrowed("plain")), "{s:?}");
        assert_eq!(r.next_key().unwrap().as_deref(), Some("e"));
        let e = r.string().unwrap();
        assert!(matches!(&e, Cow::Owned(o) if o == "a\nb"), "{e:?}");
        assert_eq!(r.next_key().unwrap().as_deref(), Some("a"));
        assert_eq!(r.peek().unwrap(), Kind::Arr);
        r.enter_array().unwrap();
        assert!(r.next_element().unwrap());
        assert!(r.bool().unwrap());
        assert!(r.next_element().unwrap());
        r.null().unwrap();
        assert!(r.next_element().unwrap());
        r.skip().unwrap();
        assert!(r.next_element().unwrap());
        assert_eq!(r.peek().unwrap(), Kind::Obj);
        r.skip().unwrap();
        assert!(!r.next_element().unwrap());
        assert_eq!(r.next_key().unwrap().as_deref(), Some("x"));
        assert_eq!(r.number().unwrap(), 150.0);
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn finish_refuses_an_unclosed_walk() {
        let mut r = Reader::new("[1");
        r.enter_array().unwrap();
        assert!(r.next_element().unwrap());
        r.number().unwrap();
        assert!(r.finish().is_err());
    }
}
