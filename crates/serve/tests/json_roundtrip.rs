//! Property tests of the hand-rolled JSON codec: `parse(encode(v))` is
//! the identity on arbitrary value trees, encoding is a fixed point, a
//! pull-reader walk consumes exactly one encoded value, and neither the
//! parser nor the reader panics on garbage.

use hl_serve::json::{Json, Reader, MAX_DEPTH};
use proptest::prelude::*;

/// Strategy over arbitrary JSON value trees of bounded depth.
fn json_strategy() -> impl Strategy<Value = Json> {
    JsonStrategy { depth: 4 }
}

struct JsonStrategy {
    depth: u32,
}

impl Strategy for JsonStrategy {
    type Value = Json;

    fn sample(&self, rng: &mut proptest::TestRng) -> Json {
        gen_value(rng, self.depth)
    }
}

fn gen_number(rng: &mut proptest::TestRng) -> f64 {
    match rng.sample_range(0u32..5) {
        0 => rng.sample_range(-1_000_000i64..=1_000_000) as f64,
        1 => rng.sample_range(-1.0f64..=1.0),
        2 => rng.sample_range(-1e12f64..=1e12),
        3 => {
            // Exercise the exponent path, both tiny and huge magnitudes.
            let exp = rng.sample_range(-300i32..=300);
            let mantissa = rng.sample_range(-9.0f64..=9.0);
            mantissa * 10f64.powi(exp)
        }
        _ => *[0.0, -0.0, 1.5, f64::MIN, f64::MAX, f64::EPSILON, 1e-308]
            .get(rng.sample_range(0usize..7))
            .unwrap(),
    }
}

fn gen_string(rng: &mut proptest::TestRng) -> String {
    const ALPHABET: [char; 16] = [
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{7}', '\u{1f}', 'é', '☃',
        '😀',
    ];
    let len = rng.sample_range(0usize..=12);
    (0..len)
        .map(|_| ALPHABET[rng.sample_range(0usize..ALPHABET.len())])
        .collect()
}

fn gen_value(rng: &mut proptest::TestRng, depth: u32) -> Json {
    let max = if depth == 0 { 4 } else { 6 };
    match rng.sample_range(0u32..max) {
        0 => Json::Null,
        1 => Json::Bool(rng.sample_range(0u32..2) == 1),
        2 => Json::Num(gen_number(rng)),
        3 => Json::Str(gen_string(rng)),
        4 => {
            let n = rng.sample_range(0usize..=3);
            Json::Arr((0..n).map(|_| gen_value(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.sample_range(0usize..=3);
            Json::Obj(
                (0..n)
                    .map(|_| (gen_string(rng), gen_value(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

/// Strategy over garbage inputs that must not panic the parser.
fn garbage_strategy() -> impl Strategy<Value = String> {
    GarbageStrategy
}

struct GarbageStrategy;

impl Strategy for GarbageStrategy {
    type Value = String;

    fn sample(&self, rng: &mut proptest::TestRng) -> String {
        const PIECES: [&str; 18] = [
            "{", "}", "[", "]", ",", ":", "\"", "\\u", "null", "true", "1e", "-", ".5", "0x", " ",
            "\\", "\u{1}", "abc",
        ];
        let len = rng.sample_range(0usize..=20);
        (0..len)
            .map(|_| PIECES[rng.sample_range(0usize..PIECES.len())])
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → parse is the identity on arbitrary trees.
    #[test]
    fn roundtrip_is_identity(v in json_strategy()) {
        let encoded = v.encode();
        let parsed = Json::parse(&encoded);
        prop_assert_eq!(parsed.as_ref(), Ok(&v));
        // Encoding is deterministic and a fixed point.
        prop_assert_eq!(parsed.unwrap().encode(), encoded);
    }

    /// `Reader::skip` consumes the encoding of any value exactly: it
    /// stops at its last byte, in a document and inside an array.
    #[test]
    fn reader_skip_consumes_one_value_exactly(v in json_strategy()) {
        let encoded = v.encode();
        let mut reader = Reader::new(&encoded);
        prop_assert_eq!(reader.skip(), Ok(()));
        prop_assert_eq!(reader.position(), encoded.len());
        prop_assert_eq!(reader.finish(), Ok(()));

        let doc = format!("[{encoded}, 7]");
        let mut reader = Reader::new(&doc);
        prop_assert_eq!(reader.enter_array(), Ok(()));
        prop_assert_eq!(reader.next_element(), Ok(true));
        prop_assert_eq!(reader.skip(), Ok(()));
        prop_assert_eq!(reader.position(), 1 + encoded.len());
        prop_assert_eq!(reader.next_element(), Ok(true));
        prop_assert_eq!(reader.number(), Ok(7.0));
        prop_assert_eq!(reader.next_element(), Ok(false));
        prop_assert_eq!(reader.finish(), Ok(()));
    }

    /// The parser returns (it never panics) on arbitrary garbage, and a
    /// reader walk agrees with it.
    #[test]
    fn parser_never_panics_on_garbage(text in garbage_strategy()) {
        let parsed = Json::parse(&text).map(drop);
        let mut reader = Reader::new(&text);
        let walked = reader.skip().and_then(|()| reader.finish());
        prop_assert_eq!(walked, parsed);
    }

    /// Numbers round-trip exactly (shortest-representation display).
    #[test]
    fn numbers_roundtrip_exactly(bits in 0u64..u64::MAX) {
        let n = f64::from_bits(bits);
        if n.is_finite() {
            let enc = Json::Num(n).encode();
            let Ok(Json::Num(back)) = Json::parse(&enc) else {
                return Err(TestCaseError::fail(format!("{enc} did not parse to a number")));
            };
            prop_assert_eq!(back.to_bits(), n.to_bits());
        }
    }
}

#[test]
fn nesting_exactly_at_the_limit_roundtrips() {
    let mut v = Json::Bool(true);
    for _ in 0..MAX_DEPTH {
        v = Json::Arr(vec![v]);
    }
    let enc = v.encode();
    assert_eq!(Json::parse(&enc), Ok(v));
}
