//! The number formatter's contract: for every `f64` it writes exactly
//! what `format!("{n}")` prints, and `null` for NaN and ±infinity.
//! The oracle is std's `Display`; inputs come from a seeded xorshift
//! plus the edge families a shortest round-trip formatter gets wrong
//! first (powers of ten, subnormals, power-of-two boundaries, exact
//! ties, large integers).

use hl_json::Writer;

fn written(n: f64) -> String {
    let mut w = Writer::new();
    w.value(n);
    w.into_string()
}

fn expected(n: f64) -> String {
    if n.is_finite() {
        format!("{n}")
    } else {
        "null".to_string()
    }
}

#[track_caller]
fn check(n: f64) {
    assert_eq!(written(n), expected(n), "bits {:#018x}", n.to_bits());
}

/// Checks `n` and its two neighbors in bit order.
fn check_around(n: f64) {
    let bits = n.to_bits();
    for b in [bits.wrapping_sub(1), bits, bits.wrapping_add(1)] {
        check(f64::from_bits(b));
    }
}

/// xorshift64* — deterministic, no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Random draws per sweep: the full count under optimized codegen (the
/// CI release step), a smaller one in debug builds.
const DRAWS: usize = if cfg!(debug_assertions) {
    100_000
} else {
    2_000_000
};

#[test]
fn random_bit_patterns_match_display() {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    for _ in 0..DRAWS {
        check(f64::from_bits(rng.next()));
    }
}

#[test]
fn every_power_of_ten_matches_display() {
    for e in -324..=308 {
        let n: f64 = format!("1e{e}").parse().unwrap();
        check_around(n);
        check_around(-n);
    }
}

#[test]
fn subnormals_match_display() {
    for m in 1..=1000u64 {
        check(f64::from_bits(m));
    }
    let largest = f64::MIN_POSITIVE.to_bits() - 1;
    check_around(f64::from_bits(largest));
    let mut rng = Rng(0xD1B5_4A32_D192_ED03);
    for _ in 0..DRAWS / 10 {
        let mantissa = rng.next() & ((1 << 52) - 1);
        check(f64::from_bits(mantissa | (rng.next() & (1 << 63))));
    }
}

#[test]
fn integers_and_powers_of_two_match_display() {
    for i in 0..=10_000u64 {
        check(i as f64);
        check(-(i as f64));
    }
    let mut rng = Rng(0xB7E1_5162_8AED_2A6B);
    for _ in 0..DRAWS / 10 {
        check((rng.next() >> 11) as f64); // below 2^53, exact
        check(rng.next() as f64); // whole values beyond 2^53
    }
    for e in -1074..=1023 {
        check_around(2f64.powi(e));
    }
    check_around(9_007_199_254_740_992.0); // 2^53
}

#[test]
fn exact_ties_round_like_display() {
    // Dyadic fractions near 2^50..2^53 have exact decimal tails just
    // longer than their shortest form, where two shortest candidates can
    // be equally near.
    let mut rng = Rng(0x6A09_E667_F3BC_C909);
    for _ in 0..DRAWS / 10 {
        let shift = 1 + rng.next() % 12;
        let int = rng.next() >> (11 + shift);
        let n = int as f64 / (1u64 << shift) as f64;
        check(n);
        check(n * 1e-3);
    }
    for n in [
        2f64.powi(50) + 0.25,
        2f64.powi(50) + 0.75,
        2f64.powi(51) + 0.5,
        0.3,
        0.1 + 0.2,
        1.0 / 3.0,
        2.0 / 3.0,
    ] {
        check(n);
    }
}

#[test]
fn named_constants_and_non_finite_values() {
    for n in [
        f64::MIN,
        f64::MAX,
        f64::EPSILON,
        f64::MIN_POSITIVE,
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        1e21,
        1e22,
        1e23,
        123_456_789_012_345_680.0,
    ] {
        check_around(n);
    }
    assert_eq!(written(-0.0), "-0");
    assert_eq!(written(0.0), "0");
    for n in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(written(n), "null");
    }
}
