//! Shortest round-trip `f64` formatting, byte for byte what Rust's
//! `Display` prints (`format!("{n}")`) for every finite number.
//!
//! `Display` prints the shortest digit string that parses back to the
//! same bits, choosing the one nearest the exact value (rounding an
//! exact tie up), in fixed notation: no exponent, `-0` for negative
//! zero, no trailing `.0`. The digits come from Ryu (Adams, PLDI 2018)
//! with one change: Ryu breaks an exact tie to even, `Display` rounds it
//! up, so the even-tie step is left out. The power-of-5 tables Ryu
//! multiplies by are computed by `const fn`s at compile time.
//!
//! Whole values below 2^53 skip Ryu: they print as integers, which is
//! what the shortest digits of such a value are.

use tables::{POW10, POW5_INV_SPLIT, POW5_SPLIT};

/// Writes `n` the way `format!("{n}")` does, and `null` for NaN and
/// ±infinity (they have no JSON form).
pub(crate) fn write_f64(n: f64, out: &mut Vec<u8>) {
    if !n.is_finite() {
        out.extend_from_slice(b"null");
        return;
    }
    if n.is_sign_negative() {
        out.push(b'-');
    }
    let a = n.abs();
    if a < TWO_POW_53 {
        let whole = a as u64;
        if whole as f64 == a {
            write_digits(out, whole, digit_count(whole));
            return;
        }
    }
    if write_shortest(a, out).is_none() {
        // Unreachable (every table index is in range); `Display` itself
        // is the fallback rather than a panic.
        use std::io::Write;
        let _ = write!(out, "{a}");
    }
}

/// Lays a positive finite `a` out in fixed notation from its shortest
/// digits; `None` (writing nothing) if a table lookup missed.
fn write_shortest(a: f64, out: &mut Vec<u8>) -> Option<()> {
    let bits = a.to_bits();
    let (digits, exp10) = shortest(bits & MANTISSA_MASK, (bits >> MANTISSA_BITS) as u32)?;
    let len = digit_count(digits);
    // The decimal point sits `point` digits from the left of `digits`.
    let point = exp10 + len as i32;
    if point <= 0 {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + point.unsigned_abs() as usize, b'0');
        write_digits(out, digits, len);
    } else if (point as usize) < len {
        let frac = len - point as usize;
        let scale = *POW10.get(frac)?;
        write_digits(out, digits / scale, point as usize);
        out.push(b'.');
        write_digits(out, digits % scale, frac);
    } else {
        write_digits(out, digits, len);
        out.resize(out.len() + (point as usize - len), b'0');
    }
    Some(())
}

const TWO_POW_53: f64 = 9_007_199_254_740_992.0;
const MANTISSA_BITS: u32 = 52;
const MANTISSA_MASK: u64 = (1 << MANTISSA_BITS) - 1;
const BIAS: i32 = 1023;
const POW5_INV_BITCOUNT: i32 = 125;
const POW5_BITCOUNT: i32 = 125;
const POW5_INV_TABLE_SIZE: usize = 342;
const POW5_TABLE_SIZE: usize = 326;

/// Decimal digits of `v` (1 for 0).
fn digit_count(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |l| l as usize + 1)
}

/// Appends exactly `len` decimal digits of `v`, zero-padded on the left.
fn write_digits(out: &mut Vec<u8>, mut v: u64, len: usize) {
    let start = out.len();
    out.resize(start + len, b'0');
    let Some(slots) = out.get_mut(start..) else {
        return;
    };
    let mut pairs = slots.rchunks_exact_mut(2);
    for pair in &mut pairs {
        let r = (v % 100) as u8;
        v /= 100;
        pair.copy_from_slice(&[b'0' + r / 10, b'0' + r % 10]);
    }
    if let [digit] = pairs.into_remainder() {
        *digit = b'0' + (v % 10) as u8;
    }
}

// ---- Ryu's shortest digits -------------------------------------------

/// Ryu's power-of-5 tables, built at compile time from exact big-integer
/// arithmetic.
#[expect(
    clippy::indexing_slicing,
    reason = "const-evaluated table builders: an out-of-range index fails the build"
)]
mod tables {
    use super::{POW5_BITCOUNT, POW5_INV_BITCOUNT, POW5_INV_TABLE_SIZE, POW5_TABLE_SIZE};

    /// Little-endian 64-bit limbs: 1,024 bits hold `5^341` and the
    /// `2^INV_BASE_BITS` the inverses divide.
    const LIMBS: usize = 16;
    type Big = [u64; LIMBS];

    /// The power of two the inverse entries divide by 5^i: at least the
    /// largest `j` an entry needs (916 for `5^341`).
    const INV_BASE_BITS: u32 = 1000;

    const fn mul5(mut a: Big) -> Big {
        let mut carry = 0u128;
        let mut i = 0;
        while i < LIMBS {
            let p = a[i] as u128 * 5 + carry;
            a[i] = p as u64;
            carry = p >> 64;
            i += 1;
        }
        a
    }

    /// `floor(a / 5)`.
    const fn div5(mut a: Big) -> Big {
        let mut rem = 0u128;
        let mut i = LIMBS;
        while i > 0 {
            i -= 1;
            let cur = (rem << 64) | a[i] as u128;
            a[i] = (cur / 5) as u64;
            rem = cur % 5;
        }
        a
    }

    const fn bit_len(a: &Big) -> u32 {
        let mut i = LIMBS;
        while i > 0 {
            i -= 1;
            if a[i] != 0 {
                return i as u32 * 64 + 64 - a[i].leading_zeros();
            }
        }
        0
    }

    const fn limb(a: &Big, i: usize) -> u128 {
        if i < LIMBS {
            a[i] as u128
        } else {
            0
        }
    }

    /// The low 128 bits of `a >> shift`.
    const fn shr_128(a: &Big, shift: u32) -> u128 {
        let i = (shift / 64) as usize;
        let offset = shift % 64;
        let low = (limb(a, i) | limb(a, i + 1) << 64) >> offset;
        if offset == 0 {
            low
        } else {
            low | limb(a, i + 2) << (128 - offset)
        }
    }

    /// `10^i` for every digit count of a 17-digit mantissa.
    pub(super) const POW10: [u64; 18] = {
        let mut t = [1; 18];
        let mut i = 1;
        while i < 18 {
            t[i] = t[i - 1] * 10;
            i += 1;
        }
        t
    };

    const fn split(v: u128) -> (u64, u64) {
        (v as u64, (v >> 64) as u64)
    }

    const fn one() -> Big {
        let mut a = [0; LIMBS];
        a[0] = 1;
        a
    }

    /// `5^i` scaled to its top `POW5_BITCOUNT` bits, as (low, high)
    /// words.
    pub(super) static POW5_SPLIT: [(u64, u64); POW5_TABLE_SIZE] = {
        let mut table = [(0, 0); POW5_TABLE_SIZE];
        let mut pow = one();
        let mut i = 0;
        while i < POW5_TABLE_SIZE {
            let len = bit_len(&pow) as i32;
            table[i] = if len >= POW5_BITCOUNT {
                split(shr_128(&pow, (len - POW5_BITCOUNT) as u32))
            } else {
                split(shr_128(&pow, 0) << (POW5_BITCOUNT - len))
            };
            pow = mul5(pow);
            i += 1;
        }
        table
    };

    /// `floor(2^j / 5^i) + 1` with `j = bitlen(5^i) - 1 +
    /// POW5_INV_BITCOUNT`, as (low, high) words. Since `floor(floor(x /
    /// 5) / 5) = floor(x / 25)`, dividing `2^INV_BASE_BITS` by 5 once per
    /// entry and shifting the quotient down gives each floor exactly.
    pub(super) static POW5_INV_SPLIT: [(u64, u64); POW5_INV_TABLE_SIZE] = {
        let mut table = [(0, 0); POW5_INV_TABLE_SIZE];
        let mut pow = one();
        let mut inv = [0; LIMBS];
        inv[(INV_BASE_BITS / 64) as usize] = 1 << (INV_BASE_BITS % 64);
        let mut i = 0;
        while i < POW5_INV_TABLE_SIZE {
            let j = bit_len(&pow) - 1 + POW5_INV_BITCOUNT as u32;
            table[i] = split(shr_128(&inv, INV_BASE_BITS - j) + 1);
            pow = mul5(pow);
            inv = div5(inv);
            i += 1;
        }
        table
    };
}

/// `ceil(log2(5^e))`, 1 for `e = 0`.
fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `floor(log10(2^e))`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `floor(log10(5^e))`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

fn pow5_factor(mut v: u64) -> u32 {
    let mut count = 0;
    while v > 0 && v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count
}

fn multiple_of_pow5(v: u64, p: u32) -> bool {
    pow5_factor(v) >= p
}

fn multiple_of_pow2(v: u64, p: u32) -> bool {
    v & ((1u64 << p) - 1) == 0
}

fn mul_shift(m: u64, (low, high): (u64, u64), j: i32) -> u64 {
    let b0 = u128::from(m) * u128::from(low);
    let b2 = u128::from(m) * u128::from(high);
    (((b0 >> 64) + b2) >> (j - 64)) as u64
}

/// The shortest digits of a positive finite double given by its biased
/// exponent and mantissa bits, as `(digits, e10)` with the value
/// `digits · 10^e10`. Ties between two shortest candidates round up.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> Option<(u64, i32)> {
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    let accept_bounds = m2 & 1 == 0;
    // The rounding interval is [mm, mp] around mv = 4·m2, in units of
    // 2^e2; it is narrower below a power of two.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    let (mut vr, mut vp, mut vm, e10);
    let mut vm_trailing_zeros = false;
    let mut vr_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5bits(q as i32) - 1;
        let j = -e2 + q as i32 + k;
        let mul = *POW5_INV_SPLIT.get(q as usize)?;
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if q <= 21 {
            // At most one of mp, mv and mm is a multiple of 5.
            if mv % 5 == 0 {
                vr_trailing_zeros = multiple_of_pow5(mv, q);
            } else if accept_bounds {
                vm_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5bits(i) - POW5_BITCOUNT;
        let j = q as i32 - k;
        let mul = *POW5_SPLIT.get(i as usize)?;
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if q <= 1 {
            // mv = 4·m2 has at least two trailing zero bits.
            vr_trailing_zeros = true;
            if accept_bounds {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        } else if q < 63 {
            vr_trailing_zeros = multiple_of_pow2(mv, q);
        }
    }

    // Drop digits while the interval still holds a shorter number.
    let mut removed = 0;
    let output = if vm_trailing_zeros || vr_trailing_zeros {
        // Rare: the exact value or the lower bound may end in zeros.
        let mut last_removed = 0;
        while vp / 10 > vm / 10 {
            vm_trailing_zeros &= vm % 10 == 0;
            last_removed = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_trailing_zeros {
            while vm % 10 == 0 {
                last_removed = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        // Ryu would round an exact tie (`last_removed` 5 with zeros
        // after it) to even here; `Display` rounds it up.
        vr + u64::from((vr == vm && (!accept_bounds || !vm_trailing_zeros)) || last_removed >= 5)
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    Some((output, e10 + removed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fmt(n: f64) -> String {
        let mut out = Vec::new();
        write_f64(n, &mut out);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn tables_match_known_entries() {
        // Entries of Ryu's published d2s tables.
        assert_eq!(POW5_SPLIT[0], (0, 1_152_921_504_606_846_976));
        assert_eq!(POW5_INV_SPLIT[0], (1, 2_305_843_009_213_693_952));
        assert_eq!(
            POW5_INV_SPLIT[1],
            (11_068_046_444_225_730_970, 1_844_674_407_370_955_161)
        );
    }

    #[test]
    fn ties_round_up_like_display() {
        // Exact dyadic values whose last kept digit is a tie.
        for n in [
            2f64.powi(50) + 0.25,
            2f64.powi(50) + 0.75,
            2f64.powi(51) + 0.5,
            2f64.powi(49) + 0.125,
        ] {
            assert_eq!(fmt(n), format!("{n}"));
        }
    }
}
