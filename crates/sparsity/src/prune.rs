//! DNN sparsification with HSS patterns (paper §4.2).
//!
//! A dense tensor is sparsified **rank-by-rank, lower-to-higher**:
//!
//! - at the lowest rank, the values with the smallest magnitude are pruned
//!   within each block of `H0`;
//! - at an intermediate rank, the coordinates whose fiber payloads have the
//!   smallest *scaled L2 norm* (the magnitude of the payload normalized by
//!   its size) are pruned within each group of `H`.
//!
//! The functions here operate on [`Matrix`] rows, matching how operand A's
//! flattened `K` dimension is blocked by the hardware. Unstructured
//! magnitude pruning is provided for the DSTC-like baseline.

use hl_fibertree::spec::Gh;
use hl_tensor::Matrix;

use crate::hss::HssPattern;

/// Sum of squared magnitudes of a slice, accumulated in slice order.
///
/// This is the raw comparison key the pruning kernels rank blocks by:
/// within one group every block has the same length `n`, and
/// `sqrt(Σv²/n)` (the scaled-L2 score) is strictly monotone in `Σv²` on
/// `[0, ∞]`, so ranking by the raw sum selects exactly the blocks the
/// scaled-L2 ranking selects — while skipping a division and a `sqrt`
/// per block. A NaN sum stays the same NaN through `/n` and `sqrt`
/// (both propagate the payload), so even corrupt-weight ties order
/// identically under `total_cmp`.
pub fn sum_sq(values: &[f32]) -> f64 {
    values.iter().map(|&v| f64::from(v) * f64::from(v)).sum()
}

/// Scaled L2 norm of a payload: `sqrt(Σv² / n)`.
///
/// The paper defines the intermediate-rank score as the payload's average
/// magnitude; the root-mean-square form used here is the L2 realization of
/// that idea and induces the same "keep the strongest fibers" ordering.
/// The kernels below compare blocks by [`sum_sq`] instead (same ordering,
/// cheaper); this form is kept for reporting and external callers.
pub fn scaled_l2(values: &[f32]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (sum_sq(values) / values.len() as f64).sqrt()
}

/// Reusable sort buffer for the in-place pruning kernels.
///
/// Groups of up to 32 blocks are ranked on the stack; only wider groups
/// sort, and one scratch then serves every rank of every [`prune_hss`]
/// call on a thread instead of a fresh vector per call.
#[derive(Debug, Default)]
pub struct PruneScratch {
    keys: Vec<u128>,
}

impl PruneScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Maps an `f64` to a `u64` whose unsigned order equals [`f64::total_cmp`]
/// order for **all** values (both NaN sign classes included): flip the
/// low 63 bits for negatives (the same transform `total_cmp` applies),
/// then offset the sign bit into unsigned range.
fn total_cmp_key(x: f64) -> u64 {
    let b = x.to_bits() as i64;
    let flip = ((b >> 63) as u64) >> 1;
    ((b ^ flip as i64) as u64) ^ (1 << 63)
}

/// The selection key of a block: [`total_cmp_key`] of its [`sum_sq`]
/// score, where a block holding a NaN scores as its first NaN, widened to
/// `f64` and quieted with sign and payload kept — what evaluating the sum
/// in slice order on IEEE hardware yields. That NaN is built from bits
/// because Rust leaves the sign and payload of a NaN that arithmetic
/// produces unspecified (the optimizer may swap the operands of an add of
/// two NaNs), and the kept set must not depend on code generation.
fn block_key(block: &[f32]) -> u64 {
    let score = sum_sq(block);
    if !score.is_nan() {
        return total_cmp_key(score);
    }
    // Squares are never negative, so the sum is NaN only if a value is.
    let Some(nan) = block.iter().find(|v| v.is_nan()) else {
        return total_cmp_key(score);
    };
    let b = u64::from(nan.to_bits());
    let widened = ((b >> 31) << 63) | (0x7FF8 << 48) | ((b & 0x7F_FFFF) << 29);
    total_cmp_key(f64::from_bits(widened))
}

/// Prunes the lowest rank: within every aligned block of `gh.h` values in
/// each row, keeps the `gh.g` values of largest magnitude and zeroes the
/// rest.
///
/// # Panics
/// Panics if the column count is not a multiple of `gh.h`.
pub fn prune_lowest_rank(m: &Matrix, gh: Gh) -> Matrix {
    prune_rank(m, gh, 1)
}

/// Prunes one rank at the given granularity (values per child block):
/// within every aligned group of `gh.h` child blocks, keeps the `gh.g`
/// blocks with the largest scaled L2 norm and zeroes the rest.
///
/// `granularity == 1` reduces to magnitude pruning of individual values.
///
/// # Panics
/// Panics if the column count is not a multiple of `gh.h * granularity`.
pub fn prune_rank(m: &Matrix, gh: Gh, granularity: usize) -> Matrix {
    let mut out = m.clone();
    prune_rank_in_place(&mut out, gh, granularity, &mut PruneScratch::new());
    out
}

/// In-place single-rank pruning — the hot loop under [`prune_hss`], which
/// pruning runs once per pattern per sweep cell.
///
/// Within a group, blocks rank by (score descending, index ascending) —
/// the paper's "top-k with ties to the lower index" — and the first
/// `keep` survive. For `H <= 32` the kernel never sorts: block `b`
/// survives iff fewer than `keep` blocks of its group precede it in that
/// order ([`survivors`]). This is exact — it keeps the very set a sort of
/// the same keys keeps:
///
/// - block scores are [`sum_sq`] (same selection as scaled-L2, see
///   there), compared by `total_cmp` through [`block_key`], so a corrupt
///   weight's NaN score still ranks deterministically;
/// - at the lowest rank (single values, `H` in `2..=8`) a score is the
///   square of an `f32` in `f64`, which is exact and strictly monotone in
///   `|v|`, so the 32-bit magnitude bits `to_bits() & 0x7FFF_FFFF` order
///   values exactly as their squares do. That fails only for NaN (a
///   negative NaN squares below every number under `total_cmp`), so a
///   group holding a NaN ranks by the `u64` [`block_key`]s instead;
/// - ties go to the lower index: an earlier block precedes on equal keys,
///   a later one only on strictly greater keys.
///
/// No branch depends on the weights: the lowest rank zeroes with a
/// bit-mask select, higher ranks fill exactly `H - keep` dropped blocks
/// found from the survivor mask. Groups wider than 32 blocks fall back to
/// one packed-integer sort. Groups never span rows (the row length is a
/// multiple of the group), and each group is fully scored before any of
/// its blocks is zeroed, so operating in place scores exactly the values
/// the out-of-place version scored.
fn prune_rank_in_place(m: &mut Matrix, gh: Gh, granularity: usize, scratch: &mut PruneScratch) {
    let group = gh.h as usize * granularity;
    assert!(
        m.cols().is_multiple_of(group),
        "cols ({}) must be a multiple of H * granularity ({group})",
        m.cols()
    );
    let h = gh.h as usize;
    let keep = (gh.g as usize).min(h);
    if keep == h {
        // Every block survives: the selection can drop nothing.
        return;
    }
    let data = m.data_mut();
    if granularity == 1 {
        match h {
            2 => return prune_values::<2>(data, keep),
            3 => return prune_values::<3>(data, keep),
            4 => return prune_values::<4>(data, keep),
            5 => return prune_values::<5>(data, keep),
            6 => return prune_values::<6>(data, keep),
            7 => return prune_values::<7>(data, keep),
            8 => return prune_values::<8>(data, keep),
            _ => {}
        }
    }
    // Constant arms for the widths the co-design space prunes let the
    // compiler unroll the rank count and the block sums.
    match h {
        2 => return prune_blocks_by_width(data, 2, granularity, keep),
        4 => return prune_blocks_by_width(data, 4, granularity, keep),
        6 => return prune_blocks_by_width(data, 6, granularity, keep),
        8 => return prune_blocks_by_width(data, 8, granularity, keep),
        ..=32 => return prune_blocks_by_width(data, h, granularity, keep),
        _ => {}
    }
    let keys = &mut scratch.keys;
    for grp in data.chunks_exact_mut(group) {
        // Packing `(!total_cmp_key(score) << 32) | index` turns the
        // (score desc, index asc) order into one ascending integer sort.
        keys.clear();
        for (b, block) in grp.chunks_exact(granularity).enumerate() {
            keys.push((u128::from(!block_key(block)) << 32) | b as u128);
        }
        keys.sort_unstable();
        for &k in &keys[keep..] {
            let lo = (k as u32) as usize * granularity;
            grp[lo..lo + granularity].fill(0.0);
        }
    }
}

/// [`prune_blocks`] with constant arms for block widths 2 and 4.
#[inline(always)]
fn prune_blocks_by_width(data: &mut [f32], h: usize, granularity: usize, keep: usize) {
    match granularity {
        2 => prune_blocks(data, h, 2, keep),
        4 => prune_blocks(data, h, 4, keep),
        _ => prune_blocks(data, h, granularity, keep),
    }
}

/// Keeps the `keep` blocks of largest [`sum_sq`] in every group of `h`
/// blocks of `granularity` values (`h <= 32`). Always inlined, so each
/// constant `(h, granularity)` call site gets its own unrolled copy.
#[inline(always)]
fn prune_blocks(data: &mut [f32], h: usize, granularity: usize, keep: usize) {
    let mut keys = [0u64; 32];
    for grp in data.chunks_exact_mut(h * granularity) {
        for (key, block) in keys.iter_mut().zip(grp.chunks_exact(granularity)) {
            *key = block_key(block);
        }
        let kept = survivors(&keys[..h], keep);
        let mut dropped = !kept & (u64::MAX >> (64 - h)) as u32;
        while dropped != 0 {
            let lo = dropped.trailing_zeros() as usize * granularity;
            grp[lo..lo + granularity].fill(0.0);
            dropped &= dropped - 1;
        }
    }
}

/// Lowest-rank kernel for a fixed group width `H`: keeps the `keep`
/// largest-magnitude values of every `H`-value group of `data`.
fn prune_values<const H: usize>(data: &mut [f32], keep: usize) {
    for grp in data.chunks_exact_mut(H) {
        let mut keys = [0u32; H];
        for (key, v) in keys.iter_mut().zip(grp.iter()) {
            *key = v.to_bits() & 0x7FFF_FFFF;
        }
        let kept = if keys.iter().any(|&k| k > f32::INFINITY.to_bits()) {
            nan_group_survivors(grp, keep)
        } else {
            survivors(&keys, keep)
        };
        for (b, v) in grp.iter_mut().enumerate() {
            // All ones keeps the value, zero writes `+0.0`.
            let mask = 0u32.wrapping_sub((kept >> b) & 1);
            *v = f32::from_bits(v.to_bits() & mask);
        }
    }
}

/// [`survivors`] of a lowest-rank group (at most 8 values) holding a NaN,
/// ranked by the [`block_key`] of each value. Kept out of line so the
/// NaN-free loop stays small.
#[cold]
fn nan_group_survivors(grp: &[f32], keep: usize) -> u32 {
    let mut keys = [0u64; 8];
    for (key, v) in keys.iter_mut().zip(grp) {
        *key = block_key(std::slice::from_ref(v));
    }
    survivors(&keys[..grp.len()], keep)
}

/// Bit `b` set iff block `b` is among the `keep` first of `keys` in
/// (key descending, index ascending) order: fewer than `keep` blocks
/// precede it — an earlier block on an equal or greater key, a later one
/// only on a strictly greater key. Needs `keys.len() <= 32`.
#[inline(always)]
fn survivors<K: Copy + Ord>(keys: &[K], keep: usize) -> u32 {
    let mut kept = 0;
    for (b, &kb) in keys.iter().enumerate() {
        let earlier = keys[..b].iter().filter(|&&k| k >= kb).count();
        let later = keys[b + 1..].iter().filter(|&&k| k > kb).count();
        kept |= u32::from(earlier + later < keep) << b;
    }
    kept
}

/// Sparsifies a dense matrix to an N-rank HSS pattern, rank-by-rank in
/// lower-to-higher order (paper §4.2).
///
/// Intermediate-rank scores are computed on the already-pruned payloads, so
/// a block that lost its large values at a lower rank is judged by what
/// survives — exactly the chained procedure the paper describes.
///
/// The input is cloned once; every rank then prunes the same buffer in
/// place.
///
/// # Panics
/// Panics if the column count is not a multiple of the pattern group size.
pub fn prune_hss(m: &Matrix, pattern: &HssPattern) -> Matrix {
    let mut out = m.clone();
    prune_hss_ranks_in_place(&mut out, pattern, 0, &mut PruneScratch::new());
    out
}

/// Prunes the ranks of `pattern` above the `skip` lowest ones, in place,
/// lowest-to-highest — the resumable core of [`prune_hss`].
///
/// `skip == 0` is full HSS pruning. With `skip == 1` the caller supplies a
/// matrix already pruned at the lowest rank; because the lowest rank's
/// result depends only on the input and that rank's `G:H` (its granularity
/// is always 1), candidate patterns sharing a lowest rank can prune it once
/// and replay the higher ranks per candidate from that shared prefix.
///
/// # Panics
/// Panics if `skip > pattern.rank_count()` or the column count is not a
/// multiple of the pattern group size.
pub fn prune_hss_ranks_in_place(
    m: &mut Matrix,
    pattern: &HssPattern,
    skip: usize,
    scratch: &mut PruneScratch,
) {
    let n = pattern.rank_count();
    assert!(skip <= n, "skip ({skip}) exceeds rank count ({n})");
    // ranks() is highest-first; iterate lowest-first.
    for (i, gh) in pattern.ranks().iter().rev().enumerate().skip(skip) {
        let granularity: usize = pattern.ranks()[n - i..]
            .iter()
            .map(|r| r.h as usize)
            .product();
        prune_rank_in_place(m, *gh, granularity, scratch);
    }
}

/// Flat indices of `m` ordered by ascending magnitude (ties keep the lower
/// index) — the pruning order [`prune_unstructured`] consumes.
///
/// The order depends only on the matrix, not on the sparsity degree, so
/// sweeps that prune the same matrix at many degrees can compute it once
/// and replay it through [`prune_unstructured_ordered`].
///
/// # Panics
/// Panics if the matrix holds `u32::MAX` or more elements (the order is
/// stored as `u32` indices to halve its cache footprint).
pub fn magnitude_order(m: &Matrix) -> Vec<u32> {
    let total = m.rows() * m.cols();
    assert!(
        total < u32::MAX as usize,
        "matrix too large for u32 pruning order ({total} elements)"
    );
    // For nonnegative floats (sign bit cleared == abs), `total_cmp` is the
    // unsigned compare of the raw bit patterns — NaNs sit above +∞ exactly
    // as `total_cmp` orders them, so corrupt weights land at the end of
    // the pruning order (pruned last) rather than panicking a comparator.
    // Packing `(magnitude bits << 32) | index` makes the whole
    // (magnitude asc, index asc) order one integer sort with the tiebreak
    // built into the low word.
    let mut keys: Vec<u64> = m
        .data()
        .iter()
        .enumerate()
        .map(|(i, &v)| (u64::from(v.to_bits() & 0x7FFF_FFFF) << 32) | i as u64)
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(|k| k as u32).collect()
}

/// [`prune_unstructured`] with a precomputed [`magnitude_order`]: zeroes
/// the `round(sparsity · len)` first entries of `order`.
///
/// # Panics
/// Panics if `sparsity` is outside `[0, 1]` or `order` does not cover `m`.
pub fn prune_unstructured_ordered(m: &Matrix, sparsity: f64, order: &[u32]) -> Matrix {
    assert!((0.0..=1.0).contains(&sparsity), "sparsity must be in [0,1]");
    let total = m.rows() * m.cols();
    assert_eq!(order.len(), total, "order must cover every element");
    let remove = (sparsity * total as f64).round() as usize;
    let mut out = m.clone();
    let data = out.data_mut();
    for &i in &order[..remove] {
        data[i as usize] = 0.0;
    }
    out
}

/// Unstructured magnitude pruning: zeroes the `round(sparsity · len)`
/// smallest-magnitude values globally (ties keep lower index).
///
/// # Panics
/// Panics if `sparsity` is outside `[0, 1]`.
pub fn prune_unstructured(m: &Matrix, sparsity: f64) -> Matrix {
    prune_unstructured_ordered(m, sparsity, &magnitude_order(m))
}

/// Fraction of the squared-magnitude (energy) of `original` retained by
/// `pruned` — the signal the accuracy surrogate consumes.
///
/// Returns 1.0 when `original` is all zeros.
///
/// # Panics
/// Panics if the shapes differ.
pub fn retained_norm_fraction(original: &Matrix, pruned: &Matrix) -> f64 {
    retained_norm_fraction_with_total(total_sq_norm(original), original, pruned)
}

/// Total squared-magnitude (energy) of a matrix, accumulated in data
/// order — the denominator of [`retained_norm_fraction`], exposed so
/// callers scoring many prunings of one matrix compute it once.
pub fn total_sq_norm(m: &Matrix) -> f64 {
    sum_sq(m.data())
}

/// [`retained_norm_fraction`] with a precomputed [`total_sq_norm`] of
/// `original`.
///
/// # Panics
/// Panics if the shapes differ.
pub fn retained_norm_fraction_with_total(total: f64, original: &Matrix, pruned: &Matrix) -> f64 {
    assert_eq!(original.rows(), pruned.rows(), "shape mismatch");
    assert_eq!(original.cols(), pruned.cols(), "shape mismatch");
    if total == 0.0 {
        return 1.0;
    }
    sum_sq(pruned.data()) / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_tensor::gen;

    /// The sort-based selection the rank-count kernels replaced, kept as
    /// their oracle: per group, pack `(!block_key(block) << 32) | index`,
    /// sort ascending, and zero every block past the first `keep`.
    fn prune_rank_sorted(m: &Matrix, gh: Gh, granularity: usize) -> Matrix {
        let mut out = m.clone();
        let group = gh.h as usize * granularity;
        let h = gh.h as usize;
        let keep = (gh.g as usize).min(h);
        let mut keys: Vec<u128> = Vec::new();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            for start in (0..row.len()).step_by(group) {
                keys.clear();
                for b in 0..h {
                    let lo = start + b * granularity;
                    let key = block_key(&row[lo..lo + granularity]);
                    keys.push((u128::from(!key) << 32) | b as u128);
                }
                keys.sort_unstable();
                for &k in &keys[keep..] {
                    let lo = start + (k as u32) as usize * granularity;
                    row[lo..lo + granularity].fill(0.0);
                }
            }
        }
        out
    }

    /// splitmix64: a dependency-free stream for the property test.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A matrix of small-integer-valued weights (so magnitudes tie often)
    /// salted with signed zeros, infinities, and NaNs of both signs with
    /// different payloads.
    fn adversarial_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed;
        let special = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7FC0_0001),
            f32::from_bits(0xFF80_0002),
            f32::MIN_POSITIVE / 4.0,
            f32::MAX,
        ];
        Matrix::from_fn(rows, cols, |_, _| {
            let r = next(&mut state);
            match r % 16 {
                0 => special[(r >> 8) as usize % special.len()],
                1..=7 => ((r >> 8) % 7) as f32 - 3.0,
                _ => f32::from_bits((r >> 32) as u32 & 0xBFFF_FFFF) * 1e-20,
            }
        })
    }

    #[test]
    fn rank_count_kernels_match_sorted_selection_bit_for_bit() {
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let widths = (1..=9).chain([16, 32, 33]);
        let mut seed = 1;
        for h in widths {
            for granularity in [1, 2, 4] {
                for g in 0..=h {
                    // G = 0 is not a valid `Gh::new` ratio, but the kernel
                    // must still drop every block.
                    let gh = Gh { g, h };
                    let cols = h as usize * granularity * 3;
                    for rows in [1, 5] {
                        seed += 1;
                        let m = adversarial_matrix(rows, cols, seed);
                        assert_eq!(
                            bits(&prune_rank(&m, gh, granularity)),
                            bits(&prune_rank_sorted(&m, gh, granularity)),
                            "{g}:{h} at granularity {granularity}, seed {seed}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lowest_rank_keeps_largest_magnitudes() {
        let m = Matrix::from_rows(&[&[1.0, -4.0, 0.5, 3.0, 2.0, -1.0, 0.1, 0.2]]);
        let p = prune_lowest_rank(&m, Gh::new(2, 4));
        assert_eq!(p.row(0), &[0.0, -4.0, 0.0, 3.0, 2.0, -1.0, 0.0, 0.0]);
    }

    #[test]
    fn prune_produces_conformant_pattern() {
        let m = gen::random_dense(16, 64, 3);
        let pattern = HssPattern::two_rank(Gh::new(3, 4), Gh::new(2, 4));
        let p = prune_hss(&m, &pattern);
        assert_eq!(gen::check_hss(&p, pattern.ranks()), None);
        // Exactly the pattern density (dense input, exact top-k per block).
        assert!((p.density() - pattern.density_f64()).abs() < 1e-12);
    }

    #[test]
    fn prune_three_rank_conformant() {
        let m = gen::random_dense(4, 64, 5);
        let pattern = HssPattern::new(vec![Gh::new(1, 2), Gh::new(3, 4), Gh::new(2, 4)]);
        let p = prune_hss(&m, &pattern);
        assert_eq!(gen::check_hss(&p, pattern.ranks()), None);
    }

    #[test]
    fn lower_to_higher_ordering_uses_pruned_scores() {
        // Block 0 holds one huge value and trash; block 1 holds two medium
        // values. After 1:2 rank0 pruning, block 0 keeps only the huge value;
        // rank1 1:2 must then prefer block 0 by scaled-L2 of survivors.
        let m = Matrix::from_rows(&[&[10.0, 0.1, 3.0, 3.0]]);
        let pattern = HssPattern::two_rank(Gh::new(1, 2), Gh::new(1, 2));
        let p = prune_hss(&m, &pattern);
        assert_eq!(p.row(0), &[10.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn hss_retains_more_norm_than_coarse_pruning_at_equal_sparsity() {
        let m = gen::random_dense(8, 64, 7);
        // 50% sparsity two ways: fine-grained 2:4 vs coarse 1:2 over blocks of 16.
        let fine = prune_hss(&m, &HssPattern::one_rank(Gh::new(2, 4)));
        let coarse = prune_rank(&m, Gh::new(1, 2), 16);
        let rf = retained_norm_fraction(&m, &fine);
        let rc = retained_norm_fraction(&m, &coarse);
        assert!(
            rf > rc,
            "fine-grained pruning must retain more norm ({rf} vs {rc})"
        );
        // Unstructured pruning retains the most.
        let un = prune_unstructured(&m, 0.5);
        assert!(retained_norm_fraction(&m, &un) >= rf);
    }

    #[test]
    fn unstructured_exact_count_and_magnitude_optimality() {
        let m = gen::random_dense(8, 8, 9);
        let p = prune_unstructured(&m, 0.25);
        assert_eq!(p.nonzeros(), 48);
        // Every kept magnitude >= every dropped magnitude.
        let mut kept: Vec<f32> = Vec::new();
        let mut dropped: Vec<f32> = Vec::new();
        for (o, n) in m.data().iter().zip(p.data()) {
            if *n == 0.0 {
                dropped.push(o.abs());
            } else {
                kept.push(o.abs());
            }
        }
        let min_kept = kept.iter().cloned().fold(f32::INFINITY, f32::min);
        let max_dropped = dropped.iter().cloned().fold(0.0, f32::max);
        assert!(min_kept >= max_dropped);
    }

    #[test]
    fn nan_weights_do_not_panic_pruning() {
        // A corrupt (NaN) weight must rank deterministically instead of
        // panicking the sort comparators (NaN-poisoned checkpoints reach
        // the surrogate through served pruning configs).
        let m = Matrix::from_rows(&[&[1.0, f32::NAN, 0.5, 3.0, 2.0, -1.0, 0.1, 0.2]]);
        let p = prune_lowest_rank(&m, Gh::new(2, 4));
        // NaN scores above every finite magnitude: it survives 2:4 along
        // with the largest finite value of its block.
        assert!(p.row(0)[1].is_nan());
        assert_eq!(p.row(0)[0], 0.0);
        assert_eq!(p.row(0)[3], 3.0);
        // Unstructured pruning ranks NaN last in the removal order.
        let order = magnitude_order(&m);
        assert_eq!(order.last(), Some(&1));
        let u = prune_unstructured(&m, 0.5);
        assert!(u.row(0)[1].is_nan(), "NaN is pruned last, so it survives");
        // A NaN payload score at an intermediate rank is handled the same
        // way (scaled_l2 of a NaN block is NaN).
        let wide = Matrix::from_rows(&[&[f32::NAN, 0.1, 3.0, 3.0]]);
        let hss = prune_hss(&wide, &HssPattern::two_rank(Gh::new(1, 2), Gh::new(1, 2)));
        assert!(hss.row(0)[0].is_nan());
        assert_eq!(&hss.row(0)[1..], &[0.0, 0.0, 0.0]);
        // A block holding NaNs of both signs scores as its first NaN, in
        // any build: a leading negative NaN ranks below every number, a
        // leading positive one above.
        let n = f32::NAN;
        let mixed = Matrix::from_rows(&[&[-n, n, 1.0, 1.0, n, -n, 1.0, 1.0]]);
        let p = prune_rank(&mixed, Gh::new(1, 2), 2);
        assert_eq!(&p.row(0)[..4], &[0.0, 0.0, 1.0, 1.0]);
        assert!(p.row(0)[4].is_nan() && p.row(0)[5].is_nan());
        assert_eq!(&p.row(0)[6..], &[0.0, 0.0]);
    }

    #[test]
    fn dense_pattern_is_identity() {
        let m = gen::random_dense(4, 16, 11);
        assert_eq!(prune_hss(&m, &HssPattern::dense()), m);
        assert_eq!(prune_unstructured(&m, 0.0), m);
    }

    #[test]
    fn scaled_l2_basics() {
        assert_eq!(scaled_l2(&[]), 0.0);
        assert!((scaled_l2(&[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
        // Scale-invariance in block size: same values repeated.
        assert!((scaled_l2(&[2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn retained_norm_of_identity_is_one() {
        let m = gen::random_dense(4, 4, 13);
        assert!((retained_norm_fraction(&m, &m) - 1.0).abs() < 1e-12);
        let z = Matrix::zeros(4, 4);
        assert_eq!(retained_norm_fraction(&z, &z), 1.0);
    }
}
