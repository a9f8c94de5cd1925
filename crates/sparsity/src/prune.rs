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
//! The functions here operate on row-major [`Matrix`] data, matching how
//! operand A's flattened `K` dimension is blocked by the hardware. One
//! selection kernel decides which blocks of every group survive and
//! records them in a [`KeptMask`]; [`prune_hss`] zeroes the values the
//! mask drops, and [`hss_kept_sum_sq`] adds up the squares of the values
//! it keeps, which is the accuracy surrogate's score, without building a
//! pruned copy. Unstructured magnitude pruning is provided for the
//! DSTC-like baseline.
//!
//! ## Scoring many patterns on one matrix
//!
//! A co-design search scores dozens of patterns on each weight matrix,
//! and HSS patterns built from the same per-rank `G:H` choices share most
//! of their selection work. [`hss_kept_sums`] scores a list of patterns
//! together, sharing the selection, not the sums:
//!
//! - patterns that agree on their lowest ranks share the mask those ranks
//!   leave (a one-rank pattern equal to a shared lowest rank sums over
//!   that mask);
//! - the next ranks over one mask at one granularity share one set of
//!   block scores, computed a segment of rows at a time;
//! - the ranks among those that share `H` share one rank count per group,
//!   and each `G` only picks its survivors from the count.
//!
//! [`unstructured_sums`] scores every unstructured degree of a matrix in
//! one data-order pass over its [`magnitude_ranks`]. Every sum stays a
//! data-order sum from `+0.0` over the values kept, so each one is bit
//! for bit the sum of the matching pruned matrix ([`prune_hss`],
//! [`prune_unstructured`]), the oracle the tests compare against.

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
    values.iter().map(|&v| sq(v)).sum()
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

/// The square of one value, widened to `f64` (one term of [`sum_sq`]).
fn sq(v: f32) -> f64 {
    f64::from(v) * f64::from(v)
}

/// Reusable buffers for the pruning kernels: the sort keys of groups wider
/// than 32 blocks (narrower groups are ranked on the stack), and the block
/// scores of one segment, which every `H` of a shared selection ranks.
///
/// One scratch serves every call on a thread instead of fresh vectors per
/// call.
#[derive(Debug, Default)]
pub struct PruneScratch {
    keys: Vec<u128>,
    scores: Vec<f64>,
}

impl PruneScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Which values of a row-major buffer survive a pruning: bit `i % 64` of
/// word `i / 64` is set iff element `i` is kept.
///
/// A 64×1024 proxy's mask takes 8 KB, a 32nd of the `f32` matrix it
/// selects from, so a cache can hold a shared lowest-rank selection as a
/// mask instead of as a pruned matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeptMask {
    words: Vec<u64>,
    len: usize,
}

impl KeptMask {
    /// A mask keeping all `len` values.
    fn all(len: usize) -> Self {
        let mut words = vec![u64::MAX; len.div_ceil(64)];
        if let (Some(last), tail @ 1..) = (words.last_mut(), len % 64) {
            *last = u64::MAX >> (64 - tail);
        }
        Self { words, len }
    }

    /// Calls `f` with the index of every kept value in `lo..hi`, lowest
    /// first.
    #[inline(always)]
    fn for_each_in(&self, lo: usize, hi: usize, mut f: impl FnMut(usize)) {
        if lo >= hi {
            return;
        }
        if hi - lo <= 64 {
            let mut bits = self.bits_at(lo, hi - lo);
            while bits != 0 {
                f(lo + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
            return;
        }
        let last = (hi - 1) / 64;
        let mut w = lo / 64;
        let mut bits = self.words[w] & (u64::MAX << (lo % 64));
        loop {
            if w == last {
                bits &= u64::MAX >> (63 - (hi - 1) % 64);
            }
            while bits != 0 {
                f(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
            if w == last {
                return;
            }
            w += 1;
            bits = self.words[w];
        }
    }

    /// Bit `i` set iff value `lo + i` is kept, for `i < n` (`1 <= n <= 64`).
    #[inline(always)]
    fn bits_at(&self, lo: usize, n: usize) -> u64 {
        let (w, shift) = (lo / 64, lo % 64);
        let mut bits = self.words[w] >> shift;
        if shift + n > 64 {
            bits |= self.words[w + 1] << (64 - shift);
        }
        bits & (u64::MAX >> (64 - n))
    }

    /// Drops value `lo + i` for every bit `i` set in `bits`.
    #[inline(always)]
    fn drop_bits(&mut self, lo: usize, bits: u64) {
        let (w, shift) = (lo / 64, lo % 64);
        self.words[w] &= !(bits << shift);
        if shift != 0 && bits >> (64 - shift) != 0 {
            self.words[w + 1] &= !(bits >> (64 - shift));
        }
    }

    /// Drops the `n` values starting at `lo`.
    fn drop_range(&mut self, lo: usize, n: usize) {
        let end = lo + n;
        let mut i = lo;
        while i < end {
            let shift = i % 64;
            let take = (64 - shift).min(end - i);
            self.words[i / 64] &= !((u64::MAX >> (64 - take)) << shift);
            i += take;
        }
    }

    /// Writes `+0.0` over every value of `data` the mask drops; kept values
    /// keep their bits.
    fn zero_dropped(&self, data: &mut [f32]) {
        // Eight values per mask byte, each tested with a constant bit, so
        // the loop compiles to vector selects.
        let (full, tail) = data.as_chunks_mut::<8>();
        let start = full.len() * 8;
        let bytes = self.words.iter().flat_map(|w| w.to_le_bytes());
        for (chunk, byte) in full.iter_mut().zip(bytes) {
            let bits = u32::from(byte);
            for (j, v) in chunk.iter_mut().enumerate() {
                // All ones keeps the value, zero writes `+0.0`.
                let keep = 0u32.wrapping_sub(u32::from(bits & (1 << j) != 0));
                *v = f32::from_bits(v.to_bits() & keep);
            }
        }
        for (i, v) in (start..).zip(tail) {
            if (self.words[i / 64] >> (i % 64)) & 1 == 0 {
                *v = 0.0;
            }
        }
    }
}

/// Σv² over the values of `data` that `kept` keeps (all of them for
/// `None`), lowest index first, starting from `+0.0`.
///
/// This equals [`sum_sq`] of the pruned data bit for bit. A dropped value
/// adds an exact `+0.0` there, and `x + 0.0 == x` for every `x` except
/// `-0.0`; a sum of squares started from `+0.0` never is `-0.0`.
fn kept_sum_sq(data: &[f32], kept: Option<&KeptMask>) -> f64 {
    let Some(kept) = kept else {
        return sum_sq_in_order(data);
    };
    let mut acc = 0.0;
    kept.for_each_in(0, data.len(), |i| acc += sq(data[i]));
    acc
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

/// The selection key of a block whose [`sum_sq`] score is `score`: its
/// [`total_cmp_key`], where a NaN score is keyed as the block's first NaN
/// (`first_nan`), widened to `f64` and quieted with sign and payload kept
/// — what evaluating the sum in slice order on IEEE hardware yields. That
/// NaN is built from bits because Rust leaves the sign and payload of a
/// NaN that arithmetic produces unspecified (the optimizer may swap the
/// operands of an add of two NaNs), and the kept set must not depend on
/// code generation.
fn score_key(score: f64, first_nan: impl FnOnce() -> Option<f32>) -> u64 {
    if !score.is_nan() {
        return total_cmp_key(score);
    }
    // Squares are never negative, so the sum is NaN only if a value is.
    let Some(nan) = first_nan() else {
        return total_cmp_key(score);
    };
    let b = u64::from(nan.to_bits());
    let widened = ((b >> 31) << 63) | (0x7FF8 << 48) | ((b & 0x7F_FFFF) << 29);
    total_cmp_key(f64::from_bits(widened))
}

/// Σv² of the block `data[lo..lo + n]`, reading the values `prior` drops
/// as `+0.0` (`None` keeps all) — the score the block has once the lower
/// ranks are zeroed. Only the kept squares are added, which gives the same
/// sum (see [`kept_sum_sq`]).
#[inline(always)]
fn block_score(data: &[f32], prior: Option<&KeptMask>, lo: usize, n: usize) -> f64 {
    let Some(kept) = prior else {
        return sum_sq_in_order(&data[lo..lo + n]);
    };
    let mut score = 0.0;
    kept.for_each_in(lo, lo + n, |i| score += sq(data[i]));
    score
}

/// The selection key of the block scored by [`block_score`].
fn block_key(data: &[f32], prior: Option<&KeptMask>, lo: usize, n: usize) -> u64 {
    score_key(block_score(data, prior, lo, n), || {
        let mut nan = None;
        let find = |i: usize| {
            if nan.is_none() && data[i].is_nan() {
                nan = Some(data[i]);
            }
        };
        match prior {
            None => (lo..lo + n).for_each(find),
            Some(kept) => kept.for_each_in(lo, lo + n, find),
        }
        nan
    })
}

/// Groups the selection kernel ranks at once, one per lane.
const LANES: usize = 8;

/// Values whose block scores a shared selection computes at a time: whole
/// rows of at least this many values, so that no group straddles two
/// segments and the scores stay in cache.
const SEGMENT: usize = 4096;

/// Rank counts of `LANES` groups of `h <= H <= 32` blocks: `keys[b][l]` is
/// the key of block `b` of the group in lane `l`, and `ahead[b][l]` counts
/// the blocks of that group that precede it in (key descending, index
/// ascending) order. `K` must be totally ordered on the keys given.
///
/// An earlier block precedes on an equal or greater key, a later one only
/// on a strictly greater key. A `G:H` selection — the paper's "top-k with
/// ties to the lower index" — keeps a block iff fewer than `G` blocks
/// precede it ([`survivor_masks`]): exactly the set a sort of the same
/// keys keeps. The counts do not depend on `G`, so one count serves every
/// `G` of an `H`. One compare per unordered pair settles both directions,
/// and the lanes make every compare a vector operation. (The inner loop
/// runs over all `H` so that both loops unroll completely and the counts
/// stay in registers.)
#[inline(always)]
fn rank_ahead<K: Copy + PartialOrd, const H: usize>(
    keys: &[[K; LANES]; H],
    h: usize,
) -> [[u32; LANES]; H] {
    let mut ahead = [[0u32; LANES]; H];
    for i in 0..h.min(H) {
        for j in 0..H {
            if i < j && j < h {
                for l in 0..LANES {
                    let ge = u32::from(keys[i][l] >= keys[j][l]);
                    ahead[i][l] += 1 - ge;
                    ahead[j][l] += ge;
                }
            }
        }
    }
    ahead
}

/// Survivor masks of a selection keeping `keep` of the `h` blocks of each
/// lane's group: bit `b` of lane `l` is set iff fewer than `keep` blocks
/// precede block `b` ([`rank_ahead`]).
#[inline(always)]
fn survivor_masks<const H: usize>(
    ahead: &[[u32; LANES]; H],
    h: usize,
    keep: usize,
) -> [u32; LANES] {
    let mut kept = [0u32; LANES];
    for (b, row) in ahead.iter().enumerate().take(h) {
        for (mask, &n) in kept.iter_mut().zip(row) {
            *mask |= u32::from(n < keep as u32) << b;
        }
    }
    kept
}

/// Rank counts of the `lanes <= LANES` groups of `h <= H` blocks of
/// `granularity` values starting at group `g0`, where `prior` drops the
/// values earlier ranks pruned, keyed by [`block_key`]s: the ranking of a
/// batch holding a NaN score. Counts of lanes past `lanes` are
/// meaningless.
#[cold]
#[inline(never)]
fn key_ahead<const H: usize>(
    data: &[f32],
    prior: Option<&KeptMask>,
    g0: usize,
    lanes: usize,
    h: usize,
    granularity: usize,
) -> [[u32; LANES]; H] {
    let group = h * granularity;
    let mut keys = [[0u64; LANES]; H];
    for l in 0..lanes {
        let lo = (g0 + l) * group;
        for (b, row) in keys.iter_mut().enumerate().take(h) {
            row[l] = block_key(data, prior, lo + b * granularity, granularity);
        }
    }
    rank_ahead(&keys, h)
}

/// Rank counts of `LANES` groups of `H` single values with nothing dropped
/// yet — the lowest rank — from cheaper exact keys, or `None` if a value
/// is NaN.
///
/// A value's score is the square of an `f32` in `f64`, which is exact and
/// strictly monotone in `|v|`, so the 31-bit magnitude
/// `to_bits() & 0x7FFF_FFFF` orders values exactly as their squares do,
/// as an `i32` the vector unit compares natively. That fails only for NaN
/// (a negative NaN squares below every number under `total_cmp`), so a
/// batch holding a NaN ranks by [`block_key`]s instead.
#[inline(always)]
fn value_ahead<const H: usize>(groups: &[[f32; H]; LANES]) -> Option<[[u32; LANES]; H]> {
    let mut keys = [[0i32; LANES]; H];
    for (l, grp) in groups.iter().enumerate() {
        for (row, &v) in keys.iter_mut().zip(grp) {
            row[l] = (v.to_bits() & 0x7FFF_FFFF) as i32;
        }
    }
    let nan = groups
        .as_flattened()
        .iter()
        .fold(false, |nan, v| nan | v.is_nan());
    (!nan).then(|| rank_ahead(&keys, H))
}

/// Where the survivors of one `G` of a selection go.
enum Take<'m> {
    /// Every dropped block is cleared from this mask.
    Drop(&'m mut KeptMask),
    /// The squares of the kept values are added to this sum in data order
    /// (see [`kept_sum_sq`]): the values of every surviving block that the
    /// selection's prior keeps.
    Sum(&'m mut f64),
}

/// The consumer of one rank's selection: every `G` (as the number of
/// blocks it keeps) that shares the rank's `H`, granularity and prior,
/// each with where its survivors go.
struct Select<'a, 'm> {
    data: &'a [f32],
    /// The values earlier ranks dropped (`None` keeps all).
    prior: Option<&'a KeptMask>,
    takes: Vec<(usize, Take<'m>)>,
}

impl Select<'_, '_> {
    /// Hands every take the survivors of groups `g0..g0 + lanes`, of `h`
    /// blocks of `granularity` values, whose blocks are ranked `ahead`.
    #[inline(always)]
    fn batch<const H: usize>(
        &mut self,
        g0: usize,
        lanes: usize,
        ahead: &[[u32; LANES]; H],
        h: usize,
        granularity: usize,
    ) {
        let (data, prior) = (self.data, self.prior);
        let group = h * granularity;
        // Lanes whose groups share one 64-bit element mask.
        let per = (64 / group).max(1);
        for (keep, take) in &mut self.takes {
            let masks = survivor_masks(ahead, h, *keep);
            if lanes * group <= 64 {
                // The common case: the whole batch in one element mask.
                take_bits(
                    data,
                    prior,
                    take,
                    g0 * group,
                    &masks[..lanes],
                    h,
                    granularity,
                );
            } else if group <= 64 {
                for l0 in (0..lanes).step_by(per) {
                    let n = per.min(lanes - l0);
                    let lo = (g0 + l0) * group;
                    take_bits(data, prior, take, lo, &masks[l0..l0 + n], h, granularity);
                }
            } else {
                for (g, &mask) in (g0..).zip(&masks[..lanes]) {
                    match take {
                        Take::Drop(kept) => drop_blocks(kept, g * group, mask, h, granularity),
                        Take::Sum(sum) => {
                            **sum = add_blocks(
                                self.data,
                                self.prior,
                                **sum,
                                g * group,
                                mask,
                                granularity,
                            )
                        }
                    }
                }
            }
        }
    }
}

/// Hands `take` the survivors of consecutive groups from value `lo` of
/// `data` on, of `h` blocks of `granularity` values, whose block masks are
/// `masks` — at most 64 values, so one element mask: one or two word
/// writes, or one data-order pass over the values `prior` and the masks
/// keep.
#[inline(always)]
fn take_bits(
    data: &[f32],
    prior: Option<&KeptMask>,
    take: &mut Take,
    lo: usize,
    masks: &[u32],
    h: usize,
    granularity: usize,
) {
    let group = h * granularity;
    let span = masks.len() * group;
    let bits = masks.iter().enumerate().fold(0, |bits, (i, &mask)| {
        bits | widen_bits(u64::from(mask), h, granularity) << (i * group)
    });
    match take {
        Take::Drop(kept) => kept.drop_bits(lo, !bits & (u64::MAX >> (64 - span))),
        Take::Sum(sum) => {
            let mut bits = prior.map_or(bits, |p| p.bits_at(lo, span) & bits);
            let mut acc = **sum;
            while bits != 0 {
                acc += sq(data[lo + bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
            **sum = acc;
        }
    }
}

/// Drops from `kept` the blocks of the group at `lo`, of `h` blocks of
/// `granularity` values, that `mask` does not keep.
fn drop_blocks(kept: &mut KeptMask, lo: usize, mask: u32, h: usize, granularity: usize) {
    let mut dropped = !mask & (u32::MAX >> (32 - h));
    while dropped != 0 {
        let b = dropped.trailing_zeros() as usize;
        kept.drop_range(lo + b * granularity, granularity);
        dropped &= dropped - 1;
    }
}

/// `acc` plus the squares of the values of the group at `lo`, of blocks
/// of `granularity` values, that `mask` and `prior` keep, in data order.
fn add_blocks(
    data: &[f32],
    prior: Option<&KeptMask>,
    mut acc: f64,
    lo: usize,
    mask: u32,
    granularity: usize,
) -> f64 {
    let mut m = mask;
    while m != 0 {
        let start = lo + m.trailing_zeros() as usize * granularity;
        match prior {
            None => data[start..start + granularity]
                .iter()
                .for_each(|&v| acc += sq(v)),
            Some(kept) => kept.for_each_in(start, start + granularity, |i| acc += sq(data[i])),
        }
        m &= m - 1;
    }
    acc
}

/// The element mask of the block mask `mask`, whose low `n` bits are `n`
/// blocks of `granularity` values (`n * granularity <= 64`): each block
/// bit widened to its `granularity` value bits.
#[inline(always)]
fn widen_bits(mask: u64, n: usize, granularity: usize) -> u64 {
    match granularity {
        1 => mask,
        2 => {
            // Spread the (at most 32) bits one apart, then double each.
            let mut x = mask;
            x = (x | x << 16) & 0x0000_FFFF_0000_FFFF;
            x = (x | x << 8) & 0x00FF_00FF_00FF_00FF;
            x = (x | x << 4) & 0x0F0F_0F0F_0F0F_0F0F;
            x = (x | x << 2) & 0x3333_3333_3333_3333;
            x = (x | x << 1) & 0x5555_5555_5555_5555;
            x * 0b11
        }
        4 => {
            // Spread the (at most 16) bits three apart, then fill each.
            let mut x = mask;
            x = (x | x << 24) & 0x0000_00FF_0000_00FF;
            x = (x | x << 12) & 0x000F_000F_000F_000F;
            x = (x | x << 6) & 0x0303_0303_0303_0303;
            x = (x | x << 3) & 0x1111_1111_1111_1111;
            x * 0b1111
        }
        _ => {
            let block = u64::MAX >> (64 - granularity);
            (0..n).fold(0, |acc, b| {
                acc | (((mask >> b) & 1) * block) << (b * granularity)
            })
        }
    }
}

/// Hands `select` the rank counts of every group of `h <= H <= 32` blocks
/// of `granularity` values in one segment, whose block scores are
/// `scores` ([`block_scores`]) and whose first group is group `first` of
/// the data, ranking [`LANES`] groups at a time.
///
/// Those scores are never `-0.0` (sums of squares from `+0.0`), so unless
/// one is NaN, `>=` on them is the `total_cmp` order; a batch holding a
/// NaN score ranks by [`block_key`]s. `nan` says whether any score of the
/// segment is NaN, so that a clean segment checks no batch.
#[inline(always)]
fn rank_scored<const H: usize>(
    select: &mut Select,
    scores: &[f64],
    nan: bool,
    first: usize,
    h: usize,
    granularity: usize,
) {
    for (i, lanes_scores) in scores.chunks(LANES * h).enumerate() {
        let g0 = i * LANES;
        let lanes = lanes_scores.len() / h;
        let mut batch = [[0.0; LANES]; H];
        for (l, group) in lanes_scores.chunks_exact(h).enumerate() {
            for (row, &score) in batch.iter_mut().zip(group) {
                row[l] = score;
            }
        }
        if nan && batch.iter().flatten().any(|s| s.is_nan()) {
            let ahead =
                key_ahead::<H>(select.data, select.prior, first + g0, lanes, h, granularity);
            select.batch(first + g0, lanes, &ahead, h, granularity);
        } else {
            select.batch(first + g0, lanes, &rank_ahead(&batch, h), h, granularity);
        }
    }
}

/// [`rank_scored`] for any `h <= 32`, with constant arms for the widths
/// the co-design space and the HSS families prune, so the compiler
/// unrolls the rank count.
fn rank_segment(
    select: &mut Select,
    scores: &[f64],
    nan: bool,
    first: usize,
    h: usize,
    granularity: usize,
) {
    match (h, granularity) {
        (2, 2) => rank_scored::<2>(select, scores, nan, first, 2, 2),
        (2, 4) => rank_scored::<2>(select, scores, nan, first, 2, 4),
        (4, 2) => rank_scored::<4>(select, scores, nan, first, 4, 2),
        (4, 4) => rank_scored::<4>(select, scores, nan, first, 4, 4),
        (6, 2) => rank_scored::<6>(select, scores, nan, first, 6, 2),
        (6, 4) => rank_scored::<6>(select, scores, nan, first, 6, 4),
        (8, 2) => rank_scored::<8>(select, scores, nan, first, 8, 2),
        (8, 4) => rank_scored::<8>(select, scores, nan, first, 8, 4),
        (2, _) => rank_scored::<2>(select, scores, nan, first, 2, granularity),
        (3, _) => rank_scored::<3>(select, scores, nan, first, 3, granularity),
        (4, _) => rank_scored::<4>(select, scores, nan, first, 4, granularity),
        (5, _) => rank_scored::<5>(select, scores, nan, first, 5, granularity),
        (6, _) => rank_scored::<6>(select, scores, nan, first, 6, granularity),
        (7, _) => rank_scored::<7>(select, scores, nan, first, 7, granularity),
        (8, _) => rank_scored::<8>(select, scores, nan, first, 8, granularity),
        _ => rank_scored::<32>(select, scores, nan, first, h, granularity),
    }
}

/// Hands `select` the rank counts of every group of `H` single values of
/// its data, ranked by [`value_ahead`] — the lowest rank, nothing dropped
/// yet. The last, partial batch is ranked from a zero-padded copy.
#[inline(always)]
fn rank_values<const H: usize>(select: &mut Select) {
    let data = select.data;
    let (batches, tail) = data.as_chunks::<H>().0.as_chunks::<LANES>();
    for (i, batch) in batches.iter().enumerate() {
        let g0 = i * LANES;
        // Separate calls keep the common path's counts in registers.
        match value_ahead(batch) {
            Some(ahead) => select.batch(g0, LANES, &ahead, H, 1),
            None => select.batch(
                g0,
                LANES,
                &key_ahead::<H>(data, None, g0, LANES, H, 1),
                H,
                1,
            ),
        }
    }
    if !tail.is_empty() {
        let g0 = batches.len() * LANES;
        let mut padded = [[0.0; H]; LANES];
        padded[..tail.len()].copy_from_slice(tail);
        let ahead = value_ahead(&padded)
            .unwrap_or_else(|| key_ahead::<H>(data, None, g0, tail.len(), H, 1));
        select.batch(g0, tail.len(), &ahead, H, 1);
    }
}

/// [`rank_values`] for `2 <= h <= 8`.
fn rank_lowest(select: &mut Select, h: usize) {
    match h {
        2 => rank_values::<2>(select),
        3 => rank_values::<3>(select),
        4 => rank_values::<4>(select),
        5 => rank_values::<5>(select),
        6 => rank_values::<6>(select),
        7 => rank_values::<7>(select),
        _ => rank_values::<8>(select),
    }
}

/// The [`block_score`] of every block of `granularity` values in
/// `data[lo..hi]`, in order, into `out`.
fn block_scores(
    data: &[f32],
    prior: Option<&KeptMask>,
    lo: usize,
    hi: usize,
    granularity: usize,
    out: &mut Vec<f64>,
) {
    out.clear();
    match (granularity, prior) {
        (2, Some(kept)) => masked_block_scores::<2>(data, kept, lo, hi, out),
        (3, Some(kept)) => masked_block_scores::<3>(data, kept, lo, hi, out),
        (4, Some(kept)) => masked_block_scores::<4>(data, kept, lo, hi, out),
        (2, None) => out.extend(data[lo..hi].chunks_exact(2).map(sum_sq_in_order)),
        (4, None) => out.extend(data[lo..hi].chunks_exact(4).map(sum_sq_in_order)),
        (n, None) => out.extend(data[lo..hi].chunks_exact(n).map(sum_sq_in_order)),
        (n, Some(_)) => out.extend((lo..hi).step_by(n).map(|b| block_score(data, prior, b, n))),
    }
}

/// Σv² of `values` from `+0.0` in order: [`kept_sum_sq`] of values with
/// nothing dropped.
#[inline(always)]
fn sum_sq_in_order(values: &[f32]) -> f64 {
    values.iter().fold(0.0, |acc, &v| acc + sq(v))
}

/// [`block_scores`] of blocks of `N` values over the values `kept` keeps:
/// [`block_score`] with the block width a constant.
#[inline(always)]
fn masked_block_scores<const N: usize>(
    data: &[f32],
    kept: &KeptMask,
    lo: usize,
    hi: usize,
    out: &mut Vec<f64>,
) {
    let blocks = data[lo..hi].as_chunks::<N>().0;
    out.resize(blocks.len(), 0.0);
    for (i, (score, block)) in out.iter_mut().zip(blocks).enumerate() {
        // A block at the granularity of the rank below keeps the same
        // number of values as every other, so this loop runs a fixed
        // number of times.
        let mut bits = kept.bits_at(lo + i * N, N);
        let mut acc = 0.0;
        while bits != 0 {
            acc += sq(block[bits.trailing_zeros() as usize]);
            bits &= bits - 1;
        }
        *score = acc;
    }
}

/// Runs `ranks` — selections of one granularity over one prior, a
/// [`Select`] per `H` — over `data` of `cols` columns, scoring the blocks
/// once for all of them.
///
/// - The lowest rank (single values, nothing dropped, `H <= 8`) ranks raw
///   magnitudes ([`value_ahead`]), one pass per `H`.
/// - Other groups of up to 32 blocks share one set of [`block_score`]s,
///   computed a [`SEGMENT`] of whole rows at a time, and each `H` ranks
///   them.
/// - Groups wider than 32 blocks fall back to one packed-integer sort per
///   group and `G` ([`sort_select`]).
///
/// Each group is fully scored before any of its blocks is dropped, and
/// every take writes only its own mask or sum, so the selections read
/// exactly the scores the prior leaves.
fn select_shared(
    data: &[f32],
    cols: usize,
    granularity: usize,
    ranks: &mut [(usize, Select)],
    scratch: &mut PruneScratch,
) {
    let Some(prior) = ranks.first().map(|(_, s)| s.prior) else {
        return;
    };
    let values = |h: usize| granularity == 1 && prior.is_none() && (2..=8).contains(&h);
    let mut scored = false;
    for (h, select) in ranks.iter_mut() {
        match *h {
            h if values(h) => rank_lowest(select, h),
            ..=32 => scored = true,
            _ => sort_select(select, *h, granularity, &mut scratch.keys),
        }
    }
    if !scored {
        return;
    }
    let segment = (SEGMENT / cols.max(1)).max(1) * cols.max(1);
    for lo in (0..data.len()).step_by(segment) {
        let hi = (lo + segment).min(data.len());
        block_scores(data, prior, lo, hi, granularity, &mut scratch.scores);
        let nan = scratch.scores.iter().fold(false, |nan, s| nan | s.is_nan());
        for (h, select) in ranks.iter_mut() {
            if *h <= 32 && !values(*h) {
                rank_segment(
                    select,
                    &scratch.scores,
                    nan,
                    lo / (*h * granularity),
                    *h,
                    granularity,
                );
            }
        }
    }
}

/// One selection of groups wider than 32 blocks: per group and `G`, packs
/// `(!key << 32) | index` for every block, which turns the (score desc,
/// index asc) order into one ascending integer sort, and drops every
/// block past the first `G`. A sum takes the whole selection into a copy
/// of the prior first.
fn sort_select(select: &mut Select, h: usize, granularity: usize, keys: &mut Vec<u128>) {
    let (data, prior) = (select.data, select.prior);
    let drop_sorted = |keep: usize, kept: &mut KeptMask, keys: &mut Vec<u128>| {
        for lo in (0..data.len()).step_by(h * granularity) {
            keys.clear();
            for b in 0..h {
                let key = block_key(data, prior, lo + b * granularity, granularity);
                keys.push((u128::from(!key) << 32) | b as u128);
            }
            keys.sort_unstable();
            for &k in &keys[keep..] {
                kept.drop_range(lo + (k as u32) as usize * granularity, granularity);
            }
        }
    };
    for (keep, take) in &mut select.takes {
        match take {
            Take::Drop(kept) => drop_sorted(*keep, kept, keys),
            Take::Sum(acc) => {
                let mut kept = prior.cloned().unwrap_or_else(|| KeptMask::all(data.len()));
                drop_sorted(*keep, &mut kept, keys);
                **acc = kept_sum_sq(data, Some(&kept));
            }
        }
    }
}

/// Applies one rank to `kept`: within every aligned group of `gh.h` blocks
/// of `granularity` values, keeps the `gh.g` blocks of largest score over
/// the values `kept` still holds, and drops the rest. `fresh` says that
/// `kept` keeps everything, which lets the lowest rank rank raw
/// magnitudes.
fn apply_rank(
    data: &[f32],
    cols: usize,
    kept: &mut KeptMask,
    fresh: bool,
    gh: Gh,
    granularity: usize,
    scratch: &mut PruneScratch,
) {
    let h = gh.h as usize;
    let keep = (gh.g as usize).min(h);
    if keep == h {
        // Every block survives: the selection can drop nothing.
        return;
    }
    let prior = (!fresh).then(|| kept.clone());
    let select = Select {
        data,
        prior: prior.as_ref(),
        takes: vec![(keep, Take::Drop(kept))],
    };
    select_shared(data, cols, granularity, &mut [(h, select)], scratch);
}

/// `(G:H, granularity)` of every rank of `pattern` above its `skip` lowest
/// ones, lowest first, leaving out ranks that keep every block.
fn selecting_ranks(pattern: &HssPattern, skip: usize) -> Vec<(Gh, usize)> {
    let mut granularity = 1;
    let mut ranks = Vec::new();
    // ranks() is highest-first; iterate lowest-first.
    for (i, gh) in pattern.ranks().iter().rev().enumerate() {
        if i >= skip && gh.g < gh.h {
            ranks.push((*gh, granularity));
        }
        granularity *= gh.h as usize;
    }
    ranks
}

/// Applies `ranks` lowest first on top of `prefix` to `data` of `cols`
/// columns, returning the mask they leave, or `None` when there was
/// neither a prefix nor a rank.
fn apply_ranks(
    data: &[f32],
    cols: usize,
    ranks: &[(Gh, usize)],
    prefix: Option<&KeptMask>,
    scratch: &mut PruneScratch,
) -> Option<KeptMask> {
    let mut kept = prefix.cloned();
    for &(gh, granularity) in ranks {
        let fresh = kept.is_none();
        let mask = kept.get_or_insert_with(|| KeptMask::all(data.len()));
        apply_rank(data, cols, mask, fresh, gh, granularity, scratch);
    }
    kept
}

/// Checks that a row-major buffer of `len` values and `cols` columns
/// splits into whole groups of `group` values within rows.
fn assert_aligned(len: usize, cols: usize, group: usize) {
    assert!(
        cols.is_multiple_of(group),
        "cols ({cols}) must be a multiple of H * granularity ({group})"
    );
    assert!(
        len.is_multiple_of(cols),
        "{len} values do not fill rows of {cols}"
    );
}

/// Checks the preconditions shared by [`hss_kept`] and
/// [`hss_kept_sum_sq`].
fn check_prefix(data: &[f32], cols: usize, pattern: &HssPattern, prefix: Option<&KeptMask>) {
    assert_aligned(data.len(), cols, pattern.group_size());
    if let Some(prefix) = prefix {
        assert!(
            pattern.rank_count() >= 1 && prefix.len == data.len(),
            "a prefix mask needs a sparse rank and one bit per value"
        );
    }
}

/// The values an HSS pattern keeps in row-major `data` of `cols` columns,
/// pruned rank-by-rank in lower-to-higher order (paper §4.2).
///
/// Intermediate-rank scores are computed on what the lower ranks keep, so
/// a block that lost its large values at a lower rank is judged by what
/// survives — exactly the chained procedure the paper describes.
///
/// With `prefix` — the mask of `pattern`'s lowest rank alone — only the
/// ranks above it are applied. The lowest rank always prunes single
/// values, so its result depends only on the data and its own `G:H`, and
/// candidate patterns sharing a lowest rank can select it once.
///
/// # Panics
/// Panics if `cols` is not a multiple of the pattern group size, `data`
/// does not fill whole rows, or `prefix` does not cover `data`.
pub fn hss_kept(
    data: &[f32],
    cols: usize,
    pattern: &HssPattern,
    prefix: Option<&KeptMask>,
    scratch: &mut PruneScratch,
) -> KeptMask {
    check_prefix(data, cols, pattern, prefix);
    let ranks = selecting_ranks(pattern, usize::from(prefix.is_some()));
    apply_ranks(data, cols, &ranks, prefix, scratch).unwrap_or_else(|| KeptMask::all(data.len()))
}

/// Σv² over the values [`hss_kept`] keeps, lowest index first, starting
/// from `+0.0`: bit for bit the [`sum_sq`] of [`prune_hss`]'s output
/// (any NaN where that is NaN), with no pruned copy. This is
/// [`hss_kept_sums`] of one pattern.
///
/// # Panics
/// As [`hss_kept`].
pub fn hss_kept_sum_sq(
    data: &[f32],
    cols: usize,
    pattern: &HssPattern,
    prefix: Option<&KeptMask>,
    scratch: &mut PruneScratch,
) -> f64 {
    check_prefix(data, cols, pattern, prefix);
    let lowest: Vec<(Gh, &KeptMask)> = prefix
        .into_iter()
        .zip(pattern.ranks().last())
        .map(|(mask, &gh)| (gh, mask))
        .collect();
    let (sums, _) = hss_kept_sums(data, cols, &[pattern], &lowest, scratch);
    sums[0]
}

/// [`hss_kept_sum_sq`] of every one of `patterns` over the same `data` of
/// `cols` columns, sharing the selection work the patterns have in common.
/// Every sum is bit for bit the one [`hss_kept_sum_sq`] returns for its
/// pattern alone: a data-order sum from `+0.0` of the values it keeps.
///
/// The patterns' selecting ranks, lowest first, form a trie: patterns
/// that agree on their lowest `d` ranks share the mask those ranks leave.
/// At each node, the next ranks of one granularity share their block
/// scores, the ranks that also share `H` share one rank count, and each
/// `G` only picks its survivors from the count ([`rank_ahead`]). The rank
/// a pattern ends on sums its survivors directly, unless the mask is
/// needed anyway.
///
/// `lowest` holds already-selected lowest-rank masks, each the
/// [`hss_kept`] of the one-rank pattern of its `G:H`; the batch starts
/// from those instead of selecting them. Returns the sums, in pattern
/// order, and the lowest-rank masks the batch selected for patterns with
/// ranks above them.
///
/// # Panics
/// Panics if `cols` is not a multiple of some pattern's group size,
/// `data` does not fill whole rows, or a `lowest` mask does not cover
/// `data`.
pub fn hss_kept_sums(
    data: &[f32],
    cols: usize,
    patterns: &[&HssPattern],
    lowest: &[(Gh, &KeptMask)],
    scratch: &mut PruneScratch,
) -> (Vec<f64>, Vec<(Gh, KeptMask)>) {
    for pattern in patterns {
        assert_aligned(data.len(), cols, pattern.group_size());
    }
    assert!(
        lowest.iter().all(|(_, mask)| mask.len == data.len()),
        "a lowest-rank mask needs one bit per value"
    );
    let stacks: Vec<Vec<(Gh, usize)>> = patterns.iter().map(|p| selecting_ranks(p, 0)).collect();
    let members: Vec<(usize, &[(Gh, usize)])> =
        stacks.iter().map(Vec::as_slice).enumerate().collect();
    let mut batch = Batch {
        data,
        cols,
        sums: vec![0.0; patterns.len()],
        selected: Vec::new(),
        scratch,
    };
    batch.node(None, 0, &members, lowest);
    (batch.sums, batch.selected)
}

/// The state of one [`hss_kept_sums`] walk over its trie.
struct Batch<'a> {
    data: &'a [f32],
    cols: usize,
    sums: Vec<f64>,
    /// Lowest-rank masks selected for patterns that rank on above them.
    selected: Vec<(Gh, KeptMask)>,
    scratch: &'a mut PruneScratch,
}

/// One next rank of a trie node.
struct Child<'k> {
    /// `(G:H, granularity)`.
    rank: (Gh, usize),
    /// An already-selected mask of this rank.
    known: Option<&'k KeptMask>,
    /// The mask this rank leaves, when a pattern ranks on above it.
    mask: Option<KeptMask>,
    /// Σv² of what this rank keeps.
    sum: f64,
}

impl Batch<'_> {
    /// Scores the `members` — `(pattern index, selecting ranks)` pairs that
    /// share their lowest `depth` ranks, which leave `prior` — and walks on
    /// into the ranks above.
    fn node(
        &mut self,
        prior: Option<&KeptMask>,
        depth: usize,
        members: &[(usize, &[(Gh, usize)])],
        known: &[(Gh, &KeptMask)],
    ) {
        let data = self.data;
        let mut ended = None;
        let mut next = Vec::new();
        for &(slot, ranks) in members {
            match ranks.get(depth) {
                None => self.sums[slot] = *ended.get_or_insert_with(|| kept_sum_sq(data, prior)),
                Some(&rank) => next.push(rank),
            }
        }
        // (granularity, H, G) order puts the ranks that share block scores,
        // and within them the ones that share a rank count, side by side.
        next.sort_unstable_by_key(|&(gh, granularity)| (granularity, gh.h, gh.g));
        next.dedup();
        let goes_on = |rank: (Gh, usize)| {
            members
                .iter()
                .any(|(_, r)| r.len() > depth + 1 && r[depth] == rank)
        };
        let mut children: Vec<Child> = next
            .into_iter()
            .map(|rank| {
                let known = known
                    .iter()
                    .find(|&&(gh, _)| (gh, 1) == rank)
                    .map(|&(_, mask)| mask);
                let mask = (known.is_none() && goes_on(rank))
                    .then(|| prior.cloned().unwrap_or_else(|| KeptMask::all(data.len())));
                Child {
                    rank,
                    known,
                    mask,
                    sum: 0.0,
                }
            })
            .collect();

        for run in children.chunk_by_mut(|a, b| a.rank.1 == b.rank.1) {
            let granularity = run[0].rank.1;
            let mut ranks: Vec<(usize, Select)> = Vec::new();
            for child in run.iter_mut().filter(|c| c.known.is_none()) {
                let (gh, _) = child.rank;
                let take = match &mut child.mask {
                    Some(mask) => Take::Drop(mask),
                    None => Take::Sum(&mut child.sum),
                };
                let (keep, h) = (gh.g as usize, gh.h as usize);
                match ranks.last_mut() {
                    Some((last, select)) if *last == h => select.takes.push((keep, take)),
                    _ => ranks.push((
                        h,
                        Select {
                            data,
                            prior,
                            takes: vec![(keep, take)],
                        },
                    )),
                }
            }
            select_shared(data, self.cols, granularity, &mut ranks, self.scratch);
        }

        // A rank that leaves a mask sums over it, once, if a pattern ends
        // there.
        for child in &mut children {
            let ends = members
                .iter()
                .any(|(_, r)| r.len() == depth + 1 && r[depth] == child.rank);
            if let (true, Some(mask)) = (ends, child.mask.as_ref().or(child.known)) {
                child.sum = kept_sum_sq(data, Some(mask));
            }
        }
        for &(slot, ranks) in members {
            if ranks.len() == depth + 1 {
                if let Some(child) = children.iter().find(|c| c.rank == ranks[depth]) {
                    self.sums[slot] = child.sum;
                }
            }
        }
        for child in &children {
            let above: Vec<(usize, &[(Gh, usize)])> = members
                .iter()
                .filter(|(_, r)| r.len() > depth + 1 && r[depth] == child.rank)
                .copied()
                .collect();
            if let (false, Some(mask)) = (above.is_empty(), child.mask.as_ref().or(child.known)) {
                self.node(Some(mask), depth + 1, &above, &[]);
            }
        }
        if depth == 0 {
            self.selected.extend(
                children
                    .into_iter()
                    .filter(|c| c.rank.1 == 1)
                    .filter_map(|c| Some((c.rank.0, c.mask?))),
            );
        }
    }
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
    assert_aligned(m.data().len(), m.cols(), gh.h as usize * granularity);
    let mut kept = KeptMask::all(m.data().len());
    apply_rank(
        m.data(),
        m.cols(),
        &mut kept,
        true,
        gh,
        granularity,
        &mut PruneScratch::new(),
    );
    let mut out = m.clone();
    kept.zero_dropped(out.data_mut());
    out
}

/// Sparsifies a dense matrix to an N-rank HSS pattern: zeroes every value
/// [`hss_kept`] drops.
///
/// # Panics
/// Panics if the column count is not a multiple of the pattern group size.
pub fn prune_hss(m: &Matrix, pattern: &HssPattern) -> Matrix {
    let kept = hss_kept(m.data(), m.cols(), pattern, None, &mut PruneScratch::new());
    let mut out = m.clone();
    kept.zero_dropped(out.data_mut());
    out
}

/// Flat indices of `values` ordered by ascending magnitude (ties keep the
/// lower index) — the pruning order [`prune_unstructured`] consumes.
///
/// The order depends only on the values, not on the sparsity degree, so
/// sweeps that prune the same matrix at many degrees can compute it once:
/// [`magnitude_ranks`] is its inverse, which [`unstructured_sums`] reads.
///
/// # Panics
/// Panics if `values` holds `u32::MAX` or more elements (the order is
/// stored as `u32` indices to halve its cache footprint).
pub fn magnitude_order(values: &[f32]) -> Vec<u32> {
    let total = values.len();
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
    let mut keys: Vec<u64> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| (u64::from(v.to_bits() & 0x7FFF_FFFF) << 32) | i as u64)
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(|k| k as u32).collect()
}

/// Zeroes the `round(sparsity · len)` first entries of `order` in `data`.
fn zero_smallest(data: &mut [f32], sparsity: f64, order: &[u32]) {
    assert!((0.0..=1.0).contains(&sparsity), "sparsity must be in [0,1]");
    assert_eq!(order.len(), data.len(), "order must cover every element");
    let remove = (sparsity * data.len() as f64).round() as usize;
    for &i in &order[..remove] {
        data[i as usize] = 0.0;
    }
}

/// The position of every value of `values` in its [`magnitude_order`]:
/// value `i` is the `ranks[i]`-th to be pruned.
///
/// Unstructured pruning to any degree keeps exactly the values whose rank
/// reaches the degree's cut, so [`unstructured_sums`] scores every degree
/// of a sweep from one rank array.
///
/// # Panics
/// As [`magnitude_order`].
pub fn magnitude_ranks(values: &[f32]) -> Vec<u32> {
    let total = values.len();
    assert!(
        total < u32::MAX as usize,
        "matrix too large for u32 pruning ranks ({total} elements)"
    );
    // A stable least-significant-digit radix sort of the indices on the
    // 31-bit magnitudes (the keys `magnitude_order` sorts by), three
    // 11-bit digits: equal magnitudes keep index order, so the result is
    // the (magnitude asc, index asc) order. The last pass writes each
    // index's position instead of the index.
    let digit = |i: u32, shift: u32| {
        ((values[i as usize].to_bits() & 0x7FFF_FFFF) >> shift) as usize & 0x7FF
    };
    let mut order: Vec<u32> = (0..total as u32).collect();
    let mut out = vec![0; total];
    for shift in [0, 11, 22] {
        let mut starts = [0u32; 1 << 11];
        for &i in &order {
            starts[digit(i, shift)] += 1;
        }
        let mut sum = 0;
        for start in &mut starts {
            (sum, *start) = (sum + *start, sum);
        }
        for &i in &order {
            let slot = &mut starts[digit(i, shift)];
            if shift == 22 {
                out[i as usize] = *slot;
            } else {
                out[*slot as usize] = i;
            }
            *slot += 1;
        }
        if shift != 22 {
            std::mem::swap(&mut order, &mut out);
        }
    }
    out
}

/// Accumulators one data-order pass of [`unstructured_sums`] updates.
const DEGREES: usize = 10;

/// [`sum_sq`] of `values` pruned unstructured to each of `sparsities`,
/// from the values' [`magnitude_ranks`], bit for bit the sum of
/// [`prune_unstructured`]'s output, with no pruned copy.
///
/// A degree `s` prunes the `round(s · len)` lowest-ranked values. One pass
/// in data order updates one independent accumulator per degree (up to
/// [`DEGREES`] per pass), each from `+0.0`: a kept value adds its square,
/// and a pruned one adds the `+0.0` its zeroed copy would, selected rather
/// than multiplied so that a pruned NaN adds nothing.
///
/// # Panics
/// Panics if a sparsity is outside `[0, 1]` or `ranks` does not cover
/// `values`.
pub fn unstructured_sums(values: &[f32], sparsities: &[f64], ranks: &[u32]) -> Vec<f64> {
    assert_eq!(ranks.len(), values.len(), "ranks must cover every element");
    let cuts: Vec<u32> = sparsities
        .iter()
        .map(|&s| {
            assert!((0.0..=1.0).contains(&s), "sparsity must be in [0,1]");
            // At most `len`, which `magnitude_order` keeps below u32::MAX.
            (s * values.len() as f64).round() as u32
        })
        .collect();
    let mut sums = Vec::with_capacity(cuts.len());
    for chunk in cuts.chunks(DEGREES) {
        // Unused lanes cut past every rank: they keep nothing.
        let mut cut = [u32::MAX; DEGREES];
        cut[..chunk.len()].copy_from_slice(chunk);
        let mut acc = [0.0; DEGREES];
        for (&v, &rank) in values.iter().zip(ranks) {
            let v2 = sq(v);
            for (a, &c) in acc.iter_mut().zip(&cut) {
                *a += if rank >= c { v2 } else { 0.0 };
            }
        }
        sums.extend_from_slice(&acc[..chunk.len()]);
    }
    sums
}

/// Unstructured magnitude pruning: zeroes the `round(sparsity · len)`
/// smallest-magnitude values globally (ties keep lower index).
///
/// # Panics
/// Panics if `sparsity` is outside `[0, 1]`.
pub fn prune_unstructured(m: &Matrix, sparsity: f64) -> Matrix {
    let mut out = m.clone();
    zero_smallest(out.data_mut(), sparsity, &magnitude_order(m.data()));
    out
}

/// Fraction of the squared-magnitude (energy) of `original` retained by
/// `pruned` — the signal the accuracy surrogate consumes.
///
/// Returns 1.0 when `original` is all zeros.
///
/// # Panics
/// Panics if the shapes differ.
pub fn retained_norm_fraction(original: &Matrix, pruned: &Matrix) -> f64 {
    assert_eq!(original.rows(), pruned.rows(), "shape mismatch");
    assert_eq!(original.cols(), pruned.cols(), "shape mismatch");
    let total = sum_sq(original.data());
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
                    let key = block_key(row, None, lo, granularity);
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
    fn kept_sum_matches_prune_then_sum_bit_for_bit() {
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        // Ranks below the top one, highest first: top-rank granularity 1,
        // 2 and 4 over one to three ranks, plus lowest ranks that keep or
        // drop every value.
        let lowers: [&[Gh]; 7] = [
            &[],
            &[Gh { g: 1, h: 2 }],
            &[Gh { g: 2, h: 4 }],
            &[Gh { g: 1, h: 2 }, Gh { g: 1, h: 2 }],
            &[Gh { g: 2, h: 2 }, Gh { g: 1, h: 2 }],
            &[Gh { g: 1, h: 1 }],
            &[Gh { g: 0, h: 1 }],
        ];
        let mut scratch = PruneScratch::new();
        let mut seed = 1000;
        for h in (1..=9u32).chain([16, 32, 33]) {
            let mut gs = vec![0, 1, h / 2, h - 1, h];
            gs.dedup();
            for lower in lowers {
                for &g in &gs {
                    let mut ranks = vec![Gh { g, h }];
                    ranks.extend_from_slice(lower);
                    let pattern = HssPattern::new(ranks);
                    let group = pattern.group_size();
                    // 3, 15 and 21 groups: never a multiple of the lanes,
                    // so every shape runs a partial batch.
                    for (rows, groups) in [(1, 3), (5, 3), (3, 7)] {
                        seed += 1;
                        let mut m = adversarial_matrix(rows, group * groups, seed);
                        // An all-zero block and, with several rows, an
                        // all-zero row.
                        m.row_mut(0)[group..2 * group].fill(0.0);
                        if rows > 1 {
                            m.row_mut(rows - 1).fill(-0.0);
                        }
                        let what = format!("{pattern} on {rows}x{}, seed {seed}", m.cols());
                        let oracle = sum_sq(prune_hss(&m, &pattern).data());
                        let direct =
                            hss_kept_sum_sq(m.data(), m.cols(), &pattern, None, &mut scratch);
                        assert!(same(direct, oracle), "{what}: {direct} vs {oracle}");
                        // Replay from the lowest rank's mask.
                        let lowest = HssPattern::one_rank(*pattern.ranks().last().unwrap());
                        let prefix = hss_kept(m.data(), m.cols(), &lowest, None, &mut scratch);
                        let replay = hss_kept_sum_sq(
                            m.data(),
                            m.cols(),
                            &pattern,
                            Some(&prefix),
                            &mut scratch,
                        );
                        assert!(same(replay, oracle), "{what}: replay {replay} vs {oracle}");
                        assert_eq!(
                            hss_kept(m.data(), m.cols(), &pattern, Some(&prefix), &mut scratch),
                            hss_kept(m.data(), m.cols(), &pattern, None, &mut scratch),
                            "{what}: mask replayed from the prefix"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn shared_batches_match_prune_then_sum_bit_for_bit() {
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let hss = |ranks: &[(u32, u32)]| {
            HssPattern::new(ranks.iter().map(|&(g, h)| Gh { g, h }).collect())
        };
        // Patterns that share lowest ranks, granularities and `H`s, so the
        // batch runs its shared masks, block scores and rank counts: one-
        // and multi-rank patterns over the same lowest rank, upper ranks
        // of one `H` with several `G`s, `G == H` ranks, three-rank stacks,
        // and, in a set of its own, groups wider than 32 blocks.
        let narrow = [
            hss(&[(1, 2)]),
            hss(&[(1, 4)]),
            hss(&[(2, 4)]),
            hss(&[(3, 4)]),
            hss(&[(4, 4)]),
            hss(&[(1, 8)]),
            hss(&[(5, 8)]),
            hss(&[(2, 4), (1, 2)]),
            hss(&[(1, 4), (1, 2)]),
            hss(&[(3, 4), (1, 2)]),
            hss(&[(4, 4), (1, 2)]),
            hss(&[(1, 2), (2, 4)]),
            hss(&[(2, 2), (2, 4)]),
            hss(&[(2, 4), (2, 2)]),
            hss(&[(1, 4), (2, 2)]),
            hss(&[(1, 2), (1, 2), (1, 2)]),
            hss(&[(1, 2), (2, 4), (1, 2)]),
            hss(&[(2, 2), (1, 2), (1, 2)]),
            hss(&[(0, 2), (1, 2)]),
            hss(&[(1, 2), (0, 2)]),
        ];
        let wide = [
            hss(&[(1, 2)]),
            hss(&[(5, 33), (1, 2)]),
            hss(&[(20, 33), (1, 2)]),
        ];
        let mut scratch = PruneScratch::new();
        // Each set with its group width and the lowest ranks its
        // multi-rank patterns start from.
        let two = |g| Gh { g, h: 2 };
        let sets = [
            (&narrow[..], 16, vec![two(0), two(1), Gh { g: 2, h: 4 }]),
            (&wide[..], 66, vec![two(1)]),
        ];
        for (set, group, lowest) in sets {
            let refs: Vec<&HssPattern> = set.iter().collect();
            for seed in 0..48u64 {
                let rows = 1 + seed as usize % 3;
                let cols = group * [1, 2, 5][seed as usize / 3 % 3];
                let mut m = adversarial_matrix(rows, cols, seed);
                // Half the matrices hold no NaN, so that their sums are
                // numbers whatever the selection keeps.
                if seed % 2 == 0 {
                    m.data_mut()
                        .iter_mut()
                        .filter(|v| v.is_nan())
                        .for_each(|v| *v = 2.0);
                }
                // An all-zero group and, with several rows, a row of `-0.0`.
                m.row_mut(0)[..group].fill(0.0);
                if rows > 1 {
                    m.row_mut(rows - 1).fill(-0.0);
                }
                let oracle: Vec<f64> = set
                    .iter()
                    .map(|p| sum_sq(prune_hss(&m, p).data()))
                    .collect();
                let (cold, selected) = hss_kept_sums(m.data(), cols, &refs, &[], &mut scratch);
                for ((p, &got), &want) in set.iter().zip(&cold).zip(&oracle) {
                    assert!(same(got, want), "{p} seed {seed}: {got} vs {want}");
                }
                // The lowest ranks multi-rank patterns start from, selected
                // once each, are their one-rank masks.
                let selected_lowest: Vec<Gh> = selected.iter().map(|&(gh, _)| gh).collect();
                assert_eq!(selected_lowest, lowest);
                for (gh, mask) in &selected {
                    let one = HssPattern::one_rank(*gh);
                    assert_eq!(mask, &hss_kept(m.data(), cols, &one, None, &mut scratch));
                }
                // Starting from those masks gives the same sums.
                let known: Vec<(Gh, &KeptMask)> = selected.iter().map(|(gh, m)| (*gh, m)).collect();
                let (warm, again) = hss_kept_sums(m.data(), cols, &refs, &known, &mut scratch);
                assert!(again.is_empty(), "known masks are not selected again");
                for ((p, &got), &want) in set.iter().zip(&warm).zip(&oracle) {
                    assert!(same(got, want), "{p} from known masks, seed {seed}");
                }
            }
        }
    }

    #[test]
    fn unstructured_sums_match_prune_then_sum_bit_for_bit() {
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let sparsities: Vec<f64> = (0..=20).map(|i| f64::from(i) * 0.05).collect();
        for (rows, cols, seed) in [(1, 1, 20), (3, 7, 21), (9, 64, 22), (2, 33, 23)] {
            let mut m = adversarial_matrix(rows, cols, seed);
            m.row_mut(0)[0] = -0.0;
            let ranks = magnitude_ranks(m.data());
            for (j, &i) in magnitude_order(m.data()).iter().enumerate() {
                assert_eq!(ranks[i as usize] as usize, j, "ranks invert the order");
            }
            // More degrees than one pass holds, in no particular order.
            let mut degrees = sparsities.clone();
            degrees.reverse();
            let sums = unstructured_sums(m.data(), &degrees, &ranks);
            for (&s, &got) in degrees.iter().zip(&sums) {
                let want = sum_sq(prune_unstructured(&m, s).data());
                assert!(same(got, want), "{s} on {rows}x{cols}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn kept_mask_bits_follow_element_order() {
        let mut kept = KeptMask::all(130);
        kept.drop_range(60, 10);
        kept.drop_bits(126, 0b101);
        let mut seen = Vec::new();
        kept.for_each_in(0, 130, |i| seen.push(i));
        let expected: Vec<usize> = (0..130)
            .filter(|i| !(60..70).contains(i) && *i != 126 && *i != 128)
            .collect();
        assert_eq!(seen, expected);
        seen.clear();
        kept.for_each_in(58, 72, |i| seen.push(i));
        assert_eq!(seen, [58, 59, 70, 71]);
        assert_eq!(kept.bits_at(124, 6), 0b101011);
        let mut data = vec![-1.5f32; 130];
        kept.zero_dropped(&mut data);
        assert!(data[60..70].iter().all(|v| v.to_bits() == 0));
        assert_eq!((data[59], data[70], data[129]), (-1.5, -1.5, -1.5));
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
        let order = magnitude_order(m.data());
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
