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
/// than 32 blocks (narrower groups are ranked on the stack), and the
/// pruned copy [`unstructured_sum_sq`] sums.
///
/// One scratch serves every call on a thread instead of fresh vectors per
/// call.
#[derive(Debug, Default)]
pub struct PruneScratch {
    keys: Vec<u128>,
    values: Vec<f32>,
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
        return data.iter().fold(0.0, |acc, &v| acc + sq(v));
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
    let mut score = 0.0;
    match prior {
        None => data[lo..lo + n].iter().for_each(|&v| score += sq(v)),
        Some(kept) => kept.for_each_in(lo, lo + n, |i| score += sq(data[i])),
    }
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

/// Survivor masks of `LANES` groups of `h <= H <= 32` blocks: `keys[b][l]`
/// is the key of block `b` of the group in lane `l`, and bit `b` of lane
/// `l`'s mask is set iff that block is among the group's `keep` first in
/// (key descending, index ascending) order — the paper's "top-k with ties
/// to the lower index". `K` must be totally ordered on the keys given.
///
/// A block survives iff fewer than `keep` blocks precede it: an earlier
/// block on an equal or greater key, a later one only on a strictly
/// greater key. This is exact — it keeps the very set a sort of the same
/// keys keeps. One compare per unordered pair settles both directions,
/// and the lanes make every compare a vector operation. (The inner loop
/// runs over all `H` so that both loops unroll completely and the counts
/// stay in registers.)
#[inline(always)]
fn rank_count<K: Copy + PartialOrd, const H: usize>(
    keys: &[[K; LANES]; H],
    h: usize,
    keep: usize,
) -> [u32; LANES] {
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
    let mut kept = [0u32; LANES];
    for (b, row) in ahead.iter().enumerate().take(h) {
        for (mask, &n) in kept.iter_mut().zip(row) {
            *mask |= u32::from(n < keep as u32) << b;
        }
    }
    kept
}

/// Survivor masks of the `lanes <= LANES` groups of `h <= H` blocks of
/// `granularity` values starting at group `g0`, where `prior` drops the
/// values earlier ranks pruned (`None` keeps all). Masks of lanes past
/// `lanes` are meaningless.
///
/// Blocks rank by [`block_score`]. Those scores are never `-0.0` (a sum
/// of squares from `+0.0`), so unless one is NaN, `>=` on them is the
/// `total_cmp` order; a batch holding a NaN score ranks by [`block_key`]s.
#[inline(always)]
fn block_survivors<const H: usize>(
    data: &[f32],
    prior: Option<&KeptMask>,
    g0: usize,
    lanes: usize,
    h: usize,
    granularity: usize,
    keep: usize,
) -> [u32; LANES] {
    let group = h * granularity;
    let mut scores = [[0.0; LANES]; H];
    for l in 0..lanes {
        let lo = (g0 + l) * group;
        for (b, row) in scores.iter_mut().enumerate().take(h) {
            row[l] = block_score(data, prior, lo + b * granularity, granularity);
        }
    }
    if !scores
        .iter()
        .flatten()
        .fold(false, |nan, s| nan | s.is_nan())
    {
        return rank_count(&scores, h, keep);
    }
    let mut keys = [[0u64; LANES]; H];
    for l in 0..lanes {
        let lo = (g0 + l) * group;
        for (b, row) in keys.iter_mut().enumerate().take(h) {
            row[l] = block_key(data, prior, lo + b * granularity, granularity);
        }
    }
    rank_count(&keys, h, keep)
}

/// Survivor masks of `LANES` groups of `H` single values with nothing
/// dropped yet — the lowest rank — from cheaper exact keys, or `None` if a
/// value is NaN.
///
/// A value's score is the square of an `f32` in `f64`, which is exact and
/// strictly monotone in `|v|`, so the 31-bit magnitude
/// `to_bits() & 0x7FFF_FFFF` orders values exactly as their squares do,
/// as an `i32` the vector unit compares natively. That fails only for NaN
/// (a negative NaN squares below every number under `total_cmp`), so a
/// batch holding a NaN ranks by [`block_key`]s instead.
#[inline(always)]
fn value_survivors<const H: usize>(
    groups: &[[f32; H]; LANES],
    keep: usize,
) -> Option<[u32; LANES]> {
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
    (!nan).then(|| rank_count(&keys, H, keep))
}

/// What a consumer of the selection kernel does with each group's
/// survivor mask (see [`rank_count`]). The kernel passes its block
/// geometry along, as constants where it has them.
trait Survivors {
    /// Group `g`, of `h` blocks of `granularity` values, keeps the blocks
    /// whose bits are set in `mask`.
    fn group(&mut self, g: usize, mask: u32, h: usize, granularity: usize);
}

/// The selection kernel: hands `out` the survivor mask of every group of
/// `h` blocks of `granularity` values in `data`, in group order, ranking
/// [`LANES`] groups at a time. `prior` drops the values earlier ranks
/// pruned (`None` keeps all); `h <= H <= 32`.
#[inline(always)]
fn for_each_group<const H: usize>(
    data: &[f32],
    prior: Option<&KeptMask>,
    h: usize,
    granularity: usize,
    keep: usize,
    out: &mut impl Survivors,
) {
    let groups = data.len() / (h * granularity);
    for g0 in (0..groups).step_by(LANES) {
        let lanes = (groups - g0).min(LANES);
        let masks = block_survivors::<H>(data, prior, g0, lanes, h, granularity, keep);
        for (l, &mask) in masks.iter().take(lanes).enumerate() {
            out.group(g0 + l, mask, h, granularity);
        }
    }
}

/// [`for_each_group`] for the lowest rank, `H` single values per group
/// with nothing dropped yet, ranked by [`value_survivors`]. The last,
/// partial batch is ranked from a zero-padded copy.
#[inline(always)]
fn for_each_value_group<const H: usize>(data: &[f32], keep: usize, out: &mut impl Survivors) {
    let (batches, tail) = data.as_chunks::<H>().0.as_chunks::<LANES>();
    for (i, batch) in batches.iter().enumerate() {
        let g0 = i * LANES;
        let masks = value_survivors(batch, keep)
            .unwrap_or_else(|| block_survivors::<H>(data, None, g0, LANES, H, 1, keep));
        for (l, &mask) in masks.iter().enumerate() {
            out.group(g0 + l, mask, H, 1);
        }
    }
    if !tail.is_empty() {
        let g0 = batches.len() * LANES;
        let mut padded = [[0.0; H]; LANES];
        padded[..tail.len()].copy_from_slice(tail);
        let masks = value_survivors(&padded, keep)
            .unwrap_or_else(|| block_survivors::<H>(data, None, g0, tail.len(), H, 1, keep));
        for (l, &mask) in masks.iter().take(tail.len()).enumerate() {
            out.group(g0 + l, mask, H, 1);
        }
    }
}

/// [`for_each_group`] for any `h <= 32`, with constant arms for the widths
/// the co-design space and the HSS families prune, so the compiler
/// unrolls the rank count.
#[inline(always)]
fn select_groups(
    data: &[f32],
    prior: Option<&KeptMask>,
    h: usize,
    granularity: usize,
    keep: usize,
    out: &mut impl Survivors,
) {
    match (h, granularity, prior) {
        (2, 1, None) => for_each_value_group::<2>(data, keep, out),
        (3, 1, None) => for_each_value_group::<3>(data, keep, out),
        (4, 1, None) => for_each_value_group::<4>(data, keep, out),
        (5, 1, None) => for_each_value_group::<5>(data, keep, out),
        (6, 1, None) => for_each_value_group::<6>(data, keep, out),
        (7, 1, None) => for_each_value_group::<7>(data, keep, out),
        (8, 1, None) => for_each_value_group::<8>(data, keep, out),
        (2, 2, _) => for_each_group::<2>(data, prior, 2, 2, keep, out),
        (2, 4, _) => for_each_group::<2>(data, prior, 2, 4, keep, out),
        (4, 2, _) => for_each_group::<4>(data, prior, 4, 2, keep, out),
        (4, 4, _) => for_each_group::<4>(data, prior, 4, 4, keep, out),
        (6, 2, _) => for_each_group::<6>(data, prior, 6, 2, keep, out),
        (6, 4, _) => for_each_group::<6>(data, prior, 6, 4, keep, out),
        (8, 2, _) => for_each_group::<8>(data, prior, 8, 2, keep, out),
        (8, 4, _) => for_each_group::<8>(data, prior, 8, 4, keep, out),
        (2, ..) => for_each_group::<2>(data, prior, 2, granularity, keep, out),
        (3, ..) => for_each_group::<3>(data, prior, 3, granularity, keep, out),
        (4, ..) => for_each_group::<4>(data, prior, 4, granularity, keep, out),
        (5, ..) => for_each_group::<5>(data, prior, 5, granularity, keep, out),
        (6, ..) => for_each_group::<6>(data, prior, 6, granularity, keep, out),
        (7, ..) => for_each_group::<7>(data, prior, 7, granularity, keep, out),
        (8, ..) => for_each_group::<8>(data, prior, 8, granularity, keep, out),
        _ => for_each_group::<32>(data, prior, h, granularity, keep, out),
    }
}

/// The element mask of a group of `h` blocks of `granularity` values
/// (`h * granularity <= 64`) whose block mask is `mask`: each block bit
/// widened to its `granularity` value bits.
#[inline(always)]
fn widen(mask: u32, h: usize, granularity: usize) -> u64 {
    let block = u64::MAX >> (64 - granularity);
    (0..h).fold(0, |acc, b| {
        acc | (u64::from((mask >> b) & 1) * block) << (b * granularity)
    })
}

/// Consumer that drops the blocks a rank prunes from a [`KeptMask`].
struct DropPruned<'a> {
    kept: &'a mut KeptMask,
}

impl Survivors for DropPruned<'_> {
    #[inline(always)]
    fn group(&mut self, g: usize, mask: u32, h: usize, granularity: usize) {
        let dropped = !mask & (u32::MAX >> (32 - h));
        let lo = g * h * granularity;
        if h * granularity <= 64 {
            self.kept.drop_bits(lo, widen(dropped, h, granularity));
            return;
        }
        let mut m = dropped;
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            self.kept.drop_range(lo + b * granularity, granularity);
            m &= m - 1;
        }
    }
}

/// Consumer that adds up the squares of the values a rank keeps, in data
/// order (see [`kept_sum_sq`]): the values of every surviving block that
/// `prior` keeps (all of them for `None`).
struct SumKept<'a> {
    data: &'a [f32],
    prior: Option<&'a KeptMask>,
    acc: f64,
}

impl Survivors for SumKept<'_> {
    #[inline(always)]
    fn group(&mut self, g: usize, mask: u32, h: usize, granularity: usize) {
        let group = h * granularity;
        let lo = g * group;
        // One step per kept value or block: every group has the same
        // count, so the loops run a fixed number of times.
        match self.prior {
            Some(kept) if group <= 64 => {
                let mut bits = kept.bits_at(lo, group) & widen(mask, h, granularity);
                while bits != 0 {
                    self.acc += sq(self.data[lo + bits.trailing_zeros() as usize]);
                    bits &= bits - 1;
                }
            }
            prior => {
                let (data, mut acc) = (self.data, self.acc);
                let mut m = mask;
                while m != 0 {
                    let start = lo + m.trailing_zeros() as usize * granularity;
                    match prior {
                        None => data[start..start + granularity]
                            .iter()
                            .for_each(|&v| acc += sq(v)),
                        Some(kept) => {
                            kept.for_each_in(start, start + granularity, |i| acc += sq(data[i]))
                        }
                    }
                    m &= m - 1;
                }
                self.acc = acc;
            }
        }
    }
}

/// Applies one rank to `kept`: within every aligned group of `gh.h` blocks
/// of `granularity` values, keeps the `gh.g` blocks of largest score over
/// the values `kept` still holds, and drops the rest. `fresh` says that
/// `kept` keeps everything, which lets the lowest rank rank raw
/// magnitudes.
///
/// Groups of up to 32 blocks go through the selection kernel; wider ones
/// fall back to one packed-integer sort per group. Each group is fully
/// scored before any of its blocks is dropped, and groups never overlap,
/// so updating the mask as groups are ranked reads exactly the scores the
/// previous ranks left.
fn apply_rank(
    data: &[f32],
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
    let group = h * granularity;
    if h <= 32 {
        let prior = (!fresh).then(|| kept.clone());
        select_groups(
            data,
            prior.as_ref(),
            h,
            granularity,
            keep,
            &mut DropPruned { kept },
        );
        return;
    }
    let keys = &mut scratch.keys;
    for lo in (0..data.len()).step_by(group) {
        // Packing `(!key << 32) | index` turns the (score desc, index asc)
        // order into one ascending integer sort.
        keys.clear();
        let prior = (!fresh).then_some(&*kept);
        for b in 0..h {
            let key = block_key(data, prior, lo + b * granularity, granularity);
            keys.push((u128::from(!key) << 32) | b as u128);
        }
        keys.sort_unstable();
        for &k in &keys[keep..] {
            kept.drop_range(lo + (k as u32) as usize * granularity, granularity);
        }
    }
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

/// Applies `ranks` lowest first on top of `prefix`, returning the mask
/// they leave, or `None` when there was neither a prefix nor a rank.
fn apply_ranks(
    data: &[f32],
    ranks: &[(Gh, usize)],
    prefix: Option<&KeptMask>,
    scratch: &mut PruneScratch,
) -> Option<KeptMask> {
    let mut kept = prefix.cloned();
    for &(gh, granularity) in ranks {
        let fresh = kept.is_none();
        let mask = kept.get_or_insert_with(|| KeptMask::all(data.len()));
        apply_rank(data, mask, fresh, gh, granularity, scratch);
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
/// [`hss_kept_sum_sq`] and lists the ranks they apply on top of `prefix`.
fn checked_ranks(
    data: &[f32],
    cols: usize,
    pattern: &HssPattern,
    prefix: Option<&KeptMask>,
) -> Vec<(Gh, usize)> {
    assert_aligned(data.len(), cols, pattern.group_size());
    if let Some(prefix) = prefix {
        assert!(
            pattern.rank_count() >= 1 && prefix.len == data.len(),
            "a prefix mask needs a sparse rank and one bit per value"
        );
    }
    selecting_ranks(pattern, usize::from(prefix.is_some()))
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
    let ranks = checked_ranks(data, cols, pattern, prefix);
    apply_ranks(data, &ranks, prefix, scratch).unwrap_or_else(|| KeptMask::all(data.len()))
}

/// Σv² over the values [`hss_kept`] keeps, lowest index first, starting
/// from `+0.0`: bit for bit the [`sum_sq`] of [`prune_hss`]'s output
/// (any NaN where that is NaN), with no pruned copy.
///
/// The highest rank is not stored as a mask (unless its groups hold more
/// than 32 blocks): the kernel hands each group's survivors straight to
/// the sum, which adds exactly the `Π G` kept values of every group.
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
    let mut ranks = checked_ranks(data, cols, pattern, prefix);
    let last = ranks.pop_if(|(gh, _)| gh.h <= 32);
    let lower = apply_ranks(data, &ranks, prefix, scratch);
    let Some((gh, granularity)) = last else {
        return kept_sum_sq(data, lower.as_ref());
    };
    let mut sum = SumKept {
        data,
        prior: lower.as_ref(),
        acc: 0.0,
    };
    select_groups(
        data,
        sum.prior,
        gh.h as usize,
        granularity,
        gh.g as usize,
        &mut sum,
    );
    sum.acc
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
/// sweeps that prune the same matrix at many degrees can compute it once
/// and replay it through [`unstructured_sum_sq`].
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

/// [`sum_sq`] of `values` pruned unstructured to `sparsity` with their
/// precomputed [`magnitude_order`]: prunes a copy in `scratch` and sums
/// all of it.
///
/// # Panics
/// Panics if `sparsity` is outside `[0, 1]` or `order` does not cover
/// `values`.
pub fn unstructured_sum_sq(
    values: &[f32],
    sparsity: f64,
    order: &[u32],
    scratch: &mut PruneScratch,
) -> f64 {
    let pruned = &mut scratch.values;
    pruned.clear();
    pruned.extend_from_slice(values);
    zero_smallest(pruned, sparsity, order);
    sum_sq(pruned)
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
