//! Calibrated accuracy-loss surrogate (Fig. 15's y-axis).
//!
//! Retraining the networks is out of scope, so accuracy loss is estimated
//! from how much weight magnitude the pruning pattern destroys — the same
//! signal magnitude-based pruning criteria optimize. The pipeline is:
//!
//! 1. synthesize weights with an approximately normal magnitude
//!    distribution (Irwin–Hall) for each prunable layer shape;
//! 2. apply the paper's actual sparsification rules (`hl_sparsity::prune`,
//!    §4.2) for the pattern under study;
//! 3. compute the MAC-weighted retained squared-norm fraction `r`;
//! 4. map to metric points: `loss = sensitivity · prunable_fraction ·
//!    3.5 · (1 − r)^1.3`.
//!
//! The exponent and scale are calibrated so ResNet50 at 2:4 loses ≈0.2
//! top-1 points and 75% unstructured stays under 1 point, matching
//! published results. Because the mapping is monotone in destroyed norm,
//! the *orderings* Fig. 15 relies on hold by construction: loss grows with
//! sparsity, and finer-grained patterns lose less at equal sparsity.
//!
//! ## Scoring many configurations at once
//!
//! A co-design search scores one model under every candidate pattern, and
//! HSS builds those patterns from a few per-rank `G:H` choices (§4.2), so
//! the candidates share most of their selection work.
//! [`RetentionCache::losses`] scores a whole candidate list as one batch:
//!
//! - it looks every `(layer proxy, config)` score up under one lock;
//! - it groups the missing scores by the layer weight stream their
//!   proxies are cut from, and fans the streams out over the engine's
//!   pool, so no stream, argsort, norm or lowest-rank mask is computed by
//!   two workers;
//! - per proxy matrix, every unstructured degree is summed in one pass
//!   over the shared magnitude ranks
//!   (`hl_sparsity::prune::unstructured_sums`), and the HSS patterns share
//!   their masks, block scores and rank counts
//!   (`hl_sparsity::prune::hss_kept_sums`).
//!
//! Every sum stays a data-order sum from `+0.0`, so each loss is bit for
//! bit the uncached [`accuracy_loss`], which prunes with `prune_hss` and
//! is kept as the oracle.

use std::cell::RefCell;
use std::sync::Arc;

use hl_sim::engine::{parallel_map, Engine, Memo, OperandKey};
use hl_sparsity::prune::{
    hss_kept_sums, magnitude_ranks, prune_hss, prune_unstructured, retained_norm_fraction, sum_sq,
    unstructured_sums, KeptMask, PruneScratch,
};
use hl_sparsity::{Gh, HssPattern};
use hl_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layers::{DnnModel, LayerSpec};

thread_local! {
    /// Per-thread pruning buffers, shared by every cached retention
    /// evaluation this thread performs.
    static SCRATCH: RefCell<PruneScratch> = RefCell::new(PruneScratch::new());
}

/// Rows of the representative proxy a layer is scored on.
const PROXY_ROWS: usize = 64;
/// Column cap of the proxy before it is aligned to the pattern group.
const PROXY_COLS: usize = 1024;

/// A weight-pruning configuration whose accuracy impact is being estimated.
#[derive(Debug, Clone, PartialEq)]
pub enum PruningConfig {
    /// No pruning.
    Dense,
    /// Unstructured magnitude pruning to the given sparsity.
    Unstructured {
        /// Fraction of weights zeroed.
        sparsity: f64,
    },
    /// Structured pruning to an HSS pattern (includes one-rank `G:H`).
    Hss(HssPattern),
}

impl PruningConfig {
    /// The weight sparsity this configuration produces.
    pub fn sparsity(&self) -> f64 {
        match self {
            Self::Dense => 0.0,
            Self::Unstructured { sparsity } => *sparsity,
            Self::Hss(p) => p.sparsity_f64(),
        }
    }
}

/// The canonical report label (shared by the Fig. 15 tables and the
/// `/evaluate_model` responses).
impl std::fmt::Display for PruningConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Dense => f.write_str("dense"),
            Self::Unstructured { sparsity } => {
                write!(f, "unstructured {:.1}%", sparsity * 100.0)
            }
            Self::Hss(p) => write!(f, "{p}"),
        }
    }
}

/// The retention memo keys a configuration like the engine keys an
/// operand: `f64` degrees by their exact bit pattern.
impl From<&PruningConfig> for OperandKey {
    fn from(cfg: &PruningConfig) -> Self {
        match cfg {
            PruningConfig::Dense => Self::Dense,
            PruningConfig::Unstructured { sparsity } => Self::Unstructured(sparsity.to_bits()),
            PruningConfig::Hss(p) => Self::Hss(p.clone()),
        }
    }
}

/// One per-layer retention score: `((rows, cols, config, seed), fraction)`,
/// keyed by the proxy shape the layer is scored on.
pub type RetentionScore = ((usize, usize, OperandKey, u64), f64);

/// Memo tables over the surrogate's pure evaluations.
///
/// Design-space sweeps re-estimate the same model under dozens of pruning
/// configurations; without memoization every estimate re-synthesizes the
/// same seeded weights and re-prunes layers whose `(shape, config, seed)`
/// triple was already scored. A retention miss selects the kept values
/// and sums their squares without building a pruned matrix, batched with
/// the other misses on its matrix (see the module docs); synthesis (four
/// RNG draws per element) runs once per layer. The cache keys carry
/// *every* input the evaluation reads, so cached and uncached results are
/// identical — the property the workspace's memoization property test
/// asserts.
#[derive(Debug, Default)]
pub struct RetentionCache {
    /// Weight streams keyed on `(rows, width, seed)`, `width` columns wide
    /// ([`stream_width`]). A proxy of `c <= width` columns is the stream's
    /// first `rows * c` values, so every proxy of a layer shares one
    /// synthesis whatever its group alignment.
    streams: Memo<(usize, usize, u64), Arc<[f32]>>,
    /// Magnitude ranks ([`magnitude_ranks`]) keyed on the proxy's
    /// `(rows, cols, seed)`: they are degree-independent, so every
    /// unstructured degree of a matrix, in any batch, reads one argsort.
    ranks: Memo<(usize, usize, u64), Arc<Vec<u32>>>,
    /// Total squared norms keyed like `ranks`: the retained-fraction
    /// denominator is config-independent, so every candidate scoring one
    /// matrix shares a single full-matrix pass.
    norms: Memo<(usize, usize, u64), f64>,
    /// Lowest-rank kept masks keyed `(rows, cols, seed, lowest G:H)`, 8 KB
    /// per 64×1024 proxy. The lowest rank always prunes single values, so
    /// its selection depends only on the weights and that one `G:H` —
    /// every multi-rank candidate sharing a lowest rank, in any batch,
    /// starts from the mask and selects only its higher ranks.
    hss_prefix: Memo<(usize, usize, u64, Gh), Arc<KeptMask>>,
    /// Per-layer retained-norm fractions keyed on
    /// `(rows, cols, config, seed)`. A hit reads none of the tables
    /// above, so these scores alone restore a warm surrogate.
    retention: Memo<RetentionKey, f64>,
}

/// The key of one per-layer retention score: `(rows, cols, config, seed)`
/// of the proxy the layer is scored on.
type RetentionKey = (usize, usize, OperandKey, u64);

/// A retention score a batch's lookup did not find: its slot in the
/// batch, its key, and the width of the weight stream its proxy is cut
/// from.
struct Miss {
    slot: usize,
    key: RetentionKey,
    width: usize,
}

/// The missing retention scores of one layer's weight stream: the unit of
/// work a batch fans out. Every proxy cut from the stream is scored by the
/// same worker, so no stream is synthesized twice.
struct StreamMisses {
    rows: usize,
    width: usize,
    seed: u64,
    /// `(proxy cols, score slot)`, grouped by proxy.
    misses: Vec<(usize, usize)>,
}

impl RetentionCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// `(hits, misses)` of the per-layer retention memo.
    pub fn stats(&self) -> (u64, u64) {
        (self.retention.hits(), self.retention.misses())
    }

    /// Number of retention scores stored.
    pub fn len(&self) -> usize {
        self.retention.len()
    }

    /// True when no retention score is stored.
    pub fn is_empty(&self) -> bool {
        self.retention.is_empty()
    }

    /// Clones out every retention score — the persistence path: `hl-serve`
    /// snapshots them next to the evaluation cache. Order is unspecified
    /// (callers sort).
    pub fn scores(&self) -> Vec<RetentionScore> {
        self.retention
            .walk(|scores| scores.map(|(key, &score)| (key.clone(), score)).collect())
    }

    /// Seeds retention scores without touching the hit/miss counters — the
    /// snapshot-load path. A stored score keeps its value.
    pub fn preload_scores(&self, scores: impl IntoIterator<Item = RetentionScore>) {
        self.retention.preload(scores);
    }

    /// [`accuracy_loss`] of `model` under every one of `configs`, bit for
    /// bit, scored as one batch (see the module docs): one lookup per
    /// distinct `(layer, config)` pair, counted as a hit when stored, and
    /// one miss per score the batch computes and inserts. The misses fan
    /// out over `engine`'s pool, one layer weight stream per item.
    pub fn losses(&self, model: &DnnModel, configs: &[PruningConfig], engine: &Engine) -> Vec<f64> {
        self.losses_on(model, configs, engine.threads())
    }

    /// [`RetentionCache::losses`] on `threads` workers.
    fn losses_on(&self, model: &DnnModel, configs: &[PruningConfig], threads: usize) -> Vec<f64> {
        let scores = self.layer_scores(model, configs, threads);
        let layers = model.layers.iter().filter(|l| l.prunable).count();
        configs
            .iter()
            .enumerate()
            .map(|(i, cfg)| match cfg {
                PruningConfig::Dense => 0.0,
                _ => loss_of(
                    model,
                    weighted_retention(model, |l, _| scores[i * layers + l]),
                ),
            })
            .collect()
    }

    /// Every prunable layer's retention under every config, config-major:
    /// `1.0` for dense, stored scores as they are, and the missing ones
    /// scored on `threads` workers and inserted. A config repeated in
    /// `configs` is looked up once.
    fn layer_scores(
        &self,
        model: &DnnModel,
        configs: &[PruningConfig],
        threads: usize,
    ) -> Vec<f64> {
        let layers: Vec<(usize, usize)> = model
            .layers
            .iter()
            .filter(|l| l.prunable)
            .map(|l| (l.shape.m, l.shape.k))
            .collect();
        let n = layers.len();
        let ops: Vec<Option<OperandKey>> = configs
            .iter()
            .map(|cfg| (!matches!(cfg, PruningConfig::Dense)).then(|| OperandKey::from(cfg)))
            .collect();
        let mut scores = vec![1.0; configs.len() * n];
        let mut repeats = Vec::new();
        let mut misses = Vec::new();
        self.retention.lookup(|get| {
            for (i, (cfg, op)) in configs.iter().zip(&ops).enumerate() {
                let Some(op) = op else { continue };
                if let Some(first) = ops[..i].iter().position(|o| o.as_ref() == Some(op)) {
                    repeats.push((i, first));
                    continue;
                }
                // One key per config, rewritten per layer and cloned only
                // on a miss.
                let mut key = (0, 0, op.clone(), 0);
                for (l, &(rows, cols)) in layers.iter().enumerate() {
                    let (r, c) = proxy_shape(rows, cols, cfg);
                    (key.0, key.1, key.3) = (r, c, layer_seed(l));
                    match get(&key) {
                        Some(&score) => scores[i * n + l] = score,
                        None => misses.push(Miss {
                            slot: i * n + l,
                            key: key.clone(),
                            width: stream_width(cols, c),
                        }),
                    }
                }
            }
        });
        if !misses.is_empty() {
            let streams = group_by_stream(&misses);
            let scored = parallel_map(threads, &streams, |stream| {
                self.score_stream(stream, |slot| &configs[slot / n])
            });
            for (slot, score) in scored.into_iter().flatten() {
                scores[slot] = score;
            }
            self.retention
                .insert_many(misses.into_iter().map(|m| (m.key, scores[m.slot])));
        }
        for (i, first) in repeats {
            scores.copy_within(first * n..(first + 1) * n, i * n);
        }
        scores
    }

    /// Scores the missing proxies of one weight stream, `(slot, score)`
    /// per miss, `config` naming each slot's configuration. Per proxy, the
    /// unstructured degrees share one pass over the magnitude ranks and
    /// the HSS patterns one [`hss_kept_sums`] batch.
    fn score_stream<'c>(
        &self,
        stream: &StreamMisses,
        config: impl Fn(usize) -> &'c PruningConfig,
    ) -> Vec<(usize, f64)> {
        let StreamMisses {
            rows: r,
            width,
            seed,
            ..
        } = *stream;
        let values = self
            .streams
            .get_or_insert_with(&(r, width, seed), || weight_stream(r * width, seed).into());
        let mut scored = Vec::with_capacity(stream.misses.len());
        for proxy in stream.misses.chunk_by(|a, b| a.0 == b.0) {
            let c = proxy[0].0;
            let w = &values[..r * c];
            let wkey = (r, c, seed);
            let mut degrees = Vec::new();
            let mut patterns = Vec::new();
            for &(_, slot) in proxy {
                match config(slot) {
                    PruningConfig::Dense => {}
                    PruningConfig::Unstructured { sparsity } => degrees.push((slot, *sparsity)),
                    PruningConfig::Hss(p) => patterns.push((slot, p)),
                }
            }
            let mut kept = Vec::with_capacity(proxy.len());
            if !degrees.is_empty() {
                let ranks = self
                    .ranks
                    .get_or_insert_with(&wkey, || Arc::new(magnitude_ranks(w)));
                let sparsities: Vec<f64> = degrees.iter().map(|&(_, s)| s).collect();
                let sums = unstructured_sums(w, &sparsities, &ranks);
                kept.extend(degrees.iter().map(|&(slot, _)| slot).zip(sums));
            }
            if !patterns.is_empty() {
                kept.extend(self.hss_sums(w, (r, c, seed), &patterns));
            }
            let total = self.norms.get_or_insert_with(&wkey, || sum_sq(w));
            scored.extend(kept.into_iter().map(|(slot, sum)| {
                let fraction = if total == 0.0 { 1.0 } else { sum / total };
                (slot, fraction)
            }));
        }
        scored
    }

    /// Kept sums of the HSS `patterns` (each with its score slot) on the
    /// proxy `w` keyed `(rows, cols, seed)`, starting from the lowest-rank
    /// masks the prefix memo holds and storing the ones the batch selects.
    fn hss_sums(
        &self,
        w: &[f32],
        (r, c, seed): (usize, usize, u64),
        patterns: &[(usize, &HssPattern)],
    ) -> Vec<(usize, f64)> {
        let mut lowest: Vec<Gh> = patterns
            .iter()
            .filter_map(|(_, p)| match p.ranks() {
                [_, .., lowest] if lowest.g < lowest.h => Some(*lowest),
                _ => None,
            })
            .collect();
        lowest.sort_unstable();
        lowest.dedup();
        let keys: Vec<_> = lowest.iter().map(|&gh| (r, c, seed, gh)).collect();
        let found: Vec<_> = self
            .hss_prefix
            .lookup(|get| keys.iter().map(|key| get(key).cloned()).collect());
        let known: Vec<(Gh, &KeptMask)> = lowest
            .iter()
            .zip(&found)
            .filter_map(|(&gh, mask)| Some((gh, mask.as_deref()?)))
            .collect();
        let refs: Vec<&HssPattern> = patterns.iter().map(|&(_, p)| p).collect();
        let (sums, selected) =
            SCRATCH.with(|s| hss_kept_sums(w, c, &refs, &known, &mut s.borrow_mut()));
        self.hss_prefix.insert_many(
            selected
                .into_iter()
                .map(|(gh, mask)| ((r, c, seed, gh), Arc::new(mask))),
        );
        patterns.iter().map(|&(slot, _)| slot).zip(sums).collect()
    }
}

/// Groups a batch's misses by the weight stream `(rows, width, seed)` they
/// are cut from, each stream's misses ordered by proxy width. The streams
/// come largest first, so the pool's last chunks are small ones.
fn group_by_stream(misses: &[Miss]) -> Vec<StreamMisses> {
    let mut order: Vec<&Miss> = misses.iter().collect();
    order.sort_unstable_by_key(|m| (m.key.3, m.key.0, m.width, m.key.1, m.slot));
    let mut streams: Vec<StreamMisses> = order
        .chunk_by(|a, b| (a.key.3, a.key.0, a.width) == (b.key.3, b.key.0, b.width))
        .map(|run| StreamMisses {
            rows: run[0].key.0,
            width: run[0].width,
            seed: run[0].key.3,
            misses: run.iter().map(|m| (m.key.1, m.slot)).collect(),
        })
        .collect();
    streams.sort_by_key(|s| std::cmp::Reverse(s.rows * s.width * s.misses.len()));
    streams
}

/// The weight seed of a model's `i`-th prunable layer.
fn layer_seed(i: usize) -> u64 {
    0xACC0 + i as u64
}

/// `len` approximately normal weights (Irwin–Hall of four uniforms) drawn
/// from one seeded stream.
fn weight_stream(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| (0..4).map(|_| rng.gen_range(-0.5f32..0.5)).sum::<f32>())
        .collect()
}

/// Synthesizes approximately normal weights (Irwin–Hall of four uniforms):
/// realistic mass near zero so magnitude pruning retains most of the norm.
///
/// The matrix is the seed's stream laid out row-major, so a narrower
/// matrix of the same seed holds the stream's first `rows * cols` values.
pub fn synthetic_weights(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_vec(rows, cols, weight_stream(rows * cols, seed))
}

/// The representative proxy shape a `rows × cols` layer is scored on under
/// `config`: at most [`PROXY_ROWS`] rows, and the column cap aligned down
/// to the pattern group (but at least one group).
fn proxy_shape(rows: usize, cols: usize, config: &PruningConfig) -> (usize, usize) {
    let group = match config {
        PruningConfig::Hss(p) => p.group_size().max(1),
        _ => 1,
    };
    (
        rows.min(PROXY_ROWS),
        (cols.min(PROXY_COLS) / group).max(1) * group,
    )
}

/// Width of the weight stream a `c`-column proxy of a layer with `cols`
/// columns is a prefix of: the layer's unaligned proxy width, which no
/// group alignment exceeds unless the group is wider than the layer.
fn stream_width(cols: usize, c: usize) -> usize {
    c.max(cols.min(PROXY_COLS))
}

/// Retained squared-norm fraction of one representative layer under the
/// configuration, pruned with `prune_hss` (or unstructured) on freshly
/// synthesized weights: the reference the cached batch matches bit for
/// bit.
fn layer_retention(rows: usize, cols: usize, config: &PruningConfig, seed: u64) -> f64 {
    let (r, c) = proxy_shape(rows, cols, config);
    let w = || synthetic_weights(r, c, seed);
    let (w, pruned) = match config {
        PruningConfig::Dense => return 1.0,
        PruningConfig::Unstructured { sparsity } => {
            let w = w();
            let pruned = prune_unstructured(&w, *sparsity);
            (w, pruned)
        }
        PruningConfig::Hss(p) => {
            let w = w();
            let pruned = prune_hss(&w, p);
            (w, pruned)
        }
    };
    retained_norm_fraction(&w, &pruned)
}

/// The MAC-weighted mean of `retention(i, layer)` over the model's
/// prunable layers, `i` counting them in order: the model's retained-norm
/// fraction. The cached and uncached paths both go through here, so they
/// share the arithmetic.
fn weighted_retention(
    model: &DnnModel,
    mut retention: impl FnMut(usize, &LayerSpec) -> f64,
) -> f64 {
    let mut weighted = 0.0;
    let mut total = 0.0;
    for (i, layer) in model.layers.iter().filter(|l| l.prunable).enumerate() {
        let macs = layer.total_macs();
        weighted += macs * retention(i, layer);
        total += macs;
    }
    if total == 0.0 {
        1.0
    } else {
        weighted / total
    }
}

/// The loss in metric points of a model that retains `retained` of its
/// MAC-weighted squared norm.
fn loss_of(model: &DnnModel, retained: f64) -> f64 {
    model.sensitivity * model.prunable_fraction() * 3.5 * (1.0 - retained).powf(1.3)
}

/// MAC-weighted retained-norm fraction over a model's prunable layers.
pub fn model_retention(model: &DnnModel, config: &PruningConfig) -> f64 {
    weighted_retention(model, |i, layer| {
        layer_retention(layer.shape.m, layer.shape.k, config, layer_seed(i))
    })
}

/// [`model_retention`] with repeated pure evaluations memoized in `cache`.
pub fn model_retention_cached(
    model: &DnnModel,
    config: &PruningConfig,
    cache: &RetentionCache,
) -> f64 {
    let scores = cache.layer_scores(model, std::slice::from_ref(config), 1);
    weighted_retention(model, |i, _| scores[i])
}

/// Estimated accuracy loss in metric points (top-1 % or BLEU) for pruning
/// `model`'s prunable weights with `config`.
pub fn accuracy_loss(model: &DnnModel, config: &PruningConfig) -> f64 {
    if matches!(config, PruningConfig::Dense) {
        return 0.0;
    }
    loss_of(model, model_retention(model, config))
}

/// [`accuracy_loss`] with repeated pure evaluations memoized in `cache`:
/// sweeps that score the same model under many configurations synthesize
/// each layer's weights once and re-score each `(layer, config)` pair once.
/// This is a [`RetentionCache::losses`] batch of one, run on the caller's
/// thread.
pub fn accuracy_loss_cached(
    model: &DnnModel,
    config: &PruningConfig,
    cache: &RetentionCache,
) -> f64 {
    cache.losses_on(model, std::slice::from_ref(config), 1)[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use hl_sparsity::Gh;

    #[test]
    fn dense_is_lossless() {
        let m = zoo::resnet50();
        assert_eq!(accuracy_loss(&m, &PruningConfig::Dense), 0.0);
    }

    #[test]
    fn resnet_2_4_anchor_point() {
        let m = zoo::resnet50();
        let loss = accuracy_loss(&m, &PruningConfig::Hss(HssPattern::one_rank(Gh::new(2, 4))));
        // Published: ~0.1-0.5 top-1 points for 2:4 on ResNet50.
        assert!((0.05..=0.6).contains(&loss), "2:4 anchor loss {loss}");
    }

    #[test]
    fn loss_grows_with_sparsity() {
        let m = zoo::resnet50();
        let fam = hl_sparsity::families::highlight_a();
        let l50 = accuracy_loss(&m, &PruningConfig::Hss(fam.closest_to_density(0.5)));
        let l75 = accuracy_loss(&m, &PruningConfig::Hss(fam.closest_to_density(0.25)));
        assert!(l75 > l50, "75% ({l75}) must lose more than 50% ({l50})");
    }

    #[test]
    fn finer_granularity_loses_less_at_equal_sparsity() {
        let m = zoo::resnet50();
        let unstructured = accuracy_loss(&m, &PruningConfig::Unstructured { sparsity: 0.75 });
        let hss = accuracy_loss(
            &m,
            &PruningConfig::Hss(HssPattern::two_rank(Gh::new(4, 8), Gh::new(2, 4))),
        );
        let coarse = accuracy_loss(&m, &PruningConfig::Hss(HssPattern::one_rank(Gh::new(2, 8))));
        assert!(
            unstructured < hss,
            "unstructured ({unstructured}) < HSS ({hss})"
        );
        assert!(unstructured < coarse);
        // All three stay within a usable range at 75%.
        assert!(hss < 5.0, "HSS 75% loss should stay moderate, got {hss}");
    }

    #[test]
    fn compact_models_are_more_sensitive() {
        let deit = zoo::deit_small();
        let resnet = zoo::resnet50();
        let p = PruningConfig::Hss(HssPattern::one_rank(Gh::new(2, 4)));
        // Per-point sensitivity: DeiT's coefficient dominates even after the
        // prunable-fraction discount.
        let per_unit_deit = accuracy_loss(&deit, &p) / deit.prunable_fraction();
        let per_unit_resnet = accuracy_loss(&resnet, &p) / resnet.prunable_fraction();
        assert!(per_unit_deit > per_unit_resnet);
    }

    #[test]
    fn cached_and_uncached_losses_agree_exactly() {
        let cache = RetentionCache::new();
        let hss = |ranks: &[(u32, u32)]| {
            PruningConfig::Hss(HssPattern::new(
                ranks.iter().map(|&(g, h)| Gh::new(g, h)).collect(),
            ))
        };
        // One candidate of every shape the co-design space holds, in an
        // order that replays shared lowest-rank masks from the cache.
        let configs = [
            PruningConfig::Unstructured { sparsity: 0.5 },
            hss(&[(2, 4)]),
            hss(&[(3, 7)]),
            hss(&[(4, 8), (2, 4)]),
            hss(&[(2, 6), (1, 2)]),
            hss(&[(4, 4), (2, 4)]),
            hss(&[(2, 4), (2, 2)]),
            hss(&[(1, 2), (2, 4), (2, 4)]),
        ];
        for m in [zoo::resnet50(), zoo::deit_small(), zoo::transformer_big()] {
            for cfg in &configs {
                let plain = accuracy_loss(&m, cfg);
                let cached = accuracy_loss_cached(&m, cfg, &cache);
                assert_eq!(plain, cached, "first (miss) evaluation must be identical");
                let replay = accuracy_loss_cached(&m, cfg, &cache);
                assert_eq!(plain, replay, "replay (hit) must be identical");
            }
            assert_eq!(
                model_retention(&m, &configs[0]),
                model_retention_cached(&m, &configs[0], &cache)
            );
        }
        let (hits, misses) = cache.stats();
        assert!(hits > 0 && misses > 0);
    }

    /// One configuration of every shape the co-design space holds:
    /// unstructured degrees from 5% to fully pruned, one-rank `G:H`
    /// (`G == H` included), and two- and three-rank stacks that share
    /// lowest ranks, granularities and `H`s.
    fn every_shape() -> Vec<PruningConfig> {
        let hss = |ranks: &[(u32, u32)]| {
            PruningConfig::Hss(HssPattern::new(
                ranks.iter().map(|&(g, h)| Gh::new(g, h)).collect(),
            ))
        };
        let mut configs: Vec<PruningConfig> = [0.05, 0.35, 0.5, 0.9, 1.0]
            .map(|sparsity| PruningConfig::Unstructured { sparsity })
            .into();
        configs.extend([
            PruningConfig::Dense,
            hss(&[(1, 2)]),
            hss(&[(2, 4)]),
            hss(&[(3, 4)]),
            hss(&[(4, 4)]),
            hss(&[(3, 7)]),
            hss(&[(2, 8)]),
            hss(&[(2, 4), (1, 2)]),
            hss(&[(2, 8), (1, 2)]),
            hss(&[(4, 8), (1, 2)]),
            hss(&[(4, 4), (2, 4)]),
            hss(&[(2, 6), (2, 4)]),
            hss(&[(4, 6), (1, 4)]),
            hss(&[(2, 4), (2, 2)]),
            hss(&[(1, 2), (2, 4), (2, 4)]),
            hss(&[(2, 2), (4, 8), (2, 4)]),
            hss(&[(1, 2), (1, 2), (1, 2)]),
        ]);
        configs
    }

    #[test]
    fn batch_losses_match_the_uncached_oracle_bit_for_bit() {
        let m = zoo::deit_small();
        let configs = every_shape();
        let oracle: Vec<u64> = configs
            .iter()
            .map(|cfg| accuracy_loss(&m, cfg).to_bits())
            .collect();
        // Scores of every other config, to start a cache part-way warm.
        let half: Vec<PruningConfig> = configs.iter().step_by(2).cloned().collect();
        let warmed = RetentionCache::new();
        warmed.losses_on(&m, &half, 1);
        for threads in [1, 2] {
            for preload in [false, true] {
                let cache = RetentionCache::new();
                if preload {
                    cache.preload_scores(warmed.scores());
                }
                let losses = cache.losses_on(&m, &configs, threads);
                for ((cfg, got), want) in configs.iter().zip(&losses).zip(&oracle) {
                    assert_eq!(
                        got.to_bits(),
                        *want,
                        "{cfg} at {threads} thread(s), preloaded: {preload}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_cold_batch_computes_each_table_entry_once() {
        let m = zoo::deit_small();
        let mut configs = every_shape();
        // A repeated config is looked up once.
        configs.push(configs[7].clone());
        let cache = RetentionCache::new();
        let losses = cache.losses_on(&m, &configs, 2);
        assert_eq!(losses[7].to_bits(), losses[configs.len() - 1].to_bits());
        for (name, (hits, misses), len) in [
            ("streams", cache.streams.stats(), cache.streams.len()),
            ("ranks", cache.ranks.stats(), cache.ranks.len()),
            ("norms", cache.norms.stats(), cache.norms.len()),
            (
                "hss_prefix",
                cache.hss_prefix.stats(),
                cache.hss_prefix.len(),
            ),
            ("retention", cache.retention.stats(), cache.retention.len()),
        ] {
            assert_eq!(misses as usize, len, "{name}: every miss stores one entry");
            assert!(len > 0, "{name} is used");
            assert_eq!(hits, 0, "{name}: a cold batch looks each entry up once");
        }
        // One lookup per distinct scored config and prunable layer.
        let layers = m.layers.iter().filter(|l| l.prunable).count();
        let lookups = (every_shape().len() - 1) * layers;
        let (hits, misses) = cache.stats();
        assert_eq!((hits + misses) as usize, lookups);
        // A repeated batch answers every lookup from the memo.
        cache.losses_on(&m, &configs, 2);
        assert_eq!(cache.stats(), (hits + lookups as u64, misses));
    }

    #[test]
    fn proxies_are_prefixes_of_one_weight_stream() {
        // Every proxy width the surrogate derives for a layer — one per
        // group size a pattern can have, up to the widest a request may
        // ask for — reads the same values `synthetic_weights` builds.
        let cache = RetentionCache::new();
        for m in [zoo::resnet50(), zoo::deit_small(), zoo::transformer_big()] {
            for (i, layer) in m.layers.iter().filter(|l| l.prunable).enumerate() {
                let seed = 0xACC0 + i as u64;
                let mut widths: Vec<usize> = (1..=64)
                    .map(|group| {
                        let h = u32::try_from(group).unwrap();
                        let cfg = PruningConfig::Hss(HssPattern::one_rank(Gh::new(1, h)));
                        proxy_shape(layer.shape.m, layer.shape.k, &cfg).1
                    })
                    .collect();
                widths.sort_unstable();
                widths.dedup();
                for c in widths {
                    let r = layer.shape.m.min(PROXY_ROWS);
                    let width = stream_width(layer.shape.k, c);
                    let stream = cache.streams.get_or_insert_with(&(r, width, seed), || {
                        weight_stream(r * width, seed).into()
                    });
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(synthetic_weights(r, c, seed).data()),
                        bits(&stream[..r * c]),
                        "{} layer {i}: {r}x{c} proxy of a {width}-wide stream",
                        m.name
                    );
                }
            }
        }
    }

    #[test]
    fn retention_is_high_for_mild_pruning() {
        let m = zoo::transformer_big();
        let r = model_retention(&m, &PruningConfig::Unstructured { sparsity: 0.5 });
        // Normal-ish weights: top-50% magnitudes carry ~90% of the norm.
        assert!(r > 0.8, "retention {r}");
    }
}
