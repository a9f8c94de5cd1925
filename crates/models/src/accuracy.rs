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

use std::cell::RefCell;
use std::sync::Arc;

use hl_sim::engine::{Memo, OperandKey};
use hl_sparsity::prune::{
    hss_kept, hss_kept_sum_sq, magnitude_order, prune_hss, prune_unstructured,
    retained_norm_fraction, sum_sq, unstructured_sum_sq, KeptMask, PruneScratch,
};
use hl_sparsity::{Gh, HssPattern};
use hl_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layers::DnnModel;

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
/// and sums their squares (`hl_sparsity::prune::hss_kept_sum_sq`) without
/// building a pruned matrix; synthesis (four RNG draws per element) runs
/// once per layer. The cache keys carry *every* input the evaluation
/// reads, so cached and uncached results are identical — the property
/// the workspace's memoization property test asserts.
#[derive(Debug, Default)]
pub struct RetentionCache {
    /// Weight streams keyed on `(rows, width, seed)`, `width` columns wide
    /// ([`stream_width`]). A proxy of `c <= width` columns is the stream's
    /// first `rows * c` values, so every proxy of a layer shares one
    /// synthesis whatever its group alignment.
    streams: Memo<(usize, usize, u64), Arc<[f32]>>,
    /// Magnitude pruning orders keyed on the proxy's `(rows, cols, seed)`:
    /// the argsort is degree-independent, so a sweep pruning one matrix at
    /// many unstructured degrees sorts it once.
    orders: Memo<(usize, usize, u64), Arc<Vec<u32>>>,
    /// Total squared norms keyed like `orders`: the retained-fraction
    /// denominator is config-independent, so every candidate scoring one
    /// matrix shares a single full-matrix pass.
    norms: Memo<(usize, usize, u64), f64>,
    /// Lowest-rank kept masks keyed `(rows, cols, seed, lowest G:H)`, 8 KB
    /// per 64×1024 proxy. The lowest rank always prunes single values, so
    /// its selection depends only on the weights and that one `G:H` —
    /// every multi-rank candidate sharing a lowest rank starts from the
    /// mask and selects only its higher ranks.
    hss_prefix: Memo<(usize, usize, u64, Gh), Arc<KeptMask>>,
    /// Per-layer retained-norm fractions keyed on
    /// `(rows, cols, config, seed)`. A hit reads none of the tables
    /// above, so these scores alone restore a warm surrogate.
    retention: Memo<(usize, usize, OperandKey, u64), f64>,
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
        self.retention.entries()
    }

    /// Seeds retention scores without touching the hit/miss counters — the
    /// snapshot-load path. A stored score keeps its value.
    pub fn preload_scores(&self, scores: impl IntoIterator<Item = RetentionScore>) {
        self.retention.preload(scores);
    }
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
/// configuration. `cache` deduplicates the weight synthesis, the shared
/// selection work, and the scores across repeated `(shape, config, seed)`
/// evaluations; without it the layer is pruned with `prune_hss`, the
/// reference the cached path matches bit for bit.
fn layer_retention(
    rows: usize,
    cols: usize,
    config: &PruningConfig,
    seed: u64,
    cache: Option<&RetentionCache>,
) -> f64 {
    if matches!(config, PruningConfig::Dense) {
        return 1.0;
    }
    let (r, c) = proxy_shape(rows, cols, config);
    let Some(cache) = cache else {
        let w = synthetic_weights(r, c, seed);
        let pruned = match config {
            PruningConfig::Dense => unreachable!("handled above"),
            PruningConfig::Unstructured { sparsity } => prune_unstructured(&w, *sparsity),
            PruningConfig::Hss(p) => prune_hss(&w, p),
        };
        return retained_norm_fraction(&w, &pruned);
    };
    let key = (r, c, OperandKey::from(config), seed);
    cache.retention.get_or_insert_with(&key, || {
        let width = stream_width(cols, c);
        let stream = cache
            .streams
            .get_or_insert_with(&(r, width, seed), || weight_stream(r * width, seed).into());
        let w = &stream[..r * c];
        let wkey = (r, c, seed);
        let retained = match config {
            PruningConfig::Dense => unreachable!("handled above"),
            PruningConfig::Unstructured { sparsity } => {
                // The argsort is shared across every degree pruning this
                // matrix; only the zeroing depends on `sparsity`.
                let order = cache
                    .orders
                    .get_or_insert_with(&wkey, || Arc::new(magnitude_order(w)));
                SCRATCH.with(|s| unstructured_sum_sq(w, *sparsity, &order, &mut s.borrow_mut()))
            }
            PruningConfig::Hss(p) => {
                // A multi-rank candidate starts from the shared mask of its
                // lowest rank, unless that rank keeps everything, and
                // selects only its higher ranks.
                let prefix = match p.ranks() {
                    [_, .., lowest] if lowest.g < lowest.h => Some(
                        cache
                            .hss_prefix
                            .get_or_insert_with(&(r, c, seed, *lowest), || {
                                let one = HssPattern::one_rank(*lowest);
                                Arc::new(
                                    SCRATCH
                                        .with(|s| hss_kept(w, c, &one, None, &mut s.borrow_mut())),
                                )
                            }),
                    ),
                    _ => None,
                };
                SCRATCH.with(|s| hss_kept_sum_sq(w, c, p, prefix.as_deref(), &mut s.borrow_mut()))
            }
        };
        let total = cache.norms.get_or_insert_with(&wkey, || sum_sq(w));
        if total == 0.0 {
            1.0
        } else {
            retained / total
        }
    })
}

fn model_retention_impl(
    model: &DnnModel,
    config: &PruningConfig,
    cache: Option<&RetentionCache>,
) -> f64 {
    let mut weighted = 0.0;
    let mut total = 0.0;
    for (i, layer) in model.layers.iter().filter(|l| l.prunable).enumerate() {
        let macs = layer.total_macs();
        weighted += macs
            * layer_retention(
                layer.shape.m,
                layer.shape.k,
                config,
                0xACC0 + i as u64,
                cache,
            );
        total += macs;
    }
    if total == 0.0 {
        1.0
    } else {
        weighted / total
    }
}

/// MAC-weighted retained-norm fraction over a model's prunable layers.
pub fn model_retention(model: &DnnModel, config: &PruningConfig) -> f64 {
    model_retention_impl(model, config, None)
}

/// [`model_retention`] with repeated pure evaluations memoized in `cache`.
pub fn model_retention_cached(
    model: &DnnModel,
    config: &PruningConfig,
    cache: &RetentionCache,
) -> f64 {
    model_retention_impl(model, config, Some(cache))
}

fn accuracy_loss_impl(
    model: &DnnModel,
    config: &PruningConfig,
    cache: Option<&RetentionCache>,
) -> f64 {
    if matches!(config, PruningConfig::Dense) {
        return 0.0;
    }
    let retained = model_retention_impl(model, config, cache);
    model.sensitivity * model.prunable_fraction() * 3.5 * (1.0 - retained).powf(1.3)
}

/// Estimated accuracy loss in metric points (top-1 % or BLEU) for pruning
/// `model`'s prunable weights with `config`.
pub fn accuracy_loss(model: &DnnModel, config: &PruningConfig) -> f64 {
    accuracy_loss_impl(model, config, None)
}

/// [`accuracy_loss`] with repeated pure evaluations memoized in `cache`:
/// sweeps that score the same model under many configurations synthesize
/// each layer's weights once and re-score each `(layer, config)` pair once.
pub fn accuracy_loss_cached(
    model: &DnnModel,
    config: &PruningConfig,
    cache: &RetentionCache,
) -> f64 {
    accuracy_loss_impl(model, config, Some(cache))
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
