//! The cached accuracy surrogate against the uncached one on every
//! candidate of the co-design search.
//!
//! The cached path scores kept values from shared weight streams and
//! lowest-rank masks; the uncached path synthesizes each layer and prunes
//! it with `prune_hss`, and is the reference. Each uncached call
//! synthesizes every layer again, which takes about a minute in a debug
//! build, so the test runs in release builds (CI runs
//! `cargo test --release -p hl-eval`).

use hl_eval::{codesign_space, DesignId};
use hl_models::accuracy::{accuracy_loss, accuracy_loss_cached, PruningConfig, RetentionCache};
use hl_models::ModelId;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "about a minute unoptimized; runs in release"
)]
fn cached_and_uncached_losses_agree_on_every_codesign_candidate() {
    let mut seen = std::collections::BTreeSet::new();
    let candidates: Vec<PruningConfig> = DesignId::ALL
        .iter()
        .flat_map(|d| codesign_space(d.name()).unwrap())
        .filter(|cfg| seen.insert(cfg.to_string()))
        .collect();
    let cache = RetentionCache::new();
    for model in ModelId::ALL.map(ModelId::build) {
        for cfg in &candidates {
            assert_eq!(
                accuracy_loss(&model, cfg).to_bits(),
                accuracy_loss_cached(&model, cfg, &cache).to_bits(),
                "{cfg} on {}",
                model.name
            );
        }
    }
}
