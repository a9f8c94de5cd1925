//! The cached co-design search against the uncached one over the whole
//! search space.
//!
//! - The cached accuracy surrogate scores kept values from shared weight
//!   streams and lowest-rank masks, a search's candidates in one batch;
//!   the uncached one synthesizes each layer and prunes it with
//!   `prune_hss`, and is the reference. Checked on every candidate of
//!   every design, one at a time and in each search's batch.
//! - A cold run of every search scores each (layer proxy, config) pair
//!   once, whatever the worker count.
//! - The search-front table answers a warm query at any budget from one
//!   stored front; the uncached serial baseline computes it from scratch.
//!   Checked on every design and model.
//!
//! The uncached paths take minutes in a debug build, so those tests run
//! in release builds (CI runs `cargo test --release -p hl-eval`).

use hl_eval::{codesign_space, DesignId, SearchOutcome, SweepContext};
use hl_models::accuracy::{accuracy_loss, accuracy_loss_cached, PruningConfig, RetentionCache};
use hl_models::ModelId;
use hl_sim::engine::Engine;

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
    let ctx = SweepContext::with_engine(Engine::with_threads(2));
    for model in ModelId::ALL.map(ModelId::build) {
        let mut uncached = std::collections::BTreeMap::new();
        for cfg in &candidates {
            let loss = accuracy_loss(&model, cfg).to_bits();
            uncached.insert(cfg.to_string(), loss);
            assert_eq!(
                loss,
                accuracy_loss_cached(&model, cfg, &cache).to_bits(),
                "{cfg} on {}",
                model.name
            );
        }
        // Every point of every search, scored by the batch whose misses
        // fan out over two workers.
        for design in DesignId::ALL {
            for point in ctx.codesign(design, &model, 1.0).points {
                assert_eq!(
                    point.loss.to_bits(),
                    uncached[&point.label],
                    "{} for {design} on {}",
                    point.label,
                    model.name
                );
            }
        }
    }
}

#[test]
fn a_cold_run_of_every_search_scores_each_layer_config_once() {
    // One `/v1/search` per design and model on a fresh context: 2,322
    // distinct (layer proxy, config) scores, and 8,430 lookups the memo
    // answers, at any worker count.
    for threads in [1, 2] {
        let ctx = SweepContext::with_engine(Engine::with_threads(threads));
        for model in ModelId::ALL.map(ModelId::build) {
            for design in DesignId::ALL {
                ctx.codesign(design, &model, 1.0);
            }
        }
        assert_eq!(ctx.retention().stats(), (8430, 2322), "{threads} thread(s)");
        assert_eq!(ctx.retention().len(), 2322);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "minutes unoptimized; runs in release")]
fn warm_search_matches_the_serial_baseline_on_every_design_and_model() {
    // The two ends of the budget range `/v1/search` accepts (its
    // `MAX_BUDGET` is 100 points) and two between.
    const BUDGETS: [f64; 4] = [0.0, 0.5, 1.0, 100.0];
    let models = ModelId::ALL.map(ModelId::build);
    let queries: Vec<_> = models
        .iter()
        .flat_map(|m| DesignId::ALL.map(|d| (d, m)))
        .flat_map(|(d, m)| BUDGETS.map(|b| (d, m, b)))
        .collect();
    let baseline = SweepContext::serial_baseline();
    let fresh: Vec<SearchOutcome> = queries
        .iter()
        .map(|&(design, model, budget)| baseline.codesign(design, model, budget))
        .collect();
    for threads in [1, 2] {
        let ctx = SweepContext::with_engine(Engine::with_threads(threads));
        for &(design, model, _) in &queries {
            ctx.codesign(design, model, 1.0);
        }
        for (&(design, model, budget), fresh) in queries.iter().zip(&fresh) {
            assert_eq!(
                &ctx.codesign(design, model, budget),
                fresh,
                "{design} on {} at {budget}, {threads} thread(s)",
                model.name
            );
        }
        // One miss per (design, model); every other query is a hit.
        let fronts = models.len() * DesignId::ALL.len();
        let hits = 2 * queries.len() - fronts;
        assert_eq!(ctx.search_stats(), (fronts, hits as u64, fronts as u64));
    }
}
