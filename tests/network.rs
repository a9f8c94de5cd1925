//! Network-evaluation invariants, across crates:
//!
//! - the [`hl_sim::network::NetworkEval`] aggregates are exactly the sum
//!   of per-layer [`hl_sim::evaluate_best`] results (× multiplicities)
//!   for random models (proptest);
//! - layer evaluation is order- and scheduling-invariant: the serial
//!   reference and the engine at any worker count produce byte-identical
//!   `NetworkEval`s (`HL_THREADS` only feeds the default pool size, so
//!   pinning explicit counts covers every value it could take).

use highlight::models::accuracy::PruningConfig;
use highlight::models::{zoo, DnnModel, LayerKind, LayerSpec};
use highlight::prelude::*;
use highlight::sim::engine::Engine;
use highlight::sim::network::evaluate_network;
use hl_eval::{designs, DesignId, DesignMapping, SweepContext};
use proptest::prelude::*;

/// A small random model: linear layers with K a multiple of 32 so every
/// design's HSS group sizes divide the reduction dimension.
fn model_strategy() -> impl Strategy<Value = DnnModel> {
    (1usize..=4, 0u64..1000).prop_map(|(n_layers, seed)| {
        let layers = (0..n_layers)
            .map(|i| {
                let s = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407 + i as u64 * 0x9E3779B9);
                let m = 8 * (1 + (s % 4) as usize);
                let k = 32 * (1 + ((s >> 8) % 3) as usize);
                let n = 4 * (1 + ((s >> 16) % 5) as usize);
                let count = 1 + ((s >> 24) % 3) as u32;
                let prunable = (s >> 32) % 4 != 0;
                let act = [0.0, 0.25, 0.6][((s >> 40) % 3) as usize];
                LayerSpec::new(
                    format!("layer{i}"),
                    LayerKind::Linear,
                    GemmShape::new(m, k, n),
                    count,
                    prunable,
                    act,
                )
            })
            .collect();
        DnnModel {
            name: "random".into(),
            metric: "top-1 %",
            dense_accuracy: 75.0,
            sensitivity: 1.0,
            layers,
        }
    })
}

fn config_for(index: u8) -> PruningConfig {
    match index % 4 {
        0 => PruningConfig::Dense,
        1 => PruningConfig::Unstructured { sparsity: 0.5 },
        2 => PruningConfig::Hss(HssPattern::one_rank(Gh::new(2, 4))),
        _ => PruningConfig::Hss(HssPattern::two_rank(Gh::new(4, 8), Gh::new(2, 4))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `NetworkEval` aggregate cycles/energy are exactly (bit-for-bit) the
    /// layer-order sum of per-layer `evaluate_best` results × counts.
    #[test]
    fn aggregates_equal_per_layer_evaluate_best_sums(
        model in model_strategy(),
        config_index in 0u8..4,
    ) {
        let config = config_for(config_index);
        let engine = Engine::with_threads(3);
        for design in designs() {
            let mapping = DesignMapping::new(design.name()).unwrap();
            let network = model.lower(&config, &mapping);
            let eval = engine.evaluate_network(design.as_ref(), &network);

            let mut cycles = 0.0f64;
            let mut energy_j = 0.0f64;
            let mut all_supported = true;
            for layer in &network.layers {
                match highlight::sim::evaluate_best(design.as_ref(), &layer.workload) {
                    Ok(r) => {
                        cycles += r.cycles * f64::from(layer.count);
                        energy_j += r.energy_j() * f64::from(layer.count);
                    }
                    Err(_) => all_supported = false,
                }
            }
            if all_supported {
                prop_assert_eq!(eval.cycles(), Some(cycles));
                prop_assert_eq!(eval.energy_j(), Some(energy_j));
            } else {
                prop_assert_eq!(eval.cycles(), None);
                prop_assert_eq!(eval.energy_j(), None);
            }
        }
    }

    /// Serial vs engine, at any worker count: byte-identical NetworkEvals.
    #[test]
    fn layer_evaluation_is_scheduling_invariant(
        model in model_strategy(),
        config_index in 0u8..4,
    ) {
        let config = config_for(config_index);
        for design in designs() {
            let mapping = DesignMapping::new(design.name()).unwrap();
            let network = model.lower(&config, &mapping);
            let reference = evaluate_network(design.as_ref(), &network);
            for threads in [1usize, 2, 5, 8] {
                let engine = Engine::with_threads(threads);
                prop_assert_eq!(
                    &engine.evaluate_network(design.as_ref(), &network),
                    &reference
                );
            }
        }
    }
}

/// The real zoo models through the two `SweepContext` modes: the engine
/// path (memoized, pooled) must reproduce the uncached serial baseline
/// exactly — per layer, not just in aggregate.
#[test]
fn zoo_models_evaluate_identically_in_both_context_modes() {
    let serial = SweepContext::serial_baseline();
    let pooled = SweepContext::with_engine(Engine::with_threads(4));
    let config = PruningConfig::Hss(HssPattern::one_rank(Gh::new(2, 4)));
    for model in zoo::all_models() {
        for &design in DesignId::EVALUATED {
            let a = serial.eval_network(design, &model, &config);
            let b = pooled.eval_network(design, &model, &config);
            assert_eq!(a, b, "{} on {}", design.name(), model.name);
            // Replay from the warm cache is still identical.
            let c = pooled.eval_network(design, &model, &config);
            assert_eq!(b, c, "warm replay: {} on {}", design.name(), model.name);
        }
    }
}
