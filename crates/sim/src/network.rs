//! Network-level evaluation: the whole-DNN counterpart of [`Workload`].
//!
//! The paper's headline results (Figs. 13–16) are *network-level* —
//! whole-model EDP/accuracy trade-offs across ResNet-50, DeiT-S, and
//! Transformer-Big — so the evaluation stack treats networks as
//! first-class workloads rather than an ad-hoc per-layer loop:
//!
//! - [`NetworkWorkload`]: the lowered IR — one named per-layer GEMM
//!   [`Workload`] (with its occurrence count) per layer of a DNN. Model
//!   inventories lower themselves into this IR (`hl_models` implements
//!   `DnnModel::lower`), resolving each layer's operand descriptors from a
//!   pruning configuration through a design-specific [`SparsityMapping`];
//! - [`NetworkEval`]: the result — per-layer [`LayerEval`] breakdowns with
//!   [`Unsupported`] propagated *per layer* (a design that cannot run one
//!   dense layer still reports every other layer), plus aggregate cycles /
//!   energy / EDP / ED² and MACs-weighted utilization;
//! - [`evaluate_network`]: the serial, uncached reference evaluation;
//! - [`Engine::evaluate_network`]: the engine path — every layer's
//!   `(design, shape, operands)` cell is looked up in the
//!   [`crate::engine::EvalCache`] first, and only the misses fan out
//!   across the worker pool, so sweeping configurations over a model
//!   re-evaluates only the layers whose cell changed and a fully warm
//!   network spawns no threads.
//!
//! Both paths produce byte-identical results (aggregates accumulate in
//! layer order regardless of scheduling), the property the workspace's
//! network determinism tests assert.

use crate::engine::{DesignFingerprint, Engine, EvalCell};
use crate::eval::{Accelerator, EvalResult, Unsupported};
use crate::workload::{OperandSparsity, Workload};

/// Peak MAC throughput of the shared Table 4 resource class (every MAC
/// unit retiring one MAC per cycle) — the denominator of
/// [`NetworkEval::utilization`].
pub const PEAK_MACS_PER_CYCLE: f64 = crate::analytic::Resources::TC_CLASS_MACS as f64;

/// How abstract sparsity *degrees* map to one design's operand
/// descriptors — the §7.1.2 co-design step, supplied by the front-end
/// (each design is handed workloads in the sparsity pattern it was
/// designed for).
pub trait SparsityMapping {
    /// The operand A (weight) descriptor for a weight-sparsity degree.
    fn operand_a(&self, weight_sparsity: f64) -> OperandSparsity;

    /// The operand B (activation) descriptor for an activation-sparsity
    /// degree.
    fn operand_b(&self, activation_sparsity: f64) -> OperandSparsity;

    /// The operand A descriptor for weights already pruned to an explicit
    /// HSS pattern. The default passes the pattern through unchanged;
    /// mappings for designs that must re-quantize foreign `G:H` shapes
    /// can override it.
    fn operand_a_hss(&self, pattern: &hl_sparsity::HssPattern) -> OperandSparsity {
        OperandSparsity::Hss(pattern.clone())
    }
}

/// One layer of a lowered network: a GEMM workload plus how many times the
/// network executes it.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkLayer {
    /// The lowered GEMM (named after the layer).
    pub workload: Workload,
    /// Occurrences of this shape in the network.
    pub count: u32,
}

impl NetworkLayer {
    /// Creates a layer.
    ///
    /// # Panics
    /// Panics if `count == 0`.
    pub fn new(workload: Workload, count: u32) -> Self {
        assert!(count > 0, "layer count must be positive");
        Self { workload, count }
    }

    /// Dense MACs over all occurrences.
    pub fn dense_macs(&self) -> f64 {
        self.workload.dense_macs() * f64::from(self.count)
    }

    /// Expected effectual MACs over all occurrences.
    pub fn effectual_macs(&self) -> f64 {
        self.workload.effectual_macs() * f64::from(self.count)
    }
}

/// A whole-network workload: the per-layer GEMM IR every network-level
/// evaluation runs on.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkWorkload {
    /// Network name (for reports).
    pub name: String,
    /// The lowered layers, in network order.
    pub layers: Vec<NetworkLayer>,
}

impl NetworkWorkload {
    /// Creates a network workload.
    pub fn new(name: impl Into<String>, layers: Vec<NetworkLayer>) -> Self {
        Self {
            name: name.into(),
            layers,
        }
    }

    /// Total dense MACs over all layers × occurrences.
    pub fn total_dense_macs(&self) -> f64 {
        self.layers.iter().map(NetworkLayer::dense_macs).sum()
    }
}

/// One layer's outcome inside a [`NetworkEval`].
#[derive(Debug, Clone, PartialEq)]
pub struct LayerEval {
    /// The evaluated workload (name, shape, operands).
    pub workload: Workload,
    /// Occurrences of this layer in the network.
    pub count: u32,
    /// The evaluation, or why the design cannot run this layer.
    pub outcome: Result<EvalResult, Unsupported>,
}

impl LayerEval {
    /// Layer name.
    pub fn name(&self) -> &str {
        &self.workload.name
    }

    /// Dense MACs over all occurrences.
    pub fn dense_macs(&self) -> f64 {
        self.workload.dense_macs() * f64::from(self.count)
    }

    /// Total cycles over all occurrences; `None` when unsupported.
    pub fn cycles(&self) -> Option<f64> {
        let r = self.outcome.as_ref().ok()?;
        Some(r.cycles * f64::from(self.count))
    }

    /// Total energy (J) over all occurrences; `None` when unsupported.
    pub fn energy_j(&self) -> Option<f64> {
        let r = self.outcome.as_ref().ok()?;
        Some(r.energy_j() * f64::from(self.count))
    }

    /// Total latency (s) over all occurrences; `None` when unsupported.
    pub fn latency_s(&self) -> Option<f64> {
        let r = self.outcome.as_ref().ok()?;
        Some(r.latency_s() * f64::from(self.count))
    }

    /// Fraction of the peak MAC throughput the layer sustains:
    /// effectual MACs / (cycles × `peak`); `None` when unsupported.
    pub fn utilization(&self, peak_macs_per_cycle: f64) -> Option<f64> {
        let r = self.outcome.as_ref().ok()?;
        if r.cycles <= 0.0 {
            return Some(0.0);
        }
        Some(self.workload.effectual_macs() / (r.cycles * peak_macs_per_cycle))
    }
}

/// The outcome of evaluating a [`NetworkWorkload`] on one design:
/// per-layer breakdowns plus whole-network aggregates.
///
/// Unsupported layers do not fail the whole evaluation — each layer
/// carries its own [`Unsupported`], and the aggregates are `None` exactly
/// when at least one layer cannot run (§7.3: S2TA cannot process DeiT's
/// dense QKV projections, but its other layers still evaluate).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkEval {
    /// Design name.
    pub design: String,
    /// Network name.
    pub network: String,
    /// Per-layer outcomes, in network order.
    pub layers: Vec<LayerEval>,
}

impl NetworkEval {
    /// `network` on `design`, given one outcome per layer in order.
    fn new(
        design: &dyn Accelerator,
        network: &NetworkWorkload,
        outcomes: impl IntoIterator<Item = Result<EvalResult, Unsupported>>,
    ) -> Self {
        let layers = network.layers.iter().zip(outcomes);
        Self {
            design: design.name().to_string(),
            network: network.name.clone(),
            layers: layers
                .map(|(l, outcome)| LayerEval {
                    workload: l.workload.clone(),
                    count: l.count,
                    outcome,
                })
                .collect(),
        }
    }

    /// True when every layer evaluated.
    pub fn supported(&self) -> bool {
        self.layers.iter().all(|l| l.outcome.is_ok())
    }

    /// The first unsupported layer's error, if any.
    pub fn first_unsupported(&self) -> Option<&Unsupported> {
        self.layers.iter().find_map(|l| l.outcome.as_ref().err())
    }

    /// Aggregate cycles (Σ per-layer cycles × count, in layer order);
    /// `None` when any layer is unsupported.
    pub fn cycles(&self) -> Option<f64> {
        self.layers.iter().map(LayerEval::cycles).sum()
    }

    /// Aggregate energy in J (layer-order sum); `None` when any layer is
    /// unsupported.
    pub fn energy_j(&self) -> Option<f64> {
        self.layers.iter().map(LayerEval::energy_j).sum()
    }

    /// Aggregate latency in s (layer-order sum); `None` when any layer is
    /// unsupported.
    pub fn latency_s(&self) -> Option<f64> {
        self.layers.iter().map(LayerEval::latency_s).sum()
    }

    /// Whole-network energy-delay product (J·s); `None` when any layer is
    /// unsupported.
    pub fn edp(&self) -> Option<f64> {
        Some(self.energy_j()? * self.latency_s()?)
    }

    /// Whole-network energy-delay² product (J·s²); `None` when any layer
    /// is unsupported.
    pub fn ed2(&self) -> Option<f64> {
        let l = self.latency_s()?;
        Some(self.energy_j()? * l * l)
    }

    /// Dense-MACs-weighted mean of the per-layer utilizations at the
    /// shared [`PEAK_MACS_PER_CYCLE`]; `None` when any layer is
    /// unsupported or the network is empty.
    pub fn utilization(&self) -> Option<f64> {
        self.utilization_at(PEAK_MACS_PER_CYCLE)
    }

    /// [`NetworkEval::utilization`] against an explicit peak throughput.
    pub fn utilization_at(&self, peak_macs_per_cycle: f64) -> Option<f64> {
        let mut weighted = 0.0;
        let mut total = 0.0;
        for layer in &self.layers {
            weighted += layer.dense_macs() * layer.utilization(peak_macs_per_cycle)?;
            total += layer.dense_macs();
        }
        if total == 0.0 {
            return None;
        }
        Some(weighted / total)
    }
}

/// Evaluates every layer of `network` on `design` inline on the caller
/// thread with the plain, uncached [`Accelerator::evaluate_best`] — the
/// reference path [`Engine::evaluate_network`] must reproduce
/// byte-for-byte.
pub fn evaluate_network(design: &dyn Accelerator, network: &NetworkWorkload) -> NetworkEval {
    let outcomes = network
        .layers
        .iter()
        .map(|l| design.evaluate_best(&l.workload));
    NetworkEval::new(design, network, outcomes)
}

impl Engine {
    /// Network evaluation on the engine, one `Engine::evaluate_cells`
    /// batch: every layer's `(design, shape, operands)` cell is looked up
    /// in the [`crate::engine::EvalCache`] under one lock, hits replay
    /// from the memo, and only the missing layers fan out across the
    /// worker pool. Results are identical to [`evaluate_network`] for any
    /// thread count (deterministic ordered collect + pure evaluations).
    pub fn evaluate_network(
        &self,
        design: &dyn Accelerator,
        network: &NetworkWorkload,
    ) -> NetworkEval {
        self.evaluate_network_keyed(design, &Engine::fingerprint(design), network)
    }

    /// [`Engine::evaluate_network`] with a hoisted design fingerprint —
    /// the search path evaluating many configurations of one model on one
    /// design computes [`Engine::fingerprint`] once for the whole sweep
    /// instead of once per layer evaluation.
    pub fn evaluate_network_keyed(
        &self,
        design: &dyn Accelerator,
        fingerprint: &DesignFingerprint,
        network: &NetworkWorkload,
    ) -> NetworkEval {
        let cells: Vec<EvalCell<'_>> = network
            .layers
            .iter()
            .map(|l| (design, fingerprint, &l.workload))
            .collect();
        NetworkEval::new(design, network, self.evaluate_cells(&cells))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_arch::AreaBreakdown;
    use hl_tensor::GemmShape;

    /// Cycles = `m`; fails on a dense operand A.
    #[derive(Debug)]
    struct SparseOnly;

    impl Accelerator for SparseOnly {
        fn name(&self) -> &str {
            "sparse-only"
        }
        fn evaluate(&self, w: &Workload) -> Result<EvalResult, Unsupported> {
            if w.a.is_dense() {
                return Err(Unsupported {
                    design: self.name().into(),
                    reason: "dense A".into(),
                });
            }
            let mut energy = hl_arch::EnergyBreakdown::new();
            energy.record(hl_arch::Comp::Mac, w.shape.m as f64);
            Ok(EvalResult {
                design: self.name().into(),
                workload: w.name.clone(),
                cycles: w.shape.m as f64,
                energy,
            })
        }
        fn area(&self) -> AreaBreakdown {
            AreaBreakdown::new()
        }
        fn supported_patterns(&self) -> String {
            "A sparse".into()
        }
        fn swappable(&self) -> bool {
            false
        }
    }

    fn layer(name: &str, m: usize, sparse: bool, count: u32) -> NetworkLayer {
        let a = if sparse {
            OperandSparsity::unstructured(0.5)
        } else {
            OperandSparsity::Dense
        };
        NetworkLayer::new(
            Workload::new(name, GemmShape::new(m, 8, 4), a, OperandSparsity::Dense),
            count,
        )
    }

    fn network() -> NetworkWorkload {
        NetworkWorkload::new(
            "net",
            vec![layer("l0", 16, true, 2), layer("l1", 32, true, 1)],
        )
    }

    #[test]
    fn aggregates_sum_over_layers_with_counts() {
        let eval = evaluate_network(&SparseOnly, &network());
        assert!(eval.supported());
        assert_eq!(eval.cycles(), Some(16.0 * 2.0 + 32.0));
        // Energy: pJ = m per occurrence → J.
        let expect = (16.0 * 2.0 + 32.0) * 1e-12;
        assert!((eval.energy_j().unwrap() - expect).abs() < 1e-24);
        assert_eq!(
            eval.edp(),
            Some(eval.energy_j().unwrap() * eval.latency_s().unwrap())
        );
        assert!(eval.ed2().unwrap() > 0.0);
    }

    #[test]
    fn unsupported_propagates_per_layer_not_whole_network() {
        let nw = NetworkWorkload::new(
            "mixed",
            vec![layer("ok", 8, true, 1), layer("dense", 8, false, 1)],
        );
        let eval = evaluate_network(&SparseOnly, &nw);
        assert!(!eval.supported());
        assert!(eval.layers[0].outcome.is_ok(), "good layers still report");
        assert!(eval.layers[1].outcome.is_err());
        assert_eq!(eval.first_unsupported().unwrap().reason, "dense A");
        assert_eq!(eval.cycles(), None, "aggregates are None when partial");
        assert_eq!(eval.edp(), None);
        assert_eq!(eval.utilization(), None);
    }

    #[test]
    fn engine_path_matches_serial_reference() {
        let nw = network();
        let serial = evaluate_network(&SparseOnly, &nw);
        for threads in [1, 2, 8] {
            let engine = Engine::with_threads(threads);
            assert_eq!(engine.evaluate_network(&SparseOnly, &nw), serial);
        }
    }

    #[test]
    fn engine_network_eval_hits_the_cache_per_layer() {
        let engine = Engine::serial();
        let nw = network();
        engine.evaluate_network(&SparseOnly, &nw);
        let misses = engine.eval_cache().misses();
        // Identical layers replay from the memo: no new misses.
        engine.evaluate_network(&SparseOnly, &nw);
        assert_eq!(engine.eval_cache().misses(), misses);
        assert!(engine.eval_cache().hits() >= 2);
    }

    /// `n` sparse layers with pairwise distinct shapes (distinct cache keys).
    fn distinct_network(n: usize) -> NetworkWorkload {
        let layers = (0..n)
            .map(|i| layer(&format!("l{i}"), 8 * (i + 1), true, 1))
            .collect();
        NetworkWorkload::new("distinct", layers)
    }

    #[test]
    fn warm_network_counts_one_hit_per_layer_and_no_miss() {
        let nw = distinct_network(6);
        for threads in [1, 2] {
            let engine = Engine::with_threads(threads);
            let cold = engine.evaluate_network(&SparseOnly, &nw);
            let (hits, misses) = engine.eval_cache().stats();
            assert_eq!((hits, misses), (0, 6));
            assert_eq!(engine.evaluate_network(&SparseOnly, &nw), cold);
            let (warm_hits, warm_misses) = engine.eval_cache().stats();
            assert_eq!((warm_hits - hits, warm_misses - misses), (6, 0));
        }
    }

    #[test]
    fn half_preloaded_network_computes_only_its_missing_layers() {
        let nw = distinct_network(6);
        let reference = evaluate_network(&SparseOnly, &nw);
        let engine = Engine::serial();
        // Preload every other layer, evaluated under a foreign name: the
        // hits must still report this network's layer names.
        engine
            .eval_cache()
            .preload(nw.layers.iter().step_by(2).map(|l| {
                let mut foreign = l.workload.clone();
                foreign.name = "preloaded".into();
                let key = crate::engine::EvalKey::new(&SparseOnly, &foreign);
                (
                    key,
                    crate::engine::pack(&SparseOnly.evaluate_best(&foreign)),
                )
            }));
        let eval = engine.evaluate_network(&SparseOnly, &nw);
        assert_eq!(eval, reference);
        assert_eq!(format!("{eval:?}"), format!("{reference:?}"), "bit for bit");
        assert_eq!(engine.eval_cache().stats(), (3, 3));
    }

    #[test]
    fn a_panicking_missing_layer_reraises_its_payload() {
        /// [`SparseOnly`], except that a layer with `m == 24` panics.
        #[derive(Debug)]
        struct Fragile;
        impl Accelerator for Fragile {
            fn name(&self) -> &str {
                "fragile"
            }
            fn evaluate(&self, w: &Workload) -> Result<EvalResult, Unsupported> {
                assert!(w.shape.m != 24, "layer with m = 24 exploded");
                SparseOnly.evaluate(w)
            }
            fn area(&self) -> AreaBreakdown {
                AreaBreakdown::new()
            }
            fn supported_patterns(&self) -> String {
                "A sparse".into()
            }
            fn swappable(&self) -> bool {
                false
            }
        }
        let nw = distinct_network(6);
        for threads in [1, 2] {
            let engine = Engine::with_threads(threads);
            // Warm the first layer so the batch mixes a hit with misses.
            engine
                .evaluate_best(&Fragile, &nw.layers[0].workload)
                .unwrap();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.evaluate_network(&Fragile, &nw)
            }))
            .expect_err("the layer panic must propagate");
            let msg = caught
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| caught.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string payload>");
            assert!(msg.contains("m = 24 exploded"), "payload was {msg:?}");
        }
    }

    #[test]
    fn utilization_is_macs_weighted() {
        // Each layer: cycles = m, effectual macs = m*8*4*0.5 ⇒ per-layer
        // utilization = 16/peak for every layer, so the weighted mean is
        // the same regardless of weights.
        let eval = evaluate_network(&SparseOnly, &network());
        let u = eval.utilization().unwrap();
        assert!((u - 16.0 / PEAK_MACS_PER_CYCLE).abs() < 1e-12);
        let explicit = eval.utilization_at(16.0).unwrap();
        assert!((explicit - 1.0).abs() < 1e-12);
    }

    #[test]
    fn total_macs_accumulate() {
        let nw = network();
        assert_eq!(nw.total_dense_macs(), (16.0 * 2.0 + 32.0) * 8.0 * 4.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_count_layer_panics() {
        let _ = layer("bad", 4, true, 0);
    }
}
