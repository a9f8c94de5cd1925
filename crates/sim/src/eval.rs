use std::error::Error;
use std::fmt;

use hl_arch::{AreaBreakdown, EnergyBreakdown, PackedEnergy};

use crate::workload::Workload;

/// Accelerator clock frequency in GHz (shared by all designs so latency
/// comparisons reduce to cycle comparisons, as in the paper's equal-resource
/// methodology, Table 4).
pub const CLOCK_GHZ: f64 = 1.0;

/// The outcome of evaluating one workload on one design.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalResult {
    /// Design name.
    pub design: String,
    /// Workload name.
    pub workload: String,
    /// Processing cycles.
    pub cycles: f64,
    /// Per-component energy.
    pub energy: EnergyBreakdown,
}

impl EvalResult {
    /// Latency in seconds at [`CLOCK_GHZ`].
    pub fn latency_s(&self) -> f64 {
        self.cycles / (CLOCK_GHZ * 1e9)
    }

    /// Total energy in joules.
    pub fn energy_j(&self) -> f64 {
        self.energy.total() * 1e-12
    }

    /// Energy-delay product in J·s.
    pub fn edp(&self) -> f64 {
        self.energy_j() * self.latency_s()
    }

    /// Energy-delay-squared product in J·s².
    pub fn ed2(&self) -> f64 {
        self.energy_j() * self.latency_s() * self.latency_s()
    }
}

/// What the engine's memo keeps of a supported evaluation: its cycles and
/// packed energy, without the names a report carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Cost {
    /// Processing cycles.
    pub cycles: f64,
    /// Per-component energy.
    pub energy: PackedEnergy,
}

/// Returned when a design cannot process a workload at all (e.g. S2TA on a
/// purely dense operand A, §7.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unsupported {
    /// Design name.
    pub design: String,
    /// Why the workload cannot run.
    pub reason: String,
}

impl fmt::Display for Unsupported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cannot process this workload: {}",
            self.design, self.reason
        )
    }
}

impl Error for Unsupported {}

/// The analytical-evaluation interface implemented by every design.
///
/// Implementations model one fixed hardware configuration (Table 4
/// resources) and translate a [`Workload`] into cycles and per-component
/// energy. Functional correctness of the modeled dataflows is established
/// separately ([`crate::micro`] for HighLight; unit tests for baselines).
///
/// Implementations must be `Send + Sync`: evaluation is a pure function of
/// the configuration, and the [`crate::engine`] fans `(design, workload)`
/// cells out across a worker pool sharing the design registry. They must
/// also be `Debug`, and the `Debug` form must cover every configuration
/// field `evaluate` reads — the engine's memo key fingerprints designs
/// with it, so two same-name instances with different configurations
/// (e.g. ablation variants) never share cached results.
pub trait Accelerator: fmt::Debug + Send + Sync {
    /// Design name (e.g. `"HighLight"`).
    fn name(&self) -> &str;

    /// Evaluates a workload.
    ///
    /// # Errors
    /// Returns [`Unsupported`] when the design cannot produce functionally
    /// correct results for the workload's sparsity patterns.
    fn evaluate(&self, workload: &Workload) -> Result<EvalResult, Unsupported>;

    /// Total die area by component.
    fn area(&self) -> AreaBreakdown;

    /// Human-readable supported-patterns description (Table 3 row).
    fn supported_patterns(&self) -> String;

    /// Whether the design's two operand paths are interchangeable, allowing
    /// the §7.1.1 operand swap. Designs with heterogeneous paths (e.g.
    /// S2TA's static weight DBB vs dynamic activation DBB) return `false`.
    fn swappable(&self) -> bool {
        true
    }

    /// Evaluates `workload` directly and, on a [`swappable`](Self::swappable)
    /// design, with operands swapped, returning the lower-EDP result
    /// (§7.1.1: "we allow them to swap operands and report the best
    /// hardware performance"). A design overrides it only to share work
    /// between the two orientations, answering bit for bit the same.
    ///
    /// # Errors
    /// Returns [`Unsupported`] only if *both* orientations are unsupported.
    fn evaluate_best(&self, workload: &Workload) -> Result<EvalResult, Unsupported> {
        let direct = self.evaluate(workload);
        if !self.swappable() {
            return direct;
        }
        best_of(direct, self.evaluate(&workload.swapped()))
    }
}

/// Rejects workloads whose expected operand densities are degenerate —
/// fully pruned (density 0, e.g. unstructured sparsity 1.0 or a model
/// layer pruned to nothing) or non-finite — as [`Unsupported`].
///
/// Every design calls this at the top of its `evaluate`: a degenerate
/// configuration reaching a served sweep must surface as a per-layer
/// `Unsupported` outcome, never as a worker panic (in the
/// [`crate::analytic::TrafficModel`] density assert) or NaN cycles.
///
/// # Errors
/// [`Unsupported`] when either operand's density is outside `(0, 1]`.
pub fn check_densities(design: &str, workload: &Workload) -> Result<(), Unsupported> {
    for (operand, density) in [("A", workload.a.density()), ("B", workload.b.density())] {
        if !(density > 0.0 && density <= 1.0) {
            return Err(Unsupported {
                design: design.to_string(),
                reason: format!(
                    "operand {operand} density {density} is degenerate \
                     (fully pruned or outside (0, 1]); nothing to compute"
                ),
            });
        }
    }
    Ok(())
}

/// The better of a workload's two orientations: the lower EDP, the direct
/// one on a tie, and the direct error when neither runs.
///
/// # Errors
/// The direct orientation's [`Unsupported`] when both are unsupported.
pub fn best_of(
    direct: Result<EvalResult, Unsupported>,
    swapped: Result<EvalResult, Unsupported>,
) -> Result<EvalResult, Unsupported> {
    match (direct, swapped) {
        (Ok(a), Ok(b)) => Ok(if a.edp() <= b.edp() { a } else { b }),
        (Err(_), Ok(b)) => Ok(b),
        (direct, _) => direct,
    }
}

/// Geometric mean of the values; `None` when the slice is empty or any
/// value is non-positive (the log-domain mean is undefined there — callers
/// decide how to report the degenerate case instead of panicking).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::OperandSparsity;
    use hl_arch::Comp;
    use hl_tensor::GemmShape;

    fn result(cycles: f64, pj: f64) -> EvalResult {
        let mut e = EnergyBreakdown::new();
        e.record(Comp::Mac, pj);
        EvalResult {
            design: "t".into(),
            workload: "w".into(),
            cycles,
            energy: e,
        }
    }

    #[test]
    fn metric_arithmetic() {
        let r = result(1e9, 1e12); // 1 s at 1 GHz, 1 J
        assert!((r.latency_s() - 1.0).abs() < 1e-12);
        assert!((r.energy_j() - 1.0).abs() < 1e-12);
        assert!((r.edp() - 1.0).abs() < 1e-12);
        assert!((r.ed2() - 1.0).abs() < 1e-12);
        let r2 = result(2e9, 1e12);
        assert!((r2.ed2() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), None);
        let g = geomean(&[1.0, 4.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
        // Non-positive inputs are reported, not a panic.
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[2.0, -1.0]), None);
    }

    #[derive(Debug)]
    struct SwapSensitive;

    impl Accelerator for SwapSensitive {
        fn name(&self) -> &str {
            "swap-sensitive"
        }
        fn evaluate(&self, w: &Workload) -> Result<EvalResult, Unsupported> {
            // Only supports sparse operand A; dense-A workloads fail.
            if w.a.is_dense() {
                return Err(Unsupported {
                    design: self.name().into(),
                    reason: "dense A".into(),
                });
            }
            Ok(result(w.shape.m as f64, 1e6))
        }
        fn area(&self) -> AreaBreakdown {
            AreaBreakdown::new()
        }
        fn supported_patterns(&self) -> String {
            "A sparse".into()
        }
    }

    #[test]
    fn evaluate_best_swaps_operands_when_needed() {
        let w = Workload::new(
            "w",
            GemmShape::new(8, 4, 2),
            OperandSparsity::Dense,
            OperandSparsity::unstructured(0.5),
        );
        // Direct fails (dense A); swapped succeeds with m = n = 2 cycles.
        let r = SwapSensitive.evaluate_best(&w).unwrap();
        assert_eq!(r.cycles, 2.0);
        // Both-dense fails both ways.
        let wd = Workload::new(
            "d",
            GemmShape::new(2, 2, 2),
            OperandSparsity::Dense,
            OperandSparsity::Dense,
        );
        assert!(SwapSensitive.evaluate_best(&wd).is_err());
    }
}
