//! # HighLight — hierarchical structured sparsity for DNN acceleration
//!
//! A from-scratch Rust reproduction of *HighLight: Efficient and Flexible
//! DNN Acceleration with Hierarchical Structured Sparsity* (Wu et al.,
//! MICRO 2023). This façade crate re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`fibertree`] | `hl-fibertree` | fibertree abstraction + precise sparsity specification (§3) |
//! | [`tensor`] | `hl-tensor` | matrices, Toeplitz expansion, CP/sparse-B/CSR formats (§6) |
//! | [`sparsity`] | `hl-sparsity` | HSS patterns, degree composition, sparsification (§4) |
//! | [`arch`] | `hl-arch` | 65 nm-class component energy/area models (§7.1.3) |
//! | [`sim`] | `hl-sim` | `Accelerator` trait, balance models, functional micro-simulator (§6) |
//! | [`core`] | `highlight-core` | the HighLight accelerator + DSSO (§5–6, §7.5) |
//! | [`baselines`] | `hl-baselines` | TC / STC / S2TA / DSTC models (§7.1.1) |
//! | [`models`] | `hl-models` | ResNet50 / DeiT-small / Transformer-Big + accuracy surrogate (§7.1.2) |
//!
//! # Quickstart
//!
//! ```
//! use highlight::prelude::*;
//!
//! // A two-rank HSS pattern: 62.5% sparsity from two simple patterns.
//! let pattern = HssPattern::two_rank(Gh::new(3, 4), Gh::new(2, 4));
//! assert_eq!(pattern.sparsity().to_string(), "5/8");
//!
//! // Evaluate HighLight vs the dense baseline on a sparse workload.
//! let hl = HighLight::default();
//! let tc = Tc::default();
//! let w = Workload::synthetic(
//!     OperandSparsity::Hss(highlight_family().closest_to_density(0.25)),
//!     OperandSparsity::unstructured(0.5),
//! );
//! let fast = hl.evaluate_best(&w)?;
//! let slow = tc.evaluate_best(&w)?;
//! assert!(fast.edp() < slow.edp());
//! # Ok::<(), highlight::sim::Unsupported>(())
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench/src/bin/` for
//! the binaries regenerating every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use highlight_core as core;
pub use hl_arch as arch;
pub use hl_baselines as baselines;
pub use hl_fibertree as fibertree;
pub use hl_models as models;
pub use hl_sim as sim;
pub use hl_sparsity as sparsity;
pub use hl_tensor as tensor;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use highlight_core::{Dsso, HighLight, HighLightConfig};
    pub use hl_baselines::{Dstc, S2ta, Stc, Tc};
    pub use hl_fibertree::spec::{Gh, PatternSpec};
    pub use hl_fibertree::Fibertree;
    pub use hl_sim::{Accelerator, EvalResult, OperandSparsity, Unsupported, Workload};
    pub use hl_sparsity::{HssPattern, Ratio};
    pub use hl_tensor::{GemmShape, Matrix};

    /// HighLight's supported operand A family
    /// ([`hl_sparsity::families::highlight_a`]).
    pub fn highlight_family() -> hl_sparsity::families::HssFamily {
        hl_sparsity::families::highlight_a()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let hl = HighLight::default();
        let w = Workload::synthetic(OperandSparsity::Dense, OperandSparsity::Dense);
        assert!(hl.evaluate_best(&w).is_ok());
        assert_eq!(Gh::new(2, 4).density(), 0.5);
    }
}
