//! The evaluation layer shared by the figure harness (`hl-bench`) and the
//! server (`hl-serve`):
//!
//! - [`registry`]: the design registry. [`DesignId`] is a parsed design
//!   name and owns the per-design co-design policy (§7.1.2: each design
//!   is handed a workload *in the sparsity pattern it was designed for*),
//!   one exhaustive `match` per policy question;
//! - [`SweepContext`]: the evaluation front-end every sweep runs through.
//!   [`SweepContext::new`] uses the parallel engine
//!   ([`hl_sim::engine`]) — cells fan out across a worker pool
//!   (`HL_THREADS` override) and repeated pure evaluations (accelerator
//!   results, surrogate weight synthesis, per-layer retention) are
//!   memoized. [`SweepContext::serial_baseline`] runs the same code
//!   single-threaded and uncached, the reference the engine must match
//!   byte for byte;
//! - [`search`]: the §7.1.2 co-design search — [`SweepContext::codesign`]
//!   optimizes a pruning configuration for a `(design, model)` pair under
//!   an accuracy-loss budget and returns the Pareto front over
//!   `(loss, EDP)`.

#![forbid(unsafe_code)]
// Determinism: results must not depend on the wall clock (the byte-identity
// suites compare runs). clippy.toml lists the banned clock types.
#![warn(clippy::disallowed_types)]
#![warn(missing_docs)]

mod context;
pub mod registry;
pub mod search;

pub use context::SweepContext;
pub use registry::{
    design_by_name, design_names, designs, registered_names, DesignId, UnknownDesign,
};
pub use search::{codesign_space, SearchOutcome, SearchPoint};

/// The [`hl_sim::network::SparsityMapping`] of one registered design:
/// [`DesignId`] implements it, and `DesignMapping::new(name)` parses the
/// name.
pub type DesignMapping = DesignId;

/// The Fig. 13 sparsity degrees: A ∈ {0, 50, 75}%, B ∈ {0, 25, 50, 75}%
/// (also the default grid of `hl-serve`'s `/v1/sweep`).
pub fn fig13_degrees() -> (Vec<f64>, Vec<f64>) {
    (vec![0.0, 0.5, 0.75], vec![0.0, 0.25, 0.5, 0.75])
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_models::accuracy::PruningConfig;
    use hl_sim::network::SparsityMapping;
    use hl_sparsity::{Gh, HssPattern};

    #[test]
    fn registry_order_matches_paper() {
        assert_eq!(
            design_names(),
            vec!["TC", "STC", "DSTC", "S2TA", "HighLight"]
        );
    }

    #[test]
    fn operand_mapping_densities_match_degrees() {
        for &design in DesignId::EVALUATED {
            for s in [0.5, 0.75] {
                let a = design.operand_a(s);
                assert!(
                    (a.sparsity() - s).abs() < 1e-9,
                    "{design} A at {s}: got {}",
                    a.sparsity()
                );
            }
            let b = design.operand_b(0.25);
            assert!((b.sparsity() - 0.25).abs() < 1e-9, "{design} B at 0.25");
        }
    }

    #[test]
    fn dsso_b_mapping_codesigns_to_its_family() {
        // 60% activation sparsity is exactly the 2:5 Rank1 member.
        let b = DesignId::Dsso.operand_b(0.6);
        assert!(b.is_structured());
        assert!((b.density() - 0.4).abs() < 1e-12);
        // Low degrees cannot be overclaimed: the dense member is used.
        assert!(DesignId::Dsso.operand_b(0.05).is_dense());
        // The mapped descriptors are runnable on DSSO (whole-model eval
        // is no longer vacuously unsupported).
        let eval = SweepContext::serial_baseline().eval_network(
            DesignId::Dsso,
            &hl_models::zoo::resnet50(),
            &PruningConfig::Hss(HssPattern::two_rank(Gh::new(4, 4), Gh::new(2, 4))),
        );
        assert!(eval.supported(), "{:?}", eval.first_unsupported());
    }

    #[test]
    fn design_mapping_rejects_unknown_names() {
        assert!(DesignMapping::new("TPU").is_err());
        let m = DesignMapping::new("STC").unwrap();
        assert_eq!(m, DesignId::Stc);
        assert!(m.operand_a(0.5).is_structured(), "STC co-designs to G:H");
    }
}
