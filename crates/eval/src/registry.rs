//! The workspace-wide design registry and the per-design co-design
//! policy.
//!
//! Every front-end that accepts a design *name* — the fig/table binaries,
//! the `hl-serve` HTTP API, the `hl-client` CLI — parses it once into a
//! [`DesignId`]; [`UnknownDesign`] is the error a server maps to a 4xx.
//! Past that boundary everything takes the id.
//!
//! The paper evaluates each design on a model pruned to the pattern that
//! design was built for (§7.1.2: structured pruning for STC/S2TA/HighLight,
//! unstructured for DSTC). That policy is owned here, one exhaustive
//! `match` on [`DesignId`] per question, so a new variant does not compile
//! until it answers each of them:
//!
//! - [`DesignId::build`]: the default-configured accelerator;
//! - [`SparsityMapping::operand_a`] / [`SparsityMapping::operand_b`]: the
//!   operand descriptors a weight / activation degree resolves to (model
//!   lowering runs through this impl);
//! - [`DesignId::fig15_configs`]: the configurations the design
//!   contributes to Fig. 15 (and to the co-design search space);
//! - [`DesignId::accuracy_matched_config`]: the Fig. 2 accuracy-matched
//!   configuration.

use std::collections::BTreeSet;
use std::fmt;
use std::str::FromStr;

use highlight_core::{Dsso, HighLight};
use hl_baselines::{Dstc, S2ta, Stc, Tc};
use hl_models::accuracy::PruningConfig;
use hl_models::DnnModel;
use hl_sim::network::SparsityMapping;
use hl_sim::{Accelerator, OperandSparsity, Workload};
use hl_sparsity::families::{dsso_b, highlight_a, s2ta_a, HssFamily};
use hl_sparsity::{Gh, HssPattern};
use hl_tensor::GemmShape;

use crate::SweepContext;

/// Parsed identity of a registered design name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignId {
    /// Dense tensor-core baseline.
    Tc,
    /// Sparse-tensor-core baseline (single-sided structured).
    Stc,
    /// Dual-sided unstructured baseline.
    Dstc,
    /// Dual-sided structured baseline.
    S2ta,
    /// The HighLight accelerator (paper §5–6).
    HighLight,
    /// The dual-structured-sparse-operand variant (paper §7.5).
    Dsso,
}

impl DesignId {
    /// Every registered design, in the paper's presentation order
    /// (the five evaluated designs, then the DSSO variant).
    pub const ALL: [DesignId; 6] = [
        DesignId::Tc,
        DesignId::Stc,
        DesignId::Dstc,
        DesignId::S2ta,
        DesignId::HighLight,
        DesignId::Dsso,
    ];

    /// The five designs the paper's figures compare, in presentation
    /// order (DSSO is the §7.5 variant, outside the main comparison).
    pub const EVALUATED: &'static [DesignId] = &[
        DesignId::Tc,
        DesignId::Stc,
        DesignId::Dstc,
        DesignId::S2ta,
        DesignId::HighLight,
    ];

    /// Parses a registry name (the `DesignMapping::new` spelling of
    /// [`str::parse`]).
    ///
    /// # Errors
    /// [`UnknownDesign`] when the name is not registered.
    pub fn new(name: &str) -> Result<Self, UnknownDesign> {
        name.parse()
    }

    /// The canonical registry name (what [`Accelerator::name`] returns).
    pub fn name(self) -> &'static str {
        match self {
            DesignId::Tc => "TC",
            DesignId::Stc => "STC",
            DesignId::Dstc => "DSTC",
            DesignId::S2ta => "S2TA",
            DesignId::HighLight => "HighLight",
            DesignId::Dsso => "DSSO",
        }
    }

    /// Constructs the default-configured accelerator for this id.
    pub fn build(self) -> Box<dyn Accelerator> {
        match self {
            DesignId::Tc => Box::new(Tc::default()),
            DesignId::Stc => Box::new(Stc::default()),
            DesignId::Dstc => Box::new(Dstc::default()),
            DesignId::S2ta => Box::new(S2ta::default()),
            DesignId::HighLight => Box::new(HighLight::default()),
            DesignId::Dsso => Box::new(Dsso::default()),
        }
    }

    /// The co-designed GEMM at `shape` for one `(A, B)` degree pair,
    /// named exactly like [`Workload::synthetic`] labels its points.
    pub fn workload(self, shape: GemmShape, a_sparsity: f64, b_sparsity: f64) -> Workload {
        let a = self.operand_a(a_sparsity);
        let b = self.operand_b(b_sparsity);
        Workload::new(format!("A[{a}] B[{b}]"), shape, a, b)
    }

    /// The pruning configurations this design contributes to Fig. 15.
    pub fn fig15_configs(self) -> Vec<PruningConfig> {
        match self {
            DesignId::Tc => vec![PruningConfig::Dense],
            DesignId::Stc => vec![
                PruningConfig::Hss(HssPattern::one_rank(Gh::new(2, 4))),
                PruningConfig::Hss(HssPattern::one_rank(Gh::new(1, 4))),
            ],
            DesignId::Dstc => (1..=7)
                .map(|i| PruningConfig::Unstructured {
                    sparsity: f64::from(i) * 0.125,
                })
                .collect(),
            DesignId::S2ta => s2ta_a()
                .patterns()
                .into_iter()
                .map(PruningConfig::Hss)
                .collect(),
            // DSSO shares HighLight's operand-A family (§7.5).
            DesignId::HighLight | DesignId::Dsso => distinct_densities(&highlight_a()),
        }
    }

    /// The configuration this design runs in accuracy-matched comparisons
    /// (Fig. 2): the sparsest candidate whose surrogate loss stays within
    /// `budget` metric points (TC always runs dense).
    pub fn accuracy_matched_config(
        self,
        ctx: &SweepContext,
        model: &DnnModel,
        budget: f64,
    ) -> Option<PruningConfig> {
        let candidates = match self {
            DesignId::Tc => return Some(PruningConfig::Dense),
            DesignId::Stc => vec![PruningConfig::Hss(HssPattern::one_rank(Gh::new(2, 4)))],
            DesignId::Dstc => (1..=18)
                .map(|i| PruningConfig::Unstructured {
                    sparsity: f64::from(i) * 0.05,
                })
                .collect(),
            DesignId::S2ta => distinct_densities(&s2ta_a()),
            DesignId::HighLight | DesignId::Dsso => distinct_densities(&highlight_a()),
        };
        // Every candidate is scored; ties keep the earlier candidate.
        let mut best: Option<PruningConfig> = None;
        for cfg in candidates {
            if ctx.accuracy_loss(model, &cfg) <= budget
                && best.as_ref().is_none_or(|b| cfg.sparsity() > b.sparsity())
            {
                best = Some(cfg);
            }
        }
        best
    }
}

/// The first member of `family` at each density, in family order.
fn distinct_densities(family: &HssFamily) -> Vec<PruningConfig> {
    let mut seen = BTreeSet::new();
    family
        .patterns()
        .into_iter()
        .filter(|p| seen.insert(p.density()))
        .map(PruningConfig::Hss)
        .collect()
}

impl SparsityMapping for DesignId {
    fn operand_a(&self, sparsity: f64) -> OperandSparsity {
        if sparsity == 0.0 {
            return OperandSparsity::Dense;
        }
        match self {
            DesignId::Tc | DesignId::Dstc => OperandSparsity::unstructured(sparsity),
            DesignId::Stc => {
                // {G≤2}:4 — 50% runs 2:4, anything sparser runs 1:4.
                let g = if sparsity <= 0.5 { 2 } else { 1 };
                OperandSparsity::Hss(HssPattern::one_rank(Gh::new(g, 4)))
            }
            DesignId::S2ta => {
                let g = ((1.0 - sparsity) * 8.0).round().max(1.0) as u32;
                OperandSparsity::Hss(HssPattern::one_rank(Gh::new(g.min(4), 8)))
            }
            DesignId::HighLight | DesignId::Dsso => {
                OperandSparsity::Hss(highlight_a().closest_to_density(1.0 - sparsity))
            }
        }
    }

    fn operand_b(&self, sparsity: f64) -> OperandSparsity {
        if sparsity == 0.0 {
            return OperandSparsity::Dense;
        }
        match self {
            DesignId::Tc | DesignId::Stc | DesignId::Dstc | DesignId::HighLight => {
                OperandSparsity::unstructured(sparsity)
            }
            DesignId::S2ta => {
                // Dynamic structured activation pruning to {G≤8}:8.
                let g = ((1.0 - sparsity) * 8.0).round().clamp(1.0, 8.0) as u32;
                OperandSparsity::Hss(HssPattern::one_rank(Gh::new(g, 8)))
            }
            DesignId::Dsso => {
                // §7.5: B must be Rank1-structured `C1(2:{2≤H≤8})→C0(dense)`.
                // Exploit the sparsest family member whose sparsity the
                // activations actually reach (never claim zeros that are
                // not there); low degrees fall back to the dense 2:2
                // member.
                let target = 1.0 - sparsity;
                let p = dsso_b()
                    .patterns()
                    .into_iter()
                    .filter(|p| p.density_f64() >= target - 1e-12)
                    .min_by(|a, b| a.density().cmp(&b.density()))
                    .expect("dsso_b has a dense member");
                OperandSparsity::Hss(p)
            }
        }
    }
}

impl fmt::Display for DesignId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for DesignId {
    type Err = UnknownDesign;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DesignId::ALL
            .into_iter()
            .find(|d| d.name() == s)
            .ok_or_else(|| UnknownDesign::new(s))
    }
}

/// A design name the registry does not know.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownDesign {
    /// The rejected name.
    pub name: String,
}

impl UnknownDesign {
    /// An error for the rejected `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into() }
    }
}

impl fmt::Display for UnknownDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown design {} (known: ", self.name)?;
        for (i, d) in DesignId::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(d.name())?;
        }
        f.write_str(")")
    }
}

impl std::error::Error for UnknownDesign {}

/// Constructs a default-configured design by its registry name.
///
/// # Errors
/// [`UnknownDesign`] when the name is not registered.
pub fn design_by_name(name: &str) -> Result<Box<dyn Accelerator>, UnknownDesign> {
    name.parse::<DesignId>().map(DesignId::build)
}

/// Every registered design name, in [`DesignId::ALL`] order.
pub fn registered_names() -> Vec<&'static str> {
    DesignId::ALL.iter().map(|d| d.name()).collect()
}

/// The evaluated designs ([`DesignId::EVALUATED`]), built.
pub fn designs() -> Vec<Box<dyn Accelerator>> {
    DesignId::EVALUATED.iter().map(|d| d.build()).collect()
}

/// The evaluated design names, in [`DesignId::EVALUATED`] order.
pub fn design_names() -> Vec<String> {
    DesignId::EVALUATED
        .iter()
        .map(|d| d.name().to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_id_parses_builds_and_matches_its_name() {
        for id in DesignId::ALL {
            assert_eq!(id.name().parse::<DesignId>(), Ok(id));
            let built = id.build();
            assert_eq!(built.name(), id.name(), "constructor name must agree");
            let by_name = design_by_name(id.name()).expect("registered");
            assert_eq!(by_name.name(), id.name());
        }
    }

    #[test]
    fn unknown_names_are_rejected_with_the_known_list() {
        let err = design_by_name("TPU").unwrap_err();
        assert_eq!(err.name, "TPU");
        let msg = err.to_string();
        for name in registered_names() {
            assert!(msg.contains(name), "{msg} must list {name}");
        }
        assert!("".parse::<DesignId>().is_err());
        assert!(
            "tc".parse::<DesignId>().is_err(),
            "names are case-sensitive"
        );
    }

    #[test]
    fn workload_labels_like_synthetic() {
        let shape = GemmShape::new(1024, 1024, 1024);
        for id in DesignId::ALL {
            let a = id.operand_a(0.75);
            let b = id.operand_b(0.5);
            assert_eq!(id.workload(shape, 0.75, 0.5), Workload::synthetic(a, b));
        }
    }
}
