//! The §7.1.2 co-design search: optimize a pruning configuration for a
//! model on a design under an accuracy-loss budget.
//!
//! The paper's flexibility claim is that HighLight lets the *pruning
//! configuration* be chosen per model against an accuracy target, where
//! single-degree designs (STC, S2TA) are stuck with their one pattern and
//! DSTC pays its dataflow tax at every degree. This module turns that
//! claim into an optimizer instead of the hand-picked Fig. 15 point list:
//!
//! 1. [`codesign_space`] enumerates an *abstract* candidate space — dense,
//!    a grid of unstructured degrees (up to and including the fully-pruned
//!    1.0 extreme), and 1-/2-/3-rank `G:H` grids (including `G == H` dense
//!    ranks and density → 0 stacks) plus the design's Fig. 15 configs;
//! 2. `resolve_candidate` performs the co-design step per candidate:
//!    abstract unstructured degrees resolve through the design's operand-A
//!    mapping (the same [`SparsityMapping`] policy model lowering uses),
//!    so a degree becomes the `G:H` pattern the design was built for and
//!    the surrogate scores exactly the configuration the hardware runs;
//! 3. [`SweepContext::codesign`] evaluates every resolved candidate in
//!    parallel across the engine pool — surrogate accuracy loss through
//!    the retention cache, whole-network EDP through the per-layer
//!    [`hl_sim::engine::EvalCache`] — and returns the supported points
//!    with their Pareto front over `(loss, EDP)` and the lowest-EDP point
//!    within the budget.
//!
//! Degenerate candidates (fully-pruned operands, patterns outside the
//! design's families) surface as unsupported counts, not worker panics —
//! the search is the forcing function for the pipeline's degenerate-config
//! hardening. Results are byte-identical for any `HL_THREADS` worker
//! count (deterministic enumeration + ordered collect + memo
//! transparency), the property the workspace search tests assert.

use hl_models::accuracy::PruningConfig;
use hl_models::DnnModel;
use hl_sim::engine::Engine;
use hl_sim::network::SparsityMapping;
use hl_sim::pareto::pareto_front_flags;
use hl_sim::OperandSparsity;
use hl_sparsity::{Gh, HssPattern};

use crate::{DesignId, SweepContext, UnknownDesign};

/// One evaluated (supported) candidate of a co-design search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchPoint {
    /// The resolved pruning configuration this point evaluates.
    pub config: PruningConfig,
    /// Canonical report label ([`PruningConfig`]'s `Display`).
    pub label: String,
    /// Weight sparsity of the configuration (fraction).
    pub weight_sparsity: f64,
    /// Estimated accuracy loss (metric points).
    pub loss: f64,
    /// Whole-model EDP normalized to the dense TC.
    pub edp: f64,
    /// Whole-model energy in J.
    pub energy_j: f64,
    /// Whole-model latency in s.
    pub latency_s: f64,
    /// True when no other point is better in both loss and EDP.
    pub on_front: bool,
    /// True when `loss` stays within the query budget.
    pub within_budget: bool,
}

/// The outcome of one co-design search query.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Design name.
    pub design: String,
    /// Model name.
    pub model: String,
    /// Accuracy metric name.
    pub metric: &'static str,
    /// The accuracy-loss budget (metric points).
    pub budget: f64,
    /// Candidates evaluated (after resolution and dedup).
    pub candidates: usize,
    /// Candidates the design cannot run (degenerate density, pattern
    /// outside its families, dense layers on S2TA, …).
    pub unsupported: usize,
    /// The supported points, in enumeration order.
    pub points: Vec<SearchPoint>,
    /// Index (into `points`) of the lowest-EDP point within the budget.
    pub best: Option<usize>,
}

impl SearchOutcome {
    /// The Pareto-front points, in enumeration order.
    pub fn front(&self) -> Vec<&SearchPoint> {
        self.points.iter().filter(|p| p.on_front).collect()
    }

    /// The budget-best point, if any configuration fits the budget.
    pub fn best_point(&self) -> Option<&SearchPoint> {
        self.best.map(|i| &self.points[i])
    }
}

/// The abstract candidate space the co-design search walks for one design:
/// dense, unstructured degrees in 5% steps up to the fully-pruned 1.0
/// extreme, 1-rank `G:H` grids (`G ≤ 4`, `H ≤ 8`, including dense
/// `G == H`), 2-rank grids over the Table 3 neighbourhood, a few 3-rank
/// stacks (density down to 1/8 at group size 8), and the design's Fig. 15
/// configurations — deduplicated after `resolve_candidate`, preserving
/// first-occurrence order.
///
/// The extremes are deliberate: density → 0 (unstructured 1.0), `G == H`
/// dense ranks, and deep rank stacks are exactly the degenerate inputs the
/// evaluation pipeline must reject as `Unsupported` rather than panic on.
///
/// # Errors
/// [`UnknownDesign`] when the name is not registered.
pub fn codesign_space(design: &str) -> Result<Vec<PruningConfig>, UnknownDesign> {
    design.parse().map(candidates)
}

/// [`codesign_space`] for a parsed design.
fn candidates(design: DesignId) -> Vec<PruningConfig> {
    let mut raw: Vec<PruningConfig> = vec![PruningConfig::Dense];
    for i in 1..=20 {
        raw.push(PruningConfig::Unstructured {
            sparsity: f64::from(i) * 0.05,
        });
    }
    for g in 1..=4u32 {
        for h in g..=8 {
            raw.push(PruningConfig::Hss(HssPattern::one_rank(Gh::new(g, h))));
        }
    }
    for rank1 in [(2, 4), (2, 6), (2, 8), (4, 4), (4, 6), (4, 8)] {
        for rank0 in [(1, 2), (1, 4), (2, 2), (2, 4)] {
            raw.push(PruningConfig::Hss(HssPattern::two_rank(
                Gh::new(rank1.0, rank1.1),
                Gh::new(rank0.0, rank0.1),
            )));
        }
    }
    for stack in [
        [(1, 2), (2, 4), (2, 4)],
        [(2, 2), (4, 8), (2, 4)],
        [(1, 2), (1, 2), (1, 2)],
        [(2, 2), (2, 2), (2, 4)],
    ] {
        raw.push(PruningConfig::Hss(HssPattern::new(
            stack.iter().map(|&(g, h)| Gh::new(g, h)).collect(),
        )));
    }
    raw.extend(design.fig15_configs());

    let mut seen = std::collections::BTreeSet::new();
    raw.into_iter()
        .map(|cfg| resolve_candidate(design, &cfg))
        .filter(|cfg| seen.insert(cfg.to_string()))
        .collect()
}

/// The co-design step for one abstract candidate: unstructured degrees
/// resolve through the design's operand-A mapping (§7.1.2 — the model is
/// pruned *to the pattern the design was built for* at that degree), so
/// the surrogate loss and the evaluated workload describe the same
/// configuration. Dense and explicit HSS candidates pass through.
fn resolve_candidate(design: DesignId, cfg: &PruningConfig) -> PruningConfig {
    match cfg {
        PruningConfig::Unstructured { sparsity } => match design.operand_a(*sparsity) {
            OperandSparsity::Dense => PruningConfig::Dense,
            OperandSparsity::Unstructured { sparsity } => PruningConfig::Unstructured { sparsity },
            OperandSparsity::Hss(p) => PruningConfig::Hss(p),
        },
        other => other.clone(),
    }
}

impl SweepContext {
    /// Runs the §7.1.2 co-design search: evaluates every
    /// [`codesign_space`] candidate for `design` on `model` — surrogate
    /// accuracy loss plus whole-network EDP normalized to the dense TC —
    /// in parallel across the context's pool, and returns the supported
    /// points with their Pareto front and the lowest-EDP point whose loss
    /// stays within `budget` metric points.
    ///
    /// The outcome is byte-identical for any worker count, and repeated
    /// queries replay from the shared caches (per-layer eval memo +
    /// retention memo).
    pub fn codesign(&self, design: DesignId, model: &DnnModel, budget: f64) -> SearchOutcome {
        let candidates = candidates(design);
        let tc_edp = self
            .eval_network(DesignId::Tc, model, &PruningConfig::Dense)
            .edp()
            .expect("TC runs dense");

        // One cell per candidate: loss + network aggregates, fanned out
        // across the pool (nested layer fan-out runs inline on workers).
        // Neighboring candidates differ only in operand A's descriptor, so
        // the design fingerprint is hoisted out of the whole grid.
        let accelerator = design.build();
        let fingerprint = Engine::fingerprint(accelerator.as_ref());
        let evals = self.map(&candidates, |cfg| {
            let loss = self.accuracy_loss(model, cfg);
            let network = Self::lower_model(design, model, cfg);
            let eval = self.evaluate_network_keyed(accelerator.as_ref(), &fingerprint, &network);
            match (eval.edp(), eval.energy_j(), eval.latency_s()) {
                (Some(edp), Some(energy_j), Some(latency_s)) => {
                    Some((loss, edp, energy_j, latency_s))
                }
                _ => None,
            }
        });

        let mut points: Vec<SearchPoint> = candidates
            .iter()
            .zip(evals)
            .filter_map(|(cfg, eval)| {
                let (loss, edp, energy_j, latency_s) = eval?;
                Some(SearchPoint {
                    config: cfg.clone(),
                    label: cfg.to_string(),
                    weight_sparsity: cfg.sparsity(),
                    loss,
                    edp: edp / tc_edp,
                    energy_j,
                    latency_s,
                    on_front: false,
                    within_budget: loss <= budget,
                })
            })
            .collect();
        let flags = pareto_front_flags(&points, |p| (p.loss, p.edp));
        for (p, on) in points.iter_mut().zip(flags) {
            p.on_front = on;
        }
        // Budget best: lowest EDP within budget, ties to lower loss then
        // enumeration order — always a frontier point when one exists.
        let best = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.within_budget)
            .min_by(|(ia, a), (ib, b)| {
                a.edp
                    .total_cmp(&b.edp)
                    .then(a.loss.total_cmp(&b.loss))
                    .then(ia.cmp(ib))
            })
            .map(|(i, _)| i);

        SearchOutcome {
            design: design.name().to_string(),
            model: model.name.clone(),
            metric: model.metric,
            budget,
            candidates: candidates.len(),
            unsupported: candidates.len() - points.len(),
            points,
            best,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_models::zoo;
    use hl_sim::pareto::dominates;

    #[test]
    fn space_walks_the_degenerate_extremes() {
        let space = codesign_space("DSTC").unwrap();
        // The fully-pruned extreme survives resolution on unstructured
        // hardware — the forcing function for the density-0 hardening.
        assert!(space
            .iter()
            .any(|c| matches!(c, PruningConfig::Unstructured { sparsity } if *sparsity == 1.0)));
        // Deep (3-rank) stacks and dense G==H ranks are present.
        assert!(space
            .iter()
            .any(|c| matches!(c, PruningConfig::Hss(p) if p.rank_count() == 3)));
        // Labels are unique after dedup.
        let mut labels: Vec<String> = space.iter().map(|c| c.to_string()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), space.len());
        assert!(codesign_space("TPU").is_err());
    }

    #[test]
    fn resolution_codesigns_unstructured_degrees() {
        // On HighLight an abstract 75% degree becomes the family pattern…
        let cfg = resolve_candidate(
            DesignId::HighLight,
            &PruningConfig::Unstructured { sparsity: 0.75 },
        );
        assert!(matches!(&cfg, PruningConfig::Hss(p) if (p.density_f64() - 0.25).abs() < 1e-12));
        // …while DSTC keeps it unstructured and degree 0 is dense.
        assert!(matches!(
            resolve_candidate(
                DesignId::Dstc,
                &PruningConfig::Unstructured { sparsity: 0.75 }
            ),
            PruningConfig::Unstructured { .. }
        ));
        assert_eq!(
            resolve_candidate(
                DesignId::Stc,
                &PruningConfig::Unstructured { sparsity: 0.0 }
            ),
            PruningConfig::Dense
        );
    }

    #[test]
    fn search_front_is_nondominated_and_best_fits_budget() {
        let ctx = SweepContext::new();
        let model = zoo::deit_small();
        let out = ctx.codesign(DesignId::HighLight, &model, 0.5);
        assert!(!out.points.is_empty());
        assert_eq!(out.candidates - out.unsupported, out.points.len());
        let front = out.front();
        assert!(!front.is_empty());
        for a in &front {
            for b in &out.points {
                assert!(
                    !dominates((b.loss, b.edp), (a.loss, a.edp)),
                    "front point {} dominated by {}",
                    a.label,
                    b.label
                );
            }
        }
        let best = out.best_point().expect("dense always fits the budget");
        assert!(best.within_budget && best.on_front);
        for p in &out.points {
            if p.within_budget {
                assert!(best.edp <= p.edp, "{} beats best", p.label);
            }
        }
    }

    #[test]
    fn degenerate_candidates_surface_as_unsupported_not_panics() {
        let ctx = SweepContext::new();
        let model = zoo::transformer_big();
        for design in [DesignId::Dstc, DesignId::S2ta, DesignId::Dsso] {
            let out = ctx.codesign(design, &model, 1.0);
            assert!(out.unsupported > 0, "{design} must reject some extremes");
        }
    }
}
