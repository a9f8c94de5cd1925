use hl_arch::components::{MacUnit, MuxTree, RegFile, Sram};
use hl_arch::{AreaBreakdown, Comp, Tech};
use hl_sim::analytic::{meta_words, Accountant, Resources, TrafficModel};
use hl_sim::{Accelerator, EvalResult, OperandSparsity, Unsupported, Workload};
use hl_sparsity::families::{s2ta_a, s2ta_b};

/// The S2TA-like baseline (paper §7.1.1): dual-sided structured sparse.
///
/// Operand A must carry `C0({G≤4}:8)` — density at most 1/2, so **purely
/// dense layers cannot be processed** (§7.3) — and operand B `C0({G≤8}:8)`.
/// The weight path has a fixed 4 lanes per 8-block, so the speedup is a
/// fixed 2× whenever A is supported ("does not fully exploit the available
/// speedup", §7.2); the dynamically-structured activation path contributes
/// *efficiency* gains only (gated MACs). The two paths are heterogeneous
/// (static weight DBB vs on-line activation DBB), so operands cannot be
/// swapped. Medium tax: 8-wide muxing on both operands, dual metadata
/// streams, the dynamic activation-structuring unit, and a small 4 KB
/// register-file budget (64×64 B, Table 4) that reduces on-chip reuse.
#[derive(Debug, Clone)]
pub struct S2ta {
    tech: Tech,
    resources: Resources,
}

impl Default for S2ta {
    fn default() -> Self {
        Self::new(Tech::n65())
    }
}

impl S2ta {
    /// Creates the model with the Table 4 allocation (64×16 MACs, 64×64 B RF).
    pub fn new(tech: Tech) -> Self {
        Self {
            tech,
            resources: Resources {
                macs: 1024,
                glb_kb: 256.0,
                glb_meta_kb: 64.0,
                rf_kb: 4.0,
                spatial_accum: 4,
            },
        }
    }

    fn resolve_a(&self, a: &OperandSparsity) -> Result<f64, Unsupported> {
        let fail = |reason: &str| {
            Err(Unsupported {
                design: "S2TA".into(),
                reason: reason.to_string(),
            })
        };
        match a {
            OperandSparsity::Dense => {
                fail("cannot process purely dense operand A (requires {G≤4}:8)")
            }
            OperandSparsity::Unstructured { .. } => fail("operand A must be {G≤4}:8 structured"),
            OperandSparsity::Hss(p) => {
                if s2ta_a().supports(p) {
                    Ok(p.density_f64())
                } else {
                    fail("operand A pattern outside {G≤4}:8")
                }
            }
        }
    }

    fn resolve_b(&self, b: &OperandSparsity) -> Result<f64, Unsupported> {
        match b {
            OperandSparsity::Dense => Ok(1.0), // 8:8 member
            OperandSparsity::Unstructured { .. } => Err(Unsupported {
                design: "S2TA".into(),
                reason: "operand B must be {G≤8}:8 structured".to_string(),
            }),
            OperandSparsity::Hss(p) => {
                if p.is_dense() || s2ta_b().supports(p) {
                    Ok(p.density_f64())
                } else {
                    Err(Unsupported {
                        design: "S2TA".into(),
                        reason: "operand B pattern outside {G≤8}:8".to_string(),
                    })
                }
            }
        }
    }
}

impl Accelerator for S2ta {
    fn name(&self) -> &str {
        "S2TA"
    }

    fn evaluate(&self, w: &Workload) -> Result<EvalResult, Unsupported> {
        hl_sim::check_densities(self.name(), w)?;
        let d_a = self.resolve_a(&w.a)?;
        let d_b = self.resolve_b(&w.b)?;
        let macs = self.resources.macs as f64;
        // Fixed 4 weight lanes per 8-block: exactly 2x whenever supported,
        // regardless of how sparse A really is (G < 4 lanes carry zeros).
        let cycle_factor = 0.5;
        let cycles = (w.dense_macs() * cycle_factor / macs).ceil();

        // Four lanes of eight are fetched and stored per weight block.
        let a_fetched = 0.5;
        let traffic = TrafficModel::new(w.shape, a_fetched, d_b, &self.resources);
        let mut acc = Accountant::new(self.tech.clone(), self.resources);
        // Activation-side gating saves MAC energy only (no cycle change).
        let effectual = w.dense_macs() * cycle_factor * d_b;
        let _ = d_a; // sparser-than-1/2 weights yield no extra benefit
        acc.macs(effectual);
        // Variable-occupancy DBB blocks prevent full spatial reduction: half
        // the psum traffic is staged through the (tiny, 64 B/PE) RFs again.
        acc.rf(4.0 * w.dense_macs() * cycle_factor / self.resources.spatial_accum as f64);
        acc.glb(traffic.a_glb_words + traffic.b_glb_words + traffic.z_glb_words);
        acc.dram(traffic.a_dram_words + traffic.b_dram_words + traffic.z_dram_words);
        acc.noc(traffic.a_glb_words + traffic.b_glb_words);
        // Dual metadata: 3-bit CPs (H = 8) per stored value on both sides.
        let a_meta = meta_words(w.shape.a_elems() as f64 * a_fetched * 3.0);
        let b_meta = meta_words(w.shape.b_elems() as f64 * d_b * 3.0);
        acc.glb_meta(a_meta * traffic.a_reuse + b_meta * traffic.b_reuse);
        acc.dram(a_meta + b_meta);
        // Medium muxing tax: 8-to-1 selection on both operands per MAC, plus
        // the dynamic activation structuring unit.
        acc.mux(Comp::MuxRank0, MuxTree::new(4, 8), effectual);
        acc.mux(Comp::MuxRank1, MuxTree::new(8, 8), effectual);
        acc.compressor(w.shape.z_elems() as f64);

        Ok(EvalResult {
            design: "S2TA".into(),
            workload: w.name.clone(),
            cycles,
            energy: acc.into_energy(),
        })
    }

    fn area(&self) -> AreaBreakdown {
        let t = &self.tech;
        let res = &self.resources;
        let mut a = AreaBreakdown::new();
        a.record(Comp::Mac, res.macs as f64 * MacUnit.area_um2(t));
        a.record(Comp::Glb, Sram::new(res.glb_kb).area_um2(t));
        a.record(Comp::GlbMeta, Sram::new(res.glb_meta_kb).area_um2(t));
        a.record(Comp::RegFile, 64.0 * RegFile::new(0.0625).area_um2(t));
        a.record(
            Comp::MuxRank0,
            res.macs as f64 / 4.0 * MuxTree::new(4, 8).area_um2(t),
        );
        a.record(
            Comp::MuxRank1,
            res.macs as f64 / 8.0 * MuxTree::new(8, 8).area_um2(t),
        );
        a
    }

    fn supported_patterns(&self) -> String {
        "A: C0({G≤4}:8) | B: C0({G≤8}:8)".to_string()
    }

    fn swappable(&self) -> bool {
        false // heterogeneous weight/activation DBB paths (see type docs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_sparsity::{Gh, HssPattern};

    fn gh8(g: u32) -> OperandSparsity {
        OperandSparsity::Hss(HssPattern::one_rank(Gh::new(g, 8)))
    }

    #[test]
    fn rejects_dense_a() {
        let s = S2ta::default();
        let err = s
            .evaluate(&Workload::synthetic(
                OperandSparsity::Dense,
                OperandSparsity::Dense,
            ))
            .unwrap_err();
        assert!(err.reason.contains("dense"));
    }

    #[test]
    fn speedup_is_fixed_2x_when_supported() {
        let s = S2ta::default();
        let dense_cycles = 1024.0f64.powi(3) / 1024.0;
        for g in [1u32, 2, 4] {
            let r = s.evaluate(&Workload::synthetic(gh8(g), gh8(4))).unwrap();
            assert_eq!(
                r.cycles,
                dense_cycles / 2.0,
                "G={g}: fixed 4-lane weight path"
            );
        }
    }

    #[test]
    fn activation_sparsity_saves_energy_not_cycles() {
        let s = S2ta::default();
        let b_dense = s
            .evaluate(&Workload::synthetic(gh8(4), OperandSparsity::Dense))
            .unwrap();
        let b_sparse = s.evaluate(&Workload::synthetic(gh8(4), gh8(2))).unwrap();
        assert_eq!(b_dense.cycles, b_sparse.cycles);
        assert!(b_sparse.energy.total() < b_dense.energy.total());
    }

    #[test]
    fn operand_paths_are_not_swappable() {
        let s = S2ta::default();
        assert!(!s.swappable());
        // evaluate_best must NOT rescue a dense-A workload via swapping.
        let w = Workload::synthetic(OperandSparsity::Dense, gh8(4));
        assert!(s.evaluate_best(&w).is_err());
    }

    #[test]
    fn tax_is_medium() {
        let s = S2ta::default();
        let r = s.evaluate(&Workload::synthetic(gh8(4), gh8(8))).unwrap();
        let frac = r.energy.sparsity_tax() / r.energy.total();
        assert!(
            frac > 0.02 && frac < 0.35,
            "S2TA tax should be medium, got {frac:.3}"
        );
    }

    #[test]
    fn rejects_unstructured_operands() {
        let s = S2ta::default();
        assert!(s
            .evaluate(&Workload::synthetic(
                gh8(4),
                OperandSparsity::unstructured(0.5)
            ))
            .is_err());
        assert!(s
            .evaluate(&Workload::synthetic(
                OperandSparsity::unstructured(0.5),
                OperandSparsity::Dense
            ))
            .is_err());
    }
}
