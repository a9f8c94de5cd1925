use hl_arch::components::{MacUnit, MuxTree, RegFile, Sram, Vfmu};
use hl_arch::{AreaBreakdown, Comp, Tech};
use hl_sim::analytic::{meta_words, Accountant, Resources, TrafficModel};
use hl_sim::{Accelerator, EvalResult, OperandSparsity, Unsupported, Workload};
use hl_sparsity::families::{highlight_a, HssFamily};
use hl_sparsity::HssPattern;
use hl_tensor::format::hss_metadata_bits_per_value;

/// Configuration of the HighLight accelerator (defaults follow Table 4 and
/// Table 3).
#[derive(Debug, Clone)]
pub struct HighLightConfig {
    /// Technology table.
    pub tech: Tech,
    /// Resource allocation (1024 MACs, 256+64 KB GLB, 8 KB RF).
    pub resources: Resources,
    /// Supported operand A pattern family.
    pub a_family: HssFamily,
    /// Apply the paper's conservative estimation: a 25%-sparse operand B is
    /// exploited as if 20% sparse (Fig. 13 footnote).
    pub conservative_b: bool,
    /// Enable the Rank1 skipping SAF (ablation hook; on in the paper).
    pub rank1_saf: bool,
    /// Enable the Rank0 skipping SAF (ablation hook; on in the paper).
    pub rank0_saf: bool,
    /// Enable operand-B gating + compression (ablation hook; on in the paper).
    pub b_gating: bool,
}

impl Default for HighLightConfig {
    fn default() -> Self {
        Self {
            tech: Tech::n65(),
            resources: Resources::tc_class(256.0, 64.0),
            a_family: highlight_a(),
            conservative_b: true,
            rank1_saf: true,
            rank0_saf: true,
            b_gating: true,
        }
    }
}

/// The HighLight accelerator analytical model (see crate docs).
#[derive(Debug, Clone)]
pub struct HighLight {
    config: HighLightConfig,
    name: String,
}

impl Default for HighLight {
    fn default() -> Self {
        Self::new(HighLightConfig::default())
    }
}

impl HighLight {
    /// Creates a model from a configuration.
    pub fn new(config: HighLightConfig) -> Self {
        Self {
            config,
            name: "HighLight".to_string(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &HighLightConfig {
        &self.config
    }

    /// Resolves how operand A is processed: the exploited pattern (`None`
    /// means dense processing) — unsupported structured patterns fall back
    /// to an equal-density family member when one exists.
    fn resolve_a(&self, a: &OperandSparsity) -> Result<Option<HssPattern>, Unsupported> {
        match a {
            OperandSparsity::Dense => Ok(None),
            // Unstructured zeros carry no structure the SAFs can exploit;
            // the operand is processed as dense values (functionally exact).
            OperandSparsity::Unstructured { .. } => Ok(None),
            OperandSparsity::Hss(p) => {
                if p.is_dense() {
                    return Ok(None);
                }
                if !self.config.rank1_saf && !self.config.rank0_saf {
                    return Ok(None); // all SAFs ablated: dense processing
                }
                if self.config.a_family.supports(p) {
                    return Ok(Some(p.clone()));
                }
                // Same density expressible in the supported family ⇒ the
                // model would be pruned to that member instead.
                let density = p.density_f64();
                let near = self.config.a_family.closest_to_density(density);
                if (near.density_f64() - density).abs() < 1e-9 {
                    Ok(Some(near))
                } else {
                    Err(Unsupported {
                        design: self.name.clone(),
                        reason: format!(
                            "operand A pattern {p} (density {:.3}) not representable in {}",
                            p.density_f64(),
                            self.supported_patterns()
                        ),
                    })
                }
            }
        }
    }

    /// The exploited operand-B sparsity (Fig. 13 footnote: 25% → 20%).
    fn effective_b_sparsity(&self, b: &OperandSparsity) -> f64 {
        if !self.config.b_gating {
            return 0.0;
        }
        let s = b.sparsity();
        if self.config.conservative_b && (s - 0.25).abs() < 1e-9 {
            0.20
        } else {
            s
        }
    }
}

impl Accelerator for HighLight {
    fn name(&self) -> &str {
        &self.name
    }

    fn evaluate(&self, w: &Workload) -> Result<EvalResult, Unsupported> {
        // Guards the TrafficModel density assert: a fully-pruned operand B
        // (stored density 0) is Unsupported, not a worker panic.
        hl_sim::check_densities(self.name(), w)?;
        let cfg = &self.config;
        let pattern = self.resolve_a(&w.a)?;
        // Hierarchical skipping: cycle factor = pattern density, exactly
        // (perfect balance, §6.3). Rank-level ablations clamp the factor to
        // the product of enabled ranks only.
        let d_a = match &pattern {
            None => 1.0,
            Some(p) => {
                let mut f = 1.0;
                let ranks = p.ranks();
                if cfg.rank1_saf {
                    f *= f64::from(ranks[0].g) / f64::from(ranks[0].h);
                }
                if cfg.rank0_saf {
                    f *= f64::from(ranks[1].g) / f64::from(ranks[1].h);
                }
                f
            }
        };
        let macs = cfg.resources.macs as f64;
        let cycles = (w.dense_macs() * d_a / macs).ceil();

        let s_b = self.effective_b_sparsity(&w.b);
        let d_b = 1.0 - s_b;
        let b_compressed = s_b > 0.0;

        // Stored densities (what crosses memories).
        let a_stored = pattern.as_ref().map_or(1.0, |p| p.density_f64());
        let b_stored = if b_compressed { d_b } else { 1.0 };

        let traffic = TrafficModel::new(w.shape, a_stored, b_stored, &cfg.resources);
        let mut acc = Accountant::new(cfg.tech.clone(), cfg.resources);

        // Compute: gating idles MACs on ineffectual B operands (§6.4).
        let active_macs = w.dense_macs() * d_a * d_b;
        acc.macs(active_macs);
        // Partial sums: one RF read-modify-write per spatial-accum group per
        // cycle (matches the micro-simulator's 2 accesses/step).
        acc.rf(2.0 * w.dense_macs() * d_a / cfg.resources.spatial_accum as f64);

        // Data traffic.
        acc.glb(traffic.a_glb_words + traffic.b_glb_words + traffic.z_glb_words);
        acc.dram(traffic.a_dram_words + traffic.b_dram_words + traffic.z_dram_words);
        acc.noc(traffic.a_glb_words + traffic.b_glb_words);

        // Metadata traffic (the compression-format tax).
        if let Some(p) = &pattern {
            let ranks = p.ranks();
            let bits_per_value = hss_metadata_bits_per_value(ranks[0], ranks[1]);
            let a_meta = meta_words(w.shape.a_elems() as f64 * a_stored * bits_per_value);
            acc.glb_meta(a_meta * traffic.a_reuse);
            acc.dram(a_meta);
        }
        if b_compressed {
            // Three-level Fig. 12 metadata: ~6 bits per group, ~10 per
            // block end, 2 bits per nonzero (K = 1024-class workloads).
            let groups = w.shape.b_elems() as f64 / 32.0;
            let blocks = w.shape.b_elems() as f64 / 4.0;
            let b_meta =
                meta_words(groups * 6.0 + blocks * 10.0 + w.shape.b_elems() as f64 * d_b * 2.0);
            acc.glb_meta(b_meta * traffic.b_reuse);
            acc.dram(b_meta);
            // Output compression for the next layer (Fig. 10's unit).
            acc.compressor(w.shape.z_elems() as f64);
        }

        // SAF energy: every operand-B word streams through a VFMU; each
        // A-side MAC slot costs a Rank0 select, each A block a Rank1 select.
        if pattern.is_some() {
            acc.vfmu(Vfmu::new(8, 4), traffic.b_glb_words);
            if cfg.rank0_saf {
                acc.mux(Comp::MuxRank0, MuxTree::new(2, 4), w.dense_macs() * d_a);
            }
            if cfg.rank1_saf {
                acc.mux(
                    Comp::MuxRank1,
                    MuxTree::new(4, 8),
                    w.dense_macs() * d_a / 2.0,
                );
            }
        }

        Ok(EvalResult {
            design: self.name.clone(),
            workload: w.name.clone(),
            cycles,
            energy: acc.into_energy(),
        })
    }

    fn area(&self) -> AreaBreakdown {
        let t = &self.config.tech;
        let res = &self.config.resources;
        let mut a = AreaBreakdown::new();
        a.record(Comp::Mac, res.macs as f64 * MacUnit.area_um2(t));
        a.record(Comp::Glb, Sram::new(res.glb_kb).area_um2(t));
        a.record(Comp::GlbMeta, Sram::new(res.glb_meta_kb).area_um2(t));
        a.record(
            Comp::RegFile,
            4.0 * RegFile::new(res.rf_kb / 4.0).area_um2(t),
        );
        // SAFs: a Rank0 mux pair per PE (G0 = 2 MACs per PE), a Rank1 mux
        // block + VFMU per PE array (4 arrays).
        let pes = res.macs as f64 / 2.0;
        a.record(Comp::MuxRank0, pes * MuxTree::new(2, 4).area_um2(t));
        a.record(Comp::MuxRank1, 4.0 * MuxTree::new(4, 8).area_um2(t));
        a.record(Comp::Vfmu, 4.0 * Vfmu::new(8, 4).area_um2(t));
        a
    }

    fn supported_patterns(&self) -> String {
        "A: dense; C1(4:{4≤H≤8})→C0(2:{2≤H≤4}) | B: dense; unstructured".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_sparsity::Gh;
    use hl_tensor::GemmShape;

    fn hss(s: f64) -> OperandSparsity {
        OperandSparsity::Hss(highlight_a().closest_to_density(1.0 - s))
    }

    #[test]
    fn dense_workload_matches_dense_cycles() {
        let hl = HighLight::default();
        let w = Workload::synthetic(OperandSparsity::Dense, OperandSparsity::Dense);
        let r = hl.evaluate(&w).unwrap();
        assert_eq!(r.cycles, (1024.0f64.powi(3) / 1024.0).ceil());
        // No sparsity tax on a dense workload (dense-mode processing).
        assert_eq!(r.energy.sparsity_tax(), 0.0);
    }

    #[test]
    fn structured_a_gets_exact_speedup() {
        let hl = HighLight::default();
        let dense = hl
            .evaluate(&Workload::synthetic(
                OperandSparsity::Dense,
                OperandSparsity::Dense,
            ))
            .unwrap();
        for s in [0.5, 0.75] {
            let r = hl
                .evaluate(&Workload::synthetic(hss(s), OperandSparsity::Dense))
                .unwrap();
            let speedup = dense.cycles / r.cycles;
            assert!(
                (speedup - 1.0 / (1.0 - s)).abs() < 1e-6,
                "expected {}x speedup, got {speedup}",
                1.0 / (1.0 - s)
            );
        }
    }

    #[test]
    fn b_sparsity_saves_energy_not_cycles() {
        let hl = HighLight::default();
        let base = hl
            .evaluate(&Workload::synthetic(hss(0.5), OperandSparsity::Dense))
            .unwrap();
        let gated = hl
            .evaluate(&Workload::synthetic(
                hss(0.5),
                OperandSparsity::unstructured(0.5),
            ))
            .unwrap();
        assert_eq!(base.cycles, gated.cycles, "gating must not change cycles");
        assert!(gated.energy.total() < base.energy.total());
    }

    #[test]
    fn conservative_b_footnote() {
        let hl = HighLight::default();
        let w25 = Workload::synthetic(hss(0.5), OperandSparsity::unstructured(0.25));
        let r25 = hl.evaluate(&w25).unwrap();
        let cfg = HighLightConfig {
            conservative_b: false,
            ..HighLightConfig::default()
        };
        let exact = HighLight::new(cfg).evaluate(&w25).unwrap();
        // Conservative estimation exploits less B sparsity -> more energy.
        assert!(r25.energy.total() > exact.energy.total());
    }

    #[test]
    fn unstructured_a_processed_densely() {
        let hl = HighLight::default();
        let r = hl
            .evaluate(&Workload::synthetic(
                OperandSparsity::unstructured(0.75),
                OperandSparsity::Dense,
            ))
            .unwrap();
        let dense = hl
            .evaluate(&Workload::synthetic(
                OperandSparsity::Dense,
                OperandSparsity::Dense,
            ))
            .unwrap();
        assert_eq!(r.cycles, dense.cycles);
    }

    #[test]
    fn unrepresentable_pattern_is_unsupported() {
        let hl = HighLight::default();
        // 7:8 density (12.5% sparsity) is not in the family.
        let p = OperandSparsity::Hss(HssPattern::one_rank(Gh::new(7, 8)));
        assert!(hl
            .evaluate(&Workload::synthetic(p, OperandSparsity::Dense))
            .is_err());
        // Equal-density fallback: one-rank 1:4 maps to a two-rank member.
        let q = OperandSparsity::Hss(HssPattern::one_rank(Gh::new(1, 4)));
        assert!(hl
            .evaluate(&Workload::synthetic(q, OperandSparsity::Dense))
            .is_ok());
    }

    #[test]
    fn saf_area_fraction_is_small() {
        let hl = HighLight::default();
        let area = hl.area();
        let saf = area.get(Comp::MuxRank0) + area.get(Comp::MuxRank1) + area.get(Comp::Vfmu);
        let frac = saf / area.total();
        assert!(
            frac < 0.12,
            "SAF area fraction should be small, got {frac:.3}"
        );
        assert!(frac > 0.01, "SAF area must be accounted, got {frac:.4}");
    }

    #[test]
    fn ablation_hooks_reduce_speedup() {
        let cfg = HighLightConfig {
            rank1_saf: false,
            ..HighLightConfig::default()
        };
        let hl = HighLight::new(cfg);
        let w = Workload::synthetic(hss(0.75), OperandSparsity::Dense);
        let r = hl.evaluate(&w).unwrap();
        // Only rank0's 2x remains out of the 4x.
        let dense = hl
            .evaluate(&Workload::synthetic(
                OperandSparsity::Dense,
                OperandSparsity::Dense,
            ))
            .unwrap();
        assert!((dense.cycles / r.cycles - 2.0).abs() < 1e-9);
    }

    #[test]
    fn small_shapes_round_cycles_up() {
        let hl = HighLight::default();
        let w = Workload::new(
            "tiny",
            GemmShape::new(8, 32, 8),
            OperandSparsity::Dense,
            OperandSparsity::Dense,
        );
        let r = hl.evaluate(&w).unwrap();
        assert_eq!(r.cycles, 2.0); // 2048 MACs / 1024
    }
}
