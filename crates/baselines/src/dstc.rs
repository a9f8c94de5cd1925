use std::fmt;

use hl_arch::components::{MacUnit, PrefixSum, RegFile, Sram};
use hl_arch::{AreaBreakdown, Comp, Tech};
use hl_sim::analytic::{meta_words, Accountant, Resources, TrafficModel};
use hl_sim::balance::BinomialTable;
use hl_sim::{Accelerator, EvalResult, OperandSparsity, Unsupported, Workload};

/// The DSTC-like baseline (paper §7.1.1): dual-sided unstructured sparse
/// with an outer-product dataflow.
///
/// DSTC exploits *any* sparsity degree on both operands (very high
/// flexibility) but pays for it twice (§2.2.1, §7.2):
///
/// - **dataflow tax**: every effectual partial product performs a
///   read-modify-write merge in a large accumulation buffer — traffic that
///   structured inner-product designs keep in cheap registers;
/// - **imbalance**: nonzero counts per sub-tensor are random, so the
///   32-wide compute columns only balance perfectly when occupancy is a
///   multiple of 32; the expected utilization comes from the tile's
///   [`BinomialTable`], built once with the model.
#[derive(Clone)]
pub struct Dstc {
    tech: Tech,
    resources: Resources,
    /// Compute-column width the workload must balance across.
    lanes: usize,
    /// Sub-tensor tile positions considered per balancing decision.
    tile: usize,
    /// Accumulation-buffer capacity in KB (holds output partial matrices).
    accum_kb: f64,
    /// `ln C(tile, k)`, derived from `tile`: every evaluation reuses it.
    balance: BinomialTable,
}

/// The configuration alone, exactly as a derived impl would print it: the
/// balance table is derived from `tile`, so it stays out of the design's
/// `Debug` fingerprint (cache keys and snapshot fingerprints read it).
impl fmt::Debug for Dstc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Dstc")
            .field("tech", &self.tech)
            .field("resources", &self.resources)
            .field("lanes", &self.lanes)
            .field("tile", &self.tile)
            .field("accum_kb", &self.accum_kb)
            .finish()
    }
}

impl Default for Dstc {
    fn default() -> Self {
        Self::new(Tech::n65())
    }
}

impl Dstc {
    /// Creates the model with the Table 4 sparse allocation.
    pub fn new(tech: Tech) -> Self {
        let tile = 64;
        Self {
            tech,
            resources: Resources::tc_class(256.0, 64.0),
            lanes: 32,
            tile,
            accum_kb: 64.0,
            balance: BinomialTable::new(tile),
        }
    }

    /// Densities from any descriptor — unstructured hardware runs them all.
    fn density(op: &OperandSparsity) -> f64 {
        op.density()
    }

    /// The expected utilization of one operand stream's nonzeros spread
    /// over the 32-wide columns (1.0 at dense).
    fn utilization(&self, op: &OperandSparsity) -> f64 {
        self.balance
            .balance(Self::density(op), self.lanes)
            .utilization
    }

    /// Evaluates `w`, whose densities are nondegenerate, given the
    /// utilizations of operands A and B.
    fn evaluate_balanced(&self, w: &Workload, u_a: f64, u_b: f64) -> EvalResult {
        let d_a = Self::density(&w.a);
        let d_b = Self::density(&w.b);
        let macs = self.resources.macs as f64;
        let partial_products = w.dense_macs() * d_a * d_b;

        // The two distribution axes are interleaved in time, not compounded;
        // the geometric mean keeps single-side behaviour exact.
        let utilization = (u_a * u_b).sqrt();
        let cycles = (partial_products / (macs * utilization)).ceil();

        // Densities are in (0, 1] after the caller's guard, so the traffic
        // model cannot reject them.
        let traffic = TrafficModel::new(w.shape, d_a, d_b, &self.resources);
        let mut acc = Accountant::new(self.tech.clone(), self.resources);
        acc.macs(partial_products);
        // Outer-product merge: read-modify-write plus merge-network staging
        // per partial product in the accumulation buffer — the dominant
        // dataflow tax (Fig. 16a).
        acc.accum_buffer(self.accum_kb, 3.0 * partial_products);
        acc.glb(traffic.a_glb_words + traffic.b_glb_words + traffic.z_glb_words);
        acc.dram(traffic.a_dram_words + traffic.b_dram_words + traffic.z_dram_words);
        acc.noc(traffic.a_glb_words + traffic.b_glb_words);

        // CSR-style metadata on both operands (~12 bits/nonzero for
        // 1024-class dimensions) plus coordinate/merge control per product.
        if d_a < 1.0 {
            let a_meta = meta_words(w.shape.a_elems() as f64 * d_a * 12.0);
            acc.glb_meta(a_meta * traffic.a_reuse);
            acc.dram(a_meta);
        }
        if d_b < 1.0 {
            let b_meta = meta_words(w.shape.b_elems() as f64 * d_b * 12.0);
            acc.glb_meta(b_meta * traffic.b_reuse);
            acc.dram(b_meta);
            acc.compressor(w.shape.z_elems() as f64);
        }
        if d_a < 1.0 || d_b < 1.0 {
            // Coordinate computation / merge scheduling per column step.
            acc.prefix_sum(PrefixSum::new(self.lanes as u32), partial_products / macs);
        }

        EvalResult {
            design: "DSTC".into(),
            workload: w.name.clone(),
            cycles,
            energy: acc.into_energy(),
        }
    }
}

impl Accelerator for Dstc {
    fn name(&self) -> &str {
        "DSTC"
    }

    fn evaluate(&self, w: &Workload) -> Result<EvalResult, Unsupported> {
        // A fully-pruned operand would zero both the partial-product count
        // and the balance utilization, making `cycles` 0/0 = NaN.
        hl_sim::check_densities(self.name(), w)?;
        // Workload balance: both operand streams distribute their nonzeros
        // over 32-wide columns; utilization is the product of per-side
        // binomial expectations.
        let (u_a, u_b) = (self.utilization(&w.a), self.utilization(&w.b));
        Ok(self.evaluate_balanced(w, u_a, u_b))
    }

    /// The swapped workload has the same two densities, so both
    /// orientations share one pair of balance utilizations (and one
    /// density check) instead of computing each twice.
    fn evaluate_best(&self, w: &Workload) -> Result<EvalResult, Unsupported> {
        hl_sim::check_densities(self.name(), w)?;
        let (u_a, u_b) = (self.utilization(&w.a), self.utilization(&w.b));
        hl_sim::best_of(
            Ok(self.evaluate_balanced(w, u_a, u_b)),
            Ok(self.evaluate_balanced(&w.swapped(), u_b, u_a)),
        )
    }

    fn area(&self) -> AreaBreakdown {
        let t = &self.tech;
        let res = &self.resources;
        let mut a = AreaBreakdown::new();
        a.record(Comp::Mac, res.macs as f64 * MacUnit.area_um2(t));
        a.record(Comp::Glb, Sram::new(res.glb_kb).area_um2(t));
        a.record(Comp::GlbMeta, Sram::new(res.glb_meta_kb).area_um2(t));
        a.record(
            Comp::RegFile,
            4.0 * RegFile::new(res.rf_kb / 4.0).area_um2(t),
        );
        a.record(Comp::AccumBuf, Sram::new(self.accum_kb).area_um2(t));
        a.record(
            Comp::PrefixSum,
            res.macs as f64 / self.lanes as f64 * PrefixSum::new(self.lanes as u32).area_um2(t),
        );
        a
    }

    fn supported_patterns(&self) -> String {
        "A: dense; unstructured | B: dense; unstructured".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_prints_the_configuration_like_a_derived_impl() {
        /// The configuration fields alone, printed by a derived `Debug`.
        #[derive(Debug)]
        #[expect(dead_code, reason = "the fields are only printed")]
        struct Dstc {
            tech: Tech,
            resources: Resources,
            lanes: usize,
            tile: usize,
            accum_kb: f64,
        }
        let d = super::Dstc::default();
        let mirror = Dstc {
            tech: d.tech.clone(),
            resources: d.resources,
            lanes: d.lanes,
            tile: d.tile,
            accum_kb: d.accum_kb,
        };
        assert_eq!(format!("{d:?}"), format!("{mirror:?}"));
        assert_eq!(format!("{d:#?}"), format!("{mirror:#?}"));
        assert_eq!(d.balance, BinomialTable::new(d.tile));
    }

    #[test]
    fn evaluate_best_answers_what_both_orientations_would() {
        use hl_sparsity::{Gh, HssPattern};
        let d = Dstc::default();
        let operands = [
            OperandSparsity::Dense,
            OperandSparsity::unstructured(0.3),
            OperandSparsity::unstructured(0.875),
            OperandSparsity::unstructured(1.0),
            OperandSparsity::Hss(HssPattern::two_rank(Gh::new(4, 8), Gh::new(2, 4))),
        ];
        for a in &operands {
            for b in &operands {
                for (m, k, n) in [(64, 1024, 7), (3, 9, 512)] {
                    let mut w = Workload::synthetic(a.clone(), b.clone());
                    (w.shape.m, w.shape.k, w.shape.n) = (m, k, n);
                    let reference = hl_sim::best_of(d.evaluate(&w), d.evaluate(&w.swapped()));
                    // `Debug` prints every f64 in shortest round-trip form.
                    assert_eq!(
                        format!("{:?}", d.evaluate_best(&w)),
                        format!("{reference:?}"),
                        "{w}"
                    );
                }
            }
        }
    }

    #[test]
    fn exploits_both_operands_for_speed() {
        let d = Dstc::default();
        let dense = d
            .evaluate(&Workload::synthetic(
                OperandSparsity::Dense,
                OperandSparsity::Dense,
            ))
            .unwrap();
        let sparse = d
            .evaluate(&Workload::synthetic(
                OperandSparsity::unstructured(0.5),
                OperandSparsity::unstructured(0.5),
            ))
            .unwrap();
        let speedup = dense.cycles / sparse.cycles;
        // 4x work reduction eroded by imbalance: between 2x and 4x.
        assert!(speedup > 2.0 && speedup < 4.0, "speedup {speedup}");
    }

    #[test]
    fn dense_pays_dataflow_tax() {
        let d = Dstc::default();
        let tc_like_energy = {
            use crate::tc::Tc;
            Tc::default()
                .evaluate(&Workload::synthetic(
                    OperandSparsity::Dense,
                    OperandSparsity::Dense,
                ))
                .unwrap()
                .energy
                .total()
        };
        let r = d
            .evaluate(&Workload::synthetic(
                OperandSparsity::Dense,
                OperandSparsity::Dense,
            ))
            .unwrap();
        // Accumulation buffer makes dense DSTC several times more expensive.
        let ratio = r.energy.total() / tc_like_energy;
        assert!(ratio > 1.5, "dense-workload tax ratio {ratio}");
        assert!(r.energy.get(Comp::AccumBuf) > r.energy.get(Comp::Mac));
    }

    #[test]
    fn utilization_below_one_when_sparse() {
        let d = Dstc::default();
        let r = d
            .evaluate(&Workload::synthetic(
                OperandSparsity::unstructured(0.75),
                OperandSparsity::Dense,
            ))
            .unwrap();
        // Work reduction is 4x but cycles reflect <1 utilization.
        let dense_cycles = 1024.0f64.powi(3) / 1024.0;
        let speedup = dense_cycles / r.cycles;
        assert!(speedup < 4.0 && speedup > 1.5, "speedup {speedup}");
    }

    #[test]
    fn runs_structured_patterns_as_unstructured() {
        use hl_sparsity::{Gh, HssPattern};
        let d = Dstc::default();
        let p = OperandSparsity::Hss(HssPattern::one_rank(Gh::new(2, 4)));
        let r = d
            .evaluate(&Workload::synthetic(p, OperandSparsity::Dense))
            .unwrap();
        assert!(r.cycles < 1024.0f64.powi(3) / 1024.0);
    }
}
