//! The HighLight accelerator model — the paper's primary contribution.
//!
//! [`HighLight`] is an analytical model of the §5–6 design: 1024 MACs in 4
//! PE arrays, a 256 KB + 64 KB (data + metadata) GLB, 4×2 KB register files,
//! and modularized sparse acceleration features (SAFs):
//!
//! - **Rank1 skipping** (PE-array level): only non-empty Rank1 blocks of the
//!   HSS operand A are distributed to PEs, with a VFMU providing
//!   variable-length streaming access over aligned GLB rows;
//! - **Rank0 skipping** (PE level): per-PE muxes select the operand-B words
//!   matching the Rank0 CPs, keeping all `G0` MACs busy;
//! - **Gating + compression** for unstructured sparse operand B: ineffectual
//!   MACs idle (energy savings, no cycle change) and B crosses DRAM/GLB
//!   compressed with the Fig. 12 three-level metadata.
//!
//! Supported operand A patterns: `C1(4:{4≤H≤8})→C0(2:{2≤H≤4})` plus dense
//! (Table 3) — 75% max weight sparsity in 15 exact degrees. Total speedup is
//! the product of per-rank `H/G` (perfect balance, §6.3), so latency scales
//! exactly with the pattern density.
//!
//! [`Dsso`] models the §7.5 dual-structured-sparse-operand variant: both
//! operands carry HSS with *alternating dense ranks*
//! (A `C1(dense)→C0(2:4)`, B `C1(2:{2≤H≤8})→C0(dense)`), so each rank's SAF
//! performs only dense–sparse intersections and dual-side speedup comes with
//! perfect balance.
//!
//! Functional correctness of the modeled dataflow is established by
//! [`hl_sim::micro`], whose cycle counts this model reproduces exactly
//! (see `tests/micro_vs_analytic.rs` at the workspace root).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dsso;
mod highlight;

pub use dsso::Dsso;
pub use highlight::{HighLight, HighLightConfig};

#[cfg(test)]
mod tests {
    use super::*;

    /// `Send + Sync` is required by the [`hl_sim::Accelerator`] supertrait
    /// so the engine can evaluate HighLight/DSSO cells from its worker pool.
    #[test]
    fn models_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HighLight>();
        assert_send_sync::<Dsso>();
        assert_send_sync::<HighLightConfig>();
    }
}
