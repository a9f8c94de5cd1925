//! Hardware component models: energy, area, and the sparsity tax.
//!
//! This crate is the reproduction's substitute for the paper's Accelergy
//! 65 nm estimation plug-ins (§7.1.3): a technology table ([`Tech`]) plus
//! per-component models ([`components`]) that turn *action counts* into
//! energy and *instances* into area.
//!
//! Absolute joules are not the claim — the paper's conclusions rest on the
//! well-established *ratios* between component access energies
//! (RF : GLB : DRAM ≈ 1 : 6 : 200 per word at equal width, MACs a few pJ,
//! muxing far below a MAC). Those ratios are what [`Tech::n65`] encodes; see
//! `DESIGN.md` §5 for the calibration argument.
//!
//! The *sparsity tax* of §5.2 appears here concretely: a skipping SAF for a
//! `G:H` family costs `G` muxes of `Hmax`-to-1, i.e. energy and area that
//! grow linearly with `Hmax` ([`components::MuxTree`]); unstructured
//! intersection hardware costs a prefix-sum network
//! ([`components::PrefixSum`], SparTen's 55%-of-PE-area logic); and
//! outer-product dataflows pay for a large accumulation buffer (modelled as
//! an [`components::Sram`] with high access counts).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod components;

mod breakdown;
mod tech;

pub use breakdown::{AreaBreakdown, Comp, EnergyBreakdown, PackedEnergy};
pub use tech::Tech;
