//! Tensors, workloads, and compression formats for the HighLight reproduction.
//!
//! This crate provides the *operational* tensor layer underneath the
//! fibertree *specification* layer ([`hl_fibertree`]):
//!
//! - [`Matrix`]: dense row-major `f32` matrices with a reference GEMM — every
//!   accelerator model in the workspace is validated against it;
//! - [`GemmShape`]: matrix-multiplication workload shapes (paper §6.1
//!   processes all DNN layers as matrix multiplications);
//! - [`conv`]: convolution layers and their Toeplitz (im2col) expansion into
//!   GEMMs (paper Fig. 8a);
//! - [`gen`]: random workload generators producing dense, unstructured
//!   sparse, `G:H` structured, and hierarchically (HSS) structured matrices;
//! - [`format`]: the paper's storage formats — the hierarchical offset-based
//!   coordinate-payload (CP) compression for HSS operand A (Fig. 9) and the
//!   three-level metadata format for unstructured sparse operand B
//!   (Fig. 12a) — with exact metadata bit accounting;
//! - [`bits`]: the bit-packed occupancy words the conformance checks and
//!   encoders use to process 64 positions per popcount instead of one per
//!   branch.

#![forbid(unsafe_code)]
// Determinism: results must not depend on the wall clock (the byte-identity
// suites compare runs). clippy.toml lists the banned clock types.
#![warn(clippy::disallowed_types)]
#![warn(missing_docs)]

pub mod bits;
pub mod conv;
pub mod format;
pub mod gen;

mod matrix;
mod shape;

pub use matrix::Matrix;
pub use shape::GemmShape;
