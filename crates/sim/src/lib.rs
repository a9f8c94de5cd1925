//! Sparse-accelerator modeling engine (the Sparseloop substitute).
//!
//! This crate defines the shared evaluation machinery used by the HighLight
//! model ([`highlight-core`]) and the baselines ([`hl-baselines`]):
//!
//! - [`Workload`] / [`OperandSparsity`]: a GEMM plus per-operand sparsity
//!   descriptors (dense, unstructured with a degree, or an HSS pattern);
//! - [`Accelerator`] / [`EvalResult`]: the analytical-evaluation interface —
//!   cycles, per-component energy, area, EDP/ED² — with operand-swapping
//!   harness support (§7.1.1 lets designs swap operands and report the best);
//! - [`balance`]: the workload-balance model for unstructured designs —
//!   exact expectation of per-tile step counts under binomial occupancy,
//!   reproducing DSTC's imbalance penalty (§2.2.1, §7.2);
//! - [`engine`]: the parallel design-space evaluation engine — a scoped
//!   worker pool with a deterministic ordered collect, memoization of
//!   repeated pure evaluations, and the [`engine::SweepGrid`] abstraction
//!   over `(design, workload)` sweep cells;
//! - [`network`]: network-level evaluation — the [`network::NetworkWorkload`]
//!   IR of a whole DNN (named per-layer GEMMs with occurrence counts) and
//!   the [`network::NetworkEval`] result (per-layer breakdowns, aggregate
//!   EDP/ED², MACs-weighted utilization), with layers fanning out across
//!   the engine pool and hitting the eval cache individually;
//! - [`pareto`]: bi-objective Pareto dominance over minimized `(f64, f64)`
//!   objectives — the frontier machinery under the §7.1.2 co-design search
//!   and the Fig. 15 frontier check;
//! - [`micro`]: a **functional** cycle-counting simulator of the down-sized
//!   HighLight micro-architecture of §6 (Figs. 9–12): hierarchical CP
//!   metadata decode, Rank1 skipping with a VFMU performing variable-length
//!   shifts, Rank0 skipping muxes, and gating on sparse operand B. Its
//!   output is checked bit-for-bit against the reference GEMM, and its
//!   action counts anchor the analytical models.
//!
//! [`highlight-core`]: ../highlight_core/index.html
//! [`hl-baselines`]: ../hl_baselines/index.html

#![forbid(unsafe_code)]
// Determinism: results must not depend on the wall clock (the byte-identity
// suites compare runs). clippy.toml lists the banned clock types.
#![warn(clippy::disallowed_types)]
#![warn(missing_docs)]

pub mod analytic;
pub mod balance;
pub mod dataflow;
pub mod engine;
pub mod micro;
pub mod network;
pub mod pareto;

mod eval;
mod workload;

pub use eval::{
    best_of, check_densities, geomean, Accelerator, Cost, EvalResult, Unsupported, CLOCK_GHZ,
};
pub use workload::{OperandSparsity, Workload};
