//! Hierarchical structured sparsity (HSS): patterns, degrees, sparsification.
//!
//! Implements §4 and §5.2–5.3 of the HighLight paper:
//!
//! - [`Ratio`]: exact rational arithmetic for density degrees (the paper's
//!   key insight is that HSS composes degrees by *multiplying fractions*);
//! - [`HssPattern`]: an N-rank HSS pattern (one [`Gh`] per sparse rank) with
//!   exact density/speedup arithmetic and conversion to the fibertree
//!   specification language;
//! - [`families`]: per-design supported-pattern families (`G:H` with ranges
//!   of `G` and `H`, Table 3) and degree-set enumeration/composition
//!   (Fig. 1, Fig. 6a);
//! - [`prune`]: the HSS sparsification algorithm (§4.2) — magnitude pruning
//!   at the lowest rank and scaled-L2-norm pruning of fiber payloads at
//!   intermediate ranks, applied lower-to-higher — plus unstructured
//!   magnitude pruning for the baselines.
//!
//! [`Gh`]: hl_fibertree::spec::Gh

#![forbid(unsafe_code)]
// Determinism: results must not depend on the wall clock (the byte-identity
// suites compare runs). clippy.toml lists the banned clock types.
#![warn(clippy::disallowed_types)]
#![warn(missing_docs)]

pub mod families;
pub mod prune;

mod hss;
mod ratio;

pub use hss::HssPattern;
pub use ratio::Ratio;

pub use hl_fibertree::spec::{Gh, InvalidGh};
