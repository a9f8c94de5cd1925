//! Fibertree abstraction and precise sparsity specification.
//!
//! This crate implements the fibertree tensor abstraction used by the HighLight
//! paper (MICRO 2023, §3) to *precisely* describe sparsity patterns. A fibertree
//! represents a tensor as a tree of *ranks* (one per dimension); each rank
//! contains *fibers*, each fiber a set of `(coordinate, payload)` pairs. For
//! intermediate ranks the payload is a fiber of the next-lower rank; for the
//! lowest rank it is a scalar value.
//!
//! Sparsity is introduced by *pruning coordinates*: pruning at the lowest rank
//! removes values, pruning at an intermediate rank removes the whole subtree.
//! A sparsity pattern is specified by a rank order plus a per-rank pruning
//! rule, e.g. `RS→C1→C0(2:4)` (NVIDIA's 2:4 structured sparsity) or the
//! two-rank hierarchical pattern `RS→C2→C1(3:4)→C0(2:4)` from the paper.
//!
//! The crate provides:
//! - [`Fibertree`]: a concrete fibertree over scalar values, built from dense
//!   data, with the content-preserving transformations the paper relies on
//!   (rank **reorder**, **flatten**, and **split**/partition). Fibers live in
//!   one index-linked arena ([`FiberView`] borrows into it) so construction
//!   and traversal avoid per-node heap allocation; the pointer-based
//!   [`Fiber`]/[`Payload`] pair remains as the naive reference
//!   implementation;
//! - [`spec`]: the fibertree-based sparsity *specification* language
//!   ([`PatternSpec`], [`Rule`], [`Gh`]) with conformance checking;
//! - [`catalog`]: the Table 2 catalog mapping conventional pattern names to
//!   precise specifications.
//!
//! # Example
//!
//! ```
//! use hl_fibertree::{Fibertree, spec::{PatternSpec, Gh}};
//!
//! // A 2x8 matrix whose rows obey 2:4 structured sparsity.
//! let data = vec![
//!     1.0, 0.0, 2.0, 0.0,   0.0, 3.0, 0.0, 4.0,
//!     0.0, 0.0, 5.0, 6.0,   7.0, 0.0, 8.0, 0.0,
//! ];
//! let tree = Fibertree::from_dense(&data, &[2, 8], &["M", "K"])?;
//! // Split K into K1 (blocks) and K0 (intra-block, shape 4), then check 2:4 on K0.
//! let split = tree.split_rank(1, 4)?;
//! let spec = PatternSpec::parse("M→K1→K0(2:4)")?;
//! assert!(spec.check(&split).is_ok());
//! # Ok::<(), hl_fibertree::FibertreeError>(())
//! ```

#![forbid(unsafe_code)]
// Determinism: results must not depend on the wall clock (the byte-identity
// suites compare runs). clippy.toml lists the banned clock types.
#![warn(clippy::disallowed_types)]
#![warn(missing_docs)]

mod error;
mod fiber;
mod tree;

pub mod catalog;
pub mod spec;

pub use error::FibertreeError;
pub use fiber::{Fiber, Payload};
pub use tree::{FiberView, Fibertree, RankInfo};
