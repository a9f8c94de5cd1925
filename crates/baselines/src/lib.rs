//! Baseline accelerator models (paper §7.1.1, Tables 3–4).
//!
//! Four representative designs, each capturing one category of Table 1 and
//! allocated resources comparable to HighLight for fairness:
//!
//! - [`Tc`] — dense tensor-core-like accelerator: no sparsity tax, no
//!   sparsity exploitation;
//! - [`Stc`] — single-sided structured sparse (NVIDIA sparse-tensor-core
//!   style): operand A dense or `C0({G≤2}:4)`, max 2× speedup, very low tax;
//! - [`S2ta`] — dual-sided structured sparse: A `C0({G≤4}:8)`,
//!   B `C0({G≤8}:8)`; dual-side speedup but medium tax and *no dense-A
//!   support* (it cannot process purely dense layers, §7.3);
//! - [`Dstc`] — dual-sided unstructured sparse with an outer-product
//!   dataflow: exploits any sparsity degree on both operands, but pays a
//!   large accumulation-buffer tax per partial product and suffers workload
//!   imbalance ([`hl_sim::balance`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dstc;
mod s2ta;
mod stc;
mod tc;

pub use dstc::Dstc;
pub use s2ta::S2ta;
pub use stc::Stc;
pub use tc::Tc;

#[cfg(test)]
mod tests {
    use super::*;

    /// The [`hl_sim::Accelerator`] trait requires `Send + Sync` so the
    /// engine can share the design registry across its worker pool; every
    /// baseline must satisfy the bound structurally (pure-data configs, no
    /// interior mutability).
    #[test]
    fn baselines_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tc>();
        assert_send_sync::<Stc>();
        assert_send_sync::<S2ta>();
        assert_send_sync::<Dstc>();
        assert_send_sync::<Box<dyn hl_sim::Accelerator>>();
    }
}
