//! DNN model inventories and the accuracy surrogate (paper §7.1.2, §7.3).
//!
//! The hardware results need only each network's GEMM-ified layer shapes,
//! which are reproduced exactly here for the paper's three representative
//! DNNs: [`zoo::resnet50`] (convolutional, ImageNet), [`zoo::deit_small`]
//! (attention, ImageNet) and [`zoo::transformer_big`] (attention, WMT16
//! EN-DE). Convolutions are lowered to their Toeplitz-expanded GEMM
//! shapes through [`hl_tensor::conv`] (Fig. 8a). [`registry`] resolves
//! model *names* fallibly (mirroring the design registry), and
//! [`DnnModel::lower`] turns an inventory plus a pruning configuration
//! into the [`hl_sim::network::NetworkWorkload`] IR the network-level
//! evaluator runs on.
//!
//! Accuracy appears only on the y-axis of Fig. 15. Since retraining the
//! networks is out of scope (see `DESIGN.md` substitutions), [`accuracy`]
//! provides a *calibrated surrogate*: the paper's own sparsification rules
//! (magnitude at Rank0, scaled-L2 at intermediate ranks — `hl-sparsity`) are
//! applied to synthetic weights with realistic magnitude spread, and the
//! accuracy loss is a calibrated function of the **retained weight norm**.
//! This preserves the orderings the paper's Fig. 15 relies on: loss grows
//! with sparsity; at equal sparsity, finer-grained patterns (unstructured <
//! fine HSS < coarse blocks) lose less.

#![forbid(unsafe_code)]
// Determinism: results must not depend on the wall clock (the byte-identity
// suites compare runs). clippy.toml lists the banned clock types.
#![warn(clippy::disallowed_types)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod registry;
pub mod zoo;

mod layers;
mod lower;

pub use layers::{DnnModel, LayerKind, LayerSpec};
pub use registry::{model_by_name, model_names, ModelId, UnknownModel};
