//! The workspace-wide named model registry.
//!
//! Every front-end that accepts a model *name* — the fig binaries, the
//! `hl-serve` `/evaluate_model` handler, the `hl-client` CLI — resolves
//! it through this one fallible registry instead of hand-rolled string
//! matching, mirroring `hl_eval::registry` for designs. [`ModelId`] is
//! the parsed identity, [`model_by_name`] the `Result`-returning
//! constructor, and [`UnknownModel`] the error a server can map to a 4xx
//! instead of a crash.

use std::fmt;
use std::str::FromStr;

use crate::layers::DnnModel;
use crate::zoo;

/// Parsed identity of a registered model name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelId {
    /// ResNet50 (convolutional, ImageNet).
    ResNet50,
    /// DeiT-small (attention, ImageNet).
    DeitSmall,
    /// Transformer-Big (attention, WMT16 EN-DE).
    TransformerBig,
}

impl ModelId {
    /// Every registered model, in the paper's presentation order.
    pub const ALL: [ModelId; 3] = [
        ModelId::ResNet50,
        ModelId::DeitSmall,
        ModelId::TransformerBig,
    ];

    /// The canonical registry name (what [`DnnModel::name`] holds).
    pub fn name(self) -> &'static str {
        match self {
            ModelId::ResNet50 => "ResNet50",
            ModelId::DeitSmall => "DeiT-small",
            ModelId::TransformerBig => "Transformer-Big",
        }
    }

    /// Builds the model inventory for this id.
    pub fn build(self) -> DnnModel {
        match self {
            ModelId::ResNet50 => zoo::resnet50(),
            ModelId::DeitSmall => zoo::deit_small(),
            ModelId::TransformerBig => zoo::transformer_big(),
        }
    }
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ModelId {
    type Err = UnknownModel;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ModelId::ALL
            .into_iter()
            .find(|m| m.name() == s)
            .ok_or_else(|| UnknownModel::new(s))
    }
}

/// A model name the registry does not know.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownModel {
    /// The rejected name.
    pub name: String,
}

impl UnknownModel {
    /// An error for the rejected `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into() }
    }
}

impl fmt::Display for UnknownModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown model {} (known: ", self.name)?;
        for (i, m) in ModelId::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(m.name())?;
        }
        f.write_str(")")
    }
}

impl std::error::Error for UnknownModel {}

/// Constructs a model inventory by its registry name.
///
/// # Errors
/// [`UnknownModel`] when the name is not registered.
pub fn model_by_name(name: &str) -> Result<DnnModel, UnknownModel> {
    name.parse::<ModelId>().map(ModelId::build)
}

/// Every registered model name, in [`ModelId::ALL`] order.
pub fn model_names() -> Vec<&'static str> {
    ModelId::ALL.iter().map(|m| m.name()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_id_parses_builds_and_matches_its_name() {
        for id in ModelId::ALL {
            assert_eq!(id.name().parse::<ModelId>(), Ok(id));
            assert_eq!(id.build().name, id.name(), "inventory name must agree");
            assert_eq!(model_by_name(id.name()).unwrap().name, id.name());
        }
        assert_eq!(model_names().len(), zoo::all_models().len());
    }

    #[test]
    fn unknown_names_are_rejected_with_the_known_list() {
        let err = model_by_name("VGG16").unwrap_err();
        assert_eq!(err.name, "VGG16");
        let msg = err.to_string();
        for name in model_names() {
            assert!(msg.contains(name), "{msg} must list {name}");
        }
        assert!("resnet50".parse::<ModelId>().is_err(), "case-sensitive");
    }
}
