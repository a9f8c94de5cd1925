use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, AddAssign};

/// Architectural component categories used for energy and area breakdowns
/// (paper Fig. 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum Comp {
    /// Multiply-accumulate datapath.
    Mac,
    /// Register files / local accumulation registers.
    RegFile,
    /// Global buffer (data partition).
    Glb,
    /// Global buffer (metadata partition).
    GlbMeta,
    /// Off-chip DRAM traffic.
    Dram,
    /// On-chip network / distribution.
    Noc,
    /// Rank0 skipping-SAF muxing logic.
    MuxRank0,
    /// Rank1 skipping-SAF muxing logic.
    MuxRank1,
    /// Variable Fetch Management Unit (buffer + shifter).
    Vfmu,
    /// Metadata processing (decode, address generation).
    MetaProc,
    /// Outer-product accumulation buffer (DSTC-style dataflow).
    AccumBuf,
    /// Prefix-sum / intersection logic (unstructured designs).
    PrefixSum,
    /// Output compression unit (activation compression, Fig. 10).
    Compressor,
}

impl Comp {
    /// All categories, in display order.
    pub const ALL: [Comp; 13] = [
        Comp::Mac,
        Comp::RegFile,
        Comp::Glb,
        Comp::GlbMeta,
        Comp::Dram,
        Comp::Noc,
        Comp::MuxRank0,
        Comp::MuxRank1,
        Comp::Vfmu,
        Comp::MetaProc,
        Comp::AccumBuf,
        Comp::PrefixSum,
        Comp::Compressor,
    ];

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            Comp::Mac => "MAC",
            Comp::RegFile => "RF",
            Comp::Glb => "GLB",
            Comp::GlbMeta => "GLB-meta",
            Comp::Dram => "DRAM",
            Comp::Noc => "NoC",
            Comp::MuxRank0 => "mux-r0",
            Comp::MuxRank1 => "mux-r1",
            Comp::Vfmu => "VFMU",
            Comp::MetaProc => "meta-proc",
            Comp::AccumBuf => "accum-buf",
            Comp::PrefixSum => "prefix-sum",
            Comp::Compressor => "compressor",
        }
    }

    /// The category's position in [`Comp::ALL`] (its declaration order).
    pub fn index(self) -> usize {
        self as usize
    }

    /// True for categories that exist *only* to support sparsity — the
    /// components whose cost is the paper's "sparsity tax".
    pub fn is_sparsity_tax(self) -> bool {
        matches!(
            self,
            Comp::GlbMeta
                | Comp::MuxRank0
                | Comp::MuxRank1
                | Comp::Vfmu
                | Comp::MetaProc
                | Comp::PrefixSum
                | Comp::Compressor
        )
    }
}

impl fmt::Display for Comp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

macro_rules! breakdown_type {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct $name {
            entries: BTreeMap<Comp, f64>,
        }

        impl $name {
            /// Creates an empty breakdown.
            pub fn new() -> Self {
                Self::default()
            }

            #[doc = concat!("Records `amount` (", $unit, ") against a category.")]
            ///
            /// # Panics
            /// Panics if `amount` is negative or non-finite.
            pub fn record(&mut self, comp: Comp, amount: f64) {
                assert!(amount.is_finite() && amount >= 0.0, "invalid amount {amount}");
                *self.entries.entry(comp).or_insert(0.0) += amount;
            }

            /// The amount recorded for a category (0 if absent).
            pub fn get(&self, comp: Comp) -> f64 {
                self.entries.get(&comp).copied().unwrap_or(0.0)
            }

            #[doc = concat!("Total across all categories (", $unit, ").")]
            pub fn total(&self) -> f64 {
                self.entries.values().sum()
            }

            /// Total across sparsity-tax categories only.
            pub fn sparsity_tax(&self) -> f64 {
                self.entries
                    .iter()
                    .filter(|(c, _)| c.is_sparsity_tax())
                    .map(|(_, v)| v)
                    .sum()
            }

            /// Iterates `(category, amount)` pairs in display order.
            pub fn iter(&self) -> impl Iterator<Item = (Comp, f64)> + '_ {
                self.entries.iter().map(|(c, v)| (*c, *v))
            }

            /// Scales every entry by `factor` (e.g. per-layer weighting).
            ///
            /// # Panics
            /// Panics if `factor` is negative or non-finite.
            pub fn scaled(&self, factor: f64) -> Self {
                assert!(factor.is_finite() && factor >= 0.0, "invalid factor {factor}");
                Self {
                    entries: self.entries.iter().map(|(c, v)| (*c, v * factor)).collect(),
                }
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(mut self, rhs: Self) -> Self {
                self += rhs;
                self
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                for (c, v) in rhs.entries {
                    *self.entries.entry(c).or_insert(0.0) += v;
                }
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {{ ", stringify!($name))?;
                for (c, v) in &self.entries {
                    write!(f, "{c}: {v:.3e} ")?;
                }
                write!(f, "}} total={:.3e} {}", self.total(), $unit)
            }
        }
    };
}

breakdown_type!(
    /// Per-component energy accounting in picojoules.
    EnergyBreakdown,
    "pJ"
);

breakdown_type!(
    /// Per-component area accounting in square micrometres.
    AreaBreakdown,
    "um^2"
);

/// An [`EnergyBreakdown`] packed for storage: a mask of the recorded
/// categories (bit `i` stands for `Comp::ALL[i]` and is set even for a
/// category recorded at 0 pJ) and one heap block of their amounts, lowest
/// bit first.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedEnergy {
    mask: u16,
    amounts: Box<[f64]>,
}

impl PackedEnergy {
    /// Packs `amounts` under `mask`, or `None` when the mask sets a bit at
    /// or past `Comp::ALL.len()`, the amounts are not one per set bit, or
    /// one of them is an amount [`EnergyBreakdown::record`] refuses.
    pub fn new(mask: u16, amounts: Box<[f64]>) -> Option<Self> {
        let valid = mask >> Comp::ALL.len() == 0
            && amounts.len() == mask.count_ones() as usize
            && amounts.iter().all(|v| v.is_finite() && *v >= 0.0);
        valid.then_some(Self { mask, amounts })
    }

    /// The recorded categories, bit `i` standing for `Comp::ALL[i]`.
    pub fn mask(&self) -> u16 {
        self.mask
    }

    /// The recorded amounts (pJ), lowest mask bit first.
    pub fn amounts(&self) -> &[f64] {
        &self.amounts
    }

    /// The breakdown this packs, bit for bit.
    pub fn unpack(&self) -> EnergyBreakdown {
        let recorded = Comp::ALL
            .into_iter()
            .filter(|c| self.mask >> c.index() & 1 == 1);
        let mut entries = BTreeMap::new();
        // In key order, so each insert appends to the one leaf.
        for (comp, amount) in recorded.zip(self.amounts.iter().copied()) {
            entries.insert(comp, amount);
        }
        EnergyBreakdown { entries }
    }
}

impl EnergyBreakdown {
    /// The breakdown packed for storage; [`PackedEnergy::unpack`] gives it
    /// back bit for bit.
    pub fn packed(&self) -> PackedEnergy {
        PackedEnergy {
            mask: self.entries.keys().fold(0, |mask, c| mask | 1 << c.index()),
            amounts: self.entries.values().copied().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_total() {
        let mut e = EnergyBreakdown::new();
        e.record(Comp::Mac, 10.0);
        e.record(Comp::Mac, 5.0);
        e.record(Comp::Dram, 100.0);
        assert_eq!(e.get(Comp::Mac), 15.0);
        assert_eq!(e.total(), 115.0);
        assert_eq!(e.get(Comp::Glb), 0.0);
    }

    #[test]
    fn sparsity_tax_filters_categories() {
        let mut e = EnergyBreakdown::new();
        e.record(Comp::Mac, 10.0);
        e.record(Comp::MuxRank0, 1.0);
        e.record(Comp::Vfmu, 2.0);
        assert_eq!(e.sparsity_tax(), 3.0);
    }

    #[test]
    fn sum_and_scale() {
        let mut a = EnergyBreakdown::new();
        a.record(Comp::Glb, 2.0);
        let mut b = EnergyBreakdown::new();
        b.record(Comp::Glb, 3.0);
        b.record(Comp::Mac, 1.0);
        let c = a + b;
        assert_eq!(c.get(Comp::Glb), 5.0);
        let d = c.scaled(2.0);
        assert_eq!(d.get(Comp::Mac), 2.0);
        assert_eq!(d.total(), 12.0);
    }

    #[test]
    #[should_panic(expected = "invalid amount")]
    fn rejects_negative_amounts() {
        AreaBreakdown::new().record(Comp::Mac, -1.0);
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, comp) in Comp::ALL.into_iter().enumerate() {
            assert_eq!(comp.index(), i);
        }
    }

    #[test]
    fn packing_keeps_every_recorded_category_bit_for_bit() {
        let mut e = EnergyBreakdown::new();
        e.record(Comp::Compressor, 0.1 + 0.2);
        e.record(Comp::Mac, 0.0); // recorded at 0 pJ: packed all the same
        let packed = e.packed();
        assert_eq!(packed.mask(), 1 | 1 << 12);
        assert_eq!(packed.amounts(), [0.0, 0.1 + 0.2]);
        assert_eq!(format!("{:?}", packed.unpack()), format!("{e:?}"));
        assert_eq!(packed.unpack(), e);
        assert_ne!(packed.unpack(), EnergyBreakdown::new());
        let empty = EnergyBreakdown::new().packed();
        assert_eq!((empty.mask(), empty.unpack()), (0, EnergyBreakdown::new()));
    }

    #[test]
    fn packing_refuses_what_record_refuses() {
        let new = |mask, amounts: &[f64]| PackedEnergy::new(mask, amounts.into());
        assert_eq!(new(0b101, &[1.0, 0.0]).map(|p| p.mask()), Some(0b101));
        assert!(new(1 << 13, &[1.0]).is_none(), "a bit past Comp::ALL");
        assert!(new(1 << 15, &[1.0]).is_none(), "a bit past Comp::ALL");
        assert!(new(0b101, &[1.0]).is_none(), "a set bit without its amount");
        assert!(new(0b1, &[1.0, 2.0]).is_none(), "an amount without its bit");
        assert!(new(0b1, &[-1.0]).is_none(), "a negative amount");
        assert!(new(0b1, &[f64::NAN]).is_none(), "a NaN amount");
        assert!(new(0b1, &[f64::INFINITY]).is_none(), "an infinite amount");
    }

    #[test]
    fn display_mentions_total() {
        let mut e = AreaBreakdown::new();
        e.record(Comp::Mac, 1.0);
        assert!(e.to_string().contains("total"));
    }
}
