//! Supported-pattern families and sparsity-degree enumeration.
//!
//! A hardware design supports a *family* of `G:H` patterns per rank
//! (Table 3), e.g. HighLight's operand A supports
//! `C1(4:{4≤H≤8})→C0(2:{2≤H≤4})`. Families determine both the representable
//! sparsity degrees (Fig. 1, Fig. 6a) and the muxing sparsity tax, which
//! grows with the largest supported `H` (§5.2).
//!
//! ## What is computed once
//!
//! Model lowering and the designs' operand resolution ask a family for the
//! member nearest a density on every layer they map, so an [`HssFamily`]
//! enumerates its members once, at construction, each with its exact
//! [`Ratio`] density and that density's `f64`. The queries
//! ([`HssFamily::closest_to_density`], [`HssFamily::densest_within`],
//! [`HssFamily::sparsest_at_least`]) scan that table without allocating,
//! except for the one pattern they return. The table holds the members in
//! [`HssFamily::patterns`] order, and each scan makes the comparisons the
//! `patterns()`-based scan made, in that order and with the same tie rule
//! (`min_by` keeps the first minimum, `max_by` the last maximum), so every
//! answer is the member it was before; the oracle test below pins that for
//! every family in this module.

use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use hl_fibertree::spec::Gh;

use crate::hss::HssPattern;
use crate::ratio::Ratio;

/// A family of supported `G:H` patterns at one rank: `G ∈ [g_min, g_max]`,
/// `H ∈ [h_min, h_max]`, with `G ≤ H`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GhFamily {
    /// Smallest supported `G`.
    pub g_min: u32,
    /// Largest supported `G`.
    pub g_max: u32,
    /// Smallest supported `H`.
    pub h_min: u32,
    /// Largest supported `H` (drives the muxing tax, §5.2).
    pub h_max: u32,
}

impl GhFamily {
    /// A family with a fixed `G` and a range of `H` — the shape skipping
    /// hardware favours (§5.1: fixed `G` matching the parallel units).
    ///
    /// # Panics
    /// Panics if the range is empty or `g > h_max`.
    pub fn fixed_g(g: u32, h_min: u32, h_max: u32) -> Self {
        Self::new(g, g, h_min, h_max)
    }

    /// A family containing exactly one pattern.
    pub fn exact(gh: Gh) -> Self {
        Self::new(gh.g, gh.g, gh.h, gh.h)
    }

    /// A general family.
    ///
    /// # Panics
    /// Panics if any range is empty, zero, or `g_min > h_max`.
    pub fn new(g_min: u32, g_max: u32, h_min: u32, h_max: u32) -> Self {
        assert!(g_min >= 1 && g_min <= g_max, "invalid G range");
        assert!(h_min >= 1 && h_min <= h_max, "invalid H range");
        assert!(g_min <= h_max, "G range must intersect H range");
        Self {
            g_min,
            g_max,
            h_min,
            h_max,
        }
    }

    /// All valid `G:H` members (`g ≤ h`).
    pub fn patterns(&self) -> Vec<Gh> {
        let mut out = Vec::new();
        for g in self.g_min..=self.g_max {
            for h in self.h_min.max(g)..=self.h_max {
                out.push(Gh::new(g, h));
            }
        }
        out
    }

    /// True if `gh` is a member.
    pub fn contains(&self, gh: Gh) -> bool {
        (self.g_min..=self.g_max).contains(&gh.g) && (self.h_min..=self.h_max).contains(&gh.h)
    }

    /// True if the family contains a dense member (`G == H`).
    pub fn contains_dense(&self) -> bool {
        self.patterns().iter().any(|gh| gh.is_dense())
    }
}

/// A family of N-rank HSS patterns: one [`GhFamily`] per rank, highest rank
/// first. Members are all per-rank combinations.
///
/// Equality, hashing and `Debug` see the per-rank families only: the
/// member table is derived from them.
#[derive(Clone)]
pub struct HssFamily {
    ranks: Vec<GhFamily>,
    /// Every member in enumeration order, with its densities (module docs).
    members: Arc<[Member]>,
}

/// One family member and its density, exact and as `f64`.
struct Member {
    pattern: HssPattern,
    density: Ratio,
    density_f64: f64,
}

impl HssFamily {
    /// Creates a family from per-rank sub-families, highest rank first.
    ///
    /// # Panics
    /// Panics if `ranks` is empty.
    pub fn new(ranks: Vec<GhFamily>) -> Self {
        assert!(!ranks.is_empty(), "family needs at least one rank");
        // The cartesian product of the per-rank members, highest rank
        // outermost.
        let mut acc: Vec<Vec<Gh>> = vec![Vec::new()];
        for fam in &ranks {
            let mut next = Vec::new();
            for prefix in &acc {
                for gh in fam.patterns() {
                    let mut p = prefix.clone();
                    p.push(gh);
                    next.push(p);
                }
            }
            acc = next;
        }
        let members = acc
            .into_iter()
            .map(|ranks| {
                let pattern = HssPattern::new(ranks);
                let density = pattern.density();
                Member {
                    pattern,
                    density,
                    density_f64: density.to_f64(),
                }
            })
            .collect();
        Self { ranks, members }
    }

    /// Per-rank sub-families, highest rank first.
    pub fn ranks(&self) -> &[GhFamily] {
        &self.ranks
    }

    /// Number of ranks (the paper's `N`).
    pub fn rank_count(&self) -> usize {
        self.ranks.len()
    }

    /// All member patterns (cartesian product of per-rank members).
    pub fn patterns(&self) -> Vec<HssPattern> {
        self.members.iter().map(|m| m.pattern.clone()).collect()
    }

    /// The distinct density degrees the family represents, ascending.
    pub fn densities(&self) -> Vec<Ratio> {
        let set: BTreeSet<Ratio> = self.members.iter().map(|m| m.density).collect();
        set.into_iter().collect()
    }

    /// Number of distinct representable sparsity degrees.
    pub fn degree_count(&self) -> usize {
        self.densities().len()
    }

    /// True if `pattern` is a member. The dense pattern is supported iff
    /// every rank family has a dense member.
    pub fn supports(&self, pattern: &HssPattern) -> bool {
        if pattern.rank_count() == 0 {
            return self.ranks.iter().all(GhFamily::contains_dense);
        }
        pattern.rank_count() == self.ranks.len()
            && pattern
                .ranks()
                .iter()
                .zip(&self.ranks)
                .all(|(gh, fam)| fam.contains(*gh))
    }

    /// The member whose density is closest to `target` (ties broken toward
    /// the denser pattern — the conservative choice for accuracy).
    ///
    /// A non-finite `target` (NaN distances) falls back to the densest
    /// member via `total_cmp`'s total order instead of panicking.
    pub fn closest_to_density(&self, target: f64) -> HssPattern {
        self.members
            .iter()
            .min_by(|a, b| {
                let da = (a.density_f64 - target).abs();
                let db = (b.density_f64 - target).abs();
                da.total_cmp(&db).then(b.density.cmp(&a.density))
            })
            .map(|m| m.pattern.clone())
            .expect("families are non-empty")
    }

    /// The densest member whose density does not exceed `target` (i.e. the
    /// pattern that fully exploits at least the workload's sparsity), if any.
    pub fn densest_within(&self, target: f64) -> Option<HssPattern> {
        self.members
            .iter()
            .filter(|m| m.density_f64 <= target + 1e-12)
            .max_by(|a, b| a.density.cmp(&b.density))
            .map(|m| m.pattern.clone())
    }

    /// The sparsest member whose density is at least `target` (i.e. the
    /// pattern that claims no zeros the workload does not have), if any;
    /// ties keep the first member.
    pub fn sparsest_at_least(&self, target: f64) -> Option<HssPattern> {
        self.members
            .iter()
            .filter(|m| m.density_f64 >= target - 1e-12)
            .min_by(|a, b| a.density.cmp(&b.density))
            .map(|m| m.pattern.clone())
    }

    /// The largest supported `H` at each rank, highest rank first — the
    /// quantity the muxing tax scales with (§5.2-5.3).
    pub fn h_maxes(&self) -> Vec<u32> {
        self.ranks.iter().map(|f| f.h_max).collect()
    }
}

impl fmt::Debug for HssFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HssFamily")
            .field("ranks", &self.ranks)
            .finish()
    }
}

impl PartialEq for HssFamily {
    fn eq(&self, other: &Self) -> bool {
        self.ranks == other.ranks
    }
}

impl Eq for HssFamily {}

impl Hash for HssFamily {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.ranks.hash(state);
    }
}

/// Composes density sets by multiplying fractions (paper Fig. 1): returns the
/// distinct products `s0 · s1 · …`, ascending.
pub fn compose_density_sets(sets: &[Vec<Ratio>]) -> Vec<Ratio> {
    let mut acc: BTreeSet<Ratio> = [Ratio::ONE].into_iter().collect();
    for set in sets {
        let mut next = BTreeSet::new();
        for &a in &acc {
            for &b in set {
                next.insert(a * b);
            }
        }
        acc = next;
    }
    acc.into_iter().collect()
}

/// The paper's one-rank design `S` from Fig. 6: `G = 2`, `H ∈ [2, 16]`,
/// giving 15 sparsity degrees across 0%–87.5% with `Hmax = 16`.
pub fn design_s() -> HssFamily {
    HssFamily::new(vec![GhFamily::fixed_g(2, 2, 16)])
}

/// The paper's two-rank design `SS` from Fig. 6: Rank1 `2:{2..8}`, Rank0
/// `2:{2..4}`, covering the same 0%–87.5% range with `Hmax` of 8 and 4.
pub fn design_ss() -> HssFamily {
    HssFamily::new(vec![GhFamily::fixed_g(2, 2, 8), GhFamily::fixed_g(2, 2, 4)])
}

/// HighLight's operand A family: `C1(4:{4≤H≤8})→C0(2:{2≤H≤4})` (Table 3).
pub fn highlight_a() -> HssFamily {
    HssFamily::new(vec![GhFamily::fixed_g(4, 4, 8), GhFamily::fixed_g(2, 2, 4)])
}

/// STC's operand A family: `C0({G≤2}:4)` plus dense (Table 3).
pub fn stc_a() -> HssFamily {
    HssFamily::new(vec![GhFamily::new(1, 2, 4, 4)])
}

/// S2TA's operand A family: `C0({G≤4}:8)` (Table 3) — dense not supported.
pub fn s2ta_a() -> HssFamily {
    HssFamily::new(vec![GhFamily::new(1, 4, 8, 8)])
}

/// S2TA's operand B family: `C0({G≤8}:8)` (Table 3).
pub fn s2ta_b() -> HssFamily {
    HssFamily::new(vec![GhFamily::new(1, 8, 8, 8)])
}

/// DSSO's operand B family: `C1(2:{2≤H≤8})→C0(dense)` (§7.5, Fig. 17).
pub fn dsso_b() -> HssFamily {
    HssFamily::new(vec![GhFamily::fixed_g(2, 2, 8), GhFamily::fixed_g(4, 4, 4)])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every family this module defines.
    fn all_families() -> [(&'static str, HssFamily); 7] {
        [
            ("design_s", design_s()),
            ("design_ss", design_ss()),
            ("highlight_a", highlight_a()),
            ("stc_a", stc_a()),
            ("s2ta_a", s2ta_a()),
            ("s2ta_b", s2ta_b()),
            ("dsso_b", dsso_b()),
        ]
    }

    /// The members by the per-rank cartesian product, highest rank
    /// outermost, built on every call: the oracle for the member table and
    /// the scans over it.
    fn enumerate(family: &HssFamily) -> Vec<HssPattern> {
        let mut acc: Vec<Vec<Gh>> = vec![Vec::new()];
        for fam in family.ranks() {
            acc = acc
                .iter()
                .flat_map(|prefix| {
                    fam.patterns().into_iter().map(move |gh| {
                        let mut p = prefix.clone();
                        p.push(gh);
                        p
                    })
                })
                .collect();
        }
        acc.into_iter().map(HssPattern::new).collect()
    }

    fn reference_closest(members: &[HssPattern], target: f64) -> HssPattern {
        members
            .iter()
            .cloned()
            .min_by(|a, b| {
                let da = (a.density_f64() - target).abs();
                let db = (b.density_f64() - target).abs();
                da.total_cmp(&db).then(b.density().cmp(&a.density()))
            })
            .expect("families are non-empty")
    }

    fn reference_densest_within(members: &[HssPattern], target: f64) -> Option<HssPattern> {
        members
            .iter()
            .filter(|p| p.density_f64() <= target + 1e-12)
            .max_by(|a, b| a.density().cmp(&b.density()))
            .cloned()
    }

    fn reference_sparsest_at_least(members: &[HssPattern], target: f64) -> Option<HssPattern> {
        members
            .iter()
            .filter(|p| p.density_f64() >= target - 1e-12)
            .min_by(|a, b| a.density().cmp(&b.density()))
            .cloned()
    }

    #[test]
    fn table_scans_match_the_enumeration_for_every_family() {
        let mut checked = 0usize;
        for (name, family) in all_families() {
            let members = enumerate(&family);
            assert_eq!(family.patterns(), members, "{name}");
            let mut targets = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 2.0];
            for p in &members {
                let d = p.density_f64();
                targets.extend([d, d.next_down(), d.next_up()]);
            }
            targets.extend((0..=2000).map(|i| f64::from(i) / 2000.0));
            for &t in &targets {
                // Patterns compare by their ranks, so equal answers are the
                // same member, not just one of equal density.
                assert_eq!(
                    family.closest_to_density(t),
                    reference_closest(&members, t),
                    "{name} closest_to_density({t:e})"
                );
                assert_eq!(
                    family.densest_within(t),
                    reference_densest_within(&members, t),
                    "{name} densest_within({t:e})"
                );
                assert_eq!(
                    family.sparsest_at_least(t),
                    reference_sparsest_at_least(&members, t),
                    "{name} sparsest_at_least({t:e})"
                );
                checked += 1;
            }
        }
        assert!(checked > 7 * 2000, "{checked} targets");
    }

    #[test]
    fn identity_and_debug_ignore_the_member_table() {
        /// The per-rank families alone, printed by a derived `Debug`.
        #[derive(Debug)]
        #[expect(dead_code, reason = "the field is only printed")]
        struct HssFamily {
            ranks: Vec<GhFamily>,
        }
        for (name, family) in all_families() {
            let mirror = HssFamily {
                ranks: family.ranks().to_vec(),
            };
            assert_eq!(format!("{family:?}"), format!("{mirror:?}"), "{name}");
            assert_eq!(format!("{family:#?}"), format!("{mirror:#?}"), "{name}");
            assert_eq!(
                family.clone(),
                super::HssFamily::new(family.ranks().to_vec())
            );
        }
        assert_ne!(design_s(), design_ss());
    }

    #[test]
    fn family_members_and_membership() {
        let f = GhFamily::fixed_g(2, 2, 4);
        assert_eq!(
            f.patterns(),
            vec![Gh::new(2, 2), Gh::new(2, 3), Gh::new(2, 4)]
        );
        assert!(f.contains(Gh::new(2, 3)));
        assert!(!f.contains(Gh::new(1, 4)));
        assert!(f.contains_dense());
        let g = GhFamily::new(1, 4, 8, 8);
        assert_eq!(g.patterns().len(), 4);
        assert!(!g.contains_dense());
    }

    #[test]
    fn fig1_compose_example() {
        // Fig. 1: a 3-element set and a 2-element set compose to six density
        // degrees when the fraction products are distinct.
        let s0 = vec![Ratio::new(1, 2), Ratio::new(3, 4), Ratio::ONE];
        let s1 = vec![Ratio::new(1, 4), Ratio::new(3, 4)];
        let composed = compose_density_sets(&[s0, s1]);
        assert_eq!(composed.len(), 6);
        assert_eq!(composed[0], Ratio::new(1, 8));
        assert_eq!(*composed.last().unwrap(), Ratio::new(3, 4));
        // Duplicated products merge: {1/2,1} x {1/2,1} has 3 degrees, not 4.
        let dup = compose_density_sets(&[
            vec![Ratio::new(1, 2), Ratio::ONE],
            vec![Ratio::new(1, 2), Ratio::ONE],
        ]);
        assert_eq!(dup.len(), 3);
    }

    #[test]
    fn design_s_has_15_degrees_up_to_87_5() {
        let s = design_s();
        let d = s.densities();
        assert_eq!(d.len(), 15); // H = 2..=16
        assert_eq!(d[0], Ratio::new(1, 8)); // 87.5% sparsity
        assert_eq!(*d.last().unwrap(), Ratio::ONE); // dense
        assert_eq!(s.h_maxes(), vec![16]);
    }

    #[test]
    fn design_ss_covers_same_range_with_smaller_hmax() {
        let ss = design_ss();
        let d = ss.densities();
        // Same extremes as S with Hmax (8, 4) instead of 16.
        assert_eq!(d[0], Ratio::new(1, 8));
        assert_eq!(*d.last().unwrap(), Ratio::ONE);
        assert!(
            d.len() >= 15,
            "SS must represent at least 15 degrees, got {}",
            d.len()
        );
        assert_eq!(ss.h_maxes(), vec![8, 4]);
    }

    #[test]
    fn highlight_family_supports_paper_patterns() {
        let f = highlight_a();
        assert!(f.supports(&HssPattern::two_rank(Gh::new(4, 8), Gh::new(2, 4)))); // 75%
        assert!(f.supports(&HssPattern::two_rank(Gh::new(4, 4), Gh::new(2, 4)))); // 50%
        assert!(f.supports(&HssPattern::dense()));
        assert!(!f.supports(&HssPattern::one_rank(Gh::new(2, 4))));
        // Densities span 0% to 75% sparsity.
        let d = f.densities();
        assert_eq!(d[0], Ratio::new(1, 4));
        assert_eq!(*d.last().unwrap(), Ratio::ONE);
    }

    #[test]
    fn s2ta_a_cannot_be_dense() {
        assert!(!s2ta_a().supports(&HssPattern::dense()));
        assert!(s2ta_b().supports(&HssPattern::dense()));
    }

    #[test]
    fn closest_and_densest_selection() {
        let f = highlight_a();
        let half = f.closest_to_density(0.5);
        assert!((half.density_f64() - 0.5).abs() < 1e-12);
        let quarter = f.densest_within(0.25).unwrap();
        assert_eq!(quarter.density(), Ratio::new(1, 4));
        assert!(f.densest_within(0.1).is_none()); // nothing sparser than 75%
    }

    #[test]
    fn closest_to_density_survives_nan_target() {
        // Every distance is NaN; total_cmp treats them as equal and the
        // density tie-break picks the densest member deterministically.
        let f = highlight_a();
        let p = f.closest_to_density(f64::NAN);
        assert_eq!(p.density(), *f.densities().last().unwrap());
    }

    #[test]
    fn composability_matches_family_enumeration() {
        // The densities of a two-rank family equal the composition of its
        // per-rank density sets (the multiplicative structure of HSS).
        let ss = design_ss();
        let per_rank: Vec<Vec<Ratio>> = ss
            .ranks()
            .iter()
            .map(|f| {
                f.patterns()
                    .iter()
                    .map(|gh| Ratio::new(u64::from(gh.g), u64::from(gh.h)))
                    .collect()
            })
            .collect();
        assert_eq!(compose_density_sets(&per_rank), ss.densities());
    }
}
