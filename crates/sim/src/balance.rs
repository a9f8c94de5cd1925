//! Workload-balance modeling for unstructured sparse designs.
//!
//! Structured skipping achieves *perfect* balance: `G:H` guarantees each of
//! the `G` lanes a nonzero (§5.1). Unstructured designs cannot — the number
//! of effectual operations per tile is random, so `lanes`-wide hardware
//! spends `ceil(X/lanes)` steps on a tile with `X` nonzeros and idles in the
//! last step whenever `X mod lanes ≠ 0` (DSTC balances perfectly only when a
//! sub-tensor's occupancy is a multiple of its 32-wide columns, §2.2.1).
//!
//! This module computes the exact expectation of the step count under a
//! binomial occupancy model `X ~ Binomial(n, density)`.
//!
//! ## What is computed once
//!
//! `P(X = k) = exp(ln C(n, k) + k·ln p + (n − k)·ln(1 − p))`. The `n + 1`
//! log binomial coefficients depend only on the tile size, so a
//! [`BinomialTable`] builds them once (a design holds one per tile size)
//! and each [`BinomialTable::balance`] call pays only the `n + 1` `exp`s
//! of its density, folded straight into the expected-steps sum with no
//! pmf vector. The table holds exactly the partial sums a per-call pmf
//! accumulates (same additions, same order), and the fold multiplies and
//! adds the same terms in the same order, so every result is bit-identical
//! to building the pmf on every call (the oracle test below pins that).

/// The log binomial coefficients `ln C(n, k)` for `k = 0..=n` — the
/// density-independent half of `Binomial(n, p)`'s pmf, built once per tile
/// size `n`.
#[derive(Debug, Clone, PartialEq)]
pub struct BinomialTable {
    log_choose: Vec<f64>,
}

impl BinomialTable {
    /// The table for tiles of `n` positions.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "tile and lane counts must be positive");
        // Log-space evaluation avoids under/overflow for n in the thousands.
        let mut log_choose = Vec::with_capacity(n + 1);
        let mut acc = 0.0f64; // ln C(n, 0)
        log_choose.push(acc);
        for k in 0..n {
            acc += ((n - k) as f64).ln() - ((k + 1) as f64).ln();
            log_choose.push(acc);
        }
        Self { log_choose }
    }

    /// The tile size `n`.
    pub fn n(&self) -> usize {
        self.log_choose.len() - 1
    }

    /// The balance model for `X ~ Binomial(n, density)` on `lanes`
    /// parallel units.
    ///
    /// # Panics
    /// Panics if `lanes == 0` or `density` is outside `[0, 1]`.
    pub fn balance(&self, density: f64, lanes: usize) -> BalanceModel {
        assert!(lanes > 0, "tile and lane counts must be positive");
        assert!((0.0..=1.0).contains(&density), "p must be in [0,1]");
        let n = self.n();
        // The pmf at p ∈ {0, 1} is a point mass on k = 0 or k = n.
        let expected_steps = if density == 0.0 {
            0.0
        } else if density == 1.0 {
            n.div_ceil(lanes) as f64
        } else {
            let (lp, lq) = (density.ln(), (1.0 - density).ln());
            let mut steps = 0.0;
            for (k, &log_choose) in self.log_choose.iter().enumerate() {
                let pk = (log_choose + k as f64 * lp + (n - k) as f64 * lq).exp();
                steps += pk * (k.div_ceil(lanes)) as f64;
            }
            steps
        };
        let expected_work = n as f64 * density;
        let utilization = if expected_steps == 0.0 {
            1.0
        } else {
            expected_work / (lanes as f64 * expected_steps)
        };
        BalanceModel {
            expected_steps,
            expected_work,
            utilization,
        }
    }
}

/// Expected processing steps and utilization for a tile of `n` positions at
/// the given `density`, processed by `lanes` parallel units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalanceModel {
    /// Expected `ceil(X / lanes)` steps per tile.
    pub expected_steps: f64,
    /// Expected nonzeros per tile (`n · density`).
    pub expected_work: f64,
    /// Utilization: `expected_work / (lanes · expected_steps)`; 1.0 means
    /// perfect balance.
    pub utilization: f64,
}

/// Computes the balance model for `X ~ Binomial(n, density)` on `lanes`
/// parallel units, building the tile's [`BinomialTable`] for this one call
/// (a design evaluating many densities holds its table instead).
///
/// # Panics
/// Panics if `lanes == 0`, `n == 0`, or `density` is outside `[0, 1]`.
pub fn binomial_balance(n: usize, density: f64, lanes: usize) -> BalanceModel {
    assert!(lanes > 0 && n > 0, "tile and lane counts must be positive");
    BinomialTable::new(n).balance(density, lanes)
}

/// Utilization of a *structured* `G:H` tile on `lanes` units: exactly `G`
/// nonzeros arrive per block and `G` divides the lane count by design, so
/// balance is perfect (§5.1).
pub fn structured_utilization() -> f64 {
    1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Probability mass function of `Binomial(n, p)`, built from scratch on
    /// every call: the oracle [`BinomialTable::balance`] must match bit for
    /// bit.
    fn binomial_pmf(n: usize, p: f64) -> Vec<f64> {
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1]");
        let mut pmf = vec![0.0; n + 1];
        if p == 0.0 {
            pmf[0] = 1.0;
            return pmf;
        }
        if p == 1.0 {
            pmf[n] = 1.0;
            return pmf;
        }
        let (lp, lq) = (p.ln(), (1.0 - p).ln());
        let mut log_choose = 0.0f64; // ln C(n, 0)
        for (k, slot) in pmf.iter_mut().enumerate() {
            *slot = (log_choose + k as f64 * lp + (n - k) as f64 * lq).exp();
            if k < n {
                log_choose += ((n - k) as f64).ln() - ((k + 1) as f64).ln();
            }
        }
        pmf
    }

    /// The balance model from a pmf built on every call.
    fn reference_balance(n: usize, density: f64, lanes: usize) -> BalanceModel {
        let pmf = binomial_pmf(n, density);
        let mut expected_steps = 0.0;
        for (k, &pk) in pmf.iter().enumerate() {
            expected_steps += pk * (k.div_ceil(lanes)) as f64;
        }
        let expected_work = n as f64 * density;
        let utilization = if expected_steps == 0.0 {
            1.0
        } else {
            expected_work / (lanes as f64 * expected_steps)
        };
        BalanceModel {
            expected_steps,
            expected_work,
            utilization,
        }
    }

    #[test]
    fn tabled_balance_matches_the_per_call_pmf_bit_for_bit() {
        let mut densities = vec![0.0, 1.0, 1e-300, 1.0 - f64::EPSILON / 2.0];
        densities.extend((0..=997).map(|i| f64::from(i) / 997.0));
        for n in [1usize, 8, 64, 128] {
            let table = BinomialTable::new(n);
            assert_eq!(table.n(), n);
            for lanes in [1usize, 4, 16, 32] {
                for &p in &densities {
                    let got = table.balance(p, lanes);
                    let want = reference_balance(n, p, lanes);
                    let bits = |b: BalanceModel| {
                        [
                            b.expected_steps.to_bits(),
                            b.expected_work.to_bits(),
                            b.utilization.to_bits(),
                        ]
                    };
                    assert_eq!(bits(got), bits(want), "n={n} lanes={lanes} p={p:e}");
                    assert_eq!(bits(binomial_balance(n, p, lanes)), bits(want));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "p must be in [0,1]")]
    fn out_of_range_density_panics() {
        let _ = BinomialTable::new(8).balance(f64::NAN, 4);
    }

    #[test]
    fn pmf_sums_to_one() {
        for &(n, p) in &[
            (10usize, 0.3f64),
            (100, 0.5),
            (1000, 0.25),
            (64, 0.0),
            (64, 1.0),
        ] {
            let pmf = binomial_pmf(n, p);
            let sum: f64 = pmf.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "pmf sum for n={n} p={p}: {sum}");
            let mean: f64 = pmf.iter().enumerate().map(|(k, &pk)| k as f64 * pk).sum();
            assert!((mean - n as f64 * p).abs() < 1e-6);
        }
    }

    #[test]
    fn dense_tile_is_perfectly_balanced_when_divisible() {
        let b = binomial_balance(128, 1.0, 32);
        assert!((b.expected_steps - 4.0).abs() < 1e-12);
        assert!((b.utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unstructured_utilization_is_below_one() {
        // 50% dense 128-wide tiles on 32 lanes: X ~ Bin(128, .5) is rarely a
        // multiple of 32, so the last step is underfilled.
        let b = binomial_balance(128, 0.5, 32);
        assert!(b.utilization < 1.0);
        assert!(
            b.utilization > 0.8,
            "utilization should be moderately high: {}",
            b.utilization
        );
        // Lower density worsens relative imbalance.
        let sparse = binomial_balance(128, 0.05, 32);
        assert!(sparse.utilization < b.utilization);
    }

    #[test]
    fn expected_steps_bounds() {
        let b = binomial_balance(64, 0.25, 16);
        // At least the work-limited bound, at most the dense bound.
        assert!(b.expected_steps >= 64.0 * 0.25 / 16.0);
        assert!(b.expected_steps <= 4.0);
    }

    #[test]
    fn structured_is_perfect() {
        assert_eq!(structured_utilization(), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_lanes_panics() {
        let _ = binomial_balance(8, 0.5, 0);
    }
}
