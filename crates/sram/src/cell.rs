//! Per-cell stochastic parameters.
//!
//! Process variation gives every 6T cell its own electrical personality.
//! Three quantities matter for the attacks this repository reproduces:
//!
//! * the **power-up bias** — which value the cell resolves to when powered
//!   with no residual charge (the SRAM-PUF effect);
//! * the **data-retention voltage (DRV)** — the minimum supply at which
//!   the cross-coupled inverters keep their state;
//! * the **decay budget** — a lognormal multiplier on the population-median
//!   unpowered retention interval.
//!
//! Parameters are never stored; they are recomputed on demand from the
//! array seed and cell index (see [`crate::rng`]).

use crate::rng::{cell_word, event_word, std_normal, unit_f64, Stream};

/// Classification of a cell's power-up behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerUpKind {
    /// The cell reliably powers up as `0`.
    Strong0,
    /// The cell reliably powers up as `1`.
    Strong1,
    /// The cell's power-up value is noisy; `bias` gives P(value = 1).
    Metastable,
}

/// Distribution constants for the default 28–40 nm-class calibration.
///
/// * 35 % of cells are strong-0, 35 % strong-1, 30 % metastable with a
///   uniform bias. Two power-ups of the same array then differ in an
///   expected `0.30 * E[2p(1-p)] = 0.30 / 3 = 10 %` of bits — the ≈0.10
///   fractional Hamming distance the paper reports between a cold-booted
///   cache image and the cache's startup state (Table 1), and the noise
///   level reported in the SRAM-PUF literature.
/// * DRV ~ N(0.30 V, 0.04 V) clamped to \[0.05 V, 0.55 V\]: far below the
///   0.8–1.3 V nominal rails of the evaluated SoCs (Table 3), which is why
///   holding the rail at nominal retains every cell.
/// * Decay budget ~ LogNormal(0, 0.5): combined with the Arrhenius median
///   this yields ≈80 % retention at −110 °C / 20 ms and ≈0 % at −40 °C.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellDistribution {
    /// Fraction of cells that are metastable at power-up.
    pub metastable_fraction: f64,
    /// Mean data-retention voltage in volts.
    pub drv_mean: f64,
    /// Standard deviation of the data-retention voltage in volts.
    pub drv_sigma: f64,
    /// Lower clamp for the data-retention voltage in volts.
    pub drv_min: f64,
    /// Upper clamp for the data-retention voltage in volts.
    pub drv_max: f64,
    /// `sigma` of the lognormal decay-budget multiplier.
    pub decay_sigma: f64,
}

impl CellDistribution {
    /// The default calibration described in the type-level docs.
    pub fn calibrated() -> Self {
        CellDistribution {
            metastable_fraction: 0.30,
            drv_mean: 0.30,
            drv_sigma: 0.04,
            drv_min: 0.05,
            drv_max: 0.55,
            decay_sigma: 0.5,
        }
    }

    /// Expected fractional Hamming distance between two independent
    /// power-ups of the same array.
    pub fn expected_powerup_noise(&self) -> f64 {
        // Metastable cells have bias p ~ U(0,1); two samples differ with
        // probability E[2p(1-p)] = 1/3. Strong cells never differ.
        self.metastable_fraction / 3.0
    }
}

impl Default for CellDistribution {
    fn default() -> Self {
        CellDistribution::calibrated()
    }
}

/// The derived, immutable parameters of a single cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellParams {
    /// Power-up behaviour class.
    pub powerup: PowerUpKind,
    /// Probability the cell powers up as `1`.
    pub powerup_bias: f64,
    /// Data-retention voltage in volts.
    pub drv: f64,
    /// Multiplier on the population-median unpowered retention interval.
    pub decay_budget: f64,
}

/// Derives only the power-up class and bias of one cell — the exact
/// computation [`CellParams::derive`] performs for that quantity, split
/// out so the batched resolution engine can re-derive a single stream
/// without paying for the other two.
pub(crate) fn derive_powerup(
    seed: u64,
    index: usize,
    dist: &CellDistribution,
) -> (PowerUpKind, f64) {
    let bias_word = cell_word(seed, index, Stream::PowerUpBias);
    let u = unit_f64(bias_word);
    let strong_fraction = 1.0 - dist.metastable_fraction;
    if u < strong_fraction / 2.0 {
        (PowerUpKind::Strong0, 0.0)
    } else if u < strong_fraction {
        (PowerUpKind::Strong1, 1.0)
    } else {
        // Re-mix for an independent uniform bias in (0, 1).
        let bias = unit_f64(crate::rng::mix64(bias_word ^ 0x5bf0_3635));
        (PowerUpKind::Metastable, bias)
    }
}

/// The salt [`derive_drv`] re-mixes a cell's DRV word with to draw the
/// second uniform of its Box–Muller pair.
pub(crate) const DRV_PAIR_SALT: u64 = 0xa5a5;

/// Derives only the data-retention voltage of one cell (see
/// [`derive_powerup`]).
pub(crate) fn derive_drv(seed: u64, index: usize, dist: &CellDistribution) -> f64 {
    let drv_word = cell_word(seed, index, Stream::Drv);
    let z = std_normal(drv_word, crate::rng::mix64(drv_word ^ DRV_PAIR_SALT));
    drv_from_normal(z, dist)
}

/// The DRV of a cell whose standard normal draw is `z`: the last step of
/// [`derive_drv`], monotone in `z` (non-decreasing for `drv_sigma ≥ 0`),
/// since each rounded operation and the clamp are.
#[inline(always)]
pub(crate) fn drv_from_normal(z: f64, dist: &CellDistribution) -> f64 {
    (dist.drv_mean + dist.drv_sigma * z).clamp(dist.drv_min, dist.drv_max)
}

/// Derives only the decay budget of one cell (see [`derive_powerup`]).
pub(crate) fn derive_decay_budget(seed: u64, index: usize, dist: &CellDistribution) -> f64 {
    let decay_word = cell_word(seed, index, Stream::DecayBudget);
    let zn = std_normal(decay_word, crate::rng::mix64(decay_word ^ 0x3c3c));
    (dist.decay_sigma * zn).exp()
}

impl CellParams {
    /// Derives the parameters of cell `index` in the array with `seed`.
    pub fn derive(seed: u64, index: usize, dist: &CellDistribution) -> Self {
        let (powerup, powerup_bias) = derive_powerup(seed, index, dist);
        let drv = derive_drv(seed, index, dist);
        let decay_budget = derive_decay_budget(seed, index, dist);
        CellParams { powerup, powerup_bias, drv, decay_budget }
    }

    /// Samples the power-up value for a given power-on `event` counter.
    ///
    /// Strong cells always return their fixed value; metastable cells
    /// resolve randomly (deterministically per event) with their bias.
    pub fn sample_powerup(&self, seed: u64, index: usize, event: u64) -> bool {
        match self.powerup {
            PowerUpKind::Strong0 => false,
            PowerUpKind::Strong1 => true,
            PowerUpKind::Metastable => unit_f64(event_word(seed, index, event)) < self.powerup_bias,
        }
    }

    /// Whether the cell retains state when the rail is held at `voltage`.
    pub fn retains_at(&self, voltage: f64) -> bool {
        voltage >= self.drv
    }

    /// Samples the power-up value of cell `index` without deriving the
    /// full parameter set — the hot path when an entire array is known to
    /// have lost its state (a plain reboot of a megabyte-class cache).
    pub fn sample_powerup_only(
        seed: u64,
        index: usize,
        dist: &CellDistribution,
        event: u64,
    ) -> bool {
        let bias_word = cell_word(seed, index, Stream::PowerUpBias);
        let u = unit_f64(bias_word);
        let strong_fraction = 1.0 - dist.metastable_fraction;
        if u < strong_fraction / 2.0 {
            false
        } else if u < strong_fraction {
            true
        } else {
            let bias = unit_f64(crate::rng::mix64(bias_word ^ 0x5bf0_3635));
            unit_f64(event_word(seed, index, event)) < bias
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(n: usize) -> Vec<CellParams> {
        let dist = CellDistribution::calibrated();
        (0..n).map(|i| CellParams::derive(0xfeed, i, &dist)).collect()
    }

    #[test]
    fn derivation_is_deterministic() {
        let dist = CellDistribution::calibrated();
        let a = CellParams::derive(1, 7, &dist);
        let b = CellParams::derive(1, 7, &dist);
        assert_eq!(a, b);
        assert_ne!(a, CellParams::derive(2, 7, &dist));
    }

    #[test]
    fn class_fractions_match_distribution() {
        let cells = params(100_000);
        let meta = cells.iter().filter(|c| c.powerup == PowerUpKind::Metastable).count();
        let ones = cells.iter().filter(|c| c.powerup == PowerUpKind::Strong1).count();
        let zeros = cells.iter().filter(|c| c.powerup == PowerUpKind::Strong0).count();
        assert!((meta as f64 / 100_000.0 - 0.30).abs() < 0.01, "meta {meta}");
        assert!((ones as f64 / 100_000.0 - 0.35).abs() < 0.01, "ones {ones}");
        assert!((zeros as f64 / 100_000.0 - 0.35).abs() < 0.01, "zeros {zeros}");
    }

    #[test]
    fn powerup_ones_fraction_is_half() {
        let cells = params(100_000);
        let ones =
            cells.iter().enumerate().filter(|(i, c)| c.sample_powerup(0xfeed, *i, 0)).count();
        let frac = ones as f64 / 100_000.0;
        assert!((frac - 0.5).abs() < 0.01, "ones fraction {frac}");
    }

    #[test]
    fn powerup_noise_is_about_ten_percent() {
        let cells = params(100_000);
        let differing = cells
            .iter()
            .enumerate()
            .filter(|(i, c)| c.sample_powerup(0xfeed, *i, 0) != c.sample_powerup(0xfeed, *i, 1))
            .count();
        let frac = differing as f64 / 100_000.0;
        let expected = CellDistribution::calibrated().expected_powerup_noise();
        assert!((frac - expected).abs() < 0.01, "noise {frac} vs expected {expected}");
    }

    #[test]
    fn drv_is_clamped_and_below_nominal_rails() {
        let dist = CellDistribution::calibrated();
        for c in params(50_000) {
            assert!(c.drv >= dist.drv_min && c.drv <= dist.drv_max, "drv {}", c.drv);
            // Every evaluated rail (0.8 V, 1.2 V, 1.3 V) retains every cell.
            assert!(c.retains_at(0.8));
        }
    }

    #[test]
    fn decay_budget_median_near_one() {
        let mut budgets: Vec<f64> = params(50_000).iter().map(|c| c.decay_budget).collect();
        budgets.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = budgets[budgets.len() / 2];
        assert!((median - 1.0).abs() < 0.05, "median {median}");
    }

    #[test]
    fn strong_cells_sample_consistently() {
        let dist = CellDistribution::calibrated();
        for i in 0..1000 {
            let c = CellParams::derive(9, i, &dist);
            if c.powerup != PowerUpKind::Metastable {
                assert_eq!(c.sample_powerup(9, i, 0), c.sample_powerup(9, i, 99));
            }
        }
    }
}
