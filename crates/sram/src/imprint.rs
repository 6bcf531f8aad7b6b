//! Data-imprinting (circuit-aging) effects.
//!
//! The paper's related-work discussion (§9.2) covers a second family of
//! SRAM data-retention attacks: when a cell holds the same value for a
//! very long time, bias-temperature instability shifts its inverters so
//! that its *power-up* state drifts toward the held value. Those attacks
//! need years of aging and still recover data only partially — the paper
//! contrasts them with Volt Boot's instant, error-free retention.
//!
//! We model imprinting as an optional overlay so that the comparison can
//! be demonstrated (see the `aging_imprint` example): aging a cell while
//! it holds value `v` moves its effective power-up probability toward `v`
//! with a saturating exponential in aged time.

use crate::array::SramArray;
use crate::cell::PowerUpKind;
use std::time::Duration;

/// Aging law constants.
///
/// `shift(t) = max_shift * (1 - exp(-t / tau))` — the probability mass
/// moved from the cell's native power-up bias toward the imprinted value
/// after holding it for time `t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImprintModel {
    /// Upper bound of the bias shift (published results suggest even
    /// decade-long imprints give only modest recovery; default 0.35).
    pub max_shift: f64,
    /// Aging time constant (default 4 years).
    pub tau: Duration,
}

impl ImprintModel {
    /// Default calibration (see type docs).
    pub fn calibrated() -> Self {
        ImprintModel { max_shift: 0.35, tau: Duration::from_secs(4 * 365 * 24 * 3600) }
    }

    /// Bias shift toward the imprinted value after holding it for `aged`.
    pub fn shift(&self, aged: Duration) -> f64 {
        self.max_shift * (1.0 - (-aged.as_secs_f64() / self.tau.as_secs_f64()).exp())
    }
}

impl Default for ImprintModel {
    fn default() -> Self {
        ImprintModel::calibrated()
    }
}

/// An imprinting overlay for one array: records how long each currently
/// powered value has been held and predicts the aged power-up image.
///
/// ```rust
/// use std::time::Duration;
/// use voltboot_sram::imprint::{ImprintModel, ImprintedArray};
/// use voltboot_sram::{ArrayConfig, SramArray};
///
/// let mut sram = SramArray::new(ArrayConfig::with_bytes("k", 64), 5);
/// sram.power_on()?;
/// sram.write_bytes(0, &[0xC3; 64]);
/// let mut aged = ImprintedArray::begin(&sram, ImprintModel::calibrated());
/// let fresh_recovery = aged.expected_recovery(&sram);
/// aged.age(Duration::from_secs(10 * 365 * 24 * 3600));
/// assert!(aged.expected_recovery(&sram) > fresh_recovery);
/// # Ok::<(), voltboot_sram::SramError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ImprintedArray {
    model: ImprintModel,
    /// Imprinted value per cell (the long-held data).
    imprinted: Vec<bool>,
    /// Total aging time.
    aged: Duration,
}

impl ImprintedArray {
    /// Starts aging `array`'s current contents.
    ///
    /// # Panics
    ///
    /// Panics if the array is unpowered.
    pub fn begin(array: &SramArray, model: ImprintModel) -> Self {
        let snapshot = array.snapshot().expect("imprint source must be powered");
        let imprinted = (0..snapshot.len()).map(|i| snapshot.get(i)).collect();
        ImprintedArray { model, imprinted, aged: Duration::ZERO }
    }

    /// Ages the imprint by `dt` (the array keeps holding the same data).
    pub fn age(&mut self, dt: Duration) {
        self.aged += dt;
    }

    /// Total time aged so far.
    pub fn aged(&self) -> Duration {
        self.aged
    }

    /// Probability that cell `i` of `array` powers up equal to the
    /// imprinted value, after aging.
    pub fn recovery_probability(&self, array: &SramArray, i: usize) -> f64 {
        let params = array.cell_params(i);
        let shift = self.model.shift(self.aged);
        let native_p1 = params.powerup_bias;
        let imprinted_one = self.imprinted[i];
        // Shift probability mass toward the imprinted value.
        let p1 = if imprinted_one {
            native_p1 + shift * (1.0 - native_p1)
        } else {
            native_p1 * (1.0 - shift)
        };
        if imprinted_one {
            p1
        } else {
            1.0 - p1
        }
    }

    /// Expected fraction of the imprinted data recoverable from a single
    /// post-aging power-up image of `array`.
    ///
    /// For a fresh device this is ≈0.5 (chance); even long imprints stay
    /// well below 1.0, unlike Volt Boot's 100 %.
    pub fn expected_recovery(&self, array: &SramArray) -> f64 {
        let n = array.len_bits();
        if n == 0 {
            return 1.0;
        }
        (0..n).map(|i| self.recovery_probability(array, i)).sum::<f64>() / n as f64
    }

    /// A convenience classifier: does cell `i` natively power up to the
    /// imprinted value regardless of aging (lucky strong cell)?
    pub fn natively_aligned(&self, array: &SramArray, i: usize) -> bool {
        match array.cell_params(i).powerup {
            PowerUpKind::Strong0 => !self.imprinted[i],
            PowerUpKind::Strong1 => self.imprinted[i],
            PowerUpKind::Metastable => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ArrayConfig;

    fn aged_array(years: u64) -> (SramArray, ImprintedArray) {
        let mut s = SramArray::new(ArrayConfig::with_bytes("t", 512), 11);
        s.power_on().unwrap();
        s.write_bytes(0, &vec![0xC3; 512]);
        let mut imp = ImprintedArray::begin(&s, ImprintModel::calibrated());
        imp.age(Duration::from_secs(years * 365 * 24 * 3600));
        (s, imp)
    }

    #[test]
    fn fresh_device_recovers_at_chance() {
        let (s, imp) = aged_array(0);
        let r = imp.expected_recovery(&s);
        assert!((r - 0.5).abs() < 0.05, "fresh recovery {r}");
    }

    #[test]
    fn aging_improves_recovery_monotonically() {
        let (s1, i1) = aged_array(1);
        let (s10, i10) = aged_array(10);
        assert!(i10.expected_recovery(&s10) > i1.expected_recovery(&s1));
    }

    #[test]
    fn even_decade_aging_stays_well_below_perfect() {
        let (s, imp) = aged_array(10);
        let r = imp.expected_recovery(&s);
        assert!(r < 0.85, "decade-aged recovery {r} should stay below 0.85");
        assert!(r > 0.6, "decade-aged recovery {r} should beat chance");
    }

    #[test]
    fn shift_saturates_at_max() {
        let m = ImprintModel::calibrated();
        let long = m.shift(Duration::from_secs(1000 * 365 * 24 * 3600));
        assert!((long - m.max_shift).abs() < 1e-6);
    }

    #[test]
    fn recovery_probability_is_a_probability() {
        let (s, imp) = aged_array(5);
        for i in 0..s.len_bits() {
            let p = imp.recovery_probability(&s, i);
            assert!((0.0..=1.0).contains(&p), "p={p} at {i}");
        }
    }
}
