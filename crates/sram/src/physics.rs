//! Temperature and leakage physics shared by every cell.
//!
//! The quantity the cold-boot literature cares about is how long an
//! unpowered SRAM cell keeps enough differential charge on its internal
//! nodes to resolve back to its old state when power returns. We model the
//! population median of that interval with an Arrhenius temperature law and
//! give each cell a lognormal multiplier around the median (process
//! variation), which reproduces the published remanence curves:
//!
//! * ≈80 % of cells retain after 20 ms without power at −110 °C
//!   (Anagnostopoulos et al., DSD'18 — cited as \[2\] in the paper);
//! * ≈0 % retain after even a few milliseconds at −40 °C (the paper's
//!   Table 1: cold-booting a Raspberry Pi 4 at the SoC's −40 °C hard limit
//!   yields a ≈50 % bit-error rate, i.e. no retention);
//! * microsecond-scale retention at room temperature.

use std::time::Duration;

/// Boltzmann constant in eV/K.
pub const BOLTZMANN_EV: f64 = 8.617_333_262e-5;

/// An absolute temperature, stored in kelvin.
///
/// ```rust
/// use voltboot_sram::Temperature;
/// let t = Temperature::from_celsius(-40.0);
/// assert!((t.kelvin() - 233.15).abs() < 1e-9);
/// assert!((t.celsius() + 40.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Temperature {
    kelvin: f64,
}

impl Temperature {
    /// Room temperature, 25 °C.
    pub const ROOM: Temperature = Temperature { kelvin: 298.15 };

    /// Creates a temperature from degrees Celsius.
    ///
    /// # Panics
    ///
    /// Panics if the result would be at or below absolute zero.
    pub fn from_celsius(celsius: f64) -> Self {
        let kelvin = celsius + 273.15;
        assert!(kelvin > 0.0, "temperature must be above absolute zero");
        Temperature { kelvin }
    }

    /// Creates a temperature from kelvin.
    ///
    /// # Panics
    ///
    /// Panics if `kelvin` is not strictly positive.
    pub fn from_kelvin(kelvin: f64) -> Self {
        assert!(kelvin > 0.0, "temperature must be above absolute zero");
        Temperature { kelvin }
    }

    /// The temperature in kelvin.
    pub fn kelvin(self) -> f64 {
        self.kelvin
    }

    /// The temperature in degrees Celsius.
    pub fn celsius(self) -> f64 {
        self.kelvin - 273.15
    }
}

impl Default for Temperature {
    fn default() -> Self {
        Temperature::ROOM
    }
}

impl std::fmt::Display for Temperature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1}\u{b0}C", self.celsius())
    }
}

/// Arrhenius model of the population-median charge-retention interval.
///
/// `median_retention(T) = t_ref * exp(Ea/k * (1/T - 1/T_ref))`
///
/// The default calibration pins the median retention at −110 °C to 30 ms
/// (so ≈80 % of cells survive a 20 ms power-off there, given the default
/// lognormal spread of [`crate::CellParams`]) with an activation energy of
/// 0.27 eV, which puts −40 °C retention well under a millisecond and room-
/// temperature retention in the microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakageModel {
    /// Median retention interval at the reference temperature, in seconds.
    pub t_ref_seconds: f64,
    /// Reference temperature.
    pub reference: Temperature,
    /// Activation energy of the dominant leakage path, in eV.
    pub activation_energy_ev: f64,
}

impl LeakageModel {
    /// The calibration used throughout the reproduction (see module docs).
    pub fn calibrated() -> Self {
        LeakageModel {
            t_ref_seconds: 0.030,
            reference: Temperature::from_celsius(-110.0),
            activation_energy_ev: 0.27,
        }
    }

    /// Population-median retention interval at temperature `t`,
    /// saturating at [`Duration::MAX`] where the Arrhenius factor
    /// overflows it (the DRAM calibration does below about −180 °C).
    pub fn median_retention(&self, t: Temperature) -> Duration {
        let exponent = (self.activation_energy_ev / BOLTZMANN_EV)
            * (1.0 / t.kelvin() - 1.0 / self.reference.kelvin());
        Duration::try_from_secs_f64(self.t_ref_seconds * exponent.exp()).unwrap_or(Duration::MAX)
    }

    /// Dimensionless decay stress contributed by spending `dt` unpowered at
    /// temperature `t`.
    ///
    /// A cell whose accumulated stress exceeds its per-cell decay budget
    /// (median 1.0) has lost its state.
    pub fn stress(&self, dt: Duration, t: Temperature) -> f64 {
        dt.as_secs_f64() / self.median_retention(t).as_secs_f64()
    }
}

impl Default for LeakageModel {
    fn default() -> Self {
        LeakageModel::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_retention_at_reference_matches_calibration() {
        let m = LeakageModel::calibrated();
        let t = m.median_retention(Temperature::from_celsius(-110.0));
        assert!((t.as_secs_f64() - 0.030).abs() < 1e-12);
    }

    #[test]
    fn retention_is_monotone_in_temperature() {
        let m = LeakageModel::calibrated();
        let cold = m.median_retention(Temperature::from_celsius(-110.0));
        let cool = m.median_retention(Temperature::from_celsius(-40.0));
        let room = m.median_retention(Temperature::from_celsius(25.0));
        assert!(cold > cool, "{cold:?} vs {cool:?}");
        assert!(cool > room, "{cool:?} vs {room:?}");
    }

    #[test]
    fn minus_forty_retention_is_sub_millisecond() {
        let m = LeakageModel::calibrated();
        let t = m.median_retention(Temperature::from_celsius(-40.0));
        assert!(
            t < Duration::from_millis(1),
            "median retention at -40C should be < 1 ms, got {t:?}"
        );
    }

    #[test]
    fn room_temperature_retention_is_microseconds() {
        let m = LeakageModel::calibrated();
        let t = m.median_retention(Temperature::ROOM);
        assert!(t < Duration::from_micros(100), "got {t:?}");
        assert!(t > Duration::from_nanos(10), "got {t:?}");
    }

    #[test]
    fn stress_scales_linearly_with_time() {
        let m = LeakageModel::calibrated();
        let t = Temperature::from_celsius(-110.0);
        let s1 = m.stress(Duration::from_millis(30), t);
        let s2 = m.stress(Duration::from_millis(60), t);
        assert!((s1 - 1.0).abs() < 1e-9, "{s1}");
        assert!((s2 - 2.0).abs() < 1e-9, "{s2}");
    }

    #[test]
    fn temperature_display() {
        assert_eq!(Temperature::from_celsius(-40.0).to_string(), "-40.0\u{b0}C");
    }

    #[test]
    #[should_panic(expected = "absolute zero")]
    fn below_absolute_zero_panics() {
        let _ = Temperature::from_celsius(-300.0);
    }
}
