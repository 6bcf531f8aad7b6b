//! The disconnect transient: what happens on a held rail the instant the
//! main supply disappears.
//!
//! While main power is up, an attached probe at the rail's live voltage
//! sources only a trickle. The moment the PMIC input is cut, every load on
//! the rail starts drawing from the probe instead, and the power-hungry
//! compute logic pulls a brief surge (the paper measures 400–600 mA steady
//! on a Raspberry Pi 4's VDD_CORE with momentary spikes at disconnect,
//! settling to 8 mA once the cores stop). The probe's job is to keep the
//! rail above every SRAM cell's data-retention voltage through that surge.
//!
//! The model computes the minimum instantaneous rail voltage as
//!
//! ```text
//! v_min = v_set - I_eff * (R_probe + R_parasitic) - L_parasitic * dI/dt
//! ```
//!
//! where `I_eff` is the surge current clamped at the probe's limit; if the
//! demand exceeds the limit the source folds back and the deficit collapses
//! the rail proportionally (a current-limited bench supply drops its
//! output until the load releases).

use crate::probe::Probe;
use crate::rail::Rail;

/// Aggregate surge demand a rail sees at main-supply disconnect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurgeProfile {
    /// Steady current of all loads on the rail, in amperes.
    pub steady_current: f64,
    /// Peak surge current at disconnect, in amperes.
    pub surge_current: f64,
    /// Surge duration in seconds.
    pub surge_duration: f64,
}

impl SurgeProfile {
    /// A surge-free profile (an SRAM-only rail).
    pub fn quiescent(steady_current: f64) -> Self {
        SurgeProfile { steady_current, surge_current: steady_current, surge_duration: 1e-6 }
    }

    /// Current rise rate at the disconnect edge, in A/s.
    pub fn current_slew(&self) -> f64 {
        if self.surge_duration <= 0.0 {
            return 0.0;
        }
        // The surge ramps in roughly a tenth of its duration.
        (self.surge_current - self.steady_current).max(0.0) / (self.surge_duration * 0.1)
    }
}

/// The resolved electrical outcome of a disconnect on one held rail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisconnectTransient {
    /// Steady voltage after the surge settles, in volts.
    pub steady_voltage: f64,
    /// Minimum instantaneous voltage during the surge, in volts.
    pub min_voltage: f64,
    /// Peak current actually delivered by the probe, in amperes.
    pub peak_current: f64,
    /// Whether the probe hit its current limit during the surge.
    pub current_limited: bool,
}

impl DisconnectTransient {
    /// Computes the transient for `probe` holding `rail` against `surge`.
    pub fn compute(probe: &Probe, rail: &Rail, surge: &SurgeProfile) -> Self {
        let r_total = probe.series_resistance + rail.parasitic_resistance;
        let demand = surge.surge_current;
        let delivered = demand.min(probe.current_limit);
        let current_limited = demand > probe.current_limit;

        // Resistive droop from the delivered current.
        let ir_drop = delivered * r_total;
        // Inductive kick from the surge edge.
        let l_drop = rail.parasitic_inductance * surge.current_slew();
        // Fold-back collapse when the source current-limits: the rail
        // sags until the load demand matches what the source can supply.
        let foldback = if current_limited {
            probe.voltage * (1.0 - probe.current_limit / demand)
        } else {
            0.0
        };

        let min_voltage = (probe.voltage - ir_drop - l_drop - foldback).max(0.0);
        // The steady state after the surge is subject to the same
        // current-limit physics: a source whose limit sits below the
        // *steady* demand stays folded back forever, it does not recover
        // to a healthy output once the surge passes.
        let steady_delivered = surge.steady_current.min(probe.current_limit);
        let steady_foldback = if surge.steady_current > probe.current_limit {
            probe.voltage * (1.0 - probe.current_limit / surge.steady_current)
        } else {
            0.0
        };
        let steady_voltage =
            (probe.voltage - steady_delivered * r_total - steady_foldback).max(0.0);
        DisconnectTransient {
            steady_voltage,
            min_voltage,
            peak_current: delivered,
            current_limited,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rail::RegulatorKind;

    fn core_rail() -> Rail {
        Rail::new("VDD_CORE", 0.8, RegulatorKind::Buck)
    }

    fn core_surge() -> SurgeProfile {
        // Paper: Pi 4 draws 400-600 mA through TP15, spiking at disconnect.
        SurgeProfile { steady_current: 0.5, surge_current: 2.5, surge_duration: 20e-6 }
    }

    #[test]
    fn bench_supply_rides_through_core_surge() {
        let t = DisconnectTransient::compute(
            &Probe::bench_supply(0.8, 3.0),
            &core_rail(),
            &core_surge(),
        );
        assert!(!t.current_limited);
        assert!(t.min_voltage > 0.6, "min voltage {}", t.min_voltage);
        assert!(t.steady_voltage > 0.75, "steady {}", t.steady_voltage);
    }

    #[test]
    fn weak_source_collapses_under_core_surge() {
        let t = DisconnectTransient::compute(
            &Probe::weak_source(0.8, 0.3),
            &core_rail(),
            &core_surge(),
        );
        assert!(t.current_limited);
        assert!(t.min_voltage < 0.3, "min voltage {}", t.min_voltage);
    }

    #[test]
    fn sram_only_rail_needs_almost_nothing() {
        // i.MX535's VDDAL1 feeds the iRAM but not the Cortex-A8 core, so
        // even a weak source holds it.
        let rail = Rail::new("VDDAL1", 1.3, RegulatorKind::Ldo);
        let surge = SurgeProfile::quiescent(0.008);
        let t = DisconnectTransient::compute(&Probe::weak_source(1.3, 0.1), &rail, &surge);
        assert!(!t.current_limited);
        assert!(t.min_voltage > 1.25, "min voltage {}", t.min_voltage);
    }

    #[test]
    fn droop_is_monotone_in_surge_current() {
        let probe = Probe::bench_supply(0.8, 3.0);
        let rail = core_rail();
        let mut last = f64::INFINITY;
        for surge_a in [0.5, 1.0, 2.0, 2.9, 4.0, 8.0] {
            let t = DisconnectTransient::compute(
                &probe,
                &rail,
                &SurgeProfile {
                    steady_current: 0.4,
                    surge_current: surge_a,
                    surge_duration: 20e-6,
                },
            );
            assert!(t.min_voltage <= last + 1e-12, "droop not monotone at {surge_a} A");
            last = t.min_voltage;
        }
    }

    #[test]
    fn steady_overload_folds_back_instead_of_recovering() {
        // Regression: a source whose current limit sits below the rail's
        // *steady* demand used to report a healthy post-surge voltage
        // (only the IR term was applied), masking a permanent overload.
        let rail = core_rail();
        let probe = Probe::weak_source(0.8, 0.3);
        let surge = SurgeProfile { steady_current: 1.2, surge_current: 2.5, surge_duration: 20e-6 };
        let t = DisconnectTransient::compute(&probe, &rail, &surge);
        // Foldback term alone: 0.8 * (1 - 0.3/1.2) = 0.6 V of collapse.
        assert!(
            t.steady_voltage < 0.2,
            "steady overload must collapse the held voltage, got {}",
            t.steady_voltage
        );
        // A source with ample limit at the same steady load stays healthy.
        let strong = DisconnectTransient::compute(&Probe::bench_supply(0.8, 3.0), &rail, &surge);
        assert!(strong.steady_voltage > 0.7, "got {}", strong.steady_voltage);
    }

    #[test]
    fn steady_voltage_unchanged_when_within_limit() {
        // The fix must not perturb the healthy path: steady demand below
        // the limit sees only the IR term, exactly as before.
        let t = DisconnectTransient::compute(
            &Probe::bench_supply(0.8, 3.0),
            &core_rail(),
            &core_surge(),
        );
        let r_total = 0.02 + core_rail().parasitic_resistance;
        let expected = 0.8 - 0.5 * r_total;
        assert!((t.steady_voltage - expected).abs() < 1e-12, "got {}", t.steady_voltage);
    }

    #[test]
    fn peak_current_clamped_at_limit() {
        let t = DisconnectTransient::compute(
            &Probe::bench_supply(0.8, 1.0),
            &core_rail(),
            &core_surge(),
        );
        assert_eq!(t.peak_current, 1.0);
        assert!(t.current_limited);
    }
}
