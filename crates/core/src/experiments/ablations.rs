//! Ablation experiments for the design choices DESIGN.md calls out.
//!
//! * [`remanence_curve`] — retention vs (temperature × off-time),
//!   validating the SRAM calibration against the published remanence
//!   numbers the paper cites;
//! * [`probe_current_sweep`] — attack accuracy vs probe current limit on
//!   a core-shared rail, locating the paper's ">3 A supply" requirement;
//! * [`hold_voltage_sweep`] — retention vs held voltage, tracing the
//!   data-retention-voltage distribution that makes the attack possible
//!   at any rail level above ≈0.5 V.

use crate::analysis;
use crate::attack::{Extraction, VoltBootAttack};
use crate::workloads;
use std::time::Duration;
use voltboot_pdn::Probe;
use voltboot_soc::devices;
use voltboot_sram::{ArrayConfig, OffEvent, SramArray, Temperature};

/// One point of the remanence surface.
#[derive(Debug, Clone, PartialEq)]
pub struct RemanencePoint {
    /// Temperature in Celsius.
    pub celsius: f64,
    /// Time without power, in milliseconds.
    pub off_ms: u64,
    /// Fraction of cells that retained their value.
    pub retention: f64,
}

/// Sweeps retention over temperature × off-time on a standalone array
/// (no shared-domain drain, like the benchtop SRAM studies the paper
/// cites).
pub fn remanence_curve(seed: u64) -> Vec<RemanencePoint> {
    let mut out = Vec::new();
    for &celsius in &[-150.0, -110.0, -90.0, -40.0, 0.0, 25.0] {
        for &off_ms in &[1u64, 5, 20, 100, 500] {
            let mut array = SramArray::new(ArrayConfig::with_bytes("curve", 2048), seed);
            array.power_on().expect("fresh array");
            array.fill(0xA5).expect("powered");
            array.power_off(OffEvent::unpowered()).expect("powered");
            array.elapse(Duration::from_millis(off_ms), Temperature::from_celsius(celsius));
            let report = array.power_on().expect("cycled");
            out.push(RemanencePoint { celsius, off_ms, retention: report.retention_fraction() });
        }
    }
    out
}

/// One point of the probe-current ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeSweepPoint {
    /// Probe current limit in amperes.
    pub current_limit: f64,
    /// Minimum rail voltage during the disconnect surge.
    pub transient_min_voltage: f64,
    /// Extraction accuracy vs the pre-attack image.
    pub accuracy: f64,
}

/// Sweeps the probe's current limit against a Raspberry Pi 4 victim
/// (whose core rail also feeds the CPU cluster — the worst case).
pub fn probe_current_sweep(seed: u64) -> Vec<ProbeSweepPoint> {
    probe_current_sweep_points(seed, &[0.1, 0.3, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 5.0])
}

/// [`probe_current_sweep`] over caller-chosen current limits.
pub fn probe_current_sweep_points(seed: u64, limits: &[f64]) -> Vec<ProbeSweepPoint> {
    let mut out = Vec::new();
    for &limit in limits {
        let mut soc = devices::raspberry_pi_4(seed ^ limit.to_bits());
        soc.power_on_all();
        workloads::baremetal_nop_fill(&mut soc).expect("victim runs");
        let truth = soc.core(0).unwrap().l1i.way_image(0).unwrap();
        let outcome = VoltBootAttack::new("TP15")
            .probe(Probe { voltage: 0.0, current_limit: limit, series_resistance: 0.02 })
            .extraction(Extraction::Caches { cores: vec![0] })
            .execute(&mut soc)
            .expect("attack runs");
        let got = &outcome.image("core0.l1i.way0").unwrap().bits;
        out.push(ProbeSweepPoint {
            current_limit: limit,
            transient_min_voltage: outcome.transient_min_voltage.unwrap_or(0.0),
            accuracy: 1.0 - analysis::fractional_hamming(got, &truth),
        });
    }
    out
}

/// One point of the hold-voltage ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct HoldVoltagePoint {
    /// Held voltage in volts.
    pub volts: f64,
    /// Fraction of cells retained.
    pub retention: f64,
}

/// Sweeps the steady hold voltage on a standalone array: the retention
/// curve is the CDF of the cells' data-retention voltages.
pub fn hold_voltage_sweep(seed: u64) -> Vec<HoldVoltagePoint> {
    let mut out = Vec::new();
    for &centivolts in &[5u32, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 80] {
        let volts = centivolts as f64 / 100.0;
        let mut array = SramArray::new(ArrayConfig::with_bytes("hv", 4096), seed);
        array.power_on().expect("fresh array");
        array.fill(0x3C).expect("powered");
        array.power_off(OffEvent::held(volts)).expect("powered");
        array.elapse(Duration::from_secs(10), Temperature::ROOM);
        let report = array.power_on().expect("cycled");
        out.push(HoldVoltagePoint { volts, retention: report.retention_fraction() });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(points: &[RemanencePoint], celsius: f64, off_ms: u64) -> f64 {
        points
            .iter()
            .find(|p| p.celsius == celsius && p.off_ms == off_ms)
            .expect("point exists")
            .retention
    }

    #[test]
    fn remanence_curve_matches_the_literature_anchors() {
        let curve = remanence_curve(0xCE11);
        // The calibration anchor: ~80% at -110 C / 20 ms.
        let anchor = point(&curve, -110.0, 20);
        assert!((anchor - 0.79).abs() < 0.06, "-110C/20ms: {anchor}");
        // Nothing at -40 C past a few ms.
        assert!(point(&curve, -40.0, 100) < 0.01);
        assert!(point(&curve, -40.0, 500) < 0.01);
        // Room temperature: gone within a millisecond.
        assert!(point(&curve, 25.0, 1) < 0.01);
        // Deep cryogenic: nearly everything survives short cycles.
        assert!(point(&curve, -150.0, 20) > 0.95);
    }

    #[test]
    fn remanence_is_monotone_along_both_axes() {
        let curve = remanence_curve(0xCE12);
        for &t in &[-150.0, -110.0, -90.0, -40.0, 0.0, 25.0] {
            let series: Vec<f64> =
                [1u64, 5, 20, 100, 500].iter().map(|&ms| point(&curve, t, ms)).collect();
            assert!(series.windows(2).all(|w| w[0] >= w[1] - 1e-9), "{t} C: {series:?}");
        }
        for &ms in &[1u64, 5, 20, 100, 500] {
            let series: Vec<f64> = [25.0, 0.0, -40.0, -90.0, -110.0, -150.0]
                .iter()
                .map(|&t| point(&curve, t, ms))
                .collect();
            assert!(series.windows(2).all(|w| w[0] <= w[1] + 1e-9), "{ms} ms: {series:?}");
        }
    }

    #[test]
    fn probe_sweep_shows_the_current_threshold() {
        // A reduced sweep keeps the debug-mode test quick; the bench
        // binary runs the full nine-point curve.
        let sweep = probe_current_sweep_points(0x53EE, &[0.1, 1.0, 3.0]);
        let acc =
            |limit: f64| sweep.iter().find(|p| p.current_limit == limit).expect("point").accuracy;
        assert!(acc(0.1) < 0.95, "a 0.1 A source must corrupt cells: {}", acc(0.1));
        assert_eq!(acc(3.0), 1.0, "the paper's 3 A supply is error-free");
        // Accuracy is monotone in current capability, up to chance-level
        // noise at the bottom of the curve (each point is its own die).
        let accs: Vec<f64> = sweep.iter().map(|p| p.accuracy).collect();
        assert!(accs.windows(2).all(|w| w[0] <= w[1] + 0.02), "{accs:?}");
    }

    #[test]
    fn hold_voltage_sweep_traces_the_drv_cdf() {
        let sweep = hold_voltage_sweep(0xD2F);
        let ret = |v: f64| sweep.iter().find(|p| p.volts == v).expect("point").retention;
        assert!(ret(0.05) < 0.01, "0.05 V holds nothing: {}", ret(0.05));
        assert!((ret(0.30) - 0.5).abs() < 0.05, "0.30 V is the DRV median: {}", ret(0.30));
        assert_eq!(ret(0.60), 1.0, "0.60 V holds everything");
        assert_eq!(ret(0.80), 1.0, "nominal rail holds everything");
        let rets: Vec<f64> = sweep.iter().map(|p| p.retention).collect();
        assert!(rets.windows(2).all(|w| w[0] <= w[1] + 1e-9), "{rets:?}");
    }
}
