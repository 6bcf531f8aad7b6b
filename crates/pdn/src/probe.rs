//! External voltage probes and the board points they attach to.

/// An external voltage source an attacker attaches to the board.
///
/// The paper uses a bench power supply with more than 3 A of drive
/// capability; the current limit is the parameter that decides whether the
/// held rail rides through the disconnect surge (paper §6: "a power supply
/// capable of supplying sufficient current is essential when the target
/// memory domain also supplies power to the CPU core(s)").
///
/// ```rust
/// use voltboot_pdn::Probe;
///
/// let bench = Probe::bench_supply(0.8, 3.0);
/// let weak = Probe::weak_source(0.8, 0.2);
/// assert!(bench.current_limit > weak.current_limit);
/// assert!(bench.series_resistance < weak.series_resistance);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// Output setpoint in volts.
    pub voltage: f64,
    /// Maximum current the source can deliver before it folds back, in
    /// amperes.
    pub current_limit: f64,
    /// Output/lead series resistance in ohms.
    pub series_resistance: f64,
}

impl Probe {
    /// A bench supply: low output impedance, explicit current limit.
    pub fn bench_supply(voltage: f64, current_limit: f64) -> Self {
        Probe { voltage, current_limit, series_resistance: 0.02 }
    }

    /// A weak source such as a coin cell or an underpowered USB supply —
    /// useful for demonstrating the droop failure mode.
    pub fn weak_source(voltage: f64, current_limit: f64) -> Self {
        Probe { voltage, current_limit, series_resistance: 0.5 }
    }
}

/// A physical attachment point on the PCB: a test pad or the lead of a
/// passive component that connects to a supply rail (paper Table 3).
#[derive(Debug, Clone, PartialEq)]
pub struct ProbePoint {
    /// Pad designator, e.g. `"TP15"`, `"PP58"`, `"SH13"`.
    pub pad: String,
    /// The rail this pad exposes.
    pub rail: String,
    /// Notes, e.g. where on the board the pad sits.
    pub notes: String,
}

impl ProbePoint {
    /// Creates a probe point.
    pub fn new(pad: impl Into<String>, rail: impl Into<String>, notes: impl Into<String>) -> Self {
        ProbePoint { pad: pad.into(), rail: rail.into(), notes: notes.into() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_supply_has_low_impedance() {
        let p = Probe::bench_supply(0.8, 3.0);
        assert!(p.series_resistance < 0.1);
        assert_eq!(p.current_limit, 3.0);
    }

    #[test]
    fn weak_source_has_high_impedance() {
        let weak = Probe::weak_source(0.8, 0.2);
        let bench = Probe::bench_supply(0.8, 3.0);
        assert!(weak.series_resistance > bench.series_resistance);
        assert!(weak.current_limit < bench.current_limit);
    }

    #[test]
    fn probe_point_fields() {
        let pp = ProbePoint::new("TP15", "VDD_CORE", "near the PMIC");
        assert_eq!(pp.pad, "TP15");
        assert_eq!(pp.rail, "VDD_CORE");
    }
}
