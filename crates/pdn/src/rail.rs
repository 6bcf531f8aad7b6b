//! Regulator rails.

/// The kind of regulator feeding a rail (paper Figure 4).
///
/// LDOs feed domains with limited load fluctuation; buck (switching)
/// converters feed the high-fluctuation, DVFS-capable domains where heat
/// loss matters. For the attack the distinction matters only through the
/// passives each kind requires — both expose a board-level node an
/// attacker can probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegulatorKind {
    /// Low-dropout linear regulator with a decoupling capacitor.
    Ldo,
    /// Switching (buck) converter with an LC output filter.
    Buck,
}

impl RegulatorKind {
    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            RegulatorKind::Ldo => "LDO",
            RegulatorKind::Buck => "BUCK",
        }
    }
}

/// One regulator output: a board-level supply net.
#[derive(Debug, Clone, PartialEq)]
pub struct Rail {
    /// Net name, e.g. `"VDD_CORE"` or `"VDDAL1"`.
    pub name: String,
    /// Nominal output voltage in volts.
    pub nominal_voltage: f64,
    /// Regulator topology.
    pub regulator: RegulatorKind,
    /// Series parasitic resistance seen from an external probe to the
    /// on-die loads, in ohms (board trace + package + bond).
    pub parasitic_resistance: f64,
    /// Series parasitic inductance on the same path, in henries.
    pub parasitic_inductance: f64,
}

impl Rail {
    /// Creates a rail with typical board parasitics (15 mΩ, 2 nH).
    pub fn new(name: impl Into<String>, nominal_voltage: f64, regulator: RegulatorKind) -> Self {
        Rail {
            name: name.into(),
            nominal_voltage,
            regulator,
            parasitic_resistance: 0.015,
            parasitic_inductance: 2.0e-9,
        }
    }

    /// Overrides the parasitics (builder style).
    pub fn with_parasitics(mut self, resistance: f64, inductance: f64) -> Self {
        self.parasitic_resistance = resistance;
        self.parasitic_inductance = inductance;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rail_defaults_have_small_parasitics() {
        let r = Rail::new("VDD_CORE", 0.8, RegulatorKind::Buck);
        assert!(r.parasitic_resistance < 0.1);
        assert!(r.parasitic_inductance < 1e-6);
        assert_eq!(r.regulator.label(), "BUCK");
    }

    #[test]
    fn builder_overrides() {
        let r = Rail::new("X", 1.0, RegulatorKind::Ldo).with_parasitics(0.05, 5e-9);
        assert_eq!(r.parasitic_resistance, 0.05);
        assert_eq!(r.parasitic_inductance, 5e-9);
    }
}
