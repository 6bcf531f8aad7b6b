//! Power domains and the loads inside them.

/// The three broad domain areas the paper divides an SoC's supply into (§2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainKind {
    /// Processing elements plus the L1 caches and their control logic.
    Core,
    /// Memories and their peripherals (iRAM, L2/L3, memory controllers).
    Memory,
    /// I/O controllers and external peripherals.
    Io,
}

impl DomainKind {
    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            DomainKind::Core => "core",
            DomainKind::Memory => "memory",
            DomainKind::Io => "io",
        }
    }
}

/// One on-die load inside a domain.
///
/// Steady current is what the load draws in normal operation; the surge
/// figures describe the transient it pulls from whatever source remains
/// when the main supply is cut abruptly (the power-hungry compute cores
/// refill their decoupling and keep switching for a few microseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct Load {
    /// Name, e.g. `"arm-cluster"` or `"iram"`.
    pub name: String,
    /// Steady-state current draw in amperes.
    pub steady_current: f64,
    /// Peak current pulled during an abrupt main-supply disconnect, in
    /// amperes.
    pub disconnect_surge_current: f64,
    /// Duration of the surge, in seconds.
    pub surge_duration: f64,
}

impl Load {
    /// A compute-cluster-like load: hundreds of mA steady, amps of surge.
    pub fn compute_cluster(name: impl Into<String>, steady_current: f64, surge: f64) -> Self {
        Load {
            name: name.into(),
            steady_current,
            disconnect_surge_current: surge,
            surge_duration: 20e-6,
        }
    }

    /// A pure-SRAM load: single-digit mA, negligible surge.
    pub fn sram(name: impl Into<String>, steady_current: f64) -> Self {
        Load {
            name: name.into(),
            steady_current,
            disconnect_surge_current: steady_current * 2.0,
            surge_duration: 2e-6,
        }
    }
}

/// A power-gated group of loads fed from one rail.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerDomain {
    /// Domain name, e.g. `"core"` or `"l1-memory"`.
    pub name: String,
    /// Broad classification.
    pub kind: DomainKind,
    /// The rail (by name) that feeds this domain.
    pub rail: String,
    /// Loads inside the domain.
    pub loads: Vec<Load>,
    /// Whether the domain's power gate is currently closed (powered).
    pub gated_on: bool,
}

impl PowerDomain {
    /// Creates a powered-on domain.
    pub fn new(name: impl Into<String>, kind: DomainKind, rail: impl Into<String>) -> Self {
        PowerDomain {
            name: name.into(),
            kind,
            rail: rail.into(),
            loads: Vec::new(),
            gated_on: true,
        }
    }

    /// Adds a load (builder style).
    pub fn with_load(mut self, load: Load) -> Self {
        self.loads.push(load);
        self
    }

    /// Total steady current of the domain's loads, in amperes.
    pub fn steady_current(&self) -> f64 {
        self.loads.iter().map(|l| l.steady_current).sum()
    }

    /// Peak disconnect-surge current of the domain's loads, in amperes.
    pub fn surge_current(&self) -> f64 {
        self.loads.iter().map(|l| l.disconnect_surge_current).sum()
    }

    /// Longest surge duration among the loads, in seconds.
    pub fn surge_duration(&self) -> f64 {
        self.loads.iter().map(|l| l.surge_duration).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_aggregates_loads() {
        let d = PowerDomain::new("core", DomainKind::Core, "VDD_CORE")
            .with_load(Load::compute_cluster("arm", 0.5, 2.5))
            .with_load(Load::sram("l1", 0.008));
        assert!((d.steady_current() - 0.508).abs() < 1e-12);
        assert!((d.surge_current() - 2.516).abs() < 1e-12);
        assert_eq!(d.surge_duration(), 20e-6);
        assert!(d.gated_on);
    }

    #[test]
    fn sram_load_is_small() {
        let l = Load::sram("iram", 0.008);
        assert!(l.disconnect_surge_current < 0.1);
    }

    #[test]
    fn kind_labels() {
        assert_eq!(DomainKind::Core.label(), "core");
        assert_eq!(DomainKind::Memory.label(), "memory");
        assert_eq!(DomainKind::Io.label(), "io");
    }
}
