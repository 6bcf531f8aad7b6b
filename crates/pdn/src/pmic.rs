//! The PMIC: the regulator package and its bring-up sequencing.

use crate::rail::Rail;

/// A power-management IC: a named package of regulator rails brought up in
/// a fixed sequence when the board's main input appears.
#[derive(Debug, Clone, PartialEq)]
pub struct Pmic {
    /// Part name, e.g. `"MxL7704"` (Pi 4), `"PAM2306"` (Pi 3 area),
    /// `"LTC3589"` (i.MX53 QSB).
    pub model: String,
    /// Output rails, in bring-up order.
    pub rails: Vec<Rail>,
}

impl Pmic {
    /// Creates a PMIC with no rails.
    pub fn new(model: impl Into<String>) -> Self {
        Pmic { model: model.into(), rails: Vec::new() }
    }

    /// Adds a rail (builder style); rails power up in insertion order.
    pub fn with_rail(mut self, rail: Rail) -> Self {
        self.rails.push(rail);
        self
    }

    /// Looks up a rail by name.
    pub fn rail(&self, name: &str) -> Option<&Rail> {
        self.rails.iter().find(|r| r.name == name)
    }

    /// The bring-up order as rail names.
    pub fn sequence(&self) -> Vec<&str> {
        self.rails.iter().map(|r| r.name.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rail::RegulatorKind;

    #[test]
    fn rails_power_up_in_insertion_order() {
        let pmic = Pmic::new("MxL7704")
            .with_rail(Rail::new("VDD_IO", 3.3, RegulatorKind::Ldo))
            .with_rail(Rail::new("VDD_MEM", 1.1, RegulatorKind::Buck))
            .with_rail(Rail::new("VDD_CORE", 0.8, RegulatorKind::Buck));
        assert_eq!(pmic.sequence(), vec!["VDD_IO", "VDD_MEM", "VDD_CORE"]);
        assert_eq!(pmic.rail("VDD_CORE").unwrap().nominal_voltage, 0.8);
        assert!(pmic.rail("VDD_X").is_none());
    }
}
