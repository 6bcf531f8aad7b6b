//! Figure 7: Volt Boot against bare-metal victims retains i-caches with
//! full accuracy on both Broadcom SoCs.
//!
//! The victim enables its caches and executes a NOP sled on all four
//! cores; the attack holds VDD_CORE across the power cycle; the
//! extracted i-cache images match the pre-attack images bit for bit and
//! are full of the sled's `0xD503201F` words.

use crate::analysis;
use crate::attack::{Extraction, VoltBootAttack};
use crate::workloads;
use voltboot_soc::devices;
use voltboot_sram::PackedBits;

/// Result for one device.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Device {
    /// SoC name (`BCM2711` / `BCM2837`).
    pub soc: String,
    /// Per-core retention accuracy (extracted vs pre-attack image) of
    /// i-cache way 0.
    pub per_core_accuracy: Vec<f64>,
    /// NOP words found in core 0's extracted way-0 image.
    pub nop_words_core0: usize,
    /// Core 0's extracted way-0 image (for rendering).
    pub way_image_core0: PackedBits,
}

/// The two-device figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Result {
    /// One entry per device.
    pub devices: Vec<Fig7Device>,
}

/// Runs the experiment on both Raspberry Pis (in parallel — the two
/// boards are independent).
pub fn run(seed: u64) -> Fig7Result {
    let jobs: Vec<Box<dyn FnOnce() -> Fig7Device + Send>> = [
        (devices::raspberry_pi_4 as fn(u64) -> voltboot_soc::Soc, "TP15"),
        (devices::raspberry_pi_3 as fn(u64) -> voltboot_soc::Soc, "PP58"),
    ]
    .into_iter()
    .map(|(build, pad)| Box::new(move || run_device(seed, build, pad)) as Box<_>)
    .collect();
    Fig7Result { devices: voltboot_sram::par::join_all(jobs) }
}

/// The attack flow on one device.
fn run_device(seed: u64, build: fn(u64) -> voltboot_soc::Soc, pad: &str) -> Fig7Device {
    {
        let mut soc = build(seed);
        soc.power_on_all();
        workloads::baremetal_nop_fill(&mut soc).expect("victim runs");
        let cores: Vec<usize> = (0..soc.core_count()).collect();
        let before: Vec<PackedBits> =
            cores.iter().map(|&c| soc.core(c).unwrap().l1i.way_image(0).unwrap()).collect();

        let outcome = VoltBootAttack::new(pad)
            .extraction(Extraction::Caches { cores: cores.clone() })
            .execute(&mut soc)
            .expect("attack runs");

        let per_core_accuracy: Vec<f64> = cores
            .iter()
            .map(|&c| {
                let image = &outcome.image(&format!("core{c}.l1i.way0")).unwrap().bits;
                1.0 - analysis::fractional_hamming(image, &before[c])
            })
            .collect();
        let way0 = outcome.image("core0.l1i.way0").unwrap().bits.clone();
        let nop_words_core0 = analysis::count_pattern(&way0, &0xD503201Fu32.to_le_bytes());
        Fig7Device {
            soc: soc.soc_name().to_string(),
            per_core_accuracy,
            nop_words_core0,
            way_image_core0: way0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_devices_retain_with_full_accuracy() {
        let r = run(0xF167);
        assert_eq!(r.devices.len(), 2);
        for d in &r.devices {
            assert_eq!(d.per_core_accuracy.len(), 4);
            for (core, &acc) in d.per_core_accuracy.iter().enumerate() {
                assert_eq!(acc, 1.0, "{} core {core}: accuracy {acc}", d.soc);
            }
            assert!(d.nop_words_core0 > 1000, "{}: {} NOPs", d.soc, d.nop_words_core0);
        }
    }
}
