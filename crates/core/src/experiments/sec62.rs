//! §6.2: how much retained SRAM is accessible to an attacker after boot?
//!
//! The experiment fills a target memory with a known pattern, runs the
//! attack, and measures how much of the pattern survives the device's own
//! boot path. On the Broadcom SoCs the software-enabled L1 caches are
//! untouched (fully accessible, while the VideoCore clobbers L2); on the
//! i.MX535 the boot ROM's scratchpad writes cost a small slice of the
//! iRAM.

use crate::analysis;
use crate::attack::{Extraction, VoltBootAttack};
use crate::workloads;
use voltboot_soc::devices;

/// One memory's accessibility result.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessibilityRow {
    /// Device name.
    pub device: String,
    /// Target memory label.
    pub memory: String,
    /// Fraction of the pre-attack contents intact after the boot path.
    pub accessible_fraction: f64,
}

/// The section's results.
#[derive(Debug, Clone, PartialEq)]
pub struct Sec62Result {
    /// One row per (device, memory).
    pub rows: Vec<AccessibilityRow>,
}

/// Runs the accessibility survey on the Pi 4 (L1 caches, L2) and the
/// i.MX53 QSB (iRAM).
pub fn run(seed: u64) -> Sec62Result {
    let mut rows = Vec::new();

    // Broadcom: stage L2 data first (a 64 KB fill overflows the 32 KB
    // L1D, forcing dirty writebacks into L2), then run the bare-metal
    // NOP victim last so nothing evicts its L1 lines before the attack.
    let mut soc = devices::raspberry_pi_4(seed);
    soc.power_on_all();
    soc.enable_l2();
    soc.enable_caches(0);
    let p = voltboot_armlite::program::builders::fill_bytes(0x20_0000, 0x3C, 64 * 1024);
    soc.run_program(0, &p, workloads::VICTIM_CODE_ADDR, 50_000_000);
    workloads::baremetal_nop_fill(&mut soc).expect("victim runs");
    let before_l1 = soc.core(0).unwrap().l1i.way_image(0).unwrap();
    // Count 16-byte pattern runs so random bytes contribute nothing.
    let l2_pattern_runs = |soc: &voltboot_soc::Soc| -> usize {
        let g = soc.l2().geometry();
        let mut n = 0usize;
        for way in 0..g.ways {
            let bytes = soc.l2().raw_way_bytes(way, 0, g.sets() * g.line_bytes).unwrap();
            n += bytes.chunks_exact(16).filter(|c| c.iter().all(|&b| b == 0x3C)).count();
        }
        n
    };
    let before_l2_pattern = l2_pattern_runs(&soc);

    let outcome = VoltBootAttack::new("TP15")
        .extraction(Extraction::Caches { cores: vec![0] })
        .execute(&mut soc)
        .expect("attack runs");
    let after_l1 = &outcome.image("core0.l1i.way0").unwrap().bits;
    rows.push(AccessibilityRow {
        device: "BCM2711".into(),
        memory: "L1 i-cache".into(),
        accessible_fraction: 1.0 - analysis::fractional_hamming(after_l1, &before_l1),
    });

    // L2 after the VideoCore boot: pattern gone.
    let after_l2_pattern = l2_pattern_runs(&soc);
    rows.push(AccessibilityRow {
        device: "BCM2711".into(),
        memory: "shared L2 (VideoCore clobbers)".into(),
        accessible_fraction: if before_l2_pattern == 0 {
            0.0
        } else {
            after_l2_pattern as f64 / before_l2_pattern as f64
        },
    });

    // i.MX535: iRAM pattern, attack, measure surviving bytes.
    let mut imx = devices::imx53_qsb(seed ^ 0x62);
    imx.power_on_all();
    let reference = workloads::iram_bitmap(&mut imx).expect("bitmap staged");
    let outcome = VoltBootAttack::new("SH13")
        .extraction(Extraction::IramJtag)
        .execute(&mut imx)
        .expect("attack runs");
    let extracted = &outcome.image("iram").unwrap().bits;
    // Accessible = bytes that survived exactly.
    let ref_bytes = reference.to_bytes();
    let got_bytes = extracted.to_bytes();
    let intact = ref_bytes.iter().zip(&got_bytes).filter(|(a, b)| a == b).count();
    rows.push(AccessibilityRow {
        device: "i.MX535".into(),
        memory: "iRAM (boot ROM scratchpad)".into(),
        accessible_fraction: intact as f64 / ref_bytes.len() as f64,
    });

    Sec62Result { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessibility_matches_the_paper() {
        let r = run(0x5EC62);
        let l1 = &r.rows[0];
        assert_eq!(l1.accessible_fraction, 1.0, "L1 must be fully accessible");
        let l2 = &r.rows[1];
        assert!(l2.accessible_fraction < 0.05, "L2 must be clobbered: {}", l2.accessible_fraction);
        let iram = &r.rows[2];
        assert!(
            (iram.accessible_fraction - 0.95).abs() < 0.02,
            "iRAM accessibility {}",
            iram.accessible_fraction
        );
    }
}
