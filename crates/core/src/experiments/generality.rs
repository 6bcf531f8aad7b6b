//! Generality check: the attack pipeline on all three platforms.
//!
//! The paper's claim is that Volt Boot generalizes across vendors,
//! microarchitectures, and memory types ("three distinct
//! microarchitectures"). This experiment runs the identical pipeline on
//! every catalog device and reports per-target retention.

use crate::analysis;
use crate::attack::{Extraction, VoltBootAttack};
use crate::workloads;
use voltboot_soc::{devices, Soc};

/// One device's generality row.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneralityRow {
    /// Board name.
    pub board: String,
    /// SoC name.
    pub soc: String,
    /// Probe pad used.
    pub pad: String,
    /// Target memory label.
    pub target: String,
    /// Retention accuracy of the extraction.
    pub accuracy: f64,
}

/// The generality matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneralityResult {
    /// One row per (device, target).
    pub rows: Vec<GeneralityRow>,
}

/// Runs the pipeline on all three devices.
pub fn run(seed: u64) -> GeneralityResult {
    let mut rows = Vec::new();

    for (build, pad) in
        [(devices::raspberry_pi_4 as fn(u64) -> Soc, "TP15"), (devices::raspberry_pi_3, "PP58")]
    {
        let mut soc = build(seed);
        soc.power_on_all();
        workloads::baremetal_nop_fill(&mut soc).expect("victim runs");
        workloads::register_fill(&mut soc, 0).expect("victim runs");
        let icache_truth = soc.core(0).unwrap().l1i.way_image(0).unwrap();
        let reg_truth = soc.core(0).unwrap().vregs.image().unwrap();

        let outcome = VoltBootAttack::new(pad)
            .extraction(Extraction::Caches { cores: vec![0] })
            .execute(&mut soc)
            .expect("attack runs");
        let got = &outcome.image("core0.l1i.way0").unwrap().bits;
        rows.push(GeneralityRow {
            board: soc.board_name().into(),
            soc: soc.soc_name().into(),
            pad: pad.into(),
            target: "L1 i-cache".into(),
            accuracy: 1.0 - analysis::fractional_hamming(got, &icache_truth),
        });
        let regs = crate::attack::extract_registers(&soc, &[0]).expect("register dump");
        rows.push(GeneralityRow {
            board: soc.board_name().into(),
            soc: soc.soc_name().into(),
            pad: pad.into(),
            target: "NEON registers".into(),
            accuracy: 1.0 - analysis::fractional_hamming(&regs[0].bits, &reg_truth),
        });
    }

    // The i.MX535: iRAM through JTAG, measured over the unclobbered span.
    let mut imx = devices::imx53_qsb(seed ^ 0x9E);
    imx.power_on_all();
    let reference = workloads::iram_bitmap(&mut imx).expect("bitmap staged");
    let outcome = VoltBootAttack::new("SH13")
        .extraction(Extraction::IramJtag)
        .execute(&mut imx)
        .expect("attack runs");
    let dump = &outcome.image("iram").unwrap().bits;
    // Middle half of the iRAM: untouched by the boot ROM.
    let quarter = reference.len() / 8 / 4;
    let mid_ref =
        voltboot_sram::PackedBits::from_bytes(&reference.to_bytes()[quarter..3 * quarter]);
    let mid_got = voltboot_sram::PackedBits::from_bytes(&dump.to_bytes()[quarter..3 * quarter]);
    rows.push(GeneralityRow {
        board: imx.board_name().into(),
        soc: imx.soc_name().into(),
        pad: "SH13".into(),
        target: "iRAM (unclobbered span)".into(),
        accuracy: 1.0 - analysis::fractional_hamming(&mid_got, &mid_ref),
    });

    GeneralityResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_platform_and_target_is_error_free() {
        let r = run(0x6E6E);
        assert_eq!(r.rows.len(), 5);
        for row in &r.rows {
            assert_eq!(
                row.accuracy, 1.0,
                "{} / {}: accuracy {}",
                row.soc, row.target, row.accuracy
            );
        }
    }
}
