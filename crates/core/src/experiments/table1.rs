//! Table 1: cold-boot attacks on the BCM2711's d-cache are ineffective.
//!
//! The paper chills a Raspberry Pi 4 in a thermal chamber, power-cycles
//! it for a few milliseconds, and compares each core's extracted d-cache
//! against the pre-stored pattern. At 0 °C, −5 °C, and −40 °C (the SoC's
//! hard limit) the mean mismatch is at chance — no retention — while the
//! fractional Hamming distance against the cache's *startup* state is
//! only the power-up noise, showing the cache simply reset to its
//! power-up fingerprint.

use crate::analysis;
use crate::attack::{ColdBootAttack, Extraction};
use crate::workloads;
use voltboot_soc::devices;
use voltboot_sram::PackedBits;

/// One temperature point of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Chamber temperature in Celsius.
    pub celsius: f64,
    /// Mean per-core error (fraction of mismatched bits vs the stored
    /// pattern).
    pub mean_error: f64,
    /// Per-core errors.
    pub per_core_error: Vec<f64>,
    /// Mean fractional Hamming distance vs the cache's startup state.
    pub hd_vs_startup: f64,
}

/// The full Table 1 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Result {
    /// One row per temperature.
    pub rows: Vec<Table1Row>,
}

/// Temperatures evaluated by the paper (°C).
pub const TEMPERATURES: [f64; 3] = [0.0, -5.0, -40.0];

/// Runs the experiment on a BCM2711 with the given die seed.
///
/// The three chamber runs use fresh, independent boards, so they execute
/// in parallel; each row depends only on `(seed, temperature index)`.
pub fn run(seed: u64) -> Table1Result {
    let jobs: Vec<Box<dyn FnOnce() -> Table1Row + Send>> = TEMPERATURES
        .iter()
        .enumerate()
        .map(|(i, &celsius)| Box::new(move || run_temperature(seed, i, celsius)) as Box<_>)
        .collect();
    Table1Result { rows: voltboot_sram::par::join_all(jobs) }
}

/// One chamber run at one temperature.
fn run_temperature(seed: u64, i: usize, celsius: f64) -> Table1Row {
    {
        // A fresh board per chamber run, as in the paper's methodology.
        let mut soc = devices::raspberry_pi_4(seed ^ ((i as u64 + 1) << 32));
        soc.power_on_all();

        // Record each core's cache startup fingerprint before the victim
        // writes anything (the caches hold their power-up state now).
        let startup: Vec<PackedBits> =
            (0..4).map(|c| soc.core(c).unwrap().l1d.way_image(0).unwrap()).collect();

        // Bare-metal victim fills the caches on every core.
        workloads::baremetal_nop_fill(&mut soc).expect("victim runs");
        for core in 0..4 {
            let p = voltboot_armlite::program::builders::fill_bytes(
                workloads::VICTIM_DATA_ADDR + core as u64 * 0x4_0000,
                0xA5,
                16 * 1024,
            );
            soc.run_program(core, &p, workloads::VICTIM_CODE_ADDR, 50_000_000);
        }
        let stored: Vec<PackedBits> =
            (0..4).map(|c| soc.core(c).unwrap().l1d.way_image(0).unwrap()).collect();

        // Cold boot: a few milliseconds without power at temperature.
        let outcome = ColdBootAttack::new(celsius, 5)
            .extraction(Extraction::Caches { cores: vec![0, 1, 2, 3] })
            .execute(&mut soc)
            .expect("cold boot flow");

        let mut per_core_error = Vec::new();
        let mut hd_startup_acc = 0.0;
        for core in 0..4 {
            let image = &outcome.image(&format!("core{core}.l1d.way0")).unwrap().bits;
            per_core_error.push(analysis::fractional_hamming(image, &stored[core]));
            hd_startup_acc += analysis::fractional_hamming(image, &startup[core]);
        }
        let mean_error = per_core_error.iter().sum::<f64>() / per_core_error.len() as f64;
        Table1Row { celsius, mean_error, per_core_error, hd_vs_startup: hd_startup_acc / 4.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_boot_error_is_about_fifty_percent_at_every_temperature() {
        let result = run(0x7AB1E1);
        assert_eq!(result.rows.len(), 3);
        for row in &result.rows {
            assert!(
                (row.mean_error - 0.5).abs() < 0.05,
                "{} C: error {}",
                row.celsius,
                row.mean_error
            );
            // The paper's footnote: HD vs the startup state is ~0.10.
            assert!(
                (row.hd_vs_startup - 0.10).abs() < 0.04,
                "{} C: hd vs startup {}",
                row.celsius,
                row.hd_vs_startup
            );
        }
    }
}
