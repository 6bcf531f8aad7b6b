//! Figure 3: a d-cache way snapshot after a cold boot at −40 °C.
//!
//! The rendered bitmap shows an even mix of ones and zeros — the cache
//! reset to its power-on state, so nothing of the victim's data remains.

use crate::analysis;
use crate::attack::{ColdBootAttack, Extraction};
use crate::workloads;
use voltboot_soc::devices;
use voltboot_sram::PackedBits;

/// The figure's data: the post-attack way image and summary statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Result {
    /// WAY0 of core 0's d-cache after the cold boot (256 sets × 512 bits
    /// = 16 KB, matching the paper's caption).
    pub way_image: PackedBits,
    /// Fraction of ones (≈0.5 for a power-up state).
    pub ones_fraction: f64,
    /// Error vs the victim's stored pattern (≈0.5 — no retention).
    pub error_vs_stored: f64,
}

/// Runs the experiment: victim fill, cold boot at −40 °C, extract.
pub fn run(seed: u64) -> Fig3Result {
    let mut soc = devices::raspberry_pi_4(seed);
    soc.power_on_all();
    soc.enable_caches(0);
    let p = voltboot_armlite::program::builders::fill_bytes(
        workloads::VICTIM_DATA_ADDR,
        0xA5,
        16 * 1024,
    );
    soc.run_program(0, &p, workloads::VICTIM_CODE_ADDR, 50_000_000);
    let stored = soc.core(0).unwrap().l1d.way_image(0).unwrap();

    let outcome = ColdBootAttack::new(-40.0, 5)
        .extraction(Extraction::Caches { cores: vec![0] })
        .execute(&mut soc)
        .expect("cold boot flow");
    let way_image = outcome.image("core0.l1d.way0").unwrap().bits.clone();
    let ones_fraction = analysis::ones_fraction(&way_image);
    let error_vs_stored = analysis::fractional_hamming(&way_image, &stored);
    Fig3Result { way_image, ones_fraction, error_vs_stored }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_resets_to_random_state() {
        let r = run(0xF163);
        assert_eq!(r.way_image.len(), 16 * 1024 * 8);
        assert!((r.ones_fraction - 0.5).abs() < 0.03, "ones {}", r.ones_fraction);
        assert!((r.error_vs_stored - 0.5).abs() < 0.05, "error {}", r.error_vs_stored);
    }

    #[test]
    fn pbm_renders_512_columns() {
        let r = run(0xF164);
        let pbm = analysis::to_pbm(&r.way_image, 512);
        assert!(pbm.starts_with("P1\n512 256\n"));
    }
}
