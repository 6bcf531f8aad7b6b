//! Figure 8: Volt Boot against a user application under a running OS.
//!
//! The victim app stores `0xAA` into a large structure while the kernel
//! and background processes run (the OS-noise model). After the attack,
//! the d-cache image contains the expected pattern and the i-cache image
//! contains the application's instructions in consecutive lines.

use crate::analysis;
use crate::attack::{Extraction, VoltBootAttack};
use crate::os_noise::OsNoise;
use crate::workloads;
use voltboot_soc::devices;
use voltboot_sram::PackedBits;

/// The figure's data.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Result {
    /// One way of the post-attack d-cache.
    pub dcache_way: PackedBits,
    /// One way of the post-attack i-cache.
    pub icache_way: PackedBits,
    /// `0xAA` bytes found in the extracted d-cache way.
    pub pattern_bytes: usize,
    /// Fraction of the victim's instruction words found in the i-cache.
    pub instruction_fraction: f64,
}

/// Runs the experiment on a Raspberry Pi 4.
pub fn run(seed: u64) -> Fig8Result {
    let mut soc = devices::raspberry_pi_4(seed);
    soc.power_on_all();
    let mut noise = OsNoise::new(seed ^ 0x05);
    workloads::os_pattern_app(&mut soc, 0, 0xAA, 12 * 1024, &mut noise).expect("victim runs");

    // Ground truth: the victim program's machine code.
    let victim_words: Vec<[u8; 4]> = voltboot_armlite::program::builders::fill_bytes(
        workloads::VICTIM_DATA_ADDR,
        0xAA,
        12 * 1024,
    )
    .words()
    .iter()
    .map(|w| w.to_le_bytes())
    .collect();

    let outcome = VoltBootAttack::new("TP15")
        .extraction(Extraction::Caches { cores: vec![0] })
        .execute(&mut soc)
        .expect("attack runs");

    let dcache_way = outcome.image("core0.l1d.way0").unwrap().bits.clone();
    let icache_way = outcome.image("core0.l1i.way0").unwrap().bits.clone();
    let pattern_bytes = dcache_way.to_bytes().iter().filter(|&&b| b == 0xAA).count();

    // Grep the i-cache (all ways) for the victim's instructions.
    let mut icache_bytes = Vec::new();
    for img in outcome.images_matching("core0.l1i") {
        icache_bytes.extend(img.bits.to_bytes());
    }
    let icache_all = PackedBits::from_bytes(&icache_bytes);
    let found =
        victim_words.iter().filter(|w| analysis::count_pattern(&icache_all, *w) > 0).count();
    let instruction_fraction = found as f64 / victim_words.len() as f64;

    Fig8Result { dcache_way, icache_way, pattern_bytes, instruction_fraction }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_and_instructions_survive() {
        let r = run(0xF168);
        assert!(r.pattern_bytes > 4 * 1024, "0xAA bytes: {}", r.pattern_bytes);
        assert!(
            r.instruction_fraction >= 0.99,
            "victim instructions found: {}",
            r.instruction_fraction
        );
    }
}
