//! Figures 9 & 10: iRAM bitmap extraction on the i.MX535 and the
//! Hamming-distance error map.
//!
//! Four copies of a 512×512 bitmap fill the 128 KB iRAM over JTAG; the
//! attack holds VDDAL1 (pad SH13), the device reboots from its internal
//! ROM — which scribbles over the scratchpad window `0x83C..0x18CC` and
//! a small tail — and JTAG dumps the rest intact. The 512-bit-window
//! Hamming series (Figure 10) localizes the error to those clusters, and
//! the overall error is a few percent.

use crate::analysis;
use crate::attack::{Extraction, VoltBootAttack};
use crate::workloads;
use voltboot_soc::devices;
use voltboot_sram::PackedBits;

/// The combined figure data.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig910Result {
    /// The reference contents written before the attack.
    pub reference: PackedBits,
    /// The post-attack JTAG dump.
    pub extracted: PackedBits,
    /// Overall bit-error fraction.
    pub overall_error: f64,
    /// Hamming distance per 512-bit window (the Figure 10 series).
    pub hamming_series: Vec<usize>,
    /// Window indices with clustered errors.
    pub error_clusters: Vec<usize>,
}

/// Window width used by the paper for Figure 10.
pub const WINDOW_BITS: usize = 512;

/// Runs the experiment on an i.MX53 QSB.
pub fn run(seed: u64) -> Fig910Result {
    let mut soc = devices::imx53_qsb(seed);
    soc.power_on_all();
    let reference = workloads::iram_bitmap(&mut soc).expect("bitmap staged");

    let outcome = VoltBootAttack::new("SH13")
        .extraction(Extraction::IramJtag)
        .execute(&mut soc)
        .expect("attack runs");
    let extracted = outcome.image("iram").unwrap().bits.clone();

    let overall_error = analysis::fractional_hamming(&extracted, &reference);
    let hamming_series = analysis::hamming_series(&extracted, &reference, WINDOW_BITS);
    let error_clusters = analysis::error_clusters(&hamming_series, WINDOW_BITS / 8);
    Fig910Result { reference, extracted, overall_error, hamming_series, error_clusters }
}

/// Renders one quadrant (32 KB) of the extracted iRAM as a 512-wide PBM,
/// as in Figure 9's four panels. `quadrant` is 0–3.
///
/// # Panics
///
/// Panics if `quadrant > 3`.
pub fn render_quadrant_pbm(result: &Fig910Result, quadrant: usize) -> String {
    assert!(quadrant < 4, "iRAM has four 32 KB quadrants");
    let bits_per_quadrant = result.extracted.len() / 4;
    let bytes = result.extracted.to_bytes();
    let start = quadrant * bits_per_quadrant / 8;
    let quad = PackedBits::from_bytes(&bytes[start..start + bits_per_quadrant / 8]);
    analysis::to_pbm(&quad, 512)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_small_and_clustered() {
        let r = run(0xF169);
        // A few percent overall, as in the paper.
        assert!(
            r.overall_error > 0.015 && r.overall_error < 0.04,
            "overall error {}",
            r.overall_error
        );
        assert!(!r.error_clusters.is_empty());
        // Clusters sit at the start (scratchpad window: bytes
        // 0x83C..0x18CC = windows 32..100) and end (tail stack).
        let windows = r.hamming_series.len();
        assert!(
            r.error_clusters.iter().all(|&w| w < 100 || w >= windows - 40),
            "clusters not at start/end: {:?}",
            r.error_clusters
        );
        // The scratchpad window 0x83C..0x18CC covers bits 16864..50784,
        // i.e. windows ~32..99... confirm a cluster near window 40.
        assert!(r.error_clusters.iter().any(|&w| (30..100).contains(&w)));
    }

    #[test]
    fn untouched_middle_is_error_free() {
        let r = run(0xF16A);
        let mid = r.hamming_series.len() / 2;
        assert!(r.hamming_series[mid - 10..mid + 10].iter().all(|&h| h == 0));
    }

    #[test]
    fn quadrants_render() {
        let r = run(0xF16B);
        let pbm = render_quadrant_pbm(&r, 0);
        assert!(pbm.starts_with("P1\n512 512\n"));
    }
}
