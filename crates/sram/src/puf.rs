//! SRAM power-up-state applications: PUF fingerprinting and TRNG.
//!
//! The paper's §5.2.4 lists a second reason (besides boot time) that
//! vendors leave SRAM uninitialized at reset: "SRAM's startup state has
//! numerous security applications, such as PUF and TRNG". This module
//! implements both on top of the cell model, which doubles as a check
//! that the model's power-up statistics are right:
//!
//! * **PUF** — the strong (stable) cells form a per-die fingerprint:
//!   same die → small Hamming distance across power-ups; different dies
//!   → ≈50 %. Enrollment records a reference response plus a stability
//!   mask; matching uses a threshold between the two distributions.
//! * **TRNG** — the metastable cells resolve randomly at each power-up;
//!   von Neumann debiasing of paired power-ups distils unbiased bits.

use crate::array::{ArrayConfig, OffEvent, SramArray};
use crate::bits::PackedBits;
use crate::physics::Temperature;
use std::time::Duration;

/// Samples `n` successive power-up images of `array` (fully discharging
/// it between samples).
///
/// # Panics
///
/// Panics if the array starts powered (hand it over unpowered/fresh).
pub fn powerup_samples(array: &mut SramArray, n: usize) -> Vec<PackedBits> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        array.power_on().expect("array must start unpowered");
        out.push(array.snapshot().expect("powered"));
        array.power_off(OffEvent::unpowered()).expect("powered");
        // Long enough at room temperature to fully discharge.
        array.elapse(Duration::from_secs(1), Temperature::ROOM);
    }
    out
}

/// An enrolled SRAM PUF: reference response plus stability mask.
#[derive(Debug, Clone, PartialEq)]
pub struct EnrolledPuf {
    /// Majority-vote reference response.
    pub reference: PackedBits,
    /// Bits that were stable across every enrollment sample.
    pub stable_mask: PackedBits,
    /// Match threshold on the masked fractional Hamming distance.
    pub threshold: f64,
}

impl EnrolledPuf {
    /// Enrolls a die from `samples` power-up images (≥ 3 recommended).
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set or mismatched lengths.
    pub fn enroll(samples: &[PackedBits]) -> Self {
        assert!(!samples.is_empty(), "enrollment needs samples");
        let len = samples[0].len();
        let mut reference = PackedBits::zeros(len);
        let mut stable_mask = PackedBits::zeros(len);
        for i in 0..len {
            let ones = samples.iter().filter(|s| s.get(i)).count();
            reference.set(i, ones * 2 > samples.len());
            stable_mask.set(i, ones == 0 || ones == samples.len());
        }
        EnrolledPuf { reference, stable_mask, threshold: 0.2 }
    }

    /// Masked fractional Hamming distance of a fresh `response` to the
    /// reference, over the stable bits only.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn distance(&self, response: &PackedBits) -> f64 {
        assert_eq!(response.len(), self.reference.len(), "response length mismatch");
        let mut mismatches = 0usize;
        let mut considered = 0usize;
        for i in 0..response.len() {
            if self.stable_mask.get(i) {
                considered += 1;
                if response.get(i) != self.reference.get(i) {
                    mismatches += 1;
                }
            }
        }
        if considered == 0 {
            return 1.0;
        }
        mismatches as f64 / considered as f64
    }

    /// Whether `response` matches this die.
    pub fn matches(&self, response: &PackedBits) -> bool {
        self.distance(response) < self.threshold
    }

    /// Fraction of bits enrolled as stable.
    pub fn stable_fraction(&self) -> f64 {
        self.stable_mask.count_ones() as f64 / self.stable_mask.len().max(1) as f64
    }
}

/// Extracts unbiased random bits from two power-up images by von Neumann
/// debiasing over the bits that differ... strictly, over all positions:
/// (0,1) → 0, (1,0) → 1, equal pairs discarded. Only metastable cells
/// contribute, so the output rate is roughly the metastable fraction / 3.
pub fn trng_extract(sample_a: &PackedBits, sample_b: &PackedBits) -> Vec<bool> {
    assert_eq!(sample_a.len(), sample_b.len(), "trng samples must match");
    let mut out = Vec::new();
    for i in 0..sample_a.len() {
        match (sample_a.get(i), sample_b.get(i)) {
            (false, true) => out.push(false),
            (true, false) => out.push(true),
            _ => {}
        }
    }
    out
}

/// Builds a fresh test array for PUF/TRNG experiments.
pub fn test_array(name: &str, bytes: usize, seed: u64) -> SramArray {
    SramArray::new(ArrayConfig::with_bytes(name, bytes), seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_die_matches_and_other_dies_do_not() {
        let mut die_a = test_array("a", 1024, 1);
        let samples = powerup_samples(&mut die_a, 5);
        let puf = EnrolledPuf::enroll(&samples);

        // A fresh response from the same die.
        let fresh = powerup_samples(&mut die_a, 1).pop().unwrap();
        assert!(puf.matches(&fresh), "distance {}", puf.distance(&fresh));
        assert!(puf.distance(&fresh) < 0.05);

        // Responses from nine other dies.
        for seed in 2..11 {
            let mut other = test_array("b", 1024, seed);
            let response = powerup_samples(&mut other, 1).pop().unwrap();
            assert!(!puf.matches(&response), "die {seed}: {}", puf.distance(&response));
            assert!((puf.distance(&response) - 0.5).abs() < 0.08);
        }
    }

    #[test]
    fn stable_fraction_matches_the_cell_model() {
        let mut die = test_array("s", 4096, 42);
        let samples = powerup_samples(&mut die, 7);
        let puf = EnrolledPuf::enroll(&samples);
        // 70% strong cells, plus metastable cells that happened to agree
        // across 7 samples (biased ones do, ~E[p^7 + (1-p)^7] ~ 0.25 of 30%).
        let f = puf.stable_fraction();
        assert!(f > 0.70 && f < 0.85, "stable fraction {f}");
    }

    #[test]
    fn trng_bits_are_unbiased_and_plentiful() {
        let mut die = test_array("t", 8192, 7);
        let samples = powerup_samples(&mut die, 2);
        let bits = trng_extract(&samples[0], &samples[1]);
        // Rate ~ metastable_fraction / 3 = 10% of cells.
        let rate = bits.len() as f64 / (8192.0 * 8.0);
        assert!(rate > 0.05 && rate < 0.15, "output rate {rate}");
        let ones = bits.iter().filter(|&&b| b).count() as f64 / bits.len() as f64;
        assert!((ones - 0.5).abs() < 0.03, "bias {ones}");
    }

    #[test]
    fn trng_streams_differ_between_draws() {
        let mut die = test_array("t2", 2048, 9);
        let s = powerup_samples(&mut die, 4);
        let draw1 = trng_extract(&s[0], &s[1]);
        let draw2 = trng_extract(&s[2], &s[3]);
        assert_ne!(draw1, draw2);
    }

    #[test]
    fn enrollment_requires_samples() {
        let result = std::panic::catch_unwind(|| EnrolledPuf::enroll(&[]));
        assert!(result.is_err());
    }

    #[test]
    fn boot_time_reset_would_destroy_the_puf() {
        // The countermeasure tension the paper notes: zeroizing SRAM at
        // boot erases the fingerprint.
        let mut die = test_array("z", 1024, 3);
        let samples = powerup_samples(&mut die, 3);
        let puf = EnrolledPuf::enroll(&samples);
        let zeroized = PackedBits::zeros(1024 * 8);
        assert!(!puf.matches(&zeroized));
    }
}
