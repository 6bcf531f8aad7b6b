//! The OS-noise model: background kernel and process activity evicting
//! victim cache lines.
//!
//! On a Linux-based victim (paper §7.1.2, Table 4) the kernel and other
//! processes keep touching memory while the victim runs, evicting some of
//! its lines. When the victim's working set fits well under the cache
//! size, the evictions land in otherwise-unused (invalid) ways and the
//! victim loses nothing; as the working set approaches the cache size,
//! every eviction destroys a victim line — that is Table 4's shape.
//!
//! Noise is a stream of line fills at "kernel" addresses targeting
//! uniformly random sets, interleaved with the victim's execution. The
//! intensity is expressed in *events*, calibrated so a cache-sized
//! victim array loses a tenth or so of its elements (the paper's Table 4
//! values are in `experiments::INDEX`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use voltboot_soc::{Soc, SocError};

/// A deterministic background-activity generator for one core's L1D.
#[derive(Debug, Clone)]
pub struct OsNoise {
    rng: StdRng,
    /// Base physical address of the "kernel" region noise lines come from.
    pub kernel_base: u64,
    /// Number of distinct noise tags available per set.
    pub tag_diversity: u64,
    injected: usize,
}

impl OsNoise {
    /// Creates a generator with its own RNG stream.
    pub fn new(seed: u64) -> Self {
        OsNoise {
            rng: StdRng::seed_from_u64(seed),
            kernel_base: 0x40_0000,
            tag_diversity: 8,
            injected: 0,
        }
    }

    /// Total noise events injected so far.
    pub fn injected(&self) -> usize {
        self.injected
    }

    /// Injects `events` background line fills into `core`'s L1D, each
    /// targeting a uniformly random set with a random kernel tag.
    ///
    /// # Errors
    ///
    /// Propagates SoC failures (missing core, unmapped noise region).
    pub fn inject(&mut self, soc: &mut Soc, core: usize, events: usize) -> Result<(), SocError> {
        let (sets, line_bytes, way_span) = {
            let c = soc.core(core)?;
            let g = c.l1d.geometry();
            (g.sets() as u64, g.line_bytes as u64, (g.sets() * g.line_bytes) as u64)
        };
        for _ in 0..events {
            let set = self.rng.random_range(0..sets);
            let tag_pick = self.rng.random_range(0..self.tag_diversity);
            // An address in the kernel region that maps to `set`: adding
            // multiples of the way span changes the tag, not the set.
            let addr = self.kernel_base + tag_pick * way_span + set * line_bytes;
            soc.inject_noise_line(core, addr)?;
            self.injected += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltboot_armlite::program::builders;
    use voltboot_soc::devices;

    #[test]
    fn noise_needs_an_enabled_cache() {
        let mut soc = devices::raspberry_pi_4(1);
        soc.power_on_all();
        let mut noise = OsNoise::new(1);
        // Disabled cache: injections are no-ops but not errors.
        noise.inject(&mut soc, 0, 16).unwrap();
        assert_eq!(noise.injected(), 16);
    }

    #[test]
    fn noise_evicts_lines_of_a_full_cache() {
        let mut soc = devices::raspberry_pi_4(2);
        soc.power_on_all();
        soc.enable_caches(0);
        // Fill the whole 32 KB d-cache with the victim pattern.
        soc.run_program(
            0,
            &builders::fill_bytes(0x10_0000, 0xAA, 32 * 1024),
            0x70_0000,
            50_000_000,
        );
        let count_aa = |soc: &voltboot_soc::Soc| -> usize {
            (0..2)
                .map(|w| {
                    soc.core(0)
                        .unwrap()
                        .l1d
                        .way_image(w)
                        .unwrap()
                        .to_bytes()
                        .iter()
                        .filter(|&&b| b == 0xAA)
                        .count()
                })
                .sum()
        };
        let before = count_aa(&soc);
        let mut noise = OsNoise::new(3);
        noise.inject(&mut soc, 0, 64).unwrap();
        let after = count_aa(&soc);
        assert!(after < before, "noise must evict victim lines ({before} -> {after})");
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut soc = devices::raspberry_pi_4(9);
            soc.power_on_all();
            soc.enable_caches(0);
            soc.run_program(
                0,
                &builders::fill_bytes(0x10_0000, 0x77, 8 * 1024),
                0x70_0000,
                20_000_000,
            );
            let mut noise = OsNoise::new(seed);
            noise.inject(&mut soc, 0, 32).unwrap();
            soc.core(0).unwrap().l1d.way_image(0).unwrap()
        };
        assert_eq!(run(5), run(5));
    }
}
