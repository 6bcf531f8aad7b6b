//! DRAM remanence: the physics that makes *classic* cold boot work.
//!
//! The paper's background (§2–3) contrasts on-chip SRAM with the DRAM
//! that Halderman et al. attacked: DRAM stores bits as capacitor charge,
//! decays over seconds (not microseconds), decays *toward a known ground
//! state* (so errors are directional and correctable), and its decay
//! slows dramatically when cooled. This module models that physics so the
//! repository can demonstrate the original attack succeeding on DRAM
//! while failing on SRAM — the asymmetry that motivates fully on-chip
//! crypto, which Volt Boot then breaks.
//!
//! Model: each charged cell loses its charge after an exponential
//! lifetime with temperature-dependent median (Arrhenius). Cells are
//! split into *true* cells (discharge to 0) and *anti* cells (discharge
//! to 1) in row-pair blocks, as on real modules. A freshly refreshed
//! cell always survives at least one refresh interval.

use crate::dram::Dram;
use std::time::Duration;
use voltboot_sram::rng::unit_threshold;
use voltboot_sram::{LeakageModel, Temperature};

/// Calibration of the DRAM decay law.
///
/// Defaults follow the cold-boot literature: at operating temperature
/// (≈25–45 °C) a module keeps most bits for a second or two and loses
/// half within ~10 s; cooled to −50 °C, decay stretches to minutes with
/// <1 % loss over a 60 s transplant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramRemanenceModel {
    /// Median charged-cell lifetime at the reference temperature, in
    /// seconds.
    pub median_lifetime_s: f64,
    /// Reference temperature for the median lifetime.
    pub reference: Temperature,
    /// Activation energy of the leakage path, in eV.
    pub activation_energy_ev: f64,
    /// Size of the alternating true-cell / anti-cell blocks, in bytes.
    pub cell_block_bytes: usize,
}

impl DramRemanenceModel {
    /// Literature-calibrated defaults (see type docs).
    pub fn calibrated() -> Self {
        DramRemanenceModel {
            median_lifetime_s: 10.0,
            reference: Temperature::ROOM,
            activation_energy_ev: 0.55,
            cell_block_bytes: 4096,
        }
    }

    /// Median charged-cell lifetime at temperature `t`.
    pub fn median_lifetime(&self, t: Temperature) -> Duration {
        let model = LeakageModel {
            t_ref_seconds: self.median_lifetime_s,
            reference: self.reference,
            activation_energy_ev: self.activation_energy_ev,
        };
        model.median_retention(t)
    }

    /// Probability that one charged cell has decayed after `dt` at `t`.
    pub fn decay_probability(&self, dt: Duration, t: Temperature) -> f64 {
        // Exponential lifetimes with the median pinned: rate = ln2/median.
        let median = self.median_lifetime(t).as_secs_f64();
        1.0 - (-dt.as_secs_f64() * std::f64::consts::LN_2 / median).exp()
    }

    /// Whether byte `offset` lies in an anti-cell block (bits discharge
    /// toward 1 instead of 0).
    pub fn is_anti_block(&self, offset: usize) -> bool {
        (offset / self.cell_block_bytes) % 2 == 1
    }
}

impl Default for DramRemanenceModel {
    fn default() -> Self {
        DramRemanenceModel::calibrated()
    }
}

/// Applies an unpowered interval to a DRAM image in place, returning the
/// number of bits that decayed. Deterministic per `(seed, event)`.
///
/// This is the eager path: it settles anything the DRAM has queued,
/// then applies this interval to every cell at once.
/// [`crate::Soc::power_cycle`] instead queues the interval on the DRAM,
/// which applies it to each page when something first touches that page
/// — the same bytes, paid only where they are read.
pub fn apply_decay(
    dram: &mut Dram,
    model: &DramRemanenceModel,
    dt: Duration,
    temperature: Temperature,
    seed: u64,
    event: u64,
) -> usize {
    dram.settle_all();
    let Some(step) = DecayStep::new(model, dt, temperature, seed, event) else {
        return 0;
    };
    dram.queue_decay(step);
    dram.settle_all()
}

/// `2⁵³`: a cell's decay draw is a 53-bit integer `k`, read as `k·2⁻⁵³`.
const DRAW_UNIT: u64 = 1 << 53;

/// One unpowered interval's decay, applicable to any run of cells.
///
/// A cell's fate is a pure function of the step, its absolute cell index
/// and its current charge, so applying a step to one page at a time — in
/// any order, whenever the page is first touched — gives the same bytes
/// as applying it to the whole DRAM at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DecayStep {
    /// Per-interval hash key, `seed ^ event·φ`.
    key: u64,
    /// A charged cell decays iff its draw `k < threshold`, the exact
    /// integer form of `k·2⁻⁵³ < p` ([`unit_threshold`]). `2⁵³`
    /// (`p ≥ 1`) decays every charged cell, so no draw is hashed.
    threshold: u64,
    /// Size of the alternating true-cell / anti-cell blocks, in bytes.
    block: usize,
}

impl DecayStep {
    /// The decay of `dt` unpowered at `temperature`, or `None` when no
    /// cell can decay (`p = 0`).
    pub(crate) fn new(
        model: &DramRemanenceModel,
        dt: Duration,
        temperature: Temperature,
        seed: u64,
        event: u64,
    ) -> Option<DecayStep> {
        let p = model.decay_probability(dt, temperature);
        (p > 0.0).then(|| DecayStep {
            key: seed ^ event.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            threshold: unit_threshold(p),
            block: model.cell_block_bytes,
        })
    }

    /// Decays `cells`, the raw cells from DRAM byte `offset` on, in place
    /// and returns how many bits flipped. Works 64 cells at a time: the
    /// little-endian word at byte `o` holds cells `8·o ..= 8·o + 63`.
    pub(crate) fn apply(&self, cells: &mut [u8], offset: usize) -> usize {
        let mut flipped = 0;
        for (chunk, at) in cells.chunks_mut(8).zip((offset..).step_by(8)) {
            // A short last chunk reads as a word whose missing lanes are
            // masked out.
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            let word = u64::from_le_bytes(buf);
            let decayed = self.decayed_bits(word, at, !0 >> (64 - 8 * chunk.len()));
            if decayed != 0 {
                chunk.copy_from_slice(&(word ^ decayed).to_le_bytes()[..chunk.len()]);
                flipped += decayed.count_ones() as usize;
            }
        }
        flipped
    }

    /// The bits of `word` (the cells at byte `offset`, limited to
    /// `present`) that decay. XOR-ing them in moves each one to its
    /// block's ground state.
    #[inline]
    fn decayed_bits(&self, word: u64, offset: usize, present: u64) -> u64 {
        // Charged: 1 in a true block, 0 in an anti block.
        let charged = (word ^ self.anti_mask(offset)) & present;
        if charged == 0 || self.threshold >= DRAW_UNIT {
            return charged;
        }
        let first_cell = offset as u64 * 8;
        let mut decayed = 0;
        let mut rest = charged;
        while rest != 0 {
            let bit = rest.trailing_zeros();
            if mix(self.key, first_cell + u64::from(bit)) >> 11 < self.threshold {
                decayed |= 1 << bit;
            }
            rest &= rest - 1;
        }
        decayed
    }

    /// 0xFF in each byte lane of the word at `offset` that lies in an
    /// anti-cell block.
    #[inline]
    fn anti_mask(&self, offset: usize) -> u64 {
        let block = offset / self.block;
        if block == (offset + 7) / self.block {
            return if block % 2 == 1 { !0 } else { 0 };
        }
        (0..8).filter(|i| (offset + i) / self.block % 2 == 1).fold(0, |m, i| m | 0xFF << (8 * i))
    }
}

#[inline]
fn mix(seed: u64, x: u64) -> u64 {
    let mut z = seed ^ x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    z ^= z >> 33;
    z = z.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    z ^ (z >> 33)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original byte-and-bit loop, the oracle [`DecayStep::apply`]
    /// must match bit for bit: `cells[0]` is DRAM byte 0.
    pub(crate) fn byte_loop(
        cells: &mut [u8],
        model: &DramRemanenceModel,
        dt: Duration,
        temperature: Temperature,
        seed: u64,
        event: u64,
    ) -> usize {
        let p = model.decay_probability(dt, temperature);
        if p <= 0.0 {
            return 0;
        }
        let mut flipped = 0usize;
        for (offset, cell) in cells.iter_mut().enumerate() {
            let anti = model.is_anti_block(offset);
            let byte = *cell;
            let mut out = byte;
            for bit in 0..8u8 {
                let charged = if anti { byte & (1 << bit) == 0 } else { byte & (1 << bit) != 0 };
                if !charged {
                    continue;
                }
                // Deterministic per-cell draw.
                let h = mix(
                    seed ^ event.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    (offset * 8 + bit as usize) as u64,
                );
                let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                if u < p {
                    if anti {
                        out |= 1 << bit;
                    } else {
                        out &= !(1 << bit);
                    }
                    flipped += 1;
                }
            }
            *cell = out;
        }
        flipped
    }

    /// Off intervals at room temperature reaching every kernel path:
    /// `p = 0` (no step), a tiny `p`, `PowerCycleSpec::quick()`'s ≈0.034,
    /// one half, and `p = 1` (every charged cell, nothing hashed).
    pub(crate) const INTERVALS: [Duration; 5] = [
        Duration::ZERO,
        Duration::from_nanos(1),
        Duration::from_millis(500),
        Duration::from_secs(10),
        Duration::from_secs(3600),
    ];

    /// Cell-block sizes that put block edges inside words and pages.
    const BLOCKS: [usize; 7] = [1, 3, 7, 13, 100, 4096, 5000];

    #[test]
    fn intervals_span_the_kernel_paths() {
        let m = DramRemanenceModel::calibrated();
        let p: Vec<f64> =
            INTERVALS.iter().map(|&dt| m.decay_probability(dt, Temperature::ROOM)).collect();
        assert_eq!(p[0], 0.0);
        assert!(p[1] > 0.0 && p[1] < 1e-9, "{}", p[1]);
        assert!((p[2] - 0.034).abs() < 1e-3, "{}", p[2]);
        assert!((p[3] - 0.5).abs() < 1e-9, "{}", p[3]);
        assert_eq!(p[4], 1.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn word_kernel_matches_the_byte_loop(
            contents in prop::collection::vec(any::<u8>(), 0..9000),
            sparse in any::<bool>(),
            block in 0..BLOCKS.len(),
            interval in 0..INTERVALS.len(),
            seed in any::<u64>(),
            event in any::<u64>(),
            cut in any::<u64>(),
        ) {
            let model = DramRemanenceModel {
                cell_block_bytes: BLOCKS[block],
                ..DramRemanenceModel::calibrated()
            };
            let dt = INTERVALS[interval];
            let mut cells = contents;
            if sparse {
                // Mostly ground-state words, so the skip path runs too.
                for (i, c) in cells.iter_mut().enumerate() {
                    if i / 8 % 5 != 0 {
                        *c = if model.is_anti_block(i) { 0xFF } else { 0 };
                    }
                }
            }
            let mut expect = cells.clone();
            let expect_flips = byte_loop(&mut expect, &model, dt, Temperature::ROOM, seed, event);
            let flips = match DecayStep::new(&model, dt, Temperature::ROOM, seed, event) {
                None => 0,
                Some(step) => {
                    // Two runs split at an arbitrary byte, each applied at
                    // its own absolute offset.
                    let at = (cut % (cells.len() as u64 + 1)) as usize;
                    let (head, tail) = cells.split_at_mut(at);
                    step.apply(head, 0) + step.apply(tail, at)
                }
            };
            prop_assert_eq!(flips, expect_flips);
            prop_assert_eq!(cells, expect);
        }
    }

    #[test]
    fn draw_threshold_is_exact_at_its_boundary() {
        let unit = 1.0 / DRAW_UNIT as f64;
        let m = DramRemanenceModel::calibrated();
        let mut ps = vec![unit, 0.5, 1.0 - unit, 1.0, 1e-12, 0.034];
        for i in 0..200u64 {
            // Dyadic draws, and probabilities finer than 2⁻⁵³ apart.
            ps.push((mix(0xD7A3, i) >> 11) as f64 * unit);
            let dt = Duration::from_nanos(mix(0xB007, i) % 40_000_000_000);
            ps.push(m.decay_probability(dt, Temperature::from_celsius(-60.0 + i as f64)));
        }
        for p in ps {
            let t = unit_threshold(p);
            for k in [t.saturating_sub(1), t, t + 1] {
                assert_eq!((k as f64) * unit < p, k < t, "p = {p:e}, k = {k}, t = {t}");
            }
        }
        assert_eq!(unit_threshold(1.0), DRAW_UNIT);
    }

    #[test]
    fn lifetimes_scale_with_temperature() {
        let m = DramRemanenceModel::calibrated();
        let warm = m.median_lifetime(Temperature::ROOM);
        let cold = m.median_lifetime(Temperature::from_celsius(-50.0));
        assert!((warm.as_secs_f64() - 10.0).abs() < 1e-9);
        assert!(cold > Duration::from_secs(600), "cooled DRAM lasts minutes: {cold:?}");
    }

    #[test]
    fn decay_probability_limits() {
        let m = DramRemanenceModel::calibrated();
        assert!(m.decay_probability(Duration::ZERO, Temperature::ROOM) < 1e-12);
        let long = m.decay_probability(Duration::from_secs(3600), Temperature::ROOM);
        assert!(long > 0.999);
        // Half the cells at exactly one median lifetime.
        let half = m.decay_probability(Duration::from_secs(10), Temperature::ROOM);
        assert!((half - 0.5).abs() < 1e-9, "{half}");
    }

    #[test]
    fn true_cells_decay_to_zero_and_anti_cells_to_one() {
        let m = DramRemanenceModel::calibrated();
        let mut dram = Dram::new(2 * m.cell_block_bytes);
        // 0xFF in a true block: should decay toward 0x00.
        dram.write(0, &[0xFF; 64]).unwrap();
        // 0x00 in an anti block: should decay toward 0xFF.
        dram.write(m.cell_block_bytes as u64, &[0x00; 64]).unwrap();
        apply_decay(&mut dram, &m, Duration::from_secs(3600), Temperature::ROOM, 1, 0);
        assert_eq!(dram.raw_cells(0, 64).unwrap(), &[0u8; 64][..]);
        assert_eq!(dram.raw_cells(m.cell_block_bytes as u64, 64).unwrap(), &[0xFFu8; 64][..]);
    }

    #[test]
    fn cooling_preserves_a_transplant() {
        let m = DramRemanenceModel::calibrated();
        let mut dram = Dram::new(8192);
        dram.write(0, &[0xA5; 4096]).unwrap();
        let flipped = apply_decay(
            &mut dram,
            &m,
            Duration::from_secs(60),
            Temperature::from_celsius(-50.0),
            2,
            0,
        );
        let total_charged = 4096 * 4; // half the bits of 0xA5 per block... roughly
        assert!(
            (flipped as f64) < 0.02 * total_charged as f64,
            "cooled 60 s transplant must lose <2%: {flipped} flips"
        );
    }

    #[test]
    fn warm_transplant_is_destroyed() {
        let m = DramRemanenceModel::calibrated();
        let mut dram = Dram::new(4096);
        dram.write(0, &[0xFF; 4096]).unwrap();
        apply_decay(&mut dram, &m, Duration::from_secs(120), Temperature::from_celsius(45.0), 3, 0);
        let survivors =
            dram.raw_cells(0, 4096).unwrap().iter().map(|b| b.count_ones()).sum::<u32>();
        assert!(
            survivors < 400,
            "warm decay should erase nearly everything: {survivors} bits left"
        );
    }

    #[test]
    fn decay_is_deterministic_per_seed_and_event() {
        let m = DramRemanenceModel::calibrated();
        let run = |seed, event| {
            let mut d = Dram::new(1024);
            d.write(0, &[0x5A; 1024]).unwrap();
            apply_decay(&mut d, &m, Duration::from_secs(10), Temperature::ROOM, seed, event);
            d.raw_cells(0, 1024).unwrap().to_vec()
        };
        assert_eq!(run(7, 0), run(7, 0));
        assert_ne!(run(7, 0), run(7, 1));
        assert_ne!(run(7, 0), run(8, 0));
    }
}
