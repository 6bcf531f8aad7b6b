//! Deterministic, allocation-free randomness for per-cell parameters.
//!
//! An [`SramArray`](crate::SramArray) can hold millions of cells, so we do
//! not store the stochastic process-variation parameters of each cell.
//! Instead every parameter is a pure function of `(array_seed, cell_index,
//! stream)` evaluated on demand through a SplitMix64-style mixer. This
//! keeps the model deterministic (the same seed always produces the same
//! silicon), reproducible across runs, and memory-light.

/// Streams separate the independent random quantities derived per cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stream {
    /// Power-up bias class and probability.
    PowerUpBias,
    /// Data-retention voltage.
    Drv,
    /// Leakage decay budget (lognormal multiplier).
    DecayBudget,
}

impl Stream {
    fn salt(self) -> u64 {
        match self {
            Stream::PowerUpBias => 0x9e37_79b9_7f4a_7c15,
            Stream::Drv => 0xbf58_476d_1ce4_e5b9,
            Stream::DecayBudget => 0x94d0_49bb_1331_11eb,
        }
    }
}

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives the raw 64-bit random word for one cell and stream.
#[inline]
pub(crate) fn cell_word(seed: u64, cell: usize, stream: Stream) -> u64 {
    mix64(seed ^ stream.salt() ^ mix64(cell as u64))
}

/// Derives a per-event word (e.g. for one particular power-up event).
#[inline]
pub(crate) fn event_word(seed: u64, cell: usize, event: u64) -> u64 {
    event_word_at(event_base(seed, event), cell)
}

/// The cell-independent half of [`event_word`]. Hot loops that sample
/// many cells of one event hoist this out and call [`event_word_at`]
/// per cell, skipping a redundant `mix64(event)` per sample.
#[inline]
pub(crate) fn event_base(seed: u64, event: u64) -> u64 {
    seed ^ 0xd6e8_feb8_6659_fd93 ^ mix64(event)
}

/// Completes [`event_word`] from a hoisted [`event_base`].
#[inline]
pub(crate) fn event_word_at(base: u64, cell: usize) -> u64 {
    mix64(base ^ mix64(cell as u64))
}

/// Maps a 64-bit word to a uniform float in `[0, 1)`.
#[inline]
pub(crate) fn unit_f64(word: u64) -> f64 {
    // 53 high bits -> [0, 1).
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The integer bound `t` with `k·2⁻⁵³ < x ⟺ k < t` for every 53-bit
/// draw `k` (a random word's top 53 bits, read as a uniform in
/// `[0, 1)`), so a hot loop compares the draw instead of converting it.
/// Scaling by 2⁵³ is exact, so `t = ⌈x·2⁵³⌉`, clamped to 0 for `x ≤ 0`
/// (and NaN, which no draw is below) and to 2⁵³ for `x ≥ 1`.
#[inline]
pub fn unit_threshold(x: f64) -> u64 {
    const UNIT: u64 = 1 << 53;
    if x >= 1.0 {
        UNIT
    } else if x > 0.0 {
        (x * UNIT as f64).ceil() as u64
    } else {
        0
    }
}

/// Maps two 64-bit words to a standard normal sample (Box–Muller).
#[inline]
pub(crate) fn std_normal(w1: u64, w2: u64) -> f64 {
    let u1 = unit_f64(w1).max(f64::MIN_POSITIVE);
    let u2 = unit_f64(w2);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_nontrivial() {
        assert_eq!(mix64(0), mix64(0));
        assert_ne!(mix64(0), mix64(1));
        assert_ne!(mix64(1), 1);
    }

    #[test]
    fn streams_are_independent() {
        let a = cell_word(7, 3, Stream::PowerUpBias);
        let b = cell_word(7, 3, Stream::Drv);
        let c = cell_word(7, 3, Stream::DecayBudget);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    #[test]
    fn unit_f64_in_range() {
        for i in 0..10_000u64 {
            let u = unit_f64(mix64(i));
            assert!((0.0..1.0).contains(&u), "{u} out of range");
        }
    }

    #[test]
    fn unit_f64_mean_is_near_half() {
        let n = 100_000u64;
        let mean: f64 = (0..n).map(|i| unit_f64(mix64(i))).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn unit_threshold_is_exact_at_its_boundary() {
        let unit = 1.0 / (1u64 << 53) as f64;
        let mut xs = vec![
            0.0,
            -0.0,
            -1.0,
            f64::MIN_POSITIVE,
            1e-300,
            unit,
            1e-9,
            0.15,
            0.35,
            0.5,
            0.7,
            1.0 - 1e-9,
            1.0 - unit,
            1.0,
            1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for i in 0..500u64 {
            // Dyadic draws, and values in [2⁻⁶³, 1) finer than 2⁻⁵³ apart.
            xs.push(unit_f64(mix64(i)));
            xs.push(f64::from_bits((0x3c0 + i % 0x3f) << 52 | mix64(!i) >> 12));
        }
        for x in xs {
            let t = unit_threshold(x);
            assert!(t <= 1 << 53, "x = {x:e}, t = {t}");
            for k in [t.saturating_sub(1), t, t + 1] {
                // `k` is a 53-bit draw only below 2⁵³; `k << 11` keeps it.
                if k < 1 << 53 {
                    assert_eq!(k < t, unit_f64(k << 11) < x, "x = {x:e}, k = {k}, t = {t}");
                }
            }
        }
    }

    #[test]
    fn std_normal_moments() {
        let n = 100_000u64;
        let samples: Vec<f64> = (0..n).map(|i| std_normal(mix64(i), mix64(i ^ 0xabcdef))).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn event_words_vary_per_event() {
        assert_ne!(event_word(1, 2, 0), event_word(1, 2, 1));
        assert_eq!(event_word(1, 2, 0), event_word(1, 2, 0));
    }

    #[test]
    fn hoisted_event_base_matches_event_word() {
        for seed in [0u64, 7, 0xdead_beef] {
            for event in [0u64, 1, 99] {
                let base = event_base(seed, event);
                for cell in [0usize, 1, 63, 4096, 1 << 20] {
                    assert_eq!(event_word_at(base, cell), event_word(seed, cell, event));
                }
            }
        }
    }
}
