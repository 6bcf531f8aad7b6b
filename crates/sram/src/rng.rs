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

/// The smallest first draw `k1 = w1 >> 11` that [`fast_normal`] serves.
/// Below it (`u₁ < 2⁻³²`, one draw in 2³²) callers take [`std_normal`];
/// that covers `k1 = 0`, which `std_normal` clamps to
/// `f64::MIN_POSITIVE`, and bounds the radius `√(−2 ln u₁)` by
/// `√(64 ln 2) < 6.67`, the factor [`FAST_NORMAL_ERROR`] is derived with.
pub(crate) const FAST_NORMAL_MIN_K1: u64 = 1 << 21;

/// A bound on `|fast_normal(k1, k2) − std_normal(k1 << 11, k2 << 11)|`
/// for every `k1 ≥ FAST_NORMAL_MIN_K1` and `k2 < 2⁵³`, that is, against
/// `std_normal`'s own libm result, not the true value.
///
/// * `ln_unit`: the atanh series stops after `s¹³`, so its relative
///   truncation error is at most `s¹⁴ / (15 (1 − s²)) < 1.32·10⁻¹²`
///   for `|s| ≤ 3 − 2√2`. `m − 1` is exact (Sterbenz); the rounding of
///   `m + 1`, the division and the Horner steps adds under 10⁻¹⁵. For
///   `j < 0`, `|ln m| ≤ |ln u₁|` and `|j ln 2| ≤ 2 |ln u₁|`, so no
///   cancellation amplifies either part: `−2 ln u₁` is off by a relative
///   `δ < 1.33·10⁻¹²`, and its square root `r` by `δ/2 + 2⁻⁵³ < 6.7·10⁻¹³`.
/// * `cos_turn`: the cosine series stops after `θ¹²` and the sine series
///   after `θ¹³`; on `|θ| ≤ π/4` they are off by at most
///   `(π/4)¹⁴/14! < 3.9·10⁻¹³` and `(π/4)¹⁵/15! < 2.1·10⁻¹⁴`. The
///   quadrant split is exact, and `θ`'s one rounded product and the
///   Horner steps add under 2·10⁻¹⁵.
/// * So `|fast − true| ≤ r (6.7·10⁻¹³ + 3.93·10⁻¹³) < 6.67 · 1.07·10⁻¹²
///   < 7.2·10⁻¹²`.
/// * `std_normal` itself: glibc's `ln` and `cos` are within 1 ulp,
///   `τ·u₂` rounds twice (the constant and the product, 2 ulp of an
///   argument below 2π), and `sqrt` and the product are correctly
///   rounded, so `|libm − true| < r · 2·10⁻¹⁵ < 1.4·10⁻¹⁴`.
///
/// Together `|fast − libm| < 7.3·10⁻¹²`; this constant rounds that up
/// to 10⁻¹¹. Callers add a further safety factor on top (the DRV
/// bracket in `engine::drv_buckets` is 100 times wider), so even a
/// libm hundreds of ulps off would stay inside it.
pub(crate) const FAST_NORMAL_ERROR: f64 = 1e-11;

/// `√½`'s bit pattern: [`ln_unit`] subtracts it to split a float into
/// `2ᵉ·m` with `m` in `[√½, √2)`.
const SQRT_HALF_BITS: u64 = 0x3fe6_a09e_667f_3bcd;

/// `2⁵²`'s bit pattern. OR-ing an integer `n < 2⁵²` into its significand
/// gives the float `2⁵² + n` exactly, so subtracting `2⁵²` converts `n`
/// with plain float arithmetic, which vectorizes where an integer
/// conversion instruction may not exist.
const TWO_52_BITS: u64 = 0x4330_0000_0000_0000;

/// `n as f64` for `n < 2⁵²`, exactly (see [`TWO_52_BITS`]).
#[inline(always)]
fn small_to_f64(n: u64) -> f64 {
    f64::from_bits(TWO_52_BITS | n) - f64::from_bits(TWO_52_BITS)
}

/// `ln(k·2⁻⁵³)` for a 53-bit draw `1 ≤ k < 2⁵³` (the `u₁ = unit_f64(w)`
/// of [`std_normal`]), without libm and without a branch.
///
/// `k` converts to a float exactly, its top bit added as `2⁵²` or 0.
/// Subtracting `√½`'s bits borrows out of the exponent field exactly
/// when the significand is below `√2`'s, so the shifted difference is
/// the `e` of `k = 2ᵉ·m`, `m ∈ [√½, √2)`, and subtracting `e` from the
/// exponent field leaves `m`. Then `ln u = (e − 53) ln 2 + ln m`, where
/// the integer `e − 53 ≤ 0` is subtracted before it is scaled, so a `u`
/// just below 1 keeps its full relative precision, and
/// `ln m = 2 atanh s` with `s = (m − 1)/(m + 1)`, `|s| ≤ 3 − 2√2 < 0.172`,
/// summed through `s¹³`. [`FAST_NORMAL_ERROR`] bounds the result.
#[inline(always)]
pub(crate) fn ln_unit(k: u64) -> f64 {
    // 2/(2n + 1) for n = 1..=6: the atanh series' s³ through s¹³ terms.
    const C: [f64; 6] = [2.0 / 3.0, 2.0 / 5.0, 2.0 / 7.0, 2.0 / 9.0, 2.0 / 11.0, 2.0 / 13.0];
    const LOW: u64 = (1 << 52) - 1;
    let top = f64::from_bits(TWO_52_BITS & 0u64.wrapping_sub(k >> 52));
    let x = (small_to_f64(k & LOW) + top).to_bits();
    let e = x.wrapping_sub(SQRT_HALF_BITS) >> 52;
    let m = f64::from_bits(x.wrapping_sub(e << 52));
    let s = (m - 1.0) / (m + 1.0);
    let s2 = s * s;
    let p = s2 * (C[0] + s2 * (C[1] + s2 * (C[2] + s2 * (C[3] + s2 * (C[4] + s2 * C[5])))));
    (small_to_f64(e) - 53.0) * std::f64::consts::LN_2 + (2.0 * s + s * p)
}

/// `cos(2π·k·2⁻⁵³)` for a 53-bit draw `k < 2⁵³` (the `u₂ = unit_f64(w)`
/// of [`std_normal`]), without libm and without a branch.
///
/// An eighth of a turn added to `k` makes its top two bits the quadrant
/// `q` whose centre is nearest, `2πu = q·π/2 + θ` with `θ ∈ [−π/4, π/4)`
/// taken exactly from the remaining 51 bits. `cos θ` (through `θ¹²`) and
/// `sin θ` (through `θ¹³`) are short Taylor series there, and
/// `cos(q·π/2 + θ)` is `cos θ`, `−sin θ`, `−cos θ`, `sin θ` for
/// `q = 0..3`: weighted by `q`'s low bit as 0.0 or 1.0, which is exact
/// and compiles to no branch, then signed by a bit mask.
/// [`FAST_NORMAL_ERROR`] bounds the result.
#[inline(always)]
pub(crate) fn cos_turn(k: u64) -> f64 {
    // (−1)ⁿ/(2n)! and (−1)ⁿ/(2n + 1)! for n = 1..=6.
    const COS: [f64; 6] = [
        -1.0 / 2.0,
        1.0 / 24.0,
        -1.0 / 720.0,
        1.0 / 40_320.0,
        -1.0 / 3_628_800.0,
        1.0 / 479_001_600.0,
    ];
    const SIN: [f64; 6] = [
        -1.0 / 6.0,
        1.0 / 120.0,
        -1.0 / 5_040.0,
        1.0 / 362_880.0,
        -1.0 / 39_916_800.0,
        1.0 / 6_227_020_800.0,
    ];
    const QUARTER: u64 = 1 << 51;
    let v = (k + QUARTER / 2) & (4 * QUARTER - 1);
    let q = v >> 51;
    let theta = (small_to_f64(v & (QUARTER - 1)) - (QUARTER / 2) as f64)
        * (std::f64::consts::TAU / (4 * QUARTER) as f64);
    let t2 = theta * theta;
    let cos = 1.0
        + t2 * (COS[0]
            + t2 * (COS[1] + t2 * (COS[2] + t2 * (COS[3] + t2 * (COS[4] + t2 * COS[5])))));
    let sin = theta
        + theta
            * t2
            * (SIN[0]
                + t2 * (SIN[1] + t2 * (SIN[2] + t2 * (SIN[3] + t2 * (SIN[4] + t2 * SIN[5])))));
    let odd = f64::from_bits(1f64.to_bits() & 0u64.wrapping_sub(q & 1));
    let negative = ((q + 1) >> 1 & 1) << 63;
    f64::from_bits((cos * (1.0 - odd) + sin * odd).to_bits() ^ negative)
}

/// [`std_normal`]'s sample for the draws `k1 = w1 >> 11` and
/// `k2 = w2 >> 11`, without libm, within [`FAST_NORMAL_ERROR`] of
/// `std_normal`'s own result when `k1 ≥ FAST_NORMAL_MIN_K1`.
#[inline(always)]
pub(crate) fn fast_normal(k1: u64, k2: u64) -> f64 {
    (-2.0 * ln_unit(k1)).sqrt() * cos_turn(k2)
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
    fn fast_normal_stays_within_its_error_bound() {
        // Targeted draws — the smallest first draw served, the exponent
        // splits at a power of two and at √2, the largest; second draws
        // on every eighth turn ±1 — and 200,000 random pairs.
        const TOP: u64 = (1 << 53) - 1;
        let split = ((1u64 << 52) as f64 * std::f64::consts::SQRT_2) as u64;
        let k1s = [FAST_NORMAL_MIN_K1, FAST_NORMAL_MIN_K1 + 1, split, split + 1, 1 << 52, TOP];
        let k2s: Vec<u64> = (0..=8u64)
            .flat_map(|eighth| [eighth << 50; 3].into_iter().zip([-1i64, 0, 1]))
            .map(|(k, d)| k.saturating_add_signed(d).min(TOP))
            .collect();
        let targeted = k1s.iter().flat_map(|&k1| k2s.iter().map(move |&k2| (k1, k2)));
        let random =
            (0..200_000u64).map(|i| ((mix64(i) >> 11).max(FAST_NORMAL_MIN_K1), mix64(!i) >> 11));
        let mut worst = 0.0f64;
        for (k1, k2) in targeted.chain(random) {
            let err = (fast_normal(k1, k2) - std_normal(k1 << 11, k2 << 11)).abs();
            assert!(err <= FAST_NORMAL_ERROR, "k1 = {k1}, k2 = {k2}: off by {err:e}");
            worst = worst.max(err);
        }
        // The bound is not loose by orders of magnitude either.
        assert!(worst > FAST_NORMAL_ERROR / 1e4, "worst error {worst:e}");
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
