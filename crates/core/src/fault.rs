//! Deterministic fault injection for attack campaigns.
//!
//! A real Volt Boot session is not the clean five-step flow of the
//! paper's Figure 5: probe clips slip, bench supplies brown out, PMICs
//! re-sequence rails in the wrong order after a sloppy reconnect, and
//! debug readouts return flipped bits. This module models that glitch
//! surface as a *seeded plan*: a [`FaultPlan`] deterministically decides,
//! per repetition and per retry attempt, which faults fire — so a
//! campaign with a fixed seed replays bit-identically, faults included.
//!
//! Fault classes (and where they inject):
//!
//! * **Probe contact glitch** — extra contact resistance and a sagging
//!   current limit at the *attach* step;
//! * **Rail brown-out** — a momentary dip of every held rail below its
//!   steady hold voltage during the *power-cycle* step;
//! * **Reconnect misordering** — the PMIC restores rails in reverse
//!   order at the *reconnect* step, with a small extra inrush dip;
//! * **Readout bit errors** — sparse deterministic bit flips in the
//!   *extracted* images;
//! * **Extraction dropout** — the debug port fails to enumerate at the
//!   *extract* step, failing the whole attempt (the retryable fault).

use voltboot_sram::PackedBits;

/// SplitMix64 finalizer — the same mixer the SRAM substrate uses for
/// per-cell derivation, duplicated here so fault draws never perturb
/// (or depend on) the silicon's random stream.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Maps a mixed word to a unit-interval sample in `[0, 1)`.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Per-class fault probabilities, each in `[0, 1]`. The default is all
/// zeros: no fault ever fires and every drawn [`StepFaults`] is
/// [`StepFaults::none`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultRates {
    /// Probability the probe contact glitches at the attach step.
    pub probe_glitch: f64,
    /// Probability of a momentary rail brown-out during the hold.
    pub brownout: f64,
    /// Probability the PMIC misorders rails at reconnect.
    pub reconnect_misorder: f64,
    /// Probability the debug readout suffers bit errors; when it fires,
    /// roughly [`READOUT_ERROR_FRACTION`] of extracted bits flip.
    pub readout_bit_error: f64,
    /// Probability the debug port fails to enumerate at the extract
    /// step, failing the attempt outright (the retryable fault).
    pub extraction_dropout: f64,
}

impl FaultRates {
    /// All classes at the same rate — the campaign sweep's knob.
    pub fn uniform(rate: f64) -> Self {
        FaultRates {
            probe_glitch: rate,
            brownout: rate,
            reconnect_misorder: rate,
            readout_bit_error: rate,
            extraction_dropout: rate,
        }
    }

    /// Whether every rate is exactly zero.
    pub fn all_zero(&self) -> bool {
        *self == FaultRates::default()
    }
}

/// Fraction of extracted bits flipped when a readout bit-error fault
/// fires (of the order of a marginal JTAG clock, not a dead wire).
pub const READOUT_ERROR_FRACTION: f64 = 0.002;

/// Brown-out floor voltages are drawn uniformly from this range (volts).
/// The low end is far below any cell's retention voltage; the high end
/// brushes the calibrated DRV distribution, so some draws cost nothing.
pub const BROWNOUT_RANGE_V: (f64, f64) = (0.05, 0.45);

/// The faults one attack attempt must weather, drawn from a
/// [`FaultPlan`]. `Default` (== [`StepFaults::none`]) injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepFaults {
    /// The probe contact glitches at attach: extra series resistance,
    /// sagging current limit.
    pub probe_glitch: bool,
    /// A momentary brown-out pulls held rails down to this voltage.
    pub brownout_min_voltage: Option<f64>,
    /// The PMIC restores rails in reverse order at reconnect.
    pub reconnect_misorder: bool,
    /// Fraction of extracted bits to flip (`0.0` = clean readout).
    pub readout_bit_error_fraction: f64,
    /// Seed for the readout corruption positions.
    pub readout_noise_seed: u64,
    /// The debug port fails to enumerate: the extract step errors.
    pub extraction_dropout: bool,
    /// Seed deciding *which* readout passes a firing dropout erases
    /// when the attack runs multi-pass extraction (single-pass attempts
    /// fail outright, as ever). Zero unless the dropout fired.
    pub dropout_seed: u64,
}

impl StepFaults {
    /// No faults — the nominal attempt.
    pub fn none() -> Self {
        StepFaults::default()
    }

    /// Whether any fault is armed.
    pub fn any(&self) -> bool {
        self.probe_glitch
            || self.brownout_min_voltage.is_some()
            || self.reconnect_misorder
            || self.readout_bit_error_fraction > 0.0
            || self.extraction_dropout
    }

    /// Names of the armed fault classes, for per-rep records.
    pub fn fired(&self) -> Vec<&'static str> {
        let mut names = Vec::new();
        if self.probe_glitch {
            names.push("probe_glitch");
        }
        if self.brownout_min_voltage.is_some() {
            names.push("brownout");
        }
        if self.reconnect_misorder {
            names.push("reconnect_misorder");
        }
        if self.readout_bit_error_fraction > 0.0 {
            names.push("readout_bit_error");
        }
        if self.extraction_dropout {
            names.push("extraction_dropout");
        }
        names
    }
}

/// A seeded, deterministic fault schedule for a whole campaign.
///
/// Each `(rep, attempt)` pair maps to one [`StepFaults`] draw through a
/// counter-mode generator: there is no shared stream state, so draws are
/// order-independent and a campaign resumed (or re-run) from the same
/// seed reproduces the identical fault history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// Per-class fault probabilities.
    pub rates: FaultRates,
}

impl FaultPlan {
    /// Creates a plan. Equal seeds and rates draw identical faults.
    pub fn new(seed: u64, rates: FaultRates) -> Self {
        FaultPlan { seed, rates }
    }

    /// A plan that never fires (all rates zero).
    pub fn quiescent(seed: u64) -> Self {
        FaultPlan { seed, rates: FaultRates::default() }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// One fault-class Bernoulli draw for `(rep, attempt, class)`.
    fn word(&self, rep: u64, attempt: u32, class: u64) -> u64 {
        mix64(
            self.seed
                ^ mix64(rep.wrapping_mul(0xA24B_AED4_963E_E407).wrapping_add(class))
                ^ mix64(u64::from(attempt).wrapping_mul(0x9FB2_1C65_1E98_DF25)),
        )
    }

    fn fires(&self, rate: f64, rep: u64, attempt: u32, class: u64) -> bool {
        rate > 0.0 && unit(self.word(rep, attempt, class)) < rate
    }

    /// Draws the faults for attempt `attempt` of repetition `rep`.
    pub fn draw(&self, rep: u64, attempt: u32) -> StepFaults {
        let brownout = self.fires(self.rates.brownout, rep, attempt, 1).then(|| {
            let (lo, hi) = BROWNOUT_RANGE_V;
            lo + (hi - lo) * unit(self.word(rep, attempt, 101))
        });
        let readout = self.fires(self.rates.readout_bit_error, rep, attempt, 3);
        let dropout = self.fires(self.rates.extraction_dropout, rep, attempt, 4);
        StepFaults {
            probe_glitch: self.fires(self.rates.probe_glitch, rep, attempt, 0),
            brownout_min_voltage: brownout,
            reconnect_misorder: self.fires(self.rates.reconnect_misorder, rep, attempt, 2),
            readout_bit_error_fraction: if readout { READOUT_ERROR_FRACTION } else { 0.0 },
            // Only a firing fault carries its seed; a quiescent draw
            // must compare equal to `StepFaults::none()`.
            readout_noise_seed: if readout { self.word(rep, attempt, 103) } else { 0 },
            extraction_dropout: dropout,
            dropout_seed: if dropout { self.word(rep, attempt, 104) } else { 0 },
        }
    }

    /// Whether a firing dropout erases readout pass `pass` of a
    /// multi-pass extraction, given the drawn
    /// [`StepFaults::dropout_seed`]. Roughly half the passes of a flaky
    /// port drop; pass selection is deterministic in the seed.
    pub fn pass_erased(dropout_seed: u64, pass: u32) -> bool {
        unit(mix64(dropout_seed ^ u64::from(pass).wrapping_mul(0xA076_1D64_78BD_642F))) < 0.5
    }

    /// Splits off repetition `rep`'s fault sub-stream.
    ///
    /// The handle is a pure `(plan, rep)` pair — counter mode means
    /// there is no stream state to advance or hand between threads, so
    /// sub-streams for different reps can be drawn from concurrently
    /// and in any order while staying draw-for-draw identical to
    /// `plan.draw(rep, attempt)`. This is the splitting rule the
    /// parallel campaign scheduler relies on: shard reps across
    /// workers, give each worker its rep's stream, and the fault
    /// history is independent of the schedule.
    pub fn rep_stream(&self, rep: u64) -> RepFaultStream {
        RepFaultStream { plan: *self, rep }
    }
}

/// One repetition's view of a [`FaultPlan`]: draws are indexed by
/// attempt only, with the rep id baked in. See
/// [`FaultPlan::rep_stream`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepFaultStream {
    plan: FaultPlan,
    rep: u64,
}

impl RepFaultStream {
    /// The repetition this stream belongs to.
    pub fn rep(&self) -> u64 {
        self.rep
    }

    /// Draws the faults for attempt `attempt` of this repetition —
    /// identical to `plan.draw(self.rep(), attempt)`.
    pub fn draw(&self, attempt: u32) -> StepFaults {
        self.plan.draw(self.rep, attempt)
    }
}

/// Flips roughly `fraction * bits.len()` bits of `bits` at deterministic
/// pseudo-random positions derived from `seed`, returning how many bits
/// actually flipped (distinct positions only — flipping a position twice
/// would undo the error).
pub fn corrupt_bits(bits: &mut PackedBits, fraction: f64, seed: u64) -> usize {
    let n = bits.len();
    if n == 0 || fraction <= 0.0 {
        return 0;
    }
    let target = ((fraction * n as f64).round() as usize).clamp(1, n);
    let mut flipped = 0usize;
    let mut counter = 0u64;
    let mut seen = std::collections::HashSet::with_capacity(target * 2);
    while flipped < target {
        let pos = (mix64(seed ^ counter.wrapping_mul(0xD6E8_FEB8_6659_FD93)) % n as u64) as usize;
        counter += 1;
        if seen.insert(pos) {
            bits.set(pos, !bits.get(pos));
            flipped += 1;
        }
    }
    flipped
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rates_never_fire() {
        let plan = FaultPlan::quiescent(42);
        for rep in 0..200 {
            for attempt in 0..3 {
                assert_eq!(plan.draw(rep, attempt), StepFaults::none());
            }
        }
    }

    #[test]
    fn draws_are_deterministic_and_order_independent() {
        let plan = FaultPlan::new(7, FaultRates::uniform(0.3));
        let forward: Vec<StepFaults> = (0..50).map(|r| plan.draw(r, 0)).collect();
        let backward: Vec<StepFaults> = (0..50).rev().map(|r| plan.draw(r, 0)).collect();
        assert_eq!(forward, backward.into_iter().rev().collect::<Vec<_>>());
        assert_eq!(plan.draw(13, 2), plan.draw(13, 2));
    }

    #[test]
    fn rates_control_fire_frequency() {
        let plan = FaultPlan::new(99, FaultRates { brownout: 0.5, ..FaultRates::default() });
        let fired = (0..1000).filter(|&r| plan.draw(r, 0).brownout_min_voltage.is_some()).count();
        assert!((350..650).contains(&fired), "brownout fired {fired}/1000 at rate 0.5");
        let never = FaultPlan::new(99, FaultRates::default());
        assert!((0..1000).all(|r| !never.draw(r, 0).any()));
    }

    #[test]
    fn attempts_draw_independent_faults() {
        let plan = FaultPlan::new(3, FaultRates::uniform(0.5));
        let distinct = (0..100).filter(|&r| plan.draw(r, 0) != plan.draw(r, 1)).count();
        assert!(distinct > 30, "attempt index must perturb draws, distinct={distinct}");
    }

    #[test]
    fn brownout_voltages_stay_in_range() {
        let plan = FaultPlan::new(11, FaultRates { brownout: 1.0, ..FaultRates::default() });
        for rep in 0..200 {
            let v = plan.draw(rep, 0).brownout_min_voltage.unwrap();
            assert!((BROWNOUT_RANGE_V.0..BROWNOUT_RANGE_V.1).contains(&v), "{v}");
        }
    }

    #[test]
    fn dropout_draws_carry_a_pass_erasure_seed() {
        let plan =
            FaultPlan::new(21, FaultRates { extraction_dropout: 1.0, ..FaultRates::default() });
        let f = plan.draw(0, 0);
        assert!(f.extraction_dropout);
        assert_ne!(f.dropout_seed, 0, "a firing dropout draws a pass-selection seed");
        assert_eq!(f.dropout_seed, plan.draw(0, 0).dropout_seed, "deterministic");
        // Quiescent draws stay equal to `none()` (seed zero).
        assert_eq!(FaultPlan::quiescent(21).draw(0, 0), StepFaults::none());
        // Pass erasure is deterministic in (seed, pass) and roughly
        // balanced, so multi-pass extraction usually keeps some passes.
        let erased: Vec<bool> =
            (0..64).map(|p| FaultPlan::pass_erased(f.dropout_seed, p)).collect();
        assert_eq!(
            erased,
            (0..64).map(|p| FaultPlan::pass_erased(f.dropout_seed, p)).collect::<Vec<_>>()
        );
        let count = erased.iter().filter(|&&e| e).count();
        assert!((16..48).contains(&count), "erasures should be roughly balanced: {count}/64");
    }

    #[test]
    fn rep_streams_match_direct_draws_in_any_order() {
        let plan = FaultPlan::new(0xFEED, FaultRates::uniform(0.4));
        // Split all streams up front, then draw from them interleaved
        // and backwards — the schedule a parallel campaign produces.
        let streams: Vec<RepFaultStream> = (0..16).map(|r| plan.rep_stream(r)).collect();
        for attempt in (0..4).rev() {
            for s in streams.iter().rev() {
                assert_eq!(s.draw(attempt), plan.draw(s.rep(), attempt));
            }
        }
        assert_eq!(streams[5].rep(), 5);
    }

    #[test]
    fn corruption_flips_the_requested_fraction() {
        let mut bits = PackedBits::zeros(10_000);
        let flipped = corrupt_bits(&mut bits, 0.01, 5);
        assert_eq!(flipped, 100);
        let ones = (0..10_000).filter(|&i| bits.get(i)).count();
        assert_eq!(ones, 100);
    }

    #[test]
    fn corruption_is_deterministic() {
        let mut a = PackedBits::zeros(4096);
        let mut b = PackedBits::zeros(4096);
        corrupt_bits(&mut a, 0.05, 77);
        corrupt_bits(&mut b, 0.05, 77);
        assert_eq!(a, b);
        let mut c = PackedBits::zeros(4096);
        corrupt_bits(&mut c, 0.05, 78);
        assert_ne!(a, c);
    }
}
