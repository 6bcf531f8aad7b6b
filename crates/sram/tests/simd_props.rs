//! Lane-width equivalence of the bit-sliced resolution kernels.
//!
//! The engine resolves power cycles through four interchangeable
//! implementations: the per-bit scalar reference, the single-word
//! (64-lane) kernel, the full-width 4×u64 (256-lane) kernel, and the
//! rep-delta sparse path (`ResolutionMode::Batched` once a baseline has
//! settled — cycle 2 of a repeated condition builds it, cycle 3+ rides
//! it). Their contract is bit-for-bit equality — same images, same
//! retention reports — for every `(seed, distribution, event, stress)`.
//! These tests pin that four-way scalar == word == SIMD == delta
//! equivalence across random dies *and* random process distributions
//! (engine_props.rs only varies the die seed), and nail the ragged-tail
//! cases where a lane straddles the array's end.

use proptest::prelude::*;
use std::time::Duration;
use voltboot_sram::cell::CellDistribution;
use voltboot_sram::{ArrayConfig, OffEvent, ResolutionMode, SramArray, Temperature};

/// `Batched` (delta-eligible) last, so every cycle after the first
/// compares the sparse path against the scalar/word/wide dense paths.
const MODES: [ResolutionMode; 4] = [
    ResolutionMode::Scalar,
    ResolutionMode::BatchedWord,
    ResolutionMode::BatchedFull,
    ResolutionMode::Batched,
];

/// Random but well-formed process distributions: every field finite,
/// `drv_min < drv_max`, fractions in range. Spans dies much weaker and
/// much stronger than the calibrated part, so the quantizer grids are
/// exercised at many different bucket widths.
fn distributions() -> impl Strategy<Value = CellDistribution> {
    (0.0f64..0.8, 0.1f64..0.5, 0.001f64..0.12, 0.0f64..0.12, 0.45f64..0.95, 0.05f64..1.2).prop_map(
        |(metastable, mean, sigma, min, max, decay)| CellDistribution {
            metastable_fraction: metastable,
            drv_mean: mean,
            drv_sigma: sigma,
            drv_min: min,
            drv_max: max,
            decay_sigma: decay,
        },
    )
}

/// Random off-rail treatments (same span as engine_props.rs).
fn off_events() -> impl Strategy<Value = OffEvent> {
    prop_oneof![
        Just(OffEvent::unpowered()),
        (0.0f64..1.0).prop_map(OffEvent::held),
        (0.0f64..1.0, 0.0f64..1.0).prop_map(|(v, frac)| OffEvent::held_with_droop(v, v * frac)),
    ]
}

/// Runs `cycles` identical power cycles on four clones of one die —
/// scalar, single-word, 4-word, and delta-eligible — and asserts every
/// report and image matches across all four. The first power-on
/// exercises the pure sampling path; each cycle exercises decay/DRV
/// resolution. With `cycles >= 3` the delta clone's last cycles ride a
/// settled baseline (cycle 1 notes the condition, cycle 2 builds, 3+
/// apply).
fn assert_lane_widths_agree(
    seed: u64,
    config: &ArrayConfig,
    fill: u8,
    event: OffEvent,
    dt: Duration,
    celsius: f64,
    cycles: usize,
) {
    let mut arrays: Vec<SramArray> =
        MODES.iter().map(|_| SramArray::new(config.clone(), seed)).collect();
    let first: Vec<_> =
        arrays.iter_mut().zip(MODES).map(|(a, mode)| a.power_on_with(mode).unwrap()).collect();
    for (i, mode) in MODES.iter().enumerate().skip(1) {
        assert_eq!(first[0], first[i], "first power-up: scalar vs {mode:?}");
    }
    let image = arrays[0].snapshot().unwrap();
    for a in &arrays[1..] {
        assert_eq!(image, a.snapshot().unwrap(), "first power-up images differ");
    }
    for cycle in 0..cycles {
        for a in &mut arrays {
            a.fill(fill).unwrap();
            a.power_off(event).unwrap();
            a.elapse(dt, Temperature::from_celsius(celsius));
        }
        let reports: Vec<_> =
            arrays.iter_mut().zip(MODES).map(|(a, mode)| a.power_on_with(mode).unwrap()).collect();
        for (i, mode) in MODES.iter().enumerate().skip(1) {
            assert_eq!(
                reports[0], reports[i],
                "cycle {cycle}: scalar vs {mode:?} ({event:?}, {dt:?}, {celsius} C)"
            );
        }
        let image = arrays[0].snapshot().unwrap();
        for a in &arrays[1..] {
            assert_eq!(
                image,
                a.snapshot().unwrap(),
                "cycle {cycle} images differ ({event:?}, {dt:?}, {celsius} C)"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The central four-way equivalence: random seeds, random process
    /// distributions, random events and stress levels, three cycles
    /// each (cold planes, warm planes + baseline build, then a settled
    /// delta rep).
    #[test]
    fn lane_widths_agree_across_distributions(
        seed in any::<u64>(),
        bits in 1usize..4096,
        fill in any::<u8>(),
        dist in distributions(),
        event in off_events(),
        dt_ms in 0u64..400,
        celsius in -120.0f64..30.0,
    ) {
        let mut config = ArrayConfig::with_bits("simd-prop", bits);
        config.distribution = dist;
        assert_lane_widths_agree(
            seed,
            &config,
            fill,
            event,
            Duration::from_millis(dt_ms),
            celsius,
            3,
        );
    }

    /// Accumulated stress across several unpowered intervals at varying
    /// temperatures — the decay-cut comparison is driven through many
    /// different quantized stress values on the same warm planes.
    #[test]
    fn lane_widths_agree_under_accumulated_stress(
        seed in any::<u64>(),
        bits in 1usize..2048,
        dt1_ms in 1u64..200,
        dt2_ms in 1u64..200,
        c1 in -120.0f64..0.0,
        c2 in -120.0f64..0.0,
    ) {
        let config = ArrayConfig::with_bits("simd-stress", bits);
        let mut arrays: Vec<SramArray> =
            MODES.iter().map(|_| SramArray::new(config.clone(), seed)).collect();
        for (a, mode) in arrays.iter_mut().zip(MODES) {
            a.power_on_with(mode).unwrap();
            a.fill(0x6C).unwrap();
            a.power_off(OffEvent::unpowered()).unwrap();
            a.elapse(Duration::from_millis(dt1_ms), Temperature::from_celsius(c1));
            a.elapse(Duration::from_millis(dt2_ms), Temperature::from_celsius(c2));
        }
        let reports: Vec<_> = arrays
            .iter_mut()
            .zip(MODES)
            .map(|(a, mode)| a.power_on_with(mode).unwrap())
            .collect();
        for i in 1..MODES.len() {
            prop_assert_eq!(&reports[0], &reports[i]);
        }
        let image = arrays[0].snapshot().unwrap();
        for a in &arrays[1..] {
            prop_assert_eq!(&image, &a.snapshot().unwrap());
        }
    }
}

/// The dense and delta-eligible modes held against the scalar oracle by
/// [`mixed_event_sequences_agree`].
const SEQUENCE_MODES: [ResolutionMode; 3] =
    [ResolutionMode::Scalar, ResolutionMode::BatchedFull, ResolutionMode::Batched];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One fresh die through a random sequence of mixed off events —
    /// unpowered at random stress, clean holds, droops — so the die's
    /// lazily built retention blocks come into being in varying orders
    /// and mid-sequence. Reports and images must agree after every
    /// cycle.
    #[test]
    fn mixed_event_sequences_agree(
        seed in any::<u64>(),
        bits in 1usize..9000,
        fill in any::<u8>(),
        sequence in proptest::collection::vec(
            (off_events(), 0u64..400, -120.0f64..30.0),
            2..=6,
        ),
    ) {
        let config = ArrayConfig::with_bits("simd-sequence", bits);
        let mut arrays: Vec<SramArray> =
            SEQUENCE_MODES.iter().map(|_| SramArray::new(config.clone(), seed)).collect();
        for (a, mode) in arrays.iter_mut().zip(SEQUENCE_MODES) {
            a.power_on_with(mode).unwrap();
        }
        for (cycle, &(event, dt_ms, celsius)) in sequence.iter().enumerate() {
            let reports: Vec<_> = arrays
                .iter_mut()
                .zip(SEQUENCE_MODES)
                .map(|(a, mode)| {
                    a.fill(fill).unwrap();
                    a.power_off(event).unwrap();
                    a.elapse(Duration::from_millis(dt_ms), Temperature::from_celsius(celsius));
                    a.power_on_with(mode).unwrap()
                })
                .collect();
            let image = arrays[0].snapshot().unwrap();
            for (i, a) in arrays.iter().enumerate().skip(1) {
                prop_assert_eq!(&reports[0], &reports[i], "cycle {} report ({:?})", cycle, event);
                prop_assert_eq!(&image, &a.snapshot().unwrap(), "cycle {} image ({:?})", cycle, event);
            }
        }
    }
}

/// Ragged tails: lengths that end mid-word (65), one bit short of a
/// word boundary (255), and one bit past a full 4-word lane (257). The
/// wide kernel must mask the final partial lane identically to the
/// scalar path in both the power-up sampling pass (first power-on) and
/// the decay/DRV resolution pass (lossy cycle).
#[test]
fn tail_lanes_are_bit_exact() {
    for bits in [65usize, 255, 257] {
        for event in
            [OffEvent::unpowered(), OffEvent::held(0.25), OffEvent::held_with_droop(0.8, 0.3)]
        {
            let config = ArrayConfig::with_bits("tail", bits);
            assert_lane_widths_agree(
                0x7A11 ^ bits as u64,
                &config,
                0xA5,
                event,
                Duration::from_millis(25),
                -110.0,
                3,
            );
        }
    }
}

/// A tail word shared with a *weak* distribution, where nearly every
/// cell sits inside the DRV grid's interesting range — maximum traffic
/// through the bucket-equality fallback on the final partial lane.
#[test]
fn tail_lanes_survive_weak_distributions() {
    let mut config = ArrayConfig::with_bits("tail-weak", 257);
    config.distribution = CellDistribution {
        metastable_fraction: 0.6,
        drv_mean: 0.30,
        drv_sigma: 0.002, // razor-thin: every cell near one bucket edge
        drv_min: 0.28,
        drv_max: 0.32,
        decay_sigma: 0.05,
    };
    assert_lane_widths_agree(
        0xBAD_5EED,
        &config,
        0x3C,
        OffEvent::held_with_droop(0.8, 0.30),
        Duration::from_millis(10),
        -60.0,
        3,
    );
}

/// Lane equivalence must hold through the sharded parallel path too:
/// an array past the threading threshold with a ragged tail, resolved
/// at every lane width under a forced multi-thread budget. Two cycles,
/// so the delta clone's second cycle exercises the *sharded baseline
/// build* (the keep-mask scan fans out exactly like a full resolve).
#[test]
fn parallel_tail_lanes_are_bit_exact() {
    let bits = voltboot_sram::engine::PAR_MIN_BITS + 257;
    let config = ArrayConfig::with_bits("par-tail", bits);
    voltboot_sram::par::with_budget(4, || {
        assert_lane_widths_agree(
            0x9E37,
            &config,
            0xC3,
            OffEvent::unpowered(),
            Duration::from_millis(20),
            -110.0,
            2,
        );
    });
}

/// Settled-baseline reps under a forced multi-thread budget on a
/// threshold-sized array: the sparse apply against the dense wide path
/// only (no scalar clone — at this size the per-bit reference would
/// dominate the suite's runtime for no extra coverage).
#[test]
fn parallel_delta_steady_state_is_bit_exact() {
    let bits = voltboot_sram::engine::PAR_MIN_BITS + 65;
    let config = ArrayConfig::with_bits("par-delta", bits);
    voltboot_sram::par::with_budget(4, || {
        let seed = 0x9E37_DE17A;
        let event = OffEvent::held_with_droop(0.8, 0.35);
        let mut sparse = SramArray::new(config.clone(), seed);
        let mut dense = SramArray::new(config.clone(), seed);
        sparse.power_on_with(ResolutionMode::Batched).unwrap();
        dense.power_on_with(ResolutionMode::BatchedFull).unwrap();
        for cycle in 0..4 {
            for a in [&mut sparse, &mut dense] {
                a.fill(0x5A).unwrap();
                a.power_off(event).unwrap();
                a.elapse(Duration::from_millis(5), Temperature::from_celsius(25.0));
            }
            let rs = sparse.power_on_with(ResolutionMode::Batched).unwrap();
            let rd = dense.power_on_with(ResolutionMode::BatchedFull).unwrap();
            assert_eq!(rs, rd, "cycle {cycle} reports differ");
            assert_eq!(
                sparse.snapshot().unwrap(),
                dense.snapshot().unwrap(),
                "cycle {cycle} images differ"
            );
        }
    });
}
