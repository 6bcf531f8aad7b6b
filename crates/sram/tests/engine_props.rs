//! Bit-exactness properties of the batched resolution engine.
//!
//! The engine's contract is that [`ResolutionMode::Batched`] — word
//! kernels, quantized die planes, the memoized plane cache, and the
//! sharded parallel path — produces byte-identical images and identical
//! retention reports to the scalar reference for every
//! `(seed, index, event)`. These tests drive both paths through random
//! seeds, hold voltages, droops, and stress levels and compare
//! everything observable.

use proptest::prelude::*;
use std::time::Duration;
use voltboot_sram::cell::{CellDistribution, CellParams};
use voltboot_sram::{ArrayConfig, OffEvent, PackedBits, ResolutionMode, SramArray, Temperature};

/// Random off-rail treatments, spanning unpowered, clean holds, droopy
/// holds, and holds above/below the whole DRV range.
fn off_events() -> impl Strategy<Value = OffEvent> {
    prop_oneof![
        Just(OffEvent::unpowered()),
        (0.0f64..1.0).prop_map(OffEvent::held),
        (0.0f64..1.0, 0.0f64..1.0).prop_map(|(v, frac)| OffEvent::held_with_droop(v, v * frac)),
    ]
}

/// Runs `cycles` identical power cycles on two clones of one die — one
/// resolved scalar, one batched — and asserts every image and report
/// matches. Covers warm-plane reuse because every cycle after the first
/// hits the memoized planes.
fn assert_paths_agree(
    seed: u64,
    bits: usize,
    fill: u8,
    event: OffEvent,
    dt: Duration,
    celsius: f64,
    cycles: usize,
) {
    let config = ArrayConfig::with_bits("prop", bits);
    let mut scalar = SramArray::new(config.clone(), seed);
    let mut batched = SramArray::new(config, seed);
    let r0s = scalar.power_on_with(ResolutionMode::Scalar).unwrap();
    let r0b = batched.power_on_with(ResolutionMode::Batched).unwrap();
    assert_eq!(r0s, r0b, "first power-up reports differ");
    assert_eq!(
        scalar.snapshot().unwrap(),
        batched.snapshot().unwrap(),
        "first power-up images differ"
    );
    for cycle in 0..cycles {
        for s in [&mut scalar, &mut batched] {
            s.fill(fill).unwrap();
            s.power_off(event).unwrap();
            s.elapse(dt, Temperature::from_celsius(celsius));
        }
        let rs = scalar.power_on_with(ResolutionMode::Scalar).unwrap();
        let rb = batched.power_on_with(ResolutionMode::Batched).unwrap();
        assert_eq!(rs, rb, "cycle {cycle} reports differ ({event:?}, {dt:?}, {celsius} C)");
        assert_eq!(
            scalar.snapshot().unwrap(),
            batched.snapshot().unwrap(),
            "cycle {cycle} images differ ({event:?}, {dt:?}, {celsius} C)"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The central equivalence: random dies, events, and stress levels,
    /// two cycles each (cold planes, then warm planes).
    #[test]
    fn batched_matches_scalar(
        seed in any::<u64>(),
        bits in 1usize..4096,
        fill in any::<u8>(),
        event in off_events(),
        dt_ms in 0u64..400,
        celsius in -120.0f64..30.0,
    ) {
        assert_paths_agree(seed, bits, fill, event, Duration::from_millis(dt_ms), celsius, 2);
    }

    /// A power-on that keeps every cell: a clean hold at or above the
    /// DRV ceiling with zero accumulated stress.
    #[test]
    fn keeps_all_power_on_agrees(
        seed in any::<u64>(),
        bits in 1usize..2048,
        volts in 0.55f64..2.0,
    ) {
        assert_paths_agree(seed, bits, 0x5A, OffEvent::held(volts), Duration::ZERO, 25.0, 2);
    }

    /// A power-on that loses every cell: unpowered long past any
    /// plausible decay budget, where only power-up sampling runs.
    #[test]
    fn loses_all_power_on_agrees(
        seed in any::<u64>(),
        bits in 1usize..2048,
    ) {
        assert_paths_agree(
            seed,
            bits,
            0xFF,
            OffEvent::unpowered(),
            Duration::from_secs(3600),
            25.0,
            2,
        );
    }

    /// `sample_powerup_only` (the all-lost shortcut) equals deriving the
    /// full parameter set and sampling — for every cell and event.
    #[test]
    fn sample_powerup_only_matches_full_derive(
        seed in any::<u64>(),
        index in 0usize..100_000,
        event in 0u64..64,
    ) {
        let dist = CellDistribution::calibrated();
        let full = CellParams::derive(seed, index, &dist);
        prop_assert_eq!(
            full.sample_powerup(seed, index, event),
            CellParams::sample_powerup_only(seed, index, &dist, event)
        );
    }
}

/// The sharded parallel path: an array at the threading threshold
/// (with a ragged tail word) must still match the scalar reference
/// exactly, regardless of how the word range is split across threads.
#[test]
fn parallel_sharded_resolution_is_bit_exact() {
    let bits = voltboot_sram::engine::PAR_MIN_BITS + 129;
    assert_paths_agree(
        0xC0FFEE,
        bits,
        0xA5,
        OffEvent::unpowered(),
        Duration::from_millis(20),
        -110.0,
        1,
    );
}

/// Droop through the middle of the DRV distribution — the hardest case
/// for the quantized DRV plane (maximum bucket-boundary traffic).
#[test]
fn mid_distribution_droop_is_bit_exact() {
    for vmin in [0.28, 0.2999999, 0.30, 0.3000001, 0.32] {
        assert_paths_agree(
            0xD1E,
            8192,
            0xC3,
            OffEvent::held_with_droop(0.8, vmin),
            Duration::from_millis(1),
            25.0,
            2,
        );
    }
}

/// Warm planes served from the global cache (a second array of the same
/// die) resolve identically to a cold scalar run.
#[test]
fn plane_cache_reuse_across_arrays_is_bit_exact() {
    let config = ArrayConfig::with_bytes("shared", 2048);
    let mut first = SramArray::new(config.clone(), 0xD1E2);
    first.power_on_with(ResolutionMode::Batched).unwrap();

    // `second` models the same physical die; its batched resolution hits
    // the planes `first` already built.
    let mut second = SramArray::new(config.clone(), 0xD1E2);
    let mut reference = SramArray::new(config, 0xD1E2);
    second.power_on_with(ResolutionMode::Batched).unwrap();
    reference.power_on_with(ResolutionMode::Scalar).unwrap();
    for s in [&mut second, &mut reference] {
        s.fill(0x3C).unwrap();
        s.power_off(OffEvent::unpowered()).unwrap();
        s.elapse(Duration::from_millis(20), Temperature::from_celsius(-110.0));
    }
    let rb = second.power_on_with(ResolutionMode::Batched).unwrap();
    let rs = reference.power_on_with(ResolutionMode::Scalar).unwrap();
    assert_eq!(rb, rs);
    assert_eq!(second.snapshot().unwrap(), reference.snapshot().unwrap());
}

/// Sizes for the owed-tile sequences: around a word, around a 4096-cell
/// tile, and three tiles plus a ragged tail.
const OWED_SIZES: [usize; 8] = [1, 63, 64, 65, 4095, 4096, 4097, 3 * 4096 + 5];

/// Bytes per 4096-cell tile.
const TILE_BYTES: usize = 512;

/// One power cycle of an owed-tile sequence. Each kind takes a different
/// branch of the power-on: the first power-on, `CertainlyLost` and
/// `BelowDrvMin` lose every cell and owe their own sample, `HeldClean`
/// and `ZeroStress` change no cell and keep it owed, and the rest settle
/// it before they resolve.
#[derive(Clone, Copy, Debug)]
enum Cycle {
    HeldClean,
    PartialDroop(f64),
    BelowDrvMin,
    ZeroStress,
    PartialColdDecay,
    CertainlyLost,
}

impl Cycle {
    fn run(self, a: &mut SramArray, mode: ResolutionMode) -> voltboot_sram::RetentionReport {
        let (event, off, celsius) = match self {
            Cycle::HeldClean => (OffEvent::held(0.8), Duration::from_millis(50), 25.0),
            Cycle::PartialDroop(v) => (OffEvent::held_with_droop(0.8, v), Duration::ZERO, 25.0),
            Cycle::BelowDrvMin => (OffEvent::held(0.04), Duration::from_millis(5), 25.0),
            Cycle::ZeroStress => (OffEvent::unpowered(), Duration::ZERO, 25.0),
            Cycle::PartialColdDecay => (OffEvent::unpowered(), Duration::from_millis(20), -110.0),
            Cycle::CertainlyLost => (OffEvent::unpowered(), Duration::from_secs(3600), 25.0),
        };
        a.power_off(event).unwrap();
        a.elapse(off, Temperature::from_celsius(celsius));
        a.power_on_with(mode).unwrap()
    }
}

/// How a byte write lines up with the tiles.
#[derive(Clone, Copy, Debug)]
enum WriteShape {
    /// A few bytes anywhere.
    Partial,
    /// One tile's bytes exactly (the whole array when it is under a tile).
    WholeTile,
    /// A few bytes across a tile edge.
    Straddling,
}

/// One step of an owed-tile sequence. Positions are raw draws, scaled to
/// the array when the step runs.
#[derive(Clone, Debug)]
enum Step {
    Cycle(Cycle),
    ReadBit(u64),
    ReadBytes(u64, u64),
    Snapshot,
    WriteBit(u64, bool),
    WriteBytes(WriteShape, u64, u64, u8),
    Fill(u8),
    Restore(u64),
}

fn cycles() -> impl Strategy<Value = Cycle> {
    prop_oneof![
        1 => Just(Cycle::HeldClean),
        1 => (0.25f64..0.36).prop_map(Cycle::PartialDroop),
        1 => Just(Cycle::BelowDrvMin),
        1 => Just(Cycle::ZeroStress),
        1 => Just(Cycle::PartialColdDecay),
        // The cycle that owes its sample, so later steps meet owed tiles.
        3 => Just(Cycle::CertainlyLost),
    ]
}

fn steps() -> impl Strategy<Value = Step> {
    let shapes = prop_oneof![
        Just(WriteShape::Partial),
        Just(WriteShape::WholeTile),
        Just(WriteShape::Straddling),
    ];
    prop_oneof![
        3 => cycles().prop_map(Step::Cycle),
        2 => any::<u64>().prop_map(Step::ReadBit),
        3 => (any::<u64>(), any::<u64>()).prop_map(|(a, b)| Step::ReadBytes(a, b)),
        1 => Just(Step::Snapshot),
        2 => (any::<u64>(), any::<bool>()).prop_map(|(a, v)| Step::WriteBit(a, v)),
        3 => (shapes, any::<u64>(), any::<u64>(), any::<u8>())
            .prop_map(|(s, a, b, v)| Step::WriteBytes(s, a, b, v)),
        1 => any::<u8>().prop_map(Step::Fill),
        1 => any::<u64>().prop_map(Step::Restore),
    ]
}

/// A byte offset in `0..=nbytes` within 8 bytes below a tile edge, or
/// anywhere when the array has no whole tile.
fn near_edge(raw: u64, nbytes: usize) -> usize {
    let tiles = nbytes / TILE_BYTES;
    if tiles == 0 {
        return raw as usize % (nbytes + 1);
    }
    let edge = TILE_BYTES * (1 + raw as usize % tiles);
    edge - (raw >> 32) as usize % 9
}

/// Runs `step` on `a` and returns what it observed, rendered for
/// comparison. Every write's bytes are a function of the step alone.
fn run_step(a: &mut SramArray, mode: ResolutionMode, step: &Step) -> String {
    let (bits, nbytes) = (a.len_bits(), a.len_bytes());
    let pattern = |len: usize, v: u8| -> Vec<u8> {
        (0..len).map(|i| v.wrapping_mul(31).wrapping_add((i as u8).wrapping_mul(7))).collect()
    };
    match *step {
        Step::Cycle(c) => format!("{:?}", c.run(a, mode)),
        Step::ReadBit(i) => format!("{:?}", a.read_bit(i as usize % bits)),
        Step::ReadBytes(at, len) => {
            let offset =
                if at % 2 == 0 { (at / 2) as usize % (nbytes + 1) } else { near_edge(at, nbytes) };
            let len = len as usize % (nbytes - offset + 1);
            format!("{:?}", a.try_read_bytes(offset, len))
        }
        Step::Snapshot => format!("{:?}", a.snapshot().map(|s| s.to_bytes())),
        Step::WriteBit(i, v) => format!("{:?}", a.write_bit(i as usize % bits, v)),
        Step::WriteBytes(shape, at, len, v) => {
            let (offset, len) = match shape {
                WriteShape::Partial => {
                    let offset = at as usize % (nbytes + 1);
                    (offset, len as usize % 40.min(nbytes - offset + 1))
                }
                WriteShape::WholeTile if nbytes < TILE_BYTES => (0, nbytes),
                WriteShape::WholeTile => {
                    (TILE_BYTES * (at as usize % (nbytes / TILE_BYTES)), TILE_BYTES)
                }
                WriteShape::Straddling => {
                    let offset = near_edge(at, nbytes);
                    (offset, (2 + len as usize % 20).min(nbytes - offset))
                }
            };
            format!("{:?}", a.try_write_bytes(offset, &pattern(len, v)))
        }
        Step::Fill(v) => format!("{:?}", a.fill(v)),
        Step::Restore(raw) => {
            let mut image = PackedBits::zeros(bits);
            for i in 0..bits {
                image.set(i, (raw.wrapping_mul(2 * i as u64 + 1) >> 29) & 1 == 1);
            }
            format!("{:?}", a.restore(&image))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Owed power-up tiles against the eager scalar path: one die
    /// through a random sequence of cycles, reads and writes, at sizes
    /// around a word and around a tile. Every read, write result and
    /// report must agree at every step, and so must the final image.
    #[test]
    fn owed_tiles_match_the_eager_path(
        seed in any::<u64>(),
        size in 0usize..OWED_SIZES.len(),
        sequence in proptest::collection::vec(steps(), 4..=32),
    ) {
        let config = ArrayConfig::with_bits("owed-sequence", OWED_SIZES[size]);
        let modes = [ResolutionMode::Scalar, ResolutionMode::Batched];
        let mut arrays = modes.map(|_| SramArray::new(config.clone(), seed));
        for (a, mode) in arrays.iter_mut().zip(modes) {
            a.power_on_with(mode).unwrap();
        }
        for (k, step) in sequence.iter().enumerate() {
            let [scalar, batched] = &mut arrays;
            let want = run_step(scalar, modes[0], step);
            let got = run_step(batched, modes[1], step);
            prop_assert_eq!(got, want, "step {} ({:?})", k, step);
        }
        prop_assert_eq!(arrays[1].snapshot().unwrap(), arrays[0].snapshot().unwrap());
    }
}
