//! Cross-crate integration: the paper's core contrast — temperature-based
//! cold boot fails on on-chip SRAM while voltage-based Volt Boot is
//! error-free.

use voltboot::analysis;
use voltboot::attack::{ColdBootAttack, Extraction, VoltBootAttack};
use voltboot::recover::crc64;
use voltboot_armlite::program::builders;
use voltboot_soc::devices;
use voltboot_sram::PackedBits;

/// Stages a victim and returns `(soc, d-cache way0 ground truth)`.
fn staged(seed: u64) -> (voltboot_soc::Soc, PackedBits) {
    let mut soc = devices::raspberry_pi_4(seed);
    soc.power_on_all();
    soc.enable_caches(0);
    let p = builders::fill_bytes(0x10_0000, 0xC7, 16 * 1024);
    soc.run_program(0, &p, 0x8_0000, 50_000_000);
    let truth = soc.core(0).unwrap().l1d.way_image(0).unwrap();
    (soc, truth)
}

#[test]
fn retention_improves_monotonically_with_deeper_cold() {
    let mut last_error = 0.0f64;
    for celsius in [25.0f64, -40.0, -90.0, -110.0, -150.0, -196.0] {
        let (mut soc, truth) = staged(0xC01D ^ celsius.to_bits());
        let outcome = ColdBootAttack::new(celsius, 20).execute(&mut soc).unwrap();
        let img = &outcome.image("core0.l1d.way0").unwrap().bits;
        let error = analysis::fractional_hamming(img, &truth);
        assert!(
            error <= last_error + 0.02 || last_error == 0.0,
            "colder must not be worse: {celsius} C -> {error} (prev {last_error})"
        );
        last_error = error;
    }
    // At -150 C / 20 ms the attack finally works decently...
    assert!(last_error < 0.2, "deep cryogenic retention: {last_error}");
}

/// CRC-64 and one-bit count of the board's whole raw DRAM image.
fn dram_digest(soc: &voltboot_soc::Soc) -> (u64, u64) {
    let cells = soc.dram().raw_cells(0, soc.dram().len()).unwrap();
    (crc64(&cells), cells.iter().map(|b| u64::from(b.count_ones())).sum())
}

#[test]
fn dram_decay_is_pinned_across_power_cycles() {
    use voltboot_soc::PowerCycleSpec;
    let fresh = || {
        let mut soc = devices::raspberry_pi_4(0x2022A5B007);
        soc.power_on_all();
        soc
    };
    assert_eq!(dram_digest(&fresh()).0, 0xd318_4f3a_cee0_2b2d, "image before any cycle");
    for (spec, crc, ones) in [
        (PowerCycleSpec::quick(), 0x4a19_9a89_60e2_2539, 2_247_716),
        (PowerCycleSpec::cold_boot(-50.0, 60_000), 0xfeb2_5069_238a_2d08, 209_004),
        // Warm and long: every cell reaches its ground state, so exactly
        // the anti-cell half of the 64 Mbit reads 1.
        (PowerCycleSpec::cold_boot(45.0, 120_000), 0xf995_5dcd_db8d_a9d4, 33_554_432),
    ] {
        // Two cycles and no boot in between: both queued decay steps are
        // read back through one settled copy.
        let mut soc = fresh();
        soc.power_cycle(spec).unwrap();
        soc.power_cycle(spec).unwrap();
        assert_eq!(dram_digest(&soc), (crc, ones), "{spec:?}");
    }
}

#[test]
fn achievable_temperatures_never_retain() {
    // The paper's point: every temperature a device survives (>= -40 C)
    // gives ~50% error for any realistic off time.
    for celsius in [0.0f64, -5.0, -40.0] {
        let (mut soc, truth) = staged(0xC02D ^ celsius.to_bits());
        let outcome = ColdBootAttack::new(celsius, 5).execute(&mut soc).unwrap();
        let img = &outcome.image("core0.l1d.way0").unwrap().bits;
        let error = analysis::fractional_hamming(img, &truth);
        assert!((error - 0.5).abs() < 0.06, "{celsius} C: error {error}");
    }
}

#[test]
fn voltboot_is_exact_regardless_of_temperature() {
    // Volt Boot does not care about temperature: hold the rail and the
    // data survives at 25 C as well as in a freezer.
    for celsius in [25.0f64, -40.0] {
        let (mut soc, truth) = staged(0xB007 ^ celsius.to_bits());
        let outcome = VoltBootAttack::new("TP15")
            .cycle(voltboot_soc::PowerCycleSpec::cold_boot(celsius, 500))
            .extraction(Extraction::Caches { cores: vec![0] })
            .execute(&mut soc)
            .unwrap();
        let img = &outcome.image("core0.l1d.way0").unwrap().bits;
        assert_eq!(img, &truth, "{celsius} C: must be bit-exact");
    }
}

#[test]
fn off_duration_is_irrelevant_when_held() {
    // "The memory domain stays in this retention state indefinitely."
    let (mut soc, truth) = staged(0x1DEF);
    let outcome = VoltBootAttack::new("TP15")
        .cycle(voltboot_soc::PowerCycleSpec {
            off_duration: std::time::Duration::from_secs(24 * 3600),
            temperature: voltboot_sram::Temperature::ROOM,
        })
        .execute(&mut soc)
        .unwrap();
    assert_eq!(&outcome.image("core0.l1d.way0").unwrap().bits, &truth);
}

#[test]
fn longer_off_time_destroys_cold_boot_but_not_voltboot() {
    // At -110 C, 5 ms keeps most cells but 500 ms (a realistic manual
    // re-plug) keeps nothing — the "short retention time" obstacle.
    let (mut soc, truth) = staged(0x0FF1);
    let outcome = ColdBootAttack::new(-110.0, 5).execute(&mut soc).unwrap();
    let quick =
        analysis::fractional_hamming(&outcome.image("core0.l1d.way0").unwrap().bits, &truth);

    let (mut soc2, truth2) = staged(0x0FF2);
    let outcome2 = ColdBootAttack::new(-110.0, 500).execute(&mut soc2).unwrap();
    let slow =
        analysis::fractional_hamming(&outcome2.image("core0.l1d.way0").unwrap().bits, &truth2);

    // ~80% of cells survive (shared-domain drain included) -> ~10% error.
    assert!(quick < 0.15, "5 ms at -110 C keeps most data: {quick}");
    assert!((slow - 0.5).abs() < 0.06, "500 ms loses everything: {slow}");
}
