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

/// CRC-64 and one-bit count of every SRAM image of a Pi 4: per core, its
/// L1I and L1D, then its vector registers, TLB and BTB; the L2 last. A
/// cache contributes every way's data image, then every raw tag word
/// (little-endian), way by way and set by set within each way.
fn sram_digest(soc: &voltboot_soc::Soc) -> (u64, u64) {
    fn cache_bytes(out: &mut Vec<u8>, cache: &voltboot_soc::Cache) {
        let ways = 0..cache.geometry().ways;
        for way in ways.clone() {
            out.extend(cache.way_image(way).unwrap().to_bytes());
        }
        for way in ways {
            for set in 0..cache.geometry().sets() {
                out.extend(cache.raw_tag_word(way, set).unwrap().to_le_bytes());
            }
        }
    }
    let mut bytes = Vec::new();
    for i in 0..4 {
        let core = soc.core(i).unwrap();
        cache_bytes(&mut bytes, &core.l1i);
        cache_bytes(&mut bytes, &core.l1d);
        for image in [core.vregs.image(), core.tlb.image(), core.btb.image()] {
            bytes.extend(image.unwrap().to_bytes());
        }
    }
    cache_bytes(&mut bytes, soc.l2());
    (crc64(&bytes), bytes.iter().map(|b| u64::from(b.count_ones())).sum())
}

#[test]
fn sram_images_are_pinned_across_power_cycles() {
    use voltboot::telemetry::Recorder;
    use voltboot_armlite::program::builders::nop_sled;
    use voltboot_pdn::Probe;
    use voltboot_soc::{BootSource, CycleFaults, PowerCycleSpec};
    let fresh = || {
        let mut soc = devices::raspberry_pi_4(0x2022A5B007);
        soc.power_on_all();
        soc
    };
    // One board through bring-up, a victim run, a held cycle and a boot.
    let mut soc = fresh();
    assert_eq!(sram_digest(&soc), (0x3acf_e69a_cfa9_4eb7, 6_214_851), "power_on_all");
    soc.enable_caches(0);
    soc.run_program(0, &nop_sled(128), 0x1_0000, 100_000);
    assert_eq!(sram_digest(&soc), (0xb0c3_7aa7_991f_12c3, 6_212_644), "victim run");
    soc.attach_probe("TP15", Probe::bench_supply(0.8, 3.0)).unwrap();
    soc.power_cycle(PowerCycleSpec::quick()).unwrap();
    assert_eq!(sram_digest(&soc), (0xcd40_adf2_209f_99ab, 6_211_538), "held cycle");
    let image = BootSource::ExternalMedia { image: vec![0; 64], entry: 0x8_0000, signed: false };
    soc.boot(image).unwrap();
    assert_eq!(sram_digest(&soc), (0xa642_9413_1884_05d7, 6_213_602), "boot");
    // A weak probe droops the core rail below every cell's DRV.
    let mut soc = fresh();
    soc.attach_probe("TP15", Probe::weak_source(0.8, 0.2)).unwrap();
    let report = soc.power_cycle(PowerCycleSpec::quick()).unwrap();
    assert_eq!(report.retention_of("core0.l1d.data").unwrap().lost, 262_144);
    assert_eq!(sram_digest(&soc), (0x4db7_2398_98e5_1a0c, 6_214_163), "weak probe");
    // A brown-out under the same probe droops the core rail into the
    // DRV range: a partial loss.
    let mut soc = fresh();
    soc.attach_probe("TP15", Probe::bench_supply(0.8, 3.0)).unwrap();
    let faults = CycleFaults { brownout_min_voltage: Some(0.31), reconnect_misorder: false };
    let report = soc.power_cycle_with(PowerCycleSpec::quick(), faults, &Recorder::disabled());
    let lost = report.unwrap().retention_of("core0.l1d.data").unwrap().lost;
    assert!(0 < lost && lost < 262_144, "a partial droop loses some cells: {lost}");
    assert_eq!(sram_digest(&soc), (0x1b2a_bbf3_04d8_124c, 6_213_479), "partial droop");
    // An unheld cold boot.
    let mut soc = fresh();
    soc.power_cycle(PowerCycleSpec::cold_boot(-110.0, 20)).unwrap();
    assert_eq!(sram_digest(&soc), (0x37b7_db05_8607_0d80, 6_215_265), "cold boot");
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
