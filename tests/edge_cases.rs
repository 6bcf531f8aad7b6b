//! Cross-crate integration: boundary conditions and unusual-but-legal
//! uses of the public API.

use voltboot::attack::{Extraction, VoltBootAttack};
use voltboot_pdn::Probe;
use voltboot_soc::{devices, PowerCycleSpec};
use voltboot_sram::{ArrayConfig, OffEvent, SramArray, Temperature};

#[test]
fn zero_length_sram_array_is_legal() {
    let mut s = SramArray::new(ArrayConfig::with_bytes("empty", 0), 1);
    let report = s.power_on().unwrap();
    assert_eq!(report.bits, 0);
    assert_eq!(report.retention_fraction(), 1.0);
    assert!(s.read_bytes(0, 0).is_empty());
}

#[test]
fn single_bit_array_behaves() {
    let mut s = SramArray::new(ArrayConfig::with_bits("one", 1), 2);
    s.power_on().unwrap();
    s.write_bit(0, true).unwrap();
    assert!(s.read_bit(0).unwrap());
    s.power_off(OffEvent::held(0.8)).unwrap();
    s.elapse(std::time::Duration::from_secs(1), Temperature::ROOM);
    s.power_on().unwrap();
    assert!(s.read_bit(0).unwrap());
}

#[test]
fn instantaneous_power_cycle_without_hold_still_loses_everything_warm() {
    // Zero off-time with no hold: the model treats any unheld interval
    // at the accumulated stress level; zero duration means zero stress,
    // so data survives — the limiting case of an infinitely fast glitch.
    let mut s = SramArray::new(ArrayConfig::with_bytes("g", 64), 3);
    s.power_on().unwrap();
    s.fill(0x77).unwrap();
    s.power_off(OffEvent::unpowered()).unwrap();
    // No elapse at all.
    let report = s.power_on().unwrap();
    assert_eq!(report.lost, 0, "a zero-length glitch keeps the charge");
}

#[test]
fn extraction_of_every_surface_in_one_session() {
    // All extraction variants back-to-back on one held device.
    let mut soc = devices::raspberry_pi_4(0xED6E);
    soc.power_on_all();
    voltboot::workloads::baremetal_nop_fill(&mut soc).unwrap();
    let outcome = VoltBootAttack::new("TP15").execute(&mut soc).unwrap();
    assert!(!outcome.images.is_empty());
    // The probe is still attached; further reads need no new cycle.
    let cores = || vec![0, 1, 2, 3];
    for plan in [
        Extraction::Caches { cores: cores() },
        Extraction::Registers { cores: cores() },
        Extraction::Tlbs { cores: cores() },
        Extraction::Btbs { cores: cores() },
    ] {
        let images = plan.read(&soc).unwrap();
        assert_eq!(images.len() % 4, 0);
        for img in images {
            assert!(!img.bits.is_empty(), "{}", img.source);
        }
    }
}

#[test]
fn very_long_hold_then_cold_boot_composition() {
    // Hold for a day, detach, then a warm unheld cycle: the first cycle
    // retains, the second loses — power events compose correctly.
    let mut soc = devices::raspberry_pi_4(0xED6F);
    soc.power_on_all();
    soc.enable_caches(0);
    let p = voltboot_armlite::program::builders::fill_bytes(0x10_0000, 0x5D, 4096);
    soc.run_program(0, &p, 0x8_0000, 10_000_000);
    let truth = soc.core(0).unwrap().l1d.way_image(0).unwrap();

    soc.attach_probe("TP15", Probe::bench_supply(0.8, 3.0)).unwrap();
    soc.power_cycle(PowerCycleSpec {
        off_duration: std::time::Duration::from_secs(86_400),
        temperature: Temperature::ROOM,
    })
    .unwrap();
    assert_eq!(soc.core(0).unwrap().l1d.way_image(0).unwrap(), truth);

    soc.network_mut().detach_probe("TP15").unwrap();
    soc.power_cycle(PowerCycleSpec::quick()).unwrap();
    assert_ne!(soc.core(0).unwrap().l1d.way_image(0).unwrap(), truth);
}

#[test]
fn minimum_and_maximum_catalog_seeds_work() {
    for seed in [0u64, u64::MAX] {
        let mut soc = devices::imx53_qsb(seed);
        soc.power_on_all();
        assert!(VoltBootAttack::new("SH13")
            .extraction(Extraction::IramJtag)
            .execute(&mut soc)
            .is_ok());
    }
}
