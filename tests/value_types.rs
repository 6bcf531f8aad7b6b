//! Cross-crate integration: result records are value types — cloneable,
//! comparable, and rebuildable from their byte views — so experiments
//! can be archived and compared across runs.

use voltboot::attack::{Extraction, VoltBootAttack};
use voltboot_soc::devices;

#[test]
fn attack_outcomes_are_value_types() {
    let mut soc = devices::raspberry_pi_4(0x5EDE);
    soc.power_on_all();
    let outcome = VoltBootAttack::new("TP15")
        .extraction(Extraction::Registers { cores: vec![0] })
        .execute(&mut soc)
        .unwrap();
    let cloned = outcome.clone();
    assert_eq!(cloned, outcome);
    assert_eq!(cloned.images.len(), outcome.images.len());
}

#[test]
fn packed_bits_rebuild_from_their_byte_view() {
    let mut soc = devices::raspberry_pi_4(0x5EDF);
    soc.power_on_all();
    let outcome = VoltBootAttack::new("TP15")
        .extraction(Extraction::Caches { cores: vec![0] })
        .execute(&mut soc)
        .unwrap();
    for image in &outcome.images {
        let rebuilt = voltboot_sram::PackedBits::from_bytes(&image.bits.to_bytes());
        assert_eq!(&rebuilt, &image.bits, "{}", image.source);
    }
}

#[test]
fn experiment_records_are_cloneable_and_comparable() {
    let t1 = voltboot::experiments::table1::Table1Row {
        celsius: -40.0,
        mean_error: 0.5,
        per_core_error: vec![0.5; 4],
        hd_vs_startup: 0.1,
    };
    assert_eq!(t1.clone(), t1);

    let cell = voltboot::experiments::table4::Table4Cell {
        array_kb: 32,
        core: 0,
        w0: 1900.0,
        w1: 1800.0,
        union: 3700.0,
        extracted_fraction: 0.903,
    };
    assert_eq!(cell.clone(), cell);
}
