//! Background reproduction (§2–3): classic cold boot *works* on DRAM and
//! fails on on-chip SRAM — the asymmetry that motivated fully on-chip
//! crypto in the first place.
//!
//! A disk-encryption key schedule sits in DRAM (the pre-TRESOR world).
//! The attacker chills the module, cuts power for a transplant-scale
//! interval, dumps the raw cells, and runs the Halderman-style
//! directional repair ([`crate::dram_recovery`]). The same procedure
//! against an identical schedule held in on-chip SRAM recovers nothing.

use crate::attack::{ColdBootAttack, Extraction};
use crate::dram_recovery::{recover_and_verify, GroundState};
use voltboot_crypto::aes::{Aes, AesKey, KeySchedule};
use voltboot_crypto::tresor::TresorContext;
use voltboot_soc::devices;

/// One (temperature, off-time) data point of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DramBaselineRow {
    /// Module temperature in Celsius.
    pub celsius: f64,
    /// Time without power, in seconds.
    pub off_seconds: u64,
    /// Bit-decay fraction observed in the DRAM dump.
    pub dram_decay: f64,
    /// Whether the DRAM key was recovered (with repair).
    pub dram_key_recovered: bool,
    /// Bits the repair search had to fix.
    pub repaired_bits: Option<usize>,
    /// Whether the SRAM (register) key was recovered by any means.
    pub sram_key_recovered: bool,
}

/// The comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct DramBaselineResult {
    /// One row per scenario.
    pub rows: Vec<DramBaselineRow>,
}

/// Where the victim's schedule lives in DRAM (inside a true-cell block).
pub const SCHEDULE_ADDR: u64 = 0x30_0000;

/// Scenarios: a chilled transplant (works) and a warm transplant (fails),
/// as in the original cold-boot evaluation.
pub const SCENARIOS: [(f64, u64); 2] = [(-50.0, 30), (25.0, 60)];

/// Runs the comparison.
pub fn run(seed: u64) -> DramBaselineResult {
    let key = AesKey::Aes128(*b"pre-tresor aes k");
    let reference = Aes::new(&key);
    let probe_block = reference.encrypt_block(b"known plaintext!");

    let mut rows = Vec::new();
    for (i, &(celsius, off_seconds)) in SCENARIOS.iter().enumerate() {
        let mut soc = devices::raspberry_pi_4(seed ^ ((i as u64 + 1) << 40));
        soc.power_on_all();

        // The victim's software keeps the schedule in DRAM (old world)...
        let schedule = KeySchedule::expand(&key);
        soc.dram_mut().write(SCHEDULE_ADDR, &schedule.to_bytes()).expect("schedule staged");
        // ...and, for the contrast, also on-chip in NEON registers.
        TresorContext::install(&mut soc, 0, &key).expect("tresor install");

        // Cold boot with a transplant-scale off time.
        let outcome = ColdBootAttack::new(celsius, off_seconds * 1000)
            .extraction(Extraction::DramRaw { addr: SCHEDULE_ADDR, len: 4096 })
            .execute(&mut soc)
            .expect("cold boot flow");
        let dram_image = &outcome.image(&format!("dram@{SCHEDULE_ADDR:#x}")).unwrap().bits;

        // Decay measured over the 176-byte schedule window only (the
        // surrounding padding already sits at ground state).
        let staged_window = voltboot_sram::PackedBits::from_bytes(&schedule.to_bytes());
        let observed_window = voltboot_sram::PackedBits::from_bytes(&dram_image.bytes_at(0, 176));
        let dram_decay = observed_window.fractional_hamming(&staged_window);

        let recovered = recover_and_verify(dram_image, GroundState::Zero, |aes| {
            aes.encrypt_block(b"known plaintext!") == probe_block
        });

        // The SRAM side: dump the registers and scan, exact + tolerant.
        let reg_image = crate::attack::extract_registers(&soc, &[0]).expect("register dump");
        let sram_key_recovered = crate::analysis::find_key_schedules(&reg_image[0].bits)
            .iter()
            .any(|(_, ks)| ks.original_key() == key)
            || crate::analysis::find_key_schedules_tolerant(&reg_image[0].bits, 4, 10)
                .iter()
                .any(|(_, _, ks)| ks.original_key() == key);

        rows.push(DramBaselineRow {
            celsius,
            off_seconds,
            dram_decay,
            dram_key_recovered: recovered.is_some(),
            repaired_bits: recovered.map(|r| r.repaired_bits),
            sram_key_recovered,
        });
    }
    DramBaselineResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chilled_dram_yields_the_key_but_sram_never_does() {
        let r = run(0xD2A3);
        let chilled = &r.rows[0];
        assert!(chilled.dram_decay < 0.02, "chilled decay {}", chilled.dram_decay);
        assert!(chilled.dram_key_recovered, "chilled DRAM transplant must succeed");
        assert!(!chilled.sram_key_recovered, "the SRAM key must be gone");

        let warm = &r.rows[1];
        assert!(warm.dram_decay > 0.2, "warm decay {}", warm.dram_decay);
        assert!(!warm.dram_key_recovered, "warm transplant must fail");
        assert!(!warm.sram_key_recovered);
    }
}
