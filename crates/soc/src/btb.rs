//! SRAM-backed branch target buffers.
//!
//! The last of the paper's three named `RAMINDEX`-exposed RAM families
//! ("caches, TLBs, and BTBs"). A BTB entry pairs a branch's address with
//! its most recent target, so a retained BTB leaks the victim's
//! *control-flow history* — which loops ran, which functions called
//! which — even after the code itself is evicted.
//!
//! Model: a direct-mapped target buffer indexed by branch PC. Entry
//! format (64 bits): bit 63 = valid, bits 38..62 = branch-PC tag
//! (word-granular), bits 0..38 = target word address.

use crate::error::SocError;
use voltboot_sram::{ArrayConfig, OffEvent, PackedBits, ResolutionMode, SramArray, Temperature};
use voltboot_telemetry::Recorder;

/// Number of entries in the modelled BTB.
pub const BTB_ENTRIES: usize = 64;

const TARGET_BITS: u64 = 38;
const TAG_MASK: u64 = (1 << 24) - 1;

/// A direct-mapped branch target buffer with an SRAM entry store.
#[derive(Debug, Clone)]
pub struct Btb {
    sram: SramArray,
}

impl Btb {
    /// Creates the BTB for one core.
    pub fn new(core: usize, rail_voltage: f64, shared_domain_drain: f64, seed: u64) -> Self {
        let cfg = ArrayConfig::with_bytes(format!("core{core}.btb"), BTB_ENTRIES * 8)
            .nominal_voltage(rail_voltage)
            .shared_domain_drain(shared_domain_drain);
        Btb { sram: SramArray::new(cfg, seed) }
    }

    fn slot_of(pc: u64) -> usize {
        ((pc >> 2) as usize) % BTB_ENTRIES
    }

    /// Records a taken branch `pc -> target`.
    ///
    /// # Errors
    ///
    /// [`SocError::Sram`] when the domain is unpowered.
    pub fn record(&mut self, pc: u64, target: u64) -> Result<(), SocError> {
        let slot = Self::slot_of(pc);
        let tag = (pc >> 2) >> 6; // bits above the index
        let word = (1u64 << 63)
            | ((tag & TAG_MASK) << TARGET_BITS)
            | ((target >> 2) & ((1 << TARGET_BITS) - 1));
        // A loop re-taking the same branch hits the same entry: skip the
        // redundant write (and its SRAM traffic).
        if self.entry_word(slot)? == word {
            return Ok(());
        }
        self.sram.try_write_bytes(slot * 8, &word.to_le_bytes())?;
        Ok(())
    }

    /// The `(branch_pc, target)` recorded in entry `i`, if valid.
    ///
    /// # Errors
    ///
    /// [`SocError::Sram`] when unpowered,
    /// [`SocError::RamIndexOutOfRange`] past the last entry.
    pub fn entry(&self, i: usize) -> Result<Option<(u64, u64)>, SocError> {
        let word = self.entry_word(i)?;
        if word & (1 << 63) == 0 {
            return Ok(None);
        }
        let tag = (word >> TARGET_BITS) & TAG_MASK;
        let pc = ((tag << 6) | i as u64) << 2;
        let target = (word & ((1 << TARGET_BITS) - 1)) << 2;
        Ok(Some((pc, target)))
    }

    /// The raw 64-bit entry word (the RAMINDEX view).
    ///
    /// # Errors
    ///
    /// [`SocError::Sram`] when unpowered,
    /// [`SocError::RamIndexOutOfRange`] past the last entry.
    pub fn entry_word(&self, i: usize) -> Result<u64, SocError> {
        if i >= BTB_ENTRIES {
            return Err(SocError::RamIndexOutOfRange { way: 0, index: i as u64 });
        }
        let bytes = self.sram.try_read_bytes(i * 8, 8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// All valid `(branch, target)` pairs.
    ///
    /// # Errors
    ///
    /// [`SocError::Sram`] when unpowered.
    pub fn recorded_branches(&self) -> Result<Vec<(u64, u64)>, SocError> {
        (0..BTB_ENTRIES).filter_map(|i| self.entry(i).transpose()).collect()
    }

    /// Raw bit image of the entry store.
    ///
    /// # Errors
    ///
    /// [`SocError::Sram`] when unpowered.
    pub fn image(&self) -> Result<PackedBits, SocError> {
        Ok(self.sram.snapshot()?)
    }

    /// Powers the entry SRAM on.
    ///
    /// # Errors
    ///
    /// [`SocError::Sram`] on an invalid transition.
    pub fn power_on(&mut self) -> Result<voltboot_sram::RetentionReport, SocError> {
        self.power_on_traced(&Recorder::disabled())
    }

    /// [`Btb::power_on`] that additionally records SRAM resolution
    /// counters into `rec`.
    ///
    /// # Errors
    ///
    /// [`SocError::Sram`] on an invalid transition.
    pub fn power_on_traced(
        &mut self,
        rec: &Recorder,
    ) -> Result<voltboot_sram::RetentionReport, SocError> {
        Ok(self.sram.power_on_traced(ResolutionMode::Batched, rec)?)
    }

    /// Cuts power.
    ///
    /// # Errors
    ///
    /// [`SocError::Sram`] on an invalid transition.
    pub fn power_off(&mut self, event: OffEvent) -> Result<(), SocError> {
        Ok(self.sram.power_off(event)?)
    }

    /// Advances unpowered time.
    pub fn elapse(&mut self, dt: std::time::Duration, temperature: Temperature) {
        self.sram.elapse(dt, temperature);
    }

    /// Invalidates every entry.
    ///
    /// # Errors
    ///
    /// [`SocError::Sram`] when unpowered.
    pub fn invalidate_all(&mut self) -> Result<(), SocError> {
        for i in 0..BTB_ENTRIES {
            let word = self.entry_word(i)? & !(1 << 63);
            self.sram.try_write_bytes(i * 8, &word.to_le_bytes())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn powered_btb() -> Btb {
        let mut b = Btb::new(0, 0.8, 4.0, 88);
        b.power_on().unwrap();
        b.invalidate_all().unwrap();
        b
    }

    #[test]
    fn record_and_decode_roundtrip() {
        let mut b = powered_btb();
        b.record(0x8_0010, 0x8_0100).unwrap();
        b.record(0x9_0040, 0x8_0000).unwrap();
        let branches = b.recorded_branches().unwrap();
        assert!(branches.contains(&(0x8_0010, 0x8_0100)), "{branches:x?}");
        assert!(branches.contains(&(0x9_0040, 0x8_0000)), "{branches:x?}");
    }

    #[test]
    fn direct_mapping_replaces_conflicting_entries() {
        let mut b = powered_btb();
        // Two branch PCs that map to the same slot (same low bits).
        let pc1 = 0x1_0000u64;
        let pc2 = pc1 + (BTB_ENTRIES as u64 * 4);
        b.record(pc1, 0x100).unwrap();
        b.record(pc2, 0x200).unwrap();
        let branches = b.recorded_branches().unwrap();
        assert!(!branches.iter().any(|&(pc, _)| pc == pc1));
        assert!(branches.contains(&(pc2, 0x200)));
    }

    #[test]
    fn held_cycle_preserves_control_flow_history() {
        let mut b = powered_btb();
        b.record(0xBEEF00, 0xCAFE00).unwrap();
        b.power_off(OffEvent::held(0.8)).unwrap();
        b.elapse(Duration::from_secs(5), Temperature::ROOM);
        b.power_on().unwrap();
        assert!(b.recorded_branches().unwrap().contains(&(0xBEEF00, 0xCAFE00)));
    }

    #[test]
    fn unheld_cycle_destroys_history() {
        let mut b = powered_btb();
        b.record(0xBEEF00, 0xCAFE00).unwrap();
        b.power_off(OffEvent::unpowered()).unwrap();
        b.elapse(Duration::from_millis(500), Temperature::ROOM);
        b.power_on().unwrap();
        assert!(!b.recorded_branches().unwrap().contains(&(0xBEEF00, 0xCAFE00)));
    }
}
