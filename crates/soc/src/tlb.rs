//! SRAM-backed TLBs.
//!
//! The Cortex-A72's `RAMINDEX` interface exposes its TLB RAMs alongside
//! the cache arrays (the paper counts "15 different internal RAMs,
//! including caches, TLBs, and BTBs"). A TLB entry records which page a
//! core translated recently — so a retained TLB leaks the victim's
//! *address trace* even where the data itself was evicted.
//!
//! The model is a small fully-associative, round-robin-replacement
//! translation cache whose entry store is physical SRAM. Entry format
//! (64 bits): bit 63 = valid, bits 0..52 = virtual page number
//! (4 KiB pages).

use crate::error::SocError;
use std::collections::HashSet;
use voltboot_sram::{ArrayConfig, OffEvent, PackedBits, ResolutionMode, SramArray, Temperature};
use voltboot_telemetry::Recorder;

/// Number of entries in the modelled main TLB.
pub const TLB_ENTRIES: usize = 48;

/// Page size covered by one entry.
pub const PAGE_BYTES: u64 = 4096;

/// A fully-associative TLB with an SRAM entry store.
#[derive(Debug, Clone)]
pub struct Tlb {
    sram: SramArray,
    /// Round-robin insertion cursor (micro-architectural, resets at
    /// power-on).
    cursor: usize,
    /// Shadow of the valid pages for O(1) hit checks (rebuilt from the
    /// SRAM at power-on).
    resident: HashSet<u64>,
}

impl Tlb {
    /// Creates the TLB for one core.
    pub fn new(core: usize, rail_voltage: f64, shared_domain_drain: f64, seed: u64) -> Self {
        let cfg = ArrayConfig::with_bytes(format!("core{core}.tlb"), TLB_ENTRIES * 8)
            .nominal_voltage(rail_voltage)
            .shared_domain_drain(shared_domain_drain);
        Tlb { sram: SramArray::new(cfg, seed), cursor: 0, resident: HashSet::new() }
    }

    /// Records a translation for the page containing `addr`, if absent.
    ///
    /// # Errors
    ///
    /// [`SocError::Sram`] when the domain is unpowered.
    pub fn touch(&mut self, addr: u64) -> Result<(), SocError> {
        let page = addr / PAGE_BYTES;
        if self.resident.contains(&page) {
            return Ok(());
        }
        // Evict whatever the cursor points at.
        if let Some(old) = self.entry(self.cursor)? {
            self.resident.remove(&old);
        }
        let word = (1u64 << 63) | (page & 0x000F_FFFF_FFFF_FFFF);
        self.sram.try_write_bytes(self.cursor * 8, &word.to_le_bytes())?;
        self.resident.insert(page);
        self.cursor = (self.cursor + 1) % TLB_ENTRIES;
        Ok(())
    }

    /// The valid page number in entry `i`, if the valid bit is set.
    ///
    /// # Errors
    ///
    /// [`SocError::Sram`] when unpowered,
    /// [`SocError::RamIndexOutOfRange`] past the last entry.
    pub fn entry(&self, i: usize) -> Result<Option<u64>, SocError> {
        let word = self.entry_word(i)?;
        Ok((word & (1 << 63) != 0).then_some(word & 0x000F_FFFF_FFFF_FFFF))
    }

    /// The raw 64-bit entry word (the RAMINDEX view; may be power-up
    /// garbage).
    ///
    /// # Errors
    ///
    /// [`SocError::Sram`] when unpowered,
    /// [`SocError::RamIndexOutOfRange`] past the last entry.
    pub fn entry_word(&self, i: usize) -> Result<u64, SocError> {
        if i >= TLB_ENTRIES {
            return Err(SocError::RamIndexOutOfRange { way: 0, index: i as u64 });
        }
        let bytes = self.sram.try_read_bytes(i * 8, 8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// All currently valid pages, in entry order.
    ///
    /// # Errors
    ///
    /// [`SocError::Sram`] when unpowered.
    pub fn resident_pages(&self) -> Result<Vec<u64>, SocError> {
        let mut out = Vec::new();
        for i in 0..TLB_ENTRIES {
            if let Some(page) = self.entry(i)? {
                out.push(page);
            }
        }
        Ok(out)
    }

    /// Raw bit image of the entry store.
    ///
    /// # Errors
    ///
    /// [`SocError::Sram`] when unpowered.
    pub fn image(&self) -> Result<PackedBits, SocError> {
        Ok(self.sram.snapshot()?)
    }

    /// Powers the entry SRAM on and rebuilds the shadow set from
    /// whatever survived (possibly garbage entries after an unheld
    /// cycle — exactly like real hardware, which is why TLBs must be
    /// invalidated before enabling translation).
    ///
    /// # Errors
    ///
    /// [`SocError::Sram`] on an invalid transition.
    pub fn power_on(&mut self) -> Result<voltboot_sram::RetentionReport, SocError> {
        self.power_on_traced(&Recorder::disabled())
    }

    /// [`Tlb::power_on`] that additionally records SRAM resolution
    /// counters into `rec`.
    ///
    /// # Errors
    ///
    /// [`SocError::Sram`] on an invalid transition.
    pub fn power_on_traced(
        &mut self,
        rec: &Recorder,
    ) -> Result<voltboot_sram::RetentionReport, SocError> {
        let report = self.sram.power_on_traced(ResolutionMode::Batched, rec)?;
        self.cursor = 0;
        self.resident.clear();
        for i in 0..TLB_ENTRIES {
            if let Some(page) = self.entry(i)? {
                self.resident.insert(page);
            }
        }
        Ok(report)
    }

    /// Cuts power to the entry SRAM.
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

    /// Invalidates every entry (software TLBI ALL).
    ///
    /// # Errors
    ///
    /// [`SocError::Sram`] when unpowered.
    pub fn invalidate_all(&mut self) -> Result<(), SocError> {
        for i in 0..TLB_ENTRIES {
            let word = self.entry_word(i)? & !(1 << 63);
            self.sram.try_write_bytes(i * 8, &word.to_le_bytes())?;
        }
        self.resident.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn powered_tlb() -> Tlb {
        let mut t = Tlb::new(0, 0.8, 4.0, 321);
        t.power_on().unwrap();
        t.invalidate_all().unwrap();
        t
    }

    #[test]
    fn touch_records_distinct_pages_once() {
        let mut t = powered_tlb();
        t.touch(0x10_0000).unwrap();
        t.touch(0x10_0008).unwrap(); // same page
        t.touch(0x20_0000).unwrap();
        let pages = t.resident_pages().unwrap();
        assert_eq!(pages.len(), 2);
        assert!(pages.contains(&0x100));
        assert!(pages.contains(&0x200));
    }

    #[test]
    fn round_robin_eviction_caps_the_entry_count() {
        let mut t = powered_tlb();
        for i in 0..(TLB_ENTRIES as u64 + 10) {
            t.touch(i * PAGE_BYTES).unwrap();
        }
        let pages = t.resident_pages().unwrap();
        assert_eq!(pages.len(), TLB_ENTRIES);
        // The earliest pages were evicted.
        assert!(!pages.contains(&0));
        assert!(pages.contains(&(TLB_ENTRIES as u64 + 9)));
    }

    #[test]
    fn held_cycle_preserves_the_address_trace() {
        let mut t = powered_tlb();
        t.touch(0xDEAD_0000).unwrap();
        t.power_off(OffEvent::held(0.8)).unwrap();
        t.elapse(Duration::from_secs(5), Temperature::ROOM);
        t.power_on().unwrap();
        assert!(t.resident_pages().unwrap().contains(&0xDEAD0));
    }

    #[test]
    fn unheld_cycle_scrambles_entries() {
        let mut t = powered_tlb();
        t.touch(0xDEAD_0000).unwrap();
        t.power_off(OffEvent::unpowered()).unwrap();
        t.elapse(Duration::from_millis(500), Temperature::ROOM);
        t.power_on().unwrap();
        assert!(!t.resident_pages().unwrap().contains(&0xDEAD0));
    }

    #[test]
    fn out_of_range_entry_rejected() {
        let t = powered_tlb();
        assert!(matches!(t.entry(TLB_ENTRIES), Err(SocError::RamIndexOutOfRange { .. })));
    }
}
