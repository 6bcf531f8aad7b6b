//! On-chip iRAM (OCRAM).
//!
//! iRAMs are on-chip SRAM scratchpads the SoC uses for boot firmware and
//! multimedia streaming (paper §7.3). The i.MX535's 128 KB iRAM lives in
//! the L1 memory power domain behind the `VDDAL1` pin — a *different*
//! domain than the Cortex-A8 core, which makes it the easiest Volt Boot
//! target: the hold current is milliamps and there is no core surge.

use crate::error::SocError;
use voltboot_sram::{ArrayConfig, OffEvent, PackedBits, ResolutionMode, SramArray, Temperature};
use voltboot_telemetry::Recorder;

/// A memory-mapped on-chip SRAM region.
///
/// ```rust
/// use voltboot_soc::Iram;
///
/// let mut iram = Iram::new(0xF800_0000, 4096, 1.3, 42);
/// iram.power_on()?;
/// iram.write(0xF800_0100, b"frame data")?;
/// assert_eq!(iram.read(0xF800_0100, 10)?, b"frame data");
/// # Ok::<(), voltboot_soc::SocError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Iram {
    base: u64,
    sram: SramArray,
}

impl Iram {
    /// Creates an iRAM of `size` bytes mapped at `base`, powered by a
    /// rail at `rail_voltage`.
    pub fn new(base: u64, size: usize, rail_voltage: f64, seed: u64) -> Self {
        let cfg = ArrayConfig::with_bytes("iram", size).nominal_voltage(rail_voltage);
        Iram { base, sram: SramArray::new(cfg, seed) }
    }

    /// Base physical address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.sram.len_bytes()
    }

    /// Whether the iRAM is zero-sized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `addr` falls inside the region.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.len() as u64
    }

    /// Reads `len` bytes at physical address `addr`.
    ///
    /// # Errors
    ///
    /// [`SocError::Unmapped`] outside the region, [`SocError::Sram`] when
    /// unpowered.
    pub fn read(&self, addr: u64, len: usize) -> Result<Vec<u8>, SocError> {
        let off = self.offset(addr, len)?;
        Ok(self.sram.try_read_bytes(off, len)?)
    }

    /// Writes `data` at physical address `addr`.
    ///
    /// # Errors
    ///
    /// [`SocError::Unmapped`] outside the region, [`SocError::Sram`] when
    /// unpowered.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), SocError> {
        let off = self.offset(addr, data.len())?;
        Ok(self.sram.try_write_bytes(off, data)?)
    }

    /// Full contents as a bit image (the Figure 9/10 dump).
    ///
    /// # Errors
    ///
    /// [`SocError::Sram`] when unpowered.
    pub fn image(&self) -> Result<PackedBits, SocError> {
        Ok(self.sram.snapshot()?)
    }

    /// Powers the SRAM on.
    ///
    /// # Errors
    ///
    /// [`SocError::Sram`] on an invalid transition.
    pub fn power_on(&mut self) -> Result<voltboot_sram::RetentionReport, SocError> {
        self.power_on_traced(&Recorder::disabled())
    }

    /// [`Iram::power_on`] that additionally records SRAM resolution
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

    /// Whether the SRAM is powered.
    pub fn is_powered(&self) -> bool {
        self.sram.is_powered()
    }

    /// Zero-fills the whole region (MBIST-style reset countermeasure).
    ///
    /// # Errors
    ///
    /// [`SocError::Sram`] when unpowered.
    pub fn hardware_reset(&mut self) -> Result<(), SocError> {
        Ok(self.sram.fill(0)?)
    }

    fn offset(&self, addr: u64, len: usize) -> Result<usize, SocError> {
        if !self.contains(addr) || addr + len as u64 > self.base + self.len() as u64 {
            return Err(SocError::Unmapped { addr });
        }
        Ok((addr - self.base) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn powered_iram() -> Iram {
        let mut i = Iram::new(0xF800_0000, 128 * 1024, 1.3, 5);
        i.power_on().unwrap();
        i
    }

    #[test]
    fn mapped_read_write() {
        let mut i = powered_iram();
        i.write(0xF800_0010, &[1, 2, 3]).unwrap();
        assert_eq!(i.read(0xF800_0010, 3).unwrap(), vec![1, 2, 3]);
        assert!(i.contains(0xF800_0000));
        assert!(i.contains(0xF801_FFFF));
        assert!(!i.contains(0xF802_0000));
    }

    #[test]
    fn out_of_region_is_unmapped() {
        let mut i = powered_iram();
        assert!(matches!(i.read(0x0, 1), Err(SocError::Unmapped { .. })));
        assert!(matches!(i.write(0xF801_FFFF, &[0, 0]), Err(SocError::Unmapped { .. })));
    }

    #[test]
    fn held_rail_retains_across_cycle() {
        let mut i = powered_iram();
        i.write(0xF800_0000, b"bitmap data here").unwrap();
        i.power_off(OffEvent::held(1.3)).unwrap();
        i.elapse(Duration::from_secs(30), Temperature::ROOM);
        i.power_on().unwrap();
        assert_eq!(i.read(0xF800_0000, 16).unwrap(), b"bitmap data here".to_vec());
    }

    #[test]
    fn unheld_cycle_loses_data() {
        let mut i = powered_iram();
        i.write(0xF800_0000, &[0xAA; 64]).unwrap();
        i.power_off(OffEvent::unpowered()).unwrap();
        i.elapse(Duration::from_millis(500), Temperature::ROOM);
        let report = i.power_on().unwrap();
        assert_eq!(report.retained, 0);
    }

    #[test]
    fn hardware_reset_zeroes() {
        let mut i = powered_iram();
        i.write(0xF800_0000, &[0xFF; 128]).unwrap();
        i.hardware_reset().unwrap();
        assert_eq!(i.image().unwrap().count_ones(), 0);
    }
}
