//! SRAM-backed NEON (SIMD/FP) register files.
//!
//! The paper's §7.2 shows that the 128-bit vector registers `v0..v31` —
//! attractive key-schedule storage for TRESOR-style on-chip crypto — sit
//! in the core power domain and fully retain their state under Volt Boot.
//! This module gives each core a physical register file: 32 × 128 bits of
//! SRAM that participates in power events. The `Soc` synchronizes the
//! interpreter's architectural registers with this storage at power
//! boundaries.

use crate::error::SocError;
use voltboot_sram::{ArrayConfig, OffEvent, PackedBits, ResolutionMode, SramArray, Temperature};
use voltboot_telemetry::Recorder;

/// The physical storage of one core's `v0..v31` register file.
#[derive(Debug, Clone)]
pub struct VectorRegFile {
    sram: SramArray,
}

impl VectorRegFile {
    /// Creates the file for a core on a rail at `rail_voltage`.
    pub fn new(core: usize, rail_voltage: f64, shared_domain_drain: f64, seed: u64) -> Self {
        let cfg = ArrayConfig::with_bytes(format!("core{core}.vregs"), 32 * 16)
            .nominal_voltage(rail_voltage)
            .shared_domain_drain(shared_domain_drain);
        VectorRegFile { sram: SramArray::new(cfg, seed) }
    }

    /// Stores the architectural register values into the SRAM.
    ///
    /// # Errors
    ///
    /// [`SocError::Sram`] when unpowered.
    pub fn store(&mut self, file: &[[u64; 2]; 32]) -> Result<(), SocError> {
        for (n, pair) in file.iter().enumerate() {
            let mut bytes = [0u8; 16];
            bytes[..8].copy_from_slice(&pair[0].to_le_bytes());
            bytes[8..].copy_from_slice(&pair[1].to_le_bytes());
            self.sram.try_write_bytes(n * 16, &bytes)?;
        }
        Ok(())
    }

    /// Loads the register values out of the SRAM.
    ///
    /// # Errors
    ///
    /// [`SocError::Sram`] when unpowered.
    pub fn load(&self) -> Result<[[u64; 2]; 32], SocError> {
        let mut out = [[0u64; 2]; 32];
        for (n, pair) in out.iter_mut().enumerate() {
            let bytes = self.sram.try_read_bytes(n * 16, 16)?;
            pair[0] = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
            pair[1] = u64::from_le_bytes(bytes[8..].try_into().expect("8 bytes"));
        }
        Ok(out)
    }

    /// Raw bit image of the whole file.
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

    /// [`VectorRegFile::power_on`] that additionally records SRAM
    /// resolution counters into `rec`.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn file_with_patterns() -> (VectorRegFile, [[u64; 2]; 32]) {
        let mut f = VectorRegFile::new(0, 0.8, 4.0, 77);
        f.power_on().unwrap();
        let mut regs = [[0u64; 2]; 32];
        for (n, r) in regs.iter_mut().enumerate() {
            let v = if n % 2 == 0 { 0xFFFF_FFFF_FFFF_FFFF } else { 0xAAAA_AAAA_AAAA_AAAA };
            *r = [v, v ^ n as u64];
        }
        f.store(&regs).unwrap();
        (f, regs)
    }

    #[test]
    fn store_load_roundtrip() {
        let (f, regs) = file_with_patterns();
        assert_eq!(f.load().unwrap(), regs);
    }

    #[test]
    fn held_rail_keeps_registers() {
        let (mut f, regs) = file_with_patterns();
        f.power_off(OffEvent::held(0.8)).unwrap();
        f.elapse(Duration::from_secs(10), Temperature::ROOM);
        f.power_on().unwrap();
        assert_eq!(f.load().unwrap(), regs, "vector registers must survive a held cycle");
    }

    #[test]
    fn unheld_cycle_randomizes_registers() {
        let (mut f, regs) = file_with_patterns();
        f.power_off(OffEvent::unpowered()).unwrap();
        f.elapse(Duration::from_millis(200), Temperature::ROOM);
        f.power_on().unwrap();
        assert_ne!(f.load().unwrap(), regs);
    }
}
