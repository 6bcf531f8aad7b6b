//! §7.2: CPU vector registers fully retain their state under Volt Boot.
//!
//! The victim fills `v0..v31` with distinguishable patterns (`0xFF` /
//! `0xAA`); after the held power cycle both Broadcom devices return the
//! whole register file intact. A TRESOR-style key schedule stored there
//! is therefore recoverable.

use crate::attack::{Extraction, VoltBootAttack};
use crate::workloads;
use voltboot_soc::devices;

/// Result for one device.
#[derive(Debug, Clone, PartialEq)]
pub struct Sec72Device {
    /// SoC name.
    pub soc: String,
    /// Registers (out of 32 per core × cores) that fully retained their
    /// pattern.
    pub retained_registers: usize,
    /// Total registers checked.
    pub total_registers: usize,
}

/// The section's result.
#[derive(Debug, Clone, PartialEq)]
pub struct Sec72Result {
    /// One entry per device.
    pub devices: Vec<Sec72Device>,
}

/// Runs the register experiment on both Raspberry Pis.
pub fn run(seed: u64) -> Sec72Result {
    let mut devices_out = Vec::new();
    for (build, pad) in [
        (devices::raspberry_pi_4 as fn(u64) -> voltboot_soc::Soc, "TP15"),
        (devices::raspberry_pi_3 as fn(u64) -> voltboot_soc::Soc, "PP58"),
    ] {
        let mut soc = build(seed);
        soc.power_on_all();
        let cores: Vec<usize> = (0..soc.core_count()).collect();
        for &core in &cores {
            workloads::register_fill(&mut soc, core).expect("victim runs");
        }
        let outcome = VoltBootAttack::new(pad)
            .extraction(Extraction::Registers { cores: cores.clone() })
            .execute(&mut soc)
            .expect("attack runs");

        let mut retained = 0usize;
        for &core in &cores {
            let bytes = outcome.image(&format!("core{core}.vregs")).unwrap().bits.to_bytes();
            for (n, chunk) in bytes.chunks_exact(16).enumerate() {
                let expected = if n % 2 == 0 { 0xFFu8 } else { 0xAA };
                if chunk.iter().all(|&b| b == expected) {
                    retained += 1;
                }
            }
        }
        devices_out.push(Sec72Device {
            soc: soc.soc_name().to_string(),
            retained_registers: retained,
            total_registers: cores.len() * 32,
        });
    }
    Sec72Result { devices: devices_out }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_vector_registers_retain() {
        let r = run(0x5EC72);
        for d in &r.devices {
            assert_eq!(
                d.retained_registers, d.total_registers,
                "{}: {}/{}",
                d.soc, d.retained_registers, d.total_registers
            );
        }
    }
}
