//! End-to-end secret theft: the scenario the paper's introduction
//! motivates.
//!
//! A device uses full-disk encryption; the key schedule lives fully
//! on-chip (TRESOR-style NEON registers, or a CaSE-style locked cache
//! way). The attacker captures the unlocked device, runs Volt Boot,
//! scans the extracted images for a consistent AES key schedule, and
//! decrypts the stolen disk offline — with zero search effort, because
//! the images are error-free. The cold-boot baseline on the same victim
//! recovers nothing.

use crate::analysis;
use crate::attack::{ColdBootAttack, Extraction, VoltBootAttack};
use voltboot_crypto::aes::{Aes, AesKey};
use voltboot_crypto::fde::{EncryptedDisk, SECTOR_BYTES};
use voltboot_crypto::tresor::TresorContext;
use voltboot_soc::devices;

/// Where the victim hides the key schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyHome {
    /// TRESOR-style: NEON registers.
    Registers,
    /// CaSE-style: a locked d-cache way.
    LockedCache,
}

/// The end-to-end result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyTheftResult {
    /// Where the key was hidden.
    pub home: KeyHome,
    /// Whether Volt Boot recovered a working disk key.
    pub voltboot_recovers: bool,
    /// Plaintext recovered from the stolen disk with the stolen key.
    pub recovered_plaintext: Option<String>,
    /// Whether the cold-boot baseline recovered a working key.
    pub coldboot_recovers: bool,
}

/// The secret the victim writes to disk.
pub const SECRET: &str = "account=9149; pin=2071; seed=correct horse battery staple";

/// Runs the scenario: stage the victim, attack, recover, decrypt.
pub fn run(seed: u64, home: KeyHome) -> KeyTheftResult {
    // --- Victim setup: unlocked FDE with the key schedule on-chip. ---
    let mut disk = EncryptedDisk::create("owner-password", seed, 16);
    let aes = disk.unlock("owner-password").expect("owner unlocks");
    let mut sector = [0u8; SECTOR_BYTES];
    sector[..SECRET.len()].copy_from_slice(SECRET.as_bytes());
    disk.write_sector(&aes, 0, &sector).expect("write");
    let key = schedule_key(&aes);

    let mut soc = devices::raspberry_pi_4(seed);
    soc.power_on_all();
    match home {
        KeyHome::Registers => {
            TresorContext::install(&mut soc, 0, &key).expect("tresor install");
        }
        KeyHome::LockedCache => {
            voltboot_crypto::case_exec::CaseEnclave::install(&mut soc, 0, 0x9000, &key)
                .expect("case install");
        }
    }

    // --- Volt Boot. ---
    let extraction = match home {
        KeyHome::Registers => Extraction::Registers { cores: vec![0] },
        KeyHome::LockedCache => Extraction::Caches { cores: vec![0] },
    };
    let outcome = VoltBootAttack::new("TP15")
        .extraction(extraction.clone())
        .execute(&mut soc)
        .expect("attack runs");
    let stolen = outcome
        .images
        .iter()
        .flat_map(|img| analysis::find_key_schedules(&img.bits))
        .map(|(_, ks)| Aes::from_schedule(ks))
        .find(|cipher| disk.verify_cipher(cipher));
    let recovered_plaintext = stolen.as_ref().map(|cipher| {
        let pt = disk.read_sector(cipher, 0).expect("read");
        String::from_utf8_lossy(&pt[..SECRET.len()]).to_string()
    });

    // --- Cold-boot baseline on an identically staged victim. ---
    let mut soc2 = devices::raspberry_pi_4(seed ^ 0xC01D);
    soc2.power_on_all();
    match home {
        KeyHome::Registers => {
            TresorContext::install(&mut soc2, 0, &key).expect("tresor install");
        }
        KeyHome::LockedCache => {
            voltboot_crypto::case_exec::CaseEnclave::install(&mut soc2, 0, 0x9000, &key)
                .expect("case install");
        }
    }
    let cold = ColdBootAttack::new(-40.0, 5).extraction(extraction).execute(&mut soc2).unwrap();
    let coldboot_recovers = cold
        .images
        .iter()
        .flat_map(|img| analysis::find_key_schedules(&img.bits))
        .map(|(_, ks)| Aes::from_schedule(ks))
        .any(|cipher| disk.verify_cipher(&cipher));

    KeyTheftResult {
        home,
        voltboot_recovers: stolen.is_some(),
        recovered_plaintext,
        coldboot_recovers,
    }
}

/// Rebuilds the victim's `AesKey` from its cipher (the victim knows its
/// own key; this is staging, not attack code).
fn schedule_key(aes: &Aes) -> AesKey {
    aes.schedule().original_key()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn voltboot_steals_register_keys_and_coldboot_does_not() {
        let r = run(0x1D3A, KeyHome::Registers);
        assert!(r.voltboot_recovers);
        assert_eq!(r.recovered_plaintext.as_deref(), Some(SECRET));
        assert!(!r.coldboot_recovers);
    }

    #[test]
    fn voltboot_steals_locked_cache_keys() {
        let r = run(0x1D3B, KeyHome::LockedCache);
        assert!(r.voltboot_recovers);
        assert_eq!(r.recovered_plaintext.as_deref(), Some(SECRET));
        assert!(!r.coldboot_recovers);
    }
}
