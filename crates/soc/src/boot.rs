//! Boot ROMs, boot media, and boot-time SRAM clobbering.
//!
//! How much retained SRAM survives to the attacker depends entirely on
//! what the boot path touches before releasing control (paper §6.2):
//!
//! * **BCM2711 / BCM2837**: the VideoCore GPU boots first from its own
//!   firmware, clobbering the shared L2 cache, but never touches the
//!   software-enabled ARM L1 caches — the attacker gets 100 % of L1.
//! * **i.MX535**: the on-chip boot ROM uses part of the iRAM as a
//!   scratchpad before the DRAM controller comes up, wiping the byte
//!   ranges in its clobber map (≈5 % of the 128 KB), clustered at the
//!   start and end of the region — the Figure 10 error clusters.
//!
//! The module also models the boot *policy* countermeasures of §8:
//! authenticated (signed-image) boot and hardware memory BIST at reset.

/// Where the SoC fetches its next-stage image from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BootSource {
    /// Internal boot ROM only (the i.MX535 path: the device comes up like
    /// a microcontroller with no external image needed).
    InternalRom,
    /// An external image supplied on removable/USB media. `signed` says
    /// whether the image carries a valid OEM signature.
    ExternalMedia {
        /// The image's machine code, loaded at the entry address.
        image: Vec<u8>,
        /// Physical load/entry address.
        entry: u64,
        /// Whether the image is signed with the OEM key.
        signed: bool,
    },
}

/// Boot-policy switches (§8 countermeasures).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BootPolicy {
    /// Refuse unsigned external images (fused secure boot).
    pub mandated_authenticated_boot: bool,
    /// Run a hardware MBIST pass that zeroes every SRAM at reset.
    pub mbist_reset: bool,
    /// Pull `nL2RST` at reset, resetting the L2 arrays (armv8-A suggests
    /// this exists for L2 but not L1).
    pub l2_reset_pin: bool,
    /// Enforce TrustZone NS checks on debug reads of cache lines.
    pub trustzone_enforced: bool,
}

/// A byte range of an SRAM region the boot flow overwrites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClobberRegion {
    /// First byte offset (inclusive), relative to the region base.
    pub start: usize,
    /// Last byte offset (exclusive).
    pub end: usize,
}

impl ClobberRegion {
    /// Creates a clobber region.
    ///
    /// # Panics
    ///
    /// Panics if `start >= end`.
    pub fn new(start: usize, end: usize) -> Self {
        assert!(start < end, "empty clobber region");
        ClobberRegion { start, end }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the region is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Device-specific boot behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct BootRom {
    /// Whether the VideoCore-style firmware clobbers the L2 at boot.
    pub clobbers_l2: bool,
    /// iRAM byte ranges the ROM uses as scratchpad (i.MX535: the
    /// 0x83C–0x18CC window plus a small stack at the top).
    pub iram_clobbers: Vec<ClobberRegion>,
    /// Whether the device can boot with no external media at all.
    pub boots_from_internal_rom: bool,
    /// Seed for the deterministic "firmware junk" that fills clobbered
    /// ranges.
    pub junk_seed: u64,
}

impl BootRom {
    /// Deterministic firmware-junk byte for offset `i` (what the ROM's
    /// scratch data happens to look like).
    pub fn junk_byte(&self, i: usize) -> u8 {
        let mut z = self.junk_seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z ^= z >> 29;
        z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 32;
        z as u8
    }
}

/// What a boot attempt produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BootOutcome {
    /// Address the (first) core starts executing at.
    pub entry: u64,
    /// Whether the L2 was clobbered by firmware.
    pub l2_clobbered: bool,
    /// Total iRAM bytes clobbered by the ROM.
    pub iram_bytes_clobbered: usize,
    /// Whether an MBIST pass wiped all SRAMs.
    pub mbist_ran: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clobber_region_len() {
        let r = ClobberRegion::new(0x83C, 0x18CC);
        assert_eq!(r.len(), 0x1090);
        assert!(!r.is_empty());
    }

    #[test]
    #[should_panic(expected = "empty clobber region")]
    fn empty_region_rejected() {
        ClobberRegion::new(8, 8);
    }

    #[test]
    fn junk_is_deterministic_and_varied() {
        let rom = BootRom {
            clobbers_l2: false,
            iram_clobbers: vec![],
            boots_from_internal_rom: true,
            junk_seed: 42,
        };
        assert_eq!(rom.junk_byte(0), rom.junk_byte(0));
        let distinct: std::collections::HashSet<u8> = (0..256).map(|i| rom.junk_byte(i)).collect();
        assert!(distinct.len() > 100, "junk should look random");
    }

    #[test]
    fn default_policy_is_permissive() {
        let p = BootPolicy::default();
        assert!(!p.mandated_authenticated_boot);
        assert!(!p.mbist_reset);
        assert!(!p.l2_reset_pin);
        assert!(!p.trustzone_enforced);
    }
}
