//! Debug interfaces: the CP15 `RAMINDEX` path and JTAG.
//!
//! The paper's extraction step (§6.1, step 3) reads caches out through the
//! processor's internal-RAM debug interface — on Cortex-A72, the
//! `RAMINDEX` system operation, which exposes 15 different internal RAMs
//! (cache data/tag arrays, TLBs, BTBs) from EL3 — and reads the i.MX535's
//! iRAM directly over JTAG, because that device boots from internal ROM
//! with the debug port alive.

use crate::cache::Cache;
use crate::error::SocError;

/// The internal RAMs this model exposes through `RAMINDEX`.
///
/// Ids follow the Cortex-A72 TRM groupings (L1-I around `0x00`, L1-D
/// around `0x08`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RamId {
    /// L1 instruction-cache tag RAM.
    L1ITag,
    /// L1 instruction-cache data RAM.
    L1IData,
    /// L1 data-cache tag RAM.
    L1DTag,
    /// L1 data-cache data RAM.
    L1DData,
    /// Main TLB entry RAM.
    Tlb,
    /// Branch target buffer entry RAM.
    Btb,
}

impl RamId {
    /// The raw id used in the packed `RAMINDEX` request.
    pub fn code(self) -> u8 {
        match self {
            RamId::L1ITag => 0x00,
            RamId::L1IData => 0x01,
            RamId::L1DTag => 0x08,
            RamId::L1DData => 0x09,
            RamId::Tlb => 0x18,
            RamId::Btb => 0x19,
        }
    }

    /// Decodes a raw id.
    ///
    /// # Errors
    ///
    /// [`SocError::UnknownRamId`] for ids this model does not implement.
    pub fn from_code(code: u8) -> Result<Self, SocError> {
        Ok(match code {
            0x00 => RamId::L1ITag,
            0x01 => RamId::L1IData,
            0x08 => RamId::L1DTag,
            0x09 => RamId::L1DData,
            0x18 => RamId::Tlb,
            0x19 => RamId::Btb,
            other => return Err(SocError::UnknownRamId { ramid: other }),
        })
    }
}

/// Number of bytes one `RAMINDEX` data-register read returns (four 64-bit
/// data output registers).
pub const RAMINDEX_BEAT_BYTES: usize = 32;

/// Executes one `RAMINDEX` data-RAM read against a cache.
///
/// For data RAMs, `index` selects a 32-byte beat within the way
/// (`set * line_bytes / 32 + beat`). For tag RAMs, `index` is the set
/// number and the packed tag word is returned in the first data register.
///
/// When `trustzone_enforced` is set and the requesting world is
/// non-secure, beats overlapping a line whose NS bit marks it secure are
/// refused — the §8 TrustZone countermeasure.
///
/// # Errors
///
/// [`SocError::RamIndexOutOfRange`] for bad way/index,
/// [`SocError::TrustZoneViolation`] on an NS violation, or SRAM failures.
pub fn ramindex_read(
    cache: &Cache,
    is_data_ram: bool,
    way: u8,
    index: u32,
    trustzone_enforced: bool,
    requester_secure: bool,
) -> Result<[u64; 4], SocError> {
    let geometry = cache.geometry();
    if is_data_ram {
        let beats_per_line = geometry.line_bytes / RAMINDEX_BEAT_BYTES;
        let total_beats = geometry.sets() * beats_per_line;
        if (way as usize) >= geometry.ways || (index as usize) >= total_beats {
            return Err(SocError::RamIndexOutOfRange { way: way.into(), index: index.into() });
        }
        let set = index as usize / beats_per_line;
        if trustzone_enforced && !requester_secure && cache.line_is_secure(way as usize, set)? {
            return Err(SocError::TrustZoneViolation);
        }
        let offset = index as usize * RAMINDEX_BEAT_BYTES;
        let bytes = cache.raw_way_bytes(way as usize, offset, RAMINDEX_BEAT_BYTES)?;
        let mut out = [0u64; 4];
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            out[i] = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        }
        Ok(out)
    } else {
        let set = index as usize;
        if trustzone_enforced && !requester_secure {
            // Tag reads reveal secure line metadata; refuse wholesale.
            if cache.line_is_secure(way as usize, set)? {
                return Err(SocError::TrustZoneViolation);
            }
        }
        let word = cache.raw_tag_word(way as usize, set)?;
        Ok([word, 0, 0, 0])
    }
}

/// Reads one whole way of a data RAM beat-by-beat through
/// [`ramindex_read`], returning the way's bytes in beat order — the
/// readout unit the attack's voted multi-pass extraction re-reads
/// selectively. Byte-for-byte identical to issuing every beat
/// individually (it *is* every beat, issued in order).
///
/// # Errors
///
/// Same classes as [`ramindex_read`]; the first failing beat aborts the
/// read.
pub fn ramindex_read_way(
    cache: &Cache,
    way: u8,
    trustzone_enforced: bool,
    requester_secure: bool,
) -> Result<Vec<u8>, SocError> {
    let mut bytes = Vec::new();
    ramindex_read_way_into(cache, way, trustzone_enforced, requester_secure, &mut bytes)?;
    Ok(bytes)
}

/// [`ramindex_read_way`] appending into a caller-supplied buffer
/// instead of allocating one — the voted multi-pass extraction re-reads
/// the same ways thousands of times per campaign and recycles its dump
/// buffers through an arena, so the read itself must not allocate.
/// `out` is *not* cleared; the way's bytes are appended.
///
/// # Errors
///
/// Same classes as [`ramindex_read_way`]; on error `out` holds the
/// beats read before the failure.
pub fn ramindex_read_way_into(
    cache: &Cache,
    way: u8,
    trustzone_enforced: bool,
    requester_secure: bool,
    out: &mut Vec<u8>,
) -> Result<(), SocError> {
    let geometry = cache.geometry();
    let beats = geometry.sets() * geometry.line_bytes / RAMINDEX_BEAT_BYTES;
    out.reserve(geometry.sets() * geometry.line_bytes);
    for beat in 0..beats {
        let words =
            ramindex_read(cache, true, way, beat as u32, trustzone_enforced, requester_secure)?;
        for w in words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
    Ok(())
}

/// A JTAG debug port with direct physical-memory access.
///
/// Whether the port exists (and survives fusing) is a device property;
/// the i.MX535 exposes it, the Raspberry Pis do not by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Jtag {
    /// Whether the port is present and enabled.
    pub enabled: bool,
}

impl Jtag {
    /// Checks availability.
    ///
    /// # Errors
    ///
    /// [`SocError::NoJtag`] when the port is absent or fused off.
    pub fn require(&self) -> Result<(), SocError> {
        if self.enabled {
            Ok(())
        } else {
            Err(SocError::NoJtag)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheGeometry, CacheKind, SecurityState};

    fn cache_with_line() -> Cache {
        let mut c = Cache::new("t", CacheKind::Data, CacheGeometry::new(4096, 2, 64), 0.8, 1.0, 1);
        c.power_on().unwrap();
        c.invalidate_all().unwrap();
        c
    }

    #[test]
    fn ramid_codes_roundtrip() {
        for id in [RamId::L1ITag, RamId::L1IData, RamId::L1DTag, RamId::L1DData] {
            assert_eq!(RamId::from_code(id.code()).unwrap(), id);
        }
        assert!(matches!(RamId::from_code(0x42), Err(SocError::UnknownRamId { ramid: 0x42 })));
    }

    #[test]
    fn data_ram_beats_walk_the_way() {
        let mut c = cache_with_line();
        // Load a recognizable line directly into set 0, way 1.
        let line: Vec<u8> = (0u8..64).collect();
        c.load_line_raw(0, 1, 0x3, true, &line).unwrap();
        let beat0 = ramindex_read(&c, true, 1, 0, false, false).unwrap();
        assert_eq!(beat0[0], u64::from_le_bytes([0, 1, 2, 3, 4, 5, 6, 7]));
        let beat1 = ramindex_read(&c, true, 1, 1, false, false).unwrap();
        assert_eq!(beat1[0], u64::from_le_bytes([32, 33, 34, 35, 36, 37, 38, 39]));
    }

    #[test]
    fn way_read_equals_the_beat_loop() {
        let mut c = cache_with_line();
        let line: Vec<u8> = (0u8..64).collect();
        c.load_line_raw(5, 0, 0x9, true, &line).unwrap();
        let way = ramindex_read_way(&c, 0, false, false).unwrap();
        let geometry = c.geometry();
        assert_eq!(way.len(), geometry.sets() * geometry.line_bytes);
        let mut manual = Vec::new();
        for beat in 0..way.len() / RAMINDEX_BEAT_BYTES {
            for w in ramindex_read(&c, true, 0, beat as u32, false, false).unwrap() {
                manual.extend_from_slice(&w.to_le_bytes());
            }
        }
        assert_eq!(way, manual, "whole-way read must match per-beat reads exactly");
        assert_eq!(&way[5 * 64..5 * 64 + 64], &line[..], "the loaded line is where set 5 lives");
    }

    #[test]
    fn way_read_rejects_bad_way() {
        let c = cache_with_line();
        assert!(matches!(
            ramindex_read_way(&c, 9, false, false),
            Err(SocError::RamIndexOutOfRange { .. })
        ));
    }

    #[test]
    fn tag_ram_read_returns_packed_word() {
        let mut c = cache_with_line();
        c.load_line_raw(3, 0, 0x77, true, &[0u8; 64]).unwrap();
        let out = ramindex_read(&c, false, 0, 3, false, false).unwrap();
        assert_ne!(out[0], 0);
        assert_eq!(out[0] & 0x1FFF_FFFF_FFFF_FFFF, 0x77);
    }

    #[test]
    fn out_of_range_rejected() {
        let c = cache_with_line();
        assert!(matches!(
            ramindex_read(&c, true, 5, 0, false, false),
            Err(SocError::RamIndexOutOfRange { .. })
        ));
        assert!(matches!(
            ramindex_read(&c, true, 0, 10_000, false, false),
            Err(SocError::RamIndexOutOfRange { .. })
        ));
    }

    #[test]
    fn trustzone_blocks_nonsecure_reads_of_secure_lines() {
        let mut c = cache_with_line();
        c.set_enabled(true);
        // Fill a secure line through the access path.
        struct Zeros;
        impl crate::cache::Backing for Zeros {
            fn read_line(&mut self, _: u64, buf: &mut [u8]) -> Result<(), SocError> {
                buf.fill(0x11);
                Ok(())
            }
            fn write_line(&mut self, _: u64, _: &[u8]) -> Result<(), SocError> {
                Ok(())
            }
        }
        let mut buf = [0u8; 8];
        c.read(0x0, &mut buf, SecurityState::Secure, &mut Zeros).unwrap();
        let (_, set, _) = c.geometry().split(0x0);
        let way = (0..2).find(|&w| c.line_is_secure(w, set).unwrap()).expect("secure line");
        // Non-secure requester with enforcement: denied.
        assert!(matches!(
            ramindex_read(&c, true, way as u8, 0, true, false),
            Err(SocError::TrustZoneViolation)
        ));
        // Secure requester: allowed.
        assert!(ramindex_read(&c, true, way as u8, 0, true, true).is_ok());
        // Enforcement off (the paper's default devices): allowed.
        assert!(ramindex_read(&c, true, way as u8, 0, false, false).is_ok());
    }

    #[test]
    fn jtag_gate() {
        assert!(Jtag { enabled: true }.require().is_ok());
        assert_eq!(Jtag { enabled: false }.require(), Err(SocError::NoJtag));
    }
}
