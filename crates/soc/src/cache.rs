//! Set-associative caches with SRAM-backed tag and data arrays.
//!
//! Both the tag RAM and the data RAM of every cache are
//! [`SramArray`]s, so cache contents — including valid bits, dirty bits,
//! and TrustZone NS bits, which live in the tag array — behave like
//! physical SRAM across power events. That is the property Volt Boot
//! exploits and the property that makes an unheld power cycle scramble
//! the cache into its power-up state (paper Figure 3).
//!
//! Architectural behaviours the paper relies on are modelled faithfully:
//!
//! * **Invalidate ≠ erase** (§5.2.4): `IC IALLU` and `DC CIVAC` clear tag
//!   *valid* bits only; the data RAM keeps its contents and stays readable
//!   through `RAMINDEX`.
//! * **`DC ZVA` is the only data-RAM reset** for d-caches, and no
//!   equivalent exists for i-caches.
//! * **Cache lockdown**: ways can be locked (CaSE-style) so neither the
//!   kernel nor other processes can evict secret-holding lines.

use crate::error::SocError;
use voltboot_sram::{ArrayConfig, OffEvent, PackedBits, ResolutionMode, SramArray, Temperature};
use voltboot_telemetry::Recorder;

/// Whether a cache serves instruction fetches or data accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheKind {
    /// Instruction cache (read-only from the core's point of view).
    Instruction,
    /// Data cache (write-back, write-allocate).
    Data,
    /// Unified cache (L2).
    Unified,
}

/// Geometry of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Number of ways.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
}

impl CacheGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `size = ways * sets * line` divides evenly and all
    /// parameters are powers of two.
    pub fn new(size_bytes: usize, ways: usize, line_bytes: usize) -> Self {
        assert!(size_bytes.is_power_of_two() || size_bytes.is_multiple_of(ways * line_bytes));
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        let g = CacheGeometry { size_bytes, ways, line_bytes };
        assert!(g.sets() > 0 && g.sets().is_power_of_two(), "sets must be a power of two");
        g
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * self.line_bytes)
    }

    /// Total number of lines.
    pub fn lines(&self) -> usize {
        self.sets() * self.ways
    }

    /// Decomposes an address into `(tag, set, offset)`.
    ///
    /// All masking happens in `u64` before narrowing: `addr as usize`
    /// would silently drop the high half of a 64-bit physical address on
    /// a 32-bit host and alias distant lines onto the same set.
    pub fn split(&self, addr: u64) -> (u64, usize, usize) {
        let offset = (addr & (self.line_bytes as u64 - 1)) as usize;
        let set = ((addr / self.line_bytes as u64) & (self.sets() as u64 - 1)) as usize;
        let tag = addr / (self.line_bytes as u64 * self.sets() as u64);
        (tag, set, offset)
    }

    /// Rebuilds a line's base address from its tag and set.
    pub fn line_addr(&self, tag: u64, set: usize) -> u64 {
        (tag * self.sets() as u64 + set as u64) * self.line_bytes as u64
    }
}

/// Security state of an access (TrustZone).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SecurityState {
    /// Secure world.
    Secure,
    /// Non-secure world.
    NonSecure,
}

/// The next level of the memory hierarchy, seen line-at-a-time.
pub trait Backing {
    /// Reads one full line at `line_addr` into `buf`.
    ///
    /// # Errors
    ///
    /// [`SocError::Unmapped`] (or lower-level failures) when the address
    /// does not decode.
    fn read_line(&mut self, line_addr: u64, buf: &mut [u8]) -> Result<(), SocError>;

    /// Writes one full line at `line_addr` from `buf`.
    ///
    /// # Errors
    ///
    /// [`SocError::Unmapped`] (or lower-level failures) when the address
    /// does not decode.
    fn write_line(&mut self, line_addr: u64, buf: &[u8]) -> Result<(), SocError>;
}

/// Decoded tag-RAM entry for one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TagEntry {
    valid: bool,
    dirty: bool,
    /// TrustZone NS bit: `true` = line was filled by a non-secure access.
    ns: bool,
    tag: u64,
}

impl TagEntry {
    const INVALID: TagEntry = TagEntry { valid: false, dirty: false, ns: true, tag: 0 };

    fn pack(self) -> u64 {
        let mut w = self.tag & 0x1FFF_FFFF_FFFF_FFFF;
        if self.valid {
            w |= 1 << 63;
        }
        if self.dirty {
            w |= 1 << 62;
        }
        if self.ns {
            w |= 1 << 61;
        }
        w
    }

    fn unpack(w: u64) -> TagEntry {
        TagEntry {
            valid: w & (1 << 63) != 0,
            dirty: w & (1 << 62) != 0,
            ns: w & (1 << 61) != 0,
            tag: w & 0x1FFF_FFFF_FFFF_FFFF,
        }
    }
}

/// A set-associative, write-back, write-allocate cache whose tag and data
/// stores are physical [`SramArray`]s.
#[derive(Debug, Clone)]
pub struct Cache {
    name: String,
    kind: CacheKind,
    geometry: CacheGeometry,
    /// Data RAM: `lines * line_bytes` bytes of SRAM.
    data: SramArray,
    /// Tag RAM: 64 bits of SRAM per line.
    tags: SramArray,
    /// Software enable bit (SCTLR.C / SCTLR.I analogue). Cleared by a
    /// power-on reset; garbage tags make an un-invalidated enable unsafe.
    enabled: bool,
    /// Per-way lockdown bits (CaSE-style).
    locked_ways: Vec<bool>,
    /// Round-robin victim pointers, one per set. Micro-architectural
    /// state, reset on power-up (not SRAM-relevant).
    victim_ptr: Vec<u8>,
}

impl Cache {
    /// Creates a new, unpowered cache. `rail_voltage` is the nominal
    /// supply of the power domain the cache's SRAM sits in;
    /// `shared_domain_drain` models compute logic on the same domain
    /// accelerating decay during unheld power-offs.
    pub fn new(
        name: impl Into<String>,
        kind: CacheKind,
        geometry: CacheGeometry,
        rail_voltage: f64,
        shared_domain_drain: f64,
        seed: u64,
    ) -> Self {
        let name = name.into();
        let data_cfg = ArrayConfig::with_bytes(format!("{name}.data"), geometry.size_bytes)
            .nominal_voltage(rail_voltage)
            .shared_domain_drain(shared_domain_drain);
        let tag_cfg = ArrayConfig::with_bytes(format!("{name}.tag"), geometry.lines() * 8)
            .nominal_voltage(rail_voltage)
            .shared_domain_drain(shared_domain_drain);
        Cache {
            kind,
            data: SramArray::new(data_cfg, seed ^ 0xDA7A),
            tags: SramArray::new(tag_cfg, seed ^ 0x7A65),
            enabled: false,
            locked_ways: vec![false; geometry.ways],
            victim_ptr: vec![0; geometry.sets()],
            geometry,
            name,
        }
    }

    /// The cache's name, e.g. `"core0.l1d"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cache's kind.
    pub fn kind(&self) -> CacheKind {
        self.kind
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Whether software has enabled the cache.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or disables the cache (the SCTLR bit). Enabling does *not*
    /// initialize the tag RAM; see [`Cache::invalidate_all`].
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Locks or unlocks a way against eviction.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    pub fn set_way_locked(&mut self, way: usize, locked: bool) {
        self.locked_ways[way] = locked;
    }

    /// Whether a way is locked.
    pub fn is_way_locked(&self, way: usize) -> bool {
        self.locked_ways[way]
    }

    // ------------------------------------------------------------------
    // Power plumbing
    // ------------------------------------------------------------------

    /// Powers both SRAM arrays on. Returns the data-RAM retention report.
    ///
    /// # Errors
    ///
    /// [`SocError::Sram`] on an invalid transition.
    pub fn power_on(&mut self) -> Result<voltboot_sram::RetentionReport, SocError> {
        self.power_on_traced(&Recorder::disabled())
    }

    /// [`Cache::power_on`] that additionally records SRAM resolution
    /// counters into `rec` (counters only — safe from parallel power-on
    /// jobs).
    ///
    /// # Errors
    ///
    /// [`SocError::Sram`] on an invalid transition.
    pub fn power_on_traced(
        &mut self,
        rec: &Recorder,
    ) -> Result<voltboot_sram::RetentionReport, SocError> {
        let report = self.data.power_on_traced(ResolutionMode::Batched, rec)?;
        self.tags.power_on_traced(ResolutionMode::Batched, rec)?;
        // Micro-architectural reset: the enable bit clears, victim
        // pointers reset. Tag/data SRAM keeps whatever physics decided.
        self.enabled = false;
        self.victim_ptr.iter_mut().for_each(|p| *p = 0);
        self.locked_ways.iter_mut().for_each(|l| *l = false);
        Ok(report)
    }

    /// Cuts power to both arrays.
    ///
    /// # Errors
    ///
    /// [`SocError::Sram`] on an invalid transition.
    pub fn power_off(&mut self, event: OffEvent) -> Result<(), SocError> {
        self.data.power_off(event)?;
        self.tags.power_off(event)?;
        Ok(())
    }

    /// Advances unpowered time at `temperature`.
    pub fn elapse(&mut self, dt: std::time::Duration, temperature: Temperature) {
        self.data.elapse(dt, temperature);
        self.tags.elapse(dt, temperature);
    }

    /// Whether the cache is powered.
    pub fn is_powered(&self) -> bool {
        self.data.is_powered()
    }

    // ------------------------------------------------------------------
    // Maintenance operations
    // ------------------------------------------------------------------

    /// Invalidates every line by clearing tag valid bits. **Data RAM is
    /// untouched** — this is the §5.2.4 observation that cleaning and
    /// invalidating "does not erase the contents".
    ///
    /// # Errors
    ///
    /// [`SocError::Sram`] if unpowered.
    pub fn invalidate_all(&mut self) -> Result<(), SocError> {
        for line in 0..self.geometry.lines() {
            let mut e = self.read_tag(line)?;
            e.valid = false;
            e.dirty = false;
            self.write_tag(line, e)?;
        }
        Ok(())
    }

    /// Invalidates (without writeback) every line whose address falls in
    /// `[start, start + len)` — the loader-side coherence operation for
    /// freshly written code. Data RAM keeps its bits.
    ///
    /// # Errors
    ///
    /// [`SocError::Sram`] if unpowered.
    pub fn invalidate_va_range(&mut self, start: u64, len: u64) -> Result<(), SocError> {
        let line = self.geometry.line_bytes as u64;
        let mut addr = start & !(line - 1);
        while addr < start + len {
            let (tag, set, _) = self.geometry.split(addr);
            for way in 0..self.geometry.ways {
                let idx = self.line_index(set, way);
                let e = self.read_tag(idx)?;
                if e.valid && e.tag == tag {
                    let mut cleared = e;
                    cleared.valid = false;
                    cleared.dirty = false;
                    self.write_tag(idx, cleared)?;
                }
            }
            addr += line;
        }
        Ok(())
    }

    /// Cleans (writes back) and invalidates the line containing `addr`,
    /// if present. Data RAM keeps its bits.
    ///
    /// # Errors
    ///
    /// Propagates SRAM and backing failures.
    pub fn clean_invalidate_va(
        &mut self,
        addr: u64,
        lower: &mut dyn Backing,
    ) -> Result<(), SocError> {
        if let Some((way, _)) = self.lookup(addr)? {
            let (_, set, _) = self.geometry.split(addr);
            self.writeback_if_dirty(set, way, lower)?;
            let line = self.line_index(set, way);
            let mut e = self.read_tag(line)?;
            e.valid = false;
            e.dirty = false;
            self.write_tag(line, e)?;
        }
        Ok(())
    }

    /// Cleans (writes back) the line containing `addr`, if dirty.
    ///
    /// # Errors
    ///
    /// Propagates SRAM and backing failures.
    pub fn clean_va(&mut self, addr: u64, lower: &mut dyn Backing) -> Result<(), SocError> {
        if let Some((way, _)) = self.lookup(addr)? {
            let (_, set, _) = self.geometry.split(addr);
            self.writeback_if_dirty(set, way, lower)?;
        }
        Ok(())
    }

    /// `DC ZVA`: allocates the line containing `addr` and zeroes its data
    /// — the only architectural way to reset d-cache data RAM (§5.2.4).
    ///
    /// # Errors
    ///
    /// Propagates SRAM and backing failures.
    pub fn zero_va(
        &mut self,
        addr: u64,
        security: SecurityState,
        lower: &mut dyn Backing,
    ) -> Result<(), SocError> {
        let (tag, set, _) = self.geometry.split(addr);
        let way = match self.lookup(addr)? {
            Some((way, _)) => way,
            None => self.allocate_way(set, lower)?,
        };
        let line = self.line_index(set, way);
        self.write_tag(
            line,
            TagEntry { valid: true, dirty: true, ns: security == SecurityState::NonSecure, tag },
        )?;
        let zeros = vec![0u8; self.geometry.line_bytes];
        self.data.try_write_bytes(line * self.geometry.line_bytes, &zeros)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Access path
    // ------------------------------------------------------------------

    /// Reads `buf.len()` bytes at `addr` through the cache. The access
    /// must not cross a line boundary.
    ///
    /// # Errors
    ///
    /// Propagates SRAM and backing failures.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a line boundary (the CPU never issues
    /// such accesses).
    pub fn read(
        &mut self,
        addr: u64,
        buf: &mut [u8],
        security: SecurityState,
        lower: &mut dyn Backing,
    ) -> Result<(), SocError> {
        self.check_span(addr, buf.len());
        if !self.enabled {
            return self.read_around(addr, buf, lower);
        }
        let (_, set, offset) = self.geometry.split(addr);
        let way = match self.lookup(addr)? {
            Some((way, _)) => way,
            None => self.fill(addr, security, lower)?,
        };
        let line = self.line_index(set, way);
        let bytes =
            self.data.try_read_bytes(line * self.geometry.line_bytes + offset, buf.len())?;
        buf.copy_from_slice(&bytes);
        Ok(())
    }

    /// Writes `data` at `addr` through the cache (write-back,
    /// write-allocate). The access must not cross a line boundary.
    ///
    /// # Errors
    ///
    /// Propagates SRAM and backing failures.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a line boundary.
    pub fn write(
        &mut self,
        addr: u64,
        data: &[u8],
        security: SecurityState,
        lower: &mut dyn Backing,
    ) -> Result<(), SocError> {
        self.check_span(addr, data.len());
        if !self.enabled {
            return self.write_around(addr, data, lower);
        }
        let (_, set, offset) = self.geometry.split(addr);
        let way = match self.lookup(addr)? {
            Some((way, _)) => way,
            None => self.fill(addr, security, lower)?,
        };
        let line = self.line_index(set, way);
        self.data.try_write_bytes(line * self.geometry.line_bytes + offset, data)?;
        let mut e = self.read_tag(line)?;
        e.dirty = true;
        self.write_tag(line, e)?;
        Ok(())
    }

    /// Evicts (with writeback) every line belonging to lines chosen by an
    /// external actor — used by the OS-noise model to emulate background
    /// processes touching a set. Evicts the victim way of `set` unless it
    /// is locked; returns the way evicted, if any.
    ///
    /// # Errors
    ///
    /// Propagates SRAM and backing failures.
    pub fn evict_one(
        &mut self,
        set: usize,
        fill_addr: u64,
        security: SecurityState,
        lower: &mut dyn Backing,
    ) -> Result<Option<usize>, SocError> {
        if !self.enabled {
            return Ok(None);
        }
        if self.locked_ways.iter().all(|&l| l) {
            return Ok(None);
        }
        let way = self.pick_victim(set);
        self.writeback_if_dirty(set, way, lower)?;
        // Fill the way with the noise line.
        let (tag, fill_set, _) = self.geometry.split(fill_addr);
        debug_assert_eq!(fill_set, set, "noise fill address must map to the set");
        let line = self.line_index(set, way);
        let mut buf = vec![0u8; self.geometry.line_bytes];
        lower.read_line(self.geometry.line_addr(tag, set), &mut buf)?;
        self.data.try_write_bytes(line * self.geometry.line_bytes, &buf)?;
        self.write_tag(
            line,
            TagEntry { valid: true, dirty: false, ns: security == SecurityState::NonSecure, tag },
        )?;
        Ok(Some(way))
    }

    // ------------------------------------------------------------------
    // Raw debug access (the RAMINDEX / forensic path)
    // ------------------------------------------------------------------

    /// Raw read of the data RAM: `len` bytes at byte `offset` of `way`.
    /// Ignores validity — this is the debug path, not the access path.
    ///
    /// # Errors
    ///
    /// [`SocError::RamIndexOutOfRange`] or SRAM failures.
    pub fn raw_way_bytes(
        &self,
        way: usize,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, SocError> {
        let way_bytes = self.geometry.sets() * self.geometry.line_bytes;
        let end = offset.checked_add(len);
        if way >= self.geometry.ways || end.is_none_or(|e| e > way_bytes) {
            return Err(SocError::RamIndexOutOfRange { way: way as u64, index: offset as u64 });
        }
        // Data RAM layout: line-major (set*ways + way); a way image walks
        // every set picking this way's line.
        let line_bytes = self.geometry.line_bytes;
        let mut out = Vec::with_capacity(len);
        let mut remaining = len;
        let mut cursor = offset;
        while remaining > 0 {
            let set = cursor / line_bytes;
            let within = cursor % line_bytes;
            let chunk = (line_bytes - within).min(remaining);
            let line = self.line_index(set, way);
            out.extend(self.data.try_read_bytes(line * line_bytes + within, chunk)?);
            cursor += chunk;
            remaining -= chunk;
        }
        Ok(out)
    }

    /// The full image of one way as a bit vector (the paper's Figures 3,
    /// 7, 8 render exactly this).
    ///
    /// # Errors
    ///
    /// [`SocError::RamIndexOutOfRange`] or SRAM failures.
    pub fn way_image(&self, way: usize) -> Result<PackedBits, SocError> {
        let bytes = self.raw_way_bytes(way, 0, self.geometry.sets() * self.geometry.line_bytes)?;
        Ok(PackedBits::from_bytes(&bytes))
    }

    /// Raw read of one packed tag entry (the L1D-tag / L1I-tag RAMs).
    ///
    /// # Errors
    ///
    /// [`SocError::RamIndexOutOfRange`] or SRAM failures.
    pub fn raw_tag_word(&self, way: usize, set: usize) -> Result<u64, SocError> {
        if way >= self.geometry.ways || set >= self.geometry.sets() {
            return Err(SocError::RamIndexOutOfRange { way: way as u64, index: set as u64 });
        }
        let line = self.line_index(set, way);
        let bytes = self.tags.try_read_bytes(line * 8, 8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Raw write of one packed tag entry (debug/firmware path; see
    /// [`Cache::raw_tag_word`] for the layout).
    ///
    /// # Errors
    ///
    /// [`SocError::RamIndexOutOfRange`] or SRAM failures.
    pub fn write_tag_raw(&mut self, set: usize, way: usize, word: u64) -> Result<(), SocError> {
        if way >= self.geometry.ways || set >= self.geometry.sets() {
            return Err(SocError::RamIndexOutOfRange { way: way as u64, index: set as u64 });
        }
        let line = self.line_index(set, way);
        self.tags.try_write_bytes(line * 8, &word.to_le_bytes())?;
        Ok(())
    }

    /// The TrustZone NS bit of a line, for enforcement checks.
    ///
    /// # Errors
    ///
    /// [`SocError::RamIndexOutOfRange`] or SRAM failures.
    pub fn line_is_secure(&self, way: usize, set: usize) -> Result<bool, SocError> {
        let e = TagEntry::unpack(self.raw_tag_word(way, set)?);
        Ok(e.valid && !e.ns)
    }

    /// Direct load of a full line image into the data and tag RAMs —
    /// used by boot firmware models (e.g. the VideoCore clobbering L2).
    ///
    /// # Errors
    ///
    /// SRAM failures.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not exactly one line or indices are out of
    /// range.
    pub fn load_line_raw(
        &mut self,
        set: usize,
        way: usize,
        tag: u64,
        valid: bool,
        bytes: &[u8],
    ) -> Result<(), SocError> {
        assert_eq!(bytes.len(), self.geometry.line_bytes);
        let line = self.line_index(set, way);
        self.data.try_write_bytes(line * self.geometry.line_bytes, bytes)?;
        self.write_tag(line, TagEntry { valid, dirty: false, ns: true, tag })?;
        Ok(())
    }

    /// Fills the entire data RAM with a byte and invalidates all tags —
    /// the MBIST-style hardware reset countermeasure (§8).
    ///
    /// # Errors
    ///
    /// SRAM failures.
    pub fn hardware_reset(&mut self) -> Result<(), SocError> {
        self.data.fill(0)?;
        for line in 0..self.geometry.lines() {
            self.write_tag(line, TagEntry::INVALID)?;
        }
        Ok(())
    }

    /// Overwrites the whole data RAM with generated bytes (boot firmware
    /// scribbling over a shared cache, e.g. the VideoCore clobbering L2).
    ///
    /// # Errors
    ///
    /// SRAM failures.
    pub fn fill_data_with(&mut self, f: impl Fn(usize) -> u8) -> Result<(), SocError> {
        let total = self.geometry.size_bytes;
        let chunk = 4096.min(total);
        let mut offset = 0usize;
        while offset < total {
            let n = chunk.min(total - offset);
            let bytes: Vec<u8> = (offset..offset + n).map(&f).collect();
            self.data.try_write_bytes(offset, &bytes)?;
            offset += n;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn line_index(&self, set: usize, way: usize) -> usize {
        set * self.geometry.ways + way
    }

    fn read_tag(&self, line: usize) -> Result<TagEntry, SocError> {
        let bytes = self.tags.try_read_bytes(line * 8, 8)?;
        Ok(TagEntry::unpack(u64::from_le_bytes(bytes.try_into().expect("8 bytes"))))
    }

    fn write_tag(&mut self, line: usize, e: TagEntry) -> Result<(), SocError> {
        self.tags.try_write_bytes(line * 8, &e.pack().to_le_bytes())?;
        Ok(())
    }

    /// Finds `(way, tag_entry)` of a hit.
    fn lookup(&self, addr: u64) -> Result<Option<(usize, TagEntry)>, SocError> {
        let (tag, set, _) = self.geometry.split(addr);
        for way in 0..self.geometry.ways {
            let e = self.read_tag(self.line_index(set, way))?;
            if e.valid && e.tag == tag {
                return Ok(Some((way, e)));
            }
        }
        Ok(None)
    }

    /// Picks a victim way in `set`: first invalid unlocked way, else the
    /// round-robin pointer skipping locked ways.
    fn pick_victim(&mut self, set: usize) -> usize {
        for way in 0..self.geometry.ways {
            if self.locked_ways[way] {
                continue;
            }
            if let Ok(e) = self.read_tag(self.line_index(set, way)) {
                if !e.valid {
                    return way;
                }
            }
        }
        let ways = self.geometry.ways;
        let mut ptr = self.victim_ptr[set] as usize;
        for _ in 0..ways {
            ptr = (ptr + 1) % ways;
            if !self.locked_ways[ptr] {
                break;
            }
        }
        self.victim_ptr[set] = ptr as u8;
        ptr
    }

    fn writeback_if_dirty(
        &mut self,
        set: usize,
        way: usize,
        lower: &mut dyn Backing,
    ) -> Result<(), SocError> {
        let line = self.line_index(set, way);
        let e = self.read_tag(line)?;
        if e.valid && e.dirty {
            let bytes = self
                .data
                .try_read_bytes(line * self.geometry.line_bytes, self.geometry.line_bytes)?;
            lower.write_line(self.geometry.line_addr(e.tag, set), &bytes)?;
            let mut cleaned = e;
            cleaned.dirty = false;
            self.write_tag(line, cleaned)?;
        }
        Ok(())
    }

    /// Allocates a way for `addr`'s set, evicting as needed; does not
    /// fill it. Returns the way.
    fn allocate_way(&mut self, set: usize, lower: &mut dyn Backing) -> Result<usize, SocError> {
        let way = self.pick_victim(set);
        self.writeback_if_dirty(set, way, lower)?;
        Ok(way)
    }

    /// Handles a miss: allocates a way, fills it from the lower level,
    /// returns the way.
    fn fill(
        &mut self,
        addr: u64,
        security: SecurityState,
        lower: &mut dyn Backing,
    ) -> Result<usize, SocError> {
        let (tag, set, _) = self.geometry.split(addr);
        let way = self.allocate_way(set, lower)?;
        let line = self.line_index(set, way);
        let mut buf = vec![0u8; self.geometry.line_bytes];
        lower.read_line(self.geometry.line_addr(tag, set), &mut buf)?;
        self.data.try_write_bytes(line * self.geometry.line_bytes, &buf)?;
        self.write_tag(
            line,
            TagEntry { valid: true, dirty: false, ns: security == SecurityState::NonSecure, tag },
        )?;
        Ok(way)
    }

    fn read_around(
        &self,
        addr: u64,
        buf: &mut [u8],
        lower: &mut dyn Backing,
    ) -> Result<(), SocError> {
        let line_bytes = self.geometry.line_bytes as u64;
        let base = addr & !(line_bytes - 1);
        let mut line = vec![0u8; self.geometry.line_bytes];
        lower.read_line(base, &mut line)?;
        let off = (addr - base) as usize;
        buf.copy_from_slice(&line[off..off + buf.len()]);
        Ok(())
    }

    fn write_around(
        &self,
        addr: u64,
        data: &[u8],
        lower: &mut dyn Backing,
    ) -> Result<(), SocError> {
        let line_bytes = self.geometry.line_bytes as u64;
        let base = addr & !(line_bytes - 1);
        let mut line = vec![0u8; self.geometry.line_bytes];
        lower.read_line(base, &mut line)?;
        let off = (addr - base) as usize;
        line[off..off + data.len()].copy_from_slice(data);
        lower.write_line(base, &line)?;
        Ok(())
    }

    fn check_span(&self, addr: u64, len: usize) {
        let line = self.geometry.line_bytes as u64;
        assert_eq!(
            addr / line,
            (addr + len as u64 - 1) / line,
            "access at {addr:#x} len {len} crosses a cache line"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A simple backing store recording traffic.
    #[derive(Default)]
    struct TestBacking {
        mem: HashMap<u64, Vec<u8>>,
        line_bytes: usize,
        reads: usize,
        writes: usize,
    }

    impl TestBacking {
        fn new(line_bytes: usize) -> Self {
            TestBacking { line_bytes, ..Default::default() }
        }

        fn peek(&self, line_addr: u64) -> Vec<u8> {
            self.mem.get(&line_addr).cloned().unwrap_or_else(|| vec![0; self.line_bytes])
        }
    }

    impl Backing for TestBacking {
        fn read_line(&mut self, line_addr: u64, buf: &mut [u8]) -> Result<(), SocError> {
            self.reads += 1;
            buf.copy_from_slice(&self.peek(line_addr));
            Ok(())
        }

        fn write_line(&mut self, line_addr: u64, buf: &[u8]) -> Result<(), SocError> {
            self.writes += 1;
            self.mem.insert(line_addr, buf.to_vec());
            Ok(())
        }
    }

    fn powered_cache() -> Cache {
        // 4 KB, 2-way, 64 B lines -> 32 sets.
        let mut c =
            Cache::new("t.l1d", CacheKind::Data, CacheGeometry::new(4096, 2, 64), 0.8, 1.0, 99);
        c.power_on().unwrap();
        c.invalidate_all().unwrap();
        c.set_enabled(true);
        c
    }

    #[test]
    fn geometry_math() {
        let g = CacheGeometry::new(32 * 1024, 2, 64);
        assert_eq!(g.sets(), 256);
        assert_eq!(g.lines(), 512);
        let (tag, set, off) = g.split(0x12345);
        assert_eq!(off, 0x12345 % 64);
        assert_eq!(set, (0x12345 / 64) % 256);
        assert_eq!(g.line_addr(tag, set), 0x12345 & !63);
    }

    #[test]
    fn read_miss_fills_then_hits() {
        let mut c = powered_cache();
        let mut lower = TestBacking::new(64);
        lower.write_line(0x1000, &[7u8; 64]).unwrap();
        lower.reads = 0;
        lower.writes = 0;

        let mut buf = [0u8; 8];
        c.read(0x1000, &mut buf, SecurityState::NonSecure, &mut lower).unwrap();
        assert_eq!(buf, [7u8; 8]);
        assert_eq!(lower.reads, 1);
        c.read(0x1008, &mut buf, SecurityState::NonSecure, &mut lower).unwrap();
        assert_eq!(lower.reads, 1, "second access must hit");
    }

    #[test]
    fn write_back_on_eviction() {
        let mut c = powered_cache();
        let mut lower = TestBacking::new(64);
        // 32 sets * 64 B = 2 KB stride per way: two addresses 2 KB apart
        // map to the same set.
        c.write(0x0000, &[0xAA; 8], SecurityState::NonSecure, &mut lower).unwrap();
        c.write(0x0800, &[0xBB; 8], SecurityState::NonSecure, &mut lower).unwrap();
        // Third distinct tag in set 0 evicts one of them.
        c.write(0x1000, &[0xCC; 8], SecurityState::NonSecure, &mut lower).unwrap();
        assert!(lower.writes >= 1, "dirty line must be written back");
        // The union of cache + backing store must still hold all values.
        let mut seen = Vec::new();
        for addr in [0x0000u64, 0x0800, 0x1000] {
            let mut buf = [0u8; 8];
            c.read(addr, &mut buf, SecurityState::NonSecure, &mut lower).unwrap();
            seen.push(buf[0]);
        }
        assert_eq!(seen, vec![0xAA, 0xBB, 0xCC]);
    }

    #[test]
    fn disabled_cache_bypasses() {
        let mut c = powered_cache();
        c.set_enabled(false);
        let mut lower = TestBacking::new(64);
        c.write(0x40, &[9u8; 8], SecurityState::NonSecure, &mut lower).unwrap();
        assert_eq!(lower.peek(0x40)[0..8], [9u8; 8]);
        let mut buf = [0u8; 8];
        c.read(0x40, &mut buf, SecurityState::NonSecure, &mut lower).unwrap();
        assert_eq!(buf, [9u8; 8]);
    }

    #[test]
    fn invalidate_keeps_data_ram() {
        let mut c = powered_cache();
        let mut lower = TestBacking::new(64);
        c.write(0x00, &[0x5A; 64], SecurityState::NonSecure, &mut lower).unwrap();
        let before = c.way_image(0).unwrap();
        c.invalidate_all().unwrap();
        let after = c.way_image(0).unwrap();
        assert_eq!(before, after, "invalidation must not touch the data RAM");
        // But the access path misses now.
        let mut buf = [0u8; 8];
        c.read(0x00, &mut buf, SecurityState::NonSecure, &mut lower).unwrap();
        assert_eq!(buf, [0u8; 8], "post-invalidate read refills from lower");
    }

    #[test]
    fn zva_zeroes_line_data() {
        let mut c = powered_cache();
        let mut lower = TestBacking::new(64);
        c.write(0x80, &[0xFF; 64], SecurityState::NonSecure, &mut lower).unwrap();
        c.zero_va(0x80, SecurityState::NonSecure, &mut lower).unwrap();
        let mut buf = [0u8; 8];
        c.read(0x80, &mut buf, SecurityState::NonSecure, &mut lower).unwrap();
        assert_eq!(buf, [0u8; 8]);
    }

    #[test]
    fn locked_way_is_never_evicted() {
        let mut c = powered_cache();
        let mut lower = TestBacking::new(64);
        // Put a secret in set 0; find which way it landed in.
        c.write(0x0000, &[0x77; 8], SecurityState::Secure, &mut lower).unwrap();
        let way = (0..2).find(|&w| c.raw_way_bytes(w, 0, 1).unwrap()[0] == 0x77).unwrap();
        c.set_way_locked(way, true);
        // Hammer set 0 with conflicting lines.
        for i in 1..20u64 {
            c.write(i * 0x800, &[i as u8; 8], SecurityState::NonSecure, &mut lower).unwrap();
        }
        assert_eq!(c.raw_way_bytes(way, 0, 1).unwrap()[0], 0x77, "locked way clobbered");
    }

    #[test]
    fn all_ways_locked_blocks_noise_eviction() {
        let mut c = powered_cache();
        let mut lower = TestBacking::new(64);
        c.set_way_locked(0, true);
        c.set_way_locked(1, true);
        assert_eq!(c.evict_one(0, 0x0000, SecurityState::NonSecure, &mut lower).unwrap(), None);
    }

    #[test]
    fn power_cycle_without_hold_scrambles_cache() {
        let mut c = powered_cache();
        let mut lower = TestBacking::new(64);
        c.write(0x00, &[0xAA; 64], SecurityState::NonSecure, &mut lower).unwrap();
        c.power_off(OffEvent::unpowered()).unwrap();
        c.elapse(std::time::Duration::from_millis(500), Temperature::ROOM);
        let report = c.power_on().unwrap();
        assert_eq!(report.retained, 0);
        // The stored pattern is gone: no way still holds the 0xAA line.
        for way in 0..2 {
            let bytes = c.raw_way_bytes(way, 0, 64).unwrap();
            let aa = bytes.iter().filter(|&&b| b == 0xAA).count();
            assert!(aa < 16, "way {way} still holds {aa} pattern bytes");
        }
        assert!(!c.is_enabled(), "enable bit must clear on power-up");
    }

    #[test]
    fn power_cycle_with_hold_retains_cache() {
        let mut c = powered_cache();
        let mut lower = TestBacking::new(64);
        c.write(0x00, &[0xAA; 64], SecurityState::NonSecure, &mut lower).unwrap();
        let before = c.way_image(0).unwrap();
        c.power_off(OffEvent::held(0.8)).unwrap();
        c.elapse(std::time::Duration::from_secs(60), Temperature::ROOM);
        let report = c.power_on().unwrap();
        assert_eq!(report.lost, 0);
        assert_eq!(c.way_image(0).unwrap(), before);
    }

    #[test]
    fn raw_tag_reads_reflect_fills() {
        let mut c = powered_cache();
        let mut lower = TestBacking::new(64);
        c.write(0x1040, &[1u8; 8], SecurityState::Secure, &mut lower).unwrap();
        let (tag, set, _) = c.geometry().split(0x1040);
        let hit_way = (0..2)
            .find(|&w| {
                let e = TagEntry::unpack(c.raw_tag_word(w, set).unwrap());
                e.valid && e.tag == tag
            })
            .expect("line must be cached");
        assert!(c.line_is_secure(hit_way, set).unwrap());
    }

    #[test]
    fn hardware_reset_clears_everything() {
        let mut c = powered_cache();
        let mut lower = TestBacking::new(64);
        c.write(0x00, &[0xEE; 64], SecurityState::NonSecure, &mut lower).unwrap();
        c.hardware_reset().unwrap();
        assert_eq!(c.way_image(0).unwrap().count_ones(), 0);
        assert_eq!(c.way_image(1).unwrap().count_ones(), 0);
    }

    #[test]
    fn tag_entry_pack_roundtrip() {
        for e in [
            TagEntry { valid: true, dirty: false, ns: true, tag: 0x1234 },
            TagEntry { valid: false, dirty: true, ns: false, tag: 0x1FFF_FFFF_FFFF_FFFF },
            TagEntry::INVALID,
        ] {
            assert_eq!(TagEntry::unpack(e.pack()), e);
        }
    }

    #[test]
    #[should_panic(expected = "crosses a cache line")]
    fn line_crossing_access_panics() {
        let mut c = powered_cache();
        let mut lower = TestBacking::new(64);
        let mut buf = [0u8; 8];
        c.read(60, &mut buf, SecurityState::NonSecure, &mut lower).unwrap();
    }

    #[test]
    fn raw_reads_validate_range() {
        let c = powered_cache();
        assert!(matches!(c.raw_way_bytes(2, 0, 1), Err(SocError::RamIndexOutOfRange { .. })));
        assert!(matches!(c.raw_way_bytes(0, 2048, 1), Err(SocError::RamIndexOutOfRange { .. })));
        assert!(matches!(c.raw_tag_word(0, 32), Err(SocError::RamIndexOutOfRange { .. })));
    }

    #[test]
    fn out_of_range_errors_report_coordinates_verbatim() {
        let c = powered_cache();
        // Coordinates past u8/u32 must survive into the error untruncated.
        let big_way = (u8::MAX as usize) + 7;
        let big_set = (u32::MAX as usize) + 42;
        assert_eq!(
            c.raw_way_bytes(big_way, big_set, 1),
            Err(SocError::RamIndexOutOfRange { way: big_way as u64, index: big_set as u64 })
        );
        assert_eq!(
            c.raw_tag_word(big_way, big_set),
            Err(SocError::RamIndexOutOfRange { way: big_way as u64, index: big_set as u64 })
        );
        // `offset + len` overflowing usize must error, not wrap past the
        // bounds check and panic deep in the SRAM layer.
        assert_eq!(
            c.raw_way_bytes(0, usize::MAX, 2),
            Err(SocError::RamIndexOutOfRange { way: 0, index: usize::MAX as u64 })
        );
    }
}
