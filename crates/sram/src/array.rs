//! The SRAM array: bit storage plus the power-state machine.

use crate::bits::PackedBits;
use crate::cell::{CellDistribution, CellParams};
use crate::engine::{self, PowerOn};
use crate::error::SramError;
use crate::physics::{LeakageModel, Temperature};
use std::sync::Arc;
use std::time::Duration;
use voltboot_telemetry::Recorder;

/// Static configuration of an SRAM array.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayConfig {
    /// Human-readable name, e.g. `"core0.l1d.data"`.
    pub name: String,
    /// Number of bits in the array.
    pub bits: usize,
    /// Nominal supply voltage of the array's power domain, in volts.
    pub nominal_voltage: f64,
    /// Process-variation distribution of the cells.
    pub distribution: CellDistribution,
    /// Leakage physics shared by all cells.
    pub leakage: LeakageModel,
    /// Extra decay acceleration applied while unpowered when power-hungry
    /// logic (CPU cores) shares the domain and drains residual charge
    /// during an abrupt disconnect (paper §3: "an abrupt power disconnect
    /// draws energy from all parts of the SoC to the power-hungry
    /// processing elements").
    pub shared_domain_drain: f64,
}

impl ArrayConfig {
    /// Convenience constructor for a byte-sized array at a 0.8 V rail.
    pub fn with_bytes(name: impl Into<String>, bytes: usize) -> Self {
        ArrayConfig {
            name: name.into(),
            bits: bytes * 8,
            nominal_voltage: 0.8,
            distribution: CellDistribution::calibrated(),
            leakage: LeakageModel::calibrated(),
            shared_domain_drain: 1.0,
        }
    }

    /// Convenience constructor for a bit-sized array at a 0.8 V rail.
    pub fn with_bits(name: impl Into<String>, bits: usize) -> Self {
        ArrayConfig {
            name: name.into(),
            bits,
            nominal_voltage: 0.8,
            distribution: CellDistribution::calibrated(),
            leakage: LeakageModel::calibrated(),
            shared_domain_drain: 1.0,
        }
    }

    /// Sets the nominal rail voltage (builder style).
    pub fn nominal_voltage(mut self, volts: f64) -> Self {
        self.nominal_voltage = volts;
        self
    }

    /// Sets the shared-domain drain accelerator (builder style).
    pub fn shared_domain_drain(mut self, factor: f64) -> Self {
        self.shared_domain_drain = factor;
        self
    }
}

/// What happens to the array's rail when the system's main power is cut.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OffEvent {
    /// The rail is fully disconnected: cells decay with temperature.
    Unpowered,
    /// An external probe holds the rail.
    Held {
        /// Steady voltage the probe maintains, in volts.
        voltage: f64,
        /// Minimum instantaneous voltage during the disconnect transient
        /// (rail droop from the core current surge). Cells whose DRV lies
        /// above this lose their state even though the steady level is
        /// fine. Equal to `voltage` when the probe absorbs the surge.
        transient_min_voltage: f64,
    },
}

impl OffEvent {
    /// A plain, unheld power-off.
    pub fn unpowered() -> Self {
        OffEvent::Unpowered
    }

    /// A hold at `voltage` with no droop (an ideal bench supply).
    pub fn held(voltage: f64) -> Self {
        OffEvent::Held { voltage, transient_min_voltage: voltage }
    }

    /// A hold at `voltage` that sagged to `transient_min_voltage` during
    /// the disconnect surge.
    pub fn held_with_droop(voltage: f64, transient_min_voltage: f64) -> Self {
        OffEvent::Held { voltage, transient_min_voltage }
    }
}

/// The array's power state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PowerState {
    /// Normal operation at the nominal rail voltage.
    Powered,
    /// Main power is off; the fields describe the off interval so far.
    Off {
        /// How the rail is being treated while off.
        event: OffEvent,
        /// Accumulated dimensionless decay stress (only grows when truly
        /// unpowered; a held rail accumulates none).
        stress: f64,
    },
}

/// Which implementation resolves a power cycle.
///
/// Both produce byte-identical images and identical reports for every
/// `(seed, index, event)` — the batched path is a pure optimization (see
/// [`crate::engine`]). The scalar path survives as the executable
/// specification and as the fallback for queries the batched kernels
/// cannot represent (non-finite voltages, degenerate distributions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResolutionMode {
    /// Per-bit reference path: derive every cell's parameters and decide
    /// retention one bit at a time.
    Scalar,
    /// Bit-sliced path at full lane width: resolve four words (256
    /// cells) per kernel step against the memoized die planes, sharded
    /// across threads for large arrays. Eligible for the rep-delta
    /// sparse path ([`crate::delta`]): once a `(die, condition)` pair
    /// that loses some cells and keeps the rest has settled a baseline,
    /// later reps rewrite only hot words — byte-identical output, a
    /// fraction of the cost.
    Batched,
    /// The bit-sliced path restricted to single-word (64-cell) kernels —
    /// the lane-width oracle [`Batched`](ResolutionMode::Batched) is
    /// tested against, exercising the same planes and fallbacks through
    /// the narrow code path.
    BatchedWord,
    /// [`Batched`](ResolutionMode::Batched) with the rep-delta path
    /// disabled: a power-on decided cell by cell always takes the
    /// full-width dense scan. The oracle the delta path is tested
    /// against, and the mode benches use to price the dense rep a sweep
    /// would otherwise pay. A power-on that keeps or loses every cell
    /// scans nothing in either mode.
    BatchedFull,
}

/// Summary of what a power cycle did to the array's contents.
#[derive(Debug, Clone, PartialEq)]
pub struct RetentionReport {
    /// Array name, shared with the array that produced the report (so a
    /// million-cycle campaign clones a pointer per cycle, not a string).
    pub name: Arc<str>,
    /// Total bits.
    pub bits: usize,
    /// Bits that kept their pre-cycle value.
    pub retained: usize,
    /// Bits that resolved to a power-up sample instead.
    pub lost: usize,
}

impl RetentionReport {
    /// Fraction of bits retained, in `[0, 1]`.
    pub fn retention_fraction(&self) -> f64 {
        if self.bits == 0 {
            1.0
        } else {
            self.retained as f64 / self.bits as f64
        }
    }
}

/// A rectangular array of 6T SRAM cells with a power-state machine.
///
/// See the [crate-level docs](crate) for the physics and an end-to-end
/// example. All state transitions are explicit:
///
/// * [`SramArray::power_on`] — powers the array; any cells that lost their
///   charge while off resolve to their power-up values.
/// * [`SramArray::power_off`] — cuts main power, either leaving the rail
///   floating ([`OffEvent::Unpowered`]) or held by an external probe
///   ([`OffEvent::Held`]).
/// * [`SramArray::elapse`] — advances time while off, accumulating decay
///   stress at the given ambient temperature.
#[derive(Debug, Clone)]
pub struct SramArray {
    config: ArrayConfig,
    seed: u64,
    state: PowerState,
    /// Logic state of every cell. Meaningful while powered; while off it
    /// is the *pre-cycle* data, resolved against decay at power-on.
    data: PackedBits,
    /// Monotone counter of power-on events (keys power-up sampling).
    powerup_events: u64,
    /// Whether the array has ever been powered (first power-on samples the
    /// pure power-up state with no retained data to fall back to).
    ever_powered: bool,
    /// Owed power-up tiles: one bit per [`engine::TILE_CELLS`]-cell tile
    /// whose power-up sample of event `owed_event` a batched power-on
    /// that lost every cell recorded instead of writing. Such a tile's
    /// `data` words are stale. Reads and [`SramArray::snapshot`] sample
    /// it on the fly; a write settles it if it covers the tile in part,
    /// and clears its bit unsampled if it covers the tile whole;
    /// [`SramArray::restore`] clears every bit. The power-on rules, the
    /// same on both paths ([`engine::power_on_outcome`]): one that keeps
    /// every cell leaves the tiles owed; one that loses every cell
    /// replaces them with its own sample, owed when batched; every other
    /// power-on settles them first, sharded across threads like a
    /// resolve.
    owed: PackedBits,
    /// The power-on event whose sample the `owed` tiles stand for.
    owed_event: u64,
    /// Memoized die planes for the batched resolution engine. Derived
    /// data only, built on first need; a clone shares it.
    planes: Option<Arc<engine::DiePlanes>>,
    /// Shared copy of `config.name` handed to every retention report.
    /// Derived data (the config's name is immutable after construction),
    /// built on the first report; a clone shares it.
    name_shared: Option<Arc<str>>,
}

impl SramArray {
    /// Creates a new, never-powered array. `seed` determines the silicon:
    /// equal seeds model the same physical die.
    pub fn new(config: ArrayConfig, seed: u64) -> Self {
        let bits = config.bits;
        SramArray {
            config,
            seed,
            state: PowerState::Off { event: OffEvent::Unpowered, stress: f64::INFINITY },
            data: PackedBits::zeros(bits),
            powerup_events: 0,
            ever_powered: false,
            owed: PackedBits::zeros(bits.div_ceil(engine::TILE_CELLS)),
            owed_event: 0,
            planes: None,
            name_shared: None,
        }
    }

    /// The array's configuration.
    pub fn config(&self) -> &ArrayConfig {
        &self.config
    }

    /// The array's name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// Number of bits.
    pub fn len_bits(&self) -> usize {
        self.config.bits
    }

    /// Number of whole bytes.
    pub fn len_bytes(&self) -> usize {
        self.config.bits / 8
    }

    /// Current power state.
    pub fn power_state(&self) -> PowerState {
        self.state
    }

    /// Whether the array is currently powered.
    pub fn is_powered(&self) -> bool {
        matches!(self.state, PowerState::Powered)
    }

    /// Derives the parameters of cell `index`.
    pub fn cell_params(&self, index: usize) -> CellParams {
        CellParams::derive(self.seed, index, &self.config.distribution)
    }

    /// Returns the die planes for this array, deriving (or fetching from
    /// the global per-die cache) on first use. The seed, size, and
    /// distribution are immutable after construction, so a memoized
    /// plane set never goes stale. Records where the planes came from
    /// (only counters — commutative, so parallel array power-ons stay
    /// deterministic).
    fn planes(&mut self, rec: &Recorder) -> Arc<engine::DiePlanes> {
        if let Some(p) = &self.planes {
            rec.incr("sram.planes.memoized", 1);
            return p.clone();
        }
        let (p, cached) =
            engine::planes_for(self.seed, self.config.bits, &self.config.distribution);
        rec.incr(if cached { "sram.planes.cache_hits" } else { "sram.planes.built" }, 1);
        self.planes = Some(p.clone());
        p
    }

    /// The memoized die planes, for sampling owed tiles. Only a batched
    /// power-on owes tiles, and it memoizes the planes first.
    fn owed_planes(&self) -> Arc<engine::DiePlanes> {
        self.planes.clone().expect("owed tiles are only set after the planes are memoized")
    }

    /// Writes every owed tile's power-up sample into `data` and clears
    /// the owed bits.
    fn settle_owed(&mut self) {
        if self.owed.count_ones() == 0 {
            return;
        }
        let planes = self.owed_planes();
        engine::settle(&mut self.data, &planes, &self.owed, self.owed_event);
        self.owed.words_mut().fill(0);
    }

    /// Readies cells `first..end` for a write: an owed tile the write
    /// covers whole is no longer owed, unsampled; an owed tile it covers
    /// in part is settled first, so its other cells keep their sample.
    fn settle_for_write(&mut self, first: usize, end: usize) {
        if first >= end || self.owed.count_ones() == 0 {
            return;
        }
        let tile = engine::TILE_CELLS;
        for t in first / tile..end.div_ceil(tile) {
            if !self.owed.get(t) {
                continue;
            }
            let covered = first <= t * tile && ((t + 1) * tile).min(self.config.bits) <= end;
            if !covered {
                let w0 = t * engine::TILE_WORDS;
                let w1 = (w0 + engine::TILE_WORDS).min(self.data.word_len());
                let planes = self.owed_planes();
                let words = &mut self.data.words_mut()[w0..w1];
                engine::sample_owed(words, w0, &planes, &self.owed, self.owed_event);
            }
            self.owed.set(t, false);
        }
    }

    /// The words holding cells `first..end` (from word `first / 64`)
    /// with owed tiles sampled on the fly; `None` when no tile in the
    /// range is owed, so the stored words are current.
    fn sampled_words(&self, first: usize, end: usize) -> Option<Vec<u64>> {
        let tile = engine::TILE_CELLS;
        if !(first / tile..end.div_ceil(tile)).any(|t| self.owed.get(t)) {
            return None;
        }
        let words = first / 64..end.div_ceil(64);
        let mut out = self.data.words()[words.clone()].to_vec();
        engine::sample_owed(
            &mut out,
            words.start,
            &self.owed_planes(),
            &self.owed,
            self.owed_event,
        );
        Some(out)
    }

    /// The array's name as a shared string, allocated once per array
    /// (the config's name is immutable after construction).
    fn shared_name(&mut self) -> Arc<str> {
        self.name_shared.get_or_insert_with(|| Arc::from(self.config.name.as_str())).clone()
    }

    /// Powers the array on, resolving each cell against the accumulated
    /// off-interval physics, and returns a report of what survived.
    ///
    /// Uses the word-batched resolution engine ([`ResolutionMode::Batched`]);
    /// see [`SramArray::power_on_with`] to select the scalar reference path.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::InvalidPowerTransition`] if already powered.
    pub fn power_on(&mut self) -> Result<RetentionReport, SramError> {
        self.power_on_with(ResolutionMode::Batched)
    }

    /// [`SramArray::power_on`] with an explicit resolution path. Both
    /// modes are bit-exact with each other for every `(seed, index,
    /// event)`; the scalar mode exists as the reference implementation
    /// and for benchmarking the batched engine against it.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::InvalidPowerTransition`] if already powered.
    pub fn power_on_with(&mut self, mode: ResolutionMode) -> Result<RetentionReport, SramError> {
        self.power_on_traced(mode, &Recorder::disabled())
    }

    /// [`SramArray::power_on_with`] that additionally records resolution
    /// counters (`sram.power_cycles`, `sram.cells_retained`,
    /// `sram.cells_lost`, `sram.planes.*`) and distribution histograms
    /// (`sram.lost_per_powerup`, `sram.decay_stress_milli`) into `rec`.
    ///
    /// Only counters and histograms are recorded — never events, spans,
    /// or gauges — because arrays power on from parallel worker threads
    /// and counter increments / histogram bucket additions are the
    /// commutative operations that keep telemetry deterministic
    /// regardless of scheduling.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::InvalidPowerTransition`] if already powered.
    pub fn power_on_traced(
        &mut self,
        mode: ResolutionMode,
        rec: &Recorder,
    ) -> Result<RetentionReport, SramError> {
        let PowerState::Off { event, stress } = self.state else {
            return Err(SramError::InvalidPowerTransition { attempted: "power on while powered" });
        };
        let event_id = self.powerup_events;
        self.powerup_events += 1;

        let (bits, dist) = (self.config.bits, self.config.distribution);
        let outcome = engine::power_on_outcome(&dist, event, stress, !self.ever_powered);
        let batch = mode != ResolutionMode::Scalar && engine::can_batch(&dist, event, stress);
        // Fetching the planes records `sram.planes.*` counters, which are
        // report bytes, so which power-ons fetch them is fixed: every
        // batched one but a clean hold.
        let planes = match (outcome, event) {
            (PowerOn::KeepsAll, OffEvent::Held { .. }) => None,
            _ => batch.then(|| self.planes(rec)),
        };
        if outcome == PowerOn::PerCell {
            // Retention depends on what the tiles owe, so settle them
            // first.
            self.settle_owed();
        }
        let retained = match (outcome, planes) {
            // No cell changes, so owed tiles stay owed.
            (PowerOn::KeepsAll, _) => bits,
            // The event's sample replaces the contents, owed tiles
            // included. Batched, it is owed in its turn: each tile is
            // sampled when something reads it or writes it in part, and
            // never if a write covers it whole first.
            (PowerOn::LosesAll, Some(_)) => {
                self.owed = PackedBits::ones(self.owed.len());
                self.owed_event = event_id;
                0
            }
            (PowerOn::LosesAll, None) => {
                self.owed.words_mut().fill(0);
                for i in 0..bits {
                    let v = CellParams::sample_powerup_only(self.seed, i, &dist, event_id);
                    self.data.set(i, v);
                }
                0
            }
            // The rep-delta sparse path serves `Batched` resolves whose
            // `(die, condition)` has a settled baseline; everything else
            // (first sights, evicted dies, `BatchedFull`, the kill
            // switch) falls through to the dense engine. Either way the
            // output is byte-identical, so no resolution counter records
            // which path ran — that choice is scheduling-dependent.
            (PowerOn::PerCell, Some(planes)) => {
                let via_delta = if mode == ResolutionMode::Batched {
                    crate::delta::resolve_delta(&mut self.data, &planes, event, stress, event_id)
                } else {
                    None
                };
                let wide = matches!(mode, ResolutionMode::Batched | ResolutionMode::BatchedFull);
                via_delta.unwrap_or_else(|| {
                    engine::resolve(&mut self.data, &planes, event, stress, event_id, wide)
                })
            }
            (PowerOn::PerCell, None) => {
                let mut retained = 0;
                for i in 0..bits {
                    let params = self.cell_params(i);
                    if Self::cell_retains(&params, event, stress) {
                        retained += 1;
                    } else {
                        self.data.set(i, params.sample_powerup(self.seed, i, event_id));
                    }
                }
                retained
            }
        };
        let lost = bits - retained;
        self.ever_powered = true;
        self.state = PowerState::Powered;
        rec.incr("sram.power_cycles", 1);
        rec.incr("sram.cells_retained", retained as u64);
        rec.incr("sram.cells_lost", lost as u64);
        // Distribution views of the same physics (histogram merges are
        // commutative, so these stay worker-thread safe like counters):
        // how many cells each power-up lost, and how much decay stress
        // the off interval accumulated (in milli-units — the budget is
        // lognormal around 1, so milli resolution keeps the interesting
        // sub-1.0 range out of the histogram's singleton buckets).
        rec.record("sram.lost_per_powerup", lost as u64);
        rec.record("sram.decay_stress_milli", (stress * 1e3) as u64);
        Ok(RetentionReport { name: self.shared_name(), bits: self.config.bits, retained, lost })
    }

    fn cell_retains(params: &CellParams, event: OffEvent, stress: f64) -> bool {
        match event {
            OffEvent::Held { voltage, transient_min_voltage } => {
                // A held rail retains iff both the steady level and the
                // transient minimum stay at or above the cell's DRV, and
                // any stress accumulated before/after the hold stays
                // within budget.
                params.retains_at(voltage)
                    && params.retains_at(transient_min_voltage)
                    && stress <= params.decay_budget
            }
            OffEvent::Unpowered => stress <= params.decay_budget,
        }
    }

    /// Cuts main power.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::InvalidPowerTransition`] if already off.
    pub fn power_off(&mut self, event: OffEvent) -> Result<(), SramError> {
        if !self.is_powered() {
            return Err(SramError::InvalidPowerTransition { attempted: "power off while off" });
        }
        self.state = PowerState::Off { event, stress: 0.0 };
        Ok(())
    }

    /// Advances time while the array is off.
    ///
    /// A held rail accumulates no decay stress (the probe keeps the cells
    /// above their retention voltage indefinitely — the paper observes the
    /// "retention state" persisting at 8 mA "indefinitely"). A floating
    /// rail accumulates Arrhenius-weighted stress, scaled by the
    /// shared-domain drain factor.
    ///
    /// Does nothing if the array is powered (time passes harmlessly).
    pub fn elapse(&mut self, dt: Duration, temperature: Temperature) {
        if let PowerState::Off { event, ref mut stress } = self.state {
            if matches!(event, OffEvent::Unpowered) {
                *stress +=
                    self.config.leakage.stress(dt, temperature) * self.config.shared_domain_drain;
            }
        }
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// [`SramError::NotPowered`] if the array is off;
    /// [`SramError::OutOfBounds`] if `index` is past the end.
    pub fn read_bit(&self, index: usize) -> Result<bool, SramError> {
        self.check_access(index, 1)?;
        Ok(match self.sampled_words(index, index + 1) {
            Some(words) => (words[0] >> (index % 64)) & 1 == 1,
            None => self.data.get(index),
        })
    }

    /// Writes one bit.
    ///
    /// # Errors
    ///
    /// [`SramError::NotPowered`] if the array is off;
    /// [`SramError::OutOfBounds`] if `index` is past the end.
    pub fn write_bit(&mut self, index: usize, value: bool) -> Result<(), SramError> {
        self.check_access(index, 1)?;
        self.settle_for_write(index, index + 1);
        self.data.set(index, value);
        Ok(())
    }

    /// Reads `len` bytes starting at byte `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the array is unpowered or the range is out of bounds; use
    /// [`SramArray::try_read_bytes`] for a fallible version.
    pub fn read_bytes(&self, offset: usize, len: usize) -> Vec<u8> {
        self.try_read_bytes(offset, len).expect("sram read")
    }

    /// Fallible version of [`SramArray::read_bytes`].
    ///
    /// # Errors
    ///
    /// [`SramError::NotPowered`] if the array is off;
    /// [`SramError::OutOfBounds`] if the range is past the end.
    pub fn try_read_bytes(&self, offset: usize, len: usize) -> Result<Vec<u8>, SramError> {
        let first_bit = self.check_byte_access(offset, len)?;
        let end = first_bit + len * 8;
        Ok(match self.sampled_words(first_bit, end) {
            // Eight little-endian bytes per word: byte `k` of the array
            // is byte `k % 8` of word `k / 8`.
            Some(words) => words
                .iter()
                .flat_map(|w| w.to_le_bytes())
                .skip(first_bit / 8 % 8)
                .take(len)
                .collect(),
            None => self.data.bytes_at(first_bit, len),
        })
    }

    /// Writes `bytes` starting at byte `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the array is unpowered or the range is out of bounds; use
    /// [`SramArray::try_write_bytes`] for a fallible version.
    pub fn write_bytes(&mut self, offset: usize, bytes: &[u8]) {
        self.try_write_bytes(offset, bytes).expect("sram write");
    }

    /// Fallible version of [`SramArray::write_bytes`].
    ///
    /// # Errors
    ///
    /// [`SramError::NotPowered`] if the array is off;
    /// [`SramError::OutOfBounds`] if the range is past the end.
    pub fn try_write_bytes(&mut self, offset: usize, bytes: &[u8]) -> Result<(), SramError> {
        let first_bit = self.check_byte_access(offset, bytes.len())?;
        self.settle_for_write(first_bit, first_bit + bytes.len() * 8);
        self.data.copy_bytes_in(first_bit, bytes);
        Ok(())
    }

    /// Snapshot of the full contents as a bit vector.
    ///
    /// # Errors
    ///
    /// [`SramError::NotPowered`] if the array is off.
    pub fn snapshot(&self) -> Result<PackedBits, SramError> {
        if !self.is_powered() {
            return Err(SramError::NotPowered);
        }
        let mut image = self.data.clone();
        if self.owed.count_ones() > 0 {
            engine::settle(&mut image, &self.owed_planes(), &self.owed, self.owed_event);
        }
        Ok(image)
    }

    /// Overwrites the full contents from a bit vector.
    ///
    /// # Errors
    ///
    /// [`SramError::NotPowered`] if the array is off.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` differs from the array size.
    pub fn restore(&mut self, bits: &PackedBits) -> Result<(), SramError> {
        if !self.is_powered() {
            return Err(SramError::NotPowered);
        }
        assert_eq!(bits.len(), self.config.bits, "restore size mismatch");
        self.data = bits.clone();
        self.owed.words_mut().fill(0);
        Ok(())
    }

    /// Fills every whole byte of the array with a repeated byte. A
    /// trailing partial byte (when the bit count is not a multiple of 8)
    /// keeps its bits, like a byte write of the whole bytes at offset 0.
    ///
    /// # Errors
    ///
    /// [`SramError::NotPowered`] if the array is off.
    pub fn fill(&mut self, byte: u8) -> Result<(), SramError> {
        if !self.is_powered() {
            return Err(SramError::NotPowered);
        }
        self.settle_for_write(0, self.config.bits / 8 * 8);
        self.data.fill_byte(byte);
        Ok(())
    }

    /// Validates a byte-range access with overflow-safe arithmetic and
    /// returns the first bit index of the range.
    fn check_byte_access(&self, offset: usize, len: usize) -> Result<usize, SramError> {
        let oob = || SramError::OutOfBounds { index: offset, len: self.config.bits };
        let first_bit = offset.checked_mul(8).ok_or_else(oob)?;
        let nbits = len.checked_mul(8).ok_or_else(oob)?;
        self.check_access(first_bit, nbits)?;
        Ok(first_bit)
    }

    fn check_access(&self, first_bit: usize, nbits: usize) -> Result<(), SramError> {
        if !self.is_powered() {
            return Err(SramError::NotPowered);
        }
        let end = first_bit
            .checked_add(nbits)
            .ok_or(SramError::OutOfBounds { index: first_bit, len: self.config.bits })?;
        if end > self.config.bits {
            return Err(SramError::OutOfBounds { index: end - 1, len: self.config.bits });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array(bytes: usize) -> SramArray {
        SramArray::new(ArrayConfig::with_bytes("t", bytes), 0xdead_beef)
    }

    #[test]
    fn first_power_on_is_all_lost() {
        let mut s = array(128);
        let report = s.power_on().unwrap();
        assert_eq!(report.retained, 0);
        assert_eq!(report.lost, 1024);
    }

    #[test]
    fn powerup_state_is_roughly_half_ones() {
        let mut s = array(4096);
        s.power_on().unwrap();
        let frac = s.snapshot().unwrap().ones_fraction();
        assert!((frac - 0.5).abs() < 0.03, "ones fraction {frac}");
    }

    #[test]
    fn held_rail_retains_everything() {
        let mut s = array(256);
        s.power_on().unwrap();
        s.write_bytes(0, &[0xAA; 256]);
        s.power_off(OffEvent::held(0.8)).unwrap();
        s.elapse(Duration::from_secs(86_400), Temperature::ROOM);
        let report = s.power_on().unwrap();
        assert_eq!(report.retained, 2048);
        assert_eq!(s.read_bytes(0, 256), vec![0xAA; 256]);
    }

    #[test]
    fn unpowered_room_temperature_loses_everything() {
        let mut s = array(1024);
        s.power_on().unwrap();
        s.write_bytes(0, &[0x55; 1024]);
        s.power_off(OffEvent::unpowered()).unwrap();
        s.elapse(Duration::from_millis(500), Temperature::ROOM);
        let report = s.power_on().unwrap();
        assert_eq!(report.retained, 0, "retained {}", report.retained);
        // ~50% error against the stored pattern.
        let image = s.snapshot().unwrap();
        let stored = PackedBits::from_bytes(&[0x55; 1024]);
        let err = image.fractional_hamming(&stored);
        assert!((err - 0.5).abs() < 0.05, "error {err}");
    }

    #[test]
    fn deep_cold_retains_about_eighty_percent_at_20ms() {
        let mut s = array(4096);
        s.power_on().unwrap();
        s.fill(0xFF).unwrap();
        s.power_off(OffEvent::unpowered()).unwrap();
        s.elapse(Duration::from_millis(20), Temperature::from_celsius(-110.0));
        let report = s.power_on().unwrap();
        let frac = report.retention_fraction();
        assert!((frac - 0.79).abs() < 0.05, "retention at -110C/20ms: {frac}");
    }

    #[test]
    fn minus_forty_is_total_loss_after_500ms() {
        let mut s = array(4096);
        s.power_on().unwrap();
        s.fill(0xFF).unwrap();
        s.power_off(OffEvent::unpowered()).unwrap();
        s.elapse(Duration::from_millis(500), Temperature::from_celsius(-40.0));
        let report = s.power_on().unwrap();
        assert!(report.retention_fraction() < 0.01, "{}", report.retention_fraction());
    }

    #[test]
    fn droop_below_drv_loses_some_cells() {
        let mut s = array(4096);
        s.power_on().unwrap();
        s.fill(0xA5).unwrap();
        // Held at 0.8 V but sagging to 0.30 V during the surge: roughly
        // half the cells (those with DRV above 0.30 V) lose state.
        s.power_off(OffEvent::held_with_droop(0.8, 0.30)).unwrap();
        s.elapse(Duration::from_millis(10), Temperature::ROOM);
        let report = s.power_on().unwrap();
        let frac = report.retention_fraction();
        assert!(frac > 0.3 && frac < 0.7, "retention with 0.30 V droop: {frac}");
    }

    #[test]
    fn stress_accumulates_across_multiple_elapse_calls() {
        let mut a = array(2048);
        a.power_on().unwrap();
        a.fill(0x0F).unwrap();
        a.power_off(OffEvent::unpowered()).unwrap();
        for _ in 0..10 {
            a.elapse(Duration::from_millis(2), Temperature::from_celsius(-110.0));
        }
        let frac_split = a.power_on().unwrap().retention_fraction();

        let mut b = array(2048);
        b.power_on().unwrap();
        b.fill(0x0F).unwrap();
        b.power_off(OffEvent::unpowered()).unwrap();
        b.elapse(Duration::from_millis(20), Temperature::from_celsius(-110.0));
        let frac_once = b.power_on().unwrap().retention_fraction();
        assert!((frac_split - frac_once).abs() < 1e-12);
    }

    #[test]
    fn shared_domain_drain_accelerates_loss() {
        let mk = |drain: f64| {
            let cfg = ArrayConfig::with_bytes("t", 2048).shared_domain_drain(drain);
            let mut s = SramArray::new(cfg, 7);
            s.power_on().unwrap();
            s.fill(0xFF).unwrap();
            s.power_off(OffEvent::unpowered()).unwrap();
            s.elapse(Duration::from_millis(10), Temperature::from_celsius(-110.0));
            s.power_on().unwrap().retention_fraction()
        };
        assert!(mk(1.0) > mk(10.0));
    }

    #[test]
    fn access_while_off_is_an_error() {
        let mut s = array(16);
        s.power_on().unwrap();
        s.power_off(OffEvent::unpowered()).unwrap();
        assert_eq!(s.try_read_bytes(0, 4), Err(SramError::NotPowered));
        assert_eq!(s.try_write_bytes(0, &[1]), Err(SramError::NotPowered));
        assert_eq!(s.read_bit(0), Err(SramError::NotPowered));
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let mut s = array(16);
        s.power_on().unwrap();
        assert!(matches!(s.try_read_bytes(15, 2), Err(SramError::OutOfBounds { .. })));
        assert!(matches!(s.write_bit(16 * 8, true), Err(SramError::OutOfBounds { .. })));
    }

    #[test]
    fn double_power_transitions_are_errors() {
        let mut s = array(16);
        s.power_on().unwrap();
        assert!(matches!(s.power_on(), Err(SramError::InvalidPowerTransition { .. })));
        s.power_off(OffEvent::unpowered()).unwrap();
        assert!(matches!(
            s.power_off(OffEvent::unpowered()),
            Err(SramError::InvalidPowerTransition { .. })
        ));
    }

    #[test]
    fn same_seed_same_powerup_state() {
        let mut a = array(512);
        let mut b = array(512);
        a.power_on().unwrap();
        b.power_on().unwrap();
        assert_eq!(a.snapshot().unwrap(), b.snapshot().unwrap());
    }

    #[test]
    fn successive_powerups_differ_by_about_ten_percent() {
        let mut s = array(8192);
        s.power_on().unwrap();
        let first = s.snapshot().unwrap();
        s.power_off(OffEvent::unpowered()).unwrap();
        s.elapse(Duration::from_secs(10), Temperature::ROOM);
        s.power_on().unwrap();
        let second = s.snapshot().unwrap();
        let hd = first.fractional_hamming(&second);
        assert!((hd - 0.10).abs() < 0.02, "power-up noise {hd}");
    }

    #[test]
    fn huge_offsets_error_instead_of_overflowing() {
        let mut s = array(16);
        s.power_on().unwrap();
        let huge = usize::MAX / 4;
        assert!(matches!(s.try_read_bytes(huge, 1), Err(SramError::OutOfBounds { .. })));
        assert!(matches!(s.try_read_bytes(0, huge), Err(SramError::OutOfBounds { .. })));
        assert!(matches!(s.try_write_bytes(huge, &[0]), Err(SramError::OutOfBounds { .. })));
    }

    #[test]
    fn scalar_and_batched_paths_are_bit_exact() {
        let cases: [(OffEvent, Duration, f64); 4] = [
            (OffEvent::unpowered(), Duration::from_millis(20), -110.0),
            (OffEvent::held_with_droop(0.8, 0.30), Duration::from_millis(5), 25.0),
            (OffEvent::held(0.31), Duration::from_millis(1), 25.0),
            (OffEvent::unpowered(), Duration::from_millis(500), -40.0),
        ];
        for (event, dt, celsius) in cases {
            let mut a = array(4096);
            a.power_on_with(ResolutionMode::Scalar).unwrap();
            let mut b = a.clone();
            for s in [&mut a, &mut b] {
                s.fill(0xC3).unwrap();
                s.power_off(event).unwrap();
                s.elapse(dt, Temperature::from_celsius(celsius));
            }
            let ra = a.power_on_with(ResolutionMode::Scalar).unwrap();
            let rb = b.power_on_with(ResolutionMode::Batched).unwrap();
            assert_eq!(ra, rb, "{event:?}");
            assert_eq!(a.snapshot().unwrap(), b.snapshot().unwrap(), "{event:?}");
        }
    }

    #[test]
    fn first_powerup_scalar_and_batched_agree() {
        let mut a = array(2048);
        let mut b = array(2048);
        let ra = a.power_on_with(ResolutionMode::Scalar).unwrap();
        let rb = b.power_on_with(ResolutionMode::Batched).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(a.snapshot().unwrap(), b.snapshot().unwrap());
    }

    #[test]
    fn traced_power_on_records_counters() {
        let rec = Recorder::new();
        let mut s = array(256);
        s.power_on_traced(ResolutionMode::Batched, &rec).unwrap();
        assert_eq!(rec.counter("sram.power_cycles"), 1);
        assert_eq!(rec.counter("sram.cells_lost"), 2048);
        assert_eq!(rec.counter("sram.cells_retained"), 0);
        s.power_off(OffEvent::held(0.8)).unwrap();
        s.power_on_traced(ResolutionMode::Batched, &rec).unwrap();
        assert_eq!(rec.counter("sram.power_cycles"), 2);
        assert_eq!(rec.counter("sram.cells_retained"), 2048);
    }

    #[test]
    fn traced_power_on_records_loss_and_stress_histograms() {
        let rec = Recorder::new();
        let mut s = array(256);
        // First power-up: everything "lost" (nothing to retain yet).
        s.power_on_traced(ResolutionMode::Batched, &rec).unwrap();
        // Held cycle: nothing lost, zero stress.
        s.power_off(OffEvent::held(0.8)).unwrap();
        s.power_on_traced(ResolutionMode::Batched, &rec).unwrap();
        let lost = rec.histogram("sram.lost_per_powerup").unwrap();
        assert_eq!(lost.count(), 2);
        assert_eq!(lost.max(), 2048, "first power-up loses every cell");
        assert_eq!(lost.min(), 0, "a held cycle loses none");
        let stress = rec.histogram("sram.decay_stress_milli").unwrap();
        assert_eq!(stress.count(), 2);
    }

    /// A four-tile die plus one byte, powered on once, so every tile is
    /// owed. Each test passes its own seed, so its plane set is its own.
    fn owed_array(seed: u64) -> SramArray {
        let bits = 4 * engine::TILE_CELLS + 8;
        let mut s = SramArray::new(ArrayConfig::with_bits("owed", bits), seed);
        s.power_on().unwrap();
        s
    }

    /// Power-up tiles the array's plane set has derived.
    fn tiles_built(s: &SramArray) -> usize {
        s.planes.as_ref().map_or(0, |p| p.powerup_tiles_built())
    }

    /// The scalar power-up sample of every cell for event `event_id`.
    fn powerup_image(s: &SramArray, event_id: u64) -> PackedBits {
        let mut image = PackedBits::zeros(s.len_bits());
        for i in 0..s.len_bits() {
            let dist = &s.config.distribution;
            image.set(i, CellParams::sample_powerup_only(s.seed, i, dist, event_id));
        }
        image
    }

    #[test]
    fn certainly_lost_power_on_owes_its_sample() {
        let mut s = owed_array(0x0ED0_0001);
        assert_eq!(s.owed.count_ones(), 5, "every tile is owed");
        assert_eq!(tiles_built(&s), 0, "the first power-on builds no power-up tile");
        assert!(s.data.words().iter().all(|&w| w == 0), "the first power-on writes no word");
        // A hold below `drv_min` loses every cell as well: it owes its
        // own sample in place of the first power-on's.
        s.power_off(OffEvent::held(0.04)).unwrap();
        assert_eq!(s.power_on().unwrap().lost, s.len_bits());
        assert_eq!((s.owed.count_ones(), s.owed_event), (5, 1), "the hold owes event 1");
        assert_eq!(tiles_built(&s), 0, "the hold builds no power-up tile");
        assert!(s.data.words().iter().all(|&w| w == 0), "the hold writes no word");
        assert_eq!(s.snapshot().unwrap(), powerup_image(&s, 1));
        s.fill(0xA5).unwrap();
        assert_eq!(s.owed.count_ones(), 0, "a fill covers every tile whole");
        s.power_off(OffEvent::unpowered()).unwrap();
        s.elapse(Duration::from_secs(3600), Temperature::ROOM);
        assert_eq!(s.power_on().unwrap().lost, s.len_bits());
        assert_eq!((s.owed.count_ones(), s.owed_event), (5, 2), "the cycle owes event 2");
        assert!(s.snapshot().is_ok_and(|image| image == powerup_image(&s, 2)));
        assert_eq!(tiles_built(&s), 5, "the snapshots sampled every tile");
        assert_eq!(s.data.to_bytes(), vec![0xA5; s.len_bytes()], "the cycle wrote no word");
        let first = owed_array(0x0ED0_0001);
        assert_eq!(first.snapshot().unwrap(), powerup_image(&first, 0), "the first power-on");
    }

    #[test]
    fn a_one_byte_read_builds_one_tile() {
        let s = owed_array(0x0ED0_0002);
        let offset = engine::TILE_CELLS / 8 + 3;
        let want = powerup_image(&s, 0);
        assert_eq!(s.read_bytes(offset, 1), want.bytes_at(offset * 8, 1));
        assert_eq!(tiles_built(&s), 1, "a one-byte read builds its own tile only");
        assert_eq!(s.read_bit(offset * 8 + 5).unwrap(), want.get(offset * 8 + 5));
        assert_eq!(tiles_built(&s), 1);
        assert_eq!(s.owed.count_ones(), 5, "reads settle nothing");
    }

    #[test]
    fn a_whole_tile_write_clears_the_owed_bit_unsampled() {
        let mut s = owed_array(0x0ED0_0003);
        let mut want = powerup_image(&s, 0);
        let tile_bytes = engine::TILE_CELLS / 8;
        let mut write = |s: &mut SramArray, offset: usize, bytes: &[u8]| {
            s.write_bytes(offset, bytes);
            want.copy_bytes_in(offset * 8, bytes);
        };
        write(&mut s, tile_bytes, &vec![0x5A; tile_bytes]);
        assert!(!s.owed.get(1), "tile 1 is written whole");
        assert_eq!(tiles_built(&s), 0, "a whole-tile write samples nothing");
        write(&mut s, 2 * tile_bytes + 7, &[0xFF; 2]);
        assert!(!s.owed.get(2), "a partial write settles its tile");
        assert_eq!(tiles_built(&s), 1, "and builds that tile only");
        // The last tile holds one byte, so a one-byte write covers it.
        write(&mut s, 4 * tile_bytes, &[0x01]);
        assert_eq!((s.owed.count_ones(), tiles_built(&s)), (2, 1));
        s.write_bit(3, true).unwrap();
        want.set(3, true);
        assert_eq!((s.owed.count_ones(), tiles_built(&s)), (1, 2), "a bit write settles");
        assert_eq!(s.snapshot().unwrap(), want);
        s.restore(&want).unwrap();
        assert_eq!(s.owed.count_ones(), 0, "a restore clears every owed bit");
        assert_eq!(s.data, want);
    }

    #[test]
    fn a_fill_never_covers_a_trailing_partial_byte() {
        // The last tile holds 12 cells: one whole byte and four cells of a
        // partial byte, which a fill leaves alone. So the fill covers the
        // last tile in part and must settle it.
        let bits = engine::TILE_CELLS + 12;
        let mut s = SramArray::new(ArrayConfig::with_bits("owed-tail", bits), 0x0ED0_0007);
        s.power_on().unwrap();
        let mut want = powerup_image(&s, 0);
        s.fill(0x3C).unwrap();
        want.copy_bytes_in(0, &vec![0x3C; bits / 8]);
        assert_eq!((s.owed.count_ones(), tiles_built(&s)), (0, 1), "only the last tile settles");
        assert_eq!(s.snapshot().unwrap(), want);
    }

    #[test]
    fn keep_every_cell_cycles_leave_tiles_owed() {
        let mut s = owed_array(0x0ED0_0004);
        // A zero-stress unpowered cycle and a clean hold at 0.8 V.
        for event in [OffEvent::unpowered(), OffEvent::held(0.8)] {
            s.power_off(event).unwrap();
            assert_eq!(s.power_on().unwrap().retained, s.len_bits());
            assert_eq!((s.owed.count_ones(), tiles_built(&s)), (5, 0), "{event:?}");
        }
        assert_eq!(s.snapshot().unwrap(), powerup_image(&s, 0));
    }

    #[test]
    fn a_partial_droop_settles_before_it_resolves() {
        // A droop keeps some cells, so it must resolve against settled
        // contents.
        let mut s = owed_array(0x0ED0_0005);
        let mut reference = SramArray::new(s.config.clone(), s.seed);
        reference.power_on_with(ResolutionMode::Scalar).unwrap();
        for a in [&mut s, &mut reference] {
            a.power_off(OffEvent::held_with_droop(0.8, 0.31)).unwrap();
        }
        let report = s.power_on().unwrap();
        assert!(report.retained > 0 && report.lost > 0, "{report:?}");
        assert_eq!(report, reference.power_on_with(ResolutionMode::Scalar).unwrap());
        assert_eq!(s.owed.count_ones(), 0);
        assert_eq!(s.data, reference.data, "the stored words are current");
    }

    #[test]
    fn a_large_owed_array_settles_sharded_to_its_on_the_fly_image() {
        let bits = engine::PAR_MIN_BITS + 3 * engine::TILE_CELLS + 5;
        let mut s = SramArray::new(ArrayConfig::with_bits("owed-large", bits), 0x0ED0_0006);
        s.power_on().unwrap();
        let on_the_fly = crate::par::with_budget(1, || s.snapshot().unwrap());
        crate::par::with_budget(4, || s.settle_owed());
        assert_eq!(s.owed.count_ones(), 0);
        assert_eq!(s.data, on_the_fly);
        let dist = s.config.distribution;
        for i in (0..bits).step_by(4099).chain(bits - 70..bits) {
            let want = CellParams::sample_powerup_only(s.seed, i, &dist, 0);
            assert_eq!(s.data.get(i), want, "cell {i}");
        }
    }

    #[test]
    fn bit_level_access_roundtrip() {
        let mut s = array(2);
        s.power_on().unwrap();
        s.fill(0x00).unwrap();
        s.write_bit(3, true).unwrap();
        s.write_bit(9, true).unwrap();
        assert!(s.read_bit(3).unwrap());
        assert!(s.read_bit(9).unwrap());
        assert_eq!(s.read_bytes(0, 2), vec![0b0000_1000, 0b0000_0010]);
    }
}
