//! The Volt Boot attack and the cold-boot baseline.
//!
//! The attack follows the paper's Figure 5 flow:
//!
//! 1. **Identify** the target power domain and its exposed pad (Table 3);
//! 2. **Attach** an external voltage probe at the measured live voltage;
//! 3. **Power-cycle** the board abruptly — the probe keeps the target
//!    SRAM above its retention voltage while everything else resets;
//! 4. **Reboot** from attacker-controlled media (or the internal ROM);
//! 5. **Extract** the retained SRAM through debug interfaces;
//! 6. **Analyse** the images offline ([`crate::analysis`]).
//!
//! The same machinery runs the temperature-based cold-boot baseline of
//! §3 ([`ColdBootAttack`]) — which fails on on-chip SRAM, reproducing the
//! paper's Table 1.
//!
//! Campaigns that power-cycle the **same die** under the **same probe
//! treatment** repeatedly — a fixed-die sweep, or a fault plan whose
//! brown-outs recur — ride the SRAM engine's rep-delta path
//! (`voltboot_sram::delta`): the first repetitions of a
//! `(die, treatment)` pair resolve densely and settle a baseline,
//! after which each repetition re-resolves only the cells the
//! treatment actually disturbs. A cleanly held rail and a total loss
//! never get that far (a power-on that keeps or loses every cell
//! resolves nothing); it is the partial-loss treatments — a probe
//! droop into the DRV range, brown-out faults — that pay a real resolve
//! per cycle and are amortized. Nothing here opts in: the default `Batched` resolution
//! mode promotes repeated conditions automatically, and the extracted
//! images are byte-identical either way (checked end to end, trace
//! exports included, by the `delta_campaign` integration test).

use crate::error::AttackError;
use crate::fault::{self, FaultPlan, StepFaults};
use crate::recover::{self, ConfidenceMap, IntegrityError};
use voltboot_pdn::Probe;
use voltboot_soc::debug::RamId;
use voltboot_soc::{BootSource, CycleFaults, PowerCycleSpec, Soc};
use voltboot_sram::{par, PackedBits, Temperature};
use voltboot_telemetry::Recorder;

/// Virtual duration of the pad-voltage measurement (identify step).
pub const IDENTIFY_STEP_NS: u64 = 150_000;
/// Virtual duration of clipping the probe on (attach step).
pub const ATTACH_STEP_NS: u64 = 2_000_000;
/// Virtual duration of the reboot into the extraction image.
pub const REBOOT_STEP_NS: u64 = 120_000_000;
/// Virtual duration of extracting one image over the debug port.
pub const EXTRACT_IMAGE_NS: u64 = 8_000_000;

/// Extra contact resistance (ohms) a glitched probe clip adds.
pub const PROBE_GLITCH_EXTRA_OHMS: f64 = 0.6;
/// Factor a glitched contact sags the probe's deliverable current by.
pub const PROBE_GLITCH_LIMIT_FACTOR: f64 = 0.15;

/// What the attacker reads out after the reboot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Extraction {
    /// L1 cache data RAMs of the listed cores, via CP15 `RAMINDEX` from
    /// the attacker's EL3 extraction image.
    Caches {
        /// Cores to extract.
        cores: Vec<usize>,
    },
    /// NEON register files of the listed cores.
    Registers {
        /// Cores to extract.
        cores: Vec<usize>,
    },
    /// The iRAM, over JTAG (the i.MX535 path).
    IramJtag,
    /// A raw dump of off-chip DRAM cells (the classic cold-boot /
    /// FROST-style target) — what a transplanted or rebooted module
    /// yields, scrambling and decay included.
    DramRaw {
        /// First physical address.
        addr: u64,
        /// Bytes to dump.
        len: usize,
    },
    /// The main TLB entry RAMs of the listed cores, via `RAMINDEX` —
    /// retained translations leak the victim's address trace even where
    /// the data itself was evicted.
    Tlbs {
        /// Cores to extract.
        cores: Vec<usize>,
    },
    /// The branch target buffers of the listed cores, via `RAMINDEX` —
    /// retained branch entries leak the victim's control-flow history.
    Btbs {
        /// Cores to extract.
        cores: Vec<usize>,
    },
}

/// One extracted memory image, integrity-sealed at readout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractedImage {
    /// Source label, e.g. `"core0.l1d.way1"`, `"core2.vregs"`, `"iram"`.
    pub source: String,
    /// The raw bits.
    pub bits: PackedBits,
    /// CRC-64 of the bits as received at readout time
    /// ([`recover::crc64_bits`]); [`ExtractedImage::verify`] re-checks
    /// it, so silent corruption anywhere between extraction and
    /// reporting surfaces as a typed [`IntegrityError`].
    pub crc64: u64,
}

impl ExtractedImage {
    /// Builds an image and seals its readout CRC.
    pub fn new(source: impl Into<String>, bits: PackedBits) -> Self {
        let crc64 = recover::crc64_bits(&bits);
        ExtractedImage { source: source.into(), bits, crc64 }
    }

    /// Builds an image from bits whose CRC was already computed in the
    /// same pass that produced them (e.g.
    /// [`recover::vote_sealed_draining`]), skipping the re-hash
    /// [`ExtractedImage::new`] would do. The caller vouches that
    /// `crc64 == crc64_bits(&bits)`; debug builds verify it.
    pub fn from_sealed(source: impl Into<String>, bits: PackedBits, crc64: u64) -> Self {
        debug_assert_eq!(crc64, recover::crc64_bits(&bits), "sealed CRC must match the bits");
        ExtractedImage { source: source.into(), bits, crc64 }
    }

    /// Re-seals the CRC after a *legitimate* in-place mutation (the
    /// fault layer corrupting the readout models noise on the wire: the
    /// attacker checksums what it received).
    pub fn reseal(&mut self) {
        self.crc64 = recover::crc64_bits(&self.bits);
    }

    /// Re-verifies the bits against the sealed CRC.
    ///
    /// # Errors
    ///
    /// [`IntegrityError::CrcMismatch`] when the bits no longer hash to
    /// the CRC sealed at readout.
    pub fn verify(&self) -> Result<(), IntegrityError> {
        let actual = recover::crc64_bits(&self.bits);
        if actual == self.crc64 {
            Ok(())
        } else {
            Err(IntegrityError::CrcMismatch {
                source: self.source.clone(),
                sealed: self.crc64,
                actual,
            })
        }
    }
}

/// Per-image confidence from a voted multi-pass readout: the sealed CRC
/// plus the bit-level vote classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageConfidence {
    /// The image's source label.
    pub source: String,
    /// CRC-64 sealed on the resolved image.
    pub crc64: u64,
    /// Bit-level vote classification.
    pub map: ConfidenceMap,
}

/// A step of the attack flow, for the outcome log.
#[derive(Debug, Clone, PartialEq)]
pub struct StepRecord {
    /// Step name (identify / attach / power-cycle / reboot / extract).
    pub step: String,
    /// Human-readable detail.
    pub detail: String,
}

/// Everything an attack run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackOutcome {
    /// The executed steps, in order.
    pub steps: Vec<StepRecord>,
    /// Whether the target rail was held across the cycle.
    pub rail_held: bool,
    /// Minimum instantaneous voltage on the target rail during the
    /// disconnect surge, if held.
    pub transient_min_voltage: Option<f64>,
    /// The extracted images.
    pub images: Vec<ExtractedImage>,
    /// Per-image vote confidence — empty on the classic single-pass
    /// path, one entry per image (same order) on voted multi-pass
    /// extraction.
    pub confidence: Vec<ImageConfidence>,
}

impl AttackOutcome {
    /// Looks up one image by exact source name.
    pub fn image(&self, source: &str) -> Option<&ExtractedImage> {
        self.images.iter().find(|i| i.source == source)
    }

    /// All images whose source contains `fragment`.
    pub fn images_matching<'a>(
        &'a self,
        fragment: &'a str,
    ) -> impl Iterator<Item = &'a ExtractedImage> {
        self.images.iter().filter(move |i| i.source.contains(fragment))
    }

    /// Re-verifies every image against the CRC sealed at readout.
    ///
    /// # Errors
    ///
    /// The first [`IntegrityError::CrcMismatch`] found, naming the
    /// offending image.
    pub fn verify_integrity(&self) -> Result<(), IntegrityError> {
        for image in &self.images {
            image.verify()?;
        }
        Ok(())
    }

    /// Campaign-level confidence aggregate over all images.
    pub fn confidence_total(&self) -> ConfidenceMap {
        let mut total = ConfidenceMap::default();
        for c in &self.confidence {
            total.absorb(&c.map);
        }
        total
    }
}

/// Execution environment of one attack attempt: where telemetry goes and
/// which injected faults the attempt must weather.
///
/// `Default` is a disabled recorder and no faults — running through it is
/// bit-identical to the plain [`VoltBootAttack::execute`] path.
#[derive(Debug, Clone, Default)]
pub struct AttackContext {
    /// Telemetry sink (spans, counters, events, virtual clock).
    pub recorder: Recorder,
    /// Faults injected into this attempt.
    pub faults: StepFaults,
}

impl AttackContext {
    /// A context that records telemetry but injects nothing.
    pub fn recording() -> Self {
        AttackContext { recorder: Recorder::new(), faults: StepFaults::none() }
    }
}

/// An attack attempt that failed partway: the error plus everything the
/// flow completed before it — so a campaign can record a *partial*
/// outcome instead of discarding the attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackFailure {
    /// What stopped the attempt.
    pub error: AttackError,
    /// The steps that completed before the failure, in order.
    pub steps: Vec<StepRecord>,
}

impl std::fmt::Display for AttackFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (after {} completed steps)", self.error, self.steps.len())
    }
}

impl std::error::Error for AttackFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// The Volt Boot attack, configured builder-style.
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, PartialEq)]
pub struct VoltBootAttack {
    pad: String,
    probe: Probe,
    cycle: PowerCycleSpec,
    extraction: Extraction,
    skip_reboot: bool,
    passes: u32,
}

impl VoltBootAttack {
    /// Creates an attack against the probe point `pad`, with a 3 A bench
    /// supply, a realistic ~500 ms room-temperature power cycle, and
    /// cache extraction of core 0. The probe's setpoint is taken from the
    /// pad's measured live voltage at execution time.
    pub fn new(pad: impl Into<String>) -> Self {
        VoltBootAttack {
            pad: pad.into(),
            probe: Probe::bench_supply(0.0, 3.0),
            cycle: PowerCycleSpec::quick(),
            extraction: Extraction::Caches { cores: vec![0] },
            skip_reboot: false,
            passes: 1,
        }
    }

    /// Overrides the probe (e.g. a weak source, to reproduce the droop
    /// failure mode). The voltage setpoint is still re-measured at the
    /// pad unless it is non-zero.
    pub fn probe(mut self, probe: Probe) -> Self {
        self.probe = probe;
        self
    }

    /// Overrides the power-cycle parameters.
    pub fn cycle(mut self, cycle: PowerCycleSpec) -> Self {
        self.cycle = cycle;
        self
    }

    /// Sets what to extract.
    pub fn extraction(mut self, extraction: Extraction) -> Self {
        self.extraction = extraction;
        self
    }

    /// Skips the reboot step (for devices already running an attacker
    /// context, or when a test drives boot manually).
    pub fn skip_reboot(mut self, skip: bool) -> Self {
        self.skip_reboot = skip;
        self
    }

    /// Sets how many readout passes the extract step takes per unit
    /// (cache way, register file, iRAM, …). `1` — the default — is the
    /// classic single-shot readout, bit-identical to the pre-voting
    /// flow. Higher counts enable voted multi-pass extraction with
    /// selective repair: every unit is read twice and cross-checked by
    /// CRC, and only units whose passes disagree are read again and
    /// resolved by per-bit majority vote. The stored value is
    /// normalized at execution time ([`VoltBootAttack::normalized_passes`]).
    pub fn passes(mut self, passes: u32) -> Self {
        self.passes = passes;
        self
    }

    /// The effective pass count `execute` uses: the configured value
    /// clamped to `1..=`[`recover::MAX_PASSES`] and bumped up to odd —
    /// an even pass count can only tie where an odd one resolves.
    pub fn normalized_passes(&self) -> u32 {
        let k = self.passes.clamp(1, recover::MAX_PASSES);
        if k > 1 && k.is_multiple_of(2) {
            k + 1
        } else {
            k
        }
    }

    /// Runs the full attack flow against `soc`.
    ///
    /// # Errors
    ///
    /// [`AttackError::BootDefeated`] / [`AttackError::ExtractionDenied`]
    /// when a countermeasure stops the attack, [`AttackError::Soc`] for
    /// device-level failures.
    pub fn execute(&self, soc: &mut Soc) -> Result<AttackOutcome, AttackError> {
        self.execute_in(soc, &AttackContext::default()).map_err(|failure| failure.error)
    }

    /// [`VoltBootAttack::execute`] under an explicit [`AttackContext`]:
    /// per-step telemetry spans on the context's recorder and the
    /// context's injected faults applied at their named injection points.
    ///
    /// With a default context this is exactly `execute` (which delegates
    /// here), so the fault-free outcome is bit-identical by construction.
    ///
    /// # Errors
    ///
    /// [`AttackFailure`] wrapping the same error classes as `execute`,
    /// plus the steps that completed before the failure.
    pub fn execute_in(
        &self,
        soc: &mut Soc,
        ctx: &AttackContext,
    ) -> Result<AttackOutcome, AttackFailure> {
        let rec = &ctx.recorder;
        let faults = ctx.faults;
        rec.incr("attack.executions", 1);
        let mut steps = Vec::new();

        // Step 1: identify the domain and measure the pad.
        let span = rec.span("attack.identify");
        let live = match soc.network().measure_pad(&self.pad) {
            Ok(v) => v,
            Err(e) => {
                return Err(AttackFailure { error: voltboot_soc::SocError::Pdn(e).into(), steps })
            }
        };
        rec.advance(IDENTIFY_STEP_NS);
        span.attr("pad", self.pad.as_str());
        span.attr("live_v", live);
        span.end();
        steps.push(StepRecord {
            step: "identify".into(),
            detail: format!("pad {} reads {live:.2} V", self.pad),
        });

        // Step 2: attach the probe at the measured voltage. A glitched
        // contact adds series resistance and sags the deliverable
        // current — the probe is still attached, just badly.
        let span = rec.span("attack.attach");
        let mut probe = self.probe;
        if probe.voltage == 0.0 {
            probe.voltage = live;
        }
        if faults.probe_glitch {
            probe.series_resistance += PROBE_GLITCH_EXTRA_OHMS;
            probe.current_limit *= PROBE_GLITCH_LIMIT_FACTOR;
            rec.incr("attack.fault.probe_glitch", 1);
            rec.event(
                "attack.fault.probe_glitch",
                &format!(
                    "contact glitch: +{PROBE_GLITCH_EXTRA_OHMS} ohm, limit {:.2} A",
                    probe.current_limit
                ),
            );
        }
        if let Err(e) = soc.attach_probe(&self.pad, probe) {
            return Err(AttackFailure { error: e.into(), steps });
        }
        rec.advance(ATTACH_STEP_NS);
        span.attr("setpoint_v", probe.voltage);
        span.attr("limit_a", probe.current_limit);
        span.end();
        steps.push(StepRecord {
            step: "attach".into(),
            detail: format!(
                "probe at {:.2} V, {:.1} A limit on {}",
                probe.voltage, probe.current_limit, self.pad
            ),
        });

        // Step 3: abrupt power cycle, with rail-level faults mapped down
        // into the SoC layer.
        let cycle_faults = CycleFaults {
            brownout_min_voltage: faults.brownout_min_voltage,
            reconnect_misorder: faults.reconnect_misorder,
        };
        let report = match soc.power_cycle_with(self.cycle, cycle_faults, rec) {
            Ok(r) => r,
            Err(e) => return Err(AttackFailure { error: e.into(), steps }),
        };
        let target_rail = soc
            .network()
            .probe_points()
            .iter()
            .find(|p| p.pad == self.pad)
            .map(|p| p.rail.clone())
            .expect("pad resolved during attach");
        let rail = report.outcome.rail(&target_rail);
        let rail_held = rail.map(|r| r.is_held()).unwrap_or(false);
        let transient_min_voltage = rail.and_then(|r| r.transient_min_voltage());
        if rail_held {
            rec.incr("attack.rail_held", 1);
        }
        steps.push(StepRecord {
            step: "power-cycle".into(),
            detail: match transient_min_voltage {
                Some(v) => format!("{target_rail} held; transient minimum {v:.3} V"),
                None => format!("{target_rail} not held"),
            },
        });

        // Step 4: reboot into the attacker's context.
        if !self.skip_reboot {
            let span = rec.span("attack.reboot");
            let source = if soc.boot_rom().boots_from_internal_rom {
                BootSource::InternalRom
            } else {
                // The attacker's USB extraction image: unsigned.
                BootSource::ExternalMedia {
                    image: extraction_stub_image(),
                    entry: 0x8_0000,
                    signed: false,
                }
            };
            let outcome = match soc.boot_traced(source, rec) {
                Ok(o) => o,
                Err(e) => return Err(AttackFailure { error: e.into(), steps }),
            };
            rec.advance(REBOOT_STEP_NS);
            span.end();
            steps.push(StepRecord {
                step: "reboot".into(),
                detail: format!(
                    "entry {:#x}; l2 clobbered: {}; iram clobbered: {} bytes; mbist: {}",
                    outcome.entry,
                    outcome.l2_clobbered,
                    outcome.iram_bytes_clobbered,
                    outcome.mbist_ran
                ),
            });
        }

        // Step 5: extract. Single-pass: a dropout fails the attempt and
        // bit errors corrupt the images silently — the classic flow.
        // Multi-pass: a dropout erases a (deterministic) subset of the
        // passes, bit errors are voted back out, and only the attempt
        // whose *every* pass dropped fails.
        let span = rec.span("attack.extract");
        let passes = self.normalized_passes();
        let mut confidence = Vec::new();
        let images = if passes == 1 {
            if faults.extraction_dropout {
                rec.incr("attack.fault.extraction_dropout", 1);
                rec.event("attack.fault.extraction_dropout", "debug port failed to enumerate");
                return Err(AttackFailure {
                    error: AttackError::ExtractionDenied {
                        detail: "debug port failed to enumerate (injected dropout)".into(),
                    },
                    steps,
                });
            }
            let mut images = match self.extract(soc) {
                Ok(i) => i,
                Err(e) => return Err(AttackFailure { error: e, steps }),
            };
            rec.advance(EXTRACT_IMAGE_NS * images.len() as u64);
            rec.incr("attack.images_extracted", images.len() as u64);
            if faults.readout_bit_error_fraction > 0.0 {
                let mut flipped = 0usize;
                for (i, image) in images.iter_mut().enumerate() {
                    flipped += fault::corrupt_bits(
                        &mut image.bits,
                        faults.readout_bit_error_fraction,
                        faults.readout_noise_seed.wrapping_add(i as u64),
                    );
                    // The attacker checksums what it received — the CRC
                    // seals the corrupted wire bytes, not the silicon.
                    image.reseal();
                }
                rec.incr("attack.fault.readout_bits_flipped", flipped as u64);
                rec.event(
                    "attack.fault.readout_bit_error",
                    &format!("{flipped} bits flipped across {} images", images.len()),
                );
            }
            images
        } else {
            match self.extract_voted(soc, rec, &faults, passes) {
                Ok((images, conf)) => {
                    confidence = conf;
                    images
                }
                Err(e) => return Err(AttackFailure { error: e, steps }),
            }
        };
        span.attr("passes", u64::from(passes));
        span.attr("images", images.len());
        span.end();
        steps.push(StepRecord {
            step: "extract".into(),
            detail: if passes == 1 {
                format!("{} images", images.len())
            } else {
                format!("{} images over {passes} voting passes", images.len())
            },
        });

        Ok(AttackOutcome { steps, rail_held, transient_min_voltage, images, confidence })
    }

    fn extract(&self, soc: &Soc) -> Result<Vec<ExtractedImage>, AttackError> {
        match &self.extraction {
            Extraction::Caches { cores } => extract_caches(soc, cores),
            Extraction::Registers { cores } => extract_registers(soc, cores),
            Extraction::IramJtag => extract_iram(soc),
            Extraction::DramRaw { addr, len } => extract_dram_raw(soc, *addr, *len),
            Extraction::Tlbs { cores } => extract_tlbs(soc, cores),
            Extraction::Btbs { cores } => extract_btbs(soc, cores),
        }
    }

    /// Enumerates the extraction plan's readout units — the granules
    /// (cache way, register file, iRAM, DRAM window) the voted path can
    /// re-read independently — in exactly the order
    /// [`VoltBootAttack::extract`] emits images.
    fn units(&self, soc: &Soc) -> Result<Vec<UnitSpec>, AttackError> {
        let mut units = Vec::new();
        match &self.extraction {
            Extraction::Caches { cores } => {
                for &core in cores {
                    let c = soc.core(core).map_err(|_| bad_core(core))?;
                    for (label, ram, geometry) in [
                        ("l1d", RamId::L1DData, c.l1d.geometry()),
                        ("l1i", RamId::L1IData, c.l1i.geometry()),
                    ] {
                        for way in 0..geometry.ways {
                            units.push(UnitSpec {
                                source: format!("core{core}.{label}.way{way}"),
                                kind: UnitKind::Ram { core, ram, way: way as u8 },
                            });
                        }
                    }
                }
            }
            Extraction::Registers { cores } => {
                for &core in cores {
                    soc.core(core).map_err(|_| bad_core(core))?;
                    units.push(UnitSpec {
                        source: format!("core{core}.vregs"),
                        kind: UnitKind::Registers { core },
                    });
                }
            }
            Extraction::IramJtag => {
                units.push(UnitSpec { source: "iram".into(), kind: UnitKind::Iram });
            }
            Extraction::DramRaw { addr, len } => {
                units.push(UnitSpec {
                    source: format!("dram@{addr:#x}"),
                    kind: UnitKind::DramRaw { addr: *addr, len: *len },
                });
            }
            Extraction::Tlbs { cores } => {
                for &core in cores {
                    soc.core(core).map_err(|_| bad_core(core))?;
                    units.push(UnitSpec {
                        source: format!("core{core}.tlb"),
                        kind: UnitKind::Ram { core, ram: RamId::Tlb, way: 0 },
                    });
                }
            }
            Extraction::Btbs { cores } => {
                for &core in cores {
                    soc.core(core).map_err(|_| bad_core(core))?;
                    units.push(UnitSpec {
                        source: format!("core{core}.btb"),
                        kind: UnitKind::Ram { core, ram: RamId::Btb, way: 0 },
                    });
                }
            }
        }
        Ok(units)
    }

    /// The voted multi-pass readout: cross-check every unit over its
    /// first two surviving passes, selectively re-read only the units
    /// whose CRCs disagree, and resolve disagreements by per-bit
    /// majority vote ([`recover::vote_sealed_draining`]) with dropped
    /// passes as erasures. The vote consumes the per-unit dumps, so no
    /// pass buffer is ever copied.
    fn extract_voted(
        &self,
        soc: &Soc,
        rec: &Recorder,
        faults: &StepFaults,
        passes: u32,
    ) -> Result<(Vec<ExtractedImage>, Vec<ImageConfidence>), AttackError> {
        // Which passes a firing dropout erases, decided up front: the
        // port's flakiness is a property of the attempt, not of the
        // read order.
        let erased: Vec<bool> = (0..passes)
            .map(|p| faults.extraction_dropout && FaultPlan::pass_erased(faults.dropout_seed, p))
            .collect();
        let available: Vec<u32> = (0..passes).filter(|&p| !erased[p as usize]).collect();
        if faults.extraction_dropout {
            let dropped = passes as u64 - available.len() as u64;
            rec.incr("attack.fault.extraction_dropout", 1);
            rec.incr("attack.repair.passes_erased", dropped);
            rec.event(
                "attack.fault.extraction_dropout",
                &format!("flaky debug port: {dropped} of {passes} passes dropped"),
            );
        }
        if available.is_empty() {
            return Err(AttackError::ExtractionDenied {
                detail: format!(
                    "debug port dropped all {passes} readout passes (injected dropout)"
                ),
            });
        }

        // One read of `unit` on pass `p`, with that pass's wire noise.
        let read_pass =
            |u: usize, unit: &UnitSpec, p: u32| -> Result<(PackedBits, usize), AttackError> {
                let mut bits = read_unit(soc, unit, rec)?;
                rec.advance(EXTRACT_IMAGE_NS);
                let mut flipped = 0;
                if faults.readout_bit_error_fraction > 0.0 {
                    flipped = fault::corrupt_bits(
                        &mut bits,
                        faults.readout_bit_error_fraction,
                        faults
                            .readout_noise_seed
                            .wrapping_add(u as u64)
                            .wrapping_add(u64::from(p).wrapping_mul(PASS_NOISE_STRIDE)),
                    );
                }
                Ok((bits, flipped))
            };

        let units = self.units(soc)?;
        let mut images = Vec::with_capacity(units.len());
        let mut confidence = Vec::with_capacity(units.len());
        let mut unit_reads = 0u64;
        let mut units_flagged = 0u64;
        let mut flipped_total = 0usize;
        let mut repaired_total = 0u64;
        let mut unresolved_total = 0u64;
        // Passes aligned to their pass index; `None` is an erasure
        // (dropped pass) or a read selective repair skipped. One slot
        // vector serves every unit: the draining vote empties it and
        // the leftover pass buffers retire to the rep arena, so the
        // per-unit loop allocates nothing once the arena is warm.
        let mut pass_bits: Vec<Option<PackedBits>> = (0..passes).map(|_| None).collect();
        for (u, unit) in units.into_iter().enumerate() {
            let reads_before = unit_reads;
            debug_assert!(pass_bits.iter().all(Option::is_none), "slots reset between units");
            // The cross-check CRC of each pass is computed once, right
            // as the dump comes off the wire (while it is cache-hot),
            // never re-derived from the stored buffer.
            let mut check_crcs = [0u64; 2];
            for (slot, &p) in available.iter().take(2).enumerate() {
                let (bits, flipped) = read_pass(u, &unit, p)?;
                unit_reads += 1;
                flipped_total += flipped;
                check_crcs[slot] = recover::crc64_bits(&bits);
                pass_bits[p as usize] = Some(bits);
            }
            // Integrity cross-check: two clean reads of retained SRAM
            // hash identically; a mismatch flags the unit for repair.
            let agree = available.len() < 2 || check_crcs[0] == check_crcs[1];
            if !agree {
                units_flagged += 1;
                for &p in available.iter().skip(2) {
                    let (bits, flipped) = read_pass(u, &unit, p)?;
                    unit_reads += 1;
                    flipped_total += flipped;
                    pass_bits[p as usize] = Some(bits);
                }
            }
            // Draining vote: the resolved image is voted *into* the
            // first surviving pass's buffer, and the unit's label is
            // moved — nothing in the per-unit hot loop copies a dump.
            // The vote seals the resolved CRC in the same word loop, so
            // the image is built without another full hash sweep; the
            // passes it leaves behind are recycled.
            let (resolved, map, crc) =
                recover::vote_sealed_draining(&mut pass_bits).map_err(AttackError::from)?;
            for slot in &mut pass_bits {
                if let Some(p) = slot.take() {
                    par::give_words(p.into_words());
                }
            }
            repaired_total += map.repaired;
            unresolved_total += map.unresolved;
            // Distributions over units: how many reads each one cost
            // (2 when the cross-check agreed, more when repair re-read)
            // and how many bits the vote had to repair in it.
            rec.record("attack.repair.reads_per_unit", unit_reads - reads_before);
            rec.record("attack.repair.repaired_per_unit", map.repaired);
            let image = ExtractedImage::from_sealed(unit.source, resolved, crc);
            confidence.push(ImageConfidence {
                source: image.source.clone(),
                crc64: image.crc64,
                map,
            });
            images.push(image);
        }

        rec.incr("attack.images_extracted", images.len() as u64);
        rec.incr("attack.repair.unit_reads", unit_reads);
        rec.incr("attack.repair.units_flagged", units_flagged);
        rec.incr("attack.repair.bits_repaired", repaired_total);
        rec.incr("attack.repair.bits_unresolved", unresolved_total);
        if faults.readout_bit_error_fraction > 0.0 {
            rec.incr("attack.fault.readout_bits_flipped", flipped_total as u64);
            rec.event(
                "attack.fault.readout_bit_error",
                &format!("{flipped_total} bits flipped across {unit_reads} unit reads"),
            );
        }
        Ok((images, confidence))
    }
}

/// Per-pass stride mixed into the readout noise seed so repeated passes
/// of the same unit see independent wire noise; pass 0 reproduces the
/// single-pass seed exactly.
pub const PASS_NOISE_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

fn bad_core(core: usize) -> AttackError {
    AttackError::BadConfiguration { detail: format!("core {core} does not exist") }
}

/// One independently re-readable granule of an extraction plan.
struct UnitSpec {
    source: String,
    kind: UnitKind,
}

enum UnitKind {
    Ram { core: usize, ram: RamId, way: u8 },
    Registers { core: usize },
    Iram,
    DramRaw { addr: u64, len: usize },
}

/// Reads one unit's current bits through the same debug paths the
/// whole-plan extractors use, recording RAMINDEX readout telemetry.
///
/// The dump's byte scratch and the image's word storage both come from
/// the calling thread's [rep arena](par): after the first few reads
/// warm the freelist, re-reading a unit allocates nothing. The returned
/// image's buffer goes back to the arena when the caller retires it
/// ([`PackedBits::into_words`] + [`par::give_words`]).
fn read_unit(soc: &Soc, unit: &UnitSpec, rec: &Recorder) -> Result<PackedBits, AttackError> {
    Ok(match unit.kind {
        UnitKind::Ram { core, ram, way } => {
            let mut bytes = par::take_bytes(0);
            soc.ramindex_unit_into(core, ram, way, false, rec, &mut bytes)?;
            let bits =
                PackedBits::from_bytes_reusing(&bytes, par::take_words(bytes.len().div_ceil(8)));
            par::give_bytes(bytes);
            bits
        }
        UnitKind::Registers { core } => {
            soc.core(core).map_err(|_| bad_core(core))?.vregs.image().map_err(AttackError::from)?
        }
        UnitKind::Iram => {
            let iram = soc
                .iram()
                .ok_or(AttackError::BadConfiguration { detail: "device has no iram".into() })?;
            let bytes = soc.jtag_read(iram.base(), iram.len())?;
            PackedBits::from_bytes_reusing(&bytes, par::take_words(bytes.len().div_ceil(8)))
        }
        UnitKind::DramRaw { addr, len } => {
            let cells = soc.dram().raw_cells(addr, len).map_err(AttackError::from)?;
            PackedBits::from_bytes_reusing(&cells, par::take_words(cells.len().div_ceil(8)))
        }
    })
}

/// Reads every way of both L1 caches of the given cores through the
/// `RAMINDEX` debug path — the whole-way read
/// ([`voltboot_soc::Soc::ramindex_unit`]) issues every beat in order,
/// exactly as the EL3 extraction image does (request → `DSB SY` → `ISB`
/// → four data registers).
pub fn extract_caches(soc: &Soc, cores: &[usize]) -> Result<Vec<ExtractedImage>, AttackError> {
    let mut images = Vec::new();
    for &core in cores {
        let c = soc.core(core).map_err(|_| bad_core(core))?;
        for (label, ram, geometry) in
            [("l1d", RamId::L1DData, c.l1d.geometry()), ("l1i", RamId::L1IData, c.l1i.geometry())]
        {
            for way in 0..geometry.ways {
                let bytes = soc.ramindex_unit(core, ram, way as u8, false)?;
                images.push(ExtractedImage::new(
                    format!("core{core}.{label}.way{way}"),
                    PackedBits::from_bytes(&bytes),
                ));
            }
        }
    }
    Ok(images)
}

/// Reads the NEON register files of the given cores (the §7.2 target).
pub fn extract_registers(soc: &Soc, cores: &[usize]) -> Result<Vec<ExtractedImage>, AttackError> {
    let mut images = Vec::new();
    for &core in cores {
        let c = soc.core(core).map_err(|_| bad_core(core))?;
        let image = c.vregs.image().map_err(AttackError::from)?;
        images.push(ExtractedImage::new(format!("core{core}.vregs"), image));
    }
    Ok(images)
}

/// Dumps the iRAM over JTAG (the §7.3 path; no external boot media
/// needed on the i.MX535).
pub fn extract_iram(soc: &Soc) -> Result<Vec<ExtractedImage>, AttackError> {
    let iram =
        soc.iram().ok_or(AttackError::BadConfiguration { detail: "device has no iram".into() })?;
    let bytes = soc.jtag_read(iram.base(), iram.len())?;
    Ok(vec![ExtractedImage::new("iram", PackedBits::from_bytes(&bytes))])
}

/// Reads the main TLB entry RAM of each listed core through `RAMINDEX`,
/// one entry word per beat.
pub fn extract_tlbs(soc: &Soc, cores: &[usize]) -> Result<Vec<ExtractedImage>, AttackError> {
    let mut images = Vec::new();
    for &core in cores {
        soc.core(core).map_err(|_| bad_core(core))?;
        let bytes = soc.ramindex_unit(core, RamId::Tlb, 0, false)?;
        images.push(ExtractedImage::new(format!("core{core}.tlb"), PackedBits::from_bytes(&bytes)));
    }
    Ok(images)
}

/// Reads the BTB entry RAM of each listed core through `RAMINDEX`.
pub fn extract_btbs(soc: &Soc, cores: &[usize]) -> Result<Vec<ExtractedImage>, AttackError> {
    let mut images = Vec::new();
    for &core in cores {
        soc.core(core).map_err(|_| bad_core(core))?;
        let bytes = soc.ramindex_unit(core, RamId::Btb, 0, false)?;
        images.push(ExtractedImage::new(format!("core{core}.btb"), PackedBits::from_bytes(&bytes)));
    }
    Ok(images)
}

/// Decodes `(branch_pc, target)` pairs from an extracted BTB image.
pub fn btb_branches(image: &ExtractedImage) -> Vec<(u64, u64)> {
    image
        .bits
        .to_bytes()
        .chunks_exact(8)
        .enumerate()
        .filter_map(|(i, c)| {
            let word = u64::from_le_bytes(c.try_into().expect("8 bytes"));
            if word & (1 << 63) == 0 {
                return None;
            }
            let tag = (word >> 38) & ((1 << 24) - 1);
            let pc = ((tag << 6) | i as u64) << 2;
            let target = (word & ((1 << 38) - 1)) << 2;
            Some((pc, target))
        })
        .collect()
}

/// Decodes the valid page numbers from an extracted TLB image.
pub fn tlb_pages(image: &ExtractedImage) -> Vec<u64> {
    image
        .bits
        .to_bytes()
        .chunks_exact(8)
        .filter_map(|c| {
            let word = u64::from_le_bytes(c.try_into().expect("8 bytes"));
            (word & (1 << 63) != 0).then_some(word & 0x000F_FFFF_FFFF_FFFF)
        })
        .collect()
}

/// Dumps raw DRAM cells — what a physical probe on the module (or a
/// FROST-style minimal kernel) sees: post-decay, and scrambled if the
/// controller scrambles.
pub fn extract_dram_raw(
    soc: &Soc,
    addr: u64,
    len: usize,
) -> Result<Vec<ExtractedImage>, AttackError> {
    let cells = soc.dram().raw_cells(addr, len).map_err(AttackError::from)?;
    Ok(vec![ExtractedImage::new(format!("dram@{addr:#x}"), PackedBits::from_bytes(&cells))])
}

/// A placeholder extraction image: the attacker's USB payload. Its
/// contents never execute in the simulation (extraction runs through the
/// host-side debug path), but it must exist, be unsigned, and load.
fn extraction_stub_image() -> Vec<u8> {
    voltboot_armlite::program::builders::ramindex_read(RamId::L1DData.code(), 0, 0).bytes()
}

/// The §3 baseline: a traditional cold-boot attempt — chill the board,
/// cut power briefly, reboot, extract. No probe is attached, so survival
/// depends entirely on the SRAM's intrinsic retention at temperature.
#[derive(Debug, Clone, PartialEq)]
pub struct ColdBootAttack {
    /// Ambient temperature the device was cooled to.
    pub temperature: Temperature,
    /// How long the board stays without power (manual re-plug).
    pub off_millis: u64,
    /// What to extract after reboot.
    pub extraction: Extraction,
}

impl ColdBootAttack {
    /// A cold boot at `celsius` with a fast (few-ms) power cycle.
    pub fn new(celsius: f64, off_millis: u64) -> Self {
        ColdBootAttack {
            temperature: Temperature::from_celsius(celsius),
            off_millis,
            extraction: Extraction::Caches { cores: vec![0] },
        }
    }

    /// Sets what to extract.
    pub fn extraction(mut self, extraction: Extraction) -> Self {
        self.extraction = extraction;
        self
    }

    /// Runs the cold-boot flow against `soc`.
    ///
    /// # Errors
    ///
    /// Same classes as [`VoltBootAttack::execute`].
    pub fn execute(&self, soc: &mut Soc) -> Result<AttackOutcome, AttackError> {
        let mut steps = vec![StepRecord {
            step: "chill".into(),
            detail: format!("device stabilized at {}", self.temperature),
        }];
        soc.power_cycle(PowerCycleSpec {
            off_duration: std::time::Duration::from_millis(self.off_millis),
            temperature: self.temperature,
        })?;
        steps.push(StepRecord {
            step: "power-cycle".into(),
            detail: format!("{} ms without power at {}", self.off_millis, self.temperature),
        });
        let source = if soc.boot_rom().boots_from_internal_rom {
            BootSource::InternalRom
        } else {
            BootSource::ExternalMedia {
                image: extraction_stub_image(),
                entry: 0x8_0000,
                signed: false,
            }
        };
        soc.boot(source)?;
        steps.push(StepRecord { step: "reboot".into(), detail: "attacker media".into() });

        let attack = VoltBootAttack {
            pad: String::new(),
            probe: Probe::bench_supply(0.0, 0.0),
            cycle: PowerCycleSpec::quick(),
            extraction: self.extraction.clone(),
            skip_reboot: true,
            passes: 1,
        };
        let images = attack.extract(soc)?;
        steps.push(StepRecord {
            step: "extract".into(),
            detail: format!("{} images", images.len()),
        });
        Ok(AttackOutcome {
            steps,
            rail_held: false,
            transient_min_voltage: None,
            images,
            confidence: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltboot_armlite::program::builders;
    use voltboot_soc::devices;

    fn prepared_pi4() -> Soc {
        let mut soc = devices::raspberry_pi_4(0xA11ACE);
        soc.power_on_all();
        soc.enable_caches(0);
        soc.run_program(0, &builders::nop_sled(512), 0x10000, 1_000_000);
        soc
    }

    fn nop_count(bits: &PackedBits) -> usize {
        bits.to_bytes()
            .chunks_exact(4)
            .filter(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]) == 0xD503201F)
            .count()
    }

    #[test]
    fn volt_boot_retains_icache_exactly() {
        let mut soc = prepared_pi4();
        let before = soc.core(0).unwrap().l1i.way_image(0).unwrap();
        let outcome = VoltBootAttack::new("TP15").execute(&mut soc).unwrap();
        assert!(outcome.rail_held);
        assert!(outcome.transient_min_voltage.unwrap() > 0.6);
        let extracted = outcome.image("core0.l1i.way0").unwrap();
        assert_eq!(extracted.bits, before, "100% accuracy: extraction == pre-cycle image");
        assert!(nop_count(&extracted.bits) >= 256);
        assert_eq!(outcome.steps.len(), 5);
    }

    #[test]
    fn weak_probe_loses_cells() {
        let mut soc = prepared_pi4();
        let before = soc.core(0).unwrap().l1i.way_image(0).unwrap();
        let outcome = VoltBootAttack::new("TP15")
            .probe(Probe::weak_source(0.0, 0.2))
            .execute(&mut soc)
            .unwrap();
        assert!(outcome.rail_held);
        assert!(outcome.transient_min_voltage.unwrap() < 0.3);
        let extracted = outcome.image("core0.l1i.way0").unwrap();
        let hd = extracted.bits.fractional_hamming(&before);
        assert!(hd > 0.05, "droop below retention voltage must corrupt cells, hd={hd}");
    }

    #[test]
    fn cold_boot_fails_at_minus_forty() {
        let mut soc = prepared_pi4();
        let before = soc.core(0).unwrap().l1i.way_image(0).unwrap();
        let outcome = ColdBootAttack::new(-40.0, 5).execute(&mut soc).unwrap();
        assert!(!outcome.rail_held);
        let extracted = outcome.image("core0.l1i.way0").unwrap();
        // The sled occupied 2 KB of the 16 KB way; the rest was already
        // power-up state, so the whole-way distance lands around
        // (2/16)*0.5 + (14/16)*0.1 ~= 0.15. What matters: the sled is gone.
        let hd = extracted.bits.fractional_hamming(&before);
        assert!(hd > 0.1, "cold boot at -40C must lose the data, hd={hd}");
        assert_eq!(nop_count(&extracted.bits), 0);
    }

    #[test]
    fn cold_boot_partially_works_at_minus_110() {
        let mut soc = prepared_pi4();
        let before = soc.core(0).unwrap().l1i.way_image(0).unwrap();
        let outcome = ColdBootAttack::new(-110.0, 20).execute(&mut soc).unwrap();
        let extracted = outcome.image("core0.l1i.way0").unwrap();
        let hd = extracted.bits.fractional_hamming(&before);
        // ~80% retention -> ~10% bit error (half the lost cells flip).
        assert!(hd > 0.02 && hd < 0.25, "deep cold retains partially, hd={hd}");
    }

    #[test]
    fn register_extraction_after_attack() {
        let mut soc = devices::raspberry_pi_4(7);
        soc.power_on_all();
        soc.run_program(0, &builders::fill_vector_registers(), 0x10000, 10_000);
        let outcome = VoltBootAttack::new("TP15")
            .extraction(Extraction::Registers { cores: vec![0] })
            .execute(&mut soc)
            .unwrap();
        let image = outcome.image("core0.vregs").unwrap();
        let bytes = image.bits.to_bytes();
        assert_eq!(&bytes[..16], &[0xFF; 16], "v0 pattern");
        assert_eq!(&bytes[16..32], &[0xAA; 16], "v1 pattern");
    }

    #[test]
    fn iram_extraction_on_imx() {
        let mut soc = devices::imx53_qsb(3);
        soc.power_on_all();
        let base = soc.iram().unwrap().base();
        soc.jtag_write(base + 0x8000, &[0xB1; 256]).unwrap();
        let outcome =
            VoltBootAttack::new("SH13").extraction(Extraction::IramJtag).execute(&mut soc).unwrap();
        let image = outcome.image("iram").unwrap();
        assert_eq!(&image.bits.to_bytes()[0x8000..0x8100], &[0xB1; 256][..]);
    }

    #[test]
    fn tlb_extraction_leaks_the_victims_address_trace() {
        let mut soc = devices::raspberry_pi_4(0x71B);
        soc.power_on_all();
        soc.enable_caches(0);
        // The victim touches a recognizable data page.
        let p = builders::fill_bytes(0x55_5000, 0x11, 64);
        soc.run_program(0, &p, 0x10000, 1_000_000);

        let outcome = VoltBootAttack::new("TP15")
            .extraction(Extraction::Tlbs { cores: vec![0] })
            .execute(&mut soc)
            .unwrap();
        let image = outcome.image("core0.tlb").unwrap();
        let pages = crate::attack::tlb_pages(image);
        assert!(pages.contains(&0x555), "victim data page must appear: {pages:x?}");
        assert!(pages.contains(&0x10), "victim code page must appear: {pages:x?}");
    }

    #[test]
    fn btb_extraction_leaks_control_flow_history() {
        let mut soc = devices::raspberry_pi_4(0xB7B);
        soc.power_on_all();
        soc.enable_caches(0);
        // A victim with a loop: the backward branch lands in the BTB.
        let p = builders::fill_bytes(0x20_0000, 0x22, 256);
        soc.run_program(0, &p, 0x10000, 1_000_000);

        let outcome = VoltBootAttack::new("TP15")
            .extraction(Extraction::Btbs { cores: vec![0] })
            .execute(&mut soc)
            .unwrap();
        let branches = crate::attack::btb_branches(outcome.image("core0.btb").unwrap());
        // The fill loop's cbnz branches backwards within the program.
        assert!(
            branches.iter().any(|&(pc, target)| pc > target
                && (0x10000..0x10100).contains(&pc)
                && (0x10000..0x10100).contains(&target)),
            "expected the victim's loop branch: {branches:x?}"
        );
    }

    #[test]
    fn tlb_trace_is_gone_after_plain_reboot() {
        let mut soc = devices::raspberry_pi_4(0x71C);
        soc.power_on_all();
        soc.enable_caches(0);
        let p = builders::fill_bytes(0x55_5000, 0x11, 64);
        soc.run_program(0, &p, 0x10000, 1_000_000);
        let cold = ColdBootAttack::new(-40.0, 5)
            .extraction(Extraction::Tlbs { cores: vec![0] })
            .execute(&mut soc)
            .unwrap();
        let pages = crate::attack::tlb_pages(cold.image("core0.tlb").unwrap());
        assert!(!pages.contains(&0x555), "trace must not survive: {pages:x?}");
    }

    #[test]
    fn authenticated_boot_defeats_the_attack() {
        let mut soc = prepared_pi4();
        let mut policy = soc.policy();
        policy.mandated_authenticated_boot = true;
        soc.set_policy(policy);
        let err = VoltBootAttack::new("TP15").execute(&mut soc).unwrap_err();
        assert!(matches!(err, AttackError::BootDefeated { .. }));
    }

    #[test]
    fn bad_core_is_a_configuration_error() {
        let mut soc = prepared_pi4();
        let err = VoltBootAttack::new("TP15")
            .extraction(Extraction::Caches { cores: vec![9] })
            .execute(&mut soc)
            .unwrap_err();
        assert!(matches!(err, AttackError::BadConfiguration { .. }));
    }

    #[test]
    fn iram_extraction_on_pi_is_a_configuration_error() {
        let mut soc = prepared_pi4();
        let err = VoltBootAttack::new("TP15")
            .extraction(Extraction::IramJtag)
            .execute(&mut soc)
            .unwrap_err();
        assert!(matches!(err, AttackError::BadConfiguration { .. }));
    }

    #[test]
    fn passes_are_normalized_to_odd_in_range() {
        let a = VoltBootAttack::new("TP15");
        assert_eq!(a.clone().passes(0).normalized_passes(), 1);
        assert_eq!(a.clone().passes(1).normalized_passes(), 1);
        assert_eq!(a.clone().passes(2).normalized_passes(), 3);
        assert_eq!(a.clone().passes(3).normalized_passes(), 3);
        assert_eq!(a.clone().passes(14).normalized_passes(), 15);
        assert_eq!(a.passes(99).normalized_passes(), 15);
    }

    #[test]
    fn quiescent_multi_pass_is_bit_identical_to_single_pass() {
        let single = VoltBootAttack::new("TP15").execute(&mut prepared_pi4()).unwrap();
        let voted = VoltBootAttack::new("TP15").passes(3).execute(&mut prepared_pi4()).unwrap();
        assert_eq!(single.images, voted.images, "no faults: voting must change nothing");
        assert!(single.confidence.is_empty(), "single-pass carries no vote confidence");
        assert_eq!(voted.confidence.len(), voted.images.len());
        for c in &voted.confidence {
            assert_eq!(c.map.unanimous, c.map.total_bits, "clean reads agree everywhere");
            assert_eq!(c.map.votes, 2, "a clean cross-check stops after two passes");
        }
    }

    #[test]
    fn voting_repairs_readout_bit_errors() {
        let noisy = |passes: u32| {
            let mut soc = prepared_pi4();
            let before = soc.core(0).unwrap().l1i.way_image(0).unwrap();
            let ctx = AttackContext {
                recorder: Recorder::new(),
                faults: StepFaults {
                    readout_bit_error_fraction: fault::READOUT_ERROR_FRACTION,
                    readout_noise_seed: 0xBEEF,
                    ..StepFaults::none()
                },
            };
            let out =
                VoltBootAttack::new("TP15").passes(passes).execute_in(&mut soc, &ctx).unwrap();
            (out, before)
        };
        let (single, before) = noisy(1);
        let (voted, _) = noisy(3);
        let err1 = single.image("core0.l1i.way0").unwrap().bits.fractional_hamming(&before);
        let err3 = voted.image("core0.l1i.way0").unwrap().bits.fractional_hamming(&before);
        assert!(err1 > 0.0, "single-pass wire noise must corrupt bits");
        assert!(err3 < err1, "3-pass voting must strictly reduce errors: {err3} vs {err1}");
        let total = voted.confidence_total();
        assert!(total.repaired > 0, "disagreeing passes must repair bits");
        assert_eq!(
            total.unanimous + total.repaired + total.unresolved,
            total.total_bits,
            "every bit is classified exactly once"
        );
    }

    #[test]
    fn flaky_port_survives_multi_pass_but_kills_single_pass() {
        // A dropout seed that erases some but not all of 5 passes.
        let seed = (1u64..)
            .find(|&s| {
                let alive = (0..5).filter(|&p| !FaultPlan::pass_erased(s, p)).count();
                (1..5).contains(&alive)
            })
            .unwrap();
        let faults =
            StepFaults { extraction_dropout: true, dropout_seed: seed, ..StepFaults::none() };
        let ctx = AttackContext { recorder: Recorder::new(), faults };
        let err = VoltBootAttack::new("TP15").execute_in(&mut prepared_pi4(), &ctx).unwrap_err();
        assert!(matches!(err.error, AttackError::ExtractionDenied { .. }));
        let out =
            VoltBootAttack::new("TP15").passes(5).execute_in(&mut prepared_pi4(), &ctx).unwrap();
        assert!(!out.images.is_empty(), "surviving passes still yield images");
        assert!(out.confidence.iter().all(|c| c.map.votes >= 1));
    }

    #[test]
    fn all_passes_erased_denies_extraction() {
        let seed = (1u64..).find(|&s| (0..3).all(|p| FaultPlan::pass_erased(s, p))).unwrap();
        let faults =
            StepFaults { extraction_dropout: true, dropout_seed: seed, ..StepFaults::none() };
        let ctx = AttackContext { recorder: Recorder::new(), faults };
        let err = VoltBootAttack::new("TP15")
            .passes(3)
            .execute_in(&mut prepared_pi4(), &ctx)
            .unwrap_err();
        assert!(matches!(err.error, AttackError::ExtractionDenied { .. }));
        assert_eq!(err.steps.len(), 4, "all pre-extract steps completed");
    }

    #[test]
    fn outcome_integrity_checks_catch_tampering() {
        let mut outcome = VoltBootAttack::new("TP15").execute(&mut prepared_pi4()).unwrap();
        outcome.verify_integrity().unwrap();
        let victim = &mut outcome.images[0];
        let flipped = !victim.bits.get(3);
        victim.bits.set(3, flipped);
        assert!(matches!(
            outcome.verify_integrity().unwrap_err(),
            IntegrityError::CrcMismatch { .. }
        ));
    }
}
