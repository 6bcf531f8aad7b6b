//! The assembled SoC: cores, caches, memories, power network, boot flow.

use crate::boot::{BootOutcome, BootPolicy, BootRom, BootSource};
use crate::cache::{Backing, Cache, SecurityState};
use crate::debug::{ramindex_read, Jtag, RamId};
use crate::dram::Dram;
use crate::error::SocError;
use crate::iram::Iram;
use crate::regfile::VectorRegFile;
use std::time::Duration;
use voltboot_armlite::{Bus, BusFault, Cpu, Program, RamIndexRequest, RunExit};
use voltboot_pdn::{DisconnectOutcome, PowerNetwork, Probe, RailOutcome, ReconnectOrder};
use voltboot_sram::{par, OffEvent, RetentionReport, Temperature};
use voltboot_telemetry::Recorder;

/// One CPU core: an interpreter plus its private L1 caches and physical
/// NEON register file.
#[derive(Debug, Clone)]
pub struct Core {
    /// The architectural core.
    pub cpu: Cpu,
    /// Private L1 instruction cache.
    pub l1i: Cache,
    /// Private L1 data cache.
    pub l1d: Cache,
    /// Physical (SRAM) storage of `v0..v31`.
    pub vregs: VectorRegFile,
    /// The core's translation cache (also SRAM, also extractable).
    pub tlb: crate::tlb::Tlb,
    /// The core's branch target buffer (also SRAM, also extractable).
    pub btb: crate::btb::Btb,
    /// TrustZone world the core currently executes in.
    pub security: SecurityState,
}

/// Static description used to assemble a [`Soc`].
#[derive(Debug, Clone)]
pub struct SocConfig {
    /// SoC part name, e.g. `"BCM2711"`.
    pub soc_name: String,
    /// Board name, e.g. `"Raspberry Pi 4"`.
    pub board_name: String,
    /// CPU microarchitecture name, e.g. `"Cortex-A72"`.
    pub cpu_name: String,
    /// Number of cores.
    pub cores: usize,
    /// L1 instruction-cache geometry.
    pub l1i: crate::cache::CacheGeometry,
    /// L1 data-cache geometry.
    pub l1d: crate::cache::CacheGeometry,
    /// Shared L2 geometry.
    pub l2: crate::cache::CacheGeometry,
    /// DRAM size in bytes.
    pub dram_bytes: usize,
    /// Optional iRAM: `(base, size, rail name)`.
    pub iram: Option<(u64, usize, String)>,
    /// Rail feeding the cores and their L1 SRAM.
    pub core_rail: String,
    /// Rail feeding the L2 SRAM.
    pub l2_rail: String,
    /// The board's power network.
    pub network: PowerNetwork,
    /// Boot ROM behaviour.
    pub boot_rom: BootRom,
    /// Boot/countermeasure policy.
    pub policy: BootPolicy,
    /// JTAG port.
    pub jtag: Jtag,
    /// Seed for all SRAM process variation ("which physical die").
    pub seed: u64,
}

/// Parameters of one abrupt power cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerCycleSpec {
    /// How long the board stays without main power.
    pub off_duration: Duration,
    /// Ambient temperature during the cycle.
    pub temperature: Temperature,
}

impl PowerCycleSpec {
    /// A quick room-temperature cycle (a realistic manual re-plug takes
    /// hundreds of milliseconds; this is a generously fast one).
    pub fn quick() -> Self {
        PowerCycleSpec { off_duration: Duration::from_millis(500), temperature: Temperature::ROOM }
    }

    /// A cold-boot attempt: a few milliseconds at the given temperature.
    pub fn cold_boot(celsius: f64, off_ms: u64) -> Self {
        PowerCycleSpec {
            off_duration: Duration::from_millis(off_ms),
            temperature: Temperature::from_celsius(celsius),
        }
    }
}

/// Rail-level faults injected into one power cycle (the glitch surface a
/// real bench attack fights with: flaky contacts, marginal supplies, and
/// PMIC sequencing races). The default is no fault of any kind, and the
/// fault-free path through [`Soc::power_cycle_with`] is bit-identical to
/// [`Soc::power_cycle`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CycleFaults {
    /// A momentary brown-out while main power is off: every *held* rail's
    /// transient minimum is pulled down to this voltage (if lower than
    /// what the disconnect surge alone produced). A brown-out below the
    /// cells' DRV costs retention exactly like an undersized probe.
    pub brownout_min_voltage: Option<f64>,
    /// The PMIC restores rails in the wrong order at reconnect. Held
    /// rails see a small extra inrush dip
    /// ([`MISORDER_INRUSH_DIP_V`]) from the misordered load switch-on.
    pub reconnect_misorder: bool,
}

/// Extra transient dip (volts) a held rail suffers when the PMIC
/// re-sequences rails in the wrong order at reconnect.
pub const MISORDER_INRUSH_DIP_V: f64 = 0.05;

impl CycleFaults {
    /// No faults: the nominal cycle.
    pub fn none() -> Self {
        CycleFaults::default()
    }

    /// Whether any fault is armed.
    pub fn any(&self) -> bool {
        *self != CycleFaults::default()
    }
}

/// Everything a power cycle reported: the electrical outcome per rail and
/// the retention report of every SRAM array.
#[derive(Debug, Clone)]
pub struct PowerCycleReport {
    /// Electrical outcome of the disconnect.
    pub outcome: DisconnectOutcome,
    /// Retention reports keyed by array name.
    pub retention: Vec<RetentionReport>,
}

impl PowerCycleReport {
    /// Looks up one array's retention by name substring.
    pub fn retention_of(&self, name_fragment: &str) -> Option<&RetentionReport> {
        self.retention.iter().find(|r| r.name.contains(name_fragment))
    }
}

/// A simulated system-on-chip on its board.
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct Soc {
    soc_name: String,
    board_name: String,
    cpu_name: String,
    cores: Vec<Core>,
    l2: Cache,
    dram: Dram,
    iram: Option<Iram>,
    network: PowerNetwork,
    boot_rom: BootRom,
    policy: BootPolicy,
    jtag: Jtag,
    core_rail: String,
    l2_rail: String,
    iram_rail: Option<String>,
    ever_powered: bool,
    dram_remanence: crate::dram_remanence::DramRemanenceModel,
    dram_seed: u64,
    dram_decay_events: u64,
}

impl Soc {
    /// Assembles a board from its description.
    ///
    /// # Panics
    ///
    /// Panics if the config references rails absent from the network
    /// (a catalog bug, not a runtime condition).
    pub fn from_config(config: SocConfig) -> Self {
        let core_rail_voltage = config
            .network
            .pmic()
            .rail(&config.core_rail)
            .unwrap_or_else(|| panic!("unknown core rail {}", config.core_rail))
            .nominal_voltage;
        let l2_rail_voltage = config
            .network
            .pmic()
            .rail(&config.l2_rail)
            .unwrap_or_else(|| panic!("unknown l2 rail {}", config.l2_rail))
            .nominal_voltage;

        // Cores and their L1s sit on the same domain as power-hungry
        // compute logic: an abrupt unheld disconnect drains them faster.
        const CORE_DOMAIN_DRAIN: f64 = 4.0;

        let cores = (0..config.cores)
            .map(|i| Core {
                cpu: Cpu::new(0),
                l1i: Cache::new(
                    format!("core{i}.l1i"),
                    crate::cache::CacheKind::Instruction,
                    config.l1i,
                    core_rail_voltage,
                    CORE_DOMAIN_DRAIN,
                    config.seed ^ (0x1111 * (i as u64 + 1)),
                ),
                l1d: Cache::new(
                    format!("core{i}.l1d"),
                    crate::cache::CacheKind::Data,
                    config.l1d,
                    core_rail_voltage,
                    CORE_DOMAIN_DRAIN,
                    config.seed ^ (0x2222 * (i as u64 + 1)),
                ),
                vregs: VectorRegFile::new(
                    i,
                    core_rail_voltage,
                    CORE_DOMAIN_DRAIN,
                    config.seed ^ (0x3333 * (i as u64 + 1)),
                ),
                tlb: crate::tlb::Tlb::new(
                    i,
                    core_rail_voltage,
                    CORE_DOMAIN_DRAIN,
                    config.seed ^ (0x6666 * (i as u64 + 1)),
                ),
                btb: crate::btb::Btb::new(
                    i,
                    core_rail_voltage,
                    CORE_DOMAIN_DRAIN,
                    config.seed ^ (0x7777 * (i as u64 + 1)),
                ),
                security: SecurityState::Secure,
            })
            .collect();

        let iram_rail = config.iram.as_ref().map(|(_, _, rail)| rail.clone());
        let iram = config.iram.as_ref().map(|(base, size, rail)| {
            let v = config
                .network
                .pmic()
                .rail(rail)
                .unwrap_or_else(|| panic!("unknown iram rail {rail}"))
                .nominal_voltage;
            Iram::new(*base, *size, v, config.seed ^ 0x4444)
        });

        Soc {
            soc_name: config.soc_name,
            board_name: config.board_name,
            cpu_name: config.cpu_name,
            cores,
            l2: Cache::new(
                "l2",
                crate::cache::CacheKind::Unified,
                config.l2,
                l2_rail_voltage,
                1.0,
                config.seed ^ 0x5555,
            ),
            dram: Dram::new(config.dram_bytes),
            iram,
            network: config.network,
            boot_rom: config.boot_rom,
            policy: config.policy,
            jtag: config.jtag,
            core_rail: config.core_rail,
            l2_rail: config.l2_rail,
            iram_rail,
            ever_powered: false,
            dram_remanence: crate::dram_remanence::DramRemanenceModel::calibrated(),
            dram_seed: config.seed ^ 0xD7A3,
            dram_decay_events: 0,
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// SoC part name.
    pub fn soc_name(&self) -> &str {
        &self.soc_name
    }

    /// Board name.
    pub fn board_name(&self) -> &str {
        &self.board_name
    }

    /// CPU microarchitecture name.
    pub fn cpu_name(&self) -> &str {
        &self.cpu_name
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Immutable access to a core.
    ///
    /// # Errors
    ///
    /// [`SocError::NoSuchCore`].
    pub fn core(&self, i: usize) -> Result<&Core, SocError> {
        self.cores.get(i).ok_or(SocError::NoSuchCore { core: i })
    }

    /// Mutable access to a core.
    ///
    /// # Errors
    ///
    /// [`SocError::NoSuchCore`].
    pub fn core_mut(&mut self, i: usize) -> Result<&mut Core, SocError> {
        self.cores.get_mut(i).ok_or(SocError::NoSuchCore { core: i })
    }

    /// The shared L2.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// The DRAM.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Mutable DRAM access (e.g. for seeding victim data).
    pub fn dram_mut(&mut self) -> &mut Dram {
        &mut self.dram
    }

    /// The iRAM, if the device has one.
    pub fn iram(&self) -> Option<&Iram> {
        self.iram.as_ref()
    }

    /// Mutable iRAM access.
    pub fn iram_mut(&mut self) -> Option<&mut Iram> {
        self.iram.as_mut()
    }

    /// The board's power network.
    pub fn network(&self) -> &PowerNetwork {
        &self.network
    }

    /// Mutable power-network access.
    pub fn network_mut(&mut self) -> &mut PowerNetwork {
        &mut self.network
    }

    /// The active boot/countermeasure policy.
    pub fn policy(&self) -> BootPolicy {
        self.policy
    }

    /// Replaces the policy (used by the countermeasure experiments).
    pub fn set_policy(&mut self, policy: BootPolicy) {
        self.policy = policy;
    }

    /// The boot ROM description.
    pub fn boot_rom(&self) -> &BootRom {
        &self.boot_rom
    }

    // ------------------------------------------------------------------
    // Power management
    // ------------------------------------------------------------------

    /// Initial board bring-up: powers every SRAM array (first power-on
    /// leaves them in their power-up states). Each array owes that state
    /// rather than sampling it: a tile is sampled when something first
    /// reads it or writes part of it, and never if a write covers it
    /// whole first, so bring-up itself samples nothing. Independent
    /// arrays power on in parallel; each array's contents are a pure
    /// function of its own seed, so the result is identical to the
    /// sequential order.
    pub fn power_on_all(&mut self) {
        let _ = Self::power_on_arrays(
            &mut self.cores,
            &mut self.l2,
            self.iram.as_mut(),
            &Recorder::disabled(),
        );
        self.sync_cpu_regs_from_sram();
        self.ever_powered = true;
    }

    /// Powers every SRAM array on across threads, returning the reports
    /// in the canonical order (per core: l1i, l1d, vregs, tlb, btb; then
    /// l2; then iram). The first error, if any, is returned after every
    /// array has completed its transition.
    fn power_on_arrays(
        cores: &mut [Core],
        l2: &mut Cache,
        iram: Option<&mut Iram>,
        rec: &Recorder,
    ) -> Result<Vec<RetentionReport>, SocError> {
        type Job<'a> = Box<dyn FnOnce() -> Result<RetentionReport, SocError> + Send + 'a>;
        // Jobs run on worker threads in nondeterministic order, so they
        // record only counters and histograms (commutative merges) —
        // never events, spans, or gauges.
        let mut jobs: Vec<Job<'_>> = Vec::new();
        for core in cores {
            let Core { l1i, l1d, vregs, tlb, btb, .. } = core;
            jobs.push(Box::new(|| l1i.power_on_traced(rec)));
            jobs.push(Box::new(|| l1d.power_on_traced(rec)));
            jobs.push(Box::new(|| vregs.power_on_traced(rec)));
            jobs.push(Box::new(|| tlb.power_on_traced(rec)));
            jobs.push(Box::new(|| btb.power_on_traced(rec)));
        }
        jobs.push(Box::new(|| l2.power_on_traced(rec)));
        if let Some(iram) = iram {
            jobs.push(Box::new(|| iram.power_on_traced(rec)));
        }
        par::join_all(jobs).into_iter().collect()
    }

    /// Attaches an external probe at a PCB pad.
    ///
    /// # Errors
    ///
    /// Propagates [`voltboot_pdn::PdnError`] wrapped in [`SocError::Pdn`].
    pub fn attach_probe(&mut self, pad: &str, probe: Probe) -> Result<(), SocError> {
        Ok(self.network.attach_probe(pad, probe)?)
    }

    /// Abruptly cuts main power, waits, and restores it.
    ///
    /// Every SRAM array resolves its contents against the electrical
    /// outcome of its own rail: held rails retain (subject to surge
    /// droop), unheld rails decay at `spec.temperature`. Cores reset; the
    /// interpreter's NEON registers are reloaded from the (physical)
    /// register-file SRAM, so they come back holding whatever the SRAM
    /// kept.
    ///
    /// ```rust
    /// use voltboot_pdn::Probe;
    /// use voltboot_soc::{devices, PowerCycleSpec};
    ///
    /// let mut soc = devices::raspberry_pi_4(1);
    /// soc.power_on_all();
    /// soc.attach_probe("TP15", Probe::bench_supply(0.8, 3.0))?;
    /// let report = soc.power_cycle(PowerCycleSpec::quick())?;
    /// assert!(report.outcome.rail("VDD_CORE").unwrap().is_held());
    /// assert_eq!(report.retention_of("core0.l1d.data").unwrap().lost, 0);
    /// # Ok::<(), voltboot_soc::SocError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`SocError::NotPowered`] if the board was never brought up, or
    /// power-network errors.
    pub fn power_cycle(&mut self, spec: PowerCycleSpec) -> Result<PowerCycleReport, SocError> {
        self.power_cycle_with(spec, CycleFaults::none(), &Recorder::disabled())
    }

    /// [`Soc::power_cycle`] with injected rail faults and telemetry.
    ///
    /// With `faults == CycleFaults::none()` and a disabled recorder this
    /// is exactly `power_cycle`: the plain entry point delegates here, so
    /// the fault-free outcome is bit-identical by construction.
    ///
    /// # Errors
    ///
    /// [`SocError::NotPowered`] if the board was never brought up, or
    /// power-network errors.
    pub fn power_cycle_with(
        &mut self,
        spec: PowerCycleSpec,
        faults: CycleFaults,
        rec: &Recorder,
    ) -> Result<PowerCycleReport, SocError> {
        if !self.ever_powered {
            return Err(SocError::NotPowered);
        }
        let span = rec.span("soc.power_cycle");
        rec.incr("soc.power_cycles", 1);
        // Architectural registers live in SRAM across the cycle.
        self.sync_sram_regs_from_cpu();

        let outcome = self.network.disconnect_main_traced(rec)?;
        if let Some(v) = faults.brownout_min_voltage {
            rec.event("soc.fault.brownout", &format!("rails browned out to {v} V"));
        }
        let core_event = Self::faulted_rail_event(outcome.rail(&self.core_rail), faults, rec);
        let l2_event = Self::faulted_rail_event(outcome.rail(&self.l2_rail), faults, rec);
        let iram_event = self
            .iram_rail
            .as_deref()
            .map(|rail| Self::faulted_rail_event(outcome.rail(rail), faults, rec))
            .unwrap_or(OffEvent::Unpowered);

        for core in &mut self.cores {
            let _ = core.l1i.power_off(core_event);
            let _ = core.l1d.power_off(core_event);
            let _ = core.vregs.power_off(core_event);
            let _ = core.tlb.power_off(core_event);
            let _ = core.btb.power_off(core_event);
            core.l1i.elapse(spec.off_duration, spec.temperature);
            core.l1d.elapse(spec.off_duration, spec.temperature);
            core.vregs.elapse(spec.off_duration, spec.temperature);
            core.tlb.elapse(spec.off_duration, spec.temperature);
            core.btb.elapse(spec.off_duration, spec.temperature);
        }
        let _ = self.l2.power_off(l2_event);
        self.l2.elapse(spec.off_duration, spec.temperature);
        if let Some(iram) = &mut self.iram {
            let _ = iram.power_off(iram_event);
            iram.elapse(spec.off_duration, spec.temperature);
        }

        // Off-chip DRAM loses refresh whenever main power is cut (a held
        // SRAM rail does not refresh the DRAM): charged cells decay
        // toward their ground state at the ambient temperature. The DRAM
        // queues the step and applies it to each page on first touch.
        let event = self.dram_decay_events;
        self.dram_decay_events += 1;
        if let Some(step) = crate::dram_remanence::DecayStep::new(
            &self.dram_remanence,
            spec.off_duration,
            spec.temperature,
            self.dram_seed,
            event,
        ) {
            self.dram.queue_decay(step);
        }

        // The decay window on the scope: each SRAM rail sits at its held
        // voltage (or zero) for the whole off interval. Sampled at the
        // window's edges so the waveform export shows the flat-top (or
        // flat-zero) stretch between the disconnect surge and the
        // reconnect staircase.
        let off_ns = u64::try_from(spec.off_duration.as_nanos()).unwrap_or(u64::MAX);
        if rec.is_enabled() {
            let held_v = |event: OffEvent| match event {
                OffEvent::Held { voltage, .. } => voltage,
                OffEvent::Unpowered => 0.0,
            };
            let mut sampled: Vec<&str> = Vec::new();
            let mut rails: Vec<(&str, OffEvent)> =
                vec![(self.core_rail.as_str(), core_event), (self.l2_rail.as_str(), l2_event)];
            if let Some(rail) = self.iram_rail.as_deref() {
                rails.push((rail, iram_event));
            }
            for (rail, event) in rails {
                if sampled.contains(&rail) {
                    continue;
                }
                sampled.push(rail);
                let chan = format!("pdn.{rail}.v");
                let t0 = rec.now_ns();
                rec.sample_at(&chan, t0, held_v(event));
                rec.sample_at(&chan, t0.saturating_add(off_ns), held_v(event));
            }
        }

        // The off interval passes on the virtual clock.
        rec.advance(off_ns);

        let order = if faults.reconnect_misorder {
            rec.event("soc.fault.reconnect_misorder", "pmic restored rails in reverse order");
            ReconnectOrder::Reversed
        } else {
            ReconnectOrder::PmicSequence
        };
        self.network.reconnect_main_with(order, rec)?;

        let retention =
            Self::power_on_arrays(&mut self.cores, &mut self.l2, self.iram.as_mut(), rec)?;

        // Cores reset; NEON registers resolve from their SRAM.
        for core in &mut self.cores {
            core.cpu = Cpu::new(0);
            core.security = SecurityState::Secure;
        }
        self.sync_cpu_regs_from_sram();
        span.attr("off_ns", off_ns);
        span.attr("temp_c", spec.temperature.celsius());
        span.end();

        Ok(PowerCycleReport { outcome, retention })
    }

    fn rail_event(outcome: Option<&RailOutcome>) -> OffEvent {
        match outcome.and_then(|r| r.held) {
            Some(t) => OffEvent::held_with_droop(t.steady_voltage, t.min_voltage),
            None => OffEvent::Unpowered,
        }
    }

    /// [`Soc::rail_event`] with the cycle's injected faults folded into a
    /// held rail's transient minimum. A fault-free `faults` returns the
    /// plain event untouched.
    fn faulted_rail_event(
        outcome: Option<&RailOutcome>,
        faults: CycleFaults,
        rec: &Recorder,
    ) -> OffEvent {
        let event = Self::rail_event(outcome);
        let OffEvent::Held { voltage, transient_min_voltage } = event else {
            return event;
        };
        let mut tmin = transient_min_voltage;
        if let Some(v) = faults.brownout_min_voltage {
            if v < tmin {
                tmin = v;
                rec.incr("soc.fault.brownout_rails", 1);
            }
        }
        if faults.reconnect_misorder {
            tmin = (tmin - MISORDER_INRUSH_DIP_V).max(0.0);
            rec.incr("soc.fault.misorder_dips", 1);
        }
        OffEvent::held_with_droop(voltage, tmin)
    }

    fn sync_sram_regs_from_cpu(&mut self) {
        for core in &mut self.cores {
            let _ = core.vregs.store(core.cpu.vector_file());
        }
    }

    fn sync_cpu_regs_from_sram(&mut self) {
        for core in &mut self.cores {
            if let Ok(file) = core.vregs.load() {
                core.cpu.set_vector_file(file);
            }
        }
    }

    // ------------------------------------------------------------------
    // Boot
    // ------------------------------------------------------------------

    /// Runs the boot flow after power is restored.
    ///
    /// # Errors
    ///
    /// [`SocError::BootRejected`] when authenticated boot refuses the
    /// image or the source is unsupported, plus SRAM failures.
    pub fn boot(&mut self, source: BootSource) -> Result<BootOutcome, SocError> {
        self.boot_traced(source, &Recorder::disabled())
    }

    /// [`Soc::boot`] with telemetry: a `soc.boot` span carrying the
    /// outcome as attributes (`mbist_ran`, `l2_clobbered`,
    /// `iram_bytes_clobbered`), with zero-width `soc.boot.reset` /
    /// `soc.boot.clobber` / `soc.boot.load` stage spans marking the
    /// flow. The spans deliberately do not advance the virtual clock —
    /// the attack layer owns reboot wall time (its `attack.reboot`
    /// step advances the modelled boot duration), so advancing here
    /// would double-count it.
    ///
    /// # Errors
    ///
    /// Same as [`Soc::boot`].
    pub fn boot_traced(
        &mut self,
        source: BootSource,
        rec: &Recorder,
    ) -> Result<BootOutcome, SocError> {
        let span = rec.span("soc.boot");
        rec.incr("soc.boots", 1);
        let stage = |name: &str| rec.span(name).end();
        stage("soc.boot.reset");
        let mut mbist_ran = false;
        if self.policy.mbist_reset {
            for core in &mut self.cores {
                core.l1i.hardware_reset()?;
                core.l1d.hardware_reset()?;
            }
            self.l2.hardware_reset()?;
            if let Some(iram) = &mut self.iram {
                iram.hardware_reset()?;
            }
            mbist_ran = true;
        } else if self.policy.l2_reset_pin {
            self.l2.hardware_reset()?;
        }

        // Firmware clobbering.
        stage("soc.boot.clobber");
        let mut l2_clobbered = false;
        if self.boot_rom.clobbers_l2 {
            let rom = self.boot_rom.clone();
            self.l2.fill_data_with(|i| rom.junk_byte(i))?;
            l2_clobbered = true;
        }
        let mut iram_bytes_clobbered = 0usize;
        if let Some(iram) = &mut self.iram {
            let base = iram.base();
            for region in self.boot_rom.iram_clobbers.clone() {
                let junk: Vec<u8> =
                    (region.start..region.end).map(|i| self.boot_rom.junk_byte(i)).collect();
                iram.write(base + region.start as u64, &junk)?;
                iram_bytes_clobbered += region.len();
            }
        }

        // DRAM scrambler keys rotate at every boot.
        self.dram.rotate_scramble_key(self.boot_rom.junk_seed ^ 0x9d0f);

        stage("soc.boot.load");
        let entry = match source {
            BootSource::InternalRom => {
                if !self.boot_rom.boots_from_internal_rom {
                    return Err(SocError::BootRejected {
                        reason: "device requires external boot media".into(),
                    });
                }
                0
            }
            BootSource::ExternalMedia { image, entry, signed } => {
                if self.policy.mandated_authenticated_boot && !signed {
                    return Err(SocError::BootRejected {
                        reason: "unsigned image with authenticated boot fused on".into(),
                    });
                }
                self.dram.write(entry, &image)?;
                entry
            }
        };

        for core in &mut self.cores {
            core.cpu.set_pc(entry);
        }
        span.attr("mbist_ran", mbist_ran);
        span.attr("l2_clobbered", l2_clobbered);
        span.attr("iram_bytes_clobbered", iram_bytes_clobbered);
        span.end();
        Ok(BootOutcome { entry, l2_clobbered, iram_bytes_clobbered, mbist_ran })
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Enables (invalidate + enable) a core's L1 caches, as victim boot
    /// code does before running cached.
    pub fn enable_caches(&mut self, core: usize) {
        if let Some(c) = self.cores.get_mut(core) {
            let _ = c.l1i.invalidate_all();
            let _ = c.l1d.invalidate_all();
            c.l1i.set_enabled(true);
            c.l1d.set_enabled(true);
        }
    }

    /// Enables the shared L2.
    pub fn enable_l2(&mut self) {
        let _ = self.l2.invalidate_all();
        self.l2.set_enabled(true);
    }

    /// Loads `program` into DRAM at `load_addr` (as firmware would,
    /// bypassing caches), invalidates the core's i-cache tags for
    /// coherence (the loader's `IC IALLU`), points the core there, and
    /// runs it.
    ///
    /// On completion the core's NEON registers are synced back to their
    /// SRAM storage.
    pub fn run_program(
        &mut self,
        core: usize,
        program: &Program,
        load_addr: u64,
        max_steps: u64,
    ) -> RunExit {
        if self.dram.write(load_addr, &program.bytes()).is_err() {
            return RunExit::Fault(BusFault::Unmapped { addr: load_addr }, load_addr);
        }
        // Coherence: writing code behind enabled caches requires
        // invalidation to the point of unification, or the core fetches
        // stale instructions (from L1I or L2).
        let _ = self.cores[core].l1i.invalidate_all();
        let _ = self.l2.invalidate_va_range(load_addr, program.byte_len() as u64);
        self.cores[core].cpu.set_pc(load_addr);
        self.run_core(core, max_steps)
    }

    /// Resumes a core from its current PC for up to `max_steps`.
    pub fn run_core(&mut self, core: usize, max_steps: u64) -> RunExit {
        let trustzone = self.policy.trustzone_enforced;
        let c = &mut self.cores[core];
        let Core { cpu, l1i, l1d, tlb, btb, security, .. } = c;
        let mut bus = CoreBus {
            l1i,
            l1d,
            tlb,
            btb,
            l2: &mut self.l2,
            dram: &mut self.dram,
            iram: self.iram.as_mut(),
            security: *security,
            trustzone,
        };
        let exit = cpu.run(&mut bus, max_steps);
        let _ = c.vregs.store(c.cpu.vector_file());
        exit
    }

    /// Gates one core's power domain off and on again at *runtime* (the
    /// PMU's fine-grained control from §2.3: domains "allow full power
    /// down at runtime when not needed"). The gate is internal — no
    /// external pin is involved — so the core's SRAMs lose their state,
    /// which is why DVFS frameworks must save/restore architectural
    /// state around such transitions, and why an *internal* power toggle
    /// at reset is an effective countermeasure (§8).
    ///
    /// # Errors
    ///
    /// [`SocError::NoSuchCore`] or SRAM failures.
    pub fn runtime_gate_core(&mut self, core: usize, gap: Duration) -> Result<(), SocError> {
        let c = self.cores.get_mut(core).ok_or(SocError::NoSuchCore { core })?;
        let _ = c.vregs.store(c.cpu.vector_file());
        c.l1i.power_off(OffEvent::Unpowered)?;
        c.l1d.power_off(OffEvent::Unpowered)?;
        c.vregs.power_off(OffEvent::Unpowered)?;
        c.tlb.power_off(OffEvent::Unpowered)?;
        c.btb.power_off(OffEvent::Unpowered)?;
        let t = Temperature::ROOM;
        c.l1i.elapse(gap, t);
        c.l1d.elapse(gap, t);
        c.vregs.elapse(gap, t);
        c.tlb.elapse(gap, t);
        c.btb.elapse(gap, t);
        c.l1i.power_on()?;
        c.l1d.power_on()?;
        c.vregs.power_on()?;
        c.tlb.power_on()?;
        c.btb.power_on()?;
        c.cpu = Cpu::new(0);
        if let Ok(file) = c.vregs.load() {
            c.cpu.set_vector_file(file);
        }
        Ok(())
    }

    /// Injects one background (OS-noise) line fill into `core`'s L1D:
    /// the line containing `addr` is brought in, evicting the set's
    /// victim way if needed. Returns the way filled, or `None` if the
    /// cache is disabled or fully locked.
    ///
    /// # Errors
    ///
    /// [`SocError::NoSuchCore`] or memory-system failures.
    pub fn inject_noise_line(&mut self, core: usize, addr: u64) -> Result<Option<usize>, SocError> {
        let c = self.cores.get_mut(core).ok_or(SocError::NoSuchCore { core })?;
        let (_, set, _) = c.l1d.geometry().split(addr);
        let mut lower = L2Backing {
            l2: &mut self.l2,
            dram: &mut self.dram,
            security: SecurityState::NonSecure,
        };
        c.l1d.evict_one(
            set,
            addr & !(c.l1d.geometry().line_bytes as u64 - 1),
            SecurityState::NonSecure,
            &mut lower,
        )
    }

    // ------------------------------------------------------------------
    // Debug / extraction interfaces
    // ------------------------------------------------------------------

    /// Host-side `RAMINDEX` read (what the attacker's EL3 extraction
    /// image performs per beat).
    ///
    /// # Errors
    ///
    /// [`SocError::NoSuchCore`], range errors, or
    /// [`SocError::TrustZoneViolation`] under enforcement.
    pub fn ramindex(
        &self,
        core: usize,
        ram: RamId,
        way: u8,
        index: u32,
        requester_secure: bool,
    ) -> Result<[u64; 4], SocError> {
        let c = self.core(core)?;
        let (cache, is_data) = match ram {
            RamId::L1ITag => (&c.l1i, false),
            RamId::L1IData => (&c.l1i, true),
            RamId::L1DTag => (&c.l1d, false),
            RamId::L1DData => (&c.l1d, true),
            RamId::Tlb => {
                let word = c.tlb.entry_word(index as usize)?;
                return Ok([word, 0, 0, 0]);
            }
            RamId::Btb => {
                let word = c.btb.entry_word(index as usize)?;
                return Ok([word, 0, 0, 0]);
            }
        };
        ramindex_read(cache, is_data, way, index, self.policy.trustzone_enforced, requester_secure)
    }

    /// Reads one whole readout unit — a data-RAM way, or the full
    /// TLB/BTB entry RAM — through the `RAMINDEX` path, returning its
    /// bytes in index order. This is the granularity the voted
    /// multi-pass extraction re-reads selectively; issuing the
    /// individual [`Soc::ramindex`] beats yields identical bytes.
    ///
    /// # Errors
    ///
    /// Same classes as [`Soc::ramindex`]. Tag RAMs are not readable as
    /// a unit ([`SocError::UnknownRamId`]).
    pub fn ramindex_unit(
        &self,
        core: usize,
        ram: RamId,
        way: u8,
        requester_secure: bool,
    ) -> Result<Vec<u8>, SocError> {
        self.ramindex_unit_traced(core, ram, way, requester_secure, &Recorder::disabled())
    }

    /// [`Soc::ramindex_unit`] with telemetry: a `soc.ramindex.unit_reads`
    /// counter and a `soc.ramindex.unit_bytes` histogram of readout
    /// sizes. No virtual time passes here — the attack layer owns
    /// extraction timing (its `attack.extract` step advances the
    /// modelled dump duration per image).
    ///
    /// # Errors
    ///
    /// Same as [`Soc::ramindex_unit`].
    pub fn ramindex_unit_traced(
        &self,
        core: usize,
        ram: RamId,
        way: u8,
        requester_secure: bool,
        rec: &Recorder,
    ) -> Result<Vec<u8>, SocError> {
        let mut bytes = Vec::new();
        self.ramindex_unit_into(core, ram, way, requester_secure, rec, &mut bytes)?;
        Ok(bytes)
    }

    /// [`Soc::ramindex_unit_traced`] reading into a caller-supplied
    /// buffer (cleared first) instead of allocating one per read — the
    /// allocation-free entry point the voted multi-pass extraction
    /// drives with arena-recycled dump buffers. Bytes and telemetry are
    /// identical to [`Soc::ramindex_unit_traced`].
    ///
    /// # Errors
    ///
    /// Same as [`Soc::ramindex_unit`]; on error `out`'s contents are
    /// unspecified (a partial read).
    pub fn ramindex_unit_into(
        &self,
        core: usize,
        ram: RamId,
        way: u8,
        requester_secure: bool,
        rec: &Recorder,
        out: &mut Vec<u8>,
    ) -> Result<(), SocError> {
        out.clear();
        self.ramindex_unit_inner(core, ram, way, requester_secure, out)?;
        rec.incr("soc.ramindex.unit_reads", 1);
        rec.record("soc.ramindex.unit_bytes", out.len() as u64);
        Ok(())
    }

    fn ramindex_unit_inner(
        &self,
        core: usize,
        ram: RamId,
        way: u8,
        requester_secure: bool,
        out: &mut Vec<u8>,
    ) -> Result<(), SocError> {
        let c = self.core(core)?;
        let cache = match ram {
            RamId::L1IData => &c.l1i,
            RamId::L1DData => &c.l1d,
            RamId::Tlb => {
                out.reserve(crate::tlb::TLB_ENTRIES * 8);
                for entry in 0..crate::tlb::TLB_ENTRIES {
                    out.extend_from_slice(&c.tlb.entry_word(entry)?.to_le_bytes());
                }
                return Ok(());
            }
            RamId::Btb => {
                out.reserve(crate::btb::BTB_ENTRIES * 8);
                for entry in 0..crate::btb::BTB_ENTRIES {
                    out.extend_from_slice(&c.btb.entry_word(entry)?.to_le_bytes());
                }
                return Ok(());
            }
            RamId::L1ITag | RamId::L1DTag => {
                return Err(SocError::UnknownRamId { ramid: ram.code() })
            }
        };
        crate::debug::ramindex_read_way_into(
            cache,
            way,
            self.policy.trustzone_enforced,
            requester_secure,
            out,
        )
    }

    /// Reads physical memory over JTAG (iRAM or DRAM), bypassing the CPU.
    ///
    /// # Errors
    ///
    /// [`SocError::NoJtag`] when the port is absent,
    /// [`SocError::Unmapped`] for undecoded addresses.
    pub fn jtag_read(&self, addr: u64, len: usize) -> Result<Vec<u8>, SocError> {
        self.jtag.require()?;
        if let Some(iram) = &self.iram {
            if iram.contains(addr) {
                return iram.read(addr, len);
            }
        }
        self.dram.read(addr, len)
    }

    /// Writes physical memory over JTAG.
    ///
    /// # Errors
    ///
    /// [`SocError::NoJtag`] when the port is absent,
    /// [`SocError::Unmapped`] for undecoded addresses.
    pub fn jtag_write(&mut self, addr: u64, data: &[u8]) -> Result<(), SocError> {
        self.jtag.require()?;
        if let Some(iram) = &mut self.iram {
            if iram.contains(addr) {
                return iram.write(addr, data);
            }
        }
        self.dram.write(addr, data)
    }
}

/// The per-core view of the memory system, implementing the armlite
/// [`Bus`].
struct CoreBus<'a> {
    l1i: &'a mut Cache,
    l1d: &'a mut Cache,
    tlb: &'a mut crate::tlb::Tlb,
    btb: &'a mut crate::btb::Btb,
    l2: &'a mut Cache,
    dram: &'a mut Dram,
    iram: Option<&'a mut Iram>,
    security: SecurityState,
    trustzone: bool,
}

/// Adapter presenting `L2 → DRAM` as a [`Backing`] for the L1s.
struct L2Backing<'a> {
    l2: &'a mut Cache,
    dram: &'a mut Dram,
    security: SecurityState,
}

impl Backing for L2Backing<'_> {
    fn read_line(&mut self, line_addr: u64, buf: &mut [u8]) -> Result<(), SocError> {
        self.l2.read(line_addr, buf, self.security, self.dram)
    }

    fn write_line(&mut self, line_addr: u64, buf: &[u8]) -> Result<(), SocError> {
        self.l2.write(line_addr, buf, self.security, self.dram)
    }
}

fn to_bus_fault(addr: u64, e: SocError) -> BusFault {
    match e {
        SocError::TrustZoneViolation => BusFault::SecureViolation { addr },
        SocError::RamIndexOutOfRange { .. } | SocError::Unmapped { .. } => {
            BusFault::Unmapped { addr }
        }
        _ => BusFault::Unmapped { addr },
    }
}

impl CoreBus<'_> {
    fn in_iram(&self, addr: u64) -> bool {
        self.iram.as_ref().is_some_and(|i| i.contains(addr))
    }
}

impl Bus for CoreBus<'_> {
    fn read(&mut self, addr: u64, size: u8) -> Result<u64, BusFault> {
        if !addr.is_multiple_of(size as u64) {
            return Err(BusFault::Misaligned { addr, size });
        }
        let _ = self.tlb.touch(addr);
        let mut buf = [0u8; 8];
        if self.in_iram(addr) {
            // iRAM is device memory here: uncached direct access.
            let iram = self.iram.as_mut().expect("checked");
            let bytes = iram.read(addr, size as usize).map_err(|e| to_bus_fault(addr, e))?;
            buf[..size as usize].copy_from_slice(&bytes);
        } else {
            let mut lower = L2Backing { l2: self.l2, dram: self.dram, security: self.security };
            self.l1d
                .read(addr, &mut buf[..size as usize], self.security, &mut lower)
                .map_err(|e| to_bus_fault(addr, e))?;
        }
        Ok(u64::from_le_bytes(buf))
    }

    fn write(&mut self, addr: u64, size: u8, value: u64) -> Result<(), BusFault> {
        if !addr.is_multiple_of(size as u64) {
            return Err(BusFault::Misaligned { addr, size });
        }
        let _ = self.tlb.touch(addr);
        let bytes = value.to_le_bytes();
        if self.in_iram(addr) {
            let iram = self.iram.as_mut().expect("checked");
            iram.write(addr, &bytes[..size as usize]).map_err(|e| to_bus_fault(addr, e))
        } else {
            let mut lower = L2Backing { l2: self.l2, dram: self.dram, security: self.security };
            self.l1d
                .write(addr, &bytes[..size as usize], self.security, &mut lower)
                .map_err(|e| to_bus_fault(addr, e))
        }
    }

    fn fetch(&mut self, addr: u64) -> Result<u32, BusFault> {
        if !addr.is_multiple_of(4) {
            return Err(BusFault::Misaligned { addr, size: 4 });
        }
        let _ = self.tlb.touch(addr);
        let mut buf = [0u8; 4];
        if self.in_iram(addr) {
            let iram = self.iram.as_mut().expect("checked");
            let bytes = iram.read(addr, 4).map_err(|e| to_bus_fault(addr, e))?;
            buf.copy_from_slice(&bytes);
        } else {
            let mut lower = L2Backing { l2: self.l2, dram: self.dram, security: self.security };
            self.l1i
                .read(addr, &mut buf, self.security, &mut lower)
                .map_err(|e| to_bus_fault(addr, e))?;
        }
        Ok(u32::from_le_bytes(buf))
    }

    fn dc_zva(&mut self, addr: u64) -> Result<(), BusFault> {
        let mut lower = L2Backing { l2: self.l2, dram: self.dram, security: self.security };
        self.l1d.zero_va(addr, self.security, &mut lower).map_err(|e| to_bus_fault(addr, e))
    }

    fn dc_clean_invalidate(&mut self, addr: u64) -> Result<(), BusFault> {
        let mut lower = L2Backing { l2: self.l2, dram: self.dram, security: self.security };
        self.l1d.clean_invalidate_va(addr, &mut lower).map_err(|e| to_bus_fault(addr, e))
    }

    fn dc_clean(&mut self, addr: u64) -> Result<(), BusFault> {
        let mut lower = L2Backing { l2: self.l2, dram: self.dram, security: self.security };
        self.l1d.clean_va(addr, &mut lower).map_err(|e| to_bus_fault(addr, e))
    }

    fn ic_invalidate_all(&mut self) -> Result<(), BusFault> {
        self.l1i.invalidate_all().map_err(|e| to_bus_fault(0, e))
    }

    fn ramindex(
        &mut self,
        el: u8,
        req: RamIndexRequest,
        _barriers_ok: bool,
    ) -> Result<[u64; 4], BusFault> {
        if el < 3 {
            return Err(BusFault::PermissionDenied { required_el: 3 });
        }
        let ram = RamId::from_code(req.ramid).map_err(|e| to_bus_fault(0, e))?;
        let (cache, is_data) = match ram {
            RamId::L1ITag => (&*self.l1i, false),
            RamId::L1IData => (&*self.l1i, true),
            RamId::L1DTag => (&*self.l1d, false),
            RamId::L1DData => (&*self.l1d, true),
            RamId::Tlb => {
                let word =
                    self.tlb.entry_word(req.index as usize).map_err(|e| to_bus_fault(0, e))?;
                return Ok([word, 0, 0, 0]);
            }
            RamId::Btb => {
                let word =
                    self.btb.entry_word(req.index as usize).map_err(|e| to_bus_fault(0, e))?;
                return Ok([word, 0, 0, 0]);
            }
        };
        ramindex_read(
            cache,
            is_data,
            req.way,
            req.index,
            self.trustzone,
            self.security == SecurityState::Secure,
        )
        .map_err(|e| to_bus_fault(0, e))
    }

    fn zva_block_size(&self) -> u64 {
        self.l1d.geometry().line_bytes as u64
    }

    fn branch_hint(&mut self, pc: u64, target: u64) {
        let _ = self.btb.record(pc, target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices;
    use voltboot_armlite::program::builders;

    fn pi4() -> Soc {
        let mut soc = devices::raspberry_pi_4(42);
        soc.power_on_all();
        soc
    }

    #[test]
    fn catalog_metadata() {
        let soc = pi4();
        assert_eq!(soc.soc_name(), "BCM2711");
        assert_eq!(soc.core_count(), 4);
        assert!(soc.iram().is_none());
        assert!(soc.core(4).is_err());
    }

    #[test]
    fn runs_a_program_through_the_caches() {
        let mut soc = pi4();
        soc.enable_caches(0);
        let exit = soc.run_program(0, &builders::nop_sled(128), 0x10000, 100_000);
        assert_eq!(exit, RunExit::Halted(0));
        // The sled must now be visible in the raw i-cache image.
        let image = soc.core(0).unwrap().l1i.way_image(0).unwrap();
        let nops = image
            .to_bytes()
            .chunks_exact(4)
            .filter(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]) == 0xD503201F)
            .count();
        assert!(nops >= 64, "expected many NOP words in the i-cache, found {nops}");
    }

    #[test]
    fn data_writes_land_in_l1d() {
        let mut soc = pi4();
        soc.enable_caches(0);
        let exit =
            soc.run_program(0, &builders::fill_bytes(0x80000, 0xAA, 1024), 0x10000, 1_000_000);
        assert_eq!(exit, RunExit::Halted(0));
        let w0 = soc.core(0).unwrap().l1d.way_image(0).unwrap().to_bytes();
        let w1 = soc.core(0).unwrap().l1d.way_image(1).unwrap().to_bytes();
        let count = w0.iter().chain(w1.iter()).filter(|&&b| b == 0xAA).count();
        assert!(count >= 1024, "0xAA bytes in L1D: {count}");
    }

    #[test]
    fn held_power_cycle_retains_caches() {
        let mut soc = pi4();
        soc.enable_caches(0);
        soc.run_program(0, &builders::nop_sled(256), 0x10000, 100_000);
        let before = soc.core(0).unwrap().l1i.way_image(0).unwrap();

        soc.attach_probe("TP15", Probe::bench_supply(0.8, 3.0)).unwrap();
        let report = soc.power_cycle(PowerCycleSpec::quick()).unwrap();
        assert!(report.outcome.rail("VDD_CORE").unwrap().is_held());
        let after = soc.core(0).unwrap().l1i.way_image(0).unwrap();
        assert_eq!(before, after, "held cycle must retain the i-cache exactly");
        assert_eq!(report.retention_of("core0.l1i.data").unwrap().lost, 0);
    }

    #[test]
    fn brownout_below_drv_defeats_a_held_cycle() {
        let mut soc = pi4();
        soc.enable_caches(0);
        soc.run_program(0, &builders::nop_sled(256), 0x10000, 100_000);
        soc.attach_probe("TP15", Probe::bench_supply(0.8, 3.0)).unwrap();

        // A brown-out to 50 mV is far below every cell's DRV: even though
        // the probe holds the rail before and after, the dip costs
        // (essentially) all retained state.
        let faults = CycleFaults { brownout_min_voltage: Some(0.05), ..CycleFaults::none() };
        let rec = Recorder::new();
        let report = soc.power_cycle_with(PowerCycleSpec::quick(), faults, &rec).unwrap();
        assert!(report.outcome.rail("VDD_CORE").unwrap().is_held());
        let l1i = report.retention_of("core0.l1i.data").unwrap();
        assert_eq!(l1i.retained, 0, "brown-out below DRV must lose the i-cache");
        assert!(rec.counter("soc.fault.brownout_rails") > 0);
        assert!(rec.counter("sram.cells_lost") > 0);
    }

    #[test]
    fn faultless_power_cycle_with_matches_power_cycle() {
        let mk = || {
            let mut soc = pi4();
            soc.enable_caches(0);
            soc.run_program(0, &builders::nop_sled(256), 0x10000, 100_000);
            soc.attach_probe("TP15", Probe::bench_supply(0.8, 0.9)).unwrap();
            soc
        };
        let mut a = mk();
        let mut b = mk();
        let ra = a.power_cycle(PowerCycleSpec::quick()).unwrap();
        let rb = b
            .power_cycle_with(PowerCycleSpec::quick(), CycleFaults::none(), &Recorder::new())
            .unwrap();
        assert_eq!(ra.retention, rb.retention);
        assert_eq!(
            a.core(0).unwrap().l1i.way_image(0).unwrap(),
            b.core(0).unwrap().l1i.way_image(0).unwrap()
        );
    }

    #[test]
    fn misordered_reconnect_dips_held_rails() {
        let mut soc = pi4();
        soc.enable_caches(0);
        soc.run_program(0, &builders::nop_sled(256), 0x10000, 100_000);
        soc.attach_probe("TP15", Probe::bench_supply(0.8, 3.0)).unwrap();
        let faults = CycleFaults { reconnect_misorder: true, ..CycleFaults::none() };
        let rec = Recorder::new();
        soc.power_cycle_with(PowerCycleSpec::quick(), faults, &rec).unwrap();
        assert!(rec.counter("soc.fault.misorder_dips") > 0);
        assert!(rec.counter("pdn.reconnects_misordered") > 0);
        assert!(rec.events().iter().any(|e| e.name == "soc.fault.reconnect_misorder"));
    }

    #[test]
    fn unheld_power_cycle_scrambles_caches() {
        let mut soc = pi4();
        soc.enable_caches(0);
        soc.run_program(0, &builders::nop_sled(256), 0x10000, 100_000);
        let report = soc.power_cycle(PowerCycleSpec::quick()).unwrap();
        assert!(!report.outcome.rail("VDD_CORE").unwrap().is_held());
        assert_eq!(report.retention_of("core0.l1i.data").unwrap().retained, 0);
        // The NOP sled is gone from every way of the i-cache.
        for way in 0..3 {
            let image = soc.core(0).unwrap().l1i.way_image(way).unwrap();
            let nops = image
                .to_bytes()
                .chunks_exact(4)
                .filter(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]) == 0xD503201F)
                .count();
            assert!(nops < 4, "way {way} still holds {nops} NOP words");
        }
    }

    #[test]
    fn neon_registers_survive_held_cycle() {
        let mut soc = pi4();
        soc.run_program(0, &builders::fill_vector_registers(), 0x10000, 10_000);
        soc.attach_probe("TP15", Probe::bench_supply(0.8, 3.0)).unwrap();
        soc.power_cycle(PowerCycleSpec::quick()).unwrap();
        let v = soc.core(0).unwrap().cpu.v(0);
        assert_eq!(v, [0xFFFF_FFFF_FFFF_FFFF; 2]);
        let v1 = soc.core(0).unwrap().cpu.v(1);
        assert_eq!(v1, [0xAAAA_AAAA_AAAA_AAAA; 2]);
    }

    #[test]
    fn neon_registers_lost_without_hold() {
        let mut soc = pi4();
        soc.run_program(0, &builders::fill_vector_registers(), 0x10000, 10_000);
        soc.power_cycle(PowerCycleSpec::quick()).unwrap();
        let file = soc.core(0).unwrap().cpu.vector_file();
        assert!(file
            .iter()
            .any(|&v| v != [0xFFFF_FFFF_FFFF_FFFF; 2] && v != [0xAAAA_AAAA_AAAA_AAAA; 2]));
    }

    #[test]
    fn boot_clobbers_l2_on_broadcom() {
        let mut soc = pi4();
        soc.enable_l2();
        // Put recognizable data in L2 by writing through it.
        soc.enable_caches(0);
        soc.run_program(0, &builders::fill_bytes(0x40000, 0x77, 4096), 0x10000, 10_000_000);
        let outcome = soc
            .boot(BootSource::ExternalMedia { image: vec![0; 4], entry: 0x1000, signed: false })
            .unwrap();
        assert!(outcome.l2_clobbered);
        let l2_bytes = soc.l2().raw_way_bytes(0, 0, 4096).unwrap();
        assert!(!l2_bytes.windows(16).any(|w| w.iter().all(|&b| b == 0x77)));
    }

    #[test]
    fn authenticated_boot_rejects_unsigned_images() {
        let mut soc = pi4();
        let mut policy = soc.policy();
        policy.mandated_authenticated_boot = true;
        soc.set_policy(policy);
        let err = soc
            .boot(BootSource::ExternalMedia { image: vec![0; 4], entry: 0x1000, signed: false })
            .unwrap_err();
        assert!(matches!(err, SocError::BootRejected { .. }));
        assert!(soc
            .boot(BootSource::ExternalMedia { image: vec![0; 4], entry: 0x1000, signed: true })
            .is_ok());
    }

    #[test]
    fn pi_has_no_jtag_but_imx_does() {
        let soc = pi4();
        assert!(matches!(soc.jtag_read(0, 4), Err(SocError::NoJtag)));
        let mut imx = devices::imx53_qsb(1);
        imx.power_on_all();
        assert!(imx.jtag_read(0xF800_0000, 4).is_ok());
    }

    #[test]
    fn imx_boot_clobbers_part_of_iram() {
        let mut imx = devices::imx53_qsb(1);
        imx.power_on_all();
        let base = imx.iram().unwrap().base();
        let size = imx.iram().unwrap().len();
        imx.jtag_write(base, &vec![0xCC; size]).unwrap();
        let outcome = imx.boot(BootSource::InternalRom).unwrap();
        assert!(outcome.iram_bytes_clobbered > 0);
        let frac = outcome.iram_bytes_clobbered as f64 / size as f64;
        assert!(frac > 0.02 && frac < 0.08, "clobbered fraction {frac}");
        // The clobber window is dirty, the rest is intact.
        let image = imx.jtag_read(base, size).unwrap();
        assert_eq!(image[0], 0xCC, "start of iram before 0x83c is intact");
        assert_ne!(image[0x1000], 0xCC, "scratchpad window is clobbered");
        assert_eq!(image[0x10000], 0xCC, "middle of iram is intact");
    }

    #[test]
    fn mbist_policy_wipes_everything_at_boot() {
        let mut soc = pi4();
        soc.enable_caches(0);
        soc.run_program(0, &builders::fill_bytes(0x40000, 0x99, 2048), 0x10000, 10_000_000);
        let mut policy = soc.policy();
        policy.mbist_reset = true;
        soc.set_policy(policy);
        let outcome = soc
            .boot(BootSource::ExternalMedia { image: vec![0; 4], entry: 0x1000, signed: true })
            .unwrap();
        assert!(outcome.mbist_ran);
        assert_eq!(soc.core(0).unwrap().l1d.way_image(0).unwrap().count_ones(), 0);
    }

    #[test]
    fn runtime_gating_wipes_the_core_srams() {
        let mut soc = pi4();
        soc.enable_caches(0);
        soc.run_program(0, &builders::nop_sled(512), 0x10000, 100_000);
        soc.run_program(0, &builders::fill_vector_registers(), 0x14000, 10_000);

        soc.runtime_gate_core(0, std::time::Duration::from_millis(10)).unwrap();

        // NOPs gone from the i-cache, registers gone from the file.
        let image = soc.core(0).unwrap().l1i.way_image(0).unwrap();
        let nops = image
            .to_bytes()
            .chunks_exact(4)
            .filter(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]) == 0xD503201F)
            .count();
        assert!(nops < 4, "i-cache must be wiped by the internal gate: {nops}");
        assert_ne!(soc.core(0).unwrap().cpu.v(0), [u64::MAX; 2]);
        // Other cores are untouched.
        assert!(soc.core(1).unwrap().l1d.is_powered());
    }

    #[test]
    fn ramindex_extracts_dcache_contents() {
        let mut soc = pi4();
        soc.enable_caches(0);
        soc.run_program(0, &builders::fill_bytes(0x0, 0xAB, 64), 0x10000, 1_000_000);
        // Find the 0xAB line somewhere in way 0 or 1 of set 0.
        let mut found = false;
        for way in 0..2u8 {
            let beat = soc.ramindex(0, RamId::L1DData, way, 0, true).unwrap();
            if beat[0] == 0xABAB_ABAB_ABAB_ABAB {
                found = true;
            }
        }
        assert!(found, "expected the 0xAB line in set 0");
    }

    #[test]
    fn internal_rom_boot_rejected_on_pi() {
        let mut soc = pi4();
        assert!(matches!(soc.boot(BootSource::InternalRom), Err(SocError::BootRejected { .. })));
    }

    #[test]
    fn power_cycle_without_bringup_is_error() {
        let mut soc = devices::raspberry_pi_4(3);
        assert!(matches!(soc.power_cycle(PowerCycleSpec::quick()), Err(SocError::NotPowered)));
    }
}
