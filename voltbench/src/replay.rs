//! The layer-timed replay: re-runs sampled campaign reps one public
//! call per layer, with the campaign's own faults, and checks that each
//! replayed rep ends exactly as the campaign recorded it.
//!
//! One attempt of a campaign rep is `victim(rep)` (board build, first
//! power-on, victim program) followed by `VoltBootAttack::execute_in`
//! (identify + attach, power cycle, reboot, voted extract). The replay
//! times those calls directly, and times the attack's inner steps in
//! order on a `Soc::clone()` of the prepared board, so each sub-step
//! sees the state the real step saw. Nothing inside the library is
//! instrumented: every span is a wall-clock timer around a `pub` call.

use std::time::Instant;
use voltboot::attack::{AttackContext, AttackFailure, AttackOutcome, VoltBootAttack};
use voltboot::campaign::{RepRecord, RepStatus};
use voltboot::fault::{FaultPlan, StepFaults};
use voltboot::ConfidenceMap;
use voltboot_armlite::program::builders;
use voltboot_pdn::{Probe, ReconnectOrder};
use voltboot_soc::dram_remanence::{apply_decay, DramRemanenceModel};
use voltboot_soc::{devices, BootSource, CycleFaults, PowerCycleSpec, RamId, Soc};
use voltboot_sram::{delta, par};
use voltboot_telemetry::Recorder;

use crate::stats::{median, ms_since};
use crate::Values;

/// The probe pad every workload attacks (the paper's Pi 4 TP15).
pub const PAD: &str = "TP15";
/// Majority-vote readout passes per SRAM unit.
pub const PASSES: u32 = 3;
/// Attempts per rep before the campaign records a failure.
pub const MAX_ATTEMPTS: u32 = 3;

/// The attack parameters a workload's campaign runs with — kept here
/// because `VoltBootAttack` does not expose them and the replay must
/// drive the same probe through the same cycle.
#[derive(Debug, Clone, Copy)]
pub struct AttackShape {
    pub probe: Probe,
    pub cycle: PowerCycleSpec,
}

impl AttackShape {
    /// The paper's attack: a 3 A bench supply on TP15 through a quick
    /// room-temperature cycle (`VoltBootAttack::new`'s defaults).
    pub fn bench_supply() -> AttackShape {
        AttackShape { probe: Probe::bench_supply(0.0, 3.0), cycle: PowerCycleSpec::quick() }
    }

    pub fn attack(&self) -> VoltBootAttack {
        VoltBootAttack::new(PAD).passes(PASSES).probe(self.probe).cycle(self.cycle)
    }
}

/// The board seed `voltboot_server::spec::canonical_victim` gives rep
/// `rep` of a sweep over `die_seed`. The replay check fails if this
/// ever drifts from the builder it mirrors.
pub fn board_seed(die_seed: u64, rep: u64) -> u64 {
    die_seed ^ rep.wrapping_mul(0x9E37_79B9)
}

/// One rep to replay: what the campaign ran and what it recorded.
pub struct Rep {
    pub shape: AttackShape,
    pub plan: FaultPlan,
    /// Seed of the board `victim(rep)` built.
    pub board_seed: u64,
    pub record: RepRecord,
}

/// Per-attempt wall times (ms) of every layer call, over all replayed
/// attempts, plus each replayed rep's total.
#[derive(Default)]
pub struct LayerTimes {
    build: Vec<f64>,
    first_power_on: Vec<f64>,
    victim_program: Vec<f64>,
    attach: Vec<f64>,
    pdn_cycle: Vec<f64>,
    power_cycle: Vec<f64>,
    dram_decay: Vec<f64>,
    boot: Vec<f64>,
    attack: Vec<f64>,
    /// Per rep: the sum over its attempts of the calls a campaign
    /// attempt makes (build, first power-on, victim program, attack).
    rep_total: Vec<f64>,
}

/// Replays `reps` on `threads` threads at once, as that many campaign
/// workers run them (two reps building planes side by side contend for
/// the memory system; one alone would not), each under a parallelism
/// budget of `budget` threads. Returns the timings and one line per rep
/// whose replay ends otherwise than its record.
///
/// With the delta path on, a brown-out attempt flips the process-wide
/// delta switch while it runs, so such replays must use one thread.
pub fn replay_on(threads: usize, budget: usize, reps: &[Rep]) -> (LayerTimes, Vec<String>) {
    let per_thread: Vec<(LayerTimes, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|k| {
                s.spawn(move || {
                    let mut times = LayerTimes::default();
                    let mut mismatches = Vec::new();
                    for rep in reps.iter().skip(k).step_by(threads) {
                        if let Err(e) = par::with_budget(budget, || replay_rep(rep, &mut times)) {
                            mismatches.push(format!("replay of rep {}: {e}", rep.record.rep));
                        }
                    }
                    (times, mismatches)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("replay thread")).collect()
    });
    let mut all = LayerTimes::default();
    let mut mismatches = Vec::new();
    for (times, m) in per_thread {
        all.absorb(times);
        mismatches.extend(m);
    }
    (all, mismatches)
}

impl LayerTimes {
    /// Appends `other`'s samples (every list stays aligned by attempt).
    pub fn absorb(&mut self, other: LayerTimes) {
        let LayerTimes {
            build,
            first_power_on,
            victim_program,
            attach,
            pdn_cycle,
            power_cycle,
            dram_decay,
            boot,
            attack,
            rep_total,
        } = other;
        self.build.extend(build);
        self.first_power_on.extend(first_power_on);
        self.victim_program.extend(victim_program);
        self.attach.extend(attach);
        self.pdn_cycle.extend(pdn_cycle);
        self.power_cycle.extend(power_cycle);
        self.dram_decay.extend(dram_decay);
        self.boot.extend(boot);
        self.attack.extend(attack);
        self.rep_total.extend(rep_total);
    }

    /// The median replayed rep: its attempts' build, first power-on,
    /// victim program and attack, summed.
    pub fn rep_median(&self) -> f64 {
        median(&self.rep_total)
    }

    /// Medians per attempt into `values`, with the derived layers (SRAM
    /// resolve, extract + vote).
    pub fn into_values(self, values: &mut Values) {
        let n = self.attack.len();
        let resolve: Vec<f64> =
            (0..n).map(|i| self.power_cycle[i] - self.dram_decay[i] - self.pdn_cycle[i]).collect();
        let extract: Vec<f64> = (0..n)
            .map(|i| self.attack[i] - self.attach[i] - self.power_cycle[i] - self.boot[i])
            .collect();
        for (name, samples) in [
            ("soc.build_ms", &self.build),
            ("sram.first_power_on_ms", &self.first_power_on),
            ("armlite.victim_program_ms", &self.victim_program),
            ("pdn.attach_ms", &self.attach),
            ("pdn.cycle_ms", &self.pdn_cycle),
            ("soc.power_cycle_ms", &self.power_cycle),
            ("soc.dram_decay_ms", &self.dram_decay),
            ("soc.boot_ms", &self.boot),
            ("core.attack_ms", &self.attack),
            ("sram.resolve_ms", &resolve),
            ("core.extract_vote_ms", &extract),
        ] {
            values.insert(name, median(samples));
        }
    }
}

fn replay_rep(rep: &Rep, times: &mut LayerTimes) -> Result<(), String> {
    let stream = rep.plan.rep_stream(rep.record.rep);
    let mut total = 0.0;
    for attempt in 0..MAX_ATTEMPTS {
        let faults = stream.draw(attempt);
        let (result, attempt_ms) = replay_attempt(rep, faults, times)?;
        total += attempt_ms;
        let done = result.is_ok() || attempt + 1 == MAX_ATTEMPTS;
        if done {
            times.rep_total.push(total);
            return check(&rep.record, attempt + 1, faults, &result);
        }
    }
    unreachable!("the last attempt always ends the rep")
}

/// Runs `f`, appending its wall time (ms) to `samples`.
fn timed<R>(samples: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    samples.push(ms_since(start));
    out
}

/// Runs one attempt call by call; returns the attack's result and the
/// attempt's campaign-path time (build + power-on + program + attack).
fn replay_attempt(
    rep: &Rep,
    faults: StepFaults,
    t: &mut LayerTimes,
) -> Result<(Result<AttackOutcome, AttackFailure>, f64), String> {
    // victim(rep): the body of `spec::canonical_victim`.
    let mut soc = timed(&mut t.build, || devices::raspberry_pi_4(rep.board_seed));
    timed(&mut t.first_power_on, || soc.power_on_all());
    timed(&mut t.victim_program, || {
        soc.enable_caches(0);
        soc.run_program(0, &builders::nop_sled(128), 0x10000, 100_000)
    });

    // A brown-out draws a fresh hold voltage, so the campaign resolved
    // this attempt's condition once, dense. Resolving it again with the
    // delta path on would make the replay's second sighting build a
    // baseline, and push the die's other baselines out of the cache.
    let hold_delta_off = faults.brownout_min_voltage.is_some() && delta::enabled();
    if hold_delta_off {
        delta::force_disable(true);
    }
    let result = replay_attack(rep, faults, soc, t);
    if hold_delta_off {
        delta::force_disable(false);
    }
    let result = result?;
    let n = t.attack.len() - 1;
    let attempt_ms = t.build[n] + t.first_power_on[n] + t.victim_program[n] + t.attack[n];
    Ok((result, attempt_ms))
}

/// Times the attack's steps in order on a clone of the prepared board
/// `soc` — the PDN and DRAM parts of the power cycle alone, on clones of
/// the attached board's network and DRAM — then the whole attack on
/// `soc` itself.
fn replay_attack(
    rep: &Rep,
    faults: StepFaults,
    mut soc: Soc,
    t: &mut LayerTimes,
) -> Result<Result<AttackOutcome, AttackFailure>, String> {
    let rec = Recorder::new();
    let mut board = soc.clone();
    timed(&mut t.attach, || {
        let live = board.network().measure_pad(PAD)?;
        let mut probe = rep.shape.probe;
        if probe.voltage == 0.0 {
            probe.voltage = live;
        }
        if faults.probe_glitch {
            probe.series_resistance += voltboot::attack::PROBE_GLITCH_EXTRA_OHMS;
            probe.current_limit *= voltboot::attack::PROBE_GLITCH_LIMIT_FACTOR;
        }
        board.network_mut().attach_probe(PAD, probe)
    })
    .map_err(|e| e.to_string())?;

    let mut network = board.network().clone();
    let order = if faults.reconnect_misorder {
        ReconnectOrder::Reversed
    } else {
        ReconnectOrder::PmicSequence
    };
    timed(&mut t.pdn_cycle, || {
        network.disconnect_main_traced(&rec)?;
        network.reconnect_main_with(order, &rec)
    })
    .map_err(|e| e.to_string())?;

    // The decay `power_cycle_with` applies on a board's first cycle
    // (DRAM seed and event counter as `Soc::from_config` sets them).
    let mut dram = board.dram().clone();
    timed(&mut t.dram_decay, || {
        apply_decay(
            &mut dram,
            &DramRemanenceModel::calibrated(),
            rep.shape.cycle.off_duration,
            rep.shape.cycle.temperature,
            rep.board_seed ^ 0xD7A3,
            0,
        )
    });

    let cycle_faults = CycleFaults {
        brownout_min_voltage: faults.brownout_min_voltage,
        reconnect_misorder: faults.reconnect_misorder,
    };
    timed(&mut t.power_cycle, || board.power_cycle_with(rep.shape.cycle, cycle_faults, &rec))
        .map_err(|e| e.to_string())?;

    // The attacker's unsigned extraction image (the Pi 4 boots from media).
    let source = BootSource::ExternalMedia {
        image: builders::ramindex_read(RamId::L1DData.code(), 0, 0).bytes(),
        entry: 0x8_0000,
        signed: false,
    };
    timed(&mut t.boot, || board.boot_traced(source, &rec)).map_err(|e| e.to_string())?;

    let ctx = AttackContext { recorder: Recorder::new(), faults };
    Ok(timed(&mut t.attack, || rep.shape.attack().execute_in(&mut soc, &ctx)))
}

/// The replay check: the replayed rep must end as the campaign recorded
/// it — status, attempts, images, held rail, and vote confidence.
fn check(
    record: &RepRecord,
    attempts: u32,
    faults: StepFaults,
    result: &Result<AttackOutcome, AttackFailure>,
) -> Result<(), String> {
    let (status, images, rail_held, confidence) = match result {
        Ok(o) => {
            let clean = !faults.any() && o.rail_held;
            let status = if clean { RepStatus::Success } else { RepStatus::Degraded };
            (status, o.images.len(), o.rail_held, o.confidence_total())
        }
        Err(_) => (RepStatus::Failed, 0, false, ConfidenceMap::default()),
    };
    let replayed = (status, attempts, images, rail_held, confidence);
    let recorded =
        (record.status, record.attempts, record.images, record.rail_held, record.confidence);
    if replayed == recorded {
        Ok(())
    } else {
        Err(format!("replayed {replayed:?}, campaign recorded {recorded:?}"))
    }
}
