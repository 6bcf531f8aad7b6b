//! The two campaign workloads, and the layer figures every workload
//! takes from a finished campaign and from the SRAM caches.
//!
//! * `fresh_die_sweep` is what the default sweep runs: every rep a new
//!   die, so the die planes (about 11 Mi cells on a Pi 4) are built on
//!   each rep and no cache holds the working set. Units are 2-rep
//!   campaigns at 2 threads, cycling the fault rates {0, 0.05, 0.2},
//!   each with its own die and fault seeds.
//! * `fixed_die_droop` is the million-rep shape: one die under a weak
//!   probe (the droop failure mode forces a real resolve every rep) at
//!   fault rate 0.2, run as consecutive 20-rep shards of one
//!   million-rep campaign, checkpointing after every rep. Plane builds
//!   are cached and the rep-delta path engages; DRAM decay, delta
//!   apply, voted readout and the checkpoint rewrite do the work.

use std::ops::{Range, RangeInclusive};
use std::path::Path;
use std::time::{Duration, Instant};
use voltboot::campaign::{
    Campaign, CampaignResult, Checkpoint, RepStatus, RetryPolicy, ShardRange,
};
use voltboot::fault::{FaultPlan, FaultRates};
use voltboot::recover::crc64;
use voltboot_pdn::Probe;
use voltboot_server::spec::canonical_victim;
use voltboot_server::Platform;
use voltboot_sram::{clear_plane_cache, delta, plane_cache_stats, PlaneCacheStats};
use voltboot_telemetry::{export, parse};

use crate::replay::{self, board_seed, AttackShape, LayerTimes, Rep, MAX_ATTEMPTS};
use crate::stats::{self, median, ms_since, tail_quantile};
use crate::{daemon, mix, setup_median, Outcome, Values, THREADS};

/// The fault rates the canonical sweep replays the attack under.
const FRESH_RATES: [f64; 3] = [0.0, 0.05, 0.2];
/// Reps per fresh-die campaign (one per worker thread).
const FRESH_REPS: u64 = 2;

/// Reps per fixed-die shard.
const FIXED_SHARD: u64 = 20;
/// Reps of every fixed-die shard the trace run replays.
const FIXED_REPLAYED: usize = 4;
/// Length of the campaign the fixed-die shards are cut from.
const FIXED_CAMPAIGN_REPS: u64 = 1_000_000;
/// Images a successful attempt reads: core 0's L1D (2 ways) and L1I
/// (3 ways).
const CORE0_IMAGES: usize = 5;
/// Timings of sub-millisecond layer calls are medians of this many.
const LAYER_REPEATS: usize = 5;
/// Where `trace.coverage` must lie on the campaign workloads. Wider than
/// ±10 %: on a shared 2-vCPU host, traced runs of unchanged code put it
/// anywhere in 0.86–1.06, while a layer the replay missed would move it
/// by its whole share of the rep.
const COVERAGE_BAND: RangeInclusive<f64> = 0.8..=1.25;

const RETRY: RetryPolicy =
    RetryPolicy { max_attempts: MAX_ATTEMPTS, initial_backoff_ns: 50_000_000 };

/// One measured unit: the campaign slice it ran and what it recorded.
pub struct Unit {
    pub shape: AttackShape,
    pub die_seed: u64,
    /// Whether every rep ran on the die `die_seed` itself rather than
    /// the canonical per-rep die.
    pub fixed_die: bool,
    pub shard: ShardRange,
    pub result: CampaignResult,
}

impl Unit {
    /// The unit's rep `i` (0-based within the shard), ready to replay.
    pub fn rep(&self, i: usize) -> Rep {
        let record = self.result.records[i].clone();
        let board =
            if self.fixed_die { self.die_seed } else { board_seed(self.die_seed, record.rep) };
        Rep { shape: self.shape, plan: self.result.plan, board_seed: board, record }
    }
}

/// The process-global plane-cache and delta counters at one moment.
#[derive(Clone, Copy)]
pub struct CacheMark {
    cache: PlaneCacheStats,
    delta_reps: u64,
}

impl CacheMark {
    pub fn now() -> CacheMark {
        CacheMark { cache: plane_cache_stats(), delta_reps: delta::stats().delta_reps }
    }
}

/// What the plane cache and the delta path did over the measured work:
/// summed between marks, so a trace run's replays between units (which
/// clear the cache for fresh dies) stay out of it.
#[derive(Default)]
pub struct CacheTally {
    builds: u64,
    evictions: u64,
    delta_reps: u64,
    last: PlaneCacheStats,
}

impl CacheTally {
    pub fn add_since(&mut self, before: CacheMark) {
        let now = CacheMark::now();
        let evictions = now.cache.plane_evictions - before.cache.plane_evictions;
        // Each build inserts an entry; entries leave only by eviction.
        self.builds += (now.cache.entries + evictions as usize - before.cache.entries) as u64;
        self.evictions += evictions;
        self.delta_reps += now.delta_reps - before.delta_reps;
        self.last = now.cache;
    }

    /// The `sram.*` layer figures for `reps` reps.
    pub fn layer_values(&self, reps: u64, values: &mut Values) {
        let per_rep = |n: u64| n as f64 / reps.max(1) as f64;
        values.insert("sram.plane_builds_per_rep", per_rep(self.builds));
        values.insert("sram.plane_evictions_per_rep", per_rep(self.evictions));
        values.insert("sram.delta_reps_per_rep", per_rep(self.delta_reps));
        values.insert("sram.plane_cache_cells", self.last.cells as f64);
        values.insert("sram.baseline_bytes", self.last.baseline_bytes as f64);
    }
}

/// Checks one unit's records and report, returning failed reps.
pub fn check_unit(unit: &Unit, problems: &mut Vec<String>) -> u64 {
    let result = &unit.result;
    let reps: Vec<u64> = result.records.iter().map(|r| r.rep).collect();
    let expected: Vec<u64> = (unit.shard.start..unit.shard.end).collect();
    if reps != expected {
        problems.push(format!("shard {} recorded reps {reps:?}", unit.shard));
    }
    match parse::parse(&result.to_json()) {
        Ok(doc)
            if doc.get("summary").and_then(|s| s.get("reps")).and_then(|r| r.as_u64())
                == Some(result.reps) => {}
        _ => {
            problems.push(format!("shard {}: report does not re-parse to its summary", unit.shard))
        }
    }
    let mut failed = 0;
    for r in &result.records {
        match r.status {
            RepStatus::Success | RepStatus::Degraded if r.images != CORE0_IMAGES => {
                problems.push(format!("rep {} extracted {} images", r.rep, r.images));
            }
            RepStatus::Failed | RepStatus::TimedOut => failed += 1,
            _ => {}
        }
        // The paper's result: a held rail with no fault loses nothing.
        let clean = r.faults_fired.is_empty() && r.rail_held;
        if clean && (r.status != RepStatus::Success || r.confidence.unresolved != 0) {
            problems.push(format!("clean rep {} ended {:?}", r.rep, r.status));
        }
    }
    failed
}

/// What a campaign workload's measured loop produced.
struct Window {
    units: Vec<Unit>,
    wall_s: f64,
    rep_ms: Vec<f64>,
    peak_heap_mb: f64,
    cache: CacheTally,
}

impl Window {
    fn reps(&self) -> u64 {
        self.units.iter().map(|u| u.result.records.len() as u64).sum()
    }
}

/// Runs units until `seconds` have passed (and at least `min_units`
/// have run, so the digest always covers the same bytes), handing each
/// finished unit to the trace run's replay, if any.
fn measure(
    seconds: f64,
    min_units: usize,
    mut run_unit: impl FnMut(u64) -> Unit,
    mut replayer: Option<&mut Replayer>,
) -> Window {
    let hist = stats::rep_histogram();
    let before = hist.snapshot();
    let mut cache = CacheTally::default();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut units = Vec::new();
    while units.len() < min_units || start.elapsed() < budget {
        let (mark, unit_start) = (CacheMark::now(), hist.snapshot());
        let unit = run_unit(units.len() as u64);
        cache.add_since(mark);
        if let Some(r) = replayer.as_deref_mut() {
            r.after_unit(&unit, &stats::window_ms(&unit_start, &hist.snapshot()));
        }
        units.push(unit);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let rep_ms = stats::window_ms(&before, &hist.snapshot());
    Window { units, wall_s, rep_ms, peak_heap_mb: stats::peak_heap_mib(), cache }
}

/// The end-to-end figures every workload reports. `latencies_ms` are
/// the workload's requests (`what`: reps or jobs) over the window.
pub fn end_to_end(
    reps: u64,
    wall_s: f64,
    (what, latencies_ms): (&str, &[f64]),
    setup_s: f64,
    peak_heap_mb: f64,
    o: &mut Outcome,
) {
    o.values.insert("reps_per_s", reps as f64 / wall_s);
    o.values.insert("latency_p50_ms", median(latencies_ms));
    o.values.insert("setup_s", setup_s);
    o.values.insert("peak_heap_mb", peak_heap_mb);
    let n = latencies_ms.len();
    o.notes.push(match tail_quantile(latencies_ms, 0.9) {
        Some(p90) => format!("{what}_p90_ms {p90} ms ({n} {what}s)"),
        None => format!("{what}_p90_ms not reported: {n} {what}s leave fewer than 10 beyond p90"),
    });
}

/// Layer figures taken from a run's campaigns: report render,
/// checkpoint save and size, and trace export of the last one; attempts
/// and readout work over all of them.
pub fn result_layers(run: &[Unit], work: &Path, o: &mut Outcome) {
    let unit = run.last().expect("at least one unit");
    let result = &unit.result;
    let timed = |f: &mut dyn FnMut()| {
        let samples: Vec<f64> = (0..LAYER_REPEATS)
            .map(|_| {
                let start = Instant::now();
                f();
                ms_since(start)
            })
            .collect();
        median(&samples)
    };
    o.values.insert("core.report_render_ms", timed(&mut || drop(result.to_json())));
    o.values.insert(
        "telemetry.trace_export_ms",
        timed(&mut || {
            drop(export::chrome_trace(&result.recorder).render());
            drop(export::folded(&result.recorder));
            drop(export::waveforms_csv(&result.recorder));
        }),
    );
    let checkpoint = Checkpoint {
        fault_seed: result.plan.seed(),
        reps: result.reps,
        shard: unit.shard,
        next_rep: unit.shard.end,
        records: result.records.clone(),
        recorder: result.recorder.clone(),
    };
    let path = work.join("final.checkpoint");
    let mut saved = Ok(());
    o.values.insert("core.checkpoint_save_ms", timed(&mut || saved = checkpoint.save(&path)));
    match saved.and_then(|()| Checkpoint::load(&path)) {
        Ok(back) if back.to_json() == checkpoint.to_json() => {}
        Ok(_) => o.problems.push("checkpoint does not round-trip byte-identically".into()),
        Err(e) => o.problems.push(format!("checkpoint save/load: {e}")),
    }
    o.values.insert("core.checkpoint_bytes", checkpoint.to_json().len() as f64);

    let (mut attempts, mut reps, mut reads, mut images) = (0u64, 0u64, 0u64, 0u64);
    for u in run {
        attempts += u.result.records.iter().map(|r| u64::from(r.attempts)).sum::<u64>();
        reps += u.result.records.len() as u64;
        reads += u.result.recorder.counter("attack.repair.unit_reads");
        images += u.result.recorder.counter("attack.images_extracted");
    }
    o.values.insert("core.attempts_per_rep", attempts as f64 / reps.max(1) as f64);
    o.values.insert("core.unit_reads_per_image", reads as f64 / images.max(1) as f64);
}

/// The trace run's replay. It samples every unit right after it runs,
/// and `trace.coverage` is the median over units of the replayed reps'
/// time over the unit's untraced rep time: each ratio compares work done
/// seconds apart, because on a shared machine the host's load moves rep
/// times by 10-50 % within a minute.
pub struct Replayer {
    times: LayerTimes,
    mismatches: Vec<String>,
    coverage: Vec<f64>,
    cold_die: bool,
    /// Each replayed rep's parallelism budget: its campaign worker's.
    budget: usize,
    /// The reps (indices within a unit) replayed of every unit.
    sample: Range<usize>,
}

impl Replayer {
    pub fn new(cold_die: bool, budget: usize, sample: Range<usize>) -> Self {
        let (times, mismatches, coverage) = (LayerTimes::default(), Vec::new(), Vec::new());
        Replayer { times, mismatches, coverage, cold_die, budget, sample }
    }

    /// Replays the sampled reps of `unit`, whose untraced reps took
    /// `unit_ms`.
    pub fn after_unit(&mut self, unit: &Unit, unit_ms: &[f64]) {
        let reps: Vec<Rep> = self.sample.clone().map(|i| unit.rep(i)).collect();
        // A fresh die is in no cache, and its attack cycle is the first
        // sight of its condition, resolved dense: clear the unit's dies
        // out of the cache and hold the delta path off, so the replay's
        // extra cycles neither hit cached planes nor leave sightings
        // that turn a later cycle into a baseline build. Fresh-die reps
        // replay side by side, as the campaign's workers ran them (two
        // plane builds contend for the memory system). A warm die's
        // replay flips the delta switch per attempt, so it runs alone.
        let threads = if self.cold_die {
            clear_plane_cache();
            delta::force_disable(true);
            THREADS
        } else {
            1
        };
        let (times, mismatches) = replay::replay_on(threads, self.budget, &reps);
        delta::force_disable(false);
        self.coverage.push(times.rep_median() / median(unit_ms));
        self.times.absorb(times);
        self.mismatches.extend(mismatches);
    }

    /// Adds the layer timings, and fails the run on any replayed rep
    /// that differs from its record — or, with `check_coverage`, when
    /// `trace.coverage` falls outside [`COVERAGE_BAND`].
    pub fn finish(self, check_coverage: bool, o: &mut Outcome) {
        o.problems.extend(self.mismatches);
        self.times.into_values(&mut o.values);
        let coverage = median(&self.coverage);
        o.values.insert("trace.coverage", coverage);
        if check_coverage && !COVERAGE_BAND.contains(&coverage) {
            o.problems.push(format!(
                "trace.coverage {coverage:.3}: the replayed layers do not sum to the untraced rep"
            ));
        }
    }
}

/// Shared tail of both campaign workloads: checks, digest, metrics.
fn finish(
    w: Window,
    setup_s: f64,
    digest_units: usize,
    replayer: Option<Replayer>,
    probe_die: u64,
    work: &Path,
) -> Outcome {
    let mut o = Outcome::default();
    for unit in &w.units {
        o.failed += check_unit(unit, &mut o.problems);
    }
    let digest: String = w.units[..digest_units].iter().map(|u| u.result.to_json()).collect();
    o.crc64 = crc64(digest.as_bytes());
    o.attempted = w.reps();
    end_to_end(w.reps(), w.wall_s, ("rep", &w.rep_ms), setup_s, w.peak_heap_mb, &mut o);
    if let Some(replayer) = replayer {
        w.cache.layer_values(w.reps(), &mut o.values);
        result_layers(&w.units, work, &mut o);
        replayer.finish(true, &mut o);
        match daemon::service_probe(probe_die, work) {
            Ok(v) => o.values.extend(v),
            Err(e) => o.problems.push(format!("service probe: {e}")),
        }
    }
    o
}

fn fresh_campaign(shape: &AttackShape, fault_seed: u64, rate: f64, reps: u64) -> Campaign {
    Campaign::new(shape.attack(), FaultPlan::new(fault_seed, FaultRates::uniform(rate)), reps)
        .retry(RETRY)
}

pub fn fresh_die_sweep(seed: u64, seconds: f64, trace: bool, work: &Path) -> Outcome {
    let shape = AttackShape::bench_supply();
    let run = |die_seed: u64, fault_seed: u64, rate: f64, reps: u64| {
        fresh_campaign(&shape, fault_seed, rate, reps)
            .run_parallel(THREADS, canonical_victim(Platform::Pi4, die_seed))
    };
    // Set-up is one untimed rep on a throwaway die: it warms the
    // allocator, the rep arenas and the code before the first timed rep.
    let warm = |i: usize| {
        let die = mix(seed, u64::MAX - i as u64);
        run(die, die, 0.0, 1);
        Ok(())
    };
    let (setup_s, ()) = setup_median(warm, |()| {}).expect("set-up cannot fail");
    let mut replayer = trace.then(|| Replayer::new(true, worker_budget(), 0..FRESH_REPS as usize));
    let unit = |u: u64| {
        let (die_seed, fault_seed) = (mix(seed, 2 * u), mix(seed, 2 * u + 1));
        let rate = FRESH_RATES[u as usize % FRESH_RATES.len()];
        Unit {
            shape,
            die_seed,
            fixed_die: false,
            shard: ShardRange::whole(FRESH_REPS),
            result: run(die_seed, fault_seed, rate, FRESH_REPS),
        }
    };
    let w = measure(seconds, FRESH_RATES.len(), unit, replayer.as_mut());
    finish(w, setup_s, FRESH_RATES.len(), replayer, mix(seed, u64::MAX - 8), work)
}

/// The parallelism each of a campaign's [`THREADS`] workers runs under.
fn worker_budget() -> usize {
    (voltboot_sram::par::thread_count() / THREADS).max(1)
}

pub fn fixed_die_droop(seed: u64, seconds: f64, trace: bool, work: &Path) -> Outcome {
    let shape = AttackShape { probe: Probe::weak_source(0.0, 0.2), ..AttackShape::bench_supply() };
    let die_seed = seed;
    let die = canonical_victim(Platform::Pi4, die_seed);
    let victim = |_rep: u64| die(0);
    let plan = FaultPlan::new(mix(seed, 1), FaultRates::uniform(0.2));
    let campaign = Campaign::new(shape.attack(), plan, FIXED_CAMPAIGN_REPS).retry(RETRY);
    // Set-up from a cold cache: three fault-free reps build the die's
    // planes, see the droop condition twice, and build its baseline.
    let warm = |_| {
        clear_plane_cache();
        Campaign::new(shape.attack(), FaultPlan::quiescent(0), 3).retry(RETRY).run(victim);
        Ok(())
    };
    let (setup_s, ()) = setup_median(warm, |()| {}).expect("set-up cannot fail");
    let checkpoint = work.join("shard.checkpoint");
    let mut replayer = trace.then(|| Replayer::new(false, worker_budget(), 0..FIXED_REPLAYED));
    let unit = |u: u64| {
        let shard = ShardRange { start: u * FIXED_SHARD, end: (u + 1) * FIXED_SHARD };
        let result = campaign
            .run_shard_parallel(THREADS, shard, &checkpoint, victim)
            .unwrap_or_else(|e| panic!("checkpointing shard {shard}: {e}"));
        Unit { shape, die_seed, fixed_die: true, shard, result }
    };
    let w = measure(seconds, 1, unit, replayer.as_mut());
    finish(w, setup_s, 1, replayer, die_seed, work)
}
