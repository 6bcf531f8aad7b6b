//! Quick, harness-free performance snapshot for trajectory tracking.
//!
//! Times the hot paths of `sram_physics` (repeated power cycles of a
//! 1 MiB array, scalar vs batched-warm vs rep-delta) and `attack_e2e`
//! (a full board power cycle, and a fresh board's brown-out cycle), then
//! writes the numbers to
//! `BENCH_sram.json` in the current directory so successive PRs can
//! compare. The dense metrics (`batched_*`) are measured through
//! `ResolutionMode::BatchedFull` so they keep pricing the full wide
//! resolve now that `Batched` is delta-eligible; the rep-delta section
//! prices the settled sparse apply against that dense cost and gates
//! the amortization floor. Also times the
//! telemetry layer — a disabled `Recorder` on the traced power-cycle
//! path must cost nothing measurable, and histogram recording must
//! stay cheap enough to live on hot paths — and writes
//! `BENCH_telemetry.json`. The fleet metrics plane
//! (`voltboot::telemetry::metrics`) gets the same treatment: the
//! per-rep instrumentation campaign workers run is timed enabled vs
//! disabled on the warm rep path and gated at 5% overhead, and the raw
//! counter/histogram observation throughput is recorded for trajectory
//! tracking.
//!
//! ```text
//! cargo run --release -p voltboot-bench --bin bench_snapshot
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use voltboot::campaign::{observe_rep_metrics, RepStatus};
use voltboot::telemetry::hist::Histogram;
use voltboot::telemetry::{metrics, Recorder};
use voltboot_pdn::Probe;
use voltboot_soc::{devices, CycleFaults, PowerCycleSpec};
use voltboot_sram::{
    clear_plane_cache, delta, par, plane_cache_stats, ArrayConfig, OffEvent, ResolutionMode,
    SramArray, Temperature,
};

/// Heap-allocation counter wrapped around the system allocator. Only
/// counts while [`ALLOC_COUNTING`] is set, so the rest of the benchmark
/// (and the runtime itself) costs nothing and pollutes nothing. The
/// count gates the zero-steady-state-allocation contract of the warm
/// resolution path: once the die planes are built and the arena is
/// primed, a power cycle must not touch the allocator at all.
struct CountingAlloc;

static ALLOC_COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System`; the counter has no effect on
// the returned pointers or layouts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ALLOC_COUNTING.load(Ordering::Relaxed) {
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ALLOC_COUNTING.load(Ordering::Relaxed) {
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ALLOC_COUNTING.load(Ordering::Relaxed) {
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const MIB: usize = 1 << 20;

/// Median wall time of `iters` runs of `f`.
fn time_median<F: FnMut()>(iters: usize, mut f: F) -> Duration {
    let mut samples: Vec<Duration> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Minimum wall time of `iters` runs of `f` — the gate metric. On a
/// noisy shared VM the median wobbles ±40%; the minimum is the run the
/// machine didn't interrupt, which is what the code's speed actually is.
fn time_min<F: FnMut()>(iters: usize, mut f: F) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed());
    }
    best
}

/// A/B pairs behind each ratio gate.
const PAIRS: usize = 31;

/// The warm batched cycle's throughput floor, GiB/s.
const FLOOR_GIB_PER_S: f64 = 0.195;

/// Best-of-15 runs of the warm batched cycle: the first is the gated
/// reading, and all of them give the spread the floor prints.
const FLOOR_RUNS: usize = 5;

/// Fresh boards timed through a brown-out cycle.
const BROWNOUT_RUNS: u64 = 5;

/// The brown-out depth: inside every core-rail cell's DRV range
/// (0.05–0.55 V), so each core-rail array resolves cell by cell.
const BROWNOUT_V: f64 = 0.30;

/// Median over [`PAIRS`] pairs of `t(B) / t(A)`, where `run(false)` runs
/// side A once and `run(true)` side B. The sides of a pair run back to
/// back and every other pair runs B first, so host drift lands on both
/// sides of a pair instead of in the ratio.
fn median_paired_ratio(mut run: impl FnMut(bool)) -> f64 {
    let mut time = |side| {
        let t0 = Instant::now();
        run(side);
        t0.elapsed().as_secs_f64()
    };
    // An operator evaluates its left operand first: even pairs time A
    // first, odd pairs B.
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|i| match i % 2 {
            0 => time(false).recip() * time(true),
            _ => time(true) / time(false),
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[PAIRS / 2]
}

/// One warm power cycle (partial retention at −110 °C / 20 ms — the
/// general resolution path, no fast-path shortcuts).
fn cycle(s: &mut SramArray, mode: ResolutionMode) {
    s.power_off(OffEvent::unpowered()).unwrap();
    s.elapse(Duration::from_millis(20), Temperature::from_celsius(-110.0));
    black_box(s.power_on_with(mode).unwrap().retained);
}

/// `cycle` through the instrumented entry point instead; with a
/// disabled recorder this must cost the same as `cycle`.
fn cycle_traced(s: &mut SramArray, mode: ResolutionMode, rec: &Recorder) {
    s.power_off(OffEvent::unpowered()).unwrap();
    s.elapse(Duration::from_millis(20), Temperature::from_celsius(-110.0));
    black_box(s.power_on_traced(mode, rec).unwrap().retained);
}

fn main() {
    // -- sram_physics hot path: repeated 1 MiB power cycles ------------
    let mut scalar = SramArray::new(ArrayConfig::with_bytes("snap", MIB), 7);
    scalar.power_on_with(ResolutionMode::Scalar).unwrap();
    let t_scalar = time_median(5, || cycle(&mut scalar, ResolutionMode::Scalar));

    let mut batched = SramArray::new(ArrayConfig::with_bytes("snap", MIB), 7);
    // First batched cycle builds the die planes; the timed loop below is
    // the plane-cache-warm steady state every sweep runs in. Measured
    // through `BatchedFull` so the metric keeps pricing the dense wide
    // resolve: the default `Batched` mode now promotes repeated
    // conditions to the sparse rep-delta path, which is timed (and
    // gated) separately below.
    batched.power_on_with(ResolutionMode::BatchedFull).unwrap();
    cycle(&mut batched, ResolutionMode::BatchedFull);
    let t_batched = time_median(15, || cycle(&mut batched, ResolutionMode::BatchedFull));
    // The first best-of-15 is the gated reading, as it always was; the
    // repeats only measure how far that reading moves between runs.
    let floor_runs: Vec<f64> = (0..FLOOR_RUNS)
        .map(|_| {
            let t = time_min(15, || cycle(&mut batched, ResolutionMode::BatchedFull));
            1.0 / 1024.0 / t.as_secs_f64()
        })
        .collect();
    let batched_gib_per_s = floor_runs[0];
    let t_batched_min = Duration::from_secs_f64(1.0 / 1024.0 / batched_gib_per_s);
    let floor_lo = floor_runs.iter().copied().fold(f64::INFINITY, f64::min);
    let floor_hi = floor_runs.iter().copied().fold(0.0, f64::max);

    let mib_per_s = |t: Duration| 1.0 / t.as_secs_f64();
    let speedup = t_scalar.as_secs_f64() / t_batched.as_secs_f64();

    // -- zero-steady-state-allocation gate -----------------------------
    // The warm single-threaded cycle must never touch the allocator:
    // planes are memoized, the image resolves in place, and the report
    // shares its name through an `Arc<str>`. Measured under a budget of
    // one so the sharded path's scoped threads (which do allocate, in
    // `std`, per spawn) don't obscure the engine's own behaviour.
    let steady_state_allocs = par::with_budget(1, || {
        // Settle the budgeted path on the *default* mode: cycle one
        // notes the repeated condition, cycle two materializes the
        // rep-delta baseline (the one allowed allocation burst), cycle
        // three takes the thread-local lease. The counted loop below
        // then covers the sparse apply path — the steady state a
        // million-rep sweep actually runs in — which must stay
        // allocation-free just like the dense resolve before it.
        for _ in 0..3 {
            cycle(&mut batched, ResolutionMode::Batched);
        }
        ALLOC_COUNT.store(0, Ordering::Relaxed);
        ALLOC_COUNTING.store(true, Ordering::Relaxed);
        for _ in 0..10 {
            cycle(&mut batched, ResolutionMode::Batched);
        }
        ALLOC_COUNTING.store(false, Ordering::Relaxed);
        ALLOC_COUNT.load(Ordering::Relaxed)
    });

    // -- rep-delta: settled sparse apply vs dense resolve --------------
    // A sweep-shaped condition: rail held at 0.8 V with a droop to
    // 0.44 V loses a few hundredths of a percent of cells, so the
    // settled baseline touches ~2k words out of 16k while the dense
    // path still pays the full 12-row DRV comparison over every lane.
    // This is the regime the delta path exists for; the speedup floor
    // below is the PR's amortization contract.
    let droop = OffEvent::held_with_droop(0.8, 0.44);
    let droop_cycle = |s: &mut SramArray, mode: ResolutionMode| {
        s.power_off(droop).unwrap();
        s.elapse(Duration::from_millis(5), Temperature::from_celsius(25.0));
        black_box(s.power_on_with(mode).unwrap().retained);
    };
    let hot_before = plane_cache_stats().baseline_hot_words;
    let mut dense_droop = SramArray::new(ArrayConfig::with_bytes("snap-delta", MIB), 7);
    let mut sparse_droop = SramArray::new(ArrayConfig::with_bytes("snap-delta", MIB), 7);
    dense_droop.power_on_with(ResolutionMode::BatchedFull).unwrap();
    sparse_droop.power_on_with(ResolutionMode::Batched).unwrap();
    for _ in 0..3 {
        droop_cycle(&mut dense_droop, ResolutionMode::BatchedFull);
        droop_cycle(&mut sparse_droop, ResolutionMode::Batched);
    }
    let reps_before = delta::stats().delta_reps;
    let t_dense_droop = time_min(15, || droop_cycle(&mut dense_droop, ResolutionMode::BatchedFull));
    let t_delta = time_min(15, || droop_cycle(&mut sparse_droop, ResolutionMode::Batched));
    let delta_reps_measured = delta::stats().delta_reps - reps_before;
    let delta_speedup = t_dense_droop.as_secs_f64() / t_delta.as_secs_f64();
    let delta_hot_words = plane_cache_stats().baseline_hot_words - hot_before;

    // -- attack_e2e hot path: full-board warm power cycle --------------
    let mut soc = devices::raspberry_pi_4(0xCC);
    soc.power_on_all();
    let _ = soc.power_cycle(PowerCycleSpec::quick()).unwrap();
    let t_soc = time_median(9, || {
        black_box(soc.power_cycle(PowerCycleSpec::quick()).unwrap().retention.len());
    });

    // -- telemetry: disabled recorders must be free --------------------
    // Same plane-cache-warm batched cycle as above, but entered through
    // the instrumented path with a disabled recorder, paired with the
    // plain cycle. The two must be indistinguishable; a generous 50% gate
    // keeps machine noise from flapping CI while still catching a
    // hot-path `match` turning into real work.
    let disabled = Recorder::disabled();
    cycle_traced(&mut batched, ResolutionMode::Batched, &disabled);
    let recorder_ratio = median_paired_ratio(|traced| match traced {
        true => cycle_traced(&mut batched, ResolutionMode::Batched, &disabled),
        false => cycle(&mut batched, ResolutionMode::Batched),
    });
    let overhead_pct = (recorder_ratio - 1.0) * 100.0;

    // -- telemetry: histogram record/query throughput ------------------
    const HIST_OPS: u64 = 1_000_000;
    let mut hist = Histogram::new();
    let t_record = time_median(5, || {
        let mut h = Histogram::new();
        for i in 0..HIST_OPS {
            // Spread across many buckets: low singletons through
            // multi-millisecond log buckets.
            h.record(black_box(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20));
        }
        hist = h;
    });
    let t_query = time_median(5, || {
        for _ in 0..1_000 {
            black_box((hist.p50(), hist.p90(), hist.p99()));
        }
    });
    let record_mops = HIST_OPS as f64 / t_record.as_secs_f64() / 1e6;
    let query_kops = 3_000.0 / t_query.as_secs_f64() / 1e3;

    // Recorder-enabled histogram path (mutex + name lookup included).
    let rec = Recorder::new();
    let t_rec_hist = time_median(5, || {
        for i in 0..100_000u64 {
            rec.record("bench.hist", black_box(i & 0xFFFF));
        }
    });
    let rec_hist_mops = 100_000.0 / t_rec_hist.as_secs_f64() / 1e6;

    // -- fleet metrics plane: hot-rep-path overhead ---------------------
    // Exactly the instrumentation a campaign worker runs per rep (one
    // labelled counter bump plus one latency-histogram observation),
    // riding the same plane-cache-warm cycle as above, timed in pairs
    // with the plane disabled and enabled. The delta is two relaxed
    // atomic RMWs against a multi-millisecond rep; the 5% gate catches
    // the plane growing a lock or an allocation, not machine noise.
    let instrumented_cycle = |s: &mut SramArray| {
        let t0 = Instant::now();
        cycle(s, ResolutionMode::Batched);
        observe_rep_metrics(RepStatus::Success, t0.elapsed());
    };
    metrics::set_enabled(true);
    instrumented_cycle(&mut batched);
    let metrics_ratio = median_paired_ratio(|enabled| {
        metrics::set_enabled(enabled);
        instrumented_cycle(&mut batched);
    });
    metrics::set_enabled(true);
    let metrics_overhead_pct = (metrics_ratio - 1.0) * 100.0;

    // -- fleet metrics plane: raw observation throughput ----------------
    let fleet_counter = metrics::global().counter(
        "voltboot_bench_snapshot_ops_total",
        "bench_snapshot's counter-throughput probe",
        &[],
    );
    const METRIC_OPS: u64 = 1_000_000;
    let t_counter = time_median(5, || {
        for _ in 0..METRIC_OPS {
            fleet_counter.inc();
        }
    });
    let metrics_counter_mops = METRIC_OPS as f64 / t_counter.as_secs_f64() / 1e6;
    let fleet_hist = metrics::global().histogram(
        "voltboot_bench_snapshot_probe_ns",
        "bench_snapshot's histogram-throughput probe",
        &[],
    );
    let t_observe = time_median(5, || {
        for i in 0..METRIC_OPS {
            fleet_hist.observe(black_box(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20));
        }
    });
    let metrics_hist_observe_mops = METRIC_OPS as f64 / t_observe.as_secs_f64() / 1e6;

    // -- a die's first partial hold: a fresh board's brown-out cycle ----
    // Each run builds a new Pi 4 on a cold plane cache, holds VDD_CORE at
    // TP15 and times one power cycle whose brown-out pulls the held rail
    // to 0.30 V, inside the cells' DRV range: every core-rail array
    // settles its owed power-up sample and resolves cell by cell against
    // DRVs no query has derived yet. That is the cost a brown-out rep of
    // the fresh-die sweep pays. Under a budget of one, so it prices the
    // work and not the fan-out. It runs after every gate that cycles
    // `batched`: clearing the plane cache would drop that die's rep-delta
    // baseline, and the overhead gates above time the settled delta rep.
    let brownout = CycleFaults { brownout_min_voltage: Some(BROWNOUT_V), ..CycleFaults::none() };
    let mut t_brownouts: Vec<Duration> = (0..BROWNOUT_RUNS)
        .map(|i| {
            clear_plane_cache();
            let mut soc = devices::raspberry_pi_4(0xB0_0000 + i);
            soc.power_on_all();
            soc.attach_probe("TP15", Probe::bench_supply(0.8, 3.0)).unwrap();
            par::with_budget(1, || {
                let t0 = Instant::now();
                let report =
                    soc.power_cycle_with(PowerCycleSpec::quick(), brownout, &Recorder::disabled());
                black_box(report.unwrap().retention.len());
                t0.elapsed()
            })
        })
        .collect();
    t_brownouts.sort();
    let t_brownout = t_brownouts[t_brownouts.len() / 2];

    let threads = voltboot_sram::par::thread_count();
    // What the batched engine actually used for this array, not the
    // pool's nominal size: small arrays and single-thread pools shard
    // less than `threads` suggests.
    let workers = voltboot_sram::engine::resolution_workers(MIB * 8);
    println!("1 MiB warm power cycle, scalar : {t_scalar:?} ({:.1} MiB/s)", mib_per_s(t_scalar));
    println!("1 MiB warm power cycle, batched: {t_batched:?} ({:.1} MiB/s)", mib_per_s(t_batched));
    println!("batched best-of-15             : {t_batched_min:?} ({batched_gib_per_s:.3} GiB/s)");
    println!(
        "batched best-of-15, {FLOOR_RUNS} runs     : {floor_lo:.3}–{floor_hi:.3} GiB/s \
         (gate: >= {FLOOR_GIB_PER_S} on the first)"
    );
    println!("speedup (batched vs scalar)    : {speedup:.1}x");
    println!("steady-state allocations       : {steady_state_allocs} per 10 warm cycles");
    println!("droop rep, dense resolve       : {t_dense_droop:?}");
    println!(
        "droop rep, settled delta       : {t_delta:?} ({delta_hot_words} hot words, \
         {delta_reps_measured} delta reps measured)"
    );
    println!("delta speedup (dense vs delta) : {delta_speedup:.1}x (gate: >= 10x)");
    println!("pi4 full-board warm power cycle: {t_soc:?}");
    println!(
        "pi4 fresh-board brown-out cycle: {t_brownout:?} (median of {BROWNOUT_RUNS}, \
         {BROWNOUT_V} V, 1 worker)"
    );
    println!("threads: {threads} (pool), resolution workers used: {workers}");

    // Hand-rolled JSON: the workspace intentionally has no serde_json.
    let json = format!(
        "{{\n  \"bench\": \"sram\",\n  \"array_bytes\": {MIB},\n  \
         \"scalar_warm_cycle_ms\": {:.3},\n  \"batched_warm_cycle_ms\": {:.3},\n  \
         \"batched_warm_cycle_min_ms\": {:.3},\n  \
         \"scalar_mib_per_s\": {:.2},\n  \"batched_mib_per_s\": {:.2},\n  \
         \"batched_gib_per_s\": {batched_gib_per_s:.3},\n  \
         \"steady_state_allocs\": {steady_state_allocs},\n  \
         \"speedup\": {:.2},\n  \
         \"delta_dense_rep_ms\": {:.3},\n  \"delta_rep_ms\": {:.4},\n  \
         \"delta_speedup\": {delta_speedup:.2},\n  \
         \"delta_hot_words\": {delta_hot_words},\n  \
         \"pi4_power_cycle_ms\": {:.3},\n  \"pi4_brownout_cycle_ms\": {:.3},\n  \
         \"threads\": {workers}\n}}\n",
        t_scalar.as_secs_f64() * 1e3,
        t_batched.as_secs_f64() * 1e3,
        t_batched_min.as_secs_f64() * 1e3,
        mib_per_s(t_scalar),
        mib_per_s(t_batched),
        speedup,
        t_dense_droop.as_secs_f64() * 1e3,
        t_delta.as_secs_f64() * 1e3,
        t_soc.as_secs_f64() * 1e3,
        t_brownout.as_secs_f64() * 1e3,
    );
    std::fs::write("BENCH_sram.json", &json).expect("write BENCH_sram.json");
    println!("wrote BENCH_sram.json");

    println!("disabled-recorder overhead     : {overhead_pct:+.1}% (gate: +50%, {PAIRS} pairs)");
    println!("histogram record               : {record_mops:.1} Mops/s");
    println!("histogram quantile query       : {query_kops:.1} kops/s");
    println!("recorder histogram record      : {rec_hist_mops:.2} Mops/s");
    println!(
        "metrics plane rep overhead     : {metrics_overhead_pct:+.1}% (gate: +5%, {PAIRS} pairs)"
    );
    println!("metrics counter inc            : {metrics_counter_mops:.1} Mops/s");
    println!("metrics histogram observe      : {metrics_hist_observe_mops:.1} Mops/s");

    let telemetry_json = format!(
        "{{\n  \"bench\": \"telemetry\",\n  \
         \"disabled_recorder_overhead_pct\": {overhead_pct:.2},\n  \
         \"hist_record_mops\": {record_mops:.2},\n  \
         \"hist_query_kops\": {query_kops:.2},\n  \
         \"recorder_hist_record_mops\": {rec_hist_mops:.2},\n  \
         \"metrics_overhead_pct\": {metrics_overhead_pct:.2},\n  \
         \"metrics_counter_mops\": {metrics_counter_mops:.2},\n  \
         \"metrics_hist_observe_mops\": {metrics_hist_observe_mops:.2}\n}}\n"
    );
    std::fs::write("BENCH_telemetry.json", &telemetry_json).expect("write BENCH_telemetry.json");
    println!("wrote BENCH_telemetry.json");

    let mut failed = false;
    if overhead_pct > 50.0 {
        eprintln!(
            "BENCH FAIL: disabled recorder costs {overhead_pct:.1}% on the warm power-cycle \
             path; the disabled path must stay free"
        );
        failed = true;
    }
    // 0.195 GiB/s ≈ a 5 ms warm 1 MiB cycle — 5x the pre-bit-slicing
    // engine (30 ms). Gated on the best-of-N minimum so shared-VM noise
    // (±40% on the median here) cannot flap CI.
    if batched_gib_per_s < FLOOR_GIB_PER_S {
        eprintln!(
            "BENCH FAIL: warm batched cycle at {batched_gib_per_s:.3} GiB/s \
             (best-of-15 {t_batched_min:?}); the bit-sliced engine floor is \
             {FLOOR_GIB_PER_S} GiB/s for a warm 1 MiB BatchedFull cycle after an unpowered \
             -110 °C / 20 ms interval, resolved by {workers} worker(s) of a {threads}-thread \
             pool; {FLOOR_RUNS} best-of-15 runs read {floor_lo:.3}–{floor_hi:.3} GiB/s"
        );
        failed = true;
    }
    if steady_state_allocs != 0 {
        eprintln!(
            "BENCH FAIL: {steady_state_allocs} heap allocations across 10 warm power cycles; \
             the plane-cache-warm resolution path must not allocate"
        );
        failed = true;
    }
    // The amortization contract: once a baseline settles, a sweep rep
    // costs the hot words it touches, not the array. 10x is a deep
    // floor — the droop condition above leaves ~50x headroom even on a
    // noisy VM — so a regression here means the sparse path fell back
    // to dense resolves, not that the machine was busy.
    if delta_reps_measured < 15 {
        eprintln!(
            "BENCH FAIL: only {delta_reps_measured} of 15 timed droop reps rode the delta path; \
             the settled baseline is not being reused"
        );
        failed = true;
    }
    // The metrics plane's price-of-admission contract: per-rep
    // instrumentation must stay invisible next to the rep itself.
    if metrics_overhead_pct > 5.0 {
        eprintln!(
            "BENCH FAIL: fleet metrics cost {metrics_overhead_pct:.1}% on the warm rep path \
             (median of {PAIRS} paired ratios); the hot-rep instrumentation gate is 5%"
        );
        failed = true;
    }
    if delta_speedup < 10.0 {
        eprintln!(
            "BENCH FAIL: settled delta rep at {delta_speedup:.1}x the dense resolve \
             ({t_delta:?} vs {t_dense_droop:?}); the rep-delta floor is 10x"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
