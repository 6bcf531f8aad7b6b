//! voltbench — the end-to-end Volt Boot benchmark.
//!
//! ```text
//! cargo run --release --manifest-path voltbench/Cargo.toml -- \
//!     [--workload NAME] [--seed S] [--seconds N] [--trace 0|1]
//! ```
//!
//! Three closed-loop workloads, each run in a process of its own (the
//! plane cache, the rep-delta baselines, the metrics registry and the
//! heap peak are all process-global), with two threads of load
//! on two simulator threads (`VOLTBOOT_THREADS=2`):
//!
//! * `fresh_die_sweep` — the canonical campaign: a new die every rep,
//!   so every rep builds its die planes.
//! * `fixed_die_droop` — one die for every rep under a weak probe: the
//!   million-rep shape where plane builds are cached and the rep-delta
//!   path engages.
//! * `daemon_small_jobs` — two clients driving an in-process sweep
//!   daemon with small jobs: the service path.
//!
//! Without `--workload` every workload runs in its own child process.
//! Each run sets up [`SETUP_REPEATS`] times (the median is `setup_s`),
//! measures for `--seconds`, checks its outputs, and prints one
//! `name value unit` line per metric, then one JSON result line. With
//! `--trace 1` the metrics are the per-layer ones: after the same
//! measured loop, sampled reps are replayed one public call per layer.
//! The exit code is non-zero when an output check fails.

mod campaigns;
mod daemon;
mod replay;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use voltboot_telemetry::json::Value;

#[global_allocator]
static HEAP: stats::PeakHeap = stats::PeakHeap;

/// Seed the expected report digests were taken at (the repo's smoke die).
pub const DEFAULT_SEED: u64 = 0x0020_22A5_B007;
/// Measured seconds per run when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 25.0;
/// Threads of load: campaign workers, daemon executors and clients, and
/// the simulator's own pool (`nproc` on the reference machine).
pub const THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// The workloads, in the order a bare `voltbench` runs them.
pub const WORKLOADS: [&str; 3] = ["fresh_die_sweep", "fixed_die_droop", "daemon_small_jobs"];

/// CRC-64 of each workload's deterministic output bytes at
/// [`DEFAULT_SEED`]; a run at that seed fails on any other digest.
const EXPECTED_CRC64: [(&str, u64); 3] = [
    ("fresh_die_sweep", 0x1c3f_b574_ee6c_1f6f),
    ("fixed_die_droop", 0xd9bf_4e45_d0ba_3ca8),
    ("daemon_small_jobs", 0x6f48_cd4a_4d87_539e),
];

/// A metric: its name and unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// What a user of the simulator sees (measured with tracing off).
pub const END_TO_END: [Metric; 4] = [
    m("reps_per_s", "reps/s"),
    m("latency_p50_ms", "ms"),
    m("setup_s", "s"),
    m("peak_heap_mb", "MiB"),
];

/// Single layers, from the `--trace 1` run.
pub const PER_LAYER: [Metric; 32] = [
    m("sram.first_power_on_ms", "ms"),
    m("sram.resolve_ms", "ms"),
    m("sram.plane_builds_per_rep", "count"),
    m("sram.plane_evictions_per_rep", "count"),
    m("sram.delta_reps_per_rep", "count"),
    m("sram.plane_cache_cells", "count"),
    m("sram.baseline_bytes", "bytes"),
    m("pdn.attach_ms", "ms"),
    m("pdn.cycle_ms", "ms"),
    m("soc.build_ms", "ms"),
    m("soc.power_cycle_ms", "ms"),
    m("soc.boot_ms", "ms"),
    m("soc.dram_decay_ms", "ms"),
    m("armlite.victim_program_ms", "ms"),
    m("core.attack_ms", "ms"),
    m("core.extract_vote_ms", "ms"),
    m("core.attempts_per_rep", "count"),
    m("core.unit_reads_per_image", "count"),
    m("core.report_render_ms", "ms"),
    m("core.checkpoint_save_ms", "ms"),
    m("core.checkpoint_bytes", "bytes"),
    m("telemetry.trace_export_ms", "ms"),
    m("server.submit_ms", "ms"),
    m("server.watch_ms", "ms"),
    m("server.report_ms", "ms"),
    m("server.metrics_scrape_ms", "ms"),
    m("server.report_bytes", "bytes"),
    m("server.claim_latency_p50_ms", "ms"),
    m("server.journal_fsync_p50_us", "us"),
    m("server.journal_bytes", "bytes"),
    m("server.restart_replay_ms", "ms"),
    m("trace.coverage", "ratio"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Everything one workload run reports.
#[derive(Default)]
pub struct Outcome {
    /// Operations (reps or jobs) the measured loop completed.
    pub attempted: u64,
    /// Operations that ended failed.
    pub failed: u64,
    /// Output checks that failed, one line each.
    pub problems: Vec<String>,
    /// CRC-64 of the workload's deterministic output bytes.
    pub crc64: u64,
    pub values: Values,
    /// Informational lines (tail quantiles with their sample counts).
    pub notes: Vec<String>,
}

/// Runs `setup` [`SETUP_REPEATS`] times, each from a cold start, and
/// returns the median time in seconds with the last set-up's state;
/// `teardown` disposes of the others, untimed.
pub fn setup_median<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(f64, T), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..SETUP_REPEATS {
        if let Some(old) = kept.take() {
            teardown(old);
        }
        let start = Instant::now();
        kept = Some(setup(i)?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((stats::median(&times), kept.expect("at least one set-up")))
}

/// A 64-bit mix of `seed` and a stream index (splitmix64's finalizer):
/// the workloads derive every die and fault seed from `--seed` this way.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out =
        Args { workload: None, seed: DEFAULT_SEED, seconds: DEFAULT_SECONDS, trace: false };
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        let need = |flag: &str| value.ok_or_else(|| format!("{flag} needs a value"));
        match args[i].as_str() {
            "--workload" => {
                let w = need("--workload")?;
                if !WORKLOADS.contains(&w) {
                    return Err(format!("unknown workload {w:?} (expected one of {WORKLOADS:?})"));
                }
                out.workload = Some(w.to_string());
            }
            "--seed" => {
                let v = need("--seed")?;
                out.seed = parse_u64(v).ok_or_else(|| format!("--seed {v:?} is not a u64"))?;
            }
            "--seconds" => {
                let v = need("--seconds")?;
                out.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("--seconds {v:?} is not a positive number"))?;
            }
            "--trace" => match value {
                Some("0") => out.trace = false,
                Some("1") => out.trace = true,
                // A bare `--trace` turns tracing on.
                _ => {
                    out.trace = true;
                    i += 1;
                    continue;
                }
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "voltbench: {e}\nusage: voltbench [--workload NAME] [--seed S] [--seconds N] \
                 [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    // Pinned before anything reads it: the simulator sizes its pool once.
    std::env::set_var("VOLTBOOT_THREADS", THREADS.to_string());
    match &args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&argv),
    }
}

/// Re-runs this binary once per workload, each in its own process
/// (inheriting the pinned `VOLTBOOT_THREADS`).
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("voltbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe).args(argv).args(["--workload", w]).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("voltbench: workload {w} failed ({s})");
                ok = false;
            }
            Err(e) => {
                eprintln!("voltbench: cannot start workload {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Scratch space for checkpoints and daemon state, inside the working
/// directory and removed when the run ends.
fn work_dir(workload: &str) -> Result<PathBuf, String> {
    let dir = Path::new(".voltbench-work").join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn run_one(workload: &str, args: &Args) -> ExitCode {
    let work = match work_dir(workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("voltbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let run = match workload {
        "fresh_die_sweep" => campaigns::fresh_die_sweep,
        "fixed_die_droop" => campaigns::fixed_die_droop,
        _ => daemon::daemon_small_jobs,
    };
    let mut outcome = run(args.seed, args.seconds, args.trace, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".voltbench-work");

    if args.seed == DEFAULT_SEED {
        let expected = EXPECTED_CRC64.iter().find(|(w, _)| *w == workload).map(|&(_, c)| c);
        if expected != Some(outcome.crc64) {
            outcome.problems.push(format!(
                "report_crc64 {:#018x} differs from the expected {:#018x} at the default seed",
                outcome.crc64,
                expected.unwrap_or(0)
            ));
        }
    }
    let metrics: &[Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if let Some(missing) = metrics.iter().find(|m| !outcome.values.contains_key(m.name)) {
        // A run that broke off early has nothing to report.
        for p in &outcome.problems {
            eprintln!("voltbench: {p}");
        }
        eprintln!("voltbench: {workload} produced no {} figure", missing.name);
        return ExitCode::FAILURE;
    }
    print_outcome(workload, args, &outcome, metrics);
    if outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_outcome(workload: &str, args: &Args, o: &Outcome, metrics: &[Metric]) {
    println!(
        "# voltbench {workload} seed={:#x} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut json = Vec::new();
    for metric in metrics {
        let value = o.values[metric.name];
        println!("{} {value} {}", metric.name, metric.unit);
        json.push((
            metric.name,
            Value::object(vec![("value", Value::Float(value)), ("unit", Value::from(metric.unit))]),
        ));
    }
    for note in &o.notes {
        println!("# {note}");
    }
    println!("# report_crc64 {:#018x}", o.crc64);
    println!("# samples {} failed {}", o.attempted, o.failed);
    for p in &o.problems {
        eprintln!("voltbench: CHECK FAILED: {p}");
    }
    let result = Value::object(vec![
        ("correct", Value::Bool(o.problems.is_empty())),
        ("attempted", Value::UInt(o.attempted)),
        ("failed", Value::UInt(o.failed)),
        ("metrics", Value::object(json)),
    ]);
    println!("{}", result.render());
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltboot_telemetry::parse;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_printed_name_is_well_formed() {
        for name in END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name).chain(WORKLOADS) {
            assert!(valid_name(name), "{name:?} is not [A-Za-z0-9_.-]+");
        }
        for unit in END_TO_END.iter().chain(&PER_LAYER).map(|m| m.unit) {
            assert!(
                unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {unit:?}"
            );
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let doc = parse::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .unwrap_or_else(|| panic!("{key} is an array"))
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let printed = |ms: &[Metric]| -> Vec<(String, String)> {
            ms.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), printed(&END_TO_END));
        assert_eq!(listed("per_layer"), printed(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(|n| n.as_str()).expect("workload name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn arguments_parse_as_the_harness_passes_them() {
        let argv: Vec<String> = ["--workload", "fixed_die_droop", "--seed", "7", "--seconds", "10"]
            .iter()
            .chain(&["--trace", "1"])
            .map(|s| s.to_string())
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(a.workload.as_deref(), Some("fixed_die_droop"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let bare = parse_args(&["--trace".to_string()]).unwrap();
        assert!(bare.trace && bare.workload.is_none() && bare.seed == DEFAULT_SEED);
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--seed".into(), "0x1F".into()]).is_ok_and(|a| a.seed == 31));
    }
}
