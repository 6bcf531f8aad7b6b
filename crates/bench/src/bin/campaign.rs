//! Attack-campaign replay under fault-rate sweeps.
//!
//! Runs the Volt Boot attack N times per fault rate against a Raspberry
//! Pi 4 victim, with the campaign runner's retry/backoff and the seeded
//! fault plan deciding which repetitions glitch. Writes the full
//! machine-readable report (per-sweep summaries, per-rep records,
//! per-step timings and counters) to `BENCH_campaign.json` next to
//! `BENCH_sram.json`.
//!
//! ```text
//! cargo run --release -p voltboot-bench --bin campaign -- \
//!     [--reps N] [--passes N] [--threads N] [--deadline-ns N] \
//!     [--checkpoint PATH [--resume]] [--trace-out STEM] \
//!     [--connect ADDR [--reconnect] [--shards N] [--dashboard]] \
//!     [--smoke]
//! ```
//!
//! * `--passes N` reads each SRAM unit N times and majority-votes the
//!   bits (odd, capped; see `voltboot::recover`).
//! * `--threads N` shards each campaign's repetitions across N worker
//!   threads; the report stays byte-identical to a single-thread run
//!   (only the measured `reps_per_s` changes).
//! * `--deadline-ns N` bounds each repetition's retry loop on the
//!   virtual clock; overruns are recorded as `timed_out`.
//! * `--checkpoint PATH` saves an integrity-sealed checkpoint after
//!   every repetition (one file per sweep rate, `PATH.rateI`); with
//!   `--resume`, a killed run continues from the checkpoints and the
//!   final report is byte-identical to an uninterrupted run.
//! * `--trace-out STEM` additionally writes the merged telemetry of
//!   every sweep as `STEM.trace.json` (Chrome `trace_event` — open in
//!   `chrome://tracing`), `STEM.folded` (collapsed stacks for
//!   flamegraphs), and `STEM.waves.csv` (PDN rail waveforms). All
//!   three are deterministic: byte-identical for equal seeds at any
//!   `--threads`.
//! * `--connect ADDR` runs the sweep as a *client* of a running
//!   `voltboot-server serve` daemon: each rate is submitted as one
//!   job, progress streams to stdout, and the assembled report (and
//!   `--trace-out` exports, rebuilt from the jobs' telemetry) is
//!   byte-identical to a local run with the same seeds. `--checkpoint`
//!   stays local-only; checkpointing happens inside the daemon.
//! * `--reconnect` (with `--connect`) makes the client survive daemon
//!   restarts and network faults: SUBMIT/WATCH/REPORT retry with
//!   saturating backoff, re-dialling the daemon between attempts. A
//!   daemon restarted on the same `--state-dir` resumes the jobs, and
//!   the sweep completes with the same bytes.
//! * `--shards N` (with `--connect`) asks the daemon to run each job
//!   as N supervised worker processes (needs the daemon to have a
//!   `--state-dir`); the merged report bytes do not change.
//! * `--dashboard` (with `--connect`) replaces the per-rep progress
//!   lines with a refreshing terminal dashboard rendered from the
//!   daemon's `METRICS` scrape: fleet reps/s, rep-latency p50/p99,
//!   queue depth, per-shard progress bars, retry/quarantine tallies.
//!   The dashboard reads the wall-clock metrics plane only; the
//!   assembled report stays byte-identical with or without it.
//!
//! Everything is virtual-clock deterministic: two runs with the same
//! `VOLTBOOT_SEED` / `VOLTBOOT_FAULT_SEED` produce byte-identical
//! reports — whatever `--threads` says. `--smoke` runs a small
//! fixed-seed campaign sequentially and again under `--threads`, fails
//! the process on any byte drift, schema regression or a throughput
//! under its floor, and skips the file write — the CI gate. Kill and
//! resume across thread counts, the rep-delta path and the trace
//! exports are checked by the integration tests under
//! `crates/core/tests/` (`campaign_props`, `delta_campaign`).
//!
//! Any argument that is not one of the flags above, or a flag's value,
//! exits 2 with the usage line before anything runs.

use std::path::{Path, PathBuf};
use voltboot::attack::VoltBootAttack;
use voltboot::campaign::{Campaign, Checkpoint, RepStatus, RetryPolicy, ShardRange};
use voltboot::fault::{FaultPlan, FaultRates};
use voltboot::telemetry::json::Value;
use voltboot::telemetry::{export, parse, Recorder};
use voltboot_server::{spec, Client, Platform, ReconnectPolicy};
use voltboot_soc::Soc;

/// The fault rates the sweep replays the attack under.
const SWEEP_RATES: [f64; 3] = [0.0, 0.05, 0.2];

/// The per-rep victim builder — the server crate's canonical one, so
/// reports from local runs, daemon jobs, and shard processes all
/// byte-compare.
fn victim(die_seed: u64) -> impl Fn(u64) -> Soc + Sync {
    spec::canonical_victim(Platform::Pi4, die_seed)
}

/// Everything a sweep run is parameterised on.
struct SweepConfig {
    die_seed: u64,
    fault_seed: u64,
    reps: u64,
    passes: u32,
    /// Worker threads per campaign (1 = the sequential runner).
    threads: usize,
    deadline_ns: Option<u64>,
    /// Checkpoint file stem and whether to resume from existing files.
    checkpoint: Option<(PathBuf, bool)>,
    /// A running `voltboot-server` to submit the sweep to instead of
    /// running it in-process.
    connect: Option<String>,
    /// With `connect`: retry and re-dial across daemon restarts and
    /// network faults instead of failing on the first dropped socket.
    reconnect: bool,
    /// With `connect`: ask the daemon to run each job as this many
    /// supervised worker processes (0 = daemon default, in-process).
    shards: u32,
    /// With `connect`: render a refreshing terminal dashboard from the
    /// daemon's `METRICS` scrapes instead of per-rep progress lines.
    dashboard: bool,
}

fn build_campaign(cfg: &SweepConfig, sweep: usize, rate: f64) -> Campaign {
    let plan = FaultPlan::new(cfg.fault_seed.wrapping_add(sweep as u64), FaultRates::uniform(rate));
    let mut campaign =
        Campaign::new(VoltBootAttack::new("TP15").passes(cfg.passes), plan, cfg.reps)
            .retry(RetryPolicy { max_attempts: 3, initial_backoff_ns: 50_000_000 });
    if let Some(deadline) = cfg.deadline_ns {
        campaign = campaign.deadline_ns(deadline);
    }
    campaign
}

/// Per-sweep checkpoint file: one campaign per rate, one file per campaign.
fn sweep_checkpoint(stem: &Path, sweep: usize) -> PathBuf {
    let mut name = stem.as_os_str().to_os_string();
    name.push(format!(".rate{sweep}"));
    PathBuf::from(name)
}

/// Runs the full sweep and builds the report document plus a merged
/// trace recorder (every sweep's telemetry absorbed in sweep order,
/// ready for `--trace-out`). Both are deterministic (byte-identical
/// for equal seeds, any thread count); wall-clock scaling stats are
/// appended by `main` outside the document, behind the
/// `# nondeterministic` trailer.
fn sweep_document(cfg: &SweepConfig) -> (Value, Recorder) {
    if let Some(addr) = &cfg.connect {
        return remote_sweep_document(cfg, addr);
    }
    let trace = Recorder::new();
    let mut sweeps = Vec::new();
    for (i, &rate) in SWEEP_RATES.iter().enumerate() {
        let campaign = build_campaign(cfg, i, rate);
        // One runner for every configuration; it runs the one-worker
        // path at 1 thread.
        let path = cfg.checkpoint.as_ref().map(|(stem, _)| sweep_checkpoint(stem, i));
        let resume = cfg.checkpoint.as_ref().is_some_and(|(_, resume)| *resume);
        let from = match &path {
            Some(path) if resume && path.exists() => {
                let cp = Checkpoint::load(path)
                    .unwrap_or_else(|e| panic!("resume from {}: {e}", path.display()));
                assert!(
                    cp.shard == ShardRange::whole(cp.reps),
                    "{} covers only shard {}; merge it with `voltboot-server merge-shards`",
                    path.display(),
                    cp.shard
                );
                cp
            }
            _ => campaign.fresh(ShardRange::whole(cfg.reps)),
        };
        let result = campaign
            .run_from(cfg.threads, from, None, path.as_deref(), victim(cfg.die_seed))
            .unwrap_or_else(|e| panic!("sweep {i}: {e}"));
        let confidence = result.confidence_total();
        println!(
            "rate {rate:>4}: {} success / {} degraded / {} failed / {} timed out over {} reps \
             ({} bits repaired, {} unresolved)",
            result.count(RepStatus::Success),
            result.count(RepStatus::Degraded),
            result.count(RepStatus::Failed),
            result.count(RepStatus::TimedOut),
            cfg.reps,
            confidence.repaired,
            confidence.unresolved,
        );
        trace.absorb(&result.recorder);
        sweeps.push(Value::object(vec![
            ("fault_rate", Value::from(rate)),
            ("result", result.to_value()),
        ]));
    }
    let doc = Value::object(vec![
        ("bench", Value::from("campaign")),
        ("die_seed", Value::from(cfg.die_seed)),
        ("fault_seed", Value::from(cfg.fault_seed)),
        ("reps_per_rate", Value::from(cfg.reps)),
        ("passes", Value::from(u64::from(cfg.passes))),
        ("sweeps", Value::Array(sweeps)),
    ]);
    (doc, trace)
}

/// The rendered deterministic report (the smoke gates compare this
/// byte-wise).
fn sweep_report(cfg: &SweepConfig) -> String {
    sweep_document(cfg).0.render_pretty()
}

/// Submits `spec_line`, re-dialling on transient (transport) errors
/// with the policy's backoff. SUBMIT is not idempotent: a reply torn
/// off after the daemon queued the job retries into a *duplicate* job;
/// the duplicate runs to completion on the daemon and this client
/// simply follows the last accepted id. Protocol errors stay fatal.
fn submit_reconnecting(
    addr: &str,
    spec_line: &str,
    policy: ReconnectPolicy,
) -> Result<u64, voltboot_server::ClientError> {
    let mut attempt = 0;
    loop {
        match Client::connect(addr).and_then(|mut c| c.submit(spec_line)) {
            Ok(id) => return Ok(id),
            Err(e) if e.is_transient() && attempt + 1 < policy.retry.max_attempts => {
                std::thread::sleep(policy.backoff(attempt));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Scrapes `METRICS` on a fresh control connection and redraws the
/// dashboard in place. Scrape failures are swallowed: the dashboard is
/// a viewport onto the wall-clock metrics plane, never a reason to
/// fail a sweep.
fn draw_dashboard(
    addr: &str,
    dash: &mut voltboot_bench::dashboard::Dashboard,
    last: &mut std::time::Instant,
) {
    if let Ok(text) = Client::connect(addr).and_then(|mut c| c.metrics()) {
        let frame = dash.frame(&text, last.elapsed().as_secs_f64());
        *last = std::time::Instant::now();
        print!("{}{frame}", voltboot_bench::dashboard::CLEAR);
        let _ = std::io::Write::flush(&mut std::io::stdout());
    }
}

/// Client mode: one daemon job per sweep rate, progress streamed as it
/// runs, the per-job reports parsed and embedded exactly where a local
/// run would have put its `result` values. The trace recorder is
/// rebuilt from each job's exported telemetry, so `--trace-out` works
/// unchanged. Seeds being equal, the assembled document is
/// byte-identical to a local run's.
fn remote_sweep_document(cfg: &SweepConfig, addr: &str) -> (Value, Recorder) {
    // Without `--reconnect`, one persistent connection serves the whole
    // sweep and any socket error is fatal. With it, every step re-dials
    // with saturating backoff, so a daemon restart mid-sweep only shows
    // up as a pause.
    let mut client = if cfg.reconnect {
        None
    } else {
        Some(Client::connect(addr).unwrap_or_else(|e| panic!("connect {addr}: {e}")))
    };
    let policy = ReconnectPolicy::default();
    // The dashboard throttles itself to ~2 Hz: WATCH ticks once per
    // completed rep, which can be far faster than a scrape is worth.
    let mut dash = cfg
        .dashboard
        .then(|| (voltboot_bench::dashboard::Dashboard::new(cfg.reps), std::time::Instant::now()));
    let trace = Recorder::new();
    let mut sweeps = Vec::new();
    for (i, &rate) in SWEEP_RATES.iter().enumerate() {
        let mut spec_line = format!(
            "platform=pi4 rate={rate} reps={} passes={} threads={} die_seed={} fault_seed={}",
            cfg.reps,
            cfg.passes,
            cfg.threads,
            cfg.die_seed,
            cfg.fault_seed.wrapping_add(i as u64),
        );
        if let Some(deadline) = cfg.deadline_ns {
            spec_line.push_str(&format!(" deadline_ns={deadline}"));
        }
        if cfg.shards > 0 {
            spec_line.push_str(&format!(" shards={}", cfg.shards));
        }
        let (job, report) = match client.as_mut() {
            Some(client) => {
                let job =
                    client.submit(&spec_line).unwrap_or_else(|e| panic!("submit rate {rate}: {e}"));
                client
                    .watch(job, |done, total| match dash.as_mut() {
                        Some((d, last)) if last.elapsed().as_millis() >= 500 => {
                            draw_dashboard(addr, d, last);
                        }
                        Some(_) => {}
                        None => println!("rate {rate:>4}: job {job} at {done}/{total} reps"),
                    })
                    .unwrap_or_else(|e| panic!("watch job {job}: {e}"));
                let report = client.report(job).unwrap_or_else(|e| panic!("report job {job}: {e}"));
                (job, report)
            }
            None => {
                // SUBMIT is not idempotent, so it gets its own simple
                // retry on transient (transport) errors only; WATCH and
                // REPORT are, and use the reconnecting helpers.
                let job = submit_reconnecting(addr, &spec_line, policy)
                    .unwrap_or_else(|e| panic!("submit rate {rate}: {e}"));
                Client::watch_reconnecting(addr, job, policy, |done, total| match dash.as_mut() {
                    Some((d, last)) if last.elapsed().as_millis() >= 500 => {
                        draw_dashboard(addr, d, last);
                    }
                    Some(_) => {}
                    None => println!("rate {rate:>4}: job {job} at {done}/{total} reps"),
                })
                .unwrap_or_else(|e| panic!("watch job {job}: {e}"));
                let report = Client::report_reconnecting(addr, job, policy)
                    .unwrap_or_else(|e| panic!("report job {job}: {e}"));
                (job, report)
            }
        };
        let result =
            parse::parse(&report).unwrap_or_else(|e| panic!("job {job} report parse: {e}"));
        if let Some(telemetry) = result.get("telemetry") {
            let recorder = Recorder::from_value(telemetry)
                .unwrap_or_else(|e| panic!("job {job} telemetry parse: {e}"));
            trace.absorb(&recorder);
        }
        sweeps.push(Value::object(vec![("fault_rate", Value::from(rate)), ("result", result)]));
    }
    // One closing frame so the final tallies are what stays on screen.
    if let Some((d, last)) = dash.as_mut() {
        draw_dashboard(addr, d, last);
        println!();
    }
    let doc = Value::object(vec![
        ("bench", Value::from("campaign")),
        ("die_seed", Value::from(cfg.die_seed)),
        ("fault_seed", Value::from(cfg.fault_seed)),
        ("reps_per_rate", Value::from(cfg.reps)),
        ("passes", Value::from(u64::from(cfg.passes))),
        ("sweeps", Value::Array(sweeps)),
    ]);
    (doc, trace)
}

/// Appends wall-clock (nondeterministic) stats to a deterministic
/// report as a clearly separated trailer: the deterministic bytes come
/// first, unchanged, then a `# nondeterministic` marker line, then the
/// stats as one compact JSON line. Anything diffing reports for
/// byte-identity can split on the marker.
fn with_nondeterministic_trailer(deterministic: &str, stats: Value) -> String {
    let mut out = String::from(deterministic);
    if !out.ends_with('\n') {
        out.push('\n');
    }
    out.push_str("# nondeterministic\n");
    out.push_str(&stats.render());
    out.push('\n');
    out
}

/// Writes the merged trace recorder's three export views next to `stem`.
fn write_trace_exports(stem: &str, trace: &Recorder) {
    let write = |ext: &str, contents: String| {
        let path = format!("{stem}{ext}");
        std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    };
    write(".trace.json", export::chrome_trace(trace).render_pretty());
    write(".folded", export::folded(trace));
    write(".waves.csv", export::waveforms_csv(trace));
}

/// Keys any schema-compatible report must contain; CI fails on drift.
const SCHEMA_KEYS: [&str; 18] = [
    "\"bench\"",
    "\"fault_seed\"",
    "\"passes\"",
    "\"sweeps\"",
    "\"fault_rate\"",
    "\"summary\"",
    "\"timed_out\"",
    "\"bits_repaired\"",
    "\"records\"",
    "\"confidence\"",
    "\"telemetry\"",
    "\"counters\"",
    "\"timings\"",
    "\"clock_ns\"",
    "\"gauges\"",
    "\"hists\"",
    "\"spans\"",
    "\"waves\"",
];

/// Fixed seeds for the smoke gate: it checks reproducibility and
/// schema, not the user's environment.
const SMOKE_SEEDS: (u64, u64) = (0x0020_22A5_B007, 0x000F_A017_C0DE);

/// The smoke campaign shape: `reps` per rate across the three sweep
/// rates, sequential by default.
fn smoke_config(reps: u64) -> SweepConfig {
    SweepConfig {
        die_seed: SMOKE_SEEDS.0,
        fault_seed: SMOKE_SEEDS.1,
        reps,
        passes: 3,
        threads: 1,
        deadline_ns: None,
        checkpoint: None,
        connect: None,
        reconnect: false,
        shards: 0,
        dashboard: false,
    }
}

/// Campaign throughput floor for the smoke run (reps per second,
/// wall-clock, sequential), attack steps, fault handling, telemetry and
/// all. The smoke runs the same 4 dies at each of its 3 rates, so only
/// the first rate builds die planes; the other two find every die in
/// the plane cache. DRAM decay is paid only on the pages a rep touches
/// (the boot image's), not across all 8 MiB per power cycle. A power-on
/// samples no power-up state: each array samples only the tiles a rep
/// reads or partly writes, so a rep never samples the L2's power-up
/// state, which boot overwrites whole. The tiles it does sample are
/// derived a word at a time, and a board allocates only the DRAM pages
/// it writes. Observed 29.1–40.5 reps/s over six runs on a 2-vCPU
/// shared VM; the floor sits 1.8x under the slowest of those runs, so
/// machine noise cannot flap CI while a 2.5x regression still trips it.
const SMOKE_REPS_PER_S_FLOOR: f64 = 16.0;

fn smoke(threads: usize) -> i32 {
    let cfg = smoke_config(4);
    let started = std::time::Instant::now();
    let a = sweep_report(&cfg);
    let elapsed_s = started.elapsed().as_secs_f64();
    let reps_per_s = cfg.reps as f64 * SWEEP_RATES.len() as f64 / elapsed_s;
    // The second run re-runs under `--threads`: the byte-compare gates
    // both plain reproducibility and determinism under parallelism.
    let b = sweep_report(&SweepConfig { threads, ..cfg });
    if a != b {
        eprintln!(
            "SMOKE FAIL: same-seed campaign reports differ byte-wise \
             (sequential vs {threads} threads)"
        );
        return 1;
    }
    for key in SCHEMA_KEYS {
        if !a.contains(key) {
            eprintln!("SMOKE FAIL: report schema is missing {key}");
            return 1;
        }
    }
    if reps_per_s < SMOKE_REPS_PER_S_FLOOR {
        eprintln!(
            "SMOKE FAIL: campaign throughput {reps_per_s:.2} reps/s is under the \
             {SMOKE_REPS_PER_S_FLOOR} reps/s floor — the warm sweep path has regressed"
        );
        return 1;
    }
    println!(
        "smoke ok: {} bytes, byte-identical across runs (1 vs {threads} threads), schema intact, \
         {reps_per_s:.1} reps/s (floor {SMOKE_REPS_PER_S_FLOOR})",
        a.len()
    );
    0
}

/// Flags followed by a value.
const VALUE_FLAGS: [&str; 8] = [
    "--reps",
    "--passes",
    "--threads",
    "--deadline-ns",
    "--checkpoint",
    "--trace-out",
    "--connect",
    "--shards",
];

/// Flags that stand alone.
const SWITCHES: [&str; 4] = ["--resume", "--reconnect", "--dashboard", "--smoke"];

const USAGE: &str = "usage: campaign [--reps N] [--passes N] [--threads N] [--deadline-ns N] \
                     [--checkpoint PATH [--resume]] [--trace-out STEM] \
                     [--connect ADDR [--reconnect] [--shards N] [--dashboard]] [--smoke]";

/// The first argument that is neither a known flag nor the value of a
/// flag that takes one.
fn unknown_argument(args: &[String]) -> Option<&str> {
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            args.next();
        } else if !SWITCHES.contains(&arg.as_str()) {
            return Some(arg);
        }
    }
    None
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .map(|i| args.get(i + 1).unwrap_or_else(|| panic!("{flag} needs a value")).clone())
}

fn parsed_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    flag_value(args, flag)
        .map(|v| v.parse().unwrap_or_else(|_| panic!("{flag} needs an integer, got {v:?}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // An unknown flag must not fall through to the default sweep, which
    // overwrites BENCH_campaign.json.
    if let Some(arg) = unknown_argument(&args) {
        eprintln!("campaign: unknown argument {arg:?}\n{USAGE}");
        std::process::exit(2);
    }
    let threads = parsed_flag(&args, "--threads").unwrap_or(1).max(1);
    if args.iter().any(|a| a == "--smoke") {
        std::process::exit(smoke(threads.max(2)));
    }
    let cfg = SweepConfig {
        die_seed: voltboot_bench::seed(),
        fault_seed: voltboot_bench::fault_seed(),
        reps: parsed_flag(&args, "--reps").unwrap_or(100),
        passes: parsed_flag(&args, "--passes").unwrap_or(1),
        threads,
        deadline_ns: parsed_flag(&args, "--deadline-ns"),
        checkpoint: flag_value(&args, "--checkpoint")
            .map(|p| (PathBuf::from(p), args.iter().any(|a| a == "--resume"))),
        connect: flag_value(&args, "--connect"),
        reconnect: args.iter().any(|a| a == "--reconnect"),
        shards: parsed_flag(&args, "--shards").unwrap_or(0),
        dashboard: args.iter().any(|a| a == "--dashboard"),
    };
    if cfg.connect.is_some() && cfg.checkpoint.is_some() {
        eprintln!("--connect and --checkpoint are mutually exclusive: the daemon checkpoints");
        std::process::exit(2);
    }
    if cfg.connect.is_none() && (cfg.reconnect || cfg.shards > 0 || cfg.dashboard) {
        eprintln!("--reconnect, --shards, and --dashboard only make sense with --connect ADDR");
        std::process::exit(2);
    }

    println!("{}\nCAMPAIGN: attack replay under fault-rate sweeps\n{0}", "=".repeat(62));
    let started = std::time::Instant::now();
    let (doc, trace) = sweep_document(&cfg);
    let elapsed_s = started.elapsed().as_secs_f64();
    if let Some(stem) = flag_value(&args, "--trace-out") {
        write_trace_exports(&stem, &trace);
    }
    // Wall-clock scaling stats ride outside the deterministic document,
    // behind the `# nondeterministic` trailer: everything above the
    // marker stays byte-identical across thread counts, the measured
    // rep throughput below it is what `--threads` buys.
    let total_reps = cfg.reps * SWEEP_RATES.len() as u64;
    let reps_per_s = if elapsed_s > 0.0 { total_reps as f64 / elapsed_s } else { 0.0 };
    let stats = Value::object(vec![
        ("threads", Value::from(cfg.threads)),
        ("elapsed_s", Value::from(elapsed_s)),
        ("reps_per_s", Value::from(reps_per_s)),
        // The trajectory-tracking alias: BENCH_* dashboards key sweep
        // throughput off this name (the rep-delta PR's headline metric).
        ("campaign_reps_per_s", Value::from(reps_per_s)),
    ]);
    let report = with_nondeterministic_trailer(&doc.render_pretty(), stats);
    std::fs::write("BENCH_campaign.json", &report).expect("write BENCH_campaign.json");
    println!(
        "wrote BENCH_campaign.json ({} bytes): {total_reps} reps on {} threads in {elapsed_s:.2} s \
         ({reps_per_s:.2} reps/s)",
        report.len(),
        cfg.threads
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trailer_leaves_the_deterministic_prefix_unchanged() {
        let deterministic = "{\n  \"bench\": \"campaign\"\n}";
        let stats =
            Value::object(vec![("threads", Value::from(4u64)), ("elapsed_s", Value::from(1.5))]);
        let report = with_nondeterministic_trailer(deterministic, stats);
        assert!(report.starts_with(deterministic));
        let (prefix, trailer) = report
            .split_once("# nondeterministic\n")
            .expect("report carries the nondeterministic marker");
        assert_eq!(prefix, format!("{deterministic}\n"));
        assert_eq!(trailer, "{\"threads\":4,\"elapsed_s\":1.5}\n");
    }

    #[test]
    fn unknown_arguments_are_refused() {
        let args =
            |line: &str| -> Vec<String> { line.split_whitespace().map(String::from).collect() };
        assert_eq!(unknown_argument(&args("--threads 2 --resume-smoke")), Some("--resume-smoke"));
        assert_eq!(unknown_argument(&args("--reps 5 10")), Some("10"));
        assert_eq!(unknown_argument(&args("--smoke --delta-smoke")), Some("--delta-smoke"));
        assert_eq!(unknown_argument(&args("--threads 2 --smoke")), None);
        assert_eq!(
            unknown_argument(&args(
                "--reps 3 --passes 3 --threads 2 --deadline-ns 9 --checkpoint cp --resume \
                 --trace-out t --connect a:1 --reconnect --shards 2 --dashboard"
            )),
            None
        );
        // A value is taken as a value even when it looks like a flag.
        assert_eq!(unknown_argument(&args("--trace-out --smoke")), None);
        assert_eq!(unknown_argument(&[]), None);
    }

    #[test]
    fn trailer_does_not_double_terminal_newlines() {
        let report =
            with_nondeterministic_trailer("{}\n", Value::object(vec![("x", Value::from(1u64))]));
        assert_eq!(report, "{}\n# nondeterministic\n{\"x\":1}\n");
    }
}
