//! The sweep daemon binary.
//!
//! ```text
//! voltboot-server serve [--listen ADDR] [--jobs N] [--state-dir DIR]
//!                       [--io-timeout-ms N] [--heartbeat-ms N] [--shard-attempts N]
//! voltboot-server shard --start A --end B --checkpoint PATH [k=v ...]
//! voltboot-server merge-shards [--out PATH] SHARD [SHARD ...]
//! ```
//!
//! * `serve` binds the line-protocol socket (default
//!   `127.0.0.1:7715`) and runs jobs on `--jobs` executor threads.
//!   With `--state-dir` every job transition is journaled durably and
//!   a restarted daemon resumes interrupted jobs from their
//!   checkpoints. The first line it prints names the bound address.
//! * `shard` runs repetitions `[A, B)` of the spec'd campaign in this
//!   process, checkpointing to `PATH`; if `PATH` already holds a
//!   partial shard it resumes instead. Separate shard processes over
//!   disjoint ranges recombine with `merge-shards`.
//! * `merge-shards` merges a complete set of shard checkpoints into
//!   one report, byte-identical to a single sequential run, and writes
//!   it to `--out` or stdout.
//!
//! The integration tests drive all three subcommands as real
//! processes: `tests/recovery.rs` SIGKILLs a `serve` mid-job and
//! restarts it on the same state dir, `tests/shard_cli.rs` runs two
//! `shard` processes and merges them with `merge-shards`, and
//! `tests/supervised*.rs` run `shard` workers under the supervisor.
//!
//! # Fault-injection hooks (test/CI only)
//!
//! The `shard` subcommand honours three environment variables so the
//! supervisor's failure handling can be exercised with real worker
//! processes: `VOLTBOOT_SHARD_CRASH_ONCE=k` runs `k` repetitions,
//! leaves a valid partial checkpoint, and exits 42 — but only when no
//! checkpoint exists yet, so only a shard's *first* attempt crashes;
//! `VOLTBOOT_SHARD_HANG_ONCE=k` likewise runs `k` repetitions and
//! then wedges forever (exercising the heartbeat kill);
//! `VOLTBOOT_SHARD_CRASH_ALWAYS=1` exits 42 immediately on every
//! attempt (exercising quarantine).

use std::path::PathBuf;
use std::time::Duration;

use voltboot::campaign::{merge_shards, ShardRange};
use voltboot_server::{Server, ServerOptions, SweepSpec};

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .map(|i| args.get(i + 1).unwrap_or_else(|| panic!("{flag} needs a value")).clone())
}

fn parsed_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    flag_value(args, flag)
        .map(|v| v.parse().unwrap_or_else(|_| panic!("{flag} needs a number, got {v:?}")))
}

/// The `k=v` spec tokens among `args` (everything containing `=` that
/// is not a `--flag value` pair).
fn spec_tokens(args: &[String]) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut skip = false;
    for arg in args {
        if skip {
            skip = false;
            continue;
        }
        if arg.starts_with("--") {
            skip = true;
            continue;
        }
        if arg.contains('=') {
            tokens.push(arg.clone());
        }
    }
    tokens
}

fn serve(args: &[String]) -> i32 {
    let listen = flag_value(args, "--listen").unwrap_or_else(|| "127.0.0.1:7715".to_string());
    let jobs = parsed_flag(args, "--jobs").unwrap_or(1usize).max(1);
    let state_dir = flag_value(args, "--state-dir").map(PathBuf::from);
    let mut options = ServerOptions { executors: jobs, state_dir, ..ServerOptions::default() };
    if let Some(ms) = parsed_flag::<u64>(args, "--io-timeout-ms") {
        options.io_timeout = (ms > 0).then(|| Duration::from_millis(ms));
    }
    if let Some(ms) = parsed_flag::<u64>(args, "--heartbeat-ms") {
        options.supervise.heartbeat_timeout = Duration::from_millis(ms.max(1));
    }
    if let Some(attempts) = parsed_flag::<u32>(args, "--shard-attempts") {
        options.supervise.retry.max_attempts = attempts.max(1);
    }
    let durable = options.state_dir.clone();
    let server = match Server::bind_with(&listen, options) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("bind {listen}: {e}");
            return 1;
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("voltboot-server listening on {addr} ({jobs} executor(s))"),
        Err(_) => println!("voltboot-server listening"),
    }
    if let Some(dir) = durable {
        println!("voltboot-server journaling to {}", dir.display());
    }
    server.serve();
    println!("voltboot-server shut down");
    0
}

/// A `VOLTBOOT_SHARD_*` hook value parsed as a rep count.
fn env_reps(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.parse().ok()
}

fn shard(args: &[String]) -> i32 {
    let (Some(start), Some(end)) =
        (parsed_flag::<u64>(args, "--start"), parsed_flag::<u64>(args, "--end"))
    else {
        eprintln!("shard needs --start A --end B");
        return 2;
    };
    let Some(checkpoint) = flag_value(args, "--checkpoint").map(PathBuf::from) else {
        eprintln!("shard needs --checkpoint PATH");
        return 2;
    };
    let spec = match SweepSpec::parse(spec_tokens(args)) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let campaign = spec.campaign();
    let range = ShardRange { start, end };

    // Test/CI fault hooks — see the module docs. Gated on the
    // checkpoint *not* existing so an injected failure fires only on a
    // shard's first attempt and the supervisor's retry can succeed.
    if std::env::var_os("VOLTBOOT_SHARD_CRASH_ALWAYS").is_some() {
        eprintln!("shard {range}: VOLTBOOT_SHARD_CRASH_ALWAYS, exiting 42");
        return 42;
    }
    if !checkpoint.exists() {
        if let Some(k) = env_reps("VOLTBOOT_SHARD_CRASH_ONCE") {
            let partial = campaign.run_shard_partial_parallel(
                spec.threads,
                range,
                k,
                &checkpoint,
                spec.victim(),
            );
            eprintln!("shard {range}: VOLTBOOT_SHARD_CRASH_ONCE={k} ({partial:?}), exiting 42");
            return 42;
        }
        if let Some(k) = env_reps("VOLTBOOT_SHARD_HANG_ONCE") {
            let partial = campaign.run_shard_partial_parallel(
                spec.threads,
                range,
                k,
                &checkpoint,
                spec.victim(),
            );
            eprintln!("shard {range}: VOLTBOOT_SHARD_HANG_ONCE={k} ({partial:?}), wedging");
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
    }

    let result = if checkpoint.exists() {
        campaign.resume_shard_parallel(spec.threads, &checkpoint, spec.victim())
    } else {
        campaign.run_shard_parallel(spec.threads, range, &checkpoint, spec.victim())
    };
    match result {
        Ok(result) => {
            println!(
                "shard {range} done: {} records, checkpoint {}",
                result.records.len(),
                checkpoint.display()
            );
            0
        }
        Err(e) => {
            eprintln!("shard {range} failed: {e}");
            1
        }
    }
}

fn merge_cmd(args: &[String]) -> i32 {
    let out = flag_value(args, "--out").map(PathBuf::from);
    let shards: Vec<PathBuf> = {
        let mut shards = Vec::new();
        let mut skip = false;
        for arg in args {
            if skip {
                skip = false;
                continue;
            }
            if arg.starts_with("--") {
                skip = true;
                continue;
            }
            shards.push(PathBuf::from(arg));
        }
        shards
    };
    match merge_shards(&shards) {
        Ok(merged) => {
            let report = merged.to_json();
            match out {
                Some(path) => {
                    if let Err(e) = std::fs::write(&path, &report) {
                        eprintln!("write {}: {e}", path.display());
                        return 1;
                    }
                    println!("merged {} shard(s) into {}", shards.len(), path.display());
                }
                None => print!("{report}"),
            }
            0
        }
        Err(e) => {
            eprintln!("merge failed: {e}");
            1
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("shard") => shard(&args[1..]),
        Some("merge-shards") => merge_cmd(&args[1..]),
        _ => {
            eprintln!(
                "usage: voltboot-server <serve [--listen ADDR] [--jobs N] [--state-dir DIR] \
                 [--io-timeout-ms N] [--heartbeat-ms N] [--shard-attempts N] | \
                 shard --start A --end B --checkpoint PATH [k=v ...] | \
                 merge-shards [--out PATH] SHARD...>"
            );
            2
        }
    };
    std::process::exit(code);
}
