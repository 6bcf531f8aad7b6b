//! Regenerates the paper's tables and figures from
//! `voltboot::experiments::INDEX`, on the die `VOLTBOOT_SEED` picks.
//!
//! ```text
//! repro [all]       every entry's claims and digest: the block in EXPERIMENTS.md
//! repro <id>...     each named entry's detail and claims; writes its PBM figures
//! ```

use std::process::ExitCode;
use voltboot::experiments::{self, Entry, INDEX};
use voltboot_bench::seed;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = seed();
    if args.is_empty() || args == ["all"] {
        print!("{}", experiments::render_all(seed, &experiments::run_all(seed)));
        return ExitCode::SUCCESS;
    }
    let mut entries: Vec<&Entry> = Vec::new();
    for id in &args {
        let Some(entry) = INDEX.iter().find(|e| e.id == id) else {
            let ids: Vec<&str> = INDEX.iter().map(|e| e.id).collect();
            eprintln!("error: unknown experiment {id:?}");
            eprintln!("usage: repro [all | <id>...], ids: {}", ids.join(" "));
            return ExitCode::FAILURE;
        };
        entries.push(entry);
    }
    for entry in entries {
        let run = (entry.run)(seed);
        println!("{}\n{}", entry.render(&run), run.detail);
        for (path, contents) in &run.figures {
            if let Err(e) = std::fs::write(path, contents) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {path}");
        }
    }
    ExitCode::SUCCESS
}
