//! The `shard` and `merge-shards` subcommands as real processes: two
//! `shard` workers over disjoint rep ranges, merged by `merge-shards`
//! into a file and onto stdout, give the sequential report byte for
//! byte; a corrupt shard makes `merge-shards` fail typed.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use voltboot_server::SweepSpec;

const SPEC_LINE: &str = "platform=pi4 rate=0.2 reps=4 passes=3 threads=1 \
                         die_seed=35350880196615 fault_seed=17182606954718";

fn temp(tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("voltboot_shard_cli_{tag}_{}", std::process::id()));
    std::fs::remove_file(&path).ok();
    path
}

fn voltboot_server(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_voltboot-server"))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("run voltboot-server {args:?}: {e}"))
}

fn arg(path: &Path) -> &str {
    path.to_str().expect("temp paths are UTF-8")
}

#[test]
fn shard_processes_merge_to_the_sequential_report() {
    let spec = SweepSpec::parse(SPEC_LINE.split(' ')).expect("spec parses");
    let reference = spec.campaign().run(spec.victim()).to_json();

    let (lo, hi, out) = (temp("lo"), temp("hi"), temp("out"));
    let k = (spec.reps / 2).to_string();
    let reps = spec.reps.to_string();
    for (path, start, end) in [(&lo, "0", k.as_str()), (&hi, k.as_str(), reps.as_str())] {
        let mut args = vec!["shard", "--start", start, "--end", end, "--checkpoint", arg(path)];
        args.extend(SPEC_LINE.split_whitespace());
        let shard = voltboot_server(&args);
        assert!(shard.status.success(), "shard [{start}, {end}): {shard:?}");
    }

    let merged = voltboot_server(&["merge-shards", "--out", arg(&out), arg(&lo), arg(&hi)]);
    assert!(merged.status.success(), "merge-shards --out: {merged:?}");
    assert_eq!(std::fs::read_to_string(&out).expect("read --out"), reference);

    let printed = voltboot_server(&["merge-shards", arg(&hi), arg(&lo)]);
    assert!(printed.status.success(), "merge-shards: {printed:?}");
    assert_eq!(String::from_utf8(printed.stdout).expect("UTF-8 report"), reference);

    let mut bytes = std::fs::read(&lo).expect("read shard");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&lo, &bytes).expect("rewrite shard");
    let corrupt = voltboot_server(&["merge-shards", arg(&lo), arg(&hi)]);
    assert_eq!(corrupt.status.code(), Some(1), "a corrupt shard: {corrupt:?}");
    assert!(String::from_utf8_lossy(&corrupt.stderr).contains("merge failed"), "{corrupt:?}");

    for path in [lo, hi, out] {
        std::fs::remove_file(path).ok();
    }
}
