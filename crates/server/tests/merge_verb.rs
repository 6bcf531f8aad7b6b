//! The daemon's `MERGE` verb: two shard checkpoints merge through an
//! in-process daemon into bytes equal to the sequential report, a
//! corrupt shard and a path that is not a regular file each get a
//! prompt typed `ERR`, and the daemon keeps answering afterwards.

use std::path::{Path, PathBuf};
use std::time::Duration;

use voltboot::campaign::ShardRange;
use voltboot_server::{Client, ClientError, Server, SweepSpec};

const SPEC_LINE: &str = "platform=pi4 rate=0.2 reps=4 passes=1 threads=1";

fn shard_path(tag: &str) -> PathBuf {
    std::env::temp_dir()
        .join(format!("voltboot_merge_verb_{tag}_{}.checkpoint", std::process::id()))
}

/// Sends `MERGE paths` on a fresh connection from its own thread, so a
/// daemon that never answers fails the test after 5 s instead of
/// hanging it.
fn merge(addr: &str, paths: &[&Path]) -> Result<String, ClientError> {
    let addr = addr.to_string();
    let args: Vec<String> = paths.iter().map(|p| p.display().to_string()).collect();
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(Client::connect(&addr).and_then(|mut c| c.merge(&args)));
    });
    let reply = rx.recv_timeout(Duration::from_secs(5)).expect("MERGE answered within 5 s");
    handle.join().expect("MERGE thread");
    reply
}

#[test]
fn merge_verb_recombines_shards_and_refuses_bad_paths() {
    let spec = SweepSpec::parse(SPEC_LINE.split(' ')).expect("spec parses");
    let campaign = spec.campaign();
    let want = campaign.run(spec.victim()).to_json();

    let lo = shard_path("lo");
    let hi = shard_path("hi");
    let k = spec.reps / 2;
    for (path, shard) in
        [(&lo, ShardRange { start: 0, end: k }), (&hi, ShardRange { start: k, end: spec.reps })]
    {
        campaign.run_shard_parallel(spec.threads, shard, path, spec.victim()).expect("run shard");
    }

    let server = Server::bind("127.0.0.1:0", 1).expect("bind");
    let addr = server.local_addr().expect("local_addr").to_string();
    let serving = std::thread::spawn(move || server.serve());

    assert_eq!(merge(&addr, &[&hi, &lo]).expect("MERGE two good shards"), want);

    let mut bytes = std::fs::read(&lo).expect("read shard");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&lo, &bytes).expect("rewrite shard");
    let corrupt = merge(&addr, &[&lo, &hi]).expect_err("MERGE accepted a corrupt shard");
    assert!(corrupt.detail().starts_with("ERR merge failed"), "{corrupt}");

    #[cfg(unix)]
    {
        let device = merge(&addr, &[Path::new("/dev/zero")]).expect_err("MERGE read /dev/zero");
        assert!(device.detail().starts_with("ERR "), "{device}");
    }

    let mut client = Client::connect(&addr).expect("connect");
    assert_eq!(client.ping().expect("PING after failed merges"), "pong");
    client.shutdown().expect("SHUTDOWN");
    serving.join().expect("serve thread");
    for path in [&lo, &hi] {
        std::fs::remove_file(path).ok();
    }
}
