//! Cross-process sharding and panic containment: the two failure modes
//! a long-running sweep daemon must absorb without dying.
//!
//! Sharding: two independent processes each run a rep range (`[0,k)`
//! and `[k,n)`) into their own checkpoint files; `merge_shards` must
//! combine them into a report byte-identical to one sequential
//! [`Campaign::run`] over `[0,n)`. This holds because telemetry
//! `absorb` composes: absorbing shard recorders in rep order into a
//! fresh recorder reproduces the sequential recorder state exactly.
//!
//! Panic containment: a victim builder that panics must produce a
//! degraded `Failed` record for that rep — identical at every thread
//! count — never a process abort or a poisoned-mutex cascade.

use voltboot::attack::VoltBootAttack;
use voltboot::campaign::{
    merge_shards, Campaign, CampaignError, Checkpoint, RepStatus, RetryPolicy, ShardRange,
};
use voltboot::fault::{FaultPlan, FaultRates};
use voltboot_armlite::program::builders;
use voltboot_soc::{devices, Soc};

fn prepared_pi4(seed: u64) -> Soc {
    let mut soc = devices::raspberry_pi_4(seed);
    soc.power_on_all();
    soc.enable_caches(0);
    soc.run_program(0, &builders::nop_sled(128), 0x10000, 100_000);
    soc
}

fn make(fault_seed: u64, reps: u64) -> Campaign {
    Campaign::new(
        VoltBootAttack::new("TP15").passes(3),
        FaultPlan::new(fault_seed, FaultRates::uniform(0.25)),
        reps,
    )
    .retry(RetryPolicy { max_attempts: 2, initial_backoff_ns: 1_000_000 })
}

fn temp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir()
        .join(format!("voltboot_test_shard_{tag}_{}.checkpoint", std::process::id()))
}

#[test]
fn two_shards_merge_byte_identical_to_sequential() {
    let campaign = make(33, 6);
    let victim = |rep: u64| prepared_pi4(0xBEEF ^ rep);
    let want = campaign.run(victim).to_json();

    let lo = temp("lo");
    let hi = temp("hi");
    campaign.run_shard_parallel(2, ShardRange { start: 0, end: 3 }, &lo, victim).unwrap();
    campaign.run_shard_parallel(3, ShardRange { start: 3, end: 6 }, &hi, victim).unwrap();

    // Merge order must not matter: shards are sorted by range.
    let merged = merge_shards(&[&hi, &lo]).unwrap();
    assert_eq!(
        merged.to_json(),
        want,
        "merged shard report must be byte-identical to one sequential run"
    );

    std::fs::remove_file(&lo).ok();
    std::fs::remove_file(&hi).ok();
}

#[test]
fn merge_rejects_gaps_overlaps_and_incomplete_shards() {
    let campaign = make(5, 6);
    let victim = |rep: u64| prepared_pi4(0xD00D ^ rep);

    let lo = temp("val_lo");
    let hi = temp("val_hi");
    campaign.run_shard_parallel(1, ShardRange { start: 0, end: 2 }, &lo, victim).unwrap();
    campaign.run_shard_parallel(1, ShardRange { start: 4, end: 6 }, &hi, victim).unwrap();

    // [0,2) + [4,6) leaves a hole at [2,4).
    assert!(matches!(merge_shards(&[&lo, &hi]), Err(CampaignError::Mismatch { .. })));

    // Nothing to merge at all.
    let empty: [&std::path::Path; 0] = [];
    assert!(matches!(merge_shards(&empty), Err(CampaignError::Mismatch { .. })));

    // A shard killed mid-range must be resumed before merging.
    let partial = temp("val_partial");
    let mid = temp("val_mid");
    // Whole-range header, next_rep = 1.
    campaign
        .run_from(1, campaign.fresh(ShardRange::whole(6)), Some(1), Some(&partial), victim)
        .unwrap();
    campaign.run_shard_parallel(1, ShardRange { start: 2, end: 4 }, &mid, victim).unwrap();
    assert!(matches!(merge_shards(&[&partial]), Err(CampaignError::Mismatch { .. })));

    for p in [&lo, &hi, &partial, &mid] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn shards_resume_after_being_killed() {
    let campaign = make(41, 6);
    let victim = |rep: u64| prepared_pi4(0xCAFE ^ rep);
    let want = campaign.run(victim).to_json();

    let lo = temp("res_lo");
    let hi = temp("res_hi");
    campaign.run_shard_parallel(2, ShardRange { start: 0, end: 3 }, &lo, victim).unwrap();
    // The high shard writes its checkpoint, then the "process" is
    // killed and a fresh one resumes from the file alone.
    campaign.run_shard_parallel(2, ShardRange { start: 3, end: 6 }, &hi, victim).unwrap();
    let resumed =
        campaign.run_from(4, Checkpoint::load(&hi).unwrap(), None, Some(&hi), victim).unwrap();
    assert_eq!(resumed.records.len(), 3, "resuming a finished shard re-runs nothing");

    let merged = merge_shards(&[&lo, &hi]).unwrap();
    assert_eq!(merged.to_json(), want);

    std::fs::remove_file(&lo).ok();
    std::fs::remove_file(&hi).ok();
}

#[test]
fn panicking_victim_yields_degraded_record_not_process_abort() {
    let campaign = make(17, 5);
    let victim = |rep: u64| {
        if rep == 2 {
            panic!("injected victim panic at rep {rep}");
        }
        prepared_pi4(0xACDC ^ rep)
    };

    let seq = campaign.run(victim);
    let failed = &seq.records[2];
    assert_eq!(failed.rep, 2);
    assert_eq!(failed.status, RepStatus::Failed);
    assert!(
        failed.error.as_deref().unwrap_or("").contains("panic"),
        "degraded record must say the worker panicked: {:?}",
        failed.error
    );
    // The reps around the panic are unharmed.
    assert!(seq.records[1].status != RepStatus::Failed || seq.records[1].error.is_none());
    assert_eq!(seq.records.len(), 5);

    // Containment is deterministic: every thread count produces the
    // same bytes, panic and all.
    let want = seq.to_json();
    for threads in [2usize, 4] {
        let got = campaign.run_parallel(threads, victim).to_json();
        assert_eq!(got, want, "{threads}-thread run must contain the panic identically");
    }
}

#[test]
fn panicking_shard_still_merges() {
    let campaign = make(29, 4);
    let victim = |rep: u64| {
        if rep == 3 {
            panic!("late shard panic");
        }
        prepared_pi4(0x1DEA ^ rep)
    };
    let want = campaign.run(victim).to_json();

    let lo = temp("panic_lo");
    let hi = temp("panic_hi");
    campaign.run_shard_parallel(2, ShardRange { start: 0, end: 2 }, &lo, victim).unwrap();
    campaign.run_shard_parallel(2, ShardRange { start: 2, end: 4 }, &hi, victim).unwrap();
    let merged = merge_shards(&[&lo, &hi]).unwrap();
    assert_eq!(merged.to_json(), want, "a contained panic must not break shard merging");

    std::fs::remove_file(&lo).ok();
    std::fs::remove_file(&hi).ok();
}
