//! Parallel campaign scheduler integration tests: the report must be
//! byte-identical across thread counts, and checkpoints must compose —
//! a checkpoint written under one thread count resumes under any other
//! with no drift in the final report.
//!
//! Fixed-seed counterparts of the randomized suite in
//! `campaign_props.rs`; these run everywhere.

use voltboot::attack::VoltBootAttack;
use voltboot::campaign::{Campaign, CampaignError, RetryPolicy, ShardRange};
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
    std::env::temp_dir().join(format!("voltboot_test_par_{tag}_{}.checkpoint", std::process::id()))
}

#[test]
fn parallel_reports_are_byte_identical_to_sequential() {
    let campaign = make(21, 4);
    let victim = |rep: u64| prepared_pi4(0xACE ^ rep);
    let want = campaign.run(victim).to_json();
    for threads in [1usize, 2, 4] {
        let got = campaign.run_parallel(threads, victim).to_json();
        assert_eq!(got, want, "{threads}-thread report must be byte-identical to sequential");
    }
}

#[test]
fn parallel_checkpoints_are_byte_identical_to_sequential() {
    let campaign = make(9, 4);
    let victim = |rep: u64| prepared_pi4(0xC0DE ^ rep);
    let p_seq = temp("seq");
    let p_par = temp("par");

    let seq =
        campaign.run_shard_parallel(1, ShardRange::whole(4), &p_seq, victim).unwrap().to_json();
    let cp_seq = std::fs::read_to_string(&p_seq).unwrap();
    let par =
        campaign.run_shard_parallel(4, ShardRange::whole(4), &p_par, victim).unwrap().to_json();
    let cp_par = std::fs::read_to_string(&p_par).unwrap();

    assert_eq!(par, seq, "checkpointed parallel report must match sequential");
    assert_eq!(cp_par, cp_seq, "final checkpoint files (CRC seal included) must be byte-identical");
    std::fs::remove_file(&p_seq).ok();
    std::fs::remove_file(&p_par).ok();
}

#[test]
fn checkpoints_resume_across_thread_counts() {
    let campaign = make(7, 4);
    let victim = |rep: u64| prepared_pi4(0x5E5 ^ rep);
    let want = campaign.run(victim).to_json();
    let path = temp("cross");

    // Killed at rep 2 by a 4-thread run, resumed sequentially.
    campaign.run_shard_partial_parallel(4, ShardRange::whole(4), 2, &path, victim).unwrap();
    let a = campaign.resume_parallel(1, &path, victim).unwrap().to_json();
    assert_eq!(a, want, "4-thread checkpoint must resume sequentially with no drift");

    // Killed at rep 2 by a sequential run, resumed with 4 threads.
    campaign.run_shard_partial_parallel(1, ShardRange::whole(4), 2, &path, victim).unwrap();
    let b = campaign.resume_parallel(4, &path, victim).unwrap().to_json();
    assert_eq!(b, want, "sequential checkpoint must resume under 4 threads with no drift");

    // The parallel path applies the same checkpoint validation.
    let err = make(8, 4).resume_parallel(2, &path, victim).unwrap_err();
    assert!(matches!(err, CampaignError::Mismatch { .. }), "got {err:?}");
    std::fs::remove_file(&path).ok();
}
