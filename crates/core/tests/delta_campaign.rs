//! Rep-delta campaign equivalence: a sweep that rides the sparse
//! resolution path (`voltboot_sram::delta`) must produce reports,
//! checkpoints, and resumed reports **byte-identical** to the dense
//! path — sequentially, at t ∈ {1, 2, 4}, across kill/resume, and
//! across shard merges — with fault injection enabled throughout.
//!
//! The victim pins one die seed across reps (the million-rep sweep
//! shape), and a current-limited bench supply droops its core rail
//! into the DRV range, so every rep loses part of each core-rail
//! array: rep 1 resolves dense and notes the condition, rep 2 settles
//! the baseline, later reps apply it. Brown-out faulted reps resolve
//! under perturbed conditions (fresh keys) and fall back to the dense
//! path — byte-identical either way is exactly the claim under test.
//! A second leg compares the trace exports too, and repeats the sparse
//! run with the metrics plane off. Campaign reports carry no image
//! bytes, so a last leg attacks fresh boards of the die directly and
//! compares every extracted image with the path off and on.
//!
//! One `#[test]` fn: `delta::force_disable` and `metrics::set_enabled`
//! are process-global state, so every phase that toggles them runs
//! sequentially in here.

use voltboot::attack::VoltBootAttack;
use voltboot::campaign::{merge_shards, Campaign, CampaignResult, RetryPolicy, ShardRange};
use voltboot::fault::{FaultPlan, FaultRates};
use voltboot::recover::crc64_bits;
use voltboot::telemetry::{export, metrics};
use voltboot_armlite::program::builders;
use voltboot_pdn::Probe;
use voltboot_soc::{devices, Soc};
use voltboot_sram::cell::CellDistribution;
use voltboot_sram::{clear_plane_cache, delta};

fn prepared_pi4(seed: u64) -> Soc {
    let mut soc = devices::raspberry_pi_4(seed);
    soc.power_on_all();
    soc.enable_caches(0);
    soc.run_program(0, &builders::nop_sled(128), 0x10000, 100_000);
    soc
}

/// The campaign's die: every campaign rep and every direct attack
/// below runs on a board of this one seed.
const DIE: u64 = 0xD1E_C0DE;

/// A probe whose 1 A limit lets the disconnect surge droop TP15 to
/// ≈0.28 V: inside the DRV range, so each core-rail array loses some of
/// its cells (about two thirds of core 0's L1D) and keeps the rest.
fn drooping_probe() -> Probe {
    Probe::bench_supply(0.0, 1.0)
}

fn make(fault_seed: u64, reps: u64) -> Campaign {
    Campaign::new(
        VoltBootAttack::new("TP15").passes(3).probe(drooping_probe()),
        FaultPlan::new(fault_seed, FaultRates::uniform(0.25)),
        reps,
    )
    .retry(RetryPolicy { max_attempts: 2, initial_backoff_ns: 1_000_000 })
}

/// A result's report and its three trace exports, in that order.
fn rendered(result: &CampaignResult) -> [String; 4] {
    let rec = &result.recorder;
    [
        result.to_json(),
        export::chrome_trace(rec).render_pretty(),
        export::folded(rec),
        export::waveforms_csv(rec),
    ]
}

fn assert_same(got: &[String; 4], want: &[String; 4], what: &str) {
    let views = ["report", "chrome trace", "folded stacks", "rail waveforms"];
    for ((view, got), want) in views.iter().zip(got).zip(want) {
        assert!(got == want, "{what}: {view} differs ({} vs {} bytes)", got.len(), want.len());
    }
}

fn temp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir()
        .join(format!("voltboot_test_delta_{tag}_{}.checkpoint", std::process::id()))
}

#[test]
fn delta_campaigns_byte_match_full_campaigns_everywhere() {
    let campaign = make(77, 6);
    // One physical die across all reps — the sweep shape the delta path
    // exists for.
    let victim = |_rep: u64| prepared_pi4(DIE);

    // ---- Dense references, delta forced off. ----
    delta::force_disable(true);
    clear_plane_cache();
    let want = campaign.run(victim).to_json();
    let p_off = temp("off");
    campaign.run_shard_partial_parallel(1, ShardRange::whole(6), 3, &p_off, victim).unwrap();
    let want_cp = std::fs::read_to_string(&p_off).unwrap();
    let resumed_off = campaign.resume_parallel(1, &p_off, victim).unwrap().to_json();
    assert_eq!(resumed_off, want, "dense kill/resume must reproduce the dense report");

    // ---- Delta on: every execution shape must byte-match. ----
    delta::force_disable(false);
    clear_plane_cache();
    let seq = campaign.run(victim).to_json();
    assert_eq!(seq, want, "sequential delta report");
    let reps_used = delta::stats().delta_reps;
    assert!(reps_used > 0, "the fixed-die sweep must actually ride the delta path");

    for threads in [1usize, 2, 4] {
        let got = campaign.run_parallel(threads, victim).to_json();
        assert_eq!(got, want, "{threads}-thread delta report");
    }

    // Kill at rep 3, byte-compare the checkpoint itself, then resume
    // under a different thread count.
    let p_on = temp("on");
    campaign.run_shard_partial_parallel(1, ShardRange::whole(6), 3, &p_on, victim).unwrap();
    let got_cp = std::fs::read_to_string(&p_on).unwrap();
    assert_eq!(got_cp, want_cp, "delta-path checkpoint must byte-match the dense checkpoint");
    let resumed_on = campaign.resume_parallel(2, &p_on, victim).unwrap().to_json();
    assert_eq!(resumed_on, want, "delta kill/resume across thread counts");

    // Shard halves (separate checkpoints, as separate processes would
    // write them) merged back — still byte-identical to dense sequential.
    let lo = temp("lo");
    let hi = temp("hi");
    campaign.run_shard_parallel(2, ShardRange { start: 0, end: 3 }, &lo, victim).unwrap();
    campaign.run_shard_parallel(2, ShardRange { start: 3, end: 6 }, &hi, victim).unwrap();
    let merged = merge_shards(&[&lo, &hi]).unwrap();
    assert_eq!(merged.to_json(), want, "delta shard merge must byte-match dense sequential");

    for p in [p_off, p_on, lo, hi] {
        std::fs::remove_file(p).ok();
    }

    // ---- The same die under another fault plan and retry policy: the
    // report and all three trace exports must match dense. ----
    let traced = Campaign::new(
        VoltBootAttack::new("TP15").passes(3).probe(drooping_probe()),
        FaultPlan::new(77, FaultRates::uniform(0.2)),
        6,
    )
    .retry(RetryPolicy { max_attempts: 3, initial_backoff_ns: 50_000_000 });
    delta::force_disable(true);
    clear_plane_cache();
    let dense = rendered(&traced.run_parallel(2, victim));
    delta::force_disable(false);
    clear_plane_cache();
    let before = delta::stats().delta_reps;
    let sparse = rendered(&traced.run_parallel(2, victim));
    assert!(delta::stats().delta_reps > before, "the traced sweep must ride the delta path");
    assert_same(&sparse, &dense, "traced sweep, delta against dense");

    // The wall-clock metrics plane is out of band: freezing it moves no
    // byte of the report or of any trace export.
    metrics::set_enabled(false);
    clear_plane_cache();
    let frozen = rendered(&traced.run_parallel(2, victim));
    metrics::set_enabled(true);
    assert_same(&frozen, &sparse, "traced sweep, metrics plane off against on");

    // ---- Every extracted image, dense against sparse: fault-free
    // attacks on fresh boards of the die. The first attack notes the
    // condition, the second settles its baselines, later ones apply
    // them. ----
    let attack = VoltBootAttack::new("TP15").passes(3).probe(drooping_probe());
    let drv = CellDistribution::calibrated();
    let images = || -> Vec<Vec<(String, u64)>> {
        (0..4)
            .map(|_| {
                let outcome = attack.execute(&mut prepared_pi4(DIE)).unwrap();
                let droop = outcome.transient_min_voltage.unwrap();
                assert!(drv.drv_min < droop && droop < drv.drv_max, "TP15 drooped to {droop} V");
                outcome.images.iter().map(|i| (i.source.clone(), crc64_bits(&i.bits))).collect()
            })
            .collect()
    };
    delta::force_disable(true);
    clear_plane_cache();
    let dense = images();
    delta::force_disable(false);
    clear_plane_cache();
    let before = delta::stats().delta_reps;
    let sparse = images();
    assert!(delta::stats().delta_reps > before, "the attacks must ride the delta path");
    for (k, (got, want)) in sparse.iter().zip(&dense).enumerate() {
        assert!(!want.is_empty(), "attack {k} extracted no image");
        assert_eq!(got, want, "attack {k}: image CRCs, delta against dense");
    }
}
