//! Fault-injection and campaign integration tests: the attack flow under
//! glitches, retries, and telemetry — and bit-identity without them.

use voltboot::attack::{AttackContext, VoltBootAttack};
use voltboot::campaign::{Campaign, CampaignError, RepStatus, RetryPolicy, ShardRange};
use voltboot::fault::{FaultPlan, FaultRates, StepFaults};
use voltboot::telemetry::Recorder;
use voltboot_armlite::program::builders;
use voltboot_soc::{devices, Soc};

fn prepared_pi4(seed: u64) -> Soc {
    let mut soc = devices::raspberry_pi_4(seed);
    soc.power_on_all();
    soc.enable_caches(0);
    soc.run_program(0, &builders::nop_sled(128), 0x10000, 100_000);
    soc
}

#[test]
fn zero_fault_context_is_bit_identical_to_plain_execute() {
    let mut a = prepared_pi4(0xA11ACE);
    let mut b = prepared_pi4(0xA11ACE);
    let attack = VoltBootAttack::new("TP15");

    let plain = attack.execute(&mut a).unwrap();
    let ctx = AttackContext::recording();
    let traced = attack.execute_in(&mut b, &ctx).unwrap();

    assert_eq!(plain, traced, "telemetry must not perturb the attack outcome");
    // The recorder saw the whole flow even though the outcome is identical.
    assert_eq!(ctx.recorder.counter("attack.executions"), 1);
    assert_eq!(ctx.recorder.counter("attack.rail_held"), 1);
    assert!(ctx.recorder.counter("sram.power_cycles") > 0);
    assert!(ctx.recorder.now_ns() > 0, "virtual clock must advance");
}

#[test]
fn brownout_fault_corrupts_a_held_extraction() {
    let mut clean = prepared_pi4(0xBB);
    let mut faulted = prepared_pi4(0xBB);
    let attack = VoltBootAttack::new("TP15");

    let good = attack.execute(&mut clean).unwrap();
    let ctx = AttackContext {
        recorder: Recorder::new(),
        faults: StepFaults { brownout_min_voltage: Some(0.05), ..StepFaults::none() },
    };
    let bad = attack.execute_in(&mut faulted, &ctx).unwrap();

    assert!(bad.rail_held, "the probe still holds the rail around the brown-out");
    // Losing retention reverts every cell to its power-up state, so only
    // metastable cells drift from the previously-retained sample — but the
    // victim's NOP sled must be gone from the faulted image entirely.
    let nops = |outcome: &voltboot::attack::AttackOutcome| {
        outcome
            .images
            .iter()
            .flat_map(|img| img.bits.to_bytes())
            .collect::<Vec<u8>>()
            .chunks_exact(4)
            .filter(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]) == 0xD503201F)
            .count()
    };
    assert!(nops(&good) >= 128, "clean extraction must contain the NOP sled");
    assert!(nops(&bad) < 8, "a 50 mV brown-out must wipe the victim's code");
    let g = good.image("core0.l1i.way0").unwrap();
    let b = bad.image("core0.l1i.way0").unwrap();
    let hd = g.bits.fractional_hamming(&b.bits);
    assert!(hd > 0.05, "metastable cells must re-sample after the brown-out, hd={hd}");
    assert!(ctx.recorder.counter("soc.fault.brownout_rails") > 0);
}

#[test]
fn readout_bit_errors_flip_a_known_fraction() {
    let mut clean = prepared_pi4(0xCC);
    let mut noisy = prepared_pi4(0xCC);
    let attack = VoltBootAttack::new("TP15");

    let good = attack.execute(&mut clean).unwrap();
    let ctx = AttackContext {
        recorder: Recorder::new(),
        faults: StepFaults {
            readout_bit_error_fraction: 0.01,
            readout_noise_seed: 99,
            ..StepFaults::none()
        },
    };
    let bad = attack.execute_in(&mut noisy, &ctx).unwrap();

    let mut total_bits = 0usize;
    let mut flipped = 0usize;
    for (g, b) in good.images.iter().zip(&bad.images) {
        assert_eq!(g.source, b.source);
        total_bits += g.bits.len();
        flipped += (g.bits.fractional_hamming(&b.bits) * g.bits.len() as f64).round() as usize;
    }
    let frac = flipped as f64 / total_bits as f64;
    assert!((frac - 0.01).abs() < 0.002, "readout error fraction {frac}");
    assert_eq!(ctx.recorder.counter("attack.fault.readout_bits_flipped"), flipped as u64);
}

#[test]
fn retry_exhaustion_records_partial_outcome_without_panicking() {
    // Extraction dropout at rate 1.0: every attempt fails at the extract
    // step. The campaign must keep going and report partial outcomes.
    let rates = FaultRates { extraction_dropout: 1.0, ..FaultRates::default() };
    let campaign = Campaign::new(VoltBootAttack::new("TP15"), FaultPlan::new(5, rates), 3)
        .retry(RetryPolicy { max_attempts: 2, initial_backoff_ns: 1_000_000 });

    let result = campaign.run(|rep| prepared_pi4(0x600D ^ rep));

    assert_eq!(result.records.len(), 3);
    for r in &result.records {
        assert_eq!(r.status, RepStatus::Failed);
        assert_eq!(r.attempts, 2);
        assert_eq!(r.images, 0);
        assert!(r.steps_completed >= 4, "the flow ran up to the extract step");
        assert!(r.error.as_deref().unwrap().contains("dropout"));
        assert!(r.faults_fired.iter().any(|f| f == "extraction_dropout"));
    }
    assert_eq!(result.recorder.counter("campaign.failures"), 3);
    assert_eq!(result.recorder.counter("campaign.retries"), 3);
    assert_eq!(result.recorder.counter("campaign.attempts"), 6);
}

#[test]
fn quiescent_campaign_is_all_successes() {
    let campaign = Campaign::new(VoltBootAttack::new("TP15"), FaultPlan::quiescent(1), 2);
    let result = campaign.run(|rep| prepared_pi4(0xF00D ^ rep));
    assert_eq!(result.count(RepStatus::Success), 2);
    assert_eq!(result.recorder.counter("campaign.retries"), 0);
    let json = result.to_json();
    assert!(json.contains("\"successes\": 2"));
    assert!(json.contains("\"failures\": 0"));
}

#[test]
fn same_seed_campaigns_render_byte_identical_reports() {
    let run = || {
        let rates = FaultRates::uniform(0.25);
        let campaign = Campaign::new(VoltBootAttack::new("TP15"), FaultPlan::new(42, rates), 4)
            .retry(RetryPolicy { max_attempts: 2, initial_backoff_ns: 1_000_000 });
        campaign.run(|rep| prepared_pi4(0xD1E ^ rep)).to_json()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seeds must replay to byte-identical reports");

    let rates = FaultRates::uniform(0.25);
    let campaign = Campaign::new(VoltBootAttack::new("TP15"), FaultPlan::new(43, rates), 4)
        .retry(RetryPolicy { max_attempts: 2, initial_backoff_ns: 1_000_000 });
    let c = campaign.run(|rep| prepared_pi4(0xD1E ^ rep)).to_json();
    assert_ne!(a, c, "a different fault seed must change the report");
}

#[test]
fn three_pass_voting_strictly_reduces_corrupted_words() {
    // Full-device comparison of the same noisy readout resolved with and
    // without voting: count 32-bit words that differ from a quiescent
    // extraction of the same die.
    let run = |passes: u32| {
        let mut clean = prepared_pi4(0x7E57);
        let mut noisy = prepared_pi4(0x7E57);
        let attack = VoltBootAttack::new("TP15").passes(passes);
        let good = attack.execute(&mut clean).unwrap();
        let ctx = AttackContext {
            recorder: Recorder::new(),
            faults: StepFaults {
                readout_bit_error_fraction: 0.002,
                readout_noise_seed: 0x0BAD_5EED,
                ..StepFaults::none()
            },
        };
        let bad = attack.execute_in(&mut noisy, &ctx).unwrap();
        let mut words = 0usize;
        for (g, b) in good.images.iter().zip(&bad.images) {
            assert_eq!(g.source, b.source);
            let (gb, bb) = (g.bits.to_bytes(), b.bits.to_bytes());
            words += gb.chunks(4).zip(bb.chunks(4)).filter(|(x, y)| x != y).count();
        }
        (words, bad)
    };

    let (err1, single) = run(1);
    let (err3, voted) = run(3);
    assert!(err1 > 0, "0.2% readout noise must corrupt some words single-pass");
    assert!(err3 < err1, "3-pass voting must strictly reduce corrupted words: {err3} vs {err1}");

    // The voted outcome carries a verifiable confidence map; the legacy
    // single-pass outcome carries none.
    assert!(single.confidence.is_empty());
    voted.verify_integrity().expect("voted images must pass their CRC seals");
    let conf = voted.confidence_total();
    assert_eq!(conf.votes, 3);
    assert!(conf.repaired > 0, "independent per-pass noise must let the vote repair bits");
}

#[test]
fn killed_campaign_resumes_to_byte_identical_report() {
    let make = |fault_seed: u64| {
        Campaign::new(
            VoltBootAttack::new("TP15").passes(3),
            FaultPlan::new(fault_seed, FaultRates::uniform(0.25)),
            5,
        )
        .retry(RetryPolicy { max_attempts: 2, initial_backoff_ns: 1_000_000 })
    };
    let victim = |rep: u64| prepared_pi4(0x5E5 ^ rep);
    let uninterrupted = make(7).run(victim).to_json();

    // "Kill" the campaign after rep 2, then resume from the checkpoint.
    let path = std::env::temp_dir()
        .join(format!("voltboot_test_resume_{}.checkpoint", std::process::id()));
    make(7).run_shard_partial_parallel(1, ShardRange::whole(5), 2, &path, victim).unwrap();
    let resumed = make(7).resume_parallel(1, &path, victim).unwrap().to_json();
    assert_eq!(resumed, uninterrupted, "resumed report must be byte-identical");

    // A campaign built around a different fault plan must refuse the
    // checkpoint rather than splice incompatible histories.
    let err = make(8).resume_parallel(1, &path, victim).unwrap_err();
    assert!(matches!(err, CampaignError::Mismatch { .. }), "got {err:?}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn deadline_converts_retry_storms_into_timed_out_records() {
    // Every attempt drops out, and the backoff alone blows the per-rep
    // deadline: the campaign must give up on the rep as timed_out instead
    // of burning all five attempts.
    let rates = FaultRates { extraction_dropout: 1.0, ..FaultRates::default() };
    let campaign = Campaign::new(VoltBootAttack::new("TP15"), FaultPlan::new(5, rates), 2)
        .retry(RetryPolicy { max_attempts: 5, initial_backoff_ns: 200_000_000 })
        .deadline_ns(300_000_000);

    let result = campaign.run(|rep| prepared_pi4(0x600D ^ rep));

    assert_eq!(result.count(RepStatus::TimedOut), 2);
    assert!(
        result.records.iter().all(|r| r.attempts < 5),
        "the deadline must cut the retry loop short"
    );
    assert_eq!(result.recorder.counter("campaign.timed_out"), 2);
    assert!(result.to_json().contains("\"timed_out\": 2"));
}
