//! The metrics plane's out-of-band guarantee, enforced: a campaign run
//! with fleet metrics ENABLED must produce byte-identical reports,
//! checkpoints, and trace exports to the same campaign run with the
//! plane DISABLED. The wall-clock counters in
//! [`voltboot_telemetry::metrics`] may say anything; the deterministic
//! surface may not move by one byte.
//!
//! One `#[test]` fn: `metrics::set_enabled` is process-global, so the
//! enabled and disabled phases must run sequentially in here rather
//! than racing other tests' observations.

use voltboot::attack::VoltBootAttack;
use voltboot::campaign::{Campaign, Checkpoint, RetryPolicy, ShardRange};
use voltboot::fault::{FaultPlan, FaultRates};
use voltboot_armlite::program::builders;
use voltboot_soc::{devices, Soc};
use voltboot_telemetry::export;
use voltboot_telemetry::metrics;

fn prepared_pi4(seed: u64) -> Soc {
    let mut soc = devices::raspberry_pi_4(seed);
    soc.power_on_all();
    soc.enable_caches(0);
    soc.run_program(0, &builders::nop_sled(128), 0x10000, 100_000);
    soc
}

fn make() -> Campaign {
    Campaign::new(
        VoltBootAttack::new("TP15").passes(3),
        FaultPlan::new(0x00DE_7EC7_AB1E, FaultRates::uniform(0.25)),
        5,
    )
    .retry(RetryPolicy { max_attempts: 2, initial_backoff_ns: 1_000_000 })
}

fn checkpoint_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir()
        .join(format!("voltboot_metrics_det_{tag}_{}.checkpoint", std::process::id()))
}

/// Every deterministic artifact of one full campaign execution:
/// report JSON, a mid-run checkpoint, the resumed report, and all
/// three trace exports.
fn deterministic_surface(tag: &str) -> Vec<String> {
    let campaign = make();
    let victim = |rep: u64| prepared_pi4(0xD1E ^ rep.wrapping_mul(0x9E37_79B9));
    let result = campaign.run(victim);
    let report = result.to_json();
    let trace = export::chrome_trace(&result.recorder).render_pretty();
    let folded = export::folded(&result.recorder);
    let waves = export::waveforms_csv(&result.recorder);

    let path = checkpoint_path(tag);
    campaign
        .run_from(1, campaign.fresh(ShardRange::whole(5)), Some(3), Some(&path), victim)
        .expect("partial run");
    let checkpoint = std::fs::read_to_string(&path).expect("read checkpoint");
    let resumed = campaign
        .run_from(1, Checkpoint::load(&path).unwrap(), None, Some(&path), victim)
        .expect("resume")
        .to_json();
    std::fs::remove_file(&path).ok();

    let parallel = campaign.run_parallel(4, victim).to_json();
    vec![report, trace, folded, waves, checkpoint, resumed, parallel]
}

#[test]
fn metrics_on_and_off_yield_byte_identical_outputs() {
    let labels =
        ["report", "chrome_trace", "folded", "waveforms_csv", "checkpoint", "resumed", "parallel"];

    metrics::set_enabled(true);
    let with_metrics = deterministic_surface("on");
    // The plane actually observed the runs — otherwise this test would
    // pass vacuously with a broken hook.
    let reps_seen: u64 = ["success", "degraded", "failed", "timed_out"]
        .iter()
        .filter_map(|s| metrics::global().counter_value("voltboot_reps_total", &[("status", s)]))
        .sum();
    assert!(reps_seen >= 5, "the rep hook must have fired during the enabled phase");

    metrics::set_enabled(false);
    let without_metrics = deterministic_surface("off");
    metrics::set_enabled(true);

    for ((on, off), label) in with_metrics.iter().zip(&without_metrics).zip(labels) {
        assert_eq!(
            on, off,
            "{label}: metrics enabled vs disabled must be byte-identical \
             (the metrics plane leaked into the deterministic surface)"
        );
    }
}
