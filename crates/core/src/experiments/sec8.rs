//! §8: the countermeasure effectiveness matrix.
//!
//! For each surveyed countermeasure, run the full attack against a
//! prepared victim and record whether any victim data survives into the
//! attacker's hands. Also demonstrates why the software power-down purge
//! fails: the abrupt disconnect never executes it.

use crate::analysis;
use crate::attack::{Extraction, VoltBootAttack};
use crate::countermeasures::{mark_dcache_secure, Countermeasure};
use crate::error::AttackError;
use crate::workloads;
use voltboot_soc::devices;

/// One countermeasure's evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Sec8Row {
    /// The countermeasure.
    pub countermeasure: Countermeasure,
    /// Whether the attack still recovered the victim pattern.
    pub attack_succeeded: bool,
    /// Which step stopped it, if any.
    pub stopped_at: Option<String>,
    /// Fraction of the victim pattern recovered.
    pub recovered_fraction: f64,
    /// Deployable without a silicon change?
    pub deployable: bool,
}

/// The matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Sec8Result {
    /// One row per countermeasure.
    pub rows: Vec<Sec8Row>,
}

/// Number of `0xAA` bytes the victim stages per way (ground truth).
const VICTIM_BYTES: u32 = 8 * 1024;

/// Runs the matrix on a Raspberry Pi 4. Each countermeasure is evaluated
/// on its own fresh board, so the rows run in parallel.
pub fn run(seed: u64) -> Sec8Result {
    let jobs: Vec<Box<dyn FnOnce() -> Sec8Row + Send>> = Countermeasure::all()
        .into_iter()
        .map(|cm| Box::new(move || evaluate(seed, cm)) as Box<_>)
        .collect();
    Sec8Result { rows: voltboot_sram::par::join_all(jobs) }
}

fn evaluate(seed: u64, cm: Countermeasure) -> Sec8Row {
    let mut soc = devices::raspberry_pi_4(seed ^ (cm as u64) << 16);
    soc.power_on_all();
    cm.apply(&mut soc);

    // Victim: the 0xAA pattern app (bare-metal flavour for determinism).
    soc.enable_caches(0);
    let p = voltboot_armlite::program::builders::fill_bytes(
        workloads::VICTIM_DATA_ADDR,
        0xAA,
        VICTIM_BYTES,
    );
    soc.run_program(0, &p, workloads::VICTIM_CODE_ADDR, 50_000_000);
    if cm == Countermeasure::TrustZoneEnforcement {
        // The protected deployment: the secrets were filled from the
        // secure world, so their lines carry secure NS bits.
        mark_dcache_secure(&mut soc, 0).expect("mark secure");
    }

    let attack = VoltBootAttack::new("TP15").extraction(Extraction::Caches { cores: vec![0] });
    match attack.execute(&mut soc) {
        Ok(outcome) => {
            let mut recovered = 0usize;
            for img in outcome.images_matching("core0.l1d") {
                recovered += img.bits.to_bytes().iter().filter(|&&b| b == 0xAA).count();
            }
            let fraction = (recovered as f64 / VICTIM_BYTES as f64).min(1.0);
            // Noise floor: random SRAM has 1/256 of bytes = any value.
            let succeeded = fraction > 0.05;
            Sec8Row {
                countermeasure: cm,
                attack_succeeded: succeeded,
                stopped_at: (!succeeded).then(|| "extraction yields no victim data".to_string()),
                recovered_fraction: fraction,
                deployable: cm.deployable_without_new_silicon(),
            }
        }
        Err(AttackError::BootDefeated { reason }) => Sec8Row {
            countermeasure: cm,
            attack_succeeded: false,
            stopped_at: Some(format!("reboot: {reason}")),
            recovered_fraction: 0.0,
            deployable: cm.deployable_without_new_silicon(),
        },
        Err(AttackError::ExtractionDenied { detail }) => Sec8Row {
            countermeasure: cm,
            attack_succeeded: false,
            stopped_at: Some(format!("extraction: {detail}")),
            recovered_fraction: 0.0,
            deployable: cm.deployable_without_new_silicon(),
        },
        Err(e) => Sec8Row {
            countermeasure: cm,
            attack_succeeded: false,
            stopped_at: Some(format!("error: {e}")),
            recovered_fraction: 0.0,
            deployable: cm.deployable_without_new_silicon(),
        },
    }
}

/// The §8 power-down-purge demonstration: an *orderly* shutdown purges
/// the SRAM, but an abrupt disconnect leaves the purge handler unrun.
/// Returns `(recovered_after_orderly, recovered_after_abrupt)` fractions.
pub fn purge_timing_demo(seed: u64) -> (f64, f64) {
    let stage = |seed: u64| {
        let mut soc = devices::raspberry_pi_4(seed);
        soc.power_on_all();
        soc.enable_caches(0);
        let p = voltboot_armlite::program::builders::fill_bytes(
            workloads::VICTIM_DATA_ADDR,
            0xAA,
            VICTIM_BYTES,
        );
        soc.run_program(0, &p, workloads::VICTIM_CODE_ADDR, 50_000_000);
        soc
    };
    let recovered = |soc: &mut voltboot_soc::Soc| {
        let outcome = VoltBootAttack::new("TP15")
            .extraction(Extraction::Caches { cores: vec![0] })
            .execute(soc)
            .expect("attack runs");
        let mut n = 0usize;
        for img in outcome.images_matching("core0.l1d") {
            n += analysis::count_pattern(&img.bits, &[0xAA; 8]);
        }
        (n * 8) as f64 / VICTIM_BYTES as f64
    };

    // Orderly shutdown: the OS runs the purge handler before power-off.
    let mut orderly = stage(seed);
    crate::countermeasures::run_power_down_purge(&mut orderly).expect("purge runs");
    let after_orderly = recovered(&mut orderly);

    // Abrupt disconnect: the handler never runs.
    let mut abrupt = stage(seed ^ 1);
    let after_abrupt = recovered(&mut abrupt);

    (after_orderly, after_abrupt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_matches_the_papers_assessment() {
        let r = run(0x5EC8);
        let row = |cm: Countermeasure| r.rows.iter().find(|x| x.countermeasure == cm).unwrap();

        assert!(row(Countermeasure::None).attack_succeeded);
        // The purge handler never runs on an abrupt disconnect.
        assert!(row(Countermeasure::PowerDownPurge).attack_succeeded);
        // Hardware resets and policy gates stop the attack.
        assert!(!row(Countermeasure::BootTimeMemoryReset).attack_succeeded);
        assert!(!row(Countermeasure::MandatedAuthenticatedBoot).attack_succeeded);
        assert!(!row(Countermeasure::TrustZoneEnforcement).attack_succeeded);
        assert!(!row(Countermeasure::InternalPowerToggle).attack_succeeded);
        // Resetting only L2 does not protect L1 contents.
        assert!(row(Countermeasure::L2ResetPin).attack_succeeded);
    }

    #[test]
    fn purge_only_helps_on_orderly_shutdown() {
        let (orderly, abrupt) = purge_timing_demo(0x5EC9);
        assert!(orderly < 0.02, "orderly shutdown leaves {orderly}");
        assert!(abrupt > 0.5, "abrupt disconnect leaves {abrupt}");
    }
}
