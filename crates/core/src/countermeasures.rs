//! The §8 countermeasure survey, as executable configurations.
//!
//! Each variant corresponds to one defence the paper assesses. Apply one
//! to a device with [`Countermeasure::apply`], re-run the attack, and see
//! which step it breaks (the paper's framing: a defence must prevent
//! either *inducing retention* or *accessing the retained contents*).

use voltboot_soc::cache::SecurityState;
use voltboot_soc::{Soc, SocError};

/// One countermeasure from the paper's survey.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Countermeasure {
    /// No defence (the evaluation platforms as shipped).
    None,
    /// Purge residual memory in the software power-down path. Defeated
    /// by the abrupt disconnect: the handler never runs.
    PowerDownPurge,
    /// Hardware MBIST-style SRAM reset at every boot: removes the
    /// attacker's post-reboot access to retained contents.
    BootTimeMemoryReset,
    /// Reset only the L2 via the `nL2RST` pin (exists architecturally for
    /// L2; L1 has no equivalent).
    L2ResetPin,
    /// Enforce TrustZone NS checks on debug reads: secure lines become
    /// unreadable from the attacker's non-secure extraction context.
    TrustZoneEnforcement,
    /// Fused authenticated boot: the device refuses the attacker's
    /// unsigned extraction image.
    MandatedAuthenticatedBoot,
    /// Gate the target SRAM's power internally at reset (toggling power
    /// erases contents) — effective but needs new silicon.
    InternalPowerToggle,
}

impl Countermeasure {
    /// All variants, for sweep experiments.
    pub fn all() -> [Countermeasure; 7] {
        [
            Countermeasure::None,
            Countermeasure::PowerDownPurge,
            Countermeasure::BootTimeMemoryReset,
            Countermeasure::L2ResetPin,
            Countermeasure::TrustZoneEnforcement,
            Countermeasure::MandatedAuthenticatedBoot,
            Countermeasure::InternalPowerToggle,
        ]
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Countermeasure::None => "none",
            Countermeasure::PowerDownPurge => "power-down purge",
            Countermeasure::BootTimeMemoryReset => "boot-time SRAM reset (MBIST)",
            Countermeasure::L2ResetPin => "nL2RST (L2 only)",
            Countermeasure::TrustZoneEnforcement => "TrustZone enforcement",
            Countermeasure::MandatedAuthenticatedBoot => "mandated authenticated boot",
            Countermeasure::InternalPowerToggle => "internal SRAM power toggle at reset",
        }
    }

    /// Whether the paper considers the defence deployable on *existing*
    /// silicon (no hardware change).
    pub fn deployable_without_new_silicon(self) -> bool {
        !matches!(
            self,
            Countermeasure::BootTimeMemoryReset
                | Countermeasure::L2ResetPin
                | Countermeasure::InternalPowerToggle
        )
    }

    /// Configures `soc` with this countermeasure.
    ///
    /// `PowerDownPurge` installs nothing here — it is a *software* path
    /// that only runs on orderly shutdowns; use
    /// [`run_power_down_purge`] to model an orderly shutdown and observe
    /// that an abrupt disconnect skips it.
    pub fn apply(self, soc: &mut Soc) {
        let mut policy = soc.policy();
        match self {
            Countermeasure::None | Countermeasure::PowerDownPurge => {}
            Countermeasure::BootTimeMemoryReset => policy.mbist_reset = true,
            Countermeasure::L2ResetPin => policy.l2_reset_pin = true,
            Countermeasure::TrustZoneEnforcement => policy.trustzone_enforced = true,
            Countermeasure::MandatedAuthenticatedBoot => policy.mandated_authenticated_boot = true,
            Countermeasure::InternalPowerToggle => policy.mbist_reset = true,
        }
        soc.set_policy(policy);
    }
}

/// The software purge handler: zeroes caches (via `DC ZVA` semantics) and
/// registers. Called on an *orderly* shutdown; an abrupt power disconnect
/// never reaches it — which is exactly why the paper rules this defence
/// out.
///
/// # Errors
///
/// Propagates SRAM failures.
pub fn run_power_down_purge(soc: &mut Soc) -> Result<(), SocError> {
    for core in 0..soc.core_count() {
        let c = soc.core_mut(core)?;
        for n in 0..32 {
            c.cpu.set_v(n, [0, 0]);
        }
        let file = *c.cpu.vector_file();
        c.vregs.store(&file)?;
        c.l1d.hardware_reset()?;
        c.l1i.hardware_reset()?;
    }
    Ok(())
}

/// Marks every valid line currently in a core's L1 d-cache as secure —
/// the state a TrustZone-protected secret would be in (filled from the
/// secure world).
///
/// # Errors
///
/// Propagates SRAM failures.
pub fn mark_dcache_secure(soc: &mut Soc, core: usize) -> Result<(), SocError> {
    let geometry = soc.core(core)?.l1d.geometry();
    let c = soc.core_mut(core)?;
    for set in 0..geometry.sets() {
        for way in 0..geometry.ways {
            let word = c.l1d.raw_tag_word(way, set)?;
            if word & (1 << 63) != 0 {
                // Valid line: clear the NS bit (bit 61) to mark it secure.
                c.l1d.write_tag_raw(set, way, word & !(1 << 61))?;
            }
        }
    }
    let _ = SecurityState::Secure;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltboot_soc::devices;

    #[test]
    fn names_and_deployability() {
        assert_eq!(Countermeasure::all().len(), 7);
        assert!(Countermeasure::PowerDownPurge.deployable_without_new_silicon());
        assert!(Countermeasure::MandatedAuthenticatedBoot.deployable_without_new_silicon());
        assert!(!Countermeasure::BootTimeMemoryReset.deployable_without_new_silicon());
        assert!(!Countermeasure::InternalPowerToggle.deployable_without_new_silicon());
    }

    #[test]
    fn apply_sets_policy_bits() {
        let mut soc = devices::raspberry_pi_4(1);
        Countermeasure::TrustZoneEnforcement.apply(&mut soc);
        assert!(soc.policy().trustzone_enforced);
        Countermeasure::MandatedAuthenticatedBoot.apply(&mut soc);
        assert!(soc.policy().mandated_authenticated_boot);
        Countermeasure::BootTimeMemoryReset.apply(&mut soc);
        assert!(soc.policy().mbist_reset);
    }

    #[test]
    fn purge_clears_registers_and_caches() {
        let mut soc = devices::raspberry_pi_4(2);
        soc.power_on_all();
        soc.run_program(
            0,
            &voltboot_armlite::program::builders::fill_vector_registers(),
            0x8_0000,
            10_000,
        );
        run_power_down_purge(&mut soc).unwrap();
        assert_eq!(soc.core(0).unwrap().cpu.v(0), [0, 0]);
        assert_eq!(soc.core(0).unwrap().l1d.way_image(0).unwrap().count_ones(), 0);
    }
}
