//! The full board-level power network.

use crate::domain::{DomainKind, Load, PowerDomain};
use crate::error::PdnError;
use crate::pmic::Pmic;
use crate::probe::{Probe, ProbePoint};
use crate::rail::{Rail, RegulatorKind};
use crate::transient::{DisconnectTransient, SurgeProfile};
use voltboot_telemetry::Recorder;

#[cfg(test)]
use voltboot_telemetry::AttrValue;

/// Modelled wall time one PMIC sequencing step takes at reconnect, used
/// to advance the telemetry recorder's virtual clock.
const RAIL_SEQUENCE_STEP_NS: u64 = 1_200_000;

/// Modelled collapse time of an unheld rail at disconnect: the bulk
/// decoupling drains in about a microsecond once the regulator input is
/// gone (paper Fig. 4 shows the unheld rails hitting zero well inside
/// the first scope division).
const UNHELD_COLLAPSE_NS: u64 = 1_000;

/// The order rails come back in when main power returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReconnectOrder {
    /// The PMIC's programmed bring-up sequence (normal operation).
    #[default]
    PmicSequence,
    /// The sequence reversed — the reconnect-ordering fault mode, where
    /// a glitched PMIC (or a hasty manual re-plug) brings dependent
    /// rails up before their parents.
    Reversed,
}

/// What happened to one rail when main power was cut.
#[derive(Debug, Clone, PartialEq)]
pub struct RailOutcome {
    /// Rail name.
    pub rail: String,
    /// Present iff a probe held the rail; describes the transient.
    pub held: Option<DisconnectTransient>,
}

impl RailOutcome {
    /// Whether an external probe kept this rail energized.
    pub fn is_held(&self) -> bool {
        self.held.is_some()
    }

    /// Minimum instantaneous voltage during the disconnect, if held.
    pub fn transient_min_voltage(&self) -> Option<f64> {
        self.held.map(|t| t.min_voltage)
    }

    /// Steady held voltage after the surge, if held.
    pub fn steady_voltage(&self) -> Option<f64> {
        self.held.map(|t| t.steady_voltage)
    }
}

/// The per-rail outcomes of one main-supply disconnect.
#[derive(Debug, Clone, PartialEq)]
pub struct DisconnectOutcome {
    rails: Vec<RailOutcome>,
}

impl DisconnectOutcome {
    /// Looks up one rail's outcome by name.
    pub fn rail(&self, name: &str) -> Option<&RailOutcome> {
        self.rails.iter().find(|r| r.rail == name)
    }

    /// Iterates over all rail outcomes.
    pub fn iter(&self) -> impl Iterator<Item = &RailOutcome> {
        self.rails.iter()
    }
}

/// The whole board: PMIC, domains, probe points, attached probes, and the
/// main-input switch.
///
/// See the [crate-level example](crate) for typical use.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerNetwork {
    pmic: Pmic,
    domains: Vec<PowerDomain>,
    probe_points: Vec<ProbePoint>,
    /// Attached probes as `(pad, probe)` pairs.
    attached: Vec<(String, Probe)>,
    main_connected: bool,
}

impl PowerNetwork {
    /// Creates a network with main power initially connected.
    pub fn new(pmic: Pmic) -> Self {
        PowerNetwork {
            pmic,
            domains: Vec::new(),
            probe_points: Vec::new(),
            attached: Vec::new(),
            main_connected: true,
        }
    }

    /// Adds a power domain (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the domain references a rail the PMIC does not have —
    /// that is a board-description bug, not a runtime condition.
    pub fn with_domain(mut self, domain: PowerDomain) -> Self {
        assert!(
            self.pmic.rail(&domain.rail).is_some(),
            "domain {:?} references unknown rail {:?}",
            domain.name,
            domain.rail
        );
        self.domains.push(domain);
        self
    }

    /// Adds a probe point (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the pad references a rail the PMIC does not have.
    pub fn with_probe_point(mut self, point: ProbePoint) -> Self {
        assert!(
            self.pmic.rail(&point.rail).is_some(),
            "probe point {:?} references unknown rail {:?}",
            point.pad,
            point.rail
        );
        self.probe_points.push(point);
        self
    }

    /// The PMIC.
    pub fn pmic(&self) -> &Pmic {
        &self.pmic
    }

    /// All probe points on the board.
    pub fn probe_points(&self) -> &[ProbePoint] {
        &self.probe_points
    }

    /// All power domains.
    pub fn domains(&self) -> &[PowerDomain] {
        &self.domains
    }

    /// Looks up a domain by name.
    pub fn domain(&self, name: &str) -> Option<&PowerDomain> {
        self.domains.iter().find(|d| d.name == name)
    }

    /// Whether the board's main input is connected.
    pub fn main_connected(&self) -> bool {
        self.main_connected
    }

    /// Live voltage at a pad right now (what an attacker's multimeter
    /// reads before choosing the probe setpoint — attack step 2).
    ///
    /// # Errors
    ///
    /// * [`PdnError::UnknownProbePoint`] if the pad does not exist.
    /// * [`PdnError::UnknownRail`] if the pad's rail is gone from the
    ///   PMIC (a mid-campaign reconfiguration can invalidate pads that
    ///   were valid when the board description was built).
    pub fn measure_pad(&self, pad: &str) -> Result<f64, PdnError> {
        let point = self.find_pad(pad)?;
        let rail = self
            .pmic
            .rail(&point.rail)
            .ok_or_else(|| PdnError::UnknownRail { name: point.rail.clone() })?;
        if self.main_connected {
            Ok(rail.nominal_voltage)
        } else {
            Ok(self
                .attached
                .iter()
                .find_map(|(p, probe)| {
                    let at = self.find_pad(p).ok()?;
                    (at.rail == point.rail).then_some(probe.voltage)
                })
                .unwrap_or(0.0))
        }
    }

    /// Attaches `probe` at `pad`. The setpoint must match the live rail
    /// voltage within 50 mV, as an attacker would ensure.
    ///
    /// # Errors
    ///
    /// * [`PdnError::UnknownProbePoint`] if the pad does not exist.
    /// * [`PdnError::ProbeAlreadyAttached`] if the pad is occupied.
    /// * [`PdnError::ProbeVoltageMismatch`] if the setpoint is off.
    pub fn attach_probe(&mut self, pad: &str, probe: Probe) -> Result<(), PdnError> {
        let live = self.measure_pad(pad)?;
        if self.attached.iter().any(|(p, _)| p == pad) {
            return Err(PdnError::ProbeAlreadyAttached { pad: pad.to_string() });
        }
        if (probe.voltage - live).abs() > 0.05 {
            return Err(PdnError::ProbeVoltageMismatch {
                probe_volts: probe.voltage,
                rail_volts: live,
            });
        }
        self.attached.push((pad.to_string(), probe));
        Ok(())
    }

    /// Detaches whatever probe sits at `pad`.
    ///
    /// # Errors
    ///
    /// [`PdnError::UnknownProbePoint`] if no probe is attached there.
    pub fn detach_probe(&mut self, pad: &str) -> Result<Probe, PdnError> {
        let idx = self
            .attached
            .iter()
            .position(|(p, _)| p == pad)
            .ok_or_else(|| PdnError::UnknownProbePoint { name: pad.to_string() })?;
        Ok(self.attached.remove(idx).1)
    }

    /// The probe attached at `pad`, if any.
    pub fn probe_at(&self, pad: &str) -> Option<&Probe> {
        self.attached.iter().find(|(p, _)| p == pad).map(|(_, probe)| probe)
    }

    /// Abruptly cuts the board's main input and resolves, rail by rail,
    /// whether an attached probe held it and how deep the surge droop went.
    ///
    /// # Errors
    ///
    /// * [`PdnError::InvalidMainTransition`] if main power is already off.
    /// * [`PdnError::UnknownProbePoint`] if an attached probe's pad no
    ///   longer resolves (the pad list was edited after attach).
    pub fn disconnect_main(&mut self) -> Result<DisconnectOutcome, PdnError> {
        self.disconnect_main_traced(&Recorder::disabled())
    }

    /// [`PowerNetwork::disconnect_main`], recording per-rail telemetry:
    /// `pdn.rails_held` / `pdn.rails_dropped` counters, a
    /// `pdn.disconnect` span, the virtual time of the longest surge, and
    /// per-rail waveform samples (`pdn.<rail>.v` / `pdn.<rail>.i`)
    /// tracing the droop-and-recover shape of held rails and the
    /// collapse of unheld ones — the paper's Fig. 4–6 scope view as
    /// data.
    ///
    /// # Errors
    ///
    /// Same as [`PowerNetwork::disconnect_main`].
    pub fn disconnect_main_traced(
        &mut self,
        rec: &Recorder,
    ) -> Result<DisconnectOutcome, PdnError> {
        if !self.main_connected {
            return Err(PdnError::InvalidMainTransition {
                attempted: "disconnect while disconnected",
            });
        }
        let span = rec.span("pdn.disconnect");
        let t0 = rec.now_ns();

        // Resolve every rail before committing the state change so a
        // lookup failure leaves the network consistent.
        let mut rails = Vec::with_capacity(self.pmic.rails.len());
        let mut held_count = 0u64;
        let mut max_surge_ns = 0u64;
        for rail in &self.pmic.rails {
            let mut probe = None;
            for (pad, p) in &self.attached {
                let point = self.find_pad(pad)?;
                if point.rail == rail.name {
                    probe = Some(*p);
                    break;
                }
            }
            let held = probe.map(|probe| {
                let surge = self.rail_surge(&rail.name);
                let surge_ns = (surge.surge_duration * 1e9) as u64;
                max_surge_ns = max_surge_ns.max(surge_ns);
                let transient = DisconnectTransient::compute(&probe, rail, &surge);
                Self::sample_held_rail(
                    rec,
                    &rail.name,
                    rail.nominal_voltage,
                    &surge,
                    &transient,
                    t0,
                    surge_ns,
                );
                transient
            });
            if held.is_some() {
                held_count += 1;
            } else if rec.is_enabled() {
                // An unheld rail simply collapses once the PMIC input is
                // gone: nominal at the cut, zero a collapse later.
                let v_chan = format!("pdn.{}.v", rail.name);
                rec.sample_at(&v_chan, t0, rail.nominal_voltage);
                rec.sample_at(&v_chan, t0 + UNHELD_COLLAPSE_NS, 0.0);
            }
            rails.push(RailOutcome { rail: rail.name.clone(), held });
        }
        self.main_connected = false;

        rec.incr("pdn.disconnects", 1);
        rec.incr("pdn.rails_held", held_count);
        rec.incr("pdn.rails_dropped", rails.len() as u64 - held_count);
        rec.advance(max_surge_ns);
        span.attr("rails_held", held_count);
        span.attr("max_surge_ns", max_surge_ns);
        span.end();
        Ok(DisconnectOutcome { rails })
    }

    /// Samples the droop-and-recover waveform of a held rail across its
    /// surge window: nominal at the cut, minimum at the surge edge
    /// (~10 % in), an exponential-ish recovery at the quarter points,
    /// and the settled probe voltage at the end. The current channel
    /// records the load stepping from steady to the probe's delivered
    /// peak and back.
    fn sample_held_rail(
        rec: &Recorder,
        rail: &str,
        nominal: f64,
        surge: &SurgeProfile,
        transient: &DisconnectTransient,
        t0: u64,
        surge_ns: u64,
    ) {
        if !rec.is_enabled() {
            return;
        }
        let v_chan = format!("pdn.{rail}.v");
        let i_chan = format!("pdn.{rail}.i");
        let edge = t0 + surge_ns / 10;
        rec.sample_at(&v_chan, t0, nominal);
        rec.sample_at(&v_chan, edge, transient.min_voltage);
        let swing = transient.steady_voltage - transient.min_voltage;
        for (num, weight) in [(1u64, 0.5), (2, 0.25), (3, 0.125)] {
            let at = t0 + surge_ns * num / 4;
            if at > edge {
                rec.sample_at(&v_chan, at, transient.steady_voltage - swing * weight);
            }
        }
        rec.sample_at(&v_chan, t0 + surge_ns, transient.steady_voltage);
        rec.sample_at(&i_chan, t0, surge.steady_current);
        rec.sample_at(&i_chan, edge, transient.peak_current);
        rec.sample_at(&i_chan, t0 + surge_ns, surge.steady_current.min(transient.peak_current));
    }

    /// Reconnects main power; rails come back in PMIC sequence order.
    /// Returns the bring-up order.
    ///
    /// # Errors
    ///
    /// [`PdnError::InvalidMainTransition`] if main power is already on.
    pub fn reconnect_main(&mut self) -> Result<Vec<String>, PdnError> {
        self.reconnect_main_with(ReconnectOrder::PmicSequence, &Recorder::disabled())
    }

    /// [`PowerNetwork::reconnect_main`] with an explicit bring-up order
    /// (the reconnect-ordering fault mode) and telemetry: a
    /// `pdn.reconnect` span advanced by one sequencing step per rail.
    ///
    /// # Errors
    ///
    /// Same as [`PowerNetwork::reconnect_main`].
    pub fn reconnect_main_with(
        &mut self,
        order: ReconnectOrder,
        rec: &Recorder,
    ) -> Result<Vec<String>, PdnError> {
        if self.main_connected {
            return Err(PdnError::InvalidMainTransition { attempted: "reconnect while connected" });
        }
        let span = rec.span("pdn.reconnect");
        let t0 = rec.now_ns();
        self.main_connected = true;
        let mut sequence: Vec<String> =
            self.pmic.sequence().into_iter().map(String::from).collect();
        if order == ReconnectOrder::Reversed {
            sequence.reverse();
            rec.incr("pdn.reconnects_misordered", 1);
        }
        if rec.is_enabled() {
            // The bring-up staircase: each rail sits at zero until its
            // sequencing slot, then steps to nominal.
            for (k, name) in sequence.iter().enumerate() {
                let Some(rail) = self.pmic.rail(name) else { continue };
                let chan = format!("pdn.{name}.v");
                let slot = t0 + RAIL_SEQUENCE_STEP_NS * k as u64;
                rec.sample_at(&chan, slot, 0.0);
                rec.sample_at(&chan, slot + RAIL_SEQUENCE_STEP_NS, rail.nominal_voltage);
            }
        }
        rec.incr("pdn.reconnects", 1);
        rec.advance(RAIL_SEQUENCE_STEP_NS * sequence.len() as u64);
        span.attr(
            "order",
            match order {
                ReconnectOrder::PmicSequence => "pmic-sequence",
                ReconnectOrder::Reversed => "reversed",
            },
        );
        span.attr("rails", sequence.len());
        span.end();
        Ok(sequence)
    }

    /// Opens or closes a domain's power gate at runtime (the PMU's
    /// fine-grained control, and the hardware hook behind the "toggle SRAM
    /// power at reset" countermeasure).
    ///
    /// # Errors
    ///
    /// [`PdnError::UnknownDomain`] if the domain does not exist.
    pub fn gate_domain(&mut self, name: &str, on: bool) -> Result<(), PdnError> {
        let domain = self
            .domains
            .iter_mut()
            .find(|d| d.name == name)
            .ok_or_else(|| PdnError::UnknownDomain { name: name.to_string() })?;
        domain.gated_on = on;
        Ok(())
    }

    /// Aggregate surge profile of every gated-on domain on `rail`.
    fn rail_surge(&self, rail: &str) -> SurgeProfile {
        let mut steady = 0.0;
        let mut surge = 0.0;
        let mut duration: f64 = 0.0;
        for d in self.domains.iter().filter(|d| d.rail == rail && d.gated_on) {
            steady += d.steady_current();
            surge += d.surge_current();
            duration = duration.max(d.surge_duration());
        }
        if surge == 0.0 {
            SurgeProfile::quiescent(steady.max(1e-3))
        } else {
            SurgeProfile { steady_current: steady, surge_current: surge, surge_duration: duration }
        }
    }

    fn find_pad(&self, pad: &str) -> Result<&ProbePoint, PdnError> {
        self.probe_points
            .iter()
            .find(|p| p.pad == pad)
            .ok_or_else(|| PdnError::UnknownProbePoint { name: pad.to_string() })
    }

    /// A Raspberry-Pi-4-like reference board used in docs and tests: the
    /// BCM2711's VDD_CORE (0.8 V, exposed at TP15) feeds the ARM cluster
    /// and L1 SRAMs; separate memory and I/O rails complete the picture.
    pub fn raspberry_pi_4_like() -> Self {
        let pmic = Pmic::new("MxL7704")
            .with_rail(Rail::new("VDD_IO", 3.3, RegulatorKind::Ldo))
            .with_rail(Rail::new("VDD_MEM", 1.1, RegulatorKind::Buck))
            .with_rail(Rail::new("VDD_CORE", 0.8, RegulatorKind::Buck));
        PowerNetwork::new(pmic)
            .with_domain(
                PowerDomain::new("core", DomainKind::Core, "VDD_CORE")
                    .with_load(Load::compute_cluster("arm-cluster", 0.5, 2.5))
                    .with_load(Load::sram("l1-srams", 0.008)),
            )
            .with_domain(
                PowerDomain::new("memory", DomainKind::Memory, "VDD_MEM")
                    .with_load(Load::sram("l2", 0.02)),
            )
            .with_domain(PowerDomain::new("io", DomainKind::Io, "VDD_IO"))
            .with_probe_point(ProbePoint::new("TP15", "VDD_CORE", "test pad near the PMIC"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_then_attach_then_disconnect() {
        let mut net = PowerNetwork::raspberry_pi_4_like();
        let live = net.measure_pad("TP15").unwrap();
        assert_eq!(live, 0.8);
        net.attach_probe("TP15", Probe::bench_supply(live, 3.0)).unwrap();
        let outcome = net.disconnect_main().unwrap();
        assert!(outcome.rail("VDD_CORE").unwrap().is_held());
        assert!(!outcome.rail("VDD_MEM").unwrap().is_held());
        assert!(!outcome.rail("VDD_IO").unwrap().is_held());
    }

    #[test]
    fn probe_setpoint_must_match_rail() {
        let mut net = PowerNetwork::raspberry_pi_4_like();
        let err = net.attach_probe("TP15", Probe::bench_supply(1.2, 3.0)).unwrap_err();
        assert!(matches!(err, PdnError::ProbeVoltageMismatch { .. }));
    }

    #[test]
    fn double_attach_rejected() {
        let mut net = PowerNetwork::raspberry_pi_4_like();
        net.attach_probe("TP15", Probe::bench_supply(0.8, 3.0)).unwrap();
        let err = net.attach_probe("TP15", Probe::bench_supply(0.8, 3.0)).unwrap_err();
        assert!(matches!(err, PdnError::ProbeAlreadyAttached { .. }));
    }

    #[test]
    fn unknown_pad_rejected() {
        let mut net = PowerNetwork::raspberry_pi_4_like();
        assert!(matches!(
            net.attach_probe("TP99", Probe::bench_supply(0.8, 3.0)),
            Err(PdnError::UnknownProbePoint { .. })
        ));
    }

    #[test]
    fn weak_probe_droops_core_rail() {
        let mut net = PowerNetwork::raspberry_pi_4_like();
        net.attach_probe("TP15", Probe::weak_source(0.8, 0.3)).unwrap();
        let outcome = net.disconnect_main().unwrap();
        let rail = outcome.rail("VDD_CORE").unwrap();
        assert!(rail.is_held());
        assert!(rail.transient_min_voltage().unwrap() < 0.3);
    }

    #[test]
    fn reconnect_follows_pmic_sequence() {
        let mut net = PowerNetwork::raspberry_pi_4_like();
        net.disconnect_main().unwrap();
        let order = net.reconnect_main().unwrap();
        assert_eq!(order, vec!["VDD_IO", "VDD_MEM", "VDD_CORE"]);
    }

    #[test]
    fn main_transitions_guarded() {
        let mut net = PowerNetwork::raspberry_pi_4_like();
        assert!(net.reconnect_main().is_err());
        net.disconnect_main().unwrap();
        assert!(net.disconnect_main().is_err());
    }

    #[test]
    fn gating_off_core_removes_surge() {
        let mut net = PowerNetwork::raspberry_pi_4_like();
        net.attach_probe("TP15", Probe::weak_source(0.8, 0.3)).unwrap();
        net.gate_domain("core", false).unwrap();
        let outcome = net.disconnect_main().unwrap();
        // With the cluster gated off, even the weak source holds the rail.
        let rail = outcome.rail("VDD_CORE").unwrap();
        assert!(rail.transient_min_voltage().unwrap() > 0.7);
    }

    #[test]
    fn unknown_domain_gate_is_error() {
        let mut net = PowerNetwork::raspberry_pi_4_like();
        assert!(matches!(net.gate_domain("gpu", false), Err(PdnError::UnknownDomain { .. })));
    }

    #[test]
    fn measure_pad_while_off_reads_probe_or_zero() {
        let mut net = PowerNetwork::raspberry_pi_4_like();
        net.disconnect_main().unwrap();
        assert_eq!(net.measure_pad("TP15").unwrap(), 0.0);
        net.reconnect_main().unwrap();
        net.attach_probe("TP15", Probe::bench_supply(0.8, 3.0)).unwrap();
        net.disconnect_main().unwrap();
        assert_eq!(net.measure_pad("TP15").unwrap(), 0.8);
    }

    #[test]
    fn misordered_reconnect_reverses_sequence() {
        let mut net = PowerNetwork::raspberry_pi_4_like();
        net.disconnect_main().unwrap();
        let order =
            net.reconnect_main_with(ReconnectOrder::Reversed, &Recorder::disabled()).unwrap();
        assert_eq!(order, vec!["VDD_CORE", "VDD_MEM", "VDD_IO"]);
    }

    #[test]
    fn disconnect_records_telemetry() {
        let mut net = PowerNetwork::raspberry_pi_4_like();
        net.attach_probe("TP15", Probe::bench_supply(0.8, 3.0)).unwrap();
        let rec = Recorder::new();
        net.disconnect_main_traced(&rec).unwrap();
        assert_eq!(rec.counter("pdn.rails_held"), 1);
        assert_eq!(rec.counter("pdn.rails_dropped"), 2);
        assert!(rec.now_ns() > 0, "surge must advance the virtual clock");
        assert_eq!(rec.timings()["pdn.disconnect"].count, 1);
        net.reconnect_main_with(ReconnectOrder::PmicSequence, &rec).unwrap();
        assert_eq!(rec.counter("pdn.reconnects"), 1);
    }

    #[test]
    fn disconnect_traces_rail_waveforms() {
        let mut net = PowerNetwork::raspberry_pi_4_like();
        net.attach_probe("TP15", Probe::bench_supply(0.8, 3.0)).unwrap();
        let rec = Recorder::new();
        net.disconnect_main_traced(&rec).unwrap();
        net.reconnect_main_with(ReconnectOrder::PmicSequence, &rec).unwrap();

        let waves = rec.waveforms();
        // Held rail: voltage and current channels trace the surge.
        let core_v = &waves["pdn.VDD_CORE.v"];
        assert!(core_v.len() >= 4, "droop + recovery points: {core_v:?}");
        assert_eq!(core_v[0].value, 0.8, "nominal at the cut");
        let min = core_v.iter().map(|s| s.value).fold(f64::INFINITY, f64::min);
        assert!(min < 0.8, "the surge must droop below nominal");
        assert!(waves["pdn.VDD_CORE.i"].iter().any(|s| s.value > 0.5), "surge current peak");
        // Unheld rail: collapse to zero, then the reconnect staircase
        // brings it back to nominal.
        let mem_v = &waves["pdn.VDD_MEM.v"];
        assert_eq!(mem_v[0].value, 1.1);
        assert_eq!(mem_v[1].value, 0.0);
        assert_eq!(mem_v.last().unwrap().value, 1.1, "reconnect restores nominal");
        // Timestamps never run backwards within a channel.
        for w in waves.values() {
            assert!(w.windows(2).all(|p| p[0].at_ns <= p[1].at_ns), "{w:?}");
        }

        // Span attributes describe the disconnect and the bring-up.
        let spans = rec.spans();
        let disconnect = spans.iter().find(|s| s.name == "pdn.disconnect").unwrap();
        assert!(disconnect.attrs.iter().any(|(k, v)| k == "rails_held" && *v == AttrValue::U64(1)));
        let reconnect = spans.iter().find(|s| s.name == "pdn.reconnect").unwrap();
        assert!(reconnect
            .attrs
            .iter()
            .any(|(k, v)| k == "order" && *v == AttrValue::Str("pmic-sequence".into())));
    }

    #[test]
    fn detach_after_disconnect_keeps_network_usable() {
        // The mid-campaign fault sequence: probe contact is lost between
        // the disconnect and the reconnect. Nothing here may panic.
        let mut net = PowerNetwork::raspberry_pi_4_like();
        net.attach_probe("TP15", Probe::bench_supply(0.8, 3.0)).unwrap();
        net.disconnect_main().unwrap();
        net.detach_probe("TP15").unwrap();
        assert_eq!(net.measure_pad("TP15").unwrap(), 0.0);
        net.reconnect_main().unwrap();
        assert_eq!(net.measure_pad("TP15").unwrap(), 0.8);
    }

    #[test]
    fn detach_returns_probe() {
        let mut net = PowerNetwork::raspberry_pi_4_like();
        net.attach_probe("TP15", Probe::bench_supply(0.8, 3.0)).unwrap();
        let p = net.detach_probe("TP15").unwrap();
        assert_eq!(p.current_limit, 3.0);
        assert!(net.probe_at("TP15").is_none());
    }
}
