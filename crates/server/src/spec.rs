//! Sweep specifications: the `key=value` vocabulary jobs are submitted
//! in, and the canonical campaign/victim builders every runner (the
//! daemon's executors, the `shard` subcommand, the bench client's
//! local mode) shares so their reports stay byte-comparable.

use std::time::Duration;
use voltboot::attack::VoltBootAttack;
use voltboot::campaign::{Campaign, RetryPolicy};
use voltboot::fault::{FaultPlan, FaultRates};
use voltboot_armlite::program::builders;
use voltboot_soc::{devices, PowerCycleSpec, Soc};
use voltboot_sram::Temperature;

/// Most campaign worker threads one job may ask for. The scheduler
/// itself clamps workers only at 1024, per job and per executor.
pub const MAX_THREADS: usize = 64;

/// Most supervised shards one job may ask for. Each shard is a
/// supervisor thread plus a `shard` worker process, all started at once.
pub const MAX_SHARDS: u32 = 64;

/// A spec token failed to parse. The message is protocol-safe: one
/// line, no tabs, ready to ship back as `ERR <detail>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad sweep spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// The simulated victim board a sweep runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// Raspberry Pi 4 (Cortex-A72 class dies).
    Pi4,
    /// Raspberry Pi 3 (Cortex-A53 class dies).
    Pi3,
    /// iMX53 Quick Start Board.
    Imx53,
}

impl Platform {
    fn parse(v: &str) -> Result<Platform, SpecError> {
        match v {
            "pi4" => Ok(Platform::Pi4),
            "pi3" => Ok(Platform::Pi3),
            "imx53" => Ok(Platform::Imx53),
            other => {
                Err(SpecError(format!("unknown platform {other:?} (expected pi4, pi3, or imx53)")))
            }
        }
    }

    /// The spec/protocol token for this platform (`pi4`, `pi3`,
    /// `imx53`) — also the `platform` label value on job metrics.
    pub fn token(self) -> &'static str {
        match self {
            Platform::Pi4 => "pi4",
            Platform::Pi3 => "pi3",
            Platform::Imx53 => "imx53",
        }
    }
}

/// One queued sweep: a single campaign (one fault rate) plus the axes
/// the paper grids over. A client sweeping several rates submits one
/// job per rate — jobs are the unit of progress and of reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Victim board.
    pub platform: Platform,
    /// PCB probe pad the attack drives (paper: TP15 on the Pi 4).
    pub probe: String,
    /// Uniform per-step fault rate for this campaign.
    pub rate: f64,
    /// Repetitions to run.
    pub reps: u64,
    /// Majority-vote read passes per SRAM unit.
    pub passes: u32,
    /// Worker threads inside the campaign (1 = sequential runner).
    pub threads: usize,
    /// Per-rep retry deadline on the virtual clock, if bounded.
    pub deadline_ns: Option<u64>,
    /// Die-variation seed for the victim builder.
    pub die_seed: u64,
    /// Fault-plan seed.
    pub fault_seed: u64,
    /// Ambient temperature during the power cycle, if not room.
    pub temp_c: Option<f64>,
    /// How long the board stays unpowered per cycle, in milliseconds.
    pub off_ms: u64,
    /// Supervised shard worker processes to split the reps across
    /// (0 = run in-process through the parallel scheduler). Reports
    /// are byte-identical either way; sharding only changes *where*
    /// the reps run.
    pub shards: u32,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            platform: Platform::Pi4,
            probe: "TP15".to_string(),
            rate: 0.0,
            reps: 4,
            passes: 3,
            threads: 1,
            deadline_ns: None,
            die_seed: 0x0020_22A5_B007,
            fault_seed: 0x000F_A017_C0DE,
            temp_c: None,
            off_ms: 500,
            shards: 0,
        }
    }
}

fn parsed<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, SpecError> {
    v.parse().map_err(|_| SpecError(format!("{key} does not parse from {v:?}")))
}

impl SweepSpec {
    /// Parses `key=value` tokens (any order, later wins) into a spec.
    /// Unknown keys and malformed values are typed errors — a daemon
    /// must never guess what a client meant.
    pub fn parse(
        tokens: impl IntoIterator<Item = impl AsRef<str>>,
    ) -> Result<SweepSpec, SpecError> {
        let mut spec = SweepSpec::default();
        for token in tokens {
            let token = token.as_ref();
            let Some((key, v)) = token.split_once('=') else {
                return Err(SpecError(format!("token {token:?} is not key=value")));
            };
            match key {
                "platform" => spec.platform = Platform::parse(v)?,
                "probe" => {
                    if v.is_empty() {
                        return Err(SpecError("probe must not be empty".into()));
                    }
                    spec.probe = v.to_string();
                }
                "rate" => {
                    let rate: f64 = parsed(key, v)?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err(SpecError(format!("rate {rate} outside [0, 1]")));
                    }
                    spec.rate = rate;
                }
                "reps" => {
                    spec.reps = parsed(key, v)?;
                    if spec.reps == 0 {
                        return Err(SpecError("reps must be at least 1".into()));
                    }
                }
                "passes" => spec.passes = parsed(key, v)?,
                "threads" => {
                    spec.threads = parsed(key, v)?;
                    if spec.threads == 0 {
                        return Err(SpecError("threads must be at least 1".into()));
                    }
                    if spec.threads > MAX_THREADS {
                        return Err(SpecError(format!(
                            "threads {} exceeds the cap of {MAX_THREADS}",
                            spec.threads
                        )));
                    }
                }
                "deadline_ns" => spec.deadline_ns = Some(parsed(key, v)?),
                "die_seed" => spec.die_seed = parsed(key, v)?,
                "fault_seed" => spec.fault_seed = parsed(key, v)?,
                "temp_c" => {
                    let c: f64 = parsed(key, v)?;
                    if !c.is_finite() {
                        return Err(SpecError("temp_c must be finite".into()));
                    }
                    if c <= -273.15 {
                        return Err(SpecError(format!("temp_c {c} is not above absolute zero")));
                    }
                    spec.temp_c = Some(c);
                }
                "off_ms" => spec.off_ms = parsed(key, v)?,
                "shards" => {
                    spec.shards = parsed(key, v)?;
                    if spec.shards > MAX_SHARDS {
                        return Err(SpecError(format!(
                            "shards {} exceeds the cap of {MAX_SHARDS}",
                            spec.shards
                        )));
                    }
                }
                other => return Err(SpecError(format!("unknown key {other:?}"))),
            }
        }
        Ok(spec)
    }

    /// The spec re-rendered as canonical `key=value` tokens (fixed
    /// order, defaults included) — what the daemon echoes back so a
    /// client can verify what was actually queued.
    pub fn canonical(&self) -> String {
        let mut out = format!(
            "platform={} probe={} rate={} reps={} passes={} threads={} die_seed={} fault_seed={} off_ms={}",
            self.platform.token(),
            self.probe,
            self.rate,
            self.reps,
            self.passes,
            self.threads,
            self.die_seed,
            self.fault_seed,
            self.off_ms,
        );
        if let Some(d) = self.deadline_ns {
            out.push_str(&format!(" deadline_ns={d}"));
        }
        if let Some(c) = self.temp_c {
            out.push_str(&format!(" temp_c={c}"));
        }
        if self.shards > 0 {
            out.push_str(&format!(" shards={}", self.shards));
        }
        out
    }

    /// The campaign this spec describes. Retry policy matches the
    /// bench sweep binary so daemon reports byte-match local runs.
    pub fn campaign(&self) -> Campaign {
        let plan = FaultPlan::new(self.fault_seed, FaultRates::uniform(self.rate));
        let mut campaign = Campaign::new(self.attack(), plan, self.reps)
            .retry(RetryPolicy { max_attempts: 3, initial_backoff_ns: 50_000_000 });
        if let Some(deadline) = self.deadline_ns {
            campaign = campaign.deadline_ns(deadline);
        }
        campaign
    }

    /// The attack every rep of this spec's campaign runs. The default
    /// spec's cycle (500 ms at room temperature) is exactly
    /// `PowerCycleSpec::quick()`, the cycle local runs use, so default
    /// reports byte-match them.
    fn attack(&self) -> VoltBootAttack {
        VoltBootAttack::new(self.probe.as_str()).passes(self.passes).cycle(PowerCycleSpec {
            off_duration: Duration::from_millis(self.off_ms),
            temperature: self.temp_c.map_or(Temperature::ROOM, Temperature::from_celsius),
        })
    }

    /// The victim builder for this spec's platform and die seed.
    pub fn victim(&self) -> impl Fn(u64) -> Soc + Sync {
        canonical_victim(self.platform, self.die_seed)
    }
}

/// The canonical per-rep victim: a freshly seeded die (golden-ratio
/// stride so neighbouring reps get well-separated die seeds), powered
/// on, caches enabled, victim program run. Every runner — daemon
/// executors, shard processes, the bench sweep in local mode — uses
/// this exact builder; byte-comparing their reports depends on it.
pub fn canonical_victim(platform: Platform, die_seed: u64) -> impl Fn(u64) -> Soc + Sync {
    move |rep| {
        let seed = die_seed ^ rep.wrapping_mul(0x9E37_79B9);
        let mut soc = match platform {
            Platform::Pi4 => devices::raspberry_pi_4(seed),
            Platform::Pi3 => devices::raspberry_pi_3(seed),
            Platform::Imx53 => devices::imx53_qsb(seed),
        };
        soc.power_on_all();
        soc.enable_caches(0);
        soc.run_program(0, &builders::nop_sled(128), 0x10000, 100_000);
        soc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_roundtrip_through_canonical_tokens() {
        let spec = SweepSpec::default();
        let canonical = spec.canonical();
        assert_eq!(SweepSpec::parse(canonical.split(' ')).unwrap(), spec);
    }

    #[test]
    fn full_spec_roundtrips() {
        let spec = SweepSpec::parse([
            "platform=imx53",
            "probe=TP7",
            "rate=0.25",
            "reps=12",
            "passes=5",
            "threads=4",
            "deadline_ns=9000000",
            "die_seed=77",
            "fault_seed=99",
            "temp_c=-40",
            "off_ms=200",
            "shards=2",
        ])
        .unwrap();
        assert_eq!(spec.platform, Platform::Imx53);
        assert_eq!(spec.temp_c, Some(-40.0));
        assert_eq!(spec.shards, 2);
        let canonical = spec.canonical();
        assert_eq!(SweepSpec::parse(canonical.split(' ')).unwrap(), spec);
    }

    #[test]
    fn malformed_tokens_fail_typed() {
        for bad in [
            "platform=pdp11",
            "rate=1.5",
            "rate=no",
            "reps=0",
            "threads=0",
            "probe=",
            "bogus=1",
            "naked-token",
            "temp_c=inf",
            "shards=-1",
        ] {
            assert!(SweepSpec::parse([bad]).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn threads_and_shards_are_capped() {
        // Parse only: a spec at a cap is legal, but never run one here.
        let spec = SweepSpec::parse(["threads=64", "shards=64"]).unwrap();
        assert_eq!((spec.threads, spec.shards), (MAX_THREADS, MAX_SHARDS));
        for bad in ["threads=65", "shards=65", "shards=4294967295"] {
            let err = SweepSpec::parse([bad]).expect_err(bad);
            assert!(err.0.ends_with("exceeds the cap of 64"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn off_ms_applies_without_temp_c() {
        // An unset temp_c means room temperature, exactly.
        assert_eq!(Temperature::from_celsius(25.0), Temperature::ROOM);
        let report = |tokens: &[&str]| {
            let spec = SweepSpec::parse(tokens.iter().copied()).unwrap();
            spec.campaign().run(spec.victim()).to_json()
        };
        let room_implied = report(&["reps=1", "off_ms=0"]);
        let room_explicit = report(&["reps=1", "off_ms=0", "temp_c=25"]);
        assert_eq!(room_implied, room_explicit, "off_ms=0 must not fall back to a 500 ms cycle");
    }

    #[test]
    fn temp_c_must_be_above_absolute_zero() {
        for bad in ["temp_c=-273.15", "temp_c=-300"] {
            assert!(SweepSpec::parse([bad]).is_err(), "{bad:?} must be rejected");
        }
        // Liquid nitrogen is a legal (if optimistic) cold-boot chill.
        let spec = SweepSpec::parse(["temp_c=-196"]).unwrap();
        assert_eq!(spec.temp_c, Some(-196.0));
        spec.campaign();
    }

    #[test]
    fn a_canonical_rep_allocates_two_dram_pages() {
        // Of the Pi 4's 2,048 DRAM pages, a fault-free rep writes two:
        // the victim program's and the boot stub's. Every other page stays
        // unallocated and reads as zeros with its decay applied.
        let spec = SweepSpec::default();
        let mut soc = spec.victim()(0);
        assert_eq!(soc.dram().allocated_pages(), 1, "the victim program's page");
        spec.attack().execute(&mut soc).expect("a fault-free rep succeeds");
        assert_eq!(soc.dram().allocated_pages(), 2, "and the boot stub's page");
    }

    #[test]
    fn later_tokens_override_earlier_ones() {
        let spec = SweepSpec::parse(["reps=3", "reps=9"]).unwrap();
        assert_eq!(spec.reps, 9);
    }
}
