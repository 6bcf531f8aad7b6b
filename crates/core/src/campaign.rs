//! Campaign runner: many attack repetitions under a fault plan.
//!
//! A single [`VoltBootAttack::execute`] answers "does the attack work
//! once, on a clean bench". A [`Campaign`] answers the operational
//! question: across N repetitions with realistic glitch rates, how often
//! does it work, how often does it degrade, and what does a failed
//! extraction leave behind? Each repetition gets a fresh victim from a
//! factory closure, each attempt draws its faults deterministically from
//! the campaign's [`FaultPlan`], failed attempts retry with doubling
//! (virtual-clock) backoff, and an exhausted repetition records a
//! *partial* outcome — the campaign never panics and never aborts early.
//!
//! Every run goes through one runner, [`Campaign::run_from`], whose
//! state is a [`Checkpoint`]: a fresh run starts from an empty one
//! ([`Campaign::fresh`]), a **resume** from one loaded after a kill
//! ([`Checkpoint::load`]), and a partial run stops at a given rep. With
//! a path set, the runner saves the checkpoint after every repetition.
//! Because the fault plan is counter-mode and the telemetry clock is
//! virtual, a resumed campaign's final report is *byte-identical* to
//! the uninterrupted run's. A per-repetition
//! virtual-clock deadline ([`Campaign::deadline_ns`]) bounds how long a
//! repetition may keep retrying before it records
//! [`RepStatus::TimedOut`].
//!
//! Everything the run produces — per-step timings, fault counters, the
//! per-rep records — exports as hand-rolled JSON that is byte-identical
//! across runs with the same seeds.
//!
//! Repetitions are independent by construction (counter-mode faults, a
//! fresh victim per attempt, per-rep telemetry on the virtual clock), so
//! the runner also shards them **across threads**: workers claim reps
//! from a shared counter and a merger absorbs the results back in rep
//! order, keeping the report and every checkpoint byte-identical to the
//! one-worker run's for any thread count. [`Campaign::run`],
//! [`Campaign::run_parallel`] and [`Campaign::run_shard_parallel`] are
//! the runner over a fresh checkpoint.
//!
//! Million-rep sweeps get their throughput from the SRAM engine. A
//! treatment that keeps or loses every cell resolves nothing: a clean
//! hold changes no cell, and a total loss (an unheld cycle, a probe
//! that droops below every cell's DRV) owes each array its power-up
//! sample. A partial loss (a probe droop into the DRV range) rides the
//! rep-delta path: the first repetitions against a die resolve densely
//! and settle a per-`(die, treatment)` baseline, after which each
//! worker's repetitions re-resolve only the disturbed cells through a
//! thread-local baseline lease. Faulted repetitions (brown-outs,
//! misordered sequencing) perturb the off-rail treatment, miss the
//! baseline key, and fall back to the dense path — so reports,
//! checkpoints, and shard merges stay byte-identical whether the sparse
//! path ran or not (`VOLTBOOT_NO_DELTA=1` forces it off to bisect).

use crate::attack::{AttackContext, VoltBootAttack};
use crate::fault::FaultPlan;
use crate::recover::{self, ConfidenceMap};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use voltboot_soc::Soc;
use voltboot_sram::par;
use voltboot_telemetry::{json, parse, Recorder};

/// Retry behaviour for failed attack attempts within one repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per repetition (at least 1).
    pub max_attempts: u32,
    /// Virtual backoff before the first retry; doubles per retry.
    pub initial_backoff_ns: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3, initial_backoff_ns: 50_000_000 }
    }
}

impl RetryPolicy {
    /// The virtual backoff after failed attempt `attempt` (0-based):
    /// `initial_backoff_ns * 2^attempt`, saturating at `u64::MAX`
    /// instead of overflowing once the shift passes 63 — a
    /// `max_attempts` beyond 64 is unusual but must not panic the
    /// campaign.
    pub fn backoff_ns(&self, attempt: u32) -> u64 {
        let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        self.initial_backoff_ns.saturating_mul(factor)
    }
}

/// How one repetition ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepStatus {
    /// The attack completed with the rail held and no fault fired on the
    /// winning attempt.
    Success,
    /// The attack completed, but a fault fired (or the rail was not
    /// held): the outcome exists but is degraded.
    Degraded,
    /// Every attempt failed; the record holds the partial outcome of the
    /// last attempt.
    Failed,
    /// Retries pushed the repetition past the campaign's per-rep
    /// virtual-clock deadline; the record holds the partial outcome of
    /// the last attempt tried.
    TimedOut,
}

impl RepStatus {
    fn as_str(self) -> &'static str {
        match self {
            RepStatus::Success => "success",
            RepStatus::Degraded => "degraded",
            RepStatus::Failed => "failed",
            RepStatus::TimedOut => "timed_out",
        }
    }

    fn parse(s: &str) -> Option<RepStatus> {
        Some(match s {
            "success" => RepStatus::Success,
            "degraded" => RepStatus::Degraded,
            "failed" => RepStatus::Failed,
            "timed_out" => RepStatus::TimedOut,
            _ => return None,
        })
    }
}

/// Publishes one finished repetition into the process-global metrics
/// plane ([`voltboot_telemetry::metrics::global`]): a
/// `voltboot_reps_total{status=…}` counter tick and a wall-clock sample
/// in the `voltboot_rep_duration_ns` histogram.
///
/// This is strictly out-of-band observability — wall clock and relaxed
/// atomics, never the deterministic [`Recorder`] — so enabling or
/// disabling metrics cannot perturb reports, checkpoints, or trace
/// exports. The handles are registered once and cached, so the
/// steady-state cost per rep is one relaxed counter RMW plus one
/// histogram record.
pub fn observe_rep_metrics(status: RepStatus, elapsed: std::time::Duration) {
    use std::sync::OnceLock;
    use voltboot_telemetry::metrics::{self, Counter, LatencyHist};
    if !metrics::enabled() {
        return;
    }
    static CELLS: OnceLock<([Counter; 4], LatencyHist)> = OnceLock::new();
    let (by_status, duration) = CELLS.get_or_init(|| {
        let reg = metrics::global();
        let counter = |status: RepStatus| {
            reg.counter(
                "voltboot_reps_total",
                "Campaign repetitions completed, by terminal status.",
                &[("status", status.as_str())],
            )
        };
        (
            [
                counter(RepStatus::Success),
                counter(RepStatus::Degraded),
                counter(RepStatus::Failed),
                counter(RepStatus::TimedOut),
            ],
            reg.histogram(
                "voltboot_rep_duration_ns",
                "Wall-clock nanoseconds one campaign repetition took, retries included.",
                &[],
            ),
        )
    });
    let idx = match status {
        RepStatus::Success => 0,
        RepStatus::Degraded => 1,
        RepStatus::Failed => 2,
        RepStatus::TimedOut => 3,
    };
    by_status[idx].inc();
    duration.observe_duration(elapsed);
}

/// What one repetition recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct RepRecord {
    /// Repetition index.
    pub rep: u64,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// How the repetition ended.
    pub status: RepStatus,
    /// Whether the winning attempt held the rail (false when failed).
    pub rail_held: bool,
    /// Images the winning attempt extracted (0 when failed).
    pub images: usize,
    /// Fault classes that fired across all attempts of this repetition.
    pub faults_fired: Vec<String>,
    /// Steps the last attempt completed (the partial outcome on failure;
    /// the full flow on success).
    pub steps_completed: usize,
    /// The last attempt's error, when the repetition failed.
    pub error: Option<String>,
    /// Aggregate vote confidence across the winning attempt's images
    /// (all zeros on single-pass runs and on failures).
    pub confidence: ConfidenceMap,
}

impl RepRecord {
    /// The record as a deterministic JSON object — the exact shape the
    /// campaign report and the checkpoint file both embed.
    pub fn to_value(&self) -> json::Value {
        json::Value::object(vec![
            ("rep", json::Value::from(self.rep)),
            ("attempts", json::Value::from(u64::from(self.attempts))),
            ("status", json::Value::from(self.status.as_str())),
            ("rail_held", json::Value::from(self.rail_held)),
            ("images", json::Value::from(self.images)),
            (
                "faults_fired",
                json::Value::Array(
                    self.faults_fired.iter().map(|f| json::Value::from(f.as_str())).collect(),
                ),
            ),
            ("steps_completed", json::Value::from(self.steps_completed)),
            ("error", self.error.as_deref().map(json::Value::from).unwrap_or(json::Value::Null)),
            (
                "confidence",
                json::Value::object(vec![
                    ("total_bits", json::Value::from(self.confidence.total_bits)),
                    ("unanimous", json::Value::from(self.confidence.unanimous)),
                    ("repaired", json::Value::from(self.confidence.repaired)),
                    ("unresolved", json::Value::from(self.confidence.unresolved)),
                    ("votes", json::Value::from(u64::from(self.confidence.votes))),
                ]),
            ),
        ])
    }

    /// Rebuilds a record from [`RepRecord::to_value`] output (the
    /// checkpoint-load path).
    ///
    /// Narrow fields are range-checked, not `as`-cast: a checkpoint is
    /// an on-disk file an operator (or an adversary re-sealing the CRC)
    /// can hand us, and a silently wrapped `attempts`/`votes`/`images`
    /// would resume a *wrong* campaign instead of rejecting a bad file.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Corrupt`] naming the missing, mistyped, or
    /// out-of-range field.
    pub fn from_value(v: &json::Value) -> Result<RepRecord, CampaignError> {
        let field = |k: &str| {
            v.get(k).and_then(json::Value::as_u64).ok_or_else(|| CampaignError::Corrupt {
                detail: format!("record field {k} must be a u64"),
            })
        };
        let u32_field = |k: &str| {
            field(k).and_then(|n| {
                u32::try_from(n).map_err(|_| CampaignError::Corrupt {
                    detail: format!("record field {k} out of range: {n} exceeds u32"),
                })
            })
        };
        let usize_field = |k: &str| {
            field(k).and_then(|n| {
                usize::try_from(n).map_err(|_| CampaignError::Corrupt {
                    detail: format!("record field {k} out of range: {n} exceeds usize"),
                })
            })
        };
        let status_str = v.get("status").and_then(json::Value::as_str).ok_or_else(|| {
            CampaignError::Corrupt { detail: "record field status must be a string".into() }
        })?;
        let status = RepStatus::parse(status_str).ok_or_else(|| CampaignError::Corrupt {
            detail: format!("unknown rep status {status_str:?}"),
        })?;
        let mut faults_fired = Vec::new();
        for f in v.get("faults_fired").and_then(json::Value::as_array).ok_or_else(|| {
            CampaignError::Corrupt { detail: "record field faults_fired must be an array".into() }
        })? {
            faults_fired.push(
                f.as_str()
                    .ok_or_else(|| CampaignError::Corrupt {
                        detail: "faults_fired entries must be strings".into(),
                    })?
                    .to_string(),
            );
        }
        let error = match v.get("error") {
            Some(json::Value::Null) | None => None,
            Some(e) => Some(
                e.as_str()
                    .ok_or_else(|| CampaignError::Corrupt {
                        detail: "record field error must be a string or null".into(),
                    })?
                    .to_string(),
            ),
        };
        let conf = v.get("confidence").ok_or_else(|| CampaignError::Corrupt {
            detail: "record missing confidence object".into(),
        })?;
        let conf_field = |k: &str| {
            conf.get(k).and_then(json::Value::as_u64).ok_or_else(|| CampaignError::Corrupt {
                detail: format!("confidence field {k} must be a u64"),
            })
        };
        let votes = conf_field("votes")?;
        let confidence = ConfidenceMap {
            total_bits: conf_field("total_bits")?,
            unanimous: conf_field("unanimous")?,
            repaired: conf_field("repaired")?,
            unresolved: conf_field("unresolved")?,
            votes: u32::try_from(votes).map_err(|_| CampaignError::Corrupt {
                detail: format!("confidence field votes out of range: {votes} exceeds u32"),
            })?,
        };
        let rail_held = v.get("rail_held").and_then(json::Value::as_bool).ok_or_else(|| {
            CampaignError::Corrupt { detail: "record field rail_held must be a bool".into() }
        })?;
        Ok(RepRecord {
            rep: field("rep")?,
            attempts: u32_field("attempts")?,
            status,
            rail_held,
            images: usize_field("images")?,
            faults_fired,
            steps_completed: usize_field("steps_completed")?,
            error,
            confidence,
        })
    }
}

/// Why a checkpoint could not be written, loaded, or resumed.
#[derive(Debug)]
pub enum CampaignError {
    /// Reading or writing the checkpoint file failed.
    Io(std::io::Error),
    /// The checkpoint file failed parsing, checksum, or structural
    /// validation.
    Corrupt {
        /// What is wrong with the file.
        detail: String,
    },
    /// The checkpoint belongs to a different campaign configuration.
    Mismatch {
        /// Which parameter disagrees.
        detail: String,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Io(e) => write!(f, "checkpoint i/o failed: {e}"),
            CampaignError::Corrupt { detail } => write!(f, "corrupt checkpoint: {detail}"),
            CampaignError::Mismatch { detail } => {
                write!(f, "checkpoint does not match this campaign: {detail}")
            }
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CampaignError {
    fn from(e: std::io::Error) -> Self {
        CampaignError::Io(e)
    }
}

impl From<parse::ParseError> for CampaignError {
    fn from(e: parse::ParseError) -> Self {
        CampaignError::Corrupt { detail: e.to_string() }
    }
}

/// Checkpoint schema version [`Checkpoint::to_json`] writes. Version 2
/// added the shard-range header (`shard_start` / `shard_end`) so
/// checkpoints from *different processes* can cover disjoint rep ranges
/// of one campaign and [`merge_shards`] can recombine them.
pub const CHECKPOINT_VERSION: u64 = 2;

/// The contiguous, half-open repetition range `[start, end)` a
/// checkpoint covers — the shard header that lets several *processes*
/// each run a slice of one campaign and merge afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRange {
    /// First repetition of the shard (inclusive).
    pub start: u64,
    /// One past the last repetition of the shard (exclusive).
    pub end: u64,
}

impl ShardRange {
    /// The range covering a whole `reps`-repetition campaign — what
    /// every single-process checkpoint carries.
    pub fn whole(reps: u64) -> Self {
        ShardRange { start: 0, end: reps }
    }

    /// Repetitions in the shard.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Whether the shard contains no repetitions.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

impl std::fmt::Display for ShardRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// A campaign checkpoint: everything a resumed run needs to continue
/// from repetition `next_rep` and still produce a final report that is
/// byte-identical to the uninterrupted run's — the completed records,
/// the full telemetry state (virtual clock included), and the identity
/// of the fault plan. The rendered file carries a CRC-64 over its
/// payload; loading re-verifies it.
///
/// The `shard` header records which rep range this checkpoint covers.
/// A plain run's checkpoint covers `[0, reps)`; a
/// [`Campaign::run_shard_parallel`] checkpoint covers its slice, and
/// [`merge_shards`] recombines a full set of them into one report
/// byte-identical to a single sequential run.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Seed of the fault plan that produced the records (validated on
    /// resume; the counter-mode plan needs no other state).
    pub fault_seed: u64,
    /// Total repetitions of the checkpointed campaign.
    pub reps: u64,
    /// The rep range this checkpoint's process is responsible for.
    pub shard: ShardRange,
    /// First repetition the resumed run must execute.
    pub next_rep: u64,
    /// Records of the completed repetitions of `shard`, in order.
    pub records: Vec<RepRecord>,
    /// The run's telemetry at the checkpoint.
    pub recorder: Recorder,
}

/// Writes `contents` to `path` atomically where the platform allows:
/// the bytes land in a `.tmp` sibling first and are renamed over the
/// destination, so a process killed mid-write (the crash window a
/// checkpointing campaign lives in) leaves either the old complete file
/// or the new complete file — never a torn one. If the rename fails
/// (exotic filesystems), falls back to a direct write, which the
/// CRC-64 seal still guards at load time.
fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, contents)?;
    if std::fs::rename(&tmp, path).is_err() {
        std::fs::remove_file(&tmp).ok();
        std::fs::write(path, contents)?;
    }
    Ok(())
}

impl Checkpoint {
    /// Renders the checkpoint, sealed by [`recover::seal`]: a CRC-64
    /// over the payload's compact rendering as the trailing `crc64` key.
    pub fn to_json(&self) -> String {
        recover::seal(vec![
            ("voltboot_checkpoint", json::Value::from(CHECKPOINT_VERSION)),
            ("fault_seed", json::Value::from(self.fault_seed)),
            ("reps", json::Value::from(self.reps)),
            ("shard_start", json::Value::from(self.shard.start)),
            ("shard_end", json::Value::from(self.shard.end)),
            ("next_rep", json::Value::from(self.next_rep)),
            ("records", json::Value::Array(self.records.iter().map(RepRecord::to_value).collect())),
            ("recorder", self.recorder.to_value()),
        ])
        .render_pretty()
    }

    /// Parses and verifies a checkpoint rendered by
    /// [`Checkpoint::to_json`].
    ///
    /// # Errors
    ///
    /// [`CampaignError::Corrupt`] on a parse failure, checksum mismatch,
    /// unknown version, or structural problem.
    pub fn from_json(input: &str) -> Result<Checkpoint, CampaignError> {
        let payload = recover::unseal(parse::parse(input)?)
            .map_err(|detail| CampaignError::Corrupt { detail })?;
        let field = |k: &str| {
            payload.get(k).and_then(json::Value::as_u64).ok_or_else(|| CampaignError::Corrupt {
                detail: format!("checkpoint field {k} must be a u64"),
            })
        };
        let version = field("voltboot_checkpoint")?;
        if version != CHECKPOINT_VERSION {
            return Err(CampaignError::Corrupt {
                detail: format!("unsupported checkpoint version {version}"),
            });
        }
        let reps = field("reps")?;
        let shard = ShardRange { start: field("shard_start")?, end: field("shard_end")? };
        if shard.start > shard.end || shard.end > reps {
            return Err(CampaignError::Corrupt {
                detail: format!("shard range {shard} is not a sub-range of [0, {reps})"),
            });
        }
        let mut records = Vec::new();
        for r in payload.get("records").and_then(json::Value::as_array).ok_or_else(|| {
            CampaignError::Corrupt { detail: "checkpoint records must be an array".into() }
        })? {
            records.push(RepRecord::from_value(r)?);
        }
        let next_rep = field("next_rep")?;
        if next_rep < shard.start || next_rep > shard.end {
            return Err(CampaignError::Corrupt {
                detail: format!("next_rep {next_rep} is outside the shard range {shard}"),
            });
        }
        if next_rep - shard.start != records.len() as u64 {
            return Err(CampaignError::Corrupt {
                detail: format!(
                    "next_rep {next_rep} in shard {shard} disagrees with {} stored records",
                    records.len()
                ),
            });
        }
        // Every stored record must sit at its claimed rep index — a
        // re-sealed checkpoint with shuffled or duplicated records must
        // fail loudly, never resume into a silently-wrong report.
        for (i, r) in records.iter().enumerate() {
            let want = shard.start + i as u64;
            if r.rep != want {
                return Err(CampaignError::Corrupt {
                    detail: format!("record {i} claims rep {}, expected rep {want}", r.rep),
                });
            }
        }
        let recorder = Recorder::from_value(payload.get("recorder").ok_or_else(|| {
            CampaignError::Corrupt { detail: "checkpoint missing recorder state".into() }
        })?)?;
        Ok(Checkpoint {
            fault_seed: field("fault_seed")?,
            reps,
            shard,
            next_rep,
            records,
            recorder,
        })
    }

    /// Writes the checkpoint to `path` (atomically, via a `.tmp`
    /// sibling and rename, so a kill mid-write never tears the file).
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] when the write fails.
    pub fn save(&self, path: &Path) -> Result<(), CampaignError> {
        write_atomic(path, &self.to_json()).map_err(CampaignError::Io)
    }

    /// Loads and verifies a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] when the read fails, or with
    /// [`std::io::ErrorKind::InvalidInput`] when `path` is not a regular
    /// file; the [`Checkpoint::from_json`] classes otherwise.
    pub fn load(path: &Path) -> Result<Checkpoint, CampaignError> {
        use std::io::Read;
        // Stat before opening: opening a FIFO blocks until a writer
        // comes, and a device such as /dev/zero never reaches EOF.
        if !std::fs::metadata(path)?.is_file() {
            return Err(CampaignError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("{} is not a regular file", path.display()),
            )));
        }
        // The open handle pins one inode, so its length stays right for
        // what it reads even if `write_atomic` renames a new checkpoint
        // into place after the stat.
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        let mut text = String::new();
        file.take(len).read_to_string(&mut text)?;
        Checkpoint::from_json(&text)
    }
}

/// Shared state between the parallel scheduler's workers and its
/// merger: finished reps not yet absorbed, keyed by rep index, plus the
/// count of workers still running (so the merger never waits on a dead
/// pool).
struct MergeState {
    ready: BTreeMap<u64, (RepRecord, Recorder)>,
    live_workers: usize,
}

/// Drop guard a worker holds for its whole run: on any exit — normal or
/// panic — it decrements the live-worker count and wakes the merger.
struct WorkerExit<'a> {
    state: &'a Mutex<MergeState>,
    wake: &'a Condvar,
}

impl Drop for WorkerExit<'_> {
    fn drop(&mut self) {
        // Recover a poisoned lock instead of skipping the decrement: if
        // a sibling worker panicked while holding the scheduler mutex,
        // an `if let Ok(..)` here would leave `live_workers` forever
        // overstated and park the merger on a condvar nobody will ever
        // signal again. `MergeState` is a map insert plus a counter —
        // both consistent at every panic point — so recovery is safe.
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.live_workers -= 1;
        drop(st);
        self.wake.notify_all();
    }
}

/// A campaign: one attack, one fault plan, N repetitions.
#[derive(Debug, Clone)]
pub struct Campaign {
    attack: VoltBootAttack,
    plan: FaultPlan,
    reps: u64,
    retry: RetryPolicy,
    deadline_ns: Option<u64>,
    progress: Option<Arc<AtomicU64>>,
}

impl Campaign {
    /// Creates a campaign running `attack` `reps` times under `plan`.
    pub fn new(attack: VoltBootAttack, plan: FaultPlan, reps: u64) -> Self {
        Campaign {
            attack,
            plan,
            reps,
            retry: RetryPolicy::default(),
            deadline_ns: None,
            progress: None,
        }
    }

    /// Overrides the retry policy (builder style).
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets a per-repetition virtual-clock deadline: once a repetition's
    /// retries (attack time plus backoff) push its elapsed virtual time
    /// past `ns`, it stops retrying and records [`RepStatus::TimedOut`]
    /// with the last attempt's partial outcome.
    pub fn deadline_ns(mut self, ns: u64) -> Self {
        self.deadline_ns = Some(ns);
        self
    }

    /// Attaches a live progress counter: the runner adds one for every
    /// merged repetition, and a resumed checkpoint's count up front. The
    /// counter is a relaxed atomic and advisory — it feeds progress
    /// lines, never reports — so observing a campaign cannot perturb its
    /// deterministic output.
    pub fn observe(mut self, progress: Arc<AtomicU64>) -> Self {
        self.progress = Some(progress);
        self
    }

    /// An empty checkpoint over `shard`: where a fresh run of those
    /// repetitions starts.
    pub fn fresh(&self, shard: ShardRange) -> Checkpoint {
        Checkpoint {
            fault_seed: self.plan.seed(),
            reps: self.reps,
            shard,
            next_rep: shard.start,
            records: Vec::new(),
            recorder: Recorder::new(),
        }
    }

    /// Runs the campaign. `victim` builds a fresh, fully-prepared SoC
    /// (powered on, victim software run) for every attempt; it receives
    /// the repetition index so a campaign can vary the victim per rep
    /// while staying deterministic.
    ///
    /// Never panics on attempt failures: a repetition whose attempts are
    /// exhausted records a partial outcome and the campaign moves on.
    /// This is the runner's one-worker path over a fresh whole-campaign
    /// checkpoint; unlike [`Campaign::run_from`] it takes an `FnMut`
    /// victim, since no other thread calls it.
    pub fn run(&self, victim: impl FnMut(u64) -> Soc) -> CampaignResult {
        self.run_one_worker(self.fresh(ShardRange::whole(self.reps)), self.reps, None, victim)
            .expect("no checkpoint path, no i/o to fail")
    }

    /// [`Campaign::run`] with repetitions sharded across `threads`
    /// worker threads: [`Campaign::run_from`] over a fresh whole-campaign
    /// checkpoint, saving nothing. The report is byte-identical to
    /// [`Campaign::run`]'s.
    pub fn run_parallel(
        &self,
        threads: usize,
        victim: impl Fn(u64) -> Soc + Sync,
    ) -> CampaignResult {
        self.run_from(threads, self.fresh(ShardRange::whole(self.reps)), None, None, victim)
            .expect("a fresh checkpoint matches its campaign, and no path means no i/o")
    }

    /// Runs only the repetitions in `shard`, from scratch, saving the
    /// checkpoint to `path` after every merged rep (overwriting what
    /// `path` held): [`Campaign::run_from`] over a fresh checkpoint. A
    /// full set of shard checkpoints recombines through
    /// [`merge_shards`] into a report byte-identical to one
    /// [`Campaign::run`] over the whole campaign.
    ///
    /// # Errors
    ///
    /// As [`Campaign::run_from`].
    pub fn run_shard_parallel(
        &self,
        threads: usize,
        shard: ShardRange,
        path: impl AsRef<Path>,
        victim: impl Fn(u64) -> Soc + Sync,
    ) -> Result<CampaignResult, CampaignError> {
        self.run_from(threads, self.fresh(shard), None, Some(path.as_ref()), victim)
    }

    /// The campaign runner. Its state is a [`Checkpoint`]: a fresh run
    /// starts from [`Campaign::fresh`], a resume from
    /// [`Checkpoint::load`]. It runs repetitions `from.next_rep` up to
    /// the end of `from.shard`, or up to `stop` when that comes first
    /// (a partial run, as a killed process leaves it), and returns the
    /// checkpoint's final records and telemetry.
    ///
    /// After every merged rep one commit step runs: absorb the worker's
    /// sub-recorder, push the record, tick the [`Campaign::observe`]
    /// counter, and save the checkpoint to `path` if one is set. Only
    /// fully-merged rep prefixes are saved, so a checkpoint written at
    /// one thread count resumes under any other; in-flight reps simply
    /// re-run. A resumed checkpoint's reps are credited to the
    /// progress counter before the first new rep runs.
    ///
    /// The scheduler is deterministic whatever `threads` says: each
    /// rep draws its faults from the counter-mode plan's per-rep
    /// sub-stream ([`FaultPlan::rep_stream`]) and records into a forked
    /// virtual-clock sub-recorder (`Recorder::fork`) that the merger
    /// absorbs strictly in rep order, so the result, its report and
    /// every saved checkpoint are **byte-identical** to the one-worker
    /// path's, which records straight into the checkpoint's recorder.
    /// `victim` is called concurrently and must be a pure function of
    /// the rep index.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Mismatch`] when `from`'s fault seed or rep count
    /// differs from this campaign's or its shard is not a sub-range of
    /// `[0, reps)`; [`CampaignError::Io`] when a checkpoint save fails.
    pub fn run_from(
        &self,
        threads: usize,
        from: Checkpoint,
        stop: Option<u64>,
        path: Option<&Path>,
        victim: impl Fn(u64) -> Soc + Sync,
    ) -> Result<CampaignResult, CampaignError> {
        if from.fault_seed != self.plan.seed() {
            return Err(CampaignError::Mismatch {
                detail: format!(
                    "fault seed {} in checkpoint, {} in campaign",
                    from.fault_seed,
                    self.plan.seed()
                ),
            });
        }
        if from.reps != self.reps {
            return Err(CampaignError::Mismatch {
                detail: format!("{} reps in checkpoint, {} in campaign", from.reps, self.reps),
            });
        }
        let shard = from.shard;
        if shard.start > shard.end || shard.end > self.reps {
            return Err(CampaignError::Mismatch {
                detail: format!(
                    "shard {shard} is not a sub-range of this campaign's [0, {})",
                    self.reps
                ),
            });
        }
        if let Some(p) = &self.progress {
            p.fetch_add(from.records.len() as u64, Ordering::Relaxed);
        }
        let end = stop.map_or(shard.end, |stop| stop.min(shard.end));
        let pending = end.saturating_sub(from.next_rep);
        let workers = threads.clamp(1, pending.clamp(1, 1024) as usize);
        if workers <= 1 {
            return self.run_one_worker(from, end, path, victim);
        }
        self.run_workers(workers, from, end, path, &victim)
    }

    /// The commit step that follows every merged rep (see
    /// [`Campaign::run_from`]). `sub` is the worker's sub-recorder; the
    /// one-worker path recorded in place and passes none.
    fn commit(
        &self,
        cp: &mut Checkpoint,
        record: RepRecord,
        sub: Option<&Recorder>,
        path: Option<&Path>,
    ) -> Result<(), CampaignError> {
        if let Some(sub) = sub {
            cp.recorder.absorb(sub);
        }
        cp.records.push(record);
        cp.next_rep += 1;
        if let Some(p) = &self.progress {
            p.fetch_add(1, Ordering::Relaxed);
        }
        path.map_or(Ok(()), |path| cp.save(path))
    }

    /// The runner's one-worker path: every rep records straight into
    /// the checkpoint's recorder, with no fork or absorb. It is the
    /// reference the worker pool is held to.
    fn run_one_worker(
        &self,
        mut cp: Checkpoint,
        end: u64,
        path: Option<&Path>,
        mut victim: impl FnMut(u64) -> Soc,
    ) -> Result<CampaignResult, CampaignError> {
        // Cap the pre-allocation: `reps` is attacker-controlled config
        // and a huge ask must not allocate gigabytes up front.
        cp.records.reserve(end.saturating_sub(cp.next_rep).min(1024) as usize);
        while cp.next_rep < end {
            let record = self.run_rep_contained(cp.next_rep, &cp.recorder, &mut victim);
            self.commit(&mut cp, record, None, path)?;
        }
        Ok(CampaignResult {
            plan: self.plan,
            reps: self.reps,
            records: cp.records,
            recorder: cp.recorder,
        })
    }

    /// The runner's worker pool.
    ///
    /// Workers claim repetition indices from a shared atomic counter
    /// (work stealing in its simplest form: a fast rep frees its worker
    /// to claim the next one immediately), run each claimed rep against
    /// a forked sub-recorder, and post `(rep, record, sub)` into a
    /// results map. The calling thread is the merger: it commits
    /// results strictly in rep order, which rebuilds the exact counter,
    /// event, and clock state the one-worker path would have.
    ///
    /// Worker panics cannot deadlock the merger: a drop guard
    /// decrements the live-worker count and wakes the merger, which
    /// stops waiting for reps that will never arrive and lets the scope
    /// propagate the panic. A failed save stops the hand-out of new
    /// reps; workers finish what they claimed and the error returns.
    fn run_workers(
        &self,
        workers: usize,
        mut cp: Checkpoint,
        end: u64,
        path: Option<&Path>,
        victim: &(impl Fn(u64) -> Soc + Sync),
    ) -> Result<CampaignResult, CampaignError> {
        cp.records.reserve(end.saturating_sub(cp.next_rep).min(1024) as usize);
        // Rep-level and word-level parallelism share one conceptual
        // pool: each worker's inner fan-out gets an equal slice of the
        // machine instead of multiplying it.
        let inner_budget = (par::thread_count() / workers).max(1);
        let next = AtomicU64::new(cp.next_rep);
        let state = Mutex::new(MergeState { ready: BTreeMap::new(), live_workers: workers });
        let merged_one = Condvar::new();
        // A handle on the checkpoint's recorder for the workers to fork
        // from (a fork reads only its retention caps), so the merger
        // keeps the checkpoint to itself.
        let root = cp.recorder.clone();
        let mut saved = Ok(());
        // Scheduler-lock discipline: every acquisition recovers from
        // poisoning (`MergeState` is a map insert plus a counter, both
        // consistent at any panic point). A long-running daemon cannot
        // afford one panicked worker turning every later lock into an
        // abort — and rep panics themselves are already contained by
        // `run_rep_contained`, so poisoning here means something worse
        // (e.g. an allocation failure inside the merge map).
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    let _exit = WorkerExit { state: &state, wake: &merged_one };
                    loop {
                        let rep = next.fetch_add(1, Ordering::Relaxed);
                        if rep >= end {
                            break;
                        }
                        let sub = root.fork();
                        let record = par::with_budget(inner_budget, || {
                            self.run_rep_contained(rep, &sub, &mut |r| victim(r))
                        });
                        let mut st = state.lock().unwrap_or_else(PoisonError::into_inner);
                        st.ready.insert(rep, (record, sub));
                        merged_one.notify_all();
                    }
                });
            }
            while cp.next_rep < end {
                let entry = {
                    let mut st = state.lock().unwrap_or_else(PoisonError::into_inner);
                    loop {
                        if let Some(e) = st.ready.remove(&cp.next_rep) {
                            break Some(e);
                        }
                        if st.live_workers == 0 {
                            break None;
                        }
                        st = merged_one.wait(st).unwrap_or_else(PoisonError::into_inner);
                    }
                };
                let Some((record, sub)) = entry else {
                    // A worker died without posting this rep; stop
                    // merging and let the scope propagate its panic.
                    break;
                };
                saved = self.commit(&mut cp, record, Some(&sub), path);
                if saved.is_err() {
                    next.store(end, Ordering::Relaxed);
                    break;
                }
            }
        });
        saved?;
        Ok(CampaignResult {
            plan: self.plan,
            reps: self.reps,
            records: cp.records,
            recorder: cp.recorder,
        })
    }

    /// [`Campaign::run_rep`] with panic containment: a repetition whose
    /// attack, victim factory, or telemetry panics becomes a
    /// [`RepStatus::Failed`] record carrying the panic message — the
    /// campaign (and the daemon above it) keeps running. Containment is
    /// applied on the one-worker path and inside every pool worker
    /// alike, so a deterministic panic degrades the same rep to the
    /// same record at any thread count and reports stay byte-identical.
    fn run_rep_contained(
        &self,
        rep: u64,
        rec: &Recorder,
        victim: &mut impl FnMut(u64) -> Soc,
    ) -> RepRecord {
        let started = std::time::Instant::now();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run_rep(rep, rec, victim)
        }));
        let record = match caught {
            Ok(record) => record,
            Err(payload) => {
                let msg = panic_detail(payload.as_ref());
                // The rep's partially-recorded telemetry (advanced
                // clock, closed-by-unwind spans) stays — it is identical
                // on the sequential and forked paths, and the poison
                // recovery in the telemetry store keeps it writable.
                rec.incr("campaign.rep_panics", 1);
                rec.incr("campaign.failures", 1);
                rec.event("campaign.rep_panicked", &format!("rep {rep}: {msg}"));
                RepRecord {
                    rep,
                    attempts: 0,
                    status: RepStatus::Failed,
                    rail_held: false,
                    images: 0,
                    faults_fired: Vec::new(),
                    steps_completed: 0,
                    error: Some(format!("worker panicked: {msg}")),
                    confidence: ConfidenceMap::default(),
                }
            }
        };
        observe_rep_metrics(record.status, started.elapsed());
        record
    }

    fn run_rep(&self, rep: u64, rec: &Recorder, victim: &mut impl FnMut(u64) -> Soc) -> RepRecord {
        let span = rec.span("campaign.rep");
        rec.incr("campaign.reps", 1);
        let rep_started_ns = rec.now_ns();
        let max_attempts = self.retry.max_attempts.max(1);
        let mut faults_fired: Vec<String> = Vec::new();
        let mut record = None;
        // This rep's split of the fault plan: stateless, so reps can run
        // in any order (or concurrently) with identical draws.
        let faults_of = self.plan.rep_stream(rep);

        for attempt in 0..max_attempts {
            rec.incr("campaign.attempts", 1);
            let faults = faults_of.draw(attempt);
            faults_fired.extend(faults.fired().iter().map(|s| s.to_string()));

            let mut soc = victim(rep);
            let ctx = AttackContext { recorder: rec.clone(), faults };
            match self.attack.execute_in(&mut soc, &ctx) {
                Ok(outcome) => {
                    let clean = !faults.any() && outcome.rail_held;
                    record = Some(RepRecord {
                        rep,
                        attempts: attempt + 1,
                        status: if clean { RepStatus::Success } else { RepStatus::Degraded },
                        rail_held: outcome.rail_held,
                        images: outcome.images.len(),
                        faults_fired: Vec::new(),
                        steps_completed: outcome.steps.len(),
                        error: None,
                        confidence: outcome.confidence_total(),
                    });
                    break;
                }
                Err(failure) => {
                    rec.event(
                        "campaign.attempt_failed",
                        &format!("rep {rep} attempt {attempt}: {failure}"),
                    );
                    if attempt + 1 < max_attempts {
                        rec.incr("campaign.retries", 1);
                        // Doubling virtual backoff between attempts.
                        rec.advance(self.retry.backoff_ns(attempt));
                        if let Some(deadline) = self.deadline_ns {
                            if rec.now_ns().saturating_sub(rep_started_ns) > deadline {
                                rec.event(
                                    "campaign.rep_timed_out",
                                    &format!(
                                        "rep {rep} past its {deadline} ns deadline after {} attempts",
                                        attempt + 1
                                    ),
                                );
                                record = Some(RepRecord {
                                    rep,
                                    attempts: attempt + 1,
                                    status: RepStatus::TimedOut,
                                    rail_held: false,
                                    images: 0,
                                    faults_fired: Vec::new(),
                                    steps_completed: failure.steps.len(),
                                    error: Some(failure.error.to_string()),
                                    confidence: ConfidenceMap::default(),
                                });
                                break;
                            }
                        }
                    } else {
                        // Retries exhausted: keep the partial outcome.
                        record = Some(RepRecord {
                            rep,
                            attempts: max_attempts,
                            status: RepStatus::Failed,
                            rail_held: false,
                            images: 0,
                            faults_fired: Vec::new(),
                            steps_completed: failure.steps.len(),
                            error: Some(failure.error.to_string()),
                            confidence: ConfidenceMap::default(),
                        });
                    }
                }
            }
        }

        let mut record = record.expect("every rep produces a record");
        record.faults_fired = faults_fired;
        match record.status {
            RepStatus::Success => rec.incr("campaign.successes", 1),
            RepStatus::Degraded => rec.incr("campaign.degraded", 1),
            RepStatus::Failed => rec.incr("campaign.failures", 1),
            RepStatus::TimedOut => rec.incr("campaign.timed_out", 1),
        }
        // Distribution views of the campaign: per-rep virtual latency
        // and attempts-to-outcome, plus a rolling progress gauge. All
        // recorded on the rep's (forked) recorder, so the merged
        // histograms match a sequential run exactly.
        rec.record("campaign.rep_ns", rec.now_ns().saturating_sub(rep_started_ns));
        rec.record("campaign.attempts_per_rep", u64::from(record.attempts));
        rec.gauge("campaign.last_rep", rep as f64);
        span.attr("rep", rep);
        span.attr("attempts", record.attempts);
        span.attr("status", record.status.as_str());
        span.attr("images", record.images);
        span.end();
        record
    }
}

/// Renders a panic payload's message (the `&str` / `String` carried by
/// `panic!`) for the degraded rep record.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The campaign report document shared by [`CampaignResult::to_value`]
/// and [`ShardMerge::to_value`]: summary counts derive from the records,
/// so two equal `(fault_seed, reps, records, recorder)` quadruples
/// render byte-identically however they were produced.
fn report_value(
    fault_seed: u64,
    reps: u64,
    records: &[RepRecord],
    recorder: &Recorder,
) -> json::Value {
    let count = |status: RepStatus| records.iter().filter(|r| r.status == status).count();
    let mut confidence = ConfidenceMap::default();
    for r in records {
        confidence.absorb(&r.confidence);
    }
    let summary = json::Value::object(vec![
        ("reps", json::Value::from(reps)),
        ("successes", json::Value::from(count(RepStatus::Success))),
        ("degraded", json::Value::from(count(RepStatus::Degraded))),
        ("failures", json::Value::from(count(RepStatus::Failed))),
        ("timed_out", json::Value::from(count(RepStatus::TimedOut))),
        ("bits_repaired", json::Value::from(confidence.repaired)),
        ("bits_unresolved", json::Value::from(confidence.unresolved)),
    ]);
    let rendered: Vec<json::Value> = records.iter().map(RepRecord::to_value).collect();
    json::Value::object(vec![
        ("fault_seed", json::Value::from(fault_seed)),
        ("summary", summary),
        ("records", json::Value::Array(rendered)),
        ("telemetry", recorder.to_value()),
    ])
}

/// A full campaign reassembled from per-process shard checkpoints; see
/// [`merge_shards`].
#[derive(Debug, Clone)]
pub struct ShardMerge {
    /// Seed shared by every merged shard.
    pub fault_seed: u64,
    /// Total campaign repetitions the shards cover.
    pub reps: u64,
    /// All records, in rep order (`records[i].rep == i`).
    pub records: Vec<RepRecord>,
    /// The shard recorders absorbed in rep order — the exact telemetry
    /// state one sequential run over `[0, reps)` would have.
    pub recorder: Recorder,
}

impl ShardMerge {
    /// The merged report as a JSON value — byte-identical to
    /// [`CampaignResult::to_value`] of one sequential run over the
    /// whole campaign.
    pub fn to_value(&self) -> json::Value {
        report_value(self.fault_seed, self.reps, &self.records, &self.recorder)
    }

    /// [`ShardMerge::to_value`] rendered as pretty JSON.
    pub fn to_json(&self) -> String {
        self.to_value().render_pretty()
    }
}

/// Merges a complete set of shard checkpoints — written by separate
/// [`Campaign::run_shard_parallel`] *processes* — back into one
/// campaign whose report is byte-identical to a single sequential
/// [`Campaign::run`] over `[0, reps)`.
///
/// The merge is pure recombination: records concatenate in shard order
/// and each shard's recorder is absorbed into a fresh one, which is the
/// same fork/absorb splice the in-process parallel scheduler uses — so
/// cross-process merges inherit the scheduler's byte-identity
/// guarantee. Shards may be passed in any order; they are sorted by
/// their range.
///
/// # Errors
///
/// [`CampaignError::Corrupt`] / [`CampaignError::Io`] for unloadable
/// files; [`CampaignError::Mismatch`] when the shards disagree on seed
/// or rep count, overlap, leave a gap, are incomplete (killed before
/// finishing their range — resume them first), or fail to cover
/// `[0, reps)` exactly.
pub fn merge_shards<P: AsRef<Path>>(paths: &[P]) -> Result<ShardMerge, CampaignError> {
    if paths.is_empty() {
        return Err(CampaignError::Mismatch { detail: "no shard checkpoints to merge".into() });
    }
    let mut shards = Vec::with_capacity(paths.len());
    for p in paths {
        let p = p.as_ref();
        shards.push((p.display().to_string(), Checkpoint::load(p)?));
    }
    shards.sort_by_key(|(_, cp)| (cp.shard.start, cp.shard.end));
    let fault_seed = shards[0].1.fault_seed;
    let reps = shards[0].1.reps;
    let recorder = Recorder::new();
    let mut records = Vec::new();
    let mut covered = 0u64;
    for (name, cp) in &shards {
        if cp.fault_seed != fault_seed {
            return Err(CampaignError::Mismatch {
                detail: format!(
                    "shard {name} has fault seed {}, other shards have {fault_seed}",
                    cp.fault_seed
                ),
            });
        }
        if cp.reps != reps {
            return Err(CampaignError::Mismatch {
                detail: format!("shard {name} is from a {} rep campaign, not {reps}", cp.reps),
            });
        }
        if cp.next_rep != cp.shard.end {
            return Err(CampaignError::Mismatch {
                detail: format!(
                    "shard {name} is incomplete: finished up to rep {} of its range {} — \
                     resume it before merging",
                    cp.next_rep, cp.shard
                ),
            });
        }
        if cp.shard.start != covered {
            return Err(CampaignError::Mismatch {
                detail: format!(
                    "shard {name} covers {} but reps [{covered}, {}) are {}",
                    cp.shard,
                    cp.shard.start,
                    if cp.shard.start > covered { "missing" } else { "already covered" },
                ),
            });
        }
        covered = cp.shard.end;
        records.extend(cp.records.iter().cloned());
        recorder.absorb(&cp.recorder);
    }
    if covered != reps {
        return Err(CampaignError::Mismatch {
            detail: format!("shards cover only [0, {covered}) of the campaign's [0, {reps})"),
        });
    }
    Ok(ShardMerge { fault_seed, reps, records, recorder })
}

/// Everything a campaign run produced.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The plan the campaign ran under.
    pub plan: FaultPlan,
    /// Requested repetitions.
    pub reps: u64,
    /// One record per repetition, in order.
    pub records: Vec<RepRecord>,
    /// The run's telemetry (spans, counters, events, virtual clock).
    pub recorder: Recorder,
}

impl CampaignResult {
    /// Repetitions that ended with the given status.
    pub fn count(&self, status: RepStatus) -> usize {
        self.records.iter().filter(|r| r.status == status).count()
    }

    /// Aggregate vote confidence across every repetition's images.
    pub fn confidence_total(&self) -> ConfidenceMap {
        let mut total = ConfidenceMap::default();
        for r in &self.records {
            total.absorb(&r.confidence);
        }
        total
    }

    /// The machine-readable report as a JSON value. Deterministic: equal
    /// seeds produce byte-identical renderings.
    pub fn to_value(&self) -> json::Value {
        report_value(self.plan.seed(), self.reps, &self.records, &self.recorder)
    }

    /// The report rendered as pretty JSON (stable key order, trailing
    /// newline).
    pub fn to_json(&self) -> String {
        self.to_value().render_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let retry = RetryPolicy { max_attempts: 70, initial_backoff_ns: 50_000_000 };
        assert_eq!(retry.backoff_ns(0), 50_000_000);
        assert_eq!(retry.backoff_ns(1), 100_000_000);
        let mut last = 0;
        for attempt in 0..70 {
            let b = retry.backoff_ns(attempt); // must not panic or wrap
            assert!(b >= last, "backoff must be monotone, attempt {attempt}");
            last = b;
        }
        assert_eq!(retry.backoff_ns(63), u64::MAX, "shift past 63 saturates");
        assert_eq!(retry.backoff_ns(69), u64::MAX);
        let zero = RetryPolicy { max_attempts: 70, initial_backoff_ns: 0 };
        assert_eq!(zero.backoff_ns(69), 0, "zero base stays zero at any attempt");
    }

    #[test]
    fn rep_status_strings_roundtrip() {
        for s in [RepStatus::Success, RepStatus::Degraded, RepStatus::Failed, RepStatus::TimedOut] {
            assert_eq!(RepStatus::parse(s.as_str()), Some(s));
        }
        assert_eq!(RepStatus::parse("nope"), None);
    }

    fn sample_records() -> Vec<RepRecord> {
        vec![
            RepRecord {
                rep: 0,
                attempts: 1,
                status: RepStatus::Success,
                rail_held: true,
                images: 8,
                faults_fired: vec!["brownout".into()],
                steps_completed: 5,
                error: None,
                confidence: ConfidenceMap {
                    total_bits: 10,
                    unanimous: 9,
                    repaired: 1,
                    unresolved: 0,
                    votes: 3,
                },
            },
            RepRecord {
                rep: 1,
                attempts: 3,
                status: RepStatus::TimedOut,
                rail_held: false,
                images: 0,
                faults_fired: vec![],
                steps_completed: 4,
                error: Some("extraction denied: flaky port".into()),
                confidence: ConfidenceMap::default(),
            },
        ]
    }

    #[test]
    fn rep_records_roundtrip_through_json() {
        for record in sample_records() {
            let back = RepRecord::from_value(&record.to_value()).unwrap();
            assert_eq!(back, record);
        }
        assert!(RepRecord::from_value(&json::Value::Null).is_err());
    }

    #[test]
    fn checkpoint_roundtrips_and_detects_corruption() {
        let rec = Recorder::new();
        rec.incr("campaign.reps", 2);
        rec.advance(1234);
        let cp = Checkpoint {
            fault_seed: 7,
            reps: 6,
            shard: ShardRange::whole(6),
            next_rep: 2,
            records: sample_records(),
            recorder: rec,
        };
        let text = cp.to_json();
        let back = Checkpoint::from_json(&text).unwrap();
        assert_eq!(back.records, cp.records);
        assert_eq!(back.next_rep, 2);
        assert_eq!(back.reps, 6);
        assert_eq!(back.recorder.to_json(), cp.recorder.to_json());
        assert_eq!(back.to_json(), text, "reload + re-render is byte-identical");

        // A payload edit trips the checksum.
        let tampered = text.replace("\"images\": 8", "\"images\": 9");
        assert_ne!(tampered, text, "tamper target must exist");
        assert!(matches!(
            Checkpoint::from_json(&tampered),
            Err(CampaignError::Corrupt { detail }) if detail.contains("checksum")
        ));
        // Structural garbage is rejected, not panicked on.
        assert!(matches!(Checkpoint::from_json("[]"), Err(CampaignError::Corrupt { .. })));
        assert!(Checkpoint::from_json("{").is_err());
    }

    #[test]
    fn checkpoint_rejects_inconsistent_next_rep() {
        let cp = Checkpoint {
            fault_seed: 7,
            reps: 6,
            shard: ShardRange::whole(6),
            next_rep: 5, // but only 2 records
            records: sample_records(),
            recorder: Recorder::new(),
        };
        assert!(matches!(
            Checkpoint::from_json(&cp.to_json()),
            Err(CampaignError::Corrupt { detail }) if detail.contains("next_rep")
        ));
    }

    #[test]
    fn shard_checkpoints_roundtrip_and_validate_their_range() {
        let mut records = sample_records();
        records[0].rep = 4;
        records[1].rep = 5;
        let cp = Checkpoint {
            fault_seed: 7,
            reps: 8,
            shard: ShardRange { start: 4, end: 6 },
            next_rep: 6,
            records,
            recorder: Recorder::new(),
        };
        let back = Checkpoint::from_json(&cp.to_json()).unwrap();
        assert_eq!(back.shard, ShardRange { start: 4, end: 6 });
        assert_eq!(back.next_rep, 6);

        // A shard range escaping [0, reps) is rejected.
        let mut escaped = cp.clone();
        escaped.shard = ShardRange { start: 4, end: 9 };
        assert!(matches!(
            Checkpoint::from_json(&escaped.to_json()),
            Err(CampaignError::Corrupt { detail }) if detail.contains("sub-range")
        ));

        // next_rep outside the shard is rejected.
        let mut outside = cp.clone();
        outside.next_rep = 3;
        assert!(matches!(
            Checkpoint::from_json(&outside.to_json()),
            Err(CampaignError::Corrupt { detail }) if detail.contains("outside the shard")
        ));

        // Records whose rep index disagrees with their slot are
        // rejected — a re-sealed shuffle must not resume.
        let mut shuffled = cp.clone();
        shuffled.records.swap(0, 1);
        assert!(matches!(
            Checkpoint::from_json(&shuffled.to_json()),
            Err(CampaignError::Corrupt { detail }) if detail.contains("claims rep")
        ));
    }

    #[test]
    fn narrow_record_fields_reject_out_of_range_values() {
        // A record whose u32-typed fields overflow must fail typed, not
        // wrap: 2^32 + 3 used to silently load as attempts == 3.
        let mut v = sample_records()[0].to_value();
        let json::Value::Object(ref mut pairs) = v else { unreachable!() };
        for (k, val) in pairs.iter_mut() {
            if k == "attempts" {
                *val = json::Value::from(u64::from(u32::MAX) + 3);
            }
        }
        assert!(matches!(
            RepRecord::from_value(&v),
            Err(CampaignError::Corrupt { detail })
                if detail.contains("attempts") && detail.contains("out of range")
        ));

        // Non-integral numbers never pass as u64 fields.
        let mut frac = sample_records()[0].to_value();
        let json::Value::Object(ref mut pairs) = frac else { unreachable!() };
        for (k, val) in pairs.iter_mut() {
            if k == "images" {
                *val = json::Value::Float(8.5);
            }
        }
        assert!(matches!(
            RepRecord::from_value(&frac),
            Err(CampaignError::Corrupt { detail }) if detail.contains("images")
        ));
    }
}
