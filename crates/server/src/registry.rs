//! The job registry: owns every submitted sweep, the FIFO queue, and
//! the executor pool that drains it.
//!
//! Everything here is built to outlive misbehaving jobs *and* the
//! daemon itself. Executors run each campaign under `catch_unwind`, so
//! a panicking job lands in [`JobState::Failed`] instead of killing
//! its executor; every shared lock recovers from poisoning (the state
//! it guards is written in single `=` assignments, consistent at every
//! panic point); live progress is read from each job's lock-free
//! rep counter, so a `WATCH`ing client never touches a lock a worker
//! could poison.
//!
//! With a state directory configured ([`RegistryConfig::state_dir`]),
//! the registry is also *durable*: every lifecycle transition is
//! written through the CRC-sealed [`Journal`](crate::journal::Journal)
//! before the in-memory table reflects it, finished reports persist as
//! `job-<id>.report.json`, and running jobs checkpoint under the same
//! directory. [`Registry::with_config`] replays the journal on
//! startup, re-queues every interrupted job, and the executor resumes
//! each one from its newest valid checkpoint — discarding a corrupt
//! one rather than wedging — so a daemon killed mid-campaign restarts
//! into byte-identical reports.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use voltboot::campaign::{Checkpoint, ShardRange};
use voltboot_telemetry::metrics::{self, Counter, Gauge, LatencyHist, MetricsRegistry};

use crate::journal::{Journal, JournalError, JournalEvent};
use crate::spec::SweepSpec;
use crate::supervisor::{self, SupervisorConfig};

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for an executor.
    Queued,
    /// An executor is running its campaign.
    Running,
    /// Finished; the rendered report is held by the registry.
    Done,
    /// The campaign errored or its worker panicked; the detail is a
    /// one-line, protocol-safe message.
    Failed(String),
}

impl JobState {
    /// Protocol token for `STATUS` / `DONE` lines.
    pub fn token(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed(_) => "failed",
        }
    }

    /// Whether the job will never change state again.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done | JobState::Failed(_))
    }
}

/// One submitted job.
struct Job {
    spec: SweepSpec,
    state: JobState,
    /// The rendered report once [`JobState::Done`].
    report: Option<String>,
    /// Reps merged so far: a relaxed atomic bumped by the campaign's
    /// merger thread or credited by the shard supervisor.
    done: Arc<AtomicU64>,
    /// Reps the job runs in total.
    total: u64,
    /// Wall-clock enqueue instant, for the claim-latency histogram.
    /// Out-of-band: never feeds the deterministic report surface.
    queued_at: Instant,
}

impl Job {
    /// A job waiting for an executor, with no rep merged yet.
    fn queued(spec: SweepSpec) -> Self {
        Job {
            total: spec.reps,
            spec,
            state: JobState::Queued,
            report: None,
            done: Arc::default(),
            queued_at: Instant::now(),
        }
    }
}

/// A point-in-time view of one job, safe to hand to protocol handlers.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// The job's id.
    pub id: u64,
    /// Lifecycle state at the instant of the snapshot.
    pub state: JobState,
    /// Reps merged so far.
    pub done: u64,
    /// Reps the job will run in total.
    pub total: u64,
}

/// How a registry persists and dispatches jobs.
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Directory for the job journal, per-job checkpoints, and
    /// finished reports. `None` runs fully in-memory (nothing
    /// survives a restart).
    pub state_dir: Option<PathBuf>,
    /// Supervision parameters for jobs submitted with `shards=K`.
    pub supervise: SupervisorConfig,
    /// `HEALTH` readiness threshold: more queued jobs than this flips
    /// the daemon to not-ready (it keeps accepting work — readiness is
    /// advisory backpressure, not admission control).
    pub ready_queue_max: u64,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            state_dir: None,
            supervise: SupervisorConfig::default(),
            ready_queue_max: 1024,
        }
    }
}

/// Prometheus family names for the daemon's own metrics registry, one
/// place so `STATS`, `HEALTH`, tests, and the dashboard agree.
pub mod names {
    /// Connections accepted since start (counter).
    pub const CONNECTIONS: &str = "voltboot_server_connections_total";
    /// Connection handler threads currently alive (gauge).
    pub const CONNECTIONS_ACTIVE: &str = "voltboot_server_connections_active";
    /// Connections dropped by a read/write timeout (counter).
    pub const CONN_TIMEOUTS: &str = "voltboot_server_conn_timeouts_total";
    /// Command lines rejected for exceeding the length bound (counter).
    pub const LINE_OVERFLOWS: &str = "voltboot_server_line_overflows_total";
    /// Per-verb service latency in nanoseconds (summary).
    pub const VERB_LATENCY: &str = "voltboot_server_verb_latency_ns";
    /// Jobs accepted, labelled by platform (counter).
    pub const JOBS_SUBMITTED: &str = "voltboot_registry_jobs_submitted_total";
    /// Jobs by lifecycle state, labelled `state` (gauge).
    pub const JOBS_BY_STATE: &str = "voltboot_registry_jobs";
    /// Current queue length (gauge).
    pub const QUEUE_DEPTH: &str = "voltboot_registry_queue_depth";
    /// Submit-to-claim latency in nanoseconds (summary).
    pub const CLAIM_LATENCY: &str = "voltboot_registry_claim_latency_ns";
    /// Stale queue entries skipped by claim (counter).
    pub const STALE_QUEUE_ENTRIES: &str = "voltboot_registry_stale_queue_entries_total";
    /// Corrupt checkpoints discarded (counter).
    pub const CHECKPOINTS_DISCARDED: &str = "voltboot_registry_checkpoints_discarded_total";
    /// Shard workers retried by the supervisor (counter).
    pub const SHARD_RETRIES: &str = "voltboot_supervisor_shard_retries_total";
    /// Shard workers killed for missed heartbeats (counter).
    pub const HEARTBEAT_KILLS: &str = "voltboot_supervisor_heartbeat_kills_total";
    /// Shards quarantined after exhausting their attempts (counter).
    pub const SHARD_QUARANTINES: &str = "voltboot_supervisor_shard_quarantines_total";
    /// Age of a live shard's newest checkpoint advance, milliseconds,
    /// labelled `job`/`shard` (gauge).
    pub const HEARTBEAT_AGE_MS: &str = "voltboot_supervisor_heartbeat_age_ms";
    /// A live shard's next rep, labelled `job`/`shard` (gauge).
    pub const SHARD_NEXT_REP: &str = "voltboot_supervisor_shard_next_rep";
    /// Jobs re-queued from the journal at startup (counter).
    pub const JOBS_RECOVERED: &str = "voltboot_journal_jobs_recovered_total";
    /// Torn journal bytes discarded at startup (counter).
    pub const JOURNAL_DISCARDED_BYTES: &str = "voltboot_journal_discarded_bytes_total";
    /// Journal appends that failed post-acceptance (counter).
    pub const JOURNAL_APPEND_FAILURES: &str = "voltboot_journal_append_failures_total";
    /// Journal records appended successfully (counter).
    pub const JOURNAL_APPENDS: &str = "voltboot_journal_appends_total";
    /// Bytes appended to the journal (counter).
    pub const JOURNAL_APPENDED_BYTES: &str = "voltboot_journal_appended_bytes_total";
    /// Journal append→flush→fsync→ack latency, nanoseconds (summary).
    pub const JOURNAL_FSYNC_LATENCY: &str = "voltboot_journal_fsync_ns";
    /// Valid journal records replayed at startup (counter).
    pub const JOURNAL_REPLAY_RECORDS: &str = "voltboot_journal_replay_records_total";
}

/// Robustness counters for one daemon. Since the metrics plane landed,
/// these are *handles into the daemon's [`MetricsRegistry`]* — the
/// registry's atomic cells are the single source of truth, `STATS`
/// renders a stable-ordered `key=value` view over them, and `METRICS`
/// renders the full Prometheus exposition of the same cells. All
/// updates are lock-free relaxed atomics so handlers can read them
/// mid-anything.
#[derive(Debug, Clone)]
pub struct DaemonStats {
    metrics: Arc<MetricsRegistry>,
    /// Connections accepted since start.
    pub conn_opened: Counter,
    /// Connection handler threads currently alive.
    pub conn_active: Gauge,
    /// Connections dropped by a read/write timeout.
    pub conn_timeouts: Counter,
    /// Command lines rejected for exceeding the length bound.
    pub conn_line_overflows: Counter,
    /// Queue entries skipped because their job was gone or no longer
    /// claimable (journal-replay artifacts; never a panic).
    pub stale_queue_entries: Counter,
    /// Corrupt checkpoints discarded before a fresh start.
    pub checkpoints_discarded: Counter,
    /// Shard worker processes retried by the supervisor.
    pub shard_retries: Counter,
    /// Shard workers killed for missing their heartbeat deadline.
    pub shard_heartbeat_kills: Counter,
    /// Shards quarantined after exhausting their attempt budget. Any
    /// nonzero value flips `HEALTH` to not-ready: an operator must
    /// look before the fleet is trusted again.
    pub shard_quarantines: Counter,
    /// Jobs re-queued from the journal at startup.
    pub jobs_recovered: Counter,
    /// Torn journal bytes discarded at startup.
    pub journal_discarded_bytes: Counter,
    /// Journal appends that failed after the job was already accepted
    /// (the job still runs; it may re-run after a restart).
    pub journal_append_failures: Counter,
    /// Journal records appended (and fsync'd) successfully.
    pub journal_appends: Counter,
    /// Bytes appended to the journal.
    pub journal_appended_bytes: Counter,
    /// Journal append→flush→fsync→ack latency, nanoseconds.
    pub journal_fsync_ns: LatencyHist,
    /// Current queue length.
    pub queue_depth: Gauge,
    /// Submit-to-claim latency, nanoseconds.
    pub claim_latency_ns: LatencyHist,
}

impl Default for DaemonStats {
    fn default() -> Self {
        DaemonStats::for_registry(&Arc::new(MetricsRegistry::new()))
    }
}

impl DaemonStats {
    /// Registers (or re-attaches to) the daemon counter families in
    /// `metrics` and returns the bundle of handles.
    pub fn for_registry(metrics: &Arc<MetricsRegistry>) -> DaemonStats {
        let c = |name, help| metrics.counter(name, help, &[]);
        DaemonStats {
            conn_opened: c(names::CONNECTIONS, "Connections accepted since start"),
            conn_active: metrics.gauge(
                names::CONNECTIONS_ACTIVE,
                "Connection handler threads currently alive",
                &[],
            ),
            conn_timeouts: c(names::CONN_TIMEOUTS, "Connections dropped by a read/write timeout"),
            conn_line_overflows: c(
                names::LINE_OVERFLOWS,
                "Command lines rejected for exceeding the length bound",
            ),
            stale_queue_entries: c(
                names::STALE_QUEUE_ENTRIES,
                "Queue entries skipped because their job was gone or unclaimable",
            ),
            checkpoints_discarded: c(
                names::CHECKPOINTS_DISCARDED,
                "Corrupt checkpoints discarded before a fresh start",
            ),
            shard_retries: c(
                names::SHARD_RETRIES,
                "Shard worker processes retried by the supervisor",
            ),
            shard_heartbeat_kills: c(
                names::HEARTBEAT_KILLS,
                "Shard workers killed for missing their heartbeat deadline",
            ),
            shard_quarantines: c(
                names::SHARD_QUARANTINES,
                "Shards quarantined after exhausting their attempt budget",
            ),
            jobs_recovered: c(names::JOBS_RECOVERED, "Jobs re-queued from the journal at startup"),
            journal_discarded_bytes: c(
                names::JOURNAL_DISCARDED_BYTES,
                "Torn journal bytes discarded at startup",
            ),
            journal_append_failures: c(
                names::JOURNAL_APPEND_FAILURES,
                "Journal appends that failed after the job was accepted",
            ),
            journal_appends: c(
                names::JOURNAL_APPENDS,
                "Journal records appended and fsync'd successfully",
            ),
            journal_appended_bytes: c(
                names::JOURNAL_APPENDED_BYTES,
                "Bytes appended to the journal",
            ),
            journal_fsync_ns: metrics.histogram(
                names::JOURNAL_FSYNC_LATENCY,
                "Journal append-to-ack latency including fsync, nanoseconds",
                &[],
            ),
            queue_depth: metrics.gauge(names::QUEUE_DEPTH, "Jobs waiting for an executor", &[]),
            claim_latency_ns: metrics.histogram(
                names::CLAIM_LATENCY,
                "Submit-to-claim queue latency, nanoseconds",
                &[],
            ),
            metrics: Arc::clone(metrics),
        }
    }

    /// The metrics registry these counters live in.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The `STATS` reply body: stable `key=value` tokens, read back
    /// out of the metrics registry (the counters' single home). The
    /// token set and order are a compatibility surface — tests pin
    /// them.
    pub fn render(&self) -> String {
        let c = |name: &str| self.metrics.counter_value(name, &[]).unwrap_or(0);
        let g = |name: &str| self.metrics.gauge_value(name, &[]).unwrap_or(0.0).max(0.0) as u64;
        format!(
            "conns={} active={} conn_timeouts={} line_overflows={} stale_queue_entries={} \
             checkpoints_discarded={} shard_retries={} heartbeat_kills={} jobs_recovered={} \
             journal_discarded_bytes={} journal_append_failures={}",
            c(names::CONNECTIONS),
            g(names::CONNECTIONS_ACTIVE),
            c(names::CONN_TIMEOUTS),
            c(names::LINE_OVERFLOWS),
            c(names::STALE_QUEUE_ENTRIES),
            c(names::CHECKPOINTS_DISCARDED),
            c(names::SHARD_RETRIES),
            c(names::HEARTBEAT_KILLS),
            c(names::JOBS_RECOVERED),
            c(names::JOURNAL_DISCARDED_BYTES),
            c(names::JOURNAL_APPEND_FAILURES),
        )
    }
}

/// The `HEALTH` verb's answer: liveness is implicit in answering at
/// all; readiness is the conjunction of the individual checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// All checks passed and the daemon is accepting work.
    pub ready: bool,
    /// No journal append has failed this life (with no state dir
    /// configured this is trivially true — there is nothing to fail).
    pub journal_writable: bool,
    /// Jobs currently queued.
    pub queue_depth: u64,
    /// The configured readiness threshold on `queue_depth`.
    pub queue_max: u64,
    /// Shards quarantined this life (any > 0 means not-ready).
    pub quarantined_shards: u64,
    /// No live supervised shard has gone longer than the heartbeat
    /// timeout without advancing its checkpoint.
    pub heartbeats_fresh: bool,
    /// The daemon is draining or shut down (not-ready, still live).
    pub draining: bool,
}

impl HealthReport {
    /// One-line `key=value` rendering for the `HEALTH` verb.
    pub fn render(&self) -> String {
        let b = |v: bool| u8::from(v);
        format!(
            "ready={} live=1 journal_writable={} queue_depth={} queue_max={} \
             quarantined_shards={} heartbeats_fresh={} draining={}",
            b(self.ready),
            b(self.journal_writable),
            self.queue_depth,
            self.queue_max,
            self.quarantined_shards,
            b(self.heartbeats_fresh),
            b(self.draining),
        )
    }
}

/// The finished report's path for job `id` under `state_dir`.
pub(crate) fn report_path(state_dir: &Path, id: u64) -> PathBuf {
    state_dir.join(format!("job-{id}.report.json"))
}

/// The in-process checkpoint path for job `id` under `state_dir`.
pub(crate) fn job_checkpoint_path(state_dir: &Path, id: u64) -> PathBuf {
    state_dir.join(format!("job-{id}.checkpoint"))
}

/// The checkpoint path for shard `k` of job `id` under `state_dir`.
pub(crate) fn shard_checkpoint_path(state_dir: &Path, id: u64, k: usize) -> PathBuf {
    state_dir.join(format!("job-{id}.shard{k}.checkpoint"))
}

struct RegistryInner {
    next_id: u64,
    jobs: BTreeMap<u64, Job>,
    queue: VecDeque<u64>,
    shutdown: bool,
    /// Drain mode: stop claiming queued jobs, finish running ones.
    draining: bool,
}

/// The shared job table plus its wakeup for idle executors.
pub struct Registry {
    inner: Mutex<RegistryInner>,
    /// Signalled on submit, on job completion, and on shutdown.
    wake: Condvar,
    /// The durable log, present when a state dir is configured.
    journal: Option<Mutex<Journal>>,
    config: RegistryConfig,
    stats: DaemonStats,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty, fully in-memory registry.
    pub fn new() -> Registry {
        Self::with_config(RegistryConfig::default())
            .expect("an in-memory registry opens no files and cannot fail")
    }

    /// A registry with persistence and supervision configured. With a
    /// state dir set, opens (or creates) the job journal and replays
    /// it: terminal jobs come back with their persisted reports,
    /// everything else is re-queued for the executors to resume.
    ///
    /// # Errors
    ///
    /// Journal open/replay I/O failure. Torn or corrupt journal
    /// *records* are never errors — they are discarded.
    pub fn with_config(config: RegistryConfig) -> Result<Registry, JournalError> {
        let mut inner = RegistryInner {
            next_id: 1,
            jobs: BTreeMap::new(),
            queue: VecDeque::new(),
            shutdown: false,
            draining: false,
        };
        let metrics = Arc::new(MetricsRegistry::new());
        let stats = DaemonStats::for_registry(&metrics);
        let journal = match &config.state_dir {
            None => None,
            Some(dir) => {
                let (journal, events, replay) = Journal::open(dir)?;
                // Persist the recovery accounting into the metrics
                // registry immediately: a METRICS scrape right after a
                // restart must already reflect what replay found,
                // before any traffic arrives.
                stats.journal_discarded_bytes.add(replay.discarded_bytes);
                metrics
                    .counter(
                        names::JOURNAL_REPLAY_RECORDS,
                        "Valid journal records replayed at startup",
                        &[],
                    )
                    .add(replay.records);
                replay_events(&mut inner, &stats, dir, events);
                Some(Mutex::new(journal))
            }
        };
        stats.queue_depth.set(inner.queue.len() as f64);
        Ok(Registry { inner: Mutex::new(inner), wake: Condvar::new(), journal, config, stats })
    }

    /// The robustness counters.
    pub fn stats(&self) -> &DaemonStats {
        &self.stats
    }

    /// The metrics registry backing [`Registry::stats`] — the daemon's
    /// half of the `METRICS` exposition.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.stats.registry()
    }

    /// The persistence/supervision configuration.
    pub fn config(&self) -> &RegistryConfig {
        &self.config
    }

    /// Recovers the guard even if a panicking thread poisoned the lock:
    /// all mutations under it are single assignments, so the state is
    /// consistent at every possible panic point.
    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends to the journal, counting (not propagating) failures:
    /// the job still runs this life; after a crash it may re-run,
    /// which determinism makes harmless.
    fn journal_event(&self, event: &JournalEvent) {
        if let Some(journal) = &self.journal {
            let mut journal = journal.lock().unwrap_or_else(PoisonError::into_inner);
            let started = Instant::now();
            match journal.append(event) {
                Ok(bytes) => {
                    self.stats.journal_appends.inc();
                    self.stats.journal_appended_bytes.add(bytes);
                    self.stats.journal_fsync_ns.observe_duration(started.elapsed());
                }
                Err(_) => self.stats.journal_append_failures.inc(),
            }
        }
    }

    /// Queues a sweep; returns its job id. The submission is journaled
    /// *before* it is accepted — if the journal cannot take the
    /// record, the job is rejected rather than accepted undurably.
    ///
    /// # Errors
    ///
    /// One-line detail when the daemon is draining/shut down or the
    /// journal write fails.
    pub fn submit(&self, spec: SweepSpec) -> Result<u64, String> {
        let canonical = spec.canonical();
        let mut inner = self.lock();
        if inner.shutdown || inner.draining {
            return Err("daemon is shutting down; not accepting jobs".to_string());
        }
        let id = inner.next_id;
        if let Some(journal) = &self.journal {
            let started = Instant::now();
            let bytes = journal
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .append(&JournalEvent::Submitted { id, spec: canonical })
                .map_err(|e| format!("journal write failed: {e}"))?;
            self.stats.journal_appends.inc();
            self.stats.journal_appended_bytes.add(bytes);
            self.stats.journal_fsync_ns.observe_duration(started.elapsed());
        }
        self.metrics()
            .counter(
                names::JOBS_SUBMITTED,
                "Jobs accepted, by platform",
                &[("platform", spec.platform.token())],
            )
            .inc();
        inner.next_id += 1;
        inner.jobs.insert(id, Job::queued(spec));
        inner.queue.push_back(id);
        self.stats.queue_depth.set(inner.queue.len() as f64);
        drop(inner);
        self.wake.notify_all();
        Ok(id)
    }

    /// A snapshot of `id`'s state and progress, or `None` for an
    /// unknown job.
    pub fn snapshot(&self, id: u64) -> Option<JobSnapshot> {
        let inner = self.lock();
        inner.jobs.get(&id).map(|job| JobSnapshot {
            id,
            state: job.state.clone(),
            done: job.done.load(Ordering::Relaxed),
            total: job.total,
        })
    }

    /// Per-state job counts: `(queued, running, done, failed)`.
    pub fn job_counts(&self) -> (u64, u64, u64, u64) {
        let inner = self.lock();
        let mut counts = (0, 0, 0, 0);
        for job in inner.jobs.values() {
            match job.state {
                JobState::Queued => counts.0 += 1,
                JobState::Running => counts.1 += 1,
                JobState::Done => counts.2 += 1,
                JobState::Failed(_) => counts.3 += 1,
            }
        }
        counts
    }

    /// The finished report for `id`: `Ok(None)` while the job is still
    /// queued or running, `Err` with the failure detail if it failed.
    pub fn report(&self, id: u64) -> Option<Result<Option<String>, String>> {
        let inner = self.lock();
        inner.jobs.get(&id).map(|job| match &job.state {
            JobState::Failed(detail) => Err(detail.clone()),
            JobState::Done => Ok(job.report.clone()),
            _ => Ok(None),
        })
    }

    /// Flags immediate shutdown and wakes every parked executor.
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.wake.notify_all();
    }

    /// Graceful drain: stop claiming queued jobs, block until every
    /// running job reaches a terminal (journaled) state, then flag
    /// shutdown. Queued jobs stay in the journal and are re-queued by
    /// the next daemon start.
    pub fn drain(&self) {
        let mut inner = self.lock();
        inner.draining = true;
        self.wake.notify_all();
        while inner.jobs.values().any(|j| j.state == JobState::Running) {
            inner = self.wake.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
        inner.shutdown = true;
        drop(inner);
        self.wake.notify_all();
    }

    /// Whether shutdown was flagged (directly or at the end of a
    /// drain).
    pub fn is_shutdown(&self) -> bool {
        self.lock().shutdown
    }

    /// Blocks until a job is queued (returning its id, spec, and
    /// rep counter, with the job already marked running) or
    /// shutdown/drain is flagged (returning `None`). Queue entries
    /// whose job is missing or no longer claimable are skipped and
    /// counted — never unwrapped.
    fn claim(&self) -> Option<(u64, SweepSpec, Arc<AtomicU64>)> {
        let mut inner = self.lock();
        loop {
            if inner.shutdown || inner.draining {
                return None;
            }
            while let Some(id) = inner.queue.pop_front() {
                match inner.jobs.get_mut(&id) {
                    Some(job) if job.state == JobState::Queued => {
                        job.state = JobState::Running;
                        let queued_for = job.queued_at.elapsed();
                        let claimed = (id, job.spec.clone(), Arc::clone(&job.done));
                        self.stats.queue_depth.set(inner.queue.len() as f64);
                        drop(inner);
                        self.stats.claim_latency_ns.observe_duration(queued_for);
                        self.journal_event(&JournalEvent::Started { id });
                        return Some(claimed);
                    }
                    _ => {
                        self.stats.stale_queue_entries.inc();
                    }
                }
            }
            self.stats.queue_depth.set(inner.queue.len() as f64);
            inner = self.wake.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn finish(&self, id: u64, outcome: Result<String, String>) {
        // Persist the report before journaling Done: a Done record must
        // always find its report on replay. (A crash between the report
        // write and the journal append just re-runs the job — harmless,
        // the re-run is byte-identical.)
        let outcome = match outcome {
            Ok(report) => match &self.config.state_dir {
                Some(dir) => match std::fs::write(report_path(dir, id), &report) {
                    Ok(()) => Ok(report),
                    Err(e) => Err(format!("job finished but report could not be persisted: {e}")),
                },
                None => Ok(report),
            },
            Err(detail) => Err(detail),
        };
        self.journal_event(&match &outcome {
            Ok(_) => JournalEvent::Done { id },
            Err(detail) => JournalEvent::Failed { id, detail: detail.clone() },
        });
        let mut inner = self.lock();
        if let Some(job) = inner.jobs.get_mut(&id) {
            match outcome {
                Ok(report) => {
                    job.state = JobState::Done;
                    job.report = Some(report);
                }
                Err(detail) => job.state = JobState::Failed(detail),
            }
        }
        drop(inner);
        // Wake drain() waiters (and anything else parked on the
        // registry) now that a running job reached a terminal state.
        self.wake.notify_all();
    }

    /// The executor loop: claim, run, record, repeat until shutdown.
    /// Campaigns run under `catch_unwind`, so a panicking job fails
    /// *that job* and the executor lives on.
    pub fn run_executor(self: &Arc<Self>) {
        while let Some((id, spec, done)) = self.claim() {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_job(self, id, &spec, done)
            }))
            .unwrap_or_else(|payload| {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                Err(format!("job executor panicked: {}", sanitize(&msg)))
            });
            self.finish(id, outcome);
        }
    }

    /// Spawns `n` detached executor threads draining this registry.
    pub fn spawn_executors(self: &Arc<Self>, n: usize) {
        for i in 0..n.max(1) {
            let registry = Arc::clone(self);
            std::thread::Builder::new()
                .name(format!("voltboot-executor-{i}"))
                .spawn(move || registry.run_executor())
                .expect("spawn executor thread");
        }
    }

    /// The daemon's liveness/readiness checks, evaluated now. Ready
    /// means: the journal has taken every append this life, the queue
    /// is at or under [`RegistryConfig::ready_queue_max`], no shard
    /// has been quarantined, every live supervised shard's heartbeat
    /// is fresher than the configured timeout, and the daemon is not
    /// draining or shut down.
    pub fn health(&self) -> HealthReport {
        let (queued, _, _, _) = self.job_counts();
        let journal_writable = self.stats.journal_append_failures.get() == 0;
        let quarantined_shards = self.stats.shard_quarantines.get();
        let heartbeat_limit_ms = self.config.supervise.heartbeat_timeout.as_secs_f64() * 1e3;
        let heartbeats_fresh = self
            .metrics()
            .gauge_max(names::HEARTBEAT_AGE_MS)
            .is_none_or(|age| age < heartbeat_limit_ms);
        let draining = {
            let inner = self.lock();
            inner.draining || inner.shutdown
        };
        HealthReport {
            ready: journal_writable
                && queued <= self.config.ready_queue_max
                && quarantined_shards == 0
                && heartbeats_fresh
                && !draining,
            journal_writable,
            queue_depth: queued,
            queue_max: self.config.ready_queue_max,
            quarantined_shards,
            heartbeats_fresh,
            draining,
        }
    }

    /// The full `METRICS` exposition: refreshes the point-in-time
    /// gauges (job states, sram plane-cache and rep-delta stats), then
    /// renders this daemon's registry followed by the process-global
    /// one (core rep latency, faultnet proxies). Reading any of this
    /// is out-of-band by construction — it can never perturb a
    /// campaign's deterministic outputs.
    pub fn render_metrics(&self) -> String {
        let (queued, running, done, failed) = self.job_counts();
        for (state, count) in
            [("queued", queued), ("running", running), ("done", done), ("failed", failed)]
        {
            self.metrics()
                .gauge(names::JOBS_BY_STATE, "Jobs by lifecycle state", &[("state", state)])
                .set(count as f64);
        }
        voltboot_sram::fleet::publish_fleet_metrics();
        let mut out = String::new();
        self.metrics().render_into(&mut out);
        metrics::global().render_into(&mut out);
        out
    }
}

/// Rebuilds the in-memory job table from the journal's event stream,
/// then re-queues every non-terminal job in id order.
fn replay_events(
    inner: &mut RegistryInner,
    stats: &DaemonStats,
    state_dir: &Path,
    events: Vec<JournalEvent>,
) {
    for event in events {
        match event {
            JournalEvent::Submitted { id, spec } => {
                inner.next_id = inner.next_id.max(id.saturating_add(1));
                let job = match SweepSpec::parse(spec.split(' ')) {
                    Ok(spec) => Job::queued(spec),
                    // A journal from a different spec vocabulary: keep
                    // the id slot, fail the job typed.
                    Err(e) => Job {
                        total: 0,
                        state: JobState::Failed(format!("journaled spec no longer parses: {e}")),
                        ..Job::queued(SweepSpec::default())
                    },
                };
                inner.jobs.insert(id, job);
            }
            // Started without a later terminal record means the daemon
            // died mid-run; the job stays Queued and is re-claimed, and
            // the executor resumes it from its checkpoint.
            JournalEvent::Started { .. } => {}
            JournalEvent::Done { id } => {
                if let Some(job) = inner.jobs.get_mut(&id) {
                    match std::fs::read_to_string(report_path(state_dir, id)) {
                        Ok(report) => {
                            job.done.fetch_max(job.total, Ordering::Relaxed);
                            job.state = JobState::Done;
                            job.report = Some(report);
                        }
                        Err(e) => {
                            job.state =
                                JobState::Failed(format!("report lost across restart: {e}"));
                        }
                    }
                }
            }
            JournalEvent::Failed { id, detail } => {
                if let Some(job) = inner.jobs.get_mut(&id) {
                    job.state = JobState::Failed(detail);
                }
            }
        }
    }
    let RegistryInner { jobs, queue, .. } = inner;
    for (&id, job) in jobs.iter() {
        if !job.state.is_terminal() {
            queue.push_back(id);
            stats.jobs_recovered.inc();
        }
    }
}

/// Runs one job: supervised shard dispatch for `shards > 0` (when a
/// state dir exists to hold the shard checkpoints), otherwise the
/// in-process checkpointed parallel scheduler. Either path produces
/// byte-identical reports.
fn run_job(
    registry: &Arc<Registry>,
    id: u64,
    spec: &SweepSpec,
    done: Arc<AtomicU64>,
) -> Result<String, String> {
    if spec.shards > 0 {
        if let Some(dir) = registry.config.state_dir.clone() {
            return supervisor::run_supervised(
                id,
                spec,
                &dir,
                &done,
                &registry.config.supervise,
                &registry.stats,
            );
        }
        // No durable home for shard checkpoints: fall back to the
        // in-process scheduler, which yields the same bytes.
    }
    run_in_process(registry, id, spec, done)
}

/// Runs one job's campaign through the checkpointed parallel scheduler
/// and renders its report. With a state dir, the checkpoint lives
/// there so a restarted daemon resumes it; a corrupt leftover is
/// discarded (counted) rather than wedging the job. Removed on
/// success.
fn run_in_process(
    registry: &Registry,
    id: u64,
    spec: &SweepSpec,
    done: Arc<AtomicU64>,
) -> Result<String, String> {
    let checkpoint = match &registry.config.state_dir {
        Some(dir) => job_checkpoint_path(dir, id),
        None => std::env::temp_dir()
            .join(format!("voltboot_job_{}_{id}.checkpoint", std::process::id())),
    };
    let mut resume = false;
    if checkpoint.exists() {
        match Checkpoint::load(&checkpoint) {
            Ok(cp) => {
                // Pre-credit the prior life's progress so WATCH shows
                // the true position from the first poll.
                done.fetch_max(cp.next_rep.saturating_sub(cp.shard.start), Ordering::Relaxed);
                resume = true;
            }
            Err(_) => {
                std::fs::remove_file(&checkpoint).ok();
                registry.stats.checkpoints_discarded.inc();
            }
        }
    }
    let campaign = spec.campaign().observe(done);
    let result = if resume {
        campaign.resume_shard_parallel(spec.threads, &checkpoint, spec.victim())
    } else {
        campaign.run_shard_parallel(
            spec.threads,
            ShardRange::whole(spec.reps),
            &checkpoint,
            spec.victim(),
        )
    };
    let result = result.map_err(|e| sanitize(&e.to_string()))?;
    std::fs::remove_file(&checkpoint).ok();
    Ok(result.to_json())
}

/// Collapses a message onto one line so it can ride a protocol `ERR`.
pub(crate) fn sanitize(msg: &str) -> String {
    msg.replace(['\n', '\r'], " ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec::parse(["reps=2", "passes=1", "rate=0.0"]).unwrap()
    }

    #[test]
    fn submit_claim_finish_lifecycle() {
        let registry = Arc::new(Registry::new());
        let id = registry.submit(tiny_spec()).unwrap();
        assert_eq!(registry.snapshot(id).unwrap().state, JobState::Queued);

        let (claimed, _spec, _done) = registry.claim().unwrap();
        assert_eq!(claimed, id);
        assert_eq!(registry.snapshot(id).unwrap().state, JobState::Running);
        assert_eq!(registry.report(id).unwrap(), Ok(None));

        registry.finish(id, Ok("{}".to_string()));
        assert_eq!(registry.snapshot(id).unwrap().state, JobState::Done);
        assert_eq!(registry.report(id).unwrap(), Ok(Some("{}".to_string())));
        assert_eq!(registry.job_counts(), (0, 0, 1, 0));
    }

    #[test]
    fn failed_jobs_carry_their_detail() {
        let registry = Arc::new(Registry::new());
        let id = registry.submit(tiny_spec()).unwrap();
        registry.claim().unwrap();
        registry.finish(id, Err("worker panicked: boom".to_string()));
        let snap = registry.snapshot(id).unwrap();
        assert_eq!(snap.state, JobState::Failed("worker panicked: boom".to_string()));
        assert_eq!((snap.done, snap.total), (0, 2));
        assert_eq!(registry.report(id).unwrap(), Err("worker panicked: boom".to_string()));
    }

    #[test]
    fn shutdown_unblocks_claim() {
        let registry = Arc::new(Registry::new());
        let waiter = {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || registry.claim())
        };
        registry.shutdown();
        assert!(waiter.join().unwrap().is_none());
    }

    #[test]
    fn claim_skips_stale_queue_entries_without_panicking() {
        let registry = Arc::new(Registry::new());
        let id = registry.submit(tiny_spec()).unwrap();
        // Poison the queue with ids that must be skipped: one for a
        // job that does not exist, one for a job already terminal.
        let done_id = registry.submit(tiny_spec()).unwrap();
        {
            let mut inner = registry.lock();
            let job = inner.jobs.get_mut(&done_id).unwrap();
            job.state = JobState::Done;
            inner.queue.push_front(done_id);
            inner.queue.push_front(9999);
        }
        let (claimed, _, _) = registry.claim().unwrap();
        assert_eq!(claimed, id);
        assert_eq!(registry.stats().stale_queue_entries.get(), 2);
    }

    #[test]
    fn drain_waits_for_running_jobs_and_rejects_new_ones() {
        let registry = Arc::new(Registry::new());
        let id = registry.submit(tiny_spec()).unwrap();
        let (claimed, _, _) = registry.claim().unwrap();
        assert_eq!(claimed, id);

        let drainer = {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || registry.drain())
        };
        // Drain must not complete while the job is still running.
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(!registry.is_shutdown());
        assert!(registry.submit(tiny_spec()).is_err(), "draining daemon rejects new jobs");

        registry.finish(id, Ok("{}".to_string()));
        drainer.join().unwrap();
        assert!(registry.is_shutdown());
    }

    #[test]
    fn executor_survives_a_poisoned_registry_lock() {
        let registry = Arc::new(Registry::new());
        // Poison the registry mutex the nasty way: panic while holding
        // the guard on another thread.
        {
            let registry = Arc::clone(&registry);
            let _ = std::thread::spawn(move || {
                let _guard = registry.inner.lock().unwrap();
                panic!("poison the registry");
            })
            .join();
        }
        // Every entry point still works on the recovered state.
        let id = registry.submit(tiny_spec()).unwrap();
        assert_eq!(registry.snapshot(id).unwrap().state, JobState::Queued);
        assert!(!registry.is_shutdown());
    }

    #[test]
    fn unknown_jobs_are_none_not_panics() {
        let registry = Registry::new();
        assert!(registry.snapshot(404).is_none());
        assert!(registry.report(404).is_none());
    }
}
