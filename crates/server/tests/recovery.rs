//! Crash-recovery integration tests: a registry opened on a state dir
//! left behind by a "dead" daemon (journal + checkpoints fabricated to
//! look exactly like a SIGKILL at various instants) must re-queue
//! interrupted jobs, resume them from their checkpoints, and converge
//! on reports byte-identical to an uninterrupted run — without ever
//! panicking on what the crash left on disk. One test SIGKILLs a real
//! `voltboot-server serve` process mid-job and restarts it.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use voltboot::campaign::ShardRange;
use voltboot_server::journal::{Journal, JournalEvent};
use voltboot_server::{Client, JobState, Registry, RegistryConfig, SweepSpec};

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("voltboot_recovery_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create state dir");
    dir
}

fn spec() -> SweepSpec {
    SweepSpec::parse(
        "platform=pi4 rate=0.2 reps=3 passes=3 threads=2 die_seed=35350880196615 \
         fault_seed=17182606954718"
            .split(' '),
    )
    .expect("spec parses")
}

fn reference(spec: &SweepSpec) -> String {
    spec.campaign().run(spec.victim()).to_json()
}

/// Opens a registry on `dir`, runs its executor, and waits for job
/// `id` to reach a terminal state.
fn recover_and_wait(dir: &Path, id: u64) -> (Arc<Registry>, JobState) {
    let registry = Registry::with_config(RegistryConfig {
        state_dir: Some(dir.to_path_buf()),
        ..RegistryConfig::default()
    })
    .expect("journal replay must never fail on crash leftovers");
    let registry = Arc::new(registry);
    registry.spawn_executors(1);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let snap = registry.snapshot(id).expect("recovered job must exist");
        if snap.state.is_terminal() {
            registry.shutdown();
            return (registry, snap.state);
        }
        assert!(Instant::now() < deadline, "recovered job {id} never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Fabricates the journal a daemon would have written before dying
/// with job 1 in the given states.
fn write_journal(dir: &Path, events: &[JournalEvent]) {
    let (mut journal, existing, _) = Journal::open(dir).expect("open journal");
    assert!(existing.is_empty(), "test wants a fresh journal");
    for event in events {
        journal.append(event).expect("append");
    }
}

#[test]
fn interrupted_job_resumes_from_its_checkpoint_byte_identical() {
    let dir = state_dir("resume");
    let spec = spec();
    let reference = reference(&spec);

    // The dead daemon journaled submit + start, and its executor got
    // 2 of 4 reps into the checkpoint before the SIGKILL.
    write_journal(
        &dir,
        &[
            JournalEvent::Submitted { id: 1, spec: spec.canonical() },
            JournalEvent::Started { id: 1 },
        ],
    );
    let checkpoint = dir.join("job-1.checkpoint");
    let campaign = spec.campaign();
    let from = campaign.fresh(ShardRange { start: 0, end: spec.reps });
    campaign
        .run_from(spec.threads, from, Some(2), Some(&checkpoint), spec.victim())
        .expect("leave a partial checkpoint behind");

    let (registry, state) = recover_and_wait(&dir, 1);
    assert_eq!(state, JobState::Done);
    assert_eq!(
        registry.stats().jobs_recovered.get(),
        1,
        "the interrupted job must be counted as recovered"
    );
    let report = registry.report(1).expect("job exists").expect("job done").expect("report");
    assert_eq!(report, reference, "resumed report must byte-match an uninterrupted run");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn interrupted_job_with_no_checkpoint_reruns_from_scratch() {
    let dir = state_dir("fresh");
    let spec = spec();
    let reference = reference(&spec);

    // Died after journaling the submit but before the first
    // checkpoint write.
    write_journal(&dir, &[JournalEvent::Submitted { id: 1, spec: spec.canonical() }]);

    let (registry, state) = recover_and_wait(&dir, 1);
    assert_eq!(state, JobState::Done);
    let report = registry.report(1).expect("job exists").expect("job done").expect("report");
    assert_eq!(report, reference);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_job_checkpoint_is_discarded_not_resurrected() {
    let dir = state_dir("corrupt");
    let spec = spec();
    let reference = reference(&spec);

    write_journal(
        &dir,
        &[
            JournalEvent::Submitted { id: 1, spec: spec.canonical() },
            JournalEvent::Started { id: 1 },
        ],
    );
    // The crash tore the checkpoint mid-write.
    std::fs::write(dir.join("job-1.checkpoint"), b"{\"voltboot_checkpoint\": 2, \"next")
        .expect("write torn checkpoint");

    let (registry, state) = recover_and_wait(&dir, 1);
    assert_eq!(state, JobState::Done);
    assert!(
        registry.stats().checkpoints_discarded.get() >= 1,
        "the torn checkpoint must be discarded, not trusted"
    );
    let report = registry.report(1).expect("job exists").expect("job done").expect("report");
    assert_eq!(report, reference, "a discarded checkpoint means a clean re-run, same bytes");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn finished_jobs_keep_their_reports_across_restart() {
    let dir = state_dir("done");
    let spec = spec();
    let reference = reference(&spec);

    write_journal(
        &dir,
        &[
            JournalEvent::Submitted { id: 1, spec: spec.canonical() },
            JournalEvent::Started { id: 1 },
            JournalEvent::Done { id: 1 },
        ],
    );
    std::fs::write(dir.join("job-1.report.json"), &reference).expect("persist report");

    let registry = Registry::with_config(RegistryConfig {
        state_dir: Some(dir.clone()),
        ..RegistryConfig::default()
    })
    .expect("replay");
    // No executor needed: the job is already terminal after replay.
    let snap = registry.snapshot(1).expect("job exists");
    assert_eq!(snap.state, JobState::Done);
    assert_eq!(snap.done, spec.reps, "progress counters must reflect the finished job");
    let report = registry.report(1).expect("job exists").expect("job done").expect("report");
    assert_eq!(report, reference);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn done_job_with_a_lost_report_fails_typed_instead_of_lying() {
    let dir = state_dir("lost");
    let spec = spec();

    write_journal(
        &dir,
        &[JournalEvent::Submitted { id: 1, spec: spec.canonical() }, JournalEvent::Done { id: 1 }],
    );
    // No report file on disk: the journal says Done but the crash (or
    // an operator) ate the artifact.

    let registry = Registry::with_config(RegistryConfig {
        state_dir: Some(dir.clone()),
        ..RegistryConfig::default()
    })
    .expect("replay");
    let snap = registry.snapshot(1).expect("job exists");
    match &snap.state {
        JobState::Failed(detail) => {
            assert!(detail.contains("report"), "detail should name the lost report: {detail}");
        }
        other => panic!("a Done job without its report must fail typed, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journaled_failures_replay_as_failures() {
    let dir = state_dir("failed");
    let spec = spec();

    write_journal(
        &dir,
        &[
            JournalEvent::Submitted { id: 1, spec: spec.canonical() },
            JournalEvent::Started { id: 1 },
            JournalEvent::Failed { id: 1, detail: "executor thread panicked".to_string() },
        ],
    );

    let registry = Registry::with_config(RegistryConfig {
        state_dir: Some(dir.clone()),
        ..RegistryConfig::default()
    })
    .expect("replay");
    let snap = registry.snapshot(1).expect("job exists");
    assert_eq!(snap.state, JobState::Failed("executor thread panicked".to_string()));
    // A new submit on the recovered registry must pick up where the
    // id sequence left off, not reuse id 1.
    let id = registry.submit(spec).expect("submit after recovery");
    assert_eq!(id, 2, "recovered next_id must not collide with journaled jobs");
    std::fs::remove_dir_all(&dir).ok();
}

/// A `voltboot-server serve` child process, killed when dropped so a
/// failing test leaves no daemon behind. Holds the pipe its banner came
/// on, so the daemon's later prints never meet a closed pipe.
struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    /// Starts `serve` on an ephemeral port with one executor, journaling
    /// to `dir`, and reads the bound address from its banner line.
    fn spawn(dir: &Path) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_voltboot-server"))
            .args(["serve", "--listen", "127.0.0.1:0", "--jobs", "1", "--state-dir"])
            .arg(dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn voltboot-server serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        stdout.read_line(&mut banner).expect("read the daemon banner");
        let addr = banner
            .split_whitespace()
            .skip_while(|token| *token != "on")
            .nth(1)
            .unwrap_or_else(|| panic!("no address in the banner {banner:?}"))
            .to_string();
        Daemon { child, _stdout: stdout, addr }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A sample's value in a text exposition, by exact line prefix.
fn sample(text: &str, prefix: &str) -> Option<f64> {
    text.lines().find(|l| l.starts_with(prefix)).and_then(|l| l.rsplit(' ').next()?.parse().ok())
}

#[test]
fn sigkilled_daemon_resumes_its_job_after_a_restart() {
    let dir = state_dir("sigkill");
    // Eight reps on two workers: the kill lands mid-job unless WATCH's
    // 25 ms poll stalls for several rep times.
    let spec = SweepSpec { reps: 8, ..spec() };
    let reference = reference(&spec);

    // Life 1: SIGKILL the daemon once WATCH shows a finished rep.
    let mut daemon = Daemon::spawn(&dir);
    let mut client = Client::connect(&daemon.addr).expect("connect");
    let job = client.submit(&spec.canonical()).expect("submit");
    let mut killed_at = None;
    let child = &mut daemon.child;
    let watched = client.watch(job, |done, total| {
        if killed_at.is_none() && done >= 1 {
            child.kill().expect("SIGKILL the daemon");
            killed_at = Some((done, total));
        }
    });
    let (done, total) = killed_at.expect("WATCH never showed a finished rep");
    assert!(done < total, "the job finished before the kill, so nothing was interrupted");
    let err = watched.expect_err("WATCH outlived the daemon");
    assert!(err.is_transient(), "a killed daemon is a transport failure: {err}");
    daemon.child.wait().expect("reap the killed daemon");

    // Life 2 on the same state dir: the journal re-queues the job, which
    // resumes from its checkpoint. WATCH runs on its own thread so a job
    // that is never resumed fails the test instead of hanging it.
    let daemon = Daemon::spawn(&dir);
    let (tx, rx) = mpsc::channel();
    let addr = daemon.addr.clone();
    let watcher = std::thread::spawn(move || {
        let mut progress = Vec::new();
        let watched = Client::connect(&addr)
            .and_then(|mut c| c.watch(job, |done, total| progress.push((done, total))));
        let _ = tx.send(watched.map(|()| progress));
    });
    let progress = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("the restarted daemon never finished the job")
        .expect("WATCH after the restart");
    watcher.join().expect("WATCH thread");
    assert_eq!(
        progress.last(),
        Some(&(spec.reps, spec.reps)),
        "WATCH streams at least one PROGRESS line and ends at (reps, reps): {progress:?}"
    );

    let mut client = Client::connect(&daemon.addr).expect("connect after the restart");
    let report = client.report(job).expect("REPORT after the restart");
    assert_eq!(report, reference, "the recovered report must byte-match an uninterrupted run");

    // The replay shows in the metrics plane, and its counters only grow.
    let first = client.metrics().expect("METRICS");
    let second = client.metrics().expect("second METRICS");
    for name in ["voltboot_journal_jobs_recovered_total ", "voltboot_journal_replay_records_total "]
    {
        let a = sample(&first, name).unwrap_or_else(|| panic!("{name}missing:\n{first}"));
        let b = sample(&second, name).unwrap_or_else(|| panic!("{name}missing:\n{second}"));
        assert!(b >= a, "{name}went backwards: {a} -> {b}");
    }
    let recovered = sample(&first, "voltboot_journal_jobs_recovered_total ").unwrap_or(0.0);
    assert!(recovered >= 1.0, "the SIGKILLed job must count as recovered: {recovered}");

    assert_eq!(client.shutdown_drain().expect("SHUTDOWN drain"), "bye drained");
    let mut daemon = daemon;
    let status = daemon.child.wait().expect("reap the drained daemon");
    assert!(status.success(), "a drained daemon exits 0, got {status}");
    std::fs::remove_dir_all(&dir).ok();
}
