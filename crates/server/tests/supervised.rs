//! Supervised shard dispatch, happy path: a `shards=K` job runs as K
//! real worker OS processes and its merged report is byte-identical
//! to both the uninterrupted sequential run and the in-process
//! parallel run of the same spec.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use voltboot_server::{JobState, Registry, RegistryConfig, SupervisorConfig, SweepSpec};

fn state_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("voltboot_supervised_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create state dir");
    dir
}

fn wait_terminal(registry: &Arc<Registry>, id: u64) -> JobState {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let snap = registry.snapshot(id).expect("job exists");
        if snap.state.is_terminal() {
            return snap.state;
        }
        assert!(Instant::now() < deadline, "supervised job {id} never finished");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// A sample's value in a text exposition, by exact line prefix.
fn sample(text: &str, prefix: &str) -> Option<f64> {
    text.lines().find(|l| l.starts_with(prefix)).and_then(|l| l.rsplit(' ').next()?.parse().ok())
}

#[test]
fn supervised_shards_report_byte_identical_to_sequential() {
    let dir = state_dir("happy");
    let spec = SweepSpec::parse(
        "platform=pi4 rate=0.2 reps=4 passes=3 threads=1 die_seed=35350880196615 \
         fault_seed=17182606954718 shards=2"
            .split(' '),
    )
    .expect("spec parses");
    let reference = spec.campaign().run(spec.victim()).to_json();

    let registry = Registry::with_config(RegistryConfig {
        state_dir: Some(dir.clone()),
        supervise: SupervisorConfig {
            shard_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_voltboot-server"))),
            ..SupervisorConfig::default()
        },
        ..RegistryConfig::default()
    })
    .expect("open registry");
    let registry = Arc::new(registry);
    registry.spawn_executors(1);

    let id = registry.submit(spec.clone()).expect("submit");
    let state = wait_terminal(&registry, id);
    assert_eq!(state, JobState::Done, "supervised job must complete");

    let snap = registry.snapshot(id).expect("job exists");
    assert_eq!(snap.done, spec.reps, "worker heartbeats must credit every rep");

    let report = registry.report(id).expect("job exists").expect("done").expect("report");
    assert_eq!(report, reference, "merged shard-worker report must byte-match the sequential run");

    // Each shard has its own progress and heartbeat gauges. A finished
    // shard's progress gauge sits at the end of its range; the heartbeat
    // age is parked at 0 once no worker is being watched.
    let text = registry.render_metrics();
    for (k, end) in [(0, 2.0), (1, 4.0)] {
        let labels = format!("{{job=\"{id}\",shard=\"{k}\"}} ");
        let next = sample(&text, &format!("voltboot_supervisor_shard_next_rep{labels}"))
            .unwrap_or_else(|| panic!("no next-rep gauge for shard {k}:\n{text}"));
        assert_eq!(next, end, "shard {k}'s next-rep gauge must reach the end of its range");
        let age = sample(&text, &format!("voltboot_supervisor_heartbeat_age_ms{labels}"))
            .unwrap_or_else(|| panic!("no heartbeat-age gauge for shard {k}:\n{text}"));
        assert_eq!(age, 0.0, "shard {k}'s heartbeat age must be parked after its worker exits");
    }

    // Success must clean up the per-shard checkpoints.
    for k in 0..2 {
        assert!(
            !dir.join(format!("job-{id}.shard{k}.checkpoint")).exists(),
            "shard {k} checkpoint must be removed after a successful merge"
        );
    }
    registry.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn supervised_job_without_a_state_dir_falls_back_in_process() {
    // `shards=2` with no --state-dir: nowhere durable for shard
    // checkpoints, so the job runs in-process — same bytes, no
    // processes.
    let spec = SweepSpec::parse(
        "platform=pi4 rate=0.2 reps=3 passes=3 threads=2 die_seed=35350880196615 \
         fault_seed=17182606954718 shards=2"
            .split(' '),
    )
    .expect("spec parses");
    let reference = spec.campaign().run(spec.victim()).to_json();

    let registry = Arc::new(Registry::new());
    registry.spawn_executors(1);
    let id = registry.submit(spec).expect("submit");
    let state = wait_terminal(&registry, id);
    assert_eq!(state, JobState::Done);
    let report = registry.report(id).expect("job exists").expect("done").expect("report");
    assert_eq!(report, reference);
    registry.shutdown();
}
