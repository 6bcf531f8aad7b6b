//! The daemon's observability surface end to end:
//!
//! * `STATS` is a stable-ordered *view* over the metrics registry —
//!   the legacy `key=value` tokens are pinned here as a compatibility
//!   surface;
//! * `METRICS` renders Prometheus text exposition spanning every layer
//!   (server, registry, journal, supervisor config, core reps, sram
//!   caches), and its counters are monotone across scrapes;
//! * `HEALTH` reports ready on a healthy daemon and flips to not-ready
//!   when a shard is quarantined or the daemon drains;
//! * a daemon restarted on a journaled state dir surfaces its recovery
//!   stats (`jobs_recovered`, replayed records) in the next scrape;
//! * verbs answer without Nagle stalls: 100 sequential `PING`s on
//!   loopback finish well inside a second.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use voltboot::campaign::RetryPolicy;
use voltboot_server::{
    Client, JobState, Registry, RegistryConfig, Server, ServerOptions, SupervisorConfig, SweepSpec,
};

const SPEC_LINE: &str = "platform=pi4 rate=0.1 reps=2 passes=3 threads=1 \
                         die_seed=35350880196615 fault_seed=17182606954718";

fn state_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("voltboot_metrics_surface_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create state dir");
    dir
}

fn wait_terminal(registry: &Arc<Registry>, id: u64) -> JobState {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let snap = registry.snapshot(id).expect("job exists");
        if snap.state.is_terminal() {
            return snap.state;
        }
        assert!(Instant::now() < deadline, "job {id} never reached a terminal state");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// One fresh connection per probe: a connection held across a job run
/// idles past the daemon's `io_timeout` and dies with a broken pipe,
/// so every verb sent after `wait_terminal` must reconnect.
fn probe(addr: &str) -> Client {
    Client::connect(addr).expect("connect")
}

/// Extracts one sample value from an exposition by exact line prefix
/// (`name ` or `name{labels} `).
fn sample(text: &str, prefix: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.starts_with(prefix) && !l.starts_with('#'))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

/// A command goes out as a line and its newline in two writes, and some
/// replies in several; on sockets without `TCP_NODELAY` every verb waits
/// for a delayed ACK (≈44–88 ms on Linux loopback), so 100 pings would
/// take seconds.
#[test]
fn sequential_pings_do_not_stall_on_delayed_acks() {
    let server = Server::bind_with(
        "127.0.0.1:0",
        ServerOptions {
            executors: 1,
            io_timeout: Some(Duration::from_secs(10)),
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().expect("local_addr").to_string();
    std::thread::spawn(move || server.serve());

    let mut client = probe(&addr);
    let started = Instant::now();
    for _ in 0..100 {
        client.ping().expect("PING");
    }
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(1), "100 sequential pings took {elapsed:?}");
    let _ = probe(&addr).shutdown();
}

#[test]
fn stats_is_a_pinned_view_over_the_metrics_registry() {
    let dir = state_dir("stats_view");
    let server = Server::bind_with(
        "127.0.0.1:0",
        ServerOptions {
            executors: 1,
            state_dir: Some(dir.clone()),
            io_timeout: Some(Duration::from_secs(10)),
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().expect("local_addr").to_string();
    let registry = server.registry();
    std::thread::spawn(move || server.serve());

    let id = probe(&addr).submit(SPEC_LINE).expect("submit");
    wait_terminal(&registry, id);
    let body = probe(&addr).stats().expect("STATS");

    // The legacy token set, in its legacy order: this is the
    // compatibility surface scripts parse. Every value now lives in
    // the metrics registry; STATS is a read-back view.
    let expected_keys = [
        "conns",
        "active",
        "conn_timeouts",
        "line_overflows",
        "stale_queue_entries",
        "checkpoints_discarded",
        "shard_retries",
        "heartbeat_kills",
        "jobs_recovered",
        "journal_discarded_bytes",
        "journal_append_failures",
        "queued",
        "running",
        "done",
        "failed",
    ];
    let keys: Vec<&str> =
        body.split_whitespace().map(|tok| tok.split('=').next().unwrap_or(tok)).collect();
    assert_eq!(keys, expected_keys, "STATS tokens changed: {body:?}");
    for tok in body.split_whitespace() {
        let (_, v) = tok.split_once('=').expect("key=value");
        v.parse::<u64>().unwrap_or_else(|_| panic!("non-numeric STATS value in {tok:?}"));
    }

    // One source of truth: the view matches the registry's own values.
    let stats = registry.stats();
    assert!(body.contains(&format!("conns={}", stats.conn_opened.get())), "{body:?}");
    assert!(body.contains("done=1"), "{body:?}");

    let _ = probe(&addr).shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_exposition_spans_layers_and_counters_are_monotone() {
    let dir = state_dir("exposition");
    let server = Server::bind_with(
        "127.0.0.1:0",
        ServerOptions {
            executors: 1,
            state_dir: Some(dir.clone()),
            io_timeout: Some(Duration::from_secs(10)),
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().expect("local_addr").to_string();
    let registry = server.registry();
    std::thread::spawn(move || server.serve());

    let first = probe(&addr).metrics().expect("first METRICS scrape");
    let id = probe(&addr).submit(SPEC_LINE).expect("submit");
    wait_terminal(&registry, id);
    let second = probe(&addr).metrics().expect("second METRICS scrape");

    // Families spanning the whole service path. The acceptance bar is
    // >= 6 families across server/journal/supervisor/faultnet/sram;
    // the supervisor and faultnet families only have cells once those
    // layers run (`supervised.rs` checks the per-shard gauges and
    // `faultnet_props.rs` the proxy's connection counter), so here we
    // pin the always-on layers plus the core and sram re-exports.
    for family in [
        "# TYPE voltboot_server_connections_total counter",
        "# TYPE voltboot_server_connections_active gauge",
        "# TYPE voltboot_server_verb_latency_ns summary",
        "# TYPE voltboot_registry_jobs_submitted_total counter",
        "# TYPE voltboot_registry_jobs gauge",
        "# TYPE voltboot_registry_queue_depth gauge",
        "# TYPE voltboot_registry_claim_latency_ns summary",
        "# TYPE voltboot_journal_appends_total counter",
        "# TYPE voltboot_journal_fsync_ns summary",
        "# TYPE voltboot_reps_total counter",
        "# TYPE voltboot_rep_duration_ns summary",
        "# TYPE voltboot_sram_plane_cache_entries gauge",
        "# TYPE voltboot_sram_delta_reps_total gauge",
    ] {
        assert!(second.contains(family), "missing family {family:?} in:\n{second}");
    }

    // Per-verb latency carries the verb label; submitted jobs carry
    // the platform label.
    assert!(second.contains("voltboot_server_verb_latency_ns_count{verb=\"SUBMIT\"}"), "{second}");
    assert!(second.contains("voltboot_registry_jobs_submitted_total{platform=\"pi4\"} 1"));
    assert!(second.contains("voltboot_registry_jobs{state=\"done\"} 1"), "{second}");

    // Counters are monotone between scrapes (relaxed atomics on the
    // same cell never go backwards).
    for name in [
        "voltboot_server_connections_total ",
        "voltboot_journal_appends_total ",
        "voltboot_journal_appended_bytes_total ",
    ] {
        let (a, b) = (sample(&first, name), sample(&second, name));
        let a = a.unwrap_or_else(|| panic!("{name} absent from first scrape"));
        let b = b.unwrap_or_else(|| panic!("{name} absent from second scrape"));
        assert!(b >= a, "{name} went backwards: {a} -> {b}");
    }
    // The campaign actually ran through the rep hook: 2 reps finished.
    let reps = sample(&second, "voltboot_reps_total{status=\"success\"} ")
        .or_else(|| sample(&second, "voltboot_reps_total{status=\"degraded\"} "))
        .expect("rep counter present");
    assert!(reps >= 1.0, "rep hook never fired: {second}");

    let _ = probe(&addr).shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn health_reports_ready_then_flips_on_quarantine_and_drain() {
    // Phase 1: a healthy daemon answers HEALTH ready through the verb.
    let server = Server::bind_with(
        "127.0.0.1:0",
        ServerOptions {
            executors: 1,
            io_timeout: Some(Duration::from_secs(10)),
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().expect("local_addr").to_string();
    std::thread::spawn(move || server.serve());
    let mut client = Client::connect(&addr).expect("connect");
    let body = client.health().expect("HEALTH");
    assert!(body.starts_with("ready=1 live=1 journal_writable=1"), "{body:?}");
    let _ = client.shutdown();

    // Phase 2: hopeless shard workers quarantine the job; readiness
    // must flip while liveness holds. (Env hooks are process-wide, so
    // this phase shares the test with phase 1 instead of racing it.)
    let dir = state_dir("quarantine");
    std::env::set_var("VOLTBOOT_SHARD_CRASH_ALWAYS", "1");
    let registry = Registry::with_config(RegistryConfig {
        state_dir: Some(dir.clone()),
        supervise: SupervisorConfig {
            shard_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_voltboot-server"))),
            heartbeat_timeout: Duration::from_secs(40),
            poll_interval: Duration::from_millis(25),
            retry: RetryPolicy { max_attempts: 2, initial_backoff_ns: 10_000_000 },
            backoff_cap: Duration::from_millis(200),
        },
        ..RegistryConfig::default()
    })
    .expect("open registry");
    let registry = Arc::new(registry);
    registry.spawn_executors(1);
    assert!(registry.health().ready, "fresh registry must be ready");

    let spec = SweepSpec::parse(format!("{SPEC_LINE} shards=2").split(' ')).expect("spec parses");
    let id = registry.submit(spec).expect("submit");
    let state = wait_terminal(&registry, id);
    std::env::remove_var("VOLTBOOT_SHARD_CRASH_ALWAYS");
    assert!(matches!(state, JobState::Failed(_)), "hopeless workers must fail the job");

    let health = registry.health();
    assert!(!health.ready, "quarantined shards must flip readiness: {health:?}");
    assert!(health.quarantined_shards >= 1, "{health:?}");
    let rendered = health.render();
    assert!(rendered.starts_with("ready=0 live=1"), "{rendered:?}");

    // Quarantines surface in the exposition too.
    let text = registry.render_metrics();
    let quarantines =
        sample(&text, "voltboot_supervisor_shard_quarantines_total ").expect("quarantine counter");
    assert!(quarantines >= 1.0, "{text}");
    assert!(
        text.contains("# TYPE voltboot_supervisor_shard_retries_total counter"),
        "supervisor family missing:\n{text}"
    );

    registry.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    // Phase 3: draining flips readiness on an otherwise healthy
    // registry.
    let registry = Arc::new(Registry::new());
    assert!(registry.health().ready);
    registry.drain();
    let health = registry.health();
    assert!(!health.ready && health.draining, "{health:?}");
}

#[test]
fn restart_recovery_stats_surface_in_the_next_scrape() {
    let dir = state_dir("recovery_scrape");
    let spec = SweepSpec::parse(SPEC_LINE.split(' ')).expect("spec parses");

    // Life 1: submit one job, let it finish, then *abandon* the
    // registry without shutdown (the journal survives either way) and
    // submit a second job that stays queued.
    {
        let registry = Arc::new(
            Registry::with_config(RegistryConfig {
                state_dir: Some(dir.clone()),
                ..RegistryConfig::default()
            })
            .expect("open registry"),
        );
        registry.spawn_executors(1);
        let id = registry.submit(spec.clone()).expect("submit");
        assert_eq!(wait_terminal(&registry, id), JobState::Done);
        registry.shutdown();
        // A queued job journaled after shutdown would be rejected, so
        // journal it just before: submit on a fresh handle.
    }
    {
        let registry = Registry::with_config(RegistryConfig {
            state_dir: Some(dir.clone()),
            ..RegistryConfig::default()
        })
        .expect("reopen registry");
        // No executors: the job stays queued in the journal.
        registry.submit(spec).expect("submit queued job");
    }

    // Life 2: replay must re-queue the interrupted job and publish the
    // recovery counters into the registry at open.
    let registry = Registry::with_config(RegistryConfig {
        state_dir: Some(dir.clone()),
        ..RegistryConfig::default()
    })
    .expect("replay registry");
    assert!(registry.stats().jobs_recovered.get() >= 1, "queued job must be recovered");
    let text = registry.render_metrics();
    let recovered = sample(&text, "voltboot_journal_jobs_recovered_total ").expect("counter");
    assert!(recovered >= 1.0, "{text}");
    let replayed = sample(&text, "voltboot_journal_replay_records_total ").expect("counter");
    assert!(replayed >= 2.0, "two lives of events must have replayed: {text}");

    registry.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
