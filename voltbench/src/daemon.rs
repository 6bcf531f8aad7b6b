//! The `daemon_small_jobs` workload, and the service-path layer
//! figures every trace run reports.
//!
//! An in-process sweep daemon (2 executors, a state dir so the journal
//! fsyncs) serves two client connections, each looping SUBMIT → WATCH →
//! REPORT on a small job: warm dies and no DRAM decay (`off_ms=0`) make
//! the protocol, the registry queue, journal appends and report
//! transfer a large share of each job. `temp_c` is set because
//! `SweepSpec::campaign` ignores `off_ms` without it.

use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use voltboot_bench::dashboard::Scrape;
use voltboot_server::{Client, Server, ServerOptions, SweepSpec};
use voltboot_soc::PowerCycleSpec;
use voltboot_sram::{clear_plane_cache, Temperature};

use crate::campaigns::{end_to_end, result_layers, CacheMark, CacheTally, Replayer, Unit};
use crate::replay::{AttackShape, PASSES};
use crate::stats::{self, median, ms_since, summary_quantile};
use crate::{mix, setup_median, Outcome, Values, THREADS};

/// Reps per daemon job.
const JOB_REPS: u64 = 2;
/// Jobs the service probe runs on a campaign workload's trace run.
const PROBE_JOBS: usize = 12;
/// `METRICS` scrapes timed per run.
const SCRAPES: usize = 5;

/// The job every client submits, for one die and fault seed.
fn spec_line(die_seed: u64, fault_seed: u64) -> String {
    format!(
        "platform=pi4 reps={JOB_REPS} passes={PASSES} rate=0.05 die_seed={die_seed} \
         fault_seed={fault_seed} temp_c=25 off_ms=0"
    )
}

/// The attack a job runs: `SweepSpec::campaign` with `temp_c=25 off_ms=0`.
fn job_shape() -> AttackShape {
    let cycle = PowerCycleSpec {
        off_duration: Duration::ZERO,
        temperature: Temperature::from_celsius(25.0),
    };
    AttackShape { cycle, ..AttackShape::bench_supply() }
}

/// A daemon serving on a loopback port from its own thread.
struct Daemon {
    addr: String,
    options: ServerOptions,
    serve: JoinHandle<()>,
}

impl Daemon {
    fn start(state_dir: &Path) -> Result<Daemon, String> {
        let options = ServerOptions {
            executors: THREADS,
            state_dir: Some(state_dir.to_path_buf()),
            ..ServerOptions::default()
        };
        let server =
            Server::bind_with("127.0.0.1:0", options.clone()).map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let serve = std::thread::spawn(move || server.serve());
        Ok(Daemon { addr, options, serve })
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| e.to_string())
    }

    fn stop(self) -> Result<(), String> {
        self.connect()?.shutdown().map_err(|e| e.to_string())?;
        self.serve.join().map_err(|_| "serve thread panicked".to_string())
    }

    /// Stops the daemon, then times a new one binding the same state
    /// dir — journal replay included — and shuts that one down too.
    fn restart_ms(self) -> Result<f64, String> {
        let options = self.options.clone();
        self.stop()?;
        let start = Instant::now();
        let server = Server::bind_with("127.0.0.1:0", options).map_err(|e| e.to_string())?;
        let ms = ms_since(start);
        server.registry().shutdown();
        Ok(ms)
    }
}

/// Client-side timings of SUBMIT → WATCH → REPORT round trips.
#[derive(Default)]
struct Service {
    submit_ms: Vec<f64>,
    watch_ms: Vec<f64>,
    report_ms: Vec<f64>,
    job_ms: Vec<f64>,
    /// Reports in completion order.
    reports: Vec<String>,
}

impl Service {
    fn job(&mut self, client: &mut Client, spec: &str) -> Result<(), String> {
        let start = Instant::now();
        let id = client.submit(spec).map_err(|e| e.to_string())?;
        let submitted = Instant::now();
        client.watch(id, |_, _| {}).map_err(|e| e.to_string())?;
        let watched = Instant::now();
        let report = client.report(id).map_err(|e| e.to_string())?;
        self.submit_ms.push((submitted - start).as_secs_f64() * 1e3);
        self.watch_ms.push((watched - submitted).as_secs_f64() * 1e3);
        self.report_ms.push(ms_since(watched));
        self.job_ms.push(ms_since(start));
        self.reports.push(report);
        Ok(())
    }

    fn absorb(&mut self, other: Service) {
        self.submit_ms.extend(other.submit_ms);
        self.watch_ms.extend(other.watch_ms);
        self.report_ms.extend(other.report_ms);
        self.job_ms.extend(other.job_ms);
        self.reports.extend(other.reports);
    }

    /// The `server.*` layer figures: these round trips, plus timed
    /// `METRICS` scrapes, the daemon's own summaries, and a restart.
    fn layer_values(&self, daemon: Daemon) -> Result<Values, String> {
        let mut client = daemon.connect()?;
        let mut scrape_ms = Vec::new();
        let mut text = String::new();
        for _ in 0..SCRAPES {
            let start = Instant::now();
            text = client.metrics().map_err(|e| e.to_string())?;
            scrape_ms.push(ms_since(start));
        }
        drop(client);
        let scrape = Scrape::parse(&text);
        let read = |name: &str, q: &str| {
            summary_quantile(&scrape, name, q).ok_or_else(|| format!("METRICS lacks {name}"))
        };
        let mut v = Values::new();
        v.insert("server.submit_ms", median(&self.submit_ms));
        v.insert("server.watch_ms", median(&self.watch_ms));
        v.insert("server.report_ms", median(&self.report_ms));
        v.insert("server.metrics_scrape_ms", median(&scrape_ms));
        v.insert("server.report_bytes", self.reports.last().map_or(0, String::len) as f64);
        v.insert(
            "server.claim_latency_p50_ms",
            read("voltboot_registry_claim_latency_ns", "0.5")? / 1e6,
        );
        v.insert("server.journal_fsync_p50_us", read("voltboot_journal_fsync_ns", "0.5")? / 1e3);
        v.insert(
            "server.journal_bytes",
            scrape.value("voltboot_journal_appended_bytes_total", &[]).unwrap_or(0.0),
        );
        v.insert("server.restart_replay_ms", daemon.restart_ms()?);
        Ok(v)
    }
}

/// The service path priced on a campaign workload, whose reps never
/// touch it: [`PROBE_JOBS`] jobs on one connection to a fresh daemon,
/// on the die `die_seed`.
pub fn service_probe(die_seed: u64, work: &Path) -> Result<Values, String> {
    let daemon = Daemon::start(&work.join("probe-state"))?;
    let mut client = daemon.connect()?;
    let spec = spec_line(die_seed, mix(die_seed, 1));
    let mut service = Service::default();
    for _ in 0..PROBE_JOBS {
        service.job(&mut client, &spec)?;
    }
    drop(client);
    service.layer_values(daemon)
}

pub fn daemon_small_jobs(seed: u64, seconds: f64, trace: bool, work: &Path) -> Outcome {
    match run(seed, seconds, trace, work) {
        Ok(o) => o,
        Err(e) => Outcome { problems: vec![e], ..Outcome::default() },
    }
}

fn run(seed: u64, seconds: f64, trace: bool, work: &Path) -> Result<Outcome, String> {
    let die_seed = seed;
    let spec = spec_line(die_seed, mix(seed, 1));
    // Each set-up starts cold: a fresh state dir, an empty plane cache,
    // two connections, and one warm-up job that builds both dies.
    let setup = |i: usize| -> Result<(Daemon, Vec<Client>), String> {
        clear_plane_cache();
        let daemon = Daemon::start(&work.join(format!("state-{i}")))?;
        let mut clients = (0..THREADS).map(|_| daemon.connect()).collect::<Result<Vec<_>, _>>()?;
        Service::default().job(&mut clients[0], &spec)?;
        Ok((daemon, clients))
    };
    let teardown = |(daemon, clients): (Daemon, Vec<Client>)| {
        drop(clients);
        let _ = daemon.stop();
    };
    let (setup_s, (daemon, mut clients)) = setup_median(setup, teardown)?;

    let hist = stats::rep_histogram();
    let before = hist.snapshot();
    let mark = CacheMark::now();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut service = Service::default();
    let mut o = Outcome::default();
    std::thread::scope(|s| {
        let loops: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let spec = &spec;
                s.spawn(move || {
                    let mut mine = Service::default();
                    let mut error = None;
                    while start.elapsed() < budget {
                        if let Err(e) = mine.job(client, spec) {
                            error = Some(e);
                            break;
                        }
                    }
                    (mine, error)
                })
            })
            .collect();
        for handle in loops {
            let (mine, error) = handle.join().expect("client thread");
            service.absorb(mine);
            if let Some(e) = error {
                o.failed += 1;
                o.problems.push(format!("job: {e}"));
            }
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let rep_ms = stats::window_ms(&before, &hist.snapshot());
    let mut cache = CacheTally::default();
    cache.add_since(mark);
    let peak_heap_mb = stats::peak_heap_mib();
    drop(clients);

    // Every report must be the bytes the same spec gives in-process.
    let parsed = SweepSpec::parse(spec.split(' ')).map_err(|e| e.to_string())?;
    let reference = parsed.campaign().run_parallel(parsed.threads, parsed.victim());
    let reference_json = reference.to_json();
    let differing = service.reports.iter().filter(|r| **r != reference_json).count();
    if differing > 0 {
        o.problems.push(format!("{differing} reports differ from the in-process run"));
    }
    o.crc64 = voltboot::recover::crc64(reference_json.as_bytes());
    let jobs = service.reports.len() as u64;
    o.attempted = jobs + o.failed;
    end_to_end(jobs * JOB_REPS, wall_s, ("job", &service.job_ms), setup_s, peak_heap_mb, &mut o);
    o.notes.push(format!("rep_p50_ms {} ms ({} reps)", median(&rep_ms), rep_ms.len()));

    if trace {
        cache.layer_values(jobs * JOB_REPS, &mut o.values);
        let unit = Unit {
            shape: job_shape(),
            die_seed,
            fixed_die: false,
            shard: voltboot::campaign::ShardRange::whole(JOB_REPS),
            result: reference,
        };
        result_layers(std::slice::from_ref(&unit), work, &mut o);
        // A job runs its reps one at a time with the whole pool.
        let pool = voltboot_sram::par::thread_count();
        let mut replayer = Replayer::new(false, pool, 0..JOB_REPS as usize);
        replayer.after_unit(&unit, &rep_ms);
        replayer.finish(false, &mut o);
        o.values.extend(service.layer_values(daemon)?);
    } else {
        daemon.stop()?;
    }
    Ok(o)
}
