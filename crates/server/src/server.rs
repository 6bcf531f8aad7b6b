//! The daemon's socket front end: a line protocol over TCP, hand
//! rolled on `std::net` like everything else in the tree.
//!
//! # Protocol
//!
//! On connect the server greets with one line:
//!
//! ```text
//! VOLTBOOT-SERVER v1 ready
//! ```
//!
//! then answers one command per line (space-separated, UTF-8,
//! newline-terminated). Replies start `OK` or `ERR`; `ERR` never
//! closes the connection — a daemon outlives its clients' mistakes.
//!
//! ```text
//! PING                      -> OK pong
//! SUBMIT k=v [k=v ...]      -> OK job=<id> reps=<n> spec: <canonical>
//! STATUS <id>               -> OK job=<id> state=<s> done=<d> total=<t>
//! WATCH <id>                -> PROGRESS job=<id> done=<d> total=<t>   (repeated)
//!                              DONE job=<id> state=<done|failed> [error=<detail>]
//! REPORT <id>               -> OK bytes=<n>
//!                              <n raw bytes of report JSON>
//! MERGE <path> [<path> ...] -> OK bytes=<n>
//!                              <n raw bytes of merged report JSON>
//! STATS                     -> OK conns=... conn_timeouts=... queued=... (one line)
//! METRICS                   -> OK bytes=<n>
//!                              <n raw bytes of Prometheus text exposition>
//! HEALTH                    -> OK ready=<0|1> live=1 journal_writable=... (one line)
//! SHUTDOWN                  -> OK bye                                (daemon exits now)
//! SHUTDOWN drain            -> OK bye drained                        (after running jobs finish)
//! ```
//!
//! `WATCH` streams a `PROGRESS` line whenever the job's lock-free
//! counters move (coalesced; poll interval ~25 ms) and always emits at
//! least one before `DONE`. `MERGE` runs
//! [`voltboot::campaign::merge_shards`] over shard checkpoint files on
//! the server's filesystem; a corrupt or incomplete shard is a typed
//! one-line `ERR`, after which the connection keeps serving.
//!
//! # Hardening
//!
//! Handlers are defended against hostile or wedged clients: every
//! accepted socket gets read/write timeouts
//! ([`ServerOptions::io_timeout`]; a stalled or half-open peer can no
//! longer pin a handler thread forever — it is counted in
//! `conn_timeouts` and dropped), and inbound command lines are bounded
//! at [`MAX_LINE_BYTES`] — the server-side mirror of the client's
//! payload cap — so an unterminated line cannot grow a buffer without
//! limit.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use voltboot::campaign::merge_shards;
use voltboot_telemetry::metrics::LatencyHist;

use crate::registry::{names, sanitize, JobState, Registry, RegistryConfig};
use crate::spec::SweepSpec;
use crate::supervisor::SupervisorConfig;

/// The greeting every connection receives.
pub const GREETING: &str = "VOLTBOOT-SERVER v1 ready";

/// Upper bound on one inbound command line, in bytes. Longer lines are
/// rejected with a typed `ERR` and the connection is closed.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// How often `WATCH` polls a job's progress counters.
const WATCH_POLL: Duration = Duration::from_millis(25);

/// How a daemon binds, persists, and polices its connections.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Detached job-runner threads to spawn.
    pub executors: usize,
    /// State directory for the durable job journal, checkpoints, and
    /// reports; `None` runs in-memory only.
    pub state_dir: Option<PathBuf>,
    /// Per-socket read/write timeout; `None` disables (not
    /// recommended outside tests).
    pub io_timeout: Option<Duration>,
    /// Supervision parameters for `shards=K` jobs.
    pub supervise: SupervisorConfig,
    /// `HEALTH` readiness threshold on the queue depth.
    pub ready_queue_max: u64,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            executors: 1,
            state_dir: None,
            io_timeout: Some(Duration::from_secs(30)),
            supervise: SupervisorConfig::default(),
            ready_queue_max: RegistryConfig::default().ready_queue_max,
        }
    }
}

/// Cached per-verb latency histogram handles, created once per daemon
/// so the hot command loop never touches the metrics registration
/// mutex. Unknown verbs share the `OTHER` cell.
#[derive(Clone)]
struct VerbLatency {
    hists: Arc<Vec<(&'static str, LatencyHist)>>,
}

/// The verbs that get their own latency cell.
const VERBS: [&str; 10] = [
    "PING", "SUBMIT", "STATUS", "WATCH", "REPORT", "MERGE", "STATS", "METRICS", "HEALTH",
    "SHUTDOWN",
];

impl VerbLatency {
    fn register(registry: &Registry) -> VerbLatency {
        let hists = VERBS
            .iter()
            .chain(std::iter::once(&"OTHER"))
            .map(|verb| {
                (
                    *verb,
                    registry.metrics().histogram(
                        names::VERB_LATENCY,
                        "Wall-clock service time per protocol verb, nanoseconds",
                        &[("verb", verb)],
                    ),
                )
            })
            .collect();
        VerbLatency { hists: Arc::new(hists) }
    }

    /// Records `elapsed` against `verb` (`WATCH` includes the whole
    /// stream; `SHUTDOWN drain` includes the drain).
    fn observe(&self, verb: &str, elapsed: Duration) {
        let hist = self
            .hists
            .iter()
            .find(|(name, _)| *name == verb)
            .or_else(|| self.hists.last())
            .map(|(_, hist)| hist);
        if let Some(hist) = hist {
            hist.observe_duration(elapsed);
        }
    }
}

/// A bound daemon: listener plus the registry its executors drain.
pub struct Server {
    registry: Arc<Registry>,
    listener: TcpListener,
    io_timeout: Option<Duration>,
    verb_latency: VerbLatency,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and spawns `executors`
    /// detached job-runner threads, with default options (no state
    /// dir, 30 s socket timeouts).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str, executors: usize) -> std::io::Result<Server> {
        Self::bind_with(addr, ServerOptions { executors, ..ServerOptions::default() })
    }

    /// Binds `addr` with full options. With a state dir, the job
    /// journal is replayed before the listener accepts anything, so
    /// recovered jobs are already queued when the first client asks.
    ///
    /// # Errors
    ///
    /// Bind failure, or a journal open/replay I/O failure.
    pub fn bind_with(addr: &str, options: ServerOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let registry = Registry::with_config(RegistryConfig {
            state_dir: options.state_dir.clone(),
            supervise: options.supervise.clone(),
            ready_queue_max: options.ready_queue_max,
        })
        .map_err(|e| std::io::Error::other(e.to_string()))?;
        let registry = Arc::new(registry);
        registry.spawn_executors(options.executors);
        let verb_latency = VerbLatency::register(&registry);
        Ok(Server { registry, listener, io_timeout: options.io_timeout, verb_latency })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates `TcpListener::local_addr` failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared registry (for embedding the daemon in-process).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Accepts connections until a client sends `SHUTDOWN`, handling
    /// each connection on its own detached thread.
    pub fn serve(self) {
        let addr = self.listener.local_addr().ok();
        for stream in self.listener.incoming() {
            if self.registry.is_shutdown() {
                break;
            }
            let Ok(stream) = stream else { continue };
            let registry = Arc::clone(&self.registry);
            let io_timeout = self.io_timeout;
            let verb_latency = self.verb_latency.clone();
            let wake_addr = addr;
            std::thread::Builder::new()
                .name("voltboot-conn".to_string())
                .spawn(move || {
                    registry.stats().conn_opened.inc();
                    registry.stats().conn_active.add(1.0);
                    // A connection handler that panics (a client
                    // speaking garbage in a way we missed) must never
                    // take the daemon down with it.
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        handle_connection(&registry, stream, io_timeout, &verb_latency)
                    }));
                    if let Ok(Err(e)) = &result {
                        if is_timeout(e) {
                            registry.stats().conn_timeouts.inc();
                        }
                    }
                    registry.stats().conn_active.add(-1.0);
                    // If this connection flagged shutdown, poke the
                    // accept loop awake so `serve` can return.
                    if registry.is_shutdown() {
                        if let Some(addr) = wake_addr {
                            let _ = TcpStream::connect(addr);
                        }
                    }
                })
                .expect("spawn connection thread");
        }
    }
}

/// Whether an I/O error is a socket timeout (platforms disagree on
/// the kind non-blocking timeouts surface as).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// One bounded command-line read.
enum LineRead {
    Line(String),
    Eof,
    TooLong,
}

/// Reads one newline-terminated command line, refusing to buffer more
/// than [`MAX_LINE_BYTES`] of an unterminated line.
fn read_command_line(reader: &mut BufReader<TcpStream>) -> std::io::Result<LineRead> {
    let mut buf = Vec::new();
    let n = reader.by_ref().take((MAX_LINE_BYTES + 1) as u64).read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(LineRead::Eof);
    }
    if buf.len() > MAX_LINE_BYTES && buf.last() != Some(&b'\n') {
        return Ok(LineRead::TooLong);
    }
    Ok(LineRead::Line(String::from_utf8_lossy(&buf).trim().to_string()))
}

fn handle_connection(
    registry: &Arc<Registry>,
    stream: TcpStream,
    io_timeout: Option<Duration>,
    verb_latency: &VerbLatency,
) -> std::io::Result<()> {
    stream.set_read_timeout(io_timeout)?;
    stream.set_write_timeout(io_timeout)?;
    // Replies go out in several writes; with Nagle on, the tail of one
    // waits for the client's delayed ACK of the head (tens of ms a verb).
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{GREETING}")?;
    writer.flush()?;
    loop {
        let line = match read_command_line(&mut reader)? {
            LineRead::Line(line) => line,
            LineRead::Eof => return Ok(()),
            LineRead::TooLong => {
                registry.stats().conn_line_overflows.inc();
                let _ = writeln!(writer, "ERR command line exceeds {MAX_LINE_BYTES} bytes");
                return Ok(());
            }
        };
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let verb = parts.next().unwrap_or("");
        let rest: Vec<&str> = parts.collect();
        let started = Instant::now();
        match verb {
            "PING" => writeln!(writer, "OK pong")?,
            "SUBMIT" => submit(registry, &rest, &mut writer)?,
            "STATUS" => status(registry, &rest, &mut writer)?,
            "WATCH" => watch(registry, &rest, &mut writer)?,
            "REPORT" => report(registry, &rest, &mut writer)?,
            "MERGE" => merge(&rest, &mut writer)?,
            "STATS" => {
                let (queued, running, done, failed) = registry.job_counts();
                writeln!(
                    writer,
                    "OK {} queued={queued} running={running} done={done} failed={failed}",
                    registry.stats().render()
                )?;
            }
            "METRICS" => send_payload(&mut writer, &registry.render_metrics())?,
            "HEALTH" => writeln!(writer, "OK {}", registry.health().render())?,
            "SHUTDOWN" => {
                if rest.first().copied() == Some("drain") {
                    // Block this handler until every running job has
                    // journaled a terminal state, then exit.
                    registry.drain();
                    writeln!(writer, "OK bye drained")?;
                } else {
                    writeln!(writer, "OK bye")?;
                    registry.shutdown();
                }
                verb_latency.observe(verb, started.elapsed());
                writer.flush()?;
                return Ok(());
            }
            other => writeln!(writer, "ERR unknown command {other:?}")?,
        }
        verb_latency.observe(verb, started.elapsed());
        writer.flush()?;
    }
}

fn submit(registry: &Arc<Registry>, rest: &[&str], w: &mut TcpStream) -> std::io::Result<()> {
    match SweepSpec::parse(rest.iter().copied()) {
        Ok(spec) => {
            let reps = spec.reps;
            let canonical = spec.canonical();
            match registry.submit(spec) {
                Ok(id) => writeln!(w, "OK job={id} reps={reps} spec: {canonical}"),
                Err(detail) => writeln!(w, "ERR {}", sanitize(&detail)),
            }
        }
        Err(e) => writeln!(w, "ERR {}", sanitize(&e.to_string())),
    }
}

fn parse_job_id(rest: &[&str]) -> Result<u64, String> {
    match rest {
        [one] => one.parse().map_err(|_| format!("job id does not parse from {one:?}")),
        _ => Err("expected exactly one job id".to_string()),
    }
}

fn status(registry: &Arc<Registry>, rest: &[&str], w: &mut TcpStream) -> std::io::Result<()> {
    let id = match parse_job_id(rest) {
        Ok(id) => id,
        Err(e) => return writeln!(w, "ERR {e}"),
    };
    match registry.snapshot(id) {
        Some(snap) => writeln!(
            w,
            "OK job={id} state={} done={} total={}",
            snap.state.token(),
            snap.done,
            snap.total
        ),
        None => writeln!(w, "ERR no such job {id}"),
    }
}

fn watch(registry: &Arc<Registry>, rest: &[&str], w: &mut TcpStream) -> std::io::Result<()> {
    let id = match parse_job_id(rest) {
        Ok(id) => id,
        Err(e) => return writeln!(w, "ERR {e}"),
    };
    if registry.snapshot(id).is_none() {
        return writeln!(w, "ERR no such job {id}");
    }
    let mut last = None;
    loop {
        let Some(snap) = registry.snapshot(id) else {
            return writeln!(w, "ERR no such job {id}");
        };
        let now = (snap.done, snap.total);
        if last != Some(now) {
            writeln!(w, "PROGRESS job={id} done={} total={}", snap.done, snap.total)?;
            w.flush()?;
            last = Some(now);
        }
        if snap.state.is_terminal() {
            return match snap.state {
                JobState::Failed(detail) => {
                    writeln!(w, "DONE job={id} state=failed error={}", sanitize(&detail))
                }
                _ => writeln!(w, "DONE job={id} state=done"),
            };
        }
        std::thread::sleep(WATCH_POLL);
    }
}

fn report(registry: &Arc<Registry>, rest: &[&str], w: &mut TcpStream) -> std::io::Result<()> {
    let id = match parse_job_id(rest) {
        Ok(id) => id,
        Err(e) => return writeln!(w, "ERR {e}"),
    };
    match registry.report(id) {
        None => writeln!(w, "ERR no such job {id}"),
        Some(Err(detail)) => writeln!(w, "ERR job {id} failed: {}", sanitize(&detail)),
        Some(Ok(None)) => {
            let state = registry.snapshot(id).map_or("gone", |s| s.state.token());
            writeln!(w, "ERR job {id} not finished (state={state})")
        }
        Some(Ok(Some(report))) => send_payload(w, &report),
    }
}

fn merge(rest: &[&str], w: &mut TcpStream) -> std::io::Result<()> {
    if rest.is_empty() {
        return writeln!(w, "ERR MERGE needs at least one shard checkpoint path");
    }
    let paths: Vec<PathBuf> = rest.iter().map(PathBuf::from).collect();
    match merge_shards(&paths) {
        Ok(merged) => send_payload(w, &merged.to_json()),
        Err(e) => writeln!(w, "ERR merge failed: {}", sanitize(&e.to_string())),
    }
}

/// Ships a multi-line payload: an `OK bytes=<n>` header line, then
/// exactly `n` raw bytes. Length-prefixing keeps the line protocol
/// parseable around arbitrary JSON bodies.
fn send_payload(w: &mut TcpStream, payload: &str) -> std::io::Result<()> {
    writeln!(w, "OK bytes={}", payload.len())?;
    w.write_all(payload.as_bytes())
}
