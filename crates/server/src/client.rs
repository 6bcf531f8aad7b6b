//! Caller-side stub for the daemon's line protocol — used by the
//! bench sweep binary's `--connect` mode and by the server's
//! integration tests.
//!
//! Transport failures (connection refused, reset, timeout, a torn
//! payload) are classified *transient*; protocol `ERR` replies and
//! malformed frames are *permanent*. [`Client::watch_reconnecting`]
//! and [`Client::report_reconnecting`] retry transient failures with
//! the campaign's saturating [`RetryPolicy`] backoff, reconnecting
//! from scratch each time — so a `campaign --connect` watch survives
//! a daemon restart mid-stream and resumes the same job id (WATCH and
//! REPORT are read-only and idempotent).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use voltboot::campaign::RetryPolicy;

/// Upper bound on one length-prefixed payload a client will accept. A
/// `bytes=` header above this is a typed (permanent) error instead of
/// an unchecked allocation. Mirrored server-side by the inbound
/// command-line bound ([`crate::server::MAX_LINE_BYTES`]).
pub const MAX_PAYLOAD_BYTES: usize = 64 << 20;

/// A failed client operation: either a *transport* failure (I/O —
/// worth retrying against a restarted daemon) or a *protocol* failure
/// (an `ERR` reply or malformed frame — retrying cannot help). One
/// line, ready to print.
#[derive(Debug)]
pub struct ClientError {
    detail: String,
    transient: bool,
}

impl ClientError {
    fn protocol(detail: impl Into<String>) -> ClientError {
        ClientError { detail: detail.into(), transient: false }
    }

    fn transport(detail: impl Into<String>) -> ClientError {
        ClientError { detail: detail.into(), transient: true }
    }

    /// Whether retrying (with a fresh connection) could succeed.
    pub fn is_transient(&self) -> bool {
        self.transient
    }

    /// The one-line failure detail.
    pub fn detail(&self) -> &str {
        &self.detail
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "server protocol error: {}", self.detail)
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::transport(format!("i/o: {e}"))
    }
}

/// How reconnecting helpers pace their retries: the campaign's own
/// saturating exponential backoff, capped per sleep.
#[derive(Debug, Clone, Copy)]
pub struct ReconnectPolicy {
    /// Attempt budget (`max_attempts`) and initial backoff.
    pub retry: RetryPolicy,
    /// Upper bound on one backoff sleep.
    pub backoff_cap: Duration,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            retry: RetryPolicy { max_attempts: 8, initial_backoff_ns: 100_000_000 },
            backoff_cap: Duration::from_secs(5),
        }
    }
}

impl ReconnectPolicy {
    /// The capped backoff sleep before retry `attempt` (0-based).
    pub fn backoff(&self, attempt: u32) -> Duration {
        Duration::from_nanos(self.retry.backoff_ns(attempt)).min(self.backoff_cap)
    }
}

/// One connection to a sweep daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects and consumes the greeting line.
    ///
    /// # Errors
    ///
    /// Connection failure or a non-greeting first line.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        // Each command is a line and its newline in separate writes;
        // Nagle would hold the newline back for the server's delayed ACK.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        let mut client = Client { reader: BufReader::new(stream), writer };
        let greeting = client.read_line()?;
        if !greeting.starts_with("VOLTBOOT-SERVER") {
            return Err(ClientError::protocol(format!("unexpected greeting {greeting:?}")));
        }
        Ok(client)
    }

    fn read_line(&mut self) -> Result<String, ClientError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::transport("server closed the connection".to_string()));
        }
        if !line.ends_with('\n') {
            // The stream died mid-line: a torn reply, not a protocol
            // violation — reconnecting may well succeed.
            return Err(ClientError::transport(format!("connection torn mid-line: {line:?}")));
        }
        Ok(line.trim_end_matches(['\n', '\r']).to_string())
    }

    fn command(&mut self, line: &str) -> Result<String, ClientError> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        self.read_line()
    }

    /// A reply that must be `OK ...`; `ERR` becomes a typed error.
    fn expect_ok(reply: String) -> Result<String, ClientError> {
        match reply.strip_prefix("OK") {
            Some(rest) => Ok(rest.trim_start().to_string()),
            None => Err(ClientError::protocol(reply)),
        }
    }

    /// `PING` → the pong body.
    ///
    /// # Errors
    ///
    /// Transport failure or an `ERR` reply.
    pub fn ping(&mut self) -> Result<String, ClientError> {
        Self::expect_ok(self.command("PING")?)
    }

    /// `SUBMIT <tokens>` → the new job id.
    ///
    /// # Errors
    ///
    /// Transport failure, an `ERR` reply (bad spec, draining daemon),
    /// or a reply missing the `job=<id>` field.
    pub fn submit(&mut self, spec_tokens: &str) -> Result<u64, ClientError> {
        let body = Self::expect_ok(self.command(&format!("SUBMIT {spec_tokens}"))?)?;
        body.split_whitespace()
            .find_map(|tok| tok.strip_prefix("job="))
            .and_then(|id| id.parse().ok())
            .ok_or_else(|| ClientError::protocol(format!("SUBMIT reply missing job id: {body:?}")))
    }

    /// `WATCH <id>`, invoking `on_progress(done, total)` per progress
    /// line, until the terminal `DONE` line; returns the final state
    /// token (`"done"` / `"failed"`), with the failure detail folded
    /// into the error case.
    ///
    /// # Errors
    ///
    /// Transport failure, an `ERR` reply, or a failed job.
    pub fn watch(
        &mut self,
        id: u64,
        mut on_progress: impl FnMut(u64, u64),
    ) -> Result<(), ClientError> {
        writeln!(self.writer, "WATCH {id}")?;
        self.writer.flush()?;
        loop {
            let line = self.read_line()?;
            if let Some(rest) = line.strip_prefix("PROGRESS ") {
                let field = |name: &str| {
                    rest.split_whitespace()
                        .find_map(|tok| tok.strip_prefix(name))
                        .and_then(|v| v.parse::<u64>().ok())
                };
                if let (Some(done), Some(total)) = (field("done="), field("total=")) {
                    on_progress(done, total);
                }
                continue;
            }
            if let Some(rest) = line.strip_prefix("DONE ") {
                if rest.contains("state=done") {
                    return Ok(());
                }
                return Err(ClientError::protocol(format!("job {id} failed: {rest}")));
            }
            return Err(ClientError::protocol(format!("unexpected WATCH line {line:?}")));
        }
    }

    /// `REPORT <id>` → the raw report bytes.
    ///
    /// # Errors
    ///
    /// Transport failure, an `ERR` reply (job unknown, unfinished, or
    /// failed), or a malformed/oversized length header.
    pub fn report(&mut self, id: u64) -> Result<String, ClientError> {
        self.fetch_payload(&format!("REPORT {id}"))
    }

    /// `MERGE <paths>` → the merged report bytes.
    ///
    /// # Errors
    ///
    /// Transport failure or an `ERR` reply (corrupt, incomplete, or
    /// mismatched shards).
    pub fn merge(&mut self, paths: &[String]) -> Result<String, ClientError> {
        self.fetch_payload(&format!("MERGE {}", paths.join(" ")))
    }

    /// `STATS` → the daemon's one-line counters.
    ///
    /// # Errors
    ///
    /// Transport failure or an `ERR` reply.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        Self::expect_ok(self.command("STATS")?)
    }

    /// `METRICS` → the full Prometheus text exposition (daemon plus
    /// process-global families).
    ///
    /// # Errors
    ///
    /// Transport failure, an `ERR` reply, or a malformed/oversized
    /// length header.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        self.fetch_payload("METRICS")
    }

    /// `HEALTH` → the one-line liveness/readiness body
    /// (`ready=… journal_writable=… …`).
    ///
    /// # Errors
    ///
    /// Transport failure or an `ERR` reply.
    pub fn health(&mut self) -> Result<String, ClientError> {
        Self::expect_ok(self.command("HEALTH")?)
    }

    /// `SHUTDOWN` → the goodbye body (immediate exit).
    ///
    /// # Errors
    ///
    /// Transport failure or an `ERR` reply.
    pub fn shutdown(&mut self) -> Result<String, ClientError> {
        Self::expect_ok(self.command("SHUTDOWN")?)
    }

    /// `SHUTDOWN drain` → the goodbye body, sent only after every
    /// running job has journaled a terminal state.
    ///
    /// # Errors
    ///
    /// Transport failure or an `ERR` reply.
    pub fn shutdown_drain(&mut self) -> Result<String, ClientError> {
        Self::expect_ok(self.command("SHUTDOWN drain")?)
    }

    /// `WATCH` that survives transient transport failures — a dropped
    /// connection, a daemon restart — by reconnecting with saturating
    /// backoff and re-watching the same job id. Consecutive-failure
    /// count resets whenever a progress line lands, so a long campaign
    /// may outlive many restarts; `policy.retry.max_attempts`
    /// *consecutive* dead reconnects give up with the last error.
    ///
    /// # Errors
    ///
    /// A permanent protocol error (unknown job, failed job), or the
    /// last transport error after the attempt budget is exhausted.
    pub fn watch_reconnecting(
        addr: &str,
        id: u64,
        policy: ReconnectPolicy,
        mut on_progress: impl FnMut(u64, u64),
    ) -> Result<(), ClientError> {
        let progressed = std::cell::Cell::new(false);
        let mut failures = 0u32;
        loop {
            let result = Client::connect(addr).and_then(|mut client| {
                client.watch(id, |done, total| {
                    progressed.set(true);
                    on_progress(done, total);
                })
            });
            match result {
                Ok(()) => return Ok(()),
                Err(e) if e.is_transient() => {
                    if progressed.take() {
                        failures = 0;
                    }
                    failures += 1;
                    if failures >= policy.retry.max_attempts {
                        return Err(e);
                    }
                    std::thread::sleep(policy.backoff(failures - 1));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// `REPORT` that survives transient transport failures by
    /// reconnecting with saturating backoff (REPORT is read-only, so
    /// the retry is idempotent).
    ///
    /// # Errors
    ///
    /// A permanent protocol error, or the last transport error after
    /// the attempt budget is exhausted.
    pub fn report_reconnecting(
        addr: &str,
        id: u64,
        policy: ReconnectPolicy,
    ) -> Result<String, ClientError> {
        let mut failures = 0u32;
        loop {
            match Client::connect(addr).and_then(|mut client| client.report(id)) {
                Ok(report) => return Ok(report),
                Err(e) if e.is_transient() => {
                    failures += 1;
                    if failures >= policy.retry.max_attempts {
                        return Err(e);
                    }
                    std::thread::sleep(policy.backoff(failures - 1));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends a command whose `OK bytes=<n>` reply is followed by `n`
    /// raw payload bytes, and reads exactly that payload. Headers
    /// above [`MAX_PAYLOAD_BYTES`] are rejected before any allocation.
    fn fetch_payload(&mut self, command: &str) -> Result<String, ClientError> {
        let body = Self::expect_ok(self.command(command)?)?;
        let bytes: usize = body
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("bytes="))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| {
                ClientError::protocol(format!("payload header missing bytes=: {body:?}"))
            })?;
        if bytes > MAX_PAYLOAD_BYTES {
            return Err(ClientError::protocol(format!(
                "payload length {bytes} exceeds the {MAX_PAYLOAD_BYTES}-byte cap"
            )));
        }
        let mut payload = vec![0u8; bytes];
        self.reader.read_exact(&mut payload)?;
        String::from_utf8(payload)
            .map_err(|_| ClientError::protocol("payload is not valid UTF-8".to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    /// A single-connection fake daemon that greets and then answers
    /// every command line with the fixed `replies` in order.
    fn fake_server(replies: Vec<String>) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let reader = BufReader::new(stream);
            writeln!(writer, "VOLTBOOT-SERVER v1 ready").unwrap();
            let mut replies = replies.into_iter();
            for line in reader.lines() {
                if line.is_err() {
                    break;
                }
                match replies.next() {
                    Some(reply) => {
                        writer.write_all(reply.as_bytes()).unwrap();
                        writer.flush().unwrap();
                    }
                    None => break,
                }
            }
        });
        addr
    }

    #[test]
    fn oversized_payload_header_is_a_typed_permanent_error() {
        let addr = fake_server(vec![format!("OK bytes={}\n", MAX_PAYLOAD_BYTES as u64 + 1)]);
        let mut client = Client::connect(&addr).unwrap();
        let err = client.report(1).unwrap_err();
        assert!(!err.is_transient(), "an oversized header must not be retried");
        assert!(err.detail().contains("exceeds"), "got: {err}");
    }

    #[test]
    fn in_bounds_payload_still_flows() {
        let addr = fake_server(vec!["OK bytes=5\nhello".to_string()]);
        let mut client = Client::connect(&addr).unwrap();
        assert_eq!(client.report(1).unwrap(), "hello");
    }

    #[test]
    fn err_replies_are_permanent_and_io_failures_transient() {
        let addr = fake_server(vec!["ERR no such job 7\n".to_string()]);
        let mut client = Client::connect(&addr).unwrap();
        let err = client.report(7).unwrap_err();
        assert!(!err.is_transient());

        let io_err: ClientError =
            std::io::Error::new(std::io::ErrorKind::ConnectionReset, "x").into();
        assert!(io_err.is_transient());
    }

    #[test]
    fn report_reconnecting_gives_up_after_the_attempt_budget() {
        // Nothing listens here: every attempt is a transient failure.
        let policy = ReconnectPolicy {
            retry: RetryPolicy { max_attempts: 3, initial_backoff_ns: 1_000_000 },
            backoff_cap: Duration::from_millis(5),
        };
        let err = Client::report_reconnecting("127.0.0.1:1", 1, policy).unwrap_err();
        assert!(err.is_transient());
    }
}
