//! The durable job journal: an append-only, CRC-64-sealed record log
//! that lets the sweep daemon survive its own death.
//!
//! Every job lifecycle transition — accepted, claimed, finished,
//! failed — is written through to `jobs.journal` inside the daemon's
//! `--state-dir` *before* the in-memory registry reflects it. On
//! restart, [`Journal::open`] replays the log and hands the recovered
//! event stream back to the registry, which re-queues every job that
//! was submitted but never reached a terminal state.
//!
//! # Record format
//!
//! One compact JSON object per line, sealed by the same
//! [`recover::seal`] as a campaign checkpoint: the trailing `crc64` key
//! holds a CRC-64/XZ over the compact rendering of every preceding key.
//!
//! ```text
//! {"voltboot_journal":1,"seq":0,"event":"submitted","id":1,"spec":"platform=pi4 ...","crc64":123}
//! ```
//!
//! `seq` is a gapless record counter starting at 0. Replay accepts the
//! longest prefix of newline-terminated records that parse, verify
//! their seal, and carry the expected sequence number; everything
//! after the first bad byte — a torn tail from a crash mid-append, a
//! flipped bit, a record from a different journal — is discarded and
//! the file is truncated back to the valid prefix, so the next append
//! continues a clean log. Replay never panics on any input.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

use voltboot::recover;
use voltboot_telemetry::{json, parse};

/// File name of the journal inside a daemon's state directory.
pub const JOURNAL_FILE: &str = "jobs.journal";

/// Journal format version, bumped on any incompatible record change.
const JOURNAL_VERSION: u64 = 1;

/// One durable fact about a job's lifecycle, in the order the daemon
/// learned it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalEvent {
    /// `SUBMIT` accepted: the job exists, with this canonical spec.
    Submitted {
        /// The job's id.
        id: u64,
        /// The spec's canonical `key=value` rendering.
        spec: String,
    },
    /// An executor claimed the job and began running it.
    Started {
        /// The job's id.
        id: u64,
    },
    /// The job finished; its report lives beside the journal.
    Done {
        /// The job's id.
        id: u64,
    },
    /// The job failed with this one-line detail.
    Failed {
        /// The job's id.
        id: u64,
        /// Protocol-safe failure detail.
        detail: String,
    },
}

impl JournalEvent {
    /// The job this event is about.
    pub fn id(&self) -> u64 {
        match self {
            JournalEvent::Submitted { id, .. }
            | JournalEvent::Started { id }
            | JournalEvent::Done { id }
            | JournalEvent::Failed { id, .. } => *id,
        }
    }

    fn token(&self) -> &'static str {
        match self {
            JournalEvent::Submitted { .. } => "submitted",
            JournalEvent::Started { .. } => "started",
            JournalEvent::Done { .. } => "done",
            JournalEvent::Failed { .. } => "failed",
        }
    }
}

/// A journal I/O or encoding failure: one line, ready to print.
#[derive(Debug)]
pub struct JournalError(pub String);

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job journal: {}", self.0)
    }
}

impl std::error::Error for JournalError {}

/// What [`Journal::open`] found while replaying an existing log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Valid records replayed.
    pub records: u64,
    /// Torn or corrupt tail bytes discarded (the file was truncated
    /// back to its valid prefix).
    pub discarded_bytes: u64,
}

/// An open, append-mode journal. Every [`Journal::append`] writes one
/// sealed record line, flushes, and syncs before returning — the
/// write-through contract the registry's durability depends on.
pub struct Journal {
    file: File,
    seq: u64,
}

impl Journal {
    /// Opens (creating if absent) the journal in `state_dir`, replaying
    /// any existing records. Returns the journal positioned for
    /// appending, the recovered events, and replay accounting. A torn
    /// or corrupt tail is truncated away, never panicked on.
    ///
    /// # Errors
    ///
    /// Directory creation, file open, or truncation failure.
    pub fn open(
        state_dir: &Path,
    ) -> Result<(Journal, Vec<JournalEvent>, ReplayStats), JournalError> {
        std::fs::create_dir_all(state_dir)
            .map_err(|e| JournalError(format!("create {}: {e}", state_dir.display())))?;
        let path = state_dir.join(JOURNAL_FILE);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(JournalError(format!("read {}: {e}", path.display()))),
        };
        let (events, valid_len) = replay(&bytes);
        let stats = ReplayStats {
            records: events.len() as u64,
            discarded_bytes: (bytes.len() - valid_len) as u64,
        };
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| JournalError(format!("open {}: {e}", path.display())))?;
        if valid_len < bytes.len() {
            file.set_len(valid_len as u64)
                .map_err(|e| JournalError(format!("truncate {}: {e}", path.display())))?;
        }
        let seq = events.len() as u64;
        Ok((Journal { file, seq }, events, stats))
    }

    /// Appends one sealed record and syncs it to disk, returning the
    /// bytes written (record line including its newline) — the metrics
    /// plane counts them.
    ///
    /// # Errors
    ///
    /// Write, flush, or sync failure; the record may be torn on disk,
    /// which the next [`Journal::open`] detects and discards.
    pub fn append(&mut self, event: &JournalEvent) -> Result<u64, JournalError> {
        let line = render_record(self.seq, event);
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.flush())
            .and_then(|()| self.file.sync_data())
            .map_err(|e| JournalError(format!("append: {e}")))?;
        self.seq += 1;
        Ok(line.len() as u64)
    }

    /// Records appended or replayed so far (the next record's `seq`).
    pub fn len(&self) -> u64 {
        self.seq
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.seq == 0
    }
}

/// Renders one record line (trailing newline included), sealed by
/// [`recover::seal`] as checkpoints are.
fn render_record(seq: u64, event: &JournalEvent) -> String {
    let mut pairs = vec![
        ("voltboot_journal", json::Value::UInt(JOURNAL_VERSION)),
        ("seq", json::Value::UInt(seq)),
        ("event", json::Value::Str(event.token().to_string())),
        ("id", json::Value::UInt(event.id())),
    ];
    match event {
        JournalEvent::Submitted { spec, .. } => {
            pairs.push(("spec", json::Value::Str(spec.clone())));
        }
        JournalEvent::Failed { detail, .. } => {
            pairs.push(("detail", json::Value::Str(detail.clone())));
        }
        JournalEvent::Started { .. } | JournalEvent::Done { .. } => {}
    }
    let mut line = recover::seal(pairs).render();
    line.push('\n');
    line
}

/// Replays `bytes`, returning the recovered events and the byte length
/// of the valid prefix. Stops at the first line that is unterminated,
/// non-UTF-8, unparseable, unsealed, or out of sequence.
fn replay(bytes: &[u8]) -> (Vec<JournalEvent>, usize) {
    let mut events = Vec::new();
    let mut consumed = 0usize;
    let mut offset = 0usize;
    while let Some(nl) = bytes[offset..].iter().position(|&b| b == b'\n') {
        let line = &bytes[offset..offset + nl];
        let Ok(text) = std::str::from_utf8(line) else { break };
        let Ok(event) = parse_record(text, events.len() as u64) else { break };
        events.push(event);
        consumed = offset + nl + 1;
        offset = consumed;
    }
    // A final line without its newline is by definition torn.
    (events, consumed)
}

/// Parses and verifies one record line against its expected sequence
/// number.
fn parse_record(line: &str, expected_seq: u64) -> Result<JournalEvent, String> {
    let v = recover::unseal(parse::parse(line).map_err(|e| e.to_string())?)?;
    if v.get("voltboot_journal").and_then(json::Value::as_u64) != Some(JOURNAL_VERSION) {
        return Err("unknown journal version".to_string());
    }
    if v.get("seq").and_then(json::Value::as_u64) != Some(expected_seq) {
        return Err("sequence gap".to_string());
    }
    let id = v.get("id").and_then(json::Value::as_u64).ok_or("record missing id")?;
    match v.get("event").and_then(json::Value::as_str) {
        Some("submitted") => {
            let spec = v
                .get("spec")
                .and_then(json::Value::as_str)
                .ok_or("submitted record missing spec")?;
            Ok(JournalEvent::Submitted { id, spec: spec.to_string() })
        }
        Some("started") => Ok(JournalEvent::Started { id }),
        Some("done") => Ok(JournalEvent::Done { id }),
        Some("failed") => {
            let detail = v
                .get("detail")
                .and_then(json::Value::as_str)
                .ok_or("failed record missing detail")?;
            Ok(JournalEvent::Failed { id, detail: detail.to_string() })
        }
        _ => Err("unknown event".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("voltboot_journal_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn sample_events() -> Vec<JournalEvent> {
        vec![
            JournalEvent::Submitted { id: 1, spec: "platform=pi4 rate=0.2 reps=4".to_string() },
            JournalEvent::Started { id: 1 },
            JournalEvent::Submitted { id: 2, spec: "platform=pi3 rate=0 reps=2".to_string() },
            JournalEvent::Done { id: 1 },
            JournalEvent::Failed { id: 2, detail: "worker panicked: boom".to_string() },
        ]
    }

    #[test]
    fn append_then_reopen_replays_exactly() {
        let dir = scratch_dir("roundtrip");
        let events = sample_events();
        {
            let (mut journal, replayed, stats) = Journal::open(&dir).unwrap();
            assert!(replayed.is_empty());
            assert_eq!(stats, ReplayStats::default());
            for event in &events {
                journal.append(event).unwrap();
            }
            assert_eq!(journal.len(), events.len() as u64);
        }
        let (journal, replayed, stats) = Journal::open(&dir).unwrap();
        assert_eq!(replayed, events);
        assert_eq!(stats.records, events.len() as u64);
        assert_eq!(stats.discarded_bytes, 0);
        assert_eq!(journal.len(), events.len() as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let dir = scratch_dir("torn");
        {
            let (mut journal, _, _) = Journal::open(&dir).unwrap();
            for event in sample_events() {
                journal.append(&event).unwrap();
            }
        }
        let path = dir.join(JOURNAL_FILE);
        // Tear the last record in half, newline gone with it.
        let bytes = std::fs::read(&path).unwrap();
        let keep = bytes.len() - 20;
        std::fs::write(&path, &bytes[..keep]).unwrap();

        let (mut journal, replayed, stats) = Journal::open(&dir).unwrap();
        assert_eq!(replayed, sample_events()[..4].to_vec());
        assert!(stats.discarded_bytes > 0);
        // The tail was truncated away; the log accepts new records.
        journal.append(&JournalEvent::Done { id: 2 }).unwrap();
        drop(journal);
        let (_, replayed, stats) = Journal::open(&dir).unwrap();
        let mut want = sample_events()[..4].to_vec();
        want.push(JournalEvent::Done { id: 2 });
        assert_eq!(replayed, want);
        assert_eq!(stats.discarded_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_deleted_middle_line_stops_replay_at_the_gap() {
        let dir = scratch_dir("gap");
        {
            let (mut journal, _, _) = Journal::open(&dir).unwrap();
            for event in sample_events() {
                journal.append(&event).unwrap();
            }
        }
        let path = dir.join(JOURNAL_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let spliced: String =
            [lines[0], lines[1], lines[3], lines[4]].iter().map(|l| format!("{l}\n")).collect();
        std::fs::write(&path, spliced).unwrap();
        let (_, replayed, _) = Journal::open(&dir).unwrap();
        // Records after the gap carry wrong sequence numbers and are
        // discarded — replay never resurrects a reordered history.
        assert_eq!(replayed, sample_events()[..2].to_vec());
        std::fs::remove_dir_all(&dir).ok();
    }
}
