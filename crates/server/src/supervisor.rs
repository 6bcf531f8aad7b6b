//! Supervised shard dispatch: the daemon launches `shard` worker
//! processes for a job's rep ranges and babysits them to completion.
//!
//! A job submitted with `shards=K` (K > 0) is split into K contiguous
//! rep ranges. Each range gets its own supervising thread that spawns
//! `voltboot-server shard --start A --end B --checkpoint PATH <spec>`
//! and polls the shard's checkpoint for liveness: the checkpoint's
//! `next_rep` advancing *is* the heartbeat (each advance also bumps
//! the job's rep counter, so `WATCH` streams supervised jobs exactly
//! like in-process ones).
//!
//! Failure handling, per shard:
//!
//! * **Missed heartbeat** — the checkpoint stops advancing for longer
//!   than the deadline: the worker is killed and retried.
//! * **Nonzero exit / exit 0 with an incomplete checkpoint** — retried.
//! * **Corrupt checkpoint** — discarded before the retry, so the next
//!   attempt starts clean instead of wedging on garbage.
//!
//! Retries back off with the campaign's own saturating
//! [`RetryPolicy`]; a shard that exhausts its attempts quarantines the
//! whole job as Failed-degraded instead of hanging the executor.
//! Because shard checkpoints are deterministic and merge-composable,
//! any interleaving of crashes and retries converges to a merged
//! report byte-identical to one uninterrupted sequential run.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use voltboot::campaign::{merge_shards, Checkpoint, RetryPolicy, ShardRange};
use voltboot_telemetry::metrics::Gauge;

use crate::registry::{names, sanitize, shard_checkpoint_path, DaemonStats};
use crate::spec::SweepSpec;

/// How shard worker processes are launched and policed.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// The binary whose `shard` subcommand runs a rep range; `None`
    /// means this process's own executable (the daemon binary).
    pub shard_exe: Option<PathBuf>,
    /// A shard whose checkpoint stops advancing for this long is
    /// declared wedged, killed, and retried. Must comfortably exceed
    /// the slowest single repetition.
    pub heartbeat_timeout: Duration,
    /// How often the supervisor polls shard checkpoints.
    pub poll_interval: Duration,
    /// Attempts per shard (`max_attempts`) and the saturating
    /// exponential backoff between them.
    pub retry: RetryPolicy,
    /// Upper bound on one backoff sleep.
    pub backoff_cap: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            shard_exe: None,
            heartbeat_timeout: Duration::from_secs(30),
            poll_interval: Duration::from_millis(50),
            retry: RetryPolicy { max_attempts: 4, initial_backoff_ns: 200_000_000 },
            backoff_cap: Duration::from_secs(5),
        }
    }
}

/// Splits `[0, reps)` into at most `shards` contiguous, non-empty,
/// near-equal ranges (the first `reps % k` ranges carry the extra rep).
pub fn shard_ranges(reps: u64, shards: u32) -> Vec<ShardRange> {
    let k = u64::from(shards).clamp(1, reps.max(1));
    let base = reps / k;
    let extra = reps % k;
    let mut out = Vec::with_capacity(k as usize);
    let mut start = 0;
    for i in 0..k {
        let len = base + u64::from(i < extra);
        out.push(ShardRange { start, end: start + len });
        start += len;
    }
    out
}

/// Runs job `id` by dispatching its rep ranges to supervised shard
/// processes, then merging their checkpoints into the final report.
/// Shard checkpoints live in `state_dir` and are removed on success;
/// on failure they stay behind for postmortem or a post-restart retry.
///
/// # Errors
///
/// A one-line, protocol-safe detail when any shard is quarantined or
/// the final merge rejects the checkpoints.
pub fn run_supervised(
    id: u64,
    spec: &SweepSpec,
    state_dir: &Path,
    done: &AtomicU64,
    cfg: &SupervisorConfig,
    stats: &DaemonStats,
) -> Result<String, String> {
    let exe = match &cfg.shard_exe {
        Some(path) => path.clone(),
        None => std::env::current_exe().map_err(|e| format!("supervisor: current_exe: {e}"))?,
    };
    let tokens: Vec<String> = spec.canonical().split(' ').map(str::to_string).collect();
    let ranges = shard_ranges(spec.reps, spec.shards);
    let paths: Vec<PathBuf> =
        (0..ranges.len()).map(|k| shard_checkpoint_path(state_dir, id, k)).collect();

    let mut failures: Vec<String> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .zip(&paths)
            .enumerate()
            .map(|(k, (&range, path))| {
                let (exe, tokens) = (&exe, &tokens);
                scope.spawn(move || {
                    let gauges = ShardGauges::register(stats, id, k);
                    supervise_shard(exe, tokens, range, path, done, cfg, stats, &gauges)
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(detail)) => failures.push(detail),
                Err(_) => failures.push("shard supervisor thread panicked".to_string()),
            }
        }
    });
    if !failures.is_empty() {
        return Err(format!("degraded: {}", sanitize(&failures.join("; "))));
    }

    let merged =
        merge_shards(&paths).map_err(|e| format!("shard merge: {}", sanitize(&e.to_string())))?;
    for path in &paths {
        std::fs::remove_file(path).ok();
    }
    Ok(merged.to_json())
}

/// Per-shard fleet gauges, labelled `job`/`shard` so a dashboard can
/// draw one progress bar per shard. Wall-clock and out-of-band, like
/// everything in the metrics plane.
struct ShardGauges {
    /// Milliseconds since this shard's checkpoint last advanced while
    /// a worker is being watched; parked at 0 between attempts.
    heartbeat_age_ms: Gauge,
    /// The shard's next rep (its checkpoint frontier).
    next_rep: Gauge,
}

impl ShardGauges {
    fn register(stats: &DaemonStats, job: u64, shard: usize) -> ShardGauges {
        let labels = [("job", job.to_string()), ("shard", shard.to_string())];
        let labels: Vec<(&str, &str)> = labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
        ShardGauges {
            heartbeat_age_ms: stats.registry().gauge(
                names::HEARTBEAT_AGE_MS,
                "Milliseconds since a live shard's checkpoint last advanced",
                &labels,
            ),
            next_rep: stats.registry().gauge(
                names::SHARD_NEXT_REP,
                "A supervised shard's checkpoint frontier (next rep)",
                &labels,
            ),
        }
    }
}

/// Supervises one shard to completion: spawn, watch the checkpoint
/// advance, kill on a missed heartbeat, retry with backoff, quarantine
/// after the attempt budget.
#[allow(clippy::too_many_arguments)]
fn supervise_shard(
    exe: &Path,
    spec_tokens: &[String],
    range: ShardRange,
    path: &Path,
    done: &AtomicU64,
    cfg: &SupervisorConfig,
    stats: &DaemonStats,
    gauges: &ShardGauges,
) -> Result<(), String> {
    // Reps of this shard already credited into the job's counter.
    let mut reported = 0u64;
    let mut attempt = 0u32;
    let mut last_failure = "never attempted".to_string();
    loop {
        // Inspect whatever checkpoint a previous attempt (or a previous
        // daemon life) left behind: a complete one short-circuits, a
        // corrupt one is discarded so the worker starts clean, a valid
        // partial one is kept for the worker to resume.
        if path.exists() {
            match Checkpoint::load(path) {
                Ok(cp) if cp.shard == range => {
                    credit(done, &mut reported, range, cp.next_rep);
                    gauges.next_rep.set(cp.next_rep as f64);
                    if cp.next_rep >= range.end {
                        return Ok(());
                    }
                }
                _ => {
                    std::fs::remove_file(path).ok();
                    stats.checkpoints_discarded.inc();
                }
            }
        }
        if attempt >= cfg.retry.max_attempts {
            stats.shard_quarantines.inc();
            return Err(format!(
                "shard {range} quarantined after {attempt} attempt(s): {last_failure}"
            ));
        }
        if attempt > 0 {
            stats.shard_retries.inc();
            let pause =
                Duration::from_nanos(cfg.retry.backoff_ns(attempt - 1)).min(cfg.backoff_cap);
            std::thread::sleep(pause);
        }
        attempt += 1;

        let mut child = match Command::new(exe)
            .arg("shard")
            .args(["--start", &range.start.to_string(), "--end", &range.end.to_string()])
            .arg("--checkpoint")
            .arg(path)
            .args(spec_tokens)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
        {
            Ok(child) => child,
            Err(e) => {
                last_failure = format!("spawn {}: {e}", exe.display());
                continue;
            }
        };

        let mut last_next = peek_next_rep(path);
        let mut last_advance = Instant::now();
        let exited_ok = loop {
            match child.try_wait() {
                Ok(Some(status)) => {
                    if !status.success() {
                        last_failure = format!("worker exited with {status}");
                    }
                    break status.success();
                }
                Ok(None) => {}
                Err(e) => {
                    last_failure = format!("wait: {e}");
                    let _ = child.kill();
                    let _ = child.wait();
                    break false;
                }
            }
            let now_next = peek_next_rep(path);
            if now_next != last_next {
                last_next = now_next;
                last_advance = Instant::now();
                if let Some(next) = now_next {
                    credit(done, &mut reported, range, next);
                    gauges.next_rep.set(next as f64);
                }
            }
            gauges.heartbeat_age_ms.set(last_advance.elapsed().as_secs_f64() * 1e3);
            if last_advance.elapsed() >= cfg.heartbeat_timeout {
                // Alive but not advancing its checkpoint: wedged.
                let _ = child.kill();
                let _ = child.wait();
                stats.shard_heartbeat_kills.inc();
                last_failure =
                    format!("no heartbeat for {:.1}s", cfg.heartbeat_timeout.as_secs_f64());
                break false;
            }
            std::thread::sleep(cfg.poll_interval);
        };
        // Nobody is being watched between attempts (or after this
        // one): park the age gauge so HEALTH doesn't read a dead
        // worker's last staleness as a live problem.
        gauges.heartbeat_age_ms.set(0.0);

        // The worker may have advanced and exited between two polls.
        if let Some(next) = peek_next_rep(path) {
            credit(done, &mut reported, range, next);
            gauges.next_rep.set(next as f64);
        }
        if exited_ok {
            // Trust but verify: exit 0 must come with a complete, valid
            // checkpoint, or it is just another failed attempt.
            match Checkpoint::load(path) {
                Ok(cp) if cp.shard == range && cp.next_rep >= range.end => return Ok(()),
                Ok(_) => last_failure = "worker exited 0 with an incomplete checkpoint".to_string(),
                Err(e) => last_failure = format!("worker exited 0 but checkpoint is bad: {e}"),
            }
        }
        // Fall through: the top of the loop re-inspects the checkpoint
        // (keeping valid partial progress) and retries with backoff.
    }
}

/// Credits newly observed shard progress into the job's rep counter.
/// Monotone per shard: a rewound checkpoint (discarded after
/// corruption) never subtracts.
fn credit(done: &AtomicU64, reported: &mut u64, range: ShardRange, next_rep: u64) {
    let shard_done = next_rep.saturating_sub(range.start).min(range.len());
    if shard_done > *reported {
        done.fetch_add(shard_done - *reported, Ordering::Relaxed);
        *reported = shard_done;
    }
}

/// Reads `next_rep` out of a checkpoint's header with a bounded read
/// of the file's first bytes — cheap enough to poll, and advisory
/// only (authoritative validation goes through [`Checkpoint::load`]).
/// `None` for a missing, unreadable, or torn file.
fn peek_next_rep(path: &Path) -> Option<u64> {
    use std::io::Read;
    let mut head = [0u8; 512];
    let mut file = std::fs::File::open(path).ok()?;
    let n = file.read(&mut head).ok()?;
    let text = String::from_utf8_lossy(&head[..n]);
    let idx = text.find("\"next_rep\"")?;
    let rest = text[idx + "\"next_rep\"".len()..].trim_start().strip_prefix(':')?.trim_start();
    let digits: &str = rest.split(|c: char| !c.is_ascii_digit()).next()?;
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_tile_the_reps_exactly() {
        for (reps, shards) in [(10u64, 3u32), (6, 2), (5, 5), (4, 9), (1, 1), (7, 1), (1, 4)] {
            let ranges = shard_ranges(reps, shards);
            assert!(!ranges.is_empty());
            assert!(ranges.len() as u64 <= reps);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, reps);
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "contiguous");
            }
            for range in &ranges {
                assert!(!range.is_empty(), "no empty shard in {reps}x{shards}");
            }
        }
    }

    #[test]
    fn shard_ranges_clamp_zero_to_one() {
        assert_eq!(shard_ranges(4, 0), vec![ShardRange { start: 0, end: 4 }]);
    }

    #[test]
    fn peek_next_rep_reads_the_header() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("voltboot_peek_{}.checkpoint", std::process::id()));
        std::fs::write(
            &path,
            "{\n  \"voltboot_checkpoint\": 2,\n  \"next_rep\": 37,\n  \"records\": []\n}",
        )
        .unwrap();
        assert_eq!(peek_next_rep(&path), Some(37));
        std::fs::remove_file(&path).ok();
        assert_eq!(peek_next_rep(&path), None);
    }

    #[test]
    fn credit_is_monotone_per_shard() {
        let done = AtomicU64::new(0);
        let mut reported = 0;
        let range = ShardRange { start: 2, end: 8 };
        credit(&done, &mut reported, range, 5);
        assert_eq!(done.load(Ordering::Relaxed), 3);
        // A stale or rewound observation never subtracts.
        credit(&done, &mut reported, range, 4);
        assert_eq!(done.load(Ordering::Relaxed), 3);
        credit(&done, &mut reported, range, 8);
        assert_eq!(done.load(Ordering::Relaxed), 6);
        // Beyond the shard end clamps.
        credit(&done, &mut reported, range, 99);
        assert_eq!(done.load(Ordering::Relaxed), 6);
    }
}
