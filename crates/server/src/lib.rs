//! The Volt Boot sweep daemon: a long-running service that queues grid
//! sweeps (platform × temperature × fault-rate × probe × passes),
//! schedules their repetitions across the deterministic parallel
//! campaign scheduler, and streams progress to clients over a
//! hand-rolled, std-only line protocol.
//!
//! The paper's headline results are exactly such grids (Table 2,
//! Figs. 7–10), and the related glitch-parameter sweeps (*The
//! Forgotten Threat of Voltage Glitching*, *Chypnosis*) are
//! million-rep workloads no single process wants to own. The daemon
//! splits the work three ways:
//!
//! * **In-process parallelism** — each job runs through
//!   [`voltboot::campaign::Campaign::run_shard_parallel`] over the
//!   whole rep range, the rep-order merging scheduler whose reports
//!   are byte-identical at any thread count.
//! * **Cross-process sharding** — the `shard` subcommand runs one rep
//!   range `[start, end)` into a checkpoint whose header records the
//!   range; [`voltboot::campaign::merge_shards`] recombines a complete
//!   set of shard checkpoints into a report byte-identical to one
//!   sequential run.
//! * **Service longevity** — worker panics are contained to degraded
//!   per-rep records, every shared lock recovers from poisoning, and
//!   corrupt checkpoints surface as typed protocol errors; none of
//!   them can take the daemon down.
//!
//! * **Crash safety** — with `--state-dir`, every job transition is
//!   written through to an append-only, CRC-64-sealed job journal
//!   before it takes effect; a SIGKILLed daemon restarted on the same
//!   state dir replays the journal, re-queues interrupted jobs, and
//!   resumes them from their newest valid checkpoint — converging on
//!   a report byte-identical to an uninterrupted run. Jobs submitted
//!   with `shards=K` run as supervised worker *processes* whose
//!   checkpoint advance is their heartbeat; wedged or crashed workers
//!   are killed and retried with saturating backoff.
//!
//! The service decomposition follows the register/serve/opcode shape
//! of message-passing OS services: [`spec`] is the wire vocabulary
//! (what a job *is*), [`registry`] owns job state and the executor
//! pool (who runs it), [`journal`] makes that state durable,
//! [`supervisor`] babysits shard worker processes, [`server`] binds
//! the socket and speaks the protocol (how you ask), [`client`] is
//! the matching caller-side stub, and [`faultnet`] is the seeded
//! fault-injecting proxy the recovery tests drive everything through.
//!
//! Every layer of that path is instrumented against the out-of-band
//! metrics plane ([`voltboot_telemetry::metrics`]): connection and
//! per-verb latency counters, registry queue depth and claim latency,
//! journal append/fsync/replay stats, supervisor heartbeat age and
//! quarantines. The `METRICS` verb renders them as Prometheus text
//! exposition and `HEALTH` reports liveness/readiness — both scrapeable
//! with `nc`, neither touching the deterministic `Recorder`.
//!
//! See DESIGN.md §15 for the protocol grammar and the shard-merge
//! byte-identity argument, §16 for the journal format, the
//! supervision state machine, and fault-proxy determinism, and §18
//! for the metrics plane and the exposition grammar.

pub mod client;
pub mod faultnet;
pub mod journal;
pub mod registry;
pub mod server;
pub mod spec;
pub mod supervisor;

pub use client::{Client, ClientError, ReconnectPolicy, MAX_PAYLOAD_BYTES};
pub use faultnet::{ConnFault, FaultProfile, FaultProxy};
pub use journal::{Journal, JournalError, JournalEvent};
pub use registry::{DaemonStats, HealthReport, JobSnapshot, JobState, Registry, RegistryConfig};
pub use server::{Server, ServerOptions, MAX_LINE_BYTES};
pub use spec::{Platform, SpecError, SweepSpec};
pub use supervisor::SupervisorConfig;
