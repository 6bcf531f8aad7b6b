//! Deterministic network-fault injection for the daemon's line
//! protocol: a TCP proxy that forwards client↔daemon traffic and
//! injects disconnects, torn payloads, and stalls on a seeded,
//! counter-mode schedule.
//!
//! The fault decisions follow the same discipline as the campaign's
//! power-rail fault plan ([`voltboot::fault`]): every decision is a
//! pure function of `(seed, connection_index)` through a splitmix64
//! mix, so a failing test names one `(seed, index)` pair and replays
//! exactly — no RNG state threads through the proxy, and concurrent
//! connections cannot perturb each other's draws.
//!
//! Faults are applied to the **server→client** direction (the payload
//! direction), which is where tearing a length-prefixed report
//! mid-body is interesting:
//!
//! * **Cut** — after forwarding a bounded number of bytes, both
//!   directions are shut down, which a client observes as a torn
//!   payload or dropped stream (a *transient* [`crate::ClientError`]).
//! * **Stall** — forwarding pauses long enough to trip the server's
//!   socket timeout before resuming.
//!
//! The proxy binds an ephemeral port, so reconnect-under-fault tests
//! get the one thing a SIGKILLed daemon cannot give them: a stable
//! address whose backing connections keep dying.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use voltboot_telemetry::metrics;

/// Mirrors a proxy event into the process-global metrics registry so a
/// `METRICS` scrape sees faultnet activity alongside the daemon
/// families. The per-proxy [`ProxyStats`] atomics stay the test-facing
/// source of truth; these counters aggregate across every proxy in the
/// process. Events are rare (per-connection, not per-byte), so the
/// registration lookup is off any hot path.
fn fleet_count(name: &'static str, help: &'static str) {
    metrics::global().counter(name, help, &[]).inc();
}

/// splitmix64 finalizer — the same mix the campaign fault plan uses,
/// copied here because `voltboot::fault` keeps its own private.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Maps a mixed word onto `[0, 1)` with 53 bits of precision.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// What the proxy does to one proxied connection's server→client
/// stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnFault {
    /// Forward everything faithfully.
    None,
    /// Forward this many bytes, then sever both directions.
    CutAfter(u64),
    /// Pause forwarding for the configured stall once this many bytes
    /// have passed, then continue faithfully.
    StallAt(u64),
}

/// Seeded fault schedule: per-connection probabilities and shapes.
#[derive(Debug, Clone, Copy)]
pub struct FaultProfile {
    /// Root seed; every per-connection decision mixes this with the
    /// connection index.
    pub seed: u64,
    /// Probability a connection's reply stream is cut mid-flight.
    pub cut: f64,
    /// Probability a connection's reply stream stalls (evaluated only
    /// when the cut draw misses).
    pub stall: f64,
    /// How long a stalled stream pauses before resuming.
    pub stall_pause: Duration,
    /// Cut/stall offsets are drawn from `[1, fault_window_bytes]` —
    /// sized so the greeting or a report body tears partway through.
    pub fault_window_bytes: u64,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            seed: 0x000F_A017_0E70,
            cut: 0.0,
            stall: 0.0,
            stall_pause: Duration::from_millis(100),
            fault_window_bytes: 256,
        }
    }
}

impl FaultProfile {
    /// A profile that forwards everything faithfully.
    pub fn clean(seed: u64) -> FaultProfile {
        FaultProfile { seed, ..Default::default() }
    }

    /// The fault (if any) for connection number `conn_index` — pure in
    /// `(self.seed, conn_index)`.
    pub fn decide(&self, conn_index: u64) -> ConnFault {
        let draw = unit(mix64(self.seed ^ conn_index.wrapping_mul(0x0F0F_0F0F_0F0F_0F0F)));
        let offset_word = mix64(self.seed.rotate_left(17) ^ conn_index);
        let window = self.fault_window_bytes.max(1);
        let offset = 1 + offset_word % window;
        if draw < self.cut {
            ConnFault::CutAfter(offset)
        } else if draw < self.cut + self.stall {
            ConnFault::StallAt(offset)
        } else {
            ConnFault::None
        }
    }
}

/// Counters the proxy exposes so tests can assert the schedule
/// actually fired.
#[derive(Debug, Default)]
pub struct ProxyStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Reply streams severed by [`ConnFault::CutAfter`].
    pub cuts: AtomicU64,
    /// Reply streams paused by [`ConnFault::StallAt`].
    pub stalls: AtomicU64,
}

/// A running fault proxy: clients connect to [`FaultProxy::addr`] and
/// reach `upstream` through the fault schedule.
pub struct FaultProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<ProxyStats>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl FaultProxy {
    /// Binds an ephemeral local port and starts proxying to
    /// `upstream`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(upstream: SocketAddr, profile: FaultProfile) -> std::io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ProxyStats::default());
        let accept_thread = {
            let (stop, stats) = (Arc::clone(&stop), Arc::clone(&stats));
            std::thread::Builder::new().name("faultnet-accept".to_string()).spawn(move || {
                let mut conn_index = 0u64;
                for stream in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(client) = stream else { continue };
                    stats.connections.fetch_add(1, Ordering::Relaxed);
                    fleet_count(
                        "voltboot_faultnet_connections_total",
                        "Connections accepted by fault-injecting proxies.",
                    );
                    let fault = profile.decide(conn_index);
                    conn_index += 1;
                    let stats = Arc::clone(&stats);
                    std::thread::Builder::new()
                        .name("faultnet-conn".to_string())
                        .spawn(move || pump_connection(client, upstream, fault, profile, &stats))
                        .expect("spawn faultnet connection thread");
                }
            })?
        };
        Ok(FaultProxy { addr, stop, stats, accept_thread: Some(accept_thread) })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The proxy's fault counters.
    pub fn stats(&self) -> &ProxyStats {
        &self.stats
    }

    /// Stops accepting; existing pumps die with their sockets.
    pub fn stop(&mut self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Poke the blocking accept awake so the thread can observe the
        // stop flag and exit.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Forwards one proxied connection in both directions, applying
/// `fault` to the server→client stream, until either side closes.
fn pump_connection(
    client: TcpStream,
    upstream: SocketAddr,
    fault: ConnFault,
    profile: FaultProfile,
    stats: &ProxyStats,
) {
    let Ok(server) = TcpStream::connect(upstream) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    // Forward each read as soon as it lands, like the endpoints do: a
    // Nagle-delayed leg would add its own stall to every verb.
    let _ = client.set_nodelay(true);
    let _ = server.set_nodelay(true);
    let (Ok(client_rd), Ok(server_rd)) = (client.try_clone(), server.try_clone()) else {
        return;
    };
    // client → server: always faithful (the interesting tears are in
    // reply payloads, and a faithful request path keeps every fault
    // observable as a reply-side symptom).
    let up = std::thread::Builder::new()
        .name("faultnet-up".to_string())
        .spawn(move || pump(client_rd, server, ConnFault::None, profile, None))
        .expect("spawn faultnet up pump");
    // server → client: the fault schedule applies here.
    pump(server_rd, client, fault, profile, Some(stats));
    let _ = up.join();
}

/// Copies `from` into `to` byte-bounded per read, honouring `fault`.
/// Severs both sockets on a cut so the peer sees the tear promptly.
fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    fault: ConnFault,
    profile: FaultProfile,
    stats: Option<&ProxyStats>,
) {
    let mut forwarded = 0u64;
    let mut stalled = false;
    let mut buf = [0u8; 4096];
    loop {
        // Bound each read so a cut or stall lands at its exact byte
        // offset instead of somewhere inside a large read.
        let limit = match fault {
            ConnFault::CutAfter(at) | ConnFault::StallAt(at) if !stalled => {
                let remaining = at.saturating_sub(forwarded);
                if remaining == 0 {
                    match fault {
                        ConnFault::CutAfter(_) => {
                            if let Some(stats) = stats {
                                stats.cuts.fetch_add(1, Ordering::Relaxed);
                                fleet_count(
                                    "voltboot_faultnet_cuts_total",
                                    "Reply streams severed by the proxy fault schedule.",
                                );
                            }
                            let _ = from.shutdown(Shutdown::Both);
                            let _ = to.shutdown(Shutdown::Both);
                            return;
                        }
                        ConnFault::StallAt(_) => {
                            if let Some(stats) = stats {
                                stats.stalls.fetch_add(1, Ordering::Relaxed);
                                fleet_count(
                                    "voltboot_faultnet_stalls_total",
                                    "Reply streams stalled by the proxy fault schedule.",
                                );
                            }
                            std::thread::sleep(profile.stall_pause);
                            stalled = true;
                            buf.len()
                        }
                        ConnFault::None => unreachable!(),
                    }
                } else {
                    remaining.min(buf.len() as u64) as usize
                }
            }
            _ => buf.len(),
        };
        let n = match from.read(&mut buf[..limit]) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        forwarded += n as u64;
        if to.write_all(&buf[..n]).is_err() {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_in_seed_and_index() {
        let profile = FaultProfile { seed: 0xFA01, cut: 0.4, stall: 0.3, ..FaultProfile::clean(0) };
        let first: Vec<ConnFault> = (0..64).map(|i| profile.decide(i)).collect();
        let second: Vec<ConnFault> = (0..64).map(|i| profile.decide(i)).collect();
        assert_eq!(first, second, "same (seed, index) must draw the same fault");
        let kinds: std::collections::BTreeSet<&str> = first
            .iter()
            .map(|f| match f {
                ConnFault::None => "none",
                ConnFault::CutAfter(_) => "cut",
                ConnFault::StallAt(_) => "stall",
            })
            .collect();
        assert_eq!(kinds.len(), 3, "0.4/0.3 over 64 draws should hit all kinds: {first:?}");
    }

    #[test]
    fn different_seeds_draw_different_schedules() {
        let a = FaultProfile { cut: 0.5, ..FaultProfile::clean(1) };
        let b = FaultProfile { cut: 0.5, ..FaultProfile::clean(2) };
        let sa: Vec<ConnFault> = (0..64).map(|i| a.decide(i)).collect();
        let sb: Vec<ConnFault> = (0..64).map(|i| b.decide(i)).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn offsets_stay_inside_the_window() {
        let profile = FaultProfile { cut: 1.0, fault_window_bytes: 32, ..FaultProfile::clean(7) };
        for i in 0..256 {
            match profile.decide(i) {
                ConnFault::CutAfter(at) => assert!((1..=32).contains(&at), "offset {at}"),
                other => panic!("cut=1.0 must always cut, got {other:?}"),
            }
        }
    }

    #[test]
    fn clean_proxy_forwards_faithfully() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut stream, _) = upstream.accept().unwrap();
            let mut buf = [0u8; 5];
            stream.read_exact(&mut buf).unwrap();
            stream.write_all(b"echo:").unwrap();
            stream.write_all(&buf).unwrap();
        });
        let proxy = FaultProxy::start(upstream_addr, FaultProfile::clean(3)).unwrap();
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        conn.write_all(b"hello").unwrap();
        let mut reply = Vec::new();
        conn.read_to_end(&mut reply).unwrap();
        assert_eq!(reply, b"echo:hello");
        assert_eq!(proxy.stats().connections.load(Ordering::Relaxed), 1);
        assert_eq!(proxy.stats().cuts.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn cut_proxy_tears_the_reply() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        std::thread::spawn(move || {
            for stream in upstream.incoming() {
                let Ok(mut stream) = stream else { break };
                std::thread::spawn(move || {
                    let _ = stream.write_all(&[0xAB; 1024]);
                });
            }
        });
        let profile = FaultProfile { cut: 1.0, fault_window_bytes: 64, ..FaultProfile::clean(11) };
        let proxy = FaultProxy::start(upstream_addr, profile).unwrap();
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        let mut got = Vec::new();
        let _ = conn.read_to_end(&mut got);
        assert!(got.len() < 1024, "reply must be torn, got {} bytes", got.len());
        assert_eq!(proxy.stats().cuts.load(Ordering::Relaxed), 1);
    }
}
