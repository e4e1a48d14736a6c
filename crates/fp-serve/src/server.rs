//! The TCP front end over an [`Engine`]: a sharded event loop.
//!
//! The acceptor round-robins connections across poll-loop shards
//! ([`crate::shard`]), each owning its connections' buffers and
//! line framing. Requests are admitted with shedding (typed
//! `retry_after_ms` on overload), lines longer than
//! [`ServeConfig::max_line_bytes`] are refused, and shutdown drains every
//! accepted job before closing. The shards need the unix poll(2) shim;
//! off unix [`Server::bind`] reports [`std::io::ErrorKind::Unsupported`].

use crate::engine::{Engine, EngineStats, ServeConfig};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Request/connection accounting aggregated over the whole front end.
///
/// After [`Server::shutdown`] the books balance:
/// `accepted == completed + shed` (every decoded request got exactly one
/// answer; `malformed` lines are answered too but counted separately).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeAccounting {
    /// Connections ever accepted.
    pub conns: u64,
    /// Well-formed requests decoded off the wire.
    pub accepted: u64,
    /// Non-shed responses delivered (success, degraded, failure,
    /// coalesced fan-outs).
    pub completed: u64,
    /// Load-shed responses delivered.
    pub shed: u64,
    /// Malformed lines answered with `ok: false`.
    pub malformed: u64,
}

/// What a completed [`Server::shutdown`] observed: the front-end books
/// and the engine books, both final (every shard and worker joined).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShutdownReport {
    /// Final front-end accounting (`accepted == completed + shed`).
    pub accounting: ServeAccounting,
    /// Final engine accounting (`submitted == answered + shed`).
    pub engine: EngineStats,
}

/// A line-delimited TCP front end over an [`Engine`].
///
/// Malformed lines get an `ok: false` response instead of killing the
/// connection.
pub struct Server {
    engine: Option<Engine>,
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    /// Cross-thread shard handles; kept after teardown so accounting
    /// stays readable once the poll threads are gone.
    #[cfg(unix)]
    shard_shareds: Vec<Arc<crate::shard::ShardShared>>,
    #[cfg(unix)]
    shard_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port), starts a
    /// fresh engine and `config.shards` poll-loop shards, and accepts
    /// connections onto them.
    ///
    /// # Errors
    ///
    /// Propagates bind/shard-setup errors.
    #[cfg(unix)]
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let shard_count = config.shards.max(1);
        let engine = Engine::start(config);

        let mut shard_shareds = Vec::with_capacity(shard_count);
        let mut shard_threads = Vec::with_capacity(shard_count);
        for index in 0..shard_count {
            let handle = crate::shard::spawn(index, Arc::clone(engine.shared()))?;
            shard_shareds.push(handle.shared);
            shard_threads.push(handle.thread);
        }
        let targets = shard_shareds.clone();
        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for (i, stream) in listener.incoming().enumerate() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    match stream {
                        Ok(stream) => targets[i % targets.len()].adopt(stream),
                        Err(_) => break,
                    }
                }
            })
        };
        Ok(Server {
            engine: Some(engine),
            local,
            stop,
            acceptor: Some(acceptor),
            shard_shareds,
            shard_threads,
        })
    }

    /// The poll-loop shards need unix; elsewhere there is no front end.
    ///
    /// # Errors
    ///
    /// Always [`std::io::ErrorKind::Unsupported`].
    #[cfg(not(unix))]
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> std::io::Result<Self> {
        let _ = (addr, config);
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "the fp-serve front end needs unix poll(2)",
        ))
    }

    /// The bound address (with the real port when bound to port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// `(hits, misses)` of the engine's solution cache.
    #[must_use]
    pub fn cache_stats(&self) -> (u64, u64) {
        self.engine.as_ref().map_or((0, 0), Engine::cache_stats)
    }

    /// `(warm, cold)` branch-and-bound node counts of the engine's solver.
    #[must_use]
    pub fn solver_stats(&self) -> (u64, u64) {
        self.engine.as_ref().map_or((0, 0), Engine::solver_stats)
    }

    /// `(rows_tightened, binaries_fixed, cuts_added)` from the engine's
    /// root model-strengthening layer.
    #[must_use]
    pub fn strengthening_stats(&self) -> (u64, u64, u64) {
        self.engine
            .as_ref()
            .map_or((0, 0, 0), Engine::strengthening_stats)
    }

    /// `(refactorizations, eta_updates)` of the engine's sparse revised
    /// simplex basis work.
    #[must_use]
    pub fn factorization_stats(&self) -> (u64, u64) {
        self.engine
            .as_ref()
            .map_or((0, 0), Engine::factorization_stats)
    }

    /// The engine's job accounting (submitted / answered / shed /
    /// coalesced).
    #[must_use]
    pub fn engine_stats(&self) -> EngineStats {
        self.engine
            .as_ref()
            .map_or_else(EngineStats::default, Engine::stats)
    }

    /// Front-end accounting summed over the shards (see
    /// [`ServeAccounting`] for the invariant).
    #[must_use]
    pub fn accounting(&self) -> ServeAccounting {
        let mut acc = ServeAccounting::default();
        #[cfg(unix)]
        for s in &self.shard_shareds {
            let (conns, accepted, completed, shed, malformed) = s.counters();
            acc.conns += conns;
            acc.accepted += accepted;
            acc.completed += completed;
            acc.shed += shed;
            acc.malformed += malformed;
        }
        acc
    }

    /// Blocks until the acceptor exits (it only exits on shutdown or a
    /// listener error) — the `floorplan serve` foreground mode.
    pub fn wait(mut self) {
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }

    /// Stops accepting, drains every accepted job (answering it), joins
    /// shards and workers, and returns the final books.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.teardown()
    }

    fn teardown(&mut self) -> ShutdownReport {
        self.stop_accepting();
        // Ordering matters: shards must stop reading (no new accepts)
        // before the queue closes, and workers must stay alive while the
        // shards wait for their in-flight answers.
        #[cfg(unix)]
        for s in &self.shard_shareds {
            s.start_drain();
        }
        if let Some(engine) = self.engine.as_ref() {
            engine.close_queue();
        }
        #[cfg(unix)]
        for t in self.shard_threads.drain(..) {
            let _ = t.join();
        }
        let engine = self
            .engine
            .take()
            .map_or_else(EngineStats::default, Engine::shutdown);
        ShutdownReport {
            accounting: self.accounting(),
            engine,
        }
    }

    fn stop_accepting(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Wake the blocking accept with a throwaway connection. A wildcard
        // bind address (0.0.0.0 / [::]) is not a connectable destination
        // on every platform, so aim at the same-family loopback instead.
        let mut target = self.local;
        if target.ip().is_unspecified() {
            target.set_ip(match target {
                SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect(target);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.teardown();
    }
}
