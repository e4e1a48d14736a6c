//! The sharded event-loop front end.
//!
//! One poll thread per shard owns its connections outright: their
//! nonblocking sockets, read buffers, frame (line) decoding, and write
//! buffers. Nothing else touches a connection; workers hand finished
//! response lines to the owning shard through its inbox and a wake
//! socket, and the shard writes them out when the peer can take them.
//! The front end runs `1 + shards` IO threads (the acceptor plus the
//! poll loops) regardless of connection count.
//!
//! A shard never blocks on anything but poll(2): requests are submitted
//! with shedding admission ([`Admission::Shed`]), and a per-shard bound
//! on decoded-but-unanswered jobs sheds excess load before it reaches
//! the global queue. On shutdown the shard stops reading, keeps
//! delivering answers for every job it accepted, and force-closes only
//! when the drain timeout expires.

use crate::engine::{self, Admission, Reply, Shared};
use crate::protocol::{JobRequest, JobResponse};
use crate::sys::{self, PollFd};
use fp_obs::{Event, Phase};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Messages other threads leave in a shard's inbox.
pub(crate) enum Inbound {
    /// The acceptor handed this shard a fresh connection.
    Conn(TcpStream),
    /// A worker finished a job for connection `conn`; `line` is the
    /// encoded response, `shed` says whether it was a load-shed answer
    /// (for the shard's accounting).
    Response { conn: u64, line: String, shed: bool },
}

/// The cross-thread face of one shard: its inbox, wake socket, drain
/// flag, and lifetime counters.
pub(crate) struct ShardShared {
    index: usize,
    inbox: Mutex<Vec<Inbound>>,
    /// Writer half of the wake pair; one byte = "look at your inbox".
    wake: TcpStream,
    draining: AtomicBool,
    conns: AtomicU64,
    accepted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    malformed: AtomicU64,
}

impl ShardShared {
    /// Hands the shard a new connection (acceptor thread).
    pub(crate) fn adopt(&self, stream: TcpStream) {
        self.inbox
            .lock()
            .expect("shard inbox")
            .push(Inbound::Conn(stream));
        self.wake();
    }

    /// Hands the shard a finished response line (worker threads).
    pub(crate) fn deliver(&self, conn: u64, line: String, shed: bool) {
        self.inbox
            .lock()
            .expect("shard inbox")
            .push(Inbound::Response { conn, line, shed });
        self.wake();
    }

    /// Tells the shard to stop reading and flush out (shutdown).
    pub(crate) fn start_drain(&self) {
        self.draining.store(true, Ordering::Relaxed);
        self.wake();
    }

    /// `(conns, accepted, completed, shed, malformed)` so far.
    pub(crate) fn counters(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.conns.load(Ordering::Relaxed),
            self.accepted.load(Ordering::Relaxed),
            self.completed.load(Ordering::Relaxed),
            self.shed.load(Ordering::Relaxed),
            self.malformed.load(Ordering::Relaxed),
        )
    }

    fn wake(&self) {
        // Nonblocking: a full wake pipe means a wake is already pending,
        // which is all we need.
        let _ = (&self.wake).write(&[1]);
    }
}

/// One running shard: its cross-thread handle and the poll thread.
pub(crate) struct ShardHandle {
    pub(crate) shared: Arc<ShardShared>,
    pub(crate) thread: JoinHandle<()>,
}

/// A connected-loopback TCP pair standing in for pipe(2) — pure std, so
/// the only FFI in the crate stays poll(2) itself.
fn wake_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let writer = TcpStream::connect(listener.local_addr()?)?;
    let (reader, _) = listener.accept()?;
    writer.set_nonblocking(true)?;
    reader.set_nonblocking(true)?;
    writer.set_nodelay(true)?;
    Ok((writer, reader))
}

/// Spawns shard `index` over `engine`.
pub(crate) fn spawn(index: usize, engine: Arc<Shared>) -> std::io::Result<ShardHandle> {
    let (wake_tx, wake_rx) = wake_pair()?;
    let shared = Arc::new(ShardShared {
        index,
        inbox: Mutex::new(Vec::new()),
        wake: wake_tx,
        draining: AtomicBool::new(false),
        conns: AtomicU64::new(0),
        accepted: AtomicU64::new(0),
        completed: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        malformed: AtomicU64::new(0),
    });
    let thread = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || run(&shared, &engine, &wake_rx))
    };
    Ok(ShardHandle { shared, thread })
}

/// One connection, owned by exactly one shard.
struct Conn {
    stream: TcpStream,
    fd: i32,
    /// Bytes read but not yet framed into a line.
    buf: Vec<u8>,
    /// `buf[..scanned]` is known newline-free (keeps slow-loris drip
    /// feeds linear instead of rescanning the buffer per byte).
    scanned: usize,
    /// Encoded responses waiting for the peer to accept them.
    out: Vec<u8>,
    out_pos: usize,
    /// Jobs submitted for this connection and not yet answered.
    pending: usize,
    /// Peer half-closed (EOF read); finish pending work, then close.
    read_closed: bool,
    /// Protocol violation (oversized line): close once `out` flushes.
    close_when_flushed: bool,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, fd: i32) -> Self {
        Conn {
            stream,
            fd,
            buf: Vec::new(),
            scanned: 0,
            out: Vec::new(),
            out_pos: 0,
            pending: 0,
            read_closed: false,
            close_when_flushed: false,
            dead: false,
        }
    }

    fn flushed(&self) -> bool {
        self.out_pos >= self.out.len()
    }

    fn queue_line(&mut self, line: &str) {
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
    }
}

/// The shard loop. Exits when draining and every accepted job has been
/// answered and flushed (or the drain timeout expires), then emits
/// [`Event::ShardStats`].
fn run(shard: &Arc<ShardShared>, engine: &Arc<Shared>, wake_rx: &TcpStream) {
    let tracer = engine.config.tracer.clone();
    let per_shard_pending = engine.config.per_shard_pending.max(1);
    let max_line = engine.config.max_line_bytes;
    let drain_timeout = engine.config.drain_timeout;

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_conn: u64 = 0;
    // Decoded-but-unanswered jobs across this shard's connections; only
    // this thread touches it (responses arrive through the inbox).
    let mut pending_total: usize = 0;
    let mut drain_deadline: Option<Instant> = None;
    let wake_fd = wake_rx.as_raw_fd();

    loop {
        let draining = shard.draining.load(Ordering::Relaxed);
        if draining && drain_deadline.is_none() {
            drain_deadline = Some(Instant::now() + drain_timeout);
        }

        // Build the poll set: the wake socket first, then every live
        // connection with exactly the directions it currently cares
        // about. An entry with no requested events still reports errors.
        let mut fds = Vec::with_capacity(conns.len() + 1);
        fds.push(PollFd::new(wake_fd, sys::POLLIN));
        let mut order = Vec::with_capacity(conns.len());
        for (&id, conn) in &conns {
            let mut events = 0i16;
            if !conn.read_closed && !draining {
                events |= sys::POLLIN;
            }
            if !conn.flushed() {
                events |= sys::POLLOUT;
            }
            fds.push(PollFd::new(conn.fd, events));
            order.push(id);
        }
        // 250 ms cap so the drain deadline and the draining flag are
        // re-checked even with a silent poll set.
        if sys::poll_fds(&mut fds, 250).is_err() {
            // EINTR is retried inside; anything else means the poll set
            // itself is broken — fall through and let per-conn IO sort
            // the dead from the living.
        }

        if fds[0].readable() {
            let mut sink = [0u8; 64];
            loop {
                match (&*wake_rx).read(&mut sink) {
                    Ok(0) => break,
                    Ok(_) => {}
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
        }

        // Drain the inbox: adopt connections, buffer finished responses.
        let inbound = std::mem::take(&mut *shard.inbox.lock().expect("shard inbox"));
        for msg in inbound {
            match msg {
                Inbound::Conn(stream) => {
                    if draining {
                        continue; // refused: never read, nothing accepted
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Responses are single small lines in a request-reply
                    // exchange; Nagle + delayed ACK would add tens of
                    // milliseconds to each.
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    shard.conns.fetch_add(1, Ordering::Relaxed);
                    conns.insert(next_conn, Conn::new(stream, fd));
                    next_conn += 1;
                }
                Inbound::Response { conn, line, shed } => {
                    pending_total = pending_total.saturating_sub(1);
                    if shed {
                        shard.shed.fetch_add(1, Ordering::Relaxed);
                    } else {
                        shard.completed.fetch_add(1, Ordering::Relaxed);
                    }
                    // A gone connection still counts: the job was
                    // answered, the peer just did not stay to hear it.
                    if let Some(c) = conns.get_mut(&conn) {
                        c.pending = c.pending.saturating_sub(1);
                        c.queue_line(&line);
                    }
                }
            }
        }

        // Service readiness per connection.
        for (slot, &id) in order.iter().enumerate() {
            let pf = fds[slot + 1];
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            if pf.broken() {
                conn.dead = true;
                continue;
            }
            if pf.readable() && !conn.read_closed && !draining {
                read_ready(
                    shard,
                    engine,
                    id,
                    conn,
                    &mut pending_total,
                    per_shard_pending,
                    max_line,
                );
            }
            // Responses buffered while draining this iteration's inbox
            // were not in this round's poll set; the next poll requests
            // POLLOUT for them and returns immediately.
            if pf.writable() && !conn.flushed() {
                flush_ready(conn);
            }
        }

        // Reap: broken connections immediately; graceful ones once every
        // accepted job is answered and written out.
        conns.retain(|_, c| {
            if c.dead {
                return false;
            }
            let done_gracefully =
                (c.read_closed || c.close_when_flushed) && c.pending == 0 && c.flushed();
            !done_gracefully
        });

        if draining {
            let flushed = conns.values().all(|c| c.flushed() || c.dead);
            let timed_out = drain_deadline.is_some_and(|d| Instant::now() >= d);
            if (pending_total == 0 && flushed) || timed_out {
                break;
            }
        }
    }

    let (conns_total, accepted, completed, shed, malformed) = shard.counters();
    tracer.emit(
        Phase::Serve,
        Event::ShardStats {
            shard: shard.index,
            conns: conns_total as usize,
            accepted,
            completed,
            shed,
            malformed,
        },
    );
    tracer.flush();
}

/// Reads everything currently available, frames complete lines, and
/// dispatches each one.
fn read_ready(
    shard: &Arc<ShardShared>,
    engine: &Arc<Shared>,
    conn_id: u64,
    conn: &mut Conn,
    pending_total: &mut usize,
    per_shard_pending: usize,
    max_line: usize,
) {
    let mut tmp = [0u8; 16384];
    loop {
        match conn.stream.read(&mut tmp) {
            Ok(0) => {
                // EOF: the peer finished sending (possibly a half-close;
                // shutdown(SHUT_WR) clients still read their answers).
                conn.read_closed = true;
                break;
            }
            Ok(n) => {
                conn.buf.extend_from_slice(&tmp[..n]);
                frame_lines(
                    shard,
                    engine,
                    conn_id,
                    conn,
                    pending_total,
                    per_shard_pending,
                );
                if conn.buf.len() > max_line {
                    // No newline within the frame bound: answer once,
                    // stop reading, close when the answer is out.
                    shard.malformed.fetch_add(1, Ordering::Relaxed);
                    let resp = JobResponse::failure(
                        0,
                        format!("line exceeds {max_line} bytes without newline"),
                    );
                    conn.queue_line(&resp.encode());
                    conn.buf.clear();
                    conn.scanned = 0;
                    conn.read_closed = true;
                    conn.close_when_flushed = true;
                    break;
                }
                if n < tmp.len() {
                    // Short read: the socket buffer is (momentarily)
                    // empty; let poll tell us about the rest.
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
}

/// Splits complete lines out of `conn.buf` and handles each.
fn frame_lines(
    shard: &Arc<ShardShared>,
    engine: &Arc<Shared>,
    conn_id: u64,
    conn: &mut Conn,
    pending_total: &mut usize,
    per_shard_pending: usize,
) {
    while let Some(rel) = conn.buf[conn.scanned..].iter().position(|&b| b == b'\n') {
        let end = conn.scanned + rel;
        let line = String::from_utf8_lossy(&conn.buf[..end]).into_owned();
        conn.buf.drain(..=end);
        conn.scanned = 0;
        handle_line(
            shard,
            engine,
            conn_id,
            conn,
            line.trim_end_matches('\r'),
            pending_total,
            per_shard_pending,
        );
    }
    conn.scanned = conn.buf.len();
}

/// Decodes one request line and routes it: shed at the per-shard bound,
/// answer malformed lines in place, submit the rest to the engine.
fn handle_line(
    shard: &Arc<ShardShared>,
    engine: &Arc<Shared>,
    conn_id: u64,
    conn: &mut Conn,
    line: &str,
    pending_total: &mut usize,
    per_shard_pending: usize,
) {
    if line.trim().is_empty() {
        return;
    }
    match JobRequest::decode(line) {
        Ok(req) => {
            shard.accepted.fetch_add(1, Ordering::Relaxed);
            if *pending_total >= per_shard_pending {
                // Per-shard admission: this shard already has its fill
                // of unanswered jobs; shed before the global queue.
                shard.shed.fetch_add(1, Ordering::Relaxed);
                let retry = engine::retry_hint(engine);
                engine::emit_shed(engine, retry);
                conn.queue_line(&JobResponse::shed(req.id, retry).encode());
                return;
            }
            *pending_total += 1;
            conn.pending += 1;
            engine::submit(
                engine,
                req,
                Reply::Shard {
                    shard: Arc::clone(shard),
                    conn: conn_id,
                },
                Admission::Shed,
            );
        }
        Err(e) => {
            shard.malformed.fetch_add(1, Ordering::Relaxed);
            // Echo the id back when it is at least parseable so the
            // caller can correlate the failure.
            let id = fp_obs::parse_line(line)
                .ok()
                .and_then(|p| p.num("id"))
                .unwrap_or(0.0) as u64;
            conn.queue_line(&JobResponse::failure(id, format!("bad request: {e}")).encode());
        }
    }
}

/// Writes as much buffered output as the peer will take.
fn flush_ready(conn: &mut Conn) {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    if conn.flushed() {
        conn.out.clear();
        conn.out_pos = 0;
    } else if conn.out_pos > 64 * 1024 {
        // Compact a slow reader's buffer so it cannot grow unboundedly
        // ahead of the cursor.
        conn.out.drain(..conn.out_pos);
        conn.out_pos = 0;
    }
}
