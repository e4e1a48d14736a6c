//! The service engine: worker pool, single-flight coalescing, admission
//! control, and the in-process client.
//!
//! Every job — whether it arrives over TCP or from an in-process
//! [`Client`] — funnels through [`submit`]: parse and canonicalize on
//! the submitting thread, try to **coalesce** onto an identical
//! in-flight solve, then pass **admission** into the bounded queue
//! (blocking for in-process callers, load-shedding for the event loop).
//! Workers pop jobs, run them through [`process`] (cache → ECO → the
//! backend race → greedy), and fan the one response out to every waiter
//! of the flight.

use crate::cache::SolutionCache;
use crate::delta::Refusal;
use crate::fingerprint::{canonical, fingerprint_of, FingerprintParams};
use crate::portfolio::Backend;
use crate::protocol::{JobRequest, JobResponse};
use crate::queue::{Bounded, PushError};
use crate::singleflight::{Admit, Inflight};
use fp_core::{Floorplan, FloorplanConfig, Objective, PlacedModule, RunStats};
use fp_netlist::Netlist;
use fp_obs::{Event, Phase, Tracer};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// ECO jobs whose touched fraction (edited modules / total) exceeds this
/// threshold solve from scratch instead of incrementally — past it the
/// "delta" is most of the instance and keeping the base buys nothing.
const ECO_THRESHOLD: f64 = 0.5;

/// Most modules an instance may have. The default ordering builds a
/// dense K×K connectivity matrix, 32 MiB at this cap; the largest deck
/// the repo runs (gsrc300) has 300 modules.
pub const MAX_MODULES: usize = 2048;

/// Most net members an instance may have, summed over its nets.
pub const MAX_NET_MEMBERS: usize = 65_536;

/// Checks an instance of `modules` modules and `members` net members
/// against [`MAX_MODULES`] and [`MAX_NET_MEMBERS`], naming the cap it
/// exceeds.
pub(crate) fn caps(modules: usize, members: usize) -> Result<(), String> {
    if modules > MAX_MODULES {
        return Err(format!("{modules} modules exceed the cap of {MAX_MODULES}"));
    }
    if members > MAX_NET_MEMBERS {
        return Err(format!(
            "{members} net members exceed the cap of {MAX_NET_MEMBERS}"
        ));
    }
    Ok(())
}

/// [`caps`] on `netlist`, then its worst-case extent. With `S` the sum of
/// every module's longest possible side, the chip is at most `S` tall and
/// about `max(S, width)` wide, so an instance whose `S × max(S, width)` is
/// not finite would overflow f64 in its chip area. Two module centres are
/// then at most `S + max(S, width)` apart, and the centre wirelength
/// counts each net's weight once per pair of its members, so an instance
/// whose `Σ |weight| × pairs × (S + max(S, width))` is not finite could
/// overflow it. Either is refused before anything solves it. The final
/// check in [`process`] still fails any answer that overflows anyway.
fn within_caps(netlist: &Netlist, width: Option<f64>) -> Result<(), String> {
    let members = netlist.nets().map(|(_, n)| n.modules().len()).sum();
    caps(netlist.num_modules(), members)?;
    let side: f64 = netlist
        .modules()
        .map(|(_, m)| m.width_range().1.max(m.height_range().1))
        .sum();
    let across = side.max(width.unwrap_or(0.0));
    if !(side * across).is_finite() {
        return Err(format!(
            "modules whose sides sum to {side:e} make a chip area that overflows f64"
        ));
    }
    let wirelength: f64 = netlist
        .nets()
        .map(|(_, n)| {
            let m = n.modules().len() as f64;
            n.weight().abs() * (m * (m - 1.0) / 2.0) * (side + across)
        })
        .sum();
    if !wirelength.is_finite() {
        return Err("net weights make a worst-case wirelength that overflows f64".to_string());
    }
    Ok(())
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads running the floorplanning pipeline.
    pub workers: usize,
    /// Bounded job-queue capacity. The global admission bound: a
    /// shedding submit that finds the queue full answers `overloaded`
    /// with a `retry_after_ms` hint instead of queueing.
    pub queue_capacity: usize,
    /// Solution-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Branch-and-bound node limit per augmentation step.
    pub node_limit: usize,
    /// Per-step solver time-limit cap; jobs with a deadline additionally
    /// clamp every step to the time remaining before it.
    pub time_limit: Duration,
    /// Improvement rounds after augmentation (skipped past a deadline).
    pub improve_rounds: usize,
    /// Event-loop shard (poll thread) count.
    pub shards: usize,
    /// Per-shard bound on decoded-but-unanswered jobs; excess requests
    /// are shed at the shard before touching the global queue.
    pub per_shard_pending: usize,
    /// Longest request line the event loop accepts; a connection that
    /// exceeds it without a newline gets an error response and is
    /// closed (slow-loris / runaway-frame protection).
    pub max_line_bytes: usize,
    /// Tracer receiving the service events ([`Event::CacheHit`] /
    /// [`Event::CacheMiss`] / [`Event::JobDone`] / [`Event::Coalesced`] /
    /// [`Event::Shed`] / [`Event::ShardStats`]).
    pub tracer: Tracer,
    /// Solver backends raced per solved job under its deadline (see
    /// [`crate::race`]). The default `[Milp]` is a one-leg race: the
    /// paper's pipeline alone, run on the worker thread. An empty list
    /// races nothing, so every solve degrades to the greedy skyline.
    pub backends: Vec<Backend>,
    /// Solution-cache snapshot file: loaded (if present) on
    /// [`Engine::start`], re-written in the background (atomic
    /// tmp+rename, every 500ms when the cache changed) and once more on
    /// shutdown/drop, so ECO base placements survive a server restart —
    /// even an abrupt one that skips destructors. `None` disables
    /// persistence.
    pub cache_path: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 128,
            node_limit: 4_000,
            time_limit: Duration::from_secs(10),
            improve_rounds: 1,
            shards: std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
                .min(4),
            per_shard_pending: 256,
            max_line_bytes: 1 << 20,
            tracer: Tracer::disabled(),
            backends: vec![Backend::Milp],
            cache_path: None,
        }
    }
}

impl ServeConfig {
    /// Sets the worker-thread count (minimum 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the solution-cache capacity (0 disables caching).
    #[must_use]
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Sets the bounded job-queue capacity.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Sets the per-step branch-and-bound node limit.
    #[must_use]
    pub fn with_node_limit(mut self, node_limit: usize) -> Self {
        self.node_limit = node_limit;
        self
    }

    /// Sets the event-loop shard count (minimum 1).
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the per-shard pending-job bound (minimum 1).
    #[must_use]
    pub fn with_per_shard_pending(mut self, bound: usize) -> Self {
        self.per_shard_pending = bound.max(1);
        self
    }

    /// Sets the longest accepted request line in bytes (minimum 1 KiB).
    #[must_use]
    pub fn with_max_line_bytes(mut self, bytes: usize) -> Self {
        self.max_line_bytes = bytes.max(1024);
        self
    }

    /// Installs a tracer for the service events.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Sets the solver backends raced per job (see
    /// [`ServeConfig::backends`]).
    #[must_use]
    pub fn with_backends(mut self, backends: Vec<Backend>) -> Self {
        self.backends = backends;
        self
    }

    /// Sets the solution-cache snapshot file (`None` disables
    /// persistence).
    #[must_use]
    pub fn with_cache_path(mut self, path: Option<PathBuf>) -> Self {
        self.cache_path = path;
        self
    }
}

/// Engine-wide branch-and-bound node counters, split by how each node was
/// settled (warm dual-simplex restart, cold two-phase, or bound
/// propagation without an LP), plus the root model-strengthening work
/// (rows tightened, binaries fixed, cuts added) accumulated over every
/// step MILP.
/// Relaxed ordering suffices: these are monotone telemetry counters, never
/// used for synchronization.
#[derive(Debug, Default)]
struct SolverCounters {
    warm: AtomicU64,
    cold: AtomicU64,
    propagated: AtomicU64,
    refactorizations: AtomicU64,
    eta_updates: AtomicU64,
    rows_tightened: AtomicU64,
    binaries_fixed: AtomicU64,
    cuts_added: AtomicU64,
}

impl SolverCounters {
    /// Adds the step totals of one run: a finished MILP leg's flow
    /// (augmentation and improvement) or an ECO re-placement with its
    /// polish round.
    fn record(&self, stats: &RunStats) {
        for (counter, value) in [
            (&self.warm, stats.warm_nodes()),
            (&self.cold, stats.cold_nodes()),
            (&self.propagated, stats.propagated_nodes()),
            (&self.refactorizations, stats.refactorizations()),
            (&self.eta_updates, stats.eta_updates()),
            (&self.rows_tightened, stats.rows_tightened()),
            (&self.binaries_fixed, stats.binaries_fixed()),
            (&self.cuts_added, stats.cuts_added()),
        ] {
            counter.fetch_add(value as u64, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> (u64, u64) {
        (
            self.warm.load(Ordering::Relaxed),
            self.cold.load(Ordering::Relaxed),
        )
    }

    fn strengthening_snapshot(&self) -> (u64, u64, u64) {
        (
            self.rows_tightened.load(Ordering::Relaxed),
            self.binaries_fixed.load(Ordering::Relaxed),
            self.cuts_added.load(Ordering::Relaxed),
        )
    }

    fn factorization_snapshot(&self) -> (u64, u64) {
        (
            self.refactorizations.load(Ordering::Relaxed),
            self.eta_updates.load(Ordering::Relaxed),
        )
    }
}

/// Where one waiter's answer goes.
pub(crate) enum Reply {
    /// An mpsc channel (in-process clients).
    Channel(mpsc::Sender<JobResponse>),
    /// A connection owned by an event-loop shard: the response line is
    /// handed to the shard's inbox and the shard writes it.
    #[cfg(unix)]
    Shard {
        shard: Arc<crate::shard::ShardShared>,
        conn: u64,
    },
}

impl Reply {
    fn deliver(&self, resp: JobResponse, shed: bool) {
        match self {
            Reply::Channel(tx) => {
                // A gone receiver (client hung up) is not an error.
                let _ = tx.send(resp);
            }
            #[cfg(unix)]
            Reply::Shard { shard, conn } => shard.deliver(*conn, resp.encode(), shed),
        }
    }
}

/// One parked claim on a job's answer: who asked, when (each waiter's
/// `micros` measures *its own* wait), and where to send it.
pub(crate) struct Waiter {
    id: u64,
    submitted: Instant,
    reply: Reply,
}

/// How a finished job finds its waiters.
enum JobRoute {
    /// The waiters (leader first) are parked in the single-flight table
    /// under the job's (`key`, `canon`).
    Flight,
    /// Coalescing was off for this job: the single waiter rides along.
    Direct(Waiter),
}

/// ECO context carried by a delta job: the base instance's identity (for
/// the cache lookup) and the names the delta touched.
pub(crate) struct EcoInfo {
    /// Fingerprint of the base instance under the job's parameters.
    base_key: u64,
    /// Canonical text of the base instance (collision check for the
    /// base-placement cache lookup).
    base_canon: Arc<str>,
    /// Whether the request's `eco_base` pin (if any) matched our computed
    /// base fingerprint; a mismatch means the client's base is not ours
    /// and its placement must not seed the solve.
    base_trusted: bool,
    /// Module names to re-place (edited modules, plus net neighbors when
    /// the objective weighs wirelength).
    touched: Vec<String>,
}

/// One queued job, pre-parsed and canonicalized at submission so workers
/// never re-do front-end work.
pub(crate) struct Job {
    req: JobRequest,
    /// The instance to solve — for ECO jobs, the *edited* netlist (base
    /// with the delta script applied).
    netlist: Netlist,
    canon: Arc<str>,
    key: u64,
    submitted: Instant,
    route: JobRoute,
    /// `Some` for ECO (delta) jobs.
    eco: Option<EcoInfo>,
}

/// How [`submit`] behaves when the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Block until there is room (in-process back-pressure).
    Block,
    /// Refuse immediately with a typed `retry_after_ms` response.
    Shed,
}

/// Everything workers and front ends share.
pub(crate) struct Shared {
    pub(crate) queue: Bounded<Job>,
    table: Inflight<Waiter>,
    cache: SolutionCache,
    solver: SolverCounters,
    submitted: AtomicU64,
    answered: AtomicU64,
    shed: AtomicU64,
    coalesced: AtomicU64,
    uncertified: AtomicU64,
    /// Exponential moving average of job service time in microseconds;
    /// feeds the `retry_after_ms` estimate.
    ema_micros: AtomicU64,
    pub(crate) config: ServeConfig,
}

/// Monotone job accounting of an [`Engine`].
///
/// Once the engine has drained (after [`Engine::shutdown`]),
/// `submitted == answered + shed` — every submitted job got exactly one
/// response. While running, jobs in flight make `submitted` larger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Jobs handed to [`Client::submit`] or its siblings (including ones
    /// later shed or refused).
    pub submitted: u64,
    /// Responses delivered that were not load-sheds (success, degraded,
    /// failure, and coalesced fan-outs alike).
    pub answered: u64,
    /// Load-shed responses delivered.
    pub shed: u64,
    /// Jobs that joined an existing flight instead of solving
    /// (informational; they are eventually counted in `answered`).
    pub coalesced: u64,
    /// Solved answers that failed the legality certificate
    /// ([`Floorplan::violations`]) and went out as the degraded greedy
    /// skyline placement instead.
    pub uncertified: u64,
}

/// The worker-pool engine. Dropping it (or calling
/// [`shutdown`](Engine::shutdown)) closes the queue, lets the workers
/// drain every job already accepted, and joins them.
pub struct Engine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Dropping this sender is the shutdown signal for the background
    /// cache-persist thread (present only when `cache_path` is set).
    persist_stop: Option<mpsc::Sender<()>>,
    persist: Option<JoinHandle<()>>,
}

impl Engine {
    /// Starts `config.workers` pipeline workers.
    #[must_use]
    pub fn start(config: ServeConfig) -> Self {
        let workers = config.workers.max(1);
        let cache = SolutionCache::new(config.cache_capacity);
        if let Some(path) = &config.cache_path {
            // Best-effort warm start: a missing or partly corrupt
            // snapshot is a cold(er) cache, not a startup failure.
            let _ = cache.load(path);
        }
        let shared = Arc::new(Shared {
            queue: Bounded::new(config.queue_capacity),
            table: Inflight::new(),
            cache,
            solver: SolverCounters::default(),
            submitted: AtomicU64::new(0),
            answered: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            uncertified: AtomicU64::new(0),
            ema_micros: AtomicU64::new(0),
            config,
        });
        let workers = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        // Background persistence: snapshot the cache (atomic tmp+rename)
        // whenever it changed, so even a SIGKILL'd server restarts from a
        // recent snapshot instead of relying solely on the drop-time save
        // (which a killed process never reaches).
        let (persist_stop, persist) = if shared.config.cache_path.is_some() {
            let (tx, rx) = mpsc::channel::<()>();
            let shared = Arc::clone(&shared);
            let handle = std::thread::spawn(move || {
                let mut saved = shared.cache.generation();
                loop {
                    match rx.recv_timeout(Duration::from_millis(500)) {
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            let generation = shared.cache.generation();
                            if generation != saved {
                                if let Some(path) = &shared.config.cache_path {
                                    let _ = shared.cache.save(path);
                                }
                                saved = generation;
                            }
                        }
                        // Sender dropped: the engine is shutting down; the
                        // drop-time save takes the final snapshot.
                        _ => return,
                    }
                }
            });
            (Some(tx), Some(handle))
        } else {
            (None, None)
        };
        Engine {
            shared,
            workers,
            persist_stop,
            persist,
        }
    }

    /// A cheap handle for submitting jobs in-process.
    #[must_use]
    pub fn client(&self) -> Client {
        Client {
            shared: Arc::clone(&self.shared),
        }
    }

    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// `(hits, misses)` of the solution cache.
    #[must_use]
    pub fn cache_stats(&self) -> (u64, u64) {
        self.shared.cache.stats()
    }

    /// `(warm, cold)` branch-and-bound node counts accumulated over every
    /// step MILP of every run (finished MILP legs, improvement rounds
    /// included, and ECO re-placements) this engine has made. Warm nodes
    /// restarted from a simplex basis: a child from its parent's, a root
    /// from its own root cut loop's or, in augmentation, from an earlier
    /// step of the same run. Cold nodes ran the two-phase primal from
    /// scratch. Nodes settled without an LP count in neither; see
    /// [`propagated_nodes`](Self::propagated_nodes).
    #[must_use]
    pub fn solver_stats(&self) -> (u64, u64) {
        self.shared.solver.snapshot()
    }

    /// Branch-and-bound nodes that bound propagation settled without an
    /// LP, over the same runs as [`solver_stats`](Self::solver_stats).
    /// With its `(warm, cold)` pair this partitions every node the
    /// engine's searches explored.
    #[must_use]
    pub fn propagated_nodes(&self) -> u64 {
        self.shared.solver.propagated.load(Ordering::Relaxed)
    }

    /// `(rows_tightened, binaries_fixed, cuts_added)` accumulated by the
    /// root model-strengthening layer over every step MILP this engine has
    /// solved. All three stay zero when jobs disable strengthening.
    #[must_use]
    pub fn strengthening_stats(&self) -> (u64, u64, u64) {
        self.shared.solver.strengthening_snapshot()
    }

    /// `(refactorizations, eta_updates)` of the simplex basis, accumulated
    /// over every node LP this engine has solved. The solver has one LP
    /// kernel, the sparse revised simplex, so every step MILP adds to both
    /// counts.
    #[must_use]
    pub fn factorization_stats(&self) -> (u64, u64) {
        self.shared.solver.factorization_snapshot()
    }

    /// Job accounting so far (see [`EngineStats`] for the invariant).
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            answered: self.shared.answered.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            coalesced: self.shared.coalesced.load(Ordering::Relaxed),
            uncertified: self.shared.uncertified.load(Ordering::Relaxed),
        }
    }

    /// Closes the queue without joining: new submissions are refused,
    /// workers keep draining. The server calls this before waiting on
    /// shards so answers still flow while the backlog empties.
    pub(crate) fn close_queue(&self) {
        self.shared.queue.close();
    }

    /// Closes the queue, drains every accepted job, joins the workers and
    /// flushes the tracer. Returns the final (post-drain) accounting, for
    /// which the [`EngineStats`] invariant `submitted == answered + shed`
    /// holds.
    pub fn shutdown(mut self) -> EngineStats {
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.shared.config.tracer.flush();
        EngineStats {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            answered: self.shared.answered.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            coalesced: self.shared.coalesced.load(Ordering::Relaxed),
            uncertified: self.shared.uncertified.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        drop(self.persist_stop.take());
        if let Some(handle) = self.persist.take() {
            let _ = handle.join();
        }
        // Graceful-shutdown persistence: every path through shutdown()
        // or a plain drop lands here exactly once, after the drain and
        // after the background persist loop has exited, so the snapshot
        // holds the final cache contents.
        if let Some(path) = &self.shared.config.cache_path {
            let _ = self.shared.cache.save(path);
        }
        self.shared.config.tracer.flush();
    }
}

/// In-process submission handle (cloneable; backed by the shared engine).
#[derive(Clone)]
pub struct Client {
    shared: Arc<Shared>,
}

impl Client {
    /// Enqueues `req`; the response arrives on the returned receiver.
    /// Blocks while the queue is full (back-pressure).
    #[must_use]
    pub fn submit(&self, req: JobRequest) -> mpsc::Receiver<JobResponse> {
        let (tx, rx) = mpsc::channel();
        self.submit_with(req, tx);
        rx
    }

    /// Enqueues `req` with the response routed to `reply`, so one
    /// receiver can collect the answers of many jobs. A closed engine
    /// answers immediately with a failure response. Blocks while the
    /// queue is full.
    pub fn submit_with(&self, req: JobRequest, reply: mpsc::Sender<JobResponse>) {
        submit(&self.shared, req, Reply::Channel(reply), Admission::Block);
    }

    /// Like [`submit_with`](Client::submit_with) but never blocks: a full
    /// queue answers immediately with a typed load-shed response
    /// (`retry_after_ms`) instead of waiting for room.
    pub fn try_submit_with(&self, req: JobRequest, reply: mpsc::Sender<JobResponse>) {
        submit(&self.shared, req, Reply::Channel(reply), Admission::Shed);
    }

    /// Submits `req` and blocks for the answer.
    #[must_use]
    pub fn call(&self, req: JobRequest) -> JobResponse {
        let id = req.id;
        self.submit(req)
            .recv()
            .unwrap_or_else(|_| JobResponse::failure(id, "service shut down"))
    }
}

/// The server's estimate of how long a shed client should back off:
/// roughly one queue-drain time at the current service rate, clamped to
/// [1 ms, 30 s].
pub(crate) fn retry_hint(shared: &Shared) -> u64 {
    let ema = shared.ema_micros.load(Ordering::Relaxed).max(500);
    let queued = shared.queue.len() as u64 + 1;
    let workers = shared.config.workers.max(1) as u64;
    (queued * ema / workers / 1000).clamp(1, 30_000)
}

/// Emits the shed trace event for one refused admission.
pub(crate) fn emit_shed(shared: &Shared, retry_after_ms: u64) {
    shared.config.tracer.emit(
        Phase::Serve,
        Event::Shed {
            queued: shared.queue.len(),
            retry_after_ms,
        },
    );
}

/// The single entry point for every job.
///
/// Parses and canonicalizes on the calling thread, refuses an instance
/// past [`MAX_MODULES`] or [`MAX_NET_MEMBERS`], or one whose worst-case
/// chip area or wirelength overflows f64 (the request's, and for an ECO
/// job the edited one), before anything solves it, coalesces onto an
/// identical in-flight solve when allowed (followers park in the table
/// and return immediately), then enqueues under the chosen admission
/// policy. Whatever happens — parse failure, full queue, closed queue —
/// every call results in exactly one response per waiter, which is the
/// accounting invariant of [`EngineStats`].
pub(crate) fn submit(shared: &Arc<Shared>, req: JobRequest, reply: Reply, admission: Admission) {
    shared.submitted.fetch_add(1, Ordering::Relaxed);
    let submitted = Instant::now();
    let fail = |req: &JobRequest, reply: Reply, error: String| {
        let waiter = Waiter {
            id: req.id,
            submitted,
            reply,
        };
        let failure = JobResponse::failure(req.id, error);
        finish(shared, waiter, &failure, false);
        shared.config.tracer.flush();
    };
    let netlist = match req.parse_netlist() {
        Ok(n) => n,
        Err(e) => return fail(&req, reply, format!("bad netlist: {e}")),
    };
    if let Err(e) = within_caps(&netlist, req.width) {
        return fail(&req, reply, format!("bad netlist: {e}"));
    }
    let params = FingerprintParams {
        width: req.width,
        lambda: req.lambda,
        rotation: req.rotation,
        route: req.route,
    };
    // An ECO request ships the *base* instance plus a delta script: apply
    // the script here so everything downstream (coalescing, caching, the
    // solve) keys on the *edited* instance, exactly as if the client had
    // sent it whole.
    let (netlist, eco) = if req.eco_ops.is_empty() {
        (netlist, None)
    } else {
        let applied = crate::delta::parse_ops(&req.eco_ops)
            .map_err(Refusal::Script)
            .and_then(|ops| crate::delta::replay(&netlist, &ops).map(|out| (ops, out)));
        let (ops, out) = match applied {
            Ok(v) => v,
            Err(Refusal::Script(e)) => return fail(&req, reply, format!("bad delta: {e}")),
            Err(Refusal::Cap(e)) => return fail(&req, reply, format!("bad netlist: {e}")),
        };
        if let Err(e) = within_caps(&out.netlist, req.width) {
            return fail(&req, reply, format!("bad netlist: {e}"));
        }
        let base_canon: Arc<str> = Arc::from(canonical(&netlist, &params));
        let base_key = fingerprint_of(&base_canon);
        let base_trusted = req.eco_base.is_none_or(|pinned| pinned == base_key);
        let mut touched = out.touched_modules;
        if req.lambda > 0.0 {
            // Net neighbors only matter when wirelength is in the
            // objective; pure-area re-solves gain nothing from freeing
            // them (see `fp_core::eco_replace`).
            for name in out.touched_net_members {
                if !touched.contains(&name) {
                    touched.push(name);
                }
            }
        }
        shared.config.tracer.emit(
            Phase::Serve,
            Event::DeltaApply {
                base_key,
                ops: ops.len(),
                touched: touched.len(),
                total: out.netlist.num_modules(),
            },
        );
        (
            out.netlist,
            Some(EcoInfo {
                base_key,
                base_canon,
                base_trusted,
                touched,
            }),
        )
    };
    let canon: Arc<str> = Arc::from(canonical(&netlist, &params));
    let key = fingerprint_of(&canon);
    let waiter = Waiter {
        id: req.id,
        submitted,
        reply,
    };
    let route = if req.coalesce {
        match shared.table.join(key, &canon, waiter) {
            Admit::Follower => {
                // An identical instance is already being solved; this
                // job rides along and is answered at fan-out.
                shared.coalesced.fetch_add(1, Ordering::Relaxed);
                shared
                    .config
                    .tracer
                    .emit(Phase::Serve, Event::Coalesced { key });
                return;
            }
            Admit::Leader => JobRoute::Flight,
        }
    } else {
        JobRoute::Direct(waiter)
    };
    let job = Job {
        req,
        netlist,
        canon,
        key,
        submitted,
        route,
        eco,
    };
    let refused = match admission {
        Admission::Block => shared.queue.push(job).map_err(|j| (j, PushError::Closed)),
        Admission::Shed => shared.queue.try_push(job),
    };
    let Err((job, why)) = refused else { return };
    // The leader could not enter the queue: resolve the whole flight now
    // (followers that joined in the meantime included) so nobody waits
    // on a solve that will never run.
    let waiters = match job.route {
        JobRoute::Flight => shared.table.complete(job.key, &job.canon),
        JobRoute::Direct(w) => vec![w],
    };
    match why {
        PushError::Full => {
            let retry = retry_hint(shared);
            emit_shed(shared, retry);
            for w in waiters {
                shared.shed.fetch_add(1, Ordering::Relaxed);
                w.reply.deliver(JobResponse::shed(w.id, retry), true);
            }
        }
        PushError::Closed => {
            for w in waiters {
                shared.answered.fetch_add(1, Ordering::Relaxed);
                w.reply
                    .deliver(JobResponse::failure(w.id, "service shut down"), false);
            }
        }
    }
    shared.config.tracer.flush();
}

/// Stamps the per-waiter fields onto a copy of `template`, emits
/// [`Event::JobDone`], counts it, and delivers.
fn finish(shared: &Shared, waiter: Waiter, template: &JobResponse, coalesced: bool) {
    let mut resp = template.clone();
    resp.id = waiter.id;
    resp.coalesced = coalesced;
    resp.micros = waiter.submitted.elapsed().as_micros() as u64;
    shared.config.tracer.emit(
        Phase::Serve,
        Event::JobDone {
            id: resp.id,
            micros: resp.micros,
            degraded: resp.degraded,
            cached: resp.cached,
        },
    );
    shared.answered.fetch_add(1, Ordering::Relaxed);
    waiter.reply.deliver(resp, false);
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        let template = process(&job, shared);
        let sample = job.submitted.elapsed().as_micros() as u64;
        let ema = shared.ema_micros.load(Ordering::Relaxed);
        let next = if ema == 0 {
            sample
        } else {
            (3 * ema + sample) / 4
        };
        shared.ema_micros.store(next, Ordering::Relaxed);
        match job.route {
            JobRoute::Direct(waiter) => finish(shared, waiter, &template, false),
            JobRoute::Flight => {
                // Everyone who joined before this point shares the one
                // solve; later arrivals start a fresh flight.
                let waiters = shared.table.complete(job.key, &job.canon);
                for (i, waiter) in waiters.into_iter().enumerate() {
                    finish(shared, waiter, &template, i > 0);
                }
            }
        }
        // Per-job flush so an external trace file is greppable while the
        // server is still running (and after a hard kill).
        shared.config.tracer.flush();
    }
}

/// Whether a solved answer passes the legality certificate: no
/// [`Floorplan::violations`]. A failure is counted in `uncertified`.
fn certified(floorplan: &Floorplan, uncertified: &AtomicU64) -> bool {
    let legal = floorplan.violations().is_empty();
    if !legal {
        uncertified.fetch_add(1, Ordering::Relaxed);
    }
    legal
}

/// The greedy placement `placed` that stands in for a job without a
/// certified answer, put through the same certificate ([`certified`]): a
/// stand-in that fails it is refused like a placement error, so it is
/// neither answered nor cached.
fn greedy_stand_in(
    placed: Result<Floorplan, fp_core::FloorplanError>,
    uncertified: &AtomicU64,
) -> Result<Floorplan, String> {
    let floorplan = placed.map_err(|e| e.to_string())?;
    if certified(&floorplan, uncertified) {
        Ok(floorplan)
    } else {
        Err("the greedy placement failed its legality certificate".to_string())
    }
}

/// Runs one job through the degradation ladder: cache hit → ECO
/// re-placement → greedy bottom-left skyline if the budget ran out before
/// solving → the backend race ([`crate::race`]; the default is the
/// paper's pipeline alone) → greedy if the race has no winner or the ECO
/// or raced answer fails the legality certificate ([`certified`]), then
/// routing while budget remains. Only a missing/unplaceable instance
/// yields `ok: false`. Returns a *template* response: `id`, `micros` and
/// `coalesced` are stamped per waiter by `finish`.
///
/// Deadlines are measured from the *leader's* submission; coalesced
/// followers share the leader's remaining budget (they arrived later, so
/// their own budget can only be looser — except when a follower carried
/// a tighter `deadline_ms`, which coalescing deliberately ignores).
fn process(job: &Job, shared: &Shared) -> JobResponse {
    let req = &job.req;
    let config = &shared.config;
    let tracer = &config.tracer;
    let netlist = &job.netlist;

    if req.use_cache {
        if let Some(mut hit) = shared.cache.get(job.key, &job.canon) {
            tracer.emit(Phase::Serve, Event::CacheHit { key: job.key });
            hit.cached = true;
            hit.fingerprint = job.key;
            return hit;
        }
        tracer.emit(Phase::Serve, Event::CacheMiss { key: job.key });
    }

    // `checked_add` so a huge-but-parseable deadline_ms cannot panic the
    // worker via `Instant` overflow; a deadline too far away to represent
    // is no deadline at all.
    let deadline = (req.deadline_ms > 0)
        .then(|| {
            job.submitted
                .checked_add(Duration::from_millis(req.deadline_ms))
        })
        .flatten();
    let expired = |at: Instant| deadline.is_some_and(|d| at >= d);

    let objective = if req.lambda > 0.0 {
        Objective::AreaPlusWirelength { lambda: req.lambda }
    } else {
        Objective::Area
    };
    let mut fp_config = FloorplanConfig::default()
        .with_objective(objective)
        .with_rotation(req.rotation)
        .with_step_options(
            fp_milp::SolveOptions::default()
                .with_node_limit(config.node_limit)
                .with_time_limit(config.time_limit),
        )
        // The driver re-budgets every augmentation/re-optimization MILP
        // with the time *remaining* before the deadline (the per-step
        // limit above is only a cap), so a K-step job cannot overshoot
        // its deadline K-fold; the cooperative in-LP check makes each
        // budget binding at simplex-iteration granularity.
        .with_deadline(deadline);
    if let Some(w) = req.width {
        fp_config = fp_config.with_chip_width(w);
    }

    let mut degraded = false;
    let mut portfolio = false;

    // The ECO fast path: resolve the base placement from the cache, seed
    // the incremental driver with it, and re-place only the touched
    // neighborhood. Any miss on the ladder (untrusted base, cache miss,
    // delta too large, driver error) falls through to a scratch solve of
    // the edited instance — the answer is then merely slower, never wrong.
    let mut eco_replaced = 0usize;
    let eco_fp: Option<Floorplan> = job.eco.as_ref().and_then(|eco| {
        if expired(Instant::now()) {
            return None;
        }
        let base_resp = eco
            .base_trusted
            .then(|| shared.cache.get(eco.base_key, &eco.base_canon))
            .flatten()?;
        let entries = base_resp.placement_entries().ok()?;
        let total = netlist.num_modules();
        let edited_ids: Vec<fp_netlist::ModuleId> = eco
            .touched
            .iter()
            .filter_map(|name| netlist.module_by_name(name))
            .collect();
        if total == 0 || edited_ids.len() as f64 / total as f64 > ECO_THRESHOLD {
            return None;
        }
        // Base placements mapped by *name* into the edited id space;
        // entries for modules the delta removed simply drop out. The
        // server never enables routing envelopes, so envelope == rect.
        let base_mods: Vec<PlacedModule> = entries
            .iter()
            .filter_map(|e| {
                netlist.module_by_name(&e.name).map(|id| PlacedModule {
                    id,
                    rect: fp_geom::Rect::new(e.x, e.y, e.w, e.h),
                    envelope: fp_geom::Rect::new(e.x, e.y, e.w, e.h),
                    rotated: e.rotated,
                })
            })
            .collect();
        let eco_cfg = fp_config.clone().with_chip_width(base_resp.chip_width);
        let outcome = fp_core::eco_replace(netlist, &eco_cfg, &base_mods, &edited_ids).ok()?;
        degraded |= outcome.stats.greedy_fallbacks() > 0;
        shared.solver.record(&outcome.stats);
        eco_replaced = outcome.replaced.len();
        Some(outcome.floorplan)
    });
    let eco_base_hit = eco_fp.is_some();
    if let Some(eco) = &job.eco {
        tracer.emit(
            Phase::Serve,
            Event::EcoJob {
                id: req.id,
                base_key: eco.base_key,
                base_hit: eco_base_hit,
                replaced: eco_replaced,
                total: netlist.num_modules(),
            },
        );
    }

    let solved = match eco_fp {
        Some(fp) => Some(("eco", fp)),
        // Budget gone before any solving started (long queue wait).
        None if expired(Instant::now()) => None,
        None => {
            let race = crate::portfolio::race(
                netlist,
                &fp_config,
                &config.backends,
                config.improve_rounds,
                job.key,
                tracer,
            );
            portfolio = config.backends.len() > 1;
            if let Some(stats) = &race.milp_stats {
                shared.solver.record(stats);
            }
            // The MILP leg's greedy fallbacks matter only if it won.
            let milp_fell_back = race.milp_stats.is_some_and(|s| s.greedy_fallbacks() > 0);
            race.winner.map(|(winner, fp)| {
                degraded |= winner == Backend::Milp && milp_fell_back;
                (winner.as_str(), fp)
            })
        }
    };
    // The legality certificate: a solved answer that fails it never
    // leaves the engine, and the greedy placement below replaces it.
    let solved = solved.filter(|(_, fp)| certified(fp, &shared.uncertified));
    let (backend, floorplan) = match solved {
        Some(answer) => answer,
        None => {
            // No time left to solve, no leg produced a legal answer, or
            // the answer failed its certificate: greedy skyline placement
            // instead of an error, if it passes the certificate itself.
            degraded = true;
            let placed = fp_core::bottom_left(netlist, &fp_config);
            match greedy_stand_in(placed, &shared.uncertified) {
                Ok(fp) => ("greedy", fp),
                Err(e) => return JobResponse::failure(req.id, e),
            }
        }
    };
    degraded |= expired(Instant::now());

    // Routed wirelength only when asked for and still inside budget;
    // otherwise the paper's center-to-center estimate.
    let mut routed = None;
    if req.route {
        if expired(Instant::now()) {
            degraded = true;
        } else {
            match fp_route::route(&floorplan, netlist, &fp_route::RouteConfig::default()) {
                Ok(routing) => routed = Some(routing.total_wirelength),
                Err(_) => degraded = true,
            }
        }
    }
    let wirelength = routed.unwrap_or_else(|| floorplan.center_wirelength(netlist));

    let mut placement = String::new();
    for (i, m) in floorplan.iter().enumerate() {
        if i > 0 {
            placement.push(';');
        }
        let _ = write!(
            placement,
            "{} {} {} {} {} {}",
            netlist.module(m.id).name(),
            m.rect.x,
            m.rect.y,
            m.rect.w,
            m.rect.h,
            u8::from(m.rotated)
        );
    }

    let chip_width = floorplan.chip_width();
    let chip_height = floorplan.chip_height();
    let area = floorplan.chip_area();
    let utilization = floorplan.utilization(netlist);
    // Finite module sizes can still multiply or add past f64::MAX, and the
    // line protocol encodes a non-finite number as `null`. Such a job has
    // no answer to give, so it fails, and a failure is never cached.
    if ![chip_width, chip_height, area, utilization, wirelength]
        .iter()
        .all(|v| v.is_finite())
    {
        return JobResponse::failure(req.id, "floorplan dimensions overflow f64");
    }

    let resp = JobResponse {
        id: req.id,
        ok: true,
        error: String::new(),
        chip_width,
        chip_height,
        area,
        utilization,
        wirelength,
        degraded,
        cached: false,
        coalesced: false,
        retry_after_ms: 0,
        micros: 0, // stamped per waiter
        backend: backend.to_string(),
        portfolio,
        placement,
        fingerprint: job.key,
        eco_base_hit,
        eco_replaced,
        eco_total: if job.eco.is_some() {
            netlist.num_modules()
        } else {
            0
        },
    };
    // Only full-quality answers are worth replaying; a degraded result
    // would pin a worse placement for future non-degraded requests. The
    // cached template drops the ECO report — a later cache hit on this
    // instance is an ordinary hit, however the placement was first made.
    if req.use_cache && !degraded {
        let mut cached = resp.clone();
        cached.eco_base_hit = false;
        cached.eco_replaced = 0;
        cached.eco_total = 0;
        shared.cache.insert(job.key, Arc::clone(&job.canon), cached);
    }
    resp
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_geom::Rect;
    use fp_netlist::ModuleId;

    fn placed(id: usize, rect: Rect) -> PlacedModule {
        PlacedModule {
            id: ModuleId(id),
            rect,
            envelope: rect,
            rotated: false,
        }
    }

    #[test]
    fn certificate_refuses_overlaps_and_counts_them() {
        let uncertified = AtomicU64::new(0);
        let apart = Floorplan::new(
            4.0,
            vec![
                placed(0, Rect::new(0.0, 0.0, 2.0, 2.0)),
                placed(1, Rect::new(2.0, 0.0, 2.0, 2.0)),
            ],
        );
        assert!(certified(&apart, &uncertified));
        assert_eq!(uncertified.load(Ordering::Relaxed), 0);
        let overlapping = Floorplan::new(
            4.0,
            vec![
                placed(0, Rect::new(0.0, 0.0, 2.0, 2.0)),
                placed(1, Rect::new(1.0, 1.0, 2.0, 2.0)),
            ],
        );
        assert!(!certified(&overlapping, &uncertified));
        assert_eq!(uncertified.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn greedy_stand_in_must_pass_the_certificate() {
        let uncertified = AtomicU64::new(0);
        let apart = Floorplan::new(
            4.0,
            vec![
                placed(0, Rect::new(0.0, 0.0, 2.0, 2.0)),
                placed(1, Rect::new(2.0, 0.0, 2.0, 2.0)),
            ],
        );
        assert!(greedy_stand_in(Ok(apart), &uncertified).is_ok());
        let overlapping = Floorplan::new(
            4.0,
            vec![
                placed(0, Rect::new(0.0, 0.0, 2.0, 2.0)),
                placed(1, Rect::new(1.0, 1.0, 2.0, 2.0)),
            ],
        );
        let refused = greedy_stand_in(Ok(overlapping), &uncertified);
        assert!(refused.is_err_and(|e| e.contains("legality certificate")));
        assert_eq!(uncertified.load(Ordering::Relaxed), 1);
        let failed = greedy_stand_in(Err(fp_core::FloorplanError::EmptyNetlist), &uncertified);
        assert!(failed.is_err());
        assert_eq!(uncertified.load(Ordering::Relaxed), 1);
    }
}
