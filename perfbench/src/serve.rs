//! The `serve_mix` workload: fp-serve over loopback TCP.
//!
//! An in-process [`Server`] with 2 workers answers 2 closed-loop client
//! connections, so a job never waits in the queue. Each session runs three
//! fixed job lists in phases that hold one class each: fresh and hit
//! chunks by turns, then the ECO edits.
//!
//! * **fresh**: routed 5-module instances never seen before (cache misses
//!   that run the whole pipeline);
//! * **hit**: exact repeats of a warm set solved during set-up (answered
//!   from the solution cache: pure fp-serve overhead);
//! * **eco**: single-module edits of a 33-module base solved during
//!   set-up, re-placed incrementally against the cached base.
//!
//! The classes run in phases of their own, so no traffic ratio has to be
//! chosen: each class has its own latency metric, and throughput and CPU
//! per job count the fresh class alone. Misses write the cache and hits
//! read it, so a gain for one class that costs another still shows.

use crate::check::{self, Placed};
use crate::layers::Layers;
use crate::metrics::{self, share, Metrics, Samples, StretchTimer};
use crate::{shrink_edit, Options, Outcome, Rng, NEVER};
use fp_core::{Floorplan, PlacedModule};
use fp_geom::Rect;
use fp_netlist::generator::ProblemGenerator;
use fp_netlist::Netlist;
use fp_serve::fingerprint::{canonical, fingerprint_of, FingerprintParams};
use fp_serve::{apply_delta, parse_delta_ops, JobRequest, JobResponse, ServeConfig, Server};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Sessions per run: the lists run once on each of this many fresh
/// servers, each set up from scratch; `setup_s` is their median set-up.
const SESSIONS: usize = 5;
/// Closed-loop connections, and the server's workers.
const CONNECTIONS: usize = 2;
/// Modules of a fresh (cache-miss) instance.
const FRESH_MODULES: usize = 5;
/// Distinct instances that repeat as cache hits.
const WARM_SET: u64 = 4;
/// Modules of the ECO base instance.
const ECO_MODULES: usize = 33;
/// Generator seeds: the warm set, the ECO base and the fresh pool draw
/// from disjoint ranges, so no fresh job repeats a cached instance.
const WARM_SEED: u64 = 500;
const ECO_SEED: u64 = 0xEC0;
const FRESH_SEED: u64 = 10_000;
/// Nominal seconds, on a 2-core x86-64 host over both connections, of one
/// fresh job plus one ECO job and its share of the hits; sizes the lists
/// from `--seconds`.
const FRESH_SECONDS: f64 = 0.068;
/// Hit jobs per fresh job. Each class is timed on its own, so this only
/// sets how many hit samples a session takes; hits cost microseconds.
const HITS_PER_FRESH: usize = 8;
/// The fresh list runs in this many chunks, each followed by its share of
/// the hits. A session's hits then sample several moments of it instead of
/// one 10 ms stretch that a single scheduling hiccup can slow.
const CHUNKS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Fresh,
    Hit,
    Eco,
}

/// One request of a fixed list and what its answer must satisfy.
struct Job {
    class: Class,
    /// The encoded request, newline-terminated.
    line: String,
    /// The instance the answer must place (the edited one for ECO).
    netlist: Arc<Netlist>,
}

/// A connection's answer to one job.
struct Answer {
    job: usize,
    rtt: Duration,
    resp: Result<JobResponse, String>,
}

/// The fixed job lists and the phases a session runs them in, in order:
/// fresh and hit chunks by turns, then the ECO edits.
struct Lists {
    jobs: Vec<Job>,
    phases: Vec<(Class, Range<usize>)>,
    base: Netlist,
}

/// The engine configuration every workload's fp-serve runs with: `workers`
/// workers, a cache that never evicts, time limits that never bind.
pub fn serve_config(workers: usize) -> ServeConfig {
    let mut config = ServeConfig::default()
        .with_workers(workers)
        .with_cache_capacity(1 << 14);
    config.time_limit = NEVER;
    config
}

fn request(id: u64, netlist: &Netlist, route: bool) -> JobRequest {
    let mut req = JobRequest::new(id, netlist);
    req.route = route;
    req
}

/// The fixed job lists. The fresh pool and the ECO edits are fixed sets,
/// so every count repeats across seeds; the seed orders them.
fn lists(opts: &Options) -> Result<Lists, String> {
    let fresh_jobs = if opts.tiny {
        4
    } else {
        (opts.seconds as f64 / FRESH_SECONDS / SESSIONS as f64).ceil() as usize
    };
    let warm: Vec<Arc<Netlist>> = (0..WARM_SET)
        .map(|i| Arc::new(ProblemGenerator::new(FRESH_MODULES, WARM_SEED + i).generate()))
        .collect();
    let base = ProblemGenerator::new(ECO_MODULES, ECO_SEED).generate();
    let base_key = fingerprint_of(&canonical(&base, &params(&request(0, &base, false))));
    let mut rng = Rng::new(opts.seed);
    let mut fresh: Vec<u64> = (0..fresh_jobs as u64).map(|i| FRESH_SEED + i).collect();
    rng.shuffle(&mut fresh);
    let mut edits = Vec::new();
    let mut seen = HashSet::new();
    let mut edit_rng = Rng::new(ECO_SEED);
    while edits.len() < fresh_jobs {
        // Every edit distinct: a repeated edit would be a cache hit.
        let script = shrink_edit(&base, &mut edit_rng);
        if seen.insert(script.clone()) {
            edits.push(script);
        }
    }
    rng.shuffle(&mut edits);
    let mut jobs = Vec::new();
    let mut phases = Vec::new();
    let mut fresh = fresh.into_iter();
    let mut hits = 0;
    for _ in 0..CHUNKS {
        let start = jobs.len();
        for seed in fresh.by_ref().take(fresh_jobs.div_ceil(CHUNKS)) {
            let nl = ProblemGenerator::new(FRESH_MODULES, seed).generate();
            jobs.push(job(
                &jobs,
                Class::Fresh,
                request(0, &nl, true),
                Arc::new(nl),
            ));
        }
        let chunk = jobs.len() - start;
        phases.push((Class::Fresh, start..jobs.len()));
        let start = jobs.len();
        for _ in 0..HITS_PER_FRESH * chunk {
            let nl = &warm[hits % warm.len()];
            hits += 1;
            jobs.push(job(&jobs, Class::Hit, request(0, nl, true), Arc::clone(nl)));
        }
        phases.push((Class::Hit, start..jobs.len()));
    }
    let start = jobs.len();
    for script in edits {
        let edited = parse_delta_ops(&script).and_then(|ops| apply_delta(&base, &ops))?;
        let req = request(0, &base, false)
            .with_eco(script)
            .with_eco_base(base_key);
        jobs.push(job(&jobs, Class::Eco, req, Arc::new(edited.netlist)));
    }
    phases.push((Class::Eco, start..jobs.len()));
    phases.retain(|(_, range)| !range.is_empty());
    Ok(Lists { jobs, phases, base })
}

/// The next job of the list: `req` numbered after the jobs before it.
fn job(before: &[Job], class: Class, req: JobRequest, netlist: Arc<Netlist>) -> Job {
    let id = before.len() as u64 + 1;
    Job {
        class,
        line: JobRequest { id, ..req }.encode() + "\n",
        netlist,
    }
}

fn params(req: &JobRequest) -> FingerprintParams {
    FingerprintParams {
        width: req.width,
        lambda: req.lambda,
        rotation: req.rotation,
        route: req.route,
    }
}

/// Sends one newline-terminated line and reads one answer line.
fn call(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &str,
) -> Result<String, String> {
    writer
        .write_all(line.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut answer = String::new();
    match reader.read_line(&mut answer) {
        Ok(0) => Err("server closed the connection".into()),
        Ok(_) => Ok(answer),
        Err(e) => Err(format!("receive: {e}")),
    }
}

fn connect(server: &Server) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream = TcpStream::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let writer = stream.try_clone().map_err(|e| e.to_string())?;
    Ok((writer, BufReader::new(stream)))
}

/// Binds a server and solves the warm set and the ECO base into its cache.
fn start_session(base: &Netlist) -> Result<Server, String> {
    let server =
        Server::bind("127.0.0.1:0", serve_config(CONNECTIONS)).map_err(|e| format!("bind: {e}"))?;
    let (mut writer, mut reader) = connect(&server)?;
    let mut solve = |line: String| -> Result<JobResponse, String> {
        let resp = JobResponse::decode(call(&mut writer, &mut reader, &line)?.trim_end())?;
        if resp.ok {
            Ok(resp)
        } else {
            Err(format!("set-up solve failed: {}", resp.error))
        }
    };
    for i in 0..WARM_SET {
        let nl = ProblemGenerator::new(FRESH_MODULES, WARM_SEED + i).generate();
        let resp = solve(request(0, &nl, true).encode() + "\n")?;
        if resp.degraded {
            // Degraded answers are not cached, so repeats would miss.
            return Err(format!("warm-set instance {i} came back degraded"));
        }
    }
    solve(request(0, base, false).encode() + "\n")?;
    Ok(server)
}

/// Per-layer work a traced client does after an answer arrives: the
/// public functions the server ran on that request, timed one by one, and
/// the server's own time for an ECO answer. `netlist` is the instance the
/// answer places (the edited one for ECO).
pub(crate) fn shadow(
    line: &str,
    resp: &JobResponse,
    rtt: Duration,
    netlist: &Netlist,
    layers: &mut Layers,
) {
    let t = Instant::now();
    let Ok(req) = JobRequest::decode(line.trim_end()) else {
        return;
    };
    layers.decode.push(t.elapsed());
    let t = Instant::now();
    let Ok(parsed) = req.parse_netlist() else {
        return;
    };
    layers.parse.push(t.elapsed());
    let t = Instant::now();
    black_box(fingerprint_of(&canonical(&parsed, &params(&req))));
    layers.canonical.push(t.elapsed());
    let t = Instant::now();
    black_box(resp.encode());
    layers.encode.push(t.elapsed());
    layers
        .io
        .push_ms((rtt.as_secs_f64() * 1e3 - resp.micros as f64 / 1e3).max(0.0));
    if !req.eco_ops.is_empty() {
        layers.eco_jobs += 1;
        layers.eco_base_hits += u64::from(resp.eco_base_hit);
        let t = Instant::now();
        let applied = parse_delta_ops(&req.eco_ops).and_then(|ops| apply_delta(&parsed, &ops));
        layers.delta.push(t.elapsed());
        black_box(applied.is_ok());
        // The server's own time for the answer: delta, base lookup and
        // the incremental re-placement, warm-started from the base's basis.
        layers.eco_replace.push_ms(resp.micros as f64 / 1e3);
    }
    if let Some(placed) = placed_modules(resp, netlist) {
        let floorplan = Floorplan::new(resp.chip_width, placed);
        let t = Instant::now();
        black_box(floorplan.violations());
        layers.violations.push(t.elapsed());
    }
}

/// A service answer's placement as fp-core modules of `netlist` (the
/// server never reserves envelopes, so envelope = rectangle).
fn placed_modules(resp: &JobResponse, netlist: &Netlist) -> Option<Vec<PlacedModule>> {
    let entries = resp.placement_entries().ok()?;
    entries
        .iter()
        .map(|e| {
            let rect = Rect::new(e.x, e.y, e.w, e.h);
            netlist.module_by_name(&e.name).map(|id| PlacedModule {
                id,
                rect,
                envelope: rect,
                rotated: e.rotated,
            })
        })
        .collect()
}

/// Drives the jobs of `phase` over the session's connections, each taking
/// the next unsent job when its previous answer arrives, so both finish
/// within one job of each other. Returns the answers and the wall time
/// from the first request to the last answer.
fn drive(
    server: &Server,
    jobs: &[Job],
    phase: Range<usize>,
    layers: Option<&mut Layers>,
) -> (Vec<Answer>, Duration) {
    let barrier = Barrier::new(CONNECTIONS + 1);
    let cursor = AtomicUsize::new(phase.start);
    let traced = layers.is_some();
    let (answers, wall, shadows) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                let (barrier, cursor, end) = (&barrier, &cursor, phase.end);
                let conn = connect(server);
                scope.spawn(move || {
                    let mut answers = Vec::new();
                    let mut shadow_layers = Layers::default();
                    let Ok((mut writer, mut reader)) = conn else {
                        barrier.wait();
                        return (answers, shadow_layers);
                    };
                    barrier.wait();
                    loop {
                        let j = cursor.fetch_add(1, Ordering::Relaxed);
                        if j >= end {
                            break;
                        }
                        let t = Instant::now();
                        let line = call(&mut writer, &mut reader, &jobs[j].line);
                        let rtt = t.elapsed();
                        let resp = line.and_then(|l| JobResponse::decode(l.trim_end()));
                        if let (true, Ok(r)) = (traced, &resp) {
                            shadow(&jobs[j].line, r, rtt, &jobs[j].netlist, &mut shadow_layers);
                        }
                        let failed = resp.is_err();
                        answers.push(Answer { job: j, rtt, resp });
                        if failed {
                            break;
                        }
                    }
                    (answers, shadow_layers)
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let mut answers = Vec::new();
        let mut shadows = Vec::new();
        for h in handles {
            let (a, s) = h.join().expect("client connection thread panicked");
            answers.extend(a);
            shadows.push(s);
        }
        (answers, started.elapsed(), shadows)
    });
    if let Some(layers) = layers {
        for s in shadows {
            layers.absorb(s);
        }
    }
    (answers, wall)
}

/// Runs every phase of one session. Returns the answers, the fresh
/// phases' stretch (their jobs, wall and CPU time summed) and the wall
/// time of all phases.
fn session(
    server: &Server,
    lists: &Lists,
    mut layers: Option<&mut Layers>,
) -> (Vec<Answer>, metrics::Stretch, Duration) {
    let mut answers = Vec::new();
    let mut fresh = metrics::Stretch {
        jobs: 0,
        wall: Duration::ZERO,
        cpu: Duration::ZERO,
    };
    let mut wall = Duration::ZERO;
    for (class, range) in &lists.phases {
        let timer = StretchTimer::start();
        let (a, took) = drive(server, &lists.jobs, range.clone(), layers.as_deref_mut());
        let stretch = timer.stop(range.len());
        if *class == Class::Fresh {
            fresh.jobs += stretch.jobs;
            fresh.wall += stretch.wall;
            fresh.cpu += stretch.cpu;
        }
        answers.extend(a);
        wall += took;
    }
    (answers, fresh, wall)
}

/// Run-wide tallies of one session.
#[derive(Default)]
struct Tally {
    failed: u64,
    errors: Vec<String>,
    /// Per job: the client round trip of a checked answer.
    rtts: Vec<Option<Duration>>,
    answers: u64,
    degraded: u64,
    /// Terms of the area and wirelength sums.
    chip_area: Vec<f64>,
    module_area: Vec<f64>,
    routed_wl: Vec<f64>,
    /// Per job: answer area bits and degraded flag, for twin comparison.
    results: Vec<Option<(u64, bool)>>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

/// Checks every answer of a session and folds it into a tally.
fn settle(jobs: &[Job], answers: Vec<Answer>, report: fp_serve::ShutdownReport) -> Tally {
    let mut tally = Tally {
        rtts: vec![None; jobs.len()],
        results: vec![None; jobs.len()],
        ..Tally::default()
    };
    let books = report.accounting;
    if books.accepted != books.completed + books.shed || books.shed > 0 {
        tally.fail(format!(
            "server books: accepted {} != completed {} + shed {} (or shed)",
            books.accepted, books.completed, books.shed
        ));
    }
    if answers.len() < jobs.len() {
        tally.failed += (jobs.len() - answers.len()) as u64;
        tally.errors.push(format!(
            "{} jobs never answered",
            jobs.len() - answers.len()
        ));
    }
    for a in answers {
        let job = &jobs[a.job];
        let resp = match a.resp {
            Ok(r) if r.ok && !r.is_shed() => r,
            Ok(r) => {
                tally.fail(format!("job {}: not ok: {}", a.job, r.error));
                continue;
            }
            Err(e) => {
                tally.fail(format!("job {}: {e}", a.job));
                continue;
            }
        };
        let placed: Result<Vec<Placed>, String> =
            resp.placement_entries().map(|e| check::from_entries(&e));
        let verdict =
            placed.and_then(|p| check::check(&job.netlist, resp.chip_width, resp.chip_height, &p));
        let class_ok = match job.class {
            Class::Fresh => !resp.cached,
            Class::Hit => resp.cached,
            Class::Eco => resp.eco_base_hit && !resp.cached,
        };
        if let Err(e) = verdict {
            tally.fail(format!("job {}: illegal answer: {e}", a.job));
            continue;
        }
        if !class_ok {
            tally.fail(format!(
                "job {}: {:?} answer cached={} eco_base_hit={}",
                a.job, job.class, resp.cached, resp.eco_base_hit
            ));
            continue;
        }
        tally.rtts[a.job] = Some(a.rtt);
        tally.answers += 1;
        tally.degraded += u64::from(resp.degraded);
        tally.chip_area.push(resp.area);
        tally.module_area.push(job.netlist.total_module_area());
        if job.class != Class::Eco {
            tally.routed_wl.push(resp.wirelength);
        }
        tally.results[a.job] = Some((resp.area.to_bits(), resp.degraded));
    }
    tally
}

/// Runs `serve_mix`.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let lists = lists(opts)?;
    let jobs = &lists.jobs;
    let mut out = Metrics::default();
    let mut report = String::new();
    let count = |class| jobs.iter().filter(|j| j.class == class).count();
    let _ = writeln!(
        report,
        "serve_mix: {} jobs per session ({} fresh and {} hit in {CHUNKS} chunks each, \
         then {} eco) over {CONNECTIONS} connections, seed {}, {}",
        jobs.len(),
        count(Class::Fresh),
        count(Class::Hit),
        count(Class::Eco),
        opts.seed,
        if opts.trace { "traced" } else { "untraced" },
    );

    if opts.trace {
        // Twin sessions on fresh servers, one untraced and one traced; the
        // seed's parity picks which runs first.
        let mut layers = Layers::default();
        // A throwaway set-up first, as the untraced run's repeated set-ups
        // do, so neither twin pays the process's warm-up.
        start_session(&lists.base)?.shutdown();
        let mut plain_tally = None;
        let mut traced = None;
        for traced_turn in [!opts.seed.is_multiple_of(2), opts.seed.is_multiple_of(2)] {
            let server = start_session(&lists.base)?;
            if traced_turn {
                let (answers, _, wall) = session(&server, &lists, Some(&mut layers));
                layers.traced = wall;
                traced = Some((server, answers));
            } else {
                let (answers, _, wall) = session(&server, &lists, None);
                layers.untraced = wall;
                plain_tally = Some(settle(jobs, answers, server.shutdown()));
            }
        }
        let plain_tally = plain_tally.expect("untraced twin ran");
        let (server, answers) = traced.expect("traced twin ran");
        let (warm, cold) = server.solver_stats();
        let (refactorizations, _) = server.factorization_stats();
        let (hits, misses) = server.cache_stats();
        let mut tally = settle(jobs, answers, server.shutdown());
        layers.milp_nodes = warm + cold;
        layers.milp_warm = warm;
        layers.milp_cold = cold;
        layers.milp_refactorizations = refactorizations;
        layers.cache_hits = hits;
        layers.cache_lookups = hits + misses;
        let differ = (0..jobs.len())
            .filter(|&j| {
                let (a, b) = (plain_tally.results[j], tally.results[j]);
                a.is_some() && b.is_some() && a != b
            })
            .count();
        if differ > 0 {
            tally.fail(format!("{differ} traced answers differ from their twins"));
        }
        for e in plain_tally.errors.iter().chain(&tally.errors) {
            let _ = writeln!(report, "FAILED {e}");
        }
        report.push_str(&layers.emit(&mut out));
        return Ok(Outcome {
            attempted: 2 * jobs.len() as u64,
            failed: plain_tally.failed + tally.failed,
            metrics: out,
            report,
        });
    }

    // The lists run once per session, each on a fresh server, so every
    // fresh job is a miss every time. Each job counts at its fastest
    // session: the one bursts of other tenants' load touched least.
    let mut setup_times = Vec::new();
    let mut best: Vec<Option<Duration>> = vec![None; jobs.len()];
    let mut stretches = Vec::new();
    let mut failed = 0;
    let mut first: Option<Tally> = None;
    for _ in 0..SESSIONS {
        let t = Instant::now();
        let server = start_session(&lists.base)?;
        setup_times.push(t.elapsed());
        let (answers, fresh, _) = session(&server, &lists, None);
        stretches.push(fresh);
        let mut tally = settle(jobs, answers, server.shutdown());
        for (b, r) in best.iter_mut().zip(&tally.rtts) {
            if let Some(r) = *r {
                *b = Some(b.map_or(r, |b| b.min(r)));
            }
        }
        if let Some(first) = &first {
            let differ = (0..jobs.len())
                .filter(|&j| first.results[j] != tally.results[j])
                .count();
            if differ > 0 {
                tally.fail(format!("{differ} answers differ from the first session's"));
            }
        }
        failed += tally.failed;
        for e in &tally.errors {
            let _ = writeln!(report, "FAILED {e}");
        }
        first.get_or_insert(tally);
    }
    let tally = first.expect("at least one session");
    let mut samples: [Samples; 3] = Default::default();
    for (job, rtt) in jobs.iter().zip(&best) {
        if let Some(rtt) = rtt {
            samples[job.class as usize].push(*rtt);
        }
    }
    let [fresh, hit, eco] = &samples;
    let (tail, pct) = fresh.tail();
    // Throughput and CPU per job: fresh jobs over the fresh phase of the
    // fastest session.
    let (throughput, cpu_per_job) = metrics::best_rates(&stretches);
    out.push("setup_s", "s", metrics::median_secs(&setup_times));
    out.push("throughput_jobs_s", "1/s", throughput);
    out.push("job_p50_ms", "ms", fresh.median());
    out.push("job_tail_ms", "ms", tail);
    out.push("hit_p50_ms", "ms", hit.median());
    out.push("eco_p50_ms", "ms", eco.median());
    out.push("cpu_s_per_job", "s", cpu_per_job);
    out.push(
        "area_ratio",
        "ratio",
        share(
            metrics::order_free_sum(&tally.chip_area),
            metrics::order_free_sum(&tally.module_area),
        ),
    );
    out.push(
        "routed_wl",
        "length",
        metrics::order_free_sum(&tally.routed_wl),
    );
    out.push(
        "full_quality_share",
        "ratio",
        1.0 - share(tally.degraded as f64, tally.answers as f64),
    );
    out.push("peak_rss_mb", "MiB", metrics::peak_rss_mb());
    let _ = writeln!(
        report,
        "samples: fresh {} (tail = p{pct:.1}), hit {}, eco {}, each the fastest of \
         {SESSIONS} sessions; degraded {}",
        fresh.len(),
        hit.len(),
        eco.len(),
        tally.degraded
    );
    for m in &out.0 {
        let _ = writeln!(report, "{:<20} {:>14.6} {}", m.name, m.value, m.unit);
    }
    Ok(Outcome {
        attempted: (SESSIONS * jobs.len()) as u64,
        failed,
        metrics: out,
        report,
    })
}
