//! Writes `BENCH_SERVE.json`: the event-driven front end (sharded poll
//! loops + single-flight coalescing) under many connections, plus
//! overload, deadline and ECO legs.
//!
//! Usage: `serve_snapshot [OUT_PATH] [CONNS]` (default `BENCH_SERVE.json`,
//! 1000 connections). Four legs:
//!
//! * `event` — CONNS concurrent connections, one job each, 50% of them
//!   one shared duplicate instance (evenly interleaved), the cache off so
//!   dedup is pure coalescing. The leg runs [`REPS`] times; the reported
//!   rep is the median by wall time. Recorded: throughput, latency
//!   p50/p90/p99/max, solves, coalesced, and the post-shutdown accounting
//!   (`accepted == completed == CONNS`). A connection reset before the
//!   acceptor took it (CONNS connects at once overflow the listen
//!   backlog) is retried; each rep prints how many connections were.
//! * `overload` — open-loop 2x-capacity burst against a deliberately tiny
//!   admission budget (1 worker, queue 2, per-shard bound 4): pins that
//!   overload sheds with typed `retry_after_ms` instead of queueing
//!   without bound, that the books still balance, and the served jobs'
//!   p99 latency (the tail `scripts/check.sh` diffs against this
//!   snapshot). `serve_snapshot --overload-only` runs just this leg and
//!   prints its JSON object to stdout for that comparison.
//! * `deadline` — the same 50 ms-deadline workload solved twice: by the
//!   MILP pipeline alone (the `[milp]` default, reported as `sequential`)
//!   and by the milp+annealer+analytic portfolio race. Recorded per leg:
//!   deadline-hit rate, degraded share, mean area, and which backend won
//!   each job. The portfolio's hit rate must be at least the MILP-only
//!   one's. `serve_snapshot --deadline-only` runs just this leg, with
//!   that assert, and prints its JSON object to stdout.
//! * `eco` — one [`ECO_MODULES`]-module base instance solved from
//!   scratch, then [`ECO_EDITS`] single-module edits each solved both
//!   ways: from scratch (the edited netlist as a fresh job) and as an
//!   ECO delta job pinned to the base fingerprint. Recorded: the median
//!   and mean ECO-vs-scratch solve-time ratio, the median and max
//!   ECO-vs-scratch area ratio, and how many deltas rode the incremental
//!   path. `serve_snapshot --eco-only` runs just this leg and prints its
//!   JSON object to stdout; `scripts/check.sh` pins the median latency
//!   ratio <= 0.5 and the median area ratio <= 1.05 against it.

use fp_netlist::generator::ProblemGenerator;
use fp_serve::{Backend, Engine, JobRequest, JobResponse, ServeConfig, Server, ShutdownReport};
use std::io::{BufRead, BufReader, ErrorKind, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const REPS: usize = 3;
const DUP_PCT: u64 = 50;
const MODULES: usize = 4;

/// Attempts per event-leg client before a reset connection is an error.
const ATTEMPTS: u32 = 8;
/// Back-off before the first reconnect; it doubles with each attempt.
const FIRST_BACKOFF: Duration = Duration::from_millis(5);

/// The deadline leg's workload: jobs, modules per instance, budget.
const DL_JOBS: u64 = 24;
const DL_MODULES: usize = 9;
const DL_MS: u64 = 50;

/// The eco leg's workload: base size (the ISSUE pins n >= 33) and how
/// many single-module edits are timed both ways.
const ECO_MODULES: usize = 33;
const ECO_EDITS: usize = 5;
const ECO_SEED: u64 = 0xEC0;

struct Measured {
    wall_s: f64,
    throughput: f64,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    max_ms: f64,
    solves: u64,
    coalesced: u64,
    report: ShutdownReport,
}

fn request_line(id: u64) -> String {
    // Bresenham interleave: of every 100 consecutive ids, DUP_PCT are the
    // shared instance (seed 1), the rest all distinct.
    let seed = if (id * DUP_PCT) % 100 < DUP_PCT {
        1
    } else {
        1000 + id
    };
    let nl = ProblemGenerator::new(MODULES, seed).generate();
    JobRequest::new(id, &nl).with_cache(false).encode()
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// Sends `line` on a fresh connection and reads the response line. The
/// latency clock starts at the first send of the job. An error means no
/// response byte arrived.
fn exchange(addr: SocketAddr, line: &str, sent: &mut Option<Instant>) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    sent.get_or_insert_with(Instant::now);
    writeln!(stream, "{line}")?;
    let mut response = String::new();
    match BufReader::new(&stream).read_line(&mut response) {
        Ok(0) => Err(ErrorKind::UnexpectedEof.into()),
        Ok(_) => Ok(response),
        Err(e) if response.is_empty() => Err(e),
        Err(e) => panic!("response cut short: {e}"),
    }
}

/// One client: sends its job and returns the response, the latency in
/// ms, and whether it had to reconnect. A reset or broken pipe before any
/// response byte means the acceptor never took the connection, so the
/// client resends, up to [`ATTEMPTS`] times with doubling back-off.
fn client(addr: SocketAddr, id: u64) -> (JobResponse, f64, bool) {
    let line = request_line(id);
    let mut sent = None;
    let mut backoff = FIRST_BACKOFF;
    let mut attempt = 1;
    let response = loop {
        match exchange(addr, &line, &mut sent) {
            Ok(response) => break response,
            Err(e)
                if matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::BrokenPipe)
                    && attempt < ATTEMPTS =>
            {
                std::thread::sleep(backoff);
                backoff *= 2;
                attempt += 1;
            }
            Err(e) => panic!("job {id}: {e} on attempt {attempt}"),
        }
    };
    let resp = JobResponse::decode(response.trim_end()).expect("decode");
    assert!(resp.ok, "job {id} failed: {}", resp.error);
    let ms = sent
        .expect("set before the first send")
        .elapsed()
        .as_secs_f64()
        * 1e3;
    (resp, ms, attempt > 1)
}

/// One rep: CONNS concurrent connections, one request/response each.
fn drive(conns: usize) -> Measured {
    let config = ServeConfig::default()
        .with_workers(2)
        .with_cache_capacity(0)
        .with_queue_capacity(4 * conns.max(16))
        .with_per_shard_pending(4 * conns.max(16))
        .with_node_limit(4_000);
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();

    let started = Instant::now();
    let handles: Vec<_> = (0..conns as u64)
        .map(|id| std::thread::spawn(move || client(addr, id)))
        .collect();
    let responses: Vec<(JobResponse, f64, bool)> = handles
        .into_iter()
        .map(|h| h.join().expect("client"))
        .collect();
    let wall_s = started.elapsed().as_secs_f64();
    let report = server.shutdown();
    let retried = responses.iter().filter(|&&(_, _, r)| r).count();
    eprintln!("event rep: {retried} of {conns} connections retried after a reset");
    // A resent job the server had already read would be accepted twice.
    let acc = report.accounting;
    assert_eq!(
        (acc.accepted as usize, acc.completed as usize),
        (conns, conns),
        "every job accepted and completed exactly once"
    );

    let coalesced = responses.iter().filter(|(r, _, _)| r.coalesced).count() as u64;
    let solves = responses
        .iter()
        .filter(|(r, _, _)| r.ok && !r.cached && !r.coalesced)
        .count() as u64;
    let mut lat: Vec<f64> = responses.iter().map(|&(_, ms, _)| ms).collect();
    lat.sort_by(f64::total_cmp);
    Measured {
        wall_s,
        throughput: conns as f64 / wall_s.max(1e-12),
        p50_ms: percentile(&lat, 50.0),
        p90_ms: percentile(&lat, 90.0),
        p99_ms: percentile(&lat, 99.0),
        max_ms: lat.last().copied().unwrap_or(0.0),
        solves,
        coalesced,
        report,
    }
}

fn median_rep(conns: usize) -> Measured {
    let mut runs: Vec<Measured> = (0..REPS).map(|_| drive(conns)).collect();
    runs.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    runs.swap_remove(REPS / 2)
}

/// The overload leg's measurements.
struct Overload {
    report: ShutdownReport,
    served: u64,
    shed: u64,
    retry_max: u64,
    /// p99 latency of the *served* jobs, measured from burst start (a
    /// shed is an immediate typed refusal, not a serviced request).
    p99_ms: f64,
}

/// The overload leg: a pipelined 2x-capacity burst against a tiny
/// admission budget must produce typed sheds and balanced books.
fn drive_overload(jobs: u64) -> Overload {
    let config = ServeConfig::default()
        .with_shards(1)
        .with_workers(1)
        .with_queue_capacity(2)
        .with_per_shard_pending(4)
        .with_cache_capacity(0)
        .with_node_limit(500);
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let started = Instant::now();
    let reader = std::thread::spawn(move || {
        let mut got = Vec::with_capacity(jobs as usize);
        let mut reader = BufReader::new(stream);
        while got.len() < jobs as usize {
            let mut line = String::new();
            if reader.read_line(&mut line).expect("read") == 0 {
                break;
            }
            let ms = started.elapsed().as_secs_f64() * 1e3;
            got.push((JobResponse::decode(line.trim_end()).expect("decode"), ms));
        }
        got
    });
    for id in 0..jobs {
        writeln!(writer, "{}", request_line(id)).expect("send");
    }
    let responses = reader.join().expect("reader");
    assert_eq!(responses.len(), jobs as usize, "every job answered");
    let served = responses.iter().filter(|(r, _)| r.ok).count() as u64;
    let shed = responses.iter().filter(|(r, _)| r.is_shed()).count() as u64;
    assert_eq!(
        served + shed,
        jobs,
        "overload answers are ok or typed sheds"
    );
    let retry_max = responses
        .iter()
        .filter(|(r, _)| r.is_shed())
        .map(|(r, _)| r.retry_after_ms)
        .max()
        .unwrap_or(0);
    let mut lat: Vec<f64> = responses
        .iter()
        .filter(|(r, _)| r.ok)
        .map(|&(_, ms)| ms)
        .collect();
    lat.sort_by(f64::total_cmp);
    Overload {
        report: server.shutdown(),
        served,
        shed,
        retry_max,
        p99_ms: percentile(&lat, 99.0),
    }
}

/// One deadline-leg measurement: every job under a 50 ms budget, solved
/// by the MILP pipeline alone (`[Milp]`) or by the portfolio race.
struct DeadlineLeg {
    hits: u64,
    degraded: u64,
    mean_area: f64,
    /// Winning backend per job, first seen first.
    wins: Vec<(String, u64)>,
}

/// Drives [`DL_JOBS`] distinct instances through an in-process engine,
/// each under the same [`DL_MS`] deadline; a hit answered within budget.
fn drive_deadline(backends: Vec<Backend>) -> DeadlineLeg {
    let engine = Engine::start(
        ServeConfig::default()
            .with_workers(2)
            .with_cache_capacity(0)
            .with_backends(backends),
    );
    let client = engine.client();
    let mut leg = DeadlineLeg {
        hits: 0,
        degraded: 0,
        mean_area: 0.0,
        wins: Vec::new(),
    };
    for id in 0..DL_JOBS {
        let nl = ProblemGenerator::new(DL_MODULES, 2000 + id).generate();
        let resp = client.call(
            JobRequest::new(id, &nl)
                .with_deadline_ms(DL_MS)
                .with_cache(false),
        );
        assert!(resp.ok, "deadline job {id} failed: {}", resp.error);
        if resp.micros <= DL_MS * 1000 {
            leg.hits += 1;
        }
        leg.degraded += u64::from(resp.degraded);
        leg.mean_area += resp.area;
        match leg.wins.iter_mut().find(|(name, _)| *name == resp.backend) {
            Some((_, n)) => *n += 1,
            None => leg.wins.push((resp.backend.clone(), 1)),
        }
    }
    engine.shutdown();
    leg.mean_area /= DL_JOBS as f64;
    leg.wins.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    leg
}

/// The eco leg's measurements over [`ECO_EDITS`] single-module edits.
struct EcoLeg {
    /// Per-edit ECO/scratch solve-time ratios, sorted ascending.
    latency_ratios: Vec<f64>,
    /// Per-edit ECO/scratch chip-area ratios, sorted ascending.
    area_ratios: Vec<f64>,
    /// Edits whose delta job rode the incremental path.
    base_hits: usize,
    scratch_p50_ms: f64,
    eco_p50_ms: f64,
}

fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 50.0)
}

/// Drives the eco leg through an in-process engine: solve the base from
/// scratch (warming the solution cache), then time each single-module
/// edit as a fresh scratch job and as a pinned delta job. Scratch runs
/// first; the cache is all the two share, and the delta job reads only
/// the base's entry from it.
fn drive_eco() -> EcoLeg {
    let engine = Engine::start(
        ServeConfig::default()
            .with_workers(2)
            .with_cache_capacity(64)
            .with_node_limit(4_000),
    );
    let client = engine.client();
    let base = ProblemGenerator::new(ECO_MODULES, ECO_SEED).generate();
    let resp = client.call(JobRequest::new(0, &base));
    assert!(resp.ok, "eco base solve failed: {}", resp.error);
    let base_fp = resp.fingerprint;
    assert_ne!(base_fp, 0, "base job must report its fingerprint");

    let mut leg = EcoLeg {
        latency_ratios: Vec::with_capacity(ECO_EDITS),
        area_ratios: Vec::with_capacity(ECO_EDITS),
        base_hits: 0,
        scratch_p50_ms: 0.0,
        eco_p50_ms: 0.0,
    };
    let mut scratch_ms = Vec::with_capacity(ECO_EDITS);
    let mut eco_ms = Vec::with_capacity(ECO_EDITS);
    for i in 0..ECO_EDITS {
        let script = format!("mod! m{:02} rigid {} {} rot", i * 5, 2 + i % 4, 3 + i % 3);
        let ops = fp_serve::parse_delta_ops(&script).expect("edit script");
        let edited = fp_serve::apply_delta(&base, &ops)
            .expect("apply edit")
            .netlist;
        let scratch = client.call(JobRequest::new(100 + i as u64, &edited).with_cache(false));
        assert!(scratch.ok, "scratch job {i} failed: {}", scratch.error);
        let eco = client.call(
            JobRequest::new(200 + i as u64, &base)
                .with_eco(&script)
                .with_eco_base(base_fp)
                .with_cache(false),
        );
        assert!(eco.ok, "eco job {i} failed: {}", eco.error);
        assert_eq!(
            eco.fingerprint, scratch.fingerprint,
            "edit {i}: delta and scratch must agree on the edited instance"
        );
        leg.base_hits += usize::from(eco.eco_base_hit);
        leg.latency_ratios
            .push(eco.micros as f64 / (scratch.micros as f64).max(1.0));
        leg.area_ratios.push(eco.area / scratch.area.max(1e-12));
        scratch_ms.push(scratch.micros as f64 / 1e3);
        eco_ms.push(eco.micros as f64 / 1e3);
    }
    engine.shutdown();
    leg.latency_ratios.sort_by(f64::total_cmp);
    leg.area_ratios.sort_by(f64::total_cmp);
    scratch_ms.sort_by(f64::total_cmp);
    eco_ms.sort_by(f64::total_cmp);
    leg.scratch_p50_ms = median(&scratch_ms);
    leg.eco_p50_ms = median(&eco_ms);
    leg
}

fn leg_json(m: &Measured) -> String {
    let acc = m.report.accounting;
    format!(
        "{{\"wall_s\": {:.6}, \"throughput_jobs_per_s\": {:.1}, \
         \"p50_ms\": {:.1}, \"p90_ms\": {:.1}, \"p99_ms\": {:.1}, \
         \"max_ms\": {:.1}, \"solves\": {}, \"coalesced\": {}, \
         \"accepted\": {}, \"completed\": {}, \"shed\": {}}}",
        m.wall_s,
        m.throughput,
        m.p50_ms,
        m.p90_ms,
        m.p99_ms,
        m.max_ms,
        m.solves,
        m.coalesced,
        acc.accepted,
        acc.completed,
        acc.shed
    )
}

fn overload_json(o: &Overload) -> String {
    let acc = o.report.accounting;
    format!(
        "{{\"jobs\": 40, \"served\": {}, \"shed\": {}, \
         \"retry_after_ms_max\": {}, \"p99_ms\": {:.1}, \
         \"accepted\": {}, \"completed\": {}}}",
        o.served, o.shed, o.retry_max, o.p99_ms, acc.accepted, acc.completed
    )
}

fn deadline_json(leg: &DeadlineLeg) -> String {
    let wins: Vec<String> = leg
        .wins
        .iter()
        .map(|(name, n)| format!("\"{name}\": {n}"))
        .collect();
    format!(
        "{{\"hit_rate\": {:.3}, \"degraded\": {}, \"mean_area\": {:.1}, \
         \"wins\": {{{}}}}}",
        leg.hits as f64 / DL_JOBS as f64,
        leg.degraded,
        leg.mean_area,
        wins.join(", ")
    )
}

/// Runs both deadline legs, prints their progress lines, and asserts
/// the portfolio meets at least as many deadlines as the MILP alone.
fn deadline_legs_checked() -> (DeadlineLeg, DeadlineLeg) {
    let sequential = drive_deadline(vec![Backend::Milp]);
    let portfolio = drive_deadline(vec![Backend::Milp, Backend::Annealer, Backend::Analytic]);
    for (leg, m) in [("sequential", &sequential), ("portfolio", &portfolio)] {
        eprintln!(
            "deadline/{leg}: {}/{DL_JOBS} within {DL_MS}ms, {} degraded, mean area {:.0}",
            m.hits, m.degraded, m.mean_area
        );
    }
    assert!(
        portfolio.hits >= sequential.hits,
        "portfolio hit {}/{DL_JOBS} deadlines, milp alone {}/{DL_JOBS} — racing made it worse",
        portfolio.hits,
        sequential.hits
    );
    (sequential, portfolio)
}

fn deadline_legs_json(sequential: &DeadlineLeg, portfolio: &DeadlineLeg) -> String {
    format!(
        "{{\"jobs\": {DL_JOBS}, \"modules\": {DL_MODULES}, \
         \"deadline_ms\": {DL_MS}, \"sequential\": {}, \"portfolio\": {}}}",
        deadline_json(sequential),
        deadline_json(portfolio)
    )
}

fn eco_json(leg: &EcoLeg) -> String {
    format!(
        "{{\"modules\": {ECO_MODULES}, \"edits\": {ECO_EDITS}, \
         \"base_hits\": {}, \"median_latency_ratio\": {:.3}, \
         \"mean_latency_ratio\": {:.3}, \"median_area_ratio\": {:.3}, \
         \"max_area_ratio\": {:.3}, \"scratch_p50_ms\": {:.1}, \
         \"eco_p50_ms\": {:.1}}}",
        leg.base_hits,
        median(&leg.latency_ratios),
        leg.latency_ratios.iter().sum::<f64>() / leg.latency_ratios.len().max(1) as f64,
        median(&leg.area_ratios),
        leg.area_ratios.last().copied().unwrap_or(0.0),
        leg.scratch_p50_ms,
        leg.eco_p50_ms
    )
}

/// Runs the eco leg, prints its progress line, and asserts every delta
/// rode the incremental path (the whole point of the leg).
fn eco_leg_checked() -> EcoLeg {
    let eco = drive_eco();
    eprintln!(
        "eco: {}/{ECO_EDITS} base hits, latency ratio p50 {:.3}, \
         area ratio p50 {:.3}, scratch p50 {:.0}ms vs eco p50 {:.0}ms",
        eco.base_hits,
        median(&eco.latency_ratios),
        median(&eco.area_ratios),
        eco.scratch_p50_ms,
        eco.eco_p50_ms
    );
    assert_eq!(
        eco.base_hits, ECO_EDITS,
        "every single-module delta must ride the incremental path"
    );
    eco
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--eco-only") {
        // The check-script entry point: just the eco leg, its JSON
        // object on stdout (progress stays on stderr).
        let eco = eco_leg_checked();
        println!("{}", eco_json(&eco));
        return;
    }
    if args.iter().any(|a| a == "--deadline-only") {
        // The check-script entry point: just the two deadline legs, their
        // JSON object on stdout (progress stays on stderr).
        let (sequential, portfolio) = deadline_legs_checked();
        println!("{}", deadline_legs_json(&sequential, &portfolio));
        return;
    }
    if args.iter().any(|a| a == "--overload-only") {
        // The check-script entry point: just the overload leg, its JSON
        // object on stdout (progress stays on stderr).
        let overload = drive_overload(40);
        eprintln!(
            "overload: {} served, {} shed, p99 {:.1}ms",
            overload.served, overload.shed, overload.p99_ms
        );
        assert!(
            overload.shed > 0,
            "2x-capacity burst with queue=2 must shed"
        );
        println!("{}", overload_json(&overload));
        return;
    }
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let out_path = positional
        .first()
        .map_or_else(|| "BENCH_SERVE.json".to_string(), |s| (*s).clone());
    let conns: usize = positional
        .get(1)
        .map_or(1000, |s| s.parse().expect("CONNS must be a number"));

    let event = median_rep(conns);
    eprintln!(
        "event: {:.1} jobs/s, p99 {:.1}ms, {} solves / {} coalesced",
        event.throughput, event.p99_ms, event.solves, event.coalesced
    );
    // The duplicate share must actually dedup: at most the distinct half
    // plus the handful of shared-instance leader solves.
    assert!(
        event.solves <= (conns as u64) * 55 / 100,
        "{} solves out of {conns} jobs — coalescing not engaging",
        event.solves
    );

    let overload = drive_overload(40);
    eprintln!(
        "overload: {} served, {} shed (retry_after <= {}ms), p99 {:.1}ms",
        overload.served, overload.shed, overload.retry_max, overload.p99_ms
    );
    assert!(
        overload.shed > 0,
        "2x-capacity burst with queue=2 must shed"
    );
    let oacc = overload.report.accounting;
    assert_eq!(oacc.accepted, oacc.completed + oacc.shed);

    let (sequential, portfolio) = deadline_legs_checked();

    let eco = eco_leg_checked();

    let json = format!(
        "{{\n  \"bench\": \"serve_io\",\n  \"reps\": {REPS},\n  \
         \"conns\": {conns},\n  \"dup_pct\": {DUP_PCT},\n  \
         \"modules\": {MODULES},\n  \
         \"event\": {},\n  \
         \"overload\": {},\n  \
         \"deadline\": {},\n  \
         \"eco\": {}\n}}\n",
        leg_json(&event),
        overload_json(&overload),
        deadline_legs_json(&sequential, &portfolio),
        eco_json(&eco)
    );
    std::fs::write(&out_path, &json).expect("write snapshot");
    eprintln!("wrote {out_path}");
}
