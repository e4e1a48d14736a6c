//! `floorplan` — end-to-end CLI for the analytical floorplanner.
//!
//! Run `floorplan --help` for usage. The default invocation covers the
//! full paper pipeline: load or generate a problem, floorplan by
//! successive augmentation, optionally compact with the §2.5 topology LP,
//! globally route, and emit ASCII/SVG renderings. `floorplan serve` runs
//! the same pipeline as a concurrent TCP service (see fp-serve) and
//! `floorplan load` drives a running service and reports throughput and
//! latency percentiles.

mod args;

use args::{Command, LoadArgs, RunArgs, ServeArgs, HELP};
use fp_core::{optimize_topology, FloorplanConfig, Floorplanner};
use fp_netlist::{generator::ProblemGenerator, Netlist};
use fp_route::{route, RouteConfig};
use fp_serve::{JobRequest, JobResponse, ServeConfig, Server};
use fp_viz::{ascii_floorplan, svg_floorplan, svg_routed};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn cmd_run(args: &RunArgs) -> Result<(), String> {
    let netlist = args::load_netlist(args)?;

    // One tracer feeds every pipeline phase: a JSONL file sink for --trace,
    // an in-memory collector for --summary, both behind a fanout when
    // combined, and a free no-op when neither flag is given.
    let collector = args.summary.then(fp_obs::Collector::new);
    let tracer = {
        let mut sinks: Vec<Box<dyn fp_obs::Sink>> = Vec::new();
        if let Some(path) = &args.trace {
            let sink = fp_obs::JsonlSink::create(path)
                .map_err(|e| format!("cannot create trace file '{path}': {e}"))?;
            sinks.push(Box::new(sink));
        }
        if let Some(c) = &collector {
            sinks.push(Box::new(c.clone()));
        }
        if sinks.is_empty() {
            fp_obs::Tracer::disabled()
        } else {
            fp_obs::Tracer::fanout(sinks)
        }
    };

    let mut config = FloorplanConfig::default()
        .with_tracer(tracer.clone())
        .with_objective(args.objective)
        .with_ordering(args.ordering.clone())
        .with_envelopes(args.envelopes)
        .with_rotation(args.rotation)
        .with_step_options(
            fp_milp::SolveOptions::default()
                .with_node_limit(args.node_limit)
                .with_time_limit(Duration::from_secs_f64(args.time_limit)),
        );
    if let Some(w) = args.width {
        config = config.with_chip_width(w);
    }

    eprintln!(
        "floorplanning '{}': {}",
        netlist.name(),
        fp_netlist::NetlistStats::of(&netlist)
    );
    let started = Instant::now();
    let (mut floorplan, detail) = if args.portfolio {
        // Race the pipeline against the heuristic backends; the lowest
        // cost legal answer wins (see fp-serve's portfolio module).
        let backends = [
            fp_serve::Backend::Milp,
            fp_serve::Backend::Annealer,
            fp_serve::Backend::Analytic,
        ];
        let (winner, floorplan) = fp_serve::race(&netlist, &config, &backends, 0, 0x5EED, &tracer)
            .winner
            .ok_or("every portfolio backend failed")?;
        (floorplan, format!("backend {}", winner.as_str()))
    } else {
        let result = Floorplanner::with_config(&netlist, config.clone())
            .run()
            .map_err(|e| e.to_string())?;
        let detail = format!(
            "steps {}  nodes {}",
            result.stats.steps.len(),
            result.stats.total_nodes(),
        );
        (result.floorplan, detail)
    };
    if args.compact {
        floorplan = optimize_topology(&floorplan, &netlist, &config).map_err(|e| e.to_string())?;
    }

    println!(
        "chip {:.1} x {:.1} = {:.0}  utilization {:.1}%  wirelength(est) {:.0}  {detail}  time {:.2?}",
        floorplan.chip_width(),
        floorplan.chip_height(),
        floorplan.chip_area(),
        100.0 * floorplan.utilization(&netlist),
        floorplan.center_wirelength(&netlist),
        started.elapsed(),
    );

    let routing = match args.route {
        Some(algorithm) => {
            let rc = RouteConfig::default()
                .with_algorithm(algorithm)
                .with_mode(args.mode)
                .with_tracer(tracer.clone());
            let routing = route(&floorplan, &netlist, &rc).map_err(|e| e.to_string())?;
            print!("{}", fp_route::RouteReport::of(&routing).render(&netlist));
            Some(routing)
        }
        None => None,
    };

    if args.ascii {
        println!("{}", ascii_floorplan(&floorplan, &netlist, 72));
    }
    if let Some(path) = &args.svg {
        let svg = match &routing {
            Some(r) => svg_routed(&floorplan, &netlist, r),
            None => svg_floorplan(&floorplan, &netlist),
        };
        std::fs::write(path, svg).map_err(|e| format!("cannot write '{path}': {e}"))?;
        eprintln!("wrote {path}");
    }

    tracer.flush();
    if let Some(path) = &args.trace {
        eprintln!("wrote trace {path} ({} events)", tracer.total_events());
    }
    if let Some(collector) = &collector {
        print!("{}", fp_obs::render_summary(&collector.records()));
    }
    Ok(())
}

fn cmd_serve(args: &ServeArgs) -> Result<(), String> {
    let tracer = match &args.trace {
        Some(path) => {
            let sink = fp_obs::JsonlSink::create(path)
                .map_err(|e| format!("cannot create trace file '{path}': {e}"))?;
            fp_obs::Tracer::new(sink)
        }
        None => fp_obs::Tracer::disabled(),
    };
    let mut config = ServeConfig::default()
        .with_workers(args.workers)
        .with_cache_capacity(args.cache)
        .with_node_limit(args.node_limit)
        .with_queue_capacity(args.queue)
        .with_per_shard_pending(args.pending)
        .with_max_line_bytes(args.max_line)
        .with_backends(args.backends.clone())
        .with_tracer(tracer);
    if args.shards > 0 {
        config = config.with_shards(args.shards);
    }
    if let Some(path) = &args.cache_file {
        config = config.with_cache_path(Some(std::path::PathBuf::from(path)));
    }
    let shards = config.shards;
    let server = Server::bind(args.bind.as_str(), config).map_err(|e| e.to_string())?;
    // The resolved address (not the bind string) so `--bind 127.0.0.1:0`
    // callers learn the ephemeral port; flushed because scripts read this
    // line through a pipe while the process keeps running.
    let portfolio = if args.backends == [fp_serve::Backend::Milp] {
        String::new()
    } else {
        let names: Vec<&str> = args.backends.iter().map(|b| b.as_str()).collect();
        format!(", racing {}", names.join("+"))
    };
    println!(
        "serving on {} ({} workers, cache {}, {shards} event shards{portfolio})",
        server.local_addr(),
        args.workers,
        args.cache,
    );
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    server.wait();
    Ok(())
}

/// The base instance `--eco` delta jobs edit, plus its fingerprint as
/// reported by the service after the up-front scratch solve (pinning it
/// on each delta job detects base drift server-side).
struct EcoBase {
    netlist: Netlist,
    fingerprint: u64,
}

/// Seed of the shared `--eco` base instance, outside the 1..=spread and
/// 1000+ ranges the normal mix draws from.
const ECO_BASE_SEED: u64 = 0xEC0;

/// Request id of the `--eco` base solve: 2^53 − 1, the largest id the
/// line protocol carries, far above the job indices the load jobs use.
const ECO_BASE_ID: u64 = (1 << 53) - 1;

/// Solves the `--eco` base instance once over its own connection so its
/// placement is in the service's solution cache before any delta job
/// refers to it.
fn solve_eco_base(args: &LoadArgs) -> Result<EcoBase, String> {
    let netlist = ProblemGenerator::new(args.modules, ECO_BASE_SEED).generate();
    let stream = TcpStream::connect(&args.addr)
        .map_err(|e| format!("cannot connect to '{}': {e}", args.addr))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let req = JobRequest::new(ECO_BASE_ID, &netlist);
    writeln!(writer, "{}", req.encode()).map_err(|e| e.to_string())?;
    let mut line = String::new();
    if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
        return Err("server closed the connection".to_string());
    }
    let resp = JobResponse::decode(line.trim_end())?;
    if !resp.ok {
        return Err(format!("eco base solve failed: {}", resp.error));
    }
    if resp.fingerprint == 0 {
        return Err("server did not report a fingerprint (predates ECO)".to_string());
    }
    Ok(EcoBase {
        netlist,
        fingerprint: resp.fingerprint,
    })
}

/// The single-module edit script of the `global_job`-th delta job: each
/// resizes one module (cycling through the base's modules) to dimensions
/// varied by job index, so every delta yields a distinct edited instance.
fn eco_script(args: &LoadArgs, global_job: usize) -> String {
    let k = global_job % args.modules;
    let w = 2 + (global_job / args.modules) % 4;
    let h = 2 + (global_job / 7) % 3;
    format!("mod! m{k:02} rigid {w} {h} rot")
}

/// The instance a load job submits. Default: jobs cycle through `spread`
/// distinct seeds, so every seed after the first round repeats an earlier
/// instance and can be answered from the service's solution cache. With
/// `--dup PCT`, PCT% of jobs (evenly interleaved) submit ONE shared
/// instance — the coalescing/dedup workload — and the rest are all
/// distinct. With `--eco PCT`, PCT% of jobs (same interleave) submit a
/// delta against the shared base instead.
fn load_instance(args: &LoadArgs, global_job: usize, eco: Option<&EcoBase>) -> JobRequest {
    if let Some(base) = eco {
        if (global_job as u64 * args.eco as u64) % 100 < args.eco as u64 {
            return JobRequest::new(global_job as u64, &base.netlist)
                .with_eco(eco_script(args, global_job))
                .with_eco_base(base.fingerprint)
                .with_deadline_ms(args.deadline_ms)
                .with_cache(!args.no_cache);
        }
    }
    let seed = if args.dup > 0 {
        // Bresenham-style interleave: of every 100 consecutive jobs,
        // `dup` are the shared instance, spaced evenly, not bunched.
        if (global_job as u64 * args.dup as u64) % 100 < args.dup as u64 {
            1
        } else {
            1000 + global_job as u64
        }
    } else {
        1 + (global_job % args.spread) as u64
    };
    let nl = ProblemGenerator::new(args.modules, seed).generate();
    JobRequest::new(global_job as u64, &nl)
        .with_deadline_ms(args.deadline_ms)
        .with_cache(!args.no_cache)
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// One client's closed-loop run: one job in flight at a time, latency is
/// pure request-to-response time.
fn run_closed_loop(
    args: &LoadArgs,
    client: usize,
    eco: Option<&EcoBase>,
) -> Result<Vec<(JobResponse, f64)>, String> {
    let stream = TcpStream::connect(&args.addr)
        .map_err(|e| format!("cannot connect to '{}': {e}", args.addr))?;
    // Each job is one small line each way; without NODELAY the
    // Nagle/delayed-ACK interaction dominates latency.
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut out = Vec::with_capacity(args.jobs);
    for j in 0..args.jobs {
        let req = load_instance(args, client * args.jobs + j, eco);
        let sent = Instant::now();
        writeln!(writer, "{}", req.encode()).map_err(|e| e.to_string())?;
        let mut line = String::new();
        if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Err("server closed the connection".to_string());
        }
        let resp = JobResponse::decode(line.trim_end())?;
        out.push((resp, sent.elapsed().as_secs_f64() * 1e3));
    }
    Ok(out)
}

/// One client's open-loop run: sends are paced by the arrival rate and
/// never wait for answers, so queueing (and shedding) at the service is
/// visible in the measured latency instead of throttling the offered
/// load. A reader thread collects the possibly out-of-order responses.
fn run_open_loop(
    args: &LoadArgs,
    client: usize,
    gap: Duration,
    eco: Option<&EcoBase>,
) -> Result<Vec<(JobResponse, f64)>, String> {
    let stream = TcpStream::connect(&args.addr)
        .map_err(|e| format!("cannot connect to '{}': {e}", args.addr))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let jobs = args.jobs;
    let reader = std::thread::spawn(move || -> Result<Vec<(JobResponse, Instant)>, String> {
        let mut reader = BufReader::new(stream);
        let mut got = Vec::with_capacity(jobs);
        while got.len() < jobs {
            let mut line = String::new();
            if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                return Err("server closed the connection".to_string());
            }
            got.push((JobResponse::decode(line.trim_end())?, Instant::now()));
        }
        Ok(got)
    });
    let mut sent = HashMap::with_capacity(args.jobs);
    for j in 0..args.jobs {
        let req = load_instance(args, client * args.jobs + j, eco);
        sent.insert(req.id, Instant::now());
        writeln!(writer, "{}", req.encode()).map_err(|e| e.to_string())?;
        std::thread::sleep(gap);
    }
    let got = reader.join().map_err(|_| "reader thread panicked")??;
    Ok(got
        .into_iter()
        .map(|(resp, at)| {
            let ms = at.duration_since(sent[&resp.id]).as_secs_f64() * 1e3;
            (resp, ms)
        })
        .collect())
}

fn cmd_load(args: &LoadArgs) -> Result<(), String> {
    let total = args.clients * args.jobs;
    let mix = if args.dup > 0 {
        format!("{}% duplicate instances", args.dup)
    } else {
        format!("{} distinct instances", args.spread)
    };
    let pacing = if args.rate > 0.0 {
        format!("open loop at {} jobs/s", args.rate)
    } else {
        "closed loop".to_string()
    };
    println!(
        "load: {} clients x {} jobs -> {} ({mix} of {} modules, {pacing})",
        args.clients, args.jobs, args.addr, args.modules
    );
    // ECO traffic needs the shared base solved (and cached service-side)
    // before the first delta job refers to its fingerprint.
    let eco_base = if args.eco > 0 {
        let base = solve_eco_base(args)?;
        println!(
            "eco: base instance solved, fingerprint {:016x} ({}% delta jobs)",
            base.fingerprint, args.eco
        );
        Some(std::sync::Arc::new(base))
    } else {
        None
    };
    // Open loop: aggregate arrival rate `--rate` split across clients.
    let gap = (args.rate > 0.0).then(|| Duration::from_secs_f64(args.clients as f64 / args.rate));
    let started = Instant::now();
    let handles: Vec<_> = (0..args.clients)
        .map(|c| {
            let args = args.clone();
            let eco_base = eco_base.clone();
            std::thread::spawn(move || {
                let eco = eco_base.as_deref();
                match gap {
                    Some(gap) => run_open_loop(&args, c, gap, eco),
                    None => run_closed_loop(&args, c, eco),
                }
            })
        })
        .collect();
    let mut responses = Vec::with_capacity(total);
    for h in handles {
        responses.extend(h.join().map_err(|_| "client thread panicked")??);
    }
    let wall = started.elapsed().as_secs_f64();

    // Accounting: every id exactly once, nothing lost or duplicated.
    let mut ids: Vec<u64> = responses.iter().map(|(r, _)| r.id).collect();
    ids.sort_unstable();
    ids.dedup();
    let lost = total - ids.len();
    let ok = responses.iter().filter(|(r, _)| r.ok).count();
    let degraded = responses.iter().filter(|(r, _)| r.degraded).count();
    let cached = responses.iter().filter(|(r, _)| r.cached).count();
    let coalesced = responses.iter().filter(|(r, _)| r.coalesced).count();
    let shed = responses.iter().filter(|(r, _)| r.is_shed()).count();
    // Solves = answered neither from the cache nor by riding another
    // job's solve nor shed: what the duplicate-heavy workloads minimize.
    let solves = ok
        - responses
            .iter()
            .filter(|(r, _)| r.ok && (r.cached || r.coalesced))
            .count();
    println!(
        "responses {ok}/{total} ok  degraded {degraded}  cached {cached}  \
         coalesced {coalesced}  shed {shed}  solves {solves}  lost {lost}"
    );
    // Which backend won each answered job (servers predating the
    // portfolio protocol omit the field; then there is nothing to say),
    // plus the share of answers that fell back to the degraded greedy.
    let mut wins: Vec<(&str, usize)> = Vec::new();
    for (r, _) in responses
        .iter()
        .filter(|(r, _)| r.ok && !r.backend.is_empty())
    {
        match wins.iter_mut().find(|(name, _)| *name == r.backend) {
            Some((_, n)) => *n += 1,
            None => wins.push((r.backend.as_str(), 1)),
        }
    }
    if !wins.is_empty() {
        wins.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let dist: Vec<String> = wins.iter().map(|(name, n)| format!("{name} {n}")).collect();
        println!(
            "backends: {}  degraded {:.1}%",
            dist.join("  "),
            100.0 * degraded as f64 / ok.max(1) as f64
        );
    }
    // ECO accounting: how many delta jobs rode the incremental path
    // (base placement found, only touched modules re-placed) versus
    // falling back to a scratch solve of the edited instance.
    let eco_jobs: Vec<&JobResponse> = responses
        .iter()
        .filter(|(r, _)| r.eco_total > 0)
        .map(|(r, _)| r)
        .collect();
    if !eco_jobs.is_empty() {
        let hits = eco_jobs.iter().filter(|r| r.eco_base_hit).count();
        let replaced: usize = eco_jobs
            .iter()
            .filter(|r| r.eco_base_hit)
            .map(|r| r.eco_replaced)
            .sum();
        println!(
            "eco: {} delta jobs  base hits {hits}  scratch fallbacks {}  avg replaced {:.1}/{}",
            eco_jobs.len(),
            eco_jobs.len() - hits,
            replaced as f64 / hits.max(1) as f64,
            args.modules
        );
    }
    for (r, _) in responses
        .iter()
        .filter(|(r, _)| !r.ok && !r.is_shed())
        .take(3)
    {
        eprintln!("  job {} failed: {}", r.id, r.error);
    }

    // Latency percentiles cover the accepted (non-shed) jobs; a shed is
    // an immediate typed refusal, not a serviced request.
    let mut lat: Vec<f64> = responses
        .iter()
        .filter(|(r, _)| !r.is_shed())
        .map(|&(_, ms)| ms)
        .collect();
    lat.sort_by(|a, b| a.total_cmp(b));
    println!(
        "throughput {:.1} jobs/s  wall {wall:.2}s",
        total as f64 / wall
    );
    println!(
        "latency ms: p50 {:.1}  p90 {:.1}  p99 {:.1}  max {:.1}",
        percentile(&lat, 50.0),
        percentile(&lat, 90.0),
        percentile(&lat, 99.0),
        lat.last().copied().unwrap_or(0.0)
    );
    if lost > 0 {
        return Err(format!("{lost} responses lost or duplicated"));
    }
    if ok + shed < total {
        return Err(format!("{} jobs failed", total - ok - shed));
    }
    Ok(())
}

fn run() -> Result<(), String> {
    match args::parse_command(std::env::args().skip(1))? {
        Command::Run(a) => cmd_run(&a),
        Command::Serve(a) => cmd_serve(&a),
        Command::Load(a) => cmd_load(&a),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) if msg.is_empty() => {
            println!("{HELP}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{HELP}");
            ExitCode::from(2)
        }
    }
}
