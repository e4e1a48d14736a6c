//! Command-line parsing: subcommand dispatch plus the per-command flag
//! parsers, hand-rolled (no external dependency).
//!
//! `floorplan` keeps its original flat invocation for floorplanning one
//! problem (`floorplan chip.fp --route sp ...`) and adds two subcommands:
//! `serve` (run the fp-serve TCP service) and `load` (a load generator
//! driving a running service). The first token decides: `serve` / `load`
//! select a subcommand, anything else is parsed as a run invocation with
//! every pre-subcommand flag and error message unchanged.

use fp_core::{Objective, OrderingStrategy};
use fp_netlist::{ami33, format, generator::ProblemGenerator, Netlist};
use fp_route::{RouteAlgorithm, RoutingMode};
use fp_serve::Backend;

/// A parsed invocation.
#[derive(Debug)]
pub enum Command {
    /// Floorplan one problem end-to-end (the original CLI).
    Run(RunArgs),
    /// Serve floorplanning jobs over TCP.
    Serve(ServeArgs),
    /// Generate load against a running service.
    Load(LoadArgs),
}

/// Flags of the original single-problem pipeline.
#[derive(Debug)]
pub struct RunArgs {
    /// Positional problem file.
    pub input: Option<String>,
    /// Use the built-in ami33 benchmark.
    pub ami33: bool,
    /// Generate a random problem `N:SEED`.
    pub random: Option<(usize, u64)>,
    /// Fixed chip width.
    pub width: Option<f64>,
    /// MILP objective.
    pub objective: Objective,
    /// Module ordering strategy.
    pub ordering: OrderingStrategy,
    /// Grow §3.2 routing envelopes.
    pub envelopes: bool,
    /// Allow 90° rotation.
    pub rotation: bool,
    /// Run the §2.5 topology LP compaction.
    pub compact: bool,
    /// Per-step node limit.
    pub node_limit: usize,
    /// Per-step time limit in seconds.
    pub time_limit: f64,
    /// Global routing algorithm.
    pub route: Option<RouteAlgorithm>,
    /// Routing mode.
    pub mode: RoutingMode,
    /// Print an ASCII rendering.
    pub ascii: bool,
    /// Write an SVG rendering.
    pub svg: Option<String>,
    /// Write a JSONL trace.
    pub trace: Option<String>,
    /// Print a per-phase trace summary.
    pub summary: bool,
    /// Race the MILP pipeline against the annealer and analytic backends
    /// instead of running the pipeline alone.
    pub portfolio: bool,
}

/// Flags of `floorplan serve`.
#[derive(Debug, PartialEq)]
pub struct ServeArgs {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub bind: String,
    /// Worker threads.
    pub workers: usize,
    /// Solution-cache capacity (entries; 0 disables).
    pub cache: usize,
    /// Per-step node limit for jobs.
    pub node_limit: usize,
    /// Event-loop shard count (0 = auto from available parallelism).
    pub shards: usize,
    /// Global job-queue capacity (the shedding admission bound).
    pub queue: usize,
    /// Per-shard bound on decoded-but-unanswered jobs.
    pub pending: usize,
    /// Longest accepted request line in bytes.
    pub max_line: usize,
    /// Write service trace events (cache hits/misses, jobs) to a file.
    pub trace: Option<String>,
    /// Solver backends to race per job (default: `milp` alone).
    pub backends: Vec<Backend>,
    /// Solution-cache snapshot file: loaded on start, written on
    /// graceful shutdown (None = in-memory only).
    pub cache_file: Option<String>,
}

/// Flags of `floorplan load`.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadArgs {
    /// Service address to connect to.
    pub addr: String,
    /// Concurrent client connections.
    pub clients: usize,
    /// Jobs per client.
    pub jobs: usize,
    /// Per-job deadline in milliseconds (0 = none).
    pub deadline_ms: u64,
    /// Modules per generated instance.
    pub modules: usize,
    /// Number of distinct instances the jobs cycle through (repeats are
    /// what exercises the solution cache).
    pub spread: usize,
    /// Open-loop aggregate arrival rate in jobs/s (0 = closed loop:
    /// each client waits for its answer before sending the next job).
    pub rate: f64,
    /// Percentage (0-100) of jobs that submit one shared duplicate
    /// instance; the rest are all distinct. Overrides `spread` when
    /// set — this is the coalescing/cache-dedup workload.
    pub dup: usize,
    /// Disable the solution cache for the submitted jobs.
    pub no_cache: bool,
    /// Percentage (0-100) of jobs sent as ECO delta jobs against one
    /// shared base instance (solved up front so its placement is in the
    /// service cache); each delta edits a single module.
    pub eco: usize,
}

/// Parses a full argument list (without the program name).
///
/// # Errors
///
/// A human-readable message; the empty string requests help.
pub fn parse_command<I: Iterator<Item = String>>(mut it: I) -> Result<Command, String> {
    match it.next() {
        Some(first) if first == "serve" => parse_serve_args(it).map(Command::Serve),
        Some(first) if first == "load" => parse_load_args(it).map(Command::Load),
        Some(first) => parse_run_args(std::iter::once(first).chain(it)).map(Command::Run),
        None => parse_run_args(std::iter::empty()).map(Command::Run),
    }
}

/// Parses the original run flags (behavior unchanged from the flat CLI).
///
/// # Errors
///
/// A human-readable message; the empty string requests help.
pub fn parse_run_args<I: Iterator<Item = String>>(mut it: I) -> Result<RunArgs, String> {
    let mut args = RunArgs {
        input: None,
        ami33: false,
        random: None,
        width: None,
        objective: Objective::Area,
        ordering: OrderingStrategy::Connectivity,
        envelopes: false,
        rotation: true,
        compact: false,
        node_limit: 20_000,
        time_limit: 10.0,
        route: None,
        mode: RoutingMode::AroundTheCell,
        ascii: false,
        svg: None,
        trace: None,
        summary: false,
        portfolio: false,
    };
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--ami33" => args.ami33 = true,
            "--random" => {
                let v = value("--random")?;
                let (n, seed) = v
                    .split_once(':')
                    .ok_or_else(|| "--random wants N:SEED".to_string())?;
                args.random = Some((
                    n.parse().map_err(|_| "bad N in --random")?,
                    seed.parse().map_err(|_| "bad SEED in --random")?,
                ));
            }
            "--width" => args.width = Some(value("--width")?.parse().map_err(|_| "bad width")?),
            "--objective" => {
                let v = value("--objective")?;
                args.objective = match v.split_once(':') {
                    None if v == "area" => Objective::Area,
                    None if v == "wire" => Objective::AreaPlusWirelength { lambda: 0.5 },
                    Some(("wire", l)) => Objective::AreaPlusWirelength {
                        lambda: l.parse().map_err(|_| "bad lambda")?,
                    },
                    _ => return Err(format!("unknown objective '{v}'")),
                };
            }
            "--ordering" => {
                let v = value("--ordering")?;
                args.ordering = match v.split_once(':') {
                    None if v == "connectivity" => OrderingStrategy::Connectivity,
                    None if v == "area" => OrderingStrategy::Area,
                    None if v == "random" => OrderingStrategy::Random(1),
                    Some(("random", s)) => {
                        OrderingStrategy::Random(s.parse().map_err(|_| "bad seed")?)
                    }
                    _ => return Err(format!("unknown ordering '{v}'")),
                };
            }
            "--envelopes" => args.envelopes = true,
            "--no-rotation" => args.rotation = false,
            "--compact" => args.compact = true,
            "--node-limit" => {
                args.node_limit = value("--node-limit")?
                    .parse()
                    .map_err(|_| "bad node limit")?;
            }
            "--time-limit" => {
                args.time_limit = value("--time-limit")?
                    .parse()
                    .map_err(|_| "bad time limit")?;
            }
            "--route" => {
                args.route = Some(match value("--route")?.as_str() {
                    "sp" => RouteAlgorithm::ShortestPath,
                    "wsp" => RouteAlgorithm::WeightedShortestPath,
                    other => return Err(format!("unknown router '{other}'")),
                });
            }
            "--mode" => {
                args.mode = match value("--mode")?.as_str() {
                    "over" => RoutingMode::OverTheCell,
                    "around" => RoutingMode::AroundTheCell,
                    other => return Err(format!("unknown mode '{other}'")),
                };
            }
            "--ascii" => args.ascii = true,
            "--svg" => args.svg = Some(value("--svg")?),
            "--trace" => args.trace = Some(value("--trace")?),
            "--summary" => args.summary = true,
            "--portfolio" => args.portfolio = true,
            "--help" | "-h" => return Err(String::new()),
            other if !other.starts_with('-') => args.input = Some(other.to_string()),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(args)
}

fn parse_serve_args<I: Iterator<Item = String>>(mut it: I) -> Result<ServeArgs, String> {
    let mut args = ServeArgs {
        bind: "127.0.0.1:7077".to_string(),
        workers: 2,
        cache: 128,
        node_limit: 4_000,
        shards: 0,
        queue: 64,
        pending: 256,
        max_line: 1 << 20,
        trace: None,
        backends: vec![Backend::Milp],
        cache_file: None,
    };
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--bind" => args.bind = value("--bind")?,
            "--workers" => {
                let n: usize = value("--workers")?
                    .parse()
                    .map_err(|_| "bad worker count")?;
                if n == 0 {
                    return Err("--workers wants at least 1".to_string());
                }
                args.workers = n;
            }
            "--cache" => {
                args.cache = value("--cache")?
                    .parse()
                    .map_err(|_| "bad cache capacity")?;
            }
            "--node-limit" => {
                args.node_limit = value("--node-limit")?
                    .parse()
                    .map_err(|_| "bad node limit")?;
            }
            "--shards" => {
                args.shards = value("--shards")?.parse().map_err(|_| "bad shard count")?;
            }
            "--queue" => {
                let n: usize = value("--queue")?
                    .parse()
                    .map_err(|_| "bad queue capacity")?;
                if n == 0 {
                    return Err("--queue wants at least 1".to_string());
                }
                args.queue = n;
            }
            "--pending" => {
                let n: usize = value("--pending")?
                    .parse()
                    .map_err(|_| "bad pending bound")?;
                if n == 0 {
                    return Err("--pending wants at least 1".to_string());
                }
                args.pending = n;
            }
            "--max-line" => {
                let n: usize = value("--max-line")?.parse().map_err(|_| "bad line limit")?;
                if n == 0 {
                    return Err("--max-line wants at least 1".to_string());
                }
                args.max_line = n;
            }
            "--trace" => args.trace = Some(value("--trace")?),
            "--backends" => args.backends = Backend::parse_list(&value("--backends")?)?,
            "--cache-file" => args.cache_file = Some(value("--cache-file")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown serve option '{other}'")),
        }
    }
    Ok(args)
}

fn parse_load_args<I: Iterator<Item = String>>(mut it: I) -> Result<LoadArgs, String> {
    let mut args = LoadArgs {
        addr: "127.0.0.1:7077".to_string(),
        clients: 4,
        jobs: 16,
        deadline_ms: 0,
        modules: 5,
        spread: 4,
        rate: 0.0,
        dup: 0,
        no_cache: false,
        eco: 0,
    };
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--clients" => {
                let n: usize = value("--clients")?
                    .parse()
                    .map_err(|_| "bad client count")?;
                if n == 0 {
                    return Err("--clients wants at least 1".to_string());
                }
                args.clients = n;
            }
            "--jobs" => {
                let n: usize = value("--jobs")?.parse().map_err(|_| "bad job count")?;
                if n == 0 {
                    return Err("--jobs wants at least 1".to_string());
                }
                args.jobs = n;
            }
            "--deadline-ms" => {
                args.deadline_ms = value("--deadline-ms")?
                    .parse()
                    .map_err(|_| "bad deadline")?;
            }
            "--modules" => {
                let n: usize = value("--modules")?
                    .parse()
                    .map_err(|_| "bad module count")?;
                if n == 0 {
                    return Err("--modules wants at least 1".to_string());
                }
                args.modules = n;
            }
            "--spread" => {
                let n: usize = value("--spread")?.parse().map_err(|_| "bad spread")?;
                if n == 0 {
                    return Err("--spread wants at least 1".to_string());
                }
                args.spread = n;
            }
            "--rate" => {
                let r: f64 = value("--rate")?.parse().map_err(|_| "bad rate")?;
                if !r.is_finite() || r < 0.0 {
                    return Err("--rate wants a non-negative jobs/s".to_string());
                }
                args.rate = r;
            }
            "--dup" => {
                let p: usize = value("--dup")?.parse().map_err(|_| "bad dup percent")?;
                if p > 100 {
                    return Err("--dup wants a percentage 0-100".to_string());
                }
                args.dup = p;
            }
            "--no-cache" => args.no_cache = true,
            "--eco" => {
                let p: usize = value("--eco")?.parse().map_err(|_| "bad eco percent")?;
                if p > 100 {
                    return Err("--eco wants a percentage 0-100".to_string());
                }
                args.eco = p;
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown load option '{other}'")),
        }
    }
    Ok(args)
}

/// Resolves the run invocation's problem source to a netlist.
///
/// # Errors
///
/// A human-readable message when no source is given or the file cannot be
/// read/parsed.
pub fn load_netlist(args: &RunArgs) -> Result<Netlist, String> {
    if args.ami33 {
        return Ok(ami33());
    }
    if let Some((n, seed)) = args.random {
        return Ok(ProblemGenerator::new(n, seed).generate());
    }
    match &args.input {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
            // MCNC decks by extension; everything else uses the native
            // format.
            let parsed = if path.to_ascii_lowercase().ends_with(".yal") {
                format::parse_yal(&text)
            } else {
                format::parse(&text)
            };
            parsed.map_err(|e| format!("cannot parse '{path}': {e}"))
        }
        None => Err("no input: give a problem file, --ami33 or --random N:SEED".to_string()),
    }
}

/// Usage text for every command.
pub const HELP: &str = "usage: floorplan [INPUT.fp] [--ami33 | --random N:SEED]
  [--width W] [--objective area|wire[:LAMBDA]]
  [--ordering connectivity|random[:SEED]|area]
  [--envelopes] [--no-rotation] [--compact]
  [--node-limit N] [--time-limit SECS]
  [--route sp|wsp] [--mode over|around]
  [--ascii] [--svg FILE]
  [--trace FILE.jsonl] [--summary] [--portfolio]

  --trace FILE   write structured trace events (one JSON object per line:
                 solver nodes/incumbents, augmentation steps, routing)
  --summary      print a per-phase rollup of the traced run
  --portfolio    race the MILP pipeline, the slicing annealer and the
                 analytic placer on threads; the lowest-cost legal
                 answer wins and the report names the winning backend

usage: floorplan serve [--bind ADDR] [--workers N] [--cache N]
  [--node-limit N] [--shards N] [--queue N]
  [--pending N] [--max-line BYTES] [--trace FILE.jsonl]
  [--backends LIST] [--cache-file FILE.jsonl]

  serve floorplanning jobs over TCP, one JSON object per line in each
  direction, on sharded poll loops with request coalescing and load
  shedding (typed retry_after_ms); --bind 127.0.0.1:0 picks an ephemeral
  port (printed on start)
  --shards N    poll-loop shard count (default: up to 4, one per core)
  --queue N     global admission bound; --pending N per-shard bound
  --backends LIST  race these solver backends per job (comma-separated
                from milp, annealer, analytic; default: milp, the
                paper's pipeline alone)
  --cache-file F   persist the solution cache: load the snapshot on
                start, write it back on graceful shutdown

usage: floorplan load [--addr ADDR] [--clients N] [--jobs M]
  [--deadline-ms D] [--modules K] [--spread S] [--dup PCT]
  [--rate JOBS_PER_S] [--no-cache] [--eco PCT]

  drive a running serve with N clients x M jobs over S distinct random
  instances and report accounting, throughput and latency percentiles
  --dup PCT   PCT% of jobs submit one shared instance (coalesce/cache
              fodder), the rest are all distinct; overrides --spread
  --rate R    open loop: send at R jobs/s aggregate without waiting for
              answers (default closed loop: one in flight per client)
  --eco PCT   PCT% of jobs are ECO delta jobs: one shared base instance
              is solved up front, then each delta edits a single module
              and pins the base fingerprint so the service re-solves
              incrementally from the cached base placement";

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<RunArgs, String> {
        parse_run_args(tokens.iter().map(|s| s.to_string()))
    }

    fn command(tokens: &[&str]) -> Result<Command, String> {
        parse_command(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&["--ami33"]).unwrap();
        assert!(a.ami33);
        assert_eq!(a.objective, Objective::Area);
        assert!(a.rotation && !a.envelopes && !a.compact);
        assert!(a.route.is_none());
        assert!(a.trace.is_none() && !a.summary);
        assert!(!a.portfolio);
    }

    #[test]
    fn portfolio_flag_parses() {
        assert!(parse(&["--ami33", "--portfolio"]).unwrap().portfolio);
    }

    #[test]
    fn full_flags() {
        let a = parse(&[
            "chip.fp",
            "--width",
            "120",
            "--objective",
            "wire:0.7",
            "--ordering",
            "random:9",
            "--envelopes",
            "--no-rotation",
            "--compact",
            "--node-limit",
            "500",
            "--time-limit",
            "2.5",
            "--route",
            "wsp",
            "--mode",
            "over",
            "--ascii",
            "--svg",
            "out.svg",
            "--trace",
            "out.jsonl",
            "--summary",
        ])
        .unwrap();
        assert_eq!(a.input.as_deref(), Some("chip.fp"));
        assert_eq!(a.width, Some(120.0));
        assert_eq!(a.objective, Objective::AreaPlusWirelength { lambda: 0.7 });
        assert_eq!(a.ordering, OrderingStrategy::Random(9));
        assert!(a.envelopes && !a.rotation && a.compact && a.ascii);
        assert_eq!(a.node_limit, 500);
        assert_eq!(a.time_limit, 2.5);
        assert_eq!(a.route, Some(RouteAlgorithm::WeightedShortestPath));
        assert_eq!(a.mode, RoutingMode::OverTheCell);
        assert_eq!(a.svg.as_deref(), Some("out.svg"));
        assert_eq!(a.trace.as_deref(), Some("out.jsonl"));
        assert!(a.summary);
    }

    #[test]
    fn bad_flags_error() {
        assert!(parse(&["--objective", "speed"]).is_err());
        assert!(parse(&["--random", "15"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--width"]).is_err());
        assert!(parse(&["--trace"]).is_err());
    }

    #[test]
    fn removed_thread_count_flag_is_unknown() {
        // The solver's thread-count flag is gone: the search is serial.
        let flag = format!("--{}", "threads");
        assert_eq!(
            parse(&["--ami33", &flag, "4"]).unwrap_err(),
            format!("unknown option '{flag}'")
        );
    }

    #[test]
    fn help_is_empty_error() {
        assert_eq!(parse(&["--help"]).unwrap_err(), "");
        assert_eq!(command(&["serve", "--help"]).unwrap_err(), "");
        assert_eq!(command(&["load", "-h"]).unwrap_err(), "");
    }

    #[test]
    fn load_random_and_ami33() {
        let a = parse(&["--random", "5:3"]).unwrap();
        let nl = load_netlist(&a).unwrap();
        assert_eq!(nl.num_modules(), 5);
        let a = parse(&["--ami33"]).unwrap();
        assert_eq!(load_netlist(&a).unwrap().num_modules(), 33);
        let a = parse(&[]).unwrap();
        assert!(load_netlist(&a).is_err());
    }

    #[test]
    fn dispatch_defaults_to_run() {
        assert!(matches!(command(&["--ami33"]).unwrap(), Command::Run(_)));
        assert!(matches!(command(&["chip.fp"]).unwrap(), Command::Run(_)));
        assert!(matches!(command(&[]).unwrap(), Command::Run(_)));
    }

    #[test]
    fn serve_flags_parse() {
        let Command::Serve(s) = command(&[
            "serve",
            "--bind",
            "127.0.0.1:0",
            "--workers",
            "4",
            "--cache",
            "32",
            "--node-limit",
            "900",
            "--trace",
            "t.jsonl",
        ])
        .unwrap() else {
            panic!("expected serve");
        };
        assert_eq!(s.bind, "127.0.0.1:0");
        assert_eq!((s.workers, s.cache, s.node_limit), (4, 32, 900));
        assert_eq!(s.trace.as_deref(), Some("t.jsonl"));
        assert_eq!((s.shards, s.queue, s.pending), (0, 64, 256));
        assert_eq!(s.backends, vec![Backend::Milp]);
        assert!(command(&["serve", "--workers", "0"]).is_err());
        assert!(command(&["serve", "--bogus"]).is_err());
    }

    #[test]
    fn serve_backends_parse() {
        let Command::Serve(s) =
            command(&["serve", "--backends", "milp,annealer,analytic"]).unwrap()
        else {
            panic!("expected serve");
        };
        assert_eq!(
            s.backends,
            vec![Backend::Milp, Backend::Annealer, Backend::Analytic]
        );
        assert!(command(&["serve", "--backends", "milp,quantum"]).is_err());
        assert!(command(&["serve", "--backends", "milp,milp"]).is_err());
        assert!(command(&["serve", "--backends", ""]).is_err());
    }

    #[test]
    fn serve_io_flags_parse() {
        let Command::Serve(s) = command(&[
            "serve",
            "--shards",
            "2",
            "--queue",
            "8",
            "--pending",
            "16",
            "--max-line",
            "4096",
        ])
        .unwrap() else {
            panic!("expected serve");
        };
        assert_eq!((s.shards, s.queue, s.pending, s.max_line), (2, 8, 16, 4096));
        assert!(command(&["serve", "--io", "threads"]).is_err());
        assert!(command(&["serve", "--queue", "0"]).is_err());
        assert!(command(&["serve", "--max-line", "0"]).is_err());
    }

    #[test]
    fn load_flags_parse() {
        let Command::Load(l) = command(&[
            "load",
            "--addr",
            "127.0.0.1:9",
            "--clients",
            "8",
            "--jobs",
            "100",
            "--deadline-ms",
            "50",
            "--modules",
            "6",
            "--spread",
            "2",
            "--no-cache",
        ])
        .unwrap() else {
            panic!("expected load");
        };
        assert_eq!(l.addr, "127.0.0.1:9");
        assert_eq!((l.clients, l.jobs), (8, 100));
        assert_eq!(l.deadline_ms, 50);
        assert_eq!((l.modules, l.spread), (6, 2));
        assert!(l.no_cache);
        assert_eq!(l.rate, 0.0);
        assert_eq!(l.dup, 0);
        assert_eq!(l.eco, 0);
        assert!(command(&["load", "--clients", "0"]).is_err());
        assert!(command(&["load", "--jobs", "x"]).is_err());
    }

    #[test]
    fn load_eco_flag_parses() {
        let Command::Load(l) = command(&["load", "--eco", "40"]).unwrap() else {
            panic!("expected load");
        };
        assert_eq!(l.eco, 40);
        assert!(command(&["load", "--eco", "101"]).is_err());
        assert!(command(&["load", "--eco", "some"]).is_err());
    }

    #[test]
    fn serve_cache_file_parses() {
        let Command::Serve(s) = command(&["serve", "--cache-file", "snap.jsonl"]).unwrap() else {
            panic!("expected serve");
        };
        assert_eq!(s.cache_file.as_deref(), Some("snap.jsonl"));
        assert!(command(&["serve", "--cache-file"]).is_err());
    }

    #[test]
    fn load_open_loop_flags_parse() {
        let Command::Load(l) = command(&["load", "--rate", "250.5", "--dup", "50"]).unwrap() else {
            panic!("expected load");
        };
        assert_eq!(l.rate, 250.5);
        assert_eq!(l.dup, 50);
        assert!(command(&["load", "--rate", "-1"]).is_err());
        assert!(command(&["load", "--dup", "101"]).is_err());
    }
}
