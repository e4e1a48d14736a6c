//! The in-process batch workloads, `paper_flow` and `scale_flow`.
//!
//! Each deck is handed over as netlist text and runs the paper's flow:
//! parse → successive augmentation (`Floorplanner::run`) → one round of
//! improvement (`improve_traced`: top re-optimization + §2.5 topology LP)
//! → global routing with channel adjustment (`fp_route::route`). A pass
//! runs every deck's flow once; throughput and CPU per job count these
//! flow jobs alone.
//!
//! After each pass, outside its timing, every deck also goes through an
//! in-process fp-serve [`Engine`] that solved the decks during set-up: one
//! single-module ECO edit re-placed against the cached base, then exact
//! repeats answered from the solution cache. They give `eco_p50_ms` and
//! `hit_p50_ms` through the engine's own submit, queue, worker and cache.

use crate::check::{self, Placed};
use crate::layers::Layers;
use crate::metrics::{self, share, Metrics, Samples, StretchTimer};
use crate::serve::{serve_config, shadow};
use crate::speed::{Speed, SAMPLES};
use crate::{shrink_edit, Options, Outcome, Rng, Workload, NEVER, NODE_LIMIT};
use fp_core::{improve_traced, Floorplan, FloorplanConfig, Floorplanner, RunStats};
use fp_milp::SolveOptions;
use fp_netlist::generator::ProblemGenerator;
use fp_netlist::{decks, format, Netlist};
use fp_route::{route, RouteConfig, RoutingResult};
use fp_serve::{apply_delta, parse_delta_ops, Client, Engine, JobRequest, JobResponse};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-ups per run, the first before the first pass and the rest between
/// later passes; `setup_s` is their median. A set-up solves every deck
/// once, about a pass's work, so there are only two.
const SETUP_REPEATS: usize = 2;
/// Cache-answered repeats of each deck after each pass. The repeats are
/// timed apart from the flow jobs, so this only sets how many samples the
/// deck's fastest repeat is taken from.
const HITS_PER_DECK: usize = 4;
/// Seed of the per-deck ECO edit streams.
const EDIT_SEED: u64 = 0xED17;

/// The decks of a batch workload, fixed so every count repeats exactly.
fn decks(workload: Workload, tiny: bool) -> Vec<Netlist> {
    match (workload, tiny) {
        (Workload::PaperFlow, false) => vec![
            fp_netlist::ami33(),
            fp_netlist::apte9(),
            fp_netlist::xerox10(),
            // The Table-1 random decks at the paper experiments' seed.
            ProblemGenerator::new(15, 1988).generate(),
            ProblemGenerator::new(20, 1988).generate(),
            ProblemGenerator::new(25, 1988).generate(),
        ],
        (Workload::PaperFlow, true) => vec![
            fp_netlist::apte9(),
            ProblemGenerator::new(6, 1988).generate(),
        ],
        (Workload::ScaleFlow, false) => vec![
            decks::ami49_class(1),
            decks::gsrc_style(100, 1),
            decks::gsrc_style(130, 1),
        ],
        (Workload::ScaleFlow, true) => vec![decks::gsrc_style(12, 1)],
        (Workload::ServeMix, _) => unreachable!("serve_mix is not a batch workload"),
    }
}

/// Seconds of `--seconds` that one pass accounts for; the list holds as
/// many passes as fill `--seconds`. A paper_flow pass, its ECO edits and
/// repeats included, takes about 2 s on a 2-core x86-64 host. A scale_flow
/// pass takes about 5 s, but its decks' fastest repeats need five passes
/// to hold steady, so it counts for less and a scale_flow run takes about
/// 1.7 times `--seconds`, set-ups included.
fn pass_seconds(workload: Workload) -> f64 {
    match workload {
        Workload::ScaleFlow => 4.0,
        _ => 2.5,
    }
}

/// The flow's configuration: serial solver, node limits only.
fn flow_config() -> FloorplanConfig {
    FloorplanConfig::default().with_step_options(
        SolveOptions::default()
            .with_node_limit(NODE_LIMIT)
            .with_time_limit(NEVER)
            .with_threads(1),
    )
}

/// One deck with the requests its jobs start from.
struct Deck {
    netlist: Netlist,
    text: String,
    /// The request the engine solved in set-up; its repeats are cache
    /// hits.
    request: JobRequest,
    /// The deck's single-module ECO edit of that answer, pinned to its
    /// fingerprint. Uncached, so every pass re-places it.
    eco: JobRequest,
    /// The edited instance the ECO answer must place.
    edited: Netlist,
}

/// Everything built before the timed phase.
struct Setup {
    decks: Vec<Deck>,
    /// Deck order of each pass.
    passes: Vec<Vec<usize>>,
    engine: Engine,
}

/// Generates the decks, starts an engine with one worker, solves every
/// deck through it (the warm set of its ECO edits and repeats, which also
/// warms code and allocator pools up) and fixes the job list.
fn setup(opts: &Options) -> Result<Setup, String> {
    let engine = Engine::start(serve_config(1));
    let client = engine.client();
    let decks = decks(opts.workload, opts.tiny)
        .into_iter()
        .zip(0..)
        .map(|(netlist, d)| {
            // Unrouted, as serve_mix's ECO base: repeats and ECO edits
            // time the service, and the flow jobs already time routing.
            let request = JobRequest::new(0, &netlist);
            let base = client.call(request.clone());
            if !base.ok || base.degraded {
                // Degraded answers are not cached, so repeats would miss.
                return Err(format!(
                    "{}: set-up solve failed or degraded: {}",
                    netlist.name(),
                    base.error
                ));
            }
            let edit = shrink_edit(&netlist, &mut Rng::new(EDIT_SEED + d));
            let edited = parse_delta_ops(&edit).and_then(|ops| apply_delta(&netlist, &ops))?;
            Ok(Deck {
                text: format::write(&netlist),
                eco: request
                    .clone()
                    .with_eco(edit)
                    .with_eco_base(base.fingerprint)
                    .with_cache(false),
                request,
                edited: edited.netlist,
                netlist,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let passes = if opts.tiny {
        2
    } else {
        let n = (opts.seconds as f64 / pass_seconds(opts.workload)).ceil() as usize;
        if opts.trace { n.div_ceil(2) } else { n }.max(1)
    };
    // Every pass holds the same jobs; the seed orders the decks in a pass.
    let mut rng = Rng::new(opts.seed);
    let passes = (0..passes)
        .map(|_| {
            let mut order: Vec<usize> = (0..decks.len()).collect();
            rng.shuffle(&mut order);
            order
        })
        .collect();
    Ok(Setup {
        decks,
        passes,
        engine,
    })
}

/// Stage times of one flow job when traced.
#[derive(Debug, Default)]
struct FlowTimes {
    parse: Duration,
    augment: Duration,
    improve: Duration,
    route: Duration,
}

struct FlowOut {
    netlist: Netlist,
    floorplan: Floorplan,
    routing: RoutingResult,
    stats: RunStats,
}

/// Runs `f`, adding its wall time to `acc` when tracing.
fn span<T>(acc: Option<&mut Duration>, f: impl FnOnce() -> T) -> T {
    match acc {
        None => f(),
        Some(acc) => {
            let t = Instant::now();
            let r = f();
            *acc += t.elapsed();
            r
        }
    }
}

/// The paper's flow on one deck's text.
fn flow(
    text: &str,
    config: &FloorplanConfig,
    mut times: Option<&mut FlowTimes>,
) -> Result<FlowOut, String> {
    let netlist = span(times.as_mut().map(|t| &mut t.parse), || format::parse(text))
        .map_err(|e| format!("parse: {e}"))?;
    let augmented = span(times.as_mut().map(|t| &mut t.augment), || {
        Floorplanner::with_config(&netlist, config.clone()).run()
    })
    .map_err(|e| format!("augment: {e}"))?;
    let mut stats = augmented.stats;
    let floorplan = span(times.as_mut().map(|t| &mut t.improve), || {
        improve_traced(&augmented.floorplan, &netlist, config, 1, &mut stats)
    })
    .map_err(|e| format!("improve: {e}"))?;
    let routing = span(times.as_mut().map(|t| &mut t.route), || {
        route(&floorplan, &netlist, &RouteConfig::default())
    })
    .map_err(|e| format!("route: {e}"))?;
    Ok(FlowOut {
        netlist,
        floorplan,
        routing,
        stats,
    })
}

/// One request through the engine's in-process client, with its round
/// trip.
fn call(client: &Client, req: &JobRequest) -> Result<(JobResponse, Duration), String> {
    let t = Instant::now();
    let resp = client.call(req.clone());
    let rtt = t.elapsed();
    if resp.ok {
        Ok((resp, rtt))
    } else {
        Err(format!("engine answer not ok: {}", resp.error))
    }
}

/// What the checker and the determinism guard need of one flow answer.
#[derive(Debug, Clone, PartialEq)]
struct Signature {
    area_bits: u64,
    wl_bits: u64,
    nodes: usize,
}

impl Signature {
    fn of(out: &FlowOut) -> Self {
        Signature {
            area_bits: out.routing.adjustment.final_area().to_bits(),
            wl_bits: out.routing.total_wirelength.to_bits(),
            nodes: out.stats.total_nodes(),
        }
    }
}

/// Runs one job once, or in a traced run as an untraced and a traced twin
/// in alternating order. Untraced wall times go to `samples`; a traced
/// run's go to the layers' twin totals instead. Returns `(traced, output)`
/// per run; an error ends the job.
fn twins<T>(
    opts: &Options,
    j: usize,
    samples: &mut Samples,
    layers: &mut Layers,
    mut job: impl FnMut(bool) -> Result<T, String>,
) -> Result<Vec<(bool, T)>, String> {
    let order: &[bool] = match (opts.trace, j % 2) {
        (false, _) => &[false],
        (true, 0) => &[false, true],
        (true, _) => &[true, false],
    };
    let mut outs = Vec::new();
    for &traced in order {
        let t = Instant::now();
        let out = job(traced);
        let took = t.elapsed();
        match (opts.trace, traced) {
            (false, _) => samples.push(took),
            (true, true) => layers.traced += took,
            (true, false) => layers.untraced += took,
        }
        outs.push((traced, out?));
    }
    Ok(outs)
}

/// Run-wide tallies.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    degraded: u64,
    degraded_eco: u64,
    answers: u64,
    /// Wall times per deck of each job class.
    flow: Vec<Samples>,
    eco: Vec<Samples>,
    hit: Vec<Samples>,
    /// Terms of the area and wirelength sums.
    chip_area: Vec<f64>,
    module_area: Vec<f64>,
    routed_wl: Vec<f64>,
    nodes: u64,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// The job's outputs, or `None` after counting its error.
    fn ok<T>(&mut self, job: usize, outs: Result<T, String>) -> Option<T> {
        outs.map_err(|e| self.fail(format!("job {job}: {e}"))).ok()
    }

    /// Checks one placement; a failure counts against the job.
    fn check(&mut self, job: usize, netlist: &Netlist, floorplan: &Floorplan) -> bool {
        let placed: Vec<Placed> = check::from_floorplan(floorplan, netlist);
        self.verdict(
            job,
            check::check(
                netlist,
                floorplan.chip_width(),
                floorplan.chip_height(),
                &placed,
            ),
        )
    }

    /// Checks one engine answer's placement of `netlist`.
    fn check_answer(&mut self, job: usize, netlist: &Netlist, resp: &JobResponse) -> bool {
        let verdict = resp
            .placement_entries()
            .map(|e| check::from_entries(&e))
            .and_then(|p| check::check(netlist, resp.chip_width, resp.chip_height, &p));
        self.verdict(job, verdict)
    }

    fn verdict(&mut self, job: usize, verdict: Result<(), String>) -> bool {
        verdict
            .map_err(|e| self.fail(format!("job {job}: illegal answer: {e}")))
            .is_ok()
    }
}

/// What must repeat of one engine answer.
fn answer_signature(resp: &JobResponse) -> (u64, &str) {
    (resp.area.to_bits(), &resp.placement)
}

/// Runs a batch workload.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let t = Instant::now();
    let Setup {
        decks,
        passes,
        engine,
    } = setup(opts)?;
    let mut setup_times = vec![t.elapsed()];
    let config = flow_config();
    let client = engine.client();

    let per_deck = vec![Samples::default(); decks.len()];
    let mut tally = Tally {
        flow: per_deck.clone(),
        eco: per_deck.clone(),
        hit: per_deck,
        ..Tally::default()
    };
    let mut layers = Layers::default();
    let mut signatures: Vec<Option<Signature>> = vec![None; decks.len()];
    let mut eco_answers: Vec<Option<(u64, String)>> = vec![None; decks.len()];

    // Every pass is the same flow jobs; throughput and CPU per job come
    // from the fastest pass, like every other timing. The set-up is
    // repeated between passes, outside their timing, so its median is not
    // taken within one slow burst. The calibration kernel runs between
    // passes too.
    let setup_every = passes.len().div_ceil(SETUP_REPEATS);
    let mut speed = Speed::default();
    speed.sample(SAMPLES);
    let mut stretches = Vec::new();
    let mut j = 0;
    for (p, order) in passes.iter().enumerate() {
        if p > 0 {
            speed.sample(SAMPLES);
            if p.is_multiple_of(setup_every) {
                let t = Instant::now();
                let again = setup(opts)?;
                setup_times.push(t.elapsed());
                // Its engine's shutdown is teardown, not set-up.
                drop(black_box(again));
            }
        }
        let pass = StretchTimer::start();
        for &d in order {
            j += 1;
            tally.attempted += 1;
            let deck = &decks[d];
            let outs = twins(opts, j, &mut tally.flow[d], &mut layers, |traced| {
                let mut times = FlowTimes::default();
                flow(&deck.text, &config, traced.then_some(&mut times)).map(|o| (o, times))
            });
            let Some(mut outs) = tally.ok(j, outs) else {
                continue;
            };
            for (_, (out, times)) in outs.iter().filter(|(traced, _)| *traced) {
                layers.flow_jobs += 1;
                layers.parse.push(times.parse);
                layers.augment += times.augment;
                layers.compact += times
                    .improve
                    .saturating_sub(Layers::reoptimize_time(&out.stats));
                layers.route += times.route;
                layers.add_run(&out.stats);
                layers.overflowed_edges += out.routing.adjustment.overflowed_edges as u64;
                let t = Instant::now();
                black_box(out.floorplan.violations());
                layers.violations.push(t.elapsed());
            }
            let (_, (out, _)) = outs.pop().expect("a job runs at least once");
            let sig = Signature::of(&out);
            let twin_ok = outs.iter().all(|(_, (o, _))| Signature::of(o) == sig);
            let guard_ok = signatures[d].as_ref().is_none_or(|s| *s == sig);
            if !twin_ok || !guard_ok {
                tally.fail(format!(
                    "job {j}: deck {} did not reproduce its answer ({sig:?} vs {:?})",
                    deck.netlist.name(),
                    signatures[d]
                ));
            } else if tally.check(j, &out.netlist, &out.floorplan) {
                signatures[d] = Some(sig);
                tally.answers += 1;
                tally.degraded += u64::from(out.stats.greedy_fallbacks() > 0);
                tally.chip_area.push(out.routing.adjustment.final_area());
                tally.module_area.push(out.netlist.total_module_area());
                tally.routed_wl.push(out.routing.total_wirelength);
                tally.nodes += out.stats.total_nodes() as u64;
            }
        }
        stretches.push(pass.stop(order.len()));

        // The engine's ECO edits and repeats of the same decks, in the same
        // order, outside the pass's timing.
        for &d in order {
            let deck = &decks[d];
            for (eco, req, netlist) in std::iter::once((true, &deck.eco, &deck.edited)).chain(
                std::iter::repeat_n((false, &deck.request, &deck.netlist), HITS_PER_DECK),
            ) {
                j += 1;
                tally.attempted += 1;
                let samples = if eco {
                    &mut tally.eco[d]
                } else {
                    &mut tally.hit[d]
                };
                let outs = twins(opts, j, samples, &mut layers, |_| call(&client, req));
                let Some(mut outs) = tally.ok(j, outs) else {
                    continue;
                };
                for (_, (resp, rtt)) in outs.iter().filter(|(traced, _)| *traced) {
                    // The traced twin's spans are taken after its answer
                    // and count as traced time, as in serve_mix.
                    let t = Instant::now();
                    shadow(&req.encode(), resp, *rtt, netlist, &mut layers);
                    layers.traced += t.elapsed();
                }
                let (_, (resp, _)) = outs.pop().expect("a job runs at least once");
                let sig = answer_signature(&resp);
                let class_ok = if eco {
                    resp.eco_base_hit && !resp.cached
                } else {
                    resp.cached
                };
                let repeat_ok = outs.iter().all(|(_, (r, _))| answer_signature(r) == sig)
                    && (!eco
                        || eco_answers[d]
                            .as_ref()
                            .is_none_or(|(a, p)| (*a, p.as_str()) == sig));
                if !class_ok {
                    tally.fail(format!(
                        "job {j}: {} answer cached={} eco_base_hit={}",
                        if eco { "ECO" } else { "repeat" },
                        resp.cached,
                        resp.eco_base_hit
                    ));
                } else if !repeat_ok {
                    tally.fail(format!("job {j}: engine answer did not reproduce"));
                } else if tally.check_answer(j, netlist, &resp) {
                    tally.answers += 1;
                    if eco {
                        eco_answers[d] = Some((resp.area.to_bits(), resp.placement.clone()));
                        tally.degraded += u64::from(resp.degraded);
                        tally.degraded_eco += u64::from(resp.degraded);
                    }
                }
            }
        }
    }
    speed.sample(SAMPLES);
    let (throughput, cpu_per_job) = metrics::best_rates(&stretches);
    let (hits, misses) = engine.cache_stats();
    layers.cache_hits = hits;
    layers.cache_lookups = hits + misses;
    drop(engine);

    let mut out = Metrics::default();
    let flows: usize = passes.iter().map(Vec::len).sum();
    let mut report = format!(
        "{}: {} passes of {} flow jobs, each followed by {} eco and {} repeat jobs, seed {}, {}\n",
        opts.workload.name(),
        passes.len(),
        decks.len(),
        decks.len(),
        decks.len() * HITS_PER_DECK,
        opts.seed,
        if opts.trace { "traced" } else { "untraced" },
    );
    for e in &tally.errors {
        let _ = writeln!(report, "FAILED {e}");
    }
    if opts.trace {
        report.push_str(&layers.emit(&mut out));
    } else {
        // Repeats of a deck are one computation (the guards above prove
        // it), so each deck gives one sample: its fastest repeat.
        let flow = Samples::bests(&tally.flow);
        let (tail, pct) = flow.tail();
        out.push("setup_s", "s", metrics::median_secs(&setup_times));
        out.push("throughput_jobs_s", "1/s", throughput);
        out.push("job_p50_ms", "ms", flow.median());
        out.push("job_tail_ms", "ms", tail);
        out.push("hit_p50_ms", "ms", Samples::bests(&tally.hit).median());
        out.push("eco_p50_ms", "ms", Samples::bests(&tally.eco).median());
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
            "samples: {} deck bests of {flows} flow jobs (tail = p{pct:.0}); milp nodes {}; \
             degraded {} ({} eco)",
            flow.len(),
            tally.nodes,
            tally.degraded,
            tally.degraded_eco
        );
        for (d, deck) in decks.iter().enumerate() {
            let best = |s: &Samples| Samples::bests(std::slice::from_ref(s)).median();
            let _ = writeln!(
                report,
                "  {:<14} {:>3} modules, fastest: flow {:>9.2} ms, eco {:>8.2} ms, repeat {:>6.3} ms",
                deck.netlist.name(),
                deck.netlist.num_modules(),
                best(&tally.flow[d]),
                best(&tally.eco[d]),
                best(&tally.hit[d])
            );
        }
        out = speed.scale(out, &mut report);
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: out,
        report,
    })
}
