//! Portfolio-mode integration tests: legality, winner attribution, the
//! quality guarantee against the default MILP-only race, the MILP leg's
//! degraded flag and solver counters (improvement round included), and
//! tight-deadline any-of behavior.

use fp_core::{FloorplanConfig, Floorplanner, StepKind};
use fp_milp::SolveOptions;
use fp_netlist::generator::ProblemGenerator;
use fp_netlist::Netlist;
use fp_obs::{Collector, EventKind, Tracer};
use fp_serve::{Backend, Engine, JobRequest, JobResponse, ServeConfig};
use std::time::Duration;

/// Solves `netlist` on a fresh single-worker engine (cache off so every
/// run actually solves) and returns the response.
fn solve(
    netlist: &Netlist,
    backends: Vec<Backend>,
    deadline_ms: u64,
    tracer: Tracer,
) -> JobResponse {
    let engine = Engine::start(
        ServeConfig::default()
            .with_workers(1)
            .with_cache_capacity(0)
            .with_backends(backends)
            .with_tracer(tracer),
    );
    let client = engine.client();
    let resp = client.call(
        JobRequest::new(1, netlist)
            .with_deadline_ms(deadline_ms)
            .with_cache(false),
    );
    engine.shutdown();
    resp
}

/// Placement sanity independent of the engine's own validity checks: all
/// modules present, every rectangle inside the outline, no overlap.
fn assert_legal(resp: &JobResponse, modules: usize) {
    assert!(resp.ok, "{}", resp.error);
    let rects = resp.placement_entries().expect("parseable placement");
    assert_eq!(rects.len(), modules);
    for r in &rects {
        assert!(r.x >= -1e-9 && r.x + r.w <= resp.chip_width + 1e-9, "{r:?}");
        assert!(
            r.y >= -1e-9 && r.y + r.h <= resp.chip_height + 1e-9,
            "{r:?}"
        );
    }
    for (i, a) in rects.iter().enumerate() {
        for b in rects.iter().skip(i + 1) {
            let apart = a.x + a.w <= b.x + 1e-9
                || b.x + b.w <= a.x + 1e-9
                || a.y + a.h <= b.y + 1e-9
                || b.y + b.h <= a.y + 1e-9;
            assert!(apart, "overlap between {a:?} and {b:?}");
        }
    }
}

#[test]
fn portfolio_names_its_winner_and_is_legal() {
    let netlist = ProblemGenerator::new(6, 31).generate();
    let collector = Collector::new();
    let resp = solve(
        &netlist,
        vec![Backend::Milp, Backend::Annealer, Backend::Analytic],
        0,
        Tracer::new(collector.clone()),
    );
    assert_legal(&resp, 6);
    assert!(resp.portfolio);
    assert!(
        matches!(resp.backend.as_str(), "milp" | "annealer" | "analytic"),
        "unexpected winner '{}'",
        resp.backend
    );
    // One BackendDone per leg, exactly one marked as the winner, and one
    // Portfolio record naming it.
    let legs = collector.of_kind(EventKind::BackendDone);
    assert_eq!(legs.len(), 3);
    let winners: Vec<&str> = legs
        .iter()
        .filter_map(|r| match &r.event {
            fp_obs::Event::BackendDone {
                backend, won: true, ..
            } => Some(*backend),
            _ => None,
        })
        .collect();
    assert_eq!(winners, vec![resp.backend.as_str()]);
    let races = collector.of_kind(EventKind::Portfolio);
    assert_eq!(races.len(), 1);
    match &races[0].event {
        fp_obs::Event::Portfolio {
            backends, winner, ..
        } => {
            assert_eq!(*backends, 3);
            assert_eq!(*winner, resp.backend.as_str());
        }
        other => panic!("unexpected event {other:?}"),
    }
}

#[test]
fn portfolio_cost_never_exceeds_the_sequential_ladder() {
    // With no deadline the race is best-of-N and the MILP leg gives
    // exactly the default config's answer (same budgets, same
    // improvement rounds). The winner is the lowest-cost leg, so the
    // portfolio's cost is bounded by the default's on every instance.
    for seed in [3_u64, 17, 42] {
        let netlist = ProblemGenerator::new(6, seed).generate();
        let sequential = solve(
            &netlist,
            ServeConfig::default().backends,
            0,
            Tracer::disabled(),
        );
        let portfolio = solve(
            &netlist,
            vec![Backend::Milp, Backend::Annealer, Backend::Analytic],
            0,
            Tracer::disabled(),
        );
        assert_legal(&sequential, 6);
        assert_legal(&portfolio, 6);
        assert!(!sequential.portfolio);
        assert!(portfolio.portfolio);
        assert!(
            portfolio.area <= sequential.area + 1e-6,
            "seed {seed}: portfolio area {} (winner {}) worse than sequential {}",
            portfolio.area,
            portfolio.backend,
            sequential.area
        );
    }
}

#[test]
fn milp_leg_with_greedy_fallbacks_answers_degraded_and_uncached() {
    // A one-node budget stops this routed deck's fractional seed step at
    // its root LP with no incumbent, so the step places its group
    // greedily: the answer must say so, and a degraded answer must not
    // be replayed from the cache.
    let netlist = ProblemGenerator::new(5, 10_004).generate();
    let engine = Engine::start(
        ServeConfig::default()
            .with_workers(1)
            .with_node_limit(1)
            .with_backends(vec![Backend::Milp]),
    );
    let client = engine.client();
    let mut req = JobRequest::new(1, &netlist);
    req.route = true;
    let first = client.call(req.clone());
    let repeat = client.call(req);
    engine.shutdown();
    assert_legal(&first, 5);
    assert_eq!(first.backend, "milp");
    assert!(!first.portfolio, "one backend is not a portfolio");
    assert!(first.degraded, "greedy fallbacks must flag the answer");
    assert!(!repeat.cached, "a degraded answer must not be cached");
    assert!(repeat.degraded);
}

#[test]
fn raced_milp_leg_feeds_the_solver_counters() {
    let netlist = ProblemGenerator::new(6, 31).generate();
    let engine = Engine::start(
        ServeConfig::default()
            .with_workers(1)
            .with_cache_capacity(0)
            .with_backends(vec![Backend::Milp, Backend::Annealer]),
    );
    let resp = engine.client().call(JobRequest::new(1, &netlist));
    let (warm, cold) = engine.solver_stats();
    engine.shutdown();
    assert_legal(&resp, 6);
    assert!(resp.portfolio);
    assert!(
        warm + cold > 0,
        "the finished MILP leg's nodes must be counted, got ({warm}, {cold})"
    );
}

/// The engine's solver counters cover every step MILP of the flow its
/// MILP leg runs, the improvement round included: a fresh engine's totals
/// for one deck equal those of fp-core's flow run with the engine's step
/// options.
#[test]
fn solver_counters_cover_the_improvement_round() {
    // Only node limits may end a search, so both runs are repeatable.
    let time_limit = Duration::from_secs(24 * 3600);
    let config = ServeConfig {
        time_limit,
        ..ServeConfig::default()
    }
    .with_workers(1)
    .with_cache_capacity(0);
    assert_eq!(config.improve_rounds, 1);
    let node_limit = config.node_limit;
    let req = JobRequest::new(1, &fp_netlist::xerox10()).with_cache(false);
    let netlist = req.parse_netlist().expect("the deck round-trips");
    let engine = Engine::start(config);
    let resp = engine.client().call(req);
    let served = (
        engine.solver_stats(),
        engine.propagated_nodes(),
        engine.factorization_stats().0,
    );
    engine.shutdown();
    assert_legal(&resp, netlist.num_modules());

    // The plain flow at the engine's step options.
    let options = SolveOptions::default()
        .with_node_limit(node_limit)
        .with_time_limit(time_limit);
    let flow = Floorplanner::with_config(
        &netlist,
        FloorplanConfig::default().with_step_options(options),
    )
    .with_improvement(1, None)
    .run()
    .expect("the flow succeeds");
    assert!(flow.stats.nodes_of_kind(StepKind::Reoptimize) > 0);
    let stats = &flow.stats;
    assert_eq!(
        served,
        (
            (stats.warm_nodes() as u64, stats.cold_nodes() as u64),
            stats.propagated_nodes() as u64,
            stats.refactorizations() as u64,
        ),
        "engine counters ((warm, cold), propagated, refactorizations) vs the flow's"
    );
    assert_eq!(resp.chip_height, flow.floorplan.chip_height());
}

#[test]
fn tight_deadline_races_first_to_finish() {
    // 30 ms is far below the MILP pipeline's time on this instance but
    // plenty for the heuristic legs: the any-of race must still answer
    // with a legal placement from one of them.
    let netlist = ProblemGenerator::new(9, 77).generate();
    let resp = solve(
        &netlist,
        vec![Backend::Milp, Backend::Annealer, Backend::Analytic],
        30,
        Tracer::disabled(),
    );
    assert_legal(&resp, 9);
    assert!(resp.portfolio);
    assert!(!resp.backend.is_empty());
}
