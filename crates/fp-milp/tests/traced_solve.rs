//! The observability layer at the solver: solving with a
//! [`fp_obs::Collector`] attached must tell the same story as
//! [`SolveStats`](fp_milp::SolveStats): event counts, pivot and warm-start
//! totals, and a strictly improving incumbent sequence that ends at the
//! reported objective.

mod common;

use common::{classic_cases, random_milp};
use fp_milp::{Model, Optimality, SolveOptions};
use fp_obs::{Collector, Event, EventKind, Tracer};

/// Solves `m` with a collector attached and cross-checks the trace against
/// the solver's own statistics. Returns the proven objective.
fn solve_and_check(m: &Model, label: &str) -> f64 {
    let collector = Collector::new();
    let tracer = Tracer::new(collector.clone());
    let sol = m
        .solve_traced(&SolveOptions::default(), &tracer)
        .expect("solve");
    assert_eq!(sol.optimality(), Optimality::Proven, "{label}: not proven");

    // Exactly one SolveStart / SolveEnd pair per solve.
    assert_eq!(
        collector.count_of(EventKind::SolveStart),
        1,
        "{label}: SolveStart count"
    );
    assert_eq!(
        collector.count_of(EventKind::SolveEnd),
        1,
        "{label}: SolveEnd count"
    );

    // The trace's node multiset matches the solver's own accounting.
    assert_eq!(
        collector.count_of(EventKind::BnbNode),
        sol.stats().nodes,
        "{label}: BnbNode count vs stats.nodes"
    );

    // Per-node pivots are counted on every outcome path (wasted warm
    // pivots included), so they must sum to the stats total, and the
    // per-node warm and propagated flags must sum to the stats counts. A
    // node settled by propagation ran no LP, so it is never warm and
    // spent nothing.
    let (mut pivot_sum, mut warm_sum, mut propagated_sum) = (0u64, 0usize, 0usize);
    for r in collector.of_kind(EventKind::BnbNode) {
        let Event::BnbNode {
            warm,
            pivots,
            refactors,
            etas,
            propagated,
            ..
        } = r.event
        else {
            unreachable!("of_kind returned a non-BnbNode record");
        };
        if propagated {
            assert!(
                !warm && pivots == 0 && refactors == 0 && etas == 0,
                "{label}: a settled node reports LP work"
            );
        }
        pivot_sum += pivots;
        warm_sum += usize::from(warm);
        propagated_sum += usize::from(propagated);
    }
    assert_eq!(
        pivot_sum,
        sol.stats().simplex_iterations as u64,
        "{label}: BnbNode pivot sum vs stats.simplex_iterations"
    );
    assert_eq!(
        warm_sum,
        sol.stats().warm_nodes,
        "{label}: BnbNode warm flags vs stats.warm_nodes"
    );
    assert_eq!(
        propagated_sum,
        sol.stats().propagated_nodes,
        "{label}: BnbNode propagated flags vs stats.propagated_nodes"
    );

    // SolveEnd carries the same totals the stats report.
    let ends = collector.of_kind(EventKind::SolveEnd);
    let Event::SolveEnd {
        nodes,
        simplex_iterations,
        proven,
    } = ends[0].event
    else {
        unreachable!("of_kind returned a non-SolveEnd record");
    };
    assert_eq!(nodes, sol.stats().nodes, "{label}: end nodes");
    assert_eq!(
        simplex_iterations,
        sol.stats().simplex_iterations,
        "{label}: end simplex iterations"
    );
    assert!(proven, "{label}: end proven flag");

    // The search only installs strictly better incumbents, so the
    // collected sequence is strictly improving and ends at the reported
    // objective.
    let incumbents: Vec<f64> = collector
        .of_kind(EventKind::Incumbent)
        .iter()
        .map(|r| match r.event {
            Event::Incumbent { objective } => objective,
            _ => unreachable!(),
        })
        .collect();
    assert!(
        !incumbents.is_empty(),
        "{label}: no incumbent events on a feasible solve"
    );
    for pair in incumbents.windows(2) {
        let improved = match m.sense() {
            fp_milp::Sense::Minimize => pair[1] < pair[0],
            fp_milp::Sense::Maximize => pair[1] > pair[0],
        };
        assert!(
            improved,
            "{label}: incumbent sequence not monotone: {incumbents:?}"
        );
    }
    let last = *incumbents.last().unwrap();
    assert!(
        (last - sol.objective()).abs() < 1e-9,
        "{label}: last incumbent {last} != objective {}",
        sol.objective()
    );

    sol.objective()
}

#[test]
fn classics_trace_consistently() {
    for (label, build) in classic_cases() {
        let (m, expected) = build();
        let obj = solve_and_check(&m, label);
        assert!(
            (obj - expected).abs() < 1e-6,
            "{label}: objective {obj} != known optimum {expected}"
        );
    }
}

#[test]
fn random_models_trace_consistently() {
    for seed in 0..8u64 {
        solve_and_check(&random_milp(seed), &format!("random_milp(seed {seed})"));
    }
}

/// With no tracer attached the solver must behave identically — this pins
/// the "cheap when disabled" contract at the solver layer.
#[test]
fn disabled_tracer_changes_nothing() {
    let (m, _) = common::facility_location();
    let opts = SolveOptions::default();
    let plain = m.solve_with(&opts).unwrap();
    let traced = m.solve_traced(&opts, &Tracer::disabled()).unwrap();
    assert_eq!(plain.values(), traced.values());
    assert_eq!(plain.objective(), traced.objective());
    assert_eq!(plain.stats().nodes, traced.stats().nodes);
}
