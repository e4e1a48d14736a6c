//! Trace invariants (the fp-obs tentpole): the structured event stream a
//! run emits must agree with the statistics the pipeline itself reports,
//! and a disabled tracer must emit nothing while changing nothing.
//!
//! Budgets are generous on purpose: every step MILP returns `Ok`, so the
//! trace's node accounting and `RunStats` describe the same solves with no
//! error-path slack. One case starves the steps instead, to pin that a
//! step ending without a solution still counts the nodes it explored.

use fp_core::{
    bottom_left, improve_traced, FloorplanConfig, Floorplanner, RunStats, StepKind, StepOutcome,
};
use fp_milp::SolveOptions;
use fp_netlist::generator::ProblemGenerator;
use fp_obs::{validate_line, Collector, Event, JsonlSink, Phase, Record, StepTermination, Tracer};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A collector-backed config over a seeded problem. Budgets stay at the
/// generous defaults so no step errors out.
fn traced_config() -> (FloorplanConfig, Collector) {
    let collector = Collector::new();
    let config = FloorplanConfig::default().with_tracer(Tracer::new(collector.clone()));
    (config, collector)
}

fn incumbents_of(records: &[Record]) -> Vec<f64> {
    records
        .iter()
        .filter_map(|r| match r.event {
            Event::Incumbent { objective } => Some(objective),
            _ => None,
        })
        .collect()
}

/// Traced branch-and-bound node events equal the node totals the run
/// records.
#[test]
fn bnb_node_events_match_run_stats() {
    let netlist = ProblemGenerator::new(8, 3).generate();
    let (config, collector) = traced_config();
    let result = Floorplanner::with_config(&netlist, config).run().unwrap();

    assert_eq!(
        result.stats.greedy_fallbacks(),
        0,
        "a fallback would void the node-accounting premise"
    );
    assert_eq!(
        collector.count_of(|e| matches!(e, Event::BnbNode { .. })),
        result.stats.total_nodes(),
        "BnbNode events vs RunStats::total_nodes"
    );
    // The per-solve SolveEnd totals tell the same story.
    let end_nodes: usize = collector
        .of_kind(|e| matches!(e, Event::SolveEnd { .. }))
        .iter()
        .map(|r| match r.event {
            Event::SolveEnd { nodes, .. } => nodes,
            _ => unreachable!(),
        })
        .sum();
    assert_eq!(
        end_nodes,
        result.stats.total_nodes(),
        "SolveEnd nodes vs RunStats::total_nodes"
    );
}

/// A step MILP that stops at its node limit without a solution falls back
/// to the greedy placement, yet its search explored nodes: its error hands
/// back their statistics, so the trace and the run statistics agree, and
/// an untraced run records the same work as a traced one.
#[test]
fn failed_steps_count_their_traced_nodes() {
    let netlist = ProblemGenerator::new(10, 7).generate();
    let (config, collector) = traced_config();
    // Only the 1-node limit may end a search, so the run is repeatable.
    let config = config.with_step_options(
        SolveOptions::default()
            .with_node_limit(1)
            .with_time_limit(Duration::from_secs(24 * 3600)),
    );
    let result = Floorplanner::with_config(&netlist, config.clone())
        .run()
        .unwrap();

    assert!(
        result.stats.greedy_fallbacks() > 0,
        "a 1-node limit must leave some step without a solution"
    );
    assert_eq!(
        collector.count_of(|e| matches!(e, Event::BnbNode { .. })),
        result.stats.total_nodes(),
        "BnbNode events vs RunStats::total_nodes"
    );

    let untraced = config.with_tracer(Tracer::disabled());
    let untraced = Floorplanner::with_config(&netlist, untraced).run().unwrap();
    let counters = |s: &RunStats| {
        (
            s.total_nodes(),
            s.warm_nodes(),
            s.cold_nodes(),
            s.propagated_nodes(),
            s.refactorizations(),
        )
    };
    assert_eq!(counters(&untraced.stats), counters(&result.stats));
}

/// Every augmentation step emits exactly one terminal `AugmentStep` event,
/// with dense step indices and stats matching the recorded `StepStats`.
#[test]
fn one_terminal_event_per_augmentation_step() {
    let netlist = ProblemGenerator::new(9, 11).generate();
    let (config, collector) = traced_config();
    let result = Floorplanner::with_config(&netlist, config).run().unwrap();

    let steps = collector.of_kind(|e| matches!(e, Event::AugmentStep { .. }));
    assert_eq!(
        steps.len(),
        result.stats.steps.len(),
        "one AugmentStep event per recorded step"
    );
    for (i, (record, stat)) in steps.iter().zip(&result.stats.steps).enumerate() {
        let Event::AugmentStep {
            step,
            group,
            obstacles,
            binaries,
            nodes,
            outcome,
        } = record.event
        else {
            unreachable!("of_kind returned a non-AugmentStep record");
        };
        assert_eq!(record.phase, Phase::Augment);
        assert_eq!(step, i, "step indices are dense and ordered");
        assert_eq!(stat.kind, StepKind::Placement);
        assert_eq!(group, stat.group.len(), "group size");
        assert_eq!(obstacles, stat.obstacles, "obstacle count");
        assert_eq!(binaries, stat.binaries, "binary count");
        assert_eq!(nodes, stat.nodes, "node count");
        assert_eq!(outcome, stat.outcome.termination(), "outcome");
    }
    // A fallback marker may precede a terminal event, never replace it.
    assert_eq!(
        collector.count_of(|e| matches!(e, Event::GreedyFallback { .. })),
        result.stats.greedy_fallbacks(),
        "GreedyFallback markers vs recorded fallbacks"
    );
}

/// Within each solve the incumbent objective is strictly improving: the
/// step models minimize and the search only installs strictly better
/// incumbents, so the traced sequence strictly decreases.
#[test]
fn incumbent_objective_is_monotone_within_each_solve() {
    let netlist = ProblemGenerator::new(8, 17).generate();
    let (config, collector) = traced_config();
    Floorplanner::with_config(&netlist, config).run().unwrap();

    // Solves never interleave (the driver is sequential), so the stream
    // splits into SolveStart..SolveEnd segments.
    let records = collector.records();
    let mut solves = 0usize;
    let mut current: Option<Vec<Record>> = None;
    for r in records {
        match r.event {
            Event::SolveStart { .. } => {
                assert!(current.is_none(), "nested SolveStart");
                current = Some(Vec::new());
            }
            Event::SolveEnd { .. } => {
                let solve = current.take().expect("SolveEnd without SolveStart");
                solves += 1;
                let incumbents = incumbents_of(&solve);
                for pair in incumbents.windows(2) {
                    assert!(
                        pair[1] < pair[0],
                        "incumbents not strictly improving: {incumbents:?}"
                    );
                }
            }
            _ => {
                if let Some(solve) = current.as_mut() {
                    solve.push(r);
                }
            }
        }
    }
    assert!(current.is_none(), "unterminated solve");
    assert!(solves > 0, "no solves traced");
}

/// A disabled tracer emits nothing and perturbs nothing: the traced and
/// untraced runs produce identical floorplans and statistics.
#[test]
fn disabled_tracing_emits_nothing_and_changes_nothing() {
    let netlist = ProblemGenerator::new(7, 5).generate();

    let disabled = Tracer::disabled();
    assert!(!disabled.is_enabled());
    let plain_cfg = FloorplanConfig::default().with_tracer(disabled.clone());
    let plain = Floorplanner::with_config(&netlist, plain_cfg)
        .run()
        .unwrap();
    assert_eq!(disabled.total_events(), 0, "disabled tracer counted events");

    let (traced_cfg, collector) = traced_config();
    let traced = Floorplanner::with_config(&netlist, traced_cfg)
        .run()
        .unwrap();
    assert!(!collector.is_empty(), "enabled tracer saw nothing");

    assert_eq!(plain.floorplan, traced.floorplan);
    assert_eq!(plain.stats.steps.len(), traced.stats.steps.len());
    assert_eq!(plain.stats.total_nodes(), traced.stats.total_nodes());
    assert_eq!(plain.stats.max_binaries(), traced.stats.max_binaries());
}

/// Satellite fix, verified by trace: re-optimization solves are recorded as
/// `StepKind::Reoptimize` steps, their nodes count toward
/// `RunStats::total_nodes`, and the trace's node events agree.
#[test]
fn improve_nodes_are_counted_in_run_stats() {
    let netlist = ProblemGenerator::new(9, 23).generate();
    let (config, collector) = traced_config();
    let base = bottom_left(&netlist, &config).unwrap();

    let mut stats = RunStats::default();
    let rounds = 3;
    let improved = improve_traced(&base, &netlist, &config, rounds, &mut stats).unwrap();
    assert!(improved.is_valid());

    // Every recorded step is a re-optimization, and at least one MILP ran.
    assert!(!stats.steps.is_empty(), "improve recorded no solves");
    assert!(stats
        .steps
        .iter()
        .all(|s| s.kind == StepKind::Reoptimize && s.outcome != StepOutcome::GreedyFallback));
    assert!(
        stats.nodes_of_kind(StepKind::Reoptimize) > 0,
        "re-optimization explored no nodes"
    );
    assert_eq!(
        stats.total_nodes(),
        stats.nodes_of_kind(StepKind::Reoptimize),
        "improve-only stats contain only Reoptimize nodes"
    );

    // The trace corroborates: node events equal the recorded totals (the
    // topology LP is deliberately untraced and has no integer variables).
    assert_eq!(
        collector.count_of(|e| matches!(e, Event::BnbNode { .. })),
        stats.total_nodes()
    );
    assert_eq!(
        collector.count_of(|e| matches!(e, Event::SolveStart { .. })),
        stats.steps.len(),
        "one traced solve per recorded step"
    );

    // One ImproveRound event per round (the loop may break early only after
    // exhausting bands; with these sizes it runs all rounds), each carrying
    // a non-increasing height.
    let round_events: Vec<(usize, bool, f64)> = collector
        .of_kind(|e| matches!(e, Event::ImproveRound { .. }))
        .iter()
        .map(|r| match r.event {
            Event::ImproveRound {
                round,
                accepted,
                height,
            } => (round, accepted, height),
            _ => unreachable!(),
        })
        .collect();
    assert!(!round_events.is_empty() && round_events.len() <= rounds);
    for (i, &(round, _, _)) in round_events.iter().enumerate() {
        assert_eq!(round, i, "round indices are dense");
    }
    for pair in round_events.windows(2) {
        assert!(pair[1].2 <= pair[0].2 + 1e-9, "round heights regressed");
    }
    assert!(
        (round_events.last().unwrap().2 - improved.chip_height()).abs() < 1e-9,
        "last round height equals the returned floorplan's height"
    );
}

/// `StepTermination` round-trips through `StepOutcome::termination` — the
/// event vocabulary covers every outcome the driver can record.
#[test]
fn outcome_vocabulary_is_total() {
    assert_eq!(StepOutcome::Optimal.termination(), StepTermination::Optimal);
    assert_eq!(
        StepOutcome::Incumbent.termination(),
        StepTermination::Incumbent
    );
    assert_eq!(
        StepOutcome::GreedyFallback.termination(),
        StepTermination::GreedyFallback
    );
}

/// The §2.5 topology LP is timed: one traced `improve_traced` round
/// compacts twice (the input, then the round's re-optimized candidate),
/// so it emits two `topology_lp` spans, and the JSONL stream validates.
#[test]
fn improve_round_times_two_topology_lps() {
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let netlist = ProblemGenerator::new(8, 5).generate();
    let base = bottom_left(&netlist, &FloorplanConfig::default()).unwrap();
    let buf = SharedBuf::default();
    let config = FloorplanConfig::default()
        .with_tracer(Tracer::new(JsonlSink::to_writer(Box::new(buf.clone()))));
    improve_traced(&base, &netlist, &config, 1, &mut RunStats::default()).unwrap();
    config.tracer.flush();

    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let mut spans = 0;
    for line in text.lines() {
        let record = validate_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        if record.str_field("event") == Some("Span") {
            assert_eq!(record.str_field("name"), Some("topology_lp"), "{line}");
            assert_eq!(record.str_field("phase"), Some("improve"), "{line}");
            spans += 1;
        }
    }
    assert_eq!(spans, 2, "{text}");
}
