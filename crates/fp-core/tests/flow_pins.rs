//! Pins the solver counts of the paper's flow at the end-to-end
//! benchmark's settings: serial branch-and-bound, 4000-node steps and a
//! one-day time limit, so only node limits end a search and every count
//! is a pure function of the input.
//!
//! Each pin sums the augmentation and improvement steps' branch-and-bound
//! nodes, simplex pivots, basis refactorizations and eta updates, and
//! records the final chip height. A change meant to leave answers alone,
//! such as a faster LP kernel, must leave every number as it is. A change
//! that moves answers on purpose updates the numbers and says why.
//!
//! The apte9 and xerox10 pins date from the solver's move to one LP
//! kernel. Some of their small step MILPs used to run on a dense tableau,
//! which can return a different optimal vertex, so that move changed
//! their counts; xerox10's 55-binary re-optimization step now stops at
//! the 4000-node cap.

use fp_core::{improve_traced, FloorplanConfig, Floorplanner, StepStats};
use fp_milp::SolveOptions;
use fp_netlist::{ami33, apte9, decks, xerox10, Netlist};
use std::time::Duration;

#[derive(Debug, PartialEq)]
struct Counts {
    nodes: usize,
    pivots: usize,
    refactorizations: usize,
    eta_updates: usize,
    height: f64,
}

/// Augmentation, then one improvement round, as the benchmark's flow
/// runs them.
fn flow_counts(netlist: &Netlist) -> Counts {
    let config = FloorplanConfig::default().with_step_options(
        SolveOptions::default()
            .with_node_limit(4000)
            .with_time_limit(Duration::from_secs(24 * 3600)),
    );
    let augmented = Floorplanner::with_config(netlist, config.clone())
        .run()
        .expect("augmentation succeeds");
    let mut stats = augmented.stats;
    let floorplan = improve_traced(&augmented.floorplan, netlist, &config, 1, &mut stats)
        .expect("improvement succeeds");
    assert!(floorplan.is_valid(), "{:?}", floorplan.violations());
    let sum = |f: fn(&StepStats) -> usize| stats.steps.iter().map(f).sum();
    Counts {
        nodes: sum(|s| s.nodes),
        pivots: sum(|s| s.simplex_iterations),
        refactorizations: sum(|s| s.refactorizations),
        eta_updates: sum(|s| s.eta_updates),
        height: floorplan.chip_height(),
    }
}

#[test]
fn ami33_flow_counts_are_pinned() {
    assert_eq!(
        flow_counts(&ami33()),
        Counts {
            nodes: 7539,
            pivots: 28950,
            refactorizations: 4461,
            eta_updates: 27836,
            height: 116.0,
        }
    );
}

/// A quarter of the deck's modules are flexible, so the §2.5 topology LP
/// runs on a real shape trade-off.
#[test]
fn gsrc20_flow_counts_are_pinned() {
    assert_eq!(
        flow_counts(&decks::gsrc_style(20, 1)),
        Counts {
            nodes: 7130,
            pivots: 24792,
            refactorizations: 4008,
            eta_updates: 23970,
            height: 34.0,
        }
    );
}

#[test]
fn apte9_flow_counts_are_pinned() {
    assert_eq!(
        flow_counts(&apte9()),
        Counts {
            nodes: 8128,
            pivots: 41313,
            refactorizations: 5389,
            eta_updates: 39219,
            height: 122.0,
        }
    );
}

#[test]
fn xerox10_flow_counts_are_pinned() {
    assert_eq!(
        flow_counts(&xerox10()),
        Counts {
            nodes: 5871,
            pivots: 20874,
            refactorizations: 3323,
            eta_updates: 19604,
            height: 70.0,
        }
    );
}
